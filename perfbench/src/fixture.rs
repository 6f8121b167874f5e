//! Set-up shared by every workload: the served model, its registry and
//! compiled sessions, the seeded request pool, and per-input references.

use std::sync::Arc;
use std::time::Instant;

use nbsmt_serve::{Inference, ModelRegistry, ServeError, Session, SmtConfig};
use nbsmt_tensor::exec::{ExecConfig, ExecContext};
use nbsmt_tensor::tensor::Tensor;
use nbsmt_workloads::synthnet::{quick_synthnet, TrainedSynthNet};

use crate::stats::median;

/// Training seed of the served model. It is fixed, so `--seed` changes the
/// traffic and the request inputs, never the program under test.
const TRAIN_SEED: u64 = 2024;
/// Calibration seed, derived from the training seed as the `scale`
/// experiment derives it, so the model equals that experiment's fixture.
pub const CALIB_SEED: u64 = TRAIN_SEED + 77;
/// The registry id of the served model.
const MODEL: &str = "synthnet";
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;

/// The execution configuration of every replica worker and of the
/// benchmark's own reference and per-layer calls: the default backend on
/// one thread.
pub fn exec_config() -> ExecConfig {
    ExecConfig {
        threads: 1,
        ..ExecConfig::default()
    }
}

/// Median wall times of the set-up steps [s].
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// `quick_synthnet`.
    pub train_s: f64,
    /// `ModelRegistry::register_synthnet` (calibration).
    pub calibrate_s: f64,
    /// `ModelRegistry::compile_ladder`.
    pub compile_s: f64,
    /// All three together (the median of the totals, not a sum of medians).
    pub total_s: f64,
}

/// The trained model and its registry, with the ladder compiled and cached.
pub struct Fixture {
    pub trained: TrainedSynthNet,
    registry: ModelRegistry,
    pub times: SetupTimes,
}

impl Fixture {
    /// Sets up `SETUP_REPEATS` times from scratch and keeps the last
    /// result, with the median time of each step.
    pub fn measure(ladder: &[SmtConfig]) -> Result<Fixture, ServeError> {
        let mut steps: [Vec<f64>; 4] = Default::default();
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            let start = Instant::now();
            let trained = quick_synthnet(TRAIN_SEED)?;
            let trained_at = Instant::now();
            let mut registry = ModelRegistry::new();
            registry.register_synthnet(MODEL, &trained, CALIB_SEED)?;
            let calibrated_at = Instant::now();
            registry.compile_ladder(MODEL, ladder)?;
            let done = Instant::now();
            let times = [
                trained_at - start,
                calibrated_at - trained_at,
                done - calibrated_at,
                done - start,
            ];
            for (step, t) in steps.iter_mut().zip(times) {
                step.push(t.as_secs_f64());
            }
            last = Some((trained, registry));
        }
        let (trained, registry) = last.expect("at least one set-up ran");
        let [train, calibrate, compile, total] = &mut steps;
        Ok(Fixture {
            trained,
            registry,
            times: SetupTimes {
                train_s: median(train),
                calibrate_s: median(calibrate),
                compile_s: median(compile),
                total_s: median(total),
            },
        })
    }

    /// The compiled session for `smt` (compiling it if the ladder lacks it).
    pub fn session(&self, smt: SmtConfig) -> Result<Arc<Session>, ServeError> {
        self.registry.compile(MODEL, smt)
    }
}

/// A seeded pool of request inputs with each input's reference logits,
/// computed by running that input alone through the serving session.
pub struct RequestPool {
    pub inputs: Vec<Tensor<f32>>,
    references: Vec<Vec<f32>>,
}

impl RequestPool {
    /// Draws `n` inputs with `seed` and computes their references on
    /// `session`.
    pub fn new(
        trained: &TrainedSynthNet,
        session: &Session,
        n: usize,
        seed: u64,
    ) -> Result<RequestPool, ServeError> {
        let (inputs, _) = trained.sample_requests(n, seed);
        let ctx = ExecContext::new(exec_config());
        let references = inputs
            .iter()
            .map(|input| {
                let mut out = session.infer_batch_refs(&ctx, &[input])?;
                Ok(out.remove(0).logits)
            })
            .collect::<Result<_, ServeError>>()?;
        Ok(RequestPool { inputs, references })
    }

    /// The input of request `key` (round-robin over the pool).
    pub fn index(&self, key: u64) -> usize {
        (key % self.inputs.len() as u64) as usize
    }

    /// True when `served` equals input `index`'s reference bit for bit.
    pub fn matches(&self, index: usize, served: &Inference) -> bool {
        let reference = &self.references[index];
        reference.len() == served.logits.len()
            && reference
                .iter()
                .zip(&served.logits)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}
