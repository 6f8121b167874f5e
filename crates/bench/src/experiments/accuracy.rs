//! Accuracy-shaped experiments on SynthNet: Fig. 7 (whole-model robustness),
//! Table III (2T sharing policies), Table IV (2T vs post-training
//! quantization), Table V (4T with per-layer slowdowns), Fig. 10 (pruning vs
//! speedup), and the MLPerf-style MobileNet operating point.
//!
//! These experiments substitute SynthNet for the paper's ImageNet models (see
//! ARCHITECTURE.md, substitution 1): the absolute accuracies differ, but every
//! comparison is run end to end through the same quantization + NB-SMT
//! emulation pipeline, so the orderings and trends are regenerated rather
//! than copied.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use nbsmt_core::policy::SharingPolicy;
use nbsmt_core::tuning::{
    assignment_speedup, rank_layers_by_mse, LayerProfile as TuningProfile, ThreadAssignment,
};
use nbsmt_core::ThreadCount;
use nbsmt_nn::model::{Layer, Model};
use nbsmt_nn::quantized::{QuantizedModel, ReducedPrecisionEngine, ReferenceEngine};
use nbsmt_nn::train::Dataset;
use nbsmt_quant::scheme::OperatingPoint;
use nbsmt_sparsity::prune::prune_to_sparsity;
use nbsmt_tensor::exec::ExecContext;
use nbsmt_tensor::tensor::Tensor;
use nbsmt_workloads::synthnet::{
    generate_dataset, train_synthnet, SynthTaskConfig, TrainedSynthNet,
};
use nbsmt_workloads::zoo::{mobilenet_v1, LayerKind};

use crate::engine::{NbSmtEngine, NbSmtEngineConfig};
use crate::scale::{ExecSettings, Scale};

/// Process-wide cache of trained accuracy fixtures, keyed by
/// `(scale, seed, threads, backend)`.
fn fixture_cache() -> &'static Mutex<HashMap<String, Arc<AccuracyBench>>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<AccuracyBench>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn fixture_key(scale: Scale, seed: u64, exec: &ExecSettings) -> String {
    format!(
        "{}-{}-{}-{}",
        scale.name(),
        seed,
        exec.threads,
        exec.backend.name()
    )
}

/// The shared experimental setup: a trained, calibrated SynthNet plus its
/// evaluation split.
pub struct AccuracyBench {
    /// The trained model and data splits.
    pub trained: TrainedSynthNet,
    /// The calibrated quantized model.
    pub quantized: QuantizedModel,
    /// Evaluation images.
    pub test_images: Tensor<f32>,
    /// Evaluation labels.
    pub test_labels: Vec<usize>,
    /// The execution context every evaluation in this bench runs on. By the
    /// execution-layer determinism contract it changes wall-clock time only,
    /// never the reported numbers.
    pub exec: ExecContext,
}

impl AccuracyBench {
    /// Trains and calibrates SynthNet at the given scale; the evaluation
    /// runs use the host-execution settings `exec` (threads and GEMM
    /// backend).
    ///
    /// # Panics
    ///
    /// Panics if training or calibration fails (they only fail on internal
    /// configuration errors).
    pub fn prepare(scale: Scale, seed: u64, exec: ExecSettings) -> Self {
        let task = SynthTaskConfig {
            classes: 6,
            image_size: 16,
            noise: 0.25,
        };
        let trained = train_synthnet(
            &task,
            scale.train_per_class(),
            scale.test_per_class(),
            scale.epochs(),
            seed,
        )
        .expect("SynthNet training succeeds");
        let calib = generate_dataset(&task, 8, seed.wrapping_add(77));
        let (calib_images, _) = calib.batch(0, calib.len());
        let quantized = QuantizedModel::calibrate(&trained.model, &[calib_images])
            .expect("calibration succeeds");
        let (test_images, test_labels) = trained.test.batch(0, trained.test.len());
        AccuracyBench {
            trained,
            quantized,
            test_images,
            test_labels,
            exec: exec.context(),
        }
    }

    /// Builds the same bench around an externally trained model (used by the
    /// pruning sweep, which retrains its own copies), inheriting the given
    /// execution context.
    pub fn from_model(
        model: &Model,
        test: &Dataset,
        task: &SynthTaskConfig,
        seed: u64,
        exec: ExecContext,
    ) -> Self {
        let calib = generate_dataset(task, 8, seed.wrapping_add(77));
        let (calib_images, _) = calib.batch(0, calib.len());
        let quantized =
            QuantizedModel::calibrate(model, &[calib_images]).expect("calibration succeeds");
        let (test_images, test_labels) = test.batch(0, test.len());
        AccuracyBench {
            trained: TrainedSynthNet {
                model: model.clone(),
                train: test.clone(),
                test: test.clone(),
                history: Vec::new(),
                task: *task,
            },
            quantized,
            test_images,
            test_labels,
            exec,
        }
    }

    /// FP32 accuracy.
    pub fn fp32_accuracy(&self) -> f64 {
        self.trained
            .model
            .accuracy(&self.test_images, &self.test_labels)
            .expect("forward succeeds")
    }

    /// Error-free 8-bit (A8W8) accuracy.
    pub fn int8_accuracy(&self) -> f64 {
        self.quantized
            .accuracy_with_ctx(
                &self.exec,
                &self.test_images,
                &self.test_labels,
                &mut ReferenceEngine,
            )
            .expect("forward succeeds")
    }

    /// Accuracy under an NB-SMT engine configuration; also returns the engine
    /// (with its per-layer statistics) for further analysis.
    pub fn nbsmt_accuracy(&self, config: NbSmtEngineConfig) -> (f64, NbSmtEngine) {
        let mut engine = NbSmtEngine::new(config);
        let acc = self
            .quantized
            .accuracy_with_ctx(
                &self.exec,
                &self.test_images,
                &self.test_labels,
                &mut engine,
            )
            .expect("forward succeeds");
        (acc, engine)
    }

    /// Accuracy under a whole-model reduced-precision operating point.
    pub fn reduced_accuracy(&self, point: OperatingPoint) -> f64 {
        let mut engine = ReducedPrecisionEngine { point };
        self.quantized
            .accuracy_with_ctx(
                &self.exec,
                &self.test_images,
                &self.test_labels,
                &mut engine,
            )
            .expect("forward succeeds")
    }

    /// The already-trained shared bench for these settings, if any.
    ///
    /// The five accuracy experiments (fig7, table3, table4, table5, fig10)
    /// share one trained SynthNet per `(scale, seed, exec)` so that running
    /// them back to back — `repro -- all`, or one registry experiment after
    /// another — trains once, exactly as the pre-registry monolithic driver
    /// did.
    pub fn cached(scale: Scale, seed: u64, exec: ExecSettings) -> Option<Arc<AccuracyBench>> {
        fixture_cache()
            .lock()
            .expect("fixture cache lock is never poisoned")
            .get(&fixture_key(scale, seed, &exec))
            .cloned()
    }

    /// The shared bench for these settings, training and caching it on the
    /// first call (see [`Self::cached`]).
    pub fn shared(scale: Scale, seed: u64, exec: ExecSettings) -> Arc<AccuracyBench> {
        if let Some(bench) = Self::cached(scale, seed, exec) {
            return bench;
        }
        // Train outside the lock: a long critical section would serialize
        // unrelated keys. Two racing first calls may both train; the entry
        // API keeps exactly one result.
        let bench = Arc::new(Self::prepare(scale, seed, exec));
        fixture_cache()
            .lock()
            .expect("fixture cache lock is never poisoned")
            .entry(fixture_key(scale, seed, &exec))
            .or_insert(bench)
            .clone()
    }

    /// Per-compute-layer MAC counts of the model (for speedup accounting).
    pub fn layer_mac_ops(&self) -> Vec<u64> {
        let mut macs = Vec::new();
        let dims = self.test_images.shape().dims();
        let (mut h, mut w) = (dims[2], dims[3]);
        for layer in self.trained.model.layers() {
            match layer {
                Layer::Conv2d(conv) => {
                    macs.push(conv.mac_ops(h, w));
                    h = conv.params.output_size(h);
                    w = conv.params.output_size(w);
                }
                Layer::Linear(lin) => macs.push(lin.mac_ops()),
                Layer::MaxPool2(_) => {
                    h /= 2;
                    w /= 2;
                }
                Layer::GlobalAvgPool(_) => {
                    h = 1;
                    w = 1;
                }
                _ => {}
            }
        }
        macs
    }
}

/// One row of the Fig. 7 robustness experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Operating point label (A8W8, A4W8, A8W4, A4W4).
    pub point: String,
    /// Top-1 accuracy at that operating point.
    pub accuracy: f64,
}

/// Runs the Fig. 7 whole-model robustness sweep.
pub fn fig7_robustness(bench: &AccuracyBench) -> Vec<Fig7Row> {
    let mut rows = vec![Fig7Row {
        point: "A8W8".into(),
        accuracy: bench.int8_accuracy(),
    }];
    for point in [
        OperatingPoint::A4W8,
        OperatingPoint::A8W4,
        OperatingPoint::A4W4,
    ] {
        rows.push(Fig7Row {
            point: point.label(),
            accuracy: bench.reduced_accuracy(point),
        });
    }
    rows
}

/// One row of Table III: a 2T sharing policy and its accuracy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Policy label.
    pub policy: String,
    /// Top-1 accuracy under a 2T SySMT with that policy (no reordering,
    /// matching the paper's Table III).
    pub accuracy: f64,
}

/// Runs the Table III policy sweep (activation family plus the A4W8
/// worst-case lower bound).
pub fn table3_policies(bench: &AccuracyBench) -> Vec<Table3Row> {
    let mut rows = vec![
        Table3Row {
            policy: "A8W8".into(),
            accuracy: bench.int8_accuracy(),
        },
        Table3Row {
            policy: "min (A4W8)".into(),
            accuracy: bench.reduced_accuracy(OperatingPoint::A4W8),
        },
    ];
    for (name, policy) in SharingPolicy::table3_activation_family() {
        let config = NbSmtEngineConfig::uniform(ThreadCount::Two, policy, false)
            .with_layer_threads(0, ThreadCount::One);
        let (acc, _) = bench.nbsmt_accuracy(config);
        rows.push(Table3Row {
            policy: name.to_string(),
            accuracy: acc,
        });
    }
    rows
}

/// One row of Table IV: a quantization approach and its accuracy at the
/// 4-bit-activation operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Method name.
    pub method: String,
    /// Top-1 accuracy.
    pub accuracy: f64,
}

/// Runs the Table IV comparison: a 2T SySMT (with reordering) against the
/// whole-model post-training quantization comparators.
pub fn table4_comparison(bench: &AccuracyBench) -> Vec<Table4Row> {
    let (sysmt_acc, _) = bench.nbsmt_accuracy(
        NbSmtEngineConfig::uniform(ThreadCount::Two, SharingPolicy::S_A, true)
            .with_layer_threads(0, ThreadCount::One),
    );
    vec![
        Table4Row {
            method: "FP32".into(),
            accuracy: bench.fp32_accuracy(),
        },
        Table4Row {
            method: "A8W8 baseline".into(),
            accuracy: bench.int8_accuracy(),
        },
        Table4Row {
            method: "2T SySMT (S+A, reorder)".into(),
            accuracy: sysmt_acc,
        },
        Table4Row {
            method: "Static A4W8 (min-max)".into(),
            accuracy: bench.reduced_accuracy(OperatingPoint::A4W8),
        },
        Table4Row {
            method: "Static A4W4 (min-max)".into(),
            accuracy: bench.reduced_accuracy(OperatingPoint::A4W4),
        },
    ]
}

/// One row of Table V: a 4T operating point with some layers slowed to 2T.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table5Row {
    /// Number of layers forced to two threads.
    pub layers_at_2t: usize,
    /// Top-1 accuracy.
    pub accuracy: f64,
    /// Architectural speedup over the 1-threaded baseline.
    pub speedup: f64,
}

/// Runs the Table V experiment: a 4T SySMT with 0, 1, and 2 of the
/// highest-MSE layers slowed down to 2T.
pub fn table5_slowdown(bench: &AccuracyBench) -> Vec<Table5Row> {
    // First pass at uniform 4T to record per-layer MSE.
    let (acc_4t, engine) = bench.nbsmt_accuracy(
        NbSmtEngineConfig::uniform(ThreadCount::Four, SharingPolicy::S_A, true)
            .with_layer_threads(0, ThreadCount::One),
    );
    let macs = bench.layer_mac_ops();
    // Speedup accounting covers the NB-SMT-executed layers only: the paper
    // leaves the first convolution and the fully connected layers intact and
    // reports the speedup of the layers that run under NB-SMT.
    let profiles: Vec<TuningProfile> = macs
        .iter()
        .enumerate()
        .map(|(i, &mac_ops)| TuningProfile {
            index: i,
            mac_ops: if i == 0 || i + 1 == macs.len() {
                0
            } else {
                mac_ops
            },
            mse: engine.layer_mse(i),
        })
        .collect();
    let ranked = rank_layers_by_mse(&profiles);

    let mut rows = Vec::new();
    for slow_count in 0..=2usize {
        let mut assignment = ThreadAssignment::uniform(profiles.len(), ThreadCount::Four);
        // The first convolution always runs at one thread in the paper.
        assignment.set(0, 1);
        let mut config = NbSmtEngineConfig::uniform(ThreadCount::Four, SharingPolicy::S_A, true)
            .with_layer_threads(0, ThreadCount::One);
        let mut slowed = 0usize;
        for &layer in &ranked {
            if slowed == slow_count {
                break;
            }
            if layer == 0 {
                continue;
            }
            assignment.set(layer, 2);
            config = config.with_layer_threads(layer, ThreadCount::Two);
            slowed += 1;
        }
        let accuracy = if slow_count == 0 {
            acc_4t
        } else {
            bench.nbsmt_accuracy(config).0
        };
        rows.push(Table5Row {
            layers_at_2t: slow_count,
            accuracy,
            speedup: assignment_speedup(&profiles, &assignment),
        });
    }
    rows
}

/// One point of the Fig. 10 pruning sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10Point {
    /// Fraction of pruned weights.
    pub pruned: f64,
    /// Number of layers slowed to 2T.
    pub layers_at_2t: usize,
    /// Top-1 accuracy under the 4T SySMT.
    pub accuracy: f64,
    /// Architectural speedup.
    pub speedup: f64,
}

/// Runs the Fig. 10 experiment: for each pruning level, prune + retrain the
/// model, then sweep the number of layers slowed to 2T under a 4T SySMT.
pub fn fig10_pruning(bench: &AccuracyBench, scale: Scale) -> Vec<Fig10Point> {
    let prune_levels = [0.0, 0.2, 0.4, 0.6];
    let max_slowdowns = 2usize;
    let mut points = Vec::new();
    for &level in &prune_levels {
        // Prune a copy of the trained model and retrain briefly.
        let mut model = bench.trained.model.clone();
        if level > 0.0 {
            prune_model(&mut model, level);
            let config = nbsmt_nn::train::SgdConfig {
                learning_rate: 0.03,
                batch_size: 16,
                epochs: scale.epochs() / 2,
            };
            let masks = collect_masks(&model);
            let _ = nbsmt_nn::train::train(&mut model, &bench.trained.train, &config, |m| {
                reapply_masks(m, &masks);
            });
        }
        let pruned_bench = AccuracyBench::from_model(
            &model,
            &bench.trained.test,
            &bench.trained.task,
            1234,
            bench.exec.clone(),
        );
        // 4T pass to rank layers by MSE.
        let (_, engine) = pruned_bench.nbsmt_accuracy(
            NbSmtEngineConfig::uniform(ThreadCount::Four, SharingPolicy::S_A, true)
                .with_layer_threads(0, ThreadCount::One),
        );
        let macs = pruned_bench.layer_mac_ops();
        // As in Table V, speedup covers the NB-SMT-executed layers only.
        let profiles: Vec<TuningProfile> = macs
            .iter()
            .enumerate()
            .map(|(i, &mac_ops)| TuningProfile {
                index: i,
                mac_ops: if i == 0 || i + 1 == macs.len() {
                    0
                } else {
                    mac_ops
                },
                mse: engine.layer_mse(i),
            })
            .collect();
        let ranked = rank_layers_by_mse(&profiles);
        for slow_count in 0..=max_slowdowns {
            let mut assignment = ThreadAssignment::uniform(profiles.len(), ThreadCount::Four);
            assignment.set(0, 1);
            let mut config =
                NbSmtEngineConfig::uniform(ThreadCount::Four, SharingPolicy::S_A, true)
                    .with_layer_threads(0, ThreadCount::One);
            let mut slowed = 0usize;
            for &layer in &ranked {
                if slowed == slow_count {
                    break;
                }
                if layer == 0 {
                    continue;
                }
                assignment.set(layer, 2);
                config = config.with_layer_threads(layer, ThreadCount::Two);
                slowed += 1;
            }
            let (accuracy, _) = pruned_bench.nbsmt_accuracy(config);
            points.push(Fig10Point {
                pruned: level,
                layers_at_2t: slow_count,
                accuracy,
                speedup: assignment_speedup(&profiles, &assignment),
            });
        }
    }
    points
}

fn prune_model(model: &mut Model, fraction: f64) {
    for layer in model.layers_mut() {
        match layer {
            Layer::Conv2d(conv) => {
                prune_to_sparsity(conv.weight.as_mut_slice(), fraction);
            }
            Layer::Linear(lin) => {
                prune_to_sparsity(lin.weight.as_mut_slice(), fraction);
            }
            _ => {}
        }
    }
}

fn collect_masks(model: &Model) -> Vec<Vec<bool>> {
    model
        .layers()
        .iter()
        .map(|layer| match layer {
            Layer::Conv2d(conv) => conv.weight.as_slice().iter().map(|&v| v != 0.0).collect(),
            Layer::Linear(lin) => lin.weight.as_slice().iter().map(|&v| v != 0.0).collect(),
            _ => Vec::new(),
        })
        .collect()
}

fn reapply_masks(model: &mut Model, masks: &[Vec<bool>]) {
    for (layer, mask) in model.layers_mut().iter_mut().zip(masks.iter()) {
        match layer {
            Layer::Conv2d(conv) => {
                for (w, &keep) in conv.weight.as_mut_slice().iter_mut().zip(mask.iter()) {
                    if !keep {
                        *w = 0.0;
                    }
                }
            }
            Layer::Linear(lin) => {
                for (w, &keep) in lin.weight.as_mut_slice().iter_mut().zip(mask.iter()) {
                    if !keep {
                        *w = 0.0;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Result of the MLPerf-style MobileNet operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlperfRow {
    /// Model name.
    pub model: String,
    /// Architectural speedup when pointwise convolutions run at 2T and
    /// depthwise convolutions at 1T.
    pub speedup: f64,
    /// Fraction of MACs executed at two threads.
    pub fraction_at_2t: f64,
}

/// Runs the MLPerf MobileNet-v1 operating point: pointwise and dense
/// convolutions at two threads, depthwise convolutions and the classifier at
/// one thread.
pub fn mlperf_mobilenet() -> MlperfRow {
    let model = mobilenet_v1();
    let mut total = 0u64;
    let mut scaled = 0.0f64;
    let mut at_2t = 0u64;
    for (i, layer) in model.layers.iter().enumerate() {
        let macs = layer.mac_ops();
        total += macs;
        let threads = if i == 0
            || layer.kind == LayerKind::Depthwise
            || layer.kind == LayerKind::FullyConnected
        {
            1
        } else {
            2
        };
        if threads == 2 {
            at_2t += macs;
        }
        scaled += macs as f64 / threads as f64;
    }
    MlperfRow {
        model: model.name,
        speedup: total as f64 / scaled,
        fraction_at_2t: at_2t as f64 / total as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Training SynthNet once and sharing it across tests keeps the suite
    /// fast; every test only exercises read-only evaluation paths.
    fn quick_bench() -> &'static AccuracyBench {
        static BENCH: OnceLock<AccuracyBench> = OnceLock::new();
        BENCH.get_or_init(|| AccuracyBench::prepare(Scale::Quick, 2024, ExecSettings::sequential()))
    }

    #[test]
    fn fig7_baseline_is_best_and_a4w4_is_worst() {
        let bench = quick_bench();
        let rows = fig7_robustness(bench);
        assert_eq!(rows.len(), 4);
        let a8w8 = rows[0].accuracy;
        let a4w4 = rows[3].accuracy;
        assert!(a8w8 >= a4w4, "A8W8 {a8w8} should be >= A4W4 {a4w4}");
        // INT8 tracks FP32 closely.
        assert!((bench.fp32_accuracy() - a8w8).abs() <= 0.15);
    }

    #[test]
    fn table3_combined_policy_beats_worst_case() {
        let bench = quick_bench();
        let rows = table3_policies(bench);
        let get = |name: &str| rows.iter().find(|r| r.policy == name).unwrap().accuracy;
        let min = get("min (A4W8)");
        let s_a = get("S+A");
        let a8w8 = get("A8W8");
        // On the small held-out split one misclassified image is ~1.5%, so the
        // orderings are asserted with a small tolerance rather than strictly.
        assert!(
            s_a + 0.1 >= min,
            "S+A ({s_a}) should not fall well below the A4W8 floor ({min})"
        );
        assert!(
            a8w8 + 0.1 >= s_a,
            "A8W8 ({a8w8}) should not fall well below S+A ({s_a})"
        );
        // 2T SySMT with S+A stays close to the 8-bit baseline (paper: <1%).
        assert!(a8w8 - s_a <= 0.15, "S+A dropped too far: {s_a} vs {a8w8}");
        // Every policy keeps the model well above chance (1/6 classes).
        for r in &rows {
            assert!(
                r.accuracy > 0.4,
                "{}: accuracy collapsed to {}",
                r.policy,
                r.accuracy
            );
        }
    }

    #[test]
    fn table4_sysmt_beats_static_4bit_quantization() {
        let bench = quick_bench();
        let rows = table4_comparison(bench);
        let get = |name: &str| rows.iter().find(|r| r.method == name).unwrap().accuracy;
        let sysmt = get("2T SySMT (S+A, reorder)");
        let static_a4w4 = get("Static A4W4 (min-max)");
        assert!(
            sysmt + 1e-9 >= static_a4w4,
            "SySMT ({sysmt}) should be at least as accurate as static A4W4 ({static_a4w4})"
        );
    }

    #[test]
    fn table5_slowdowns_trade_speedup_for_accuracy() {
        let bench = quick_bench();
        let rows = table5_slowdown(bench);
        assert_eq!(rows.len(), 3);
        assert!(
            (rows[0].speedup - 4.0).abs() < 0.5,
            "uniform 4T speedup ~4x"
        );
        // Speedup decreases as layers are slowed.
        assert!(rows[1].speedup <= rows[0].speedup + 1e-9);
        assert!(rows[2].speedup <= rows[1].speedup + 1e-9);
        // Accuracy does not collapse when layers are slowed down.
        assert!(rows[2].accuracy + 0.2 >= rows[0].accuracy);
    }

    #[test]
    fn mlperf_mobilenet_speedup_is_close_to_two() {
        let row = mlperf_mobilenet();
        assert!(
            row.speedup > 1.8 && row.speedup < 2.0,
            "speedup {} should approach 2x since pointwise convs dominate",
            row.speedup
        );
        assert!(row.fraction_at_2t > 0.85);
    }
}
