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

use nbsmt_core::metrics::{model_speedup, LayerSchedule};
use nbsmt_core::policy::SharingPolicy;
use nbsmt_core::tuning::{tuning_sweep, LayerProfile as TuningProfile, ThreadAssignment};
use nbsmt_core::ThreadCount;
use nbsmt_nn::model::{Layer, Model};
use nbsmt_nn::quantized::{QuantizedModel, ReducedPrecisionEngine, ReferenceEngine};
use nbsmt_nn::train::{train, SgdConfig};
use nbsmt_quant::scheme::OperatingPoint;
use nbsmt_sparsity::prune::{prune_to_sparsity, PruneMask};
use nbsmt_tensor::exec::ExecContext;
use nbsmt_tensor::tensor::Tensor;
use nbsmt_workloads::synthnet::{
    generate_dataset, train_synthnet, SynthTaskConfig, TrainedSynthNet,
};
use nbsmt_workloads::zoo::{mobilenet_v1, LayerKind};

use crate::engine::{paper_assignment, NbSmtEngine, NbSmtEngineConfig};
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
    /// The images `quantized` was calibrated on; Fig. 10 recalibrates each
    /// pruned model on the same batch.
    pub calib_images: Tensor<f32>,
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
        let quantized =
            QuantizedModel::calibrate(&trained.model, std::slice::from_ref(&calib_images))
                .expect("calibration succeeds");
        let (test_images, test_labels) = trained.test.batch(0, trained.test.len());
        AccuracyBench {
            trained,
            calib_images,
            quantized,
            test_images,
            test_labels,
            exec: exec.context(),
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
        let config = NbSmtEngineConfig {
            threads: paper_assignment(&bench.trained.model, ThreadCount::Two),
            policy,
            reorder: false,
        };
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
    let threads = paper_assignment(&bench.trained.model, ThreadCount::Two);
    let (sysmt_acc, _) = bench.nbsmt_accuracy(s_a_reorder(threads));
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
    let base = paper_assignment(&bench.trained.model, ThreadCount::Four);
    let profiles = tuning_profiles(bench, &base);
    tuning_sweep(&profiles, &base, ThreadCount::Two, 2)
        .into_iter()
        .map(|point| Table5Row {
            layers_at_2t: point.slowed_layers,
            accuracy: bench.nbsmt_accuracy(s_a_reorder(point.assignment)).0,
            speedup: point.speedup,
        })
        .collect()
}

/// The S+A, reordered NB-SMT configuration of Table IV and the §V-B tuning.
fn s_a_reorder(threads: ThreadAssignment) -> NbSmtEngineConfig {
    NbSmtEngineConfig {
        threads,
        policy: SharingPolicy::S_A,
        reorder: true,
    }
}

/// Each compute layer's tuning profile under `base`: its MSE from one pass
/// over the test split, and its MACs. Speedup accounting covers the layers
/// `base` runs under NB-SMT only: the paper leaves the first convolution and
/// the fully connected layers at one thread and reports the speedup of the
/// layers that run under NB-SMT.
fn tuning_profiles(bench: &AccuracyBench, base: &ThreadAssignment) -> Vec<TuningProfile> {
    let (_, engine) = bench.nbsmt_accuracy(s_a_reorder(base.clone()));
    let dims = bench.test_images.shape().dims();
    let macs = bench
        .trained
        .model
        .compute_layer_macs(dims[1], dims[2], dims[3])
        .expect("the test images fit the model");
    macs.iter()
        .enumerate()
        .map(|(i, &mac_ops)| TuningProfile {
            index: i,
            mac_ops: if base.threads_for(i) == 1 { 0 } else { mac_ops },
            mse: engine.layer_mse(i),
        })
        .collect()
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
    [0.0, 0.2, 0.4, 0.6]
        .into_iter()
        .flat_map(|level| fig10_level(bench, level, scale))
        .collect()
}

/// One pruning level of Fig. 10. The pruned model is recalibrated on the
/// bench's calibration batch and evaluated on its test split, so the 0%
/// level is Table V's model.
fn fig10_level(bench: &AccuracyBench, level: f64, scale: Scale) -> Vec<Fig10Point> {
    let model = prune_and_retrain(&bench.trained, level, scale);
    let pruned_bench = AccuracyBench {
        quantized: QuantizedModel::calibrate(&model, std::slice::from_ref(&bench.calib_images))
            .expect("calibration succeeds"),
        trained: TrainedSynthNet {
            model,
            ..bench.trained.clone()
        },
        calib_images: bench.calib_images.clone(),
        test_images: bench.test_images.clone(),
        test_labels: bench.test_labels.clone(),
        exec: bench.exec.clone(),
    };
    let base = paper_assignment(&pruned_bench.trained.model, ThreadCount::Four);
    let profiles = tuning_profiles(&pruned_bench, &base);
    tuning_sweep(&profiles, &base, ThreadCount::Two, 2)
        .into_iter()
        .map(|point| Fig10Point {
            pruned: level,
            layers_at_2t: point.slowed_layers,
            accuracy: pruned_bench.nbsmt_accuracy(s_a_reorder(point.assignment)).0,
            speedup: point.speedup,
        })
        .collect()
}

/// Prunes `fraction` of every compute layer's weights by magnitude and
/// retrains a copy of the model briefly, re-applying each layer's
/// [`PruneMask`] after every SGD step so pruned weights stay at zero. A zero
/// `fraction` returns the trained model unchanged.
fn prune_and_retrain(trained: &TrainedSynthNet, fraction: f64, scale: Scale) -> Model {
    let mut model = trained.model.clone();
    if fraction == 0.0 {
        return model;
    }
    let masks: Vec<PruneMask> = model
        .layers_mut()
        .iter_mut()
        .filter_map(compute_weights)
        .map(|weights| prune_to_sparsity(weights, fraction))
        .collect();
    let config = SgdConfig {
        learning_rate: 0.03,
        batch_size: 16,
        epochs: scale.epochs() / 2,
    };
    train(&mut model, &trained.train, &config, |m| {
        let layers = m.layers_mut().iter_mut().filter_map(compute_weights);
        for (weights, mask) in layers.zip(&masks) {
            mask.apply(weights);
        }
    })
    .expect("retraining the pruned SynthNet succeeds");
    model
}

/// The weights of a compute (conv or linear) layer.
fn compute_weights(layer: &mut Layer) -> Option<&mut [f32]> {
    match layer {
        Layer::Conv2d(conv) => Some(conv.weight.as_mut_slice()),
        Layer::Linear(lin) => Some(lin.weight.as_mut_slice()),
        _ => None,
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
    let schedule: Vec<LayerSchedule> = model
        .layers
        .iter()
        .enumerate()
        .map(|(i, layer)| LayerSchedule {
            mac_ops: layer.mac_ops(),
            threads: if i == 0
                || layer.kind == LayerKind::Depthwise
                || layer.kind == LayerKind::FullyConnected
            {
                1
            } else {
                2
            },
        })
        .collect();
    let total: u64 = schedule.iter().map(|l| l.mac_ops).sum();
    let at_2t: u64 = schedule
        .iter()
        .filter(|l| l.threads == 2)
        .map(|l| l.mac_ops)
        .sum();
    MlperfRow {
        model: model.name,
        speedup: model_speedup(&schedule),
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
        // Speedup falls strictly with each slowed layer: only layers that run
        // under NB-SMT are slowed, and each of them counts in the speedup.
        assert!(rows[1].speedup < rows[0].speedup);
        assert!(rows[2].speedup < rows[1].speedup);
        // Accuracy does not collapse when layers are slowed down.
        assert!(rows[2].accuracy + 0.2 >= rows[0].accuracy);
    }

    #[test]
    fn fig10_unpruned_level_is_table5() {
        let bench = quick_bench();
        let table5 = table5_slowdown(bench);
        let fig10 = fig10_level(bench, 0.0, Scale::Quick);
        assert_eq!(fig10.len(), table5.len());
        for (point, row) in fig10.iter().zip(&table5) {
            assert_eq!(point.pruned, 0.0);
            assert_eq!(
                (point.layers_at_2t, point.accuracy, point.speedup),
                (row.layers_at_2t, row.accuracy, row.speedup)
            );
        }
    }

    #[test]
    fn fig10_retraining_keeps_pruned_weights_at_zero() {
        let bench = quick_bench();
        let mut pruned = bench.trained.model.clone();
        for weights in pruned.layers_mut().iter_mut().filter_map(compute_weights) {
            prune_to_sparsity(weights, 0.4);
        }
        let mut retrained = prune_and_retrain(&bench.trained, 0.4, Scale::Quick);
        assert_ne!(retrained, pruned, "retraining moves the surviving weights");
        let layers = retrained
            .layers_mut()
            .iter_mut()
            .filter_map(compute_weights);
        let pruned_layers = pruned.layers_mut().iter_mut().filter_map(compute_weights);
        let mut checked = 0;
        for (weights, pruned_weights) in layers.zip(pruned_layers) {
            let zeros = weights.iter().filter(|&&w| w == 0.0).count();
            let target = (0.4 * weights.len() as f64).round() as usize;
            assert!(zeros >= target, "{zeros} zeros, expected at least {target}");
            for (w, p) in weights.iter().zip(pruned_weights.iter()) {
                assert!(*p != 0.0 || *w == 0.0, "a pruned weight came back");
            }
            checked += 1;
        }
        assert_eq!(checked, bench.trained.model.compute_layer_count());
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
