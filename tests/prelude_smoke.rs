//! Smoke test for the umbrella crate's `prelude`: every commonly used type
//! must resolve through `nbsmt_repro::prelude` and behave. This is the
//! canary for workspace-manifest regressions — if a crate is renamed, a
//! member drops out of the root `Cargo.toml`, or a re-export path breaks,
//! this file stops compiling before anything subtler fails.

use nbsmt_repro::prelude::*;

#[test]
fn prelude_types_construct_and_run_one_pe_cycle() {
    // Config types resolve and construct.
    let config = SySmtConfig {
        grid: SystolicConfig::new(16, 16),
        threads: ThreadCount::Two,
        policy: SharingPolicy::S_A,
        reorder: true,
    };
    assert_eq!(config.threads.count(), 2);

    // A 2-threaded PE executes one cycle through the prelude re-exports.
    // One thread is idle, so the other must run at full precision.
    let pe = SmtPe2::new(SharingPolicy::S_A);
    let result = pe.cycle([ThreadInput::new(0, 23), ThreadInput::new(178, -14)]);
    assert_eq!(result.total(), 178 * -14);

    // The array constructed from the config reports it back.
    let array = SySmtArray::new(config);
    assert_eq!(array.config().threads, ThreadCount::Two);
}

#[test]
fn prelude_covers_the_cross_crate_surface() {
    // One symbol per re-exported crate, exercised (not just named) so the
    // whole DAG is linked into this test binary.
    let t = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
    assert_eq!(t.numel(), 4);

    let scheme = QuantScheme::activation_a8();
    assert_eq!(scheme.bits.bits(), 8);

    let emu = NbSmtMatmul::new(NbSmtMatmulConfig::two_threads());
    assert_eq!(emu.config().threads, ThreadCount::Two);

    let breakdown = UtilizationBreakdown::default();
    assert_eq!(breakdown.total(), 0);

    // The execution layer resolves through the prelude and honours its
    // determinism contract on a tiny GEMM.
    let ctx = ExecContext::new(ExecConfig {
        threads: 2,
        backend: GemmBackendKind::Parallel,
        ..ExecConfig::default()
    });
    assert_eq!(ctx.threads(), 2);
    let results = ctx.map_tiles(5, |t| t + 1);
    assert_eq!(results, vec![1, 2, 3, 4, 5]);

    let pe4 = SmtPe4::new(SharingPolicy::S);
    let quad = pe4.cycle([
        ThreadInput::new(0, 0),
        ThreadInput::new(0, 0),
        ThreadInput::new(0, 0),
        ThreadInput::new(3, 2),
    ]);
    assert_eq!(quad.total(), 6);
}

#[test]
fn prelude_covers_the_serving_layer() {
    // Serving config types resolve through the prelude.
    assert_eq!(SmtConfig::sysmt_2t().label(), "2t");
    assert_eq!(SmtConfig::sysmt_4t().speedup(), 4);
    // Config validation resolves through the prelude: bad values are typed
    // errors, valid ones pass.
    let bad = SchedulerConfig {
        batch: BatchPolicy {
            max_batch: 0,
            max_wait_ns: 100,
        },
        queue_capacity: 0,
    };
    assert_eq!(bad.validate(), Err(ConfigError::ZeroBatch));
    let scheduler = SchedulerConfig::default();
    assert_eq!(scheduler.validate(), Ok(()));
    assert!(matches!(
        SubmitError::QueueFull { capacity: 4 },
        SubmitError::QueueFull { capacity: 4 }
    ));
    // The service model is pure integer arithmetic; the registry constructs
    // empty. (Session compilation is exercised by the serve crate's own
    // tests and the bench determinism suite — training a model here would
    // slow every smoke run.)
    let registry = ModelRegistry::new();
    assert!(registry.model_ids().is_empty());
    let model = ServiceModel {
        ns_per_mac_x1024: 1024,
        batch_overhead_ns: 5,
        size: SizeModel::Unit,
    };
    assert_eq!(model.batch_overhead_ns, 5);
    assert_eq!(SizeModel::Unit.size_x1024(7), 1024);
    let pareto = SizeModel::BoundedPareto {
        seed: 1,
        alpha_x1024: 1536,
        min_x1024: 1024,
        max_x1024: 8192,
    };
    assert!((1024..=8192).contains(&pareto.size_x1024(3)));
    let stream = TrafficModel::Poisson {
        rate_mrps: 1_000_000,
    }
    .generate(9, 4);
    assert_eq!(stream.count(), 4);
    assert!(matches!(
        ArrivalProcess::Open {
            arrivals_ns: vec![0, 1]
        },
        ArrivalProcess::Open { .. }
    ));

    // The sharded serving layer resolves through the prelude too: router
    // and adaptive policies are pure config/arithmetic, so they run here.
    assert_eq!(RoutePolicy::RoundRobin.label(), "rr");
    assert_eq!(RoutePolicy::Hashed.label(), "hash");
    let pool = PoolConfig {
        replicas: 0,
        route: RoutePolicy::LeastOutstanding,
        scheduler,
        adaptive: AdaptivePolicy::default(),
    };
    assert_eq!(pool.validate(), Err(ConfigError::ZeroReplicas));
    assert_eq!(PoolConfig::default().validate(), Ok(()));
    // The exec-layer config validates through the same trait.
    let exec = ExecConfig {
        tile_k: 0,
        ..ExecConfig::default()
    };
    assert_eq!(exec.validate(), Err(ExecConfigError::ZeroTileK));
    assert_eq!(AdaptivePolicy::pinned().decide(0, 3, usize::MAX - 1, 0), 0);
    assert_eq!(AdaptivePolicy::default().decide(0, 3, 64, 0), 1);
}
