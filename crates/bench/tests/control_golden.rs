//! Golden-file test for the committed `BENCH_control.json`: the pool
//! controller sweep's schema, grid coverage, acceptance property, and
//! merge-on-rewrite semantics.
//!
//! The committed file is regenerated by `repro -- control` (or `--spec
//! examples/specs/control_small.json` for the CI smoke cell); this test
//! keeps it honest: every record parses as a `ControlRecord`,
//! the full arrival × controller × replicas × offered-load grid is present,
//! the paper-style headline holds on the committed curves —
//! predictive+autoscale beats plain reactive on at least one axis per
//! traffic model at 1.5× offered load, judged by the same
//! `ControlRecord::dominates_on_one_axis` rule as the sweep's unit test —
//! and re-running at a different scale *merges by record name* instead of
//! clobbering the committed curves. One slice of the grid, the MMPP cells
//! at 8 replicas, is regenerated and must render byte for byte as
//! committed, so a drifted controller constant fails here.

use nbsmt_bench::experiments::control_exp::control_sweep_with;
use nbsmt_bench::{ControlRecord, Record, Scale, Summary};

fn committed() -> Summary<ControlRecord> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_control.json");
    let text = std::fs::read_to_string(&path).expect("BENCH_control.json is committed");
    Summary::parse(&text).expect("BENCH_control.json parses as ControlRecords")
}

#[test]
fn committed_control_summary_has_the_required_schema() {
    let summary = committed();
    assert!(
        summary.records.len() >= 32,
        "expected the full 32-cell grid, found {}",
        summary.records.len()
    );
    for run in &summary.records {
        assert!(
            run.name.starts_with("control_synthnet_"),
            "{}: control record naming",
            run.name
        );
        assert!(
            matches!(
                run.controller.as_str(),
                "reactive" | "predictive" | "predictive-autoscale" | "predictive-steal"
            ),
            "{}: unknown controller variant {}",
            run.name,
            run.controller
        );
        assert!(
            matches!(run.arrival.as_str(), "mmpp" | "diurnal"),
            "{}: the control sweep runs bursty arrivals only, got {}",
            run.name,
            run.arrival
        );
        assert!(run.offered > 0.0, "{}: offered load", run.name);
        assert!(run.requests > 0, "{}: requests", run.name);
        assert_eq!(
            run.completed + run.rejected,
            run.requests,
            "{}: every request completes or is shed",
            run.name
        );
        assert!(
            run.replicas >= 8,
            "{}: the sweep starts at 8 replicas",
            run.name
        );
        assert!(run.throughput_rps > 0.0, "{}: throughput", run.name);
        assert!(
            run.p50_ms <= run.p95_ms && run.p95_ms <= run.p99_ms,
            "{}: quantiles must be ordered",
            run.name
        );
        assert!(run.replica_seconds > 0.0, "{}: replica-seconds", run.name);
        // Controller interventions only exist under the controller that
        // owns them.
        if run.controller == "reactive" {
            assert_eq!(
                run.predictive_shifts, 0,
                "{}: reactive never shifts",
                run.name
            );
            assert_eq!(
                run.scale_ups + run.scale_downs,
                0,
                "{}: reactive never scales",
                run.name
            );
            assert_eq!(
                run.stolen_requests, 0,
                "{}: reactive never steals",
                run.name
            );
        }
        if run.controller != "predictive-autoscale" {
            assert_eq!(
                run.scale_ups + run.scale_downs,
                0,
                "{}: only the autoscale variant scales",
                run.name
            );
        }
        if run.controller != "predictive-steal" {
            assert_eq!(
                run.steals + run.stolen_requests,
                0,
                "{}: only the steal variant steals",
                run.name
            );
        }
    }
}

#[test]
fn committed_grid_covers_every_cell() {
    let summary = committed();
    let names: std::collections::HashSet<&str> =
        summary.records.iter().map(|r| r.name.as_str()).collect();
    // The default sweep: 2 arrivals × 4 controllers × {8, 64} replicas ×
    // {1.0, 1.5}× offered load at 20k requests/cell.
    for arrival in ["mmpp", "diurnal"] {
        for controller in [
            "reactive",
            "predictive",
            "predictive-autoscale",
            "predictive-steal",
        ] {
            for replicas in [8u64, 64] {
                for offered in ["1.0", "1.5"] {
                    let name = format!(
                        "control_synthnet_{arrival}_{controller}_r{replicas}_x{offered}_n20000"
                    );
                    assert!(names.contains(name.as_str()), "missing grid cell {name}");
                }
            }
        }
    }
}

#[test]
fn predictive_autoscale_dominates_reactive_at_overload_in_the_committed_curves() {
    let summary = committed();
    for arrival in ["mmpp", "diurnal"] {
        for replicas in [8u64, 64] {
            let cell = |controller: &str| {
                let name =
                    format!("control_synthnet_{arrival}_{controller}_r{replicas}_x1.5_n20000");
                summary
                    .records
                    .iter()
                    .find(|r| r.name == name)
                    .unwrap_or_else(|| panic!("missing {name}"))
            };
            let reactive = cell("reactive");
            let auto = cell("predictive-autoscale");
            // The headline acceptance property: at 1.5× offered load the
            // predictive autoscaler beats plain reactive on at least one of
            // shed rate, p99 latency, or replica-seconds — per traffic
            // model, at every committed pool size.
            assert!(
                auto.dominates_on_one_axis(reactive),
                "{arrival}/r{replicas}: predictive-autoscale dominates reactive on no axis \
                 (auto: shed {:.4} p99 {:.3} rs {:.3}; reactive: shed {:.4} p99 {:.3} rs {:.3})",
                auto.shed_rate(),
                auto.p99_ms,
                auto.replica_seconds,
                reactive.shed_rate(),
                reactive.p99_ms,
                reactive.replica_seconds,
            );
            // And it intervened: the win comes from actual control actions,
            // not noise.
            assert!(
                auto.scale_ups + auto.scale_downs > 0,
                "{arrival}/r{replicas}: the autoscaler never acted"
            );
            assert!(
                auto.replica_seconds <= reactive.replica_seconds * 1.001,
                "{arrival}/r{replicas}: autoscaling must not cost replica-seconds"
            );
        }
    }
}

#[test]
fn regenerated_mmpp_cells_match_the_committed_records() {
    // `repro control` at its defaults (Quick, seed 2024, 20k requests per
    // cell), restricted to the MMPP traffic model and 8 replicas.
    let rows = control_sweep_with(Scale::Quick, 20_000, &[8], 2024, "mmpp");
    assert_eq!(rows.len(), 8, "2 loads × 4 variants");
    let summary = committed();
    for row in &rows {
        let record = summary
            .records
            .iter()
            .find(|r| r.name == row.name)
            .unwrap_or_else(|| panic!("{} is committed", row.name));
        assert_eq!(
            row.to_json().render(),
            record.to_json().render(),
            "{} drifted from BENCH_control.json",
            row.name
        );
    }
}

#[test]
fn rewriting_at_a_different_scale_merges_by_name() {
    let committed = committed();
    let dir = std::env::temp_dir().join(format!("nbsmt-control-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("BENCH_control.json");

    // First run: the committed curves.
    committed.write(&path).expect("first write");

    // Re-run at a different per-cell scale: new record names (the request
    // count is part of the name) plus one regenerated existing cell.
    let regenerated = committed.records[0].clone();
    let rerun = Summary {
        records: vec![
            ControlRecord {
                name: "control_synthnet_mmpp_reactive_r8_x1.0_n500".into(),
                requests: 500,
                completed: 500,
                rejected: 0,
                ..regenerated.clone()
            },
            regenerated.clone(),
        ],
    };
    rerun.write(&path).expect("merging write");

    let merged =
        Summary::<ControlRecord>::parse(&std::fs::read_to_string(&path).expect("read back"))
            .expect("parses");
    assert_eq!(
        merged.records.len(),
        committed.records.len() + 1,
        "old records stay, the new scale's record appends"
    );
    for old in &committed.records {
        assert!(
            merged.records.iter().any(|r| r.name == old.name),
            "record {} lost in the merge",
            old.name
        );
    }
    // The overlapping record was replaced in place, not duplicated.
    assert_eq!(
        merged
            .records
            .iter()
            .filter(|r| r.name == regenerated.name)
            .count(),
        1
    );
    assert!(merged
        .records
        .iter()
        .any(|r| r.name == "control_synthnet_mmpp_reactive_r8_x1.0_n500"));

    std::fs::remove_dir_all(&dir).ok();
}
