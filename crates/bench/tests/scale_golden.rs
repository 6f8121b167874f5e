//! Golden-file test for the committed `BENCH_scale.json`: the scale-regime
//! sweep's schema, grid coverage, and merge-on-rewrite semantics.
//!
//! The committed file is regenerated by `repro -- scale` (or `--spec
//! examples/specs/scale_small.json` for the CI smoke cell); this test keeps
//! it honest: every record parses as a `ServeRecord` with the
//! fields the scale curves need, the full arrival × policy × replicas ×
//! offered-load grid is present, the 10^6-request anchor cell exists, and
//! re-running at a different scale *merges by record name* instead of
//! clobbering the committed curves.

use nbsmt_bench::{ServeRecord, Summary};

fn committed() -> Summary<ServeRecord> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scale.json");
    let text = std::fs::read_to_string(&path).expect("BENCH_scale.json is committed");
    Summary::parse(&text).expect("BENCH_scale.json parses as ServeRecords")
}

#[test]
fn committed_scale_summary_has_the_required_schema() {
    let summary = committed();
    assert!(
        summary.records.len() >= 36,
        "expected the full 36-cell grid plus the anchor, found {}",
        summary.records.len()
    );
    for run in &summary.records {
        assert!(
            run.name.starts_with("scale_synthnet_"),
            "{}: scale record naming",
            run.name
        );
        assert!(
            matches!(run.smt.as_str(), "dense" | "adaptive"),
            "{}: policy must be dense or adaptive, got {}",
            run.name,
            run.smt
        );
        assert!(
            matches!(run.arrival.as_str(), "poisson" | "mmpp" | "diurnal"),
            "{}: arrival must name a traffic model, got {}",
            run.name,
            run.arrival
        );
        assert_eq!(
            run.route, "hash",
            "{}: the sweep routes by key hash",
            run.name
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
        assert!(
            run.mean_batch >= 1.0,
            "{}: launched batches are non-empty",
            run.name
        );
    }
}

#[test]
fn committed_grid_covers_every_cell_and_the_million_request_anchor() {
    let summary = committed();
    let names: std::collections::HashSet<&str> =
        summary.records.iter().map(|r| r.name.as_str()).collect();
    // The default sweep: 3 arrivals × 2 policies × {8, 64} replicas ×
    // {0.6, 1.0, 1.5}× offered load at 20k requests/cell.
    for arrival in ["poisson", "mmpp", "diurnal"] {
        for policy in ["dense", "adaptive"] {
            for replicas in [8u64, 64] {
                for offered in ["0.6", "1.0", "1.5"] {
                    let name =
                        format!("scale_synthnet_{arrival}_{policy}_r{replicas}_x{offered}_n20000");
                    assert!(names.contains(name.as_str()), "missing grid cell {name}");
                }
            }
        }
    }
    // The anchor: >= 10^6 simulated requests on >= 8 replicas, and the
    // scale regime actually sheds accuracy (adaptive transitions), not
    // requests wholesale.
    let anchor = summary
        .records
        .iter()
        .find(|r| r.requests >= 1_000_000 && r.replicas >= 8)
        .expect("a committed >= 10^6-request cell at >= 8 replicas");
    assert_eq!(anchor.smt, "adaptive");
    assert!(
        anchor.mode_transitions > 0,
        "the anchor must walk the ladder"
    );
    assert!(
        anchor.completed as f64 >= 0.9 * anchor.requests as f64,
        "the adaptive anchor serves the vast majority of the offered load"
    );
}

#[test]
fn rewriting_at_a_different_scale_merges_by_name() {
    let committed = committed();
    let dir = std::env::temp_dir().join(format!("nbsmt-scale-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("BENCH_scale.json");

    // First run: the committed curves.
    committed.write(&path).expect("first write");

    // Re-run at a different per-cell scale: new record names (the request
    // count is part of the name) plus one regenerated existing cell.
    let regenerated = committed.records[0].clone();
    let rerun = Summary {
        records: vec![
            ServeRecord {
                name: "scale_synthnet_mmpp_adaptive_r8_x1.0_n500".into(),
                requests: 500,
                completed: 500,
                rejected: 0,
                ..regenerated.clone()
            },
            regenerated.clone(),
        ],
    };
    rerun.write(&path).expect("merging write");

    let merged = Summary::<ServeRecord>::parse(&std::fs::read_to_string(&path).expect("read back"))
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
        .any(|r| r.name == "scale_synthnet_mmpp_adaptive_r8_x1.0_n500"));

    std::fs::remove_dir_all(&dir).ok();
}
