//! Property tests for `bench::json` and the summary writers built on it.
//!
//! Two invariants the tracked `BENCH_*.json` files depend on:
//!
//! * **Round trip**: `parse(render(v)) == v` for arbitrary Json values —
//!   escapes, control characters, unicode, deep nesting, negative/fractional
//!   /huge numbers. (Non-finite numbers are excluded: JSON cannot represent
//!   them and the writer renders them as `null` by design.)
//! * **Merge idempotence**: writing the same summary into a file twice
//!   leaves exactly the state of writing it once — merge-by-name replaces,
//!   never duplicates — and writing back what was parsed from the file
//!   leaves its bytes unchanged, whatever precision the records had.

use proptest::prelude::*;

use nbsmt_bench::json::Json;
use nbsmt_bench::{Record, ServeRecord, Summary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministically grows an arbitrary Json value from a seed, biased
/// toward the nasty cases: escape-heavy strings, numbers at formatting
/// boundaries, nested containers.
fn gen_json(rng: &mut StdRng, depth: usize) -> Json {
    let variant = if depth == 0 {
        rng.gen_range(0..4) // scalars only at the leaves
    } else {
        rng.gen_range(0..6)
    };
    match variant {
        0 => Json::Null,
        1 => Json::Bool(rng.gen::<u64>() & 1 == 1),
        2 => Json::Num(gen_number(rng)),
        3 => Json::Str(gen_string(rng)),
        4 => {
            let n = rng.gen_range(0..4usize);
            Json::Arr((0..n).map(|_| gen_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0..4usize);
            Json::Obj(
                (0..n)
                    .map(|_| (gen_string(rng), gen_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

fn gen_number(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..6) {
        0 => 0.0,
        1 => rng.gen_range(-1000i64..1000) as f64,
        // The integral-rendering boundary (~9e15) from both sides.
        2 => 9.0e15 + rng.gen_range(-2.0..2.0) * 1.0e15,
        3 => rng.gen_range(-1.0..1.0),
        4 => rng.gen_range(-1.0e-300..1.0e-300), // near-subnormal
        _ => loop {
            // Arbitrary bit patterns, re-rolled until finite (JSON has no
            // NaN/Inf representation; the writer maps them to null).
            let v = f64::from_bits(rng.gen::<u64>());
            if v.is_finite() {
                break v;
            }
        },
    }
}

fn gen_string(rng: &mut StdRng) -> String {
    let n = rng.gen_range(0..12usize);
    (0..n)
        .map(|_| match rng.gen_range(0..6) {
            0 => '"',
            1 => '\\',
            2 => ['\n', '\r', '\t', '\u{1}', '\u{1f}'][rng.gen_range(0..5usize)],
            3 => ['é', '✓', 'λ', '中', '𝄞'][rng.gen_range(0..5usize)],
            _ => rng.gen_range(b' '..b'~') as char,
        })
        .collect()
}

proptest! {
    #[test]
    fn render_parse_round_trips_arbitrary_values(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let value = gen_json(&mut rng, 3);
        let text = value.render();
        let back = Json::parse(&text);
        prop_assert!(back.is_ok(), "rendered text failed to parse: {:?}\n{}", back, text);
        prop_assert_eq!(back.unwrap(), value, "round trip changed the value\n{}", text);
    }

    #[test]
    fn rendering_is_stable_under_reparse(seed in any::<u64>()) {
        // render(parse(render(v))) == render(v): the canonical form is a
        // fixed point, so rewriting a tracked summary never churns the diff.
        let mut rng = StdRng::seed_from_u64(seed);
        let value = gen_json(&mut rng, 3);
        let once = value.render();
        let twice = Json::parse(&once).expect("canonical form parses").render();
        prop_assert_eq!(&twice, &once);
    }
}

fn record(name: &str, rng: &mut StdRng) -> ServeRecord {
    // Full precision, finer than the file keeps, with small values (where
    // rounding to three decimals moves them the most) as likely as large
    // ones.
    let mut value = || {
        if rng.gen::<bool>() {
            rng.gen_range(0.0..10.0f64)
        } else {
            rng.gen_range(0.0..1.0e6f64)
        }
    };
    let (offered, throughput_rps, p50_ms) = (value(), value(), value());
    let (p95_ms, p99_ms, mean_batch) = (value(), value(), value());
    ServeRecord {
        name: name.to_string(),
        smt: ["dense", "2t", "4t"][rng.gen_range(0..3usize)].to_string(),
        arrival: ["open_poisson", "closed_loop", "mmpp"][rng.gen_range(0..3usize)].to_string(),
        offered,
        requests: rng.gen_range(0..1u64 << 40),
        completed: rng.gen_range(0..1u64 << 40),
        rejected: rng.gen_range(0..1u64 << 40),
        throughput_rps,
        p50_ms,
        p95_ms,
        p99_ms,
        mean_batch,
        max_queue_depth: rng.gen_range(0..100u64),
        replicas: rng.gen_range(1..64u64),
        route: ["-", "rr", "lo", "hash"][rng.gen_range(0..4usize)].to_string(),
        mode_transitions: rng.gen_range(0..100u64),
    }
}

proptest! {
    #[test]
    fn summary_merge_by_name_is_idempotent(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Draw names from a small pool so same-name replacement is
        // exercised, not just appends.
        let names = ["alpha", "beta", "gamma", "delta"];
        let records = (0..rng.gen_range(1..8usize))
            .map(|_| record(names[rng.gen_range(0..names.len())], &mut rng))
            .collect();
        let summary = Summary { records };

        let path = std::env::temp_dir().join(format!(
            "nbsmt_json_props_{}_{seed:x}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        summary.write(&path).expect("first write succeeds");
        let once = std::fs::read_to_string(&path).expect("file exists");
        summary.write(&path).expect("second write succeeds");
        let twice = std::fs::read_to_string(&path).expect("file exists");
        prop_assert_eq!(&twice, &once, "re-writing the same summary must be a no-op");

        // Write → parse → write is a fixed point: a merging write of the
        // records as the file keeps them changes no byte.
        let merged = Summary::<ServeRecord>::parse(&once).expect("written file parses");
        merged.write(&path).expect("third write succeeds");
        let thrice = std::fs::read_to_string(&path).expect("file exists");
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(&thrice, &once, "writing back the parsed file must be a no-op");

        // And the merged state is last-writer-wins per name, order-stable:
        // one record per distinct name, in first-appearance order.
        let mut expected_names: Vec<&str> = Vec::new();
        for r in &summary.records {
            if !expected_names.contains(&r.name.as_str()) {
                expected_names.push(r.name.as_str());
            }
        }
        let got_names: Vec<&str> = merged.records.iter().map(|r| r.name.as_str()).collect();
        prop_assert_eq!(got_names, expected_names);
        for want in expected_names {
            let last = summary
                .records
                .iter()
                .rev()
                .find(|r| r.name == want)
                .expect("name came from the summary");
            let got = merged
                .records
                .iter()
                .find(|r| r.name == want)
                .expect("merged file keeps every name");
            prop_assert_eq!(
                got.to_json(),
                last.to_json(),
                "merge must keep the last record per name"
            );
        }
    }
}
