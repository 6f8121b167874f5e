//! Format pin for the four `BENCH_*.json` record files at the repo root.
//!
//! Each file is read at run time, parsed under its record type, and
//! re-rendered: the bytes must come back identical. This pins the format of
//! every committed file, including the rows no run regenerates
//! byte-identically (the wall-clock `live` rows of `BENCH_faults.json`).
//! Run right after `repro` has rewritten the files, it also checks that
//! every writer emits canonical bytes, so a later merging write of an
//! untouched record never churns the diff.

use nbsmt_bench::{ControlRecord, FaultRecord, Record, ServeRecord, Summary};

fn assert_canonical<R: Record>(file: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    let summary = Summary::<R>::parse(&text)
        .unwrap_or_else(|| panic!("{file} does not parse as `{}` records", R::KEY));
    assert!(!summary.records.is_empty(), "{file} holds no records");
    assert_eq!(
        summary.to_json(),
        text,
        "{file}: re-rendering the parsed records must give the same bytes"
    );
}

#[test]
fn committed_record_files_re_render_byte_identically() {
    assert_canonical::<ServeRecord>("BENCH_serve.json");
    assert_canonical::<ServeRecord>("BENCH_scale.json");
    assert_canonical::<FaultRecord>("BENCH_faults.json");
    assert_canonical::<ControlRecord>("BENCH_control.json");
}
