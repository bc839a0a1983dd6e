//! The paper's evaluation, pinned byte for byte.
//!
//! `BENCH_paper.json` beside this file is the document
//! [`wavepim_bench::paper::paper`] rendered on the commit whose twelve
//! per-table binaries it replaced (`98c0770`): every Table 1–6 value,
//! the §3.1 speedups, the Fig. 11/12 matrices, the analytic and observed
//! Fig. 13 timelines, the Fig. 14 intra/inter times and the §8 summary
//! with the measured DMA ∩ Volume overlap. A change to any model's
//! pricing must show up as a reviewed diff of that file: re-record it by
//! running `cargo run -p wavepim-bench --release --bin paper` and copying
//! `target/artifacts/BENCH_paper.json` over it.
//!
//! One test only: the observed Fig. 13 run and the overlap probe both
//! record on the process-global trace rings.

use std::collections::{BTreeMap, BTreeSet};

use pim_trace::json::{parse, Value};
use wavepim_bench::paper::paper;

const GOLDEN: &str = include_str!("BENCH_paper.json");

/// Every leaf of `v` under its dotted key path, rendered for display.
fn leaves(v: &Value, path: String, out: &mut BTreeMap<String, String>) {
    match v {
        Value::Object(map) => {
            for (k, child) in map {
                leaves(child, format!("{path}.{k}"), out);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                leaves(child, format!("{path}[{i}]"), out);
            }
        }
        leaf => {
            out.insert(path, format!("{leaf:?}"));
        }
    }
}

fn flatten(doc: &str, name: &str) -> BTreeMap<String, String> {
    let value = parse(doc).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e}"));
    let mut out = BTreeMap::new();
    leaves(&value, String::new(), &mut out);
    out
}

#[test]
fn the_paper_document_matches_its_golden() {
    let observed = paper().render();
    let (want, got) = (flatten(GOLDEN, "the golden"), flatten(&observed, "the document"));
    let keys: BTreeSet<&String> = want.keys().chain(got.keys()).collect();
    if let Some(key) = keys.into_iter().find(|k| want.get(*k) != got.get(*k)) {
        panic!(
            "paper document differs from BENCH_paper.json first at `{key}`:\n  golden:   {}\n  observed: {}",
            want.get(key).map_or("<absent>", String::as_str),
            got.get(key).map_or("<absent>", String::as_str),
        );
    }
    assert!(observed == GOLDEN, "same values, but the rendering of BENCH_paper.json changed");
}
