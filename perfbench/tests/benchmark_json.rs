//! `BENCHMARK.json` at the repository root names exactly the workloads
//! it gates and the metrics the benchmark prints, with the same units.

use cmt_obs::json::{self, Value};
use perfbench::{BENCHMARK_WORKLOADS, END_TO_END, PER_LAYER, WORKLOADS};

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(v: &Value, key: &str, field: &str) -> Vec<String> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} missing"))
        .iter()
        .map(|e| {
            e.get(field)
                .and_then(Value::as_str)
                .expect("string field")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_binary() {
    let v = spec();
    assert_eq!(names(&v, "workloads", "name"), BENCHMARK_WORKLOADS);
    assert!(BENCHMARK_WORKLOADS.iter().all(|w| WORKLOADS.contains(w)));
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names(&v, "end_to_end", "name"), e2e);
    let units: Vec<String> = END_TO_END.iter().map(|(_, u)| u.to_string()).collect();
    assert_eq!(names(&v, "end_to_end", "unit"), units);
    let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names(&v, "per_layer", "name"), layer);
    let units: Vec<String> = PER_LAYER.iter().map(|(_, u)| u.to_string()).collect();
    assert_eq!(names(&v, "per_layer", "unit"), units);
}
