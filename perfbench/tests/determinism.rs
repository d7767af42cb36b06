//! Count metrics of a traced run must repeat exactly: across two runs of
//! the same seed, and across `CMT_JOBS=1` and `CMT_JOBS=2`. Runs at
//! `Scale::small`; `cargo test --release` keeps it to seconds.

use perfbench::{run_traced, Opts, Scale, WORKLOADS};
use std::path::PathBuf;

/// Per-layer metrics that are counts of work, not times.
const COUNTS: [&str; 10] = [
    "interp.accesses",
    "cache.misses_rs6000",
    "cache.misses_i860",
    "core.permuted",
    "core.fused",
    "core.distributed",
    "serve.memo_hits",
    "serve.memo_misses",
    "serve.memo_inserted",
    "serve.memo_evictions",
];

fn counts(workload: &str, jobs: &str) -> Vec<(String, f64)> {
    std::env::set_var("CMT_JOBS", jobs);
    let obs_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-determinism");
    let opts = Opts {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        scale: Scale::small(),
        obs_dir,
    };
    let report = run_traced(&opts).expect("traced run");
    assert!(
        report.check.correct(),
        "{workload}: {:?}",
        report.check.notes
    );
    let mut out: Vec<(String, f64)> = COUNTS
        .iter()
        .map(|&name| {
            let v = report
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            (name.to_string(), v)
        })
        .collect();
    out.push(("check.attempted".to_string(), report.check.attempted as f64));
    out.push(("check.failed".to_string(), report.check.failed as f64));
    out
}

// One test, so no other test thread sees `CMT_JOBS` change.
#[test]
fn count_metrics_repeat_across_runs_and_job_counts() {
    for workload in WORKLOADS {
        let first = counts(workload, "2");
        assert_eq!(first, counts(workload, "2"), "{workload}: rerun differs");
        assert_eq!(
            first,
            counts(workload, "1"),
            "{workload}: CMT_JOBS=1 differs"
        );
    }
    std::env::remove_var("CMT_JOBS");
}
