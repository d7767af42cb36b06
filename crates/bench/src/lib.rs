//! Regeneration harness for every table and figure of the paper's
//! evaluation (§5), plus ablation studies.
//!
//! Each `table*`/`fig*` binary in `src/bin` prints one artifact; the
//! heavy lifting lives here so integration tests can assert on the
//! structured results. See EXPERIMENTS.md for the paper-vs-measured
//! record.
//!
//! Run (release strongly recommended — the cache simulations stream
//! hundreds of millions of accesses):
//!
//! ```text
//! cargo run --release -p cmt-bench --bin table4_hit_rates
//! ```

pub mod analytic;
pub mod artifact;
pub mod explain;
pub mod fmt;
pub mod profiling;
pub mod report;
pub mod runner;
pub mod serving;
pub mod tables;
pub mod timing;

pub use analytic::{
    analytic_geometries, analytic_sweep, rank_predictions, top_k_agreement_tied, AnalyticReport,
    AnalyticSweepConfig, GeometryAgreement, TIE_TOLERANCE,
};
pub use artifact::{
    artifact_dir, emit, trace_enabled, write_analytic_json, write_explain_json, write_metrics_json,
    write_profile_json, write_remarks_jsonl, write_report_md, write_server_json, write_trace_json,
    ArtifactError,
};
pub use explain::{
    diff_explain, explain_sweep, render_decision_tree, DecisionJoin, ExplainDocument,
    ExplainReport, ExplainSweepConfig, GeometryAttribution, NestDivergence,
};
pub use profiling::{profile_sweep, AgreementReport, SweepConfig, SweepResult};
pub use report::render_report;
pub use runner::{
    cmt_jobs, emit_observed_compound, emit_traced, observe_figure, par_map, par_map_traced,
    replay_shard_log, simulate_program, simulate_program_observed, simulate_versions, try_par_map,
    try_par_map_traced, ObservedSim, ProgramSim, VersionPair, WorkerPanic,
};
pub use serving::{
    diff_server, run_serve_bench, ServeBenchConfig, ServeTransport, ServerBenchReport,
};

/// The corpus every sweep harness (profiling, analytic, explain, serve)
/// runs over: the first `seeds` committed verify-corpus programs, then
/// the paper kernels when `kernels` is set.
pub fn corpus(seeds: usize, kernels: bool) -> Vec<cmt_ir::program::Program> {
    let mut programs: Vec<_> = cmt_verify::corpus_seeds()
        .into_iter()
        .take(seeds)
        .map(cmt_verify::generate)
        .collect();
    if kernels {
        programs.extend(cmt_suite::kernels::paper_kernels());
    }
    programs
}
