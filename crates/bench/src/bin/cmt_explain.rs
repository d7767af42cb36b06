//! `cmt-explain` — decision provenance and oracle-disagreement sweep.
//!
//! ```text
//! cmt-explain [--seeds N] [--no-kernels] [--n N] [--margin-tie X]
//!             [--max-disagreement X] [--max-regret F]
//!             [--name NAME] [--bench-json PATH] [--check PATH]
//! ```
//!
//! Runs the compound driver twice over the first `--seeds`
//! verify-corpus programs plus the paper kernels — once ranked by the
//! paper's `LoopCost`, once by the analytic engine — capturing every
//! permutation/fusion/distribution `DecisionRecord`, joining the two
//! provenance streams, and simulating both transformed corpora so each
//! oracle's regret is measured against the per-program best-of-both.
//! Every nest of the *original* corpus is additionally predicted with
//! per-correction attribution and simulated on all three geometries,
//! decomposing the analytic-vs-simulated error into named terms.
//!
//! Artifacts: the full joined record goes to `{name}.explain.json`
//! (plus the usual remarks/metrics, and a trace under `CMT_TRACE`);
//! the summary goes to `--bench-json` — the committed
//! `BENCH_explain.json`. Decision trees for the paper kernels print to
//! stdout.
//!
//! Gates (deterministic — never wall-clock):
//!
//! * oracle disagreement rate ≤ `--max-disagreement` (default 0.20);
//! * `LoopCost` regret vs best-of-both ≤ `--max-regret` (default 0.05).
//!
//! `--check PATH` skips the sweep and applies the gates to a
//! previously committed summary instead (the cheap CI gate on
//! `BENCH_explain.json`).
//!
//! Exit codes: `0` ok, `1` gate failure, `2` usage or artifact error.

use cmt_bench::ExplainSweepConfig;
use cmt_bench::{corpus, explain_sweep, render_decision_tree, ExplainReport};
use cmt_obs::{CollectSink, TraceSession};
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cmt-explain [--seeds N] [--no-kernels] [--n N] [--margin-tie X] \
         [--max-disagreement X] [--max-regret F] [--name NAME] [--bench-json PATH] \
         [--check PATH]"
    );
    ExitCode::from(2)
}

struct Args {
    cfg: ExplainSweepConfig,
    max_disagreement: f64,
    max_regret: f64,
    name: String,
    bench_json: Option<String>,
    check: Option<String>,
}

fn parse_args() -> Result<Args, ()> {
    let mut cfg = ExplainSweepConfig::default();
    let mut max_disagreement = 0.20f64;
    let mut max_regret = 0.05f64;
    let mut name = "explain_corpus".to_string();
    let mut bench_json = None;
    let mut check = None;
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>| args.next().ok_or(());
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => cfg.seeds = value(&mut args)?.parse().map_err(|_| ())?,
            "--no-kernels" => cfg.kernels = false,
            "--n" => cfg.n = value(&mut args)?.parse().map_err(|_| ())?,
            "--margin-tie" => cfg.margin_tie = value(&mut args)?.parse().map_err(|_| ())?,
            "--max-disagreement" => max_disagreement = value(&mut args)?.parse().map_err(|_| ())?,
            "--max-regret" => max_regret = value(&mut args)?.parse().map_err(|_| ())?,
            "--name" => name = value(&mut args)?,
            "--bench-json" => bench_json = Some(value(&mut args)?),
            "--check" => check = Some(value(&mut args)?),
            _ => return Err(()),
        }
    }
    Ok(Args {
        cfg,
        max_disagreement,
        max_regret,
        name,
        bench_json,
        check,
    })
}

/// Applies the deterministic gates to `report`; returns whether any
/// failed.
fn gate(report: &ExplainReport, max_disagreement: f64, max_regret: f64) -> bool {
    let mut failed = false;
    if report.disagreement_rate > max_disagreement {
        eprintln!(
            "cmt-explain: GATE: disagreement rate {:.3} exceeds --max-disagreement {}",
            report.disagreement_rate, max_disagreement
        );
        failed = true;
    }
    if report.loopcost_regret > max_regret {
        eprintln!(
            "cmt-explain: GATE: loopcost regret {:.4} exceeds --max-regret {}",
            report.loopcost_regret, max_regret
        );
        failed = true;
    }
    failed
}

fn print_summary(report: &ExplainReport) {
    println!(
        "decisions {}  joined {}  disagreements {} ({:.1}%)  near-ties {} ({:.1}%)",
        report.decisions,
        report.joined,
        report.disagreements,
        100.0 * report.disagreement_rate,
        report.near_ties,
        100.0 * report.near_tie_rate,
    );
    println!(
        "misses: loopcost {}  analytic {}  best {}  regret: loopcost {:.4}  analytic {:.4}",
        report.loopcost_misses,
        report.analytic_misses,
        report.best_misses,
        report.loopcost_regret,
        report.analytic_regret,
    );
    println!("geometry               nests  predicted   simulated  self-int  rescue  cross");
    for a in &report.attribution {
        println!(
            "{:<22} {:>5}  {:>9}  {:>10}  {:>8.0}  {:>6.0}  {:>5.0}",
            a.cache,
            a.nests,
            a.predicted,
            a.simulated,
            a.self_interference,
            a.cliff_rescue,
            a.cross
        );
    }
}

fn main() -> ExitCode {
    let Ok(args) = parse_args() else {
        return usage();
    };
    let cfg = args.cfg;

    // Check mode: gate a committed summary, no computation.
    if let Some(path) = &args.check {
        let doc = match std::fs::read_to_string(path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("cmt-explain: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let report = match ExplainReport::parse(&doc) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cmt-explain: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        println!(
            "cmt-explain: checking {path} ({} programs, {} decisions at n={})",
            report.programs, report.decisions, report.n
        );
        print_summary(&report);
        return if gate(&report, args.max_disagreement, args.max_regret) {
            ExitCode::FAILURE
        } else {
            println!("cmt-explain: committed report passes all gates");
            ExitCode::SUCCESS
        };
    }

    let programs = corpus(cfg.seeds, cfg.kernels);
    println!(
        "cmt-explain: {} programs ({} seeds{}) at n={}, 2 oracles, 3 geometries",
        programs.len(),
        cfg.seeds,
        if cfg.kernels { " + paper kernels" } else { "" },
        cfg.n,
    );

    let mut sink = CollectSink::new();
    let mut session = cmt_bench::trace_enabled().then(TraceSession::new);
    let t0 = Instant::now();
    let (doc, report) = match explain_sweep(&programs, &cfg, &mut sink, session.as_mut()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cmt-explain: {e}");
            return ExitCode::from(2);
        }
    };
    let secs = t0.elapsed().as_secs_f64();

    // Decision trees for the paper kernels (the human-readable view).
    for p in programs.iter().skip(cfg.seeds) {
        print!("{}", render_decision_tree(p.name(), &doc.decisions));
    }
    print_summary(&report);
    // Wall-clock is informational only — the documents and every gate
    // are deterministic.
    println!(
        "explained {} decisions across {} programs in {:.1}s",
        report.decisions,
        programs.len(),
        secs
    );

    let doc_json = doc.to_json();
    match cmt_bench::write_explain_json(&args.name, &doc_json) {
        Ok(p) => println!("[obs] explain:  {}", p.display()),
        Err(e) => {
            eprintln!("cmt-explain: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(session) = &session {
        if let Err(e) = session.validate() {
            eprintln!("cmt-explain: trace invariants: {e}");
            return ExitCode::from(2);
        }
        match cmt_bench::write_trace_json(&args.name, &session.to_chrome_json()) {
            Ok(p) => println!("[obs] trace:    {}", p.display()),
            Err(e) => {
                eprintln!("cmt-explain: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Err(e) = cmt_bench::emit(&args.name, &sink.remarks, &sink.metrics) {
        eprintln!("cmt-explain: {e}");
        return ExitCode::from(2);
    }
    let report_json = report.to_json();
    if let Some(path) = &args.bench_json {
        if let Err(e) = std::fs::write(path, &report_json) {
            eprintln!("cmt-explain: {path}: {e}");
            return ExitCode::from(2);
        }
        println!("[obs] bench:    {path}");
    }

    let failed = gate(&report, args.max_disagreement, args.max_regret);
    let _ = ExplainReport::parse(&report_json).expect("self-written report must parse");
    let _ = cmt_bench::ExplainDocument::parse(&doc_json).expect("self-written document must parse");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
