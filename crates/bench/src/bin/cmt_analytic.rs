//! `cmt-analytic` — differential accuracy check of the analytical
//! locality engine against full cache simulation.
//!
//! ```text
//! cmt-analytic [--seeds N] [--no-kernels] [--n N] [--top K]
//!              [--min-agreement X] [--max-error F]
//!              [--name NAME] [--bench-json PATH] [--check PATH]
//! ```
//!
//! Predicts every nest of the first `--seeds` verify-corpus programs
//! plus the paper kernels with `cmt_analytic::MissModel`, simulates the
//! same corpus in full on every supported geometry (RS/6000, i860,
//! DECstation), and writes the per-geometry agreement report to
//! `{name}.analytic.json` (plus the usual remarks/metrics artifacts,
//! and a trace under `CMT_TRACE`).
//!
//! Gates (deterministic — never wall-clock):
//!
//! * top-`K` hotspot-ranking agreement ≥ `--min-agreement`
//!   (default 0.9) on **every** geometry;
//! * mean per-nest relative miss error ≤ `--max-error`
//!   (default 0.25) on every geometry.
//!
//! `--bench-json` writes the same deterministic report document to an
//! extra path — the committed `BENCH_analytic.json`. `--check PATH`
//! skips the sweep entirely and applies the gates to a previously
//! committed report instead (the cheap CI gate on `BENCH_analytic.json`).
//!
//! Exit codes: `0` ok, `1` gate failure, `2` usage or artifact error.

use cmt_bench::{analytic_sweep, corpus, AnalyticReport, AnalyticSweepConfig};
use cmt_obs::{CollectSink, TraceSession};
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cmt-analytic [--seeds N] [--no-kernels] [--n N] [--top K] \
         [--min-agreement X] [--max-error F] [--name NAME] [--bench-json PATH] \
         [--check PATH]"
    );
    ExitCode::from(2)
}

struct Args {
    cfg: AnalyticSweepConfig,
    min_agreement: f64,
    max_error: f64,
    name: String,
    bench_json: Option<String>,
    check: Option<String>,
}

fn parse_args() -> Result<Args, ()> {
    let mut cfg = AnalyticSweepConfig::default();
    let mut min_agreement = 0.9f64;
    let mut max_error = 0.25f64;
    let mut name = "analytic_corpus".to_string();
    let mut bench_json = None;
    let mut check = None;
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>| args.next().ok_or(());
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => cfg.seeds = value(&mut args)?.parse().map_err(|_| ())?,
            "--no-kernels" => cfg.kernels = false,
            "--n" => cfg.n = value(&mut args)?.parse().map_err(|_| ())?,
            "--top" => cfg.top_k = value(&mut args)?.parse().map_err(|_| ())?,
            "--min-agreement" => min_agreement = value(&mut args)?.parse().map_err(|_| ())?,
            "--max-error" => max_error = value(&mut args)?.parse().map_err(|_| ())?,
            "--name" => name = value(&mut args)?,
            "--bench-json" => bench_json = Some(value(&mut args)?),
            "--check" => check = Some(value(&mut args)?),
            _ => return Err(()),
        }
    }
    Ok(Args {
        cfg,
        min_agreement,
        max_error,
        name,
        bench_json,
        check,
    })
}

/// Applies the deterministic gates to `report`; returns whether any
/// geometry failed.
fn gate(report: &AnalyticReport, min_agreement: f64, max_error: f64) -> bool {
    let mut failed = false;
    for g in &report.geometries {
        if g.top_k_agreement < min_agreement {
            eprintln!(
                "cmt-analytic: GATE: {} top-{} agreement {:.3} below --min-agreement {}",
                g.cache, report.top_k, g.top_k_agreement, min_agreement
            );
            failed = true;
        }
        if g.mean_rel_error > max_error {
            eprintln!(
                "cmt-analytic: GATE: {} mean rel miss error {:.4} exceeds --max-error {}",
                g.cache, g.mean_rel_error, max_error
            );
            failed = true;
        }
    }
    failed
}

fn main() -> ExitCode {
    let Ok(args) = parse_args() else {
        return usage();
    };
    let cfg = args.cfg;

    // Check mode: gate a committed report, no computation.
    if let Some(path) = &args.check {
        let doc = match std::fs::read_to_string(path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("cmt-analytic: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let report = match AnalyticReport::parse(&doc) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cmt-analytic: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        println!(
            "cmt-analytic: checking {path} ({} programs, {} nests at n={})",
            report.programs, report.nests, report.n
        );
        for g in &report.geometries {
            println!(
                "{:<22} mean-err {:.4}  top-{} {:.3}  tau {:.3}",
                g.cache, g.mean_rel_error, report.top_k, g.top_k_agreement, g.kendall_tau
            );
        }
        return if gate(&report, args.min_agreement, args.max_error) {
            ExitCode::FAILURE
        } else {
            println!("cmt-analytic: committed report passes all gates");
            ExitCode::SUCCESS
        };
    }

    let programs = corpus(cfg.seeds, cfg.kernels);
    println!(
        "cmt-analytic: {} programs ({} seeds{}) at n={}, 3 geometries",
        programs.len(),
        cfg.seeds,
        if cfg.kernels { " + paper kernels" } else { "" },
        cfg.n,
    );

    let mut sink = CollectSink::new();
    let mut session = cmt_bench::trace_enabled().then(TraceSession::new);
    let t0 = Instant::now();
    let report = match analytic_sweep(&programs, &cfg, &mut sink, session.as_mut()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cmt-analytic: {e}");
            return ExitCode::from(2);
        }
    };
    let secs = t0.elapsed().as_secs_f64();

    println!(
        "geometry               nests  pred-misses   sim-misses  mean-err  top-{}  tau",
        cfg.top_k
    );
    for g in &report.geometries {
        println!(
            "{:<22} {:>5}  {:>11}  {:>11}  {:>8.4}  {:>5.3}  {:>6.3}",
            g.cache,
            g.nests,
            g.predicted_misses,
            g.simulated_misses,
            g.mean_rel_error,
            g.top_k_agreement,
            g.kendall_tau
        );
        println!(
            "  worst nest: {} (rel error {:.4})",
            g.worst_nest, g.worst_rel_error
        );
    }
    // Wall-clock is informational only — the report document and every
    // gate are deterministic.
    println!(
        "predicted + simulated {} nests x 3 geometries in {:.1}s",
        report.nests, secs
    );

    let doc = report.to_json();
    match cmt_bench::write_analytic_json(&args.name, &doc) {
        Ok(p) => println!("[obs] analytic: {}", p.display()),
        Err(e) => {
            eprintln!("cmt-analytic: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(session) = &session {
        if let Err(e) = session.validate() {
            eprintln!("cmt-analytic: trace invariants: {e}");
            return ExitCode::from(2);
        }
        match cmt_bench::write_trace_json(&args.name, &session.to_chrome_json()) {
            Ok(p) => println!("[obs] trace:    {}", p.display()),
            Err(e) => {
                eprintln!("cmt-analytic: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Err(e) = cmt_bench::emit(&args.name, &sink.remarks, &sink.metrics) {
        eprintln!("cmt-analytic: {e}");
        return ExitCode::from(2);
    }
    if let Some(path) = &args.bench_json {
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("cmt-analytic: {path}: {e}");
            return ExitCode::from(2);
        }
        println!("[obs] bench:    {path}");
    }

    // Deterministic gates, every geometry.
    let failed = gate(&report, args.min_agreement, args.max_error);
    let _ = AnalyticReport::parse(&doc).expect("self-written report must parse");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
