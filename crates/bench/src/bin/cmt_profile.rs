//! `cmt-profile` — profile-directed escalation over the corpus.
//!
//! ```text
//! cmt-profile [--seeds N] [--no-kernels] [--n N] [--top K]
//!             [--stride K | --first-n N | --full]
//!             [--no-optimize] [--check] [--min-agreement X]
//!             [--max-cost F] [--name NAME] [--bench-json PATH]
//! ```
//!
//! Sweeps the first `--seeds` verify-corpus programs plus the paper
//! kernels under sampled cache simulation, writes the ranked hotspot
//! profile to `{name}.profile.json` (plus the usual remarks/metrics
//! artifacts, and a trace under `CMT_TRACE`), and escalates the top-K
//! nests: full-simulation confirm, then one supervised optimization
//! run per flagged program.
//!
//! Gates (deterministic — they fail on sampling accuracy or sampled
//! work volume, never on wall-clock):
//!
//! * always: sampled fraction of corpus accesses ≤ `--max-cost`
//!   (default 0.10);
//! * with `--check`: top-K agreement with a full-simulation ground
//!   truth ranking ≥ `--min-agreement` (default 1.0).
//!
//! `--bench-json` additionally records wall-clock for the sampled and
//! (under `--check`) full passes — informational, like the committed
//! `BENCH_profile.json`.
//!
//! Exit codes: `0` ok, `1` gate failure, `2` usage or artifact error.

use cmt_bench::{corpus, profile_sweep, SweepConfig, SweepResult};
use cmt_obs::json::ObjectWriter;
use cmt_obs::{CollectSink, TraceSession};
use cmt_profile::SamplePolicy;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cmt-profile [--seeds N] [--no-kernels] [--n N] [--top K] \
         [--stride K | --first-n N | --full] [--no-optimize] [--check] \
         [--min-agreement X] [--max-cost F] [--name NAME] [--bench-json PATH]"
    );
    ExitCode::from(2)
}

struct Args {
    cfg: SweepConfig,
    min_agreement: f64,
    max_cost: f64,
    name: String,
    bench_json: Option<String>,
}

fn parse_args() -> Result<Args, ()> {
    let mut cfg = SweepConfig::default();
    let mut min_agreement = 1.0f64;
    let mut max_cost = 0.10f64;
    let mut name = "profile_corpus".to_string();
    let mut bench_json = None;
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>| args.next().ok_or(());
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => cfg.seeds = value(&mut args)?.parse().map_err(|_| ())?,
            "--no-kernels" => cfg.kernels = false,
            "--n" => cfg.n = value(&mut args)?.parse().map_err(|_| ())?,
            "--top" => cfg.top_k = value(&mut args)?.parse().map_err(|_| ())?,
            "--stride" => {
                let stride = value(&mut args)?.parse().map_err(|_| ())?;
                cfg.policy = match cfg.policy {
                    SamplePolicy::EveryKth { window, seed, .. } => SamplePolicy::EveryKth {
                        stride,
                        window,
                        seed,
                    },
                    _ => SamplePolicy::EveryKth {
                        stride,
                        window: cmt_profile::DEFAULT_WINDOW,
                        seed: cmt_profile::DEFAULT_SEED,
                    },
                };
            }
            "--first-n" => {
                cfg.policy = SamplePolicy::FirstN {
                    n: value(&mut args)?.parse().map_err(|_| ())?,
                }
            }
            "--full" => cfg.policy = SamplePolicy::Full,
            "--no-optimize" => cfg.optimize = false,
            "--check" => cfg.check = true,
            "--min-agreement" => min_agreement = value(&mut args)?.parse().map_err(|_| ())?,
            "--max-cost" => max_cost = value(&mut args)?.parse().map_err(|_| ())?,
            "--name" => name = value(&mut args)?,
            "--bench-json" => bench_json = Some(value(&mut args)?),
            _ => return Err(()),
        }
    }
    Ok(Args {
        cfg,
        min_agreement,
        max_cost,
        name,
        bench_json,
    })
}

fn bench_json_doc(
    cfg: &SweepConfig,
    result: &SweepResult,
    sampled_secs: f64,
    programs: usize,
) -> String {
    let mut w = ObjectWriter::new();
    w.field_str("bench", "profile");
    w.field_u64("seeds", cfg.seeds as u64);
    w.field_u64("programs", programs as u64);
    w.field_u64("nests", result.nests as u64);
    w.field_raw("n", &cfg.n.to_string());
    w.field_str("policy", &cfg.policy.describe());
    w.field_u64("accesses_total", result.accesses_total);
    w.field_u64("accesses_sampled", result.accesses_sampled);
    w.field_raw(
        "sampled_fraction",
        &format!("{:.6}", result.sampled_fraction()),
    );
    // Wall-clock is informational only — gates never read it.
    w.field_raw("sampled_seconds", &format!("{sampled_secs:.3}"));
    if let Some(a) = &result.agreement {
        w.field_u64("top_k", a.top_k as u64);
        w.field_raw("top_k_agreement", &format!("{:.6}", a.top_k_agreement));
        w.field_raw("kendall_tau", &format!("{:.6}", a.kendall_tau));
    }
    w.field_u64("escalated", result.outcomes.len() as u64);
    w.field_u64(
        "optimized",
        result.outcomes.iter().filter(|o| o.optimized).count() as u64,
    );
    w.finish() + "\n"
}

fn main() -> ExitCode {
    let Ok(args) = parse_args() else {
        return usage();
    };
    let cfg = args.cfg;
    cmt_resilience::silence_supervised_panics();

    let programs = corpus(cfg.seeds, cfg.kernels);
    println!(
        "cmt-profile: {} programs ({} seeds{}) at n={}, policy {}",
        programs.len(),
        cfg.seeds,
        if cfg.kernels { " + paper kernels" } else { "" },
        cfg.n,
        cfg.policy.describe()
    );

    let mut sink = CollectSink::new();
    let mut session = cmt_bench::trace_enabled().then(TraceSession::new);
    let t0 = Instant::now();
    let result = match profile_sweep(&programs, &cfg, &mut sink, session.as_mut()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cmt-profile: {e}");
            return ExitCode::from(2);
        }
    };
    let sampled_secs = t0.elapsed().as_secs_f64();

    // Top of the ranking, escalation decisions inline.
    println!("rank  est-misses  miss-rate  escalated  nest");
    for e in result.hotspots.entries.iter().take(cfg.top_k.max(10)) {
        println!(
            "{:>4}  {:>10}  {:>9.4}  {:>9}  {}",
            e.rank,
            e.est_misses,
            e.est_miss_rate,
            if e.escalated { "yes" } else { "no" },
            e.nest
        );
    }
    for o in &result.outcomes {
        println!(
            "[escalate] #{} {}: est {} full {} optimized={} committed={} steps={}",
            o.rank,
            o.nest,
            o.est_misses,
            o.full_misses,
            o.optimized,
            o.committed,
            o.steps_committed
        );
    }
    println!(
        "sampled {} of {} accesses ({:.2}%) across {} nests",
        result.accesses_sampled,
        result.accesses_total,
        result.sampled_fraction() * 100.0,
        result.nests
    );

    // Artifacts: profile.json + remarks/metrics (+ trace).
    match cmt_bench::write_profile_json(&args.name, &result.hotspots.to_json()) {
        Ok(p) => println!("[obs] profile:  {}", p.display()),
        Err(e) => {
            eprintln!("cmt-profile: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(session) = &session {
        if let Err(e) = session.validate() {
            eprintln!("cmt-profile: trace invariants: {e}");
            return ExitCode::from(2);
        }
        match cmt_bench::write_trace_json(&args.name, &session.to_chrome_json()) {
            Ok(p) => println!("[obs] trace:    {}", p.display()),
            Err(e) => {
                eprintln!("cmt-profile: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Err(e) = cmt_bench::emit(&args.name, &sink.remarks, &sink.metrics) {
        eprintln!("cmt-profile: {e}");
        return ExitCode::from(2);
    }
    if let Some(path) = &args.bench_json {
        let doc = bench_json_doc(&cfg, &result, sampled_secs, programs.len());
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cmt-profile: {path}: {e}");
            return ExitCode::from(2);
        }
        println!("[obs] bench:    {path}");
    }

    // Deterministic gates.
    let mut failed = false;
    if !matches!(cfg.policy, SamplePolicy::Full) && result.sampled_fraction() > args.max_cost {
        eprintln!(
            "cmt-profile: GATE: sampled fraction {:.4} exceeds --max-cost {}",
            result.sampled_fraction(),
            args.max_cost
        );
        failed = true;
    }
    if let Some(a) = &result.agreement {
        println!(
            "check: top-{} agreement {:.3}, kendall tau {:.3} vs full simulation",
            a.top_k, a.top_k_agreement, a.kendall_tau
        );
        if a.top_k_agreement < args.min_agreement {
            eprintln!(
                "cmt-profile: GATE: top-{} agreement {:.3} below --min-agreement {}",
                a.top_k, a.top_k_agreement, args.min_agreement
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
