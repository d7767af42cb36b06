//! Per-run markdown reports: one document joining a run's remarks
//! JSONL, metrics JSON, and (optionally) trace JSON.
//!
//! The renderer consumes **only deterministic fields** — remark
//! contents, counters, non-wall-clock histogram statistics, and the
//! structural [`cmt_obs::TraceSummary`] of the trace (never timestamps
//! or durations) — so the report for a fixed workload and `CMT_JOBS`
//! value is byte-identical across runs and diffs cleanly in review. A
//! test pins this.

use crate::analytic::AnalyticReport;
use crate::explain::ExplainDocument;
use crate::serving::ServerBenchReport;
use cmt_obs::diff::WALL_CLOCK_SUFFIX;
use cmt_obs::json::{parse, Value};
use cmt_obs::validate_chrome_trace;
use cmt_profile::HotspotProfile;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the markdown report for one run.
///
/// `remarks_jsonl` and `metrics_json` are the artifact file contents;
/// `trace_json` is the Chrome Trace document when the run was traced;
/// `profile_json` is the ranked hotspot profile when the run was a
/// profiling sweep; `analytic_json` is the analytic-vs-simulated
/// accuracy report when the run was an analytic sweep; `explain_json`
/// is the decision-provenance document when the run was an explain
/// sweep; `server_json` is the service load-harness report when the
/// run exercised cmt-serve. Fails on malformed artifacts (a malformed
/// trace or profile is a real bug — the validators run as part of
/// rendering).
#[allow(clippy::too_many_arguments)]
pub fn render_report(
    name: &str,
    remarks_jsonl: &str,
    metrics_json: &str,
    trace_json: Option<&str>,
    profile_json: Option<&str>,
    analytic_json: Option<&str>,
    explain_json: Option<&str>,
    server_json: Option<&str>,
) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "# Run report: {name}\n");

    // --- Remarks: counts per (pass, kind), then the misses in full. ---
    let mut by_pass: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    let mut problems: Vec<(String, String, String)> = Vec::new();
    let mut total = 0usize;
    for (ln, line) in remarks_jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("remarks line {}: {e}", ln + 1))?;
        let field = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
        let (pass, kind) = (field("pass"), field("kind"));
        *by_pass
            .entry(pass.clone())
            .or_default()
            .entry(kind.clone())
            .or_insert(0) += 1;
        total += 1;
        if kind == "Missed" || kind == "Diverged" {
            problems.push((pass, field("nest"), field("reason")));
        }
    }
    let _ = writeln!(out, "## Remarks ({total})\n");
    if by_pass.is_empty() {
        out.push_str("(none)\n");
    } else {
        const KINDS: [&str; 5] = ["Applied", "Missed", "Analysis", "Verified", "Diverged"];
        out.push_str("| pass | Applied | Missed | Analysis | Verified | Diverged |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        for (pass, kinds) in &by_pass {
            let _ = write!(out, "| {pass} |");
            for k in KINDS {
                let _ = write!(out, " {} |", kinds.get(k).copied().unwrap_or(0));
            }
            out.push('\n');
        }
    }
    if !problems.is_empty() {
        let _ = writeln!(out, "\n### Missed / diverged\n");
        for (pass, nest, reason) in &problems {
            let _ = writeln!(out, "- `{pass}` on `{nest}`: {reason}");
        }
    }

    // --- Metrics: counters, then histograms with quantiles. ---
    let metrics = parse(metrics_json).map_err(|e| format!("metrics: {e}"))?;
    let counters = metrics
        .get("counters")
        .and_then(Value::as_object)
        .ok_or("metrics: missing counters object")?;
    let _ = writeln!(out, "\n## Counters ({})\n", counters.len());
    if !counters.is_empty() {
        out.push_str("| counter | value |\n|---|---|\n");
        for (k, v) in counters {
            let _ = writeln!(out, "| {k} | {} |", v.as_u64().unwrap_or(0));
        }
    }
    let hists = metrics
        .get("histograms")
        .and_then(Value::as_object)
        .ok_or("metrics: missing histograms object")?;
    let _ = writeln!(out, "\n## Histograms ({})\n", hists.len());
    if !hists.is_empty() {
        out.push_str("| histogram | count | min | max | mean | p50 | p95 | p99 |\n");
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for (k, v) in hists {
            let count = v.get("count").and_then(Value::as_u64).unwrap_or(0);
            if k.ends_with(WALL_CLOCK_SUFFIX) {
                // Wall-clock timings are nondeterministic; only the
                // sample count is reproducible.
                let _ = writeln!(out, "| {k} | {count} | — | — | — | — | — | — |");
                continue;
            }
            let stat = |s: &str| {
                v.get(s)
                    .and_then(Value::as_f64)
                    .map(|f| format!("{f:.4}"))
                    .unwrap_or_else(|| "—".to_string())
            };
            let _ = writeln!(
                out,
                "| {k} | {count} | {} | {} | {} | {} | {} | {} |",
                stat("min"),
                stat("max"),
                stat("mean"),
                stat("p50"),
                stat("p95"),
                stat("p99"),
            );
        }
        if hists.iter().any(|(k, _)| k.ends_with(WALL_CLOCK_SUFFIX)) {
            out.push_str("\n`*.ns` histograms are wall-clock timings; values vary run-to-run and are elided.\n");
        }
    }

    // --- Hotspot profile: ranking head plus escalation stamps. ---
    if let Some(profile) = profile_json {
        let profile = HotspotProfile::parse(profile).map_err(|e| format!("profile: {e}"))?;
        let _ = writeln!(out, "\n## Hotspots ({} nests)\n", profile.entries.len());
        let _ = writeln!(
            out,
            "Policy `{}` on `{}` at n={}; top {} of the ranking:\n",
            profile.policy,
            profile.cache,
            profile.n,
            profile.entries.len().min(10)
        );
        if !profile.entries.is_empty() {
            out.push_str(
                "| rank | nest | est misses | miss rate | escalated | full misses | top array |\n",
            );
            out.push_str("|---|---|---|---|---|---|---|\n");
            for e in profile.entries.iter().take(10) {
                let full = e
                    .full_misses
                    .map(|m| m.to_string())
                    .unwrap_or_else(|| "—".to_string());
                let top_array = e
                    .arrays
                    .first()
                    .map(|(name, _, share)| format!("{name} ({:.0}%)", share * 100.0))
                    .unwrap_or_else(|| "—".to_string());
                let _ = writeln!(
                    out,
                    "| {} | `{}` | {} | {:.4} | {} | {} | {} |",
                    e.rank,
                    e.nest,
                    e.est_misses,
                    e.est_miss_rate,
                    if e.escalated { "yes" } else { "no" },
                    full,
                    top_array,
                );
            }
        }
    }

    // --- Analytic model: per-geometry accuracy vs the simulator. ---
    if let Some(analytic) = analytic_json {
        let report = AnalyticReport::parse(analytic).map_err(|e| format!("analytic: {e}"))?;
        let _ = writeln!(out, "\n## Analytic vs simulated\n");
        let _ = writeln!(
            out,
            "{} programs ({} seeds{}), {} nests at n={}, top-{} ranking:\n",
            report.programs,
            report.seeds,
            if report.programs > report.seeds {
                " + paper kernels"
            } else {
                ""
            },
            report.nests,
            report.n,
            report.top_k,
        );
        out.push_str(
            "| geometry | pred misses | sim misses | mean rel err | top-k (tied) | top-k (strict) | tau | worst nest |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for g in &report.geometries {
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {:.4} | {:.3} | {:.3} | {:.3} | `{}` ({:.2}) |",
                g.cache,
                g.predicted_misses,
                g.simulated_misses,
                g.mean_rel_error,
                g.top_k_agreement,
                g.top_k_agreement_strict,
                g.kendall_tau,
                g.worst_nest,
                g.worst_rel_error,
            );
        }
    }

    // --- Decisions: provenance summary plus the flagged rows. ---
    if let Some(explain) = explain_json {
        let doc = ExplainDocument::parse(explain).map_err(|e| format!("explain: {e}"))?;
        let joined = doc
            .decisions
            .iter()
            .filter(|d| d.analytic_desired.is_some())
            .count();
        let disagreements: Vec<_> = doc.decisions.iter().filter(|d| d.disagree).collect();
        let near_ties = doc.decisions.iter().filter(|d| d.near_tie).count();
        let blocked = doc.decisions.iter().filter(|d| !d.legal).count();
        let _ = writeln!(out, "\n## Decisions ({})\n", doc.decisions.len());
        let _ = writeln!(
            out,
            "{} programs ({} seeds) at n={}: {} joined across both oracles, \
             {} disagreements, {} near-ties (margin < {:.0}%), {} blocked by dependences.\n",
            doc.programs,
            doc.seeds,
            doc.n,
            joined,
            disagreements.len(),
            near_ties,
            100.0 * doc.margin_tie,
            blocked,
        );
        if !disagreements.is_empty() {
            out.push_str("| nest | action | loopcost wants | analytic wants | outcome |\n");
            out.push_str("|---|---|---|---|---|\n");
            for d in disagreements.iter().take(10) {
                let _ = writeln!(
                    out,
                    "| `{}` | {} | {} | {} | {} |",
                    d.nest,
                    d.action,
                    d.loopcost_desired,
                    d.analytic_desired.as_deref().unwrap_or("—"),
                    d.outcome,
                );
            }
            if disagreements.len() > 10 {
                let _ = writeln!(out, "\n({} more elided)", disagreements.len() - 10);
            }
        }
    }

    // --- Service: the load harness's deterministic fields only ---
    // (latency percentiles are wall-clock and elided, like `*.ns`
    // histograms above).
    if let Some(server) = server_json {
        let r = ServerBenchReport::parse(server).map_err(|e| format!("server: {e}"))?;
        let _ = writeln!(out, "\n## Service\n");
        let _ = writeln!(
            out,
            "{} requests over {} pass(es) × {} client(s) at n={}{}: \
             {} ok, {} overloaded, {} errors; second-pass hit rate {:.3}, shed rate {:.3}.\n",
            r.requests,
            r.passes,
            r.clients,
            r.n,
            if r.fault_injected {
                format!(" (fault seed {})", r.fault_seed)
            } else {
                String::new()
            },
            r.ok,
            r.overloaded,
            r.errors,
            r.hit_rate_second_pass(),
            r.shed_rate(),
        );
        out.push_str("| fidelity | replies |\n|---|---|\n");
        let _ = writeln!(out, "| cached | {} |", r.cached);
        let _ = writeln!(out, "| simulated | {} |", r.simulated);
        let _ = writeln!(out, "| analytic | {} |", r.analytic);
        let _ = writeln!(
            out,
            "\n{} degraded pipeline runs; memo cache: {} hits, {} misses, {} inserted, {} evicted.",
            r.degraded, r.memo_hits, r.memo_misses, r.memo_inserted, r.memo_evictions,
        );
    }

    // --- Trace: structural summary only (no timestamps). ---
    if let Some(trace) = trace_json {
        let summary = validate_chrome_trace(trace).map_err(|e| format!("trace: {e}"))?;
        let _ = writeln!(out, "\n## Trace\n");
        let _ = writeln!(
            out,
            "{} tracks, {} events ({} spans, {} counter samples).\n",
            summary.tracks, summary.events, summary.spans, summary.counter_samples
        );
        out.push_str("| event | count |\n|---|---|\n");
        for (name, count) in &summary.by_name {
            let _ = writeln!(out, "| {name} | {count} |");
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use cmt_obs::{CollectSink, ObsSink, Remark, RemarkKind, TraceSession};

    fn sample_sink() -> CollectSink {
        let mut sink = CollectSink::new();
        sink.remark(Remark::new("permute", "mm/nest0:I.J.K", RemarkKind::Applied).reason("ok"));
        sink.remark(Remark::new("fuse", "mm/nest1:I", RemarkKind::Missed).reason("not legal"));
        sink.counter("sim.accesses", 500);
        sink.record("cost.ratio", 4.0);
        sink.record("pass.compound.ns", 12345.0);
        sink
    }

    #[test]
    fn report_sections_render() {
        let sink = sample_sink();
        let mut session = TraceSession::new();
        session.main().begin("pass.compound", &[]);
        session.main().end("pass.compound", &[]);
        let report = render_report(
            "unit",
            &sink.remarks_jsonl(),
            &sink.metrics.to_json(),
            Some(&session.to_chrome_json()),
            None,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(report.contains("# Run report: unit"));
        assert!(report.contains("| permute | 1 | 0 |"), "{report}");
        assert!(report.contains("`fuse` on `mm/nest1:I`: not legal"));
        assert!(report.contains("| sim.accesses | 500 |"));
        assert!(report.contains("| cost.ratio | 1 | 4.0000 |"), "{report}");
        assert!(report.contains("| pass.compound.ns | 1 | — |"), "{report}");
        assert!(
            report.contains("1 tracks, 2 events (1 spans, 0 counter samples)"),
            "{report}"
        );
        assert!(report.contains("| pass.compound | 2 |"));
    }

    #[test]
    fn report_is_deterministic_across_traced_runs() {
        // Two runs of the same workload produce different wall-clock
        // traces; the report must nevertheless be byte-identical
        // because it reads only deterministic fields.
        let render_once = || {
            let sink = sample_sink();
            let mut session = TraceSession::new();
            session.main().begin("pass.compound", &[]);
            std::thread::sleep(std::time::Duration::from_millis(2));
            session.main().end("pass.compound", &[]);
            let mut w = session.track("worker-0");
            let t0 = w.start();
            w.complete_since(t0, "simulate", &[]);
            session.absorb(w);
            render_report(
                "det",
                &sink.remarks_jsonl(),
                &sink.metrics.to_json(),
                Some(&session.to_chrome_json()),
                None,
                None,
                None,
                None,
            )
            .unwrap()
        };
        assert_eq!(render_once(), render_once());
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(render_report("x", "not json\n", "{}", None, None, None, None, None).is_err());
        assert!(render_report("x", "", "{", None, None, None, None, None).is_err());
        let ok_metrics = "{\"counters\":{},\"histograms\":{}}";
        assert!(render_report("x", "", ok_metrics, Some("["), None, None, None, None).is_err());
        assert!(render_report("x", "", ok_metrics, None, Some("{"), None, None, None).is_err());
        assert!(render_report("x", "", ok_metrics, None, None, Some("{"), None, None).is_err());
        assert!(render_report("x", "", ok_metrics, None, None, None, Some("{"), None).is_err());
        assert!(render_report("x", "", ok_metrics, None, None, None, None, Some("{")).is_err());
    }

    #[test]
    fn profile_section_renders_ranking() {
        use cmt_ir::build::ProgramBuilder;
        use cmt_ir::expr::Expr;
        use cmt_profile::{profile_program, rank_hotspots, ProfileOptions};

        let mut b = ProgramBuilder::new("copy");
        let n = b.param("N");
        let a = b.matrix("A", n);
        let c = b.matrix("C", n);
        b.loop_("I", 1, n, |b| {
            b.loop_("J", 1, n, |b| {
                let (i, j) = (b.var("I"), b.var("J"));
                let lhs = b.at(c, [i, j]);
                b.assign(lhs, Expr::load(b.at(a, [j, i])));
            });
        });
        let program = b.finish();
        let opts = ProfileOptions::default();
        let profile = profile_program(&program, 48, &opts, &mut cmt_obs::NullObs).unwrap();
        let ranked = rank_hotspots(&[profile], "p", "c", 48);
        let report = render_report(
            "prof",
            "",
            "{\"counters\":{},\"histograms\":{}}",
            None,
            Some(&ranked.to_json()),
            None,
            None,
            None,
        )
        .unwrap();
        assert!(report.contains("## Hotspots (1 nests)"), "{report}");
        assert!(report.contains("`copy/nest0:I.J`"), "{report}");
        assert!(report.contains("| rank | nest |"), "{report}");
    }

    #[test]
    fn analytic_section_renders_per_geometry_accuracy() {
        use crate::analytic::{analytic_sweep, AnalyticSweepConfig};

        let cfg = AnalyticSweepConfig {
            seeds: 2,
            kernels: false,
            n: 32,
            ..AnalyticSweepConfig::default()
        };
        let programs = corpus(cfg.seeds, cfg.kernels);
        let mut sink = cmt_obs::CollectSink::new();
        let analytic = analytic_sweep(&programs, &cfg, &mut sink, None).unwrap();
        let report = render_report(
            "an",
            "",
            "{\"counters\":{},\"histograms\":{}}",
            None,
            None,
            Some(&analytic.to_json()),
            None,
            None,
        )
        .unwrap();
        assert!(report.contains("## Analytic vs simulated"), "{report}");
        assert!(report.contains("| geometry | pred misses |"), "{report}");
        // One table row per geometry.
        assert_eq!(report.matches("-way/").count(), 3, "{report}");
    }

    #[test]
    fn service_section_renders_deterministic_fields_only() {
        let server = ServerBenchReport {
            seeds: 4,
            clients: 2,
            passes: 2,
            n: 8,
            fault_injected: true,
            fault_seed: 7,
            requests: 16,
            ok: 15,
            cached: 8,
            simulated: 6,
            analytic: 1,
            degraded: 2,
            errors: 1,
            overloaded: 0,
            malformed: 0,
            transport_failures: 0,
            second_pass_requests: 8,
            second_pass_cached: 8,
            memo_hits: 8,
            memo_misses: 8,
            memo_inserted: 7,
            memo_evictions: 3,
            p50_us: 123.4,
            p99_us: 9_999.9,
            p50_cold_us: 456.7,
            p99_cold_us: 88_888.8,
        };
        let report = render_report(
            "srv",
            "",
            "{\"counters\":{},\"histograms\":{}}",
            None,
            None,
            None,
            None,
            Some(&server.to_json()),
        )
        .unwrap();
        assert!(report.contains("## Service"), "{report}");
        assert!(report.contains("second-pass hit rate 1.000"), "{report}");
        assert!(report.contains("| simulated | 6 |"), "{report}");
        assert!(report.contains("3 evicted"), "{report}");
        assert!(report.contains("(fault seed 7)"), "{report}");
        // Wall-clock latency never reaches the report.
        assert!(!report.contains("9999"), "{report}");
        assert!(!report.contains("88888"), "{report}");
    }

    #[test]
    fn decisions_section_renders_provenance() {
        use crate::explain::{explain_sweep, ExplainSweepConfig};

        let cfg = ExplainSweepConfig {
            seeds: 2,
            kernels: false,
            n: 24,
            margin_tie: 0.05,
        };
        let programs = corpus(cfg.seeds, cfg.kernels);
        let mut sink = cmt_obs::CollectSink::new();
        let (doc, _) = explain_sweep(&programs, &cfg, &mut sink, None).unwrap();
        let report = render_report(
            "ex",
            "",
            "{\"counters\":{},\"histograms\":{}}",
            None,
            None,
            None,
            Some(&doc.to_json()),
            None,
        )
        .unwrap();
        assert!(report.contains("## Decisions ("), "{report}");
        assert!(report.contains("joined across both oracles"), "{report}");
    }
}
