//! Execution + cache-simulation plumbing shared by the table generators,
//! plus the deterministic parallel corpus runner ([`par_map`]).

use cmt_cache::{Cache, CacheConfig, CacheStats, ObservedCache, ShardedCache};
use cmt_interp::simulate;
use cmt_ir::program::Program;
use cmt_locality::{compound::compound, model::CostModel, pass::Pipeline};
use cmt_obs::{CollectSink, MetricsRegistry, TraceArg, TraceSession, TraceTrack, Tracing};
use cmt_suite::BenchmarkModel;

// The deterministic worker pool moved down to `cmt-obs` so the
// set-sharded cache engine can fan shards out on it; re-exported here
// so existing `cmt_bench::{par_map, cmt_jobs, …}` callers are
// unaffected.
pub use cmt_obs::pool::{
    cmt_jobs, par_map, par_map_traced, try_par_map, try_par_map_traced, WorkerPanic,
};

/// Cache statistics for one program run under both paper caches.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProgramSim {
    /// RS/6000-style cache (64 KB / 4-way / 128 B).
    pub cache1: CacheStats,
    /// i860-style cache (8 KB / 2-way / 32 B).
    pub cache2: CacheStats,
}

/// Simulation of a model's original and transformed versions.
#[derive(Clone, Copy, Debug, Default)]
pub struct VersionPair {
    /// Optimized procedures only, original version.
    pub opt_orig: ProgramSim,
    /// Optimized procedures only, transformed.
    pub opt_final: ProgramSim,
    /// Whole program (optimized + rest), original.
    pub whole_orig: ProgramSim,
    /// Whole program, transformed.
    pub whole_final: ProgramSim,
}

/// The two paper caches as set-sharded engines, honoring `CMT_SHARDS` /
/// `CMT_JOBS` via [`cmt_cache::default_shard_count`].
fn paper_caches() -> [ShardedCache; 2] {
    [
        ShardedCache::new(CacheConfig::rs6000()),
        ShardedCache::new(CacheConfig::i860()),
    ]
}

impl ProgramSim {
    /// The stats of the two paper caches, RS/6000 first.
    fn of(caches: &mut [ShardedCache; 2]) -> ProgramSim {
        ProgramSim {
            cache1: caches[0].stats(),
            cache2: caches[1].stats(),
        }
    }
}

/// Simulates one program at parameter `n`, returning both caches' stats.
///
/// # Panics
///
/// Panics if execution fails (suite programs are in-bounds by
/// construction).
pub fn simulate_program(program: &Program, n: i64) -> ProgramSim {
    let mut caches = paper_caches();
    simulate(program, &[n], 0, &mut caches, None).expect("execution");
    ProgramSim::of(&mut caches)
}

/// One observed run: whole-trace stats plus per-array attribution and
/// interval miss-rate snapshots for both paper caches, and the
/// interpreter's access counts.
#[derive(Clone, Debug)]
pub struct ObservedSim {
    /// Whole-trace stats, same shape as [`simulate_program`] returns.
    pub sim: ProgramSim,
    /// RS/6000-style cache with attribution.
    pub cache1: ObservedCache,
    /// i860-style cache with attribution.
    pub cache2: ObservedCache,
    /// Loads the interpreter issued.
    pub loads: u64,
    /// Stores the interpreter issued.
    pub stores: u64,
}

impl ObservedSim {
    /// Exports everything under `prefix`: `{prefix}.cache1.*`,
    /// `{prefix}.cache2.*` (see [`ObservedCache::export_metrics`]) and
    /// `{prefix}.interp.{loads,stores,accesses}`.
    pub fn export_metrics(&self, registry: &mut MetricsRegistry, prefix: &str) {
        self.cache1
            .export_metrics(registry, &format!("{prefix}.cache1"));
        self.cache2
            .export_metrics(registry, &format!("{prefix}.cache2"));
        registry.counter(&format!("{prefix}.interp.loads"), self.loads);
        registry.counter(&format!("{prefix}.interp.stores"), self.stores);
        registry.counter(
            &format!("{prefix}.interp.accesses"),
            self.loads + self.stores,
        );
    }
}

/// [`simulate_program`] with observability: every array's address range
/// is registered for per-array attribution, and miss rates are
/// snapshotted every `interval` accesses (`0` disables snapshots).
/// The caches see the identical trace, so `result.sim` equals what
/// [`simulate_program`] reports for the same inputs.
///
/// With a `track`, the run also profiles itself: the whole run becomes
/// one `simulate` complete-span (args: program name, accesses, both
/// caches' miss counts), each interpreter flush becomes a `sim.batch`
/// span, and the interval snapshots are replayed as `cache1.miss_rate`
/// / `cache2.miss_rate` counter tracks interpolated along the span — so
/// Perfetto shows the miss-rate phase structure against wall-clock
/// time. The simulation results do not depend on tracing.
///
/// # Panics
///
/// Panics if execution fails (suite programs are in-bounds by
/// construction).
pub fn simulate_program_observed(
    program: &Program,
    n: i64,
    interval: u64,
    mut track: Option<&mut TraceTrack>,
) -> ObservedSim {
    let mut caches = [
        ObservedCache::new(Cache::new(CacheConfig::rs6000()), interval),
        ObservedCache::new(Cache::new(CacheConfig::i860()), interval),
    ];
    let t0 = track.as_deref().map(TraceTrack::start);
    let run = simulate(program, &[n], 0, &mut caches, track.as_deref_mut()).expect("execution");
    let [mut c1, mut c2] = caches;
    c1.flush_window();
    c2.flush_window();
    if let (Some(track), Some(t0)) = (track, t0) {
        let t1 = track.now_us();
        let span = (t1 - t0) as f64;
        for (prefix, cache) in [("cache1", &c1), ("cache2", &c2)] {
            for (frac, rate) in cache.miss_rate_series() {
                let ts = t0 + (frac * span) as u64;
                track.counter_at(ts, &format!("{prefix}.miss_rate"), rate);
            }
        }
        track.complete_at(
            t0,
            t1 - t0,
            "simulate",
            &[
                ("program", TraceArg::Str(program.name())),
                ("accesses", TraceArg::U64(run.loads + run.stores)),
                ("cache1_misses", TraceArg::U64(c1.stats().misses)),
                ("cache2_misses", TraceArg::U64(c2.stats().misses)),
            ],
        );
        track.normalize();
    }
    ObservedSim {
        sim: ProgramSim {
            cache1: c1.stats(),
            cache2: c2.stats(),
        },
        cache1: c1,
        cache2: c2,
        loads: run.loads,
        stores: run.stores,
    }
}

/// Replays the per-shard flush slices of two set-sharded caches (see
/// [`ShardedCache::enable_flush_log`]) onto `track` as `sim.shard`
/// complete-spans, starting at `t0`. Shards run concurrently inside a
/// flush; the replay lays their slices end to end, which preserves each
/// slice's duration and per-cache ordering without pretending to know
/// the pool's real interleaving.
pub fn replay_shard_log(track: &mut TraceTrack, t0: u64, caches: &mut [ShardedCache; 2]) {
    for (which, cache) in ["cache1", "cache2"].into_iter().zip(caches) {
        let mut ts = t0;
        for span in cache.take_flush_log() {
            let dur = span.nanos / 1_000;
            track.complete_at(
                ts,
                dur,
                "sim.shard",
                &[
                    ("cache", TraceArg::Str(which)),
                    ("shard", TraceArg::U64(u64::from(span.shard))),
                    ("accesses", TraceArg::U64(span.accesses)),
                ],
            );
            ts += dur.max(1);
        }
    }
    track.normalize();
}

/// Simulates original and compound-transformed versions of a benchmark
/// model: optimized procedures alone, and the whole program (optimized +
/// background `rest`, sharing one cache with disjoint address ranges).
pub fn simulate_versions(model: &BenchmarkModel, cost_model: &CostModel, n: i64) -> VersionPair {
    let orig = model.optimized.clone();
    let mut transformed = model.optimized.clone();
    let _ = compound(&mut transformed, cost_model);

    let run_whole = |opt: &Program| -> (ProgramSim, ProgramSim) {
        // Optimized procedures first…
        let mut caches = paper_caches();
        simulate(opt, &[n], 0, &mut caches, None).expect("execution");
        let opt_stats = ProgramSim::of(&mut caches);
        // …then the background, offset far away in the address space.
        simulate(&model.rest, &[n], 1 << 40, &mut caches, None).expect("execution");
        (opt_stats, ProgramSim::of(&mut caches))
    };

    let (opt_orig, whole_orig) = run_whole(&orig);
    let (opt_final, whole_final) = run_whole(&transformed);
    VersionPair {
        opt_orig,
        opt_final,
        whole_orig,
        whole_final,
    }
}

/// The observability run shared by the figure binaries: the paper
/// pipeline over `program` (pass spans on the session's main track when
/// a session is given), one `[pass]` line per pass on stdout, then an
/// attributed simulation of the result at `sim_n` (on its own `sim`
/// track) exported under `prefix`.
pub fn observe_figure(
    program: &mut Program,
    sim_n: i64,
    prefix: &str,
    mut session: Option<&mut TraceSession>,
) -> (CollectSink, ObservedSim) {
    let pipeline = Pipeline::paper_default(4);
    let (mut sink, reports) = match session.as_deref_mut() {
        Some(session) => {
            let mut traced = Tracing::new(CollectSink::new(), session.main());
            let reports = pipeline.run_observed(program, &mut traced);
            (traced.inner, reports)
        }
        None => {
            let mut sink = CollectSink::new();
            let reports = pipeline.run_observed(program, &mut sink);
            (sink, reports)
        }
    };
    for r in &reports {
        println!("[pass] {}: {}", r.name, r.summary);
    }
    let mut track = session.as_deref_mut().map(|s| s.track("sim"));
    let sim = simulate_program_observed(program, sim_n, 10_000, track.as_mut());
    if let (Some(session), Some(track)) = (session, track) {
        session.absorb(track);
    }
    sim.export_metrics(&mut sink.metrics, prefix);
    (sink, sim)
}

/// Writes a binary's artifacts: the validated Chrome Trace when a
/// session was recorded, then `{name}.remarks.jsonl` and
/// `{name}.metrics.json`.
///
/// # Errors
///
/// Fails when the trace violates its structural invariants or an
/// artifact cannot be written.
pub fn emit_traced(
    name: &str,
    sink: &CollectSink,
    session: Option<&TraceSession>,
) -> Result<(), String> {
    if let Some(session) = session {
        session
            .validate()
            .map_err(|e| format!("trace invariants: {e}"))?;
        let path =
            crate::write_trace_json(name, &session.to_chrome_json()).map_err(|e| e.to_string())?;
        println!("[obs] trace:    {}", path.display());
    }
    crate::emit(name, &sink.remarks, &sink.metrics).map_err(|e| e.to_string())
}

/// Shared observability companion of the table/figure binaries: runs
/// the observed compound driver over `programs` (one clone each) and
/// writes the `{name}.remarks.jsonl` / `{name}.metrics.json` artifacts,
/// plus a validated Chrome Trace under `CMT_TRACE`. Workers collect
/// into per-item sinks absorbed in item order, so every artifact is
/// byte-identical for any `CMT_JOBS`.
///
/// # Errors
///
/// Fails when a trace violates its structural invariants or an
/// artifact cannot be written.
pub fn emit_observed_compound(
    name: &str,
    programs: &[Program],
    opts: &cmt_locality::CompoundOptions,
) -> Result<(), String> {
    use cmt_locality::compound_observed;

    let model = CostModel::new(4);
    let mut session = crate::trace_enabled().then(TraceSession::new);
    let parts = match session.as_mut() {
        Some(session) => par_map_traced(programs, session, |p, track| {
            let mut traced = Tracing::new(CollectSink::new(), track);
            let mut q = p.clone();
            let _ = compound_observed(&mut q, &model, opts, &mut traced);
            traced.inner
        }),
        None => par_map(programs, |p| {
            let mut local = CollectSink::new();
            let mut q = p.clone();
            let _ = compound_observed(&mut q, &model, opts, &mut local);
            local
        }),
    };
    let mut sink = CollectSink::new();
    for part in parts {
        sink.absorb(part);
    }
    emit_traced(name, &sink, session.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmt_suite::suite;

    #[test]
    fn arc2d_model_improves_on_small_cache() {
        let model = suite()
            .into_iter()
            .find(|m| m.spec.name == "arc2d")
            .expect("arc2d exists");
        let cm = CostModel::new(4);
        // Small n keeps the test fast; cache2 (8 KB) already shows the
        // effect because a strided row sweep exceeds it.
        let pair = simulate_versions(&model, &cm, 96);
        let before = pair.opt_orig.cache2.hit_rate_excluding_cold();
        let after = pair.opt_final.cache2.hit_rate_excluding_cold();
        assert!(
            after > before + 0.02,
            "expected improvement: before={before:.4} after={after:.4}"
        );
        // Whole-program improvement is diluted but monotone.
        let wb = pair.whole_orig.cache2.hit_rate_excluding_cold();
        let wa = pair.whole_final.cache2.hit_rate_excluding_cold();
        assert!(
            wa >= wb,
            "whole-program rate must not regress: {wb} vs {wa}"
        );
    }

    #[test]
    fn observed_sim_matches_plain_sim() {
        let p = cmt_suite::kernels::matmul("IJK");
        let plain = simulate_program(&p, 24);
        let obs = simulate_program_observed(&p, 24, 1000, None);
        assert_eq!(plain.cache1, obs.sim.cache1);
        assert_eq!(plain.cache2, obs.sim.cache2);
        // All accesses land in registered arrays, and attribution
        // partitions the trace.
        assert_eq!(obs.cache1.unattributed().accesses, 0);
        let sum: u64 = obs.cache1.per_array().map(|(_, s)| s.accesses).sum();
        assert_eq!(sum, obs.sim.cache1.accesses);
        assert_eq!(obs.loads + obs.stores, obs.sim.cache1.accesses);
        assert!(!obs.cache1.snapshots().is_empty());
        let mut reg = MetricsRegistry::new();
        obs.export_metrics(&mut reg, "sim.mm");
        assert_eq!(
            reg.counter_value("sim.mm.interp.accesses"),
            obs.sim.cache1.accesses
        );

        // Traced: identical results, plus the simulate span, per-batch
        // spans and miss-rate counter samples.
        let mut session = TraceSession::new();
        let mut track = session.track("sim");
        let traced = simulate_program_observed(&p, 24, 1000, Some(&mut track));
        session.absorb(track);
        let mut reg2 = MetricsRegistry::new();
        traced.export_metrics(&mut reg2, "sim.mm");
        assert_eq!(
            reg.to_json(),
            reg2.to_json(),
            "tracing must not change metrics"
        );
        session.validate().expect("trace invariants");
        let json = session.to_chrome_json();
        for name in ["\"simulate\"", "sim.batch", "cache2.miss_rate"] {
            assert!(json.contains(name), "expected {name} in the trace");
        }
    }

    #[test]
    fn pinned_shards_match_plain_and_replay_shard_spans() {
        let p = cmt_suite::kernels::matmul("IJK");
        let plain = simulate_program(&p, 24);
        let sharded = |traced: bool| {
            let mut caches = [
                ShardedCache::with_shards(CacheConfig::rs6000(), 4),
                ShardedCache::with_shards(CacheConfig::i860(), 4),
            ];
            if traced {
                caches.iter_mut().for_each(ShardedCache::enable_flush_log);
            }
            simulate(&p, &[24], 0, &mut caches, None).expect("execution");
            let mut reg = MetricsRegistry::new();
            caches[0].export_metrics(&mut reg, "sim.mm.cache1");
            caches[1].export_metrics(&mut reg, "sim.mm.cache2");
            (ProgramSim::of(&mut caches), reg, caches)
        };

        // Untraced: stats agree with the default engine, counters land.
        let (quiet, reg, _) = sharded(false);
        assert_eq!(plain.cache1, quiet.cache1);
        assert_eq!(plain.cache2, quiet.cache2);
        assert_eq!(reg.counter_value("sim.mm.cache1.shard.count"), 4);
        assert_eq!(reg.counter_value("sim.mm.cache2.shard.count"), 4);
        let per_shard: u64 = (0..4)
            .map(|k| reg.counter_value(&format!("sim.mm.cache2.shard.{k}.accesses")))
            .sum();
        assert_eq!(per_shard, plain.cache2.accesses);

        // Flush-logged: identical stats and counters; the log replays as
        // sim.shard spans.
        let (logged, reg2, mut caches) = sharded(true);
        assert_eq!(quiet.cache2, logged.cache2, "tracing must not change stats");
        assert_eq!(
            reg.to_json(),
            reg2.to_json(),
            "counters must not depend on tracing"
        );
        let mut session = TraceSession::new();
        let mut track = session.track("sim.sharded");
        let t0 = track.start();
        replay_shard_log(&mut track, t0, &mut caches);
        session.absorb(track);
        session.validate().expect("trace invariants");
        let json = session.to_chrome_json();
        assert!(json.contains("sim.shard"), "expected sim.shard spans");
    }

    #[test]
    fn already_optimal_model_is_unchanged() {
        let model = suite()
            .into_iter()
            .find(|m| m.spec.name == "tomcatv")
            .expect("tomcatv exists");
        let cm = CostModel::new(4);
        let pair = simulate_versions(&model, &cm, 64);
        // Fusion may still change access interleaving slightly, but the
        // hit rate must not get worse.
        let before = pair.opt_orig.cache2.hit_rate_excluding_cold();
        let after = pair.opt_final.cache2.hit_rate_excluding_cold();
        assert!(after + 1e-9 >= before, "{before} vs {after}");
    }
}
