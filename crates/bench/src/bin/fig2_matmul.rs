//! Regenerates Figure 2: matrix-multiply loop-order ranking.

use cmt_cache::{CacheConfig, ShardedCache};
use cmt_obs::{TraceSession, TraceTrack};
use std::process::ExitCode;

/// Pinned shard count for the artifact-producing sharded run, so the
/// committed baseline `shard.*` counters don't depend on the host's
/// core count.
const SHARDS: usize = 4;

fn main() -> ExitCode {
    let n: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    let (text, rows) = cmt_bench::tables::fig2_matmul(n);
    println!("{text}");
    let best = rows
        .iter()
        .min_by(|a, b| a.cycles.cmp(&b.cycles))
        .expect("six orders");
    println!("fastest by cycle model: {} (paper: JKI)", best.name);

    // Observability artifacts: remarks from optimizing the IJK kernel,
    // per-pass timings, and an attributed simulation of the result.
    // With CMT_TRACE set, the same run also records a Chrome Trace
    // (pass and nest spans on the main track, the simulation with its
    // miss-rate counter series on its own track).
    let mut p = cmt_suite::kernels::matmul("IJK");
    let sim_n = n.min(128);
    let mut session = cmt_bench::trace_enabled().then(TraceSession::new);
    let (mut sink, sim) =
        cmt_bench::observe_figure(&mut p, sim_n, "fig2.matmul_opt", session.as_mut());

    // Same run on the set-sharded engine: per-shard slices become
    // `sim.shard` spans and `shard.*` counters. The shard count is
    // pinned (not CMT_SHARDS/CMT_JOBS) so the committed baseline
    // metrics stay host-independent.
    let mut sharded = [
        ShardedCache::with_shards(CacheConfig::rs6000(), SHARDS),
        ShardedCache::with_shards(CacheConfig::i860(), SHARDS),
    ];
    let track = session.as_mut().map(|s| s.track("sim.sharded"));
    if track.is_some() {
        sharded.iter_mut().for_each(ShardedCache::enable_flush_log);
    }
    let t0 = track.as_ref().map(TraceTrack::start);
    cmt_interp::simulate(&p, &[sim_n], 0, &mut sharded, None).expect("execution");
    assert_eq!(sharded[1].stats(), sim.sim.cache2, "engines must agree");
    sharded[0].export_metrics(&mut sink.metrics, "fig2.matmul_opt.cache1");
    sharded[1].export_metrics(&mut sink.metrics, "fig2.matmul_opt.cache2");
    if let (Some(session), Some(mut track), Some(t0)) = (session.as_mut(), track, t0) {
        cmt_bench::replay_shard_log(&mut track, t0, &mut sharded);
        session.absorb(track);
    }
    if let Err(e) = cmt_bench::emit_traced("fig2_matmul", &sink, session.as_ref()) {
        eprintln!("fig2_matmul: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
