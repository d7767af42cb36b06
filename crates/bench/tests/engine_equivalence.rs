//! End-to-end equivalence of the batched flat engine against the
//! seed-shaped scalar path, over the full cmt-suite corpus.
//!
//! Three properties are pinned here, beyond the per-crate unit tests:
//!
//! * whole-trace `CacheStats` from [`LegacyCache`] (the seed's
//!   `Vec<Vec<_>>` + `HashSet` simulator, one scalar call per access)
//!   and from the flat engine fed 4 K packed batches are **exactly
//!   equal** for every suite model and paper cache geometry;
//! * the observability layer (per-array attribution, interval
//!   snapshots) reports identical results whether the trace arrives
//!   scalar or batched;
//! * rendered table output is byte-identical for any `CMT_JOBS`.

use cmt_bench::par_map;
use cmt_cache::{Cache, CacheConfig, LegacyCache, ObservedCache, ShardedCache};
use cmt_interp::{simulate, Machine, RecordingSink, SimCache, TraceSink};
use cmt_ir::program::Program;
use std::sync::Mutex;

/// Serializes tests that read or write `CMT_JOBS`.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// An observed cache fed one scalar `access` call per element: the
/// default [`TraceSink::access_batch`] unpacks every batch.
struct Scalar(ObservedCache);

impl TraceSink for Scalar {
    fn access(&mut self, addr: u64, is_write: bool) {
        self.0.access(addr, is_write);
    }
}

impl SimCache for Scalar {
    fn region(&mut self, name: &str, start: u64, len: u64) {
        self.0.region(name, start, len);
    }
}

/// Runs `program` once, recording the full trace.
fn record(program: &Program, n: i64) -> RecordingSink {
    let mut m = Machine::new(program, &[n]).expect("allocation");
    let mut rec = RecordingSink::default();
    m.run(program, &mut rec).expect("execution");
    rec
}

const GEOMETRIES: [fn() -> CacheConfig; 3] = [
    CacheConfig::rs6000,
    CacheConfig::i860,
    CacheConfig::decstation,
];

#[test]
fn corpus_stats_identical_legacy_vs_batched() {
    let _env = ENV_LOCK.lock().unwrap();
    let models = cmt_suite::suite();
    let failures: Vec<String> = par_map(&models, |m| {
        let rec = record(&m.optimized, 24);
        let mut out = Vec::new();
        for cfg in GEOMETRIES.map(|c| c()) {
            let mut legacy = LegacyCache::new(cfg);
            for &(a, w) in &rec.trace {
                legacy.access(a, w);
            }
            let mut batched = Cache::new(cfg);
            rec.replay_batched(&mut batched);
            if legacy.stats() != batched.stats() {
                out.push(format!(
                    "{}/{cfg}: legacy={:?} batched={:?}",
                    m.spec.name,
                    legacy.stats(),
                    batched.stats()
                ));
            }
        }
        out
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "stats diverged:\n{failures:#?}");
}

#[test]
fn verify_corpus_stats_identical_sharded_vs_legacy_and_unsharded() {
    let _env = ENV_LOCK.lock().unwrap();
    // The full committed verify corpus in release (the scale CI runs
    // at); a prefix in debug so plain `cargo test -q` stays quick.
    let take = if cfg!(debug_assertions) {
        24
    } else {
        usize::MAX
    };
    let seeds: Vec<u64> = cmt_verify::corpus_seeds().into_iter().take(take).collect();
    let failures: Vec<String> = par_map(&seeds, |&seed| {
        let program = cmt_verify::generate(seed);
        let rec = record(&program, 16);
        let mut out = Vec::new();
        for (g, cfg) in GEOMETRIES.iter().enumerate() {
            let cfg = cfg();
            let mut legacy = LegacyCache::new(cfg);
            for &(a, w) in &rec.trace {
                legacy.access(a, w);
            }
            let mut flat = Cache::new(cfg);
            rec.replay_batched(&mut flat);
            // Rotate the shard count per (seed, geometry) so 1, 2 and
            // 8 shards all get corpus-wide coverage.
            let shards = [1usize, 2, 8][(seed as usize).wrapping_add(g) % 3];
            let mut sharded = ShardedCache::with_shards(cfg, shards);
            rec.replay_batched(&mut sharded);
            let (l, f, s) = (legacy.stats(), flat.stats(), sharded.stats());
            if l != f || f != s {
                out.push(format!(
                    "seed {seed}/{cfg}: legacy={l:?} flat={f:?} sharded({shards})={s:?}"
                ));
            }
        }
        out
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "stats diverged:\n{failures:#?}");
}

#[test]
fn observed_attribution_identical_scalar_vs_batched() {
    let interval = 5_000u64;
    let n = 24;
    for m in cmt_suite::suite()
        .iter()
        .filter(|m| m.spec.mix.total_nests() > 0)
        .take(4)
    {
        let p = &m.optimized;
        // Batched path: the real pipeline (interpreter buffers 4 K
        // packed accesses per sink call).
        let obs = cmt_bench::simulate_program_observed(p, n, interval, None);

        // Scalar reference: same trace, one access() call per element,
        // into identically configured ObservedCaches.
        let mut reference = [
            Scalar(ObservedCache::new(
                Cache::new(CacheConfig::rs6000()),
                interval,
            )),
            Scalar(ObservedCache::new(
                Cache::new(CacheConfig::i860()),
                interval,
            )),
        ];
        simulate(p, &[n], 0, &mut reference, None).expect("execution");
        let [Scalar(cache1), Scalar(cache2)] = reference;
        for (which, mut reference, batched) in [
            ("cache1", cache1, &obs.cache1),
            ("cache2", cache2, &obs.cache2),
        ] {
            reference.flush_window();

            let name = &m.spec.name;
            assert_eq!(
                reference.stats(),
                batched.stats(),
                "{name}/{which}: whole-trace stats"
            );
            let ref_arrays: Vec<_> = reference
                .per_array()
                .map(|(n, s)| (n.to_string(), *s))
                .collect();
            let bat_arrays: Vec<_> = batched
                .per_array()
                .map(|(n, s)| (n.to_string(), *s))
                .collect();
            assert_eq!(
                ref_arrays, bat_arrays,
                "{name}/{which}: per-array attribution"
            );
            assert_eq!(
                reference.unattributed(),
                batched.unattributed(),
                "{name}/{which}: unattributed stats"
            );
            assert_eq!(
                reference.snapshots(),
                batched.snapshots(),
                "{name}/{which}: interval snapshots"
            );
        }
    }
}

#[test]
fn reset_stats_keeps_cold_history_clear_forgets() {
    // i860 geometry: 32 B lines, 128 sets, 2-way. Addresses 0, 4096 and
    // 8192 all map to set 0, so two of them evict the first.
    let evicters = [4096u64, 8192];

    let mut c = Cache::new(CacheConfig::i860());
    c.access(0, false); // cold miss
    c.reset_stats();
    c.access(0, false); // contents survive reset_stats: a hit
    assert_eq!(c.stats().hits, 1, "reset_stats must keep cache contents");
    for a in evicters {
        c.access(a, false); // each a cold miss of its own line
    }
    let cold_before = c.stats().cold_misses;
    assert!(!c.access(0, false), "line 0 must have been evicted");
    assert_eq!(
        c.stats().cold_misses,
        cold_before,
        "reset_stats must keep cold-line history: the re-touch of line 0 \
         is a capacity miss, not a cold one"
    );

    let mut d = Cache::new(CacheConfig::i860());
    d.access(0, false);
    d.clear();
    d.access(0, false); // clear forgets everything: cold again
    assert_eq!(d.stats().accesses, 1, "clear must zero the stats");
    assert_eq!(
        d.stats().cold_misses,
        1,
        "clear must forget cold-line history"
    );
}

#[test]
fn table_output_byte_identical_for_any_jobs_and_shard_count() {
    let _env = ENV_LOCK.lock().unwrap();
    // Worker count and shard count are pure throughput knobs: rendered
    // table artifacts must be byte-identical across the whole matrix.
    let mut outputs = Vec::new();
    for jobs in ["1", "4"] {
        for shards in ["1", "2", "8"] {
            std::env::set_var("CMT_JOBS", jobs);
            std::env::set_var("CMT_SHARDS", shards);
            let (text, _) = cmt_bench::tables::table4(Some(24));
            outputs.push((jobs, shards, text));
        }
    }
    std::env::remove_var("CMT_JOBS");
    std::env::remove_var("CMT_SHARDS");
    let (j0, s0, base) = &outputs[0];
    for (j, s, text) in &outputs[1..] {
        assert_eq!(
            text, base,
            "table4 differs between CMT_JOBS={j0}/CMT_SHARDS={s0} and CMT_JOBS={j}/CMT_SHARDS={s}"
        );
    }
}
