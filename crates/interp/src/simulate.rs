//! The one interpreter → cache driver.
//!
//! Every cache evaluation in the workspace has the same shape: allocate
//! a [`Machine`], tell each cache where every array lives, execute the
//! program once and feed the same trace to every cache. [`simulate`] is
//! that loop; callers differ only in which caches they pass and what
//! they read back afterwards.

use crate::exec::{ExecError, ExecSummary};
use crate::machine::{Machine, ELEMENT_BYTES};
use crate::sink::{SampledSink, TraceSink};
use cmt_cache::{Cache, Hierarchy, ObservedCache, ShardedCache};
use cmt_ir::ids::ArrayId;
use cmt_ir::program::Program;
use cmt_obs::{TraceArg, TraceTrack};

/// A trace consumer [`simulate`] can drive: a [`TraceSink`] that is
/// told each array's byte range before the run starts.
pub trait SimCache: TraceSink {
    /// Array `name` occupies bytes `[start, start + len)`.
    fn region(&mut self, name: &str, start: u64, len: u64);
}

impl SimCache for Cache {
    fn region(&mut self, _name: &str, start: u64, len: u64) {
        self.reserve_region(start, len);
    }
}

impl SimCache for ShardedCache {
    fn region(&mut self, _name: &str, start: u64, len: u64) {
        self.reserve_region(start, len);
    }
}

impl SimCache for ObservedCache {
    fn region(&mut self, name: &str, start: u64, len: u64) {
        self.register_region(name, start, len);
    }
}

impl SimCache for Hierarchy {
    fn region(&mut self, _name: &str, start: u64, len: u64) {
        self.reserve_region(start, len);
    }
}

impl<C: SimCache> SimCache for SampledSink<C> {
    fn region(&mut self, name: &str, start: u64, len: u64) {
        self.inner.region(name, start, len);
    }
}

/// Executes `program` with `params` (declaration order) and feeds every
/// access to each of `caches`, in order, one batch at a time.
///
/// Addresses are shifted by `base`, so programs simulated one after the
/// other into the same caches can occupy disjoint address ranges (a
/// packed access keeps its write bit for any `base` up to `1 << 40`,
/// see [`crate::sink::pack_access`]). When `track` is given, each batch
/// becomes a `sim.batch` complete-span on it.
///
/// Returns the interpreter's own load/store counts.
///
/// # Errors
///
/// Allocation failures ([`ExecError::BadExtent`]) and execution
/// failures (out-of-bounds subscripts, unbound symbols). Accesses made
/// before an execution failure have still reached the caches.
pub fn simulate<C: SimCache>(
    program: &Program,
    params: &[i64],
    base: u64,
    caches: &mut [C],
    track: Option<&mut TraceTrack>,
) -> Result<ExecSummary, ExecError> {
    let mut machine = Machine::new(program, params)?;
    for (k, info) in program.arrays().iter().enumerate() {
        let storage = machine.storage(ArrayId(k as u32));
        let len = storage.data.len() as u64 * ELEMENT_BYTES;
        for cache in caches.iter_mut() {
            cache.region(info.name(), storage.base + base, len);
        }
    }
    let mut fan = FanOut {
        caches,
        base,
        shifted: Vec::new(),
        track,
    };
    machine.run(program, &mut fan)
}

/// Feeds one stream to every cache, shifted by `base`.
struct FanOut<'a, 't, C> {
    caches: &'a mut [C],
    base: u64,
    shifted: Vec<u64>,
    track: Option<&'t mut TraceTrack>,
}

impl<C: TraceSink> TraceSink for FanOut<'_, '_, C> {
    fn access(&mut self, addr: u64, is_write: bool) {
        for cache in self.caches.iter_mut() {
            cache.access(addr + self.base, is_write);
        }
    }

    fn access_batch(&mut self, batch: &[u64]) {
        let start = self.track.as_deref().map(TraceTrack::now_us);
        let batch = if self.base == 0 {
            batch
        } else {
            self.shifted.clear();
            self.shifted.extend(batch.iter().map(|&p| p + self.base));
            &self.shifted
        };
        for cache in self.caches.iter_mut() {
            cache.access_batch(batch);
        }
        if let (Some(track), Some(start)) = (self.track.as_deref_mut(), start) {
            track.complete_since(
                start,
                "sim.batch",
                &[("len", TraceArg::U64(batch.len() as u64))],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CountingSink, RecordingSink};
    use cmt_cache::CacheConfig;
    use cmt_ir::build::ProgramBuilder;
    use cmt_ir::expr::Expr;

    impl SimCache for RecordingSink {
        fn region(&mut self, _name: &str, _start: u64, _len: u64) {}
    }

    impl SimCache for CountingSink {
        fn region(&mut self, _name: &str, _start: u64, _len: u64) {}
    }

    /// `B(I) = A(I)` over `N` elements.
    fn copy() -> Program {
        let mut b = ProgramBuilder::new("copy");
        let n = b.param("N");
        let a = b.array("A", vec![n.into()]);
        let bb = b.array("B", vec![n.into()]);
        b.loop_("I", 1, n, |b| {
            let i = b.var("I");
            let lhs = b.at(bb, [i]);
            b.assign(lhs, Expr::load(b.at(a, [i])));
        });
        b.finish()
    }

    #[test]
    fn every_cache_sees_the_same_trace() {
        let p = copy();
        let mut caches = [
            Cache::new(CacheConfig::rs6000()),
            Cache::new(CacheConfig::i860()),
        ];
        let summary = simulate(&p, &[5000], 0, &mut caches, None).unwrap();
        assert_eq!((summary.loads, summary.stores), (5000, 5000));
        for c in &caches {
            assert_eq!(c.stats().accesses, 10_000);
        }
        // 128-byte lines hold 16 elements, 32-byte lines 4.
        assert!(caches[0].stats().misses < caches[1].stats().misses);
    }

    #[test]
    fn observed_caches_get_every_array_region() {
        let p = copy();
        let mut caches = [ObservedCache::new(Cache::new(CacheConfig::i860()), 0)];
        simulate(&p, &[64], 0, &mut caches, None).unwrap();
        let names: Vec<_> = caches[0]
            .per_array()
            .map(|(n, s)| (n, s.accesses))
            .collect();
        assert_eq!(names, vec![("A", 64), ("B", 64)]);
        assert_eq!(caches[0].unattributed().accesses, 0);
    }

    #[test]
    fn base_shifts_addresses_and_regions() {
        let p = copy();
        let mut plain = [RecordingSink::default()];
        simulate(&p, &[10], 0, &mut plain, None).unwrap();
        let mut shifted = [RecordingSink::default()];
        simulate(&p, &[10], 1 << 40, &mut shifted, None).unwrap();
        let expect: Vec<_> = plain[0]
            .trace
            .iter()
            .map(|&(a, w)| (a + (1 << 40), w))
            .collect();
        assert_eq!(shifted[0].trace, expect, "write bits survive the shift");

        let mut observed = [ObservedCache::new(Cache::new(CacheConfig::i860()), 0)];
        simulate(&p, &[10], 1 << 40, &mut observed, None).unwrap();
        assert_eq!(observed[0].unattributed().accesses, 0);
    }

    #[test]
    fn track_gets_one_span_per_batch() {
        use cmt_obs::TraceSession;
        let p = copy();
        let mut session = TraceSession::new();
        let mut track = session.track("sim");
        let mut counts = [CountingSink::default()];
        // 2 × 5000 accesses = three batches of at most BATCH_LEN.
        let summary = simulate(&p, &[5000], 0, &mut counts, Some(&mut track)).unwrap();
        assert_eq!(counts[0].loads, summary.loads);
        assert_eq!(counts[0].stores, summary.stores);
        assert_eq!(track.len(), 3, "one complete-span per batch");
        session.absorb(track);
        session.validate().unwrap();
    }

    #[test]
    fn sampled_sink_forwards_regions() {
        let p = copy();
        let inner = ObservedCache::new(Cache::new(CacheConfig::i860()), 0);
        let mut caches = [SampledSink::full(inner)];
        simulate(&p, &[64], 0, &mut caches, None).unwrap();
        assert_eq!(caches[0].inner.per_array().count(), 2);
    }

    #[test]
    fn failures_are_errors() {
        let p = copy();
        let mut caches = [Cache::new(CacheConfig::i860())];
        let err = simulate(&p, &[0], 0, &mut caches, None).unwrap_err();
        assert!(matches!(err, ExecError::BadExtent { .. }), "{err:?}");
    }
}
