//! The set-associative LRU simulator.
//!
//! The engine is *flat*: one `Box<[u64]>` of tags and one of LRU
//! timestamps, indexed `set * assoc + way`, with the line/set math
//! reduced to a shift and a mask (geometries are powers of two). Hits
//! update a timestamp instead of shifting a `Vec`, direct-mapped caches
//! take a one-compare fast path, and cold-miss classification goes
//! through a [`ColdMap`] bitmap instead of a global hash set. The
//! historical `Vec<Vec<u64>>` implementation survives as
//! [`crate::legacy::LegacyCache`], the equivalence oracle the tests and
//! CI hold this engine to.

use crate::config::CacheConfig;
use crate::fast::{unpack_access, ColdMap, WRITE_BIT};
use crate::stats::CacheStats;

/// Tag value marking an empty way. Unreachable as a real tag: lines are
/// `addr >> line_shift` with `line_shift ≥ 3`, so they top out at 2^61.
const EMPTY: u64 = u64::MAX;

/// A set-associative, write-allocate cache with true-LRU replacement.
///
/// Addresses are byte addresses; every access touches one line (the IR
/// interpreter issues element-sized accesses that never straddle lines,
/// since elements are 8-byte aligned and lines are ≥ 8 bytes).
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line size)`.
    line_shift: u32,
    /// `sets - 1`.
    set_mask: u64,
    assoc: usize,
    /// `sets × assoc` tags, way-major within each set; [`EMPTY`] = free.
    tags: Box<[u64]>,
    /// Last-touch tick per way, parallel to `tags`.
    stamps: Box<[u64]>,
    /// Monotonic access clock for LRU ordering.
    tick: u64,
    /// Lines ever touched, for cold-miss classification.
    cold: ColdMap,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let ways = (config.sets() * u64::from(config.assoc())) as usize;
        Cache {
            config,
            line_shift: config.line().trailing_zeros(),
            set_mask: config.sets() - 1,
            assoc: config.assoc() as usize,
            tags: vec![EMPTY; ways].into_boxed_slice(),
            stamps: vec![0; ways].into_boxed_slice(),
            tick: 0,
            cold: ColdMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Registers a contiguous byte range (an array arena) so cold-miss
    /// classification for it uses a dense bitmap instead of the sparse
    /// fallback. Purely an accelerator: statistics are identical with or
    /// without registration.
    pub fn reserve_region(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = start >> self.line_shift;
        let last = (start + len - 1) >> self.line_shift;
        self.cold.reserve_lines(first, last + 1);
    }

    /// Simulates one access; returns `true` on a hit. Writes and reads
    /// behave identically under write-allocate with respect to hit/miss
    /// accounting.
    #[inline]
    pub fn access(&mut self, addr: u64, _is_write: bool) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        self.stats.accesses += 1;
        self.tick += 1;

        if self.assoc == 1 {
            // Direct-mapped fast path: one compare, no LRU state needed.
            if self.tags[set] == line {
                self.stats.hits += 1;
                return true;
            }
            self.miss(line);
            self.tags[set] = line;
            return false;
        }

        let base = set * self.assoc;
        let ways = base..base + self.assoc;
        if let Some(w) = self.tags[ways.clone()].iter().position(|&t| t == line) {
            self.stamps[base + w] = self.tick;
            self.stats.hits += 1;
            return true;
        }
        self.miss(line);
        // Victim: first empty way, else the least recently touched.
        let mut victim = base;
        let mut oldest = u64::MAX;
        for w in ways {
            if self.tags[w] == EMPTY {
                victim = w;
                break;
            }
            if self.stamps[w] < oldest {
                oldest = self.stamps[w];
                victim = w;
            }
        }
        self.tags[victim] = line;
        self.stamps[victim] = self.tick;
        false
    }

    /// Miss bookkeeping shared by both associativity paths.
    #[inline]
    fn miss(&mut self, line: u64) {
        self.stats.misses += 1;
        if self.cold.insert(line) {
            self.stats.cold_misses += 1;
        }
    }

    /// Simulates a batch of packed accesses (see
    /// [`crate::fast::pack_access`]) in order. Statistically identical to
    /// calling [`Cache::access`] per element — the equivalence tests and
    /// the CI smoke-perf gate hold the two paths bit-identical — but the
    /// geometry is dispatched once per buffer into a loop monomorphized
    /// over the associativity, with the counters held in registers and a
    /// same-line shortcut for spatial streams.
    pub fn access_batch(&mut self, batch: &[u64]) {
        match self.assoc {
            1 => self.batch_dm(batch),
            2 => self.batch_run::<2>(batch),
            4 => self.batch_run::<4>(batch),
            8 => self.batch_run::<8>(batch),
            16 => self.batch_run::<16>(batch),
            _ => {
                for &p in batch {
                    let (addr, w) = unpack_access(p);
                    self.access(addr, w);
                }
            }
        }
    }

    /// Direct-mapped batch loop: like the scalar fast path, it never
    /// touches the stamp array (a 1-way set has no LRU order), so each
    /// access is one compare plus a conditional tag store.
    ///
    /// Unlike [`Cache::batch_run`] there is deliberately *no* same-line
    /// shortcut here: a repeated line is already a one-compare tag hit
    /// (`tags[set] == line`), so a shortcut would be a second, redundant
    /// compare per access. It used to have one, which made this path
    /// *slower* than the scalar loop on strided streams over
    /// direct-mapped geometries (no adjacent repeats — every access
    /// paid both compares); see `docs/PERFORMANCE.md`.
    fn batch_dm(&mut self, batch: &[u64]) {
        debug_assert_eq!(self.assoc, 1);
        let shift = self.line_shift;
        let mask = self.set_mask;
        let mut stats = self.stats;
        for &p in batch {
            let line = (p & !WRITE_BIT) >> shift;
            stats.accesses += 1;
            let set = (line & mask) as usize;
            if self.tags[set] == line {
                stats.hits += 1;
                continue;
            }
            stats.misses += 1;
            if self.cold.insert(line) {
                stats.cold_misses += 1;
            }
            self.tags[set] = line;
        }
        self.tick += batch.len() as u64;
        self.stats = stats;
    }

    /// The tight loop behind [`Cache::access_batch`], monomorphized over
    /// the way count so tag compares and victim scans fully unroll.
    fn batch_run<const A: usize>(&mut self, batch: &[u64]) {
        debug_assert_eq!(self.assoc, A);
        let shift = self.line_shift;
        let mask = self.set_mask;
        let mut tick = self.tick;
        let mut stats = self.stats;
        // Same-line shortcut: the line the previous access touched is
        // resident and most-recently-used, so a repeat only refreshes
        // its stamp. Element-granularity traces re-touch a line `line /
        // element` times in a row on unit-stride sweeps.
        let mut last_line = EMPTY;
        let mut last_slot = 0usize;
        for &p in batch {
            let line = (p & !WRITE_BIT) >> shift;
            stats.accesses += 1;
            tick += 1;
            if line == last_line {
                stats.hits += 1;
                self.stamps[last_slot] = tick;
                continue;
            }
            let base = (line & mask) as usize * A;
            let tags: &mut [u64; A] = (&mut self.tags[base..base + A])
                .try_into()
                .expect("way slice");
            let mut way = usize::MAX;
            for w in 0..A {
                if tags[w] == line {
                    way = w;
                    break;
                }
            }
            if way != usize::MAX {
                stats.hits += 1;
                self.stamps[base + way] = tick;
                (last_line, last_slot) = (line, base + way);
                continue;
            }
            stats.misses += 1;
            if self.cold.insert(line) {
                stats.cold_misses += 1;
            }
            // Victim: first empty way, else least recently touched —
            // same policy as the scalar path.
            let mut victim = 0;
            {
                let stamps: &[u64; A] = (&self.stamps[base..base + A])
                    .try_into()
                    .expect("way slice");
                let mut oldest = u64::MAX;
                for w in 0..A {
                    if tags[w] == EMPTY {
                        victim = w;
                        break;
                    }
                    if stamps[w] < oldest {
                        oldest = stamps[w];
                        victim = w;
                    }
                }
            }
            tags[victim] = line;
            self.stamps[base + victim] = tick;
            (last_line, last_slot) = (line, base + victim);
        }
        self.tick = tick;
        self.stats = stats;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics but keeps cache contents **and cold-line
    /// history** (useful for excluding warm-up phases): a line first
    /// touched before the reset never counts as a cold miss afterwards.
    /// Contrast with [`Cache::clear`], which forgets the history, so the
    /// next touch of every line is cold again.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Empties the cache and clears statistics and history. After
    /// `clear`, the cache is indistinguishable from a freshly built one
    /// (except that registered regions stay registered): every line's
    /// next touch is a cold miss, unlike [`Cache::reset_stats`].
    pub fn clear(&mut self) {
        self.tags.fill(EMPTY);
        self.stamps.fill(0);
        self.tick = 0;
        self.cold.clear();
        self.stats = CacheStats::default();
        debug_assert!(
            self.is_cold_start(),
            "Cache::clear left residual state: a later run would misclassify cold misses"
        );
    }

    /// `true` when the cache holds no lines, no statistics, and no
    /// cold-line history — the state a fresh differential or verifier
    /// run must start from. Callers that recycle a cache across runs
    /// should assert this after [`Cache::clear`]; a cache that has only
    /// seen [`Cache::reset_stats`] still carries touch history and
    /// reports `false`.
    pub fn is_cold_start(&self) -> bool {
        self.tick == 0
            && self.stats == CacheStats::default()
            && self.cold.is_empty()
            && self.tags.iter().all(|&t| t == EMPTY)
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::pack_access;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 16-byte lines = 64 bytes.
        Cache::new(CacheConfig::new(64, 2, 16))
    }

    #[test]
    fn spatial_hit_within_line() {
        let mut c = tiny();
        assert!(!c.access(0, false));
        assert!(c.access(8, false));
        assert!(c.access(15, false));
        assert!(!c.access(16, false));
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().cold_misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines with (line % 2 == 0): lines 0, 2, 4 (addresses
        // 0, 32, 64).
        c.access(0, false); // line 0 → set 0
        c.access(32, false); // line 2 → set 0
        c.access(0, false); // touch line 0 (now MRU)
        c.access(64, false); // line 4 → evicts line 2 (LRU)
        assert!(c.access(0, false), "line 0 must survive");
        assert!(!c.access(32, false), "line 2 was evicted");
        // That second miss on line 2 is warm, not cold.
        assert_eq!(c.stats().cold_misses, 3);
        assert_eq!(c.stats().misses, 4);
    }

    #[test]
    fn conflict_misses_with_capacity_spare() {
        // Direct-mapped 2-set cache: lines 0 and 2 conflict in set 0.
        let mut c = Cache::new(CacheConfig::new(32, 1, 16));
        c.access(0, false);
        c.access(32, false);
        assert!(!c.access(0, false), "conflict evicted line 0");
        assert_eq!(c.stats().warm_misses(), 1);
    }

    #[test]
    fn hits_and_misses_partition_accesses() {
        let mut c = tiny();
        for a in 0..100u64 {
            c.access(a * 8, a % 3 == 0);
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
        assert!(s.cold_misses <= s.misses);
    }

    #[test]
    fn reset_keeps_contents() {
        let mut c = tiny();
        c.access(0, false);
        c.reset_stats();
        assert!(c.access(0, false), "line still resident after reset");
        assert_eq!(c.stats().accesses, 1);
        c.clear();
        assert!(!c.access(0, false));
        assert_eq!(c.stats().cold_misses, 1, "history cleared too");
    }

    #[test]
    fn cold_start_contract_covers_dense_and_sparse_history() {
        let mut c = tiny();
        assert!(c.is_cold_start());
        // Dense history: addresses inside a registered region.
        c.reserve_region(0, 4096);
        c.access(0, false);
        // Sparse history: an address far outside every region lands in
        // the ColdMap overflow table — the bitmap a stale warm-start
        // would silently reuse.
        c.access(1 << 40, true);
        assert!(!c.is_cold_start());
        c.reset_stats();
        assert!(
            !c.is_cold_start(),
            "reset_stats keeps contents and history, so this is NOT a cold start"
        );
        c.clear();
        assert!(
            c.is_cold_start(),
            "clear must forget dense AND sparse history"
        );
        assert!(!c.access(1 << 40, false), "cold again after clear");
        assert_eq!(c.stats().cold_misses, 1);
    }

    #[test]
    fn working_set_fits_full_hits_on_second_pass() {
        let mut c = Cache::new(CacheConfig::rs6000());
        // 32 KB working set < 64 KB cache.
        for pass in 0..2 {
            for a in (0..32 * 1024u64).step_by(8) {
                c.access(a, false);
            }
            if pass == 0 {
                c.reset_stats();
            }
        }
        let s = c.stats();
        assert_eq!(s.misses, 0, "{s}");
    }

    #[test]
    fn batch_equals_scalar() {
        let mut scalar = Cache::new(CacheConfig::i860());
        let mut batched = Cache::new(CacheConfig::i860());
        let mut x = 0x243F6A8885A308D3u64;
        let mut buf = Vec::new();
        for k in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = (x % (1 << 20)) & !7;
            let w = k % 5 == 0;
            scalar.access(addr, w);
            buf.push(pack_access(addr, w));
        }
        for chunk in buf.chunks(4096) {
            batched.access_batch(chunk);
        }
        assert_eq!(scalar.stats(), batched.stats());
        assert_eq!(scalar.resident_lines(), batched.resident_lines());
    }

    #[test]
    fn reserved_regions_do_not_change_stats() {
        let mut plain = Cache::new(CacheConfig::i860());
        let mut reserved = Cache::new(CacheConfig::i860());
        reserved.reserve_region(0, 1 << 16);
        for k in 0..50_000u64 {
            let addr = (k * 24) % (1 << 17); // half inside, half outside
            plain.access(addr, false);
            reserved.access(addr, false);
        }
        assert_eq!(plain.stats(), reserved.stats());
    }
}
