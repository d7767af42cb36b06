//! Trace-driven cache simulation.
//!
//! The paper evaluates its transformations by simulating two data caches:
//!
//! * **cache1** — the IBM RS/6000-540 cache: 64 KB, 4-way set associative,
//!   128-byte lines;
//! * **cache2** — the Intel i860 cache: 8 KB, 2-way set associative,
//!   32-byte lines.
//!
//! This crate provides a set-associative, true-LRU, write-allocate
//! simulator ([`Cache`]), per-region accounting (optimized procedures vs
//! whole program, as in Table 4), cold-miss exclusion (the paper's rates
//! exclude cold misses), and a simple cycle model for execution-time
//! estimates (Tables 1 and 3).
//!
//! # Example
//!
//! ```
//! use cmt_cache::{Cache, CacheConfig};
//!
//! let mut c = Cache::new(CacheConfig::rs6000());
//! c.access(0, false);     // cold miss
//! c.access(8, false);     // same 128-byte line: hit
//! let s = c.stats();
//! assert_eq!(s.hits, 1);
//! assert_eq!(s.cold_misses, 1);
//! assert_eq!(s.hit_rate_excluding_cold(), 1.0);
//! ```

pub mod config;
pub mod cycle;
pub mod fast;
pub mod hierarchy;
pub mod legacy;
pub mod observe;
pub mod reuse;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod tlb;

pub use config::CacheConfig;
pub use cycle::CycleModel;
pub use fast::{pack_access, unpack_access, ColdMap, WRITE_BIT};
pub use hierarchy::{Hierarchy, HierarchyLatency};
pub use legacy::LegacyCache;
pub use observe::{ArrayRegion, IntervalSnapshot, ObservedCache};
pub use reuse::ReuseDistance;
pub use shard::{default_shard_count, ShardSpan, ShardedCache};
pub use sim::Cache;
pub use stats::CacheStats;
pub use tlb::Tlb;
