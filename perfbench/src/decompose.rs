//! The decomposition pass: every layer timed on its own over one
//! workload's programs.
//!
//! On the end-to-end path several layers only run inside another one
//! (dependence inside `compound`, the interpreter inside a simulation),
//! so the traced workload pass cannot put a span around them from the
//! benchmark's side. This pass calls each layer's public entry point
//! directly, after the traced pass, so it does not distort the
//! tracing-overhead figure.

use crate::common::{median, percentile, Check, Metrics, Spans};
use cmt_analytic::{predict_program, MissModel};
use cmt_cache::{Cache, CacheConfig, CacheStats, ShardedCache};
use cmt_dependence::analyze_nest;
use cmt_interp::{pack_access, CountingSink, Machine, TraceSink, BATCH_LEN};
use cmt_ir::canon::nest_key;
use cmt_ir::ids::ArrayId;
use cmt_ir::parse::parse_program;
use cmt_ir::pretty::program_to_source;
use cmt_ir::program::Program;
use cmt_locality::compound::compound;
use cmt_locality::model::CostModel;
use cmt_obs::{NullObs, TraceSession};
use cmt_resilience::{supervise, FaultPlan, PipelineSpec, SupervisePolicy, SupervisedRun};
use cmt_verify::VerifyMode;
use std::hint::black_box;
use std::time::Instant;

/// Problem size of every analytic prediction (the optimizer corpus's
/// `memoria`-style path and the decomposition use the same one).
pub const ANALYTIC_N: i64 = 64;

/// One program of a workload, as its users hand it over.
#[derive(Clone, Debug)]
pub struct Item {
    /// Human-readable name (suite model, kernel or generator seed).
    pub label: String,
    /// The program.
    pub program: Program,
    /// Its parser-surface source text.
    pub source: String,
    /// Problem size the workload simulates it at.
    pub n: i64,
}

impl Item {
    /// Wraps `program`, rendering its source.
    pub fn new(label: String, program: Program, n: i64) -> Item {
        let source = program_to_source(&program);
        Item {
            label,
            program,
            source,
            n,
        }
    }
}

/// Parameter binding: every symbolic parameter set to `n`.
pub fn params(p: &Program, n: i64) -> Vec<i64> {
    vec![n; p.params().len()]
}

/// The paper's cost model (cache line of 4 elements), as the tables
/// and `memoria` use it.
pub fn paper_model() -> CostModel {
    CostModel::new(4)
}

/// The supervised pipeline exactly as the compile service runs it for
/// a request without deadline or fault seed.
pub fn serve_pipeline(program: &Program) -> (Program, SupervisedRun) {
    let mut optimized = program.clone();
    let model = CostModel::new(CacheConfig::rs6000().cls_elements());
    let run = supervise(
        &mut optimized,
        &model,
        &PipelineSpec::default(),
        &VerifyMode::Off,
        &SupervisePolicy::default(),
        &mut FaultPlan::none(),
        &mut NullObs,
    );
    (optimized, run)
}

/// Accesses of `program` at size `n`, counted by the interpreter.
pub fn count_accesses(program: &Program, n: i64) -> Result<u64, String> {
    let mut m = Machine::new(program, &params(program, n)).map_err(|e| e.to_string())?;
    let mut sink = CountingSink::default();
    m.run(program, &mut sink).map_err(|e| e.to_string())?;
    Ok(sink.loads + sink.stores)
}

/// RS/6000 misses of `program` at size `n` on the flat (unsharded)
/// engine: a second engine to check `ShardedCache` against.
pub fn flat_misses_rs6000(program: &Program, n: i64) -> Result<u64, String> {
    let mut m = Machine::new(program, &params(program, n)).map_err(|e| e.to_string())?;
    let mut cache = Cache::new(CacheConfig::rs6000());
    m.run(program, &mut cache).map_err(|e| e.to_string())?;
    Ok(cache.stats().misses)
}

/// The two paper caches as the runner builds them, with every array of
/// `m` reserved for dense cold tracking.
fn paper_caches(program: &Program, m: &Machine) -> [ShardedCache; 2] {
    let mut caches = [
        ShardedCache::new(CacheConfig::rs6000()),
        ShardedCache::new(CacheConfig::i860()),
    ];
    for k in 0..program.arrays().len() {
        let id = ArrayId(k as u32);
        let start = m.storage(id).address_of(0);
        let bytes = m.array_data(id).len() as u64 * 8;
        for c in &mut caches {
            c.reserve_region(start, bytes);
        }
    }
    caches
}

/// Buffers the interpreter's trace and replays it into both paper
/// caches a chunk at a time, timing only the cache calls. Chunking
/// keeps memory bounded for paper-size programs.
struct ReplaySink<'a> {
    caches: &'a mut [ShardedCache; 2],
    buf: Vec<u64>,
    ns: f64,
}

const REPLAY_CHUNK: usize = 1 << 20;

impl ReplaySink<'_> {
    fn replay(&mut self) {
        let t0 = Instant::now();
        for chunk in self.buf.chunks(BATCH_LEN) {
            self.caches[0].access_batch(chunk);
            self.caches[1].access_batch(chunk);
        }
        self.ns += t0.elapsed().as_nanos() as f64;
        self.buf.clear();
    }

    fn finish(mut self) -> (f64, [CacheStats; 2]) {
        self.replay();
        let t0 = Instant::now();
        let stats = [self.caches[0].stats(), self.caches[1].stats()];
        (self.ns + t0.elapsed().as_nanos() as f64, stats)
    }
}

impl TraceSink for ReplaySink<'_> {
    fn access(&mut self, addr: u64, is_write: bool) {
        self.buf.push(pack_access(addr, is_write));
        if self.buf.len() >= REPLAY_CHUNK {
            self.replay();
        }
    }

    fn access_batch(&mut self, batch: &[u64]) {
        self.buf.extend_from_slice(batch);
        if self.buf.len() >= REPLAY_CHUNK {
            self.replay();
        }
    }
}

/// Deterministic counts gathered by the decomposition pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Dependence edges over every nest.
    pub edges: u64,
    /// Nests `compound` permuted.
    pub permuted: u64,
    /// Nests `compound` fused away.
    pub fused: u64,
    /// Distributions `compound` performed.
    pub distributed: u64,
    /// Transformation steps the supervised pipeline committed.
    pub steps_committed: u64,
    /// Stages the supervised pipeline rolled back.
    pub rollbacks: u64,
    /// Interpreter accesses (original and transformed programs).
    pub accesses: u64,
    /// RS/6000 misses over the same runs.
    pub misses_rs6000: u64,
    /// i860 misses over the same runs.
    pub misses_i860: u64,
    /// Misses the analytic model predicts (rs6000, n = 64).
    pub predicted_misses: u64,
}

/// Result of [`decompose`].
#[derive(Debug, Default)]
pub struct Decomposition {
    /// Per-layer durations.
    pub spans: Spans,
    /// Deterministic counts.
    pub counts: Counts,
    /// Consistency problems found along the way.
    pub check: Check,
}

/// Times every layer over `items`, recording spans on a `decompose`
/// track of `session`.
pub fn decompose(items: &[Item], session: &mut TraceSession) -> Decomposition {
    let mut d = Decomposition {
        spans: Spans::on(session.track("decompose")),
        ..Decomposition::default()
    };
    let model = paper_model();
    let analytic = MissModel::new(CacheConfig::rs6000());
    for item in items {
        let spans = &mut d.spans;
        let c = &mut d.counts;
        let bytes = item.source.len() as f64;
        let parsed = match spans.span("ir.parse", bytes, || parse_program(&item.source)) {
            Ok(p) => p,
            Err(e) => {
                d.check
                    .inconsistent(format!("{}: source does not parse: {e}", item.label));
                continue;
            }
        };
        black_box(spans.span("ir.canon", 1.0, || nest_key(&parsed)));
        black_box(spans.span("ir.pretty", 1.0, || program_to_source(&parsed)));
        for nest in parsed.nests() {
            let g = spans.span("dependence.nest", 1.0, || analyze_nest(&parsed, nest));
            c.edges += g.deps().len() as u64;
            black_box(spans.span("core.loopcost", 1.0, || {
                model.analyze(&parsed, nest).memory_order()
            }));
        }
        let mut transformed = parsed.clone();
        let report = spans.span("core.compound", 1.0, || compound(&mut transformed, &model));
        c.permuted += report.nests_permuted as u64;
        c.fused += report.nests_fused as u64;
        c.distributed += report.distributions as u64;
        let (_, run) = spans.span("resilience.supervise", 1.0, || serve_pipeline(&parsed));
        c.steps_committed += run.steps_committed as u64;
        c.rollbacks += run.failures.len() as u64;
        let nests = transformed.body().len() as f64;
        let preds = spans.span("analytic.predict", nests, || {
            predict_program(&transformed, ANALYTIC_N, &analytic, &mut NullObs)
        });
        c.predicted_misses += preds.iter().map(|p| p.stats.misses).sum::<u64>();
        for program in [&parsed, &transformed] {
            if let Err(e) = simulate_layers(program, item.n, spans, c) {
                d.check.inconsistent(format!("{}: {e}", item.label));
            }
        }
    }
    if let Some(track) = d.spans.track.take() {
        session.absorb(track);
    }
    d
}

/// Interpreter alone, recorded-trace replay and interpreter-driven
/// simulation of one program; the two simulations must agree.
fn simulate_layers(
    program: &Program,
    n: i64,
    spans: &mut Spans,
    c: &mut Counts,
) -> Result<(), String> {
    let accesses = spans.span_counted("interp.run", || match count_accesses(program, n) {
        Ok(a) => (Ok(a), a as f64),
        Err(e) => (Err(e), 0.0),
    })?;
    c.accesses += accesses;

    let mut m = Machine::new(program, &params(program, n)).map_err(|e| e.to_string())?;
    let mut caches = paper_caches(program, &m);
    let mut sink = ReplaySink {
        caches: &mut caches,
        buf: Vec::with_capacity(REPLAY_CHUNK + BATCH_LEN),
        ns: 0.0,
    };
    m.run(program, &mut sink).map_err(|e| e.to_string())?;
    let (replay_ns, [s1, s2]) = sink.finish();
    spans.add("cache.replay", replay_ns, accesses as f64);
    c.misses_rs6000 += s1.misses;
    c.misses_i860 += s2.misses;

    let driven = spans.span("cache.driven", accesses as f64, || {
        cmt_bench::simulate_program(program, n)
    });
    if (driven.cache1.misses, driven.cache2.misses) != (s1.misses, s2.misses) {
        return Err(format!(
            "driven and replayed simulation disagree: ({}, {}) vs ({}, {})",
            driven.cache1.misses, driven.cache2.misses, s1.misses, s2.misses
        ));
    }
    Ok(())
}

impl Decomposition {
    /// The ir, dependence, core, resilience, interp, cache and analytic
    /// metrics.
    pub fn metrics(&self, m: &mut Metrics) {
        let s = &self.spans;
        let c = &self.counts;
        m.put(
            "ir.parse_us_per_kb",
            s.ns_per_unit("ir.parse") * 1024.0 / 1e3,
            "us/KB",
        );
        m.put("ir.canon_us", s.ns_per_unit("ir.canon") / 1e3, "us");
        m.put("ir.pretty_us", s.ns_per_unit("ir.pretty") / 1e3, "us");
        m.put(
            "dependence.us_per_nest",
            s.ns_per_unit("dependence.nest") / 1e3,
            "us",
        );
        m.put("dependence.edges", c.edges as f64, "count");
        m.put(
            "core.loopcost_us_per_nest",
            s.ns_per_unit("core.loopcost") / 1e3,
            "us",
        );
        m.put(
            "core.compound_ms",
            s.ns_per_unit("core.compound") / 1e6,
            "ms",
        );
        m.put("core.permuted", c.permuted as f64, "count");
        m.put("core.fused", c.fused as f64, "count");
        m.put("core.distributed", c.distributed as f64, "count");
        m.put(
            "resilience.supervise_ms",
            s.ns_per_unit("resilience.supervise") / 1e6,
            "ms",
        );
        m.put(
            "resilience.steps_committed",
            c.steps_committed as f64,
            "count",
        );
        m.put("resilience.rollbacks", c.rollbacks as f64, "count");
        m.put("interp.ns_per_access", s.ns_per_unit("interp.run"), "ns");
        m.put("interp.accesses", c.accesses as f64, "count");
        m.put(
            "cache.replay_ns_per_access",
            s.ns_per_unit("cache.replay"),
            "ns",
        );
        m.put(
            "cache.driven_ns_per_access",
            s.ns_per_unit("cache.driven"),
            "ns",
        );
        m.put(
            "cache.shards",
            ShardedCache::new(CacheConfig::rs6000()).shard_count() as f64,
            "count",
        );
        m.put("cache.misses_rs6000", c.misses_rs6000 as f64, "count");
        m.put("cache.misses_i860", c.misses_i860 as f64, "count");
        m.put(
            "analytic.us_per_nest",
            s.ns_per_unit("analytic.predict") / 1e3,
            "us",
        );
        m.put(
            "analytic.predicted_misses",
            c.predicted_misses as f64,
            "count",
        );
    }
}

/// Pool and runner metrics from one traced `par_map` over independent
/// simulations: per-item durations and the map's wall time.
pub fn pool_metrics(item_ms: &[f64], wall_s: f64, jobs: usize, m: &mut Metrics) {
    let busy_s = item_ms.iter().sum::<f64>() / 1e3;
    m.put("pool.jobs", jobs as f64, "count");
    m.put("pool.busy_s", busy_s, "s");
    m.put(
        "pool.efficiency",
        busy_s / (wall_s * jobs as f64).max(1e-9),
        "ratio",
    );
    m.put("bench.model_ms_p50", median(item_ms), "ms");
    m.put("bench.model_ms_max", percentile(item_ms, 100.0), "ms");
}

/// The runner's layer on programs that are not suite models: the
/// transformed version of every item simulated through both paper
/// caches on the `CMT_JOBS` pool, as the table generators do.
pub fn pool_pass(items: &[Item], session: &mut TraceSession, m: &mut Metrics) {
    let model = paper_model();
    let t0 = Instant::now();
    let item_ms = cmt_bench::par_map_traced(items, session, |item, track| {
        let mut p = item.program.clone();
        compound(&mut p, &model);
        let start = track.start();
        let t = Instant::now();
        black_box(cmt_bench::simulate_program(&p, item.n));
        track.complete_since(start, "bench.simulate_program", &[]);
        t.elapsed().as_secs_f64() * 1e3
    });
    let wall = t0.elapsed().as_secs_f64();
    pool_metrics(
        &item_ms,
        wall,
        cmt_bench::cmt_jobs().min(items.len().max(1)),
        m,
    );
}
