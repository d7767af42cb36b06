//! The repository's benchmark: three workloads run through the layers'
//! public functions, with every output checked against a reference the
//! optimizer did not produce. See `README.md` in this directory.

pub mod common;
pub mod decompose;
pub mod optimize_corpus;
pub mod paper_tables;
pub mod serve;
pub mod serve_mix;

use cmt_obs::json::{self, ObjectWriter, Value};
use cmt_obs::TraceSession;
use common::{cpu_seconds, median, peak_rss_mb, secs, steal_seconds, Check, Metrics};
use decompose::{decompose, pool_pass, Item};
use std::path::PathBuf;
use std::time::Instant;

/// Every workload the benchmark runs.
pub const WORKLOADS: [&str; 3] = ["paper_tables", "optimize_corpus", "serve_mix"];

/// The workloads `BENCHMARK.json` lists, in its order. `paper_tables`
/// is left out: one pass is a single ~5 s call on both CPUs that cannot
/// be timed in pieces, so on a shared host it is too noisy to gate.
pub const BENCHMARK_WORKLOADS: [&str; 2] = ["optimize_corpus", "serve_mix"];

/// End-to-end metrics (untraced run), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), with units, in print order.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("ir.parse_us_per_kb", "us/KB"),
    ("ir.canon_us", "us"),
    ("ir.pretty_us", "us"),
    ("dependence.us_per_nest", "us"),
    ("dependence.edges", "count"),
    ("core.loopcost_us_per_nest", "us"),
    ("core.compound_ms", "ms"),
    ("core.permuted", "count"),
    ("core.fused", "count"),
    ("core.distributed", "count"),
    ("resilience.supervise_ms", "ms"),
    ("resilience.steps_committed", "count"),
    ("resilience.rollbacks", "count"),
    ("interp.ns_per_access", "ns"),
    ("interp.accesses", "count"),
    ("cache.replay_ns_per_access", "ns"),
    ("cache.driven_ns_per_access", "ns"),
    ("cache.shards", "count"),
    ("cache.misses_rs6000", "count"),
    ("cache.misses_i860", "count"),
    ("analytic.us_per_nest", "us"),
    ("analytic.predicted_misses", "count"),
    ("pool.jobs", "count"),
    ("pool.busy_s", "s"),
    ("pool.efficiency", "ratio"),
    ("bench.model_ms_p50", "ms"),
    ("bench.model_ms_max", "ms"),
    ("serve.memo_hits", "count"),
    ("serve.memo_misses", "count"),
    ("serve.memo_inserted", "count"),
    ("serve.memo_evictions", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.handoff_us", "us"),
    ("serve.requests_per_s", "1/s"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.cold_p95_ms", "ms"),
    ("serve.hot_p50_us", "us"),
    ("serve.hot_p95_us", "us"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Set-ups repeat until they have taken this long in total, so that a
/// set-up of a few milliseconds still gets a steady median.
pub const SETUP_MIN_S: f64 = 0.25;
/// Most programs the decomposition, pool and service passes of a
/// traced run time every layer on (evenly sampled from the workload's).
pub const DECOMPOSE_MAX: usize = 320;
/// Fewest untraced passes per process, whatever `--seconds` says.
pub const MIN_PASSES: usize = 1;
/// Processes an untraced run is split over. Each has its own address
/// space layout and heap, which move a pass's time by several percent;
/// pooling passes from several processes averages that out.
pub const PROCESSES: usize = 3;

/// How much work a run does. [`Scale::full`] is what the benchmark
/// measures; [`Scale::small`] keeps tests fast.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Generated programs in the optimizer corpus.
    pub corpus_generated: usize,
    /// Verify-corpus programs the compile service is sent.
    pub serve_corpus: usize,
    /// Seed-drawn generated programs in the service's first pass.
    pub serve_generated: usize,
    /// Suite problem size override (`None`: paper sizes).
    pub paper_n: Option<i64>,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            // Not more: each program's time is its fastest over the
            // run's passes, and a larger corpus leaves too few passes.
            corpus_generated: 512,
            serve_corpus: 256,
            serve_generated: 64,
            paper_n: None,
        }
    }

    /// Sizes for tests.
    pub fn small() -> Scale {
        Scale {
            corpus_generated: 24,
            serve_corpus: 12,
            serve_generated: 6,
            paper_n: Some(12),
        }
    }
}

/// Per-layer metrics a workload measures in its own traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    /// `pool.*` and `bench.*`.
    pub pool: Option<Metrics>,
    /// `serve.*`.
    pub serve: Option<Metrics>,
}

/// One workload: its passes, output check and programs.
pub trait Workload {
    /// What one pass produces.
    type Out;

    /// One untraced pass.
    fn pass(&mut self) -> Self::Out;

    /// One pass with spans around the benchmark's calls into each layer.
    fn traced_pass(&mut self, session: &mut TraceSession) -> Self::Out;

    /// Checks every pass's outputs.
    fn check(&self, untraced: &[Self::Out], traced: &[Self::Out]) -> Check;

    /// Wall time of the pass's measured region, in seconds.
    fn wall_s(out: &Self::Out) -> f64;

    /// Wall and CPU seconds of each piece of the pass's measured region,
    /// the same pieces in the same order every pass, for a pass that
    /// times its own pieces. `None`: the whole pass is one piece.
    fn pieces(_out: &Self::Out) -> Option<Vec<(f64, f64)>> {
        None
    }

    /// The programs the decomposition pass times every layer on.
    fn items(&self) -> Vec<Item>;

    /// Per-layer metrics from the workload's own traced passes.
    fn own_layers(&self, _traced: &[Self::Out], _layers: &mut Layers) {}

    /// Fingerprint of the outputs: equal for every run of the same
    /// inputs.
    fn digest(&self, untraced: &[Self::Out]) -> String;

    /// Informational lines printed after an untraced run.
    fn info(&self, _untraced: &[Self::Out]) -> Vec<String> {
        Vec::new()
    }
}

/// Command-line options.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Sizes.
    pub scale: Scale,
    /// Scratch directory for artifacts the libraries write.
    pub obs_dir: PathBuf,
}

/// Everything a run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Output check.
    pub check: Check,
    /// Metrics for the result line.
    pub metrics: Metrics,
    /// Informational lines.
    pub info: Vec<String>,
    /// Chrome-trace JSON of a traced run.
    pub trace_json: Option<String>,
}

/// Sets `$opts.workload` up and hands it to `$run(opts, &mut w, setups)`.
macro_rules! with_workload {
    ($opts:expr, $run:ident) => {{
        let opts: &Opts = $opts;
        let (seed, scale, dir) = (opts.seed, &opts.scale, &opts.obs_dir);
        match opts.workload.as_str() {
            "paper_tables" => {
                let (mut w, s) = set_up(|| paper_tables::PaperTables::setup(scale.paper_n))?;
                $run(opts, &mut w, s)
            }
            "optimize_corpus" => {
                let (mut w, s) =
                    set_up(|| Ok(optimize_corpus::OptimizeCorpus::setup(seed, scale)))?;
                $run(opts, &mut w, s)
            }
            "serve_mix" => {
                let (mut w, s) = set_up(|| Ok(serve_mix::ServeMix::setup(seed, scale, dir)))?;
                $run(opts, &mut w, s)
            }
            other => Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            )),
        }
    }};
}

/// The traced run of one workload, in this process.
pub fn run_traced(opts: &Opts) -> Result<Report, String> {
    with_workload!(opts, traced_run)
}

/// One process's share of an untraced run.
pub fn run_part(opts: &Opts) -> Result<Part, String> {
    with_workload!(opts, untraced_part)
}

/// Repeats `setup` until it has run [`SETUP_REPS`] times and taken
/// [`SETUP_MIN_S`], returning the last result and every duration.
fn set_up<W>(setup: impl Fn() -> Result<W, String>) -> Result<(W, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    let mut w = None;
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        let t0 = Instant::now();
        w = Some(setup()?);
        setup_s.push(secs(t0));
    }
    Ok((w.expect("at least one set-up"), setup_s))
}

/// What one process of an untraced run measured and checked.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Part {
    /// Passes measured.
    pub passes: u64,
    /// Fastest wall time of each piece of the pass over the passes, s.
    pub walls: Vec<f64>,
    /// Fastest CPU time of each piece of the pass over the passes, s.
    pub cpus: Vec<f64>,
    /// Duration of each set-up, s.
    pub setups: Vec<f64>,
    /// Peak resident set size after the passes, before the check, MB.
    pub peak_rss_mb: f64,
    /// The output check.
    pub check: Check,
    /// Fingerprint of the outputs, equal in every process.
    pub digest: String,
    /// Informational lines.
    pub info: Vec<String>,
}

impl Part {
    /// One-line JSON form, printed by a child process.
    pub fn to_json(&self) -> String {
        let nums = |v: &[f64]| json::array(v.iter().map(|x| json::number(*x)));
        let strs = |v: &[String]| json::array(v.iter().map(|x| json::string(x)));
        let mut w = ObjectWriter::new();
        w.field_u64("passes", self.passes)
            .field_raw("walls", &nums(&self.walls))
            .field_raw("cpus", &nums(&self.cpus))
            .field_raw("setups", &nums(&self.setups))
            .field_f64("peak_rss_mb", self.peak_rss_mb)
            .field_u64("attempted", self.check.attempted)
            .field_u64("failed", self.check.failed)
            .field_u64("unexplained", self.check.unexplained)
            .field_raw("notes", &strs(&self.check.notes))
            .field_str("digest", &self.digest)
            .field_raw("info", &strs(&self.info));
        w.finish()
    }

    /// Parses [`Part::to_json`].
    pub fn from_json(text: &str) -> Result<Part, String> {
        let v = json::parse(text)?;
        let list = |k: &str| {
            v.get(k)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("part: {k} missing"))
        };
        let nums = |k: &str| -> Result<Vec<f64>, String> {
            list(k)?
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| format!("part: {k} not numbers")))
                .collect()
        };
        let strs = |k: &str| -> Result<Vec<String>, String> {
            list(k)?
                .iter()
                .map(|x| {
                    x.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("part: {k} not strings"))
                })
                .collect()
        };
        let count = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("part: {k} missing"))
        };
        Ok(Part {
            passes: count("passes")?,
            walls: nums("walls")?,
            cpus: nums("cpus")?,
            setups: nums("setups")?,
            peak_rss_mb: v
                .get("peak_rss_mb")
                .and_then(Value::as_f64)
                .ok_or("part: peak_rss_mb missing")?,
            check: Check {
                attempted: count("attempted")?,
                failed: count("failed")?,
                unexplained: count("unexplained")?,
                notes: strs("notes")?,
            },
            digest: v
                .get("digest")
                .and_then(Value::as_str)
                .ok_or("part: digest missing")?
                .to_string(),
            info: strs("info")?,
        })
    }
}

/// The report of an untraced run made of `parts`, with every process's
/// check. `wall_s` and `cpu_s` add up, over the pieces of a pass, each
/// piece's fastest time in any pass of any process; `setup_s` is the
/// median of every set-up of every process.
pub fn combine(parts: Vec<Part>) -> Report {
    let fastest = |f: fn(&Part) -> &Vec<f64>| {
        let mut best: Vec<f64> = Vec::new();
        for times in parts.iter().map(f) {
            if best.is_empty() {
                best.clone_from(times);
            }
            for (b, t) in best.iter_mut().zip(times) {
                *b = b.min(*t);
            }
        }
        best.iter().sum::<f64>()
    };
    let setups: Vec<f64> = parts
        .iter()
        .flat_map(|p| p.setups.iter().copied())
        .collect();
    let mut metrics = Metrics::default();
    metrics.put("wall_s", fastest(|p| &p.walls), "s");
    metrics.put("cpu_s", fastest(|p| &p.cpus), "s");
    metrics.put("setup_s", median(&setups), "s");
    let peaks: Vec<f64> = parts.iter().map(|p| p.peak_rss_mb).collect();
    metrics.put("peak_rss_mb", median(&peaks), "MB");
    let mut check = Check::default();
    let mut info = vec![format!(
        "[run] processes={} passes={} pieces={} set-ups={}",
        parts.len(),
        parts.iter().map(|p| p.passes).sum::<u64>(),
        parts.first().map_or(0, |p| p.walls.len()),
        setups.len()
    )];
    for (k, part) in parts.iter().enumerate() {
        if part.digest != parts[0].digest || part.walls.len() != parts[0].walls.len() {
            check.inconsistent(format!("process {k} produced different outputs"));
        }
        info.extend(part.info.iter().map(|l| format!("[process {k}] {l}")));
    }
    for part in parts {
        check.merge(part.check);
    }
    Report {
        check,
        metrics,
        info,
        trace_json: None,
    }
}

fn untraced_part<W: Workload>(opts: &Opts, w: &mut W, setups: Vec<f64>) -> Result<Part, String> {
    let t_run = Instant::now();
    let (mut outs, mut walls) = (Vec::new(), Vec::new());
    let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let (mut raw, mut fastest) = (Vec::new(), Vec::<(f64, f64)>::new());
    while outs.len() < MIN_PASSES || secs(t_run) < opts.seconds {
        let (c0, s0) = (cpu_seconds(), steal_seconds());
        let out = w.pass();
        let stolen = (steal_seconds() - s0) / ncpu;
        let (wall, cpu) = (W::wall_s(&out) - stolen, cpu_seconds() - c0);
        raw.push(W::wall_s(&out));
        walls.push(wall);
        let pieces = W::pieces(&out).unwrap_or_else(|| vec![(wall, cpu)]);
        if fastest.is_empty() {
            fastest.clone_from(&pieces);
        }
        if pieces.len() != fastest.len() {
            return Err("a pass timed a different number of pieces".to_string());
        }
        for (f, p) in fastest.iter_mut().zip(pieces) {
            *f = (f.0.min(p.0), f.1.min(p.1));
        }
        outs.push(out);
    }
    let round = |v: &[f64]| {
        v.iter()
            .map(|x| (x * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    };
    let peak = peak_rss_mb();
    let mut info = vec![format!(
        "passes={} wall_s_each={:?} raw_wall_s_each={:?} peak_rss_mb={peak:.1}",
        outs.len(),
        round(&walls),
        round(&raw),
    )];
    info.extend(w.info(&outs));
    Ok(Part {
        check: w.check(&outs, &[]),
        digest: w.digest(&outs),
        passes: outs.len() as u64,
        walls: fastest.iter().map(|f| f.0).collect(),
        cpus: fastest.iter().map(|f| f.1).collect(),
        setups,
        peak_rss_mb: peak,
        info,
    })
}

fn traced_run<W: Workload>(opts: &Opts, w: &mut W, _setups: Vec<f64>) -> Result<Report, String> {
    let mut session = TraceSession::new();
    let t_run = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut u_walls, mut t_walls) = (Vec::new(), Vec::new());
    // Alternate so both sides see the same drift in host load.
    while traced.is_empty() || secs(t_run) < opts.seconds {
        let out = w.pass();
        u_walls.push(W::wall_s(&out));
        untraced.push(out);
        let out = w.traced_pass(&mut session);
        t_walls.push(W::wall_s(&out));
        traced.push(out);
    }
    let mut check = w.check(&untraced, &traced);

    // Passes that measure latency run before the decomposition, whose
    // large allocations would otherwise leave them a fragmented heap.
    let items = sample(w.items(), DECOMPOSE_MAX);
    let mut metrics = Metrics::default();
    let mut layers = Layers::default();
    w.own_layers(&traced, &mut layers);
    match layers.pool {
        Some(m) => metrics.0.extend(m.0),
        None => pool_pass(&items, &mut session, &mut metrics),
    }
    match layers.serve {
        Some(m) => metrics.0.extend(m.0),
        None => check.merge(serve::serve_pass(
            &items,
            &opts.obs_dir,
            &mut session,
            &mut metrics,
        )),
    }
    let d = decompose(&items, &mut session);
    d.metrics(&mut metrics);
    check.merge(d.check);
    let (u, t) = (median(&u_walls), median(&t_walls));
    metrics.put("trace.untraced_wall_s", u, "s");
    metrics.put("trace.traced_wall_s", t, "s");
    metrics.put("trace.overhead_s", t - u, "s");

    session.validate()?;
    let ordered = order(&metrics)?;
    Ok(Report {
        check,
        metrics: ordered,
        info: vec![format!("[run] traced_passes={}", traced.len())],
        trace_json: Some(session.to_chrome_json()),
    })
}

/// At most `max` of `items`, evenly spaced, in order.
fn sample(items: Vec<Item>, max: usize) -> Vec<Item> {
    let step = items.len().div_ceil(max.max(1)).max(1);
    items.into_iter().step_by(step).collect()
}

/// Puts per-layer metrics in [`PER_LAYER`] order, failing on a missing,
/// extra or mis-united one.
fn order(m: &Metrics) -> Result<Metrics, String> {
    let mut out = Metrics::default();
    for (name, unit) in PER_LAYER {
        let found = m.0.iter().find(|x| x.name == name);
        match found {
            Some(x) if x.unit == unit => out.put(name, x.value, unit),
            Some(x) => return Err(format!("{name}: unit {} instead of {unit}", x.unit)),
            None => return Err(format!("per-layer metric {name} was not measured")),
        }
    }
    if m.0.len() != PER_LAYER.len() {
        return Err(format!(
            "{} per-layer metrics measured, {} expected",
            m.0.len(),
            PER_LAYER.len()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_survives_its_json_form() {
        let part = Part {
            passes: 3,
            walls: vec![4.123456789012345, 5.0],
            cpus: vec![7.31, 0.1 + 0.2],
            setups: vec![0.0017812865],
            peak_rss_mb: 35.87890625,
            check: Check {
                attempted: 1072,
                failed: 1,
                unexplained: 0,
                notes: vec!["miscompile \"gen1\"\n".to_string()],
            },
            digest: "00ff".to_string(),
            info: vec!["passes=2".to_string()],
        };
        assert_eq!(Part::from_json(&part.to_json()), Ok(part));
    }

    #[test]
    fn combine_adds_each_pieces_fastest_time() {
        let part = |walls: Vec<f64>, setups: Vec<f64>| Part {
            passes: 2,
            cpus: walls.clone(),
            walls,
            setups,
            ..Part::default()
        };
        let report = combine(vec![
            part(vec![1.0, 5.0, 2.0], vec![0.1, 0.3]),
            part(vec![3.0, 4.0, 2.5], vec![0.2]),
        ]);
        assert_eq!(report.metrics.get("wall_s"), Some(1.0 + 4.0 + 2.0));
        assert_eq!(report.metrics.get("cpu_s"), Some(7.0));
        assert_eq!(report.metrics.get("setup_s"), Some(0.2));
        assert!(report.check.correct());
    }
}
