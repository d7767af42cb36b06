//! Shared plumbing: metrics, percentiles, process counters, spans and
//! run metadata.

use cmt_obs::json::ObjectWriter;
use cmt_obs::{TraceArg, TraceTrack};
use std::collections::BTreeMap;
use std::time::Instant;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The `{"name": {"value": v, "unit": u}, ...}` object.
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        for m in &self.0 {
            let mut inner = ObjectWriter::new();
            inner.field_f64("value", m.value).field_str("unit", m.unit);
            w.field_raw(&m.name, &inner.finish());
        }
        w.finish()
    }
}

/// FNV-1a of `bytes`, as 16 hex digits.
pub fn fnv_hex(bytes: impl IntoIterator<Item = u8>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The output check of a run: how many outputs were checked, how many
/// were wrong or failed, and whether every failure is one the
/// benchmark can account for (see `README.md`, "Correctness").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Check {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed or did not match their reference.
    pub failed: u64,
    /// Failures that are not optimizer miscompiles confirmed by the
    /// differential verifier (a wrong table row, a mismatching reply,
    /// an output that changed between repetitions...).
    pub unexplained: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Check {
    /// Records one checked output; `problem` describes a failure.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.unexplained += 1;
            self.notes.push(p);
        }
    }

    /// Records a failure that an independent oracle confirmed as an
    /// optimizer miscompile.
    pub fn record_miscompile(&mut self, note: String) {
        self.attempted += 1;
        self.failed += 1;
        self.notes.push(note);
    }

    /// Marks the run as inconsistent without adding an output.
    pub fn inconsistent(&mut self, note: String) {
        self.unexplained += 1;
        self.notes.push(note);
    }

    /// `true` when every failure is accounted for.
    pub fn correct(&self) -> bool {
        self.unexplained == 0
    }

    /// Failed outputs over attempted outputs.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Adds another check's counts.
    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.unexplained += other.unexplained;
        self.notes.extend(other.notes);
    }
}

/// Prints the result line: the last line of standard output.
pub fn result_line(check: &Check, metrics: &Metrics) -> String {
    let mut w = ObjectWriter::new();
    w.field_bool("correct", check.correct())
        .field_u64("attempted", check.attempted.max(1))
        .field_u64("failed", check.failed)
        .field_raw("metrics", &metrics.to_json());
    w.finish()
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The `p`-th percentile of `v` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(field: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// CPU seconds (user + system, all threads) this process has used so
/// far, to the nanosecond (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    // Hand-rolled binding: the workspace has no libc crate. On 64-bit
    // Linux `struct timespec` is two 64-bit integers.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return proc_cpu_seconds();
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds (user + system, all threads) this process has used so
/// far, from `/proc/self/stat`; 0 when the platform does not expose it.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> f64 {
    proc_cpu_seconds()
}

/// [`cpu_seconds`] at clock-tick resolution, from `/proc/self/stat`.
fn proc_cpu_seconds() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100
    // on Linux).
    let Some(rest) = text.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Seconds the hypervisor has withheld this machine's CPUs from it
/// (`steal` in `/proc/stat`, summed over CPUs), 0 when the platform does
/// not expose it.
pub fn steal_seconds() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    text.lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .and_then(|rest| rest.split_whitespace().nth(7))
        .and_then(|t| t.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Per-layer span durations, recorded next to a Chrome-trace track.
///
/// Every span is written to the track (when one is attached); its
/// duration and the units of work it covered are kept, by name, for the
/// per-layer metrics.
#[derive(Debug, Default)]
pub struct Spans {
    /// The trace track spans are written to; `None` records durations
    /// only.
    pub track: Option<TraceTrack>,
    layers: BTreeMap<&'static str, (Vec<f64>, f64)>,
}

impl Spans {
    /// Records onto `track`.
    pub fn on(track: TraceTrack) -> Spans {
        Spans {
            track: Some(track),
            layers: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name` that covers `units` units of
    /// work (bytes, nests, accesses...).
    pub fn span<R>(&mut self, name: &'static str, units: f64, f: impl FnOnce() -> R) -> R {
        self.span_counted(name, || (f(), units))
    }

    /// [`Spans::span`] for work whose unit count `f` returns alongside
    /// its result.
    pub fn span_counted<R>(&mut self, name: &'static str, f: impl FnOnce() -> (R, f64)) -> R {
        let start = self.track.as_ref().map(TraceTrack::start);
        let t0 = Instant::now();
        let (r, units) = f();
        let ns = t0.elapsed().as_nanos() as f64;
        if let (Some(track), Some(start)) = (self.track.as_mut(), start) {
            track.complete_since(start, name, &[("units", TraceArg::F64(units))]);
        }
        self.add(name, ns, units);
        r
    }

    /// Adds a duration measured elsewhere (no trace event).
    pub fn add(&mut self, name: &'static str, ns: f64, units: f64) {
        let e = self.layers.entry(name).or_default();
        e.0.push(ns);
        e.1 += units;
    }

    /// Every duration recorded under `name`, in ns.
    pub fn ns(&self, name: &str) -> &[f64] {
        self.layers.get(name).map_or(&[], |e| e.0.as_slice())
    }

    /// Total ns recorded under `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.ns(name).iter().sum()
    }

    /// Total ns per unit of work recorded under `name`.
    pub fn ns_per_unit(&self, name: &str) -> f64 {
        let units = self.layers.get(name).map_or(0.0, |e| e.1);
        self.total_ns(name) / units.max(1.0)
    }
}

/// Host and knob metadata printed with every run.
pub fn metadata_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let knob = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_string());
    let mut w = ObjectWriter::new();
    w.field_u64("nproc", nproc as u64)
        .field_u64("cmt_jobs", cmt_obs::pool::cmt_jobs() as u64)
        .field_u64(
            "shards_rs6000",
            cmt_cache::default_shard_count(&cmt_cache::CacheConfig::rs6000()) as u64,
        )
        .field_u64(
            "shards_i860",
            cmt_cache::default_shard_count(&cmt_cache::CacheConfig::i860()) as u64,
        )
        .field_str("CMT_JOBS", &knob("CMT_JOBS"))
        .field_str("CMT_SHARDS", &knob("CMT_SHARDS"))
        .field_str("commit", &commit())
        .field_str("source_fnv", &source_fingerprint());
    format!("[meta] {}", w.finish())
}

/// The checked-out commit, or `unknown` outside a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over every `.rs` and `Cargo.toml` file under `crates/`, in
/// path order: identifies the measured code where no git metadata is
/// available.
fn source_fingerprint() -> String {
    let mut files = Vec::new();
    collect_sources(std::path::Path::new("crates"), &mut files);
    if files.is_empty() {
        return "unknown".to_string();
    }
    files.sort();
    let bytes = files.iter().flat_map(|f| {
        let mut b = f.to_string_lossy().into_owned().into_bytes();
        b.extend(std::fs::read(f).unwrap_or_default());
        b
    });
    fnv_hex(bytes)
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs")
            || p.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(p);
        }
    }
}
