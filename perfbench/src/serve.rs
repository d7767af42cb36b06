//! Driving an in-process `cmt_serve::Server` with closed-loop clients,
//! and checking its replies against the library pipeline.

use crate::common::{cpu_seconds, median, percentile, Check, Metrics};
use crate::decompose::{count_accesses, flat_misses_rs6000, serve_pipeline, Item};
use cmt_ir::canon::nest_key;
use cmt_ir::parse::parse_program;
use cmt_obs::json::{self, ObjectWriter};
use cmt_obs::{TraceArg, TraceSession, TraceTrack};
use cmt_serve::{MemoStats, ServeConfig, Server};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Problem size of every compile request.
pub const SERVE_N: i64 = 16;
/// Closed-loop clients: each waits for its reply before sending again.
pub const CLIENTS: usize = 2;
/// Requests per timed chunk of a stream: the clients wait for each
/// other after each chunk, so that each chunk is timed on its own.
pub const CHUNK: usize = 64;

/// Server settings under which no reply depends on host speed: no
/// deadline, a degrade mark and queue above the client count (a closed
/// loop of [`CLIENTS`] never queues more than that), and a memo that
/// never evicts.
pub fn config(distinct_programs: usize, obs_dir: &Path) -> ServeConfig {
    ServeConfig {
        workers: 0,
        queue_capacity: 4 * CLIENTS,
        degrade_depth: 2 * CLIENTS,
        memo_capacity: 2 * distinct_programs + 64,
        default_deadline_ms: 0,
        default_n: SERVE_N,
        chaos_ops: false,
        obs_dir: Some(obs_dir.to_path_buf()),
    }
}

/// A request stream: passes of program indices, sent pass by pass (a
/// pass ends when every one of its replies is in).
#[derive(Clone, Debug, Default)]
pub struct Stream {
    /// The request line for each program, `id` left to the sender.
    pub programs: Vec<String>,
    /// Program index of every request, per pass.
    pub passes: Vec<Vec<usize>>,
}

impl Stream {
    /// A stream over `items`: pass 1 sends every item once, pass 2
    /// replays every item once.
    pub fn cold_then_hot(items: &[Item]) -> Stream {
        let all: Vec<usize> = (0..items.len()).collect();
        Stream {
            programs: items.iter().map(|i| request_body(&i.source)).collect(),
            passes: vec![all.clone(), all],
        }
    }

    /// Requests in the whole stream.
    pub fn len(&self) -> usize {
        self.passes.iter().map(Vec::len).sum()
    }

    /// `true` for a stream without requests.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The JSON fields after `id` of a compile request for `source`.
pub fn request_body(source: &str) -> String {
    let mut w = ObjectWriter::new();
    w.field_str("program", source)
        .field_u64("n", SERVE_N as u64);
    let body = w.finish();
    // `{"program":...}` -> `"program":...}` so `{"id":N,` can prefix it.
    body[1..].to_string()
}

/// One answered request.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Program index.
    pub program: usize,
    /// `handle_line` latency in ns.
    pub ns: f64,
    /// The reply line.
    pub text: String,
}

/// Sends `stream` to `server` from [`CLIENTS`] closed-loop threads, one
/// stream pass after another, and returns the replies and the wall and
/// CPU seconds of each [`CHUNK`] requests. The clients wait for each
/// other at the end of every chunk. With a session, each client records
/// a `serve.handle_line` span per request on its own track.
pub fn drive(
    server: &Arc<Server>,
    stream: &Stream,
    mut session: Option<&mut TraceSession>,
) -> (Vec<Reply>, Vec<(f64, f64)>) {
    let mut replies = Vec::with_capacity(stream.len());
    let mut times = Vec::new();
    let mut next_id = 0usize;
    for pass in &stream.passes {
        let mut tracks: Vec<Option<TraceTrack>> = (0..CLIENTS)
            .map(|c| {
                session
                    .as_deref_mut()
                    .map(|s| s.track(&format!("client-{c}")))
            })
            .collect();
        for (lo, chunk) in (0..).step_by(CHUNK).zip(pass.chunks(CHUNK)) {
            let (t_chunk, c_chunk) = (Instant::now(), cpu_seconds());
            let cursor = AtomicUsize::new(0);
            let per_client: Vec<Vec<Reply>> = std::thread::scope(|scope| {
                let handles: Vec<_> = tracks
                    .iter_mut()
                    .map(|track| {
                        let cursor = &cursor;
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            loop {
                                let k = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(&program) = chunk.get(k) else { break };
                                let id = next_id + lo + k;
                                let line = format!("{{\"id\":{id},{}", stream.programs[program]);
                                let start = track.as_ref().map(TraceTrack::start);
                                let t0 = Instant::now();
                                let text = server.handle_line(&line);
                                let ns = t0.elapsed().as_nanos() as f64;
                                if let (Some(t), Some(start)) = (track.as_mut(), start) {
                                    t.complete_since(
                                        start,
                                        "serve.handle_line",
                                        &[("program", TraceArg::U64(program as u64))],
                                    );
                                }
                                out.push(Reply { program, ns, text });
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            times.push((t_chunk.elapsed().as_secs_f64(), cpu_seconds() - c_chunk));
            replies.extend(per_client.into_iter().flatten());
        }
        if let Some(s) = session.as_deref_mut() {
            for t in tracks.into_iter().flatten() {
                s.absorb(t);
            }
        }
        next_id += pass.len();
    }
    (replies, times)
}

/// The reference answer for one program: what the library pipeline
/// produces for it, counted by engines other than the server's.
#[derive(Clone, Debug, PartialEq)]
pub struct Reference {
    key: String,
    steps: u64,
    failures: u64,
    accesses: u64,
    misses: u64,
}

/// Computes the reference for a request's program source.
pub fn reference(source: &str) -> Result<Reference, String> {
    let program = parse_program(source).map_err(|e| format!("parse: {e}"))?;
    let (optimized, run) = serve_pipeline(&program);
    Ok(Reference {
        key: nest_key(&program).to_hex(),
        steps: run.steps_committed as u64,
        failures: run.failures.len() as u64,
        accesses: count_accesses(&optimized, SERVE_N)?,
        misses: flat_misses_rs6000(&optimized, SERVE_N)?,
    })
}

/// A reply's class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Answered from the memo (`fidelity: cached`).
    Hot,
    /// Computed (`fidelity: simulated`).
    Cold,
    /// Anything else (error, overloaded, analytic rung).
    Other,
}

/// Classifies a reply line.
pub fn class(text: &str) -> Class {
    let v = json::parse(text).ok();
    let field = |k: &str| v.as_ref().and_then(|v| v.get(k)).and_then(|x| x.as_str());
    match (field("status"), field("fidelity")) {
        (Some("ok"), Some("cached")) => Class::Hot,
        (Some("ok"), Some("simulated")) => Class::Cold,
        _ => Class::Other,
    }
}

/// The reply without its `id` and `fidelity`: what a memo hit must
/// repeat exactly.
fn answer_part(text: &str) -> Option<&str> {
    text.find("\"computed\"").map(|k| &text[k..])
}

fn check_reply(text: &str, r: &Reference) -> Option<String> {
    let v = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return Some(format!("unparsable reply: {e}")),
    };
    let s = |k: &str| v.get(k).and_then(|x| x.as_str()).map(str::to_string);
    let u = |k: &str| v.get(k).and_then(|x| x.as_u64());
    if s("status").as_deref() != Some("ok") {
        return Some(format!("not ok: {text}"));
    }
    let expect: [(&str, Option<String>, String); 2] = [
        ("computed", s("computed"), "simulated".to_string()),
        ("key", s("key"), r.key.clone()),
    ];
    for (k, got, want) in expect {
        if got.as_deref() != Some(want.as_str()) {
            return Some(format!("{k}: got {got:?}, want {want}"));
        }
    }
    let counts = [
        ("n", u("n"), SERVE_N as u64),
        ("steps", u("steps"), r.steps),
        ("failures", u("failures"), r.failures),
        ("accesses", u("accesses"), r.accesses),
        ("misses", u("misses"), r.misses),
    ];
    for (k, got, want) in counts {
        if got != Some(want) {
            return Some(format!("{k}: got {got:?}, want {want}"));
        }
    }
    None
}

/// Checks every reply: each is `ok`, each matches its program's
/// reference, and each hot reply repeats its program's first computed
/// reply. References are computed once per program.
pub fn check_replies(sources: &[String], replies: &[Reply]) -> Check {
    let mut check = Check::default();
    let mut cold_answer: HashMap<usize, &str> = HashMap::new();
    for r in replies {
        if class(&r.text) == Class::Cold {
            if let Some(a) = answer_part(&r.text) {
                cold_answer.entry(r.program).or_insert(a);
            }
        }
    }
    // References are independent library runs, one per program: spread
    // them over the pool (this is outside every timed region).
    let mut programs: Vec<usize> = replies.iter().map(|r| r.program).collect();
    programs.sort_unstable();
    programs.dedup();
    let computed = cmt_bench::par_map(&programs, |&k| reference(&sources[k]));
    let refs: HashMap<usize, Result<Reference, String>> =
        programs.into_iter().zip(computed).collect();
    for r in replies {
        let mut problem = match &refs[&r.program] {
            Ok(reference) => check_reply(&r.text, reference),
            Err(e) => Some(format!("reference failed: {e}")),
        };
        if problem.is_none() && class(&r.text) == Class::Hot {
            if let Some(cold) = cold_answer.get(&r.program) {
                if answer_part(&r.text) != Some(*cold) {
                    problem = Some("hot reply differs from the cold reply".to_string());
                }
            }
        }
        check.record(problem.map(|p| format!("serve program {}: {p}", r.program)));
    }
    check
}

/// Latency summary of a set of replies.
#[derive(Clone, Debug, Default)]
pub struct Latency {
    /// Computed-reply latencies in ns.
    pub cold_ns: Vec<f64>,
    /// Memo-hit latencies in ns.
    pub hot_ns: Vec<f64>,
    /// Replayed parse + canonicalisation of each hot request, in ns.
    pub hot_parse_canon_ns: Vec<f64>,
}

impl Latency {
    /// Splits `replies` by class; with `sources`, also replays each hot
    /// request's parse and canonicalisation.
    pub fn of(replies: &[Reply], sources: Option<&[String]>) -> Latency {
        let mut l = Latency::default();
        let mut hot_programs = Vec::new();
        for r in replies {
            match class(&r.text) {
                Class::Cold => l.cold_ns.push(r.ns),
                Class::Hot => {
                    l.hot_ns.push(r.ns);
                    hot_programs.push(r.program);
                }
                Class::Other => {}
            }
        }
        if let Some(sources) = sources {
            // On a fresh thread, as a server worker parses: the main
            // thread's allocator state after a long run is not its.
            l.hot_parse_canon_ns = std::thread::scope(|s| {
                s.spawn(|| {
                    hot_programs
                        .iter()
                        .map(|&k| {
                            let t0 = Instant::now();
                            if let Ok(p) = parse_program(&sources[k]) {
                                std::hint::black_box(nest_key(&p));
                            }
                            t0.elapsed().as_nanos() as f64
                        })
                        .collect()
                })
                .join()
                .expect("replay thread panicked")
            });
        }
        l
    }

    /// `serve.*` latency metrics plus the memo hand-off: the hot median
    /// minus the median of replaying the same hot requests' parse and
    /// canonicalisation on one thread.
    pub fn metrics(&self, requests_per_s: f64, m: &mut Metrics) {
        let hot_p50 = median(&self.hot_ns);
        m.put("serve.requests_per_s", requests_per_s, "1/s");
        m.put("serve.cold_p50_ms", median(&self.cold_ns) / 1e6, "ms");
        m.put(
            "serve.cold_p95_ms",
            percentile(&self.cold_ns, 95.0) / 1e6,
            "ms",
        );
        m.put("serve.hot_p50_us", hot_p50 / 1e3, "us");
        m.put(
            "serve.hot_p95_us",
            percentile(&self.hot_ns, 95.0) / 1e3,
            "us",
        );
        m.put(
            "serve.handoff_us",
            (hot_p50 - median(&self.hot_parse_canon_ns)) / 1e3,
            "us",
        );
    }
}

/// Memo counters of a server after one stream.
pub fn memo_metrics(s: &MemoStats, m: &mut Metrics) {
    m.put("serve.memo_hits", s.hits as f64, "count");
    m.put("serve.memo_misses", s.misses as f64, "count");
    m.put("serve.memo_inserted", s.inserted as f64, "count");
    m.put("serve.memo_evictions", s.evictions as f64, "count");
    m.put(
        "serve.hit_ratio",
        s.hits as f64 / (s.hits + s.misses).max(1) as f64,
        "ratio",
    );
}

/// The compile service's layer on a workload that does not serve:
/// every item sent once cold and once hot through a fresh server.
pub fn serve_pass(
    items: &[Item],
    obs_dir: &Path,
    session: &mut TraceSession,
    m: &mut Metrics,
) -> Check {
    let stream = Stream::cold_then_hot(items);
    let server = Server::start(config(items.len(), obs_dir));
    let t0 = Instant::now();
    let (replies, _) = drive(&server, &stream, Some(session));
    let wall = t0.elapsed().as_secs_f64();
    server.shutdown();
    memo_metrics(&server.memo_stats(), m);
    let sources: Vec<String> = items.iter().map(|i| i.source.clone()).collect();
    Latency::of(&replies, Some(&sources)).metrics(replies.len() as f64 / wall, m);
    check_replies(&sources, &replies)
}
