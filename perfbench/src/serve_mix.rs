//! `serve_mix`: an in-process compile service driven by closed-loop
//! clients. Pass 1 sends every distinct program cold; each later pass
//! sends 80% replays of programs from earlier passes (memo reads) and
//! 20% fresh generated programs (memo writes plus the full cold path).

use crate::common::{median, percentile, Check, Metrics};
use crate::decompose::Item;
use crate::serve::{self, Latency, Reply, Stream, CLIENTS, SERVE_N};
use crate::{Layers, Scale, Workload};
use cmt_obs::{SplitMix64, TraceSession};
use cmt_serve::{MemoStats, Server};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Passes after the first, each as long as the first.
pub const MIXED_PASSES: usize = 2;
/// Share of requests after pass 1 that replay an earlier program.
pub const REPLAY_SHARE: f64 = 0.8;

/// The workload's inputs.
pub struct ServeMix {
    items: Vec<Item>,
    stream: Stream,
    obs_dir: PathBuf,
}

/// One request stream sent to a fresh server.
#[derive(Clone, Debug)]
pub struct StreamRun {
    replies: Vec<Reply>,
    memo: MemoStats,
    wall_s: f64,
    /// Wall and CPU seconds of each pass of the stream.
    per_pass: Vec<(f64, f64)>,
}

impl ServeMix {
    /// Builds the programs and the request stream for `seed`, and starts
    /// and drains one server (the service's start-up cost).
    pub fn setup(seed: u64, scale: &Scale, obs_dir: &Path) -> ServeMix {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut items: Vec<Item> = cmt_verify::corpus_seeds()
            .into_iter()
            .take(scale.serve_corpus)
            .map(|s| Item::new(format!("corpus{s}"), cmt_verify::generate(s), SERVE_N))
            .collect();
        for _ in 0..scale.serve_generated {
            items.push(generated(rng.next_u64()));
        }
        items.extend(
            cmt_suite::kernels::paper_kernels()
                .into_iter()
                .map(|p| Item::new(p.name().to_string(), p, SERVE_N)),
        );
        let mut first: Vec<usize> = (0..items.len()).collect();
        rng.shuffle(&mut first);
        let mut passes = vec![first];
        for _ in 0..MIXED_PASSES {
            let sent = items.len();
            let pass = (0..passes[0].len())
                .map(|_| {
                    if rng.gen_bool(REPLAY_SHARE) {
                        rng.gen_range_usize(0, sent - 1)
                    } else {
                        items.push(generated(rng.next_u64()));
                        items.len() - 1
                    }
                })
                .collect();
            passes.push(pass);
        }
        let stream = Stream {
            programs: items
                .iter()
                .map(|i| serve::request_body(&i.source))
                .collect(),
            passes,
        };
        Server::start(serve::config(items.len(), obs_dir)).shutdown();
        ServeMix {
            items,
            stream,
            obs_dir: obs_dir.to_path_buf(),
        }
    }

    fn send(&self, session: Option<&mut TraceSession>) -> StreamRun {
        let server = Server::start(serve::config(self.items.len(), &self.obs_dir));
        let t0 = Instant::now();
        let (replies, per_pass) = serve::drive(&server, &self.stream, session);
        let wall_s = t0.elapsed().as_secs_f64();
        server.shutdown();
        StreamRun {
            replies,
            memo: server.memo_stats(),
            wall_s,
            per_pass,
        }
    }
}

fn generated(seed: u64) -> Item {
    Item::new(format!("gen{seed}"), cmt_verify::generate(seed), SERVE_N)
}

/// Requests per second over every stream.
fn rate(runs: &[StreamRun]) -> f64 {
    let requests: usize = runs.iter().map(|r| r.replies.len()).sum();
    let wall: f64 = runs.iter().map(|r| r.wall_s).sum();
    requests as f64 / wall.max(1e-9)
}

fn pooled(runs: &[StreamRun], sources: Option<&[String]>) -> Latency {
    let all: Vec<Reply> = runs
        .iter()
        .flat_map(|r| r.replies.iter().cloned())
        .collect();
    Latency::of(&all, sources)
}

impl Workload for ServeMix {
    type Out = StreamRun;

    fn pass(&mut self) -> StreamRun {
        self.send(None)
    }

    fn traced_pass(&mut self, session: &mut TraceSession) -> StreamRun {
        self.send(Some(session))
    }

    /// Every reply of every stream against the library pipeline; memo
    /// counters must repeat exactly from stream to stream.
    fn check(&self, untraced: &[StreamRun], traced: &[StreamRun]) -> Check {
        let runs: Vec<&StreamRun> = untraced.iter().chain(traced).collect();
        let all: Vec<Reply> = runs
            .iter()
            .flat_map(|r| r.replies.iter().cloned())
            .collect();
        let sources: Vec<String> = self.items.iter().map(|i| i.source.clone()).collect();
        let mut check = serve::check_replies(&sources, &all);
        if runs.windows(2).any(|w| w[0].memo != w[1].memo) {
            check.inconsistent("memo counters changed between identical streams".to_string());
        }
        check
    }

    fn wall_s(out: &StreamRun) -> f64 {
        out.wall_s
    }

    fn pieces(out: &StreamRun) -> Option<Vec<(f64, f64)>> {
        Some(out.per_pass.clone())
    }

    /// Replies may differ in which request of a coalesced pair computed,
    /// so the fingerprint is the memo counters, which may not.
    fn digest(&self, untraced: &[StreamRun]) -> String {
        untraced
            .first()
            .map(|r| r.memo.to_json())
            .unwrap_or_default()
    }

    fn items(&self) -> Vec<Item> {
        self.items.clone()
    }

    fn own_layers(&self, traced: &[StreamRun], layers: &mut Layers) {
        let Some(first) = traced.first() else { return };
        let mut m = Metrics::default();
        serve::memo_metrics(&first.memo, &mut m);
        let sources: Vec<String> = self.items.iter().map(|i| i.source.clone()).collect();
        pooled(traced, Some(&sources)).metrics(rate(traced), &mut m);
        layers.serve = Some(m);
    }

    fn info(&self, untraced: &[StreamRun]) -> Vec<String> {
        let l = pooled(untraced, None);
        vec![
            format!(
                "[serve_mix] clients={CLIENTS} closed loop, n={SERVE_N}, requests/stream={}, distinct programs={}",
                self.stream.len(),
                self.items.len()
            ),
            format!("[serve_mix] requests_per_s={:.3} 1/s", rate(untraced)),
            format!(
                "[serve_mix] cold_p50_ms={:.4} ms cold_p95_ms={:.4} ms (samples={})",
                median(&l.cold_ns) / 1e6,
                percentile(&l.cold_ns, 95.0) / 1e6,
                l.cold_ns.len()
            ),
            format!(
                "[serve_mix] hot_p50_us={:.2} us hot_p95_us={:.2} us (samples={})",
                median(&l.hot_ns) / 1e3,
                percentile(&l.hot_ns, 95.0) / 1e3,
                l.hot_ns.len()
            ),
        ]
    }
}
