//! `optimize_corpus`: the `memoria` path on one thread, one program at
//! a time — source text, `parse_program`, `compound`,
//! `program_to_source`, then the analytic miss prediction — over the
//! paper kernels, the suite models and seed-drawn generated programs.
//! Each output is checked by executing it against its input.

use crate::common::{cpu_seconds, fnv_hex, Check, Spans};
use crate::decompose::{paper_model, params, Item, ANALYTIC_N};
use crate::serve::SERVE_N;
use crate::{Scale, Workload};
use cmt_analytic::{predict_program, MissModel};
use cmt_cache::CacheConfig;
use cmt_interp::{equivalent, Machine, NullSink};
use cmt_ir::parse::parse_program;
use cmt_ir::pretty::program_to_source;
use cmt_locality::compound::compound;
use cmt_locality::model::CostModel;
use cmt_locality::CompoundOptions;
use cmt_obs::{NullObs, SplitMix64, TraceSession};
use cmt_verify::{run_corpus, verify_compound, VerifyOptions};
use std::time::Instant;

/// Problem sizes the equivalence check executes at.
pub const CHECK_N: [i64; 2] = [6, 9];

/// One input program.
#[derive(Clone, Debug)]
pub struct Input {
    /// Kernel or model name, or `gen<seed>`.
    pub label: String,
    /// The generator seed, for generated programs.
    pub gen_seed: Option<u64>,
    /// Source text handed to the optimizer.
    pub source: String,
}

/// What the optimizer produced for one program.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// Optimized source and predicted misses.
    Ok {
        /// `program_to_source` of the transformed program.
        source: String,
        /// Analytic misses (rs6000, n = 64) summed over nests.
        predicted_misses: u64,
    },
    /// The input did not parse.
    ParseError(String),
}

/// One pass over the corpus.
#[derive(Clone, Debug)]
pub struct CorpusPass {
    outputs: Vec<Output>,
    wall_s: f64,
    /// Wall and CPU seconds of each program, in input order.
    per_program: Vec<(f64, f64)>,
}

/// The workload's inputs.
pub struct OptimizeCorpus {
    inputs: Vec<Input>,
}

/// Generator seeds drawn from the workload seed.
pub fn generator_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..count).map(|_| rng.next_u64()).collect()
}

impl OptimizeCorpus {
    /// Renders the corpus: 14 kernels, 34 suite models, and
    /// `scale.corpus_generated` programs drawn from `seed`.
    pub fn setup(seed: u64, scale: &Scale) -> OptimizeCorpus {
        let mut inputs: Vec<Input> = cmt_suite::kernels::paper_kernels()
            .iter()
            .map(|p| Input {
                label: p.name().to_string(),
                gen_seed: None,
                source: program_to_source(p),
            })
            .collect();
        inputs.extend(
            cmt_suite::suite()
                .into_iter()
                .filter(|m| m.spec.mix.total_nests() > 0)
                .map(|m| Input {
                    label: m.spec.name.to_string(),
                    gen_seed: None,
                    source: program_to_source(&m.optimized),
                }),
        );
        inputs.extend(
            generator_seeds(seed, scale.corpus_generated)
                .into_iter()
                .map(Self::generated),
        );
        OptimizeCorpus { inputs }
    }

    /// The input for one generator seed.
    pub fn generated(seed: u64) -> Input {
        Input {
            label: format!("gen{seed}"),
            gen_seed: Some(seed),
            source: program_to_source(&cmt_verify::generate(seed)),
        }
    }

    /// A corpus of exactly these inputs.
    pub fn of(inputs: Vec<Input>) -> OptimizeCorpus {
        OptimizeCorpus { inputs }
    }

    fn run(&self, mut spans: Option<&mut Spans>) -> CorpusPass {
        let model = paper_model();
        let analytic = MissModel::new(CacheConfig::rs6000());
        let t0 = Instant::now();
        let mut outputs = Vec::with_capacity(self.inputs.len());
        let mut per_program = Vec::with_capacity(self.inputs.len());
        for input in &self.inputs {
            let (t, c) = (Instant::now(), cpu_seconds());
            outputs.push(Self::optimize(input, &model, &analytic, &mut spans));
            per_program.push((t.elapsed().as_secs_f64(), cpu_seconds() - c));
        }
        CorpusPass {
            outputs,
            wall_s: t0.elapsed().as_secs_f64(),
            per_program,
        }
    }

    /// The `memoria` path for one program.
    fn optimize(
        input: &Input,
        model: &CostModel,
        analytic: &MissModel,
        spans: &mut Option<&mut Spans>,
    ) -> Output {
        let bytes = input.source.len() as f64;
        let parsed = timed(spans, "ir.parse", bytes, || parse_program(&input.source));
        let mut program = match parsed {
            Ok(p) => p,
            Err(e) => return Output::ParseError(e.to_string()),
        };
        timed(spans, "core.compound", 1.0, || {
            compound(&mut program, model)
        });
        let source = timed(spans, "ir.pretty", 1.0, || program_to_source(&program));
        let nests = program.body().len() as f64;
        let predicted_misses = timed(spans, "analytic.predict", nests, || {
            predict_program(&program, ANALYTIC_N, analytic, &mut NullObs)
                .iter()
                .map(|p| p.stats.misses)
                .sum()
        });
        Output::Ok {
            source,
            predicted_misses,
        }
    }

    /// Checks one pass's outputs: each optimized program, re-parsed from
    /// its source, must leave every array bit-identical to its input at
    /// N = 6 and N = 9 (each size at which the input itself runs). A
    /// program that does not is failed; the differential verifier then
    /// names the pass that broke it.
    pub fn check_outputs(&self, outputs: &[Output]) -> Check {
        // Independent executions, outside every timed region: spread
        // them over the pool.
        let pairs: Vec<(&Input, &Output)> = self.inputs.iter().zip(outputs).collect();
        let verdicts = cmt_bench::par_map(&pairs, |(input, output)| {
            differs(input, output).map(|problem| (problem, blame(input)))
        });
        let mut check = Check::default();
        for ((input, _), verdict) in pairs.iter().zip(verdicts) {
            match verdict {
                None => check.record(None),
                Some((problem, Some(pass))) => check.record_miscompile(format!(
                    "miscompile {} (generator seed {}): {problem}; verifier blames {pass}",
                    input.label,
                    input.gen_seed.map_or("none".to_string(), |s| s.to_string()),
                )),
                Some((problem, None)) => check.record(Some(format!("{}: {problem}", input.label))),
            }
        }
        check
    }
}

/// Runs `f`, inside a span when `spans` is given.
fn timed<R>(
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    units: f64,
    f: impl FnOnce() -> R,
) -> R {
    match spans {
        Some(s) => s.span(name, units, f),
        None => f(),
    }
}

/// Why `output` is not equivalent to `input`, if it is not.
fn differs(input: &Input, output: &Output) -> Option<String> {
    let source = match output {
        Output::Ok { source, .. } => source,
        Output::ParseError(e) => return Some(format!("input does not parse: {e}")),
    };
    let original = match parse_program(&input.source) {
        Ok(p) => p,
        Err(e) => return Some(format!("input does not parse: {e}")),
    };
    let transformed = match parse_program(source) {
        Ok(p) => p,
        Err(e) => return Some(format!("output does not parse: {e}")),
    };
    let mut checked = 0;
    for n in CHECK_N {
        // Suite models index past small extents; a size at which the
        // input itself cannot run says nothing about the optimizer.
        if Machine::new(&original, &params(&original, n))
            .and_then(|mut m| m.run(&original, &mut NullSink))
            .is_err()
        {
            continue;
        }
        checked += 1;
        match equivalent(&original, &transformed, &params(&original, n)) {
            Ok(r) if r.equivalent => {}
            Ok(r) => return Some(format!("arrays differ at N={n}: {:?}", r.first_diff)),
            Err(e) => return Some(format!("execution failed at N={n}: {e}")),
        }
    }
    (checked == 0).then(|| format!("input runs at none of N = {CHECK_N:?}"))
}

/// The pass the differential verifier blames for a miscompiled input:
/// `run_corpus` for generated programs, `verify_compound` otherwise.
fn blame(input: &Input) -> Option<&'static str> {
    let vopts = VerifyOptions::default();
    match input.gen_seed {
        Some(seed) => run_corpus(&[seed], &vopts)
            .divergences
            .first()
            .map(|(_, d)| d.pass),
        None => {
            let mut p = parse_program(&input.source).ok()?;
            let (_, v) = verify_compound(
                &mut p,
                &paper_model(),
                &CompoundOptions::default(),
                &vopts,
                &mut NullObs,
            );
            v.divergences.first().map(|d| d.pass)
        }
    }
}

impl Workload for OptimizeCorpus {
    type Out = CorpusPass;

    fn pass(&mut self) -> CorpusPass {
        self.run(None)
    }

    fn traced_pass(&mut self, session: &mut TraceSession) -> CorpusPass {
        let mut spans = Spans::on(session.track("optimize_corpus"));
        let out = self.run(Some(&mut spans));
        if let Some(track) = spans.track.take() {
            session.absorb(track);
        }
        out
    }

    fn check(&self, untraced: &[CorpusPass], traced: &[CorpusPass]) -> Check {
        let Some(first) = untraced.first() else {
            let mut c = Check::default();
            c.inconsistent("optimize_corpus: no pass".to_string());
            return c;
        };
        let mut check = self.check_outputs(&first.outputs);
        for p in untraced.iter().chain(traced).skip(1) {
            if p.outputs != first.outputs {
                check.inconsistent("optimizer output changed between passes".to_string());
            }
        }
        check
    }

    fn wall_s(out: &CorpusPass) -> f64 {
        out.wall_s
    }

    fn pieces(out: &CorpusPass) -> Option<Vec<(f64, f64)>> {
        Some(out.per_program.clone())
    }

    fn digest(&self, untraced: &[CorpusPass]) -> String {
        let first = untraced.first().map(|p| format!("{:?}", p.outputs));
        fnv_hex(first.unwrap_or_default().into_bytes())
    }

    fn items(&self) -> Vec<Item> {
        self.inputs
            .iter()
            .filter_map(|i| {
                let p = parse_program(&i.source).ok()?;
                Some(Item {
                    label: i.label.clone(),
                    program: p,
                    source: i.source.clone(),
                    n: SERVE_N,
                })
            })
            .collect()
    }

    fn info(&self, untraced: &[CorpusPass]) -> Vec<String> {
        vec![format!(
            "[optimize_corpus] programs={} per pass",
            untraced.first().map_or(0, |p| p.outputs.len())
        )]
    }
}
