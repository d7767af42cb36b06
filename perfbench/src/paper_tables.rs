//! `paper_tables`: regenerate Table 4 (34 suite models at paper sizes,
//! original and transformed, both paper caches) and compare it with the
//! committed `results/table4_hit_rates.txt`.

use crate::common::{fnv_hex, Check, Metrics};
use crate::decompose::{paper_model, pool_metrics, Item};
use crate::{Layers, Workload};
use cmt_bench::tables::{table4, Table4Row};
use cmt_obs::TraceSession;
use cmt_suite::BenchmarkModel;
use std::time::Instant;

/// The committed reference, relative to the repository root.
pub const REFERENCE: &str = "results/table4_hit_rates.txt";

/// Title, geometry and column-header lines above the rows.
const HEADER_LINES: usize = 4;

/// The workload's inputs.
pub struct PaperTables {
    models: Vec<BenchmarkModel>,
    reference: String,
    /// Problem size override (tests only; `None` is the paper sizes the
    /// reference was made at).
    n_override: Option<i64>,
}

/// One regenerated table.
#[derive(Clone, Debug)]
pub struct Table {
    text: String,
    rows: Vec<Table4Row>,
    /// Per-model `simulate_versions` times (traced passes only).
    model_ms: Vec<f64>,
    wall_s: f64,
}

impl PaperTables {
    /// Builds the suite and reads the reference.
    pub fn setup(n_override: Option<i64>) -> Result<PaperTables, String> {
        let reference = if n_override.is_none() {
            std::fs::read_to_string(REFERENCE).map_err(|e| format!("{REFERENCE}: {e}"))?
        } else {
            String::new()
        };
        let models = cmt_suite::suite()
            .into_iter()
            .filter(|m| m.spec.mix.total_nests() > 0)
            .collect();
        Ok(PaperTables {
            models,
            reference,
            n_override,
        })
    }

    fn n(&self, m: &BenchmarkModel) -> i64 {
        self.n_override.unwrap_or(m.spec.sim_n)
    }
}

impl Workload for PaperTables {
    type Out = Table;

    fn pass(&mut self) -> Table {
        let t0 = Instant::now();
        let (text, rows) = table4(self.n_override);
        Table {
            text,
            rows,
            model_ms: Vec::new(),
            wall_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// The table's own parallel structure (one `simulate_versions` per
    /// model on the `CMT_JOBS` pool), with a span per model.
    fn traced_pass(&mut self, session: &mut TraceSession) -> Table {
        let model = paper_model();
        let t0 = Instant::now();
        let timed = cmt_bench::par_map_traced(&self.models, session, |m, track| {
            let start = track.start();
            let t = Instant::now();
            let pair = cmt_bench::simulate_versions(m, &model, self.n(m));
            track.complete_since(start, "bench.simulate_versions", &[]);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let rate = |s: &cmt_bench::ProgramSim| {
                [
                    s.cache1.hit_rate_excluding_cold(),
                    s.cache2.hit_rate_excluding_cold(),
                ]
            };
            let (oo, of, wo, wf) = (
                rate(&pair.opt_orig),
                rate(&pair.opt_final),
                rate(&pair.whole_orig),
                rate(&pair.whole_final),
            );
            let row = Table4Row {
                name: m.spec.name.to_string(),
                opt: [oo[0], of[0], oo[1], of[1]],
                whole: [wo[0], wf[0], wo[1], wf[1]],
            };
            (row, ms)
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let (rows, model_ms) = timed.into_iter().unzip();
        Table {
            text: String::new(),
            rows,
            model_ms,
            wall_s,
        }
    }

    /// Untraced tables must equal the committed reference row for row;
    /// traced tables must carry the same hit rates as the untraced ones.
    fn check(&self, untraced: &[Table], traced: &[Table]) -> Check {
        let mut check = Check::default();
        let Some(first) = untraced.first() else {
            check.inconsistent("paper_tables: no untraced table".to_string());
            return check;
        };
        if self.n_override.is_none() {
            // `table4_hit_rates` prints the text with `println!`.
            let printed = format!("{}\n", first.text);
            let got: Vec<&str> = printed.lines().collect();
            let want: Vec<&str> = self.reference.lines().collect();
            if got.len() != want.len() || got.get(..HEADER_LINES) != want.get(..HEADER_LINES) {
                check.inconsistent("table 4: header or row count differs".to_string());
            }
            for (k, w) in want
                .iter()
                .enumerate()
                .skip(HEADER_LINES)
                .filter(|(_, w)| !w.is_empty())
            {
                let g = got.get(k).copied().unwrap_or("");
                check.record((g != *w).then(|| format!("table 4 row: got {g:?}, want {w:?}")));
            }
            if check.correct() && printed != self.reference {
                check.inconsistent("table 4 is not byte-identical to the reference".to_string());
            }
        } else {
            check.attempted += first.rows.len() as u64;
        }
        for t in untraced.iter().skip(1) {
            if t.text != first.text {
                check.inconsistent("table 4 changed between repetitions".to_string());
            }
        }
        let key = |rows: &[Table4Row]| {
            rows.iter()
                .map(|r| {
                    (
                        r.name.clone(),
                        r.opt.map(f64::to_bits),
                        r.whole.map(f64::to_bits),
                    )
                })
                .collect::<Vec<_>>()
        };
        for t in traced {
            if key(&t.rows) != key(&first.rows) {
                check.inconsistent("traced table differs from table4()".to_string());
            }
        }
        check
    }

    fn wall_s(out: &Table) -> f64 {
        out.wall_s
    }

    fn digest(&self, untraced: &[Table]) -> String {
        fnv_hex(
            untraced
                .first()
                .map_or(&[][..], |t| t.text.as_bytes())
                .iter()
                .copied(),
        )
    }

    fn items(&self) -> Vec<Item> {
        self.models
            .iter()
            .flat_map(|m| {
                let n = self.n(m);
                [
                    Item::new(format!("{}/optimized", m.spec.name), m.optimized.clone(), n),
                    Item::new(format!("{}/rest", m.spec.name), m.rest.clone(), n),
                ]
            })
            .collect()
    }

    fn own_layers(&self, traced: &[Table], layers: &mut Layers) {
        let Some(traced) = traced.first() else { return };
        let mut m = Metrics::default();
        let jobs = cmt_bench::cmt_jobs().min(self.models.len());
        pool_metrics(&traced.model_ms, traced.wall_s, jobs, &mut m);
        layers.pool = Some(m);
    }
}
