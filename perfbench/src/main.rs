//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints informational lines, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics of an untraced
//! run, split over [`PROCESSES`] child processes of this binary;
//! `--trace 1` reports the per-layer metrics of a traced run and writes
//! its Chrome trace under `.perfbench_out/`. Run from the repository
//! root (see `perfbench/README.md`).

use perfbench::common::{metadata_line, result_line};
use perfbench::{combine, run_part, run_traced, Opts, Part, Report, Scale, PROCESSES};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Directory, relative to the repository root, for traces and the
/// scratch artifacts the libraries write.
const OUT_DIR: &str = ".perfbench_out";

/// What this process does.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// `--trace 0`: the untraced run, split over child processes.
    Untraced,
    /// `--trace 1`: the traced run.
    Traced,
    /// `--part 1`: a child process of an untraced run, which prints its
    /// [`Part`] as JSON instead of a result.
    Part,
}

fn parse_args() -> Result<(Opts, Mode), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut part) = (1u64, 10.0f64, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        let bit = |v: &str| match v {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(bad(&"expected 0 or 1")),
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = bit(value)?,
            "--part" => part = bit(value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let obs_dir = PathBuf::from(OUT_DIR).join(format!("obs-{}", std::process::id()));
    let opts = Opts {
        workload,
        seed,
        seconds,
        scale: Scale::full(),
        obs_dir,
    };
    let mode = match (part, trace) {
        (true, _) => Mode::Part,
        (false, true) => Mode::Traced,
        (false, false) => Mode::Untraced,
    };
    Ok((opts, mode))
}

/// Runs the untraced measurement as [`PROCESSES`] children in turn,
/// each measuring an equal share of `--seconds`.
fn untraced_in_processes(opts: &Opts) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let share = opts.seconds / PROCESSES as f64;
    let mut parts = Vec::with_capacity(PROCESSES);
    for _ in 0..PROCESSES {
        let out = Command::new(&exe)
            .args([
                "--workload",
                &opts.workload,
                "--seed",
                &opts.seed.to_string(),
            ])
            .args([
                "--seconds",
                &share.to_string(),
                "--trace",
                "0",
                "--part",
                "1",
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !out.status.success() {
            return Err(format!("child process failed: {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout
            .lines()
            .last()
            .ok_or("child process printed nothing")?;
        parts.push(Part::from_json(last)?);
    }
    Ok(combine(parts))
}

fn main() -> ExitCode {
    let (opts, mode) = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.obs_dir) {
        eprintln!("perfbench: {}: {e}", opts.obs_dir.display());
        return ExitCode::FAILURE;
    }
    // Anything a library writes by default goes to the scratch
    // directory, never to tracked files. Set before any thread starts.
    std::env::set_var("CMT_OBS_DIR", &opts.obs_dir);
    if mode != Mode::Part {
        println!("{}", metadata_line());
    }
    let result = match mode {
        Mode::Part => run_part(&opts).map(|p| {
            println!("{}", p.to_json());
            None
        }),
        Mode::Traced => run_traced(&opts).map(Some),
        Mode::Untraced => untraced_in_processes(&opts).map(Some),
    };
    let _ = std::fs::remove_dir_all(&opts.obs_dir);
    // Only succeeds when nothing else (a trace, another run) is there.
    let _ = std::fs::remove_dir(OUT_DIR);
    let report = match result {
        Ok(Some(r)) => r,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(trace) = &report.trace_json {
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
        let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, trace));
        match written {
            Ok(()) => println!("[trace] {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    for line in &report.info {
        println!("{line}");
    }
    for note in &report.check.notes {
        println!("[check] {note}");
    }
    println!(
        "[check] attempted={} failed={} failed_frac={:.6} unexplained={}",
        report.check.attempted,
        report.check.failed,
        report.check.failed_frac(),
        report.check.unexplained
    );
    for m in &report.metrics.0 {
        println!("[metric] {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&report.check, &report.metrics));
    ExitCode::SUCCESS
}
