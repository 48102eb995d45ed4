//! The repository benchmark. One command runs one workload and prints
//! every metric with its unit as the last line of standard output:
//!
//! ```text
//! cargo run --release --offline --manifest-path snbperf/Cargo.toml -- \
//!     --workload engine_matrix --seed 1 --seconds 18 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports the per-layer metrics. Why each
//! workload exists, and which layers are deliberately not covered, is in
//! `NOTES.md` beside this crate.

mod catalog;
mod ingest;
mod matrix;
mod stats;
mod tcp;
mod trace;
mod workload;
mod wrap;

use stats::{json_num, json_str, Metrics};
use std::path::Path;
use std::process::ExitCode;

/// Where a run leaves its report, cell table and trace.
pub const OUT_DIR: &str = ".bench_out";

pub const WORKLOADS: [&str; 3] = ["engine_matrix", "gremlin_tcp_hot", "ingest_reads"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// What a run measured and found.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check violations; any one makes the run incorrect.
    pub violations: Vec<String>,
    /// Failed operations (counted in `failed`) and other remarks.
    pub notes: Vec<String>,
    pub env: Vec<(String, String)>,
}

impl Outcome {
    pub fn violation(&mut self, v: String) {
        if self.violations.len() < 50 {
            eprintln!("check failed: {v}");
        }
        self.violations.push(v);
    }

    pub fn note(&mut self, n: String) {
        if self.notes.len() < 50 {
            eprintln!("note: {n}");
        }
        self.notes.push(n);
    }

    pub fn write_trace(&mut self, tracer: &trace::Tracer, workload: &str) {
        if let Err(e) = tracer.write(Path::new(OUT_DIR), workload) {
            self.note(format!("writing the trace: {e}"));
        }
    }
}

/// The commit being measured, read from `.git` in the working directory
/// when there is one (a plain source checkout has none).
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no .git in the working directory)".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(Path::new(".git").join(r)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .map(|l| l[..l.len() - r.len()].trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("snbperf: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    out.env.push(("workload".into(), args.workload.clone()));
    out.env.push(("seed".into(), args.seed.to_string()));
    out.env.push(("seconds".into(), args.seconds.to_string()));
    out.env
        .push(("trace".into(), (args.trace as u8).to_string()));
    out.env.push(("nproc".into(), nproc.to_string()));
    out.env.push(("git_sha".into(), git_sha()));
    match args.workload.as_str() {
        "engine_matrix" => matrix::run(&args, &mut out),
        "gremlin_tcp_hot" => tcp::run(&args, &mut out),
        _ => ingest::run(&args, &mut out),
    }
    let correct = out.violations.is_empty();
    // Exactly the catalog's metrics for this mode, in catalog order.
    let wanted: Vec<(String, &str)> = if args.trace {
        catalog::per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect()
    } else {
        catalog::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(name).unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    let env: Vec<String> = out
        .env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let report = format!(
        "{{\"env\": {{{}}}, \"violations\": {}, \"notes\": {}}}",
        env.join(", "),
        out.violations.len(),
        out.notes.len()
    );
    let _ = std::fs::create_dir_all(OUT_DIR);
    let _ = std::fs::write(
        Path::new(OUT_DIR).join(format!(
            "env-{}-trace{}.json",
            args.workload, args.trace as u8
        )),
        &report,
    );
    println!("{report}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
