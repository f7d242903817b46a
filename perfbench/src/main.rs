//! End-to-end and per-layer benchmark of the MIDDLE simulator.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_mnist --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One workload per process. `--trace 0` measures the end-to-end metrics
//! with the simulator's telemetry off, starting another full repeat (a
//! sweep on `async_sweep`) only while it fits in `--seconds`, after the
//! workload's minimum; `--trace 1` makes the separate, fixed-length
//! traced run that yields the per-layer numbers. Standard output ends
//! with one JSON line: `correct`, `attempted`, `failed` and `metrics`
//! (each metric a `value` and a `unit`). The lines before it give the
//! run's provenance and details (tail percentile, sample counts,
//! failure reasons). Absolute numbers compare only within one
//! provenance fingerprint.

mod measure;
mod stats;
mod traced;
mod workloads;

use stats::Json;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Workload, HELD_OUT_SEED, TASK_SEED};

const USAGE: &str = "usage: perfbench --workload <paper_mnist|crowd_lazy|async_sweep> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

/// What one run measured and how many of its attempts failed.
#[derive(Default)]
pub struct Report {
    /// Runs attempted (scenarios on `async_sweep`).
    pub attempted: u64,
    /// One reason per failed run.
    pub failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    details: Json,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Adds detail fields to the line printed before the result.
    pub fn note(&mut self, f: impl FnOnce(Json) -> Json) {
        self.details = f(std::mem::take(&mut self.details));
    }

    fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .fold(Json::default(), |j, &(name, value, unit)| {
                j.raw(
                    name,
                    &Json::default()
                        .num("value", value)
                        .str("unit", unit)
                        .finish(),
                )
            })
            .finish();
        Json::default()
            .bool("correct", self.attempted > 0 && self.failures.is_empty())
            .int("attempted", self.attempted)
            .int("failed", self.failures.len() as u64)
            .raw("metrics", &metrics)
            .finish()
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The SIMD tier the tensor kernels dispatch to, probed exactly as
/// `simd_dispatch!` probes it.
fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "baseline"
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; "unavailable" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unavailable".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unavailable".into())
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fingerprint = Json::default()
        .int("nproc", nproc as u64)
        .str("cpu_model", &cpu_model())
        .str("simd_tier", simd_tier())
        .str("rustc", env!("PERFBENCH_RUSTC"))
        .str("git_commit", &git_commit())
        .finish();
    let provenance = Json::default()
        .str("workload", args.workload.name())
        .str("why", args.workload.why())
        .int("seed", args.seed)
        .int("held_out_seed", HELD_OUT_SEED)
        .int("task_seed", TASK_SEED)
        .int("seconds", args.seconds)
        .bool("trace", args.trace)
        .raw("environment", &fingerprint)
        .finish();
    Json::default().raw("provenance", &provenance).finish()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    let mut report = if args.trace {
        traced::run(args.workload, args.seed)
    } else {
        measure::run(args.workload, args.seed, Duration::from_secs(args.seconds))
    };
    let details = std::mem::take(&mut report.details).strs("failures", &report.failures);
    println!(
        "{}",
        Json::default().raw("details", &details.finish()).finish()
    );
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
