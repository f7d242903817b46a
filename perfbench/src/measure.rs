//! Untraced runs: the end-to-end metrics.
//!
//! Every timing here comes from the benchmark's own `Instant` spans
//! around public calls; the simulator's telemetry stays off. Quantiles
//! are taken from these raw per-round samples only.

use crate::stats::{self, median, percentile, tail_percentile};
use crate::workloads::{mobility_trace, Workload, SETUP_BUILDS, SETUP_SECONDS};
use crate::Report;
use middle_core::{
    PopulationMode, RunRecord, ScenarioGrid, SharedInputs, SimConfig, SimError, Simulation,
    SimulationBuilder, StepMode, SweepOptions, SweepReport,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Scratch root for sweep state and checkpoints, under the working
/// directory and ignored by git.
const WORK_DIR: &str = ".perfbench_work";
use std::time::{Duration, Instant};

/// One tick-driven repeat of a workload.
pub struct Repeat {
    pub build_s: f64,
    pub tick_ms: Vec<f64>,
    pub record: RunRecord,
    pub peak_resident: usize,
}

impl Repeat {
    /// Host seconds from config to the end of round `rounds`.
    pub fn seconds_to_round(&self, rounds: usize) -> f64 {
        self.build_s + self.tick_ms[..rounds].iter().sum::<f64>() / 1e3
    }

    pub fn seconds(&self) -> f64 {
        self.seconds_to_round(self.tick_ms.len())
    }
}

/// Digest of a run record with every host-timing field removed: the
/// wall clock and the telemetry summary (whose latencies are host time).
pub fn record_digest(record: &RunRecord) -> u64 {
    let mut clean = record.clone();
    clean.wall_seconds = 0.0;
    clean.telemetry = None;
    let json = serde_json::to_string(&clean).expect("run records serialise");
    stats::fnv1a(json.as_bytes())
}

/// The homes a tick-driven workload's trace is generated around (they
/// follow from the fixed task instance's partition).
pub fn homes(cfg: &SimConfig) -> Vec<usize> {
    SharedInputs::build(cfg).homes().to_vec()
}

pub fn build(
    cfg: &SimConfig,
    homes: &[usize],
    seed: u64,
    telemetry: bool,
) -> Result<Simulation, SimError> {
    SimulationBuilder::new(cfg.clone())
        .with_trace(mobility_trace(cfg, homes, seed))
        .telemetry(telemetry)
        .build()
}

/// Builds, ticks to the horizon and finishes one run, timing the build
/// and every tick.
pub fn one_repeat(cfg: &SimConfig, homes: &[usize], seed: u64) -> Result<Repeat, String> {
    let t = Instant::now();
    let mut sim = build(cfg, homes, seed, false).map_err(|e| e.to_string())?;
    let build_s = t.elapsed().as_secs_f64();
    let mut tick_ms = Vec::with_capacity(cfg.steps);
    while !sim.is_finished() {
        let t = Instant::now();
        sim.tick(StepMode::Fast);
        tick_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let record = sim.finish();
    Ok(Repeat {
        build_s,
        tick_ms,
        record,
        peak_resident: sim.population().peak_resident(),
    })
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// The quality bars every run record must clear: the target is reached
/// and the final accuracy is above the workload's floor.
pub fn check_record(w: Workload, record: &RunRecord) -> Vec<String> {
    let mut bad = Vec::new();
    if record.time_to_accuracy(w.target()).is_none() {
        bad.push(format!("never reached target {}", w.target()));
    }
    let fin = record.final_accuracy();
    if fin < w.min_final_accuracy() {
        bad.push(format!(
            "final accuracy {fin} below floor {}",
            w.min_final_accuracy()
        ));
    }
    bad
}

/// The output check every tick-driven repeat must pass: the quality
/// bars, the same record as the seed's first repeat, and the lazy
/// population's residency bound. Returns the reasons it failed, if any.
pub fn check_repeat(w: Workload, cfg: &SimConfig, rep: &Repeat, first: Option<u64>) -> Vec<String> {
    let mut bad = check_record(w, &rep.record);
    if let Some(d) = first {
        if record_digest(&rep.record) != d {
            bad.push("record differs from the first repeat of the same seed".into());
        }
    }
    bad.extend(residency_check(cfg, rep.peak_resident));
    bad
}

/// A lazy population keeps at most `K*E*T_c` replicas resident.
pub fn residency_check(cfg: &SimConfig, peak_resident: usize) -> Option<String> {
    let bound = cfg.devices_per_edge * cfg.num_edges * cfg.cloud_interval;
    (cfg.population == PopulationMode::Lazy && peak_resident > bound)
        .then(|| format!("peak resident {peak_resident} exceeds K*E*T_c = {bound}"))
}

/// Should another unit of `last` seconds start, given the window?
fn another(done: usize, min: usize, start: Instant, last: f64, window: Duration) -> bool {
    done < min || start.elapsed().as_secs_f64() + last <= window.as_secs_f64()
}

pub fn run(w: Workload, seed: u64, window: Duration) -> Report {
    match w {
        Workload::AsyncSweep => run_sweep_workload(w, window),
        _ => run_ticks(w, seed, window),
    }
}

fn run_ticks(w: Workload, seed: u64, window: Duration) -> Report {
    let cfg = w.config();
    let homes = homes(&cfg);
    let mut report = Report::default();
    let mut setup_s = match setup_samples(|_| build(&cfg, &homes, seed, false)) {
        Ok(s) => s,
        Err(e) => {
            report.attempted = 1;
            report.failures.push(format!("set-up: {e}"));
            return report;
        }
    };

    let start = Instant::now();
    let mut reps: Vec<Repeat> = Vec::new();
    let mut first_digest = None;
    let mut last = 0.0;
    let mut tries = 0;
    while another(tries, w.min_repeats(), start, last, window) {
        tries += 1;
        report.attempted += 1;
        let t = Instant::now();
        match guarded(|| one_repeat(&cfg, &homes, seed)) {
            Ok(rep) => {
                let bad = check_repeat(w, &cfg, &rep, first_digest);
                first_digest.get_or_insert(record_digest(&rep.record));
                if !bad.is_empty() {
                    report.failures.push(bad.join("; "));
                }
                setup_s.push(rep.build_s);
                reps.push(rep);
            }
            Err(e) => report.failures.push(e),
        }
        last = t.elapsed().as_secs_f64();
    }
    if reps.is_empty() {
        return report;
    }

    let rounds = w.rounds();
    let ticks: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.tick_ms.iter().copied())
        .collect();
    let q = tail_percentile(w.min_repeats() * rounds).expect("tick workloads have >= 20 rounds");
    let first = &reps[0].record;
    let target_round = first.time_to_accuracy(w.target()).unwrap_or(rounds);
    report.metric("setup_s", median(&setup_s), "s");
    report.metric(
        "rounds_per_s",
        median(
            &reps
                .iter()
                .map(|r| rounds as f64 / r.seconds())
                .collect::<Vec<_>>(),
        ),
        "1/s",
    );
    report.metric("round_ms_p50", median(&ticks), "ms");
    report.metric("round_ms_tail", percentile(&ticks, q), "ms");
    report.metric(
        "time_to_target_s",
        median(
            &reps
                .iter()
                .map(|r| r.seconds_to_round(target_round))
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    report.metric("rounds_to_target", target_round as f64, "rounds");
    report.metric(
        "final_accuracy",
        f64::from(first.final_accuracy()),
        "fraction",
    );
    report.metric(
        "peak_rss_mb",
        stats::peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    );
    report.note(|j| {
        j.num("round_ms_tail_percentile", q)
            .int("round_samples", ticks.len() as u64)
            .int("repeats", reps.len() as u64)
            .int("setup_samples", setup_s.len() as u64)
            .num("target_accuracy", f64::from(w.target()))
            .str("record_digest", &format!("{:016x}", record_digest(first)))
    });
    report
}

/// A fresh scratch directory (sweep state, checkpoints) inside the
/// working directory. It must not exist yet: a leftover
/// `sweep_state.json` would make `run_sweep` resume and skip finished
/// scenarios.
pub fn fresh_work_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(WORK_DIR).join(format!("{tag}-{}", std::process::id()));
    if dir.exists() {
        return Err(format!(
            "scratch directory {} already exists",
            dir.display()
        ));
    }
    Ok(dir)
}

/// Removes a directory from [`fresh_work_dir`], and the scratch root
/// once it is empty.
pub fn remove_work_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir(WORK_DIR);
}

pub fn sweep_options(dir: PathBuf) -> SweepOptions {
    SweepOptions {
        threads: 1,
        checkpoint_dir: Some(dir),
        checkpoint_every: 5,
        ..SweepOptions::default()
    }
}

/// Runs the grid once through `run_sweep` in a fresh state directory and
/// checks that every scenario was computed in this invocation.
pub fn one_sweep(grid: &ScenarioGrid, tag: &str) -> Result<SweepReport, String> {
    let dir = fresh_work_dir(tag)?;
    let result = middle_core::run_sweep(grid, &sweep_options(dir.clone()));
    remove_work_dir(&dir);
    let report = result.map_err(|e| e.to_string())?;
    let n = grid.scenarios().map_err(|e| e.to_string())?.len();
    if !report.complete || report.scenarios.len() != n {
        return Err(format!(
            "sweep incomplete: {} of {n}",
            report.scenarios.len()
        ));
    }
    // Each scenario asks the input cache exactly once when it is built;
    // one resumed from a ledger is never built.
    if report.cache_hits + report.cache_misses != n as u64 {
        return Err(format!(
            "only {} of {n} scenarios were computed in this invocation",
            report.cache_hits + report.cache_misses
        ));
    }
    Ok(report)
}

/// [`check_record`] with the scenario's label on each reason.
pub fn check_scenario(w: Workload, label: &str, record: &RunRecord) -> Vec<String> {
    check_record(w, record)
        .into_iter()
        .map(|b| format!("{label}: {b}"))
        .collect()
}

/// Build times of `build(i)` for i = 0, 1, ..., at least
/// [`SETUP_BUILDS`] of them and for at least [`SETUP_SECONDS`]. Each
/// simulation is dropped before the next is built.
fn setup_samples(
    mut build: impl FnMut(usize) -> Result<Simulation, SimError>,
) -> Result<Vec<f64>, SimError> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_BUILDS
        || (start.elapsed().as_secs_f64() < SETUP_SECONDS && samples.len() < 1000)
    {
        let t = Instant::now();
        let sim = build(samples.len())?;
        samples.push(t.elapsed().as_secs_f64());
        drop(sim);
    }
    Ok(samples)
}

fn run_sweep_workload(w: Workload, window: Duration) -> Report {
    let grid = w.grid(false);
    let mut report = Report::default();
    let scenarios = match grid.scenarios() {
        Ok(s) => s,
        Err(e) => {
            report.attempted = 1;
            report.failures.push(e.to_string());
            return report;
        }
    };
    // Set-up runs inside `run_sweep`; it is timed on the grid's scenario
    // configs built standalone, in turn.
    let setup_s = match setup_samples(|i| {
        SimulationBuilder::new(scenarios[i % scenarios.len()].config.clone()).build()
    }) {
        Ok(s) => median(&s),
        Err(e) => {
            report.attempted = scenarios.len() as u64;
            report.failures.push(format!("set-up: {e}"));
            return report;
        }
    };

    let start = Instant::now();
    let mut sweeps: Vec<SweepReport> = Vec::new();
    let mut last = 0.0;
    let mut first_digests: Option<Vec<u64>> = None;
    let mut n = 0;
    while another(n, w.min_repeats(), start, last, window) {
        n += 1;
        report.attempted += scenarios.len() as u64;
        let t = Instant::now();
        match guarded(|| one_sweep(&grid, &format!("sweep{n}"))) {
            Ok(sweep) => {
                let digests: Vec<u64> = sweep
                    .scenarios
                    .iter()
                    .map(|s| record_digest(&s.record))
                    .collect();
                for (i, s) in sweep.scenarios.iter().enumerate() {
                    let mut bad = check_scenario(w, &s.label, &s.record);
                    if first_digests.as_ref().is_some_and(|d| d[i] != digests[i]) {
                        bad.push(format!("{}: record differs from the first sweep", s.label));
                    }
                    if !bad.is_empty() {
                        report.failures.push(bad.join("; "));
                    }
                }
                first_digests.get_or_insert(digests);
                sweeps.push(sweep);
            }
            Err(e) => {
                for s in &scenarios {
                    report.failures.push(format!("{}: {e}", s.label));
                }
            }
        }
        last = t.elapsed().as_secs_f64();
    }
    if sweeps.is_empty() {
        return report;
    }

    let rounds = w.rounds();
    let round_ms: Vec<f64> = sweeps
        .iter()
        .flat_map(|s| s.scenarios.iter())
        .map(|s| s.record.wall_seconds * 1e3 / rounds as f64)
        .collect();
    let records: Vec<&RunRecord> = sweeps[0].scenarios.iter().map(|s| &s.record).collect();
    let target_rounds: Vec<f64> = records
        .iter()
        .map(|r| r.time_to_accuracy(w.target()).unwrap_or(rounds) as f64)
        .collect();
    // `run_sweep` hides per-round timing, so a scenario's time to target
    // prorates its tick wall over the rounds it took.
    let to_target: Vec<f64> = sweeps
        .iter()
        .map(|s| {
            stats::mean(
                &s.scenarios
                    .iter()
                    .zip(&target_rounds)
                    .map(|(sc, &r)| setup_s + sc.record.wall_seconds * r / rounds as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    // With four scenarios per sweep no percentile has ten samples beyond
    // it; the tail is then the slowest scenario's mean round.
    let (tail, q) = match tail_percentile(round_ms.len()) {
        Some(q) => (percentile(&round_ms, q), q),
        None => (percentile(&round_ms, 100.0), 100.0),
    };
    report.metric("setup_s", setup_s, "s");
    report.metric(
        "rounds_per_s",
        median(
            &sweeps
                .iter()
                .map(|s| (s.scenarios.len() * rounds) as f64 / s.wall_seconds)
                .collect::<Vec<_>>(),
        ),
        "1/s",
    );
    report.metric("round_ms_p50", median(&round_ms), "ms");
    report.metric("round_ms_tail", tail, "ms");
    report.metric("time_to_target_s", median(&to_target), "s");
    report.metric("rounds_to_target", stats::mean(&target_rounds), "rounds");
    report.metric(
        "final_accuracy",
        stats::mean(
            &records
                .iter()
                .map(|r| f64::from(r.final_accuracy()))
                .collect::<Vec<_>>(),
        ),
        "fraction",
    );
    report.metric(
        "peak_rss_mb",
        stats::peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    );
    let per_scenario: Vec<String> = sweeps[0]
        .scenarios
        .iter()
        .zip(&target_rounds)
        .map(|(s, r)| {
            format!(
                "{}: target at {r}, final {}",
                s.label,
                s.record.final_accuracy()
            )
        })
        .collect();
    report.note(|j| {
        j.num("round_ms_tail_percentile", q)
            .int("round_samples", round_ms.len() as u64)
            .str("round_sample_kind", "per-scenario mean tick time")
            .strs("scenarios", &per_scenario)
            .int("sweeps", sweeps.len() as u64)
            .num("target_accuracy", f64::from(w.target()))
    });
    report
}
