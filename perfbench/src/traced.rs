//! The traced run: per-layer metrics.
//!
//! Three sources, all reached through public functions:
//! - benchmark-side spans around `build`, every `tick` and the
//!   checkpoint calls of one traced pass;
//! - the phase totals and counters of the simulator's own
//!   `TelemetryReport`, switched on with `SimulationBuilder::telemetry`
//!   (exact totals only; its log2-bucket quantiles are never read);
//! - layer calls replayed at the workload's shapes.
//!
//! An untraced twin of the traced simulation ticks in alternation with
//! it, so the run reports its own tracing overhead and checks that
//! telemetry leaves the record bit-for-bit unchanged.

use crate::measure::{self, check_scenario, guarded, one_sweep, record_digest};
use crate::stats::median;
use crate::workloads::{mobility_trace, Workload};
use crate::Report;
use middle_core::aggregation::{cloud_aggregate_into, edge_aggregate_into, on_device_init_into};
use middle_core::{
    select_devices, similarity_utility, CommStats, CompressionPlane, Device, OnDevicePolicy, Phase,
    RunRecord, SimCheckpoint, SimConfig, Simulation, SimulationBuilder, StepMode, TelemetryReport,
};
use middle_data::{partition, train_test, Dataset, SyntheticSource};
use middle_nn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use middle_nn::loss::softmax_cross_entropy_into;
use middle_nn::{zoo, Layer, LayerWs, NetScratch, Sequential};
use middle_tensor::conv::{im2col_batch, ConvGeometry};
use middle_tensor::matmul::{matmul_bt_into, matmul_into};
use middle_tensor::random::{derive_seed, rng};
use middle_tensor::Tensor;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Event kinds in `TelemetryReport::events`, as the timeline labels them.
const EVENT_KINDS: [(&str, &str); 5] = [
    ("step_boundary", "timeline.step_boundary_host_ms"),
    ("device_upload", "timeline.device_upload_host_ms"),
    ("edge_aggregate", "timeline.edge_aggregate_host_ms"),
    ("cloud_sync", "timeline.cloud_sync_host_ms"),
    ("end_of_step", "timeline.end_of_step_host_ms"),
];

/// Median nanoseconds per call of `f`, over batches of calls that each
/// last at least ~2 ms (at least 9 batches, at least 5 calls total).
fn time_ns(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-7);
    let per_batch = ((2e-3 / once).ceil() as usize).clamp(1, 100_000);
    let batches = if once > 0.05 { 5 } else { 9 };
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / per_batch as f64
        })
        .collect();
    median(&samples)
}

pub fn run(w: Workload, seed: u64) -> Report {
    let mut report = Report::default();
    let cfg = w.config();
    let homes = measure::homes(&cfg);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let pass = match w {
        Workload::AsyncSweep => sweep_pass(w, &mut report),
        _ => tick_pass(w, &cfg, &homes, seed, &mut report),
    };
    let replay = match guarded(|| replays(&cfg, &homes, seed)) {
        Ok(r) => Some(r),
        Err(e) => {
            report.failures.push(format!("layer replay: {e}"));
            None
        }
    };
    let (Some(pass), Some(replay)) = (pass, replay) else {
        return report;
    };

    let tel = &pass.telemetry;
    let phase_ms = |p: Phase| tel.phase(p).map_or(0.0, |s| s.total_ns as f64 / 1e6);
    let phase_total: f64 = Phase::ALL.iter().map(|&p| phase_ms(p)).sum();
    let rounds = pass.rounds as f64;
    let participations = tel.counters.selected as f64;

    // tensor: kernels at the MNIST CNN's conv shapes and the Speech MLP's
    // dense shapes, whatever the workload.
    report.metric("tensor.gemm_conv_ns", replay.gemm_conv_ns, "ns");
    report.metric(
        "tensor.gemm_conv_gflops",
        replay.gemm_conv_flops / replay.gemm_conv_ns,
        "GFLOP/s",
    );
    report.metric("tensor.im2col_batch_ns", replay.im2col_ns, "ns");
    report.metric("tensor.im2col_bytes", replay.im2col_bytes, "bytes");
    report.metric("tensor.gemm_dense_ns", replay.gemm_dense_ns, "ns");
    // nn: the workload's model at its batch size.
    report.metric("nn.train_batch_ms", replay.train_batch_ms, "ms");
    report.metric("nn.fwd_ms", replay.fwd_ms, "ms");
    report.metric("nn.bwd_ms", replay.bwd_ms, "ms");
    report.metric("nn.opt_ms", replay.opt_ms, "ms");
    report.metric("nn.conv_frac", replay.conv_frac, "fraction");
    report.metric("nn.infer_ms", replay.infer_ms, "ms");
    // device
    report.metric("device.local_train_warm_ms", replay.warm_ms, "ms");
    report.metric("device.local_train_cold_ms", replay.cold_ms, "ms");
    report.metric("device.participations", participations, "count");
    // sim: phase totals per round, and the round's own accounting.
    for p in Phase::ALL {
        report.metric(phase_metric(p), phase_ms(p) / rounds, "ms");
    }
    report.metric("sim.round_ms", pass.tick_ms / rounds, "ms");
    report.metric(
        "sim.unattributed_frac",
        (pass.tick_ms - phase_total) / pass.tick_ms,
        "fraction",
    );
    report.metric(
        "sim.local_training_frac",
        phase_ms(Phase::LocalTraining) / pass.tick_ms,
        "fraction",
    );
    report.metric(
        "sim.train_parallel_eff",
        participations * replay.warm_ms / (phase_ms(Phase::LocalTraining) * threads),
        "fraction",
    );
    report.metric("trace.rounds_per_s_untraced", pass.untraced_rps, "1/s");
    report.metric("trace.rounds_per_s_traced", pass.traced_rps, "1/s");
    report.metric(
        "trace.overhead_rounds_per_s",
        pass.traced_rps - pass.untraced_rps,
        "1/s",
    );
    // selection / similarity / aggregation
    report.metric("selection.select_us", replay.select_us, "us");
    report.metric(
        "selection.candidates_scored",
        tel.counters.candidates_seen as f64,
        "count",
    );
    report.metric("similarity.utility_ns", replay.utility_ns, "ns");
    report.metric("aggregation.edge_us", replay.edge_us, "us");
    report.metric("aggregation.cloud_us", replay.cloud_us, "us");
    report.metric("aggregation.on_device_us", replay.on_device_us, "us");
    // population
    report.metric(
        "population.peak_resident",
        pass.peak_resident as f64,
        "count",
    );
    report.metric(
        "population.resident_frac",
        pass.peak_resident as f64 / cfg.num_devices as f64,
        "fraction",
    );
    // data / mobility / builder
    report.metric("data.synth_ms", replay.synth_ms, "ms");
    report.metric("data.partition_ms", replay.partition_ms, "ms");
    report.metric("mobility.trace_ms", replay.trace_ms, "ms");
    report.metric("builder.build_ms", pass.build_ms, "ms");
    // comm
    let c = &pass.comm;
    report.metric("comm.uplink_bytes", c.uplink_bytes() as f64, "bytes");
    report.metric(
        "comm.downlink_bytes",
        (c.edge_to_device_bytes + c.cloud_to_edge_bytes + c.cloud_to_device_bytes) as f64,
        "bytes",
    );
    report.metric("comm.wan_bytes", c.wan_bytes() as f64, "bytes");
    // compress
    report.metric("compress.ratio", replay.compress_ratio, "ratio");
    report.metric("compress.upload_us", replay.compress_us, "us");
    // faults: every trained device sends one update, retransmissions
    // included in the attempts; lost ones never arrive, late ones still
    // merge.
    let retransmissions = tel.counters.upload_retransmissions as f64;
    report.metric(
        "faults.delivered_frac",
        (participations - c.lost_uploads as f64) / (participations + retransmissions),
        "fraction",
    );
    report.metric("faults.retransmissions", retransmissions, "count");
    report.metric(
        "faults.stale_merges",
        tel.counters.stale_merges as f64,
        "count",
    );
    // timeline
    report.metric(
        "timeline.events",
        tel.events.iter().map(|e| e.count).sum::<u64>() as f64,
        "count",
    );
    for (label, name) in EVENT_KINDS {
        let ms = tel
            .events
            .iter()
            .find(|e| e.phase == label)
            .map_or(0.0, |e| e.total_ns as f64 / 1e6);
        report.metric(name, ms, "ms");
    }
    // checkpoint
    report.metric("checkpoint.save_ms", pass.save_ms, "ms");
    report.metric("checkpoint.restore_ms", pass.restore_ms, "ms");
    report.metric("checkpoint.bytes", pass.checkpoint_bytes, "bytes");
    report.metric("checkpoint.taken", pass.checkpoints_taken, "count");
    report.metric(
        "checkpoint.wall_share",
        pass.save_ms * pass.checkpoints_taken / (pass.wall_s * 1e3),
        "fraction",
    );
    // sweep (zero where no sweep runs)
    report.metric("sweep.busy_frac", pass.sweep_busy_frac, "fraction");
    report.metric("sweep.cache_hit_ratio", pass.cache_hit_ratio, "fraction");
    report.metric(
        "sweep.unattributed_frac",
        pass.sweep_unattributed_frac,
        "fraction",
    );

    report.note(|j| {
        j.num("threads", threads)
            .num("round_phase_sum_ms", phase_total / rounds)
            .num("round_rest_ms", (pass.tick_ms - phase_total) / rounds)
            .num(
                "tracing_overhead_frac",
                1.0 - pass.traced_rps / pass.untraced_rps,
            )
    });
    report
}

fn phase_metric(p: Phase) -> &'static str {
    match p {
        Phase::FaultRecovery => "sim.fault_recovery_ms",
        Phase::Selection => "sim.selection_ms",
        Phase::DeviceInit => "sim.device_init_ms",
        Phase::LocalTraining => "sim.local_training_ms",
        Phase::EdgeAggregation => "sim.edge_aggregation_ms",
        Phase::Compress => "sim.compress_ms",
        Phase::CloudSync => "sim.cloud_sync_ms",
        Phase::Evaluation => "sim.evaluation_ms",
    }
}

/// What the traced pass (plus its untraced twin) observed.
struct Pass {
    rounds: usize,
    telemetry: TelemetryReport,
    comm: CommStats,
    /// Σ of the benchmark's tick spans (Σ scenario tick walls on a sweep).
    tick_ms: f64,
    /// Wall the checkpoint share is taken of: the traced simulation's
    /// build and ticks, or the sweep's wall.
    wall_s: f64,
    build_ms: f64,
    untraced_rps: f64,
    traced_rps: f64,
    peak_resident: usize,
    save_ms: f64,
    restore_ms: f64,
    checkpoint_bytes: f64,
    checkpoints_taken: f64,
    sweep_busy_frac: f64,
    cache_hit_ratio: f64,
    sweep_unattributed_frac: f64,
}

/// Checks the telemetry counters against the communication ledger.
fn check_ledger(label: &str, record: &RunRecord) -> Vec<String> {
    let Some(t) = &record.telemetry else {
        return vec![format!("{label}: traced run has no telemetry report")];
    };
    let (c, n) = (&record.comm, &t.counters);
    let mut bad = Vec::new();
    if n.uploads != c.device_to_edge {
        bad.push(format!(
            "{label}: telemetry uploads {} != ledger {}",
            n.uploads, c.device_to_edge
        ));
    }
    if n.downloads != c.edge_to_device {
        bad.push(format!(
            "{label}: telemetry downloads {} != ledger {}",
            n.downloads, c.edge_to_device
        ));
    }
    if n.syncs != record.syncs {
        bad.push(format!(
            "{label}: telemetry syncs {} != record {}",
            n.syncs, record.syncs
        ));
    }
    bad
}

/// Checkpoints `sim`, writes the JSON, restores it into `fresh` and checks
/// the round trip. Returns (save ms, restore ms, bytes).
fn checkpoint_round_trip(
    sim: &Simulation,
    mut fresh: Simulation,
) -> Result<(f64, f64, f64), String> {
    let dir = measure::fresh_work_dir("ckpt")?;
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join("checkpoint.json");
    let t = Instant::now();
    let json = sim.checkpoint().to_json();
    let written = std::fs::write(&path, &json);
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let restored = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| SimCheckpoint::from_json(&text))
        .and_then(|ck| fresh.restore(&ck).map_err(|e| e.to_string()));
    let restore_ms = t.elapsed().as_secs_f64() * 1e3;
    measure::remove_work_dir(&dir);
    written.map_err(|e| e.to_string())?;
    restored?;
    if fresh.checkpoint().to_json() != json {
        return Err("checkpoint does not survive a restore round trip".into());
    }
    Ok((save_ms, restore_ms, json.len() as f64))
}

/// An untraced and a traced simulation of one config, built and ticked
/// alternately so drift in host speed and allocator warm-up fall on both
/// alike. Halfway, the untraced one is checkpointed and restored into a
/// fresh build.
struct Paired {
    untraced: RunRecord,
    traced: RunRecord,
    /// Build + Σ tick seconds of each side.
    untraced_s: f64,
    traced_s: f64,
    traced_build_ms: f64,
    traced_tick_ms: f64,
    checkpoint: (f64, f64, f64),
    peak_resident: usize,
}

fn paired(build: impl Fn(bool) -> Result<Simulation, String>) -> Result<Paired, String> {
    let timed_build = |telemetry| {
        let t = Instant::now();
        build(telemetry).map(|sim| (sim, t.elapsed().as_secs_f64()))
    };
    let (mut plain, mut plain_s) = timed_build(false)?;
    let (mut traced, traced_build_s) = timed_build(true)?;
    let (mut traced_tick_s, mut checkpoint) = (0.0, (0.0, 0.0, 0.0));
    let steps = plain.config().steps;
    while !traced.is_finished() {
        let t = Instant::now();
        plain.tick(StepMode::Fast);
        plain_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        traced.tick(StepMode::Fast);
        traced_tick_s += t.elapsed().as_secs_f64();
        if plain.next_step() == steps / 2 {
            checkpoint = checkpoint_round_trip(&plain, build(false)?)?;
        }
    }
    Ok(Paired {
        untraced: plain.finish(),
        traced: traced.finish(),
        untraced_s: plain_s,
        traced_s: traced_build_s + traced_tick_s,
        traced_build_ms: traced_build_s * 1e3,
        traced_tick_ms: traced_tick_s * 1e3,
        checkpoint,
        peak_resident: traced.population().peak_resident(),
    })
}

fn tick_pass(
    w: Workload,
    cfg: &SimConfig,
    homes: &[usize],
    seed: u64,
    report: &mut Report,
) -> Option<Pass> {
    report.attempted = 2;
    let p = match guarded(|| {
        paired(|t| measure::build(cfg, homes, seed, t).map_err(|e| e.to_string()))
    }) {
        Ok(p) => p,
        Err(e) => {
            report.failures.push(e);
            None?
        }
    };
    for (label, record) in [("untraced pass", &p.untraced), ("traced pass", &p.traced)] {
        let mut bad = measure::check_record(w, record);
        if label == "traced pass" {
            bad.extend(check_ledger(label, record));
            bad.extend(measure::residency_check(cfg, p.peak_resident));
            if record_digest(record) != record_digest(&p.untraced) {
                bad.push("telemetry changed the run record".into());
            }
        }
        if !bad.is_empty() {
            report.failures.push(format!("{label}: {}", bad.join("; ")));
        }
    }
    let rounds = cfg.steps as f64;
    let (save_ms, restore_ms, bytes) = p.checkpoint;
    Some(Pass {
        rounds: cfg.steps,
        telemetry: p.traced.telemetry.clone()?,
        comm: p.traced.comm,
        tick_ms: p.traced_tick_ms,
        wall_s: p.traced_s,
        build_ms: p.traced_build_ms,
        untraced_rps: rounds / p.untraced_s,
        traced_rps: rounds / p.traced_s,
        peak_resident: p.peak_resident,
        save_ms,
        restore_ms,
        checkpoint_bytes: bytes,
        checkpoints_taken: 1.0,
        sweep_busy_frac: 0.0,
        cache_hit_ratio: 0.0,
        sweep_unattributed_frac: 0.0,
    })
}

/// Sums the telemetry of several runs (phase and event totals, counters).
fn merge_telemetry(reports: &[&TelemetryReport]) -> TelemetryReport {
    let mut out = reports[0].clone();
    for r in &reports[1..] {
        for (a, b) in out.phases.iter_mut().zip(&r.phases) {
            a.count += b.count;
            a.total_ns += b.total_ns;
        }
        for e in &r.events {
            match out.events.iter_mut().find(|x| x.phase == e.phase) {
                Some(x) => {
                    x.count += e.count;
                    x.total_ns += e.total_ns;
                }
                None => out.events.push(e.clone()),
            }
        }
        let (c, d) = (&mut out.counters, &r.counters);
        c.selected += d.selected;
        c.candidates_seen += d.candidates_seen;
        c.uploads += d.uploads;
        c.downloads += d.downloads;
        c.syncs += d.syncs;
        c.upload_retransmissions += d.upload_retransmissions;
        c.stale_merges += d.stale_merges;
    }
    out
}

fn sweep_pass(w: Workload, report: &mut Report) -> Option<Pass> {
    let grid = w.grid(true);
    let scenarios = grid.scenarios().ok()?;
    report.attempted = scenarios.len() as u64 + 2;
    let sweep = match guarded(|| one_sweep(&grid, "traced")) {
        Ok(s) => s,
        Err(e) => {
            report.failures.push(format!("traced sweep: {e}"));
            None?
        }
    };
    for s in &sweep.scenarios {
        let mut bad = check_scenario(w, &s.label, &s.record);
        bad.extend(check_ledger(&s.label, &s.record));
        if !bad.is_empty() {
            report.failures.push(bad.join("; "));
        }
    }

    // The first scenario again, standalone: untraced and traced twins for
    // the tracing overhead, and the untraced twin checkpointed halfway
    // with uploads in flight on the event timeline. Both twins repeat the
    // sweep's seed, so their records must equal the sweep's.
    let first = &sweep.scenarios[0];
    let p = match guarded(|| {
        paired(|telemetry| {
            let mut cfg = scenarios[0].config.clone();
            cfg.telemetry = telemetry;
            SimulationBuilder::new(cfg)
                .build()
                .map_err(|e| e.to_string())
        })
    }) {
        Ok(p) => p,
        Err(e) => {
            report
                .failures
                .push(format!("{}: standalone twins: {e}", first.label));
            None?
        }
    };
    for twin in [&p.untraced, &p.traced] {
        if record_digest(twin) != record_digest(&first.record) {
            report.failures.push(format!(
                "{}: standalone run differs from the sweep's",
                first.label
            ));
        }
    }

    let steps = w.rounds();
    let every = measure::sweep_options(Default::default()).checkpoint_every;
    let per_scenario = (1..steps).filter(|s| s % every == 0).count();
    let records: Vec<&RunRecord> = sweep.scenarios.iter().map(|s| &s.record).collect();
    let tels: Vec<&TelemetryReport> = records
        .iter()
        .filter_map(|r| r.telemetry.as_ref())
        .collect();
    if tels.len() != records.len() {
        return None;
    }
    let mut comm = CommStats::default();
    for r in &records {
        comm.merge(&r.comm);
    }
    let scen_wall: f64 = records.iter().map(|r| r.wall_seconds).sum();
    let (save_ms, restore_ms, bytes) = p.checkpoint;
    Some(Pass {
        rounds: steps * records.len(),
        telemetry: merge_telemetry(&tels),
        comm,
        tick_ms: scen_wall * 1e3,
        wall_s: sweep.wall_seconds,
        build_ms: p.traced_build_ms,
        untraced_rps: steps as f64 / p.untraced_s,
        traced_rps: steps as f64 / p.traced_s,
        peak_resident: p.peak_resident,
        save_ms,
        restore_ms,
        checkpoint_bytes: bytes,
        checkpoints_taken: (per_scenario * records.len()) as f64,
        sweep_busy_frac: scen_wall / (sweep.wall_seconds * sweep.threads as f64),
        cache_hit_ratio: sweep.cache_hits as f64
            / (sweep.cache_hits + sweep.cache_misses).max(1) as f64,
        sweep_unattributed_frac: (sweep.wall_seconds - scen_wall) / sweep.wall_seconds,
    })
}

/// Layer timings replayed at a workload's shapes.
struct Replay {
    gemm_conv_ns: f64,
    gemm_conv_flops: f64,
    im2col_ns: f64,
    im2col_bytes: f64,
    gemm_dense_ns: f64,
    train_batch_ms: f64,
    fwd_ms: f64,
    bwd_ms: f64,
    opt_ms: f64,
    conv_frac: f64,
    infer_ms: f64,
    warm_ms: f64,
    cold_ms: f64,
    select_us: f64,
    utility_ns: f64,
    edge_us: f64,
    cloud_us: f64,
    on_device_us: f64,
    synth_ms: f64,
    partition_ms: f64,
    trace_ms: f64,
    compress_ratio: f64,
    compress_us: f64,
}

fn random_vec(r: &mut rand::rngs::StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| r.gen::<f32>() - 0.5).collect()
}

/// Median over `samples` calls of `f`, which times its own measured part
/// (after any untimed preparation) and returns it in nanoseconds. For
/// calls long enough, tens of microseconds and up, that one `Instant`
/// pair resolves them.
fn time_each(samples: usize, f: impl FnMut(usize) -> f64) -> f64 {
    median(&(0..samples).map(f).collect::<Vec<_>>())
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e9
}

/// The workload model's layers, built one by one from the public layer
/// constructors so each can be timed; checked against the zoo model.
fn layer_stack(cfg: &SimConfig, model: &Sequential) -> Result<Vec<Box<dyn Layer>>, String> {
    let spec = cfg.task.spec();
    let r = &mut rng(derive_seed(cfg.seed, 5));
    let layers: Vec<Box<dyn Layer>> = match zoo_kind(cfg) {
        ZooKind::Cnn2 => {
            let (g1, g2) = cnn2_geometry(spec.channels, spec.height, spec.width);
            let feat = 16 * (spec.height / 4) * (spec.width / 4);
            vec![
                Box::new(Conv2d::new(g1, r)),
                Box::new(Relu::new()),
                Box::new(MaxPool2d::new(2)),
                Box::new(Conv2d::new(g2, r)),
                Box::new(Relu::new()),
                Box::new(MaxPool2d::new(2)),
                Box::new(Flatten::new()),
                Box::new(Dense::new(feat, 64, r)),
                Box::new(Relu::new()),
                Box::new(Dense::new(64, spec.classes, r)),
            ]
        }
        ZooKind::Mlp64 => vec![
            Box::new(Flatten::new()),
            Box::new(Dense::new(spec.features(), 64, r)),
            Box::new(Relu::new()),
            Box::new(Dense::new(64, 32, r)),
            Box::new(Relu::new()),
            Box::new(Dense::new(32, spec.classes, r)),
        ],
    };
    let names: Vec<&str> = layers.iter().map(|l| l.name()).collect();
    let params: usize = layers
        .iter()
        .flat_map(|l| l.params())
        .map(|p| p.len())
        .sum();
    if names != model.layer_names() || params != model.param_count() {
        return Err(format!(
            "layer replay {names:?} ({params} params) no longer matches the zoo model {:?} ({} params)",
            model.layer_names(),
            model.param_count()
        ));
    }
    Ok(layers)
}

enum ZooKind {
    Cnn2,
    Mlp64,
}

fn zoo_kind(cfg: &SimConfig) -> ZooKind {
    match cfg.task.name() {
        "speech" => ZooKind::Mlp64,
        _ => ZooKind::Cnn2,
    }
}

/// The two conv layers of `zoo::cnn2` on a `c x h x w` input.
fn cnn2_geometry(c: usize, h: usize, w: usize) -> (ConvGeometry, ConvGeometry) {
    let g1 = ConvGeometry {
        in_c: c,
        out_c: 8,
        kernel: 3,
        stride: 1,
        pad: 1,
        in_h: h,
        in_w: w,
    };
    let g2 = ConvGeometry {
        in_c: 8,
        out_c: 16,
        kernel: 3,
        stride: 1,
        pad: 1,
        in_h: h / 2,
        in_w: w / 2,
    };
    (g1, g2)
}

/// Forward, backward and optimizer time of one training batch through
/// the layer stack: (fwd ms, bwd ms, opt ms, conv share of fwd+bwd).
fn layer_split(
    cfg: &SimConfig,
    layers: &mut [Box<dyn Layer>],
    x: &Tensor,
    y: &[usize],
) -> (f64, f64, f64, f64) {
    let depth = layers.len();
    let mut ws = vec![LayerWs::default(); depth];
    let mut acts = vec![Tensor::zeros([0]); depth];
    let mut grads = vec![Tensor::zeros([0]); depth];
    let mut dlogits = Tensor::zeros([0]);
    let mut opt = cfg.optimizer.build();
    let (mut fwd, mut bwd, mut step, mut conv, mut all) = (vec![], vec![], vec![], 0.0, 0.0);
    for iter in 0..40 {
        let mut per_layer = vec![0.0; depth];
        let t = Instant::now();
        for i in 0..depth {
            let (prev, rest) = acts.split_at_mut(i);
            let input = if i == 0 { x } else { &prev[i - 1] };
            let tl = Instant::now();
            layers[i].forward_into(input, true, &mut ws[i], &mut rest[0]);
            per_layer[i] += tl.elapsed().as_secs_f64();
        }
        let f = t.elapsed().as_secs_f64();
        black_box(softmax_cross_entropy_into(
            &acts[depth - 1],
            y,
            &mut dlogits,
        ));
        let t = Instant::now();
        for i in (0..depth).rev() {
            let input = if i == 0 { x } else { &acts[i - 1] };
            let (lo, hi) = grads.split_at_mut(i + 1);
            let grad_out = if i + 1 == depth { &dlogits } else { &hi[0] };
            let tl = Instant::now();
            layers[i].backward_into(input, &acts[i], grad_out, &mut ws[i], &mut lo[i], i > 0);
            per_layer[i] += tl.elapsed().as_secs_f64();
        }
        let b = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut params: Vec<_> = layers.iter_mut().flat_map(|l| l.params_mut()).collect();
        opt.step(&mut params);
        let o = t.elapsed().as_secs_f64();
        // The first passes grow the workspaces.
        if iter >= 5 {
            fwd.push(f * 1e3);
            bwd.push(b * 1e3);
            step.push(o * 1e3);
            for (l, s) in layers.iter().zip(&per_layer) {
                if l.name() == "conv2d" {
                    conv += s;
                }
                all += s;
            }
        }
    }
    (median(&fwd), median(&bwd), median(&step), conv / all)
}

fn replays(cfg: &SimConfig, homes: &[usize], seed: u64) -> Result<Replay, String> {
    let r = &mut rng(derive_seed(seed, 0xBE4C));
    let spec = cfg.task.spec();
    let model = zoo::model_for_task(cfg.task.name(), &spec, &mut rng(derive_seed(cfg.seed, 5)));
    let d = model.param_count();

    // tensor: conv GEMMs and im2col at the paper MNIST CNN shapes.
    let mnist_batch = Workload::PaperMnist.config().batch_size;
    let (g1, g2) = cnn2_geometry(1, 16, 16);
    let (mut gemm_conv_ns, mut gemm_conv_flops, mut im2col_ns, mut im2col_bytes) =
        (0.0, 0.0, 0.0, 0.0);
    for g in [g1, g2] {
        let n = mnist_batch * g.out_positions();
        let input = random_vec(r, mnist_batch * g.in_c * g.in_h * g.in_w);
        let mut cols = vec![0.0f32; g.patch_len() * n];
        im2col_ns += time_ns(|| im2col_batch(black_box(&input), mnist_batch, &g, &mut cols));
        im2col_bytes += (cols.len() * 4) as f64;
        let weight = random_vec(r, g.out_c * g.patch_len());
        let mut out = vec![0.0f32; g.out_c * n];
        gemm_conv_ns += time_ns(|| {
            matmul_into(
                black_box(&weight),
                &cols,
                &mut out,
                g.out_c,
                g.patch_len(),
                n,
            )
        });
        gemm_conv_flops += 2.0 * (g.out_c * g.patch_len() * n) as f64;
    }
    // tensor: dense GEMMs at the Speech MLP shapes and crowd batch.
    let crowd_batch = Workload::CrowdLazy.config().batch_size;
    let mut gemm_dense_ns = 0.0;
    for (fin, fout) in [(64, 64), (64, 32), (32, 10)] {
        let x = random_vec(r, crowd_batch * fin);
        let wt = random_vec(r, fout * fin);
        let mut out = vec![0.0f32; crowd_batch * fout];
        gemm_dense_ns +=
            time_ns(|| matmul_bt_into(black_box(&x), &wt, &mut out, crowd_batch, fin, fout));
    }

    // nn: the workload model at its batch size.
    let (train, test) = train_test(
        cfg.task,
        cfg.samples_per_device.max(cfg.batch_size),
        cfg.test_samples,
        derive_seed(seed, 1),
    );
    let idx: Vec<usize> = (0..cfg.batch_size.min(train.len())).collect();
    let (x, y) = train.gather(&idx);
    let mut opt = cfg.optimizer.build();
    let mut trained = model.clone();
    let mut scratch = NetScratch::new();
    let train_batch_ms = time_ns(|| {
        black_box(trained.train_batch_ws(&x, &y, opt.as_mut(), &mut scratch));
    }) / 1e6;
    let mut layers = layer_stack(cfg, &model)?;
    let (fwd_ms, bwd_ms, opt_ms, conv_frac) = layer_split(cfg, &mut layers, &x, &y);
    let mut infer_scratch = NetScratch::new();
    let infer_ms = time_ns(|| {
        black_box(model.infer_ws(test.inputs(), &mut infer_scratch));
    }) / 1e6;

    // device: a reused replica against a fresh one per call.
    let (steps, batch, optimizer) = (cfg.local_steps, cfg.batch_size, cfg.optimizer);
    let mut warm = Device::new(0, train.clone(), model.clone(), seed);
    warm.local_train(steps, batch, &optimizer, 0);
    let warm_ms = time_ns(|| {
        black_box(warm.local_train(steps, batch, &optimizer, 0));
    }) / 1e6;
    let cold_ms = time_each(15, |_| {
        let mut dev = Device::new(1, train.clone(), model.clone(), seed);
        let t = Instant::now();
        black_box(dev.local_train(steps, batch, &optimizer, 0));
        ns_since(t)
    }) / 1e6;

    // selection / similarity at the workload's candidates per edge.
    let candidates = (cfg.num_devices / cfg.num_edges).max(cfg.devices_per_edge);
    let small = Dataset::new(x.clone(), y.clone(), spec.classes);
    let mut devices: Vec<Device> = (0..candidates)
        .map(|m| {
            let mut dev = Device::new(m, small.clone(), model.clone(), seed);
            let flat = random_vec(r, d);
            let norm = flat.iter().map(|v| v * v).sum();
            dev.load_flat(&flat, norm);
            dev
        })
        .collect();
    let cloud_flat = random_vec(r, d);
    let ids: Vec<usize> = (0..candidates).collect();
    let mut sel_rng = rng(derive_seed(seed, 0x5E1));
    let select_us = time_ns(|| {
        black_box(select_devices(
            cfg.algorithm.selection,
            cfg.devices_per_edge,
            &ids,
            &devices,
            &cloud_flat,
            &mut sel_rng,
        ));
    }) / 1e3;
    let (a, b) = (random_vec(r, d), random_vec(r, d));
    let utility_ns = time_ns(|| {
        black_box(similarity_utility(black_box(&a), &b));
    });

    // aggregation: K uploads into an edge, E edges into the cloud, and
    // one on-device blend.
    let mut dst = model.clone();
    let k = cfg.devices_per_edge.min(devices.len());
    let edge_us = time_ns(|| {
        edge_aggregate_into(
            &mut dst,
            devices[..k]
                .iter()
                .map(|dev| (&dev.model, dev.num_samples())),
        );
    }) / 1e3;
    let edges: Vec<Sequential> = (0..cfg.num_edges).map(|_| model.clone()).collect();
    let cloud_us = time_ns(|| {
        cloud_aggregate_into(&mut dst, edges.iter().map(|m| (m, 10.0f64)));
    }) / 1e3;
    let edge = devices[candidates - 1].model.clone();
    let (edge_flat, edge_norm) = (
        devices[candidates - 1].flat().to_vec(),
        devices[candidates - 1].flat_norm_sq(),
    );
    let target = &mut devices[0];
    let on_device_us = time_each(15, |_| {
        target.refresh_flat();
        let t = Instant::now();
        on_device_init_into(
            OnDevicePolicy::SimilarityWeighted,
            target,
            &edge,
            &edge_flat,
            edge_norm,
        );
        ns_since(t)
    }) / 1e3;

    // data / mobility: the set-up stages, one at a time.
    let source = SyntheticSource::new(cfg.task, derive_seed(cfg.seed, 1));
    let n = cfg.num_devices * cfg.samples_per_device;
    let mut base = None;
    let synth_ms = time_each(3, |_| {
        base = None;
        let t = Instant::now();
        base = Some(source.generate_balanced(n, derive_seed(cfg.seed, 2)));
        ns_since(t)
    }) / 1e6;
    let base = base.expect("generated");
    let partition_ms = time_each(3, |_| {
        let t = Instant::now();
        black_box(partition(
            &base,
            cfg.num_devices,
            cfg.samples_per_device,
            cfg.scheme,
            derive_seed(cfg.seed, 3),
        ));
        ns_since(t)
    }) / 1e6;
    drop(base);
    let (mut cur, mut prev) = (Vec::new(), Vec::new());
    let trace_ms = time_each(3, |_| {
        let t = Instant::now();
        let trace = mobility_trace(cfg, homes, seed);
        for step in 0..cfg.steps {
            trace.fill_rows_into(step, &mut cur, &mut prev);
        }
        ns_since(t)
    }) / 1e6;

    // compress: the benchmark's compression setting at the model's size.
    let ccfg = Workload::AsyncSweep.config().compression;
    let mut plane = CompressionPlane::new(ccfg, 1, 1, d, seed);
    let compress_ratio = plane.dense_payload_bytes() as f64 / plane.payload_bytes() as f64;
    let (new_flat, ref_flat) = (random_vec(r, d), random_vec(r, d));
    let compress_us = time_ns(|| {
        black_box(plane.compress_device_upload(0, &new_flat, &ref_flat).len());
    }) / 1e3;

    Ok(Replay {
        gemm_conv_ns,
        gemm_conv_flops,
        im2col_ns,
        im2col_bytes,
        gemm_dense_ns,
        train_batch_ms,
        fwd_ms,
        bwd_ms,
        opt_ms,
        conv_frac,
        infer_ms,
        warm_ms,
        cold_ms,
        select_us,
        utility_ns,
        edge_us,
        cloud_us,
        on_device_us,
        synth_ms,
        partition_ms,
        trace_ms,
        compress_ratio,
        compress_us,
    })
}
