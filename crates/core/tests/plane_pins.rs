//! Absolute trajectory pins for the plane combinations the default
//! config never reaches. The `hotpath_equiv` pins freeze the default
//! (fault-free, uncompressed, dense, lockstep) run; every other regime
//! was only ever checked as fast-vs-reference of the same code, which
//! cannot see a change that moves both sides. Each pin below freezes
//! the final cloud and edge parameters plus a digest of the run record
//! (wall-clock fields stripped, telemetry reduced to its deterministic
//! counters), and both step implementations must hit the same pin.
//!
//! Captured with the FNV-1a scheme of `tests/common` on x86_64 linux.
//! They must never move unless the simulation semantics deliberately
//! change; a re-pin then happens here, with the reason in CHANGES.md.

use middle_core::{
    Algorithm, DelayModel, DropoutModel, ExecutionMode, FaultConfig, LatencyModel, PopulationMode,
    SimConfig, SimulationBuilder, StepMode,
};
use middle_data::Task;

mod common;
use common::{model_digests, record_digest};

/// `(cloud, edges, record)` fingerprints of one finished run.
type Pin = (u64, u64, u64);

/// 20 tiny-MNIST steps crossing five cloud syncs, telemetry on so the
/// record carries the fault/compression counters.
fn base(algorithm: Algorithm) -> SimConfig {
    let mut cfg = SimConfig::tiny(Task::Mnist, algorithm);
    cfg.steps = 20;
    cfg.cloud_interval = 4;
    cfg.eval_interval = 4;
    cfg.telemetry = true;
    cfg
}

/// Every failure model at once: sticky dropout, exponential stragglers
/// against a deadline (stale merges), lossy retried uploads and WAN
/// outages — plus the legacy availability filter, so its draw is
/// pinned too.
fn hostile(mut cfg: SimConfig) -> SimConfig {
    cfg.faults = FaultConfig {
        dropout: DropoutModel::Markov {
            p_fail: 0.2,
            p_recover: 0.5,
        },
        straggler_delay: DelayModel::Exponential { mean_s: 0.8 },
        deadline_s: 1.0,
        upload_loss: 0.2,
        upload_retries: 2,
        wan_outage: 0.3,
    };
    cfg.availability = 0.9;
    cfg
}

/// 4-bit quantization over the top quarter of each delta.
fn lossy(mut cfg: SimConfig) -> SimConfig {
    cfg.compression.enabled = true;
    cfg.compression.quantize_bits = 4;
    cfg.compression.top_frac = 0.25;
    cfg
}

/// Event-driven with real straggler latencies, a K-of-cohort trigger
/// and a wall-clock cloud timer.
fn async_faults(mut cfg: SimConfig) -> SimConfig {
    cfg.timeline.mode = ExecutionMode::EventDriven;
    cfg.timeline.latency = LatencyModel::Faults;
    cfg.timeline.edge_threshold = Some(1);
    cfg.timeline.cloud_timer = Some(3.0);
    cfg
}

fn pin_of(cfg: &SimConfig, mode: StepMode) -> Pin {
    let mut sim = SimulationBuilder::new(cfg.clone())
        .build()
        .expect("valid config");
    let record = sim.run_with(mode);
    let (cloud, edges) = model_digests(&sim);
    (cloud, edges, record_digest(&record))
}

/// Both step implementations must land on `expected`.
fn assert_pinned(cfg: SimConfig, expected: Pin) {
    for mode in [StepMode::Fast, StepMode::Reference] {
        let got = pin_of(&cfg, mode);
        assert_eq!(
            got, expected,
            "{mode:?} run moved off its pin: got ({:#018x}, {:#018x}, {:#018x})",
            got.0, got.1, got.2
        );
    }
}

/// The hostile-fault pin. Lazy population mode must land on it too:
/// virtualizing idle devices is bitwise-neutral.
const HOSTILE: Pin = (0x53b32c956c1ad20d, 0xe740bb1254825a99, 0xf9a5a83245e724ed);

#[test]
fn hostile_faults_are_pinned() {
    assert_pinned(hostile(base(Algorithm::middle())), HOSTILE);
}

#[test]
fn lossy_compression_with_hostile_faults_is_pinned() {
    assert_pinned(
        lossy(hostile(base(Algorithm::middle()))),
        (0x847dc8ddf41ffe28, 0x71dd6f7ccf8c42ca, 0xc798995893704fc5),
    );
}

#[test]
fn fedfly_migration_is_pinned() {
    assert_pinned(
        hostile(base(Algorithm::fedfly())),
        (0x1251697b5fc7b2b5, 0x86173aedaa41ea32, 0x49d432f54320af3c),
    );
}

#[test]
fn fedlecc_cluster_selection_is_pinned() {
    assert_pinned(
        hostile(base(Algorithm::fedlecc())),
        (0x4a3f5a1f69107313, 0xe45697e33f23bc99, 0x8ce930ad16abb16f),
    );
}

#[test]
fn lazy_population_is_pinned() {
    let mut cfg = hostile(base(Algorithm::middle()));
    cfg.population = PopulationMode::Lazy;
    assert_pinned(cfg, HOSTILE);
}

#[test]
fn event_driven_async_faults_are_pinned() {
    assert_pinned(
        async_faults(hostile(base(Algorithm::middle()))),
        (0x2956f8fdf2c92219, 0xa08cb51efd819b0b, 0x002cc2e677ad5f77),
    );
}

#[test]
fn event_driven_async_lossy_is_pinned() {
    assert_pinned(
        async_faults(lossy(hostile(base(Algorithm::middle())))),
        (0xa6ba5635d093d226, 0x09143639f590bb40, 0x7733013bca143a14),
    );
}
