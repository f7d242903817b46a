//! The three workloads: fixed simulator configurations, the inputs each
//! one draws from the run's seed, and the quality bars its runs must
//! clear.
//!
//! Each workload pins one synthetic task instance (data, partition and
//! model initialisation all derive from [`TASK_SEED`]), the way a real
//! benchmark ships one fixed dataset. The run's `--seed` generates the
//! input that varies: the device mobility trace, handed to the
//! simulator through `SimulationBuilder::with_trace`. Reseeding the task
//! instance itself moves learning speed by up to 2x between seeds (a
//! harder synthetic draw), which would swamp every accuracy-based bound;
//! reseeding only mobility keeps the learning curve comparable across
//! seeds while still changing every selection, move and blend.
//!
//! `async_sweep` runs through `run_sweep`, which builds every scenario's
//! data, model and mobility from the scenario's config seed; no public
//! input varies mobility alone. Its grid therefore runs two fixed task
//! instances (the grid's seed axis), and `--seed` does not change its
//! inputs: reseeding the data moved the scenarios' accuracy at round 18
//! from 0.24 to 0.54 in probes, past every bound the benchmark can hold.

use middle_core::{
    Algorithm, CompressionConfig, DelayModel, DropoutModel, ExecutionMode, FaultConfig,
    LatencyModel, MobilitySource, PopulationMode, ScenarioGrid, SimConfig,
};
use middle_data::Task;
use middle_mobility::trace::generate_markov_hop_homed;
use middle_mobility::Trace;

/// Seed of the fixed task instance every tick-driven workload trains on
/// (the paper-default configuration's own seed).
pub const TASK_SEED: u64 = 2023;

/// A seed reserved for validating later performance claims on inputs
/// no tuning has seen. Never used while choosing targets or bounds.
pub const HELD_OUT_SEED: u64 = 7_340_033;

/// Set-up is timed over at least this many builds and this many seconds
/// of building before the measured repeats, so `setup_s` is a median of
/// many samples even where one build takes only milliseconds.
pub const SETUP_BUILDS: usize = 5;
pub const SETUP_SECONDS: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperMnist,
    CrowdLazy,
    AsyncSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperMnist,
        Workload::CrowdLazy,
        Workload::AsyncSweep,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMnist => "paper_mnist",
            Workload::CrowdLazy => "crowd_lazy",
            Workload::AsyncSweep => "async_sweep",
        }
    }

    /// Why the workload exists: the layer it stresses and what it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperMnist => {
                "paper-default MNIST CNN; local training is ~96% of a round, so kernel, nn \
                 and device changes show here and coordination changes should not"
            }
            Workload::CrowdLazy => {
                "20k lazy devices, K=1, I=1; selection, population, aggregation and set-up \
                 dominate, so coordination changes show here and conv kernels do not"
            }
            Workload::AsyncSweep => {
                "event-driven hostile-fault sweep with compression and mid-run checkpoints; \
                 the only workload through timeline, faults, compress, checkpoint and sweep"
            }
        }
    }

    /// Simulated rounds of one run, sized so a run clears chance with
    /// margin and still ends within a minute. `async_sweep` stops one
    /// round short of its second cloud sync: with a sync on the final
    /// round, the last evaluation swung widely in probes.
    pub fn rounds(self) -> usize {
        match self {
            Workload::PaperMnist => 30,
            Workload::CrowdLazy => 400,
            Workload::AsyncSweep => 19,
        }
    }

    /// The smoothed accuracy whose first crossing is `rounds_to_target`.
    pub fn target(self) -> f32 {
        match self {
            Workload::PaperMnist => 0.55,
            Workload::CrowdLazy => 0.5,
            Workload::AsyncSweep => 0.25,
        }
    }

    /// Lowest final accuracy a correct run may end at. Chance is 0.1 on
    /// every task here; each floor sits about halfway between chance and
    /// the lowest final accuracy seen over multi-seed probe runs.
    pub fn min_final_accuracy(self) -> f32 {
        match self {
            Workload::PaperMnist => 0.4,
            Workload::CrowdLazy => 0.35,
            Workload::AsyncSweep => 0.2,
        }
    }

    /// Full repeats a run makes at least: two of the seed on a
    /// tick-driven workload (the second is the determinism check), one
    /// sweep on `async_sweep`.
    pub fn min_repeats(self) -> usize {
        match self {
            Workload::AsyncSweep => 1,
            _ => 2,
        }
    }

    /// The fixed simulator configuration (for `async_sweep`, the grid's
    /// base scenario).
    pub fn config(self) -> SimConfig {
        let mut cfg = match self {
            Workload::PaperMnist => SimConfig::paper_default(Task::Mnist, Algorithm::middle()),
            Workload::CrowdLazy => {
                let mut c = SimConfig::paper_default(Task::Speech, Algorithm::middle());
                c.num_devices = 20_000;
                c.num_edges = 100;
                c.devices_per_edge = 1;
                c.local_steps = 1;
                c.batch_size = 8;
                c.samples_per_device = 20;
                c.cloud_interval = 5;
                c.test_samples = 200;
                c.eval_interval = 10;
                c.population = PopulationMode::Lazy;
                c
            }
            Workload::AsyncSweep => {
                let mut c = SimConfig::paper_default(Task::Mnist, Algorithm::middle());
                c.timeline.mode = ExecutionMode::EventDriven;
                c.timeline.latency = LatencyModel::Faults;
                c.timeline.step_duration = 2.0;
                c.faults = FaultConfig {
                    dropout: DropoutModel::Markov {
                        p_fail: 0.1,
                        p_recover: 0.5,
                    },
                    straggler_delay: DelayModel::Exponential { mean_s: 0.5 },
                    deadline_s: 2.0,
                    upload_loss: 0.1,
                    wan_outage: 0.1,
                    ..FaultConfig::default()
                };
                c.compression = CompressionConfig {
                    enabled: true,
                    quantize_bits: 8,
                    top_frac: 0.1,
                    ..CompressionConfig::default()
                };
                c
            }
        };
        cfg.seed = TASK_SEED;
        cfg.steps = self.rounds();
        cfg
    }

    /// The `async_sweep` grid: 2 task instances x P in {0.1, 0.5}, with
    /// the simulator's telemetry switched on for the traced run.
    pub fn grid(self, telemetry: bool) -> ScenarioGrid {
        let mut base = self.config();
        base.telemetry = telemetry;
        ScenarioGrid::new(base)
            .with_mobility_ps(vec![0.1, 0.5])
            .with_seeds(vec![TASK_SEED, TASK_SEED + 1])
    }
}

/// The homed Markov trace `seed` generates for a tick-driven workload,
/// in the representation the simulator itself would use: streaming for
/// a lazy population (O(devices) memory), dense otherwise.
pub fn mobility_trace(cfg: &SimConfig, homes: &[usize], seed: u64) -> Trace {
    let MobilitySource::HomedMarkovHop { p, home_bias } = cfg.mobility else {
        unreachable!("every tick-driven workload uses homed Markov mobility")
    };
    match cfg.population {
        PopulationMode::Lazy => {
            Trace::markov_hop_homed_streaming(cfg.num_edges, homes, cfg.steps, p, home_bias, seed)
        }
        PopulationMode::Dense => {
            generate_markov_hop_homed(cfg.num_edges, homes, cfg.steps, p, home_bias, seed)
        }
    }
}
