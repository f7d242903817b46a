//! Fingerprint helpers shared by the bitwise-equivalence batteries
//! (`hotpath_equiv`, `algo_zoo`, `population_plane`, `timeline_plane`).
//! One FNV-1a scheme and one record comparison, so every battery pins
//! trajectories the same way and a re-pin only ever happens in one
//! place.
#![allow(dead_code)]

use middle_core::{RunRecord, Simulation};
use middle_nn::params::flatten;

/// Feeds `bytes` into a running FNV-1a hash.
pub fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// FNV-1a over the little-endian bit patterns of a flat parameter
/// vector — the scheme behind every pinned fingerprint in the suite.
pub fn fnv_params(flat: &[f32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in flat {
        fnv(&mut h, &v.to_bits().to_le_bytes());
    }
    h
}

/// Bit patterns of a float slice, for exact (NaN-proof) comparison.
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Whole-simulation fingerprint: cloud, then every edge, then every
/// resident device, in id order.
pub fn sim_bits(sim: &Simulation) -> Vec<u32> {
    let mut out: Vec<u32> = flatten(sim.cloud_model())
        .iter()
        .map(|v| v.to_bits())
        .collect();
    for e in sim.edges() {
        out.extend(flatten(&e.model).iter().map(|v| v.to_bits()));
    }
    for d in sim.devices() {
        out.extend(flatten(&d.model).iter().map(|v| v.to_bits()));
    }
    out
}

/// Demands two run records agree bit for bit on everything the
/// simulation determines: evaluation points, the communication ledger,
/// sync/activity counters, mobility, and the parameter count. Host
/// timing (`wall_seconds`, `telemetry`) and the simulated clock
/// (`event_seconds`, which legitimately differs between lockstep and
/// event-driven runs) are excluded.
pub fn assert_records_equal(a: &RunRecord, b: &RunRecord) {
    assert_eq!(a.points.len(), b.points.len(), "eval point count diverged");
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.step, pb.step);
        assert_eq!(
            pa.global_accuracy.to_bits(),
            pb.global_accuracy.to_bits(),
            "global accuracy diverged at step {}",
            pa.step
        );
        assert_eq!(
            pa.global_loss.to_bits(),
            pb.global_loss.to_bits(),
            "global loss diverged at step {}",
            pa.step
        );
        assert_eq!(
            bits(&pa.edge_accuracy),
            bits(&pb.edge_accuracy),
            "edge accuracy diverged at step {}",
            pa.step
        );
    }
    assert_eq!(a.comm, b.comm, "communication ledger diverged");
    assert_eq!(a.syncs, b.syncs, "sync count diverged");
    assert_eq!(a.active_steps, b.active_steps, "active-step count diverged");
    assert_eq!(
        a.empirical_mobility.to_bits(),
        b.empirical_mobility.to_bits()
    );
    assert_eq!(a.param_count, b.param_count);
}

/// `(cloud, edges)` fingerprints: FNV-1a of the cloud's parameter bits,
/// and FNV-1a over the per-edge parameter fingerprints in edge order.
/// Devices are left out so the pair is defined in lazy mode too.
pub fn model_digests(sim: &Simulation) -> (u64, u64) {
    let mut edges = 0xcbf29ce484222325u64;
    for e in sim.edges() {
        fnv(&mut edges, &fnv_params(&flatten(&e.model)).to_le_bytes());
    }
    (fnv_params(&flatten(sim.cloud_model())), edges)
}

/// FNV-1a of a run record's JSON with host timing stripped: the
/// wall-clock is zeroed and telemetry is reduced to its deterministic
/// event counters (phase latencies are host timing).
pub fn record_digest(record: &RunRecord) -> u64 {
    let mut clean = record.clone();
    clean.wall_seconds = 0.0;
    let counters = clean.telemetry.take().map(|t| t.counters);
    let mut h = 0xcbf29ce484222325u64;
    fnv(
        &mut h,
        serde_json::to_string(&clean)
            .expect("record serializes")
            .as_bytes(),
    );
    if let Some(c) = counters {
        fnv(
            &mut h,
            serde_json::to_string(&c)
                .expect("counters serialize")
                .as_bytes(),
        );
    }
    h
}
