//! Sparse-vs-dense fleet differential suite: the event-driven sparse
//! tick path of [`FleetSim`] may skip provably quiescent VMs, but the
//! resulting trace — event list, final cluster state digest, and the
//! head-normalized fingerprint of every VM's metric window — must be
//! byte-identical to the dense referee that steps every VM every tick,
//! at every worker count, with and without infrastructure chaos.
//!
//! These are the fleet-scale analogues of the golden/chaos replay
//! contracts: any divergence means the quiescence proof is wrong and the
//! sparse path is silently forking traces.

use prepare_repro::cloudsim::{ChaosKind, ChaosPlan, FleetSim, FleetSpec, FleetTrace, TickMode};
use prepare_repro::metrics::{AttributeKind, Duration, Timestamp};
use prepare_repro::par::ParConfig;

/// The two pinned seeds CI replays at `PREPARE_WORKERS=1` and `=4`.
const PINNED_SEEDS: [u64; 2] = [0xC0FFEE, 0xBADC0DE];

/// Worker counts the traces must be invariant over.
const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

fn t(secs: u64) -> Timestamp {
    Timestamp::from_secs(secs)
}

fn run(spec: &FleetSpec, mode: TickMode, workers: usize) -> FleetTrace {
    let mut sim = FleetSim::new(spec.clone()).expect("spec fits its hosts");
    sim.run(mode, &ParConfig::with_workers(workers))
}

/// A fault schedule touching every chaos pathway the sparse path must
/// stay awake for: dropped samples, a stuck attribute, a busy
/// hypervisor, and migrations that time out mid-copy.
fn hostile_plan(seed: u64) -> ChaosPlan {
    ChaosPlan::new(seed)
        .with_fault(
            t(60),
            t(110),
            ChaosKind::DropSamples {
                vm: None,
                probability: 0.4,
            },
        )
        .with_fault(
            t(80),
            t(130),
            ChaosKind::StuckAttribute {
                vm: prepare_repro::metrics::VmId(3),
                attribute: AttributeKind::CpuTotal,
            },
        )
        .with_fault(
            t(75),
            t(125),
            ChaosKind::HypervisorBusy { probability: 0.5 },
        )
        .with_fault(
            t(40),
            t(140),
            ChaosKind::MigrationTimeout {
                timeout: Duration::from_secs(2),
            },
        )
}

#[test]
fn golden_fleet_sparse_equals_dense_at_every_worker_count() {
    for seed in PINNED_SEEDS {
        let spec = FleetSpec::new(96, 200, seed);
        let reference = run(&spec, TickMode::Dense, 1);
        assert!(
            !reference.events.is_empty(),
            "seed {seed:#x}: the golden fleet must exercise scale/migrate paths"
        );
        for workers in WORKER_COUNTS {
            let dense = run(&spec, TickMode::Dense, workers);
            let sparse = run(&spec, TickMode::Sparse, workers);
            assert_eq!(
                dense, reference,
                "dense trace diverged: seed {seed:#x} workers {workers}"
            );
            assert_eq!(
                sparse, reference,
                "sparse trace diverged: seed {seed:#x} workers {workers}"
            );
        }
    }
}

#[test]
fn chaotic_fleet_sparse_equals_dense_at_every_worker_count() {
    for seed in PINNED_SEEDS {
        let mut spec = FleetSpec::new(96, 200, seed);
        spec.chaos = Some(hostile_plan(seed));
        let reference = run(&spec, TickMode::Dense, 1);
        for workers in WORKER_COUNTS {
            let dense = run(&spec, TickMode::Dense, workers);
            let sparse = run(&spec, TickMode::Sparse, workers);
            assert_eq!(
                dense, reference,
                "chaotic dense trace diverged: seed {seed:#x} workers {workers}"
            );
            assert_eq!(
                sparse, reference,
                "chaotic sparse trace diverged: seed {seed:#x} workers {workers}"
            );
        }
    }
}

#[test]
fn chaos_must_change_the_trace_it_claims_to_test() {
    // Meta-check: the hostile plan actually perturbs the run (otherwise
    // the chaotic differential above degenerates into the golden one).
    let seed = PINNED_SEEDS[0];
    let quiet = FleetSpec::new(96, 200, seed);
    let mut noisy = quiet.clone();
    noisy.chaos = Some(hostile_plan(seed));
    assert_ne!(
        run(&quiet, TickMode::Dense, 1),
        run(&noisy, TickMode::Dense, 1),
        "the chaos plan left the fleet trace untouched"
    );
}

#[test]
fn sparse_mode_actually_skips_work_on_the_golden_fleet() {
    // Guard against the sparse path silently degenerating into dense
    // (which would make every differential vacuous).
    let spec = FleetSpec::new(96, 200, PINNED_SEEDS[0]);
    let mut sim = FleetSim::new(spec.clone()).expect("spec fits");
    sim.run(TickMode::Sparse, &ParConfig::serial());
    assert!(
        sim.active_fraction() < 0.75,
        "sparse path stepped {:.2} of VM-ticks — quiescence never engaged",
        sim.active_fraction()
    );
    let mut dense = FleetSim::new(spec).expect("spec fits");
    dense.run(TickMode::Dense, &ParConfig::serial());
    assert!((dense.active_fraction() - 1.0).abs() < 1e-12);
}
