//! Golden trace for a controller whose VM list is *not* in ascending id
//! order, driven through a chaos plan that drops samples.
//!
//! Every other suite builds its controller from an application's VM list,
//! which is always ascending, so id order and slot order coincide there.
//! This scenario pulls them apart: the controller manages
//! `[vm3, vm0, vm2, vm1]`, the lowest id (`vm0`) loses most of its early
//! samples, and `min_training_samples` is set so that the lowest id's
//! sample count — not slot 0's — decides when training fires. A change
//! that confuses id order with slot order shows up as a diff against the
//! committed fixture.
//!
//! To re-bless after an *intentional* behavioural change:
//!
//! ```text
//! PREPARE_BLESS=1 cargo test --test vm_order_trace
//! ```

use prepare_repro::cloudsim::{ChaosEngine, ChaosKind, ChaosPlan, Cluster, HostSpec};
use prepare_repro::core::{PrepareConfig, PrepareController, Scheme};
use prepare_repro::metrics::{
    AttributeKind, MetricSample, MetricVector, StampedSample, Timestamp, VmId,
};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/shuffled_vms_drops.events.txt"
);

/// Managed VMs in a deliberately non-ascending order.
const VM_ORDER: [VmId; 4] = [VmId(3), VmId(0), VmId(2), VmId(1)];

/// The VM carrying the recurrent leak.
const FAULTY: VmId = VmId(2);

/// Sampling rounds driven (5 s apart): four leak cycles of 120 rounds.
const ROUNDS: u64 = 480;

fn t(secs: u64) -> Timestamp {
    Timestamp::from_secs(secs)
}

/// Free memory of the faulty VM at round `i`: ramps to zero over 50
/// rounds, stays exhausted (heavy paging) for 20, then recovers.
fn leak_free_mem(i: u64) -> f64 {
    let phase = i % 120;
    match phase {
        0..=39 => 500.0,
        40..=89 => 500.0 - (phase - 39) as f64 * 10.0,
        90..=109 => 0.0,
        _ => 500.0,
    }
}

fn sample(vm: VmId, i: u64) -> MetricSample {
    let wobble = ((i * 7 + vm.0 as u64 * 3) % 5) as f64;
    let (cpu, free) = if vm == FAULTY {
        (40.0 + wobble, leak_free_mem(i))
    } else {
        (
            30.0 + vm.0 as f64 * 3.0 + wobble,
            400.0 + vm.0 as f64 * 10.0 + wobble,
        )
    };
    let v = MetricVector::from_fn(|a| match a {
        AttributeKind::CpuTotal => cpu,
        AttributeKind::CpuUser => cpu * 0.7,
        AttributeKind::FreeMem => free,
        AttributeKind::Load1 => cpu / 50.0,
        AttributeKind::PageFaults => {
            if free <= 0.0 {
                600.0
            } else {
                0.0
            }
        }
        _ => 10.0 + wobble,
    });
    MetricSample::new(t(i * 5), v)
}

fn chaos_plan() -> ChaosPlan {
    ChaosPlan::new(0x5EED_0DE5)
        // The lowest id goes mostly dark early on: its series falls far
        // behind slot 0's, so it gates the training sample count.
        .with_fault(
            t(100),
            t(400),
            ChaosKind::DropSamples {
                vm: Some(VmId(0)),
                probability: 0.9,
            },
        )
        // Fleet-wide losses through the second leak's violation.
        .with_fault(
            t(1000),
            t(1300),
            ChaosKind::DropSamples {
                vm: None,
                probability: 0.3,
            },
        )
}

fn run(workers: usize, online: bool) -> String {
    let mut cluster = Cluster::new();
    let h0 = cluster.add_host(HostSpec::vcl_default());
    let h1 = cluster.add_host(HostSpec::vcl_default());
    for host in [h0, h0, h1, h1] {
        cluster
            .create_vm(host, 100.0, 512.0)
            .expect("fresh hosts fit");
    }
    cluster.add_host(HostSpec::vcl_default());

    let mut config = PrepareConfig::default().with_workers(workers);
    config.online_training = online;
    config.min_training_samples = 100;
    let mut controller = PrepareController::new(VM_ORDER.to_vec(), config, Scheme::Prepare);
    let mut chaos = ChaosEngine::new(chaos_plan());

    for i in 0..ROUNDS {
        let now = t(i * 5);
        cluster.advance(now);
        chaos.tick(&mut cluster, now);
        let readings: Vec<(VmId, StampedSample)> = VM_ORDER
            .iter()
            .filter_map(|&vm| {
                let host = cluster.vm(vm).host;
                chaos
                    .deliver(vm, host, sample(vm, i), now)
                    .map(|stamped| (vm, stamped))
            })
            .collect();
        controller.on_readings(now, &readings, leak_free_mem(i) < 50.0, &mut cluster);
    }

    let mut out = String::new();
    for e in controller.events() {
        out.push_str(&format!("event {e:?}\n"));
    }
    for a in cluster.actions() {
        out.push_str(&format!("action {a:?}\n"));
    }
    out
}

#[test]
fn shuffled_vm_order_trace_matches_fixture() {
    let got = run(1, true);
    assert!(
        got.contains("ModelsTrained") && got.contains("MonitoringDegraded"),
        "scenario must train models and lose monitoring:\n{got}"
    );
    if std::env::var_os("PREPARE_BLESS").is_some() {
        std::fs::write(FIXTURE, &got).expect("write golden fixture");
        return;
    }
    let expect = std::fs::read_to_string(FIXTURE)
        .expect("golden fixture missing — run with PREPARE_BLESS=1 to create it");
    assert!(got == expect, "shuffled-VM trace drifted from {FIXTURE}");
}

#[test]
fn shuffled_vm_order_trace_is_arm_and_worker_invariant() {
    let expect = run(1, true);
    for (workers, online) in [(1, false), (3, true), (3, false)] {
        assert!(
            run(workers, online) == expect,
            "workers={workers} online={online} diverged from the pinned arm"
        );
    }
}
