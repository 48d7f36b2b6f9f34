//! Bringing your own application: implement [`Application`] for a custom
//! three-stage payment pipeline and drive the PREPARE controller manually
//! (everything `Experiment` does internally, spelled out) — deploy,
//! monitor, inject a recurrent memory leak, and let PREPARE prevent its
//! recurrence.
//!
//! ```text
//! cargo run --release --example custom_application
//! ```

use prepare_repro::apps::{AppTick, Application, ComponentSpec, FaultKind, FaultPlan};
use prepare_repro::cloudsim::{Cluster, HostSpec, Monitor};
use prepare_repro::core::{PrepareConfig, PrepareController, Scheme};
use prepare_repro::metrics::{Duration, StampedSample, Timestamp, VmId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A gateway → risk-scoring → ledger pipeline; the ledger is the
/// heaviest stage.
struct PaymentPipeline {
    vms: Vec<VmId>,
    specs: [ComponentSpec; 3],
}

impl PaymentPipeline {
    const NOMINAL_RATE: f64 = 40.0; // payments/s

    fn deploy(cluster: &mut Cluster) -> Self {
        let mk = |name, cpu_per_unit, service_ms| ComponentSpec {
            name,
            base_cpu: 6.0,
            cpu_per_unit,
            base_mem_mb: 256.0,
            mem_per_unit: 0.5,
            net_in_per_unit: 10.0,
            net_out_per_unit: 10.0,
            disk_per_unit: 2.0,
            service_ms,
        };
        let specs = [
            mk("gateway", 0.8, 3.0),
            mk("risk-scoring", 1.2, 8.0),
            mk("ledger", 1.8, 6.0),
        ];
        let vms = specs
            .iter()
            .map(|_| {
                let host = cluster.add_host(HostSpec::vcl_default());
                cluster
                    .create_vm(host, 100.0, 512.0)
                    .expect("fresh host fits")
            })
            .collect();
        cluster.add_host(HostSpec::vcl_default()); // migration spare
        PaymentPipeline { vms, specs }
    }
}

impl Application for PaymentPipeline {
    fn name(&self) -> &'static str {
        "payment-pipeline"
    }
    fn vms(&self) -> &[VmId] {
        &self.vms
    }
    fn vm_role(&self, vm: VmId) -> &'static str {
        let i = self.vms.iter().position(|&v| v == vm).expect("our VM");
        self.specs[i].name
    }
    fn bottleneck_vm(&self) -> VmId {
        self.vms[2] // the ledger saturates first
    }
    fn nominal_rate(&self) -> f64 {
        Self::NOMINAL_RATE
    }
    fn slo_metric_name(&self) -> &'static str {
        "payment latency (ms)"
    }

    fn step(
        &mut self,
        now: Timestamp,
        rate: f64,
        cluster: &mut Cluster,
        faults: &FaultPlan,
    ) -> AppTick {
        let mut latency_ms = 0.0;
        let mut throughput = rate;
        for (i, spec) in self.specs.iter().enumerate() {
            let vm = self.vms[i];
            let mut demand = spec.demand(throughput);
            let overlay = faults.overlay(vm, now);
            demand.cpu += overlay.cpu;
            demand.mem_mb += overlay.mem_mb;
            let quality = cluster.apply_demand(vm, demand, now);
            throughput *= quality.throughput_factor();
            latency_ms += spec.service_ms * quality.slowdown() + quality.queue_delay_secs * 1000.0;
        }
        // SLO: a payment must clear in 100 ms and ≥97% must survive.
        let slo_violated = latency_ms > 100.0 || throughput < rate * 0.97;
        AppTick {
            time: now,
            input_rate: rate,
            output_rate: throughput,
            latency_ms,
            slo_metric: latency_ms,
            slo_violated,
        }
    }
}

fn main() {
    let mut cluster = Cluster::new();
    let mut app = PaymentPipeline::deploy(&mut cluster);
    println!("deployed {} ({} stages)", app.name(), app.vms().len());

    // Recurrent leak in the ledger stage: first occurrence teaches the
    // model, the second is predicted and prevented.
    let faults = FaultPlan::recurrent(
        Some(app.bottleneck_vm()),
        FaultKind::MemLeak {
            rate_mb_per_sec: 2.0,
        },
        Timestamp::from_secs(150),
        Timestamp::from_secs(800),
        Duration::from_secs(300),
    );

    let vms = app.vms().to_vec();
    let mut controller =
        PrepareController::new(vms.clone(), PrepareConfig::default(), Scheme::Prepare);
    let mut monitor = Monitor::with_default_noise();
    let mut rng = StdRng::seed_from_u64(11);
    let mut violation_secs = [0u64; 2]; // [training window, evaluation window]

    for t in 0..1500u64 {
        let now = Timestamp::from_secs(t);
        cluster.advance(now);
        let tick = app.step(now, PaymentPipeline::NOMINAL_RATE, &mut cluster, &faults);
        if tick.slo_violated {
            violation_secs[usize::from(t >= 800)] += 1;
        }
        if t % 5 == 0 {
            let readings: Vec<(VmId, StampedSample)> = vms
                .iter()
                .map(|&vm| {
                    let sample = monitor.sample(&cluster, vm, now, &mut rng);
                    (vm, StampedSample::fresh(sample))
                })
                .collect();
            for event in controller.on_readings(now, &readings, tick.slo_violated, &mut cluster) {
                println!("  {event}");
            }
        }
    }

    println!(
        "\nfirst (training) leak violated the SLO for {}s",
        violation_secs[0]
    );
    println!(
        "second (predicted) leak violated the SLO for {}s",
        violation_secs[1]
    );
    assert!(
        violation_secs[1] < violation_secs[0],
        "the recurrence should be largely prevented"
    );
}
