//! The simulated fleet and the closed control loop.
//!
//! One control round: the generator's demand is applied to every VM on
//! each 1 s tick (`Cluster::advance` + `apply_demand`), the monitor
//! renders every VM's reading at the sampling tick, and the controller
//! ingests the round and actuates the same cluster — so its scaling
//! changes what the next samples show. The next round starts only when
//! the controller call has returned.

use crate::clock::Clock;
use crate::gen::{self, Digest, Generator, Workload, SAMPLING_SECS};
use crate::trace::Tracer;
use prepare_cloudsim::{ChaosEngine, ChaosStats, Cluster, Demand, HostSpec, Monitor};
use prepare_core::{
    ActionFailureKind, ControllerEvent, PrepareConfig, PrepareController, RecoveryManager, Scheme,
};
use prepare_metrics::{StampedSample, Timestamp, VmId};
use prepare_par::ParConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hosts have room to scale either of their two VMs well past nominal.
const HOST: HostSpec = HostSpec {
    cpu_capacity: 400.0,
    mem_capacity_mb: 8192.0,
};

/// VMs placed on each host.
const VMS_PER_HOST: usize = 2;

/// Warm-up rounds allowed before the first training is declared missing.
const MAX_WARMUP_ROUNDS: u64 = 400;

/// Relative monitor noise (as in the paper's experiments).
const MONITOR_NOISE: f64 = 0.02;

/// Salt separating the monitor-noise stream from the demand stream.
const NOISE_SALT: u64 = 0x0051_6E15_E5EE_D000;

/// SLO: every VM gets at least this share of its CPU demand…
const SLO_MIN_CPU_FRACTION: f64 = 0.9;
/// …and of its memory working set…
const SLO_MIN_MEM_FRACTION: f64 = 0.9;
/// …with at most this much CPU work queued behind its cap.
const SLO_MAX_QUEUE_SECS: f64 = 0.5;

/// What a control round did, from the events the call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Before the first `ModelsTrained`: ingest only.
    Cold,
    /// (Re)trained the per-VM models.
    Train,
    /// Sealed a checkpoint.
    Seal,
    /// Contacted the hypervisor: issued an action, or had one rejected.
    Actuate,
    /// Any other round with trained models: predict and vote.
    Predict,
}

impl Class {
    /// The class label used in spans and reports.
    pub fn name(self) -> &'static str {
        match self {
            Class::Cold => "cold",
            Class::Train => "train",
            Class::Seal => "seal",
            Class::Actuate => "actuate",
            Class::Predict => "predict",
        }
    }
}

/// Classes a round by the events its call returned; `trained` says
/// whether models existed when the call began.
pub fn classify(events: &[ControllerEvent], trained: bool) -> Class {
    let any = |f: fn(&ControllerEvent) -> bool| events.iter().any(f);
    if any(|e| matches!(e, ControllerEvent::ModelsTrained { .. })) {
        Class::Train
    } else if any(|e| matches!(e, ControllerEvent::CheckpointTaken { .. })) {
        Class::Seal
    } else if any(|e| {
        matches!(
            e,
            ControllerEvent::ActionIssued { .. }
                | ControllerEvent::ActionRetried { .. }
                | ControllerEvent::ActionFailed {
                    kind: ActionFailureKind::ExecutionFailed | ActionFailureKind::RetriesExhausted,
                    ..
                }
        )
    }) {
        Class::Actuate
    } else if trained {
        Class::Predict
    } else {
        Class::Cold
    }
}

/// One timed controller call.
#[derive(Debug, Clone, Copy)]
pub struct RoundRecord {
    /// What the round did.
    pub class: Class,
    /// Wall time of the call.
    pub ms: f64,
}

/// Everything measured and checked over one run.
#[derive(Debug, Default)]
pub struct Measure {
    /// Controller calls of every set-up (cold rounds and the first
    /// training round).
    pub setup_rounds: Vec<RoundRecord>,
    /// Controller calls of the timed region.
    pub rounds: Vec<RoundRecord>,
    /// `crash_image` wall times.
    pub crash_image_ms: Vec<f64>,
    /// `recover` wall times.
    pub recover_ms: Vec<f64>,
    /// Journal records replayed, from `RecoveryCompleted`.
    pub replayed: u64,
    /// Journal bytes found in crash images.
    pub journal_bytes: u64,
    /// Wall time of the timed loop, output checks included.
    pub loop_ms: f64,
    /// Wall time of output checks inside the timed loop.
    pub checks_ms: f64,
    /// VM samples the timed loop completed.
    pub vm_samples: u64,
    /// Operations attempted: rounds, recoveries and output checks.
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
}

impl Measure {
    /// Counts one output check, recording `failure` when it failed.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(failure());
        }
    }
}

/// The controller, plain or behind the write-ahead journal.
#[derive(Debug)]
enum Engine {
    Plain(PrepareController),
    Durable(RecoveryManager),
}

impl Engine {
    fn controller(&self) -> &PrepareController {
        match self {
            Engine::Plain(c) => c,
            Engine::Durable(m) => m.controller(),
        }
    }

    fn round(
        &mut self,
        now: Timestamp,
        readings: &[(VmId, StampedSample)],
        slo_violated: bool,
        cluster: &mut Cluster,
    ) -> Vec<ControllerEvent> {
        match self {
            Engine::Plain(c) => c.on_readings(now, readings, slo_violated, cluster),
            Engine::Durable(m) => m.tick(now, readings, slo_violated, cluster),
        }
    }
}

/// The simulated cloud side: cluster, generator, monitor and chaos.
#[derive(Debug)]
struct World {
    gen: Generator,
    cluster: Cluster,
    vms: Vec<VmId>,
    monitor: Monitor,
    noise: StdRng,
    chaos: Option<ChaosEngine>,
    demands: Vec<Demand>,
    slo_tolerance: usize,
    violated_secs: u64,
    next_tick: u64,
    round: u64,
}

impl World {
    fn build(workload: Workload, seed: u64) -> Result<World, String> {
        let mut cluster = Cluster::new();
        let mut vms = Vec::with_capacity(workload.vms);
        while vms.len() < workload.vms {
            let host = cluster.add_host(HOST);
            for _ in 0..VMS_PER_HOST.min(workload.vms - vms.len()) {
                let vm = cluster
                    .create_vm(host, gen::NOMINAL_CPU, gen::NOMINAL_MEM_MB)
                    .map_err(|e| format!("fleet does not fit its hosts: {e:?}"))?;
                vms.push(vm);
            }
        }
        Ok(World {
            gen: Generator::new(workload, seed),
            cluster,
            vms,
            monitor: Monitor::new(MONITOR_NOISE),
            noise: StdRng::seed_from_u64(seed ^ NOISE_SALT),
            chaos: None,
            demands: Vec::with_capacity(workload.vms),
            slo_tolerance: workload.slo_tolerance,
            violated_secs: 0,
            next_tick: 0,
            round: 0,
        })
    }

    /// Whether one VM's service misses the SLO this tick.
    fn violates(q: &prepare_cloudsim::ServiceQuality) -> bool {
        q.cpu_fraction < SLO_MIN_CPU_FRACTION
            || q.mem_fraction < SLO_MIN_MEM_FRACTION
            || q.queue_delay_secs > SLO_MAX_QUEUE_SECS
    }

    /// The fleet operator returns scaled VMs to their nominal size
    /// between injections. A busy hypervisor refuses; the operator tries
    /// again next tick.
    fn rightsize(&mut self, now: Timestamp) {
        for &vm in &self.vms {
            let state = self.cluster.vm(vm);
            if state.is_migrating() {
                continue;
            }
            let (cpu, mem) = (state.cpu_alloc, state.mem_alloc_mb);
            if (cpu - gen::NOMINAL_CPU).abs() > 1e-9 {
                let _ = self.cluster.scale_cpu(vm, gen::NOMINAL_CPU, now);
            }
            if (mem - gen::NOMINAL_MEM_MB).abs() > 1e-9 {
                let _ = self.cluster.scale_mem(vm, gen::NOMINAL_MEM_MB, now);
            }
        }
    }

    /// One simulated second: advance the cluster, apply every VM's
    /// demand (generated beforehand into `self.demands`). Returns whether
    /// the fleet SLO was violated: more than the workload's tolerance of
    /// VMs missed their service target.
    fn step(&mut self, t: u64) -> bool {
        let now = Timestamp::from_secs(t);
        self.cluster.advance(now);
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.tick(&mut self.cluster, now);
        }
        if self.gen.rightsizing(t) {
            self.rightsize(now);
        }
        let mut missed = 0;
        for (&vm, &demand) in self.vms.iter().zip(&self.demands) {
            let q = self.cluster.apply_demand(vm, demand, now);
            missed += usize::from(Self::violates(&q));
        }
        missed > self.slo_tolerance
    }

    /// Steps the cluster up to this round's sampling tick and renders
    /// the readings the controller receives. Returns the round's time,
    /// the readings and the SLO status at the sampling tick.
    fn advance_round(
        &mut self,
        clock: &Clock,
        tracer: &mut Tracer,
        parent: Option<usize>,
    ) -> (Timestamp, Vec<(VmId, StampedSample)>, bool) {
        let r = self.round;
        let sample_tick = r * SAMPLING_SECS;
        let mut violated = false;
        for t in self.next_tick..=sample_tick {
            // Input generation is the benchmark's own work: it stays out
            // of the cloudsim span.
            self.gen.demands(t, &mut self.demands);
            let s0 = tracer.enabled().then(|| clock.now_ms());
            violated = self.step(t);
            if let Some(s0) = s0 {
                tracer.record("cloudsim.step", r, (s0, clock.now_ms()), parent);
            }
            self.violated_secs += u64::from(violated);
        }
        self.next_tick = sample_tick + 1;
        let now = Timestamp::from_secs(sample_tick);
        let s0 = tracer.enabled().then(|| clock.now_ms());
        let mut readings = Vec::with_capacity(self.vms.len());
        for &vm in &self.vms {
            let sample = self.monitor.sample(&self.cluster, vm, now, &mut self.noise);
            match self.chaos.as_mut() {
                Some(chaos) => {
                    let host = self.cluster.vm(vm).host;
                    if let Some(stamped) = chaos.deliver(vm, host, sample, now) {
                        readings.push((vm, stamped));
                    }
                }
                None => readings.push((vm, StampedSample::fresh(sample))),
            }
        }
        if let Some(s0) = s0 {
            tracer.record("cloudsim.sample", r, (s0, clock.now_ms()), parent);
        }
        self.round += 1;
        (now, readings, violated)
    }
}

/// A fleet with a trained controller, ready for the timed region.
#[derive(Debug)]
pub struct Fleet {
    workload: Workload,
    world: World,
    engine: Engine,
    par: ParConfig,
}

/// Digest of an event log (by each event's exact debug rendering).
pub fn event_digest(events: &[ControllerEvent]) -> u64 {
    let mut d = Digest::default();
    for e in events {
        d.text(&format!("{e:?}"));
    }
    d.value()
}

impl Fleet {
    /// Builds the fleet and its controller and drives warm-up rounds up
    /// to and including the first `ModelsTrained` round. The durable
    /// workload then wraps the trained controller in a
    /// [`RecoveryManager`], which seals its first checkpoint. Controller
    /// calls land in `measure.setup_rounds`.
    pub fn setup(
        workload: Workload,
        seed: u64,
        clock: &Clock,
        tracer: &mut Tracer,
        measure: &mut Measure,
    ) -> Result<Fleet, String> {
        let mut world = World::build(workload, seed)?;
        let config = PrepareConfig::default();
        let par = config.par;
        let mut controller = PrepareController::new(world.vms.clone(), config, Scheme::Prepare);
        loop {
            let r = world.round;
            if r >= MAX_WARMUP_ROUNDS {
                return Err(format!(
                    "no ModelsTrained within {MAX_WARMUP_ROUNDS} rounds"
                ));
            }
            let root = tracer.open("loop.round", r, clock.now_ms());
            let (now, readings, slo) = world.advance_round(clock, tracer, root);
            let c0 = clock.now_ms();
            let events = controller.on_readings(now, &readings, slo, &mut world.cluster);
            let c1 = clock.now_ms();
            let class = classify(&events, false);
            let id = tracer.record("core.round", r, (c0, c1), root);
            tracer.close(id, c1, Some(class.name()));
            tracer.close(root, clock.now_ms(), None);
            measure
                .setup_rounds
                .push(RoundRecord { class, ms: c1 - c0 });
            if class == Class::Train {
                break;
            }
        }
        let engine = if workload.chaos.is_some() {
            Engine::Durable(RecoveryManager::new(controller, workload.checkpoint_every))
        } else {
            Engine::Plain(controller)
        };
        Ok(Fleet {
            workload,
            world,
            engine,
            par,
        })
    }

    /// The managed controller.
    pub fn controller(&self) -> &PrepareController {
        self.engine.controller()
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.world.cluster
    }

    /// Fleet size.
    pub fn vms(&self) -> usize {
        self.world.vms.len()
    }

    /// The next control round's index.
    pub fn round(&self) -> u64 {
        self.world.round
    }

    /// VMs with a trained predictor.
    pub fn predictors(&self) -> usize {
        let c = self.controller();
        self.world
            .vms
            .iter()
            .filter(|&&vm| c.predictor(vm).is_some())
            .count()
    }

    /// Workers the controller shards over.
    pub fn workers(&self) -> usize {
        self.par.workers
    }

    /// Simulated seconds so far with the fleet SLO violated, warm-up
    /// included: set-up ends only after the first, still unmanaged
    /// injection has violated the SLO, so this is never zero.
    pub fn violated_secs(&self) -> u64 {
        self.world.violated_secs
    }

    /// Digest of every generated input so far.
    pub fn input_digest(&self) -> u64 {
        self.world.gen.digest()
    }

    /// What the chaos engine did (all zero without chaos).
    pub fn chaos_stats(&self) -> ChaosStats {
        self.world
            .chaos
            .as_ref()
            .map(ChaosEngine::stats)
            .unwrap_or_default()
    }

    /// Size of the last sealed checkpoint (0 without durability).
    pub fn checkpoint_bytes(&self) -> usize {
        match &self.engine {
            Engine::Plain(_) => 0,
            Engine::Durable(m) => m.checkpoint_bytes(),
        }
    }

    /// Arms the chaos plan for the `rounds` timed rounds that follow.
    pub fn start_timed(&mut self, rounds: u64) {
        let first = self.world.round;
        self.world.chaos = self
            .world
            .gen
            .chaos_plan(first, rounds)
            .map(ChaosEngine::new);
    }

    /// One timed round, crash and recovery included.
    pub fn timed_round(&mut self, clock: &Clock, tracer: &mut Tracer, measure: &mut Measure) {
        let r = self.world.round;
        let t0 = clock.now_ms();
        let root = tracer.open("loop.round", r, t0);
        let (now, readings, slo) = self.world.advance_round(clock, tracer, root);
        let crashed = self
            .world
            .chaos
            .as_mut()
            .is_some_and(|c| c.controller_crashed(now));
        if crashed {
            self.crash_and_recover(now, r, clock, tracer, root, measure);
        }
        let trained = self.engine.controller().is_trained();
        let c0 = clock.now_ms();
        let events = self
            .engine
            .round(now, &readings, slo, &mut self.world.cluster);
        let c1 = clock.now_ms();
        let class = classify(&events, trained);
        let id = tracer.record("core.round", r, (c0, c1), root);
        tracer.close(id, c1, Some(class.name()));
        measure.rounds.push(RoundRecord { class, ms: c1 - c0 });
        measure.attempted += 1;
        measure.vm_samples += self.world.vms.len() as u64;
        let t1 = clock.now_ms();
        tracer.close(root, t1, None);
        measure.loop_ms += t1 - t0;
    }

    /// Kills the durable controller and rebuilds it from its crash image:
    /// `crash_image` then `recover`. The recovered model fingerprint must
    /// equal the live one just before the crash; both fingerprints are
    /// taken outside the timed spans.
    fn crash_and_recover(
        &mut self,
        now: Timestamp,
        r: u64,
        clock: &Clock,
        tracer: &mut Tracer,
        root: Option<usize>,
        measure: &mut Measure,
    ) {
        let Engine::Durable(manager) = &mut self.engine else {
            return;
        };
        let k0 = clock.now_ms();
        let live = manager.controller().model_fingerprint();
        let k1 = clock.now_ms();
        tracer.record("check.fingerprint", r, (k0, k1), root);
        let i0 = clock.now_ms();
        let image = manager.crash_image();
        let i1 = clock.now_ms();
        let recovered =
            RecoveryManager::recover(&image, self.workload.checkpoint_every, self.par, now);
        let i2 = clock.now_ms();
        tracer.record("recovery.crash_image", r, (i0, i1), root);
        tracer.record("recovery.recover", r, (i1, i2), root);
        measure.crash_image_ms.push(i1 - i0);
        measure.recover_ms.push(i2 - i1);
        measure.attempted += 1;
        let recovered = match recovered {
            Ok(m) => m,
            Err(e) => {
                measure
                    .failures
                    .push(format!("round {r}: recover failed: {e}"));
                measure.checks_ms += k1 - k0;
                return;
            }
        };
        let replayed = match recovered.controller().events().last() {
            Some(ControllerEvent::RecoveryCompleted { replayed, .. }) => Some(*replayed),
            _ => None,
        };
        measure.check(replayed.is_some(), || {
            format!("round {r}: recovery did not end with RecoveryCompleted")
        });
        measure.replayed += replayed.unwrap_or(0) as u64;
        measure.journal_bytes += image.journal.len() as u64;
        let k2 = clock.now_ms();
        let back = recovered.controller().model_fingerprint();
        let k3 = clock.now_ms();
        tracer.record("check.fingerprint", r, (k2, k3), root);
        measure.check(back == live, || {
            format!("round {r}: recovered fingerprint {back:016x} != live {live:016x}")
        });
        measure.checks_ms += (k1 - k0) + (k3 - k2);
        *manager = recovered;
    }
}
