//! Fleet-scale simulation: sparse event-driven ticks over 10k–100k VMs.
//!
//! The per-VM experiment loops elsewhere in this workspace step every VM
//! every simulated second. That is `O(vms)` work per tick even when
//! almost nothing is happening — and at fleet scale almost nothing *is*
//! happening: most VMs run steady workloads whose cluster state reaches a
//! literal fixed point within a few ticks. [`FleetSim`] exploits that
//! with three coordinated pieces:
//!
//! 1. **Quiescence detection.** A VM may sleep only when a full
//!    tick-plus-sample provably acts as the identity on its state: its
//!    [`crate::VmState`] fingerprint has been bit-stable for a whole
//!    sampling interval, its rendered 13-attribute sample is bit-equal to
//!    the previous round's, its Load5 ring is saturated, it is not
//!    migrating, and no chaos fault window is in (or near) effect.
//!    Skipping a provable identity cannot change anything — which is the
//!    whole determinism argument, checked end-to-end by running the dense
//!    referee ([`TickMode::Dense`]) and comparing [`FleetTrace`]s.
//! 2. **A wakeup wheel.** Sleeping VMs are keyed on the simulated tick of
//!    their next workload epoch boundary (`BTreeMap<tick, BTreeSet<slot>>`).
//!    Host-level events — a co-resident scaling its allocation, a
//!    migration completing onto or off the host — wake all residents
//!    immediately, because the contention squeeze they see may change.
//!    Chaos fault windows force the whole fleet awake for their duration
//!    plus a drain grace, so the fault path never interacts with
//!    skipping.
//! 3. **Closed-form backfill.** While asleep a VM's sample is constant,
//!    so the skipped sampling rounds are reproduced exactly by
//!    [`SoaMetricStore::fill_repeat`] — `O(window)` per wake no matter
//!    how long the VM slept.
//!
//! Dense and sparse modes share *all* step code; [`TickMode`] only
//! controls whether the skip/backfill machinery engages. The dense mode
//! is the referee: byte-identical traces are a hard gate for every
//! benchmark number reported from the sparse path.

use crate::{
    ChaosEngine, ChaosPlan, Cluster, Demand, HostId, HostSpec, PlacementError, ScaleError, WorstFit,
};
use prepare_metrics::{
    AttributeKind, Duration, Fingerprint64, MetricVector, SoaMetricStore, Timestamp, VmId,
};
use std::collections::{BTreeMap, BTreeSet};

/// Length of the Load5 smoothing ring, in sampling rounds.
const LOAD5_WINDOW: usize = 5;

/// Which tick path [`FleetSim::run`] executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickMode {
    /// Skip provably quiescent VMs; backfill their samples on wake.
    Sparse,
    /// Step every VM every tick — the byte-identity referee.
    Dense,
}

/// Configuration of a synthetic fleet run.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of VMs.
    pub vms: usize,
    /// VMs packed per host at build time (hosts = ⌈vms / vms_per_host⌉).
    pub vms_per_host: usize,
    /// Per-VM CPU allocation (percent-of-core units).
    pub vm_cpu: f64,
    /// Per-VM memory allocation (MB).
    pub vm_mem_mb: f64,
    /// Simulated ticks (seconds) to run.
    pub ticks: u64,
    /// Sampling interval in ticks.
    pub sampling_interval: u64,
    /// Metric window capacity per VM (SoA ring length).
    pub window: usize,
    /// Seed for the deterministic workload schedule.
    pub seed: u64,
    /// Every `hot_every`-th VM changes workload at epoch boundaries; the
    /// rest run steady forever.
    pub hot_every: usize,
    /// Epoch length of hot VMs, in ticks.
    pub epoch_ticks: u64,
    /// Optional infrastructure-fault schedule.
    pub chaos: Option<ChaosPlan>,
}

impl FleetSpec {
    /// A fleet of `vms` with the default VCL packing: 8-CPU / 160 MB VMs,
    /// 24 per dual-core host, 5 s sampling, ~6% hot VMs on 40-tick
    /// epochs.
    pub fn new(vms: usize, ticks: u64, seed: u64) -> Self {
        FleetSpec {
            vms,
            vms_per_host: 24,
            vm_cpu: 8.0,
            vm_mem_mb: 160.0,
            ticks,
            sampling_interval: 5,
            window: 12,
            seed,
            hot_every: 16,
            epoch_ticks: 40,
            chaos: None,
        }
    }
}

/// One observable fleet-level event. The event list is part of the
/// [`FleetTrace`] equality check between the sparse and dense paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetEvent {
    /// A CPU scaling action succeeded.
    Scaled {
        /// Tick of the action.
        at: u64,
        /// The scaled VM.
        vm: VmId,
        /// New CPU allocation.
        cpu_to: f64,
    },
    /// A scaling/migration attempt found no capacity (or a busy
    /// hypervisor) and gave up this epoch.
    ScaleFailed {
        /// Tick of the attempt.
        at: u64,
        /// The VM whose intervention failed.
        vm: VmId,
    },
    /// A live migration started.
    MigrationStarted {
        /// Tick the copy started.
        at: u64,
        /// The migrating VM.
        vm: VmId,
        /// Source host.
        from: HostId,
        /// Destination host.
        to: HostId,
    },
    /// A live migration switched over.
    MigrationCompleted {
        /// Tick of switch-over.
        at: u64,
        /// The migrated VM.
        vm: VmId,
        /// The new home.
        to: HostId,
    },
    /// An in-flight migration was torn down by a chaos fault.
    MigrationAborted {
        /// Tick of the teardown.
        at: u64,
        /// The VM rolled back to its source host.
        vm: VmId,
    },
}

/// The replay-comparable outcome of a fleet run: every field must be
/// byte-identical between [`TickMode::Sparse`] and [`TickMode::Dense`]
/// at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTrace {
    /// Chronological fleet events.
    pub events: Vec<FleetEvent>,
    /// FNV fingerprint of every VM's final state plus the actuation log.
    pub state_digest: u64,
    /// FNV fingerprint of the SoA metric store (head-normalized).
    pub metrics_digest: u64,
    /// Logical VM-ticks simulated (`vms × ticks`) — identical in both
    /// modes; the sparse path just does less work per logical tick.
    pub vm_ticks: u64,
}

/// Per-VM sleep record: the constant sample to backfill with and the
/// last sampling round actually ingested.
#[derive(Debug, Clone)]
struct SleepState {
    sample: MetricVector,
    last_round: u64,
}

/// Noiseless fleet monitor: renders the 13 attributes straight from
/// cluster state, with Load5 as the mean of a per-slot ring of the last
/// [`LOAD5_WINDOW`] Load1 readings (oldest → newest, head-normalized).
///
/// Unlike [`crate::Monitor`]'s EWMA, the ring mean has a *finite* fixed
/// point: five rounds after a VM's state stops changing, its rendered
/// sample is exactly constant — which is what makes sample-level
/// quiescence provable rather than approximate.
#[derive(Debug, Clone)]
pub struct FleetMonitor {
    rings: Vec<f64>,
    lens: Vec<usize>,
    heads: Vec<usize>,
}

impl FleetMonitor {
    /// A monitor for `slots` VMs with empty Load5 rings.
    pub fn new(slots: usize) -> Self {
        FleetMonitor {
            rings: vec![0.0; slots * LOAD5_WINDOW],
            lens: vec![0; slots],
            heads: vec![0; slots],
        }
    }

    /// Renders the 12 ring-independent attributes plus Load1 from cluster
    /// state. Pure — safe to fan out over `par_map`; Load5 is left at 0
    /// and filled in serially by [`FleetMonitor::observe`].
    pub fn render_base(cluster: &Cluster, vm: VmId) -> (MetricVector, f64) {
        let state = cluster.vm(vm);
        let d = state.last_demand;

        let cpu_pct = if state.cpu_alloc > 0.0 {
            (state.cpu_used / state.cpu_alloc * 100.0).clamp(0.0, 100.0)
        } else {
            0.0
        };
        let free_mem = (state.mem_alloc_mb - state.mem_used_mb).max(0.0);
        let mem_util = if state.mem_alloc_mb > 0.0 {
            (state.mem_used_mb / state.mem_alloc_mb * 100.0).clamp(0.0, 100.0)
        } else {
            0.0
        };
        let load1 = if state.effective_cpu_cap > 0.0 {
            (d.cpu / state.effective_cpu_cap).min(20.0)
        } else if d.cpu > 0.0 {
            20.0
        } else {
            0.0
        };
        let overflow_mb = (d.mem_mb - state.mem_alloc_mb).max(0.0);
        let page_faults = if state.mem_alloc_mb > 0.0 {
            overflow_mb / state.mem_alloc_mb * 2000.0
        } else {
            0.0
        };
        let paging_kbps = overflow_mb.min(200.0) * 20.0;
        let ctx_switches =
            (state.cpu_used * 0.08 + (d.net_in_kbps + d.net_out_kbps) * 0.002).max(0.1);

        let v = MetricVector::from_fn(|a| match a {
            AttributeKind::CpuUser => cpu_pct * 0.72,
            AttributeKind::CpuSystem => cpu_pct * 0.28,
            AttributeKind::CpuTotal => cpu_pct,
            AttributeKind::FreeMem => free_mem,
            AttributeKind::MemUtil => mem_util,
            AttributeKind::NetIn => d.net_in_kbps,
            AttributeKind::NetOut => d.net_out_kbps,
            AttributeKind::DiskRead => d.disk_read_kbps + paging_kbps,
            AttributeKind::DiskWrite => d.disk_write_kbps + paging_kbps * 0.5,
            AttributeKind::Load1 => load1,
            AttributeKind::Load5 => 0.0,
            AttributeKind::PageFaults => page_faults,
            AttributeKind::CtxSwitches => ctx_switches,
        });
        (v, load1)
    }

    /// Pushes one Load1 reading into `slot`'s ring and returns the new
    /// Load5 (mean oldest → newest — head-position independent for an
    /// all-equal ring, deterministic otherwise).
    pub fn observe(&mut self, slot: usize, load1: f64) -> f64 {
        let len = self.lens.get(slot).copied().unwrap_or(0);
        let head = self.heads.get(slot).copied().unwrap_or(0);
        let write_pos = if len < LOAD5_WINDOW {
            (head + len) % LOAD5_WINDOW
        } else {
            head
        };
        if let Some(cell) = self.rings.get_mut(slot * LOAD5_WINDOW + write_pos) {
            *cell = load1;
        }
        let (len, head) = if len < LOAD5_WINDOW {
            if let Some(l) = self.lens.get_mut(slot) {
                *l = len + 1;
            }
            (len + 1, head)
        } else {
            let new_head = (head + 1) % LOAD5_WINDOW;
            if let Some(h) = self.heads.get_mut(slot) {
                *h = new_head;
            }
            (len, new_head)
        };
        let mut sum = 0.0;
        for k in 0..len {
            let idx = slot * LOAD5_WINDOW + (head + k) % LOAD5_WINDOW;
            sum += self.rings.get(idx).copied().unwrap_or(0.0);
        }
        sum / len as f64
    }

    /// True when `slot`'s ring is saturated and every entry is
    /// bit-identical — the Load5 output is then provably constant under
    /// further identical Load1 readings.
    pub fn ring_stable(&self, slot: usize) -> bool {
        if self.lens.get(slot).copied().unwrap_or(0) < LOAD5_WINDOW {
            return false;
        }
        let base = slot * LOAD5_WINDOW;
        let Some(first) = self.rings.get(base) else {
            return false;
        };
        (1..LOAD5_WINDOW)
            .all(|k| self.rings.get(base + k).map(|v| v.to_bits()) == Some(first.to_bits()))
    }
}

/// splitmix64 finalizer for the deterministic workload schedule.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Keyed uniform deviate in `[0, 1)` — order-independent like the chaos
/// engine's coins.
fn unit(seed: u64, slot: u64, epoch: u64, salt: u64) -> f64 {
    let mixed = splitmix64(
        seed ^ splitmix64(slot.wrapping_add(0x9E37_79B9))
            ^ splitmix64(epoch.wrapping_add(0x85EB_CA6B))
            ^ splitmix64(salt),
    );
    (mixed >> 11) as f64 / (1u64 << 53) as f64
}

/// Bitwise equality of two metric vectors (`-0.0 != 0.0`, NaN payloads
/// distinct — the same contract the trace digests use).
fn bits_eq(a: &MetricVector, b: &MetricVector) -> bool {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Folds one VM's full dynamic state into `fp`.
fn fp_vm_state(state: &crate::VmState, fp: &mut Fingerprint64) {
    fp.write_usize(state.host.0);
    fp.write_f64(state.cpu_alloc);
    fp.write_f64(state.mem_alloc_mb);
    match state.migration {
        Some(m) => {
            fp.write_u8(1);
            fp.write_usize(m.target.0);
            fp.write_u64(m.started_at.as_secs());
            fp.write_u64(m.completes_at.as_secs());
        }
        None => fp.write_u8(0),
    }
    fp.write_f64(state.last_demand.cpu);
    fp.write_f64(state.last_demand.mem_mb);
    fp.write_f64(state.last_demand.net_in_kbps);
    fp.write_f64(state.last_demand.net_out_kbps);
    fp.write_f64(state.last_demand.disk_read_kbps);
    fp.write_f64(state.last_demand.disk_write_kbps);
    fp.write_f64(state.last_quality.cpu_fraction);
    fp.write_f64(state.last_quality.mem_fraction);
    fp.write_f64(state.last_quality.migration_penalty);
    fp.write_f64(state.last_quality.queue_delay_secs);
    fp.write_f64(state.cpu_used);
    fp.write_f64(state.mem_used_mb);
    fp.write_f64(state.effective_cpu_cap);
    fp.write_f64(state.cpu_backlog_secs);
    fp.write_f64(state.paging_debt_mb);
}

/// One splitmix64 mixing round folding `v` into the running hash.
// xtask: hot-path
#[inline]
fn fold(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

/// Fingerprint of one VM's state, used for the per-tick fixed-point
/// stability counter on the sparse path. This hash never enters a trace
/// — it is a deterministic equality proxy — so it trades the byte-wise
/// FNV stream for one splitmix64 round per field: the sparse path pays
/// it for every stepped VM every tick, and the long serial multiply
/// chain of the byte hash was the dominant per-tick overhead.
// xtask: hot-path
fn vm_state_fp(state: &crate::VmState) -> u64 {
    let mut h = fold(0x243F_6A88_85A3_08D3, state.host.0 as u64);
    h = fold(h, state.cpu_alloc.to_bits());
    h = fold(h, state.mem_alloc_mb.to_bits());
    h = match state.migration {
        Some(m) => {
            let mut m_h = fold(h, 1);
            m_h = fold(m_h, m.target.0 as u64);
            m_h = fold(m_h, m.started_at.as_secs());
            fold(m_h, m.completes_at.as_secs())
        }
        None => fold(h, 0),
    };
    h = fold(h, state.last_demand.cpu.to_bits());
    h = fold(h, state.last_demand.mem_mb.to_bits());
    h = fold(h, state.last_demand.net_in_kbps.to_bits());
    h = fold(h, state.last_demand.net_out_kbps.to_bits());
    h = fold(h, state.last_demand.disk_read_kbps.to_bits());
    h = fold(h, state.last_demand.disk_write_kbps.to_bits());
    h = fold(h, state.last_quality.cpu_fraction.to_bits());
    h = fold(h, state.last_quality.mem_fraction.to_bits());
    h = fold(h, state.last_quality.migration_penalty.to_bits());
    h = fold(h, state.last_quality.queue_delay_secs.to_bits());
    h = fold(h, state.cpu_used.to_bits());
    h = fold(h, state.mem_used_mb.to_bits());
    h = fold(h, state.effective_cpu_cap.to_bits());
    h = fold(h, state.cpu_backlog_secs.to_bits());
    fold(h, state.paging_debt_mb.to_bits())
}

/// An in-flight migration tracked by the fleet loop (so completions and
/// chaos aborts can be turned into events and resident wake-ups without
/// scanning every VM every tick).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    from: HostId,
    to: HostId,
    completes_at: u64,
}

/// The fleet simulator. Build with [`FleetSim::new`], execute with
/// [`FleetSim::run`], then read the work counters for throughput
/// reporting. One `FleetSim` supports one run; build a fresh one per
/// mode when comparing traces.
#[derive(Debug, Clone)]
pub struct FleetSim {
    spec: FleetSpec,
    cluster: Cluster,
    monitor: FleetMonitor,
    store: SoaMetricStore,
    engine: Option<ChaosEngine>,
    /// Slots currently stepped every tick (all slots in dense mode).
    awake: BTreeSet<usize>,
    /// Sleep records of skipped slots.
    asleep: BTreeMap<usize, SleepState>,
    /// Wakeup wheel: simulated tick → slots due to wake (epoch
    /// boundaries of sleeping hot VMs).
    wheel: BTreeMap<u64, BTreeSet<usize>>,
    in_flight: BTreeMap<usize, InFlight>,
    events: Vec<FleetEvent>,
    /// Per-slot state fingerprint at the previous tick (sparse only).
    tick_fp: Vec<Option<u64>>,
    /// Consecutive ticks the state fingerprint has been unchanged.
    stable_ticks: Vec<u64>,
    /// Sleep candidates: slots whose rendered sample was bit-equal at
    /// the last sampling round. Only candidates pay the per-tick state
    /// fingerprint — a slot whose samples still visibly change cannot
    /// sleep regardless of its integrator state, so hashing it every
    /// tick is pure overhead. Deferring the counter start never changes
    /// the trace: it only delays sleep by ticks that are stepped
    /// identically either way.
    candidate: Vec<bool>,
    /// Rendered sample at the previous sampling round.
    last_round_sample: Vec<Option<MetricVector>>,
    /// VM-ticks actually stepped (the work counter).
    stepped: u64,
    mode: TickMode,
}

impl FleetSim {
    /// Builds the cluster — `vms_per_host` VMs packed per host, leaving
    /// deliberate scaling headroom on every host — and all per-slot
    /// bookkeeping.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`PlacementError`] if the spec's per-host
    /// packing oversubscribes the VCL host.
    pub fn new(spec: FleetSpec) -> Result<Self, PlacementError> {
        let mut cluster = Cluster::new();
        let per_host = spec.vms_per_host.max(1);
        let hosts = spec.vms.div_ceil(per_host).max(1);
        for _ in 0..hosts {
            cluster.add_host(HostSpec::vcl_default());
        }
        for slot in 0..spec.vms {
            cluster.create_vm(HostId(slot / per_host), spec.vm_cpu, spec.vm_mem_mb)?;
        }
        let engine = spec.chaos.clone().map(ChaosEngine::new);
        let vms = spec.vms;
        let window = spec.window;
        Ok(FleetSim {
            monitor: FleetMonitor::new(vms),
            store: SoaMetricStore::new(vms, window),
            engine,
            awake: (0..vms).collect(),
            asleep: BTreeMap::new(),
            wheel: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            events: Vec::new(),
            tick_fp: vec![None; vms],
            stable_ticks: vec![0; vms],
            candidate: vec![false; vms],
            last_round_sample: vec![None; vms],
            stepped: 0,
            mode: TickMode::Sparse,
            spec,
            cluster,
        })
    }

    /// The fleet's spec.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// The cluster (for inspection after a run).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The SoA metric store (for inspection after a run).
    pub fn store(&self) -> &SoaMetricStore {
        &self.store
    }

    /// VM-ticks actually stepped — the sparse path's work counter. In
    /// dense mode this equals `vms × ticks`.
    pub fn stepped_vm_ticks(&self) -> u64 {
        self.stepped
    }

    /// Fraction of logical VM-ticks that were actually stepped.
    pub fn active_fraction(&self) -> f64 {
        let logical = self.spec.vms as u64 * self.spec.ticks;
        if logical == 0 {
            0.0
        } else {
            self.stepped as f64 / logical as f64
        }
    }

    /// True while the VM is hot (epoch-varying workload).
    fn is_hot(&self, slot: usize) -> bool {
        self.spec.hot_every > 0 && slot.is_multiple_of(self.spec.hot_every)
    }

    /// The workload epoch of `slot` at tick `t` (steady VMs stay in
    /// epoch 0 forever).
    fn epoch_of(&self, slot: usize, t: u64) -> u64 {
        if self.is_hot(slot) {
            t / self.spec.epoch_ticks.max(1)
        } else {
            0
        }
    }

    /// The deterministic demand of `slot` in `epoch` — a pure function
    /// of `(seed, slot, epoch)`, identical across modes and workers.
    fn demand_for(&self, slot: usize, epoch: u64) -> Demand {
        let s = self.spec.seed;
        let slot64 = slot as u64;
        let u_cpu = unit(s, slot64, epoch, 1);
        let u_mem = unit(s, slot64, epoch, 2);
        let u_net = unit(s, slot64, epoch, 3);
        let cpu = if self.is_hot(slot) && unit(s, slot64, epoch, 4) > 0.8 {
            // Overload surge: demand past the allocation, the trigger for
            // the epoch-boundary interventions below.
            self.spec.vm_cpu * (1.1 + 0.6 * u_cpu)
        } else {
            self.spec.vm_cpu * (0.3 + 0.45 * u_cpu)
        };
        Demand {
            cpu,
            mem_mb: self.spec.vm_mem_mb * (0.35 + 0.4 * u_mem),
            net_in_kbps: 40.0 + 80.0 * u_net,
            net_out_kbps: (40.0 + 80.0 * u_net) * 0.7,
            disk_read_kbps: 5.0,
            disk_write_kbps: 2.0,
        }
    }

    /// True while any chaos fault window is active at `t` or within the
    /// drain grace after it (two sampling intervals, enough for delay
    /// queues to coalesce and stuck attributes to heal). While relevant,
    /// the sparse path keeps the whole fleet awake so fault delivery is
    /// tick-for-tick identical to the dense referee.
    fn chaos_relevant(&self, t: u64) -> bool {
        let Some(engine) = &self.engine else {
            return false;
        };
        let grace = 2 * self.spec.sampling_interval;
        engine
            .plan()
            .faults
            .iter()
            .any(|f| f.from.as_secs() <= t && t < f.until.as_secs() + grace)
    }

    /// Wakes `slot` at tick `t`: backfills the sampling rounds it slept
    /// through with its constant sample and returns it to the active
    /// set. No-op for already-awake slots.
    fn wake(&mut self, slot: usize, t: u64) {
        let Some(sleep) = self.asleep.remove(&slot) else {
            return;
        };
        self.awake.insert(slot);
        let interval = self.spec.sampling_interval;
        if t > sleep.last_round {
            // Rounds strictly before the wake tick; if `t` itself is a
            // round the now-awake VM samples it live.
            let count = (t - 1 - sleep.last_round) / interval;
            if count > 0 {
                self.store.fill_repeat(
                    slot,
                    Timestamp::from_secs(sleep.last_round + interval),
                    Duration::from_secs(interval),
                    count as usize,
                    &sleep.sample,
                );
            }
        }
    }

    /// Wakes every resident of `host` (their contention squeeze may have
    /// changed).
    fn wake_residents(&mut self, host: HostId, t: u64) {
        let residents: Vec<usize> = self
            .cluster
            .placement()
            .occupant_sets(host)
            .0
            .iter()
            .copied()
            .collect();
        for slot in residents {
            self.wake(slot, t);
        }
    }

    /// Epoch-boundary intervention for a hot VM: scale up into an
    /// overload (falling back to a worst-fit migration when the host has
    /// no headroom), scale back down when the surge passes.
    fn run_epoch_op(&mut self, slot: usize, t: u64) {
        let vm = VmId(slot);
        let now = Timestamp::from_secs(t);
        let state = self.cluster.vm(vm);
        if state.is_migrating() {
            return;
        }
        let alloc = state.cpu_alloc;
        let host = state.host;
        let demand = self.demand_for(slot, self.epoch_of(slot, t));
        let base = self.spec.vm_cpu;
        if demand.cpu > alloc {
            let target_alloc = (demand.cpu * 1.25).min(base * 2.0);
            if target_alloc <= alloc + 1e-9 {
                return;
            }
            match self.cluster.scale_cpu(vm, target_alloc, now) {
                Ok(()) => {
                    self.events.push(FleetEvent::Scaled {
                        at: t,
                        vm,
                        cpu_to: target_alloc,
                    });
                    self.wake_residents(host, t);
                }
                Err(ScaleError::InsufficientHeadroom { .. }) => {
                    // PREPARE's fallback: no local headroom → relocate.
                    match self.cluster.find_migration_target_with(vm, &WorstFit) {
                        Some(target) => match self.cluster.begin_migration(vm, target, now) {
                            Ok(d) => {
                                self.events.push(FleetEvent::MigrationStarted {
                                    at: t,
                                    vm,
                                    from: host,
                                    to: target,
                                });
                                self.in_flight.insert(
                                    slot,
                                    InFlight {
                                        from: host,
                                        to: target,
                                        completes_at: t + d.as_secs(),
                                    },
                                );
                            }
                            Err(_) => self.events.push(FleetEvent::ScaleFailed { at: t, vm }),
                        },
                        None => self.events.push(FleetEvent::ScaleFailed { at: t, vm }),
                    }
                }
                Err(_) => self.events.push(FleetEvent::ScaleFailed { at: t, vm }),
            }
        } else if demand.cpu < 0.5 * alloc && alloc > base + 1e-9 {
            match self.cluster.scale_cpu(vm, base, now) {
                Ok(()) => {
                    self.events.push(FleetEvent::Scaled {
                        at: t,
                        vm,
                        cpu_to: base,
                    });
                    self.wake_residents(host, t);
                }
                Err(_) => self.events.push(FleetEvent::ScaleFailed { at: t, vm }),
            }
        }
    }

    /// Runs the simulation in `mode` and returns the replay-comparable
    /// trace. `par` controls the sample-render fan-out (fixed-partition
    /// `par_map`, so the trace is identical at any worker count).
    pub fn run(&mut self, mode: TickMode, par: &prepare_par::ParConfig) -> FleetTrace {
        self.mode = mode;
        let interval = self.spec.sampling_interval.max(1);
        let epoch_ticks = self.spec.epoch_ticks.max(1);
        for t in 0..self.spec.ticks {
            let now = Timestamp::from_secs(t);

            // 1. Wheel wake-ups scheduled for this tick.
            if let Some(due) = self.wheel.remove(&t) {
                for slot in due {
                    self.wake(slot, t);
                }
            }

            // 2. Chaos actuation faults (both modes, every tick — the
            // engine's decisions are keyed, not sequenced).
            if let Some(mut engine) = self.engine.take() {
                engine.tick(&mut self.cluster, now);
                self.engine = Some(engine);
                // Reconcile chaos-aborted migrations.
                let aborted: Vec<usize> = self
                    .in_flight
                    .iter()
                    .filter(|(slot, f)| {
                        t < f.completes_at && !self.cluster.vm(VmId(**slot)).is_migrating()
                    })
                    .map(|(slot, _)| *slot)
                    .collect();
                for slot in aborted {
                    self.in_flight.remove(&slot);
                    self.events.push(FleetEvent::MigrationAborted {
                        at: t,
                        vm: VmId(slot),
                    });
                    self.wake(slot, t);
                }
            }

            // 3. Migration switch-overs due now. `Cluster::advance` is
            // only invoked when a tracked migration is due — calling it
            // with nothing in flight is a no-op, so skipping it is
            // state-identical and saves the O(vms) scan.
            let due: Vec<usize> = self
                .in_flight
                .iter()
                .filter(|(_, f)| f.completes_at <= t)
                .map(|(slot, _)| *slot)
                .collect();
            if !due.is_empty() {
                self.cluster.advance(now);
                for slot in due {
                    let Some(f) = self.in_flight.remove(&slot) else {
                        continue;
                    };
                    self.events.push(FleetEvent::MigrationCompleted {
                        at: t,
                        vm: VmId(slot),
                        to: f.to,
                    });
                    // Allocation moved between hosts: both sides' squeeze
                    // may change.
                    self.wake_residents(f.from, t);
                    self.wake_residents(f.to, t);
                }
            }

            // 4. Epoch boundaries: wake the hot VM (its demand changes)
            // and run its intervention, ascending slot order.
            if t > 0 && t % epoch_ticks == 0 && self.spec.hot_every > 0 {
                for slot in (0..self.spec.vms).step_by(self.spec.hot_every) {
                    self.wake(slot, t);
                    self.run_epoch_op(slot, t);
                }
            }

            // 5. Chaos windows force the whole fleet awake.
            let chaos_now = self.chaos_relevant(t);
            if chaos_now && !self.asleep.is_empty() {
                let sleeping: Vec<usize> = self.asleep.keys().copied().collect();
                for slot in sleeping {
                    self.wake(slot, t);
                }
            }

            // 6. Step every awake VM (ascending slot order). The
            // fixed-point bookkeeping is sparse-only pure observation —
            // the dense referee skips it, which cannot affect the trace
            // — and runs only for sleep candidates (sample-stable
            // slots), since a visibly changing VM cannot sleep anyway.
            let stepping: Vec<usize> = self.awake.iter().copied().collect();
            self.stepped += stepping.len() as u64;
            for &slot in &stepping {
                let d = self.demand_for(slot, self.epoch_of(slot, t));
                self.cluster.apply_demand(VmId(slot), d, now);
                if mode == TickMode::Sparse && self.candidate.get(slot).copied().unwrap_or(false) {
                    let fp = vm_state_fp(self.cluster.vm(VmId(slot)));
                    let prev = self.tick_fp.get(slot).copied().flatten();
                    if let Some(count) = self.stable_ticks.get_mut(slot) {
                        *count = if prev == Some(fp) { *count + 1 } else { 0 };
                    }
                    if let Some(cell) = self.tick_fp.get_mut(slot) {
                        *cell = Some(fp);
                    }
                }
            }

            // 7. Sampling round: render (parallel, pure), then serially
            // smooth Load5, route through chaos delivery, ingest, and
            // evaluate quiescence.
            if t % interval == 0 {
                let cluster = &self.cluster;
                let rendered = prepare_par::par_map(par, stepping.clone(), |slot| {
                    FleetMonitor::render_base(cluster, VmId(slot))
                });
                for (&slot, (mut v, load1)) in stepping.iter().zip(rendered) {
                    let load5 = self.monitor.observe(slot, load1);
                    v.set(AttributeKind::Load5, load5);
                    let vm = VmId(slot);
                    let host = self.cluster.vm(vm).host;
                    let delivered = match self.engine.as_mut() {
                        Some(engine) => engine
                            .deliver(vm, host, prepare_metrics::MetricSample::new(now, v), now)
                            .map(|st| st.sample.values),
                        None => Some(v),
                    };
                    if let Some(values) = delivered {
                        self.store.push(slot, now, &values);
                    }
                    // Quiescence: sleep only when a further tick+sample
                    // is provably the identity.
                    if mode == TickMode::Sparse {
                        let sample_stable = self
                            .last_round_sample
                            .get(slot)
                            .and_then(|s| s.as_ref())
                            .is_some_and(|prev| bits_eq(prev, &v));
                        if sample_stable
                            && !chaos_now
                            && self.stable_ticks.get(slot).copied().unwrap_or(0) >= interval
                            && !self.cluster.vm(vm).is_migrating()
                            && self.monitor.ring_stable(slot)
                        {
                            self.awake.remove(&slot);
                            self.asleep.insert(
                                slot,
                                SleepState {
                                    sample: v,
                                    last_round: t,
                                },
                            );
                            if self.is_hot(slot) {
                                let next_boundary = (t / epoch_ticks + 1) * epoch_ticks;
                                self.wheel.entry(next_boundary).or_default().insert(slot);
                            }
                        }
                        // Candidate maintenance: a stable sample starts
                        // (or continues) the fixed-point count; an
                        // unstable one resets it.
                        let was_candidate = self.candidate.get(slot).copied().unwrap_or(false);
                        if !sample_stable || !was_candidate {
                            if let Some(count) = self.stable_ticks.get_mut(slot) {
                                *count = 0;
                            }
                            if let Some(cell) = self.tick_fp.get_mut(slot) {
                                *cell = None;
                            }
                        }
                        if let Some(c) = self.candidate.get_mut(slot) {
                            *c = sample_stable;
                        }
                    }
                    if let Some(cell) = self.last_round_sample.get_mut(slot) {
                        *cell = Some(v);
                    }
                }
            }
        }

        // Flush: backfill still-sleeping slots through the final round.
        let sleeping: Vec<usize> = self.asleep.keys().copied().collect();
        for slot in sleeping {
            self.wake(slot, self.spec.ticks);
        }

        FleetTrace {
            events: self.events.clone(),
            state_digest: self.state_digest(),
            metrics_digest: self.metrics_digest(),
            vm_ticks: self.spec.vms as u64 * self.spec.ticks,
        }
    }

    /// FNV fold of every VM's final state, the actuation log, and the
    /// hypervisor-busy flag.
    fn state_digest(&self) -> u64 {
        let mut fp = Fingerprint64::new();
        for id in self.cluster.vm_ids() {
            fp_vm_state(self.cluster.vm(id), &mut fp);
        }
        fp.write_usize(self.cluster.actions().len());
        for record in self.cluster.actions() {
            // One-time end-of-run digest; the Debug rendering is exact
            // for every payload field.
            fp.write_bytes(format!("{record:?}").as_bytes());
        }
        fp.write_u8(u8::from(self.cluster.is_hypervisor_busy()));
        fp.finish()
    }

    /// Head-normalized FNV fold of the SoA metric store.
    fn metrics_digest(&self) -> u64 {
        let mut fp = Fingerprint64::new();
        self.store.fingerprint_into(&mut fp);
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChaosKind;
    use prepare_par::ParConfig;

    fn run_mode(spec: &FleetSpec, mode: TickMode, workers: usize) -> (FleetTrace, f64) {
        let mut sim = FleetSim::new(spec.clone()).expect("fleet fits");
        let trace = sim.run(mode, &ParConfig::with_workers(workers));
        (trace, sim.active_fraction())
    }

    #[test]
    fn sparse_and_dense_traces_are_identical() {
        let spec = FleetSpec::new(96, 200, 0xFEED);
        let (sparse, active) = run_mode(&spec, TickMode::Sparse, 1);
        let (dense, dense_active) = run_mode(&spec, TickMode::Dense, 1);
        assert_eq!(sparse, dense);
        assert_eq!(dense_active, 1.0, "dense steps everything");
        assert!(
            active < 0.6,
            "a mostly-steady fleet must mostly sleep (active {active})"
        );
        assert!(
            !sparse.events.is_empty(),
            "epoch surges should trigger interventions"
        );
    }

    #[test]
    fn sparse_path_skips_most_of_a_steady_fleet() {
        // No hot VMs at all: after warm-up the whole fleet sleeps.
        let mut spec = FleetSpec::new(48, 300, 7);
        spec.hot_every = 0;
        let (sparse, active) = run_mode(&spec, TickMode::Sparse, 1);
        let (dense, _) = run_mode(&spec, TickMode::Dense, 1);
        assert_eq!(sparse, dense);
        assert!(
            active < 0.2,
            "steady fleet should quiesce after warm-up (active {active})"
        );
    }

    #[test]
    fn traces_are_worker_count_invariant() {
        let spec = FleetSpec::new(96, 150, 42);
        let (w1, _) = run_mode(&spec, TickMode::Sparse, 1);
        let (w2, _) = run_mode(&spec, TickMode::Sparse, 2);
        let (w7, _) = run_mode(&spec, TickMode::Sparse, 7);
        assert_eq!(w1, w2);
        assert_eq!(w1, w7);
    }

    #[test]
    fn chaos_windows_preserve_byte_identity() {
        let mut spec = FleetSpec::new(72, 200, 0xC0FFEE);
        spec.chaos = Some(
            ChaosPlan::new(0xC0FFEE)
                .with_fault(
                    Timestamp::from_secs(50),
                    Timestamp::from_secs(90),
                    ChaosKind::DropSamples {
                        vm: None,
                        probability: 0.3,
                    },
                )
                .with_fault(
                    Timestamp::from_secs(40),
                    Timestamp::from_secs(120),
                    ChaosKind::HypervisorBusy { probability: 0.5 },
                )
                .with_fault(
                    Timestamp::from_secs(60),
                    Timestamp::from_secs(100),
                    ChaosKind::MigrationTimeout {
                        timeout: Duration::from_secs(2),
                    },
                ),
        );
        let (sparse, _) = run_mode(&spec, TickMode::Sparse, 1);
        let (dense, _) = run_mode(&spec, TickMode::Dense, 1);
        assert_eq!(sparse, dense);
    }

    #[test]
    fn metrics_store_holds_one_sample_per_round() {
        let spec = FleetSpec::new(48, 200, 3);
        let mut sim = FleetSim::new(spec).expect("fits");
        sim.run(TickMode::Sparse, &ParConfig::serial());
        let rounds = 200 / 5; // ticks 0,5,...,195
        let window = sim.spec().window;
        for slot in 0..48 {
            assert_eq!(sim.store().len(slot), rounds.min(window));
            let newest = sim.store().latest(slot).expect("sampled");
            assert_eq!(newest.time.as_secs(), 195);
        }
    }

    #[test]
    fn load5_ring_mean_has_finite_fixed_point() {
        let mut mon = FleetMonitor::new(1);
        for _ in 0..4 {
            mon.observe(0, 2.0);
            assert!(!mon.ring_stable(0), "ring not yet saturated");
        }
        let l5 = mon.observe(0, 2.0);
        assert_eq!(l5, 2.0);
        assert!(mon.ring_stable(0));
        // A different reading breaks stability immediately.
        mon.observe(0, 3.0);
        assert!(!mon.ring_stable(0));
    }

    #[test]
    fn fleet_spec_packing_fits_vcl_hosts() {
        let spec = FleetSpec::new(240, 10, 1);
        let sim = FleetSim::new(spec).expect("24 VMs per host fit");
        assert_eq!(sim.cluster().n_hosts(), 10);
        assert_eq!(sim.cluster().n_vms(), 240);
        // Block packing: 24 per host, one VM's worth of CPU headroom each.
        for h in 0..10 {
            assert_eq!(sim.cluster().placement().resident_count(HostId(h)), 24);
            let (free_cpu, _) = sim.cluster().host_free(HostId(h));
            assert_eq!(free_cpu, 200.0 - 24.0 * 8.0);
        }
    }
}
