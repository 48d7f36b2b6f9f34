//! The PREPARE control loop (paper Fig. 1): monitoring in, predictions
//! and diagnoses through the middle, hypervisor actuations out.

use crate::validation::usage_changed;
use crate::{
    ActionFailureKind, CauseInference, ControllerEvent, Episode, PlannedAction, PrepareConfig,
    PreventionPlanner, ValidationOutcome,
};
use prepare_anomaly::{AlertFilter, AnomalyPredictor, FleetTrainer, Vote};
use prepare_cloudsim::{Cluster, HostId};
use prepare_metrics::persist::{Persist, PersistError, Reader, Writer};
use prepare_metrics::{
    AttributeKind, Duration, Fingerprint64, Label, LastValueImputer, MetricSample,
    ScalableResource, SloLog, StampedSample, TimeSeries, Timestamp, VmId,
};
use prepare_par::ParConfig;
use std::collections::{BTreeMap, BTreeSet};

/// The three anomaly management schemes compared throughout §III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Full PREPARE: predictive alerts drive prevention, with a reactive
    /// fallback when a prediction was missed.
    Prepare,
    /// Reactive intervention: the same cause inference and prevention
    /// actuation, but triggered only *after* an SLO violation is
    /// detected.
    Reactive,
    /// No intervention at all (the paper's worst-case baseline).
    NoIntervention,
}

impl Scheme {
    /// Label used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Prepare => "PREPARE",
            Scheme::Reactive => "reactive",
            Scheme::NoIntervention => "none",
        }
    }
}

impl Persist for Scheme {
    fn store(&self, w: &mut Writer) {
        w.put_u8(match self {
            Scheme::Prepare => 0,
            Scheme::Reactive => 1,
            Scheme::NoIntervention => 2,
        });
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(Scheme::Prepare),
            1 => Ok(Scheme::Reactive),
            2 => Ok(Scheme::NoIntervention),
            tag => Err(PersistError::BadTag {
                what: "Scheme",
                tag,
            }),
        }
    }
}

/// The failure summary of an executed prevention action, exactly as the
/// control loop consumed it: whether a bounded retry is expected to clear
/// it, and the hypervisor's error text (which feeds the event log).
///
/// This is what the write-ahead journal records for an `execute` touch —
/// enough to re-drive the controller's failure handling bit-identically
/// without re-contacting the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecFailure {
    /// True when the error was transient (hypervisor control plane busy).
    pub transient: bool,
    /// The error's display text.
    pub message: String,
}

/// One recorded cluster interaction from a control round.
///
/// The journal stores the *replies* the cluster gave, not the requests:
/// on recovery the replayed controller consumes these instead of touching
/// the live cluster, which structurally rules out issuing a duplicate
/// actuation for a round that already ran before the crash.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterReply {
    /// Outcome of a planner `plan` query.
    Plan(Option<PlannedAction>),
    /// Outcome of a planner `execute` call (`None` = success).
    Execute(Option<ExecFailure>),
    /// Migration-relevant snapshot of one VM read during validation.
    VmState {
        /// Whether a live migration was in flight.
        migrating: bool,
        /// The host the VM was on.
        host: HostId,
    },
}

impl Persist for ExecFailure {
    fn store(&self, w: &mut Writer) {
        self.transient.store(w);
        self.message.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(ExecFailure {
            transient: bool::load(r)?,
            message: String::load(r)?,
        })
    }
}

impl Persist for ClusterReply {
    fn store(&self, w: &mut Writer) {
        match self {
            ClusterReply::Plan(a) => {
                w.put_u8(0);
                a.store(w);
            }
            ClusterReply::Execute(f) => {
                w.put_u8(1);
                f.store(w);
            }
            ClusterReply::VmState { migrating, host } => {
                w.put_u8(2);
                migrating.store(w);
                host.store(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.get_u8()? {
            0 => ClusterReply::Plan(Option::load(r)?),
            1 => ClusterReply::Execute(Option::load(r)?),
            2 => ClusterReply::VmState {
                migrating: bool::load(r)?,
                host: HostId::load(r)?,
            },
            tag => {
                return Err(PersistError::BadTag {
                    what: "ClusterReply",
                    tag,
                })
            }
        })
    }
}

/// The controller's window onto the cluster for one control round: either
/// the live cluster (recording every reply), or a recorded reply stream
/// being replayed during crash recovery.
///
/// Recovery replays journaled rounds through [`ClusterIo::Replay`]: the
/// controller's internal state evolves exactly as it did before the
/// crash, but plan/execute/inspect touches consume the recorded replies —
/// the live cluster, which already absorbed those actuations, is never
/// contacted again.
#[derive(Debug)]
pub(crate) enum ClusterIo<'a> {
    /// Drive the real cluster, logging each reply for the journal.
    Live {
        /// The cluster being actuated.
        cluster: &'a mut Cluster,
        /// Replies in touch order, ready for the journal.
        log: Vec<ClusterReply>,
    },
    /// Consume a journaled reply stream instead of touching the cluster.
    Replay {
        /// The recorded replies, in touch order.
        replies: &'a [ClusterReply],
        /// Next reply to consume.
        pos: usize,
    },
}

impl<'a> ClusterIo<'a> {
    /// A live window that records every reply.
    pub(crate) fn live(cluster: &'a mut Cluster) -> Self {
        ClusterIo::Live {
            cluster,
            log: Vec::new(),
        }
    }

    /// A replay window over a journaled reply stream.
    pub(crate) fn replay(replies: &'a [ClusterReply]) -> Self {
        ClusterIo::Replay { replies, pos: 0 }
    }

    /// The recorded replies of a live round (empty for replay).
    pub(crate) fn into_log(self) -> Vec<ClusterReply> {
        match self {
            ClusterIo::Live { log, .. } => log,
            ClusterIo::Replay { .. } => Vec::new(),
        }
    }

    fn next_reply(&mut self, expected: &'static str) -> &'a ClusterReply {
        match self {
            ClusterIo::Live { .. } => unreachable!("next_reply is replay-only"), // xtask-allow: unreachable -- private method, only called from Replay arms
            ClusterIo::Replay { replies, pos } => {
                let reply = replies.get(*pos).unwrap_or_else(|| {
                    // Continuing a diverged replay would rebuild a controller
                    // whose state silently disagrees with the journal.
                    // xtask-allow: panic -- documented crash-consistency contract
                    panic!("journal replay diverged: ran out of replies wanting {expected}")
                });
                *pos += 1;
                reply
            }
        }
    }

    /// Asserts every recorded reply was consumed — a replayed round that
    /// leaves replies behind took a different branch than the original.
    ///
    /// # Panics
    ///
    /// Panics on a replay window with unconsumed replies.
    pub(crate) fn assert_drained(&self) {
        if let ClusterIo::Replay { replies, pos } = self {
            assert!(
                *pos == replies.len(),
                "journal replay diverged: {} of {} replies unconsumed",
                replies.len() - pos,
                replies.len()
            );
        }
    }

    fn plan(
        &mut self,
        planner: &PreventionPlanner,
        vm: VmId,
        ranked: &[AttributeKind],
        allow_migration: bool,
        ineffective: &[ScalableResource],
    ) -> Option<PlannedAction> {
        match self {
            ClusterIo::Live { cluster, log } => {
                let action = planner.plan(cluster, vm, ranked, allow_migration, ineffective);
                log.push(ClusterReply::Plan(action));
                action
            }
            ClusterIo::Replay { .. } => match self.next_reply("Plan") {
                ClusterReply::Plan(action) => *action,
                other => panic!("journal replay diverged: wanted Plan, recorded {other:?}"), // xtask-allow: panic -- documented crash-consistency contract
            },
        }
    }

    fn execute(
        &mut self,
        planner: &PreventionPlanner,
        action: PlannedAction,
        now: Timestamp,
    ) -> Option<ExecFailure> {
        match self {
            ClusterIo::Live { cluster, log } => {
                let failure = planner
                    .execute(cluster, action, now)
                    .err()
                    .map(|e| ExecFailure {
                        transient: e.is_transient(),
                        message: e.to_string(),
                    });
                log.push(ClusterReply::Execute(failure.clone()));
                failure
            }
            ClusterIo::Replay { .. } => match self.next_reply("Execute") {
                ClusterReply::Execute(failure) => failure.clone(),
                other => panic!("journal replay diverged: wanted Execute, recorded {other:?}"), // xtask-allow: panic -- documented crash-consistency contract
            },
        }
    }

    fn vm_state(&mut self, vm: VmId) -> (bool, HostId) {
        match self {
            ClusterIo::Live { cluster, log } => {
                let state = cluster.vm(vm);
                let snapshot = (state.is_migrating(), state.host);
                log.push(ClusterReply::VmState {
                    migrating: snapshot.0,
                    host: snapshot.1,
                });
                snapshot
            }
            ClusterIo::Replay { .. } => match self.next_reply("VmState") {
                ClusterReply::VmState { migrating, host } => (*migrating, *host),
                other => panic!("journal replay diverged: wanted VmState, recorded {other:?}"), // xtask-allow: panic -- documented crash-consistency contract
            },
        }
    }
}

/// The PREPARE controller for one distributed application.
///
/// Feed it one batch of per-VM readings per sampling interval via
/// [`PrepareController::on_readings`]; it maintains per-VM anomaly
/// predictors (trained automatically once the first anomaly has been seen
/// and has passed — the paper's recurrent-anomaly regime), confirms
/// alerts through k-of-W filtering, diagnoses faulty VMs and blamed
/// metrics, actuates prevention on the given cluster, and validates
/// effectiveness. The controller is `Clone`, so a driver can snapshot a
/// trained state once and fork it into many what-if continuations (the
/// `prepare-tlc` explorer does exactly this).
// xtask: checkpoint
#[derive(Debug, Clone)]
pub struct PrepareController {
    config: PrepareConfig,
    scheme: Scheme,
    vms: Vec<VmId>,
    /// `vms` position of each managed VM (its first, for a repeated id):
    /// the trainer slot holding that VM's history. Iterating it visits
    /// the VMs in id order.
    // xtask: ephemeral -- pure function of `vms`, rebuilt on restore
    slot_of: BTreeMap<VmId, usize>,
    slo: SloLog,
    predictors: BTreeMap<VmId, AnomalyPredictor>,
    filters: BTreeMap<VmId, AlertFilter>,
    inference: CauseInference,
    // xtask: ephemeral -- pure function of config, rebuilt on restore
    planner: PreventionPlanner,
    /// k-of-W debounce over the *observed* SLO status: the reactive
    /// trigger (and the reactive baseline scheme) confirms a violation
    /// before intervening, exactly like the predictive path confirms
    /// alerts — a single 5 s violation blip must not actuate the
    /// hypervisor. The asymmetry this creates is the paper's central
    /// point: PREPARE pays its confirmation delay *before* the anomaly
    /// lands, the reactive baseline pays it *while the SLO is broken*.
    violation_filter: AlertFilter,
    episodes: BTreeMap<VmId, Episode>,
    /// Last completed-or-started migration per VM — guards against
    /// ping-ponging a VM between hosts across back-to-back episodes.
    last_migration: BTreeMap<VmId, Timestamp>,
    /// VMs whose episodes were abandoned after repeated action failures:
    /// no new episode opens for them until the stated time.
    suppressed_until: BTreeMap<VmId, Timestamp>,
    /// Hold-last-value imputation state, one per managed VM: papers over
    /// short monitoring gaps until the staleness budget runs out.
    imputers: BTreeMap<VmId, LastValueImputer>,
    /// VMs whose monitoring evidence is past its staleness budget. The
    /// controller abstains from predictive votes for them (the k-of-W
    /// window freezes) and freezes their open episodes.
    degraded: BTreeSet<VmId>,
    trained_at: Option<Timestamp>,
    last_retrain: Option<Timestamp>,
    last_workload_change: bool,
    /// The only copy of each VM's labeled sample history (slot `i`
    /// holds `vms[i]`). Every usable sample is also folded into per-VM
    /// count arenas at ingest, so with `config.online_training` training
    /// rounds *derive* models from the maintained statistics instead of
    /// rescanning each VM's series; without it every training round
    /// retrains from the trainer's series (the from-scratch referee).
    trainer: FleetTrainer,
    events: Vec<ControllerEvent>,
}

/// Maps each VM to its first position in `vms` — its trainer slot.
fn slot_index(vms: &[VmId]) -> BTreeMap<VmId, usize> {
    let mut index = BTreeMap::new();
    for (slot, &vm) in vms.iter().enumerate() {
        index.entry(vm).or_insert(slot);
    }
    index
}

/// Minimum spacing between two migrations of the same VM (seconds).
pub const MIGRATION_COOLDOWN_SECS: u64 = 120;

/// Consecutive action failures after which an episode is abandoned.
pub const MAX_EPISODE_FAILURES: usize = 3;

/// How long an abandoned VM stays suppressed (seconds).
pub const SUPPRESSION_SECS: u64 = 60;

/// Quiet period after model training during which predictive alerts do
/// not open episodes (reactive response to real violations is unaffected).
pub const TRAINING_SETTLE_SECS: u64 = 60;

/// Maximum scheduled retries of a transiently rejected (hypervisor-busy)
/// action before the episode gives up on it, counts one failure, and
/// falls through to the next-ranked candidate attribute.
pub const TRANSIENT_RETRY_LIMIT: usize = 4;

/// Backoff base (seconds) for retrying a transiently rejected scaling
/// action; doubles per attempt up to [`RETRY_BACKOFF_CAP_SECS`].
pub const SCALE_RETRY_BASE_SECS: u64 = 5;

/// Backoff base (seconds) for retrying a transiently rejected migration —
/// migrations are heavier, so they wait longer between attempts.
pub const MIGRATE_RETRY_BASE_SECS: u64 = 10;

/// Ceiling on any single retry backoff (seconds).
pub const RETRY_BACKOFF_CAP_SECS: u64 = 60;

impl PrepareController {
    /// Creates a controller for the application running on `vms`.
    ///
    /// # Panics
    ///
    /// Panics if `vms` is empty or the configuration is inconsistent.
    pub fn new(vms: Vec<VmId>, config: PrepareConfig, scheme: Scheme) -> Self {
        assert!(!vms.is_empty(), "controller needs at least one VM");
        config.validate();
        let recency = config.predictor.sampling_interval.as_secs() * 3;
        let inference =
            CauseInference::with_par(&vms, config.workload_change_quorum, recency, config.par);
        let planner = PreventionPlanner::new(config.policy, config.scale_factor)
            .with_migration_target_policy(config.migration_policy);
        let filters = vms
            .iter()
            .map(|&vm| (vm, AlertFilter::new(config.filter_k, config.filter_w)))
            .collect();
        let imputers = vms
            .iter()
            .map(|&vm| (vm, LastValueImputer::new()))
            .collect();
        let violation_filter = AlertFilter::new(config.filter_k, config.filter_w);
        let trainer = FleetTrainer::new(vms.len(), &config.predictor);
        PrepareController {
            config,
            scheme,
            slot_of: slot_index(&vms),
            vms,
            slo: SloLog::new(),
            predictors: BTreeMap::new(),
            filters,
            inference,
            planner,
            violation_filter,
            episodes: BTreeMap::new(),
            last_migration: BTreeMap::new(),
            suppressed_until: BTreeMap::new(),
            imputers,
            degraded: BTreeSet::new(),
            trained_at: None,
            last_retrain: None,
            last_workload_change: false,
            trainer,
            events: Vec::new(),
        }
    }

    /// Whether the per-VM models have been trained yet.
    pub fn is_trained(&self) -> bool {
        self.trained_at.is_some()
    }

    /// When training completed, if it has.
    pub fn trained_at(&self) -> Option<Timestamp> {
        self.trained_at
    }

    /// Every event the controller has emitted.
    pub fn events(&self) -> &[ControllerEvent] {
        &self.events
    }

    /// The controller's view of the SLO history.
    pub fn slo_log(&self) -> &SloLog {
        &self.slo
    }

    /// The accumulated metric series of one VM.
    pub fn series(&self, vm: VmId) -> Option<&TimeSeries> {
        self.slot_of.get(&vm).map(|&slot| self.trainer.series(slot))
    }

    /// Every managed VM's series, in VM-id order.
    fn series_by_id(&self) -> Vec<(VmId, &TimeSeries)> {
        self.slot_of
            .iter()
            .map(|(&vm, &slot)| (vm, self.trainer.series(slot)))
            .collect()
    }

    /// The trained predictor of one VM, if training has happened.
    pub fn predictor(&self, vm: VmId) -> Option<&AnomalyPredictor> {
        self.predictors.get(&vm)
    }

    /// Whether `vm`'s monitoring evidence is currently past its staleness
    /// budget (the controller is abstaining for it).
    pub fn is_degraded(&self, vm: VmId) -> bool {
        self.degraded.contains(&vm)
    }

    /// VMs currently past their staleness budget, in id order.
    pub fn degraded_vms(&self) -> Vec<VmId> {
        self.degraded.iter().copied().collect()
    }

    /// Ingests one sampling round of stamped readings — the
    /// robustness-aware entry point. Readings may be missing entirely
    /// (dropped samples, host blackout), late (collection stamps behind
    /// `now`), or partially frozen (a stuck attribute keeps its old
    /// stamp). The controller:
    ///
    /// 1. feeds every reading still within the configured
    ///    [`prepare_metrics::StalenessBudget`] into the pipeline,
    ///    re-timed to its arrival round;
    /// 2. papers over short gaps with hold-last-value imputation, which
    ///    self-expires once the held reading outlives the budget;
    /// 3. marks VMs with no trustworthy evidence as *degraded* — their
    ///    predictive votes become abstentions (the k-of-W window
    ///    freezes), they are excluded from reactive diagnosis, and their
    ///    open episodes pause — emitting
    ///    [`ControllerEvent::MonitoringDegraded`] /
    ///    [`ControllerEvent::MonitoringRecovered`] on the transitions.
    ///
    /// With every reading fresh ([`StampedSample::fresh`], the
    /// benign-infrastructure case) nothing is imputed or degraded.
    ///
    /// # Panics
    ///
    /// Panics if a reading belongs to a VM this controller does not
    /// manage.
    pub fn on_readings(
        &mut self,
        now: Timestamp,
        readings: &[(VmId, StampedSample)],
        slo_violated: bool,
        cluster: &mut Cluster,
    ) -> Vec<ControllerEvent> {
        let mut io = ClusterIo::live(cluster);
        self.round(now, readings, slo_violated, &mut io)
    }

    /// The one control round behind [`PrepareController::on_readings`]
    /// and the recovery manager: `io` is the live cluster (recording
    /// every reply for the journal) or a journaled reply stream being
    /// replayed after a crash.
    ///
    /// # Panics
    ///
    /// Panics if a reading belongs to a VM this controller does not
    /// manage.
    pub(crate) fn round(
        &mut self,
        now: Timestamp,
        readings: &[(VmId, StampedSample)],
        slo_violated: bool,
        io: &mut ClusterIo<'_>,
    ) -> Vec<ControllerEvent> {
        let events_before = self.events.len();

        // Resolve this round's usable per-VM evidence.
        let mut usable: Vec<(VmId, MetricSample)> = Vec::with_capacity(self.vms.len());
        let mut arrived: BTreeSet<VmId> = BTreeSet::new();
        let mut covered: BTreeSet<VmId> = BTreeSet::new();
        for (vm, stamped) in readings {
            assert!(
                self.slot_of.contains_key(vm),
                "sample for unmanaged VM {vm}"
            );
            arrived.insert(*vm);
            if let Some(imputer) = self.imputers.get_mut(vm) {
                imputer.observe(stamped);
            }
            if !self.config.staleness.is_exceeded(now, stamped) {
                // Re-time to the arrival round so the series stays
                // monotonic even for late deliveries (a no-op for fresh
                // samples, whose own time already is `now`).
                usable.push((*vm, MetricSample::new(now, stamped.sample.values)));
                covered.insert(*vm);
            }
        }
        for &vm in &self.vms {
            if arrived.contains(&vm) {
                continue;
            }
            // Nothing arrived: hold the last value while it is still
            // within budget. The imputed sample keeps its original
            // collection stamps, so this path shuts itself off once the
            // gap outlives the budget.
            if let Some(imputed) = self.imputers.get(&vm).and_then(|i| i.impute(now)) {
                if !self.config.staleness.is_exceeded(now, &imputed) {
                    usable.push((vm, imputed.sample));
                    covered.insert(vm);
                }
            }
        }

        // Edge-triggered degradation bookkeeping, in VM-id order.
        for &vm in &self.vms {
            let was = self.degraded.contains(&vm);
            let is = !covered.contains(&vm);
            if is == was {
                continue;
            }
            if is {
                self.degraded.insert(vm);
                if self.scheme != Scheme::NoIntervention {
                    self.events
                        .push(ControllerEvent::MonitoringDegraded { at: now, vm });
                }
            } else {
                self.degraded.remove(&vm);
                if self.scheme != Scheme::NoIntervention {
                    self.events
                        .push(ControllerEvent::MonitoringRecovered { at: now, vm });
                }
            }
        }

        self.slo.record(now, slo_violated);
        // Append the round's evidence to each VM's history. Every usable
        // sample is stamped `now` (late deliveries are re-timed, imputed
        // replays are re-stamped) and the SLO log is append-only over
        // strictly increasing rounds, so the ingest-time label equals
        // the label a from-scratch rebuild would derive from the log.
        let label = Label::from_violation(slo_violated);
        for (vm, sample) in &usable {
            if let Some(&slot) = self.slot_of.get(vm) {
                self.trainer.push(slot, sample, label);
            }
        }
        self.inference.observe(&usable);
        let violation_confirmed = self.violation_filter.push(slo_violated);

        if self.scheme != Scheme::NoIntervention {
            self.maybe_train(now);
            if self.is_trained() {
                self.maybe_retrain(now, slo_violated);
                self.observe_predictors(&usable);
                self.predictive_round(now, slo_violated, violation_confirmed, io);
                self.validate_episodes(now, slo_violated, io);
                self.process_retries(now, slo_violated, io);
            }
        }

        self.events[events_before..].to_vec()
    }

    /// Streams this round's samples into the trained per-VM predictors,
    /// one shard of VMs per worker. Each predictor consumes only its own
    /// VM's samples in arrival order, so the resulting model positions
    /// are bit-identical to the sequential loop for any worker count.
    fn observe_predictors(&mut self, samples: &[(VmId, MetricSample)]) {
        let mut per_vm: BTreeMap<VmId, Vec<&MetricSample>> = BTreeMap::new();
        for (vm, sample) in samples {
            per_vm.entry(*vm).or_default().push(sample);
        }
        let mut work: Vec<(&mut AnomalyPredictor, Vec<&MetricSample>)> = self
            .predictors
            .iter_mut()
            .filter_map(|(vm, p)| per_vm.remove(vm).map(|batch| (p, batch)))
            .collect();
        prepare_par::par_for_each_mut(&self.config.par, &mut work, |(p, batch)| {
            for sample in batch.iter() {
                p.observe(sample);
            }
        });
    }

    /// Fits one predictor per implicated VM, one shard of VMs per worker.
    /// Training reads only the VM's own history plus the shared SLO log,
    /// so the fitted models are bit-identical to the sequential loop for
    /// any worker count; VMs whose fit fails are left out.
    ///
    /// With online training the models are *derived* from the fleet
    /// trainer's maintained count arenas instead of re-scanning each
    /// series — [`FleetTrainer::derive_batch`] is bit-identical to the
    /// from-scratch `train` call the reference arm makes, so the two
    /// arms produce the same traces (the CI harness diffs them).
    fn train_implicated(&mut self, implicated: &[VmId]) -> Vec<(VmId, AnomalyPredictor)> {
        let wanted: Vec<(VmId, usize)> = implicated
            .iter()
            .filter_map(|vm| self.slot_of.get(vm).map(|&slot| (*vm, slot)))
            .collect();
        let fitted: Vec<Option<AnomalyPredictor>> = if self.config.online_training {
            self.trainer.refresh(&self.config.par);
            let slots: Vec<usize> = wanted.iter().map(|&(_, slot)| slot).collect();
            self.trainer
                .derive_batch(&slots, &self.config.par)
                .into_iter()
                .map(Result::ok)
                .collect()
        } else {
            prepare_par::par_map(&self.config.par, wanted.clone(), |(_, slot)| {
                AnomalyPredictor::train(
                    self.trainer.series(slot),
                    &self.slo,
                    &self.config.predictor,
                )
                .ok()
            })
        };
        wanted
            .into_iter()
            .zip(fitted)
            .filter_map(|((vm, _), p)| p.map(|p| (vm, p)))
            .collect()
    }

    /// Trains per-VM models once the first (completed) anomaly has been
    /// observed — "our prediction model learns the anomaly during the
    /// first fault injection" (§III-B). Fault localization (the PAL step
    /// of §II-B) runs first: only VMs whose metrics genuinely deviated
    /// during the violation get anomaly predictors; ripple victims (e.g.
    /// downstream PEs starved of input) stay model-less so they cannot be
    /// blamed for states that are normal for them.
    fn maybe_train(&mut self, now: Timestamp) {
        if self.is_trained() {
            return;
        }
        // The sample count of the lowest-id VM gates training.
        let enough = self.slot_of.values().next().is_some_and(|&slot| {
            self.trainer.series(slot).len() >= self.config.min_training_samples
        });
        let anomaly_seen = self.slo.first_violation().is_some();
        let anomaly_over = !self.slo.is_violated_at(now);
        // Train only after the SLO has been quiet for a while, so the
        // training window contains post-anomaly normal data too.
        let quiet_long_enough = self
            .slo
            .intervals()
            .last()
            .is_some_and(|&(_, end)| now.since(end) >= self.config.post_anomaly_quiet);
        if !(enough && anomaly_seen && anomaly_over && quiet_long_enough) {
            return;
        }
        let implicated =
            crate::implicated_vms_par(&self.series_by_id(), &self.slo, &self.config.par);
        let trained: BTreeMap<VmId, AnomalyPredictor> =
            self.train_implicated(&implicated).into_iter().collect();
        if trained.is_empty() {
            return; // try again next round with more data
        }
        let mut vms: Vec<VmId> = trained.keys().copied().collect();
        vms.sort_unstable();
        self.predictors = trained;
        self.trained_at = Some(now);
        self.events
            .push(ControllerEvent::ModelsTrained { at: now, vms });
    }

    /// Periodic model refresh (§II-B): re-runs fault localization and
    /// re-fits the per-VM predictors on the full history. Newly
    /// implicated VMs gain predictors; VMs whose refresh fails keep their
    /// previous model. Skipped while the SLO is violated or an episode is
    /// open (refreshing mid-anomaly would contaminate the discretizer
    /// ranges and reset stream positions at the worst moment).
    fn maybe_retrain(&mut self, now: Timestamp, slo_violated: bool) {
        let Some(interval) = self.config.retrain_interval else {
            return;
        };
        let Some(anchor) = self.last_retrain.or(self.trained_at) else {
            return;
        };
        if now.since(anchor) < interval || slo_violated || !self.episodes.is_empty() {
            return;
        }
        self.last_retrain = Some(now);
        let implicated =
            crate::implicated_vms_par(&self.series_by_id(), &self.slo, &self.config.par);
        let mut refreshed = Vec::new();
        for (vm, p) in self.train_implicated(&implicated) {
            self.predictors.insert(vm, p);
            refreshed.push(vm);
        }
        if !refreshed.is_empty() {
            refreshed.sort_unstable();
            self.events.push(ControllerEvent::ModelsTrained {
                at: now,
                vms: refreshed,
            });
        }
    }

    /// Attributes blamed with positive strength, most responsible first.
    fn positive_ranking(prediction: &prepare_anomaly::Prediction) -> Vec<AttributeKind> {
        prediction
            .strengths
            .iter()
            .filter(|s| s.strength > 0.0)
            .filter_map(|s| AttributeKind::from_index(s.attribute))
            .collect()
    }

    fn predictive_round(
        &mut self,
        now: Timestamp,
        slo_violated: bool,
        violation_confirmed: bool,
        io: &mut ClusterIo<'_>,
    ) {
        let mut confirmed: Vec<(VmId, Vec<AttributeKind>)> = Vec::new();

        if self.scheme == Scheme::Prepare {
            // Per-VM Markov + TAN scoring is the round's hot path: shard
            // it across workers, then replay the results sequentially in
            // `vms` order so events and filter updates land exactly as
            // the sequential loop would emit them.
            let predictions = self.predict_all(std::slice::from_ref(&self.config.look_ahead));
            for (vm, mut preds) in predictions.into_iter().flatten() {
                // Exactly one horizon was requested, so exactly one
                // prediction comes back.
                let Some(prediction) = preds.pop() else {
                    continue;
                };
                // No trustworthy evidence this round: the prediction ran
                // on coasting model state, so it is neither an alert nor
                // a "normal" vote — the k-of-W window holds its ground.
                if self.degraded.contains(&vm) {
                    if let Some(f) = self.filters.get_mut(&vm) {
                        f.push_vote(Vote::Abstain);
                    }
                    continue;
                }
                if prediction.is_alert() {
                    self.events.push(ControllerEvent::AlertRaised {
                        at: now,
                        vm,
                        score: prediction.score,
                    });
                }
                let confirm = self
                    .filters
                    .get_mut(&vm)
                    .is_some_and(|f| f.push(prediction.is_alert()));
                if confirm {
                    confirmed.push((vm, Self::positive_ranking(&prediction)));
                }
            }
        }

        let workload_change = self.inference.workload_change(now);
        if workload_change && !self.last_workload_change {
            self.events
                .push(ControllerEvent::WorkloadChangeInferred { at: now });
        }
        self.last_workload_change = workload_change;

        // A settling period right after training lets filter windows and
        // slow metrics (Load5) flush the just-ended training anomaly's
        // residue before alert-driven actions are allowed.
        let settled = self
            .trained_at
            .is_some_and(|t| now.since(t).as_secs() >= TRAINING_SETTLE_SECS);
        for (vm, ranking) in confirmed {
            if !settled || self.episodes.contains_key(&vm) || self.is_suppressed(vm, now) {
                continue;
            }
            self.events.push(ControllerEvent::AlertConfirmed {
                at: now,
                vm,
                ranked_attributes: ranking.clone(),
            });
            self.episodes.insert(vm, Episode::open(vm, now, ranking));
            self.act(vm, now, slo_violated, io);
        }

        // Reactive path: the violation is already here and no predictive
        // episode covers it — PREPARE's fallback, and the only path for
        // the reactive baseline scheme.
        if violation_confirmed && self.episodes.is_empty() {
            for (vm, ranking) in self.reactive_diagnosis() {
                // A degraded VM cannot be diagnosed — its model has seen
                // no fresh data, so blaming it would be guesswork.
                if self.is_suppressed(vm, now) || self.degraded.contains(&vm) {
                    continue;
                }
                self.events
                    .push(ControllerEvent::ReactiveTriggered { at: now, vm });
                self.episodes.insert(vm, Episode::open(vm, now, ranking));
                self.act(vm, now, slo_violated, io);
            }
        }
    }

    fn is_suppressed(&self, vm: VmId, now: Timestamp) -> bool {
        self.suppressed_until
            .get(&vm)
            .is_some_and(|&until| now < until)
    }

    /// Scores every managed VM's predictor at the given horizons, sharded
    /// per VM with results merged back into `vms` order. Each VM answers
    /// all horizons from one Markov propagation pass
    /// ([`AnomalyPredictor::predict_horizons`]). Prediction is a
    /// read-only pass over independent per-VM models, so the scores are
    /// bit-identical to querying each VM in a sequential loop.
    fn predict_all(
        &self,
        horizons: &[Duration],
    ) -> Vec<Option<(VmId, Vec<prepare_anomaly::Prediction>)>> {
        prepare_par::par_map(&self.config.par, self.vms.clone(), |vm| {
            self.predictors
                .get(&vm)
                .map(|p| (vm, p.predict_horizons(horizons)))
        })
    }

    /// Diagnoses the current (not predicted) state: faulty VMs are those
    /// whose models classify the present sample abnormal; if none does,
    /// the highest-scoring VM is blamed. The per-VM scoring is sharded
    /// like the predictive path; the fold below replays it in `vms`
    /// order, so tie-breaking is identical to the sequential loop.
    fn reactive_diagnosis(&self) -> Vec<(VmId, Vec<AttributeKind>)> {
        let mut faulty = Vec::new();
        let mut best: Option<(VmId, f64, Vec<AttributeKind>)> = None;
        let now_states = self.predict_all(&[Duration::ZERO]);
        for (vm, now_state) in now_states
            .into_iter()
            .flatten()
            .filter_map(|(vm, mut preds)| preds.pop().map(|p| (vm, p)))
        {
            let ranking = Self::positive_ranking(&now_state);
            if now_state.is_alert() {
                faulty.push((vm, ranking.clone()));
            }
            if best.as_ref().is_none_or(|(_, s, _)| now_state.score > *s) {
                best = Some((vm, now_state.score, ranking));
            }
        }
        if faulty.is_empty() {
            if let Some((vm, _, ranking)) = best {
                faulty.push((vm, ranking));
            }
        }
        faulty
    }

    /// Plans and executes the next prevention action for an episode.
    ///
    /// `slo_violated` gates the migration fallback under the
    /// scaling-first policy: live migration is disruptive (a brown-out of
    /// several seconds), so it is only worth reaching for while the SLO
    /// is actually broken — a lingering alert on an out-of-distribution
    /// but healthy state must not trigger it. Under the migration-first
    /// policy, early (pre-violation) migration is the whole point
    /// (Fig. 9), so it stays allowed.
    fn act(&mut self, vm: VmId, now: Timestamp, slo_violated: bool, io: &mut ClusterIo<'_>) {
        let Some(episode) = self.episodes.get_mut(&vm) else {
            return;
        };
        // A transiently rejected action is waiting out its backoff; the
        // scheduled retry — not this call — owns the next attempt.
        if episode.retry_at.is_some_and(|t| now < t) {
            return;
        }
        episode.retry_at = None;
        let recently_migrated = self
            .last_migration
            .get(&vm)
            .is_some_and(|&t| now.since(t).as_secs() < MIGRATION_COOLDOWN_SECS);
        let migration_warranted = match self.config.policy {
            crate::PreventionPolicy::MigrationFirst => true,
            crate::PreventionPolicy::ScalingFirst => slo_violated,
        };
        let allow_migration = !episode.migrated && !recently_migrated && migration_warranted;
        let action = io.plan(
            &self.planner,
            vm,
            &episode.candidates,
            allow_migration,
            &episode.ineffective_resources,
        );
        let failure = match action {
            Some(a) => match io.execute(&self.planner, a, now) {
                None => {
                    let was_migration = matches!(a, PlannedAction::Migrate { .. });
                    if was_migration {
                        self.last_migration.insert(vm, now);
                    }
                    if let PlannedAction::Migrate { target, .. } = a {
                        episode.migration_target = Some(target);
                    }
                    episode.record_action(now, was_migration);
                    episode.last_resource = a.resource();
                    episode.failures = 0;
                    episode.transient_attempts = 0;
                    let attribute = match a {
                        PlannedAction::Migrate { .. } => None,
                        _ => episode.active_attribute(),
                    };
                    self.events.push(ControllerEvent::ActionIssued {
                        at: now,
                        vm,
                        action: a.to_string(),
                        attribute,
                    });
                    None
                }
                Some(err)
                    if err.transient && episode.transient_attempts < TRANSIENT_RETRY_LIMIT =>
                {
                    // The hypervisor control plane is busy: defer, don't
                    // fail. Backoff doubles per attempt, capped.
                    episode.transient_attempts += 1;
                    let base = match a {
                        PlannedAction::Migrate { .. } => MIGRATE_RETRY_BASE_SECS,
                        _ => SCALE_RETRY_BASE_SECS,
                    };
                    let backoff =
                        (base << (episode.transient_attempts - 1)).min(RETRY_BACKOFF_CAP_SECS);
                    let retry_at = now + Duration::from_secs(backoff);
                    episode.retry_at = Some(retry_at);
                    self.events.push(ControllerEvent::ActionRetried {
                        at: now,
                        vm,
                        action: a.to_string(),
                        attempt: episode.transient_attempts,
                        retry_at,
                    });
                    None
                }
                Some(err) => {
                    let kind = if err.transient {
                        ActionFailureKind::RetriesExhausted
                    } else {
                        ActionFailureKind::ExecutionFailed
                    };
                    Some((err.message, kind))
                }
            },
            None => Some((
                "no applicable prevention action".to_string(),
                ActionFailureKind::NoApplicableAction,
            )),
        };
        if let Some((reason, kind)) = failure {
            let Some(episode) = self.episodes.get_mut(&vm) else {
                return;
            };
            episode.transient_attempts = 0;
            if kind == ActionFailureKind::RetriesExhausted {
                // The hypervisor stayed busy through the whole backoff
                // schedule: give up on this candidate and fall through to
                // the next-ranked attribute.
                episode.advance_candidate();
            }
            episode.failures += 1;
            let abandon = episode.failures >= MAX_EPISODE_FAILURES;
            self.events.push(ControllerEvent::ActionFailed {
                at: now,
                vm,
                reason,
                kind,
            });
            if abandon {
                self.episodes.remove(&vm);
                if let Some(f) = self.filters.get_mut(&vm) {
                    f.reset();
                }
                let suppressed_until = now + Duration::from_secs(SUPPRESSION_SECS);
                self.suppressed_until.insert(vm, suppressed_until);
                self.events.push(ControllerEvent::ActionAbandoned {
                    at: now,
                    vm,
                    suppressed_until,
                });
            }
        }
    }

    /// Re-attempts actions whose transient-rejection backoff has elapsed.
    ///
    /// A due retry for a VM whose monitoring is degraded stays parked:
    /// actuating a VM the controller is blind on could not be validated
    /// (and would race the very infrastructure fault that blinded it), so
    /// the attempt fires on the first round after monitoring recovers.
    fn process_retries(&mut self, now: Timestamp, slo_violated: bool, io: &mut ClusterIo<'_>) {
        let due: Vec<VmId> = self
            .episodes
            .iter()
            .filter(|(vm, ep)| {
                !self.degraded.contains(*vm) && ep.retry_at.is_some_and(|t| now >= t)
            })
            .map(|(&vm, _)| vm)
            .collect();
        for vm in due {
            self.act(vm, now, slo_violated, io);
        }
    }

    /// Runs the look-back/look-ahead validation over open episodes.
    fn validate_episodes(&mut self, now: Timestamp, slo_violated: bool, io: &mut ClusterIo<'_>) {
        let window = self.config.validation_window;
        let mut resolved = Vec::new();
        let mut escalate = Vec::new();
        let mut retry = Vec::new();

        // Observe migration outcomes first: an issued migration that is
        // no longer in flight either switched over (the VM now lives on
        // its target) or was torn down mid-copy and rolled back to the
        // source host. A rollback un-marks the episode's migration so the
        // move can be re-planned once the infrastructure recovers.
        let mut rolled_back = Vec::new();
        for (&vm, ep) in self.episodes.iter_mut() {
            let Some(target) = ep.migration_target else {
                continue;
            };
            let (migrating, host) = io.vm_state(vm);
            if migrating {
                continue;
            }
            ep.migration_target = None;
            if host != target {
                ep.migrated = false;
                // Fresh attempt after the validation window, via the
                // stalled-episode path.
                ep.last_action_at = None;
                rolled_back.push((vm, target));
            }
        }
        for (vm, target) in rolled_back {
            self.last_migration.remove(&vm);
            self.events.push(ControllerEvent::ActionRolledBack {
                at: now,
                vm,
                target: target.to_string(),
            });
        }

        for (&vm, episode) in &self.episodes {
            // No trustworthy samples for this VM: freeze the episode
            // rather than judge an action on held-over data.
            if self.degraded.contains(&vm) {
                continue;
            }
            // A stalled episode whose action could never be issued gets a
            // fresh attempt each validation window.
            if episode.last_action_at.is_none() {
                if now.since(episode.opened) >= window {
                    retry.push(vm);
                }
                continue;
            }
            // Persistence is judged by the SLO itself ("the prediction
            // models stop sending any anomaly alert (i.e., SLO violation
            // is gone)", §II-D). After an action has changed the VM's
            // allocation, the classifier runs on states outside its
            // training distribution, so its lingering alerts must not
            // escalate a working mitigation into a disruptive one.
            let still_anomalous = slo_violated;
            let changed = match (episode.active_attribute(), episode.last_action_at) {
                (Some(attr), Some(acted)) => {
                    // Episodes only open on VMs that have delivered
                    // readings, so a series always exists; a missing one
                    // just reads as "no usage change yet".
                    let series = self.series(vm);
                    debug_assert!(series.is_some(), "episode open for {vm:?} without a series");
                    series.is_some_and(|series| usage_changed(series, attr, acted, window))
                }
                // Migration-only episodes: "usage change" is the host move
                // itself having completed.
                (None, Some(_)) => !io.vm_state(vm).0 && episode.migrated,
                _ => false,
            };
            match episode.validate(now, window, still_anomalous, changed) {
                ValidationOutcome::Resolved => resolved.push(vm),
                ValidationOutcome::Ineffective => escalate.push(vm),
                // A retry that has already hit the per-candidate cap means
                // the blamed metric responds to scaling without fixing the
                // anomaly — wrong metric; move down the ranking.
                ValidationOutcome::Retry if episode.candidate_exhausted() => escalate.push(vm),
                ValidationOutcome::Retry => retry.push(vm),
                ValidationOutcome::Pending => {}
            }
        }

        for vm in resolved {
            self.episodes.remove(&vm);
            if let Some(f) = self.filters.get_mut(&vm) {
                f.reset();
            }
            self.events
                .push(ControllerEvent::ValidationSucceeded { at: now, vm });
        }
        for vm in escalate {
            self.events
                .push(ControllerEvent::ValidationIneffective { at: now, vm });
            if let Some(ep) = self.episodes.get_mut(&vm) {
                // The blamed metric did not respond (or responded without
                // fixing anything): retire both the metric and — once a
                // resource's scaling has provably not helped — the whole
                // resource, so the planner escalates to migration.
                ep.mark_resource_ineffective();
                ep.advance_candidate();
            }
            self.act(vm, now, slo_violated, io);
        }
        for vm in retry {
            self.act(vm, now, slo_violated, io);
        }
    }

    /// Appends an externally produced event (checkpoint/journal/recovery
    /// bookkeeping from the recovery manager) to the controller's log.
    pub(crate) fn record_event(&mut self, event: ControllerEvent) {
        self.events.push(event);
    }

    /// Serializes everything *except* the event log: the state whose
    /// byte-identity the recovery-equivalence proofs compare. A recovered
    /// controller's log legitimately carries extra crash/recovery events,
    /// so the log must not perturb [`PrepareController::model_fingerprint`].
    pub(crate) fn store_core(&self, w: &mut Writer) {
        self.config.store_state(w);
        self.scheme.store(w);
        self.vms.store(w);
        self.slo.store(w);
        self.predictors.store(w);
        self.filters.store(w);
        self.inference.store_state(w);
        self.violation_filter.store(w);
        self.episodes.store(w);
        self.last_migration.store(w);
        self.suppressed_until.store(w);
        self.imputers.store(w);
        self.degraded.store(w);
        self.trained_at.store(w);
        self.last_retrain.store(w);
        self.last_workload_change.store(w);
        self.trainer.store(w);
    }

    /// Serializes the complete controller state — models, filters, vote
    /// windows, episodes with their retry/backoff machines, staleness
    /// bookkeeping, and the event log — through the exact binary codec.
    /// The planner is not stored: it is a pure function of the config and
    /// is rebuilt on restore.
    pub fn store_state(&self, w: &mut Writer) {
        self.store_core(w);
        self.store_log(w);
    }

    /// Serializes the event log — the part of
    /// [`PrepareController::store_state`] that follows the core state.
    pub(crate) fn store_log(&self, w: &mut Writer) {
        self.events.store(w);
    }

    /// Restores a controller checkpointed by
    /// [`PrepareController::store_state`], adopting the worker
    /// configuration of the recovering process.
    ///
    /// # Errors
    ///
    /// Returns a [`PersistError`] when the bytes are truncated, carry
    /// unknown tags, or violate controller invariants (empty VM set,
    /// inconsistent tunables).
    pub fn load_state(r: &mut Reader<'_>, par: ParConfig) -> Result<Self, PersistError> {
        let config = PrepareConfig::load_state(r, par)?;
        let scheme = Scheme::load(r)?;
        let vms = Vec::<VmId>::load(r)?;
        if vms.is_empty() {
            return Err(PersistError::Invalid("PrepareController vms"));
        }
        let slo = SloLog::load(r)?;
        let predictors = BTreeMap::load(r)?;
        let filters = BTreeMap::load(r)?;
        let inference = CauseInference::load_state(r, config.par)?;
        let violation_filter = AlertFilter::load(r)?;
        let episodes = BTreeMap::load(r)?;
        let last_migration = BTreeMap::load(r)?;
        let suppressed_until = BTreeMap::load(r)?;
        let imputers = BTreeMap::load(r)?;
        let degraded = BTreeSet::load(r)?;
        let trained_at = Option::load(r)?;
        let last_retrain = Option::load(r)?;
        let last_workload_change = bool::load(r)?;
        let trainer = FleetTrainer::load(r)?;
        if trainer.slots() != vms.len() {
            return Err(PersistError::Invalid("PrepareController trainer slots"));
        }
        let events = Vec::load(r)?;
        let planner = PreventionPlanner::new(config.policy, config.scale_factor)
            .with_migration_target_policy(config.migration_policy);
        Ok(PrepareController {
            config,
            scheme,
            slot_of: slot_index(&vms),
            vms,
            slo,
            predictors,
            filters,
            inference,
            planner,
            violation_filter,
            episodes,
            last_migration,
            suppressed_until,
            imputers,
            degraded,
            trained_at,
            last_retrain,
            last_workload_change,
            trainer,
            events,
        })
    }

    /// FNV-1a fingerprint of the serialized core state (everything except
    /// the event log). Two controllers with equal fingerprints hold
    /// byte-identical models, filters, and episode machines — the
    /// equality the crash-point sweep asserts between a recovered
    /// controller and its uninterrupted referee.
    pub fn model_fingerprint(&self) -> u64 {
        let mut w = Writer::new();
        self.store_core(&mut w);
        let mut fp = Fingerprint64::new();
        fp.write_bytes(&w.into_bytes());
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prepare_metrics::MetricVector;

    fn mk_controller(scheme: Scheme) -> PrepareController {
        PrepareController::new(vec![VmId(0), VmId(1)], PrepareConfig::default(), scheme)
    }

    fn sample_for(t: u64, cpu: f64, free_mem: f64) -> MetricSample {
        let v = MetricVector::from_fn(|a| match a {
            AttributeKind::CpuTotal => cpu,
            AttributeKind::CpuUser => cpu * 0.7,
            AttributeKind::FreeMem => free_mem,
            AttributeKind::Load1 => cpu / 50.0,
            // Exhausted memory pages hard — the localization marker.
            AttributeKind::PageFaults => {
                if free_mem <= 0.0 {
                    600.0
                } else {
                    0.0
                }
            }
            _ => 10.0,
        });
        MetricSample::new(Timestamp::from_secs(t), v)
    }

    /// Drives a two-VM controller through a synthetic leak-like anomaly on
    /// VM 0: free memory ramps to zero over 50 samples, stays depleted
    /// (heavy paging) for 20 samples, then recovers; the SLO breaks while
    /// free memory is below 50 MB. One 120-sample period = 600 s.
    /// `rounds` is a half-open range of sampling rounds so the scenario
    /// can be continued across calls.
    fn drive(
        controller: &mut PrepareController,
        cluster: &mut Cluster,
        rounds: std::ops::Range<u64>,
    ) {
        for i in rounds {
            let (now, readings, violated) = round_inputs(i);
            controller.on_readings(now, &readings, violated, cluster);
        }
    }

    /// Round `i` of the [`drive`] scenario: its time, readings and SLO
    /// status.
    fn round_inputs(i: u64) -> (Timestamp, Vec<(VmId, StampedSample)>, bool) {
        let t = i * 5;
        let phase = i % 120;
        let free = match phase {
            0..=39 => 500.0,
            40..=89 => 500.0 - (phase - 39) as f64 * 10.0,
            90..=109 => 0.0,
            _ => 500.0,
        };
        let violated = free < 50.0;
        let readings = vec![
            (VmId(0), StampedSample::fresh(sample_for(t, 40.0, free))),
            (VmId(1), StampedSample::fresh(sample_for(t, 30.0, 400.0))),
        ];
        (Timestamp::from_secs(t), readings, violated)
    }

    fn test_cluster() -> Cluster {
        let mut c = Cluster::new();
        let h0 = c.add_host(prepare_cloudsim::HostSpec::vcl_default());
        let h1 = c.add_host(prepare_cloudsim::HostSpec::vcl_default());
        c.create_vm(h0, 100.0, 512.0).unwrap();
        c.create_vm(h1, 100.0, 512.0).unwrap();
        c.add_host(prepare_cloudsim::HostSpec::vcl_default());
        c
    }

    #[test]
    fn trains_after_first_anomaly_completes() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Prepare);
        drive(&mut ctl, &mut c, 0..100);
        assert!(
            !ctl.is_trained(),
            "should not train mid-anomaly or too early"
        );
        drive(&mut ctl, &mut c, 100..160); // past the first anomaly + quiet period
        assert!(ctl.is_trained());
        assert!(ctl
            .events()
            .iter()
            .any(|e| matches!(e, ControllerEvent::ModelsTrained { .. })));
    }

    #[test]
    fn no_intervention_scheme_is_inert() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::NoIntervention);
        drive(&mut ctl, &mut c, 0..300);
        assert!(!ctl.is_trained());
        assert!(ctl.events().is_empty());
        assert!(c.actions().is_empty());
    }

    #[test]
    fn prepare_scheme_predicts_and_acts_on_recurrence() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Prepare);
        drive(&mut ctl, &mut c, 0..360); // three anomaly cycles
        assert!(ctl.is_trained());
        let alerts = ctl
            .events()
            .iter()
            .filter(|e| matches!(e, ControllerEvent::AlertRaised { .. }))
            .count();
        assert!(alerts > 0, "predictor should raise alerts on recurrences");
        let actions = ctl
            .events()
            .iter()
            .filter(|e| matches!(e, ControllerEvent::ActionIssued { .. }))
            .count();
        assert!(actions > 0, "confirmed alerts should actuate prevention");
        assert!(!c.actions().is_empty());
    }

    /// A cluster with zero scaling headroom and no migration target: all
    /// prevention attempts must fail cleanly, cap out, and suppress the
    /// VM instead of spinning.
    #[test]
    fn full_cluster_fails_closed_and_suppresses() {
        let mut c = Cluster::new();
        let h0 = c.add_host(prepare_cloudsim::HostSpec::vcl_default());
        // Two VMs filling the only host completely; no spare host at all.
        c.create_vm(h0, 100.0, 2048.0).unwrap();
        c.create_vm(h0, 100.0, 2048.0).unwrap();
        let mut ctl = mk_controller(Scheme::Prepare);
        drive(&mut ctl, &mut c, 0..360);
        // The anomaly persists across cycles, actions keep failing...
        let failures = ctl
            .events()
            .iter()
            .filter(|e| matches!(e, ControllerEvent::ActionFailed { .. }))
            .count();
        assert!(
            failures > 0,
            "prevention should have been attempted and failed"
        );
        // ...but never touch the hypervisor state...
        assert_eq!(c.vm(VmId(0)).cpu_alloc, 100.0);
        assert_eq!(c.vm(VmId(0)).mem_alloc_mb, 2048.0);
        assert!(
            c.actions().is_empty(),
            "no action can be applied on a full cluster"
        );
        // ...and the failure cap bounds the churn (abandon + suppression,
        // not an unbounded retry storm).
        assert!(
            failures < 60,
            "failure suppression should bound the churn, got {failures}"
        );
    }

    #[test]
    fn periodic_retraining_refreshes_models() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Prepare);
        // 600 rounds = 3000 s: initial training plus at least two
        // 600 s refreshes in quiet periods.
        drive(&mut ctl, &mut c, 0..600);
        let trainings = ctl
            .events()
            .iter()
            .filter(|e| matches!(e, ControllerEvent::ModelsTrained { .. }))
            .count();
        assert!(
            trainings >= 2,
            "expected initial training plus refreshes, got {trainings}"
        );
    }

    #[test]
    fn retraining_can_be_disabled() {
        let mut c = test_cluster();
        let config = PrepareConfig {
            retrain_interval: None,
            ..PrepareConfig::default()
        };
        let mut ctl = PrepareController::new(vec![VmId(0), VmId(1)], config, Scheme::Prepare);
        drive(&mut ctl, &mut c, 0..600);
        let trainings = ctl
            .events()
            .iter()
            .filter(|e| matches!(e, ControllerEvent::ModelsTrained { .. }))
            .count();
        assert_eq!(trainings, 1, "only the initial training should fire");
    }

    #[test]
    fn reactive_scheme_acts_only_on_violation() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Reactive);
        drive(&mut ctl, &mut c, 0..300);
        assert!(ctl.is_trained());
        // Reactive never raises predictive alerts...
        assert!(!ctl
            .events()
            .iter()
            .any(|e| matches!(e, ControllerEvent::AlertRaised { .. })));
        // ...but does trigger on actual violations.
        assert!(ctl
            .events()
            .iter()
            .any(|e| matches!(e, ControllerEvent::ReactiveTriggered { .. })));
    }

    #[test]
    fn reactive_trigger_blames_the_faulty_vm() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Reactive);
        drive(&mut ctl, &mut c, 0..300);
        for e in ctl.events() {
            if let ControllerEvent::ReactiveTriggered { vm, .. } = e {
                assert_eq!(*vm, VmId(0), "only VM 0 carries the anomaly signature");
            }
        }
    }

    /// Satellite regression: a round whose prevention attempt fails
    /// increments `episode.failures` exactly once, the event carries the
    /// structured kind, and the episode abandons at the cap.
    #[test]
    fn failed_round_counts_one_failure() {
        // Zero headroom, no migration target: the planner has nothing.
        let mut c = Cluster::new();
        let h0 = c.add_host(prepare_cloudsim::HostSpec::vcl_default());
        c.create_vm(h0, 100.0, 2048.0).unwrap();
        c.create_vm(h0, 100.0, 2048.0).unwrap();
        let mut ctl = mk_controller(Scheme::Prepare);
        ctl.episodes.insert(
            VmId(0),
            Episode::open(VmId(0), Timestamp::ZERO, vec![AttributeKind::FreeMem]),
        );
        for round in 1..=MAX_EPISODE_FAILURES {
            let now = Timestamp::from_secs(round as u64 * 30);
            ctl.act(VmId(0), now, true, &mut ClusterIo::live(&mut c));
            let failed = ctl
                .events
                .iter()
                .filter(|e| matches!(e, ControllerEvent::ActionFailed { .. }))
                .count();
            assert_eq!(failed, round, "exactly one failure per failed round");
            if round < MAX_EPISODE_FAILURES {
                assert_eq!(ctl.episodes[&VmId(0)].failures, round);
            }
        }
        assert!(
            !ctl.episodes.contains_key(&VmId(0)),
            "episode abandons at the failure cap"
        );
        assert!(ctl.suppressed_until.contains_key(&VmId(0)));
        // Abandonment is observable: the terminal event names the VM and
        // the end of its suppression window.
        let last_round = Timestamp::from_secs(MAX_EPISODE_FAILURES as u64 * 30);
        assert!(
            ctl.events.iter().any(|e| matches!(
                e,
                ControllerEvent::ActionAbandoned { at, vm, suppressed_until }
                    if *vm == VmId(0)
                        && *at == last_round
                        && *suppressed_until
                            == last_round + Duration::from_secs(SUPPRESSION_SECS)
            )),
            "abandonment must emit a terminal ActionAbandoned event"
        );
        // "Nothing to try" is structurally distinguishable from a real
        // execution failure.
        for e in &ctl.events {
            if let ControllerEvent::ActionFailed { kind, reason, .. } = e {
                assert_eq!(*kind, ActionFailureKind::NoApplicableAction);
                assert_eq!(reason, "no applicable prevention action");
            }
        }
    }

    /// A busy hypervisor defers the action (with backoff) instead of
    /// failing the episode; the due retry issues it once the control
    /// plane recovers.
    #[test]
    fn busy_hypervisor_defers_then_issues() {
        let mut c = test_cluster();
        c.set_hypervisor_busy(true);
        let mut ctl = mk_controller(Scheme::Prepare);
        ctl.episodes.insert(
            VmId(0),
            Episode::open(VmId(0), Timestamp::ZERO, vec![AttributeKind::CpuTotal]),
        );
        ctl.act(VmId(0), Timestamp::ZERO, true, &mut ClusterIo::live(&mut c));
        {
            let ep = &ctl.episodes[&VmId(0)];
            assert_eq!(ep.transient_attempts, 1);
            assert_eq!(ep.failures, 0, "a deferred action is not a failure");
            assert_eq!(
                ep.retry_at,
                Some(Timestamp::from_secs(SCALE_RETRY_BASE_SECS))
            );
        }
        assert!(matches!(
            ctl.events.last(),
            Some(ControllerEvent::ActionRetried { attempt: 1, .. })
        ));
        // Before the backoff elapses, act() is a no-op.
        ctl.act(
            VmId(0),
            Timestamp::from_secs(2),
            true,
            &mut ClusterIo::live(&mut c),
        );
        assert_eq!(ctl.episodes[&VmId(0)].transient_attempts, 1);
        // The control plane recovers; the due retry issues the action.
        c.set_hypervisor_busy(false);
        ctl.process_retries(
            Timestamp::from_secs(SCALE_RETRY_BASE_SECS),
            true,
            &mut ClusterIo::live(&mut c),
        );
        assert!(matches!(
            ctl.events.last(),
            Some(ControllerEvent::ActionIssued { .. })
        ));
        let ep = &ctl.episodes[&VmId(0)];
        assert_eq!(ep.transient_attempts, 0);
        assert_eq!(ep.retry_at, None);
        assert!(!c.actions().is_empty());
    }

    /// A hypervisor that stays busy through the whole backoff schedule
    /// costs one failure and falls through to the next-ranked attribute.
    #[test]
    fn exhausted_retries_fall_through_to_next_candidate() {
        let mut c = test_cluster();
        c.set_hypervisor_busy(true);
        let mut ctl = mk_controller(Scheme::Prepare);
        ctl.episodes.insert(
            VmId(0),
            Episode::open(
                VmId(0),
                Timestamp::ZERO,
                vec![AttributeKind::CpuTotal, AttributeKind::FreeMem],
            ),
        );
        let mut now = Timestamp::ZERO;
        ctl.act(VmId(0), now, true, &mut ClusterIo::live(&mut c));
        for _ in 0..TRANSIENT_RETRY_LIMIT {
            let Some(retry_at) = ctl.episodes[&VmId(0)].retry_at else {
                break;
            };
            now = retry_at;
            ctl.process_retries(now, true, &mut ClusterIo::live(&mut c));
        }
        let retried = ctl
            .events
            .iter()
            .filter(|e| matches!(e, ControllerEvent::ActionRetried { .. }))
            .count();
        assert_eq!(retried, TRANSIENT_RETRY_LIMIT);
        assert!(
            matches!(
                ctl.events.last(),
                Some(ControllerEvent::ActionFailed {
                    kind: ActionFailureKind::RetriesExhausted,
                    ..
                })
            ),
            "the attempt after the last backoff exhausts the schedule"
        );
        let ep = &ctl.episodes[&VmId(0)];
        assert_eq!(ep.failures, 1, "exhaustion costs exactly one failure");
        assert_eq!(
            ep.active_attribute(),
            Some(AttributeKind::FreeMem),
            "the episode falls through to the next-ranked attribute"
        );
        assert!(c.actions().is_empty(), "nothing ever touched the cluster");
    }

    /// Backoffs double per attempt: 5, 10, 20, 40 seconds for scaling.
    #[test]
    fn retry_backoff_doubles() {
        let mut c = test_cluster();
        c.set_hypervisor_busy(true);
        let mut ctl = mk_controller(Scheme::Prepare);
        ctl.episodes.insert(
            VmId(0),
            Episode::open(VmId(0), Timestamp::ZERO, vec![AttributeKind::CpuTotal]),
        );
        let mut now = Timestamp::ZERO;
        let mut gaps = Vec::new();
        ctl.act(VmId(0), now, true, &mut ClusterIo::live(&mut c));
        while let Some(retry_at) = ctl.episodes[&VmId(0)].retry_at {
            gaps.push(retry_at.since(now).as_secs());
            now = retry_at;
            ctl.process_retries(now, true, &mut ClusterIo::live(&mut c));
        }
        assert_eq!(gaps, vec![5, 10, 20, 40]);
    }

    /// The migration backoff schedule is pinned exactly: 10, 20, 40,
    /// then capped at 60 seconds — [`TRANSIENT_RETRY_LIMIT`] scheduled
    /// attempts in total — and the attempt after the final backoff
    /// exhausts the schedule with a `RetriesExhausted` failure.
    #[test]
    fn migrate_retry_backoff_caps_then_exhausts() {
        let mut c = test_cluster();
        c.set_hypervisor_busy(true);
        let mut ctl = mk_controller(Scheme::Prepare);
        // CPU scaling already judged ineffective: the planner must
        // escalate straight to migration (§II-D).
        let mut ep = Episode::open(VmId(0), Timestamp::ZERO, vec![AttributeKind::CpuTotal]);
        ep.ineffective_resources = vec![prepare_metrics::ScalableResource::Cpu];
        ctl.episodes.insert(VmId(0), ep);
        let mut now = Timestamp::ZERO;
        let mut gaps = Vec::new();
        ctl.act(VmId(0), now, true, &mut ClusterIo::live(&mut c));
        while let Some(retry_at) = ctl.episodes[&VmId(0)].retry_at {
            gaps.push(retry_at.since(now).as_secs());
            now = retry_at;
            ctl.process_retries(now, true, &mut ClusterIo::live(&mut c));
        }
        assert_eq!(
            gaps,
            vec![10, 20, 40, 60],
            "migrate backoff doubles from 10 s and caps at 60 s"
        );
        let attempts: Vec<usize> = ctl
            .events
            .iter()
            .filter_map(|e| match e {
                ControllerEvent::ActionRetried {
                    attempt, action, ..
                } => {
                    assert!(action.starts_with("migrate "), "retried action: {action}");
                    Some(*attempt)
                }
                _ => None,
            })
            .collect();
        assert_eq!(attempts, vec![1, 2, 3, 4], "max four scheduled attempts");
        assert!(
            matches!(
                ctl.events.last(),
                Some(ControllerEvent::ActionFailed {
                    kind: ActionFailureKind::RetriesExhausted,
                    ..
                })
            ),
            "the post-cap attempt exhausts the schedule"
        );
        assert_eq!(ctl.episodes[&VmId(0)].failures, 1);
        assert!(c.actions().is_empty(), "the VM never moved");
    }

    /// A migration torn down mid-copy is observed at the next validation
    /// round as a rollback: the episode's migration mark clears (so the
    /// move can be re-planned), the cooldown stamp is dropped, and a
    /// terminal `ActionRolledBack` event names the abandoned target.
    #[test]
    fn cancelled_migration_rolls_back_and_replans() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Prepare);
        let mut ep = Episode::open(VmId(0), Timestamp::ZERO, vec![AttributeKind::CpuTotal]);
        ep.ineffective_resources = vec![prepare_metrics::ScalableResource::Cpu];
        ctl.episodes.insert(VmId(0), ep);
        ctl.act(VmId(0), Timestamp::ZERO, true, &mut ClusterIo::live(&mut c));
        assert!(
            matches!(
                ctl.events.last(),
                Some(ControllerEvent::ActionIssued {
                    attribute: None,
                    ..
                })
            ),
            "escalation issues a migration (attribute-less action)"
        );
        assert!(c.vm(VmId(0)).is_migrating());
        let target = ctl.episodes[&VmId(0)].migration_target;
        assert!(target.is_some());
        // The infrastructure tears the migration down mid-copy.
        c.cancel_migration(VmId(0), Timestamp::from_secs(3))
            .unwrap();
        ctl.validate_episodes(Timestamp::from_secs(5), false, &mut ClusterIo::live(&mut c));
        assert!(
            matches!(
                ctl.events
                    .iter()
                    .rev()
                    .find(|e| matches!(e, ControllerEvent::ActionRolledBack { .. })),
                Some(ControllerEvent::ActionRolledBack { vm: VmId(0), .. })
            ),
            "the rollback is observable in the event log"
        );
        let ep = &ctl.episodes[&VmId(0)];
        assert!(!ep.migrated, "a rolled-back move may be re-planned");
        assert_eq!(ep.migration_target, None);
        assert!(
            !ctl.last_migration.contains_key(&VmId(0)),
            "no cooldown for a migration that never happened"
        );
        // With the mark cleared, the very next act() re-plans the move.
        ctl.act(
            VmId(0),
            Timestamp::from_secs(40),
            true,
            &mut ClusterIo::live(&mut c),
        );
        assert!(c.vm(VmId(0)).is_migrating(), "the move is re-planned");
    }

    /// A monitoring gap is papered over by hold-last-value imputation for
    /// the budget's length, then degrades the VM (abstaining, not voting
    /// "normal"); fresh data recovers it. Edge events fire exactly once
    /// per transition.
    #[test]
    fn monitoring_gap_degrades_then_recovers() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Prepare);
        drive(&mut ctl, &mut c, 0..160);
        assert!(ctl.is_trained());
        assert!(ctl.degraded_vms().is_empty());
        let t0 = 160 * 5;
        // Eight rounds with VM 0's samples lost entirely.
        for i in 0..8u64 {
            let t = t0 + i * 5;
            let readings = vec![(VmId(1), StampedSample::fresh(sample_for(t, 30.0, 400.0)))];
            ctl.on_readings(Timestamp::from_secs(t), &readings, false, &mut c);
            // Within the 15 s budget the held value keeps the VM covered.
            // The last real sample landed one round before the gap, so
            // its age at gap round i is (i + 1) * 5 seconds.
            let budget_elapsed = (i + 1) * 5 > prepare_metrics::DEFAULT_STALENESS_SECS;
            assert_eq!(ctl.is_degraded(VmId(0)), budget_elapsed, "round {i}");
        }
        let degraded_events = ctl
            .events
            .iter()
            .filter(|e| matches!(e, ControllerEvent::MonitoringDegraded { vm: VmId(0), .. }))
            .count();
        assert_eq!(degraded_events, 1, "edge-triggered, not level-triggered");
        assert!(
            ctl.filters[&VmId(0)].abstentions() > 0,
            "degraded rounds abstain instead of voting"
        );
        // Fresh data returns: recovered exactly once.
        let t = t0 + 8 * 5;
        let readings = vec![
            (VmId(0), StampedSample::fresh(sample_for(t, 40.0, 500.0))),
            (VmId(1), StampedSample::fresh(sample_for(t, 30.0, 400.0))),
        ];
        ctl.on_readings(Timestamp::from_secs(t), &readings, false, &mut c);
        assert!(!ctl.is_degraded(VmId(0)));
        let recovered_events = ctl
            .events
            .iter()
            .filter(|e| matches!(e, ControllerEvent::MonitoringRecovered { vm: VmId(0), .. }))
            .count();
        assert_eq!(recovered_events, 1);
    }

    /// The tentpole equivalence at unit scale: checkpoint a mid-scenario
    /// controller, restore it, and both copies must evolve byte-
    /// identically (events, cluster effects, and core-state fingerprint)
    /// through two more anomaly cycles.
    #[test]
    fn checkpoint_restores_byte_identical_controller() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Prepare);
        drive(&mut ctl, &mut c, 0..200);
        assert!(ctl.is_trained(), "checkpoint must capture trained models");
        let mut w = Writer::new();
        ctl.store_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut back =
            PrepareController::load_state(&mut r, ctl.config.par).expect("checkpoint loads");
        assert!(r.is_exhausted(), "no trailing checkpoint bytes");
        assert_eq!(back.model_fingerprint(), ctl.model_fingerprint());
        assert_eq!(back.events, ctl.events);
        let mut c2 = c.clone();
        drive(&mut ctl, &mut c, 200..440);
        drive(&mut back, &mut c2, 200..440);
        assert_eq!(ctl.events, back.events, "post-restore traces diverged");
        assert_eq!(c, c2, "post-restore cluster effects diverged");
        assert_eq!(back.model_fingerprint(), ctl.model_fingerprint());
    }

    /// A controller fed only recorded cluster replies (no cluster at all)
    /// tracks the live controller bit-for-bit — the property journal
    /// replay stands on.
    #[test]
    fn recorded_rounds_replay_without_a_cluster() {
        let mut c = test_cluster();
        let mut live = mk_controller(Scheme::Prepare);
        let mut ghost = mk_controller(Scheme::Prepare);
        for i in 0..360u64 {
            let t = i * 5;
            let phase = i % 120;
            let free = match phase {
                0..=39 => 500.0,
                40..=89 => 500.0 - (phase - 39) as f64 * 10.0,
                90..=109 => 0.0,
                _ => 500.0,
            };
            let violated = free < 50.0;
            let readings = vec![
                (VmId(0), StampedSample::fresh(sample_for(t, 40.0, free))),
                (VmId(1), StampedSample::fresh(sample_for(t, 30.0, 400.0))),
            ];
            let now = Timestamp::from_secs(t);
            let mut io = ClusterIo::live(&mut c);
            let ev_live = live.round(now, &readings, violated, &mut io);
            let replies = io.into_log();
            let mut replay = ClusterIo::replay(&replies);
            let ev_ghost = ghost.round(now, &readings, violated, &mut replay);
            replay.assert_drained();
            assert_eq!(ev_live, ev_ghost, "round {i}");
        }
        assert!(live.is_trained(), "scenario must exercise the full loop");
        assert!(
            live.events
                .iter()
                .any(|e| matches!(e, ControllerEvent::ActionIssued { .. })),
            "scenario must exercise actuation"
        );
        assert_eq!(live.model_fingerprint(), ghost.model_fingerprint());
        // The replies themselves survive the journal codec.
        let mut c2 = test_cluster();
        let mut probe = mk_controller(Scheme::Prepare);
        drive(&mut probe, &mut c2, 0..1);
        let round: Vec<ClusterReply> = vec![
            ClusterReply::Plan(Some(PlannedAction::ScaleCpu {
                vm: VmId(0),
                to: 130.0,
            })),
            ClusterReply::Execute(Some(ExecFailure {
                transient: true,
                message: "hypervisor busy".into(),
            })),
            ClusterReply::VmState {
                migrating: false,
                host: HostId(1),
            },
        ];
        let back: Vec<ClusterReply> =
            prepare_metrics::persist::from_bytes(&prepare_metrics::persist::to_bytes(&round))
                .unwrap();
        assert_eq!(back, round);
    }

    /// Every strict prefix of a trained controller's state bytes is a
    /// typed load error, never a panic or a silently short controller.
    /// The bytes go straight to `load_state`, so no frame checksum
    /// catches the cut first.
    #[test]
    fn truncated_state_bytes_always_fail_to_load() {
        let mut c = test_cluster();
        let mut config = PrepareConfig::default();
        config.predictor.bins = 3;
        let mut ctl = PrepareController::new(vec![VmId(1), VmId(0)], config, Scheme::Prepare);
        drive(&mut ctl, &mut c, 0..160);
        assert!(ctl.is_trained(), "the sweep must cover trained models");
        let mut w = Writer::new();
        ctl.store_state(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                PrepareController::load_state(&mut r, ParConfig::serial()).is_err(),
                "a {cut}-byte prefix of {} loaded",
                bytes.len()
            );
        }
        let mut r = Reader::new(&bytes);
        let back = PrepareController::load_state(&mut r, ParConfig::serial()).expect("intact");
        assert_eq!(back.model_fingerprint(), ctl.model_fingerprint());
    }

    #[test]
    fn scheme_round_trips_and_rejects_unknown_tags() {
        for s in [Scheme::Prepare, Scheme::Reactive, Scheme::NoIntervention] {
            let back: Scheme =
                prepare_metrics::persist::from_bytes(&prepare_metrics::persist::to_bytes(&s))
                    .unwrap();
            assert_eq!(back, s);
        }
        assert!(matches!(
            prepare_metrics::persist::from_bytes::<Scheme>(&[3u8]).unwrap_err(),
            PersistError::BadTag {
                what: "Scheme",
                tag: 3
            }
        ));
    }

    #[test]
    #[should_panic(expected = "unmanaged VM")]
    fn rejects_foreign_samples() {
        let mut c = test_cluster();
        let mut ctl = mk_controller(Scheme::Prepare);
        ctl.on_readings(
            Timestamp::ZERO,
            &[(VmId(9), StampedSample::fresh(sample_for(0, 1.0, 1.0)))],
            false,
            &mut c,
        );
    }

    #[test]
    #[should_panic(expected = "at least one VM")]
    fn rejects_empty_vm_set() {
        let _ = PrepareController::new(vec![], PrepareConfig::default(), Scheme::Prepare);
    }

    /// `CheckpointTaken.bytes` is the length of the `store_core` section
    /// of the frame sealed in the same round: the frame holds magic,
    /// length and tick, then exactly those core bytes, then the log.
    #[test]
    fn checkpoint_taken_reports_the_sealed_core_section() {
        let mut c = test_cluster();
        let mut config = PrepareConfig::default();
        config.predictor.bins = 3;
        let ctl = PrepareController::new(vec![VmId(0), VmId(1)], config, Scheme::Prepare);
        let mut manager = crate::RecoveryManager::new(ctl, 40);
        let mut seals = 0;
        for i in 0..160 {
            let (now, readings, violated) = round_inputs(i);
            let events = manager.tick(now, &readings, violated, &mut c);
            let Some(bytes) = events.iter().find_map(|e| match e {
                ControllerEvent::CheckpointTaken { bytes, .. } => Some(*bytes),
                _ => None,
            }) else {
                continue;
            };
            seals += 1;
            let frame = manager.crash_image().checkpoint;
            let mut core = Writer::new();
            manager.controller().store_core(&mut core);
            let mut log = Writer::new();
            manager.controller().store_log(&mut log);
            assert_eq!(bytes, core.len(), "round {i}");
            assert_eq!(&frame[24..24 + bytes], core.bytes(), "round {i}");
            assert_eq!(
                &frame[24 + bytes..frame.len() - 8],
                log.bytes(),
                "round {i}"
            );
        }
        assert_eq!(seals, 4);
        assert!(manager.controller().is_trained());
    }

    /// A small trained controller's state bytes, and the tick they are
    /// sealed at, for the hostile-bytes proptest (built once).
    fn trained_state_bytes() -> &'static [u8] {
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        BYTES.get_or_init(|| {
            let mut c = test_cluster();
            let mut config = PrepareConfig::default();
            config.predictor.bins = 3;
            let mut ctl = PrepareController::new(vec![VmId(1), VmId(0)], config, Scheme::Prepare);
            drive(&mut ctl, &mut c, 0..160);
            assert!(ctl.is_trained(), "the sweep must cover trained models");
            let mut w = Writer::new();
            ctl.store_state(&mut w);
            w.into_bytes()
        })
    }

    // Damaged state bytes, re-sealed with a valid checksum so the decoder
    // itself meets the damage, either fail with a typed error or decode to
    // a controller that re-seals to the very same frame: never a panic,
    // never a silent misparse.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        #[test]
        fn hostile_state_bytes_fail_typed_or_round_trip(
            flips in proptest::collection::vec((0usize..1 << 30, 0u32..8), 0..4),
            cut in proptest::option::of(0usize..1 << 30),
        ) {
            let mut bytes = trained_state_bytes().to_vec();
            let len = bytes.len();
            for &(at, bit) in &flips {
                bytes[at % len] ^= 1 << bit;
            }
            if let Some(cut) = cut {
                bytes.truncate(cut % len);
            }
            let frame = crate::recovery::Checkpoint::seal(3, 0, |w| w.put_raw(&bytes));
            if let Ok((back, tick)) = crate::Checkpoint::read(&frame, ParConfig::serial()) {
                proptest::prop_assert_eq!(tick, 3);
                proptest::prop_assert!(crate::Checkpoint::write(&back, tick) == frame);
            }
        }
    }
}
