//! Incremental online training for a fleet of per-VM predictors.
//!
//! Retraining a [`AnomalyPredictor`] from scratch rescans the whole
//! training history: it re-fits the discretizer, re-discretizes every
//! sample, re-counts every Markov transition, and re-accumulates every
//! TAN sufficient statistic. All of those quantities are *additive* in
//! the samples, so a [`FleetTrainer`] maintains them as samples arrive
//! and turns a retrain into deriving fresh model objects from the
//! maintained state — skipping the history rescan entirely whenever the
//! discretization basis is stable.
//!
//! The history only grows: the controller re-fits on everything it has
//! seen, so a sample never leaves a slot. The trainer is also the *only*
//! owner of that history — each slot keeps its time-stamped
//! [`TimeSeries`], one [`Label`] per row, and just the last two
//! discretized rows, which are all a new sample's Markov transitions
//! read.
//!
//! # Arena layout
//!
//! Per-VM model state lives in contiguous struct-of-arrays arenas indexed
//! by slot (VM) id, not in per-VM heap objects:
//!
//! ```text
//! fallback: [ slot 0: attr 0 (n²) | attr 1 (n²) | … ][ slot 1: … ] …
//! combined: [ slot 0: attr 0 (n³) | attr 1 (n³) | … ][ slot 1: … ] …
//! ```
//!
//! so a parallel refresh shards the fleet over *contiguous* arena ranges
//! ([`prepare_par::chunk_ranges`]) and each worker streams one
//! cache-friendly block instead of chasing per-VM pointers.
//!
//! # Exactness contract
//!
//! [`FleetTrainer::derive`] is **bit-identical** to retraining from
//! scratch (replaying the slot's labeled history through
//! [`AnomalyPredictor::train_labeled_par`]) — equality, not tolerance.
//! The workspace's replay contract pins traces byte-for-byte, so an
//! "almost equal" incremental path would silently fork the trace
//! catalogue. The equality is structural, not numeric luck: counts are
//! integer-valued `f64` (exact up to 2⁵³, so +1.0 deltas commute), and
//! every count→probability derivation is shared with the from-scratch
//! path rather than re-implemented. When a new sample widens an
//! attribute's observed range the discretization basis shifts and every
//! stored count is built on the wrong bins — the slot is marked *dirty*
//! and the next [`FleetTrainer::refresh`] rebuilds it wholesale from its
//! series; there is no incremental shortcut across a basis change.

use crate::{AnomalyPredictor, MarkovKind, PredictorConfig, ValueModel};
use prepare_metrics::persist::{Persist, PersistError, Reader, Writer};
use prepare_metrics::{
    AttributeKind, DiscreteVector, Discretizer, Label, MetricSample, TimeSeries, VectorDiscretizer,
    ATTRIBUTE_COUNT,
};
use prepare_tan::{TanStats, TrainError};
use std::ops::Range;

/// Discretized rows a slot keeps: a new sample's first-order transition
/// reads the last one, its combined-state transition the last two.
const TAIL_ROWS: usize = 2;

/// Incrementally maintained training state for a fleet of per-VM
/// predictors, one *slot* per VM.
///
/// Feed each slot its labeled samples with [`FleetTrainer::push`]; call
/// [`FleetTrainer::refresh`] to rebuild any slots whose discretization
/// basis shifted, then [`FleetTrainer::derive`] (or
/// [`FleetTrainer::derive_batch`]) to materialize a trained predictor —
/// bit-identical to a from-scratch rebuild of the same history.
// xtask: checkpoint
#[derive(Debug, Clone)]
pub struct FleetTrainer {
    config: PredictorConfig,
    slots: usize,
    /// Combined-state transition counts, `slots × ATTRIBUTE_COUNT × n³`
    /// (empty for [`MarkovKind::Simple`], which has no combined table).
    combined: Vec<f64>,
    /// First-order transition counts, `slots × ATTRIBUTE_COUNT × n²` —
    /// the whole model for [`MarkovKind::Simple`], the fallback table for
    /// [`MarkovKind::TwoDependent`].
    fallback: Vec<f64>,
    /// TAN sufficient statistics, one per slot.
    tan: Vec<TanStats>,
    /// Running per-attribute min/max over each slot's history
    /// (`slots × ATTRIBUTE_COUNT`); `None` until a finite value arrives.
    ranges: Vec<Option<(f64, f64)>>,
    /// The per-attribute discretizers the counts were accumulated under
    /// (`slots × ATTRIBUTE_COUNT`). Valid only while the slot is clean.
    basis: Vec<Discretizer>,
    /// Each slot's sample history in arrival order — the samples the
    /// maintained statistics summarize.
    series: Vec<TimeSeries>,
    /// One label per `series` row.
    labels: Vec<Vec<Label>>,
    /// The last (at most [`TAIL_ROWS`]) rows of each slot's series,
    /// discretized under its basis; in sync only while the slot is clean.
    tail: Vec<Vec<DiscreteVector>>,
    /// Slots whose basis shifted: counts are stale until the next
    /// [`FleetTrainer::refresh`].
    dirty: Vec<bool>,
}

impl Persist for FleetTrainer {
    fn store(&self, w: &mut Writer) {
        self.config.store(w);
        w.put_usize(self.slots);
        for arena in [&self.combined, &self.fallback] {
            w.put_usize(arena.len());
            w.put_sparse_f64s(arena.len(), arena.iter().copied());
        }
        self.tan.store(w);
        self.ranges.store(w);
        self.basis.store(w);
        self.series.store(w);
        self.labels.store(w);
        self.tail.store(w);
        self.dirty.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let config = PredictorConfig::load(r)?;
        let slots = r.get_usize()?;
        if slots == 0 {
            return Err(PersistError::Invalid("FleetTrainer slot count"));
        }
        // The arena lengths follow from the config and slot count; check
        // the stored ones before decoding a word.
        let n = config.bins;
        let arity = |power: u32| {
            n.checked_pow(power)
                .and_then(|block| block.checked_mul(ATTRIBUTE_COUNT))
                .and_then(|slot| slot.checked_mul(slots))
                .ok_or(PersistError::Invalid("FleetTrainer arena arity"))
        };
        let combined_want = match config.markov {
            MarkovKind::Simple => 0,
            MarkovKind::TwoDependent => arity(3)?,
        };
        let mut arena = |want: usize| {
            if r.get_usize()? != want {
                return Err(PersistError::Invalid("FleetTrainer arena arity"));
            }
            r.get_sparse_f64s(want)
        };
        let combined = arena(combined_want)?;
        let fallback = arena(arity(2)?)?;
        let tan: Vec<TanStats> = Persist::load(r)?;
        let ranges: Vec<Option<(f64, f64)>> = Persist::load(r)?;
        let basis: Vec<Discretizer> = Persist::load(r)?;
        let series: Vec<TimeSeries> = Persist::load(r)?;
        let labels: Vec<Vec<Label>> = Persist::load(r)?;
        let tail: Vec<Vec<DiscreteVector>> = Persist::load(r)?;
        let dirty: Vec<bool> = Persist::load(r)?;
        if tan.len() != slots
            || ranges.len() != slots * ATTRIBUTE_COUNT
            || basis.len() != slots * ATTRIBUTE_COUNT
            || series.len() != slots
            || labels.len() != slots
            || tail.len() != slots
            || dirty.len() != slots
        {
            return Err(PersistError::Invalid("FleetTrainer arena arity"));
        }
        // Pushes index the arenas with basis symbols and feed TAN rows of
        // `n`-valued symbols: every basis and TAN table must use `n` bins.
        if basis.iter().any(|d| d.bins() != n)
            || tan
                .iter()
                .any(|t| t.cardinalities() != [n; ATTRIBUTE_COUNT])
        {
            return Err(PersistError::Invalid("FleetTrainer bin count"));
        }
        if series.iter().zip(&labels).any(|(s, l)| s.len() != l.len()) {
            return Err(PersistError::Invalid("FleetTrainer series/label length"));
        }
        // Tail symbols index the count arenas on the next push, so a
        // row must be full width with every symbol inside the bins.
        if tail
            .iter()
            .flatten()
            .any(|row| row.len() != ATTRIBUTE_COUNT || row.iter().any(|&d| d >= n))
        {
            return Err(PersistError::Invalid("FleetTrainer tail row width"));
        }
        // A clean slot keeps the discretized tail of its series.
        for ((&is_dirty, rows), s) in dirty.iter().zip(&tail).zip(&series) {
            if rows.len() > TAIL_ROWS || (!is_dirty && rows.len() != s.len().min(TAIL_ROWS)) {
                return Err(PersistError::Invalid("FleetTrainer clean-slot tail sync"));
            }
        }
        Ok(FleetTrainer {
            config,
            slots,
            combined,
            fallback,
            tan,
            ranges,
            basis,
            series,
            labels,
            tail,
            dirty,
        })
    }
}

/// One slot's freshly rebuilt state (the output of a dirty-slot rebuild,
/// computed read-only and written back after the parallel phase).
struct RebuiltSlot {
    slot: usize,
    basis: Vec<Discretizer>,
    tail: Vec<DiscreteVector>,
    tan: TanStats,
    combined: Vec<f64>,
    fallback: Vec<f64>,
}

/// Adds the Markov transitions a new `row` closes to one slot's count
/// arenas: the first-order transition from the last tail row, plus the
/// combined-state transition once two predecessors exist (`combined` is
/// empty for [`MarkovKind::Simple`]). Both arenas are the slot's own
/// `ATTRIBUTE_COUNT`-attribute blocks.
// xtask: hot-path
fn count_transitions(
    fallback: &mut [f64],
    combined: &mut [f64],
    tail: &[DiscreteVector],
    row: &[usize],
    n: usize,
) {
    let Some((prev1, older)) = tail.split_last() else {
        return;
    };
    let prev2 = if combined.is_empty() {
        None
    } else {
        older.last()
    };
    // Deliberate flat-arena addressing: rows are ATTRIBUTE_COUNT wide by
    // construction and symbols are < n from the discretizer.
    for (a, &next) in row.iter().enumerate() {
        // xtask-allow: index-in-loop -- tail rows are ATTRIBUTE_COUNT wide
        let p1 = prev1[a];
        // xtask-allow: index-in-loop -- symbols < n from the discretizer
        fallback[(a * n + p1) * n + next] += 1.0;
        if let Some(prev2) = prev2 {
            // xtask-allow: index-in-loop -- tail rows are ATTRIBUTE_COUNT wide
            let p2 = prev2[a];
            // xtask-allow: index-in-loop -- symbols < n from the discretizer
            combined[((a * n + p2) * n + p1) * n + next] += 1.0;
        }
    }
}

/// Appends `row` to a tail, keeping only the last [`TAIL_ROWS`] rows.
fn push_tail(tail: &mut Vec<DiscreteVector>, row: DiscreteVector) {
    if tail.len() == TAIL_ROWS {
        tail.remove(0);
    }
    tail.push(row);
}

impl FleetTrainer {
    /// Creates a trainer with `slots` empty per-VM histories.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` or the configuration has zero bins.
    pub fn new(slots: usize, config: &PredictorConfig) -> Self {
        assert!(slots > 0, "trainer needs at least one slot");
        assert!(config.bins > 0, "bin count must be positive");
        let n = config.bins;
        let combined_len = match config.markov {
            MarkovKind::Simple => 0,
            MarkovKind::TwoDependent => slots * ATTRIBUTE_COUNT * n * n * n,
        };
        FleetTrainer {
            config: config.clone(),
            slots,
            combined: vec![0.0; combined_len],
            fallback: vec![0.0; slots * ATTRIBUTE_COUNT * n * n],
            tan: (0..slots)
                .map(|_| TanStats::with_uniform_bins(ATTRIBUTE_COUNT, n))
                .collect(),
            ranges: vec![None; slots * ATTRIBUTE_COUNT],
            basis: (0..slots * ATTRIBUTE_COUNT)
                .map(|_| Discretizer::fit_span(None, n))
                .collect(),
            series: vec![TimeSeries::new(); slots],
            labels: vec![Vec::new(); slots],
            tail: vec![Vec::new(); slots],
            dirty: vec![false; slots],
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The sample history of `slot`, in arrival order.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn series(&self, slot: usize) -> &TimeSeries {
        &self.series[slot]
    }

    /// Whether `slot`'s maintained counts are stale (its basis shifted
    /// since the last rebuild).
    pub fn is_dirty(&self, slot: usize) -> bool {
        self.dirty[slot]
    }

    /// Where `slot`'s blocks sit in the `fallback` and `combined` arenas.
    fn arena_ranges(&self, slot: usize) -> (Range<usize>, Range<usize>) {
        let fb = ATTRIBUTE_COUNT * self.config.bins * self.config.bins;
        let comb = self.combined.len() / self.slots;
        (slot * fb..(slot + 1) * fb, slot * comb..(slot + 1) * comb)
    }

    /// Appends one labeled sample to `slot`'s history. If the sample
    /// stays inside the slot's observed value ranges the maintained
    /// counts are updated in place (the delta fast path); a
    /// range-widening sample shifts the discretization basis instead,
    /// marking the slot dirty for the next [`FleetTrainer::refresh`].
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or `sample` is older than the
    /// slot's last sample.
    pub fn push(&mut self, slot: usize, sample: &MetricSample, label: Label) {
        assert!(slot < self.slots, "slot {slot} out of range");
        self.series[slot].push(*sample);
        self.labels[slot].push(label);

        // Running min/max update — the same left-fold `Discretizer::fit`
        // performs, one element at a time. A bit-level endpoint change
        // means the refit basis may differ: mark dirty.
        let mut range_changed = false;
        for (a, &attr) in AttributeKind::ALL.iter().enumerate() {
            let v = sample.values.get(attr);
            if !v.is_finite() {
                continue;
            }
            // xtask-allow: index-in-loop -- arena offset: slot asserted in range, a < ATTRIBUTE_COUNT
            let r = &mut self.ranges[slot * ATTRIBUTE_COUNT + a];
            let (nlo, nhi) = match *r {
                None => (v, v),
                Some((lo, hi)) => (lo.min(v), hi.max(v)),
            };
            if r.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
                != Some((nlo.to_bits(), nhi.to_bits()))
            {
                range_changed = true;
            }
            *r = Some((nlo, nhi));
        }
        if range_changed {
            self.dirty[slot] = true;
        }
        if self.dirty[slot] {
            return;
        }

        let row: DiscreteVector = AttributeKind::ALL
            .iter()
            .enumerate()
            .map(|(a, &attr)| {
                self.basis[slot * ATTRIBUTE_COUNT + a].discretize(sample.values.get(attr))
            })
            .collect();
        self.tan[slot].add_row(&row, label);
        let (fb, comb) = self.arena_ranges(slot);
        count_transitions(
            &mut self.fallback[fb],
            &mut self.combined[comb],
            &self.tail[slot],
            &row,
            self.config.bins,
        );
        push_tail(&mut self.tail[slot], row);
    }

    /// Rebuilds every dirty slot from its series: refits the basis from
    /// the maintained ranges, re-discretizes the history, and re-counts
    /// the arenas. Dirty slots are sharded over contiguous chunks
    /// ([`prepare_par::chunk_ranges`]); each rebuild reads only its own
    /// slot's series, so the result is bit-identical for every worker
    /// count.
    pub fn refresh(&mut self, par: &prepare_par::ParConfig) {
        let dirty_slots: Vec<usize> = (0..self.slots).filter(|&s| self.dirty[s]).collect();
        if dirty_slots.is_empty() {
            return;
        }
        let chunks = prepare_par::chunk_ranges(dirty_slots.len(), par.workers);
        let rebuilt: Vec<Vec<RebuiltSlot>> = prepare_par::par_map(par, chunks, |range| {
            range
                .map(|k| self.rebuild_slot(dirty_slots[k]))
                .collect::<Vec<RebuiltSlot>>()
        });
        for r in rebuilt.into_iter().flatten() {
            // Scatter write-back: slot ids come from the dirty scan over
            // 0..self.slots, so every index below is in range.
            let slot = r.slot;
            self.basis[slot * ATTRIBUTE_COUNT..(slot + 1) * ATTRIBUTE_COUNT]
                .iter_mut()
                .zip(r.basis)
                .for_each(|(dst, d)| *dst = d);
            self.tail[slot] = r.tail; // xtask-allow: index-in-loop -- slot < self.slots
            self.tan[slot] = r.tan;
            let (fb, comb) = self.arena_ranges(slot);
            // xtask-allow: index-in-loop -- arena_ranges of an in-range slot
            self.fallback[fb].copy_from_slice(&r.fallback);
            // xtask-allow: index-in-loop -- arena_ranges of an in-range slot
            self.combined[comb].copy_from_slice(&r.combined);
            self.dirty[slot] = false; // xtask-allow: index-in-loop -- slot < self.slots
        }
    }

    /// From-scratch rebuild of one slot's state, read-only (the write
    /// back happens after the parallel phase).
    fn rebuild_slot(&self, slot: usize) -> RebuiltSlot {
        let n = self.config.bins;
        let basis: Vec<Discretizer> = (0..ATTRIBUTE_COUNT)
            .map(|a| Discretizer::fit_span(self.ranges[slot * ATTRIBUTE_COUNT + a], n))
            .collect();
        let mut tan = TanStats::with_uniform_bins(ATTRIBUTE_COUNT, n);
        let (fb, comb) = self.arena_ranges(slot);
        let mut fallback = vec![0.0; fb.len()];
        let mut combined = vec![0.0; comb.len()];
        let mut tail: Vec<DiscreteVector> = Vec::with_capacity(TAIL_ROWS);
        for (s, &label) in self.series[slot].iter().zip(&self.labels[slot]) {
            let row: DiscreteVector = AttributeKind::ALL
                .iter()
                .zip(&basis)
                .map(|(&attr, d)| d.discretize(s.values.get(attr)))
                .collect();
            tan.add_row(&row, label);
            count_transitions(&mut fallback, &mut combined, &tail, &row, n);
            push_tail(&mut tail, row);
        }
        RebuiltSlot {
            slot,
            basis,
            tail,
            tan,
            combined,
            fallback,
        }
    }

    /// Materializes a trained predictor from `slot`'s maintained state:
    /// the basis becomes the discretizer, the arena slices become Markov
    /// models, and the TAN statistics become the classifier — every
    /// count→probability derivation shared with the from-scratch path,
    /// so the result is bit-identical to retraining on the slot's
    /// labeled history.
    ///
    /// # Errors
    ///
    /// The same conditions as [`AnomalyPredictor::train`]: an empty
    /// history or single-class labels.
    ///
    /// # Panics
    ///
    /// Panics if the slot is dirty — call [`FleetTrainer::refresh`]
    /// first.
    pub fn derive(&self, slot: usize) -> Result<AnomalyPredictor, TrainError> {
        assert!(
            !self.dirty[slot],
            "deriving from a dirty slot; call refresh first"
        );
        let observations = self.series[slot].len();
        if observations == 0 {
            return Err(TrainError::EmptyDataset);
        }
        let classifier = self.tan[slot].classifier()?;
        let discretizer = VectorDiscretizer::from_parts(
            self.basis[slot * ATTRIBUTE_COUNT..(slot + 1) * ATTRIBUTE_COUNT].to_vec(),
        );
        let n = self.config.bins;
        let n2 = n * n;
        let n3 = n2 * n;
        let value_models: Vec<ValueModel> = (0..ATTRIBUTE_COUNT)
            .map(|a| {
                let fb_off = (slot * ATTRIBUTE_COUNT + a) * n2;
                let comb: &[f64] = match self.config.markov {
                    MarkovKind::Simple => &[],
                    MarkovKind::TwoDependent => {
                        let off = (slot * ATTRIBUTE_COUNT + a) * n3;
                        &self.combined[off..off + n3]
                    }
                };
                ValueModel::from_parts(
                    self.config.markov,
                    n,
                    comb,
                    &self.fallback[fb_off..fb_off + n2],
                    observations,
                )
            })
            .collect();
        Ok(AnomalyPredictor::from_parts(
            self.config.clone(),
            discretizer,
            value_models,
            classifier,
        ))
    }

    /// [`derive`](FleetTrainer::derive) for every slot in `slots`,
    /// sharded over workers. Results come back in the order of `slots`
    /// and are exactly what `derive` returns for each slot — error
    /// outcomes included.
    ///
    /// # Panics
    ///
    /// Panics if any slot is dirty or out of range — call
    /// [`FleetTrainer::refresh`] first.
    pub fn derive_batch(
        &self,
        slots: &[usize],
        par: &prepare_par::ParConfig,
    ) -> Vec<Result<AnomalyPredictor, TrainError>> {
        prepare_par::par_map(par, slots.to_vec(), |slot| self.derive(slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::ramp_fixture;
    use prepare_metrics::{MetricVector, SloLog, Timestamp};
    use proptest::prelude::*;

    impl FleetTrainer {
        /// The from-scratch referee: retrains `slot` by replaying its
        /// labeled history through the ordinary
        /// [`AnomalyPredictor::train_labeled_par`] path (serially),
        /// ignoring every maintained statistic.
        fn train_reference(&self, slot: usize) -> Result<AnomalyPredictor, TrainError> {
            let rows: Vec<(MetricVector, Label)> = self.series[slot]
                .iter()
                .map(|s| s.values)
                .zip(self.labels[slot].iter().copied())
                .collect();
            AnomalyPredictor::train_labeled_par(
                &rows,
                &self.config,
                &prepare_par::ParConfig::serial(),
            )
        }
    }

    fn at(i: usize) -> Timestamp {
        Timestamp::from_secs(i as u64 * 5)
    }

    fn labeled_stream(samples: usize, seed: u64) -> Vec<(MetricSample, Label)> {
        // A deterministic mixed-scale stream: values grow occasionally so
        // both the delta fast path and the dirty/rebuild path are hit.
        (0..samples)
            .map(|i| {
                let k = i as u64;
                let v = MetricVector::from_fn(|a| {
                    let x = (k * 37 + a.index() as u64 * 13 + seed) % 101;
                    if (k + seed).is_multiple_of(17) {
                        x as f64 * 3.0 // occasional range-widening spike
                    } else {
                        x as f64
                    }
                });
                let label = Label::from_violation((k * 7 + seed).is_multiple_of(5));
                (MetricSample::new(at(i), v), label)
            })
            .collect()
    }

    fn assert_same_outcome(
        got: &Result<AnomalyPredictor, TrainError>,
        want: &Result<AnomalyPredictor, TrainError>,
        context: &str,
    ) {
        match (got, want) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "{context}: derived model diverged");
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "{context}: Debug representation diverged"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{context}: errors diverged"),
            _ => panic!("{context}: one path errored, the other did not: {got:?} vs {want:?}"),
        }
    }

    #[test]
    fn derive_equals_reference_after_pushes() {
        for kind in [MarkovKind::Simple, MarkovKind::TwoDependent] {
            let config = PredictorConfig {
                markov: kind,
                ..PredictorConfig::default()
            };
            let mut trainer = FleetTrainer::new(1, &config);
            for (s, label) in labeled_stream(120, 3) {
                trainer.push(0, &s, label);
            }
            trainer.refresh(&prepare_par::ParConfig::serial());
            assert_same_outcome(
                &trainer.derive(0),
                &trainer.train_reference(0),
                &format!("{kind:?}"),
            );
        }
    }

    #[test]
    fn derive_equals_anomaly_train_on_a_series() {
        // The controller-integration premise: pushing each sample with
        // its ingest-time SLO label reproduces series+log training.
        let (series, slo) = ramp_fixture(400, 5, 40, 80.0);
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(1, &config);
        for s in series.iter() {
            trainer.push(0, s, Label::from_violation(slo.is_violated_at(s.time)));
        }
        trainer.refresh(&prepare_par::ParConfig::serial());
        assert_eq!(trainer.series(0), &series);
        let derived = trainer.derive(0).unwrap();
        let trained = AnomalyPredictor::train(&series, &slo, &config).unwrap();
        assert_eq!(derived, trained);
        assert_eq!(format!("{derived:?}"), format!("{trained:?}"));
    }

    #[test]
    fn empty_window_is_empty_dataset_error() {
        let trainer = FleetTrainer::new(2, &PredictorConfig::default());
        assert_eq!(trainer.derive(0), Err(TrainError::EmptyDataset));
        assert_eq!(trainer.train_reference(0), Err(TrainError::EmptyDataset));
    }

    #[test]
    fn single_sample_matches_reference_error() {
        let mut trainer = FleetTrainer::new(1, &PredictorConfig::default());
        let first = MetricSample::new(Timestamp::ZERO, MetricVector::zeros());
        trainer.push(0, &first, Label::Normal);
        trainer.refresh(&prepare_par::ParConfig::serial());
        assert_same_outcome(
            &trainer.derive(0),
            &trainer.train_reference(0),
            "single sample",
        );
        assert!(trainer.derive(0).is_err(), "one sample is single-class");
    }

    #[test]
    #[should_panic(expected = "dirty slot")]
    fn derive_on_dirty_slot_panics() {
        let mut trainer = FleetTrainer::new(1, &PredictorConfig::default());
        let first = MetricSample::new(Timestamp::ZERO, MetricVector::zeros());
        trainer.push(0, &first, Label::Normal);
        assert!(trainer.is_dirty(0), "first push always shifts the basis");
        let _ = trainer.derive(0);
    }

    #[test]
    fn tail_keeps_only_the_last_two_discretized_rows() {
        let mut trainer = FleetTrainer::new(1, &PredictorConfig::default());
        let stream = labeled_stream(90, 4);
        for (i, (s, label)) in stream.iter().enumerate() {
            trainer.push(0, s, *label);
            if i % 10 == 0 {
                trainer.refresh(&prepare_par::ParConfig::serial());
            }
            assert!(trainer.tail[0].len() <= TAIL_ROWS);
        }
        trainer.refresh(&prepare_par::ParConfig::serial());
        let basis = VectorDiscretizer::from_parts(trainer.basis[..ATTRIBUTE_COUNT].to_vec());
        let want: Vec<DiscreteVector> = stream[stream.len() - TAIL_ROWS..]
            .iter()
            .map(|(s, _)| basis.discretize(&s.values))
            .collect();
        assert_eq!(trainer.tail[0], want);
    }

    #[test]
    fn slots_are_independent() {
        let config = PredictorConfig::default();
        let mut fleet = FleetTrainer::new(3, &config);
        let streams: Vec<Vec<(MetricSample, Label)>> = (0..3)
            .map(|s| labeled_stream(90, s as u64 * 7 + 1))
            .collect();
        // Interleave pushes across slots.
        for i in 0..90 {
            for (slot, stream) in streams.iter().enumerate() {
                let (s, label) = &stream[i];
                fleet.push(slot, s, *label);
            }
        }
        for workers in [1usize, 2, 7] {
            let mut clone = fleet.clone();
            clone.refresh(&prepare_par::ParConfig::with_workers(workers));
            for (slot, stream) in streams.iter().enumerate() {
                let mut solo = FleetTrainer::new(1, &config);
                for (s, label) in stream {
                    solo.push(0, s, *label);
                }
                solo.refresh(&prepare_par::ParConfig::serial());
                assert_same_outcome(
                    &clone.derive(slot),
                    &solo.derive(0),
                    &format!("slot {slot} workers {workers}"),
                );
            }
        }
    }

    #[test]
    fn trainer_matches_train_par_for_all_worker_counts() {
        let (series, slo): (TimeSeries, SloLog) = ramp_fixture(300, 5, 40, 80.0);
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(1, &config);
        for s in series.iter() {
            trainer.push(0, s, Label::from_violation(slo.is_violated_at(s.time)));
        }
        trainer.refresh(&prepare_par::ParConfig::serial());
        let derived = trainer.derive(0).unwrap();
        for workers in [1usize, 2, 7] {
            let par = prepare_par::ParConfig::with_workers(workers);
            let trained = AnomalyPredictor::train_par(&series, &slo, &config, &par).unwrap();
            assert_eq!(derived, trained, "workers={workers}");
        }
    }

    #[test]
    fn derive_batch_is_worker_count_invariant() {
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(5, &config);
        for slot in 0..5 {
            for (s, label) in labeled_stream(80, slot as u64 * 3 + 2) {
                trainer.push(slot, &s, label);
            }
        }
        trainer.refresh(&prepare_par::ParConfig::serial());
        let slots = [3usize, 0, 4, 1, 2];
        for workers in [1usize, 2, 7] {
            let got = trainer.derive_batch(&slots, &prepare_par::ParConfig::with_workers(workers));
            for (&slot, g) in slots.iter().zip(&got) {
                assert_same_outcome(
                    g,
                    &trainer.derive(slot),
                    &format!("slot {slot} workers {workers}"),
                );
            }
        }
    }

    #[test]
    fn derive_batch_preserves_error_outcomes() {
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(2, &config);
        for (s, label) in labeled_stream(60, 8) {
            trainer.push(0, &s, label);
        }
        trainer.refresh(&prepare_par::ParConfig::serial());
        // Slot 1 is empty: the batch must report EmptyDataset for it.
        let batch = trainer.derive_batch(&[0, 1], &prepare_par::ParConfig::serial());
        assert!(batch[0].is_ok());
        assert_eq!(batch[1], Err(TrainError::EmptyDataset));
        // Duplicate slots in one request are served consistently.
        let dup = trainer.derive_batch(&[0, 0, 1], &prepare_par::ParConfig::serial());
        assert_same_outcome(&dup[0], &dup[1], "duplicate request");
        assert_eq!(dup[2], Err(TrainError::EmptyDataset));
    }

    /// A restored trainer is observationally identical: it derives the
    /// same models, and continuing the stream (pushes and refreshes) on
    /// both copies keeps them in lockstep — the crash recovery contract
    /// for the training plane.
    #[test]
    fn persist_round_trip_continues_training_bit_identically() {
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(3, &config);
        let streams: Vec<Vec<(MetricSample, Label)>> = (0..3)
            .map(|s| labeled_stream(120, s as u64 * 7 + 1))
            .collect();
        for (slot, stream) in streams.iter().enumerate() {
            for (s, label) in &stream[..90] {
                trainer.push(slot, s, *label);
            }
        }
        // Leave slot 2 dirty on purpose: dirtiness must survive restore.
        trainer.refresh(&prepare_par::ParConfig::serial());
        let spike = MetricSample::new(at(90), MetricVector::from_fn(|_| 9999.0));
        trainer.push(2, &spike, Label::Abnormal);
        assert!(trainer.is_dirty(2));

        let bytes = prepare_metrics::persist::to_bytes(&trainer);
        let mut restored: FleetTrainer = prepare_metrics::persist::from_bytes(&bytes).unwrap();
        assert!(restored.is_dirty(2));
        assert_same_outcome(&restored.derive(0), &trainer.derive(0), "restored slot 0");

        for (slot, stream) in streams.iter().enumerate() {
            for (s, label) in &stream[90..] {
                trainer.push(slot, s, *label);
                restored.push(slot, s, *label);
            }
        }
        trainer.refresh(&prepare_par::ParConfig::serial());
        restored.refresh(&prepare_par::ParConfig::serial());
        for slot in 0..3 {
            assert_same_outcome(
                &restored.derive(slot),
                &trainer.derive(slot),
                &format!("continued slot {slot}"),
            );
        }
    }

    #[test]
    fn persist_load_rejects_slot_arity_mismatch() {
        let mut trainer = FleetTrainer::new(2, &PredictorConfig::default());
        for (s, label) in labeled_stream(40, 6) {
            trainer.push(0, &s, label);
        }
        let mut bytes = prepare_metrics::persist::to_bytes(&trainer);
        // The slot count sits right after the config (bins u64 + secs u64
        // + markov tag byte); shrinking it desynchronizes every arena.
        let off = 8 + 8 + 1;
        bytes[off..off + 8].copy_from_slice(&1u64.to_le_bytes());
        assert!(prepare_metrics::persist::from_bytes::<FleetTrainer>(&bytes).is_err());
    }

    /// Every layout inconsistency a corrupt checkpoint can carry is a
    /// typed load error — each one would otherwise index out of bounds
    /// or desynchronize the counts on a later push.
    #[test]
    fn persist_load_rejects_inconsistent_layouts() {
        let mut trainer = FleetTrainer::new(2, &PredictorConfig::default());
        for slot in 0..2 {
            for (s, label) in labeled_stream(40, slot as u64 + 6) {
                trainer.push(slot, &s, label);
            }
        }
        trainer.refresh(&prepare_par::ParConfig::serial());
        let rejects = |bad: FleetTrainer, want: &'static str| {
            let bytes = prepare_metrics::persist::to_bytes(&bad);
            assert_eq!(
                prepare_metrics::persist::from_bytes::<FleetTrainer>(&bytes).unwrap_err(),
                PersistError::Invalid(want)
            );
        };
        let n = trainer.config.bins;
        let mut bad = trainer.clone();
        bad.labels[1].pop();
        rejects(bad, "FleetTrainer series/label length");
        let mut bad = trainer.clone();
        bad.tail[0][1].pop();
        rejects(bad, "FleetTrainer tail row width");
        let mut bad = trainer.clone();
        bad.tail[1][0][3] = n;
        rejects(bad, "FleetTrainer tail row width");
        let mut bad = trainer.clone();
        bad.tail[0].pop();
        rejects(bad, "FleetTrainer clean-slot tail sync");
        let mut bad = trainer.clone();
        bad.basis[5] = Discretizer::fit_span(None, n + 1);
        rejects(bad, "FleetTrainer bin count");
        let mut bad = trainer.clone();
        bad.tan[1] = TanStats::with_uniform_bins(ATTRIBUTE_COUNT, n + 1);
        rejects(bad, "FleetTrainer bin count");
    }

    proptest! {
        // Random labeled push-only streams with occasional spikes and
        // refreshes at arbitrary points: the incremental derivation
        // equals the from-scratch rebuild exactly — including which
        // error it returns.
        #[test]
        fn derive_always_equals_reference(input in arb_ops()) {
            let (kind, ops) = input;
            let config = PredictorConfig {
                markov: kind,
                ..PredictorConfig::default()
            };
            let mut trainer = FleetTrainer::new(1, &config);
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Op::Push(v, label) => {
                        let vector = MetricVector::from_fn(|a| v[a.index() % v.len()]);
                        trainer.push(0, &MetricSample::new(at(i), vector), *label);
                    }
                    Op::Refresh => trainer.refresh(&prepare_par::ParConfig::serial()),
                }
            }
            trainer.refresh(&prepare_par::ParConfig::serial());
            let derived = trainer.derive(0);
            let reference = trainer.train_reference(0);
            match (&derived, &reference) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                _ => prop_assert!(false, "outcome kind diverged: {:?} vs {:?}", derived, reference),
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Push(Vec<f64>, Label),
        Refresh,
    }

    fn arb_ops() -> impl Strategy<Value = (MarkovKind, Vec<Op>)> {
        let value = proptest::collection::vec(0usize..200, 3);
        let op = (value, any::<bool>(), 0usize..4).prop_map(|(vals, abnormal, refresh)| {
            if refresh == 0 {
                Op::Refresh
            } else {
                let label = Label::from_violation(abnormal);
                Op::Push(vals.into_iter().map(|x| x as f64 * 1.5).collect(), label)
            }
        });
        (any::<bool>(), proptest::collection::vec(op, 1..60)).prop_map(|(simple, ops)| {
            let kind = if simple {
                MarkovKind::Simple
            } else {
                MarkovKind::TwoDependent
            };
            (kind, ops)
        })
    }
}
