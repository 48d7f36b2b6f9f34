//! Additive sufficient statistics for TAN training — the incremental
//! (delta-apply) alternative to rebuilding a [`Dataset`] every retrain.
//!
//! Everything TAN learns is a function of three count families:
//! per-class row counts (the prior), per-attribute per-class value
//! counts (root CPTs), and per-attribute-pair per-class joint counts
//! (CMI edge weights and edge CPTs). All three are *additive*: a new
//! sample is one `add_row` — no rebuild.
//!
//! Bit-identity with the dataset path is structural, not tested-in:
//! [`TanStats::classifier`] derives probabilities through the exact same
//! code the dataset rebuild uses ([`RootCpt::from_counts`],
//! [`EdgeCpt::from_counts`], [`cmi_from_joints`],
//! [`max_spanning_tree`], [`log_prior_ratio_from_counts`]), and all
//! counts are integer-valued f64 (exact up to 2^53), so the order rows
//! arrive in cannot change a single bit. The crate's proptests
//! assert exact equality against `TanClassifier::train` anyway.

use crate::chow_liu::max_spanning_tree;
use crate::mutual_info::cmi_from_joints;
use crate::naive::{log_prior_ratio_from_counts, RootCpt};
use crate::tan::{Cpt, EdgeCpt};
use crate::{TanClassifier, TrainError};
use prepare_metrics::persist::{Persist, PersistError, Reader, Writer};
use prepare_metrics::Label;

/// Sufficient statistics for one TAN model, updated by row-level deltas.
// xtask: checkpoint
#[derive(Debug, Clone, PartialEq)]
pub struct TanStats {
    cardinalities: Vec<usize>,
    rows: usize,
    /// [normal, abnormal] row counts.
    class_counts: [usize; 2],
    /// `marg[attr][class][value]` — per-attribute value counts.
    marg: Vec<[Vec<f64>; 2]>,
    /// `joints[pair][class][v_i][v_j]` for attribute pairs `(i, j)`,
    /// `i < j`, in lexicographic order — the same orientation the
    /// Chow–Liu upper triangle reads.
    joints: Vec<[Vec<Vec<f64>>; 2]>,
}

impl TanStats {
    /// Empty statistics for attributes with the given cardinalities.
    ///
    /// # Panics
    ///
    /// Panics if there are no attributes or any cardinality is zero.
    pub fn new(cardinalities: Vec<usize>) -> Self {
        assert!(!cardinalities.is_empty(), "need at least one attribute");
        assert!(
            cardinalities.iter().all(|&c| c > 0),
            "cardinalities must be positive"
        );
        let marg = cardinalities
            .iter()
            .map(|&c| [vec![0.0; c], vec![0.0; c]])
            .collect();
        let n = cardinalities.len();
        let mut joints = Vec::with_capacity(n * (n - 1) / 2);
        for (i, &ci) in cardinalities.iter().enumerate() {
            for &cj in cardinalities.iter().skip(i + 1) {
                joints.push([vec![vec![0.0; cj]; ci], vec![vec![0.0; cj]; ci]]);
            }
        }
        TanStats {
            cardinalities,
            rows: 0,
            class_counts: [0, 0],
            marg,
            joints,
        }
    }

    /// Uniform-cardinality convenience mirroring
    /// [`Dataset::with_uniform_bins`](crate::Dataset::with_uniform_bins).
    pub fn with_uniform_bins(n_attrs: usize, bins: usize) -> Self {
        Self::new(vec![bins; n_attrs])
    }

    /// Number of rows currently summarized.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether no rows are currently summarized.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Per-attribute value cardinalities.
    pub fn cardinalities(&self) -> &[usize] {
        &self.cardinalities
    }

    /// `(normal, abnormal)` row counts.
    pub fn class_counts(&self) -> (usize, usize) {
        (self.class_counts[0], self.class_counts[1])
    }

    /// Index of pair `(i, j)` (`i < j`) in the lexicographic pair list.
    fn pair_index(&self, i: usize, j: usize) -> usize {
        let n = self.cardinalities.len();
        i * (2 * n - i - 1) / 2 + (j - i - 1)
    }

    fn validate(&self, row: &[usize]) {
        assert_eq!(row.len(), self.cardinalities.len(), "row arity mismatch");
        for (&v, &c) in row.iter().zip(&self.cardinalities) {
            assert!(v < c, "value {v} out of range (cardinality {c})");
        }
    }

    /// Applies a +1 delta: one labeled row enters the training history.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or out-of-range values.
    // xtask: hot-path
    pub fn add_row(&mut self, row: &[usize], label: Label) {
        self.validate(row);
        let c = label.is_abnormal() as usize;
        self.class_counts[c] += 1;
        self.rows += 1;
        for (m, &v) in self.marg.iter_mut().zip(row) {
            // xtask-allow: index-in-loop -- c ∈ {0,1}; v < cardinality by validate()
            m[c][v] += 1.0;
        }
        let n = self.cardinalities.len();
        let mut k = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                // xtask-allow: index-in-loop -- k walks the pair list in lockstep with (i, j); values validated
                self.joints[k][c][row[i]][row[j]] += 1.0;
                k += 1;
            }
        }
    }

    /// Edge CPT counts `[class][parent value][attr value]` for
    /// `attr` conditioned on `parent`, read from the stored `(min, max)`
    /// joint table — transposed when the parent is the higher-indexed
    /// attribute. Transposition permutes exact integers, so the result
    /// equals the dataset scan bit-for-bit.
    // xtask: taint-source count
    fn edge_counts(&self, attr: usize, parent: usize) -> [Vec<Vec<f64>>; 2] {
        if parent < attr {
            self.joints[self.pair_index(parent, attr)].clone()
        } else {
            let stored = &self.joints[self.pair_index(attr, parent)];
            let (card, pcard) = (self.cardinalities[attr], self.cardinalities[parent]);
            let mut out = [vec![vec![0.0; card]; pcard], vec![vec![0.0; card]; pcard]];
            for (src, dst) in stored.iter().zip(out.iter_mut()) {
                for (av, src_row) in src.iter().enumerate() {
                    for (pv, &count) in src_row.iter().enumerate() {
                        // xtask-allow: index-in-loop -- transposed scatter; pv/av enumerate the table dims
                        dst[pv][av] = count;
                    }
                }
            }
            out
        }
    }

    /// Derives a trained classifier from the current statistics — the
    /// delta-apply equivalent of `TanClassifier::train` on a dataset
    /// holding exactly the added rows, bit-identical to it.
    pub fn classifier(&self) -> Result<TanClassifier, TrainError> {
        let log_prior_ratio =
            log_prior_ratio_from_counts(self.rows, (self.class_counts[0], self.class_counts[1]))?;
        let n = self.cardinalities.len();
        let parents = if n == 1 {
            vec![None]
        } else {
            let n_total = self.rows as f64;
            let upper: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    ((i + 1)..n)
                        .map(|j| cmi_from_joints(&self.joints[self.pair_index(i, j)], n_total))
                        .collect()
                })
                .collect();
            max_spanning_tree(n, &upper)
        };
        let cpts = parents
            .iter()
            .enumerate()
            .map(|(i, &p)| match p {
                None => Cpt::Root(RootCpt::from_counts(self.marg[i].clone(), 1.0)),
                Some(parent) => Cpt::Edge {
                    parent,
                    table: EdgeCpt::from_counts(self.edge_counts(i, parent), 1.0),
                },
            })
            .collect();
        Ok(TanClassifier::from_parts(
            cpts,
            parents,
            log_prior_ratio,
            self.cardinalities.clone(),
        ))
    }
}

impl Persist for TanStats {
    fn store(&self, w: &mut Writer) {
        self.cardinalities.store(w);
        w.put_usize(self.rows);
        self.class_counts.store(w);
        self.marg.store(w);
        self.joints.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let cardinalities: Vec<usize> = Persist::load(r)?;
        let rows = r.get_usize()?;
        let class_counts: [usize; 2] = Persist::load(r)?;
        let marg: Vec<[Vec<f64>; 2]> = Persist::load(r)?;
        let joints: Vec<[Vec<Vec<f64>>; 2]> = Persist::load(r)?;
        let n = cardinalities.len();
        if n == 0 || cardinalities.contains(&0) {
            return Err(PersistError::Invalid("TanStats cardinalities"));
        }
        if rows != class_counts[0] + class_counts[1] {
            return Err(PersistError::Invalid("TanStats row count"));
        }
        if marg.len() != n || joints.len() != n * (n - 1) / 2 {
            return Err(PersistError::Invalid("TanStats table arity"));
        }
        for (m, &c) in marg.iter().zip(&cardinalities) {
            if m.iter().any(|row| row.len() != c) {
                return Err(PersistError::Invalid("TanStats marginal shape"));
            }
        }
        Ok(TanStats {
            cardinalities,
            rows,
            class_counts,
            marg,
            joints,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Classifier, Dataset};

    fn train_reference(
        rows: &[(Vec<usize>, Label)],
        cards: &[usize],
    ) -> Result<TanClassifier, TrainError> {
        let mut ds = Dataset::new(cards.to_vec());
        for (r, l) in rows {
            ds.push(r.clone(), *l).unwrap();
        }
        TanClassifier::train(&ds)
    }

    fn leak_rows() -> (Vec<(Vec<usize>, Label)>, Vec<usize>) {
        let mut rows = Vec::new();
        for k in 0..120usize {
            let noise = (k / 2) % 4;
            if k % 3 == 0 {
                rows.push((vec![0, 3, noise], Label::Abnormal));
            } else {
                rows.push((vec![2 + k % 2, k % 2, noise], Label::Normal));
            }
        }
        (rows, vec![4, 4, 4])
    }

    fn assert_bit_identical(a: &TanClassifier, b: &TanClassifier) {
        assert_eq!(a, b);
        let bits = |t: &TanClassifier| {
            t.log_cpt_rows()
                .iter()
                .flatten()
                .map(|p| p.to_bits())
                .collect::<Vec<u64>>()
        };
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn persist_round_trip_continues_bit_identically() {
        let (rows, cards) = leak_rows();
        let mut stats = TanStats::new(cards);
        // Load a partial window so the restored stats must continue
        // mid-stream, not from scratch.
        for (r, l) in &rows[..70] {
            stats.add_row(r, *l);
        }
        let bytes = prepare_metrics::persist::to_bytes(&stats);
        let mut restored: TanStats = prepare_metrics::persist::from_bytes(&bytes).unwrap();
        assert_eq!(restored, stats);
        // Continue the stream on both copies and require identical models.
        for (r, l) in &rows[70..] {
            stats.add_row(r, *l);
            restored.add_row(r, *l);
        }
        assert_bit_identical(
            &restored.classifier().unwrap(),
            &stats.classifier().unwrap(),
        );
    }

    #[test]
    fn persist_load_rejects_mismatched_row_count() {
        let (rows, cards) = leak_rows();
        let mut stats = TanStats::new(cards);
        for (r, l) in &rows {
            stats.add_row(r, *l);
        }
        let mut bytes = prepare_metrics::persist::to_bytes(&stats);
        // The row count lives after the cardinalities (len + 3 values).
        let off = 8 * 4;
        bytes[off..off + 8].copy_from_slice(&1u64.to_le_bytes());
        let err = prepare_metrics::persist::from_bytes::<TanStats>(&bytes).unwrap_err();
        assert_eq!(
            err,
            prepare_metrics::persist::PersistError::Invalid("TanStats row count")
        );
    }

    #[test]
    fn stats_classifier_is_bit_identical_to_dataset_train() {
        let (rows, cards) = leak_rows();
        let mut stats = TanStats::new(cards.clone());
        for (r, l) in &rows {
            stats.add_row(r, *l);
        }
        let from_stats = stats.classifier().unwrap();
        let from_dataset = train_reference(&rows, &cards).unwrap();
        assert_bit_identical(&from_stats, &from_dataset);
    }

    #[test]
    fn empty_stats_error_matches_dataset_path() {
        let stats = TanStats::with_uniform_bins(3, 4);
        assert_eq!(stats.classifier(), Err(TrainError::EmptyDataset));
        assert_eq!(
            train_reference(&[], &[4, 4, 4]),
            Err(TrainError::EmptyDataset)
        );
    }

    #[test]
    fn single_class_error_matches_dataset_path() {
        let mut stats = TanStats::with_uniform_bins(2, 3);
        stats.add_row(&[0, 1], Label::Normal);
        assert_eq!(
            stats.classifier(),
            Err(TrainError::SingleClass(Label::Normal))
        );
        let mut only_ab = TanStats::with_uniform_bins(2, 3);
        only_ab.add_row(&[0, 1], Label::Abnormal);
        assert_eq!(
            only_ab.classifier(),
            Err(TrainError::SingleClass(Label::Abnormal))
        );
    }

    #[test]
    fn single_sample_per_class_matches_dataset_path() {
        let rows = vec![
            (vec![0usize, 2], Label::Normal),
            (vec![1, 0], Label::Abnormal),
        ];
        let mut stats = TanStats::with_uniform_bins(2, 3);
        for (r, l) in &rows {
            stats.add_row(r, *l);
        }
        assert_bit_identical(
            &stats.classifier().unwrap(),
            &train_reference(&rows, &[3, 3]).unwrap(),
        );
    }

    #[test]
    fn single_attribute_matches_dataset_path() {
        let rows = vec![
            (vec![0usize], Label::Normal),
            (vec![1], Label::Abnormal),
            (vec![0], Label::Normal),
        ];
        let mut stats = TanStats::with_uniform_bins(1, 2);
        for (r, l) in &rows {
            stats.add_row(r, *l);
        }
        assert_bit_identical(
            &stats.classifier().unwrap(),
            &train_reference(&rows, &[2]).unwrap(),
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_rejects_out_of_range_values() {
        TanStats::with_uniform_bins(2, 2).add_row(&[0, 2], Label::Normal);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{Classifier, Dataset};
    use proptest::prelude::*;

    fn arb_stream() -> impl Strategy<Value = (usize, Vec<(Vec<usize>, bool)>)> {
        (2usize..5, 2usize..4).prop_flat_map(|(attrs, bins)| {
            proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..bins, attrs),
                    any::<bool>(),
                ),
                1..80,
            )
            .prop_map(move |stream| (bins, stream))
        })
    }

    fn rebuild(
        rows: &[(Vec<usize>, bool)],
        attrs: usize,
        bins: usize,
    ) -> Result<TanClassifier, TrainError> {
        let mut ds = Dataset::with_uniform_bins(attrs, bins);
        for (r, ab) in rows {
            ds.push(r.clone(), Label::from_violation(*ab)).unwrap();
        }
        TanClassifier::train(&ds)
    }

    proptest! {
        // For any random stream, the delta-applied statistics equal a
        // from-scratch rebuild of every prefix — exactly, including the
        // error cases.
        #[test]
        fn growing_stream_equals_rebuild(input in arb_stream()) {
            let (bins, stream) = input;
            let attrs = stream[0].0.len();
            let mut stats = TanStats::with_uniform_bins(attrs, bins);
            for (end, (r, ab)) in stream.iter().enumerate() {
                stats.add_row(r, Label::from_violation(*ab));
                let expect = rebuild(&stream[..=end], attrs, bins);
                match (stats.classifier(), expect) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(&a, &b);
                        let abits: Vec<u64> = a.log_cpt_rows().iter().flatten().map(|p| p.to_bits()).collect();
                        let bbits: Vec<u64> = b.log_cpt_rows().iter().flatten().map(|p| p.to_bits()).collect();
                        prop_assert_eq!(abits, bbits);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    (a, b) => prop_assert!(false, "paths diverged at prefix {}: {:?} vs {:?}", end, a, b),
                }
            }
        }
    }
}
