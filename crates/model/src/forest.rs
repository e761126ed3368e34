//! Random Forests: bagged CART trees with feature subsampling.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shahin_tabular::{Dataset, Feature};

use crate::classifier::Classifier;
use crate::flat::FlatForest;
use crate::tree::{DecisionTree, TreeParams};

/// Random Forest hyperparameters.
#[derive(Clone, Debug)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters. `max_features = 0` here means "use ⌊√m⌋".
    pub tree: TreeParams,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 25,
            tree: TreeParams {
                max_depth: 10,
                min_samples_split: 4,
                max_features: 0, // replaced by ⌊√m⌋ at fit time
                max_numeric_candidates: 16,
                max_categorical_candidates: 32,
            },
        }
    }
}

/// A trained Random Forest binary classifier. Probability is the mean of
/// the trees' leaf probabilities, read off the trees' [`FlatForest`].
#[derive(Clone, Debug)]
pub struct RandomForest {
    flat: FlatForest,
}

impl RandomForest {
    /// Trains the forest: each tree sees a bootstrap sample (with
    /// replacement, same size as the training set) and considers `⌊√m⌋`
    /// attributes per split. The fitted trees are flattened into a
    /// [`FlatForest`] here, once; every `predict*` path walks it.
    pub fn fit(
        data: &Dataset,
        labels: &[u8],
        params: &ForestParams,
        rng: &mut impl Rng,
    ) -> RandomForest {
        assert!(params.n_trees >= 1, "need at least one tree");
        assert_eq!(data.n_rows(), labels.len(), "label count mismatch");
        let n = data.n_rows();
        let mut tree_params = params.tree.clone();
        if tree_params.max_features == 0 {
            tree_params.max_features = ((data.n_attrs() as f64).sqrt().floor() as usize).max(1);
        }
        let trees: Vec<DecisionTree> = (0..params.n_trees)
            .map(|_| {
                let mut tree_rng = StdRng::seed_from_u64(rng.gen());
                let rows: Vec<u32> = (0..n).map(|_| tree_rng.gen_range(0..n as u32)).collect();
                DecisionTree::fit_on_rows(data, labels, rows, &tree_params, &mut tree_rng)
            })
            .collect();
        RandomForest {
            flat: FlatForest::from_trees(&trees),
        }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.flat.n_trees()
    }

    /// The flattened representation.
    pub fn flat(&self) -> &FlatForest {
        &self.flat
    }

    /// Rows per worker below which batched prediction stays on one thread
    /// (tree traversal is cheap; spawning threads for small batches costs
    /// more than it saves).
    const MIN_ROWS_PER_WORKER: usize = 256;

    /// Workers for a default dispatch of `n_rows` rows. A batch too small
    /// to split never asks for the CPU count: `available_parallelism` reads
    /// cgroup files on every call, which costs more than classifying a
    /// small batch (an Anchor draw, a LIME top-up).
    fn default_workers(n_rows: usize) -> usize {
        if n_rows < 2 * Self::MIN_ROWS_PER_WORKER {
            return 1;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// [`Classifier::predict_proba_flat`] with an explicit worker count
    /// (clamped so each worker gets at least
    /// [`Self::MIN_ROWS_PER_WORKER`] rows). Row order — and hence the
    /// output — is independent of the worker count.
    pub fn predict_flat_with(&self, rows: &[Feature], n_attrs: usize, workers: usize) -> Vec<f64> {
        if n_attrs == 0 {
            return Vec::new();
        }
        debug_assert_eq!(rows.len() % n_attrs, 0, "ragged flat buffer");
        let n_rows = rows.len() / n_attrs;
        let mut out = vec![0.0; n_rows];
        let workers = workers.min(n_rows / Self::MIN_ROWS_PER_WORKER);
        if workers < 2 {
            self.flat.predict_chunk(rows, n_attrs, &mut out);
            return out;
        }
        let chunk = n_rows.div_ceil(workers);
        std::thread::scope(|scope| {
            for (rows, sums) in rows.chunks(chunk * n_attrs).zip(out.chunks_mut(chunk)) {
                scope.spawn(move || self.flat.predict_chunk(rows, n_attrs, sums));
            }
        });
        out
    }

    /// [`Classifier::predict_proba_batch`] with an explicit worker count:
    /// flattens the rows into one contiguous buffer, then dispatches to
    /// [`Self::predict_flat_with`].
    pub fn predict_batch_with(&self, instances: &[Vec<Feature>], workers: usize) -> Vec<f64> {
        let Some(first) = instances.first() else {
            return Vec::new();
        };
        let n_attrs = first.len();
        if n_attrs == 0 {
            // Zero-arity rows cannot be framed in a flat buffer; only
            // degenerate single-leaf trees can answer them anyway.
            return instances.iter().map(|i| self.predict_proba(i)).collect();
        }
        let mut buf = Vec::with_capacity(instances.len() * n_attrs);
        for inst in instances {
            debug_assert_eq!(inst.len(), n_attrs, "ragged batch");
            buf.extend_from_slice(inst);
        }
        self.predict_flat_with(&buf, n_attrs, workers)
    }
}

impl Classifier for RandomForest {
    fn predict_proba(&self, instance: &[Feature]) -> f64 {
        self.flat.predict_proba(instance)
    }

    /// Single-dispatch batch evaluation over the flat arena,
    /// chunk-parallel across worker threads when the batch is large enough
    /// to amortize the spawns. Row order (and hence the output) is
    /// independent of the thread count.
    fn predict_proba_batch(&self, instances: &[Vec<Feature>]) -> Vec<f64> {
        self.predict_batch_with(instances, Self::default_workers(instances.len()))
    }

    /// The allocation-free fast path: batched rows arrive already packed
    /// into one flat row-major buffer and go straight to the chunked
    /// traversal loop.
    fn predict_proba_flat(&self, rows: &[Feature], n_attrs: usize) -> Vec<f64> {
        let n_rows = rows.len().checked_div(n_attrs).unwrap_or(0);
        self.predict_flat_with(rows, n_attrs, Self::default_workers(n_rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shahin_tabular::{train_test_split, DatasetPreset};

    #[test]
    fn beats_majority_on_planted_concept() {
        let spec = DatasetPreset::Recidivism.spec(0.1);
        let (data, labels) = spec.generate(17);
        let mut rng = StdRng::seed_from_u64(0);
        let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
        let forest = RandomForest::fit(
            &split.train,
            &split.train_labels,
            &ForestParams {
                n_trees: 15,
                ..Default::default()
            },
            &mut rng,
        );
        let preds: Vec<u8> = (0..split.test.n_rows())
            .map(|r| forest.predict(&split.test.instance(r)))
            .collect();
        let acc = accuracy(&preds, &split.test_labels);
        assert!(acc > 0.70, "forest accuracy only {acc}");
    }

    #[test]
    fn deterministic_under_seed() {
        let spec = DatasetPreset::Recidivism.spec(0.02);
        let (data, labels) = spec.generate(2);
        let f1 = RandomForest::fit(
            &data,
            &labels,
            &ForestParams::default(),
            &mut StdRng::seed_from_u64(99),
        );
        let f2 = RandomForest::fit(
            &data,
            &labels,
            &ForestParams::default(),
            &mut StdRng::seed_from_u64(99),
        );
        for r in 0..20.min(data.n_rows()) {
            let inst = data.instance(r);
            assert_eq!(f1.predict_proba(&inst), f2.predict_proba(&inst));
        }
    }

    #[test]
    fn batch_matches_per_row_predictions_at_any_worker_count() {
        // Large enough (> 2 * MIN_ROWS_PER_WORKER) that the multi-worker
        // path actually splits, regardless of this machine's core count.
        let spec = DatasetPreset::Recidivism.spec(0.06);
        let (data, labels) = spec.generate(8);
        let mut rng = StdRng::seed_from_u64(5);
        let forest = RandomForest::fit(
            &data,
            &labels,
            &ForestParams {
                n_trees: 5,
                ..Default::default()
            },
            &mut rng,
        );
        let rows: Vec<Vec<_>> = (0..data.n_rows()).map(|r| data.instance(r)).collect();
        assert!(rows.len() > 2 * RandomForest::MIN_ROWS_PER_WORKER);
        let singles: Vec<f64> = rows.iter().map(|r| forest.predict_proba(r)).collect();
        for workers in [1usize, 2, 3, 8] {
            let batch = forest.predict_batch_with(&rows, workers);
            assert_eq!(batch.len(), singles.len());
            for (b, s) in batch.iter().zip(&singles) {
                assert!((b - s).abs() < 1e-12, "workers={workers}: {b} vs {s}");
            }
        }
        // The default entry point agrees too.
        assert_eq!(
            forest.predict_proba_batch(&rows),
            forest.predict_batch_with(&rows, 1)
        );
        // And so does the flat-buffer entry point.
        let n_attrs = rows[0].len();
        let buf: Vec<Feature> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        assert_eq!(
            forest.predict_proba_flat(&buf, n_attrs),
            forest.predict_batch_with(&rows, 1)
        );
    }

    #[test]
    fn small_batches_stay_single_threaded_but_exact() {
        let spec = DatasetPreset::Covertype.spec(0.01);
        let (data, labels) = spec.generate(9);
        let mut rng = StdRng::seed_from_u64(6);
        let forest = RandomForest::fit(&data, &labels, &ForestParams::default(), &mut rng);
        let rows: Vec<Vec<_>> = (0..10).map(|r| data.instance(r)).collect();
        let batch = forest.predict_batch_with(&rows, 16);
        for (r, b) in rows.iter().zip(&batch) {
            assert_eq!(*b, forest.predict_proba(r));
        }
        assert_eq!(forest.predict_batch_with(&[], 4), Vec::<f64>::new());
    }

    #[test]
    fn prediction_is_pure() {
        // Same instance, same answer, every time (Shahin's cache soundness
        // depends on this).
        let spec = DatasetPreset::Recidivism.spec(0.02);
        let (data, labels) = spec.generate(3);
        let mut rng = StdRng::seed_from_u64(4);
        let forest = RandomForest::fit(&data, &labels, &ForestParams::default(), &mut rng);
        let inst = data.instance(7);
        let p = forest.predict_proba(&inst);
        for _ in 0..10 {
            assert_eq!(forest.predict_proba(&inst), p);
        }
    }
}
