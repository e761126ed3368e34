//! Multi-core batch explanation.
//!
//! The paper disables Shahin's multiprocessing to show the speedup is
//! algorithmic ("By default, Shahin runs only on a single core of a single
//! machine", §4.1) — but a production deployment would use every core, in
//! both phases:
//!
//! * **Preparation** — [`crate::PerturbationStore::materialize_parallel`]
//!   generates and labels the τ perturbations per frequent itemset across
//!   worker threads, with each itemset's RNG stream derived from
//!   `(run_seed, itemset_id)` and the per-itemset sample counts planned up
//!   front, so the materialized store is bit-identical at every thread
//!   count.
//! * **Per-tuple** — the rows are cut into contiguous blocks that the
//!   workers claim (`in_chunks`), and every row goes through the same
//!   per-tuple kernel ([`crate::kernel`]) the single-threaded driver uses.
//!   The store is only *read* and each tuple's RNG stream is derived from
//!   the run seed and its row, so tuples are embarrassingly parallel.
//!
//! Both phases schedule through `in_chunks`: a worker that finishes its
//! block early claims the next unclaimed one, so a slow core or an
//! expensive stretch of rows never leaves the other workers idle while
//! the run waits for it.
//!
//! `Method::BatchParallel` therefore produces exactly the LIME and SHAP
//! explanations (and classifier invocation counts) of `Method::Batch`, at
//! any thread count. Anchor shares its lock-striped invariant caches
//! ([`crate::SharedAnchorCaches`]) across threads: reuse is kept and the
//! found rules are stable for classifiers with crisp precision, but
//! because threads race to publish precision evidence, *invocation counts*
//! may vary slightly with the schedule beyond one thread (see DESIGN.md,
//! "Threading model & determinism").
//!
//! The thread count comes from [`crate::BatchConfig::n_threads`]
//! (machine parallelism by default) — one knob, not per-call arguments.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Blocks per worker that [`in_chunks`] cuts its range into: enough that
/// a worker which finishes early finds work left to claim, few enough
/// that per-block setup stays negligible.
const BLOCKS_PER_WORKER: usize = 16;

/// Splits `0..n` into at most `n_threads` contiguous, balanced chunks
/// (sizes differ by at most one). Returns no chunks for `n = 0`, never
/// returns an empty chunk, and clamps `n_threads` into `1..=n`.
pub fn chunks(n: usize, n_threads: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let k = n_threads.clamp(1, n);
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let end = start + base + usize::from(i < extra);
        out.push((start, end));
        start = end;
    }
    out
}

/// Runs `work` over `0..n` and returns each block's result, in row order.
///
/// With one thread (or at most one row) the whole range is one block, run
/// on the calling thread. Otherwise the range is cut into [`chunks`] of
/// `n_threads × 16` balanced blocks, and `min(n_threads, blocks)` scoped
/// `worker-{i}` threads run them: worker `i` starts on block `i` — so
/// every worker runs — then claims the next unclaimed block until none
/// is left. Which worker runs which block depends on the schedule; the
/// returned order does not.
pub(crate) fn in_chunks<R: Send>(
    n: usize,
    n_threads: usize,
    work: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    if n_threads <= 1 || n <= 1 {
        return chunks(n, 1).into_iter().map(|(s, e)| work(s..e)).collect();
    }
    let blocks = chunks(n, n_threads.saturating_mul(BLOCKS_PER_WORKER));
    let n_workers = n_threads.min(blocks.len());
    let next = AtomicUsize::new(n_workers);
    let (work, blocks, next) = (&work, &blocks, &next);
    let done: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n_workers)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("worker-{i}"))
                    .spawn_scoped(scope, move || {
                        let mut done = Vec::new();
                        let mut b = i;
                        while let Some(&(start, end)) = blocks.get(b) {
                            done.push((b, work(start..end)));
                            // Relaxed: the counter only hands out block
                            // indices; results travel back through `join`.
                            b = next.fetch_add(1, Ordering::Relaxed);
                        }
                        done
                    })
                    .expect("spawn worker")
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut done: Vec<(usize, R)> = done.into_iter().flatten().collect();
    done.sort_unstable_by_key(|&(b, _)| b);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BatchConfig;
    use crate::runner::ExplainerKind;
    use crate::ShahinBatch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shahin_explain::{
        AnchorExplainer, AnchorExplanation, ExplainContext, FeatureWeights, KernelShapExplainer,
        LimeExplainer, LimeParams, ShapParams,
    };
    use shahin_model::{Classifier, CountingClassifier, MajorityClass};
    use shahin_tabular::{train_test_split, Dataset, DatasetPreset};

    fn setup() -> (ExplainContext, CountingClassifier<MajorityClass>, Dataset) {
        let (data, labels) = DatasetPreset::Recidivism.spec(0.05).generate(3);
        let mut rng = StdRng::seed_from_u64(3);
        let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
        let ctx = ExplainContext::fit(&split.train, 300, &mut rng);
        let clf = CountingClassifier::new(MajorityClass::fit(&split.train_labels));
        let rows: Vec<usize> = (0..40.min(split.test.n_rows())).collect();
        (ctx, clf, split.test.select(&rows))
    }

    fn with_threads(n: usize) -> ShahinBatch {
        ShahinBatch::new(BatchConfig {
            n_threads: Some(n),
            ..Default::default()
        })
    }

    fn lime(n_samples: usize) -> ExplainerKind {
        ExplainerKind::Lime(LimeExplainer::new(LimeParams {
            n_samples,
            ..Default::default()
        }))
    }

    #[test]
    fn chunking_covers_all_rows() {
        assert_eq!(chunks(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(chunks(2, 8), vec![(0, 1), (1, 2)]);
        assert_eq!(chunks(0, 4), Vec::<(usize, usize)>::new());
        assert_eq!(chunks(0, 0), Vec::<(usize, usize)>::new());
        assert_eq!(chunks(5, 1), vec![(0, 5)]);
        assert_eq!(chunks(5, 0), vec![(0, 5)], "zero threads clamps to one");
        assert_eq!(chunks(1, 64), vec![(0, 1)]);
    }

    #[test]
    fn in_chunks_equals_the_sequential_map() {
        for n in [0usize, 1, 2, 17, 1000] {
            for threads in [1usize, 2, 3, 8] {
                let runs = std::sync::Mutex::new(vec![0u32; n]);
                let blocks = in_chunks(n, threads, |rows| {
                    for row in rows.clone() {
                        runs.lock().unwrap()[row] += 1;
                    }
                    rows.map(|row| row * row).collect::<Vec<_>>()
                });
                let got: Vec<usize> = blocks.into_iter().flatten().collect();
                let want: Vec<usize> = (0..n).map(|row| row * row).collect();
                assert_eq!(got, want, "n {n}, {threads} threads");
                let runs = runs.into_inner().unwrap();
                assert!(runs.iter().all(|&r| r == 1), "n {n}, {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_shap_keeps_efficiency() {
        let (ctx, clf, batch) = setup();
        let shap = ExplainerKind::Shap(KernelShapExplainer::new(ShapParams {
            n_samples: 48,
            ..Default::default()
        }));
        let r: crate::metrics::BatchResult<FeatureWeights> = with_threads(4)
            .explain(&ctx, &clf, &batch, &shap, 9, true)
            .into_weights();
        assert_eq!(r.explanations.len(), batch.n_rows());
        for e in &r.explanations {
            let total: f64 = e.weights.iter().sum();
            assert!((total - (e.local_prediction - e.intercept)).abs() < 1e-6);
        }
    }

    #[test]
    fn parallel_workers_share_one_registry() {
        let (ctx, clf, batch) = setup();
        let reg = crate::obs::MetricsRegistry::new();
        let shahin = with_threads(4).with_obs(&reg);
        shahin.explain(&ctx, &clf, &batch, &lime(60), 31, true);
        let snap = reg.snapshot();
        let n = batch.n_rows() as u64;
        // Every worker recorded into the same histograms: no lost rows.
        assert_eq!(snap.histograms["span.retrieve.match"].count, n);
        assert_eq!(snap.histograms["span.surrogate.fit"].count, n);
        assert_eq!(snap.counter("store.lookups"), n);
    }

    #[test]
    fn parallel_provenance_is_thread_count_invariant() {
        use shahin_obs::ProvenanceSink;
        use std::sync::Arc;

        let (ctx, clf, batch) = setup();
        type LineageKey = (u32, Vec<u32>, u64, u64, u64, u64);
        let mut baseline: Option<Vec<LineageKey>> = None;
        for n in [1usize, 2, 4] {
            let reg = crate::obs::MetricsRegistry::new();
            let sink = Arc::new(ProvenanceSink::new());
            reg.attach_provenance_sink(Arc::clone(&sink));
            let shahin = with_threads(n).with_obs(&reg);
            shahin.explain(&ctx, &clf, &batch, &lime(60), 11, true);
            let recs = sink.records();
            assert_eq!(recs.len(), batch.n_rows(), "{n} threads");
            if n > 1 {
                let tids: std::collections::HashSet<u64> = recs.iter().map(|r| r.thread).collect();
                assert!(tids.len() > 1, "expected records from several workers");
            }
            // Everything but thread id and wall time is schedule-invariant.
            let key: Vec<_> = recs
                .iter()
                .map(|r| {
                    assert_eq!(&*r.method, &format!("Shahin-Batch-Par{n}"));
                    (
                        r.tuple,
                        r.matched_itemsets.clone(),
                        r.samples_reused,
                        r.samples_fresh,
                        r.tau,
                        r.invocations,
                    )
                })
                .collect();
            match &baseline {
                None => baseline = Some(key),
                Some(b) => assert_eq!(b, &key, "{n} threads"),
            }
        }
    }

    #[test]
    fn parallel_anchor_rules_match_sequential_driver() {
        let (ctx, _clf, batch) = setup();
        // A classifier keyed on one attribute: rule precisions are crisp
        // (≈0 or 1), so the beam search lands on the same rules regardless
        // of how the shared cache's evidence interleaves across threads.
        // Invocation counts are schedule-dependent — the documented
        // Anchor-race tolerance — and are not compared.
        struct Key;
        impl Classifier for Key {
            fn predict_proba(&self, inst: &[shahin_tabular::Feature]) -> f64 {
                f64::from(inst[0].cat().is_multiple_of(2))
            }
        }
        let anchor = AnchorExplainer::default();
        let kind = ExplainerKind::Anchor(anchor.clone());
        let clf = CountingClassifier::new(Key);
        let seq = with_threads(1).explain_anchor(&ctx, &clf, &batch, &anchor, 13);
        for n in [1usize, 2, 4] {
            let par: crate::metrics::BatchResult<AnchorExplanation> = with_threads(n)
                .explain(&ctx, &clf, &batch, &kind, 13, true)
                .into_rules();
            assert_eq!(par.explanations.len(), batch.n_rows());
            for (row, (s, p)) in seq.explanations.iter().zip(&par.explanations).enumerate() {
                assert_eq!(s.rule, p.rule, "row {row}, {n} threads");
                assert_eq!(s.anchored_class, p.anchored_class, "row {row}, {n} threads");
            }
        }
    }
}
