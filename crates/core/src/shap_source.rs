//! KernelSHAP coalition source backed by the perturbation store.
//!
//! Algorithm 3 (lines 9–13): when KernelSHAP samples a random feature
//! subset `s` that is a *superset* of some materialized frequent itemset
//! `f`, the stored perturbations of `f` can be scanned for ones whose codes
//! also agree with the instance on `s \ attrs(f)` — those are exactly
//! perturbations with coalition `s` frozen at the instance's values, and
//! their classifier labels come for free.

use shahin_explain::{CoalitionSample, CoalitionSource, LabeledSample};
use shahin_fim::Itemset;

use crate::store::PerturbationStore;

/// Pools materialized samples as pre-labeled coalitions for one tuple
/// (Algorithm 3 lines 7–8), interleaving **round-robin across the matched
/// itemsets** so the regression sees diverse coalition masks, capped at
/// `budget` samples. Greedily draining one itemset's τ samples first would
/// leave the constrained WLS nearly rank-deficient and blow up individual
/// Shapley estimates (observed as multi-unit Euclidean deviations in the
/// quality harness before this was fixed).
pub fn pool_coalitions(
    store: &PerturbationStore,
    matched: &[u32],
    budget: usize,
) -> Vec<CoalitionSample> {
    let mut pooled = Vec::with_capacity(budget.min(64));
    if matched.is_empty() || budget == 0 {
        return pooled;
    }
    let coalitions: Vec<Vec<u16>> = matched
        .iter()
        .map(|&id| store.itemset(id).items().iter().map(|it| it.attr).collect())
        .collect();
    let mut cursor = 0usize;
    loop {
        let mut any = false;
        for (&id, coalition) in matched.iter().zip(&coalitions) {
            let samples = store.samples(id);
            if let Some(s) = samples.get(cursor) {
                pooled.push(CoalitionSample {
                    coalition: coalition.clone(),
                    proba: s.proba,
                });
                any = true;
                if pooled.len() >= budget {
                    return pooled;
                }
            }
        }
        if !any {
            return pooled;
        }
        cursor += 1;
    }
}

/// Cached samples as pre-labeled coalitions for the tuple with `codes`:
/// each sample's coalition is every attribute where it agrees with the
/// tuple (GREEDY's and streaming warm-up's reuse, which have no frozen
/// itemsets to read coalitions from).
pub(crate) fn agreement_coalitions(hits: &[&LabeledSample], codes: &[u32]) -> Vec<CoalitionSample> {
    hits.iter()
        .map(|s| CoalitionSample {
            coalition: s
                .codes
                .iter()
                .enumerate()
                .filter(|&(a, &c)| codes[a] == c)
                .map(|(a, _)| a as u16)
                .collect(),
            proba: s.proba,
        })
        .collect()
}

/// A per-tuple [`CoalitionSource`] over the materialized store.
pub struct StoreCoalitionSource<'a> {
    store: &'a PerturbationStore,
    /// Store ids whose itemsets the tuple contains, in priority order.
    matched: Vec<u32>,
    /// Rotating scan cursor per matched entry (indexed like `matched`), so
    /// repeated fetches hand out different cached samples.
    cursors: Vec<usize>,
    /// Cap on samples scanned per fetch attempt, bounding retrieval cost.
    max_scan: usize,
    /// Number of successful cache hits (for diagnostics).
    hits: u64,
}

impl<'a> StoreCoalitionSource<'a> {
    /// Creates a source for one tuple given its matched store ids.
    pub fn new(store: &'a PerturbationStore, matched: Vec<u32>) -> Self {
        let cursors = vec![0; matched.len()];
        StoreCoalitionSource {
            store,
            matched,
            cursors,
            max_scan: 64,
            hits: 0,
        }
    }

    /// Number of coalition fetches served from the store.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

/// True if every attribute of `itemset` appears in the sorted `coalition`.
fn attrs_subset_of(itemset: &Itemset, coalition: &[u16]) -> bool {
    itemset
        .items()
        .iter()
        .all(|it| coalition.binary_search(&it.attr).is_ok())
}

impl CoalitionSource for StoreCoalitionSource<'_> {
    fn fetch(&mut self, inst_codes: &[u32], coalition: &[u16]) -> Option<f64> {
        for (mi, &id) in self.matched.iter().enumerate() {
            let f = self.store.itemset(id);
            if f.len() > coalition.len() || !attrs_subset_of(f, coalition) {
                continue;
            }
            let samples = self.store.samples(id);
            if samples.is_empty() {
                continue;
            }
            let start = self.cursors[mi];
            let scan = samples.len().min(self.max_scan);
            for step in 0..scan {
                let idx = (start + step) % samples.len();
                let s = &samples[idx];
                // The coalition attrs not covered by `f` must agree with
                // the instance (f's own attrs agree by construction since
                // the tuple contains f).
                let ok = coalition
                    .iter()
                    .all(|&a| s.codes[a as usize] == inst_codes[a as usize]);
                if ok {
                    self.cursors[mi] = (idx + 1) % samples.len();
                    self.hits += 1;
                    return Some(s.proba);
                }
            }
            self.cursors[mi] = (start + scan) % samples.len();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use shahin_explain::ExplainContext;
    use shahin_fim::Item;
    use shahin_model::MajorityClass;
    use shahin_tabular::{Attribute, Column, Dataset, Schema};
    use std::sync::Arc;

    fn setup() -> (ExplainContext, PerturbationStore) {
        let mut rng = StdRng::seed_from_u64(0);
        let n = 200;
        let schema = Arc::new(Schema::new(
            (0..4)
                .map(|i| Attribute::categorical(format!("a{i}"), 3))
                .collect(),
        ));
        let cols = (0..4)
            .map(|_| Column::Cat((0..n).map(|_| rng.gen_range(0..3u32)).collect()))
            .collect();
        let ctx = ExplainContext::fit(&Dataset::new(schema, cols), 200, &mut rng);
        let clf = MajorityClass::fit(&[1]);
        let itemsets = vec![Itemset::new(vec![Item::new(0, 1)])];
        let mut store = PerturbationStore::new(itemsets, usize::MAX);
        store.materialize(&ctx, &clf, 60, &mut rng);
        (ctx, store)
    }

    #[test]
    fn exact_coalition_hit() {
        let (_ctx, store) = setup();
        let mut src = StoreCoalitionSource::new(&store, vec![0]);
        // Coalition = exactly the materialized itemset's attr.
        let inst = [1u32, 2, 0, 1];
        let got = src.fetch(&inst, &[0]);
        assert!(got.is_some());
        assert_eq!(src.hits(), 1);
    }

    #[test]
    fn superset_coalition_scans_for_agreement() {
        let (_ctx, store) = setup();
        let mut src = StoreCoalitionSource::new(&store, vec![0]);
        let inst = [1u32, 2, 0, 1];
        // Coalition {0, 1}: need a stored sample of {A0=1} with code 2 at
        // attr 1 (~1/3 of 60 samples exist).
        let got = src.fetch(&inst, &[0, 1]);
        assert!(got.is_some(), "no agreeing sample found among 60");
    }

    #[test]
    fn miss_when_itemset_not_subset() {
        let (_ctx, store) = setup();
        let mut src = StoreCoalitionSource::new(&store, vec![0]);
        let inst = [1u32, 2, 0, 1];
        // Coalition {1, 2} does not include attr 0.
        assert_eq!(src.fetch(&inst, &[1, 2]), None);
        assert_eq!(src.hits(), 0);
    }

    #[test]
    fn cursor_rotates_over_samples() {
        let (_ctx, store) = setup();
        let mut src = StoreCoalitionSource::new(&store, vec![0]);
        let inst = [1u32, 2, 0, 1];
        let a = src.fetch(&inst, &[0]);
        let b = src.fetch(&inst, &[0]);
        assert!(a.is_some() && b.is_some());
        // The cursor advanced; with 60 samples the two fetches served
        // different indices (same proba values are possible, but the
        // cursor state must differ from the start).
        assert_ne!(src.cursors[0], 0);
    }

    #[test]
    fn empty_matched_always_misses() {
        let (_ctx, store) = setup();
        let mut src = StoreCoalitionSource::new(&store, vec![]);
        assert_eq!(src.fetch(&[1, 2, 0, 1], &[0]), None);
    }
}
