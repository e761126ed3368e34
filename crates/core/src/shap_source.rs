//! KernelSHAP coalition source backed by the perturbation store.
//!
//! Algorithm 3 (lines 9–13): when KernelSHAP samples a random feature
//! subset `s` that is a *superset* of some materialized frequent itemset
//! `f`, the stored perturbations of `f` can be scanned for ones whose codes
//! also agree with the instance on `s \ attrs(f)` — those are exactly
//! perturbations with coalition `s` frozen at the instance's values, and
//! their classifier labels come for free.
//!
//! A tuple fetches dozens of coalitions against the same few stored
//! samples, so [`StoreCoalitionSource`] works on **agreement masks**: each
//! matched itemset's attributes as a bit mask, and, computed the first time
//! its entry is scanned and kept for the rest of the tuple, the mask of
//! attributes where each stored sample agrees with the tuple. A fetch
//! builds the coalition's mask once; `attrs(f) ⊆ s` and `s ⊆ agree(sample)`
//! are then word ANDs instead of per-attribute searches and code compares,
//! and an entry whose samples all agree on fewer attributes than `s` holds
//! is passed over without a walk. Masks are `n_attrs.div_ceil(64)` words,
//! so one path serves any schema width.

use shahin_explain::{CoalitionSample, CoalitionSource, LabeledSample};

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
    /// The agreement masks below, all against one tuple.
    masks: AgreementMasks,
}

/// Attribute sets as bit masks of `words` `u64`s each, so one fetch tests
/// `attrs(f) ⊆ coalition ⊆ agree(sample)` with word ANDs whatever the
/// schema's width.
#[derive(Default)]
struct AgreementMasks {
    /// The tuple's codes the masks were computed against (`None` before
    /// the first fetch); a fetch for other codes starts over.
    inst: Option<Vec<u32>>,
    /// `n_attrs.div_ceil(64)`.
    words: usize,
    /// Each matched itemset's attributes (indexed like `matched`).
    itemsets: Vec<u64>,
    /// Per matched entry, once first scanned: where its samples' masks
    /// start in `agree`, and the most attributes any one of them agrees on.
    entries: Vec<Option<(usize, u32)>>,
    /// Per scanned entry, per sample, the attributes on which the sample
    /// agrees with `inst`.
    agree: Vec<u64>,
    /// Scratch: the coalition being fetched.
    coalition: Vec<u64>,
}

/// True if every bit of `a` is set in `b`.
#[inline]
fn subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| x & !y == 0)
}

#[inline]
fn set_bit(mask: &mut [u64], attr: usize) {
    mask[attr / 64] |= 1 << (attr % 64);
}

fn count_ones(mask: &[u64]) -> u32 {
    mask.iter().map(|w| w.count_ones()).sum()
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
            masks: AgreementMasks::default(),
        }
    }

    /// Number of coalition fetches served from the store.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Computes the matched itemsets' masks for the tuple with `inst_codes`
    /// and forgets every agreement mask.
    fn start_tuple(&mut self, inst_codes: &[u32]) {
        let words = inst_codes.len().div_ceil(64).max(1);
        let m = &mut self.masks;
        m.inst = Some(inst_codes.to_vec());
        m.words = words;
        m.itemsets = vec![0; self.matched.len() * words];
        for (mask, &id) in m.itemsets.chunks_exact_mut(words).zip(&self.matched) {
            for item in self.store.itemset(id).items() {
                set_bit(mask, item.attr as usize);
            }
        }
        m.entries = vec![None; self.matched.len()];
        m.agree.clear();
        m.coalition = vec![0; words];
    }
}

impl CoalitionSource for StoreCoalitionSource<'_> {
    fn fetch(&mut self, inst_codes: &[u32], coalition: &[u16]) -> Option<f64> {
        if self.masks.inst.as_deref() != Some(inst_codes) {
            self.start_tuple(inst_codes);
        }
        let m = &mut self.masks;
        let w = m.words;
        m.coalition.fill(0);
        for &a in coalition {
            set_bit(&mut m.coalition, a as usize);
        }
        let size = count_ones(&m.coalition);
        for (mi, &id) in self.matched.iter().enumerate() {
            if !subset(&m.itemsets[mi * w..(mi + 1) * w], &m.coalition) {
                continue;
            }
            let samples = self.store.samples(id);
            if samples.is_empty() {
                continue;
            }
            let (first, most) = *m.entries[mi].get_or_insert_with(|| {
                let first = m.agree.len();
                let mut most = 0;
                for s in samples {
                    let at = m.agree.len();
                    m.agree.resize(at + w, 0);
                    let agree = &mut m.agree[at..];
                    let words = s.codes.chunks(64).zip(inst_codes.chunks(64));
                    for (word, (codes, inst)) in agree.iter_mut().zip(words) {
                        // Branchless: whether a code agrees is a coin flip.
                        *word = codes
                            .iter()
                            .zip(inst)
                            .enumerate()
                            .fold(0, |acc, (j, (c, t))| acc | u64::from(c == t) << j);
                    }
                    most = most.max(count_ones(agree));
                }
                (first, most)
            });
            // Walk `max_scan` samples round-robin from the cursor, leaving
            // it just past a hit, or `max_scan` further on after a miss. A
            // coalition wider than every sample's agreement is a miss
            // without the walk (KernelSHAP's many near-full coalitions).
            let len = samples.len();
            let scan = len.min(self.max_scan);
            if size > most {
                self.cursors[mi] = (self.cursors[mi] + scan) % len;
                continue;
            }
            let mut idx = self.cursors[mi];
            for _ in 0..scan {
                let at = first + idx * w;
                let hit = subset(&m.coalition, &m.agree[at..at + w]);
                let sample = idx;
                idx = if idx + 1 == len { 0 } else { idx + 1 };
                if hit {
                    self.cursors[mi] = idx;
                    self.hits += 1;
                    return Some(samples[sample].proba);
                }
            }
            self.cursors[mi] = idx;
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
    use shahin_fim::{Item, Itemset};
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

    /// The per-attribute scan the agreement masks replaced, kept as the
    /// oracle: binary-search each itemset's attributes in the coalition,
    /// then compare stored samples code by code.
    struct ScanOracle<'a> {
        store: &'a PerturbationStore,
        matched: Vec<u32>,
        cursors: Vec<usize>,
        hits: u64,
    }

    impl ScanOracle<'_> {
        fn fetch(&mut self, inst_codes: &[u32], coalition: &[u16]) -> Option<f64> {
            for (mi, &id) in self.matched.iter().enumerate() {
                let f = self.store.itemset(id);
                let covered = f
                    .items()
                    .iter()
                    .all(|it| coalition.binary_search(&it.attr).is_ok());
                if f.len() > coalition.len() || !covered {
                    continue;
                }
                let samples = self.store.samples(id);
                if samples.is_empty() {
                    continue;
                }
                let start = self.cursors[mi];
                let scan = samples.len().min(64);
                for step in 0..scan {
                    let idx = (start + step) % samples.len();
                    let s = &samples[idx];
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

    /// `k` distinct attributes below `n_attrs`.
    fn some_attrs(rng: &mut StdRng, n_attrs: usize, k: usize) -> Vec<usize> {
        use rand::seq::SliceRandom;
        let mut attrs: Vec<usize> = (0..n_attrs).collect();
        attrs.shuffle(rng);
        attrs.truncate(k);
        attrs
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// On random stores (some entries empty, some over the 64-sample
        /// scan cap), random matched lists and random fetch sequences —
        /// coalitions that do and do not cover an itemset, schemas of one
        /// and of two mask words, and a switch to a second tuple midway —
        /// the mask fetch answers exactly as the scan, cursor for cursor.
        #[test]
        fn mask_fetch_replays_the_attribute_scan(seed in 0u64..u64::MAX, width in 0usize..3) {
            let n_attrs = [5, 42, 70][width];
            let mut rng = StdRng::seed_from_u64(seed);
            let tuple = |rng: &mut StdRng| -> Vec<u32> {
                (0..n_attrs).map(|_| rng.gen_range(0..2)).collect()
            };
            let inst = tuple(&mut rng);
            // Itemsets mostly on the tuple's codes; some it does not contain.
            let itemsets: Vec<Itemset> = (0..rng.gen_range(1..8))
                .map(|_| {
                    let len = rng.gen_range(1..=3);
                    let items = some_attrs(&mut rng, n_attrs, len)
                        .into_iter()
                        .map(|a| Item::new(a, inst[a] ^ u32::from(rng.gen_bool(0.1))))
                        .collect();
                    Itemset::new(items)
                })
                .collect();
            let mut store = PerturbationStore::new(itemsets.clone(), usize::MAX);
            for (id, set) in itemsets.iter().enumerate() {
                for _ in 0..rng.gen_range(0..150) {
                    let mut codes = tuple(&mut rng);
                    for it in set.items() {
                        codes[it.attr as usize] = it.code;
                    }
                    let proba = rng.gen::<f64>();
                    store.insert(id as u32, LabeledSample { codes: codes.into_boxed_slice(), proba });
                }
            }
            let mut matched: Vec<u32> = (0..itemsets.len() as u32).collect();
            matched.retain(|_| rng.gen_bool(0.8));
            rand::seq::SliceRandom::shuffle(&mut matched[..], &mut rng);

            let mut masks = StoreCoalitionSource::new(&store, matched.clone());
            let mut oracle = ScanOracle {
                store: &store,
                cursors: vec![0; matched.len()],
                matched,
                hits: 0,
            };
            let second = tuple(&mut rng);
            for step in 0..80 {
                let codes = if step < 60 { &inst } else { &second };
                // An itemset's attributes plus a few more, a few random
                // attributes, or all but one (KernelSHAP's extremes).
                let mut coalition: Vec<usize> = match rng.gen_range(0..3) {
                    0 => {
                        let set = &itemsets[rng.gen_range(0..itemsets.len())];
                        let extra = rng.gen_range(0..4);
                        set.items()
                            .iter()
                            .map(|it| it.attr as usize)
                            .chain(some_attrs(&mut rng, n_attrs, extra))
                            .collect()
                    }
                    1 => {
                        let k = rng.gen_range(1..4);
                        some_attrs(&mut rng, n_attrs, k)
                    }
                    _ => some_attrs(&mut rng, n_attrs, n_attrs - 1),
                };
                coalition.sort_unstable();
                coalition.dedup();
                let coalition: Vec<u16> = coalition.into_iter().map(|a| a as u16).collect();
                let want = oracle.fetch(codes, &coalition);
                let got = masks.fetch(codes, &coalition);
                proptest::prop_assert_eq!(got, want, "fetch {} of {:?}", step, coalition);
                proptest::prop_assert_eq!(masks.hits(), oracle.hits);
                proptest::prop_assert_eq!(&masks.cursors, &oracle.cursors);
            }
        }
    }
}
