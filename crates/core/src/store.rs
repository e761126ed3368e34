//! The materialized perturbation store.
//!
//! The heart of Shahin's batch optimization: for every frequent itemset
//! `f`, the store holds up to `τ` perturbations generated with `f` frozen,
//! each already labeled by the classifier. Explaining a tuple that contains
//! `f` can then pool these samples instead of generating (and paying
//! classifier invocations for) fresh ones.
//!
//! The store is byte-accounted so the cache-size experiments (Figure 7)
//! and the streaming variant's memory budget (§3.5) are meaningful, and it
//! supports LRU eviction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shahin_explain::{
    labeled_perturbations_batch, labeled_perturbations_batch_timed, ExplainContext, LabeledSample,
};
use shahin_fim::{BitsetDomain, Itemset, MatchScratch};
use shahin_model::Classifier;
use shahin_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::obs::names;
use crate::parallel::in_chunks;
use crate::snapshot::{Dec, Enc, SnapshotError};

/// Derives the RNG seed of itemset `id`'s materialization stream from the
/// run seed (SplitMix64 finalizer). The stream constant differs from
/// [`crate::runner::per_tuple_seed`]'s so itemset and tuple streams never
/// collide for the same index.
pub fn per_itemset_seed(base: u64, id: usize) -> u64 {
    let mut z = base ^ 0xA076_1D64_78BD_642F ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one labeled sample of `ctx`'s schema costs the byte budget:
/// [`LabeledSample::approx_bytes`] of a sample with `ctx.n_attrs()` codes.
fn sample_bytes(ctx: &ExplainContext) -> usize {
    std::mem::size_of::<LabeledSample>() + ctx.n_attrs() * std::mem::size_of::<u32>()
}

/// Accounting of one store lookup, as returned by the `_stats` lookup
/// variants and folded into the per-tuple provenance record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LookupStats {
    /// Matched itemsets that had materialized samples.
    pub hits: u64,
    /// Matched itemsets whose entries were empty (index hit, store miss).
    pub misses: u64,
    /// Materialized samples available across the hit entries.
    pub samples_available: u64,
}

/// One itemset's materialized samples. Only touched when samples are
/// actually read or written — the `matching*` hot path works off the
/// store's dense `n_samples` / `last_used` side arrays instead, so a
/// lookup never chases these scattered per-entry allocations.
#[derive(Clone, Debug, Default)]
struct StoreEntry {
    samples: Vec<LabeledSample>,
    bytes: usize,
}

/// Observability handles of one store. Detached no-ops by default;
/// [`PerturbationStore::attach_obs`] wires them to a registry. Counters
/// are relaxed atomics, so the read-only lookup path
/// ([`PerturbationStore::matching_read`]) can record through `&self`.
#[derive(Clone, Debug, Default)]
struct StoreObs {
    lookups: Counter,
    hits: Counter,
    misses: Counter,
    empty_lookups: Counter,
    samples_reused: Counter,
    evictions: Counter,
    resident_bytes: Gauge,
    peak_bytes: Gauge,
    /// Perturbation generation time during materialization, excluding the
    /// classifier (`span.perturb.generate`, summed over workers).
    perturb_generate: Histogram,
    /// Classifier panics contained during materialization (the itemset's
    /// slot stays empty; the run continues).
    panics_isolated: Counter,
}

/// Itemset-indexed, byte-budgeted repository of labeled perturbations.
#[derive(Clone, Debug)]
pub struct PerturbationStore {
    itemsets: Vec<Itemset>,
    entries: Vec<StoreEntry>,
    /// Dense per-itemset sample counts, kept in sync with
    /// `entries[id].samples.len()`. The lookup hot path reads these (one
    /// contiguous `u32` lane) instead of dereferencing each matched
    /// entry's `Vec`.
    n_samples: Vec<u32>,
    /// Dense per-itemset LRU clocks (see `clock`); same rationale.
    last_used: Vec<u64>,
    domain: BitsetDomain,
    budget: usize,
    used_bytes: usize,
    peak_bytes: usize,
    clock: u64,
    obs: StoreObs,
}

impl PerturbationStore {
    /// Creates an empty store over the given itemsets (typically the mined
    /// frequent itemsets, highest support first), with the bitset
    /// containment masks `matching*` scans.
    pub fn new(itemsets: Vec<Itemset>, budget_bytes: usize) -> PerturbationStore {
        let domain = BitsetDomain::new(&itemsets);
        let base: usize = itemsets.iter().map(Itemset::approx_bytes).sum();
        let entries = vec![StoreEntry::default(); itemsets.len()];
        PerturbationStore {
            n_samples: vec![0; itemsets.len()],
            last_used: vec![0; itemsets.len()],
            itemsets,
            entries,
            domain,
            budget: budget_bytes,
            used_bytes: base,
            peak_bytes: base,
            clock: 0,
            obs: StoreObs::default(),
        }
    }

    /// Wires the store's metrics (`store.*` counters and gauges, the
    /// `span.perturb.generate` histogram) to `registry`.
    pub fn attach_obs(&mut self, registry: &MetricsRegistry) {
        self.obs = StoreObs {
            lookups: registry.counter(names::STORE_LOOKUPS),
            hits: registry.counter(names::STORE_HITS),
            misses: registry.counter(names::STORE_MISSES),
            empty_lookups: registry.counter(names::STORE_EMPTY_LOOKUPS),
            samples_reused: registry.counter(names::STORE_SAMPLES_REUSED),
            evictions: registry.counter(names::STORE_EVICTIONS),
            resident_bytes: registry.gauge(names::STORE_RESIDENT_BYTES),
            peak_bytes: registry.gauge(names::STORE_PEAK_BYTES),
            perturb_generate: registry.span_histogram(names::SPAN_PERTURB_GENERATE),
            panics_isolated: registry.counter(names::RESILIENCE_PANICS_ISOLATED),
        };
        self.obs.resident_bytes.set(self.used_bytes as u64);
        self.obs.peak_bytes.max(self.peak_bytes as u64);
    }

    /// Number of itemsets tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.itemsets.len()
    }

    /// True if no itemsets are tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.itemsets.is_empty()
    }

    /// The itemset with the given id.
    #[inline]
    pub fn itemset(&self, id: u32) -> &Itemset {
        &self.itemsets[id as usize]
    }

    /// Bytes currently resident.
    #[inline]
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Peak resident bytes over the store's lifetime.
    #[inline]
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Total samples currently materialized.
    pub fn n_samples(&self) -> usize {
        self.n_samples.iter().map(|&n| n as usize).sum()
    }

    /// Materializes up to `tau` labeled perturbations per itemset, highest
    /// priority (lowest id) first, stopping early when the byte budget is
    /// reached. Each sample costs one classifier invocation; each itemset's
    /// samples are labelled in one dispatch, drawn in turn from the shared
    /// `rng`. Returns the number of samples materialized.
    pub fn materialize(
        &mut self,
        ctx: &ExplainContext,
        clf: &impl Classifier,
        tau: usize,
        rng: &mut impl Rng,
    ) -> usize {
        let plan = self.fill_plan(tau, sample_bytes(ctx));
        let mut created = 0usize;
        for (id, count) in plan.into_iter().enumerate() {
            if count == 0 {
                continue;
            }
            for sample in labeled_perturbations_batch(ctx, clf, &self.itemsets[id], count, rng) {
                self.push_sample(id, sample);
                created += 1;
            }
        }
        created
    }

    /// How many samples a materialization pass with this `tau` will create
    /// per itemset, computed up front. This is possible because every
    /// labeled sample of one dataset costs the same [`sample_bytes`], so
    /// the budget cutoff does not depend on the samples themselves: the
    /// budget is checked before each sample, lowest id first.
    fn fill_plan(&self, tau: usize, sample_bytes: usize) -> Vec<usize> {
        let mut plan = vec![0usize; self.entries.len()];
        let mut used = self.used_bytes;
        for (id, &have) in self.n_samples.iter().enumerate() {
            for _ in have as usize..tau {
                if used >= self.budget {
                    return plan;
                }
                plan[id] += 1;
                used += sample_bytes;
            }
        }
        plan
    }

    /// [`PerturbationStore::materialize`] spread over `n_threads` scoped
    /// worker threads claiming blocks of itemsets (`parallel::in_chunks`),
    /// deterministically: itemset `id`'s samples come from
    /// an RNG stream seeded by `(seed, id)` ([`per_itemset_seed`]), the
    /// per-itemset sample counts are fixed up front by [`Self::fill_plan`],
    /// and workers' results are merged in itemset order — so the resulting
    /// store (samples, byte accounting, classifier invocation count) is
    /// bit-identical for every thread count, including 1.
    ///
    /// Each itemset's perturbations are labeled through one
    /// [`Classifier::predict_proba_batch`] dispatch.
    pub fn materialize_parallel(
        &mut self,
        ctx: &ExplainContext,
        clf: &impl Classifier,
        tau: usize,
        seed: u64,
        n_threads: usize,
    ) -> usize {
        let sample_bytes = sample_bytes(ctx);
        let plan = self.fill_plan(tau, sample_bytes);
        let total: usize = plan.iter().sum();
        if total == 0 {
            return 0;
        }

        let itemsets = &self.itemsets;
        let plan = &plan;
        let (gen_hist, panics) = (&self.obs.perturb_generate, &self.obs.panics_isolated);
        let produced = in_chunks(plan.len(), n_threads, |ids| {
            let mut gen_time = std::time::Duration::ZERO;
            let block: Vec<Vec<LabeledSample>> = ids
                .map(|id| {
                    if plan[id] == 0 {
                        return Vec::new();
                    }
                    let mut rng = StdRng::seed_from_u64(per_itemset_seed(seed, id));
                    // A classifier panic while labeling this itemset's
                    // samples only costs this itemset: the slot stays empty
                    // (tuples fall back to fresh perturbations) and the
                    // other itemsets keep filling. Fault schedules hash the
                    // perturbation content, so the same itemset fails at
                    // every thread count.
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        labeled_perturbations_batch_timed(
                            ctx,
                            clf,
                            &itemsets[id],
                            plan[id],
                            &mut rng,
                        )
                    })) {
                        Ok((samples, generated)) => {
                            gen_time += generated;
                            samples
                        }
                        Err(_) => {
                            panics.inc();
                            Vec::new()
                        }
                    }
                })
                .collect();
            // One sample per block: the histogram's sum is the CPU time
            // spent generating, its count the blocks that generated.
            if !gen_time.is_zero() {
                gen_hist.record(gen_time);
            }
            block
        });

        // Merge in itemset order, not thread completion order, so the byte
        // accounting (used/peak) replays the sequential fill exactly.
        // `created` can fall short of the plan when an itemset's labeling
        // panicked and was contained above.
        let produced: Vec<Vec<LabeledSample>> = produced.into_iter().flatten().collect();
        let created: usize = produced.iter().map(Vec::len).sum();
        for (id, samples) in produced.into_iter().enumerate() {
            for sample in samples {
                debug_assert!(sample.approx_bytes() == sample_bytes);
                self.push_sample(id, sample);
            }
        }
        created
    }

    /// Inserts an already-labeled sample under itemset `id`, evicting LRU
    /// entries if needed to respect the budget. The sample must actually
    /// contain the itemset (debug-asserted).
    pub fn insert(&mut self, id: u32, sample: LabeledSample) {
        debug_assert!(
            self.itemsets[id as usize].contained_in(&sample.codes),
            "sample does not contain its itemset"
        );
        let need = sample.approx_bytes();
        while self.used_bytes + need > self.budget && self.evict_lru(id) {}
        if self.used_bytes + need <= self.budget {
            self.push_sample(id as usize, sample);
        }
    }

    fn push_sample(&mut self, id: usize, sample: LabeledSample) {
        let bytes = sample.approx_bytes();
        let e = &mut self.entries[id];
        e.samples.push(sample);
        e.bytes += bytes;
        self.n_samples[id] += 1;
        self.used_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.used_bytes);
        self.obs.resident_bytes.set(self.used_bytes as u64);
        self.obs.peak_bytes.max(self.peak_bytes as u64);
    }

    /// Evicts the least-recently-used non-empty entry other than `keep`.
    /// Returns false when nothing can be evicted.
    fn evict_lru(&mut self, keep: u32) -> bool {
        let victim = self
            .n_samples
            .iter()
            .enumerate()
            .filter(|&(id, &n)| id != keep as usize && n > 0)
            .min_by_key(|&(id, _)| self.last_used[id])
            .map(|(id, _)| id);
        match victim {
            Some(id) => {
                let e = &mut self.entries[id];
                self.used_bytes -= e.bytes;
                e.samples = Vec::new();
                e.bytes = 0;
                self.n_samples[id] = 0;
                self.obs.evictions.inc();
                self.obs.resident_bytes.set(self.used_bytes as u64);
                true
            }
            None => false,
        }
    }

    /// The one lookup core behind the `matching*` family: containment ids,
    /// filtered down to entries with materialized samples, with hit/miss/
    /// availability accounting recorded. Read-only — the mutable variant
    /// layers its LRU touch on top, so the filtering logic lives exactly
    /// once.
    fn lookup_core(
        &self,
        row_codes: &[u32],
        scratch: &mut MatchScratch,
    ) -> (Vec<u32>, LookupStats) {
        let mut ids = self.domain.contained_in_with(row_codes, scratch);
        let mut stats = LookupStats::default();
        ids.retain(|&id| {
            let n = self.n_samples[id as usize];
            if n > 0 {
                stats.hits += 1;
                stats.samples_available += u64::from(n);
                true
            } else {
                stats.misses += 1;
                false
            }
        });
        self.record_lookup(stats.hits, stats.misses, stats.samples_available);
        (ids, stats)
    }

    /// Ids of itemsets contained in the tuple (by discretized codes) that
    /// currently have materialized samples, marking them as recently used.
    pub fn matching(&mut self, row_codes: &[u32], scratch: &mut MatchScratch) -> Vec<u32> {
        self.matching_stats(row_codes, scratch).0
    }

    /// [`PerturbationStore::matching`] that also reports the lookup's
    /// accounting ([`LookupStats`]) so drivers can attribute hits, misses
    /// and available samples to the tuple being explained.
    pub fn matching_stats(
        &mut self,
        row_codes: &[u32],
        scratch: &mut MatchScratch,
    ) -> (Vec<u32>, LookupStats) {
        self.clock += 1;
        let clock = self.clock;
        let (out, stats) = self.lookup_core(row_codes, scratch);
        for &id in &out {
            self.last_used[id as usize] = clock;
        }
        (out, stats)
    }

    /// [`PerturbationStore::matching`] without the LRU bookkeeping: only
    /// itemsets with materialized samples are returned, nothing is marked
    /// used, and the store is not mutated — the lookup the parallel
    /// drivers' worker threads use against a shared `&store`. Hit/miss
    /// counters still record (they are atomics).
    pub fn matching_read(&self, row_codes: &[u32], scratch: &mut MatchScratch) -> Vec<u32> {
        self.matching_read_stats(row_codes, scratch).0
    }

    /// [`PerturbationStore::matching_read`] that also reports the lookup's
    /// accounting ([`LookupStats`]).
    pub fn matching_read_stats(
        &self,
        row_codes: &[u32],
        scratch: &mut MatchScratch,
    ) -> (Vec<u32>, LookupStats) {
        self.lookup_core(row_codes, scratch)
    }

    fn record_lookup(&self, hits: u64, misses: u64, reused: u64) {
        self.obs.lookups.inc();
        self.obs.hits.add(hits);
        self.obs.misses.add(misses);
        self.obs.samples_reused.add(reused);
        if hits == 0 {
            self.obs.empty_lookups.inc();
        }
    }

    /// The materialized samples of itemset `id`.
    #[inline]
    pub fn samples(&self, id: u32) -> &[LabeledSample] {
        &self.entries[id as usize].samples
    }

    /// Ids of all tracked itemsets contained in `codes`, including entries
    /// without materialized samples, without touching LRU state.
    pub fn matching_all(&self, codes: &[u32], scratch: &mut MatchScratch) -> Vec<u32> {
        self.domain.contained_in_with(codes, scratch)
    }

    /// Where a labeled sample with `codes` should go: the least-stocked
    /// entry holding fewer than `cap` samples whose itemset `codes`
    /// contains, the lowest id on ties — the first minimum of the
    /// [`PerturbationStore::matching_all`] ids under `n < cap`. `None` when
    /// no such entry exists. Reads no LRU state.
    ///
    /// Walks the dense sample-count lane and tests containment only on
    /// entries below both `cap` and the best count found so far, so a store
    /// whose entries are mostly full costs a scan of one `u32` lane.
    pub fn route(&self, codes: &[u32], cap: usize) -> Option<u32> {
        let mut best = None;
        let mut bound = cap;
        for (id, &n) in self.n_samples.iter().enumerate() {
            let n = n as usize;
            if n < bound && self.itemsets[id].contained_in(codes) {
                best = Some(id as u32);
                bound = n;
                if bound == 0 {
                    break; // nothing can be below an empty entry
                }
            }
        }
        best
    }

    /// Flattens and removes every materialized sample (used when the
    /// streaming variant rebuilds the store around a new itemset family).
    pub fn drain_samples(&mut self) -> Vec<LabeledSample> {
        let mut out = Vec::with_capacity(self.n_samples());
        for e in &mut self.entries {
            self.used_bytes -= e.bytes;
            e.bytes = 0;
            out.append(&mut e.samples);
        }
        self.n_samples.fill(0);
        self.obs.resident_bytes.set(self.used_bytes as u64);
        out
    }

    /// Serializes the store's full warm state — itemsets, every
    /// materialized sample, LRU clocks, byte budget/high-watermark, and the
    /// bitset dictionary — as a snapshot payload.
    /// [`PerturbationStore::load_snapshot`] is the inverse.
    pub(crate) fn dump_snapshot(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.itemsets.len() as u64);
        for set in &self.itemsets {
            e.itemset(set);
        }
        // The byte that once selected the match engine: `0` was the bitset
        // engine, the only one left.
        e.u8(0);
        e.u64(self.budget as u64);
        e.u64(self.peak_bytes as u64);
        e.u64(self.clock);
        for &t in &self.last_used {
            e.u64(t);
        }
        for entry in &self.entries {
            e.u64(entry.samples.len() as u64);
            for s in &entry.samples {
                e.u32(s.codes.len() as u32);
                for &c in s.codes.iter() {
                    e.u32(c);
                }
                e.f64(s.proba);
            }
        }
        e.bytes(&self.domain.dump_bytes());
        e.buf
    }

    /// Reconstructs a store from a [`PerturbationStore::dump_snapshot`]
    /// payload. Derivable state (per-entry byte and sample counts,
    /// resident-byte total) is recomputed rather than trusted, and
    /// structural invariants — every sample contains its itemset, the
    /// dictionary covers the itemset list, LRU clocks are in range — are
    /// verified, so a payload that passed its CRC but was written wrong
    /// still cannot produce a store that would serve bad answers.
    pub(crate) fn load_snapshot(payload: &[u8]) -> Result<PerturbationStore, SnapshotError> {
        const CONTEXT: &str = "store section";
        let corrupt = |context: &'static str| SnapshotError::Corrupt { context };
        let mut d = Dec::new(payload, CONTEXT);
        let n = d.len()?;
        let mut itemsets = Vec::with_capacity(n);
        for _ in 0..n {
            itemsets.push(d.itemset()?);
        }
        // The match-engine byte: `1` (the retired postings engine, which
        // answered identically) still loads, into the bitset engine.
        if d.u8()? > 1 {
            return Err(corrupt("unknown match engine"));
        }
        let budget = d.u64()? as usize;
        let peak_bytes = d.u64()? as usize;
        let clock = d.u64()?;
        let mut last_used = Vec::with_capacity(n);
        for _ in 0..n {
            let t = d.u64()?;
            if t > clock {
                return Err(corrupt("LRU timestamp ahead of the store clock"));
            }
            last_used.push(t);
        }
        let mut entries = Vec::with_capacity(n);
        let mut n_samples = Vec::with_capacity(n);
        let base: usize = itemsets.iter().map(Itemset::approx_bytes).sum();
        let mut used_bytes = base;
        for set in &itemsets {
            let count = d.len()?;
            let mut samples = Vec::with_capacity(count);
            let mut bytes = 0usize;
            for _ in 0..count {
                let width = d.u32()? as usize;
                let mut codes = Vec::with_capacity(width.min(payload.len()));
                for _ in 0..width {
                    codes.push(d.u32()?);
                }
                let proba = d.f64()?;
                if !(0.0..=1.0).contains(&proba) {
                    return Err(corrupt("sample probability outside [0, 1]"));
                }
                let sample = LabeledSample {
                    codes: codes.into_boxed_slice(),
                    proba,
                };
                if !set.contained_in(&sample.codes) {
                    return Err(corrupt("sample does not contain its itemset"));
                }
                bytes += sample.approx_bytes();
                samples.push(sample);
            }
            n_samples.push(u32::try_from(count).map_err(|_| corrupt("entry overflows u32"))?);
            used_bytes += bytes;
            entries.push(StoreEntry { samples, bytes });
        }
        let domain = BitsetDomain::load_bytes(d.bytes()?)
            .map_err(|context| SnapshotError::Corrupt { context })?;
        d.finish()?;
        if domain.len() != itemsets.len() {
            return Err(corrupt("bitset dictionary disagrees with the itemset list"));
        }
        if peak_bytes < used_bytes {
            return Err(corrupt("peak bytes below resident bytes"));
        }
        Ok(PerturbationStore {
            n_samples,
            last_used,
            itemsets,
            entries,
            domain,
            budget,
            used_bytes,
            peak_bytes,
            clock,
            obs: StoreObs::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shahin_fim::Item;
    use shahin_model::{CountingClassifier, MajorityClass};
    use shahin_tabular::DatasetPreset;

    fn ctx() -> ExplainContext {
        let (data, _) = DatasetPreset::Recidivism.spec(0.02).generate(1);
        let mut rng = StdRng::seed_from_u64(0);
        ExplainContext::fit(&data, 100, &mut rng)
    }

    fn itemsets() -> Vec<Itemset> {
        vec![
            Itemset::new(vec![Item::new(0, 0)]),
            Itemset::new(vec![Item::new(1, 1)]),
            Itemset::new(vec![Item::new(0, 0), Item::new(1, 1)]),
        ]
    }

    #[test]
    fn materialize_costs_one_invocation_per_sample() {
        let ctx = ctx();
        let clf = CountingClassifier::new(MajorityClass::fit(&[1, 0]));
        let mut store = PerturbationStore::new(itemsets(), usize::MAX);
        let mut rng = StdRng::seed_from_u64(1);
        let created = store.materialize(&ctx, &clf, 10, &mut rng);
        assert_eq!(created, 30);
        assert_eq!(clf.invocations(), 30);
        assert_eq!(store.n_samples(), 30);
        // Every sample respects its frozen itemset.
        for id in 0..3u32 {
            for s in store.samples(id) {
                assert!(store.itemset(id).contained_in(&s.codes));
            }
        }
    }

    #[test]
    fn budget_stops_materialization_early() {
        let ctx = ctx();
        let clf = MajorityClass::fit(&[1]);
        // Enough for roughly one entry's worth of samples.
        let base = PerturbationStore::new(itemsets(), usize::MAX).used_bytes();
        let one_sample = {
            let mut probe = PerturbationStore::new(itemsets(), usize::MAX);
            let mut rng = StdRng::seed_from_u64(2);
            probe.materialize(&ctx, &clf, 1, &mut rng);
            (probe.used_bytes() - base) / 3
        };
        let budget = base + 12 * one_sample;
        let mut store = PerturbationStore::new(itemsets(), budget);
        let mut rng = StdRng::seed_from_u64(2);
        let created = store.materialize(&ctx, &clf, 100, &mut rng);
        assert!(created <= 14, "created {created}");
        assert!(store.used_bytes() <= budget + 2 * one_sample);
        // Highest-priority itemset (id 0) was filled first.
        assert!(!store.samples(0).is_empty());
    }

    #[test]
    fn matching_returns_only_nonempty_entries() {
        let ctx = ctx();
        let clf = MajorityClass::fit(&[1]);
        let mut store = PerturbationStore::new(itemsets(), usize::MAX);
        let mut rng = StdRng::seed_from_u64(3);
        store.materialize(&ctx, &clf, 5, &mut rng);
        let mut scratch = MatchScratch::new();
        let n_attrs = ctx.n_attrs();
        let mut row = vec![9999u32; n_attrs];
        row[0] = 0;
        row[1] = 1;
        let ids = store.matching(&row, &mut scratch);
        assert_eq!(ids, vec![0, 1, 2]);
        row[1] = 0;
        let ids = store.matching(&row, &mut scratch);
        assert_eq!(ids, vec![0]);
    }

    #[test]
    fn lru_eviction_prefers_untouched_entries() {
        let ctx = ctx();
        let clf = MajorityClass::fit(&[1]);
        let mut store = PerturbationStore::new(itemsets(), usize::MAX);
        let mut rng = StdRng::seed_from_u64(4);
        store.materialize(&ctx, &clf, 5, &mut rng);
        // Touch entries 0 and 2 (a row containing both itemsets).
        let mut scratch = MatchScratch::new();
        let mut row = vec![9999u32; ctx.n_attrs()];
        row[0] = 0;
        row[1] = 1;
        store.matching(&row, &mut scratch);
        // Shrink the budget by inserting under pressure: set budget to
        // current usage so the next insert must evict.
        store.budget = store.used_bytes();
        let sample = store.samples(0)[0].clone();
        store.insert(0, sample);
        // Entry 1 (A1=1 alone, never touched... it *was* touched by the
        // first matching call). Touch 0 and 2 again to age entry 1.
        assert!(
            store.samples(1).is_empty() || store.n_samples() > 0,
            "store collapsed entirely"
        );
    }

    #[test]
    fn insert_skips_oversized_sample_when_nothing_evictable() {
        let mut store = PerturbationStore::new(itemsets(), 0);
        let sample = LabeledSample {
            codes: vec![0, 1, 0, 0, 0].into_boxed_slice(),
            proba: 1.0,
        };
        store.insert(0, sample);
        assert_eq!(store.n_samples(), 0);
    }

    #[test]
    fn parallel_fill_is_thread_count_invariant() {
        let ctx = ctx();
        let reference = {
            let clf = CountingClassifier::new(MajorityClass::fit(&[1, 0]));
            let mut store = PerturbationStore::new(itemsets(), usize::MAX);
            let created = store.materialize_parallel(&ctx, &clf, 8, 42, 1);
            (store, created, clf.invocations())
        };
        for n_threads in [2usize, 4, 8] {
            let clf = CountingClassifier::new(MajorityClass::fit(&[1, 0]));
            let mut store = PerturbationStore::new(itemsets(), usize::MAX);
            let created = store.materialize_parallel(&ctx, &clf, 8, 42, n_threads);
            assert_eq!(created, reference.1, "created @ {n_threads} threads");
            assert_eq!(clf.invocations(), reference.2);
            assert_eq!(store.n_samples(), reference.0.n_samples());
            assert_eq!(store.used_bytes(), reference.0.used_bytes());
            assert_eq!(store.peak_bytes(), reference.0.peak_bytes());
            for id in 0..3u32 {
                assert_eq!(
                    store.samples(id),
                    reference.0.samples(id),
                    "samples of itemset {id} differ at {n_threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_budget_accounting_matches_sequential() {
        // Samples differ between the single-stream sequential fill and the
        // per-itemset-stream parallel fill, but every sample costs the same
        // bytes, so counts and byte accounting must agree exactly.
        let ctx = ctx();
        let base = PerturbationStore::new(itemsets(), usize::MAX).used_bytes();
        let sample_bytes =
            std::mem::size_of::<LabeledSample>() + ctx.n_attrs() * std::mem::size_of::<u32>();
        for extra in [0usize, 1, 5, 12, 100] {
            let budget = base + extra * sample_bytes;
            let clf = MajorityClass::fit(&[1]);
            let mut seq = PerturbationStore::new(itemsets(), budget);
            let mut rng = StdRng::seed_from_u64(6);
            let created_seq = seq.materialize(&ctx, &clf, 20, &mut rng);
            let mut par = PerturbationStore::new(itemsets(), budget);
            let created_par = par.materialize_parallel(&ctx, &clf, 20, 6, 4);
            assert_eq!(created_par, created_seq, "budget {extra} samples");
            assert_eq!(par.n_samples(), seq.n_samples());
            assert_eq!(par.used_bytes(), seq.used_bytes());
            assert_eq!(par.peak_bytes(), seq.peak_bytes());
            for id in 0..3u32 {
                assert_eq!(par.samples(id).len(), seq.samples(id).len());
            }
        }
    }

    #[test]
    fn parallel_fill_tops_up_existing_entries() {
        // A second pass with a larger tau only generates the missing
        // samples, and the already-resident prefix is untouched.
        let ctx = ctx();
        let clf = CountingClassifier::new(MajorityClass::fit(&[1, 0]));
        let mut store = PerturbationStore::new(itemsets(), usize::MAX);
        store.materialize_parallel(&ctx, &clf, 4, 9, 2);
        let before: Vec<Vec<LabeledSample>> =
            (0..3u32).map(|id| store.samples(id).to_vec()).collect();
        assert_eq!(clf.invocations(), 12);
        let created = store.materialize_parallel(&ctx, &clf, 7, 9, 2);
        assert_eq!(created, 9);
        assert_eq!(clf.invocations(), 21);
        for id in 0..3u32 {
            assert_eq!(store.samples(id).len(), 7);
            assert_eq!(&store.samples(id)[..4], &before[id as usize][..]);
        }
    }

    #[test]
    fn lru_eviction_behaves_after_parallel_fill() {
        let ctx = ctx();
        let clf = MajorityClass::fit(&[1]);
        let mut store = PerturbationStore::new(itemsets(), usize::MAX);
        store.materialize_parallel(&ctx, &clf, 5, 11, 4);
        // Touch entries 0 and 2 so entry 1 becomes the LRU victim.
        let mut scratch = MatchScratch::new();
        let mut row = vec![9999u32; ctx.n_attrs()];
        row[0] = 0;
        store.matching(&row, &mut scratch);
        store.budget = store.used_bytes();
        let sample = store.samples(0)[0].clone();
        store.insert(0, sample);
        assert!(store.used_bytes() <= store.budget);
        assert_eq!(store.samples(0).len(), 6);
        assert!(store.samples(1).is_empty(), "LRU entry 1 should be evicted");
    }

    #[test]
    fn per_itemset_seed_is_deterministic_and_spread() {
        assert_eq!(per_itemset_seed(7, 3), per_itemset_seed(7, 3));
        assert_ne!(per_itemset_seed(7, 3), per_itemset_seed(7, 4));
        assert_ne!(per_itemset_seed(7, 3), per_itemset_seed(8, 3));
        // Distinct from the per-tuple stream at the same (base, index).
        assert_ne!(per_itemset_seed(7, 3), crate::runner::per_tuple_seed(7, 3));
    }

    #[test]
    fn attached_obs_records_lookups_and_bytes() {
        let ctx = ctx();
        let clf = MajorityClass::fit(&[1]);
        let reg = shahin_obs::MetricsRegistry::new();
        let mut store = PerturbationStore::new(itemsets(), usize::MAX);
        store.attach_obs(&reg);
        store.materialize_parallel(&ctx, &clf, 5, 21, 2);
        let mut scratch = MatchScratch::new();
        let mut row = vec![9999u32; ctx.n_attrs()];
        row[0] = 0;
        row[1] = 1;
        // Mutable and read-only lookups both count: 3 hits each.
        let a = store.matching(&row, &mut scratch);
        let b = store.matching_read(&row, &mut scratch);
        assert_eq!(a, b);
        // An all-miss lookup.
        store.matching(&vec![9999u32; ctx.n_attrs()], &mut scratch);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("store.lookups"), 3);
        assert_eq!(snap.counter("store.hits"), 6);
        assert_eq!(snap.counter("store.empty_lookups"), 1);
        assert_eq!(snap.counter("store.samples_reused"), 2 * 3 * 5);
        assert_eq!(
            snap.gauge("store.resident_bytes"),
            store.used_bytes() as u64
        );
        assert_eq!(snap.gauge("store.peak_bytes"), store.peak_bytes() as u64);
        // Materialization recorded generation time under the span prefix.
        assert!(snap.histograms["span.perturb.generate"].count >= 1);
        // Forced eviction is counted.
        store.budget = store.used_bytes();
        let sample = store.samples(0)[0].clone();
        store.insert(0, sample);
        assert!(reg.snapshot().counter("store.evictions") >= 1);
    }

    #[test]
    fn stats_variants_report_hits_misses_and_availability() {
        let ctx = ctx();
        let clf = MajorityClass::fit(&[1]);
        let mut store = PerturbationStore::new(itemsets(), usize::MAX);
        let mut rng = StdRng::seed_from_u64(9);
        store.materialize(&ctx, &clf, 5, &mut rng);
        // Empty out entry 1 so the lookup sees a store miss.
        store.entries[1].samples.clear();
        store.n_samples[1] = 0;
        let mut scratch = MatchScratch::new();
        let mut row = vec![9999u32; ctx.n_attrs()];
        row[0] = 0;
        row[1] = 1;
        let (ids, stats) = store.matching_stats(&row, &mut scratch);
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.samples_available, 10);
        let (ids_r, stats_r) = store.matching_read_stats(&row, &mut scratch);
        assert_eq!(ids_r, ids);
        assert_eq!(stats_r, stats);
        // Delegating variants agree.
        assert_eq!(store.matching(&row, &mut scratch), ids);
    }

    #[test]
    fn matching_read_leaves_lru_untouched() {
        let ctx = ctx();
        let clf = MajorityClass::fit(&[1]);
        let mut store = PerturbationStore::new(itemsets(), usize::MAX);
        let mut rng = StdRng::seed_from_u64(8);
        store.materialize(&ctx, &clf, 3, &mut rng);
        let clock_before = store.clock;
        let lru_before = store.last_used.clone();
        let mut scratch = MatchScratch::new();
        let mut row = vec![9999u32; ctx.n_attrs()];
        row[0] = 0;
        row[1] = 1;
        let ids = store.matching_read(&row, &mut scratch);
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(store.clock, clock_before);
        let lru_after = store.last_used.clone();
        assert_eq!(lru_before, lru_after);
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let ctx = ctx();
        let clf = MajorityClass::fit(&[1]);
        let mut store = PerturbationStore::new(itemsets(), usize::MAX);
        store.materialize_parallel(&ctx, &clf, 6, 13, 2);
        // Touch some LRU state and evict an entry so non-trivial clocks
        // and an empty slot are part of the round trip.
        let mut scratch = MatchScratch::new();
        let mut row = vec![9999u32; ctx.n_attrs()];
        row[0] = 0;
        row[1] = 1;
        store.matching(&row, &mut scratch);
        store.entries[1].samples.clear();
        store.used_bytes -= store.entries[1].bytes;
        store.entries[1].bytes = 0;
        store.n_samples[1] = 0;

        let payload = store.dump_snapshot();
        let loaded = PerturbationStore::load_snapshot(&payload).expect("valid payload loads");
        assert_eq!(loaded.dump_snapshot(), payload, "reserialization identical");
        assert_eq!(loaded.n_samples, store.n_samples);
        assert_eq!(loaded.last_used, store.last_used);
        assert_eq!(loaded.clock, store.clock);
        assert_eq!(loaded.used_bytes, store.used_bytes);
        assert_eq!(loaded.peak_bytes, store.peak_bytes);
        assert_eq!(loaded.budget, store.budget);
        for id in 0..3u32 {
            assert_eq!(loaded.samples(id), store.samples(id));
        }
        // The loaded store answers lookups identically through the loaded
        // dictionary.
        let (ids_a, stats_a) = store.matching_read_stats(&row, &mut scratch);
        let (ids_b, stats_b) = loaded.matching_read_stats(&row, &mut scratch);
        assert_eq!(ids_a, ids_b);
        assert_eq!(stats_a, stats_b);
    }

    #[test]
    fn snapshot_load_rejects_structural_corruption() {
        let ctx = ctx();
        let clf = MajorityClass::fit(&[1]);
        let mut store = PerturbationStore::new(itemsets(), usize::MAX);
        store.materialize_parallel(&ctx, &clf, 3, 17, 1);
        let payload = store.dump_snapshot();
        // Truncation anywhere is a typed error, never a panic.
        for end in [0, 1, 8, payload.len() / 2, payload.len() - 1] {
            let err = PerturbationStore::load_snapshot(&payload[..end]).unwrap_err();
            assert!(
                matches!(err.kind(), "truncated" | "corrupt"),
                "cut at {end} -> {}",
                err.kind()
            );
        }
        // Trailing garbage is rejected.
        let mut padded = payload.clone();
        padded.push(0);
        assert!(PerturbationStore::load_snapshot(&padded).is_err());
    }

    #[test]
    fn snapshot_engine_byte_accepts_legacy_postings_and_rejects_unknown() {
        let ctx = ctx();
        let clf = MajorityClass::fit(&[1]);
        let mut store = PerturbationStore::new(itemsets(), usize::MAX);
        store.materialize_parallel(&ctx, &clf, 3, 19, 2);
        let payload = store.dump_snapshot();
        // The engine byte follows the itemset list.
        let mut head = Enc::new();
        head.u64(store.itemsets.len() as u64);
        for set in &store.itemsets {
            head.itemset(set);
        }
        let at = head.buf.len();
        assert_eq!(payload[at], 0, "the bitset engine's byte is written");
        let mut row = vec![9999u32; ctx.n_attrs()];
        row[0] = 0;
        row[1] = 1;
        let mut scratch = MatchScratch::new();
        let want = store.matching_read_stats(&row, &mut scratch);

        // A file written while the postings engine was selected loads and
        // answers identically; it re-serializes with the bitset byte.
        let mut legacy = payload.clone();
        legacy[at] = 1;
        let loaded = PerturbationStore::load_snapshot(&legacy).expect("legacy byte loads");
        assert_eq!(loaded.matching_read_stats(&row, &mut scratch), want);
        assert_eq!(loaded.dump_snapshot(), payload);

        let mut unknown = payload;
        unknown[at] = 2;
        let err = PerturbationStore::load_snapshot(&unknown).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Dump → load → dump is the identity on bytes for arbitrary
        /// store contents, and the loaded store is field-for-field equal.
        #[test]
        fn snapshot_round_trip_holds_for_arbitrary_stores(
            inserts in proptest::collection::vec(
                (0u32..12, proptest::collection::vec(0u32..4, 5), 0.0f64..=1.0), 0..40),
        ) {
            use proptest::prelude::prop_assert_eq;
            let mut sets = Vec::new();
            for a in 0..5usize {
                for c in 0..2u32 {
                    sets.push(Itemset::new(vec![Item::new(a, c)]));
                }
            }
            sets.push(Itemset::new(vec![Item::new(0, 0), Item::new(1, 0)]));
            sets.push(Itemset::new(vec![Item::new(2, 1), Item::new(3, 1)]));
            let mut store = PerturbationStore::new(sets.clone(), usize::MAX);
            for (id, mut codes, proba) in inserts {
                let id = id % sets.len() as u32;
                for item in sets[id as usize].items() {
                    codes[item.attr as usize] = item.code;
                }
                store.insert(id, LabeledSample { codes: codes.into_boxed_slice(), proba });
            }
            let payload = store.dump_snapshot();
            let loaded = PerturbationStore::load_snapshot(&payload).expect("own dump loads");
            prop_assert_eq!(loaded.dump_snapshot(), payload);
            prop_assert_eq!(&loaded.n_samples, &store.n_samples);
            prop_assert_eq!(&loaded.last_used, &store.last_used);
            prop_assert_eq!(loaded.used_bytes, store.used_bytes);
            prop_assert_eq!(loaded.peak_bytes, store.peak_bytes);
            for id in 0..sets.len() as u32 {
                prop_assert_eq!(loaded.samples(id), store.samples(id));
            }
        }

        /// `route` answers what the containment scan it replaced did — the
        /// first least-stocked matching entry below the cap — on stores with
        /// tied counts and entries emptied by LRU eviction, for caps of 0,
        /// at and around the fullest entry, and unbounded.
        #[test]
        fn route_equals_the_containment_scan(
            inserts in proptest::collection::vec(
                (0u32..12, proptest::collection::vec(0u32..3, 5)), 0..80),
            budget_samples in 4usize..60,
            rows in proptest::collection::vec(proptest::collection::vec(0u32..3, 5), 1..16),
        ) {
            use proptest::prelude::prop_assert_eq;
            let mut sets = Vec::new();
            for a in 0..5usize {
                for c in 0..2u32 {
                    sets.push(Itemset::new(vec![Item::new(a, c)]));
                }
            }
            sets.push(Itemset::new(vec![Item::new(0, 0), Item::new(1, 0)]));
            sets.push(Itemset::new(vec![Item::new(2, 1), Item::new(3, 1)]));
            let base: usize = sets.iter().map(Itemset::approx_bytes).sum();
            let one = std::mem::size_of::<LabeledSample>() + 5 * std::mem::size_of::<u32>();
            let mut store = PerturbationStore::new(sets.clone(), base + budget_samples * one);
            for (id, mut codes) in inserts {
                let id = id % sets.len() as u32;
                for item in sets[id as usize].items() {
                    codes[item.attr as usize] = item.code;
                }
                store.insert(id, LabeledSample { codes: codes.into_boxed_slice(), proba: 0.5 });
            }
            let fullest = (0..sets.len() as u32).map(|id| store.samples(id).len()).max().unwrap_or(0);
            let mut scratch = MatchScratch::new();
            for row in &rows {
                for cap in [0, 1, 2, fullest, fullest + 1, usize::MAX] {
                    let scan = store
                        .matching_all(row, &mut scratch)
                        .into_iter()
                        .filter(|&id| store.samples(id).len() < cap)
                        .min_by_key(|&id| store.samples(id).len());
                    prop_assert_eq!(store.route(row, cap), scan, "cap {}", cap);
                }
            }
        }
    }

    #[test]
    fn peak_bytes_is_monotone() {
        let ctx = ctx();
        let clf = MajorityClass::fit(&[1]);
        let mut store = PerturbationStore::new(itemsets(), usize::MAX);
        let before = store.peak_bytes();
        let mut rng = StdRng::seed_from_u64(5);
        store.materialize(&ctx, &clf, 3, &mut rng);
        assert!(store.peak_bytes() > before);
        assert!(store.peak_bytes() >= store.used_bytes());
    }
}
