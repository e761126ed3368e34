//! A tag-indexed LRU perturbation cache — the GREEDY baseline's store.
//!
//! The paper's GREEDY baseline "stores all the perturbations until the
//! budget is exhausted \[and\] reuses existing perturbations and their labels
//! if possible" (§4.1). "Possible" means the cached perturbation is a valid
//! conditional sample for the new tuple: every attribute where the sample
//! agreed with its source tuple (its implicit *frozen set*, the tag) must
//! carry the same value in the new tuple.
//!
//! Because tags are whatever agreement happened to occur — typically many
//! attributes, dominated by the source tuple's values — few cached samples
//! are valid for other tuples. This is exactly the weakness the paper
//! ascribes to GREEDY: it persists perturbations without *engineering*
//! them for reuse, unlike Shahin's frequent-itemset freezes.

use std::collections::BTreeMap;

use shahin_explain::LabeledSample;

#[derive(Clone, Debug, Default)]
struct Bucket {
    samples: Vec<LabeledSample>,
    bytes: usize,
    last_used: u64,
}

/// The tag: attributes (sorted) where the sample agreed with its source
/// tuple, together with the codes it carries there.
type Tag = Box<[(u16, u32)]>;

fn tag_of(sample_codes: &[u32], tuple_codes: &[u32]) -> Tag {
    debug_assert_eq!(sample_codes.len(), tuple_codes.len());
    sample_codes
        .iter()
        .zip(tuple_codes)
        .enumerate()
        .filter(|(_, (s, t))| s == t)
        .map(|(attr, (&s, _))| (attr as u16, s))
        .collect()
}

/// True if every `(attr, code)` of the tag matches the tuple.
fn tag_contained_in(tag: &[(u16, u32)], tuple_codes: &[u32]) -> bool {
    tag.iter().all(|&(a, c)| tuple_codes[a as usize] == c)
}

/// LRU cache of labeled perturbations, keyed by their full frozen tag,
/// with byte-budget accounting. Lookup scans the bucket directory, which
/// is bounded by the byte budget.
///
/// The directory is ordered by tag, so everything that walks it — which
/// samples a truncated lookup returns, which of several equally stale
/// buckets is evicted, the order samples are carried over in — is a
/// function of the cache's contents and a seeded run repeats exactly.
#[derive(Clone, Debug)]
pub struct TaggedLruCache {
    buckets: BTreeMap<Tag, Bucket>,
    budget: usize,
    used_bytes: usize,
    clock: u64,
    evictions: u64,
}

impl TaggedLruCache {
    /// Creates an empty cache with the given byte budget.
    pub fn new(budget_bytes: usize) -> TaggedLruCache {
        TaggedLruCache {
            buckets: BTreeMap::new(),
            budget: budget_bytes,
            used_bytes: 0,
            clock: 0,
            evictions: 0,
        }
    }

    /// Bytes currently resident.
    #[inline]
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Buckets evicted under byte pressure over the cache's lifetime.
    #[inline]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total cached samples.
    pub fn n_samples(&self) -> usize {
        self.buckets.values().map(|b| b.samples.len()).sum()
    }

    /// Stores a sample generated while explaining the tuple with
    /// `tuple_codes`, evicting least-recently-used buckets if the budget
    /// requires it.
    pub fn insert(&mut self, tuple_codes: &[u32], sample: LabeledSample) {
        let tag = tag_of(&sample.codes, tuple_codes);
        let need = sample.approx_bytes() + tag.len() * std::mem::size_of::<(u16, u32)>();
        if need > self.budget {
            return;
        }
        while self.used_bytes + need > self.budget {
            if !self.evict_lru() {
                return;
            }
        }
        // Inserts advance the clock too, so eviction order among
        // never-looked-up buckets is deterministic (insertion order).
        self.clock += 1;
        let clock = self.clock;
        let bucket = self.buckets.entry(tag).or_default();
        bucket.samples.push(sample);
        bucket.bytes += need;
        bucket.last_used = clock;
        self.used_bytes += need;
    }

    /// Every cached sample, in tag order, without disturbing the cache. The
    /// streaming refresh carries samples over by reference, so the warm-up
    /// cache keeps serving if the rebuild fails partway.
    pub fn samples(&self) -> impl Iterator<Item = &LabeledSample> {
        self.buckets.values().flat_map(|b| &b.samples)
    }

    /// Removes and returns every cached sample (used when the streaming
    /// variant graduates from the warm-up cache to the itemset store).
    pub fn drain_samples(&mut self) -> Vec<LabeledSample> {
        let mut out = Vec::with_capacity(self.n_samples());
        for mut b in std::mem::take(&mut self.buckets).into_values() {
            out.append(&mut b.samples);
        }
        self.used_bytes = 0;
        out
    }

    /// All cached samples reusable for the tuple with `tuple_codes`, up to
    /// `limit`: samples whose tag items all match the tuple. Marks the hit
    /// buckets as recently used.
    pub fn lookup(&mut self, tuple_codes: &[u32], limit: usize) -> Vec<&LabeledSample> {
        self.clock += 1;
        let clock = self.clock;
        let mut hits: Vec<Tag> = Vec::new();
        for (tag, bucket) in &mut self.buckets {
            if tag_contained_in(tag, tuple_codes) {
                bucket.last_used = clock;
                hits.push(tag.clone());
            }
        }
        let mut out = Vec::new();
        'outer: for tag in &hits {
            for s in &self.buckets[tag].samples {
                if out.len() >= limit {
                    break 'outer;
                }
                out.push(s);
            }
        }
        out
    }

    fn evict_lru(&mut self) -> bool {
        let victim = self
            .buckets
            .iter()
            .min_by_key(|(_, b)| b.last_used)
            .map(|(k, _)| k.clone());
        match victim {
            Some(k) => {
                let b = self.buckets.remove(&k).expect("victim exists");
                self.used_bytes -= b.bytes;
                self.evictions += 1;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(codes: &[u32], proba: f64) -> LabeledSample {
        LabeledSample {
            codes: codes.to_vec().into_boxed_slice(),
            proba,
        }
    }

    #[test]
    fn tag_captures_full_agreement() {
        let tag = tag_of(&[1, 5, 3, 7], &[1, 9, 3, 7]);
        assert_eq!(&*tag, &[(0, 1), (2, 3), (3, 7)]);
        let none = tag_of(&[1, 2], &[3, 4]);
        assert!(none.is_empty());
    }

    #[test]
    fn reuse_requires_full_tag_containment() {
        let mut cache = TaggedLruCache::new(usize::MAX);
        // Sample agreeing with its source on attrs 0 and 1.
        cache.insert(&[1, 5, 0], sample(&[1, 5, 9], 0.7));
        // A tuple sharing both frozen values can reuse it.
        assert_eq!(cache.lookup(&[1, 5, 2], 10).len(), 1);
        // A tuple sharing only one of them cannot — the sample is
        // conditioned on both.
        assert_eq!(cache.lookup(&[1, 6, 2], 10).len(), 0);
    }

    #[test]
    fn untagged_samples_are_universal() {
        let mut cache = TaggedLruCache::new(usize::MAX);
        cache.insert(&[9, 9, 9], sample(&[1, 2, 3], 0.4));
        assert_eq!(cache.lookup(&[0, 0, 0], 10).len(), 1);
    }

    #[test]
    fn limit_is_respected() {
        let mut cache = TaggedLruCache::new(usize::MAX);
        for i in 0..20 {
            cache.insert(&[9, 9], sample(&[i, 1], 0.5));
        }
        assert_eq!(cache.lookup(&[7, 7], 5).len(), 5);
    }

    #[test]
    fn budget_evicts_lru_buckets() {
        let unit = {
            let s = sample(&[1, 0], 0.5);
            s.approx_bytes() + std::mem::size_of::<(u16, u32)>()
        };
        let mut cache = TaggedLruCache::new(4 * unit);
        // Four distinct single-item buckets.
        cache.insert(&[1, 9], sample(&[1, 0], 0.1));
        cache.insert(&[2, 9], sample(&[2, 0], 0.2));
        cache.insert(&[3, 9], sample(&[3, 0], 0.3));
        cache.insert(&[4, 9], sample(&[4, 0], 0.4));
        assert_eq!(cache.n_samples(), 4);
        // Touch bucket A0=1 so it is most recent.
        assert_eq!(cache.lookup(&[1, 5], 10).len(), 1);
        // Inserting a fifth bucket evicts the least recently used (A0=2).
        cache.insert(&[5, 9], sample(&[5, 0], 0.5));
        assert_eq!(cache.n_samples(), 4);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.lookup(&[2, 5], 10).len(), 0, "A0=2 should be gone");
        assert_eq!(cache.lookup(&[1, 5], 10).len(), 1, "A0=1 should survive");
    }

    #[test]
    fn oversized_sample_is_dropped() {
        let mut cache = TaggedLruCache::new(8);
        cache.insert(&[1], sample(&[1], 0.5));
        assert_eq!(cache.n_samples(), 0);
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn samples_come_out_in_tag_order() {
        let probas =
            |samples: Vec<LabeledSample>| -> Vec<f64> { samples.iter().map(|s| s.proba).collect() };
        let mut cache = TaggedLruCache::new(usize::MAX);
        // Tags [(0, 7)], [(0, 3)], [] and [(0, 3)] again.
        cache.insert(&[7, 9], sample(&[7, 0], 0.1));
        cache.insert(&[3, 9], sample(&[3, 0], 0.2));
        cache.insert(&[5, 9], sample(&[4, 0], 0.3));
        cache.insert(&[3, 8], sample(&[3, 1], 0.4));
        let expected = vec![0.3, 0.2, 0.4, 0.1];
        assert_eq!(probas(cache.samples().cloned().collect()), expected);
        // A truncated lookup walks the same order.
        let hits: Vec<f64> = cache.lookup(&[3, 9], 2).iter().map(|s| s.proba).collect();
        assert_eq!(hits, vec![0.3, 0.2]);
        assert_eq!(probas(cache.drain_samples()), expected);
    }

    #[test]
    fn drain_empties_the_cache() {
        let mut cache = TaggedLruCache::new(usize::MAX);
        cache.insert(&[1, 2], sample(&[1, 2], 0.1));
        cache.insert(&[3, 4], sample(&[0, 4], 0.2));
        let drained = cache.drain_samples();
        assert_eq!(drained.len(), 2);
        assert_eq!(cache.n_samples(), 0);
        assert_eq!(cache.used_bytes(), 0);
    }
}
