//! Bitmask containment over a dictionary-encoded itemset domain.
//!
//! [`BitsetDomain`] answers "which itemsets are contained in this
//! tuple?" cache-consciously: the *distinct items that appear in any
//! tracked itemset* form a small dictionary (one bit each), so a tuple and
//! a frozen itemset each become a `[u64; W]` mask and containment reduces
//! to `iset & row == iset` over `W` words, with a popcount-based size
//! reject in front. Items outside the dictionary cannot influence any
//! containment answer, so they simply set no bit.
//!
//! The answer is exactly the brute-force [`Itemset::contained_in`] filter:
//! the ids of the contained itemsets, in ascending order (the scan visits
//! ids in order, so no sort is needed).

use crate::item::Itemset;

/// Reusable per-thread scratch for containment lookups: the row-mask
/// words of [`BitsetDomain::contained_in_with`].
#[derive(Clone, Debug, Default)]
pub struct MatchScratch {
    /// Row bitmask buffer (`W` words).
    pub mask: Vec<u64>,
}

impl MatchScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> MatchScratch {
        MatchScratch::default()
    }
}

/// A dictionary-encoded bitmask index over a fixed collection of itemsets.
///
/// Construction assigns one bit to every distinct `(attr, code)` item
/// appearing in the tracked itemsets and stores, per itemset, its mask in
/// *sparse* CSR form — only the non-zero words, at most one per item — plus
/// its item count. Per-attribute lookup tables are *dense*
/// (`code → bit + 1`, `0` = absent), so encoding a tuple is one
/// bounds-checked load per attribute — no hashing — and the subset test
/// per itemset is a handful of word ANDs however wide the dictionary is.
#[derive(Clone, Debug)]
pub struct BitsetDomain {
    /// CSR offsets into `attr_bits`: attribute `a`'s dense code table is
    /// `attr_bits[attr_first[a]..attr_first[a + 1]]`. One flat allocation
    /// (instead of a `Vec` per attribute), so a cold row encode streams a
    /// single contiguous array rather than chasing scattered tables.
    attr_first: Vec<u32>,
    /// Concatenated per-attribute dictionaries: entries are `bit + 1`, or
    /// `0` when the item is not in any tracked itemset.
    attr_bits: Vec<u32>,
    /// Words per row mask: `n_bits.div_ceil(64)`.
    words: usize,
    /// Total dictionary bits (distinct items across all itemsets).
    n_bits: usize,
    /// CSR offsets into `iset_entries`, one span per itemset
    /// (`n_itemsets + 1` entries).
    iset_first: Vec<u32>,
    /// Sparse `(word index, word bits)` pairs per itemset. An itemset has
    /// at most one entry per item, so a 3-item itemset tests at most 3
    /// words regardless of how wide the dictionary is.
    iset_entries: Vec<(u32, u64)>,
    /// Item count per itemset (for the popcount reject).
    sizes: Vec<u8>,
    /// Largest tracked itemset size: rows with at least this many
    /// in-dictionary items skip the popcount-reject pass entirely (it
    /// could never fire), saving the `sizes` scan on typical full rows.
    max_size: u32,
    n_itemsets: usize,
}

impl BitsetDomain {
    /// Builds the domain. Itemset ids are positions in `itemsets`.
    pub fn new(itemsets: &[Itemset]) -> BitsetDomain {
        // Pass 1: assign dictionary bits in first-seen order.
        let mut attr_tables: Vec<Vec<u32>> = Vec::new();
        let mut n_bits = 0usize;
        for set in itemsets {
            assert!(!set.is_empty(), "empty itemset cannot be indexed");
            for item in set.items() {
                let attr = usize::from(item.attr);
                if attr >= attr_tables.len() {
                    attr_tables.resize(attr + 1, Vec::new());
                }
                let table = &mut attr_tables[attr];
                let code = item.code as usize;
                if code >= table.len() {
                    table.resize(code + 1, 0);
                }
                if table[code] == 0 {
                    n_bits += 1;
                    table[code] = u32::try_from(n_bits).expect("dictionary fits in u32");
                }
            }
        }
        // Pass 2: materialize the per-itemset sparse masks. Itemsets are
        // short (≤ `u8::MAX` items, typically ≤ 3), so bits of one set are
        // merged into per-word entries with a linear scan.
        let words = n_bits.div_ceil(64);
        let mut iset_first = Vec::with_capacity(itemsets.len() + 1);
        let mut iset_entries: Vec<(u32, u64)> = Vec::new();
        let mut sizes = Vec::with_capacity(itemsets.len());
        for set in itemsets {
            sizes.push(u8::try_from(set.len()).expect("itemset length fits in u8"));
            iset_first.push(u32::try_from(iset_entries.len()).expect("entry count fits in u32"));
            let span_start = iset_entries.len();
            for item in set.items() {
                let bit = attr_tables[usize::from(item.attr)][item.code as usize] - 1;
                let (word, bits) = (bit / 64, 1u64 << (bit % 64));
                match iset_entries[span_start..].iter_mut().find(|e| e.0 == word) {
                    Some(entry) => entry.1 |= bits,
                    None => iset_entries.push((word, bits)),
                }
            }
        }
        iset_first.push(u32::try_from(iset_entries.len()).expect("entry count fits in u32"));
        // Flatten the per-attribute tables into one CSR dictionary.
        let mut attr_first = Vec::with_capacity(attr_tables.len() + 1);
        let mut attr_bits = Vec::new();
        attr_first.push(0);
        for table in &attr_tables {
            attr_bits.extend_from_slice(table);
            attr_first.push(u32::try_from(attr_bits.len()).expect("dictionary fits in u32"));
        }
        BitsetDomain {
            attr_first,
            attr_bits,
            words,
            n_bits,
            iset_first,
            iset_entries,
            max_size: sizes.iter().map(|&s| u32::from(s)).max().unwrap_or(0),
            sizes,
            n_itemsets: itemsets.len(),
        }
    }

    /// Number of indexed itemsets.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_itemsets
    }

    /// True if no itemsets are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_itemsets == 0
    }

    /// Total dictionary bits (distinct items across all itemsets).
    #[inline]
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Words per mask (`n_bits.div_ceil(64)`).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Encodes a tuple's discretized codes into `scratch.mask` and returns
    /// the number of set bits (= the tuple's in-dictionary items).
    #[inline]
    fn encode_row(&self, row_codes: &[u32], mask: &mut Vec<u64>) -> u32 {
        mask.clear();
        mask.resize(self.words, 0);
        let mut pop = 0u32;
        let n_attrs = self.attr_first.len() - 1;
        for (attr, &code) in row_codes.iter().enumerate().take(n_attrs) {
            let table =
                &self.attr_bits[self.attr_first[attr] as usize..self.attr_first[attr + 1] as usize];
            if let Some(&slot) = table.get(code as usize) {
                if slot != 0 {
                    let bit = slot - 1;
                    mask[bit as usize / 64] |= 1u64 << (bit % 64);
                    pop += 1;
                }
            }
        }
        pop
    }

    /// Ids of all indexed itemsets fully contained in the tuple with the
    /// given discretized `row_codes` (indexed by attribute), in ascending
    /// order — the ids whose [`Itemset::contained_in`] holds.
    pub fn contained_in_with(&self, row_codes: &[u32], scratch: &mut MatchScratch) -> Vec<u32> {
        let mut out = Vec::new();
        if self.n_itemsets == 0 {
            return out;
        }
        let row_pop = self.encode_row(row_codes, &mut scratch.mask);
        let row = &scratch.mask[..self.words];
        let contains = |id: usize| {
            let span =
                &self.iset_entries[self.iset_first[id] as usize..self.iset_first[id + 1] as usize];
            span.iter()
                .all(|&(word, bits)| row[word as usize] & bits == bits)
        };
        if row_pop < self.max_size {
            for id in 0..self.n_itemsets {
                // An itemset with more items than the row has in-dictionary
                // bits cannot be a subset — reject on the popcount alone.
                if u32::from(self.sizes[id]) > row_pop {
                    continue;
                }
                if contains(id) {
                    out.push(id as u32);
                }
            }
        } else {
            // A full row: no itemset can out-size it, so skip the reject
            // pass (and its `sizes` scan) and test the CSR spans directly.
            for id in 0..self.n_itemsets {
                if contains(id) {
                    out.push(id as u32);
                }
            }
        }
        out
    }

    /// Allocation-per-call convenience form of [`Self::contained_in_with`].
    pub fn contained_in(&self, row_codes: &[u32]) -> Vec<u32> {
        self.contained_in_with(row_codes, &mut MatchScratch::new())
    }

    /// Approximate resident bytes of the dictionary and masks.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<BitsetDomain>()
            + (self.attr_first.len() + self.attr_bits.len() + self.iset_first.len())
                * std::mem::size_of::<u32>()
            + self.iset_entries.len() * std::mem::size_of::<(u32, u64)>()
            + self.sizes.len()
    }

    /// Serializes the domain as raw little-endian contiguous vectors (a
    /// small header plus each backing `Vec` as `len` + elements), the
    /// format warm-state snapshots embed. [`Self::load_bytes`] is the
    /// inverse.
    pub fn dump_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.approx_bytes() + 64);
        put_u64(&mut out, self.n_itemsets as u64);
        put_u64(&mut out, self.words as u64);
        put_u64(&mut out, self.n_bits as u64);
        put_u32(&mut out, self.max_size);
        put_u64(&mut out, self.attr_first.len() as u64);
        for &v in &self.attr_first {
            put_u32(&mut out, v);
        }
        put_u64(&mut out, self.attr_bits.len() as u64);
        for &v in &self.attr_bits {
            put_u32(&mut out, v);
        }
        put_u64(&mut out, self.iset_first.len() as u64);
        for &v in &self.iset_first {
            put_u32(&mut out, v);
        }
        put_u64(&mut out, self.iset_entries.len() as u64);
        for &(word, bits) in &self.iset_entries {
            put_u32(&mut out, word);
            put_u64(&mut out, bits);
        }
        put_u64(&mut out, self.sizes.len() as u64);
        out.extend_from_slice(&self.sizes);
        out
    }

    /// Reconstructs a domain from [`Self::dump_bytes`] output, validating
    /// every structural invariant (vector lengths, CSR monotonicity, word
    /// bounds) so a corrupted dump is rejected instead of producing a
    /// domain that panics or answers wrongly later.
    pub fn load_bytes(bytes: &[u8]) -> Result<BitsetDomain, &'static str> {
        let mut r = Reader { bytes, pos: 0 };
        let n_itemsets = r.u64()? as usize;
        let words = r.u64()? as usize;
        let n_bits = r.u64()? as usize;
        let max_size = r.u32()?;
        let attr_first = r.vec_u32()?;
        let attr_bits = r.vec_u32()?;
        let iset_first = r.vec_u32()?;
        let n_entries = r.len()?;
        let mut iset_entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let word = r.u32()?;
            let bits = r.u64()?;
            iset_entries.push((word, bits));
        }
        let sizes = r.vec_u8()?;
        if r.pos != bytes.len() {
            return Err("bitset domain has trailing bytes");
        }
        if words != n_bits.div_ceil(64) {
            return Err("bitset domain word count disagrees with bit count");
        }
        check_csr(&attr_first, attr_bits.len())?;
        if n_itemsets.checked_add(1) != Some(iset_first.len()) {
            return Err("bitset domain itemset offsets have wrong length");
        }
        check_csr(&iset_first, iset_entries.len())?;
        if sizes.len() != n_itemsets {
            return Err("bitset domain sizes have wrong length");
        }
        if iset_entries.iter().any(|&(word, _)| word as usize >= words) {
            return Err("bitset domain mask word out of range");
        }
        if attr_bits.iter().any(|&slot| slot as usize > n_bits) {
            return Err("bitset domain dictionary slot out of range");
        }
        Ok(BitsetDomain {
            attr_first,
            attr_bits,
            words,
            n_bits,
            iset_first,
            iset_entries,
            sizes,
            max_size,
            n_itemsets,
        })
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A CSR offset vector must start at 0, be non-decreasing, and end at the
/// backing vector's length.
fn check_csr(first: &[u32], backing_len: usize) -> Result<(), &'static str> {
    if first.first() != Some(&0) {
        return Err("bitset domain CSR offsets do not start at zero");
    }
    if first.windows(2).any(|w| w[0] > w[1]) {
        return Err("bitset domain CSR offsets decrease");
    }
    if first.last().copied().unwrap_or(0) as usize != backing_len {
        return Err("bitset domain CSR offsets disagree with backing length");
    }
    Ok(())
}

/// Bounds-checked little-endian cursor over a dump.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], &'static str> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or("bitset domain dump truncated")?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, &'static str> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, &'static str> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length prefix, sanity-bounded by the remaining bytes so a flipped
    /// length bit cannot trigger a huge allocation.
    fn len(&mut self) -> Result<usize, &'static str> {
        let n = self.u64()? as usize;
        if n > self.bytes.len() {
            return Err("bitset domain length prefix exceeds dump size");
        }
        Ok(n)
    }

    fn vec_u32(&mut self) -> Result<Vec<u32>, &'static str> {
        let n = self.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u32()?);
        }
        Ok(v)
    }

    fn vec_u8(&mut self) -> Result<Vec<u8>, &'static str> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;

    fn iset(pairs: &[(usize, u32)]) -> Itemset {
        Itemset::new(pairs.iter().map(|&(a, c)| Item::new(a, c)).collect())
    }

    fn sets() -> Vec<Itemset> {
        vec![
            iset(&[(0, 1)]),
            iset(&[(1, 2)]),
            iset(&[(0, 1), (1, 2)]),
            iset(&[(0, 1), (2, 0)]),
            iset(&[(0, 2), (1, 2), (2, 5)]),
        ]
    }

    #[test]
    fn finds_all_contained_sets() {
        let domain = BitsetDomain::new(&sets());
        assert_eq!(domain.contained_in(&[1, 2, 0]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn matches_brute_force() {
        let sets = sets();
        let domain = BitsetDomain::new(&sets);
        let mut scratch = MatchScratch::new();
        for row in [
            vec![1, 2, 5],
            vec![2, 2, 5],
            vec![0, 0, 0],
            vec![1, 0, 0],
            vec![2, 2, 0],
            vec![9999, 9999, 9999],
        ] {
            let got = domain.contained_in_with(&row, &mut scratch);
            let brute: Vec<u32> = sets
                .iter()
                .enumerate()
                .filter(|(_, s)| s.contained_in(&row))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, brute, "row {row:?}");
        }
    }

    #[test]
    fn out_of_dictionary_codes_set_no_bits() {
        let domain = BitsetDomain::new(&sets());
        // Codes far past every table length, and rows longer than the
        // tracked attribute range, must match nothing and not panic.
        assert_eq!(
            domain.contained_in(&[9999, 9999, 9999, 7, 7]),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn empty_domain() {
        let domain = BitsetDomain::new(&[]);
        assert!(domain.is_empty());
        assert_eq!(domain.words(), 0);
        assert_eq!(domain.contained_in(&[1, 2, 3]), Vec::<u32>::new());
    }

    #[test]
    fn multi_word_domain_wraps_past_64_bits() {
        // 10 attributes × 9 codes = 90 singleton items → 2 mask words.
        let mut sets = Vec::new();
        for attr in 0..10usize {
            for code in 0..9u32 {
                sets.push(iset(&[(attr, code)]));
            }
        }
        // One wide itemset whose bits straddle the word boundary.
        sets.push(iset(&[(0, 0), (4, 4), (9, 8)]));
        let domain = BitsetDomain::new(&sets);
        assert!(domain.n_bits() > 64);
        assert_eq!(domain.words(), 2);
        let mut scratch = MatchScratch::new();
        for row in [
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 8],
            vec![0, 0, 0, 0, 4, 0, 0, 0, 0, 8],
            vec![9, 9, 9, 9, 9, 9, 9, 9, 9, 9],
        ] {
            let brute: Vec<u32> = (0..sets.len() as u32)
                .filter(|&i| sets[i as usize].contained_in(&row))
                .collect();
            assert_eq!(
                domain.contained_in_with(&row, &mut scratch),
                brute,
                "row {row:?}"
            );
        }
    }

    #[test]
    fn dump_load_round_trips_bit_identically() {
        for sets in [sets(), Vec::new()] {
            let domain = BitsetDomain::new(&sets);
            let bytes = domain.dump_bytes();
            let loaded = BitsetDomain::load_bytes(&bytes).expect("valid dump loads");
            assert_eq!(loaded.dump_bytes(), bytes, "reserialization is identical");
            let mut scratch = MatchScratch::new();
            for row in [vec![1, 2, 0], vec![2, 2, 5], vec![0, 0, 0]] {
                assert_eq!(
                    loaded.contained_in_with(&row, &mut scratch),
                    domain.contained_in(&row),
                    "row {row:?}"
                );
            }
        }
    }

    #[test]
    fn load_rejects_corrupt_dumps() {
        let bytes = BitsetDomain::new(&sets()).dump_bytes();
        // Truncations at every prefix length must error, never panic.
        for end in 0..bytes.len() {
            assert!(
                BitsetDomain::load_bytes(&bytes[..end]).is_err(),
                "truncation at {end} must be rejected"
            );
        }
        // Trailing garbage is rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(BitsetDomain::load_bytes(&padded).is_err());
        // A wild length prefix must not allocate or panic.
        let mut wild = bytes;
        wild[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(BitsetDomain::load_bytes(&wild).is_err());
    }

    #[test]
    fn scratch_is_reusable_across_domains() {
        let small = BitsetDomain::new(&sets()[..2]);
        let large = BitsetDomain::new(&sets());
        let mut scratch = MatchScratch::new();
        assert_eq!(
            small.contained_in_with(&[1, 2, 0], &mut scratch),
            vec![0, 1]
        );
        assert_eq!(
            large.contained_in_with(&[1, 2, 0], &mut scratch),
            vec![0, 1, 2, 3]
        );
        assert_eq!(small.contained_in_with(&[1, 9, 9], &mut scratch), vec![0]);
    }
}
