//! Level-wise Apriori mining with negative-border tracking.
//!
//! Support is a tidset intersection: every item keeps the bitset of rows
//! that carry it ([`Tidsets`]), and a candidate's support is the popcount
//! of its parents' intersected bitsets, so counting costs `⌈n/64⌉` word
//! operations per candidate however many rows are mined.

use shahin_tabular::DiscreteTable;

use crate::item::{Item, Itemset};

/// Parameters controlling the Apriori run.
#[derive(Clone, Debug)]
pub struct AprioriParams {
    /// Minimum relative support (fraction of transactions) for an itemset to
    /// be frequent.
    pub min_support: f64,
    /// Maximum itemset length mined. Shahin only needs short freezes (the
    /// explainers rarely freeze many attributes at once), so 3 is a good
    /// default.
    pub max_len: usize,
    /// Optional cap on the number of frequent itemsets kept (highest support
    /// first). Bounds the materialization budget `τ · |F|`. `usize::MAX`
    /// disables the cap.
    pub max_itemsets: usize,
}

impl Default for AprioriParams {
    fn default() -> Self {
        AprioriParams {
            min_support: 0.2,
            max_len: 3,
            max_itemsets: usize::MAX,
        }
    }
}

/// Output of [`apriori`].
#[derive(Clone, Debug)]
pub struct AprioriResult {
    /// Frequent itemsets with their absolute support counts, sorted by
    /// descending support (longest-first on ties so supersets win).
    pub frequent: Vec<(Itemset, u64)>,
    /// The negative border: itemsets that are *not* frequent although all of
    /// their immediate subsets are (paper §3.5). Singleton infrequent items
    /// are included (their only subset is the empty set).
    pub negative_border: Vec<Itemset>,
    /// Number of transactions mined.
    pub n_transactions: u64,
}

impl AprioriResult {
    /// Relative support of the `i`-th frequent itemset.
    pub fn support(&self, i: usize) -> f64 {
        self.frequent[i].1 as f64 / self.n_transactions as f64
    }
}

/// Row bitsets of every item of a discretized table: for each
/// `(attr, code)` that occurs, one `u64` word per 64 rows with bit `r` set
/// when row `r` carries that code. The support of any itemset is then the
/// popcount of the AND of its items' tidsets.
#[derive(Clone, Debug)]
pub struct Tidsets {
    n_rows: usize,
    /// Words per tidset: `n_rows.div_ceil(64)`.
    words: usize,
    /// Attribute `a`'s items occupy slots `attr_first[a]..attr_first[a + 1]`.
    attr_first: Vec<usize>,
    /// Code of each slot; ascending within an attribute, so slots run in
    /// `(attr, code)` order.
    codes: Vec<u32>,
    /// Slot `s`'s tidset is `bits[s * words..(s + 1) * words]`.
    bits: Vec<u64>,
}

impl Tidsets {
    /// Builds one tidset per distinct `(attr, code)` of `table`.
    pub fn new(table: &DiscreteTable) -> Tidsets {
        let n_rows = table.n_rows();
        let words = n_rows.div_ceil(64);
        let mut attr_first = Vec::with_capacity(table.n_attrs() + 1);
        attr_first.push(0);
        let mut codes = Vec::new();
        for attr in 0..table.n_attrs() {
            let mut domain = table.column(attr).to_vec();
            domain.sort_unstable();
            domain.dedup();
            codes.extend(domain);
            attr_first.push(codes.len());
        }
        let mut bits = vec![0u64; codes.len() * words];
        for attr in 0..table.n_attrs() {
            let first = attr_first[attr];
            let domain = &codes[first..attr_first[attr + 1]];
            for (row, code) in table.column(attr).iter().enumerate() {
                let slot = first + domain.binary_search(code).expect("domain holds every code");
                bits[slot * words + row / 64] |= 1 << (row % 64);
            }
        }
        Tidsets {
            n_rows,
            words,
            attr_first,
            codes,
            bits,
        }
    }

    /// The tidset of slot `slot`.
    #[inline]
    fn tids(&self, slot: usize) -> &[u64] {
        &self.bits[slot * self.words..(slot + 1) * self.words]
    }

    /// The slot of `item`, or `None` when no row carries it.
    fn slot(&self, item: Item) -> Option<usize> {
        let attr = usize::from(item.attr);
        let first = *self.attr_first.get(attr)?;
        let domain = &self.codes[first..self.attr_first[attr + 1]];
        domain.binary_search(&item.code).ok().map(|i| first + i)
    }

    /// Number of rows containing every item of `set`.
    pub fn support(&self, set: &Itemset) -> u64 {
        if set.is_empty() {
            return self.n_rows as u64;
        }
        let Some(slots) = set
            .items()
            .iter()
            .map(|&item| self.slot(item))
            .collect::<Option<Vec<usize>>>()
        else {
            return 0;
        };
        (0..self.words)
            .map(|w| {
                let word = slots.iter().fold(!0u64, |acc, &s| acc & self.tids(s)[w]);
                u64::from(word.count_ones())
            })
            .sum()
    }
}

/// Mines frequent itemsets over the rows of a discretized table.
///
/// Each row is a transaction with exactly one item per attribute
/// (`attr = code`). Candidate generation is the classic join of `k−1`-sets
/// sharing a prefix, followed by full subset pruning. Support is counted
/// on tidsets ([`Tidsets`]): level 1 takes one row bitset per item, a
/// level-k candidate `a ∪ b` gets the AND of its two parents' tidsets, and
/// its support is that AND's popcount — `⌈n/64⌉` word operations per
/// candidate instead of a scan of every row. The frequent candidates'
/// tidsets carry on to the next level's joins.
pub fn apriori(table: &DiscreteTable, params: &AprioriParams) -> AprioriResult {
    let n = table.n_rows();
    assert!(n > 0, "cannot mine an empty table");
    assert!(
        (0.0..=1.0).contains(&params.min_support),
        "min_support must be in [0, 1]"
    );
    let min_count = ((params.min_support * n as f64).ceil() as u64).max(1);

    let mut frequent: Vec<(Itemset, u64)> = Vec::new();
    let mut negative_border: Vec<Itemset> = Vec::new();

    // --- level 1: one tidset per item, already in sorted (attr, code) order
    let items = Tidsets::new(table);
    let words = items.words;
    let mut level: Vec<(Itemset, u64)> = Vec::new();
    // Tidset of `level[i]` at `level_tids[i * words..(i + 1) * words]`.
    let mut level_tids: Vec<u64> = Vec::new();
    for attr in 0..table.n_attrs() {
        for slot in items.attr_first[attr]..items.attr_first[attr + 1] {
            let set = Itemset::singleton(Item::new(attr, items.codes[slot]));
            let tids = items.tids(slot);
            let c = popcount(tids);
            if c >= min_count {
                level.push((set, c));
                level_tids.extend_from_slice(tids);
            } else {
                negative_border.push(set);
            }
        }
    }

    // --- levels 2..=max_len
    for _k in 2..=params.max_len {
        if level.len() < 2 {
            break;
        }
        // The joins below emit candidates in sorted order, which the
        // prefix-break and the subset binary search rely on.
        debug_assert!(level.windows(2).all(|w| w[0].0 < w[1].0));
        let mut next: Vec<(Itemset, u64)> = Vec::new();
        let mut next_tids: Vec<u64> = Vec::new();
        for (i, (a, _)) in level.iter().enumerate() {
            let a_items = a.items();
            let k1 = a_items.len();
            for (j, (b, _)) in level.iter().enumerate().skip(i + 1) {
                let b_items = b.items();
                // Sorted level + sorted items: the join condition is equal
                // prefixes and a's last item < b's last item.
                if a_items[..k1 - 1] != b_items[..k1 - 1] {
                    break; // sorted order: no further b shares the prefix
                }
                if a_items[k1 - 1].attr == b_items[k1 - 1].attr {
                    continue; // two codes on one attribute can never co-occur
                }
                // Full subset pruning of `a ∪ {b_last}`. Dropping either
                // last item leaves `a` or `b`, so only the prefix drops need
                // a lookup (none for a pair).
                let b_last = b_items[k1 - 1];
                if !(0..k1 - 1).all(|skip| holds_without(&level, a_items, b_last, skip)) {
                    continue;
                }
                let mut items = Vec::with_capacity(k1 + 1);
                items.extend_from_slice(a_items);
                items.push(b_last);
                let cand = Itemset::new(items);
                let start = next_tids.len();
                let (ta, tb) = (
                    &level_tids[i * words..(i + 1) * words],
                    &level_tids[j * words..(j + 1) * words],
                );
                next_tids.extend(ta.iter().zip(tb).map(|(x, y)| x & y));
                let c = popcount(&next_tids[start..]);
                if c >= min_count {
                    next.push((cand, c));
                } else {
                    next_tids.truncate(start);
                    negative_border.push(cand);
                }
            }
        }
        frequent.append(&mut level);
        level = next;
        level_tids = next_tids;
    }
    frequent.extend(level);

    // Global ordering: support desc, then longer itemsets first, then
    // lexicographic for determinism.
    frequent.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then(b.0.len().cmp(&a.0.len()))
            .then(a.0.cmp(&b.0))
    });
    if frequent.len() > params.max_itemsets {
        frequent.truncate(params.max_itemsets);
    }
    negative_border.sort();

    AprioriResult {
        frequent,
        negative_border,
        n_transactions: n as u64,
    }
}

fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// Whether the sorted `level` holds `a ∪ {last}` with `a`'s `skip`-th item
/// removed.
fn holds_without(level: &[(Itemset, u64)], a: &[Item], last: Item, skip: usize) -> bool {
    let sub = || {
        a.iter()
            .enumerate()
            .filter_map(move |(i, it)| (i != skip).then_some(it))
            .chain(std::iter::once(&last))
    };
    level
        .binary_search_by(|(s, _)| s.items().iter().cmp(sub()))
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The candidate-driven miner tidset counting replaced: hash-counted
    /// level 1, Apriori-gen with full subset pruning through a hash set, and
    /// every candidate checked against every row. [`apriori`] must return
    /// exactly what this returns.
    fn apriori_oracle(table: &DiscreteTable, params: &AprioriParams) -> AprioriResult {
        let n = table.n_rows();
        let min_count = ((params.min_support * n as f64).ceil() as u64).max(1);
        let mut frequent: Vec<(Itemset, u64)> = Vec::new();
        let mut negative_border: Vec<Itemset> = Vec::new();
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for attr in 0..table.n_attrs() {
            for &code in table.column(attr) {
                *counts.entry(Item::new(attr, code).key()).or_insert(0) += 1;
            }
        }
        let mut level: Vec<(Itemset, u64)> = Vec::new();
        for (&key, &c) in &counts {
            let set = Itemset::singleton(Item {
                attr: (key >> 32) as u16,
                code: key as u32,
            });
            if c >= min_count {
                level.push((set, c));
            } else {
                negative_border.push(set);
            }
        }
        level.sort_by(|a, b| a.0.cmp(&b.0));
        for _k in 2..=params.max_len {
            if level.len() < 2 {
                frequent.append(&mut level);
                break;
            }
            let prev_sets: HashSet<&Itemset> = level.iter().map(|(s, _)| s).collect();
            let mut candidates = Vec::new();
            for i in 0..level.len() {
                for (b, _) in &level[i + 1..] {
                    let a = &level[i].0;
                    let (a_items, b_items) = (a.items(), b.items());
                    let k1 = a_items.len();
                    if a_items[..k1 - 1] != b_items[..k1 - 1] {
                        break;
                    }
                    if a_items[k1 - 1].attr == b_items[k1 - 1].attr {
                        continue;
                    }
                    let cand = a.union(b);
                    if cand
                        .immediate_subsets()
                        .iter()
                        .all(|s| prev_sets.contains(s))
                    {
                        candidates.push(cand);
                    }
                }
            }
            frequent.append(&mut level);
            if candidates.is_empty() {
                break;
            }
            let mut cand_counts = vec![0u64; candidates.len()];
            for row in 0..n {
                let row_codes = table.row(row);
                for (ci, cand) in candidates.iter().enumerate() {
                    if cand.contained_in(&row_codes) {
                        cand_counts[ci] += 1;
                    }
                }
            }
            for (cand, c) in candidates.into_iter().zip(cand_counts) {
                if c >= min_count {
                    level.push((cand, c));
                } else {
                    negative_border.push(cand);
                }
            }
            level.sort_by(|a, b| a.0.cmp(&b.0));
        }
        frequent.extend(level);
        frequent.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(b.0.len().cmp(&a.0.len()))
                .then(a.0.cmp(&b.0))
        });
        frequent.truncate(params.max_itemsets);
        negative_border.sort();
        AprioriResult {
            frequent,
            negative_border,
            n_transactions: n as u64,
        }
    }

    /// A seeded table whose attributes draw skewed codes from gapped
    /// domains (including `u32::MAX`), so some itemsets are frequent and
    /// codes are far from dense.
    fn gapped_table(n_rows: usize, domains: &[usize], seed: u64) -> DiscreteTable {
        const GAPPED: [u32; 6] = [0, 3, 4, 97, 65_536, u32::MAX];
        let mut rng = StdRng::seed_from_u64(seed);
        DiscreteTable::new(
            domains
                .iter()
                .map(|&d| {
                    (0..n_rows)
                        .map(|_| {
                            let u: f64 = rng.gen();
                            GAPPED[((u * u * d as f64) as usize).min(d - 1)]
                        })
                        .collect()
                })
                .collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Tidset mining returns the oracle's result exactly — frequent
        /// order and counts, truncation under a cap below the frequent
        /// count, and the sorted border — across word-boundary row counts,
        /// and [`Tidsets::support`] recounts every reported set.
        #[test]
        fn tidset_mining_equals_the_candidate_driven_oracle(
            domains in proptest::collection::vec(1usize..=5, 1..=5),
            seed in 0u64..u64::MAX,
            min_support in 0.02f64..0.7,
            max_len in 1usize..=4,
        ) {
            for n_rows in [1, 63, 64, 65, 100, 1000] {
                let table = gapped_table(n_rows, &domains, seed);
                let uncapped = AprioriParams { min_support, max_len, max_itemsets: usize::MAX };
                let n_frequent = apriori_oracle(&table, &uncapped).frequent.len();
                for max_itemsets in [usize::MAX, n_frequent / 2] {
                    let params = AprioriParams { max_itemsets, ..uncapped.clone() };
                    let (got, want) = (apriori(&table, &params), apriori_oracle(&table, &params));
                    prop_assert_eq!(&got.frequent, &want.frequent, "{} rows", n_rows);
                    prop_assert_eq!(&got.negative_border, &want.negative_border);
                    prop_assert_eq!(got.n_transactions, want.n_transactions);
                }
                let tids = Tidsets::new(&table);
                let mined = apriori(&table, &uncapped);
                let brute = |s: &Itemset| {
                    (0..n_rows).filter(|&r| s.contained_in(&table.row(r))).count() as u64
                };
                for (set, count) in &mined.frequent {
                    prop_assert_eq!(tids.support(set), *count);
                }
                for set in &mined.negative_border {
                    prop_assert_eq!(tids.support(set), brute(set));
                }
            }
        }
    }

    #[test]
    fn tidset_support_of_absent_and_empty_sets() {
        let t = table();
        let tids = Tidsets::new(&t);
        assert_eq!(tids.support(&Itemset::new(vec![])), 10);
        assert_eq!(tids.support(&iset(&[(0, 5)])), 0, "code never seen");
        assert_eq!(tids.support(&iset(&[(7, 0)])), 0, "attribute out of range");
        assert_eq!(tids.support(&iset(&[(0, 0), (1, 0)])), 6);
        assert_eq!(tids.support(&iset(&[(0, 0), (2, 9)])), 0);
    }

    /// 10 transactions over 3 attributes:
    /// attr0: 0 in 80% of rows; attr1: 0 in 60%; attr2: unique codes.
    fn table() -> DiscreteTable {
        DiscreteTable::new(vec![
            vec![0, 0, 0, 0, 0, 0, 0, 0, 1, 2],
            vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 1],
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
        ])
    }

    fn iset(pairs: &[(usize, u32)]) -> Itemset {
        Itemset::new(pairs.iter().map(|&(a, c)| Item::new(a, c)).collect())
    }

    fn frequent_sets(res: &AprioriResult) -> Vec<Itemset> {
        res.frequent.iter().map(|(s, _)| s.clone()).collect()
    }

    #[test]
    fn finds_expected_frequent_sets() {
        let res = apriori(
            &table(),
            &AprioriParams {
                min_support: 0.5,
                max_len: 3,
                max_itemsets: usize::MAX,
            },
        );
        let sets = frequent_sets(&res);
        assert!(sets.contains(&iset(&[(0, 0)])), "{sets:?}");
        assert!(sets.contains(&iset(&[(1, 0)])), "{sets:?}");
        // {A0=0, A1=0} co-occurs in rows 0..=5: support 0.6.
        assert!(sets.contains(&iset(&[(0, 0), (1, 0)])), "{sets:?}");
        // Nothing from the unique attr 2.
        assert!(sets.iter().all(|s| s.items().iter().all(|i| i.attr != 2)));
    }

    #[test]
    fn support_counts_are_exact() {
        let res = apriori(
            &table(),
            &AprioriParams {
                min_support: 0.5,
                ..Default::default()
            },
        );
        for (set, count) in &res.frequent {
            // Recount by brute force.
            let t = table();
            let brute = (0..t.n_rows())
                .filter(|&r| set.contained_in(&t.row(r)))
                .count() as u64;
            assert_eq!(*count, brute, "wrong count for {set}");
        }
    }

    #[test]
    fn downward_closure_holds() {
        let res = apriori(
            &table(),
            &AprioriParams {
                min_support: 0.3,
                ..Default::default()
            },
        );
        let sets: HashSet<Itemset> = frequent_sets(&res).into_iter().collect();
        for s in &sets {
            for sub in s.immediate_subsets() {
                if !sub.is_empty() {
                    assert!(sets.contains(&sub), "{s} frequent but subset {sub} missing");
                }
            }
        }
    }

    #[test]
    fn negative_border_properties() {
        let res = apriori(
            &table(),
            &AprioriParams {
                min_support: 0.5,
                ..Default::default()
            },
        );
        let freq: HashSet<Itemset> = frequent_sets(&res).into_iter().collect();
        let min_count = 5;
        let t = table();
        for nb in &res.negative_border {
            // Not frequent itself.
            let count = (0..t.n_rows())
                .filter(|&r| nb.contained_in(&t.row(r)))
                .count() as u64;
            assert!(count < min_count, "{nb} is actually frequent");
            // All immediate non-empty subsets frequent.
            for sub in nb.immediate_subsets() {
                if !sub.is_empty() {
                    assert!(freq.contains(&sub), "{nb}: subset {sub} not frequent");
                }
            }
        }
        // {A1=1} has support 0.4 < 0.5 and should sit on the border.
        assert!(res.negative_border.contains(&iset(&[(1, 1)])));
    }

    #[test]
    fn max_len_caps_itemset_size() {
        let res = apriori(
            &table(),
            &AprioriParams {
                min_support: 0.3,
                max_len: 1,
                max_itemsets: usize::MAX,
            },
        );
        assert!(res.frequent.iter().all(|(s, _)| s.len() == 1));
    }

    #[test]
    fn max_itemsets_keeps_highest_support() {
        let res = apriori(
            &table(),
            &AprioriParams {
                min_support: 0.3,
                max_len: 2,
                max_itemsets: 2,
            },
        );
        assert_eq!(res.frequent.len(), 2);
        // The two highest-support sets are A0=0 (0.8) and A1=0 (0.6).
        assert_eq!(res.frequent[0].0, iset(&[(0, 0)]));
        assert_eq!(res.frequent[0].1, 8);
    }

    #[test]
    fn min_support_one_keeps_universal_items_only() {
        let t = DiscreteTable::new(vec![vec![7, 7, 7], vec![0, 1, 0]]);
        let res = apriori(
            &t,
            &AprioriParams {
                min_support: 1.0,
                ..Default::default()
            },
        );
        let sets = frequent_sets(&res);
        assert_eq!(sets, vec![iset(&[(0, 7)])]);
    }

    #[test]
    fn ordering_is_support_descending() {
        let res = apriori(
            &table(),
            &AprioriParams {
                min_support: 0.3,
                ..Default::default()
            },
        );
        for w in res.frequent.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
