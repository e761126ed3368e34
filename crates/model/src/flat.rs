//! CSR-flattened forests: every tree's nodes in one contiguous array.
//!
//! A fitted [`DecisionTree`] stores its nodes as its own `Vec<Node>` of
//! 32-byte enum variants — walking a forest of them hops between
//! per-tree allocations and pattern-matches an enum per node. For the
//! batch workloads Shahin runs (millions of invocations per explanation
//! batch), that layout is memory-bound: the working set is scattered and
//! each node touch loads fields the branch never reads.
//!
//! [`FlatForest`] re-packs the whole forest once, at fit time, into one
//! array of 16-byte nodes plus two per-tree arrays, in the CSR
//! `first_out`/`head` idiom:
//!
//! ```text
//! first_out : [u32; n_trees + 1]    tree t's nodes live at first_out[t]..first_out[t+1]
//! depth     : [u32; n_trees]        edges on tree t's longest root-to-leaf path
//! nodes     : [FlatNode; n_nodes]   16 bytes each:
//!   value   : f64    leaf probability | numeric cut | categorical code as f64
//!   feature : u32    LEAF_BIT | CAT_BIT | attribute index (low 30 bits)
//!   right   : u32    absolute index of the right child; a leaf's own index
//! ```
//!
//! The fitted trees are stored in pre-order, so a split's left child is
//! always the next node (`idx + 1`) and needs no field. One node touch
//! loads everything a step reads, with no enum discriminant and no per-tree
//! pointer chase.
//!
//! Two walkers read the array:
//!
//! - [`FlatForest::predict_proba`] (one row) walks each tree with an early
//!   exit at the leaf.
//! - [`FlatForest::predict_chunk`] (many rows) converts the chunk's
//!   features to `f64` once, then walks a group of [`LANES`] rows through
//!   each tree together for exactly the tree's `depth` steps. A step is
//!   branchless: both the `==` and the `<` test are computed and one is
//!   chosen arithmetically, and a leaf keeps its own index, so rows that
//!   reached a leaf early just stay there. The lanes are independent
//!   dependency chains, which the CPU overlaps.
//!
//! A categorical code is compared as `f64::from(code)` — `u32 → f64` is
//! exact, so `f64` equality is equivalent to the nested layout's `u32`
//! equality. Each row sums its trees in tree order and divides by the tree
//! count, so both walkers are **bit-identical** to the nested trees.

use shahin_tabular::Feature;

use crate::tree::{DecisionTree, Node};

/// `feature` flag marking a leaf node.
const LEAF_BIT: u32 = 1 << 31;
/// `feature` flag marking a categorical (one-vs-rest equality) split.
const CAT_BIT: u32 = 1 << 30;
/// `feature` bits holding the attribute index (zero on leaves).
const ATTR_MASK: u32 = CAT_BIT - 1;
/// Rows a chunk walk keeps in flight per tree.
const LANES: usize = 8;

/// One tree node; see the module docs for the field encoding.
#[derive(Clone, Copy, Debug)]
struct FlatNode {
    value: f64,
    feature: u32,
    right: u32,
}

const _: () = assert!(std::mem::size_of::<FlatNode>() == 16);

/// A whole random forest flattened into contiguous arrays.
///
/// Built once from fitted [`DecisionTree`]s; see the module docs for the
/// memory map. All `predict*` entry points reproduce the nested layout's
/// outputs bit for bit.
#[derive(Clone, Debug)]
pub struct FlatForest {
    /// CSR offsets: tree `t` owns nodes `first_out[t]..first_out[t + 1]`,
    /// its root at `first_out[t]`.
    first_out: Vec<u32>,
    /// Steps from tree `t`'s root to its deepest leaf.
    depth: Vec<u32>,
    nodes: Vec<FlatNode>,
    /// One more than the largest attribute index any split reads: a chunk
    /// with fewer attributes per row is rejected instead of reading into
    /// the next row.
    min_attrs: usize,
}

impl FlatForest {
    /// Flattens fitted trees. Node ids are the tree's arena order shifted
    /// by the tree's base offset, so child indices need no per-tree base
    /// at traversal time.
    pub(crate) fn from_trees(trees: &[DecisionTree]) -> FlatForest {
        let n_nodes: usize = trees.iter().map(DecisionTree::n_nodes).sum();
        let mut flat = FlatForest {
            first_out: Vec::with_capacity(trees.len() + 1),
            depth: Vec::with_capacity(trees.len()),
            nodes: Vec::with_capacity(n_nodes),
            min_attrs: 0,
        };
        flat.first_out.push(0);
        for tree in trees {
            let base = *flat.first_out.last().expect("first_out starts at 0");
            for (local, node) in (0u32..).zip(tree.nodes()) {
                let idx = base + local;
                let (value, feature, right) = match *node {
                    Node::Leaf { proba } => (proba, LEAF_BIT, idx),
                    Node::SplitNum {
                        attr,
                        threshold,
                        left,
                        right,
                    } => {
                        assert_eq!(left, local + 1, "trees are stored in pre-order");
                        (threshold, flat.split_attr(attr), base + right)
                    }
                    Node::SplitCat {
                        attr,
                        code,
                        left,
                        right,
                    } => {
                        assert_eq!(left, local + 1, "trees are stored in pre-order");
                        (
                            f64::from(code),
                            flat.split_attr(attr) | CAT_BIT,
                            base + right,
                        )
                    }
                };
                flat.nodes.push(FlatNode {
                    value,
                    feature,
                    right,
                });
            }
            let depth = tree.depth() - 1;
            flat.depth
                .push(u32::try_from(depth).expect("tree depth fits in u32"));
            let end = u32::try_from(flat.nodes.len()).expect("node count fits in u32");
            flat.first_out.push(end);
        }
        flat
    }

    /// Checks a split attribute against the flag bits and widens
    /// `min_attrs` to cover it.
    fn split_attr(&mut self, attr: u32) -> u32 {
        assert!(attr <= ATTR_MASK, "attribute index overflows the flag bits");
        self.min_attrs = self.min_attrs.max(attr as usize + 1);
        attr
    }

    /// Number of trees.
    #[inline]
    pub fn n_trees(&self) -> usize {
        self.first_out.len() - 1
    }

    /// Total node count across all trees.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Steps from tree `tree`'s root to its deepest leaf (0 for a tree that
    /// is a single leaf).
    pub fn depth(&self, tree: usize) -> usize {
        self.depth[tree] as usize
    }

    /// Walks one tree (by its root node index) for one row, stopping at
    /// the leaf.
    #[inline]
    fn walk(&self, root: u32, row: &[Feature]) -> f64 {
        let mut idx = root as usize;
        loop {
            let node = self.nodes[idx];
            if node.feature & LEAF_BIT != 0 {
                return node.value;
            }
            let attr = (node.feature & ATTR_MASK) as usize;
            let go_left = if node.feature & CAT_BIT != 0 {
                f64::from(row[attr].cat()) == node.value
            } else {
                row[attr].num() < node.value
            };
            idx = if go_left {
                idx + 1
            } else {
                node.right as usize
            };
        }
    }

    /// Mean leaf probability across all trees for one row — bit-identical
    /// to averaging the nested trees' `predict_proba` outputs.
    pub fn predict_proba(&self, row: &[Feature]) -> f64 {
        let mut sum = 0.0;
        for &root in &self.first_out[..self.n_trees()] {
            sum += self.walk(root, row);
        }
        sum / self.n_trees() as f64
    }

    /// Walks [`LANES`] rows through one tree for its full `depth`, without
    /// a branch per node: `x[base[l]..]` is lane `l`'s row. Returns each
    /// lane's leaf index.
    #[inline(always)]
    fn descend(&self, tree: usize, x: &[f64], base: &[usize; LANES]) -> [u32; LANES] {
        let mut idx = [self.first_out[tree]; LANES];
        for _ in 0..self.depth[tree] {
            for (at, &row) in idx.iter_mut().zip(base) {
                let node = self.nodes[*at as usize];
                let v = x[row + (node.feature & ATTR_MASK) as usize];
                // 0/1 integers, combined by multiplication: written as an
                // `if` (or a bool mask), the select becomes a branch again
                // in this loop on x86-64, and it mispredicts half the time.
                let is_cat = (node.feature & CAT_BIT) / CAT_BIT;
                let inner = 1 - (node.feature & LEAF_BIT) / LEAF_BIT;
                let eq = u32::from(v == node.value);
                let lt = u32::from(v < node.value);
                let go_left = (is_cat * eq + (1 - is_cat) * lt) * inner;
                // Left is the next node; a leaf's `right` is itself.
                *at = node
                    .right
                    .wrapping_add(go_left.wrapping_mul((*at + 1).wrapping_sub(node.right)));
            }
        }
        idx
    }

    /// Writes the mean tree probability of row `i` of the flat row-major
    /// buffer into `out[i]` (overwriting it). Rows go through the trees
    /// [`LANES`] at a time; a short last group repeats its last row in the
    /// spare lanes and drops their results. Each row still sums its trees
    /// in tree order and divides (not multiplies by a reciprocal), so every
    /// result is bit-identical to [`Self::predict_proba`].
    pub fn predict_chunk(&self, rows: &[Feature], n_attrs: usize, out: &mut [f64]) {
        debug_assert_eq!(rows.len(), out.len() * n_attrs, "ragged flat chunk");
        if out.is_empty() {
            return;
        }
        assert!(
            n_attrs >= self.min_attrs.max(1),
            "rows of {n_attrs} attributes, but the forest splits on attribute {}",
            self.min_attrs.saturating_sub(1)
        );
        let x: Vec<f64> = rows
            .iter()
            .map(|f| match *f {
                Feature::Cat(code) => f64::from(code),
                Feature::Num(v) => v,
            })
            .collect();
        let last = out.len() - 1;
        let n = self.n_trees() as f64;
        for (group, sums) in out.chunks_mut(LANES).enumerate() {
            let base: [usize; LANES] =
                std::array::from_fn(|l| (group * LANES + l).min(last) * n_attrs);
            let mut acc = [0.0; LANES];
            for tree in 0..self.n_trees() {
                let leaves = self.descend(tree, &x, &base);
                for (a, &leaf) in acc.iter_mut().zip(&leaves) {
                    *a += self.nodes[leaf as usize].value;
                }
            }
            for (sum, a) in sums.iter_mut().zip(acc) {
                *sum = a / n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Classifier;
    use crate::tree::TreeParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shahin_tabular::{DatasetPreset, Instance};

    fn fitted_trees(n: usize) -> (Vec<DecisionTree>, Vec<Instance>) {
        let spec = DatasetPreset::Recidivism.spec(0.03);
        let (data, labels) = spec.generate(11);
        let mut rng = StdRng::seed_from_u64(21);
        let trees = (0..n)
            .map(|_| DecisionTree::fit(&data, &labels, &TreeParams::default(), &mut rng))
            .collect();
        let rows = (0..64.min(data.n_rows()))
            .map(|r| data.instance(r))
            .collect();
        (trees, rows)
    }

    #[test]
    fn csr_offsets_partition_the_arena() {
        let (trees, _) = fitted_trees(4);
        let flat = FlatForest::from_trees(&trees);
        assert_eq!(flat.n_trees(), 4);
        assert_eq!(
            flat.n_nodes(),
            trees.iter().map(DecisionTree::n_nodes).sum::<usize>()
        );
        for (t, tree) in trees.iter().enumerate() {
            let span = flat.first_out[t + 1] - flat.first_out[t];
            assert_eq!(span as usize, tree.n_nodes(), "tree {t}");
            assert_eq!(flat.depth[t] as usize, tree.depth() - 1, "tree {t}");
        }
    }

    #[test]
    fn flat_walk_is_bit_identical_to_nested_trees() {
        let (trees, rows) = fitted_trees(5);
        let flat = FlatForest::from_trees(&trees);
        for row in &rows {
            let nested: f64 =
                trees.iter().map(|t| t.predict_proba(row)).sum::<f64>() / trees.len() as f64;
            assert_eq!(flat.predict_proba(row), nested);
            for (t, tree) in trees.iter().enumerate() {
                assert_eq!(
                    flat.walk(flat.first_out[t], row),
                    tree.predict_proba(row),
                    "tree {t}"
                );
            }
        }
    }

    #[test]
    fn chunk_matches_per_row_at_every_lane_remainder() {
        let (trees, rows) = fitted_trees(3);
        let flat = FlatForest::from_trees(&trees);
        let n_attrs = rows[0].len();
        for len in 1..=2 * LANES + 1 {
            let buf: Vec<Feature> = rows[..len].iter().flat_map(|r| r.iter().copied()).collect();
            let mut out = vec![f64::NAN; len];
            flat.predict_chunk(&buf, n_attrs, &mut out);
            for (row, got) in rows.iter().zip(&out) {
                assert_eq!(*got, flat.predict_proba(row), "chunk of {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "splits on attribute")]
    fn chunk_rejects_rows_narrower_than_the_splits() {
        let (trees, rows) = fitted_trees(2);
        let flat = FlatForest::from_trees(&trees);
        let narrow = flat.min_attrs - 1;
        let buf: Vec<Feature> = rows[0][..narrow].to_vec();
        flat.predict_chunk(&buf, narrow, &mut [0.0]);
    }
}
