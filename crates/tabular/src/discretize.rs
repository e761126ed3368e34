//! Quartile discretization of numeric attributes.
//!
//! LIME and Anchor both discretize numeric attributes (by default into
//! quartiles) before perturbing, and Shahin mines frequent itemsets over the
//! discretized representation (paper §3.6). The [`Discretizer`] maps every
//! attribute into a dense code space: categorical attributes keep their
//! domain codes, numeric attributes map to bin indices. The inverse
//! operation — *undiscretization* — samples a concrete numeric value from a
//! truncated normal fitted to the bin, matching LIME's behaviour.

use rand::Rng;

use crate::dataset::{Column, Dataset, DiscreteTable};
use crate::schema::AttrKind;
use crate::value::{Feature, Instance};

/// Per-bin statistics for undiscretization.
#[derive(Clone, Debug, PartialEq)]
struct BinStat {
    mean: f64,
    std: f64,
    lo: f64,
    hi: f64,
}

/// Discretization spec for one numeric attribute: sorted bin edges and
/// per-bin statistics. `edges.len() + 1 == n_bins`.
#[derive(Clone, Debug, PartialEq)]
pub struct BinSpec {
    edges: Vec<f64>,
    stats: Vec<BinStat>,
}

impl BinSpec {
    /// Fits quartile bins to a numeric column. Duplicate quartile edges
    /// (heavily skewed or constant columns) are deduplicated, so the number
    /// of bins can be anywhere in `1..=4`.
    fn fit(values: &[f64]) -> BinSpec {
        assert!(!values.is_empty(), "cannot discretize an empty column");
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in numeric column"));
        let q = |p: f64| -> f64 {
            let idx = (p * (sorted.len() - 1) as f64).round() as usize;
            sorted[idx]
        };
        let mut edges = vec![q(0.25), q(0.50), q(0.75)];
        edges.dedup();
        // An edge equal to the global max would create an empty last bin.
        let max = *sorted.last().expect("non-empty");
        edges.retain(|&e| e < max);
        let n_bins = edges.len() + 1;
        let mut sums = vec![0.0; n_bins];
        let mut sqs = vec![0.0; n_bins];
        let mut counts = vec![0usize; n_bins];
        let mut los = vec![f64::INFINITY; n_bins];
        let mut his = vec![f64::NEG_INFINITY; n_bins];
        for &v in values {
            let b = bin_of(&edges, v);
            sums[b] += v;
            sqs[b] += v * v;
            counts[b] += 1;
            los[b] = los[b].min(v);
            his[b] = his[b].max(v);
        }
        let stats = (0..n_bins)
            .map(|b| {
                if counts[b] == 0 {
                    // Empty interior bin (possible with pathological data):
                    // degenerate stat at the lower edge.
                    let anchor = if b == 0 { sorted[0] } else { edges[b - 1] };
                    BinStat {
                        mean: anchor,
                        std: 0.0,
                        lo: anchor,
                        hi: anchor,
                    }
                } else {
                    let n = counts[b] as f64;
                    let mean = sums[b] / n;
                    let var = (sqs[b] / n - mean * mean).max(0.0);
                    BinStat {
                        mean,
                        std: var.sqrt(),
                        lo: los[b],
                        hi: his[b],
                    }
                }
            })
            .collect();
        BinSpec { edges, stats }
    }

    /// Number of bins.
    #[inline]
    pub fn n_bins(&self) -> u32 {
        self.stats.len() as u32
    }

    /// The bin index of a value.
    #[inline]
    pub fn bin(&self, value: f64) -> u32 {
        bin_of(&self.edges, value) as u32
    }

    /// Samples a concrete value from the given bin: a normal draw with the
    /// bin's mean/std, rejected until it falls inside `[lo, hi]` (with a
    /// bounded retry count and clamping fallback). This mirrors LIME's
    /// `QuartileDiscretizer.undiscretize`.
    pub fn sample(&self, bin: u32, rng: &mut impl Rng) -> f64 {
        let s = &self.stats[bin as usize];
        if s.std <= f64::EPSILON || s.hi <= s.lo {
            return s.mean;
        }
        for _ in 0..16 {
            let v = s.mean + s.std * standard_normal(rng);
            if v >= s.lo && v <= s.hi {
                return v;
            }
        }
        (s.mean + s.std * standard_normal(rng)).clamp(s.lo, s.hi)
    }
}

/// Index of the bin containing `v` given sorted `edges`: bin `b` covers
/// `(edges[b-1], edges[b]]` with open ends.
#[inline]
fn bin_of(edges: &[f64], v: f64) -> usize {
    edges.iter().take_while(|&&e| v > e).count()
}

/// A standard-normal draw via Box–Muller (we avoid extra dependencies).
fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Maps every attribute of a schema into a dense discretized code space.
#[derive(Clone, Debug)]
pub struct Discretizer {
    /// `Some(spec)` for numeric attributes, `None` for categorical ones.
    bins: Vec<Option<BinSpec>>,
    n_codes: Vec<u32>,
}

impl Discretizer {
    /// Fits quartile bins on every numeric column of `train`.
    pub fn fit(train: &Dataset) -> Discretizer {
        let mut bins = Vec::with_capacity(train.n_attrs());
        let mut n_codes = Vec::with_capacity(train.n_attrs());
        for attr in 0..train.n_attrs() {
            match (&train.schema().attr(attr).kind, train.column(attr)) {
                (AttrKind::Categorical { cardinality }, _) => {
                    bins.push(None);
                    n_codes.push(*cardinality);
                }
                (AttrKind::Numeric, Column::Num(values)) => {
                    let spec = BinSpec::fit(values);
                    n_codes.push(spec.n_bins());
                    bins.push(Some(spec));
                }
                _ => unreachable!("dataset validated against schema"),
            }
        }
        Discretizer { bins, n_codes }
    }

    /// Number of attributes covered.
    #[inline]
    pub fn n_attrs(&self) -> usize {
        self.bins.len()
    }

    /// Number of discrete codes for attribute `attr`.
    #[inline]
    pub fn n_codes(&self, attr: usize) -> u32 {
        self.n_codes[attr]
    }

    /// Discretized code of a single feature.
    #[inline]
    pub fn code(&self, attr: usize, feature: Feature) -> u32 {
        match (&self.bins[attr], feature) {
            (None, Feature::Cat(c)) => c,
            (Some(spec), Feature::Num(v)) => spec.bin(v),
            _ => panic!("feature kind does not match discretizer for attr {attr}"),
        }
    }

    /// Discretizes a whole instance.
    pub fn encode_instance(&self, instance: &[Feature]) -> Vec<u32> {
        assert_eq!(instance.len(), self.bins.len(), "arity mismatch");
        instance
            .iter()
            .enumerate()
            .map(|(a, &f)| self.code(a, f))
            .collect()
    }

    /// Discretizes a whole dataset into a [`DiscreteTable`].
    pub fn encode_dataset(&self, data: &Dataset) -> DiscreteTable {
        assert_eq!(data.n_attrs(), self.bins.len(), "arity mismatch");
        let cols = (0..data.n_attrs())
            .map(|attr| match (self.bins[attr].as_ref(), data.column(attr)) {
                (None, Column::Cat(codes)) => codes.clone(),
                (Some(spec), Column::Num(values)) => values.iter().map(|&v| spec.bin(v)).collect(),
                _ => unreachable!("dataset validated against schema"),
            })
            .collect();
        DiscreteTable::new(cols)
    }

    /// Reconstructs a concrete [`Feature`] for attribute `attr` from a
    /// discretized code: identity for categorical attributes, a truncated
    /// normal sample within the bin for numeric ones.
    #[inline]
    pub fn undiscretize(&self, attr: usize, code: u32, rng: &mut impl Rng) -> Feature {
        match &self.bins[attr] {
            None => Feature::Cat(code),
            Some(spec) => Feature::Num(spec.sample(code, rng)),
        }
    }

    /// Reconstructs a full instance from discretized codes.
    pub fn undiscretize_instance(&self, codes: &[u32], rng: &mut impl Rng) -> Instance {
        assert_eq!(codes.len(), self.bins.len(), "arity mismatch");
        codes
            .iter()
            .enumerate()
            .map(|(a, &c)| self.undiscretize(a, c, rng))
            .collect()
    }

    /// Appends the reconstructed features for `codes` onto `out`: the same
    /// draws, consuming the RNG in the same per-attribute order, as
    /// [`Self::undiscretize_instance`] — but into a caller-owned flat
    /// buffer, so batch producers pack many rows without a `Vec` per row.
    pub fn undiscretize_into(&self, codes: &[u32], rng: &mut impl Rng, out: &mut Vec<Feature>) {
        assert_eq!(codes.len(), self.bins.len(), "arity mismatch");
        out.extend(
            codes
                .iter()
                .enumerate()
                .map(|(a, &c)| self.undiscretize(a, c, rng)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn numeric_dataset(values: Vec<f64>) -> Dataset {
        let schema = Arc::new(Schema::new(vec![Attribute::numeric("x")]));
        Dataset::new(schema, vec![Column::Num(values)])
    }

    #[test]
    fn quartiles_of_uniform_ramp() {
        let d = numeric_dataset((0..100).map(f64::from).collect());
        let disc = Discretizer::fit(&d);
        assert_eq!(disc.n_codes(0), 4);
        assert_eq!(disc.code(0, Feature::Num(0.0)), 0);
        assert_eq!(disc.code(0, Feature::Num(30.0)), 1);
        assert_eq!(disc.code(0, Feature::Num(60.0)), 2);
        assert_eq!(disc.code(0, Feature::Num(99.0)), 3);
    }

    #[test]
    fn constant_column_single_bin() {
        let d = numeric_dataset(vec![5.0; 50]);
        let disc = Discretizer::fit(&d);
        assert_eq!(disc.n_codes(0), 1);
        assert_eq!(disc.code(0, Feature::Num(5.0)), 0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(disc.undiscretize(0, 0, &mut rng), Feature::Num(5.0));
    }

    #[test]
    fn undiscretize_stays_within_bin() {
        let d = numeric_dataset((0..1000).map(|i| i as f64 / 10.0).collect());
        let disc = Discretizer::fit(&d);
        let mut rng = StdRng::seed_from_u64(7);
        for bin in 0..disc.n_codes(0) {
            for _ in 0..200 {
                let f = disc.undiscretize(0, bin, &mut rng);
                let v = f.num();
                assert_eq!(
                    disc.code(0, Feature::Num(v)),
                    bin,
                    "value {v} left bin {bin}"
                );
            }
        }
    }

    #[test]
    fn categorical_attr_passthrough() {
        let schema = Arc::new(Schema::new(vec![Attribute::categorical("c", 5)]));
        let d = Dataset::new(schema, vec![Column::Cat(vec![0, 1, 4, 2])]);
        let disc = Discretizer::fit(&d);
        assert_eq!(disc.n_codes(0), 5);
        assert_eq!(disc.code(0, Feature::Cat(4)), 4);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(disc.undiscretize(0, 3, &mut rng), Feature::Cat(3));
    }

    #[test]
    fn encode_dataset_matches_per_feature_encoding() {
        let schema = Arc::new(Schema::new(vec![
            Attribute::categorical("c", 3),
            Attribute::numeric("x"),
        ]));
        let d = Dataset::new(
            schema,
            vec![
                Column::Cat(vec![0, 2, 1, 0]),
                Column::Num(vec![1.0, 10.0, 5.0, 7.0]),
            ],
        );
        let disc = Discretizer::fit(&d);
        let table = disc.encode_dataset(&d);
        for r in 0..d.n_rows() {
            assert_eq!(table.row(r), disc.encode_instance(&d.instance(r)));
        }
    }

    #[test]
    fn skewed_column_dedupes_edges() {
        // 90% zeros: q25 = q50 = q75 = 0, so a single edge survives at most.
        let mut values = vec![0.0; 90];
        values.extend((1..=10).map(f64::from));
        let d = numeric_dataset(values);
        let disc = Discretizer::fit(&d);
        assert!(disc.n_codes(0) <= 2, "got {} bins", disc.n_codes(0));
        // All values are still encodable.
        assert_eq!(disc.code(0, Feature::Num(0.0)), 0);
        assert!(disc.code(0, Feature::Num(10.0)) < disc.n_codes(0));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
