//! Configuration for the batch and streaming optimizers.
//!
//! Frequent itemsets are mined with level-wise Apriori
//! ([`shahin_fim::apriori()`]): streaming needs its negative border (§3.5),
//! and on the batch samples it is also the fastest miner measured.

/// Configuration of [`crate::ShahinBatch`].
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Minimum relative support for frequent itemset mining over the batch
    /// sample.
    pub min_support: f64,
    /// Maximum frequent itemset length.
    pub max_itemset_len: usize,
    /// Cap on the number of frequent itemsets materialized (highest support
    /// first); bounds the up-front budget `τ · |F|`.
    pub max_itemsets: usize,
    /// Perturbations materialized per frequent itemset (the paper's `τ`,
    /// default 100; Figure 6 sweeps it).
    pub tau: usize,
    /// Byte budget of the perturbation store (Figure 7 sweeps it).
    /// `usize::MAX` disables eviction.
    pub cache_budget_bytes: usize,
    /// Let Shahin shrink `τ` automatically so the up-front materialization
    /// never exceeds what reuse can recover ("the parameter τ is set
    /// automatically by Shahin based on the resource constraints", §3.1).
    /// Disable to study a fixed τ (Figure 6).
    pub auto_tau: bool,
    /// Worker threads for the parallel phases (materialization in
    /// `prepare`, and the per-tuple fan-out of `Method::BatchParallel`).
    /// `None` (the default) uses
    /// [`std::thread::available_parallelism`]. All results are
    /// thread-count invariant for LIME/SHAP (see DESIGN.md, "Threading
    /// model & determinism").
    pub n_threads: Option<usize>,
}

impl BatchConfig {
    /// The effective worker-thread count: the configured override, or the
    /// machine's available parallelism, never less than 1.
    pub fn resolved_n_threads(&self) -> usize {
        self.n_threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
            .max(1)
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            min_support: 0.15,
            max_itemset_len: 3,
            max_itemsets: 200,
            tau: 100,
            cache_budget_bytes: usize::MAX,
            auto_tau: true,
            n_threads: None,
        }
    }
}

/// Configuration of [`crate::ShahinStreaming`] (paper §3.5).
#[derive(Clone, Debug)]
pub struct StreamingConfig {
    /// Memory budget for the perturbation repository, in bytes.
    pub memory_budget_bytes: usize,
    /// Recompute frequent itemsets after this many tuples (the paper's
    /// "certain threshold (automatically chosen by Shahin such as 100)").
    pub refresh_every: usize,
    /// Minimum relative support when re-mining.
    pub min_support: f64,
    /// Maximum frequent itemset length.
    pub max_itemset_len: usize,
    /// Cap on tracked itemsets (frequent + negative border).
    pub max_itemsets: usize,
    /// Perturbations materialized per frequent itemset at refresh time.
    pub tau: usize,
    /// Maintain the negative border of the mined itemsets so itemsets that
    /// become frequent are promoted at the next refresh even when the
    /// miner's cap would drop them (§3.5). Disable only for ablation.
    pub track_negative_border: bool,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            memory_budget_bytes: 64 << 20,
            refresh_every: 100,
            min_support: 0.15,
            max_itemset_len: 3,
            max_itemsets: 200,
            tau: 100,
            track_negative_border: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let b = BatchConfig::default();
        assert_eq!(b.tau, 100, "paper: default τ = 100");
        assert_eq!(b.max_itemset_len, 3);
        let s = StreamingConfig::default();
        assert_eq!(s.refresh_every, 100, "paper: threshold such as 100");
        assert_eq!(s.tau, 100);
    }

    #[test]
    fn n_threads_resolution() {
        let mut b = BatchConfig::default();
        assert!(b.resolved_n_threads() >= 1, "must always have one worker");
        b.n_threads = Some(3);
        assert_eq!(b.resolved_n_threads(), 3);
        b.n_threads = Some(0);
        assert_eq!(b.resolved_n_threads(), 1, "zero clamps to one worker");
    }
}
