//! Measurement types shared by every driver and experiment.

use std::time::Duration;

/// Where Shahin's bookkeeping time went (Figure 5 reports this as a
/// percentage of total runtime).
#[derive(Clone, Copy, Debug, Default)]
pub struct OverheadBreakdown {
    /// Frequent itemset mining over the batch sample.
    pub fim: Duration,
    /// Generating + labeling the materialized perturbations.
    ///
    /// Classifier time inside materialization is *useful* work (it replaces
    /// per-tuple invocations), so it is reported separately from the pure
    /// bookkeeping below.
    pub materialization: Duration,
    /// Retrieving matching perturbations per tuple.
    pub retrieval: Duration,
}

impl OverheadBreakdown {
    /// Pure bookkeeping overhead: mining + retrieval (materialization is
    /// amortized classifier work, the paper's accounting).
    pub fn bookkeeping(&self) -> Duration {
        self.fim + self.retrieval
    }
}

/// Metrics of one batch run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunMetrics {
    /// Classifier invocations consumed by the whole run (including
    /// materialization).
    pub invocations: u64,
    /// End-to-end wall-clock time.
    pub wall: Duration,
    /// Overhead breakdown (only retrieval for the baselines).
    pub overhead: OverheadBreakdown,
    /// Peak bytes resident in the perturbation store.
    pub store_bytes: usize,
    /// Number of frequent itemsets materialized.
    pub n_frequent: usize,
    /// Number of tuples explained.
    pub n_tuples: usize,
}

impl RunMetrics {
    /// Average wall-clock seconds per explained tuple (Table 1's metric).
    pub fn per_tuple_secs(&self) -> f64 {
        if self.n_tuples == 0 {
            0.0
        } else {
            self.wall.as_secs_f64() / self.n_tuples as f64
        }
    }

    /// Average classifier invocations per tuple.
    pub fn invocations_per_tuple(&self) -> f64 {
        if self.n_tuples == 0 {
            0.0
        } else {
            self.invocations as f64 / self.n_tuples as f64
        }
    }

    /// Bookkeeping overhead as a fraction of wall time (Figure 5).
    pub fn overhead_fraction(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.overhead.bookkeeping().as_secs_f64() / self.wall.as_secs_f64()
        }
    }
}

/// The failure taxonomy of a quarantined tuple (mirrors
/// `shahin_model::PredictError`, plus `Panic` for unwinds that carry no
/// typed error).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// A retryable transient failure survived the retry budget.
    Transient,
    /// A per-call deadline overran past the retry budget.
    Timeout,
    /// The model output was not a probability and could not be sanitized.
    InvalidOutput,
    /// An unrecoverable classifier failure (breaker open, exhausted
    /// budget, model panic converted by the resilient wrapper).
    Fatal,
    /// An unclassified panic unwound out of the tuple's explanation.
    Panic,
}

impl FailureKind {
    /// Stable lowercase name (used in reports and CLI summaries).
    pub fn name(&self) -> &'static str {
        match self {
            FailureKind::Transient => "transient",
            FailureKind::Timeout => "timeout",
            FailureKind::InvalidOutput => "invalid_output",
            FailureKind::Fatal => "fatal",
            FailureKind::Panic => "panic",
        }
    }
}

/// One quarantined tuple: the batch finished without it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TupleFailure {
    /// Batch row index of the tuple.
    pub row: u32,
    /// Failure taxonomy bucket.
    pub kind: FailureKind,
    /// Human-readable cause (panic message or error display).
    pub message: String,
}

/// Degraded-mode outcome of a batch: which tuples failed (quarantined, no
/// explanation produced) and which degraded (explained, but the resilient
/// boundary absorbed retries or sanitized garbage along the way).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Quarantined tuples, in row order.
    pub failures: Vec<TupleFailure>,
    /// Rows explained in degraded mode, in row order.
    pub degraded: Vec<u32>,
}

impl BatchReport {
    /// Whether every tuple was explained cleanly.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.degraded.is_empty()
    }

    /// One-line summary, e.g. `"2 failed (1 panic, 1 fatal), 3 degraded"`.
    pub fn summary(&self) -> String {
        if self.failures.is_empty() && self.degraded.is_empty() {
            return "all tuples explained cleanly".into();
        }
        let mut by_kind: Vec<(&'static str, usize)> = Vec::new();
        for f in &self.failures {
            match by_kind.iter_mut().find(|(k, _)| *k == f.kind.name()) {
                Some((_, n)) => *n += 1,
                None => by_kind.push((f.kind.name(), 1)),
            }
        }
        let kinds: Vec<String> = by_kind.iter().map(|(k, n)| format!("{n} {k}")).collect();
        let failed = if self.failures.is_empty() {
            "0 failed".to_string()
        } else {
            format!("{} failed ({})", self.failures.len(), kinds.join(", "))
        };
        format!("{failed}, {} degraded", self.degraded.len())
    }
}

/// Explanations plus the metrics of producing them.
#[derive(Clone, Debug)]
pub struct BatchResult<T> {
    /// One explanation per *surviving* batch tuple, in batch order
    /// (quarantined rows are absent; see [`BatchResult::report`]).
    pub explanations: Vec<T>,
    /// Run metrics.
    pub metrics: RunMetrics,
    /// Failed/degraded tuple accounting. Empty (`is_clean`) for every
    /// run whose classifier never misbehaves.
    pub report: BatchReport,
}

/// Speedup of `ours` relative to `baseline` by wall-clock time.
pub fn speedup_wall(baseline: &RunMetrics, ours: &RunMetrics) -> f64 {
    baseline.wall.as_secs_f64() / ours.wall.as_secs_f64().max(1e-12)
}

/// Speedup of `ours` relative to `baseline` by classifier invocations (the
/// deterministic, machine-independent variant of the paper's metric).
pub fn speedup_invocations(baseline: &RunMetrics, ours: &RunMetrics) -> f64 {
    baseline.invocations as f64 / (ours.invocations as f64).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tuple_and_overhead_fractions() {
        let m = RunMetrics {
            invocations: 1000,
            wall: Duration::from_secs(10),
            overhead: OverheadBreakdown {
                fim: Duration::from_millis(200),
                materialization: Duration::from_secs(2),
                retrieval: Duration::from_millis(300),
            },
            store_bytes: 0,
            n_frequent: 5,
            n_tuples: 100,
        };
        assert!((m.per_tuple_secs() - 0.1).abs() < 1e-12);
        assert!((m.invocations_per_tuple() - 10.0).abs() < 1e-12);
        assert!((m.overhead_fraction() - 0.05).abs() < 1e-12);
        assert_eq!(m.overhead.bookkeeping(), Duration::from_millis(500));
    }

    #[test]
    fn speedups() {
        let base = RunMetrics {
            invocations: 1000,
            wall: Duration::from_secs(20),
            n_tuples: 10,
            ..Default::default()
        };
        let ours = RunMetrics {
            invocations: 100,
            wall: Duration::from_secs(2),
            n_tuples: 10,
            ..Default::default()
        };
        assert!((speedup_wall(&base, &ours) - 10.0).abs() < 1e-9);
        assert!((speedup_invocations(&base, &ours) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn batch_report_summary_counts_by_kind() {
        let clean = BatchReport::default();
        assert!(clean.is_clean());
        assert_eq!(clean.summary(), "all tuples explained cleanly");

        let report = BatchReport {
            failures: vec![
                TupleFailure {
                    row: 3,
                    kind: FailureKind::Panic,
                    message: "boom".into(),
                },
                TupleFailure {
                    row: 7,
                    kind: FailureKind::Fatal,
                    message: "budget".into(),
                },
                TupleFailure {
                    row: 9,
                    kind: FailureKind::Panic,
                    message: "boom again".into(),
                },
            ],
            degraded: vec![1, 4],
        };
        assert!(!report.is_clean());
        assert_eq!(report.summary(), "3 failed (2 panic, 1 fatal), 2 degraded");
    }

    #[test]
    fn zero_division_is_safe() {
        let m = RunMetrics::default();
        assert_eq!(m.per_tuple_secs(), 0.0);
        assert_eq!(m.invocations_per_tuple(), 0.0);
        assert_eq!(m.overhead_fraction(), 0.0);
        assert!(!m.per_tuple_secs().is_nan());
        assert!(!m.invocations_per_tuple().is_nan());
        assert!(!m.overhead_fraction().is_nan());
        // Non-zero wall with zero tuples (an empty batch still spends
        // preparation time) must also divide cleanly.
        let m = RunMetrics {
            wall: Duration::from_secs(1),
            invocations: 10,
            n_tuples: 0,
            ..Default::default()
        };
        assert_eq!(m.per_tuple_secs(), 0.0);
        assert_eq!(m.invocations_per_tuple(), 0.0);
        assert!(!m.per_tuple_secs().is_nan());
        assert!(m.per_tuple_secs().is_finite());
    }
}
