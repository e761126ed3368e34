//! Per-tuple panic isolation for the batch drivers.
//!
//! A production batch must not lose hours of materialized perturbation
//! work because one tuple's classifier call misbehaved. The per-tuple
//! kernel every driver explains through ([`crate::kernel`]) wraps each
//! tuple in [`guard_tuple`]: a panic unwinding out of
//! the tuple (either a raw panic from the model or a typed
//! [`shahin_model::PredictError`] escalated by the resilient wrapper) is
//! caught, classified, and turned into a
//! [`crate::metrics::TupleFailure`] — the batch finishes without the
//! tuple, and shared state (the perturbation store, the metrics registry,
//! the Anchor caches) stays usable because it is all lock-free or guarded
//! by non-poisoning `parking_lot` locks.

use std::panic::{catch_unwind, AssertUnwindSafe};

use shahin_model::{degraded_incidents, payload_message, PredictError};
use shahin_obs::{Counter, MetricsRegistry};

use crate::metrics::{BatchReport, FailureKind, TupleFailure};
use crate::obs::names;

/// Resolved handles for the driver-level `resilience.*` counters.
#[derive(Clone)]
pub(crate) struct QuarantineObs {
    panics_isolated: Counter,
    tuples_failed: Counter,
    tuples_degraded: Counter,
}

impl QuarantineObs {
    pub(crate) fn new(reg: &MetricsRegistry) -> QuarantineObs {
        QuarantineObs {
            panics_isolated: reg.counter(names::RESILIENCE_PANICS_ISOLATED),
            tuples_failed: reg.counter(names::RESILIENCE_TUPLES_FAILED),
            tuples_degraded: reg.counter(names::RESILIENCE_TUPLES_DEGRADED),
        }
    }

    /// Counts one contained unwind that did not kill a tuple (itemset
    /// materialization, base-value estimation, streaming refresh).
    pub(crate) fn note_contained_panic(&self) {
        self.panics_isolated.inc();
    }

    pub(crate) fn note_degraded(&self) {
        self.tuples_degraded.inc();
    }

    fn note_failed(&self) {
        self.panics_isolated.inc();
        self.tuples_failed.inc();
    }
}

/// Maps a caught panic payload to the failure taxonomy: a typed
/// [`PredictError`] keeps its kind, anything else is an unclassified
/// panic.
pub(crate) fn classify_payload(payload: Box<dyn std::any::Any + Send>) -> (FailureKind, String) {
    let kind = match payload.downcast_ref::<PredictError>() {
        Some(PredictError::Transient { .. }) => FailureKind::Transient,
        Some(PredictError::Timeout { .. }) => FailureKind::Timeout,
        Some(PredictError::InvalidOutput { .. }) => FailureKind::InvalidOutput,
        Some(PredictError::Fatal { .. }) => FailureKind::Fatal,
        None => FailureKind::Panic,
    };
    (kind, payload_message(&*payload))
}

/// Outcome of one guarded tuple.
pub(crate) enum TupleOutcome<T> {
    /// Explained cleanly.
    Ok(T),
    /// Explained, but the resilient boundary absorbed incidents
    /// (retries, sanitized outputs) along the way.
    Degraded(T),
    /// A panic unwound out of the tuple; it is quarantined.
    Failed(TupleFailure),
}

/// Runs one tuple's explanation body with panic isolation and degraded
/// detection. `body` must run entirely on the calling thread (every
/// driver in this crate explains a tuple on exactly one worker), because
/// degradation is detected via a thread-local incident counter delta.
/// The body receives the baseline incident count, so it can compute the
/// tuple's degraded flag itself (for the provenance record) via
/// `degraded_incidents() > baseline`, and returns `(value, degraded)` —
/// the flag is OR-ed with the final delta check.
pub(crate) fn guard_tuple<T>(
    row: u32,
    obs: &QuarantineObs,
    body: impl FnOnce(u64) -> (T, bool),
) -> TupleOutcome<T> {
    let incidents0 = degraded_incidents();
    match catch_unwind(AssertUnwindSafe(|| body(incidents0))) {
        Ok((value, extra_degraded)) => {
            if extra_degraded || degraded_incidents() > incidents0 {
                obs.note_degraded();
                TupleOutcome::Degraded(value)
            } else {
                TupleOutcome::Ok(value)
            }
        }
        Err(payload) => {
            obs.note_failed();
            let (kind, message) = classify_payload(payload);
            TupleOutcome::Failed(TupleFailure { row, kind, message })
        }
    }
}

/// Folds a driver's per-row outcomes, in row order (position == row),
/// into the surviving explanations and the batch report, whose failures
/// and degraded rows therefore come out in row order too.
pub(crate) fn collect_outcomes<T>(
    outcomes: impl IntoIterator<Item = TupleOutcome<T>>,
) -> (Vec<T>, BatchReport) {
    let mut explanations = Vec::new();
    let mut report = BatchReport::default();
    for (row, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            TupleOutcome::Ok(v) => explanations.push(v),
            TupleOutcome::Degraded(v) => {
                explanations.push(v);
                report.degraded.push(row as u32);
            }
            TupleOutcome::Failed(f) => report.failures.push(f),
        }
    }
    (explanations, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> (MetricsRegistry, QuarantineObs) {
        let reg = MetricsRegistry::new();
        let q = QuarantineObs::new(&reg);
        (reg, q)
    }

    #[test]
    fn clean_body_is_ok() {
        let (reg, q) = obs();
        match guard_tuple(0, &q, |_| (42, false)) {
            TupleOutcome::Ok(42) => {}
            _ => panic!("expected clean outcome"),
        }
        assert_eq!(reg.snapshot().counter(names::RESILIENCE_TUPLES_FAILED), 0);
    }

    #[test]
    fn extra_degraded_flag_marks_the_tuple() {
        let (reg, q) = obs();
        match guard_tuple(1, &q, |_| ("x", true)) {
            TupleOutcome::Degraded("x") => {}
            _ => panic!("expected degraded outcome"),
        }
        assert_eq!(reg.snapshot().counter(names::RESILIENCE_TUPLES_DEGRADED), 1);
    }

    #[test]
    fn raw_panics_classify_as_panic_kind() {
        let (reg, q) = obs();
        let outcome = guard_tuple(7, &q, |_| -> (u32, bool) { panic!("model exploded") });
        match outcome {
            TupleOutcome::Failed(f) => {
                assert_eq!(f.row, 7);
                assert_eq!(f.kind, FailureKind::Panic);
                assert!(f.message.contains("model exploded"));
            }
            _ => panic!("expected failure"),
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter(names::RESILIENCE_TUPLES_FAILED), 1);
        assert_eq!(snap.counter(names::RESILIENCE_PANICS_ISOLATED), 1);
    }

    #[test]
    fn typed_payloads_keep_their_kind() {
        let (_reg, q) = obs();
        let outcome = guard_tuple(3, &q, |_| -> (u32, bool) {
            std::panic::panic_any(PredictError::Fatal {
                message: "retry budget exhausted".into(),
            })
        });
        match outcome {
            TupleOutcome::Failed(f) => {
                assert_eq!(f.kind, FailureKind::Fatal);
                assert!(f.message.contains("retry budget exhausted"));
            }
            _ => panic!("expected failure"),
        }
    }

    #[test]
    fn incident_delta_marks_degraded_without_explicit_flag() {
        use shahin_model::{FallibleClassifier, ResilientClassifier, RetryPolicy};
        use shahin_tabular::Feature;
        struct Nan;
        impl FallibleClassifier for Nan {
            fn try_predict_proba(&self, _i: &[Feature]) -> Result<f64, shahin_model::PredictError> {
                Ok(f64::NAN)
            }
        }
        let (_reg, q) = obs();
        let clf = ResilientClassifier::new(Nan, RetryPolicy::default());
        let outcome = guard_tuple(0, &q, |_| {
            use shahin_model::Classifier;
            (clf.predict_proba(&[Feature::Cat(0)]), false)
        });
        match outcome {
            TupleOutcome::Degraded(p) => assert_eq!(p, 0.5),
            _ => panic!("sanitized output must mark the tuple degraded"),
        }
    }
}
