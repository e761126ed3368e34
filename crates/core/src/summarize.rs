//! Batch explanation summarization.
//!
//! The applications motivating the EMP problem — responsible AI audits,
//! explanation summarization, model debugging (paper §1) — don't stop at
//! producing one explanation per tuple: they aggregate the batch into a
//! global picture. This module provides those aggregations:
//!
//! * [`summarize_attributions`] — global feature importance from a batch
//!   of LIME/SHAP weight vectors,
//! * [`summarize_rules`] — the recurring Anchor rules with their average
//!   precision and coverage, per anchored class,
//! * [`top_k_overlap`] — ranking stability between two explanation runs
//!   (e.g. Shahin vs sequential, or two explainers).

use std::collections::HashMap;

use shahin_explain::{AnchorExplanation, FeatureWeights};
use shahin_fim::Itemset;
use shahin_tabular::Schema;

/// Global feature-importance aggregates over a batch of attribution
/// explanations.
#[derive(Clone, Debug)]
pub struct AttributionSummary {
    /// Mean |weight| per attribute: global importance.
    pub mean_abs_weight: Vec<f64>,
    /// Mean signed weight per attribute: directionality toward the
    /// positive class.
    pub mean_weight: Vec<f64>,
    /// How often each attribute ranked first.
    pub top1_counts: Vec<usize>,
    /// Number of explanations aggregated.
    pub n: usize,
}

impl AttributionSummary {
    /// Attributes ordered by decreasing global importance.
    pub fn global_ranking(&self) -> Vec<usize> {
        shahin_linalg::rank_by_magnitude(&self.mean_abs_weight)
    }

    /// A human-readable report of the `k` most important attributes.
    pub fn report(&self, schema: &Schema, k: usize) -> String {
        let mut out = String::from("attribute        mean|w|    mean w   top-1\n");
        for &attr in self.global_ranking().iter().take(k) {
            out.push_str(&format!(
                "{:<16} {:>7.4}  {:>+8.4}  {:>5}\n",
                schema.attr(attr).name,
                self.mean_abs_weight[attr],
                self.mean_weight[attr],
                self.top1_counts[attr]
            ));
        }
        out
    }
}

/// Aggregates a batch of attribution explanations.
pub fn summarize_attributions(explanations: &[FeatureWeights]) -> AttributionSummary {
    assert!(!explanations.is_empty(), "nothing to summarize");
    let m = explanations[0].weights.len();
    let mut mean_abs = vec![0.0; m];
    let mut mean = vec![0.0; m];
    let mut top1 = vec![0usize; m];
    for e in explanations {
        assert_eq!(e.weights.len(), m, "inconsistent explanation arity");
        for (j, &w) in e.weights.iter().enumerate() {
            mean_abs[j] += w.abs();
            mean[j] += w;
        }
        if let Some(&first) = e.ranking().first() {
            top1[first] += 1;
        }
    }
    let n = explanations.len();
    for v in mean_abs.iter_mut().chain(mean.iter_mut()) {
        *v /= n as f64;
    }
    AttributionSummary {
        mean_abs_weight: mean_abs,
        mean_weight: mean,
        top1_counts: top1,
        n,
    }
}

/// One recurring anchor rule with its aggregate statistics.
#[derive(Clone, Debug)]
pub struct RuleStat {
    /// The rule predicate.
    pub rule: Itemset,
    /// The class it anchors.
    pub class: u8,
    /// Number of tuples anchored by it.
    pub count: usize,
    /// Mean estimated precision across those tuples.
    pub mean_precision: f64,
    /// Mean estimated coverage.
    pub mean_coverage: f64,
}

/// Recurring anchor rules, most frequent first.
#[derive(Clone, Debug)]
pub struct RuleSummary {
    /// All distinct (class, rule) pairs with statistics.
    pub rules: Vec<RuleStat>,
    /// Number of explanations aggregated.
    pub n: usize,
}

impl RuleSummary {
    /// The `k` most recurrent rules.
    pub fn top(&self, k: usize) -> &[RuleStat] {
        &self.rules[..k.min(self.rules.len())]
    }

    /// A human-readable report of the top `k` rules, resolving attribute
    /// names through the schema.
    pub fn report(&self, schema: &Schema, k: usize) -> String {
        let mut out =
            String::from("class  rule                                  tuples  prec   cov\n");
        for r in self.top(k) {
            let pred = if r.rule.is_empty() {
                "(no anchor)".to_string()
            } else {
                r.rule
                    .items()
                    .iter()
                    .map(|it| format!("{}={}", schema.attr(it.attr as usize).name, it.code))
                    .collect::<Vec<_>>()
                    .join(" AND ")
            };
            out.push_str(&format!(
                "{:<6} {:<36} {:>6}  {:.2}  {:.2}\n",
                r.class, pred, r.count, r.mean_precision, r.mean_coverage
            ));
        }
        out
    }
}

/// Aggregates a batch of anchor explanations into recurring rules.
pub fn summarize_rules(explanations: &[AnchorExplanation]) -> RuleSummary {
    assert!(!explanations.is_empty(), "nothing to summarize");
    let mut acc: HashMap<(u8, Itemset), (usize, f64, f64)> = HashMap::new();
    for e in explanations {
        let entry = acc
            .entry((e.anchored_class, e.rule.clone()))
            .or_insert((0, 0.0, 0.0));
        entry.0 += 1;
        entry.1 += e.precision;
        entry.2 += e.coverage;
    }
    let mut rules: Vec<RuleStat> = acc
        .into_iter()
        .map(|((class, rule), (count, p, c))| RuleStat {
            rule,
            class,
            count,
            mean_precision: p / count as f64,
            mean_coverage: c / count as f64,
        })
        .collect();
    rules.sort_by(|a, b| b.count.cmp(&a.count).then(a.rule.cmp(&b.rule)));
    RuleSummary {
        rules,
        n: explanations.len(),
    }
}

/// Average fraction of shared attributes among the top-`k` of each pair of
/// explanations (1.0 = identical top-k sets everywhere).
pub fn top_k_overlap(a: &[FeatureWeights], b: &[FeatureWeights], k: usize) -> f64 {
    assert_eq!(a.len(), b.len(), "batch size mismatch");
    assert!(!a.is_empty(), "empty batch");
    assert!(k >= 1, "k must be positive");
    let mut total = 0.0;
    for (x, y) in a.iter().zip(b) {
        let tx = x.top_k(k);
        let ty = y.top_k(k);
        let shared = tx.iter().filter(|i| ty.contains(i)).count();
        total += shared as f64 / k.min(tx.len()).max(1) as f64;
    }
    total / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use shahin_fim::Item;
    use shahin_tabular::Attribute;

    fn weights(w: Vec<f64>) -> FeatureWeights {
        FeatureWeights {
            weights: w,
            intercept: 0.0,
            local_prediction: 0.5,
        }
    }

    fn schema3() -> Schema {
        Schema::new(vec![
            Attribute::categorical("a", 2),
            Attribute::categorical("b", 2),
            Attribute::numeric("x"),
        ])
    }

    #[test]
    fn attribution_summary_aggregates() {
        let es = vec![weights(vec![1.0, -0.5, 0.0]), weights(vec![0.5, 0.5, 0.0])];
        let s = summarize_attributions(&es);
        assert_eq!(s.n, 2);
        assert_eq!(s.mean_abs_weight, vec![0.75, 0.5, 0.0]);
        assert_eq!(s.mean_weight, vec![0.75, 0.0, 0.0]);
        assert_eq!(s.top1_counts, vec![2, 0, 0]);
        assert_eq!(s.global_ranking()[0], 0);
        let report = s.report(&schema3(), 2);
        assert!(report.contains('a'), "{report}");
    }

    #[test]
    fn rule_summary_groups_and_orders() {
        let r1 = Itemset::new(vec![Item::new(0, 1)]);
        let r2 = Itemset::new(vec![Item::new(1, 0)]);
        let mk = |rule: &Itemset, class, precision, coverage| AnchorExplanation {
            rule: rule.clone(),
            precision,
            coverage,
            anchored_class: class,
        };
        let es = vec![
            mk(&r1, 1, 0.9, 0.3),
            mk(&r1, 1, 1.0, 0.3),
            mk(&r2, 0, 0.95, 0.5),
        ];
        let s = summarize_rules(&es);
        assert_eq!(s.rules.len(), 2);
        assert_eq!(s.rules[0].count, 2);
        assert_eq!(s.rules[0].rule, r1);
        assert!((s.rules[0].mean_precision - 0.95).abs() < 1e-12);
        assert_eq!(s.top(1).len(), 1);
        let report = s.report(&schema3(), 5);
        assert!(report.contains("a=1"), "{report}");
    }

    #[test]
    fn top_k_overlap_bounds() {
        let a = vec![weights(vec![1.0, 0.5, 0.1])];
        let same = top_k_overlap(&a, &a, 2);
        assert_eq!(same, 1.0);
        let b = vec![weights(vec![0.1, 0.5, 1.0])];
        let partial = top_k_overlap(&a, &b, 2);
        assert!((partial - 0.5).abs() < 1e-12, "{partial}");
    }

    #[test]
    #[should_panic(expected = "nothing to summarize")]
    fn empty_batch_rejected() {
        summarize_attributions(&[]);
    }
}
