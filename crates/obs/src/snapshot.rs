//! Point-in-time exports of a [`crate::MetricsRegistry`]: JSON for
//! machines (`--metrics-out`), a console table for humans.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry::{bucket_upper_ns, SPAN_PREFIX};

/// Frozen state of one histogram. `buckets` holds only the non-empty
/// buckets as `(bucket_index, count)` pairs; the upper bound of bucket `i`
/// is [`bucket_upper_ns`]`(i)`. The same shape freezes both kinds of
/// histogram: for a unitless value histogram the `_ns`-suffixed fields
/// carry plain values, and the exporters label them accordingly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_ns: u64,
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile `q` in [0, 1]: the upper bound of the bucket
    /// containing the q-th sample, or `None` when the histogram is empty
    /// (matching [`crate::registry::Histogram::quantile_ns`]). Log2
    /// buckets make this exact to within a factor of 2, which is plenty
    /// for latency tails.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            0.0
        };
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper_ns(i));
            }
        }
        self.buckets.last().map(|&(i, _)| bucket_upper_ns(i))
    }
}

/// A point-in-time copy of every metric in a registry. Maps are ordered
/// so exports are deterministic.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    /// Nanosecond-valued histograms (latency, wall time).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Unitless value histograms (batch sizes, counts); exported without
    /// time semantics.
    pub value_histograms: BTreeMap<String, HistogramSnapshot>,
    /// Per-histogram bucket exemplars: `(bucket_index, trace_id)` pairs
    /// recording the last trace id whose sample landed in each bucket
    /// (see [`crate::Histogram::record_ns_traced`]). Only histograms
    /// that saw at least one traced sample appear.
    pub exemplars: BTreeMap<String, Vec<(usize, u64)>>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Serializes the snapshot as JSON. Hand-rolled — metric names are
    /// dot-separated identifiers, never in need of escaping, and the repo
    /// carries no serde.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_map(&mut out, self.counters.iter().map(|(k, v)| (k, *v)));
        out.push_str("},\n  \"gauges\": {");
        push_map(&mut out, self.gauges.iter().map(|(k, v)| (k, *v)));
        out.push_str("},\n  \"histograms\": {");
        push_histograms(&mut out, &self.histograms, "ns");
        out.push_str("},\n  \"value_histograms\": {");
        push_histograms(&mut out, &self.value_histograms, "");
        out.push_str("},\n  \"exemplars\": {");
        self.push_exemplars(&mut out);
        out.push_str("}\n}\n");
        out
    }

    /// Serializes the exemplar map: per histogram, one object per
    /// stamped bucket with the bucket's upper bound (in the histogram's
    /// own unit) and the last trace id that landed there.
    fn push_exemplars(&self, out: &mut String) {
        let mut first = true;
        for (name, pairs) in &self.exemplars {
            if !first {
                out.push(',');
            }
            first = false;
            let suffix = if self.value_histograms.contains_key(name) {
                ""
            } else {
                "_ns"
            };
            write!(out, "\n    \"{}\": [", escape(name)).unwrap();
            for (j, &(i, id)) in pairs.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let le = bucket_upper_ns(i);
                if le == u64::MAX {
                    write!(out, "{{\"le{suffix}\": null, \"trace_id\": {id}}}").unwrap();
                } else {
                    write!(out, "{{\"le{suffix}\": {le}, \"trace_id\": {id}}}").unwrap();
                }
            }
            out.push(']');
        }
        if !first {
            out.push_str("\n  ");
        }
    }

    /// Renders the snapshot as aligned console tables: spans (phase wall
    /// time), counters, gauges, then value histograms.
    pub fn render_table(&self) -> String {
        let mut out = String::new();

        let spans: Vec<(&String, &HistogramSnapshot)> = self
            .histograms
            .iter()
            .filter(|(k, _)| k.starts_with(SPAN_PREFIX))
            .collect();
        if !spans.is_empty() {
            out.push_str("spans (wall time summed over workers)\n");
            out.push_str(&format!(
                "  {:<28} {:>8} {:>12} {:>12} {:>12}\n",
                "phase", "count", "total", "mean", "~p99"
            ));
            for (name, h) in &spans {
                out.push_str(&format!(
                    "  {:<28} {:>8} {:>12} {:>12} {:>12}\n",
                    &name[SPAN_PREFIX.len()..],
                    h.count,
                    fmt_ns(h.sum_ns),
                    fmt_ns(h.mean_ns()),
                    fmt_ns_opt(h.quantile_ns(0.99)),
                ));
            }
        }

        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<40} {v:>12}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<40} {v:>12}\n"));
            }
        }

        let values: Vec<(&String, &HistogramSnapshot)> = self
            .histograms
            .iter()
            .filter(|(k, _)| !k.starts_with(SPAN_PREFIX))
            .collect();
        if !values.is_empty() {
            out.push_str("latency histograms\n");
            out.push_str(&format!(
                "  {:<28} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
                "name", "count", "total", "mean", "~p50", "~p99"
            ));
            for (name, h) in &values {
                out.push_str(&format!(
                    "  {:<28} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
                    name,
                    h.count,
                    fmt_ns(h.sum_ns),
                    fmt_ns(h.mean_ns()),
                    fmt_ns_opt(h.quantile_ns(0.5)),
                    fmt_ns_opt(h.quantile_ns(0.99)),
                ));
            }
        }

        if !self.value_histograms.is_empty() {
            out.push_str("value histograms (unitless)\n");
            out.push_str(&format!(
                "  {:<28} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
                "name", "count", "total", "mean", "~p50", "~p99"
            ));
            for (name, h) in &self.value_histograms {
                out.push_str(&format!(
                    "  {:<28} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
                    name,
                    h.count,
                    h.sum_ns,
                    h.mean_ns(),
                    fmt_plain_opt(h.quantile_ns(0.5)),
                    fmt_plain_opt(h.quantile_ns(0.99)),
                ));
            }
        }
        out
    }
}

/// Serializes one histogram map. `unit` suffixes the field names:
/// `"ns"` yields `sum_ns`/`mean_ns`/`le_ns` for time histograms, `""`
/// yields `sum`/`mean`/`le` for unitless value histograms.
fn push_histograms(out: &mut String, hists: &BTreeMap<String, HistogramSnapshot>, unit: &str) {
    let suffix = if unit.is_empty() {
        String::new()
    } else {
        format!("_{unit}")
    };
    let mut first = true;
    for (name, h) in hists {
        if !first {
            out.push(',');
        }
        first = false;
        write!(
            out,
            "\n    \"{}\": {{\"count\": {}, \"sum{suffix}\": {}, \"mean{suffix}\": {}, \"buckets\": [",
            escape(name),
            h.count,
            h.sum_ns,
            h.mean_ns()
        )
        .unwrap();
        for (j, &(i, n)) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let le = bucket_upper_ns(i);
            if le == u64::MAX {
                write!(out, "{{\"le{suffix}\": null, \"count\": {n}}}").unwrap();
            } else {
                write!(out, "{{\"le{suffix}\": {le}, \"count\": {n}}}").unwrap();
            }
        }
        out.push_str("]}");
    }
    if !first {
        out.push_str("\n  ");
    }
}

fn push_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a String, u64)>) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        write!(out, "\n    \"{}\": {}", escape(k), v).unwrap();
    }
    if !first {
        out.push_str("\n  ");
    }
}

// Metric names are plain identifiers, but escape defensively anyway.
use crate::json::escape;

/// Plain value rendering for unitless histograms (the catch-all bucket
/// still reads "inf").
fn fmt_plain(v: u64) -> String {
    if v == u64::MAX {
        "inf".to_string()
    } else {
        v.to_string()
    }
}

/// Quantile rendering: an empty histogram has no quantiles, shown as "-".
fn fmt_plain_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), fmt_plain)
}

fn fmt_ns_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), fmt_ns)
}

/// Human-scaled duration: ns → µs → ms → s.
fn fmt_ns(ns: u64) -> String {
    match ns {
        n if n == u64::MAX => "inf".to_string(),
        n if n < 1_000 => format!("{n}ns"),
        n if n < 1_000_000 => format!("{:.1}us", n as f64 / 1e3),
        n if n < 1_000_000_000 => format!("{:.1}ms", n as f64 / 1e6),
        n => format!("{:.2}s", n as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn sample_snapshot() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.counter("store.hits").add(7);
        reg.counter("store.misses").add(3);
        reg.gauge("store.resident_bytes").set(4096);
        let h = reg.histogram("classifier.predict");
        h.record_ns(900);
        h.record_ns(1_500);
        h.record_ns(1_500_000);
        reg.span_histogram("fim.mine").record_ns(2_000_000);
        let v = reg.value_histogram("serve.batch_size");
        v.record(4);
        v.record(32);
        reg.snapshot()
    }

    #[test]
    fn json_has_all_sections_and_parses_shapewise() {
        let json = sample_snapshot().to_json();
        for needle in [
            "\"counters\"",
            "\"gauges\"",
            "\"histograms\"",
            "\"store.hits\": 7",
            "\"store.misses\": 3",
            "\"store.resident_bytes\": 4096",
            "\"classifier.predict\"",
            "\"span.fim.mine\"",
            "\"count\": 3",
            "\"le_ns\":",
            "\"value_histograms\"",
            "\"serve.batch_size\": {\"count\": 2, \"sum\": 36, \"mean\": 18",
            "\"le\": 7",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Balanced braces/brackets — cheap structural sanity without a parser.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_snapshot_is_valid_json_shape() {
        let json = MetricsSnapshot::default().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
        assert!(json.contains("\"value_histograms\": {}"));
        assert!(json.contains("\"exemplars\": {}"));
    }

    #[test]
    fn exemplars_export_bucket_bounds_and_trace_ids() {
        let reg = MetricsRegistry::new();
        reg.histogram("serve.request_latency")
            .record_ns_traced(900, 17);
        reg.histogram("serve.request_latency")
            .record_ns_traced(u64::MAX, 23);
        reg.value_histogram("serve.batch_size").record(4);
        let json = reg.snapshot().to_json();
        // ns-unit bound for the time histogram; catch-all renders null.
        assert!(json.contains("\"exemplars\""), "{json}");
        assert!(
            json.contains("{\"le_ns\": 1023, \"trace_id\": 17}"),
            "{json}"
        );
        assert!(
            json.contains("{\"le_ns\": null, \"trace_id\": 23}"),
            "{json}"
        );
        // Untraced histograms contribute no exemplar entries.
        assert!(!json.contains("\"serve.batch_size\": ["), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn accessors_default_to_zero() {
        let snap = sample_snapshot();
        assert_eq!(snap.counter("store.hits"), 7);
        assert_eq!(snap.counter("nope"), 0);
        assert_eq!(snap.gauge("nope"), 0);
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let snap = sample_snapshot();
        let h = &snap.histograms["classifier.predict"];
        assert_eq!(h.count, 3);
        assert!(h.quantile_ns(0.0).unwrap() >= 900);
        assert!(h.quantile_ns(1.0).unwrap() >= 1_500_000);
        let p50 = h.quantile_ns(0.5).unwrap();
        assert!((1_500..1_500_000).contains(&p50));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        // Matches registry::Histogram::quantile_ns: empty means None, not
        // a conjured 0 that downstream math would mistake for "fast".
        let h = HistogramSnapshot::default();
        assert_eq!(h.quantile_ns(0.0), None);
        assert_eq!(h.quantile_ns(0.5), None);
        assert_eq!(h.quantile_ns(1.0), None);
        assert_eq!(h.mean_ns(), 0);
    }

    #[test]
    fn single_sample_quantiles_all_land_in_its_bucket() {
        let reg = MetricsRegistry::new();
        reg.histogram("solo").record_ns(900);
        let snap = reg.snapshot();
        let h = &snap.histograms["solo"];
        assert_eq!(h.count, 1);
        let expected = crate::registry::bucket_upper_ns(crate::registry::bucket_index(900));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), Some(expected), "q={q}");
        }
        // Non-finite q clamps rather than panicking, same as the registry.
        assert_eq!(h.quantile_ns(f64::NAN), Some(expected));
    }

    #[test]
    fn table_renders_all_sections() {
        let table = sample_snapshot().render_table();
        assert!(table.contains("spans"));
        assert!(table.contains("fim.mine"));
        assert!(table.contains("counters"));
        assert!(table.contains("store.hits"));
        assert!(table.contains("gauges"));
        assert!(table.contains("latency histograms"));
        assert!(table.contains("classifier.predict"));
        // Value histograms render unit-free: a batch size of 32 must not
        // pick up a nanosecond suffix.
        assert!(table.contains("value histograms (unitless)"));
        assert!(table.contains("serve.batch_size"));
        let batch_line = table
            .lines()
            .find(|l| l.contains("serve.batch_size"))
            .unwrap();
        assert!(!batch_line.contains("ns") && !batch_line.contains("us"));
    }

    #[test]
    fn escape_handles_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("plain.name"), "plain.name");
    }
}
