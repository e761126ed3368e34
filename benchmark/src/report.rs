//! Metric tables (the single source `BENCHMARK.json` is checked against),
//! the result line the contract asks for, and the files under `out/`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use shahin_obs::json::{escape, fmt_f64};

use crate::spans::{Row, Span};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The five workloads, in run order.
pub const WORKLOADS: [&str; 5] = [
    "batch_lime",
    "batch_anchor",
    "stream_shap",
    "serve_steady",
    "serve_tenants",
];

/// End-to-end metrics: what a user of the system sees. Printed by every
/// workload's untraced run.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("explanations_per_s", "1/s", Higher, 0.25),
    e2e("invocations_per_explanation", "calls", Lower, 0.15),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p99_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// Per-layer metrics, layer = the crate named by the prefix. Printed by
/// every workload's traced run; an in-situ metric of a layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 63] = [
    layer("tabular.synth_s", "s", Lower),
    layer("tabular.encode_ns_per_row", "ns", Lower),
    layer("model.fit_s", "s", Lower),
    layer("model.predict_ns_per_row", "ns", Lower),
    layer("model.invocations", "calls", Lower),
    layer("model.rows_per_call", "rows", Higher),
    layer("model.busy_share", "ratio", Lower),
    layer("fim.mine_ns_per_call", "ns", Lower),
    layer("fim.mine_calls", "count", Lower),
    layer("fim.itemsets", "count", Higher),
    layer("fim.match_ns_per_row", "ns", Lower),
    layer("explain.perturb_ns_per_sample", "ns", Lower),
    layer("explain.lime_cold_ns", "ns", Lower),
    layer("explain.lime_pooled_ns", "ns", Lower),
    layer("explain.shap_pooled_ns", "ns", Lower),
    layer("explain.anchor_search_ns_per_tuple", "ns", Lower),
    layer("explain.anchor_candidates_per_tuple", "count", Lower),
    layer("linalg.ridge_ns", "ns", Lower),
    layer("linalg.wls_ns", "ns", Lower),
    layer("core.prime_s", "s", Lower),
    layer("core.materialize_ns", "ns", Lower),
    layer("core.store_bytes", "B", Lower),
    layer("core.store_match_ns_per_row", "ns", Lower),
    layer("core.store_hit_share", "ratio", Higher),
    layer("core.reuse_share", "ratio", Higher),
    layer("core.store_evictions", "count", Lower),
    layer("core.stream_refreshes", "count", Lower),
    layer("core.anchor_cache_hit_share", "ratio", Higher),
    layer("core.per_tuple_ns", "ns", Lower),
    layer("core.unattributed_share", "ratio", Lower),
    layer("core.warm_explain_ns_per_req", "ns", Lower),
    layer("core.snapshot_write_ns", "ns", Lower),
    layer("core.snapshot_bytes", "B", Lower),
    layer("core.hydrate_ns", "ns", Lower),
    layer("serve.parse_ns_per_frame", "ns", Lower),
    layer("serve.serialize_ns_per_frame", "ns", Lower),
    layer("serve.queue_push_pop_ns", "ns", Lower),
    layer("serve.queue_wait_p50_ms", "ms", Lower),
    layer("serve.queue_wait_p99_ms", "ms", Lower),
    layer("serve.batch_size_mean", "count", Higher),
    layer("serve.engine_p50_ms", "ms", Lower),
    layer("serve.wire_p50_ms", "ms", Lower),
    layer("serve.ref_p999_ms", "ms", Lower),
    layer("serve.loaded_p50_ms", "ms", Lower),
    layer("serve.loaded_p99_ms", "ms", Lower),
    layer("serve.saturation_rps", "1/s", Higher),
    layer("serve.gen_lag_p99_ms", "ms", Lower),
    layer("tenancy.route_ns", "ns", Lower),
    layer("tenancy.shard_ns", "ns", Lower),
    layer("tenancy.cold_start_ms", "ms", Lower),
    layer("tenancy.readmit_ms", "ms", Lower),
    layer("tenancy.cold_starts", "count", Lower),
    layer("tenancy.evictions", "count", Lower),
    layer("tenancy.hydrations", "count", Higher),
    layer("tenancy.hot_alone_p99_ms", "ms", Lower),
    layer("tenancy.hol_p99_ratio", "ratio", Lower),
    layer("tenancy.slow_p50_ms", "ms", Lower),
    layer("tenancy.shap_p50_ms", "ms", Lower),
    layer("tenancy.bursty_p99_ms", "ms", Lower),
    layer("obs.counter_inc_ns", "ns", Lower),
    layer("obs.hist_record_ns", "ns", Lower),
    layer("obs.json_parse_ns_per_kb", "ns", Lower),
    layer("obs.tracing_overhead_pct", "%", Lower),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one workload process hands back.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured run (explanations/requests).
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or went missing.
    pub failed: u64,
    pub values: Values,
    /// Human-readable notes: check verdicts, sample counts, validity.
    pub notes: Vec<String>,
}

/// Where the run happened; carried in every result file.
pub struct Environment {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

impl Environment {
    /// `run.sh` passes the toolchain and commit through the environment;
    /// the checkout the acceptance driver uses is not a git repository.
    pub fn detect() -> Environment {
        let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Environment {
            nproc: nproc(),
            rustc: var("SHAHIN_BENCH_RUSTC"),
            commit: var("SHAHIN_BENCH_COMMIT"),
        }
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used, from
/// `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis: state is field 3, utime 14, stime 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Checks that `values` holds exactly the metrics of `defs` and returns
/// the contract's `"metrics"` object.
pub fn metrics_json(defs: &[MetricDef], values: &Values) -> String {
    for name in values.keys() {
        assert!(
            defs.iter().any(|d| d.name == *name),
            "workload reported unknown metric {name}"
        );
    }
    let mut out = String::from("{");
    for (i, def) in defs.iter().enumerate() {
        let v = values
            .get(def.name)
            .unwrap_or_else(|| panic!("workload did not report {}", def.name));
        assert!(v.is_finite(), "{} is not finite: {v}", def.name);
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            fmt_f64(*v),
            def.unit
        )
        .unwrap();
    }
    out.push('}');
    out
}

/// The one-line result the contract asks for as the last line of stdout.
pub fn result_line(defs: &[MetricDef], outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(defs, &outcome.values)
    )
}

/// `out/<workload>.result.json`: the result line plus provenance of the
/// run (seed, machine, toolchain, commit) and the notes.
pub fn result_file(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    env: &Environment,
    defs: &[MetricDef],
    outcome: &Outcome,
) -> String {
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|n| format!("\"{}\"", escape(n)))
        .collect();
    format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"seconds\": {},\n  \
         \"traced\": {traced},\n  \"nproc\": {},\n  \"rustc\": \"{}\",\n  \"commit\": \"{}\",\n  \
         \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {},\n  \
         \"notes\": [{}]\n}}\n",
        fmt_f64(seconds),
        env.nproc,
        escape(&env.rustc),
        escape(&env.commit),
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(defs, &outcome.values),
        notes.join(", ")
    )
}

/// `out/<workload>.trace.json`: the folded waterfalls, then every span of
/// every named span log (`parent` indexes into the span's own log).
pub fn trace_file(
    workload: &str,
    waterfalls: &[(String, Vec<Row>)],
    logs: &[(&str, &[Span])],
) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\", \"waterfalls\": {{");
    for (i, (name, rows)) in waterfalls.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "\"{}\": [", escape(name)).unwrap();
        for (j, r) in rows.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "{{\"path\": \"{}\", \"self_ns\": {}, \"count\": {}}}",
                escape(&r.path),
                r.self_ns,
                r.count
            )
            .unwrap();
        }
        out.push(']');
    }
    out.push_str("}, \"spans\": {");
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    for (l, (log, spans)) in logs.iter().enumerate() {
        if l > 0 {
            out.push_str(", ");
        }
        writeln!(out, "\"{log}\": [").unwrap();
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            write!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                escape(&s.name),
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            )
            .unwrap();
        }
        out.push_str("\n]");
    }
    out.push_str("}}\n");
    out
}

/// Prints a waterfall as a table: rows, their share, and the total they
/// sum to.
pub fn print_waterfall(title: &str, unit_div: f64, unit: &str, rows: &[Row]) {
    let total: u64 = rows.iter().map(|r| r.self_ns).sum();
    println!("waterfall {title} (self time, {unit}):");
    for r in rows {
        println!(
            "  {:<44} {:>14.3} {:>6.1}%  n={}",
            r.path,
            r.self_ns as f64 / unit_div,
            100.0 * r.self_ns as f64 / total.max(1) as f64,
            r.count
        );
    }
    println!("  {:<44} {:>14.3}", "total", total as f64 / unit_div);
}

/// Writes `contents` to `dir/name`, creating `dir` first.
pub fn write_out(dir: &Path, name: &str, contents: &str) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let path = dir.join(name);
    std::fs::write(&path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut values = Values::new();
        for (i, def) in END_TO_END.iter().enumerate() {
            values.insert(def.name, 1.25 + i as f64);
        }
        let outcome = Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            values,
            notes: Vec::new(),
        };
        let line = result_line(&END_TO_END, &outcome);
        let doc = shahin_obs::json::Json::parse(&line).expect("one JSON object");
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        // `attempted` is at least 1 even when nothing ran.
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(1));
        let setup = doc.at(&["metrics", "setup_s"]).unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
        assert_eq!(
            doc.get("metrics").unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > before);
    }
}
