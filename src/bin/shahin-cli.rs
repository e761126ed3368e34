//! Command-line interface for the Shahin reproduction.
//!
//! ```text
//! shahin-cli synth   --preset census --rows 5000 --out data.csv
//! shahin-cli mine    --csv data.csv --label label --min-support 0.2
//! shahin-cli explain --csv data.csv --label label --explainer lime \
//!                    --method batch --batch-size 500 --summary
//! shahin-cli serve   --csv data.csv --label label --warm-rows 200 \
//!                    --addr 127.0.0.1:7878
//! ```
//!
//! Arguments are parsed by hand (no CLI dependency); run with `--help` for
//! the full reference.

use std::collections::HashMap;
use std::fs::File;
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin::{
    run_with_obs, summarize_attributions, summarize_rules, BatchConfig, ExplainerKind, Greedy,
    Method, MetricsRegistry,
};
use shahin_explain::{AnchorExplainer, ExplainContext, KernelShapExplainer, LimeExplainer};
use shahin_fim::{apriori, shahin_sample_size, AprioriParams};
use shahin_model::{
    ChaosClassifier, ChaosConfig, Classifier, CountingClassifier, ForestParams, RandomForest,
    ResilientClassifier, RetryPolicy, TracedClassifier,
};
use shahin_tabular::{read_csv, train_test_split, Dataset, DatasetPreset, Discretizer};

const HELP: &str = "\
shahin-cli — batch explanation generation (SIGMOD'21 'Shahin' reproduction)

USAGE:
  shahin-cli synth   --preset <name> [--rows N] [--seed S] --out <file.csv>
  shahin-cli mine    --csv <file> [--label COL] [--min-support F] [--max-len K]
  shahin-cli explain --csv <file> --label COL [--explainer lime|anchor|shap]
                     [--method sequential|batch|par[-K]|streaming|greedy|dist-K]
                     [--batch-size N] [--seed S] [--summary] [--top K]
                     [--metrics] [--metrics-out <file.json>]
                     [--trace-out <file.json>] [--provenance-out <file.jsonl>]
                     [--max-retries N] [--call-timeout-ms MS]
                     [--chaos] [--chaos-transient F] [--chaos-nan F]
                     [--chaos-panic F] [--chaos-seed S]
  shahin-cli serve   --csv <file> --label COL [--explainer lime|anchor|shap]
                     [--addr HOST:PORT] [--warm-rows N] [--seed S]
                     [--queue-capacity N] [--threads K] [--refresh-every N]
                     [--port-file <file>]
                     [--write-timeout-ms MS] [--allow-remote-shutdown]
                     [--monitor-interval-ms MS] [--windows N]
                     [--slo-p99-ms MS] [--slo-error-rate F]
                     [--trace-sample F] [--trace-slow-ms MS] [--trace-store N]
                     [--snapshot-out <file>] [--snapshot-interval-ms MS]
                     [--warm-from <file>]
                     [--metrics] [--metrics-out <file.json>]
                     [--provenance-out <file.jsonl>]
                     [resilience/chaos flags as for explain]
  shahin-cli serve   --manifest <cluster.json> [serve tuning flags as above,
                     minus --csv/--label/--warm-from/--snapshot-out]

PRESETS: census, recidivism, lendingclub, kddcup99, covertype

SERVING:
  `serve` primes a warm perturbation repository over the first
  --warm-rows test tuples, then listens for newline-delimited JSON
  explain requests (one object per line):
      {\"id\": 1, \"method\": \"explain\", \"row\": 17}
      {\"id\": 2, \"method\": \"explain\", \"row\": 3, \"deadline_ms\": 250}
      {\"id\": 3, \"method\": \"ping\"}      {\"id\": 4, \"method\": \"shutdown\"}
      {\"id\": 5, \"method\": \"metrics\" [, \"format\": \"json\"]}
      {\"id\": 6, \"method\": \"stats\"}
  A fixed pool of worker threads (--threads K, default one per core;
  under --manifest always one per core) takes requests off one queue,
  one at a time, the moment they arrive: nothing waits for a batch to
  form, and a slow request or a tenant's cold start occupies one worker
  while the others keep serving. A full admission queue answers 429-style
  frames; malformed frames get 400-style frames and keep the
  connection open. SIGINT/SIGTERM or an admin shutdown frame drains
  the queue — every admitted request is answered — then exits. The
  shutdown frame is accepted from loopback peers only unless
  --allow-remote-shutdown is passed; clients that stop reading are
  disconnected after --write-timeout-ms per response frame.
  --addr with port 0 picks an ephemeral port; --port-file writes the
  bound port for scripts. --refresh-every N rebuilds the warm store
  every N answered requests (0 = never).

  A monitor thread samples queue depth, live connections, and warm-store
  size every --monitor-interval-ms (default 1000) and keeps the last
  --windows (default 12) windows of metric deltas; the windowed view
  backs the `stats` admin frame (req/s, windowed p50/p99, hit rate, SLO
  burn) and the slo.* gauges. --slo-p99-ms (default 500) and
  --slo-error-rate (default 0.001) set the latency and error-budget
  objectives. The `metrics` admin frame returns a Prometheus text
  exposition (or the JSON snapshot with \"format\": \"json\"); like
  `shutdown`, `metrics` and `stats` are loopback-only unless
  --allow-remote-shutdown. With --metrics-out the monitor also rewrites
  the snapshot file atomically every tick, so it can be tailed while
  serving.

  Every admitted request gets a trace id (returned in its response
  frame) and a span tree (queue/batch/retrieve/classify/explain with
  per-stage counters). A bounded store tail-samples which traces to
  retain: every error/quarantined request, the slowest K per monitor
  window, plus a --trace-sample (default 0.01) fraction of the rest,
  in a --trace-store ring (default 512 traces; 0 disables tracing).
  --trace-slow-ms (default 100) marks a request slow enough to always
  retain. The loopback-gated `trace` admin frame fetches them back:
      {\"id\": 7, \"method\": \"trace\", \"trace_id\": 42}
      {\"id\": 8, \"method\": \"trace\", \"trace_id\": 42, \"format\": \"chrome\"}
      {\"id\": 9, \"method\": \"trace\", \"slowest\": 5}
      {\"id\": 10, \"method\": \"trace\", \"errors\": true}
  \"chrome\" returns a single-request Chrome-trace JSON document
  (load in Perfetto); latency histogram buckets remember the last
  trace id that landed in them (exemplars, in `metrics` output).

MULTI-TENANT:
  --manifest FILE serves N tenants from one listener. The JSON manifest
  declares each tenant's dataset, explainer, and knobs, plus cluster
  policy:
      {\"default\": \"acme\", \"snapshot_dir\": \"snaps\",
       \"memory_budget_bytes\": 268435456, \"idle_evict_ms\": 600000,
       \"tenants\": [
         {\"name\": \"acme\",   \"csv\": \"acme.csv\",   \"label\": \"y\",
          \"explainer\": \"lime\"},
         {\"name\": \"globex\", \"csv\": \"globex.csv\", \"label\": \"y\",
          \"explainer\": \"shap\", \"quota\": 64, \"threads\": 4}]}
  Explain requests route by a \"tenant\" field (absent → the default
  tenant, unknown → a 404 frame). Each tenant's warm repository is
  materialized lazily on its first request — a counted, traced cold
  start that hydrates classifier-free from <snapshot_dir>/<name>.shws
  when present (or a tenant's \"warm_from\" snapshot, first start only).
  Warm tenants above the memory budget or idle past idle_evict_ms are
  evicted LRU-first, each writing a final at-evict snapshot so
  re-admission is classifier-free and bit-identical. \"quota\" bounds a
  tenant's in-flight requests (over → a 429 frame naming the tenant;
  0 rejects everything). Datasets and models are built eagerly at
  startup (misconfigurations fail before the listener binds), and
  unreadable snapshots are startup errors. `ping` and `stats` frames
  carry per-tenant lifecycle rows; metrics gain tenancy.* counters and
  tenant.<name>.* breakdowns.

PERSISTENCE:
  --snapshot-out FILE writes checksummed warm-state snapshots (the
  perturbation store, Anchor caches, and SHAP base value) atomically:
  every --snapshot-interval-ms if set, on the loopback-gated admin
  frame {\"method\": \"snapshot\"} or a SIGUSR1, and once at drain.
  --warm-from FILE hydrates the repository from such a snapshot at
  startup instead of re-materializing — zero classifier invocations,
  bit-identical explanations to the donor. The file is fully validated
  (magic, format version, config fingerprint, per-section CRCs); any
  corruption is rejected with a typed error, counted under
  persist.load_rejected, and the server cold-starts instead. An
  unreadable --warm-from path is a hard startup error (before binding).

OBSERVABILITY:
  --metrics              print the metrics table (spans, counters, histograms)
  --metrics-out FILE     write the full metrics snapshot as JSON
  --trace-out FILE       write a Chrome trace-event timeline (load in Perfetto
                         or chrome://tracing) of every instrumented phase
  --provenance-out FILE  write one JSON line per explained tuple: matched
                         itemsets, samples reused/fresh, invocations, timing

RESILIENCE:
  --max-retries N        retry budget per classifier call (default 3; putting
                         this or --call-timeout-ms on the command line wraps
                         the model in the resilient boundary)
  --call-timeout-ms MS   per-call deadline; slower calls count as timeouts
  --chaos                inject faults from a seeded schedule (5% transient
                         errors, 1% NaN outputs by default) to exercise the
                         retry/quarantine machinery end to end
  --chaos-transient F    transient-error rate in [0,1]
  --chaos-nan F          NaN-output rate in [0,1]
  --chaos-panic F        panic rate in [0,1] (quarantines the tuple)
  --chaos-seed S         fault-schedule seed (default 0xC4A05EED)

Tuples whose classifier calls exhaust the retry budget are quarantined, the
rest of the batch completes; the exit code is 2 when any tuple failed.
Output files are created along with any missing parent directories.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{HELP}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--key value` pairs after the subcommand.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got '{}'", args[i]))?;
        if key == "summary"
            || key == "help"
            || key == "metrics"
            || key == "chaos"
            || key == "allow-remote-shutdown"
        {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key.to_string(), value.clone());
            i += 2;
        }
    }
    Ok(flags)
}

fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required --{key}"))
}

fn get_or<'a>(flags: &'a HashMap<String, String>, key: &str, default: &'a str) -> &'a str {
    flags.get(key).map(String::as_str).unwrap_or(default)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: '{s}'"))
}

/// Creates `path`'s parent directories if missing, with an error naming
/// the directory, the output it was for, and the underlying cause.
fn ensure_parent_dir(path: &str, what: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if let Some(parent) = p.parent() {
        if !parent.as_os_str().is_empty() && !parent.exists() {
            std::fs::create_dir_all(parent).map_err(|e| {
                format!(
                    "cannot create directory '{}' for the {what} output: {e}",
                    parent.display()
                )
            })?;
        }
    }
    Ok(())
}

/// Writes `contents` to `path` atomically (temp file + fsync + rename,
/// via the shared [`shahin_serve::write_atomic`] idiom), creating any
/// missing parent directories. Errors name the file, the failing
/// operation, and the underlying cause instead of surfacing a bare
/// `io::Error`.
fn write_output(path: &str, contents: &str, what: &str) -> Result<(), String> {
    ensure_parent_dir(path, what)?;
    shahin_serve::write_atomic(std::path::Path::new(path), contents)
        .map_err(|e| format!("cannot write {what} output '{path}': {e}"))
}

fn run_cli(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err("no subcommand".into());
    };
    if cmd == "--help" || cmd == "help" {
        println!("{HELP}");
        return Ok(ExitCode::SUCCESS);
    }
    let flags = parse_flags(&args[1..])?;
    if flags.contains_key("help") {
        println!("{HELP}");
        return Ok(ExitCode::SUCCESS);
    }
    match cmd.as_str() {
        "synth" => cmd_synth(&flags).map(|()| ExitCode::SUCCESS),
        "mine" => cmd_mine(&flags).map(|()| ExitCode::SUCCESS),
        "explain" => cmd_explain(&flags),
        "serve" => cmd_serve(&flags),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn preset_by_name(name: &str) -> Result<DatasetPreset, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "census" | "census-income" => DatasetPreset::CensusIncome,
        "recidivism" => DatasetPreset::Recidivism,
        "lendingclub" | "lending-club" => DatasetPreset::LendingClub,
        "kddcup99" | "kdd" => DatasetPreset::KddCup99,
        "covertype" => DatasetPreset::Covertype,
        other => return Err(format!("unknown preset '{other}'")),
    })
}

fn cmd_synth(flags: &HashMap<String, String>) -> Result<(), String> {
    let preset = preset_by_name(get(flags, "preset")?)?;
    let seed: u64 = parse_num(get_or(flags, "seed", "42"), "seed")?;
    let out_path = get(flags, "out")?;
    let mut spec = preset.spec(1.0);
    if let Some(rows) = flags.get("rows") {
        spec.n_rows = parse_num(rows, "rows")?;
    }
    let (data, labels) = spec.generate(seed);
    // Synthetic categorical codes have no string dictionary: emit codes.
    let dictionaries = vec![Vec::new(); data.n_attrs()];
    ensure_parent_dir(out_path, "synth")?;
    let mut out = File::create(out_path)
        .map_err(|e| format!("cannot write synth output '{out_path}': {e}"))?;
    shahin_tabular::write_csv(&mut out, &data, &dictionaries, Some(("label", &labels)))
        .map_err(|e| e.to_string())?;
    println!(
        "wrote {} rows x {} attributes ({}) to {out_path}",
        data.n_rows(),
        data.n_attrs(),
        preset.name()
    );
    Ok(())
}

fn cmd_mine(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = get(flags, "csv")?;
    let min_support: f64 = parse_num(get_or(flags, "min-support", "0.2"), "min-support")?;
    let max_len: usize = parse_num(get_or(flags, "max-len", "3"), "max-len")?;
    let file = File::open(path).map_err(|e| e.to_string())?;
    let csv = read_csv(file, flags.get("label").map(String::as_str)).map_err(|e| e.to_string())?;
    let disc = Discretizer::fit(&csv.data);
    let table = disc.encode_dataset(&csv.data);
    let mined = apriori(
        &table,
        &AprioriParams {
            min_support,
            max_len,
            max_itemsets: 100,
        },
    );
    println!(
        "mined {} rows (sample rule would use {}): {} frequent itemsets, {} on the negative border",
        table.n_rows(),
        shahin_sample_size(table.n_rows()),
        mined.frequent.len(),
        mined.negative_border.len()
    );
    for (i, (set, count)) in mined.frequent.iter().take(25).enumerate() {
        let pretty: Vec<String> = set
            .items()
            .iter()
            .map(|it| {
                let attr = it.attr as usize;
                let name = &csv.data.schema().attr(attr).name;
                match csv.dictionaries[attr].get(it.code as usize) {
                    Some(v) if !v.is_empty() => format!("{name}={v}"),
                    _ => format!("{name}#bin{}", it.code),
                }
            })
            .collect();
        println!(
            "{:>3}. {{{}}}  support {:.1}%",
            i + 1,
            pretty.join(", "),
            100.0 * *count as f64 / table.n_rows() as f64
        );
    }
    Ok(())
}

fn cmd_explain(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let path = get(flags, "csv")?;
    let label = get(flags, "label")?;
    let seed: u64 = parse_num(get_or(flags, "seed", "42"), "seed")?;
    let batch_size: usize = parse_num(get_or(flags, "batch-size", "200"), "batch-size")?;
    let top: usize = parse_num(get_or(flags, "top", "10"), "top")?;

    let file = File::open(path).map_err(|e| e.to_string())?;
    let csv = read_csv(file, Some(label)).map_err(|e| e.to_string())?;
    let labels = csv
        .labels
        .ok_or_else(|| format!("label column '{label}' produced no labels"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let split = train_test_split(&csv.data, &labels, 1.0 / 3.0, &mut rng);
    let forest = RandomForest::fit(
        &split.train,
        &split.train_labels,
        &ForestParams::default(),
        &mut rng,
    );
    // An enabled registry only when metrics were asked for: the traced
    // wrapper skips its timestamping entirely against a disabled one.
    let want_metrics = flags.contains_key("metrics") || flags.contains_key("metrics-out");
    let want_trace = flags.contains_key("trace-out");
    let want_provenance = flags.contains_key("provenance-out");
    let obs = if want_metrics || want_trace || want_provenance {
        MetricsRegistry::new()
    } else {
        MetricsRegistry::disabled()
    };
    let event_sink = want_trace.then(|| std::sync::Arc::new(shahin::EventSink::new()));
    if let Some(sink) = &event_sink {
        obs.attach_event_sink(std::sync::Arc::clone(sink));
    }
    let provenance_sink =
        want_provenance.then(|| std::sync::Arc::new(shahin::ProvenanceSink::new()));
    if let Some(sink) = &provenance_sink {
        obs.attach_provenance_sink(std::sync::Arc::clone(sink));
    }
    let ctx = ExplainContext::fit(&split.train, 1000, &mut rng);
    let n = batch_size.min(split.test.n_rows());
    let batch = split.test.select(&(0..n).collect::<Vec<_>>());

    let kind = match get_or(flags, "explainer", "lime") {
        "lime" => ExplainerKind::Lime(LimeExplainer::default()),
        "anchor" => ExplainerKind::Anchor(AnchorExplainer::default()),
        "shap" => ExplainerKind::Shap(KernelShapExplainer::default()),
        other => return Err(format!("unknown explainer '{other}'")),
    };
    let method_name = get_or(flags, "method", "batch");
    let method = match method_name {
        "sequential" => Method::Sequential,
        "batch" => Method::Batch(Default::default()),
        // All available cores; "par-K" pins the worker thread count.
        "par" => Method::BatchParallel(Default::default()),
        "streaming" => Method::Streaming(Default::default()),
        "greedy" => Method::Greedy(Greedy::default_budget(&batch)),
        other => match other.strip_prefix("dist-") {
            Some(k) => Method::Dist(parse_num(k, "dist worker count")?),
            None => match other.strip_prefix("par-") {
                Some(k) => Method::BatchParallel(BatchConfig {
                    n_threads: Some(parse_num(k, "worker thread count")?),
                    ..Default::default()
                }),
                None => return Err(format!("unknown method '{other}'")),
            },
        },
    };

    // Resilience boundary: retry-policy flags wrap the model in the
    // resilient classifier; chaos flags additionally inject faults between
    // the model and that boundary. The stacks have different types, so the
    // generic tail runs the batch for whichever stack was assembled.
    let mut policy = RetryPolicy::default();
    let mut want_resilient = false;
    if let Some(v) = flags.get("max-retries") {
        policy.max_retries = parse_num(v, "max-retries")?;
        want_resilient = true;
    }
    if let Some(v) = flags.get("call-timeout-ms") {
        let ms: u64 = parse_num(v, "call-timeout-ms")?;
        policy.call_timeout = Some(std::time::Duration::from_millis(ms));
        want_resilient = true;
    }
    let want_chaos = ["chaos", "chaos-transient", "chaos-nan", "chaos-panic"]
        .iter()
        .any(|k| flags.contains_key(*k));

    println!(
        "explaining {n} predictions with {} / {method_name} ...",
        kind.name()
    );
    if want_chaos {
        let mut cfg = ChaosConfig::default();
        if let Some(v) = flags.get("chaos-transient") {
            cfg.transient_rate = parse_num(v, "chaos-transient")?;
        }
        if let Some(v) = flags.get("chaos-nan") {
            cfg.nan_rate = parse_num(v, "chaos-nan")?;
        }
        if let Some(v) = flags.get("chaos-panic") {
            cfg.panic_rate = parse_num(v, "chaos-panic")?;
        }
        if let Some(v) = flags.get("chaos-seed") {
            cfg.seed = parse_num(v, "chaos-seed")?;
        }
        println!(
            "chaos: transient {:.1}%, nan {:.1}%, panic {:.1}%, seed {:#x}",
            100.0 * cfg.transient_rate,
            100.0 * cfg.nan_rate,
            100.0 * cfg.panic_rate,
            cfg.seed
        );
        let chaos = ChaosClassifier::new(TracedClassifier::new(forest, &obs), cfg);
        let clf = CountingClassifier::new(ResilientClassifier::new(chaos, policy).with_obs(&obs));
        explain_tail(
            flags,
            &obs,
            &event_sink,
            &provenance_sink,
            &ctx,
            &clf,
            &batch,
            &method,
            &kind,
            seed,
            top,
        )
    } else if want_resilient {
        let resilient =
            ResilientClassifier::new(TracedClassifier::new(forest, &obs), policy).with_obs(&obs);
        let clf = CountingClassifier::new(resilient);
        explain_tail(
            flags,
            &obs,
            &event_sink,
            &provenance_sink,
            &ctx,
            &clf,
            &batch,
            &method,
            &kind,
            seed,
            top,
        )
    } else {
        let clf = CountingClassifier::new(TracedClassifier::new(forest, &obs));
        explain_tail(
            flags,
            &obs,
            &event_sink,
            &provenance_sink,
            &ctx,
            &clf,
            &batch,
            &method,
            &kind,
            seed,
            top,
        )
    }
}

/// Runs the batch with the assembled classifier stack, writes the
/// requested outputs, and maps quarantined tuples to exit code 2.
#[allow(clippy::too_many_arguments)]
fn explain_tail<C: Classifier>(
    flags: &HashMap<String, String>,
    obs: &MetricsRegistry,
    event_sink: &Option<std::sync::Arc<shahin::EventSink>>,
    provenance_sink: &Option<std::sync::Arc<shahin::ProvenanceSink>>,
    ctx: &ExplainContext,
    clf: &CountingClassifier<C>,
    batch: &Dataset,
    method: &Method,
    kind: &ExplainerKind,
    seed: u64,
    top: usize,
) -> Result<ExitCode, String> {
    let want_metrics = flags.contains_key("metrics") || flags.contains_key("metrics-out");
    let report = run_with_obs(method, kind, ctx, clf, batch, seed, obs);
    println!(
        "done: {} classifier invocations ({:.1} per tuple), {:.2}s wall",
        report.metrics.invocations,
        report.metrics.invocations_per_tuple(),
        report.metrics.wall.as_secs_f64()
    );
    println!("batch report: {}\n", report.report.summary());
    for f in &report.report.failures {
        eprintln!(
            "  tuple {} failed ({}): {}",
            f.row,
            f.kind.name(),
            f.message
        );
    }

    if want_metrics {
        let snapshot = obs.snapshot();
        if flags.contains_key("metrics") {
            print!("{}", snapshot.render_table());
        }
        if let Some(out_path) = flags.get("metrics-out") {
            write_output(out_path, &snapshot.to_json(), "metrics")?;
            println!("metrics written to {out_path}");
        }
    }
    if let (Some(sink), Some(out_path)) = (&event_sink, flags.get("trace-out")) {
        write_output(out_path, &sink.to_chrome_trace(), "trace")?;
        println!(
            "trace written to {out_path} ({} events{}) — open in Perfetto or chrome://tracing",
            sink.len(),
            match sink.dropped() {
                0 => String::new(),
                d => format!(", {d} dropped"),
            }
        );
    }
    if let (Some(sink), Some(out_path)) = (&provenance_sink, flags.get("provenance-out")) {
        write_output(out_path, &sink.to_jsonl(), "provenance")?;
        println!(
            "provenance written to {out_path} ({} records{})",
            sink.len(),
            match sink.dropped() {
                0 => String::new(),
                d => format!(", {d} dropped"),
            }
        );
    }

    if flags.contains_key("summary") {
        if report.explanations.is_empty() {
            println!("no surviving explanations to summarize");
            return Ok(ExitCode::from(2));
        }
        match &kind {
            ExplainerKind::Anchor(_) => {
                let rules: Vec<_> = report
                    .explanations
                    .iter()
                    .map(|e| e.rule().expect("anchor output").clone())
                    .collect();
                let summary = summarize_rules(&rules);
                print!("{}", summary.report(batch.schema(), top));
            }
            _ => {
                let weights: Vec<_> = report
                    .explanations
                    .iter()
                    .map(|e| e.weights().expect("attribution output").clone())
                    .collect();
                let summary = summarize_attributions(&weights);
                print!("{}", summary.report(batch.schema(), top));
            }
        }
    } else {
        // Print the first surviving explanation as a sample.
        match report.explanations.first() {
            Some(shahin::Explanation::Weights(w)) => {
                println!("tuple 0 — top attributions:");
                for &a in w.top_k(top.min(5)).iter() {
                    println!("  {:<20} {:+.4}", batch.schema().attr(a).name, w.weights[a]);
                }
            }
            Some(shahin::Explanation::Rule(r)) => {
                println!(
                    "tuple 0 — anchor: {} (precision {:.2}, coverage {:.2})",
                    r.rule, r.precision, r.coverage
                );
            }
            None => println!("no tuple survived to sample an explanation from"),
        }
    }
    Ok(if report.report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// Parses the serve tuning flags shared by the single-tenant and
/// `--manifest` paths into a [`shahin_serve::ServeConfig`].
/// `snapshot_out` is the single-tenant snapshot file (always `None`
/// under a manifest, where persistence is per-tenant); `persists` says
/// whether *any* snapshot target is configured, gating
/// `--snapshot-interval-ms`.
fn build_serve_config(
    flags: &HashMap<String, String>,
    snapshot_out: Option<std::path::PathBuf>,
    persists: bool,
) -> Result<shahin_serve::ServeConfig, String> {
    use std::time::Duration;

    for gone in ["max-batch", "max-delay-ms"] {
        if flags.contains_key(gone) {
            return Err(format!(
                "--{gone} no longer exists: workers take requests as they arrive, there is no batch window"
            ));
        }
    }
    let addr = get_or(flags, "addr", "127.0.0.1:0");
    let queue_capacity: usize =
        parse_num(get_or(flags, "queue-capacity", "1024"), "queue-capacity")?;
    let refresh_every: u64 = parse_num(get_or(flags, "refresh-every", "0"), "refresh-every")?;
    let write_timeout_ms: u64 = parse_num(
        get_or(flags, "write-timeout-ms", "1000"),
        "write-timeout-ms",
    )?;
    let monitor_interval_ms: u64 = parse_num(
        get_or(flags, "monitor-interval-ms", "1000"),
        "monitor-interval-ms",
    )?;
    if monitor_interval_ms == 0 {
        return Err("monitor-interval-ms must be positive".into());
    }
    let windows: usize = parse_num(get_or(flags, "windows", "12"), "windows")?;
    let slo_p99_ms: u64 = parse_num(get_or(flags, "slo-p99-ms", "500"), "slo-p99-ms")?;
    let slo_error_rate: f64 =
        parse_num(get_or(flags, "slo-error-rate", "0.001"), "slo-error-rate")?;
    if !(0.0..=1.0).contains(&slo_error_rate) {
        return Err("slo-error-rate must be in [0, 1]".into());
    }
    let trace_sample: f64 = parse_num(get_or(flags, "trace-sample", "0.01"), "trace-sample")?;
    if !(0.0..=1.0).contains(&trace_sample) {
        return Err("trace-sample must be in [0, 1]".into());
    }
    let trace_slow_ms: u64 = parse_num(get_or(flags, "trace-slow-ms", "100"), "trace-slow-ms")?;
    let trace_store: usize = parse_num(get_or(flags, "trace-store", "512"), "trace-store")?;
    let snapshot_interval_ms: Option<u64> = match flags.get("snapshot-interval-ms") {
        None => None,
        Some(v) => Some(parse_num(v, "snapshot-interval-ms")?),
    };
    if snapshot_interval_ms == Some(0) {
        return Err("snapshot-interval-ms must be positive".into());
    }
    if snapshot_interval_ms.is_some() && !persists {
        return Err(
            "--snapshot-interval-ms needs a snapshot target (--snapshot-out, or a manifest with snapshot_dir)"
                .into(),
        );
    }
    Ok(shahin_serve::ServeConfig {
        addr: addr.to_string(),
        queue_capacity,
        refresh_every,
        write_timeout: Duration::from_millis(write_timeout_ms),
        allow_remote_shutdown: flags.contains_key("allow-remote-shutdown"),
        watch_signals: true,
        monitor_interval: Duration::from_millis(monitor_interval_ms),
        windows,
        slo_p99: Duration::from_millis(slo_p99_ms),
        slo_error_rate,
        trace_sample,
        trace_slow: Duration::from_millis(trace_slow_ms),
        trace_store,
        // The monitor rewrites the file atomically every tick; the final
        // post-drain write adds the folded provenance gauges.
        metrics_out: flags.get("metrics-out").map(std::path::PathBuf::from),
        snapshot_out,
        snapshot_interval: snapshot_interval_ms.map(Duration::from_millis),
        ..Default::default()
    })
}

/// Blocks until the server drains, then writes the requested post-drain
/// outputs (metrics, provenance) and reports the served total — the
/// tail both serve paths share.
fn serve_tail<C: Classifier + 'static>(
    flags: &HashMap<String, String>,
    obs: &MetricsRegistry,
    provenance_sink: &Option<std::sync::Arc<shahin::ProvenanceSink>>,
    handle: shahin_serve::ServerHandle<C>,
) -> Result<ExitCode, String> {
    use shahin::fold_provenance;

    let served = handle.wait();
    if let Some(out_path) = flags.get("metrics-out") {
        fold_provenance(obs);
        // Atomic like the monitor's periodic rewrites: a reader tailing
        // the file must never observe a torn document, including the
        // final post-drain write.
        shahin_serve::write_atomic(std::path::Path::new(out_path), &obs.snapshot().to_json())
            .map_err(|e| format!("cannot write metrics to '{out_path}': {e}"))?;
        println!("metrics written to {out_path}");
    }
    if flags.contains_key("metrics") {
        fold_provenance(obs);
        print!("{}", obs.snapshot().render_table());
    }
    if let (Some(sink), Some(out_path)) = (provenance_sink, flags.get("provenance-out")) {
        write_output(out_path, &sink.to_jsonl(), "provenance")?;
        println!(
            "provenance written to {out_path} ({} records{})",
            sink.len(),
            match sink.dropped() {
                0 => String::new(),
                d => format!(", {d} dropped"),
            }
        );
    }
    println!("drained cleanly ({served} requests served)");
    Ok(ExitCode::SUCCESS)
}

/// Starts the online explanation service over a warm repository primed
/// from the CSV's test split, and blocks until a graceful drain. With
/// `--manifest`, serves a whole tenant cluster instead.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    use shahin::WarmEngine;
    use shahin_serve::Server;
    use std::sync::Arc;
    use std::time::Duration;

    if flags.contains_key("manifest") {
        for conflict in ["csv", "label", "warm-from", "snapshot-out"] {
            if flags.contains_key(conflict) {
                return Err(format!(
                    "--manifest declares tenants itself; drop --{conflict} \
                     (per-tenant datasets and snapshots come from the manifest)"
                ));
            }
        }
        return cmd_serve_manifest(flags);
    }

    let path = get(flags, "csv")?;
    let label = get(flags, "label")?;
    let seed: u64 = parse_num(get_or(flags, "seed", "42"), "seed")?;
    let warm_rows: usize = parse_num(get_or(flags, "warm-rows", "200"), "warm-rows")?;
    let snapshot_out = flags.get("snapshot-out").map(std::path::PathBuf::from);
    let serve_config = build_serve_config(flags, snapshot_out.clone(), snapshot_out.is_some())?;
    // Fail fast on an unreadable --warm-from: a misconfigured path is an
    // operator error, caught before the expensive forest fit and before
    // the listener binds. (A *corrupt-but-readable* snapshot instead
    // degrades to a cold start below — the file's contents are data,
    // the file's existence is configuration.)
    let warm_from_bytes: Option<Vec<u8>> = match flags.get("warm-from") {
        None => None,
        Some(p) => Some(
            std::fs::read(p).map_err(|e| format!("cannot read --warm-from snapshot '{p}': {e}"))?,
        ),
    };

    let file = File::open(path).map_err(|e| e.to_string())?;
    let csv = read_csv(file, Some(label)).map_err(|e| e.to_string())?;
    let labels = csv
        .labels
        .ok_or_else(|| format!("label column '{label}' produced no labels"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let split = train_test_split(&csv.data, &labels, 1.0 / 3.0, &mut rng);
    let forest = RandomForest::fit(
        &split.train,
        &split.train_labels,
        &ForestParams::default(),
        &mut rng,
    );

    // A server always records: the smoke harness and load generator read
    // serve.* metrics back, and the cost is a few relaxed atomics.
    let obs = MetricsRegistry::new();
    let provenance_sink = flags
        .contains_key("provenance-out")
        .then(|| Arc::new(shahin::ProvenanceSink::new()));
    if let Some(sink) = &provenance_sink {
        obs.attach_provenance_sink(Arc::clone(sink));
    }

    let ctx = ExplainContext::fit(&split.train, 1000, &mut rng);
    let n = warm_rows.min(split.test.n_rows());
    let warm = split.test.select(&(0..n).collect::<Vec<_>>());

    let explainer = match get_or(flags, "explainer", "lime") {
        "lime" => ExplainerKind::Lime(LimeExplainer::default()),
        "anchor" => ExplainerKind::Anchor(AnchorExplainer::default()),
        "shap" => ExplainerKind::Shap(KernelShapExplainer::default()),
        other => return Err(format!("unknown explainer '{other}'")),
    };

    // The same resilience/chaos stack as `explain`, type-erased so one
    // engine type serves every combination.
    let mut policy = RetryPolicy::default();
    let mut want_resilient = false;
    if let Some(v) = flags.get("max-retries") {
        policy.max_retries = parse_num(v, "max-retries")?;
        want_resilient = true;
    }
    if let Some(v) = flags.get("call-timeout-ms") {
        let ms: u64 = parse_num(v, "call-timeout-ms")?;
        policy.call_timeout = Some(Duration::from_millis(ms));
        want_resilient = true;
    }
    let want_chaos = ["chaos", "chaos-transient", "chaos-nan", "chaos-panic"]
        .iter()
        .any(|k| flags.contains_key(*k));
    let model: Box<dyn Classifier> = if want_chaos {
        let mut cfg = ChaosConfig::default();
        if let Some(v) = flags.get("chaos-transient") {
            cfg.transient_rate = parse_num(v, "chaos-transient")?;
        }
        if let Some(v) = flags.get("chaos-nan") {
            cfg.nan_rate = parse_num(v, "chaos-nan")?;
        }
        if let Some(v) = flags.get("chaos-panic") {
            cfg.panic_rate = parse_num(v, "chaos-panic")?;
        }
        if let Some(v) = flags.get("chaos-seed") {
            cfg.seed = parse_num(v, "chaos-seed")?;
        }
        let chaos = ChaosClassifier::new(TracedClassifier::new(forest, &obs), cfg);
        Box::new(ResilientClassifier::new(chaos, policy).with_obs(&obs))
    } else if want_resilient {
        Box::new(
            ResilientClassifier::new(TracedClassifier::new(forest, &obs), policy).with_obs(&obs),
        )
    } else {
        Box::new(TracedClassifier::new(forest, &obs))
    };
    let clf = CountingClassifier::new(model);

    let mut config = BatchConfig::default();
    if let Some(t) = flags.get("threads") {
        config.n_threads = Some(parse_num(t, "threads")?);
    }
    println!(
        "priming warm repository over {n} rows ({}) ...",
        explainer.name()
    );
    let (engine, rejection) = WarmEngine::prime_warm_or_cold(
        config,
        explainer,
        ctx,
        clf,
        warm,
        seed,
        &obs,
        warm_from_bytes.as_deref(),
    );
    let engine = Arc::new(engine);
    if let Some(err) = &rejection {
        eprintln!(
            "warm-from snapshot rejected ({}): {err} — cold-starting instead",
            err.kind()
        );
    }
    if warm_from_bytes.is_some() && rejection.is_none() {
        println!(
            "hydrated warm repository from snapshot ({} entries, 0 invocations)",
            engine.store_entries()
        );
    } else {
        println!(
            "primed: {} invocations spent on materialization",
            engine.invocations()
        );
    }

    let addr = serve_config.addr.clone();
    let handle =
        Server::start(engine, serve_config).map_err(|e| format!("cannot bind '{addr}': {e}"))?;
    println!("listening on {}", handle.addr());
    if let Some(port_file) = flags.get("port-file") {
        write_output(port_file, &format!("{}\n", handle.addr().port()), "port")?;
    }
    serve_tail(flags, &obs, &provenance_sink, handle)
}

/// Serves a whole tenant cluster from a JSON manifest: requests route by
/// the protocol's `tenant` field, tenants materialize lazily on first
/// request (hydrating classifier-free from `<snapshot_dir>/<name>.shws`
/// when present), and idle / over-budget tenants are evicted LRU-first
/// with an at-evict snapshot, so re-admission is classifier-free.
/// Datasets, forests, and explain contexts are built eagerly so every
/// misconfiguration fails before the listener binds; only the warm
/// repositories are lazy.
fn cmd_serve_manifest(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    use shahin::WarmEngine;
    use shahin_serve::Server;
    use shahin_tenancy::{
        EngineFactory, LifecyclePolicy, TenantConfig, TenantManifest, TenantRegistry,
    };
    use std::sync::Arc;
    use std::time::Duration;

    let manifest_path = get(flags, "manifest")?;
    let manifest = TenantManifest::load(std::path::Path::new(manifest_path))?;

    // One registry for the whole cluster: tenancy.* metrics aggregate
    // across tenants, tenant.<name>.* gauges break them down.
    let obs = MetricsRegistry::new();
    let provenance_sink = flags
        .contains_key("provenance-out")
        .then(|| Arc::new(shahin::ProvenanceSink::new()));
    if let Some(sink) = &provenance_sink {
        obs.attach_provenance_sink(Arc::clone(sink));
    }

    let mut configs: Vec<TenantConfig<TracedClassifier<RandomForest>>> = Vec::new();
    for spec in &manifest.tenants {
        let snapshot_path = manifest.snapshot_path(&spec.name);
        // Fail fast on unreadable snapshots, per tenant, before any
        // forest fit and before the listener binds: an explicit
        // warm_from must be readable, and a snapshot that *exists* at
        // the tenant's layout path must be readable too. Absent is fine
        // (the tenant cold-primes); corrupt-but-readable degrades to a
        // cold start at materialization, counted under
        // persist.load_rejected — the file's contents are data, the
        // file's existence is configuration.
        if let Some(p) = &spec.warm_from {
            std::fs::read(p).map_err(|e| {
                format!(
                    "tenant \"{}\": cannot read warm_from snapshot '{p}': {e}",
                    spec.name
                )
            })?;
        }
        if let Some(p) = &snapshot_path {
            if p.exists() {
                std::fs::read(p).map_err(|e| {
                    format!(
                        "tenant \"{}\": snapshot '{}' exists but is unreadable: {e}",
                        spec.name,
                        p.display()
                    )
                })?;
            }
        }

        let file = File::open(&spec.csv).map_err(|e| {
            format!(
                "tenant \"{}\": cannot open csv '{}': {e}",
                spec.name, spec.csv
            )
        })?;
        let csv = read_csv(file, Some(&spec.label))
            .map_err(|e| format!("tenant \"{}\": {e}", spec.name))?;
        let labels = csv.labels.ok_or_else(|| {
            format!(
                "tenant \"{}\": label column '{}' produced no labels",
                spec.name, spec.label
            )
        })?;
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let split = train_test_split(&csv.data, &labels, 1.0 / 3.0, &mut rng);
        let forest = RandomForest::fit(
            &split.train,
            &split.train_labels,
            &ForestParams::default(),
            &mut rng,
        );
        let ctx = ExplainContext::fit(&split.train, 1000, &mut rng);
        let n = spec.warm_rows.min(split.test.n_rows());
        let warm = split.test.select(&(0..n).collect::<Vec<_>>());
        let explainer = match spec.explainer.as_str() {
            "anchor" => ExplainerKind::Anchor(AnchorExplainer::default()),
            "shap" => ExplainerKind::Shap(KernelShapExplainer::default()),
            _ => ExplainerKind::Lime(LimeExplainer::default()),
        };
        let batch_config = BatchConfig {
            n_threads: spec.threads,
            ..Default::default()
        };
        println!(
            "tenant \"{}\": {}, {} warm rows{} — cold until first request",
            spec.name,
            spec.explainer,
            n,
            match spec.quota {
                Some(q) => format!(", quota {q}"),
                None => String::new(),
            }
        );
        let seed = spec.seed;
        let factory_obs = obs.clone();
        // The factory re-materializes this tenant on every cold start
        // (including re-admission after eviction): a fresh counting
        // wrapper each time, so an engine's invocation count is its own.
        let factory: EngineFactory<TracedClassifier<RandomForest>> = Box::new(move |bytes| {
            WarmEngine::prime_warm_or_cold(
                batch_config.clone(),
                explainer.clone(),
                ctx.clone(),
                CountingClassifier::new(TracedClassifier::new(forest.clone(), &factory_obs)),
                warm.clone(),
                seed,
                &factory_obs,
                bytes,
            )
        });
        configs.push(TenantConfig {
            name: spec.name.clone(),
            n_rows: n,
            quota: spec.quota,
            snapshot_path,
            warm_from: spec.warm_from.as_ref().map(std::path::PathBuf::from),
            factory,
        });
    }

    if let Some(dir) = &manifest.snapshot_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create snapshot_dir '{}': {e}", dir.display()))?;
    }
    let policy = LifecyclePolicy {
        memory_budget_bytes: manifest.memory_budget_bytes,
        idle_evict: manifest.idle_evict_ms.map(Duration::from_millis),
    };
    let config = build_serve_config(flags, None, manifest.snapshot_dir.is_some())?;
    let cluster = Arc::new(TenantRegistry::new(configs, manifest.default, policy, &obs));
    let addr = config.addr.clone();
    let handle =
        Server::start_cluster(cluster, config).map_err(|e| format!("cannot bind '{addr}': {e}"))?;
    println!(
        "listening on {} ({} tenants, default \"{}\")",
        handle.addr(),
        manifest.tenants.len(),
        manifest.tenants[manifest.default].name
    );
    if let Some(port_file) = flags.get("port-file") {
        write_output(port_file, &format!("{}\n", handle.addr().port()), "port")?;
    }
    serve_tail(flags, &obs, &provenance_sink, handle)
}
