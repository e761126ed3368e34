//! The two serve workloads: `serve_steady` (one LIME engine behind
//! `Server::start`) and `serve_tenants` (four tenants behind
//! `Server::start_cluster`, one of them evicted and re-hydrated every
//! cycle). The server runs in this process with the configuration
//! `shahin-cli serve` ships — `ServeConfig::default()`, an enabled
//! registry, the forest behind a `TracedClassifier` — and is driven over
//! real loopback TCP by [`crate::loadgen`].

use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use shahin::{
    BatchConfig, MetricsRegistry, ProvenanceSink, WarmEngine, WarmExplainer, WarmOutcome,
    WarmRequest,
};
use shahin_bench::{bench_anchor, bench_lime, bench_shap};
use shahin_model::{CountingClassifier, RandomForest, TracedClassifier};
use shahin_obs::json::Json;
use shahin_serve::protocol::explanation_frame;
use shahin_serve::{ServeConfig, Server, ServerHandle};
use shahin_tabular::{Dataset, DatasetPreset};
use shahin_tenancy::{LifecyclePolicy, TenantConfig, TenantRegistry};

use crate::inputs::{
    block, build_inputs, cycled_rows, derive, schedule, Arrival, Inputs, Source, WORLD_SEED,
};
use crate::insitu::{insert_common, insert_setup, mean, Lineage};
use crate::loadgen::{admin, closed_loop, completion_rate, open_loop, PhaseResult, RequestRow};
use crate::probes;
use crate::report::{
    cpu_seconds, nproc, peak_rss_mb, print_waterfall, trace_file, write_out, Outcome, Values,
};
use crate::spans::{fold, Recorder, Row};
use crate::stats::{median, quantile_sorted, summarize, supports};
use crate::Ctl;

/// The classifier stack `shahin-cli serve` builds.
type Clf = CountingClassifier<TracedClassifier<RandomForest>>;

/// Generator lateness (p99, ms) above which a run's latencies are not
/// trusted. Lateness is inside every latency anyway; the limit catches a
/// box too busy to offer the schedule at all. The sender shares two cores
/// with the server under test, and a woken thread can wait out another's
/// 3 ms scheduler slice, so p99 lateness sits between 0.4 and 2.8 ms on
/// the reference box (3 to 4 ms with four tenants).
const STEADY_LAG_LIMIT_MS: f64 = 5.0;
const TENANTS_LAG_LIMIT_MS: f64 = 10.0;

/// Served explanations compared bit for bit against `WarmEngine::explain`.
const SAMPLED_CHECKS: u64 = 500;

/// Offered rate of `serve_steady`'s loaded phase, requests per second:
/// two and a half times the reference rate, and still under two thirds of
/// the lowest saturation rate seen on the two-core reference box (4 060/s),
/// so the admission queue never overflows.
const LOADED_RATE: f64 = 2_500.0;

/// One tenant of a serve workload.
struct TenantPlan {
    /// Wire name; `None` for the single-tenant server.
    name: Option<&'static str>,
    explainer: WarmExplainer,
    warm_rows: usize,
    /// Open-loop requests per second while the tenant is on.
    rate: f64,
    /// `Some((period_s, on_s))`: traffic only in the first `on_s` of
    /// every period.
    burst: Option<(f64, f64)>,
}

fn tenant_plans(workload: &str) -> Vec<TenantPlan> {
    let lime = || WarmExplainer::Lime(bench_lime());
    match workload {
        "serve_steady" => vec![TenantPlan {
            name: None,
            explainer: lime(),
            warm_rows: 2_000,
            rate: 1_000.0,
            burst: None,
        }],
        // `hot` is the tenant whose latency is reported; the other three
        // are its neighbours on the single batcher thread. Warm sets are
        // sized so that a run asks for every row of a tenant equally often
        // (`hot` five times, the others once): the work a run does is then
        // the same for every seed, only its order differs.
        "serve_tenants" => vec![
            TenantPlan {
                name: Some("hot"),
                explainer: lime(),
                warm_rows: 1_800,
                rate: 600.0,
                burst: None,
            },
            TenantPlan {
                name: Some("slow"),
                explainer: WarmExplainer::Anchor(bench_anchor()),
                warm_rows: 240,
                rate: 20.0,
                burst: None,
            },
            TenantPlan {
                name: Some("shap"),
                explainer: WarmExplainer::Shap(bench_shap()),
                warm_rows: 1_200,
                rate: 100.0,
                burst: None,
            },
            // One second of traffic in every four: with a 1.5 s keepalive
            // and the monitor's 1 s tick the tenant is evicted (writing a
            // snapshot) and re-hydrated in every cycle.
            TenantPlan {
                name: Some("bursty"),
                explainer: lime(),
                warm_rows: 600,
                rate: 200.0,
                burst: Some((4.0, 1.0)),
            },
        ],
        other => panic!("not a serve workload: {other}"),
    }
}

/// A tenant with its data and model.
struct Tenant {
    plan: TenantPlan,
    inputs: Inputs,
    warm: Dataset,
    seed: u64,
}

impl Tenant {
    /// A fresh engine over this tenant's warm set, as the CLI builds it.
    fn engine(
        &self,
        clf: Clf,
        reg: &MetricsRegistry,
        snapshot: Option<&[u8]>,
    ) -> WarmEngine<TracedClassifier<RandomForest>> {
        WarmEngine::prime_warm_or_cold(
            BatchConfig::default(),
            self.plan.explainer.clone(),
            self.inputs.ctx.clone(),
            clf,
            self.warm.clone(),
            self.seed,
            reg,
            snapshot,
        )
        .0
    }

    fn classifier(&self, reg: &MetricsRegistry) -> Clf {
        CountingClassifier::new(TracedClassifier::new(self.inputs.forest.clone(), reg))
    }
}

fn build_tenants(ctl: &Ctl, rec: &mut Recorder, parent: Option<usize>) -> Vec<Tenant> {
    // Data shrinks with short (smoke) runs; at the reference length it is
    // the laptop-default Recidivism shape.
    let data_scale = ctl.scale().clamp(0.05, 1.0);
    tenant_plans(&ctl.workload)
        .into_iter()
        .enumerate()
        .map(|(t, plan)| {
            let seed = derive(WORLD_SEED, 20 + t as u64);
            let inputs = build_inputs(DatasetPreset::Recidivism, data_scale, seed, rec, parent);
            let warm = block(&inputs.test, 0, plan.warm_rows.min(inputs.test.n_rows()));
            Tenant {
                plan,
                inputs,
                warm,
                seed,
            }
        })
        .collect()
}

/// A started server with what the benchmark needs to read back.
struct Cluster {
    handle: ServerHandle<TracedClassifier<RandomForest>>,
    addr: SocketAddr,
    reg: MetricsRegistry,
    /// One invocation counter per tenant, shared by every engine the
    /// tenant ever materializes.
    counters: Vec<Clf>,
    sink: Option<Arc<ProvenanceSink>>,
    /// The steady workload's engine (the tenants' live in the registry).
    engine: Option<Arc<WarmEngine<TracedClassifier<RandomForest>>>>,
}

impl Cluster {
    fn invocations(&self) -> u64 {
        self.counters
            .iter()
            .map(CountingClassifier::invocations)
            .sum()
    }

    fn stop(self) {
        self.handle.shutdown();
        self.handle.wait();
    }
}

/// Starts the server over `tenants`. `traced` turns on what the traced
/// repeat adds to the shipped defaults: a provenance sink, every request
/// trace retained.
fn start(
    tenants: &Arc<Vec<Tenant>>,
    traced: bool,
    expected_requests: usize,
    snapshot_dir: &PathBuf,
    rec: &mut Recorder,
    parent: Option<usize>,
) -> Cluster {
    // Every server starts from an empty snapshot directory: what an
    // earlier server of this process wrote at drain must not turn this
    // one's first cold starts into hydrations.
    let _ = std::fs::remove_dir_all(snapshot_dir);
    std::fs::create_dir_all(snapshot_dir).expect("create the snapshot directory");
    let reg = MetricsRegistry::new();
    let sink = traced.then(|| Arc::new(ProvenanceSink::with_capacity(expected_requests + 1)));
    if let Some(sink) = &sink {
        reg.attach_provenance_sink(Arc::clone(sink));
    }
    let mut config = ServeConfig::default();
    if traced {
        config.trace_sample = 1.0;
        config.trace_store = expected_requests + 1024;
    }
    let counters: Vec<Clf> = tenants.iter().map(|t| t.classifier(&reg)).collect();
    if tenants.len() == 1 {
        let engine = rec.time("core.prime", parent, || {
            Arc::new(tenants[0].engine(counters[0].clone(), &reg, None))
        });
        let handle = rec.time("serve.bind", parent, || {
            Server::start(Arc::clone(&engine), config).expect("bind loopback")
        });
        return Cluster {
            addr: handle.addr(),
            handle,
            reg,
            counters,
            sink,
            engine: Some(engine),
        };
    }
    let configs = (0..tenants.len())
        .map(|t| {
            let (tenants, clf, reg) = (Arc::clone(tenants), counters[t].clone(), reg.clone());
            TenantConfig {
                name: tenants[t]
                    .plan
                    .name
                    .expect("cluster tenants are named")
                    .to_string(),
                n_rows: tenants[t].warm.n_rows(),
                quota: None,
                snapshot_path: Some(
                    snapshot_dir.join(format!("{}.shws", tenants[t].plan.name.expect("named"))),
                ),
                warm_from: None,
                factory: Box::new(move |bytes| {
                    WarmEngine::prime_warm_or_cold(
                        BatchConfig::default(),
                        tenants[t].plan.explainer.clone(),
                        tenants[t].inputs.ctx.clone(),
                        clf.clone(),
                        tenants[t].warm.clone(),
                        tenants[t].seed,
                        &reg,
                        bytes,
                    )
                }),
            }
        })
        .collect();
    let registry = Arc::new(TenantRegistry::new(
        configs,
        0,
        LifecyclePolicy {
            memory_budget_bytes: None,
            idle_evict: Some(Duration::from_millis(1_500)),
        },
        &reg,
    ));
    let handle = rec.time("serve.bind", parent, || {
        Server::start_cluster(registry, config).expect("bind loopback")
    });
    Cluster {
        addr: handle.addr(),
        handle,
        reg,
        counters,
        sink,
        engine: None,
    }
}

/// One phase of load with its name.
struct Phase {
    name: &'static str,
    result: PhaseResult,
}

fn latencies(rows: &[RequestRow], tenant: Option<usize>) -> Vec<f64> {
    rows.iter()
        .filter(|r| tenant.is_none_or(|t| r.tenant == t))
        .filter_map(RequestRow::latency_ms)
        .collect()
}

/// The `q`-quantile of `values`, or 0 when the sample does not support
/// it (fewer than ten samples beyond).
fn supported_quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() || !supports(values.len(), q) {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Median of the per-window `q`-quantiles of `rows`' latencies, windows
/// of `window_s` by due time. One disturbed window cannot set the value
/// the way it sets a whole-run tail.
fn windowed_quantile(rows: &[RequestRow], tenant: Option<usize>, q: f64, window_s: f64) -> f64 {
    let picked: Vec<&RequestRow> = rows
        .iter()
        .filter(|r| tenant.is_none_or(|t| r.tenant == t))
        .collect();
    let Some(first) = picked.iter().map(|r| r.due_ns).min() else {
        return 0.0;
    };
    let mut windows: HashMap<u64, Vec<f64>> = HashMap::new();
    for r in picked {
        if let Some(l) = r.latency_ms() {
            let w = ((r.due_ns - first) as f64 / 1e9 / window_s) as u64;
            windows.entry(w).or_default().push(l);
        }
    }
    let per_window: Vec<f64> = windows
        .into_values()
        .filter(|v| supports(v.len(), q))
        .map(|mut v| {
            v.sort_by(f64::total_cmp);
            quantile_sorted(&v, q)
        })
        .collect();
    if per_window.is_empty() {
        // A run too short for any window to support `q` (smoke runs):
        // the plain quantile of everything.
        let mut all = latencies(rows, tenant);
        all.sort_by(f64::total_cmp);
        return if all.is_empty() {
            0.0
        } else {
            quantile_sorted(&all, q)
        };
    }
    median(&per_window)
}

/// A retained request trace, parsed back from the `trace` admin frame.
struct ServerTrace {
    tenant: Option<String>,
    batch_id: Option<u64>,
    total_ns: u64,
    /// `(name, parent, start_ns, dur_ns)`, offsets from admission.
    spans: Vec<(String, Option<usize>, u64, u64)>,
}

fn fetch_traces(addr: SocketAddr) -> HashMap<u64, ServerTrace> {
    let line = admin(
        addr,
        "{\"id\": 1, \"method\": \"trace\", \"slowest\": 100000000}",
    );
    let doc = Json::parse(&line).expect("trace frame parses");
    let mut out = HashMap::new();
    for t in doc.get("traces").and_then(Json::as_arr).unwrap_or_default() {
        let u = |k: &str| t.get(k).and_then(Json::as_u64);
        let spans = t
            .get("spans")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|s| {
                (
                    s.get("name")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    s.get("parent").and_then(Json::as_u64).map(|p| p as usize),
                    s.get("start_ns").and_then(Json::as_u64).unwrap_or(0),
                    s.get("dur_ns").and_then(Json::as_u64).unwrap_or(0),
                )
            })
            .collect();
        out.insert(
            u("trace_id").expect("trace id"),
            ServerTrace {
                tenant: t.get("tenant").and_then(Json::as_str).map(str::to_string),
                batch_id: u("batch_id"),
                total_ns: u("total_ns").unwrap_or(0),
                spans,
            },
        );
    }
    out
}

/// Records one request's span tree: `request` (due → received) over
/// `gen.wait` (due → sent) and `rtt` (sent → received); under `rtt` the
/// server's own tree for the request, joined by trace id. The server's
/// clock origin is not on the wire, so its tree is right-aligned in
/// `rtt`: `rtt`'s self time is wire + parse + admission + socket write.
fn record_request(rec: &mut Recorder, r: &RequestRow, trace: Option<&ServerTrace>) {
    let Some(recv) = r.recv_ns else { return };
    let root = rec.push("request", r.due_ns, recv, None, Some(r.id));
    rec.push(
        "gen.wait",
        r.due_ns,
        r.sent_ns.min(recv),
        Some(root),
        Some(r.id),
    );
    let rtt = rec.push("rtt", r.sent_ns.min(recv), recv, Some(root), Some(r.id));
    let Some(trace) = trace else { return };
    let t0 = recv.saturating_sub(trace.total_ns).max(r.sent_ns);
    let mut ids = Vec::with_capacity(trace.spans.len());
    for (name, parent, start, dur) in &trace.spans {
        let parent = match parent {
            None => rtt,
            Some(p) => ids[*p],
        };
        let name = if ids.is_empty() {
            "serve.request"
        } else {
            name.as_str()
        };
        ids.push(rec.push(
            name,
            t0 + start,
            (t0 + start + dur).min(recv),
            Some(parent),
            Some(r.id),
        ));
    }
}

/// Output checks shared by both workloads; returns failed operations.
fn check_phases(
    phases: &[Phase],
    references: &[Option<Arc<WarmEngine<TracedClassifier<RandomForest>>>>],
    errors: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> (u64, u64) {
    let (mut attempted, mut failed, mut compared) = (0u64, 0u64, 0u64);
    for phase in phases {
        let mut missing = 0u64;
        for r in &phase.result.rows {
            attempted += 1;
            if r.answers != 1 || !r.ok {
                failed += 1;
            }
            if r.answers == 0 {
                missing += 1;
            } else if r.answers > 1 {
                errors.push(format!(
                    "{}: id {} answered {} times",
                    phase.name, r.id, r.answers
                ));
            }
        }
        if missing > 0 {
            errors.push(format!("{}: {missing} requests never answered", phase.name));
        }
        if phase.result.unmatched > 0 {
            errors.push(format!(
                "{}: {} responses matched no request",
                phase.name, phase.result.unmatched
            ));
        }
        let by_id: HashMap<u64, &RequestRow> =
            phase.result.rows.iter().map(|r| (r.id, r)).collect();
        for (id, line) in &phase.result.kept {
            let r = by_id[id];
            if !r.ok {
                // An error frame: already counted as a failed operation.
                errors.push(format!("{}: id {} got {line}", phase.name, r.id));
                continue;
            }
            let Some(engine) = &references[r.tenant] else {
                continue;
            };
            let outcome = engine
                .explain(&[WarmRequest {
                    row: r.row,
                    request_id: 0,
                    trace: None,
                }])
                .remove(0);
            let WarmOutcome::Ok {
                explanation,
                degraded,
            } = outcome
            else {
                errors.push(format!("reference engine quarantined row {}", r.row));
                continue;
            };
            let want = explanation_frame(r.id, r.row, &explanation, degraded, 0, r.trace_id);
            compared += 1;
            if *line != want {
                errors.push(format!(
                    "{}: served explanation differs from WarmEngine::explain for row {} \
                     (tenant {}):\n  served {line}\n  wanted {want}",
                    phase.name, r.row, r.tenant
                ));
            }
        }
    }
    notes.push(format!(
        "{compared} sampled served explanations bit-identical to WarmEngine::explain"
    ));
    (attempted, failed)
}

fn rows_csv(phases: &[Phase], names: &[Option<&str>]) -> String {
    let mut out = String::from("phase,id,tenant,row,due_ns,sent_ns,recv_ns,ok,trace_id\n");
    for phase in phases {
        for r in &phase.result.rows {
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{}",
                phase.name,
                r.id,
                names[r.tenant].unwrap_or("default"),
                r.row,
                r.due_ns,
                r.sent_ns,
                r.recv_ns.map_or(String::new(), |v| v.to_string()),
                r.ok,
                r.trace_id.map_or(String::new(), |v| v.to_string())
            )
            .unwrap();
        }
    }
    out
}

fn secs_to_ns(s: f64) -> u64 {
    (s * 1e9) as u64
}

/// Completions of the open-loop phases' rows that `counts` selects, over
/// the time it took to complete them.
fn goodput(phases: &[Phase], counts: &dyn Fn(&RequestRow) -> bool) -> f64 {
    let mut done = 0usize;
    let mut elapsed_ns = 0u64;
    for phase in phases {
        let rows: Vec<&RequestRow> = phase
            .result
            .rows
            .iter()
            .filter(|r| counts(r) && r.ok && r.answers == 1)
            .collect();
        let end = rows.iter().filter_map(|r| r.recv_ns).max().unwrap_or(0);
        let begin = rows.iter().map(|r| r.due_ns).min().unwrap_or(0);
        done += rows.len();
        elapsed_ns += end.saturating_sub(begin);
    }
    done as f64 / (elapsed_ns.max(1) as f64 / 1e9)
}

/// Total duration of a trace's spans called `name`.
fn span_ns(t: &ServerTrace, name: &str) -> u64 {
    t.spans
        .iter()
        .filter(|sp| sp.0 == name)
        .map(|sp| sp.3)
        .sum()
}

/// Server-side distributions of the open-loop requests, from their
/// retained traces.
fn server_side_metrics(
    traces: &[&ServerTrace],
    open_rows: &[RequestRow],
    snap: &shahin::MetricsSnapshot,
    values: &mut Values,
) {
    let ms = |f: &dyn Fn(&ServerTrace) -> u64| -> Vec<f64> {
        traces.iter().map(|t| f(t) as f64 / 1e6).collect()
    };
    let stages =
        |t: &ServerTrace| span_ns(t, "retrieve") + span_ns(t, "classify") + span_ns(t, "explain");
    let queue = ms(&|t| span_ns(t, "queue"));
    values.insert("serve.queue_wait_p50_ms", supported_quantile(&queue, 0.5));
    values.insert("serve.queue_wait_p99_ms", supported_quantile(&queue, 0.99));
    values.insert("serve.engine_p50_ms", supported_quantile(&ms(&stages), 0.5));
    let batch_size = snap
        .value_histograms
        .get("serve.batch_size")
        .cloned()
        .unwrap_or_default();
    values.insert("serve.batch_size_mean", mean(&batch_size));
    let rtt: Vec<f64> = open_rows
        .iter()
        .filter_map(|r| r.recv_ns.map(|v| (v - r.sent_ns.min(v)) as f64 / 1e6))
        .collect();
    values.insert(
        "serve.wire_p50_ms",
        supported_quantile(&rtt, 0.5) - supported_quantile(&ms(&|t| t.total_ns), 0.5),
    );
    // Share of the engine flush not inside a stage span: worker spawn,
    // chunking, waiting for co-batched tuples, merge.
    let batch_ns: u64 = traces.iter().map(|t| span_ns(t, "batch")).sum();
    let stage_ns: u64 = traces
        .iter()
        .map(|t| stages(t) + span_ns(t, "coldstart"))
        .sum();
    values.insert(
        "core.unattributed_share",
        1.0 - stage_ns as f64 / batch_ns.max(1) as f64,
    );
}

/// The cluster's own layer metrics: `hot` alone against `hot` among its
/// neighbours, the neighbours' latencies, and the lifecycle.
fn tenancy_metrics(
    open_rows: &[RequestRow],
    in_b: &dyn Fn(&RequestRow) -> bool,
    traces: &[&ServerTrace],
    snap: &shahin::MetricsSnapshot,
    values: &mut Values,
) {
    let of = |tenant: usize, b: bool| -> Vec<f64> {
        open_rows
            .iter()
            .filter(|r| r.tenant == tenant && in_b(r) == b)
            .filter_map(RequestRow::latency_ms)
            .collect()
    };
    let alone_p99 = supported_quantile(&of(0, false), 0.99);
    values.insert("tenancy.hot_alone_p99_ms", alone_p99);
    values.insert(
        "tenancy.hol_p99_ratio",
        supported_quantile(&of(0, true), 0.99) / alone_p99.max(f64::MIN_POSITIVE),
    );
    values.insert("tenancy.slow_p50_ms", supported_quantile(&of(1, true), 0.5));
    values.insert("tenancy.shap_p50_ms", supported_quantile(&of(2, true), 0.5));
    // Three one-second bursts are 600 samples: the tail reported is the
    // highest percentile they support (p95).
    let bursty = of(3, true);
    values.insert(
        "tenancy.bursty_p99_ms",
        if bursty.is_empty() {
            0.0
        } else {
            summarize(&bursty).tail
        },
    );
    for name in [
        "tenancy.cold_starts",
        "tenancy.evictions",
        "tenancy.hydrations",
    ] {
        values.insert(name, snap.counter(name) as f64);
    }
    // Cold starts, one per (tenant, batch): a tenant's first is a cold
    // prime, its later ones re-admissions from a snapshot.
    let mut starts: Vec<(u64, String, f64)> = traces
        .iter()
        .filter(|t| span_ns(t, "coldstart") > 0)
        .map(|t| {
            (
                t.batch_id.unwrap_or(0),
                t.tenant.clone().unwrap_or_default(),
                span_ns(t, "coldstart") as f64 / 1e6,
            )
        })
        .collect();
    starts.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    starts.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
    let mut seen: Vec<String> = Vec::new();
    let (mut cold, mut readmit) = (Vec::new(), Vec::new());
    for (_, tenant, ms) in starts {
        if seen.contains(&tenant) {
            readmit.push(ms);
        } else {
            seen.push(tenant);
            cold.push(ms);
        }
    }
    let mean_of = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    values.insert("tenancy.cold_start_ms", mean_of(&cold));
    values.insert("tenancy.readmit_ms", mean_of(&readmit));
}

/// Runs one serve workload in this process.
pub fn run_workload(ctl: &Ctl) -> Outcome {
    let steady = ctl.workload == "serve_steady";
    let s = ctl.scale();
    let mut rec = Recorder::new();
    let origin = rec.origin();
    let mut notes = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut values = Values::new();
    let snapshot_dir = ctl.out.join(format!("snapshots-{}", std::process::id()));

    // The phases, as durations at this run length.
    let (phase_a, phase_b, loaded_s) = if steady {
        (10.0 * s, 0.0, 2.4 * s)
    } else {
        (3.0 * s, 12.0 * s, 0.0)
    };
    // The traced repeat adds two things: a short slice of tenant 0's
    // traffic offered to an untraced and then to the traced server (the
    // tracing-overhead comparison), and for `serve_steady` a closed-loop
    // saturation phase.
    let slice_s = if ctl.traced { 2.0 * s } else { 0.0 };
    let sat_requests = if steady && ctl.traced {
        (8_000.0 * s) as usize
    } else {
        0
    };
    let warmup_requests = ((500.0 * s) as usize).max(20);
    let plans = tenant_plans(&ctl.workload);
    let expected: usize = plans
        .iter()
        .map(|p| (p.rate * (phase_a + phase_b)) as usize)
        .sum::<usize>()
        + (LOADED_RATE * loaded_s) as usize
        + (plans[0].rate * slice_s) as usize
        + sat_requests
        + warmup_requests;

    // Set-up, several times over: data, models, prime, bind.
    let mut setup_s = Vec::new();
    let mut built: Option<(Arc<Vec<Tenant>>, Cluster)> = None;
    for _ in 0..ctl.setup_reps() {
        if let Some((_, cluster)) = built.take() {
            cluster.stop();
        }
        let span = rec.open("setup", None);
        let t = Instant::now();
        let tenants = Arc::new(build_tenants(ctl, &mut rec, Some(span)));
        // The traced repeat first drives an untraced server as the
        // reference its overhead is measured against.
        let cluster = start(
            &tenants,
            false,
            expected,
            &snapshot_dir,
            &mut rec,
            Some(span),
        );
        setup_s.push(t.elapsed().as_secs_f64());
        rec.close(span);
        built = Some((tenants, cluster));
    }
    let (tenants, mut cluster) = built.expect("at least one set-up");
    let names: Vec<Option<&str>> = tenants.iter().map(|t| t.plan.name).collect();
    let keep_seed = derive(ctl.seed, 77);
    let keep = move |id: u64| derive(keep_seed, id) % (expected as u64).max(1) < SAMPLED_CHECKS;
    let no_keep = |_: u64| false;
    let mut next_id = 1u64;
    let mut ids = |n: usize| {
        let base = next_id;
        next_id += n as u64;
        base
    };
    let source = |t: usize, start: f64, end: f64| {
        let plan = &tenants[t].plan;
        Source {
            tenant: t,
            rate: plan.rate,
            n_rows: tenants[t].warm.n_rows(),
            start_ns: secs_to_ns(start),
            end_ns: secs_to_ns(end),
            period_ns: plan.burst.map_or(0, |(p, _)| secs_to_ns(p * s)),
            on_ns: plan.burst.map_or(0, |(_, on)| secs_to_ns(on * s)),
        }
    };
    let open = |cluster: &Cluster,
                name: &'static str,
                arrivals: &[Arrival],
                base: u64,
                keep: &(dyn Fn(u64) -> bool + Sync)| Phase {
        name,
        result: open_loop(cluster.addr, arrivals, &names, base, origin, keep),
    };
    // Closed loop on tenant 0: the untimed warm-up, and saturation.
    let closed = |cluster: &Cluster, n: usize, window: usize, tag: u64, base: u64| {
        let rows = cycled_rows(n, tenants[0].warm.n_rows(), derive(ctl.seed, tag));
        closed_loop(cluster.addr, &rows, names[0], window, base, origin)
    };
    // CPU seconds this process spends per request of tenant 0's slice.
    let slice = |cluster: &Cluster, base: u64| -> f64 {
        let arrivals = schedule(&[source(0, 0.0, slice_s)], derive(ctl.seed, 39));
        let cpu0 = cpu_seconds();
        open(cluster, "slice", &arrivals, base, &no_keep);
        (cpu_seconds() - cpu0) / arrivals.len().max(1) as f64
    };
    let slice_len = schedule(&[source(0, 0.0, slice_s)], derive(ctl.seed, 39)).len();

    let span = rec.open("warmup", None);
    closed(&cluster, warmup_requests, 8, 30, ids(warmup_requests));
    rec.close(span);

    let mut phases: Vec<Phase> = Vec::new();
    let mut slice_cpu = (0.0, 0.0);
    if ctl.traced {
        let untraced_cpu = slice(&cluster, ids(slice_len));
        cluster.stop();
        let span = rec.open("setup.traced", None);
        cluster = start(
            &tenants,
            true,
            expected,
            &snapshot_dir,
            &mut rec,
            Some(span),
        );
        rec.close(span);
        closed(&cluster, warmup_requests, 8, 30, ids(warmup_requests));
        let traced_cpu = slice(&cluster, ids(slice_len));
        slice_cpu = (untraced_cpu, traced_cpu);
    }

    // The measured phases.
    let inv0 = cluster.invocations();
    let run_span = rec.open(
        if ctl.traced {
            "run.traced"
        } else {
            "run.untraced"
        },
        None,
    );
    let b_start_ns;
    if steady {
        let arrivals = schedule(&[source(0, 0.0, phase_a)], derive(ctl.seed, 40));
        phases.push(open(&cluster, "ref", &arrivals, ids(arrivals.len()), &keep));
        let mut loaded = source(0, 0.0, loaded_s);
        loaded.rate = LOADED_RATE;
        let arrivals = schedule(&[loaded], derive(ctl.seed, 41));
        phases.push(open(
            &cluster,
            "loaded",
            &arrivals,
            ids(arrivals.len()),
            &keep,
        ));
        b_start_ns = 0;
    } else {
        // One merged schedule: `hot` alone, then all four.
        let mut sources = vec![source(0, 0.0, phase_a + phase_b)];
        sources.extend((1..tenants.len()).map(|t| source(t, phase_a, phase_a + phase_b)));
        let arrivals = schedule(&sources, derive(ctl.seed, 40));
        b_start_ns = secs_to_ns(phase_a);
        phases.push(open(
            &cluster,
            "tenants",
            &arrivals,
            ids(arrivals.len()),
            &keep,
        ));
    }
    rec.close(run_span);
    let invocations = cluster.invocations() - inv0;
    let sat_rate = if sat_requests > 0 {
        let result = closed(&cluster, sat_requests, 256, 31, ids(sat_requests));
        let rate = completion_rate(&result.rows);
        phases.push(Phase {
            name: "sat",
            result,
        });
        rate
    } else {
        0.0
    };

    // Phase views.
    let open_rows = &phases[0].result.rows;
    let first_due = open_rows.iter().map(|r| r.due_ns).min().unwrap_or(0);
    let in_b = |r: &&RequestRow| r.due_ns - first_due >= b_start_ns;
    let measured: Vec<RequestRow> = if steady {
        open_rows.clone()
    } else {
        open_rows
            .iter()
            .filter(in_b)
            .filter(|r| r.tenant == 0)
            .cloned()
            .collect()
    };
    let lat = latencies(&measured, None);
    let lag: Vec<f64> = open_rows.iter().map(RequestRow::lag_ms).collect();
    let lag_p99 = supported_quantile(&lag, 0.99);
    let lag_limit = if steady {
        STEADY_LAG_LIMIT_MS
    } else {
        TENANTS_LAG_LIMIT_MS
    };
    let lag_ok = lag_p99 <= lag_limit;
    notes.push(format!(
        "generator lag p99 {lag_p99:.3} ms over {} requests, limit {lag_limit} ms: {}",
        lag.len(),
        if lag_ok {
            "ok"
        } else {
            "LATE - latencies not trusted"
        }
    ));
    if !lag_ok && std::env::var_os("SHAHIN_BENCH_STRICT").is_some() {
        errors.push(format!(
            "generator lag p99 {lag_p99:.3} ms exceeds {lag_limit} ms"
        ));
    }

    // Output checks. Reference engines for the sampled comparison: the
    // steady engine itself; for the cluster a fresh prime per tenant with
    // the tenant's own factory inputs (Anchor answers depend on the order
    // evidence accumulated in, so `slow` is checked for success only).
    let check_span = rec.open("checks", None);
    let quiet = MetricsRegistry::disabled();
    let references: Vec<Option<Arc<WarmEngine<TracedClassifier<RandomForest>>>>> = tenants
        .iter()
        .map(|t| match (&cluster.engine, &t.plan.explainer) {
            (Some(engine), _) => Some(Arc::clone(engine)),
            (None, WarmExplainer::Anchor(_)) => None,
            (None, _) => Some(Arc::new(t.engine(t.classifier(&quiet), &quiet, None))),
        })
        .collect();
    let (attempted, failed) = check_phases(&phases, &references, &mut errors, &mut notes);
    rec.close(check_span);

    let snap = cluster.reg.snapshot();
    if !steady && s >= 0.9 {
        // The lifecycle the workload exists for must have run.
        let (ev, hy) = (
            snap.counter("tenancy.evictions"),
            snap.counter("tenancy.hydrations"),
        );
        if ev < 2 || hy < 2 {
            errors.push(format!(
                "bursty tenant was evicted {ev} and hydrated {hy} times; the workload needs 2 of each"
            ));
        }
        notes.push(format!(
            "{} cold starts, {ev} evictions, {hy} hydrations",
            snap.counter("tenancy.cold_starts")
        ));
    }

    let in_phase_b = |r: &RequestRow| in_b(&r);
    if !ctl.traced {
        let summary = summarize(&lat);
        notes.push(format!(
            "{} latency samples ({}); whole-run p50 {:.3} ms, p{} {:.3} ms",
            summary.n,
            if steady {
                "ref phase"
            } else {
                "tenant hot, phase B"
            },
            summary.p50,
            summary.tail_q * 100.0,
            summary.tail
        ));
        values.insert("setup_s", median(&setup_s));
        values.insert(
            "explanations_per_s",
            goodput(&phases, &|r| steady || in_phase_b(r)),
        );
        values.insert(
            "invocations_per_explanation",
            invocations as f64 / (attempted - failed).max(1) as f64,
        );
        // `serve_steady`: median over one-second windows (a thousand
        // samples each, ten beyond the p99), so one stall cannot set the
        // value the way it sets a whole-run tail.
        //
        // `serve_tenants`: the p50 is the median over whole cycles of the
        // bursty tenant (each holds one burst, one eviction and one
        // re-admission). The tail is **`hot`'s p90**, median over
        // one-second windows after the second in which three tenants
        // cold-start inline. `hot` waits behind `slow`'s Anchor searches:
        // about ten of them set its p99, about eighty its p95, hundreds
        // its p90, and over ten runs the three moved by 19–48 %, 16–31 %
        // and 10–11 %. Only the last fits under a bound. The p99 is in
        // the notes and in `tenancy.hol_p99_ratio`.
        let (p50, tail) = if steady {
            (
                windowed_quantile(&measured, None, 0.5, s),
                windowed_quantile(&measured, None, 0.99, s),
            )
        } else {
            let settled: Vec<RequestRow> = measured
                .iter()
                .filter(|r| r.due_ns - first_due >= b_start_ns + secs_to_ns(s))
                .cloned()
                .collect();
            (
                windowed_quantile(&measured, None, 0.5, 4.0 * s),
                windowed_quantile(&settled, None, 0.90, s),
            )
        };
        values.insert("latency_p50_ms", p50);
        values.insert("latency_p99_ms", tail);
        values.insert("peak_rss_mb", peak_rss_mb());
    } else {
        // In-situ per-layer metrics from what the program already exposes.
        let traces = fetch_traces(cluster.addr);
        let run = &rec.spans()[run_span];
        let run_ns = (run.end_ns - run.start_ns) as f64;
        let mut lineage = Lineage::default();
        lineage.absorb(cluster.sink.as_ref().expect("traced runs carry a sink"));
        insert_common(&snap, &lineage, run_ns * nproc() as f64, &mut values);
        values.insert("fim.itemsets", snap.gauge("serve.warm_entries") as f64);
        values.insert("core.store_bytes", snap.gauge("serve.warm_bytes") as f64);
        insert_setup(rec.spans(), &mut values);

        // Per-request trees, in a span log of their own: the client's
        // spans joined with the server's by trace id.
        let mut requests = Recorder::starting_at(rec.origin());
        let mut missing_traces = 0usize;
        for r in open_rows {
            let trace = r.trace_id.and_then(|id| traces.get(&id));
            missing_traces += usize::from(trace.is_none() && r.recv_ns.is_some());
            record_request(&mut requests, r, trace);
        }
        if missing_traces > 0 {
            errors.push(format!(
                "{missing_traces} answered requests have no retained trace"
            ));
        }
        let n_req = (open_rows.iter().filter(|r| r.recv_ns.is_some()).count() as u64).max(1);
        let waterfall: Vec<Row> = fold(requests.spans())
            .into_iter()
            .map(|row| Row {
                self_ns: row.self_ns / n_req,
                ..row
            })
            .collect();
        print_waterfall(
            "per request (mean ns from the due time)",
            1e3,
            "us",
            &waterfall,
        );
        notes.push(format!(
            "waterfall rows sum to {:.3} us per request; mean latency from due time {:.3} us",
            waterfall.iter().map(|r| r.self_ns).sum::<u64>() as f64 / 1e3,
            1e3 * latencies(open_rows, None).iter().sum::<f64>() / n_req as f64
        ));

        let phase_traces: Vec<&ServerTrace> = open_rows
            .iter()
            .filter_map(|r| r.trace_id.and_then(|id| traces.get(&id)))
            .collect();
        server_side_metrics(&phase_traces, open_rows, &snap, &mut values);
        values.insert("serve.gen_lag_p99_ms", lag_p99);
        values.insert("serve.saturation_rps", sat_rate);
        // Serve rates are set by the schedule, so the overhead is read off
        // the CPU the process spends per request of the same slice.
        values.insert(
            "obs.tracing_overhead_pct",
            100.0 * (slice_cpu.1 - slice_cpu.0) / slice_cpu.0.max(f64::MIN_POSITIVE),
        );
        notes.push(format!(
            "CPU per request over a {slice_s:.1} s slice of tenant 0: untraced {:.1} us, traced {:.1} us",
            slice_cpu.0 * 1e6,
            slice_cpu.1 * 1e6
        ));
        if steady {
            values.insert("serve.ref_p999_ms", supported_quantile(&lat, 0.999));
            let loaded = latencies(&phases[1].result.rows, None);
            values.insert("serve.loaded_p50_ms", supported_quantile(&loaded, 0.5));
            values.insert("serve.loaded_p99_ms", supported_quantile(&loaded, 0.99));
        } else {
            tenancy_metrics(open_rows, &in_phase_b, &phase_traces, &snap, &mut values);
        }

        probes::run(&tenants[0].inputs, &mut values, &mut rec);
        let waterfalls = vec![
            ("request".to_string(), waterfall),
            ("benchmark".to_string(), fold(rec.spans())),
        ];
        let path = write_out(
            &ctl.out,
            &format!("{}.trace.json", ctl.workload),
            &trace_file(
                &ctl.workload,
                &waterfalls,
                &[("benchmark", rec.spans()), ("requests", requests.spans())],
            ),
        );
        notes.push(format!("spans and waterfall in {}", path.display()));
    }

    let path = write_out(
        &ctl.out,
        &format!("{}.rows.csv", ctl.workload),
        &rows_csv(&phases, &names),
    );
    notes.push(format!("per-request rows in {}", path.display()));
    cluster.stop();
    let _ = std::fs::remove_dir_all(&snapshot_dir);

    for e in &errors {
        eprintln!("CHECK FAILED [{}]: {e}", ctl.workload);
    }
    Outcome {
        correct: errors.is_empty() && failed == 0,
        attempted,
        failed,
        values,
        notes,
    }
}
