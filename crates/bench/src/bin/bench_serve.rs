//! Serving load generator: warm worker-pool server vs cold
//! per-request batch invocation. Emits `BENCH_serve.json`.
//!
//! The **warm** arm primes a [`shahin::WarmEngine`] over the warm set,
//! starts a `shahin-serve` TCP server on an ephemeral loopback port, and
//! drives it with closed-loop clients (each sends a request, waits for
//! the response, repeats). Concurrent clients are answered by the
//! server's worker pool against the resident perturbation store.
//!
//! The **cold** arm answers the *same* request sequence the way the
//! offline drivers would: one `ShahinBatch::explain_lime` per request
//! over a 1-tuple batch — which re-mines and re-materializes per
//! request, and degenerates automatic τ selection to τ=1, so almost
//! every perturbation is generated (and paid for) fresh.
//!
//! Environment knobs (on top of the shared `SHAHIN_SEED`,
//! `SHAHIN_COST_US`):
//!
//! * `SHAHIN_SERVE_REQUESTS` — total requests per arm (default 120),
//! * `SHAHIN_SERVE_CONCURRENCY` — closed-loop clients (default 4),
//! * `SHAHIN_SERVE_WARM_ROWS` — warm-set size (default 200),
//! * `SHAHIN_SERVE_OUT` — artifact path (default BENCH_serve.json),
//! * `SHAHIN_SERVE_ADDR` — external mode: skip the in-process server and
//!   cold arm, drive an already-running server at this address instead
//!   (used by the CI smoke script against `shahin-cli serve`),
//! * `SHAHIN_SERVE_SHUTDOWN` — external mode: send an admin `shutdown`
//!   frame after the run when set to 1.
//!
//! A third **scrape** arm measures the live observability plane: a
//! closed-loop load (`SHAHIN_OBS_LIVE_REQUESTS`, default 120x the serve
//! arms so each drive spans several scrape intervals) is driven twice per
//! repetition against one warm server — once bare, once with a sidecar
//! client polling the `metrics` admin frame every
//! `SHAHIN_OBS_LIVE_SCRAPE_MS` (default 500) milliseconds (an order of
//! magnitude hotter than a real scraper's multi-second cadence) — and
//! the median of the per-repetition paired overheads is taken (each
//! pair's drives are adjacent in time, so machine-state drift cancels,
//! and the median sheds scheduler outliers). The run asserts scraping
//! costs < `SHAHIN_OBS_LIVE_BUDGET_PCT` (default 3%) of throughput and
//! emits `SHAHIN_OBS_LIVE_OUT` (default `BENCH_obs_live.json`), gated
//! in CI by `bench_compare obs_live`. `SHAHIN_OBS_LIVE_REPS` (default
//! 7) sets the repetitions.
//!
//! A fourth **tracing** arm measures request-scoped tracing the same
//! way: two servers share one warm engine — one with tracing disabled
//! (`trace_store: 0`), one at the default tail-sampling configuration —
//! and paired order-alternating drives (`SHAHIN_TRACE_REQUESTS`,
//! `SHAHIN_TRACE_REPS`) yield a median overhead asserted below
//! `SHAHIN_TRACE_BUDGET_PCT` (default 3%) and written to
//! `SHAHIN_TRACE_OUT` (default `BENCH_trace.json`), gated in CI by
//! `bench_compare trace`.
//!
//! Both budgets were 1% while every request sat out a 5 ms batch window:
//! the fixed wait made drive throughput nearly deterministic and hid
//! everything else. At ~150 µs per round trip the same ~2 µs of tracing
//! work is ~1.3% of a request, and paired drives on a 2-core box
//! resolve no better than about ±2%, so 3% is the tightest bound this
//! estimator can hold without flaking; it still catches a tracing or
//! scraping change that costs a request more than a few microseconds.
//!
//! A fifth **persist** arm is the restart drill: a donor engine primes,
//! answers a deterministic request sequence, and snapshots its warm
//! state; then two restarts answer the *same* sequence — one cold
//! (full re-prime, paying every mining and classifier call again) and
//! one hydrated from the snapshot via the `--warm-from` path (zero
//! classifier invocations to restart). The arm asserts all three
//! engines produce bit-identical explanations (FNV-1a fingerprints)
//! and emits `SHAHIN_PERSIST_OUT` (default `BENCH_persist.json`),
//! gated in CI by `bench_compare persist`.
//!
//! A sixth **tenancy** arm drills the multi-tenant cluster: N tenants
//! (`SHAHIN_TENANCY_TENANTS`, default 3) behind one listener, each with
//! its own model and warm set, driven by a seed-derived Zipf tenant mix
//! (`SHAHIN_TENANCY_REQUESTS` requests). It measures cold-start
//! latency (first touch per tenant, paying lazy materialization) vs
//! keepalive latency (the warm steady state), then lets every tenant
//! idle past the keepalive (`SHAHIN_TENANCY_IDLE_MS`, default 3000) so
//! the lifecycle controller evicts them all — writing at-evict
//! snapshots — and re-admits each with a hydrated, classifier-free cold
//! start, asserting the re-admitted explanations are bit-identical to
//! the first serving. Emits `SHAHIN_TENANCY_OUT` (default
//! `BENCH_tenancy.json`), gated in CI by `bench_compare tenancy`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use shahin::{
    BatchConfig, ExplainerKind, MetricsRegistry, ProvenanceSink, ShahinBatch, WarmEngine,
    WarmOutcome, WarmRequest,
};
use shahin_bench::json::Json;
use shahin_bench::{
    base_seed, bench_lime, env_u64, explanation_fingerprint, f2, workload, write_artifact,
};
use shahin_serve::{ServeConfig, Server};
use shahin_tabular::DatasetPreset;

/// Deterministic request row for client `c`'s `i`-th request: the same
/// sequence drives both arms, so their work is identical tuple-for-tuple.
fn request_row(c: usize, i: usize, seed: u64, warm_rows: usize) -> usize {
    (c * 7919 + i * 104_729 + seed as usize) % warm_rows
}

/// One arm's latency profile.
struct ArmStats {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    store_hit_rate: f64,
    invocations_per_request: f64,
}

impl ArmStats {
    fn mean_ms(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len().max(1) as f64
    }

    fn percentile_ms(&self, q: f64) -> f64 {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx]
    }

    fn throughput_rps(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall_s.max(1e-9)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"throughput_rps\": {:.3}, \"mean_ms\": {:.4}, \"p50_ms\": {:.4}, \
             \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \"store_hit_rate\": {:.6}, \
             \"invocations_per_request\": {:.3}}}",
            self.throughput_rps(),
            self.mean_ms(),
            self.percentile_ms(0.50),
            self.percentile_ms(0.95),
            self.percentile_ms(0.99),
            self.store_hit_rate,
            self.invocations_per_request
        )
    }
}

/// Closed-loop clients against a live server; returns per-request
/// latencies (ms) in completion order and the arm wall time.
fn drive_clients(
    addr: &str,
    concurrency: usize,
    requests: usize,
    seed: u64,
    warm_rows: usize,
) -> (f64, Vec<f64>) {
    let per_client = requests / concurrency.max(1);
    let t0 = Instant::now();
    let mut all: Vec<f64> = Vec::with_capacity(requests);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|c| {
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect to serve endpoint");
                    stream.set_nodelay(true).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .unwrap();
                    let mut reader = BufReader::new(stream);
                    let mut latencies = Vec::with_capacity(per_client);
                    let mut line = String::new();
                    for i in 0..per_client {
                        let row = request_row(c, i, seed, warm_rows);
                        let frame =
                            format!("{{\"id\": {i}, \"method\": \"explain\", \"row\": {row}}}\n");
                        let t = Instant::now();
                        reader.get_mut().write_all(frame.as_bytes()).unwrap();
                        line.clear();
                        reader.read_line(&mut line).unwrap();
                        latencies.push(t.elapsed().as_secs_f64() * 1e3);
                        let v = Json::parse(&line).expect("response frame parses");
                        assert_eq!(
                            v.get("ok").and_then(Json::as_bool),
                            Some(true),
                            "explain failed: {line}"
                        );
                    }
                    latencies
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("client thread"));
        }
    });
    (t0.elapsed().as_secs_f64(), all)
}

fn hit_rate(sink: &ProvenanceSink) -> f64 {
    let t = sink.totals();
    let denom = (t.samples_reused + t.samples_fresh) as f64;
    if denom == 0.0 {
        0.0
    } else {
        t.samples_reused as f64 / denom
    }
}

/// Sends one admin frame and returns the parsed response.
fn admin_round_trip(addr: &str, frame: &str) -> Json {
    let stream = TcpStream::connect(addr).expect("connect for admin frame");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    reader.get_mut().write_all(frame.as_bytes()).unwrap();
    reader.get_mut().write_all(b"\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    Json::parse(&line).expect("admin response parses")
}

/// Polls the `metrics` admin frame on its own connection every
/// `interval` until `stop` flips, validating each response; returns the
/// number of successful scrapes.
fn scrape_loop(addr: &str, interval: Duration, stop: &std::sync::atomic::AtomicBool) -> u64 {
    let stream = TcpStream::connect(addr).expect("connect scraper");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut scrapes = 0u64;
    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
        reader
            .get_mut()
            .write_all(b"{\"id\": 1, \"method\": \"metrics\"}\n")
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(&line).expect("metrics frame parses");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let text = v
            .get("metrics")
            .and_then(Json::as_str)
            .expect("exposition text");
        assert!(text.contains("# TYPE serve_requests_total counter"));
        scrapes += 1;
        std::thread::sleep(interval);
    }
    scrapes
}

fn main() {
    let seed = base_seed();
    let concurrency = (env_u64("SHAHIN_SERVE_CONCURRENCY", 4) as usize).max(1);
    // Rounded down to a multiple of the client count (closed-loop clients
    // send equal shares).
    let requests =
        (env_u64("SHAHIN_SERVE_REQUESTS", 120) as usize / concurrency).max(1) * concurrency;
    let warm_rows = env_u64("SHAHIN_SERVE_WARM_ROWS", 200) as usize;
    let out_path = std::env::var("SHAHIN_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());

    // External mode: measure a server someone else started (CI smoke).
    if let Ok(addr) = std::env::var("SHAHIN_SERVE_ADDR") {
        println!("# Serving load (external): {requests} requests, {concurrency} clients -> {addr}");
        let (wall_s, latencies_ms) = drive_clients(&addr, concurrency, requests, seed, warm_rows);
        let stats = ArmStats {
            wall_s,
            latencies_ms,
            store_hit_rate: 0.0,
            invocations_per_request: 0.0,
        };
        println!(
            "external: {:.1} req/s, mean {} ms, p95 {} ms",
            stats.throughput_rps(),
            f2(stats.mean_ms()),
            f2(stats.percentile_ms(0.95))
        );
        if env_u64("SHAHIN_SERVE_SHUTDOWN", 0) == 1 {
            let mut stream = TcpStream::connect(&addr).expect("connect for shutdown");
            stream
                .write_all(b"{\"id\": 0, \"method\": \"shutdown\"}\n")
                .expect("send shutdown frame");
            println!("sent shutdown frame");
        }
        let json = format!(
            "{{\n  \"mode\": \"external\",\n  \"requests\": {requests},\n  \"concurrency\": {concurrency},\n  \"warm_rows\": {warm_rows},\n  \"seed\": {seed},\n  \"warm\": {}\n}}\n",
            stats.to_json()
        );
        write_artifact(&out_path, &json);
        println!("wrote {out_path}");
        return;
    }

    let preset = DatasetPreset::Recidivism;
    println!(
        "# Serving load: {requests} requests, {concurrency} clients, {warm_rows} warm rows of {}",
        preset.name()
    );

    // ---- Warm arm: worker-pool server over a primed repository. ----
    let warm_stats = {
        let w = workload(preset, 0.2, seed);
        let warm_rows = warm_rows.min(w.max_batch());
        let warm = w.batch(warm_rows);
        let reg = MetricsRegistry::new();
        let sink = Arc::new(ProvenanceSink::new());
        reg.attach_provenance_sink(Arc::clone(&sink));
        let engine = Arc::new(WarmEngine::prime(
            BatchConfig::default(),
            ExplainerKind::Lime(bench_lime()),
            w.ctx,
            w.clf,
            warm,
            seed,
            &reg,
        ));
        let prime_invocations = engine.invocations();
        println!("warm: primed ({prime_invocations} invocations)");
        let engine_for_stats = Arc::clone(&engine);
        let handle = Server::start(engine, ServeConfig::default()).expect("server binds");
        let addr = handle.addr().to_string();
        let (wall_s, latencies_ms) = drive_clients(&addr, concurrency, requests, seed, warm_rows);
        handle.shutdown();
        let served = handle.wait();
        let stats = ArmStats {
            wall_s,
            latencies_ms,
            store_hit_rate: hit_rate(&sink),
            invocations_per_request: (engine_for_stats.invocations() - prime_invocations) as f64
                / served.max(1) as f64,
        };
        println!(
            "warm: {:.1} req/s, mean {} ms, p95 {} ms, store hit rate {}, {} invocations/request",
            stats.throughput_rps(),
            f2(stats.mean_ms()),
            f2(stats.percentile_ms(0.95)),
            f2(stats.store_hit_rate),
            f2(stats.invocations_per_request)
        );
        stats
    };

    // ---- Cold arm: one offline batch invocation per request. ----
    let cold_stats = {
        let w = workload(preset, 0.2, seed);
        let warm_rows = warm_rows.min(w.max_batch());
        let warm = w.batch(warm_rows);
        let reg = MetricsRegistry::new();
        let sink = Arc::new(ProvenanceSink::new());
        reg.attach_provenance_sink(Arc::clone(&sink));
        let shahin = ShahinBatch::new(BatchConfig::default()).with_obs(&reg);
        let lime = bench_lime();
        let (ctx, clf) = (&w.ctx, &w.clf);
        let invocations0 = clf.invocations();
        let per_client = requests / concurrency.max(1);
        let t0 = Instant::now();
        let mut latencies_ms: Vec<f64> = Vec::with_capacity(requests);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..concurrency)
                .map(|c| {
                    let (warm, shahin, lime) = (&warm, &shahin, &lime);
                    scope.spawn(move || {
                        let mut latencies = Vec::with_capacity(per_client);
                        for i in 0..per_client {
                            let row = request_row(c, i, seed, warm_rows);
                            let one = warm.select(&[row]);
                            let t = Instant::now();
                            let result = shahin.explain_lime(ctx, clf, &one, lime, seed);
                            latencies.push(t.elapsed().as_secs_f64() * 1e3);
                            assert_eq!(result.explanations.len(), 1);
                        }
                        latencies
                    })
                })
                .collect();
            for h in handles {
                latencies_ms.extend(h.join().expect("cold client thread"));
            }
        });
        let stats = ArmStats {
            wall_s: t0.elapsed().as_secs_f64(),
            latencies_ms,
            store_hit_rate: hit_rate(&sink),
            invocations_per_request: (clf.invocations() - invocations0) as f64
                / requests.max(1) as f64,
        };
        println!(
            "cold: {:.1} req/s, mean {} ms, p95 {} ms, store hit rate {}, {} invocations/request",
            stats.throughput_rps(),
            f2(stats.mean_ms()),
            f2(stats.percentile_ms(0.95)),
            f2(stats.store_hit_rate),
            f2(stats.invocations_per_request)
        );
        stats
    };

    println!(
        "warm vs cold: {}x mean latency, {}x throughput",
        f2(cold_stats.mean_ms() / warm_stats.mean_ms().max(1e-9)),
        f2(warm_stats.throughput_rps() / cold_stats.throughput_rps().max(1e-9))
    );

    let json = format!(
        "{{\n  \"dataset\": \"{}\",\n  \"requests\": {requests},\n  \"concurrency\": {concurrency},\n  \"warm_rows\": {warm_rows},\n  \"seed\": {seed},\n  \"warm\": {},\n  \"cold\": {},\n  \"mean_speedup\": {:.3}\n}}\n",
        preset.name(),
        warm_stats.to_json(),
        cold_stats.to_json(),
        cold_stats.mean_ms() / warm_stats.mean_ms().max(1e-9)
    );
    write_artifact(&out_path, &json);
    println!("wrote {out_path}");

    // ---- Scrape arm: does live exposition cost throughput? ----
    let obs_out =
        std::env::var("SHAHIN_OBS_LIVE_OUT").unwrap_or_else(|_| "BENCH_obs_live.json".into());
    let reps = (env_u64("SHAHIN_OBS_LIVE_REPS", 7) as usize).max(1);
    let scrape_ms = env_u64("SHAHIN_OBS_LIVE_SCRAPE_MS", 500).max(1);
    // Each drive must be long enough that a sub-1% throughput delta is
    // measurable at all (and spans several scrape intervals), so this
    // arm defaults to 120x the serve arms' request count (still rounded
    // to a multiple of the client count): ~1.5 s per drive at the
    // ~6 000 req/s four closed-loop clients reach without a batch window.
    let obs_requests =
        (env_u64("SHAHIN_OBS_LIVE_REQUESTS", 120 * requests as u64) as usize / concurrency).max(1)
            * concurrency;
    let budget_pct = std::env::var("SHAHIN_OBS_LIVE_BUDGET_PCT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(3.0);
    println!(
        "# Scrape overhead: {obs_requests} requests/drive, {reps} reps, \
         metrics poll every {scrape_ms} ms"
    );

    let (noscrape_rps, scrape_rps, scrapes) = {
        let w = workload(preset, 0.2, seed);
        let warm_rows = warm_rows.min(w.max_batch());
        let warm = w.batch(warm_rows);
        let reg = MetricsRegistry::new();
        let engine = Arc::new(WarmEngine::prime(
            BatchConfig::default(),
            ExplainerKind::Lime(bench_lime()),
            w.ctx,
            w.clf,
            warm,
            seed,
            &reg,
        ));
        let handle = Server::start(
            engine,
            ServeConfig {
                monitor_interval: Duration::from_millis(50),
                windows: 32,
                ..Default::default()
            },
        )
        .expect("server binds");
        let addr = handle.addr().to_string();

        // One untimed warmup drive: the first pass over a fresh server
        // pays one-time costs (thread spawns, allocator growth, branch
        // warmup) that would otherwise land entirely on the bare arm.
        drive_clients(&addr, concurrency, obs_requests, seed, warm_rows);

        // Alternate bare/scraped drives against one warm server —
        // swapping which goes first each rep — so drift (page cache,
        // turbo, a noisy neighbour) hits both arms symmetrically and
        // each rep yields one paired overhead measurement. If the
        // first round's median misses the budget, one more round is
        // pooled in before judging: on a busy shared core a single
        // multi-hundred-ms scheduler stall can land on enough drives
        // of one arm to swing a 7-pair median past 1%.
        let mut no_all: Vec<f64> = Vec::with_capacity(2 * reps);
        let mut scr_all: Vec<f64> = Vec::with_capacity(2 * reps);
        let mut scrapes = 0u64;
        for round in 0..2 {
            for rep in 0..reps {
                let drive_bare = || {
                    let (wall_s, lats) =
                        drive_clients(&addr, concurrency, obs_requests, seed, warm_rows);
                    lats.len() as f64 / wall_s.max(1e-9)
                };
                let drive_scraped = || {
                    let stop = std::sync::atomic::AtomicBool::new(false);
                    let mut rps = 0.0f64;
                    let mut polled = 0u64;
                    std::thread::scope(|scope| {
                        let scraper = scope
                            .spawn(|| scrape_loop(&addr, Duration::from_millis(scrape_ms), &stop));
                        let (wall_s, lats) =
                            drive_clients(&addr, concurrency, obs_requests, seed, warm_rows);
                        rps = lats.len() as f64 / wall_s.max(1e-9);
                        stop.store(true, std::sync::atomic::Ordering::Relaxed);
                        polled = scraper.join().expect("scraper thread");
                    });
                    (rps, polled)
                };
                let (no_rps, (scr_rps, polled)) = if rep % 2 == 0 {
                    let no = drive_bare();
                    (no, drive_scraped())
                } else {
                    let scraped = drive_scraped();
                    (drive_bare(), scraped)
                };
                no_all.push(no_rps);
                scr_all.push(scr_rps);
                scrapes += polled;
                println!("rep {rep}: bare {no_rps:.1} req/s, scraped {scr_rps:.1} req/s");
            }
            let mut sorted: Vec<f64> = no_all
                .iter()
                .zip(&scr_all)
                .map(|(no, scr)| 100.0 * (no - scr) / no.max(1e-9))
                .collect();
            sorted.sort_by(|a, b| a.total_cmp(b));
            if round == 0 && sorted[sorted.len() / 2] >= budget_pct {
                println!("first-round median missed the budget; pooling a second round");
            } else {
                break;
            }
        }

        // One windowed-stats sanity check while the server is still up.
        let stats = admin_round_trip(&addr, "{\"id\": 2, \"method\": \"stats\"}");
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
        assert!(
            stats.get("stats").is_some(),
            "stats frame carries a summary object"
        );

        handle.shutdown();
        handle.wait();
        (no_all, scr_all, scrapes)
    };

    fn median(values: &[f64]) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        sorted[sorted.len() / 2]
    }
    let pair_overheads: Vec<f64> = noscrape_rps
        .iter()
        .zip(&scrape_rps)
        .map(|(no, scr)| 100.0 * (no - scr) / no.max(1e-9))
        .collect();
    let overhead_pct = median(&pair_overheads);
    let noscrape_rps = median(&noscrape_rps);
    let scrape_rps = median(&scrape_rps);
    println!(
        "scrape overhead: bare {noscrape_rps:.1} req/s vs scraped {scrape_rps:.1} req/s \
         median ({} pct, {scrapes} scrapes, budget {} pct)",
        f2(overhead_pct),
        f2(budget_pct)
    );
    assert!(
        scrapes > 0,
        "the scraper must have completed at least one poll"
    );
    assert!(
        overhead_pct < budget_pct,
        "live scraping cost {overhead_pct:.2}% of throughput (budget {budget_pct:.2}%)"
    );

    let obs_json = format!(
        "{{\n  \"dataset\": \"{}\",\n  \"requests\": {obs_requests},\n  \"concurrency\": {concurrency},\n  \"warm_rows\": {warm_rows},\n  \"seed\": {seed},\n  \"reps\": {reps},\n  \"scrape_interval_ms\": {scrape_ms},\n  \"noscrape_rps\": {noscrape_rps:.3},\n  \"scrape_rps\": {scrape_rps:.3},\n  \"overhead_pct\": {overhead_pct:.3},\n  \"budget_pct\": {budget_pct:.3},\n  \"scrapes\": {scrapes}\n}}\n",
        preset.name()
    );
    write_artifact(&obs_out, &obs_json);
    println!("wrote {obs_out}");

    // ---- Tracing arm: does request-scoped tracing cost throughput? ----
    let trace_out = std::env::var("SHAHIN_TRACE_OUT").unwrap_or_else(|_| "BENCH_trace.json".into());
    let trace_reps = (env_u64("SHAHIN_TRACE_REPS", 7) as usize).max(1);
    let trace_requests =
        (env_u64("SHAHIN_TRACE_REQUESTS", 120 * requests as u64) as usize / concurrency).max(1)
            * concurrency;
    let trace_budget_pct = std::env::var("SHAHIN_TRACE_BUDGET_PCT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(3.0);
    println!(
        "# Tracing overhead: {trace_requests} requests/drive, {trace_reps} reps, \
         default tail sampling"
    );

    let (bare_rps, traced_rps, retained) = {
        let w = workload(preset, 0.2, seed);
        let warm_rows = warm_rows.min(w.max_batch());
        let warm = w.batch(warm_rows);
        let reg = MetricsRegistry::new();
        let engine = Arc::new(WarmEngine::prime(
            BatchConfig::default(),
            ExplainerKind::Lime(bench_lime()),
            w.ctx,
            w.clf,
            warm,
            seed,
            &reg,
        ));
        // Both servers share the primed engine: the bare one admits
        // requests without trace contexts (trace_store: 0), so the
        // engine's stage capture stays dormant on its path, and sharing
        // keeps the warm store identical between arms.
        let quiet = ServeConfig {
            monitor_interval: Duration::from_millis(50),
            windows: 32,
            ..Default::default()
        };
        let bare_handle = Server::start(
            Arc::clone(&engine),
            ServeConfig {
                trace_store: 0,
                ..quiet.clone()
            },
        )
        .expect("bare server binds");
        let traced_handle = Server::start(engine, quiet).expect("traced server binds");
        let bare_addr = bare_handle.addr().to_string();
        let traced_addr = traced_handle.addr().to_string();

        // Untimed warmup on each server (thread spawns, allocator
        // growth) so one-time costs land on neither timed arm.
        drive_clients(&bare_addr, concurrency, trace_requests, seed, warm_rows);
        drive_clients(&traced_addr, concurrency, trace_requests, seed, warm_rows);

        // Same pooled-second-round estimator as the scrape arm: one
        // paired overhead per rep, order alternating, judged by median.
        let mut bare_all: Vec<f64> = Vec::with_capacity(2 * trace_reps);
        let mut traced_all: Vec<f64> = Vec::with_capacity(2 * trace_reps);
        for round in 0..2 {
            for rep in 0..trace_reps {
                let drive = |addr: &str| {
                    let (wall_s, lats) =
                        drive_clients(addr, concurrency, trace_requests, seed, warm_rows);
                    lats.len() as f64 / wall_s.max(1e-9)
                };
                let (bare, traced) = if rep % 2 == 0 {
                    let b = drive(&bare_addr);
                    (b, drive(&traced_addr))
                } else {
                    let t = drive(&traced_addr);
                    (drive(&bare_addr), t)
                };
                bare_all.push(bare);
                traced_all.push(traced);
                println!("rep {rep}: bare {bare:.1} req/s, traced {traced:.1} req/s");
            }
            let mut sorted: Vec<f64> = bare_all
                .iter()
                .zip(&traced_all)
                .map(|(no, tr)| 100.0 * (no - tr) / no.max(1e-9))
                .collect();
            sorted.sort_by(|a, b| a.total_cmp(b));
            if round == 0 && sorted[sorted.len() / 2] >= trace_budget_pct {
                println!("first-round median missed the budget; pooling a second round");
            } else {
                break;
            }
        }

        // The traced server must actually have retained traces — an
        // accidentally-dormant tracer would measure 0% overhead.
        let slowest = admin_round_trip(
            &traced_addr,
            "{\"id\": 3, \"method\": \"trace\", \"slowest\": 1}",
        );
        assert_eq!(slowest.get("ok").and_then(Json::as_bool), Some(true));
        let retained = slowest
            .get("store")
            .and_then(|s| s.get("retained"))
            .and_then(Json::as_f64)
            .expect("trace frame carries store totals") as u64;

        bare_handle.shutdown();
        traced_handle.shutdown();
        bare_handle.wait();
        traced_handle.wait();
        (bare_all, traced_all, retained)
    };

    let trace_pair_overheads: Vec<f64> = bare_rps
        .iter()
        .zip(&traced_rps)
        .map(|(no, tr)| 100.0 * (no - tr) / no.max(1e-9))
        .collect();
    let trace_overhead_pct = median(&trace_pair_overheads);
    let bare_rps = median(&bare_rps);
    let traced_rps = median(&traced_rps);
    println!(
        "tracing overhead: bare {bare_rps:.1} req/s vs traced {traced_rps:.1} req/s \
         median ({} pct, {retained} traces retained, budget {} pct)",
        f2(trace_overhead_pct),
        f2(trace_budget_pct)
    );
    assert!(
        retained > 0,
        "the traced server must have retained at least one trace"
    );
    assert!(
        trace_overhead_pct < trace_budget_pct,
        "tracing cost {trace_overhead_pct:.2}% of throughput (budget {trace_budget_pct:.2}%)"
    );

    let trace_json = format!(
        "{{\n  \"dataset\": \"{}\",\n  \"requests\": {trace_requests},\n  \"concurrency\": {concurrency},\n  \"warm_rows\": {warm_rows},\n  \"seed\": {seed},\n  \"reps\": {trace_reps},\n  \"bare_rps\": {bare_rps:.3},\n  \"traced_rps\": {traced_rps:.3},\n  \"overhead_pct\": {trace_overhead_pct:.3},\n  \"budget_pct\": {trace_budget_pct:.3},\n  \"retained\": {retained}\n}}\n",
        preset.name()
    );
    write_artifact(&trace_out, &trace_json);
    println!("wrote {trace_out}");

    // ---- Persist arm: the restart drill, cold re-prime vs hydration. ----
    let persist_out =
        std::env::var("SHAHIN_PERSIST_OUT").unwrap_or_else(|_| "BENCH_persist.json".into());
    // Distinct rows keep serve-time invocation counts deterministic:
    // duplicate rows in flight at once would race on who inserts the
    // fresh perturbations first, and this arm gates counts exactly.
    let persist_requests = (env_u64("SHAHIN_PERSIST_REQUESTS", requests as u64) as usize)
        .min(env_u64("SHAHIN_SERVE_WARM_ROWS", 200) as usize);
    println!(
        "# Restart drill: {persist_requests} requests, cold re-prime vs --warm-from hydration"
    );

    let sequence = |warm_rows: usize| -> Vec<WarmRequest> {
        (0..persist_requests.min(warm_rows))
            .map(|i| WarmRequest {
                row: i,
                request_id: i as u64,
                trace: None,
            })
            .collect()
    };
    let serve_fingerprint = |engine: &WarmEngine<_>, warm_rows: usize| -> (u64, u64) {
        let before = engine.invocations();
        let outcomes = engine.explain(&sequence(warm_rows));
        let explanations: Vec<_> = outcomes
            .into_iter()
            .map(|o| match o {
                WarmOutcome::Ok { explanation, .. } => explanation,
                WarmOutcome::Failed(f) => panic!("restart drill request failed: {f:?}"),
            })
            .collect();
        (
            explanation_fingerprint(&explanations),
            engine.invocations() - before,
        )
    };

    // Donor: prime, serve the sequence, snapshot the repository —
    // exactly what a production server writes at drain. (Serving never
    // mutates the store, so this equals the post-prime state — the
    // canonical-dump property the e2e suite pins down.)
    let (donor_bytes, donor_fp, donor_warm_rows) = {
        let w = workload(preset, 0.2, seed);
        let warm_rows = warm_rows.min(w.max_batch());
        let warm = w.batch(warm_rows);
        let reg = MetricsRegistry::new();
        let engine = WarmEngine::prime(
            BatchConfig::default(),
            ExplainerKind::Lime(bench_lime()),
            w.ctx,
            w.clf,
            warm,
            seed,
            &reg,
        );
        let (fp, serve_inv) = serve_fingerprint(&engine, warm_rows);
        println!(
            "donor: primed ({} invocations), served ({serve_inv} invocations), snapshotting",
            engine.invocations() - serve_inv
        );
        (engine.snapshot_bytes(), fp, warm_rows)
    };

    // Cold restart: a fresh process re-primes from scratch and re-pays
    // the donor's entire materialization bill before it can serve.
    let (cold_restart_s, cold_restart_inv, cold_serve_inv, cold_fp) = {
        let w = workload(preset, 0.2, seed);
        let warm = w.batch(donor_warm_rows);
        let reg = MetricsRegistry::new();
        let t0 = Instant::now();
        let engine = WarmEngine::prime(
            BatchConfig::default(),
            ExplainerKind::Lime(bench_lime()),
            w.ctx,
            w.clf,
            warm,
            seed,
            &reg,
        );
        let restart_s = t0.elapsed().as_secs_f64();
        let restart_inv = engine.invocations();
        let (fp, serve_inv) = serve_fingerprint(&engine, donor_warm_rows);
        (restart_s, restart_inv, serve_inv, fp)
    };

    // Hydrated restart: the same fresh process warms from the snapshot —
    // no mining, no classifier calls — and serves the identical sequence
    // (serve-time reads never mutate the store, so its serve invoice
    // matches the cold arm's exactly; only the restart bill differs).
    let (hyd_restart_s, hyd_restart_inv, hyd_serve_inv, hyd_fp) = {
        let w = workload(preset, 0.2, seed);
        let warm = w.batch(donor_warm_rows);
        let reg = MetricsRegistry::new();
        let t0 = Instant::now();
        let engine = WarmEngine::prime_from_snapshot(
            BatchConfig::default(),
            ExplainerKind::Lime(bench_lime()),
            w.ctx,
            w.clf,
            warm,
            seed,
            &reg,
            &donor_bytes,
        )
        .expect("the donor snapshot hydrates");
        let restart_s = t0.elapsed().as_secs_f64();
        let restart_inv = engine.invocations();
        let (fp, serve_inv) = serve_fingerprint(&engine, donor_warm_rows);
        (restart_s, restart_inv, serve_inv, fp)
    };

    let bit_identical = cold_fp == donor_fp && hyd_fp == donor_fp;
    assert!(
        bit_identical,
        "restart drill fingerprints diverged: donor {donor_fp:016x}, \
         cold {cold_fp:016x}, hydrated {hyd_fp:016x}"
    );
    assert_eq!(hyd_restart_inv, 0, "hydration must be classifier-free");
    let restart_speedup = cold_restart_s / hyd_restart_s.max(1e-9);
    println!(
        "cold restart: {} ({cold_restart_inv} invocations), served with {cold_serve_inv}",
        shahin_bench::secs(cold_restart_s)
    );
    println!(
        "hydrated restart: {} (0 invocations), served with {hyd_serve_inv} — \
         {}x faster to warm, bit-identical",
        shahin_bench::secs(hyd_restart_s),
        f2(restart_speedup)
    );

    let persist_json = format!(
        "{{\n  \"dataset\": \"{}\",\n  \"requests\": {persist_requests},\n  \"warm_rows\": {donor_warm_rows},\n  \"seed\": {seed},\n  \"snapshot_bytes\": {},\n  \"fingerprint\": \"{donor_fp:016x}\",\n  \"cold\": {{\"restart_s\": {cold_restart_s:.6}, \"restart_invocations\": {cold_restart_inv}, \"serve_invocations\": {cold_serve_inv}}},\n  \"hydrated\": {{\"restart_s\": {hyd_restart_s:.6}, \"restart_invocations\": {hyd_restart_inv}, \"serve_invocations\": {hyd_serve_inv}, \"bit_identical\": {bit_identical}}},\n  \"restart_speedup\": {restart_speedup:.3}\n}}\n",
        preset.name(),
        donor_bytes.len(),
    );
    write_artifact(&persist_out, &persist_json);
    println!("wrote {persist_out}");

    // ---- Tenancy arm: a multi-tenant cluster under a Zipf mix. ----
    let tenancy_out =
        std::env::var("SHAHIN_TENANCY_OUT").unwrap_or_else(|_| "BENCH_tenancy.json".into());
    let n_tenants = (env_u64("SHAHIN_TENANCY_TENANTS", 3) as usize).max(2);
    let tenancy_requests =
        (env_u64("SHAHIN_TENANCY_REQUESTS", requests as u64) as usize / concurrency).max(1)
            * concurrency;
    let tenancy_warm_rows = env_u64("SHAHIN_TENANCY_WARM_ROWS", 48) as usize;
    let idle_ms = env_u64("SHAHIN_TENANCY_IDLE_MS", 3000);
    // Rows fingerprinted per tenant before eviction and after hydrated
    // re-admission — the bit-identity probe.
    const FP_ROWS: usize = 6;
    println!(
        "# Tenancy: {n_tenants} tenants, {tenancy_requests} Zipf-mixed requests, \
         {idle_ms} ms keepalive"
    );

    let snap_dir =
        std::env::temp_dir().join(format!("shahin_bench_tenancy_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);
    std::fs::create_dir_all(&snap_dir).expect("tenancy snapshot scratch dir");

    // Zipf(1) over tenant ranks, deterministic in (seed, i): tenant t
    // draws traffic proportional to 1/(t+1).
    let zipf_tenant = |i: usize| -> usize {
        let mut z =
            (seed ^ 0x7E4A_2026).wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        let h: f64 = (1..=n_tenants).map(|k| 1.0 / k as f64).sum();
        let mut acc = 0.0;
        for t in 0..n_tenants {
            acc += 1.0 / ((t + 1) as f64) / h;
            if u < acc {
                return t;
            }
        }
        n_tenants - 1
    };
    let schedule: Vec<usize> = (0..tenancy_requests).map(zipf_tenant).collect();
    let mut mix = vec![0usize; n_tenants];
    for &t in &schedule {
        mix[t] += 1;
    }

    // Each tenant gets its own model, context, and warm set (derived
    // from a per-tenant seed) plus a factory the lifecycle controller
    // re-materializes it with on every cold start.
    let obs = MetricsRegistry::new();
    let mut tenant_rows: Vec<usize> = Vec::with_capacity(n_tenants);
    let mut configs = Vec::with_capacity(n_tenants);
    for t in 0..n_tenants {
        let tseed = seed.wrapping_add(t as u64);
        let w = workload(preset, 0.2, tseed);
        let rows = tenancy_warm_rows.min(w.max_batch());
        let warm = w.batch(rows);
        let inner = w.clf.inner().clone();
        let ctx = w.ctx;
        let treg = MetricsRegistry::new();
        tenant_rows.push(rows);
        configs.push(shahin_tenancy::TenantConfig {
            name: format!("tenant{t}"),
            n_rows: rows,
            quota: None,
            snapshot_path: Some(snap_dir.join(format!("tenant{t}.shws"))),
            warm_from: None,
            factory: Box::new(move |bytes| {
                WarmEngine::prime_warm_or_cold(
                    BatchConfig::default(),
                    ExplainerKind::Lime(bench_lime()),
                    ctx.clone(),
                    // A fresh counting wrapper per materialization, so
                    // each engine's invocation count is its own.
                    shahin_model::CountingClassifier::new(inner.clone()),
                    warm.clone(),
                    tseed,
                    &treg,
                    bytes,
                )
            }),
        });
    }
    let cluster = Arc::new(shahin_tenancy::TenantRegistry::new(
        configs,
        0,
        shahin_tenancy::LifecyclePolicy {
            memory_budget_bytes: None,
            idle_evict: Some(Duration::from_millis(idle_ms)),
        },
        &obs,
    ));
    let handle = Server::start_cluster(
        cluster,
        ServeConfig {
            poll_interval: Duration::from_millis(10),
            monitor_interval: Duration::from_millis(50),
            ..Default::default()
        },
    )
    .expect("tenant cluster binds");
    let addr = handle.addr().to_string();

    /// One tenant-routed explain round trip; panics on error frames.
    fn tenant_explain(
        reader: &mut BufReader<TcpStream>,
        id: usize,
        tenant: usize,
        row: usize,
    ) -> Json {
        let frame =
            format!("{{\"id\": {id}, \"method\": \"explain\", \"row\": {row}, \"tenant\": \"tenant{tenant}\"}}\n");
        reader.get_mut().write_all(frame.as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(&line).expect("tenant explain frame parses");
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "tenant explain failed: {line}"
        );
        v
    }

    /// Folds the served weight bits into an FNV-1a fingerprint, so two
    /// servings can be compared bit-for-bit over the wire.
    fn eat_weights(fp: &mut u64, frame: &Json) {
        const PRIME: u64 = 0x1_0000_01b3;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                *fp ^= u64::from(b);
                *fp = fp.wrapping_mul(PRIME);
            }
        };
        for w in frame.get("weights").unwrap().as_arr().unwrap() {
            eat(w.as_f64().unwrap().to_bits());
        }
        eat(frame.get("intercept").unwrap().as_f64().unwrap().to_bits());
        eat(frame
            .get("local_prediction")
            .unwrap()
            .as_f64()
            .unwrap()
            .to_bits());
    }

    let connect = |addr: &str| -> BufReader<TcpStream> {
        let stream = TcpStream::connect(addr).expect("connect to tenant cluster");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        BufReader::new(stream)
    };
    let mut client = connect(&addr);

    // Phase 1 — cold starts: the first touch per tenant pays lazy
    // materialization (mining + priming, no snapshot on disk yet).
    let cold_ms: Vec<f64> = (0..n_tenants)
        .map(|t| {
            let t0 = Instant::now();
            tenant_explain(&mut client, t, t, 0);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    // Phase 2 — fingerprint the first rows of every tenant while warm.
    let mut fp_before = 0xcbf2_9ce4_8422_2325u64;
    for (t, &rows) in tenant_rows.iter().enumerate() {
        for row in 0..FP_ROWS.min(rows) {
            let frame = tenant_explain(&mut client, 100 + row, t, row);
            eat_weights(&mut fp_before, &frame);
        }
    }

    // Phase 3 — keepalive: the Zipf-mixed closed-loop drive over warm
    // tenants (client c takes every `concurrency`-th schedule slot).
    let keepalive = {
        let t0 = Instant::now();
        let mut all: Vec<f64> = Vec::with_capacity(tenancy_requests);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..concurrency)
                .map(|c| {
                    let (addr, schedule, tenant_rows) = (&addr, &schedule, &tenant_rows);
                    scope.spawn(move || {
                        let mut reader = connect(addr);
                        let mut latencies = Vec::new();
                        for (i, &t) in schedule
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| i % concurrency == c)
                        {
                            let row = (i * 104_729 + seed as usize) % tenant_rows[t];
                            let t0 = Instant::now();
                            tenant_explain(&mut reader, i, t, row);
                            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                        latencies
                    })
                })
                .collect();
            for h in handles {
                all.extend(h.join().expect("tenancy client thread"));
            }
        });
        ArmStats {
            wall_s: t0.elapsed().as_secs_f64(),
            latencies_ms: all,
            store_hit_rate: 0.0,
            invocations_per_request: 0.0,
        }
    };
    println!(
        "keepalive: {:.1} req/s, mean {} ms, p95 {} ms (mix {mix:?})",
        keepalive.throughput_rps(),
        f2(keepalive.mean_ms()),
        f2(keepalive.percentile_ms(0.95))
    );

    // Phase 4 — eviction churn: every tenant idles past the keepalive;
    // the monitor's lifecycle sweep retires them all, writing at-evict
    // snapshots. Pings poll state without resetting the idle clock.
    let evict_t0 = Instant::now();
    loop {
        assert!(
            evict_t0.elapsed() < Duration::from_secs(120),
            "tenants never idled out"
        );
        let ping = admin_round_trip(&addr, "{\"id\": 1, \"method\": \"ping\"}");
        let all_evicted = ping
            .get("tenants")
            .and_then(Json::as_arr)
            .map(|rows| {
                rows.iter()
                    .all(|t| t.get("state").and_then(Json::as_str) == Some("evicted"))
            })
            .unwrap_or(false);
        if all_evicted {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let evict_wait_s = evict_t0.elapsed().as_secs_f64();

    // Phase 5 — hydrated re-admission: the next touch per tenant
    // cold-starts again, classifier-free from the at-evict snapshot, and
    // must serve the same bits as the first incarnation.
    let mut client = connect(&addr);
    let readmit_ms: Vec<f64> = (0..n_tenants)
        .map(|t| {
            let t0 = Instant::now();
            tenant_explain(&mut client, 200 + t, t, 0);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let mut fp_after = 0xcbf2_9ce4_8422_2325u64;
    for (t, &rows) in tenant_rows.iter().enumerate() {
        for row in 0..FP_ROWS.min(rows) {
            let frame = tenant_explain(&mut client, 300 + row, t, row);
            eat_weights(&mut fp_after, &frame);
        }
    }
    let bit_identical = fp_after == fp_before;
    assert!(
        bit_identical,
        "re-admitted tenants diverged: {fp_before:016x} vs {fp_after:016x}"
    );

    handle.shutdown();
    handle.wait();
    let snap = obs.snapshot();
    let cold_starts = snap.counter(shahin::obs::names::TENANCY_COLD_STARTS);
    let evictions = snap.counter(shahin::obs::names::TENANCY_EVICTIONS);
    let hydrations = snap.counter(shahin::obs::names::TENANCY_HYDRATIONS);
    assert!(
        hydrations >= n_tenants as u64,
        "every re-admission must hydrate from its at-evict snapshot"
    );
    let cold_start_ms = median(&cold_ms);
    let readmit_med_ms = median(&readmit_ms);
    let hydrated_speedup = cold_start_ms / readmit_med_ms.max(1e-9);
    println!(
        "cold start {} ms vs hydrated re-admission {} ms ({}x) — \
         {cold_starts} cold starts, {evictions} evictions, {hydrations} hydrations, \
         idled out in {}",
        f2(cold_start_ms),
        f2(readmit_med_ms),
        f2(hydrated_speedup),
        shahin_bench::secs(evict_wait_s)
    );

    let mix_json: Vec<String> = mix.iter().map(|c| c.to_string()).collect();
    let tenancy_json = format!(
        "{{\n  \"dataset\": \"{}\",\n  \"tenants\": {n_tenants},\n  \"requests\": {tenancy_requests},\n  \"warm_rows\": {tenancy_warm_rows},\n  \"seed\": {seed},\n  \"idle_ms\": {idle_ms},\n  \"mix\": [{}],\n  \"cold_start_ms\": {cold_start_ms:.4},\n  \"keepalive\": {},\n  \"readmit_ms\": {readmit_med_ms:.4},\n  \"hydrated_speedup\": {hydrated_speedup:.3},\n  \"evict_wait_s\": {evict_wait_s:.3},\n  \"cold_starts\": {cold_starts},\n  \"evictions\": {evictions},\n  \"hydrations\": {hydrations},\n  \"fingerprint\": \"{fp_before:016x}\",\n  \"bit_identical\": {bit_identical}\n}}\n",
        preset.name(),
        mix_json.join(", "),
        keepalive.to_json()
    );
    write_artifact(&tenancy_out, &tenancy_json);
    println!("wrote {tenancy_out}");
    let _ = std::fs::remove_dir_all(&snap_dir);
}
