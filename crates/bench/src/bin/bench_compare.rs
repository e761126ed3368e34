//! Perf-regression gate: diffs a freshly produced benchmark artifact
//! against a committed baseline and exits non-zero when the run regressed.
//!
//! ```text
//! bench_compare parallel baselines/ci/BENCH_parallel.json BENCH_parallel.json
//! bench_compare obs      baselines/ci/BENCH_obs.json      BENCH_obs.json
//! ```
//!
//! Checks, per artifact kind:
//!
//! * `parallel` — workload knobs (dataset, batch, latency, seed) must match
//!   the baseline exactly, sequential invocation counts must match exactly
//!   for every explainer (the single-threaded drivers are deterministic),
//!   parallel LIME/SHAP invocations must match exactly, parallel Anchor
//!   invocations may drift within `SHAHIN_CMP_TOL_ANCHOR_PCT` (threads race
//!   to publish precision evidence), wall times may grow at most
//!   `SHAHIN_CMP_TOL_WALL_PCT` and speedups shrink at most
//!   `SHAHIN_CMP_TOL_SPEEDUP_PCT`.
//! * `obs` — the fresh run's `overhead_pct` and `traced_overhead_pct` must
//!   stay under `budget_pct` plus `SHAHIN_CMP_TOL_OVERHEAD_PCT` extra
//!   points of slack, and the no-op wall may grow at most the wall
//!   tolerance over the baseline.
//! * `serve` — the warm server must beat the cold per-request arm within
//!   the fresh artifact itself (lower mean latency, higher store-hit
//!   rate, fewer invocations per request); hit rates and invocation
//!   counts must match the baseline exactly (the warm engine and the
//!   request schedule are deterministic), and warm mean latency /
//!   throughput may drift at most the wall tolerance.
//! * `obs_live` — the fresh run's live-scrape `overhead_pct` must stay
//!   under its own `budget_pct` plus `SHAHIN_CMP_TOL_OVERHEAD_PCT`
//!   extra slack, the scraper must have completed at least one poll,
//!   and scraped throughput may shrink at most the wall tolerance
//!   against the baseline.
//! * `trace` — the fresh run's request-tracing `overhead_pct` must stay
//!   under its own `budget_pct` plus the overhead slack, the traced
//!   server must have retained at least one trace, and traced
//!   throughput may shrink at most the wall tolerance against the
//!   baseline.
//! * `persist` — inside the fresh run, the restart drill must hold: the
//!   hydrated restart took zero classifier invocations, produced
//!   bit-identical explanations, and reached
//!   `SHAHIN_CMP_MIN_RESTART_SPEEDUP` (default 2.0) over the cold
//!   re-prime; deterministic quantities (snapshot size, restart and
//!   serve invocation counts, the explanation fingerprint) must match
//!   the baseline exactly; hydrated restart wall time may drift at most
//!   the wall tolerance.
//! * `tenancy` — the Zipf tenant mix (seed-derived) must reproduce the
//!   baseline exactly; inside the fresh run the FaaS lifecycle must
//!   hold: re-admitted tenants serve bit-identical explanations, every
//!   tenant cold-started, was evicted, and re-hydrated, the first-touch
//!   cold start dominates keepalive latency, and hydrated re-admission
//!   beats the cold start by `SHAHIN_CMP_MIN_HYDRATED_SPEEDUP` (default
//!   2.0); keepalive throughput and cold-start latency may drift at most
//!   the wall tolerance against the baseline.
//!
//! Tolerances are percentages read from the environment so CI can tighten
//! or relax them without a rebuild. Defaults are generous on wall time
//! (shared CI runners are noisy) and exact on everything deterministic.

use std::process::ExitCode;

use shahin_bench::env_f64;
use shahin_bench::json::Json;

/// Collected failures; the gate reports all of them before exiting.
struct Gate {
    failures: Vec<String>,
    checks: usize,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            failures: Vec::new(),
            checks: 0,
        }
    }

    fn check(&mut self, ok: bool, msg: String) {
        self.checks += 1;
        if ok {
            println!("  ok: {msg}");
        } else {
            println!("  REGRESSION: {msg}");
            self.failures.push(msg);
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read benchmark artifact '{path}': {e}"))?;
    Json::parse(&text).map_err(|e| format!("'{path}' is not valid JSON: {e}"))
}

fn num(doc: &Json, path: &[&str], file: &str) -> Result<f64, String> {
    doc.at(path)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("'{file}' is missing numeric field {}", path.join(".")))
}

/// The workload knobs must match or every other comparison is meaningless.
fn check_same_workload(
    gate: &mut Gate,
    base: &Json,
    fresh: &Json,
    keys: &[&str],
) -> Result<(), String> {
    for key in keys {
        let (b, f) = (base.get(key), fresh.get(key));
        if b != f {
            return Err(format!(
                "workload mismatch on '{key}' (baseline {b:?} vs fresh {f:?}); \
                 regenerate the baseline with the gate's knobs"
            ));
        }
        gate.check(true, format!("workload '{key}' matches ({f:?})"));
    }
    Ok(())
}

fn compare_parallel(gate: &mut Gate, base: &Json, fresh: &Json) -> Result<(), String> {
    let tol_wall = env_f64("SHAHIN_CMP_TOL_WALL_PCT", 75.0);
    let tol_speedup = env_f64("SHAHIN_CMP_TOL_SPEEDUP_PCT", 40.0);
    let tol_anchor = env_f64("SHAHIN_CMP_TOL_ANCHOR_PCT", 15.0);
    check_same_workload(
        gate,
        base,
        fresh,
        &["dataset", "batch", "latency_us", "seed"],
    )?;

    let explainers = base
        .get("explainers")
        .and_then(Json::as_obj)
        .ok_or("baseline has no 'explainers' object")?;
    for (name, base_e) in explainers {
        let fresh_e = fresh
            .at(&["explainers", name])
            .ok_or_else(|| format!("fresh run is missing explainer '{name}'"))?;
        let deterministic = name != "Anchor";

        let b_inv = num(base_e, &["sequential", "invocations"], "baseline")?;
        let f_inv = num(fresh_e, &["sequential", "invocations"], "fresh")?;
        gate.check(
            b_inv == f_inv,
            format!("{name} sequential invocations {f_inv} (baseline {b_inv})"),
        );
        let b_wall = num(base_e, &["sequential", "wall_s"], "baseline")?;
        let f_wall = num(fresh_e, &["sequential", "wall_s"], "fresh")?;
        gate.check(
            f_wall <= b_wall * (1.0 + tol_wall / 100.0),
            format!(
                "{name} sequential wall {f_wall:.3}s within {tol_wall}% of baseline {b_wall:.3}s"
            ),
        );

        let threads = base_e
            .get("threads")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("baseline '{name}' has no 'threads' object"))?;
        for (t, base_t) in threads {
            let fresh_t = fresh_e
                .at(&["threads", t])
                .ok_or_else(|| format!("fresh '{name}' is missing thread count {t}"))?;
            let b_inv = num(base_t, &["invocations"], "baseline")?;
            let f_inv = num(fresh_t, &["invocations"], "fresh")?;
            if deterministic {
                gate.check(
                    b_inv == f_inv,
                    format!("{name} x{t} invocations {f_inv} (baseline {b_inv}, exact)"),
                );
            } else {
                let drift = 100.0 * (f_inv - b_inv).abs() / b_inv.max(1.0);
                gate.check(
                    drift <= tol_anchor,
                    format!(
                        "{name} x{t} invocations {f_inv} within {tol_anchor}% of \
                         baseline {b_inv} (drift {drift:.1}%)"
                    ),
                );
            }
            let b_wall = num(base_t, &["wall_s"], "baseline")?;
            let f_wall = num(fresh_t, &["wall_s"], "fresh")?;
            gate.check(
                f_wall <= b_wall * (1.0 + tol_wall / 100.0),
                format!(
                    "{name} x{t} wall {f_wall:.3}s within {tol_wall}% of baseline {b_wall:.3}s"
                ),
            );
            let b_speedup = num(base_t, &["speedup"], "baseline")?;
            let f_speedup = num(fresh_t, &["speedup"], "fresh")?;
            gate.check(
                f_speedup >= b_speedup * (1.0 - tol_speedup / 100.0),
                format!(
                    "{name} x{t} speedup {f_speedup:.2}x within {tol_speedup}% of \
                     baseline {b_speedup:.2}x"
                ),
            );
        }
    }
    Ok(())
}

fn compare_obs(gate: &mut Gate, base: &Json, fresh: &Json) -> Result<(), String> {
    let tol_wall = env_f64("SHAHIN_CMP_TOL_WALL_PCT", 75.0);
    // Extra percentage points of slack on top of the bench's own budget:
    // the budget is a target measured on quiet hardware, and a shared CI
    // runner can add a point or two of scheduler noise to runs this short.
    let tol_overhead = env_f64("SHAHIN_CMP_TOL_OVERHEAD_PCT", 0.0);
    check_same_workload(
        gate,
        base,
        fresh,
        &["dataset", "explainer", "batch", "seed"],
    )?;

    let budget = num(fresh, &["budget_pct"], "fresh")? + tol_overhead;
    let overhead = num(fresh, &["overhead_pct"], "fresh")?;
    gate.check(
        overhead < budget,
        format!("instrumentation overhead {overhead:.2}% within the {budget}% budget"),
    );
    if let Some(traced) = fresh.get("traced_overhead_pct").and_then(Json::as_f64) {
        gate.check(
            traced < budget,
            format!("tracing-enabled overhead {traced:.2}% within the {budget}% budget"),
        );
    }
    let b_noop = num(base, &["noop_s"], "baseline")?;
    let f_noop = num(fresh, &["noop_s"], "fresh")?;
    gate.check(
        f_noop <= b_noop * (1.0 + tol_wall / 100.0),
        format!("no-op wall {f_noop:.3}s within {tol_wall}% of baseline {b_noop:.3}s"),
    );
    Ok(())
}

fn compare_serve(gate: &mut Gate, base: &Json, fresh: &Json) -> Result<(), String> {
    let tol_wall = env_f64("SHAHIN_CMP_TOL_WALL_PCT", 75.0);
    check_same_workload(
        gate,
        base,
        fresh,
        &["dataset", "requests", "concurrency", "warm_rows", "seed"],
    )?;

    // The headline claim, gated inside the fresh run itself: a warm
    // server beats cold per-request batch invocation.
    let warm_mean = num(fresh, &["warm", "mean_ms"], "fresh")?;
    let cold_mean = num(fresh, &["cold", "mean_ms"], "fresh")?;
    gate.check(
        warm_mean < cold_mean,
        format!("warm mean latency {warm_mean:.2}ms beats cold {cold_mean:.2}ms"),
    );
    let warm_hits = num(fresh, &["warm", "store_hit_rate"], "fresh")?;
    let cold_hits = num(fresh, &["cold", "store_hit_rate"], "fresh")?;
    gate.check(
        warm_hits > cold_hits,
        format!("warm store-hit rate {warm_hits:.3} beats cold {cold_hits:.3}"),
    );
    let warm_inv = num(fresh, &["warm", "invocations_per_request"], "fresh")?;
    let cold_inv = num(fresh, &["cold", "invocations_per_request"], "fresh")?;
    gate.check(
        warm_inv < cold_inv,
        format!("warm {warm_inv:.1} invocations/request beats cold {cold_inv:.1}"),
    );

    // Deterministic quantities must match the baseline exactly: the warm
    // store contents and the request schedule are seed-derived.
    for (arm, field) in [
        ("warm", "store_hit_rate"),
        ("warm", "invocations_per_request"),
        ("cold", "store_hit_rate"),
        ("cold", "invocations_per_request"),
    ] {
        let b = num(base, &[arm, field], "baseline")?;
        let f = num(fresh, &[arm, field], "fresh")?;
        gate.check(b == f, format!("{arm} {field} {f} (baseline {b}, exact)"));
    }

    // Latency and throughput are hardware-dependent: wall tolerance.
    let b_mean = num(base, &["warm", "mean_ms"], "baseline")?;
    gate.check(
        warm_mean <= b_mean * (1.0 + tol_wall / 100.0),
        format!("warm mean {warm_mean:.2}ms within {tol_wall}% of baseline {b_mean:.2}ms"),
    );
    let b_rps = num(base, &["warm", "throughput_rps"], "baseline")?;
    let f_rps = num(fresh, &["warm", "throughput_rps"], "fresh")?;
    gate.check(
        f_rps >= b_rps * (1.0 - tol_wall / 100.0),
        format!("warm throughput {f_rps:.1} req/s within {tol_wall}% of baseline {b_rps:.1}"),
    );
    Ok(())
}

fn compare_obs_live(gate: &mut Gate, base: &Json, fresh: &Json) -> Result<(), String> {
    let tol_wall = env_f64("SHAHIN_CMP_TOL_WALL_PCT", 75.0);
    // Same rationale as `obs`: the budget targets quiet hardware and a
    // shared CI runner can add noise to runs this short.
    let tol_overhead = env_f64("SHAHIN_CMP_TOL_OVERHEAD_PCT", 0.0);
    check_same_workload(
        gate,
        base,
        fresh,
        &[
            "dataset",
            "requests",
            "concurrency",
            "warm_rows",
            "seed",
            "reps",
        ],
    )?;

    let budget = num(fresh, &["budget_pct"], "fresh")? + tol_overhead;
    let overhead = num(fresh, &["overhead_pct"], "fresh")?;
    gate.check(
        overhead < budget,
        format!("live-scrape overhead {overhead:.2}% within the {budget}% budget"),
    );
    let scrapes = num(fresh, &["scrapes"], "fresh")?;
    gate.check(
        scrapes > 0.0,
        format!("scraper completed {scrapes} metrics polls"),
    );

    // Throughput is hardware-dependent: wall tolerance.
    let b_rps = num(base, &["scrape_rps"], "baseline")?;
    let f_rps = num(fresh, &["scrape_rps"], "fresh")?;
    gate.check(
        f_rps >= b_rps * (1.0 - tol_wall / 100.0),
        format!("scraped throughput {f_rps:.1} req/s within {tol_wall}% of baseline {b_rps:.1}"),
    );
    Ok(())
}

fn compare_trace(gate: &mut Gate, base: &Json, fresh: &Json) -> Result<(), String> {
    let tol_wall = env_f64("SHAHIN_CMP_TOL_WALL_PCT", 75.0);
    // Same rationale as `obs_live`: the 1% budget targets quiet
    // hardware; CI slack is opt-in via the environment.
    let tol_overhead = env_f64("SHAHIN_CMP_TOL_OVERHEAD_PCT", 0.0);
    check_same_workload(
        gate,
        base,
        fresh,
        &[
            "dataset",
            "requests",
            "concurrency",
            "warm_rows",
            "seed",
            "reps",
        ],
    )?;

    let budget = num(fresh, &["budget_pct"], "fresh")? + tol_overhead;
    let overhead = num(fresh, &["overhead_pct"], "fresh")?;
    gate.check(
        overhead < budget,
        format!("tracing overhead {overhead:.2}% within the {budget}% budget"),
    );
    let retained = num(fresh, &["retained"], "fresh")?;
    gate.check(
        retained > 0.0,
        format!("traced server retained {retained} traces (tracer was live)"),
    );

    // Throughput is hardware-dependent: wall tolerance.
    let b_rps = num(base, &["traced_rps"], "baseline")?;
    let f_rps = num(fresh, &["traced_rps"], "fresh")?;
    gate.check(
        f_rps >= b_rps * (1.0 - tol_wall / 100.0),
        format!("traced throughput {f_rps:.1} req/s within {tol_wall}% of baseline {b_rps:.1}"),
    );
    Ok(())
}

fn compare_persist(gate: &mut Gate, base: &Json, fresh: &Json) -> Result<(), String> {
    let tol_wall = env_f64("SHAHIN_CMP_TOL_WALL_PCT", 75.0);
    let min_speedup = env_f64("SHAHIN_CMP_MIN_RESTART_SPEEDUP", 2.0);
    check_same_workload(
        gate,
        base,
        fresh,
        &["dataset", "requests", "warm_rows", "seed"],
    )?;

    // The headline claim, inside the fresh run itself: hydrating from a
    // snapshot restarts warm — no classifier calls, same explanations,
    // and much faster than re-priming from scratch.
    let hyd_inv = num(fresh, &["hydrated", "restart_invocations"], "fresh")?;
    gate.check(
        hyd_inv == 0.0,
        format!("hydrated restart took {hyd_inv} classifier invocations (must be 0)"),
    );
    let bit_identical = fresh
        .at(&["hydrated", "bit_identical"])
        .and_then(Json::as_bool)
        .unwrap_or(false);
    gate.check(
        bit_identical,
        "hydrated replica serves bit-identical explanations".into(),
    );
    let speedup = num(fresh, &["restart_speedup"], "fresh")?;
    gate.check(
        speedup >= min_speedup,
        format!("restart-to-warm speedup {speedup:.2}x >= {min_speedup:.2}x"),
    );

    // Everything the snapshot pipeline computes is seed-derived and must
    // reproduce the baseline exactly: the snapshot's size, the cold
    // re-prime's invoice, both arms' serve-time invocations, and the
    // explanation fingerprint.
    for path in [
        &["snapshot_bytes"][..],
        &["cold", "restart_invocations"],
        &["cold", "serve_invocations"],
        &["hydrated", "serve_invocations"],
    ] {
        let b = num(base, path, "baseline")?;
        let f = num(fresh, path, "fresh")?;
        gate.check(
            b == f,
            format!("{} {f} (baseline {b}, exact)", path.join(".")),
        );
    }
    let b_fp = base.get("fingerprint").and_then(Json::as_str);
    let f_fp = fresh.get("fingerprint").and_then(Json::as_str);
    gate.check(
        b_fp.is_some() && b_fp == f_fp,
        format!("explanation fingerprint {f_fp:?} (baseline {b_fp:?}, exact)"),
    );

    // Hydration wall time is hardware-dependent: wall tolerance.
    let b_wall = num(base, &["hydrated", "restart_s"], "baseline")?;
    let f_wall = num(fresh, &["hydrated", "restart_s"], "fresh")?;
    gate.check(
        f_wall <= b_wall * (1.0 + tol_wall / 100.0),
        format!("hydrated restart {f_wall:.3}s within {tol_wall}% of baseline {b_wall:.3}s"),
    );
    Ok(())
}

fn compare_tenancy(gate: &mut Gate, base: &Json, fresh: &Json) -> Result<(), String> {
    let tol_wall = env_f64("SHAHIN_CMP_TOL_WALL_PCT", 75.0);
    let min_hydrated = env_f64("SHAHIN_CMP_MIN_HYDRATED_SPEEDUP", 2.0);
    check_same_workload(
        gate,
        base,
        fresh,
        &["dataset", "tenants", "requests", "warm_rows", "seed"],
    )?;

    // The Zipf tenant mix is seed-derived and must reproduce exactly.
    let (b_mix, f_mix) = (base.get("mix"), fresh.get("mix"));
    gate.check(
        b_mix.is_some() && b_mix == f_mix,
        format!("zipf tenant mix {f_mix:?} (baseline {b_mix:?}, exact)"),
    );

    // The FaaS lifecycle claims, inside the fresh run itself: every
    // tenant cold-started, idled out, and came back bit-identical via a
    // snapshot hydration.
    let bit_identical = fresh
        .get("bit_identical")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    gate.check(
        bit_identical,
        "re-admitted tenants serve bit-identical explanations".into(),
    );
    let tenants = num(fresh, &["tenants"], "fresh")?;
    let cold_starts = num(fresh, &["cold_starts"], "fresh")?;
    gate.check(
        cold_starts >= 2.0 * tenants,
        format!(
            "{cold_starts} cold starts cover first touch and re-admission of {tenants} tenants"
        ),
    );
    for key in ["evictions", "hydrations"] {
        let v = num(fresh, &[key], "fresh")?;
        gate.check(
            v >= tenants,
            format!("{key} {v} cover all {tenants} tenants"),
        );
    }
    let cold_ms = num(fresh, &["cold_start_ms"], "fresh")?;
    let keepalive_ms = num(fresh, &["keepalive", "mean_ms"], "fresh")?;
    gate.check(
        cold_ms > keepalive_ms,
        format!("cold start {cold_ms:.1} ms dominates keepalive {keepalive_ms:.2} ms"),
    );
    let speedup = num(fresh, &["hydrated_speedup"], "fresh")?;
    gate.check(
        speedup >= min_hydrated,
        format!("hydrated re-admission {speedup:.2}x >= {min_hydrated:.2}x over a cold start"),
    );

    // Throughput and latency are hardware-dependent: wall tolerance.
    let b_rps = num(base, &["keepalive", "throughput_rps"], "baseline")?;
    let f_rps = num(fresh, &["keepalive", "throughput_rps"], "fresh")?;
    gate.check(
        f_rps >= b_rps * (1.0 - tol_wall / 100.0),
        format!("keepalive throughput {f_rps:.1} req/s within {tol_wall}% of baseline {b_rps:.1}"),
    );
    let b_cold = num(base, &["cold_start_ms"], "baseline")?;
    gate.check(
        cold_ms <= b_cold * (1.0 + tol_wall / 100.0),
        format!("cold start {cold_ms:.1} ms within {tol_wall}% of baseline {b_cold:.1} ms"),
    );
    Ok(())
}

fn run(args: &[String]) -> Result<Vec<String>, String> {
    let [kind, base_path, fresh_path] = args else {
        return Err(
            "usage: bench_compare <parallel|obs|serve|obs_live|trace|persist|tenancy> \
             <baseline.json> <fresh.json>"
                .into(),
        );
    };
    let base = load(base_path)?;
    let fresh = load(fresh_path)?;
    println!("comparing {fresh_path} against baseline {base_path} ({kind})");
    let mut gate = Gate::new();
    match kind.as_str() {
        "parallel" => compare_parallel(&mut gate, &base, &fresh)?,
        "obs" => compare_obs(&mut gate, &base, &fresh)?,
        "serve" => compare_serve(&mut gate, &base, &fresh)?,
        "obs_live" => compare_obs_live(&mut gate, &base, &fresh)?,
        "trace" => compare_trace(&mut gate, &base, &fresh)?,
        "persist" => compare_persist(&mut gate, &base, &fresh)?,
        "tenancy" => compare_tenancy(&mut gate, &base, &fresh)?,
        other => return Err(format!("unknown artifact kind '{other}'")),
    }
    println!(
        "{} checks, {} regression(s)",
        gate.checks,
        gate.failures.len()
    );
    Ok(gate.failures)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(failures) if failures.is_empty() => ExitCode::SUCCESS,
        Ok(failures) => {
            eprintln!("bench_compare: {} regression(s):", failures.len());
            for f in failures {
                eprintln!("  - {f}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_compare: error: {e}");
            ExitCode::FAILURE
        }
    }
}
