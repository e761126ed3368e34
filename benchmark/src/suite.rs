//! The one-command mode: every workload in a process of its own, the
//! measured run and then the traced repeat, `--sets` times over; every
//! metric printed by name with its unit; with two or more sets, every
//! end-to-end metric's spread printed beside its bound.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use shahin_obs::json::Json;

use crate::report::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_share, median};
use crate::REFERENCE_SECONDS;

/// The parsed last line of one workload process.
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &Path,
) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "{workload} printed no result line ({e}); status {}",
            output.status
        )
    })?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect();
    Ok(Run {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false)
            && output.status.success(),
        attempted: doc.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
    })
}

fn print_metrics(defs: &[MetricDef], run: &Run) {
    for def in defs {
        println!(
            "  {:<40} {:>18.6} {}",
            def.name, run.metrics[def.name], def.unit
        );
    }
}

/// Runs the whole benchmark; the exit code fails on any output check,
/// any failed operation, and (with `sets >= 2`) any end-to-end metric
/// whose sets differ by more than its bound.
pub fn run(seed: u64, sets: usize, smoke: bool, seconds: Option<f64>, out: &Path) -> ExitCode {
    let seconds = seconds.unwrap_or(if smoke {
        REFERENCE_SECONDS / 50.0
    } else {
        REFERENCE_SECONDS
    });
    let started = Instant::now();
    let mut ok = true;
    // workload -> metric -> one value per set
    let mut seen: BTreeMap<&str, BTreeMap<&str, Vec<f64>>> = BTreeMap::new();
    for set in 0..sets.max(1) {
        for workload in WORKLOADS {
            for traced in [false, true] {
                println!(
                    "== set {} · {workload} · {} · seed {seed} · {seconds} s",
                    set + 1,
                    if traced {
                        "traced repeat (per-layer)"
                    } else {
                        "measured run (end-to-end)"
                    }
                );
                match run_one(workload, seed, seconds, traced, out) {
                    Ok(run) => {
                        let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
                        print_metrics(defs, &run);
                        println!(
                            "  correct={} attempted={} failed={}",
                            run.correct, run.attempted, run.failed
                        );
                        ok &= run.correct && run.failed == 0;
                        if !traced {
                            for def in &END_TO_END {
                                seen.entry(workload)
                                    .or_default()
                                    .entry(def.name)
                                    .or_default()
                                    .push(run.metrics[def.name]);
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        ok = false;
                    }
                }
            }
        }
    }
    if sets >= 2 {
        println!("== agreement of {sets} sets (spread = (max - min) / median, against the bound)");
        for (workload, metrics) in &seen {
            for def in &END_TO_END {
                let values = &metrics[def.name];
                let (lo, hi) = values
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                let spread = (hi - lo) / median(values).abs().max(f64::MIN_POSITIVE);
                let within = spread <= def.bound;
                // With enough sets, also the statistic the acceptance
                // driver applies to ten runs.
                let iqr = if values.len() >= 4 {
                    format!("  iqr/median {:>6.3}%", 100.0 * iqr_share(values))
                } else {
                    String::new()
                };
                println!(
                    "  {workload:<14} {:<30} spread {:>7.3}%{iqr}  bound {:>5.1}%  ({} is better)  {}",
                    def.name,
                    100.0 * spread,
                    100.0 * def.bound,
                    def.better.name(),
                    if within { "ok" } else { "EXCEEDED" }
                );
                ok &= within;
            }
        }
    }
    println!(
        "== done in {:.1} s; results, per-request rows and traces under {}",
        started.elapsed().as_secs_f64(),
        out.display()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
