//! The three offline workloads: `batch_lime`, `batch_anchor`, `stream_shap`.
//!
//! Each is a fixed list of *blocks* — one public driver call
//! (`shahin::run`) per block — so the work is a function of `(seed,
//! seconds)` alone and classifier invocations repeat exactly, while the
//! reported rate is the median over blocks and one disturbed block cannot
//! move it.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use shahin::{
    run, run_with_obs, BatchConfig, ExplainerKind, Method, MetricsRegistry, ProvenanceSink,
    RunReport, StreamingConfig,
};
use shahin_bench::{bench_anchor, bench_lime, bench_shap, explanation_fingerprint};
use shahin_model::{Classifier, CountingClassifier, TracedClassifier};
use shahin_tabular::{Dataset, DatasetPreset};

use crate::inputs::{block, build_inputs, derive, drift_stream, Inputs, WORLD_SEED};
use crate::insitu::{insert_common, insert_setup, span_hist, Lineage};
use crate::probes;
use crate::report::{nproc, peak_rss_mb, write_out, Outcome, Values};
use crate::spans::{fold, Recorder, Row};
use crate::stats::{median, summarize};
use crate::Ctl;

/// Mean Kendall-τ between a Shahin driver and `Method::Sequential` on the
/// same tuples must stay above this. Reused perturbations change the
/// sample, not the estimand, so rankings agree far above chance (τ = 0);
/// the floors sit well under the values seen across seeds (LIME 0.21–0.26,
/// SHAP 0.41–0.45) and well above what a broken pooling path produces.
const LIME_TAU_FLOOR: f64 = 0.10;
const SHAP_TAU_FLOOR: f64 = 0.20;

/// One offline workload, sized for `seconds = 15` on the reference box.
struct Plan {
    preset: DatasetPreset,
    data_scale: f64,
    kind: ExplainerKind,
    /// Driver calls in the measured run at full scale.
    blocks: usize,
    /// Tuples per driver call at `seconds = 15`.
    block_rows: usize,
    n_threads: usize,
    streaming: bool,
}

fn plan(workload: &str) -> Plan {
    match workload {
        // Census-Income at three times the laptop default leaves 40 000
        // held-out rows; blocks wrap around them.
        "batch_lime" => Plan {
            preset: DatasetPreset::CensusIncome,
            data_scale: 3.0,
            kind: ExplainerKind::Lime(bench_lime()),
            blocks: 12,
            block_rows: 9_000,
            n_threads: nproc(),
            streaming: false,
        },
        // One thread: with two, which worker first fills a rule's
        // precision evidence is a race and invocations per explanation
        // move by 20 % between identical runs (ROADMAP item 4).
        "batch_anchor" => Plan {
            preset: DatasetPreset::CensusIncome,
            data_scale: 2.0,
            kind: ExplainerKind::Anchor(bench_anchor()),
            blocks: 4,
            block_rows: 1_100,
            n_threads: 1,
            streaming: false,
        },
        "stream_shap" => Plan {
            preset: DatasetPreset::CensusIncome,
            data_scale: 0.4,
            kind: ExplainerKind::Shap(bench_shap()),
            blocks: 5,
            block_rows: 4_000,
            n_threads: 1,
            streaming: true,
        },
        other => panic!("not an offline workload: {other}"),
    }
}

/// Drift segments per stream.
const SEGMENTS: usize = 4;

impl Plan {
    fn method(&self, n_threads: usize) -> Method {
        if self.streaming {
            // Automatic τ keeps these streams' repository near 320 KiB;
            // 192 KiB makes LRU eviction and carry-over run at every
            // refresh.
            Method::Streaming(StreamingConfig {
                memory_budget_bytes: 192 << 10,
                ..Default::default()
            })
        } else {
            Method::BatchParallel(BatchConfig {
                n_threads: Some(n_threads),
                ..Default::default()
            })
        }
    }

    /// Tuples per block at this run length (streams: a multiple of the
    /// segment count).
    fn rows(&self, scale: f64) -> usize {
        let rows = ((self.block_rows as f64) * scale).round() as usize;
        if self.streaming {
            (rows / SEGMENTS).max(30) * SEGMENTS
        } else {
            rows.max(40)
        }
    }
}

/// Everything the driver calls need, built from the seed.
struct Prepared {
    inputs: Inputs,
    /// `(tuples, run seed)` per driver call of the measured run.
    blocks: Vec<(Dataset, u64)>,
    /// An eighth-size block: the warm-up pass, and for Anchor the
    /// repeated run that proves determinism.
    warmup: (Dataset, u64),
}

fn prepare(p: &Plan, ctl: &Ctl, rec: &mut Recorder, parent: Option<usize>) -> Prepared {
    // Data shrinks with short (smoke) runs, never below a tenth.
    let data_scale = p.data_scale * ctl.scale().clamp(0.1, 1.0);
    let inputs = build_inputs(p.preset, data_scale, derive(WORLD_SEED, 1), rec, parent);
    let rows = p.rows(ctl.scale());
    let build = rec.open("inputs.blocks", parent);
    // Where in the held-out rows this seed's tuples start.
    let offset = derive(ctl.seed, 2) as usize % inputs.test.n_rows();
    let run_seed = |b: usize| derive(ctl.seed, 1000 + b as u64);
    let warm_seed = derive(ctl.seed, 999);
    let (blocks, warmup) = if p.streaming {
        // Segment 0 is held-out data of the model's own distribution; the
        // others come from other generator seeds, so their code maps and
        // label concept differ.
        let per_seg = rows / SEGMENTS;
        let mut segments = vec![inputs.test.clone()];
        for s in 1..SEGMENTS {
            let mut spec = p.preset.spec(data_scale);
            spec.n_rows = inputs.test.n_rows();
            segments.push(spec.generate(derive(WORLD_SEED, 10 + s as u64)).0);
        }
        let blocks = (0..p.blocks)
            .map(|b| {
                (
                    drift_stream(&segments, offset + b * per_seg, per_seg),
                    run_seed(b),
                )
            })
            .collect();
        let warm = drift_stream(&segments, offset + p.blocks * per_seg, (per_seg / 8).max(1));
        (blocks, (warm, warm_seed))
    } else {
        let rows = rows.min(inputs.test.n_rows());
        let blocks = (0..p.blocks)
            .map(|b| (block(&inputs.test, offset + b * rows, rows), run_seed(b)))
            .collect();
        let warm = block(&inputs.test, offset + p.blocks * rows, (rows / 8).max(10));
        (blocks, (warm, warm_seed))
    };
    rec.close(build);
    Prepared {
        inputs,
        blocks,
        warmup,
    }
}

/// What the benchmark keeps of one driver call.
struct BlockRun {
    tuples: usize,
    wall_ns: u64,
    invocations: u64,
    failed: usize,
    fingerprint: u64,
    /// Frequent itemsets the call materialized.
    itemsets: usize,
}

/// What every driver call of a workload shares.
struct Driver<'a, C: Classifier> {
    kind: &'a ExplainerKind,
    inputs: &'a Inputs,
    clf: &'a CountingClassifier<C>,
}

impl<C: Classifier> Driver<'_, C> {
    /// One driver call, timed and spanned. `obs = None` is the product's
    /// untraced path (`shahin::run`, a disabled registry).
    fn call(
        &self,
        method: &Method,
        (tuples, seed): &(Dataset, u64),
        obs: Option<&MetricsRegistry>,
        rec: &mut Recorder,
        parent: Option<usize>,
    ) -> (BlockRun, RunReport) {
        let (ctx, clf) = (&self.inputs.ctx, self.clf);
        let inv0 = clf.invocations();
        let start = Instant::now();
        let report = match obs {
            None => run(method, self.kind, ctx, clf, tuples, *seed),
            Some(obs) => run_with_obs(method, self.kind, ctx, clf, tuples, *seed, obs),
        };
        let end = Instant::now();
        rec.push("core.run", rec.ns(start), rec.ns(end), parent, None);
        let run = BlockRun {
            tuples: tuples.n_rows(),
            wall_ns: (end - start).as_nanos() as u64,
            invocations: clf.invocations() - inv0,
            failed: report.report.failures.len(),
            fingerprint: explanation_fingerprint(&report.explanations),
            itemsets: report.metrics.n_frequent,
        };
        (run, report)
    }
}

/// Per-block output checks that need the explanations themselves.
fn check_block(
    p: &Plan,
    inputs: &Inputs,
    tuples: &Dataset,
    report: &RunReport,
) -> Result<(), String> {
    if report.explanations.len() + report.report.failures.len() != tuples.n_rows() {
        return Err(format!(
            "{} explanations + {} quarantined for {} tuples",
            report.explanations.len(),
            report.report.failures.len(),
            tuples.n_rows()
        ));
    }
    if !report.report.failures.is_empty() {
        // Rows no longer line up with explanations; the failure itself
        // already fails the run.
        return Ok(());
    }
    match &p.kind {
        ExplainerKind::Lime(_) => Ok(()),
        ExplainerKind::Anchor(_) => {
            // Every rule must hold on the tuple it explains.
            for (row, e) in report.explanations.iter().enumerate() {
                let codes = inputs
                    .ctx
                    .discretizer()
                    .encode_instance(&tuples.instance(row));
                let rule = &e.rule().expect("anchor explanation").rule;
                if !rule.contained_in(&codes) {
                    return Err(format!("rule {rule} does not hold on tuple {row}"));
                }
            }
            Ok(())
        }
        ExplainerKind::Shap(_) => {
            // Efficiency: the attributions and the base value add up to
            // the model's output.
            for (row, e) in report.explanations.iter().enumerate() {
                let w = e.weights().expect("shap explanation");
                let fx = inputs
                    .forest
                    .predict_proba(&tuples.instance(row))
                    .clamp(0.0, 1.0);
                let sum: f64 = w.weights.iter().sum::<f64>() + w.intercept;
                if (sum - fx).abs() > 1e-6 {
                    return Err(format!(
                        "SHAP efficiency broken on tuple {row}: Σφ + base = {sum}, f(x) = {fx}"
                    ));
                }
            }
            Ok(())
        }
    }
}

/// Fails unless the mean Kendall-τ between `method` and
/// `Method::Sequential` on the first 200 tuples of `blk` reaches `floor`.
fn check_tau<C: Classifier>(
    driver: &Driver<C>,
    method: &Method,
    blk: &(Dataset, u64),
    floor: f64,
    rec: &mut Recorder,
    parent: Option<usize>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let tiny = (block(&blk.0, 0, blk.0.n_rows().min(200)), blk.1);
    let (_, ours) = driver.call(method, &tiny, None, rec, parent);
    let (_, seq) = driver.call(&Method::Sequential, &tiny, None, rec, parent);
    let tau = shahin::runner::attribution_fidelity(&ours.explanations, &seq.explanations).1;
    notes.push(format!(
        "Kendall-tau vs Sequential on {} tuples: {tau:.4}",
        tiny.0.n_rows()
    ));
    if tau < floor {
        return Err(format!("Kendall-τ vs Sequential {tau:.4} < {floor}"));
    }
    Ok(())
}

/// Checks that run once per process, after the measured run: agreement
/// with `Method::Sequential`, thread-count invariance, determinism.
fn check_run<C: Classifier>(
    p: &Plan,
    prep: &Prepared,
    driver: &Driver<C>,
    warmup_first: &BlockRun,
    rec: &mut Recorder,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let checks = rec.open("checks", None);
    let parent = Some(checks);
    let first = &prep.blocks[0];
    let result = (|| match &p.kind {
        ExplainerKind::Lime(_) => {
            let small = (block(&first.0, 0, first.0.n_rows().min(2_000)), first.1);
            let (par, _) = driver.call(&p.method(p.n_threads), &small, None, rec, parent);
            let (one, _) = driver.call(&p.method(1), &small, None, rec, parent);
            if par.fingerprint != one.fingerprint || par.invocations != one.invocations {
                return Err(format!(
                    "{} threads and 1 thread disagree: fingerprint {:016x} vs {:016x}, \
                     invocations {} vs {}",
                    p.n_threads, par.fingerprint, one.fingerprint, par.invocations, one.invocations
                ));
            }
            notes.push(format!(
                "fingerprint at {} threads == 1 thread on {} tuples ({:016x})",
                p.n_threads, par.tuples, par.fingerprint
            ));
            check_tau(
                driver,
                &p.method(p.n_threads),
                first,
                LIME_TAU_FLOOR,
                rec,
                parent,
                notes,
            )
        }
        ExplainerKind::Anchor(_) => {
            // The warm-up block again: at one thread the same inputs give
            // the same rules and the same invocation count.
            let (again, _) = driver.call(&p.method(1), &prep.warmup, None, rec, parent);
            if again.fingerprint != warmup_first.fingerprint
                || again.invocations != warmup_first.invocations
            {
                return Err(format!(
                    "Anchor is not repeatable at one thread: fingerprint {:016x} vs {:016x}, \
                     invocations {} vs {}",
                    again.fingerprint,
                    warmup_first.fingerprint,
                    again.invocations,
                    warmup_first.invocations
                ));
            }
            notes.push(format!(
                "repeat of {} tuples reproduced fingerprint {:016x} and {} invocations",
                again.tuples, again.fingerprint, again.invocations
            ));
            Ok(())
        }
        // Streaming output is *not* checked by fingerprint: it differs run
        // to run because `TaggedLruCache::samples_cloned` iterates a
        // HashMap (see README, "Known defects").
        ExplainerKind::Shap(_) => check_tau(
            driver,
            &p.method(1),
            first,
            SHAP_TAU_FLOOR,
            rec,
            parent,
            notes,
        ),
    })();
    rec.close(checks);
    result
}

/// Driver calls a run makes whatever the clock says.
const MIN_BLOCKS: usize = 3;

/// The work is a fixed list of driver calls, sized to take `--seconds` on
/// the reference box. On a box (or a commit) much slower than that the
/// list is cut short once the run is 30 % over, so a run always ends in
/// bounded time; the note says so, and counts then cover fewer calls.
fn out_of_time(ctl: &Ctl, started: Instant, done: usize, notes: &mut Vec<String>) -> bool {
    let over = done >= MIN_BLOCKS && started.elapsed().as_secs_f64() > 1.3 * ctl.seconds;
    if over {
        notes.push(format!(
            "stopped after {done} driver calls: {:.1} s is 30 % over the {} s the run is sized for",
            started.elapsed().as_secs_f64(),
            ctl.seconds
        ));
    }
    over
}

/// Median block rate, explanations per second.
fn rate(runs: &[BlockRun]) -> f64 {
    median(
        &runs
            .iter()
            .map(|r| (r.tuples - r.failed) as f64 / (r.wall_ns as f64 / 1e9))
            .collect::<Vec<_>>(),
    )
}

/// Runs one offline workload in this process.
pub fn run_workload(workload: &str, ctl: &Ctl) -> Outcome {
    let p = plan(workload);
    let mut rec = Recorder::new();
    let mut notes = Vec::new();
    let mut errors: Vec<String> = Vec::new();

    // Set-up, several times over: its median is the `setup_s` metric.
    let mut setup_s = Vec::new();
    let mut prep = None;
    for _ in 0..ctl.setup_reps() {
        drop(prep.take());
        let span = rec.open("setup", None);
        let t = Instant::now();
        prep = Some(prepare(&p, ctl, &mut rec, Some(span)));
        setup_s.push(t.elapsed().as_secs_f64());
        rec.close(span);
    }
    let prep = prep.expect("at least one set-up");
    let inputs = &prep.inputs;
    let method = p.method(p.n_threads);
    let clf = CountingClassifier::new(inputs.forest.clone());

    // Warm-up pass before anything is timed.
    let warm_span = rec.open("warmup", None);
    let driver = Driver {
        kind: &p.kind,
        inputs,
        clf: &clf,
    };
    let (warm_run, _) = driver.call(&method, &prep.warmup, None, &mut rec, Some(warm_span));
    rec.close(warm_span);

    // The untraced run: all blocks when it is the measured run, the first
    // quarter as the reference the traced run is compared against.
    let n_plain = if ctl.traced {
        (prep.blocks.len() / 4).max(2).min(prep.blocks.len())
    } else {
        prep.blocks.len()
    };
    let plain_span = rec.open("run.untraced", None);
    let mut plain = Vec::with_capacity(n_plain);
    let started = Instant::now();
    for b in &prep.blocks[..n_plain] {
        if out_of_time(ctl, started, plain.len(), &mut notes) {
            break;
        }
        let (run, report) = driver.call(&method, b, None, &mut rec, Some(plain_span));
        if let Err(e) = check_block(&p, inputs, &b.0, &report) {
            errors.push(e);
        }
        plain.push(run);
    }
    rec.close(plain_span);

    let mut values = Values::new();
    let attempted: usize = plain.iter().map(|r| r.tuples).sum();
    let failed: usize = plain.iter().map(|r| r.failed).sum();
    let invocations: u64 = plain.iter().map(|r| r.invocations).sum();

    if !ctl.traced {
        if let Err(e) = check_run(&p, &prep, &driver, &warm_run, &mut rec, &mut notes) {
            errors.push(e);
        }
        let walls_ms: Vec<f64> = plain.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
        // A dozen calls support no percentile above the median (ten
        // samples must lie beyond it), so the tail reported is whatever
        // `summarize` says the sample supports.
        let s = summarize(&walls_ms);
        notes.push(format!(
            "{} driver calls of {} tuples; latency = wall time of one call; the sample supports \
             p{} at most, which is what latency_p99_ms reports; calls took {} ms",
            s.n,
            plain[0].tuples,
            s.tail_q * 100.0,
            walls_ms
                .iter()
                .map(|w| format!("{w:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        values.insert("setup_s", median(&setup_s));
        values.insert("explanations_per_s", rate(&plain));
        values.insert(
            "invocations_per_explanation",
            invocations as f64 / (attempted - failed).max(1) as f64,
        );
        values.insert("latency_p50_ms", s.p50);
        values.insert("latency_p99_ms", s.tail);
        values.insert("peak_rss_mb", peak_rss_mb());
    } else {
        let traced = traced_run(
            &p,
            &prep,
            &plain,
            ctl,
            &mut rec,
            &mut values,
            &mut errors,
            &mut notes,
        );
        probes::run(inputs, &mut values, &mut rec);
        insert_setup(rec.spans(), &mut values);
        let waterfalls = vec![
            ("driver".to_string(), traced),
            ("benchmark".to_string(), fold(rec.spans())),
        ];
        crate::report::print_waterfall("driver calls, traced run", 1e6, "ms", &waterfalls[0].1);
        let path = write_out(
            &ctl.out,
            &format!("{workload}.trace.json"),
            &crate::report::trace_file(workload, &waterfalls, &[("benchmark", rec.spans())]),
        );
        notes.push(format!("spans and waterfall in {}", path.display()));
    }

    for e in &errors {
        eprintln!("CHECK FAILED [{workload}]: {e}");
    }
    Outcome {
        correct: errors.is_empty() && failed == 0,
        attempted: attempted as u64,
        failed: failed as u64,
        values,
        notes,
    }
}

/// The traced repeat: an enabled registry, a provenance sink, the model
/// behind a `TracedClassifier`. Fills the in-situ per-layer metrics and
/// returns the driver waterfall.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    p: &Plan,
    prep: &Prepared,
    plain: &[BlockRun],
    ctl: &Ctl,
    rec: &mut Recorder,
    values: &mut Values,
    errors: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> Vec<Row> {
    let inputs = &prep.inputs;
    let obs = MetricsRegistry::new();
    let n_traced = (prep.blocks.len() / 2)
        .max(plain.len())
        .min(prep.blocks.len());
    let blocks = &prep.blocks[..n_traced];
    let clf = CountingClassifier::new(TracedClassifier::new(inputs.forest.clone(), &obs));
    let driver = Driver {
        kind: &p.kind,
        inputs,
        clf: &clf,
    };
    let method = p.method(p.n_threads);

    let span = rec.open("run.traced", None);
    let mut runs = Vec::with_capacity(n_traced);
    let mut lineage = Lineage::default();
    let mut rows_csv = String::from("block,tuple,wall_ns,invocations,reused,fresh\n");
    let started = Instant::now();
    for (b, blk) in blocks.iter().enumerate() {
        if out_of_time(ctl, started, runs.len(), notes) {
            break;
        }
        // A sink per driver call: tuple indices restart in every block.
        // One stripe must be able to hold a single-threaded block.
        let sink = Arc::new(ProvenanceSink::with_capacity(blk.0.n_rows() + 1));
        obs.attach_provenance_sink(Arc::clone(&sink));
        let (run, report) = driver.call(&method, blk, Some(&obs), rec, Some(span));
        if let Err(e) = check_block(p, inputs, &blk.0, &report) {
            errors.push(e);
        }
        if sink.dropped() > 0 {
            errors.push(format!(
                "block {b}: provenance sink dropped {} records",
                sink.dropped()
            ));
        }
        for r in sink.records() {
            writeln!(
                rows_csv,
                "{b},{},{},{},{},{}",
                r.tuple, r.wall_ns, r.invocations, r.samples_reused, r.samples_fresh
            )
            .unwrap();
        }
        lineage.absorb(&sink);
        runs.push(run);
    }
    rec.close(span);
    let path = write_out(&ctl.out, &format!("{}.rows.csv", ctl.workload), &rows_csv);
    notes.push(format!("per-tuple rows in {}", path.display()));

    // Anchor at one thread: the traced run must reproduce the untraced one.
    if matches!(p.kind, ExplainerKind::Anchor(_)) {
        for (b, (a, t)) in plain.iter().zip(&runs).enumerate() {
            if a.fingerprint != t.fingerprint || a.invocations != t.invocations {
                errors.push(format!(
                    "block {b}: traced run differs from untraced: fingerprint {:016x} vs {:016x}, \
                     invocations {} vs {}",
                    t.fingerprint, a.fingerprint, t.invocations, a.invocations
                ));
            }
        }
        notes.push(format!(
            "traced == untraced fingerprints on {} blocks",
            plain.len()
        ));
    }

    let snap = obs.snapshot();
    let threads = p.n_threads as f64;
    let wall_ns: f64 = runs.iter().map(|r| r.wall_ns as f64).sum();
    insert_common(&snap, &lineage, wall_ns * threads, values);
    values.insert(
        "fim.itemsets",
        runs.iter().map(|r| r.itemsets as f64).sum::<f64>() / runs.len() as f64,
    );
    values.insert("core.store_bytes", snap.gauge("store.peak_bytes") as f64);
    let mine = span_hist(&snap, "fim.mine");
    let fill = span_hist(&snap, "materialize.fill");
    let retrieve = span_hist(&snap, "retrieve.match");
    let fit = span_hist(&snap, "surrogate.fit");
    let search = span_hist(&snap, "anchor.search");

    // The driver waterfall, in wall time: serial phases as recorded,
    // per-tuple spans divided by the worker count, the rest unattributed.
    let explain = if search.count > 0 { &search } else { &fit };
    let rows_ns = [
        ("core.run/fim.mine", mine.sum_ns as f64, mine.count),
        ("core.run/materialize.fill", fill.sum_ns as f64, fill.count),
        (
            "core.run/per_tuple/retrieve.match",
            retrieve.sum_ns as f64 / threads,
            retrieve.count,
        ),
        (
            if search.count > 0 {
                "core.run/per_tuple/anchor.search"
            } else {
                "core.run/per_tuple/surrogate.fit"
            },
            explain.sum_ns as f64 / threads,
            explain.count,
        ),
    ];
    let attributed: f64 = rows_ns.iter().map(|r| r.1).sum();
    let mut rows: Vec<Row> = rows_ns
        .iter()
        .map(|(path, ns, count)| Row {
            path: (*path).to_string(),
            self_ns: *ns as u64,
            count: *count,
        })
        .collect();
    let covered: u64 = rows.iter().map(|r| r.self_ns).sum();
    rows.push(Row {
        path: "core.run/unattributed".into(),
        self_ns: (wall_ns as u64).saturating_sub(covered),
        count: runs.len() as u64,
    });
    values.insert(
        "core.unattributed_share",
        (1.0 - attributed / wall_ns).max(0.0),
    );
    // Size-dependent checks hold at full size only: a smoke run is mostly
    // mining and thread start-up, and never fills the repository.
    let full_size = ctl.scale() >= 0.9;
    if full_size && ctl.workload == "batch_lime" && 1.0 - attributed / wall_ns > 0.10 {
        errors.push(format!(
            "core.unattributed_share {:.3} > 0.10: the driver's spans no longer cover its wall time",
            1.0 - attributed / wall_ns
        ));
    }

    // Streaming must actually have churned the repository.
    if p.streaming && full_size {
        let expected = runs.iter().map(|r| r.tuples / 100).sum::<usize>() as f64;
        let refreshes = snap.counter("streaming.refresh_rounds") as f64;
        if snap.counter("store.evictions") == 0 {
            errors.push("stream_shap evicted nothing: the 192 KiB budget no longer binds".into());
        }
        if refreshes < 0.95 * expected {
            errors.push(format!(
                "{refreshes} refresh rounds, expected about {expected}"
            ));
        }
    }

    let (plain_rate, traced_rate) = (rate(plain), rate(&runs));
    values.insert(
        "obs.tracing_overhead_pct",
        100.0 * (plain_rate - traced_rate) / plain_rate,
    );
    notes.push(format!(
        "untraced {plain_rate:.1} expl/s over {} calls, traced {traced_rate:.1} over {}",
        plain.len(),
        runs.len()
    ));
    rows
}
