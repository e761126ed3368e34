//! The server-owned monitor thread: the heartbeat of the live
//! observability plane.
//!
//! Every `monitor_interval` the monitor samples the instantaneous state
//! only it can see consistently — admission-queue depth, live
//! connections, warm-store entries/bytes — into gauges, snapshots the
//! whole registry, and feeds the snapshot to the
//! [`WindowedAggregator`], which differences it against the previous
//! tick into a bounded ring of per-window deltas. The [`SloTracker`]
//! then re-derives `slo.*` burn-rate/budget gauges from the merged
//! ring, and, when `--metrics-out` is set, the current snapshot is
//! rewritten to disk via temp-file + atomic rename (a tailing reader
//! never observes a torn document). The monitor is also the sole
//! warm-snapshot writer: periodic `--snapshot-interval-ms` snapshots,
//! on-demand ones (admin `snapshot` frame, SIGUSR1), and a final
//! at-drain snapshot, all through [`take_snapshot`].
//!
//! The thread is owned by the server: [`crate::Server::start`] spawns
//! it and [`crate::ServerHandle::wait`] joins it. It exits after the
//! workers report the drain complete, taking one final tick first so
//! the last window and the on-disk file reflect the drain tail.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use shahin::obs::names;
use shahin::MetricsRegistry;
use shahin_model::Classifier;
use shahin_obs::{SloConfig, SloTracker, WindowedAggregator};

use crate::protocol::{StatsSummary, TenantStat};
use crate::server::Shared;
use crate::signal;

/// Windowing and SLO state shared between the monitor thread (writer)
/// and the `stats` admin frame (reader).
pub(crate) struct MonitorState {
    pub(crate) agg: Mutex<WindowedAggregator>,
    pub(crate) slo: SloTracker,
    pub(crate) started: Instant,
    /// Aggregator reset count already published to `obs.counter_resets`
    /// — the monitor publishes only the delta each tick, keeping the
    /// registry counter monotone.
    published_resets: AtomicU64,
}

impl MonitorState {
    pub(crate) fn new(windows: usize, slo: SloConfig) -> MonitorState {
        MonitorState {
            agg: Mutex::new(WindowedAggregator::new(windows)),
            slo: SloTracker::new(vec![slo]),
            started: Instant::now(),
            published_resets: AtomicU64::new(0),
        }
    }
}

/// Writes `contents` to `path` atomically: temp file + fsync + rename in
/// the target's directory, so a concurrent reader sees either the old
/// document or the new one in full, never a torn prefix. Thin string
/// adapter over [`shahin_obs::write_atomic`], the one atomic-persistence
/// idiom every writer in the workspace shares.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    shahin_obs::write_atomic(path, contents.as_bytes())
}

/// One monitor tick: sample instantaneous gauges, difference the
/// registry into the window ring, refresh SLO gauges, rewrite the
/// metrics file.
fn tick<C: Classifier>(shared: &Shared<C>, obs: &MetricsRegistry) {
    obs.gauge(names::SERVE_QUEUE_DEPTH)
        .set(shared.queue.len() as u64);
    obs.gauge(names::SERVE_LIVE_CONNECTIONS)
        .set(shared.live_connections.load(Ordering::Relaxed));
    let (warm_entries, warm_bytes) = shared.cluster.warm_totals();
    obs.gauge(names::SERVE_WARM_ENTRIES).set(warm_entries);
    obs.gauge(names::SERVE_WARM_BYTES).set(warm_bytes);
    obs.counter(names::SERVE_MONITOR_TICKS).inc();
    // The FaaS lifecycle runs on the monitor's clock: evict idle-past-
    // policy and over-budget tenants (LRU first, at-evict snapshot so
    // re-admission is classifier-free), then refresh tenancy gauges.
    shared.cluster.enforce();

    if let Some(traces) = &shared.traces {
        obs.gauge(names::TRACE_RETAINED)
            .set(traces.store.len() as u64);
        obs.gauge(names::TRACE_DROPPED).set(traces.store.dropped());
        obs.gauge(names::TRACE_EVICTED).set(traces.store.evicted());
        // The monitor tick is the tail-sampler's "window": each tick the
        // slow-K reservoir restarts, so "slowest K per window" means per
        // monitor interval.
        traces.store.roll_window();
    }

    {
        let mut agg = shared.monitor.agg.lock().unwrap();
        agg.tick(obs.snapshot());
        shared.monitor.slo.update(&agg, obs);
        // Surface aggregator re-baselines (counter regressions, e.g. a
        // registry swap) as a first-class counter.
        let resets = agg.counter_resets();
        let published = shared
            .monitor
            .published_resets
            .swap(resets, Ordering::Relaxed);
        if resets > published {
            obs.counter(names::OBS_COUNTER_RESETS)
                .add(resets - published);
        }
    }

    if let Some(path) = &shared.config.metrics_out {
        // Best-effort: a transient disk error must not kill the monitor;
        // the CLI's final write surfaces persistent ones.
        let _ = write_atomic(path, &obs.snapshot().to_json());
    }
}

/// Takes one warm-state snapshot per persisting tenant (the single
/// `--snapshot-out` file when single-tenant, `<snapshot-dir>/<name>.shws`
/// per tenant under a manifest), counting outcomes under `persist.*`.
/// Each dump holds its store's read lock only long enough to serialize —
/// the workers keep serving — and every write is temp-file + fsync +
/// rename, so a crash mid-snapshot leaves the previous file intact. A
/// failure (full disk, revoked directory) must not kill the monitor; the
/// failure counter is the operator's signal. A no-op when no tenant has
/// a snapshot path.
pub(crate) fn take_snapshot<C: Classifier>(shared: &Shared<C>) {
    shared.cluster.write_snapshots();
}

/// Runs until the workers report the drain complete, ticking every
/// `monitor_interval` (checking for the drain every `poll_interval` so
/// shutdown is never blocked on a long monitor sleep). The monitor is
/// the single snapshot writer: periodic `--snapshot-interval-ms`
/// snapshots, on-demand ones (admin `snapshot` frame, SIGUSR1), and the
/// final at-drain snapshot all funnel through it, so two writers can
/// never race on the snapshot file.
pub(crate) fn monitor_loop<C: Classifier>(shared: Arc<Shared<C>>) {
    let obs = shared.obs().clone();
    let mut last_snapshot = Instant::now();
    loop {
        let drained = shared.drained();
        tick(&shared, &obs);
        if signal::snapshot_requested() {
            // SIGUSR1 and the admin frame share one on-demand path (and
            // one counter; the frame handler counts at admission).
            obs.counter(names::PERSIST_SNAPSHOTS_REQUESTED).inc();
            shared.snapshot_requested.store(true, Ordering::Relaxed);
        }
        let on_demand = shared.snapshot_requested.swap(false, Ordering::Relaxed);
        let due = shared
            .config
            .snapshot_interval
            .is_some_and(|interval| last_snapshot.elapsed() >= interval);
        // `drained`: one final snapshot so a restart warms from the full
        // serving history, not the last periodic tick.
        if shared.cluster.persists() && (on_demand || due || drained) {
            take_snapshot(&shared);
            last_snapshot = Instant::now();
        }
        if drained {
            break;
        }
        let deadline = Instant::now() + shared.config.monitor_interval;
        loop {
            let now = Instant::now();
            if now >= deadline
                || shared.drained()
                || shared.snapshot_requested.load(Ordering::Relaxed)
                || signal::snapshot_pending()
            {
                break;
            }
            std::thread::sleep(shared.config.poll_interval.min(deadline - now));
        }
    }
}

/// Computes the `stats` admin frame's windowed summary.
pub(crate) fn stats_summary<C: Classifier>(shared: &Shared<C>) -> StatsSummary {
    let agg = shared.monitor.agg.lock().unwrap();
    let merged = agg.merged();
    let windows = agg.len();
    drop(agg);

    let hits = merged.counter(names::STORE_HITS);
    let misses = merged.counter(names::STORE_MISSES);
    let lookups = hits + misses;
    let slo = shared
        .monitor
        .slo
        .configs()
        .first()
        .map(|config| SloTracker::evaluate(config, &merged))
        .unwrap_or_default();

    StatsSummary {
        window_secs: merged.duration.as_secs_f64(),
        windows,
        req_per_s: merged.rate_per_sec(names::SERVE_REQUESTS),
        p50_ns: merged.quantile_ns(names::SERVE_REQUEST_LATENCY, 0.5),
        p99_ns: merged.quantile_ns(names::SERVE_REQUEST_LATENCY, 0.99),
        hit_rate: if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
        queue_depth: shared.queue.len() as u64,
        live_connections: shared.live_connections.load(Ordering::Relaxed),
        slo_burn_rate: slo.burn_rate,
        slo_budget_remaining: slo.budget_remaining,
        tenants: tenant_stats(shared),
    }
}

/// Per-tenant rows for the `ping` and `stats` admin frames — lifecycle
/// state, warm-store footprint, and in-flight count per tenant. Empty
/// for single-tenant serving, so those frames keep their pre-tenancy
/// schema.
pub(crate) fn tenant_stats<C: Classifier>(shared: &Shared<C>) -> Vec<TenantStat> {
    if !shared.cluster.multi() {
        return Vec::new();
    }
    shared
        .cluster
        .stats()
        .into_iter()
        .map(|t| TenantStat {
            name: t.name.to_string(),
            state: t.state,
            entries: t.entries,
            bytes: t.bytes,
            inflight: t.inflight,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_replaces_whole_documents() {
        let dir = std::env::temp_dir().join(format!("shahin_atomic_{}", std::process::id()));
        let path = dir.join("metrics.json");
        write_atomic(&path, "{\"a\": 1}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\": 1}\n");
        write_atomic(&path, "{\"b\": 2}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"b\": 2}\n");
        // No temp debris left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not persist");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_rejects_directoryless_targets() {
        assert!(write_atomic(Path::new("/"), "x").is_err());
    }
}
