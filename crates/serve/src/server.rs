//! The TCP front end: acceptor, per-connection readers, and the worker
//! pool.
//!
//! Threading model (see DESIGN.md §5f):
//!
//! ```text
//! acceptor ──spawns──▶ reader (one per connection)
//!                        │ parse + resolve tenant + admit (quota)
//!                        ▼
//!                 Admission queue (bounded, shared)
//!                        │ pop() — one request, the moment it is there
//!                        ▼
//!        worker-0 … worker-N (persistent; started with the server)
//!                        │ deadline → ensure_warm → explain_request
//!                        ▼
//!              serialize ──▶ the request's socket
//! ```
//!
//! The server fronts a [`TenantRegistry`] — one tenant wrapped from a
//! prebuilt engine on the classic [`Server::start`] path, N manifest
//! tenants via [`Server::start_cluster`]. Readers resolve each explain's
//! `tenant` field (absent → default tenant, unknown → typed 404) and
//! admit against the tenant's quota (over → typed 429) before the
//! request crosses into the queue. Each worker takes one request at a
//! time and does the whole of it on its own thread: there is no timer
//! and no thread creation between admission and the response, and
//! requests share nothing but the read-only warm store, so nothing is
//! gained by holding one back for another. A cold tenant is
//! materialized by the first worker that picks up a request for it
//! (counted, and traced as a `coldstart` span on that request); requests
//! other workers pick up for it meanwhile are parked on the tenant and
//! re-queued when the start finishes, so a cold start or a slow
//! explanation occupies one worker and every other tenant keeps being
//! served by the rest.
//!
//! Readers never touch the engine; workers never touch sockets except
//! through each request's `Conn` handle (a mutex-wrapped writer shared
//! with the reader and the other workers, so pong/error frames and
//! served explanations interleave without tearing). Shutdown — admin
//! frame, watched signal, or [`ServerHandle::shutdown`] — closes the
//! queue; the workers drain the backlog (every admitted request is still
//! answered), the acceptor stops accepting, and readers notice within
//! one read-timeout tick.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use shahin::obs::names;
use shahin::obs::{Counter, Gauge, Histogram, ValueHistogram};
use shahin::{
    MetricsRegistry, RequestTrace, StageSpan, TraceContext, TraceCounters, TraceSpan, TraceStore,
    TraceStoreConfig, TupleWorker, WarmEngine, WarmOutcome, WarmRequest,
};
use shahin_model::Classifier;
use shahin_tenancy::{ColdStart, Lifecycle, TenantRegistry, WarmSlot};

use crate::monitor::{self, MonitorState};
use crate::protocol::{
    error_frame, error_frame_traced, explanation_frame, metrics_frame, parse_frame_id,
    parse_request, pong_frame, shutdown_frame, snapshot_frame, stats_frame, trace_frame,
    traces_frame, MetricsFormat, Request, TraceQuery, TraceStoreStats, WireError,
};
use crate::queue::{Admission, PushError};
use crate::signal;

/// Upper bound on one request line, newline included. Well-formed
/// request frames are tens of bytes; a longer line is hostile or broken
/// and must not grow the reader's buffer without limit. Overlong lines
/// are answered with a 400 frame and discarded up to the next newline —
/// the connection survives.
pub const MAX_FRAME_LEN: usize = 8 * 1024;

/// Tuning knobs for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Admission queue bound; pushes beyond it get 429 frames.
    pub queue_capacity: usize,
    /// Refresh the warm store every this many answered requests
    /// (0 = never).
    pub refresh_every: u64,
    /// How often idle readers and the acceptor poll the shutdown flag.
    pub poll_interval: Duration,
    /// Per-frame write timeout. A client that stops reading (full TCP
    /// window) past this is treated as hung up: its connection is marked
    /// dead and further responses for it are dropped, so a stalled
    /// socket holds a worker for at most one timeout.
    pub write_timeout: Duration,
    /// Accept admin frames (`shutdown`, `metrics`, `stats`) from
    /// non-loopback peers. Off by default: when `addr` binds a
    /// non-loopback interface, remote clients get 403 frames instead of
    /// draining or scraping the server.
    pub allow_remote_shutdown: bool,
    /// Watch SIGINT/SIGTERM and drain when one arrives.
    pub watch_signals: bool,
    /// How often the monitor thread samples gauges and rolls a new
    /// metrics window.
    pub monitor_interval: Duration,
    /// How many monitor windows the aggregator retains; `stats` and SLO
    /// gauges look back over `windows × monitor_interval` of wall time.
    pub windows: usize,
    /// SLO latency objective: windowed request-latency p99 should stay
    /// at or below this.
    pub slo_p99: Duration,
    /// SLO error-rate objective: allowed fraction of failed traffic
    /// (rejections, expired deadlines, quarantines).
    pub slo_error_rate: f64,
    /// When set, the monitor atomically rewrites this file with the
    /// current metrics JSON every tick, so an operator can tail it.
    pub metrics_out: Option<std::path::PathBuf>,
    /// Probability of retaining a bulk-success request trace
    /// (`--trace-sample`); errors, quarantined requests, and slow ones
    /// are retained regardless (tail-based sampling).
    pub trace_sample: f64,
    /// Wall time at or above which a request's trace is always retained
    /// (`--trace-slow-ms`).
    pub trace_slow: Duration,
    /// Retained-trace ring bound (`--trace-store`); 0 disables request
    /// tracing entirely — no ids minted, no stage spans recorded.
    pub trace_store: usize,
    /// When set, the monitor thread writes checksummed warm-state
    /// snapshots here (`--snapshot-out`): periodically per
    /// `snapshot_interval`, on demand (admin `snapshot` frame, SIGUSR1),
    /// and once at drain. Writes are temp-file + fsync + rename, so the
    /// file is always a complete snapshot. Parent directories are
    /// created as needed.
    pub snapshot_out: Option<std::path::PathBuf>,
    /// Periodic snapshot cadence (`--snapshot-interval-ms`); `None`
    /// means on-demand and at-drain snapshots only.
    pub snapshot_interval: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 1024,
            refresh_every: 0,
            poll_interval: Duration::from_millis(50),
            write_timeout: Duration::from_secs(1),
            allow_remote_shutdown: false,
            watch_signals: false,
            monitor_interval: Duration::from_secs(1),
            windows: 12,
            slo_p99: Duration::from_millis(500),
            slo_error_rate: 0.001,
            metrics_out: None,
            trace_sample: TraceStoreConfig::default().sample,
            trace_slow: TraceStoreConfig::default().slow,
            trace_store: TraceStoreConfig::default().capacity,
            snapshot_out: None,
            snapshot_interval: None,
        }
    }
}

/// One client connection's write half, shared by its reader thread (pong
/// and error frames) and the workers (served explanations).
struct Conn {
    stream: Mutex<TcpStream>,
    /// Whether the peer is a loopback address (gates admin frames).
    peer_loopback: bool,
    /// Flipped on the first failed or timed-out write. A timed-out
    /// `write_all` may have written a partial frame, so the byte stream
    /// is torn: nothing further may be sent on this connection.
    dead: AtomicBool,
}

impl Conn {
    /// Writes one frame plus the line terminator as a single write (one
    /// syscall, one segment under `TCP_NODELAY`), bounded by the stream's
    /// write timeout; the lock covers nothing else. Errors (including
    /// the timeout a stalled client causes) mean the client is gone or
    /// not reading: the connection is marked dead, the socket shut down
    /// so its reader unblocks and cleans up, and this and all further
    /// responses for it are dropped on the floor.
    fn send(&self, mut frame: String) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        frame.push('\n');
        let mut stream = self.stream.lock().unwrap();
        if stream.write_all(frame.as_bytes()).is_err() {
            self.dead.store(true, Ordering::Relaxed);
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }
}

/// An admitted explain request waiting for a worker.
pub(crate) struct Pending {
    conn: Arc<Conn>,
    /// Client frame id, echoed on the response.
    frame_id: u64,
    /// Registry index of the tenant the request routed to; the worker
    /// releases the tenant's quota after answering.
    tenant: usize,
    /// Warm-set row to explain.
    row: usize,
    /// Server-assigned id stamped on provenance records.
    request_id: u64,
    /// Admission time (queue-wait + end-to-end latency histograms; the
    /// zero point of the request's span tree).
    enqueued: Instant,
    /// Absolute queue deadline, from the request's `deadline_ms`.
    deadline: Option<Instant>,
    /// Trace context minted at admission (`None` with tracing off).
    trace: Option<TraceContext>,
}

/// The server's request-tracing state: the tail-sampled store of
/// retained traces and the trace-id mint. `None` on [`Shared::traces`]
/// when `trace_store` is 0.
pub(crate) struct TracePlane {
    pub(crate) store: TraceStore,
    /// Ids start at 1: 0 means "no exemplar" in histogram bucket slots.
    next_trace_id: AtomicU64,
}

impl TracePlane {
    fn mint(&self) -> TraceContext {
        TraceContext::root(self.next_trace_id.fetch_add(1, Ordering::Relaxed))
    }
}

/// One tenant's cold-start gate. While a worker materializes the tenant
/// (`warming`), requests other workers pick up for it park here instead
/// of blocking on the registry's per-tenant mutex; the starting worker
/// re-queues them when it is done. Never held across the start itself.
#[derive(Default)]
struct Gate {
    warming: bool,
    parked: Vec<Pending>,
}

pub(crate) struct Shared<C: Classifier> {
    pub(crate) cluster: Arc<TenantRegistry<C>>,
    pub(crate) queue: Admission<Pending>,
    /// Indexed like the registry's tenants.
    gates: Vec<Mutex<Gate>>,
    shutdown: AtomicBool,
    /// Set by the last worker to exit, once the backlog is fully
    /// answered; readers hold connections open (answering 503s) until
    /// then.
    drained: AtomicBool,
    /// Workers still running; the one that takes this to zero flags the
    /// drain.
    workers_alive: AtomicUsize,
    next_request_id: AtomicU64,
    /// The next handled request's `batch_id`: its pickup number.
    next_batch_id: AtomicU64,
    /// Requests answered by the workers (the drain report, and the clock
    /// `refresh_every` counts on).
    served: AtomicU64,
    /// Reader threads currently attached to a client connection; the
    /// monitor samples this into the `serve.live_connections` gauge.
    pub(crate) live_connections: AtomicU64,
    /// Windowed-aggregator + SLO state owned by the monitor thread.
    pub(crate) monitor: MonitorState,
    /// On-demand snapshot flag: set by the admin `snapshot` frame (and
    /// by the monitor itself for SIGUSR1), consumed by the monitor
    /// thread — the single snapshot writer.
    pub(crate) snapshot_requested: AtomicBool,
    /// Request-tracing plane (`None` when `trace_store` is 0).
    pub(crate) traces: Option<TracePlane>,
    pub(crate) config: ServeConfig,
}

impl<C: Classifier> Shared<C> {
    pub(crate) fn obs(&self) -> &MetricsRegistry {
        self.cluster.obs()
    }

    /// Begins the graceful drain: stop admitting, let the workers finish
    /// the backlog, wake everything that polls.
    fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn drained(&self) -> bool {
        self.drained.load(Ordering::SeqCst)
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`shutdown`](ServerHandle::shutdown) (or send an admin `shutdown`
/// frame) and then [`wait`](ServerHandle::wait).
pub struct Server;

/// Handle to a started server.
pub struct ServerHandle<C: Classifier + 'static> {
    addr: SocketAddr,
    shared: Arc<Shared<C>>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    monitor: JoinHandle<()>,
}

impl<C: Classifier + 'static> ServerHandle<C> {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts the graceful drain (idempotent).
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Blocks until the drain completes and all server threads exit;
    /// returns the number of requests the workers answered. The monitor
    /// exits after its final post-drain tick, so the last metrics-out
    /// rewrite reflects the drained state.
    pub fn wait(self) -> u64 {
        self.acceptor.join().expect("acceptor thread panicked");
        for worker in self.workers {
            worker.join().expect("worker thread panicked");
        }
        self.monitor.join().expect("monitor thread panicked");
        self.shared.served.load(Ordering::SeqCst)
    }
}

impl Server {
    /// Binds `config.addr` and spawns the acceptor and a pool of
    /// [`WarmEngine::n_workers`] workers over a primed engine — the
    /// single-tenant path, wrapping the engine as a one-tenant cluster
    /// (no tenant labels, no lifecycle management; `--snapshot-out`
    /// becomes the tenant's snapshot path).
    pub fn start<C: Classifier + 'static>(
        engine: Arc<WarmEngine<C>>,
        config: ServeConfig,
    ) -> std::io::Result<ServerHandle<C>> {
        let n_workers = engine.n_workers();
        let cluster = Arc::new(TenantRegistry::single(engine, config.snapshot_out.clone()));
        Server::start_pool(cluster, config, n_workers)
    }

    /// Binds `config.addr` over a tenant cluster: requests route by
    /// their `tenant` field, tenants materialize lazily, and the monitor
    /// runs the FaaS lifecycle (idle/budget eviction, per-tenant
    /// snapshots) every tick. One worker per available core serves all
    /// tenants.
    pub fn start_cluster<C: Classifier + 'static>(
        cluster: Arc<TenantRegistry<C>>,
        config: ServeConfig,
    ) -> std::io::Result<ServerHandle<C>> {
        let n_workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Server::start_pool(cluster, config, n_workers)
    }

    pub(crate) fn start_pool<C: Classifier + 'static>(
        cluster: Arc<TenantRegistry<C>>,
        config: ServeConfig,
        n_workers: usize,
    ) -> std::io::Result<ServerHandle<C>> {
        let n_workers = n_workers.max(1);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        if config.watch_signals {
            signal::install();
        }
        let slo = shahin_obs::SloConfig {
            target: "serve.request".into(),
            latency_histogram: names::SERVE_REQUEST_LATENCY.into(),
            latency_objective: config.slo_p99,
            latency_quantile: 0.99,
            requests_counter: names::SERVE_REQUESTS.into(),
            error_counters: vec![
                names::SERVE_REJECTED_OVERLOAD.into(),
                names::SERVE_REJECTED_SHUTDOWN.into(),
                names::SERVE_DEADLINE_EXPIRED.into(),
                names::SERVE_QUARANTINED.into(),
            ],
            error_rate_objective: config.slo_error_rate,
        };
        // Tracing on: bound the retained-trace ring per the config knobs.
        let traces = (config.trace_store > 0).then(|| TracePlane {
            store: TraceStore::new(TraceStoreConfig {
                capacity: config.trace_store,
                sample: config.trace_sample,
                slow: config.trace_slow,
                ..TraceStoreConfig::default()
            }),
            next_trace_id: AtomicU64::new(1),
        });
        let shared = Arc::new(Shared {
            gates: (0..cluster.len()).map(|_| Mutex::default()).collect(),
            cluster,
            queue: Admission::new(config.queue_capacity),
            shutdown: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            workers_alive: AtomicUsize::new(n_workers),
            next_request_id: AtomicU64::new(0),
            next_batch_id: AtomicU64::new(0),
            served: AtomicU64::new(0),
            live_connections: AtomicU64::new(0),
            monitor: MonitorState::new(config.windows, slo),
            snapshot_requested: AtomicBool::new(false),
            traces,
            config,
        });
        let (s1, s2) = (Arc::clone(&shared), Arc::clone(&shared));
        let acceptor = spawn_named("acceptor".into(), move || accept_loop(listener, s1));
        let workers = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                spawn_named(format!("worker-{i}"), move || worker_loop(shared))
            })
            .collect();
        let monitor = spawn_named("monitor".into(), move || monitor::monitor_loop(s2));
        Ok(ServerHandle {
            addr,
            shared,
            acceptor,
            workers,
            monitor,
        })
    }
}

/// Server threads carry names so EventSink timeline lanes and panic
/// messages identify their role.
fn spawn_named(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("spawn server thread")
}

/// Accepts connections until shutdown, spawning one reader thread each,
/// then joins the readers (they exit within one poll tick of the flag).
fn accept_loop<C: Classifier + 'static>(listener: TcpListener, shared: Arc<Shared<C>>) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shared.config.watch_signals && signal::requested() {
            shared.trigger_shutdown();
        }
        if shared.shutting_down() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Response frames are small; Nagle + delayed ACK would
                // add ~40ms per round trip.
                let _ = stream.set_nodelay(true);
                shared.obs().counter(names::SERVE_CONNECTIONS).inc();
                let shared = Arc::clone(&shared);
                readers.push(spawn_named("reader".into(), move || {
                    read_loop(stream, shared)
                }));
            }
            // Nothing pending (`WouldBlock`) or a transient accept error.
            Err(_) => std::thread::sleep(shared.config.poll_interval),
        }
    }
    for reader in readers {
        let _ = reader.join();
    }
}

/// Reads newline-delimited frames off one connection until EOF or
/// shutdown. Every malformed frame is answered in place and the
/// connection kept open; only explain frames cross into the queue. The
/// partial-line buffer is bounded by [`MAX_FRAME_LEN`]: an overlong
/// line gets one 400 frame and its remaining bytes are discarded up to
/// the next newline, so a client streaming without newlines can never
/// grow server memory.
fn read_loop<C: Classifier + 'static>(stream: TcpStream, shared: Arc<Shared<C>>) {
    // Blocking socket with a read timeout: the reader wakes every tick
    // to notice a drain even when the client sends nothing. The write
    // timeout bounds how long a response frame can stall a worker on a
    // client that stopped reading.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let peer_loopback = stream
        .peer_addr()
        .map(|peer| peer.ip().is_loopback())
        .unwrap_or(false);
    let conn = Arc::new(Conn {
        stream: Mutex::new(stream.try_clone().expect("tcp stream clones")),
        peer_loopback,
        dead: AtomicBool::new(false),
    });
    shared.live_connections.fetch_add(1, Ordering::Relaxed);
    // Decrements on every exit path out of the read loop below (the
    // loop only breaks, never returns).
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    // True while discarding the tail of an overlong line; the 400 frame
    // was already sent when the overflow was detected.
    let mut discarding = false;
    loop {
        let buf = match reader.fill_buf() {
            Ok([]) => {
                // EOF with an unterminated final frame: flush it.
                if !discarding && !line.is_empty() {
                    handle_frame(&String::from_utf8_lossy(&line), &conn, &shared);
                }
                break;
            }
            Ok(buf) => buf,
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted =>
            {
                // Read timeout tick. Connections stay open through the
                // drain (in-flight frames still get typed 503s) and close
                // once the workers have answered the whole backlog.
                if shared.drained() || conn.is_dead() {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        let (chunk_len, terminated) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i, true),
            None => (buf.len(), false),
        };
        if !discarding {
            if line.len() + chunk_len > MAX_FRAME_LEN {
                shared.obs().counter(names::SERVE_REJECTED_MALFORMED).inc();
                conn.send(error_frame(
                    0,
                    &WireError::bad_request(format!("frame exceeds {MAX_FRAME_LEN} bytes")),
                ));
                line.clear();
                discarding = true;
            } else {
                line.extend_from_slice(&buf[..chunk_len]);
            }
        }
        reader.consume(chunk_len + usize::from(terminated));
        if terminated {
            if discarding {
                discarding = false;
            } else {
                let text = String::from_utf8_lossy(&line).into_owned();
                if !text.trim().is_empty() {
                    handle_frame(&text, &conn, &shared);
                }
            }
            line.clear();
        }
    }
    shared.live_connections.fetch_sub(1, Ordering::Relaxed);
}

/// Parses and dispatches one frame.
fn handle_frame<C: Classifier>(line: &str, conn: &Arc<Conn>, shared: &Shared<C>) {
    let obs = shared.obs();
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(err) => {
            obs.counter(names::SERVE_REJECTED_MALFORMED).inc();
            conn.send(error_frame(parse_frame_id(line), &err));
            return;
        }
    };
    match request {
        // Admin frames act on the server only from loopback peers, unless
        // the operator opted in.
        Request::Shutdown { id }
        | Request::Metrics { id, .. }
        | Request::Stats { id }
        | Request::Snapshot { id }
        | Request::Trace { id, .. }
            if !admin_permitted(conn.peer_loopback, shared.config.allow_remote_shutdown) =>
        {
            obs.counter(names::SERVE_REJECTED_FORBIDDEN).inc();
            conn.send(error_frame(id, &WireError::forbidden()));
        }
        Request::Ping { id } => {
            let uptime_secs = shared.monitor.started.elapsed().as_secs();
            let (entries, _) = shared.cluster.warm_totals();
            let tenants = monitor::tenant_stats(shared);
            conn.send(pong_frame(
                id,
                uptime_secs,
                env!("CARGO_PKG_VERSION"),
                entries as usize,
                &tenants,
            ));
        }
        Request::Shutdown { id } => {
            // Close first: a client that has seen the ack can rely on
            // every later explain bouncing with 503.
            shared.trigger_shutdown();
            conn.send(shutdown_frame(id));
        }
        Request::Metrics { id, format } => {
            obs.counter(names::SERVE_SCRAPES).inc();
            let snapshot = obs.snapshot();
            let body = match format {
                MetricsFormat::Prometheus => snapshot.to_prometheus(),
                MetricsFormat::Json => snapshot.to_json(),
            };
            conn.send(metrics_frame(id, format, &body));
        }
        Request::Stats { id } => {
            obs.counter(names::SERVE_SCRAPES).inc();
            conn.send(stats_frame(id, &monitor::stats_summary(shared)));
        }
        Request::Snapshot { id } => {
            if !shared.cluster.persists() {
                conn.send(error_frame(id, &WireError::snapshots_disabled()));
                return;
            }
            obs.counter(names::PERSIST_SNAPSHOTS_REQUESTED).inc();
            // The monitor thread does the write (single snapshot writer);
            // it wakes within one poll tick of this flag.
            shared.snapshot_requested.store(true, Ordering::Relaxed);
            let path = match &shared.config.snapshot_out {
                Some(path) => path.to_string_lossy().into_owned(),
                // Multi-tenant: one file per tenant under the manifest's
                // snapshot_dir.
                None => "<per-tenant>".to_string(),
            };
            conn.send(snapshot_frame(id, &path));
        }
        Request::Trace { id, query, format } => {
            // Counted apart from serve.scrapes: trace fetches are debug
            // traffic, not metrics-plane load.
            obs.counter(names::SERVE_TRACE_FETCHES).inc();
            let Some(traces) = &shared.traces else {
                conn.send(error_frame(id, &WireError::tracing_disabled()));
                return;
            };
            let stats = TraceStoreStats {
                len: traces.store.len() as u64,
                retained: traces.store.retained(),
                dropped: traces.store.dropped(),
                evicted: traces.store.evicted(),
            };
            match query {
                TraceQuery::ById(trace_id) => match traces.store.get(trace_id) {
                    Some(trace) => conn.send(trace_frame(id, &trace, format)),
                    None => {
                        conn.send(error_frame(id, &WireError::trace_not_found(trace_id)));
                    }
                },
                TraceQuery::Slowest(n) => {
                    conn.send(traces_frame(id, &traces.store.slowest(n), stats));
                }
                TraceQuery::Errors => {
                    conn.send(traces_frame(id, &traces.store.errors(), stats));
                }
            }
        }
        Request::Explain {
            id,
            row,
            deadline_ms,
            tenant,
        } => {
            if shared.shutting_down() {
                obs.counter(names::SERVE_REJECTED_SHUTDOWN).inc();
                conn.send(error_frame(id, &WireError::shutting_down()));
                return;
            }
            // Route first: the row bound and quota are per-tenant.
            // `resolve` counts `tenancy.unknown_tenant` itself; the miss
            // is a routing 404, not malformed input.
            let Some(tidx) = shared.cluster.resolve(tenant.as_deref()) else {
                let name = tenant.as_deref().unwrap_or_default();
                conn.send(error_frame(id, &WireError::unknown_tenant(name)));
                return;
            };
            let n_rows = shared.cluster.n_rows(tidx);
            if row >= n_rows {
                obs.counter(names::SERVE_REJECTED_MALFORMED).inc();
                conn.send(error_frame(id, &WireError::row_out_of_range(row, n_rows)));
                return;
            }
            // Quota gate: every admitted request holds one in-flight slot
            // until a worker answers it (release in `Shared::finish`).
            if !shared.cluster.try_admit(tidx) {
                let quota = shared.cluster.quota(tidx).unwrap_or(0);
                conn.send(error_frame(
                    id,
                    &WireError::tenant_over_quota(shared.cluster.name(tidx), quota),
                ));
                return;
            }
            let enqueued = Instant::now();
            let pending = Pending {
                conn: Arc::clone(conn),
                frame_id: id,
                tenant: tidx,
                row,
                request_id: shared.next_request_id.fetch_add(1, Ordering::Relaxed),
                enqueued,
                deadline: deadline_ms.map(|ms| enqueued + Duration::from_millis(ms)),
                trace: shared.traces.as_ref().map(TracePlane::mint),
            };
            match shared.queue.push(pending) {
                Ok(()) => {
                    obs.counter(names::SERVE_REQUESTS).inc();
                    obs.gauge(names::SERVE_QUEUE_DEPTH)
                        .set(shared.queue.len() as u64);
                }
                Err((rejected, PushError::Full)) => {
                    shared.cluster.release(rejected.tenant);
                    obs.counter(names::SERVE_REJECTED_OVERLOAD).inc();
                    reject_traced(
                        shared,
                        &rejected,
                        &WireError::overloaded(shared.config.queue_capacity),
                    );
                }
                Err((rejected, PushError::Closed)) => {
                    shared.cluster.release(rejected.tenant);
                    obs.counter(names::SERVE_REJECTED_SHUTDOWN).inc();
                    reject_traced(shared, &rejected, &WireError::shutting_down());
                }
            }
        }
    }
}

/// Whether an admin frame (`shutdown`, `metrics`, `stats`, `trace`) may
/// act on the server: always from loopback peers, from remote ones only
/// when the operator opted in.
fn admin_permitted(peer_loopback: bool, allow_remote_shutdown: bool) -> bool {
    peer_loopback || allow_remote_shutdown
}

/// Nanoseconds from `t0` to `t`, saturating both at zero (clock reads
/// race) and at `u64::MAX`.
fn ns_since(t0: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

/// Answers a request that dies before reaching an engine — refused by
/// the queue (429/503) or past its deadline at pickup (408) — with an
/// error frame and, when traced, retains a minimal error trace:
/// admission is where trace ids are minted, so even never-explained
/// requests stay debuggable.
fn reject_traced<C: Classifier>(shared: &Shared<C>, rejected: &Pending, err: &WireError) {
    let trace_id = rejected.trace.map(|ctx| ctx.trace_id);
    // Offer before sending so a fetch issued right after the error frame
    // never races the store insert.
    if let (Some(traces), Some(ctx)) = (&shared.traces, rejected.trace) {
        let total_ns = ns_since(rejected.enqueued, Instant::now());
        traces
            .store
            .offer(assemble_trace(shared, rejected, ctx, total_ns, None));
    }
    rejected
        .conn
        .send(error_frame_traced(rejected.frame_id, err, trace_id));
}

/// What a worker measured while handling one request, handed to
/// [`assemble_trace`].
struct Handled<'a> {
    /// The request's pickup number.
    batch_id: u64,
    /// When the worker picked the request up and when it finished with
    /// it — the `batch` span.
    picked: Instant,
    done: Instant,
    /// Wall time of the tenant's cold start, on the one request whose
    /// worker ran it: a `coldstart` stage from `picked`.
    coldstart: Option<Duration>,
    /// The engine's stage spans ([`TupleWorker::stages`]).
    stages: &'a [StageSpan],
    quarantined: bool,
    degraded: bool,
}

/// Index of the `batch` span engine stages parent under (0 is the root
/// `request` span, 1 the `queue` span).
const BATCH_SPAN: u32 = 2;

/// Builds one finished [`RequestTrace`], its zero point the request's
/// admission: `queue` is admission → pickup and `batch` the worker's
/// handling of the request, with the engine's stage spans under it (the
/// names predate the worker pool; consumers read them by name). A
/// request no worker `handled` is an error trace that queued for its
/// whole life. Every offset is clamped so children nest within their
/// parents even under clock-read jitter.
fn assemble_trace<C: Classifier>(
    shared: &Shared<C>,
    pending: &Pending,
    ctx: TraceContext,
    total_ns: u64,
    handled: Option<Handled<'_>>,
) -> RequestTrace {
    let t0 = pending.enqueued;
    let queue_ns = handled
        .as_ref()
        .map_or(total_ns, |h| ns_since(t0, h.picked).min(total_ns));
    let span = |name, parent, start_ns, dur_ns| TraceSpan {
        name,
        parent,
        start_ns,
        dur_ns,
    };
    let mut trace = RequestTrace {
        trace_id: ctx.trace_id,
        request_id: pending.request_id,
        row: pending.row as u64,
        batch_id: None,
        // Only when the cluster actually is multi-tenant, so
        // single-tenant traces keep the pre-tenancy schema.
        tenant: shared
            .cluster
            .multi()
            .then(|| Arc::clone(shared.cluster.name(pending.tenant))),
        // request + queue + batch + coldstart + the engine's three stages.
        spans: Vec::with_capacity(7),
        counters: TraceCounters::default(),
        error: true,
        quarantined: false,
        degraded: false,
        total_ns,
    };
    trace.spans.push(span("request", None, 0, total_ns));
    trace.spans.push(span("queue", Some(0), 0, queue_ns));
    if let Some(h) = handled {
        let start = queue_ns;
        let end = ns_since(t0, h.done).clamp(start, total_ns);
        debug_assert_eq!(trace.spans.len(), BATCH_SPAN as usize);
        trace.spans.push(span("batch", Some(0), start, end - start));
        let mut stage = |name, at: Instant, dur: Duration| {
            let stage_start = ns_since(t0, at).clamp(start, end);
            let stage_dur = u64::try_from(dur.as_nanos())
                .unwrap_or(u64::MAX)
                .min(end - stage_start);
            trace
                .spans
                .push(span(name, Some(BATCH_SPAN), stage_start, stage_dur));
        };
        if let Some(wall) = h.coldstart {
            stage("coldstart", h.picked, wall);
        }
        for s in h.stages {
            trace.counters.absorb(&s.counters);
            stage(s.name, s.start, s.dur);
        }
        trace.batch_id = Some(h.batch_id);
        (trace.error, trace.quarantined, trace.degraded) =
            (h.quarantined, h.quarantined, h.degraded);
    }
    trace
}

impl<C: Classifier> Shared<C> {
    /// The request's tenant slot, materializing the tenant on this
    /// worker when it is cold (`Some(ColdStart)`). `None` means another
    /// worker is mid-start on the tenant: the request was parked and will
    /// come back through the queue once that start is done — this worker
    /// is free for other tenants meanwhile.
    fn warm_slot(
        &self,
        pending: Pending,
    ) -> Option<(Pending, Arc<WarmSlot<C>>, Option<ColdStart>)> {
        let tenant = pending.tenant;
        // Warm already, the common case: a lock-free phase read, then the
        // registry's slot lock, which only an eviction sweep ever holds
        // for long (and eviction refuses tenants with admitted requests).
        if self.cluster.lifecycle(tenant) == Lifecycle::Warm {
            if let Some(slot) = self.cluster.slot(tenant) {
                return Some((pending, slot, None));
            }
        }
        {
            let mut gate = self.gates[tenant]
                .lock()
                .expect("no worker panics holding a gate");
            if gate.warming {
                gate.parked.push(pending);
                return None;
            }
            gate.warming = true;
        }
        // Warm by now if another worker's start finished between the
        // phase read and the gate; `ensure_warm` then just returns it.
        let (slot, cold) = self.cluster.ensure_warm(tenant);
        let parked = {
            let mut gate = self.gates[tenant]
                .lock()
                .expect("no worker panics holding a gate");
            gate.warming = false;
            std::mem::take(&mut gate.parked)
        };
        self.queue.requeue(parked);
        Some((pending, slot, cold))
    }

    /// Closes out one answered request: frees its quota slot, counts it,
    /// and runs the `refresh_every` schedule.
    fn finish(&self, tenant: usize) {
        self.cluster.release(tenant);
        let served = self.served.fetch_add(1, Ordering::SeqCst) + 1;
        let every = self.config.refresh_every;
        if every > 0 && served.is_multiple_of(every) {
            // Refresh every materialized tenant; cold ones have nothing
            // to refresh.
            for idx in 0..self.cluster.len() {
                if let Some(slot) = self.cluster.slot(idx) {
                    slot.engine.refresh();
                }
            }
        }
    }
}

/// A worker's context on one tenant's engine, keyed by engine identity:
/// a tenant re-materialized after an eviction is a new engine and gets a
/// new context. The `Weak` pins the old allocation, so its address
/// cannot be reused meanwhile.
type EngineContext<C> = Option<(Weak<WarmEngine<C>>, TupleWorker)>;

fn context_on<'a, C: Classifier>(
    cached: &'a mut EngineContext<C>,
    engine: &Arc<WarmEngine<C>>,
) -> &'a mut TupleWorker {
    if !cached
        .as_ref()
        .is_some_and(|(of, _)| std::ptr::eq(of.as_ptr(), Arc::as_ptr(engine)))
    {
        *cached = Some((Arc::downgrade(engine), engine.worker()));
    }
    &mut cached.as_mut().expect("filled above").1
}

/// One pool thread's long-lived state: the metric handles it records
/// into on every request, and per tenant its context on the engine it
/// last explained with.
struct Worker<C: Classifier> {
    pickups: Counter,
    pickup_size: ValueHistogram,
    /// Workers handling a request right now (`serve.batch_inflight`).
    busy: Gauge,
    queue_depth: Gauge,
    queue_wait: Histogram,
    latency: Histogram,
    /// Indexed like the registry's tenants.
    contexts: Vec<EngineContext<C>>,
}

impl<C: Classifier> Worker<C> {
    fn new(shared: &Shared<C>) -> Worker<C> {
        let obs = shared.obs();
        Worker {
            pickups: obs.counter(names::SERVE_BATCHES),
            pickup_size: obs.value_histogram(names::SERVE_BATCH_SIZE),
            busy: obs.gauge(names::SERVE_BATCH_INFLIGHT),
            queue_depth: obs.gauge(names::SERVE_QUEUE_DEPTH),
            queue_wait: obs.histogram(names::SERVE_QUEUE_WAIT),
            latency: obs.histogram(names::SERVE_REQUEST_LATENCY),
            contexts: (0..shared.cluster.len()).map(|_| None).collect(),
        }
    }

    /// Counts one pickup — the unit the batching-era metrics now measure:
    /// `serve.batches` pickups, `serve.batch_size` one sample of 1 each,
    /// `serve.queue_wait` admission → this pickup.
    fn picked_up(&self, pending: &Pending, picked: Instant) {
        self.pickups.inc();
        self.pickup_size.record(1);
        self.queue_wait
            .record(picked.saturating_duration_since(pending.enqueued));
    }

    /// Does the whole of one request on this thread: deadline check, warm
    /// slot (or park), explain, serialize, send, release.
    fn handle(&mut self, shared: &Shared<C>, pending: Pending) {
        let picked = Instant::now();
        // A deadline that passed while queued gets a 408 frame and never
        // reaches the engine.
        if pending.deadline.is_some_and(|d| d < picked) {
            self.picked_up(&pending, picked);
            shared.obs().counter(names::SERVE_DEADLINE_EXPIRED).inc();
            reject_traced(shared, &pending, &WireError::deadline_expired());
            shared.finish(pending.tenant);
            return;
        }
        let Some((pending, slot, cold)) = shared.warm_slot(pending) else {
            return;
        };
        self.picked_up(&pending, picked);
        let batch_id = shared.next_batch_id.fetch_add(1, Ordering::Relaxed);
        self.busy.inc();

        let trace_id = pending.trace.map(|ctx| ctx.trace_id);
        let epoch = slot.engine.epoch();
        let context = context_on(&mut self.contexts[pending.tenant], &slot.engine);
        let request = WarmRequest {
            row: pending.row,
            request_id: pending.request_id,
            trace: trace_id,
        };
        let outcome = slot.engine.explain_request(request, context);
        let (frame, quarantined, degraded) = match outcome {
            WarmOutcome::Ok {
                explanation,
                degraded,
            } => (
                explanation_frame(
                    pending.frame_id,
                    pending.row,
                    &explanation,
                    degraded,
                    epoch,
                    trace_id,
                ),
                false,
                degraded,
            ),
            WarmOutcome::Failed(failure) => {
                shared.obs().counter(names::SERVE_QUARANTINED).inc();
                (
                    error_frame_traced(
                        pending.frame_id,
                        &WireError::quarantined(failure.kind, &failure.message),
                        trace_id,
                    ),
                    true,
                    false,
                )
            }
        };
        let done = Instant::now();
        let total = done.saturating_duration_since(pending.enqueued);
        match trace_id {
            Some(id) => self.latency.record_traced(total, id),
            None => self.latency.record(total),
        }
        // Offer before sending: once a client sees the trace id in its
        // response frame, a fetch on the same connection must not race
        // the store insert.
        if let (Some(traces), Some(ctx)) = (&shared.traces, pending.trace) {
            let total_ns = u64::try_from(total.as_nanos()).unwrap_or(u64::MAX);
            let handled = Handled {
                batch_id,
                picked,
                done,
                coldstart: cold.map(|c| c.wall),
                stages: context.stages(),
                quarantined,
                degraded,
            };
            traces.store.offer(assemble_trace(
                shared,
                &pending,
                ctx,
                total_ns,
                Some(handled),
            ));
        }
        pending.conn.send(frame);
        self.busy.dec();
        shared.finish(pending.tenant);
    }
}

/// One pool thread: takes requests one at a time until the queue closes
/// and drains. The last worker out has seen the backlog fully answered
/// and flags the drain.
fn worker_loop<C: Classifier>(shared: Arc<Shared<C>>) {
    let mut worker = Worker::new(&shared);
    while let Some(pending) = shared.queue.pop() {
        worker.queue_depth.set(shared.queue.len() as u64);
        worker.handle(&shared, pending);
    }
    if shared.workers_alive.fetch_sub(1, Ordering::SeqCst) == 1 {
        // Flag it for the smoke test's clean-drain assertion.
        worker.queue_depth.set(0);
        shared.obs().gauge(names::SERVE_DRAINED).set(1);
        shared.drained.store(true, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admin_frames_are_loopback_only_unless_opted_in() {
        assert!(admin_permitted(true, false));
        assert!(admin_permitted(true, true));
        assert!(!admin_permitted(false, false));
        assert!(admin_permitted(false, true));
    }
}
