//! `shahin-serve`: an online explanation service over a warm
//! perturbation repository.
//!
//! The offline drivers in `shahin` amortize explanation cost *within* a
//! batch; a service answering a stream of explain requests wants to
//! amortize it *across* requests. That reuse lives in the engine's
//! resident, read-only repository — requests share nothing else — so the
//! service never holds one request back for another. This crate puts a std-only TCP front
//! end — newline-delimited JSON, no external dependencies — over a
//! [`shahin::WarmEngine`]:
//!
//! - [`protocol`]: the wire format — request parsing with typed error
//!   frames (bad frames never kill the connection),
//! - [`queue`]: the bounded admission queue with 429-style backpressure,
//! - [`server`]: acceptor + per-connection readers + a fixed pool of
//!   persistent workers, each taking one request off the shared queue
//!   the moment it is there and answering it on its own thread against
//!   the warm [`shahin::PerturbationStore`] and Anchor caches,
//! - [`monitor`]: the server-owned monitor thread feeding the live
//!   observability plane — per-tick gauges, the windowed aggregator
//!   behind the `stats` admin frame, `slo.*` burn-rate gauges, atomic
//!   `--metrics-out` rewrites, and checksummed `--snapshot-out`
//!   warm-state snapshots (periodic, on-demand, and at drain),
//! - [`signal`]: SIGINT/SIGTERM watching for graceful drains, SIGUSR1
//!   for on-demand snapshots.
//!
//! One listener can also front a whole *tenant cluster*: build a
//! [`shahin_tenancy::TenantRegistry`] from a manifest and pass it to
//! [`Server::start_cluster`]. Requests then route by their `tenant`
//! field (absent → the default tenant, unknown → typed 404), each
//! tenant's requests admit against its own in-flight quota (over →
//! typed 429 with the tenant named in the frame), and tenants
//! materialize lazily on first request — cold starts hydrate
//! classifier-free from per-tenant snapshots when available, idle and
//! over-budget tenants are evicted LRU-first with an at-evict snapshot.
//! Single-tenant [`Server::start`] wraps the engine as a one-tenant
//! cluster, keeping every frame schema byte-compatible.
//!
//! Served explanations are bit-identical to the offline
//! `Method::BatchParallel` driver for the same seed and warm set — see
//! the determinism notes on [`shahin::WarmEngine`].
//!
//! # Quick start
//!
//! ```no_run
//! use std::sync::Arc;
//! use shahin::{BatchConfig, ExplainerKind, MetricsRegistry, WarmEngine};
//! use shahin_serve::{ServeConfig, Server};
//! # let (ctx, clf, warm): (shahin_explain::ExplainContext,
//! #     shahin_model::CountingClassifier<shahin_model::MajorityClass>,
//! #     shahin_tabular::Dataset) = unimplemented!();
//!
//! let reg = MetricsRegistry::new();
//! let engine = Arc::new(WarmEngine::prime(
//!     BatchConfig::default(),
//!     ExplainerKind::Lime(Default::default()),
//!     ctx, clf, warm, 7, &reg,
//! ));
//! let handle = Server::start(engine, ServeConfig::default()).unwrap();
//! println!("listening on {}", handle.addr());
//! // ... clients connect, send {"id":1,"method":"explain","row":0} ...
//! handle.shutdown();
//! let served = handle.wait();
//! println!("drained cleanly ({served} requests served)");
//! ```

pub mod monitor;
#[cfg(test)]
mod pool_tests;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod signal;

pub use monitor::write_atomic;
pub use protocol::{parse_request, MetricsFormat, Request, StatsSummary, TenantStat, WireError};
pub use queue::{Admission, PushError};
pub use server::{ServeConfig, Server, ServerHandle, MAX_FRAME_LEN};
