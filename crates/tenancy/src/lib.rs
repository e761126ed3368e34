//! # shahin-tenancy — multi-tenant serve cluster
//!
//! One `shahin-serve` listener, N tenants: each tenant is a (dataset,
//! model, explainer, [`shahin::BatchConfig`]) tuple with its own warm
//! perturbation repository, declared in a JSON [`manifest`] and managed
//! FaaS-style by the [`registry`] — materialized lazily on first
//! request (a counted, traced *cold start*, hydrating classifier-free
//! from a per-tenant snapshot when one is readable), kept warm under a
//! global memory budget, and evicted LRU-idle with a final at-evict
//! snapshot so re-admission never touches the classifier.
//!
//! Within a tenant, a consistent-hash [`shard::ShardMap`] over each warm
//! row's frozen-itemset signature ([`shahin::WarmEngine::row_signature`])
//! partitions rows so that those sharing materialized perturbations land
//! in the same shard. It is library API: the serve workers pull from one
//! shared queue and do not route by it. Sharding is pure routing either
//! way: engines are bit-identical under any request→worker assignment
//! (per-tuple seeding depends only on the global row index), which
//! `tests/shard_identity.rs` proptests.
//!
//! The crate is deliberately serve-agnostic — it knows engines,
//! snapshots, and metrics, not sockets — so the lifecycle is unit- and
//! property-testable without a listener. `shahin-serve` layers the wire
//! protocol (tenant field, typed 404/429 frames, per-tenant stats) on
//! top.

pub mod manifest;
pub mod registry;
pub mod shard;

pub use manifest::{TenantManifest, TenantSpec};
pub use registry::{
    ColdStart, EngineFactory, EvictRefused, Lifecycle, LifecyclePolicy, TenantConfig,
    TenantRegistry, TenantStatus, WarmSlot,
};
pub use shard::{ShardMap, DEFAULT_VNODES};
