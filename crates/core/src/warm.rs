//! A long-lived, warm explanation engine for online serving.
//!
//! Every offline driver in this crate rebuilds the perturbation
//! repository per invocation and throws it away — exactly backwards for a
//! service answering a stream of explain requests. [`WarmEngine`] primes
//! the repository once over a *warm set* (the rows the service can be
//! asked about), then explains requests for those rows — one at a time
//! ([`WarmEngine::explain_request`], the serve workers' entry) or in
//! offline batches ([`WarmEngine::explain`]) — against the resident
//! [`PerturbationStore`] and lock-striped [`SharedAnchorCaches`], so the
//! materialization cost amortizes across requests instead of within one
//! batch.
//!
//! # Determinism
//!
//! The engine reproduces the offline [`crate::ShahinBatch`] drivers
//! bit-for-bit: the store is materialized by the same `prepare(..)` with
//! the same `(config, seed)`, and each request goes through the same
//! per-tuple [`crate::kernel`] with the tuple's RNG stream derived from
//! its *global* warm-set row index via [`crate::per_tuple_seed`] — never
//! from its position inside a batch. A row therefore gets the same
//! LIME/SHAP explanation no matter which worker thread picks the request
//! up, how many run, or when the request arrives (Anchor rules are stable
//! for crisp classifiers; its invocation counts race beyond one worker,
//! as in the offline parallel driver).
//!
//! # Refresh epochs
//!
//! [`WarmEngine::refresh`] rebuilds the store (same seed — bit-identical
//! contents) and bumps the provenance epoch, mirroring the streaming
//! driver's refresh rounds; the serve workers call it every
//! `refresh_every` answered requests to bound staleness once warm sets
//! become mutable.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin_explain::ExplainContext;
use shahin_fim::MatchScratch;
use shahin_model::{Classifier, CountingClassifier};
use shahin_tabular::{Dataset, DiscreteTable};

use crate::anchor_cache::SharedAnchorCaches;
use crate::batch::{estimate_base_value_guarded, ShahinBatch};
use crate::config::BatchConfig;
use crate::kernel::{Kernel, Pool, Tuple, TupleWorker};
use crate::metrics::TupleFailure;
use crate::obs::{names, register_standard, MetricsRegistry, ProvenanceCtx};
use crate::parallel::in_chunks;
use crate::quarantine::TupleOutcome;
use crate::runner::{ExplainerKind, Explanation};
use crate::snapshot::{
    Dec, Enc, SnapshotError, SnapshotReader, SnapshotWriter, TAG_CACHES, TAG_META, TAG_STORE,
};
use crate::store::PerturbationStore;

/// The former name of [`ExplainerKind`] — the explainer a [`WarmEngine`]
/// serves — kept because the `benchmark/` package still names it.
pub type WarmExplainer = ExplainerKind;

/// One explain request addressed to a warm engine: a *global* row index
/// into the warm set, plus the serving request id stamped onto the
/// tuple's provenance record.
#[derive(Clone, Copy, Debug)]
pub struct WarmRequest {
    /// Row index into the engine's warm set (`0..n_rows()`).
    pub row: usize,
    /// Serving request id for provenance tagging.
    pub request_id: u64,
    /// Trace id of the request's [`shahin_obs::RequestTrace`], if the
    /// serve layer is tracing it. When set, the engine records per-stage
    /// [`crate::StageSpan`]s — `retrieve`, `classify`, `explain` — into
    /// the [`TupleWorker`] it was handed ([`TupleWorker::stages`]), which
    /// the serve worker folds into the request's span tree. `None` keeps
    /// the engine-side tracing cost at one branch per stage.
    pub trace: Option<u64>,
}

/// Outcome of one warm-served request.
#[derive(Clone, Debug)]
pub enum WarmOutcome {
    /// Explained; `degraded` mirrors the offline drivers' degraded flag
    /// (the resilience boundary absorbed incidents for this tuple).
    Ok {
        /// The explanation.
        explanation: Explanation,
        /// Explained under duress (retries absorbed, outputs sanitized).
        degraded: bool,
    },
    /// A panic unwound out of the tuple; it is quarantined and no other
    /// request is affected.
    Failed(TupleFailure),
}

/// One SplitMix64-style mixing step, folding `v` into the running hash.
fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The snapshot header's config fingerprint: a digest of everything the
/// warm state's *contents* depend on — the batch config (excluding
/// `n_threads`, which never changes results), the prime seed, the warm
/// set's shape, and which explainer the engine serves. Hydrating under a
/// different fingerprint would serve answers from the wrong state, so
/// [`WarmEngine::prime_from_snapshot`] rejects the mismatch up front.
fn snapshot_fingerprint(
    config: &BatchConfig,
    explainer: &ExplainerKind,
    warm: &Dataset,
    n_attrs: usize,
    seed: u64,
) -> u64 {
    let mut h = 0x5348_4148_494E_5753u64;
    for v in [
        config.min_support.to_bits(),
        config.max_itemset_len as u64,
        config.max_itemsets as u64,
        config.tau as u64,
        config.cache_budget_bytes as u64,
        u64::from(config.auto_tau),
        // Where the miner and match-engine selectors were mixed in; both
        // had one value left, so existing snapshots keep their digest.
        0,
        0,
        seed,
        warm.n_rows() as u64,
        n_attrs as u64,
    ] {
        h = mix(h, v);
    }
    for b in explainer.name().bytes() {
        h = mix(h, u64::from(b));
    }
    h
}

/// Store + dictionary that a refresh swaps atomically.
struct WarmState {
    table: DiscreteTable,
    store: PerturbationStore,
}

/// The decoded, fully-validated contents of a snapshot — everything
/// hydration needs beyond what the caller already holds.
struct SnapshotParts {
    base: f64,
    store: PerturbationStore,
    caches: SharedAnchorCaches,
}

/// Opens, validates, and decodes a snapshot against the serving
/// configuration, borrowing everything — a rejection leaves the caller's
/// inputs intact for a cold-start fallback.
fn load_snapshot_parts(
    config: &BatchConfig,
    explainer: &ExplainerKind,
    n_attrs: usize,
    warm: &Dataset,
    seed: u64,
    reg: &MetricsRegistry,
    bytes: &[u8],
) -> Result<SnapshotParts, SnapshotError> {
    let expected = snapshot_fingerprint(config, explainer, warm, n_attrs, seed);
    let mut r = SnapshotReader::open(bytes, expected)?;
    let meta = r.section(TAG_META, "meta section")?;
    let mut d = Dec::new(meta, "meta section");
    let snap_seed = d.u64()?;
    let base = d.f64()?;
    let name = d.str()?;
    let n_rows = d.u64()?;
    let snap_attrs = d.u64()?;
    d.finish()?;
    // The fingerprint already binds these; re-checking the decoded
    // values guards against fingerprint collisions and writer bugs.
    if snap_seed != seed
        || name != explainer.name()
        || n_rows != warm.n_rows() as u64
        || snap_attrs != n_attrs as u64
    {
        return Err(SnapshotError::Corrupt {
            context: "meta disagrees with the serving configuration",
        });
    }
    if !base.is_finite() {
        return Err(SnapshotError::Corrupt {
            context: "non-finite SHAP base value",
        });
    }
    let store_payload = r.section(TAG_STORE, "store section")?;
    let caches_payload = r.section(TAG_CACHES, "anchor cache section")?;
    let store = PerturbationStore::load_snapshot(store_payload)?;
    let caches = SharedAnchorCaches::load_snapshot(caches_payload, reg)?;
    Ok(SnapshotParts {
        base,
        store,
        caches,
    })
}

/// A primed, resident explanation engine (see the module docs).
pub struct WarmEngine<C: Classifier> {
    shahin: ShahinBatch,
    ctx: ExplainContext,
    clf: CountingClassifier<C>,
    warm: Dataset,
    /// The served explainer, its Anchor arm wired to the engine's registry.
    explainer: ExplainerKind,
    caches: SharedAnchorCaches,
    seed: u64,
    /// SHAP base value, estimated once at prime time (0.5 otherwise).
    base: f64,
    state: RwLock<WarmState>,
    epoch: AtomicU64,
    obs: MetricsRegistry,
    /// Tenant this engine serves under (`None` outside a multi-tenant
    /// cluster); stamped onto every provenance record the engine emits.
    tenant: Option<Arc<str>>,
}

impl<C: Classifier> WarmEngine<C> {
    /// Builds the engine and materializes the repository over `warm` —
    /// the same preparation the offline drivers run per batch, paid once.
    pub fn prime(
        config: BatchConfig,
        explainer: ExplainerKind,
        ctx: ExplainContext,
        clf: CountingClassifier<C>,
        warm: Dataset,
        seed: u64,
        reg: &MetricsRegistry,
    ) -> WarmEngine<C> {
        register_standard(reg);
        let shahin = ShahinBatch::new(config).with_obs(reg);
        let mut rng = StdRng::seed_from_u64(seed);
        let prep = shahin.prepare(&ctx, &clf, &warm, explainer.n_target(), seed, &mut rng);
        let base = estimate_base_value_guarded(&explainer, &ctx, &clf, &mut rng, reg);
        WarmEngine {
            shahin,
            ctx,
            clf,
            warm,
            explainer: explainer.with_obs(reg),
            caches: SharedAnchorCaches::with_obs(reg),
            seed,
            base,
            state: RwLock::new(WarmState {
                table: prep.table,
                store: prep.store,
            }),
            epoch: AtomicU64::new(0),
            obs: reg.clone(),
            tenant: None,
        }
    }

    /// Rows in the warm set; valid request rows are `0..n_rows()`.
    pub fn n_rows(&self) -> usize {
        self.warm.n_rows()
    }

    /// Completed refresh rounds (the provenance epoch of the next tuple).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Resolved worker count ([`BatchConfig::resolved_n_threads`]) —
    /// the chunk count of [`WarmEngine::explain`], and the size of the
    /// worker pool a single-engine server starts.
    pub fn n_workers(&self) -> usize {
        self.shahin.config.resolved_n_threads()
    }

    /// Total classifier invocations through this engine's classifier
    /// (materialization + explanations).
    pub fn invocations(&self) -> u64 {
        self.clf.invocations()
    }

    /// The registry this engine records into (the serve layer shares it
    /// for its `serve.*` metrics).
    pub fn obs(&self) -> &MetricsRegistry {
        &self.obs
    }

    /// Labels this engine with the tenant it serves; every provenance
    /// record it emits from then on carries the name. The tenancy
    /// registry applies this between materialization and the first
    /// request — single-tenant servers never set it, so their lineage
    /// schema is unchanged.
    pub fn set_tenant(&mut self, tenant: &str) {
        self.tenant = Some(Arc::from(tenant));
    }

    /// The tenant label, if one was set.
    pub fn tenant(&self) -> Option<&Arc<str>> {
        self.tenant.as_ref()
    }

    /// A stable signature of the frozen itemsets warm row `row` is
    /// contained in: the SplitMix64 fold of each matched itemset's
    /// `(attr, code)` items. Rows matching the same itemset family hash
    /// identically, so a consistent-hash shard map built on these
    /// signatures routes reuse-compatible rows to the same worker —
    /// reuse locality survives sharding. Containment ignores
    /// materialization state (`matching_all`, not `matching`), so the
    /// signature is stable across refreshes and LRU churn, and the
    /// lookup records no `store.*` accounting.
    pub fn row_signature(&self, row: usize) -> u64 {
        let state = self.state.read();
        let mut scratch = MatchScratch::new();
        Self::signature_of(&state, row, &mut scratch)
    }

    /// [`WarmEngine::row_signature`] for the whole warm set in one
    /// read-lock acquisition — what the tenancy layer builds its per-row
    /// shard table from at materialization time.
    pub fn row_signatures(&self) -> Vec<u64> {
        let state = self.state.read();
        let mut scratch = MatchScratch::new();
        (0..self.warm.n_rows())
            .map(|row| Self::signature_of(&state, row, &mut scratch))
            .collect()
    }

    fn signature_of(state: &WarmState, row: usize, scratch: &mut MatchScratch) -> u64 {
        let codes = state.table.row(row);
        let matched = state.store.matching_all(&codes, scratch);
        let mut h = 0x5348_5244_5349_4721u64;
        for &id in &matched {
            for item in state.store.itemset(id).items() {
                h = mix(h, (u64::from(item.attr) << 32) | u64::from(item.code));
            }
        }
        mix(h, matched.len() as u64)
    }

    /// Itemset entries resident in the warm perturbation store right
    /// now (briefly takes the state read lock; the serve monitor samples
    /// this into the `serve.warm_entries` gauge).
    pub fn store_entries(&self) -> usize {
        self.state.read().store.len()
    }

    /// Bytes resident in the warm perturbation store right now (sampled
    /// into `serve.warm_bytes`).
    pub fn store_bytes(&self) -> usize {
        self.state.read().store.used_bytes()
    }

    /// Rebuilds the store with the prime seed (bit-identical contents,
    /// so served explanations are epoch-invariant) and bumps the epoch.
    pub fn refresh(&self) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let prep = self.shahin.prepare(
            &self.ctx,
            &self.clf,
            &self.warm,
            self.explainer.n_target(),
            self.seed,
            &mut rng,
        );
        {
            let mut state = self.state.write();
            state.table = prep.table;
            state.store = prep.store;
        }
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.obs.counter(names::SERVE_REFRESHES).inc();
    }

    /// Writes a checksummed snapshot of the engine's warm state to `path`
    /// (atomically: temp file + fsync + rename, so a crash mid-write never
    /// corrupts the last good snapshot). The state read lock is held only
    /// while the store is dumped to an in-memory buffer — serving stalls
    /// for the dump, not for the disk. Returns the snapshot size in bytes.
    pub fn write_snapshot(&self, path: &Path) -> Result<u64, SnapshotError> {
        let bytes = self.snapshot_bytes();
        shahin_obs::write_atomic(path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// The serialized snapshot (header + checksummed sections) as an
    /// in-memory buffer; [`WarmEngine::write_snapshot`] persists it.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let fingerprint = snapshot_fingerprint(
            &self.shahin.config,
            &self.explainer,
            &self.warm,
            self.ctx.n_attrs(),
            self.seed,
        );
        let mut meta = Enc::new();
        meta.u64(self.seed);
        meta.f64(self.base);
        meta.str(self.explainer.name());
        meta.u64(self.warm.n_rows() as u64);
        meta.u64(self.ctx.n_attrs() as u64);
        let store_payload = self.state.read().store.dump_snapshot();
        let caches_payload = self.caches.dump_snapshot();
        let mut w = SnapshotWriter::new(fingerprint);
        w.section(TAG_META, &meta.buf);
        w.section(TAG_STORE, &store_payload);
        w.section(TAG_CACHES, &caches_payload);
        w.finish()
    }

    /// Builds a warm engine by hydrating `bytes` — a snapshot a donor
    /// engine wrote under the *same* `(config, explainer, warm, seed)` —
    /// instead of re-mining and re-materializing. No classifier is
    /// invoked: the store's samples, the Anchor caches' evidence, and the
    /// SHAP base value all come from the snapshot, and the discretized
    /// warm table is recomputed from `warm` (an RNG-free pure function,
    /// identical to what `prime` builds). The hydrated engine serves
    /// bit-identical explanations to the donor.
    ///
    /// Every validation failure is a typed [`SnapshotError`]; callers log
    /// it, count `persist.load_rejected`, and fall back to a cold
    /// [`WarmEngine::prime`].
    #[allow(clippy::too_many_arguments)]
    pub fn prime_from_snapshot(
        config: BatchConfig,
        explainer: ExplainerKind,
        ctx: ExplainContext,
        clf: CountingClassifier<C>,
        warm: Dataset,
        seed: u64,
        reg: &MetricsRegistry,
        bytes: &[u8],
    ) -> Result<WarmEngine<C>, SnapshotError> {
        let parts =
            load_snapshot_parts(&config, &explainer, ctx.n_attrs(), &warm, seed, reg, bytes)?;
        Ok(Self::assemble_hydrated(
            config, explainer, ctx, clf, warm, seed, reg, parts,
        ))
    }

    /// The crash-tolerant startup path: hydrates from `bytes` when it
    /// validates, and otherwise degrades to a cold [`WarmEngine::prime`]
    /// — never a panic, never a dead process. Returns the engine plus
    /// the typed rejection if the snapshot was refused (the caller's log
    /// line). `persist.loads_ok` / `persist.load_rejected` are counted
    /// here so every caller reports recovery the same way; passing
    /// `None` (no snapshot offered) counts neither.
    #[allow(clippy::too_many_arguments)]
    pub fn prime_warm_or_cold(
        config: BatchConfig,
        explainer: ExplainerKind,
        ctx: ExplainContext,
        clf: CountingClassifier<C>,
        warm: Dataset,
        seed: u64,
        reg: &MetricsRegistry,
        bytes: Option<&[u8]>,
    ) -> (WarmEngine<C>, Option<SnapshotError>) {
        let rejection = match bytes {
            None => None,
            Some(bytes) => {
                match load_snapshot_parts(
                    &config,
                    &explainer,
                    ctx.n_attrs(),
                    &warm,
                    seed,
                    reg,
                    bytes,
                ) {
                    Ok(parts) => {
                        reg.counter(names::PERSIST_LOADS_OK).inc();
                        let eng = Self::assemble_hydrated(
                            config, explainer, ctx, clf, warm, seed, reg, parts,
                        );
                        return (eng, None);
                    }
                    Err(e) => {
                        reg.counter(names::PERSIST_LOAD_REJECTED).inc();
                        Some(e)
                    }
                }
            }
        };
        (
            Self::prime(config, explainer, ctx, clf, warm, seed, reg),
            rejection,
        )
    }

    /// Builds the engine around fully-validated snapshot parts. (A
    /// rejection before this point leaves at most idempotently-registered
    /// metric names behind, which a cold prime registers anyway.)
    #[allow(clippy::too_many_arguments)]
    fn assemble_hydrated(
        config: BatchConfig,
        explainer: ExplainerKind,
        ctx: ExplainContext,
        clf: CountingClassifier<C>,
        warm: Dataset,
        seed: u64,
        reg: &MetricsRegistry,
        parts: SnapshotParts,
    ) -> WarmEngine<C> {
        let SnapshotParts {
            base,
            mut store,
            caches,
        } = parts;
        register_standard(reg);
        store.attach_obs(reg);
        let table = ctx.discretizer().encode_dataset(&warm);
        let shahin = ShahinBatch::new(config).with_obs(reg);
        WarmEngine {
            shahin,
            ctx,
            clf,
            warm,
            explainer: explainer.with_obs(reg),
            caches,
            seed,
            base,
            state: RwLock::new(WarmState { table, store }),
            epoch: AtomicU64::new(0),
            obs: reg.clone(),
            tenant: None,
        }
    }

    /// A fresh per-worker context: resolve once per worker thread, reuse
    /// across every request that thread explains on this engine.
    pub fn worker(&self) -> TupleWorker {
        let prov = ProvenanceCtx::new(&self.obs, "Shahin-Serve", self.explainer.name())
            .with_tenant(self.tenant.clone());
        TupleWorker::new(&self.obs, prov)
    }

    /// Explains a batch of requests against the warm repository — the
    /// offline form of [`WarmEngine::explain_request`]. Outcomes come
    /// back in request order; a quarantined tuple fails only its own
    /// slot. Runs on the calling thread for one request or
    /// `n_threads = 1`, otherwise on [`BatchConfig::n_threads`] scoped
    /// workers claiming blocks of requests (`parallel::in_chunks`). Rows
    /// must be `< n_rows()` (this panics on out-of-range rows).
    pub fn explain(&self, requests: &[WarmRequest]) -> Vec<WarmOutcome> {
        in_chunks(requests.len(), self.n_workers(), |range| {
            let mut worker = self.worker();
            requests[range]
                .iter()
                .map(|&req| self.explain_request(req, &mut worker))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Explains one request on the calling thread — the serve workers'
    /// entry point — through the per-tuple kernel over the resident
    /// store. Everything is keyed on the *global* warm-set row, so the
    /// explanation is bit-identical to the offline run no matter which
    /// thread runs it, when, or beside which other requests. A panic
    /// unwinding out of the tuple quarantines it.
    pub fn explain_request(&self, req: WarmRequest, worker: &mut TupleWorker) -> WarmOutcome {
        let state = self.state.read();
        worker.prov.tag(req.request_id, req.trace);
        let kernel = Kernel {
            explainer: &self.explainer,
            ctx: &self.ctx,
            clf: &self.clf,
            caches: &self.caches,
            base: self.base,
            seed: self.seed,
        };
        let codes = state.table.row(req.row);
        let instance = self.warm.instance(req.row);
        let tuple = Tuple {
            row: req.row,
            codes: &codes,
            instance: &instance,
            epoch: self.epoch.load(Ordering::Relaxed),
        };
        let store = &state.store;
        let fetch = |scratch: &mut MatchScratch| {
            Pool::store(store, store.matching_read_stats(&codes, scratch))
        };
        match kernel.explain(tuple, fetch, worker) {
            TupleOutcome::Ok(explanation) => WarmOutcome::Ok {
                explanation,
                degraded: false,
            },
            TupleOutcome::Degraded(explanation) => WarmOutcome::Ok {
                explanation,
                degraded: true,
            },
            TupleOutcome::Failed(failure) => WarmOutcome::Failed(failure),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::TraceCounters;
    use shahin_explain::{LimeExplainer, LimeParams};
    use shahin_model::MajorityClass;
    use shahin_tabular::{train_test_split, DatasetPreset};

    fn setup() -> (ExplainContext, CountingClassifier<MajorityClass>, Dataset) {
        let (data, labels) = DatasetPreset::Recidivism.spec(0.05).generate(5);
        let mut rng = StdRng::seed_from_u64(5);
        let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
        let ctx = ExplainContext::fit(&split.train, 300, &mut rng);
        let clf = CountingClassifier::new(MajorityClass::fit(&split.train_labels));
        let rows: Vec<usize> = (0..30.min(split.test.n_rows())).collect();
        (ctx, clf, split.test.select(&rows))
    }

    fn lime() -> LimeExplainer {
        LimeExplainer::new(LimeParams {
            n_samples: 60,
            ..Default::default()
        })
    }

    fn engine(n_threads: usize) -> (WarmEngine<MajorityClass>, Dataset, ExplainContext) {
        let (ctx, clf, warm) = setup();
        let cfg = BatchConfig {
            n_threads: Some(n_threads),
            ..Default::default()
        };
        let reg = MetricsRegistry::new();
        let eng = WarmEngine::prime(
            cfg,
            ExplainerKind::Lime(lime()),
            ctx.clone(),
            clf,
            warm.clone(),
            11,
            &reg,
        );
        (eng, warm, ctx)
    }

    #[test]
    fn warm_engine_matches_offline_batch_parallel_for_any_micro_batching() {
        let (ctx, clf, warm) = setup();
        let offline = ShahinBatch::new(BatchConfig {
            n_threads: Some(2),
            ..Default::default()
        })
        .explain(&ctx, &clf, &warm, &ExplainerKind::Lime(lime()), 11, true)
        .into_weights();

        for n_threads in [1usize, 4] {
            let (eng, _, _) = engine(n_threads);
            // Shuffled rows, ragged micro-batches: results must only
            // depend on the global row index.
            let order: Vec<usize> = (0..warm.n_rows()).rev().collect();
            let mut served: Vec<Option<Explanation>> = vec![None; warm.n_rows()];
            for chunk in order.chunks(7) {
                let reqs: Vec<WarmRequest> = chunk
                    .iter()
                    .map(|&row| WarmRequest {
                        row,
                        request_id: row as u64,
                        trace: None,
                    })
                    .collect();
                for (req, out) in reqs.iter().zip(eng.explain(&reqs)) {
                    match out {
                        WarmOutcome::Ok { explanation, .. } => served[req.row] = Some(explanation),
                        WarmOutcome::Failed(f) => panic!("unexpected failure: {f:?}"),
                    }
                }
            }
            for (row, offline_w) in offline.explanations.iter().enumerate() {
                let w = served[row].as_ref().unwrap().weights().unwrap();
                assert_eq!(w, offline_w, "row {row}, {n_threads} threads");
            }
        }
    }

    #[test]
    fn single_requests_are_bit_identical_to_the_batch_form_in_any_order() {
        let (eng, warm, _) = engine(2);
        let reqs: Vec<WarmRequest> = (0..warm.n_rows())
            .map(|row| WarmRequest {
                row,
                request_id: row as u64,
                trace: None,
            })
            .collect();
        let weights_of = |outs: Vec<WarmOutcome>| -> Vec<shahin_explain::FeatureWeights> {
            outs.into_iter()
                .map(|o| match o {
                    WarmOutcome::Ok { explanation, .. } => explanation.weights().unwrap().clone(),
                    WarmOutcome::Failed(f) => panic!("{f:?}"),
                })
                .collect()
        };
        let baseline = weights_of(eng.explain(&reqs));
        // One long-lived worker context, rows in reverse: what a serve
        // worker does with whatever the queue hands it.
        let mut worker = eng.worker();
        let mut served = weights_of(
            reqs.iter()
                .rev()
                .map(|&req| eng.explain_request(req, &mut worker))
                .collect(),
        );
        served.reverse();
        assert_eq!(served, baseline, "pickup order changed results");
    }

    #[test]
    fn one_chunk_batches_run_on_the_calling_thread() {
        struct ThreadProbe(std::sync::Mutex<Vec<std::thread::ThreadId>>);
        impl Classifier for ThreadProbe {
            fn predict_proba(&self, _inst: &[shahin_tabular::Feature]) -> f64 {
                self.0.lock().unwrap().push(std::thread::current().id());
                0.7
            }
        }
        let (ctx, _clf, warm) = setup();
        let probe = Arc::new(ThreadProbe(std::sync::Mutex::new(Vec::new())));
        let prime = |n_threads: usize| {
            WarmEngine::prime(
                BatchConfig {
                    n_threads: Some(n_threads),
                    ..Default::default()
                },
                // Past what the store pools, so every row calls the classifier.
                ExplainerKind::Lime(LimeExplainer::new(LimeParams {
                    n_samples: 400,
                    ..Default::default()
                })),
                ctx.clone(),
                CountingClassifier::new(Arc::clone(&probe)),
                warm.clone(),
                11,
                &MetricsRegistry::new(),
            )
        };
        let reqs: Vec<WarmRequest> = (0..4)
            .map(|row| WarmRequest {
                row,
                request_id: row as u64,
                trace: None,
            })
            .collect();
        let me = std::thread::current().id();
        // n_threads = 1 with several requests, and one request at 4 threads.
        for (eng, reqs) in [(prime(1), &reqs[..]), (prime(4), &reqs[..1])] {
            probe.0.lock().unwrap().clear();
            eng.explain(reqs);
            let seen = probe.0.lock().unwrap();
            assert!(!seen.is_empty(), "the probe must have been called");
            assert!(
                seen.iter().all(|&t| t == me),
                "a one-chunk batch spawned a thread"
            );
        }
    }

    #[test]
    fn row_signatures_are_stable_and_refresh_invariant() {
        let (eng, warm, _) = engine(1);
        let sigs = eng.row_signatures();
        assert_eq!(sigs.len(), warm.n_rows());
        for (row, &sig) in sigs.iter().enumerate() {
            assert_eq!(eng.row_signature(row), sig, "row {row} signature unstable");
        }
        assert!(
            sigs.iter().collect::<std::collections::HashSet<_>>().len() > 1,
            "signatures should separate rows with different itemset families"
        );
        eng.refresh();
        assert_eq!(eng.row_signatures(), sigs, "refresh changed signatures");
    }

    #[test]
    fn repeated_requests_for_one_row_are_identical_and_refresh_preserves_results() {
        let (eng, _, _) = engine(2);
        let req = [WarmRequest {
            row: 3,
            request_id: 1,
            trace: None,
        }];
        let first = match &eng.explain(&req)[0] {
            WarmOutcome::Ok { explanation, .. } => explanation.weights().unwrap().clone(),
            WarmOutcome::Failed(f) => panic!("{f:?}"),
        };
        eng.refresh();
        assert_eq!(eng.epoch(), 1);
        let second = match &eng.explain(&req)[0] {
            WarmOutcome::Ok { explanation, .. } => explanation.weights().unwrap().clone(),
            WarmOutcome::Failed(f) => panic!("{f:?}"),
        };
        assert_eq!(first, second, "refresh must not change served results");
    }

    #[test]
    fn provenance_records_carry_request_ids_and_epochs() {
        use shahin_obs::ProvenanceSink;
        use std::sync::Arc;

        let (ctx, clf, warm) = setup();
        let reg = MetricsRegistry::new();
        let sink = Arc::new(ProvenanceSink::new());
        reg.attach_provenance_sink(Arc::clone(&sink));
        let eng = WarmEngine::prime(
            BatchConfig::default(),
            ExplainerKind::Lime(lime()),
            ctx,
            clf,
            warm,
            11,
            &reg,
        );
        let mut worker = eng.worker();
        let traced = WarmRequest {
            row: 0,
            request_id: 100,
            trace: Some(40),
        };
        eng.explain_request(traced, &mut worker);
        let stages = worker.stages().to_vec();
        let untraced = WarmRequest {
            row: 1,
            request_id: 101,
            trace: None,
        };
        eng.explain_request(untraced, &mut worker);
        assert!(worker.stages().is_empty(), "row 1 was untraced — no stages");
        let recs = sink.records();
        assert_eq!(recs.len(), 2);
        let requests: Vec<Option<u64>> = recs.iter().map(|r| r.request).collect();
        assert!(requests.contains(&Some(100)) && requests.contains(&Some(101)));
        for r in &recs {
            assert_eq!(&*r.method, "Shahin-Serve");
            assert_eq!(r.epoch, 0);
            assert!(r.to_json().contains("\"request\": "));
        }

        // The traced request's lineage joins against its trace id; the
        // untraced one carries none.
        let traced = recs.iter().find(|r| r.request == Some(100)).unwrap();
        assert_eq!(traced.trace_id, Some(40));
        let untraced = recs.iter().find(|r| r.request == Some(101)).unwrap();
        assert_eq!(untraced.trace_id, None);
        let names: Vec<&str> = stages.iter().map(|s| s.name).collect();
        assert_eq!(names, ["retrieve", "classify", "explain"]);
        let mut totals = TraceCounters::default();
        for s in &stages {
            totals.absorb(&s.counters);
        }
        assert_eq!(totals.invocations, traced.invocations);
        assert_eq!(totals.samples_reused, traced.samples_reused);
        assert_eq!(totals.samples_fresh, traced.samples_fresh);
        assert_eq!(totals.store_misses, traced.store_misses);
    }

    #[test]
    fn tracing_does_not_change_served_explanations() {
        let (eng, _, _) = engine(2);
        let mut worker = eng.worker();
        let mut weights_of = |request_id: u64, trace: Option<u64>| {
            let req = WarmRequest {
                row: 5,
                request_id,
                trace,
            };
            match eng.explain_request(req, &mut worker) {
                WarmOutcome::Ok { explanation, .. } => explanation.weights().unwrap().clone(),
                WarmOutcome::Failed(f) => panic!("{f:?}"),
            }
        };
        let w_bare = weights_of(1, None);
        let w_traced = weights_of(2, Some(9));
        assert_eq!(w_bare, w_traced, "tracing must not perturb explanations");
        let stages = worker.stages();
        assert_eq!(stages.len(), 3);
        assert!(stages.iter().all(|s| s.dur <= s.start.elapsed()));
    }

    fn explain_all(
        eng: &WarmEngine<MajorityClass>,
        n_rows: usize,
    ) -> Vec<shahin_explain::FeatureWeights> {
        let reqs: Vec<WarmRequest> = (0..n_rows)
            .map(|row| WarmRequest {
                row,
                request_id: row as u64,
                trace: None,
            })
            .collect();
        eng.explain(&reqs)
            .into_iter()
            .map(|out| match out {
                WarmOutcome::Ok { explanation, .. } => explanation.weights().unwrap().clone(),
                WarmOutcome::Failed(f) => panic!("{f:?}"),
            })
            .collect()
    }

    #[test]
    fn hydrated_engine_is_bit_identical_to_its_donor_at_any_worker_count() {
        let (ctx, clf, warm) = setup();
        let reg = MetricsRegistry::new();
        let donor = WarmEngine::prime(
            BatchConfig {
                n_threads: Some(2),
                ..Default::default()
            },
            ExplainerKind::Lime(lime()),
            ctx.clone(),
            clf,
            warm.clone(),
            11,
            &reg,
        );
        // Touch LRU state so non-trivial clocks ride along in the dump.
        let donor_served = explain_all(&donor, warm.n_rows());
        let bytes = donor.snapshot_bytes();
        let mut explain_invocations: Vec<u64> = Vec::new();

        for n_threads in [1usize, 2, 8] {
            // setup() is deterministic, so this classifier is identical to
            // the donor's (hydration itself never invokes it).
            let (_, fresh_clf, _) = setup();
            let reg = MetricsRegistry::new();
            let eng = WarmEngine::prime_from_snapshot(
                BatchConfig {
                    n_threads: Some(n_threads),
                    ..Default::default()
                },
                ExplainerKind::Lime(lime()),
                ctx.clone(),
                fresh_clf,
                warm.clone(),
                11,
                &reg,
                &bytes,
            )
            .expect("snapshot hydrates");
            assert_eq!(
                eng.invocations(),
                0,
                "hydration must not invoke the classifier"
            );
            assert_eq!(eng.store_entries(), donor.store_entries());
            assert_eq!(eng.store_bytes(), donor.store_bytes());
            let served = explain_all(&eng, warm.n_rows());
            assert_eq!(
                served, donor_served,
                "hydrated explanations differ at {n_threads} workers"
            );
            explain_invocations.push(eng.invocations());
            // The hydrated engine re-dumps to the donor's exact bytes.
            assert_eq!(eng.snapshot_bytes(), bytes);
        }
        assert!(
            explain_invocations.windows(2).all(|w| w[0] == w[1]),
            "explain invocations must be worker-count invariant: {explain_invocations:?}"
        );
    }

    #[test]
    fn hydration_rejects_every_injected_corruption_class() {
        use crate::snapshot::fault::{corrupt, Corruption};

        let (ctx, clf, warm) = setup();
        let reg = MetricsRegistry::new();
        let donor = WarmEngine::prime(
            BatchConfig::default(),
            ExplainerKind::Lime(lime()),
            ctx.clone(),
            clf,
            warm.clone(),
            11,
            &reg,
        );
        let bytes = donor.snapshot_bytes();
        let hydrate = |damaged: &[u8], seed: u64| {
            WarmEngine::prime_from_snapshot(
                BatchConfig::default(),
                ExplainerKind::Lime(lime()),
                ctx.clone(),
                CountingClassifier::new(MajorityClass::fit(&[1])),
                warm.clone(),
                seed,
                &MetricsRegistry::new(),
                damaged,
            )
        };
        for seed in 0..10u64 {
            for class in Corruption::ALL {
                let damaged = corrupt(&bytes, class, seed);
                let err = match hydrate(&damaged, 11) {
                    Ok(_) => panic!("{class:?} seed {seed} was accepted"),
                    Err(e) => e,
                };
                match class {
                    Corruption::StaleVersion => assert_eq!(err.kind(), "wrong_version"),
                    Corruption::TornWrite | Corruption::Truncation => assert!(
                        matches!(err.kind(), "truncated" | "bad_magic" | "crc_mismatch"),
                        "{class:?} seed {seed} -> {}",
                        err.kind()
                    ),
                    Corruption::BitFlip => assert!(
                        matches!(err.kind(), "crc_mismatch" | "truncated" | "corrupt"),
                        "{class:?} seed {seed} -> {}",
                        err.kind()
                    ),
                }
            }
        }
        // A different prime seed is a different config fingerprint: valid
        // bytes, wrong state — rejected before any payload is read.
        let err = hydrate(&bytes, 12)
            .err()
            .expect("seed skew must be rejected");
        assert_eq!(err.kind(), "fingerprint_mismatch");
        // And the undamaged snapshot still hydrates.
        assert!(hydrate(&bytes, 11).is_ok());
    }

    #[test]
    fn write_snapshot_persists_atomically_and_round_trips() {
        let (ctx, clf, warm) = setup();
        let reg = MetricsRegistry::new();
        let donor = WarmEngine::prime(
            BatchConfig::default(),
            ExplainerKind::Lime(lime()),
            ctx.clone(),
            clf,
            warm.clone(),
            11,
            &reg,
        );
        let dir = std::env::temp_dir().join(format!("shahin_warm_snap_{}", std::process::id()));
        let path = dir.join("nested/warm.snap");
        let written = donor.write_snapshot(&path).expect("snapshot writes");
        let on_disk = std::fs::read(&path).expect("snapshot file exists");
        assert_eq!(on_disk.len() as u64, written);
        assert_eq!(on_disk, donor.snapshot_bytes());
        let eng = WarmEngine::prime_from_snapshot(
            BatchConfig::default(),
            ExplainerKind::Lime(lime()),
            ctx,
            CountingClassifier::new(MajorityClass::fit(&[1])),
            warm,
            11,
            &MetricsRegistry::new(),
            &on_disk,
        )
        .expect("on-disk snapshot hydrates");
        assert_eq!(eng.store_entries(), donor.store_entries());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantined_rows_fail_only_their_own_slot() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;

        // Healthy while the store is primed; panics for a window of calls
        // armed afterwards, so a prefix of the micro-batch's rows is
        // quarantined while later rows explain normally.
        struct TrapAfter {
            calls: AtomicU64,
            trap_at: AtomicU64,
        }
        impl Classifier for TrapAfter {
            fn predict_proba(&self, _inst: &[shahin_tabular::Feature]) -> f64 {
                let n = self.calls.fetch_add(1, Ordering::Relaxed);
                let trap_at = self.trap_at.load(Ordering::Relaxed);
                // A panic unwinds out on a row's first call, so each
                // quarantined row consumes one call of this window.
                if n >= trap_at && n < trap_at + 3 {
                    panic!("trap sprung");
                }
                0.7
            }
        }

        let (ctx, _clf, warm) = setup();
        let trap = Arc::new(TrapAfter {
            calls: AtomicU64::new(0),
            trap_at: AtomicU64::new(u64::MAX),
        });
        let reg = MetricsRegistry::new();
        let eng = WarmEngine::prime(
            BatchConfig {
                n_threads: Some(1),
                ..Default::default()
            },
            ExplainerKind::Lime(lime()),
            ctx,
            CountingClassifier::new(Arc::clone(&trap)),
            warm.clone(),
            11,
            &reg,
        );
        trap.trap_at
            .store(trap.calls.load(Ordering::Relaxed), Ordering::Relaxed);
        let reqs: Vec<WarmRequest> = (0..6)
            .map(|row| WarmRequest {
                row,
                request_id: row as u64,
                trace: None,
            })
            .collect();
        let outs = eng.explain(&reqs);
        assert_eq!(outs.len(), reqs.len());
        let failed = outs
            .iter()
            .filter(|o| matches!(o, WarmOutcome::Failed(_)))
            .count();
        assert!(failed >= 1, "the armed trap must quarantine a row");
        assert!(
            failed < reqs.len(),
            "rows after the trap window must survive"
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counter(names::RESILIENCE_TUPLES_FAILED), failed as u64);
    }
}
