//! Worker-pool tests that need to pin the pool size (`Server::start_pool`
//! is crate-private: operators get `n_workers()` or the core count).
//! Both assert by what completes while something else is provably still
//! in flight — never by milliseconds.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use shahin::obs::names;
use shahin::{BatchConfig, ExplainerKind, MetricsRegistry, WarmEngine};
use shahin_explain::{ExplainContext, LimeExplainer, LimeParams};
use shahin_model::{Classifier, CountingClassifier, LatencyCost, MajorityClass};
use shahin_obs::json::Json;
use shahin_tabular::{train_test_split, DatasetPreset, Feature};
use shahin_tenancy::{LifecyclePolicy, TenantConfig, TenantRegistry};

use crate::{ServeConfig, Server, ServerHandle};

/// Instant until armed (so priming stays fast), then behind a
/// [`LatencyCost`]: every invocation sleeps.
struct Paced {
    slow: LatencyCost<MajorityClass>,
    armed: Arc<AtomicBool>,
}

impl Classifier for Paced {
    fn predict_proba(&self, inst: &[Feature]) -> f64 {
        if self.armed.load(Ordering::Relaxed) {
            self.slow.predict_proba(inst)
        } else {
            0.7
        }
    }
}

/// One tenant over a small Recidivism warm set. `armed` puts its
/// classifier behind `latency` per invocation; while `hold` is set its
/// cold start blocks before priming.
fn tenant(
    name: &str,
    n_samples: usize,
    latency: Duration,
    armed: &Arc<AtomicBool>,
    hold: &Arc<AtomicBool>,
) -> TenantConfig<Paced> {
    let (data, labels) = DatasetPreset::Recidivism.spec(0.05).generate(5);
    let mut rng = StdRng::seed_from_u64(5);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    let ctx = ExplainContext::fit(&split.train, 300, &mut rng);
    let warm = split.test.select(&(0..8).collect::<Vec<_>>());
    let reg = MetricsRegistry::new();
    let (armed, hold) = (Arc::clone(armed), Arc::clone(hold));
    TenantConfig {
        name: name.to_string(),
        n_rows: warm.n_rows(),
        quota: None,
        snapshot_path: None,
        warm_from: None,
        factory: Box::new(move |bytes| {
            while hold.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            WarmEngine::prime_warm_or_cold(
                BatchConfig::default(),
                ExplainerKind::Lime(LimeExplainer::new(LimeParams {
                    n_samples,
                    ..Default::default()
                })),
                ctx.clone(),
                CountingClassifier::new(Paced {
                    slow: LatencyCost::new(MajorityClass::fit(&[1, 1, 0]), latency),
                    armed: Arc::clone(&armed),
                }),
                warm.clone(),
                11,
                &reg,
                bytes,
            )
        }),
    }
}

fn start(
    tenants: Vec<TenantConfig<Paced>>,
    n_workers: usize,
) -> (
    ServerHandle<Paced>,
    Arc<TenantRegistry<Paced>>,
    MetricsRegistry,
) {
    let obs = MetricsRegistry::new();
    let cluster = Arc::new(TenantRegistry::new(
        tenants,
        0,
        LifecyclePolicy::default(),
        &obs,
    ));
    let config = ServeConfig {
        poll_interval: Duration::from_millis(10),
        ..Default::default()
    };
    let handle =
        Server::start_pool(Arc::clone(&cluster), config, n_workers).expect("binds loopback");
    (handle, cluster, obs)
}

fn connect(handle: &ServerHandle<Paced>) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(handle.addr()).expect("connects");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    BufReader::new(stream)
}

fn send(client: &mut BufReader<TcpStream>, id: u64, tenant: &str) {
    let frame = format!(
        "{{\"id\": {id}, \"method\": \"explain\", \"row\": 0, \"tenant\": \"{tenant}\"}}\n"
    );
    client.get_mut().write_all(frame.as_bytes()).unwrap();
}

/// Reads one response and asserts it is a served explanation.
fn expect_ok(client: &mut BufReader<TcpStream>) {
    let mut line = String::new();
    client.read_line(&mut line).expect("response arrives");
    let frame = Json::parse(&line).expect("valid response frame");
    assert_eq!(
        frame.get("ok").and_then(Json::as_bool),
        Some(true),
        "{frame:?}"
    );
}

/// Spins until `tenant` has `n` admitted requests in flight.
fn await_inflight(cluster: &TenantRegistry<Paced>, tenant: usize, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while cluster.inflight(tenant) < n {
        assert!(Instant::now() < deadline, "requests never got admitted");
        std::thread::yield_now();
    }
}

#[test]
fn a_slow_tenant_does_not_hold_up_a_hot_one() {
    let never = Arc::new(AtomicBool::new(false));
    let slow_armed = Arc::new(AtomicBool::new(false));
    // 400 samples is far past what the store pools, so an armed `slow`
    // request makes hundreds of 2 ms invocations — well over 50 ms.
    let (handle, cluster, _obs) = start(
        vec![
            tenant("hot", 60, Duration::ZERO, &never, &never),
            tenant("slow", 400, Duration::from_millis(2), &slow_armed, &never),
        ],
        2,
    );
    let mut hot = connect(&handle);
    let mut slow = connect(&handle);
    // Warm both tenants first: this test is about a slow *request*.
    send(&mut hot, 0, "hot");
    expect_ok(&mut hot);
    send(&mut slow, 0, "slow");
    expect_ok(&mut slow);
    slow_armed.store(true, Ordering::Relaxed);

    let completions: Arc<Mutex<Vec<&'static str>>> = Arc::default();
    send(&mut slow, 1, "slow");
    let t_slow = Instant::now();
    await_inflight(&cluster, 1, 1);
    let slow_done = {
        let completions = Arc::clone(&completions);
        std::thread::spawn(move || {
            expect_ok(&mut slow);
            completions.lock().unwrap().push("slow");
            t_slow.elapsed()
        })
    };
    // One worker is inside the slow request; the other keeps the hot
    // tenant moving, round trip after round trip.
    for id in 1..=8 {
        send(&mut hot, id, "hot");
        expect_ok(&mut hot);
        completions.lock().unwrap().push("hot");
    }
    let slow_took = slow_done.join().unwrap();
    assert!(
        slow_took >= Duration::from_millis(50),
        "slow request took only {slow_took:?}"
    );
    let order = completions.lock().unwrap();
    assert_eq!(order.len(), 9);
    assert_eq!(
        order.last(),
        Some(&"slow"),
        "every hot request must complete while the slow one is in flight: {order:?}"
    );
    drop(order);
    handle.shutdown();
    assert_eq!(handle.wait(), 11);
}

#[test]
fn a_cold_tenant_touched_from_many_connections_starts_once_and_parks_the_rest() {
    let never = Arc::new(AtomicBool::new(false));
    let hold = Arc::new(AtomicBool::new(true));
    let (handle, cluster, obs) = start(
        vec![
            tenant("hot", 60, Duration::ZERO, &never, &never),
            tenant("cold", 60, Duration::ZERO, &never, &hold),
        ],
        2,
    );
    let mut hot = connect(&handle);
    send(&mut hot, 0, "hot");
    expect_ok(&mut hot);

    // Four connections touch the cold tenant at once; its start cannot
    // finish while `hold` is set. One worker is inside the start. If the
    // other sat on the tenant's lock behind it, the pool would be gone…
    let mut cold: Vec<BufReader<TcpStream>> = (0..4).map(|_| connect(&handle)).collect();
    for (id, client) in cold.iter_mut().enumerate() {
        send(client, id as u64, "cold");
    }
    await_inflight(&cluster, 1, 4);
    // …but it parks those requests, so the hot tenant is still served
    // while the start is provably unfinished.
    for id in 1..=8 {
        send(&mut hot, id, "hot");
        expect_ok(&mut hot);
    }
    assert_eq!(
        obs.snapshot().counter(names::TENANCY_COLD_STARTS),
        1,
        "only `hot` so far"
    );

    hold.store(false, Ordering::Relaxed);
    for client in &mut cold {
        expect_ok(client);
    }
    handle.shutdown();
    assert_eq!(handle.wait(), 13);
    let snap = obs.snapshot();
    assert_eq!(
        snap.counter(names::TENANCY_COLD_STARTS),
        2,
        "one start per tenant"
    );
    assert_eq!(
        snap.counter(&names::tenant_metric("cold", "cold_starts")),
        1
    );
    assert_eq!(
        snap.counter(names::SERVE_BATCHES),
        13,
        "a parked request is picked up once"
    );
}
