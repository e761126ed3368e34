//! Tier-1 smoke of the serving path (the crate-level suites under
//! `crates/serve/tests` are not part of the root `cargo test`): a
//! loopback server with two workers answers a pipelined burst whose ids
//! are out of order, every frame byte-identical to
//! `explanation_frame(WarmEngine::explain(row))`, and drains cleanly.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use shahin::obs::names;
use shahin::{BatchConfig, ExplainerKind, MetricsRegistry, WarmEngine, WarmOutcome, WarmRequest};
use shahin_explain::{ExplainContext, LimeExplainer, LimeParams};
use shahin_model::{CountingClassifier, MajorityClass};
use shahin_obs::json::Json;
use shahin_serve::protocol::explanation_frame;
use shahin_serve::{ServeConfig, Server};
use shahin_tabular::{train_test_split, DatasetPreset};

const REQUESTS: u64 = 200;

#[test]
fn pipelined_requests_are_served_byte_identically_and_drain_cleanly() {
    let (data, labels) = DatasetPreset::Recidivism.spec(0.05).generate(5);
    let mut rng = StdRng::seed_from_u64(5);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    let ctx = ExplainContext::fit(&split.train, 300, &mut rng);
    let clf = CountingClassifier::new(MajorityClass::fit(&split.train_labels));
    let warm = split.test.select(&(0..24).collect::<Vec<_>>());
    let n_rows = warm.n_rows() as u64;
    let reg = MetricsRegistry::new();
    let engine = Arc::new(WarmEngine::prime(
        BatchConfig {
            n_threads: Some(2),
            ..Default::default()
        },
        ExplainerKind::Lime(LimeExplainer::new(LimeParams {
            n_samples: 60,
            ..Default::default()
        })),
        ctx,
        clf,
        warm,
        11,
        &reg,
    ));
    let config = ServeConfig {
        poll_interval: Duration::from_millis(10),
        ..Default::default()
    };
    let handle = Server::start(Arc::clone(&engine), config).expect("binds loopback");

    let stream = TcpStream::connect(handle.addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut client = BufReader::new(stream);
    // The whole burst in one write; 77 is coprime to 200, so the ids are
    // a permutation that shares no order with the rows.
    let row_of = |id: u64| (id * 7) % n_rows;
    let burst: String = (0..REQUESTS)
        .map(|i| (i * 77) % REQUESTS)
        .map(|id| {
            format!(
                "{{\"id\": {id}, \"method\": \"explain\", \"row\": {}}}\n",
                row_of(id)
            )
        })
        .collect();
    client.get_mut().write_all(burst.as_bytes()).unwrap();

    let mut served: HashMap<u64, String> = HashMap::new();
    for _ in 0..REQUESTS {
        let mut line = String::new();
        client
            .read_line(&mut line)
            .expect("every request is answered");
        let frame = Json::parse(&line).expect("valid response frame");
        let id = frame
            .get("id")
            .and_then(Json::as_u64)
            .expect("frames echo their id");
        assert!(
            served.insert(id, line.trim_end().to_string()).is_none(),
            "id {id} answered twice"
        );
    }
    handle.shutdown();
    assert_eq!(handle.wait(), REQUESTS);
    let snap = reg.snapshot();
    assert_eq!(snap.gauge(names::SERVE_DRAINED), 1);
    assert_eq!(snap.counter(names::SERVE_REQUESTS), REQUESTS);

    for id in 0..REQUESTS {
        let line = &served[&id];
        let row = row_of(id) as usize;
        let request = WarmRequest {
            row,
            request_id: 0,
            trace: None,
        };
        let WarmOutcome::Ok {
            explanation,
            degraded,
        } = engine.explain(&[request]).remove(0)
        else {
            panic!("reference engine quarantined row {row}");
        };
        let trace_id = Json::parse(line)
            .unwrap()
            .get("trace_id")
            .and_then(Json::as_u64);
        let want = explanation_frame(id, row, &explanation, degraded, 0, trace_id);
        assert_eq!(
            line, &want,
            "id {id} (row {row}) differs from WarmEngine::explain"
        );
    }
}
