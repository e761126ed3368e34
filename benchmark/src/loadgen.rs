//! The load generator: one process, real loopback TCP, the wire protocol
//! `shahin-serve` speaks.
//!
//! **Open loop**: one sender thread paces a precomputed schedule (sleep,
//! then spin for the last stretch) and one receiver thread matches
//! responses by their echoed `id`, both over a single pipelined
//! connection. Every latency runs from the request's *due* time, so time
//! the generator ran late is inside the latency, never hidden.
//!
//! **Closed loop**: `connections × window` requests outstanding; a new
//! request leaves only when a response arrives.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::inputs::Arrival;

/// A request unanswered this long after the last send counts as failed.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// One request as the client saw it. Times are nanoseconds since the
/// generator's `origin`.
#[derive(Clone, Debug)]
pub struct RequestRow {
    pub id: u64,
    pub tenant: usize,
    pub row: usize,
    pub due_ns: u64,
    pub sent_ns: u64,
    /// `None`: no response within [`RESPONSE_TIMEOUT`].
    pub recv_ns: Option<u64>,
    /// The response was a success frame.
    pub ok: bool,
    pub trace_id: Option<u64>,
    /// Responses seen carrying this id (exactly one is correct).
    pub answers: u32,
}

impl RequestRow {
    /// Milliseconds from the due time to the response.
    pub fn latency_ms(&self) -> Option<f64> {
        self.recv_ns
            .map(|r| r.saturating_sub(self.due_ns) as f64 / 1e6)
    }

    /// Milliseconds the generator sent after the due time.
    pub fn lag_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// What one phase of load produced.
pub struct PhaseResult {
    pub rows: Vec<RequestRow>,
    /// Raw response lines of the requests `keep` selected.
    pub kept: HashMap<u64, String>,
    /// Responses whose id matched no request of the phase.
    pub unmatched: u64,
}

fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

fn frame(id: u64, row: usize, tenant: Option<&str>) -> String {
    match tenant {
        None => format!("{{\"id\": {id}, \"method\": \"explain\", \"row\": {row}}}\n"),
        Some(t) => {
            format!(
                "{{\"id\": {id}, \"method\": \"explain\", \"row\": {row}, \"tenant\": \"{t}\"}}\n"
            )
        }
    }
}

/// The unsigned integer following `key` in `line`.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let digits = rest.trim_start();
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// A response frame reduced to what the generator records.
struct Answer {
    id: u64,
    ok: bool,
    trace_id: Option<u64>,
}

fn parse_answer(line: &str) -> Option<Answer> {
    Some(Answer {
        id: field_u64(line, "\"id\":")?,
        ok: line.contains("\"ok\": true"),
        trace_id: field_u64(line, "\"trace_id\":"),
    })
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to the server under test");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    stream
}

/// What the receiver saw of one request.
#[derive(Clone, Copy, Default)]
struct Seen {
    recv_ns: Option<u64>,
    ok: bool,
    trace_id: Option<u64>,
    answers: u32,
}

/// Everything one receiver collected.
struct Received {
    /// Indexed by `id - id_base`.
    seen: Vec<Seen>,
    kept: HashMap<u64, String>,
    unmatched: u64,
}

/// Reads response lines until every request is answered, or
/// [`RESPONSE_TIMEOUT`] passes after `sending_done` was raised.
fn receive(
    stream: TcpStream,
    origin: Instant,
    id_base: u64,
    n: usize,
    sending_done: &AtomicBool,
    keep: &(dyn Fn(u64) -> bool + Sync),
    mut on_answer: impl FnMut(),
) -> Received {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream);
    let mut got = Received {
        seen: vec![Seen::default(); n],
        kept: HashMap::new(),
        unmatched: 0,
    };
    let mut answered = 0usize;
    let mut quiet_since: Option<Instant> = None;
    let mut line = String::new();
    while answered < n {
        match reader.read_line(&mut line) {
            Ok(0) => break, // server closed the connection
            Ok(_) if line.ends_with('\n') => {
                let now = ns_since(origin, Instant::now());
                quiet_since = None;
                match parse_answer(&line) {
                    Some(a) if a.id >= id_base && ((a.id - id_base) as usize) < n => {
                        let slot = &mut got.seen[(a.id - id_base) as usize];
                        slot.answers += 1;
                        if slot.answers == 1 {
                            slot.recv_ns = Some(now);
                            slot.ok = a.ok;
                            slot.trace_id = a.trace_id;
                            answered += 1;
                            if keep(a.id) {
                                got.kept.insert(a.id, line.trim_end().to_string());
                            }
                            on_answer();
                        }
                    }
                    _ => got.unmatched += 1,
                }
                line.clear();
            }
            // A partial line (timeout mid-frame): keep accumulating.
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                if sending_done.load(Ordering::Acquire) {
                    let since = *quiet_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= RESPONSE_TIMEOUT {
                        break;
                    }
                }
            }
            Err(_) => break,
        }
    }
    got
}

/// Joins what was sent with what came back. `sent[i]` is `(tenant, row,
/// due_ns, sent_ns)` of the request with id `id_base + i`.
fn phase_result(id_base: u64, sent: &[(usize, usize, u64, u64)], got: Received) -> PhaseResult {
    let rows = sent
        .iter()
        .zip(&got.seen)
        .enumerate()
        .map(|(i, (&(tenant, row, due_ns, sent_ns), seen))| RequestRow {
            id: id_base + i as u64,
            tenant,
            row,
            due_ns,
            sent_ns,
            recv_ns: seen.recv_ns,
            ok: seen.ok,
            trace_id: seen.trace_id,
            answers: seen.answers,
        })
        .collect();
    PhaseResult {
        rows,
        kept: got.kept,
        unmatched: got.unmatched,
    }
}

/// Open loop over one connection: request `i` of `arrivals` carries id
/// `id_base + i` and leaves at `start + due_ns`, whatever the server
/// does. `tenants[a.tenant]` is the wire name (`None`: no tenant field).
pub fn open_loop(
    addr: SocketAddr,
    arrivals: &[Arrival],
    tenants: &[Option<&str>],
    id_base: u64,
    origin: Instant,
    keep: &(dyn Fn(u64) -> bool + Sync),
) -> PhaseResult {
    let frames: Vec<String> = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| frame(id_base + i as u64, a.row, tenants[a.tenant]))
        .collect();
    let stream = connect(addr);
    let recv_stream = stream.try_clone().expect("clone the client socket");
    let sending_done = AtomicBool::new(false);
    // A little slack so the first request is not already late.
    let start = Instant::now() + Duration::from_millis(5);
    let start_ns = ns_since(origin, start);
    let mut sent: Vec<(usize, usize, u64, u64)> = arrivals
        .iter()
        .map(|a| (a.tenant, a.row, start_ns + a.due_ns, 0))
        .collect();

    let got = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let n = arrivals.len();
            receive(recv_stream, origin, id_base, n, &sending_done, keep, || {})
        });
        let mut out = &stream;
        for (i, a) in arrivals.iter().enumerate() {
            let due = start + Duration::from_nanos(a.due_ns);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                let left = due - now;
                if left > Duration::from_micros(300) {
                    std::thread::sleep(left - Duration::from_micros(200));
                } else {
                    std::hint::spin_loop();
                }
            }
            sent[i].3 = ns_since(origin, Instant::now());
            if out.write_all(frames[i].as_bytes()).is_err() {
                break; // the rest stay unanswered and count as failed
            }
        }
        sending_done.store(true, Ordering::Release);
        receiver.join().expect("receiver thread panicked")
    });
    phase_result(id_base, &sent, got)
}

/// Closed loop over one connection: `window` requests stay outstanding
/// until every row of `rows` is answered. A request's due time is the
/// moment its slot freed up. One connection, one client thread: with more,
/// the two cores' scheduling decides the rate, not the server.
pub fn closed_loop(
    addr: SocketAddr,
    rows: &[usize],
    tenant: Option<&str>,
    window: usize,
    id_base: u64,
    origin: Instant,
) -> PhaseResult {
    let stream = connect(addr);
    let recv_stream = stream.try_clone().expect("clone the client socket");
    // Nothing is sent after the last answer, so the quiet timeout may
    // start at once.
    let sending_done = AtomicBool::new(true);
    let mut sent: Vec<(usize, usize, u64, u64)> = Vec::with_capacity(rows.len());
    let mut send_next = || {
        if let Some(&row) = rows.get(sent.len()) {
            let now = ns_since(origin, Instant::now());
            let f = frame(id_base + sent.len() as u64, row, tenant);
            let _ = (&stream).write_all(f.as_bytes());
            sent.push((0, row, now, now));
        }
    };
    for _ in 0..window {
        send_next();
    }
    let got = receive(
        recv_stream,
        origin,
        id_base,
        rows.len(),
        &sending_done,
        &|_| false,
        &mut send_next,
    );
    phase_result(id_base, &sent, got)
}

/// One admin round trip on a fresh connection; returns the response line.
pub fn admin(addr: SocketAddr, request: &str) -> String {
    let mut stream = connect(addr);
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
        .write_all(format!("{request}\n").as_bytes())
        .expect("send admin frame");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("read admin response");
    line
}

/// Completed requests per second: the median over eight equal-count
/// slices of the completion timeline, so a stall in one slice does not
/// set the rate.
pub fn completion_rate(rows: &[RequestRow]) -> f64 {
    let mut done: Vec<u64> = rows
        .iter()
        .filter(|r| r.ok)
        .filter_map(|r| r.recv_ns)
        .collect();
    done.sort_unstable();
    let slices = 8.min(done.len() / 2).max(1);
    let per = done.len() / slices;
    if per < 2 {
        return 0.0;
    }
    let rates: Vec<f64> = (0..slices)
        .map(|s| {
            let (a, b) = (done[s * per], done[(s + 1) * per - 1]);
            (per - 1) as f64 / ((b - a).max(1) as f64 / 1e9)
        })
        .collect();
    crate::stats::median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_parse_by_key() {
        let line = "{\"id\": 17, \"ok\": true, \"row\": 3, \"weights\": [0.5], \"trace_id\": 99}";
        let a = parse_answer(line).unwrap();
        assert_eq!((a.id, a.ok, a.trace_id), (17, true, Some(99)));
        let err = "{\"id\": 4, \"ok\": false, \"code\": 429, \"error\": \"overloaded\"}";
        let a = parse_answer(err).unwrap();
        assert_eq!((a.id, a.ok, a.trace_id), (4, false, None));
        assert!(parse_answer("garbage").is_none());
    }

    #[test]
    fn frames_carry_the_tenant_only_when_named() {
        assert_eq!(
            frame(1, 2, None),
            "{\"id\": 1, \"method\": \"explain\", \"row\": 2}\n"
        );
        assert!(frame(1, 2, Some("hot")).contains("\"tenant\": \"hot\""));
    }

    #[test]
    fn completion_rate_is_a_median_of_slices() {
        // 1 000 completions, one per millisecond, with a 5 s stall in the
        // middle: the stall lands in one slice and the median ignores it.
        let rows: Vec<RequestRow> = (0..1000u64)
            .map(|i| RequestRow {
                id: i,
                tenant: 0,
                row: 0,
                due_ns: 0,
                sent_ns: 0,
                recv_ns: Some(i * 1_000_000 + if i >= 560 { 5_000_000_000 } else { 0 }),
                ok: true,
                trace_id: None,
                answers: 1,
            })
            .collect();
        let rate = completion_rate(&rows);
        assert!((rate - 1000.0).abs() < 10.0, "{rate}");
    }
}
