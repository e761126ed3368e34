#!/usr/bin/env bash
# Smoke-checks the observability pipeline end to end: runs a small
# explanation batch through shahin-cli with --metrics-out and validates
# that the JSON dump carries every metric family the instrumentation
# promises (store hits/misses, per-shard Anchor cache counters, per-phase
# span durations, classifier latency histogram buckets). A second,
# parallel run with --trace-out/--provenance-out validates the Chrome
# trace-event export (required keys, monotonic timestamps, balanced B/E
# pairs per thread lane) and the provenance JSONL (required keys, one
# record per tuple, reused + fresh == tau, totals reconciling with the
# metrics snapshot).
#
# The final section smoke-tests the serving path: it starts
# `shahin-cli serve` in the background (with tracing at sample rate 1.0
# so every request's trace is retained), drives it with bench_serve in
# external mode, validates the live observability plane over the admin
# protocol (Prometheus exposition shape, JSON snapshot, windowed `stats`
# summary, extended `ping`, `trace` frames — well-formed span trees,
# durations nesting within parents, exemplar trace ids resolving),
# sends the admin shutdown frame, asserts the server drains cleanly,
# and validates the serve.* metric families plus the trace_id-carrying
# provenance JSONL in the server's output.
#
# The persistence drill then exercises the crash-safety path: a server
# with --snapshot-out takes periodic, admin-frame and SIGUSR1 snapshots
# under load; a copy of its snapshot is bit-flipped; a restart with the
# corrupted --warm-from must come up cold (typed rejection, counted
# under persist.load_rejected) and still serve, while a restart with
# the pristine snapshot must hydrate warm (persist.loads_ok, zero
# classifier invocations).
#
# The multi-tenant drill serves a 3-tenant manifest from one listener:
# requests route by the protocol's `tenant` field, tenants materialize
# lazily on first touch (tenancy.cold_starts), a quota-0 tenant answers
# 429 without materializing, an unknown tenant answers 404, idle
# tenants evict with an at-evict snapshot, and re-admission hydrates
# classifier-free. The tenancy.* aggregates must reconcile with the
# per-tenant tenant.<name>.* families, and provenance/traces must carry
# the tenant tag in multi-tenant mode while the single-tenant artifacts
# from the serve smoke above carry none.
#
# Knobs (all optional):
#   SHAHIN_CHECK_ROWS        synthetic dataset rows    (default 2000)
#   SHAHIN_CHECK_BATCH       tuples to explain         (default 60)
#   SHAHIN_CHECK_SERVE_REQS  serve smoke requests      (default 40)
set -euo pipefail
cd "$(dirname "$0")/.."

ROWS="${SHAHIN_CHECK_ROWS:-2000}"
BATCH="${SHAHIN_CHECK_BATCH:-60}"
SERVE_REQS="${SHAHIN_CHECK_SERVE_REQS:-40}"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

cargo build --release --bin shahin-cli
cargo build --release -p shahin-bench --bin bench_serve
CLI=target/release/shahin-cli

"$CLI" synth --preset census --rows "$ROWS" --out "$WORKDIR/census.csv"

# LIME exercises the perturbation store + fim/materialize/retrieve/surrogate
# spans and the classifier histogram; Anchor exercises the sharded caches.
"$CLI" explain --csv "$WORKDIR/census.csv" --label label --explainer lime \
    --method batch --batch-size "$BATCH" --metrics-out "$WORKDIR/lime.json"
"$CLI" explain --csv "$WORKDIR/census.csv" --label label --explainer anchor \
    --method batch --batch-size "$BATCH" --metrics-out "$WORKDIR/anchor.json"

python3 - "$WORKDIR/lime.json" "$WORKDIR/anchor.json" <<'PY'
import json, sys

def require(snap, path, kind, where):
    section = snap[kind]
    if path not in section:
        raise SystemExit(f"FAIL: {where}: missing {kind[:-1]} '{path}'")
    return section[path]

lime = json.load(open(sys.argv[1]))
anchor = json.load(open(sys.argv[2]))

for snap, where in ((lime, "lime"), (anchor, "anchor")):
    for section in ("counters", "gauges", "histograms", "value_histograms"):
        if section not in snap:
            raise SystemExit(f"FAIL: {where}: no '{section}' section")
    # Perturbation store traffic and footprint.
    for c in ("store.lookups", "store.hits", "store.misses", "store.samples_reused"):
        require(snap, c, "counters", where)
    if require(snap, "store.peak_bytes", "gauges", where) <= 0:
        raise SystemExit(f"FAIL: {where}: store.peak_bytes is zero")
    # Per-phase wall time: preparation spans must have fired exactly once,
    # retrieval once per tuple.
    for span in ("span.fim.mine", "span.materialize.fill", "span.retrieve.match"):
        h = require(snap, span, "histograms", where)
        if h["count"] == 0 or h["sum_ns"] == 0:
            raise SystemExit(f"FAIL: {where}: span '{span}' recorded nothing")
        if sum(b["count"] for b in h["buckets"]) != h["count"]:
            raise SystemExit(f"FAIL: {where}: '{span}' bucket counts != count")
    # Classifier invocation latency histogram with populated buckets.
    clf = require(snap, "classifier.predict", "histograms", where)
    if clf["count"] == 0 or not clf["buckets"]:
        raise SystemExit(f"FAIL: {where}: classifier.predict histogram empty")
    # The resilience family is pre-registered (all zero on a clean run).
    for c in ("resilience.retries", "resilience.transient_errors",
              "resilience.timeouts", "resilience.invalid_proba",
              "resilience.giveups", "resilience.breaker_opens",
              "resilience.breaker_short_circuits",
              "resilience.panics_isolated", "resilience.tuples_failed",
              "resilience.tuples_degraded"):
        if require(snap, c, "counters", where) != 0:
            raise SystemExit(f"FAIL: {where}: '{c}' nonzero without chaos")

# Explainer-specific families.
require(lime, "span.surrogate.fit", "histograms", "lime")
shard_hits = sum(
    v for k, v in anchor["counters"].items()
    if k.startswith("anchor.shard") and k.endswith(".hits")
)
shard_misses = sum(
    v for k, v in anchor["counters"].items()
    if k.startswith("anchor.shard") and k.endswith(".misses")
)
if "anchor.shard00.hits" not in anchor["counters"]:
    raise SystemExit("FAIL: anchor: per-shard counters not registered")
if shard_hits + shard_misses == 0:
    raise SystemExit("FAIL: anchor: shard caches saw no traffic")
require(anchor, "span.anchor.search", "histograms", "anchor")

print(f"OK: lime dump has {len(lime['counters'])} counters, "
      f"{len(lime['histograms'])} histograms")
print(f"OK: anchor shard caches: {shard_hits} hits / {shard_misses} misses")
print("metrics dump schema check passed")
PY

# Parallel run (two workers) with the full collection pipeline: the trace
# must show at least two worker lanes, the provenance exactly one record
# per explained tuple.
"$CLI" explain --csv "$WORKDIR/census.csv" --label label --explainer lime \
    --method par-2 --batch-size "$BATCH" \
    --metrics-out "$WORKDIR/par.json" \
    --trace-out "$WORKDIR/trace.json" \
    --provenance-out "$WORKDIR/prov.jsonl"

python3 - "$WORKDIR/trace.json" "$WORKDIR/prov.jsonl" "$WORKDIR/par.json" "$BATCH" <<'PY'
import json, sys

trace = json.load(open(sys.argv[1]))
prov_lines = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
metrics = json.load(open(sys.argv[3]))
batch = int(sys.argv[4])

# --- Chrome trace-event schema ---------------------------------------
events = trace.get("traceEvents")
if not isinstance(events, list) or not events:
    raise SystemExit("FAIL: trace: no 'traceEvents' array")
for e in events:
    for key in ("ph", "pid", "tid"):
        if key not in e:
            raise SystemExit(f"FAIL: trace: event missing '{key}': {e}")
    # E events close the innermost open B by nesting and carry no name.
    if e["ph"] in ("B", "i", "M") and "name" not in e:
        raise SystemExit(f"FAIL: trace: event missing 'name': {e}")
    if e["ph"] in ("B", "E", "i") and "ts" not in e:
        raise SystemExit(f"FAIL: trace: timed event missing 'ts': {e}")

# Exported timestamps are globally sorted and per-lane B/E pairs balance
# (every span that begins on a lane also ends on it, properly nested).
ts = [e["ts"] for e in events if e["ph"] in ("B", "E", "i")]
if ts != sorted(ts):
    raise SystemExit("FAIL: trace: timestamps are not monotonic")
depth = {}
for e in events:
    if e["ph"] == "B":
        depth[e["tid"]] = depth.get(e["tid"], 0) + 1
    elif e["ph"] == "E":
        depth[e["tid"]] = depth.get(e["tid"], 0) - 1
        if depth[e["tid"]] < 0:
            raise SystemExit(f"FAIL: trace: E without B on tid {e['tid']}")
if any(d != 0 for d in depth.values()):
    raise SystemExit(f"FAIL: trace: unbalanced B/E pairs: {depth}")
lanes = {e["tid"] for e in events if e["ph"] == "B"}
if len(lanes) < 2:
    raise SystemExit(f"FAIL: trace: expected >=2 worker lanes, got {lanes}")
named = {e["tid"] for e in events
         if e["ph"] == "M" and e.get("name") == "thread_name"}
if not lanes <= named:
    raise SystemExit(f"FAIL: trace: lanes without thread_name: {lanes - named}")

# --- Provenance JSONL -------------------------------------------------
REQUIRED = ("tuple", "method", "explainer", "epoch", "thread",
            "matched_itemsets", "store_misses", "samples_available",
            "samples_reused", "samples_fresh", "tau", "invocations",
            "cache_hits", "cache_misses", "wall_ns", "degraded")
for r in prov_lines:
    for key in REQUIRED:
        if key not in r:
            raise SystemExit(f"FAIL: provenance: record missing '{key}': {r}")
    if r["samples_reused"] + r["samples_fresh"] != r["tau"]:
        raise SystemExit(f"FAIL: provenance: reused+fresh != tau: {r}")
    # Offline drivers have no serving request, hence no trace: both
    # optional keys must be omitted, not null.
    for absent in ("request", "trace_id"):
        if absent in r:
            raise SystemExit(f"FAIL: provenance: offline record carries "
                             f"'{absent}': {r}")
tuples = sorted(r["tuple"] for r in prov_lines)
if tuples != list(range(batch)):
    raise SystemExit(f"FAIL: provenance: expected one record per tuple "
                     f"0..{batch - 1}, got {len(tuples)} records")
if {r["method"] for r in prov_lines} != {"Shahin-Batch-Par2"}:
    raise SystemExit("FAIL: provenance: unexpected method strings")

# --- Reconciliation with the metrics snapshot -------------------------
gauges = metrics["gauges"]
if gauges.get("provenance.records") != len(prov_lines):
    raise SystemExit(f"FAIL: provenance.records gauge "
                     f"{gauges.get('provenance.records')} != "
                     f"{len(prov_lines)} JSONL records")
for gauge, field in (("provenance.samples_reused", "samples_reused"),
                     ("provenance.samples_fresh", "samples_fresh")):
    total = sum(r[field] for r in prov_lines)
    if gauges.get(gauge) != total:
        raise SystemExit(f"FAIL: {gauge} gauge {gauges.get(gauge)} != "
                         f"JSONL total {total}")
matched = sum(len(r["matched_itemsets"]) for r in prov_lines)
if gauges.get("provenance.matched_itemsets") != matched:
    raise SystemExit(f"FAIL: provenance.matched_itemsets gauge "
                     f"{gauges.get('provenance.matched_itemsets')} != "
                     f"JSONL total {matched}")

print(f"OK: trace has {len(events)} events across {len(lanes)} worker lanes, "
      f"balanced and monotonic")
print(f"OK: provenance has {len(prov_lines)} records, one per tuple, "
      f"reconciling with the snapshot")
print("trace + provenance schema check passed")
PY

# Chaos run: inject faults through the resilient boundary and check the
# resilience.* counters fire and reconcile with the provenance export.
# Exit code 2 (some tuples quarantined) is an expected outcome here.
chaos_status=0
"$CLI" explain --csv "$WORKDIR/census.csv" --label label --explainer lime \
    --method par-2 --batch-size "$BATCH" \
    --chaos --chaos-transient 0.05 --chaos-nan 0.02 --chaos-panic 0.005 \
    --metrics-out "$WORKDIR/chaos.json" \
    --provenance-out "$WORKDIR/chaos_prov.jsonl" 2>/dev/null || chaos_status=$?
if [ "$chaos_status" -ne 0 ] && [ "$chaos_status" -ne 2 ]; then
    echo "FAIL: chaos run exited with unexpected status $chaos_status"
    exit 1
fi

python3 - "$WORKDIR/chaos.json" "$WORKDIR/chaos_prov.jsonl" "$BATCH" "$chaos_status" <<'PY'
import json, sys

metrics = json.load(open(sys.argv[1]))
prov_lines = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
batch = int(sys.argv[3])
status = int(sys.argv[4])
counters = metrics["counters"]
gauges = metrics["gauges"]

# Injected transient errors must have been retried and NaN outputs
# sanitized — the boundary was actually exercised.
if counters.get("resilience.transient_errors", 0) == 0:
    raise SystemExit("FAIL: chaos: no transient errors injected")
if counters.get("resilience.retries", 0) == 0:
    raise SystemExit("FAIL: chaos: transient errors were not retried")
if counters.get("resilience.invalid_proba", 0) == 0:
    raise SystemExit("FAIL: chaos: NaN outputs were not sanitized")

# Degraded-mode completion: every tuple either has a provenance record
# (survived) or counts as failed — and the exit code says which happened.
failed = counters.get("resilience.tuples_failed", 0)
if len(prov_lines) + failed != batch:
    raise SystemExit(f"FAIL: chaos: {len(prov_lines)} records + {failed} "
                     f"failed != {batch} tuples")
if (failed > 0) != (status == 2):
    raise SystemExit(f"FAIL: chaos: {failed} failures but exit status {status}")

# Degraded tuples reconcile across counter, gauge, and JSONL.
degraded = sum(1 for r in prov_lines if r["degraded"])
if counters.get("resilience.tuples_degraded") != degraded:
    raise SystemExit(f"FAIL: chaos: resilience.tuples_degraded "
                     f"{counters.get('resilience.tuples_degraded')} != "
                     f"{degraded} degraded JSONL records")
if gauges.get("provenance.degraded") != degraded:
    raise SystemExit(f"FAIL: chaos: provenance.degraded gauge "
                     f"{gauges.get('provenance.degraded')} != {degraded}")

print(f"OK: chaos run injected {counters['resilience.transient_errors']} "
      f"transient errors ({counters['resilience.retries']} retries), "
      f"{failed} tuples quarantined, {degraded} degraded — all reconciled")
print("resilience schema check passed")
PY

# Serving smoke: start the server in the background over the same synthetic
# dataset, drive it with bench_serve in external mode, validate the live
# observability plane over the admin protocol, then shut down and require
# a clean drain plus a serve.* metrics dump.
echo "== serve smoke ($SERVE_REQS requests)"
"$CLI" serve --csv "$WORKDIR/census.csv" --label label --explainer lime \
    --warm-rows 150 --addr 127.0.0.1:0 \
    --port-file "$WORKDIR/serve.port" \
    --metrics-out "$WORKDIR/serve.json" \
    --provenance-out "$WORKDIR/serve_prov.jsonl" \
    --monitor-interval-ms 100 --windows 64 \
    --slo-p99-ms 500 --slo-error-rate 0.01 \
    --trace-sample 1.0 \
    >"$WORKDIR/serve.log" 2>&1 &
serve_pid=$!

for _ in $(seq 1 100); do
    [ -s "$WORKDIR/serve.port" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "FAIL: serve: server died before listening"
        cat "$WORKDIR/serve.log"
        exit 1
    fi
    sleep 0.2
done
if [ ! -s "$WORKDIR/serve.port" ]; then
    echo "FAIL: serve: no port file after 20s"
    cat "$WORKDIR/serve.log"
    exit 1
fi
port="$(tr -d '[:space:]' < "$WORKDIR/serve.port")"

SHAHIN_SERVE_ADDR="127.0.0.1:$port" \
    SHAHIN_SERVE_REQUESTS="$SERVE_REQS" SHAHIN_SERVE_WARM_ROWS=150 \
    SHAHIN_SERVE_OUT="$WORKDIR/BENCH_serve_smoke.json" \
    target/release/bench_serve

# Live observability plane: validate the Prometheus exposition shape,
# the JSON snapshot frame, the windowed `stats` summary, and the
# extended `ping` over the admin protocol, then send the shutdown frame.
python3 - "$port" <<'PY'
import json, re, socket, sys, time

port = int(sys.argv[1])
# Give the monitor at least two 100ms ticks after the load so the window
# ring has folded the burst in.
time.sleep(0.3)

sock = socket.create_connection(("127.0.0.1", port), timeout=10)
rfile = sock.makefile("r", encoding="utf-8")

def frame(method, **kw):
    req = {"id": 1, "method": method, **kw}
    sock.sendall((json.dumps(req) + "\n").encode())
    resp = json.loads(rfile.readline())
    if resp.get("ok") is not True:
        raise SystemExit(f"FAIL: live: '{method}' frame rejected: {resp}")
    return resp

# --- Prometheus exposition shape -------------------------------------
text = frame("metrics", format="prometheus")["metrics"]
types = {}     # family -> declared type
samples = {}   # family -> sample lines
series = []    # full series identifiers (name + labels)
prom_exemplars = []  # (bucket series, trace id) from # EXEMPLAR comments
for line in text.splitlines():
    if not line:
        continue
    if line.startswith("# TYPE "):
        _, _, fam, kind = line.split(" ")
        if fam in types:
            raise SystemExit(f"FAIL: live: duplicate # TYPE for '{fam}'")
        types[fam] = kind
    elif line.startswith("# EXEMPLAR "):
        m = re.fullmatch(r"# EXEMPLAR (\S+_bucket\{le=\"[^\"]+\"\}) trace_id=(\d+)", line)
        if m is None:
            raise SystemExit(f"FAIL: live: malformed # EXEMPLAR line: {line}")
        prom_exemplars.append((m.group(1), int(m.group(2))))
    elif line.startswith("#"):
        raise SystemExit(f"FAIL: live: unexpected comment line: {line}")
    else:
        name_labels, _, value = line.rpartition(" ")
        float(value)  # every sample line must end in a number
        series.append(name_labels)
        # Histogram rows group under their family base; counter families
        # are declared with the `_total` suffix included.
        base = re.sub(r"(_bucket\{.*\}|_sum|_count)$", "", name_labels)
        samples.setdefault(base, []).append(name_labels)
if len(series) != len(set(series)):
    dupes = sorted({s for s in series if series.count(s) > 1})
    raise SystemExit(f"FAIL: live: duplicate series: {dupes[:5]}")
for fam, kind in types.items():
    if fam not in samples:
        raise SystemExit(f"FAIL: live: '# TYPE {fam} {kind}' has no samples")
for fam, kind in types.items():
    if kind == "histogram":
        buckets = [s for s in samples[fam] if s.startswith(fam + "_bucket{")]
        if not buckets:
            raise SystemExit(f"FAIL: live: histogram '{fam}' has no buckets")
        if f'{fam}_bucket{{le="+Inf"}}' not in buckets:
            raise SystemExit(f"FAIL: live: histogram '{fam}' lacks +Inf bucket")
# Every exemplar comment must point at a bucket series emitted above it.
if not prom_exemplars:
    raise SystemExit("FAIL: live: exposition carries no # EXEMPLAR lines "
                     "despite --trace-sample 1.0")
for bucket, _tid in prom_exemplars:
    if bucket not in series:
        raise SystemExit(f"FAIL: live: # EXEMPLAR references unknown series "
                         f"'{bucket}'")

# --- JSON snapshot frame, cross-checked against the exposition --------
snap = frame("metrics", format="json")["snapshot"]
for section in ("counters", "gauges", "histograms", "value_histograms"):
    if section not in snap:
        raise SystemExit(f"FAIL: live: json snapshot lacks '{section}'")

def sanitize(name):
    return re.sub(r"[^a-zA-Z0-9_]", "_", name)

prom_counts = {}
for line in text.splitlines():
    if line.startswith("#"):
        continue
    name_labels, _, value = line.rpartition(" ")
    if name_labels.endswith("_count"):
        prom_counts[name_labels[:-len("_count")]] = int(float(value))
for name, h in snap["histograms"].items():
    fam = sanitize(name) + "_ns"
    if prom_counts.get(fam) != h["count"]:
        raise SystemExit(f"FAIL: live: '{fam}_count' {prom_counts.get(fam)} "
                         f"!= snapshot count {h['count']} for '{name}'")
for name, h in snap["value_histograms"].items():
    fam = sanitize(name)
    if prom_counts.get(fam) != h["count"]:
        raise SystemExit(f"FAIL: live: '{fam}_count' {prom_counts.get(fam)} "
                         f"!= snapshot count {h['count']} for '{name}'")

# The monitor thread's own families are live.
if snap["counters"].get("serve.monitor_ticks", 0) < 2:
    raise SystemExit("FAIL: live: serve.monitor_ticks < 2")
if snap["gauges"].get("serve.warm_entries", 0) <= 0:
    raise SystemExit("FAIL: live: serve.warm_entries gauge not sampled")
for g in ("slo.serve.request.burn_rate", "slo.serve.request.budget_remaining"):
    if g not in snap["gauges"]:
        raise SystemExit(f"FAIL: live: SLO gauge '{g}' not published")

# --- Windowed stats summary ------------------------------------------
stats = frame("stats")["stats"]
for key in ("window_secs", "windows", "req_per_s", "p50_ns", "p99_ns",
            "hit_rate", "queue_depth", "live_connections", "slo"):
    if key not in stats:
        raise SystemExit(f"FAIL: live: stats summary lacks '{key}'")
for key in ("burn_rate", "budget_remaining"):
    if key not in stats["slo"]:
        raise SystemExit(f"FAIL: live: stats.slo lacks '{key}'")
if stats["windows"] < 2:
    raise SystemExit(f"FAIL: live: stats.windows {stats['windows']} < 2")
if stats["p99_ns"] is None:
    raise SystemExit("FAIL: live: windowed p99 is null right after a burst")

# --- Extended ping ----------------------------------------------------
pong = frame("ping")
for key in ("uptime_secs", "version", "warm_entries"):
    if key not in pong:
        raise SystemExit(f"FAIL: live: ping lacks '{key}'")
if pong["warm_entries"] <= 0:
    raise SystemExit("FAIL: live: ping reports an empty warm store")

# --- Request traces ---------------------------------------------------
def check_span_tree(trace):
    spans = trace.get("spans")
    if not spans:
        raise SystemExit(f"FAIL: live: trace {trace.get('trace_id')} "
                         f"has no spans")
    if spans[0]["parent"] is not None or spans[0]["start_ns"] != 0:
        raise SystemExit(f"FAIL: live: span 0 is not a root: {spans[0]}")
    if spans[0]["dur_ns"] != trace["total_ns"]:
        raise SystemExit(f"FAIL: live: root span dur {spans[0]['dur_ns']} "
                         f"!= total_ns {trace['total_ns']}")
    for i, s in enumerate(spans[1:], start=1):
        p = s["parent"]
        if p is None or not (0 <= p < i):
            raise SystemExit(f"FAIL: live: span {i} has a forward or "
                             f"missing parent: {s}")
        parent = spans[p]
        if not (parent["start_ns"] <= s["start_ns"] and
                s["start_ns"] + s["dur_ns"]
                <= parent["start_ns"] + parent["dur_ns"]):
            raise SystemExit(f"FAIL: live: span {i} ({s['name']}) does not "
                             f"nest within its parent ({parent['name']}): "
                             f"{s} vs {parent}")

slowest = frame("trace", slowest=5)
for key in ("traces", "store"):
    if key not in slowest:
        raise SystemExit(f"FAIL: live: slowest-trace frame lacks '{key}'")
if not slowest["traces"]:
    raise SystemExit("FAIL: live: no traces retained at sample rate 1.0")
if slowest["store"]["retained"] <= 0:
    raise SystemExit("FAIL: live: store totals report nothing retained")
durs = [t["total_ns"] for t in slowest["traces"]]
if durs != sorted(durs, reverse=True):
    raise SystemExit(f"FAIL: live: slowest traces not sorted: {durs}")
for t in slowest["traces"]:
    check_span_tree(t)
names = {s["name"] for s in slowest["traces"][0]["spans"]}
expected = {"request", "queue", "batch", "retrieve", "classify", "explain"}
if not expected <= names:
    raise SystemExit(f"FAIL: live: slowest trace lacks stages "
                     f"{expected - names}")

# A clean run retains no error traces, but the selector must answer.
errors = frame("trace", errors=True)
if errors["traces"]:
    raise SystemExit(f"FAIL: live: error traces on a clean run: "
                     f"{errors['traces']}")

# Every latency-histogram exemplar must resolve to a retained trace
# (sample rate 1.0 retains all of them), and both fetch formats must
# agree on the request.
exemplars = snap.get("exemplars", {})
lat = exemplars.get("serve.request_latency")
if not lat:
    raise SystemExit("FAIL: live: no exemplars on serve.request_latency")
for ex in lat:
    tid = ex["trace_id"]
    by_id = frame("trace", trace_id=tid)["trace"]
    if by_id["trace_id"] != tid:
        raise SystemExit(f"FAIL: live: exemplar trace {tid} fetched "
                         f"trace {by_id['trace_id']}")
    check_span_tree(by_id)
    chrome = frame("trace", trace_id=tid, format="chrome")["chrome_trace"]
    events = chrome.get("traceEvents")
    if not events or any(e.get("ph") not in ("X", "M") for e in events):
        raise SystemExit(f"FAIL: live: chrome trace {tid} has non-X/M "
                         f"events: {chrome}")
    complete = [e for e in events if e.get("ph") == "X"]
    if len(complete) != len(by_id["spans"]):
        raise SystemExit(f"FAIL: live: chrome trace {tid} has "
                         f"{len(complete)} X events vs "
                         f"{len(by_id['spans'])} spans")

print(f"OK: live exposition has {len(types)} families, "
      f"{len(series)} series, no duplicates")
print(f"OK: {len(slowest['traces'])} slowest traces well-formed, "
      f"{len(lat)} latency exemplars resolve in both formats")
print(f"OK: stats window spans {stats['window_secs']:.2f}s across "
      f"{stats['windows']} windows (p99 {stats['p99_ns']}ns)")
print("live observability check passed")

sock.sendall(b'{"id": 2, "method": "shutdown"}\n')
resp = json.loads(rfile.readline())
if resp.get("shutting_down") is not True:
    raise SystemExit(f"FAIL: live: shutdown frame rejected: {resp}")
PY

serve_status=0
wait "$serve_pid" || serve_status=$?
if [ "$serve_status" -ne 0 ]; then
    echo "FAIL: serve: server exited with status $serve_status"
    cat "$WORKDIR/serve.log"
    exit 1
fi
if ! grep -q "drained cleanly" "$WORKDIR/serve.log"; then
    echo "FAIL: serve: no clean-drain message in server output"
    cat "$WORKDIR/serve.log"
    exit 1
fi

python3 - "$WORKDIR/serve.json" "$SERVE_REQS" "$WORKDIR/serve_prov.jsonl" <<'PY'
import json, sys

snap = json.load(open(sys.argv[1]))
requests = int(sys.argv[2])
prov_lines = [json.loads(l) for l in open(sys.argv[3]) if l.strip()]
counters, gauges, hists = snap["counters"], snap["gauges"], snap["histograms"]
vhists = snap["value_histograms"]

if counters.get("serve.requests") != requests:
    raise SystemExit(f"FAIL: serve: serve.requests "
                     f"{counters.get('serve.requests')} != {requests}")
if counters.get("serve.batches", 0) == 0:
    raise SystemExit("FAIL: serve: no worker pickups recorded")
if counters.get("serve.connections", 0) < 4:
    raise SystemExit(f"FAIL: serve: expected >=4 connections, got "
                     f"{counters.get('serve.connections')}")
# Clean run: nothing rejected, expired, or quarantined.
for c in ("serve.rejected_overload", "serve.rejected_malformed",
          "serve.rejected_shutdown", "serve.rejected_forbidden",
          "serve.deadline_expired", "serve.quarantined"):
    if counters.get(c, -1) != 0:
        raise SystemExit(f"FAIL: serve: '{c}' is {counters.get(c)} "
                         f"on a clean run")
# Drain semantics: the backlog was fully answered and the flag raised.
if gauges.get("serve.drained") != 1:
    raise SystemExit("FAIL: serve: serve.drained gauge != 1")
if gauges.get("serve.queue_depth") != 0:
    raise SystemExit("FAIL: serve: serve.queue_depth != 0 after drain")
# Per-request and per-pickup distributions populated consistently:
# serve.batches counts worker pickups and serve.batch_size records 1 per
# pickup (the names predate the worker pool), as a unitless value
# histogram, not a nanosecond one.
for h in ("serve.queue_wait", "serve.request_latency"):
    if h not in hists:
        raise SystemExit(f"FAIL: serve: missing histogram '{h}'")
if hists["serve.request_latency"]["count"] != requests:
    raise SystemExit(f"FAIL: serve: request_latency count "
                     f"{hists['serve.request_latency']['count']} != {requests}")
if "serve.batch_size" in hists:
    raise SystemExit("FAIL: serve: batch_size must be a value histogram, "
                     "not a ns histogram")
if "serve.batch_size" not in vhists:
    raise SystemExit("FAIL: serve: missing value histogram 'serve.batch_size'")
bs = vhists["serve.batch_size"]
if bs["count"] != counters["serve.batches"]:
    raise SystemExit("FAIL: serve: batch_size samples != serve.batches")
if bs["sum"] != requests:
    raise SystemExit(f"FAIL: serve: batch_size sum {bs['sum']} != "
                     f"{requests} requests")
# The warm repository actually served the traffic.
for c in ("store.lookups", "store.hits"):
    if counters.get(c, 0) == 0:
        raise SystemExit(f"FAIL: serve: '{c}' saw no traffic")
# The live-plane section issued two metrics frames and one stats frame,
# none of which may count as explain traffic.
if counters.get("serve.scrapes", 0) < 3:
    raise SystemExit(f"FAIL: serve: serve.scrapes "
                     f"{counters.get('serve.scrapes')} < 3 admin reads")
if counters.get("serve.monitor_ticks", 0) == 0:
    raise SystemExit("FAIL: serve: monitor thread never ticked")
# The live-plane section fetched traces (2 multi-trace selectors plus 2
# formats per exemplar), counted apart from scrapes.
if counters.get("serve.trace_fetches", 0) < 4:
    raise SystemExit(f"FAIL: serve: serve.trace_fetches "
                     f"{counters.get('serve.trace_fetches')} < 4")
# At sample rate 1.0 the monitor's last tick saw every trace retained,
# none dropped, none evicted (store bound 512 >> request count).
if gauges.get("trace.retained", 0) < requests:
    raise SystemExit(f"FAIL: serve: trace.retained "
                     f"{gauges.get('trace.retained')} < {requests}")
for g in ("trace.dropped", "trace.evicted"):
    if gauges.get(g, -1) != 0:
        raise SystemExit(f"FAIL: serve: '{g}' is {gauges.get(g)} at "
                         f"sample rate 1.0 under the store bound")
# The aggregator saw one monotone registry for the whole run.
if counters.get("obs.counter_resets", -1) != 0:
    raise SystemExit(f"FAIL: serve: obs.counter_resets is "
                     f"{counters.get('obs.counter_resets')}")

# --- Served provenance carries the trace join key ---------------------
if len(prov_lines) != requests:
    raise SystemExit(f"FAIL: serve: {len(prov_lines)} provenance records "
                     f"!= {requests} requests")
for r in prov_lines:
    for key in ("request", "trace_id"):
        if key not in r:
            raise SystemExit(f"FAIL: serve: provenance record lacks "
                             f"'{key}': {r}")
trace_ids = [r["trace_id"] for r in prov_lines]
if len(set(trace_ids)) != len(trace_ids):
    raise SystemExit("FAIL: serve: duplicate trace ids in provenance")

batches = counters["serve.batches"]
print(f"OK: serve smoke answered {requests} requests in {batches} "
      f"worker pickups and drained cleanly")
print(f"OK: {len(prov_lines)} provenance records carry unique trace ids; "
      f"{gauges['trace.retained']} traces retained")
print("serve smoke check passed")
PY

# Persistence drill: snapshot a live server three ways (interval, admin
# frame, SIGUSR1), then restart from a corrupted copy (must reject +
# cold-start + serve) and from the pristine file (must hydrate warm).
echo "== persistence drill"
start_serve() {
    # start_serve <tag> [extra flags...] -> port in $port, pid in $serve_pid
    local tag="$1"; shift
    : > "$WORKDIR/$tag.port"
    "$CLI" serve --csv "$WORKDIR/census.csv" --label label --explainer lime \
        --warm-rows 150 --addr 127.0.0.1:0 \
        --port-file "$WORKDIR/$tag.port" \
        --metrics-out "$WORKDIR/$tag.json" \
        --monitor-interval-ms 100 \
        "$@" \
        >"$WORKDIR/$tag.log" 2>&1 &
    serve_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$WORKDIR/$tag.port" ] && break
        if ! kill -0 "$serve_pid" 2>/dev/null; then
            echo "FAIL: persist: $tag server died before listening"
            cat "$WORKDIR/$tag.log"
            exit 1
        fi
        sleep 0.2
    done
    if [ ! -s "$WORKDIR/$tag.port" ]; then
        echo "FAIL: persist: $tag server published no port after 20s"
        cat "$WORKDIR/$tag.log"
        exit 1
    fi
    port="$(tr -d '[:space:]' < "$WORKDIR/$tag.port")"
}

stop_serve() {
    # stop_serve <tag> — admin shutdown + clean-drain assertion
    local tag="$1"
    python3 - "$port" <<'PY'
import json, socket, sys
sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10)
rfile = sock.makefile("r", encoding="utf-8")
sock.sendall(b'{"id": 9, "method": "shutdown"}\n')
resp = json.loads(rfile.readline())
if resp.get("shutting_down") is not True:
    raise SystemExit(f"FAIL: persist: shutdown frame rejected: {resp}")
PY
    local status=0
    wait "$serve_pid" || status=$?
    if [ "$status" -ne 0 ]; then
        echo "FAIL: persist: $tag server exited with status $status"
        cat "$WORKDIR/$tag.log"
        exit 1
    fi
}

# --- Donor: serve under load, snapshot on interval + frame + SIGUSR1 ---
start_serve persist_donor \
    --snapshot-out "$WORKDIR/warm.snap" --snapshot-interval-ms 200
python3 - "$port" <<'PY'
import json, socket, sys
sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10)
rfile = sock.makefile("r", encoding="utf-8")
# A little traffic so the snapshot carries serving history, not just the
# prime.
for i in range(8):
    sock.sendall((json.dumps({"id": i, "method": "explain", "row": i}) + "\n").encode())
    resp = json.loads(rfile.readline())
    if resp.get("ok") is not True:
        raise SystemExit(f"FAIL: persist: explain rejected: {resp}")
# On-demand snapshot over the loopback-gated admin frame.
sock.sendall(b'{"id": 50, "method": "snapshot"}\n')
resp = json.loads(rfile.readline())
if resp.get("ok") is not True or resp.get("snapshot_requested") is not True:
    raise SystemExit(f"FAIL: persist: snapshot frame rejected: {resp}")
if not resp.get("path"):
    raise SystemExit(f"FAIL: persist: snapshot ack carries no path: {resp}")
PY
kill -USR1 "$serve_pid"
for _ in $(seq 1 100); do
    [ -s "$WORKDIR/warm.snap" ] && break
    sleep 0.2
done
if [ ! -s "$WORKDIR/warm.snap" ]; then
    echo "FAIL: persist: no snapshot file after 20s"
    cat "$WORKDIR/persist_donor.log"
    exit 1
fi
stop_serve persist_donor

python3 - "$WORKDIR/persist_donor.json" <<'PY'
import json, sys
snap = json.load(open(sys.argv[1]))
counters, gauges = snap["counters"], snap["gauges"]
if counters.get("persist.snapshots_taken", 0) < 1:
    raise SystemExit("FAIL: persist: no snapshots taken")
# One admin frame + one SIGUSR1.
if counters.get("persist.snapshots_requested", 0) < 2:
    raise SystemExit(f"FAIL: persist: persist.snapshots_requested "
                     f"{counters.get('persist.snapshots_requested')} < 2")
if counters.get("persist.snapshots_failed", -1) != 0:
    raise SystemExit(f"FAIL: persist: persist.snapshots_failed is "
                     f"{counters.get('persist.snapshots_failed')}")
if gauges.get("persist.snapshot_bytes", 0) <= 0:
    raise SystemExit("FAIL: persist: persist.snapshot_bytes gauge not set")
print(f"OK: donor took {counters['persist.snapshots_taken']} snapshots "
      f"({counters['persist.snapshots_requested']} on demand, "
      f"{gauges['persist.snapshot_bytes']} bytes)")
PY

# --- Corrupted restart: typed rejection, cold start, still serving ----
python3 - "$WORKDIR/warm.snap" "$WORKDIR/warm.corrupt" <<'PY'
import sys
data = bytearray(open(sys.argv[1], "rb").read())
data[len(data) // 2] ^= 0x10  # one flipped bit, deep in a payload
open(sys.argv[2], "wb").write(data)
PY
start_serve persist_cold --warm-from "$WORKDIR/warm.corrupt"
if ! grep -q "warm-from snapshot rejected" "$WORKDIR/persist_cold.log"; then
    echo "FAIL: persist: corrupted snapshot was not rejected"
    cat "$WORKDIR/persist_cold.log"
    exit 1
fi
python3 - "$port" <<'PY'
import json, socket, sys
sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10)
rfile = sock.makefile("r", encoding="utf-8")
sock.sendall(b'{"id": 1, "method": "explain", "row": 0}\n')
resp = json.loads(rfile.readline())
if resp.get("ok") is not True:
    raise SystemExit(f"FAIL: persist: cold-started server not serving: {resp}")
PY
stop_serve persist_cold
python3 - "$WORKDIR/persist_cold.json" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
if counters.get("persist.load_rejected") != 1:
    raise SystemExit(f"FAIL: persist: persist.load_rejected "
                     f"{counters.get('persist.load_rejected')} != 1")
if counters.get("persist.loads_ok", -1) != 0:
    raise SystemExit(f"FAIL: persist: persist.loads_ok nonzero after a "
                     f"rejected load")
print("OK: corrupted snapshot rejected; server cold-started and served")
PY

# --- Pristine restart: warm hydration, zero classifier invocations ----
start_serve persist_warm --warm-from "$WORKDIR/warm.snap"
if ! grep -q "hydrated warm repository from snapshot" "$WORKDIR/persist_warm.log"; then
    echo "FAIL: persist: pristine snapshot did not hydrate"
    cat "$WORKDIR/persist_warm.log"
    exit 1
fi
python3 - "$port" <<'PY'
import json, socket, sys
sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10)
rfile = sock.makefile("r", encoding="utf-8")
sock.sendall(b'{"id": 1, "method": "explain", "row": 0}\n')
resp = json.loads(rfile.readline())
if resp.get("ok") is not True:
    raise SystemExit(f"FAIL: persist: hydrated server not serving: {resp}")
PY
stop_serve persist_warm
python3 - "$WORKDIR/persist_warm.json" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
if counters.get("persist.loads_ok") != 1:
    raise SystemExit(f"FAIL: persist: persist.loads_ok "
                     f"{counters.get('persist.loads_ok')} != 1")
if counters.get("persist.load_rejected", -1) != 0:
    raise SystemExit(f"FAIL: persist: persist.load_rejected nonzero on a "
                     f"pristine load")
print("OK: pristine snapshot hydrated a warm replica")
PY
echo "persistence drill passed"

# Multi-tenant drill: one listener, three tenants, full lifecycle.
echo "== multi-tenant drill"
mkdir -p "$WORKDIR/snaps"
cat > "$WORKDIR/cluster.json" <<MANIFEST
{
  "default": "acme",
  "snapshot_dir": "snaps",
  "idle_evict_ms": 400,
  "tenants": [
    {"name": "acme",    "csv": "census.csv", "label": "label",
     "explainer": "lime", "seed": 5, "warm_rows": 60},
    {"name": "globex",  "csv": "census.csv", "label": "label",
     "explainer": "lime", "seed": 7, "warm_rows": 60},
    {"name": "initech", "csv": "census.csv", "label": "label",
     "explainer": "lime", "quota": 0, "warm_rows": 60}
  ]
}
MANIFEST

: > "$WORKDIR/tenancy.port"
"$CLI" serve --manifest "$WORKDIR/cluster.json" --addr 127.0.0.1:0 \
    --port-file "$WORKDIR/tenancy.port" \
    --metrics-out "$WORKDIR/tenancy.json" \
    --provenance-out "$WORKDIR/tenancy_prov.jsonl" \
    --monitor-interval-ms 100 --trace-sample 1.0 \
    >"$WORKDIR/tenancy.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -s "$WORKDIR/tenancy.port" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "FAIL: tenancy: cluster died before listening"
        cat "$WORKDIR/tenancy.log"
        exit 1
    fi
    sleep 0.2
done
if [ ! -s "$WORKDIR/tenancy.port" ]; then
    echo "FAIL: tenancy: no port file after 20s"
    cat "$WORKDIR/tenancy.log"
    exit 1
fi
port="$(tr -d '[:space:]' < "$WORKDIR/tenancy.port")"

python3 - "$port" "$WORKDIR" <<'PY'
import json, os, socket, sys, time

port, workdir = int(sys.argv[1]), sys.argv[2]
sock = socket.create_connection(("127.0.0.1", port), timeout=30)
sock.settimeout(30)
rfile = sock.makefile("r", encoding="utf-8")

def send(obj):
    sock.sendall((json.dumps(obj) + "\n").encode())
    return json.loads(rfile.readline())

def frame(method, **kw):
    resp = send({"id": 1, "method": method, **kw})
    if resp.get("ok") is not True:
        raise SystemExit(f"FAIL: tenancy: '{method}' frame rejected: {resp}")
    return resp

def roster():
    pong = frame("ping")
    tenants = {t["name"]: t for t in pong.get("tenants", [])}
    if set(tenants) != {"acme", "globex", "initech"}:
        raise SystemExit(f"FAIL: tenancy: ping roster is {set(tenants)}")
    return pong, tenants

# --- Everything starts cold: the roster is declared, nothing is built --
pong, tenants = roster()
for name, t in tenants.items():
    for key in ("state", "entries", "bytes", "inflight"):
        if key not in t:
            raise SystemExit(f"FAIL: tenancy: ping entry for '{name}' "
                             f"lacks '{key}': {t}")
    if t["state"] != "cold" or t["entries"] != 0:
        raise SystemExit(f"FAIL: tenancy: '{name}' not cold at startup: {t}")
if pong["warm_entries"] != 0:
    raise SystemExit(f"FAIL: tenancy: warm_entries {pong['warm_entries']} "
                     f"before any request")

# --- Routing: default tenant, explicit tenant, 404, 429 ---------------
for i in range(4):
    frame("explain", row=i)                      # absent tenant -> acme
for i in range(3):
    frame("explain", row=i, tenant="globex")
over = send({"id": 20, "method": "explain", "row": 0, "tenant": "initech"})
if (over.get("ok") is not False or over.get("code") != 429
        or over.get("error") != "tenant_over_quota"
        or over.get("tenant") != "initech"):
    raise SystemExit(f"FAIL: tenancy: quota-0 tenant answered {over}")
unknown = send({"id": 21, "method": "explain", "row": 0, "tenant": "hooli"})
if (unknown.get("ok") is not False or unknown.get("code") != 404
        or unknown.get("error") != "unknown_tenant"
        or unknown.get("tenant") != "hooli"):
    raise SystemExit(f"FAIL: tenancy: unknown tenant answered {unknown}")

# --- Lazy materialization is visible in ping and the live snapshot ----
_, tenants = roster()
for name, state in (("acme", "warm"), ("globex", "warm"), ("initech", "cold")):
    if tenants[name]["state"] != state:
        raise SystemExit(f"FAIL: tenancy: '{name}' is "
                         f"{tenants[name]['state']}, wanted {state}")
if tenants["acme"]["entries"] <= 0 or tenants["acme"]["bytes"] <= 0:
    raise SystemExit(f"FAIL: tenancy: warm acme reports no footprint: "
                     f"{tenants['acme']}")

# The tenancy.* gauges are sampled by the monitor: give it two 100ms
# ticks (the requests above no longer take that long by themselves).
time.sleep(0.3)
snap = frame("metrics", format="json")["snapshot"]
counters, gauges = snap["counters"], snap["gauges"]
if counters.get("tenancy.cold_starts") != 2:
    raise SystemExit(f"FAIL: tenancy: cold_starts "
                     f"{counters.get('tenancy.cold_starts')} != 2")
if counters.get("tenancy.quota_rejections") != 1:
    raise SystemExit("FAIL: tenancy: quota rejection not counted")
if counters.get("tenancy.unknown_tenant") != 1:
    raise SystemExit("FAIL: tenancy: unknown-tenant miss not counted")
if gauges.get("tenancy.tenants") != 3 or gauges.get("tenancy.warm_tenants") != 2:
    raise SystemExit(f"FAIL: tenancy: tenants gauge "
                     f"{gauges.get('tenancy.tenants')}/"
                     f"{gauges.get('tenancy.warm_tenants')} != 3/2")
lat = snap["histograms"].get("tenancy.cold_start_latency")
if lat is None or lat["count"] != 2:
    raise SystemExit(f"FAIL: tenancy: cold-start latency histogram: {lat}")
if counters.get("tenant.acme.requests") != 4:
    raise SystemExit(f"FAIL: tenancy: tenant.acme.requests "
                     f"{counters.get('tenant.acme.requests')} != 4")
if counters.get("tenant.globex.requests") != 3:
    raise SystemExit(f"FAIL: tenancy: tenant.globex.requests "
                     f"{counters.get('tenant.globex.requests')} != 3")
if counters.get("tenant.initech.quota_rejections") != 1:
    raise SystemExit("FAIL: tenancy: initech rejection not tagged")
if counters.get("tenant.initech.cold_starts") != 0:
    raise SystemExit("FAIL: tenancy: a 429 materialized initech")

# --- Live traces carry the tenant tag ---------------------------------
slowest = frame("trace", slowest=3)["traces"]
if not slowest:
    raise SystemExit("FAIL: tenancy: no traces retained at sample rate 1.0")
tagged = {t.get("tenant") for t in slowest}
if not tagged <= {"acme", "globex"} or None in tagged:
    raise SystemExit(f"FAIL: tenancy: trace tenant tags are {tagged}")

# --- Idle eviction: warm tenants retire, snapshots land on disk -------
deadline = time.time() + 60
while True:
    _, tenants = roster()
    states = {n: t["state"] for n, t in tenants.items()}
    if states["acme"] == "evicted" and states["globex"] == "evicted":
        break
    if time.time() > deadline:
        raise SystemExit(f"FAIL: tenancy: no idle eviction after 60s: {states}")
    time.sleep(0.2)
if states["initech"] != "cold":
    raise SystemExit(f"FAIL: tenancy: never-warm initech is {states['initech']}")
for name in ("acme", "globex"):
    path = os.path.join(workdir, "snaps", f"{name}.shws")
    if not os.path.getsize(path):
        raise SystemExit(f"FAIL: tenancy: no at-evict snapshot at {path}")

# --- Re-admission hydrates classifier-free ----------------------------
frame("explain", row=0, tenant="acme")
snap = frame("metrics", format="json")["snapshot"]
counters = snap["counters"]
if counters.get("tenancy.hydrations", 0) < 1:
    raise SystemExit("FAIL: tenancy: re-admission did not hydrate")
if counters.get("tenant.acme.hydrations", 0) < 1:
    raise SystemExit("FAIL: tenancy: acme hydration not tagged")
if counters.get("tenant.acme.loads_ok", 0) < 1:
    raise SystemExit("FAIL: tenancy: hydration not counted as a clean load")
if counters.get("tenant.acme.load_rejected", 0) != 0:
    raise SystemExit("FAIL: tenancy: at-evict snapshot was rejected")

print(f"OK: routed 8 requests across 2 tenants, rejected 1 over quota "
      f"and 1 unknown")
print(f"OK: idle eviction snapshotted acme+globex; re-admission hydrated "
      f"({counters['tenancy.cold_starts']} cold starts, "
      f"{counters['tenancy.evictions']} evictions)")

sock.sendall(b'{"id": 99, "method": "shutdown"}\n')
resp = json.loads(rfile.readline())
if resp.get("shutting_down") is not True:
    raise SystemExit(f"FAIL: tenancy: shutdown frame rejected: {resp}")
PY

tenancy_status=0
wait "$serve_pid" || tenancy_status=$?
if [ "$tenancy_status" -ne 0 ]; then
    echo "FAIL: tenancy: cluster exited with status $tenancy_status"
    cat "$WORKDIR/tenancy.log"
    exit 1
fi
if ! grep -q "3 tenants, default \"acme\"" "$WORKDIR/tenancy.log"; then
    echo "FAIL: tenancy: cluster banner missing from log"
    cat "$WORKDIR/tenancy.log"
    exit 1
fi

python3 - "$WORKDIR/tenancy.json" "$WORKDIR/tenancy_prov.jsonl" \
    "$WORKDIR/serve_prov.jsonl" <<'PY'
import json, sys

snap = json.load(open(sys.argv[1]))
prov = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
single_prov = [json.loads(l) for l in open(sys.argv[3]) if l.strip()]
counters, gauges = snap["counters"], snap["gauges"]

# Aggregate tenancy.* counters reconcile with the per-tenant families.
TENANTS = ("acme", "globex", "initech")
for agg, kind in (("tenancy.cold_starts", "cold_starts"),
                  ("tenancy.evictions", "evictions"),
                  ("tenancy.hydrations", "hydrations"),
                  ("tenancy.quota_rejections", "quota_rejections")):
    total = sum(counters.get(f"tenant.{t}.{kind}", 0) for t in TENANTS)
    if counters.get(agg) != total:
        raise SystemExit(f"FAIL: tenancy: {agg} {counters.get(agg)} != "
                         f"per-tenant sum {total}")
if counters.get("tenancy.cold_starts", 0) < 3:
    raise SystemExit(f"FAIL: tenancy: expected >=3 cold starts, got "
                     f"{counters.get('tenancy.cold_starts')}")
if counters.get("tenancy.evictions", 0) < 2:
    raise SystemExit(f"FAIL: tenancy: expected >=2 evictions, got "
                     f"{counters.get('tenancy.evictions')}")
if counters.get("tenant.initech.requests", -1) != 0:
    raise SystemExit("FAIL: tenancy: rejected-only initech counted requests")
# At-evict persistence went through the persist plumbing, tagged per tenant.
if counters.get("persist.snapshots_taken", 0) < 2:
    raise SystemExit(f"FAIL: tenancy: persist.snapshots_taken "
                     f"{counters.get('persist.snapshots_taken')} < 2")
for t in ("acme", "globex"):
    if counters.get(f"tenant.{t}.snapshots_taken", 0) < 1:
        raise SystemExit(f"FAIL: tenancy: no snapshot counted for '{t}'")

# Multi-tenant provenance is tenant-tagged and joinable to traces.
by_tenant = {}
for r in prov:
    if "tenant" not in r:
        raise SystemExit(f"FAIL: tenancy: untagged provenance record: {r}")
    for key in ("request", "trace_id"):
        if key not in r:
            raise SystemExit(f"FAIL: tenancy: record lacks '{key}': {r}")
    if r["samples_reused"] + r["samples_fresh"] != r["tau"]:
        raise SystemExit(f"FAIL: tenancy: reused+fresh != tau: {r}")
    by_tenant[r["tenant"]] = by_tenant.get(r["tenant"], 0) + 1
if by_tenant != {"acme": 5, "globex": 3}:
    raise SystemExit(f"FAIL: tenancy: provenance split {by_tenant} != "
                     f"acme:5 globex:3")

# Single-tenant lineage from the serve smoke stays untagged.
for r in single_prov:
    if "tenant" in r:
        raise SystemExit(f"FAIL: tenancy: single-tenant record carries "
                         f"'tenant': {r}")

print(f"OK: tenancy aggregates reconcile with per-tenant families "
      f"across {len(TENANTS)} tenants")
print(f"OK: {len(prov)} tenant-tagged provenance records "
      f"({by_tenant}), single-tenant lineage untagged")
print("multi-tenant drill passed")
PY
