//! # fedknow-obs
//!
//! Observability for the FedKNOW simulation stack: hierarchical spans,
//! phase timers, and a thread-safe metrics registry of counters and
//! log-bucketed histograms, with an optional JSONL record sink.
//!
//! ## Cost model
//!
//! The layer is **off by default**. Every public recording function
//! starts with one relaxed atomic load; when disabled it returns
//! immediately — no clock reads, no allocation, no locks. It turns on
//! in two ways:
//!
//! * `FEDKNOW_OBS=<path>` in the environment (checked by
//!   [`init_from_env`], which the simulation calls once per run):
//!   enables the in-memory registry **and** streams every event to
//!   `<path>` as JSONL: one [`RingRecord`] per line, the same records
//!   the flight recorder holds.
//! * [`enable`] from code (used by the report binaries and tests):
//!   enables the in-memory registry; JSONL is still only attached if
//!   the environment variable is set.
//!
//! Once enabled, observability stays enabled for the process.
//!
//! ## Vocabulary
//!
//! * [`span`] — hierarchical timed regions (`run → task → round →
//!   client`); worker threads join the hierarchy via [`current_path`] +
//!   [`inherit_path`].
//! * [`timer`] — RAII phase timers feeding named histograms
//!   (`qp.solve_ns`, `extract.topk_ns`, …).
//! * [`count`] / [`record`] — plain counters (`comm.upload_bytes`,
//!   `qp.fallback`) and histogram samples (`qp.iters`).
//! * [`snapshot`] — copy of the registry; [`MetricsSnapshot::since`]
//!   attributes metrics to a single run by diffing two snapshots.
//! * [`ring`] — the always-on flight recorder: bounded per-thread ring
//!   buffers of [`RingRecord`]s, drained into postmortem [`bundle`]s on
//!   panic, strict verify violations, injected faults, or an explicit
//!   [`dump_now`]; [`trace`] renders the records of a bundle or of a
//!   JSONL stream as Chrome/Perfetto timelines.
//!
//! Every event is encoded once, as a [`RingRecord`] stamped with its
//! timestamp and round, and that record goes to each destination that
//! is on: the calling thread's ring (unless `FEDKNOW_TRACE_CAP=0`) and
//! the JSONL sink (when `FEDKNOW_OBS` is set).

pub mod alloc;
pub mod bundle;
pub mod cohort;
pub mod handle;
pub mod health;
pub mod hist;
pub mod http;
pub mod perf;
pub mod prom;
pub mod registry;
pub mod ring;
pub mod sink;
pub mod sketch;
pub mod span;
pub mod trace;

pub use alloc::{AllocStats, TrackingAllocator, ENV_PROF_ALLOC};
pub use bundle::{
    collect_bundle, dump_now, dump_trigger, set_context, CohortDump, ContextEntry, MetricsDump,
    PostmortemBundle, SketchDump, ThreadTrack, ENV_TRACE_DIR,
};
pub use cohort::{
    cohort_count, cohort_of, CohortSet, CohortSnapshot, CohortStat, DEFAULT_COHORTS, ENV_COHORTS,
};
pub use handle::{CounterHandle, HandleTimer, HistHandle};
pub use health::{HealthEngine, HealthSnapshot, RoundObservation, SloState, SloStatus};
pub use hist::{HistSnapshot, LogHistogram};
pub use http::MetricsServer;
pub use perf::PerfCounter;
pub use prom::{prometheus_text, write_prometheus};
pub use registry::{
    Counter, Gauge, MetricsSnapshot, Registry, Series, DEFAULT_MAX_NAMES, ENV_MAX_NAMES,
    SERIES_POINT_CAP,
};
pub use ring::{now_ns, RingBuf, RingData, RingRecord, SpanPerf, DEFAULT_TRACE_CAP, ENV_TRACE_CAP};
pub use sink::{read_jsonl, Aggregate, JsonlSink, SpanStat, ENV_MAX_MB};
pub use sketch::{QuantileSketch, Sketch, SketchSnapshot, DEFAULT_ALPHA};
pub use span::{current_path, inherit_path, span, timer, PathGuard, SpanGuard, TimerGuard};

use parking_lot::Mutex;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Environment variable naming the JSONL output path.
pub const ENV_JSONL: &str = "FEDKNOW_OBS";

/// Environment variable naming the `host:port` to serve live Prometheus
/// metrics on (e.g. `FEDKNOW_OBS_ADDR=127.0.0.1:9184`). Port 0 picks an
/// ephemeral port, printed to stderr at startup.
pub const ENV_ADDR: &str = "FEDKNOW_OBS_ADDR";

/// Environment variable setting the client-span head-sampling rate
/// (`FEDKNOW_OBS_SPAN_SAMPLE=N` records 1-in-N client spans; anomalous
/// clients are always recorded — see [`mark_anomalous`]).
pub const ENV_SPAN_SAMPLE: &str = "FEDKNOW_OBS_SPAN_SAMPLE";

/// Every binary linking this crate routes heap allocation through the
/// tracking wrapper. Disabled it costs one relaxed load per allocator
/// call; `FEDKNOW_PROF_ALLOC=1` turns the accounting on (see [`alloc`]).
#[global_allocator]
static GLOBAL_ALLOC: TrackingAllocator = TrackingAllocator;

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: OnceLock<State> = OnceLock::new();
static SERVER: OnceLock<Option<MetricsServer>> = OnceLock::new();
/// Ambient round index for series points recorded deep in the stack
/// (integrator, restorer) that don't know the round they run in.
static ROUND: AtomicU64 = AtomicU64::new(0);
/// Client-span head-sampling rate: record 1-in-N client spans
/// (1 = record everything, the default).
static SPAN_SAMPLE: AtomicU64 = AtomicU64::new(1);
/// The streaming health engine (armed lazily on first observation).
static HEALTH: OnceLock<Mutex<health::HealthEngine>> = OnceLock::new();
/// Bounded open-addressed set of anomalous client ids (stored as
/// `client + 1`; 0 = empty). Full table = new anomalies are dropped,
/// never grown.
static ANOMALIES: OnceLock<Vec<AtomicU64>> = OnceLock::new();
const ANOMALY_SLOTS: usize = 1024;
const ANOMALY_PROBES: usize = 16;

struct State {
    registry: Registry,
    jsonl: Option<JsonlSink>,
}

fn state() -> &'static State {
    STATE.get_or_init(|| {
        let jsonl = std::env::var(ENV_JSONL).ok().and_then(|path| {
            if let Some(parent) = std::path::Path::new(&path).parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            JsonlSink::create(&path)
                .map_err(|e| eprintln!("fedknow-obs: cannot open {ENV_JSONL}={path}: {e}"))
                .ok()
        });
        State {
            registry: Registry::new(),
            jsonl,
        }
    })
}

/// Whether observability is on. One relaxed atomic load — this is the
/// entire cost of every instrumentation site when disabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable observability if `FEDKNOW_OBS` (JSONL sink),
/// `FEDKNOW_OBS_ADDR` (live `/metrics` endpoint) or
/// `FEDKNOW_TRACE_DIR` (postmortem bundle directory) is set in the
/// environment. When the address variable is set, a background HTTP
/// server is started once per process, serving Prometheus text
/// exposition from registry snapshots. Whenever observability comes
/// up, the flight recorder starts and the crash-flush panic hook is
/// installed (see [`bundle`]). Idempotent; returns whether
/// observability is enabled afterwards.
pub fn init_from_env() -> bool {
    let jsonl = std::env::var_os(ENV_JSONL).is_some();
    let addr = std::env::var(ENV_ADDR).ok();
    let trace_dir = std::env::var_os(ENV_TRACE_DIR).is_some();
    let prof_alloc = std::env::var_os(ENV_PROF_ALLOC).is_some();
    if !is_enabled() && (jsonl || addr.is_some() || trace_dir || prof_alloc) {
        state();
        ENABLED.store(true, Ordering::Release);
    }
    if let Some(n) = std::env::var(ENV_SPAN_SAMPLE)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        set_span_sample(n);
    }
    if is_enabled() {
        // Allocation tracking needs the registry mirror, hence piggy-
        // backs on general enablement (it still costs nothing unless
        // FEDKNOW_PROF_ALLOC itself is set).
        alloc::init_from_env();
    }
    if is_enabled() {
        ring::enable_ring();
        bundle::install_panic_hook();
    }
    if let Some(addr) = addr {
        SERVER.get_or_init(|| match MetricsServer::serve(&addr) {
            Ok(s) => {
                eprintln!("fedknow-obs: serving /metrics on http://{}", s.local_addr());
                Some(s)
            }
            Err(e) => {
                eprintln!("fedknow-obs: cannot bind {ENV_ADDR}={addr}: {e}");
                None
            }
        });
    }
    is_enabled()
}

/// The address the live `/metrics` endpoint is bound to, if
/// [`init_from_env`] started one.
pub fn metrics_addr() -> Option<std::net::SocketAddr> {
    SERVER.get()?.as_ref().map(|s| s.local_addr())
}

/// Enable the in-memory registry and the flight recorder from code
/// (the JSONL sink is still attached only when `FEDKNOW_OBS` is set).
/// Idempotent.
pub fn enable() {
    state();
    ring::enable_ring();
    ENABLED.store(true, Ordering::Release);
}

/// Add `delta` to the counter `name`. No-op when disabled.
pub fn count(name: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    state().registry.add(name, delta);
    emit(|| RingData::Count {
        name: name.to_string(),
        delta,
    });
}

/// Record `value` into the histogram `name`. No-op when disabled.
pub fn record(name: &str, value: u64) {
    if !is_enabled() {
        return;
    }
    state().registry.record(name, value);
    emit(|| RingData::Sample {
        name: name.to_string(),
        value,
    });
}

/// Set the gauge `name` to `value`. No-op when disabled.
pub fn gauge(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    state().registry.set_gauge(name, value);
    emit(|| RingData::Gauge {
        name: name.to_string(),
        value,
    });
}

/// Append a point to the series `name` at the current ambient round
/// index (see [`set_round`]). No-op when disabled.
pub fn series(name: &str, value: f64) {
    series_at(name, round_index(), value);
}

/// Append a point to the series `name` at an explicit index. No-op when
/// disabled.
pub fn series_at(name: &str, index: u64, value: f64) {
    if !is_enabled() {
        return;
    }
    state().registry.push_series(name, index, value);
    emit(|| RingData::Point {
        name: name.to_string(),
        index,
        value,
    });
}

/// Record `value` into the quantile sketch `name`. Registry-only by
/// design: per-value events would make telemetry bytes O(values), so
/// sketch contents surface through snapshots, `/metrics`, and the
/// per-round `sketch.<name>.p50`/`.p99` series emitted by
/// [`observe_round`]. No-op when disabled.
pub fn sketch_record(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    state().registry.record_sketch(name, value);
}

/// Record a client-keyed `value`: folds into the client's cohort
/// (bounded `FEDKNOW_OBS_COHORTS` slots with reservoir exemplars) and
/// into the same-named quantile sketch. This is the bounded-memory
/// replacement for per-client metric names. No-op when disabled.
pub fn client_value(name: &str, client: u64, value: f64) {
    if !is_enabled() {
        return;
    }
    state().registry.record_client(name, client, value);
}

/// Set the client-span head-sampling rate: 1-in-`n` client spans are
/// recorded (anomalous clients always are). `n = 1` records everything.
pub fn set_span_sample(n: u64) {
    SPAN_SAMPLE.store(n.max(1), Ordering::Relaxed);
}

/// The current client-span head-sampling rate.
pub fn span_sample_rate() -> u64 {
    SPAN_SAMPLE.load(Ordering::Relaxed).max(1)
}

fn anomaly_table() -> &'static [AtomicU64] {
    ANOMALIES.get_or_init(|| (0..ANOMALY_SLOTS).map(|_| AtomicU64::new(0)).collect())
}

/// Mark a client anomalous (faulted, quarantined, slowest-decile):
/// its spans bypass head sampling from now on. The set is bounded —
/// once [`ANOMALY_SLOTS`] distinct clients are marked, further marks
/// are dropped rather than grown.
pub fn mark_anomalous(client: u64) {
    if !is_enabled() {
        return;
    }
    let table = anomaly_table();
    let key = client.wrapping_add(1);
    let start = (splitmix64(client) % ANOMALY_SLOTS as u64) as usize;
    for p in 0..ANOMALY_PROBES {
        let slot = &table[(start + p) % ANOMALY_SLOTS];
        let cur = slot.load(Ordering::Relaxed);
        if cur == key {
            return;
        }
        if cur == 0
            && slot
                .compare_exchange(0, key, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            return;
        }
    }
}

/// Whether a client has been marked anomalous.
pub fn client_is_anomalous(client: u64) -> bool {
    let Some(table) = ANOMALIES.get() else {
        return false;
    };
    let key = client.wrapping_add(1);
    let start = (splitmix64(client) % ANOMALY_SLOTS as u64) as usize;
    for p in 0..ANOMALY_PROBES {
        match table[(start + p) % ANOMALY_SLOTS].load(Ordering::Relaxed) {
            0 => return false,
            k if k == key => return true,
            _ => {}
        }
    }
    false
}

/// Whether this client's span would be recorded under the current
/// sampling rate (head sample, or anomaly override).
pub fn client_span_sampled(client: u64) -> bool {
    let n = span_sample_rate();
    n <= 1 || client.is_multiple_of(n) || client_is_anomalous(client)
}

/// Open a span for one client's work, with bounded cardinality and
/// head sampling: the span is named `client.<cohort>` (not
/// `client.<id>`, which would create one histogram per client), and at
/// high client counts only 1-in-[`span_sample_rate`] clients are
/// recorded — except anomalous ones, which always are. Returns an
/// inert guard when disabled or sampled out.
pub fn client_span(client: u64) -> SpanGuard {
    if !is_enabled() || !client_span_sampled(client) {
        return SpanGuard::inert();
    }
    span(&format!("client.{}", cohort::cohort_of(client)))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn health_engine() -> &'static Mutex<health::HealthEngine> {
    HEALTH.get_or_init(|| Mutex::new(health::HealthEngine::new()))
}

/// Publish a health snapshot into `health.*` gauges so `/metrics`,
/// JSONL sinks and bundles all see SLO state without extra plumbing.
fn publish_health(h: &health::HealthSnapshot) {
    gauge("health.rounds", h.rounds as f64);
    gauge("health.round_p50_seconds", h.round_p50_seconds);
    gauge("health.round_p99_seconds", h.round_p99_seconds);
    gauge("health.worst", h.worst().as_gauge());
    for slo in &h.slos {
        gauge(&format!("health.{}", slo.name), slo.value);
        gauge(&format!("health.slo.{}", slo.name), slo.state.as_gauge());
    }
}

/// Fold one round of telemetry: every sketch's current round merges
/// into its cumulative sketch (emitting per-round `sketch.<name>.p50`
/// / `.p99` series points for dashboards), and the streaming health
/// engine updates its SLO states (mirrored into `health.*` gauges).
/// The simulation calls this once per round. No-op when disabled.
pub fn observe_round(o: &health::RoundObservation) {
    if !is_enabled() {
        return;
    }
    for (name, snap) in state().registry.fold_sketches() {
        series_at(&format!("sketch.{name}.p50"), o.round, snap.quantile(0.5));
        series_at(&format!("sketch.{name}.p99"), o.round, snap.quantile(0.99));
    }
    let snap = {
        let mut eng = health_engine().lock();
        eng.observe_round(o);
        eng.snapshot()
    };
    publish_health(&snap);
}

/// Feed a task boundary's average forgetting to the health engine's
/// drift SLO. No-op when disabled.
pub fn observe_forgetting(avg_forgetting: f64) {
    if !is_enabled() {
        return;
    }
    let snap = {
        let mut eng = health_engine().lock();
        eng.observe_forgetting(avg_forgetting);
        eng.snapshot()
    };
    publish_health(&snap);
}

/// The health engine's current SLO evaluation, or `None` while
/// disabled.
pub fn health_snapshot() -> Option<health::HealthSnapshot> {
    is_enabled().then(|| health_engine().lock().snapshot())
}

/// Publish the current global round index (the simulation calls this at
/// every round boundary) so instrumentation deep in the stack can tag
/// series points with the round they belong to.
pub fn set_round(round: u64) {
    ROUND.store(round, Ordering::Relaxed);
}

/// The last-published global round index (0 before any round).
pub fn round_index() -> u64 {
    ROUND.load(Ordering::Relaxed)
}

/// Record a fault injection (`kind` is the fault-plan label, `detail`
/// mirrors the fl layer's `FaultEvent` detail field). No-op when
/// disabled.
pub fn fault(client: u64, kind: &str, detail: u64) {
    // Faulted clients are anomalous by definition: their spans bypass
    // head sampling so postmortems always have the interesting traces.
    mark_anomalous(client);
    if !is_enabled() {
        return;
    }
    emit(|| RingData::Fault {
        client,
        kind: kind.to_string(),
        detail,
    });
}

/// Record one point of the wire message lifecycle: `phase` is
/// `enq`/`out`/`in`/`handled`/`drop`, `conn` the connection (client
/// id), `trace`/`span`/`parent` the frame's trace context, `msg` the
/// message-kind label, `bytes` the payload size and `peer_ts_ns` the
/// sender's send timestamp on receive-side records (0 elsewhere).
/// No-op when disabled.
#[allow(clippy::too_many_arguments)]
pub fn wire_event(
    phase: &str,
    conn: u64,
    trace: u64,
    span: u64,
    parent: u64,
    msg: &str,
    bytes: u64,
    peer_ts_ns: u64,
) {
    if !is_enabled() {
        return;
    }
    emit(|| RingData::Wire {
        phase: phase.to_string(),
        conn,
        trace,
        span,
        parent,
        msg: msg.to_string(),
        bytes,
        peer_ts_ns,
    });
}

/// Feed one message round-trip time (seconds) to the health engine's
/// transport RTT SLO. The SLO gauges refresh at the next round fold
/// ([`observe_round`]), so this stays cheap per message. No-op when
/// disabled.
pub fn observe_message_rtt(rtt_seconds: f64) {
    if !is_enabled() {
        return;
    }
    health_engine().lock().observe_message_rtt(rtt_seconds);
}

/// Feed the server inbox depth observed while handling a message to
/// the health engine's queue-depth SLO (it tracks the maximum). No-op
/// when disabled.
pub fn observe_queue_depth(depth: f64) {
    if !is_enabled() {
        return;
    }
    health_engine().lock().observe_queue_depth(depth);
}

/// Record a runtime invariant violation. No-op when disabled.
pub fn violation(check: &str, detail: &str) {
    if !is_enabled() {
        return;
    }
    emit(|| RingData::Violation {
        check: check.to_string(),
        detail: detail.to_string(),
    });
}

/// Record a free-form marker (checkpoint/resume boundaries, panics).
/// No-op when disabled.
pub fn mark(note: &str) {
    if !is_enabled() {
        return;
    }
    emit(|| RingData::Note {
        note: note.to_string(),
    });
}

/// Record into the registry without emitting a record (a span's `End`
/// record already carries its duration).
pub(crate) fn record_in_registry(name: &str, value: u64) {
    if is_enabled() {
        state().registry.record(name, value);
    }
}

/// Count into the registry without emitting a record. The sink's
/// own rotation accounting uses this: routing those counts through
/// [`count`] would re-enter the sink it is rotating.
pub(crate) fn count_in_registry(name: &str, delta: u64) {
    if is_enabled() {
        state().registry.add(name, delta);
    }
}

/// The one emit path: stamp a record with the time and the ambient
/// round, then send it to every destination that is on — the calling
/// thread's flight-recorder ring and the JSONL sink. `data` is built
/// only when at least one of them is. Callers check [`is_enabled`]
/// first, so a disabled site costs that one relaxed load.
pub(crate) fn emit(data: impl FnOnce() -> RingData) {
    let ring = ring::ring_enabled();
    let jsonl = state().jsonl.as_ref();
    if !ring && jsonl.is_none() {
        return;
    }
    let rec = RingRecord {
        ts_ns: ring::epoch_ns(),
        round: round_index(),
        data: data(),
    };
    if let Some(j) = jsonl {
        j.emit(&rec);
    }
    if ring {
        ring::push(rec);
    }
}

/// Open a span with a formatted name (`obs_span!("client.{c}")`)
/// without paying for the `format!` when observability is disabled:
/// the arguments are only evaluated behind the enabled check.
#[macro_export]
macro_rules! obs_span {
    ($($arg:tt)*) => {
        if $crate::is_enabled() {
            $crate::span(&format!($($arg)*))
        } else {
            $crate::SpanGuard::inert()
        }
    };
}

/// A copy of the global registry, or `None` while disabled.
pub fn snapshot() -> Option<MetricsSnapshot> {
    is_enabled().then(|| state().registry.snapshot())
}

/// Flush observability state at the end of a run: emit the growth of
/// the `flops.*`/`bytes.*`/`alloc.*` perf counters as `Count` records
/// (they are registry-only on the hot path), then flush the JSONL sink
/// (the global sink is never dropped).
pub fn flush() {
    if is_enabled() {
        perf::flush_deltas();
        if let Some(j) = &state().jsonl {
            j.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static LIFECYCLE_COUNTER: CounterHandle = CounterHandle::new("lifecycle.handle_c");
    static LIFECYCLE_HIST: HistHandle = HistHandle::new("lifecycle.handle_h_ns");
    static LIFECYCLE_KERNEL: PerfCounter = PerfCounter::new("lifecycle_kernel");

    /// The global facade is process-wide state, so the whole sequence
    /// lives in one test: disabled behaviour first, then enable and
    /// exercise every entry point.
    #[test]
    fn facade_lifecycle() {
        // Disabled (no FEDKNOW_OBS in the test environment, `enable`
        // not yet called): everything is inert.
        assert!(!is_enabled());
        count("lifecycle.c", 5);
        record("lifecycle.h", 5);
        gauge("lifecycle.g", 9.0);
        series("lifecycle.s", 9.0);
        LIFECYCLE_COUNTER.add(9);
        LIFECYCLE_HIST.record(9);
        LIFECYCLE_KERNEL.op(100, 50);
        sketch_record("lifecycle.sk", 9.0);
        client_value("lifecycle.cv", 1, 9.0);
        mark_anomalous(1);
        assert!(!client_is_anomalous(1));
        observe_round(&RoundObservation::default());
        observe_forgetting(0.5);
        assert!(health_snapshot().is_none());
        assert_eq!(perf::thread_totals(), (0, 0));
        {
            let _t = timer("lifecycle.t_ns");
            let _ht = LIFECYCLE_HIST.timer();
            let _s = span("lifecycle_span");
            assert_eq!(current_path(), "");
        }
        assert!(snapshot().is_none());
        assert!(!init_from_env());

        enable();
        assert!(is_enabled());
        // The disabled-phase calls must have left no trace.
        let s0 = snapshot().unwrap();
        assert!(!s0.counters.contains_key("lifecycle.c"));
        assert!(!s0.hists.contains_key("lifecycle.h"));
        assert!(!s0.gauges.contains_key("lifecycle.g"));
        assert!(!s0.series.contains_key("lifecycle.s"));
        assert!(!s0.counters.contains_key("lifecycle.handle_c"));

        count("lifecycle.c", 5);
        count("lifecycle.c", 2);
        record("lifecycle.h", 40);
        gauge("lifecycle.g", 1.0);
        gauge("lifecycle.g", 2.5);
        set_round(3);
        assert_eq!(round_index(), 3);
        series("lifecycle.s", 0.5); // lands at the ambient round 3
        series_at("lifecycle.s", 7, 0.25);
        LIFECYCLE_COUNTER.add(2);
        LIFECYCLE_COUNTER.add(3);
        LIFECYCLE_HIST.record(7);
        let (f0, b0) = perf::thread_totals();
        LIFECYCLE_KERNEL.op(64, 32);
        LIFECYCLE_KERNEL.op(6, 3);
        let (f1, b1) = perf::thread_totals();
        assert_eq!((f1 - f0, b1 - b0), (70, 35));
        {
            let _ht = LIFECYCLE_HIST.timer();
        }
        {
            let _t = timer("lifecycle.t_ns");
            let outer = span("lifecycle_outer");
            {
                let _inner = span("lifecycle_inner");
                assert_eq!(current_path(), "lifecycle_outer/lifecycle_inner");
            }
            assert_eq!(current_path(), "lifecycle_outer");
            drop(outer);
            assert_eq!(current_path(), "");
        }
        let s = snapshot().unwrap().since(&s0);
        assert_eq!(s.counters["lifecycle.c"], 7);
        assert_eq!(s.hists["lifecycle.h"].count(), 1);
        assert_eq!(s.hists["lifecycle.t_ns"].count(), 1);
        assert_eq!(s.hists["span.lifecycle_outer_ns"].count(), 1);
        assert_eq!(s.hists["span.lifecycle_inner_ns"].count(), 1);
        assert_eq!(s.gauges["lifecycle.g"], 2.5);
        assert_eq!(s.series["lifecycle.s"], vec![(3, 0.5), (7, 0.25)]);
        // Handles feed the same registry slots as the string API.
        assert_eq!(s.counters["lifecycle.handle_c"], 5);
        assert_eq!(s.hists["lifecycle.handle_h_ns"].count(), 2);
        // Perf counters land under the flops./bytes. namespaces, and the
        // disabled-phase op left no trace.
        assert_eq!(s.counters["flops.lifecycle_kernel"], 70);
        assert_eq!(s.counters["bytes.lifecycle_kernel"], 35);
        count("lifecycle.handle_c", 1);
        let s2 = snapshot().unwrap().since(&s0);
        assert_eq!(s2.counters["lifecycle.handle_c"], 6);

        // Sketches, cohorts, and the health engine — and the
        // disabled-phase calls above left no trace in any of them.
        assert!(!s0.sketches.contains_key("lifecycle.sk"));
        assert!(!s0.cohorts.contains_key("lifecycle.cv"));
        sketch_record("lifecycle.sk", 10.0);
        sketch_record("lifecycle.sk", 20.0);
        client_value("lifecycle.cv", 1, 3.0);
        client_value("lifecycle.cv", 2, 5.0);
        observe_round(&RoundObservation {
            round: 3,
            expected: 2,
            completed: 2,
            round_seconds: 1.0,
            ..Default::default()
        });
        observe_forgetting(0.01);
        let s3 = snapshot().unwrap().since(&s0);
        assert_eq!(s3.sketches["lifecycle.sk"].count, 2);
        assert_eq!(s3.sketches["lifecycle.cv"].count, 2);
        assert_eq!(s3.cohorts["lifecycle.cv"].total_count(), 2);
        // observe_round folded the sketches into per-round series…
        assert!(s3.series.contains_key("sketch.lifecycle.sk.p50"));
        assert!(s3.series.contains_key("sketch.lifecycle.sk.p99"));
        // …and published the health gauges.
        assert_eq!(s3.gauges["health.rounds"], 1.0);
        assert!(s3.gauges.contains_key("health.slo.straggler_rate"));
        let h = health_snapshot().unwrap();
        assert_eq!(h.rounds, 1);
        assert_eq!(h.worst(), SloState::Ok);

        // Anomaly marking and span sampling.
        assert_eq!(span_sample_rate(), 1);
        set_span_sample(10);
        assert!(client_span_sampled(0), "head sample keeps 1-in-10");
        assert!(!client_span_sampled(7));
        mark_anomalous(7);
        assert!(client_is_anomalous(7));
        assert!(client_span_sampled(7), "anomalies bypass sampling");
        {
            let _g = client_span(20); // cohort 20, sampled in
            assert_eq!(current_path(), "client.20");
        }
        {
            let _g = client_span(13); // sampled out: inert, no path pushed
            assert_eq!(current_path(), "");
        }
        set_span_sample(1);

        // Worker-thread path inheritance.
        let root = span("lifecycle_root");
        let path = current_path();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _g = inherit_path(&path);
                let _c = span("lifecycle_worker");
                assert_eq!(current_path(), "lifecycle_root/lifecycle_worker");
            });
        });
        assert_eq!(current_path(), "lifecycle_root");
        drop(root);
        flush(); // no JSONL sink attached; must be a no-op
    }
}
