//! The two kinds of run the command makes, and the metrics and checks
//! each reports.
//!
//! An untraced run runs whole federations of seeds derived from the
//! run's seed for the given seconds and reports the end-to-end metrics.
//! A traced run alternates untraced and traced federations, derives the
//! client-boundary metrics from the decorator's spans, replays the
//! layers on captured state and reports the per-layer metrics.

use crate::replay::{self, Replay};
use crate::rounds::{round_durations_ms, Schedule};
use crate::stats::{interquartile_mean, median, percentile};
use crate::timed::Call;
use crate::workload::{
    assemble, run_federation, Driver, FedRun, Workload, PARTITION, ROUNDS_PER_TASK,
};
use fedknow_baselines::Method;
use fedknow_fl::SimReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// End-to-end metrics, printed by an untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("train_samples_per_s", "samples/s"),
    ("round_ms_iqm", "ms"),
    ("round_ms_p95", "ms"),
    ("wire_bytes", "B"),
    ("peak_rss_mb", "MB"),
    ("upload_delivered_ratio", "ratio"),
];

/// Client-boundary spans reported as busy seconds per federation.
const BUSY_CALLS: [Call; 6] = [
    Call::TrainIteration,
    Call::ReceiveGlobal,
    Call::StartTask,
    Call::FinishTask,
    Call::Evaluate,
    Call::Upload,
];

/// Tasks per federation on every workload (the CIFAR-100 analogue).
pub const TASKS: usize = 10;

/// `core` operations replayed per task index.
const CORE_OPS: [&str; 4] = [
    "core.restore.ms",
    "core.select.ms",
    "core.integrate.ms",
    "core.extract.ms",
];

/// The other replayed operations, timed once per snapshot and repetition.
const LAYER_OPS: [&str; 7] = [
    "fl.fedavg.ms",
    "fl.proto.encode_ms",
    "fl.proto.decode_ms",
    "fl.frame.ms",
    "nn.fwd_bwd.ms",
    "nn.forward_eval.ms",
    "math.distance.ms",
];

/// First task index a `core` operation has work at: restoring,
/// selecting and integrating need the knowledge of an earlier task.
fn first_task(op: &str) -> usize {
    usize::from(op != "core.extract.ms")
}

/// Per-layer metrics, printed by a traced run: name and unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    for call in BUSY_CALLS {
        m.push((format!("fl.{}.busy_s", call.name()), "s"));
    }
    m.push(("fl.train_iteration.us_p50".into(), "us"));
    m.push(("fl.train_iteration.us_p90".into(), "us"));
    m.push(("fl.driver_s".into(), "s"));
    for name in ["fl.client_idle_share", "fl.attributed_share"] {
        m.push((name.into(), "ratio"));
    }
    for name in &LAYER_OPS[..4] {
        m.push((name.to_string(), "ms"));
    }
    for name in ["fl.wire.payload_bytes", "fl.wire.overhead_bytes"] {
        m.push((name.into(), "B"));
    }
    m.push(("fl.wire.frames_dropped".into(), "count"));
    for op in CORE_OPS {
        m.push((op.to_string(), "ms"));
        for t in first_task(op)..TASKS {
            m.push((format!("{op}.t{t}"), "ms"));
        }
    }
    m.push(("core.integrate.acute_ratio".into(), "ratio"));
    for name in &LAYER_OPS[4..] {
        m.push((name.to_string(), "ms"));
    }
    m.push(("nn.fwd_bwd.gflops".into(), "GFLOP/s"));
    for name in ["data.generate_s", "data.partition_s", "fl.assemble_s"] {
        m.push((name.into(), "s"));
    }
    m.push(("obs.trace_overhead_share".into(), "ratio"));
    m.push(("final_acc".into(), "ratio"));
    m.push(("forgetting".into(), "ratio"));
    m
}

/// Distinct federations an untraced run makes at least. With the
/// repeat of the first, that is three: p95 needs 200 rounds even when
/// faults empty a few.
const MIN_DISTINCT: usize = 2;
/// Stand-alone assemblies an untraced run times for `setup_s`.
const SETUP_REPS: usize = 7;
/// Repetitions of each replayed layer call.
const REPLAY_REPS: usize = 3;

/// One measured value and the number of samples it summarises.
#[derive(Debug)]
struct Metric {
    name: String,
    value: f64,
    samples: usize,
}

/// What a run measured and which checks failed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: federations run, self-checks and replays.
    attempted: u64,
    /// One line per failed operation or check.
    failures: Vec<String>,
    /// Lines printed before the metric table.
    notes: Vec<String>,
    metrics: Vec<Metric>,
    /// The metric catalogue this run must print: name and unit.
    expected: Vec<(String, &'static str)>,
}

impl Outcome {
    fn new(expected: Vec<(String, &'static str)>) -> Self {
        Outcome {
            expected,
            ..Default::default()
        }
    }

    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    fn put(&mut self, name: &str, value: f64, samples: usize) {
        assert!(
            self.expected.iter().any(|(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            samples,
        });
    }

    /// Print the metric table, then the result as one JSON line; true
    /// when every operation succeeded and every check passed.
    pub fn print(&self) -> bool {
        for n in &self.notes {
            println!("{n}");
        }
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        let mut fields = Vec::new();
        let mut failed = self.failures.len() as u64;
        for (name, unit) in &self.expected {
            let Some(m) = self.metrics.iter().find(|m| &m.name == name) else {
                println!("FAILED: metric {name} was not measured");
                failed += 1;
                continue;
            };
            println!(
                "{:<34} {:>16.6} {:<10} n={}",
                m.name, m.value, unit, m.samples
            );
            if !m.value.is_finite() {
                println!("FAILED: metric {name} is not finite");
                failed += 1;
                continue;
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                m.value
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            failed == 0,
            self.attempted.max(1),
            failed,
            fields.join(", ")
        );
        failed == 0
    }
}

/// Peak resident set of this process in MB (VmHWM).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Check one federation's report; the reasons it is wrong, if any.
fn check_report(r: &SimReport) -> Vec<String> {
    let mut bad = Vec::new();
    if r.accuracy.num_tasks() != TASKS {
        bad.push(format!(
            "accuracy matrix has {} rows, want {TASKS}",
            r.accuracy.num_tasks()
        ));
        return bad;
    }
    for m in 0..TASKS {
        for k in 0..=m {
            let a = r.accuracy.at(m, k);
            if !(a.is_finite() && (0.0..=1.0).contains(&a)) {
                bad.push(format!("accuracy[{m}][{k}] = {a} is not in [0, 1]"));
            }
        }
    }
    bad
}

/// The figures a seed fixes: they must repeat exactly in every
/// federation of that seed.
fn seed_figures(r: &SimReport) -> (f64, u64, &[fedknow_fl::FaultEvent]) {
    (
        r.accuracy.avg_accuracy_after(TASKS - 1),
        r.total_bytes,
        &r.fault_log,
    )
}

/// A federation plus its derived schedule and round ends.
struct Measured {
    run: FedRun,
    schedule: Schedule,
    ends: Vec<Option<Instant>>,
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests while the federation ran.
    steal_share: f64,
}

/// Steal share above which a federation's timings are set aside when
/// quieter federations already hold enough rounds.
const MAX_STEAL_SHARE: f64 = 0.03;

/// CPU time stolen from this machine by the hypervisor so far ("steal"
/// in `/proc/stat`, summed over CPUs), in seconds; 0 where unknown.
fn stolen_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse::<f64>().ok())
        .unwrap_or(0.0);
    ticks / 100.0
}

/// Run one federation and derive its rounds; failures are recorded.
fn measured_federation(
    w: &Workload,
    seed: u64,
    traced: bool,
    out: &mut Outcome,
) -> Option<Measured> {
    out.attempted += 1;
    let (t0, stolen0) = (Instant::now(), stolen_s());
    let run = match run_federation(w, &w.spec(seed), traced) {
        Ok(run) => run,
        Err(e) => {
            out.fail(e);
            return None;
        }
    };
    let bad = check_report(&run.report);
    if !bad.is_empty() {
        out.fail(format!("{}: {}", w.name, bad.join("; ")));
        return None;
    }
    let schedule = Schedule::from_report(&run.report, w.clients, TASKS, ROUNDS_PER_TASK);
    match schedule.round_ends(&run.logs) {
        Ok(ends) => {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
            let steal_share = (stolen_s() - stolen0) / (cpus * t0.elapsed().as_secs_f64());
            Some(Measured {
                run,
                schedule,
                ends,
                steal_share,
            })
        }
        Err(e) => {
            out.fail(format!("{}: round derivation: {e}", w.name));
            None
        }
    }
}

/// Fail unless `again`, a second federation of `first`'s seed,
/// reproduced its seed figures.
fn check_repeat(first: &Measured, again: &Measured, out: &mut Outcome) {
    if seed_figures(&again.run.report) != seed_figures(&first.run.report) {
        out.fail(format!(
            "two federations of seed {} differ in final accuracy, wire bytes or fault log",
            first.run.seed
        ));
    }
}

/// Seed of the `i`-th distinct federation of a run with seed `seed`.
/// A run covers several inputs, so differences between seeds (fault
/// patterns, QP difficulty) average out inside one run.
pub fn federation_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i as u64)
}

/// Whether `more` federations of the average length so far still fit
/// in the run's measuring time.
fn fits(started: Instant, done: usize, more: usize, seconds: f64) -> bool {
    let spent = started.elapsed().as_secs_f64();
    spent + more as f64 * spent / done as f64 <= seconds
}

/// The untraced run: federations of distinct seeds derived from `seed`
/// for `seconds`, the first of them once more to check that it repeats,
/// then the end-to-end metrics.
pub fn untraced_run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new(
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect(),
    );
    let spec = w.spec(federation_seed(seed, 0));
    let assembly: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let a = assemble(&spec, w.method, &PARTITION, false);
            a.setup.generate_s + a.setup.partition_s + a.setup.assemble_s
        })
        .collect();

    let started = Instant::now();
    let mut distinct = Vec::new();
    let mut tries = 0;
    while tries < MIN_DISTINCT || fits(started, tries, 2, seconds) {
        distinct.extend(measured_federation(
            w,
            federation_seed(seed, tries),
            false,
            &mut out,
        ));
        tries += 1;
    }
    let repeat = measured_federation(w, federation_seed(seed, 0), false, &mut out);
    let first = distinct
        .first()
        .filter(|f| f.run.seed == federation_seed(seed, 0));
    if let (Some(first), Some(again)) = (first, &repeat) {
        check_repeat(first, again, &mut out);
    }
    let all: Vec<&Measured> = distinct.iter().chain(&repeat).collect();
    if distinct.is_empty() {
        return out;
    }

    // Driver start-up: from the end of assembly to the first client
    // call (listener bind and client connections on TCP).
    let startup: Vec<f64> = all
        .iter()
        .map(|m| {
            let s = &m.run.setup;
            m.run.setup_s - (s.generate_s + s.partition_s + s.assemble_s)
        })
        .collect();
    out.put(
        "setup_s",
        median(&assembly) + median(&startup),
        assembly.len(),
    );

    // Time the federations the hypervisor left alone; when they hold
    // fewer than the 200 rounds p95 needs, add the next quietest.
    let rounds_of = |set: &[&Measured]| -> Vec<f64> {
        set.iter()
            .flat_map(|m| round_durations_ms(m.run.start, &m.ends))
            .collect()
    };
    let mut by_steal = all.clone();
    by_steal.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
    let mut timed: Vec<&Measured> = Vec::new();
    for m in by_steal {
        if m.steal_share > MAX_STEAL_SHARE && rounds_of(&timed).len() >= 200 {
            break;
        }
        timed.push(m);
    }
    out.notes.push(format!(
        "timing from {} of {} federations (CPU steal shares: {})",
        timed.len(),
        all.len(),
        all.iter()
            .map(|m| format!("{:.1}%", m.steal_share * 100.0))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let iterations: u64 = timed
        .iter()
        .flat_map(|m| &m.run.logs)
        .map(|l| l.count(Call::TrainIteration))
        .sum();
    let wall: f64 = timed.iter().map(|m| m.run.wall_s()).sum();
    match distinct[0].run.batch_rows {
        Some(rows) => out.put(
            "train_samples_per_s",
            iterations as f64 * rows as f64 / wall,
            iterations as usize,
        ),
        None => out.fail("client tasks differ in size, so batches do too".into()),
    }

    let rounds = rounds_of(&timed);
    let n = rounds.len();
    match (interquartile_mean(&rounds), percentile(&rounds, 95.0)) {
        (Some(iqm), Some(p95)) => {
            out.put("round_ms_iqm", iqm, n);
            out.put("round_ms_p95", p95, n);
        }
        _ => out.fail(format!("{n} rounds are too few for p95")),
    }

    let bytes: Vec<f64> = distinct
        .iter()
        .map(|m| m.run.report.total_bytes as f64)
        .collect();
    out.put(
        "wire_bytes",
        bytes.iter().sum::<f64>() / bytes.len() as f64,
        bytes.len(),
    );
    match peak_rss_mb() {
        Some(mb) => out.put("peak_rss_mb", mb, 1),
        None => out.fail("cannot read VmHWM from /proc/self/status".into()),
    }
    let scheduled: u64 = distinct.iter().map(|m| m.schedule.uploads_scheduled).sum();
    let failed: u64 = distinct.iter().map(|m| m.schedule.uploads_failed).sum();
    out.put(
        "upload_delivered_ratio",
        (scheduled - failed) as f64 / scheduled as f64,
        scheduled as usize,
    );
    out
}

/// Client-boundary figures of one traced federation.
struct Boundary {
    busy: [f64; Call::ALL.len()],
    driver_s: f64,
    idle_share: f64,
    attributed: f64,
    window: f64,
}

fn boundary(run: &FedRun) -> Boundary {
    let wall = run.wall_s();
    let mut busy = [0.0; Call::ALL.len()];
    let (mut attributed, mut window) = (0.0, 0.0);
    let mut spans: Vec<(Instant, Instant)> = Vec::new();
    for log in &run.logs {
        for s in &log.spans {
            let d = (s.end - s.start).as_secs_f64();
            busy[s.call as usize] += d;
            attributed += d;
            spans.push((s.start, s.end));
        }
        if let (Some(a), Some(b)) = (log.spans.first(), log.spans.last()) {
            window += (b.end - a.start).as_secs_f64();
        }
    }
    // The driver's time is the wall time no client call covers: the
    // union of all spans blocks the run, whatever thread ran them.
    spans.sort();
    let mut covered = 0.0;
    let mut reach = run.start;
    for (start, end) in spans {
        if end > reach {
            covered += (end - start.max(reach)).as_secs_f64();
            reach = end;
        }
    }
    Boundary {
        busy,
        driver_s: wall - covered,
        idle_share: 1.0 - attributed / (run.logs.len() as f64 * wall),
        attributed,
        window,
    }
}

/// Fail unless the in-process `Simulation` reproduces a TCP run's
/// report for the same seed.
fn tcp_matches_in_process(w: &Workload, seed: u64, tcp: &SimReport, out: &mut Outcome) {
    let in_process = Workload {
        driver: Driver::InProcess,
        ..*w
    };
    out.attempted += 1;
    match run_federation(&in_process, &in_process.spec(seed), false) {
        Ok(sim) if &sim.report == tcp => {}
        Ok(_) => out.fail(format!(
            "{}: the TCP report differs from the in-process Simulation's",
            w.name
        )),
        Err(e) => out.fail(format!("{}: in-process self-check: {e}", w.name)),
    }
}

/// The traced run: pairs of untraced and traced federations for
/// `seconds`, the TCP self-check, the layer replays, then the per-layer
/// metrics.
pub fn traced_run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new(per_layer());
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut pairs = 0;
    while pairs == 0 || fits(started, pairs, 1, seconds) {
        let s = federation_seed(seed, pairs);
        pairs += 1;
        let p = measured_federation(w, s, false, &mut out);
        let t = measured_federation(w, s, true, &mut out);
        if let (Some(p), Some(t)) = (&p, &t) {
            check_repeat(p, t, &mut out);
        }
        plain.extend(p);
        traced.extend(t);
    }
    let all: Vec<&Measured> = plain.iter().chain(&traced).collect();
    let (Some(first), false) = (traced.first(), plain.is_empty()) else {
        return out;
    };
    if w.driver == Driver::Tcp {
        tcp_matches_in_process(w, first.run.seed, &first.run.report, &mut out);
    }

    let feds = traced.len() as f64;
    let bounds: Vec<Boundary> = traced.iter().map(|m| boundary(&m.run)).collect();
    for call in BUSY_CALLS {
        let busy: f64 = bounds.iter().map(|b| b.busy[call as usize]).sum();
        out.put(
            &format!("fl.{}.busy_s", call.name()),
            busy / feds,
            traced.len(),
        );
    }
    let iteration_us: Vec<f64> = traced
        .iter()
        .flat_map(|m| &m.run.logs)
        .flat_map(|l| &l.spans)
        .filter(|s| s.call == Call::TrainIteration)
        .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
        .collect();
    for (name, p) in [
        ("fl.train_iteration.us_p50", 50.0),
        ("fl.train_iteration.us_p90", 90.0),
    ] {
        match percentile(&iteration_us, p) {
            Some(v) => out.put(name, v, iteration_us.len()),
            None => out.fail(format!(
                "{name}: {} iterations are too few",
                iteration_us.len()
            )),
        }
    }
    let mean = |f: fn(&Boundary) -> f64| bounds.iter().map(f).sum::<f64>() / feds;
    out.put("fl.driver_s", mean(|b| b.driver_s), traced.len());
    out.put("fl.client_idle_share", mean(|b| b.idle_share), traced.len());
    let attributed: f64 = bounds.iter().map(|b| b.attributed).sum();
    let window: f64 = bounds.iter().map(|b| b.window).sum();
    out.put("fl.attributed_share", attributed / window, traced.len());

    let wire = first.run.wire.unwrap_or_default();
    out.put("fl.wire.payload_bytes", wire.payload as f64, 1);
    out.put("fl.wire.overhead_bytes", wire.overhead as f64, 1);
    out.put("fl.wire.frames_dropped", wire.frames_dropped as f64, 1);

    let spec = w.spec(seed);
    let fedknow = (w.method == Method::FedKnow).then_some(&spec.method_cfg.fedknow);
    let shape = [
        spec.dataset.channels,
        spec.dataset.height,
        spec.dataset.width,
    ];
    let mut rep = Replay::default();
    out.attempted += 1;
    let replayed = catch_unwind(AssertUnwindSafe(|| {
        replay::server_and_wire(&first.run, REPLAY_REPS, &mut rep)?;
        replay::model_layers(
            &first.run,
            fedknow,
            &shape,
            spec.method_cfg.batch_size,
            REPLAY_REPS,
            &mut rep,
        );
        Ok::<(), String>(())
    }));
    match replayed {
        Ok(Ok(())) => {}
        Ok(Err(e)) => out.fail(format!("{}: replay: {e}", w.name)),
        Err(_) => out.fail(format!("{}: a replay panicked", w.name)),
    }
    // An operation a workload never reaches (`core` on FedAvg) reads 0
    // with no samples.
    for op in LAYER_OPS.into_iter().chain(CORE_OPS) {
        let (v, n) = rep.timings.median(op).unwrap_or((0.0, 0));
        out.put(op, v, n);
    }
    for op in CORE_OPS {
        for t in first_task(op)..TASKS {
            let (v, n) = rep.timings.median_at(op, t).unwrap_or((0.0, 0));
            out.put(&format!("{op}.t{t}"), v, n);
        }
    }
    let acute = if rep.integrated == 0 {
        0.0
    } else {
        rep.acute as f64 / rep.integrated as f64
    };
    out.put("core.integrate.acute_ratio", acute, rep.integrated);
    let gflops = if rep.fwd_bwd_gflops.is_empty() {
        0.0
    } else {
        median(&rep.fwd_bwd_gflops)
    };
    out.put("nn.fwd_bwd.gflops", gflops, rep.fwd_bwd_gflops.len());

    let setups: Vec<_> = all.iter().map(|m| m.run.setup).collect();
    let med = |f: fn(&crate::workload::SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<_>>())
    };
    out.put("data.generate_s", med(|s| s.generate_s), setups.len());
    out.put("data.partition_s", med(|s| s.partition_s), setups.len());
    out.put("fl.assemble_s", med(|s| s.assemble_s), setups.len());

    let walls = |v: &[Measured]| median(&v.iter().map(|m| m.run.wall_s()).collect::<Vec<_>>());
    out.put(
        "obs.trace_overhead_share",
        walls(&traced) / walls(&plain) - 1.0,
        traced.len(),
    );
    let quality = |f: fn(&fedknow_fl::AccuracyMatrix) -> f64| {
        traced
            .iter()
            .map(|m| f(&m.run.report.accuracy))
            .sum::<f64>()
            / feds
    };
    out.put(
        "final_acc",
        quality(|a| a.avg_accuracy_after(TASKS - 1)),
        traced.len(),
    );
    out.put(
        "forgetting",
        quality(|a| a.avg_forgetting_after(TASKS - 1)),
        traced.len(),
    );
    out
}
