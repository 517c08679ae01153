//! The synchronous FedAvg round, written once: a sans-IO
//! [`RoundEngine`] that owns the run's ledger, and the [`contribute`]
//! step that turns a client's local round into what the server receives.
//!
//! FedKNOW and every baseline are client-side methods on the same round
//! (§III-A). Two drivers run it: [`Simulation`] calls clients as
//! functions on worker threads, and [`FederationRuntime`] exchanges
//! [`WireMsg`] frames with client actors over a [`Transport`]. The
//! drivers do only I/O; the order in which the ledger is written lives
//! here alone:
//!
//! 1. [`RoundEngine::begin_round`]: fault draw, rejoin resyncs (through
//!    a driver callback), crashes → participation;
//! 2. [`RoundEngine::close_round`]: one [`Contribution`] per participant
//!    in, deadline assessment, upload staging, FedAvg, quarantine,
//!    communication accounting and telemetry folds, the broadcast out;
//! 3. [`RoundEngine::close_task`]: retained bytes and evaluation rows in,
//!    OOM dropout and the accuracy matrices;
//! 4. [`RoundEngine::report`]: the [`SimReport`].
//!
//! Faults come from the pure [`FaultPlan`], so a seeded run writes the
//! identical fault log and reaches a bit-identical final model whichever
//! driver, backend or thread count ran it.
//!
//! [`Simulation`]: crate::sim::Simulation
//! [`FederationRuntime`]: crate::actor::FederationRuntime
//! [`Transport`]: crate::transport::Transport
//! [`WireMsg`]: crate::proto::WireMsg

use crate::client::{FclClient, Payload};
use crate::comm::CommModel;
use crate::device::DeviceProfile;
use crate::faults::{FaultEvent, FaultKind, FaultPlan, RoundFaults};
use crate::metrics::{mean_matrix, AccuracyMatrix};
use crate::proto::UploadMeta;
use crate::server::{fedavg, RejectReason};
use crate::sim::{PhaseBreakdown, SimCheckpoint, SimConfig, SimError, SimReport};
use fedknow_data::ClientDataset;
use fedknow_math::rng::substream;
use fedknow_nn::checkpoint::Checkpoint as ParamCheckpoint;
use rand::rngs::StdRng;

/// The fleet invariants both drivers' constructors enforce: one dataset
/// and one device per client, at least one client, and the same number
/// of tasks for everyone.
pub(crate) fn check_fleet(clients: usize, data: &[ClientDataset], devices: &[DeviceProfile]) {
    assert_eq!(clients, data.len(), "one dataset per client");
    assert_eq!(clients, devices.len(), "one device per client");
    assert!(clients > 0);
    let t0 = data[0].tasks.len();
    assert!(
        data.iter().all(|d| d.tasks.len() == t0),
        "task counts differ across clients"
    );
}

/// Client `c`'s training RNG stream in a run seeded with `seed`.
pub(crate) fn client_stream(seed: u64, c: usize) -> StdRng {
    substream(seed, 0xF1_0000 + c as u64)
}

/// One client's share of a round, as the server receives it.
pub(crate) struct Contribution {
    /// Ledger bookkeeping; it arrives even when the parameters do not.
    pub meta: UploadMeta,
    /// The uploaded parameters: `None` when the client had none or the
    /// link lost them.
    pub params: Option<Vec<f32>>,
    /// Method payloads published this round, tagged with the sender.
    pub payloads: Vec<Payload>,
}

/// Run client `id`'s local round and assemble its contribution. Both
/// drivers call the client in this order: `iters` × `train_iteration`,
/// `upload`, `payload_out`, `extra_comm`, `base_comm`.
pub(crate) fn contribute(
    client: &mut dyn FclClient,
    rng: &mut StdRng,
    id: usize,
    iters: usize,
    weight: u64,
    model_bytes: u64,
) -> Contribution {
    let mut flops = 0u64;
    let mut loss_sum = 0.0f64;
    for _ in 0..iters {
        let s = client.train_iteration(rng);
        flops += s.flops;
        loss_sum += s.loss;
    }
    let params = client.upload();
    let mut payloads = client.payload_out();
    for p in &mut payloads {
        p.from_client = id;
    }
    let extra = client.extra_comm();
    let base = client.base_comm(model_bytes);
    Contribution {
        meta: UploadMeta {
            weight,
            flops,
            loss_sum,
            iters: iters as u64,
            base_up: base.up,
            base_down: base.down,
            extra_up: extra.up,
            extra_down: extra.down,
            had_params: params.is_some(),
        },
        params,
        payloads,
    }
}

impl Contribution {
    /// Pass the upload through this round's link faults the way the wire
    /// seam does ([`send_upload_faulty`]): corruption damages the
    /// parameters in flight, and a fully lost upload arrives without
    /// them.
    ///
    /// [`send_upload_faulty`]: crate::transport::send_upload_faulty
    pub(crate) fn through_link(mut self, f: &RoundFaults) -> Self {
        if let (Some(corr), Some(v)) = (f.corruption, self.params.as_mut()) {
            corr.apply(v);
        }
        if f.upload_lost {
            self.params = None;
        }
        self
    }
}

/// An open round, from [`RoundEngine::begin_round`] to
/// [`RoundEngine::close_round`].
pub(crate) struct RoundStart {
    /// Global round index: `task × rounds_per_task + round`.
    pub round: u64,
    /// This round's faults, per client.
    pub faults: Vec<RoundFaults>,
    /// Participation: active clients minus this round's crashes.
    pub part: Vec<bool>,
    /// Link seconds each rejoin resync costs its client this round.
    rejoin_secs: Vec<f64>,
}

/// What [`RoundEngine::close_round`] hands the driver to broadcast to
/// the round's participants.
pub(crate) struct RoundClose {
    /// The FedAvg aggregate, `None` when no upload survived.
    pub global: Option<Vec<f32>>,
    /// Every payload published this round.
    pub payloads: Vec<Payload>,
}

/// The current task's running totals, folded into the ledger by
/// [`RoundEngine::close_task`].
#[derive(Default)]
struct TaskTotals {
    compute: f64,
    comm: f64,
    loss_sum: f64,
    loss_iters: usize,
}

/// The round ledger of one run, shared by both drivers.
pub(crate) struct RoundEngine {
    /// The run's ledger, kept in checkpoint form. Its client half
    /// (`rng_states`, `client_params`) stays empty: client state is the
    /// driver's.
    ledger: SimCheckpoint,
    num_tasks: usize,
    devices: Vec<DeviceProfile>,
    comm: CommModel,
    cfg: SimConfig,
    plan: FaultPlan,
    task: TaskTotals,
    /// Registry snapshot at run start, diffed into the report's
    /// [`PhaseBreakdown`].
    obs_before: Option<fedknow_obs::MetricsSnapshot>,
    run_span: fedknow_obs::SpanGuard,
}

impl RoundEngine {
    /// Start a run of `method` over `num_tasks` tasks, one client per
    /// device. Attaches observability from the environment, registers
    /// the run's identity for postmortem bundles, head-samples client
    /// spans above 256 clients (unless the user pinned a rate), then
    /// snapshots the registry and opens the `run` span.
    pub(crate) fn start(
        method: &str,
        num_tasks: usize,
        devices: Vec<DeviceProfile>,
        comm: CommModel,
        cfg: SimConfig,
    ) -> Self {
        fedknow_obs::init_from_env();
        fedknow_verify::init_from_env();
        let n = devices.len();
        if n > 256 && std::env::var_os(fedknow_obs::ENV_SPAN_SAMPLE).is_none() {
            fedknow_obs::set_span_sample((n / 256) as u64);
        }
        if fedknow_obs::is_enabled() {
            fedknow_obs::set_context("sim.method", method);
            fedknow_obs::set_context("sim.seed", &cfg.seed.to_string());
            if let Ok(json) = serde_json::to_string(&cfg) {
                fedknow_obs::set_context("sim.config", &json);
            }
        }
        Self {
            ledger: SimCheckpoint {
                version: SimCheckpoint::VERSION,
                method: method.to_string(),
                seed: cfg.seed,
                rounds_per_task: cfg.rounds_per_task,
                iters_per_round: cfg.iters_per_round,
                faults: cfg.faults,
                next_task: 0,
                active: vec![true; n],
                missed_broadcast: vec![false; n],
                dropouts: Vec::new(),
                matrices: vec![AccuracyMatrix::new(); n],
                task_compute: Vec::new(),
                task_comm: Vec::new(),
                task_loss: Vec::new(),
                total_bytes: 0,
                prev_global: None,
                last_global: None,
                fault_log: Vec::new(),
                rng_states: Vec::new(),
                client_params: Vec::new(),
            },
            num_tasks,
            plan: FaultPlan::new(cfg.seed, cfg.faults),
            task: TaskTotals::default(),
            obs_before: fedknow_obs::snapshot(),
            run_span: fedknow_obs::span("run"),
            devices,
            comm,
            cfg,
        }
    }

    /// The run's loop shape and seed.
    pub(crate) fn cfg(&self) -> &SimConfig {
        &self.cfg
    }

    /// Tasks in the stream.
    pub(crate) fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// The task the next round belongs to.
    pub(crate) fn next_task(&self) -> usize {
        self.ledger.next_task
    }

    /// Clients still in the federation (not dropped for OOM).
    pub(crate) fn active(&self) -> &[bool] {
        &self.ledger.active
    }

    /// Open round `round` of the current task. Draws the round's faults
    /// in client order; re-sends the last global to every active client
    /// that missed a broadcast and is not crashing again, through
    /// `resync(client, round, global)`, which returns the client's
    /// modeled download bytes; then logs this round's crashes.
    pub(crate) fn begin_round(
        &mut self,
        round: usize,
        mut resync: impl FnMut(usize, u64, &[f32]) -> u64,
    ) -> RoundStart {
        let round = (self.ledger.next_task * self.cfg.rounds_per_task + round) as u64;
        // The ambient tag every deep instrumentation site (integrator,
        // restorer, wire trace) stamps its records with.
        fedknow_obs::set_round(round);
        let inert = self.plan.config().is_inert();
        let l = &mut self.ledger;
        let n = l.active.len();
        let faults: Vec<RoundFaults> = (0..n)
            .map(|c| {
                if inert || !l.active[c] {
                    RoundFaults::none()
                } else {
                    self.plan.draw(c, round)
                }
            })
            .collect();

        // Rejoin: the re-sent broadcast is charged as a model download.
        let mut rejoin_secs = vec![0.0f64; n];
        for c in 0..n {
            if !l.active[c] || faults[c].crash || !l.missed_broadcast[c] {
                continue;
            }
            l.missed_broadcast[c] = false;
            if let Some(g) = &l.last_global {
                let down = resync(c, round, g);
                l.total_bytes += down;
                fedknow_obs::count("comm.download_bytes", down);
                fedknow_obs::count("fl.rejoins", 1);
                record_fault(&mut l.fault_log, round, c, FaultKind::Rejoin, 0);
                rejoin_secs[c] = self.comm.transfer_seconds(down);
            }
        }

        let part: Vec<bool> = (0..n).map(|c| l.active[c] && !faults[c].crash).collect();
        for c in (0..n).filter(|&c| l.active[c] && faults[c].crash) {
            fedknow_obs::count("fl.crashes", 1);
            record_fault(&mut l.fault_log, round, c, FaultKind::Crash, 0);
        }
        if !inert && fedknow_obs::is_enabled() {
            let frac = part.iter().filter(|&&p| p).count() as f64 / n as f64;
            fedknow_obs::series("fl.participation", frac);
        }
        RoundStart {
            round,
            faults,
            part,
            rejoin_secs,
        }
    }

    /// Close `start` over the contributions that reached the server, by
    /// client (`None` for absent clients). `queue_depth` is the server
    /// inbox backlog — zero in process, where the inbox is a function
    /// call. Returns the aggregate and payloads to broadcast.
    pub(crate) fn close_round(
        &mut self,
        start: &RoundStart,
        contributions: Vec<Option<Contribution>>,
        queue_depth: u64,
    ) -> Result<RoundClose, SimError> {
        let (round, faults, part) = (start.round, &start.faults, &start.part);
        let n = part.len();
        let l = &mut self.ledger;
        let metas: Vec<Option<UploadMeta>> = contributions
            .iter()
            .map(|rc| rc.as_ref().map(|rc| rc.meta))
            .collect();
        for m in metas.iter().flatten() {
            self.task.loss_sum += m.loss_sum;
            self.task.loss_iters += m.iters as usize;
        }

        // The slowest participant gates the synchronous round;
        // stragglers run `slowdown ×` their nominal time, and an optional
        // deadline (a multiple of the slowest *nominal* time) caps how
        // long the server waits.
        let flops: Vec<Option<u64>> = metas.iter().map(|m| m.map(|m| m.flops)).collect();
        let assess = assess_compute(
            &flops,
            &self.devices,
            faults,
            self.plan.config().deadline_factor,
            round,
            &mut l.fault_log,
        );
        self.task.compute += assess.round_compute;

        // Uploads through the ledger: the link already damaged or lost
        // them, so here they are logged and deadline misses excluded.
        let mut uploads: Vec<Option<Vec<f32>>> = Vec::with_capacity(n);
        let mut weights: Vec<usize> = Vec::with_capacity(n);
        let mut attempts = vec![0u32; n];
        let mut backoff = vec![0.0f64; n];
        let mut payloads: Vec<Payload> = Vec::new();
        let mut payload_up = vec![0u64; n];
        for (c, rc) in contributions.into_iter().enumerate() {
            let Some(rc) = rc else {
                uploads.push(None);
                weights.push(0);
                continue;
            };
            weights.push(rc.meta.weight as usize);
            let mut up = rc.params;
            let staged = stage_upload(
                &mut up,
                rc.meta.had_params,
                &faults[c],
                &self.plan,
                assess.deadline_missed[c],
                round,
                c,
                &mut l.fault_log,
            );
            attempts[c] = staged.attempts;
            backoff[c] = staged.backoff;
            uploads.push(up);
            payload_up[c] = rc.payloads.iter().map(Payload::size_bytes).sum();
            payloads.extend(rc.payloads);
        }

        // Aggregation. Validation quarantines malformed uploads, which
        // are then dropped so telemetry sees the server-accepted view.
        let agg = fedavg(&uploads, &weights)?;
        for r in &agg.rejected {
            let detail = match r.reason {
                RejectReason::NonFinite { index } => index as u64,
                RejectReason::DimensionMismatch { got, .. } => got as u64,
            };
            fedknow_obs::count("fl.uploads_rejected", 1);
            record_fault(
                &mut l.fault_log,
                round,
                r.client,
                FaultKind::UploadRejected,
                detail,
            );
            uploads[r.client] = None;
        }
        fold_aggregate_telemetry(&uploads, &agg.global, &mut l.prev_global);

        // Modeled communication, per participant, gated by the slowest
        // link: lost attempts burn bytes, retry backoff and rejoin
        // downloads are charged as link time, and every client downloads
        // every payload but its own.
        let payload_total: u64 = payload_up.iter().sum();
        let mut round_comm = 0.0f64;
        for c in (0..n).filter(|&c| part[c]) {
            let m = metas[c].unwrap_or_default();
            let up = m.base_up * attempts[c] as u64 + m.extra_up + payload_up[c];
            let base_down = if agg.global.is_some() { m.base_down } else { 0 };
            let down = base_down + m.extra_down + payload_total - payload_up[c];
            l.total_bytes += up + down;
            fedknow_obs::count("comm.upload_bytes", up);
            fedknow_obs::count("comm.download_bytes", down);
            let link = self.comm.transfer_seconds(up + down) + backoff[c] + start.rejoin_secs[c];
            round_comm = round_comm.max(link);
        }
        self.task.comm += round_comm;

        fold_round_telemetry(
            start,
            &l.active,
            &assess.actual,
            uploads.iter().filter(|u| u.is_some()).count() as u64,
            agg.rejected.len() as u64,
            assess.round_compute + round_comm,
            queue_depth,
        );

        // Active clients that sit this broadcast out are owed a rejoin.
        if let Some(g) = &agg.global {
            for ((missed, &a), &p) in l.missed_broadcast.iter_mut().zip(&l.active).zip(part) {
                *missed |= a && !p;
            }
            l.last_global = Some(g.clone());
        }
        Ok(RoundClose {
            global: agg.global,
            payloads,
        })
    }

    /// Close the current task. `retained[c]` is client `c`'s retained
    /// state after `finish_task` (ignored for inactive clients): active
    /// clients over their device budget drop out. `rows` holds one
    /// evaluation row per client, dropped ones included (they keep a
    /// stale model).
    pub(crate) fn close_task(
        &mut self,
        retained: &[u64],
        rows: Vec<Vec<f64>>,
    ) -> Result<(), SimError> {
        let l = &mut self.ledger;
        let step = l.next_task;
        for (c, active) in l.active.iter_mut().enumerate() {
            if *active && self.devices[c].would_oom(retained[c]) {
                *active = false;
                l.dropouts.push((c, step));
            }
        }
        for (m, row) in l.matrices.iter_mut().zip(rows) {
            m.push_row(row)?;
        }
        if fedknow_obs::is_enabled() {
            record_forgetting(&l.matrices, step);
        }
        let t = std::mem::take(&mut self.task);
        l.task_compute.push(t.compute);
        l.task_comm.push(t.comm);
        l.task_loss.push(if t.loss_iters > 0 {
            t.loss_sum / t.loss_iters as f64
        } else {
            0.0
        });
        l.next_task = step + 1;
        Ok(())
    }

    /// Close the run span and produce the report, attributing this run's
    /// metrics by registry snapshot difference.
    pub(crate) fn report(self) -> SimReport {
        let Self {
            ledger: l,
            obs_before,
            run_span,
            ..
        } = self;
        drop(run_span);
        let phase_breakdown = obs_before.and_then(|before| {
            fedknow_obs::snapshot().map(|after| PhaseBreakdown::from_metrics(&after.since(&before)))
        });
        fedknow_obs::flush();
        SimReport {
            method: l.method,
            accuracy: mean_matrix(&l.matrices),
            task_compute_seconds: l.task_compute,
            task_comm_seconds: l.task_comm,
            total_bytes: l.total_bytes,
            dropouts: l.dropouts,
            task_mean_loss: l.task_loss,
            phase_breakdown,
            fault_log: l.fault_log,
        }
    }

    /// A checkpoint at the current task boundary: the ledger plus the
    /// client half the in-process driver holds.
    pub(crate) fn checkpoint(
        &self,
        rng_states: Vec<Vec<u64>>,
        client_params: Vec<Option<ParamCheckpoint>>,
    ) -> SimCheckpoint {
        SimCheckpoint {
            rng_states,
            client_params,
            ..self.ledger.clone()
        }
    }

    /// Validate `ck` against this run's method, configuration, fleet size
    /// and task stream, and adopt its ledger. Restoring the client half
    /// is the driver's job.
    pub(crate) fn restore(&mut self, ck: &SimCheckpoint) -> Result<(), SimError> {
        let (l, n) = (&self.ledger, self.devices.len());
        let bad = |msg: String| Err(SimError::BadCheckpoint(msg));
        if ck.version != SimCheckpoint::VERSION {
            return bad(format!(
                "version {} (this build reads {})",
                ck.version,
                SimCheckpoint::VERSION
            ));
        }
        if ck.method != l.method {
            return bad(format!(
                "checkpoint is for method '{}', simulation runs '{}'",
                ck.method, l.method
            ));
        }
        if ck.seed != l.seed
            || ck.rounds_per_task != l.rounds_per_task
            || ck.iters_per_round != l.iters_per_round
            || ck.faults != l.faults
        {
            return bad(
                "seed, loop shape, or fault config differs from the interrupted run".into(),
            );
        }
        if ck.active.len() != n
            || ck.missed_broadcast.len() != n
            || ck.matrices.len() != n
            || ck.rng_states.len() != n
            || ck.client_params.len() != n
        {
            return bad(format!(
                "checkpoint holds {} clients, simulation has {n}",
                ck.client_params.len()
            ));
        }
        if ck.next_task > self.num_tasks {
            return bad(format!(
                "checkpoint resumes at task {}, stream has {}",
                ck.next_task, self.num_tasks
            ));
        }
        self.ledger = SimCheckpoint {
            rng_states: Vec::new(),
            client_params: Vec::new(),
            ..ck.clone()
        };
        Ok(())
    }
}

/// Append one fault to the run's log, mirroring it into the
/// observability flight recorder. Crash and quarantine faults — the
/// two kinds that end a client's participation abruptly — also
/// request a (throttled) postmortem bundle dump when
/// `FEDKNOW_TRACE_DIR` is configured.
fn record_fault(
    log: &mut Vec<FaultEvent>,
    round: u64,
    client: usize,
    kind: FaultKind,
    detail: u64,
) {
    fedknow_obs::fault(client as u64, kind.label(), detail);
    if matches!(kind, FaultKind::Crash | FaultKind::UploadRejected) {
        fedknow_obs::dump_trigger(&format!("fault_{}", kind.label()));
    }
    log.push(FaultEvent {
        round,
        client,
        kind,
        detail,
    });
}

/// The simulated-time view of one round's local training: per-client
/// actual seconds (nominal × straggler slowdown), which clients
/// overshoot the deadline, and the compute seconds the synchronous
/// server spends waiting.
struct ComputeAssessment {
    /// Per-client actual seconds, `None` for absent clients.
    pub actual: Vec<Option<f64>>,
    /// Clients excluded from this round's FedAvg by the deadline.
    pub deadline_missed: Vec<bool>,
    /// The round's simulated compute seconds (slowest survivor, or the
    /// full deadline window when anyone missed it).
    pub round_compute: f64,
}

/// Assess the round's compute time and deadline, logging Straggle and
/// DeadlineMiss events: one client-order pass for slowdowns, then one
/// for deadline misses.
fn assess_compute(
    flops: &[Option<u64>],
    devices: &[DeviceProfile],
    faults: &[RoundFaults],
    deadline_factor: f64,
    round: u64,
    log: &mut Vec<FaultEvent>,
) -> ComputeAssessment {
    let n = flops.len();
    let mut nominal_max = 0.0f64;
    let mut actual = vec![None::<f64>; n];
    for (c, f) in flops.iter().enumerate() {
        if let Some(f) = f {
            let nominal = devices[c].compute_seconds(*f);
            nominal_max = nominal_max.max(nominal);
            actual[c] = Some(nominal * faults[c].slowdown);
            if faults[c].slowdown > 1.0 {
                record_fault(
                    log,
                    round,
                    c,
                    FaultKind::Straggle,
                    (faults[c].slowdown * 1000.0).round() as u64,
                );
            }
        }
    }
    let deadline = (deadline_factor > 0.0).then_some(deadline_factor * nominal_max);
    let mut deadline_missed = vec![false; n];
    let mut round_compute: f64 = 0.0;
    let mut any_miss = false;
    for c in 0..n {
        let Some(a) = actual[c] else { continue };
        if deadline.is_some_and(|d| a > d) {
            deadline_missed[c] = true;
            any_miss = true;
            fedknow_obs::count("fl.deadline_misses", 1);
            record_fault(
                log,
                round,
                c,
                FaultKind::DeadlineMiss,
                (faults[c].slowdown * 1000.0).round() as u64,
            );
        } else {
            round_compute = round_compute.max(a);
        }
    }
    if any_miss {
        // The server waits out the full deadline window.
        round_compute = round_compute.max(deadline.unwrap_or(0.0));
    }
    ComputeAssessment {
        actual,
        deadline_missed,
        round_compute,
    }
}

/// Ledger outcome of staging one client's upload through the faulty
/// link.
struct StagedUpload {
    /// Transmissions of the base upload (retries burn wire bytes even
    /// when they fail).
    pub attempts: u32,
    /// Retry backoff charged to this client's link time.
    pub backoff: f64,
}

/// Stage one participating client's upload through this round's faults:
/// corruption, loss/retry with backoff, and deadline exclusion, logging
/// Corrupt / UploadRetry / UploadLost events in the protocol's order.
///
/// The link has already realized the damage ([`Contribution::through_link`]
/// in process, the frame bytes on a transport); only the events are
/// ledgered here. `had_upload` is whether the client produced an upload
/// at all, which its metadata reports because a fully lost upload
/// arrives as nothing.
#[allow(clippy::too_many_arguments)]
fn stage_upload(
    up: &mut Option<Vec<f32>>,
    had_upload: bool,
    f: &RoundFaults,
    plan: &FaultPlan,
    deadline_missed: bool,
    round: u64,
    client: usize,
    log: &mut Vec<FaultEvent>,
) -> StagedUpload {
    let mut staged = StagedUpload {
        attempts: 0,
        backoff: 0.0,
    };
    if !had_upload {
        return staged;
    }
    if let Some(corr) = f.corruption {
        record_fault(log, round, client, FaultKind::Corrupt, corr.mode as u64);
    }
    staged.attempts = f.upload_attempts();
    let lost = f.lost_attempts;
    if lost > 0 {
        let retries = lost.min(plan.config().max_retries);
        fedknow_obs::count("fl.retries", retries as u64);
        staged.backoff = plan.backoff_seconds(retries);
        if f.upload_lost {
            *up = None;
            fedknow_obs::count("fl.uploads_lost", 1);
            record_fault(log, round, client, FaultKind::UploadLost, lost as u64);
        } else {
            record_fault(log, round, client, FaultKind::UploadRetry, lost as u64);
        }
    }
    if deadline_missed {
        // Transmitted, but arrived after the server closed the round:
        // excluded from FedAvg.
        *up = None;
    }
    staged
}

/// Mean relative L2 distance of the client uploads from the aggregate,
/// `mean_c ‖u_c − g‖ / ‖g‖` — the dispersion the server sees *before*
/// FedAvg collapses it. `None` when nothing was uploaded or `g` is zero.
fn upload_divergence(uploads: &[Option<Vec<f32>>], global: &[f32]) -> Option<f64> {
    let g_norm = global
        .iter()
        .map(|&v| v as f64 * v as f64)
        .sum::<f64>()
        .sqrt();
    if g_norm == 0.0 {
        return None;
    }
    let mut sum = 0.0f64;
    let mut n = 0usize;
    for u in uploads.iter().flatten() {
        let d = u
            .iter()
            .zip(global)
            .map(|(&a, &b)| (a as f64 - b as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        sum += d / g_norm;
        n += 1;
    }
    (n > 0).then(|| sum / n as f64)
}

/// Relative L2 movement `‖now − prev‖ / ‖prev‖` of the global model
/// across one aggregation (`0` for a zero previous model).
fn relative_l2(prev: &[f32], now: &[f32]) -> f64 {
    let p_norm = prev
        .iter()
        .map(|&v| v as f64 * v as f64)
        .sum::<f64>()
        .sqrt();
    if p_norm == 0.0 {
        return 0.0;
    }
    let d = prev
        .iter()
        .zip(now)
        .map(|(&a, &b)| (a as f64 - b as f64).powi(2))
        .sum::<f64>()
        .sqrt();
    d / p_norm
}

/// Aggregate-quality telemetry after FedAvg: upload dispersion and
/// global drift series. `prev_global` tracking is part of the
/// telemetry (only advanced while obs is enabled — it feeds the drift
/// series and nothing else functional).
fn fold_aggregate_telemetry(
    uploads: &[Option<Vec<f32>>],
    global: &Option<Vec<f32>>,
    prev_global: &mut Option<Vec<f32>>,
) {
    if !fedknow_obs::is_enabled() {
        return;
    }
    if let Some(g) = global {
        if let Some(div) = upload_divergence(uploads, g) {
            fedknow_obs::gauge("fl.update_divergence", div);
            fedknow_obs::series("fl.update_divergence", div);
        }
        if let Some(prev) = prev_global {
            fedknow_obs::series("fl.global_drift", relative_l2(prev, g));
        }
        *prev_global = Some(g.clone());
    }
}

/// Per-round telemetry fold: cohorted client compute times,
/// slowest-decile anomaly marking (those clients' spans bypass head
/// sampling), and the streaming health engine's SLO update.
/// `queue_depth` is the server inbox backlog observed at fold time.
fn fold_round_telemetry(
    start: &RoundStart,
    active: &[bool],
    actual: &[Option<f64>],
    completed: u64,
    quarantined: u64,
    round_seconds: f64,
    queue_depth: u64,
) {
    if !fedknow_obs::is_enabled() {
        return;
    }
    let (round, part, faults) = (start.round, &start.part, &start.faults);
    fedknow_obs::observe_queue_depth(queue_depth as f64);
    let n = active.len();
    let mut times: Vec<f64> = Vec::with_capacity(n);
    for (c, a) in actual.iter().enumerate() {
        if let Some(a) = *a {
            fedknow_obs::client_value("client.compute_s", c as u64, a);
            times.push(a);
        }
    }
    if times.len() >= 10 {
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = times[times.len() / 2];
        let decile = times[times.len() - times.len() / 10];
        for (c, a) in actual.iter().enumerate() {
            if let Some(a) = *a {
                if a >= decile && a > 1.5 * median {
                    fedknow_obs::mark_anomalous(c as u64);
                }
            }
        }
    }
    fedknow_obs::observe_round(&fedknow_obs::RoundObservation {
        round,
        expected: active.iter().filter(|&&a| a).count() as u64,
        completed,
        stragglers: (0..n)
            .filter(|&c| part[c] && faults[c].slowdown > 1.0)
            .count() as u64,
        quarantined,
        uploads_lost: (0..n).filter(|&c| part[c] && faults[c].upload_lost).count() as u64,
        round_seconds,
    });
}

/// Task-boundary forgetting telemetry: after learning task `step`,
/// per-task series `fl.forgetting.task{k}` (mean over clients, indexed
/// by `step` — the heat-strip rows in `obs_dash`), the aggregate
/// series `fl.avg_forgetting`, and a per-client per-task histogram
/// `fl.client_forgetting_pm` (per-mille) exposing the distribution
/// behind the means.
fn record_forgetting(matrices: &[AccuracyMatrix], step: usize) {
    for k in 0..=step {
        let rates: Vec<f64> = matrices
            .iter()
            .filter_map(|m| m.forgetting_after(step, k))
            .collect();
        if rates.is_empty() {
            continue;
        }
        for &r in &rates {
            fedknow_obs::record("fl.client_forgetting_pm", (r * 1000.0).round() as u64);
        }
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        fedknow_obs::series_at(&format!("fl.forgetting.task{k}"), step as u64, mean);
    }
    let avg = matrices
        .iter()
        .map(|m| m.avg_forgetting_after(step))
        .sum::<f64>()
        / matrices.len() as f64;
    fedknow_obs::series_at("fl.avg_forgetting", step as u64, avg);
    // The health engine's drift SLO watches task-over-task rises in
    // this average.
    fedknow_obs::observe_forgetting(avg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_helpers_match_definitions() {
        // One upload at distance 5 from a norm-5 global: ratio 1. A
        // second at distance 0: mean 0.5.
        let g = vec![3.0, 4.0];
        let uploads = vec![Some(vec![-1.0, 1.0]), Some(g.clone()), None];
        assert!((upload_divergence(&uploads, &g).unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(upload_divergence(&[None], &g), None);
        assert_eq!(upload_divergence(&uploads, &[0.0, 0.0]), None);
        assert!((relative_l2(&[3.0, 0.0], &[3.0, 4.0]) - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(relative_l2(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn stage_upload_ledgers_a_lost_upload_without_the_vector() {
        // The upload vanished on the link, so `up` is already None but
        // `had_upload` is true: the ledger must log the loss exactly as
        // it would with the vector still in hand.
        let cfg = crate::faults::FaultConfig {
            loss_prob: 1.0,
            max_retries: 2,
            ..Default::default()
        };
        let plan = FaultPlan::new(9, cfg);
        let mut round = 0;
        let f = loop {
            let f = plan.draw(0, round);
            if f.upload_lost {
                break f;
            }
            round += 1;
        };
        let mut log_a = Vec::new();
        let mut up_a = Some(vec![1.0f32; 4]);
        let a = stage_upload(&mut up_a, true, &f, &plan, false, round, 0, &mut log_a);
        let mut log_b = Vec::new();
        let mut up_b: Option<Vec<f32>> = None;
        let b = stage_upload(&mut up_b, true, &f, &plan, false, round, 0, &mut log_b);
        assert_eq!(up_a, None);
        assert_eq!(up_b, None);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.backoff, b.backoff);
        let shape = |l: &[FaultEvent]| l.iter().map(|e| (e.kind, e.detail)).collect::<Vec<_>>();
        assert_eq!(shape(&log_a), shape(&log_b));
        assert!(log_a.iter().any(|e| e.kind == FaultKind::UploadLost));
    }
}
