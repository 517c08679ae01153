//! Message-passing federation: server and clients as actor threads.
//!
//! [`FederationRuntime`] is the transport driver of the shared round
//! engine (`protocol::RoundEngine`). Where [`Simulation`] calls clients
//! as functions, here the server and every client run as independent
//! threads exchanging [`WireMsg`] frames over a [`Transport`]. The
//! server only moves frames: it feeds the engine what arrives (uploads,
//! retained sizes, evaluation rows) and sends out what the engine
//! decides (resyncs, broadcasts). The client actor builds its upload
//! with the same `protocol::contribute` step the in-process driver uses.
//!
//! Faults are realized at the wire seam: a crash is a genuinely closed
//! connection followed by a `Rejoin` redial, a lost upload is a frame
//! dropped in flight (with the bookkeeping arriving over the reliable
//! `UploadFailed` control message), corruption damages the parameter
//! bytes inside the frame, and stragglers delay delivery. Both sides
//! draw them from the same pure [`FaultPlan`], so a seeded run produces
//! the identical fault log and bit-identical final model on every
//! backend while the faults are still physically real on the wire.
//! Liveness comes from physical signals (uploads, control messages,
//! connection closes); a generous wall-clock deadline per collect phase
//! is only a safety net — when it fires, the server degrades gracefully
//! (proceeds without the missing client and counts
//! `transport.round_timeouts`) instead of hanging.
//!
//! Malformed frames — bytes that fail frame or message decoding —
//! quarantine the connection: the reader stops, the event is counted
//! (`transport.malformed_frames`) and marked in the flight recorder,
//! and the peer is treated as disconnected. No [`FaultKind`] is logged
//! for them: the fault ledger stays a pure function of the seed.
//!
//! [`Simulation`]: crate::sim::Simulation
//! [`Transport`]: crate::transport::Transport
//! [`FaultPlan`]: crate::faults::FaultPlan
//! [`FaultKind`]: crate::faults::FaultKind

use crate::client::FclClient;
use crate::comm::CommModel;
use crate::device::DeviceProfile;
use crate::faults::{FaultPlan, RoundFaults};
use crate::framing::TraceCtx;
use crate::proto::WireMsg;
use crate::protocol::{self, Contribution, RoundEngine};
use crate::sim::{SimConfig, SimError, SimReport};
use crate::transport::{
    bind, send_upload_faulty, MsgRx, MsgTx, Transport, TransportError, TransportKind,
    TransportListener, WireStats, WireStatsSnapshot,
};
use crate::wiretrace;
use fedknow_data::ClientDataset;
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Wall-clock knobs of the actor runtime. None of them affect the
/// simulated ledger — they only bound how long the real threads wait.
#[derive(Debug, Clone, Copy)]
pub struct ActorConfig {
    /// Safety-net deadline per collect phase (uploads, task-done rows,
    /// eval rows). When it fires the server proceeds without the
    /// missing clients instead of hanging.
    pub round_deadline: Duration,
    /// Real delay per unit of drawn straggler slowdown applied before a
    /// straggler's upload leaves the client.
    pub straggle_delay: Duration,
    /// Retries (with backoff) for server-side sends.
    pub send_retries: u32,
}

impl Default for ActorConfig {
    fn default() -> Self {
        Self {
            round_deadline: Duration::from_secs(30),
            straggle_delay: Duration::from_millis(1),
            send_retries: 3,
        }
    }
}

/// What a connection's reader thread forwards into the server inbox.
/// `epoch` identifies the connection (monotonically increasing per
/// accept), so a stale close racing a crash-redial cannot clobber the
/// fresh connection's registration.
enum NetEvent {
    Connected {
        client: u32,
        epoch: u64,
        rejoin: bool,
        base_down: u64,
        tx: Box<MsgTx>,
    },
    Msg {
        client: u32,
        msg: WireMsg,
        /// The frame's wire-trace context, when the peer sent one: the
        /// server records the `handled` lifecycle point against it at
        /// the moment the event leaves the inbox.
        ctx: Option<TraceCtx>,
    },
    Closed {
        client: u32,
        epoch: u64,
    },
    Malformed {
        client: u32,
        epoch: u64,
    },
}

/// The transport-backed federation driver. Construction mirrors
/// [`Simulation::new`]; [`Self::run`] produces a [`SimReport`] that is
/// bit-identical (fault log included) to the in-process driver's for
/// the same seed and configuration.
///
/// [`Simulation::new`]: crate::sim::Simulation::new
pub struct FederationRuntime {
    clients: Vec<Box<dyn FclClient>>,
    data: Vec<ClientDataset>,
    devices: Vec<DeviceProfile>,
    comm: CommModel,
    cfg: SimConfig,
    model_bytes: u64,
    kind: TransportKind,
    actor_cfg: ActorConfig,
}

impl FederationRuntime {
    /// Assemble a runtime. Same invariants as [`Simulation::new`].
    ///
    /// [`Simulation::new`]: crate::sim::Simulation::new
    pub fn new(
        clients: Vec<Box<dyn FclClient>>,
        data: Vec<ClientDataset>,
        devices: Vec<DeviceProfile>,
        comm: CommModel,
        cfg: SimConfig,
        model_bytes: u64,
        kind: TransportKind,
    ) -> Self {
        protocol::check_fleet(clients.len(), &data, &devices);
        Self {
            clients,
            data,
            devices,
            comm,
            cfg,
            model_bytes,
            kind,
            actor_cfg: ActorConfig::default(),
        }
    }

    /// Override the wall-clock knobs.
    pub fn with_actor_config(mut self, actor_cfg: ActorConfig) -> Self {
        self.actor_cfg = actor_cfg;
        self
    }

    /// Run the federation over the transport and report, exactly as
    /// [`Simulation::run`] would.
    ///
    /// [`Simulation::run`]: crate::sim::Simulation::run
    pub fn run(self) -> Result<SimReport, SimError> {
        self.run_with_stats().map(|(report, _)| report)
    }

    /// Run and also return the wire-seam byte ledger — the actual
    /// data-plane/overhead bytes this run put on the transport.
    pub fn run_with_stats(self) -> Result<(SimReport, WireStatsSnapshot), SimError> {
        let stats = Arc::new(WireStats::new());
        let (transport, listener) = bind(self.kind, stats.clone()).map_err(transport_error)?;
        let label = self.kind.label();
        self.run_inner(label, listener, stats, Some(transport))
    }

    /// Serve a multi-process federation: listen at a fixed TCP address
    /// and wait for every client to dial in from its own process (see
    /// [`run_remote_client`]) instead of spawning local actor threads.
    /// The fault plan, ledger, and report are the same pure function of
    /// the seed as [`Self::run_with_stats`] — only which side of the
    /// wire the clients live on changes.
    pub fn serve_at(self, addr: &str) -> Result<(SimReport, WireStatsSnapshot), SimError> {
        let stats = Arc::new(WireStats::new());
        let listener =
            crate::transport::bind_tcp_at(addr, stats.clone()).map_err(transport_error)?;
        self.run_inner("tcp", listener, stats, None)
    }

    /// The shared server body behind [`Self::run_with_stats`] (local
    /// actor threads over `transport`) and [`Self::serve_at`] (remote
    /// client processes; `transport` is `None` and nothing local is
    /// spawned).
    fn run_inner(
        self,
        label: &str,
        listener: Box<dyn TransportListener>,
        stats: Arc<WireStats>,
        transport: Option<Arc<dyn Transport>>,
    ) -> Result<(SimReport, WireStatsSnapshot), SimError> {
        let n = self.clients.len();
        let mut engine = RoundEngine::start(
            self.clients[0].method_name(),
            self.data[0].tasks.len(),
            self.devices,
            self.comm,
            self.cfg.clone(),
        );
        if fedknow_obs::is_enabled() {
            fedknow_obs::set_context("sim.transport", label);
        }
        wiretrace::seed_trace_id(self.cfg.seed);

        // Reader threads register here so teardown can join them.
        let readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let depth = Arc::new(AtomicU64::new(0));
        let (inbox_tx, inbox_rx) = mpsc::channel();
        let pump = {
            let (inbox, readers, stop, stats, depth) = (
                inbox_tx,
                readers.clone(),
                stop.clone(),
                stats.clone(),
                depth.clone(),
            );
            std::thread::spawn(move || accept_pump(listener, inbox, readers, stop, stats, depth))
        };

        // Spawn one actor thread per client; each owns its algorithm
        // instance, dataset, and seeded RNG substream. In serve mode
        // the clients live in other processes and dial in instead.
        let mut client_threads = Vec::with_capacity(n);
        if let Some(transport) = transport {
            for (c, (client, data)) in self.clients.into_iter().zip(self.data).enumerate() {
                let actor = ClientActor::new(
                    c as u32,
                    client,
                    data,
                    &self.cfg,
                    self.model_bytes,
                    transport.clone(),
                    self.actor_cfg.straggle_delay,
                );
                client_threads.push(std::thread::spawn(move || actor.run()));
            }
        }

        let mut server = ServerActor {
            n,
            actor_cfg: self.actor_cfg,
            inbox: inbox_rx,
            depth,
            txs: (0..n).map(|_| None).collect(),
            epoch_of: vec![0; n],
            rejoin_base_down: vec![0; n],
            stash: VecDeque::new(),
        };
        let result = server.drive(&mut engine);

        // Teardown: clients exit on Shutdown (or on their dead
        // connections), which unblocks their readers; the pump stops on
        // the flag.
        stop.store(true, Ordering::Relaxed);
        drop(server);
        for t in client_threads {
            let _ = t.join();
        }
        let _ = pump.join();
        for r in readers.lock().expect("reader registry").drain(..) {
            let _ = r.join();
        }

        result?;
        Ok((engine.report(), stats.snapshot()))
    }
}

fn transport_error(e: TransportError) -> SimError {
    SimError::Transport(e.to_string())
}

/// Run one client as its own OS process's worker: dial the server over
/// `transport`, identify as client `id`, and play the protocol to
/// `Shutdown`. The fault plan is rebuilt from `cfg` — the same pure
/// function of the seed the server constructs — so a multi-process run
/// injects the identical fault sequence as the in-process backends.
pub fn run_remote_client(
    transport: Arc<dyn Transport>,
    id: u32,
    client: Box<dyn FclClient>,
    data: ClientDataset,
    cfg: &SimConfig,
    model_bytes: u64,
    straggle_delay: Duration,
) {
    fedknow_obs::init_from_env();
    wiretrace::seed_trace_id(cfg.seed);
    ClientActor::new(
        id,
        client,
        data,
        cfg,
        model_bytes,
        transport,
        straggle_delay,
    )
    .run();
    fedknow_obs::flush();
}

/// Accept connections for the whole run, spawning a reader thread per
/// connection. Each accept gets a fresh epoch.
fn accept_pump(
    mut listener: Box<dyn TransportListener>,
    inbox: mpsc::Sender<NetEvent>,
    readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    stop: Arc<AtomicBool>,
    stats: Arc<WireStats>,
    depth: Arc<AtomicU64>,
) {
    let mut epoch = 0u64;
    while !stop.load(Ordering::Relaxed) {
        match listener.accept(Duration::from_millis(25)) {
            Ok(conn) => {
                epoch += 1;
                let (inbox, stats, depth) = (inbox.clone(), stats.clone(), depth.clone());
                let handle = std::thread::spawn(move || {
                    reader(conn.rx, conn.tx, epoch, inbox, stats, depth)
                });
                readers.lock().expect("reader registry").push(handle);
            }
            Err(TransportError::AcceptTimeout) => continue,
            Err(_) => return,
        }
    }
}

/// Forward one event into the server inbox, growing the tracked queue
/// depth. The matching decrement happens when the server pops it.
/// `Err(())` means the server hung up and the reader should stop.
fn inbox_push(inbox: &mpsc::Sender<NetEvent>, depth: &AtomicU64, ev: NetEvent) -> Result<(), ()> {
    let d = depth.fetch_add(1, Ordering::Relaxed) + 1;
    fedknow_obs::observe_queue_depth(d as f64);
    if inbox.send(ev).is_err() {
        depth.fetch_sub(1, Ordering::Relaxed);
        return Err(());
    }
    Ok(())
}

/// Drain one connection into the server inbox. The first message must
/// identify the peer (`Hello` or `Rejoin`); anything else quarantines
/// the connection on the spot. A clean close forwards `Closed`; a torn
/// frame or undecodable message forwards `Malformed` and stops reading
/// — the connection is quarantined.
fn reader(
    mut rx: MsgRx,
    mut tx: MsgTx,
    epoch: u64,
    inbox: mpsc::Sender<NetEvent>,
    stats: Arc<WireStats>,
    depth: Arc<AtomicU64>,
) {
    let client = match rx.recv_traced() {
        Ok(Some((WireMsg::Hello { client }, _))) => {
            tx.set_peer(client);
            rx.set_peer(client);
            let _ = inbox_push(
                &inbox,
                &depth,
                NetEvent::Connected {
                    client,
                    epoch,
                    rejoin: false,
                    base_down: 0,
                    tx: Box::new(tx),
                },
            );
            client
        }
        Ok(Some((WireMsg::Rejoin { client, base_down }, _))) => {
            tx.set_peer(client);
            rx.set_peer(client);
            let _ = inbox_push(
                &inbox,
                &depth,
                NetEvent::Connected {
                    client,
                    epoch,
                    rejoin: true,
                    base_down,
                    tx: Box::new(tx),
                },
            );
            client
        }
        Ok(Some(_)) | Err(_) => {
            // Unidentified or hostile peer: quarantine silently.
            stats.on_malformed();
            fedknow_obs::mark("transport.quarantine unidentified peer");
            fedknow_obs::dump_trigger("transport_malformed");
            return;
        }
        Ok(None) => return,
    };
    loop {
        match rx.recv_traced() {
            Ok(Some((msg, ctx))) => {
                if inbox_push(&inbox, &depth, NetEvent::Msg { client, msg, ctx }).is_err() {
                    return;
                }
            }
            Ok(None) => {
                let _ = inbox_push(&inbox, &depth, NetEvent::Closed { client, epoch });
                return;
            }
            Err(e) => {
                stats.on_malformed();
                fedknow_obs::mark(&format!(
                    "transport.quarantine client {client} epoch {epoch}: {e}"
                ));
                fedknow_obs::dump_trigger("transport_malformed");
                let _ = inbox_push(&inbox, &depth, NetEvent::Malformed { client, epoch });
                return;
            }
        }
    }
}

/// One client as an actor: connects, identifies itself, then reacts to
/// server messages until `Shutdown`. Crashes drawn from the plan are
/// realized by slamming the connection shut and redialing with
/// `Rejoin`.
struct ClientActor {
    id: u32,
    client: Box<dyn FclClient>,
    data: ClientDataset,
    rng: StdRng,
    plan: FaultPlan,
    inert: bool,
    model_bytes: u64,
    iters_per_round: usize,
    transport: Arc<dyn Transport>,
    straggle_delay: Duration,
    /// When the last round's upload (or its `UploadFailed` fallback)
    /// hit the wire — the server's `Ack` closes the RTT sample.
    upload_sent_at: Option<Instant>,
}

impl ClientActor {
    fn new(
        id: u32,
        client: Box<dyn FclClient>,
        data: ClientDataset,
        cfg: &SimConfig,
        model_bytes: u64,
        transport: Arc<dyn Transport>,
        straggle_delay: Duration,
    ) -> Self {
        let plan = FaultPlan::new(cfg.seed, cfg.faults);
        Self {
            id,
            client,
            data,
            rng: protocol::client_stream(cfg.seed, id as usize),
            inert: plan.config().is_inert(),
            plan,
            model_bytes,
            iters_per_round: cfg.iters_per_round,
            transport,
            straggle_delay,
            upload_sent_at: None,
        }
    }

    fn connect(&self) -> Option<crate::transport::Conn> {
        let mut conn = self.transport.connect().ok()?;
        conn.tx.set_peer(self.id);
        conn.rx.set_peer(self.id);
        Some(conn)
    }

    fn run(mut self) {
        let Some(mut conn) = self.connect() else {
            return;
        };
        if conn.tx.send(&WireMsg::Hello { client: self.id }).is_err() {
            return;
        }
        let mut step = 0usize;
        loop {
            let msg = match conn.rx.recv_traced() {
                Ok(Some((m, ctx))) => {
                    // The client consumes synchronously: `handled`
                    // immediately follows `in`.
                    if let Some(c) = &ctx {
                        wiretrace::record_recv("handled", c, Some(self.id), m.label(), 0);
                    }
                    m
                }
                // Server gone or stream damaged: nothing left to do.
                _ => return,
            };
            match msg {
                WireMsg::StartTask { task } => {
                    step = task as usize;
                    self.client
                        .start_task(&self.data.tasks[step], &mut self.rng);
                }
                WireMsg::Resync { global, .. } => {
                    self.client.receive_global(&global, &mut self.rng);
                }
                WireMsg::RoundStart { round } => {
                    // Keep this process's ambient round current even
                    // when the server lives in another process: sent
                    // frames stamp it into their trace context.
                    fedknow_obs::set_round(round);
                    let f = if self.inert {
                        RoundFaults::none()
                    } else {
                        self.plan.draw(self.id as usize, round)
                    };
                    if f.crash {
                        // Crash for the round: close the connection for
                        // real, then redial as a rejoiner. No training,
                        // no RNG draws — exactly the in-process skip.
                        drop(conn);
                        conn = match self.connect() {
                            Some(c) => c,
                            None => return,
                        };
                        let base_down = self.client.base_comm(self.model_bytes).down;
                        let rejoin = WireMsg::Rejoin {
                            client: self.id,
                            base_down,
                        };
                        if conn.tx.send(&rejoin).is_err() {
                            return;
                        }
                        continue;
                    }
                    if self.round(round, step, &f, &mut conn.tx).is_err() {
                        return;
                    }
                }
                WireMsg::Ack { .. } => {
                    // Upload → Ack round trip: one RTT sample for the
                    // health engine and this connection's cohort.
                    if let Some(t0) = self.upload_sent_at.take() {
                        let rtt = t0.elapsed();
                        fedknow_obs::observe_message_rtt(rtt.as_secs_f64());
                        fedknow_obs::client_value(
                            "transport.conn.rtt_ns",
                            u64::from(self.id),
                            rtt.as_nanos() as f64,
                        );
                    }
                }
                WireMsg::Broadcast {
                    global, payloads, ..
                } => {
                    if let Some(g) = global {
                        self.client.receive_global(&g, &mut self.rng);
                    }
                    if !payloads.is_empty() {
                        self.client.payloads_in(&payloads, &mut self.rng);
                    }
                }
                WireMsg::FinishTask => {
                    self.client.finish_task(&mut self.rng);
                    let done = WireMsg::TaskDone {
                        client: self.id,
                        retained: self.client.retained_bytes(),
                    };
                    if conn.tx.send(&done).is_err() {
                        return;
                    }
                }
                WireMsg::Eval { upto } => {
                    let row: Vec<f64> = (0..=upto as usize)
                        .map(|k| self.client.evaluate(&self.data.tasks[k]))
                        .collect();
                    let msg = WireMsg::EvalRow {
                        client: self.id,
                        row,
                    };
                    if conn.tx.send(&msg).is_err() {
                        return;
                    }
                }
                WireMsg::Shutdown => return,
                // The server never sends anything else.
                _ => {}
            }
        }
    }

    /// Train the round and ship the upload through the wire fault
    /// injector. A fully lost upload is reported over the reliable
    /// `UploadFailed` control message — the bookkeeping (and the method
    /// payloads, which the protocol exchanges regardless of upload
    /// loss) must still reach the server.
    fn round(
        &mut self,
        round: u64,
        step: usize,
        f: &RoundFaults,
        tx: &mut MsgTx,
    ) -> Result<(), TransportError> {
        let Contribution {
            meta,
            params,
            payloads,
        } = protocol::contribute(
            self.client.as_mut(),
            &mut self.rng,
            self.id as usize,
            self.iters_per_round,
            self.data.tasks[step].train.len() as u64,
            self.model_bytes,
        );
        // One logical upload per round: every frame it produces — lost
        // retry attempts, the delivery, the UploadFailed fallback —
        // shares this parent span, so the merged timeline groups them.
        let _upload_scope = wiretrace::parent_scope(wiretrace::next_span_id());
        if !meta.had_params {
            // Nothing to lose on the wire: the bookkeeping travels the
            // control plane untouched by upload faults.
            tx.send(&WireMsg::Upload {
                round,
                client: self.id,
                meta,
                params: None,
                payloads,
            })?;
            self.upload_sent_at = Some(Instant::now());
            return Ok(());
        }
        let msg = WireMsg::Upload {
            round,
            client: self.id,
            meta,
            params,
            payloads: payloads.clone(),
        };
        let delivered = send_upload_faulty(tx, &msg, f, self.straggle_delay)?;
        if !delivered {
            tx.send(&WireMsg::UploadFailed {
                round,
                client: self.id,
                meta,
                payloads,
            })?;
        }
        self.upload_sent_at = Some(Instant::now());
        Ok(())
    }
}

/// The server's I/O half: connections, the inbox, and the collect
/// loops. The ledger is the [`RoundEngine`] it drives.
struct ServerActor {
    n: usize,
    actor_cfg: ActorConfig,
    inbox: mpsc::Receiver<NetEvent>,
    /// Inbox backlog gauge; readers increment on push, [`Self::popped`]
    /// decrements on pop.
    depth: Arc<AtomicU64>,
    txs: Vec<Option<Box<MsgTx>>>,
    epoch_of: Vec<u64>,
    rejoin_base_down: Vec<u64>,
    /// Solicited client messages that arrived while a bookkeeping wait
    /// (e.g. [`Self::ensure_conn`] blocking on a crash redial) was
    /// draining the inbox. Collect loops consume this before the inbox
    /// so one client's prompt reply is never discarded while the server
    /// waits on another client's reconnection.
    stash: VecDeque<NetEvent>,
}

impl ServerActor {
    /// Bookkeeping events every phase handles identically. `Msg` events
    /// do not come through here — collect loops match them directly;
    /// anything unexpected is counted and dropped.
    fn handle(&mut self, ev: NetEvent) {
        match ev {
            NetEvent::Connected {
                client,
                epoch,
                rejoin,
                base_down,
                tx,
            } => {
                let c = client as usize;
                if c >= self.n {
                    fedknow_obs::count("transport.unknown_peer", 1);
                    return;
                }
                self.txs[c] = Some(tx);
                self.epoch_of[c] = epoch;
                if rejoin {
                    self.rejoin_base_down[c] = base_down;
                }
            }
            NetEvent::Closed { client, epoch } | NetEvent::Malformed { client, epoch } => {
                let c = client as usize;
                if c < self.n && self.epoch_of[c] == epoch {
                    self.txs[c] = None;
                }
            }
            NetEvent::Msg { .. } => {
                fedknow_obs::count("transport.unexpected_msgs", 1);
            }
        }
    }

    /// Bookkeeping for an event leaving the inbox: shrink the backlog
    /// gauge and close the message lifecycle — a traced `Msg` popped
    /// here is `handled`, the fourth and final lifecycle point.
    fn popped(&self, ev: &NetEvent) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
        if let NetEvent::Msg {
            client,
            msg,
            ctx: Some(ctx),
        } = ev
        {
            wiretrace::record_recv("handled", ctx, Some(*client), msg.label(), 0);
        }
    }

    /// Wait until `deadline` for the next inbox event.
    fn recv_until(&mut self, deadline: Instant) -> Option<NetEvent> {
        let now = Instant::now();
        if now >= deadline {
            return None;
        }
        let ev = self.inbox.recv_timeout(deadline - now).ok()?;
        self.popped(&ev);
        Some(ev)
    }

    /// Drain events already queued, without blocking.
    fn drain_pending(&mut self) {
        while let Ok(ev) = self.inbox.try_recv() {
            self.popped(&ev);
            self.handle(ev);
        }
    }

    /// Pop the next event for a collect loop: stashed messages first
    /// (replies that arrived during a bookkeeping wait), then the inbox.
    fn next_event(&mut self, deadline: Instant) -> Option<NetEvent> {
        if let Some(ev) = self.stash.pop_front() {
            return Some(ev);
        }
        self.recv_until(deadline)
    }

    /// Block (bounded) until client `c` has a live connection — e.g. a
    /// crashed client's `Rejoin` redial that has not been accepted yet.
    /// Client messages arriving meanwhile are stashed, not dropped:
    /// they are replies another collect loop is still owed.
    fn ensure_conn(&mut self, c: usize) -> bool {
        let deadline = Instant::now() + self.actor_cfg.round_deadline;
        while self.txs[c].is_none() {
            let Some(ev) = self.recv_until(deadline) else {
                fedknow_obs::count("transport.round_timeouts", 1);
                fedknow_obs::mark(&format!("transport.timeout waiting for client {c}"));
                fedknow_obs::dump_trigger("transport_timeout");
                return false;
            };
            if matches!(ev, NetEvent::Msg { .. }) {
                self.stash.push_back(ev);
            } else {
                self.handle(ev);
            }
        }
        true
    }

    /// Send to client `c` with retry/backoff; on terminal failure the
    /// connection is marked dead and the degradation counted.
    fn send(&mut self, c: usize, msg: &WireMsg) -> bool {
        let Some(tx) = self.txs[c].as_mut() else {
            return false;
        };
        if tx.send_with_retry(msg, self.actor_cfg.send_retries).is_ok() {
            return true;
        }
        fedknow_obs::mark(&format!("transport.send_failed client {c}"));
        fedknow_obs::dump_trigger("transport_send_failed");
        self.txs[c] = None;
        false
    }

    /// The task/round loop over the wire. The engine keeps the ledger;
    /// the server sends StartTask, Resync, RoundStart, Broadcast,
    /// FinishTask and Eval, and collects uploads, TaskDone and EvalRow
    /// replies for it.
    fn drive(&mut self, engine: &mut RoundEngine) -> Result<(), SimError> {
        let n = self.n;
        // Wait for every client's Hello before the first task.
        for c in 0..n {
            if !self.ensure_conn(c) {
                return Err(SimError::Transport(format!("client {c} never connected")));
            }
        }

        for step in 0..engine.num_tasks() {
            let _task_span = fedknow_obs::obs_span!("task.{step}");
            self.drain_pending();
            for c in (0..n).filter(|&c| engine.active()[c]) {
                if self.ensure_conn(c) {
                    self.send(c, &WireMsg::StartTask { task: step as u32 });
                }
            }

            for round in 0..engine.cfg().rounds_per_task {
                let _round_span = fedknow_obs::obs_span!("round.{round}");
                // Every server frame of this round — resyncs, RoundStart
                // fanout, upload Acks, the aggregate Broadcast — carries
                // one round-scoped parent span.
                let _round_scope = wiretrace::parent_scope(wiretrace::next_span_id());
                self.drain_pending();
                let start = engine.begin_round(round, |c, round, global| {
                    if self.ensure_conn(c) {
                        let global = global.to_vec();
                        self.send(c, &WireMsg::Resync { round, global });
                    }
                    self.rejoin_base_down[c]
                });

                // The round begins for every active client — the ones
                // drawn to crash realize it by closing their connection
                // on receipt. The server knows the plan too: a crashed
                // client's connection is doomed, so stop using it now
                // rather than racing its close (a frame sent after the
                // client slams the socket is silently gone). The next
                // send to that client goes through `ensure_conn`, which
                // synchronizes on the rejoin redial.
                for c in 0..n {
                    if engine.active()[c] && self.ensure_conn(c) {
                        self.send(c, &WireMsg::RoundStart { round: start.round });
                        if start.faults[c].crash {
                            self.txs[c] = None;
                        }
                    }
                }

                // Collect: physical liveness. Every participant owes
                // either an Upload or an UploadFailed control message;
                // crashed clients owe nothing (their close is the
                // signal). The wall deadline only degrades, never
                // ledgers.
                let contributions = self.collect_round(start.round, &start.part);
                let depth = self.depth.load(Ordering::Relaxed);
                let close = engine.close_round(&start, contributions, depth)?;

                // The broadcast always goes out (the client waits on
                // it), with or without a global.
                let bcast = WireMsg::Broadcast {
                    round: start.round,
                    global: close.global,
                    payloads: close.payloads,
                };
                for c in (0..n).filter(|&c| start.part[c]) {
                    self.send(c, &bcast);
                }
            }

            // Task boundary: consolidate and report retained bytes, then
            // evaluate every client, dropped ones included (they keep
            // their stale model).
            self.drain_pending();
            for c in (0..n).filter(|&c| engine.active()[c]) {
                if self.ensure_conn(c) {
                    self.send(c, &WireMsg::FinishTask);
                }
            }
            let retained = self.collect_task_done(engine.active());
            self.drain_pending();
            for c in 0..n {
                if self.ensure_conn(c) {
                    self.send(c, &WireMsg::Eval { upto: step as u32 });
                }
            }
            let rows = self.collect_eval_rows(step);
            engine.close_task(&retained, rows)?;
        }

        for c in 0..n {
            self.send(c, &WireMsg::Shutdown);
        }
        self.txs.iter_mut().for_each(|t| *t = None);
        Ok(())
    }

    /// Collect this round's contributions from every participant. Each
    /// owes exactly one Upload or UploadFailed; an Ack goes back for
    /// whichever arrives. Crash closes and rejoin redials are absorbed
    /// as bookkeeping. The wall deadline degrades gracefully: missing
    /// clients are dropped from the round and counted, never ledgered.
    fn collect_round(&mut self, round: u64, part: &[bool]) -> Vec<Option<Contribution>> {
        let n = self.n;
        let mut out: Vec<Option<Contribution>> = (0..n).map(|_| None).collect();
        let mut pending: Vec<bool> = part.to_vec();
        let mut missing = pending.iter().filter(|&&p| p).count();
        let deadline = Instant::now() + self.actor_cfg.round_deadline;
        while missing > 0 {
            let Some(ev) = self.next_event(deadline) else {
                for (c, p) in pending.iter().enumerate() {
                    if *p {
                        fedknow_obs::count("transport.round_timeouts", 1);
                        fedknow_obs::mark(&format!(
                            "transport.degraded round {round}: no upload from client {c}"
                        ));
                    }
                }
                fedknow_obs::dump_trigger("transport_timeout");
                break;
            };
            match ev {
                NetEvent::Msg {
                    client,
                    msg:
                        WireMsg::Upload {
                            round: r,
                            meta,
                            params,
                            payloads,
                            ..
                        },
                    ..
                } if r == round && (client as usize) < n && pending[client as usize] => {
                    let c = client as usize;
                    out[c] = Some(Contribution {
                        meta,
                        params,
                        payloads,
                    });
                    pending[c] = false;
                    missing -= 1;
                    self.send(c, &WireMsg::Ack { round, client });
                }
                NetEvent::Msg {
                    client,
                    msg:
                        WireMsg::UploadFailed {
                            round: r,
                            meta,
                            payloads,
                            ..
                        },
                    ..
                } if r == round && (client as usize) < n && pending[client as usize] => {
                    let c = client as usize;
                    out[c] = Some(Contribution {
                        meta,
                        params: None,
                        payloads,
                    });
                    pending[c] = false;
                    missing -= 1;
                    self.send(c, &WireMsg::Ack { round, client });
                }
                other => self.handle(other),
            }
        }
        out
    }

    /// Collect `TaskDone` from every active client; a missing one
    /// reports its previous retained size of zero (degradation path).
    fn collect_task_done(&mut self, active: &[bool]) -> Vec<u64> {
        let n = self.n;
        let mut retained = vec![0u64; n];
        let mut pending: Vec<bool> = active.to_vec();
        let mut missing = pending.iter().filter(|&&p| p).count();
        let deadline = Instant::now() + self.actor_cfg.round_deadline;
        while missing > 0 {
            let Some(ev) = self.next_event(deadline) else {
                fedknow_obs::count("transport.round_timeouts", 1);
                fedknow_obs::mark("transport.degraded: missing TaskDone rows");
                fedknow_obs::dump_trigger("transport_timeout");
                break;
            };
            match ev {
                NetEvent::Msg {
                    client,
                    msg: WireMsg::TaskDone { retained: r, .. },
                    ..
                } if (client as usize) < n && pending[client as usize] => {
                    retained[client as usize] = r;
                    pending[client as usize] = false;
                    missing -= 1;
                }
                other => self.handle(other),
            }
        }
        retained
    }

    /// Collect one evaluation row from every client. A missing row (a
    /// degraded client) evaluates to zeros so the matrix stays
    /// rectangular.
    fn collect_eval_rows(&mut self, step: usize) -> Vec<Vec<f64>> {
        let n = self.n;
        let mut rows: Vec<Option<Vec<f64>>> = (0..n).map(|_| None).collect();
        let mut missing = n;
        let deadline = Instant::now() + self.actor_cfg.round_deadline;
        while missing > 0 {
            let Some(ev) = self.next_event(deadline) else {
                fedknow_obs::count("transport.round_timeouts", 1);
                fedknow_obs::mark("transport.degraded: missing eval rows");
                fedknow_obs::dump_trigger("transport_timeout");
                break;
            };
            match ev {
                NetEvent::Msg {
                    client,
                    msg: WireMsg::EvalRow { row, .. },
                    ..
                } if (client as usize) < n
                    && rows[client as usize].is_none()
                    && row.len() == step + 1 =>
                {
                    rows[client as usize] = Some(row);
                    missing -= 1;
                }
                other => self.handle(other),
            }
        }
        rows.into_iter()
            .map(|r| r.unwrap_or_else(|| vec![0.0; step + 1]))
            .collect()
    }
}
