//! The client-boundary timing decorator.
//!
//! [`Timed`] wraps a `Box<dyn FclClient>` and forwards every trait
//! method, the defaulted ones included, so the wrapped run is the same
//! run. Untraced it keeps only per-method call counts, the start of the
//! client's first call and the end time of each `receive_global` (from
//! which round boundaries are derived). Traced it also records one span
//! per call and keeps the last upload of every task as the weight
//! snapshot the per-layer replays start from.

use fedknow_data::ClientTask;
use fedknow_fl::{CommBytes, FclClient, IterationStats, Payload};
use rand::rngs::StdRng;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One `FclClient` method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    StartTask,
    TrainIteration,
    Upload,
    ReceiveGlobal,
    FinishTask,
    Evaluate,
    ExtraComm,
    BaseComm,
    PayloadOut,
    PayloadsIn,
    RetainedBytes,
    CheckpointParams,
    RestoreCheckpoint,
    MethodName,
}

impl Call {
    /// Every method, in trait order.
    pub const ALL: [Call; 14] = [
        Call::StartTask,
        Call::TrainIteration,
        Call::Upload,
        Call::ReceiveGlobal,
        Call::FinishTask,
        Call::Evaluate,
        Call::ExtraComm,
        Call::BaseComm,
        Call::PayloadOut,
        Call::PayloadsIn,
        Call::RetainedBytes,
        Call::CheckpointParams,
        Call::RestoreCheckpoint,
        Call::MethodName,
    ];

    /// The trait method's name.
    pub fn name(self) -> &'static str {
        match self {
            Call::StartTask => "start_task",
            Call::TrainIteration => "train_iteration",
            Call::Upload => "upload",
            Call::ReceiveGlobal => "receive_global",
            Call::FinishTask => "finish_task",
            Call::Evaluate => "evaluate",
            Call::ExtraComm => "extra_comm",
            Call::BaseComm => "base_comm",
            Call::PayloadOut => "payload_out",
            Call::PayloadsIn => "payloads_in",
            Call::RetainedBytes => "retained_bytes",
            Call::CheckpointParams => "checkpoint_params",
            Call::RestoreCheckpoint => "restore_checkpoint",
            Call::MethodName => "method_name",
        }
    }
}

/// One traced call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub call: Call,
    pub start: Instant,
    pub end: Instant,
}

/// What one wrapped client recorded.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Calls per method, indexed like [`Call::ALL`].
    pub counts: [u64; Call::ALL.len()],
    /// Start of the client's first call: the end of set-up.
    pub first_call: Option<Instant>,
    /// End time of every `receive_global`, in call order.
    pub receive_ends: Vec<Instant>,
    /// Every call, in order (traced runs only).
    pub spans: Vec<Span>,
    /// The last upload of each finished task (traced runs only).
    pub task_snapshots: Vec<Vec<f32>>,
    last_upload: Option<Vec<f32>>,
}

impl ClientLog {
    /// Calls made to `call`.
    pub fn count(&self, call: Call) -> u64 {
        self.counts[call as usize]
    }
}

/// A client wrapped in the timing decorator.
pub struct Timed {
    inner: Box<dyn FclClient>,
    log: Arc<Mutex<ClientLog>>,
    traced: bool,
}

impl Timed {
    /// Wrap `inner`; the returned log is shared with the wrapper.
    pub fn wrap(
        inner: Box<dyn FclClient>,
        traced: bool,
    ) -> (Box<dyn FclClient>, Arc<Mutex<ClientLog>>) {
        let log = Arc::new(Mutex::new(ClientLog::default()));
        let timed = Timed {
            inner,
            log: log.clone(),
            traced,
        };
        (Box::new(timed), log)
    }

    fn log(&self) -> MutexGuard<'_, ClientLog> {
        self.log
            .lock()
            .expect("a client thread panicked while logging")
    }

    /// Run `f` on the inner client as one `call`.
    fn record<R>(&mut self, call: Call, f: impl FnOnce(&mut dyn FclClient) -> R) -> R {
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        let end = if self.traced || call == Call::ReceiveGlobal {
            Some(Instant::now())
        } else {
            None
        };
        let mut log = self.log();
        log.first_call.get_or_insert(start);
        log.counts[call as usize] += 1;
        if let Some(end) = end {
            if call == Call::ReceiveGlobal {
                log.receive_ends.push(end);
            }
            if self.traced {
                log.spans.push(Span { call, start, end });
            }
        }
        out
    }

    /// Count a `&self` call; these are constant-time getters, so they
    /// are counted but not timed.
    fn count(&self, call: Call) {
        self.log().counts[call as usize] += 1;
    }
}

impl FclClient for Timed {
    fn start_task(&mut self, task: &ClientTask, rng: &mut StdRng) {
        self.record(Call::StartTask, |c| c.start_task(task, rng))
    }

    fn train_iteration(&mut self, rng: &mut StdRng) -> IterationStats {
        self.record(Call::TrainIteration, |c| c.train_iteration(rng))
    }

    fn upload(&mut self) -> Option<Vec<f32>> {
        let up = self.record(Call::Upload, |c| c.upload());
        if self.traced {
            self.log().last_upload = up.clone();
        }
        up
    }

    fn receive_global(&mut self, global: &[f32], rng: &mut StdRng) {
        self.record(Call::ReceiveGlobal, |c| c.receive_global(global, rng))
    }

    fn finish_task(&mut self, rng: &mut StdRng) {
        self.record(Call::FinishTask, |c| c.finish_task(rng));
        if self.traced {
            let mut log = self.log();
            if let Some(up) = log.last_upload.take() {
                log.task_snapshots.push(up);
            }
        }
    }

    fn evaluate(&mut self, task: &ClientTask) -> f64 {
        self.record(Call::Evaluate, |c| c.evaluate(task))
    }

    fn extra_comm(&self) -> CommBytes {
        self.count(Call::ExtraComm);
        self.inner.extra_comm()
    }

    fn base_comm(&self, full_model_bytes: u64) -> CommBytes {
        self.count(Call::BaseComm);
        self.inner.base_comm(full_model_bytes)
    }

    fn payload_out(&mut self) -> Vec<Payload> {
        self.record(Call::PayloadOut, |c| c.payload_out())
    }

    fn payloads_in(&mut self, payloads: &[Payload], rng: &mut StdRng) {
        self.record(Call::PayloadsIn, |c| c.payloads_in(payloads, rng))
    }

    fn retained_bytes(&self) -> u64 {
        self.count(Call::RetainedBytes);
        self.inner.retained_bytes()
    }

    fn checkpoint_params(&mut self) -> Option<Vec<f32>> {
        self.record(Call::CheckpointParams, |c| c.checkpoint_params())
    }

    fn restore_checkpoint(&mut self, params: &[f32], rng: &mut StdRng) {
        self.record(Call::RestoreCheckpoint, |c| {
            c.restore_checkpoint(params, rng)
        })
    }

    fn method_name(&self) -> &'static str {
        self.count(Call::MethodName);
        self.inner.method_name()
    }
}
