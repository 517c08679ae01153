//! The benchmark's workloads and how one federation of each is built
//! and run through the program's public API, with every client wrapped
//! in the [`Timed`] decorator.

use crate::timed::{ClientLog, Timed};
use fedknow_baselines::{build_client, Method};
use fedknow_data::{generate::generate, partition, ClientDataset, DatasetSpec, PartitionConfig};
use fedknow_fl::{
    CommModel, DeviceProfile, FaultConfig, FederationRuntime, ModelTemplate, SimConfig, SimReport,
    Simulation, TransportKind, WireStatsSnapshot,
};
use fedknow_nn::ModelKind;
use fedknow_suite::RunSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which federation driver runs the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `Simulation`: clients called as functions on ≤ 2 worker threads.
    InProcess,
    /// `FederationRuntime` over TCP loopback: server and clients as
    /// actor threads exchanging framed messages.
    Tcp,
}

/// One benchmark workload: a closed-loop federation of `clients`
/// clients on a CIFAR-100 analogue, 10 tasks × 10 rounds.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub method: Method,
    pub driver: Driver,
    /// Image side in pixels.
    pub pixels: usize,
    /// SixCNN width multiplier.
    pub width: f64,
    pub clients: usize,
    pub iters_per_round: usize,
    pub faults: FaultConfig,
}

/// Aggregation rounds per task on every workload.
pub const ROUNDS_PER_TASK: usize = 10;

const NO_FAULTS: FaultConfig = FaultConfig {
    crash_prob: 0.0,
    straggler_prob: 0.0,
    straggler_slowdown: 4.0,
    deadline_factor: 0.0,
    loss_prob: 0.0,
    max_retries: 2,
    backoff_base_secs: 0.5,
    corrupt_prob: 0.0,
};

/// The workloads, with the reason for each in `README.md`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fedknow-inproc",
        method: Method::FedKnow,
        driver: Driver::InProcess,
        pixels: 8,
        width: 1.0,
        clients: 4,
        iters_per_round: 2,
        faults: NO_FAULTS,
    },
    Workload {
        name: "fedavg-kernels",
        method: Method::FedAvg,
        driver: Driver::InProcess,
        pixels: 16,
        width: 1.0,
        clients: 4,
        iters_per_round: 8,
        faults: NO_FAULTS,
    },
    Workload {
        name: "fedknow-tcp-faults",
        method: Method::FedKnow,
        driver: Driver::Tcp,
        pixels: 8,
        width: 2.0,
        clients: 2,
        iters_per_round: 1,
        faults: FaultConfig {
            crash_prob: 0.08,
            straggler_prob: 0.1,
            straggler_slowdown: 4.0,
            deadline_factor: 2.0,
            loss_prob: 0.1,
            max_retries: 2,
            backoff_base_secs: 0.5,
            corrupt_prob: 0.01,
        },
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The run specification for `seed`: the seed drives the dataset,
    /// the partition, the shared initial weights and the fault plan.
    pub fn spec(&self, seed: u64) -> RunSpec {
        RunSpec {
            dataset: DatasetSpec::cifar100().scaled(0.5, self.pixels),
            model: ModelKind::SixCnn,
            width: self.width,
            num_clients: self.clients,
            rounds_per_task: ROUNDS_PER_TASK,
            iters_per_round: self.iters_per_round,
            seed,
            method_cfg: Default::default(),
            faults: self.faults,
        }
    }
}

/// Set-up phases of one federation, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub partition_s: f64,
    /// Template plus client construction and wrapping.
    pub assemble_s: f64,
}

/// Clients, data and configuration of one federation, assembled from
/// public functions exactly as `RunSpec` assembles them.
pub struct Assembled {
    pub clients: Vec<Box<dyn fedknow_fl::FclClient>>,
    pub logs: Vec<Arc<Mutex<ClientLog>>>,
    pub parts: Vec<ClientDataset>,
    pub cfg: SimConfig,
    pub model_bytes: u64,
    pub template: ModelTemplate,
    pub setup: SetupTimes,
}

/// Every client holds this many classes of each task and this share of
/// each class's samples, so the work per round is the same for every
/// seed and the seed varies only values: the data, the initial weights
/// and the fault draws.
pub const PARTITION: PartitionConfig = PartitionConfig {
    min_classes: 3,
    max_classes: 3,
    min_frac: 0.1,
    max_frac: 0.1,
    feature_shift: true,
};

/// Generate, partition and build the wrapped clients for `spec`.
pub fn assemble(
    spec: &RunSpec,
    method: Method,
    partition_cfg: &PartitionConfig,
    traced: bool,
) -> Assembled {
    let t0 = Instant::now();
    let dataset = generate(&spec.dataset, spec.seed);
    let t1 = Instant::now();
    let parts = partition(&dataset, spec.num_clients, partition_cfg, spec.seed);
    let t2 = Instant::now();
    let num_classes = dataset
        .tasks
        .iter()
        .flat_map(|t| t.classes.iter().copied())
        .max()
        .map_or(spec.dataset.total_classes(), |m| m + 1);
    let template = ModelTemplate::new(
        spec.model,
        dataset.spec.channels,
        num_classes,
        spec.width,
        spec.seed,
    );
    let image_shape = vec![
        dataset.spec.channels,
        dataset.spec.height,
        dataset.spec.width,
    ];
    let (clients, logs) = (0..spec.num_clients)
        .map(|_| {
            let client = build_client(method, &template, &spec.method_cfg, image_shape.clone());
            Timed::wrap(client, traced)
        })
        .unzip();
    let cfg = SimConfig {
        rounds_per_task: spec.rounds_per_task,
        iters_per_round: spec.iters_per_round,
        seed: spec.seed,
        parallel: true,
        faults: spec.faults,
    };
    let model_bytes = template.size_bytes();
    let t3 = Instant::now();
    Assembled {
        clients,
        logs,
        parts,
        cfg,
        model_bytes,
        template,
        setup: SetupTimes {
            generate_s: (t1 - t0).as_secs_f64(),
            partition_s: (t2 - t1).as_secs_f64(),
            assemble_s: (t3 - t2).as_secs_f64(),
        },
    }
}

/// One finished federation and what the decorator saw of it.
pub struct FedRun {
    pub report: SimReport,
    /// The seed the federation ran with.
    pub seed: u64,
    /// The transport's byte ledger (TCP driver only).
    pub wire: Option<WireStatsSnapshot>,
    pub logs: Vec<ClientLog>,
    pub setup: SetupTimes,
    /// Set-up end to end of the run: the start of the first client call.
    pub start: Instant,
    /// When the driver returned.
    pub end: Instant,
    /// Assembly through the first client call, listener bind and client
    /// connections included.
    pub setup_s: f64,
    /// Samples in every training batch, when every client's task holds
    /// the same number of samples (the batcher then yields equal
    /// batches); `None` otherwise.
    pub batch_rows: Option<usize>,
    /// Kept for the per-layer replays (traced runs only).
    pub template: Option<ModelTemplate>,
    pub parts: Option<Vec<ClientDataset>>,
}

impl FedRun {
    /// Wall time after set-up, in seconds.
    pub fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Assemble and run one federation of `w` on `spec`. A `SimError` or a
/// panic anywhere in the run is returned as `Err`.
pub fn run_federation(w: &Workload, spec: &RunSpec, traced: bool) -> Result<FedRun, String> {
    let t0 = Instant::now();
    let a = assemble(spec, w.method, &PARTITION, traced);
    let devices = DeviceProfile::uniform_cluster(spec.num_clients);
    let comm = CommModel::paper_default();
    let mut lens = a.parts.iter().flat_map(|p| &p.tasks).map(|t| t.train.len());
    let first_len = lens.next().unwrap_or(0);
    let batch_rows = lens
        .all(|l| l == first_len)
        .then(|| first_len.min(spec.method_cfg.batch_size));
    let (template, parts) = if traced {
        (Some(a.template.clone()), Some(a.parts.clone()))
    } else {
        (None, None)
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| match w.driver {
        Driver::InProcess => {
            Simulation::new(a.clients, a.parts, devices, comm, a.cfg, a.model_bytes)
                .run()
                .map(|r| (r, None))
        }
        Driver::Tcp => FederationRuntime::new(
            a.clients,
            a.parts,
            devices,
            comm,
            a.cfg,
            a.model_bytes,
            TransportKind::Tcp,
        )
        .run_with_stats()
        .map(|(r, s)| (r, Some(s))),
    }));
    let end = Instant::now();
    let (report, wire) = match outcome {
        Ok(Ok(done)) => done,
        Ok(Err(e)) => return Err(format!("{}: simulation error: {e}", w.name)),
        Err(_) => return Err(format!("{}: the run panicked", w.name)),
    };
    let logs: Vec<ClientLog> = a
        .logs
        .iter()
        .map(|l| std::mem::take(&mut *l.lock().expect("client log poisoned")))
        .collect();
    let start = logs
        .iter()
        .filter_map(|l| l.first_call)
        .min()
        .ok_or_else(|| format!("{}: no client was ever called", w.name))?;
    Ok(FedRun {
        report,
        seed: spec.seed,
        wire,
        logs,
        setup: a.setup,
        start,
        end,
        setup_s: (start - t0).as_secs_f64(),
        batch_rows,
        template,
        parts,
    })
}
