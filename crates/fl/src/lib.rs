//! Federated continual learning simulation engine.
//!
//! This crate is the testbed stand-in: where the paper runs 20–100
//! physical Jetson/Raspberry-Pi clients against a central server over a
//! real network, we run the same round structure in-process with
//! byte-accurate communication accounting and a FLOP-based device clock.
//!
//! * [`client::FclClient`] — the interface every method (FedKNOW and all
//!   11 baselines) implements: per-iteration local training, model
//!   upload/download, task transitions, evaluation.
//! * [`trainer::LocalTrainer`] — shared batch/forward/backward plumbing
//!   so algorithm crates only write their *algorithm*.
//! * [`server`] — FedAvg aggregation (the paper's global aggregator).
//! * [`device`] — Jetson AGX/NX/TX2/Nano and Raspberry-Pi profiles; the
//!   simulated clock charges each client `3 × forward-FLOPs / throughput`
//!   per iteration and models out-of-memory dropout for retained state.
//! * [`comm`] — bandwidth model; communication time is bytes-on-wire over
//!   bandwidth, per client, per round.
//! * [`metrics`] — the accuracy matrix, average accuracy, and the paper's
//!   forgetting-rate definition (§V-D).
//! * `protocol` (crate-private) — the synchronous round written once: a
//!   sans-IO `RoundEngine` that owns the ledger (faults, participation,
//!   FedAvg, byte and deadline accounting, OOM dropout, accuracy
//!   matrices) and the one step that builds a client's contribution.
//!   Both drivers below feed it and keep only their I/O.
//! * [`sim`] — the in-process driver: clients called as functions,
//!   trained in parallel threads, with checkpoint/resume.
//! * [`framing`] / [`proto`] / [`transport`] / [`actor`] — the transport
//!   driver: length-prefixed frames, typed wire messages, swappable
//!   channel/TCP/Unix-socket backends with fault injection at the wire
//!   seam, and the server/client actor threads; its reports are
//!   bit-identical to the in-process driver's.

pub mod actor;
pub mod client;
pub mod comm;
pub mod device;
pub mod faults;
pub mod framing;
pub mod metrics;
pub mod proto;
mod protocol;
pub mod server;
pub mod sim;
pub mod trainer;
pub mod transport;
pub mod wiretrace;

pub use actor::{run_remote_client, ActorConfig, FederationRuntime};
pub use client::{CommBytes, FclClient, IterationStats, ModelTemplate, Payload};
pub use comm::{CommModel, InvalidBandwidth};
pub use device::DeviceProfile;
pub use faults::{
    Corruption, CorruptionMode, FaultConfig, FaultEvent, FaultKind, FaultPlan, RoundFaults,
};
pub use framing::{
    FrameDecoder, FrameError, TraceCtx, FRAME_HEADER_BYTES, MAX_FRAME_BYTES, TRACE_CTX_BYTES,
};
pub use metrics::{AccuracyMatrix, RowLengthMismatch};
pub use proto::{DecodeError, Encoded, UploadMeta, WireMsg};
pub use server::{AggregateError, Aggregation, RejectReason, RejectedUpload};
pub use sim::{
    PhaseBreakdown, PhaseStat, SimCheckpoint, SimConfig, SimError, SimReport, Simulation,
};
pub use trainer::LocalTrainer;
pub use transport::{TransportError, TransportKind, WireStats, WireStatsSnapshot};
