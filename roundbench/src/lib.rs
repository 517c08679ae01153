//! A benchmark of one federated FedKNOW round, end to end and layer by
//! layer, measured from outside the program: clients are assembled
//! through public functions and wrapped in a timing decorator, and the
//! per-layer costs are replayed on state captured during the run.

pub mod measure;
pub mod replay;
pub mod rounds;
pub mod stats;
pub mod timed;
pub mod workload;
