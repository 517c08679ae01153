//! The timing decorator must not change the run it measures, and the
//! round boundaries derived from it must match the run's schedule.

use fedknow_baselines::Method;
use fedknow_data::{DatasetSpec, PartitionConfig};
use fedknow_fl::{CommModel, DeviceProfile, FaultConfig, Simulation};
use fedknow_nn::ModelKind;
use fedknow_roundbench::rounds::Schedule;
use fedknow_roundbench::timed::{Call, ClientLog};
use fedknow_roundbench::workload::{assemble, run_federation, Driver, Workload, WORKLOADS};
use fedknow_suite::RunSpec;
use std::sync::{Arc, Mutex};

fn chaotic(seed: u64) -> RunSpec {
    RunSpec {
        dataset: DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(3),
        model: ModelKind::SixCnn,
        width: 1.0,
        num_clients: 3,
        rounds_per_task: 3,
        iters_per_round: 2,
        seed,
        method_cfg: Default::default(),
        faults: FaultConfig {
            crash_prob: 0.25,
            straggler_prob: 0.2,
            deadline_factor: 2.0,
            loss_prob: 0.2,
            corrupt_prob: 0.1,
            ..FaultConfig::default()
        },
    }
}

fn wrapped_simulation(spec: &RunSpec, method: Method) -> (Simulation, Vec<Arc<Mutex<ClientLog>>>) {
    let a = assemble(spec, method, &PartitionConfig::default(), true);
    let sim = Simulation::new(
        a.clients,
        a.parts,
        DeviceProfile::uniform_cluster(spec.num_clients),
        CommModel::paper_default(),
        a.cfg,
        a.model_bytes,
    );
    (sim, a.logs)
}

#[test]
fn wrapped_run_is_bit_identical_to_runspec_run() {
    // FedWEIT exercises the payload methods, FedKNOW the retained-state
    // and post-aggregation paths.
    for method in [Method::FedKnow, Method::FedWeit] {
        let spec = chaotic(7);
        let (mut sim, logs) = wrapped_simulation(&spec, method);
        let wrapped = sim.run().expect("wrapped run");
        let plain = spec.run(method).expect("plain run");
        assert_eq!(wrapped, plain, "{method:?}");
        assert!(!plain.fault_log.is_empty(), "the spec must inject faults");
        let log = logs[0].lock().unwrap();
        for call in [
            Call::StartTask,
            Call::TrainIteration,
            Call::Upload,
            Call::ReceiveGlobal,
            Call::FinishTask,
            Call::Evaluate,
            Call::ExtraComm,
            Call::BaseComm,
            Call::PayloadOut,
            Call::RetainedBytes,
            Call::MethodName,
        ] {
            assert!(
                log.count(call) > 0,
                "{method:?}: {} never reached the client",
                call.name()
            );
        }
        if method == Method::FedWeit {
            assert!(log.count(Call::PayloadsIn) > 0);
        }
    }
}

#[test]
fn checkpoint_and_resume_pass_through_the_decorator() {
    let spec = chaotic(11);
    let (mut first, first_logs) = wrapped_simulation(&spec, Method::FedKnow);
    let ck = first.checkpoint(1).expect("checkpoint");
    let (mut second, second_logs) = wrapped_simulation(&spec, Method::FedKnow);
    let resumed = second.resume(&ck).expect("resume");
    assert_eq!(resumed, spec.run(Method::FedKnow).expect("plain run"));
    assert!(first_logs[0].lock().unwrap().count(Call::CheckpointParams) > 0);
    assert!(
        second_logs[0]
            .lock()
            .unwrap()
            .count(Call::RestoreCheckpoint)
            > 0
    );
}

#[test]
fn round_ends_follow_the_schedule_on_both_drivers() {
    let tcp = Workload {
        faults: FaultConfig {
            crash_prob: 0.25,
            loss_prob: 0.3,
            ..WORKLOADS[2].faults
        },
        ..WORKLOADS[2]
    };
    assert_eq!(tcp.driver, Driver::Tcp);
    let mut spec = tcp.spec(5);
    spec.dataset = spec.dataset.with_tasks(3);
    spec.rounds_per_task = 4;
    let in_process = Workload {
        driver: Driver::InProcess,
        ..tcp
    };
    let over_tcp = run_federation(&tcp, &spec, false).expect("tcp run");
    let local = run_federation(&in_process, &spec, false).expect("in-process run");
    assert_eq!(over_tcp.report, local.report);
    for run in [&over_tcp, &local] {
        let s = Schedule::from_report(&run.report, spec.num_clients, 3, 4);
        let ends = s
            .round_ends(&run.logs)
            .expect("every receive_global placed");
        let broadcast = s.has_global.iter().filter(|&&g| g).count();
        assert_eq!(ends.iter().flatten().count(), broadcast);
        assert!(broadcast < ends.len(), "the faults must empty some round");
        assert!(s.uploads_failed > 0 && s.uploads_failed < s.uploads_scheduled);
        let ends: Vec<_> = ends.into_iter().flatten().collect();
        assert!(ends.windows(2).all(|w| w[0] < w[1]), "rounds end in order");
        assert!(run.start < ends[0] && *ends.last().unwrap() < run.end);
    }
}
