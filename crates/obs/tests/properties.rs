//! Property and concurrency tests for the observability layer:
//! histogram quantiles against a sorted-vector oracle, counter
//! atomicity under concurrent writers, span nesting, and the JSONL
//! round-trip into the aggregator.

use fedknow_obs::{Aggregate, JsonlSink, LogHistogram, Registry, RingData, RingRecord, SpanPerf};
use proptest::prelude::*;

/// Exact nearest-rank quantile over raw samples — the oracle the
/// histogram estimate is checked against.
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram quantiles track the exact order statistic within the
    /// sub-bucket relative error bound (~2%) at every probed q.
    #[test]
    fn quantiles_match_sorted_oracle(
        small in prop::collection::vec(0u64..1024, 1..200),
        large in prop::collection::vec(1u64..u64::MAX / 2, 0..200),
        q in 0.01f64..1.0,
    ) {
        let h = LogHistogram::new();
        let mut all: Vec<u64> = small.iter().chain(&large).copied().collect();
        for &v in &all {
            h.record(v);
        }
        all.sort_unstable();
        let s = h.snapshot();
        prop_assert_eq!(s.count(), all.len() as u64);
        prop_assert_eq!(s.min(), all[0]);
        prop_assert_eq!(s.max(), *all.last().unwrap());
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, q] {
            let exact = oracle_quantile(&all, q) as f64;
            let est = s.quantile(q) as f64;
            // The estimate's bucket contains the exact order statistic,
            // so mid-point error is bounded by half the bucket width
            // (1/32 relative) plus integer rounding.
            prop_assert!(
                (est - exact).abs() <= exact * (1.0 / 32.0) + 1.0,
                "q={} est={} exact={}", q, est, exact
            );
        }
    }

    /// Histogram sum/mean are exact regardless of bucketing.
    #[test]
    fn sums_are_exact(values in prop::collection::vec(0u64..1_000_000, 1..100)) {
        let h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        let exact: u64 = values.iter().sum();
        prop_assert_eq!(s.sum(), exact);
        let mean = exact as f64 / values.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-9);
    }
}

#[test]
fn counters_are_atomic_under_concurrent_writers() {
    let registry = Registry::new();
    let threads = 8usize;
    let per_thread = 10_000u64;
    crossbeam::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|_| {
                let c = registry.counter("concurrent.total");
                for _ in 0..per_thread {
                    c.add(1);
                }
                // Half the threads also exercise name-based lookup.
                registry.add("concurrent.lookup", 2);
            });
        }
    })
    .expect("worker thread panicked");
    let snap = registry.snapshot();
    assert_eq!(
        snap.counters["concurrent.total"],
        threads as u64 * per_thread
    );
    assert_eq!(snap.counters["concurrent.lookup"], threads as u64 * 2);
}

#[test]
fn histograms_lose_nothing_under_concurrent_writers() {
    let registry = Registry::new();
    let threads = 8u64;
    let per_thread = 5_000u64;
    let registry = &registry;
    crossbeam::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move |_| {
                let h = registry.hist("concurrent.lat_ns");
                for i in 0..per_thread {
                    h.record(t * 1000 + i);
                }
            });
        }
    })
    .expect("worker thread panicked");
    let s = registry.snapshot().hists["concurrent.lat_ns"].clone();
    assert_eq!(s.count(), threads * per_thread);
}

/// Span nesting and cross-thread path inheritance. Uses the global
/// facade, which this test enables for the whole process — safe here
/// because this integration test binary runs in its own process and
/// every other test in this file uses instance APIs.
#[test]
fn spans_nest_and_inherit_across_threads() {
    fedknow_obs::enable();
    let before = fedknow_obs::snapshot().unwrap();
    {
        let _run = fedknow_obs::span("t_run");
        let _task = fedknow_obs::span("t_task");
        assert_eq!(fedknow_obs::current_path(), "t_run/t_task");
        let parent = fedknow_obs::current_path();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = fedknow_obs::inherit_path(&parent);
                    let _c = fedknow_obs::span("t_client");
                    assert_eq!(fedknow_obs::current_path(), "t_run/t_task/t_client");
                });
            }
        });
        // The parent thread's stack is untouched by the workers.
        assert_eq!(fedknow_obs::current_path(), "t_run/t_task");
    }
    assert_eq!(fedknow_obs::current_path(), "");
    let diff = fedknow_obs::snapshot().unwrap().since(&before);
    assert_eq!(diff.hists["span.t_client_ns"].count(), 4);
    assert_eq!(diff.hists["span.t_task_ns"].count(), 1);
    assert_eq!(diff.hists["span.t_run_ns"].count(), 1);
}

#[test]
fn jsonl_roundtrips_into_aggregate() {
    let data = vec![
        RingData::Begin { path: "run".into() },
        RingData::End {
            path: "run".into(),
            dur_ns: 500,
            perf: None,
        },
        RingData::End {
            path: "run/task.0".into(),
            dur_ns: 200,
            perf: Some(SpanPerf {
                flops: 4000,
                bytes: 2000,
                allocs: 1,
                alloc_bytes: 64,
            }),
        },
        RingData::Count {
            name: "comm.upload_bytes".into(),
            delta: 4096,
        },
        RingData::Count {
            name: "comm.upload_bytes".into(),
            delta: 1024,
        },
        RingData::Sample {
            name: "qp.solve_ns".into(),
            value: 42,
        },
        RingData::Sample {
            name: "qp.solve_ns".into(),
            value: 58,
        },
        RingData::Sample {
            name: "qp.iters".into(),
            value: 17,
        },
        RingData::Fault {
            client: 1,
            kind: "crash".into(),
            detail: 0,
        },
    ];
    let events: Vec<RingRecord> = data
        .into_iter()
        .enumerate()
        .map(|(i, data)| RingRecord {
            ts_ns: 100 * i as u64,
            round: 2,
            data,
        })
        .collect();

    let path = std::env::temp_dir().join(format!("fedknow_obs_rt_{}.jsonl", std::process::id()));
    let sink = JsonlSink::create(&path).unwrap();
    for e in &events {
        sink.emit(e);
    }
    sink.flush();

    let back = fedknow_obs::read_jsonl(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back, events);

    let agg = Aggregate::from_events(&back);
    assert_eq!(agg, Aggregate::from_events(&events));
    assert_eq!(agg.counters["comm.upload_bytes"], 5120);
    assert_eq!(agg.samples["qp.solve_ns"], vec![42, 58]);
    assert_eq!(agg.spans["run"].total_ns, 500);
    assert_eq!(agg.spans["run"].count, 1, "a `Begin` is no completed span");
    assert_eq!(agg.spans["run/task.0"].flops, 4000);
    assert_eq!(agg.spans["run/task.0"].allocs, 1);
    assert_eq!(agg.quantile("qp.iters", 0.5), Some(17));
}

/// Corrupt JSONL input errors instead of silently dropping data.
#[test]
fn jsonl_reader_rejects_garbage() {
    let path = std::env::temp_dir().join(format!("fedknow_obs_bad_{}.jsonl", std::process::id()));
    std::fs::write(
        &path,
        "{\"ts_ns\":1,\"round\":0,\"data\":{\"Count\":{\"name\":\"x\",\"delta\":1}}}\nnot json\n",
    )
    .unwrap();
    let err = fedknow_obs::read_jsonl(&path);
    assert!(err.is_err());
    // A line in some other shape (no timestamp, no `data`) is no record.
    std::fs::write(&path, "{\"Count\":{\"name\":\"x\",\"delta\":1}}\n").unwrap();
    let err = fedknow_obs::read_jsonl(&path);
    std::fs::remove_file(&path).ok();
    assert!(err.is_err());
}
