//! The JSONL record sink and its reader/aggregator.
//!
//! The in-memory aggregator is the [`Registry`](crate::registry::Registry)
//! itself; this module adds the optional JSONL file sink — one
//! [`RingRecord`] per line, the same records the flight recorder holds —
//! and the reverse direction: reading a JSONL stream back into records
//! and folding them into an [`Aggregate`] with exact per-metric sample
//! sets, used by the report binaries and the round-trip tests.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use crate::ring::{RingData, RingRecord};

/// Environment variable capping the JSONL sink's file size, in MiB.
/// When the current file crosses the cap it is rotated to `<path>.1`
/// (replacing any previous rotation) and a fresh file is started, so a
/// run keeps at most the newest ~2x cap of events on disk. Unset or
/// `0` = unbounded (the historical behaviour).
pub const ENV_MAX_MB: &str = "FEDKNOW_OBS_MAX_MB";

struct SinkInner {
    writer: BufWriter<File>,
    bytes: u64,
}

/// Appends one JSON object per record to a file (JSONL), with optional
/// size-capped rotation (see [`ENV_MAX_MB`]).
pub struct JsonlSink {
    inner: Mutex<SinkInner>,
    path: PathBuf,
    max_bytes: Option<u64>,
}

impl JsonlSink {
    /// Create (truncating) the file at `path`, honouring
    /// `FEDKNOW_OBS_MAX_MB` from the environment.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let max_bytes = std::env::var(ENV_MAX_MB)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&mb| mb > 0)
            .map(|mb| mb * 1024 * 1024);
        Self::with_max_bytes(path, max_bytes)
    }

    /// Create (truncating) the file at `path` with an explicit size
    /// cap in bytes (`None` = unbounded).
    pub fn with_max_bytes(path: impl AsRef<Path>, max_bytes: Option<u64>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Self {
            inner: Mutex::new(SinkInner {
                writer: BufWriter::new(file),
                bytes: 0,
            }),
            path,
            max_bytes,
        })
    }

    /// The path rotated-out records move to: `<path>.1`.
    pub fn rotated_path(path: impl AsRef<Path>) -> PathBuf {
        let mut name = path.as_ref().as_os_str().to_os_string();
        name.push(".1");
        PathBuf::from(name)
    }

    /// Rotate the current file to `<path>.1` and start a fresh one.
    /// Accounting goes registry-only (`obs.sink_rotations`,
    /// `obs.sink_rotated_bytes`): emitting records here would re-enter
    /// the sink being rotated.
    fn rotate(&self, g: &mut SinkInner) {
        let _ = g.writer.flush();
        let rotated = g.bytes;
        let _ = std::fs::rename(&self.path, Self::rotated_path(&self.path));
        match File::create(&self.path) {
            Ok(f) => {
                g.writer = BufWriter::new(f);
                g.bytes = 0;
                crate::count_in_registry("obs.sink_rotations", 1);
                crate::count_in_registry("obs.sink_rotated_bytes", rotated);
            }
            Err(e) => {
                // Keep writing through the old handle (now pointing at
                // the renamed file): observability must never take
                // down a run.
                eprintln!(
                    "fedknow-obs: cannot recreate {} after rotation: {e}",
                    self.path.display()
                );
            }
        }
    }

    /// Append one record as a line, rotating past the size cap.
    pub fn emit(&self, rec: &RingRecord) {
        let line = serde_json::to_string(rec).expect("record serialises");
        let mut g = self.inner.lock();
        // Ignore write errors: observability must never take down a run.
        let _ = writeln!(g.writer, "{line}");
        g.bytes += line.len() as u64 + 1;
        if let Some(max) = self.max_bytes {
            if g.bytes >= max {
                self.rotate(&mut g);
            }
        }
    }

    /// Flush buffered lines to the file.
    pub fn flush(&self) {
        let _ = self.inner.lock().writer.flush();
    }
}

/// Read every record from a JSONL file. Unparseable lines are an error
/// (the file format is fully under this crate's control).
pub fn read_jsonl(path: impl AsRef<Path>) -> std::io::Result<Vec<RingRecord>> {
    let reader = BufReader::new(File::open(path)?);
    let mut records = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let rec = serde_json::from_str(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {}: {e}", i + 1),
            )
        })?;
        records.push(rec);
    }
    Ok(records)
}

/// Per-span-path totals within an [`Aggregate`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total nanoseconds across them.
    pub total_ns: u64,
    /// Total kernel FLOPs attributed to spans at this path.
    pub flops: u64,
    /// Total kernel bytes moved attributed to spans at this path.
    pub bytes: u64,
    /// Total heap allocations attributed (0 without `FEDKNOW_PROF_ALLOC`).
    pub allocs: u64,
    /// Total bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl SpanStat {
    /// Achieved GFLOP/s across the spans at this path, if any kernel
    /// work was attributed.
    pub fn gflops_per_sec(&self) -> Option<f64> {
        (self.flops > 0 && self.total_ns > 0).then(|| self.flops as f64 / self.total_ns as f64)
    }
}

/// An exact aggregation of a record stream: counter totals, raw
/// histogram samples (sorted), per-path span totals, last-written
/// gauges, and series points in index order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Aggregate {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// All samples per histogram metric, sorted ascending.
    pub samples: BTreeMap<String, Vec<u64>>,
    /// Span totals by hierarchical path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Last-written gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Series points `(index, value)` by name, index-sorted (ties in
    /// stream order).
    pub series: BTreeMap<String, Vec<(u64, f64)>>,
}

impl Aggregate {
    /// Aggregate a record stream: `End` records fold into span totals,
    /// `Count`/`Sample`/`Gauge`/`Point` into their metric; the timeline
    /// records (`Begin`, faults, violations, notes, wire points) carry
    /// nothing to aggregate and are skipped.
    pub fn from_events(records: &[RingRecord]) -> Self {
        let mut agg = Aggregate::default();
        for r in records {
            match &r.data {
                RingData::Count { name, delta } => {
                    *agg.counters.entry(name.clone()).or_insert(0) += delta
                }
                RingData::Sample { name, value } => {
                    agg.samples.entry(name.clone()).or_default().push(*value)
                }
                RingData::End { path, dur_ns, perf } => {
                    let stat = agg.spans.entry(path.clone()).or_default();
                    stat.count += 1;
                    stat.total_ns += dur_ns;
                    if let Some(p) = perf {
                        stat.flops += p.flops;
                        stat.bytes += p.bytes;
                        stat.allocs += p.allocs;
                        stat.alloc_bytes += p.alloc_bytes;
                    }
                }
                RingData::Gauge { name, value } => {
                    agg.gauges.insert(name.clone(), *value);
                }
                RingData::Point { name, index, value } => agg
                    .series
                    .entry(name.clone())
                    .or_default()
                    .push((*index, *value)),
                _ => {}
            }
        }
        for v in agg.samples.values_mut() {
            v.sort_unstable();
        }
        for v in agg.series.values_mut() {
            v.sort_by_key(|&(i, _)| i);
        }
        agg
    }

    /// Total of a counter, or 0 if it was never incremented — fault
    /// counters (`fl.crashes`, `fl.retries`, ...) are absent from clean
    /// runs, and "absent" means zero, not missing data.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Exact nearest-rank quantile over a metric's samples.
    pub fn quantile(&self, name: &str, q: f64) -> Option<u64> {
        let xs = self.samples.get(name)?;
        if xs.is_empty() {
            return None;
        }
        let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
        Some(xs[rank - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::SpanPerf;

    fn rec(data: RingData) -> RingRecord {
        RingRecord {
            ts_ns: 0,
            round: 0,
            data,
        }
    }

    fn count_rec(delta: u64) -> RingRecord {
        rec(RingData::Count {
            name: "rotate.c".into(),
            delta,
        })
    }

    fn delta_of(r: &RingRecord) -> u64 {
        match r.data {
            RingData::Count { delta, .. } => delta,
            _ => panic!("expected count"),
        }
    }

    #[test]
    fn capped_sink_rotates_keeping_newest() {
        let path =
            std::env::temp_dir().join(format!("fedknow_obs_rotate_{}.jsonl", std::process::id()));
        let rotated = JsonlSink::rotated_path(&path);
        let _ = std::fs::remove_file(&rotated);
        let line_len = serde_json::to_string(&count_rec(0)).unwrap().len() as u64 + 1;
        // Cap at 10 lines' worth; write 25 -> two rotations.
        let sink = JsonlSink::with_max_bytes(&path, Some(10 * line_len)).unwrap();
        for i in 0..25u64 {
            sink.emit(&count_rec(i));
        }
        sink.flush();
        // .1 holds the second batch of 10 (newest rotated file wins)…
        let old = read_jsonl(&rotated).unwrap();
        assert_eq!(old.len(), 10);
        assert_eq!(delta_of(&old[0]), 10);
        // …and the live file holds the newest 5.
        let new = read_jsonl(&path).unwrap();
        assert_eq!(new.len(), 5);
        assert_eq!(delta_of(&new[4]), 24);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);
    }

    #[test]
    fn uncapped_sink_never_rotates() {
        let path =
            std::env::temp_dir().join(format!("fedknow_obs_norotate_{}.jsonl", std::process::id()));
        let rotated = JsonlSink::rotated_path(&path);
        let _ = std::fs::remove_file(&rotated);
        let sink = JsonlSink::with_max_bytes(&path, None).unwrap();
        for i in 0..100u64 {
            sink.emit(&count_rec(i));
        }
        sink.flush();
        assert_eq!(read_jsonl(&path).unwrap().len(), 100);
        assert!(!rotated.exists());
        let _ = std::fs::remove_file(&path);
    }

    fn sample(name: &str, value: u64) -> RingRecord {
        rec(RingData::Sample {
            name: name.into(),
            value,
        })
    }

    #[test]
    fn aggregate_totals_and_quantiles() {
        let mut records = vec![
            rec(RingData::Count {
                name: "bytes".into(),
                delta: 4,
            }),
            rec(RingData::Count {
                name: "bytes".into(),
                delta: 6,
            }),
            rec(RingData::Begin { path: "run".into() }),
            rec(RingData::End {
                path: "run".into(),
                dur_ns: 50,
                perf: None,
            }),
            rec(RingData::End {
                path: "run".into(),
                dur_ns: 70,
                perf: Some(SpanPerf {
                    flops: 140,
                    bytes: 64,
                    allocs: 2,
                    alloc_bytes: 256,
                }),
            }),
            rec(RingData::Fault {
                client: 0,
                kind: "crash".into(),
                detail: 0,
            }),
        ];
        for v in [5u64, 1, 9, 3, 7] {
            records.push(sample("lat", v));
        }
        let agg = Aggregate::from_events(&records);
        assert_eq!(agg.counters["bytes"], 10);
        assert_eq!(agg.counter("bytes"), 10);
        assert_eq!(agg.counter("never_touched"), 0);
        assert_eq!(
            agg.spans["run"],
            SpanStat {
                count: 2,
                total_ns: 120,
                flops: 140,
                bytes: 64,
                allocs: 2,
                alloc_bytes: 256,
            },
            "only `End` records count as spans"
        );
        // 140 FLOPs over 120 ns: achieved GFLOP/s is FLOPs/ns.
        let g = agg.spans["run"].gflops_per_sec().unwrap();
        assert!((g - 140.0 / 120.0).abs() < 1e-12);
        assert_eq!(agg.samples["lat"], vec![1, 3, 5, 7, 9]);
        assert_eq!(agg.quantile("lat", 0.5), Some(5));
        assert_eq!(agg.quantile("lat", 1.0), Some(9));
        assert_eq!(agg.quantile("missing", 0.5), None);
    }

    #[test]
    fn gauges_keep_last_and_series_sort_by_index() {
        let records = vec![
            rec(RingData::Gauge {
                name: "g".into(),
                value: 1.0,
            }),
            rec(RingData::Gauge {
                name: "g".into(),
                value: 2.0,
            }),
            rec(RingData::Point {
                name: "s".into(),
                index: 5,
                value: 0.5,
            }),
            rec(RingData::Point {
                name: "s".into(),
                index: 2,
                value: 0.25,
            }),
        ];
        let agg = Aggregate::from_events(&records);
        assert_eq!(agg.gauges["g"], 2.0);
        assert_eq!(agg.series["s"], vec![(2, 0.25), (5, 0.5)]);
    }
}
