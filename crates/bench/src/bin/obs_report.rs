//! Turn a `FEDKNOW_OBS` JSONL trace into per-phase summary tables.
//!
//! ```text
//! FEDKNOW_OBS=/tmp/run.jsonl cargo run --release --bin probe
//! cargo run --release --bin obs_report -- /tmp/run.jsonl
//! ```
//!
//! Three tables are printed:
//!
//! * **phases** — every sampled metric (`qp.solve_ns`, `model.fwd_ns`,
//!   …): count, total, mean, exact p50/p99, and share of wall-time
//!   (the `run` span). With parallel clients, shares can sum past 100%.
//!   Simulated-clock histograms (`comm.sim_transfer_ns`, the comm
//!   model's link time) follow in their own table with no share: they
//!   measure no part of the wall.
//! * **spans** — the run hierarchy rolled up by shape (`task.3` →
//!   `task.*`), so all rounds/clients at the same depth aggregate. Each
//!   row carries the kernel FLOPs attributed to its spans (achieved
//!   GFLOP/s per phase) and, for traces taken under
//!   `FEDKNOW_PROF_ALLOC=1`, heap allocation counts and bytes.
//! * **counters** — monotonic totals (`comm.upload_bytes`,
//!   `qp.fallback`, …).

use std::collections::BTreeMap;

use fedknow_bench::{fmt_ns, print_phase_tables};
use fedknow_fl::PhaseStat;
use fedknow_obs::{read_jsonl, Aggregate, SpanStat};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: obs_report <trace.jsonl>");
        std::process::exit(2);
    };
    let records = match read_jsonl(path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("obs_report: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    if records.is_empty() {
        eprintln!("obs_report: {path} holds no records");
        std::process::exit(1);
    }
    let agg = Aggregate::from_events(&records);
    let wall = agg.spans.get("run").map(|s| s.total_ns).unwrap_or(0);

    println!("trace       {path}");
    println!("records     {}", records.len());
    println!("wall time   {}", fmt_ns(wall));

    println!("\n== phases (share of wall; parallel phases may exceed 100%) ==");
    print_phase_tables(&phase_rows(&agg), wall);

    println!("\n== spans (rolled up: task.3 -> task.*) ==");
    let rolled = rollup_spans(&agg.spans);
    let any_alloc = rolled.values().any(|s| s.allocs > 0);
    println!(
        "{:<40}{:>10}{:>12}{:>12}{:>8}{:>8}{:>10}{:>12}",
        "span path", "count", "total", "mean", "share", "GF/s", "allocs", "alloc bytes"
    );
    for (path, stat) in &rolled {
        let share = if wall > 0 {
            100.0 * stat.total_ns as f64 / wall as f64
        } else {
            0.0
        };
        let gflops = stat
            .gflops_per_sec()
            .map(|g| format!("{g:>8.3}"))
            .unwrap_or_else(|| format!("{:>8}", "-"));
        println!(
            "{:<40}{:>10}{:>12}{:>12}{:>7.1}%{gflops}{:>10}{:>12}",
            path,
            stat.count,
            fmt_ns(stat.total_ns),
            fmt_ns(stat.total_ns / stat.count.max(1)),
            share,
            stat.allocs,
            stat.alloc_bytes,
        );
    }
    if !any_alloc {
        println!("(allocation columns are zero — trace was not taken under FEDKNOW_PROF_ALLOC=1)");
    }

    let health: Vec<(&String, &f64)> = agg
        .gauges
        .iter()
        .filter(|(n, _)| n.starts_with("health."))
        .collect();
    if !health.is_empty() {
        println!(
            "\n== health gauges (last written; health.slo.* is 0 ok / 1 warn / 2 critical) =="
        );
        println!("{:<28}{:>14}", "gauge", "value");
        for (name, v) in health {
            println!("{name:<28}{v:>14.4}");
        }
    }

    if !agg.counters.is_empty() {
        println!("\n== counters ==");
        println!("{:<28}{:>14}", "counter", "total");
        for (name, v) in &agg.counters {
            println!("{name:<28}{v:>14}");
        }
    }
}

/// One row per sampled metric with exact statistics, largest total
/// first.
fn phase_rows(agg: &Aggregate) -> Vec<PhaseStat> {
    let mut rows: Vec<PhaseStat> = agg
        .samples
        .iter()
        .map(|(name, xs)| {
            let total: u64 = xs.iter().sum();
            PhaseStat {
                name: name.clone(),
                count: xs.len() as u64,
                total_ns: total,
                mean_ns: total as f64 / xs.len() as f64,
                p50_ns: agg.quantile(name, 0.5).unwrap_or(0),
                p99_ns: agg.quantile(name, 0.99).unwrap_or(0),
            }
        })
        .collect();
    rows.sort_by_key(|p| std::cmp::Reverse(p.total_ns));
    rows
}

/// Merge span paths that differ only in trailing indices: every segment
/// `name.<digits>` becomes `name.*`, so `run/task.0/round.2/client.1`
/// and `run/task.1/round.0/client.3` aggregate into one row.
fn rollup_spans(spans: &BTreeMap<String, SpanStat>) -> BTreeMap<String, SpanStat> {
    let mut out: BTreeMap<String, SpanStat> = BTreeMap::new();
    for (path, stat) in spans {
        let rolled: Vec<String> = path.split('/').map(normalize_segment).collect();
        let entry = out.entry(rolled.join("/")).or_default();
        entry.count += stat.count;
        entry.total_ns += stat.total_ns;
        entry.flops += stat.flops;
        entry.bytes += stat.bytes;
        entry.allocs += stat.allocs;
        entry.alloc_bytes += stat.alloc_bytes;
    }
    out
}

fn normalize_segment(seg: &str) -> String {
    match seg.rsplit_once('.') {
        Some((name, idx)) if !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit()) => {
            format!("{name}.*")
        }
        _ => seg.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_bench::wall_share;
    use fedknow_obs::{RingData, RingRecord};

    /// The phase table must never show simulated link time as a share
    /// of wall time, however large it is next to the wall.
    #[test]
    fn no_simulated_metric_gets_a_wall_share() {
        let sample = |name: &str, value: u64| RingRecord {
            ts_ns: 0,
            round: 0,
            data: RingData::Sample {
                name: name.to_string(),
                value,
            },
        };
        let agg = Aggregate::from_events(&[
            sample("comm.sim_transfer_ns", 2_000_000_000),
            sample("qp.solve_ns", 250_000_000),
            sample("qp.iters", 17),
        ]);
        let wall = 1_000_000_000;
        let rows = phase_rows(&agg);
        let shares: Vec<(&str, Option<f64>)> = rows
            .iter()
            .map(|r| (r.name.as_str(), wall_share(&r.name, r.total_ns, wall)))
            .collect();
        assert_eq!(
            shares,
            vec![
                ("comm.sim_transfer_ns", None),
                ("qp.solve_ns", Some(25.0)),
                ("qp.iters", None),
            ]
        );
        assert_eq!(wall_share("qp.solve_ns", 1, 0), None, "no wall, no share");
    }
}
