//! Round boundaries derived from outside the program.
//!
//! A round ends when the last live client returns from the
//! `receive_global` that carries that round's aggregate. The decorator
//! records only the end time of every `receive_global`; the report's
//! fault log says which of those calls were rejoin resyncs, which
//! clients crashed out of a round, and which rounds aggregated nothing
//! (every upload lost, late, quarantined or crashed), so no broadcast
//! reached any client.

use crate::timed::ClientLog;
use fedknow_fl::{FaultKind, SimReport};
use std::collections::BTreeSet;
use std::time::Instant;

/// What the fault log says about one federation's schedule.
pub struct Schedule {
    /// Participants per global round: active and not crashed.
    pub part: Vec<Vec<bool>>,
    /// Rounds whose aggregate existed, so participants received it.
    pub has_global: Vec<bool>,
    /// Uploads scheduled: one per active client per round.
    pub uploads_scheduled: u64,
    /// Scheduled uploads that did not reach FedAvg.
    pub uploads_failed: u64,
    rejoins: BTreeSet<(u64, usize)>,
}

impl Schedule {
    /// Rebuild the schedule of a run with `clients` clients, `tasks`
    /// tasks and `rounds_per_task` rounds each from its report.
    pub fn from_report(
        report: &SimReport,
        clients: usize,
        tasks: usize,
        rounds_per_task: usize,
    ) -> Self {
        let events = |kinds: &[FaultKind]| -> BTreeSet<(u64, usize)> {
            report
                .fault_log
                .iter()
                .filter(|e| kinds.contains(&e.kind))
                .map(|e| (e.round, e.client))
                .collect()
        };
        let crashed = events(&[FaultKind::Crash]);
        let failed = events(&[
            FaultKind::Crash,
            FaultKind::UploadLost,
            FaultKind::DeadlineMiss,
            FaultKind::UploadRejected,
        ]);
        let rejoins = events(&[FaultKind::Rejoin]);
        // An out-of-memory dropout leaves after finishing `step`.
        let active = |c: usize, step: usize| {
            report
                .dropouts
                .iter()
                .all(|&(dc, ds)| dc != c || ds >= step)
        };
        let rounds = tasks * rounds_per_task;
        let mut part = Vec::with_capacity(rounds);
        let mut has_global = Vec::with_capacity(rounds);
        let mut scheduled = 0u64;
        let mut failed_count = 0u64;
        for r in 0..rounds {
            let step = r / rounds_per_task;
            let round = r as u64;
            let p: Vec<bool> = (0..clients)
                .map(|c| active(c, step) && !crashed.contains(&(round, c)))
                .collect();
            let live = (0..clients).filter(|&c| active(c, step)).count() as u64;
            let lost = (0..clients)
                .filter(|&c| active(c, step) && failed.contains(&(round, c)))
                .count() as u64;
            scheduled += live;
            failed_count += lost;
            has_global.push(lost < live);
            part.push(p);
        }
        Schedule {
            part,
            has_global,
            uploads_scheduled: scheduled,
            uploads_failed: failed_count,
            rejoins,
        }
    }

    /// End time of every round that broadcast an aggregate (`None` for
    /// a round that aggregated nothing), matching each client's
    /// `receive_global` calls to the calls the schedule predicts.
    pub fn round_ends(&self, logs: &[ClientLog]) -> Result<Vec<Option<Instant>>, String> {
        let mut ends: Vec<Option<Instant>> = vec![None; self.part.len()];
        for (c, log) in logs.iter().enumerate() {
            let mut calls = log.receive_ends.iter();
            for (r, end) in ends.iter_mut().enumerate() {
                if self.rejoins.contains(&(r as u64, c)) && calls.next().is_none() {
                    return Err(format!("client {c}: missing rejoin resync in round {r}"));
                }
                if self.part[r][c] && self.has_global[r] {
                    let t = *calls
                        .next()
                        .ok_or_else(|| format!("client {c}: missing broadcast of round {r}"))?;
                    *end = Some(end.map_or(t, |e: Instant| e.max(t)));
                }
            }
            if calls.next().is_some() {
                return Err(format!(
                    "client {c}: more receive_global calls than the schedule predicts"
                ));
            }
        }
        Ok(ends)
    }
}

/// Round wall times in milliseconds, from the first client call. A
/// round that broadcast nothing has no end, so neither it nor the round
/// after it can be timed; both are left out.
pub fn round_durations_ms(start: Instant, ends: &[Option<Instant>]) -> Vec<f64> {
    let mut prev = Some(start);
    let mut out = Vec::with_capacity(ends.len());
    for &end in ends {
        if let (Some(p), Some(e)) = (prev, end) {
            out.push((e - p).as_secs_f64() * 1e3);
        }
        prev = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn an_empty_round_and_the_round_after_it_are_not_timed() {
        let t0 = Instant::now();
        let at = |ms: u64| Some(t0 + Duration::from_millis(ms));
        let ends = [at(10), at(30), None, at(90), at(100)];
        let d = round_durations_ms(t0, &ends);
        assert_eq!(d.len(), 3);
        for (got, want) in d.iter().zip([10.0, 20.0, 10.0]) {
            assert!((got - want).abs() < 1e-6, "{d:?}");
        }
    }
}
