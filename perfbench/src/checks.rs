//! Output checks. Every timed and traced run passes through these; any
//! violation makes the run incorrect and the command exit non-zero.
//! `--self-test` feeds each check a corrupted output and requires it to be
//! rejected.

use crate::common::digest;
use simdriver::{HostileRunStats, RunReport};

/// Digests of the full `RunReport` `Debug` dump at
/// [`DEFAULT_SEED`](crate::workloads::DEFAULT_SEED), recorded from this
/// commit's code. The simulator is deterministic, so these change only
/// when the protocol's behaviour (or a workload's inputs) changes.
pub fn pinned_digest(workload: &str) -> Option<u64> {
    match workload {
        "paper_federation" => Some(0x69a7_91ea_00b4_0458),
        "wide_hostile_ring" => Some(0xc5d4_8949_cfff_ba20),
        "durable_checkpoint" => Some(0x396f_ebc0_6987_52e1),
        _ => None,
    }
}

/// Digest of a report's full `Debug` dump.
pub fn report_digest(r: &RunReport) -> u64 {
    digest(&format!("{r:?}"))
}

/// Failed operations of a simulator run, and what it attempted.
pub struct SimTally {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

/// Soundness, plus — when the run kept a delivery ledger — no lost
/// committed work and at most one delivery per tag per incarnation.
/// Failed operations are ledger tags never delivered, tags delivered twice
/// in one incarnation, and soundness violations; attempted operations are
/// ledger sends.
pub fn check_sim(report: &RunReport, stats: &HostileRunStats) -> SimTally {
    let mut violations = campaign::invariants::soundness(report);
    let mut failed = violations.len() as u64;
    let mut attempted = report.app_sent;
    if let Some(ledger) = &stats.ledger {
        attempted = ledger.sent_tags() as u64;
        failed += ledger.undelivered().len() as u64;
        failed += ledger.duplicated_in_incarnation().len() as u64;
        violations.extend(campaign::invariants::no_lost_committed_work(stats));
        violations.extend(campaign::invariants::delivered_record_consistency(stats));
    }
    if report.app_sent == 0 || report.events_processed == 0 {
        violations.push("the run did no work".into());
    }
    SimTally {
        attempted,
        failed,
        violations,
    }
}

/// Every repetition of one seed must produce the same report, and at the
/// default seed that report must match the pinned digest.
pub fn check_repeats(workload: &str, pinned: bool, digests: &[u64]) -> Vec<String> {
    let mut v = Vec::new();
    if let Some(&first) = digests.first() {
        if let Some(i) = digests.iter().position(|&d| d != first) {
            v.push(format!(
                "repetition {i} produced report digest {:016x}, repetition 0 {first:016x}",
                digests[i]
            ));
        }
        if pinned {
            if let Some(want) = pinned_digest(workload) {
                if first != want {
                    v.push(format!(
                        "report digest {first:016x} differs from the pinned {want:016x}"
                    ));
                }
            }
        }
    }
    v
}

/// A runtime run's delivery and checkpoint tallies.
#[derive(Clone, Default)]
pub struct LiveTally {
    /// Deliveries observed per tag (index = tag), saturating.
    pub delivered: Vec<u8>,
    /// `checkpoint_now` calls.
    pub ckpt_requested: u64,
    /// Requests first followed by a forced commit: merged into a round
    /// that also had a forced reason, or overtaken by one in flight.
    pub ckpt_merged: u64,
    /// Requests no commit of their cluster followed.
    pub ckpt_unanswered: u64,
    /// `LateCrossing` / `Unrecoverable` events seen.
    pub alarms: Vec<String>,
}

/// Every tag delivered exactly once, no alarms, every checkpoint answered
/// by a commit of its cluster.
/// Returns `(attempted, failed, violations)`.
pub fn check_live(t: &LiveTally) -> (u64, u64, Vec<String>) {
    let mut v = Vec::new();
    let missing = t.delivered.iter().filter(|&&d| d == 0).count() as u64;
    let repeated = t.delivered.iter().filter(|&&d| d > 1).count() as u64;
    let unanswered = t.ckpt_unanswered;
    if missing > 0 {
        v.push(format!("{missing} messages never delivered"));
    }
    if repeated > 0 {
        v.push(format!("{repeated} messages delivered more than once"));
    }
    if unanswered > 0 {
        v.push(format!(
            "{unanswered} checkpoint_now calls not followed by a commit of their cluster"
        ));
    }
    v.extend(t.alarms.iter().cloned());
    let attempted = t.delivered.len() as u64 + t.ckpt_requested;
    let failed = missing + repeated + unanswered + t.alarms.len() as u64;
    (attempted, failed, v)
}

/// The recovered image must have no torn tail, one chain per node, and
/// each chain must hold 1 + its cluster's committed CLCs. Returns the
/// number of mismatched chains and the violations.
pub fn check_durable<C: storage::durable::EntryCodec>(
    image: &storage::durable::Recovered<C>,
    report: &RunReport,
    nodes_per_cluster: u32,
) -> (u64, Vec<String>) {
    let mut v = Vec::new();
    if let Some(t) = image.torn {
        v.push(format!(
            "torn tail: {} bytes discarded at offset {} of segment {}",
            t.discarded, t.offset, t.segment
        ));
    }
    let mut mismatched = 0u64;
    for (c, cluster) in report.clusters.iter().enumerate() {
        let want = 1 + cluster.total_clcs() as usize;
        for r in 0..nodes_per_cluster as u64 {
            let node = c as u64 * nodes_per_cluster as u64 + r;
            let got = image.stores.get(&node).map_or(0, |s| s.len());
            if got != want {
                mismatched += 1;
                if mismatched <= 4 {
                    v.push(format!("node {node}: chain of {got}, report says {want}"));
                }
            }
        }
    }
    let nodes = report.clusters.len() as u64 * nodes_per_cluster as u64;
    if image.stores.len() as u64 != nodes {
        v.push(format!(
            "{} chains recovered for {nodes} nodes",
            image.stores.len()
        ));
    }
    if mismatched > 4 {
        v.push(format!("{mismatched} chains mismatched in all"));
    }
    (mismatched, v)
}
