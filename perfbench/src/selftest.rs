//! `--self-test`: each output check must pass an honest output and reject
//! a corrupted one — a mutated report, a dropped or repeated delivery, and
//! a truncated segment log.

use crate::checks::{check_durable, check_live, check_repeats, check_sim, report_digest};
use crate::live;
use crate::sim::WorkDir;
use crate::workloads::{self, DEFAULT_SEED, DURABLE_NODES};
use hc3i_core::CheckpointCodec;
use std::path::Path;

/// Print one case's verdict; true when the honest output passed and the
/// corrupted one was rejected.
fn case(name: &str, honest_passes: bool, corrupt_rejected: bool) -> bool {
    let ok = honest_passes && corrupt_rejected;
    println!(
        "self-test {name}: honest output {}, corrupted output {} -> {}",
        if honest_passes { "passes" } else { "REJECTED" },
        if corrupt_rejected {
            "rejected"
        } else {
            "PASSES"
        },
        if ok { "ok" } else { "FAIL" }
    );
    ok
}

/// Cut `bytes` off the end of the newest segment in `dir`.
fn truncate_last_segment(dir: &Path, bytes: u64) {
    let mut segments: Vec<_> = std::fs::read_dir(dir)
        .expect("read the segment directory")
        .flatten()
        .map(|e| e.path())
        .collect();
    segments.sort();
    let last = segments.last().expect("the image has a segment");
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(last)
        .expect("open the newest segment");
    let len = file.metadata().expect("segment metadata").len();
    file.set_len(len.saturating_sub(bytes))
        .expect("truncate the newest segment");
}

pub fn run() -> bool {
    let work = WorkDir::new("self-test");
    let dir = work.fresh("log");
    let input = workloads::durable_checkpoint(DEFAULT_SEED, &dir);
    let (report, stats) = simdriver::run_hostile(input.cfg.clone());
    let honest = report_digest(&report);

    let mut ok = true;
    let mut mutated = report.clone();
    mutated.clusters[0].forced_clcs += 1;
    let bad = report_digest(&mutated);
    ok &= case(
        "mutated report (pinned digest)",
        check_repeats("durable_checkpoint", true, &[honest]).is_empty(),
        !check_repeats("durable_checkpoint", true, &[bad]).is_empty(),
    );
    ok &= case(
        "mutated report (repeat of one seed)",
        check_repeats("durable_checkpoint", false, &[honest, honest]).is_empty(),
        !check_repeats("durable_checkpoint", false, &[honest, bad]).is_empty(),
    );
    let mut unsound = report.clone();
    unsound.late_crossings = 1;
    ok &= case(
        "mutated report (soundness)",
        check_sim(&report, &stats).violations.is_empty(),
        !check_sim(&unsound, &stats).violations.is_empty(),
    );

    let honest_image = storage::recover(&dir, &CheckpointCodec).expect("recover the image");
    let honest_passes = check_durable(&honest_image, &report, DURABLE_NODES)
        .1
        .is_empty();
    truncate_last_segment(&dir, 7);
    let rejected = match storage::recover(&dir, &CheckpointCodec) {
        Ok(image) => !check_durable(&image, &report, DURABLE_NODES).1.is_empty(),
        Err(_) => true,
    };
    ok &= case("truncated image", honest_passes, rejected);

    let tally = live::short_session(DEFAULT_SEED);
    let honest_passes = check_live(&tally).2.is_empty();
    let mut dropped = tally.clone();
    dropped.delivered[tally.delivered.len() / 2] = 0;
    ok &= case(
        "dropped delivery",
        honest_passes,
        !check_live(&dropped).2.is_empty(),
    );
    let mut repeated = tally.clone();
    repeated.delivered[0] = 2;
    ok &= case(
        "repeated delivery",
        honest_passes,
        !check_live(&repeated).2.is_empty(),
    );
    let mut unanswered = tally;
    unanswered.ckpt_unanswered += 1;
    ok &= case(
        "unanswered checkpoint",
        honest_passes,
        !check_live(&unanswered).2.is_empty(),
    );
    ok
}
