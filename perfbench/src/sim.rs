//! The three simulator workloads: `paper_federation`, `wide_hostile_ring`
//! and `durable_checkpoint`.

use crate::checks::{check_durable, check_repeats, check_sim, report_digest};
use crate::common::{fastest, median, peak_rss_mib, repeat, timed, Outcome};
use crate::layers;
use crate::workloads::{self, SimInput, DEFAULT_SEED, DURABLE_NODES};
use desim::TraceLevel;
use simdriver::{HostileRunStats, RunReport};
use std::path::{Path, PathBuf};

/// Set-ups measured per run, at least; `setup_s` is their median.
const MIN_SETUPS: usize = 9;
/// Repetitions of the timed part per run, at least and at most.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 40;
/// Recoveries of one image per repetition of `durable_checkpoint`.
const RECOVERIES: usize = 5;

/// Everything `run_hostile` returned for one repetition.
pub struct SimRep {
    pub secs: f64,
    pub report: RunReport,
    pub stats: HostileRunStats,
}

/// Where a workload keeps its segment logs: inside the checkout, on the
/// disk it lives on.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> Self {
        let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
        WorkDir(dir)
    }

    /// A fresh, empty subdirectory `name`.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let d = self.0.join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create a segment-log directory");
        d
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn make_input(workload: &str, seed: u64, dir: &Path) -> SimInput {
    match workload {
        "paper_federation" => workloads::paper_federation(seed),
        "wide_hostile_ring" => workloads::wide_hostile_ring(seed),
        "durable_checkpoint" => workloads::durable_checkpoint(seed, dir),
        other => unreachable!("not a simulator workload: {other}"),
    }
}

fn run_rep(input: &SimInput) -> SimRep {
    let cfg = input.cfg.clone();
    let (secs, (report, stats)) = timed(|| simdriver::run_hostile(cfg));
    SimRep {
        secs,
        report,
        stats,
    }
}

/// Fold one repetition's checks into the outcome.
fn check_rep(out: &mut Outcome, rep: &SimRep, label: &str) {
    let tally = check_sim(&rep.report, &rep.stats);
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    out.check(label, tally.violations);
}

/// Recover the image in `dir`, check it against `report`, and return the
/// seconds each of `n` recoveries took.
fn recover_and_check(out: &mut Outcome, dir: &Path, report: &RunReport, n: usize) -> Vec<f64> {
    let mut secs = Vec::with_capacity(n);
    for i in 0..n {
        let (s, image) = timed(|| storage::recover(dir, &hc3i_core::CheckpointCodec));
        secs.push(s);
        match image {
            Ok(image) if i == 0 => {
                let (mismatched, v) = check_durable(&image, report, DURABLE_NODES);
                out.attempted += image.stores.len() as u64;
                out.failed += mismatched;
                out.check("recovered image", v);
            }
            Ok(_) => {}
            Err(e) => out.check("recovered image", vec![format!("recover failed: {e}")]),
        }
    }
    secs
}

/// The timed run: repeat set-up + timed part for `seconds`, checking every
/// repetition. Setting up again before each repetition spreads the
/// `setup_s` samples over the whole run, as the `run_s` samples are.
/// `run_s` is the fastest repetition: each does identical work, and
/// interference from other tenants of the host only ever adds time.
pub fn timed_run(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let work = WorkDir::new(workload);
    let set_up = || timed(|| make_input(workload, seed, &work.fresh("log")));
    let mut setups = Vec::new();
    let mut recoveries = Vec::new();
    let reps = repeat(seconds, MIN_REPS, MAX_REPS, || {
        let (s, input) = set_up();
        setups.push(s);
        let rep = run_rep(&input);
        check_rep(&mut out, &rep, "run");
        if let Some(dir) = &input.cfg.durable_dir {
            recoveries.extend(recover_and_check(&mut out, dir, &rep.report, RECOVERIES));
        }
        (rep.secs, rep.report)
    });
    while setups.len() < MIN_SETUPS {
        setups.push(set_up().0);
    }
    let digests: Vec<u64> = reps.iter().map(|(_, r)| report_digest(r)).collect();
    out.check(
        "determinism",
        check_repeats(workload, seed == DEFAULT_SEED, &digests),
    );
    let run_s: Vec<f64> = reps.iter().map(|(s, _)| *s).collect();
    let report = &reps[0].1;

    out.metric("setup_s", median(&setups), "s");
    out.metric("run_s", fastest(&run_s), "s");
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    out.note(format!(
        "{} repetitions, {} events each, report digest {:016x}",
        reps.len(),
        report.events_processed,
        digests[0]
    ));
    if !recoveries.is_empty() {
        out.note(format!(
            "recovery_s {:.6} s (median of {} recoveries)",
            median(&recoveries),
            recoveries.len()
        ));
    }
    out.note(format!(
        "failed_ops_frac {} ({} of {})",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    out
}

/// Untraced and traced repetitions in the traced run.
const TRACED_REPS: usize = 3;

/// The traced run: untraced and traced repetitions (all checked), then
/// the layer replays fed from this workload's inputs and report.
pub fn traced_run(workload: &str, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let work = WorkDir::new(workload);
    let input = make_input(workload, seed, &work.fresh("log"));
    let mut plain = Vec::new();
    for i in 0..TRACED_REPS {
        if i > 0 && input.cfg.durable_dir.is_some() {
            work.fresh("log");
        }
        let rep = run_rep(&input);
        check_rep(&mut out, &rep, "untraced run");
        plain.push(rep);
    }
    let mut image = None;
    if let Some(dir) = &input.cfg.durable_dir {
        let secs = recover_and_check(&mut out, dir, &plain[0].report, RECOVERIES);
        image = Some((dir.clone(), median(&secs)));
    }

    let mut digests: Vec<u64> = plain.iter().map(|r| report_digest(&r.report)).collect();
    let mut traced_s = Vec::new();
    for i in 0..TRACED_REPS {
        let mut cfg = input.cfg.clone().with_trace(TraceLevel::Protocol);
        if cfg.durable_dir.is_some() {
            cfg.durable_dir = Some(work.fresh(&format!("traced-log-{i}")));
        }
        let (s, (report, _tracer)) = timed(|| simdriver::run_traced(cfg));
        out.check("traced run", campaign::invariants::soundness(&report));
        digests.push(report_digest(&report));
        traced_s.push(s);
    }
    out.check(
        "determinism",
        check_repeats(workload, seed == DEFAULT_SEED, &digests),
    );

    let run_s: Vec<f64> = plain.iter().map(|r| r.secs).collect();
    let run = layers::SimObserved {
        input: &input,
        report: &plain[0].report,
        stats: &plain[0].stats,
        run_s: median(&run_s),
        traced_s: median(&traced_s),
        image,
    };
    layers::sim_layers(&mut out, &run, seed, &work);
    out
}
