//! The HC3I benchmark harness.
//!
//! ```text
//! hc3i-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! hc3i-perfbench --self-test
//! ```
//!
//! Generates the named workload from the seed, drives it through the
//! workspace's public API, checks every output, and prints as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). A failed output check prints the failures and exits 1.
//! See `README.md` beside this crate for the workloads and metrics.

mod checks;
mod common;
mod layers;
mod live;
mod selftest;
mod sim;
mod workloads;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: hc3i-perfbench --workload NAME --seed N --seconds S --trace 0|1\n       hc3i-perfbench --self-test\n";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--self-test") {
        return if selftest::run() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprint!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = match (args.workload.as_str(), args.trace) {
        ("runtime_open_loop", false) => live::timed_run(args.seed),
        ("runtime_open_loop", true) => live::traced_run(args.seed),
        (w, false) => sim::timed_run(w, args.seed, args.seconds),
        (w, true) => sim::traced_run(w, args.seed),
    };
    if args.trace {
        out.metric("host.calibration_rate", common::calibration_rate(), "1/s");
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for v in &out.violations {
        eprintln!("output check failed: {v}");
    }
    println!("{}", out.result_json());
    if out.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
