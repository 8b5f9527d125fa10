//! The `runtime_open_loop` workload: the threaded runtime driven by one
//! generator/controller thread, first open loop at a fixed rate, then
//! closed loop with a fixed window of outstanding messages.
//!
//! The same session type replays a slice of every simulator workload on
//! the live substrate for the per-layer `runtime.*` metrics.

use crate::checks::{check_live, LiveTally};
use crate::common::{fastest, median, peak_rss_mib, quantile, sorted, timed, Outcome};
use crate::layers;
use crate::workloads::{self, LiveSend};
use hc3i_core::AppPayload;
use runtime::{Federation, RtEvent, RuntimeConfig};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 9;
/// How long the controller waits for stragglers before counting them lost.
const DRAIN_DEADLINE: Duration = Duration::from_secs(20);
/// Below this much slack before the next due send the controller polls
/// instead of blocking.
const SPIN: Duration = Duration::from_micros(50);

/// Worker shards: every core but the one the controller runs on.
pub fn worker_shards() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .max(1)
}

pub fn config(cluster_sizes: Vec<u32>) -> RuntimeConfig {
    RuntimeConfig::manual(cluster_sizes)
        .with_reliable_transport()
        .with_shards(worker_shards())
}

/// Samples of one session, all host time.
#[derive(Default)]
pub struct LiveSamples {
    /// Scheduled send → observed `Delivered`, open loop only (µs).
    pub deliver_us: Vec<f64>,
    /// `checkpoint_now` → its unforced `Committed`, open loop only (µs).
    pub commit_us: Vec<f64>,
    /// Actual send − scheduled send, open loop (ms).
    pub late_ms: Vec<f64>,
    /// Span around `send_app` (ns).
    pub send_app_ns: Vec<f64>,
    /// Seconds blocked in `next_event`.
    pub wait_s: f64,
    /// Non-blocking drains and the events they returned.
    pub drains: u64,
    pub drained: u64,
    /// Closed-loop repetitions: seconds for their message count.
    pub closed_s: Vec<f64>,
    /// Controller wall time of the phases (for the wait fraction).
    pub phase_s: f64,
}

/// One running federation and the controller's view of it.
pub struct Session {
    fed: Federation,
    clusters: usize,
    /// When each open-loop message was due (open-loop tags come first).
    due: Vec<Instant>,
    pending_ckpt: Vec<VecDeque<Instant>>,
    first_deliveries: usize,
    tally: LiveTally,
    samples: LiveSamples,
    /// Open-loop phase: record delivery latencies.
    record: bool,
}

impl Session {
    pub fn new(fed: Federation, clusters: usize) -> Self {
        Session {
            fed,
            clusters,
            due: Vec::new(),
            pending_ckpt: vec![VecDeque::new(); clusters],
            first_deliveries: 0,
            tally: LiveTally::default(),
            samples: LiveSamples::default(),
            record: false,
        }
    }

    fn observe(&mut self, ev: RtEvent, now: Instant) {
        match ev {
            RtEvent::Delivered { payload, .. } => {
                let tag = payload.tag as usize;
                let Some(count) = self.tally.delivered.get_mut(tag) else {
                    self.tally
                        .alarms
                        .push(format!("delivery of unknown tag {tag}"));
                    return;
                };
                *count = count.saturating_add(1);
                if *count == 1 {
                    self.first_deliveries += 1;
                    if let Some(due) = self.due.get(tag) {
                        let us = now.saturating_duration_since(*due).as_secs_f64() * 1e6;
                        self.samples.deliver_us.push(us);
                    }
                }
            }
            RtEvent::Committed {
                cluster, forced, ..
            } => {
                // A request merged with a forced reason commits in a round
                // reported as forced, so any commit after a request answers
                // it; a latency sample needs an unforced commit answering
                // exactly one request.
                let pending = &mut self.pending_ckpt[cluster];
                if !forced && pending.len() == 1 && self.record {
                    let us = now.saturating_duration_since(pending[0]).as_secs_f64() * 1e6;
                    self.samples.commit_us.push(us);
                }
                if forced {
                    self.tally.ckpt_merged += pending.len() as u64;
                }
                pending.clear();
            }
            RtEvent::GcReport { .. } => {}
            RtEvent::RolledBack { node, .. } => self
                .tally
                .alarms
                .push(format!("unexpected rollback of {node:?}")),
            RtEvent::Unrecoverable { cluster, rank } => self.tally.alarms.push(format!(
                "unrecoverable fault in cluster {cluster} rank {rank}"
            )),
            RtEvent::LateCrossing { node } => {
                self.tally.alarms.push(format!("late crossing at {node:?}"))
            }
        }
    }

    fn drain(&mut self) {
        let events = self.fed.drain_events();
        let now = Instant::now();
        self.samples.drains += 1;
        self.samples.drained += events.len() as u64;
        for ev in events {
            self.observe(ev, now);
        }
    }

    fn wait(&mut self, timeout: Duration) {
        let t0 = Instant::now();
        let ev = self.fed.next_event(timeout);
        let now = Instant::now();
        self.samples.wait_s += (now - t0).as_secs_f64();
        if let Some(ev) = ev {
            self.observe(ev, now);
        }
    }

    /// Send one message; its tag is its index in the session. Only the
    /// open loop keeps per-message timings.
    fn send(&mut self, s: &LiveSend, due: Instant) {
        let tag = self.tally.delivered.len() as u64;
        self.tally.delivered.push(0);
        let payload = AppPayload {
            bytes: s.ev.bytes,
            tag,
        };
        if !self.record {
            self.fed.send_app(s.ev.from, s.ev.to, payload);
            return;
        }
        self.due.push(due);
        let t0 = Instant::now();
        self.fed.send_app(s.ev.from, s.ev.to, payload);
        self.samples
            .send_app_ns
            .push(t0.elapsed().as_secs_f64() * 1e9);
    }

    /// After the `k`-th send of a phase: `checkpoint_now` rotating over the
    /// clusters every [`workloads::RT_CKPT_EVERY`] sends, `gc_now` every
    /// [`workloads::RT_GC_EVERY`].
    fn housekeeping(&mut self, k: usize) {
        if (k + 1).is_multiple_of(workloads::RT_CKPT_EVERY) {
            self.checkpoint((k / workloads::RT_CKPT_EVERY) % self.clusters);
        }
        if (k + 1).is_multiple_of(workloads::RT_GC_EVERY) {
            self.fed.gc_now();
        }
    }

    fn checkpoint(&mut self, cluster: usize) {
        self.tally.ckpt_requested += 1;
        self.pending_ckpt[cluster].push_back(Instant::now());
        self.fed.checkpoint_now(cluster);
    }

    /// Every message delivered, and every checkpoint request followed by a
    /// commit of its cluster.
    fn settled(&self) -> bool {
        self.first_deliveries == self.tally.delivered.len()
            && self.pending_ckpt.iter().all(VecDeque::is_empty)
    }

    /// Wait until every message sent so far is delivered and every
    /// checkpoint answered, or the deadline passes.
    fn settle(&mut self) {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while !self.settled() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            self.wait(left.min(Duration::from_millis(100)));
            self.drain();
        }
    }

    /// Open loop: send `sends` at their offsets from now regardless of
    /// progress, with [`Session::housekeeping`] after each send.
    pub fn open_loop(&mut self, sends: &[LiveSend]) {
        self.record = true;
        let start = Instant::now();
        for (k, s) in sends.iter().enumerate() {
            let due = start + Duration::from_secs_f64(s.at_s);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                if due - now > SPIN {
                    self.wait(due - now - SPIN);
                } else {
                    self.drain();
                }
            }
            let late = Instant::now().saturating_duration_since(due);
            self.samples.late_ms.push(late.as_secs_f64() * 1e3);
            self.send(s, due);
            self.housekeeping(k);
            if k % 64 == 63 {
                self.drain();
            }
        }
        self.settle();
        self.record = false;
        self.samples.phase_s += start.elapsed().as_secs_f64();
    }

    /// Closed loop: keep `window` messages outstanding until `count`
    /// messages (endpoints cycled from `sends`) are delivered, with
    /// [`Session::housekeeping`] after each send. Returns the seconds it
    /// took.
    pub fn closed_loop(&mut self, sends: &[LiveSend], count: usize, window: usize) -> f64 {
        let start = Instant::now();
        let base = self.first_deliveries;
        let mut sent = 0usize;
        while self.first_deliveries - base < count {
            while sent < count && sent - (self.first_deliveries - base) < window {
                self.send(&sends[sent % sends.len()], Instant::now());
                sent += 1;
                self.housekeeping(sent - 1);
            }
            self.wait(Duration::from_millis(100));
            self.drain();
            if start.elapsed() > DRAIN_DEADLINE {
                break;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        self.samples.phase_s += secs;
        self.samples.closed_s.push(secs);
        secs
    }

    /// Settle, check, stop the federation and fold its report.
    pub fn finish(mut self, out: &mut Outcome) -> Finished {
        self.settle();
        self.tally.ckpt_unanswered = self.pending_ckpt.iter().map(|q| q.len() as u64).sum();
        out.note(format!(
            "{} checkpoint_now calls, {} answered by a forced round",
            self.tally.ckpt_requested, self.tally.ckpt_merged
        ));
        let (attempted, failed, violations) = check_live(&self.tally);
        out.attempted += attempted;
        out.failed += failed;
        out.check("runtime", violations);
        let (shutdown_s, report) = timed(|| self.fed.report());
        out.check("runtime report", campaign::invariants::soundness(&report));
        Finished {
            report,
            shutdown_s,
            samples: self.samples,
            tally: self.tally,
        }
    }
}

/// What a finished session leaves behind.
pub struct Finished {
    pub report: runtime::RunReport,
    /// Seconds `Federation::report` took to stop the pool.
    pub shutdown_s: f64,
    samples: LiveSamples,
    tally: LiveTally,
}

/// A set-up runtime workload: its traffic and a spawned federation.
struct SetUp {
    sends: Vec<LiveSend>,
    schedule_s: f64,
    spawn_s: f64,
    fed: Federation,
}

/// Generate the traffic and spawn the federation; returns the seconds it
/// took.
fn set_up(seed: u64) -> (f64, SetUp) {
    let count = (workloads::RT_RATE * workloads::RT_OPEN_SECS) as usize;
    timed(|| {
        let (sends, schedule_s) = workloads::runtime_sends(seed, count, workloads::RT_RATE);
        let cfg = config(vec![workloads::RT_NODES; workloads::RT_CLUSTERS]);
        let (spawn_s, fed) = timed(|| Federation::spawn(cfg));
        SetUp {
            sends,
            schedule_s,
            spawn_s,
            fed,
        }
    })
}

fn pct(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    quantile(&sorted(v.to_vec()), q)
}

/// The timed run. The work is fixed rather than sized to `--seconds`:
/// the runtime's memory grows with the messages it has delivered, so a
/// time-sized run would make `peak_rss_mb` depend on host speed. `run_s`
/// is the fastest closed-loop repetition.
pub fn timed_run(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let (s, spare) = set_up(seed);
        setups.push(s);
        spare.fed.shutdown();
    }
    let (s, kept) = set_up(seed);
    setups.push(s);
    let sends = kept.sends;
    let mut session = Session::new(kept.fed, workloads::RT_CLUSTERS);
    session.open_loop(&sends);
    let mut closed = Vec::new();
    for _ in 0..workloads::RT_CLOSED_REPS {
        closed.push(session.closed_loop(&sends, workloads::RT_CLOSED_MSGS, workloads::RT_WINDOW));
    }
    let samples = session.finish(&mut out).samples;

    out.metric("setup_s", median(&setups), "s");
    out.metric("run_s", fastest(&closed), "s");
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    out.note(format!(
        "deliver_p50_us {:.1} deliver_p95_us {:.1} (n={}) clc_commit_p50_us {:.1} (n={})",
        pct(&samples.deliver_us, 0.5),
        pct(&samples.deliver_us, 0.95),
        samples.deliver_us.len(),
        pct(&samples.commit_us, 0.5),
        samples.commit_us.len()
    ));
    out.note(format!(
        "saturated_msgs_per_s {:.0} ({} closed-loop repetitions of {} messages, window {})",
        workloads::RT_CLOSED_MSGS as f64 / fastest(&closed),
        closed.len(),
        workloads::RT_CLOSED_MSGS,
        workloads::RT_WINDOW
    ));
    out.note(format!(
        "generator late max {:.3} ms p99 {:.3} ms; {} worker shards",
        samples.late_ms.iter().copied().fold(0.0, f64::max),
        pct(&samples.late_ms, 0.99),
        worker_shards()
    ));
    out.note(format!(
        "failed_ops_frac {} ({} of {})",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    out
}

/// The `runtime.*` layer metrics of one session.
pub fn runtime_metrics(
    out: &mut Outcome,
    s: &LiveSamples,
    spawn_s: f64,
    shutdown_s: f64,
    msgs: usize,
) {
    out.metric("runtime.send_app_ns", median(&s.send_app_ns), "ns");
    out.metric(
        "runtime.controller_wait_frac",
        s.wait_s / s.phase_s.max(1e-9),
        "ratio",
    );
    out.metric(
        "runtime.events_per_drain",
        s.drained as f64 / s.drains.max(1) as f64,
        "count",
    );
    out.metric("runtime.deliver_p50_us", pct(&s.deliver_us, 0.5), "us");
    out.metric("runtime.deliver_p95_us", pct(&s.deliver_us, 0.95), "us");
    out.metric("runtime.deliver_p99_us", pct(&s.deliver_us, 0.99), "us");
    out.metric("runtime.clc_commit_p50_us", pct(&s.commit_us, 0.5), "us");
    out.metric("runtime.clc_commit_p90_us", pct(&s.commit_us, 0.9), "us");
    out.metric(
        "runtime.generator_late_max_ms",
        s.late_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    out.metric("runtime.generator_late_p99_ms", pct(&s.late_ms, 0.99), "ms");
    out.metric(
        "runtime.saturated_msgs_per_s",
        msgs as f64 / fastest(&s.closed_s),
        "msg/s",
    );
    out.metric("runtime.spawn_s", spawn_s, "s");
    out.metric("runtime.shutdown_s", shutdown_s, "s");
}

/// The traced run: one open-loop phase and three closed-loop repetitions
/// with every span kept, then the replays of the other layers.
pub fn traced_run(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let SetUp {
        sends,
        schedule_s,
        spawn_s,
        fed,
    } = set_up(seed).1;
    let mut session = Session::new(fed, workloads::RT_CLUSTERS);
    session.open_loop(&sends);
    for _ in 0..3 {
        session.closed_loop(&sends, workloads::RT_CLOSED_MSGS, workloads::RT_WINDOW);
    }
    let done = session.finish(&mut out);
    runtime_metrics(
        &mut out,
        &done.samples,
        spawn_s,
        done.shutdown_s,
        workloads::RT_CLOSED_MSGS,
    );
    layers::live_layers(&mut out, seed, &sends, schedule_s, &done.report);
    out
}

/// Replay `sends` (a slice of a simulator workload, respaced at the
/// runtime workload's rate) on a live federation of `cluster_sizes`, and
/// report the `runtime.*` metrics of that replay.
pub fn replay(out: &mut Outcome, cluster_sizes: Vec<u32>, sends: &[LiveSend]) {
    let clusters = cluster_sizes.len();
    let (spawn_s, fed) = timed(|| Federation::spawn(config(cluster_sizes)));
    let mut session = Session::new(fed, clusters);
    session.open_loop(sends);
    session.closed_loop(sends, sends.len(), workloads::RT_WINDOW);
    let done = session.finish(out);
    runtime_metrics(out, &done.samples, spawn_s, done.shutdown_s, sends.len());
}

/// A short open-loop session of the runtime workload, for the self-test.
pub fn short_session(seed: u64) -> LiveTally {
    let (sends, _) = workloads::runtime_sends(seed, 5_000, workloads::RT_RATE);
    let fed = Federation::spawn(config(vec![workloads::RT_NODES; workloads::RT_CLUSTERS]));
    let mut session = Session::new(fed, workloads::RT_CLUSTERS);
    session.open_loop(&sends);
    session.finish(&mut Outcome::default()).tally
}
