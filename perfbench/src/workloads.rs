//! The four workloads' inputs, generated from the seed alone.
//!
//! Every schedule comes from the `workload` crate (the span around
//! `Workload::schedule` is the `workload.schedule_s` layer metric); the
//! harness only picks shapes, timers, faults and network behaviour.

use crate::common::timed;
use desim::{RngStreams, SimDuration, SimTime};
use hc3i_core::ProtocolConfig;
use netsim::{ClusterSpec, HostileSpec, LinkSpec, Topology};
use simdriver::SimConfig;
use workload::{SendEvent, StochasticWorkload, TargetCountWorkload, Workload};

/// The seed whose reports are pinned by digest.
pub const DEFAULT_SEED: u64 = 20040426;

/// Names accepted by `--workload`, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "paper_federation",
    "wide_hostile_ring",
    "runtime_open_loop",
    "durable_checkpoint",
];

/// A generated simulator input.
pub struct SimInput {
    pub cfg: SimConfig,
    /// Seconds spent in `Workload::schedule`.
    pub schedule_s: f64,
    /// Pending-event depth the scheduler replay runs at: one timer or
    /// in-flight message per node plus one timer per cluster.
    pub pending_depth: usize,
}

fn minutes(m: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_minutes(m)
}

/// Sends stop this long before the horizon, so every message drains.
const DRAIN: SimDuration = SimDuration::from_minutes(10);

// ---- paper_federation ------------------------------------------------------

/// Application hours of the paper federation per run.
pub const PAPER_HOURS: u64 = 300;

/// The paper's 2x100 reference federation with the section 5.2
/// application (the `hc3i-sim sample-configs` files: 95/5 and 0.5/99.5
/// traffic, 120 s / 140 s compute phases, a 30-minute CLC timer in
/// cluster 0, GC every 2 h), plus MTBF-driven faults, on a pristine
/// network and the sequential executive.
pub fn paper_federation(seed: u64) -> SimInput {
    let w = StochasticWorkload {
        cluster_sizes: vec![100, 100],
        duration: SimDuration::from_hours(PAPER_HOURS),
        compute_mean_secs: vec![120.0, 140.0],
        pattern: vec![vec![0.95, 0.05], vec![0.005, 0.995]],
        payload_bytes: 1024,
    };
    let (schedule_s, sends) = timed(|| w.schedule(&RngStreams::new(seed)));
    let mut topology = Topology::paper_reference(2);
    topology.mtbf = Some(SimDuration::from_hours(40));
    let cfg = SimConfig::new(topology, w.duration + DRAIN)
        .with_sends(sends)
        .with_seed(seed)
        .with_clc_delay(0, SimDuration::from_minutes(30))
        .with_gc_interval(SimDuration::from_hours(2))
        .with_delivery_ledger();
    SimInput {
        cfg,
        schedule_s,
        pending_depth: 200 + 2,
    }
}

// ---- ring federations ------------------------------------------------------

/// `n` clusters of `nodes` on Myrinet-like SANs joined by Ethernet-like
/// links (the paper's link classes).
pub fn uniform_topology(n: usize, nodes: u32) -> Topology {
    Topology::new(
        vec![
            ClusterSpec {
                nodes,
                intra: LinkSpec::myrinet_like(),
            };
            n
        ],
        LinkSpec::ethernet_like(),
    )
}

/// A ring federation: `n` clusters of `nodes`, each sending `intra`
/// messages inside itself and `next` to its ring neighbour over `hours`,
/// every cluster with a 30-minute CLC timer.
fn ring(n: usize, nodes: u32, hours: u64, intra: u64, next: u64, seed: u64) -> (SimConfig, f64) {
    let mut counts = vec![vec![0u64; n]; n];
    for (i, row) in counts.iter_mut().enumerate() {
        row[i] = intra;
        row[(i + 1) % n] = next;
    }
    let w = TargetCountWorkload {
        cluster_sizes: vec![nodes; n],
        duration: SimDuration::from_hours(hours),
        counts,
        payload_bytes: 1024,
    };
    let (schedule_s, sends) = timed(|| w.schedule(&RngStreams::new(seed)));
    let mut cfg = SimConfig::new(uniform_topology(n, nodes), w.duration + DRAIN)
        .with_sends(sends)
        .with_seed(seed)
        .with_protocol(ProtocolConfig::new(vec![nodes; n]));
    for c in 0..n {
        cfg = cfg.with_clc_delay(c, SimDuration::from_minutes(30));
    }
    (cfg, schedule_s)
}

pub const WIDE_CLUSTERS: usize = 1024;
pub const WIDE_NODES: u32 = 8;

/// 1024 clusters x 8 nodes on a hostile wire: 5% loss, 5% duplication,
/// 5% reordering and one partition of half the clusters that heals,
/// under the reliable transport with the delivery ledger on, GC every
/// 2 h and MTBF-driven faults.
pub fn wide_hostile_ring(seed: u64) -> SimInput {
    let (cfg, schedule_s) = ring(WIDE_CLUSTERS, WIDE_NODES, 6, 120, 30, seed);
    let mut cfg = cfg
        .with_gc_interval(SimDuration::from_hours(1))
        .with_hostile(
            HostileSpec::seeded(seed ^ 0x5ca1_ab1e)
                .with_loss(0.05)
                .with_duplication(0.05, SimDuration::from_millis(2))
                .with_reorder(0.05, SimDuration::from_millis(1)),
        )
        .with_partition(
            minutes(50),
            minutes(65),
            (0..WIDE_CLUSTERS as u16 / 2).collect(),
        )
        .with_reliable_transport()
        .with_delivery_ledger();
    cfg.topology.mtbf = Some(SimDuration::from_minutes(60));
    SimInput {
        cfg,
        schedule_s,
        pending_depth: WIDE_CLUSTERS * WIDE_NODES as usize + WIDE_CLUSTERS,
    }
}

pub const DURABLE_CLUSTERS: usize = 64;
pub const DURABLE_NODES: u32 = 8;

/// A 64x8 ring on a pristine wire, no faults, GC off, every node's CLC
/// store mirrored to a segment log in `dir` with an fsync per commit.
pub fn durable_checkpoint(seed: u64, dir: &std::path::Path) -> SimInput {
    let (cfg, schedule_s) = ring(DURABLE_CLUSTERS, DURABLE_NODES, 3, 60, 15, seed);
    SimInput {
        cfg: cfg.with_durable_dir(dir),
        schedule_s,
        pending_depth: DURABLE_CLUSTERS * DURABLE_NODES as usize + DURABLE_CLUSTERS,
    }
}

// ---- runtime_open_loop -----------------------------------------------------

pub const RT_CLUSTERS: usize = 4;
pub const RT_NODES: u32 = 16;
/// Open-loop offered load.
pub const RT_RATE: f64 = 100_000.0;
/// Open-loop phase length.
pub const RT_OPEN_SECS: f64 = 4.0;
/// One `checkpoint_now`, rotating over the clusters, per this many sends.
pub const RT_CKPT_EVERY: usize = 500;
/// One `gc_now` per this many sends.
pub const RT_GC_EVERY: usize = 25_000;
/// Closed-loop window of outstanding messages.
pub const RT_WINDOW: usize = 2048;
/// Messages per closed-loop repetition.
pub const RT_CLOSED_MSGS: usize = 100_000;
/// Closed-loop repetitions per timed run.
pub const RT_CLOSED_REPS: usize = 40;
pub const RT_PAYLOAD: u64 = 256;

/// One generated runtime send: offset from the phase start, endpoints.
#[derive(Clone, Copy)]
pub struct LiveSend {
    pub at_s: f64,
    pub ev: SendEvent,
}

/// The runtime workload's traffic: `count` sends, 90% inside a cluster
/// and 10% to the next cluster, endpoints drawn by the `workload` crate
/// and spaced evenly at `rate` per second.
pub fn runtime_sends(seed: u64, count: usize, rate: f64) -> (Vec<LiveSend>, f64) {
    let per_cluster = count as u64 / RT_CLUSTERS as u64;
    let inter = per_cluster / 10;
    let mut counts = vec![vec![0u64; RT_CLUSTERS]; RT_CLUSTERS];
    for (i, row) in counts.iter_mut().enumerate() {
        row[i] = per_cluster - inter;
        row[(i + 1) % RT_CLUSTERS] = inter;
    }
    let w = TargetCountWorkload {
        cluster_sizes: vec![RT_NODES; RT_CLUSTERS],
        duration: SimDuration::from_secs_f64(count as f64 / rate),
        counts,
        payload_bytes: RT_PAYLOAD,
    };
    let (schedule_s, sends) = timed(|| w.schedule(&RngStreams::new(seed)));
    let live = sends
        .into_iter()
        .enumerate()
        .map(|(k, ev)| LiveSend {
            at_s: k as f64 / rate,
            ev,
        })
        .collect();
    (live, schedule_s)
}
