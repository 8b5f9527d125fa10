//! Per-layer metrics of the traced run.
//!
//! Nothing inside the crates is instrumented: each layer is measured from
//! here, either by reading what a run returned (`RunReport`,
//! `HostileRunStats`, the segment files) or by a *replay* — the harness
//! calling the layer's public functions itself on inputs taken from the
//! same workload (its schedule, topology, hostile spec, DDV width and
//! image) and timing the calls. Every workload prints every metric; where
//! a layer does no work in a workload, its counts read 0 and its times
//! come from a replay at that workload's parameters.

use crate::common::{median, timed, Mix, Outcome};
use crate::live;
use crate::sim::WorkDir;
use crate::workloads::{self, LiveSend, SimInput};
use desim::{SimDuration, SimTime};
use hc3i_core::{
    AppPayload, CheckpointCodec, Ddv, DeliveredRecord, Input, Msg, NodeCheckpoint, NodeEngine,
    Output, OutputBuf, ReceiverChannel, SenderChannel, SeqNum, XportConfig,
};
use netsim::{HostileNet, HostileSpec, MessageClass, Network, NodeId};
use simdriver::{HostileRunStats, RunReport};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use storage::{ClcMeta, ClcStore, DurableOptions, DurableStore, SyncPolicy};
use workload::SendEvent;

/// Sends replayed through the engine, network and transport layers.
const REPLAY_SENDS: usize = 30_000;
/// Sends of a simulator workload replayed on the live runtime.
const LIVE_REPLAY_SENDS: usize = 20_000;
/// Scheduler operations replayed.
const QUEUE_OPS: usize = 1_000_000;
/// Commit frames replayed through the durable log, at most.
const DURABLE_FRAMES: usize = 2_048;

/// What one simulator workload's traced run observed.
pub struct SimObserved<'a> {
    pub input: &'a SimInput,
    pub report: &'a RunReport,
    pub stats: &'a HostileRunStats,
    /// Untraced and traced `run_hostile` / `run_traced` wall time.
    pub run_s: f64,
    pub traced_s: f64,
    /// The run's segment log and its median recovery time, if durable.
    pub image: Option<(PathBuf, f64)>,
}

/// Per-layer metrics of a simulator workload.
pub fn sim_layers(out: &mut Outcome, run: &SimObserved, seed: u64, work: &WorkDir) {
    sim_side_layers(out, run, seed, work);
    core_counts(out, run.report);
    // The live runtime does no work here: replay a slice of the schedule
    // on a live federation of the same shape.
    let sizes = cluster_sizes(run.input);
    let sends: Vec<LiveSend> = run
        .input
        .cfg
        .sends
        .iter()
        .take(LIVE_REPLAY_SENDS)
        .enumerate()
        .map(|(k, &ev)| LiveSend {
            at_s: k as f64 / workloads::RT_RATE,
            ev,
        })
        .collect();
    live::replay(out, sizes, &sends);
    channel_layer(out, sends.len());
}

/// Per-layer metrics of `runtime_open_loop`. The simulator layers do no
/// work there: they are measured on a simulator run of the same schedule
/// (same shape, sends at their due times, the same checkpoint and GC
/// cadence), and the `core.*` counts come from the live run's report.
pub fn live_layers(
    out: &mut Outcome,
    seed: u64,
    sends: &[LiveSend],
    schedule_s: f64,
    report: &RunReport,
) {
    let work = WorkDir::new("runtime_open_loop");
    let input = runtime_as_sim(seed, sends, schedule_s);
    let cfg = input.cfg.clone();
    let (run_s, (sim_report, stats)) = timed(|| simdriver::run_hostile(cfg));
    let traced_cfg = input.cfg.clone().with_trace(desim::TraceLevel::Protocol);
    let (traced_s, _) = timed(|| simdriver::run_traced(traced_cfg));
    out.check(
        "simulator replay",
        campaign::invariants::soundness(&sim_report),
    );
    let observed = SimObserved {
        input: &input,
        report: &sim_report,
        stats: &stats,
        run_s,
        traced_s,
        image: None,
    };
    sim_side_layers(out, &observed, seed, &work);
    core_counts(out, report);
    channel_layer(out, sends.len());
}

/// The runtime workload's open-loop schedule as a simulator input.
fn runtime_as_sim(seed: u64, sends: &[LiveSend], schedule_s: f64) -> SimInput {
    let n = workloads::RT_CLUSTERS;
    let topology = workloads::uniform_topology(n, workloads::RT_NODES);
    let at = |s: f64| SimTime::ZERO + SimDuration::from_secs_f64(s);
    let horizon = SimDuration::from_secs_f64(sends.last().map_or(0.0, |s| s.at_s) + 1.0);
    let mut cfg = simdriver::SimConfig::new(topology, horizon)
        .with_sends(
            sends
                .iter()
                .map(|s| SendEvent {
                    at: at(s.at_s),
                    ..s.ev
                })
                .collect(),
        )
        .with_seed(seed)
        .with_reliable_transport();
    for (k, s) in sends.iter().enumerate() {
        if (k + 1).is_multiple_of(workloads::RT_CKPT_EVERY) {
            cfg = cfg.with_scripted_clc(at(s.at_s), (k / workloads::RT_CKPT_EVERY) % n);
        }
        if (k + 1).is_multiple_of(workloads::RT_GC_EVERY) {
            cfg = cfg.with_scripted_gc(at(s.at_s));
        }
    }
    SimInput {
        cfg,
        schedule_s,
        pending_depth: n * workloads::RT_NODES as usize + n,
    }
}

fn cluster_sizes(input: &SimInput) -> Vec<u32> {
    let p = &input.cfg.protocol;
    (0..p.num_clusters()).map(|c| p.nodes_in(c)).collect()
}

/// Every layer below the host: workload, simulator, scheduler, engine,
/// network, transport, storage and the durable log.
fn sim_side_layers(out: &mut Outcome, run: &SimObserved, seed: u64, work: &WorkDir) {
    let cfg = &run.input.cfg;
    let events = run.report.events_processed as f64;
    out.metric("workload.schedule_s", run.input.schedule_s, "s");
    out.metric("workload.sends", cfg.sends.len() as f64, "count");
    out.metric("simdriver.events", events, "count");
    out.metric("simdriver.ns_per_event", run.run_s * 1e9 / events, "ns");
    out.metric(
        "simdriver.trace_overhead_frac",
        run.traced_s / run.run_s - 1.0,
        "ratio",
    );

    let queue_ns = queue_layer(out, run.input.pending_depth, seed);
    let handle_ns = core_layer(out, run.input, seed);
    let (send_ns, post_ns) = netsim_layer(out, run, seed);
    xport_layer(out, run, seed);
    storage_layer(out, cluster_sizes(run.input).len(), seed);
    let (frames, frame_ns) = durable_layer(out, run, work);

    // Host dispatch (`simdriver::world`) is what is left of the run once
    // the replayed layers' per-call costs are charged at the run's own
    // event, message and frame counts.
    let wire =
        (run.report.app_sent + run.report.protocol_messages + run.report.ack_messages) as f64;
    let hostile = if cfg.hostile.is_some() { wire } else { 0.0 };
    let attributed_s =
        (events * (queue_ns + handle_ns) + wire * send_ns + hostile * post_ns + frames * frame_ns)
            / 1e9;
    out.metric(
        "simdriver.unattributed_frac",
        (1.0 - attributed_s / run.run_s).max(0.0),
        "ratio",
    );
}

/// `RunReport` counts of the protocol's work.
fn core_counts(out: &mut Outcome, r: &RunReport) {
    let sum =
        |f: &dyn Fn(&simdriver::ClusterStats) -> u64| r.clusters.iter().map(f).sum::<u64>() as f64;
    out.metric("core.clcs_forced", sum(&|c| c.forced_clcs), "count");
    out.metric("core.clcs_unforced", sum(&|c| c.unforced_clcs), "count");
    out.metric("core.rollbacks", r.total_rollbacks() as f64, "count");
    out.metric(
        "core.gc_rounds",
        sum(&|c| c.gc_before_after.len() as u64),
        "count",
    );
    out.metric(
        "core.peak_logged_messages",
        sum(&|c| c.peak_logged_messages),
        "count",
    );
    out.metric(
        "storage.peak_stored_clcs",
        r.clusters
            .iter()
            .map(|c| c.peak_stored_clcs)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
}

// ---- desim -------------------------------------------------------------------

/// `EventQueue` push+pop pairs (hold model) at `depth` pending events.
fn queue_layer(out: &mut Outcome, depth: usize, seed: u64) -> f64 {
    let mut rng = Mix::new(seed ^ 0xd351);
    let mut q = desim::EventQueue::new();
    for i in 0..depth {
        q.push(SimTime(rng.below(1_000_000_000)), i as u64);
    }
    let (secs, _) = timed(|| {
        for _ in 0..QUEUE_OPS {
            let (t, e) = q.pop().expect("the queue holds `depth` events");
            q.push(SimTime(t.0 + 1 + rng.below(1_000_000_000)), e);
        }
    });
    let ns = secs * 1e9 / QUEUE_OPS as f64;
    out.metric("desim.queue_op_ns", ns, "ns");
    out.metric("desim.pending_depth", depth as f64, "count");
    ns
}

// ---- hc3i-core engine --------------------------------------------------------

/// An instant FIFO host around the workload's engines, timing every
/// `NodeEngine::handle` call.
struct InstantHost {
    engines: Vec<NodeEngine>,
    offsets: Vec<usize>,
    queue: VecDeque<(NodeId, NodeId, Msg)>,
    buf: OutputBuf,
    now: SimTime,
    inputs: u64,
    outputs: u64,
    handle_s: f64,
}

impl InstantHost {
    fn new(protocol: &hc3i_core::ProtocolConfig) -> Self {
        let mut engines = Vec::new();
        let mut offsets = Vec::new();
        for c in 0..protocol.num_clusters() {
            offsets.push(engines.len());
            for r in 0..protocol.nodes_in(c) {
                engines.push(NodeEngine::new(protocol.clone(), NodeId::new(c as u16, r)));
            }
        }
        InstantHost {
            engines,
            offsets,
            queue: VecDeque::new(),
            buf: OutputBuf::new(),
            now: SimTime::ZERO,
            inputs: 0,
            outputs: 0,
            handle_s: 0.0,
        }
    }

    fn handle(&mut self, node: NodeId, input: Input) {
        self.now += SimDuration::from_nanos(1);
        let engine = &mut self.engines[self.offsets[node.cluster.index()] + node.rank as usize];
        let (s, _) = timed(|| engine.handle(self.now, input, &mut self.buf));
        self.handle_s += s;
        self.inputs += 1;
        self.outputs += self.buf.len() as u64;
        for o in self.buf.drain() {
            match o {
                Output::Send { to, msg } => self.queue.push_back((node, to, msg)),
                Output::SendFragments {
                    holders,
                    round,
                    epoch,
                } => {
                    for &h in holders.iter() {
                        let msg = Msg::FragmentReplica {
                            round,
                            owner: node.rank,
                            epoch,
                        };
                        self.queue
                            .push_back((node, NodeId::new(node.cluster.0, h), msg));
                    }
                }
                _ => {}
            }
        }
    }

    /// Inject one input, then run the network to quiescence.
    fn input(&mut self, node: NodeId, input: Input) {
        self.handle(node, input);
        while let Some((from, to, msg)) = self.queue.pop_front() {
            self.handle(to, Input::Receive { from, msg });
        }
    }

    fn is_failed(&self, node: NodeId) -> bool {
        self.engines[self.offsets[node.cluster.index()] + node.rank as usize].is_failed()
    }
}

/// Replay the workload's first sends, its CLC timers and GC at their
/// simulated times, and one fault half-way when the workload has faults.
fn core_layer(out: &mut Outcome, input: &SimInput, seed: u64) -> f64 {
    let cfg = &input.cfg;
    let mut host = InstantHost::new(&cfg.protocol);
    let sends = &cfg.sends[..cfg.sends.len().min(REPLAY_SENDS)];
    let clusters = cfg.protocol.num_clusters();
    let mut next_clc: Vec<Option<SimTime>> = cfg
        .clc_delays
        .iter()
        .map(|d| (!d.is_infinite()).then(|| SimTime::ZERO + *d))
        .collect();
    let mut next_gc = cfg.gc_interval.map(|g| SimTime::ZERO + g);
    let mut fault_at =
        (cfg.topology.mtbf.is_some() || !cfg.faults.is_empty()).then_some(sends.len() / 2);
    let mut rng = Mix::new(seed ^ 0xc0de);
    for (k, s) in sends.iter().enumerate() {
        for (c, next) in next_clc.iter_mut().enumerate() {
            while let Some(t) = *next {
                if t > s.at {
                    break;
                }
                host.input(cfg.protocol.initial_coordinator(c), Input::ClcTimer);
                *next = Some(t + cfg.clc_delays[c]);
            }
        }
        while let Some(t) = next_gc.filter(|&t| t <= s.at) {
            host.input(cfg.protocol.initial_coordinator(0), Input::GcTimer);
            next_gc = cfg.gc_interval.map(|g| t + g);
        }
        if fault_at == Some(k) {
            fault_at = None;
            let c = rng.below(clusters as u64) as u16;
            let size = cfg.protocol.nodes_in(c as usize);
            let victim = NodeId::new(c, 1 + rng.below(size as u64 - 1) as u32);
            host.input(victim, Input::Fail);
            let detector = (0..size)
                .map(|r| NodeId::new(c, r))
                .find(|&n| !host.is_failed(n))
                .expect("a survivor");
            host.input(
                detector,
                Input::DetectFault {
                    failed_rank: victim.rank,
                },
            );
        }
        host.input(
            s.from,
            Input::AppSend {
                to: s.to,
                payload: AppPayload {
                    bytes: s.bytes,
                    tag: k as u64,
                },
            },
        );
    }
    let ns = host.handle_s * 1e9 / host.inputs.max(1) as f64;
    out.metric("core.handle_ns", ns, "ns");
    out.metric("core.inputs", host.inputs as f64, "count");
    out.metric(
        "core.outputs_per_input",
        host.outputs as f64 / host.inputs.max(1) as f64,
        "ratio",
    );
    ns
}

// ---- netsim ------------------------------------------------------------------

/// `Network::send` and `HostileNet::post` over the workload's first sends
/// at its topology, hostile spec and partitions. Returns the ns per call
/// of each.
fn netsim_layer(out: &mut Outcome, run: &SimObserved, seed: u64) -> (f64, f64) {
    let cfg = &run.input.cfg;
    let sends = &cfg.sends[..cfg.sends.len().min(REPLAY_SENDS)];
    let mut net = Network::new(cfg.topology.clone());
    let spec = cfg
        .hostile
        .clone()
        .unwrap_or_else(|| HostileSpec::seeded(seed));
    let mut hostile = HostileNet::new(spec, cfg.partitions.clone());
    let mut send_s = 0.0;
    let mut post_s = 0.0;
    for s in sends {
        let (a, arrival) = timed(|| net.send(s.at, s.from, s.to, s.bytes, MessageClass::App));
        let (b, outcome) = timed(|| hostile.post(s.at, s.from, s.to, arrival));
        std::hint::black_box(outcome);
        send_s += a;
        post_s += b;
    }
    let n = sends.len().max(1) as f64;
    out.metric("netsim.send_ns", send_s * 1e9 / n, "ns");
    out.metric("netsim.sends", sends.len() as f64, "count");
    out.metric("netsim.hostile_post_ns", post_s * 1e9 / n, "ns");
    out.metric("netsim.lost", run.stats.messages_lost as f64, "count");
    out.metric(
        "netsim.duplicated",
        run.stats.duplicates_injected as f64,
        "count",
    );
    out.metric(
        "netsim.reordered",
        run.stats.messages_reordered as f64,
        "count",
    );
    out.metric("netsim.held", run.stats.messages_held as f64, "count");
    (send_s * 1e9 / n, post_s * 1e9 / n)
}

// ---- xport -------------------------------------------------------------------

/// Copies on the replayed wire: each is lost at the workload's loss rate
/// or accepted and acknowledged after a fixed round trip.
struct XportReplay {
    cfg: XportConfig,
    loss: f64,
    rng: Mix,
    send_s: f64,
    sends: u64,
    accept_s: f64,
    accepts: u64,
}

impl XportReplay {
    fn wire(
        &mut self,
        tx: &mut SenderChannel,
        rx: &mut ReceiverChannel,
        now: SimTime,
        mut seqs: Vec<u64>,
    ) {
        let acked_at = now + SimDuration::from_millis(1);
        while let Some(seq) = seqs.pop() {
            if self.rng.chance(self.loss) {
                continue;
            }
            let (a, _) = timed(|| rx.accept(seq));
            let (b, released) = timed(|| tx.ack(acked_at, &self.cfg, seq));
            self.accept_s += a;
            self.accepts += 1;
            self.send_s += b;
            seqs.extend(released.into_iter().map(|(q, _)| q));
        }
    }

    fn due(&mut self, tx: &mut SenderChannel, now: SimTime) -> Vec<u64> {
        let (s, due) = timed(|| tx.due(now, &self.cfg));
        self.send_s += s;
        due.into_iter().map(|(q, _)| q).collect()
    }
}

/// The reliable transport over the workload's inter-cluster sends, one
/// channel pair per directed node pair.
fn xport_layer(out: &mut Outcome, run: &SimObserved, seed: u64) {
    let cfg = &run.input.cfg;
    let mut x = XportReplay {
        cfg: cfg.xport.unwrap_or_default(),
        loss: cfg.hostile.as_ref().map_or(0.0, |h| h.loss),
        rng: Mix::new(seed ^ 0x7a7a),
        send_s: 0.0,
        sends: 0,
        accept_s: 0.0,
        accepts: 0,
    };
    let mut chans: BTreeMap<(NodeId, NodeId), (SenderChannel, ReceiverChannel)> = BTreeMap::new();
    let inter = cfg
        .sends
        .iter()
        .filter(|s| s.from.cluster != s.to.cluster)
        .take(REPLAY_SENDS);
    let mut now = SimTime::ZERO;
    for s in inter {
        now = s.at;
        let (tx, rx) = chans.entry((s.from, s.to)).or_default();
        let (a, seq) = timed(|| tx.send(s.at, &x.cfg, Msg::XportAck { seq: 0 }));
        x.send_s += a;
        x.sends += 1;
        let mut seqs = x.due(tx, s.at);
        seqs.extend(seq);
        x.wire(tx, rx, s.at, seqs);
    }
    // Drain: retransmit until every copy is acknowledged.
    for _ in 0..64 {
        now += x.cfg.rto_cap;
        let mut busy = false;
        for (tx, rx) in chans.values_mut() {
            let seqs = x.due(tx, now);
            busy |= !seqs.is_empty();
            x.wire(tx, rx, now, seqs);
        }
        if !busy {
            break;
        }
    }
    let retrans: u64 = chans.values().map(|(tx, _)| tx.retransmissions).sum();
    out.metric(
        "xport.send_ns",
        x.send_s * 1e9 / x.sends.max(1) as f64,
        "ns",
    );
    out.metric(
        "xport.accept_ns",
        x.accept_s * 1e9 / x.accepts.max(1) as f64,
        "ns",
    );
    out.metric(
        "xport.retransmissions",
        run.stats.retransmissions as f64,
        "count",
    );
    out.metric(
        "xport.useful_frac",
        x.sends as f64 / (x.sends + retrans).max(1) as f64,
        "ratio",
    );
}

// ---- storage -----------------------------------------------------------------

fn ddv(width: usize, rng: &mut Mix, scale: u64) -> Ddv {
    Ddv::from_entries((0..width).map(|_| SeqNum(rng.below(scale))).collect())
}

/// `Ddv::merge_max` at the workload's width, and `ClcStore` commit and
/// prune with stamps of that width.
fn storage_layer(out: &mut Outcome, width: usize, seed: u64) {
    let mut rng = Mix::new(seed ^ 0x5707);
    let others: Vec<Ddv> = (0..64).map(|_| ddv(width, &mut rng, 1000)).collect();
    let mut acc = Ddv::zeros(width);
    let merges = (4_000_000 / width).max(1000);
    let (secs, _) = timed(|| {
        for k in 0..merges {
            std::hint::black_box(acc.merge_max(&others[k % others.len()]));
        }
    });
    out.metric("storage.ddv_width", width as f64, "count");
    out.metric("storage.merge_ns", secs * 1e9 / merges as f64, "ns");

    const STORES: usize = 256;
    const CLCS: u64 = 16;
    let stamps: Vec<Arc<Ddv>> = (1..=CLCS)
        .map(|k| {
            let mut d = Ddv::zeros(width);
            d.set(0, SeqNum(k));
            Arc::new(d)
        })
        .collect();
    let (mut commit_s, mut prune_s) = (0.0, 0.0);
    for _ in 0..STORES {
        let mut store: ClcStore<()> = ClcStore::new();
        let (a, _) = timed(|| {
            for (k, stamp) in stamps.iter().enumerate() {
                let meta = ClcMeta {
                    sn: SeqNum(k as u64 + 1),
                    ddv: stamp.clone(),
                    committed_at: SimTime(k as u64),
                    forced: false,
                };
                store.commit(meta, ());
            }
        });
        let (b, pruned) = timed(|| store.prune_below(SeqNum(CLCS)));
        std::hint::black_box(pruned);
        commit_s += a;
        prune_s += b;
    }
    let n = STORES as f64;
    out.metric(
        "storage.clc_commit_ns",
        commit_s * 1e9 / (n * CLCS as f64),
        "ns",
    );
    out.metric("storage.prune_ns", prune_s * 1e9 / n, "ns");
}

// ---- durable -----------------------------------------------------------------

type Frame = (u64, ClcMeta, NodeCheckpoint);

/// Entries shaped like the workload: its DDV width, 8 CLCs per node with a
/// growing delivery record, [`DURABLE_FRAMES`] in all.
fn synthetic_frames(input: &SimInput) -> Vec<Frame> {
    let p = &input.cfg.protocol;
    let width = p.num_clusters();
    let nodes = (0..width).flat_map(|c| (0..p.nodes_in(c)).map(move |r| (c, r)));
    let mut frames = Vec::new();
    for (node, (c, r)) in nodes.enumerate().take(DURABLE_FRAMES / 8) {
        let mut delivered = DeliveredRecord::new();
        for k in 1..=8u64 {
            delivered.insert((NodeId::new(((c + 1) % width) as u16, r), k), SeqNum(k));
            let mut ddv = Ddv::zeros(width);
            ddv.set(c, SeqNum(k));
            let meta = ClcMeta {
                sn: SeqNum(k),
                ddv: Arc::new(ddv),
                committed_at: SimTime(k),
                forced: false,
            };
            let payload = NodeCheckpoint {
                delivered: delivered.clone(),
                channel_state: vec![],
                app_state: None,
            };
            frames.push((node as u64, meta, payload));
        }
    }
    frames
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Segment-log size of the run's image, and a replay of its entries (or
/// synthetic entries of the workload's shape) through
/// `DurableStore::append_commit` with each `sync` timed separately.
/// Returns the run's own commit-frame count and the replayed ns per frame.
fn durable_layer(out: &mut Outcome, run: &SimObserved, work: &WorkDir) -> (f64, f64) {
    let image = run.image.as_ref().map(|(dir, secs)| {
        let image = storage::recover(dir, &CheckpointCodec).expect("the checked image recovers");
        (image, dir_bytes(dir), *secs)
    });
    // Each chain's first entry is its genesis snapshot; the rest were
    // appended as commit frames (the workload has no rollback or GC).
    let (commit_frames, bytes, frames_read) = image.as_ref().map_or((0, 0, 0), |(i, b, _)| {
        (i.total_entries() - i.stores.len() as u64, *b, i.frames)
    });
    out.metric("durable.commit_frames", commit_frames as f64, "count");
    out.metric("durable.bytes", bytes as f64, "bytes");
    out.metric(
        "durable.bytes_per_frame",
        bytes as f64 / frames_read.max(1) as f64,
        "bytes",
    );

    let frames: Vec<Frame> = match &image {
        Some((i, ..)) => i
            .stores
            .iter()
            .flat_map(|(&node, store)| {
                store
                    .iter()
                    .map(move |e| (node, e.meta.clone(), e.payload.clone()))
            })
            .take(DURABLE_FRAMES)
            .collect(),
        None => synthetic_frames(run.input),
    };
    let dir = work.fresh("replay-log");
    let opts = DurableOptions {
        sync: SyncPolicy::Manual,
        compact_bytes: None,
    };
    let mut log = DurableStore::open(&dir, CheckpointCodec, opts).expect("open the replay log");
    let (mut append_s, mut fsync_s) = (0.0, 0.0);
    for (node, meta, payload) in &frames {
        let (a, r) = timed(|| log.append_commit(*node, meta, payload));
        r.expect("append to the replay log");
        let (b, r) = timed(|| log.sync());
        r.expect("sync the replay log");
        append_s += a;
        fsync_s += b;
    }
    drop(log);
    let n = frames.len().max(1) as f64;
    out.metric("durable.append_ns", append_s * 1e9 / n, "ns");
    out.metric("durable.fsync_ns", fsync_s * 1e9 / n, "ns");

    // Recovery: the run's own image when it has one, else the replay log.
    let (recover_s, entries) = match &image {
        Some((i, _, secs)) => (*secs, i.total_entries()),
        None => {
            let recoveries: Vec<(f64, _)> = (0..5)
                .map(|_| timed(|| storage::recover(&dir, &CheckpointCodec)))
                .collect();
            let secs: Vec<f64> = recoveries.iter().map(|(s, _)| *s).collect();
            let entries = match &recoveries[0].1 {
                Ok(i) => i.total_entries(),
                Err(e) => {
                    out.check("replay log", vec![format!("recover failed: {e}")]);
                    0
                }
            };
            (median(&secs), entries)
        }
    };
    out.metric("durable.recover_s", recover_s, "s");
    out.metric(
        "durable.recover_entries_per_s",
        entries as f64 / recover_s,
        "1/s",
    );
    (commit_frames as f64, (append_s + fsync_s) * 1e9 / n)
}

// ---- crossbeam channel -------------------------------------------------------

/// The vendored unbounded channel with one producer per worker shard plus
/// the controller, carrying `messages` messages in all.
fn channel_layer(out: &mut Outcome, messages: usize) {
    let producers = live::worker_shards() + 1;
    let per = (messages / producers).max(1) as u64;
    let (tx, rx) = crossbeam::channel::unbounded::<u64>();
    let (secs, received) = timed(|| {
        std::thread::scope(|scope| {
            for p in 0..producers as u64 {
                let tx = tx.clone();
                scope.spawn(move || {
                    for i in 0..per {
                        tx.send((p << 32) | i).expect("the receiver is alive");
                    }
                });
            }
            let mut received = 0u64;
            while received < per * producers as u64 {
                if rx.recv().is_ok() {
                    received += 1;
                }
            }
            received
        })
    });
    out.metric("channel.op_ns", secs * 1e9 / received as f64, "ns");
}
