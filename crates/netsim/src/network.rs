//! Message delivery timing and traffic accounting.
//!
//! The network is reliable ("a sent message will be received in an arbitrary
//! but finite laps of time" — paper §2.1): no loss, no duplication. We add
//! per-directed-channel FIFO ordering, which is what a SAN or a TCP-backed
//! WAN link provides in practice and what keeps two-phase-commit rounds
//! simple.
//!
//! Delivery time = queueing (optional contention model) + serialization
//! (size / bandwidth) + propagation latency. Every message is also charged
//! to a `(from_cluster, to_cluster, class)` account — the paper's Table 1 is
//! exactly a dump of those accounts for the application class.

use crate::hashing::FastHashMap;
use crate::ids::{ClusterId, NodeId};
use crate::topology::{LinkSpec, Topology};
use desim::{SimDuration, SimTime};

/// What a message is, for accounting purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageClass {
    /// Application payload.
    App,
    /// Checkpointing-protocol control traffic (2PC rounds, alerts, GC).
    Protocol,
    /// Acknowledgements of inter-cluster application messages.
    Ack,
}

/// How concurrent transfers share a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContentionModel {
    /// Infinite capacity: every transfer sees full bandwidth (the classic
    /// latency+bandwidth DES model; paper-faithful for light traffic).
    #[default]
    Unlimited,
    /// Transfers on the same directed *cluster pair* serialize (models a
    /// single shared inter-cluster pipe; intra-cluster stays unlimited).
    InterClusterFifo,
}

/// Cumulative per-account traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCell {
    /// Message count.
    pub messages: u64,
    /// Payload bytes.
    pub bytes: u64,
}

/// The network model: timing + accounting.
///
/// Everything the model keeps per directed cluster pair — traffic
/// accounts, the contention pipe, and the node-channel FIFO table — lives
/// in one pair record, created on the pair's first message. A pair that
/// never carried traffic costs one index slot, so memory grows with the
/// pairs that talk, not with `clusters²`; `send` performs one index lookup
/// and no allocation after a pair's first message.
pub struct Network {
    topology: Topology,
    contention: ContentionModel,
    n_clusters: usize,
    /// Directed cluster pair -> index into `pairs`.
    pair_index: PairIndex,
    /// Every pair that carried traffic, in order of first message.
    pairs: Vec<PairRecord>,
    /// Memoized [`LinkSpec::transmit_time`] results, direct-mapped on
    /// `(bandwidth, bytes)`. A federation uses a handful of distinct
    /// link-class x message-size combinations, so this turns the per-send
    /// 128-bit division into a two-word compare (the cached value is the
    /// division's exact result — timing is unchanged, only cheaper).
    transmit_cache: [(u64, u64, SimDuration); TRANSMIT_CACHE_SLOTS],
}

const N_CLASSES: usize = 3;

/// Up to this many clusters the pair index is a dense `clusters ×
/// clusters` table of `u32` (16 MiB at the limit); above it, a hash map.
const MAX_DENSE_CLUSTERS: usize = 2048;
/// A cluster pair's `from_ranks × to_ranks` channel table is allocated
/// densely up to this many cells (512 KiB); larger pairs hash per pair.
const DENSE_CHANNEL_LIMIT: usize = 65_536;
/// Slots in the transmit-time memo (power of two; collisions just recompute).
const TRANSMIT_CACHE_SLOTS: usize = 16;

/// Directed cluster pair -> index of its [`PairRecord`].
enum PairIndex {
    /// `slots[from * n + to]`; `u32::MAX` = the pair never carried traffic.
    Dense(Vec<u32>),
    /// Huge federation: hashed on `(from, to)`.
    Hash(FastHashMap<(u16, u16), u32>),
}

/// Everything the network keeps for one directed cluster pair.
struct PairRecord {
    from: ClusterId,
    to: ClusterId,
    /// Per-class traffic charged to this pair.
    accounts: [TrafficCell; N_CLASSES],
    /// When the pair's shared pipe frees up (`ZERO` = never used).
    pipe_free_at: SimTime,
    /// Last scheduled arrival per directed node channel of the pair.
    /// `SimTime::ZERO` means "channel never used" — a real arrival is
    /// always strictly later.
    fifo: PairFifo,
}

/// One directed cluster pair's node-channel table.
enum PairFifo {
    /// `last[from_rank * to_ranks + to_rank]`.
    Dense { to_ranks: u32, last: Box<[SimTime]> },
    /// Clusters too large for a dense rank product.
    Hash(FastHashMap<(u32, u32), SimTime>),
}

impl PairFifo {
    fn new(from_ranks: usize, to_ranks: usize) -> Self {
        if from_ranks * to_ranks <= DENSE_CHANNEL_LIMIT {
            PairFifo::Dense {
                to_ranks: to_ranks as u32,
                last: vec![SimTime::ZERO; from_ranks * to_ranks].into_boxed_slice(),
            }
        } else {
            PairFifo::Hash(FastHashMap::default())
        }
    }

    #[inline]
    fn last(&mut self, from_rank: u32, to_rank: u32) -> &mut SimTime {
        match self {
            PairFifo::Dense { to_ranks, last } => {
                &mut last[from_rank as usize * *to_ranks as usize + to_rank as usize]
            }
            PairFifo::Hash(m) => m.entry((from_rank, to_rank)).or_insert(SimTime::ZERO),
        }
    }
}

#[inline]
fn class_index(class: MessageClass) -> usize {
    match class {
        MessageClass::App => 0,
        MessageClass::Protocol => 1,
        MessageClass::Ack => 2,
    }
}

impl Network {
    /// A network over `topology` with the default (unlimited) contention.
    pub fn new(topology: Topology) -> Self {
        let n = topology.num_clusters();
        let pair_index = if n <= MAX_DENSE_CLUSTERS {
            PairIndex::Dense(vec![u32::MAX; n * n])
        } else {
            PairIndex::Hash(FastHashMap::default())
        };
        Network {
            topology,
            contention: ContentionModel::default(),
            n_clusters: n,
            pair_index,
            pairs: Vec::new(),
            // `bandwidth = 0` never occupies a slot (`transmit_time` is
            // INFINITE there and short-circuits before the cache), so the
            // zeroed sentinel rows can never produce a false hit.
            transmit_cache: [(0, 0, SimDuration::ZERO); TRANSMIT_CACHE_SLOTS],
        }
    }

    /// `link.transmit_time(bytes)` through the memo cache.
    #[inline]
    fn transmit_time(&mut self, link: &LinkSpec, bytes: u64) -> SimDuration {
        if link.bandwidth_bps == 0 {
            return SimDuration::INFINITE;
        }
        let slot = ((link
            .bandwidth_bps
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(bytes)) as usize)
            & (TRANSMIT_CACHE_SLOTS - 1);
        let (bps, b, t) = self.transmit_cache[slot];
        if bps == link.bandwidth_bps && b == bytes {
            return t;
        }
        let t = link.transmit_time(bytes);
        self.transmit_cache[slot] = (link.bandwidth_bps, bytes, t);
        t
    }

    /// The record of the pair `from → to`, if it ever carried traffic.
    fn pair(&self, from: ClusterId, to: ClusterId) -> Option<&PairRecord> {
        let pi = match &self.pair_index {
            PairIndex::Dense(slots) => {
                Some(slots[from.index() * self.n_clusters + to.index()]).filter(|&p| p != u32::MAX)
            }
            PairIndex::Hash(m) => m.get(&(from.0, to.0)).copied(),
        };
        pi.map(|p| &self.pairs[p as usize])
    }

    /// The record of the pair `from → to`, created on first use.
    #[inline]
    fn pair_mut(&mut self, from: ClusterId, to: ClusterId) -> &mut PairRecord {
        let next = self.pairs.len() as u32;
        let slot = match &mut self.pair_index {
            PairIndex::Dense(slots) => &mut slots[from.index() * self.n_clusters + to.index()],
            PairIndex::Hash(m) => m.entry((from.0, to.0)).or_insert(u32::MAX),
        };
        if *slot == u32::MAX {
            *slot = next;
            self.pairs.push(PairRecord {
                from,
                to,
                accounts: [TrafficCell::default(); N_CLASSES],
                pipe_free_at: SimTime::ZERO,
                fifo: PairFifo::new(
                    self.topology.nodes_in(from) as usize,
                    self.topology.nodes_in(to) as usize,
                ),
            });
        }
        let pi = *slot as usize;
        &mut self.pairs[pi]
    }

    /// Select the contention model.
    pub fn with_contention(mut self, model: ContentionModel) -> Self {
        self.contention = model;
        self
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Compute the arrival time of a message sent now, update FIFO state and
    /// charge the traffic account. Never returns a time `<= now`.
    pub fn send(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        class: MessageClass,
    ) -> SimTime {
        let link = self.topology.link_between(from.cluster, to.cluster);
        let transmit = self.transmit_time(&link, bytes);
        let contention = self.contention;
        let pair = self.pair_mut(from.cluster, to.cluster);

        // Queueing under the chosen contention model.
        let depart = match contention {
            ContentionModel::Unlimited => now,
            ContentionModel::InterClusterFifo if from.cluster != to.cluster => {
                let depart = pair.pipe_free_at.max(now);
                pair.pipe_free_at = depart.saturating_add(transmit);
                depart
            }
            ContentionModel::InterClusterFifo => now,
        };

        let mut arrival = depart.saturating_add(transmit).saturating_add(link.latency);
        // Enforce FIFO per directed node channel.
        let last = pair.fifo.last(from.rank, to.rank);
        if arrival <= *last {
            arrival = last.saturating_add(SimDuration::from_nanos(1));
        }
        *last = arrival;

        // Make progress even for zero-latency zero-size sends.
        if arrival <= now {
            arrival = now.saturating_add(SimDuration::from_nanos(1));
        }

        let cell = &mut pair.accounts[class_index(class)];
        cell.messages += 1;
        cell.bytes += bytes;

        arrival
    }

    /// Traffic charged to a `(from, to, class)` account. Pairs that never
    /// carried traffic and out-of-range cluster ids report zero traffic.
    pub fn traffic(&self, from: ClusterId, to: ClusterId, class: MessageClass) -> TrafficCell {
        if from.index() >= self.n_clusters || to.index() >= self.n_clusters {
            return TrafficCell::default();
        }
        self.pair(from, to)
            .map_or_else(TrafficCell::default, |p| p.accounts[class_index(class)])
    }

    /// All application messages from `from` to `to` (the Table 1 cells).
    pub fn app_messages(&self, from: ClusterId, to: ClusterId) -> u64 {
        self.traffic(from, to, MessageClass::App).messages
    }

    /// Total protocol-control messages (all cluster pairs).
    pub fn total_protocol_messages(&self) -> u64 {
        self.total_by_class(MessageClass::Protocol)
    }

    /// The account cell of one class of every pair that carried traffic.
    fn cells_of_class(
        &self,
        class: MessageClass,
    ) -> impl Iterator<Item = (&PairRecord, TrafficCell)> {
        let k = class_index(class);
        self.pairs.iter().map(move |p| (p, p.accounts[k]))
    }

    /// Total messages of one class across all accounts.
    pub fn total_by_class(&self, class: MessageClass) -> u64 {
        self.cells_of_class(class).map(|(_, c)| c.messages).sum()
    }

    /// Total bytes of one class across all accounts.
    pub fn total_bytes_by_class(&self, class: MessageClass) -> u64 {
        self.cells_of_class(class).map(|(_, c)| c.bytes).sum()
    }

    /// Inter-cluster messages of one class (excludes intra-cluster traffic).
    pub fn inter_cluster_by_class(&self, class: MessageClass) -> u64 {
        self.cells_of_class(class)
            .filter(|(p, _)| p.from != p.to)
            .map(|(_, c)| c.messages)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ClusterSpec, LinkSpec};

    fn net() -> Network {
        Network::new(Topology::paper_reference(2))
    }

    fn t_us(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn intra_cluster_delivery_uses_san() {
        let mut n = net();
        // 1000 bytes over 80 Mb/s = 100 µs; + 10 µs latency.
        let arrival = n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(0, 1),
            1000,
            MessageClass::App,
        );
        assert_eq!(arrival, t_us(110));
    }

    #[test]
    fn inter_cluster_delivery_uses_wan() {
        let mut n = net();
        // 1000 bytes over 100 Mb/s = 80 µs; + 150 µs latency.
        let arrival = n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(1, 0),
            1000,
            MessageClass::App,
        );
        assert_eq!(arrival, t_us(230));
    }

    #[test]
    fn arrival_is_strictly_after_send() {
        let mut n = Network::new(Topology::new(
            vec![ClusterSpec {
                nodes: 2,
                intra: LinkSpec {
                    latency: SimDuration::ZERO,
                    bandwidth_bps: 1_000_000_000,
                },
            }],
            LinkSpec::ethernet_like(),
        ));
        let arrival = n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(0, 1),
            0,
            MessageClass::Protocol,
        );
        assert!(arrival > SimTime::ZERO);
    }

    #[test]
    fn channel_is_fifo() {
        let mut n = net();
        let from = NodeId::new(0, 0);
        let to = NodeId::new(1, 0);
        // Big message first, then a tiny one at the same instant: the tiny
        // one must not overtake.
        let a1 = n.send(SimTime::ZERO, from, to, 1_000_000, MessageClass::App);
        let a2 = n.send(SimTime::ZERO, from, to, 1, MessageClass::App);
        assert!(a2 > a1, "FIFO violated: {a2:?} <= {a1:?}");
    }

    #[test]
    fn distinct_channels_do_not_interfere() {
        let mut n = net();
        let a1 = n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(1, 0),
            1_000_000,
            MessageClass::App,
        );
        // Different sender: no FIFO coupling under Unlimited contention.
        let a2 = n.send(
            SimTime::ZERO,
            NodeId::new(0, 1),
            NodeId::new(1, 0),
            1,
            MessageClass::App,
        );
        assert!(a2 < a1);
    }

    #[test]
    fn inter_cluster_fifo_contention_serializes_pipe() {
        let mut n = Network::new(Topology::paper_reference(2))
            .with_contention(ContentionModel::InterClusterFifo);
        // Two 1 MB transfers from different senders share the 100 Mb/s pipe:
        // each takes 80 ms to serialize; the second departs only at 80 ms.
        let a1 = n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(1, 0),
            1_000_000,
            MessageClass::App,
        );
        let a2 = n.send(
            SimTime::ZERO,
            NodeId::new(0, 1),
            NodeId::new(1, 1),
            1_000_000,
            MessageClass::App,
        );
        assert_eq!(a1, SimTime::ZERO + SimDuration::from_micros(80_150));
        assert_eq!(a2, SimTime::ZERO + SimDuration::from_micros(160_150));
    }

    #[test]
    fn contention_does_not_affect_intra_cluster() {
        let mut n = Network::new(Topology::paper_reference(2))
            .with_contention(ContentionModel::InterClusterFifo);
        let a1 = n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(0, 1),
            1000,
            MessageClass::App,
        );
        let a2 = n.send(
            SimTime::ZERO,
            NodeId::new(0, 2),
            NodeId::new(0, 3),
            1000,
            MessageClass::App,
        );
        assert_eq!(a1, a2);
    }

    #[test]
    fn traffic_is_total_over_cluster_ids() {
        let n = net();
        assert_eq!(
            n.traffic(ClusterId(9), ClusterId(0), MessageClass::App),
            TrafficCell::default(),
            "out-of-range ids report zero traffic, not a panic"
        );
    }

    #[test]
    fn accounting_by_pair_and_class() {
        let mut n = net();
        let c0 = ClusterId(0);
        let c1 = ClusterId(1);
        n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(0, 1),
            10,
            MessageClass::App,
        );
        n.send(
            SimTime::ZERO,
            NodeId::new(0, 0),
            NodeId::new(1, 0),
            20,
            MessageClass::App,
        );
        n.send(
            SimTime::ZERO,
            NodeId::new(1, 0),
            NodeId::new(0, 0),
            30,
            MessageClass::Ack,
        );
        n.send(
            SimTime::ZERO,
            NodeId::new(0, 1),
            NodeId::new(0, 2),
            40,
            MessageClass::Protocol,
        );

        assert_eq!(n.app_messages(c0, c0), 1);
        assert_eq!(n.app_messages(c0, c1), 1);
        assert_eq!(n.app_messages(c1, c0), 0);
        assert_eq!(n.traffic(c1, c0, MessageClass::Ack).messages, 1);
        assert_eq!(n.traffic(c1, c0, MessageClass::Ack).bytes, 30);
        assert_eq!(n.total_protocol_messages(), 1);
        assert_eq!(n.total_by_class(MessageClass::App), 2);
        assert_eq!(n.total_bytes_by_class(MessageClass::App), 30);
        assert_eq!(n.inter_cluster_by_class(MessageClass::App), 1);
    }
}
