//! Golden bytes: a DDV stamp is encoded densely on the wire and on disk,
//! zeros included, whatever its in-memory representation. The expected
//! bytes were recorded from the dense-`Vec` implementation of `Ddv`.

use hc3i_core::codec::{decode, encode};
use hc3i_core::persist::{decode_store, encode_store};
use hc3i_core::{ClcMeta, Ddv, Msg, NodeCheckpoint, SeqNum};
use std::sync::Arc;
use storage::ClcStore;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Six clusters, two non-zero entries: the shape of ring traffic.
fn stamp() -> Arc<Ddv> {
    Arc::new(Ddv::from_entries(
        [0u64, 3, 0, 0, 300, 0].iter().map(|&e| SeqNum(e)).collect(),
    ))
}

#[test]
fn wire_codec_encodes_stamps_densely() {
    let commit = Msg::ClcCommit {
        round: 7,
        sn: SeqNum(3),
        ddv: stamp(),
        forced: true,
        epoch: 2,
    };
    let bytes = encode(&commit);
    assert_eq!(hex(&bytes), "010607030600030000ac02000102");
    assert_eq!(
        format!("{:?}", decode(&bytes).unwrap()),
        format!("{commit:?}")
    );

    let list = Msg::GcDdvList {
        cluster: 1,
        list: vec![(SeqNum(3), stamp()), (SeqNum(4), Arc::new(Ddv::zeros(6)))],
    };
    let bytes = encode(&list);
    assert_eq!(hex(&bytes), "010e0102030600030000ac02000406000000000000");
    assert_eq!(
        format!("{:?}", decode(&bytes).unwrap()),
        format!("{list:?}")
    );
}

#[test]
fn persisted_store_encodes_stamps_densely() {
    let mut first = Ddv::zeros(6);
    first.set(1, SeqNum(1));
    let mut store = ClcStore::new();
    store.commit(
        ClcMeta {
            sn: SeqNum(1),
            ddv: Arc::new(first),
            committed_at: desim::SimTime(5),
            forced: false,
        },
        NodeCheckpoint::default(),
    );
    store.commit(
        ClcMeta {
            sn: SeqNum(3),
            ddv: stamp(),
            committed_at: desim::SimTime(9),
            forced: true,
        },
        NodeCheckpoint::default(),
    );
    let bytes = encode_store(&store);
    assert_eq!(
        hex(&bytes),
        "484333490202010600010000000005000400000000030600030000ac020009010401000000"
    );
    let back = decode_store(&bytes).unwrap();
    let metas = |s: &ClcStore<NodeCheckpoint>| s.iter().map(|e| e.meta.clone()).collect::<Vec<_>>();
    assert_eq!(metas(&back), metas(&store));
}
