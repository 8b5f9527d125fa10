//! A fresh engine's heap footprint does not depend on the federation
//! size: every cluster-indexed vector it holds is sparse, so a node of a
//! 4096-cluster federation costs what a node of a 4-cluster one does.

use hc3i_core::{NodeEngine, ProtocolConfig};
use netsim::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the bytes the measuring thread holds; other threads (the test
/// harness) are ignored.
struct Counting;

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = MEASURING.try_with(|on| {
        if on.get() {
            LIVE.with(|live| live.set(live.get() + delta));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the allocator's; the bookkeeping touches only
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes held by one engine of cluster 1, rank 0, in a federation
/// of `clusters` clusters of 4 nodes (the shared config is built before
/// counting starts).
fn engine_heap_bytes(clusters: usize) -> isize {
    let cfg = Arc::new(ProtocolConfig::new(vec![4; clusters]));
    LIVE.with(|live| live.set(0));
    MEASURING.with(|on| on.set(true));
    let engine = NodeEngine::new(cfg.clone(), NodeId::new(1, 0));
    MEASURING.with(|on| on.set(false));
    let bytes = LIVE.with(|live| live.get());
    drop(engine);
    bytes
}

#[test]
fn engine_heap_does_not_grow_with_cluster_count() {
    let small = engine_heap_bytes(4);
    let wide = engine_heap_bytes(4096);
    assert!(small > 0, "the counter saw the engine's allocations");
    assert_eq!(
        wide, small,
        "a node of a 4096-cluster federation holds {wide} heap bytes, of a 4-cluster one {small}"
    );
}
