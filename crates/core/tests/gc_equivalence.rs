//! The GC's safe minima, computed with the dependents index (an alert
//! visits only the clusters that depend on its origin), equal a naive
//! reference that scans every cluster on every alert, for single and
//! double failures, on sparse and dense dependency histories.

use hc3i_core::gc::safe_minimum_sns_k;
use hc3i_core::recovery::ClcList;
use hc3i_core::{Ddv, SeqNum};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// The all-clusters recovery line: the alert cascade as written before the
/// dependents index, kept verbatim as the oracle.
fn reference_line(lists: &[ClcList], faulty_set: &[usize]) -> Vec<SeqNum> {
    let mut pos: Vec<usize> = lists.iter().map(|l| l.len() - 1).collect();
    let mut worklist: Vec<(usize, SeqNum)> = faulty_set
        .iter()
        .map(|&faulty| (faulty, lists[faulty][pos[faulty]].0))
        .collect();
    let mut emitted: HashSet<(usize, SeqNum)> = worklist.iter().copied().collect();
    while let Some((origin, alert_sn)) = worklist.pop() {
        for j in 0..lists.len() {
            if j == origin {
                continue;
            }
            if lists[j][pos[j]].1.get(origin) < alert_sn {
                continue;
            }
            let first_offending = lists[j][..=pos[j]]
                .iter()
                .position(|(_, ddv)| ddv.get(origin) >= alert_sn)
                .expect("latest offends, so some entry does");
            pos[j] = first_offending;
            let alert = (j, lists[j][first_offending].0);
            if emitted.insert(alert) {
                worklist.push(alert);
            }
        }
    }
    (0..lists.len()).map(|j| lists[j][pos[j]].0).collect()
}

/// The minima over every failure set of size at most `k` (k <= 2).
fn reference_minima(lists: &[ClcList], k: usize) -> Vec<SeqNum> {
    let n = lists.len();
    let mut mins: Vec<SeqNum> = lists.iter().map(|l| l.last().unwrap().0).collect();
    let mut lower = |line: Vec<SeqNum>| {
        for (m, sn) in mins.iter_mut().zip(line) {
            *m = (*m).min(sn);
        }
    };
    for a in 0..n {
        lower(reference_line(lists, &[a]));
        if k >= 2 {
            for b in a + 1..n {
                lower(reference_line(lists, &[a, b]));
            }
        }
    }
    mins
}

/// Raw material for one federation's stored lists: per cluster, per CLC,
/// an SN step and one candidate entry per cluster.
type Raw = Vec<Vec<(u64, Vec<u64>)>>;

/// Build monotone lists (as a `ClcStore` keeps them) from `raw`: each CLC
/// raises the entries whose candidate passes the density filter. With
/// `start_at_zero` a cluster's first SN may be 0 — never produced by the
/// protocol, but the analysis must agree on it too.
fn lists_from(raw: &Raw, n: usize, density: u64, start_at_zero: bool) -> Vec<ClcList> {
    raw.iter()
        .take(n)
        .enumerate()
        .map(|(c, clcs)| {
            let mut sn = if start_at_zero { 0 } else { 1 };
            let mut stamp = Ddv::zeros(n);
            let mut list = ClcList::new();
            for (k, (step, candidates)) in clcs.iter().enumerate() {
                if k > 0 {
                    sn += 1 + step % 3;
                }
                for (other, &cand) in candidates.iter().take(n).enumerate() {
                    if other != c && cand % 100 < density {
                        stamp.raise(other, SeqNum(cand % 7));
                    }
                }
                stamp.set(c, SeqNum(sn));
                list.push((SeqNum(sn), Arc::new(stamp.clone())));
            }
            list
        })
        .collect()
}

const MAX_CLUSTERS: usize = 9;

fn raw() -> impl Strategy<Value = Raw> {
    let clc = (
        any::<u64>(),
        prop::collection::vec(any::<u64>(), MAX_CLUSTERS),
    );
    prop::collection::vec(prop::collection::vec(clc, 1..6), MAX_CLUSTERS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_minima_equal_the_all_clusters_reference(
        n in 1usize..=MAX_CLUSTERS,
        density in prop_oneof![Just(10u64), Just(35), Just(100)],
        start_at_zero in prop_oneof![4 => Just(false), 1 => Just(true)],
        raw in raw(),
    ) {
        let lists = lists_from(&raw, n, density, start_at_zero);
        for k in [1, 2] {
            prop_assert_eq!(safe_minimum_sns_k(&lists, k), reference_minima(&lists, k));
        }
    }
}
