//! Centralized garbage collection (paper §3.5).
//!
//! The initiator gathers every cluster's list of stored `(SN, DDV)` pairs,
//! "simulates a failure in each cluster and keeps the smallest SN to which
//! the clusters of the federation might rollback", then distributes the
//! per-cluster minimum SNs; each node drops CLCs below its cluster's
//! minimum and logged messages acked below the receiver's minimum.

use crate::recovery::{Cascade, ClcList};
use storage::SeqNum;

/// For each cluster, the smallest SN any single-cluster failure could force
/// it to restore. CLCs strictly below this SN can never be needed.
pub fn safe_minimum_sns(lists: &[ClcList]) -> Vec<SeqNum> {
    safe_minimum_sns_k(lists, 1)
}

/// Like [`safe_minimum_sns`], but tolerating up to `k` **simultaneous**
/// cluster failures (the paper's §7 extension: "the garbage collector
/// should take care of this"). Considers every non-empty failure set of
/// size at most `k` and keeps the deepest line any of them forces.
///
/// # Panics
/// If `k == 0` (a GC that tolerates no failures could prune everything).
pub fn safe_minimum_sns_k(lists: &[ClcList], k: usize) -> Vec<SeqNum> {
    assert!(k >= 1, "must tolerate at least one failure");
    let n = lists.len();
    let k = k.min(n);
    let mut cascade = Cascade::new(lists);
    let mut mins: Vec<SeqNum> = (0..n).map(|c| cascade.restored(c)).collect();
    // Every non-empty failure set of size at most k. Only the clusters a
    // cascade rolled back can lower a minimum: every other cluster stands
    // at its latest CLC, which bounds its minimum already.
    fn walk(
        cascade: &mut Cascade,
        mins: &mut [SeqNum],
        set: &mut Vec<usize>,
        start: usize,
        remaining: usize,
    ) {
        if !set.is_empty() {
            cascade.run(set);
            for &j in cascade.touched() {
                mins[j] = mins[j].min(cascade.restored(j));
            }
        }
        if remaining == 0 {
            return;
        }
        for c in start..mins.len() {
            set.push(c);
            walk(cascade, mins, set, c + 1, remaining - 1);
            set.pop();
        }
    }
    walk(&mut cascade, &mut mins, &mut Vec::with_capacity(k), 0, k);
    mins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::recovery_line;
    use storage::Ddv;

    fn ddv(entries: &[u64]) -> std::sync::Arc<Ddv> {
        std::sync::Arc::new(Ddv::from_entries(
            entries.iter().map(|&e| SeqNum(e)).collect(),
        ))
    }

    #[test]
    fn independent_clusters_keep_only_latest() {
        let lists = vec![
            vec![
                (SeqNum(1), ddv(&[1, 0])),
                (SeqNum(2), ddv(&[2, 0])),
                (SeqNum(3), ddv(&[3, 0])),
            ],
            vec![(SeqNum(1), ddv(&[0, 1])), (SeqNum(2), ddv(&[0, 2]))],
        ];
        // No cross dependencies: any failure rolls back only the faulty
        // cluster, to its latest. Everything older is dead weight.
        assert_eq!(safe_minimum_sns(&lists), vec![SeqNum(3), SeqNum(2)]);
    }

    #[test]
    fn dependencies_hold_older_clcs_alive() {
        // Cluster 1's CLC 2 records the dependency on cluster 0's SN-3
        // suffix (DDV[0]=3). A failure of cluster 0 restores SN 3 and
        // loses that suffix — cluster 1 falls back to CLC 2 itself: the
        // forced CLC that *recorded* the dependency predates every
        // delivery from the lost suffix, so it is the safe restore point.
        let lists = vec![
            vec![
                (SeqNum(1), ddv(&[1, 0])),
                (SeqNum(2), ddv(&[2, 0])),
                (SeqNum(3), ddv(&[3, 0])),
            ],
            vec![(SeqNum(1), ddv(&[0, 1])), (SeqNum(2), ddv(&[3, 2]))],
        ];
        assert_eq!(safe_minimum_sns(&lists), vec![SeqNum(3), SeqNum(2)]);

        // Symmetric case: cluster 0's CLC 3 records cluster 1's SN-2
        // suffix. A failure of cluster 1 (restores SN 2) sends cluster 0
        // back to CLC 3 — again the recording CLC, not its predecessor.
        let lists = vec![
            vec![
                (SeqNum(1), ddv(&[1, 0])),
                (SeqNum(2), ddv(&[2, 0])),
                (SeqNum(3), ddv(&[3, 2])),
            ],
            vec![(SeqNum(1), ddv(&[0, 1])), (SeqNum(2), ddv(&[0, 2]))],
        ];
        assert_eq!(safe_minimum_sns(&lists), vec![SeqNum(3), SeqNum(2)]);
    }

    #[test]
    fn gc_result_is_safe_for_every_failure() {
        // Ping-pong dependency history (the paper's worst case: heavy
        // two-way traffic). Whatever the minima are, pruning below them
        // must leave every single-failure recovery line intact, and the
        // lines must be consistent cuts.
        let mut c0 = vec![(SeqNum(1), ddv(&[1, 0]))];
        let mut c1 = vec![(SeqNum(1), ddv(&[0, 1]))];
        for k in 2..=10u64 {
            c0.push((SeqNum(k), ddv(&[k, k - 1])));
            c1.push((SeqNum(k), ddv(&[k, k])));
        }
        let lists = vec![c0, c1];
        let mins = safe_minimum_sns(&lists);
        for faulty in 0..2 {
            let line = recovery_line(&lists, faulty);
            assert!(crate::recovery::is_consistent_cut(
                &lists,
                &line.sns,
                &line.rolled_back
            ));
            for (sn, min) in line.sns.iter().zip(&mins) {
                assert!(sn >= min, "GC would prune a CLC failure {faulty} needs");
            }
        }
    }

    #[test]
    fn sparse_cross_traffic_keeps_few_clcs() {
        // The paper's Tables 2–3 shape: with one-directional, sparse
        // cross-cluster traffic the minima land at the tail, so after a GC
        // only a couple of CLCs remain.
        let c0 = vec![
            (SeqNum(1), ddv(&[1, 0])),
            (SeqNum(2), ddv(&[2, 0])),
            (SeqNum(3), ddv(&[3, 0])),
            (SeqNum(4), ddv(&[4, 0])),
        ];
        // Cluster 1 heard from cluster 0 once, long ago (SN 1).
        let c1 = vec![
            (SeqNum(1), ddv(&[0, 1])),
            (SeqNum(2), ddv(&[1, 2])),
            (SeqNum(3), ddv(&[1, 3])),
        ];
        let lists = vec![c0.clone(), c1.clone()];
        let mins = safe_minimum_sns(&lists);
        let keep0 = c0.iter().filter(|(sn, _)| *sn >= mins[0]).count();
        let keep1 = c1.iter().filter(|(sn, _)| *sn >= mins[1]).count();
        assert!(keep0 <= 2, "cluster 0 keeps {keep0}");
        assert!(keep1 <= 2, "cluster 1 keeps {keep1}");
    }

    #[test]
    fn mins_never_exceed_latest() {
        let lists = vec![
            vec![(SeqNum(1), ddv(&[1, 0])), (SeqNum(4), ddv(&[4, 2]))],
            vec![(SeqNum(1), ddv(&[0, 1])), (SeqNum(2), ddv(&[1, 2]))],
        ];
        let mins = safe_minimum_sns(&lists);
        assert!(mins[0] <= SeqNum(4));
        assert!(mins[1] <= SeqNum(2));
    }

    #[test]
    fn simultaneous_faults_can_need_deeper_lines() {
        // Clusters 0 and 1 each depend on the other's newest execution
        // through a third cluster's relay, such that single failures stop
        // early but a double failure cascades one step deeper.
        //
        // c0's CLC2 depends on c1@1; c1's CLC2 depends on c0@1.
        let lists = vec![
            vec![(SeqNum(1), ddv(&[1, 0])), (SeqNum(2), ddv(&[2, 1]))],
            vec![(SeqNum(1), ddv(&[0, 1])), (SeqNum(2), ddv(&[1, 2]))],
        ];
        // Single failure of 0: restores SN 2; c1's oldest CLC with
        // DDV[0] >= 2: none (max is 1) -> line [2, 2].
        let single = safe_minimum_sns(&lists);
        assert_eq!(single, vec![SeqNum(2), SeqNum(2)]);
        // Double failure: both restore SN 2; both alerts (sn 2) find no
        // offending entries (deps are at 1 < 2) -> same line here…
        let double = safe_minimum_sns_k(&lists, 2);
        assert!(double[0] <= single[0] && double[1] <= single[1]);

        // …but shift the dependency to the newest SN and the double
        // failure bites where singles do not even run both cascades:
        let lists = vec![
            vec![(SeqNum(1), ddv(&[1, 0])), (SeqNum(2), ddv(&[2, 2]))],
            vec![(SeqNum(1), ddv(&[0, 1])), (SeqNum(2), ddv(&[2, 2]))],
        ];
        let double = safe_minimum_sns_k(&lists, 2);
        for (d, s_) in double.iter().zip(&safe_minimum_sns(&lists)) {
            assert!(d <= s_);
        }
    }

    #[test]
    #[should_panic(expected = "at least one failure")]
    fn k_zero_rejected() {
        let lists = vec![vec![(SeqNum(1), ddv(&[1]))]];
        safe_minimum_sns_k(&lists, 0);
    }

    #[test]
    fn k_larger_than_clusters_is_clamped() {
        let lists = vec![
            vec![(SeqNum(1), ddv(&[1, 0])), (SeqNum(3), ddv(&[3, 0]))],
            vec![(SeqNum(1), ddv(&[0, 1])), (SeqNum(2), ddv(&[0, 2]))],
        ];
        let a = safe_minimum_sns_k(&lists, 2);
        let b = safe_minimum_sns_k(&lists, 99);
        assert_eq!(a, b);
    }
}
