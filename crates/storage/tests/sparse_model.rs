//! Model-based property test: the sparse DDV behaves exactly like a dense
//! `Vec<SeqNum>` under every operation of its public API.

use proptest::prelude::*;
use storage::{Ddv, SeqNum};

/// Widest federation the test builds.
const MAX_WIDTH: usize = 12;

#[derive(Debug, Clone)]
enum Op {
    Set(prop::sample::Index, u64),
    Raise(prop::sample::Index, u64),
    MergeMax(Vec<u64>),
    DominatedBy(Vec<u64>),
    Get(prop::sample::Index),
}

/// Entry values, zero-heavy as on ring traffic.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![3 => Just(0u64), 2 => 1u64..6]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<prop::sample::Index>(), value()).prop_map(|(i, v)| Op::Set(i, v)),
        3 => (any::<prop::sample::Index>(), value()).prop_map(|(i, v)| Op::Raise(i, v)),
        2 => prop::collection::vec(value(), MAX_WIDTH).prop_map(Op::MergeMax),
        2 => prop::collection::vec(value(), MAX_WIDTH).prop_map(Op::DominatedBy),
        1 => any::<prop::sample::Index>().prop_map(Op::Get),
    ]
}

fn dense(values: &[u64], width: usize) -> Vec<SeqNum> {
    values[..width].iter().map(|&v| SeqNum(v)).collect()
}

fn display(model: &[SeqNum]) -> String {
    let entries: Vec<String> = model.iter().map(|e| e.to_string()).collect();
    format!("[{}]", entries.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sparse_ddv_matches_dense_model(
        width in 1usize..=MAX_WIDTH,
        start in prop::collection::vec(value(), MAX_WIDTH),
        ops in prop::collection::vec(op(), 0..40),
    ) {
        let mut model = dense(&start, width);
        let mut ddv = Ddv::from_entries(model.clone());
        for op in ops {
            match op {
                Op::Set(i, v) => {
                    let i = i.index(width);
                    model[i] = SeqNum(v);
                    ddv.set(i, SeqNum(v));
                }
                Op::Raise(i, v) => {
                    let i = i.index(width);
                    let expected = SeqNum(v) > model[i];
                    model[i] = model[i].max(SeqNum(v));
                    prop_assert_eq!(ddv.raise(i, SeqNum(v)), expected);
                }
                Op::MergeMax(values) => {
                    let other = dense(&values, width);
                    let mut expected = false;
                    for (m, &o) in model.iter_mut().zip(&other) {
                        expected |= o > *m;
                        *m = (*m).max(o);
                    }
                    prop_assert_eq!(ddv.merge_max(&Ddv::from_entries(other)), expected);
                }
                Op::DominatedBy(values) => {
                    let other = dense(&values, width);
                    let below = model.iter().zip(&other).all(|(a, b)| a <= b);
                    let above = model.iter().zip(&other).all(|(a, b)| b <= a);
                    let other = Ddv::from_entries(other);
                    prop_assert_eq!(ddv.dominated_by(&other), below);
                    prop_assert_eq!(other.dominated_by(&ddv), above);
                }
                Op::Get(i) => {
                    let i = i.index(width);
                    prop_assert_eq!(ddv.get(i), model[i]);
                }
            }
            prop_assert_eq!(ddv.len(), width);
            prop_assert_eq!(ddv.iter().collect::<Vec<_>>(), model.clone());
            prop_assert_eq!(&ddv, &Ddv::from_entries(model.clone()));
            prop_assert_eq!(ddv.to_string(), display(&model));
            prop_assert!(
                ddv.nonzero().all(|(i, v)| v > SeqNum::ZERO && model[i] == v),
                "stored entries are exactly the non-zero ones"
            );
            prop_assert_eq!(
                ddv.nonzero().count(),
                model.iter().filter(|&&e| e > SeqNum::ZERO).count()
            );
        }
    }
}
