//! Sequence numbers and Direct Dependency Vectors (DDV).
//!
//! Every cluster maintains a **sequence number (SN)** incremented at each
//! committed cluster-level checkpoint (CLC), and a **DDV** with one entry
//! per *cluster* of the federation (paper §3.2):
//!
//! * `DDV[self] = SN` of the own cluster,
//! * `DDV[other] =` last SN received from `other` (0 if none).
//!
//! DDV entries are monotone over a cluster's CLC sequence, which is what
//! makes the rollback rule ("oldest CLC whose entry for the faulty cluster
//! is >= the alert SN") a simple scan.

use std::fmt;

/// A cluster-level checkpoint sequence number.
///
/// `SeqNum(0)` means "before any checkpoint" / "never heard from"; the
/// initial CLC taken at application start commits as `SeqNum(1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNum(pub u64);

impl SeqNum {
    /// The zero sequence number (no checkpoint committed / never heard).
    pub const ZERO: SeqNum = SeqNum(0);

    /// The successor sequence number.
    #[inline]
    pub fn next(self) -> SeqNum {
        SeqNum(self.0 + 1)
    }

    /// Raw value.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A Direct Dependency Vector: one [`SeqNum`] per cluster of the federation.
///
/// Stored sparsely: a cluster fills only the entries of clusters it has
/// heard from, so on ring or neighbour traffic almost every entry is zero.
pub type Ddv = SparseVec<SeqNum>;

/// A fixed-length, cluster-indexed vector that stores only its non-zero
/// entries, as `(index, value)` pairs sorted by index ("zero" is
/// `V::default()`).
///
/// Memory and the cost of [`merge_max`](Self::merge_max) and
/// [`dominated_by`](Self::dominated_by) grow with the non-zero entries, not
/// with the federation size; [`get`](Self::get) is a binary search over
/// them. The representation is canonical — a zero is never stored — so
/// equality and hashing are by value. Everything outward-facing is dense:
/// [`iter`](Self::iter) yields all `len()` entries, zeros included, and
/// the `Display` form lists them all, so wire and disk encodings built on
/// `iter` do not depend on the representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SparseVec<V> {
    len: usize,
    entries: Vec<(u32, V)>,
}

impl<V: Copy + Default + Ord> SparseVec<V> {
    /// All-zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vector length {n} out of range");
        SparseVec {
            len: n,
            entries: Vec::new(),
        }
    }

    /// Build from explicit dense entries.
    pub fn from_entries(entries: Vec<V>) -> Self {
        let mut v = Self::zeros(entries.len());
        v.entries = (0u32..)
            .zip(entries)
            .filter(|&(_, e)| e != V::default())
            .collect();
        v
    }

    /// Number of entries (clusters covered), zeros included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length vector (degenerate).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn find(&self, i: usize) -> Result<usize, usize> {
        assert!(
            i < self.len,
            "index {i} out of range for length {}",
            self.len
        );
        self.entries.binary_search_by_key(&(i as u32), |&(c, _)| c)
    }

    /// Entry `i`.
    #[inline]
    pub fn get(&self, i: usize) -> V {
        match self.find(i) {
            Ok(k) => self.entries[k].1,
            Err(_) => V::default(),
        }
    }

    /// Set entry `i`.
    pub fn set(&mut self, i: usize, value: V) {
        match (self.find(i), value == V::default()) {
            (Ok(k), true) => {
                self.entries.remove(k);
            }
            (Ok(k), false) => self.entries[k].1 = value,
            (Err(_), true) => {}
            (Err(k), false) => self.entries.insert(k, (i as u32, value)),
        }
    }

    /// Raise entry `i` to at least `value`; returns `true` if it changed.
    pub fn raise(&mut self, i: usize, value: V) -> bool {
        match self.find(i) {
            Ok(k) if value > self.entries[k].1 => {
                self.entries[k].1 = value;
                true
            }
            Ok(_) => false,
            Err(k) if value > V::default() => {
                self.entries.insert(k, (i as u32, value));
                true
            }
            Err(_) => false,
        }
    }

    /// Component-wise max merge (the FullDdv transitive variant, paper §7).
    /// Returns `true` if any entry increased.
    pub fn merge_max(&mut self, other: &Self) -> bool {
        assert_eq!(self.len, other.len, "DDV dimension mismatch");
        // First pass: raise the entries both sides hold, in place, and
        // count the ones only `other` holds.
        let mut changed = false;
        let mut missing = 0usize;
        let mut k = 0usize;
        for &(c, v) in &other.entries {
            while k < self.entries.len() && self.entries[k].0 < c {
                k += 1;
            }
            match self.entries.get_mut(k) {
                Some(mine) if mine.0 == c => {
                    if v > mine.1 {
                        mine.1 = v;
                        changed = true;
                    }
                }
                _ => missing += 1,
            }
        }
        if missing == 0 {
            return changed;
        }
        // Second pass: interleave the missing entries (every shared entry
        // already holds the max).
        let mut merged = Vec::with_capacity(self.entries.len() + missing);
        let mut mine = self.entries.iter().peekable();
        for &(c, v) in &other.entries {
            while let Some(&&e) = mine.peek().filter(|e| e.0 < c) {
                merged.push(e);
                mine.next();
            }
            match mine.peek() {
                Some(&&e) if e.0 == c => {
                    merged.push(e);
                    mine.next();
                }
                _ => merged.push((c, v)),
            }
        }
        merged.extend(mine);
        self.entries = merged;
        true
    }

    /// Component-wise `<=` (is every dependency of `self` covered by
    /// `other`?). Used by consistency checks.
    pub fn dominated_by(&self, other: &Self) -> bool {
        assert_eq!(self.len, other.len, "DDV dimension mismatch");
        let mut theirs = other.entries.iter().peekable();
        self.entries.iter().all(|&(c, v)| {
            while theirs.next_if(|e| e.0 < c).is_some() {}
            theirs.peek().is_some_and(|e| e.0 == c && v <= e.1)
        })
    }

    /// Iterate all `len()` entries in index order, zeros included.
    pub fn iter(&self) -> impl Iterator<Item = V> + '_ {
        let mut stored = self.entries.iter().peekable();
        (0..self.len).map(move |i| match stored.next_if(|e| e.0 as usize == i) {
            Some(&(_, v)) => v,
            None => V::default(),
        })
    }

    /// Iterate the non-zero entries as `(index, value)`, in index order.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, V)> + '_ {
        self.entries.iter().map(|&(c, v)| (c as usize, v))
    }
}

impl<V: Copy + Default + Ord + fmt::Display> fmt::Display for SparseVec<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqnum_next_and_display() {
        assert_eq!(SeqNum::ZERO.next(), SeqNum(1));
        assert_eq!(SeqNum(41).next().value(), 42);
        assert_eq!(SeqNum(7).to_string(), "7");
    }

    #[test]
    fn zeros_has_all_zero_entries() {
        let d = Ddv::zeros(3);
        assert_eq!(d.len(), 3);
        assert!(d.iter().all(|e| e == SeqNum::ZERO));
    }

    #[test]
    fn raise_only_increases() {
        let mut d = Ddv::zeros(2);
        assert!(d.raise(1, SeqNum(5)));
        assert!(!d.raise(1, SeqNum(5)), "equal value is not a raise");
        assert!(!d.raise(1, SeqNum(3)), "lower value is not a raise");
        assert_eq!(d.get(1), SeqNum(5));
        assert_eq!(d.get(0), SeqNum::ZERO);
    }

    #[test]
    fn merge_max_is_componentwise() {
        let mut a = Ddv::from_entries(vec![SeqNum(1), SeqNum(5), SeqNum(0)]);
        let b = Ddv::from_entries(vec![SeqNum(2), SeqNum(3), SeqNum(0)]);
        assert!(a.merge_max(&b));
        assert_eq!(a, Ddv::from_entries(vec![SeqNum(2), SeqNum(5), SeqNum(0)]));
        // Merging something already dominated changes nothing.
        assert!(!a.merge_max(&b));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn merge_rejects_dimension_mismatch() {
        let mut a = Ddv::zeros(2);
        a.merge_max(&Ddv::zeros(3));
    }

    #[test]
    fn dominated_by_is_a_partial_order() {
        let a = Ddv::from_entries(vec![SeqNum(1), SeqNum(2)]);
        let b = Ddv::from_entries(vec![SeqNum(2), SeqNum(2)]);
        let c = Ddv::from_entries(vec![SeqNum(0), SeqNum(9)]);
        assert!(a.dominated_by(&b));
        assert!(!b.dominated_by(&a));
        assert!(
            !a.dominated_by(&c) && !c.dominated_by(&a),
            "incomparable pair"
        );
        assert!(a.dominated_by(&a), "reflexive");
    }

    #[test]
    fn zeros_are_never_stored() {
        let mut d = Ddv::from_entries(vec![SeqNum(0), SeqNum(4), SeqNum(0)]);
        assert_eq!(d.nonzero().collect::<Vec<_>>(), vec![(1, SeqNum(4))]);
        d.set(1, SeqNum::ZERO);
        assert_eq!(d, Ddv::zeros(3), "equality is by value");
        assert!(!d.raise(2, SeqNum::ZERO));
        assert_eq!(d.nonzero().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_rejects_out_of_range_index() {
        Ddv::zeros(2).get(2);
    }

    #[test]
    fn display_format() {
        let d = Ddv::from_entries(vec![SeqNum(1), SeqNum(0), SeqNum(3)]);
        assert_eq!(d.to_string(), "[1 0 3]");
    }
}
