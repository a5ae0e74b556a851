//! A running summary of `/local/domain`: exactly what xl's unique-name
//! scan reads from the store, kept by [`crate::Store`] as it mutates.
//!
//! The scan lists `/local/domain` and reads `<entry>/name` for every
//! numeric entry. Its charges depend only on the number of children,
//! the number of numeric ones, their name lengths and the lengths of
//! the `name` values that exist; whether it reports a collision depends
//! only on which name values exist. The summary holds those counts plus
//! a hash → count map of the name values, so the closed-form scan
//! ([`crate::Xenstored::replay_name_scan`]) and its collision guard are
//! O(1) instead of a walk of the directory.
//!
//! The store updates it at the three places a node is born, changes
//! value or dies (see DESIGN.md §6k); transactions, interference and
//! subtree removal all mutate through those. It is derived state:
//! excluded from world digests and the census, and checked against
//! [`crate::Store::local_domain_summary_recomputed`] by property tests.

use std::collections::HashMap;
use std::sync::Arc;

use crate::hash::hash_bytes;

/// Name-value hash → number of `<numeric>/name` nodes holding it.
type NameCounts = HashMap<u64, u32>;

/// The hash and length of one `name` value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct NameVal {
    hash: u64,
    len: u64,
}

impl NameVal {
    pub(crate) fn of(value: &[u8]) -> NameVal {
        let h = hash_bytes(value);
        NameVal {
            hash: (h >> 64) as u64 ^ h as u64,
            len: value.len() as u64,
        }
    }
}

/// What xl's unique-name scan reads from `/local/domain` (see the
/// module docs). All zero when `/local/domain` does not exist.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LocalDomainSummary {
    /// Children of `/local/domain`: the scan's directory entries.
    pub(crate) children: u64,
    /// Children whose name parses as a `u32`: the entries it reads.
    pub(crate) numeric: u64,
    /// Summed byte length of the numeric children's names.
    pub(crate) numeric_name_bytes: u64,
    /// Summed value length of the existing `<numeric>/name` nodes.
    pub(crate) name_value_bytes: u64,
    /// Counts of the `<numeric>/name` values by hash. Shared
    /// copy-on-write across store forks, like the store's other side
    /// tables: a fork copies it only when it first changes a name.
    names: Arc<NameCounts>,
}

impl LocalDomainSummary {
    /// True unless no `<numeric>/name` node holds `value`. A hash
    /// collision can make it true for a value nobody holds, never
    /// false for one somebody does.
    pub fn may_hold_name(&self, value: &[u8]) -> bool {
        self.names.contains_key(&NameVal::of(value).hash)
    }

    /// `Some(name length)` for a numeric child, `None` otherwise.
    pub(crate) fn add_child(&mut self, numeric_len: Option<u64>) {
        self.children += 1;
        if let Some(len) = numeric_len {
            self.numeric += 1;
            self.numeric_name_bytes += len;
        }
    }

    pub(crate) fn remove_child(&mut self, numeric_len: Option<u64>) {
        self.children -= 1;
        if let Some(len) = numeric_len {
            self.numeric -= 1;
            self.numeric_name_bytes -= len;
        }
    }

    pub(crate) fn add_name(&mut self, v: NameVal) {
        self.name_value_bytes += v.len;
        *Arc::make_mut(&mut self.names).entry(v.hash).or_insert(0) += 1;
    }

    pub(crate) fn remove_name(&mut self, v: NameVal) {
        self.name_value_bytes -= v.len;
        let names = Arc::make_mut(&mut self.names);
        let count = names.get_mut(&v.hash).expect("removed name was counted");
        *count -= 1;
        if *count == 0 {
            names.remove(&v.hash);
        }
    }

    /// A `name` node's value changed from `old` to `new`.
    pub(crate) fn change_name(&mut self, old: NameVal, new: NameVal) {
        if old != new {
            self.remove_name(old);
            self.add_name(new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_round_trip_to_the_default() {
        let mut s = LocalDomainSummary::default();
        s.add_child(Some(2));
        s.add_child(None);
        s.add_name(NameVal::of(b"vm-1"));
        s.add_name(NameVal::of(b"vm-1"));
        assert!(s.may_hold_name(b"vm-1"));
        assert!(!s.may_hold_name(b"vm-2"));
        s.change_name(NameVal::of(b"vm-1"), NameVal::of(b"vm-2"));
        assert!(s.may_hold_name(b"vm-1") && s.may_hold_name(b"vm-2"));
        s.remove_name(NameVal::of(b"vm-1"));
        s.remove_name(NameVal::of(b"vm-2"));
        s.remove_child(None);
        s.remove_child(Some(2));
        assert_eq!(s, LocalDomainSummary::default());
    }
}
