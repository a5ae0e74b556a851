//! Per-domain tables shared copy-on-write across world forks.
//!
//! The event-channel and grant tables are keyed by the domain that owns
//! an entry (and indexed by the domain an entry names). Holding each
//! domain's entries in its own `Arc`-shared map gives both properties
//! the control plane needs at scale: tearing a domain down touches only
//! that domain's entries, and cloning a hypervisor (a world fork) costs
//! one refcount per domain while a later mutation copies only the one
//! domain's map it touches — O(written state) per fork, like the store's
//! chunked arena.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::domain::DomId;

/// A map from domain to that domain's own entries.
#[derive(Clone, Debug)]
pub(crate) struct PerDomain<K, V> {
    maps: BTreeMap<DomId, Arc<BTreeMap<K, V>>>,
    len: usize,
}

impl<K, V> Default for PerDomain<K, V> {
    fn default() -> Self {
        PerDomain {
            maps: BTreeMap::new(),
            len: 0,
        }
    }
}

impl<K: Ord + Copy, V: Clone> PerDomain<K, V> {
    /// Entries over all domains.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, dom: DomId, key: &K) -> Option<&V> {
        self.maps.get(&dom)?.get(key)
    }

    /// Mutable access to an existing entry; a miss copies nothing.
    pub(crate) fn get_mut(&mut self, dom: DomId, key: &K) -> Option<&mut V> {
        let map = self.maps.get_mut(&dom)?;
        if !map.contains_key(key) {
            return None;
        }
        Arc::make_mut(map).get_mut(key)
    }

    pub(crate) fn insert(&mut self, dom: DomId, key: K, value: V) {
        let map = Arc::make_mut(self.maps.entry(dom).or_default());
        if map.insert(key, value).is_none() {
            self.len += 1;
        }
    }

    /// Removes an entry; a domain left without entries is dropped, so
    /// the outer map holds live domains only.
    pub(crate) fn remove(&mut self, dom: DomId, key: &K) -> Option<V> {
        let map = self.maps.get_mut(&dom)?;
        if !map.contains_key(key) {
            return None;
        }
        let value = Arc::make_mut(map).remove(key);
        if map.is_empty() {
            self.maps.remove(&dom);
        }
        self.len -= 1;
        value
    }

    /// The smallest key `dom` holds, if any.
    pub(crate) fn first_key(&self, dom: DomId) -> Option<K> {
        self.maps.get(&dom)?.keys().next().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_until_a_domain_is_written() {
        let mut a: PerDomain<u32, u64> = PerDomain::default();
        a.insert(DomId(1), 1, 10);
        a.insert(DomId(2), 1, 20);
        let mut b = a.clone();
        *b.get_mut(DomId(1), &1).unwrap() = 11;
        assert!(b.get_mut(DomId(1), &9).is_none());
        assert!(Arc::ptr_eq(&a.maps[&DomId(2)], &b.maps[&DomId(2)]));
        assert!(!Arc::ptr_eq(&a.maps[&DomId(1)], &b.maps[&DomId(1)]));
        assert_eq!(a.get(DomId(1), &1), Some(&10));
        assert_eq!(b.get(DomId(1), &1), Some(&11));
    }

    #[test]
    fn removing_a_domains_last_entry_drops_the_domain() {
        let mut t: PerDomain<u32, ()> = PerDomain::default();
        t.insert(DomId(3), 7, ());
        t.insert(DomId(3), 5, ());
        t.insert(DomId(3), 5, ());
        assert_eq!(t.len(), 2);
        assert_eq!(t.first_key(DomId(3)), Some(5));
        assert_eq!(t.remove(DomId(3), &5), Some(()));
        assert_eq!(t.remove(DomId(3), &5), None);
        assert_eq!(t.remove(DomId(3), &7), Some(()));
        assert_eq!(t.len(), 0);
        assert!(t.maps.is_empty());
        assert_eq!(t.first_key(DomId(3)), None);
    }
}
