//! Grant tables: page sharing between domains.
//!
//! A domain *grants* a peer access to one of its frames and hands over a
//! grant reference; the peer *maps* the reference into its own address
//! space. Split drivers move all bulk data this way (paper §4.1), and the
//! noxs device control pages (§5.1) are shared through grants too.

use std::collections::BTreeSet;
use std::sync::Arc;

use simcore::ChunkVec;

use crate::domain::DomId;
use crate::REF_CHUNK;

/// A grant reference, local to the granting domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GrantRef(pub u32);

/// Grant-table errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GrantError {
    /// Reference does not exist.
    BadRef,
    /// Mapping attempted by a domain the grant was not issued to.
    NotPermitted,
    /// Grant still mapped when the granter tried to end access.
    StillInUse,
    /// Already mapped by the grantee.
    AlreadyMapped,
}

#[derive(Clone, Debug, PartialEq)]
struct Grant {
    grantee: DomId,
    /// Frame number in the granter's pseudo-physical space.
    frame: u64,
    readonly: bool,
    mapped: bool,
}

/// One domain's grant state.
#[derive(Clone, Default, Debug)]
struct DomGrants {
    /// Live grants the domain issued, indexed by reference.
    /// Copy-on-write per [`REF_CHUNK`] refs: a fork's first write to
    /// Dom0's grants (one per back-end device on the host) copies one
    /// chunk.
    grants: ChunkVec<Option<Grant>, REF_CHUNK>,
    /// Live grants issued to the domain, as `(granter, ref)`.
    received: BTreeSet<(DomId, GrantRef)>,
    /// References issued so far; the next is `issued + 1`. Deliberately
    /// never reset: a recycled domid continues its numbering, and grant
    /// refs reach the store and with it the artefact bytes.
    issued: u32,
}

/// Per-host grant table keyed by (granter, reference).
///
/// Grants are grouped by granter, and each domain also indexes the
/// grants others issued to it, so reaping a dying domain costs O(its own
/// grants), never a scan of the host's. The groups live in a
/// copy-on-write [`ChunkVec`] keyed by domid: a world fork costs
/// O(chunks) and copies only the domains it later writes.
#[derive(Clone, Default, Debug)]
pub struct GrantTable {
    doms: ChunkVec<Option<Arc<DomGrants>>>,
    len: usize,
}

impl GrantTable {
    /// Creates an empty table.
    pub fn new() -> GrantTable {
        GrantTable::default()
    }

    fn grant(&self, granter: DomId, gref: GrantRef) -> Option<&Grant> {
        let d = self.doms.value(granter.0 as usize)?;
        d.grants.get(gref.0 as usize).as_ref()
    }

    /// Mutable access to a live grant; a miss copies nothing.
    fn grant_mut(&mut self, granter: DomId, gref: GrantRef) -> Option<&mut Grant> {
        self.grant(granter, gref)?;
        let d = self.doms.value_mut(granter.0 as usize)?;
        d.grants.get_mut(gref.0 as usize).as_mut()
    }

    /// Grants `grantee` access to `frame` of `granter`.
    pub fn grant_access(
        &mut self,
        granter: DomId,
        grantee: DomId,
        frame: u64,
        readonly: bool,
    ) -> GrantRef {
        let d = self.doms.value_or_default(granter.0 as usize);
        d.issued += 1;
        let gref = GrantRef(d.issued);
        *d.grants.get_mut(gref.0 as usize) = Some(Grant {
            grantee,
            frame,
            readonly,
            mapped: false,
        });
        self.doms
            .value_or_default(grantee.0 as usize)
            .received
            .insert((granter, gref));
        self.len += 1;
        gref
    }

    /// Maps a grant; returns the shared frame number.
    pub fn map(
        &mut self,
        mapper: DomId,
        granter: DomId,
        gref: GrantRef,
    ) -> Result<u64, GrantError> {
        let g = self.grant_mut(granter, gref).ok_or(GrantError::BadRef)?;
        if g.grantee != mapper {
            return Err(GrantError::NotPermitted);
        }
        if g.mapped {
            return Err(GrantError::AlreadyMapped);
        }
        g.mapped = true;
        Ok(g.frame)
    }

    /// Unmaps a grant.
    pub fn unmap(
        &mut self,
        mapper: DomId,
        granter: DomId,
        gref: GrantRef,
    ) -> Result<(), GrantError> {
        let g = self.grant_mut(granter, gref).ok_or(GrantError::BadRef)?;
        if g.grantee != mapper {
            return Err(GrantError::NotPermitted);
        }
        g.mapped = false;
        Ok(())
    }

    /// Ends access: the granter revokes the reference. Fails while the
    /// grantee still has it mapped.
    pub fn end_access(&mut self, granter: DomId, gref: GrantRef) -> Result<(), GrantError> {
        match self.grant(granter, gref) {
            None => Err(GrantError::BadRef),
            Some(g) if g.mapped => Err(GrantError::StillInUse),
            Some(_) => {
                self.remove(granter, gref);
                Ok(())
            }
        }
    }

    fn remove(&mut self, granter: DomId, gref: GrantRef) {
        let Some(g) = self.grant(granter, gref).cloned() else {
            return;
        };
        let d = self.doms.value_mut(granter.0 as usize).expect("checked");
        d.grants.reset(gref.0 as usize);
        self.len -= 1;
        if let Some(d) = self.doms.value_mut(g.grantee.0 as usize) {
            d.received.remove(&(granter, gref));
        }
    }

    /// Whether a grant is currently read-only.
    pub fn is_readonly(&self, granter: DomId, gref: GrantRef) -> Option<bool> {
        self.grant(granter, gref).map(|g| g.readonly)
    }

    /// Force-drops every grant of a dying domain (both directions): the
    /// grants it issued, then those its index lists as issued to it.
    pub fn drop_domain(&mut self, dom: DomId) {
        let i = dom.0 as usize;
        let first = |d: &DomGrants| d.grants.iter().find(|(_, g)| g.is_some()).map(|(r, _)| r);
        while let Some(gref) = self.doms.value(i).and_then(first) {
            self.remove(dom, GrantRef(gref as u32));
        }
        while let Some((granter, gref)) =
            self.doms.value(i).and_then(|d| d.received.first().copied())
        {
            self.remove(granter, gref);
        }
    }

    /// Number of live grants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no grants exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries in the grantee index, over all domains.
    #[cfg(test)]
    fn received_total(&self) -> usize {
        self.doms.values().map(|(_, d)| d.received.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_map_unmap_end() {
        let mut t = GrantTable::new();
        let gref = t.grant_access(DomId(5), DomId(0), 0x1000, false);
        assert_eq!(t.map(DomId(0), DomId(5), gref).unwrap(), 0x1000);
        assert_eq!(
            t.end_access(DomId(5), gref).unwrap_err(),
            GrantError::StillInUse
        );
        t.unmap(DomId(0), DomId(5), gref).unwrap();
        t.end_access(DomId(5), gref).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn wrong_grantee_cannot_map() {
        let mut t = GrantTable::new();
        let gref = t.grant_access(DomId(5), DomId(0), 1, true);
        assert_eq!(
            t.map(DomId(7), DomId(5), gref).unwrap_err(),
            GrantError::NotPermitted
        );
    }

    #[test]
    fn double_map_rejected() {
        let mut t = GrantTable::new();
        let gref = t.grant_access(DomId(5), DomId(0), 1, true);
        t.map(DomId(0), DomId(5), gref).unwrap();
        assert_eq!(
            t.map(DomId(0), DomId(5), gref).unwrap_err(),
            GrantError::AlreadyMapped
        );
    }

    #[test]
    fn readonly_flag_visible() {
        let mut t = GrantTable::new();
        let ro = t.grant_access(DomId(1), DomId(0), 1, true);
        let rw = t.grant_access(DomId(1), DomId(0), 2, false);
        assert_eq!(t.is_readonly(DomId(1), ro), Some(true));
        assert_eq!(t.is_readonly(DomId(1), rw), Some(false));
    }

    #[test]
    fn drop_domain_clears_both_directions() {
        let mut t = GrantTable::new();
        t.grant_access(DomId(5), DomId(0), 1, false); // granted by 5
        t.grant_access(DomId(0), DomId(5), 2, false); // granted to 5
        t.grant_access(DomId(0), DomId(6), 3, false); // unrelated
        t.drop_domain(DomId(5));
        assert_eq!(t.len(), 1);
        assert_eq!(t.received_total(), 1);
    }

    #[test]
    fn drop_domain_reaps_foreign_grants_naming_the_domain() {
        let mut t = GrantTable::new();
        // Dom0 -> guest grants (the noxs device-page shape), one mapped,
        // beside guest -> Dom0 grants and grants between other guests.
        let page = t.grant_access(DomId(0), DomId(5), 1, false);
        t.map(DomId(5), DomId(0), page).unwrap();
        t.grant_access(DomId(0), DomId(5), 2, true);
        t.grant_access(DomId(5), DomId(0), 3, false);
        t.grant_access(DomId(6), DomId(5), 4, false);
        let keep = t.grant_access(DomId(0), DomId(6), 5, false);
        let keep2 = t.grant_access(DomId(6), DomId(7), 6, false);
        t.drop_domain(DomId(5));
        assert_eq!(t.len(), 2);
        assert_eq!(t.received_total(), 2, "the index holds live grants only");
        assert_eq!(
            t.map(DomId(5), DomId(0), page).unwrap_err(),
            GrantError::BadRef
        );
        assert_eq!(t.map(DomId(6), DomId(0), keep).unwrap(), 5);
        t.end_access(DomId(6), keep2).unwrap();
        assert_eq!(t.received_total(), 1);
        // A recycled domid continues its reference numbering.
        assert_eq!(t.grant_access(DomId(5), DomId(0), 7, false), GrantRef(2));
    }

    #[test]
    fn refs_are_per_granter() {
        let mut t = GrantTable::new();
        let a = t.grant_access(DomId(1), DomId(0), 1, false);
        let b = t.grant_access(DomId(2), DomId(0), 1, false);
        assert_eq!(a, b, "each granter has its own ref space");
    }
}
