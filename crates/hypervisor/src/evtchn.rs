//! Event channels: Xen's software interrupts.
//!
//! An event channel connects two domains. One side allocates an *unbound*
//! port naming the peer allowed to bind; the peer then binds it, after
//! which either side can `send` notifications. Split drivers use one
//! channel per device to signal ring activity (paper §4.1).

use std::collections::BTreeSet;
use std::sync::Arc;

use simcore::ChunkVec;

use crate::domain::DomId;
use crate::REF_CHUNK;

/// A port number, local to the owning domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EvtchnPort(pub u32);

#[derive(Clone, Debug, PartialEq, Eq)]
enum ChannelState {
    /// Allocated by `owner`, waiting for `remote` to bind.
    Unbound { remote: DomId },
    /// Connected to `remote`'s `remote_port`.
    Interdomain { remote: DomId, remote_port: EvtchnPort },
}

#[derive(Clone, Debug, PartialEq)]
struct Channel {
    state: ChannelState,
    pending: bool,
}

/// One domain's event-channel state.
#[derive(Clone, Default, Debug)]
struct DomPorts {
    /// Open channels the domain owns, indexed by port. Copy-on-write
    /// per [`REF_CHUNK`] ports: a fork's first write to Dom0's channels
    /// (one per back-end device on the host) copies one chunk.
    channels: ChunkVec<Option<Channel>, REF_CHUNK>,
    /// Unbound offers the domain may bind, as `(owner, port)`: the one
    /// kind of entry that names a domain without a peer half among that
    /// domain's own ports (a bound channel's peer is one). Pruned on
    /// bind and close.
    offers: BTreeSet<(DomId, EvtchnPort)>,
    /// Ports allocated so far; the next is `allocated + 1`. Deliberately
    /// never reset, not even when the domain dies: a recycled domid
    /// continues its numbering, and port numbers reach the store and
    /// with it the artefact bytes.
    allocated: u32,
}

/// Per-host event channel table, keyed by (domain, port).
///
/// Only open channels are kept: closing a port removes it, so the table
/// is live state. Entries are grouped by owning domain in a copy-on-write
/// [`ChunkVec`] keyed by domid, so tearing a domain down costs O(its own
/// channels), never a scan of the host's, a world fork costs O(chunks),
/// and a write after the fork copies one chunk of refcounts and the one
/// domain's state it touches.
#[derive(Clone, Default, Debug)]
pub struct EvtchnTable {
    doms: ChunkVec<Option<Arc<DomPorts>>>,
    open: usize,
    sends: u64,
}

/// Event-channel errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvtchnError {
    /// Port does not exist or is closed.
    BadPort,
    /// Bind attempted by a domain the port was not offered to, or the
    /// port is already bound.
    NotPermitted,
}

impl EvtchnTable {
    /// Creates an empty table.
    pub fn new() -> EvtchnTable {
        EvtchnTable::default()
    }

    fn dom(&self, dom: DomId) -> Option<&DomPorts> {
        self.doms.value(dom.0 as usize)
    }

    fn channel(&self, dom: DomId, port: EvtchnPort) -> Option<&Channel> {
        self.dom(dom)?.channels.get(port.0 as usize).as_ref()
    }

    /// Mutable access to an open channel; a miss copies nothing.
    fn channel_mut(&mut self, dom: DomId, port: EvtchnPort) -> Option<&mut Channel> {
        self.channel(dom, port)?;
        let d = self.doms.value_mut(dom.0 as usize)?;
        d.channels.get_mut(port.0 as usize).as_mut()
    }

    fn remove_channel(&mut self, dom: DomId, port: EvtchnPort) -> Option<Channel> {
        let ch = self.channel(dom, port)?.clone();
        self.open -= 1;
        self.doms.value_mut(dom.0 as usize)?.channels.reset(port.0 as usize);
        Some(ch)
    }

    /// Drops `(owner, port)` from `remote`'s offers; a miss copies nothing.
    fn remove_offer(&mut self, remote: DomId, owner: DomId, port: EvtchnPort) {
        let key = (owner, port);
        if self.dom(remote).is_some_and(|d| d.offers.contains(&key)) {
            let d = self.doms.value_mut(remote.0 as usize).expect("checked");
            d.offers.remove(&key);
        }
    }

    /// Allocates `dom`'s next port and opens it as `channel`.
    fn open_port(&mut self, dom: DomId, channel: Channel) -> EvtchnPort {
        let d = self.doms.value_or_default(dom.0 as usize);
        d.allocated += 1;
        let port = EvtchnPort(d.allocated);
        *d.channels.get_mut(port.0 as usize) = Some(channel);
        self.open += 1;
        port
    }

    /// `EVTCHNOP_alloc_unbound`: `owner` allocates a port that only
    /// `remote` may bind.
    pub fn alloc_unbound(&mut self, owner: DomId, remote: DomId) -> EvtchnPort {
        let port = self.open_port(
            owner,
            Channel {
                state: ChannelState::Unbound { remote },
                pending: false,
            },
        );
        self.doms
            .value_or_default(remote.0 as usize)
            .offers
            .insert((owner, port));
        port
    }

    /// `EVTCHNOP_bind_interdomain`: `binder` connects to `(owner, port)`,
    /// receiving its own local port.
    pub fn bind_interdomain(
        &mut self,
        binder: DomId,
        owner: DomId,
        port: EvtchnPort,
    ) -> Result<EvtchnPort, EvtchnError> {
        let ch = self.channel(owner, port).ok_or(EvtchnError::BadPort)?;
        match ch.state {
            ChannelState::Unbound { remote } if remote == binder => {}
            _ => return Err(EvtchnError::NotPermitted),
        }
        self.remove_offer(binder, owner, port);
        let local = self.open_port(
            binder,
            Channel {
                state: ChannelState::Interdomain {
                    remote: owner,
                    remote_port: port,
                },
                pending: false,
            },
        );
        let ch = self.channel_mut(owner, port).expect("checked");
        ch.state = ChannelState::Interdomain {
            remote: binder,
            remote_port: local,
        };
        Ok(local)
    }

    /// `EVTCHNOP_send`: raises the pending flag on the peer's port.
    pub fn send(&mut self, dom: DomId, port: EvtchnPort) -> Result<(), EvtchnError> {
        let (remote, remote_port) = match self.channel(dom, port) {
            Some(Channel {
                state: ChannelState::Interdomain { remote, remote_port },
                ..
            }) => (*remote, *remote_port),
            _ => return Err(EvtchnError::BadPort),
        };
        if let Some(peer) = self.channel_mut(remote, remote_port) {
            peer.pending = true;
            self.sends += 1;
            Ok(())
        } else {
            Err(EvtchnError::BadPort)
        }
    }

    /// Consumes and returns the pending flag of a local port.
    pub fn poll(&mut self, dom: DomId, port: EvtchnPort) -> Result<bool, EvtchnError> {
        let ch = self.channel_mut(dom, port).ok_or(EvtchnError::BadPort)?;
        let was = ch.pending;
        ch.pending = false;
        Ok(was)
    }

    /// `EVTCHNOP_close`: closes a local port and removes it; the peer
    /// end (if any) is closed and removed as well.
    pub fn close(&mut self, dom: DomId, port: EvtchnPort) -> Result<(), EvtchnError> {
        let ch = self.remove_channel(dom, port).ok_or(EvtchnError::BadPort)?;
        match ch.state {
            ChannelState::Unbound { remote } => self.remove_offer(remote, dom, port),
            ChannelState::Interdomain { remote, remote_port } => {
                self.remove_channel(remote, remote_port);
            }
        }
        Ok(())
    }

    /// Closes every port belonging to a domain (domain destruction), and
    /// every port another domain holds towards it: a bound peer half, or
    /// an unbound offer the dead domain can no longer accept. Like grant
    /// reaping, this is symmetric — otherwise each guest lifecycle leaks
    /// the backend-owned offers it never bound (e.g. the sysctl channel).
    /// Bound peers go with the domain's own ports, offers are found
    /// through the offer index: O(the domain's channels) in all.
    pub fn close_all(&mut self, dom: DomId) {
        let first_port =
            |d: &DomPorts| d.channels.iter().find(|(_, c)| c.is_some()).map(|(p, _)| p);
        while let Some(port) = self.dom(dom).and_then(first_port) {
            let _ = self.close(dom, EvtchnPort(port as u32));
        }
        while let Some((owner, port)) = self.dom(dom).and_then(|d| d.offers.first().copied()) {
            let _ = self.close(owner, port);
        }
    }

    /// Total successful sends (proxy for notification load).
    pub fn total_sends(&self) -> u64 {
        self.sends
    }

    /// Number of open channels — the whole table, since closed ones are
    /// removed.
    pub fn open_channels(&self) -> usize {
        self.open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_bind_send_poll() {
        let mut t = EvtchnTable::new();
        let back = DomId(0);
        let front = DomId(5);
        let bport = t.alloc_unbound(back, front);
        let fport = t.bind_interdomain(front, back, bport).unwrap();
        t.send(back, bport).unwrap();
        assert!(t.poll(front, fport).unwrap());
        assert!(!t.poll(front, fport).unwrap(), "pending consumed");
        t.send(front, fport).unwrap();
        assert!(t.poll(back, bport).unwrap());
    }

    #[test]
    fn bind_by_wrong_domain_is_rejected() {
        let mut t = EvtchnTable::new();
        let p = t.alloc_unbound(DomId(0), DomId(5));
        assert_eq!(
            t.bind_interdomain(DomId(6), DomId(0), p).unwrap_err(),
            EvtchnError::NotPermitted
        );
    }

    #[test]
    fn double_bind_is_rejected() {
        let mut t = EvtchnTable::new();
        let p = t.alloc_unbound(DomId(0), DomId(5));
        t.bind_interdomain(DomId(5), DomId(0), p).unwrap();
        assert_eq!(
            t.bind_interdomain(DomId(5), DomId(0), p).unwrap_err(),
            EvtchnError::NotPermitted
        );
    }

    #[test]
    fn send_on_unbound_fails() {
        let mut t = EvtchnTable::new();
        let p = t.alloc_unbound(DomId(0), DomId(5));
        assert_eq!(t.send(DomId(0), p).unwrap_err(), EvtchnError::BadPort);
    }

    #[test]
    fn close_tears_down_both_ends() {
        let mut t = EvtchnTable::new();
        let bp = t.alloc_unbound(DomId(0), DomId(5));
        let fp = t.bind_interdomain(DomId(5), DomId(0), bp).unwrap();
        t.close(DomId(5), fp).unwrap();
        assert_eq!(t.send(DomId(0), bp).unwrap_err(), EvtchnError::BadPort);
        assert_eq!(t.open_channels(), 0);
    }

    #[test]
    fn close_all_on_domain_death() {
        let mut t = EvtchnTable::new();
        for _ in 0..3 {
            let bp = t.alloc_unbound(DomId(0), DomId(5));
            t.bind_interdomain(DomId(5), DomId(0), bp).unwrap();
        }
        assert_eq!(t.open_channels(), 6);
        t.close_all(DomId(5));
        assert_eq!(t.open_channels(), 0);
    }

    #[test]
    fn close_all_reaps_foreign_entries_naming_the_domain() {
        let mut t = EvtchnTable::new();
        // Dom0-owned offers to the dying domain, never bound (the
        // sysctl-channel shape), beside a bound pair and the domain's
        // own offer towards Dom0.
        let unbound = t.alloc_unbound(DomId(0), DomId(5));
        let bp = t.alloc_unbound(DomId(0), DomId(5));
        t.bind_interdomain(DomId(5), DomId(0), bp).unwrap();
        t.alloc_unbound(DomId(5), DomId(0));
        // Entries of unrelated domains survive.
        let other = t.alloc_unbound(DomId(0), DomId(6));
        let op = t.alloc_unbound(DomId(0), DomId(7));
        t.bind_interdomain(DomId(7), DomId(0), op).unwrap();
        assert_eq!(t.open_channels(), 7);
        t.close_all(DomId(5));
        assert_eq!(t.open_channels(), 3);
        assert_eq!(
            t.close(DomId(0), unbound).unwrap_err(),
            EvtchnError::BadPort
        );
        assert_eq!(
            t.bind_interdomain(DomId(6), DomId(0), other).unwrap(),
            EvtchnPort(1)
        );
        assert!(
            t.doms.values().all(|(_, d)| d.offers.is_empty()),
            "bound or closed offers leave no index entry"
        );
    }

    #[test]
    fn closed_channels_leave_the_table_but_numbering_continues() {
        let mut t = EvtchnTable::new();
        let bp = t.alloc_unbound(DomId(0), DomId(5));
        let fp = t.bind_interdomain(DomId(5), DomId(0), bp).unwrap();
        t.close(DomId(0), bp).unwrap();
        assert_eq!(t.open_channels(), 0, "closed channels are removed");
        assert_eq!(t.close(DomId(5), fp).unwrap_err(), EvtchnError::BadPort);
        assert_eq!(t.poll(DomId(5), fp).unwrap_err(), EvtchnError::BadPort);
        // A recycled domid continues its port numbering.
        t.close_all(DomId(5));
        let again = t.alloc_unbound(DomId(5), DomId(0));
        assert_eq!(again, EvtchnPort(fp.0 + 1));
    }

    #[test]
    fn ports_are_per_domain() {
        let mut t = EvtchnTable::new();
        let p0 = t.alloc_unbound(DomId(0), DomId(1));
        let p1 = t.alloc_unbound(DomId(1), DomId(0));
        // Both get port 1 in their own space.
        assert_eq!(p0, p1);
    }
}
