//! Watches: subtree-change notifications.
//!
//! A client registers a watch on a path with a token; whenever that path
//! or anything below it is modified, the client receives an event carrying
//! the modified path and the token. xenstored checks *every* registered
//! watch against every write — a per-write cost that grows with the
//! number of devices and guests in the system.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use crate::path::XsPath;
use crate::store::Store;
use crate::sym::XsSym;

/// A delivered watch notification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WatchEvent {
    /// The path that changed (or the watch path itself for the initial
    /// registration event).
    pub path: XsPath,
    /// The token supplied at registration (shared, not copied, across
    /// the events of one watch).
    pub token: Arc<str>,
}

/// Watches registered on one symbol: `(connection, token)` pairs.
type WatchList = Vec<(u32, Arc<str>)>;

/// Slots per copy-on-write chunk; mirrors the store arena's chunking.
const CHUNK_BITS: usize = 6;
const CHUNK: usize = 1 << CHUNK_BITS;

/// The symbol-indexed watch lists, chunked and shared copy-on-write
/// across world forks (like the store's node arena): a dense
/// `Vec<Vec<..>>` costs a Vec header per interned symbol on every world
/// clone — at cluster scale that dominated fork memory — whereas chunks
/// clone by refcount and a registration localises only the 64-slot
/// chunk it lands in.
#[derive(Clone, Default, Debug)]
struct SymWatches {
    chunks: Vec<Arc<Vec<WatchList>>>,
}

impl SymWatches {
    #[inline]
    fn get(&self, idx: usize) -> Option<&WatchList> {
        self.chunks.get(idx >> CHUNK_BITS)?.get(idx & (CHUNK - 1))
    }

    /// The list for `idx`, for editing; grows by whole chunks and
    /// localises a shared chunk first. Callers that may not end up
    /// mutating should pre-check with [`SymWatches::get`] to avoid a
    /// pointless chunk copy.
    fn ensure_mut(&mut self, idx: usize) -> &mut WatchList {
        while self.chunks.len() <= idx >> CHUNK_BITS {
            let mut fresh = Vec::with_capacity(CHUNK);
            fresh.resize_with(CHUNK, Vec::new);
            self.chunks.push(Arc::new(fresh));
        }
        &mut Arc::make_mut(&mut self.chunks[idx >> CHUNK_BITS])[idx & (CHUNK - 1)]
    }

    /// Removes every entry of `conn` from the list at `idx`, returning
    /// how many were dropped.
    fn remove_conn_at(&mut self, idx: usize, conn: u32) -> usize {
        let list = self.ensure_mut(idx);
        let before = list.len();
        list.retain(|(c, _)| *c != conn);
        before - list.len()
    }
}

/// The registry of watches plus per-connection pending event queues.
///
/// Watches are keyed by the *store's* interned path symbols (no second
/// interner): a mutation arrives as a symbol and hops parent symbols
/// with plain array indexing — no hashing, no string traffic — and a
/// fired event costs two refcount bumps (path + token) instead of two
/// string clones. The *charged* cost still counts every registered
/// watch (what xenstored pays), reported via [`FireStats::checked`].
#[derive(Clone, Default, Debug)]
pub struct WatchTable {
    /// Watch lists, indexed by store symbol (CoW-chunked; most slots
    /// are empty ancestor entries).
    by_sym: SymWatches,
    count: usize,
    /// `(conn, sym)` for every symbol whose list holds an entry of
    /// `conn`: dropping a connection visits only its own lists instead
    /// of every interned symbol. Pruned on unregister, so it is bounded
    /// by the live watches (a booted guest holds one pair).
    watched: BTreeSet<(u32, XsSym)>,
    pending: BTreeMap<u32, VecDeque<WatchEvent>>,
}

/// Outcome of checking a mutation against the table (for cost charging).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FireStats {
    /// Watches examined (every registered watch).
    pub checked: usize,
    /// Events queued.
    pub fired: usize,
}

impl WatchTable {
    /// Creates an empty table.
    pub fn new() -> WatchTable {
        WatchTable::default()
    }

    /// Number of registered watches.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Registers a watch on an interned path. As in xenstored, an
    /// initial event for the watch path itself is queued immediately so
    /// the client can synchronise.
    pub fn register(&mut self, store: &Store, conn: u32, sym: XsSym, token: impl Into<Arc<str>>) {
        let token = token.into();
        self.pending.entry(conn).or_default().push_back(WatchEvent {
            path: store.path_of(sym),
            token: token.clone(),
        });
        self.by_sym.ensure_mut(sym.index()).push((conn, token));
        self.watched.insert((conn, sym));
        self.count += 1;
    }

    /// Unregisters a watch by (connection, path, token). Returns true if
    /// one was removed.
    pub fn unregister(&mut self, store: &Store, conn: u32, path: &XsPath, token: &str) -> bool {
        let Some(sym) = store.resolve(path.as_str()) else {
            return false;
        };
        self.unregister_sym(conn, sym, token)
    }

    /// [`WatchTable::unregister`] on an interned symbol. A symbol that was
    /// never watched (or whose watch was already removed) is a no-op
    /// returning false — the table is never corrupted by a double
    /// unregister.
    pub fn unregister_sym(&mut self, conn: u32, sym: XsSym, token: &str) -> bool {
        // Read-only miss check first, so a no-op unregister never
        // copies a fork-shared chunk.
        match self.by_sym.get(sym.index()) {
            Some(list) if list.iter().any(|(c, t)| *c == conn && &**t == token) => {}
            _ => return false,
        }
        let list = self.by_sym.ensure_mut(sym.index());
        let before = list.len();
        list.retain(|(c, t)| !(*c == conn && &**t == token));
        let removed = before - list.len();
        if !list.iter().any(|(c, _)| *c == conn) {
            self.watched.remove(&(conn, sym));
        }
        self.count -= removed;
        removed > 0
    }

    /// The symbols `conn` holds at least one watch on, ascending.
    pub fn watched_by(&self, conn: u32) -> impl Iterator<Item = XsSym> + '_ {
        self.watched
            .range((conn, XsSym::ROOT)..)
            .take_while(move |&&(c, _)| c == conn)
            .map(|&(_, sym)| sym)
    }

    /// Iterates `(conn, queued events)` over every connection with a
    /// non-empty pending queue, in ascending connection order (the map
    /// is ordered — deterministic for digesting).
    pub fn pending_counts(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.pending
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&conn, q)| (conn, q.len()))
    }

    /// Drops all watches and pending events of a connection (domain
    /// death). O(the connection's own watches), through the
    /// per-connection index.
    pub fn drop_conn(&mut self, conn: u32) {
        while let Some(&(_, sym)) = self
            .watched
            .range((conn, XsSym::ROOT)..)
            .next()
            .filter(|(c, _)| *c == conn)
        {
            self.watched.remove(&(conn, sym));
            self.count -= self.by_sym.remove_conn_at(sym.index(), conn);
        }
        self.pending.remove(&conn);
    }

    /// Records that the node at `sym` was mutated, queueing events for
    /// every watch on it or one of its ancestors.
    ///
    /// The walk is pure parent-symbol hopping (array indexing). The
    /// event path is materialised once per *fired* event as a refcount
    /// bump on the interner's `Arc`; a mutation that fires nothing
    /// allocates nothing.
    pub fn note_mutation_sym(&mut self, store: &Store, sym: XsSym) -> FireStats {
        if self.count == 0 {
            return FireStats { checked: 0, fired: 0 };
        }
        let mut fired = 0;
        let mut cur = sym;
        loop {
            if let Some(list) = self.by_sym.get(cur.index()) {
                if !list.is_empty() {
                    let path = store.path_of(sym);
                    for (conn, token) in list {
                        self.pending
                            .entry(*conn)
                            .or_default()
                            .push_back(WatchEvent {
                                path: path.clone(),
                                token: token.clone(),
                            });
                        fired += 1;
                    }
                }
            }
            if cur == XsSym::ROOT {
                break;
            }
            cur = store.parent_sym(cur);
        }
        FireStats {
            checked: self.count,
            fired,
        }
    }

    /// Takes all pending events for a connection, in FIFO order.
    /// Allocates the returned `Vec`; the hot paths use
    /// [`WatchTable::take_events_into`] or [`WatchTable::drain_events`].
    pub fn take_events(&mut self, conn: u32) -> Vec<WatchEvent> {
        self.pending
            .get_mut(&conn)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default()
    }

    /// Moves all pending events for a connection into `out` (cleared
    /// first), in FIFO order. Reuses `out`'s capacity: zero allocations
    /// in steady state.
    pub fn take_events_into(&mut self, conn: u32, out: &mut Vec<WatchEvent>) {
        out.clear();
        if let Some(q) = self.pending.get_mut(&conn) {
            out.extend(q.drain(..));
        }
    }

    /// Discards all pending events for a connection, returning how many
    /// there were. For callers that only need the count (and the charge).
    pub fn drain_events(&mut self, conn: u32) -> usize {
        match self.pending.get_mut(&conn) {
            Some(q) => {
                let n = q.len();
                q.clear();
                n
            }
            None => 0,
        }
    }

    /// Number of events pending for a connection.
    pub fn pending_count(&self, conn: u32) -> usize {
        self.pending.get(&conn).map(VecDeque::len).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> XsPath {
        XsPath::parse(s).unwrap()
    }

    /// A store plus helpers: watches register on interned symbols.
    fn store() -> Store {
        Store::new()
    }

    fn sym(s: &Store, path: &str) -> XsSym {
        s.sym(&p(path))
    }

    #[test]
    fn registration_fires_initial_event() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a"), "tok");
        assert_eq!(
            t.take_events(1),
            vec![WatchEvent {
                path: p("/a"),
                token: "tok".into()
            }]
        );
        assert!(t.take_events(1).is_empty());
    }

    #[test]
    fn mutation_fires_matching_watches_only() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a"), "a");
        t.register(&s, 2, sym(&s, "/b"), "b");
        t.take_events(1);
        t.take_events(2);
        let stats = t.note_mutation_sym(&s, sym(&s, "/a/x"));
        assert_eq!(stats.checked, 2);
        assert_eq!(stats.fired, 1);
        assert_eq!(t.pending_count(1), 1);
        assert_eq!(t.pending_count(2), 0);
        let ev = t.take_events(1);
        assert_eq!(ev[0].path, p("/a/x"));
        assert_eq!(&*ev[0].token, "a");
    }

    #[test]
    fn watch_on_exact_path_fires() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a/b"), "t");
        t.take_events(1);
        assert_eq!(t.note_mutation_sym(&s, sym(&s, "/a/b")).fired, 1);
        assert_eq!(t.note_mutation_sym(&s, sym(&s, "/a")).fired, 0);
    }

    #[test]
    fn unregister_removes_watch() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a"), "t");
        t.take_events(1);
        assert!(t.unregister(&s, 1, &p("/a"), "t"));
        assert!(!t.unregister(&s, 1, &p("/a"), "t"));
        assert_eq!(t.note_mutation_sym(&s, sym(&s, "/a/x")).fired, 0);
    }

    #[test]
    fn unregister_of_never_watched_path_is_false() {
        let s = store();
        let mut t = WatchTable::new();
        assert!(!t.unregister(&s, 1, &p("/never"), "t"));
    }

    #[test]
    fn unregister_sym_is_noop_on_unknown_and_exact_on_known() {
        let s = store();
        let mut t = WatchTable::new();
        let a = sym(&s, "/a");
        // Never registered: clean no-op, count untouched.
        assert!(!t.unregister_sym(1, a, "t"));
        assert_eq!(t.count(), 0);
        t.register(&s, 1, a, "t");
        t.register(&s, 2, a, "t");
        // Wrong token / wrong conn leave the other entries intact.
        assert!(!t.unregister_sym(1, a, "other"));
        assert!(t.unregister_sym(1, a, "t"));
        assert_eq!(t.count(), 1, "conn 2's watch survives");
        // Double unregister after the fact: no-op, no corruption.
        assert!(!t.unregister_sym(1, a, "t"));
        assert_eq!(t.count(), 1);
        assert_eq!(t.note_mutation_sym(&s, sym(&s, "/a/x")).fired, 1);
    }

    #[test]
    fn drop_conn_clears_everything() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a"), "t");
        t.register(&s, 2, sym(&s, "/a"), "u");
        t.note_mutation_sym(&s, sym(&s, "/a"));
        t.drop_conn(1);
        assert_eq!(t.count(), 1);
        assert_eq!(t.pending_count(1), 0);
        assert!(t.pending_count(2) > 0);
    }

    #[test]
    fn multiple_watches_same_conn_all_fire() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a"), "t1");
        t.register(&s, 1, sym(&s, "/a/b"), "t2");
        t.take_events(1);
        let stats = t.note_mutation_sym(&s, sym(&s, "/a/b/c"));
        assert_eq!(stats.fired, 2);
        let evs = t.take_events(1);
        assert_eq!(evs.len(), 2);
        // Deepest watch first (the symbol walk goes child -> root).
        assert_eq!(&*evs[0].token, "t2");
        assert_eq!(&*evs[1].token, "t1");
    }

    #[test]
    fn take_events_into_reuses_buffer_without_loss_or_dup() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a"), "t");
        let mut buf = Vec::new();
        t.take_events_into(1, &mut buf);
        assert_eq!(buf.len(), 1, "initial sync event");
        t.note_mutation_sym(&s, sym(&s, "/a/x"));
        t.note_mutation_sym(&s, sym(&s, "/a/y"));
        t.take_events_into(1, &mut buf);
        assert_eq!(buf.len(), 2, "old contents cleared, new delivered once");
        assert_eq!(buf[0].path, p("/a/x"));
        assert_eq!(buf[1].path, p("/a/y"));
        t.take_events_into(1, &mut buf);
        assert!(buf.is_empty(), "nothing pending, nothing re-delivered");
    }

    #[test]
    fn drain_events_counts_and_clears() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a"), "t");
        assert_eq!(t.drain_events(1), 1);
        assert_eq!(t.drain_events(1), 0);
        assert_eq!(t.drain_events(99), 0);
    }
}
