//! The hierarchical store, flattened over interned path symbols.
//!
//! This is the pure data structure: nodes with values, owners and
//! per-node modification generations (used by transaction conflict
//! detection). All protocol and cost concerns live in
//! [`crate::xenstored`].
//!
//! Nodes live in one flat slot arena addressed through a symbol→slot
//! map; the tree shape is the interner's parent links plus each node's
//! sibling chain. A lookup is one O(1) symbol resolution on the full
//! path string followed by two array indexes — no per-component map
//! walk, no hashing beyond the single resolve — and interior operations
//! (transaction replay, ancestor checks) work on copyable `u32` symbols
//! with no string traffic at all. Symbols are append-only — removing a
//! node never retires its symbol, so transactions and watches can hold
//! symbols across removals and recreations — but the *slot* behind a
//! removed node goes onto a free list and is recycled by the next
//! insert, whatever its symbol. That keeps arena capacity O(peak live
//! nodes) under create/destroy churn instead of O(total creates)
//! (churned guests get fresh domids, hence fresh symbols, forever);
//! [`Store::census`] exposes the occupancy for the churn suite's leak
//! gates.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use simcore::ChunkVec;

use crate::hash::Mix128;
use crate::ldsummary::{LocalDomainSummary, NameVal};
use crate::path::XsPath;
use crate::sym::{Interner, XsSym};

/// Errors mirroring the errno values xenstored returns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum XsError {
    /// `ENOENT`: path does not exist.
    NotFound,
    /// `EEXIST`: node already exists (mkdir of existing path).
    AlreadyExists,
    /// `EINVAL`: malformed path or argument.
    Invalid,
    /// `EACCES`: permission denied.
    PermissionDenied,
    /// `EAGAIN`: transaction conflict, caller must retry.
    Again,
    /// Unknown transaction id.
    NoSuchTxn,
    /// `ENOSPC`: the domain exceeded its node quota (xenstored's
    /// `quota-max-entity`; protects the store from guest DoS).
    QuotaExceeded,
}

impl fmt::Display for XsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            XsError::NotFound => "ENOENT",
            XsError::AlreadyExists => "EEXIST",
            XsError::Invalid => "EINVAL",
            XsError::PermissionDenied => "EACCES",
            XsError::Again => "EAGAIN",
            XsError::NoSuchTxn => "no such transaction",
            XsError::QuotaExceeded => "ENOSPC (node quota)",
        };
        f.write_str(s)
    }
}

impl std::error::Error for XsError {}

/// Node permissions: an owning domain plus world access bits.
///
/// This is a simplification of Xen's ACL lists that preserves what the
/// control plane relies on: Dom0 can do anything, a guest can touch its
/// own subtree, and backends can share selected nodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Perms {
    /// Owning domain (full access).
    pub owner: u32,
    /// Whether any domain may read.
    pub others_read: bool,
    /// Whether any domain may write.
    pub others_write: bool,
}

impl Perms {
    /// Dom0-owned, world-readable (the default for toolstack entries).
    pub fn dom0() -> Perms {
        Perms {
            owner: 0,
            others_read: true,
            others_write: false,
        }
    }

    /// Owned by `dom`, private.
    pub fn private(dom: u32) -> Perms {
        Perms {
            owner: dom,
            others_read: false,
            others_write: false,
        }
    }

    /// True if `dom` may read under these permissions.
    pub fn may_read(&self, dom: u32) -> bool {
        dom == 0 || dom == self.owner || self.others_read
    }

    /// True if `dom` may write under these permissions.
    pub fn may_write(&self, dom: u32) -> bool {
        dom == 0 || dom == self.owner || self.others_write
    }
}

#[derive(Clone, Debug)]
struct Node {
    /// Shared immutable payload: a read hands out a refcount bump, never
    /// a byte copy. A write replaces the `Arc` (or, when it is the sole
    /// owner and the length matches, overwrites in place) — snapshots
    /// held by readers and transaction overlays are never mutated.
    value: Arc<[u8]>,
    perms: Perms,
    generation: u64,
    /// Head of this node's child list — an intrusive doubly linked
    /// chain threaded through the child slots, in insertion order.
    /// Linking a child is an O(1) tail append and unlinking one is O(1)
    /// through its `prev_sibling`; neither allocates. Listings sort at
    /// read time (directories are read far less often than children are
    /// created on the density hot path). Links are bare symbols with
    /// [`NIL`] for "none", so the four of them pack into 16 bytes.
    first_child: XsSym,
    /// Tail of the child chain, for O(1) append.
    last_child: XsSym,
    /// Next sibling in the parent's child chain.
    next_sibling: XsSym,
    /// Previous sibling in the parent's child chain.
    prev_sibling: XsSym,
}

/// The "no link" sentinel in [`Node`]'s chain fields. The root is never
/// anyone's child or sibling, so its symbol is free to mean "none".
const NIL: XsSym = XsSym::ROOT;

/// A chain link as an `Option` (`NIL` → `None`).
#[inline]
fn link(s: XsSym) -> Option<XsSym> {
    (s != NIL).then_some(s)
}

impl Node {
    fn new(empty: &Arc<[u8]>, perms: Perms, generation: u64) -> Node {
        Node {
            value: empty.clone(),
            perms,
            generation,
            first_child: NIL,
            last_child: NIL,
            next_sibling: NIL,
            prev_sibling: NIL,
        }
    }

    #[inline]
    fn first_child(&self) -> Option<XsSym> {
        link(self.first_child)
    }

    #[inline]
    fn next_sibling(&self) -> Option<XsSym> {
        link(self.next_sibling)
    }
}

/// Stores `value` into `slot` without allocating when avoidable: empty
/// values share the store-wide empty buffer, and a same-length value
/// overwrites in place when `slot` is unaliased (refcount 1). Aliased
/// slots — a reader or overlay still holds the old `Arc` — always get a
/// fresh allocation, preserving snapshot immutability.
fn set_value(empty: &Arc<[u8]>, slot: &mut Arc<[u8]>, value: &[u8]) {
    if value.is_empty() {
        *slot = empty.clone();
        return;
    }
    if let Some(buf) = Arc::get_mut(slot) {
        if buf.len() == value.len() {
            buf.copy_from_slice(value);
            return;
        }
    }
    *slot = Arc::from(value);
}

/// Payloads the toolstack writes over and over (xenbus states, boolean
/// flags, lifecycle markers). The store keeps one shared `Arc` per entry
/// so writing any of these is a refcount bump, never an allocation.
const CONST_VALS: &[&[u8]] = &[
    b"0",
    b"1",
    b"2",
    b"3",
    b"4",
    b"5",
    b"6",
    b"mem",
    b"max",
    b"online",
    b"linux",
    b"kernel",
    b"done",
    b"suspend",
    b"0000-0000",
];

/// Sentinel in `Store::slot_of`: the symbol has no live node.
const NO_SLOT: u32 = u32::MAX;

/// A path component parsed as `u32`, if it is one — the predicate xl's
/// unique-name scan keys on (so "007" and "+5" count; "tools" does not).
fn numeric_name(name: &str) -> Option<u32> {
    name.parse().ok()
}

/// What a node is to xl's unique-name scan (see [`LocalDomainSummary`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum LdRole {
    /// Neither listed nor read by the scan.
    Unread,
    /// A child of `/local/domain`; `Some(name length)` when numeric.
    Child(Option<u64>),
    /// The `name` node of a numeric child of `/local/domain`.
    Name,
}

/// Arena-occupancy snapshot — the churn suite's per-world leak
/// instrument. Two worlds holding the same population must report
/// identical censuses; under churn, `capacity` must plateau at the peak
/// live population and `interned_syms` once the canonical shape set has
/// been seen. The invariant `live + free == capacity` always holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreCensus {
    /// Live nodes, root included (equals [`Store::node_count`]).
    pub live: usize,
    /// Arena slots allocated, live or recycled — the plateau quantity.
    pub capacity: usize,
    /// Recycled slots awaiting reuse.
    pub free: usize,
    /// Interned path symbols (append-only by design; growth past the
    /// canonical shape set is the PR 8 interner-bloat class of leak).
    pub interned_syms: usize,
}

/// A value source for [`Store::write_val_sym`]: raw bytes (copied into
/// the node's buffer) or an already-shared payload (refcount bump only —
/// the transaction-commit path).
pub(crate) enum ValSrc<'a> {
    Bytes(&'a [u8]),
    Shared(&'a Arc<[u8]>),
}

impl ValSrc<'_> {
    fn assign(&self, empty: &Arc<[u8]>, slot: &mut Arc<[u8]>) {
        match self {
            ValSrc::Bytes(b) => set_value(empty, slot, b),
            ValSrc::Shared(rc) => *slot = Arc::clone(rc),
        }
    }
}

/// The store tree.
#[derive(Clone, Debug)]
pub struct Store {
    /// Path symbols. Interior mutability so read-only operations
    /// (`&self`) can still intern paths they encounter; borrows are
    /// short-scoped and never escape a method.
    interner: RefCell<Interner>,
    /// The shared empty value; every empty node clones this `Arc` instead
    /// of allocating.
    empty: Arc<[u8]>,
    /// Pre-built payloads for [`CONST_VALS`], index-aligned.
    consts: Arc<[Arc<[u8]>]>,
    /// Lazily grown shared payloads for short decimal strings (domids,
    /// device ids, ports, ring refs), indexed by numeric value: each
    /// distinct value allocates once per store lifetime, after which
    /// every write of it is a refcount bump. Interior mutability so
    /// read-side value wrapping (`&self`) can populate it.
    digit_cache: RefCell<ChunkVec<Option<Arc<[u8]>>>>,
    /// Reusable ancestor-chain buffer for the node-creating write path.
    chain_scratch: Vec<XsSym>,
    /// Node slot arena, addressed through `slot_of`; `None` = a recycled
    /// hole awaiting reuse (listed in `free_slots`) or a slot past
    /// `arena_len`.
    nodes: ChunkVec<Option<Node>>,
    /// Slots handed out so far, live or recycled.
    arena_len: usize,
    /// Cached Merkle digests of each slot's subtree (DESIGN.md §6h), kept
    /// beside the arena so its chunks hold only plain data. `0` = dirty
    /// ([`Store::node_hash`] never produces 0). Forks inherit warm
    /// entries (the cache is a pure function of digested state), and an
    /// invalidation or recompute copies only the chunk it writes.
    /// Interior mutability so the `&self` digest walk can fill it;
    /// borrows are short-scoped and never escape a method.
    hash_cache: RefCell<ChunkVec<u128>>,
    /// Symbol → slot map (`NO_SLOT` = no node at that path). Grows
    /// append-only with the interner; the slots it points into are
    /// recycled, which is what keeps `nodes` at O(peak live) under
    /// churn.
    slot_of: ChunkVec<u32>,
    /// Recycled slots, reused LIFO by [`Store::insert_node`].
    free_slots: Vec<u32>,
    node_count: usize,
    generation: u64,
    /// Nodes owned per domain, by domid (Dom0 exempt from quota).
    owned: ChunkVec<usize>,
    /// Per-domain node quota (None = unlimited).
    quota: Option<usize>,
    /// `/local/domain`, interned at construction.
    local_domain: XsSym,
    /// What xl's unique-name scan would read from `/local/domain`,
    /// updated wherever a node is created, assigned or removed.
    ld_summary: LocalDomainSummary,
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

impl Store {
    /// Creates a store containing only the root node.
    pub fn new() -> Store {
        let empty: Arc<[u8]> = Arc::from(&b""[..]);
        let mut nodes = ChunkVec::new(None);
        *nodes.get_mut(0) = Some(Node::new(&empty, Perms::dom0(), 0));
        let mut slot_of = ChunkVec::new(NO_SLOT);
        *slot_of.get_mut(0) = 0;
        let mut interner = Interner::new();
        let local_domain = interner.intern("/local/domain");
        Store {
            interner: RefCell::new(interner),
            nodes,
            arena_len: 1,
            hash_cache: RefCell::new(ChunkVec::new(0)),
            slot_of,
            free_slots: Vec::new(),
            empty,
            consts: CONST_VALS.iter().map(|&v| Arc::from(v)).collect(),
            digit_cache: RefCell::new(ChunkVec::new(None)),
            chain_scratch: Vec::new(),
            node_count: 1,
            generation: 0,
            owned: ChunkVec::new(0),
            quota: None,
            local_domain,
            ld_summary: LocalDomainSummary::default(),
        }
    }

    /// Sets the per-domain node quota (xenstored's `quota-max-entity`,
    /// default 1000 in real deployments). Dom0 is exempt.
    pub fn set_quota(&mut self, quota: Option<usize>) {
        self.quota = quota;
    }

    /// Nodes currently owned by a domain.
    pub fn owned_by(&self, dom: u32) -> usize {
        *self.owned.get(dom as usize)
    }

    /// Number of nodes including the root.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Global modification generation (bumped on every mutation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Arena and interner occupancy (see [`StoreCensus`]). Pure read;
    /// the churn suite compares censuses between matching checkpoints
    /// to catch monotone resource drift.
    pub fn census(&self) -> StoreCensus {
        debug_assert_eq!(self.node_count + self.free_slots.len(), self.arena_len);
        StoreCensus {
            live: self.node_count,
            capacity: self.arena_len,
            free: self.free_slots.len(),
            interned_syms: self.interner.borrow().len(),
        }
    }

    // --- symbol plumbing --------------------------------------------------

    /// Interns a path (and its ancestors), returning its symbol.
    pub fn sym(&self, path: &XsPath) -> XsSym {
        self.interner.borrow_mut().intern(path.as_str())
    }

    /// Resolves a path string without interning it.
    pub(crate) fn resolve(&self, path: &str) -> Option<XsSym> {
        self.interner.borrow().resolve(path)
    }

    /// Materialises a symbol back into a path (refcount bump, no copy).
    pub fn path_of(&self, sym: XsSym) -> XsPath {
        XsPath::from_interned(self.interner.borrow().path_arc(sym).clone())
    }

    /// The parent symbol; the root's parent is the root.
    pub(crate) fn parent_sym(&self, sym: XsSym) -> XsSym {
        self.interner.borrow().parent(sym)
    }

    /// True if `a` equals `b` or lies below it (symbol hops only).
    pub(crate) fn sym_is_self_or_descendant(&self, a: XsSym, b: XsSym) -> bool {
        self.interner.borrow().is_self_or_descendant_of(a, b)
    }

    /// Resolves a child of `sym` by name, if ever interned. Zero
    /// allocations (interner scratch buffer).
    pub(crate) fn resolve_child(&self, sym: XsSym, name: &str) -> Option<XsSym> {
        self.interner.borrow_mut().resolve_child(sym, name)
    }

    /// Interns the child `<sym>/<name>` by symbol composition (one hash
    /// probe, no allocation when already known).
    pub(crate) fn child_sym(&self, sym: XsSym, name: &str) -> XsSym {
        self.interner.borrow_mut().child(sym, name)
    }

    /// [`Store::child_sym`] with a numeric component.
    pub(crate) fn child_u32_sym(&self, sym: XsSym, n: u32) -> XsSym {
        self.interner.borrow_mut().child_u32(sym, n)
    }

    /// Non-interning numeric child lookup: `None` when `<sym>/<n>` was
    /// never interned. Read paths that probe for dirs which may not
    /// exist use this — [`Store::child_u32_sym`] would permanently grow
    /// the interner (and every future world clone) per miss.
    pub(crate) fn resolve_child_u32_sym(&self, sym: XsSym, n: u32) -> Option<XsSym> {
        self.interner.borrow_mut().resolve_child_u32(sym, n)
    }

    /// Byte length of a symbol's full path (for wire-payload charging).
    pub(crate) fn path_len(&self, sym: XsSym) -> usize {
        self.interner.borrow().path_str(sym).len()
    }

    /// The symbol's final path component parsed as `u32`, if it is one.
    pub(crate) fn sym_name_u32(&self, sym: XsSym) -> Option<u32> {
        numeric_name(self.interner.borrow().name(sym))
    }

    /// `/local/domain` (interned by [`Store::new`]).
    pub(crate) fn local_domain_sym(&self) -> XsSym {
        self.local_domain
    }

    /// Sorts symbols by their full path string — the same order the
    /// path-keyed code produced by sorting `Vec<XsPath>` (determinism:
    /// the transaction-interference victim draw depends on it).
    pub(crate) fn sort_syms_by_path(&self, syms: &mut [XsSym]) {
        let interner = self.interner.borrow();
        syms.sort_unstable_by(|&a, &b| interner.path_str(a).cmp(interner.path_str(b)));
    }

    /// Sorts sibling symbols by their final path component — the order
    /// directory listings present (allocation-free; in-place sort).
    pub(crate) fn sort_syms_by_name(&self, syms: &mut [XsSym]) {
        let interner = self.interner.borrow();
        syms.sort_unstable_by(|&a, &b| interner.name(a).cmp(interner.name(b)));
    }

    /// Resolves a symbol to its live arena slot, if any.
    #[inline]
    fn slot(&self, sym: XsSym) -> Option<usize> {
        match *self.slot_of.get(sym.index()) {
            NO_SLOT => None,
            s => Some(s as usize),
        }
    }

    fn node(&self, sym: XsSym) -> Option<&Node> {
        self.nodes.get(self.slot(sym)?).as_ref()
    }

    fn node_mut(&mut self, sym: XsSym) -> Option<&mut Node> {
        let slot = self.slot(sym)?;
        self.nodes.get_mut(slot).as_mut()
    }

    /// Installs a node for `sym`, reusing a recycled slot when one is
    /// free (LIFO) and growing the arena only past the live+free peak.
    fn insert_node(&mut self, sym: XsSym, node: Node) {
        let idx = sym.index();
        debug_assert_eq!(*self.slot_of.get(idx), NO_SLOT, "insert over a live node");
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.arena_len += 1;
            (self.arena_len - 1) as u32
        });
        let cell = self.nodes.get_mut(slot as usize);
        debug_assert!(cell.is_none(), "free slot was live");
        *cell = Some(node);
        // A recycled slot may still carry the previous occupant's cached
        // digest; the new node starts dirty. (Fresh slots read as dirty
        // already — the cache grows lazily.)
        {
            let mut cache = self.hash_cache.borrow_mut();
            if *cache.get(slot as usize) != 0 {
                *cache.get_mut(slot as usize) = 0;
            }
        }
        *self.slot_of.get_mut(idx) = slot;
    }

    /// Appends `child` to `parent`'s child chain. O(1), allocation-free:
    /// the sibling links live in the node slots themselves. Only called
    /// for freshly inserted nodes, so the child cannot already be linked.
    fn link_child(&mut self, parent: XsSym, child: XsSym) {
        let tail = {
            let p = self.node_mut(parent).expect("parent exists");
            let tail = std::mem::replace(&mut p.last_child, child);
            if tail == NIL {
                p.first_child = child;
            }
            tail
        };
        if tail != NIL {
            self.node_mut(tail).expect("tail sibling exists").next_sibling = child;
            self.node_mut(child).expect("child exists").prev_sibling = tail;
        }
    }

    /// Removes `child` from `parent`'s child chain. O(1): the child's
    /// own links name both neighbours, so a directory with a thousand
    /// entries unlinks any of them without walking the chain. The child
    /// slot must still be live, and — as for every live non-root node —
    /// linked under `parent`.
    fn unlink_child(&mut self, parent: XsSym, child: XsSym) {
        let (prev, next) = {
            let c = self.node(child).expect("unlinked child is live");
            (c.prev_sibling, c.next_sibling)
        };
        match link(prev) {
            None => self.node_mut(parent).expect("parent exists").first_child = next,
            Some(p) => self.node_mut(p).expect("sibling exists").next_sibling = next,
        }
        match link(next) {
            None => self.node_mut(parent).expect("parent exists").last_child = prev,
            Some(n) => self.node_mut(n).expect("sibling exists").prev_sibling = prev,
        }
    }

    pub(crate) fn exists_sym(&self, sym: XsSym) -> bool {
        self.node(sym).is_some()
    }

    pub(crate) fn node_generation_sym(&self, sym: XsSym) -> Option<u64> {
        self.node(sym).map(|n| n.generation)
    }

    // --- public path-keyed API -------------------------------------------

    /// True if the path exists.
    pub fn exists(&self, path: &XsPath) -> bool {
        match self.resolve(path.as_str()) {
            Some(sym) => self.exists_sym(sym),
            None => false,
        }
    }

    /// Modification generation of a node, `None` if absent.
    pub fn node_generation(&self, path: &XsPath) -> Option<u64> {
        self.resolve(path.as_str())
            .and_then(|sym| self.node_generation_sym(sym))
    }

    /// Reads a node's value as bytes.
    pub fn read(&self, dom: u32, path: &XsPath) -> Result<&[u8], XsError> {
        let sym = self.resolve(path.as_str()).ok_or(XsError::NotFound)?;
        self.read_sym(dom, sym)
    }

    pub(crate) fn read_sym(&self, dom: u32, sym: XsSym) -> Result<&[u8], XsError> {
        let node = self.node(sym).ok_or(XsError::NotFound)?;
        if !node.perms.may_read(dom) {
            return Err(XsError::PermissionDenied);
        }
        Ok(&node.value)
    }

    /// Reads a node's value as a shared payload — a refcount bump, not a
    /// byte copy. The snapshot stays stable even if the node is written
    /// or removed afterwards.
    pub fn read_rc(&self, dom: u32, path: &XsPath) -> Result<Arc<[u8]>, XsError> {
        let sym = self.resolve(path.as_str()).ok_or(XsError::NotFound)?;
        self.read_rc_sym(dom, sym)
    }

    pub(crate) fn read_rc_sym(&self, dom: u32, sym: XsSym) -> Result<Arc<[u8]>, XsError> {
        let node = self.node(sym).ok_or(XsError::NotFound)?;
        if !node.perms.may_read(dom) {
            return Err(XsError::PermissionDenied);
        }
        Ok(Arc::clone(&node.value))
    }

    /// Wraps `value` as a shareable payload (the store-wide empty buffer
    /// when empty — no allocation).
    pub(crate) fn rc_value(&self, value: &[u8]) -> Arc<[u8]> {
        if value.is_empty() {
            self.empty.clone()
        } else if let Some(rc) = self.shared_const(value) {
            rc
        } else {
            Arc::from(value)
        }
    }

    /// A pre-built shared payload for a known-constant value or a short
    /// decimal string, if any. The constant scan is a handful of short
    /// byte compares and the digit probe a table index — far cheaper
    /// than the allocation they avoid, and a cheap miss otherwise.
    fn shared_const(&self, value: &[u8]) -> Option<Arc<[u8]>> {
        if value.len() > 9 {
            return None;
        }
        if let Some(i) = CONST_VALS.iter().position(|&c| c == value) {
            return Some(Arc::clone(&self.consts[i]));
        }
        // Canonical (no leading zero) decimal strings up to 4 digits:
        // the cache is keyed by numeric value, so "07" must not hit the
        // "7" entry.
        if value.is_empty()
            || value.len() > 4
            || value[0] == b'0'
            || !value.iter().all(|b| b.is_ascii_digit())
        {
            return None;
        }
        let n = value.iter().fold(0usize, |acc, &b| acc * 10 + (b - b'0') as usize);
        let mut cache = self.digit_cache.borrow_mut();
        if let Some(v) = cache.get(n) {
            return Some(Arc::clone(v));
        }
        Some(Arc::clone(cache.get_mut(n).insert(Arc::from(value))))
    }

    /// The store-wide shared empty payload.
    pub(crate) fn empty_rc(&self) -> Arc<[u8]> {
        self.empty.clone()
    }

    /// Reads a node's value as UTF-8 (lossy values are an error).
    pub fn read_str(&self, dom: u32, path: &XsPath) -> Result<&str, XsError> {
        std::str::from_utf8(self.read(dom, path)?).map_err(|_| XsError::Invalid)
    }

    /// Writes `value` to `path`, creating the node and any missing parents
    /// (xenstored semantics). New nodes are owned by `dom`.
    pub fn write(&mut self, dom: u32, path: &XsPath, value: &[u8]) -> Result<(), XsError> {
        if path.depth() == 0 {
            return Err(XsError::Invalid);
        }
        let sym = self.sym(path);
        self.write_sym(dom, sym, value)
    }

    pub(crate) fn write_sym(&mut self, dom: u32, sym: XsSym, value: &[u8]) -> Result<(), XsError> {
        self.write_val_sym(dom, sym, ValSrc::Bytes(value))
    }

    /// Writes an already-shared payload (transaction commit, ambient
    /// interference): the node adopts the `Arc` — no byte copy.
    pub(crate) fn write_rc_sym(
        &mut self,
        dom: u32,
        sym: XsSym,
        value: &Arc<[u8]>,
    ) -> Result<(), XsError> {
        self.write_val_sym(dom, sym, ValSrc::Shared(value))
    }

    pub(crate) fn write_val_sym(
        &mut self,
        dom: u32,
        sym: XsSym,
        value: ValSrc<'_>,
    ) -> Result<(), XsError> {
        if sym == XsSym::ROOT {
            return Err(XsError::Invalid);
        }
        // Known-constant payloads become refcount bumps of the shared
        // pool entry instead of fresh buffers.
        let const_rc = match &value {
            ValSrc::Bytes(b) if !b.is_empty() => self.shared_const(b),
            _ => None,
        };
        let value = match &const_rc {
            Some(rc) => ValSrc::Shared(rc),
            None => value,
        };
        // Fast path: the node exists, so all its ancestors do too and no
        // quota or parent checks apply — only the node's own write bit.
        // (The generation still bumps before a permission failure, as on
        // the slow path below.)
        if self.exists_sym(sym) {
            self.generation += 1;
            return self.assign_sym(dom, sym, &value, self.generation);
        }
        // Slow path: build the root-exclusive ancestor chain (top-down)
        // in the reusable scratch buffer so steady-state node creation
        // does not allocate.
        let mut chain = std::mem::take(&mut self.chain_scratch);
        chain.clear();
        chain.extend(self.interner.borrow().ancestors(sym));
        chain.pop(); // the root always exists
        chain.reverse();
        let res = self.write_chain_sym(dom, &chain, value);
        // Left empty, so a world fork copies nothing stale.
        chain.clear();
        self.chain_scratch = chain;
        res
    }

    /// Creates every missing node on `chain` (top-down, root excluded)
    /// and assigns `value` to the last one. Factored out of
    /// [`Store::write_val_sym`] so its early returns cannot leak the
    /// scratch chain buffer.
    fn write_chain_sym(
        &mut self,
        dom: u32,
        chain: &[XsSym],
        value: ValSrc<'_>,
    ) -> Result<(), XsError> {
        // Quota pre-check: every node this write would create must fit.
        if dom != 0 {
            if let Some(q) = self.quota {
                let have = *self.owned.get(dom as usize);
                let missing = chain.iter().filter(|&&s| !self.exists_sym(s)).count();
                if have + missing > q {
                    return Err(XsError::QuotaExceeded);
                }
            }
        }
        self.generation += 1;
        let generation = self.generation;
        let mut created = 0usize;
        let mut parent = XsSym::ROOT;
        for (i, &s) in chain.iter().enumerate() {
            let is_last = i + 1 == chain.len();
            if !self.exists_sym(s) {
                let parent_perms = self.node(parent).expect("parent exists").perms;
                if !parent_perms.may_write(dom) {
                    self.node_count += created;
                    return Err(XsError::PermissionDenied);
                }
                let perms = Perms {
                    owner: dom,
                    others_read: parent_perms.others_read,
                    others_write: false,
                };
                let empty = self.empty.clone();
                self.insert_node(s, Node::new(&empty, perms, generation));
                self.link_child(parent, s);
                match self.ld_role(s) {
                    LdRole::Unread => {}
                    LdRole::Child(numeric_len) => self.ld_summary.add_child(numeric_len),
                    LdRole::Name => self.ld_summary.add_name(NameVal::of(b"")),
                }
                // Restore the dirty-chain invariant (a fresh `None` cache
                // must not sit below a cached ancestor). The first hop
                // pays O(depth); siblings created next find the parent
                // already dirty and exit immediately.
                self.invalidate_hash_up(parent);
                created += 1;
            }
            if is_last {
                if let Err(e) = self.assign_sym(dom, s, &value, generation) {
                    // A permission failure on the final node can only
                    // happen when it already existed; implicitly created
                    // parents stay, as in xenstored.
                    self.node_count += created;
                    return Err(e);
                }
            }
            parent = s;
        }
        self.node_count += created;
        if dom != 0 && created > 0 {
            *self.owned.get_mut(dom as usize) += created;
        }
        Ok(())
    }

    /// Assigns `value` to the live node `sym` if `dom` may write it,
    /// stamping `generation` and keeping the digest cache and the
    /// `/local/domain` summary in step. Both write paths end here.
    fn assign_sym(
        &mut self,
        dom: u32,
        sym: XsSym,
        value: &ValSrc<'_>,
        generation: u64,
    ) -> Result<(), XsError> {
        let name_node = self.ld_role(sym) == LdRole::Name;
        let empty = self.empty.clone();
        let node = self.node_mut(sym).expect("assigned node is live");
        if !node.perms.may_write(dom) {
            return Err(XsError::PermissionDenied);
        }
        let old = name_node.then(|| NameVal::of(&node.value));
        value.assign(&empty, &mut node.value);
        node.generation = generation;
        if let Some(old) = old {
            let new = NameVal::of(&node.value);
            self.ld_summary.change_name(old, new);
        }
        self.invalidate_hash_up(sym);
        Ok(())
    }

    /// Creates an empty directory node.
    pub fn mkdir(&mut self, dom: u32, path: &XsPath) -> Result<(), XsError> {
        if self.exists(path) {
            return Err(XsError::AlreadyExists);
        }
        self.write(dom, path, b"")
    }

    /// Removes a node and its subtree.
    pub fn rm(&mut self, dom: u32, path: &XsPath) -> Result<(), XsError> {
        if path.depth() == 0 {
            return Err(XsError::Invalid);
        }
        let sym = self.resolve(path.as_str()).ok_or(XsError::NotFound)?;
        self.rm_sym(dom, sym)
    }

    pub(crate) fn rm_sym(&mut self, dom: u32, sym: XsSym) -> Result<(), XsError> {
        if sym == XsSym::ROOT {
            return Err(XsError::Invalid);
        }
        let target = self.node(sym).ok_or(XsError::NotFound)?;
        if !target.perms.may_write(dom) {
            return Err(XsError::PermissionDenied);
        }
        // Collect the subtree, tallying per-owner credits.
        let mut credits: BTreeMap<u32, usize> = BTreeMap::new();
        let mut doomed = Vec::new();
        let mut stack = vec![sym];
        while let Some(s) = stack.pop() {
            let node = self.node(s).expect("subtree nodes exist");
            *credits.entry(node.perms.owner).or_insert(0) += 1;
            let mut cur = node.first_child();
            while let Some(c) = cur {
                stack.push(c);
                cur = self.node(c).expect("linked child exists").next_sibling();
            }
            doomed.push(s);
        }
        let removed = doomed.len();
        let parent = self.parent_sym(sym);
        self.unlink_child(parent, sym);
        // Release the slots in DFS doom order (deterministic, so the
        // LIFO reuse order — and with it every later world byte — is a
        // pure function of the operation sequence).
        for s in doomed {
            let idx = s.index();
            let slot = *self.slot_of.get(idx);
            debug_assert_ne!(slot, NO_SLOT, "doomed node has a slot");
            match self.ld_role(s) {
                LdRole::Unread => {}
                LdRole::Child(numeric_len) => self.ld_summary.remove_child(numeric_len),
                LdRole::Name => {
                    let node = self.nodes.get(slot as usize).as_ref();
                    let node = node.expect("doomed node is live");
                    self.ld_summary.remove_name(NameVal::of(&node.value));
                }
            }
            *self.nodes.get_mut(slot as usize) = None;
            *self.slot_of.get_mut(idx) = NO_SLOT;
            self.free_slots.push(slot);
        }
        for (owner, n) in credits {
            if owner != 0 && *self.owned.get(owner as usize) > 0 {
                let c = self.owned.get_mut(owner as usize);
                *c = c.saturating_sub(n);
            }
        }
        self.generation += 1;
        let generation = self.generation;
        // The parent's generation changes: its child list was modified.
        self.node_mut(parent).expect("parent exists").generation = generation;
        self.node_count -= removed;
        self.invalidate_hash_up(parent);
        Ok(())
    }

    /// Lists the child names of a node, sorted.
    pub fn directory(&self, dom: u32, path: &XsPath) -> Result<Vec<String>, XsError> {
        let sym = self.resolve(path.as_str()).ok_or(XsError::NotFound)?;
        self.directory_sym(dom, sym)
    }

    pub(crate) fn directory_sym(&self, dom: u32, sym: XsSym) -> Result<Vec<String>, XsError> {
        let node = self.node(sym).ok_or(XsError::NotFound)?;
        if !node.perms.may_read(dom) {
            return Err(XsError::PermissionDenied);
        }
        // The child chain is in insertion order; sort the listing.
        let interner = self.interner.borrow();
        let mut out = Vec::new();
        let mut cur = node.first_child();
        while let Some(c) = cur {
            out.push(interner.name(c).to_string());
            cur = self.node(c).expect("linked child exists").next_sibling();
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Visits each child of a node as an interned symbol, in chain
    /// (insertion) order, returning the child count. The allocation-free
    /// counterpart of [`Store::directory`]; callers needing name order
    /// sort the collected symbols via [`Store::sort_syms_by_name`].
    pub(crate) fn for_each_child_sym(
        &self,
        dom: u32,
        sym: XsSym,
        mut f: impl FnMut(XsSym),
    ) -> Result<usize, XsError> {
        let node = self.node(sym).ok_or(XsError::NotFound)?;
        if !node.perms.may_read(dom) {
            return Err(XsError::PermissionDenied);
        }
        let mut count = 0;
        let mut cur = node.first_child();
        while let Some(c) = cur {
            f(c);
            count += 1;
            cur = self.node(c).expect("linked child exists").next_sibling();
        }
        Ok(count)
    }

    /// Reads a node's permissions.
    pub fn get_perms(&self, path: &XsPath) -> Result<Perms, XsError> {
        self.resolve(path.as_str())
            .and_then(|sym| self.node(sym))
            .map(|n| n.perms)
            .ok_or(XsError::NotFound)
    }

    /// Sets a node's permissions. Only Dom0 or the owner may do this.
    pub fn set_perms(&mut self, dom: u32, path: &XsPath, perms: Perms) -> Result<(), XsError> {
        let sym = self.sym(path);
        self.set_perms_sym(dom, sym, perms)
    }

    pub(crate) fn set_perms_sym(
        &mut self,
        dom: u32,
        sym: XsSym,
        perms: Perms,
    ) -> Result<(), XsError> {
        // As before the flattening: the global generation bumps even when
        // the lookup or permission check below fails.
        self.generation += 1;
        let generation = self.generation;
        let node = match self.node_mut(sym) {
            Some(n) => n,
            None => return Err(XsError::NotFound),
        };
        if dom != 0 && dom != node.perms.owner {
            return Err(XsError::PermissionDenied);
        }
        node.perms = perms;
        node.generation = generation;
        // Deliberately no hash invalidation: permissions (like
        // generations) are excluded from world digests — see DESIGN.md
        // §6h — so the Merkle cache stays warm across perms churn.
        Ok(())
    }

    // --- the `/local/domain` summary (DESIGN.md §6k) ---------------------

    /// What `sym` is to xl's unique-name scan: two parent hops and, for
    /// the few nodes near `/local/domain`, a name compare or parse.
    fn ld_role(&self, sym: XsSym) -> LdRole {
        let interner = self.interner.borrow();
        let parent = interner.parent(sym);
        if parent == self.local_domain {
            let name = interner.name(sym);
            return LdRole::Child(numeric_name(name).map(|_| name.len() as u64));
        }
        if interner.parent(parent) == self.local_domain
            && interner.name(sym) == "name"
            && numeric_name(interner.name(parent)).is_some()
        {
            return LdRole::Name;
        }
        LdRole::Unread
    }

    /// The incrementally maintained `/local/domain` summary: O(1).
    pub fn local_domain_summary(&self) -> &LocalDomainSummary {
        &self.ld_summary
    }

    /// The same summary recomputed from the tree — the differential
    /// oracle for [`Store::local_domain_summary`]. Walks the child
    /// chains only; interns nothing.
    pub fn local_domain_summary_recomputed(&self) -> LocalDomainSummary {
        let mut out = LocalDomainSummary::default();
        let Some(ld) = self.node(self.local_domain) else {
            return out;
        };
        let interner = self.interner.borrow();
        let mut cur = ld.first_child();
        while let Some(entry) = cur {
            let name = interner.name(entry);
            let numeric_len = numeric_name(name).map(|_| name.len() as u64);
            out.add_child(numeric_len);
            let node = self.node(entry).expect("linked child exists");
            if numeric_len.is_some() {
                let mut child = node.first_child();
                while let Some(c) = child {
                    let c_node = self.node(c).expect("linked child exists");
                    if interner.name(c) == "name" {
                        out.add_name(NameVal::of(&c_node.value));
                    }
                    child = c_node.next_sibling();
                }
            }
            cur = node.next_sibling();
        }
        out
    }

    // --- incremental Merkle digests (DESIGN.md §6h) -----------------------

    /// Marks `sym` and its ancestors dirty. Early exit on the first
    /// already-dirty node: the maintained invariant is "a dirty node has
    /// only dirty ancestors", so the climb above it is redundant. After
    /// k mutations a digest costs O(k · depth) amortized — the climbs
    /// are the only per-mutation cost, and they shorten as dirt
    /// accumulates.
    fn invalidate_hash_up(&self, sym: XsSym) {
        let mut cache = self.hash_cache.borrow_mut();
        let mut cur = sym;
        loop {
            if let Some(slot) = self.slot(cur) {
                if *cache.get(slot) == 0 {
                    return;
                }
                *cache.get_mut(slot) = 0;
            }
            if cur == XsSym::ROOT {
                return;
            }
            cur = self.parent_sym(cur);
        }
    }

    /// The Merkle digest of the whole tree, recomputing only dirty
    /// subtrees (clean ones are one `Cell` read). Pure `&self`: the
    /// caches are interior-mutable and semantically invisible — they
    /// never affect simulated time or world evolution.
    pub fn subtree_digest(&self) -> u128 {
        self.node_hash(XsSym::ROOT, true)
    }

    /// From-scratch recompute that neither reads nor writes the caches —
    /// the differential oracle for [`Store::subtree_digest`].
    pub fn subtree_digest_uncached(&self) -> u128 {
        self.node_hash(XsSym::ROOT, false)
    }

    /// Drops every cached subtree hash (tests: verifies a cold walk
    /// agrees with whatever the incremental path maintained).
    pub fn clear_hash_caches(&self) {
        self.hash_cache.borrow_mut().clear();
    }

    /// Freezes the interner's overlay into its shared base (see
    /// [`Interner::freeze`]): clones taken from here on share the whole
    /// symbol table by refcount instead of deep-copying it. Called at
    /// every world fork (`ControlPlane::snapshot` and `fork`). Purely a
    /// representation change; symbols and lookups are unaffected.
    pub fn freeze_shared(&self) {
        self.interner.borrow_mut().freeze();
    }

    /// Digest of one node's subtree: its name, raw value bytes (never a
    /// lossy UTF-8 rendering), child count, and the wrapping sum of the
    /// child digests. The commutative combine makes the digest
    /// insertion-order independent, matching the sorted-listing string
    /// digest without sorting or allocating; each child's own digest
    /// already seals its name, so permuted sibling *contents* still
    /// change the sum. Generations and permissions are excluded.
    fn node_hash(&self, sym: XsSym, use_cache: bool) -> u128 {
        let slot = self.slot(sym).expect("digest walk visits live nodes");
        let node = self.nodes.get(slot).as_ref().expect("digest walk visits live nodes");
        if use_cache {
            let h = *self.hash_cache.borrow().get(slot);
            if h != 0 {
                return h;
            }
        }
        let mut mix = Mix128::new();
        {
            let interner = self.interner.borrow();
            mix.write_field(interner.name(sym).as_bytes());
        }
        mix.write_field(&node.value);
        let mut child_sum: u128 = 0;
        let mut children: u64 = 0;
        let mut cur = node.first_child();
        while let Some(c) = cur {
            child_sum = child_sum.wrapping_add(self.node_hash(c, use_cache));
            children += 1;
            cur = self.node(c).expect("linked child exists").next_sibling();
        }
        mix.write_u64(children);
        mix.write_u128(child_sum);
        // 0 is the dirty sentinel; the 2^-128 hash that lands on it is
        // nudged to 1 (uniformly, so uncached recomputes agree).
        let h = mix.finish().max(1);
        if use_cache {
            *self.hash_cache.borrow_mut().get_mut(slot) = h;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> XsPath {
        XsPath::parse(s).unwrap()
    }

    /// The four chain links pack into 16 bytes; a node is one fat
    /// pointer, perms, a generation and those links. Arena memory
    /// scales with this under churn and across forks.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn node_stays_48_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 48);
        assert_eq!(std::mem::size_of::<Option<Node>>(), 48);
    }

    #[test]
    fn unlink_keeps_chain_order_at_head_middle_and_tail() {
        let mut s = Store::new();
        for name in ["a", "b", "c", "d", "e"] {
            s.write(0, &p(&format!("/dir/{name}")), b"").unwrap();
        }
        for gone in ["a", "c", "e"] {
            s.rm(0, &p(&format!("/dir/{gone}"))).unwrap();
        }
        s.write(0, &p("/dir/f"), b"").unwrap();
        let dir = s.resolve("/dir").unwrap();
        let mut chain = Vec::new();
        s.for_each_child_sym(0, dir, |c| chain.push(s.path_of(c).as_str().to_string()))
            .unwrap();
        assert_eq!(chain, ["/dir/b", "/dir/d", "/dir/f"]);
        s.rm(0, &p("/dir/b")).unwrap();
        s.rm(0, &p("/dir/f")).unwrap();
        s.rm(0, &p("/dir/d")).unwrap();
        assert_eq!(s.directory(0, &p("/dir")).unwrap(), Vec::<String>::new());
        s.write(0, &p("/dir/g"), b"").unwrap();
        assert_eq!(s.directory(0, &p("/dir")).unwrap(), ["g"]);
    }

    #[test]
    fn write_creates_parents() {
        let mut s = Store::new();
        s.write(0, &p("/a/b/c"), b"v").unwrap();
        assert_eq!(s.read(0, &p("/a/b/c")).unwrap(), b"v");
        assert!(s.exists(&p("/a")));
        assert!(s.exists(&p("/a/b")));
        assert_eq!(s.node_count(), 4); // root + a + b + c
    }

    #[test]
    fn read_missing_is_enoent() {
        let s = Store::new();
        assert_eq!(s.read(0, &p("/nope")).unwrap_err(), XsError::NotFound);
    }

    #[test]
    fn rm_removes_subtree_and_counts() {
        let mut s = Store::new();
        s.write(0, &p("/a/b/c"), b"1").unwrap();
        s.write(0, &p("/a/b/d"), b"2").unwrap();
        assert_eq!(s.node_count(), 5);
        s.rm(0, &p("/a/b")).unwrap();
        assert_eq!(s.node_count(), 2);
        assert!(!s.exists(&p("/a/b/c")));
        assert!(s.exists(&p("/a")));
    }

    #[test]
    fn rm_root_is_invalid() {
        let mut s = Store::new();
        assert_eq!(s.rm(0, &XsPath::root()).unwrap_err(), XsError::Invalid);
    }

    #[test]
    fn mkdir_twice_is_eexist() {
        let mut s = Store::new();
        s.mkdir(0, &p("/a")).unwrap();
        assert_eq!(s.mkdir(0, &p("/a")).unwrap_err(), XsError::AlreadyExists);
    }

    #[test]
    fn directory_lists_children_sorted() {
        let mut s = Store::new();
        for name in ["zeta", "alpha", "mid"] {
            s.write(0, &p(&format!("/dir/{name}")), b"").unwrap();
        }
        assert_eq!(s.directory(0, &p("/dir")).unwrap(), vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn generations_bump_on_mutation() {
        let mut s = Store::new();
        s.write(0, &p("/a"), b"1").unwrap();
        let g1 = s.node_generation(&p("/a")).unwrap();
        s.write(0, &p("/a"), b"2").unwrap();
        let g2 = s.node_generation(&p("/a")).unwrap();
        assert!(g2 > g1);
    }

    #[test]
    fn rm_bumps_parent_generation() {
        let mut s = Store::new();
        s.write(0, &p("/a/b"), b"").unwrap();
        let g_parent = s.node_generation(&p("/a")).unwrap();
        s.rm(0, &p("/a/b")).unwrap();
        assert!(s.node_generation(&p("/a")).unwrap() > g_parent);
    }

    #[test]
    fn recreated_node_reuses_its_symbol() {
        let mut s = Store::new();
        s.write(0, &p("/a/b"), b"first").unwrap();
        let sym = s.resolve("/a/b").unwrap();
        s.rm(0, &p("/a/b")).unwrap();
        assert!(!s.exists_sym(sym), "node gone, symbol retained");
        s.write(0, &p("/a/b"), b"second").unwrap();
        assert_eq!(s.resolve("/a/b").unwrap(), sym, "append-only table");
        assert_eq!(s.read_sym(0, sym).unwrap(), b"second");
    }

    #[test]
    fn read_rc_snapshot_survives_overwrite_and_rm() {
        let mut s = Store::new();
        s.write(0, &p("/a"), b"one").unwrap();
        let snap = s.read_rc(0, &p("/a")).unwrap();
        // Same length: the in-place fast path must NOT fire while `snap`
        // aliases the buffer.
        s.write(0, &p("/a"), b"two").unwrap();
        assert_eq!(&*snap, b"one");
        assert_eq!(s.read(0, &p("/a")).unwrap(), b"two");
        s.rm(0, &p("/a")).unwrap();
        assert_eq!(&*snap, b"one");
    }

    #[test]
    fn unaliased_same_length_write_reuses_buffer() {
        let mut s = Store::new();
        s.write(0, &p("/a"), b"one").unwrap();
        let ptr1 = s.read(0, &p("/a")).unwrap().as_ptr();
        s.write(0, &p("/a"), b"two").unwrap();
        let ptr2 = s.read(0, &p("/a")).unwrap().as_ptr();
        assert_eq!(ptr1, ptr2, "sole-owner same-length write is in place");
    }

    #[test]
    fn guest_cannot_write_dom0_private_node() {
        let mut s = Store::new();
        s.write(0, &p("/secure"), b"x").unwrap();
        s.set_perms(
            0,
            &p("/secure"),
            Perms {
                owner: 0,
                others_read: false,
                others_write: false,
            },
        )
        .unwrap();
        assert_eq!(s.read(7, &p("/secure")).unwrap_err(), XsError::PermissionDenied);
        assert_eq!(
            s.write(7, &p("/secure"), b"y").unwrap_err(),
            XsError::PermissionDenied
        );
        // Dom0 always can.
        assert_eq!(s.read(0, &p("/secure")).unwrap(), b"x");
    }

    #[test]
    fn guest_owns_its_subtree() {
        let mut s = Store::new();
        s.write(0, &p("/local/domain/7"), b"").unwrap();
        s.set_perms(0, &p("/local/domain/7"), Perms::private(7)).unwrap();
        s.write(7, &p("/local/domain/7/data"), b"mine").unwrap();
        assert_eq!(s.read(7, &p("/local/domain/7/data")).unwrap(), b"mine");
        // Another guest cannot read it.
        assert_eq!(
            s.read(8, &p("/local/domain/7/data")).unwrap_err(),
            XsError::PermissionDenied
        );
    }

    #[test]
    fn set_perms_requires_ownership() {
        let mut s = Store::new();
        s.write(0, &p("/n"), b"").unwrap();
        assert_eq!(
            s.set_perms(5, &p("/n"), Perms::private(5)).unwrap_err(),
            XsError::PermissionDenied
        );
    }

    #[test]
    fn read_str_rejects_non_utf8() {
        let mut s = Store::new();
        s.write(0, &p("/bin"), &[0xff, 0xfe]).unwrap();
        assert_eq!(s.read_str(0, &p("/bin")).unwrap_err(), XsError::Invalid);
    }

    #[test]
    fn quota_limits_guest_nodes_but_not_dom0() {
        let mut s = Store::new();
        s.set_quota(Some(3));
        // Guest 7 owns its subtree.
        s.write(0, &p("/g"), b"").unwrap();
        s.set_perms(0, &p("/g"), Perms { owner: 7, others_read: true, others_write: true }).unwrap();
        s.write(7, &p("/g/a"), b"").unwrap();
        s.write(7, &p("/g/b"), b"").unwrap();
        s.write(7, &p("/g/c"), b"").unwrap();
        assert_eq!(s.owned_by(7), 3);
        assert_eq!(s.write(7, &p("/g/d"), b"").unwrap_err(), XsError::QuotaExceeded);
        // Rewriting an existing node is fine (no new nodes).
        s.write(7, &p("/g/a"), b"update").unwrap();
        // Dom0 is exempt.
        for i in 0..10 {
            s.write(0, &p(&format!("/dom0-{i}")), b"").unwrap();
        }
    }

    #[test]
    fn quota_credits_back_on_rm() {
        let mut s = Store::new();
        s.set_quota(Some(2));
        s.write(0, &p("/g"), b"").unwrap();
        s.set_perms(0, &p("/g"), Perms { owner: 5, others_read: true, others_write: true }).unwrap();
        s.write(5, &p("/g/a"), b"").unwrap();
        s.write(5, &p("/g/b"), b"").unwrap();
        assert_eq!(s.write(5, &p("/g/c"), b"").unwrap_err(), XsError::QuotaExceeded);
        s.rm(5, &p("/g/a")).unwrap();
        assert_eq!(s.owned_by(5), 1);
        s.write(5, &p("/g/c"), b"").unwrap();
    }

    /// Every mutation path keeps the cached Merkle digest in sync with
    /// a from-scratch recompute.
    #[test]
    fn incremental_digest_matches_uncached_recompute() {
        let mut s = Store::new();
        let check = |s: &Store, what: &str| {
            assert_eq!(s.subtree_digest(), s.subtree_digest_uncached(), "{what}");
        };
        check(&s, "empty store");
        s.write(0, &p("/a/b/c"), b"v1").unwrap();
        check(&s, "chain create");
        s.write(0, &p("/a/b/c"), b"v2").unwrap();
        check(&s, "value overwrite");
        s.write(0, &p("/a/b/d"), &[0xff, 0x00, 0xfe]).unwrap();
        check(&s, "binary sibling");
        s.rm(0, &p("/a/b/c")).unwrap();
        check(&s, "rm leaf");
        s.write(0, &p("/a/b/c"), b"v3").unwrap();
        check(&s, "recreate");
        s.rm(0, &p("/a")).unwrap();
        check(&s, "rm subtree");
        // A warm cache cleared cold must land on the same digest.
        let warm = s.subtree_digest();
        s.clear_hash_caches();
        assert_eq!(s.subtree_digest(), warm, "cold rebuild diverged");
    }

    #[test]
    fn digest_tracks_content_not_metadata() {
        let mut a = Store::new();
        a.write(0, &p("/x"), b"1").unwrap();
        let d1 = a.subtree_digest();
        // Permissions and generation churn are invisible.
        a.set_perms(0, &p("/x"), Perms::private(3)).unwrap();
        assert_eq!(a.subtree_digest(), d1, "perms changed the digest");
        // Same bytes written again: generation bumps, digest stays.
        a.write(0, &p("/x"), b"1").unwrap();
        assert_eq!(a.subtree_digest(), d1, "no-op rewrite changed the digest");
        // Content changes are visible.
        a.write(0, &p("/x"), b"2").unwrap();
        assert_ne!(a.subtree_digest(), d1, "value change went unnoticed");
        // Distinct non-UTF-8 values are distinct (raw bytes, not lossy).
        let mut b1 = Store::new();
        b1.write(0, &p("/x"), &[0xff, 0xfe]).unwrap();
        let mut b2 = Store::new();
        b2.write(0, &p("/x"), &[0xfe, 0xff]).unwrap();
        assert_ne!(
            b1.subtree_digest(),
            b2.subtree_digest(),
            "non-UTF-8 values collided"
        );
    }

    #[test]
    fn digest_ignores_insertion_order_but_not_structure() {
        let mut a = Store::new();
        a.write(0, &p("/d/x"), b"1").unwrap();
        a.write(0, &p("/d/y"), b"2").unwrap();
        let mut b = Store::new();
        b.write(0, &p("/d/y"), b"2").unwrap();
        b.write(0, &p("/d/x"), b"1").unwrap();
        assert_eq!(a.subtree_digest(), b.subtree_digest(), "order leaked");
        // Swapped values under swapped names do differ.
        let mut c = Store::new();
        c.write(0, &p("/d/x"), b"2").unwrap();
        c.write(0, &p("/d/y"), b"1").unwrap();
        assert_ne!(a.subtree_digest(), c.subtree_digest(), "contents swapped silently");
    }

    #[test]
    fn clone_inherits_warm_caches_and_diverges_safely() {
        let mut a = Store::new();
        a.write(0, &p("/g/one"), b"v").unwrap();
        let da = a.subtree_digest(); // warm the cache
        let mut b = a.clone();
        assert_eq!(b.subtree_digest(), da, "clone lost the digest");
        b.write(0, &p("/g/two"), b"w").unwrap();
        assert_ne!(b.subtree_digest(), da, "clone mutation unseen");
        assert_eq!(a.subtree_digest(), da, "original disturbed by clone write");
        assert_eq!(b.subtree_digest(), b.subtree_digest_uncached());
        b.rm(0, &p("/g/two")).unwrap();
        assert_eq!(b.subtree_digest(), da, "undo did not restore the digest");
    }

    #[test]
    fn churned_arena_capacity_plateaus() {
        let mut s = Store::new();
        // Build the peak population once: /g plus eight children.
        for i in 0..8 {
            s.write(0, &p(&format!("/g/{i}")), b"v").unwrap();
        }
        let peak = s.census();
        assert_eq!(peak.live + peak.free, peak.capacity);
        // Churn far past the peak, through *fresh* symbols each round
        // (distinct paths, as churned domids produce) — the arena must
        // not grow once the population fits in recycled slots.
        for round in 0..100 {
            for i in 0..8 {
                s.rm(0, &p(&format!("/g/{i}"))).unwrap();
            }
            for i in 0..8 {
                s.write(0, &p(&format!("/g/{i}")), b"v").unwrap();
            }
            let c = s.census();
            assert_eq!(c.capacity, peak.capacity, "round {round}: arena grew");
            assert_eq!(c.live, peak.live, "round {round}: population drifted");
            assert_eq!(c.live + c.free, c.capacity);
            assert_eq!(s.subtree_digest(), s.subtree_digest_uncached());
        }
    }

    #[test]
    fn rm_recycles_slots_for_brand_new_paths() {
        let mut s = Store::new();
        s.write(0, &p("/a/b"), b"x").unwrap();
        let cap = s.census().capacity;
        s.rm(0, &p("/a")).unwrap();
        assert_eq!(s.census().free, 2);
        // Never-seen paths (fresh symbols) must fill the freed slots
        // instead of growing the arena — this is exactly the churn
        // pattern (new domid, new subtree) the old symbol-indexed
        // arena leaked on.
        s.write(0, &p("/c/d"), b"y").unwrap();
        let c = s.census();
        assert_eq!(c.capacity, cap, "fresh symbols should reuse freed slots");
        assert_eq!(c.free, 0);
        assert_eq!(s.read(0, &p("/c/d")).unwrap(), b"y");
    }

    #[test]
    fn quota_counts_implicit_parents() {
        let mut s = Store::new();
        s.set_quota(Some(2));
        s.write(0, &p("/g"), b"").unwrap();
        s.set_perms(0, &p("/g"), Perms { owner: 9, others_read: true, others_write: true }).unwrap();
        // /g/x/y/z would create three nodes: over the quota of 2.
        assert_eq!(
            s.write(9, &p("/g/x/y/z"), b"").unwrap_err(),
            XsError::QuotaExceeded
        );
        // Two levels fit.
        s.write(9, &p("/g/x/y"), b"").unwrap();
        assert_eq!(s.owned_by(9), 2);
    }
}
