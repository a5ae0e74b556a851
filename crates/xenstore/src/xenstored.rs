//! The xenstored daemon façade: connections, protocol costs, dispatch.
//!
//! Every request pays the paper's protocol tax (§4.2): "each operation
//! requires sending a message and receiving an acknowledgment, each
//! triggering a software interrupt: a single read or write thus triggers
//! at least two, and most often four, software interrupts and multiple
//! domain changes". On top of that we charge store-side processing,
//! payload marshalling, a poll cost per open connection, watch checking
//! per mutation, access-log lines, and rotation spikes.
//!
//! The optional *ambient interference* models the xenbus traffic of the
//! already-running guests (they keep their own connections busy), which
//! is what makes transaction commits increasingly likely to fail with
//! `EAGAIN` as density grows. Interference is applied as genuine writes
//! to the main store, so conflicts and retries are real, not sampled
//! outcomes.

use std::collections::HashMap;
use std::sync::Arc;

use simcore::{Category, ChunkVec, CostModel, Meter, SimRng, SimTime};

use crate::log::{AccessLog, LogOutcome};
use crate::path::XsPath;
use crate::store::{Perms, Store, XsError};
use crate::sym::XsSym;
use crate::txn::{Txn, TxnId};
use crate::watch::{WatchEvent, WatchTable};

/// Finished transactions kept for reuse (overlay/log capacity).
const TXN_POOL_MAX: usize = 32;

/// Finished transactions kept for reuse ([`Txn::reset`]), so
/// steady-state `txn_start` allocates nothing. A cache, not daemon
/// state: a clone (a world fork) starts with an empty pool instead of
/// copying the pooled transactions' cleared-but-full overlay tables.
#[derive(Default)]
struct TxnPool(Vec<Txn>);

impl Clone for TxnPool {
    fn clone(&self) -> Self {
        TxnPool::default()
    }
}

impl TxnPool {
    fn take(&mut self) -> Option<Txn> {
        self.0.pop()
    }

    fn put(&mut self, txn: Txn) {
        if self.0.len() < TXN_POOL_MAX {
            self.0.push(txn);
        }
    }
}

/// A connection identifier (the domain id of the client).
pub type ConnId = u32;

/// Which xenstored implementation's cost profile to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flavor {
    /// The OCaml daemon: the faster of the two (paper footnote 3).
    Oxenstored,
    /// The C daemon: noticeably higher per-op and transaction costs.
    Cxenstored,
}

impl Flavor {
    fn process_mult(self) -> f64 {
        match self {
            Flavor::Oxenstored => 1.0,
            Flavor::Cxenstored => 2.6,
        }
    }

    fn txn_mult(self) -> f64 {
        match self {
            Flavor::Oxenstored => 1.0,
            Flavor::Cxenstored => 2.0,
        }
    }
}

/// Aggregate daemon statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XsStats {
    /// Requests processed (transactional ops included).
    pub requests: u64,
    /// Transactions committed successfully.
    pub txn_commits: u64,
    /// Transactions failed with `EAGAIN`.
    pub txn_conflicts: u64,
    /// Watch events queued.
    pub watch_events: u64,
    /// Daemon crash/restart cycles survived (fault injection).
    pub restarts: u64,
}

/// The simulated xenstored daemon.
#[derive(Clone)]
pub struct Xenstored {
    store: Store,
    txns: HashMap<TxnId, Txn>,
    watches: WatchTable,
    /// Open connections, by id (a domid); CoW-chunked so a world fork
    /// costs O(chunks).
    conns: ChunkVec<bool>,
    conn_count: usize,
    log: AccessLog,
    flavor: Flavor,
    next_txn: u64,
    /// Probability that a touched node was dirtied by ambient guest
    /// xenbus traffic while a transaction was open.
    ambient_interference: f64,
    /// Fault injection: while set, interfering writers may also race the
    /// *creation* of touched nodes (not just rewrite existing ones), so
    /// transactions writing a fresh subtree can conflict too.
    storm: bool,
    rng: SimRng,
    stats: XsStats,
    /// Pre-interned `/vm` (the store interns `/local/domain` itself):
    /// every domain/device path is composed from these by symbol hops.
    vm_root: XsSym,
    txn_pool: TxnPool,
    /// Scratch for commit-fired symbols (watch dispatch).
    fired_scratch: Vec<XsSym>,
    /// Scratch for interference victim candidates.
    victim_scratch: Vec<XsSym>,
}

impl Xenstored {
    /// Creates a daemon with Dom0 connected.
    pub fn new(flavor: Flavor, seed: u64) -> Xenstored {
        let mut conns = ChunkVec::new(false);
        *conns.get_mut(0) = true;
        let store = Store::new();
        let vm_root = store.child_sym(XsSym::ROOT, "vm");
        Xenstored {
            store,
            txns: HashMap::new(),
            watches: WatchTable::new(),
            conns,
            conn_count: 1,
            log: AccessLog::default(),
            flavor,
            next_txn: 1,
            ambient_interference: 0.0,
            storm: false,
            rng: SimRng::new(seed),
            stats: XsStats::default(),
            vm_root,
            txn_pool: TxnPool::default(),
            fired_scratch: Vec::new(),
            victim_scratch: Vec::new(),
        }
    }

    /// Read-only access to the underlying store (assertions, tooling).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Mutable store access for configuration (quotas) and tests.
    pub fn store_mut_for_tests(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Daemon statistics.
    pub fn stats(&self) -> XsStats {
        self.stats
    }

    /// The store's arena/interner occupancy (see
    /// [`crate::store::StoreCensus`]) — the churn suite's per-world
    /// resource census.
    pub fn store_census(&self) -> crate::store::StoreCensus {
        self.store.census()
    }

    /// Number of registered watches.
    pub fn watch_count(&self) -> usize {
        self.watches.count()
    }

    /// Number of open connections.
    pub fn conn_count(&self) -> usize {
        self.conn_count
    }

    /// Enables/disables access logging (spike ablation).
    pub fn set_logging(&mut self, enabled: bool) {
        self.log.set_enabled(enabled);
    }

    /// Rotations performed so far (spike provenance check).
    pub fn log_rotations(&self) -> u64 {
        self.log.rotations()
    }

    /// Total access-log lines written so far.
    pub fn log_total_lines(&self) -> u64 {
        self.log.total_lines()
    }

    /// Sets the per-touched-node probability of ambient interference.
    /// The control plane raises this with guest density.
    pub fn set_ambient_interference(&mut self, p: f64) {
        self.ambient_interference = p.clamp(0.0, 1.0);
    }

    /// Current ambient-interference probability (saved/restored around
    /// injected transaction-conflict storms).
    pub fn ambient_interference(&self) -> f64 {
        self.ambient_interference
    }

    /// Toggles transaction-storm mode (fault injection): while set,
    /// interfering writers may also race node *creation*, so even
    /// transactions writing only fresh subtrees (domain registration)
    /// conflict. Always pair with a raised ambient-interference level
    /// and restore both afterwards.
    pub fn set_storm(&mut self, on: bool) {
        self.storm = on;
    }

    /// Pending (queued, undelivered) watch events for a connection.
    pub fn pending_events(&self, conn: ConnId) -> usize {
        self.watches.pending_count(conn)
    }

    /// `(conn, queued events)` for every connection with undelivered
    /// watch events, ascending — the world digest iterates this instead
    /// of guessing a connection-id range.
    pub fn pending_counts(&self) -> impl Iterator<Item = (ConnId, usize)> + '_ {
        self.watches.pending_counts()
    }

    /// `/local/domain/<domid>`, or `None` if that path was never
    /// interned. Never grows the interner, so probing for a directory
    /// that does not exist leaves no symbol behind.
    pub fn resolve_domain_dir_sym(&self, domid: u32) -> Option<XsSym> {
        self.store.resolve_child_u32_sym(self.local_domain_sym(), domid)
    }

    /// Crashes the daemon and restarts it from its persisted state,
    /// replaying one record per live node (tdb / access-log replay).
    ///
    /// Connections, registered watches and queued events survive — this
    /// models oxenstored's live-update/restart path where clients keep
    /// their sockets — but every open transaction is aborted: its
    /// snapshot died with the old process, so the owner sees
    /// `ENOENT(txn)` on the next op and must restart the transaction.
    /// The replay cost scales with store size, which is what makes a
    /// crash at high guest density expensive (the log-rotation spike's
    /// evil twin).
    pub fn crash_and_restart(&mut self, cost: &CostModel, meter: &mut Meter) {
        for (_, txn) in self.txns.drain() {
            self.txn_pool.put(txn);
        }
        self.charge(
            meter,
            cost.xs_daemon_restart
                + cost.xs_restart_replay_per_node * self.store.node_count() as u64,
        );
        self.stats.restarts += 1;
    }

    /// Opens a connection for a domain.
    pub fn connect(&mut self, conn: ConnId) {
        if !self.conns.get(conn as usize) {
            *self.conns.get_mut(conn as usize) = true;
            self.conn_count += 1;
        }
    }

    /// Closes a connection, dropping its watches, events and open
    /// transactions.
    pub fn disconnect(&mut self, conn: ConnId) {
        if *self.conns.get(conn as usize) {
            *self.conns.get_mut(conn as usize) = false;
            self.conn_count -= 1;
        }
        self.watches.drop_conn(conn);
        self.txns.retain(|_, t| t.conn != conn);
    }

    // --- symbol composition (allocation-free path construction) ----------
    //
    // Callers compose request paths from cached roots by symbol hops
    // instead of `format!` → parse → intern per request. Composition
    // itself is free of protocol charges: it models the client knowing
    // its own paths, not a wire exchange.

    /// Interns a path, returning its symbol (composition entry point for
    /// paths that arrive as strings).
    pub fn sym(&self, path: &XsPath) -> XsSym {
        self.store.sym(path)
    }

    /// The child `<parent>/<name>` (interned by composition).
    pub fn child_sym(&self, parent: XsSym, name: &str) -> XsSym {
        self.store.child_sym(parent, name)
    }

    /// The child `<parent>/<n>` with a numeric component.
    pub fn child_u32_sym(&self, parent: XsSym, n: u32) -> XsSym {
        self.store.child_u32_sym(parent, n)
    }

    /// Materialises a symbol back into a path (refcount bump, no copy).
    pub fn path_of(&self, sym: XsSym) -> XsPath {
        self.store.path_of(sym)
    }

    /// The parent symbol; the root's parent is the root.
    pub fn parent_sym(&self, sym: XsSym) -> XsSym {
        self.store.parent_sym(sym)
    }

    /// The symbol's final path component parsed as `u32`, if numeric
    /// (the `xl` unique-name scan keys on this).
    pub fn sym_name_u32(&self, sym: XsSym) -> Option<u32> {
        self.store.sym_name_u32(sym)
    }

    /// `/local/domain` (pre-interned).
    pub fn local_domain_sym(&self) -> XsSym {
        self.store.local_domain_sym()
    }

    /// `/local/domain/<domid>`.
    pub fn domain_dir_sym(&self, domid: u32) -> XsSym {
        self.store.child_u32_sym(self.local_domain_sym(), domid)
    }

    /// `/vm/<domid>`.
    pub fn vm_dir_sym(&self, domid: u32) -> XsSym {
        self.store.child_u32_sym(self.vm_root, domid)
    }

    /// `/local/domain/<domid>/device/<kind>/<devid>` (frontend dir).
    pub fn frontend_dir_sym(&self, domid: u32, kind: &str, devid: u32) -> XsSym {
        let dev = self.store.child_sym(self.domain_dir_sym(domid), "device");
        let kind = self.store.child_sym(dev, kind);
        self.store.child_u32_sym(kind, devid)
    }

    /// `/local/domain/<backend>/backend/<kind>/<domid>/<devid>`.
    pub fn backend_dir_sym(&self, backend: u32, kind: &str, domid: u32, devid: u32) -> XsSym {
        let be = self.store.child_sym(self.domain_dir_sym(backend), "backend");
        let kind = self.store.child_sym(be, kind);
        let dom = self.store.child_u32_sym(kind, domid);
        self.store.child_u32_sym(dom, devid)
    }

    /// `/local/domain/<domid>/control/shutdown`.
    pub fn control_shutdown_sym(&self, domid: u32) -> XsSym {
        let control = self.store.child_sym(self.domain_dir_sym(domid), "control");
        self.store.child_sym(control, "shutdown")
    }

    /// Charges the fixed protocol cost of one request/ack exchange.
    fn charge_protocol(&mut self, cost: &CostModel, meter: &mut Meter, payload: usize) {
        self.stats.requests += 1;
        // Request + ack, each an interrupt plus two privilege crossings.
        let mut dt = cost.xs_soft_interrupt * 4 + cost.xs_domain_crossing * 4;
        dt += cost
            .xs_process_base
            .scale(self.flavor.process_mult());
        dt += cost.xs_payload_per_byte * payload as u64;
        dt += cost.xs_poll_per_conn * self.conn_count as u64;
        match self.log.append() {
            LogOutcome::Disabled => {}
            LogOutcome::Line => dt += cost.xs_log_line,
            LogOutcome::LineAndRotation { files } => {
                dt += cost.xs_log_line + cost.xs_log_rotate_per_file * files as u64;
            }
        }
        meter.charge(Category::Xenstore, dt);
    }

    fn charge(&self, meter: &mut Meter, dt: SimTime) {
        let _ = self; // parallel to charge_protocol's signature
        meter.charge(Category::Xenstore, dt);
    }

    fn note_mutation_sym(&mut self, cost: &CostModel, meter: &mut Meter, sym: XsSym) {
        let stats = self.watches.note_mutation_sym(&self.store, sym);
        self.stats.watch_events += stats.fired as u64;
        let dt = cost.xs_watch_check * stats.checked as u64
            + cost.xs_watch_fire * stats.fired as u64;
        meter.charge(Category::Xenstore, dt);
    }

    // --- direct (non-transactional) operations ---------------------------
    //
    // Each path-keyed operation resolves/interns once and forwards to its
    // `_s` symbol twin; the twins are the allocation-free hot path.

    /// Reads a value as a shared payload — a refcount bump, not a copy.
    pub fn read(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        path: &XsPath,
    ) -> Result<Arc<[u8]>, XsError> {
        self.charge_protocol(cost, meter, path.len());
        let sym = self.store.resolve(path.as_str()).ok_or(XsError::NotFound)?;
        let v = self.store.read_rc_sym(conn, sym)?;
        self.charge(meter, cost.xs_payload_per_byte * v.len() as u64);
        Ok(v)
    }

    /// [`Xenstored::read`] on an interned symbol.
    pub fn read_s(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        sym: XsSym,
    ) -> Result<Arc<[u8]>, XsError> {
        self.charge_protocol(cost, meter, self.store.path_len(sym));
        let v = self.store.read_rc_sym(conn, sym)?;
        self.charge(meter, cost.xs_payload_per_byte * v.len() as u64);
        Ok(v)
    }

    /// Writes a value, firing watches.
    pub fn write(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        path: &XsPath,
        value: &[u8],
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, path.len() + value.len());
        if path.depth() == 0 {
            return Err(XsError::Invalid);
        }
        let sym = self.store.sym(path);
        self.store.write_sym(conn, sym, value)?;
        self.note_mutation_sym(cost, meter, sym);
        Ok(())
    }

    /// [`Xenstored::write`] on an interned symbol.
    pub fn write_s(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        sym: XsSym,
        value: &[u8],
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.path_len(sym) + value.len());
        self.store.write_sym(conn, sym, value)?;
        self.note_mutation_sym(cost, meter, sym);
        Ok(())
    }

    /// Creates a directory node, firing watches.
    pub fn mkdir(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        path: &XsPath,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, path.len());
        self.mkdir_inner(cost, meter, conn, self.store.sym(path))
    }

    /// [`Xenstored::mkdir`] on an interned symbol.
    pub fn mkdir_s(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        sym: XsSym,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.path_len(sym));
        self.mkdir_inner(cost, meter, conn, sym)
    }

    fn mkdir_inner(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        sym: XsSym,
    ) -> Result<(), XsError> {
        if self.store.exists_sym(sym) {
            return Err(XsError::AlreadyExists);
        }
        self.store.write_sym(conn, sym, b"")?;
        self.note_mutation_sym(cost, meter, sym);
        Ok(())
    }

    /// Removes a subtree, firing watches.
    pub fn rm(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        path: &XsPath,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, path.len());
        if path.depth() == 0 {
            return Err(XsError::Invalid);
        }
        let sym = self.store.resolve(path.as_str()).ok_or(XsError::NotFound)?;
        self.store.rm_sym(conn, sym)?;
        self.note_mutation_sym(cost, meter, sym);
        Ok(())
    }

    /// [`Xenstored::rm`] on an interned symbol.
    pub fn rm_s(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        sym: XsSym,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.path_len(sym));
        self.store.rm_sym(conn, sym)?;
        self.note_mutation_sym(cost, meter, sym);
        Ok(())
    }

    /// Lists children; cost grows with the directory size (one of the
    /// paper's linear terms: the unique-name check lists all domains).
    pub fn directory(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        path: &XsPath,
    ) -> Result<Vec<String>, XsError> {
        self.charge_protocol(cost, meter, path.len());
        let entries = self.store.directory(conn, path)?;
        self.charge(meter, cost.xs_dir_per_entry * entries.len() as u64);
        Ok(entries)
    }

    /// Allocation-free directory listing: appends each child's symbol to
    /// `out` (cleared first), in sorted name order, with the same
    /// per-entry charge as [`Xenstored::directory`].
    pub fn directory_syms(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        sym: XsSym,
        out: &mut Vec<XsSym>,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.path_len(sym));
        out.clear();
        let n = self.store.for_each_child_sym(conn, sym, |child| out.push(child))?;
        self.store.sort_syms_by_name(out);
        self.charge(meter, cost.xs_dir_per_entry * n as u64);
        Ok(())
    }

    // --- closed-form name scan ----------------------------------------------

    /// Charges exactly what xl's unique-name scan — one `directory` of
    /// `/local/domain` plus one `read` of `<entry>/name` per numeric
    /// entry — would charge when no entry holds the requested name,
    /// without executing the store operations. Everything it needs is in
    /// the store's `/local/domain` summary, so it is O(1) whatever the
    /// directory holds: non-numeric entries are listed but not read,
    /// and a missing `name` node is a read that returns no value bytes.
    /// Protocol costs are `u64` nanosecond arithmetic, so
    /// `n * per_request` equals the sum of `n` requests bit for bit
    /// (`replay_scan_matches_real_scan` pins it). Daemon stats and the
    /// access log advance as if the requests ran, so later rotation
    /// spikes land on the same request.
    pub fn replay_name_scan(&mut self, cost: &CostModel, meter: &mut Meter) {
        // The real scan interns `<entry>/name` as it reads it. Guest
        // entries carry their `name` node, hence its symbol; Dom0's
        // directory does not, so intern its symbol here to keep the
        // interner what the real scan leaves behind.
        if let Some(dom0) = self.resolve_domain_dir_sym(0) {
            if self.store.exists_sym(dom0) {
                self.store.child_sym(dom0, "name");
            }
        }
        let summary = self.store.local_domain_summary();
        let ld_len = self.store.path_len(self.local_domain_sym()) as u64;
        let requests = 1 + summary.numeric;
        // The directory's path, then each read's `<ld>/<entry>/name`.
        let path_payload = ld_len
            + summary.numeric * (ld_len + 1 + "/name".len() as u64)
            + summary.numeric_name_bytes;
        let payload = path_payload + summary.name_value_bytes;
        let entries = summary.children;

        self.stats.requests += requests;
        let per_request = cost.xs_soft_interrupt * 4
            + cost.xs_domain_crossing * 4
            + cost.xs_process_base.scale(self.flavor.process_mult())
            + cost.xs_poll_per_conn * self.conn_count as u64;
        let mut dt = per_request * requests;
        dt += cost.xs_payload_per_byte * payload;
        dt += cost.xs_dir_per_entry * entries;
        let (lines, rotations) = self.log.append_many(requests);
        dt += cost.xs_log_line * lines
            + (cost.xs_log_rotate_per_file * crate::log::NUM_LOG_FILES as u64) * rotations;
        meter.charge(Category::Xenstore, dt);
    }

    /// Changes permissions on a node.
    pub fn set_perms(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        path: &XsPath,
        perms: Perms,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, path.len());
        let sym = self.store.sym(path);
        self.store.set_perms_sym(conn, sym, perms)?;
        self.note_mutation_sym(cost, meter, sym);
        Ok(())
    }

    /// [`Xenstored::set_perms`] on an interned symbol.
    pub fn set_perms_s(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        sym: XsSym,
        perms: Perms,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.path_len(sym));
        self.store.set_perms_sym(conn, sym, perms)?;
        self.note_mutation_sym(cost, meter, sym);
        Ok(())
    }

    // --- watches ------------------------------------------------------------

    /// Registers a watch.
    pub fn watch(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        path: &XsPath,
        token: &str,
    ) {
        self.charge_protocol(cost, meter, path.len() + token.len());
        let sym = self.store.sym(path);
        self.watches.register(&self.store, conn, sym, token);
        self.stats.watch_events += 1; // the initial synchronisation event
    }

    /// [`Xenstored::watch`] on an interned symbol; the token is shared,
    /// not copied (callers keep a cache of reused tokens).
    pub fn watch_s(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        sym: XsSym,
        token: &Arc<str>,
    ) {
        self.charge_protocol(cost, meter, self.store.path_len(sym) + token.len());
        self.watches.register(&self.store, conn, sym, Arc::clone(token));
        self.stats.watch_events += 1; // the initial synchronisation event
    }

    /// Unregisters a watch.
    ///
    /// Unwatching a `(path, token)` pair this connection never registered
    /// — or already unregistered, e.g. after a crash-recovery double
    /// teardown — is a clean `ENOENT`: the request is still charged (the
    /// daemon parsed it and searched the table) and the table is left
    /// untouched, exactly like real xenstored's `EINVAL`-free unwatch.
    pub fn unwatch(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        path: &XsPath,
        token: &str,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, path.len() + token.len());
        if self.watches.unregister(&self.store, conn, path, token) {
            Ok(())
        } else {
            Err(XsError::NotFound)
        }
    }

    /// [`Xenstored::unwatch`] on an interned symbol (teardown twin of
    /// [`Xenstored::watch_s`]; identical charges).
    pub fn unwatch_s(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        sym: XsSym,
        token: &str,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.path_len(sym) + token.len());
        if self.watches.unregister_sym(conn, sym, token) {
            Ok(())
        } else {
            Err(XsError::NotFound)
        }
    }

    /// Takes pending watch events for a connection, charging delivery.
    /// Allocates the returned `Vec`; hot paths use
    /// [`Xenstored::take_events_into`] or [`Xenstored::drain_events`].
    pub fn take_events(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
    ) -> Vec<WatchEvent> {
        let evs = self.watches.take_events(conn);
        self.charge(meter, cost.xs_watch_fire * evs.len() as u64);
        evs
    }

    /// Moves pending watch events into the caller's scratch buffer
    /// (cleared first), charging delivery identically to
    /// [`Xenstored::take_events`]. Zero allocations in steady state.
    pub fn take_events_into(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        out: &mut Vec<WatchEvent>,
    ) {
        self.watches.take_events_into(conn, out);
        self.charge(meter, cost.xs_watch_fire * out.len() as u64);
    }

    /// Discards pending watch events, charging delivery for each (the
    /// client still received them; it just does not act on them).
    pub fn drain_events(&mut self, cost: &CostModel, meter: &mut Meter, conn: ConnId) -> usize {
        let n = self.watches.drain_events(conn);
        self.charge(meter, cost.xs_watch_fire * n as u64);
        n
    }

    // --- transactions ----------------------------------------------------------

    /// Starts a transaction; the snapshot cost grows with store size.
    pub fn txn_start(&mut self, cost: &CostModel, meter: &mut Meter, conn: ConnId) -> TxnId {
        self.charge_protocol(cost, meter, 0);
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        let txn = match self.txn_pool.take() {
            Some(mut t) => {
                t.reset(id, conn, &self.store);
                t
            }
            None => Txn::start(id, conn, &self.store),
        };
        self.charge(
            meter,
            cost.xs_txn_snapshot_per_node
                .scale(self.flavor.txn_mult())
                * txn.snapshot_nodes as u64,
        );
        self.txns.insert(id, txn);
        id
    }

    fn recycle_txn(&mut self, txn: Txn) {
        self.txn_pool.put(txn);
    }

    /// Runs `f` with the transaction and an immutable view of the main
    /// store. The transaction is temporarily removed from the table so no
    /// aliasing is needed.
    fn with_txn<T>(
        &mut self,
        conn: ConnId,
        id: TxnId,
        f: impl FnOnce(&mut Txn, &Store) -> T,
    ) -> Result<T, XsError> {
        let mut txn = self.txns.remove(&id).ok_or(XsError::NoSuchTxn)?;
        if txn.conn != conn {
            self.txns.insert(id, txn);
            return Err(XsError::PermissionDenied);
        }
        let out = f(&mut txn, &self.store);
        self.txns.insert(id, txn);
        Ok(out)
    }

    /// Transactional read (shared payload, no copy).
    pub fn txn_read(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        id: TxnId,
        path: &XsPath,
    ) -> Result<Arc<[u8]>, XsError> {
        self.charge_protocol(cost, meter, path.len());
        self.with_txn(conn, id, |txn, main| txn.read(main, path))?
    }

    /// [`Xenstored::txn_read`] on an interned symbol.
    pub fn txn_read_s(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        id: TxnId,
        sym: XsSym,
    ) -> Result<Arc<[u8]>, XsError> {
        self.charge_protocol(cost, meter, self.store.path_len(sym));
        self.with_txn(conn, id, |txn, main| txn.read_sym(main, sym))?
    }

    /// Transactional write.
    pub fn txn_write(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        id: TxnId,
        path: &XsPath,
        value: &[u8],
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, path.len() + value.len());
        self.with_txn(conn, id, |txn, main| txn.write(main, path, value))?
    }

    /// [`Xenstored::txn_write`] on an interned symbol.
    pub fn txn_write_s(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        id: TxnId,
        sym: XsSym,
        value: &[u8],
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.path_len(sym) + value.len());
        self.with_txn(conn, id, |txn, main| txn.write_sym(main, sym, value))?
    }

    /// Transactional mkdir.
    pub fn txn_mkdir(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        id: TxnId,
        path: &XsPath,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, path.len());
        self.with_txn(conn, id, |txn, main| txn.mkdir(main, path))?
    }

    /// [`Xenstored::txn_mkdir`] on an interned symbol.
    pub fn txn_mkdir_s(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        id: TxnId,
        sym: XsSym,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.path_len(sym));
        self.with_txn(conn, id, |txn, main| txn.mkdir_sym(main, sym))?
    }

    /// Transactional directory listing.
    pub fn txn_directory(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        id: TxnId,
        path: &XsPath,
    ) -> Result<Vec<String>, XsError> {
        self.charge_protocol(cost, meter, path.len());
        let entries = self.with_txn(conn, id, |txn, main| txn.directory(main, path))??;
        self.charge(meter, cost.xs_dir_per_entry * entries.len() as u64);
        Ok(entries)
    }

    /// Transactional remove.
    pub fn txn_rm(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        id: TxnId,
        path: &XsPath,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, path.len());
        self.with_txn(conn, id, |txn, main| txn.rm(main, path))?
    }

    /// [`Xenstored::txn_rm`] on an interned symbol.
    pub fn txn_rm_s(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        id: TxnId,
        sym: XsSym,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, self.store.path_len(sym));
        self.with_txn(conn, id, |txn, main| txn.rm_sym(main, sym))?
    }

    /// Ends a transaction. With `commit = true` this validates and applies
    /// it; `Err(Again)` means the caller must retry from `txn_start`.
    pub fn txn_end(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        id: TxnId,
        commit: bool,
    ) -> Result<(), XsError> {
        self.charge_protocol(cost, meter, 0);
        let mut txn = match self.txns.remove(&id) {
            Some(t) if t.conn == conn => t,
            Some(t) => {
                self.txns.insert(id, t);
                return Err(XsError::PermissionDenied);
            }
            None => return Err(XsError::NoSuchTxn),
        };
        if !commit {
            self.recycle_txn(txn);
            return Ok(());
        }
        // Ambient interference: guests' own xenbus traffic may have
        // touched nodes this transaction read. Interference is a real
        // re-write of one of the touched nodes (generation bump), so the
        // conflict detection below is genuine, not a sampled outcome.
        if self.ambient_interference > 0.0 && txn.touched_nodes() > 0 {
            let p_any =
                1.0 - (1.0 - self.ambient_interference).powi(txn.touched_nodes() as i32);
            if self.rng.chance(p_any) {
                // Touched symbols come out of a hash map in arbitrary
                // order; sort by path string so the RNG draw below picks
                // the same victim on every run (the exact order the old
                // `Vec<XsPath>` lexicographic sort produced).
                let mut candidates = std::mem::take(&mut self.victim_scratch);
                candidates.clear();
                // Normally only pre-existing nodes can be dirtied (a
                // guest rewriting its own records). Under an injected
                // transaction storm the racing writer may also *create*
                // a node this transaction was about to create — the
                // creation race `Txn::commit` detects.
                let storm = self.storm;
                candidates.extend(
                    txn.touched_syms()
                        .filter(|&s| storm || self.store.exists_sym(s)),
                );
                self.store.sort_syms_by_path(&mut candidates);
                if !candidates.is_empty() {
                    let victim = candidates[self.rng.index(candidates.len())];
                    // Rewrite the node with its own (shared) value: a
                    // genuine generation bump, zero byte copies.
                    let value = self
                        .store
                        .read_rc_sym(0, victim)
                        .unwrap_or_else(|_| self.store.empty_rc());
                    let _ = self.store.write_rc_sym(0, victim, &value);
                }
                candidates.clear();
                self.victim_scratch = candidates;
            }
        }
        // Validation cost per touched node.
        self.charge(
            meter,
            cost.xs_txn_validate_per_node
                .scale(self.flavor.txn_mult())
                * txn.touched_nodes() as u64,
        );
        let mut fired = std::mem::take(&mut self.fired_scratch);
        let result = match txn.commit(&mut self.store, &mut fired) {
            Ok(()) => {
                self.stats.txn_commits += 1;
                for &sym in &fired {
                    self.note_mutation_sym(cost, meter, sym);
                }
                Ok(())
            }
            Err(XsError::Again) => {
                self.stats.txn_conflicts += 1;
                Err(XsError::Again)
            }
            Err(e) => Err(e),
        };
        fired.clear();
        self.fired_scratch = fired;
        self.recycle_txn(txn);
        result
    }

    /// Runs `body` inside a transaction, retrying on `EAGAIN` up to
    /// `max_retries` times (libxl behaviour). The body re-executes fully
    /// on every retry, which is exactly why conflicts are so expensive.
    pub fn transaction<T>(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        conn: ConnId,
        max_retries: usize,
        mut body: impl FnMut(&mut Xenstored, &CostModel, &mut Meter, TxnId) -> Result<T, XsError>,
    ) -> Result<T, XsError> {
        let mut attempts = 0;
        loop {
            let id = self.txn_start(cost, meter, conn);
            let out = body(self, cost, meter, id);
            match out {
                Ok(v) => match self.txn_end(cost, meter, conn, id, true) {
                    Ok(()) => return Ok(v),
                    Err(XsError::Again) if attempts < max_retries => {
                        attempts += 1;
                        continue;
                    }
                    Err(e) => return Err(e),
                },
                Err(e) => {
                    let _ = self.txn_end(cost, meter, conn, id, false);
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> XsPath {
        XsPath::parse(s).unwrap()
    }

    fn setup() -> (Xenstored, CostModel, Meter) {
        (
            Xenstored::new(Flavor::Oxenstored, 42),
            CostModel::paper_defaults(),
            Meter::new(),
        )
    }

    #[test]
    fn replay_scan_matches_real_scan() {
        // Twin daemons with identical state: four guests with name nodes,
        // Dom0's own directory (whose `name` node does not exist), a
        // non-numeric entry (listed, not read) and an aliased "007".
        let (mut real, cost, _) = setup();
        let mut fast = Xenstored::new(Flavor::Oxenstored, 42);
        let guests = [(1u32, "a"), (5, "guest-5"), (42, "long-guest-name-42"), (123, "x")];
        let mut m = Meter::new();
        for xs in [&mut real, &mut fast] {
            xs.write(&cost, &mut m, 0, &p("/local/domain/0/backend"), b"")
                .unwrap();
            xs.write(&cost, &mut m, 0, &p("/local/domain/tools/name"), b"t")
                .unwrap();
            xs.write(&cost, &mut m, 0, &p("/local/domain/007/name"), b"alias")
                .unwrap();
            for (d, name) in guests {
                xs.write(
                    &cost,
                    &mut m,
                    0,
                    &p(&format!("/local/domain/{d}/name")),
                    name.as_bytes(),
                )
                .unwrap();
            }
            for c in 1..=3 {
                xs.connect(c);
            }
        }

        // Enough scans to cross a log rotation inside the batched path:
        // 2500 scans x 7 requests each > ROTATE_LINES.
        let (mut m_real, mut m_fast) = (Meter::new(), Meter::new());
        let mut dir = Vec::new();
        for _ in 0..2500 {
            // The exact scan `xl_name_check` performs...
            let ld = real.local_domain_sym();
            real.directory_syms(&cost, &mut m_real, 0, ld, &mut dir)
                .unwrap();
            for &entry in &dir {
                if real.sym_name_u32(entry).is_none() {
                    continue;
                }
                let name_sym = real.child_sym(entry, "name");
                let _ = real.read_s(&cost, &mut m_real, 0, name_sym);
            }
            // ...versus its closed form.
            fast.replay_name_scan(&cost, &mut m_fast);
        }

        assert_eq!(m_real.total(), m_fast.total());
        assert_eq!(
            m_real.of(Category::Xenstore),
            m_fast.of(Category::Xenstore)
        );
        assert_eq!(real.stats().requests, fast.stats().requests);
        assert_eq!(real.log_rotations(), fast.log_rotations());
        assert!(real.log_rotations() >= 1, "scan volume should rotate the log");
    }

    #[test]
    fn read_write_round_trip_charges_xenstore_category() {
        let (mut xs, cost, mut meter) = setup();
        xs.write(&cost, &mut meter, 0, &p("/a"), b"v").unwrap();
        assert_eq!(&*xs.read(&cost, &mut meter, 0, &p("/a")).unwrap(), b"v");
        assert!(meter.of(Category::Xenstore) > SimTime::ZERO);
        assert_eq!(meter.total(), meter.of(Category::Xenstore));
    }

    #[test]
    fn per_conn_poll_cost_grows_with_connections() {
        let (mut xs, cost, _) = setup();
        let mut m_few = Meter::new();
        xs.write(&cost, &mut m_few, 0, &p("/t"), b"x").unwrap();
        for d in 1..=500 {
            xs.connect(d);
        }
        let mut m_many = Meter::new();
        xs.write(&cost, &mut m_many, 0, &p("/t"), b"x").unwrap();
        assert!(m_many.total() > m_few.total());
    }

    #[test]
    fn txn_commit_applies_and_fires_watches() {
        let (mut xs, cost, mut meter) = setup();
        xs.connect(5);
        xs.watch(&cost, &mut meter, 5, &p("/local"), "tok");
        let _ = xs.take_events(&cost, &mut meter, 5);
        let id = xs.txn_start(&cost, &mut meter, 0);
        xs.txn_write(&cost, &mut meter, 0, id, &p("/local/domain/5"), b"")
            .unwrap();
        xs.txn_end(&cost, &mut meter, 0, id, true).unwrap();
        let evs = xs.take_events(&cost, &mut meter, 5);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].path, p("/local/domain/5"));
    }

    #[test]
    fn txn_abort_discards() {
        let (mut xs, cost, mut meter) = setup();
        let id = xs.txn_start(&cost, &mut meter, 0);
        xs.txn_write(&cost, &mut meter, 0, id, &p("/x"), b"1").unwrap();
        xs.txn_end(&cost, &mut meter, 0, id, false).unwrap();
        assert!(!xs.store().exists(&p("/x")));
    }

    #[test]
    fn conflicting_txns_get_eagain() {
        let (mut xs, cost, mut meter) = setup();
        xs.write(&cost, &mut meter, 0, &p("/n"), b"0").unwrap();
        let id = xs.txn_start(&cost, &mut meter, 0);
        let _ = xs.txn_read(&cost, &mut meter, 0, id, &p("/n")).unwrap();
        // Outside write to the same node while the txn is open.
        xs.write(&cost, &mut meter, 0, &p("/n"), b"clash").unwrap();
        assert_eq!(
            xs.txn_end(&cost, &mut meter, 0, id, true).unwrap_err(),
            XsError::Again
        );
        assert_eq!(xs.stats().txn_conflicts, 1);
    }

    #[test]
    fn transaction_helper_retries_on_ambient_interference() {
        let (mut xs, cost, mut meter) = setup();
        xs.write(&cost, &mut meter, 0, &p("/shared"), b"s").unwrap();
        // Moderate rate: high enough to conflict within a few attempts,
        // low enough that the retry loop converges.
        xs.set_ambient_interference(0.3);
        // A single transaction only conflicts if interference happens to
        // fire before its first commit; run a handful so the assertion
        // does not hinge on one draw of the (deterministic) RNG stream.
        for _ in 0..10 {
            let out = xs.transaction(&cost, &mut meter, 0, 50, |xs, cost, meter, id| {
                // Read an existing node so interference has a victim.
                let _ = xs.txn_read(cost, meter, 0, id, &p("/shared"));
                xs.txn_write(cost, meter, 0, id, &p("/v"), b"1")
            });
            out.unwrap();
            if xs.stats().txn_conflicts > 0 {
                break;
            }
        }
        assert!(xs.stats().txn_conflicts > 0, "interference should conflict");
        assert_eq!(xs.store().read(0, &p("/v")).unwrap(), b"1");
    }

    #[test]
    fn snapshot_cost_grows_with_store_size() {
        let (mut xs, cost, _) = setup();
        let mut m = Meter::new();
        for i in 0..200 {
            xs.write(&cost, &mut m, 0, &p(&format!("/d/n{i}")), b"x").unwrap();
        }
        let mut m_small_store = Meter::new();
        let id = xs.txn_start(&cost, &mut m_small_store, 0);
        xs.txn_end(&cost, &mut m_small_store, 0, id, false).unwrap();

        for i in 200..2000 {
            xs.write(&cost, &mut m, 0, &p(&format!("/d/n{i}")), b"x").unwrap();
        }
        let mut m_big_store = Meter::new();
        let id = xs.txn_start(&cost, &mut m_big_store, 0);
        xs.txn_end(&cost, &mut m_big_store, 0, id, false).unwrap();
        assert!(m_big_store.total() > m_small_store.total());
    }

    #[test]
    fn log_rotation_spikes_request_cost() {
        let (mut xs, cost, _) = setup();
        let mut baseline = Meter::new();
        xs.read(&cost, &mut baseline, 0, &XsPath::root()).unwrap();
        // Drive the log to just below the threshold.
        let remaining = crate::log::ROTATE_LINES - xs.log.total_lines() % crate::log::ROTATE_LINES;
        for _ in 0..remaining - 1 {
            let mut m = Meter::new();
            let _ = xs.read(&cost, &mut m, 0, &XsPath::root());
        }
        let mut spike = Meter::new();
        let _ = xs.read(&cost, &mut spike, 0, &XsPath::root());
        assert!(
            spike.total() > baseline.total() * 10,
            "rotation should spike: {} vs {}",
            spike.total(),
            baseline.total()
        );
        assert_eq!(xs.log_rotations(), 1);
    }

    #[test]
    fn disconnect_drops_watches_and_txns() {
        let (mut xs, cost, mut meter) = setup();
        xs.connect(9);
        xs.watch(&cost, &mut meter, 9, &p("/w"), "t");
        let id = xs.txn_start(&cost, &mut meter, 9);
        xs.disconnect(9);
        assert_eq!(xs.watch_count(), 0);
        assert_eq!(
            xs.txn_end(&cost, &mut meter, 9, id, true).unwrap_err(),
            XsError::NoSuchTxn
        );
    }

    #[test]
    fn foreign_txn_is_rejected() {
        let (mut xs, cost, mut meter) = setup();
        xs.connect(3);
        let id = xs.txn_start(&cost, &mut meter, 3);
        assert_eq!(
            xs.txn_write(&cost, &mut meter, 0, id, &p("/x"), b"1")
                .unwrap_err(),
            XsError::PermissionDenied
        );
    }

    #[test]
    fn sym_ops_charge_identically_to_path_ops() {
        // The figure pipeline's determinism rests on this: converting a
        // caller from path strings to symbol composition must not change
        // a single charged nanosecond.
        let cost = CostModel::paper_defaults();
        let mut a = Xenstored::new(Flavor::Oxenstored, 7);
        let mut b = Xenstored::new(Flavor::Oxenstored, 7);
        let mut ma = Meter::new();
        let mut mb = Meter::new();

        let path = p("/local/domain/3/device/vif/0/state");
        a.write(&cost, &mut ma, 0, &path, b"4").unwrap();
        let _ = a.read(&cost, &mut ma, 0, &path).unwrap();
        a.mkdir(&cost, &mut ma, 0, &p("/local/domain/3/data")).unwrap();
        let _ = a.directory(&cost, &mut ma, 0, &p("/local/domain/3/device/vif/0")).unwrap();
        a.rm(&cost, &mut ma, 0, &path).unwrap();

        let fe = b.frontend_dir_sym(3, "vif", 0);
        let state = b.child_sym(fe, "state");
        b.write_s(&cost, &mut mb, 0, state, b"4").unwrap();
        let _ = b.read_s(&cost, &mut mb, 0, state).unwrap();
        let data = b.child_sym(b.domain_dir_sym(3), "data");
        b.mkdir_s(&cost, &mut mb, 0, data).unwrap();
        let mut kids = Vec::new();
        b.directory_syms(&cost, &mut mb, 0, fe, &mut kids).unwrap();
        assert_eq!(kids.len(), 1);
        b.rm_s(&cost, &mut mb, 0, state).unwrap();

        assert_eq!(ma.total(), mb.total(), "charge parity path vs sym");
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn txn_pool_recycles_without_state_leak() {
        let (mut xs, cost, mut meter) = setup();
        xs.write(&cost, &mut meter, 0, &p("/a"), b"1").unwrap();
        let id1 = xs.txn_start(&cost, &mut meter, 0);
        xs.txn_write(&cost, &mut meter, 0, id1, &p("/b"), b"2").unwrap();
        xs.txn_end(&cost, &mut meter, 0, id1, true).unwrap();
        // The recycled txn must not replay /b or remember touched nodes.
        let id2 = xs.txn_start(&cost, &mut meter, 0);
        assert_ne!(id1, id2);
        assert_eq!(
            &*xs.txn_read(&cost, &mut meter, 0, id2, &p("/b")).unwrap(),
            b"2"
        );
        xs.txn_end(&cost, &mut meter, 0, id2, true).unwrap();
        assert_eq!(xs.stats().txn_commits, 2);
        assert_eq!(xs.stats().txn_conflicts, 0);
    }

    #[test]
    fn a_clone_copies_neither_the_txn_pool_nor_stale_scratch() {
        let (mut xs, cost, mut meter) = setup();
        for i in 0..4 {
            let id = xs.txn_start(&cost, &mut meter, 0);
            for j in 0..20 {
                let path = p(&format!("/t{i}/n{j}"));
                xs.txn_write(&cost, &mut meter, 0, id, &path, b"v").unwrap();
            }
            xs.txn_end(&cost, &mut meter, 0, id, true).unwrap();
        }
        assert_eq!(xs.txn_pool.0.len(), 1, "the finished txn is pooled");
        assert!(xs.fired_scratch.is_empty() && xs.fired_scratch.capacity() > 0);
        let fork = xs.clone();
        assert!(fork.txn_pool.0.is_empty(), "a fork starts with an empty pool");
        assert_eq!(fork.fired_scratch.capacity(), 0);
        // The fork still runs transactions, byte-for-byte like the
        // original.
        let mut a = fork.clone();
        for d in [&mut xs, &mut a] {
            let id = d.txn_start(&cost, &mut meter, 0);
            d.txn_write(&cost, &mut meter, 0, id, &p("/t0/n0"), b"w").unwrap();
            d.txn_end(&cost, &mut meter, 0, id, true).unwrap();
        }
        assert_eq!(a.stats(), xs.stats());
        assert_eq!(a.store().subtree_digest(), xs.store().subtree_digest());
    }

    #[test]
    fn cxenstored_costs_more_per_op() {
        let cost = CostModel::paper_defaults();
        let mut ox = Xenstored::new(Flavor::Oxenstored, 1);
        let mut cx = Xenstored::new(Flavor::Cxenstored, 1);
        let mut mo = Meter::new();
        let mut mc = Meter::new();
        ox.write(&cost, &mut mo, 0, &p("/a"), b"v").unwrap();
        cx.write(&cost, &mut mc, 0, &p("/a"), b"v").unwrap();
        assert!(mc.total() > mo.total());
    }
}
