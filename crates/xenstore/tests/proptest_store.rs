//! Property tests of the store tree and transactions: random operation
//! sequences preserve structural invariants, and transactions are
//! equivalent to direct application when nothing interferes.
//!
//! Randomness comes from the workspace's own seeded `SimRng` (the build
//! environment is offline, so no proptest), with a fixed seed per test:
//! failures reproduce exactly.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use simcore::SimRng;
use xenstore::txn::{Txn, TxnId};
use xenstore::watch::WatchTable;
use simcore::{CostModel, Meter};
use xenstore::{Flavor, Perms, Store, XsError, XsPath, XsSym, Xenstored};

/// A small path universe so operations collide often.
fn random_path(rng: &mut SimRng) -> XsPath {
    let a = rng.index(3);
    let b = rng.index(3);
    let s = match rng.index(3) {
        0 => format!("/d{a}"),
        1 => format!("/d{a}/e{b}"),
        _ => format!("/d{a}/e{b}/f"),
    };
    XsPath::parse(&s).unwrap()
}

#[derive(Clone, Debug)]
enum Op {
    Write(XsPath, Vec<u8>),
    Mkdir(XsPath),
    Rm(XsPath),
    Read(XsPath),
    Dir(XsPath),
}

fn random_op(rng: &mut SimRng) -> Op {
    let p = random_path(rng);
    match rng.index(5) {
        0 => {
            let len = rng.index(8);
            let v = (0..len).map(|_| rng.index(256) as u8).collect();
            Op::Write(p, v)
        }
        1 => Op::Mkdir(p),
        2 => Op::Rm(p),
        3 => Op::Read(p),
        _ => Op::Dir(p),
    }
}

/// Recount nodes by walking directories.
fn recount(store: &Store, path: &XsPath) -> usize {
    let mut n = 1;
    if let Ok(children) = store.directory(0, path) {
        for c in children {
            n += recount(store, &path.child(&c).unwrap());
        }
    }
    n
}

fn collect(store: &Store, path: &XsPath) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    if let Ok(v) = store.read(0, path) {
        out.push((path.as_str().to_string(), v.to_vec()));
    }
    if let Ok(children) = store.directory(0, path) {
        for c in children {
            out.extend(collect(store, &path.child(&c).unwrap()));
        }
    }
    out
}

/// node_count always equals an actual recount of the tree.
#[test]
fn node_count_is_consistent() {
    let mut rng = SimRng::new(0x5701);
    for _case in 0..128 {
        let mut store = Store::new();
        let n_ops = rng.index(60);
        for _ in 0..n_ops {
            match random_op(&mut rng) {
                Op::Write(p, v) => {
                    let _ = store.write(0, &p, &v);
                }
                Op::Mkdir(p) => {
                    let _ = store.mkdir(0, &p);
                }
                Op::Rm(p) => {
                    let _ = store.rm(0, &p);
                }
                Op::Read(p) => {
                    let _ = store.read(0, &p);
                }
                Op::Dir(p) => {
                    let _ = store.directory(0, &p);
                }
            }
            assert_eq!(store.node_count(), recount(&store, &XsPath::root()));
        }
    }
}

/// A write is always readable back (until removed).
#[test]
fn write_read_round_trip() {
    let mut rng = SimRng::new(0x5702);
    for _case in 0..256 {
        let p = random_path(&mut rng);
        let len = rng.index(16);
        let v: Vec<u8> = (0..len).map(|_| rng.index(256) as u8).collect();
        let mut store = Store::new();
        store.write(0, &p, &v).unwrap();
        assert_eq!(store.read(0, &p).unwrap(), &v[..]);
    }
}

/// An uncontended transaction commits and equals direct application.
#[test]
fn txn_equals_direct() {
    let mut rng = SimRng::new(0x5703);
    for _case in 0..128 {
        let mut direct = Store::new();
        let mut base = Store::new();
        // Common prefix so rm has something to remove.
        for s in ["/d0/e0", "/d1/e1/f"] {
            let p = XsPath::parse(s).unwrap();
            direct.write(0, &p, b"seed").unwrap();
            base.write(0, &p, b"seed").unwrap();
        }
        let mut txn = Txn::start(TxnId(1), 0, &base);
        let n_ops = rng.index(30);
        for _ in 0..n_ops {
            match random_op(&mut rng) {
                Op::Write(p, v) => {
                    let a = direct.write(0, &p, &v);
                    let b = txn.write(&base, &p, &v);
                    assert_eq!(a.is_ok(), b.is_ok());
                }
                Op::Mkdir(p) => {
                    let a = direct.mkdir(0, &p);
                    let b = txn.mkdir(&base, &p);
                    assert_eq!(a.is_ok(), b.is_ok());
                }
                Op::Rm(p) => {
                    let a = direct.rm(0, &p);
                    let b = txn.rm(&base, &p);
                    assert_eq!(a.is_ok(), b.is_ok());
                }
                Op::Read(p) => {
                    let a = direct.read(0, &p).map(|v| v.to_vec());
                    let b = txn.read(&base, &p);
                    assert_eq!(a.is_ok(), b.is_ok());
                    if let (Ok(av), Ok(bv)) = (a, b) {
                        assert_eq!(&av[..], &*bv);
                    }
                }
                Op::Dir(p) => {
                    let a = direct.directory(0, &p);
                    let b = txn.directory(&base, &p);
                    assert_eq!(a.is_ok(), b.is_ok());
                    if let (Ok(mut av), Ok(bv)) = (a, b) {
                        av.sort();
                        assert_eq!(av, bv);
                    }
                }
            }
        }
        let mut fired = Vec::new();
        txn.commit(&mut base, &mut fired).unwrap();
        // The committed store equals the directly mutated one.
        assert_eq!(base.node_count(), direct.node_count());
        assert_eq!(
            collect(&base, &XsPath::root()),
            collect(&direct, &XsPath::root())
        );
    }
}

/// Conflict detection: any external write to a touched node aborts.
#[test]
fn external_write_conflicts() {
    let mut rng = SimRng::new(0x5704);
    for _case in 0..128 {
        let p = random_path(&mut rng);
        let q = random_path(&mut rng);
        let mut store = Store::new();
        store.write(0, &p, b"0").unwrap();
        store.write(0, &q, b"0").unwrap();
        let mut txn = Txn::start(TxnId(1), 0, &store);
        let _ = txn.read(&store, &p);
        store.write(0, &p, b"external").unwrap();
        let _ = txn.write(&store, &q, b"mine");
        let mut fired = Vec::new();
        assert_eq!(txn.commit(&mut store, &mut fired).unwrap_err(), XsError::Again);
    }
}

/// Zero-copy aliasing: a payload snapshot taken via `read_rc` never
/// changes, no matter what is written to (or removed from) the store
/// afterwards — including same-length overwrites, which may only reuse
/// the buffer when no snapshot aliases it.
#[test]
fn read_snapshots_are_immutable_under_mutation() {
    let mut rng = SimRng::new(0x5705);
    for _case in 0..64 {
        let mut store = Store::new();
        let mut snapshots: Vec<(XsPath, Arc<[u8]>, Vec<u8>)> = Vec::new();
        let n_ops = rng.index(80);
        for _ in 0..n_ops {
            match random_op(&mut rng) {
                Op::Write(p, v) => {
                    let _ = store.write(0, &p, &v);
                }
                Op::Mkdir(p) => {
                    let _ = store.mkdir(0, &p);
                }
                Op::Rm(p) => {
                    let _ = store.rm(0, &p);
                }
                Op::Read(p) => {
                    // Take a snapshot and remember its bytes at read time.
                    if let Ok(rc) = store.read_rc(0, &p) {
                        let expect = rc.to_vec();
                        snapshots.push((p, rc, expect));
                    }
                }
                Op::Dir(p) => {
                    let _ = store.directory(0, &p);
                }
            }
            // Every snapshot ever taken still holds its original bytes.
            for (path, rc, expect) in &snapshots {
                assert_eq!(
                    &**rc, &expect[..],
                    "snapshot of {} mutated behind the reader's back",
                    path.as_str()
                );
            }
        }
    }
}

/// Scratch-buffer watch delivery: draining through a reused buffer
/// (`take_events_into`) delivers exactly the same event stream as the
/// allocating `take_events` — nothing lost, nothing duplicated, order
/// preserved — across interleaved registrations, mutations and drains.
#[test]
fn watch_scratch_reuse_loses_and_duplicates_nothing() {
    let mut rng = SimRng::new(0x5706);
    for _case in 0..64 {
        // Two identical worlds driven by the same op sequence; only the
        // drain mechanism differs.
        let mut store_a = Store::new();
        let mut table_a = WatchTable::new();
        let mut store_b = Store::new();
        let mut table_b = WatchTable::new();
        let mut scratch = Vec::new(); // reused across every drain of world B
        let mut delivered_a = 0usize;
        let mut delivered_b = 0usize;
        let mut fired = 0usize;

        let n_ops = rng.index(60);
        for _ in 0..n_ops {
            match rng.index(4) {
                0 => {
                    // Register a watch on a random path for a random conn.
                    let p = random_path(&mut rng);
                    let conn = rng.index(3) as u32;
                    let tok = format!("t{}", rng.index(4));
                    table_a.register(&store_a, conn, store_a.sym(&p), tok.clone());
                    table_b.register(&store_b, conn, store_b.sym(&p), tok);
                    fired += 1; // the initial sync event
                }
                1 => {
                    // Mutate: both worlds fire identically.
                    let p = random_path(&mut rng);
                    let _ = store_a.write(0, &p, b"v");
                    let _ = store_b.write(0, &p, b"v");
                    let fa = table_a.note_mutation_sym(&store_a, store_a.sym(&p));
                    let fb = table_b.note_mutation_sym(&store_b, store_b.sym(&p));
                    assert_eq!(fa, fb);
                    fired += fa.fired;
                }
                2 => {
                    // Drain one conn: fresh Vec vs reused scratch.
                    let conn = rng.index(3) as u32;
                    let evs = table_a.take_events(conn);
                    table_b.take_events_into(conn, &mut scratch);
                    assert_eq!(evs, scratch, "reused buffer must equal fresh drain");
                    delivered_a += evs.len();
                    delivered_b += scratch.len();
                }
                _ => {
                    let conn = rng.index(3) as u32;
                    assert_eq!(table_a.pending_count(conn), table_b.pending_count(conn));
                }
            }
        }
        // Conservation: drain everything and check nothing was lost or
        // duplicated along the way.
        for conn in 0..3u32 {
            let evs = table_a.take_events(conn);
            table_b.take_events_into(conn, &mut scratch);
            assert_eq!(evs, scratch);
            delivered_a += evs.len();
            delivered_b += scratch.len();
        }
        assert_eq!(delivered_a, fired, "every fired event delivered exactly once");
        assert_eq!(delivered_b, fired);
    }
}

/// Naive reference for the wide-directory test: every node but the root
/// as `path -> value`, plus every path ever created (for the interner
/// census) and the peak live population (for the arena census).
#[derive(Default)]
struct NaiveStore {
    nodes: BTreeMap<String, Vec<u8>>,
    ever: BTreeSet<String>,
    peak: usize,
}

impl NaiveStore {
    /// xenstored write semantics: missing parents appear empty.
    fn write(&mut self, path: &str, value: &[u8]) {
        let mut end = 0;
        while let Some(i) = path[end + 1..].find('/') {
            end += 1 + i;
            self.nodes.entry(path[..end].to_string()).or_default();
            self.ever.insert(path[..end].to_string());
        }
        self.nodes.insert(path.to_string(), value.to_vec());
        self.ever.insert(path.to_string());
        self.peak = self.peak.max(self.nodes.len());
    }

    fn rm(&mut self, path: &str) {
        let below = format!("{path}/");
        self.nodes
            .retain(|p, _| p != path && !p.starts_with(&below));
    }

    fn children(&self, dir: &str) -> Vec<String> {
        let prefix = format!("{dir}/");
        self.nodes
            .keys()
            .filter_map(|p| p.strip_prefix(&prefix))
            .filter(|rest| !rest.contains('/'))
            .map(str::to_string)
            .collect()
    }
}

/// Writes `path` to the store and the model alike.
fn write(store: &mut Store, model: &mut NaiveStore, path: &str, value: &[u8]) {
    store
        .write(0, &XsPath::parse(path).unwrap(), value)
        .unwrap();
    model.write(path, value);
}

/// Wide directories: random writes and removals on directories of
/// 1000+ children — unlinking at the head, the middle and the tail of
/// the child chain, and recreating removed names so recycled slots and
/// old symbols are reused — agree with a naive map: sorted listings,
/// node count, store census, and subtree digests against a store
/// rebuilt from scratch.
#[test]
fn wide_directories_match_a_naive_model() {
    let mut rng = SimRng::new(0x5707);
    for _case in 0..3 {
        let mut store = Store::new();
        let mut model = NaiveStore::default();
        let dirs = ["/local/domain", "/vm"];
        // Live children of each directory in insertion (chain) order.
        let mut order: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        let mut next_name = 0usize;
        for (d, dir) in dirs.iter().enumerate() {
            for _ in 0..1000 + rng.index(100) {
                let name = next_name.to_string();
                next_name += 1;
                let value = vec![rng.index(256) as u8; rng.index(4)];
                write(&mut store, &mut model, &format!("{dir}/{name}"), &value);
                if rng.chance(0.3) {
                    write(
                        &mut store,
                        &mut model,
                        &format!("{dir}/{name}/name"),
                        b"guest",
                    );
                }
                order[d].push(name);
            }
        }
        for step in 0..600 {
            let d = rng.index(2);
            let dir = dirs[d];
            match rng.index(6) {
                // Remove at the head, the middle or the tail of the chain.
                k @ 0..=2 if !order[d].is_empty() => {
                    let i = match k {
                        0 => 0,
                        1 => rng.index(order[d].len()),
                        _ => order[d].len() - 1,
                    };
                    let name = order[d].remove(i);
                    let path = format!("{dir}/{name}");
                    store.rm(0, &XsPath::parse(&path).unwrap()).unwrap();
                    model.rm(&path);
                }
                // Recreate a previously used name, or create a fresh one.
                3 => {
                    let name = if rng.chance(0.5) && next_name > 0 {
                        rng.index(next_name).to_string()
                    } else {
                        next_name += 1;
                        (next_name - 1).to_string()
                    };
                    if !order[d].contains(&name) {
                        order[d].push(name.clone());
                    }
                    write(&mut store, &mut model, &format!("{dir}/{name}"), b"x");
                }
                // Overwrite a value, or add/remove a grandchild.
                4 if !order[d].is_empty() => {
                    let name = &order[d][rng.index(order[d].len())];
                    write(
                        &mut store,
                        &mut model,
                        &format!("{dir}/{name}/name"),
                        b"renamed",
                    );
                }
                _ if !order[d].is_empty() => {
                    let name = &order[d][rng.index(order[d].len())];
                    let path = format!("{dir}/{name}/name");
                    assert_eq!(
                        store.rm(0, &XsPath::parse(&path).unwrap()).is_ok(),
                        model.nodes.contains_key(&path)
                    );
                    model.rm(&path);
                }
                _ => {}
            }
            if step % 50 == 49 || step == 599 {
                for dir in dirs {
                    let mut listed = store.directory(0, &XsPath::parse(dir).unwrap()).unwrap();
                    let mut expect = model.children(dir);
                    expect.sort();
                    assert_eq!(listed, expect, "{dir} listing");
                    listed.dedup();
                    assert_eq!(listed.len(), expect.len(), "{dir} lists a child twice");
                }
                assert_eq!(store.node_count(), model.nodes.len() + 1);
                let census = store.census();
                assert_eq!(census.live, model.nodes.len() + 1);
                assert_eq!(census.capacity, model.peak + 1, "slots are recycled");
                assert_eq!(census.free, census.capacity - census.live);
                assert_eq!(census.interned_syms, model.ever.len() + 1);
            }
            if step % 200 == 199 {
                let mut rebuilt = Store::new();
                for (path, value) in &model.nodes {
                    rebuilt
                        .write(0, &XsPath::parse(path).unwrap(), value)
                        .unwrap();
                }
                assert_eq!(store.subtree_digest(), rebuilt.subtree_digest());
                assert_eq!(store.subtree_digest_uncached(), rebuilt.subtree_digest());
            }
        }
    }
}

/// The watch table against a naive `(conn, path, token)` list: random
/// registrations, unregistrations and connection drops keep `count()`
/// equal, every mutation fires exactly the model's events in the
/// model's order, and the per-connection index names exactly the
/// symbols each connection still watches — no stale entries.
#[test]
fn watch_table_matches_a_naive_model() {
    let paths = ["/a", "/a/b", "/a/b/c", "/d", "/d/e", "/f"];
    let mut rng = SimRng::new(0x5708);
    for _case in 0..64 {
        let store = Store::new();
        let sym = |p: &str| store.sym(&XsPath::parse(p).unwrap());
        let mut table = WatchTable::new();
        let mut model: Vec<(u32, &str, String)> = Vec::new();
        for _ in 0..rng.index(120) {
            let conn = rng.index(5) as u32;
            let path = paths[rng.index(paths.len())];
            let token = format!("t{}", rng.index(3));
            match rng.index(5) {
                0 | 1 => {
                    table.register(&store, conn, sym(path), token.clone());
                    model.push((conn, path, token));
                }
                2 => {
                    let removed = table.unregister_sym(conn, sym(path), &token);
                    let before = model.len();
                    model.retain(|(c, p, t)| !(*c == conn && *p == path && *t == token));
                    assert_eq!(removed, model.len() < before);
                }
                3 => {
                    table.drop_conn(conn);
                    model.retain(|(c, _, _)| *c != conn);
                }
                _ => {
                    for c in 0..5 {
                        table.take_events(c);
                    }
                    let stats = table.note_mutation_sym(&store, sym(path));
                    // Deepest watched ancestor first, registration order
                    // within one path.
                    let mut expect: BTreeMap<u32, Vec<String>> = BTreeMap::new();
                    let mut at = Some(path);
                    while let Some(p) = at {
                        for (c, _, t) in model.iter().filter(|(_, wp, _)| *wp == p) {
                            expect.entry(*c).or_default().push(t.clone());
                        }
                        at = p.rfind('/').filter(|&i| i > 0).map(|i| &p[..i]);
                    }
                    assert_eq!(stats.checked, model.len());
                    assert_eq!(stats.fired, expect.values().map(Vec::len).sum::<usize>());
                    for c in 0..5 {
                        let got: Vec<String> = table
                            .take_events(c)
                            .iter()
                            .map(|e| e.token.to_string())
                            .collect();
                        assert_eq!(got, expect.remove(&c).unwrap_or_default(), "conn {c}");
                    }
                }
            }
            assert_eq!(table.count(), model.len());
            for c in 0..5 {
                let indexed: Vec<XsSym> = table.watched_by(c).collect();
                let mut expect: Vec<XsSym> = model
                    .iter()
                    .filter(|(mc, _, _)| *mc == c)
                    .map(|(_, p, _)| sym(p))
                    .collect();
                expect.sort();
                expect.dedup();
                assert_eq!(indexed, expect, "conn {c}'s watch index");
            }
        }
    }
}

/// A node under `/local/domain` from a universe mixing plain domids,
/// an alias ("007" parses like "7"), a signed form ("+5" parses too;
/// no path string can spell it, so symbols are composed directly) and
/// a non-numeric entry — down to `name` nodes and their siblings — plus
/// `/local/domain` and `/local` themselves.
fn random_ld_sym(rng: &mut SimRng, xs: &Xenstored) -> XsSym {
    const ENTRIES: [&str; 7] = ["0", "1", "7", "007", "+5", "tools", "12"];
    let ld = xs.local_domain_sym();
    let entry = xs.child_sym(ld, ENTRIES[rng.index(ENTRIES.len())]);
    match rng.index(10) {
        0 => xs.parent_sym(ld),
        1 => ld,
        2 => entry,
        3 => xs.child_sym(entry, "data"),
        4 => xs.child_sym(xs.child_sym(entry, "name"), "sub"),
        _ => xs.child_sym(entry, "name"),
    }
}

/// A name value from a small set, so rewrites collide and repeat.
fn random_name(rng: &mut SimRng) -> &'static [u8] {
    const NAMES: [&[u8]; 5] = [b"", b"a", b"vm-1", b"vm-2", b"a-much-longer-guest-name"];
    NAMES[rng.index(NAMES.len())]
}

/// One random mutation: a write, mkdir or rm by Dom0, an ownership
/// hand-over, or a write by guest 5 (which fails part-way down a chain
/// when it lacks a parent's write bit).
fn ld_mutate(rng: &mut SimRng, xs: &mut Xenstored) {
    let (cost, mut m) = (CostModel::paper_defaults(), Meter::new());
    let s = random_ld_sym(rng, xs);
    let _ = match rng.index(7) {
        0..=2 => xs.write_s(&cost, &mut m, 0, s, random_name(rng)),
        3 => xs.rm_s(&cost, &mut m, 0, s),
        4 => xs.mkdir_s(&cost, &mut m, 0, s),
        5 => {
            let perms = Perms { owner: 5, others_read: true, others_write: rng.index(2) == 0 };
            xs.set_perms_s(&cost, &mut m, 0, s, perms)
        }
        _ => xs.write_s(&cost, &mut m, 5, s, random_name(rng)),
    };
}

fn assert_summary_exact(xs: &Xenstored, what: &str) {
    let store = xs.store();
    assert_eq!(
        store.local_domain_summary(),
        &store.local_domain_summary_recomputed(),
        "{what}"
    );
}

/// The store's incremental `/local/domain` summary equals a from-scratch
/// recompute after every step: direct mutations, transactions that
/// commit or conflict (against interleaved direct writes and ambient
/// interference), and forks taken mid-sequence with both sides mutated
/// afterwards.
#[test]
fn local_domain_summary_matches_recompute() {
    let mut rng = SimRng::new(0x5708);
    let (cost, mut m) = (CostModel::paper_defaults(), Meter::new());
    let (mut conflicts, mut commits) = (0, 0);
    for case in 0..96 {
        let mut xs = Xenstored::new(Flavor::Oxenstored, case);
        xs.set_ambient_interference([0.0, 0.2][rng.index(2)]);
        let mut forks: Vec<Xenstored> = Vec::new();
        for step in 0..rng.index(80) {
            match rng.index(8) {
                0 => {
                    let id = xs.txn_start(&cost, &mut m, 0);
                    for _ in 0..rng.index(6) {
                        let s = random_ld_sym(&mut rng, &xs);
                        let _ = match rng.index(3) {
                            0 => xs.txn_rm_s(&cost, &mut m, 0, id, s),
                            1 => xs.txn_read_s(&cost, &mut m, 0, id, s).map(|_| ()),
                            _ => xs.txn_write_s(&cost, &mut m, 0, id, s, random_name(&mut rng)),
                        };
                        if rng.index(3) == 0 {
                            ld_mutate(&mut rng, &mut xs);
                        }
                    }
                    match xs.txn_end(&cost, &mut m, 0, id, true) {
                        Err(XsError::Again) => conflicts += 1,
                        _ => commits += 1,
                    }
                }
                1 if forks.len() < 3 => forks.push(xs.clone()),
                _ => ld_mutate(&mut rng, &mut xs),
            }
            assert_summary_exact(&xs, &format!("case {case} step {step}"));
            for (i, fork) in forks.iter_mut().enumerate() {
                if rng.index(2) == 0 {
                    ld_mutate(&mut rng, fork);
                }
                assert_summary_exact(fork, &format!("case {case} step {step} fork {i}"));
            }
        }
    }
    assert!(conflicts > 0 && commits > 0, "{conflicts} conflicts, {commits} commits");
}
