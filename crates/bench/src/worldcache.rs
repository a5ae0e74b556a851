//! Process-global cache of booted worlds, keyed by what makes a
//! simulation unique: (mode, machine, config, image, seed). Density
//! sweeps across the figure registry re-boot the same world to the
//! same guest counts — fig04, fig05, fig09 and the faults sweep all
//! grow an identical xl world, paying the superlinear boot cost each
//! time. This cache stores each distinct world *chain* once — its
//! per-create measurements plus a live world advanced in place — so
//! every other consumer forks the deepest cached prefix instead of
//! re-simulating it.
//!
//! A chain holds exactly two worlds, whatever is asked of it:
//!
//! * the **base** (a [`Snapshot`] at zero guests), so requests below
//!   the tip can replay deterministically, and
//! * the **tip** (the deepest world built so far), advanced *in place*
//!   when a deeper density is requested and forked to serve callers.
//!
//! Keeping one live tip instead of a snapshot per density matters: a
//! snapshot of a dense world is megabytes, and an early version of this
//! cache that deposited one per density step held hundreds of MB of
//! snapshots live for the whole run — slowing every later unit down by
//! 2-4x through sheer allocator/cache pressure, which cost more than
//! the re-simulation it saved.
//!
//! Correctness rests on two properties, both pinned by tests:
//!
//! * **Forks are faithful.** A forked world is digest-identical to a
//!   freshly simulated one (`proptest_snapshot.rs`), so measurements
//!   taken on or after a fork are byte-identical to the uncached run.
//! * **Chains are deterministic.** A chain is keyed by everything its
//!   evolution depends on (the simulation is fully seeded), and guests
//!   are named canonically (`{image}-{index}`), so whichever unit
//!   builds a prefix first, the chain is the same. Artefacts therefore
//!   do not depend on unit scheduling order, and `--no-snapshot-cache`
//!   (which routes every call through the same build code, minus the
//!   cache) produces identical bytes.
//!
//! Locking: one short-lived map lock to find/insert the chain entry,
//! then a per-chain mutex for the build/fork. Units that need the same
//! chain serialize (the second reuses the first's work — the point of
//! the cache); units on different chains proceed in parallel.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use guests::GuestImage;
use simcore::{Machine, Meter, SimTime};
use toolstack::snapshot::Snapshot;
use toolstack::{ControlPlane, ToolstackMode};

/// Everything a cached world's evolution depends on.
#[derive(Clone)]
pub struct WorldSpec {
    pub machine: Machine,
    pub dom0_cores: usize,
    pub mode: ToolstackMode,
    pub image: GuestImage,
    pub seed: u64,
}

impl WorldSpec {
    /// The world at step 0: constructed and prewarmed, no guests yet.
    fn build_base(&self) -> ControlPlane {
        let mut cp =
            ControlPlane::new(self.machine.clone(), self.dom0_cores, self.mode, self.seed);
        cp.prewarm(&self.image);
        cp
    }

    /// Short human-readable identity for scheduler labels/traces.
    pub fn label(&self) -> String {
        format!(
            "{}/{}c/{}/s{}",
            self.mode.label(),
            self.dom0_cores,
            self.image.name,
            self.seed
        )
    }

    /// Cache key. The mode/cores/image-name/seed tuple is the human-
    /// readable identity; the fingerprint hashes the full machine and
    /// image parameters (cost model included) so that two specs which
    /// merely *print* alike — say, an ablation's perturbed cost model
    /// on the stock machine name — can never share a chain.
    pub(crate) fn key(&self) -> Key {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{:?}|{:?}", self.machine, self.image).hash(&mut h);
        Key {
            mode: self.mode.label(),
            dom0_cores: self.dom0_cores,
            image: self.image.name.clone(),
            seed: self.seed,
            fingerprint: h.finish(),
        }
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct Key {
    mode: &'static str,
    dom0_cores: usize,
    image: String,
    seed: u64,
    fingerprint: u64,
}

/// One guest's measurements from a chain build, reusable by every
/// consumer of the chain (the guest index is the record's position).
#[derive(Clone)]
pub struct CreateRecord {
    /// Per-category creation cost breakdown (fig05 plots it; everyone
    /// else wants `create()`).
    pub meter: Meter,
    /// Boot latency.
    pub boot: SimTime,
    /// Whole-machine CPU utilisation right after this boot. Computing
    /// it walks every task, so it is sampled only where a figure can
    /// read it — densities on the ladder ([`crate::on_density_ladder`])
    /// — and is `NaN` elsewhere.
    pub util_after: f64,
}

impl CreateRecord {
    /// Total creation latency, as `create_and_boot` reports it.
    pub fn create(&self) -> SimTime {
        self.meter.total()
    }
}

/// What one `world_at` call did, for the per-unit perf report.
#[derive(Clone, Copy, Default)]
pub struct CacheStats {
    /// 1 if a cached prefix (beyond the empty base) was reused.
    pub hits: u64,
    /// Snapshot forks performed.
    pub forks: u64,
    /// create+boot sequences skipped thanks to cached prefixes.
    pub boots_saved: u64,
}

impl CacheStats {
    fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.forks += other.forks;
        self.boots_saved += other.boots_saved;
    }
}

/// Cheap world-level observables captured when a chain passes a rung:
/// everything a pure *reader* of the chain consumes besides the
/// per-create records. Capturing these as the chain climbs lets a
/// reader gated on "rung d published" serve its figure without
/// touching (or replaying) the live world at all — even after the tip
/// has grown past d.
#[derive(Clone, Copy, Debug)]
pub struct RungInfo {
    /// Simulated clock at this density, in milliseconds.
    pub virtual_ms: f64,
    /// Discrete simulation events processed so far (xenstored requests
    /// + watch deliveries + CPU-model task registrations).
    pub events: u64,
    /// XenStore access-log rotations so far (fig05 metadata).
    pub log_rotations: u64,
    /// Transaction conflicts so far (fig05 metadata).
    pub txn_conflicts: u64,
    /// Fast at-rest world digest (DESIGN.md §6h) at this rung. Not a
    /// figure input — a replay-from-base below the tip asserts against
    /// it, so a chain that ever diverges from its own published rungs
    /// fails loudly instead of serving two different "density d" worlds.
    pub digest: u128,
}

impl RungInfo {
    /// Reads the observables off a live world.
    pub fn capture(cp: &ControlPlane) -> RungInfo {
        let stats = cp.xs.stats();
        RungInfo {
            virtual_ms: cp.cpu.now().as_millis_f64(),
            events: stats.requests + stats.watch_events + cp.cpu.tasks_started(),
            log_rotations: cp.xs.log_rotations(),
            txn_conflicts: stats.txn_conflicts,
            digest: cp.world_digest64_at_rest(),
        }
    }
}

#[derive(Default)]
struct Chain {
    records: Vec<CreateRecord>,
    /// The world at zero guests, for replays below the tip.
    base: Option<Snapshot>,
    /// Deepest world built so far: (guests booted, live world).
    tip: Option<(usize, ControlPlane)>,
    /// Observables published per density-ladder rung as the chain
    /// climbed (plus every explicitly requested target).
    info: HashMap<usize, RungInfo>,
}

type ChainRef = Arc<Mutex<Chain>>;

static CACHE: OnceLock<Mutex<HashMap<Key, ChainRef>>> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(true);

// Process totals for the runall summary line.
static HITS: AtomicU64 = AtomicU64::new(0);
static FORKS: AtomicU64 = AtomicU64::new(0);
static BOOTS_SAVED: AtomicU64 = AtomicU64::new(0);
static BOOTS_SIMULATED: AtomicU64 = AtomicU64::new(0);

/// Globally enables/disables the cache (`runall --no-snapshot-cache`).
/// Disabled, `world_at` runs the identical build code without storing
/// or consulting anything, so artefacts stay byte-identical.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether the cache is currently consulted.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Drops every cached chain and zeroes the counters (microbenches).
pub fn clear() {
    if let Some(m) = CACHE.get() {
        m.lock().expect("worldcache map lock").clear();
    }
    for c in [&HITS, &FORKS, &BOOTS_SAVED, &BOOTS_SIMULATED] {
        c.store(0, Ordering::SeqCst);
    }
}

/// Counts `n` boots skipped by a cache reuse outside `world_at` (the
/// probe-walk memo in [`crate::probewalk`]).
pub(crate) fn note_reuse(boots_saved: u64) {
    HITS.fetch_add(1, Ordering::Relaxed);
    BOOTS_SAVED.fetch_add(boots_saved, Ordering::Relaxed);
}

/// Counts a simulated create+boot (chain builds and probe walks).
pub(crate) fn note_boot() {
    BOOTS_SIMULATED.fetch_add(1, Ordering::Relaxed);
}

/// Counts a world fork served to a consumer.
pub(crate) fn note_fork() {
    FORKS.fetch_add(1, Ordering::Relaxed);
}

/// One-line process summary for runall.
pub fn summary() -> String {
    if !enabled() {
        return "worldcache disabled (--no-snapshot-cache)".to_string();
    }
    let chains = CACHE
        .get()
        .map_or(0, |m| m.lock().expect("worldcache map lock").len());
    format!(
        "worldcache: {} chains, {} hits, {} forks, {} boots saved ({} simulated)",
        chains,
        HITS.load(Ordering::SeqCst),
        FORKS.load(Ordering::SeqCst),
        BOOTS_SAVED.load(Ordering::SeqCst),
        BOOTS_SIMULATED.load(Ordering::SeqCst),
    )
}

fn chain_for(key: Key) -> ChainRef {
    let map = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    Arc::clone(
        map.lock()
            .expect("worldcache map lock")
            .entry(key)
            .or_default(),
    )
}

/// Boots guests `from..to` with canonical names, recording measurements
/// for indices the chain has not seen and publishing [`RungInfo`] at
/// every density-ladder rung crossed (and at `to` itself). Capturing
/// rung observables is read-only — the world's evolution is identical
/// with or without it, which is what keeps cached and uncached
/// artefacts byte-identical.
fn advance(
    cp: &mut ControlPlane,
    image: &GuestImage,
    from: usize,
    to: usize,
    records: &mut Vec<CreateRecord>,
    mut info: Option<&mut HashMap<usize, RungInfo>>,
) {
    for i in from..to {
        let (report, boot) = cp
            .create_and_boot_report(&format!("{}-{i}", image.name), image)
            .expect("world chain create+boot");
        note_boot();
        let done = i + 1;
        if i >= records.len() {
            records.push(CreateRecord {
                meter: report.meter,
                boot,
                util_after: if crate::on_density_ladder(done) {
                    cp.cpu_utilization()
                } else {
                    f64::NAN
                },
            });
        }
        if crate::on_density_ladder(done) {
            if let Some(info) = info.as_deref_mut() {
                info.entry(done).or_insert_with(|| RungInfo::capture(cp));
            }
        }
    }
    if let Some(info) = info {
        info.entry(to).or_insert_with(|| RungInfo::capture(cp));
    }
}

/// Brings `spec`'s chain to at least `target` guests and hands the
/// world at exactly `target` to `consume` — without cloning it when the
/// tip already sits at the right density. The cache-disabled path
/// simulates from scratch and consumes that world, byte-identically.
fn with_world_at<T>(
    spec: &WorldSpec,
    target: usize,
    consume: impl FnOnce(&ControlPlane, &[CreateRecord]) -> T,
) -> (T, Vec<CreateRecord>, CacheStats) {
    let mut stats = CacheStats::default();
    if !enabled() {
        let mut cp = spec.build_base();
        let mut records = Vec::new();
        advance(&mut cp, &spec.image, 0, target, &mut records, None);
        let out = consume(&cp, &records);
        return (out, records, stats);
    }

    let chain = chain_for(spec.key());
    let mut chain = chain.lock().expect("worldcache chain lock");
    if chain.tip.is_none() {
        let cp = spec.build_base();
        chain.base = Some(cp.snapshot());
        chain.tip = Some((0, cp));
    }
    let Chain {
        records,
        base,
        tip: Some((at, world)),
        info,
    } = &mut *chain
    else {
        unreachable!("tip installed above")
    };

    let out = if *at <= target {
        if *at > 0 {
            stats.hits = 1;
            stats.boots_saved = *at as u64;
            note_reuse(*at as u64);
        }
        advance(world, &spec.image, *at, target, records, Some(info));
        *at = target;
        consume(world, records)
    } else {
        // Below the tip: replay from the base. No boots are saved, but
        // the records for this prefix are, and the tip stays deep for
        // the consumers that want it.
        let published = info.get(&target).map(|r| r.digest);
        let mut cp = base.as_ref().expect("base set with tip").fork();
        advance(&mut cp, &spec.image, 0, target, records, Some(info));
        // The rung was published when the chain first climbed past
        // `target`; a replay of the same prefix must land on the same
        // world. Cheap with warm hash caches, and it turns silent
        // chain/replay divergence into a loud failure.
        if let Some(digest) = published {
            assert_eq!(
                cp.world_digest64_at_rest(),
                digest,
                "worldcache: replay from base diverged from the rung published at density {target}"
            );
        }
        consume(&cp, records)
    };
    (out, records[..target].to_vec(), stats)
}

/// Returns the world with exactly `target` guests booted under `spec`,
/// plus the per-create records for guests `0..target`.
///
/// With the cache enabled, the chain's live tip is advanced in place to
/// `target` (reusing every boot already simulated) and the caller gets
/// a fork; a request *below* the tip replays from the base snapshot —
/// the records are already known, so that path only pays for the world
/// itself. Disabled, it simulates from scratch, byte-identically.
/// Consumers that only read measurements should prefer [`records_at`],
/// which skips the fork (cloning a dense store-mode world costs
/// milliseconds).
pub fn world_at(spec: &WorldSpec, target: usize) -> (ControlPlane, Vec<CreateRecord>, CacheStats) {
    let (cp, records, mut stats) = with_world_at(spec, target, |world, _| world.fork());
    stats.forks = 1;
    note_fork();
    (cp, records, stats)
}

/// Chain-task entry point: advances `spec`'s chain tip in place to
/// `target`, publishing records and rung observables on the way, and
/// returns how many boots this call simulated. A tip
/// already at or past `target` makes this a no-op — the scheduler
/// orders rung tasks so each one climbs exactly its own span. No-op
/// when the cache is disabled (the planner emits no chain tasks then,
/// but a stray call must not populate a cache the run has sworn off).
pub fn build_to(spec: &WorldSpec, target: usize) -> u64 {
    if !enabled() {
        return 0;
    }
    let chain = chain_for(spec.key());
    let mut chain = chain.lock().expect("worldcache chain lock");
    if chain.tip.is_none() {
        let cp = spec.build_base();
        chain.base = Some(cp.snapshot());
        chain.tip = Some((0, cp));
    }
    let Chain {
        records,
        tip: Some((at, world)),
        info,
        ..
    } = &mut *chain
    else {
        unreachable!("tip installed above")
    };
    if *at < target {
        let boots = (target - *at) as u64;
        advance(world, &spec.image, *at, target, records, Some(info));
        *at = target;
        boots
    } else {
        // Ensure the rung is published even when a warm cache already
        // sits exactly at the target.
        if *at == target {
            info.entry(target).or_insert_with(|| RungInfo::capture(world));
        }
        0
    }
}

/// Whether `spec`'s chain already has `target` records and the rung
/// observables for `target` published, i.e. a [`records_at`] reader
/// would be served without touching the live world. The planner skips
/// emitting chain tasks for rungs that are already warm from an
/// earlier in-process run. Never creates a chain entry.
pub fn rung_published(spec: &WorldSpec, target: usize) -> bool {
    if !enabled() {
        return false;
    }
    let Some(map) = CACHE.get() else {
        return false;
    };
    let Some(chain) = map
        .lock()
        .expect("worldcache map lock")
        .get(&spec.key())
        .map(Arc::clone)
    else {
        return false;
    };
    let chain = chain.lock().expect("worldcache chain lock");
    chain.records.len() >= target && chain.info.contains_key(&target)
}

/// The fast at-rest digest published for `spec`'s chain at `target`,
/// if any. Pure read (never creates a chain entry); the probe walk
/// cross-checks each deposited fork against it.
pub fn published_digest(spec: &WorldSpec, target: usize) -> Option<u128> {
    let chain = CACHE
        .get()?
        .lock()
        .expect("worldcache map lock")
        .get(&spec.key())
        .map(Arc::clone)?;
    let chain = chain.lock().expect("worldcache chain lock");
    chain.info.get(&target).map(|r| r.digest)
}

/// Like [`world_at`], but returns only the per-create records plus the
/// rung observables ([`RungInfo`]) at `target` — no fork, and, when a
/// chain task already published the rung, no contact with the live
/// world at all: the reader serves entirely from captured state, even
/// if the tip has long climbed past `target`. This is the sweep-figure
/// path; its artefacts are functions of the records and the rung
/// observables alone.
pub fn records_at(spec: &WorldSpec, target: usize) -> (RungInfo, Vec<CreateRecord>, CacheStats) {
    if enabled() {
        let chain = chain_for(spec.key());
        let chain = chain.lock().expect("worldcache chain lock");
        if chain.records.len() >= target {
            if let Some(&info) = chain.info.get(&target) {
                // Pure read: every boot below `target` is served from
                // the chain, whoever built it.
                let mut stats = CacheStats::default();
                if target > 0 {
                    stats.hits = 1;
                    stats.boots_saved = target as u64;
                    note_reuse(target as u64);
                }
                let records = chain.records[..target].to_vec();
                return (info, records, stats);
            }
        }
        drop(chain);
    }
    with_world_at(spec, target, |world, _| RungInfo::capture(world))
}

static COMPUTE_MEMO: OnceLock<Mutex<HashMap<String, lightvm::usecases::compute::ComputeResult>>> =
    OnceLock::new();

/// Memoizes `compute::run` for the figures that share a config
/// (fig17 and fig18 run the identical overload simulation). Same
/// enable flag as the world cache; a miss runs the simulation inline.
pub fn compute_cached(
    cfg: &lightvm::usecases::compute::ComputeConfig,
) -> (lightvm::usecases::compute::ComputeResult, CacheStats) {
    use lightvm::usecases::compute;
    if !enabled() {
        return (compute::run(cfg), CacheStats::default());
    }
    let key = format!("{:?}", cfg);
    let memo = COMPUTE_MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    let mut memo = memo.lock().expect("compute memo lock");
    if let Some(hit) = memo.get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return (
            hit.clone(),
            CacheStats {
                hits: 1,
                ..CacheStats::default()
            },
        );
    }
    let r = compute::run(cfg);
    memo.insert(key, r.clone());
    (r, CacheStats::default())
}

/// Whether a compute run for `cfg` is already memoized — the planner
/// skips emitting a compute task for it (a warm cache across repeated
/// in-process runs).
pub fn compute_is_cached(cfg: &lightvm::usecases::compute::ComputeConfig) -> bool {
    enabled()
        && COMPUTE_MEMO
            .get()
            .is_some_and(|m| m.lock().expect("compute memo lock").contains_key(&format!("{:?}", cfg)))
}

impl CacheStats {
    /// Folds these stats into a unit output.
    pub fn into_output(self, out: &mut crate::figures::UnitOutput) {
        out.snapshot_hits += self.hits;
        out.snapshot_forks += self.forks;
        out.boot_events_saved += self.boots_saved;
    }
}

/// Merges two stats (units that consult the cache more than once).
impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, other: CacheStats) {
        self.absorb(other);
    }
}
