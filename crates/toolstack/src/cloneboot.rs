//! Template boots: delta-replay guest instantiation.
//!
//! The first create+boot of a *template shape* — a `(lineage, image,
//! create path)` triple — runs fully and records the create as a
//! reusable delta: the per-phase simulated-cost trace, the store-node
//! and watch-count deltas it left behind, and the density-dependent
//! cost inputs the traced phases read (store size, running count, log
//! length). Subsequent creates of the same shape *replay* the delta:
//! every phase re-executes the real toolstack code — provisioning,
//! registration, device announce/connect, CPU contention, and xl's
//! unique-name check.
//!
//! This module does not replace the name check: its closed form
//! ([`xenstore::Xenstored::replay_name_scan`], integer-exactly what the
//! per-request scan charges, because every protocol cost is `u64`
//! nanosecond arithmetic and `n * per_request == Σ requests` holds
//! bit-for-bit) is the control plane's default for *every* xl create,
//! behind one hash probe of the store's `/local/domain` summary
//! ([`ControlPlane::xl_name_check`]). What this module adds on top is
//! template bookkeeping only: the per-replay drift and content checks,
//! first-replay dual execution, and the counters ([`totals`],
//! [`fallback_total`]), which still count the replays whose name check
//! took the closed form and those whose probe hit and ran the real
//! scan.
//!
//! Identity remapping comes for free from re-executing real code: the
//! new guest draws its own [`hypervisor::DomId`], interns its own
//! store symbols through the lineage's shared
//! interner, and allocates its own event channels and grant refs — the
//! template never stores ids that need rewriting, so there is no
//! translation table to get wrong.
//!
//! Validity is enforced at three levels, all failing *safe* (the worst
//! case of any mismatch is losing the speedup, never a wrong world).
//! PR 7 shipped with level 3 *sampled* (every 1024th replay) because
//! each verification cost two O(world) string digests; incremental
//! Merkle digests (DESIGN.md §6h) retired the sampling — **every
//! replay is now verified**, and there is no interval constant left:
//!
//! 1. **Per-create name probe** (uncharged, in the plane itself): the
//!    closed-form name check charges from the store's `/local/domain`
//!    summary whatever that directory holds, and only a hash hit on
//!    the requested name (a collision, or a false positive) runs the
//!    real scan, silently (see [`ControlPlane::xl_name_check`]).
//! 2. **Per-replay drift + content check**: the store-node delta left
//!    by a replayed create must equal the template's recorded delta,
//!    *and* the guest's store subtrees (frontend/domain dir, `/vm`
//!    entry, Dom0 backend dirs) must match the template's learned
//!    content mask — per-node value hashes, position-independent, with
//!    the fields that legitimately vary per create (domid-derived
//!    values, MACs, event channels, grant refs) learned by diffing the
//!    exemplar against the first verified replay rather than
//!    hard-coded. Any mismatch poisons the template.
//! 3. **First-replay dual execution**: the first replay of a template
//!    runs on a fork while the canonical plane runs the full path; the
//!    reported latencies and the fast
//!    [`ControlPlane::world_digest64_at_rest`] world digests must
//!    agree exactly, the two guests' subtree contents must be
//!    identical, and the content mask is learned here. Any difference
//!    poisons the template.
//!
//! The whole subsystem is gated like the snapshot cache: `runall
//! --no-clone-boot` (or [`set_enabled`]) routes every create through
//! [`ControlPlane::create_and_boot`] untouched, and CI byte-compares
//! the figure artefacts both ways.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use guests::GuestImage;
use hypervisor::DomId;
use simcore::SimTime;

use crate::plane::{ControlPlane, CreateReport, PlaneError, ToolstackMode};

/// What identifies a template shape. The lineage pins mode, machine,
/// Dom0 sizing and the interned-symbol history (clones and snapshot
/// forks share all of them); the image fingerprint pins every field
/// the create path branches on; `from_shell` separates the split
/// daemon's pooled path from the full path.
#[derive(Clone, PartialEq, Eq, Hash)]
struct TemplateKey {
    lineage: u64,
    image_name: String,
    mem_mib: u64,
    image_bytes: u64,
    kind: u8,
    watches: u32,
    needs_net: bool,
    needs_block: bool,
    needs_console: bool,
    from_shell: bool,
}

impl TemplateKey {
    fn new(cp: &ControlPlane, image: &GuestImage, from_shell: bool) -> TemplateKey {
        TemplateKey {
            lineage: cp.lineage,
            image_name: image.name.clone(),
            mem_mib: image.mem_mib,
            image_bytes: image.image_bytes,
            kind: image.kind as u8,
            watches: image.watches,
            needs_net: image.needs_net,
            needs_block: image.needs_block,
            needs_console: image.needs_console,
            from_shell,
        }
    }
}

/// The density-dependent inputs the exemplar's traced phases read.
/// They are recorded for the drift story — the replay recomputes all
/// of them live (real code), so their drift changes charges *with* the
/// simulation instead of invalidating the template.
#[derive(Clone, Copy, Debug, Default)]
struct CostInputs {
    store_nodes: usize,
    running: usize,
    log_lines: u64,
}

impl CostInputs {
    fn of(cp: &ControlPlane) -> CostInputs {
        CostInputs {
            store_nodes: cp.xs.store().node_count(),
            running: cp.running_count(),
            log_lines: cp.xs.log_total_lines(),
        }
    }
}

/// Sorted `(relative-path hash, value hash)` pairs for every store
/// node a create leaves under the guest's roots — see [`guest_content`].
type ContentList = Vec<(u64, u128)>;

/// [`ContentList`] with per-create-variable values masked out: `None`
/// means "present, value varies per create" (learned, not hard-coded).
type ContentMask = Vec<(u64, Option<u128>)>;

/// A recorded template boot.
struct Template {
    /// `(phase tag, cumulative simulated cost)` breakpoints of the
    /// exemplar create.
    phase_trace: Vec<(&'static str, SimTime)>,
    /// Store nodes the exemplar create+boot added. The steady-state
    /// delta (`steady_nodes`) is smaller: the exemplar also creates
    /// one-time parent directories (`/local/domain`, `/vm`, ...).
    nodes_written: i64,
    /// Store-node delta of a steady-state create, recorded at the
    /// first replay (which is always digest-verified) and required of
    /// every later one.
    steady_nodes: Option<i64>,
    /// Watch registrations it added.
    watches_registered: i64,
    /// Cost inputs at exemplar time (drift reference; see
    /// [`CostInputs`]).
    recorded_at: CostInputs,
    /// Guest-subtree content the exemplar create left behind (mask
    /// input; never compared against replays directly — the exemplar
    /// also created one-time parents and carries its own domid-derived
    /// values).
    exemplar_content: ContentList,
    /// Per-node content expectations for steady-state creates, learned
    /// at the first (dual-executed) replay by diffing its guest content
    /// against [`Template::exemplar_content`]: equal values must
    /// reproduce exactly on every later replay, differing ones are
    /// per-create-variable and only checked for presence.
    content_mask: Option<ContentMask>,
    /// Replays applied so far.
    replays: u64,
    /// True once any check failed; poisoned templates are never
    /// replayed again (creates run fully).
    poisoned: bool,
}

fn registry() -> &'static Mutex<HashMap<TemplateKey, Template>> {
    static REGISTRY: OnceLock<Mutex<HashMap<TemplateKey, Template>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Per-plane clone-boot counters, accumulated on the [`ControlPlane`]
/// a create runs on. Unlike the process-global totals below, these are
/// race-free under parallel workers: a caller diffs the plane's own
/// counters around its builds to attribute work to itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct CloneStats {
    /// Creates that found a usable template.
    pub hits: u64,
    /// Creates whose name scan was replayed in closed form.
    pub replayed: u64,
    /// Store-engine requests those replays avoided.
    pub saved: u64,
}

/// Creates that found a usable (non-poisoned) template.
static HITS: AtomicU64 = AtomicU64::new(0);
/// Creates where the closed-form name scan actually applied.
static REPLAYED: AtomicU64 = AtomicU64::new(0);
/// Store-engine requests the closed form avoided.
static EVENTS_SAVED: AtomicU64 = AtomicU64::new(0);
/// Replays whose name probe hit and ran the real scan.
static FALLBACKS: AtomicU64 = AtomicU64::new(0);
/// Dual-execution (fork + full path) verifications performed — one per
/// template, at its first replay. Every replay additionally runs the
/// drift + content checks, which have no counter: they are universal.
static VERIFIES: AtomicU64 = AtomicU64::new(0);
/// Templates poisoned by a failed check.
static POISONS: AtomicU64 = AtomicU64::new(0);

/// Globally enables/disables template boots (the `--no-clone-boot`
/// ablation). Off, every create runs fully.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True if template boots are on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// `(hits, replays, events saved)` since process start.
pub fn totals() -> (u64, u64, u64) {
    (
        HITS.load(Ordering::Relaxed),
        REPLAYED.load(Ordering::Relaxed),
        EVENTS_SAVED.load(Ordering::Relaxed),
    )
}

/// Replays whose xl name probe hit and ran the real scan (tests:
/// the counter is process-global, so assert on before/after deltas).
pub fn fallback_total() -> u64 {
    FALLBACKS.load(Ordering::Relaxed)
}

/// One-line summary for run reports.
pub fn summary() -> String {
    format!(
        "hits {} replayed {} events-saved {} fallbacks {} verifies {} poisons {}",
        HITS.load(Ordering::Relaxed),
        REPLAYED.load(Ordering::Relaxed),
        EVENTS_SAVED.load(Ordering::Relaxed),
        FALLBACKS.load(Ordering::Relaxed),
        VERIFIES.load(Ordering::Relaxed),
        POISONS.load(Ordering::Relaxed),
    )
}

/// Drops every recorded template and zeroes the counters (tests).
pub fn clear() {
    registry().lock().unwrap().clear();
    for c in [&HITS, &REPLAYED, &EVENTS_SAVED, &FALLBACKS, &VERIFIES, &POISONS] {
        c.store(0, Ordering::Relaxed);
    }
}

/// What the registry knows about one template (tests/diagnostics).
#[derive(Clone, Debug)]
pub struct TemplateInfo {
    /// Phase breakpoints the exemplar recorded.
    pub phases: usize,
    /// Store nodes the exemplar create+boot added.
    pub nodes_written: i64,
    /// Watch registrations it added.
    pub watches_registered: i64,
    /// Store size when the exemplar ran (density drift reference).
    pub recorded_store_nodes: usize,
    /// Running guests when the exemplar ran.
    pub recorded_running: usize,
    /// Access-log length when the exemplar ran.
    pub recorded_log_lines: u64,
    /// Replays applied so far.
    pub replays: u64,
    /// Whether a failed check retired this template.
    pub poisoned: bool,
}

/// Looks up the template for `cp`'s lineage and `image` (either create
/// path), if one exists.
pub fn template_info(cp: &ControlPlane, image: &GuestImage) -> Option<TemplateInfo> {
    for from_shell in [false, true] {
        let key = TemplateKey::new(cp, image, from_shell);
        if let Some(t) = registry().lock().unwrap().get(&key) {
            return Some(TemplateInfo {
                phases: t.phase_trace.len(),
                nodes_written: t.nodes_written,
                watches_registered: t.watches_registered,
                recorded_store_nodes: t.recorded_at.store_nodes,
                recorded_running: t.recorded_at.running,
                recorded_log_lines: t.recorded_at.log_lines,
                replays: t.replays,
                poisoned: t.poisoned,
            });
        }
    }
    None
}

/// [`ControlPlane::create_and_boot`] through the template cache: the
/// first create of a shape records an exemplar, later ones replay it
/// under the drift and content checks. Same signature, same results,
/// same simulated charges.
pub fn create_and_boot(
    cp: &mut ControlPlane,
    name: &str,
    image: &GuestImage,
) -> Result<(DomId, SimTime, SimTime), PlaneError> {
    let (report, boot) = create_and_boot_report(cp, name, image)?;
    Ok((report.dom, report.total(), boot))
}

/// [`create_and_boot`] keeping the full [`CreateReport`] (what the
/// worldcache's chain builds record for Figure 5's breakdown).
pub fn create_and_boot_report(
    cp: &mut ControlPlane,
    name: &str,
    image: &GuestImage,
) -> Result<(CreateReport, SimTime), PlaneError> {
    // An active fault plan can fail any phase; templates only describe
    // the fault-free path, so bypass entirely.
    if !enabled() || cp.faults.is_active() {
        return cp.create_and_boot_report(name, image);
    }
    let from_shell = cp.mode.uses_split() && cp.daemon.peek(image.mem_mib, image.needs_net);
    let key = TemplateKey::new(cp, image, from_shell);

    enum Plan {
        Record,
        Skip,
        Replay { verify: bool },
    }
    let plan = {
        let mut reg = registry().lock().unwrap();
        match reg.get_mut(&key) {
            None => Plan::Record,
            Some(t) if t.poisoned => Plan::Skip,
            Some(t) => {
                // The first replay dual-executes against the full path
                // (and learns the content mask); every replay after it
                // is content-verified in place — no sampling interval.
                let verify = t.replays == 0;
                t.replays += 1;
                Plan::Replay { verify }
            }
        }
    };

    match plan {
        Plan::Skip => cp.create_and_boot_report(name, image),
        Plan::Record => record_exemplar(cp, name, image, key),
        Plan::Replay { verify } => {
            HITS.fetch_add(1, Ordering::Relaxed);
            cp.clone_stats.hits += 1;
            if verify {
                verified_replay(cp, name, image, key)
            } else {
                replay(cp, name, image, key)
            }
        }
    }
}

/// Captures the store content a create left behind for guest `dom`:
/// every node under the guest's frontend/domain dir, its `/vm` entry,
/// and its Dom0 backend dirs, as sorted `(relative-path hash, value
/// hash)` pairs. Paths hash relative to a per-root tag, so the same
/// subtree shape under two different domids yields identical path
/// hashes — values that embed the domid (MACs, frontend ids, event
/// channels) still differ, which is exactly what the learned mask
/// absorbs. Roots a mode never writes (noxs keeps almost nothing in
/// the store) simply contribute nothing.
fn guest_content(cp: &ControlPlane, dom: DomId) -> ContentList {
    let store = cp.xs.store();
    let mut out = Vec::with_capacity(64);
    // Roots resolve without interning: this runs on every replay, and
    // probing for dirs a mode never writes must not permanently grow
    // the interner (which every world clone would then pay to copy).
    if let Some(root) = cp.xs.resolve_domain_dir_sym(dom.0) {
        store.subtree_leaves_hashed(root, 0, &mut out);
    }
    if let Some(root) = cp.xs.resolve_vm_dir_sym(dom.0) {
        store.subtree_leaves_hashed(root, 1, &mut out);
    }
    for (tag, kind) in [(2u64, "vif"), (3, "vbd"), (4, "console"), (5, "sysctl")] {
        if let Some(root) = cp.xs.resolve_backend_domain_dir_sym(0, kind, dom.0) {
            store.subtree_leaves_hashed(root, tag, &mut out);
        }
    }
    out.sort_unstable();
    out
}

/// Learns which per-node values are create-invariant by diffing the
/// exemplar's guest content against a verified steady-state create's.
/// Both lists are sorted by path hash; a path present in one but not
/// the other means the subtree *shape* varies per create — no mask can
/// police that, so the caller must poison (`None`).
fn build_mask(exemplar: &ContentList, steady: &ContentList) -> Option<ContentMask> {
    if exemplar.len() != steady.len() {
        return None;
    }
    exemplar
        .iter()
        .zip(steady)
        .map(|(&(ep, ev), &(sp, sv))| {
            if ep != sp {
                return None;
            }
            Some((sp, if ev == sv { Some(sv) } else { None }))
        })
        .collect()
}

/// True if a replayed create's guest content satisfies the mask: same
/// node set, and every create-invariant value reproduced exactly.
fn content_matches(mask: &ContentMask, content: &ContentList) -> bool {
    mask.len() == content.len()
        && mask
            .iter()
            .zip(content)
            .all(|(&(mp, mv), &(cp, cv))| mp == cp && mv.is_none_or(|v| v == cv))
}

/// Full create+boot with phase tracing on; on success the delta it
/// left behind becomes the template.
fn record_exemplar(
    cp: &mut ControlPlane,
    name: &str,
    image: &GuestImage,
    key: TemplateKey,
) -> Result<(CreateReport, SimTime), PlaneError> {
    let before = CostInputs::of(cp);
    let watches_before = cp.xs.watch_count() as i64;
    cp.phase_trace = Some(Vec::new());
    let result = cp.create_and_boot_report(name, image);
    let phase_trace = cp.phase_trace.take().unwrap_or_default();
    if let Ok((report, _)) = &result {
        let template = Template {
            phase_trace,
            nodes_written: cp.xs.store().node_count() as i64 - before.store_nodes as i64,
            steady_nodes: None,
            watches_registered: cp.xs.watch_count() as i64 - watches_before,
            recorded_at: before,
            exemplar_content: guest_content(cp, report.dom),
            content_mask: None,
            replays: 0,
            poisoned: false,
        };
        registry().lock().unwrap().insert(key, template);
    }
    result
}

/// A replayed create: real code everywhere (the plane's name check
/// takes its closed form unless the name may be taken); afterwards, the
/// node-delta drift check and the learned-mask content check — both
/// on *every* replay.
fn replay(
    cp: &mut ControlPlane,
    name: &str,
    image: &GuestImage,
    key: TemplateKey,
) -> Result<(CreateReport, SimTime), PlaneError> {
    let nodes_before = cp.xs.store().node_count() as i64;
    cp.last_scan_replayed = false;
    cp.last_scan_saved = 0;
    let result = cp.create_and_boot_report(name, image);
    let scan_replayed = cp.last_scan_replayed;
    if scan_replayed {
        REPLAYED.fetch_add(1, Ordering::Relaxed);
        EVENTS_SAVED.fetch_add(cp.last_scan_saved, Ordering::Relaxed);
        cp.clone_stats.replayed += 1;
        cp.clone_stats.saved += cp.last_scan_saved;
    } else if cp.mode == ToolstackMode::Xl {
        FALLBACKS.fetch_add(1, Ordering::Relaxed);
    }
    if let Ok((report, _)) = &result {
        // Drift check: a steady-state create always leaves the same
        // node delta (the exemplar's own delta is larger — it also
        // created one-time parent directories — so the reference is
        // taken at the first replay, which is dual-execution-verified).
        let delta = cp.xs.store().node_count() as i64 - nodes_before;
        // Content check: the guest's subtrees must satisfy the mask
        // learned at the first replay (None until then — the first
        // replay is covered by dual execution instead).
        let content = guest_content(cp, report.dom);
        let mut reg = registry().lock().unwrap();
        if let Some(t) = reg.get_mut(&key) {
            let drift_ok = match t.steady_nodes {
                None => {
                    t.steady_nodes = Some(delta);
                    true
                }
                // An exemplar-shaped delta is the other legitimate
                // steady state: a replay on a fresh fork of the
                // lineage's base world (worldcache's replay-from-base
                // path) re-creates the one-time parent directories the
                // exemplar did, so it writes `nodes_written` nodes,
                // not the post-warmup count. Anything else is drift.
                Some(expected) => expected == delta || delta == t.nodes_written,
            };
            let content_ok = match &t.content_mask {
                Some(mask) => content_matches(mask, &content),
                None => true,
            };
            if !(drift_ok && content_ok) {
                drop(reg);
                poison(&key);
            }
        }
    }
    result
}

/// The first replay of a template: the replay runs on a fork, the
/// canonical plane runs the full path, and the two worlds must agree
/// exactly — reported latencies, fast world digests (at rest: both
/// worlds carry identical pending events iff they evolved
/// identically), and the new guests' subtree contents. On agreement
/// the content mask for all later replays is learned by diffing the
/// verified content against the exemplar's.
fn verified_replay(
    cp: &mut ControlPlane,
    name: &str,
    image: &GuestImage,
    key: TemplateKey,
) -> Result<(CreateReport, SimTime), PlaneError> {
    VERIFIES.fetch_add(1, Ordering::Relaxed);
    let mut probe = cp.fork();
    let fast = replay(&mut probe, name, image, key.clone());
    let full = cp.create_and_boot_report(name, image);
    let agree = match (&fast, &full) {
        (Ok((fast_report, fast_boot)), Ok((full_report, full_boot))) => {
            fast_report.dom == full_report.dom
                && fast_report.total() == full_report.total()
                && fast_boot == full_boot
                && probe.world_digest64_at_rest() == cp.world_digest64_at_rest()
                && guest_content(&probe, fast_report.dom)
                    == guest_content(cp, full_report.dom)
        }
        (Err(_), Err(_)) => true,
        _ => false,
    };
    if !agree {
        poison(&key);
    } else if let Ok((report, _)) = &full {
        let steady = guest_content(cp, report.dom);
        let mut reg = registry().lock().unwrap();
        if let Some(t) = reg.get_mut(&key) {
            match build_mask(&t.exemplar_content, &steady) {
                Some(mask) => t.content_mask = Some(mask),
                None => {
                    // The subtree shape itself varies between the
                    // exemplar and a steady-state create: nothing the
                    // mask can police, so retire the template.
                    drop(reg);
                    poison(&key);
                }
            }
        }
    }
    full
}

fn poison(key: &TemplateKey) {
    POISONS.fetch_add(1, Ordering::Relaxed);
    if let Some(t) = registry().lock().unwrap().get_mut(key) {
        t.poisoned = true;
    }
}
