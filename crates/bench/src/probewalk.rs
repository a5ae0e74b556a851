//! Shared probe walk behind the checkpoint/migration figures.
//!
//! fig12a (save), fig12b (restore) and fig13 (migrate) all walk the
//! same world — Xeon, 2 Dom0 cores, daytime unikernel, seed 42 — up
//! the density ladder and probe it destructively at every step. The
//! probes must see a *pristine* world, so each density probes a
//! throwaway [`ControlPlane::fork`] while the live source keeps
//! growing untouched; and because the three figures' probe streams are
//! independently seeded, one walk can measure all of them in a single
//! pass. The walk is memoized per (mode, steps) under the worldcache
//! enable flag: cached, each mode's world boots once per process
//! instead of once per figure; uncached, every figure unit re-runs the
//! identical walk and gets identical bytes.
//!
//! Under the DAG scheduler the walk is decomposed into tasks: one
//! *chain* task per density rung climbs the shared worldcache chain
//! and deposits a probe fork, and one *probe* task per rung consumes
//! that fork. Probe tasks chain on each other (the RNG pick streams
//! and the accumulating migration destination are sequential state),
//! but they pipeline behind the chain builder: rung d's probes run
//! while the chain climbs toward d+1. [`WalkBuilder`] holds the
//! sequential state between tasks; the final probe task publishes the
//! assembled [`Walk`] into the same memo that the inline path fills,
//! so consuming units cannot tell who built it. The inline fallback
//! ([`walk`] on a cold memo, or with the cache disabled) drives the
//! identical probe body, which is what keeps the bytes equal.
//!
//! Old behaviour note: the pre-cache figures probed the live world in
//! place, so a save/restore round-trip left domain ids and RNG draws
//! behind for the next density. Probing forks instead isolates every
//! density — the measured latencies are the ones a fresh world of that
//! density would show.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use guests::GuestImage;
use simcore::{Machine, MachinePreset, SimRng};
use toolstack::{ControlPlane, ToolstackMode};

use crate::figures::UnitOutput;
use crate::worldcache::{self, CacheStats, WorldSpec};

/// Domains probed per density step (matches the paper's methodology).
const PROBES_PER_STEP: usize = 10;

/// RNG seed for the save/restore pick stream (fig12a/b).
const CKPT_RNG_SEED: u64 = 11;

/// RNG seed for the migration pick stream (fig13).
const MIG_RNG_SEED: u64 = 7;

/// Mean probe latencies at one density.
#[derive(Clone, Copy)]
pub struct StepProbe {
    pub n: usize,
    pub save_ms: f64,
    pub restore_ms: f64,
    pub migrate_ms: f64,
}

/// Perf-report numbers a consuming unit inherits from the walk.
#[derive(Clone, Copy)]
pub struct WalkStats {
    pub virtual_ms: f64,
    pub events: u64,
}

/// One mode's complete probe walk.
pub struct Walk {
    pub rows: Vec<StepProbe>,
    /// create+boot sequences the walk's world covers (credited as saved
    /// to units that reuse the memoized walk).
    pub boots: u64,
    /// Throwaway probe forks taken.
    pub forks: u64,
    /// Stats of the final probe world (fig12a/b report).
    pub probe: WalkStats,
    /// Events on the accumulated destination host (fig13 adds these to
    /// the probe world's).
    pub dst_events: u64,
}

fn xeon() -> Machine {
    Machine::preset(MachinePreset::XeonE5_1630V3)
}

/// The world the walk climbs: the same spec whether the climb happens
/// inline or as scheduled chain tasks against the worldcache.
pub(crate) fn chain_spec(mode: ToolstackMode) -> WorldSpec {
    WorldSpec {
        machine: xeon(),
        dom0_cores: 2,
        mode,
        image: GuestImage::unikernel_daytime(),
        seed: 42,
    }
}

/// The sequential state a walk threads through its density steps: the
/// two probe-pick RNG streams, the accumulating migration destination,
/// and the measured rows. One instance serves both execution shapes —
/// the inline loop and the scheduler's probe tasks — so the probe body
/// exists exactly once.
struct WalkState {
    link: lvnet::Link,
    dst: ControlPlane,
    rng_ckpt: SimRng,
    rng_mig: SimRng,
    rows: Vec<StepProbe>,
    /// Probe forks deposited by chain tasks, keyed by step index. The
    /// scheduler's throttle edges bound how many sit here at once.
    pending: HashMap<usize, ControlPlane>,
    /// Next step index to probe (probes are order-sensitive).
    next_probe: usize,
    forks: u64,
    last_probe: Option<ControlPlane>,
}

impl WalkState {
    fn new(mode: ToolstackMode) -> WalkState {
        WalkState {
            link: lvnet::Link::lan(),
            dst: ControlPlane::new(xeon(), 2, mode, 43),
            rng_ckpt: SimRng::new(CKPT_RNG_SEED),
            rng_mig: SimRng::new(MIG_RNG_SEED),
            rows: Vec::new(),
            pending: HashMap::new(),
            next_probe: 0,
            forks: 0,
            last_probe: None,
        }
    }

    /// Runs both probe families against one throwaway fork of the
    /// `n`-guest world and records the row. Returns the number of
    /// probes performed (for the scheduler trace).
    fn probe_step(&mut self, n: usize, mut probe: ControlPlane) -> u64 {
        // The save/restore round-trips run first — they are
        // population-neutral (every saved domain is restored), so the
        // migration probes that follow still sample an n-guest world.
        let doms: Vec<_> = probe.vms().map(|(d, _)| *d).collect();
        let k = PROBES_PER_STEP.min(doms.len());
        let mut save_ms = 0.0;
        let mut restore_ms = 0.0;
        for idx in self.rng_ckpt.sample_distinct(doms.len(), k) {
            let (saved, t_save) = probe.save_vm(doms[idx]).expect("saves");
            let (_, t_restore) = probe.restore_vm(&saved).expect("restores");
            save_ms += t_save.as_millis_f64();
            restore_ms += t_restore.as_millis_f64();
        }

        // Migration probes on the same fork; the destination host
        // accumulates arrivals across densities as the paper's did.
        let doms: Vec<_> = probe.vms().map(|(d, _)| *d).collect();
        let mk = PROBES_PER_STEP.min(doms.len());
        let mut migrate_ms = 0.0;
        for idx in self.rng_mig.sample_distinct(doms.len(), mk) {
            let (new_dom, t) = probe
                .migrate_vm_to(&mut self.dst, &self.link, doms[idx])
                .expect("migrates");
            migrate_ms += t.as_millis_f64();
            self.dst.destroy_vm(new_dom).expect("destroys");
        }

        self.rows.push(StepProbe {
            n,
            save_ms: save_ms / k as f64,
            restore_ms: restore_ms / k as f64,
            migrate_ms: migrate_ms / mk as f64,
        });
        self.last_probe = Some(probe);
        (k + mk) as u64
    }

    fn into_walk(self, boots: u64) -> Walk {
        let probe = UnitOutput::from_plane(&self.last_probe.expect("at least one step"));
        let dst_out = UnitOutput::from_plane(&self.dst);
        Walk {
            rows: self.rows,
            boots,
            forks: self.forks,
            probe: WalkStats {
                virtual_ms: probe.virtual_ms,
                events: probe.events,
            },
            dst_events: dst_out.events,
        }
    }
}

/// Inline walk: climbs its own source world and probes every step in
/// one call. This is the cache-disabled path and the cold-memo
/// fallback; the probe body is the same one the scheduled tasks drive.
fn run_walk(mode: ToolstackMode, steps: &[usize]) -> Walk {
    let image = GuestImage::unikernel_daytime();
    let mut src = ControlPlane::new(xeon(), 2, mode, 42);
    src.prewarm(&image);
    let mut st = WalkState::new(mode);

    let mut made = 0usize;
    for &n in steps {
        while made < n {
            src.create_and_boot(&format!("{}-{made}", image.name), &image)
                .expect("probe walk create");
            made += 1;
            worldcache::note_boot();
        }

        // One throwaway fork serves both probe families; cloning a
        // dense store-mode world costs milliseconds, so one fork per
        // step instead of two is a real saving.
        let probe = src.fork();
        st.forks += 1;
        worldcache::note_fork();
        st.probe_step(n, probe);
    }
    st.into_walk(made as u64)
}

/// Scheduler driver for one memoized walk: chain tasks call
/// [`WalkBuilder::build_rung`], probe tasks call
/// [`WalkBuilder::probe_rung`], and the last probe publishes the walk
/// into the memo so consuming units hit it like any warm cache.
pub(crate) struct WalkBuilder {
    mode: ToolstackMode,
    steps: Vec<usize>,
    spec: WorldSpec,
    state: Mutex<Option<WalkState>>,
}

impl WalkBuilder {
    pub(crate) fn new(mode: ToolstackMode, steps: &[usize]) -> Arc<WalkBuilder> {
        Arc::new(WalkBuilder {
            mode,
            steps: steps.to_vec(),
            spec: chain_spec(mode),
            state: Mutex::new(Some(WalkState::new(mode))),
        })
    }

    /// Chain-task body for rung `i`: advances the shared worldcache
    /// chain to `steps[i]` guests and deposits a probe fork. The fork
    /// is digest-identical to the inline path's `src.fork()` — the
    /// chain evolves by the same create/boot sequence under the same
    /// canonical names. Returns the boots this rung spans.
    pub(crate) fn build_rung(&self, i: usize) -> u64 {
        let n = self.steps[i];
        let (cp, ..) = worldcache::world_at(&self.spec, n);
        // Cross-check the fork against the rung the chain published at
        // this density (DESIGN.md §6h): O(1) with warm hash caches, and
        // it pins "the fork is the world the records describe" on every
        // scheduled rung rather than trusting the chain discipline.
        if let Some(digest) = worldcache::published_digest(&self.spec, n) {
            assert_eq!(
                cp.world_digest64_at_rest(),
                digest,
                "probe walk rung {n}: deposited fork diverged from the published rung"
            );
        }
        let mut guard = self.state.lock().expect("walk state lock");
        let st = guard.as_mut().expect("walk already finished");
        st.forks += 1;
        st.pending.insert(i, cp);
        let prev = if i == 0 { 0 } else { self.steps[i - 1] };
        (n - prev) as u64
    }

    /// Probe-task body for rung `i`: consumes the deposited fork and
    /// runs the shared probe body. The scheduler's probe(i-1) edge
    /// guarantees in-order arrival; the assert documents it. The last
    /// rung also assembles and publishes the [`Walk`].
    pub(crate) fn probe_rung(&self, i: usize) -> u64 {
        let mut guard = self.state.lock().expect("walk state lock");
        let st = guard.as_mut().expect("walk already finished");
        assert_eq!(st.next_probe, i, "probe rungs must run in dependency order");
        let probe = st.pending.remove(&i).expect("chain task deposited this rung");
        let events = st.probe_step(self.steps[i], probe);
        st.next_probe += 1;
        if i + 1 == self.steps.len() {
            let st = guard.take().expect("finished exactly once");
            let boots = *self.steps.last().expect("walk has steps") as u64;
            publish(self.mode, &self.steps, Arc::new(st.into_walk(boots)));
        }
        events
    }
}

type MemoKey = (&'static str, Vec<usize>);
type MemoCell = Arc<OnceLock<Arc<Walk>>>;

static MEMO: OnceLock<Mutex<HashMap<MemoKey, MemoCell>>> = OnceLock::new();

fn memo_cell(mode: ToolstackMode, steps: &[usize]) -> MemoCell {
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    let mut memo = memo.lock().expect("probe walk memo lock");
    Arc::clone(memo.entry((mode.label(), steps.to_vec())).or_default())
}

/// Whether this walk is already memoized — the planner then emits no
/// tasks for it and its units read the memo directly.
pub(crate) fn is_cached(mode: ToolstackMode, steps: &[usize]) -> bool {
    worldcache::enabled()
        && MEMO.get().is_some_and(|m| {
            m.lock()
                .expect("probe walk memo lock")
                .get(&(mode.label(), steps.to_vec()))
                .is_some_and(|cell| cell.get().is_some())
        })
}

/// Installs a scheduler-built walk into the memo. A concurrent run may
/// have raced the same walk in; both are deterministic and identical,
/// so losing the race is harmless.
fn publish(mode: ToolstackMode, steps: &[usize], walk: Arc<Walk>) {
    let _ = memo_cell(mode, steps).set(walk);
}

/// Returns `mode`'s probe walk over `steps`, memoized process-wide
/// when the worldcache is enabled. The map lock only guards the cell
/// lookup; walks for different modes run in parallel, while a second
/// unit asking for an in-flight walk blocks until it is ready (and
/// then reuses it — the point of the memo). Under the DAG scheduler
/// the memo is populated by the walk's probe tasks before any
/// consuming unit runs, so units always take the hit path.
pub fn walk(mode: ToolstackMode, steps: &[usize]) -> (Arc<Walk>, CacheStats) {
    if !worldcache::enabled() {
        let w = run_walk(mode, steps);
        let stats = CacheStats {
            forks: w.forks,
            ..CacheStats::default()
        };
        return (Arc::new(w), stats);
    }
    let cell = memo_cell(mode, steps);
    let mut ran = false;
    let w = cell.get_or_init(|| {
        ran = true;
        Arc::new(run_walk(mode, steps))
    });
    let stats = if ran {
        CacheStats {
            forks: w.forks,
            ..CacheStats::default()
        }
    } else {
        worldcache::note_reuse(w.boots);
        CacheStats {
            hits: 1,
            boots_saved: w.boots,
            ..CacheStats::default()
        }
    };
    (Arc::clone(w), stats)
}
