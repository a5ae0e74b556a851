//! Shared probe walk behind the checkpoint/migration figures.
//!
//! fig12a (save), fig12b (restore) and fig13 (migrate) all walk the
//! same world — Xeon, 2 Dom0 cores, daytime unikernel, seed 42 — up
//! the density ladder and probe it destructively at every step. The
//! probes must see a *pristine* world, so each density probes a
//! throwaway [`ControlPlane::fork`] while the live source keeps
//! growing untouched; and because the three figures' probe streams are
//! independently seeded, one walk can measure all of them in a single
//! pass.
//!
//! A walk owns its world: no other unit reads a 2-core world, so the
//! walk climbs its own source plane rather than a worldcache chain. It
//! is memoized per (mode, steps) in [`worldcache::memoized`]: cached,
//! each mode's world boots once per process instead of once per
//! figure; uncached, every figure unit re-runs the identical walk and
//! gets identical bytes. Under the DAG scheduler one `"probe"` task per
//! walk (the producer of [`dep`]) fills the memo before any consuming
//! unit runs, so units always take the hit path.
//!
//! Old behaviour note: the pre-cache figures probed the live world in
//! place, so a save/restore round-trip left domain ids and RNG draws
//! behind for the next density. Probing forks instead isolates every
//! density — the measured latencies are the ones a fresh world of that
//! density would show.

use std::sync::Arc;

use guests::GuestImage;
use simcore::{Machine, MachinePreset, SimRng};
use toolstack::{ControlPlane, ToolstackMode};

use crate::figures::{Dep, MemoDep, UnitOutput};
use crate::worldcache::{self, CacheStats};

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

/// Climbs `mode`'s source world through `steps` and, at every step,
/// runs both probe families against one throwaway fork of it.
fn run_walk(mode: ToolstackMode, steps: &[usize]) -> Walk {
    let image = GuestImage::unikernel_daytime();
    let mut src = ControlPlane::new(xeon(), 2, mode, 42);
    src.prewarm(&image);
    let link = lvnet::Link::lan();
    let mut dst = ControlPlane::new(xeon(), 2, mode, 43);
    let mut rng_ckpt = SimRng::new(CKPT_RNG_SEED);
    let mut rng_mig = SimRng::new(MIG_RNG_SEED);
    let mut rows = Vec::with_capacity(steps.len());
    let mut last_probe = None;

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
        let mut probe = src.fork();
        worldcache::note_fork();

        // The save/restore round-trips run first — they are
        // population-neutral (every saved domain is restored), so the
        // migration probes that follow still sample an n-guest world.
        let doms: Vec<_> = probe.vms().map(|(d, _)| d).collect();
        let k = PROBES_PER_STEP.min(doms.len());
        let mut save_ms = 0.0;
        let mut restore_ms = 0.0;
        for idx in rng_ckpt.sample_distinct(doms.len(), k) {
            let (saved, t_save) = probe.save_vm(doms[idx]).expect("saves");
            let (_, t_restore) = probe.restore_vm(&saved).expect("restores");
            save_ms += t_save.as_millis_f64();
            restore_ms += t_restore.as_millis_f64();
        }

        // Migration probes on the same fork; the destination host
        // accumulates arrivals across densities as the paper's did.
        let doms: Vec<_> = probe.vms().map(|(d, _)| d).collect();
        let mk = PROBES_PER_STEP.min(doms.len());
        let mut migrate_ms = 0.0;
        for idx in rng_mig.sample_distinct(doms.len(), mk) {
            let (new_dom, t) = probe
                .migrate_vm_to(&mut dst, &link, doms[idx])
                .expect("migrates");
            migrate_ms += t.as_millis_f64();
            dst.destroy_vm(new_dom).expect("destroys");
        }

        rows.push(StepProbe {
            n,
            save_ms: save_ms / k as f64,
            restore_ms: restore_ms / k as f64,
            migrate_ms: migrate_ms / mk as f64,
        });
        last_probe = Some(probe);
    }

    let probe = UnitOutput::from_plane(&last_probe.expect("walk has steps"));
    Walk {
        rows,
        boots: made as u64,
        forks: steps.len() as u64,
        probe: WalkStats {
            virtual_ms: probe.virtual_ms,
            events: probe.events,
        },
        dst_events: UnitOutput::from_plane(&dst).events,
    }
}

fn memo_key(mode: ToolstackMode, steps: &[usize]) -> String {
    format!("walk {}/{steps:?}", mode.label())
}

/// Returns `mode`'s probe walk over `steps`, memoized process-wide
/// when the worldcache is enabled. Walks for different modes run in
/// parallel; a second unit asking for an in-flight walk blocks until
/// it is ready and then reuses it.
pub fn walk(mode: ToolstackMode, steps: &[usize]) -> (Arc<Walk>, CacheStats) {
    let (w, ran) = worldcache::memoized(&memo_key(mode, steps), || run_walk(mode, steps));
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
    (w, stats)
}

/// The dependency a [`walk`] reader declares: one `"probe"` producer
/// task per (mode, steps) runs the walk into the memo.
pub(crate) fn dep(mode: ToolstackMode, steps: &[usize]) -> Dep {
    let steps = steps.to_vec();
    let top = *steps.last().expect("walk has steps");
    // The climb plus a per-step probe cost that grows with density.
    let cost = top as f64 * worldcache::boot_cost_ms(mode)
        + steps.iter().map(|&n| 2.0 + n as f64 * 0.02).sum::<f64>();
    Dep::Memo(MemoDep {
        key: memo_key(mode, &steps),
        kind: "probe",
        label: format!("probe {}@{top}", mode.label()),
        cost,
        produce: Arc::new(move || walk(mode, &steps).0.boots),
    })
}
