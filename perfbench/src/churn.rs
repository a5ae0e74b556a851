//! Closed-loop create/destroy churn on one resident host, driven
//! through `ControlPlane` directly: no world cache, template boots,
//! forks or scheduler sit between the caller and the toolstack.
//!
//! Set-up builds `residents` daytime unikernels by plain
//! `create_and_boot`, bounds the domid space (as a long-lived Xen host
//! wraps its domid counter) and cycles the 16-name cohort until the
//! store arena and the path interner stop growing. The drained,
//! prewarmed world is the canonical checkpoint. The timed phase then
//! runs blocks from one caller thread: a block is a seeded sequence of
//! cohort slots, where an occupied slot is destroyed and an empty one
//! created, followed by destroys of the cohort guests still alive.
//! After every block the world must match the canonical checkpoint
//! again, digest and resource census alike.

use std::time::{Duration, Instant};

use bench::alloc::thread_allocs;
use guests::GuestImage;
use simcore::{Machine, MachinePreset, SimRng};
use toolstack::{fleet, ControlPlane, ToolstackMode, WorldCensus};

/// Recycled-name cohort: at most this many churned guests live at once.
pub const COHORT: usize = 16;

/// Plane seed of the resident world (the figures' canonical 42); the
/// harness seed only drives the op sequence.
const WORLD_SEED: u64 = 42;

/// World state a drained churn host must return to.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    pub digest: u128,
    pub census: WorldCensus,
}

impl Checkpoint {
    fn take(cp: &mut ControlPlane) -> Checkpoint {
        Checkpoint {
            digest: cp.world_digest64(),
            census: cp.census(),
        }
    }

    /// Why `self` (after churn) differs from `canonical`, if it does.
    /// Occupancy fields must match exactly; the request and log
    /// counters only ever grow and are not compared.
    pub fn mismatches(&self, canonical: &Checkpoint) -> Vec<String> {
        let mut bad: Vec<String> = canonical
            .census
            .diff(&self.census)
            .into_iter()
            .map(|(site, before, after)| format!("census {site}: {before} -> {after}"))
            .collect();
        if self.digest != canonical.digest {
            bad.push(format!(
                "world_digest64 {:032x} -> {:032x}",
                canonical.digest, self.digest
            ));
        }
        bad
    }
}

/// A resident host ready to churn.
pub struct ChurnWorld {
    pub cp: ControlPlane,
    pub img: GuestImage,
    pub canonical: Checkpoint,
    names: Vec<String>,
    /// Full `world_digest64` time of the canonical checkpoint: the
    /// first digest of a freshly built world hashes every node.
    pub digest_full: Duration,
}

/// Builds `residents` guests by direct `create_and_boot`, no cohort.
pub fn resident_world(mode: ToolstackMode, residents: usize) -> ControlPlane {
    let img = GuestImage::unikernel_daytime();
    let mut cp = ControlPlane::new(
        Machine::preset(MachinePreset::XeonE5_1630V3),
        1,
        mode,
        WORLD_SEED,
    );
    cp.prewarm(&img);
    for i in 0..residents {
        cp.create_and_boot(&format!("{}-{i}", img.name), &img)
            .expect("resident build-up create");
    }
    cp
}

impl ChurnWorld {
    pub fn build(mode: ToolstackMode, residents: usize) -> ChurnWorld {
        let img = GuestImage::unikernel_daytime();
        let mut cp = resident_world(mode, residents);
        let limit = fleet::domid_limit_for(&cp, COHORT as u32);
        cp.hv.set_domid_limit(limit);
        let names: Vec<String> = (0..COHORT).map(|s| format!("churn-{s}")).collect();

        // Cycle the whole cohort (all slots live at once is the peak
        // arena occupancy) until arena capacity and interner size reach
        // their fixpoint, so the canonical census is the plateau.
        let mut sat = (0, 0);
        for _ in 0..16 {
            let doms: Vec<_> = names
                .iter()
                .map(|n| cp.create_and_boot(n, &img).expect("saturation create").0)
                .collect();
            for d in doms {
                cp.destroy_vm(d).expect("saturation destroy");
            }
            let c = cp.census();
            if (c.store_capacity, c.interned_syms) == sat {
                break;
            }
            sat = (c.store_capacity, c.interned_syms);
        }
        cp.prewarm(&img);
        let t = Instant::now();
        let canonical = Checkpoint::take(&mut cp);
        let digest_full = t.elapsed();
        ChurnWorld {
            cp,
            img,
            canonical,
            names,
            digest_full,
        }
    }
}

/// The seeded op sequence: one cohort slot per lifecycle call.
pub fn op_sequence(seed: u64, n: usize) -> Vec<u8> {
    let mut rng = SimRng::new(seed);
    (0..n).map(|_| rng.index(COHORT) as u8).collect()
}

/// Host time per call and per block, plus what the traced loop adds,
/// accumulated over the blocks of a pass.
#[derive(Default)]
pub struct ChurnOut {
    /// Host time of each `create_and_boot` (traced: `create_vm` +
    /// `boot_vm`) and each `destroy_vm`, in ns.
    pub create_ns: Vec<f64>,
    pub destroy_ns: Vec<f64>,
    /// Traced only: `create_vm` and `boot_vm` apart, in ns.
    pub create_vm_ns: Vec<f64>,
    pub boot_vm_ns: Vec<f64>,
    /// Host time of each block, drain included.
    pub blocks: Vec<Duration>,
    /// Simulated ms the calls charged (creates, boots, destroys).
    pub sim_ms: f64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Traced only: shell-pool depth low-water mark (`None` before the
    /// first call) and shells the daemon prepared.
    pub pool_min: Option<usize>,
    pub refills: u64,
    /// Heap allocations the caller thread made inside blocks.
    pub allocs: u64,
}

/// Runs one block: the seeded calls, then destroys of the cohort guests
/// still alive, so that every block starts and ends at the canonical
/// population and does the same work. Traced, creates are split into
/// `create_vm` and `boot_vm` and the shell pool is watched after every
/// call; untraced, the loop only reads the clock. Returns the drained
/// world's checkpoint, taken after the block's clock stops.
pub fn run_block(w: &mut ChurnWorld, ops: &[u8], traced: bool, out: &mut ChurnOut) -> Checkpoint {
    let mut slots = [None; COHORT];
    let allocs0 = thread_allocs();
    let started = Instant::now();
    for &s in ops {
        let s = s as usize;
        let pool_before = w.cp.daemon.len();
        match slots[s].take() {
            Some(dom) => {
                let t = Instant::now();
                let r = w.cp.destroy_vm(dom);
                out.destroy_ns.push(t.elapsed().as_nanos() as f64);
                match r {
                    Ok(dt) => out.sim_ms += dt.as_millis_f64(),
                    Err(_) => out.errors += 1,
                }
            }
            None if !traced => {
                let t = Instant::now();
                let r = w.cp.create_and_boot(&w.names[s], &w.img);
                out.create_ns.push(t.elapsed().as_nanos() as f64);
                match r {
                    Ok((dom, create, boot)) => {
                        slots[s] = Some(dom);
                        out.sim_ms += (create + boot).as_millis_f64();
                    }
                    Err(_) => out.errors += 1,
                }
            }
            None => {
                let t = Instant::now();
                let created = w.cp.create_vm(&w.names[s], &w.img);
                let t_create = t.elapsed();
                let Ok(report) = created else {
                    out.errors += 1;
                    continue;
                };
                let t = Instant::now();
                let booted = w.cp.boot_vm(report.dom);
                let t_boot = t.elapsed();
                out.create_vm_ns.push(t_create.as_nanos() as f64);
                out.boot_vm_ns.push(t_boot.as_nanos() as f64);
                out.create_ns.push((t_create + t_boot).as_nanos() as f64);
                match booted {
                    Ok(boot) => {
                        slots[s] = Some(report.dom);
                        out.sim_ms += (report.total() + boot).as_millis_f64();
                    }
                    // Unwind as `create_and_boot` does: nothing of the
                    // dead guest may stay behind.
                    Err(_) => {
                        out.errors += 1;
                        if w.cp.destroy_vm(report.dom).is_err() {
                            out.errors += 1;
                        }
                    }
                }
                let pool_after = w.cp.daemon.len();
                out.refills +=
                    (pool_after + report.from_shell as usize).saturating_sub(pool_before) as u64;
            }
        }
        let depth = w.cp.daemon.len();
        out.pool_min = Some(out.pool_min.map_or(depth, |m| m.min(depth)));
    }
    for dom in slots.into_iter().flatten() {
        let t = Instant::now();
        let r = w.cp.destroy_vm(dom);
        out.destroy_ns.push(t.elapsed().as_nanos() as f64);
        match r {
            Ok(dt) => out.sim_ms += dt.as_millis_f64(),
            Err(_) => out.errors += 1,
        }
    }
    w.cp.prewarm(&w.img);
    out.blocks.push(started.elapsed());
    out.allocs += thread_allocs() - allocs0;
    Checkpoint::take(&mut w.cp)
}
