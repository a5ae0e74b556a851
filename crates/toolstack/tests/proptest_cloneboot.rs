//! Property tests of template boots (DESIGN.md §6g): a replayed create
//! is indistinguishable from a fully-executed one.
//!
//! Swept over every toolstack mode × density step × seeds, like
//! `proptest_snapshot.rs` (the build environment is offline, so the
//! sweep is a seeded loop rather than proptest). Each `ControlPlane`
//! draws a fresh lineage, so the template registry — process-global and
//! shared with concurrently running tests — never aliases templates
//! across planes; reference planes use the direct
//! `ControlPlane::create_and_boot` path rather than toggling the global
//! enable flag.
//!
//! 1. **Replay fidelity.** A chain driven through
//!    `cloneboot::create_and_boot` returns the same `(dom, create,
//!    boot)` observations as a twin chain of direct calls, and the
//!    worlds are digest-identical at every density step.
//! 2. **Destroy undoes a replayed create.** Destroying a guest whose
//!    create was replayed restores the store to its pre-create node
//!    count and leaves a world digest-identical to the full-path twin.
//! 3. **Mid-chain store drift (xl).** A foreign node appearing under
//!    `/local/domain` is one more input to the closed-form name scan:
//!    replays stay closed-form and exact. A foreign `name` equal to the
//!    requested one runs the real scan, which reports the collision
//!    without poisoning the template.

use guests::GuestImage;
use simcore::{Machine, MachinePreset};
use toolstack::{cloneboot, ControlPlane, PlaneError, ToolstackMode};
use xenstore::XsPath;

const MODES: [ToolstackMode; 5] = [
    ToolstackMode::Xl,
    ToolstackMode::ChaosXs,
    ToolstackMode::ChaosXsSplit,
    ToolstackMode::ChaosNoxs,
    ToolstackMode::LightVm,
];

/// Densities to compare worlds at; the largest is the chain target.
const STEPS: [usize; 3] = [1, 8, 30];

const SEEDS: [u64; 4] = [1, 7, 42, 1337];

fn image() -> GuestImage {
    GuestImage::unikernel_daytime()
}

fn base_plane(mode: ToolstackMode, seed: u64) -> ControlPlane {
    let mut cp = ControlPlane::new(Machine::preset(MachinePreset::XeonE5_1630V3), 1, mode, seed);
    cp.prewarm(&image());
    cp
}

/// Digest without disturbing the plane (digesting drains pending dom0
/// events, so it runs on a throwaway fork). The fast incremental
/// digest keeps whole-world comparison cheap enough to run at every
/// density step; `proptest_digest.rs` pins its agreement with the
/// string oracle.
fn digest(cp: &ControlPlane) -> u128 {
    cp.fork().world_digest64()
}

#[test]
fn replayed_chain_matches_fully_executed_chain() {
    let img = image();
    for mode in MODES {
        for seed in SEEDS {
            let mut templated = base_plane(mode, seed);
            let mut reference = base_plane(mode, seed);
            let mut done = 0;
            for &step in &STEPS {
                for i in done..step {
                    let name = format!("{}-{i}", img.name);
                    let fast = cloneboot::create_and_boot(&mut templated, &name, &img)
                        .expect("templated create");
                    let full = reference.create_and_boot(&name, &img).expect("direct create");
                    assert_eq!(
                        fast, full,
                        "{mode:?} seed {seed} guest {i}: replayed observations diverged"
                    );
                }
                done = step;
                assert_eq!(
                    digest(&templated),
                    digest(&reference),
                    "{mode:?} seed {seed}: worlds diverged at density {step}"
                );
            }
            // The chain actually exercised the cache: an exemplar was
            // recorded and every later create hit it.
            let info = cloneboot::template_info(&templated, &img)
                .expect("chain should have recorded a template");
            assert!(!info.poisoned, "{mode:?} seed {seed}: template poisoned");
            assert!(
                info.replays >= (*STEPS.last().unwrap() as u64) - 1,
                "{mode:?} seed {seed}: expected replays, saw {}",
                info.replays
            );
        }
    }
}

#[test]
fn destroy_after_replay_fully_undoes_the_create() {
    let img = image();
    for mode in MODES {
        for seed in SEEDS {
            let n = 10;
            let mut templated = base_plane(mode, seed);
            let mut reference = base_plane(mode, seed);
            for i in 0..n {
                let name = format!("{}-{i}", img.name);
                cloneboot::create_and_boot(&mut templated, &name, &img).expect("chain create");
                reference.create_and_boot(&name, &img).expect("chain create");
            }

            // One more create — a replay by now — then destroy it.
            let nodes_before = templated.xs.store().node_count();
            let (dom, ..) = cloneboot::create_and_boot(&mut templated, "victim", &img)
                .expect("replayed create");
            let (dom_ref, ..) = reference.create_and_boot("victim", &img).expect("full create");
            let t_fast = templated.destroy_vm(dom).expect("destroy replayed");
            let t_full = reference.destroy_vm(dom_ref).expect("destroy full");

            assert_eq!(
                t_fast, t_full,
                "{mode:?} seed {seed}: destroy latency diverged after a replayed create"
            );
            assert_eq!(
                templated.xs.store().node_count(),
                nodes_before,
                "{mode:?} seed {seed}: destroy left store residue from the replayed create"
            );
            assert_eq!(
                digest(&templated),
                digest(&reference),
                "{mode:?} seed {seed}: destroy-after-replay world diverged"
            );
        }
    }
}

/// Requests xl's real name scan would send right now: one directory of
/// `/local/domain` plus one read per numeric entry, counted from a
/// listing rather than from the store's summary.
fn scan_requests(cp: &ControlPlane) -> u64 {
    let ld = XsPath::parse("/local/domain").unwrap();
    let entries = cp.xs.store().directory(0, &ld).unwrap();
    1 + entries.iter().filter(|e| e.parse::<u32>().is_ok()).count() as u64
}

/// The acceptance scenario: a density-dependent cost input — the shape
/// of `/local/domain`, which the name scan's charge grows with —
/// changes mid-chain. The closed form charges from the store's own
/// `/local/domain` summary, so a foreign entry is one more input to it:
/// replays stay closed-form, replay every request the real scan would
/// send (the foreign entry's read included) and stay identical to full
/// execution. Only a name the store may already hold runs the real
/// scan, which reports the collision without poisoning the template.
#[test]
fn foreign_store_node_mid_chain_stays_exact() {
    let img = image();
    let mode = ToolstackMode::Xl;
    for seed in SEEDS {
        let mut templated = base_plane(mode, seed);
        let mut reference = base_plane(mode, seed);
        for i in 0..6 {
            let name = format!("{}-{i}", img.name);
            cloneboot::create_and_boot(&mut templated, &name, &img).expect("chain create");
            reference.create_and_boot(&name, &img).expect("chain create");
        }

        // A node xl never wrote appears under /local/domain — say a
        // stale entry left by an out-of-band tool. Both worlds see it
        // (digests must stay comparable).
        let foreign = XsPath::parse("/local/domain/9999").unwrap();
        for cp in [&mut templated, &mut reference] {
            cp.xs.store_mut_for_tests().mkdir(0, &foreign).expect("plant foreign node");
        }
        for i in 6..9 {
            let name = format!("{}-{i}", img.name);
            let before = templated.clone_stats;
            let requests = scan_requests(&templated);
            let fast =
                cloneboot::create_and_boot(&mut templated, &name, &img).expect("replayed create");
            let full = reference.create_and_boot(&name, &img).expect("direct create");
            assert_eq!(fast, full, "seed {seed} guest {i}: replay diverged");
            let after = templated.clone_stats;
            assert_eq!(
                after.replayed,
                before.replayed + 1,
                "seed {seed} guest {i}: foreign node forced the real scan"
            );
            assert_eq!(
                after.saved - before.saved,
                requests,
                "seed {seed} guest {i}: closed form replayed the wrong request count"
            );
        }
        assert_eq!(
            digest(&templated),
            digest(&reference),
            "seed {seed}: world with a foreign entry diverged"
        );

        // The foreign entry now names itself like the next create: the
        // name probe hits, the real scan runs and reports the collision.
        let name_node = foreign.child("name").unwrap();
        for cp in [&mut templated, &mut reference] {
            cp.xs.store_mut_for_tests().write(0, &name_node, b"taken").expect("foreign name");
        }
        let fallbacks_before = cloneboot::fallback_total();
        let fast = cloneboot::create_and_boot(&mut templated, "taken", &img);
        let full = reference.create_and_boot("taken", &img);
        assert_eq!(fast, full, "seed {seed}: collision outcome diverged");
        assert_eq!(fast, Err(PlaneError::NameTaken("taken".into())));
        assert!(
            cloneboot::fallback_total() > fallbacks_before,
            "seed {seed}: a taken name did not run the real scan"
        );
        let info = cloneboot::template_info(&templated, &img).expect("template still registered");
        assert!(!info.poisoned, "seed {seed}: a collision must not poison the template");

        // Once the foreign node is gone the replays go on in closed form.
        for cp in [&mut templated, &mut reference] {
            cp.xs.store_mut_for_tests().rm(0, &foreign).expect("clear foreign node");
        }
        let before = templated.clone_stats;
        let fast = cloneboot::create_and_boot(&mut templated, "after-clear", &img)
            .expect("recovered create");
        let full = reference.create_and_boot("after-clear", &img).expect("direct create");
        assert_eq!(fast, full, "seed {seed}: recovered replay diverged");
        assert_eq!(templated.clone_stats.replayed, before.replayed + 1, "seed {seed}");
        assert_eq!(
            digest(&templated),
            digest(&reference),
            "seed {seed}: recovered world diverged"
        );
    }
}
