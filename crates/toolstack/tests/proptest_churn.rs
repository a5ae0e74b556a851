//! Property tests of the churn invariants (DESIGN.md §6i): random
//! seeded create/destroy interleavings — with and without fault
//! injection — return the world to a byte-identical digest *and* an
//! equal resource census whenever the populations match (census only
//! for chaos [XS+split], whose pooled shells are renumbered), the node
//! arena's capacity plateaus at its peak occupancy, and domid
//! recycling keeps the interned-symbol count bounded.
//!
//! Randomness comes from the workspace's own seeded `SimRng` (the
//! build environment is offline, so no proptest), with fixed seeds per
//! case: failures reproduce exactly.

use guests::GuestImage;
use simcore::faults::FaultPlan;
use simcore::{Machine, MachinePreset, SimRng};
use toolstack::plane::{ControlPlane, ToolstackMode};

const COHORT: usize = 6;

fn plane(mode: ToolstackMode) -> ControlPlane {
    ControlPlane::new(Machine::preset(MachinePreset::XeonE5_1630V3), 1, mode, 42)
}

/// One churn scenario: boot a resident, bound the domid space, run a
/// saturation round over the cohort (pins peak arena occupancy and the
/// reachable domid set), capture the canonical digest + census, then
/// churn `events` random create/destroy steps under `plan`. Draining
/// the cohort must return the world to the captured digest and to an
/// occupancy-equal census. Returns the final digest for replay checks.
fn run_case(mode: ToolstackMode, seed: u64, events: usize, plan: FaultPlan) -> u128 {
    let mut cp = plane(mode);
    let img = GuestImage::unikernel_daytime();
    cp.prewarm(&img);
    cp.create_and_boot("resident", &img)
        .expect("fault-free resident VM boots");
    cp.hv.set_domid_limit((1 + COHORT + 12) as u32);

    let mut slots: Vec<Option<_>> = vec![None; COHORT];
    // Fault-free saturation: cycle the full cohort (every slot live at
    // once — peak arena occupancy) until arena capacity and interner
    // size reach their fixpoint, i.e. every reachable wrapped domid's
    // /local/domain/<d> skeleton has been interned. Each round walks
    // COHORT fresh domids, so the wrap completes within a few rounds.
    let mut sat = (0usize, 0usize);
    for _round in 0..16 {
        for (s, slot) in slots.iter_mut().enumerate() {
            let (dom, ..) = cp
                .create_and_boot(&format!("churn-{s}"), &img)
                .expect("saturation create");
            *slot = Some(dom);
        }
        for slot in slots.iter_mut() {
            cp.destroy_vm(slot.take().expect("slot filled"))
                .expect("saturation destroy");
        }
        let c = cp.census();
        let now = (c.store_capacity, c.interned_syms);
        if now == sat {
            break;
        }
        sat = now;
    }
    // Canonical population includes a full shell pool (saturation
    // creates drained it in split modes).
    cp.prewarm(&img);
    let before_digest = cp.world_digest64();
    let before = cp.census();

    cp.set_fault_plan(plan);
    let mut rng = SimRng::new(seed);
    for _ in 0..events {
        let s = rng.index(COHORT);
        match slots[s].take() {
            Some(dom) => {
                cp.destroy_vm(dom).expect("churn destroy");
            }
            // Rolled back and recorded on an injected fault.
            None => {
                if let Ok((dom, ..)) = cp.create_and_boot(&format!("churn-{s}"), &img) {
                    slots[s] = Some(dom);
                }
            }
        }
    }
    for slot in slots.iter_mut() {
        if let Some(dom) = slot.take() {
            cp.destroy_vm(dom).expect("drain destroy");
        }
    }
    cp.set_fault_plan(FaultPlan::none());
    // A split-mode daemon may have aborted a shell refill under
    // injection, leaving the pool legitimately one short; top it up
    // fault-free so the snapshots compare like with like.
    cp.prewarm(&img);

    let after_digest = cp.world_digest64();
    let after = cp.census();
    // chaos [XS+split] keeps its pooled shells' event-channel and grant
    // numbers in the store, and the refills after churn draw fresh ones:
    // its occupancy round-trips, its bytes cannot.
    if mode != ToolstackMode::ChaosXsSplit {
        assert_eq!(
            before_digest, after_digest,
            "{mode:?} seed {seed}: churn leaked world state"
        );
    }
    assert!(
        after.same_occupancy(&before),
        "{mode:?} seed {seed}: census drifted at matching population: {:?}",
        after.diff(&before)
    );
    assert_eq!(
        after.teardown.total(),
        0,
        "{mode:?} seed {seed}: unexpected teardown errors swallowed"
    );
    after_digest
}

/// Fault-free churn round-trips in all five modes.
#[test]
fn churn_round_trips_without_faults() {
    for mode in [
        ToolstackMode::Xl,
        ToolstackMode::ChaosXs,
        ToolstackMode::ChaosXsSplit,
        ToolstackMode::ChaosNoxs,
        ToolstackMode::LightVm,
    ] {
        for seed in [1, 7, 0xfa17] {
            run_case(mode, seed, 60, FaultPlan::none());
        }
    }
}

/// Churn with injected faults (creates rolled back mid-stream) still
/// round-trips: rollback is leak-free under interleaving, not just for
/// the single-victim cases `proptest_faults` covers.
#[test]
fn churn_round_trips_under_faults() {
    for mode in [
        ToolstackMode::Xl,
        ToolstackMode::ChaosXs,
        ToolstackMode::LightVm,
    ] {
        for seed in [1, 7, 0xfa17] {
            run_case(mode, seed, 60, FaultPlan::seeded(seed ^ 0xc4fa, 0.1));
        }
    }
}

/// Identical seeds give identical final digests (replay determinism).
#[test]
fn churn_replay_is_deterministic() {
    for mode in [ToolstackMode::ChaosXs, ToolstackMode::LightVm] {
        let a = run_case(mode, 0xdead, 40, FaultPlan::seeded(5, 0.1));
        let b = run_case(mode, 0xdead, 40, FaultPlan::seeded(5, 0.1));
        assert_eq!(a, b, "{mode:?}: churn replay diverged");
    }
}

/// The free-list fix, end to end: arena capacity and interned symbols
/// after heavy churn equal their post-saturation values — memory is
/// O(peak live guests), not O(total creates).
#[test]
fn arena_and_interner_plateau_under_churn() {
    let mut cp = plane(ToolstackMode::Xl);
    let img = GuestImage::unikernel_daytime();
    cp.create_and_boot("resident", &img).expect("resident boots");
    cp.hv.set_domid_limit((1 + COHORT + 12) as u32);
    let mut slots: Vec<Option<_>> = vec![None; COHORT];
    let mut sat = (0usize, 0usize);
    for _round in 0..16 {
        for (s, slot) in slots.iter_mut().enumerate() {
            let (dom, ..) = cp
                .create_and_boot(&format!("churn-{s}"), &img)
                .expect("saturation create");
            *slot = Some(dom);
        }
        for slot in slots.iter_mut() {
            cp.destroy_vm(slot.take().expect("filled")).expect("destroy");
        }
        let c = cp.census();
        let now = (c.store_capacity, c.interned_syms);
        if now == sat {
            break;
        }
        sat = now;
    }
    let plateau = cp.census();
    // 10 more full cycles: ~120 creates beyond the plateau point.
    let mut rng = SimRng::new(9);
    for _ in 0..10 {
        for (s, slot) in slots.iter_mut().enumerate() {
            // Jitter the order-insensitive part (which slot first) to
            // exercise different free-list reuse orders.
            let _ = rng.index(COHORT);
            let (dom, ..) = cp
                .create_and_boot(&format!("churn-{s}"), &img)
                .expect("cycle create");
            *slot = Some(dom);
        }
        for slot in slots.iter_mut() {
            cp.destroy_vm(slot.take().expect("filled")).expect("destroy");
        }
        let now = cp.census();
        assert_eq!(
            now.store_capacity, plateau.store_capacity,
            "arena capacity grew under churn"
        );
        assert_eq!(
            now.interned_syms, plateau.interned_syms,
            "interner grew under churn"
        );
    }
    assert!(
        plateau.store_free > 0,
        "churned arena should hold recyclable free slots"
    );
}
