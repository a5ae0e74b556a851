//! Fork cost in allocation calls and bytes, with the counting global
//! allocator installed: a world fork and a cluster-host stamp allocate
//! O(chunks), not O(guests). The counts are deterministic, so the
//! bounds are exact rather than noise bands.

use bench::alloc::{thread_alloc_bytes, thread_allocs, CountingAlloc};
use guests::GuestImage;
use simcore::{Machine, MachinePreset};
use toolstack::{ControlPlane, HostTemplate, ToolstackMode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn xl_world(guests: usize) -> ControlPlane {
    let image = GuestImage::unikernel_daytime();
    let machine = Machine::preset(MachinePreset::XeonE5_1630V3);
    let mut cp = ControlPlane::new(machine, 1, ToolstackMode::Xl, 42);
    cp.prewarm(&image);
    for i in 0..guests {
        cp.create_and_boot(&format!("g-{i}"), &image).unwrap();
    }
    cp
}

/// Allocation calls and bytes of `f` on this thread (dropping its
/// result outside the count).
fn cost<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    let (calls, bytes) = (thread_allocs(), thread_alloc_bytes());
    let out = f();
    let cost = (thread_allocs() - calls, thread_alloc_bytes() - bytes);
    drop(out);
    cost
}

#[test]
fn bytes_are_counted_with_calls() {
    let (calls, bytes) = cost(|| Vec::<u8>::with_capacity(4096));
    assert_eq!(calls, 1);
    assert_eq!(bytes, 4096);
    let (calls, bytes) = cost(|| {
        let mut v = Vec::<u64>::with_capacity(8);
        v.reserve_exact(32);
        v
    });
    assert_eq!(calls, 2, "the alloc and the realloc");
    assert_eq!(bytes, 8 * 8 + 32 * 8, "a realloc counts its new size");
}

/// A stamp of a 100-guest xl template: at most a tenth of what it cost
/// before forks went O(chunks) (666 calls, 295,678 bytes).
#[test]
fn a_stamp_costs_a_tenth_of_the_guest_proportional_clone() {
    let mut world = xl_world(100);
    let template = HostTemplate::capture(&mut world, 16);
    let (calls, bytes) = cost(|| template.stamp(1));
    assert!(calls <= 66, "stamp made {calls} allocation calls");
    assert!(bytes <= 29_567, "stamp allocated {bytes} bytes");
}

/// The calls a fork makes do not depend on the guest count, and its
/// bytes grow by a few chunk pointers (and CPU task entries) per guest,
/// not by the guests' tables. The first `fork` of a live world also
/// pays for freezing its interner; the second shows that it did.
#[test]
fn a_forks_cost_does_not_grow_with_the_guests() {
    let (small, large) = (xl_world(40), xl_world(200));
    drop((small.fork(), large.fork()));
    let (calls_small, bytes_small) = cost(|| small.fork());
    let (calls_large, bytes_large) = cost(|| large.fork());
    assert!(
        calls_large <= calls_small + 2,
        "fork calls {calls_small} at 40 guests, {calls_large} at 200"
    );
    let per_guest = (bytes_large - bytes_small) / 160;
    assert!(per_guest <= 96, "fork bytes grow {per_guest} per guest");
}
