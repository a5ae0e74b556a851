//! Allocation profile of two deterministic paths, with the counting
//! global allocator installed.
//!
//! * **Density hot path:** creates and boots a batch of unikernel
//!   guests under the `xl` toolstack (the Figure 9 methodology, the
//!   workload the density sweeps spend their time in) and reports host
//!   allocations per simulation event.
//! * **Fork cost:** allocation calls and bytes of one
//!   `HostTemplate::stamp` of a 100-guest xl template, and of one
//!   `Snapshot::fork` of a frozen 1000-guest xl world (100 guests under
//!   `LIGHTVM_QUICK=1`). A fork should cost O(chunks), not O(guests);
//!   bytes are counted too, because one large table is a single call.
//!
//! Usage: `allocs [N_GUESTS]` (default 200; `LIGHTVM_QUICK=1` divides
//! by 10). The before/after tables in `results/bench_micro_pr3.md` and
//! `results/bench_micro_pr18.md` are produced from this binary's output.

use bench::alloc::{thread_alloc_bytes, thread_allocs, CountingAlloc};
use guests::GuestImage;
use simcore::{Machine, MachinePreset};
use toolstack::{ControlPlane, HostTemplate, ToolstackMode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn xl_world(image: &GuestImage, guests: usize) -> ControlPlane {
    let machine = Machine::preset(MachinePreset::XeonE5_1630V3);
    let mut cp = ControlPlane::new(machine, 1, ToolstackMode::Xl, 42);
    cp.prewarm(image);
    for i in 0..guests {
        cp.create_and_boot(&format!("{}-{i}", image.name), image)
            .expect("world create");
    }
    cp
}

/// Allocation calls and bytes `f` makes on this thread, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (thread_allocs(), thread_alloc_bytes());
    let out = f();
    (out, thread_allocs() - calls, thread_alloc_bytes() - bytes)
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| bench::scaled(200));

    let image = GuestImage::unikernel_daytime();
    let mut cp = xl_world(&image, 0);

    // Warm up: the first few creates populate interner tables, scratch
    // buffers and log state; steady state is what the density sweeps pay.
    let warmup = (n / 10).clamp(1, 20);
    for i in 0..warmup {
        cp.create_and_boot(&format!("warm-{i}"), &image)
            .expect("warmup create");
    }

    let stats0 = cp.xs.stats();
    let ev0 = stats0.requests + stats0.watch_events + cp.cpu.tasks_started();
    let a0 = thread_allocs();
    let t0 = std::time::Instant::now();

    for i in 0..n {
        cp.create_and_boot(&format!("guest-{i}"), &image)
            .expect("density create");
    }

    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let allocs = thread_allocs() - a0;
    let stats1 = cp.xs.stats();
    let events = stats1.requests + stats1.watch_events + cp.cpu.tasks_started() - ev0;
    let per_event = if events > 0 {
        allocs as f64 / events as f64
    } else {
        0.0
    };

    println!("density_guests: {n} (after {warmup} warmup)");
    println!("events: {events}");
    println!("allocs: {allocs}");
    println!("allocs_per_event: {per_event:.3}");
    println!("wall_ms: {wall_ms:.1}");

    let mut template_world = xl_world(&image, 100);
    let template = HostTemplate::capture(&mut template_world, 16);
    let (host, calls, bytes) = counted(|| template.stamp(1));
    drop(host);
    println!("stamp_xl_100_allocs: {calls}");
    println!("stamp_xl_100_bytes: {bytes}");

    let fork_guests = bench::scaled(1000);
    let snap = xl_world(&image, fork_guests).snapshot();
    let (fork, calls, bytes) = counted(|| snap.fork());
    drop(fork);
    println!("fork_guests: {fork_guests}");
    println!("fork_frozen_allocs: {calls}");
    println!("fork_frozen_bytes: {bytes}");
}
