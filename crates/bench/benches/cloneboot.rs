//! Replayed vs fully-executed create at density, per toolstack mode —
//! the microbench behind template boots (DESIGN.md §6g): once a
//! template is recorded, a replayed create charges identical simulated
//! time. Both sides take the plane's closed-form xl name check
//! (DESIGN.md §6k), so the difference is what the template bookkeeping
//! costs on top of a direct create.
//!
//! Both sides fork the same prepared world each iteration and then run
//! a batch of [`BATCH`] creates, so the (identical) fork cost is
//! amortized 16-fold and the create cost dominates the number. The
//! replayed side goes through `toolstack::cloneboot::create_and_boot`
//! exactly as the figure pipeline does, which means it also pays the
//! every-replay drift and content checks (DESIGN.md §6h) — the number
//! is the shipped cost, not a best case.
//!
//! Results are recorded in `results/bench_micro_pr7.md`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use guests::GuestImage;
use simcore::{Machine, MachinePreset};
use toolstack::{cloneboot, ControlPlane, ToolstackMode};

const MODES: [ToolstackMode; 3] = [
    ToolstackMode::Xl,
    ToolstackMode::ChaosXs,
    ToolstackMode::LightVm,
];

/// Creates per measured iteration (distinct guest names, forked base).
const BATCH: usize = 16;

/// Boots `n` guests through the template cache, so the returned world's
/// lineage has a recorded (and first-replay-verified) template.
fn templated_world(mode: ToolstackMode, n: usize) -> ControlPlane {
    let img = GuestImage::unikernel_daytime();
    let mut cp = ControlPlane::new(Machine::preset(MachinePreset::XeonE5_1630V3), 1, mode, 42);
    cp.prewarm(&img);
    for i in 0..n {
        cloneboot::create_and_boot(&mut cp, &format!("{}-{i}", img.name), &img)
            .expect("bench boot");
    }
    cp
}

fn bench_replay_vs_full(c: &mut Criterion) {
    let img = GuestImage::unikernel_daytime();
    let counts: &[usize] = if std::env::var_os("LIGHTVM_BENCH_QUICK").is_some() {
        &[100]
    } else {
        &[100, 1000]
    };
    for mode in MODES {
        let mut group = c.benchmark_group(format!("cloneboot_{}", mode.label()));
        for &n in counts {
            let world = templated_world(mode, n);
            let snap = world.snapshot();
            group.bench_function(format!("full_create{BATCH}_{n}"), |b| {
                b.iter(|| {
                    let mut cp = snap.fork();
                    for k in 0..BATCH {
                        black_box(
                            cp.create_and_boot(&format!("probe-{k}"), &img)
                                .expect("full create"),
                        );
                    }
                })
            });
            group.bench_function(format!("replayed_create{BATCH}_{n}"), |b| {
                b.iter(|| {
                    let mut cp = snap.fork();
                    for k in 0..BATCH {
                        black_box(
                            cloneboot::create_and_boot(&mut cp, &format!("probe-{k}"), &img)
                                .expect("replayed create"),
                        );
                    }
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_replay_vs_full);
criterion_main!(benches);
