//! Fork cost vs boot-from-scratch cost at 10/100/1000 guests, per
//! toolstack mode — the microbench behind the world snapshot cache
//! (DESIGN.md §6e): a fork is a structure-sharing clone of a frozen
//! world that allocates O(chunks), so it should be orders of magnitude
//! cheaper than re-simulating the boots it replaces, and its cost
//! should barely move with density. `stamp_<n>` times one cluster-host
//! stamp (`HostTemplate::stamp`: fork + domid limit + RNG re-seed) of a
//! frozen `n`-guest template, at 100 and 1000 guests.
//!
//! Results are recorded in `results/bench_micro_pr5.md` and
//! `results/bench_micro_pr18.md`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use guests::GuestImage;
use simcore::{Machine, MachinePreset};
use toolstack::{ControlPlane, HostTemplate, ToolstackMode};

const MODES: [ToolstackMode; 3] = [
    ToolstackMode::Xl,
    ToolstackMode::ChaosXs,
    ToolstackMode::LightVm,
];

fn booted(mode: ToolstackMode, n: usize) -> ControlPlane {
    let img = GuestImage::unikernel_daytime();
    let mut cp = ControlPlane::new(Machine::preset(MachinePreset::XeonE5_1630V3), 1, mode, 42);
    cp.prewarm(&img);
    for i in 0..n {
        cp.create_and_boot(&format!("{}-{i}", img.name), &img)
            .expect("bench boot");
    }
    cp
}

fn bench_fork_vs_boot(c: &mut Criterion) {
    // Keep the from-scratch side tractable in quick/CI runs.
    let counts: &[usize] = if std::env::var_os("LIGHTVM_BENCH_QUICK").is_some() {
        &[10, 100]
    } else {
        &[10, 100, 1000]
    };
    for mode in MODES {
        let mut group = c.benchmark_group(format!("snapshot_{}", mode.label()));
        for &n in counts {
            let mut world = booted(mode, n);
            let snap = world.snapshot();
            group.bench_function(format!("fork_{n}"), |b| {
                b.iter(|| black_box(snap.fork().running_count()))
            });
            if n >= 100 {
                let template = HostTemplate::capture(&mut world, 16);
                let mut host = 0;
                group.bench_function(format!("stamp_{n}"), |b| {
                    b.iter(|| {
                        host += 1;
                        black_box(template.stamp(host).running_count())
                    })
                });
            }
            group.bench_function(format!("boot_from_scratch_{n}"), |b| {
                b.iter(|| black_box(booted(mode, n).running_count()))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_fork_vs_boot);
criterion_main!(benches);
