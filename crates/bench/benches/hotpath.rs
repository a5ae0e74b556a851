//! Criterion benches of the data-structure hot paths behind the figure
//! runner: the watch-table ancestor walk with 1,000 registered watches,
//! raw path lookup on a ~30,000-node store, and xl's unique-name check
//! at 10 and 1,000 resident guests. The first two are allocation-free
//! in steady state after the symbol-native rewrite; the name check's
//! host time must not grow with the guest count (its simulated charge
//! does). These benches are the regression guard.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use guests::GuestImage;
use simcore::{Machine, MachinePreset, Meter};
use toolstack::{ControlPlane, ToolstackMode};
use xenstore::{Store, WatchTable, XsPath};

fn bench_watch_fire(c: &mut Criterion) {
    let s = Store::new();
    let mut t = WatchTable::new();
    for i in 0..1000u32 {
        let p = XsPath::parse(&format!("/local/domain/{i}/device")).unwrap();
        t.register(&s, i % 64, s.sym(&p), "tok");
    }
    for conn in 0..64 {
        t.drain_events(conn); // drop the registration events
    }
    let hit = s.sym(&XsPath::parse("/local/domain/500/device/vif/0/state").unwrap());
    let miss = s.sym(&XsPath::parse("/local/domain/5000/backend/vif/0/state").unwrap());
    let hit_conn = 500 % 64;

    let mut group = c.benchmark_group("watch_1k");
    group.bench_function("fire", |b| {
        b.iter(|| {
            let stats = t.note_mutation_sym(&s, black_box(hit));
            // Drain the queued event so pending stays bounded.
            t.drain_events(hit_conn);
            black_box(stats.fired)
        })
    });
    group.bench_function("miss", |b| {
        b.iter(|| black_box(t.note_mutation_sym(&s, black_box(miss)).fired))
    });
    group.finish();
}

fn bench_path_lookup(c: &mut Criterion) {
    // 100 domains x 300 leaves (+ intermediate dirs) ≈ 30k nodes.
    let mut s = Store::new();
    for d in 0..100 {
        for n in 0..300 {
            let p = XsPath::parse(&format!("/local/domain/{d}/data/n{n}")).unwrap();
            s.write(0, &p, b"v").unwrap();
        }
    }
    assert!(s.node_count() >= 30_000, "bench premise: large store");
    let deep = XsPath::parse("/local/domain/50/data/n150").unwrap();
    let missing = XsPath::parse("/local/domain/50/data/n9999").unwrap();

    let mut group = c.benchmark_group("store_30k");
    group.bench_function("read_deep", |b| {
        b.iter(|| black_box(s.read(0, black_box(&deep)).unwrap().len()))
    });
    group.bench_function("exists_miss", |b| {
        b.iter(|| black_box(s.exists(black_box(&missing))))
    });
    group.finish();
}

fn bench_xl_name_check(c: &mut Criterion) {
    let image = GuestImage::unikernel_daytime();
    let mut group = c.benchmark_group("xl_name_check");
    for resident in [10, 1000] {
        let machine = Machine::preset(MachinePreset::XeonE5_1630V3);
        let mut cp = ControlPlane::new(machine, 1, ToolstackMode::Xl, 42);
        for i in 0..resident {
            cp.create_and_boot(&format!("resident-{i}"), &image).unwrap();
        }
        let cost = cp.cost();
        let mut meter = Meter::new();
        group.bench_with_input(BenchmarkId::new("free_name", resident), &(), |b, _| {
            b.iter(|| cp.xl_name_check(&cost, &mut meter, black_box("fresh")).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_watch_fire, bench_path_lookup, bench_xl_name_check);
criterion_main!(benches);
