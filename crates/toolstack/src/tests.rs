//! Cross-module toolstack tests: the paper's headline control-plane
//! behaviours at small scale.

use guests::GuestImage;
use lvnet::Link;
use simcore::{Category, Machine, MachinePreset, Meter, SimRng, SimTime};
use xenstore::XsPath;

use crate::plane::{ControlPlane, PlaneError, ToolstackMode};

fn plane(mode: ToolstackMode) -> ControlPlane {
    ControlPlane::new(Machine::preset(MachinePreset::XeonE5_1630V3), 1, mode, 42)
}

fn first_vm_total(mode: ToolstackMode) -> SimTime {
    let mut cp = plane(mode);
    let img = GuestImage::unikernel_daytime();
    cp.prewarm(&img);
    let (_, create, boot) = cp.create_and_boot("vm-0", &img).unwrap();
    create + boot
}

#[test]
fn mode_ordering_matches_figure_9() {
    let xl = first_vm_total(ToolstackMode::Xl);
    let chaos_xs = first_vm_total(ToolstackMode::ChaosXs);
    let chaos_noxs = first_vm_total(ToolstackMode::ChaosNoxs);
    let lightvm = first_vm_total(ToolstackMode::LightVm);
    assert!(xl > chaos_xs, "xl {xl} vs chaos[XS] {chaos_xs}");
    assert!(chaos_xs > chaos_noxs, "chaos[XS] {chaos_xs} vs chaos[NoXS] {chaos_noxs}");
    assert!(chaos_noxs > lightvm, "chaos[NoXS] {chaos_noxs} vs LightVM {lightvm}");
}

#[test]
fn xl_first_vm_is_about_100ms() {
    let t = first_vm_total(ToolstackMode::Xl).as_millis_f64();
    assert!((60.0..160.0).contains(&t), "xl first VM took {t} ms");
}

#[test]
fn lightvm_first_vm_is_single_digit_ms() {
    let t = first_vm_total(ToolstackMode::LightVm).as_millis_f64();
    assert!((2.0..10.0).contains(&t), "LightVM first VM took {t} ms");
}

#[test]
fn noop_unikernel_on_lightvm_is_about_2ms() {
    let mut cp = plane(ToolstackMode::LightVm);
    let img = GuestImage::unikernel_noop();
    cp.prewarm(&img);
    let (_, create, boot) = cp.create_and_boot("noop-0", &img).unwrap();
    let t = (create + boot).as_millis_f64();
    assert!((1.0..5.0).contains(&t), "noop took {t} ms");
}

#[test]
fn xl_breakdown_covers_figure_5_categories() {
    let mut cp = plane(ToolstackMode::Xl);
    let img = GuestImage::unikernel_daytime();
    let report = cp.create_vm("vm-0", &img).unwrap();
    for cat in [
        Category::Config,
        Category::Toolstack,
        Category::Hypervisor,
        Category::Xenstore,
        Category::Devices,
        Category::Load,
    ] {
        assert!(
            report.meter.of(cat) > SimTime::ZERO,
            "category {cat} missing from the breakdown"
        );
    }
    // Devices dominate at low density (bash hotplug + qemu).
    assert!(report.meter.of(Category::Devices) > report.meter.of(Category::Xenstore));
}

#[test]
fn noxs_modes_never_touch_the_store() {
    for mode in [ToolstackMode::ChaosNoxs, ToolstackMode::LightVm] {
        let mut cp = plane(mode);
        let img = GuestImage::unikernel_daytime();
        cp.prewarm(&img);
        let report = cp.create_vm("vm-0", &img).unwrap();
        let boot = cp.boot_vm(report.dom).unwrap();
        assert_eq!(report.meter.of(Category::Xenstore), SimTime::ZERO);
        assert!(boot > SimTime::ZERO);
        assert_eq!(cp.xs.stats().requests, 0, "{mode:?} used the XenStore");
    }
}

#[test]
fn xl_rejects_duplicate_names() {
    let mut cp = plane(ToolstackMode::Xl);
    let img = GuestImage::unikernel_daytime();
    let r = cp.create_vm("dup", &img).unwrap();
    cp.boot_vm(r.dom).unwrap();
    assert_eq!(
        cp.create_vm("dup", &img).unwrap_err(),
        PlaneError::NameTaken("dup".into())
    );
    // Another name is fine.
    cp.create_vm("dup2", &img).unwrap();
}

/// Store shapes for the name-check differential test.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `/local/domain` is exactly Dom0's directory plus the VM table.
    Clean,
    /// No `/local/domain` at all (a fresh host).
    NoLocalDomain,
    /// A numeric child with no VM behind it.
    ForeignNumeric,
    /// A non-numeric child, which the real scan skips.
    NonNumeric,
    /// Dom0's directory carries a `name` node.
    Dom0Name,
    /// A guest's directory vanished from under the VM table.
    MissingGuest,
    /// The checked name is already taken.
    Collision,
    /// A foreign writer renamed a guest's `name`.
    RenamedGuest,
    /// A guest's `name` node was removed.
    RemovedName,
    /// A guest's directory moved to `/local/domain/00<domid>`, which
    /// parses to the same domid under a longer path.
    AliasedDomid,
    /// A foreign writer renamed a guest to the name being checked.
    ForeignRewriteToRequested,
}

/// The closed-form name check against the real scan on forks of one
/// world: the outcome, the per-`Category` charges, the daemon's request
/// stats and its log rotations agree exactly — including across log
/// rotations, with guest creates in between. Every shape takes the
/// closed form except those where the name is taken, whose hash hit
/// falls back to the real scan; once a foreign writer's copy of the
/// name is removed, the closed form resumes and a create under that
/// name succeeds.
#[test]
fn closed_form_name_check_matches_the_real_scan() {
    let img = GuestImage::unikernel_daytime();
    let mut base = plane(ToolstackMode::Xl);
    for i in 0..40 {
        base.create_and_boot(&format!("g-{i}"), &img).unwrap();
    }
    let mut rng = SimRng::new(0x5ca1);
    let mut crossed_rotation = false;
    for case in 0..44 {
        let shape = [
            Shape::Clean,
            Shape::NoLocalDomain,
            Shape::ForeignNumeric,
            Shape::NonNumeric,
            Shape::Dom0Name,
            Shape::MissingGuest,
            Shape::Collision,
            Shape::RenamedGuest,
            Shape::RemovedName,
            Shape::AliasedDomid,
            Shape::ForeignRewriteToRequested,
        ][case % 11];
        let mut world = match shape {
            Shape::NoLocalDomain => plane(ToolstackMode::Xl),
            _ => base.fork(),
        };
        let guest = 1 + rng.index(40);
        let store = world.xs.store_mut_for_tests();
        let mut poke = |path: &str, value: &[u8]| {
            store.write(0, &XsPath::parse(path).unwrap(), value).unwrap();
        };
        match shape {
            Shape::ForeignNumeric => {
                poke(&format!("/local/domain/{}/data", 900 + rng.index(99)), b"x")
            }
            Shape::NonNumeric => poke("/local/domain/tools/x", b"x"),
            Shape::Dom0Name => poke("/local/domain/0/name", b"x"),
            Shape::RenamedGuest => poke(&format!("/local/domain/{guest}/name"), b"renamed"),
            Shape::ForeignRewriteToRequested => {
                poke(&format!("/local/domain/{guest}/name"), b"rewritten")
            }
            Shape::AliasedDomid => {
                let dir = XsPath::parse(&format!("/local/domain/{guest}")).unwrap();
                let name = store.read(0, &dir.child("name").unwrap()).unwrap().to_vec();
                store.rm(0, &dir).unwrap();
                let alias = XsPath::parse(&format!("/local/domain/00{guest}/name")).unwrap();
                store.write(0, &alias, &name).unwrap();
            }
            Shape::MissingGuest | Shape::RemovedName => {
                let dir = format!("/local/domain/{guest}");
                let path = match shape {
                    Shape::RemovedName => format!("{dir}/name"),
                    _ => dir,
                };
                store.rm(0, &XsPath::parse(&path).unwrap()).unwrap();
            }
            Shape::Clean | Shape::NoLocalDomain | Shape::Collision => {}
        }
        let name_taken = matches!(shape, Shape::Collision | Shape::ForeignRewriteToRequested);
        let (mut fast, mut real) = (world.fork(), world.fork());
        let cost = world.cost();
        // The clean shape runs long enough to rotate the access log
        // inside a compared check, creating guests on both forks on
        // the way.
        let rounds = if case == 0 { 400 } else { 4 };
        for round in 0..rounds {
            let name = match shape {
                Shape::Collision => format!("g-{}", rng.index(40)),
                Shape::ForeignRewriteToRequested => "rewritten".to_string(),
                _ => format!("new-{round}"),
            };
            let (mut m_fast, mut m_real) = (Meter::new(), Meter::new());
            let rotations = real.xs.log_rotations();
            let r_fast = fast.xl_name_check(&cost, &mut m_fast, &name);
            let r_real = real.xl_name_scan(&cost, &mut m_real, &name);
            crossed_rotation |= real.xs.log_rotations() > rotations;
            assert_eq!(r_fast, r_real, "{shape:?}: outcome");
            if name_taken {
                assert_eq!(r_real, Err(PlaneError::NameTaken(name.clone())));
            }
            assert_eq!(fast.last_scan_replayed, !name_taken, "{shape:?}");
            for cat in Category::ALL {
                assert_eq!(m_fast.of(cat), m_real.of(cat), "{shape:?}: {cat} charge");
            }
            assert_eq!(fast.xs.stats(), real.xs.stats(), "{shape:?}: daemon stats");
            assert_eq!(fast.xs.log_rotations(), real.xs.log_rotations(), "{shape:?}");
            if round % 40 == 39 {
                fast.create_and_boot(&name, &img).unwrap();
                real.create_and_boot(&name, &img).unwrap();
            }
        }
        if let Shape::ForeignRewriteToRequested = shape {
            let node = XsPath::parse(&format!("/local/domain/{guest}/name")).unwrap();
            for w in [&mut fast, &mut real] {
                w.xs.store_mut_for_tests().rm(0, &node).unwrap();
            }
            let (mut m_fast, mut m_real) = (Meter::new(), Meter::new());
            assert_eq!(fast.xl_name_check(&cost, &mut m_fast, "rewritten"), Ok(()));
            assert_eq!(real.xl_name_scan(&cost, &mut m_real, "rewritten"), Ok(()));
            assert!(fast.last_scan_replayed, "{shape:?}: cleared name");
            for cat in Category::ALL {
                assert_eq!(m_fast.of(cat), m_real.of(cat), "{shape:?}: cleared {cat} charge");
            }
            assert_eq!(fast.xs.stats(), real.xs.stats(), "{shape:?}: cleared daemon stats");
            fast.create_and_boot("rewritten", &img).unwrap();
            real.create_and_boot("rewritten", &img).unwrap();
        }
        assert_eq!(fast.world_digest64(), real.world_digest64(), "{shape:?}: worlds");
        let store = fast.xs.store();
        assert_eq!(
            store.local_domain_summary(),
            &store.local_domain_summary_recomputed(),
            "{shape:?}: summary"
        );
    }
    assert!(crossed_rotation, "some compared check must rotate the log");
}

#[test]
fn split_pool_hits_after_prewarm() {
    let mut cp = plane(ToolstackMode::LightVm);
    let img = GuestImage::unikernel_daytime();
    cp.prewarm(&img);
    assert!(!cp.daemon.is_empty());
    let r1 = cp.create_vm("a", &img).unwrap();
    assert!(r1.from_shell);
    // Pool refilled in the background; the next create hits again.
    let r2 = cp.create_vm("b", &img).unwrap();
    assert!(r2.from_shell);
    assert!(cp.background_meter.total() > SimTime::ZERO);
}

#[test]
fn cold_pool_falls_back_to_full_create() {
    let mut cp = plane(ToolstackMode::LightVm);
    let img = GuestImage::unikernel_daytime();
    let r = cp.create_vm("cold", &img).unwrap();
    assert!(!r.from_shell);
    // Shells only fit their flavor.
    let bigger = GuestImage::unikernel_minipython();
    let r2 = cp.create_vm("other-flavor", &bigger).unwrap();
    assert!(!r2.from_shell);
}

#[test]
fn split_mode_creates_are_faster_than_non_split() {
    let no_split = {
        let mut cp = plane(ToolstackMode::ChaosNoxs);
        let img = GuestImage::unikernel_daytime();
        cp.create_vm("x", &img).unwrap().total()
    };
    let split = {
        let mut cp = plane(ToolstackMode::LightVm);
        let img = GuestImage::unikernel_daytime();
        cp.prewarm(&img);
        cp.create_vm("x", &img).unwrap().total()
    };
    assert!(split < no_split, "split {split} vs full {no_split}");
}

#[test]
fn xl_creation_grows_with_density() {
    let mut cp = plane(ToolstackMode::Xl);
    let img = GuestImage::unikernel_daytime();
    let mut first = SimTime::ZERO;
    let mut last = SimTime::ZERO;
    for i in 0..150 {
        let (_, create, _) = cp.create_and_boot(&format!("vm-{i}"), &img).unwrap();
        if i == 0 {
            first = create;
        }
        last = create;
    }
    assert!(
        last > first.scale(1.15),
        "xl creation should grow with density: first {first}, 150th {last}"
    );
}

#[test]
fn lightvm_creation_is_density_independent() {
    let mut cp = plane(ToolstackMode::LightVm);
    let img = GuestImage::unikernel_daytime();
    cp.prewarm(&img);
    let mut first = SimTime::ZERO;
    let mut last = SimTime::ZERO;
    for i in 0..150 {
        let r = cp.create_vm(&format!("vm-{i}"), &img).unwrap();
        cp.boot_vm(r.dom).unwrap();
        if i == 0 {
            first = r.total();
        }
        last = r.total();
    }
    assert!(
        last < first.scale(1.5),
        "LightVM creation should stay flat: first {first}, 150th {last}"
    );
}

#[test]
fn destroy_releases_everything() {
    // Non-split mode so the shell pool's pre-created vifs don't sit on
    // the switch.
    let mut cp = plane(ToolstackMode::ChaosNoxs);
    let img = GuestImage::unikernel_daytime();
    let (dom, _, _) = cp.create_and_boot("gone", &img).unwrap();
    let mem_with = cp.hv.memory.used();
    assert_eq!(cp.switch.port_count(), 1);
    cp.destroy_vm(dom).unwrap();
    assert_eq!(cp.running_count(), 0);
    assert_eq!(cp.switch.port_count(), 0);
    assert!(cp.hv.memory.used() < mem_with);
    assert_eq!(cp.destroy_vm(dom).unwrap_err(), PlaneError::NoSuchVm);
}

#[test]
fn save_restore_round_trip_all_modes() {
    for mode in [
        ToolstackMode::Xl,
        ToolstackMode::ChaosXs,
        ToolstackMode::ChaosNoxs,
        ToolstackMode::LightVm,
    ] {
        let mut cp = plane(mode);
        let img = GuestImage::unikernel_daytime();
        let (dom, _, _) = cp.create_and_boot("ckpt", &img).unwrap();
        let (saved, t_save) = cp.save_vm(dom).unwrap();
        assert_eq!(cp.running_count(), 0, "{mode:?}");
        let (new_dom, t_restore) = cp.restore_vm(&saved).unwrap();
        assert_ne!(new_dom, dom);
        assert_eq!(cp.running_count(), 1);
        assert!(t_save > SimTime::ZERO && t_restore > SimTime::ZERO);
    }
}

#[test]
fn lightvm_checkpoint_times_match_figure_12() {
    let mut cp = plane(ToolstackMode::LightVm);
    let img = GuestImage::unikernel_daytime();
    let (dom, _, _) = cp.create_and_boot("ckpt", &img).unwrap();
    let (saved, t_save) = cp.save_vm(dom).unwrap();
    let (_, t_restore) = cp.restore_vm(&saved).unwrap();
    let save_ms = t_save.as_millis_f64();
    let restore_ms = t_restore.as_millis_f64();
    assert!((10.0..50.0).contains(&save_ms), "save {save_ms} ms");
    assert!((5.0..35.0).contains(&restore_ms), "restore {restore_ms} ms");
}

#[test]
fn xl_checkpoint_is_order_of_magnitude_slower() {
    let mut xl = plane(ToolstackMode::Xl);
    let mut lv = plane(ToolstackMode::LightVm);
    let img = GuestImage::unikernel_daytime();
    let (dom_xl, _, _) = xl.create_and_boot("a", &img).unwrap();
    let (dom_lv, _, _) = lv.create_and_boot("a", &img).unwrap();
    let (saved_xl, t_save_xl) = xl.save_vm(dom_xl).unwrap();
    let (saved_lv, t_save_lv) = lv.save_vm(dom_lv).unwrap();
    let (_, t_rest_xl) = xl.restore_vm(&saved_xl).unwrap();
    let (_, t_rest_lv) = lv.restore_vm(&saved_lv).unwrap();
    assert!(t_save_xl > t_save_lv.scale(2.5), "{t_save_xl} vs {t_save_lv}");
    assert!(t_rest_xl > t_rest_lv.scale(5.0), "{t_rest_xl} vs {t_rest_lv}");
}

#[test]
fn migration_between_lightvm_hosts() {
    let mut src = ControlPlane::new(
        Machine::preset(MachinePreset::XeonE5_1630V3), 2, ToolstackMode::LightVm, 1,
    );
    let mut dst = ControlPlane::new(
        Machine::preset(MachinePreset::XeonE5_1630V3), 2, ToolstackMode::LightVm, 2,
    );
    let img = GuestImage::unikernel_daytime();
    let (dom, _, _) = src.create_and_boot("mig", &img).unwrap();
    let link = Link::datacenter();
    let (new_dom, t) = src.migrate_vm_to(&mut dst, &link, dom).unwrap();
    assert_eq!(src.running_count(), 0);
    assert_eq!(dst.running_count(), 1);
    assert!(dst.vm(new_dom).unwrap().booted);
    let ms = t.as_millis_f64();
    assert!((15.0..100.0).contains(&ms), "LightVM migration took {ms} ms");
}

#[test]
fn xl_migration_is_much_slower() {
    let mk = |mode, seed| {
        ControlPlane::new(Machine::preset(MachinePreset::XeonE5_1630V3), 2, mode, seed)
    };
    let img = GuestImage::unikernel_daytime();
    let link = Link::datacenter();

    let mut src = mk(ToolstackMode::Xl, 1);
    let mut dst = mk(ToolstackMode::Xl, 2);
    let (dom, _, _) = src.create_and_boot("m", &img).unwrap();
    let (_, t_xl) = src.migrate_vm_to(&mut dst, &link, dom).unwrap();

    let mut src = mk(ToolstackMode::LightVm, 3);
    let mut dst = mk(ToolstackMode::LightVm, 4);
    let (dom, _, _) = src.create_and_boot("m", &img).unwrap();
    let (_, t_lv) = src.migrate_vm_to(&mut dst, &link, dom).unwrap();

    assert!(t_xl > t_lv.scale(3.0), "xl {t_xl} vs LightVM {t_lv}");
}

#[test]
fn memory_accounting_tracks_footprints() {
    let mut cp = plane(ToolstackMode::LightVm);
    let img = GuestImage::unikernel_minipython();
    for i in 0..10 {
        cp.create_and_boot(&format!("m-{i}"), &img).unwrap();
    }
    assert_eq!(cp.guest_memory_used(), 10 * img.footprint_bytes());
}

#[test]
fn cpu_utilization_grows_with_debian_guests() {
    let mut cp = plane(ToolstackMode::LightVm);
    let img = GuestImage::debian();
    let base = cp.cpu_utilization();
    for i in 0..30 {
        cp.create_and_boot(&format!("d-{i}"), &img).unwrap();
    }
    let loaded = cp.cpu_utilization();
    assert!(loaded > base, "utilization should grow: {base} -> {loaded}");
}

#[test]
fn out_of_memory_surfaces_as_error() {
    let mut cp = ControlPlane::new(
        Machine::custom(4, 5 * (1 << 30)), // 5 GiB host, 4 GiB Dom0
        1,
        ToolstackMode::LightVm,
        7,
    );
    let img = GuestImage::debian(); // 111 MiB each
    let mut made = 0;
    loop {
        match cp.create_vm(&format!("d-{made}"), &img) {
            Ok(r) => {
                cp.boot_vm(r.dom).unwrap();
                made += 1;
            }
            Err(PlaneError::Hv(hypervisor::HvError::OutOfMemory(_))) => break,
            Err(e) => panic!("unexpected error {e:?}"),
        }
        assert!(made < 100, "memory wall never hit");
    }
    assert!(made >= 5, "should fit a few guests, got {made}");
}

#[test]
fn boot_under_load_grows_for_tinyx() {
    let mut cp = plane(ToolstackMode::LightVm);
    let img = GuestImage::tinyx_noop();
    let (_, _, first_boot) = cp.create_and_boot("t-0", &img).unwrap();
    for i in 1..120 {
        cp.create_and_boot(&format!("t-{i}"), &img).unwrap();
    }
    let (_, _, late_boot) = cp.create_and_boot("t-last", &img).unwrap();
    assert!(
        late_boot > first_boot,
        "Tinyx boot should grow with density: {first_boot} -> {late_boot}"
    );
}

#[test]
fn page_sharing_dedups_repeat_instances() {
    const MIB: u64 = 1 << 20;
    let img = GuestImage::debian(); // 111 MiB each
    // Baseline: no sharing.
    let mut plain = plane(ToolstackMode::ChaosNoxs);
    for i in 0..5 {
        plain.create_and_boot(&format!("p-{i}"), &img).unwrap();
    }
    let used_plain = plain.hv.memory.used();

    // 40% of pages shared across instances of the same image.
    let mut shared = plane(ToolstackMode::ChaosNoxs);
    shared.set_page_sharing(Some(0.4));
    for i in 0..5 {
        shared.create_and_boot(&format!("s-{i}"), &img).unwrap();
    }
    let used_shared = shared.hv.memory.used();
    // First instance full (111), four more at 60%: 111 + 4*67 vs 5*111.
    assert!(used_shared < used_plain, "{used_shared} vs {used_plain}");
    let saved = (used_plain - used_shared) / MIB;
    assert!((150..200).contains(&saved), "saved {saved} MiB");

    // A different image still pays full price for its first instance.
    let other = GuestImage::tinyx_noop();
    let before = shared.hv.memory.used();
    shared.create_and_boot("other-0", &other).unwrap();
    assert_eq!((shared.hv.memory.used() - before) / MIB, other.mem_mib);
}

#[test]
fn page_sharing_resets_when_instances_die() {
    let img = GuestImage::unikernel_daytime();
    let mut cp = plane(ToolstackMode::ChaosNoxs);
    cp.set_page_sharing(Some(0.5));
    let (a, _, _) = cp.create_and_boot("a", &img).unwrap();
    let mem_a = cp.hv.domain(a).unwrap().populated_mib;
    let (b, _, _) = cp.create_and_boot("b", &img).unwrap();
    let mem_b = cp.hv.domain(b).unwrap().populated_mib;
    assert!(mem_b < mem_a, "second instance shares pages");
    cp.destroy_vm(a).unwrap();
    cp.destroy_vm(b).unwrap();
    // With everyone gone, the next instance is a first instance again.
    let (c, _, _) = cp.create_and_boot("c", &img).unwrap();
    assert_eq!(cp.hv.domain(c).unwrap().populated_mib, mem_a);
}

#[test]
fn driver_domain_backend_works_on_xs_path_only() {
    use devices::Backend;
    use hypervisor::{DeviceKind, DomainConfig};
    use simcore::Meter;
    // Boot a driver domain, then serve a guest's vif from it via noxs:
    // rejected, as in the prototype (footnote 4).
    let mut cp = plane(ToolstackMode::ChaosNoxs);
    let cost = cp.cost();
    let mut m = Meter::new();
    let drv = cp
        .hv
        .create_domain(&cost, &mut m, &DomainConfig { max_mem_mib: 32, vcpus: 1 })
        .unwrap();
    let mut drv_net = Backend::new_in_domain(DeviceKind::Net, drv);
    let guest = cp
        .hv
        .create_domain(&cost, &mut m, &DomainConfig::default())
        .unwrap();
    cp.hv.devpage_setup(&cost, &mut m, hypervisor::DomId::DOM0, guest).unwrap();
    let err = noxs::driver::create_device(
        &mut cp.hv, &mut drv_net, &mut cp.switch, devices::Hotplug::Xendevd,
        &cost, &mut m, guest, 0, &mut simcore::FaultPlan::none(),
    )
    .unwrap_err();
    assert_eq!(err, noxs::driver::NoxsError::BackendNotDom0);

    // The same driver-domain backend works over the raw split-driver
    // machinery (what the XenStore path uses).
    drv_net.alloc_device(&mut cp.hv, &cost, &mut m, guest, 0).unwrap();
    drv_net.frontend_connect(&mut cp.hv, &cost, &mut m, guest, 0).unwrap();
    assert_eq!(
        drv_net.device(guest, 0).unwrap().state,
        devices::XenbusState::Connected
    );
    assert_eq!(drv_net.backend_dom(), drv);
}
