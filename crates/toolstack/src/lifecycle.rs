//! Checkpoint (save/restore) and migration on top of the control plane.
//!
//! Under the XenStore the suspend handshake goes through
//! `control/shutdown` plus watches, and restore re-runs the whole device
//! handshake (slow: Figure 12 shows 128 ms / 550 ms for xl). Under noxs
//! the sysctl split device and the device page make both operations tens
//! of milliseconds, independent of density.

use guests::GuestImage;
use hypervisor::{DomId, DomainConfig, DeviceKind, ShutdownReason};
use lvnet::Link;
use noxs::checkpoint as noxs_ckpt;
use noxs::migrate::{self as noxs_migrate, MigrationEndpoint};
use simcore::{Category, Meter, SimTime};

use devices::{xsdev, Backend};

use crate::plane::{ControlPlane, PlaneError, ToolstackMode, Vm};

/// A guest saved to the ramdisk (or serialised for migration).
#[derive(Clone, Debug)]
pub struct SavedVm {
    /// Name to restore under.
    pub name: String,
    /// The image it was running.
    pub image: GuestImage,
    /// Memory dump size in MiB.
    pub mem_mib: u64,
}

impl ControlPlane {
    /// Suspends a guest and writes it to the ramdisk, destroying the
    /// domain. Returns the saved state and the save latency.
    pub fn save_vm(&mut self, dom: DomId) -> Result<(SavedVm, SimTime), PlaneError> {
        let cost = self.cost();
        let mut meter = Meter::new();
        let vm = self.vm(dom)?.clone();
        let mem_mib = self.hv.domain(dom)?.populated_mib;

        meter.charge(
            Category::Toolstack,
            match self.mode {
                ToolstackMode::Xl => cost.xl_internal,
                _ => cost.chaos_internal,
            },
        );

        if self.mode.uses_xenstore() {
            // Suspend request via control/shutdown + watch wait.
            let cs = self.xs.control_shutdown_sym(dom.0);
            self.xs.write_s(&cost, &mut meter, 0, cs, b"suspend")?;
            let wait = match self.mode {
                ToolstackMode::Xl => cost.xl_suspend_wait,
                _ => cost.xl_suspend_wait.scale(0.45),
            };
            meter.charge(Category::Other, wait);
            self.hv.shutdown(&cost, &mut meter, dom, ShutdownReason::Suspend)?;
            meter.charge(Category::Other, cost.xc_context_save);
            meter.charge(Category::Other, cost.ramdisk_write_per_mib * mem_mib);
            self.teardown_xs_vm(&cost, &mut meter, dom, &vm);
            self.hv.destroy(&cost, &mut meter, dom)?;
        } else {
            if !self.sysctl.is_set_up(dom) {
                self.sysctl.setup(&mut self.hv, &cost, &mut meter, dom)?;
            }
            noxs_ckpt::save(
                &mut self.hv, &mut self.sysctl, &cost, &mut meter, dom,
                vm.net_devids.clone(),
            )?;
            self.net.drop_domain(dom);
            self.blk.drop_domain(dom);
            self.console.drop_domain(dom);
            self.switch.drop_domain(dom);
        }

        self.forget_vm(dom, &vm);
        Ok((
            SavedVm {
                name: vm.name,
                image: vm.image,
                mem_mib,
            },
            meter.total(),
        ))
    }

    /// Restores a saved guest. Returns the new domain and the restore
    /// latency.
    pub fn restore_vm(&mut self, saved: &SavedVm) -> Result<(DomId, SimTime), PlaneError> {
        let cost = self.cost();
        let mut meter = Meter::new();
        meter.charge(
            Category::Toolstack,
            match self.mode {
                ToolstackMode::Xl => cost.xl_internal,
                _ => cost.chaos_internal,
            },
        );

        let dom = if self.mode.uses_xenstore() {
            let dom = self.hv.create_domain(
                &cost,
                &mut meter,
                &DomainConfig {
                    max_mem_mib: saved.mem_mib.max(1),
                    vcpus: 1,
                },
            )?;
            self.hv.populate_physmap(&cost, &mut meter, dom, saved.mem_mib)?;
            meter.charge(Category::Other, cost.ramdisk_read_per_mib * saved.mem_mib);
            meter.charge(Category::Other, cost.xc_context_restore);
            self.xs.connect(dom.0);
            self.xs_register_domain(&cost, &mut meter, dom, &saved.name)?;
            for devid in device_ids(&saved.image) {
                let mac = Backend::mac_for(dom, devid.1);
                xsdev::toolstack_announce_device(
                    &mut self.xs, &cost, &mut meter, devid.0, dom, devid.1, &mac,
                )?;
                self.process_backend_events(&cost, &mut meter, devid.0)?;
                let backend = match devid.0 {
                    DeviceKind::Net => &mut self.net,
                    DeviceKind::Block => &mut self.blk,
                    _ => &mut self.console,
                };
                xsdev::frontend_connect_via_xenstore(
                    &mut self.xs, &mut self.hv, backend, &cost, &mut meter, dom, devid.1,
                    &mut self.faults,
                )?;
            }
            // Device/driver reconnection wait (udev + xenbus settling).
            let reconnect = match self.mode {
                ToolstackMode::Xl => cost.xl_restore_reconnect,
                _ => cost.xl_restore_reconnect.scale(0.12),
            };
            meter.charge(Category::Other, reconnect);
            self.hv.unpause(&cost, &mut meter, dom)?;
            dom
        } else {
            let guest = noxs_ckpt::SavedGuest {
                mem_mib: saved.mem_mib,
                vcpus: 1,
                net_devids: if saved.image.needs_net { vec![0] } else { vec![] },
            };
            let dom = noxs_ckpt::restore(
                &mut self.hv, &mut self.sysctl, &cost, &mut meter, &guest,
            )?;
            for devid in &guest.net_devids {
                noxs::driver::create_device(
                    &mut self.hv, &mut self.net, &mut self.switch, self.mode.hotplug(),
                    &cost, &mut meter, dom, *devid, &mut self.faults,
                )?;
            }
            if saved.image.needs_console {
                noxs::driver::create_device(
                    &mut self.hv, &mut self.console, &mut self.switch, self.mode.hotplug(),
                    &cost, &mut meter, dom, 0, &mut self.faults,
                )?;
            }
            noxs::driver::guest_connect_devices(
                &mut self.hv,
                &mut [&mut self.net, &mut self.blk, &mut self.console],
                &cost,
                &mut meter,
                dom,
                &mut self.faults,
            )?;
            dom
        };

        self.adopt_vm(dom, &saved.name, &saved.image);
        Ok((dom, meter.total()))
    }

    /// Migrates a guest to another host over `link`. Returns the new
    /// domain id at the destination and the total migration latency.
    pub fn migrate_vm_to(
        &mut self,
        dst: &mut ControlPlane,
        link: &Link,
        dom: DomId,
    ) -> Result<(DomId, SimTime), PlaneError> {
        let vm = self.vm(dom)?.clone();
        let (new_dom, latency) = if self.mode.uses_xenstore() {
            self.migrate_via_xenstore(dst, link, dom, &vm)?
        } else {
            let src_cost = self.cost();
            let dst_cost = dst.cost();
            let mut src_ep = MigrationEndpoint {
                hv: &mut self.hv,
                net: &mut self.net,
                switch: &mut self.switch,
                sysctl: &mut self.sysctl,
                cost: &src_cost,
            };
            let mut dst_ep = MigrationEndpoint {
                hv: &mut dst.hv,
                net: &mut dst.net,
                switch: &mut dst.switch,
                sysctl: &mut dst.sysctl,
                cost: &dst_cost,
            };
            let (new_dom, t) =
                noxs_migrate::migrate_timed(&mut src_ep, &mut dst_ep, link, dom, &vm.net_devids)
                    .map_err(|e| PlaneError::Dev(format!("{e:?}")))?;
            (new_dom, t)
        };
        self.forget_vm(dom, &vm);
        dst.adopt_vm(new_dom, &vm.name, &vm.image);
        Ok((new_dom, latency))
    }

    /// XenStore-based migration: suspend via control/shutdown, stream
    /// config + memory over TCP, full device re-handshake at the target.
    fn migrate_via_xenstore(
        &mut self,
        dst: &mut ControlPlane,
        link: &Link,
        dom: DomId,
        vm: &Vm,
    ) -> Result<(DomId, SimTime), PlaneError> {
        let cost = self.cost();
        let mut meter = Meter::new();
        let mem_mib = self.hv.domain(dom)?.populated_mib;
        meter.charge(
            Category::Toolstack,
            match self.mode {
                ToolstackMode::Xl => cost.xl_internal,
                _ => cost.chaos_internal,
            },
        );
        // Connect to the remote daemon, ship the config.
        meter.charge(Category::Other, link.tcp_handshake() + link.transfer_time(2048));
        // Suspend at the source.
        let cs = self.xs.control_shutdown_sym(dom.0);
        self.xs.write_s(&cost, &mut meter, 0, cs, b"suspend")?;
        let wait = match self.mode {
            ToolstackMode::Xl => cost.xl_suspend_wait,
            _ => cost.xl_suspend_wait.scale(0.45),
        };
        meter.charge(Category::Other, wait);
        self.hv.shutdown(&cost, &mut meter, dom, ShutdownReason::Suspend)?;
        meter.charge(Category::Other, cost.xc_context_save);
        // Stream memory.
        meter.charge(Category::Other, link.transfer_time(mem_mib << 20));

        // Target side: create + register + devices + reconnect.
        let dst_cost = dst.cost();
        let new_dom = dst.hv.create_domain(
            &dst_cost,
            &mut meter,
            &DomainConfig {
                max_mem_mib: mem_mib.max(1),
                vcpus: 1,
            },
        )?;
        dst.hv.populate_physmap(&dst_cost, &mut meter, new_dom, mem_mib)?;
        meter.charge(Category::Other, dst_cost.xc_context_restore);
        dst.xs.connect(new_dom.0);
        dst.xs_register_domain(&dst_cost, &mut meter, new_dom, &vm.name)?;
        for devid in device_ids(&vm.image) {
            let mac = Backend::mac_for(new_dom, devid.1);
            xsdev::toolstack_announce_device(
                &mut dst.xs, &dst_cost, &mut meter, devid.0, new_dom, devid.1, &mac,
            )?;
            dst.process_backend_events(&dst_cost, &mut meter, devid.0)?;
            let backend = match devid.0 {
                DeviceKind::Net => &mut dst.net,
                DeviceKind::Block => &mut dst.blk,
                _ => &mut dst.console,
            };
            xsdev::frontend_connect_via_xenstore(
                &mut dst.xs, &mut dst.hv, backend, &dst_cost, &mut meter, new_dom, devid.1,
                &mut dst.faults,
            )?;
        }
        let reconnect = match self.mode {
            ToolstackMode::Xl => dst_cost.xl_restore_reconnect.scale(0.5),
            _ => dst_cost.xl_restore_reconnect.scale(0.1),
        };
        meter.charge(Category::Other, reconnect);
        dst.hv.unpause(&dst_cost, &mut meter, new_dom)?;

        // Source clean-up.
        self.teardown_xs_vm(&cost, &mut meter, dom, vm);
        self.hv.destroy(&cost, &mut meter, dom)?;
        Ok((new_dom, meter.total()))
    }

    /// Removes XenStore state and backend devices of a gone guest.
    fn teardown_xs_vm(
        &mut self,
        cost: &simcore::CostModel,
        meter: &mut Meter,
        dom: DomId,
        vm: &Vm,
    ) {
        for devid in &vm.net_devids {
            let _ = xsdev::destroy_device_via_xenstore(
                &mut self.xs, &mut self.hv, &mut self.net, &mut self.switch,
                self.mode.hotplug(), cost, meter, dom, *devid,
            );
        }
        for devid in &vm.blk_devids {
            let _ = xsdev::destroy_device_via_xenstore(
                &mut self.xs, &mut self.hv, &mut self.blk, &mut self.switch,
                self.mode.hotplug(), cost, meter, dom, *devid,
            );
        }
        if vm.image.needs_console {
            let _ = xsdev::destroy_device_via_xenstore(
                &mut self.xs, &mut self.hv, &mut self.console, &mut self.switch,
                self.mode.hotplug(), cost, meter, dom, 0,
            );
        }
        let d = self.xs.domain_dir_sym(dom.0);
        let _ = self.xs.rm_s(cost, meter, 0, d);
        let v = self.xs.vm_dir_sym(dom.0);
        let _ = self.xs.rm_s(cost, meter, 0, v);
        self.xs.disconnect(dom.0);
    }

    /// Drops local bookkeeping for a guest that left this host.
    pub(crate) fn forget_vm(&mut self, dom: DomId, vm: &Vm) {
        if self.vm(dom).is_ok() {
            if let Some(n) = self.image_instances.get_mut(&vm.image.name) {
                *n = n.saturating_sub(1);
            }
        }
        if let Some(rec) = self.remove_vm(dom) {
            if let Some(bg) = rec.bg {
                self.cpu.remove(bg);
            }
            if rec.booted {
                self.note_unbooted(rec.image.watches);
            }
        }
        if vm.booted {
            self.dom0_load_total = (self.dom0_load_total - vm.image.dom0_load).max(0.0);
        }
        self.refresh_interference();
    }

    /// Registers an arrived (restored/migrated-in) guest as booted.
    pub(crate) fn adopt_vm(&mut self, dom: DomId, name: &str, image: &GuestImage) {
        let core = self
            .hv
            .domain(dom)
            .map(|d| d.vcpu_cores[0])
            .unwrap_or(self.dom0_cores);
        let bg = self.cpu.add_background(core, image.idle_demand);
        self.note_booted(image.watches);
        self.dom0_load_total += image.dom0_load;
        self.note_instance(&image.name);
        self.insert_vm(
            dom,
            Vm {
                name: name.to_string(),
                image: image.clone(),
                core,
                bg: Some(bg),
                booted: true,
                net_devids: if image.needs_net { vec![0] } else { vec![] },
                blk_devids: if image.needs_block { vec![0] } else { vec![] },
            },
        );
        self.refresh_interference();
    }
}

fn device_ids(image: &GuestImage) -> Vec<(DeviceKind, u32)> {
    let mut out = Vec::new();
    if image.needs_net {
        out.push((DeviceKind::Net, 0));
    }
    if image.needs_block {
        out.push((DeviceKind::Block, 0));
    }
    if image.needs_console {
        out.push((DeviceKind::Console, 0));
    }
    out
}
