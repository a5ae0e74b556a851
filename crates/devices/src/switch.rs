//! The Dom0 software switch (Open vSwitch stand-in).
//!
//! Muxes/demuxes packets between physical NICs and guest vifs (paper
//! §4.1). For the control-plane experiments only port management matters;
//! data-path behaviour (throughput sharing, overload) lives in `lvnet`.

use std::sync::Arc;

use hypervisor::DomId;
use simcore::{Category, ChunkVec, CostModel, Meter};

/// Switch errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwitchError {
    /// Port already attached.
    PortExists,
    /// No such port.
    NoSuchPort,
}

/// A software switch: vif ports (Xen names them `vif<dom>.<devid>`)
/// mapping to guest domains.
///
/// Ports are grouped by domain in a copy-on-write [`ChunkVec`] keyed by
/// domid: a world fork costs O(chunks), and a domain's death touches
/// only its own ports.
#[derive(Clone, Default, Debug)]
pub struct SoftwareSwitch {
    /// Each domain's attached vif devids (one allocation per domain: a
    /// slice, rebuilt when a port comes or goes).
    ports: ChunkVec<Option<Arc<[u32]>>>,
    count: usize,
}

impl SoftwareSwitch {
    /// Creates an empty switch.
    pub fn new() -> SoftwareSwitch {
        SoftwareSwitch::default()
    }

    /// Attaches the vif port of `dom`'s device `devid`.
    pub fn add_port(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        devid: u32,
    ) -> Result<(), SwitchError> {
        meter.charge(Category::Devices, cost.switch_add_port);
        if self.has_port(dom, devid) {
            return Err(SwitchError::PortExists);
        }
        self.ports.push_to(dom.0 as usize, devid);
        self.count += 1;
        Ok(())
    }

    /// Detaches the vif port of `dom`'s device `devid`.
    pub fn del_port(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        devid: u32,
    ) -> Result<(), SwitchError> {
        meter.charge(Category::Devices, cost.switch_del_port);
        if !self.has_port(dom, devid) {
            return Err(SwitchError::NoSuchPort);
        }
        self.count -= self.ports.retain_in(dom.0 as usize, |&d| d != devid);
        Ok(())
    }

    /// Detaches every port of a domain (domain death).
    pub fn drop_domain(&mut self, dom: DomId) -> usize {
        let dropped = self.ports.retain_in(dom.0 as usize, |_| false);
        self.count -= dropped;
        dropped
    }

    /// Whether `dom`'s device `devid` has a port attached.
    pub fn has_port(&self, dom: DomId, devid: u32) -> bool {
        self.ports
            .get(dom.0 as usize)
            .as_ref()
            .is_some_and(|d| d.contains(&devid))
    }

    /// Number of attached ports.
    pub fn port_count(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_del_ports() {
        let cost = CostModel::paper_defaults();
        let mut m = Meter::new();
        let mut sw = SoftwareSwitch::new();
        sw.add_port(&cost, &mut m, DomId(1), 0).unwrap();
        assert!(sw.has_port(DomId(1), 0));
        assert!(!sw.has_port(DomId(2), 0));
        assert_eq!(
            sw.add_port(&cost, &mut m, DomId(1), 0).unwrap_err(),
            SwitchError::PortExists
        );
        sw.del_port(&cost, &mut m, DomId(1), 0).unwrap();
        assert_eq!(
            sw.del_port(&cost, &mut m, DomId(1), 0).unwrap_err(),
            SwitchError::NoSuchPort
        );
        assert_eq!(sw.port_count(), 0);
        assert!(m.of(Category::Devices) > simcore::SimTime::ZERO);
    }

    #[test]
    fn drop_domain_clears_its_ports() {
        let cost = CostModel::paper_defaults();
        let mut m = Meter::new();
        let mut sw = SoftwareSwitch::new();
        sw.add_port(&cost, &mut m, DomId(1), 0).unwrap();
        sw.add_port(&cost, &mut m, DomId(1), 1).unwrap();
        sw.add_port(&cost, &mut m, DomId(2), 0).unwrap();
        assert_eq!(sw.drop_domain(DomId(1)), 2);
        assert_eq!(sw.port_count(), 1);
    }
}
