//! A simulated Xen-like type-1 hypervisor.
//!
//! The hypervisor "only manages basic resources such as CPUs and memory"
//! (paper §4.1). This crate models exactly that surface: domain lifecycle
//! (the `domctl` interface), guest memory reservation/population with
//! host-level pressure, vCPU-to-core placement, event channels, grant
//! tables — and the paper's one hypervisor extension, the **noxs device
//! memory page** (§5.1): a per-guest read-only page through which device
//! details flow instead of the XenStore.
//!
//! Every hypercall charges its cost to a [`simcore::Meter`] under
//! [`simcore::Category::Hypervisor`].

pub mod devpage;
pub mod domain;
pub mod evtchn;
pub mod gnttab;
pub mod hv;

/// Slots per chunk of one domain's port or grant-ref table. Most
/// domains hold a handful of ports and refs, Dom0 one of each per
/// back-end device: 16-slot chunks keep a guest's table near the size of
/// an ordered map's node, and a fork's first write to Dom0's copies 16
/// slots. Against 64, an A/B measured `xl-churn` peak RSS 19.0 → 18.2
/// MB, `lightvm-churn` 6.3 → 5.5 MB and the cluster figure 145 → 138 MB.
const REF_CHUNK: usize = 16;

pub use devpage::{DevicePage, DevicePageEntry, DeviceKind};
pub use domain::{DomId, Domain, DomainConfig, DomainState, ShutdownReason};
pub use evtchn::{EvtchnPort, EvtchnTable};
pub use gnttab::{GrantRef, GrantTable};
pub use hv::{HvError, Hypervisor};

/// Result alias for hypercalls.
pub type Result<T> = std::result::Result<T, HvError>;
