//! Counters of the removed template-boot layer, kept as a shim.
//!
//! Every create goes through [`crate::ControlPlane::create_and_boot`];
//! there are no templates, so nothing is ever hit, replayed or saved and
//! both functions return 0. They remain only because the benchmark
//! harness (`perfbench/src/passes.rs`) still reads them. The next change
//! to the benchmark drops its `cloneboot.*` metrics, and this module
//! with them.

/// `(hits, replays, events saved)`: always `(0, 0, 0)`.
pub fn totals() -> (u64, u64, u64) {
    (0, 0, 0)
}

/// Replays whose name check fell back to the real scan: always 0.
pub fn fallback_total() -> u64 {
    0
}
