//! The figure registry ([`figures`]), the parallel runner ([`runner`])
//! and their shared helpers. `runall` is the one binary that
//! regenerates figures; `headline` prints the paper's headline numbers
//! and `allocs` counts allocations on the density hot path.

pub mod ablations;
pub mod alloc;
pub mod churn;
pub mod cluster;
pub mod faultsweep;
pub mod figures;
pub mod probewalk;
pub mod runner;
pub mod sched;
pub mod worldcache;

use std::path::PathBuf;

use simcore::SimTime;

pub use figures::Scale;

/// Where figure artefacts (.json/.csv/.txt) are written.
pub fn out_dir() -> PathBuf {
    std::env::var_os("LIGHTVM_FIG_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/figures"))
}

/// Densities at which the sweep binaries measure (denser at the start,
/// then every 50 up to `max`).
pub fn density_steps(max: usize) -> Vec<usize> {
    let mut steps = vec![1, 2, 5, 10, 20, 35, 50, 75, 100];
    let mut n = 150;
    while n <= max {
        steps.push(n);
        n += 50;
    }
    steps.retain(|&s| s <= max);
    if steps.last() != Some(&max) {
        steps.push(max);
    }
    steps
}

/// Whether `n` is on the density ladder — i.e. would appear in
/// [`density_steps`]`(max)` for every `max >= n` that is itself on the
/// ladder. The world cache samples expensive per-density observables
/// (CPU utilisation is O(guests)) only at ladder points, so the rule
/// must not depend on any particular sweep's target.
pub fn on_density_ladder(n: usize) -> bool {
    matches!(n, 1 | 2 | 5 | 10 | 20 | 35 | 50 | 75 | 100) || (n >= 150 && n.is_multiple_of(50))
}

/// Scale factor for run sizes: full scale by default, 1/10 with
/// `LIGHTVM_QUICK=1`.
pub fn scaled(n: usize) -> usize {
    Scale::from_env().scaled(n)
}

/// One guest's create/boot measurement within a density sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Guests already running when this one was created.
    pub n_before: usize,
    /// Toolstack creation latency.
    pub create: SimTime,
    /// Guest boot latency.
    pub boot: SimTime,
}

/// Extracts an (x = index, y = value ms) series from sweep points.
pub fn series_ms(
    label: &str,
    points: &[SweepPoint],
    f: impl Fn(&SweepPoint) -> SimTime,
) -> metrics::Series {
    metrics::Series::from_points(
        label,
        points
            .iter()
            .enumerate()
            .map(|(i, p)| (i as f64 + 1.0, f(p).as_millis_f64())),
    )
}

