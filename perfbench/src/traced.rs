//! The traced run: per-layer metrics, measured apart from the timed
//! runs so that tracing never inflates an end-to-end number.
//!
//! Every traced run reports the whole per-layer set. Each layer is read
//! from the pass that exercises it, so no layer ever reports a constant
//! for want of work:
//!
//! | layers | pass |
//! |---|---|
//! | `sched`, `worldcache`, `probewalk`, `cloneboot`, `metrics` | `figures`, 2 workers |
//! | `shard`, `fleet` | `cluster`, 2 workers |
//! | `plane`, `xenstore`, `snapshot` | `xl-churn` |
//! | `hv`, `noxs`, `split` | `lightvm-churn` |
//! | `engine`, `alloc`, `trace` | the workload's own pass |
//!
//! `sched.speedup` and `shard.speedup` divide the wall of an extra
//! 1-worker pass by the 2-worker wall. `trace.overhead_s` is the
//! workload's traced wall minus its untraced wall in this run.

use std::path::Path;

use toolstack::ToolstackMode;

use crate::check;
use crate::passes::{Pass, PassArgs};
use crate::record::{Metric, PassRecord};
use crate::{spawn_pass, Outcome};

/// Every per-layer metric with its unit and whether higher is better,
/// in report order. `BENCHMARK.json` lists the same set (the self-test
/// checks that the two agree).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("sched.busy_s", "s", "lower"),
    ("sched.idle_s", "s", "lower"),
    ("sched.critical_path_s", "s", "lower"),
    ("sched.speedup", "x", "higher"),
    ("worldcache.chain_s", "s", "lower"),
    ("worldcache.chain_tasks", "count", "lower"),
    ("worldcache.snapshot_hits", "count", "higher"),
    ("worldcache.snapshot_forks", "count", "lower"),
    ("probewalk.probe_s", "s", "lower"),
    ("probewalk.walks", "count", "lower"),
    ("cloneboot.replays", "count", "higher"),
    ("cloneboot.fallbacks", "count", "lower"),
    ("cloneboot.boot_events_saved", "count", "higher"),
    ("snapshot.capture_us", "us", "lower"),
    ("snapshot.fork_us", "us", "lower"),
    ("snapshot.digest_full_us", "us", "lower"),
    ("snapshot.digest_incr_us", "us", "lower"),
    ("fleet.capture_ms", "ms", "lower"),
    ("fleet.stamp_us_p50", "us", "lower"),
    ("shard.w0.busy_s", "s", "lower"),
    ("shard.w0.wait_s", "s", "lower"),
    ("shard.w1.busy_s", "s", "lower"),
    ("shard.w1.wait_s", "s", "lower"),
    ("shard.steps", "count", "lower"),
    ("shard.messages", "count", "lower"),
    ("shard.speedup", "x", "higher"),
    ("plane.create_us_p50", "us", "lower"),
    ("plane.create_us_p90", "us", "lower"),
    ("plane.create_vm_us_p50", "us", "lower"),
    ("plane.create_vm_us_p90", "us", "lower"),
    ("plane.boot_vm_us_p50", "us", "lower"),
    ("plane.boot_vm_us_p90", "us", "lower"),
    ("plane.destroy_us_p50", "us", "lower"),
    ("plane.destroy_us_p90", "us", "lower"),
    ("plane.lifecycle_ops_per_s", "1/s", "higher"),
    ("plane.creates", "count", "higher"),
    ("plane.destroys", "count", "higher"),
    ("plane.sim_ms_total", "sim_ms", "lower"),
    ("xenstore.requests_per_op", "count/op", "lower"),
    ("xenstore.watch_events_per_op", "count/op", "lower"),
    ("xenstore.txn_conflicts", "count", "lower"),
    ("xenstore.log_rotations", "count", "lower"),
    ("xenstore.nodes", "count", "lower"),
    ("xenstore.dir_us", "us", "lower"),
    ("xenstore.dir_entries", "count", "lower"),
    ("xenstore.rm_us", "us", "lower"),
    ("hv.domains", "count", "lower"),
    ("hv.evtchns", "count", "lower"),
    ("hv.grants", "count", "lower"),
    ("noxs.device_pages", "count", "lower"),
    ("split.pool_depth_min", "count", "higher"),
    ("split.refills", "count", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.host_ns_per_event", "ns", "lower"),
    ("alloc.allocs_per_event", "count/event", "lower"),
    ("metrics.write_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
];

/// Which pass each layer is read from (by metric-name prefix).
fn source(name: &str) -> Source {
    let layer = name.split('.').next().unwrap_or(name);
    match layer {
        "sched" | "worldcache" | "probewalk" | "cloneboot" | "metrics" => Source::Figures,
        "shard" | "fleet" => Source::Cluster,
        "hv" | "noxs" | "split" => Source::LightVm,
        "engine" | "alloc" => Source::Own,
        _ => Source::Xl,
    }
}

enum Source {
    Figures,
    Cluster,
    Xl,
    LightVm,
    Own,
}

pub fn run(
    workload: Pass,
    seed: u64,
    reference: &Path,
    work_dir: &Path,
) -> Result<Outcome, String> {
    let mut k = 0;
    let mut pass = |pass: Pass, jobs: usize, traced: bool| {
        k += 1;
        spawn_pass(&PassArgs {
            pass,
            seed,
            jobs,
            traced,
            out: work_dir.join(format!("traced-{k}")),
            reference: reference.to_path_buf(),
        })
    };
    let figures = pass(Pass::Figures, 2, true)?;
    let figures_j1 = pass(Pass::Figures, 1, false)?;
    let cluster = pass(Pass::Cluster, 2, true)?;
    let cluster_j1 = pass(Pass::Cluster, 1, false)?;
    let xl = pass(Pass::Churn(ToolstackMode::Xl), 2, true)?;
    let lightvm = pass(Pass::Churn(ToolstackMode::LightVm), 2, true)?;
    let untraced = pass(workload, 2, false)?;
    let own = match workload {
        Pass::Figures => &figures,
        Pass::Cluster => &cluster,
        Pass::Churn(ToolstackMode::LightVm) => &lightvm,
        Pass::Churn(_) => &xl,
    };

    let mut all = [
        &figures,
        &figures_j1,
        &cluster,
        &cluster_j1,
        &xl,
        &lightvm,
        &untraced,
    ]
    .iter()
    .fold(PassRecord::default(), |mut acc, r| {
        acc.attempted += r.attempted;
        acc.failed += r.failed;
        acc
    });
    // The traced pass must count exactly what the untraced one counts.
    let drift = check::count_drift(&[own.clone(), untraced.clone()]);
    all.check(
        drift.is_empty(),
        &format!("traced counts equal untraced: {}", drift.join("; ")),
    );

    let mut metrics = Vec::new();
    for &(name, unit, _) in PER_LAYER {
        let value = match name {
            "sched.speedup" => figures_j1.wall_s / figures.wall_s,
            "shard.speedup" => cluster_j1.wall_s / cluster.wall_s,
            "trace.traced_wall_s" => own.wall_s,
            "trace.untraced_wall_s" => untraced.wall_s,
            "trace.overhead_s" => own.wall_s - untraced.wall_s,
            _ => {
                let from = match source(name) {
                    Source::Figures => &figures,
                    Source::Cluster => &cluster,
                    Source::Xl => &xl,
                    Source::LightVm => &lightvm,
                    Source::Own => own,
                };
                from.layer_value(name)
                    .ok_or_else(|| format!("traced pass reported no {name}"))?
            }
        };
        metrics.push(Metric::new(name, value, unit));
    }
    Ok(Outcome {
        attempted: all.attempted,
        failed: all.failed,
        metrics,
    })
}
