//! One pass = one fresh process. `worldcache` and `cloneboot` are
//! process-global caches that every user run starts empty, so the
//! harness never reuses a process between repetitions.

use std::path::{Path, PathBuf};
use std::time::Instant;

use bench::figures::{all_specs, spec_by_id, Scale};
use bench::runner;
use metrics::RunnerReport;
use simcore::Meter;
use toolstack::{cloneboot, ControlPlane, HostTemplate, ToolstackMode};
use xenstore::XsPath;

use crate::check;
use crate::churn::{self, ChurnWorld};
use crate::record::PassRecord;
use crate::stats::{median, quantile};

/// Guests resident on the churn host (1/10 under `LIGHTVM_QUICK`).
const RESIDENTS: usize = 1000;

/// Seeded calls per churn block, and blocks per pass. Every block ends
/// back at the canonical population, which is checked, so a pass checks
/// it `BLOCKS` times. LightVM's calls cost a fraction of xl's, so its
/// blocks hold 8 times as many calls from the same seeded stream.
const XL_BLOCK: usize = 250;
const LIGHTVM_BLOCK: usize = 8 * XL_BLOCK;
const BLOCKS: usize = 4;

/// Density of the harness's own host template and the number of hosts
/// stamped from it: the cluster figure's 100-guest template and its
/// 1 + 10 + 100 + 1000 host ladder.
const TEMPLATE_GUESTS: usize = 100;
const STAMPS: usize = 1111;

/// Plannings per `figures` or `cluster` pass whose median is its set-up
/// time.
const SETUP_REPS: usize = 5;

/// Samples per micro-timed public call in a traced churn pass.
const PROBES: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pass {
    Figures,
    Cluster,
    Churn(ToolstackMode),
}

impl Pass {
    pub fn name(self) -> &'static str {
        match self {
            Pass::Figures => "figures",
            Pass::Cluster => "cluster",
            Pass::Churn(ToolstackMode::LightVm) => "lightvm-churn",
            Pass::Churn(_) => "xl-churn",
        }
    }

    pub fn parse(s: &str) -> Option<Pass> {
        Some(match s {
            "figures" => Pass::Figures,
            "cluster" => Pass::Cluster,
            "xl-churn" => Pass::Churn(ToolstackMode::Xl),
            "lightvm-churn" => Pass::Churn(ToolstackMode::LightVm),
            _ => return None,
        })
    }
}

/// Everything a pass process is told on its command line.
#[derive(Clone, Debug)]
pub struct PassArgs {
    pub pass: Pass,
    pub seed: u64,
    pub jobs: usize,
    pub traced: bool,
    /// Where figure artefacts go, and what they must equal.
    pub out: PathBuf,
    pub reference: PathBuf,
}

impl PassArgs {
    pub fn to_args(&self) -> Vec<String> {
        vec![
            self.pass.name().to_string(),
            self.seed.to_string(),
            self.jobs.to_string(),
            (self.traced as u8).to_string(),
            self.out.display().to_string(),
            self.reference.display().to_string(),
        ]
    }

    pub fn parse(args: &[String]) -> Option<PassArgs> {
        let [pass, seed, jobs, traced, out, reference] = args else {
            return None;
        };
        Some(PassArgs {
            pass: Pass::parse(pass)?,
            seed: seed.parse().ok()?,
            jobs: jobs.parse().ok().filter(|&j| j > 0)?,
            traced: traced == "1",
            out: PathBuf::from(out),
            reference: PathBuf::from(reference),
        })
    }
}

/// Runs one pass in this process. `started` is the process start.
pub fn run(started: Instant, a: &PassArgs) -> PassRecord {
    let mut rec = match a.pass {
        Pass::Figures | Pass::Cluster => figure_pass(started, a),
        Pass::Churn(mode) => churn_pass(started, a, mode),
    };
    rec.rss_mb = peak_rss_mb();
    rec
}

fn peak_rss_mb() -> f64 {
    let kib: f64 = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0.0);
    kib * 1024.0 / 1e6
}

/// `figures` (the whole registry) or `cluster` (its cluster figure)
/// through the runner, as `runall` runs them, then written to disk.
fn figure_pass(started: Instant, a: &PassArgs) -> PassRecord {
    let scale = Scale::from_env();
    let plan = || match a.pass {
        Pass::Figures => all_specs(scale),
        _ => vec![spec_by_id(scale, "cluster").expect("cluster figure registered")],
    };
    // Planning takes well under a millisecond, too short to time once:
    // plan SETUP_REPS times (the first from process start) and keep the
    // median.
    let mut specs = plan();
    let mut setup = vec![started.elapsed().as_secs_f64()];
    for _ in 1..SETUP_REPS {
        drop(std::mem::take(&mut specs));
        let t = Instant::now();
        specs = plan();
        setup.push(t.elapsed().as_secs_f64());
    }
    let expected = specs.len();
    let mut rec = PassRecord {
        setup_s: median(&setup),
        ..PassRecord::default()
    };

    let t = Instant::now();
    let (runs, report) = runner::run(specs, a.jobs, scale.quick);
    let t_write = Instant::now();
    let written: Vec<_> = runs.iter().map(|r| r.figure.write_files(&a.out)).collect();
    let write_s = t_write.elapsed().as_secs_f64();
    rec.wall_s = t.elapsed().as_secs_f64();

    rec.check(runs.len() == expected, "every figure produced");
    for (r, w) in runs.iter().zip(&written) {
        let id = &r.figure.id;
        let bad = match w {
            Ok(()) => check::compare_artefacts(&a.out, &a.reference, std::slice::from_ref(id)),
            Err(e) => vec![format!("{id}: write failed: {e}")],
        };
        rec.check(
            bad.is_empty(),
            &format!("{id} artefacts: {}", bad.join("; ")),
        );
    }

    let kind = |k: &'static str| report.tasks.iter().filter(move |t| t.kind == k);
    let (hits, replayed, saved) = cloneboot::totals();
    rec.count("engine.events", report.total_events() as f64);
    rec.count("sched.tasks", kind("unit").count() as f64);
    rec.count("worldcache.chain_tasks", kind("chain").count() as f64);
    rec.count(
        "worldcache.snapshot_hits",
        report.units.iter().map(|u| u.snapshot_hits).sum::<u64>() as f64,
    );
    rec.count(
        "worldcache.snapshot_forks",
        report.units.iter().map(|u| u.snapshot_forks).sum::<u64>() as f64,
    );
    rec.count("worldcache.boots_saved", report.total_boots_saved() as f64);
    rec.count("probewalk.walks", kind("probe").count() as f64);
    rec.count("cloneboot.hits", hits as f64);
    rec.count("cloneboot.replays", replayed as f64);
    rec.count("cloneboot.events_saved", saved as f64);
    rec.count("cloneboot.fallbacks", cloneboot::fallback_total() as f64);
    rec.count(
        "shard.steps_and_messages",
        kind("shard").map(|t| t.events).sum::<u64>() as f64,
    );

    if a.traced {
        runner_layers(&mut rec, &report, write_s);
        if a.pass == Pass::Cluster {
            shard_layers(&mut rec, scale, a.jobs);
            fleet_layers(&mut rec, scale);
        }
    }
    rec
}

/// Scheduler, world cache, probe walk, template boot, metrics and
/// engine numbers from the runner's own report.
fn runner_layers(rec: &mut PassRecord, report: &RunnerReport, write_s: f64) {
    let wall_s = report.wall_ms / 1e3;
    let busy_s = report.total_task_wall_ms() / 1e3;
    let task_s = |k: &str| {
        report
            .tasks
            .iter()
            .filter(|t| t.kind == k)
            .map(|t| t.wall_ms())
            .sum::<f64>()
            / 1e3
    };
    let count = |name: &str| {
        rec.counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let layers = [
        ("sched.busy_s", busy_s, "s"),
        ("sched.idle_s", report.jobs as f64 * wall_s - busy_s, "s"),
        (
            "sched.critical_path_s",
            report.critical_path_ms() / 1e3,
            "s",
        ),
        ("worldcache.chain_s", task_s("chain"), "s"),
        (
            "worldcache.chain_tasks",
            count("worldcache.chain_tasks"),
            "count",
        ),
        (
            "worldcache.snapshot_hits",
            count("worldcache.snapshot_hits"),
            "count",
        ),
        (
            "worldcache.snapshot_forks",
            count("worldcache.snapshot_forks"),
            "count",
        ),
        ("probewalk.probe_s", task_s("probe"), "s"),
        ("probewalk.walks", count("probewalk.walks"), "count"),
        ("cloneboot.replays", count("cloneboot.replays"), "count"),
        ("cloneboot.fallbacks", count("cloneboot.fallbacks"), "count"),
        (
            "cloneboot.boot_events_saved",
            count("cloneboot.events_saved"),
            "count",
        ),
        ("metrics.write_ms", write_s * 1e3, "ms"),
        ("engine.events", report.total_events() as f64, "count"),
        (
            "engine.host_ns_per_event",
            1e9 / report.aggregate_events_per_sec(),
            "ns",
        ),
        (
            "alloc.allocs_per_event",
            report.allocs_per_event(),
            "count/event",
        ),
    ];
    for (name, value, unit) in layers {
        rec.layer(name, value, unit);
    }
}

/// Per-worker shard occupancy. The runner folds the shard spans into
/// its report without their busy time, so this re-runs the cluster
/// units on the caller thread (their worlds are cached by now) with
/// the shard pool at `jobs` workers and drains the spans itself.
fn shard_layers(rec: &mut PassRecord, scale: Scale, jobs: usize) {
    bench::cluster::set_shard_jobs(jobs);
    drop(bench::cluster::drain_shard_trace());
    let spec = spec_by_id(scale, "cluster").expect("cluster figure registered");
    for unit in spec.units {
        drop((unit.run)());
    }
    let spans = bench::cluster::drain_shard_trace();
    for w in 0..jobs {
        let mine = spans.iter().filter(|s| s.worker == w);
        let busy: f64 = mine.clone().map(|s| s.busy_ms / 1e3).sum();
        let span: f64 = mine.map(|s| (s.last - s.first).as_secs_f64()).sum();
        rec.layer(&format!("shard.w{w}.busy_s"), busy, "s");
        rec.layer(&format!("shard.w{w}.wait_s"), span - busy, "s");
    }
    rec.layer(
        "shard.steps",
        spans.iter().map(|s| s.shard_steps).sum::<u64>() as f64,
        "count",
    );
    rec.layer(
        "shard.messages",
        spans.iter().map(|s| s.messages).sum::<u64>() as f64,
        "count",
    );
}

/// Captures a host template from a directly built xl world and stamps
/// a cluster's worth of hosts from it, holding them all as the
/// cluster figure does.
fn fleet_layers(rec: &mut PassRecord, scale: Scale) {
    let mut world = churn::resident_world(ToolstackMode::Xl, scale.scaled(TEMPLATE_GUESTS));
    let t = Instant::now();
    let template = HostTemplate::capture(&mut world, churn::COHORT as u32);
    rec.layer("fleet.capture_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    let n = if scale.quick { STAMPS / 10 } else { STAMPS };
    let mut hosts: Vec<ControlPlane> = Vec::with_capacity(n);
    let mut stamp_us = Vec::with_capacity(n);
    for h in 0..n {
        let t = Instant::now();
        hosts.push(template.stamp(h as u64));
        stamp_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    rec.check(
        hosts
            .iter_mut()
            .all(|cp| cp.world_digest64() == template.digest()),
        "stamped hosts are digest-equal to their template",
    );
    rec.layer("fleet.stamp_us_p50", median(&stamp_us), "us");
}

/// Resident-host churn: set-up, then timed blocks, each followed by
/// the return-to-canonical check.
fn churn_pass(started: Instant, a: &PassArgs, mode: ToolstackMode) -> PassRecord {
    let scale = Scale::from_env();
    let block = scale.scaled(match mode {
        ToolstackMode::LightVm => LIGHTVM_BLOCK,
        _ => XL_BLOCK,
    });
    let ops = churn::op_sequence(a.seed, block);
    let clone_before = cloneboot::totals();
    let mut w = ChurnWorld::build(mode, scale.scaled(RESIDENTS));
    let mut rec = PassRecord::default();
    if a.traced {
        snapshot_layers(&mut rec, &w);
        if mode.uses_xenstore() {
            xenstore_probes(&mut rec, &w.cp);
        }
        census_layers(&mut rec, &w.cp);
    }
    let xs0 = w.cp.xs.stats();
    let rot0 = w.cp.xs.log_rotations();
    let tasks0 = w.cp.cpu.tasks_started();
    rec.setup_s = started.elapsed().as_secs_f64();

    let mut out = churn::ChurnOut::default();
    for b in 0..BLOCKS {
        let end = churn::run_block(&mut w, &ops, a.traced, &mut out);
        let drift = end.mismatches(&w.canonical);
        rec.check(
            drift.is_empty(),
            &format!(
                "block {b} returns to the canonical world: {}",
                drift.join("; ")
            ),
        );
    }
    rec.wall_s = out.blocks.iter().map(|&d| d.as_secs_f64()).sum();
    let xs1 = w.cp.xs.stats();
    let events = (xs1.requests - xs0.requests)
        + (xs1.watch_events - xs0.watch_events)
        + (w.cp.cpu.tasks_started() - tasks0);
    let rotations = w.cp.xs.log_rotations() - rot0;

    let creates = out.create_ns.len() as f64;
    let destroys = out.destroy_ns.len() as f64;
    let calls = creates + destroys;
    rec.attempted += calls as u64;
    rec.failed += out.errors;
    if out.errors > 0 {
        eprintln!("perfbench: {} lifecycle calls failed", out.errors);
    }
    rec.check(w.cp.create_failures() == 0, "no create failures");
    rec.check(w.cp.teardown_errors.total() == 0, "no teardown errors");
    rec.check(
        cloneboot::totals() == clone_before,
        "churn bypasses template boots",
    );

    let nodes = w.canonical.census.store_live as f64;
    let digest_lo = (w.canonical.digest & ((1 << 52) - 1)) as f64;
    rec.count("world.canonical_digest_lo52", digest_lo);
    rec.count("engine.events", events as f64);
    rec.count("plane.creates", creates);
    rec.count("plane.destroys", destroys);
    rec.count("plane.sim_ms_total", out.sim_ms);
    rec.count("xenstore.requests", (xs1.requests - xs0.requests) as f64);
    rec.count(
        "xenstore.watch_events",
        (xs1.watch_events - xs0.watch_events) as f64,
    );
    rec.count(
        "xenstore.txn_conflicts",
        (xs1.txn_conflicts - xs0.txn_conflicts) as f64,
    );
    rec.count("xenstore.log_rotations", rotations as f64);
    rec.count("xenstore.nodes", nodes);

    if a.traced {
        let us = |v: &[f64], q: f64| quantile(v, q) / 1e3;
        let layers = [
            ("plane.create_us_p50", us(&out.create_ns, 0.5), "us"),
            ("plane.create_us_p90", us(&out.create_ns, 0.9), "us"),
            ("plane.create_vm_us_p50", us(&out.create_vm_ns, 0.5), "us"),
            ("plane.create_vm_us_p90", us(&out.create_vm_ns, 0.9), "us"),
            ("plane.boot_vm_us_p50", us(&out.boot_vm_ns, 0.5), "us"),
            ("plane.boot_vm_us_p90", us(&out.boot_vm_ns, 0.9), "us"),
            ("plane.destroy_us_p50", us(&out.destroy_ns, 0.5), "us"),
            ("plane.destroy_us_p90", us(&out.destroy_ns, 0.9), "us"),
            ("plane.lifecycle_ops_per_s", calls / rec.wall_s, "1/s"),
            ("plane.creates", creates, "count"),
            ("plane.destroys", destroys, "count"),
            ("plane.sim_ms_total", out.sim_ms, "sim_ms"),
            (
                "xenstore.requests_per_op",
                (xs1.requests - xs0.requests) as f64 / calls,
                "count/op",
            ),
            (
                "xenstore.watch_events_per_op",
                (xs1.watch_events - xs0.watch_events) as f64 / calls,
                "count/op",
            ),
            (
                "xenstore.txn_conflicts",
                (xs1.txn_conflicts - xs0.txn_conflicts) as f64,
                "count",
            ),
            ("xenstore.log_rotations", rotations as f64, "count"),
            ("xenstore.nodes", nodes, "count"),
            (
                "split.pool_depth_min",
                out.pool_min.unwrap_or(0) as f64,
                "count",
            ),
            ("split.refills", out.refills as f64, "count"),
            ("engine.events", events as f64, "count"),
            (
                "engine.host_ns_per_event",
                rec.wall_s * 1e9 / events.max(1) as f64,
                "ns",
            ),
            (
                "alloc.allocs_per_event",
                out.allocs as f64 / events.max(1) as f64,
                "count/event",
            ),
        ];
        for (name, value, unit) in layers {
            rec.layer(name, value, unit);
        }
    }
    rec
}

/// Snapshot capture and fork of the resident world, its full digest
/// (taken at set-up) and the incremental digest after one churn call.
fn snapshot_layers(rec: &mut PassRecord, w: &ChurnWorld) {
    let mut capture = Vec::new();
    let mut fork = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let snap = w.cp.snapshot();
        capture.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let cp = snap.fork();
        fork.push(t.elapsed().as_secs_f64() * 1e6);
        drop((cp, snap));
    }
    let mut f = w.cp.fork();
    let mut incr = Vec::new();
    for _ in 0..PROBES / 2 {
        let (dom, ..) = f
            .create_and_boot("digest-probe", &w.img)
            .expect("digest probe create");
        let t = Instant::now();
        f.world_digest64();
        incr.push(t.elapsed().as_secs_f64() * 1e6);
        f.destroy_vm(dom).expect("digest probe destroy");
        let t = Instant::now();
        f.world_digest64();
        incr.push(t.elapsed().as_secs_f64() * 1e6);
    }
    rec.layer("snapshot.capture_us", median(&capture), "us");
    rec.layer("snapshot.fork_us", median(&fork), "us");
    rec.layer(
        "snapshot.digest_full_us",
        w.digest_full.as_secs_f64() * 1e6,
        "us",
    );
    rec.layer("snapshot.digest_incr_us", median(&incr), "us");
}

/// Times a `/local/domain` listing and guest-subtree removals on a fork
/// of the resident world.
fn xenstore_probes(rec: &mut PassRecord, world: &ControlPlane) {
    let mut f = world.fork();
    let cost = f.cost();
    let mut meter = Meter::new();
    let dir = XsPath::parse("/local/domain").expect("valid path");
    let mut dir_us = Vec::new();
    let mut entries = 0;
    for _ in 0..PROBES {
        let t = Instant::now();
        let listed = f.xs.directory(&cost, &mut meter, 0, &dir);
        dir_us.push(t.elapsed().as_secs_f64() * 1e6);
        entries = listed.map_or(0, |e| e.len());
    }
    let doms: Vec<u32> = f.vms().map(|(d, _)| d.0).take(PROBES).collect();
    let mut rm_us = Vec::new();
    let mut rm_ok = true;
    for d in doms {
        let path = XsPath::parse(&format!("/local/domain/{d}")).expect("valid path");
        let t = Instant::now();
        rm_ok &= f.xs.rm(&cost, &mut meter, 0, &path).is_ok();
        rm_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    rec.check(
        rm_ok && entries > 0,
        "xenstore probes list and remove guest subtrees",
    );
    rec.layer("xenstore.dir_us", median(&dir_us), "us");
    rec.layer("xenstore.dir_entries", entries as f64, "count");
    rec.layer("xenstore.rm_us", median(&rm_us), "us");
}

/// Hypervisor and noxs occupancy of the canonical resident world.
fn census_layers(rec: &mut PassRecord, cp: &ControlPlane) {
    let c = cp.census();
    let pages = cp.hv.domains().filter(|d| d.has_device_page).count();
    rec.layer("hv.domains", c.domains as f64, "count");
    rec.layer("hv.evtchns", c.evtchns as f64, "count");
    rec.layer("hv.grants", c.grants as f64, "count");
    rec.layer("noxs.device_pages", pages as f64, "count");
}

/// Removes a pass's artefact directory (best effort: it lives under the
/// checkout's build area).
pub fn remove_out(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
