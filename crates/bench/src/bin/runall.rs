//! The one figure driver: regenerates every figure of the registry —
//! the paper's, plus ablations, faults, churn and cluster — in one
//! invocation, fanning the work units out over a thread pool.
//!
//! ```text
//! runall [--jobs N] [--filter SUBSTR[,SUBSTR..]] [--list] [--seq]
//!        [--report PATH] [--no-snapshot-cache]
//! ```
//!
//! * `--jobs N`   worker threads (default: available parallelism); also
//!   the cluster units' shard executor width
//! * `--filter`   only figures whose id contains one of the substrings
//!   (an empty substring is a usage error)
//! * `--list`     print figure ids, units and their declared shared
//!   resources (`Dep`s), run nothing
//! * `--seq`      force a single worker (equivalent to `--jobs 1`)
//! * `--report`   perf-report path (default `results/bench_runner.json`)
//! * `--no-snapshot-cache`  disable the world snapshot cache: every
//!   unit re-simulates its world from scratch. Artefacts are
//!   byte-identical either way (`ci.sh` gates it); the flag exists to
//!   prove that and to time the uncached path.
//!
//! Each figure `<id>` is written to `LIGHTVM_FIG_DIR` (default
//! `target/figures`) as `<id>.json`, `<id>.csv` and `<id>.txt`, the
//! last being the figure's table sampled at its registry x positions.
//! The output is byte-identical to a sequential run regardless of
//! `--jobs`. `LIGHTVM_QUICK=1` runs the reduced-scale profile. Malformed
//! arguments exit with status 2.

use std::io::Write;
use std::process::ExitCode;

use bench::alloc::CountingAlloc;
use bench::figures::{all_specs, Scale};
use bench::runner;

// Counting the run's allocations is how the report's `allocs_per_event`
// stays honest; the wrapper adds one thread-local increment per call.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `println!` panics if stdout closes early (`runall --list | head`);
/// progress lines are best-effort, so swallow the broken pipe instead.
macro_rules! say {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

struct Args {
    jobs: usize,
    filters: Vec<String>,
    list: bool,
    report: std::path::PathBuf,
    snapshot_cache: bool,
}

const USAGE: &str = "usage: runall [--jobs N] [--filter SUBSTR[,SUBSTR..]] [--list] [--seq] [--report PATH] [--no-snapshot-cache]";

/// Parses the command line (without the program name). Every malformed
/// input is an `Err` naming the problem; `main` turns it into exit 2.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        filters: Vec::new(),
        list: false,
        report: std::path::PathBuf::from("results/bench_runner.json"),
        snapshot_cache: true,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--jobs" | "-j" => {
                let v = value()?;
                args.jobs = match v.parse() {
                    Ok(n) if n > 0 => n,
                    _ => return Err(format!("--jobs wants a positive integer, got {v:?}")),
                };
            }
            "--filter" | "-f" => {
                // Every id contains "", so an empty term (`fig09,`)
                // would silently select all figures.
                for term in value()?.split(',').map(str::trim) {
                    if term.is_empty() {
                        return Err("--filter has an empty term".to_string());
                    }
                    args.filters.push(term.to_string());
                }
            }
            "--list" => args.list = true,
            "--seq" => args.jobs = 1,
            "--report" => args.report = value()?.into(),
            "--no-snapshot-cache" => args.snapshot_cache = false,
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("runall: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    bench::worldcache::set_enabled(args.snapshot_cache);
    let scale = Scale::from_env();

    let mut specs = all_specs(scale);
    if !args.filters.is_empty() {
        specs.retain(|s| args.filters.iter().any(|f| s.id.contains(f.as_str())));
        if specs.is_empty() {
            eprintln!("runall: no figure matches the filter");
            return ExitCode::from(2);
        }
    }

    if args.list {
        for s in &specs {
            say!(
                "{:7} {:2} unit(s)  {}",
                s.id,
                s.units.len(),
                s.title
            );
            for u in &s.units {
                let deps = if u.deps.is_empty() {
                    "(self-contained)".to_string()
                } else {
                    u.deps
                        .iter()
                        .map(|d| d.describe())
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                say!("          - {:24} deps: {deps}", u.label);
            }
        }
        return ExitCode::SUCCESS;
    }

    let n_figs = specs.len();
    let n_units: usize = specs.iter().map(|s| s.units.len()).sum();
    eprintln!(
        "# runall: {n_figs} figure(s), {n_units} unit(s), {} worker(s){}",
        args.jobs,
        if scale.quick { ", quick profile" } else { "" }
    );

    let (figures, report) = runner::run(specs, args.jobs, scale.quick);

    let dir = bench::out_dir();
    let mut failed = false;
    for run in &figures {
        let id = &run.figure.id;
        let table = run.figure.render_table(&run.sample_xs);
        let written = run
            .figure
            .write_files(&dir)
            .and_then(|()| std::fs::write(dir.join(format!("{id}.txt")), table));
        match written {
            Ok(()) => {
                say!(
                    "# {id}: {} series -> {}/{id}.{{json,csv,txt}}",
                    run.figure.series.len(),
                    dir.display()
                );
            }
            Err(e) => {
                eprintln!("# ERROR: could not write {id}: {e}");
                failed = true;
            }
        }
    }

    say!(
        "# {} | scheduler: {} tasks, width {}, critical path {:.1} ms",
        bench::worldcache::summary(),
        report.tasks.len(),
        report.max_width(),
        report.critical_path_ms()
    );
    match report.write(&args.report) {
        Ok(()) => say!("# perf report -> {}", args.report.display()),
        Err(e) => {
            eprintln!("# ERROR: could not write perf report: {e}");
            failed = true;
        }
    }
    say!(
        "# wall {:.1} ms, task wall {:.1} ms, occupancy {:.2}x (speedup bound {:.2}x, {} of {} cores), {} events, {:.0} events/sec aggregate, {:.3} allocs/event",
        report.wall_ms,
        report.total_task_wall_ms(),
        report.occupancy(),
        report.speedup_bound(),
        report.jobs,
        report.host_cores,
        report.total_events(),
        report.aggregate_events_per_sec(),
        report.allocs_per_event()
    );

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn well_formed_arguments_parse() {
        let a = parse(&["--filter", "fig09, fig14", "-j", "3", "--no-snapshot-cache"]).unwrap();
        assert_eq!(a.filters, ["fig09", "fig14"]);
        assert_eq!(a.jobs, 3);
        assert!(!a.snapshot_cache && !a.list);
        let a = parse(&["--jobs", "8", "--seq", "--list", "--report", "r.json"]).unwrap();
        assert_eq!(a.jobs, 1);
        assert!(a.list && a.snapshot_cache);
        assert_eq!(a.report, std::path::Path::new("r.json"));
    }

    #[test]
    fn malformed_arguments_are_usage_errors() {
        for argv in [
            &["--filter", "fig09,"][..],
            &["--filter", ""],
            &["--filter", "fig09,,fig14"],
            &["--jobs", "0"],
            &["--jobs", "x"],
            &["--jobs"],
            &["--filter"],
            &["--report"],
            &["--bogus"],
            &["fig09"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?} should be rejected");
        }
    }

    /// Random token soup never panics the parser, and whatever it
    /// accepts holds a positive width and no empty filter term.
    #[test]
    fn random_token_sequences_never_panic() {
        const TOKENS: [&str; 16] = [
            "--jobs",
            "-j",
            "--filter",
            "-f",
            "--list",
            "--seq",
            "--report",
            "--no-snapshot-cache",
            "0",
            "2",
            "x",
            "",
            ",",
            "fig09,",
            "fig09",
            "--",
        ];
        let mut rng = simcore::SimRng::new(0x7a11);
        for _ in 0..5_000 {
            let len = rng.index(7);
            let argv: Vec<&str> = (0..len).map(|_| TOKENS[rng.index(TOKENS.len())]).collect();
            if let Ok(a) = parse(&argv) {
                assert!(a.jobs > 0, "{argv:?}");
                assert!(a.filters.iter().all(|f| !f.is_empty()), "{argv:?}");
            }
        }
    }
}
