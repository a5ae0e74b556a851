//! Benchmark harness for the LightVM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <figures|cluster|xl-churn|lightvm-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (name -> value and unit). `--trace 0` reports the end-to-end
//! metrics of `BENCHMARK.json`, `--trace 1` the per-layer ones (see
//! `traced.rs`).
//!
//! Workloads. `BENCHMARK.json` times `figures` and `xl-churn` (and
//! records why); `cluster` and `lightvm-churn` run inside every traced
//! run and can be timed by hand with the same flags.
//!
//! * `figures` — all 21 registry figures at full scale through
//!   `bench::runner::run` on 2 workers, written to disk: the run users
//!   make to reproduce the paper.
//! * `xl-churn` — one xl host with 1000 resident daytime guests built
//!   by direct `create_and_boot` (set-up), then a closed loop of
//!   seeded create/destroy calls over a 16-name cohort from one caller
//!   thread: 4 blocks of the same 250 seeded calls, each block followed
//!   by destroys of the cohort guests still alive.
//! * `cluster` — the cluster figure alone (1111 hosts x 3 toolstacks)
//!   through the same runner on 2 workers.
//! * `lightvm-churn` — the same generator and seed under LightVM
//!   (noxs + split toolstack + xendevd), 2000 calls per block.
//!
//! A timed run repeats the workload, each repetition in a fresh
//! process, until `--seconds` have passed (at least three times):
//!
//! * `wall_s` — host seconds of one repetition's fixed work: the runner
//!   call plus artefact writes for `figures` and `cluster`, the four
//!   churn blocks for the churn workloads. The fastest repetition is
//!   reported: on a shared 2-core host the same work swings by up to 2x
//!   with slow phases lasting minutes, and over 20-30 s runs the median
//!   repetition spread 15-26% from run to run against 5-16% for the
//!   fastest.
//! * `setup_s` — median host seconds from process start to the first
//!   timed operation: spec planning for `figures` and `cluster` (timed
//!   five times per process, as one planning takes under a millisecond;
//!   chain builds happen on every user run, so they stay in `wall_s`),
//!   building and saturating the resident world for the churn
//!   workloads.
//! * `peak_rss_mb` — median peak resident set of the repetitions.
//!
//! Checks, each counted as an attempted operation that fails if the
//! check does: every figure's `.json` and `.csv` byte-identical to the
//! committed `results/`; every churn call succeeds with zero create
//! failures and zero teardown errors; after every churn block the
//! drained world is back at its canonical `world_digest64` and census;
//! churn never touches the template-boot cache; and the simulator
//! counts (events, XenStore requests, template-boot and world-cache
//! counters, simulated ms) repeat exactly across the repetitions.
//!
//! Seeds: `--seed` drives only the churn op sequence; `figures` and
//! `cluster` run the program's fixed seeds because their bytes are
//! gated. Seed 7919 is held out: it was not used while the harness was
//! tuned, so later claims can be confirmed on it.

mod check;
mod churn;
mod passes;
mod record;
mod selftest;
mod stats;
mod traced;

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use bench::alloc::CountingAlloc;
use metrics::Json;

use passes::{Pass, PassArgs};
use record::{Metric, PassRecord};
use stats::median;

// The same counting allocator `runall` installs, so the figures run
// here exactly as users run them and allocs/event is measurable.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Repetitions a timed run makes even when `--seconds` is short.
const MIN_REPS: usize = 3;

/// A pass process that runs longer than this is killed and counted as
/// failed.
const PASS_TIMEOUT: Duration = Duration::from_secs(60);

/// Where pass processes write their artefacts (removed after each).
const WORK_DIR: &str = "target/perfbench";

/// The end-to-end metrics, in report order.
pub const END_TO_END: &[(&str, &str)] = &[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// What a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct".to_string(), Json::Bool(self.failed == 0)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            (
                "metrics".to_string(),
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([
                            ("value".to_string(), Json::Num(m.value)),
                            ("unit".to_string(), Json::Str(m.unit.clone())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("pass") => match PassArgs::parse(&args[1..]) {
            Some(a) => {
                println!("{}", passes::run(started, &a).to_json().compact());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("perfbench: bad pass arguments {:?}", &args[1..]);
                ExitCode::from(2)
            }
        },
        Some("--self-test") => selftest::run(),
        _ => match parse_cli(&args).and_then(|cli| run(&cli, Path::new("results"))) {
            Ok(outcome) => {
                println!("{}", outcome.to_json().compact());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

pub struct Cli {
    pub workload: Pass,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let usage = "usage: perfbench --workload <figures|cluster|xl-churn|lightvm-churn> \
                 --seed <n> --seconds <s> --trace <0|1> | --self-test";
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(usage)?;
        match flag.as_str() {
            "--workload" => workload = Some(Pass::parse(value).ok_or(usage)?),
            "--seed" => seed = Some(value.parse().map_err(|_| usage)?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| usage)?).filter(|&s| s > 0),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage.to_string()),
                })
            }
            _ => return Err(usage.to_string()),
        }
    }
    Ok(Cli {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.ok_or(usage)?,
        trace: trace.ok_or(usage)?,
    })
}

/// Runs the workload timed or traced, checking outputs against the
/// artefacts in `reference`.
pub fn run(cli: &Cli, reference: &Path) -> Result<Outcome, String> {
    if !reference.is_dir() {
        return Err(format!(
            "no reference artefacts at {} (run from the repository root)",
            reference.display()
        ));
    }
    let work_dir = PathBuf::from(WORK_DIR).join(std::process::id().to_string());
    let result = if cli.trace {
        traced::run(cli.workload, cli.seed, reference, &work_dir)
    } else {
        timed(cli, reference, &work_dir)
    };
    passes::remove_out(&work_dir);
    result
}

/// Fresh-process repetitions until the time budget is spent.
fn timed(cli: &Cli, reference: &Path, work_dir: &Path) -> Result<Outcome, String> {
    let budget = Duration::from_secs(cli.seconds);
    let started = Instant::now();
    let mut reps: Vec<PassRecord> = Vec::new();
    let mut lost = 0u64;
    loop {
        let n = reps.len() + lost as usize;
        match spawn_pass(&PassArgs {
            pass: cli.workload,
            seed: cli.seed,
            jobs: 2,
            traced: false,
            out: work_dir.join(format!("rep-{n}")),
            reference: reference.to_path_buf(),
        }) {
            Ok(r) => reps.push(r),
            Err(e) => {
                eprintln!("perfbench: repetition {n} lost: {e}");
                lost += 1;
            }
        }
        let done = reps.len() + lost as usize;
        let per_rep = started.elapsed() / done as u32;
        if done >= MIN_REPS && started.elapsed() + per_rep > budget {
            break;
        }
    }
    if reps.is_empty() {
        return Err("every repetition failed".to_string());
    }

    let mut attempted = lost + reps.iter().map(|r| r.attempted).sum::<u64>();
    let mut failed = lost + reps.iter().map(|r| r.failed).sum::<u64>();
    let drift = check::count_drift(&reps);
    attempted += 1;
    if !drift.is_empty() {
        failed += 1;
        eprintln!(
            "perfbench: counts drifted between repetitions: {}",
            drift.join("; ")
        );
    }
    let of = |f: fn(&PassRecord) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    // Interference on a shared host only ever adds time, and its share
    // of a run swings widely, so the fastest repetition is the wall
    // estimate that repeats from run to run.
    let fastest = reps.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min);
    let values = [fastest, of(|r| r.setup_s), of(|r| r.rss_mb)];
    eprintln!(
        "perfbench: {} (seed {}): {} repetitions",
        cli.workload.name(),
        cli.seed,
        reps.len()
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| Metric::new(name, v, unit))
            .collect(),
    })
}

/// Runs one pass in a fresh process of this executable and returns its
/// record. The process is killed if it overruns [`PASS_TIMEOUT`].
pub fn spawn_pass(a: &PassArgs) -> Result<PassRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("pass")
        .args(a.to_args())
        .env_remove("LIGHTVM_FIG_DIR")
        .env_remove("LIGHTVM_CHURN_EVENTS")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + PASS_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            outcome => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(match outcome {
                    Err(e) => format!("wait: {e}"),
                    _ => format!("{} pass timed out", a.pass.name()),
                });
            }
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string());
    passes::remove_out(&a.out);
    let status = status?;
    let text = text?.map_err(|e| format!("reading pass output: {e}"))?;
    if !status.success() {
        return Err(format!("{} pass exited with {status}", a.pass.name()));
    }
    let line = text.lines().last().unwrap_or("");
    Json::parse(line)
        .ok()
        .as_ref()
        .and_then(PassRecord::from_json)
        .ok_or_else(|| format!("{} pass printed no record", a.pass.name()))
}
