//! `--self-test`: runs every workload, timed and traced, at the reduced
//! `LIGHTVM_QUICK` scale and checks that
//!
//! * every metric `BENCHMARK.json` names is printed, with its unit, and
//!   the harness's own tables name exactly the same set;
//! * a clean run reports no failure;
//! * a deliberately corrupted artefact, and a deliberately corrupted
//!   churn digest or census, are reported as failures.
//!
//! Quick-scale bytes differ from the committed full-scale `results/`,
//! so the self-test first writes its own quick reference.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::figures::{all_specs, Scale};
use metrics::Json;
use toolstack::ToolstackMode;

use crate::churn::{self, ChurnWorld};
use crate::passes::Pass;
use crate::traced::PER_LAYER;
use crate::{Cli, Outcome, END_TO_END, WORK_DIR};

/// The workloads `BENCHMARK.json` names. `cluster` and `lightvm-churn`
/// run as passes of every traced run (and by hand with `--workload`).
const WORKLOADS: [Pass; 2] = [Pass::Figures, Pass::Churn(ToolstackMode::Xl)];

pub fn run() -> ExitCode {
    // Pass processes inherit the quick scale from this process.
    std::env::set_var("LIGHTVM_QUICK", "1");
    let dir = PathBuf::from(WORK_DIR).join("self-test");
    let result = self_test(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(()) => {
            println!("perfbench self-test: OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench self-test: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn self_test(dir: &Path) -> Result<(), String> {
    check_benchmark_json(Path::new("BENCHMARK.json"))?;

    let reference = dir.join("reference");
    let (runs, _) = bench::runner::run(all_specs(Scale::quick()), 2, true);
    for r in &runs {
        r.figure
            .write_files(&reference)
            .map_err(|e| format!("writing the quick reference: {e}"))?;
    }

    for workload in WORKLOADS {
        for trace in [false, true] {
            let cli = Cli {
                workload,
                seed: 1,
                seconds: 1,
                trace,
            };
            let what = format!("{} --trace {}", workload.name(), trace as u8);
            let out = crate::run(&cli, &reference).map_err(|e| format!("{what}: {e}"))?;
            let expected: Vec<(&str, &str)> = if trace {
                PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
            } else {
                END_TO_END.to_vec()
            };
            check_outcome(&out, &expected, !trace).map_err(|e| format!("{what}: {e}"))?;
            println!(
                "self-test: {what}: {} metrics, {} checks passed",
                out.metrics.len(),
                out.attempted
            );
        }
    }

    // One flipped byte in one committed artefact must fail the run.
    let corrupt = dir.join("corrupt");
    std::fs::create_dir_all(&corrupt).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(&reference).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let mut bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        if path.file_name().is_some_and(|n| n == "cluster.csv") {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
        }
        std::fs::write(corrupt.join(path.file_name().expect("file")), bytes)
            .map_err(|e| e.to_string())?;
    }
    let cli = Cli {
        workload: Pass::Figures,
        seed: 1,
        seconds: 1,
        trace: false,
    };
    let out = crate::run(&cli, &corrupt)?;
    if out.failed == 0 {
        return Err("a corrupted cluster.csv reference was not reported".to_string());
    }
    println!(
        "self-test: corrupted artefact reported ({} failed)",
        out.failed
    );

    // A drained churn world that does not return to its canonical
    // digest or census must be reported.
    let mut w = ChurnWorld::build(ToolstackMode::Xl, Scale::quick().scaled(1000));
    let ops = churn::op_sequence(1, 150);
    let mut out = churn::ChurnOut::default();
    let end = churn::run_block(&mut w, &ops, false, &mut out);
    if out.errors != 0 || !end.mismatches(&w.canonical).is_empty() {
        return Err("clean churn did not return to its canonical world".to_string());
    }
    let mut bad_digest = end.clone();
    bad_digest.digest ^= 1;
    let mut bad_census = end.clone();
    bad_census.census.store_live += 1;
    for (what, bad) in [("digest", bad_digest), ("census", bad_census)] {
        if bad.mismatches(&w.canonical).is_empty() {
            return Err(format!("a corrupted churn {what} was not reported"));
        }
    }
    println!("self-test: corrupted churn digest and census reported");
    Ok(())
}

/// The outcome has exactly the expected metrics, in order, with their
/// units and finite values (end-to-end values also positive), and no
/// failed check.
fn check_outcome(out: &Outcome, expected: &[(&str, &str)], positive: bool) -> Result<(), String> {
    if out.failed != 0 || out.attempted == 0 {
        return Err(format!("{} of {} checks failed", out.failed, out.attempted));
    }
    let got: Vec<(&str, &str)> = out
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    if got != expected {
        return Err(format!("metrics {got:?}, expected {expected:?}"));
    }
    match out
        .metrics
        .iter()
        .find(|m| !m.value.is_finite() || (positive && m.value <= 0.0))
    {
        Some(m) => Err(format!("{} = {}", m.name, m.value)),
        None => Ok(()),
    }
}

/// `BENCHMARK.json` lists exactly the harness's metrics and workloads.
fn check_benchmark_json(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str, fields: &[&str]| -> Result<Vec<Vec<String>>, String> {
        j.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no {key}"))?
            .iter()
            .map(|e| {
                fields
                    .iter()
                    .map(|f| e.get(f).and_then(Json::as_str).map(str::to_string))
                    .collect::<Option<Vec<_>>>()
                    .ok_or(format!("BENCHMARK.json: malformed {key} entry"))
            })
            .collect()
    };
    let own = |rows: Vec<Vec<&str>>| -> Vec<Vec<String>> {
        rows.into_iter()
            .map(|r| r.into_iter().map(str::to_string).collect())
            .collect()
    };
    let e2e = list("end_to_end", &["name", "unit"])?;
    if e2e != own(END_TO_END.iter().map(|&(n, u)| vec![n, u]).collect()) {
        return Err(format!(
            "BENCHMARK.json end_to_end {e2e:?} differs from the harness"
        ));
    }
    let layers = list("per_layer", &["name", "unit", "better"])?;
    if layers != own(PER_LAYER.iter().map(|&(n, u, b)| vec![n, u, b]).collect()) {
        return Err("BENCHMARK.json per_layer differs from the harness".to_string());
    }
    let workloads = list("workloads", &["name"])?;
    if workloads != own(WORKLOADS.iter().map(|w| vec![w.name()]).collect()) {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} differ from the harness"
        ));
    }
    Ok(())
}
