//! Perf gate: compares a fresh benchmark report against its committed
//! baseline under the rules of their shared schema
//! ([`fiveg_bench::perfgate::SPECS`]) and exits nonzero on a regression.
//!
//! ```text
//! gate BASELINE REPORT
//! ```
//!
//! Both files must parse as JSON and carry the same `schema` string
//! (`fiveg-tick/v2`, `fiveg-fleet/v3` or `fiveg-serve/v1`). Prints one
//! verdict line per compared metric — advisory (machine-dependent) lines
//! first — with the ±15% tolerance of [`fiveg_bench::perfgate::TOL`].
//! Exit codes: 0 every gate passed, 1 a regression or a structural fault
//! (unparsable file, schema mismatch, a required row or metric missing),
//! 2 usage.

use fiveg_bench::perfgate::{self, Better};
use fiveg_telemetry::json::Value;
use std::process::ExitCode;

fn run(baseline_path: &str, report_path: &str) -> Result<bool, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"));
    let (baseline_text, report_text) = (read(baseline_path)?, read(report_path)?);
    let baseline = Value::parse(&baseline_text).map_err(|e| format!("{baseline_path}: {e}"))?;
    let report = Value::parse(&report_text).map_err(|e| format!("{report_path}: {e}"))?;
    let out = perfgate::gate(&baseline, &report).map_err(|e| format!("{report_path} vs {baseline_path}: {e}"))?;
    println!("  perf gate vs {} (tol {:.0}%):", baseline_path, perfgate::TOL * 100.0);
    for note in &out.notes {
        println!("  {note}");
    }
    let (advisory, gated): (Vec<_>, Vec<_>) = out.gates.iter().partition(|g| g.better == Better::Advisory);
    for g in advisory.iter().chain(&gated) {
        println!("{}", g.verdict());
    }
    Ok(out.passed())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline, report] = args.as_slice() else {
        eprintln!("usage: gate BASELINE REPORT");
        return ExitCode::from(2);
    };
    match run(baseline, report) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("gate: gated metrics regressed beyond tolerance");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("gate: {e}");
            ExitCode::FAILURE
        }
    }
}
