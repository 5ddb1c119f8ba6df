//! `spebench`: runs one campaign workload (or all three, each in its own
//! process) and prints its metrics, each workload's last stdout line
//! being one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path spebench/Cargo.toml -- \
//!     --workload compile_only|wrong_code|journaled_fleet|all \
//!     --seed N --seconds S --trace 0|1 [--corpus-seed N] [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics for `--seconds`; `--trace 1`
//! makes the serial, timed per-layer run instead. `--seed` shuffles the
//! corpus files (0 keeps the generated order); `--corpus-seed` (default
//! 43) chooses the synthetic corpus itself, and any other value than 43
//! first computes its expected report with the round-trip oracle.
//! `--smoke` runs tiny budgets for the benchmark's tests.

use spebench::{
    expected_for, result_json, run_end_to_end, timed_setup, trace, EndToEnd, Expected, Kind,
    DEFAULT_CORPUS_SEED, ORDERS, WORKERS,
};
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corpus_seed: u64,
    smoke: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        corpus_seed: DEFAULT_CORPUS_SEED,
        smoke: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--corpus-seed" => args.corpus_seed = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&raw)
    } else {
        match Kind::from_name(&args.workload) {
            Some(kind) => run_one(kind, &args),
            None => Err(format!("unknown workload {:?}", args.workload)),
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("spebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload; `Ok(correct)` once its result line is printed.
fn run_one(kind: Kind, args: &Args) -> Result<bool, String> {
    let (workload, setup_s) = timed_setup(kind, args.corpus_seed, args.seed, args.smoke);
    let expected = expected_for(&workload, args.corpus_seed, args.smoke);
    println!(
        "workload {} (corpus seed {}, file order seed {} ({ORDERS} orders), {} files, \
         {} configs, budget {}, {WORKERS} workers, available parallelism {})",
        kind.name(),
        args.corpus_seed,
        args.seed,
        workload.orders[0].len(),
        workload.config.compilers.len(),
        workload.config.budget,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let result = if args.trace {
        trace::run_traced(&workload, &expected, args.corpus_seed, args.seconds).map(
            |(metrics, tally)| {
                for m in &metrics {
                    println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
                }
                (metrics, tally)
            },
        )
    } else {
        run_end_to_end(&workload, &expected, args.seconds, setup_s, None).map(|e2e| {
            print_end_to_end(&e2e, &expected);
            (e2e.metrics, e2e.tally)
        })
    };
    let (metrics, tally) = result?;
    if let Some(e) = &tally.first_error {
        eprintln!("spebench: {} failed check(s); first: {e}", tally.failed);
    }
    println!("{}", result_json(&tally, &metrics));
    Ok(tally.correct())
}

fn print_end_to_end(e2e: &EndToEnd, expected: &Expected) {
    let wall = &e2e.wall;
    for m in &e2e.metrics {
        let extra = match m.name {
            "wall_s" => format!("median; q1 {:.4}, q3 {:.4}; n={}", wall.q1, wall.q3, wall.n),
            "setup_s" => "median of the run's set-ups".to_string(),
            _ => String::new(),
        };
        println!("  {:<20} {:>16.4} {:<5} {extra}", m.name, m.value, m.unit);
    }
    let check = expected
        .findings
        .map_or("not checked in this file order".to_string(), |n| {
            format!("expected {n}")
        });
    println!(
        "  {:<20} {:>16} {:<5} {check}",
        "findings", e2e.findings, "count"
    );
    let tally = &e2e.tally;
    println!(
        "  {:<20} {:>16.4} {:<5} {} of {} iterations",
        "failed_ops",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
        tally.failed,
        tally.attempted
    );
}

/// Runs every workload in a child process of its own, so that each
/// `peak_rss_mib` is that workload's alone; every child prints its own
/// table and result line.
fn run_all(raw: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut correct = true;
    for kind in Kind::ALL {
        let mut child_args = raw.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload was parsed");
        child_args[at + 1] = kind.name().to_string();
        let status = Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        correct &= status.success();
    }
    Ok(correct)
}
