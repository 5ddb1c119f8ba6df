//! Subprocess-oracle smoke demo: fuzz an "external" compiler.
//!
//! Drives three self-checking scenarios against the `fakecc` fixture
//! binary (the simulated compiler behind a real process boundary) and
//! exits nonzero if any expectation fails — CI runs this as the
//! subprocess-oracle smoke test:
//!
//! 1. **differential parity** — a parallel campaign through
//!    [`spe_subproc::SubprocBackend`] finds the same wrong-code
//!    signatures (and as many compiler crashes) as the in-process
//!    campaign on the seed corpus;
//! 2. **timeout triage** — a compiler that hangs is killed at the
//!    wall-clock budget and triaged as a slow-compile verdict, not a
//!    hang of the campaign;
//! 3. **quarantine** — a compiler that cannot even be spawned degrades
//!    the affected jobs to `BackendDegraded` findings while the
//!    campaign itself runs to completion.
//!
//! `FAKECC_BIN` overrides the fixture path (default: `fakecc` next to
//! this executable).

use spe_core::Algorithm;
use spe_harness::{
    run_campaign_parallel, run_campaign_parallel_with_path, CampaignConfig, FindingKind, OraclePath,
};
use spe_simcc::backend::CompilerBackend;
use spe_simcc::{Compiler, CompilerId};
use spe_subproc::{SubprocBackend, SubprocConfig};
use std::collections::BTreeSet;
use std::time::Duration;

/// Runs one demo scenario under a `phase.<name>` telemetry span; the
/// wall-clock lines printed at the end read these spans back, so the
/// timings shown and the timings exported via `SPE_TRACE`/`SPE_METRICS`
/// are the same numbers.
fn phase<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let telemetry = spe_telemetry::global();
    let timer = spe_telemetry::Timer::always();
    let out = f();
    telemetry.span(
        &format!("{}{name}", spe_telemetry::names::PHASE_PREFIX),
        "",
        timer.stop_nanos(),
    );
    out
}

fn fakecc_path() -> String {
    if let Ok(path) = std::env::var("FAKECC_BIN") {
        return path;
    }
    let exe = std::env::current_exe().expect("current_exe");
    let sibling = exe.with_file_name("fakecc");
    assert!(
        sibling.exists(),
        "fakecc not found at {sibling:?}; build it (cargo build -p spe-subproc --bins) \
         or set FAKECC_BIN"
    );
    sibling.to_string_lossy().into_owned()
}

fn main() {
    let telemetry = spe_telemetry::Telemetry::install_from_env();
    let fakecc = fakecc_path();
    let workers = 2;
    let config = CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(700), 0),
            Compiler::new(CompilerId::gcc(700), 3),
            Compiler::new(CompilerId::clang(390), 3),
        ],
        budget: 100,
        algorithm: Algorithm::Paper,
        check_wrong_code: true,
        fuel: 20_000,
    };
    let files = spe_corpus::seeds::all();

    // 1. Differential parity against the in-process campaign.
    let reference = phase("parity_reference", || {
        run_campaign_parallel(&files, &config, workers)
    });
    let mut subproc_config = SubprocConfig::new(vec![fakecc.clone()]);
    subproc_config.max_processes = workers;
    subproc_config.env = vec![("FAKECC_FUEL".into(), config.fuel.to_string())];
    let backend = SubprocBackend::new(subproc_config).expect("backend");
    let external = phase("parity_subproc", || {
        run_campaign_parallel_with_path(&files, &config, workers, OraclePath::Backend(&backend))
    });

    let wrong_code = |report: &spe_harness::CampaignReport| -> BTreeSet<String> {
        report
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::WrongCode)
            .map(|f| f.signature.clone())
            .collect()
    };
    let crashes = |report: &spe_harness::CampaignReport| -> usize {
        report
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::Crash)
            .count()
    };
    assert_eq!(
        external.variants_tested, reference.variants_tested,
        "subprocess campaign tested a different variant count"
    );
    assert_eq!(
        wrong_code(&external),
        wrong_code(&reference),
        "wrong-code signatures diverged across the process boundary"
    );
    assert_eq!(
        crashes(&external),
        crashes(&reference),
        "crash report count diverged across the process boundary"
    );
    assert!(
        crashes(&external) > 0 && !wrong_code(&external).is_empty(),
        "seed corpus should surface both crash and wrong-code findings"
    );
    println!(
        "parity: {} variants, {} crash and {} wrong-code findings match the in-process campaign \
         ({} child processes)",
        external.variants_tested,
        crashes(&external),
        wrong_code(&external).len(),
        backend.stats().launches,
    );

    // 2. Timeout triage: a hanging compiler becomes a slow-compile
    // verdict within the wall-clock budget.
    let mut hang_config = SubprocConfig::new(vec![fakecc.clone()]);
    hang_config.env = vec![("FAKECC_MODE".into(), "hang".into())];
    hang_config.timeout = Duration::from_millis(300);
    hang_config.retries = 0;
    let hang = SubprocBackend::new(hang_config).expect("backend");
    let started = std::time::Instant::now();
    let obs = phase("timeout_triage", || {
        hang.observe_config("int main() { return 0; }", config.compilers[0], None)
            .expect("timeout is a verdict, not a backend error")
    });
    assert!(
        !obs.slow_compile.is_empty(),
        "hang should triage as slow-compile, got {obs:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "hanging child was not killed at the timeout"
    );
    assert_eq!(hang.stats().timeouts, 1);
    println!(
        "timeout: hanging compiler killed after {:?} and triaged as {:?}",
        started.elapsed(),
        obs.slow_compile
    );

    // 3. Quarantine: an unspawnable compiler degrades its jobs but the
    // campaign completes.
    let mut broken_config = SubprocConfig::new(vec!["/nonexistent/spe-demo-cc".into()]);
    broken_config.retries = 1;
    let broken = SubprocBackend::new(broken_config).expect("backend");
    let degraded = phase("quarantine", || {
        run_campaign_parallel_with_path(&files, &config, workers, OraclePath::Backend(&broken))
    });
    assert!(
        degraded
            .findings
            .iter()
            .all(|f| f.kind == FindingKind::BackendDegraded),
        "an unspawnable backend can only produce quarantine findings"
    );
    assert!(
        !degraded.findings.is_empty(),
        "quarantine should be visible in the report"
    );
    println!(
        "quarantine: {} jobs degraded, campaign still completed",
        degraded.findings.len()
    );
    for (name, ms) in telemetry.phases() {
        println!("phase {name}: {ms:.1} ms");
    }
    println!("subprocess-oracle smoke: OK");
}
