//! Campaign benchmark for the SPE workspace.
//!
//! Three workloads, each over the 6 paper seeds plus a 50-file synthetic
//! corpus (corpus seed 43 unless overridden), at [`WORKERS`] workers:
//!
//! * [`Kind::CompileOnly`]: the Table-3 stable-release matrix, crash
//!   oracle only, the paper's 10,000-variant per-file budget. Skeleton
//!   extraction, space preparation, enumeration, render and the splice
//!   oracle carry the time.
//! * [`Kind::WrongCode`]: the Table-4 trunk matrix with the differential
//!   wrong-code oracle on, budget 500. The pass pipeline, lowering, the
//!   VM and the reference interpreter carry the time.
//! * [`Kind::JournaledFleet`]: the trunk matrix, crash oracle only,
//!   budget 2000, run as a 2-host fleet whose hosts journal to disk one
//!   after the other, then merged and reduced. Candidate recording,
//!   journaling, the fleet merge and reduction carry the time.
//!
//! The benchmark's `--seed` chooses the orders of the corpus files
//! (seeded shuffles, [`ORDERS`] per run, taken in turn by the
//! iterations): every seed runs the same programs, so the work per
//! iteration is the same, while the work-stealing schedule, the peak
//! memory and the report's first-seen dedup choices follow the order.
//! Every iteration's report is checked against [`Expected`]; see
//! [`check_report`].

use spe_corpus::{generate, seeds, CorpusConfig, TestFile};
use spe_harness::reduction::{reduce_findings, reproduces, ReductionOptions};
use spe_harness::{
    merge_journals, run_campaign_parallel, run_campaign_parallel_with_path, run_host,
    CampaignConfig, CampaignReport, CheckpointOptions, FindingKind, FleetPlan, OraclePath,
};
use spe_simcc::{Compiler, CompilerId};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub mod trace;

/// Campaign worker threads: the workloads are one process sized for a
/// two-core machine.
pub const WORKERS: usize = 2;
/// The corpus seed every pinned value was recorded on.
pub const DEFAULT_CORPUS_SEED: u64 = 43;
const SYNTHETIC_FILES: usize = 50;
/// Hosts of the journaled fleet, run one after the other.
const FLEET_HOSTS: usize = 2;
const FLEET_ID: u64 = 1;
/// Times setup is repeated in one run; `setup_s` is the median.
const SETUP_REPEATS: usize = 101;
/// File orders per run. Cycling through several keeps one order's
/// schedule from setting a whole run's numbers.
pub const ORDERS: usize = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Table-3 stable releases, crash oracle, budget 10,000.
    CompileOnly,
    /// Table-4 trunk matrix, wrong-code oracle on, budget 500.
    WrongCode,
    /// Trunk matrix, crash oracle, budget 2000, 2-host journaled fleet.
    JournaledFleet,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 3] = [Kind::CompileOnly, Kind::WrongCode, Kind::JournaledFleet];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CompileOnly => "compile_only",
            Kind::WrongCode => "wrong_code",
            Kind::JournaledFleet => "journaled_fleet",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The campaign configuration; `smoke` shrinks the budget so a run
    /// takes well under a second.
    pub fn config(self, smoke: bool) -> CampaignConfig {
        let matrix = |family: fn(u32) -> CompilerId, version: u32, opts: &[u8]| {
            opts.iter()
                .map(move |&opt| Compiler::new(family(version), opt))
                .collect::<Vec<_>>()
        };
        let trunk = || {
            let mut cs = matrix(CompilerId::gcc, 700, &[0, 1, 2, 3]);
            cs.extend(matrix(CompilerId::clang, 390, &[0, 2, 3]));
            cs
        };
        let (compilers, budget, check_wrong_code) = match self {
            Kind::CompileOnly => {
                let mut cs = matrix(CompilerId::gcc, 485, &[0, 3]);
                cs.extend(matrix(CompilerId::clang, 360, &[0, 3]));
                (cs, 10_000, false)
            }
            Kind::WrongCode => (trunk(), 500, true),
            Kind::JournaledFleet => (trunk(), 2000, false),
        };
        CampaignConfig {
            compilers,
            budget: if smoke { 12 } else { budget },
            algorithm: spe_core::Algorithm::Paper,
            check_wrong_code,
            fuel: 20_000,
        }
    }

    /// The values pinned for the default corpus seed at full budget:
    /// the order-invariant report digest ([`projection_digest`]) and the
    /// primary findings of the corpus in its generated order. The
    /// benchmark's tests show each digest equal to the round-trip
    /// oracle's report.
    pub fn pinned(self) -> Expected {
        let (digest, findings) = match self {
            Kind::CompileOnly => (0x0be0_0734_f283_a59a, 7),
            Kind::WrongCode => (0x460b_95f8_9764_de50, 10),
            Kind::JournaledFleet => (0xf57f_cfde_81ac_e6df, 6),
        };
        Expected {
            digest,
            findings: Some(findings),
        }
    }
}

/// What every iteration's report must show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// [`projection_digest`] of a correct report.
    pub digest: u64,
    /// Primary findings, when known for the workload's file order.
    pub findings: Option<usize>,
}

/// A workload ready to run: the shuffled corpora and the configuration.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The corpus in each of the run's [`ORDERS`] file orders.
    pub orders: Vec<Vec<TestFile>>,
    /// Campaign configuration.
    pub config: CampaignConfig,
    /// Whether every order is the generated one (seed 0).
    pub generated_order: bool,
    /// Directory the fleet's host journals are written to.
    pub scratch: PathBuf,
}

/// Builds a workload: generates the corpus, shuffles it into
/// [`ORDERS`] orders by `order_seed` (seed 0 keeps the generated order)
/// and builds the configuration.
pub fn setup(kind: Kind, corpus_seed: u64, order_seed: u64, smoke: bool) -> Workload {
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig {
        files: SYNTHETIC_FILES,
        seed: corpus_seed,
    }));
    let orders = (0..ORDERS as u64)
        .map(|k| {
            let mut order = files.clone();
            shuffle(&mut order, order_seed, k);
            order
        })
        .collect();
    Workload {
        kind,
        orders,
        config: kind.config(smoke),
        generated_order: order_seed == 0,
        scratch: PathBuf::from(".spebench_tmp").join(format!(
            "{}-{}",
            kind.name(),
            std::process::id()
        )),
    }
}

/// [`setup`] repeated [`SETUP_REPEATS`] times; returns the last workload
/// and the median set-up time.
pub fn timed_setup(kind: Kind, corpus_seed: u64, order_seed: u64, smoke: bool) -> (Workload, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        workload = Some(std::hint::black_box(setup(
            kind,
            corpus_seed,
            order_seed,
            smoke,
        )));
        times.push(start.elapsed().as_secs_f64());
    }
    (
        workload.expect("SETUP_REPEATS > 0"),
        Summary::of(&times).median,
    )
}

/// Fisher–Yates shuffle number `k` of `seed`, driven by splitmix64;
/// seed 0 is the identity.
fn shuffle(files: &mut [TestFile], seed: u64, k: u64) {
    if seed == 0 {
        return;
    }
    let mut state = mix(seed).wrapping_add(k);
    for i in (1..files.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let j = (mix(state) % (i as u64 + 1)) as usize;
        files.swap(i, j);
    }
}

/// splitmix64's output function.
pub(crate) fn mix(x: u64) -> u64 {
    let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs one iteration of the workload on file order `order` and
/// returns its wall time (only the campaign, never the journal
/// clean-up) and its report, or why a fleet host or the merge failed.
pub fn run_iteration(w: &Workload, order: usize) -> (Duration, Result<CampaignReport, String>) {
    let files = &w.orders[order];
    match w.kind {
        Kind::CompileOnly | Kind::WrongCode => {
            let start = Instant::now();
            let report = run_campaign_parallel(files, &w.config, WORKERS);
            (start.elapsed(), Ok(report))
        }
        Kind::JournaledFleet => match run_fleet(w, files) {
            Ok((report, t)) => (t.hosts + t.merge + t.reduce, Ok(report)),
            Err(e) => (Duration::ZERO, Err(e)),
        },
    }
}

/// Per-step wall times of one fleet iteration.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FleetTimes {
    /// Both hosts (`run_host`), one after the other.
    pub hosts: Duration,
    /// Bytes of the host journals.
    pub journal_bytes: u64,
    /// `merge_journals`.
    pub merge: Duration,
    /// `reduce_findings` on the merged report.
    pub reduce: Duration,
}

/// The fleet pipeline: every host into a fresh journal, merge, reduce;
/// the journals are deleted afterwards, whatever the outcome.
pub(crate) fn run_fleet(
    w: &Workload,
    files: &[TestFile],
) -> Result<(CampaignReport, FleetTimes), String> {
    let paths: Vec<PathBuf> = (0..FLEET_HOSTS)
        .map(|h| w.scratch.join(format!("host{h}.journal")))
        .collect();
    let result = std::fs::create_dir_all(&w.scratch)
        .map_err(|e| format!("create {}: {e}", w.scratch.display()))
        .and_then(|()| run_fleet_in(w, files, &paths));
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_dir(&w.scratch);
    if let Some(parent) = w.scratch.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    result
}

fn run_fleet_in(
    w: &Workload,
    files: &[TestFile],
    paths: &[PathBuf],
) -> Result<(CampaignReport, FleetTimes), String> {
    let plan = FleetPlan::new(FLEET_ID, FLEET_HOSTS, WORKERS);
    let mut times = FleetTimes::default();
    let start = Instant::now();
    for (host, path) in paths.iter().enumerate() {
        let status = run_host(
            &plan,
            host,
            files,
            &w.config,
            WORKERS,
            path,
            &CheckpointOptions::default(),
        )
        .map_err(|e| format!("host {host}: {e}"))?;
        if status.is_interrupted() {
            return Err(format!("host {host} was interrupted"));
        }
    }
    times.hosts = start.elapsed();
    times.journal_bytes = paths
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    let start = Instant::now();
    let mut report = merge_journals(paths).map_err(|e| format!("merge: {e}"))?;
    times.merge = start.elapsed();
    let start = Instant::now();
    reduce_findings(&mut report, &reduction_options(&w.config), WORKERS);
    times.reduce = start.elapsed();
    Ok((report, times))
}

fn reduction_options(config: &CampaignConfig) -> ReductionOptions {
    ReductionOptions {
        fuel: config.fuel,
        ..ReductionOptions::default()
    }
}

/// The expected values for `w`: pinned for the default corpus at full
/// budget, otherwise computed once from the round-trip oracle (the
/// independent witness: render, parse and compile every variant).
pub fn expected_for(w: &Workload, corpus_seed: u64, smoke: bool) -> Expected {
    let expected = if corpus_seed == DEFAULT_CORPUS_SEED && !smoke {
        w.kind.pinned()
    } else {
        let report = reference_report(w);
        Expected {
            digest: projection_digest(&report),
            findings: Some(report.primary_findings().count()),
        }
    };
    Expected {
        // The count holds for the generated order only: in another order
        // the registry-based duplicate fold may credit a shared
        // performance signature to another seeded bug, which changes the
        // count without any fault.
        findings: expected.findings.filter(|_| w.generated_order),
        ..expected
    }
}

/// The round-trip oracle's report for `w`'s first order (for the
/// fleet: the single-host campaign its merge must equal, then reduced).
pub fn reference_report(w: &Workload) -> CampaignReport {
    let mut report =
        run_campaign_parallel_with_path(&w.orders[0], &w.config, WORKERS, OraclePath::RoundTrip);
    if w.kind == Kind::JournaledFleet {
        reduce_findings(&mut report, &reduction_options(&w.config), WORKERS);
    }
    report
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The report digest every iteration is checked against: files
/// processed, observations, UB skips and the sorted set of (kind,
/// compiler family, signature) finding keys. None of these depend on
/// the order of the corpus files, so one pinned value holds for every
/// `--seed`. (Which file, reproducer and optimization level a key
/// keeps is the first one seen, so those do depend on the order.)
pub fn projection_digest(r: &CampaignReport) -> u64 {
    let mut keys: Vec<String> = r
        .findings
        .iter()
        .map(|f| format!("{}|{}|{}", f.kind.label(), f.compiler.family, f.signature))
        .collect();
    keys.sort();
    let mut text = format!(
        "{}|{}|{}",
        r.files_processed, r.variants_tested, r.variants_ub_skipped
    );
    for k in keys {
        let _ = write!(text, "\n{k}");
    }
    fnv1a(text.as_bytes())
}

/// Digest of the whole report, reproducers and reduced witnesses
/// included: equal across the iterations of one run.
pub(crate) fn full_digest(r: &CampaignReport) -> u64 {
    fnv1a(format!("{r:?}").as_bytes())
}

/// Checks one iteration's report. A report passes when
///
/// * it has no `JobPanicked` or `BackendDegraded` finding;
/// * its [`projection_digest`] equals the expected digest;
/// * its primary findings equal the expected count, when one is known;
/// * every finding's reproducer, and every reduced witness, still
///   reproduces it under the finding's configuration;
/// * its [`full_digest`] equals `first_full` (set by the first checked
///   report of the same file order).
///
/// # Errors
///
/// The first failed condition, described.
pub fn check_report(
    w: &Workload,
    expected: &Expected,
    report: &CampaignReport,
    first_full: &mut Option<u64>,
) -> Result<(), String> {
    if let Some(f) = report.findings.iter().find(|f| {
        matches!(
            f.kind,
            FindingKind::JobPanicked | FindingKind::BackendDegraded
        )
    }) {
        return Err(format!("infrastructure finding: {}", f.signature));
    }
    let digest = projection_digest(report);
    if digest != expected.digest {
        return Err(format!(
            "report digest {digest:016x} != expected {:016x}",
            expected.digest
        ));
    }
    let primary = report.primary_findings().count();
    if let Some(want) = expected.findings {
        if primary != want {
            return Err(format!("{primary} primary findings, expected {want}"));
        }
    }
    for f in &report.findings {
        let witnesses = std::iter::once(&f.reproducer).chain(f.reduced.as_ref().map(|r| &r.source));
        for src in witnesses {
            let reproduced = spe_minic::parse(src)
                .map(|p| reproduces(f, &p, w.config.fuel))
                .unwrap_or(false);
            if !reproduced {
                return Err(format!("finding {:?} does not reproduce", f.signature));
            }
        }
    }
    let full = full_digest(report);
    match *first_full {
        Some(first) if first != full => {
            return Err(format!(
                "report differs from the run's first report ({full:016x} != {first:016x})"
            ))
        }
        Some(_) => {}
        None => *first_full = Some(full),
    }
    Ok(())
}

/// Attempted and failed checks of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// The first failure's description.
    pub first_error: Option<String>,
}

impl Tally {
    /// Counts one check.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }

    /// Whether every check passed (and at least one was made).
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`, measured as `value` `unit`s.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Median and quartiles, as Python's `statistics.quantiles(n=4)`
/// ("exclusive" method) gives them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values`; all zero when empty.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n < 2 {
            let x = v.first().copied().unwrap_or(0.0);
            return Summary {
                n,
                q1: x,
                median: x,
                q3: x,
            };
        }
        let quantile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            n,
            q1: quantile(1),
            median: quantile(2),
            q3: quantile(3),
        }
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
///
/// # Errors
///
/// `/proc/self/status` is unreadable or has no `VmHWM` line.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Result of one untraced (end-to-end) run.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Wall-time summary of the iterations.
    pub wall: Summary,
    /// Primary findings of the last report.
    pub findings: usize,
    /// Per-iteration checks.
    pub tally: Tally,
}

/// Runs iterations of `w` until `seconds` have passed (at least one),
/// checking each report, and derives the end-to-end metrics.
///
/// `tamper` edits each report before its check; the tests use it to
/// show a wrong report is counted as a failed iteration.
pub fn run_end_to_end(
    w: &Workload,
    expected: &Expected,
    seconds: f64,
    setup_s: f64,
    tamper: Option<fn(&mut CampaignReport)>,
) -> Result<EndToEnd, String> {
    let mut walls = Vec::new();
    let mut tally = Tally::default();
    let mut first_full = [None; ORDERS];
    let mut last = None;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let order = walls.len() % ORDERS;
        let (wall, result) = run_iteration(w, order);
        walls.push(wall.as_secs_f64());
        let checked = result.and_then(|mut report| {
            if let Some(t) = tamper {
                t(&mut report);
            }
            let verdict = check_report(w, expected, &report, &mut first_full[order]);
            last = Some(report);
            verdict
        });
        tally.record(checked);
    }
    let report = last.ok_or_else(|| {
        tally
            .first_error
            .clone()
            .unwrap_or_else(|| "no iteration produced a report".into())
    })?;
    let configs = w.config.compilers.len() as u64;
    let variants = report.variants_tested / configs;
    let wall = Summary::of(&walls);
    let metrics = vec![
        Metric::new("wall_s", wall.median, "s"),
        Metric::new("variants_per_s", variants as f64 / wall.median, "1/s"),
        Metric::new(
            "observations_per_s",
            report.variants_tested as f64 / wall.median,
            "1/s",
        ),
        Metric::new("peak_rss_mib", peak_rss_mib()?, "MiB"),
        Metric::new("setup_s", setup_s, "s"),
    ];
    Ok(EndToEnd {
        metrics,
        wall,
        findings: report.primary_findings().count(),
        tally,
    })
}

/// The one-line JSON result object.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
