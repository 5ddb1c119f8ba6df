//! Differential compiler-testing campaigns driven by skeletal program
//! enumeration.
//!
//! This crate is the paper's §5 experimental machinery:
//!
//! * [`Campaign`] is the one way to run a campaign: a worker count, an
//!   [`OraclePath`] and a [`FaultPolicy`]. Its four methods run in
//!   memory ([`Campaign::run`]), into a resumable journal, optionally as
//!   one host of a fleet ([`Campaign::run_journaled`]), resume such a
//!   journal ([`Campaign::resume`]), and reduce the findings
//!   ([`Campaign::reduce`]). Every variant reaches the oracle through
//!   the one supervised loop in [`orchestrate`]. The campaign detects
//!   **crash bugs** (internal compiler errors, deduplicated by signature
//!   as in Table 3), **wrong code** (differential mismatch between the
//!   UB-checked reference interpreter and the compiled VM image), and
//!   **performance bugs**;
//! * [`run_campaign`] is the pool-free serial loop the parallel and
//!   journaled runs are compared against; [`run_campaign_parallel`],
//!   [`run_campaign_parallel_with_path`], [`run_host`] and
//!   [`reduction::reduce_findings`] are one-line shorthands for
//!   [`Campaign`];
//! * [`triage`] aggregates findings into the paper's Table 4 and
//!   Figure 10 shapes using the seeded-bug registry metadata;
//! * [`mutation`] implements the Orion-style statement-deletion baseline
//!   (PM-X in Figure 9);
//! * [`coverage_run`] measures pass/point coverage improvements of SPE
//!   and mutation variants over the baseline suite (Figure 9);
//! * [`checkpoint`] holds the journal schema, replay and compaction
//!   behind resumable campaigns and reductions, with final reports
//!   byte-identical to uninterrupted runs (`DESIGN.md` §9);
//! * [`fleet`] partitions one campaign across hosts and merges their
//!   journals (`DESIGN.md` §14).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use spe_core::{
    Algorithm, EnumeratorConfig, Granularity, NameId, ShardedEnumerator, Skeleton, Variant,
    VariantSpace,
};
use spe_corpus::TestFile;
use spe_simcc::backend::{intern, BackendError, CompilerBackend, SimccBackend};
use spe_simcc::incremental::{CacheStats, CachedOracle};
use spe_simcc::{Compiler, CompilerId, Observation};
use spe_telemetry::{names, Sink as TelemetrySink, Timer};
use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow;

pub mod checkpoint;
pub mod coverage_run;
pub mod fleet;
pub mod mutation;
pub mod orchestrate;
pub mod reduction;
pub mod steal;
pub mod triage;

pub use checkpoint::{CampaignStatus, CheckpointError, CheckpointOptions};
pub use fleet::{
    merge_journals, merge_journals_detailed, run_host, FleetError, FleetPlan, HostSummary,
    MergedFleet,
};
pub use orchestrate::{Campaign, FaultPolicy, Outcome};
pub use reduction::ReducedWitness;

/// How a campaign reaches its oracle. Every observation comes from one
/// of two independent verdict computations: the incremental splice
/// oracle ([`CachedOracle`]), or a [`CompilerBackend`] observing the
/// rendered source — [`SimccBackend`] (parse, then `Compiler::compile`
/// per configuration) for [`OraclePath::RoundTrip`] and for incremental
/// jobs that fall back. The two in-process paths produce byte-identical
/// [`CampaignReport`]s on the same inputs and differ only in speed:
/// `tests/oracle_identity.rs` pins that at every worker count, including
/// kill/resume histories that alternate them, and
/// `tests/backend_identity.rs` pins the incremental path against
/// [`OraclePath::Backend`]`(&SimccBackend)`. Reduction re-checks
/// shrunk programs, not variants, so on both in-process paths it calls
/// `Compiler::observe` on the parsed candidate directly.
#[derive(Clone, Copy, Default)]
pub enum OraclePath<'a> {
    /// Splice-don't-reparse ([`spe_simcc::incremental`]): each (file,
    /// shard) job parses its first rendered variant once and splices
    /// every later variant's name bindings directly into the cached AST,
    /// memoizing pass-pipeline results across configurations. The
    /// default — roughly an order of magnitude faster on
    /// enumeration-heavy campaigns. Journal-compatible with
    /// [`OraclePath::RoundTrip`] (same backend identity), so a journaled
    /// campaign can alternate the two across kill/resume cycles.
    #[default]
    Incremental,
    /// [`SimccBackend`]: the render → lex → parse → compile round trip
    /// for every variant. The independent witness the identity suites
    /// compare against; also useful to isolate cache bugs.
    RoundTrip,
    /// Any [`CompilerBackend`], including the in-process one — the way
    /// to fuzz an external compiler. Jobs whose backend persistently
    /// fails are quarantined as [`FindingKind::BackendDegraded`]
    /// findings instead of aborting the campaign.
    Backend(&'a dyn CompilerBackend),
}

impl fmt::Debug for OraclePath<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OraclePath::Incremental => f.write_str("Incremental"),
            OraclePath::RoundTrip => f.write_str("RoundTrip"),
            OraclePath::Backend(b) => write!(f, "Backend({})", b.id()),
        }
    }
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Compilers (with optimization levels) under test.
    pub compilers: Vec<Compiler>,
    /// Variants enumerated per file (the paper's 10K threshold, usually
    /// lowered for quick runs).
    pub budget: usize,
    /// Enumeration semantics.
    pub algorithm: Algorithm,
    /// Whether to run the differential wrong-code oracle (crash-only
    /// campaigns are much faster, mirroring §5.2.3).
    pub check_wrong_code: bool,
    /// Interpreter/VM fuel per execution.
    pub fuel: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            compilers: vec![
                Compiler::new(CompilerId::gcc(700), 0),
                Compiler::new(CompilerId::gcc(700), 3),
                Compiler::new(CompilerId::clang(390), 0),
                Compiler::new(CompilerId::clang(390), 3),
            ],
            budget: 64,
            algorithm: Algorithm::Paper,
            check_wrong_code: true,
            fuel: 50_000,
        }
    }
}

/// What kind of defect a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// Internal compiler error.
    Crash,
    /// Differential mismatch on a UB-free input.
    WrongCode,
    /// Pathological compile time.
    Performance,
    /// The oracle backend itself persistently failed on a (file, shard)
    /// job — spawn failures, scratch I/O errors — and the job was
    /// quarantined instead of wedging the campaign. Not a compiler bug
    /// report: triage tables exclude it, and the reduction stage skips
    /// it (there is no program to shrink). Only backend-dispatched
    /// campaigns can produce it; the in-process oracle never fails.
    BackendDegraded,
    /// A worker **panicked** while processing the (file, shard) job —
    /// a poisoned variant tripping a bug in the enumeration or oracle
    /// machinery. The job is rolled back to its last fully-processed
    /// variant and quarantined with this durable marker (committed with
    /// the job's completion record, so a resume skips it instead of
    /// re-tripping the panic). Like [`FindingKind::BackendDegraded`],
    /// it is an infrastructure record, not a compiler bug report:
    /// triage tables exclude it and the reduction stage skips it.
    JobPanicked,
}

impl FindingKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::Crash => "crash",
            FindingKind::WrongCode => "wrong code",
            FindingKind::Performance => "performance",
            FindingKind::BackendDegraded => "backend degraded",
            FindingKind::JobPanicked => "job panicked",
        }
    }
}

/// One deduplicated bug report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Kind of defect.
    pub kind: FindingKind,
    /// Compiler that exhibited it.
    pub compiler: CompilerId,
    /// Optimization level of the failing configuration.
    pub opt: u8,
    /// Dedup key: the crash signature, or a synthesized wrong-code /
    /// performance symptom description.
    pub signature: String,
    /// Ground-truth seeded bug (available for crashes and triaged
    /// miscompiles; `None` when triage could not attribute it).
    pub bug_id: Option<&'static str>,
    /// Corpus file whose variant exposed the bug.
    pub file: String,
    /// A variant that reproduces it.
    pub reproducer: String,
    /// `Some(signature)` when the same underlying defect was already
    /// reported under another signature (the paper's "Duplicate" column).
    pub duplicate_of: Option<String>,
    /// The reduced witness and its structural fingerprint, filled by the
    /// post-campaign [`reduction`] stage (`None` until it runs, or when
    /// reduction could not reproduce the finding).
    pub reduced: Option<ReducedWitness>,
    /// `Some(signature)` when an earlier finding's reduced witness has
    /// the same structural fingerprint — the reduction stage's
    /// *ground-truth-free* duplicate detection, which needs no seeded
    /// bug ids (unlike [`Finding::duplicate_of`]'s registry-based pass).
    pub fingerprint_duplicate_of: Option<String>,
}

impl Finding {
    /// A fresh, not yet deduplicated or reduced finding of `kind` that
    /// `cc` exhibited on variant `src` of `file`.
    fn candidate(
        kind: FindingKind,
        cc: &Compiler,
        signature: String,
        bug_id: Option<&'static str>,
        file: &TestFile,
        src: &str,
    ) -> Finding {
        Finding {
            kind,
            compiler: cc.id(),
            opt: cc.opt(),
            signature,
            bug_id,
            file: file.name.clone(),
            reproducer: src.to_string(),
            duplicate_of: None,
            reduced: None,
            fingerprint_duplicate_of: None,
        }
    }
}

/// Aggregate campaign results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// All unique-signature reports (including duplicates of the same
    /// root cause, as in the paper's bookkeeping).
    pub findings: Vec<Finding>,
    /// Files processed (parsed + analyzed successfully).
    pub files_processed: usize,
    /// Total variants compiled.
    pub variants_tested: u64,
    /// Variants skipped by the UB oracle before output comparison.
    pub variants_ub_skipped: u64,
}

impl CampaignReport {
    /// Findings that are not duplicates.
    pub fn primary_findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.duplicate_of.is_none())
    }

    /// Number of duplicate reports.
    pub fn duplicates(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.duplicate_of.is_some())
            .count()
    }

    /// Findings for one compiler family.
    pub fn for_family<'a>(&'a self, family: &'a str) -> impl Iterator<Item = &'a Finding> {
        self.findings
            .iter()
            .filter(move |f| f.compiler.family == family)
    }
}

/// Raw results of one (file, shard) work item before deduplication:
/// candidate findings in emission order plus counter deltas.
#[derive(Debug, Default)]
struct ShardOutput {
    /// Whether the file parsed and analyzed (reported by shard 0 only).
    file_processed: bool,
    /// Candidate findings in variant/compiler emission order, not yet
    /// deduplicated (`duplicate_of` is always `None` here).
    candidates: Vec<Finding>,
    variants_tested: u64,
    variants_ub_skipped: u64,
}

impl ShardOutput {
    /// Folds `later` onto `self`, preserving emission order (`later`'s
    /// candidates follow `self`'s). The one merge definition shared by
    /// every checkpoint site — commit-drain, journal replay, and the
    /// partial/continuation fold — so a new counter cannot be merged in
    /// some places and silently dropped in others.
    fn absorb(&mut self, later: ShardOutput) {
        self.file_processed |= later.file_processed;
        self.variants_tested += later.variants_tested;
        self.variants_ub_skipped += later.variants_ub_skipped;
        self.candidates.extend(later.candidates);
    }
}

impl OraclePath<'_> {
    /// The backend that observes rendered variants on this path:
    /// [`SimccBackend`] for both in-process paths (the round-trip
    /// witness, and the incremental path's fallback), the dispatched
    /// backend otherwise.
    fn backend(&self) -> &dyn CompilerBackend {
        match self {
            OraclePath::Incremental | OraclePath::RoundTrip => &SimccBackend,
            OraclePath::Backend(b) => *b,
        }
    }

    /// The backend id recorded in checkpoint-journal manifests.
    /// Incremental and round trip share [`SimccBackend`]'s id, so their
    /// journals resume interchangeably.
    pub(crate) fn backend_id(&self) -> String {
        self.backend().id().to_string()
    }

    /// The backend configuration hash recorded next to the id.
    pub(crate) fn config_hash(&self) -> u64 {
        self.backend().config_hash()
    }

    /// The per-job incremental session for this oracle, `None` for the
    /// round-trip paths. Created at each (file, shard) job's start and
    /// dropped at its end, so cached AST state can never cross a job
    /// boundary (work stealing, checkpoint/resume, and panic quarantine
    /// all see exactly the state the round-trip oracle would).
    pub(crate) fn session<'s>(&self, sk: &'s Skeleton) -> Option<IncrementalSession<'s>> {
        match self {
            OraclePath::Incremental => Some(IncrementalSession::new(sk)),
            _ => None,
        }
    }

    /// Runs every compiler configuration over one rendered variant
    /// through [`Self::backend`], recording its latency into the
    /// per-verdict oracle histogram of `telemetry`
    /// (`oracle_ns.<verdict>`) when the sink is enabled.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the backend machinery failed (never for
    /// [`SimccBackend`]); the caller quarantines the work item.
    pub(crate) fn process_variant(
        &self,
        file: &TestFile,
        src: &str,
        config: &CampaignConfig,
        out: &mut ShardOutput,
        telemetry: &dyn TelemetrySink,
    ) -> Result<(), BackendError> {
        process_timed(telemetry, out, |out| {
            process_variant_backend(file, src, config, self.backend(), out)
        })
    }
}

/// Runs one per-variant oracle invocation `f`, recording its latency
/// into the per-verdict oracle histogram (`oracle_ns.<verdict>`) and the
/// campaign counters of `telemetry` when the sink is enabled. The shared
/// instrumentation seam of [`OraclePath::process_variant`] and
/// [`IncrementalSession::process_variant`]: exactly one histogram sample
/// per variant, whichever execution path produced the observations.
fn process_timed(
    telemetry: &dyn TelemetrySink,
    out: &mut ShardOutput,
    f: impl FnOnce(&mut ShardOutput) -> Result<(), BackendError>,
) -> Result<(), BackendError> {
    if !telemetry.enabled() {
        return f(out);
    }
    let before = (
        out.candidates.len(),
        out.variants_tested,
        out.variants_ub_skipped,
    );
    let timer = Timer::start(telemetry);
    let result = f(out);
    let nanos = timer.stop_nanos();
    // The verdict drives which latency histogram the observation
    // lands in; a variant producing several findings is classified
    // by its first, in `emit_observations`' emission order.
    match &result {
        Ok(()) => {
            let verdict = if let Some(f) = out.candidates.get(before.0) {
                match f.kind {
                    FindingKind::WrongCode => names::ORACLE_NS_WRONG_CODE,
                    FindingKind::Performance => names::ORACLE_NS_PERFORMANCE,
                    _ => names::ORACLE_NS_CRASH,
                }
            } else if out.variants_ub_skipped > before.2 {
                names::ORACLE_NS_UB_SKIP
            } else if out.variants_tested > before.1 {
                names::ORACLE_NS_CLEAN
            } else {
                names::ORACLE_NS_UNSUPPORTED
            };
            telemetry.histogram(verdict, nanos);
        }
        Err(_) => telemetry.counter(names::DEGRADED, 1),
    }
    telemetry.counter(names::VARIANTS, out.variants_tested - before.1);
    let candidates = (out.candidates.len() - before.0) as u64;
    if candidates > 0 {
        telemetry.counter(names::CANDIDATES, candidates);
    }
    let ub = out.variants_ub_skipped - before.2;
    if ub > 0 {
        telemetry.counter(names::UB_SKIPS, ub);
    }
    result
}

/// Observes one rendered variant through a [`CompilerBackend`]: one
/// `observe_variant` call, then the findings [`emit_observations`]
/// makes of the returned [`spe_simcc::Observation`]s. A variant the
/// backend cannot test (no observations) is skipped without counting.
fn process_variant_backend(
    file: &TestFile,
    src: &str,
    config: &CampaignConfig,
    backend: &dyn CompilerBackend,
    out: &mut ShardOutput,
) -> Result<(), BackendError> {
    let fuel = config.check_wrong_code.then_some(config.fuel);
    let observations = backend.observe_variant(src, &config.compilers, fuel)?;
    if observations.is_empty() {
        // Not a testable program for this backend (parse failure):
        // skipped without counting.
        return Ok(());
    }
    if observations.len() != config.compilers.len() {
        return Err(BackendError::new(format!(
            "backend {} returned {} observations for {} configurations",
            backend.id(),
            observations.len(),
            config.compilers.len()
        )));
    }
    emit_observations(file, src, config, &observations, out);
    Ok(())
}

/// Turns per-configuration [`Observation`]s into findings and counter
/// deltas, in a fixed emission order (crash, then per-bug performance,
/// then wrong code, per configuration in order). The one emission
/// definition shared by backend dispatch and the incremental session,
/// so the observations are all two paths can disagree on — and
/// `tests/oracle_identity.rs` / `tests/backend_identity.rs` pin those
/// equal.
fn emit_observations(
    file: &TestFile,
    src: &str,
    config: &CampaignConfig,
    observations: &[Observation],
    out: &mut ShardOutput,
) {
    for (cc, obs) in config.compilers.iter().zip(observations) {
        out.variants_tested += 1;
        if let Some(ice) = &obs.ice {
            out.candidates.push(Finding::candidate(
                FindingKind::Crash,
                cc,
                ice.signature.to_string(),
                Some(ice.bug_id),
                file,
                src,
            ));
            continue;
        }
        if obs.unsupported {
            continue;
        }
        for slow in &obs.slow_compile {
            out.candidates.push(Finding::candidate(
                FindingKind::Performance,
                cc,
                format!(
                    "compile time blow-up in {} at -O{}",
                    cc.id().family,
                    cc.opt()
                ),
                Some(slow),
                file,
                src,
            ));
        }
        if config.check_wrong_code {
            if obs.reference_ub {
                out.variants_ub_skipped += 1;
            } else if obs.wrong_code {
                out.candidates.push(Finding::candidate(
                    FindingKind::WrongCode,
                    cc,
                    format!(
                        "wrong code: {} at -O{} on {}",
                        cc.id().family,
                        cc.opt(),
                        file.name
                    ),
                    obs.miscompiled_by.first().copied(),
                    file,
                    src,
                ));
            }
        }
    }
}

/// The per-(file, shard)-job state of the incremental oracle path: one
/// [`CachedOracle`] anchored on the job's first rendered variant, plus
/// the previous variant's bindings for hole-delta computation.
///
/// The session parses the *first variant it processes* (not the
/// skeleton's normalized program), so the cached AST is exactly what the
/// round-trip path would parse for it; every later variant differs only
/// in identifier spellings at hole slots, which is precisely what
/// [`CachedOracle::observe_variant`] splices (see
/// [`spe_simcc::incremental`] for the identity argument). If the first
/// variant does not parse, or a hole cannot be mapped into the parsed
/// AST, the session permanently falls back to the round-trip path for
/// the job — identical behavior by construction.
pub(crate) struct IncrementalSession<'s> {
    sk: &'s Skeleton,
    cache: Option<CachedOracle>,
    /// Permanent round-trip fallback for this job.
    fallback: bool,
    /// Whether the first variant has been seen (and the cache built).
    started: bool,
    /// The previous variant's hole bindings — the delta baseline.
    prev: Vec<NameId>,
    /// Scratch: indices of holes whose binding changed since `prev`.
    changed: Vec<usize>,
    /// Scratch: the current variant's spellings, hole-indexed.
    spellings: Vec<&'s str>,
    /// Stats snapshot at the last telemetry emission.
    last_stats: CacheStats,
}

impl<'s> IncrementalSession<'s> {
    pub(crate) fn new(sk: &'s Skeleton) -> IncrementalSession<'s> {
        IncrementalSession {
            sk,
            cache: None,
            fallback: false,
            started: false,
            prev: Vec::new(),
            changed: Vec::new(),
            spellings: Vec::new(),
            last_stats: CacheStats::default(),
        }
    }

    /// [`OraclePath::process_variant`] through the splice cache: identical
    /// findings and counters, one `oracle_ns.<verdict>` histogram sample,
    /// plus the `oracle_cache.*` effectiveness counters.
    pub(crate) fn process_variant(
        &mut self,
        variant: &Variant,
        file: &TestFile,
        src: &str,
        config: &CampaignConfig,
        out: &mut ShardOutput,
        telemetry: &dyn TelemetrySink,
    ) -> Result<(), BackendError> {
        if self.fallback {
            return OraclePath::RoundTrip.process_variant(file, src, config, out, telemetry);
        }
        if !self.started {
            self.started = true;
            let built = spe_minic::parse(src).ok().and_then(|prog| {
                let occs: Vec<_> = self.sk.hole_occs().collect();
                CachedOracle::new(
                    prog,
                    &occs,
                    &config.compilers,
                    config.check_wrong_code,
                    config.fuel,
                )
            });
            match built {
                Some(cache) => self.cache = Some(cache),
                None => {
                    // Unparsable render (then every variant is equally
                    // unparsable and the round trip skips them all) or
                    // an unmappable hole: take the round-trip path for
                    // the whole job.
                    self.fallback = true;
                    return OraclePath::RoundTrip
                        .process_variant(file, src, config, out, telemetry);
                }
            }
        }
        self.spellings.clear();
        let table = self.sk.names();
        for &id in &variant.names {
            self.spellings.push(table.name(id));
        }
        variant.changed_holes_into(&self.prev, &mut self.changed);
        self.prev.clone_from(&variant.names);
        let cache = self.cache.as_mut().expect("cache built above");
        let (spellings, changed) = (&self.spellings, &self.changed);
        process_timed(telemetry, out, |out| {
            let observations = cache.observe_variant(spellings, Some(changed));
            emit_observations(file, src, config, observations, out);
            Ok(())
        })?;
        if telemetry.enabled() {
            let stats = self.cache.as_ref().expect("cache built above").stats();
            let last = std::mem::replace(&mut self.last_stats, stats);
            for (name, delta) in [
                (names::ORACLE_SPLICE_HITS, stats.splice_delta - last.splice_delta),
                (names::ORACLE_SPLICE_MISSES, stats.splice_full - last.splice_full),
                (
                    names::ORACLE_PIPELINE_MEMO_HITS,
                    stats.pipeline_memo_hits - last.pipeline_memo_hits,
                ),
                (
                    names::ORACLE_PIPELINE_MEMO_MISSES,
                    stats.pipeline_memo_misses - last.pipeline_memo_misses,
                ),
            ] {
                if delta > 0 {
                    telemetry.counter(name, delta);
                }
            }
        }
        Ok(())
    }
}

/// The quarantine record of a (file, shard) job the campaign gave up
/// on: a [`FindingKind::BackendDegraded`] job whose oracle backend
/// persistently failed, or a [`FindingKind::JobPanicked`] job whose
/// worker panicked. The campaign carries on, and the report keeps an
/// auditable entry carrying the variant being processed as its
/// reproducer and `what` went wrong (the backend error or the panic
/// message) in its signature.
pub(crate) fn quarantine_finding(
    kind: FindingKind,
    file: &TestFile,
    shard: usize,
    variant_src: &str,
    config: &CampaignConfig,
    what: &str,
) -> Finding {
    let cc = config.compilers.first().copied().unwrap_or_else(|| {
        Compiler::new(
            CompilerId {
                family: intern("backend"),
                version: 0,
            },
            0,
        )
    });
    let signature = format!("{}: {} shard {}: {}", kind.label(), file.name, shard, what);
    Finding::candidate(kind, &cc, signature, None, file, variant_src)
}

/// Processes one (file, shard) work item: enumerates the shard's slice of
/// the file's variant space and feeds every variant to the oracle.
/// `buf` is the worker's reusable render buffer.
fn process_work_item(
    file: &TestFile,
    shard: usize,
    shards_per_file: usize,
    config: &CampaignConfig,
    buf: &mut String,
    oracle: OraclePath<'_>,
) -> ShardOutput {
    match prepare_file(file, shards_per_file, config) {
        None => ShardOutput::default(),
        Some((sk, space)) => {
            process_file_shard(file, &sk, &space, shard, shards_per_file, config, buf, oracle)
        }
    }
}

/// Parses and analyzes one file and materializes its variant space once;
/// `None` when the file does not analyze. The expensive half of a work
/// item — the parallel campaign computes it once per file and shares it
/// across that file's shards.
fn prepare_file(
    file: &TestFile,
    shards_per_file: usize,
    config: &CampaignConfig,
) -> Option<(Skeleton, VariantSpace)> {
    let sk = Skeleton::from_source(&file.source).ok()?;
    let space = campaign_enumerator(config, shards_per_file).prepare(&sk);
    Some((sk, space))
}

fn campaign_enumerator(config: &CampaignConfig, shards_per_file: usize) -> ShardedEnumerator {
    ShardedEnumerator::new(
        EnumeratorConfig {
            algorithm: config.algorithm,
            granularity: Granularity::Intra,
            budget: config.budget,
        },
        shards_per_file,
    )
}

/// Streams one shard of a prepared file through the compilers. Every
/// variant is rendered through the worker's reusable `buf` via the
/// skeleton's compiled template — no per-variant source allocation.
/// A persistent backend failure quarantines the rest of the shard: the
/// accumulated output is kept and capped with a
/// [`FindingKind::BackendDegraded`] finding.
#[allow(clippy::too_many_arguments)]
fn process_file_shard(
    file: &TestFile,
    sk: &Skeleton,
    space: &VariantSpace,
    shard: usize,
    shards_per_file: usize,
    config: &CampaignConfig,
    buf: &mut String,
    oracle: OraclePath<'_>,
) -> ShardOutput {
    let mut out = ShardOutput {
        file_processed: shard == 0,
        ..ShardOutput::default()
    };
    let telemetry = spe_telemetry::global();
    // Per-job incremental session (when the oracle is incremental):
    // created here, dropped when the shard completes.
    let mut session = oracle.session(sk);
    campaign_enumerator(config, shards_per_file).enumerate_shard_prepared(
        space,
        shard,
        &mut |variant| {
            variant.render_into(sk, buf);
            let result = match session.as_mut() {
                Some(sess) => {
                    sess.process_variant(variant, file, buf, config, &mut out, &*telemetry)
                }
                None => oracle.process_variant(file, buf, config, &mut out, &*telemetry),
            };
            match result {
                Ok(()) => ControlFlow::Continue(()),
                Err(e) => {
                    out.candidates.push(quarantine_finding(
                        FindingKind::BackendDegraded,
                        file,
                        shard,
                        buf,
                        config,
                        &e.what,
                    ));
                    ControlFlow::Break(())
                }
            }
        },
    );
    out
}

/// Folds per-item outputs into the final report **in work-item order**
/// (file-major, shard-minor), which is exactly the serial emission order —
/// so dedup decisions, finding order, first-reproducer choices and the
/// triage tables derived from them are byte-identical to a serial run.
fn merge_outputs(outputs: Vec<ShardOutput>) -> CampaignReport {
    let mut report = CampaignReport::default();
    // (family, signature) -> index into findings.
    let mut seen_signatures: HashMap<(String, String), usize> = HashMap::new();
    // (family, bug id) -> first signature.
    let mut seen_bugs: HashMap<(String, &'static str), String> = HashMap::new();
    for out in outputs {
        report.files_processed += usize::from(out.file_processed);
        report.variants_tested += out.variants_tested;
        report.variants_ub_skipped += out.variants_ub_skipped;
        for finding in out.candidates {
            record(&mut report, &mut seen_signatures, &mut seen_bugs, finding);
        }
    }
    report
}

/// Runs an SPE bug-hunting campaign over `files`, serially and without
/// a worker pool.
///
/// Crash detection needs only compilation; the wrong-code oracle runs the
/// UB-checking reference interpreter first and skips undefined variants,
/// exactly as §5.4 prescribes.
///
/// Runs on the incremental oracle path ([`OraclePath::Incremental`]).
/// This loop shares nothing with the supervised pool but the per-variant
/// oracle, which makes it the reference every [`Campaign`] report is
/// compared against: they are byte-identical at every worker count.
pub fn run_campaign(files: &[TestFile], config: &CampaignConfig) -> CampaignReport {
    let mut buf = String::new();
    merge_outputs(
        files
            .iter()
            .map(|file| process_work_item(file, 0, 1, config, &mut buf, OraclePath::Incremental))
            .collect(),
    )
}

/// [`Campaign::run`] with `workers` workers on the default oracle.
pub fn run_campaign_parallel(
    files: &[TestFile],
    config: &CampaignConfig,
    workers: usize,
) -> CampaignReport {
    Campaign {
        workers,
        ..Campaign::default()
    }
    .run(files, config)
}

/// [`Campaign::run`] with `workers` workers on the oracle `path`.
pub fn run_campaign_parallel_with_path(
    files: &[TestFile],
    config: &CampaignConfig,
    workers: usize,
    path: OraclePath<'_>,
) -> CampaignReport {
    Campaign {
        workers,
        oracle: path,
        ..Campaign::default()
    }
    .run(files, config)
}

fn record(
    report: &mut CampaignReport,
    seen_signatures: &mut HashMap<(String, String), usize>,
    seen_bugs: &mut HashMap<(String, &'static str), String>,
    mut finding: Finding,
) {
    let key = (
        finding.compiler.family.to_string(),
        finding.signature.clone(),
    );
    if seen_signatures.contains_key(&key) {
        return; // already reported under this signature
    }
    if let Some(bug) = finding.bug_id {
        let bkey = (finding.compiler.family.to_string(), bug);
        match seen_bugs.get(&bkey) {
            Some(first_sig) if *first_sig != finding.signature => {
                finding.duplicate_of = Some(first_sig.clone());
            }
            Some(_) => {}
            None => {
                seen_bugs.insert(bkey, finding.signature.clone());
            }
        }
    }
    seen_signatures.insert(key, report.findings.len());
    report.findings.push(finding);
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_corpus::seeds;

    fn seed_campaign(check_wrong_code: bool) -> CampaignReport {
        let files = seeds::all();
        run_campaign(
            &files,
            &CampaignConfig {
                compilers: vec![
                    Compiler::new(CompilerId::gcc(700), 0),
                    Compiler::new(CompilerId::gcc(700), 3),
                    Compiler::new(CompilerId::clang(390), 3),
                ],
                budget: 200,
                algorithm: Algorithm::Paper,
                check_wrong_code,
                fuel: 20_000,
            },
        )
    }

    #[test]
    fn finds_crash_bugs_in_seed_programs() {
        let report = seed_campaign(false);
        assert!(report.files_processed >= 6);
        let crash_sigs: Vec<&str> = report
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::Crash)
            .map(|f| f.signature.as_str())
            .collect();
        assert!(
            crash_sigs.iter().any(|s| s.contains("operand_equal_p")),
            "Figure 3 crash found: {crash_sigs:?}"
        );
    }

    #[test]
    fn finds_the_figure2_miscompilation() {
        let report = seed_campaign(true);
        let wrong: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::WrongCode)
            .collect();
        assert!(
            wrong.iter().any(|f| f.bug_id == Some("gcc-69951")),
            "alias miscompilation found: {:?}",
            wrong.iter().map(|f| &f.signature).collect::<Vec<_>>()
        );
    }

    #[test]
    fn signatures_are_deduplicated() {
        let report = seed_campaign(false);
        let mut sigs: Vec<(String, String)> = report
            .findings
            .iter()
            .map(|f| (f.compiler.family.to_string(), f.signature.clone()))
            .collect();
        let before = sigs.len();
        sigs.sort();
        sigs.dedup();
        assert_eq!(before, sigs.len(), "duplicate signatures in findings");
    }

    #[test]
    fn ub_variants_are_skipped_not_reported() {
        // A skeleton whose variants frequently divide by zero or read
        // uninitialized memory: variants must be filtered, not flagged.
        let files = vec![TestFile {
            name: "ub.c".into(),
            source: "int main() { int a = 0, b = 4; b = b / (a + b); return b; }".into(),
        }];
        let report = run_campaign(
            &files,
            &CampaignConfig {
                compilers: vec![Compiler::new(CompilerId::gcc(440), 1)],
                budget: 100,
                algorithm: Algorithm::Paper,
                check_wrong_code: true,
                fuel: 10_000,
            },
        );
        // gcc-440 at -O1 has the alias bug only; this program has no
        // pointers, so any mismatch would be a false positive.
        assert!(
            report
                .findings
                .iter()
                .all(|f| f.kind != FindingKind::WrongCode),
            "false positives: {:?}",
            report.findings
        );
        assert!(
            report.variants_ub_skipped > 0,
            "some variants divide by zero"
        );
    }

    #[test]
    fn stable_release_campaign_finds_fewer_bugs_than_trunk() {
        let files = seeds::all();
        let run_with = |version: u32| {
            run_campaign(
                &files,
                &CampaignConfig {
                    compilers: vec![
                        Compiler::new(CompilerId::gcc(version), 0),
                        Compiler::new(CompilerId::gcc(version), 3),
                    ],
                    budget: 150,
                    algorithm: Algorithm::Paper,
                    check_wrong_code: false,
                    fuel: 10_000,
                },
            )
        };
        let old = run_with(440);
        let trunk = run_with(700);
        assert!(
            trunk.findings.len() >= old.findings.len(),
            "trunk has at least as many live seeded bugs ({} vs {})",
            trunk.findings.len(),
            old.findings.len()
        );
    }
}
