//! The supervised campaign orchestrator: [`Campaign`], the one campaign
//! entry point, and **one** worker-pool/merge loop behind it.
//!
//! A [`Campaign`] value is a worker count, an [`OraclePath`] and a
//! [`FaultPolicy`]. [`Campaign::run`] runs in memory,
//! [`Campaign::run_journaled`] runs into an `spe-persist` journal (as a
//! single host, or as one host of a [`FleetPlan`]),
//! [`Campaign::resume`] resumes any such journal, and
//! [`Campaign::reduce`] runs the reduction stage, optionally journaled.
//! The first three build or replay the per-job state and hand it to the
//! one loop (`DESIGN.md` §11): a work-stealing pool over the
//! `files × shards` job space, with an **optional checkpoint sink** and
//! three supervision layers:
//!
//! * **Panic isolation** — each (file, shard) job runs under
//!   [`std::panic::catch_unwind`]. A panicking job is rolled back to its
//!   last fully-processed variant, quarantined as a durable
//!   [`crate::FindingKind::JobPanicked`] finding (committed together
//!   with the job's completion record, so a resume skips it), and the
//!   pool carries on — one poisoned variant cannot take down a
//!   multi-day campaign or wedge its siblings.
//! * **Time-based checkpoint cadence** — in addition to the historical
//!   every-N-variants cadence, a job whose variants are slow (an
//!   external compiler at -O3) commits at least every
//!   [`FaultPolicy::checkpoint_interval`], bounding recomputation after
//!   a crash by wall-clock time instead of variant count.
//! * **Journal-fault tolerance** — a failed checkpoint append (ENOSPC,
//!   EIO) is retried with bounded exponential backoff
//!   ([`FaultPolicy::max_append_retries`] / [`FaultPolicy::retry_backoff`]);
//!   if the journal stays unwritable the run **degrades to
//!   checkpoint-less in-memory completion** with a recorded
//!   [`Outcome::warnings`] entry instead of aborting — the journal keeps
//!   its last committed state and remains resumable.
//!
//! The full failure taxonomy — compiler *verdict* vs backend *machinery
//! error* vs worker *panic* vs *journal fault*, and which layer absorbs
//! each — is laid out in `DESIGN.md` §11. Determinism is unchanged from
//! §9: outputs are folded in fixed (file, shard) order whatever the
//! completion order, so reports stay byte-identical across worker
//! counts and kill/resume histories; the identity suites
//! (`tests/backend_identity.rs`, `tests/checkpoint_resume.rs`) and the
//! injected-fault suite (`tests/orchestrator_faults.rs`) pin all of it.

use crate::checkpoint::{
    encode_campaign_done, encode_job_done, encode_progress, reduce_journaled, CampaignStatus,
    CheckpointError, CheckpointOptions, JobState, Manifest, Replay,
};
use crate::fleet::{mark_foreign_jobs_done, FleetPlan};
use crate::reduction::{reduce_in_memory, ReductionOptions};
use crate::steal::WorkQueue;
use crate::{
    merge_outputs, prepare_file, quarantine_finding, CampaignConfig, CampaignReport, FindingKind,
    OraclePath, ShardOutput,
};
use spe_corpus::TestFile;
use spe_persist::{Journal, JournalError, JournalIter};
use spe_telemetry::{names, Sink as TelemetrySink, Timer};
use std::any::Any;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How the orchestrator responds to infrastructure faults — checkpoint
/// cadence under slow oracles and retry/degradation behavior when the
/// journal itself fails. Orthogonal to [`CheckpointOptions`], which
/// describes *what* a checkpointed run records; this describes *how
/// hard the orchestrator fights to record it*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Wall-clock checkpoint cadence: a job with uncommitted progress
    /// older than this commits at the next variant boundary, even if
    /// the count-based [`CheckpointOptions::every`] has not elapsed —
    /// so slow-oracle campaigns lose bounded *time*, not unbounded
    /// variant recomputation, to a crash. `None` disables the
    /// time-based trigger (count-only cadence).
    pub checkpoint_interval: Option<Duration>,
    /// How many times a failed journal append is retried before the run
    /// degrades to checkpoint-less completion.
    pub max_append_retries: u32,
    /// Backoff before the first retry; doubled per subsequent retry
    /// (transient ENOSPC/EIO conditions — a log rotation, a burst of
    /// writes — often clear within milliseconds).
    pub retry_backoff: Duration,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            checkpoint_interval: Some(Duration::from_secs(5)),
            max_append_retries: 4,
            retry_backoff: Duration::from_millis(10),
        }
    }
}

/// What a supervised run produced: the campaign status plus every
/// degradation the orchestrator absorbed instead of aborting on.
#[derive(Debug)]
pub struct Outcome {
    /// Completion, or interruption by [`CheckpointOptions::stop_after`].
    pub status: CampaignStatus,
    /// Human-readable records of absorbed faults (e.g. checkpointing
    /// disabled after exhausted journal retries). Empty on a clean run.
    /// Deliberately *not* part of the [`CampaignReport`]: reports are
    /// compared byte-for-byte across runs, and infrastructure weather
    /// must never make two equal campaigns unequal.
    pub warnings: Vec<String>,
}

impl Outcome {
    /// The completed report, `None` when interrupted.
    pub fn into_report(self) -> Option<CampaignReport> {
        self.status.into_report()
    }
}

/// Everything one supervised run needs. Borrowed, not owned: resume
/// paths hand the manifest's corpus straight through without cloning.
pub(crate) struct Spec<'a> {
    pub(crate) files: &'a [TestFile],
    pub(crate) config: &'a CampaignConfig,
    /// Shards each file's variant space is cut into — fixed by the
    /// journal manifest on resume, `workers` on fresh runs.
    pub(crate) shards_per_file: usize,
    /// Per-job replayed state: fresh defaults on a first run, the
    /// journal's committed high-water marks and partial outputs on a
    /// resume. Jobs marked done are not re-dealt.
    pub(crate) jobs: Vec<JobState>,
    pub(crate) workers: usize,
    /// Count-based checkpoint cadence ([`CheckpointOptions::every`]).
    pub(crate) every: u64,
    /// Simulated-kill budget ([`CheckpointOptions::stop_after`]).
    pub(crate) stop_after: Option<u64>,
    /// The checkpoint sink; `None` runs the pool purely in memory.
    pub(crate) journal: Option<Journal>,
    pub(crate) oracle: OraclePath<'a>,
    pub(crate) policy: FaultPolicy,
}

/// The checkpoint sink: serializes journal appends, retries transient
/// failures per the policy, and — when the journal stays unwritable —
/// flips to degraded mode so the rest of the campaign completes in
/// memory with a recorded warning.
struct Sink<'a> {
    journal: Option<Mutex<Journal>>,
    degraded: AtomicBool,
    policy: &'a FaultPolicy,
    warnings: &'a Mutex<Vec<String>>,
    telemetry: &'a dyn TelemetrySink,
}

impl Sink<'_> {
    /// Whether appends currently reach the journal.
    fn active(&self) -> bool {
        self.journal.is_some() && !self.degraded.load(Ordering::Relaxed)
    }

    /// Appends one frame with bounded-backoff retry; on exhaustion,
    /// degrades the sink (once, with a warning) instead of failing the
    /// campaign.
    fn append(&self, what: &str, payload: &[u8]) {
        let Some(journal) = &self.journal else { return };
        if self.degraded.load(Ordering::Relaxed) {
            return;
        }
        let mut backoff = self.policy.retry_backoff;
        let mut attempt = 0u32;
        loop {
            // Hold the journal lock only for the append itself; backoff
            // sleeps must not serialize the other workers' commits.
            let result = journal.lock().expect("poisoned").append(payload);
            match result {
                Ok(()) => return,
                Err(e @ JournalError::Io { .. }) if attempt < self.policy.max_append_retries => {
                    attempt += 1;
                    let _ = e;
                    self.telemetry.counter(names::JOURNAL_RETRIES, 1);
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                Err(e) => {
                    if !self.degraded.swap(true, Ordering::Relaxed) {
                        self.telemetry.event(names::JOURNAL_DEGRADED, what);
                        self.warnings.lock().expect("poisoned").push(format!(
                            "checkpointing disabled: {what} failed after {attempt} retries: {e}; \
                             the campaign continues in memory and the journal stays resumable \
                             at its last committed state"
                        ));
                    }
                    return;
                }
            }
        }
    }

    /// Commits a `Progress` frame for `[last mark, emitted)` — the
    /// high-water mark plus exactly the candidates and counters of the
    /// variants it covers, one atomic frame — then drains the delta
    /// into the run's in-memory continuation. The drain happens whether
    /// or not the append reached the journal: the report never depends
    /// on checkpoint health.
    fn commit(&self, job: usize, emitted: u64, delta: &mut ShardOutput, cont: &mut ShardOutput) {
        if self.active() {
            let timer = Timer::start(self.telemetry);
            self.append("progress checkpoint", &encode_progress(job, emitted, delta));
            if self.telemetry.enabled() {
                self.telemetry
                    .span(names::ORCH_CHECKPOINT, "", timer.stop_nanos());
            }
        }
        cont.absorb(std::mem::take(delta));
    }
}

/// Extracts a printable message from a [`catch_unwind`] payload.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The one supervised worker-pool/merge loop (`DESIGN.md` §11). Every
/// [`Campaign`] run — in memory, journaled, fleet host or resumed, on
/// any oracle path — is this function over differently seeded jobs.
pub(crate) fn run(spec: Spec<'_>) -> Outcome {
    let Spec {
        files,
        config,
        shards_per_file,
        jobs,
        workers,
        every,
        stop_after,
        journal,
        oracle,
        policy,
    } = spec;
    let every = every.max(1);
    // One global-sink read per run; workers share the borrow. All
    // recording is write-only (nothing read back), so instrumented
    // runs stay byte-identical to `NullSink` runs.
    let telemetry_handle = spe_telemetry::global();
    let telemetry: &dyn TelemetrySink = &*telemetry_handle;
    let run_timer = Timer::start(telemetry);
    let deal_timer = Timer::start(telemetry);
    let pending: Vec<usize> = (0..jobs.len()).filter(|&i| !jobs[i].done).collect();
    let dealt = pending.len();
    let queue = WorkQueue::new(pending, workers);
    if telemetry.enabled() {
        telemetry.gauge(names::ORCH_JOBS, i64::try_from(jobs.len()).unwrap_or(i64::MAX));
        telemetry.span(
            names::ORCH_DEAL,
            &format!("jobs={dealt} workers={workers}"),
            deal_timer.stop_nanos(),
        );
    }
    let warnings: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let sink = Sink {
        journal: journal.map(Mutex::new),
        degraded: AtomicBool::new(false),
        policy: &policy,
        warnings: &warnings,
        telemetry,
    };
    let stop = AtomicBool::new(false);
    let processed = AtomicU64::new(0);
    // Continuations (outputs of this run) per job; folded with the
    // replayed partials afterwards.
    let continuations: Mutex<Vec<Option<ShardOutput>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    // Per-file skeleton + materialized variant space, computed once by
    // whichever worker reaches the file first and shared by the rest.
    let prepared: Vec<OnceLock<Option<(spe_core::Skeleton, spe_core::VariantSpace)>>> =
        (0..files.len()).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let queue = &queue;
            let sink = &sink;
            let stop = &stop;
            let processed = &processed;
            let continuations = &continuations;
            let prepared = &prepared;
            let jobs = &jobs;
            scope.spawn(move || {
                let mut buf = String::new();
                while let Some((i, stolen)) = queue.pop_from(w) {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    if telemetry.enabled() {
                        if stolen {
                            telemetry.counter(names::ORCH_STEALS, 1);
                        }
                        telemetry.gauge(
                            names::ORCH_QUEUE_DEPTH,
                            i64::try_from(queue.len()).unwrap_or(i64::MAX),
                        );
                    }
                    let job_timer = Timer::start(telemetry);
                    let (file_idx, shard) = (i / shards_per_file, i % shards_per_file);
                    let file = &files[file_idx];
                    let skip = jobs[i].emitted;
                    let space = prepared[file_idx]
                        .get_or_init(|| prepare_file(file, shards_per_file, config));
                    // Output since the last committed checkpoint (the
                    // journal delta) and since the start of this run
                    // (the in-memory continuation).
                    let mut delta = ShardOutput {
                        file_processed: shard == 0 && space.is_some() && skip == 0,
                        ..ShardOutput::default()
                    };
                    let mut cont = ShardOutput::default();
                    let mut emitted = skip;
                    let mut last_commit = skip;
                    let mut last_commit_at = Instant::now();
                    let mut killed = false;
                    // Rollback point for panic isolation: `delta`'s
                    // state after the last fully-processed variant (and
                    // after any drain). A panic mid-variant truncates
                    // back to it, so the quarantined job commits only
                    // whole variants — deterministic under resume.
                    let mut rollback = (0usize, 0u64, 0u64);
                    let panic_payload = if let Some((sk, space)) = space {
                        let enumerator = crate::campaign_enumerator(config, shards_per_file);
                        // Per-job incremental session (None on the
                        // round-trip paths): built lazily from the job's
                        // first variant inside the panic guard, dropped
                        // at job end — cached AST state cannot outlive
                        // the job or leak into a quarantined sibling.
                        let mut session = oracle.session(sk);
                        catch_unwind(AssertUnwindSafe(|| {
                            enumerator.enumerate_shard_resumed_prepared(
                                space,
                                shard,
                                skip,
                                &mut |variant| {
                                    if stop.load(Ordering::Relaxed) {
                                        killed = true;
                                        return ControlFlow::Break(());
                                    }
                                    variant.render_into(sk, &mut buf);
                                    let result = match session.as_mut() {
                                        Some(sess) => sess.process_variant(
                                            variant, file, &buf, config, &mut delta, telemetry,
                                        ),
                                        None => oracle.process_variant(
                                            file, &buf, config, &mut delta, telemetry,
                                        ),
                                    };
                                    if let Err(e) = result {
                                        // Backend machinery failure:
                                        // quarantine the job (degraded
                                        // finding + JobDone below) and
                                        // let the campaign continue.
                                        delta.candidates.push(quarantine_finding(
                                            FindingKind::BackendDegraded,
                                            file,
                                            shard,
                                            &buf,
                                            config,
                                            &e.what,
                                        ));
                                        return ControlFlow::Break(());
                                    }
                                    emitted += 1;
                                    rollback = (
                                        delta.candidates.len(),
                                        delta.variants_tested,
                                        delta.variants_ub_skipped,
                                    );
                                    if let Some(limit) = stop_after {
                                        if processed.fetch_add(1, Ordering::Relaxed) + 1 >= limit {
                                            // Simulated kill: drop the
                                            // uncommitted delta on the
                                            // floor.
                                            stop.store(true, Ordering::Relaxed);
                                            telemetry
                                                .event(names::ORCH_KILLED, "stop_after reached");
                                            killed = true;
                                            return ControlFlow::Break(());
                                        }
                                    }
                                    let count_due = emitted - last_commit >= every;
                                    let time_due = emitted > last_commit
                                        && sink.policy.checkpoint_interval.is_some_and(|interval| {
                                            last_commit_at.elapsed() >= interval
                                        });
                                    if count_due || time_due {
                                        sink.commit(i, emitted, &mut delta, &mut cont);
                                        last_commit = emitted;
                                        last_commit_at = Instant::now();
                                        rollback = (0, 0, 0);
                                    }
                                    ControlFlow::Continue(())
                                },
                            );
                        }))
                        .err()
                    } else {
                        None
                    };
                    if let Some(payload) = panic_payload {
                        // Roll back any half-processed variant, then
                        // quarantine: the panic marker is committed with
                        // the job's completion record, so a resume skips
                        // this job instead of re-tripping the panic.
                        delta.candidates.truncate(rollback.0);
                        delta.variants_tested = rollback.1;
                        delta.variants_ub_skipped = rollback.2;
                        delta.candidates.push(quarantine_finding(
                            FindingKind::JobPanicked,
                            file,
                            shard,
                            &buf,
                            config,
                            panic_message(payload.as_ref()),
                        ));
                        telemetry.counter(names::ORCH_PANICS, 1);
                    }
                    if killed {
                        return;
                    }
                    // Commit the tail delta (skipped when nothing
                    // accrued since the last checkpoint — an empty
                    // `Progress` replays as a no-op, so eliding it saves
                    // an fsync without changing resume semantics) and
                    // the job's completion.
                    let dirty = emitted != last_commit
                        || delta.file_processed
                        || delta.variants_tested != 0
                        || !delta.candidates.is_empty();
                    if dirty {
                        sink.commit(i, emitted, &mut delta, &mut cont);
                    }
                    sink.append("job completion record", &encode_job_done(i));
                    continuations.lock().expect("poisoned")[i] = Some(cont);
                    if telemetry.enabled() {
                        telemetry.span(
                            names::ORCH_JOB,
                            &format!("file={file_idx} shard={shard}"),
                            job_timer.stop_nanos(),
                        );
                    }
                    telemetry.counter(names::ORCH_JOBS_DONE, 1);
                }
            });
        }
    });
    if stop.load(Ordering::Relaxed) {
        if telemetry.enabled() {
            telemetry.span(names::ORCH_RUN, "interrupted", run_timer.stop_nanos());
        }
        return Outcome {
            status: CampaignStatus::Interrupted,
            warnings: warnings.into_inner().expect("poisoned"),
        };
    }
    sink.append("campaign completion record", &encode_campaign_done());
    let continuations = continuations.into_inner().expect("poisoned");
    let outputs = jobs
        .into_iter()
        .zip(continuations)
        .map(|(job, cont)| {
            let mut out = job.partial;
            if let Some(cont) = cont {
                out.absorb(cont);
            }
            out
        })
        .collect();
    let merge_timer = Timer::start(telemetry);
    let report = merge_outputs(outputs);
    if telemetry.enabled() {
        telemetry.span(names::ORCH_MERGE, "", merge_timer.stop_nanos());
        telemetry.span(names::ORCH_RUN, "complete", run_timer.stop_nanos());
    }
    Outcome {
        status: CampaignStatus::Complete(report),
        warnings: warnings.into_inner().expect("poisoned"),
    }
}

/// One campaign: how many workers run it, which oracle they reach, and
/// how hard the orchestrator fights infrastructure faults. The one entry
/// point of every campaign (`DESIGN.md` §9–§14): its four methods run
/// in memory, run into a resumable journal (optionally as one host of a
/// fleet), resume such a journal, and reduce the findings. All of them
/// deliver each variant to the oracle through the same supervised loop,
/// so reports are byte-identical across worker counts, oracle paths,
/// kill/resume histories and host counts.
///
/// ```
/// use spe_harness::{Campaign, CampaignConfig, OraclePath};
/// use spe_simcc::backend::SimccBackend;
///
/// let files = spe_corpus::seeds::all();
/// let config = CampaignConfig { budget: 8, ..CampaignConfig::default() };
/// let fast = Campaign { workers: 2, ..Campaign::default() }.run(&files, &config);
/// let backend = Campaign {
///     workers: 2,
///     oracle: OraclePath::Backend(&SimccBackend),
///     ..Campaign::default()
/// };
/// assert_eq!(backend.run(&files, &config), fast);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Campaign<'a> {
    /// Worker threads. A fresh run also cuts each file's variant space
    /// into this many shards (a fleet host takes the plan's
    /// [`FleetPlan::shards_per_file`] instead); a resume only sizes the
    /// pool, because the journal fixes the decomposition.
    pub workers: usize,
    /// How each variant reaches the oracle.
    pub oracle: OraclePath<'a>,
    /// Checkpoint cadence and journal-fault handling.
    pub policy: FaultPolicy,
}

impl Default for Campaign<'_> {
    fn default() -> Self {
        Campaign {
            workers: 1,
            oracle: OraclePath::Incremental,
            policy: FaultPolicy::default(),
        }
    }
}

impl<'a> Campaign<'a> {
    /// Runs the campaign in memory. Work items live in a shared
    /// work-stealing queue ([`crate::steal::WorkQueue`]): each worker is
    /// dealt a contiguous run of `files × workers` (file, shard) items,
    /// so consecutive shards of one file stay on one thread, and a
    /// worker that runs dry steals from its neighbours. Each job runs
    /// under panic isolation, so a poisoned variant quarantines its job
    /// as a [`crate::FindingKind::JobPanicked`] finding instead of
    /// crashing the process.
    ///
    /// The report — finding order, dedup decisions, reproducers and
    /// counters — is **byte-identical** to [`crate::run_campaign`] on the
    /// same inputs, for any worker count: outputs are folded in
    /// deterministic (file, shard) order regardless of completion order.
    pub fn run(&self, files: &[TestFile], config: &CampaignConfig) -> CampaignReport {
        let workers = self.workers.max(1);
        let options = CheckpointOptions {
            every: u64::MAX,
            stop_after: None,
        };
        let jobs = fresh_jobs(files.len() * workers);
        run(self.spec(files, config, workers, jobs, &options, None))
            .into_report()
            .expect("in-memory campaigns always complete")
    }

    /// Runs the campaign writing per-(file, shard) checkpoints into a
    /// fresh journal at `path` (any existing file is replaced). The
    /// journal's manifest pins the corpus, configuration, decomposition
    /// and the oracle's backend identity, so [`Campaign::resume`] needs
    /// only the path. A completed run's report is byte-identical to
    /// [`Campaign::run`].
    ///
    /// With `host = Some((plan, host_id))` the run is one host of a
    /// fleet (`DESIGN.md` §14): the manifest also pins the fleet stamp,
    /// the decomposition is the plan's
    /// [`FleetPlan::shards_per_file`], and only the jobs of
    /// [`FleetPlan::host_jobs`] are dealt to the pool. The host's
    /// **partial** report covers its slice only; the campaign result
    /// comes from [`crate::merge_journals`] over all hosts.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Journal`] when the journal cannot be
    /// **created**, [`CheckpointError::Foreign`] when `host_id` is out of
    /// the plan's range. Later append failures do not abort the run:
    /// they are retried and then degrade it to checkpoint-less
    /// completion with an [`Outcome::warnings`] entry (see
    /// [`FaultPolicy`]).
    pub fn run_journaled(
        &self,
        files: &[TestFile],
        config: &CampaignConfig,
        path: impl AsRef<Path>,
        options: &CheckpointOptions,
        host: Option<(&FleetPlan, usize)>,
    ) -> Result<Outcome, CheckpointError> {
        let stamp = match host {
            Some((plan, host_id)) if host_id >= plan.n_hosts.max(1) => {
                return Err(CheckpointError::Foreign(format!(
                    "host {host_id} is out of the plan's {} hosts",
                    plan.n_hosts.max(1)
                )))
            }
            Some((plan, host_id)) => Some(plan.stamp(host_id)),
            None => None,
        };
        let shards_per_file = host
            .map_or(self.workers, |(plan, _)| plan.shards_per_file)
            .max(1);
        let manifest = Manifest {
            config: config.clone(),
            shards_per_file,
            files: files.to_vec(),
            backend_id: self.oracle.backend_id(),
            backend_hash: self.oracle.config_hash(),
            fleet: stamp,
        };
        let journal = Journal::create(path, &manifest.encode())?;
        let mut jobs = fresh_jobs(files.len() * shards_per_file);
        let Some(stamp) = stamp else {
            return Ok(run(self.spec(
                files,
                config,
                shards_per_file,
                jobs,
                options,
                Some(journal),
            )));
        };
        // Jobs outside the slice are pre-marked done: the pool never
        // deals them, no frames are written for them, and their empty
        // partials contribute nothing to the host's partial report.
        mark_foreign_jobs_done(&mut jobs, stamp)?;
        let owned = jobs.iter().filter(|j| !j.done).count();
        let telemetry = spe_telemetry::global();
        let timer = Timer::start(&*telemetry);
        if telemetry.enabled() {
            telemetry.gauge(
                names::FLEET_JOBS_OWNED,
                i64::try_from(owned).unwrap_or(i64::MAX),
            );
        }
        let outcome = run(self.spec(files, config, shards_per_file, jobs, options, Some(journal)));
        if telemetry.enabled() {
            telemetry.span(
                names::FLEET_HOST_RUN,
                &format!(
                    "fleet={:#x} host={}/{} jobs={owned}",
                    stamp.fleet_id, stamp.host_id, stamp.n_hosts
                ),
                timer.stop_nanos(),
            );
        }
        Ok(outcome)
    }

    /// Resumes the campaign whose journal lives at `path` — a
    /// single-host journal or one fleet host's.
    ///
    /// The journal's valid prefix is replayed **streamingly** (a torn
    /// tail frame from the crash is truncated, and memory stays bounded
    /// by the live per-job state), finished jobs keep their recorded
    /// outputs, and unfinished jobs are re-dealt into the work-stealing
    /// queue with their shards re-seeded at the committed emission-index
    /// high-water marks via exact unranking. `workers` only sizes the
    /// pool; the journal fixes the decomposition (and a host's slice),
    /// and the completed report is byte-identical to an uninterrupted
    /// run regardless of either. A resumed run may itself be interrupted
    /// and resumed again, any number of times, on either in-process
    /// oracle path.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Journal`] when the file is not a resumable
    /// journal (or another writer holds it); [`CheckpointError::Decode`]
    /// / [`CheckpointError::Foreign`] when its records do not decode
    /// against this build's schema and registries, when it was recorded
    /// under a different backend id or configuration hash than
    /// [`Campaign::oracle`], or when a fleet journal records state
    /// outside its host's slice.
    pub fn resume(
        &self,
        path: impl AsRef<Path>,
        options: &CheckpointOptions,
    ) -> Result<Outcome, CheckpointError> {
        let telemetry = spe_telemetry::global();
        let replay_timer = Timer::start(&*telemetry);
        let mut iter = JournalIter::open_locked(path.as_ref())?;
        let mut replay = Replay::new(iter.header())?;
        replay.drain(&mut iter)?;
        if telemetry.enabled() {
            telemetry.span(
                names::ORCH_REPLAY,
                &format!("jobs={}", replay.jobs.len()),
                replay_timer.stop_nanos(),
            );
        }
        replay.manifest.check_backend(&self.oracle)?;
        let Replay {
            manifest,
            mut jobs,
            campaign_done,
            ..
        } = replay;
        if let Some(stamp) = manifest.fleet {
            // A host journal records frames only for its own slice; jobs
            // outside it are re-marked done exactly as on the first run.
            mark_foreign_jobs_done(&mut jobs, stamp)?;
        }
        if campaign_done {
            // Nothing to recompute: fold the recorded outputs directly.
            drop(iter);
            let outputs = jobs.into_iter().map(|j| j.partial).collect();
            return Ok(Outcome {
                status: CampaignStatus::Complete(merge_outputs(outputs)),
                warnings: Vec::new(),
            });
        }
        // The scan's writer lock carries straight into the appender: no
        // other resume can slip a frame in between replay and append.
        let journal = iter.into_appender()?;
        let spec = self.spec(
            &manifest.files,
            &manifest.config,
            manifest.shards_per_file,
            jobs,
            options,
            Some(journal),
        );
        Ok(run(spec))
    }

    /// Runs the reduction stage over every finding of `report` on
    /// `workers` threads, then the fingerprint and trigger dedup folds
    /// (`DESIGN.md` §7). Every candidate shrink is re-checked by
    /// [`Campaign::oracle`]: pass the oracle the campaign ran under. The
    /// report is byte-identical for every worker count.
    ///
    /// With `journal = Some(path)` the stage extends the campaign's
    /// journal with one witness frame per finding: witnesses recorded by
    /// an earlier (killed) pass are replayed instead of recomputed, and
    /// the attached report stays byte-identical to an in-memory
    /// reduction under any kill/resume history.
    ///
    /// # Errors
    ///
    /// Journaled reductions only: the error classes of
    /// [`Campaign::resume`], including a journal recorded under a
    /// different backend, options that differ from the recorded pass,
    /// and witnesses recorded for another report's findings. The report
    /// is left unmodified on error.
    pub fn reduce(
        &self,
        report: &mut CampaignReport,
        options: &ReductionOptions,
        journal: Option<&Path>,
    ) -> Result<(), CheckpointError> {
        match journal {
            None => {
                reduce_in_memory(report, options, self.workers, self.oracle);
                Ok(())
            }
            Some(path) => reduce_journaled(report, options, self.workers, path, self.oracle),
        }
    }

    fn spec<'s>(
        &self,
        files: &'s [TestFile],
        config: &'s CampaignConfig,
        shards_per_file: usize,
        jobs: Vec<JobState>,
        options: &CheckpointOptions,
        journal: Option<Journal>,
    ) -> Spec<'s>
    where
        'a: 's,
    {
        Spec {
            files,
            config,
            shards_per_file,
            jobs,
            workers: self.workers.max(1),
            every: options.every,
            stop_after: options.stop_after,
            journal,
            oracle: self.oracle,
            policy: self.policy,
        }
    }
}

fn fresh_jobs(count: usize) -> Vec<JobState> {
    (0..count).map(|_| JobState::default()).collect()
}
