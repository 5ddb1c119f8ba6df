//! Checkpoint/resume acceptance tests: a campaign killed at an arbitrary
//! point — checkpoint boundary or mid-interval — and resumed from its
//! journal must produce a final report **byte-identical** to an
//! uninterrupted serial run, at 1/2/4/16 workers, across kill counts,
//! worker-count changes between runs, and journal tail corruption.

use proptest::prelude::*;
use spe::corpus::{generate, seeds, CorpusConfig};
use spe::harness::checkpoint::{CampaignStatus, CheckpointError, CheckpointOptions};
use spe::harness::reduction::{reduce_findings, ReductionOptions};
use spe::harness::{run_campaign, Campaign, CampaignConfig, CampaignReport, OraclePath};
use spe::simcc::backend::{BackendError, CompilerBackend, SimccBackend};
use spe::simcc::{Compiler, CompilerId, Observation};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn config() -> CampaignConfig {
    CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(700), 0),
            Compiler::new(CompilerId::gcc(700), 3),
            Compiler::new(CompilerId::clang(390), 3),
        ],
        budget: 40,
        algorithm: spe::core::Algorithm::Paper,
        check_wrong_code: true,
        fuel: 10_000,
    }
}

fn journal_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spe-checkpoint-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.journal"))
}

/// Resumes until completion, growing the kill budget geometrically so
/// repeated kills cannot starve progress forever.
fn resume_to_completion(path: &PathBuf, workers: usize, mut stop: Option<u64>) -> CampaignReport {
    for _ in 0..32 {
        let status = Campaign {
            workers,
            ..Campaign::default()
        }
        .resume(
            path,
            &CheckpointOptions {
                every: 8,
                stop_after: stop,
            },
        )
        .expect("resume")
        .status;
        match status {
            CampaignStatus::Complete(report) => return report,
            CampaignStatus::Interrupted => stop = stop.map(|s| s.saturating_mul(2)),
        }
    }
    panic!("campaign did not complete within 32 resumes");
}

#[test]
fn uninterrupted_checkpointed_run_matches_the_plain_campaign() {
    let files = seeds::all();
    let config = config();
    let reference = run_campaign(&files, &config);
    for workers in [1usize, 2, 4, 16] {
        let path = journal_path(&format!("uninterrupted-{workers}"));
        let status = Campaign {
            workers,
            ..Campaign::default()
        }
        .run_journaled(
            &files,
            &config,
            &path,
            &CheckpointOptions {
                every: 16,
                stop_after: None,
            },
            None,
        )
        .expect("checkpointed run")
        .status;
        let report = status.into_report().expect("completed");
        assert_eq!(report, reference, "{workers} workers diverged");
        // Resuming a finished journal replays it without recomputing.
        let replayed = resume_to_completion(&path, workers, None);
        assert_eq!(replayed, reference, "{workers} workers replay diverged");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn kill_and_resume_is_byte_identical_at_every_worker_count() {
    let files = seeds::all();
    let config = config();
    let reference = run_campaign(&files, &config);
    for workers in [1usize, 2, 4, 16] {
        // Kill points: before the first checkpoint of most shards, at a
        // checkpoint boundary (multiples of `every = 8`), mid-interval.
        for stop in [3u64, 24, 61] {
            let path = journal_path(&format!("kill-{workers}-{stop}"));
            let status = Campaign {
                workers,
                ..Campaign::default()
            }
            .run_journaled(
                &files,
                &config,
                &path,
                &CheckpointOptions {
                    every: 8,
                    stop_after: Some(stop),
                },
                None,
            )
            .expect("checkpointed run")
            .status;
            let report = match status {
                CampaignStatus::Complete(r) => r, // tiny spaces may finish early
                CampaignStatus::Interrupted => resume_to_completion(&path, workers, None),
            };
            assert_eq!(report, reference, "workers {workers}, stop {stop}");
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn repeated_kills_and_worker_count_changes_still_converge_identically() {
    let files = seeds::all();
    let config = config();
    let reference = run_campaign(&files, &config);
    let path = journal_path("repeated-kills");
    let status = Campaign {
        workers: 4,
        ..Campaign::default()
    }
    .run_journaled(
        &files,
        &config,
        &path,
        &CheckpointOptions {
            every: 4,
            stop_after: Some(30),
        },
        None,
    )
    .expect("checkpointed run")
    .status;
    assert!(status.is_interrupted(), "workload outlives the first kill");
    // Kill it twice more while resuming under different worker counts;
    // the job decomposition is pinned by the manifest, so the final
    // report cannot drift.
    let report = {
        let mut stop = Some(20u64);
        let mut report = None;
        for (attempt, workers) in [16usize, 1, 2, 4, 16, 2, 1, 4].iter().enumerate() {
            let resumed = Campaign {
                workers: *workers,
                ..Campaign::default()
            }
            .resume(
                &path,
                &CheckpointOptions {
                    every: 4,
                    stop_after: stop,
                },
            )
            .expect("resume");
            match resumed.status {
                CampaignStatus::Complete(r) => {
                    report = Some(r);
                    break;
                }
                CampaignStatus::Interrupted => {
                    if attempt >= 2 {
                        stop = None; // let it finish eventually
                    }
                }
            }
        }
        report.expect("converged")
    };
    assert_eq!(report, reference);
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_tail_frames_are_recovered_on_resume() {
    let files = seeds::all();
    let config = config();
    let reference = run_campaign(&files, &config);
    for cut in [1usize, 7, 40, 200] {
        let path = journal_path(&format!("torn-{cut}"));
        let status = Campaign {
            workers: 4,
            ..Campaign::default()
        }
        .run_journaled(
            &files,
            &config,
            &path,
            &CheckpointOptions {
                every: 8,
                stop_after: Some(50),
            },
            None,
        )
        .expect("checkpointed run")
        .status;
        assert!(status.is_interrupted());
        // Chop bytes off the tail: a torn final frame (small cuts) or
        // whole lost records (large cuts). Both only lose committed
        // work, which resume recomputes identically.
        let bytes = std::fs::read(&path).expect("journal bytes");
        assert!(bytes.len() > cut + 64, "journal long enough to cut {cut}");
        std::fs::write(&path, &bytes[..bytes.len() - cut]).expect("truncate");
        let report = resume_to_completion(&path, 4, None);
        assert_eq!(report, reference, "cut {cut}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn concurrent_resumes_of_one_journal_are_rejected() {
    let files = seeds::all();
    let config = config();
    let path = journal_path("concurrent");
    let status = Campaign {
        workers: 2,
        ..Campaign::default()
    }
    .run_journaled(
        &files,
        &config,
        &path,
        &CheckpointOptions {
            every: 8,
            stop_after: Some(40),
        },
        None,
    )
    .expect("checkpointed run")
    .status;
    assert!(status.is_interrupted());
    // A stale writer still holds the journal (a racing resume, a hung
    // process): the second resume must fail fast, not interleave frames.
    let contents = spe::persist::JournalReader::read(&path).expect("readable");
    let held = spe::persist::Journal::open_append_with(&path, &contents).expect("lock");
    assert!(
        Campaign {
            workers: 2,
            ..Campaign::default()
        }
        .resume(&path, &CheckpointOptions::default())
        .is_err(),
        "resume under a held journal lock must be rejected"
    );
    drop(held);
    let report = resume_to_completion(&path, 2, None);
    assert_eq!(report, run_campaign(&files, &config));
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_non_journal_file_is_rejected_not_misread() {
    let path = journal_path("not-a-journal");
    std::fs::write(&path, b"definitely not a journal").expect("write");
    let err = Campaign {
        workers: 2,
        ..Campaign::default()
    }
    .resume(&path, &CheckpointOptions::default());
    assert!(err.is_err(), "foreign file must be rejected");
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpointed_reduction_replays_witnesses_and_stays_identical() {
    let files = seeds::all();
    let config = config();
    let path = journal_path("reduction");
    let report = Campaign {
        workers: 2,
        ..Campaign::default()
    }
    .run_journaled(&files, &config, &path, &CheckpointOptions::default(), None)
    .expect("campaign")
    .status
    .into_report()
    .expect("completed");
    assert!(!report.findings.is_empty());
    let options = ReductionOptions {
        fuel: config.fuel,
        ..ReductionOptions::default()
    };
    // Uninterrupted in-memory reference.
    let mut reference = report.clone();
    reduce_findings(&mut reference, &options, 4);
    // Checkpointed pass, journal-extended.
    let mut checkpointed = report.clone();
    Campaign {
        workers: 4,
        ..Campaign::default()
    }
    .reduce(&mut checkpointed, &options, Some(path.as_path()))
    .expect("reduce");
    assert_eq!(checkpointed, reference);
    // Drop a few Reduced records off the tail (a crash mid-reduction)
    // and re-run on a fresh copy: replayed witnesses + recomputed
    // stragglers must still match exactly.
    let bytes = std::fs::read(&path).expect("journal bytes");
    std::fs::write(&path, &bytes[..bytes.len() - 100]).expect("truncate");
    let mut resumed = report.clone();
    Campaign {
        workers: 3,
        ..Campaign::default()
    }
    .reduce(&mut resumed, &options, Some(path.as_path()))
    .expect("reduce resumed");
    assert_eq!(resumed, reference);
    // A report that does not match the journal's recorded findings must
    // be rejected, not silently attached to the wrong witnesses.
    let mut mismatched = report.clone();
    mismatched.findings[0].signature = "some other campaign's finding".into();
    assert!(
        Campaign {
            workers: 2,
            ..Campaign::default()
        }
        .reduce(&mut mismatched, &options, Some(path.as_path()))
        .is_err(),
        "signature mismatch must be a Foreign error"
    );
    // Resuming the reduction under different options must also be
    // rejected: replayed witnesses were computed under the recorded
    // options, and a mixture would match no uninterrupted run.
    let mut drifted = report.clone();
    assert!(
        Campaign {
            workers: 2,
            ..Campaign::default()
        }
        .reduce(
            &mut drifted,
            &ReductionOptions {
                fuel: options.fuel * 2,
                ..options
            },
            Some(path.as_path()),
        )
        .is_err(),
        "reduction-option drift must be a Foreign error"
    );
    std::fs::remove_file(&path).ok();
}

/// The in-process simulator under a chosen backend id, counting the
/// observations it serves.
struct Counting {
    id: &'static str,
    calls: AtomicUsize,
}

impl Counting {
    fn new(id: &'static str) -> Counting {
        Counting {
            id,
            calls: AtomicUsize::new(0),
        }
    }
}

impl CompilerBackend for Counting {
    fn id(&self) -> &str {
        self.id
    }

    fn config_hash(&self) -> u64 {
        SimccBackend.config_hash()
    }

    fn observe_config(
        &self,
        source: &str,
        cc: Compiler,
        wrong_code_fuel: Option<u64>,
    ) -> Result<Observation, BackendError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        SimccBackend.observe_config(source, cc, wrong_code_fuel)
    }
}

#[test]
fn backend_dispatched_reduction_matches_the_in_process_reduction() {
    let files = seeds::all();
    let config = config();
    let path = journal_path("backend-reduction");
    let backend = Campaign {
        workers: 2,
        oracle: OraclePath::Backend(&SimccBackend),
        ..Campaign::default()
    };
    // Kill the campaign, then resume it to completion, all through the
    // backend.
    let mut status = backend
        .run_journaled(
            &files,
            &config,
            &path,
            &CheckpointOptions {
                every: 8,
                stop_after: Some(40),
            },
            None,
        )
        .expect("checkpointed run")
        .status;
    assert!(status.is_interrupted());
    while status.is_interrupted() {
        status = backend
            .resume(&path, &CheckpointOptions::default())
            .expect("resume")
            .status;
    }
    let report = status.into_report().expect("completed");
    assert_eq!(report, run_campaign(&files, &config));
    assert!(!report.findings.is_empty());
    let options = ReductionOptions {
        fuel: config.fuel,
        ..ReductionOptions::default()
    };
    let mut reference = report.clone();
    reduce_findings(&mut reference, &options, 4);
    // In memory, and really dispatched through the backend.
    let mut in_memory = report.clone();
    backend
        .reduce(&mut in_memory, &options, None)
        .expect("in-memory reduction");
    assert_eq!(in_memory, reference);
    let counting = Counting::new(SimccBackend.id());
    let mut counted = report.clone();
    Campaign {
        oracle: OraclePath::Backend(&counting),
        ..backend
    }
    .reduce(&mut counted, &options, None)
    .expect("in-memory reduction");
    assert_eq!(counted, reference);
    assert!(counting.calls.load(Ordering::Relaxed) > 0);
    // Journaled, then killed mid-reduction (Reduced records dropped off
    // the tail) and resumed on another worker count.
    let mut journaled = report.clone();
    backend
        .reduce(&mut journaled, &options, Some(path.as_path()))
        .expect("journaled reduction");
    assert_eq!(journaled, reference);
    let bytes = std::fs::read(&path).expect("journal bytes");
    std::fs::write(&path, &bytes[..bytes.len() - 100]).expect("truncate");
    let mut resumed = report.clone();
    Campaign {
        workers: 3,
        ..backend
    }
    .reduce(&mut resumed, &options, Some(path.as_path()))
    .expect("resumed reduction");
    assert_eq!(resumed, reference);
    // The journal was recorded under the in-process backend's id: a
    // reduction through another backend must be refused, and the report
    // left untouched.
    let mut refused = report.clone();
    let renamed = Counting::new("renamed-simcc");
    let err = Campaign {
        oracle: OraclePath::Backend(&renamed),
        ..backend
    }
    .reduce(&mut refused, &options, Some(path.as_path()))
    .expect_err("foreign backend");
    assert!(matches!(err, CheckpointError::Foreign(_)), "{err}");
    assert_eq!(refused, report);
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: for random corpora, kill points and
    /// checkpoint cadences, kill → resume(s) → completion reproduces the
    /// uninterrupted serial report byte-for-byte at every worker count.
    #[test]
    fn killed_campaigns_resume_byte_identically(
        seed in 0u64..2_000,
        stop in 1u64..120,
        every in 1u64..24,
        workers_idx in 0usize..4,
        resume_workers_idx in 0usize..4,
    ) {
        let workers = [1usize, 2, 4, 16][workers_idx];
        let resume_workers = [1usize, 2, 4, 16][resume_workers_idx];
        let files = generate(&CorpusConfig { files: 2, seed });
        let config = config();
        let reference = run_campaign(&files, &config);
        let path = journal_path(&format!("prop-{seed}-{stop}-{every}-{workers}-{resume_workers}"));
        let status = Campaign {
            workers,
            ..Campaign::default()
        }
        .run_journaled(
            &files,
            &config,
            &path,
            &CheckpointOptions { every, stop_after: Some(stop) },
            None,
        ).expect("checkpointed run")
        .status;
        let report = match status {
            CampaignStatus::Complete(r) => r,
            CampaignStatus::Interrupted => resume_to_completion(&path, resume_workers, Some(stop)),
        };
        prop_assert_eq!(report, reference);
        std::fs::remove_file(&path).ok();
    }
}
