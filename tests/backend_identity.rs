//! Byte-identity of the pluggable-backend oracle path.
//!
//! The campaign entry points keep the historical direct in-process code
//! intact and add trait dispatch next to it, so these tests are a real
//! two-implementation comparison: for random corpora, campaigns driven
//! through the trait-dispatched in-process backend
//! (`spe::simcc::backend::SimccBackend`) must be **equal in every
//! field** to the direct path — serial, at 1/2/4/16 workers, and
//! through a kill/resume checkpoint cycle. A final test pins the
//! journal's backend identity gate: resuming under a different backend
//! id or configuration hash is refused, never silently mixed.

use proptest::prelude::*;
use spe::core::Algorithm;
use spe::corpus::{generate, seeds, CorpusConfig};
use spe::harness::checkpoint::{CheckpointError, CheckpointOptions};
use spe::harness::{
    run_campaign, run_campaign_parallel, run_campaign_parallel_with_path, Campaign, CampaignConfig,
    OraclePath,
};
use spe::simcc::backend::{BackendError, CompilerBackend, SimccBackend};
use spe::simcc::{Compiler, CompilerId, Observation};

fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(700), 0),
            Compiler::new(CompilerId::gcc(700), 2),
            Compiler::new(CompilerId::clang(390), 3),
        ],
        budget: 30,
        algorithm: Algorithm::Paper,
        check_wrong_code: true,
        fuel: 10_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn backend_campaigns_are_byte_identical_to_direct(seed in 0u64..5_000) {
        let files = generate(&CorpusConfig { files: 3, seed });
        let config = campaign_config();
        let direct = run_campaign(&files, &config);
        let backend = Campaign {
            oracle: OraclePath::Backend(&SimccBackend),
            ..Campaign::default()
        };
        prop_assert_eq!(&backend.run(&files, &config), &direct);
        for workers in [1usize, 2, 4, 16] {
            prop_assert_eq!(&run_campaign_parallel(&files, &config, workers), &direct);
            prop_assert_eq!(
                &run_campaign_parallel_with_path(
                    &files,
                    &config,
                    workers,
                    OraclePath::Backend(&SimccBackend)
                ),
                &direct
            );
        }
    }
}

#[test]
fn killed_and_resumed_backend_campaign_matches_uninterrupted_direct() {
    let files = seeds::all();
    let config = campaign_config();
    let direct = run_campaign(&files, &config);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("backend-identity");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let journal = dir.join("campaign.journal");

    // Kill between checkpoints, then resume repeatedly until complete.
    let mut status = Campaign {
        workers: 4,
        oracle: OraclePath::Backend(&SimccBackend),
        ..Campaign::default()
    }
    .run_journaled(
        &files,
        &config,
        &journal,
        &CheckpointOptions {
            every: 16,
            stop_after: Some(40),
        },
        None,
    )
    .expect("checkpointed run")
    .status;
    assert!(status.is_interrupted(), "stop_after should have fired");
    let mut cycles = 0;
    while status.is_interrupted() {
        cycles += 1;
        assert!(cycles < 100, "resume never converged");
        // Alternate worker counts across resumes; the report must not
        // care. The in-process backend records the same manifest
        // identity as the direct path, so the plain resume is equally
        // valid — prove it by alternating entry points too.
        status = if cycles % 2 == 0 {
            Campaign {
                workers: 1 + cycles % 3,
                ..Campaign::default()
            }
            .resume(
                &journal,
                &CheckpointOptions {
                    every: 16,
                    stop_after: Some(60),
                },
            )
            .expect("resume")
            .status
        } else {
            Campaign {
                workers: 1 + cycles % 3,
                oracle: OraclePath::Backend(&SimccBackend),
                ..Campaign::default()
            }
            .resume(
                &journal,
                &CheckpointOptions {
                    every: 16,
                    stop_after: Some(60),
                },
            )
            .expect("resume")
            .status
        };
    }
    let report = status.into_report().expect("complete");
    assert_eq!(report, direct, "kill/resume cycle diverged from direct");
}

/// A backend with a foreign identity but working observations — enough
/// to write a resumable journal that no other backend may pick up.
struct Dummy(u64);

impl CompilerBackend for Dummy {
    fn id(&self) -> &str {
        "dummy"
    }

    fn config_hash(&self) -> u64 {
        self.0
    }

    fn observe_config(
        &self,
        source: &str,
        cc: Compiler,
        wrong_code_fuel: Option<u64>,
    ) -> Result<Observation, BackendError> {
        SimccBackend.observe_config(source, cc, wrong_code_fuel)
    }
}

#[test]
fn resume_refuses_a_mismatched_backend() {
    let files = seeds::all();
    let config = campaign_config();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("backend-mismatch");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let journal = dir.join("campaign.journal");
    let options = CheckpointOptions {
        every: 16,
        stop_after: Some(40),
    };
    let status = Campaign {
        workers: 2,
        oracle: OraclePath::Backend(&Dummy(42)),
        ..Campaign::default()
    }
    .run_journaled(&files, &config, &journal, &options, None)
    .expect("checkpointed run")
    .status;
    assert!(status.is_interrupted());

    // Wrong backend id: the in-process default must refuse.
    let err = Campaign {
        workers: 2,
        ..Campaign::default()
    }
    .resume(&journal, &options)
    .expect_err("id mismatch");
    assert!(matches!(err, CheckpointError::Foreign(_)));
    let message = err.to_string();
    assert!(
        message.contains("dummy") && message.contains("simcc"),
        "refusal names both backends: {message}"
    );

    // Right id, wrong configuration hash: also refused.
    let err = Campaign {
        workers: 2,
        oracle: OraclePath::Backend(&Dummy(7)),
        ..Campaign::default()
    }
    .resume(&journal, &options)
    .expect_err("hash mismatch");
    assert!(err.to_string().contains("config hash"), "{err}");

    // The matching backend resumes and completes.
    let dummy = Campaign {
        workers: 2,
        oracle: OraclePath::Backend(&Dummy(42)),
        ..Campaign::default()
    };
    let mut status = dummy
        .resume(
            &journal,
            &CheckpointOptions {
                every: 16,
                stop_after: None,
            },
        )
        .expect("matching backend resumes")
        .status;
    while status.is_interrupted() {
        status = dummy
            .resume(
                &journal,
                &CheckpointOptions {
                    every: 16,
                    stop_after: None,
                },
            )
            .expect("resume")
            .status;
    }
    assert_eq!(
        status.into_report().expect("complete"),
        run_campaign(&files, &config),
        "dummy-backend campaign is still the in-process campaign"
    );
}
