//! Byte-identity of the incremental (splice-don't-reparse) oracle path.
//!
//! The campaign entry points keep the historical round-trip code intact
//! — render → lex → parse → compile for every variant — and run the
//! incremental path next to it, so these tests are a real
//! two-implementation comparison: for every corpus seed and every
//! enumeration algorithm, campaigns through the splice cache
//! (`spe::simcc::incremental`) must be **equal in every field** to the
//! round trip — serial, at 1/2/4/16 workers, in wrong-code and
//! compile-only modes, and through kill/resume checkpoint cycles that
//! *alternate* oracle paths across the kill points (the two strategies
//! share one journal identity, so mixing them must be invisible).

use proptest::prelude::*;
use spe::core::Algorithm;
use spe::corpus::{generate, seeds, CorpusConfig};
use spe::harness::checkpoint::CheckpointOptions;
use spe::harness::{
    run_campaign, run_campaign_parallel_with_path, Campaign, CampaignConfig, OraclePath,
};
use spe::simcc::{Compiler, CompilerId};

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Paper,
    Algorithm::Canonical,
    Algorithm::Orbit,
    Algorithm::Naive,
];

fn campaign_config(algorithm: Algorithm, check_wrong_code: bool) -> CampaignConfig {
    CampaignConfig {
        // Two configurations sharing -O2 so the pipeline memo has
        // something to collapse, plus distinct levels on both sides.
        compilers: vec![
            Compiler::new(CompilerId::gcc(700), 0),
            Compiler::new(CompilerId::gcc(700), 2),
            Compiler::new(CompilerId::clang(390), 2),
            Compiler::new(CompilerId::clang(390), 3),
        ],
        budget: 30,
        algorithm,
        check_wrong_code,
        fuel: 10_000,
    }
}

/// Every corpus seed × every algorithm × both oracle modes: the
/// incremental report equals the round trip, serially and at every
/// worker count. Compile-only mode matters here — it exercises the
/// incremental path's lazy pipeline contract (the pipeline is skipped
/// entirely for variants with no triggered performance defect).
#[test]
fn incremental_matches_round_trip_on_all_seeds_and_algorithms() {
    let files = seeds::all();
    for algorithm in ALGORITHMS {
        for check_wrong_code in [true, false] {
            let config = campaign_config(algorithm, check_wrong_code);
            let round_trip = Campaign {
                oracle: OraclePath::RoundTrip,
                ..Campaign::default()
            }
            .run(&files, &config);
            assert_eq!(
                run_campaign(&files, &config),
                round_trip,
                "serial diverged: {algorithm:?} wrong_code={check_wrong_code}"
            );
            for workers in [1usize, 2, 4, 16] {
                assert_eq!(
                    run_campaign_parallel_with_path(
                        &files,
                        &config,
                        workers,
                        OraclePath::Incremental
                    ),
                    round_trip,
                    "{workers} workers diverged: {algorithm:?} wrong_code={check_wrong_code}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn incremental_campaigns_are_byte_identical_to_round_trip(seed in 0u64..5_000) {
        let files = generate(&CorpusConfig { files: 3, seed });
        for algorithm in ALGORITHMS {
            let config = campaign_config(algorithm, true);
            let round_trip = Campaign {
                oracle: OraclePath::RoundTrip,
                ..Campaign::default()
            }
            .run(&files, &config);
            prop_assert_eq!(
                &run_campaign(&files, &config),
                &round_trip
            );
            for workers in [1usize, 2, 4, 16] {
                prop_assert_eq!(
                    &run_campaign_parallel_with_path(
                        &files,
                        &config,
                        workers,
                        OraclePath::Incremental
                    ),
                    &round_trip
                );
            }
        }
    }
}

/// Kill/resume with the oracle path *alternating* across kill points:
/// a journal written incrementally resumes on the round trip and vice
/// versa, at varying worker counts, and the converged report equals an
/// uninterrupted round-trip run. This is the strongest statement of the
/// splice-identity lemma — replayed frames from one path mix with the
/// other path's recomputed suffix at arbitrary variant boundaries.
#[test]
fn killed_and_resumed_campaign_alternates_oracle_paths() {
    let files = seeds::all();
    let config = campaign_config(Algorithm::Paper, true);
    let reference = Campaign {
        oracle: OraclePath::RoundTrip,
        ..Campaign::default()
    }
    .run(&files, &config);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("oracle-identity");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let journal = dir.join("campaign.journal");

    let mut status = Campaign {
        workers: 4,
        oracle: OraclePath::Incremental,
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
        let path = if cycles % 2 == 0 {
            OraclePath::Incremental
        } else {
            OraclePath::RoundTrip
        };
        status = Campaign {
            workers: 1 + cycles % 3,
            oracle: path,
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
        .status;
    }
    let report = status.into_report().expect("complete");
    assert_eq!(
        report, reference,
        "path-alternating kill/resume diverged from the round trip"
    );
}
