//! The benchmark's own tests: smoke runs of the binary print every
//! metric `BENCHMARK.json` lists, wrong reports count as failed
//! iterations, and the pinned digests equal the round-trip oracle's.

use spe_harness::{run_campaign_parallel, CampaignReport};
use spebench::{
    expected_for, projection_digest, reference_report, run_end_to_end, setup, Kind, Summary,
    DEFAULT_CORPUS_SEED, WORKERS,
};
use std::process::Command;

/// The metric names of one `BENCHMARK.json` list (`end_to_end` or
/// `per_layer`), in order.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name ends")].to_string())
        .collect()
}

/// Runs the binary in smoke mode; returns its exit status and last line.
fn smoke(workload: &str, trace: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_spebench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.01"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("run spebench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

/// The metric names of a result line, in order.
fn printed_names(line: &str) -> Vec<String> {
    let parts: Vec<&str> = line.split("\": {\"value\"").collect();
    parts[..parts.len() - 1]
        .iter()
        .map(|p| p[p.rfind('"').expect("name starts") + 1..].to_string())
        .collect()
}

#[test]
fn smoke_runs_print_every_listed_metric() {
    for kind in Kind::ALL {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, line) = smoke(kind.name(), trace);
            assert!(ok, "{} --trace {trace} failed: {line}", kind.name());
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0,"), "{line}");
            assert_eq!(
                printed_names(&line),
                listed(section),
                "{} --trace {trace}",
                kind.name()
            );
        }
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let (ok, line) = smoke("no_such_workload", "0");
    assert!(!ok);
    assert!(!line.contains("\"correct\""), "{line}");
}

fn bump_observations(r: &mut CampaignReport) {
    r.variants_tested += 1;
}

fn drop_a_finding(r: &mut CampaignReport) {
    r.findings.pop();
}

fn replace_reproducers(r: &mut CampaignReport) {
    for f in &mut r.findings {
        f.reproducer = "int main() { return 0; }".into();
    }
}

#[test]
fn tampered_reports_count_as_failed_iterations() {
    let w = setup(Kind::CompileOnly, DEFAULT_CORPUS_SEED, 3, true);
    let expected = expected_for(&w, DEFAULT_CORPUS_SEED, true);
    let clean = run_end_to_end(&w, &expected, 0.01, 0.0, None).expect("clean run");
    assert!(clean.tally.correct(), "{:?}", clean.tally);
    assert!(
        clean.findings > 0,
        "the smoke workload must have findings to tamper with"
    );

    let tampers: [fn(&mut CampaignReport); 3] =
        [bump_observations, drop_a_finding, replace_reproducers];
    for tamper in tampers {
        let run = run_end_to_end(&w, &expected, 0.01, 0.0, Some(tamper)).expect("tampered run");
        assert!(run.tally.attempted >= 1);
        assert_eq!(run.tally.failed, run.tally.attempted, "{:?}", run.tally);
        assert!(!run.tally.correct());
        // The wall-time sample keeps every iteration, failed or not.
        assert_eq!(run.wall.n as u64, run.tally.attempted);
    }
}

#[test]
fn report_digest_does_not_depend_on_file_order() {
    for kind in [Kind::CompileOnly, Kind::WrongCode] {
        let digests: Vec<u64> = [0, 1, 99]
            .into_iter()
            .flat_map(|seed| {
                setup(kind, DEFAULT_CORPUS_SEED, seed, true)
                    .orders
                    .into_iter()
            })
            .map(|files| {
                let config = kind.config(true);
                projection_digest(&run_campaign_parallel(&files, &config, WORKERS))
            })
            .collect();
        assert!(
            digests.windows(2).all(|p| p[0] == p[1]),
            "{kind:?}: {digests:x?}"
        );
    }
}

/// The pinned values equal the round-trip oracle's report on the
/// default corpus in generated order: the check every benchmark
/// iteration makes is against the independent witness.
#[test]
fn pinned_digests_equal_the_round_trip_report() {
    for kind in Kind::ALL {
        let w = setup(kind, DEFAULT_CORPUS_SEED, 0, false);
        let reference = reference_report(&w);
        let pinned = kind.pinned();
        assert_eq!(
            projection_digest(&reference),
            pinned.digest,
            "{kind:?}: pinned digest"
        );
        assert_eq!(
            Some(reference.primary_findings().count()),
            pinned.findings,
            "{kind:?}: pinned findings"
        );
    }
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
    assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    let s = Summary::of(&[3.0, 1.0, 2.0]);
    assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
}
