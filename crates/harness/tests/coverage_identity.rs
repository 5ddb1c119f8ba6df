//! Pins the Figure 9 coverage numbers over the Table-3 corpus (the 6
//! paper seeds plus 50 synthetic files, corpus seed 43).
//!
//! The expected values were recorded with the original hash-set
//! `Coverage`; any change to how coverage points are stored or counted
//! must reproduce them exactly (`f64` values compare by their shortest
//! round-trip spelling, i.e. bit for bit).

use spe_core::{Algorithm, Enumerator, EnumeratorConfig, Granularity, Skeleton};
use spe_corpus::{generate, seeds, CorpusConfig, TestFile};
use spe_harness::coverage_run::{figure9, CoveragePoint};
use spe_simcc::coverage::Coverage;
use std::ops::ControlFlow;

const OPTS: [u8; 2] = [0, 3];
const BUDGET: usize = 20;

fn table3_corpus() -> Vec<TestFile> {
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig {
        files: 50,
        seed: 43,
    }));
    files
}

fn probe(cov: &mut Coverage, src: &str) {
    if let Ok(p) = spe_minic::parse(src) {
        for opt in OPTS {
            cov.merge(&spe_simcc::coverage_probe(&p, opt));
        }
    }
}

fn summary(c: &Coverage) -> String {
    format!(
        "points={} function={} line={}",
        c.points_hit(),
        c.function_coverage(),
        c.line_coverage()
    )
}

fn point(p: &CoveragePoint) -> String {
    format!("function={} line={}", p.function, p.line)
}

#[test]
fn table3_coverage_is_pinned() {
    let files = table3_corpus();

    // The raw merged maps behind Figure 9's baseline and SPE bars.
    let mut baseline = Coverage::new();
    for f in &files {
        probe(&mut baseline, &f.source);
    }
    let mut spe = baseline.clone();
    let mut buf = String::new();
    for f in &files {
        let Ok(sk) = Skeleton::from_source(&f.source) else {
            continue;
        };
        let e = Enumerator::new(EnumeratorConfig {
            algorithm: Algorithm::Paper,
            granularity: Granularity::Intra,
            budget: BUDGET,
        });
        e.enumerate(&sk, &mut |v| {
            v.render_into(&sk, &mut buf);
            probe(&mut spe, &buf);
            ControlFlow::Continue(())
        });
    }
    assert_eq!(
        summary(&baseline),
        "points=204 function=0.9166666666666666 line=0.04779756326148079"
    );
    assert_eq!(
        summary(&spe),
        "points=307 function=0.9166666666666666 line=0.07193064667291471"
    );

    let fig = figure9(&files, BUDGET, &[10], 7);
    assert_eq!(
        point(&fig.baseline),
        "function=91.66666666666666 line=4.779756326148079"
    );
    assert_eq!(point(&fig.spe), "function=0 line=2.4133083411433924");
    assert_eq!(fig.pm.len(), 1);
    assert_eq!(point(&fig.pm[0].1), "function=0 line=0");
}
