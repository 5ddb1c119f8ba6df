//! The traced run: per-layer numbers from the benchmark's own timers
//! around calls into each layer's public functions.
//!
//! The campaign layers are timed on a serial replay of
//! `spe_harness::run_campaign`'s per-file path (skeleton extraction,
//! space preparation, enumeration, render, splice oracle), built from
//! public calls only; the harness's own candidate recording, dedup and
//! orchestration are the residual `harness.record_ms`. The oracle's
//! internals are split on the round-trip path (parse, fact scan,
//! optimize, lower, interpreter, VM), because the incremental path's
//! are not public.

use crate::{
    check_report, full_digest, mix, run_fleet, Expected, Kind, Metric, Summary, Tally, Workload,
    WORKERS,
};
use spe_core::{EnumeratorConfig, Granularity, ShardedEnumerator, Skeleton};
use spe_corpus::{generate, seeds, CorpusConfig};
use spe_harness::{run_campaign, run_campaign_parallel, CampaignConfig, CampaignReport};
use spe_simcc::bugs::{scan_facts, BugKind, BugSpec};
use spe_simcc::coverage::Coverage;
use spe_simcc::incremental::CachedOracle;
use spe_simcc::passes::{optimize, PassCtx};
use spe_simcc::{divergence_from_image, interp, reference_limits, vm};
use spe_telemetry::{names, Recorder};
use std::hint::black_box;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// At most about this many variants go through the round-trip split;
/// larger workloads are split on a hashed one-in-`stride` sample and
/// scaled.
const SPLIT_VARIANTS: u64 = 25_000;
/// The replay times render and oracle on one variant in this many.
const SAMPLE_EVERY: u64 = 8;

/// Layer times of one serial replay, in milliseconds. Render and
/// oracle are timed on a hashed one-in-[`SAMPLE_EVERY`] sample of the
/// variants and scaled to the file's variant count (a clock read costs
/// as much as a cheap variant's oracle call; a hash, unlike a stride,
/// does not line up with the odometer's carries). Each file's first
/// variant, which builds the oracle session, is timed exactly.
/// Enumeration is timed exactly, on a pass whose callback does nothing.
#[derive(Debug, Default)]
struct Replay {
    wall: f64,
    extract: f64,
    prepare: f64,
    /// `enumerate_shard_prepared` with a callback that does nothing.
    enumerate: f64,
    render: f64,
    /// The session's first parse, `CachedOracle::new` and every
    /// `observe_variant`.
    oracle: f64,
    /// Latency of the sampled oracle calls, nanoseconds.
    oracle_ns: Vec<u64>,
    /// Per-file sum of the layers above, in corpus order.
    file_ms: Vec<f64>,
    variants: u64,
    splice_delta: u64,
    splice_full: u64,
    memo_hits: u64,
    memo_misses: u64,
}

impl Replay {
    fn layer_sum(&self) -> f64 {
        self.extract + self.prepare + self.enumerate + self.render + self.oracle
    }
}

fn enumerator(config: &CampaignConfig) -> ShardedEnumerator {
    ShardedEnumerator::new(
        EnumeratorConfig {
            algorithm: config.algorithm,
            granularity: Granularity::Intra,
            budget: config.budget,
        },
        1,
    )
}

/// Milliseconds since `t`, when timing.
fn lap(t: Option<Instant>) -> f64 {
    t.map_or(0.0, |t| ms(t.elapsed()))
}

/// Replays the serial campaign's per-file path. With `TIMED` false no
/// clock is read inside the file loop, which prices the timers.
fn replay<const TIMED: bool>(w: &Workload) -> Replay {
    let now = || TIMED.then(Instant::now);
    let config = &w.config;
    let wrong_code_fuel = config.check_wrong_code.then_some(config.fuel);
    let mut r = Replay::default();
    let mut buf = String::new();
    let start = Instant::now();
    for file in &w.orders[0] {
        let t = now();
        let Ok(sk) = Skeleton::from_source(&file.source) else {
            continue;
        };
        let extract = lap(t);
        let en = enumerator(config);
        let t = now();
        let space = en.prepare(&sk);
        let prepare = lap(t);
        let t = now();
        en.enumerate_shard_prepared(&space, 0, &mut |v| {
            black_box(v);
            ControlFlow::Continue(())
        });
        let enumerate = lap(t);

        let occs: Vec<_> = sk.hole_occs().collect();
        let table = sk.names();
        let mut cache: Option<CachedOracle> = None;
        let mut prev = Vec::new();
        let mut changed = Vec::new();
        let mut spellings: Vec<&str> = Vec::new();
        // (render, oracle) of the first variant, of the other sampled
        // ones, and how many variants were seen and sampled.
        let mut first = (Duration::ZERO, Duration::ZERO);
        let mut sampled = (Duration::ZERO, Duration::ZERO);
        let (mut seen, mut samples) = (0u64, 0u64);
        en.enumerate_shard_prepared(&space, 0, &mut |variant| {
            let sample = seen == 0 || mix(variant.index).is_multiple_of(SAMPLE_EVERY);
            let t0 = (TIMED && sample).then(Instant::now);
            variant.render_into(&sk, &mut buf);
            let t1 = t0.map(|_| Instant::now());
            if seen == 0 {
                cache = spe_minic::parse(&buf).ok().and_then(|prog| {
                    CachedOracle::new(
                        prog,
                        &occs,
                        &config.compilers,
                        config.check_wrong_code,
                        config.fuel,
                    )
                });
            }
            match cache.as_mut() {
                Some(cache) => {
                    spellings.clear();
                    spellings.extend(variant.names.iter().map(|&id| table.name(id)));
                    variant.changed_holes_into(&prev, &mut changed);
                    prev.clone_from(&variant.names);
                    black_box(cache.observe_variant(&spellings, Some(&changed)));
                }
                // The harness's round-trip fallback for a job whose
                // first variant does not map onto a cached AST.
                None => {
                    if let Ok(prog) = spe_minic::parse(&buf) {
                        for cc in &config.compilers {
                            black_box(cc.observe(&prog, wrong_code_fuel));
                        }
                    }
                }
            }
            if let (Some(t0), Some(t1)) = (t0, t1) {
                let t2 = Instant::now();
                let times = if seen == 0 { &mut first } else { &mut sampled };
                times.0 += t1 - t0;
                times.1 += t2 - t1;
                samples += u64::from(seen > 0);
                r.oracle_ns
                    .push(u64::try_from((t2 - t1).as_nanos()).unwrap_or(u64::MAX));
            }
            seen += 1;
            ControlFlow::Continue(())
        });
        if TIMED {
            let scale = if samples > 0 {
                (seen - 1) as f64 / samples as f64
            } else {
                0.0
            };
            let render = ms(first.0) + ms(sampled.0) * scale;
            let oracle = ms(first.1) + ms(sampled.1) * scale;
            r.extract += extract;
            r.prepare += prepare;
            r.enumerate += enumerate;
            r.render += render;
            r.oracle += oracle;
            r.file_ms
                .push(extract + prepare + enumerate + render + oracle);
        }
        r.variants += seen;
        if let Some(stats) = cache.map(|c| c.stats()) {
            r.splice_delta += stats.splice_delta;
            r.splice_full += stats.splice_full;
            r.memo_hits += stats.pipeline_memo_hits;
            r.memo_misses += stats.pipeline_memo_misses;
        }
    }
    r.wall = ms(start.elapsed());
    r
}

/// Round-trip oracle split over a hashed one-in-`stride` sample of the
/// variants, scaled to all of them.
#[derive(Debug, Default)]
struct Split {
    parse: Duration,
    facts: Duration,
    optimize: Duration,
    lower: Duration,
    interp: Duration,
    vm: Duration,
    ice: u64,
    unsupported: u64,
    ub_skipped: u64,
}

fn round_trip_split(w: &Workload, stride: u64) -> Split {
    let config = &w.config;
    let mut s = Split::default();
    let mut buf = String::new();
    let (mut seen, mut sampled) = (0u64, 0u64);
    for file in &w.orders[0] {
        let Ok(sk) = Skeleton::from_source(&file.source) else {
            continue;
        };
        let en = enumerator(config);
        let space = en.prepare(&sk);
        en.enumerate_shard_prepared(&space, 0, &mut |variant| {
            seen += 1;
            if !mix(variant.index).is_multiple_of(stride) {
                return ControlFlow::Continue(());
            }
            sampled += 1;
            variant.render_into(&sk, &mut buf);
            let t = Instant::now();
            let parsed = spe_minic::parse(&buf);
            s.parse += t.elapsed();
            if let Ok(prog) = parsed {
                split_variant(&prog, config, &mut s);
            }
            ControlFlow::Continue(())
        });
    }
    if sampled < seen {
        let scale = seen as f64 / sampled.max(1) as f64;
        for d in [
            &mut s.parse,
            &mut s.facts,
            &mut s.optimize,
            &mut s.lower,
            &mut s.interp,
            &mut s.vm,
        ] {
            *d = d.mul_f64(scale);
        }
        for c in [&mut s.ice, &mut s.unsupported, &mut s.ub_skipped] {
            *c = (*c as f64 * scale).round() as u64;
        }
    }
    s
}

/// `Compiler::compile` and the differential check, stage by stage, for
/// every configuration.
fn split_variant(prog: &spe_minic::Program, config: &CampaignConfig, s: &mut Split) {
    let mut reference: Option<Result<interp::Execution, interp::Ub>> = None;
    for cc in &config.compilers {
        let t = Instant::now();
        let live = cc.live_bugs();
        let facts = scan_facts(prog);
        let triggered: Vec<&BugSpec> = live.iter().filter(|b| facts.matches(b.trigger)).collect();
        s.facts += t.elapsed();
        if triggered
            .iter()
            .any(|b| matches!(b.kind, BugKind::Crash(_)))
        {
            s.ice += 1;
            continue;
        }
        let mut coverage = Coverage::new();
        let mut ctx = PassCtx {
            opt: cc.opt(),
            wrong_code: triggered
                .into_iter()
                .filter(|b| matches!(b.kind, BugKind::WrongCode))
                .collect(),
            coverage: &mut coverage,
            miscompiled_by: Vec::new(),
        };
        let t = Instant::now();
        let optimized = optimize(prog, &mut ctx);
        s.optimize += t.elapsed();
        let t = Instant::now();
        let lowered = vm::lower(&optimized);
        s.lower += t.elapsed();
        let Ok(image) = lowered else {
            s.unsupported += 1;
            continue;
        };
        if !config.check_wrong_code {
            continue;
        }
        if reference.is_none() {
            let t = Instant::now();
            reference = Some(interp::run(prog, reference_limits(config.fuel)));
            s.interp += t.elapsed();
        }
        match reference.as_ref() {
            Some(Ok(expected)) => {
                let t = Instant::now();
                black_box(divergence_from_image(&image, expected, config.fuel));
                s.vm += t.elapsed();
            }
            _ => s.ub_skipped += 1,
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A serial campaign and its wall time.
fn timed_campaign(w: &Workload) -> (f64, CampaignReport) {
    let start = Instant::now();
    let report = run_campaign(&w.orders[0], &w.config);
    (ms(start.elapsed()), report)
}

/// One round of the traced run: each measurement taken once, close in
/// time to the others it is divided by.
struct Round {
    serial: f64,
    layers: Replay,
    untimed: f64,
    recorded: f64,
    parallel: f64,
    candidates: u64,
    /// The serial report's UB skips and primary findings.
    report_counts: (u64, usize),
    fleet: FleetRound,
}

#[derive(Default)]
struct FleetRound {
    hosts: f64,
    /// The hosts' time minus the same jobs' 2-worker campaign without a
    /// journal.
    journal_overhead: f64,
    journal_mib: f64,
    merge: f64,
    reduce: f64,
    shrink: f64,
}

/// Runs rounds of the traced measurements of `w` until `seconds` have
/// passed (at least one), then the round-trip split once; every metric
/// is the median over the rounds. The serial and fleet reports are
/// checked as in the end-to-end run; the recorded and 2-worker reports
/// must equal the serial one byte for byte.
pub fn run_traced(
    w: &Workload,
    expected: &Expected,
    corpus_seed: u64,
    seconds: f64,
) -> Result<(Vec<Metric>, Tally), String> {
    let corpus_ms = corpus_generate_ms(corpus_seed);
    let mut tally = Tally::default();
    let mut first_full = None;
    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        rounds.push(round(w, expected, &mut tally, &mut first_full)?);
    }
    let last = &rounds[rounds.len() - 1].layers;
    let stride = last.variants.div_ceil(SPLIT_VARIANTS).max(1);
    let split = round_trip_split(w, stride);
    let (ub_skipped, primary) = rounds[0].report_counts;
    if stride == 1 && w.config.check_wrong_code {
        tally.record(if split.ub_skipped == ub_skipped {
            Ok(())
        } else {
            Err(format!(
                "round-trip split skipped {} UB observations, the campaign {ub_skipped}",
                split.ub_skipped
            ))
        });
    }

    let med =
        |f: &dyn Fn(&Round) -> f64| Summary::of(&rounds.iter().map(f).collect::<Vec<_>>()).median;
    let oracle_ns: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.layers.oracle_ns.iter().copied())
        .collect();
    let oracle_us = |q| percentile(&oracle_ns, q) as f64 / 1e3;
    let mut file_ms: Vec<f64> = (0..last.file_ms.len())
        .map(|i| med(&|r| r.layers.file_ms[i]))
        .collect();
    file_ms.sort_by(|a, b| b.total_cmp(a));
    let file_total: f64 = file_ms.iter().sum();
    let files = Summary::of(&file_ms);
    let metrics = vec![
        Metric::new("corpus.generate_ms", corpus_ms, "ms"),
        Metric::new("skeleton.extract_ms", med(&|r| r.layers.extract), "ms"),
        Metric::new("core.prepare_ms", med(&|r| r.layers.prepare), "ms"),
        Metric::new("core.variants", last.variants as f64, "count"),
        Metric::new("core.enumerate_ms", med(&|r| r.layers.enumerate), "ms"),
        Metric::new("skeleton.render_ms", med(&|r| r.layers.render), "ms"),
        Metric::new("simcc.oracle_ms", med(&|r| r.layers.oracle), "ms"),
        Metric::new("simcc.oracle_us.p50", oracle_us(0.5), "us"),
        Metric::new("simcc.oracle_us.p99", oracle_us(0.99), "us"),
        Metric::new(
            "simcc.splice_hit_ratio",
            ratio(
                last.splice_delta as f64,
                (last.splice_delta + last.splice_full) as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "simcc.pipeline_memo_hit_ratio",
            ratio(
                last.memo_hits as f64,
                (last.memo_hits + last.memo_misses) as f64,
            ),
            "ratio",
        ),
        Metric::new("trace.rt_stride", stride as f64, "count"),
        Metric::new("minic.parse_ms", ms(split.parse), "ms"),
        Metric::new("simcc.facts_ms", ms(split.facts), "ms"),
        Metric::new("simcc.optimize_ms", ms(split.optimize), "ms"),
        Metric::new("simcc.lower_ms", ms(split.lower), "ms"),
        Metric::new("simcc.interp_ms", ms(split.interp), "ms"),
        Metric::new("simcc.vm_ms", ms(split.vm), "ms"),
        Metric::new("simcc.ice", split.ice as f64, "count"),
        Metric::new("simcc.unsupported", split.unsupported as f64, "count"),
        Metric::new("simcc.ub_skipped", split.ub_skipped as f64, "count"),
        Metric::new(
            "harness.record_ms",
            med(&|r| r.serial - r.layers.layer_sum()),
            "ms",
        ),
        Metric::new("harness.candidates", rounds[0].candidates as f64, "count"),
        Metric::new(
            "harness.dedup_ratio",
            ratio(primary as f64, rounds[0].candidates as f64),
            "ratio",
        ),
        Metric::new(
            "harness.parallel_speedup",
            med(&|r| ratio(r.serial, r.parallel)),
            "ratio",
        ),
        Metric::new("harness.file_ms.p50", files.median, "ms"),
        Metric::new(
            "harness.file_ms.max",
            file_ms.first().copied().unwrap_or(0.0),
            "ms",
        ),
        Metric::new(
            "harness.top2_file_share",
            ratio(file_ms.iter().take(2).sum(), file_total),
            "ratio",
        ),
        Metric::new("persist.host_ms", med(&|r| r.fleet.hosts), "ms"),
        Metric::new(
            "persist.journal_overhead_ms",
            med(&|r| r.fleet.journal_overhead),
            "ms",
        ),
        Metric::new("persist.journal_mib", med(&|r| r.fleet.journal_mib), "MiB"),
        Metric::new("fleet.merge_ms", med(&|r| r.fleet.merge), "ms"),
        Metric::new("reduce.reduce_ms", med(&|r| r.fleet.reduce), "ms"),
        Metric::new("reduce.shrink_ratio", med(&|r| r.fleet.shrink), "ratio"),
        Metric::new(
            "telemetry.recorder_overhead_ratio",
            med(&|r| ratio(r.recorded, r.serial)),
            "ratio",
        ),
        Metric::new(
            "trace.coverage",
            med(&|r| ratio(r.layers.layer_sum(), r.serial)),
            "ratio",
        ),
        Metric::new(
            "trace.overhead_ms",
            med(&|r| r.layers.wall - r.untimed),
            "ms",
        ),
        Metric::new("trace.rounds", rounds.len() as f64, "count"),
    ];
    Ok((metrics, tally))
}

/// One [`Round`], its reports checked into `tally`.
fn round(
    w: &Workload,
    expected: &Expected,
    tally: &mut Tally,
    first_full: &mut Option<u64>,
) -> Result<Round, String> {
    let files = &w.orders[0];
    let (serial, report) = timed_campaign(w);
    tally.record(check_report(w, expected, &report, first_full));
    let serial_full = full_digest(&report);
    let same = |what: &str, r: &CampaignReport| {
        if full_digest(r) == serial_full {
            Ok(())
        } else {
            Err(format!("{what} report differs from the serial report"))
        }
    };

    let layers = replay::<true>(w);
    let untimed = replay::<false>(w).wall;
    let observations = layers.variants * w.config.compilers.len() as u64;
    tally.record(if observations == report.variants_tested {
        Ok(())
    } else {
        Err(format!(
            "replay made {observations} observations, the campaign {}",
            report.variants_tested
        ))
    });

    let recorder = Arc::new(Recorder::new());
    let prev = spe_telemetry::install_recorder(recorder.clone(), Vec::new());
    let (recorded, recorded_report) = timed_campaign(w);
    spe_telemetry::uninstall_recorder(prev);
    tally.record(same("recorded", &recorded_report));

    let start = Instant::now();
    let parallel_report = run_campaign_parallel(files, &w.config, WORKERS);
    let parallel = ms(start.elapsed());
    tally.record(same("parallel", &parallel_report));

    let mut fleet = FleetRound::default();
    if w.kind == Kind::JournaledFleet {
        let (merged, times) = run_fleet(w, files)?;
        tally.record(check_report(w, expected, &merged, &mut None));
        fleet = FleetRound {
            hosts: ms(times.hosts),
            journal_overhead: ms(times.hosts) - parallel,
            journal_mib: times.journal_bytes as f64 / (1024.0 * 1024.0),
            merge: ms(times.merge),
            reduce: ms(times.reduce),
            shrink: merged.mean_shrink_ratio().unwrap_or(0.0),
        };
    }
    Ok(Round {
        serial,
        layers,
        untimed,
        recorded,
        parallel,
        candidates: recorder.counter_value(names::CANDIDATES),
        report_counts: (
            report.variants_ub_skipped,
            report.primary_findings().count(),
        ),
        fleet,
    })
}

/// Median time of `spe_corpus::generate` plus the paper seeds.
fn corpus_generate_ms(corpus_seed: u64) -> f64 {
    let times: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            let mut files = seeds::all();
            files.extend(generate(&CorpusConfig {
                files: crate::SYNTHETIC_FILES,
                seed: corpus_seed,
            }));
            black_box(files);
            ms(start.elapsed())
        })
        .collect();
    Summary::of(&times).median
}

/// The `q` quantile of `values` (nearest rank).
fn percentile(values: &[u64], q: f64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    match v.len() {
        0 => 0,
        n => v[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}
