//! Property-based tests for the framework-level invariants.

use freedom::fleet::{
    AdmissionPolicy, BrownoutConfig, FaultPlan, FleetConfig, FleetReport, FleetSimulator,
    FunctionPlan, PlacementStrategy, RetryPolicy, SupplyProcess, Trace, TraceSource, ZoneConfig,
};
use freedom::interfaces::hierarchical_ideal;
use freedom::market::MarketConfig;
use freedom::provider::{alternative_families_within, PlannedPlacement};
use freedom::strategies::AllocationStrategy;
use freedom::stream::StreamTrace;
use freedom_faas::{collect_ground_truth, PerfTable};
use freedom_optimizer::{Objective, SearchSpace};
use freedom_workloads::FunctionKind;
use proptest::prelude::*;

fn any_kind() -> impl Strategy<Value = FunctionKind> {
    prop::sample::select(FunctionKind::ALL.to_vec())
}

fn table_for(kind: FunctionKind, seed: u64) -> PerfTable {
    collect_ground_truth(
        kind,
        &kind.default_input(),
        SearchSpace::table1().configs(),
        1,
        seed,
    )
    .expect("sweep succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn strategy_spaces_nest_inside_decoupled(_x in 0u8..1) {
        let decoupled = AllocationStrategy::Decoupled.search_space();
        for strategy in [
            AllocationStrategy::FixedCpu,
            AllocationStrategy::PropCpu,
            AllocationStrategy::DecoupledM5,
        ] {
            for config in strategy.search_space().configs() {
                prop_assert!(decoupled.contains(config), "{strategy}: {config}");
            }
        }
    }

    #[test]
    fn alternative_counts_are_monotone_in_theta(
        kind in any_kind(),
        seed in 0u64..50,
        lo_pct in 1u32..15,
        delta_pct in 1u32..20,
    ) {
        let table = table_for(kind, seed);
        let lo = lo_pct as f64 / 100.0;
        let hi = lo + delta_pct as f64 / 100.0;
        for objective in [Objective::ExecutionTime, Objective::ExecutionCost] {
            let at_lo = alternative_families_within(&table, objective, lo).unwrap();
            let at_hi = alternative_families_within(&table, objective, hi).unwrap();
            prop_assert!(at_lo <= at_hi, "{kind}/{objective}: {at_lo} > {at_hi}");
            prop_assert!(at_hi <= 5);
        }
    }

    #[test]
    fn hierarchical_ideal_respects_any_budget(
        kind in any_kind(),
        seed in 0u64..50,
        theta_pct in 0u32..100,
    ) {
        let table = table_for(kind, seed);
        let theta = theta_pct as f64 / 100.0;
        for primary in [Objective::ExecutionTime, Objective::ExecutionCost] {
            let Some(ideal) = hierarchical_ideal(&table, primary, theta) else {
                // Only possible when nothing is feasible; our tables always
                // have feasible points.
                prop_assert!(false, "no ideal for {kind}");
                return Ok(());
            };
            let (best_primary, ideal_primary, best_secondary, ideal_secondary) = match primary {
                Objective::ExecutionTime => (
                    table.best_by_time().unwrap().exec_time_secs,
                    ideal.predicted_time_secs,
                    table.best_by_time().unwrap().exec_cost_usd,
                    ideal.predicted_cost_usd,
                ),
                _ => (
                    table.best_by_cost().unwrap().exec_cost_usd,
                    ideal.predicted_cost_usd,
                    table.best_by_cost().unwrap().exec_time_secs,
                    ideal.predicted_time_secs,
                ),
            };
            // Budget respected...
            prop_assert!(ideal_primary <= best_primary * (1.0 + theta) + 1e-12);
            // ...and the trade never worsens the secondary vs the
            // primary-optimal configuration.
            prop_assert!(ideal_secondary <= best_secondary + 1e-12);
        }
    }

    #[test]
    fn bigger_budgets_never_hurt_the_ideal_secondary(
        kind in any_kind(),
        seed in 0u64..50,
        theta_pct in 0u32..50,
    ) {
        let table = table_for(kind, seed);
        let lo = theta_pct as f64 / 100.0;
        let hi = lo + 0.25;
        let a = hierarchical_ideal(&table, Objective::ExecutionTime, lo).unwrap();
        let b = hierarchical_ideal(&table, Objective::ExecutionTime, hi).unwrap();
        prop_assert!(b.predicted_cost_usd <= a.predicted_cost_usd + 1e-15);
    }
}

/// Checks one generated trace: sorted events, all inside the window,
/// thread-count-independent, and the merged view exactly equal to a
/// stable sort of the flattened per-function streams.
fn check_trace_source(
    source: TraceSource,
    n: usize,
    duration: f64,
    seed: u64,
) -> Result<(), proptest::TestCaseError> {
    let a = source
        .generate(n, duration, seed)
        .expect("valid parameters");
    let b = source
        .generate_sharded(n, duration, seed, 8)
        .expect("valid parameters");
    prop_assert_eq!(a.events(), b.events(), "threads=1 vs threads=8 diverged");
    prop_assert_eq!(a.n_functions(), n);
    for w in a.events().windows(2) {
        prop_assert!(
            w[0].at_secs < w[1].at_secs
                || (w[0].at_secs == w[1].at_secs && w[0].function <= w[1].function),
            "merge is unsorted or unstable"
        );
    }
    prop_assert!(a
        .events()
        .iter()
        .all(|e| e.at_secs > 0.0 && e.at_secs < duration));
    // The merged view must be exactly the stable sort of the streams.
    let mut naive: Vec<(f64, usize)> = (0..n)
        .flat_map(|f| a.stream(f).iter().map(move |&t| (t, f)))
        .collect();
    naive.sort_by(|p, q| p.0.total_cmp(&q.0).then(p.1.cmp(&q.1)));
    prop_assert_eq!(naive.len(), a.len());
    for (e, (t, f)) in a.events().iter().zip(&naive) {
        prop_assert_eq!(e.at_secs.to_bits(), t.to_bits());
        prop_assert_eq!(e.function, *f);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn poisson_merge_is_sorted_stable_and_thread_independent(
        rate in 0.1f64..3.0,
        duration in 10.0f64..120.0,
        seed in 0u64..1_000_000,
    ) {
        check_trace_source(
            TraceSource::Poisson { rps_per_function: rate },
            6,
            duration,
            seed,
        )?;
        // The compat constructor goes through the same streaming merge.
        let compat = Trace::poisson(duration, rate, seed).expect("valid parameters");
        let direct = TraceSource::Poisson { rps_per_function: rate }
            .generate(6, duration, seed)
            .expect("valid parameters");
        prop_assert_eq!(compat.events(), direct.events());
    }

    #[test]
    fn bursty_merge_is_sorted_stable_and_thread_independent(
        calm in 0.0f64..0.5,
        burst in 1.0f64..6.0,
        seed in 0u64..1_000_000,
    ) {
        check_trace_source(
            TraceSource::Bursty {
                calm_rps: calm,
                burst_rps: burst,
                mean_calm_secs: 30.0,
                mean_burst_secs: 6.0,
            },
            5,
            90.0,
            seed,
        )?;
    }

    #[test]
    fn diurnal_merge_is_sorted_stable_and_thread_independent(
        mean in 0.2f64..2.0,
        ratio in 1.0f64..8.0,
        seed in 0u64..1_000_000,
    ) {
        check_trace_source(
            TraceSource::Diurnal {
                mean_rps: mean,
                peak_to_trough: ratio,
                period_secs: 120.0,
            },
            5,
            120.0,
            seed,
        )?;
    }

    #[test]
    fn heavy_tail_merge_is_sorted_stable_and_thread_independent(
        mean in 0.2f64..2.0,
        alpha in 1.1f64..3.0,
        seed in 0u64..1_000_000,
    ) {
        check_trace_source(
            TraceSource::HeavyTail { mean_rps: mean, alpha },
            8,
            90.0,
            seed,
        )?;
    }
}

/// Integer nanoseconds of an arrival, mirroring the fleet engine's
/// ordering key.
fn nanos(at_secs: f64) -> u64 {
    (at_secs * 1e9) as u64
}

/// The streaming pipeline's ground truth: a lazily-opened stream must
/// yield exactly the materialized trace's events (same bits, same
/// order), and a checkpoint taken at every epoch boundary — what the
/// resumable replay snapshots — must reopen onto exactly the slice of
/// the merged view whose arrivals fall in that epoch.
fn check_stream_matches_materialized(
    lazy: &StreamTrace,
    epoch_nanos: u64,
) -> Result<(), proptest::TestCaseError> {
    let full = lazy.materialize().expect("materialize");
    prop_assert_eq!(lazy.n_functions(), full.n_functions());
    prop_assert_eq!(lazy.len(), full.len());
    let mut stream = lazy.open().expect("open");
    for (i, expect) in full.events().iter().enumerate() {
        let got = stream.next().expect("stream ended early");
        prop_assert_eq!(
            got.at_secs.to_bits(),
            expect.at_secs.to_bits(),
            "event {}",
            i
        );
        prop_assert_eq!(got.function, expect.function, "event {}", i);
    }
    prop_assert!(stream.next().is_none(), "stream yielded extra events");
    if full.is_empty() {
        return Ok(());
    }
    prop_assert_eq!(
        lazy.horizon_nanos(),
        nanos(full.events().last().unwrap().at_secs)
    );
    // Epoch partition: walk the stream once, checkpointing at each
    // epoch boundary; re-opening checkpoint k must replay exactly the
    // slice of the merged view that epoch k's arrivals occupy.
    let events = full.events();
    let n_epochs = nanos(events.last().unwrap().at_secs) / epoch_nanos + 1;
    let mut walk = lazy.open().expect("open");
    let mut lo = 0usize;
    for k in 0..n_epochs {
        let end = (k + 1).saturating_mul(epoch_nanos);
        let hi = lo + events[lo..].partition_point(|e| nanos(e.at_secs) < end);
        let cp = walk.checkpoint();
        let mut count = 0usize;
        while walk.peek().is_some_and(|e| nanos(e.at_secs) < end) {
            walk.next();
            count += 1;
        }
        prop_assert_eq!(count, hi - lo, "epoch {} miscounted", k);
        let mut epoch = lazy.open_at(&cp).expect("re-seek");
        for expect in &events[lo..hi] {
            let got = epoch.next().expect("epoch ended early");
            prop_assert_eq!(got.at_secs.to_bits(), expect.at_secs.to_bits());
            prop_assert_eq!(got.function, expect.function);
        }
        lo = hi;
    }
    prop_assert_eq!(lo, events.len(), "epochs left arrivals uncovered");
    Ok(())
}

/// A checkpoint taken after `split` (mod the event count + 1) plain
/// `next()` calls, with no `peek`, reopens onto the materialized suffix —
/// at whatever point of a minute, or of a capped slice of one, that is.
fn check_checkpoint_after_next_calls(
    lazy: &StreamTrace,
    split: usize,
) -> Result<(), proptest::TestCaseError> {
    let full = lazy.materialize().expect("materialize");
    let split = split % (full.len() + 1);
    let mut stream = lazy.open().expect("open");
    for _ in 0..split {
        stream.next();
    }
    let mut resumed = lazy.open_at(&stream.checkpoint()).expect("re-seek");
    for (i, expect) in full.events()[split..].iter().enumerate() {
        let got = resumed.next().expect("resumed stream ended early");
        prop_assert_eq!(
            got.at_secs.to_bits(),
            expect.at_secs.to_bits(),
            "event {}",
            split + i
        );
        prop_assert_eq!(got.function, expect.function, "event {}", split + i);
    }
    prop_assert!(
        resumed.next().is_none(),
        "resumed stream yielded extra events"
    );
    Ok(())
}

/// A CSV row's minute step: mostly 0–2, sometimes a gap of 9–39.
fn minute_step() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..3, 0u64..3, 0u64..3, 9u64..40]
}

/// How far a CSV row trails its base walk: mostly a few minutes,
/// sometimes far more than 8, so it trails rows of earlier minutes
/// within a file and across file seams.
fn minute_back() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..5, 0u64..5, 9u64..100]
}

/// A CSV row's count: mostly under 40, sometimes up to 10⁴ arrivals, so
/// one minute spans several of the reader's capped batches.
fn row_count() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..40, 0u64..40, 0u64..40, 0u64..10_001]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streaming ≡ materialize-then-sort for every generator family
    /// under random parameters, fleet sizes, seeds, and epoch sizes.
    #[test]
    fn streaming_generators_match_materialized(
        rate in 0.1f64..2.0,
        calm in 0.0f64..0.4,
        burst in 1.0f64..5.0,
        ratio in 1.0f64..6.0,
        alpha in 1.1f64..3.0,
        n in 1usize..12,
        seed in 0u64..1_000_000,
        epoch_secs in 1u64..40,
    ) {
        let duration = 90.0;
        let sources = [
            TraceSource::Poisson { rps_per_function: rate },
            TraceSource::Bursty {
                calm_rps: calm,
                burst_rps: burst,
                mean_calm_secs: 30.0,
                mean_burst_secs: 6.0,
            },
            TraceSource::Diurnal {
                mean_rps: rate,
                peak_to_trough: ratio,
                period_secs: 120.0,
            },
            TraceSource::HeavyTail { mean_rps: rate, alpha },
        ];
        for source in sources {
            let lazy = StreamTrace::generate(source, n, duration, seed).expect("valid parameters");
            check_stream_matches_materialized(&lazy, epoch_secs * 1_000_000_000)?;
            // The scan fans out bit-identically.
            let sharded = StreamTrace::generate_sharded(source, n, duration, seed, 8)
                .expect("valid parameters");
            prop_assert_eq!(sharded.len(), lazy.len());
            prop_assert_eq!(sharded.horizon_nanos(), lazy.horizon_nanos());
        }
    }

    /// Streaming CSV ingestion ≡ the materialized reader for random row
    /// soups — duplicate `(app, func, minute)` keys, zero counts, rows
    /// trailing earlier minutes by up to 99 minutes, minute gaps of up
    /// to 39, minutes of several capped batches — at any reader chunk size,
    /// including chunks small enough that every record straddles a
    /// boundary, and from a checkpoint at any event.
    #[test]
    fn streaming_csv_matches_materialized(
        rows in prop::collection::vec(
            (0u8..3, 0u8..3, minute_step(), minute_back(), row_count()),
            1..25,
        ),
        chunk in 1usize..64,
        epoch_secs in 1u64..10,
        split in 0usize..1_000_000,
    ) {
        // Minutes follow a non-decreasing base walk with backward jitter,
        // often far behind rows already read.
        let mut csv = String::new();
        let mut base = 0u64;
        for &(app, func, advance, back, count) in &rows {
            base += advance;
            let minute = base.saturating_sub(back);
            csv.push_str(&format!("app{app},f{func},{minute},{count}\n"));
        }
        let lazy = StreamTrace::from_csv_chunked(&csv, chunk).expect("any minute order scans");
        check_stream_matches_materialized(&lazy, epoch_secs * 1_000_000_000)?;
        check_checkpoint_after_next_calls(&lazy, split)?;
    }

    /// Multi-file ingestion ≡ the concatenated single file: a random row
    /// soup cut at arbitrary line boundaries into 2–5 files — cuts land
    /// mid-minute, backward jitter straddles the seams, a random subset
    /// of the files is gzip'd, and empty files are legal — must replay
    /// the exact event bits of the uncut CSV, and `checkpoint()` /
    /// `open_at()` re-seeks must land correctly in whichever file an
    /// epoch starts in, or wherever `split` `next()` calls end. Rows draw
    /// minute gaps of up to 39, backward jitter of up to 99 and counts
    /// of up to 10⁴.
    #[test]
    fn multi_file_csv_ingestion_matches_single_file(
        rows in prop::collection::vec(
            (0u8..3, 0u8..4, minute_step(), minute_back(), row_count()),
            2..40,
        ),
        raw_cuts in prop::collection::vec(0usize..1000, 1..5),
        gz_mask in 0u8..64,
        chunk in 1usize..64,
        epoch_secs in 1u64..10,
        split in 0usize..1_000_000,
    ) {
        let mut lines: Vec<String> = Vec::new();
        let mut base = 0u64;
        for &(app, func, advance, back, count) in &rows {
            base += advance;
            let minute = base.saturating_sub(back);
            lines.push(format!("app{app},f{func},{minute},{count}\n"));
        }
        let single = lines.concat();
        let reference = StreamTrace::from_csv_chunked(&single, chunk)
            .expect("any minute order scans");
        let full = reference.materialize().expect("materialize");

        // Cut positions over the line count: duplicates collapse, so a
        // cut pair may produce an empty middle file.
        let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % (lines.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut parts: Vec<Vec<u8>> = Vec::new();
        let mut start = 0usize;
        for &cut in cuts.iter().chain(std::iter::once(&lines.len())) {
            let text = lines[start..cut].concat();
            parts.push(if gz_mask & (1 << parts.len()) != 0 {
                flate::gzip_compress(text.as_bytes(), flate::CompressMode::FixedHuffman)
            } else {
                text.into_bytes()
            });
            start = cut;
        }
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let lazy = StreamTrace::from_csv_parts_chunked(&refs, chunk)
            .expect("any seam disorder scans");

        // Same keys in the same first-seen order, same length, and the
        // event stream matches the uncut reference bit for bit.
        prop_assert_eq!(lazy.n_functions(), reference.n_functions());
        prop_assert_eq!(lazy.len(), reference.len());
        let mut stream = lazy.open().expect("open");
        for (i, expect) in full.events().iter().enumerate() {
            let got = stream.next().expect("multi-file stream ended early");
            prop_assert_eq!(got.at_secs.to_bits(), expect.at_secs.to_bits(), "event {}", i);
            prop_assert_eq!(got.function, expect.function, "event {}", i);
        }
        prop_assert!(stream.next().is_none(), "multi-file stream yielded extra events");

        // Epoch partitions and checkpoint re-seeks across files.
        check_stream_matches_materialized(&lazy, epoch_secs * 1_000_000_000)?;
        check_checkpoint_after_next_calls(&lazy, split)?;
    }

    /// Arbitrary ingest bytes never panic: a valid multi-file row soup —
    /// a random subset of the parts gzip'd — has bytes flipped,
    /// overwritten and cut off anywhere, headers and gzip members
    /// included. Construction must either fail with an error or accept
    /// the bytes, and an accepted trace must drain cleanly: exactly its
    /// scanned event count.
    #[test]
    fn corrupted_ingest_bytes_error_or_drain_cleanly(
        rows in prop::collection::vec(
            (0u8..3, 0u8..4, 0u64..3, 0u64..5, 0u64..40),
            1..30,
        ),
        n_parts in 1usize..4,
        gz_mask in 0u8..8,
        edits in prop::collection::vec((0usize..3, 0usize..4096, 0u8..3, 0u8..=255), 1..6),
    ) {
        let mut lines: Vec<String> = vec!["app,func,minute,count\n".to_string()];
        let mut base = 0u64;
        for &(app, func, advance, back, count) in &rows {
            base += advance;
            let minute = base.saturating_sub(back);
            lines.push(format!("app{app},f{func},{minute},{count}\n"));
        }
        let per_part = lines.len().div_ceil(n_parts);
        let mut parts: Vec<Vec<u8>> = lines
            .chunks(per_part)
            .enumerate()
            .map(|(i, chunk)| {
                let text = chunk.concat();
                if gz_mask & (1 << i) != 0 {
                    flate::gzip_compress(text.as_bytes(), flate::CompressMode::FixedHuffman)
                } else {
                    text.into_bytes()
                }
            })
            .collect();
        for &(part, pos, op, value) in &edits {
            let n = parts.len();
            let bytes = &mut parts[part % n];
            if bytes.is_empty() {
                continue;
            }
            let at = pos % bytes.len();
            match op {
                0 => bytes[at] ^= 1 << (value % 8),
                1 => bytes[at] = value,
                _ => bytes.truncate(at),
            }
        }
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        if let Ok(trace) = StreamTrace::from_csv_parts(&refs) {
            let mut stream = trace.open().expect("a scanned trace opens");
            let drained = stream.events().count();
            prop_assert_eq!(drained, trace.len(), "drain disagrees with the scan");
        }
    }
}

/// The ten-function heavy-tail trace the market proptests replay, lazy
/// and materialized.
fn market_trace(seed: u64) -> (StreamTrace, Trace) {
    let lazy = StreamTrace::generate(
        TraceSource::HeavyTail {
            mean_rps: 1.0,
            alpha: 1.4,
        },
        10,
        60.0,
        seed,
    )
    .expect("valid parameters");
    let full = lazy.materialize().expect("materialize");
    (lazy, full)
}

/// Epoch sizes the market proptests chain at: most divide the default
/// 30 s control cadence, so ticks land exactly on epoch boundaries; 7 s
/// and 17 s never do.
const EPOCHS: [f64; 7] = [1.0, 2.5, 5.0, 7.0, 10.0, 17.0, 60.0];

/// Replays `lazy` through the resumable epoch chain at `epoch_secs`
/// epochs, uninterrupted.
fn chained(
    sim: &FleetSimulator,
    lazy: &StreamTrace,
    strategy: PlacementStrategy,
    config: &FleetConfig,
    epoch_secs: f64,
) -> FleetReport {
    sim.run_stream_resumable(lazy, strategy, config, epoch_secs, None, |_| Ok(true))
        .expect("replay")
        .expect("an uninterrupted run returns a report")
}

/// A cheap ten-function fleet for market proptests (the six benchmark
/// functions, cycled): best configuration and alternates read straight
/// off ground-truth tables, built once and shared across cases.
fn market_fixture() -> &'static Vec<FunctionPlan> {
    use freedom_cluster::InstanceFamily;
    use freedom_pricing::SpotPricing;
    static PLANS: std::sync::OnceLock<Vec<FunctionPlan>> = std::sync::OnceLock::new();
    PLANS.get_or_init(|| {
        let spot = SpotPricing::PAPER_DEFAULT;
        let plans: Vec<FunctionPlan> = FunctionKind::ALL
            .into_iter()
            .map(|function| {
                let table = table_for(function, 3);
                let best = table.best_by_time().expect("feasible points").clone();
                let alternates = InstanceFamily::SEARCH_SPACE
                    .iter()
                    .filter(|&&family| family != best.config.family())
                    .filter_map(|&family| {
                        table
                            .feasible()
                            .filter(|p| p.config.family() == family)
                            .min_by(|a, b| a.exec_time_secs.total_cmp(&b.exec_time_secs))
                            .map(|p| PlannedPlacement {
                                family,
                                config: p.config,
                                accepted: p.exec_time_secs <= best.exec_time_secs * 1.15,
                                norm_exec_time: p.exec_time_secs / best.exec_time_secs,
                                norm_spot_cost: p.exec_cost_usd * spot.fraction
                                    / best.exec_cost_usd,
                            })
                    })
                    .collect();
                FunctionPlan {
                    function,
                    best_config: best.config,
                    alternates,
                    table,
                }
            })
            .collect();
        (0..10).map(|i| plans[i % plans.len()].clone()).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The admission ledger is total for any supply process, market
    /// size, admission policy, and epoch partition: every request ends
    /// as exactly one of admitted / demoted / rejected, and the
    /// resumable epoch chain agrees with the single pass bit for bit.
    #[test]
    fn market_accounting_is_total_for_random_supplies(
        trace_seed in 0u64..10_000,
        supply_seed in 0u64..10_000,
        step_secs in 2.0f64..40.0,
        min_fraction in 0.0f64..1.0,
        vms_per_family in 1usize..5,
        max_utilization in 0.0f64..1.0,
        greedy in 0u32..2,
        epoch_secs in prop::sample::select(EPOCHS.to_vec()),
    ) {
        let plans = market_fixture();
        let sim = FleetSimulator::new(plans.clone()).expect("non-empty fleet");
        let (lazy, trace) = market_trace(trace_seed);
        let config = FleetConfig {
            market: MarketConfig {
                vms_per_family,
                supply: SupplyProcess { step_secs, min_fraction, seed: supply_seed },
                admission: if greedy == 1 {
                    AdmissionPolicy::Greedy
                } else {
                    AdmissionPolicy::Headroom { max_utilization }
                },
                ..MarketConfig::default()
            },
            ..FleetConfig::default()
        };
        for strategy in PlacementStrategy::ALL {
            let report = sim.run(&trace, strategy, &config).expect("replay");
            prop_assert_eq!(
                report.spot_admitted + report.spot_demoted + report.rejected,
                trace.len(),
                "accounting leaked under {:?}",
                strategy
            );
            prop_assert!(report.policy_rejections + report.capacity_misses <= report.rejected);
            prop_assert!(report.total_cost_usd > 0.0 || trace.is_empty());
            prop_assert!(report.spot_share() <= 1.0);
            let epochs = chained(&sim, &lazy, strategy, &config, epoch_secs);
            prop_assert_eq!(
                format!("{:?}", report),
                format!("{:?}", epochs),
                "epoch chain diverged"
            );
        }
    }

    /// The failure-domain ledger is total for any fault plan: under
    /// random zone layouts, notice leads, outages, shock bursts, and
    /// dropped notice deliveries, every request still ends in exactly
    /// one of the five terminal classes — admitted, drained, migrated,
    /// demoted, rejected — notices only ever hit outstanding spot
    /// placements, and the resumable epoch chain stays bit-identical.
    #[test]
    fn fault_injected_markets_keep_total_accounting(
        trace_seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
        n_zones in 1usize..4,
        notice_secs in 0.0f64..10.0,
        shock in 0.0f64..1.0,
        migration_rebill in 0.0f64..1.0,
        outage_rate in 0.0f64..120.0,
        mean_outage_secs in 1.0f64..60.0,
        notice_drop_fraction in 0.0f64..1.0,
        burst_rate in 0.0f64..120.0,
        burst_severity in 0.0f64..1.0,
        epoch_secs in prop::sample::select(EPOCHS.to_vec()),
    ) {
        let plans = market_fixture();
        let sim = FleetSimulator::new(plans.clone()).expect("non-empty fleet");
        let (lazy, trace) = market_trace(trace_seed);
        let config = FleetConfig {
            market: MarketConfig {
                vms_per_family: 2,
                supply: SupplyProcess { step_secs: 5.0, min_fraction: 0.1, seed: 7 },
                zones: ZoneConfig { n_zones, notice_secs, shock, migration_rebill },
                ..MarketConfig::default()
            },
            faults: FaultPlan {
                seed: fault_seed,
                outage_rate_per_hour: outage_rate,
                mean_outage_secs,
                notice_drop_fraction,
                burst_rate_per_hour: burst_rate,
                mean_burst_secs: 10.0,
                burst_severity,
                ..FaultPlan::NONE
            },
            ..FleetConfig::default()
        };
        for strategy in PlacementStrategy::ALL {
            let report = sim.run(&trace, strategy, &config).expect("replay");
            prop_assert_eq!(
                report.spot_admitted
                    + report.drained
                    + report.migrated
                    + report.spot_demoted
                    + report.rejected,
                trace.len(),
                "accounting leaked under {:?}: {:?}",
                strategy,
                report
            );
            // Notices only ever land on outstanding spot placements —
            // entries created by an admission or a migration. (One
            // placement may be re-notified after surviving a step whose
            // drop shrank under it, so the count is not bounded by the
            // entries themselves; a market with no entries at all must
            // stay silent.)
            if report.spot_admitted + report.migrated == 0 {
                prop_assert_eq!(
                    report.notified,
                    0,
                    "notices without outstanding placements: {:?}",
                    report
                );
            }
            // Every drain was announced: a completion only counts as
            // drained when its slot sat under a delivered notice.
            prop_assert!(
                report.drained <= report.notified,
                "{} drains exceed {} notices",
                report.drained,
                report.notified
            );
            // Drains and migrations need the machinery that produces
            // them: a notice lead for drains, a second zone for
            // migrations.
            if notice_secs == 0.0 {
                prop_assert_eq!(report.drained, 0);
            }
            if n_zones == 1 {
                prop_assert_eq!(report.migrated, 0);
            }
            let epochs = chained(&sim, &lazy, strategy, &config, epoch_secs);
            prop_assert_eq!(
                format!("{:?}", report),
                format!("{:?}", epochs),
                "epoch chain diverged under faults"
            );
        }
    }

    /// The retry ledger is total for any transient-fault mix and retry
    /// policy: every execution — first attempts plus retries, hedges
    /// excluded as pure duplicates — ends in exactly one of the six
    /// terminal classes (admitted, drained, migrated, demoted, rejected,
    /// dead-lettered), retries never appear without transients to cause
    /// them, and the resumable epoch chain stays bit-identical for every
    /// seed.
    #[test]
    fn transient_faults_keep_retry_accounting_total(
        trace_seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
        retry_seed in 0u64..10_000,
        crash_prob in 0.0f64..0.3,
        abort_prob in 0.0f64..0.3,
        straggler_prob in 0.0f64..0.3,
        straggler_factor in 1.5f64..8.0,
        max_attempts in 1u8..6,
        backoff_base_secs in 0.1f64..4.0,
        jitter_frac in 0.0f64..1.0,
        budget_per_sec in 0.1f64..8.0,
        budget_burst in 0.5f64..16.0,
        hedge_delay_secs in 0.0f64..6.0,
        brownout_on in 0u32..2,
        epoch_secs in prop::sample::select(EPOCHS.to_vec()),
    ) {
        let plans = market_fixture();
        let sim = FleetSimulator::new(plans.clone()).expect("non-empty fleet");
        let (lazy, trace) = market_trace(trace_seed);
        let config = FleetConfig {
            market: MarketConfig {
                vms_per_family: 2,
                supply: SupplyProcess { step_secs: 5.0, min_fraction: 0.1, seed: 7 },
                zones: ZoneConfig {
                    n_zones: 2,
                    notice_secs: 4.0,
                    shock: 0.5,
                    migration_rebill: 0.5,
                },
                ..MarketConfig::default()
            },
            faults: FaultPlan {
                seed: fault_seed,
                crash_prob,
                abort_prob,
                straggler_prob,
                straggler_factor,
                ..FaultPlan::NONE
            },
            retry: RetryPolicy {
                max_attempts,
                backoff_base_secs,
                backoff_cap_secs: backoff_base_secs * 8.0,
                jitter_frac,
                seed: retry_seed,
                budget_per_sec,
                budget_burst,
                hedge_delay_secs,
                brownout: (brownout_on == 1).then_some(BrownoutConfig {
                    enter_pressure: 0.2,
                    exit_pressure: 0.05,
                    utilization_ceiling: 0.7,
                }),
            },
            ..FleetConfig::default()
        };
        for strategy in PlacementStrategy::ALL {
            let report = sim.run(&trace, strategy, &config).expect("replay");
            prop_assert_eq!(
                report.spot_admitted
                    + report.drained
                    + report.migrated
                    + report.spot_demoted
                    + report.rejected
                    + report.dead_lettered,
                trace.len() + report.retried,
                "retry accounting leaked under {:?}: {:?}",
                strategy,
                report
            );
            // Retries and dead letters need a transient to cause them,
            // and a hedge can only win against a straggler it raced.
            if crash_prob == 0.0 && abort_prob == 0.0 && straggler_prob == 0.0 {
                prop_assert_eq!(report.retried, 0, "retries without faults");
                prop_assert_eq!(report.dead_lettered, 0);
                prop_assert_eq!(report.hedge_wins, 0);
            }
            if straggler_prob == 0.0 || hedge_delay_secs == 0.0 {
                prop_assert_eq!(report.hedge_wins, 0, "hedge win without a straggler race");
            }
            // Shedding is brownout's lever: without a brownout config
            // no retry is ever dropped on the floor.
            if brownout_on == 0 {
                prop_assert_eq!(report.shed_retries, 0, "shed without brownout");
            }
            let epochs = chained(&sim, &lazy, strategy, &config, epoch_secs);
            prop_assert_eq!(
                format!("{:?}", report),
                format!("{:?}", epochs),
                "epoch chain diverged under transient faults"
            );
        }
    }
}
