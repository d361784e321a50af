//! One Criterion bench per paper table/figure.
//!
//! Each bench runs the corresponding `freedom-experiments` kernel at
//! reduced repetitions (see [`freedom_bench::bench_opts`]), so `cargo
//! bench` exercises every experiment end-to-end and tracks regressions in
//! the kernels that regenerate the paper's results.

use criterion::{criterion_group, criterion_main, Criterion};
use freedom_bench::bench_opts;
use freedom_experiments as exp;
use freedom_optimizer::Objective;

fn bench_experiments(c: &mut Criterion) {
    let opts = bench_opts();
    let mut group = c.benchmark_group("paper");
    group.sample_size(10);

    group.bench_function("fig01_config_spread", |b| {
        b.iter(|| exp::fig01_config_spread::run(&opts).expect("fig01"))
    });
    group.bench_function("fig03_strategies", |b| {
        b.iter(|| exp::fig03_strategies::run(&opts).expect("fig03"))
    });
    group.bench_function("table3_alternatives", |b| {
        b.iter(|| exp::table3_alternatives::run(&opts).expect("table3"))
    });
    group.bench_function("fig04_sampling_vs_bo", |b| {
        b.iter(|| exp::fig04_sampling_vs_bo::run(&opts).expect("fig04"))
    });
    group.bench_function("fig05_convergence_et", |b| {
        b.iter(|| exp::fig05_convergence::run(&opts, Objective::ExecutionTime).expect("fig05"))
    });
    group.bench_function("fig06_convergence_ec", |b| {
        b.iter(|| exp::fig05_convergence::run(&opts, Objective::ExecutionCost).expect("fig06"))
    });
    group.bench_function("fig07_input_specific", |b| {
        b.iter(|| exp::fig07_input_specific::run(&opts).expect("fig07"))
    });
    group.bench_function("fig08_online_violations", |b| {
        b.iter(|| exp::fig08_online_violations::run(&opts).expect("fig08"))
    });
    group.bench_function("fig09_mape_space", |b| {
        b.iter(|| {
            exp::fig09_mape::run(&opts, exp::fig09_mape::Scenario::WholeSpace).expect("fig09")
        })
    });
    group.bench_function("fig10_mape_per_family", |b| {
        b.iter(|| {
            exp::fig09_mape::run(&opts, exp::fig09_mape::Scenario::PerFamilyBest).expect("fig10")
        })
    });
    group.bench_function("fig12_pareto_distance", |b| {
        b.iter(|| exp::fig12_pareto_distance::run(&opts).expect("fig12"))
    });
    group.bench_function("fig13_weighted_mo", |b| {
        b.iter(|| exp::fig13_weighted_mo::run(&opts).expect("fig13"))
    });
    group.bench_function("fig14_hierarchical", |b| {
        b.iter(|| exp::fig14_hierarchical::run(&opts).expect("fig14"))
    });
    group.bench_function("fig15_provider_savings", |b| {
        b.iter(|| exp::fig15_provider_savings::run(&opts).expect("fig15"))
    });

    group.finish();
}

/// Wall-clock comparison of the whole hot path on a representative slice
/// of the figure suite at `ExperimentOpts::fast`:
///
/// - `fast_suite_naive` — the pre-optimization engine: one thread and a
///   full from-scratch GP hyperparameter search at every BO step
///   (`surrogate_refit_every = 1`);
/// - `fast_suite_sequential` — incremental engine, one thread (the
///   algorithmic win in isolation);
/// - `fast_suite_parallel` — incremental engine fanned across all cores.
///
/// naive / parallel is the headline speedup of this optimization pass.
fn bench_parallel_vs_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("speedup");
    group.sample_size(3);
    let suite = |opts: &exp::ExperimentOpts| {
        exp::fig04_sampling_vs_bo::run(opts).expect("fig04");
        exp::fig05_convergence::run(opts, Objective::ExecutionTime).expect("fig05");
    };
    let naive = exp::ExperimentOpts {
        surrogate_refit_every: 1,
        ..exp::ExperimentOpts::fast().with_threads(1)
    };
    group.bench_function("fast_suite_naive", |b| b.iter(|| suite(&naive)));
    let sequential = exp::ExperimentOpts::fast().with_threads(1);
    group.bench_function("fast_suite_sequential", |b| b.iter(|| suite(&sequential)));
    let parallel = exp::ExperimentOpts::fast();
    group.bench_function("fast_suite_parallel", |b| b.iter(|| suite(&parallel)));
    group.finish();
}

/// Shared-spot-market replay at Azure-trace scale: an hour-long
/// heavy-tail trace over 120 functions contending for one fluctuating
/// market, replayed by the sequential engine. Included in the
/// quick-bench `BENCH_pr.json` artifact like every other bench here, so
/// the perf trajectory records fleet-scale numbers per PR.
fn bench_spot_market(c: &mut Criterion) {
    use exp::fleet_simulation::{market_config, market_tightness, synthetic_plans};
    use freedom::fleet::{
        AdmissionPolicy, FleetConfig, FleetSimulator, PlacementStrategy, TraceSource,
    };

    let mut group = c.benchmark_group("spot_market");
    group.sample_size(10);
    let plans = synthetic_plans(120, 42).expect("fleet fixture");
    let sim = FleetSimulator::new(plans).expect("non-empty fleet");
    let tightness = market_tightness();
    let config = FleetConfig {
        market: market_config(&tightness[1], AdmissionPolicy::Greedy),
        ..FleetConfig::default()
    };
    let trace = TraceSource::HeavyTail {
        mean_rps: 0.5,
        alpha: 1.5,
    }
    .generate_sharded(120, 3600.0, 42, 8)
    .expect("hour-long heavy-tail trace");
    group.bench_function("hour_120fn_sequential", |b| {
        b.iter(|| {
            sim.run(&trace, PlacementStrategy::IdleAware, &config)
                .expect("replay")
        })
    });
    group.finish();
}

/// The closed control loop at Azure-trace scale: the same hour-long
/// 120-function heavy-tail replay as `spot_market`, but with each
/// controller revising admission and placements at a 20 s cadence —
/// `static` prices the tick machinery itself (observation accumulation
/// and no-op ticks over the open-loop engine), `pid` adds the feedback
/// arithmetic, and `right_sizer` adds the per-function surrogate refits
/// and batched re-planning. Feeds the quick-bench `BENCH_pr.json`
/// artifact like every other group here.
///
/// Right-sizer tick amortization (batch the epoch's fresh observations
/// into one warm-start `fit_update` per function instead of one per
/// observation), measured on the 1-core build container: before
/// 22.3 ms static vs 32.7 ms right_sizer (+47%); after 21.5 ms vs
/// 28.3 ms (+32%) — roughly a third of the tick overhead gone.
fn bench_control_loop(c: &mut Criterion) {
    use exp::fleet_simulation::{market_config, market_tightness, synthetic_plans};
    use freedom::fleet::{
        AdmissionPolicy, ControlConfig, ControllerConfig, FleetConfig, FleetSimulator, PidConfig,
        PlacementStrategy, RightSizerConfig, TraceSource,
    };

    let mut group = c.benchmark_group("control_loop");
    group.sample_size(10);
    let plans = synthetic_plans(120, 42).expect("fleet fixture");
    let sim = FleetSimulator::new(plans).expect("non-empty fleet");
    let tightness = market_tightness();
    let config = |controller| FleetConfig {
        market: market_config(&tightness[1], AdmissionPolicy::Greedy),
        control: ControlConfig {
            cadence_secs: 20.0,
            controller,
        },
        ..FleetConfig::default()
    };
    let trace = TraceSource::HeavyTail {
        mean_rps: 0.5,
        alpha: 1.5,
    }
    .generate_sharded(120, 3600.0, 42, 8)
    .expect("hour-long heavy-tail trace");
    let controllers = [
        ("hour_120fn_static", ControllerConfig::Static),
        (
            "hour_120fn_pid",
            ControllerConfig::HeadroomPid(PidConfig::default()),
        ),
        (
            "hour_120fn_right_sizer",
            ControllerConfig::SurrogateRightSizer(RightSizerConfig::default()),
        ),
    ];
    for (name, controller) in controllers {
        let config = config(controller);
        group.bench_function(name, |b| {
            b.iter(|| {
                sim.run(&trace, PlacementStrategy::IdleAware, &config)
                    .expect("replay")
            })
        });
    }
    group.finish();

    // The right-sizer replay's throughput as a gated counter: events/sec
    // of the best of three passes, so `scripts/bench_check` sees the
    // surrogate refits the controller layer pays for.
    let config = config(ControllerConfig::SurrogateRightSizer(
        RightSizerConfig::default(),
    ));
    let best_secs = (0..3)
        .map(|_| {
            let t0 = std::time::Instant::now();
            sim.run(&trace, PlacementStrategy::IdleAware, &config)
                .expect("replay");
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let events_per_sec = trace.len() as f64 / best_secs;
    println!("bench control_loop/hour_120fn_right_sizer: {events_per_sec:.0} events/sec");
    freedom_bench::report_counter(
        "control_loop/hour_120fn_right_sizer_events_per_sec",
        events_per_sec,
        "events/sec",
    );
}

/// The streaming event pipeline at full Azure scale: events produced
/// lazily by per-function cursors and consumed exactly once, so peak
/// memory is O(functions + in-flight) instead of O(total arrivals).
///
/// - `hour_120fn_materialized` is trace → report on the old pipeline:
///   `TraceSource::generate` (streams + merged view, O(events) memory)
///   followed by the reference replay. `hour_120fn_streaming` is the
///   same work fused into one constant-memory pass — the ≤ 1.2×
///   per-event acceptance comparison (`spot_market/hour_120fn_sequential`
///   isolates the replay of *pre-built* events, which is unchanged).
/// - `day_1200fn_streaming` is the headline: a 24-hour, 1200-function
///   heavy-tail trace (~1M arrivals, "Serverless in the Wild"-shaped)
///   whose merged view the materialized path would have to hold
///   resident in full.
///
/// Alongside the timings, the group reports two counters into the
/// quick-bench `BENCH_pr.json` artifact (`freedom_bench::report_counter`):
/// the day replay's events/sec and its peak-events-resident —
/// in-flight placements + one pending arrival per cursor, the whole
/// memory story.
fn bench_streaming_replay(c: &mut Criterion) {
    use exp::fleet_simulation::{market_config, market_tightness, synthetic_plans};
    use freedom::fleet::{
        AdmissionPolicy, FleetConfig, FleetSimulator, PlacementStrategy, StreamTrace, TraceSource,
    };

    let mut group = c.benchmark_group("streaming_replay");
    group.sample_size(10);
    let tightness = market_tightness();
    let config = FleetConfig {
        market: market_config(&tightness[1], AdmissionPolicy::Greedy),
        ..FleetConfig::default()
    };
    let hour_sim =
        FleetSimulator::new(synthetic_plans(120, 42).expect("fleet fixture")).expect("fleet");
    let hour = StreamTrace::generate_sharded(
        TraceSource::HeavyTail {
            mean_rps: 0.5,
            alpha: 1.5,
        },
        120,
        3600.0,
        42,
        8,
    )
    .expect("hour-long heavy-tail trace");
    let hour_source = TraceSource::HeavyTail {
        mean_rps: 0.5,
        alpha: 1.5,
    };
    group.bench_function("hour_120fn_materialized", |b| {
        b.iter(|| {
            let trace = hour_source
                .generate(120, 3600.0, 42)
                .expect("hour-long heavy-tail trace");
            hour_sim
                .run(&trace, PlacementStrategy::IdleAware, &config)
                .expect("replay")
        })
    });
    group.bench_function("hour_120fn_streaming", |b| {
        b.iter(|| {
            hour_sim
                .run_stream(&hour, PlacementStrategy::IdleAware, &config)
                .expect("replay")
        })
    });

    let day_sim =
        FleetSimulator::new(synthetic_plans(1200, 42).expect("fleet fixture")).expect("fleet");
    let day = StreamTrace::generate_sharded(
        TraceSource::HeavyTail {
            mean_rps: 0.01,
            alpha: 1.5,
        },
        1200,
        86_400.0,
        42,
        8,
    )
    .expect("day-long heavy-tail trace");
    group.bench_function("day_1200fn_streaming", |b| {
        b.iter(|| {
            day_sim
                .run_stream(&day, PlacementStrategy::IdleAware, &config)
                .expect("replay")
        })
    });
    group.finish();

    // One instrumented replay for the counters: peak resident events
    // must be in-flight + one pending arrival per cursor, never total
    // arrivals.
    let started = std::time::Instant::now();
    let (_, stats) = day_sim
        .run_stream_with_stats(&day, PlacementStrategy::IdleAware, &config)
        .expect("replay");
    let events_per_sec = stats.events as f64 / started.elapsed().as_secs_f64();
    assert!(
        stats.peak_resident_events() < stats.events / 100,
        "peak resident {} is not bounded well below {} arrivals",
        stats.peak_resident_events(),
        stats.events
    );
    println!(
        "bench streaming_replay/day_1200fn: {} events, {:.0} events/sec, \
         peak resident {} ({} in-flight + {} cursor)",
        stats.events,
        events_per_sec,
        stats.peak_resident_events(),
        stats.peak_inflight,
        stats.peak_cursor_resident,
    );
    freedom_bench::report_counter(
        "streaming_replay/day_1200fn_events_per_sec",
        events_per_sec,
        "events/sec",
    );
    freedom_bench::report_counter(
        "streaming_replay/day_1200fn_peak_resident_events",
        stats.peak_resident_events() as f64,
        "events",
    );
}

/// The failure-domain replay at Azure-trace scale: the hour-long
/// 120-function heavy-tail fleet over a **three-zone** market with
/// preemption notices, replayed fault-free (`calm`) and under the stormy
/// fault plan (zone outages + correlated shock bursts + dropped
/// notices). `calm` vs `spot_market/hour_120fn_sequential` prices the
/// zone/notice bookkeeping itself; `calm` vs `stormy` prices the
/// injected faults and the migrate-or-demote resolution they force.
///
/// Alongside the timings, the group reports three counters into the
/// quick-bench `BENCH_pr.json` artifact: the stormy replay's
/// events/sec, its migration overhead (stormy wall clock over calm wall
/// clock — the price of resolving every displaced placement), and the
/// cross-zone migrations the hour actually performed.
fn bench_zone_outage(c: &mut Criterion) {
    use exp::fleet_simulation::{market_config, market_tightness, synthetic_plans};
    use exp::fleet_zone_outage::{fault_presets, zone_layout};
    use freedom::fleet::{
        AdmissionPolicy, FleetConfig, FleetSimulator, PlacementStrategy, StreamTrace, TraceSource,
    };
    use freedom::market::MarketConfig;

    let mut group = c.benchmark_group("zone_outage");
    group.sample_size(10);
    let sim = FleetSimulator::new(synthetic_plans(120, 42).expect("fleet fixture")).expect("fleet");
    let tightness = market_tightness();
    let market = MarketConfig {
        zones: zone_layout(),
        ..market_config(&tightness[1], AdmissionPolicy::Greedy)
    };
    let calm = FleetConfig {
        market,
        ..FleetConfig::default()
    };
    let stormy = FleetConfig {
        faults: fault_presets()[2].plan,
        ..calm
    };
    let trace = StreamTrace::generate_sharded(
        TraceSource::HeavyTail {
            mean_rps: 0.5,
            alpha: 1.5,
        },
        120,
        3600.0,
        42,
        8,
    )
    .expect("hour-long heavy-tail trace");
    for (name, config) in [("hour_120fn_calm", &calm), ("hour_120fn_stormy", &stormy)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                sim.run_stream(&trace, PlacementStrategy::IdleAware, config)
                    .expect("replay")
            })
        });
    }
    group.finish();

    // One timed pass per config for the counters: events/sec under
    // faults, and the migration overhead the stormy hour pays.
    let time_one = |config: &FleetConfig| {
        let t0 = std::time::Instant::now();
        let report = sim
            .run_stream(&trace, PlacementStrategy::IdleAware, config)
            .expect("replay");
        (t0.elapsed().as_secs_f64(), report)
    };
    let (calm_secs, calm_report) = time_one(&calm);
    let (stormy_secs, stormy_report) = time_one(&stormy);
    assert_eq!(calm_report.invocations, stormy_report.invocations);
    assert!(
        stormy_report.migrated > 0,
        "the stormy hour must migrate displaced work cross-zone"
    );
    let events_per_sec = stormy_report.invocations as f64 / stormy_secs;
    println!(
        "bench zone_outage/hour_120fn_stormy: {:.0} events/sec, {:.2}x of calm, \
         {} migrated / {} drained / {} demoted",
        events_per_sec,
        stormy_secs / calm_secs,
        stormy_report.migrated,
        stormy_report.drained,
        stormy_report.spot_demoted,
    );
    freedom_bench::report_counter(
        "zone_outage/hour_120fn_stormy_events_per_sec",
        events_per_sec,
        "events/sec",
    );
    freedom_bench::report_counter(
        "zone_outage/hour_120fn_migration_overhead",
        stormy_secs / calm_secs,
        "ratio",
    );
    freedom_bench::report_counter(
        "zone_outage/hour_120fn_migrations",
        stormy_report.migrated as f64,
        "placements",
    );
}

/// The week-scale headline: the 14-day × 10 000-function diurnal trace,
/// synthesized as one gzip'd CSV per day, scanned once by
/// `from_csv_parts` — the only pass that inflates and parses — and
/// replayed from the scan's row table, with peak resident events
/// bounded by in-flight + the rows of the largest minute while the full
/// trace is ~10 M arrivals. In quick/--fast mode the same pipeline runs at the
/// downscaled 2-day × 2 000-function shape so CI still exercises the
/// multi-file gz path and the counter plumbing.
///
/// Counters reported into `BENCH_pr.json`: the replay's events/sec,
/// ns/event and peak resident events, the scan's ns/event (min of 5
/// scans) and the drain's ns/event (min of 5 full drains of `open()`,
/// the stream alone), plus a resumable row (6 h epochs, every snapshot
/// encoded) reporting events/sec, the first and last snapshot sizes,
/// and encode ms per epoch.
///
/// A one-day anchor row with the same functions, market, and trace
/// generator rides along: it is the day-scale baseline at *identical*
/// per-event work, so "no per-event regression from scale" is the
/// multi-day row's events/sec meeting or beating the anchor's.
fn bench_week_replay(c: &mut Criterion) {
    use exp::fleet_simulation::{market_config, market_tightness, synthetic_plans};
    use exp::week_trace::WeekTraceSpec;
    use freedom::fleet::{
        AdmissionPolicy, FleetConfig, FleetSimulator, PlacementStrategy, StreamTrace,
    };

    let spec = if criterion::is_quick() {
        WeekTraceSpec::downscaled()
    } else {
        WeekTraceSpec::headline()
    };
    let sim = FleetSimulator::new(synthetic_plans(spec.functions as usize, 4).expect("plans"))
        .expect("fleet");
    // The scarce, volatile market — week-scale replay against the
    // preset where demotions and admission control actually bite.
    let tightness = market_tightness();
    let config = FleetConfig {
        market: market_config(&tightness[2], AdmissionPolicy::Greedy),
        ..FleetConfig::default()
    };

    let tag = spec.tag();
    let parts = spec.gz_parts(8);
    let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
    let trace = StreamTrace::from_csv_parts(&refs).expect("scan gz day parts");

    let mut group = c.benchmark_group("week_replay");
    group.sample_size(10);
    group.bench_function(format!("{tag}_gz_streaming"), |b| {
        b.iter(|| {
            sim.run_stream(&trace, PlacementStrategy::IdleAware, &config)
                .expect("replay")
        })
    });
    group.finish();

    // The instrumented passes behind the headline counters: the one-day
    // anchor first, then the multi-day trace.
    let anchor_spec = WeekTraceSpec { days: 1, ..spec };
    let mut stats = None;
    for day_spec in [&anchor_spec, &spec] {
        let day_tag = day_spec.tag();
        let day_parts = day_spec.gz_parts(8);
        let day_gz_bytes: usize = day_parts.iter().map(|p| p.len()).sum();
        let day_refs: Vec<&[u8]> = day_parts.iter().map(|p| p.as_slice()).collect();
        let scan_s = (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let scanned = StreamTrace::from_csv_parts(&day_refs).expect("scan gz day parts");
                let secs = t0.elapsed().as_secs_f64();
                drop(std::hint::black_box(scanned));
                secs
            })
            .fold(f64::INFINITY, f64::min);
        let day_trace = StreamTrace::from_csv_parts(&day_refs).expect("scan gz day parts");
        let drain_s = (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let mut stream = day_trace.open().expect("open the row table");
                let mut acc = 0u64;
                while let Some(e) = stream.next() {
                    acc = acc.wrapping_add(e.at_secs.to_bits() ^ e.function as u64);
                }
                let secs = t0.elapsed().as_secs_f64();
                std::hint::black_box(acc);
                secs
            })
            .fold(f64::INFINITY, f64::min);
        let started = std::time::Instant::now();
        let (_, s) = sim
            .run_stream_with_stats(&day_trace, PlacementStrategy::IdleAware, &config)
            .expect("replay");
        let day_wall = started.elapsed().as_secs_f64();
        let events_per_sec = s.events as f64 / day_wall;
        assert!(
            s.peak_resident_events() < s.events / 100,
            "peak resident {} is not bounded well below {} arrivals",
            s.peak_resident_events(),
            s.events
        );
        let scan_ns = scan_s * 1e9 / s.events as f64;
        let drain_ns = drain_s * 1e9 / s.events as f64;
        println!(
            "bench week_replay/{day_tag}: {} events over {} gz days, {:.0} events/sec, \
             {:.0} ns/event, peak resident {}; scan {scan_ns:.0} ns/event, \
             {:.1} MB/s gz; drain {drain_ns:.1} ns/event",
            s.events,
            day_spec.days,
            events_per_sec,
            day_wall * 1e9 / s.events as f64,
            s.peak_resident_events(),
            day_gz_bytes as f64 / 1e6 / scan_s,
        );
        freedom_bench::report_counter(
            &format!("week_replay/{day_tag}_events_per_sec"),
            events_per_sec,
            "events/sec",
        );
        freedom_bench::report_counter(
            &format!("week_replay/{day_tag}_ns_per_event"),
            day_wall * 1e9 / s.events as f64,
            "ns/event",
        );
        freedom_bench::report_counter(
            &format!("week_replay/{day_tag}_peak_resident_events"),
            s.peak_resident_events() as f64,
            "events",
        );
        freedom_bench::report_counter(
            &format!("week_replay/{day_tag}_scan_ns_per_event"),
            scan_ns,
            "ns/event",
        );
        freedom_bench::report_counter(
            &format!("week_replay/{day_tag}_drain_ns_per_event"),
            drain_ns,
            "ns/event",
        );
        stats = Some(s);
    }
    let stats = stats.expect("instrumented pass ran");

    // Telemetry-on row: the same multi-day single-pass replay with a
    // live recorder attached. The instrumented ns/event prices the
    // whole telemetry layer (counters + histograms + sampled wall
    // timing + span ring); the acceptance bar is ≤5% overhead. The two
    // variants alternate and compare best-of-N walls — a one-shot pass
    // pair would let scheduler noise masquerade as recorder overhead
    // (single-shot walls of identical passes vary by far more than 5%).
    {
        use freedom::fleet::Telemetry;
        let reps = 3;
        let mut off_best = f64::INFINITY;
        let mut on_best = f64::INFINITY;
        let mut spans = 0;
        let mut dropped = 0;
        for _ in 0..reps {
            let t0 = std::time::Instant::now();
            let report = sim
                .run_stream(&trace, PlacementStrategy::IdleAware, &config)
                .expect("replay");
            off_best = off_best.min(t0.elapsed().as_secs_f64());
            std::hint::black_box(report);

            let mut tel = Telemetry::new();
            let t0 = std::time::Instant::now();
            let (report, _) = sim
                .run_stream_traced(&trace, PlacementStrategy::IdleAware, &config, &mut tel)
                .expect("traced replay");
            on_best = on_best.min(t0.elapsed().as_secs_f64());
            std::hint::black_box(report);
            spans = tel.spans().count();
            dropped = tel.dropped_spans();
        }
        let tel_ns = on_best * 1e9 / stats.events as f64;
        println!(
            "bench week_replay/{tag}_telemetry: {:.0} events/sec, {:.0} ns/event, \
             {:.3}x of telemetry-off ({spans} spans, {dropped} dropped)",
            stats.events as f64 / on_best,
            tel_ns,
            on_best / off_best,
        );
        freedom_bench::report_counter(
            &format!("week_replay/{tag}_telemetry_ns_per_event"),
            tel_ns,
            "ns/event",
        );
        freedom_bench::report_counter(
            &format!("week_replay/{tag}_telemetry_overhead"),
            on_best / off_best,
            "ratio",
        );
    }

    // Resumable row: the same multi-day replay, crash-resumable with
    // 6 h epochs and every snapshot encoded, as a run that persists its
    // epochs would. Best-of-N wall, like the telemetry row. The first and
    // last snapshot sizes show whether snapshots track in-flight work or
    // the events replayed so far.
    let id = format!("week_replay/{tag}_resumable");
    let mut best = f64::INFINITY;
    let mut encode_ms_per_epoch = f64::INFINITY;
    let mut sizes = Vec::new();
    for _ in 0..3 {
        let mut encode_s = 0.0;
        sizes.clear();
        let t0 = std::time::Instant::now();
        let report = sim
            .run_stream_resumable(
                &trace,
                PlacementStrategy::IdleAware,
                &config,
                21_600.0,
                None,
                |snap| {
                    let t = std::time::Instant::now();
                    let bytes = snap.to_bytes();
                    encode_s += t.elapsed().as_secs_f64();
                    sizes.push(bytes.len());
                    std::hint::black_box(bytes);
                    Ok(true)
                },
            )
            .expect("resumable replay")
            .expect("an uninterrupted run returns a report");
        best = best.min(t0.elapsed().as_secs_f64());
        encode_ms_per_epoch = encode_ms_per_epoch.min(1e3 * encode_s / sizes.len().max(1) as f64);
        std::hint::black_box(report);
    }
    let (first, last) = (sizes[0], *sizes.last().expect("at least one boundary"));
    println!(
        "bench {id}: {:.0} events/sec, {} snapshots from {first} B to {last} B, \
         {encode_ms_per_epoch:.3} ms encode per epoch",
        stats.events as f64 / best,
        sizes.len(),
    );
    freedom_bench::report_counter(
        &format!("{id}_events_per_sec"),
        stats.events as f64 / best,
        "events/sec",
    );
    freedom_bench::report_counter(&format!("{id}_snapshot_bytes_first"), first as f64, "bytes");
    freedom_bench::report_counter(&format!("{id}_snapshot_bytes_last"), last as f64, "bytes");
    freedom_bench::report_counter(
        &format!("{id}_snapshot_encode_ms_per_epoch"),
        encode_ms_per_epoch,
        "ms",
    );
}

/// The retry path at week scale: the same multi-day gz trace as
/// `week_replay`, replayed flaky — per-invocation transients
/// (crash-on-start, mid-flight aborts, stragglers) under the full retry
/// stack (seeded backoff, per-family budgets, hedged re-issue) — next
/// to a faults-off anchor at identical per-event work.
///
/// Counters reported into `BENCH_pr.json`: the flaky replay's best
/// ns/event (auto-gated by `scripts/bench_check` like every
/// `*_ns_per_event` row), the faults-off anchor's, and the retry
/// overhead ratio between them. The acceptance bar is ≤1.10×:
/// scheduling backoffs, racing hedges, and draining budgets ride the
/// existing event loop, so the flaky hot path may not grow per-event
/// cost by more than 10%. The ratio is the median over 10 back-to-back
/// pairs that alternate which replay runs first — one-shot pairs, or
/// best-of-N walls taken minutes apart, let the machine's drift
/// masquerade as retry overhead.
fn bench_retry_storm(c: &mut Criterion) {
    use exp::fleet_simulation::{market_config, market_tightness, synthetic_plans};
    use exp::week_trace::WeekTraceSpec;
    use freedom::fleet::{
        AdmissionPolicy, FaultPlan, FleetConfig, FleetSimulator, PlacementStrategy, RetryPolicy,
        StreamTrace,
    };

    let spec = if criterion::is_quick() {
        WeekTraceSpec::downscaled()
    } else {
        WeekTraceSpec::headline()
    };
    let sim = FleetSimulator::new(synthetic_plans(spec.functions as usize, 4).expect("plans"))
        .expect("fleet");
    let tightness = market_tightness();
    let calm = FleetConfig {
        market: market_config(&tightness[2], AdmissionPolicy::Greedy),
        ..FleetConfig::default()
    };
    let flaky = FleetConfig {
        faults: FaultPlan {
            seed: 29,
            crash_prob: 0.04,
            abort_prob: 0.03,
            straggler_prob: 0.05,
            straggler_factor: 4.0,
            ..FaultPlan::NONE
        },
        retry: RetryPolicy {
            max_attempts: 4,
            backoff_base_secs: 0.5,
            backoff_cap_secs: 8.0,
            budget_per_sec: 2.0,
            budget_burst: 8.0,
            hedge_delay_secs: 1.0,
            ..RetryPolicy::DEFAULT
        },
        ..calm
    };

    let tag = spec.tag();
    let parts = spec.gz_parts(8);
    let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
    let trace = StreamTrace::from_csv_parts(&refs).expect("scan gz day parts");

    let mut group = c.benchmark_group("retry_storm");
    group.sample_size(10);
    group.bench_function(format!("{tag}_flaky_streaming"), |b| {
        b.iter(|| {
            sim.run_stream(&trace, PlacementStrategy::IdleAware, &flaky)
                .expect("replay")
        })
    });
    group.finish();

    // The instrumented pairs behind the overhead counters. Each pass is
    // normalized by the events *it* processes: a retry activation is a
    // full admission event (policy gate, best-fit, fresh fault draw), so
    // the flaky denominator is invocations plus retry activations —
    // otherwise genuine extra work would read as per-event overhead.
    // The two replays of a pair run back to back, alternating which goes
    // first, and the gate is the median of the per-pair ratios: a slow
    // stretch of the machine moves one pair, where it would move a ratio
    // of two best-of-N walls taken at different times.
    let pairs = 10;
    let mut ratios = Vec::with_capacity(pairs);
    let mut calm_best = f64::INFINITY;
    let mut flaky_best = f64::INFINITY;
    let mut calm_events = 0usize;
    let mut retried = 0usize;
    for pair in 0..pairs {
        let (mut calm_ns, mut flaky_ns) = (0.0, 0.0);
        for flaky_turn in [pair % 2 == 1, pair % 2 == 0] {
            let t0 = std::time::Instant::now();
            let report = sim
                .run_stream(
                    &trace,
                    PlacementStrategy::IdleAware,
                    if flaky_turn { &flaky } else { &calm },
                )
                .expect("replay");
            let wall_ns = t0.elapsed().as_secs_f64() * 1e9;
            if flaky_turn {
                retried = report.retried;
                flaky_ns = wall_ns / (report.invocations + report.retried) as f64;
            } else {
                calm_events = report.invocations;
                calm_ns = wall_ns / report.invocations as f64;
            }
            std::hint::black_box(report);
        }
        calm_best = calm_best.min(calm_ns);
        flaky_best = flaky_best.min(flaky_ns);
        ratios.push(flaky_ns / calm_ns);
    }
    assert!(retried > 0, "the flaky week must actually retry");
    ratios.sort_by(f64::total_cmp);
    let quartile = |q: f64| {
        let at = q * (pairs - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        ratios[lo] + (ratios[hi] - ratios[lo]) * (at - lo as f64)
    };
    let (q1, overhead, q3) = (quartile(0.25), quartile(0.5), quartile(0.75));
    println!(
        "bench retry_storm/{tag}: {flaky_best:.0} ns/event flaky vs {calm_best:.0} ns/event \
         faults-off (best of {pairs}), {overhead:.3}x retry overhead (median of {pairs} \
         pairs; IQR {:.3} from {q1:.3}x to {q3:.3}x; min-ratio {:.3}x; {retried} retries \
         over {calm_events} invocations)",
        q3 - q1,
        flaky_best / calm_best,
    );
    freedom_bench::report_counter(
        &format!("retry_storm/{tag}_flaky_ns_per_event"),
        flaky_best,
        "ns/event",
    );
    freedom_bench::report_counter(
        &format!("retry_storm/{tag}_faults_off_ns_per_event"),
        calm_best,
        "ns/event",
    );
    freedom_bench::report_counter(
        &format!("retry_storm/{tag}_retry_overhead"),
        overhead,
        "ratio",
    );
    // Reported first, so a run over the bar still leaves its numbers.
    assert!(
        overhead <= 1.10,
        "retry path costs {overhead:.3}x per event — over the 1.10x acceptance bar"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(8));
    targets = bench_experiments, bench_parallel_vs_sequential, bench_spot_market,
        bench_control_loop, bench_streaming_replay, bench_zone_outage, bench_week_replay,
        bench_retry_storm
}
criterion_main!(benches);
