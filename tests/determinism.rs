//! Determinism across the whole stack: identical seeds replay identically,
//! different seeds diverge. Reproducibility is what makes the experiment
//! harness trustworthy.

use faas_freedom::optimizer::SearchSpace;
use faas_freedom::prelude::*;

#[test]
fn ground_truth_replays_identically() {
    let function = FunctionKind::Transcode;
    let input = function.default_input();
    let configs = SearchSpace::table1();
    let a = collect_ground_truth(function, &input, configs.configs(), 3, 77).unwrap();
    let b = collect_ground_truth(function, &input, configs.configs(), 3, 77).unwrap();
    assert_eq!(a.points(), b.points());
    let c = collect_ground_truth(function, &input, configs.configs(), 3, 78).unwrap();
    assert_ne!(a.points(), c.points());
}

#[test]
fn full_autotune_replays_identically() {
    let run = |seed| {
        Autotuner::new(SurrogateKind::Gp)
            .tune_offline(
                FunctionKind::Linpack,
                &FunctionKind::Linpack.default_input(),
                Objective::ExecutionCost,
                seed,
            )
            .unwrap()
    };
    let a = run(123);
    let b = run(123);
    assert_eq!(a.run.trials, b.run.trials);
    assert_eq!(a.recommended(), b.recommended());
    let c = run(124);
    assert_ne!(a.run.trials, c.run.trials);
}

#[test]
fn every_surrogate_kind_replays_identically() {
    let function = FunctionKind::S3;
    let table = collect_ground_truth(
        function,
        &function.default_input(),
        SearchSpace::table1().configs(),
        3,
        5,
    )
    .unwrap();
    for kind in SurrogateKind::ALL {
        let run_once = || {
            let mut evaluator = TableEvaluator::new(&table);
            BayesianOptimizer::new(
                kind,
                BoConfig {
                    seed: 9,
                    ..BoConfig::default()
                },
            )
            .optimize(
                &SearchSpace::table1(),
                &mut evaluator,
                Objective::ExecutionTime,
            )
            .unwrap()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.trials, b.trials, "{kind} diverged across replays");
    }
}

/// Every fig* experiment must produce bit-identical output whether its
/// repetitions run sequentially (threads = 1) or fanned out across cores.
/// `{:?}` formatting round-trips `f64`s exactly, so string equality is bit
/// equality of every number in the result.
#[test]
fn every_experiment_is_bit_identical_parallel_vs_sequential() {
    use freedom_experiments as exp;
    use freedom_experiments::ExperimentOpts;

    let sequential = ExperimentOpts::fast().with_threads(1);
    let parallel = ExperimentOpts::fast().with_threads(8);
    let objectives = [Objective::ExecutionTime, Objective::ExecutionCost];

    macro_rules! check {
        ($name:literal, $run:expr) => {{
            let run = $run;
            let a = format!("{:?}", run(&sequential));
            let b = format!("{:?}", run(&parallel));
            assert_eq!(a, b, "{} diverged between sequential and parallel", $name);
        }};
    }

    check!("fig01", |o: &ExperimentOpts| exp::fig01_config_spread::run(
        o
    )
    .unwrap());
    check!("fig03", |o: &ExperimentOpts| exp::fig03_strategies::run(o)
        .unwrap());
    check!("table3", |o: &ExperimentOpts| {
        exp::table3_alternatives::run(o).unwrap()
    });
    check!("fig04", |o: &ExperimentOpts| {
        exp::fig04_sampling_vs_bo::run(o).unwrap()
    });
    for objective in objectives {
        check!("fig05/06", |o: &ExperimentOpts| {
            exp::fig05_convergence::run(o, objective).unwrap()
        });
    }
    check!("fig07", |o: &ExperimentOpts| {
        exp::fig07_input_specific::run(o).unwrap()
    });
    check!("fig08", |o: &ExperimentOpts| {
        exp::fig08_online_violations::run(o).unwrap()
    });
    for scenario in [
        exp::fig09_mape::Scenario::WholeSpace,
        exp::fig09_mape::Scenario::PerFamilyBest,
    ] {
        check!("fig09/10", |o: &ExperimentOpts| exp::fig09_mape::run(
            o, scenario
        )
        .unwrap());
    }
    check!("fig12", |o: &ExperimentOpts| {
        exp::fig12_pareto_distance::run(o).unwrap()
    });
    check!("fig13", |o: &ExperimentOpts| exp::fig13_weighted_mo::run(o)
        .unwrap());
    check!("fig14", |o: &ExperimentOpts| exp::fig14_hierarchical::run(
        o
    )
    .unwrap());
    check!("fig15", |o: &ExperimentOpts| {
        exp::fig15_provider_savings::run(o).unwrap()
    });
    check!("ablation", |o: &ExperimentOpts| exp::ablation_study::run(o)
        .unwrap());
    check!("fleet", |o: &ExperimentOpts| exp::fleet_simulation::run(o)
        .unwrap());
    check!("control_loop", |o: &ExperimentOpts| {
        exp::fleet_control_loop::run(o).unwrap()
    });
}

/// Replays `lazy` through the resumable epoch chain at `epoch_secs`
/// epochs, uninterrupted.
fn chained(
    sim: &faas_freedom::core::fleet::FleetSimulator,
    lazy: &faas_freedom::core::fleet::StreamTrace,
    strategy: faas_freedom::core::fleet::PlacementStrategy,
    config: &faas_freedom::core::fleet::FleetConfig,
    epoch_secs: f64,
) -> faas_freedom::core::fleet::FleetReport {
    sim.run_stream_resumable(lazy, strategy, config, epoch_secs, None, |_| Ok(true))
        .unwrap()
        .expect("an uninterrupted run returns a report")
}

/// The resumable epoch chain must be bit-identical to the single pass on
/// the 120-function heavy-tail fleet for every placement strategy and
/// epoch size — including epochs short enough that in-flight placements
/// routinely cross boundaries and supply steps land mid-epoch, so the
/// carried state really does get exercised. Trace generation itself
/// must not depend on how many threads generated the streams. `{:?}`
/// formatting round-trips `f64`s exactly, so string equality is bit
/// equality.
#[test]
fn fleet_epoch_chain_matches_the_single_pass() {
    use faas_freedom::core::fleet::{
        AdmissionPolicy, FleetConfig, FleetSimulator, PlacementStrategy, StreamTrace,
        SupplyProcess, TraceSource,
    };
    use faas_freedom::core::market::MarketConfig;
    use freedom_experiments::fleet_simulation::synthetic_plans;

    let n_functions = 120;
    let duration = 300.0;
    let source = TraceSource::HeavyTail {
        mean_rps: 0.5,
        alpha: 1.5,
    };
    let lazy = StreamTrace::generate_sharded(source, n_functions, duration, 11, 8).unwrap();
    let trace = lazy.materialize().unwrap();
    let sharded_trace = source
        .generate_sharded(n_functions, duration, 11, 8)
        .unwrap();
    assert_eq!(
        trace.events(),
        sharded_trace.events(),
        "trace generation diverged across threads"
    );

    let plans = synthetic_plans(n_functions, 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    // A scarce, fluctuating market under admission control: carry-over
    // state, demotions, and policy rejections all cross epoch
    // boundaries.
    let config = FleetConfig {
        market: MarketConfig {
            vms_per_family: 3,
            supply: SupplyProcess {
                step_secs: 15.0,
                min_fraction: 0.3,
                seed: 21,
            },
            admission: AdmissionPolicy::Headroom {
                max_utilization: 0.85,
            },
            ..MarketConfig::default()
        },
        ..FleetConfig::default()
    };
    for strategy in PlacementStrategy::ALL {
        let sequential = sim.run(&trace, strategy, &config).unwrap();
        for epoch_secs in [1.0, 10.0, 60.0] {
            let epochs = chained(&sim, &lazy, strategy, &config, epoch_secs);
            assert_eq!(
                format!("{sequential:?}"),
                format!("{epochs:?}"),
                "{strategy:?} diverged at {epoch_secs}s epochs"
            );
        }
    }

    // The other workload shapes stress the carry differently (bursty
    // and diurnal traffic drain the market between bursts; steady
    // Poisson keeps boundaries dense): every generator gets an
    // epoch-chain-vs-single-pass bit-identity check too.
    for (name, source) in freedom_experiments::fleet_simulation::trace_sources(duration) {
        if name == "heavy_tail" {
            continue; // covered exhaustively above
        }
        let lazy = StreamTrace::generate_sharded(source, n_functions, duration, 11, 8).unwrap();
        let trace = lazy.materialize().unwrap();
        for strategy in PlacementStrategy::ALL {
            let sequential = sim.run(&trace, strategy, &config).unwrap();
            for epoch_secs in [10.0, 60.0] {
                let epochs = chained(&sim, &lazy, strategy, &config, epoch_secs);
                assert_eq!(
                    format!("{sequential:?}"),
                    format!("{epochs:?}"),
                    "{name}/{strategy:?} diverged at {epoch_secs}s epochs"
                );
            }
        }
    }
}

/// The closed control loop must not break epoch-chain determinism: with
/// any controller evolving admission and placements mid-replay, the
/// resumable epoch chain stays bit-identical to the single pass for
/// every epoch size — including 1 s epochs that slice every 15 s control
/// epoch across many boundaries and 1 / 2.5 / 5 s epochs that put every
/// tick exactly on a boundary, so carried controller state, partial
/// observation epochs, and boundary-owned ticks all get exercised.
#[test]
fn fleet_control_loop_is_epoch_chain_bit_identical() {
    use faas_freedom::core::fleet::{
        AdmissionPolicy, ControlConfig, ControllerConfig, FleetConfig, FleetSimulator, PidConfig,
        PlacementStrategy, RightSizerConfig, StreamTrace, SupplyProcess, TraceSource,
    };
    use faas_freedom::core::market::MarketConfig;
    use freedom_experiments::fleet_simulation::synthetic_plans;

    let n_functions = 120;
    let duration = 300.0;
    let lazy = StreamTrace::generate(
        TraceSource::HeavyTail {
            mean_rps: 0.5,
            alpha: 1.5,
        },
        n_functions,
        duration,
        11,
    )
    .unwrap();
    let trace = lazy.materialize().unwrap();
    let plans = synthetic_plans(n_functions, 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    for controller in [
        ControllerConfig::Static,
        ControllerConfig::HeadroomPid(PidConfig::default()),
        ControllerConfig::SurrogateRightSizer(RightSizerConfig::default()),
    ] {
        let config = FleetConfig {
            market: MarketConfig {
                vms_per_family: 3,
                supply: SupplyProcess {
                    step_secs: 15.0,
                    min_fraction: 0.3,
                    seed: 21,
                },
                admission: AdmissionPolicy::Headroom {
                    max_utilization: 0.85,
                },
                ..MarketConfig::default()
            },
            control: ControlConfig {
                cadence_secs: 15.0,
                controller,
            },
            ..FleetConfig::default()
        };
        let sequential = sim
            .run(&trace, PlacementStrategy::IdleAware, &config)
            .unwrap();
        assert!(
            !sequential.control.is_empty(),
            "{controller:?} must tick over a 300 s trace"
        );
        for epoch_secs in [1.0, 2.5, 5.0, 10.0, 60.0] {
            let epochs = chained(
                &sim,
                &lazy,
                PlacementStrategy::IdleAware,
                &config,
                epoch_secs,
            );
            assert_eq!(
                format!("{sequential:?}"),
                format!("{epochs:?}"),
                "{controller:?} diverged at {epoch_secs}s epochs"
            );
        }
    }
}

/// The streaming pipeline's acceptance guard: for every trace source —
/// the four synthetic generators plus the Azure CSV fixture streamed
/// through the chunked reader — and every controller, the streaming
/// replays (`run_stream`, and the resumable epoch chain at epochs
/// {1, 10, 60} s) are bit-identical to the materialized reference. The
/// 1 s epochs checkpoint the stream hundreds of times and slice every
/// control epoch across many boundaries, so cursor checkpoints, carried
/// controller state, and the CSV reader's mid-minute resumes all get
/// exercised together.
#[test]
fn streaming_replay_is_bit_identical_for_every_source_and_controller() {
    use faas_freedom::core::fleet::{
        AdmissionPolicy, ControlConfig, ControllerConfig, FleetConfig, FleetSimulator, PidConfig,
        PlacementStrategy, RightSizerConfig, StreamTrace, SupplyProcess,
    };
    use faas_freedom::core::market::MarketConfig;
    use freedom_experiments::fleet_simulation::{synthetic_plans, trace_sources, AZURE_FIXTURE};

    let n_functions = 120;
    let duration = 300.0;
    let mut traces: Vec<(&str, StreamTrace)> = trace_sources(duration)
        .iter()
        .map(|&(name, source)| {
            (
                name,
                StreamTrace::generate_sharded(source, n_functions, duration, 11, 8).unwrap(),
            )
        })
        .collect();
    traces.push(("azure", StreamTrace::from_csv(AZURE_FIXTURE).unwrap()));

    for (name, lazy) in &traces {
        let plans = synthetic_plans(lazy.n_functions(), 4).unwrap();
        let sim = FleetSimulator::new(plans).unwrap();
        let full = lazy.materialize().unwrap();
        assert_eq!(lazy.len(), full.len(), "{name} scan miscounted");
        for controller in [
            ControllerConfig::Static,
            ControllerConfig::HeadroomPid(PidConfig::default()),
            ControllerConfig::SurrogateRightSizer(RightSizerConfig::default()),
        ] {
            let config = FleetConfig {
                market: MarketConfig {
                    vms_per_family: 3,
                    supply: SupplyProcess {
                        step_secs: 15.0,
                        min_fraction: 0.3,
                        seed: 21,
                    },
                    admission: AdmissionPolicy::Headroom {
                        max_utilization: 0.85,
                    },
                    ..MarketConfig::default()
                },
                control: ControlConfig {
                    cadence_secs: 15.0,
                    controller,
                },
                ..FleetConfig::default()
            };
            let reference = sim
                .run(&full, PlacementStrategy::IdleAware, &config)
                .unwrap();
            let streamed = sim
                .run_stream(lazy, PlacementStrategy::IdleAware, &config)
                .unwrap();
            assert_eq!(
                format!("{reference:?}"),
                format!("{streamed:?}"),
                "{name}/{controller:?}: streaming diverged from materialized"
            );
            for epoch_secs in [1.0, 10.0, 60.0] {
                let epochs = chained(
                    &sim,
                    lazy,
                    PlacementStrategy::IdleAware,
                    &config,
                    epoch_secs,
                );
                assert_eq!(
                    format!("{reference:?}"),
                    format!("{epochs:?}"),
                    "{name}/{controller:?} diverged at {epoch_secs}s epochs"
                );
            }
        }
    }
}

/// The failure-domain acceptance row: with fault injection enabled —
/// zone outages, supply-shock bursts, and dropped notice deliveries over
/// a three-zone market with preemption notices — the determinism lattice
/// must keep holding. For two fault seeds and every controller, the
/// streaming replays (single pass, and the epoch chain at {1, 60} s
/// epochs) are bit-identical to the materialized reference. Faults are
/// precomputed simulated-time events, so nothing about injection may
/// depend on which entry point or epoch boundary observes it.
#[test]
fn fault_injection_preserves_the_determinism_lattice() {
    use faas_freedom::core::fleet::{
        AdmissionPolicy, ControlConfig, ControllerConfig, FaultPlan, FleetConfig, FleetSimulator,
        PidConfig, PlacementStrategy, RightSizerConfig, StreamTrace, SupplyProcess, TraceSource,
        ZoneConfig,
    };
    use faas_freedom::core::market::MarketConfig;
    use freedom_experiments::fleet_simulation::synthetic_plans;

    let n_functions = 120;
    let duration = 300.0;
    let lazy = StreamTrace::generate_sharded(
        TraceSource::HeavyTail {
            mean_rps: 0.5,
            alpha: 1.5,
        },
        n_functions,
        duration,
        11,
        8,
    )
    .unwrap();
    let full = lazy.materialize().unwrap();
    let plans = synthetic_plans(n_functions, 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();

    for fault_seed in [29, 31] {
        for controller in [
            ControllerConfig::Static,
            ControllerConfig::HeadroomPid(PidConfig::default()),
            ControllerConfig::SurrogateRightSizer(RightSizerConfig::default()),
        ] {
            let config = FleetConfig {
                market: MarketConfig {
                    vms_per_family: 3,
                    supply: SupplyProcess {
                        step_secs: 15.0,
                        min_fraction: 0.3,
                        seed: 21,
                    },
                    zones: ZoneConfig {
                        n_zones: 3,
                        notice_secs: 5.0,
                        shock: 0.5,
                        migration_rebill: 0.5,
                    },
                    admission: AdmissionPolicy::Headroom {
                        max_utilization: 0.85,
                    },
                    ..MarketConfig::default()
                },
                control: ControlConfig {
                    cadence_secs: 15.0,
                    controller,
                },
                faults: FaultPlan {
                    seed: fault_seed,
                    outage_rate_per_hour: 24.0,
                    mean_outage_secs: 30.0,
                    notice_drop_fraction: 0.25,
                    burst_rate_per_hour: 18.0,
                    mean_burst_secs: 15.0,
                    burst_severity: 0.5,
                    ..FaultPlan::NONE
                },
                ..FleetConfig::default()
            };
            let reference = sim
                .run(&full, PlacementStrategy::IdleAware, &config)
                .unwrap();
            // The faults must actually land on this trace, or the row
            // degenerates into the fault-free lattice already covered.
            assert!(
                reference.notified > 0
                    && reference.migrated + reference.drained + reference.spot_demoted > 0,
                "seed {fault_seed}/{controller:?}: inert fault plan: {reference:?}"
            );
            let streamed = sim
                .run_stream(&lazy, PlacementStrategy::IdleAware, &config)
                .unwrap();
            assert_eq!(
                format!("{reference:?}"),
                format!("{streamed:?}"),
                "seed {fault_seed}/{controller:?}: streaming diverged from materialized"
            );
            for epoch_secs in [1.0, 60.0] {
                let epochs = chained(
                    &sim,
                    &lazy,
                    PlacementStrategy::IdleAware,
                    &config,
                    epoch_secs,
                );
                assert_eq!(
                    format!("{reference:?}"),
                    format!("{epochs:?}"),
                    "seed {fault_seed}/{controller:?} diverged at {epoch_secs}s epochs"
                );
            }
        }
    }
}

/// The retry acceptance row: with per-invocation transient faults
/// (crash-on-start, mid-flight aborts, stragglers) and the full retry
/// stack — seeded backoff, hedged re-issue, per-family budgets,
/// brownout — layered on top of the zone-outage fault plan, the
/// determinism lattice must keep holding. For two fault seeds and every
/// controller, the streaming replays (single pass and epoch chain) are
/// bit-identical to the
/// materialized reference at {1, 60} s epochs. Retries are ordinary
/// simulated-time events (`completion < step < notice < retry < tick`),
/// so nothing about scheduling a backoff, racing a hedge, or draining a
/// budget may depend on which entry point or epoch boundary observes
/// it.
#[test]
fn retries_and_hedging_preserve_the_determinism_lattice() {
    use faas_freedom::core::fleet::{
        AdmissionPolicy, BrownoutConfig, ControlConfig, ControllerConfig, FaultPlan, FleetConfig,
        FleetSimulator, PidConfig, PlacementStrategy, RetryPolicy, RightSizerConfig, StreamTrace,
        SupplyProcess, TraceSource, ZoneConfig,
    };
    use faas_freedom::core::market::MarketConfig;
    use freedom_experiments::fleet_simulation::synthetic_plans;

    let n_functions = 120;
    let duration = 300.0;
    let lazy = StreamTrace::generate_sharded(
        TraceSource::HeavyTail {
            mean_rps: 0.5,
            alpha: 1.5,
        },
        n_functions,
        duration,
        11,
        8,
    )
    .unwrap();
    let full = lazy.materialize().unwrap();
    let plans = synthetic_plans(n_functions, 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();

    for fault_seed in [29, 31] {
        for controller in [
            ControllerConfig::Static,
            ControllerConfig::HeadroomPid(PidConfig::default()),
            ControllerConfig::SurrogateRightSizer(RightSizerConfig::default()),
        ] {
            let config = FleetConfig {
                market: MarketConfig {
                    vms_per_family: 3,
                    supply: SupplyProcess {
                        step_secs: 15.0,
                        min_fraction: 0.3,
                        seed: 21,
                    },
                    zones: ZoneConfig {
                        n_zones: 3,
                        notice_secs: 5.0,
                        shock: 0.5,
                        migration_rebill: 0.5,
                    },
                    admission: AdmissionPolicy::Headroom {
                        max_utilization: 0.85,
                    },
                    ..MarketConfig::default()
                },
                control: ControlConfig {
                    cadence_secs: 15.0,
                    controller,
                },
                faults: FaultPlan {
                    seed: fault_seed,
                    outage_rate_per_hour: 24.0,
                    mean_outage_secs: 30.0,
                    notice_drop_fraction: 0.25,
                    crash_prob: 0.06,
                    abort_prob: 0.05,
                    straggler_prob: 0.08,
                    straggler_factor: 4.0,
                    ..FaultPlan::NONE
                },
                retry: RetryPolicy {
                    max_attempts: 4,
                    backoff_base_secs: 0.5,
                    backoff_cap_secs: 8.0,
                    hedge_delay_secs: 2.0,
                    budget_per_sec: 1.0,
                    budget_burst: 4.0,
                    brownout: Some(BrownoutConfig {
                        enter_pressure: 0.2,
                        exit_pressure: 0.05,
                        utilization_ceiling: 0.7,
                    }),
                    ..RetryPolicy::DEFAULT
                },
                ..FleetConfig::default()
            };
            let reference = sim
                .run(&full, PlacementStrategy::IdleAware, &config)
                .unwrap();
            // The transients must actually bite on this trace, or the
            // row degenerates into the fault lattice already covered.
            assert!(
                reference.retried > 0,
                "seed {fault_seed}/{controller:?}: inert retry plan: {reference:?}"
            );
            let streamed = sim
                .run_stream(&lazy, PlacementStrategy::IdleAware, &config)
                .unwrap();
            assert_eq!(
                format!("{reference:?}"),
                format!("{streamed:?}"),
                "seed {fault_seed}/{controller:?}: streaming diverged from materialized"
            );
            for epoch_secs in [1.0, 60.0] {
                let epochs = chained(
                    &sim,
                    &lazy,
                    PlacementStrategy::IdleAware,
                    &config,
                    epoch_secs,
                );
                assert_eq!(
                    format!("{reference:?}"),
                    format!("{epochs:?}"),
                    "seed {fault_seed}/{controller:?} diverged at {epoch_secs}s epochs"
                );
            }
        }
    }
}

/// The GP's batched predictor must agree with per-point prediction bit for
/// bit, and the warm-start update loop must replay identically.
#[test]
fn gp_batched_and_incremental_paths_are_deterministic() {
    use faas_freedom::surrogates::{GaussianProcess, GpConfig, Surrogate};

    let x: Vec<Vec<f64>> = (0..18).map(|i| vec![i as f64 / 17.0]).collect();
    let y: Vec<f64> = x.iter().map(|r| (3.0 * r[0]).sin() + 2.0).collect();

    let mut gp = GaussianProcess::new(GpConfig::default(), 11);
    gp.fit(&x, &y).unwrap();
    let queries: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 49.0]).collect();
    let batch = gp.predict_batch(&queries).unwrap();
    for (q, b) in queries.iter().zip(&batch) {
        let single = gp.predict(q).unwrap();
        assert_eq!(single.mean.to_bits(), b.mean.to_bits());
        assert_eq!(single.std.to_bits(), b.std.to_bits());
    }

    // Replaying the same sequence of incremental updates is deterministic.
    let run_updates = || {
        let mut gp = GaussianProcess::new(GpConfig::default(), 11);
        gp.fit(&x[..10], &y[..10]).unwrap();
        for k in 11..=18 {
            gp.fit_update(&x[..k], &y[..k], 100 + k as u64).unwrap();
        }
        let preds = gp.predict_batch(&queries).unwrap();
        preds
            .iter()
            .flat_map(|p| [p.mean.to_bits(), p.std.to_bits()])
            .collect::<Vec<u64>>()
    };
    assert_eq!(run_updates(), run_updates());
}

#[test]
fn interfaces_replay_identically() {
    use faas_freedom::core::interfaces::pareto_interface;
    let a = pareto_interface(
        FunctionKind::Faceblur,
        &FunctionKind::Faceblur.default_input(),
        SurrogateKind::Gp,
        55,
    )
    .unwrap();
    let b = pareto_interface(
        FunctionKind::Faceblur,
        &FunctionKind::Faceblur.default_input(),
        SurrogateKind::Gp,
        55,
    )
    .unwrap();
    assert_eq!(a, b);
}

/// The ingestion acceptance row: one trace served three ways — the
/// materialized reference, a single plain CSV, and gzip'd multi-file
/// parts split mid-minute with bounded seam disorder — must replay
/// bit-identically for every controller, in one pass and as an epoch
/// chain at {1, 60} s epochs, and a crash/resume over the gz multi-file
/// stream must reproduce the uninterrupted report. This is the lattice the
/// week-scale bench leans on: streaming-over-gz ≡ streaming-over-plain
/// ≡ materialized, regardless of how the bytes were sliced into files.
#[test]
fn gz_multi_file_ingestion_preserves_the_determinism_lattice() {
    use faas_freedom::core::fleet::{
        AdmissionPolicy, ControlConfig, ControllerConfig, FleetConfig, FleetSimulator, PidConfig,
        PlacementStrategy, RightSizerConfig, StreamTrace, SupplyProcess,
    };
    use faas_freedom::core::market::MarketConfig;
    use freedom_experiments::fleet_simulation::synthetic_plans;

    // A 30-minute, 40-function trace with seeded counts; every function
    // appears in minute 0 so later seam disorder cannot reorder the
    // first-seen key assignment.
    const HEADER: &str = "app,func,minute,count\n";
    let n_functions = 40usize;
    let minutes = 30u64;
    let mut rows: Vec<String> = Vec::new();
    let mut state = 0x243f_6a88_85a3_08d3u64;
    for minute in 0..minutes {
        for f in 0..n_functions {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let count = 1 + (state >> 59); // 1..=32, never a skipped row
            rows.push(format!("app{},f{f},{minute},{count}\n", f % 7));
        }
    }

    // The single-file plain reference.
    let single = format!("{HEADER}{}", rows.concat());
    let plain = StreamTrace::from_csv(&single).unwrap();

    // Three files cut mid-minute (the row counts per file are not
    // multiples of the per-minute row count), each with its own header
    // — like per-day exports — then disorder at both interior
    // seams: the last pre-seam row trades places with the first
    // post-seam row, so each file's tail reaches one minute into its
    // neighbour. The reader merges the files' rows by minute, so this
    // is invisible to replay.
    let cut1 = 17 * n_functions + 11;
    let cut2 = 24 * n_functions + 29;
    let mut parts = [
        rows[..cut1].to_vec(),
        rows[cut1..cut2].to_vec(),
        rows[cut2..].to_vec(),
    ];
    for seam in [0usize, 1] {
        let tail = parts[seam].pop().unwrap();
        let head = parts[seam + 1].remove(0);
        parts[seam].push(head);
        parts[seam + 1].insert(0, tail);
    }
    let gz_parts: Vec<Vec<u8>> = parts
        .iter()
        .enumerate()
        .map(|(i, lines)| {
            let csv = format!("{HEADER}{}", lines.concat());
            let mode = if i % 2 == 0 {
                flate::CompressMode::FixedHuffman
            } else {
                flate::CompressMode::Stored
            };
            flate::gzip_compress(csv.as_bytes(), mode)
        })
        .collect();
    let refs: Vec<&[u8]> = gz_parts.iter().map(|p| p.as_slice()).collect();
    let gz = StreamTrace::from_csv_parts(&refs).unwrap();

    assert_eq!(plain.len(), gz.len(), "multi-file scan miscounted");
    assert_eq!(plain.n_functions(), gz.n_functions());
    let full = plain.materialize().unwrap();

    let sim = FleetSimulator::new(synthetic_plans(plain.n_functions(), 4).unwrap()).unwrap();
    for controller in [
        ControllerConfig::Static,
        ControllerConfig::HeadroomPid(PidConfig::default()),
        ControllerConfig::SurrogateRightSizer(RightSizerConfig::default()),
    ] {
        let config = FleetConfig {
            market: MarketConfig {
                vms_per_family: 3,
                supply: SupplyProcess {
                    step_secs: 15.0,
                    min_fraction: 0.3,
                    seed: 21,
                },
                admission: AdmissionPolicy::Headroom {
                    max_utilization: 0.85,
                },
                ..MarketConfig::default()
            },
            control: ControlConfig {
                cadence_secs: 15.0,
                controller,
            },
            ..FleetConfig::default()
        };
        let reference = sim
            .run(&full, PlacementStrategy::IdleAware, &config)
            .unwrap();
        for (label, lazy) in [("plain", &plain), ("gz-multi", &gz)] {
            let streamed = sim
                .run_stream(lazy, PlacementStrategy::IdleAware, &config)
                .unwrap();
            assert_eq!(
                format!("{reference:?}"),
                format!("{streamed:?}"),
                "{label}/{controller:?}: streaming diverged from materialized"
            );
            for epoch_secs in [1.0, 60.0] {
                let epochs = chained(
                    &sim,
                    lazy,
                    PlacementStrategy::IdleAware,
                    &config,
                    epoch_secs,
                );
                assert_eq!(
                    format!("{reference:?}"),
                    format!("{epochs:?}"),
                    "{label}/{controller:?} diverged at {epoch_secs}s epochs"
                );
            }
        }

        // Crash/resume over the gz multi-file stream: kill at a middle
        // snapshot boundary, resume from the persisted state, and the
        // stitched report must still match the materialized reference.
        let snapshot_secs = 120.0;
        let mut epochs = Vec::new();
        let uninterrupted = sim
            .run_stream_resumable(
                &gz,
                PlacementStrategy::IdleAware,
                &config,
                snapshot_secs,
                None,
                |s| {
                    epochs.push(s.epoch());
                    Ok(true)
                },
            )
            .unwrap()
            .expect("uninterrupted run completes");
        assert_eq!(format!("{reference:?}"), format!("{uninterrupted:?}"));
        assert!(epochs.len() >= 3, "want several boundaries, got {epochs:?}");
        let kill_at = epochs[epochs.len() / 2];
        let mut snap = None;
        let crashed = sim
            .run_stream_resumable(
                &gz,
                PlacementStrategy::IdleAware,
                &config,
                snapshot_secs,
                None,
                |s| {
                    snap = Some(s.clone());
                    Ok(s.epoch() < kill_at)
                },
            )
            .unwrap();
        assert!(crashed.is_none(), "the kill must abort the run");
        let resumed = sim
            .run_stream_resumable(
                &gz,
                PlacementStrategy::IdleAware,
                &config,
                snapshot_secs,
                Some(snap.as_ref().unwrap()),
                |_| Ok(true),
            )
            .unwrap()
            .expect("resumed run completes");
        assert_eq!(
            format!("{reference:?}"),
            format!("{resumed:?}"),
            "resume over gz multi-file diverged from the uninterrupted replay"
        );
    }
}

/// The observability acceptance row: attaching a live telemetry
/// recorder must not move a single bit of the replay. For every
/// controller, the single pass and the epoch chain at {1, 60} s epochs
/// replay with `Telemetry` attached, and the `FleetReport` must be
/// bit-identical to the recorder-free run — telemetry is strictly
/// observational. On top of the report identity, the counters the
/// recorder collected are cross-checked against the report's own
/// ledger (arrivals, policy rejections, capacity misses) and the
/// chain's own shape (one window per epoch, one snapshot per interior
/// boundary).
#[test]
fn telemetry_recording_preserves_the_determinism_lattice() {
    use faas_freedom::core::fleet::{
        AdmissionPolicy, ControlConfig, ControllerConfig, FleetConfig, FleetSimulator, PidConfig,
        PlacementStrategy, RightSizerConfig, StreamTrace, SupplyProcess, Telemetry, TraceSource,
    };
    use faas_freedom::core::market::MarketConfig;
    use faas_freedom::core::telemetry::{Counter, Hist};
    use freedom_experiments::fleet_simulation::synthetic_plans;

    let n_functions = 120;
    let duration = 300.0;
    let lazy = StreamTrace::generate_sharded(
        TraceSource::HeavyTail {
            mean_rps: 0.5,
            alpha: 1.5,
        },
        n_functions,
        duration,
        11,
        8,
    )
    .unwrap();
    let sim = FleetSimulator::new(synthetic_plans(n_functions, 4).unwrap()).unwrap();

    for controller in [
        ControllerConfig::Static,
        ControllerConfig::HeadroomPid(PidConfig::default()),
        ControllerConfig::SurrogateRightSizer(RightSizerConfig::default()),
    ] {
        let config = FleetConfig {
            market: MarketConfig {
                vms_per_family: 3,
                supply: SupplyProcess {
                    step_secs: 15.0,
                    min_fraction: 0.3,
                    seed: 21,
                },
                admission: AdmissionPolicy::Headroom {
                    max_utilization: 0.85,
                },
                ..MarketConfig::default()
            },
            control: ControlConfig {
                cadence_secs: 15.0,
                controller,
            },
            ..FleetConfig::default()
        };

        // Single pass: telemetry-off vs telemetry-on.
        let off = sim
            .run_stream(&lazy, PlacementStrategy::IdleAware, &config)
            .unwrap();
        let mut tel = Telemetry::new();
        let (on, stats) = sim
            .run_stream_traced(&lazy, PlacementStrategy::IdleAware, &config, &mut tel)
            .unwrap();
        assert_eq!(
            format!("{off:?}"),
            format!("{on:?}"),
            "{controller:?}: a live recorder moved the streaming report"
        );
        assert_eq!(stats.events, lazy.len());
        // The recorder's ledger must agree with the report's.
        assert_eq!(tel.counter(Counter::Arrivals), on.invocations as u64);
        assert_eq!(
            tel.counter(Counter::PolicyRejected),
            on.policy_rejections as u64
        );
        assert_eq!(
            tel.counter(Counter::CapacityMissed),
            on.capacity_misses as u64
        );
        assert!(tel.counter(Counter::SupplySteps) > 0, "no supply steps");
        assert!(
            tel.counter(Counter::ControllerTicks) > 0,
            "no controller ticks"
        );
        // Every tick's wall time lands in its histogram; the values are
        // host time, so only the count is pinned.
        assert_eq!(
            tel.hist(Hist::ControllerTickNanos).count(),
            tel.counter(Counter::ControllerTicks)
        );

        // Epoch chain: telemetry-off vs telemetry-on at every epoch size.
        for epoch_secs in [1.0, 60.0] {
            let coff = sim
                .run_stream_resumable(
                    &lazy,
                    PlacementStrategy::IdleAware,
                    &config,
                    epoch_secs,
                    None,
                    |_| Ok(true),
                )
                .unwrap()
                .expect("an uninterrupted run returns a report");
            let mut ctel = Telemetry::new();
            let mut snapshots = 0u64;
            let con = sim
                .run_stream_resumable_traced(
                    &lazy,
                    PlacementStrategy::IdleAware,
                    &config,
                    epoch_secs,
                    None,
                    &mut ctel,
                    |_, _| {
                        snapshots += 1;
                        Ok(true)
                    },
                )
                .unwrap()
                .expect("an uninterrupted run returns a report");
            assert_eq!(
                format!("{coff:?}"),
                format!("{con:?}"),
                "{controller:?}: a live recorder moved the chained report \
                 at {epoch_secs}s epochs"
            );
            assert_eq!(
                format!("{off:?}"),
                format!("{con:?}"),
                "{controller:?}: the traced chain diverged from the single pass \
                 at {epoch_secs}s epochs"
            );
            assert_eq!(ctel.counter(Counter::Arrivals), con.invocations as u64);
            assert_eq!(ctel.counter(Counter::SnapshotsWritten), snapshots);
            assert_eq!(ctel.counter(Counter::WindowsSimulated), snapshots + 1);
        }
    }
}
