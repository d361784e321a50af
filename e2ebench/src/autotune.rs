//! The `autotune` workload: the paper's offline tuner (§5),
//! `Autotuner::tune_offline` over the 288-point decoupled space of
//! Table 1, for every benchmark function × surrogate × {ET, EC} objective
//! × 4 tuning seeds (192 sequential runs of budget 20 per pass).
//!
//! The surrogates, linear algebra and optimizer do almost all of the
//! work; gateway evaluation is a small share and the fleet layers do
//! none. The traced run rebuilds each `tune_offline` call from its public
//! parts (gateway deploy, `BayesianOptimizer::optimize` with a timing
//! evaluator, the final `fit_on_trials`), checks that the rebuilt run
//! equals the real one, and replays each run's trials through a fresh
//! surrogate of its kind to time fits and predictions.

use std::collections::BTreeMap;
use std::time::Instant;

use freedom::{Autotuner, GatewayEvaluator};
use freedom_faas::{collect_ground_truth, FunctionSpec, Gateway, ResourceConfig};
use freedom_optimizer::{BayesianOptimizer, BoConfig, Evaluator, Objective, SearchSpace, Trial};
use freedom_surrogates::{GaussianProcess, GpConfig, Surrogate, SurrogateKind};
use freedom_workloads::FunctionKind;

use crate::measure::{self, fnv64, median, mix, quantile, Outcome, Tracer};
use crate::Args;

/// Tuning seeds per (function, surrogate, objective) in one pass.
const SEEDS_PER_CELL: u64 = 4;
/// Distinct seed sets an untraced run scores (2304 runs: enough that the
/// mean regret barely depends on the workload seed); later passes repeat
/// them and must reproduce them exactly.
const SEED_SETS: usize = 12;
/// The two single objectives of the paper's convergence study.
const OBJECTIVES: [Objective; 2] = [Objective::ExecutionTime, Objective::ExecutionCost];
/// Ground truth: repetitions per configuration and gateway seed.
const GT_REPS: usize = 5;
const GT_SEED: u64 = 42;
/// Repetitions per offline trial (what `tune_offline` profiles with).
const OFFLINE_REPS: usize = 5;
/// SLO of a profiling invocation: within θ of the function's fastest
/// configuration.
const SLO_THETA: f64 = 0.10;
/// After every pass, set-up is repeated for at least this long (and at
/// least once); the slot's mean is one sample, so samples spread over the
/// run and each averages out the machine's millisecond-scale stalls.
/// `setup_s` is the median of the samples.
const SETUP_SLOT_S: f64 = 0.1;
/// Tuning runs between two calibration samples.
const CALIBRATE_EVERY: usize = 16;
/// Fewest rounds a traced run makes; it starts another only when that
/// round is expected to end within `--seconds`.
const MIN_ROUNDS: usize = 2;

/// One tuning run of a pass.
#[derive(Clone, Copy)]
struct Cell {
    function: FunctionKind,
    kind: SurrogateKind,
    objective: Objective,
    seed: u64,
}

/// The 192 runs of seed set `set`.
fn cells(seed: u64, set: usize) -> Vec<Cell> {
    let mut out = Vec::new();
    for function in FunctionKind::ALL {
        for kind in SurrogateKind::ALL {
            for objective in OBJECTIVES {
                for r in 0..SEEDS_PER_CELL {
                    out.push(Cell {
                        function,
                        kind,
                        objective,
                        seed: mix(seed ^ mix(set as u64 * SEEDS_PER_CELL + r)),
                    });
                }
            }
        }
    }
    out
}

/// Ground truth per function: the table's optimum per objective, and
/// lookups of any configuration's true time and cost.
struct Truth {
    tables: Vec<freedom_faas::PerfTable>,
}

impl Truth {
    fn collect() -> Result<Truth, String> {
        let space = SearchSpace::table1();
        let tables = FunctionKind::ALL
            .iter()
            .map(|&f| {
                collect_ground_truth(f, &f.default_input(), space.configs(), GT_REPS, GT_SEED)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Truth { tables })
    }

    fn table(&self, f: FunctionKind) -> &freedom_faas::PerfTable {
        let i = FunctionKind::ALL
            .iter()
            .position(|&k| k == f)
            .expect("every function has a table");
        &self.tables[i]
    }

    fn value(objective: Objective, time: f64, cost: f64) -> f64 {
        match objective {
            Objective::ExecutionTime => time,
            _ => cost,
        }
    }

    fn optimum(&self, f: FunctionKind, objective: Objective) -> f64 {
        let t = self.table(f);
        match objective {
            Objective::ExecutionTime => t.best_by_time().map_or(f64::NAN, |p| p.exec_time_secs),
            _ => t.best_by_cost().map_or(f64::NAN, |p| p.exec_cost_usd),
        }
    }

    /// True (time, cost) of `config`; `None` when it OOMs or is unknown.
    fn of(&self, f: FunctionKind, config: &ResourceConfig) -> Option<(f64, f64)> {
        self.table(f)
            .lookup(config)
            .filter(|p| !p.failed)
            .map(|p| (p.exec_time_secs, p.exec_cost_usd))
    }
}

/// Simulated outcome of one run, scored against the ground truth.
struct Scored {
    digest: u64,
    trials: usize,
    /// Regret of the recommendation as a fraction of the optimum, and its
    /// true cost; `None` without a feasible recommendation.
    regret_cost: Option<(f64, f64)>,
    /// Trials whose measured time missed the SLO (failures included).
    slo_missed: usize,
}

fn score(truth: &Truth, cell: &Cell, trials: &[Trial], rec: Option<ResourceConfig>) -> Scored {
    let fastest = truth.optimum(cell.function, Objective::ExecutionTime);
    let optimum = truth.optimum(cell.function, cell.objective);
    Scored {
        digest: fnv64(format!("{trials:?}{rec:?}").as_bytes()),
        trials: trials.len(),
        regret_cost: rec
            .and_then(|c| truth.of(cell.function, &c))
            .map(|(time, cost)| {
                let v = Truth::value(cell.objective, time, cost);
                ((v - optimum) / optimum, cost)
            }),
        slo_missed: trials
            .iter()
            .filter(|t| t.failed || t.exec_time_secs > (1.0 + SLO_THETA) * fastest)
            .count(),
    }
}

/// Runs the `autotune` workload, untraced or traced.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let t0 = Instant::now();
    let truth = Truth::collect()?;
    let first_setup = t0.elapsed().as_secs_f64();
    if args.trace {
        traced(&truth, args, &mut out)?;
    } else {
        untraced(&truth, args, first_setup, &mut out)?;
    }
    Ok(out)
}

/// End-to-end: passes of 192 `tune_offline` runs until the time is up
/// and every seed set ran once and the first ran twice. Timings cover
/// every run of every pass.
fn untraced(truth: &Truth, args: &Args, first_setup: f64, out: &mut Outcome) -> Result<(), String> {
    let budget = BoConfig::default().budget;
    let mut setups = vec![first_setup * measure::speed_factor(&[measure::calibration_s()])];
    let start = Instant::now();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut raw_s = 0.0;
    let mut scored: Vec<Vec<Scored>> = Vec::new();
    while passes.len() <= SEED_SETS || start.elapsed().as_secs_f64() < args.seconds {
        let set = passes.len() % SEED_SETS;
        let mut ms = Vec::new();
        let mut calibration = Vec::new();
        for (i, cell) in cells(args.seed, set).iter().enumerate() {
            if i % CALIBRATE_EVERY == 0 {
                calibration.push(measure::calibration_s());
            }
            let t0 = Instant::now();
            let outcome = Autotuner::new(cell.kind)
                .tune_offline(
                    cell.function,
                    &cell.function.default_input(),
                    cell.objective,
                    cell.seed,
                )
                .map_err(|e| e.to_string())?;
            ms.push(1e3 * t0.elapsed().as_secs_f64());
            let s = score(truth, cell, &outcome.run.trials, outcome.recommended());
            out.attempted += 1;
            out.failed += u64::from(s.regret_cost.is_none());
            if passes.len() < SEED_SETS {
                out.checks.check(s.trials == budget, || {
                    format!("run {i} of set {set} used {} of {budget} trials", s.trials)
                });
                if i == 0 {
                    scored.push(Vec::new());
                }
                scored[set].push(s);
            } else {
                out.checks.check(s.digest == scored[set][i].digest, || {
                    format!("run {i} of seed set {set} did not repeat identically")
                });
            }
        }
        calibration.push(measure::calibration_s());
        raw_s += ms.iter().sum::<f64>() / 1e3;
        let speed = measure::speed_factor(&calibration);
        passes.push(ms.iter().map(|m| m * speed).collect());
        let slot = Instant::now();
        let (mut secs, mut n) = (0.0, 0);
        let mut again = None;
        while n == 0 || slot.elapsed().as_secs_f64() < SETUP_SLOT_S {
            let t0 = Instant::now();
            again = Some(Truth::collect()?);
            secs += t0.elapsed().as_secs_f64();
            n += 1;
        }
        let speed = measure::speed_factor(&[measure::calibration_s()]);
        setups.push(secs / n as f64 * speed);
        out.checks.check(
            again.is_some_and(|a| format!("{:?}", a.tables) == format!("{:?}", truth.tables)),
            || "ground truth is not a pure function of its seed".into(),
        );
    }
    let all: Vec<&Scored> = scored.iter().flatten().collect();
    let runs = all.len();
    let recommended: Vec<(f64, f64)> = all.iter().filter_map(|s| s.regret_cost).collect();
    let trials: usize = all.iter().map(|s| s.trials).sum();
    let slo_missed: usize = all.iter().map(|s| s.slo_missed).sum();
    let digest = fnv64(
        all.iter()
            .flat_map(|s| s.digest.to_le_bytes())
            .collect::<Vec<u8>>()
            .as_slice(),
    );
    let pass_s: Vec<f64> = passes.iter().map(|p| p.iter().sum::<f64>() / 1e3).collect();
    let ms: Vec<f64> = passes.concat();
    println!("run ms: {}", measure::deciles(&ms));
    let setups_ms: Vec<f64> = setups.iter().map(|s| 1e3 * s).collect();
    println!(
        "set-up ms (ground truth of 6 functions): {}",
        measure::deciles(&setups_ms)
    );
    println!(
        "passes: {} ({SEED_SETS} distinct seed sets × {} runs); pass seconds at nominal \
         speed {pass_s:.3?}; digest {digest:016x}",
        passes.len(),
        runs / SEED_SETS,
    );
    println!(
        "wall clock: {:.0} trials/s, machine at {:.2}× nominal speed",
        (ms.len() * budget) as f64 / raw_s,
        pass_s.iter().sum::<f64>() / raw_s,
    );
    let k = recommended.len().max(1) as f64;
    out.set("setup_s", median(&setups));
    out.set(
        "events_per_s",
        (ms.len() * budget) as f64 / pass_s.iter().sum::<f64>(),
    );
    out.set("tune_ms_p50", median(&ms));
    out.set("tune_ms_p90", quantile(&ms, 0.9));
    out.set("peak_rss_mb", measure::peak_rss_mb());
    out.set(
        "cost_per_1k_usd",
        1e3 * recommended.iter().map(|r| r.1).sum::<f64>() / k,
    );
    out.set(
        "slo_violation_pct",
        100.0 * slo_missed as f64 / trials.max(1) as f64,
    );
    out.set(
        "regret_pct",
        100.0 * recommended.iter().map(|r| r.0).sum::<f64>() / k,
    );
    out.set(
        "goodput_pct",
        100.0 * recommended.len() as f64 / runs.max(1) as f64,
    );
    Ok(())
}

/// Times each evaluation the optimizer asks for.
struct TimedEval {
    inner: GatewayEvaluator,
    secs: f64,
    trials: usize,
    failed: usize,
}

impl Evaluator for TimedEval {
    fn evaluate(&mut self, config: &ResourceConfig) -> freedom_optimizer::Result<Trial> {
        let t0 = Instant::now();
        let trial = self.inner.evaluate(config);
        self.secs += t0.elapsed().as_secs_f64();
        if let Ok(t) = &trial {
            self.trials += 1;
            self.failed += usize::from(t.failed);
        }
        trial
    }
}

/// The surrogate the BO loop threads through a run (the GP with the
/// loop's full-refit cadence, the others as their kind builds them).
fn loop_surrogate(kind: SurrogateKind, seed: u64) -> Box<dyn Surrogate> {
    match kind {
        SurrogateKind::Gp => Box::new(GaussianProcess::new(
            GpConfig {
                refit_every: BoConfig::default().surrogate_refit_every.max(1),
                ..GpConfig::default()
            },
            seed,
        )),
        kind => kind.build(seed),
    }
}

/// Fit and predict seconds of one run's trials replayed through a fresh
/// surrogate: at every BO step, a warm refit on the trials so far and a
/// prediction over the (sliced) space.
struct SurrogateCost {
    fit_s: f64,
    predict_s: f64,
    steps: usize,
}

fn replay_surrogate(cell: &Cell, trials: &[Trial]) -> Result<SurrogateCost, String> {
    let n_init = BoConfig::default().n_initial.min(trials.len());
    let mut model = loop_surrogate(cell.kind, cell.seed);
    let mut space = SearchSpace::table1();
    for t in trials[..n_init].iter().filter(|t| t.failed) {
        space.slice_failed_memory(t.config.memory_mib());
    }
    let mut encoded: Vec<Vec<f64>> = space.configs().iter().map(SearchSpace::encode).collect();
    let mut cost = SurrogateCost {
        fit_s: 0.0,
        predict_s: 0.0,
        steps: 0,
    };
    for (step, next) in trials[n_init..].iter().enumerate() {
        let seen = &trials[..n_init + step];
        let (x, y): (Vec<Vec<f64>>, Vec<f64>) = seen
            .iter()
            .filter_map(|t| {
                cell.objective
                    .value(t, 1.0, 1.0)
                    .map(|v| (SearchSpace::encode(&t.config), v))
            })
            .unzip();
        if x.len() >= 2 {
            let t0 = Instant::now();
            model
                .fit_update(&x, &y, cell.seed + step as u64 + 1)
                .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            std::hint::black_box(
                model
                    .predict_batch_mut(&encoded)
                    .map_err(|e| e.to_string())?,
            );
            cost.fit_s += (t1 - t0).as_secs_f64();
            cost.predict_s += t1.elapsed().as_secs_f64();
            cost.steps += 1;
        }
        if next.failed && space.slice_failed_memory(next.config.memory_mib()) > 0 {
            encoded = space.configs().iter().map(SearchSpace::encode).collect();
        }
    }
    Ok(cost)
}

/// Per-layer sums of one pass.
#[derive(Default)]
struct PassCost {
    e2e_s: f64,
    deploy_s: f64,
    optimize_s: f64,
    evaluate_s: f64,
    final_fit_s: f64,
    fit_s: f64,
    predict_s: f64,
    fit_steps: usize,
    trials: usize,
    failed_trials: usize,
    bo_steps: usize,
    sliced_away: usize,
    surrogate_s: BTreeMap<&'static str, f64>,
}

/// Per-layer: passes over seed set 0 until the time is up (at least
/// `MIN_ROUNDS`).
fn traced(truth: &Truth, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut tr = Tracer::new(&format!("autotune seed {}", args.seed));
    let space = SearchSpace::table1();
    let initial = space.configs()[0];
    let cells = cells(args.seed, 0);
    let mut passes: Vec<PassCost> = Vec::new();
    let start = Instant::now();
    let mut round_s = 0.0;
    while passes.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() + round_s <= args.seconds {
        let round_start = Instant::now();
        let mut p = PassCost::default();
        for (i, cell) in cells.iter().enumerate() {
            let input = cell.function.default_input();
            let (reference, s) = tr.time("autotune.tune_offline", || {
                Autotuner::new(cell.kind).tune_offline(
                    cell.function,
                    &input,
                    cell.objective,
                    cell.seed,
                )
            });
            let reference = reference.map_err(|e| e.to_string())?;
            p.e2e_s += s;

            let (gateway, s) = tr.time("faas.gateway_deploy", || {
                let mut gw = Gateway::new(cell.seed)?;
                gw.deploy(
                    FunctionSpec::new(cell.function.name(), cell.function),
                    initial,
                )?;
                Ok::<_, freedom_faas::FaasError>(gw)
            });
            p.deploy_s += s;
            let mut eval = TimedEval {
                inner: GatewayEvaluator::new(
                    gateway.map_err(|e| e.to_string())?,
                    cell.function.name(),
                    input.clone(),
                    OFFLINE_REPS,
                ),
                secs: 0.0,
                trials: 0,
                failed: 0,
            };
            let optimizer = BayesianOptimizer::new(
                cell.kind,
                BoConfig {
                    seed: cell.seed,
                    ..BoConfig::default()
                },
            );
            let (run, s) = tr.time("optimizer.optimize", || {
                optimizer.optimize(&space, &mut eval, cell.objective)
            });
            let run = run.map_err(|e| e.to_string())?;
            p.optimize_s += s;
            p.evaluate_s += eval.secs;
            p.trials += eval.trials;
            p.failed_trials += eval.failed;
            p.bo_steps += run
                .trials
                .len()
                .saturating_sub(BoConfig::default().n_initial);
            p.sliced_away += run.sliced_away;
            let (model, s) = tr.time("surrogates.fit_on_trials", || {
                optimizer.fit_on_trials(&run.trials, cell.objective, cell.seed)
            });
            p.final_fit_s += s;
            out.checks.check(
                run.trials == reference.run.trials && model.is_some() == reference.model.is_some(),
                || format!("rebuilt run {i} differs from tune_offline"),
            );

            let (cost, _) = tr.time("surrogates.replay", || replay_surrogate(cell, &run.trials));
            let cost = cost?;
            p.fit_s += cost.fit_s;
            p.predict_s += cost.predict_s;
            p.fit_steps += cost.steps;
            *p.surrogate_s.entry(cell.kind.name()).or_default() += cost.fit_s + cost.predict_s;
            let s = score(truth, cell, &run.trials, reference.recommended());
            out.attempted += 1;
            out.failed += u64::from(s.regret_cost.is_none());
        }
        passes.push(p);
        round_s = round_start.elapsed().as_secs_f64();
    }
    let m = |f: &dyn Fn(&PassCost) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let surrogate = m(&|p| p.fit_s + p.predict_s);
    let rows = [
        ("faas: gateway deploy", 1e3 * m(&|p| p.deploy_s)),
        ("faas: evaluate", 1e3 * m(&|p| p.evaluate_s)),
        ("surrogates: fit + predict", 1e3 * surrogate),
        (
            "optimizer: acquisition",
            1e3 * (m(&|p| p.optimize_s - p.evaluate_s) - surrogate),
        ),
        ("surrogates: final fit", 1e3 * m(&|p| p.final_fit_s)),
    ];
    let e2e = m(&|p| p.e2e_s);
    let rebuilt = m(&|p| p.deploy_s + p.optimize_s + p.final_fit_s);
    let overhead = rebuilt / e2e;
    println!("passes: {} of {} runs", passes.len(), cells.len());
    let residual = measure::print_attribution(
        &format!("autotune, ms per pass of {} runs", cells.len()),
        &rows,
        1e3 * e2e,
        overhead,
    );
    let p = &passes[0];
    let trials = p.trials.max(1) as f64;
    let runs_of = |kind: SurrogateKind| cells.iter().filter(|c| c.kind == kind).count().max(1);
    out.set(
        "faas.evaluate_us_per_trial",
        1e6 * m(&|p| p.evaluate_s) / trials,
    );
    out.set("faas.trials", p.trials as f64);
    out.set("faas.failed_trials", p.failed_trials as f64);
    out.set(
        "optimizer.step_us",
        1e6 * m(&|p| p.optimize_s - p.evaluate_s) / p.bo_steps.max(1) as f64,
    );
    out.set("optimizer.sliced_away", p.sliced_away as f64);
    for (kind, metric) in [
        (SurrogateKind::Gp, "surrogates.gp_ms_per_run"),
        (SurrogateKind::Rf, "surrogates.rf_ms_per_run"),
        (SurrogateKind::Et, "surrogates.et_ms_per_run"),
        (SurrogateKind::Gbrt, "surrogates.gbrt_ms_per_run"),
    ] {
        let s = m(&|p| p.surrogate_s.get(kind.name()).copied().unwrap_or(0.0));
        out.set(metric, 1e3 * s / runs_of(kind) as f64);
    }
    let steps = p.fit_steps.max(1) as f64;
    out.set("surrogates.fit_us_per_step", 1e6 * m(&|p| p.fit_s) / steps);
    out.set(
        "surrogates.predict_us_per_step",
        1e6 * m(&|p| p.predict_s) / steps,
    );
    out.set("telemetry.overhead_ratio", overhead);
    out.set("attribution.residual_pct", residual);

    let path = args.spans_path();
    tr.finish(&path).map_err(|e| e.to_string())?;
    println!("spans: {}", path.display());
    Ok(())
}
