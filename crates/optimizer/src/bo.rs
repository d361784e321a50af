//! Bayesian optimization with Expected Improvement (§5.1–§5.2).
//!
//! The loop mirrors scikit-optimize's `gp_minimize` family as the paper
//! uses it: 3 random initial samples bootstrap the surrogate, then each
//! step fits the surrogate on all feasible trials and evaluates the
//! configuration with the highest Expected Improvement among the untested
//! ones. OOM failures trigger the serverless adaptation of §5.1: instead
//! of assigning a large penalty (which creates a non-smooth objective),
//! the search space is *sliced*, removing every configuration whose memory
//! is at or below the failing limit.

use std::collections::HashSet;

use freedom_faas::ResourceConfig;
use freedom_linalg::normal;
use freedom_surrogates::{Surrogate, SurrogateKind};

use crate::{
    Evaluator, Objective, OptimizerError, RandomSearch, Result, Sampler, SearchSpace, Trial,
};

/// Which acquisition function guides the surrogate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acquisition {
    /// Expected Improvement with relative exploration bonus ξ (the
    /// paper's choice, via skopt).
    ExpectedImprovement,
    /// Lower confidence bound `μ − κ·σ` (minimization), an ablation
    /// alternative with an explicit exploration weight.
    LowerConfidenceBound {
        /// Exploration weight κ (skopt default: 1.96).
        kappa: f64,
    },
}

/// How function failures feed back into the optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureHandling {
    /// §5.1: slice all configurations with memory ≤ the failing limit out
    /// of the search space (the paper's choice).
    Slice,
    /// Assign the failure a large objective value (the paper's rejected
    /// first attempt; kept for the ablation study).
    Penalty(f64),
}

/// Bayesian-optimization settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoConfig {
    /// Random samples used to bootstrap the surrogate (paper default: 3).
    pub n_initial: usize,
    /// Total evaluation budget including initial samples (paper: 20).
    pub budget: usize,
    /// EI exploration bonus ξ, *relative* to the incumbent's magnitude.
    ///
    /// scikit-optimize applies an absolute ξ to normalized targets; since
    /// our surrogates normalize internally, the equivalent here is scaling
    /// ξ by `|best|` — objectives measured in microdollars then explore
    /// exactly like objectives measured in seconds.
    pub xi: f64,
    /// Acquisition function.
    pub acquisition: Acquisition,
    /// Failure feedback mode.
    pub failure_handling: FailureHandling,
    /// Seed for initial samples and surrogate randomness.
    pub seed: u64,
    /// Full hyperparameter-search cadence for surrogates with a warm
    /// refit path (the GP): a full candidate search every `refit_every`-th
    /// step, incremental updates in between. 1 = the naive from-scratch
    /// behavior at every step.
    pub surrogate_refit_every: usize,
}

impl Default for BoConfig {
    fn default() -> Self {
        Self {
            n_initial: 3,
            budget: 20,
            xi: 0.01,
            acquisition: Acquisition::ExpectedImprovement,
            failure_handling: FailureHandling::Slice,
            seed: 0,
            surrogate_refit_every: 4,
        }
    }
}

/// The complete history of one optimization run.
#[derive(Debug, Clone)]
pub struct OptimizationRun {
    /// Objective that was optimized.
    pub objective: Objective,
    /// Every evaluated trial, in order.
    pub trials: Vec<Trial>,
    /// Best feasible objective value after each trial (∞ before the first
    /// feasible one). Weighted objectives are normalized with the run's
    /// final `B_t`/`B_c`, so the curve is monotone non-increasing.
    pub best_value_by_step: Vec<f64>,
    /// How many configurations §5.1 slicing removed during the run.
    pub sliced_away: usize,
}

impl OptimizationRun {
    /// The Eq. 2 normalizers observed in this run: best (minimum) feasible
    /// execution time and cost. Falls back to 1.0 when nothing succeeded.
    pub fn bt_bc(&self) -> (f64, f64) {
        let mut bt = f64::INFINITY;
        let mut bc = f64::INFINITY;
        for t in self.trials.iter().filter(|t| !t.failed) {
            bt = bt.min(t.exec_time_secs);
            bc = bc.min(t.exec_cost_usd);
        }
        (
            if bt.is_finite() { bt } else { 1.0 },
            if bc.is_finite() { bc } else { 1.0 },
        )
    }

    /// The best feasible trial under the run's objective.
    pub fn best_feasible(&self) -> Option<&Trial> {
        let (bt, bc) = self.bt_bc();
        self.trials.iter().filter(|t| !t.failed).min_by(|a, b| {
            let va = self.objective.value(a, bt, bc).unwrap_or(f64::INFINITY);
            let vb = self.objective.value(b, bt, bc).unwrap_or(f64::INFINITY);
            va.total_cmp(&vb)
        })
    }

    /// The best feasible objective value, if any trial succeeded.
    pub fn best_value(&self) -> Option<f64> {
        let (bt, bc) = self.bt_bc();
        self.best_feasible()
            .and_then(|t| self.objective.value(t, bt, bc))
    }

    /// Number of failed trials.
    pub fn failures(&self) -> usize {
        self.trials.iter().filter(|t| t.failed).count()
    }

    /// The §5.1 slicing watermark this run discovered: the highest memory
    /// limit that OOM-killed a trial. Configurations at or below it are
    /// known-bad; interfaces recommending configurations must skip them.
    pub fn sliced_watermark(&self) -> Option<u32> {
        self.trials
            .iter()
            .filter(|t| t.failed)
            .map(|t| t.config.memory_mib())
            .max()
    }

    /// A copy of `space` with this run's slicing watermark applied.
    pub fn apply_slicing(&self, space: &SearchSpace) -> SearchSpace {
        let mut out = space.clone();
        if let Some(w) = self.sliced_watermark() {
            out.slice_failed_memory(w);
        }
        out
    }
}

/// Expected Improvement for minimization.
///
/// `EI(x) = (best − μ − ξ)·Φ(z) + σ·φ(z)` with `z = (best − μ − ξ)/σ`;
/// when `σ = 0` it degenerates to `max(best − μ − ξ, 0)`.
///
/// # Examples
///
/// ```
/// use freedom_optimizer::expected_improvement;
///
/// // A candidate predicted well below the incumbent has high EI…
/// let good = expected_improvement(5.0, 1.0, 10.0, 0.01);
/// // …a candidate predicted above it, low EI.
/// let bad = expected_improvement(15.0, 1.0, 10.0, 0.01);
/// assert!(good > bad);
/// assert!(bad >= 0.0);
/// ```
pub fn expected_improvement(mean: f64, std: f64, best: f64, xi: f64) -> f64 {
    let improvement = best - mean - xi;
    if std <= 1e-12 {
        return improvement.max(0.0);
    }
    let z = improvement / std;
    (improvement * normal::cdf(z) + std * normal::pdf(z)).max(0.0)
}

/// The model-based optimizer: a surrogate kind plus loop settings.
#[derive(Debug, Clone)]
pub struct BayesianOptimizer {
    kind: SurrogateKind,
    config: BoConfig,
}

impl BayesianOptimizer {
    /// Creates an optimizer.
    pub fn new(kind: SurrogateKind, config: BoConfig) -> Self {
        Self { kind, config }
    }

    /// The surrogate variant in use.
    pub fn surrogate_kind(&self) -> SurrogateKind {
        self.kind
    }

    /// Runs the optimization loop.
    ///
    /// Returns [`OptimizerError::BudgetTooSmall`] when the budget cannot
    /// cover the initial samples and [`OptimizerError::EmptySearchSpace`]
    /// when there is nothing to optimize over.
    pub fn optimize(
        &self,
        space: &SearchSpace,
        evaluator: &mut dyn Evaluator,
        objective: Objective,
    ) -> Result<OptimizationRun> {
        let cfg = &self.config;
        if cfg.budget < cfg.n_initial || cfg.budget == 0 {
            return Err(OptimizerError::BudgetTooSmall {
                budget: cfg.budget,
                n_initial: cfg.n_initial,
            });
        }
        if space.is_empty() {
            return Err(OptimizerError::EmptySearchSpace);
        }

        let mut space = space.clone();
        let mut trials: Vec<Trial> = Vec::with_capacity(cfg.budget);
        let mut sliced_away = 0;
        // Configurations already evaluated: O(1) membership beats the old
        // per-candidate scan over the trial list (O(budget²) per step).
        let mut tried: HashSet<ResourceConfig> = HashSet::with_capacity(cfg.budget * 2);

        // Phase 1: random bootstrap samples. Samples are drawn up front;
        // any that a §5.1 slice removes mid-phase are skipped rather than
        // evaluated into a known failure.
        let mut bootstrap = RandomSearch::new(cfg.seed);
        for config in bootstrap.sample(&space, cfg.n_initial)? {
            if !space.contains(&config) {
                continue;
            }
            let trial = evaluator.evaluate(&config)?;
            tried.insert(config);
            sliced_away += self.slice_on_failure(&mut space, &trial);
            trials.push(trial);
        }

        // Phase 2: surrogate-guided acquisition. One surrogate instance is
        // threaded through the whole loop so models with incremental refit
        // paths (the GP) can reuse the previous step's state; `fit_update`
        // reseeds per step, so stateless models behave exactly like the
        // old rebuild-per-step pattern.
        let mut surrogate = self.build_surrogate(cfg.seed);
        // Feature encodings for the current space, computed once and
        // invalidated only when slicing shrinks the space.
        let mut encoded: Vec<Vec<f64>> = space.configs().iter().map(SearchSpace::encode).collect();
        let mut step = 0u64;
        while trials.len() < cfg.budget {
            step += 1;
            if space.configs().iter().all(|c| tried.contains(c)) {
                break; // everything reachable has been measured
            }

            let fitted = self.refit(surrogate.as_mut(), &trials, objective, cfg.seed + step);
            let next = if fitted {
                let best = current_best(&trials, objective).unwrap_or(f64::INFINITY);
                // Scale ξ to the incumbent so EI is unit-free (costs
                // are ~1e-5 USD, times ~1e1 s).
                let xi = if best.is_finite() {
                    cfg.xi * best.abs().max(f64::MIN_POSITIVE)
                } else {
                    cfg.xi
                };
                // Predict the whole (stable) space rather than just the
                // untested configs: the candidate set is then identical
                // across steps, which lets the surrogate's batched
                // predictor reuse its cross-kernel cache; already-tried
                // configs are skipped during scoring.
                let predictions = surrogate.predict_batch_mut(&encoded)?;
                let mut best_candidate = None;
                let mut best_score = f64::NEG_INFINITY;
                for (c, p) in space.configs().iter().zip(&predictions) {
                    if tried.contains(c) {
                        continue;
                    }
                    // Higher score = more attractive to evaluate next.
                    let score = match cfg.acquisition {
                        Acquisition::ExpectedImprovement => {
                            expected_improvement(p.mean, p.std, best, xi)
                        }
                        Acquisition::LowerConfidenceBound { kappa } => -(p.mean - kappa * p.std),
                    };
                    if best_candidate.is_none() || score > best_score {
                        best_score = score;
                        best_candidate = Some(*c);
                    }
                }
                best_candidate.expect("at least one untried config exists")
            } else {
                // Not enough feasible data to fit yet: keep sampling.
                let mut fallback = RandomSearch::new(cfg.seed ^ step.rotate_left(17));
                match fallback
                    .sample(&space, space.len())?
                    .into_iter()
                    .find(|c| !tried.contains(c))
                {
                    Some(c) => c,
                    None => break,
                }
            };

            let trial = evaluator.evaluate(&next)?;
            tried.insert(next);
            let removed = self.slice_on_failure(&mut space, &trial);
            if removed > 0 {
                sliced_away += removed;
                encoded = space.configs().iter().map(SearchSpace::encode).collect();
            }
            trials.push(trial);
        }

        Ok(finish_run(objective, trials, sliced_away))
    }

    /// Builds the loop's persistent surrogate, threading the configured
    /// full-refit cadence into surrogates that support warm updates.
    fn build_surrogate(&self, seed: u64) -> Box<dyn Surrogate> {
        match self.kind {
            SurrogateKind::Gp => Box::new(freedom_surrogates::GaussianProcess::new(
                freedom_surrogates::GpConfig {
                    refit_every: self.config.surrogate_refit_every.max(1),
                    ..freedom_surrogates::GpConfig::default()
                },
                seed,
            )),
            kind => kind.build(seed),
        }
    }

    /// Refits the loop's persistent surrogate via its incremental path;
    /// `false` when there is not enough data or the fit failed.
    fn refit(
        &self,
        model: &mut dyn Surrogate,
        trials: &[Trial],
        objective: Objective,
        step_seed: u64,
    ) -> bool {
        let (x, y) = self.training_set(trials, objective);
        if x.len() < 2 {
            return false;
        }
        model.fit_update(&x, &y, step_seed).is_ok()
    }

    /// Fits this optimizer's surrogate kind on the feasible trials (plus
    /// penalized failures when configured); `None` when there is not
    /// enough data.
    pub fn fit_on_trials(
        &self,
        trials: &[Trial],
        objective: Objective,
        seed: u64,
    ) -> Option<Box<dyn Surrogate>> {
        let (x, y) = self.training_set(trials, objective);
        if x.len() < 2 {
            return None;
        }
        let mut model = self.kind.build(seed);
        model.fit(&x, &y).ok()?;
        Some(model)
    }

    fn training_set(&self, trials: &[Trial], objective: Objective) -> (Vec<Vec<f64>>, Vec<f64>) {
        let (bt, bc) = normalizers(trials);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for t in trials {
            match objective.value(t, bt, bc) {
                Some(v) => {
                    x.push(SearchSpace::encode(&t.config));
                    y.push(v);
                }
                None => {
                    if let FailureHandling::Penalty(p) = self.config.failure_handling {
                        x.push(SearchSpace::encode(&t.config));
                        y.push(p);
                    }
                }
            }
        }
        (x, y)
    }

    /// Applies failure feedback; returns how many configs were sliced.
    fn slice_on_failure(&self, space: &mut SearchSpace, trial: &Trial) -> usize {
        if trial.failed && matches!(self.config.failure_handling, FailureHandling::Slice) {
            space.slice_failed_memory(trial.config.memory_mib())
        } else {
            0
        }
    }
}

/// Runs a pure sampling-based search (§5.2's Random/LHS baselines): draw
/// the whole budget up front, evaluate every sample, and report the same
/// [`OptimizationRun`] shape as the model-based loop.
///
/// Sampling methods have no feedback step, so §5.1 slicing does not apply;
/// failed samples simply consume budget.
pub fn run_sampling(
    sampler: &mut dyn crate::Sampler,
    space: &SearchSpace,
    evaluator: &mut dyn Evaluator,
    objective: Objective,
    budget: usize,
) -> Result<OptimizationRun> {
    if budget == 0 {
        return Err(OptimizerError::BudgetTooSmall {
            budget,
            n_initial: 1,
        });
    }
    if space.is_empty() {
        return Err(OptimizerError::EmptySearchSpace);
    }
    let mut trials = Vec::with_capacity(budget);
    for config in sampler.sample(space, budget)? {
        trials.push(evaluator.evaluate(&config)?);
    }
    Ok(finish_run(objective, trials, 0))
}

fn normalizers(trials: &[Trial]) -> (f64, f64) {
    let mut bt = f64::INFINITY;
    let mut bc = f64::INFINITY;
    for t in trials.iter().filter(|t| !t.failed) {
        bt = bt.min(t.exec_time_secs);
        bc = bc.min(t.exec_cost_usd);
    }
    (
        if bt.is_finite() { bt } else { 1.0 },
        if bc.is_finite() { bc } else { 1.0 },
    )
}

fn current_best(trials: &[Trial], objective: Objective) -> Option<f64> {
    let (bt, bc) = normalizers(trials);
    trials
        .iter()
        .filter_map(|t| objective.value(t, bt, bc))
        .min_by(f64::total_cmp)
}

fn finish_run(objective: Objective, trials: Vec<Trial>, sliced_away: usize) -> OptimizationRun {
    let (bt, bc) = normalizers(&trials);
    let mut best = f64::INFINITY;
    let best_value_by_step = trials
        .iter()
        .map(|t| {
            if let Some(v) = objective.value(t, bt, bc) {
                best = best.min(v);
            }
            best
        })
        .collect();
    OptimizationRun {
        objective,
        trials,
        best_value_by_step,
        sliced_away,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnEvaluator;
    use freedom_faas::ResourceConfig;

    /// A smooth synthetic objective with a unique optimum at
    /// (share=2.0, mem=512, c5): time falls with share, cost rises with
    /// memory, families shift both.
    fn synthetic(config: &ResourceConfig) -> Trial {
        let share = config.cpu_share();
        let mem = config.memory_mib() as f64;
        let fam_penalty = match config.family() {
            freedom_cluster::InstanceFamily::C5 => 0.0,
            freedom_cluster::InstanceFamily::M5 => 1.0,
            _ => 2.0,
        };
        Trial {
            config: *config,
            exec_time_secs: 10.0 / share + fam_penalty + (mem / 512.0 - 1.0).powi(2),
            exec_cost_usd: (0.01 * share + 1e-5 * mem) * (10.0 / share + fam_penalty),
            failed: false,
        }
    }

    fn synthetic_with_oom(config: &ResourceConfig) -> Trial {
        let mut t = synthetic(config);
        if config.memory_mib() < 512 {
            t.failed = true;
        }
        t
    }

    fn run_bo(kind: SurrogateKind, seed: u64, oom: bool) -> OptimizationRun {
        let space = SearchSpace::table1();
        let mut eval = FnEvaluator::new(|c: &ResourceConfig| {
            Ok(if oom {
                synthetic_with_oom(c)
            } else {
                synthetic(c)
            })
        });
        BayesianOptimizer::new(
            kind,
            BoConfig {
                seed,
                ..BoConfig::default()
            },
        )
        .optimize(&space, &mut eval, Objective::ExecutionTime)
        .unwrap()
    }

    #[test]
    fn gp_bo_approaches_the_synthetic_optimum() {
        // Global optimum: share 2.0 on c5 with mem 512 → ET = 5.0. Like the
        // paper, judge the median over repeated runs (§5.2 repeats 10×).
        let bests: Vec<f64> = (1..=5)
            .map(|seed| {
                let run = run_bo(SurrogateKind::Gp, seed, false);
                assert_eq!(run.trials.len(), 20);
                run.best_value().unwrap()
            })
            .collect();
        let median = freedom_linalg::stats::median(&bests).unwrap();
        assert!(median <= 5.0 * 1.10, "median best {median} not within 10%");
        let overall = bests.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(overall <= 5.0 * 1.05, "no run within 5%: {bests:?}");
    }

    #[test]
    fn all_variants_stay_within_budget_and_improve() {
        for kind in SurrogateKind::ALL {
            let run = run_bo(kind, 3, false);
            assert!(run.trials.len() <= 20);
            let curve = &run.best_value_by_step;
            // The convergence curve is monotone non-increasing.
            for w in curve.windows(2) {
                assert!(w[1] <= w[0] + 1e-12, "{kind}: curve not monotone");
            }
            // And it ends no worse than random's typical value.
            assert!(run.best_value().unwrap() < 8.0, "{kind}");
        }
    }

    #[test]
    fn slicing_removes_failing_memory_levels() {
        let run = run_bo(SurrogateKind::Gp, 7, true);
        assert!(run.sliced_away > 0);
        // After the first OOM at 128/256, no later trial revisits a sliced
        // memory level below the watermark discovered so far.
        let mut watermark = 0;
        for t in &run.trials {
            if watermark > 0 {
                assert!(
                    t.config.memory_mib() > watermark,
                    "revisited sliced level {} after watermark {watermark}",
                    t.config.memory_mib()
                );
            }
            if t.failed {
                watermark = watermark.max(t.config.memory_mib());
            }
        }
        assert!(run.failures() > 0 || run.sliced_away == 0);
    }

    #[test]
    fn penalty_mode_keeps_failed_points_in_training() {
        let space = SearchSpace::table1();
        let mut eval = FnEvaluator::new(|c: &ResourceConfig| Ok(synthetic_with_oom(c)));
        let run = BayesianOptimizer::new(
            SurrogateKind::Gp,
            BoConfig {
                failure_handling: FailureHandling::Penalty(1000.0),
                seed: 5,
                ..BoConfig::default()
            },
        )
        .optimize(&space, &mut eval, Objective::ExecutionTime)
        .unwrap();
        assert_eq!(run.sliced_away, 0);
        assert!(run.best_value().unwrap() < 10.0);
    }

    #[test]
    fn budget_validation() {
        let space = SearchSpace::table1();
        let mut eval = FnEvaluator::new(|c: &ResourceConfig| Ok(synthetic(c)));
        let err = BayesianOptimizer::new(
            SurrogateKind::Gp,
            BoConfig {
                budget: 2,
                n_initial: 3,
                ..BoConfig::default()
            },
        )
        .optimize(&space, &mut eval, Objective::ExecutionTime)
        .unwrap_err();
        assert!(matches!(err, OptimizerError::BudgetTooSmall { .. }));
    }

    #[test]
    fn empty_space_is_rejected() {
        let mut space = SearchSpace::table1();
        space.slice_failed_memory(4096);
        let mut eval = FnEvaluator::new(|c: &ResourceConfig| Ok(synthetic(c)));
        let err = BayesianOptimizer::new(SurrogateKind::Gp, BoConfig::default())
            .optimize(&space, &mut eval, Objective::ExecutionTime)
            .unwrap_err();
        assert_eq!(err, OptimizerError::EmptySearchSpace);
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let a = run_bo(SurrogateKind::Rf, 11, false);
        let b = run_bo(SurrogateKind::Rf, 11, false);
        assert_eq!(a.trials, b.trials);
        let c = run_bo(SurrogateKind::Rf, 12, false);
        assert_ne!(a.trials, c.trials);
    }

    #[test]
    fn ei_properties() {
        // More uncertainty in a tied mean ⇒ more EI.
        let tight = expected_improvement(10.0, 0.1, 10.0, 0.0);
        let loose = expected_improvement(10.0, 2.0, 10.0, 0.0);
        assert!(loose > tight);
        // Zero std degenerates to plain improvement.
        assert_eq!(expected_improvement(4.0, 0.0, 10.0, 0.0), 6.0);
        assert_eq!(expected_improvement(14.0, 0.0, 10.0, 0.0), 0.0);
        // EI is never negative.
        assert!(expected_improvement(100.0, 3.0, 0.0, 0.0) >= 0.0);
    }

    #[test]
    fn lcb_acquisition_also_converges() {
        let space = SearchSpace::table1();
        let mut eval = FnEvaluator::new(|c: &ResourceConfig| Ok(synthetic(c)));
        let run = BayesianOptimizer::new(
            SurrogateKind::Gp,
            BoConfig {
                acquisition: Acquisition::LowerConfidenceBound { kappa: 1.96 },
                seed: 2,
                ..BoConfig::default()
            },
        )
        .optimize(&space, &mut eval, Objective::ExecutionTime)
        .unwrap();
        // Optimum is 5.0; LCB should land in the same neighbourhood as EI.
        let best = run.best_value().unwrap();
        assert!(best < 6.5, "LCB best {best}");
    }

    #[test]
    fn sampling_run_uses_the_whole_budget() {
        let space = SearchSpace::table1();
        let mut eval = FnEvaluator::new(|c: &ResourceConfig| Ok(synthetic(c)));
        let mut sampler = crate::RandomSearch::new(4);
        let run = run_sampling(
            &mut sampler,
            &space,
            &mut eval,
            Objective::ExecutionTime,
            20,
        )
        .unwrap();
        assert_eq!(run.trials.len(), 20);
        assert_eq!(run.sliced_away, 0);
        assert!(run.best_value().unwrap() >= 5.0);
        let mut lhs = crate::LatinHypercube::new(4);
        assert!(run_sampling(&mut lhs, &space, &mut eval, Objective::ExecutionTime, 0).is_err());
    }

    #[test]
    fn weighted_objective_runs_end_to_end() {
        let space = SearchSpace::table1();
        let mut eval = FnEvaluator::new(|c: &ResourceConfig| Ok(synthetic(c)));
        let run = BayesianOptimizer::new(SurrogateKind::Gp, BoConfig::default())
            .optimize(&space, &mut eval, Objective::weighted(0.5, 0.5).unwrap())
            .unwrap();
        // Weighted values are ~1 at the per-metric optima, so the best
        // combined value is bounded by wt + wc = 1 from below.
        let best = run.best_value().unwrap();
        assert!(best >= 1.0 - 1e-9);
        assert!(best < 2.5);
    }
}
