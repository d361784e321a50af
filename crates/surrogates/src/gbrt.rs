//! Gradient-boosted regression trees with quantile uncertainty.
//!
//! skopt's GBRT surrogate estimates uncertainty by training three boosted
//! ensembles at the 0.16, 0.50, and 0.84 quantiles (±1σ of a normal) and
//! taking `std = (q84 − q16) / 2`. We implement quantile boosting directly:
//! shallow CART trees fitted to the quantile-loss pseudo-residuals, with
//! the leaf values replaced by the in-leaf residual quantile (the classic
//! "line search" step of gradient boosting).
//!
//! Batch prediction keeps a [`PrefixCache`] across calls: a warm update
//! keeps each model's first ¾ of the trees, so a batch after one sums
//! only the re-boosted tail onto the cached sums of the kept trees.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tree::{CandidateSet, DecisionTree, GrowScratch, TrainingSetCopy, TreeConfig};
use crate::{validate_points, validate_training_set, Prediction, Surrogate, SurrogateError};

/// Configuration of the boosted ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbrtConfig {
    /// Boosting rounds per quantile model.
    pub n_estimators: usize,
    /// Shrinkage (learning rate).
    pub learning_rate: f64,
    /// Depth of each weak learner.
    pub max_depth: usize,
    /// Warm-start [`Surrogate::fit_update`]: when the training set grew
    /// by exactly one row since the previous fit, reuse the previous
    /// ensemble's first ¾ of the trees and re-boost only the tail on the
    /// extended data, instead of rebuilding all three quantile models
    /// from scratch. Early trees capture the coarse response surface and
    /// barely move when one trial is appended; the refreshed tail
    /// absorbs the new information. Any other update (first fit, resized
    /// or edited training set — e.g. when the BO loop's normalizers
    /// shift) falls back to a full refit automatically.
    pub warm_start: bool,
    /// With `warm_start`, rebuild the full ensemble from scratch on
    /// every `warm_refit_every`-th update anyway (mirroring
    /// `GpConfig::refit_every`): kept trees slowly drift away from the
    /// grown training set, and a periodic full boost re-syncs them so
    /// the approximation error cannot compound across a whole BO run.
    pub warm_refit_every: usize,
}

impl Default for GbrtConfig {
    fn default() -> Self {
        Self {
            n_estimators: 80,
            learning_rate: 0.1,
            max_depth: 3,
            warm_start: true,
            warm_refit_every: 4,
        }
    }
}

impl GbrtConfig {
    /// Trees of each quantile model a warm refit keeps.
    fn kept_trees(&self) -> usize {
        (self.n_estimators * 3) / 4
    }
}

/// One boosted quantile model: an initial constant plus scaled trees whose
/// leaf "means" hold the in-leaf residual quantile.
#[derive(Debug, Clone)]
struct QuantileModel {
    tau: f64,
    init: f64,
    trees: Vec<DecisionTree>,
    learning_rate: f64,
}

/// Buffers of one boosting pass, reused across its rounds and models.
#[derive(Debug, Default)]
struct BoostScratch {
    grow: GrowScratch,
    /// Running predictions at the training rows.
    pred: Vec<f64>,
    /// Quantile-loss pseudo-residuals of the current round.
    grad: Vec<f64>,
    /// `(leaf key, row)` pairs, sorted to group the rows by key.
    keys: Vec<(u64, usize)>,
    /// One group's residuals, sorted for its quantile.
    residuals: Vec<f64>,
    /// Per-row leaf values the revalued tree is fitted on.
    targets: Vec<f64>,
}

impl QuantileModel {
    fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        tau: f64,
        config: &GbrtConfig,
        rng: &mut StdRng,
        scratch: &mut BoostScratch,
    ) -> Self {
        scratch.residuals.clear();
        scratch.residuals.extend_from_slice(y);
        let init = quantile(&mut scratch.residuals, tau);
        let mut model = Self {
            tau,
            init,
            trees: Vec::with_capacity(config.n_estimators),
            learning_rate: config.learning_rate,
        };
        scratch.pred.clear();
        scratch.pred.resize(y.len(), init);
        model.boost(x, y, config.n_estimators, config, rng, scratch);
        model
    }

    /// Appends `rounds` boosted trees, continuing from the running
    /// predictions `scratch.pred` (which it keeps up to date).
    fn boost(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        rounds: usize,
        config: &GbrtConfig,
        rng: &mut StdRng,
        scratch: &mut BoostScratch,
    ) {
        let tau = self.tau;
        let tree_config = TreeConfig {
            max_depth: Some(config.max_depth),
            min_samples_leaf: 2,
            ..TreeConfig::default()
        };
        for _ in 0..rounds {
            // Quantile-loss pseudo-residuals: tau above, tau-1 below.
            scratch.grad.clear();
            scratch
                .grad
                .extend(
                    y.iter()
                        .zip(&scratch.pred)
                        .map(|(yi, fi)| if yi > fi { tau } else { tau - 1.0 }),
                );
            // Grow the structure on the gradient, then re-value the leaves
            // with the tau-quantile of the actual residuals routed to them.
            let structure = DecisionTree::fit_with(
                x,
                &scratch.grad,
                None,
                &tree_config,
                rng,
                &mut scratch.grow,
            );
            let tree = revalue_leaves(&structure, x, y, tau, scratch);
            for (p, xi) in scratch.pred.iter_mut().zip(x) {
                *p += config.learning_rate * tree.predict_mean(xi);
            }
            self.trees.push(tree);
        }
    }

    /// Warm refit after one appended sample: keep the first `keep`
    /// trees (fitted on the old data — their structure barely moves for
    /// a one-row extension), replay their predictions over the extended
    /// training set, and re-boost only the remaining rounds.
    fn warm_refit(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        keep: usize,
        config: &GbrtConfig,
        rng: &mut StdRng,
        scratch: &mut BoostScratch,
    ) {
        self.trees.truncate(keep);
        scratch.pred.clear();
        scratch.pred.extend(x.iter().map(|xi| {
            self.init
                + self.learning_rate * self.trees.iter().map(|t| t.predict_mean(xi)).sum::<f64>()
        }));
        let rounds = config.n_estimators.saturating_sub(self.trees.len());
        self.boost(x, y, rounds, config, rng, scratch);
    }
}

/// Rebuilds a tree whose leaves hold the tau-quantile of
/// `y - scratch.pred` over the training rows grouped with them.
///
/// We keep this simple by refitting a tree on per-sample targets: every
/// row's target becomes its group's residual quantile, and a deep exact
/// tree fitted on those targets reproduces them at the training rows, up
/// to its variance floor (rows with equal features fall in one leaf, so
/// they share a target). Between training rows its thresholds, and so
/// its predictions, can differ from the structure tree's.
fn revalue_leaves(
    structure: &DecisionTree,
    x: &[Vec<f64>],
    y: &[f64],
    tau: f64,
    scratch: &mut BoostScratch,
) -> DecisionTree {
    let BoostScratch {
        grow,
        pred,
        keys,
        residuals,
        targets,
        ..
    } = scratch;
    // Group the samples by leaf key (see `leaf_path_id`: rows of distinct
    // leaves can share a key, and then pool their residuals). A group's
    // quantile does not depend on its rows' order.
    keys.clear();
    keys.extend(
        x.iter()
            .enumerate()
            .map(|(i, xi)| (leaf_path_id(structure, xi), i)),
    );
    keys.sort_unstable();
    targets.clear();
    targets.resize(x.len(), 0.0);
    for group in keys.chunk_by(|a, b| a.0 == b.0) {
        residuals.clear();
        residuals.extend(group.iter().map(|&(_, i)| y[i] - pred[i]));
        let q = quantile(residuals, tau);
        for &(_, i) in group {
            targets[i] = q;
        }
    }
    // A deterministic exact tree on the piecewise-constant targets.
    let mut rng = StdRng::seed_from_u64(0);
    DecisionTree::fit_with(x, targets, None, &TreeConfig::default(), &mut rng, grow)
}

/// The key [`revalue_leaves`] groups training rows by: the bits of the
/// leaf's mean, variance and count, XOR-folded. It is not a leaf's
/// identity. Distinct leaves with equal statistics share it, which is
/// common because the structure tree is grown on a two-valued gradient,
/// and so can leaves whose folded bits collide; their rows then pool
/// their residuals into one quantile. Keying by leaf would change the
/// fitted models, so the key stays as it is.
fn leaf_path_id(tree: &DecisionTree, point: &[f64]) -> u64 {
    let stats = tree.leaf_stats(point);
    let mut h = stats.mean.to_bits() ^ stats.var.to_bits().rotate_left(17);
    h ^= (stats.count as u64).rotate_left(33);
    h
}

/// The linearly interpolated `tau`-quantile of `values`, which it sorts
/// in place.
fn quantile(values: &mut [f64], tau: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    // `total_cmp` equality is bit equality, so an unstable sort leaves
    // the same array a stable one would.
    values.sort_unstable_by(f64::total_cmp);
    let pos = tau.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    values[lo] * (1.0 - frac) + values[hi] * frac
}

/// Per-candidate tree sums of the three quantile models from the previous
/// batch prediction.
#[derive(Debug, Clone, Default)]
struct PrefixCache {
    points: CandidateSet,
    /// The [`GradientBoosting`] fit generation `kept` was summed under;
    /// 0, which no fit hands out, marks no sums.
    generation: u64,
    /// Per model and candidate, the sum over the model's first
    /// [`GbrtConfig::kept_trees`] trees, model-major.
    kept: Vec<f64>,
    /// Per model and candidate, the sum over all trees, laid out like
    /// `kept`.
    sums: Vec<f64>,
}

/// The GBRT surrogate: three quantile ensembles (0.16 / 0.50 / 0.84).
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    config: GbrtConfig,
    seed: u64,
    models: Option<[QuantileModel; 3]>,
    dim: usize,
    /// The training set of the last fit, kept to detect the
    /// one-row-appended case [`GbrtConfig::warm_start`] accelerates.
    train: TrainingSetCopy,
    /// Consecutive warm updates since the last full boost.
    warm_streak: usize,
    /// Full boosts so far. A warm refit keeps each model's first
    /// [`GbrtConfig::kept_trees`] trees, so those change only when this
    /// does.
    generation: u64,
    cache: PrefixCache,
}

impl GradientBoosting {
    /// Creates an unfitted GBRT surrogate.
    pub fn new(config: GbrtConfig, seed: u64) -> Self {
        Self {
            config,
            seed,
            models: None,
            dim: 0,
            train: TrainingSetCopy::default(),
            warm_streak: 0,
            generation: 0,
            cache: PrefixCache::default(),
        }
    }

    /// skopt-flavoured defaults (80 rounds, depth 3, lr 0.1).
    pub fn with_defaults(seed: u64) -> Self {
        Self::new(GbrtConfig::default(), seed)
    }

    /// The one prediction path: `predict` and `predict_batch` pass an
    /// empty cache, `predict_batch_mut` the model's own. With sums of the
    /// current generation's kept trees for these candidates in `cache`,
    /// only the trees after them are walked. Each candidate's sum adds
    /// the trees in order, starting from −0.0 as `Iterator::sum` does, so
    /// a cached sum continued over the tail has the bits of a full one.
    fn predict_with(
        &self,
        points: &[Vec<f64>],
        cache: &mut PrefixCache,
    ) -> crate::Result<Vec<Prediction>> {
        if points.is_empty() {
            return Ok(Vec::new());
        }
        let models = self.models.as_ref().ok_or(SurrogateError::NotFitted)?;
        validate_points(points, self.dim)?;
        let m = points.len();
        let reuse = cache.generation == self.generation && cache.points.holds(points, self.dim);
        if !reuse {
            cache.points.set(points);
            cache.kept.resize(3 * m, 0.0);
            cache.sums.resize(3 * m, 0.0);
        }
        for (k, model) in models.iter().enumerate() {
            let keep = self.config.kept_trees().min(model.trees.len());
            let kept = &mut cache.kept[k * m..(k + 1) * m];
            let sums = &mut cache.sums[k * m..(k + 1) * m];
            if reuse {
                sums.copy_from_slice(kept);
            } else {
                sums.fill(-0.0);
                for tree in &model.trees[..keep] {
                    for (s, p) in sums.iter_mut().zip(points) {
                        *s += tree.predict_mean(p);
                    }
                }
                kept.copy_from_slice(sums);
            }
            for tree in &model.trees[keep..] {
                for (s, p) in sums.iter_mut().zip(points) {
                    *s += tree.predict_mean(p);
                }
            }
        }
        cache.generation = self.generation;
        debug_assert_eq!(models[0].tau, 0.16);
        debug_assert_eq!(models[2].tau, 0.84);
        let (lo, rest) = cache.sums.split_at(m);
        let (mid, hi) = rest.split_at(m);
        let value = |model: &QuantileModel, sum: f64| model.init + model.learning_rate * sum;
        Ok(lo
            .iter()
            .zip(mid)
            .zip(hi)
            .map(|((&lo, &mid), &hi)| {
                let lo = value(&models[0], lo);
                let mid = value(&models[1], mid);
                let hi = value(&models[2], hi);
                Prediction {
                    mean: mid,
                    std: ((hi - lo) / 2.0).max(0.0),
                }
            })
            .collect())
    }
}

impl Surrogate for GradientBoosting {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> crate::Result<()> {
        self.dim = validate_training_set(x, y)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut scratch = BoostScratch::default();
        let q16 = QuantileModel::fit(x, y, 0.16, &self.config, &mut rng, &mut scratch);
        let q50 = QuantileModel::fit(x, y, 0.50, &self.config, &mut rng, &mut scratch);
        let q84 = QuantileModel::fit(x, y, 0.84, &self.config, &mut rng, &mut scratch);
        self.models = Some([q16, q50, q84]);
        self.generation += 1;
        self.train.store(x, y);
        // A full boost re-syncs everything: the warm cadence restarts.
        self.warm_streak = 0;
        Ok(())
    }

    /// Warm-start refit (see [`GbrtConfig::warm_start`]): when exactly
    /// one trial was appended since the last fit, each quantile model
    /// keeps its first ¾ trees and re-boosts only the tail on the
    /// extended data — ~4× less tree fitting per BO step. Every other
    /// shape of update falls back to the plain reseed-and-refit, so the
    /// result is always a deterministic function of the call sequence.
    fn fit_update(&mut self, x: &[Vec<f64>], y: &[f64], step_seed: u64) -> crate::Result<()> {
        let warm = self.config.warm_start
            && self.warm_streak + 1 < self.config.warm_refit_every.max(1)
            && self.models.is_some()
            && self.train.appended_one_row(x, y, self.dim);
        if !warm {
            self.warm_streak = 0;
            self.reseed(step_seed);
            return self.fit(x, y);
        }
        validate_training_set(x, y)?;
        let keep = self.config.kept_trees();
        let mut rng = StdRng::seed_from_u64(step_seed);
        let mut scratch = BoostScratch::default();
        let models = self.models.as_mut().expect("checked by appended_one_row");
        for model in models.iter_mut() {
            model.warm_refit(x, y, keep, &self.config, &mut rng, &mut scratch);
        }
        self.warm_streak += 1;
        self.seed = step_seed;
        self.train.store(x, y);
        Ok(())
    }

    fn predict(&self, point: &[f64]) -> crate::Result<Prediction> {
        let mut out = self.predict_with(
            std::slice::from_ref(&point.to_vec()),
            &mut PrefixCache::default(),
        )?;
        Ok(out.pop().expect("one point in, one prediction out"))
    }

    fn predict_batch(&self, points: &[Vec<f64>]) -> crate::Result<Vec<Prediction>> {
        self.predict_with(points, &mut PrefixCache::default())
    }

    fn predict_batch_mut(&mut self, points: &[Vec<f64>]) -> crate::Result<Vec<Prediction>> {
        let mut cache = std::mem::take(&mut self.cache);
        let predictions = self.predict_with(points, &mut cache);
        self.cache = cache;
        predictions
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
    }

    fn name(&self) -> &'static str {
        "GBRT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] + 1.0).collect();
        (x, y)
    }

    #[test]
    fn fits_a_linear_trend() {
        let (x, y) = line_data();
        let mut gbrt = GradientBoosting::with_defaults(1);
        gbrt.fit(&x, &y).unwrap();
        let p = gbrt.predict(&[0.5]).unwrap();
        assert!((p.mean - 2.5).abs() < 0.4, "mean {}", p.mean);
    }

    #[test]
    fn quantile_helper_matches_interpolation() {
        let mut v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn uncertainty_reflects_noise_spread() {
        // Heteroscedastic data: noisy right half.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let v = i as f64 / 39.0;
            x.push(vec![v]);
            let noise = if v > 0.5 {
                if i % 2 == 0 {
                    2.0
                } else {
                    -2.0
                }
            } else {
                0.0
            };
            y.push(v + noise);
        }
        let mut gbrt = GradientBoosting::with_defaults(2);
        gbrt.fit(&x, &y).unwrap();
        let calm = gbrt.predict(&[0.2]).unwrap();
        let noisy = gbrt.predict(&[0.8]).unwrap();
        assert!(noisy.std > calm.std, "{} vs {}", noisy.std, calm.std);
    }

    #[test]
    fn errors_before_fit_and_on_bad_dim() {
        let gbrt = GradientBoosting::with_defaults(0);
        assert_eq!(gbrt.predict(&[0.0]).unwrap_err(), SurrogateError::NotFitted);
        let (x, y) = line_data();
        let mut gbrt = gbrt;
        gbrt.fit(&x, &y).unwrap();
        assert!(matches!(
            gbrt.predict(&[]),
            Err(SurrogateError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn warm_update_replays_identically() {
        let (x, y) = line_data();
        let run = || {
            let mut m = GradientBoosting::with_defaults(3);
            m.fit(&x[..20], &y[..20]).unwrap();
            for k in 21..=30 {
                m.fit_update(&x[..k], &y[..k], 50 + k as u64).unwrap();
            }
            m.predict(&[0.37]).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn warm_update_tracks_full_refit_accuracy() {
        let (x, y) = line_data();
        let drive = |config: GbrtConfig| {
            let mut m = GradientBoosting::new(config, 3);
            m.fit(&x[..20], &y[..20]).unwrap();
            for k in 21..=30 {
                m.fit_update(&x[..k], &y[..k], k as u64).unwrap();
            }
            m
        };
        let warm = drive(GbrtConfig::default());
        let cold = drive(GbrtConfig {
            warm_start: false,
            ..GbrtConfig::default()
        });
        for q in [0.1, 0.5, 0.9] {
            let pw = warm.predict(&[q]).unwrap();
            let pc = cold.predict(&[q]).unwrap();
            let truth = 3.0 * q + 1.0;
            assert!((pw.mean - truth).abs() < 0.5, "warm {} at {q}", pw.mean);
            assert!(
                (pw.mean - pc.mean).abs() < 0.5,
                "warm {} vs cold {} at {q}",
                pw.mean,
                pc.mean
            );
        }
    }

    #[test]
    fn non_append_updates_fall_back_to_a_full_refit() {
        let (x, y) = line_data();
        // Warm-start off: fit_update is exactly reseed + fit.
        let mut off = GradientBoosting::new(
            GbrtConfig {
                warm_start: false,
                ..GbrtConfig::default()
            },
            1,
        );
        off.fit(&x[..10], &y[..10]).unwrap();
        off.fit_update(&x, &y, 99).unwrap();
        let mut fresh = GradientBoosting::with_defaults(99);
        fresh.fit(&x, &y).unwrap();
        assert_eq!(off.predict(&[0.3]).unwrap(), fresh.predict(&[0.3]).unwrap());
        // Warm-start on, but the update appends 20 rows: not the
        // one-row-appended shape, so it falls back to the same full
        // refit bit for bit.
        let mut on = GradientBoosting::with_defaults(1);
        on.fit(&x[..10], &y[..10]).unwrap();
        on.fit_update(&x, &y, 99).unwrap();
        assert_eq!(on.predict(&[0.3]).unwrap(), fresh.predict(&[0.3]).unwrap());
        // An edited prefix (shifted target) also falls back.
        let mut edited = GradientBoosting::with_defaults(1);
        edited.fit(&x[..29], &y[..29]).unwrap();
        let mut y2 = y.clone();
        y2[0] += 0.5;
        edited.fit_update(&x, &y2, 99).unwrap();
        let mut fresh2 = GradientBoosting::with_defaults(99);
        fresh2.fit(&x, &y2).unwrap();
        assert_eq!(
            edited.predict(&[0.3]).unwrap(),
            fresh2.predict(&[0.3]).unwrap()
        );
    }

    #[test]
    fn seeded_fits_are_reproducible() {
        let (x, y) = line_data();
        let mut a = GradientBoosting::with_defaults(5);
        let mut b = GradientBoosting::with_defaults(5);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&[0.4]).unwrap(), b.predict(&[0.4]).unwrap());
    }
}
