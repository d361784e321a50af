//! Random forests and extra trees.
//!
//! Both are ensembles of [`DecisionTree`]s; the predictive standard
//! deviation combines between-tree disagreement and within-leaf spread via
//! the law of total variance — the same decomposition scikit-optimize uses
//! to make forests usable under Expected Improvement.
//!
//! Batch prediction keeps a [`LeafCache`] across calls: the BO loop scores
//! the same candidates at every step while a warm update refits only a
//! quarter of the trees, so a batch re-walks only the trees refit since
//! the previous one.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tree::{
    CandidateSet, DecisionTree, GrowScratch, SplitMode, TrainingSetCopy, TreeConfig,
};
use crate::{validate_points, validate_training_set, Prediction, Surrogate, SurrogateError};

/// Shared ensemble configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Whether each tree sees a bootstrap resample (random forest) or the
    /// full training set (extra trees).
    pub bootstrap: bool,
    /// Per-tree growth limits.
    pub tree: TreeConfig,
    /// Warm-start [`Surrogate::fit_update`] (mirroring
    /// `GbrtConfig::warm_start`): when the training set grew by exactly
    /// one row since the previous fit, refit only a rotating quarter of
    /// the trees on the extended data instead of rebuilding the whole
    /// ensemble. Bootstrapped trees keep a per-tree index multiset that
    /// is updated reservoir-style — each stored index is replaced by the
    /// new row with probability `1/n`, then one fresh draw is appended —
    /// so refreshed resamples stay bootstrap-distributed over the grown
    /// set without redrawing from scratch. Any other update (first fit,
    /// resized or edited training set) falls back to a full refit
    /// automatically.
    pub warm_start: bool,
    /// With `warm_start`, rebuild the full ensemble from scratch on every
    /// `warm_refit_every`-th update anyway: unrefreshed trees never see
    /// the newest rows, and a periodic full fit re-syncs the ensemble so
    /// staleness cannot compound across a whole BO run.
    pub warm_refit_every: usize,
}

#[derive(Debug, Clone)]
struct Ensemble {
    trees: Vec<DecisionTree>,
    /// Bootstrap index multiset per tree (empty vectors when the
    /// ensemble does not bootstrap).
    indices: Vec<Vec<usize>>,
    /// The refit stamp each tree was grown under (see [`Forest::refits`]).
    stamps: Vec<u64>,
    dim: usize,
}

impl Ensemble {
    fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        config: &ForestConfig,
        seed: u64,
        stamp: u64,
    ) -> crate::Result<Self> {
        let dim = validate_training_set(x, y)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = GrowScratch::default();
        let mut trees = Vec::with_capacity(config.n_trees);
        let mut indices = Vec::with_capacity(config.n_trees);
        for _ in 0..config.n_trees {
            if config.bootstrap {
                let idx: Vec<usize> = (0..x.len()).map(|_| rng.gen_range(0..x.len())).collect();
                trees.push(DecisionTree::fit_with(
                    x,
                    y,
                    Some(&idx),
                    &config.tree,
                    &mut rng,
                    &mut scratch,
                ));
                indices.push(idx);
            } else {
                trees.push(DecisionTree::fit_with(
                    x,
                    y,
                    None,
                    &config.tree,
                    &mut rng,
                    &mut scratch,
                ));
                indices.push(Vec::new());
            }
        }
        Ok(Self {
            trees,
            indices,
            stamps: vec![stamp; config.n_trees],
            dim,
        })
    }

    /// Warm refit after one appended row: refresh the quarter of the
    /// ensemble starting at `cursor` (wrapping), leaving the other trees
    /// — whose indices reference only the untouched prefix — as they
    /// are, and stamp the refreshed trees with `stamp`. Returns the next
    /// cursor.
    fn warm_refit(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        config: &ForestConfig,
        cursor: usize,
        rng: &mut StdRng,
        stamp: u64,
    ) -> usize {
        let n_trees = self.trees.len();
        let refresh = n_trees.div_ceil(4).max(1);
        let n = x.len();
        let mut scratch = GrowScratch::default();
        for offset in 0..refresh.min(n_trees) {
            let t = (cursor + offset) % n_trees;
            let indices = if config.bootstrap {
                // Reservoir-style growth of the bootstrap multiset, one
                // pass per row this tree has not yet seen (a tree missed
                // by earlier rotations catches up on all of them): when
                // the population grows to `m`, every stored draw is
                // replaced by the new row with probability 1/m, then one
                // fresh uniform draw keeps |idx| == population size.
                for m in (self.indices[t].len() + 1)..=n {
                    for slot in &mut self.indices[t] {
                        if rng.gen_range(0..m) == 0 {
                            *slot = m - 1;
                        }
                    }
                    self.indices[t].push(rng.gen_range(0..m));
                }
                Some(&self.indices[t][..])
            } else {
                None
            };
            self.trees[t] = DecisionTree::fit_with(x, y, indices, &config.tree, rng, &mut scratch);
            self.stamps[t] = stamp;
        }
        (cursor + refresh) % n_trees
    }

    /// Predictions at `points` (validated), through `cache`: re-walks
    /// the trees whose stamp differs from the one their cached row was
    /// walked under — every tree when the candidates changed — then sums
    /// each candidate's leaf statistics over the trees in order, the
    /// order a lone point's prediction sums them in. The sums of all
    /// candidates advance together, one tree row at a time.
    fn predict_cached(&self, points: &[Vec<f64>], cache: &mut LeafCache) -> Vec<Prediction> {
        let m = points.len();
        let trees = self.trees.len();
        if !cache.points.holds(points, self.dim) || cache.stamps.len() != trees {
            cache.points.set(points);
            cache.stamps.clear();
            cache.stamps.resize(trees, 0);
            cache.means.resize(trees * m, 0.0);
            cache.vars.resize(trees * m, 0.0);
        }
        for (t, (tree, &stamp)) in self.trees.iter().zip(&self.stamps).enumerate() {
            if cache.stamps[t] == stamp {
                continue;
            }
            let means = &mut cache.means[t * m..(t + 1) * m];
            let vars = &mut cache.vars[t * m..(t + 1) * m];
            for ((mean, var), point) in means.iter_mut().zip(vars.iter_mut()).zip(points) {
                let leaf = tree.leaf_stats(point);
                *mean = leaf.mean;
                *var = leaf.var;
            }
            cache.stamps[t] = stamp;
        }
        // Law of total variance across trees:
        //   Var = E[leaf var] + Var[leaf mean].
        // Every sum starts at −0.0, as `Iterator::sum` does.
        let LeafCache {
            means,
            vars,
            mean,
            e_var,
            var_mean,
            ..
        } = cache;
        for acc in [&mut *mean, &mut *e_var, &mut *var_mean] {
            acc.clear();
            acc.resize(m, -0.0);
        }
        let n = trees as f64;
        for (row_means, row_vars) in means.chunks_exact(m).zip(vars.chunks_exact(m)) {
            for (acc, v) in mean.iter_mut().zip(row_means) {
                *acc += v;
            }
            for (acc, v) in e_var.iter_mut().zip(row_vars) {
                *acc += v;
            }
        }
        for acc in mean.iter_mut() {
            *acc /= n;
        }
        for row_means in means.chunks_exact(m) {
            for ((acc, mu), v) in var_mean.iter_mut().zip(&*mean).zip(row_means) {
                *acc += (v - mu).powi(2);
            }
        }
        mean.iter()
            .zip(&*e_var)
            .zip(&*var_mean)
            .map(|((&mean, &e_var), &var_mean)| Prediction {
                mean,
                std: (e_var / n + var_mean / n).max(0.0).sqrt(),
            })
            .collect()
    }
}

/// Leaf statistics per (tree, candidate) from the previous batch
/// prediction (16 bytes per pair), and per-candidate accumulators.
#[derive(Debug, Clone, Default)]
struct LeafCache {
    points: CandidateSet,
    /// The stamp each tree's row was walked under; 0, which no refit
    /// hands out, marks a row not yet walked.
    stamps: Vec<u64>,
    /// Leaf means, tree-major (row `t` holds tree `t`'s candidates).
    means: Vec<f64>,
    /// Leaf variances, laid out like `means`.
    vars: Vec<f64>,
    /// Per candidate: the mean of its leaf means.
    mean: Vec<f64>,
    /// Per candidate: the sum of its leaf variances.
    e_var: Vec<f64>,
    /// Per candidate: the sum of its leaf means' squared deviations.
    var_mean: Vec<f64>,
}

/// Everything both forest flavours share: the fitted ensemble, the
/// warm-start bookkeeping and the batch cache.
#[derive(Debug, Clone)]
struct Forest {
    config: ForestConfig,
    seed: u64,
    ensemble: Option<Ensemble>,
    /// The training set of the last fit, to detect the one-row-appended
    /// case the warm path accelerates.
    train: TrainingSetCopy,
    /// Consecutive warm updates since the last full fit.
    streak: usize,
    /// Rotation cursor of the next quarter to refresh.
    cursor: usize,
    /// Refit stamps handed out so far: every fit and warm refit stamps
    /// the trees it grows with the next value, so a stamp names one refit
    /// of this model and a [`LeafCache`] row can tell a refit tree from a
    /// kept one.
    refits: u64,
    cache: LeafCache,
}

impl Forest {
    fn new(config: ForestConfig, seed: u64) -> Self {
        Self {
            config,
            seed,
            ensemble: None,
            train: TrainingSetCopy::default(),
            streak: 0,
            cursor: 0,
            refits: 0,
            cache: LeafCache::default(),
        }
    }

    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> crate::Result<()> {
        self.refits += 1;
        self.ensemble = Some(Ensemble::fit(x, y, &self.config, self.seed, self.refits)?);
        self.train.store(x, y);
        self.streak = 0;
        self.cursor = 0;
        Ok(())
    }

    /// One step of the iterative-fit loop: the warm path when exactly one
    /// row was appended and the refit cadence allows it, a plain
    /// reseed-and-refit (bit-identical to `reseed` + `fit`) otherwise.
    fn fit_update(&mut self, x: &[Vec<f64>], y: &[f64], step_seed: u64) -> crate::Result<()> {
        let take_warm = self.config.warm_start
            && self.streak + 1 < self.config.warm_refit_every.max(1)
            && self
                .ensemble
                .as_ref()
                .is_some_and(|ens| self.train.appended_one_row(x, y, ens.dim));
        self.seed = step_seed;
        self.refits += 1;
        if !take_warm {
            self.streak = 0;
            self.cursor = 0;
            self.ensemble = Some(Ensemble::fit(x, y, &self.config, step_seed, self.refits)?);
        } else {
            validate_training_set(x, y)?;
            let mut rng = StdRng::seed_from_u64(step_seed);
            let ens = self.ensemble.as_mut().expect("checked by appended_one_row");
            self.cursor = ens.warm_refit(x, y, &self.config, self.cursor, &mut rng, self.refits);
            self.streak += 1;
        }
        self.train.store(x, y);
        Ok(())
    }

    /// The one prediction path: `predict` and `predict_batch` pass an
    /// empty cache, `predict_batch_mut` the model's own.
    fn predict_with(
        ensemble: Option<&Ensemble>,
        points: &[Vec<f64>],
        cache: &mut LeafCache,
    ) -> crate::Result<Vec<Prediction>> {
        if points.is_empty() {
            return Ok(Vec::new());
        }
        let ens = ensemble
            .filter(|ens| !ens.trees.is_empty())
            .ok_or(SurrogateError::NotFitted)?;
        validate_points(points, ens.dim)?;
        Ok(ens.predict_cached(points, cache))
    }

    fn predict(&self, point: &[f64]) -> crate::Result<Prediction> {
        let mut out = self.predict_batch(std::slice::from_ref(&point.to_vec()))?;
        Ok(out.pop().expect("one point in, one prediction out"))
    }

    fn predict_batch(&self, points: &[Vec<f64>]) -> crate::Result<Vec<Prediction>> {
        Self::predict_with(self.ensemble.as_ref(), points, &mut LeafCache::default())
    }

    fn predict_batch_mut(&mut self, points: &[Vec<f64>]) -> crate::Result<Vec<Prediction>> {
        Self::predict_with(self.ensemble.as_ref(), points, &mut self.cache)
    }
}

/// Bagged CART ensemble (scikit-learn-style random forest regressor).
#[derive(Debug, Clone)]
pub struct RandomForest {
    forest: Forest,
}

impl RandomForest {
    /// Creates a forest with an explicit configuration.
    pub fn new(config: ForestConfig, seed: u64) -> Self {
        Self {
            forest: Forest::new(config, seed),
        }
    }

    /// The skopt-flavoured defaults: 100 bootstrapped best-split trees,
    /// warm-started between BO steps.
    pub fn with_defaults(seed: u64) -> Self {
        Self::new(
            ForestConfig {
                n_trees: 100,
                bootstrap: true,
                tree: TreeConfig::default(),
                warm_start: true,
                warm_refit_every: 4,
            },
            seed,
        )
    }
}

impl Surrogate for RandomForest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> crate::Result<()> {
        self.forest.fit(x, y)
    }

    /// Warm-start refit (see `ForestConfig::warm_start`): when exactly
    /// one trial was appended since the last fit, a rotating quarter of
    /// the trees refits on the extended data — with reservoir-updated
    /// bootstrap indices — instead of rebuilding all 100 trees. Every
    /// other shape of update falls back to the plain reseed-and-refit,
    /// so the result is always a deterministic function of the call
    /// sequence.
    fn fit_update(&mut self, x: &[Vec<f64>], y: &[f64], step_seed: u64) -> crate::Result<()> {
        self.forest.fit_update(x, y, step_seed)
    }

    fn predict(&self, point: &[f64]) -> crate::Result<Prediction> {
        self.forest.predict(point)
    }

    fn predict_batch(&self, points: &[Vec<f64>]) -> crate::Result<Vec<Prediction>> {
        self.forest.predict_batch(points)
    }

    fn predict_batch_mut(&mut self, points: &[Vec<f64>]) -> crate::Result<Vec<Prediction>> {
        self.forest.predict_batch_mut(points)
    }

    fn reseed(&mut self, seed: u64) {
        self.forest.seed = seed;
    }

    fn name(&self) -> &'static str {
        "RF"
    }
}

/// Extremely randomized trees: full training set per tree, random
/// thresholds.
#[derive(Debug, Clone)]
pub struct ExtraTrees {
    forest: Forest,
}

impl ExtraTrees {
    /// Creates an ET ensemble with an explicit configuration.
    pub fn new(config: ForestConfig, seed: u64) -> Self {
        Self {
            forest: Forest::new(config, seed),
        }
    }

    /// The skopt-flavoured defaults: 100 random-threshold trees, no
    /// bootstrap, warm-started between BO steps.
    pub fn with_defaults(seed: u64) -> Self {
        Self::new(
            ForestConfig {
                n_trees: 100,
                bootstrap: false,
                tree: TreeConfig {
                    split_mode: SplitMode::Random,
                    ..TreeConfig::default()
                },
                warm_start: true,
                warm_refit_every: 4,
            },
            seed,
        )
    }
}

impl Surrogate for ExtraTrees {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> crate::Result<()> {
        self.forest.fit(x, y)
    }

    /// Warm-start refit: like [`RandomForest::fit_update`] but without
    /// bootstrap bookkeeping — the refreshed quarter simply refits on the
    /// full extended training set.
    fn fit_update(&mut self, x: &[Vec<f64>], y: &[f64], step_seed: u64) -> crate::Result<()> {
        self.forest.fit_update(x, y, step_seed)
    }

    fn predict(&self, point: &[f64]) -> crate::Result<Prediction> {
        self.forest.predict(point)
    }

    fn predict_batch(&self, points: &[Vec<f64>]) -> crate::Result<Vec<Prediction>> {
        self.forest.predict_batch(points)
    }

    fn predict_batch_mut(&mut self, points: &[Vec<f64>]) -> crate::Result<Vec<Prediction>> {
        self.forest.predict_batch_mut(points)
    }

    fn reseed(&mut self, seed: u64) {
        self.forest.seed = seed;
    }

    fn name(&self) -> &'static str {
        "ET"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 39.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| (6.0 * r[0]).sin() * 2.0 + 1.0).collect();
        (x, y)
    }

    #[test]
    fn rf_beats_constant_predictor() {
        let (x, y) = wavy_data();
        let mut rf = RandomForest::with_defaults(1);
        rf.fit(&x, &y).unwrap();
        let global_mean = y.iter().sum::<f64>() / y.len() as f64;
        let mut rf_sse = 0.0;
        let mut const_sse = 0.0;
        for (xi, yi) in x.iter().zip(&y) {
            let p = rf.predict(xi).unwrap();
            rf_sse += (p.mean - yi).powi(2);
            const_sse += (global_mean - yi).powi(2);
        }
        assert!(rf_sse < const_sse / 4.0, "rf {rf_sse} vs const {const_sse}");
    }

    #[test]
    fn et_beats_constant_predictor() {
        let (x, y) = wavy_data();
        let mut et = ExtraTrees::with_defaults(1);
        et.fit(&x, &y).unwrap();
        let global_mean = y.iter().sum::<f64>() / y.len() as f64;
        let mut sse = 0.0;
        let mut const_sse = 0.0;
        for (xi, yi) in x.iter().zip(&y) {
            sse += (et.predict(xi).unwrap().mean - yi).powi(2);
            const_sse += (global_mean - yi).powi(2);
        }
        assert!(sse < const_sse / 4.0);
    }

    #[test]
    fn predictions_stay_within_target_range() {
        let (x, y) = wavy_data();
        let lo = y.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for model in [
            &mut RandomForest::with_defaults(2) as &mut dyn Surrogate,
            &mut ExtraTrees::with_defaults(2) as &mut dyn Surrogate,
        ] {
            model.fit(&x, &y).unwrap();
            for q in [-0.5, 0.0, 0.3, 0.9, 1.5] {
                let p = model.predict(&[q]).unwrap();
                assert!(p.mean >= lo - 1e-9 && p.mean <= hi + 1e-9);
                assert!(p.std >= 0.0);
            }
        }
    }

    #[test]
    fn not_fitted_and_bad_dim_errors() {
        let rf = RandomForest::with_defaults(0);
        assert_eq!(rf.predict(&[0.0]).unwrap_err(), SurrogateError::NotFitted);
        let (x, y) = wavy_data();
        let mut rf = rf;
        rf.fit(&x, &y).unwrap();
        assert!(matches!(
            rf.predict(&[0.0, 1.0]),
            Err(SurrogateError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn seeded_fits_are_reproducible() {
        let (x, y) = wavy_data();
        let mut a = RandomForest::with_defaults(9);
        let mut b = RandomForest::with_defaults(9);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        let pa = a.predict(&[0.37]).unwrap();
        let pb = b.predict(&[0.37]).unwrap();
        assert_eq!(pa, pb);
    }

    #[test]
    fn warm_update_replays_identically() {
        let (x, y) = wavy_data();
        for bootstrap in [true, false] {
            let make = || {
                if bootstrap {
                    Box::new(RandomForest::with_defaults(3)) as Box<dyn Surrogate>
                } else {
                    Box::new(ExtraTrees::with_defaults(3)) as Box<dyn Surrogate>
                }
            };
            let run = || {
                let mut m = make();
                m.fit(&x[..25], &y[..25]).unwrap();
                for k in 26..=40 {
                    m.fit_update(&x[..k], &y[..k], 50 + k as u64).unwrap();
                }
                m.predict(&[0.37]).unwrap()
            };
            assert_eq!(run(), run(), "bootstrap = {bootstrap}");
        }
    }

    #[test]
    fn warm_update_tracks_full_refit_accuracy() {
        let (x, y) = wavy_data();
        let drive = |warm_start: bool| {
            let config = ForestConfig {
                n_trees: 100,
                bootstrap: true,
                tree: TreeConfig::default(),
                warm_start,
                warm_refit_every: 4,
            };
            let mut m = RandomForest::new(config, 3);
            m.fit(&x[..25], &y[..25]).unwrap();
            for k in 26..=40 {
                m.fit_update(&x[..k], &y[..k], k as u64).unwrap();
            }
            m
        };
        let warm = drive(true);
        let cold = drive(false);
        for q in [0.1f64, 0.5, 0.9] {
            let truth = (6.0 * q).sin() * 2.0 + 1.0;
            let pw = warm.predict(&[q]).unwrap();
            let pc = cold.predict(&[q]).unwrap();
            assert!((pw.mean - truth).abs() < 0.8, "warm {} at {q}", pw.mean);
            assert!(
                (pw.mean - pc.mean).abs() < 0.8,
                "warm {} vs cold {} at {q}",
                pw.mean,
                pc.mean
            );
        }
    }

    #[test]
    fn non_append_updates_fall_back_to_a_full_refit() {
        let (x, y) = wavy_data();
        // Warm-start off: fit_update is exactly reseed + fit.
        let mut off = RandomForest::new(
            ForestConfig {
                warm_start: false,
                ..RandomForest::with_defaults(1).forest.config
            },
            1,
        );
        off.fit(&x[..10], &y[..10]).unwrap();
        off.fit_update(&x, &y, 99).unwrap();
        let mut fresh = RandomForest::with_defaults(99);
        fresh.fit(&x, &y).unwrap();
        assert_eq!(off.predict(&[0.3]).unwrap(), fresh.predict(&[0.3]).unwrap());
        // Warm-start on, but the update appends 30 rows: not the
        // one-row-appended shape, so it falls back to the same full
        // refit bit for bit.
        let mut on = RandomForest::with_defaults(1);
        on.fit(&x[..10], &y[..10]).unwrap();
        on.fit_update(&x, &y, 99).unwrap();
        assert_eq!(on.predict(&[0.3]).unwrap(), fresh.predict(&[0.3]).unwrap());
        // An edited prefix (shifted target) also falls back.
        let mut edited = RandomForest::with_defaults(1);
        edited.fit(&x[..39], &y[..39]).unwrap();
        let mut y2 = y.clone();
        y2[0] += 0.5;
        edited.fit_update(&x, &y2, 99).unwrap();
        let mut fresh2 = RandomForest::with_defaults(99);
        fresh2.fit(&x, &y2).unwrap();
        assert_eq!(
            edited.predict(&[0.3]).unwrap(),
            fresh2.predict(&[0.3]).unwrap()
        );
    }

    #[test]
    fn warm_bootstrap_indices_track_training_size() {
        let (x, y) = wavy_data();
        let mut rf = RandomForest::with_defaults(7);
        rf.fit(&x[..30], &y[..30]).unwrap();
        // Three warm updates (the fourth would hit the full-refit
        // cadence): rotating quarters refresh, the last quarter lags.
        for k in 31..=33 {
            rf.fit_update(&x[..k], &y[..k], k as u64).unwrap();
        }
        let ens = rf.forest.ensemble.as_ref().unwrap();
        assert_eq!(ens.trees.len(), 100);
        for idx in &ens.indices {
            // Every tree's multiset stays within bounds; refreshed trees
            // grew with the training set, unrefreshed ones kept their
            // (still valid) prefix resample.
            assert!(!idx.is_empty());
            assert!(idx.len() >= 30 && idx.len() <= 33);
            assert!(idx.iter().all(|&i| i < 33));
        }
        assert!(ens.indices.iter().any(|idx| idx.len() == 30));
        assert!(ens.indices.iter().any(|idx| idx.len() == 33));
        // The cadence's fourth update rebuilds everything in sync.
        rf.fit_update(&x[..34], &y[..34], 34).unwrap();
        let ens = rf.forest.ensemble.as_ref().unwrap();
        assert!(ens.indices.iter().all(|idx| idx.len() == 34));
    }

    #[test]
    fn uncertainty_is_positive_under_noise() {
        // Two identical x values with different targets force leaf variance.
        let x = vec![vec![0.0], vec![0.0], vec![1.0], vec![1.0]];
        let y = vec![0.0, 2.0, 10.0, 12.0];
        let mut rf = RandomForest::with_defaults(3);
        rf.fit(&x, &y).unwrap();
        let p = rf.predict(&[0.0]).unwrap();
        assert!(p.std > 0.0);
    }
}
