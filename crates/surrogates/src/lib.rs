//! Surrogate regressors for Bayesian optimization (§5.1).
//!
//! The paper compares four surrogate models under the Expected Improvement
//! acquisition function, all via scikit-optimize: Gaussian Processes (GP),
//! Gradient Boosted Regression Trees (GBRT), Random Forests (RF), and
//! Extra Trees (ET). This crate re-implements all four from scratch:
//!
//! - [`GaussianProcess`]: Matérn-5/2 ARD kernel, hyperparameters selected
//!   by log-marginal-likelihood over a seeded random search, exact Cholesky
//!   inference;
//! - [`DecisionTree`]: CART regression trees (exact or randomized splits),
//!   stored as flat node arrays;
//! - [`RandomForest`] / [`ExtraTrees`]: bagged ensembles whose predictive
//!   spread comes from the law of total variance across trees;
//! - [`GradientBoosting`]: least-squares/quantile boosting; uncertainty
//!   from a 0.16/0.50/0.84 quantile ensemble, mirroring skopt's GBRT
//!   uncertainty estimate.
//!
//! Every model implements [`Surrogate`]: `fit` on feature rows and targets,
//! `predict` a mean and standard deviation.
//!
//! # Examples
//!
//! ```
//! use freedom_surrogates::{Surrogate, SurrogateKind};
//!
//! let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
//! let y: Vec<f64> = x.iter().map(|r| (3.0 * r[0]).sin()).collect();
//! let mut gp = SurrogateKind::Gp.build(42);
//! gp.fit(&x, &y).unwrap();
//! let p = gp.predict(&[0.5]).unwrap();
//! assert!((p.mean - (1.5f64).sin()).abs() < 0.2);
//! assert!(p.std >= 0.0);
//! ```

mod error;
mod forest;
mod gbrt;
mod gp;
mod tree;

pub use error::SurrogateError;
pub use forest::{ExtraTrees, RandomForest};
pub use gbrt::GradientBoosting;
pub use gp::{GaussianProcess, GpConfig};
pub use tree::{DecisionTree, SplitMode, TreeConfig};

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, SurrogateError>;

/// A predictive distribution summary at one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predictive mean.
    pub mean: f64,
    /// Predictive standard deviation (non-negative).
    pub std: f64,
}

/// A regressor usable as a Bayesian-optimization surrogate.
pub trait Surrogate {
    /// Fits the model on feature rows `x` and targets `y`.
    ///
    /// Implementations reset any previous fit. Errors on empty data,
    /// ragged rows, or length mismatches.
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<()>;

    /// Refits as one step of an iterative loop where the training set
    /// usually grows by one row between calls.
    ///
    /// `step_seed` reseeds the model's internal randomness, so a loop
    /// driving `fit_update` with per-step seeds behaves exactly like the
    /// old rebuild-per-step pattern for stateless models. Implementations
    /// that can reuse state from the previous fit (the GP's incremental
    /// Cholesky path) override this; the default is a plain refit.
    fn fit_update(&mut self, x: &[Vec<f64>], y: &[f64], step_seed: u64) -> Result<()> {
        self.reseed(step_seed);
        self.fit(x, y)
    }

    /// Predicts mean and standard deviation at `point`.
    ///
    /// Errors when called before [`Surrogate::fit`] or with the wrong
    /// dimensionality.
    fn predict(&self, point: &[f64]) -> Result<Prediction>;

    /// Predicts many points in one call.
    ///
    /// The default loops over [`Surrogate::predict`]. All four models
    /// override it with a batched kernel: the GP's batched cross-kernel
    /// solves, and for RF, ET and GBRT the kernel of
    /// [`Surrogate::predict_batch_mut`] run with an empty cache. Results
    /// are identical to per-point calls: an empty batch is `Ok(vec![])`
    /// even before a fit, and an error is the one the first failing
    /// point's `predict` returns.
    fn predict_batch(&self, points: &[Vec<f64>]) -> Result<Vec<Prediction>> {
        points.iter().map(|p| self.predict(p)).collect()
    }

    /// Like [`Surrogate::predict_batch`], with mutable access so
    /// implementations can maintain a cross-call cache.
    ///
    /// The BO loop scores the same candidate set every step while the
    /// training set grows by one row. All four models override this. The
    /// GP caches its cross-kernel matrix and forward-solves between
    /// steps, extending them by one column per new trial. RF and ET keep
    /// each (tree, candidate) leaf's mean and variance and re-walk only
    /// the trees refit since the previous call; GBRT keeps each quantile
    /// model's per-candidate sum over the trees a warm refit keeps and
    /// walks only the re-boosted tail. A changed candidate set, a `fit`
    /// or a full refit rebuilds the cache. Results are bit-identical to
    /// [`Surrogate::predict_batch`].
    fn predict_batch_mut(&mut self, points: &[Vec<f64>]) -> Result<Vec<Prediction>> {
        self.predict_batch(points)
    }

    /// Reseeds the randomness used by subsequent fits (no-op by default).
    fn reseed(&mut self, seed: u64) {
        let _ = seed;
    }

    /// Fixes the box subsequent fits scale features by: per dimension,
    /// `lo` and `hi` bound the region the caller fits and predicts in, as
    /// a search space's bounds do. Rows outside the box widen it for
    /// their fit. Only [`GaussianProcess`] overrides this; its fits error
    /// when the box is non-finite or does not match the rows' dimension.
    /// The default is a no-op: the tree models' axis-aligned splits do
    /// not normalize features.
    fn set_feature_box(&mut self, lo: &[f64], hi: &[f64]) {
        let _ = (lo, hi);
    }

    /// Short stable name, e.g. `"GP"`.
    fn name(&self) -> &'static str;
}

/// The four surrogate variants of the paper, as a factory enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SurrogateKind {
    /// Bayesian optimization with Gaussian processes.
    Gp,
    /// Gradient boosted regression trees.
    Gbrt,
    /// Random forests.
    Rf,
    /// Extra (extremely randomized) trees.
    Et,
}

impl SurrogateKind {
    /// All four variants, in the paper's presentation order.
    pub const ALL: [SurrogateKind; 4] = [
        SurrogateKind::Gp,
        SurrogateKind::Gbrt,
        SurrogateKind::Et,
        SurrogateKind::Rf,
    ];

    /// Stable display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            Self::Gp => "GP",
            Self::Gbrt => "GBRT",
            Self::Rf => "RF",
            Self::Et => "ET",
        }
    }

    /// Builds a fresh surrogate of this kind with the given seed.
    pub fn build(self, seed: u64) -> Box<dyn Surrogate> {
        match self {
            Self::Gp => Box::new(GaussianProcess::new(GpConfig::default(), seed)),
            Self::Gbrt => Box::new(GradientBoosting::with_defaults(seed)),
            Self::Rf => Box::new(RandomForest::with_defaults(seed)),
            Self::Et => Box::new(ExtraTrees::with_defaults(seed)),
        }
    }
}

impl std::fmt::Display for SurrogateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Validates a training set; returns the feature dimensionality.
pub(crate) fn validate_training_set(x: &[Vec<f64>], y: &[f64]) -> Result<usize> {
    if x.is_empty() || y.is_empty() {
        return Err(SurrogateError::EmptyTrainingSet);
    }
    if x.len() != y.len() {
        return Err(SurrogateError::DimensionMismatch {
            expected: format!("{} targets", x.len()),
            found: format!("{} targets", y.len()),
        });
    }
    let dim = x[0].len();
    if dim == 0 {
        return Err(SurrogateError::EmptyTrainingSet);
    }
    for row in x {
        if row.len() != dim {
            return Err(SurrogateError::DimensionMismatch {
                expected: format!("rows of dimension {dim}"),
                found: format!("row of dimension {}", row.len()),
            });
        }
    }
    if y.iter().any(|v| !v.is_finite()) || x.iter().flatten().any(|v| !v.is_finite()) {
        return Err(SurrogateError::NonFiniteData);
    }
    Ok(dim)
}

/// Checks that every point has dimension `dim`; the error names the
/// first that does not.
pub(crate) fn validate_points(points: &[Vec<f64>], dim: usize) -> Result<()> {
    match points.iter().find(|p| p.len() != dim) {
        Some(p) => Err(SurrogateError::DimensionMismatch {
            expected: format!("point of dimension {dim}"),
            found: format!("point of dimension {}", p.len()),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_and_factory() {
        for kind in SurrogateKind::ALL {
            let model = kind.build(1);
            assert_eq!(model.name(), kind.name());
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn validation_catches_bad_sets() {
        assert!(validate_training_set(&[], &[]).is_err());
        assert!(validate_training_set(&[vec![1.0]], &[]).is_err());
        assert!(validate_training_set(&[vec![1.0], vec![1.0, 2.0]], &[0.0, 1.0]).is_err());
        assert!(validate_training_set(&[vec![f64::NAN]], &[0.0]).is_err());
        assert!(validate_training_set(&[vec![1.0]], &[f64::INFINITY]).is_err());
        assert_eq!(validate_training_set(&[vec![1.0, 2.0]], &[0.5]).unwrap(), 2);
    }

    #[test]
    fn every_kind_fits_and_predicts_constant_data() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![3.0; 10];
        for kind in SurrogateKind::ALL {
            let mut model = kind.build(7);
            model.fit(&x, &y).unwrap();
            let p = model.predict(&[4.5]).unwrap();
            assert!((p.mean - 3.0).abs() < 0.3, "{kind}: mean {}", p.mean);
            assert!(p.std >= 0.0 && p.std < 1.0, "{kind}: std {}", p.std);
        }
    }
}
