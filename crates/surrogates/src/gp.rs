//! Gaussian-process regression with a Matérn-5/2 ARD kernel.
//!
//! The paper's best-performing surrogate (§5.2, §5.5). The implementation
//! follows the standard exact-inference recipe (Rasmussen & Williams ch. 2):
//! standardize the targets, factorize `K + σ_n² I` with Cholesky, and pick
//! kernel hyperparameters by maximizing a leave-one-out score over a
//! seeded random search (a gradient-free stand-in for skopt's L-BFGS
//! restarts that keeps the crate dependency-free).
//!
//! # The incremental hot path
//!
//! A BO loop refits the GP after every trial, and the training set almost
//! always grows by exactly one row. [`GaussianProcess`] therefore keeps
//! its previous fit around and [`Surrogate::fit_update`] takes three
//! tiers, fastest first:
//!
//! 1. **alpha-only** — same features, new targets (a failed trial or a
//!    re-normalized objective): reuse the kernel factor, re-solve for
//!    `α` in O(n²);
//! 2. **append-one** — the feature matrix extends the previous one by one
//!    row under an unchanged normalization: extend the Cholesky factor
//!    with [`freedom_linalg::Cholesky::append_row`] in O(n²),
//!    bit-identically to refactorizing from scratch, and keep the
//!    previous hyperparameters;
//! 3. **full** — every [`GpConfig::refit_every`]-th update, or whenever
//!    the cached state does not match (first fit, sliced search space,
//!    normalization shift — which a GP with a feature box sees only for
//!    a row outside the box): run the full candidate search,
//!    warm-started with the previous fit's hyperparameters as an extra
//!    candidate.
//!
//! [`Surrogate::fit`] always takes the full path and resets the schedule,
//! so one-shot users see the original from-scratch behavior.
//!
//! # The feature box
//!
//! By default a fit scales each feature to `[0, 1]` by the minimum and
//! maximum of its rows. A new row that extends either moves every
//! normalized row, so the append tier cannot reuse the factor and the
//! update runs the full search. A caller that knows the region it will
//! fit and predict in fixes the scale with [`Surrogate::set_feature_box`],
//! as scikit-optimize scales by the search space's bounds rather than by
//! the data. The normalization then spans the box; a row outside it
//! widens the span of that fit, and a zero span still scales by 1. Rows
//! inside the box never shift the normalization, so appending one takes
//! the append tier. The box is configuration: [`Surrogate::fit`] keeps
//! it. The provider's right-sizer sets it from its plan's encodings; the
//! BO loop sets none, so the paper's tuner keeps the data-scaled GP.
//!
//! # The candidate search
//!
//! A full fit scores two fixed candidates (three when warm-started) and
//! [`GpConfig::candidates`] random draws, then makes
//! `refine_passes × (d + 2) × 4` coordinate moves around the winner: 107
//! kernel factorizations for a warm search at the default settings and
//! d = 6. The provider's online right-sizer runs such a search over 3–6
//! training rows on many of its refits, and at those sizes the
//! per-candidate overhead outweighed the linear algebra. So the search
//! runs in one reused workspace: a kernel buffer, a `diag(K⁻¹)` buffer,
//! and two slots — the candidate being scored and the incumbent — each
//! holding hyperparameters, their log-prior terms, a Cholesky factor
//! ([`Cholesky::refactor`]) and `α` ([`Cholesky::solve_into`]). A winning
//! candidate swaps slots with the incumbent, and the final incumbent moves
//! into the fit without a refit. Beyond each slot's first factorization,
//! scoring a candidate allocates nothing, and every floating-point result
//! the search keeps has the value and operation order it had when each
//! candidate was scored from scratch, so the search chooses the same
//! bits. Two exact identities make the shortcuts free:
//!
//! - the kernel diagonal is `σ_f² + σ_n² + floor`: Matérn-5/2 at
//!   distance 0 is exactly 1 for a finite feature row (each `(x − x)/l`
//!   is +0 and `exp(−0) = 1`), so `σ_f² · 1 + σ_n² + floor` is the same
//!   sum without a kernel evaluation;
//! - a refinement move changes one parameter, so it recomputes only that
//!   parameter's log-prior term and re-sums the cached terms in their
//!   original order: the same subtractions of the same values.
//!
//! One comparison skips work whose result is never kept: the log-prior
//! subtracts non-negative terms from 0, so it is never positive, and a
//! candidate whose LOO term alone does not beat the incumbent cannot win
//! once the prior is added (rounding is monotone). Its prior terms are
//! not computed.
//!
//! A full fit over fewer than [`GpConfig::min_search_rows`] rows stops
//! after its fixed candidates and keeps the better; it scores the random
//! draws and refinement moves only when none of the fixed candidates
//! factorizes. On two rows the leave-one-out score predicts each row
//! from the other one alone, too little to choose among a hundred
//! candidates. The right-sizer sets the threshold to 3, so its first
//! fits, over the anchor and one observed alternate, no longer search;
//! its fits over three or more rows still do. The BO loop keeps the
//! default 0 and searches at every size.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use freedom_linalg::{Cholesky, LinalgError, Matrix};

use crate::{validate_training_set, Prediction, Surrogate, SurrogateError};

/// Tuning knobs for the GP fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpConfig {
    /// Number of random hyperparameter candidates scored by the LOO
    /// likelihood (the default candidate is always included).
    pub candidates: usize,
    /// Fixed observation-noise floor added to the kernel diagonal.
    pub noise_floor: f64,
    /// Coordinate-ascent refinement passes over the best candidate.
    pub refine_passes: usize,
    /// Model `ln y` instead of `y` when every target is positive.
    ///
    /// Execution times and costs are positive and compose
    /// multiplicatively (`time ≈ work / share / speed`), which is additive
    /// in log space — exactly what a stationary kernel captures well. The
    /// predictive distribution is mapped back through the log-normal
    /// moments.
    pub log_targets: bool,
    /// How often [`Surrogate::fit_update`] runs the full hyperparameter
    /// search: every `refit_every`-th update (1 = always). In between,
    /// updates reuse the previous hyperparameters and extend the Cholesky
    /// factor incrementally.
    pub refit_every: usize,
    /// Fewest training rows a full fit runs the whole candidate search
    /// over. A full fit over fewer rows scores only the fixed candidates
    /// (the unit defaults, the median heuristic and, when warm-started,
    /// the previous winner) and keeps the better; it falls through to the
    /// random draws and refinement only when none of them factorizes.
    /// 0 (the default) searches at every size.
    pub min_search_rows: usize,
}

impl Default for GpConfig {
    fn default() -> Self {
        Self {
            candidates: 40,
            noise_floor: 1e-6,
            refine_passes: 2,
            log_targets: true,
            refit_every: 4,
            min_search_rows: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Hyperparams {
    /// One ARD lengthscale per (normalized) feature dimension.
    lengthscales: Vec<f64>,
    /// Kernel signal variance σ_f².
    signal_var: f64,
    /// Observation noise variance σ_n².
    noise_var: f64,
}

impl Hyperparams {
    /// Overwrites `self` with `src` of the same dimension, keeping the
    /// lengthscale buffer.
    fn copy_from(&mut self, src: &Hyperparams) {
        self.lengthscales.copy_from_slice(&src.lengthscales);
        self.signal_var = src.signal_var;
        self.noise_var = src.noise_var;
    }
}

#[derive(Debug, Clone)]
struct Fitted {
    /// Normalized feature matrix (n × d), the kernel's input.
    x: Matrix,
    chol: Cholesky,
    alpha: Vec<f64>,
    /// Standardized targets, stored so the marginal likelihood never has
    /// to reconstruct them through an O(n²·d) kernel rebuild.
    y_std_targets: Vec<f64>,
    hp: Hyperparams,
    y_mean: f64,
    y_std: f64,
    feat_lo: Vec<f64>,
    feat_span: Vec<f64>,
    /// Whether targets were modelled in log space.
    log_space: bool,
}

/// Cached batched-prediction state for a fixed candidate set.
///
/// The BO loop predicts the same candidate encodings at every step while
/// the training set grows by one row. `k_star[i][j] = k(pᵢ, xⱼ)` and
/// `v = L⁻¹ k_star` per candidate depend only on the hyperparameters and
/// the training rows — both frozen along the incremental tiers — and
/// forward substitution is row-incremental, so appending a training row
/// just appends one column to each. Re-deriving a column from scratch
/// produces the same bits, which keeps cached and uncached predictions
/// identical.
#[derive(Debug, Clone)]
struct BatchCache {
    /// The raw candidate encodings this cache was built for.
    points: Vec<Vec<f64>>,
    /// Normalized candidates (m × d).
    p_norm: Matrix,
    /// Cross-kernel matrix (m × n).
    k_star: Matrix,
    /// Forward-substitution solves `L⁻¹ k_star` per candidate (m × n).
    v: Matrix,
    /// Training rows covered by the cached columns.
    n: usize,
    /// Hyperparameter generation the columns were computed under.
    generation: u64,
}

/// One scored point of the hyperparameter search, with the buffers its
/// score was computed in.
struct Slot {
    hp: Hyperparams,
    /// [`GaussianProcess::prior_term`] of each parameter of `hp`.
    prior: Vec<f64>,
    chol: Cholesky,
    alpha: Vec<f64>,
    /// LOO log-likelihood plus log-prior; −∞ until a fit succeeds.
    score: f64,
}

/// The workspace of one full candidate search over a fixed training set
/// (see the module docs): scoring a candidate reuses every buffer here.
struct Search<'a> {
    x: &'a Matrix,
    y: &'a [f64],
    noise_floor: f64,
    /// The candidate's noisy kernel matrix.
    k: Matrix,
    /// `diag(K⁻¹)` of the candidate, for the LOO score.
    kinv: Vec<f64>,
    cand: Slot,
    best: Slot,
}

/// Exact GP regressor; see the module docs.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    config: GpConfig,
    seed: u64,
    /// The fixed `(lo, hi)` feature box, if one is set (see the module
    /// docs).
    feature_box: Option<(Vec<f64>, Vec<f64>)>,
    fitted: Option<Fitted>,
    /// Incremental updates since the last full hyperparameter search.
    fits_since_full: usize,
    /// Bumped on every full fit; invalidates [`BatchCache`] columns.
    generation: u64,
    batch_cache: Option<BatchCache>,
}

/// Target preprocessing shared by every fit path.
struct Targets {
    y_standardized: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    log_space: bool,
}

impl GaussianProcess {
    /// Creates an unfitted GP.
    pub fn new(config: GpConfig, seed: u64) -> Self {
        Self {
            config,
            seed,
            feature_box: None,
            fitted: None,
            fits_since_full: 0,
            generation: 0,
            batch_cache: None,
        }
    }

    /// Log marginal likelihood of the current fit (diagnostic).
    pub fn log_marginal_likelihood(&self) -> Option<f64> {
        let f = self.fitted.as_ref()?;
        Some(Self::mll(&f.chol, &f.alpha, &f.y_std_targets))
    }

    /// Incremental updates absorbed since the last full candidate search
    /// (diagnostic; 0 right after [`Surrogate::fit`]).
    pub fn fits_since_full(&self) -> usize {
        self.fits_since_full
    }

    fn matern52(r: f64) -> f64 {
        let s5r = 5.0_f64.sqrt() * r;
        (1.0 + s5r + 5.0 * r * r / 3.0) * (-s5r).exp()
    }

    fn scaled_distance(hp: &Hyperparams, a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .zip(&hp.lengthscales)
            .map(|((&x, &y), &l)| ((x - y) / l).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    fn kernel_value(hp: &Hyperparams, a: &[f64], b: &[f64]) -> f64 {
        hp.signal_var * Self::matern52(Self::scaled_distance(hp, a, b))
    }

    /// Fills the n × n `k` with the noisy kernel matrix of `x`'s rows.
    fn kernel_matrix_into(hp: &Hyperparams, x: &Matrix, noise_floor: f64, k: &mut Matrix) {
        let n = x.rows();
        debug_assert_eq!((k.rows(), k.cols()), (n, n));
        let diag = Self::noisy_diag(hp, noise_floor);
        let kd = k.as_mut_slice();
        for i in 0..n {
            for j in 0..i {
                let v = Self::kernel_value(hp, x.row(i), x.row(j));
                kd[i * n + j] = v;
                kd[j * n + i] = v;
            }
            kd[i * n + i] = diag;
        }
    }

    /// The noisy kernel diagonal `k(x, x) + σ_n² + floor`, which is
    /// exactly `σ_f² + σ_n² + floor` (see the module docs). The full
    /// rebuild and the incremental append share it, so the append stays
    /// bit-identical to a rebuild.
    fn noisy_diag(hp: &Hyperparams, noise_floor: f64) -> f64 {
        hp.signal_var + hp.noise_var + noise_floor
    }

    fn mll(chol: &Cholesky, alpha: &[f64], y: &[f64]) -> f64 {
        let n = y.len() as f64;
        let fit_term: f64 = y.iter().zip(alpha).map(|(yi, ai)| yi * ai).sum();
        -0.5 * fit_term - 0.5 * chol.log_det() - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }

    /// Parameter `p`'s term of a weak log-normal prior over the
    /// hyperparameters, centred on the normalized-feature defaults; `p`
    /// counts the lengthscales, then σ_f², then σ_n². Pure maximum
    /// likelihood occasionally prefers a degenerate fit (tiny lengthscale
    /// and tiny noise) whose extrapolations are wild; the prior makes
    /// selection MAP-flavoured without forbidding extreme values when the
    /// data really supports them.
    fn prior_term(hp: &Hyperparams, p: usize) -> f64 {
        // σ = ln(10): one decade of lengthscale costs 0.5 nats.
        let sigma2 = std::f64::consts::LN_10.powi(2);
        let dim = hp.lengthscales.len();
        if p < dim {
            hp.lengthscales[p].ln().powi(2) / (2.0 * sigma2)
        } else if p == dim {
            hp.signal_var.ln().powi(2) / (2.0 * sigma2)
        } else {
            // Noise prior centred on 1e-3 of the (standardized) signal.
            (hp.noise_var.ln() - (1e-3f64).ln()).powi(2) / (2.0 * sigma2 * 4.0)
        }
    }

    /// The log-prior from its terms, subtracted in parameter order.
    fn log_prior(terms: &[f64]) -> f64 {
        let mut lp = 0.0;
        for t in terms {
            lp -= t;
        }
        lp
    }

    /// Leave-one-out predictive log-likelihood (Rasmussen & Williams,
    /// Eq. 5.10–5.12): `μ₋ᵢ = yᵢ − αᵢ/K⁻¹ᵢᵢ`, `σ₋ᵢ² = 1/K⁻¹ᵢᵢ`.
    ///
    /// Selecting hyperparameters by LOO rather than marginal likelihood is
    /// markedly more robust when the kernel is misspecified — which these
    /// performance surfaces guarantee — because it scores *predictions*,
    /// not data fit. The `K⁻¹` diagonal `kinv` comes from one O(n³/6)
    /// triangular inversion ([`Cholesky::inv_diag_into`]) instead of n
    /// basis solves.
    fn loo_log_likelihood(alpha: &[f64], kinv: &[f64]) -> Option<f64> {
        let n = alpha.len() as f64;
        let mut score = -0.5 * n * (2.0 * std::f64::consts::PI).ln();
        for (a, kii) in alpha.iter().zip(kinv) {
            if *kii <= 0.0 {
                return None;
            }
            score += 0.5 * kii.ln() - 0.5 * a * a / kii;
        }
        Some(score)
    }

    /// Per-dimension median of pairwise absolute distances — the standard
    /// lengthscale initialization for stationary kernels — written into
    /// `out`, one entry per dimension. Dimensions with no spread fall back
    /// to 1.0.
    fn median_heuristic(x: &Matrix, out: &mut [f64]) {
        let mut dists = Vec::new();
        for (d, out) in out.iter_mut().enumerate() {
            dists.clear();
            for i in 0..x.rows() {
                for j in (i + 1)..x.rows() {
                    let delta = (x.row(i)[d] - x.row(j)[d]).abs();
                    if delta > 1e-12 {
                        dists.push(delta);
                    }
                }
            }
            *out = if dists.is_empty() {
                1.0
            } else {
                dists.sort_by(f64::total_cmp);
                dists[dists.len() / 2].clamp(0.05, 10.0)
            };
        }
    }

    /// Scales each feature by its span: the rows' minimum and maximum,
    /// widened to the feature box when one is set. Returns the normalized
    /// rows, the per-feature offset and the span.
    fn normalize_features(
        &self,
        x: &[Vec<f64>],
        dim: usize,
    ) -> crate::Result<(Matrix, Vec<f64>, Vec<f64>)> {
        let (mut lo, mut hi) = match &self.feature_box {
            None => (vec![f64::INFINITY; dim], vec![f64::NEG_INFINITY; dim]),
            Some((lo, hi)) if lo.len() != dim || hi.len() != dim => {
                return Err(SurrogateError::DimensionMismatch {
                    expected: format!("a feature box of dimension {dim}"),
                    found: format!("bounds of dimension {} and {}", lo.len(), hi.len()),
                })
            }
            Some((lo, hi)) if lo.iter().chain(hi).any(|v| !v.is_finite()) => {
                return Err(SurrogateError::NonFiniteData)
            }
            Some((lo, hi)) => (lo.clone(), hi.clone()),
        };
        for row in x {
            for d in 0..dim {
                lo[d] = lo[d].min(row[d]);
                hi[d] = hi[d].max(row[d]);
            }
        }
        let span: Vec<f64> = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| if h - l > 1e-12 { h - l } else { 1.0 })
            .collect();
        let mut normed = Matrix::zeros(x.len(), dim);
        for (r, row) in x.iter().enumerate() {
            let out = normed.row_mut(r);
            for (d, &v) in row.iter().enumerate() {
                out[d] = (v - lo[d]) / span[d];
            }
        }
        Ok((normed, lo, span))
    }

    /// Optionally log-transform, then standardize the targets.
    fn prepare_targets(&self, y: &[f64]) -> Targets {
        let log_space = self.config.log_targets && y.iter().all(|&v| v > 0.0);
        let y_work: Vec<f64> = if log_space {
            y.iter().map(|v| v.ln()).collect()
        } else {
            y.to_vec()
        };
        let y_mean = y_work.iter().sum::<f64>() / y_work.len() as f64;
        let y_var = y_work.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / y_work.len() as f64;
        let y_std = if y_var.sqrt() > 1e-12 {
            y_var.sqrt()
        } else {
            1.0
        };
        let y_standardized = y_work.iter().map(|v| (v - y_mean) / y_std).collect();
        Targets {
            y_standardized,
            y_mean,
            y_std,
            log_space,
        }
    }

    /// The full candidate search + refinement, optionally warm-started
    /// with the previous fit's hyperparameters as an extra candidate.
    fn full_fit(
        &mut self,
        x_norm: Matrix,
        feat_lo: Vec<f64>,
        feat_span: Vec<f64>,
        targets: Targets,
        warm: Option<Hyperparams>,
    ) -> crate::Result<()> {
        let Slot {
            hp, chol, alpha, ..
        } = Search::new(&x_norm, &targets.y_standardized, self.config.noise_floor)
            .run(&self.config, self.seed, warm)
            .ok_or(SurrogateError::Linalg(LinalgError::NotPositiveDefinite))?;
        self.fitted = Some(Fitted {
            x: x_norm,
            chol,
            alpha,
            y_std_targets: targets.y_standardized,
            hp,
            y_mean: targets.y_mean,
            y_std: targets.y_std,
            feat_lo,
            feat_span,
            log_space: targets.log_space,
        });
        self.fits_since_full = 0;
        self.generation = self.generation.wrapping_add(1);
        self.batch_cache = None;
        Ok(())
    }

    /// Maps one candidate's summary statistics to a [`Prediction`]; the
    /// single shared tail of every prediction path, cached or not.
    fn finish_prediction(f: &Fitted, mean_std_space: f64, v_sq_sum: f64) -> Prediction {
        let k_ss = f.hp.signal_var; // k(p, p) for a stationary kernel
        let var = (k_ss - v_sq_sum).max(0.0);
        let mu = mean_std_space * f.y_std + f.y_mean;
        let sigma2 = var * f.y_std * f.y_std;
        if f.log_space {
            // Log-normal moments, with the exponent clamped so a wildly
            // uncertain extrapolation cannot overflow.
            let s2 = sigma2.min(10.0);
            let mean = (mu + s2 / 2.0).min(700.0).exp();
            let std = mean * (s2.exp_m1()).max(0.0).sqrt();
            Prediction { mean, std }
        } else {
            Prediction {
                mean: mu,
                std: sigma2.sqrt(),
            }
        }
    }

    /// Whether `x_norm`'s leading rows are bit-identical to the previous
    /// fit's feature matrix under the same normalization.
    fn extends_previous(prev: &Fitted, x_norm: &Matrix, lo: &[f64], span: &[f64]) -> bool {
        let (n_prev, dim) = (prev.x.rows(), prev.x.cols());
        x_norm.cols() == dim
            && x_norm.rows() >= n_prev
            && prev.feat_lo == lo
            && prev.feat_span == span
            && x_norm.as_slice()[..n_prev * dim] == *prev.x.as_slice()
    }
}

impl<'a> Search<'a> {
    fn new(x: &'a Matrix, y: &'a [f64], noise_floor: f64) -> Self {
        let (n, dim) = (x.rows(), x.cols());
        let slot = || Slot {
            hp: Hyperparams {
                lengthscales: vec![1.0; dim],
                signal_var: 1.0,
                noise_var: 1e-4,
            },
            prior: vec![0.0; dim + 2],
            chol: Cholesky::default(),
            alpha: vec![0.0; n],
            score: f64::NEG_INFINITY,
        };
        Self {
            x,
            y,
            noise_floor,
            k: Matrix::zeros(n, n),
            kinv: vec![0.0; n],
            cand: slot(),
            best: slot(),
        }
    }

    /// The full search; `None` when no candidate factorizes.
    fn run(mut self, config: &GpConfig, seed: u64, warm: Option<Hyperparams>) -> Option<Slot> {
        let dim = self.x.cols();
        // Candidate 0 is a sensible default, candidate 1 the classic
        // median-distance heuristic (robust when random draws all land
        // badly), candidate 2 the previous fit's winner when warm; the
        // rest are random draws in log space. The best LOO score wins.
        let every = 0..dim + 2;
        let hp = &mut self.cand.hp;
        hp.lengthscales.fill(1.0);
        hp.signal_var = 1.0;
        hp.noise_var = 1e-4;
        self.score(every.clone());
        let hp = &mut self.cand.hp;
        GaussianProcess::median_heuristic(self.x, &mut hp.lengthscales);
        hp.signal_var = 1.0;
        hp.noise_var = 1e-4;
        self.score(every.clone());
        if let Some(warm) = warm.filter(|hp| hp.lengthscales.len() == dim) {
            self.cand.hp.copy_from(&warm);
            self.score(every.clone());
        }
        if self.x.rows() < config.min_search_rows && self.best.score.is_finite() {
            return Some(self.best);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..config.candidates {
            let hp = &mut self.cand.hp;
            for l in &mut hp.lengthscales {
                *l = 10f64.powf(rng.gen_range(-1.0..1.0));
            }
            hp.signal_var = 10f64.powf(rng.gen_range(-0.5..0.5));
            hp.noise_var = 10f64.powf(rng.gen_range(-6.0..-1.0));
            self.score(every.clone());
        }
        if !self.best.score.is_finite() {
            return None; // no candidate factorized
        }

        // Coordinate ascent on the LOO score around the winner: a cheap,
        // deterministic stand-in for skopt's L-BFGS restarts. Each move
        // scales one hyperparameter of the incumbent and is kept when the
        // score improves.
        for _ in 0..config.refine_passes {
            for p in 0..dim + 2 {
                for f in [0.25, 0.5, 2.0, 4.0] {
                    self.score_move(p, f);
                }
            }
        }
        Some(self.best)
    }

    /// Scores the incumbent with parameter `p` scaled by `f` and clamped
    /// to its range; only that parameter's prior term is recomputed.
    fn score_move(&mut self, p: usize, f: f64) {
        let (cand, best) = (&mut self.cand, &self.best);
        cand.hp.copy_from(&best.hp);
        cand.prior.copy_from_slice(&best.prior);
        let hp = &mut cand.hp;
        let dim = hp.lengthscales.len();
        if p < dim {
            hp.lengthscales[p] = (hp.lengthscales[p] * f).clamp(1e-2, 1e2);
        } else if p == dim {
            hp.signal_var = (hp.signal_var * f).clamp(1e-3, 1e3);
        } else {
            hp.noise_var = (hp.noise_var * f).clamp(1e-9, 1.0);
        }
        self.score(p..p + 1);
    }

    /// Fits the candidate slot's hyperparameters, of which those in
    /// `changed` have out-of-date prior terms, and swaps the slot in as
    /// the incumbent when its score beats the incumbent's.
    fn score(&mut self, changed: Range<usize>) {
        let c = &mut self.cand;
        GaussianProcess::kernel_matrix_into(&c.hp, self.x, self.noise_floor, &mut self.k);
        if c.chol.refactor(&self.k, 0.0).is_err()
            || c.chol.solve_into(self.y, &mut c.alpha).is_err()
            || c.chol.inv_diag_into(&mut self.kinv).is_err()
        {
            return;
        }
        let Some(loo) = GaussianProcess::loo_log_likelihood(&c.alpha, &self.kinv) else {
            return;
        };
        // The log-prior subtracts non-negative terms from 0, so it is never
        // positive and, rounding being monotone, `loo + prior ≤ loo`: a
        // candidate whose LOO term alone cannot beat the incumbent loses
        // without its prior terms.
        if loo <= self.best.score {
            return;
        }
        for p in changed {
            c.prior[p] = GaussianProcess::prior_term(&c.hp, p);
        }
        let score = loo + GaussianProcess::log_prior(&c.prior);
        if score.is_finite() && score > self.best.score {
            c.score = score;
            std::mem::swap(&mut self.cand, &mut self.best);
        }
    }
}

impl Surrogate for GaussianProcess {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> crate::Result<()> {
        let dim = validate_training_set(x, y)?;
        let targets = self.prepare_targets(y);
        let (x_norm, feat_lo, feat_span) = self.normalize_features(x, dim)?;
        self.full_fit(x_norm, feat_lo, feat_span, targets, None)
    }

    fn fit_update(&mut self, x: &[Vec<f64>], y: &[f64], step_seed: u64) -> crate::Result<()> {
        self.seed = step_seed;
        let dim = validate_training_set(x, y)?;
        let targets = self.prepare_targets(y);
        let (x_norm, feat_lo, feat_span) = self.normalize_features(x, dim)?;

        let due_full = self
            .fitted
            .as_ref()
            .map(|_| self.fits_since_full + 1 >= self.config.refit_every.max(1))
            .unwrap_or(true);
        if !due_full {
            let prev = self.fitted.as_ref().expect("checked above");
            if Self::extends_previous(prev, &x_norm, &feat_lo, &feat_span) {
                let n_prev = prev.x.rows();
                let n_new = x_norm.rows();
                if n_new == n_prev {
                    // Tier 1: same features, new targets — re-solve alpha.
                    let alpha = prev.chol.solve(&targets.y_standardized)?;
                    let f = self.fitted.as_mut().expect("checked above");
                    f.alpha = alpha;
                    f.y_std_targets = targets.y_standardized;
                    f.y_mean = targets.y_mean;
                    f.y_std = targets.y_std;
                    f.log_space = targets.log_space;
                    self.fits_since_full += 1;
                    return Ok(());
                }
                if n_new == n_prev + 1 {
                    // Tier 2: one appended trial — extend the factor.
                    let new_row = x_norm.row(n_prev);
                    let mut a_row: Vec<f64> = (0..n_prev)
                        .map(|i| Self::kernel_value(&prev.hp, new_row, prev.x.row(i)))
                        .collect();
                    a_row.push(Self::noisy_diag(&prev.hp, self.config.noise_floor));
                    let mut chol = prev.chol.clone();
                    if chol.append_row(&a_row).is_ok() {
                        let alpha = chol.solve(&targets.y_standardized)?;
                        let f = self.fitted.as_mut().expect("checked above");
                        f.x = x_norm;
                        f.chol = chol;
                        f.alpha = alpha;
                        f.y_std_targets = targets.y_standardized;
                        f.y_mean = targets.y_mean;
                        f.y_std = targets.y_std;
                        f.log_space = targets.log_space;
                        self.fits_since_full += 1;
                        return Ok(());
                    }
                    // Not positive definite at the cached jitter: fall
                    // through to the full search.
                }
            }
        }

        // Tier 3: scheduled or unavoidable full search, warm-started.
        let warm = self.fitted.as_ref().map(|f| f.hp.clone());
        self.full_fit(x_norm, feat_lo, feat_span, targets, warm)
    }

    fn predict(&self, point: &[f64]) -> crate::Result<Prediction> {
        let mut out = self.predict_batch(std::slice::from_ref(&point.to_vec()))?;
        Ok(out.pop().expect("one point in, one prediction out"))
    }

    fn predict_batch(&self, points: &[Vec<f64>]) -> crate::Result<Vec<Prediction>> {
        let f = self.fitted.as_ref().ok_or(SurrogateError::NotFitted)?;
        let dim = f.feat_lo.len();
        if let Some(p) = points.iter().find(|p| p.len() != dim) {
            return Err(SurrogateError::DimensionMismatch {
                expected: format!("points of dimension {dim}"),
                found: format!("point of dimension {}", p.len()),
            });
        }
        let n = f.x.rows();
        let m = points.len();
        // One K* cross-kernel matrix for the whole batch, then one batched
        // forward-substitution pass. Per-point arithmetic matches the
        // incremental path in `predict_batch_mut` bit for bit.
        let mut p = vec![0.0; dim];
        let mut k_star = Matrix::zeros(m, n);
        for (r, point) in points.iter().enumerate() {
            for (d, &raw) in point.iter().enumerate() {
                p[d] = (raw - f.feat_lo[d]) / f.feat_span[d];
            }
            let row = k_star.row_mut(r);
            for (i, k) in row.iter_mut().enumerate() {
                *k = Self::kernel_value(&f.hp, &p, f.x.row(i));
            }
        }
        let v = f.chol.solve_lower_multi(&k_star)?;
        Ok((0..m)
            .map(|r| {
                let mean_std_space: f64 =
                    k_star.row(r).iter().zip(&f.alpha).map(|(k, a)| k * a).sum();
                let v_sq_sum = v.row(r).iter().map(|vi| vi * vi).sum::<f64>();
                Self::finish_prediction(f, mean_std_space, v_sq_sum)
            })
            .collect())
    }

    fn predict_batch_mut(&mut self, points: &[Vec<f64>]) -> crate::Result<Vec<Prediction>> {
        let Some(f) = self.fitted.as_ref() else {
            return Err(SurrogateError::NotFitted);
        };
        let dim = f.feat_lo.len();
        if let Some(p) = points.iter().find(|p| p.len() != dim) {
            return Err(SurrogateError::DimensionMismatch {
                expected: format!("points of dimension {dim}"),
                found: format!("point of dimension {}", p.len()),
            });
        }
        let n = f.x.rows();
        let m = points.len();

        // Reuse cached columns when they were computed under the current
        // hyperparameters for a training prefix of the current rows and
        // the exact same candidate set.
        let reusable = self
            .batch_cache
            .as_ref()
            .is_some_and(|c| c.generation == self.generation && c.n <= n && c.points == points);
        let mut cache = if reusable {
            self.batch_cache.take().expect("checked reusable")
        } else {
            let mut p_norm = Matrix::zeros(m, dim);
            for (r, point) in points.iter().enumerate() {
                let row = p_norm.row_mut(r);
                for (d, &raw) in point.iter().enumerate() {
                    row[d] = (raw - f.feat_lo[d]) / f.feat_span[d];
                }
            }
            BatchCache {
                points: points.to_vec(),
                p_norm,
                k_star: Matrix::zeros(m, n),
                v: Matrix::zeros(m, n),
                n: 0,
                generation: self.generation,
            }
        };

        // Grow K* and V out to n columns. Continuing forward substitution
        // from column `cache.n` performs exactly the arithmetic a full
        // solve would, so cached and fresh predictions agree bit for bit.
        if cache.n < n {
            let mut k_star = Matrix::zeros(m, n);
            let mut v = Matrix::zeros(m, n);
            let l = f.chol.factor().as_slice();
            for i in 0..m {
                k_star.row_mut(i)[..cache.n].copy_from_slice(&cache.k_star.row(i)[..cache.n]);
                v.row_mut(i)[..cache.n].copy_from_slice(&cache.v.row(i)[..cache.n]);
                for j in cache.n..n {
                    let k = Self::kernel_value(&f.hp, cache.p_norm.row(i), f.x.row(j));
                    k_star.row_mut(i)[j] = k;
                    // Same accumulation order as `solve_lower_into`
                    // (one dot product, subtracted once) so the result
                    // rounds identically.
                    let vi = v.row_mut(i);
                    let mut s = 0.0;
                    for (ljk, vk) in l[j * n..j * n + j].iter().zip(&vi[..j]) {
                        s += ljk * vk;
                    }
                    vi[j] = (k - s) / l[j * n + j];
                }
            }
            cache.k_star = k_star;
            cache.v = v;
            cache.n = n;
        }

        let predictions = (0..m)
            .map(|i| {
                let k_star = cache.k_star.row(i);
                let mean_std_space: f64 = k_star.iter().zip(&f.alpha).map(|(k, a)| k * a).sum();
                let v_sq_sum = cache.v.row(i).iter().map(|vi| vi * vi).sum::<f64>();
                Self::finish_prediction(f, mean_std_space, v_sq_sum)
            })
            .collect();
        self.batch_cache = Some(cache);
        Ok(predictions)
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
    }

    fn set_feature_box(&mut self, lo: &[f64], hi: &[f64]) {
        self.feature_box = Some((lo.to_vec(), hi.to_vec()));
    }

    fn name(&self) -> &'static str {
        "GP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freedom_linalg::cholesky;

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points() {
        let x = grid_1d(12);
        let y: Vec<f64> = x.iter().map(|r| (4.0 * r[0]).sin() + 2.0).collect();
        let mut gp = GaussianProcess::new(GpConfig::default(), 3);
        gp.fit(&x, &y).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let p = gp.predict(xi).unwrap();
            assert!((p.mean - yi).abs() < 0.05, "at {xi:?}: {} vs {yi}", p.mean);
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let x = grid_1d(8);
        let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0).collect();
        let mut gp = GaussianProcess::new(GpConfig::default(), 3);
        gp.fit(&x, &y).unwrap();
        let near = gp.predict(&[0.5]).unwrap();
        let far = gp.predict(&[3.0]).unwrap();
        assert!(far.std > near.std);
    }

    #[test]
    fn recovers_smooth_function_between_points() {
        let x = grid_1d(15);
        let y: Vec<f64> = x.iter().map(|r| (3.0 * r[0]).cos()).collect();
        let mut gp = GaussianProcess::new(GpConfig::default(), 9);
        gp.fit(&x, &y).unwrap();
        let p = gp.predict(&[0.4321]).unwrap();
        assert!((p.mean - (3.0 * 0.4321f64).cos()).abs() < 0.05);
    }

    #[test]
    fn errors_before_fit_and_on_bad_dimension() {
        let gp = GaussianProcess::new(GpConfig::default(), 1);
        assert_eq!(gp.predict(&[0.0]).unwrap_err(), SurrogateError::NotFitted);
        let mut gp = gp;
        gp.fit(&grid_1d(5), &[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!(matches!(
            gp.predict(&[0.0, 0.0]),
            Err(SurrogateError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn handles_constant_targets() {
        let x = grid_1d(6);
        let y = vec![5.0; 6];
        let mut gp = GaussianProcess::new(GpConfig::default(), 1);
        gp.fit(&x, &y).unwrap();
        let p = gp.predict(&[0.3]).unwrap();
        assert!((p.mean - 5.0).abs() < 1e-6);
    }

    #[test]
    fn handles_multidimensional_ard() {
        // y depends only on dim 0; ARD should still fit fine.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..6 {
            for j in 0..4 {
                x.push(vec![i as f64 / 5.0, j as f64 / 3.0]);
                y.push((i as f64 / 5.0) * 10.0);
            }
        }
        let mut gp = GaussianProcess::new(GpConfig::default(), 5);
        gp.fit(&x, &y).unwrap();
        let p = gp.predict(&[0.5, 0.2]).unwrap();
        assert!((p.mean - 5.0).abs() < 0.5, "mean {}", p.mean);
    }

    #[test]
    fn mll_is_finite_after_fit() {
        let x = grid_1d(10);
        let y: Vec<f64> = x.iter().map(|r| r[0].exp()).collect();
        let mut gp = GaussianProcess::new(GpConfig::default(), 2);
        assert!(gp.log_marginal_likelihood().is_none());
        gp.fit(&x, &y).unwrap();
        assert!(gp.log_marginal_likelihood().unwrap().is_finite());
    }

    #[test]
    fn predict_batch_is_bit_identical_to_predict() {
        let x = grid_1d(14);
        let y: Vec<f64> = x.iter().map(|r| (5.0 * r[0]).sin() + 3.0).collect();
        let mut gp = GaussianProcess::new(GpConfig::default(), 4);
        gp.fit(&x, &y).unwrap();
        let queries: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 13.0 - 0.5]).collect();
        let batch = gp.predict_batch(&queries).unwrap();
        for (q, b) in queries.iter().zip(&batch) {
            let single = gp.predict(q).unwrap();
            assert_eq!(single.mean.to_bits(), b.mean.to_bits());
            assert_eq!(single.std.to_bits(), b.std.to_bits());
        }
    }

    /// The append-one tier must reproduce exactly what a from-scratch
    /// factorization at the same hyperparameters would compute.
    #[test]
    fn incremental_update_matches_scratch_factorization() {
        let full_x = grid_1d(16);
        let full_y: Vec<f64> = full_x.iter().map(|r| (2.0 * r[0]).exp()).collect();
        // Normalization is stable for a prefix of an evenly spread grid
        // only if min/max are already covered; use a prefix that includes
        // both ends so lo/span stay fixed as rows are appended.
        let mut order: Vec<usize> = vec![0, 15];
        order.extend(1..15);
        let x_of =
            |k: usize| -> Vec<Vec<f64>> { order[..k].iter().map(|&i| full_x[i].clone()).collect() };
        let y_of = |k: usize| -> Vec<f64> { order[..k].iter().map(|&i| full_y[i]).collect() };

        let mut warm = GaussianProcess::new(
            GpConfig {
                refit_every: 100, // never re-search within this test
                ..GpConfig::default()
            },
            7,
        );
        warm.fit(&x_of(10), &y_of(10)).unwrap();
        for k in 11..=16 {
            warm.fit_update(&x_of(k), &y_of(k), 1000 + k as u64)
                .unwrap();
            assert_eq!(warm.fits_since_full(), k - 10, "append tier not taken");
            assert_matches_scratch_factorization(&warm);
        }
    }

    /// Rebuilds the fit's kernel at its hyperparameters and factors it
    /// from scratch: both the factor and alpha must match bit for bit
    /// (append_row is row-by-row Cholesky's own recurrence).
    fn assert_matches_scratch_factorization(gp: &GaussianProcess) {
        let f = gp.fitted.as_ref().unwrap();
        let n = f.x.rows();
        let mut k_mat = Matrix::zeros(n, n);
        GaussianProcess::kernel_matrix_into(&f.hp, &f.x, gp.config.noise_floor, &mut k_mat);
        let scratch = cholesky(&k_mat, 0.0).unwrap();
        assert_eq!(
            scratch.factor().as_slice(),
            f.chol.factor().as_slice(),
            "factor diverged at n = {n}"
        );
        let scratch_alpha = scratch.solve(&f.y_std_targets).unwrap();
        assert_eq!(scratch_alpha, f.alpha, "alpha diverged at n = {n}");
    }

    /// Appended rows that stay inside a fixed feature box but each move
    /// the rows' minimum or maximum: with the box every append takes the
    /// append tier, bit-identically to a scratch factorization; without
    /// it every append shifts the normalization and re-runs the search.
    #[test]
    fn a_feature_box_keeps_in_box_appends_on_the_append_tier() {
        let x: Vec<Vec<f64>> = vec![
            vec![0.5, 0.5],
            vec![0.45, 0.55],
            vec![0.3, 0.6],
            vec![0.6, 0.35],
            vec![0.2, 0.8],
            vec![0.75, 0.2],
            vec![0.1, 0.9],
            vec![0.9, 0.05],
        ];
        let y: Vec<f64> = x.iter().map(|r| 1.0 + r[0] + 0.5 * r[1] * r[1]).collect();
        let config = GpConfig {
            refit_every: 100, // only the normalization decides the tier
            ..GpConfig::default()
        };
        let mut boxed = GaussianProcess::new(config, 3);
        boxed.set_feature_box(&[0.0, 0.0], &[1.0, 1.0]);
        let mut unboxed = GaussianProcess::new(config, 3);
        boxed.fit(&x[..2], &y[..2]).unwrap();
        unboxed.fit(&x[..2], &y[..2]).unwrap();
        for k in 3..=x.len() {
            boxed.fit_update(&x[..k], &y[..k], k as u64).unwrap();
            assert_eq!(boxed.fits_since_full(), k - 2, "append tier not taken");
            assert_matches_scratch_factorization(&boxed);
            unboxed.fit_update(&x[..k], &y[..k], k as u64).unwrap();
            assert_eq!(unboxed.fits_since_full(), 0, "n = {k}: range moved");
        }
        // A row outside the box widens it for its fit: the normalization
        // shifts, so the update runs the search.
        let mut wide = x.clone();
        wide.push(vec![1.5, 0.5]);
        let wide_y: Vec<f64> = wide.iter().map(|r| 1.0 + r[0]).collect();
        boxed.fit_update(&wide, &wide_y, 99).unwrap();
        assert_eq!(boxed.fits_since_full(), 0);
        assert_eq!(boxed.fitted.as_ref().unwrap().feat_span, [1.5, 1.0]);
        // A box of the wrong dimension is an error, not a silent no-op.
        boxed.set_feature_box(&[0.0], &[1.0]);
        assert!(matches!(
            boxed.fit(&x, &y),
            Err(SurrogateError::DimensionMismatch { .. })
        ));
    }

    /// The cross-kernel cache must never change a prediction: cached
    /// batched calls agree bit-for-bit with uncached ones at every
    /// incremental step, including right after cache-extending appends.
    #[test]
    fn cached_batch_predictions_match_uncached_across_updates() {
        let full_x = grid_1d(16);
        let full_y: Vec<f64> = full_x.iter().map(|r| (2.5 * r[0]).sin() + 2.0).collect();
        let mut order: Vec<usize> = vec![0, 15];
        order.extend(1..15);
        let x_of =
            |k: usize| -> Vec<Vec<f64>> { order[..k].iter().map(|&i| full_x[i].clone()).collect() };
        let y_of = |k: usize| -> Vec<f64> { order[..k].iter().map(|&i| full_y[i]).collect() };
        let queries: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();

        let mut gp = GaussianProcess::new(
            GpConfig {
                refit_every: 3, // exercise both warm and full paths
                ..GpConfig::default()
            },
            5,
        );
        gp.fit(&x_of(10), &y_of(10)).unwrap();
        for k in 10..=16 {
            if k > 10 {
                gp.fit_update(&x_of(k), &y_of(k), k as u64).unwrap();
            }
            let cached = gp.predict_batch_mut(&queries).unwrap();
            let cached_again = gp.predict_batch_mut(&queries).unwrap();
            let uncached = gp.predict_batch(&queries).unwrap();
            for ((a, b), c) in cached.iter().zip(&cached_again).zip(&uncached) {
                assert_eq!(a.mean.to_bits(), c.mean.to_bits(), "n = {k}");
                assert_eq!(a.std.to_bits(), c.std.to_bits(), "n = {k}");
                assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "n = {k} (re-read)");
            }
        }
        // A different candidate set invalidates and rebuilds cleanly.
        let other: Vec<Vec<f64>> = (0..5).map(|i| vec![0.1 * i as f64]).collect();
        let fresh = gp.predict_batch_mut(&other).unwrap();
        let expect = gp.predict_batch(&other).unwrap();
        for (a, b) in fresh.iter().zip(&expect) {
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        }
    }

    #[test]
    fn alpha_only_tier_handles_changed_targets() {
        let x = grid_1d(9);
        let y: Vec<f64> = x.iter().map(|r| r[0] + 1.0).collect();
        let mut gp = GaussianProcess::new(
            GpConfig {
                refit_every: 100,
                ..GpConfig::default()
            },
            3,
        );
        gp.fit(&x, &y).unwrap();
        let y2: Vec<f64> = y.iter().map(|v| v * 2.0).collect();
        gp.fit_update(&x, &y2, 77).unwrap();
        assert_eq!(gp.fits_since_full(), 1);
        let p = gp.predict(&[0.5]).unwrap();
        assert!((p.mean - 3.0).abs() < 0.3, "mean {}", p.mean);
    }

    #[test]
    fn refit_schedule_triggers_full_search() {
        let x = grid_1d(12);
        let y: Vec<f64> = x.iter().map(|r| r[0] * 3.0 + 1.0).collect();
        let mut gp = GaussianProcess::new(
            GpConfig {
                refit_every: 2,
                ..GpConfig::default()
            },
            3,
        );
        gp.fit(&x[..8], &y[..8]).unwrap();
        // Use prefixes whose normalization cannot drift: rows 0..8 span
        // [0, 7/11] and appended rows extend the max, so every update
        // breaks the cache *or* hits the schedule; either way fit_update
        // must stay usable and correct.
        for k in 9..=12 {
            gp.fit_update(&x[..k], &y[..k], k as u64).unwrap();
            let p = gp.predict(&[0.5]).unwrap();
            assert!((p.mean - 2.5).abs() < 0.5, "n = {k}: mean {}", p.mean);
        }
    }

    #[test]
    fn fit_resets_the_incremental_schedule() {
        let x = grid_1d(10);
        let y: Vec<f64> = x.iter().map(|r| r[0]).collect();
        let mut gp = GaussianProcess::new(
            GpConfig {
                refit_every: 100,
                ..GpConfig::default()
            },
            1,
        );
        gp.fit(&x, &y).unwrap();
        gp.fit_update(&x, &y, 5).unwrap();
        assert_eq!(gp.fits_since_full(), 1);
        gp.fit(&x, &y).unwrap();
        assert_eq!(gp.fits_since_full(), 0);
    }

    /// The kernel diagonal shortcut: `σ_f² + σ_n² + floor` is exactly the
    /// evaluated `k(x, x) + σ_n² + floor` for finite rows, across the
    /// whole range the search's hyperparameters can take.
    #[test]
    fn kernel_diagonal_is_the_signal_and_noise_sum() {
        let mut rng = StdRng::seed_from_u64(11);
        for dim in [1usize, 3, 6] {
            for _ in 0..2000 {
                let hp = Hyperparams {
                    lengthscales: (0..dim)
                        .map(|_| 10f64.powf(rng.gen_range(-2.0..2.0)))
                        .collect(),
                    signal_var: 10f64.powf(rng.gen_range(-3.0..3.0)),
                    noise_var: 10f64.powf(rng.gen_range(-9.0..0.0)),
                };
                let row: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1e6..1e6)).collect();
                let evaluated =
                    GaussianProcess::kernel_value(&hp, &row, &row) + hp.noise_var + 1e-6;
                assert_eq!(
                    GaussianProcess::noisy_diag(&hp, 1e-6).to_bits(),
                    evaluated.to_bits()
                );
            }
        }
    }

    /// Every bit a fit exposes: hyperparameters, `α`, and the batched
    /// predictions at `queries`.
    fn fit_bits(gp: &GaussianProcess, queries: &[Vec<f64>]) -> Vec<u64> {
        let f = gp.fitted.as_ref().unwrap();
        let mut bits: Vec<u64> = f.hp.lengthscales.iter().map(|l| l.to_bits()).collect();
        bits.push(f.hp.signal_var.to_bits());
        bits.push(f.hp.noise_var.to_bits());
        bits.extend(f.alpha.iter().map(|a| a.to_bits()));
        for p in gp.predict_batch(queries).unwrap() {
            bits.push(p.mean.to_bits());
            bits.push(p.std.to_bits());
        }
        bits
    }

    /// Below `min_search_rows` a full fit keeps the better fixed
    /// candidate: bit for bit what a GP with no random draws and no
    /// refinement computes, cold (`fit`) and warm-started (a
    /// `fit_update` whose rows do not extend the previous ones). At the
    /// threshold it is the default GP's search, bit for bit.
    #[test]
    fn fits_below_min_search_rows_score_only_the_fixed_candidates() {
        let gated = GpConfig {
            min_search_rows: 3,
            ..GpConfig::default()
        };
        let fixed_only = GpConfig {
            candidates: 0,
            refine_passes: 0,
            ..GpConfig::default()
        };
        let searching = GpConfig::default();
        let mut searched_differently = false;
        for dim in [1usize, 6] {
            for seed in [1u64, 7, 42] {
                let mut rng = StdRng::seed_from_u64(seed ^ dim as u64);
                let x: Vec<Vec<f64>> = (0..5)
                    .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
                    .collect();
                // Seed 42's targets cross zero, so it fits in linear
                // space; the others fit in log space.
                let shift = if seed == 42 { 1.5 } else { 0.0 };
                let y: Vec<f64> = x
                    .iter()
                    .map(|r| 1.0 + r.iter().sum::<f64>() + 0.3 * (5.0 * r[0]).sin() - shift)
                    .collect();
                let queries: Vec<Vec<f64>> = (0..12)
                    .map(|_| (0..dim).map(|_| rng.gen_range(-0.2..1.2)).collect())
                    .collect();
                let run = |config: GpConfig, rows: usize| {
                    let mut gp = GaussianProcess::new(config, seed);
                    gp.fit(&x[..rows], &y[..rows]).unwrap();
                    let cold = fit_bits(&gp, &queries);
                    // Rows 2.. replace rows 0..: a warm-started full
                    // search over as many rows.
                    gp.fit_update(&x[2..2 + rows], &y[2..2 + rows], seed + 1)
                        .unwrap();
                    assert_eq!(gp.fits_since_full(), 0);
                    (cold, fit_bits(&gp, &queries))
                };
                let case = format!("dim {dim} seed {seed}");
                let two = run(gated, 2);
                assert_eq!(two, run(fixed_only, 2), "2 rows, {case}");
                searched_differently |= two != run(searching, 2);
                assert_eq!(run(gated, 3), run(searching, 3), "3 rows, {case}");
            }
        }
        assert!(
            searched_differently,
            "the search never beat the fixed candidates on two rows"
        );
    }

    /// Golden bits of the hyperparameter search: a fixed sweep of fits
    /// and updates through all three tiers, every chosen hyperparameter,
    /// `α` and 30 batched predictions folded into one fingerprint. The
    /// constant is what this body computed before the search moved into
    /// a reused workspace; any change to the search's arithmetic or its
    /// operation order moves it.
    #[test]
    fn search_results_are_bit_stable() {
        const GOLDEN: u64 = 0x3e77_8473_40c1_8576;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bits: u64| h = (h ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
        for dim in [1usize, 6] {
            for n in [1usize, 2, 3, 4, 6, 10, 20] {
                for seed in [1u64, 7, 42] {
                    let mut rng = StdRng::seed_from_u64(seed ^ (n * 16 + dim) as u64);
                    // Rows 0 and 1 are the unit box's corners, so every
                    // later row inside the box leaves the normalization
                    // unchanged; row n + 1 lies outside it.
                    let mut x: Vec<Vec<f64>> = vec![vec![0.0; dim], vec![1.0; dim]];
                    while x.len() < n + 1 {
                        x.push((0..dim).map(|_| rng.gen_range(0.0..1.0)).collect());
                    }
                    x.push(vec![1.5; dim]);
                    // Seed 42's targets cross zero, so it fits in linear
                    // space; the others fit in log space.
                    let shift = if seed == 42 { 2.0 } else { 0.0 };
                    let y: Vec<f64> = x
                        .iter()
                        .map(|r| {
                            let s: f64 =
                                r.iter().enumerate().map(|(k, v)| v * (k + 1) as f64).sum();
                            1.0 + s + 0.3 * (5.0 * r[0]).sin() - shift
                        })
                        .collect();
                    let y2: Vec<f64> = y.iter().map(|v| v * 1.5).collect();
                    let queries: Vec<Vec<f64>> = (0..30)
                        .map(|_| (0..dim).map(|_| rng.gen_range(-0.2..1.2)).collect())
                        .collect();

                    let mut gp = GaussianProcess::new(GpConfig::default(), seed);
                    let mut check = |gp: &mut GaussianProcess, tier: usize| {
                        assert_eq!(gp.fits_since_full(), tier, "n {n} dim {dim} seed {seed}");
                        let f = gp.fitted.as_ref().unwrap();
                        for &l in &f.hp.lengthscales {
                            fold(l.to_bits());
                        }
                        fold(f.hp.signal_var.to_bits());
                        fold(f.hp.noise_var.to_bits());
                        for &a in &f.alpha {
                            fold(a.to_bits());
                        }
                        let batch = gp.predict_batch(&queries).unwrap();
                        let cached = gp.predict_batch_mut(&queries).unwrap();
                        for p in batch.iter().chain(&cached) {
                            fold(p.mean.to_bits());
                            fold(p.std.to_bits());
                        }
                    };
                    gp.fit(&x[..n], &y[..n]).unwrap();
                    check(&mut gp, 0);
                    // Tier 1: same rows, new targets.
                    gp.fit_update(&x[..n], &y2[..n], seed + 1).unwrap();
                    check(&mut gp, 1);
                    // Tier 2: one row appended inside the box.
                    gp.fit_update(&x[..n + 1], &y[..n + 1], seed + 2).unwrap();
                    check(&mut gp, 2);
                    // Tier 3: a row outside the box shifts the
                    // normalization, forcing a warm-started search.
                    gp.fit_update(&x, &y, seed + 3).unwrap();
                    check(&mut gp, 0);
                }
            }
        }
        println!("search fingerprint: {h:#018x}");
        assert_eq!(h, GOLDEN, "search fingerprint {h:#018x}");
    }
}
