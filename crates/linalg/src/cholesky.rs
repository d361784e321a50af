//! Cholesky factorization for symmetric positive-definite matrices.
//!
//! The Gaussian-process surrogate factorizes its kernel matrix on every fit;
//! kernel matrices can be numerically borderline, so [`cholesky`] retries
//! with growing diagonal jitter before giving up, the standard GP trick.
//!
//! This is the optimization hot path of the whole workspace, so the
//! routines here work directly on the matrix's flat row-major buffer:
//! every inner loop is a contiguous slice dot-product (the Cholesky–Crout
//! ordering makes both operands row prefixes, which is as cache-friendly
//! as a blocked layout at the kernel sizes we see, n ≤ a few hundred).
//! Four additions serve the incremental BO loop:
//!
//! - [`Cholesky::append_row`] extends a factor by one trailing row in
//!   O(n²), bit-identically to refactorizing from scratch — row-by-row
//!   Cholesky only ever reads previously finished rows, so the appended
//!   row is *the same arithmetic* the full factorization would have done;
//! - [`Cholesky::inv_diag`] returns `diag(A⁻¹)` in one O(n³/6) triangular
//!   inversion instead of n full solves (the leave-one-out score needs
//!   exactly this diagonal);
//! - [`Cholesky::solve_lower_multi`] forward-substitutes many right-hand
//!   sides in one pass over the factor (batched GP prediction);
//! - in-place entry points for a caller that scores many matrices in a
//!   row (the GP's hyperparameter search): [`Cholesky::refactor`]
//!   factorizes into an existing factor's buffer, and
//!   [`Cholesky::solve_into`] / [`Cholesky::inv_diag_into`] write into
//!   caller buffers. [`cholesky`], [`Cholesky::solve`] and
//!   [`Cholesky::inv_diag`] are thin allocating wrappers over them, so
//!   both forms produce the same bits.

use crate::{LinalgError, Matrix, Result};

/// Dot product of two equal-length slices.
///
/// Every subtraction of partial sums in this module goes through this
/// helper so that the full factorization and the incremental
/// [`Cholesky::append_row`] path accumulate in the same order and stay
/// bit-identical.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        s += x * y;
    }
    s
}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// # Examples
///
/// ```
/// use freedom_linalg::{Matrix, cholesky};
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
/// let ch = cholesky(&a, 0.0).unwrap();
/// let x = ch.solve(&[8.0, 7.0]).unwrap();
/// let ax = a.matvec(&x).unwrap();
/// assert!((ax[0] - 8.0).abs() < 1e-10);
/// assert!((ax[1] - 7.0).abs() < 1e-10);
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// The jitter that was actually added to the diagonal to achieve
    /// positive definiteness (0.0 when none was needed).
    jitter_used: f64,
}

/// An empty factor of dimension 0: a buffer for [`Cholesky::refactor`].
impl Default for Cholesky {
    fn default() -> Self {
        Self {
            l: Matrix::zeros(0, 0),
            jitter_used: 0.0,
        }
    }
}

impl Cholesky {
    /// Factorizes `a` into this factor's buffer, with the same jitter
    /// ladder as [`cholesky`] (which is this method on an empty factor).
    ///
    /// Nothing of the previous factorization survives: on success every
    /// entry of the factor and the jitter are rewritten, and on error the
    /// factor is left empty (dimension 0). The buffer's allocation is
    /// kept either way, so refactoring same-sized matrices in a loop
    /// allocates nothing.
    pub fn refactor(&mut self, a: &Matrix, initial_jitter: f64) -> Result<()> {
        self.l.reset_zeros(0, 0);
        self.jitter_used = 0.0;
        let n = a.rows();
        if n != a.cols() {
            return Err(LinalgError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let ad = a.as_slice();
        let mean_diag = (0..n).map(|i| ad[i * n + i].abs()).sum::<f64>() / n as f64;
        let max_jitter = (1e-2 * mean_diag).max(1e-10);
        // Zero once: a pass writes each row's lower triangle and diagonal
        // before any later row reads them, and never touches the upper
        // triangle, so a failed pass leaves nothing a retry would read.
        self.l.reset_zeros(n, n);
        let mut jitter = initial_jitter;
        loop {
            match factorize_into(ad, n, jitter, self.l.as_mut_slice()) {
                Ok(()) => {
                    self.jitter_used = jitter;
                    return Ok(());
                }
                Err(_) if jitter < max_jitter => {
                    jitter = if jitter == 0.0 { 1e-10 } else { jitter * 10.0 };
                }
                Err(e) => {
                    self.l.reset_zeros(0, 0);
                    return Err(e);
                }
            }
        }
    }

    /// The lower-triangular factor.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Diagonal jitter that was required for the factorization to succeed.
    pub fn jitter_used(&self) -> f64 {
        self.jitter_used
    }

    /// Solves `A x = b` via forward then backward substitution.
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b` has the wrong
    /// length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.l.rows()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`Cholesky::solve`] into a caller-provided buffer: forward
    /// substitution into `out`, then backward substitution in place.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) -> Result<()> {
        self.solve_lower_into(b, out)?;
        self.back_substitute(out);
        Ok(())
    }

    /// Solves `L y = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.l.rows()];
        self.solve_lower_into(b, &mut y)?;
        Ok(y)
    }

    /// Solves `Lᵀ x = y` (backward substitution).
    pub fn solve_upper(&self, y: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.l.rows()];
        self.solve_upper_into(y, &mut x)?;
        Ok(x)
    }

    /// Forward substitution into a caller-provided buffer (no allocation;
    /// the batched predictors call this in a loop).
    pub fn solve_lower_into(&self, b: &[f64], out: &mut [f64]) -> Result<()> {
        let n = self.l.rows();
        if b.len() != n || out.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vectors of length {n}"),
                found: format!("lengths {} and {}", b.len(), out.len()),
            });
        }
        let l = self.l.as_slice();
        for i in 0..n {
            let row = &l[i * n..i * n + i];
            out[i] = (b[i] - dot(row, &out[..i])) / l[i * n + i];
        }
        Ok(())
    }

    /// Backward substitution into a caller-provided buffer.
    pub fn solve_upper_into(&self, y: &[f64], out: &mut [f64]) -> Result<()> {
        let n = self.l.rows();
        if y.len() != n || out.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vectors of length {n}"),
                found: format!("lengths {} and {}", y.len(), out.len()),
            });
        }
        out.copy_from_slice(y);
        self.back_substitute(out);
        Ok(())
    }

    /// Solves `Lᵀ x = y` in place (`x` holds `y` on entry). Row i reads
    /// only `y[i]` and the already-solved `x[i+1..]`, so overwriting `y`
    /// as it goes is the same arithmetic as a separate output buffer.
    fn back_substitute(&self, x: &mut [f64]) {
        let n = self.l.rows();
        let l = self.l.as_slice();
        for i in (0..n).rev() {
            let mut sum = x[i];
            // Lᵀ's row i is L's column i: strided access is unavoidable
            // here, but the loop body is a single fused multiply-subtract.
            for j in (i + 1)..n {
                sum -= l[j * n + i] * x[j];
            }
            x[i] = sum / l[i * n + i];
        }
    }

    /// Solves `L Y = Bᵀ` for many right-hand sides at once: each row of
    /// `rhs_rows` is an independent `b`, and each row of the result is the
    /// corresponding `y`.
    ///
    /// Arithmetic per row is identical to [`Cholesky::solve_lower`], so
    /// batched and per-point callers get bit-identical results.
    pub fn solve_lower_multi(&self, rhs_rows: &Matrix) -> Result<Matrix> {
        let n = self.l.rows();
        if rhs_rows.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("{n} columns"),
                found: format!("{} columns", rhs_rows.cols()),
            });
        }
        let mut out = Matrix::zeros(rhs_rows.rows(), n);
        for r in 0..rhs_rows.rows() {
            self.solve_lower_into(rhs_rows.row(r), out.row_mut(r))?;
        }
        Ok(out)
    }

    /// The diagonal of `A⁻¹` via one triangular inversion.
    ///
    /// With `W = L⁻¹` (lower triangular), `A⁻¹ = Wᵀ W`, so
    /// `diag(A⁻¹)ᵢ = Σ_{k≥i} W[k][i]²`. This costs O(n³/6) — the previous
    /// implementation solved n basis vectors for O(n³) — and is what the
    /// GP's leave-one-out score needs on every candidate fit.
    pub fn inv_diag(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.l.rows()];
        self.inv_diag_in_place(&mut d);
        d
    }

    /// [`Cholesky::inv_diag`] into a caller-provided buffer of length
    /// [`Cholesky::dim`].
    pub fn inv_diag_into(&self, out: &mut [f64]) -> Result<()> {
        let n = self.l.rows();
        if out.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                found: format!("length {}", out.len()),
            });
        }
        self.inv_diag_in_place(out);
        Ok(())
    }

    /// `diag(A⁻¹)` with no scratch beyond `out`: column j of `W` needs
    /// only `W[j..][j]`, which it builds in `out[j..]` — entries no
    /// earlier column's result occupies — before folding it into `out[j]`.
    fn inv_diag_in_place(&self, out: &mut [f64]) {
        let n = self.l.rows();
        let l = self.l.as_slice();
        for j in 0..n {
            out[j] = 1.0 / l[j * n + j];
            for i in (j + 1)..n {
                // W[i][j] = -(Σ_{k=j..i-1} L[i][k]·W[k][j]) / L[i][i].
                let mut s = 0.0;
                for k in j..i {
                    s += l[i * n + k] * out[k];
                }
                out[i] = -s / l[i * n + i];
            }
            out[j] = out[j..].iter().map(|w| w * w).sum();
        }
    }

    /// Log-determinant of `A`, i.e. `2 Σ log L[i][i]`.
    ///
    /// Needed for the GP log-marginal-likelihood.
    pub fn log_det(&self) -> f64 {
        let n = self.l.rows();
        let l = self.l.as_slice();
        (0..n).map(|i| l[i * n + i].ln()).sum::<f64>() * 2.0
    }

    /// Extends the factor of an n×n matrix to (n+1)×(n+1) in O(n²).
    ///
    /// `a_row` is the new trailing row of `A` (length n+1, diagonal entry
    /// last); the jitter recorded at factorization time is applied to the
    /// new diagonal entry, mirroring what a full refactorization would do.
    /// Row-by-row Cholesky computes each row from already-finished rows
    /// only, so the appended row is bit-identical to the one a from-scratch
    /// factorization of the extended matrix would produce.
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] (leaving `self`
    /// unchanged) when the extended matrix is not positive definite at the
    /// current jitter — callers should fall back to a full factorization.
    pub fn append_row(&mut self, a_row: &[f64]) -> Result<()> {
        let n = self.l.rows();
        if a_row.len() != n + 1 {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("row of length {}", n + 1),
                found: format!("row of length {}", a_row.len()),
            });
        }
        let l = self.l.as_slice();
        let mut new_row = vec![0.0; n + 1];
        for j in 0..n {
            let (head, _) = new_row.split_at(j);
            let s = dot(head, &l[j * n..j * n + j]);
            new_row[j] = (a_row[j] - s) / l[j * n + j];
        }
        let s = dot(&new_row[..n], &new_row[..n]);
        let d = a_row[n] + self.jitter_used - s;
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite);
        }
        new_row[n] = d.sqrt();

        // Re-lay the flat buffer with one extra column per row.
        let mut data = Vec::with_capacity((n + 1) * (n + 1));
        for i in 0..n {
            data.extend_from_slice(&l[i * n..(i + 1) * n]);
            data.push(0.0);
        }
        data.extend_from_slice(&new_row);
        self.l = Matrix::from_vec(n + 1, n + 1, data)?;
        Ok(())
    }
}

/// Factorizes a symmetric positive-definite matrix, retrying with growing
/// diagonal jitter starting from `initial_jitter`.
///
/// Pass `0.0` to attempt an exact factorization first. On failure the
/// routine escalates jitter by ×10 up to `1e-2 · mean(diag)` before
/// returning [`LinalgError::NotPositiveDefinite`].
pub fn cholesky(a: &Matrix, initial_jitter: f64) -> Result<Cholesky> {
    let mut ch = Cholesky::default();
    ch.refactor(a, initial_jitter)?;
    Ok(ch)
}

/// One Cholesky–Crout pass of the n×n matrix `ad` into `ld`'s lower
/// triangle. Row i is computed from rows 0..i only (which is what makes
/// [`Cholesky::append_row`] exact).
fn factorize_into(ad: &[f64], n: usize, jitter: f64, ld: &mut [f64]) -> Result<()> {
    for i in 0..n {
        // Split so row i is writable while rows 0..i stay readable.
        let (done, current) = ld.split_at_mut(i * n);
        let row_i = &mut current[..n];
        for j in 0..i {
            let s = dot(&row_i[..j], &done[j * n..j * n + j]);
            row_i[j] = (ad[i * n + j] - s) / done[j * n + j];
        }
        let s = dot(&row_i[..i], &row_i[..i]);
        let d = ad[i * n + i] + jitter - s;
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite);
        }
        row_i[i] = d.sqrt();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 3.0, 0.4], &[0.6, 0.4, 2.0]]).unwrap()
    }

    /// An SPD kernel-like matrix of arbitrary size.
    fn spd(n: usize) -> Matrix {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let v = (-((i as f64 - j as f64).powi(2)) / 8.0).exp();
                a.set(i, j, v);
            }
            a.set(i, i, a.get(i, i) + 0.1);
        }
        a
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = spd3();
        let ch = cholesky(&a, 0.0).unwrap();
        let l = ch.factor();
        let lt = l.transpose();
        let back = l.matmul(&lt).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                assert!((back.get(r, c) - a.get(r, c)).abs() < 1e-10);
            }
        }
        assert_eq!(ch.jitter_used(), 0.0);
        assert_eq!(ch.dim(), 3);
    }

    #[test]
    fn solve_matches_direct_solution() {
        let a = spd3();
        let ch = cholesky(&a, 0.0).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = ch.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (lhs, rhs) in ax.iter().zip(b.iter()) {
            assert!((lhs - rhs).abs() < 1e-10);
        }
    }

    #[test]
    fn log_det_matches_known_value() {
        // det(diag(4, 9)) = 36.
        let a = Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 9.0]]).unwrap();
        let ch = cholesky(&a, 0.0).unwrap();
        assert!((ch.log_det() - 36.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn jitter_rescues_semidefinite_matrix() {
        // Rank-1 matrix: positive semi-definite but not definite.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let ch = cholesky(&a, 0.0).unwrap();
        assert!(ch.jitter_used() > 0.0);
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert_eq!(
            cholesky(&a, 0.0).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            cholesky(&a, 0.0).unwrap_err(),
            LinalgError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn inv_diag_matches_basis_solves() {
        let a = spd(17);
        let ch = cholesky(&a, 0.0).unwrap();
        let fast = ch.inv_diag();
        for i in 0..17 {
            let mut e = vec![0.0; 17];
            e[i] = 1.0;
            let col = ch.solve(&e).unwrap();
            assert!(
                (fast[i] - col[i]).abs() < 1e-9 * col[i].abs().max(1.0),
                "diag {i}: {} vs {}",
                fast[i],
                col[i]
            );
        }
    }

    #[test]
    fn append_row_is_bit_identical_to_refactorization() {
        let big = spd(24);
        for n in [1usize, 5, 12, 23] {
            // Factor the leading n×n block, then append row n.
            let mut lead = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    lead.set(i, j, big.get(i, j));
                }
            }
            let mut incr = cholesky(&lead, 0.0).unwrap();
            let row: Vec<f64> = (0..=n).map(|j| big.get(n, j)).collect();
            incr.append_row(&row).unwrap();

            let mut full_in = Matrix::zeros(n + 1, n + 1);
            for i in 0..=n {
                for j in 0..=n {
                    full_in.set(i, j, big.get(i, j));
                }
            }
            let full = cholesky(&full_in, 0.0).unwrap();
            assert_eq!(
                incr.factor().as_slice(),
                full.factor().as_slice(),
                "n = {n}: incremental factor differs from scratch"
            );
        }
    }

    #[test]
    fn append_row_rejects_bad_rows_and_preserves_state() {
        let a = spd3();
        let mut ch = cholesky(&a, 0.0).unwrap();
        let before = ch.factor().clone();
        assert!(matches!(
            ch.append_row(&[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        // A row that breaks positive definiteness is rejected cleanly.
        assert_eq!(
            ch.append_row(&[10.0, 10.0, 10.0, 0.1]).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
        assert_eq!(ch.factor(), &before);
    }

    #[test]
    fn solve_lower_multi_matches_individual_solves() {
        let a = spd(9);
        let ch = cholesky(&a, 0.0).unwrap();
        let rhs =
            Matrix::from_vec(4, 9, (0..36).map(|i| ((i * 13) % 7) as f64 - 3.0).collect()).unwrap();
        let multi = ch.solve_lower_multi(&rhs).unwrap();
        for r in 0..4 {
            let single = ch.solve_lower(rhs.row(r)).unwrap();
            assert_eq!(multi.row(r), single.as_slice(), "row {r}");
        }
        let bad = Matrix::zeros(2, 5);
        assert!(ch.solve_lower_multi(&bad).is_err());
    }

    #[test]
    fn into_variants_validate_lengths() {
        let ch = cholesky(&spd3(), 0.0).unwrap();
        let mut out = vec![0.0; 2];
        assert!(ch.solve_lower_into(&[1.0, 2.0, 3.0], &mut out).is_err());
        assert!(ch.solve_upper_into(&[1.0, 2.0], &mut [0.0; 3]).is_err());
        assert!(ch.solve_into(&[1.0, 2.0, 3.0], &mut out).is_err());
        assert!(ch.inv_diag_into(&mut out).is_err());
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts a reused factor of `a` holds exactly what the allocating
    /// entry points compute: every factor entry (the zero upper triangle
    /// included), the jitter, a solve and the inverse diagonal, bit for
    /// bit. The output buffers start out holding NaN, so a stale entry
    /// would show.
    fn assert_matches_fresh(reused: &Cholesky, a: &Matrix) {
        let fresh = cholesky(a, 0.0).unwrap();
        let n = fresh.dim();
        assert_eq!(reused.dim(), n);
        assert_eq!(
            bits(reused.factor().as_slice()),
            bits(fresh.factor().as_slice())
        );
        assert_eq!(
            reused.jitter_used().to_bits(),
            fresh.jitter_used().to_bits()
        );
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 1.5).collect();
        let mut x = vec![f64::NAN; n];
        reused.solve_into(&b, &mut x).unwrap();
        assert_eq!(bits(&x), bits(&fresh.solve(&b).unwrap()));
        let mut d = vec![f64::NAN; n];
        reused.inv_diag_into(&mut d).unwrap();
        assert_eq!(bits(&d), bits(&fresh.inv_diag()));
    }

    #[test]
    fn refactor_reuses_one_buffer_bit_identically() {
        let mut ch = Cholesky::default();
        assert_eq!(ch.dim(), 0);
        for n in [6usize, 2, 9] {
            let a = spd(n);
            ch.refactor(&a, 0.0).unwrap();
            assert_matches_fresh(&ch, &a);
        }
    }

    #[test]
    fn refactor_runs_the_jitter_ladder_and_leaves_no_jitter_behind() {
        // All ones: rank one, positive semi-definite, so it only factors
        // with jitter.
        let ones = Matrix::from_vec(4, 4, vec![1.0; 16]).unwrap();
        let mut ch = cholesky(&spd(9), 0.0).unwrap();
        ch.refactor(&ones, 0.0).unwrap();
        assert!(ch.jitter_used() > 0.0);
        assert_matches_fresh(&ch, &ones);
        // The next matrix needs none, and gets none.
        ch.refactor(&spd3(), 0.0).unwrap();
        assert_eq!(ch.jitter_used(), 0.0);
        assert_matches_fresh(&ch, &spd3());
    }

    #[test]
    fn failed_refactor_leaves_an_empty_factor_and_no_stale_rows() {
        let mut ch = Cholesky::default();
        ch.refactor(&spd(9), 0.0).unwrap();
        // Indefinite at every rung of the ladder: row 3 fails after rows
        // 0..3 were written, on every pass.
        let mut bad = spd(5);
        bad.set(3, 3, -1.0);
        assert_eq!(
            ch.refactor(&bad, 0.0).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
        assert_eq!(ch.dim(), 0);
        assert!(ch.solve_into(&[1.0; 5], &mut [0.0; 5]).is_err());
        assert_eq!(ch.inv_diag_into(&mut []), Ok(()));
        ch.refactor(&spd(5), 0.0).unwrap();
        assert_matches_fresh(&ch, &spd(5));
        // Shape errors empty the factor too.
        assert!(matches!(
            ch.refactor(&Matrix::zeros(2, 3), 0.0).unwrap_err(),
            LinalgError::DimensionMismatch { .. }
        ));
        assert_eq!(ch.dim(), 0);
    }
}
