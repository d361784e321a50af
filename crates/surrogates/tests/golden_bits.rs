//! Golden bits of the tree ensembles.
//!
//! For each of RF, ET and GBRT, a fixed sweep of `fit`, every
//! `fit_update` tier (warm append-one, the full-refit cadence, the
//! same-size, edited-prefix and multi-row fallbacks) and every prediction
//! entry point (`predict`, `predict_batch`, and `predict_batch_mut`
//! across a candidate-set shrink and regrow) is folded into one
//! fingerprint. The body uses only the public trait API, and each
//! constant is what it computed on the pointer-tree implementation with
//! per-point batch prediction. A change to a fit's arithmetic, its RNG
//! draw order or a prediction's summation order moves the fingerprint.

use freedom_surrogates::{Prediction, Surrogate, SurrogateKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a style fold of 64-bit words.
struct Fold(u64);

impl Fold {
    fn word(&mut self, bits: u64) {
        self.0 = (self.0 ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn predictions(&mut self, predictions: &[Prediction]) {
        for p in predictions {
            self.word(p.mean.to_bits());
            self.word(p.std.to_bits());
        }
    }
}

/// Predicts `queries` through every entry point, with a candidate-set
/// shrink and regrow in between, and folds every result.
fn check(model: &mut dyn Surrogate, queries: &[Vec<f64>], fold: &mut Fold) {
    let single: Vec<Prediction> = queries.iter().map(|q| model.predict(q).unwrap()).collect();
    fold.predictions(&single);
    fold.predictions(&model.predict_batch(queries).unwrap());
    fold.predictions(&model.predict_batch_mut(queries).unwrap());
    let sliced: Vec<Vec<f64>> = queries.iter().step_by(3).cloned().collect();
    fold.predictions(&model.predict_batch_mut(&sliced).unwrap());
    fold.predictions(&model.predict_batch_mut(queries).unwrap());
}

fn fingerprint(kind: SurrogateKind) -> u64 {
    let mut fold = Fold(0xcbf2_9ce4_8422_2325);
    for dim in [1usize, 6] {
        for n in [1usize, 2, 3, 5, 9, 16] {
            for seed in [1u64, 7, 42] {
                let mut rng = StdRng::seed_from_u64(seed ^ (n * 16 + dim) as u64);
                // Features on a coarse grid, as Table 1's encodings are, so
                // split searches meet tied values; duplicate rows get
                // different targets, so leaves carry variance.
                let x: Vec<Vec<f64>> = (0..n + 7)
                    .map(|_| (0..dim).map(|_| rng.gen_range(0..5) as f64 / 4.0).collect())
                    .collect();
                let y: Vec<f64> = x
                    .iter()
                    .map(|r| {
                        let s: f64 = r.iter().enumerate().map(|(k, v)| v * (k + 1) as f64).sum();
                        1.0 + s + 0.3 * (5.0 * r[0]).sin() + 0.05 * rng.gen_range(-1.0..1.0)
                    })
                    .collect();
                let y2: Vec<f64> = y.iter().map(|v| v * 1.5 - 0.25).collect();
                // Queries on a finer grid reaching outside the box, so
                // some land exactly on split thresholds.
                let queries: Vec<Vec<f64>> = (0..40)
                    .map(|_| {
                        (0..dim)
                            .map(|_| rng.gen_range(-2..11) as f64 / 8.0)
                            .collect()
                    })
                    .collect();

                let mut model = kind.build(seed);
                let m = model.as_mut();
                m.fit(&x[..n], &y[..n]).unwrap();
                check(m, &queries, &mut fold);
                // Warm appends, one row each.
                for k in 1..=2 {
                    m.fit_update(&x[..n + k], &y[..n + k], seed + k as u64)
                        .unwrap();
                    check(m, &queries, &mut fold);
                }
                // Same rows, new targets: a full-refit fallback.
                m.fit_update(&x[..n + 2], &y2[..n + 2], seed + 3).unwrap();
                check(m, &queries, &mut fold);
                // Three warm appends, then the cadence's full refit.
                for k in 3..=6 {
                    m.fit_update(&x[..n + k], &y2[..n + k], seed + 1 + k as u64)
                        .unwrap();
                    check(m, &queries, &mut fold);
                }
                // A plain fit, then one warm append on top of it.
                m.fit(&x[..n + 5], &y[..n + 5]).unwrap();
                check(m, &queries, &mut fold);
                m.fit_update(&x[..n + 6], &y[..n + 6], seed + 8).unwrap();
                check(m, &queries, &mut fold);
                // One row appended to an edited prefix: a fallback.
                let mut y3 = y.clone();
                y3[0] += 0.5;
                m.fit_update(&x[..n + 7], &y3[..n + 7], seed + 9).unwrap();
                check(m, &queries, &mut fold);
                // Two rows dropped: a fallback.
                m.fit_update(&x[..n + 5], &y3[..n + 5], seed + 10).unwrap();
                check(m, &queries, &mut fold);
            }
        }
    }
    fold.0
}

fn assert_golden(kind: SurrogateKind, golden: u64) {
    let h = fingerprint(kind);
    println!("{kind} fingerprint: {h:#018x}");
    assert_eq!(h, golden, "{kind} fingerprint {h:#018x}");
}

#[test]
fn random_forest_results_are_bit_stable() {
    assert_golden(SurrogateKind::Rf, 0xf307_6ec5_344b_ea8c);
}

#[test]
fn extra_trees_results_are_bit_stable() {
    assert_golden(SurrogateKind::Et, 0x04bc_441f_c9fb_70ad);
}

#[test]
fn gradient_boosting_results_are_bit_stable() {
    assert_golden(SurrogateKind::Gbrt, 0x6bbc_daf7_24e7_23e1);
}
