//! Property-based tests across all surrogate kinds.

use freedom_surrogates::{Prediction, Surrogate, SurrogateError, SurrogateKind};
use proptest::prelude::*;

fn any_kind() -> impl Strategy<Value = SurrogateKind> {
    prop::sample::select(SurrogateKind::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn predictions_are_finite_with_nonnegative_std(
        kind in any_kind(),
        targets in prop::collection::vec(-100.0f64..100.0, 8..24),
        query in -2.0f64..3.0,
    ) {
        let x: Vec<Vec<f64>> = (0..targets.len())
            .map(|i| vec![i as f64 / (targets.len() - 1) as f64])
            .collect();
        let mut model = kind.build(11);
        model.fit(&x, &targets).unwrap();
        let p = model.predict(&[query]).unwrap();
        prop_assert!(p.mean.is_finite(), "{kind}: mean {}", p.mean);
        prop_assert!(p.std.is_finite() && p.std >= 0.0, "{kind}: std {}", p.std);
    }

    #[test]
    fn mean_stays_within_reasonable_envelope(
        kind in any_kind(),
        targets in prop::collection::vec(0.0f64..10.0, 10..20),
    ) {
        // Inside the hull of the data, predictions should not explode far
        // beyond the target range.
        let x: Vec<Vec<f64>> = (0..targets.len())
            .map(|i| vec![i as f64 / (targets.len() - 1) as f64])
            .collect();
        let mut model = kind.build(3);
        model.fit(&x, &targets).unwrap();
        for q in [0.1, 0.35, 0.62, 0.9] {
            let p = model.predict(&[q]).unwrap();
            prop_assert!(
                p.mean > -10.0 && p.mean < 20.0,
                "{kind} at {q}: mean {}",
                p.mean
            );
        }
    }

    #[test]
    fn refit_resets_previous_state(
        kind in any_kind(),
        first in prop::collection::vec(0.0f64..1.0, 8),
        offset in 10.0f64..20.0,
    ) {
        let x: Vec<Vec<f64>> = (0..first.len()).map(|i| vec![i as f64]).collect();
        let second: Vec<f64> = first.iter().map(|v| v + offset).collect();
        let mut model = kind.build(4);
        model.fit(&x, &first).unwrap();
        model.fit(&x, &second).unwrap();
        let p = model.predict(&[3.0]).unwrap();
        // After refitting on shifted targets the prediction must live near
        // the new range, not the old one.
        prop_assert!(p.mean > offset - 2.0, "{kind}: {} vs offset {offset}", p.mean);
    }
}

/// The three prediction entry points at `points`, as bits: the cached
/// batch (twice, so the second call reads a warm cache), the uncached
/// batch, and one `predict` per point. An error must be the same from
/// all three, and the per-point one is the first point's error.
fn three_ways(
    model: &mut dyn Surrogate,
    points: &[Vec<f64>],
) -> [Result<Vec<(u64, u64)>, SurrogateError>; 4] {
    let bits = |r: Result<Vec<Prediction>, SurrogateError>| {
        r.map(|ps| {
            ps.iter()
                .map(|p| (p.mean.to_bits(), p.std.to_bits()))
                .collect()
        })
    };
    let cached = bits(model.predict_batch_mut(points));
    let cached_again = bits(model.predict_batch_mut(points));
    let batch = bits(model.predict_batch(points));
    let single = bits(points.iter().map(|p| model.predict(p)).collect());
    [cached, cached_again, batch, single]
}

fn tree_kind() -> impl Strategy<Value = SurrogateKind> {
    prop::sample::select(vec![
        SurrogateKind::Rf,
        SurrogateKind::Et,
        SurrogateKind::Gbrt,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tree ensembles' batch cache never changes a bit: after any
    /// sequence of fits, warm and fallback updates and candidate-set
    /// changes, `predict_batch_mut` ≡ `predict_batch` ≡ per-point
    /// `predict`, errors included.
    #[test]
    fn cached_batch_predictions_match_uncached_ones(
        kind in tree_kind(),
        ops in prop::collection::vec(0u8..10, 4..14),
        data_seed in 0u64..1_000_000,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const DIM: usize = 3;
        let mut rng = StdRng::seed_from_u64(data_seed);
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..DIM).map(|_| rng.gen_range(0..5) as f64 / 4.0).collect())
            .collect();
        let mut y: Vec<f64> = rows
            .iter()
            .map(|r| r[0] * 3.0 - r[1] + 0.1 * rng.gen_range(-1.0..1.0))
            .collect();
        let all: Vec<Vec<f64>> = (0..30)
            .map(|_| (0..DIM).map(|_| rng.gen_range(-2..11) as f64 / 8.0).collect())
            .collect();
        let mut candidates = all.clone();
        let mut model = kind.build(data_seed);
        let m = model.as_mut();

        // Before any fit: an empty batch is fine, anything else is not.
        for points in [Vec::new(), candidates.clone()] {
            let [a, b, c, d] = three_ways(m, &points);
            prop_assert_eq!(&a, &c, "{kind} before fit");
            prop_assert_eq!(&b, &c, "{kind} before fit");
            prop_assert_eq!(&c, &d, "{kind} before fit");
        }

        let mut n = 3;
        m.fit(&rows[..n], &y[..n]).unwrap();
        for (step, &op) in ops.iter().enumerate() {
            let step_seed = data_seed + step as u64;
            let mut points = candidates.clone();
            match op {
                0 => m.fit(&rows[..n], &y[..n]).unwrap(),
                // Append one row: the warm path, or the cadence's refit.
                1 | 2 if n < rows.len() => {
                    n += 1;
                    m.fit_update(&rows[..n], &y[..n], step_seed).unwrap();
                }
                // Same rows, new targets: a same-size fallback.
                3 => {
                    y[n - 1] += 0.75;
                    m.fit_update(&rows[..n], &y[..n], step_seed).unwrap();
                }
                // One row appended to an edited prefix: a fallback.
                4 if n < rows.len() => {
                    y[0] -= 0.5;
                    n += 1;
                    m.fit_update(&rows[..n], &y[..n], step_seed).unwrap();
                }
                // The candidate set shrinks (as §5.1 slicing does), then
                // regrows.
                5 => {
                    let keep = 1 + step % 3;
                    candidates = all.iter().step_by(keep + 1).cloned().collect();
                    points = candidates.clone();
                }
                6 => {
                    candidates = all.clone();
                    points = candidates.clone();
                }
                // Same size, different order.
                9 => {
                    candidates.rotate_left(1);
                    points = candidates.clone();
                }
                7 => points.clear(),
                // A wrong-dimension point somewhere in the batch.
                8 => {
                    let at = step % points.len();
                    points.insert(at, vec![0.5; DIM + 1]);
                }
                _ => {}
            }
            let [a, b, c, d] = three_ways(m, &points);
            prop_assert_eq!(&a, &c, "{kind} op {op} at step {step}");
            prop_assert_eq!(&b, &c, "{kind} op {op} at step {step}");
            prop_assert_eq!(&c, &d, "{kind} op {op} at step {step}");
            prop_assert_eq!(op == 8, c.is_err(), "{kind} op {op} at step {step}");
        }
    }
}
