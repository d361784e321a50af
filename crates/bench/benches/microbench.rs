//! Micro-benchmarks of the substrate operations.
//!
//! These isolate the costs that dominate the figure kernels: surrogate
//! fitting and prediction, the EI sweep over the 288-point space, the
//! ground-truth sweep, the platform fast paths (invoke, placement,
//! pricing, Pareto extraction), and the gz inflater the trace scan runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use freedom::controller::RIGHT_SIZER_MIN_SEARCH_ROWS;
use freedom_cluster::{Cluster, InstanceFamily, PlacementPolicy};
use freedom_experiments::week_trace::WeekTraceSpec;
use freedom_faas::{collect_ground_truth, FunctionSpec, Gateway, ResourceConfig};
use freedom_linalg::{cholesky, lu_solve, Matrix};
use freedom_optimizer::pareto::pareto_front;
use freedom_optimizer::{expected_improvement, LatinHypercube, Sampler, SearchSpace};
use freedom_pricing::CostModel;
use freedom_surrogates::{GaussianProcess, GpConfig, Surrogate, SurrogateKind};
use freedom_workloads::FunctionKind;

/// A 20-point training set shaped like a BO run's trials.
fn training_set() -> (Vec<Vec<f64>>, Vec<f64>) {
    let space = SearchSpace::table1();
    let x: Vec<Vec<f64>> = space
        .configs()
        .iter()
        .step_by(14)
        .take(20)
        .map(SearchSpace::encode)
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|f| 10.0 / f[0] + f[1] * 0.3 + f[2] * 2.0)
        .collect();
    (x, y)
}

fn bench_surrogates(c: &mut Criterion) {
    let (x, y) = training_set();
    let mut group = c.benchmark_group("surrogates");
    for kind in SurrogateKind::ALL {
        group.bench_function(format!("fit_{}", kind.name()), |b| {
            b.iter(|| {
                let mut model = kind.build(7);
                model.fit(black_box(&x), black_box(&y)).expect("fit");
                model
            })
        });
    }
    let mut gp = SurrogateKind::Gp.build(7);
    gp.fit(&x, &y).expect("fit");
    group.bench_function("predict_GP", |b| {
        b.iter(|| gp.predict(black_box(&x[3])).expect("predict"))
    });
    // One BO-shaped run over Table 1: the 3 bootstrap trials, then 17
    // steps that each append one trial, warm-refit and score all 288
    // candidate encodings.
    let candidates: Vec<Vec<f64>> = SearchSpace::table1()
        .configs()
        .iter()
        .map(SearchSpace::encode)
        .collect();
    for kind in [SurrogateKind::Rf, SurrogateKind::Et, SurrogateKind::Gbrt] {
        group.bench_function(format!("bo_run_{}", kind.name()), |b| {
            b.iter(|| {
                let mut model = kind.build(7);
                for step in 0..17 {
                    let n = 3 + step;
                    model
                        .fit_update(black_box(&x[..n]), black_box(&y[..n]), 7 + step as u64)
                        .expect("fit");
                    black_box(model.predict_batch_mut(&candidates).expect("predict"));
                }
                model
            })
        });
    }
    group.finish();
}

/// A 1-D training set ordered so its endpoints come first: appending any
/// later row leaves the feature normalization unchanged, which is what
/// lets the GP's append-one tier engage (exactly the BO-loop situation,
/// where the space's bounds are known from the start).
fn incremental_set(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut order = vec![0, n - 1];
    order.extend(1..n - 1);
    let x: Vec<Vec<f64>> = order
        .iter()
        .map(|&i| vec![i as f64 / (n - 1) as f64])
        .collect();
    let y: Vec<f64> = x.iter().map(|r| (4.0 * r[0]).sin() + 2.0).collect();
    (x, y)
}

/// The online right-sizer's training set for one function: the anchor
/// (its best configuration, at inflation 1.0) plus `alternates` observed
/// alternates, as 6-dim Table 1 encodings.
fn right_sizer_set(alternates: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let space = SearchSpace::table1();
    let x: Vec<Vec<f64>> = space
        .configs()
        .iter()
        .skip(40)
        .step_by(23)
        .take(alternates + 1)
        .map(SearchSpace::encode)
        .collect();
    let y = [1.0, 1.08, 1.03, 1.15, 0.98, 1.21][..=alternates].to_vec();
    (x, y)
}

/// The acceptance target of the incremental engine: at n ≥ 10 training
/// points, absorbing one more trial via the warm path must beat a
/// from-scratch candidate search + factorization.
///
/// The `fit_scratch_d6_n{2,4,6}` rows are the full search a default GP
/// runs over the right-sizer's rows: the anchor plus 1, 3 or 5
/// alternates. The right-sizer scales its features by its plan's box, so
/// an observed alternate inside the box extends the factor instead, and
/// its full fits are first fits, scheduled refits and multi-row batches.
/// `fit_right_sizer_d6_n2` is the commonest of them, the two-row first
/// fit, with the GP the right-sizer builds: the plan's box and
/// `RIGHT_SIZER_MIN_SEARCH_ROWS`, below which it scores only the fixed
/// candidates.
fn bench_gp_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("gp_refit");
    for n in [2usize, 4, 6] {
        let (x, y) = right_sizer_set(n - 1);
        group.bench_function(format!("fit_scratch_d6_n{n}"), |b| {
            b.iter(|| {
                let mut gp = GaussianProcess::new(GpConfig::default(), 7);
                gp.fit(black_box(&x), black_box(&y)).expect("fit");
                gp
            })
        });
    }
    // The plan's box spans the anchor and all 5 alternates.
    let (plan, _) = right_sizer_set(5);
    let (mut lo, mut hi) = (plan[0].clone(), plan[0].clone());
    for row in &plan {
        for (d, &v) in row.iter().enumerate() {
            lo[d] = lo[d].min(v);
            hi[d] = hi[d].max(v);
        }
    }
    let (x, y) = right_sizer_set(1);
    group.bench_function("fit_right_sizer_d6_n2", |b| {
        b.iter(|| {
            let mut gp = GaussianProcess::new(
                GpConfig {
                    min_search_rows: RIGHT_SIZER_MIN_SEARCH_ROWS,
                    ..GpConfig::default()
                },
                7,
            );
            gp.set_feature_box(&lo, &hi);
            gp.fit(black_box(&x), black_box(&y)).expect("fit");
            gp
        })
    });
    for n in [10usize, 20, 40] {
        let (x, y) = incremental_set(n);
        group.bench_function(format!("fit_scratch_n{n}"), |b| {
            b.iter(|| {
                let mut gp = GaussianProcess::new(GpConfig::default(), 7);
                gp.fit(black_box(&x), black_box(&y)).expect("fit");
                gp
            })
        });
        // Warm state fitted on the first n-1 rows; each sample replays the
        // append of row n through the incremental tier.
        let mut warm = GaussianProcess::new(
            GpConfig {
                refit_every: usize::MAX,
                ..GpConfig::default()
            },
            7,
        );
        warm.fit(&x[..n - 1], &y[..n - 1]).expect("warm fit");
        group.bench_function(format!("fit_incremental_n{n}"), |b| {
            b.iter(|| {
                let mut gp = warm.clone();
                gp.fit_update(black_box(&x), black_box(&y), 99)
                    .expect("update");
                assert_eq!(gp.fits_since_full(), 1, "append tier not taken");
                gp
            })
        });
    }
    group.finish();
}

fn bench_optimizer_primitives(c: &mut Criterion) {
    let (x, y) = training_set();
    let mut gp = SurrogateKind::Gp.build(7);
    gp.fit(&x, &y).expect("fit");
    let space = SearchSpace::table1();
    let mut group = c.benchmark_group("optimizer");
    group.bench_function("ei_sweep_288", |b| {
        b.iter(|| {
            let mut best = f64::NEG_INFINITY;
            for config in space.configs() {
                let p = gp.predict(&SearchSpace::encode(config)).expect("predict");
                best = best.max(expected_improvement(p.mean, p.std, 5.0, 0.05));
            }
            best
        })
    });
    group.bench_function("lhs_sample_20", |b| {
        let mut sampler = LatinHypercube::new(3);
        b.iter(|| sampler.sample(black_box(&space), 20).expect("sample"))
    });
    let cloud: Vec<(f64, f64)> = (0..288)
        .map(|i| {
            let t = 1.0 + ((i * 37) % 97) as f64;
            let c = 1.0 + ((i * 61) % 89) as f64;
            (t, c)
        })
        .collect();
    group.bench_function("pareto_front_288", |b| {
        b.iter(|| pareto_front(black_box(&cloud)))
    });
    group.finish();
}

fn bench_platform(c: &mut Criterion) {
    let mut group = c.benchmark_group("platform");
    group.bench_function("gateway_invoke", |b| {
        let mut gw = Gateway::new(1).expect("gateway");
        gw.deploy(
            FunctionSpec::new("s3", FunctionKind::S3),
            ResourceConfig::new(InstanceFamily::M5, 1.0, 256).expect("config"),
        )
        .expect("deploy");
        let input = FunctionKind::S3.default_input();
        b.iter(|| gw.invoke("s3", black_box(&input)).expect("invoke"))
    });
    group.bench_function("ground_truth_sweep_288x1", |b| {
        let space = SearchSpace::table1();
        b.iter(|| {
            collect_ground_truth(
                FunctionKind::Faceblur,
                &FunctionKind::Faceblur.default_input(),
                space.configs(),
                1,
                9,
            )
            .expect("sweep")
        })
    });
    group.bench_function("cluster_place_release", |b| {
        let mut cluster = Cluster::auto_provisioning(PlacementPolicy::BestFit);
        b.iter(|| {
            let sb = cluster.place(InstanceFamily::C6g, 1.0, 512).expect("place");
            cluster.release(sb).expect("release");
        })
    });
    let model = CostModel::aws().expect("cost model");
    group.bench_function("execution_cost", |b| {
        b.iter(|| {
            model
                .execution_cost(InstanceFamily::C5, black_box(1.25), 768, 12.5)
                .expect("cost")
        })
    });
    group.finish();
}

fn bench_linalg(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg");
    // A 20x20 SPD matrix, the size of a BO kernel matrix.
    let n = 20;
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let v = (-(((i as f64) - (j as f64)).powi(2)) / 8.0).exp();
            a.set(i, j, v);
        }
        a.set(i, i, a.get(i, i) + 0.1);
    }
    group.bench_function("cholesky_20", |b| {
        b.iter(|| cholesky(black_box(&a), 0.0).expect("spd"))
    });
    let sys = Matrix::from_rows(&[&[2.0, 0.0, 4.0], &[0.0, 2.0, 8.0], &[0.0, 2.0, 16.0]])
        .expect("matrix");
    group.bench_function("lu_solve_pricing_3x3", |b| {
        b.iter(|| lu_solve(black_box(&sys), &[0.085, 0.096, 0.126]).expect("solve"))
    });
    group.finish();
}

/// The inflater alone: `gunzip` of a `WeekTraceSpec` day CSV compressed
/// with `CompressMode::FixedHuffman` (literal-only fixed blocks, the
/// parts `week_gz` inflates, at its 2,000-function shape) and of the
/// zlib level-9 fixture in `vendor/flate/testdata` (dynamic blocks and
/// back-references, like a real Azure day file). Each reports its best
/// sample as `flate/<tag>_mb_per_s`, decompressed MB/s. The
/// `week_replay` rows cannot show an inflater change:
/// `WeekTraceSpec::day_gz` writes stored blocks, which take the bulk
/// copy path, not the Huffman decode.
fn bench_flate(c: &mut Criterion) {
    let day = WeekTraceSpec::downscaled().day_csv(0);
    let inputs = [
        (
            "week_day_fixed",
            flate::gzip_compress(day.as_bytes(), flate::CompressMode::FixedHuffman),
        ),
        (
            "zlib_level9",
            include_bytes!("../../../vendor/flate/testdata/level9.gz").to_vec(),
        ),
    ];
    let mut group = c.benchmark_group("flate");
    for (tag, gz) in &inputs {
        let mut best = f64::INFINITY;
        let mut out_len = 0;
        group.bench_function(format!("gunzip_{tag}"), |b| {
            b.iter(|| {
                let t0 = std::time::Instant::now();
                let out = flate::gunzip(black_box(gz)).expect("inflate");
                best = best.min(t0.elapsed().as_secs_f64());
                out_len = out.len();
                out
            })
        });
        let mb_per_s = out_len as f64 / 1e6 / best;
        println!("bench flate/{tag}: {mb_per_s:.1} MB/s decompressed (best sample)");
        freedom_bench::report_counter(&format!("flate/{tag}_mb_per_s"), mb_per_s, "MB/s");
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_surrogates,
    bench_gp_incremental,
    bench_optimizer_primitives,
    bench_platform,
    bench_linalg,
    bench_flate
);
criterion_main!(benches);
