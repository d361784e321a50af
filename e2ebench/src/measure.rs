//! Measurement plumbing shared by every workload: the metric catalogue,
//! order statistics, output checks, the benchmark's own span tracer, the
//! attribution table, and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("tune_ms_p50", "ms"),
    ("tune_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("cost_per_1k_usd", "usd"),
    ("slo_violation_pct", "%"),
    ("regret_pct", "%"),
    ("goodput_pct", "%"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`). A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("flate.inflate_mb_per_s", "MB/s"),
    ("stream.scan_ns_per_event", "ns/event"),
    ("stream.drain_ns_per_event", "ns/event"),
    ("stream.parse_merge_ns_per_event", "ns/event"),
    ("fleet.engine_ns_per_event", "ns/event"),
    ("fleet.peak_inflight", "count"),
    ("fleet.inflight_p99", "count"),
    ("market.ns_per_event", "ns/event"),
    ("market.admission_ns_p50", "ns"),
    ("market.admission_ns_p99", "ns"),
    ("market.spot_admitted", "count"),
    ("market.policy_rejected", "count"),
    ("market.capacity_missed", "count"),
    ("market.admit_ratio", "ratio"),
    ("market.migrated", "count"),
    ("market.drained", "count"),
    ("market.demoted", "count"),
    ("controller.ticks", "count"),
    ("controller.replans", "count"),
    ("controller.us_per_tick", "us"),
    ("retry.ns_per_event", "ns/event"),
    ("retry.transient_faults", "count"),
    ("retry.retried", "count"),
    ("retry.hedge_wins", "count"),
    ("retry.dead_lettered", "count"),
    ("retry.success_ratio", "ratio"),
    ("snapshot.count", "count"),
    ("snapshot.bytes_first", "B"),
    ("snapshot.bytes_last", "B"),
    ("snapshot.encode_s", "s"),
    ("snapshot.ns_per_event", "ns/event"),
    ("faas.evaluate_us_per_trial", "us"),
    ("faas.trials", "count"),
    ("faas.failed_trials", "count"),
    ("optimizer.step_us", "us"),
    ("optimizer.sliced_away", "count"),
    ("surrogates.gp_ms_per_run", "ms"),
    ("surrogates.rf_ms_per_run", "ms"),
    ("surrogates.et_ms_per_run", "ms"),
    ("surrogates.gbrt_ms_per_run", "ms"),
    ("surrogates.fit_us_per_step", "us"),
    ("surrogates.predict_us_per_step", "us"),
    ("telemetry.overhead_ratio", "ratio"),
    ("attribution.residual_pct", "%"),
];

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linearly interpolated `q`-quantile of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `n` samples and their deciles, for the run log.
pub fn deciles(values: &[f64]) -> String {
    let d: Vec<String> = (1..10)
        .map(|i| format!("{:.2}", quantile(values, i as f64 / 10.0)))
        .collect();
    format!("n {} deciles [{}]", values.len(), d.join(", "))
}

/// What [`calibration_s`] typically takes on the machine the bounds were
/// set on (a 2-core shared VM, Xeon at 2.0 GHz). Every end-to-end timing
/// is scaled to this speed, so it reads like a wall time there.
pub const CALIBRATION_NOMINAL_S: f64 = 0.0012;

/// Runs the calibration kernel once to warm caches and the allocator after
/// whatever ran before, then once more timed; returns the timed run's wall
/// seconds.
///
/// A fixed piece of work owned by the benchmark, independent of the code
/// under test: squared-exponential kernel matrices over small random
/// point sets, their Cholesky factorizations, and sorts — the operations
/// the surrogates spend their time in. On a shared machine the same work
/// runs up to 2× slower for minutes at a time; measured between passes,
/// this kernel slows down with the workloads (correlation 0.96 over a
/// minute of `autotune` passes), so dividing by it removes most of that
/// drift.
pub fn calibration_s() -> f64 {
    std::hint::black_box(calibration_kernel());
    let t0 = Instant::now();
    std::hint::black_box(calibration_kernel());
    t0.elapsed().as_secs_f64()
}

fn calibration_kernel() -> f64 {
    const N: usize = 24;
    let mut x = 0x1234_5678_u64;
    let mut acc = 0.0f64;
    for _ in 0..60 {
        let mut pts: Vec<Vec<f64>> = (0..N)
            .map(|_| {
                (0..6)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x % 1000) as f64 / 1000.0
                    })
                    .collect()
            })
            .collect();
        let mut k = vec![vec![0.0f64; N]; N];
        for a in 0..N {
            for b in 0..N {
                let d: f64 = pts[a]
                    .iter()
                    .zip(&pts[b])
                    .map(|(u, v)| (u - v) * (u - v))
                    .sum();
                k[a][b] = (-d).exp() + if a == b { 1e-3 } else { 0.0 };
            }
        }
        for j in 0..N {
            for i in 0..j {
                let s: f64 = (0..i).map(|m| k[j][m] * k[i][m]).sum();
                k[j][i] = (k[j][i] - s) / k[i][i];
            }
            let s: f64 = (0..j).map(|m| k[j][m] * k[j][m]).sum();
            k[j][j] = (k[j][j] - s).max(1e-12).sqrt();
        }
        acc += k[N - 1][N - 1];
        pts.sort_by(|a, b| a[0].total_cmp(&b[0]));
        let mut v: Vec<f64> = pts.iter().flatten().copied().collect();
        v.sort_by(f64::total_cmp);
        acc += v[v.len() / 2];
    }
    acc
}

/// Scale factor from wall time to nominal-speed time, given calibration
/// samples taken around a piece of work.
pub fn speed_factor(calibration: &[f64]) -> f64 {
    CALIBRATION_NOMINAL_S / median(calibration)
}

/// The process's peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// splitmix64 finalizer: derives independent sub-seeds from the workload
/// seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over `bytes`: the digest two commits compare simulated output
/// with.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Output checks: every failed check is kept and printed, and any
/// failure makes the run incorrect.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records `what` as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    /// Whether every check so far passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One workload run's outcome: the final JSON line's fields.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub checks: Checks,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            checks: Checks::default(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Prints the metric table and returns the final JSON line. `traced`
    /// selects the per-layer catalogue; a missing end-to-end metric is a
    /// failed check, a missing per-layer metric a layer the workload does
    /// not exercise (0).
    pub fn finish(&mut self, traced: bool) -> String {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut json = String::new();
        println!("\n{:<34} {:>18}  unit", "metric", "value");
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self.metrics.get(name).copied();
            if !traced {
                let ok = value.is_some_and(|v| v.is_finite() && v > 0.0);
                self.checks
                    .check(ok, || format!("end-to-end metric {name} is {value:?}"));
            }
            let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
            println!("{name:<34} {value:>18.6}  {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.checks.passed(),
            self.attempted.max(1),
            self.failed,
        )
    }
}

/// One timed call of the traced run.
struct SpanRec {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: u64,
}

/// The benchmark's own tracer: one span per timed call into a layer,
/// parented to the workload-run span, kept in memory and written out as
/// Chrome trace-event JSON when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    /// Opens the root span covering the whole workload run.
    pub fn new(root: &str) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: vec![SpanRec {
                name: root.to_string(),
                parent: None,
                start_ns: 0,
                dur_ns: 0,
            }],
        }
    }

    /// Runs `f` inside a span named `name` and returns its result and
    /// wall seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.spans.push(SpanRec {
            name: name.to_string(),
            parent: Some(0),
            start_ns: (start - self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
        (out, dur.as_secs_f64())
    }

    /// Closes the root span and writes every span to `path`.
    pub fn finish(mut self, path: &Path) -> std::io::Result<()> {
        self.spans[0].dur_ns = self.origin.elapsed().as_nanos() as u64;
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                if s.parent.is_some() { 2 } else { 1 },
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
            );
        }
        out.push_str("\n]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Prints the attribution table: per-layer self time per unit of work,
/// their sum, the untraced cost of the same unit, and the residual
/// between the two as a percentage of the untraced cost (returned).
pub fn print_attribution(
    title: &str,
    rows: &[(&str, f64)],
    untraced_ms: f64,
    overhead_ratio: f64,
) -> f64 {
    let sum: f64 = rows.iter().map(|(_, ms)| ms).sum();
    println!("\nattribution ({title}): self time per unit, medians over rounds");
    println!("{:<28} {:>12} {:>8}", "layer", "ms", "share");
    for (name, ms) in rows {
        println!(
            "{name:<28} {ms:>12.3} {:>7.1}%",
            100.0 * ms / untraced_ms.max(f64::MIN_POSITIVE)
        );
    }
    let residual_pct = 100.0 * (untraced_ms - sum) / untraced_ms.max(f64::MIN_POSITIVE);
    println!("{:<28} {sum:>12.3}", "sum of rows");
    println!("{:<28} {untraced_ms:>12.3}", "untraced run");
    println!("{:<28} {residual_pct:>11.2}%", "residual");
    println!("{:<28} {overhead_ratio:>12.4}", "telemetry.overhead_ratio");
    residual_pct
}
