//! The two fleet-replay workloads.
//!
//! - `week_gz`: the week replay of `fleet_week_replay`, in memory. One
//!   fixed-Huffman gz part per day, scanned by `StreamTrace::from_csv_parts`
//!   and replayed crash-resumably on the tight market with IdleAware
//!   placement, the PID controller and 6 h epochs; every snapshot is
//!   encoded and dropped. Ingest, snapshot encoding and the market's
//!   reject path carry the cost.
//! - `storm`: generated heavy-tail traces replayed on the loose 3-zone
//!   market under zone outages and shock bursts, flaky transients, the
//!   hedging retry policy and the surrogate right-sizer. The market's
//!   admit/place/migrate path, the completion wheel, retries and online
//!   surrogate refits carry the cost.
//!
//! A pass replays every trace of the workload once, from trace bytes to
//! the final report. The traced run times a chain of replays, each adding
//! one layer to the previous one, so differences give each layer's self
//! time (including its knock-on effect on the layers it feeds).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use freedom::fleet::{
    AdmissionPolicy, ControlConfig, ControllerConfig, FaultPlan, FleetConfig, FleetReport,
    FleetSimulator, PidConfig, PlacementStrategy, RightSizerConfig, StreamTrace, Telemetry,
    TraceSource,
};
use freedom::market::MarketConfig;
use freedom::provider::IdleCapacityPlanner;
use freedom::snapshot::ReplaySnapshot;
use freedom::telemetry::{Counter, Hist};
use freedom_experiments::context::par_run;
use freedom_experiments::week_trace::WeekTraceSpec;
use freedom_experiments::{fleet_retry_storm, fleet_simulation, fleet_zone_outage};

use crate::measure::{self, fnv64, median, mix, quantile, Checks, Outcome, Tracer};
use crate::Args;

/// `week_gz` trace shape: days × functions, one row per function every
/// `WEEK_ROW_EVERY` minutes.
const WEEK_DAYS: u32 = 7;
const WEEK_FUNCTIONS: u32 = 2_000;
const WEEK_ROW_EVERY: u32 = 20;
/// Snapshot epoch of the week replay.
const EPOCH_SECS: f64 = 21_600.0;

/// `storm` traces per pass, each `STORM_FUNCTIONS` functions over
/// `STORM_SECS`. Independent traces average out which functions the
/// heavy tail makes hot, so a pass's outcome barely depends on the seed.
const STORM_TRACES: u64 = 8;
const STORM_FUNCTIONS: usize = 2_000;
const STORM_SECS: f64 = 2_700.0;
const STORM_SOURCE: TraceSource = TraceSource::HeavyTail {
    mean_rps: 0.05,
    alpha: 1.5,
};

/// Ground-truth seed of the synthetic plans: fixed, so the seed argument
/// varies only the traces.
const PLAN_SEED: u64 = 4;
/// After every pass, set-up is repeated for at least this long (and at
/// least once); the slot's mean is one sample, so samples spread over the
/// run and each averages out the machine's millisecond-scale stalls.
/// `setup_s` is the median of the samples.
const SETUP_SLOT_S: f64 = 0.1;
/// Fewest passes an untraced run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Fewest rounds a traced run makes; it starts another only when that
/// round is expected to end within `--seconds`.
const MIN_ROUNDS: usize = 2;
/// Worker threads of the set-up (the benchmark's process stays at ≤ 2).
const THREADS: usize = 2;

/// Which replay workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WeekGz,
    Storm,
}

enum Input {
    /// Fixed-Huffman gz day parts.
    Gz(Vec<Vec<u8>>),
    /// Seed of one generated heavy-tail trace.
    Generated(u64),
}

/// Everything set-up builds: the fleet, the trace inputs, and the replay
/// configurations of the layer chain.
struct Scenario {
    kind: Kind,
    sim: FleetSimulator,
    inputs: Vec<Input>,
    /// Market, supply faults and a static controller; no transients.
    base: FleetConfig,
    /// `base` plus the workload's controller.
    controlled: FleetConfig,
    /// `controlled` plus transients and the retry policy: what the
    /// untraced run replays.
    full: FleetConfig,
}

/// Snapshot work of one resumable replay.
#[derive(Default)]
struct SnapStats {
    count: usize,
    bytes_first: usize,
    bytes_last: usize,
    encode_s: f64,
    /// When each snapshot was done: epoch boundaries in wall time.
    marks: Vec<Instant>,
    /// Epoch whose encoded bytes to keep (0 = none).
    keep_epoch: u64,
    kept: Option<Vec<u8>>,
}

impl SnapStats {
    fn encode(&mut self, snap: &ReplaySnapshot) {
        let t0 = Instant::now();
        let bytes = snap.to_bytes();
        self.encode_s += t0.elapsed().as_secs_f64();
        if self.count == 0 {
            self.bytes_first = bytes.len();
        }
        self.bytes_last = bytes.len();
        self.count += 1;
        if snap.epoch() == self.keep_epoch {
            self.kept = Some(bytes);
        } else {
            black_box(bytes);
        }
        self.marks.push(Instant::now());
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn week_spec(seed: u64) -> WeekTraceSpec {
    WeekTraceSpec {
        days: WEEK_DAYS,
        functions: WEEK_FUNCTIONS,
        row_every: WEEK_ROW_EVERY,
        seed,
    }
}

impl Scenario {
    fn new(kind: Kind, seed: u64) -> Result<Scenario, String> {
        match kind {
            Kind::WeekGz => {
                let spec = week_spec(seed);
                let parts = par_run(spec.days as usize, THREADS, |d| {
                    flate::gzip_compress(
                        spec.day_csv(d as u32).as_bytes(),
                        flate::CompressMode::FixedHuffman,
                    )
                });
                let plans = fleet_simulation::synthetic_plans(WEEK_FUNCTIONS as usize, PLAN_SEED)
                    .map_err(err)?;
                let tight = fleet_simulation::market_tightness()[2];
                let base = FleetConfig {
                    market: fleet_simulation::market_config(&tight, AdmissionPolicy::Greedy),
                    control: ControlConfig {
                        cadence_secs: 30.0,
                        controller: ControllerConfig::Static,
                    },
                    ..FleetConfig::default()
                };
                let controlled = FleetConfig {
                    control: ControlConfig {
                        cadence_secs: 30.0,
                        controller: ControllerConfig::HeadroomPid(PidConfig::default()),
                    },
                    ..base
                };
                Ok(Scenario {
                    kind,
                    sim: FleetSimulator::new(plans).map_err(err)?,
                    inputs: vec![Input::Gz(parts)],
                    base,
                    controlled,
                    full: controlled,
                })
            }
            Kind::Storm => {
                let plans =
                    fleet_simulation::synthetic_plans(STORM_FUNCTIONS, PLAN_SEED).map_err(err)?;
                let loose = fleet_simulation::market_tightness()[0];
                let headroom = IdleCapacityPlanner::default().admission_policy();
                let stormy = fleet_zone_outage::fault_presets()[2].plan;
                let flaky = fleet_retry_storm::transient_presets()[1].plan;
                let base = FleetConfig {
                    market: MarketConfig {
                        zones: fleet_zone_outage::zone_layout(),
                        ..fleet_simulation::market_config(&loose, headroom)
                    },
                    control: ControlConfig {
                        cadence_secs: 20.0,
                        controller: ControllerConfig::Static,
                    },
                    faults: stormy,
                    ..FleetConfig::default()
                };
                let controlled = FleetConfig {
                    control: ControlConfig {
                        cadence_secs: 20.0,
                        controller: ControllerConfig::SurrogateRightSizer(
                            RightSizerConfig::default(),
                        ),
                    },
                    ..base
                };
                let full = FleetConfig {
                    faults: FaultPlan {
                        crash_prob: flaky.crash_prob,
                        abort_prob: flaky.abort_prob,
                        straggler_prob: flaky.straggler_prob,
                        straggler_factor: flaky.straggler_factor,
                        ..stormy
                    },
                    retry: fleet_retry_storm::policy_presets()[2].policy,
                    ..controlled
                };
                Ok(Scenario {
                    kind,
                    sim: FleetSimulator::new(plans).map_err(err)?,
                    inputs: (0..STORM_TRACES)
                        .map(|i| Input::Generated(mix(seed ^ mix(i))))
                        .collect(),
                    base,
                    controlled,
                    full,
                })
            }
        }
    }

    /// Builds one trace from its bytes (week_gz: inflate + scan of every
    /// part; storm: the generator's counting pass).
    fn scan(&self, input: &Input) -> Result<StreamTrace, String> {
        match input {
            Input::Gz(parts) => {
                let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
                StreamTrace::from_csv_parts(&refs)
            }
            Input::Generated(seed) => {
                StreamTrace::generate(STORM_SOURCE, STORM_FUNCTIONS, STORM_SECS, *seed)
            }
        }
        .map_err(err)
    }

    /// The workload's replay with the full configuration: resumable with
    /// every snapshot encoded (week_gz), or plain streaming (storm).
    fn replay_full(
        &self,
        trace: &StreamTrace,
        keep_epoch: u64,
    ) -> Result<(FleetReport, SnapStats), String> {
        let mut snaps = SnapStats {
            keep_epoch,
            ..SnapStats::default()
        };
        let report = match self.kind {
            Kind::WeekGz => self
                .sim
                .run_stream_resumable(
                    trace,
                    PlacementStrategy::IdleAware,
                    &self.full,
                    EPOCH_SECS,
                    None,
                    |snap| {
                        snaps.encode(snap);
                        Ok(true)
                    },
                )
                .map_err(err)?
                .ok_or("resumable replay stopped early")?,
            Kind::Storm => self
                .sim
                .run_stream(trace, PlacementStrategy::IdleAware, &self.full)
                .map_err(err)?,
        };
        Ok((report, snaps))
    }

    /// [`Scenario::replay_full`] with a live `Telemetry` recorder.
    fn replay_full_recorded(
        &self,
        trace: &StreamTrace,
        tel: &mut Telemetry,
    ) -> Result<FleetReport, String> {
        match self.kind {
            Kind::WeekGz => {
                let mut snaps = SnapStats::default();
                self.sim
                    .run_stream_resumable_traced(
                        trace,
                        PlacementStrategy::IdleAware,
                        &self.full,
                        EPOCH_SECS,
                        None,
                        tel,
                        |snap, _| {
                            snaps.encode(snap);
                            Ok(true)
                        },
                    )
                    .map_err(err)?
                    .ok_or_else(|| "recorded replay stopped early".to_string())
            }
            Kind::Storm => Ok(self
                .sim
                .run_stream_traced(trace, PlacementStrategy::IdleAware, &self.full, tel)
                .map_err(err)?
                .0),
        }
    }
}

fn digest(report: &FleetReport) -> u64 {
    fnv64(format!("{report:?}").as_bytes())
}

/// The exact accounting partition plus `invocations == trace.len()`.
fn check_report(checks: &mut Checks, r: &FleetReport, events: usize, label: &str) {
    checks.check(r.invocations == events, || {
        format!(
            "{label}: invocations {} != trace events {events}",
            r.invocations
        )
    });
    let classes =
        r.spot_admitted + r.drained + r.migrated + r.spot_demoted + r.rejected + r.dead_lettered;
    checks.check(classes == r.invocations + r.retried, || {
        format!(
            "{label}: outcome classes {classes} != invocations {} + retried {}",
            r.invocations, r.retried
        )
    });
    checks.check(
        r.policy_rejections + r.capacity_misses <= r.rejected,
        || format!("{label}: rejection causes exceed rejections"),
    );
    checks.check(r.shed_retries <= r.dead_lettered, || {
        format!("{label}: shed retries exceed dead letters")
    });
}

/// A pass's reports folded together.
#[derive(Default, Clone)]
struct Totals {
    events: usize,
    invocations: usize,
    cost_usd: f64,
    /// Σ mean latency inflation × invocations.
    inflation: f64,
    slo_violations: usize,
    spot_admitted: usize,
    drained: usize,
    migrated: usize,
    demoted: usize,
    rejected: usize,
    policy_rejections: usize,
    capacity_misses: usize,
    retried: usize,
    hedge_wins: usize,
    dead_lettered: usize,
    digest: u64,
}

impl Totals {
    fn add(&mut self, r: &FleetReport, events: usize) {
        self.events += events;
        self.invocations += r.invocations;
        self.cost_usd += r.total_cost_usd;
        self.inflation += r.mean_latency_inflation * r.invocations as f64;
        self.slo_violations += r.slo_violations;
        self.spot_admitted += r.spot_admitted;
        self.drained += r.drained;
        self.migrated += r.migrated;
        self.demoted += r.spot_demoted;
        self.rejected += r.rejected;
        self.policy_rejections += r.policy_rejections;
        self.capacity_misses += r.capacity_misses;
        self.retried += r.retried;
        self.hedge_wins += r.hedge_wins;
        self.dead_lettered += r.dead_lettered;
        self.digest = mix(self.digest ^ digest(r));
    }
}

/// Runs one replay workload, untraced or traced.
pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let t0 = Instant::now();
    let sc = Scenario::new(kind, args.seed)?;
    let first_setup = t0.elapsed().as_secs_f64();
    if let [Input::Gz(parts)] = sc.inputs.as_slice() {
        let spec = week_spec(args.seed);
        for (d, part) in parts.iter().enumerate() {
            let ok = flate::gunzip(part).is_ok_and(|csv| csv == spec.day_csv(d as u32).as_bytes());
            out.checks.check(ok, || {
                format!("day part {d} does not gunzip to day_csv({d})")
            });
        }
        let gz: usize = parts.iter().map(Vec::len).sum();
        println!("trace: {} fixed-Huffman gz parts, {gz} bytes", parts.len());
    }
    if args.trace {
        traced(&sc, args, &mut out)?;
    } else {
        untraced(&sc, args, first_setup, &mut out)?;
    }
    Ok(out)
}

/// Sets the scenario up again, timed, and checks that the same seed gave
/// the same inputs.
fn set_up_again(sc: &Scenario, seed: u64, checks: &mut Checks) -> Result<f64, String> {
    let t0 = Instant::now();
    let again = Scenario::new(sc.kind, seed)?;
    let secs = t0.elapsed().as_secs_f64();
    let same = sc.inputs.iter().zip(&again.inputs).all(|pair| match pair {
        (Input::Gz(a), Input::Gz(b)) => a == b,
        (Input::Generated(a), Input::Generated(b)) => a == b,
        _ => false,
    });
    checks.check(same, || "set-up is not a pure function of the seed".into());
    Ok(secs)
}

/// End-to-end: passes from trace bytes to the final reports until the
/// time is up, every pass checked against the first. Timings cover every
/// pass, each scaled to nominal machine speed by calibration samples
/// taken between its traces.
fn untraced(sc: &Scenario, args: &Args, first_setup: f64, out: &mut Outcome) -> Result<(), String> {
    let mut setups = vec![first_setup * measure::speed_factor(&[measure::calibration_s()])];
    let start = Instant::now();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut raw_s = 0.0;
    let mut first: Option<Totals> = None;
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let mut segments = Vec::new();
        let mut calibration = Vec::new();
        let mut totals = Totals::default();
        for input in &sc.inputs {
            calibration.push(measure::calibration_s());
            let t0 = Instant::now();
            let trace = sc.scan(input)?;
            let (report, snaps) = sc.replay_full(&trace, 0)?;
            let end = Instant::now();
            // A week replay's segments are its epochs; a storm trace's
            // segment is its whole replay.
            let mut from = t0;
            for mark in snaps.marks.iter().chain([&end]) {
                segments.push((*mark - from).as_secs_f64());
                from = *mark;
            }
            if first.is_none() {
                check_report(&mut out.checks, &report, trace.len(), "replay");
            }
            totals.add(&report, trace.len());
        }
        // A trace replay is the benchmark's operation; dead-lettered
        // invocations are a simulated outcome (`goodput_pct`), and a
        // replay that errors ends the run.
        out.attempted += sc.inputs.len() as u64;
        match &first {
            None => first = Some(totals),
            Some(f) => out.checks.check(totals.digest == f.digest, || {
                "a repeated pass diverged from the first".into()
            }),
        }
        calibration.push(measure::calibration_s());
        raw_s += segments.iter().sum::<f64>();
        let speed = measure::speed_factor(&calibration);
        passes.push(segments.iter().map(|s| s * speed).collect());
        let slot = Instant::now();
        let (mut secs, mut n) = (0.0, 0);
        while n == 0 || slot.elapsed().as_secs_f64() < SETUP_SLOT_S {
            secs += set_up_again(sc, args.seed, &mut out.checks)?;
            n += 1;
        }
        let speed = measure::speed_factor(&[measure::calibration_s()]);
        setups.push(secs / n as f64 * speed);
    }
    let t = first.expect("at least one pass");
    let pass_s: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
    let segments: Vec<f64> = passes.concat();
    let segments_ms: Vec<f64> = segments.iter().map(|s| 1e3 * s).collect();
    println!("segment ms: {}", measure::deciles(&segments_ms));
    let setups_ms: Vec<f64> = setups.iter().map(|s| 1e3 * s).collect();
    println!("set-up ms: {}", measure::deciles(&setups_ms));
    println!(
        "passes: {} of {} events, {} segments each; pass seconds at nominal speed \
         {pass_s:.3?}; report digest {:016x}",
        passes.len(),
        t.events,
        passes[0].len(),
        t.digest,
    );
    println!(
        "wall clock: {:.0} events/s, machine at {:.2}× nominal speed",
        (t.events * passes.len()) as f64 / raw_s,
        pass_s.iter().sum::<f64>() / raw_s,
    );
    println!(
        "report: cost ${:.4}  spot share {:.1}%  rejected {} (policy {})  retried {}  \
         dead-lettered {}  slo violations {}",
        t.cost_usd,
        100.0 * (t.spot_admitted + t.drained + t.migrated + t.demoted) as f64
            / t.invocations.max(1) as f64,
        t.rejected,
        t.policy_rejections,
        t.retried,
        t.dead_lettered,
        t.slo_violations,
    );
    let n = t.invocations.max(1) as f64;
    out.set("setup_s", median(&setups));
    out.set(
        "events_per_s",
        (t.events * passes.len()) as f64 / pass_s.iter().sum::<f64>(),
    );
    out.set("tune_ms_p50", 1e3 * median(&segments));
    out.set("tune_ms_p90", 1e3 * quantile(&segments, 0.9));
    out.set("peak_rss_mb", measure::peak_rss_mb());
    out.set("cost_per_1k_usd", 1e3 * t.cost_usd / n);
    out.set("slo_violation_pct", 100.0 * t.slo_violations as f64 / n);
    out.set("regret_pct", 100.0 * (t.inflation / n - 1.0));
    out.set("goodput_pct", 100.0 * (1.0 - t.dead_lettered as f64 / n));
    Ok(())
}

/// Drains every event of a fresh stream; returns the count.
fn drain(trace: &StreamTrace) -> Result<usize, String> {
    let mut stream = trace.open().map_err(err)?;
    let mut n = 0usize;
    let mut acc = 0u64;
    while let Some(e) = stream.next() {
        n += 1;
        acc = acc.wrapping_add(e.at_secs.to_bits() ^ e.function as u64);
    }
    black_box(acc);
    Ok(n)
}

/// What the last traced round leaves for the per-layer metrics.
struct Last {
    totals: Totals,
    tel: Telemetry,
    snaps: SnapStats,
    /// Decompressed bytes of all gz parts (0 without gz input).
    inflated: usize,
    peak_inflight: usize,
}

/// Per-layer: rounds of the layer chain until the time is up (at least
/// `MIN_ROUNDS`), the median round's time per step, and the attribution
/// table.
fn traced(sc: &Scenario, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut tr = Tracer::new(&format!("{} seed {}", args.workload, args.seed));
    let mut t: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut last: Option<Last> = None;
    let start = Instant::now();
    let mut rounds = 0;
    let mut round_s = 0.0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() + round_s <= args.seconds {
        let round_start = Instant::now();
        rounds += 1;
        let mut round: BTreeMap<&str, f64> = BTreeMap::new();
        let mut inflated = 0usize;
        for input in &sc.inputs {
            if let Input::Gz(parts) = input {
                let (bytes, s) = tr.time("flate.gunzip", || {
                    parts
                        .iter()
                        .map(|p| flate::gunzip(p).map(|csv| csv.len()))
                        .sum::<Result<usize, _>>()
                });
                inflated += bytes.map_err(err)?;
                *round.entry("inflate").or_default() += s;
                // The scan inflates its parts on up to THREADS workers, so
                // its inflate share is timed the same way.
                let (r, s) = tr.time("flate.gunzip_parallel", || {
                    par_run(parts.len(), THREADS, |i| {
                        flate::gunzip(&parts[i]).map(|csv| csv.len())
                    })
                });
                r.into_iter().collect::<Result<Vec<_>, _>>().map_err(err)?;
                *round.entry("inflate_par").or_default() += s;
            }
        }
        let mut traces = Vec::with_capacity(sc.inputs.len());
        for input in &sc.inputs {
            let (trace, s) = tr.time("stream.scan", || sc.scan(input));
            traces.push(trace?);
            *round.entry("scan").or_default() += s;
        }
        let mut totals = Totals::default();
        let mut snaps = SnapStats::default();
        let mut tel = Telemetry::new();
        let mut peak_inflight = 0;
        for trace in &traces {
            let events = trace.len();
            let (drained, s) = tr.time("stream.drain", || drain(trace));
            *round.entry("drain").or_default() += s;
            out.checks
                .check(drained? == events, || "drain count != trace length".into());

            let replay = |strategy, config: &FleetConfig| {
                sc.sim
                    .run_stream_with_stats(trace, strategy, config)
                    .map_err(err)
            };
            let (r, s) = tr.time("fleet.best_config_only", || {
                replay(PlacementStrategy::BestConfigOnly, &sc.base)
            });
            check_report(&mut out.checks, &r?.0, events, "best-config-only");
            *round.entry("best").or_default() += s;
            let (r, s) = tr.time("market.idle_aware_static", || {
                replay(PlacementStrategy::IdleAware, &sc.base)
            });
            check_report(&mut out.checks, &r?.0, events, "idle-aware static");
            *round.entry("market").or_default() += s;
            let (r, s) = tr.time("controller.idle_aware", || {
                replay(PlacementStrategy::IdleAware, &sc.controlled)
            });
            let (controlled, mut stats) = r?;
            *round.entry("controlled").or_default() += s;

            let report = match sc.kind {
                Kind::WeekGz => {
                    // Keep a mid-run snapshot for the resume check.
                    let epochs = trace.horizon_nanos() / (EPOCH_SECS * 1e9) as u64 + 1;
                    let (r, s) = tr.time("snapshot.resumable", || {
                        sc.replay_full(trace, (epochs / 2).max(1))
                    });
                    *round.entry("last").or_default() += s;
                    let (report, trace_snaps) = r?;
                    out.checks
                        .check(digest(&report) == digest(&controlled), || {
                            "resumable replay diverged from the streaming replay".into()
                        });
                    snaps = trace_snaps;
                    report
                }
                Kind::Storm => {
                    let (r, s) = tr.time("retry.idle_aware_transients", || {
                        replay(PlacementStrategy::IdleAware, &sc.full)
                    });
                    *round.entry("last").or_default() += s;
                    let (report, full_stats) = r?;
                    stats = full_stats;
                    report
                }
            };
            check_report(&mut out.checks, &report, events, "full replay");
            peak_inflight = peak_inflight.max(stats.peak_inflight);

            let (r, s) = tr.time("telemetry.recorded_replay", || {
                sc.replay_full_recorded(trace, &mut tel)
            });
            *round.entry("tel").or_default() += s;
            out.checks.check(digest(&r?) == digest(&report), || {
                "telemetry-on report differs from telemetry-off".into()
            });

            if rounds == 1 {
                if let Some(bytes) = &snaps.kept {
                    let resumed = ReplaySnapshot::from_bytes(bytes)
                        .and_then(|snap| {
                            sc.sim.run_stream_resumable(
                                trace,
                                PlacementStrategy::IdleAware,
                                &sc.full,
                                EPOCH_SECS,
                                Some(&snap),
                                |_| Ok(true),
                            )
                        })
                        .map_err(err)?;
                    let ok = resumed.is_some_and(|r| digest(&r) == digest(&report));
                    out.checks.check(ok, || {
                        "resume from the mid-run snapshot diverged from the uninterrupted run"
                            .into()
                    });
                    println!(
                        "resume check: from epoch {} of {} snapshots",
                        snaps.keep_epoch, snaps.count
                    );
                }
            }
            totals.add(&report, events);
        }
        out.checks.check(
            tel.counter(Counter::Arrivals) == totals.invocations as u64,
            || {
                format!(
                    "telemetry arrivals {} != report invocations {}",
                    tel.counter(Counter::Arrivals),
                    totals.invocations
                )
            },
        );
        out.checks.check(
            tel.counter(Counter::PolicyRejected) == totals.policy_rejections as u64,
            || {
                format!(
                    "telemetry policy_rejected {} != report {}",
                    tel.counter(Counter::PolicyRejected),
                    totals.policy_rejections
                )
            },
        );
        drop(traces);
        for input in &sc.inputs {
            let (r, s) = tr.time("e2e.untraced_unit", || {
                let trace = sc.scan(input)?;
                sc.replay_full(&trace, 0)
            });
            r?;
            *round.entry("e2e").or_default() += s;
        }
        for (k, v) in round {
            t.entry(k).or_default().push(v);
        }
        last = Some(Last {
            totals,
            tel,
            snaps,
            inflated,
            peak_inflight,
        });
        round_s = round_start.elapsed().as_secs_f64();
    }
    let Last {
        totals: tot,
        tel,
        snaps,
        inflated,
        peak_inflight,
    } = last.expect("at least one round");
    let m = |k: &str| t.get(k).map_or(0.0, |v| median(v));
    let events = tot.events;
    let per_event = |secs: f64| 1e9 * secs / events.max(1) as f64;

    let mut rows: Vec<(&str, f64)> = Vec::new();
    if sc.kind == Kind::WeekGz {
        rows.push(("scan: inflate", m("inflate_par")));
        rows.push(("scan: parse", m("scan") - m("inflate_par")));
        rows.push(("drain: inflate", m("inflate")));
        rows.push(("drain: parse + merge", m("drain") - m("inflate")));
    } else {
        rows.push(("scan: generate", m("scan")));
        rows.push(("drain: generate + merge", m("drain")));
    }
    rows.push(("fleet engine", m("best") - m("drain")));
    rows.push(("market", m("market") - m("best")));
    rows.push(("controller", m("controlled") - m("market")));
    match sc.kind {
        Kind::WeekGz => rows.push(("snapshot", m("last") - m("controlled"))),
        Kind::Storm => rows.push(("retry", m("last") - m("controlled"))),
    }
    let rows_ms: Vec<(&str, f64)> = rows.iter().map(|&(n, s)| (n, 1e3 * s)).collect();
    let overhead = m("tel") / m("last");
    println!("rounds: {rounds}; report digest {:016x}", tot.digest);
    let residual = measure::print_attribution(
        &format!(
            "{}, ms per pass of {} trace(s), {events} events",
            args.workload,
            sc.inputs.len()
        ),
        &rows_ms,
        1e3 * m("e2e"),
        overhead,
    );

    if inflated > 0 {
        out.set(
            "flate.inflate_mb_per_s",
            inflated as f64 / 1e6 / m("inflate"),
        );
        out.set(
            "stream.parse_merge_ns_per_event",
            per_event(m("drain") - m("inflate")),
        );
    } else {
        out.set("stream.parse_merge_ns_per_event", per_event(m("drain")));
    }
    out.set("stream.scan_ns_per_event", per_event(m("scan")));
    out.set("stream.drain_ns_per_event", per_event(m("drain")));
    out.set(
        "fleet.engine_ns_per_event",
        per_event(m("best") - m("drain")),
    );
    out.set("fleet.peak_inflight", peak_inflight as f64);
    out.set(
        "fleet.inflight_p99",
        tel.hist(Hist::InflightDepth).quantile(0.99) as f64,
    );
    out.set("market.ns_per_event", per_event(m("market") - m("best")));
    let adm = tel.hist(Hist::AdmissionNanos);
    out.set("market.admission_ns_p50", adm.quantile(0.5) as f64);
    out.set("market.admission_ns_p99", adm.quantile(0.99) as f64);
    let spot = tot.spot_admitted + tot.drained + tot.migrated + tot.demoted;
    let requests = spot + tot.policy_rejections + tot.capacity_misses;
    out.set("market.spot_admitted", tot.spot_admitted as f64);
    out.set("market.policy_rejected", tot.policy_rejections as f64);
    out.set("market.capacity_missed", tot.capacity_misses as f64);
    out.set("market.admit_ratio", spot as f64 / requests.max(1) as f64);
    out.set("market.migrated", tot.migrated as f64);
    out.set("market.drained", tot.drained as f64);
    out.set("market.demoted", tot.demoted as f64);
    let ticks = tel.counter(Counter::ControllerTicks);
    out.set("controller.ticks", ticks as f64);
    out.set("controller.replans", tel.counter(Counter::Replans) as f64);
    out.set(
        "controller.us_per_tick",
        1e6 * (m("controlled") - m("market")) / ticks.max(1) as f64,
    );
    if sc.kind == Kind::Storm {
        out.set("retry.ns_per_event", per_event(m("last") - m("controlled")));
    }
    out.set(
        "retry.transient_faults",
        tel.counter(Counter::TransientFaults) as f64,
    );
    out.set("retry.retried", tot.retried as f64);
    out.set("retry.hedge_wins", tot.hedge_wins as f64);
    out.set("retry.dead_lettered", tot.dead_lettered as f64);
    if tot.retried > 0 {
        out.set(
            "retry.success_ratio",
            1.0 - tot.dead_lettered as f64 / tot.retried as f64,
        );
    }
    if sc.kind == Kind::WeekGz {
        out.set("snapshot.count", snaps.count as f64);
        out.set("snapshot.bytes_first", snaps.bytes_first as f64);
        out.set("snapshot.bytes_last", snaps.bytes_last as f64);
        out.set("snapshot.encode_s", snaps.encode_s);
        out.set(
            "snapshot.ns_per_event",
            per_event(m("last") - m("controlled")),
        );
    }
    out.set("telemetry.overhead_ratio", overhead);
    out.set("attribution.residual_pct", residual);
    out.attempted = (rounds * sc.inputs.len()) as u64;

    let path = args.spans_path();
    tr.finish(&path).map_err(err)?;
    println!("spans: {}", path.display());
    Ok(())
}
