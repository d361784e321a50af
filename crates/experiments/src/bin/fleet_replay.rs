//! Crash-resumable streaming fleet replay: snapshots the replay at every
//! epoch boundary, optionally "crashes" at a chosen epoch, and resumes
//! from the persisted snapshot bit-identically.
//!
//! `--source` picks the trace and its scenario:
//!
//! - `week` (the default): synthesizes one `.csv.gz` file per simulated
//!   day (14 days × 10 000 functions, or 2 × 2 000 under `--fast`) and
//!   streams the set through the fleet on the scarce, volatile market
//!   preset without materializing it. Only the scan reads the day files;
//!   replays and resumes read its row table.
//! - `generated`: a heavy-tail generated trace on the tight three-zone
//!   market under the stormy fault plan.
//!
//! Each scenario is a pure function of the flags, so a killed run and its
//! resumed continuation reproduce the uninterrupted report bit for bit:
//!
//! ```text
//! fleet_replay --fast                           # downscaled 2-day week replay
//! fleet_replay --fast --kill-epoch 2            # dies at epoch 2, leaves a snapshot
//! fleet_replay --fast --resume                  # finishes from the snapshot
//! fleet_replay --fast --verify                  # uninterrupted vs kill+resume bit-compare
//! fleet_replay --fast --source generated --verify
//! ```
//!
//! Flags on top of the shared experiment set (`--fast`, `--seed N`,
//! `--threads N`): `--source week|generated`; for `week`, `--days N` /
//! `--functions N` (trace shape) and `--out-dir PATH` (where the day
//! files are written, default `target/week_trace`); `--snapshot PATH`
//! (default `<out-dir>/week_replay.snap`, or `target/fleet_replay.snap`
//! for `generated`), `--snapshot-secs N` (epoch length, default 21600 =
//! 6 h, or 60 for `generated`), `--kill-epoch N` (abort once the
//! boundary of epoch N is reached), `--resume` (load the snapshot and
//! continue), `--verify` (kill at `--kill-epoch`, default 2, resume, and
//! exit non-zero unless the report equals the uninterrupted one),
//! `--telemetry PATH` (per-epoch JSONL metric snapshots), `--trace-json
//! PATH` (Perfetto-loadable Chrome trace of sim-time and wall-time
//! spans). Either telemetry flag also prints the terminal summary; the
//! report is bit-identical with telemetry on or off.

use std::time::Instant;

use freedom::fleet::{
    AdmissionPolicy, ControlConfig, ControllerConfig, FleetConfig, FleetReport, FleetSimulator,
    NoopRecorder, PidConfig, PlacementStrategy, Recorder, StreamTrace, Telemetry, TraceSource,
};
use freedom::market::MarketConfig;
use freedom::snapshot::ReplaySnapshot;
use freedom::Result;
use freedom_experiments as exp;
use freedom_experiments::week_trace::WeekTraceSpec;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn summarize(report: &FleetReport) {
    println!(
        "invocations {}  cost ${:.4}  spot share {:.1}%  p95 inflation {:.3}",
        report.invocations,
        report.total_cost_usd,
        report.spot_share() * 100.0,
        report.p95_latency_inflation,
    );
    println!(
        "failure domain: notified {}  drained {}  migrated {}  demoted {}  rejected {}",
        report.notified, report.drained, report.migrated, report.spot_demoted, report.rejected,
    );
}

/// What a source hands the replay: the scanned trace, the fleet and its
/// configuration, and where and how often to snapshot (the source's
/// defaults unless `--snapshot` / `--snapshot-secs` say otherwise).
struct Scenario {
    trace: StreamTrace,
    sim: FleetSimulator,
    config: FleetConfig,
    snapshot_path: String,
    snapshot_secs: f64,
}

/// The week_replay bench scenario over gz day files written to disk.
fn week(args: &[String], opts: &exp::ExperimentOpts) -> Scenario {
    let base = if opts.opt_repeats <= 2 {
        WeekTraceSpec::downscaled()
    } else {
        WeekTraceSpec::headline()
    };
    let spec = WeekTraceSpec {
        days: flag_value(args, "--days")
            .and_then(|v| v.parse().ok())
            .unwrap_or(base.days),
        functions: flag_value(args, "--functions")
            .and_then(|v| v.parse().ok())
            .unwrap_or(base.functions),
        ..base
    };
    let out_dir = flag_value(args, "--out-dir").unwrap_or_else(|| "target/week_trace".to_string());
    let synth_start = Instant::now();
    let paths = spec
        .write_day_files(std::path::Path::new(&out_dir), opts.effective_threads())
        .expect("write day files");
    let gz_bytes: u64 = paths
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum();
    println!(
        "trace {}: {} gz day files, {:.1} MiB compressed, synthesized in {:.1}s",
        spec.tag(),
        paths.len(),
        gz_bytes as f64 / (1 << 20) as f64,
        synth_start.elapsed().as_secs_f64(),
    );
    let scan_start = Instant::now();
    let trace = StreamTrace::from_csv_files(&paths).expect("scan day files");
    let scan_secs = scan_start.elapsed().as_secs_f64();
    println!(
        "scanned {} events / {} functions / {:.1} simulated days in {scan_secs:.1}s, \
         {:.1} MB/s decompressed",
        trace.len(),
        trace.n_functions(),
        trace.horizon_nanos() as f64 / 86_400e9,
        gz_bytes as f64 / 1e6 / scan_secs,
    );
    let plans = exp::fleet_simulation::synthetic_plans(spec.functions as usize, 4)
        .expect("synthetic plans");
    // The scarce, volatile market preset where demotions and admission
    // control actually bite.
    let tightness = exp::fleet_simulation::market_tightness()[2];
    Scenario {
        trace,
        sim: FleetSimulator::new(plans).expect("fleet simulator"),
        config: FleetConfig {
            market: exp::fleet_simulation::market_config(&tightness, AdmissionPolicy::Greedy),
            control: ControlConfig {
                cadence_secs: 30.0,
                controller: ControllerConfig::HeadroomPid(PidConfig::default()),
            },
            ..FleetConfig::default()
        },
        snapshot_path: format!("{out_dir}/week_replay.snap"),
        snapshot_secs: 21_600.0,
    }
}

/// The cheap synthetic fleet over a heavy-tail trace on the tight
/// three-zone market under the stormy fault plan.
fn generated(opts: &exp::ExperimentOpts) -> Scenario {
    let (duration_secs, n_functions) = exp::fleet_simulation::fleet_scale(opts);
    let duration_secs = if opts.opt_repeats <= 2 {
        duration_secs * 5.0
    } else {
        duration_secs
    };
    let trace = StreamTrace::generate_sharded(
        TraceSource::HeavyTail {
            mean_rps: 0.5,
            alpha: 1.5,
        },
        n_functions,
        duration_secs,
        opts.seed,
        opts.effective_threads(),
    )
    .expect("trace generation");
    println!(
        "trace: {n_functions} functions, {duration_secs}s heavy-tail, {} events",
        trace.len()
    );
    let plans =
        exp::fleet_simulation::synthetic_plans(n_functions, 4).expect("synthetic fleet plans");
    let tight = exp::fleet_simulation::market_tightness()[2];
    let stormy = exp::fleet_zone_outage::fault_presets()[2];
    Scenario {
        trace,
        sim: FleetSimulator::new(plans).expect("fleet simulator"),
        config: FleetConfig {
            market: MarketConfig {
                zones: exp::fleet_zone_outage::zone_layout(),
                ..exp::fleet_simulation::market_config(&tight, AdmissionPolicy::Greedy)
            },
            control: ControlConfig {
                cadence_secs: 20.0,
                controller: ControllerConfig::HeadroomPid(PidConfig::default()),
            },
            faults: stormy.plan,
            ..FleetConfig::default()
        },
        snapshot_path: "target/fleet_replay.snap".to_string(),
        snapshot_secs: 60.0,
    }
}

/// One resumable replay of the scenario: every epoch's snapshot is
/// written to the snapshot path and handed to `on_epoch`, and the replay
/// stops once the boundary of `kill_epoch` is reached.
fn replay<R: Recorder>(
    sc: &Scenario,
    kill_epoch: Option<u64>,
    resume: Option<&ReplaySnapshot>,
    rec: &mut R,
    mut on_epoch: impl FnMut(&ReplaySnapshot, &mut R),
) -> Result<Option<FleetReport>> {
    sc.sim.run_stream_resumable_traced(
        &sc.trace,
        PlacementStrategy::IdleAware,
        &sc.config,
        sc.snapshot_secs,
        resume,
        rec,
        |snap, rec| {
            snap.write_to(&sc.snapshot_path)?;
            on_epoch(snap, rec);
            Ok(kill_epoch.is_none_or(|kill| snap.epoch() < kill))
        },
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opts = exp::ExperimentOpts::from_args();
    let mut sc = match flag_value(&args, "--source").as_deref() {
        None | Some("week") => week(&args, &opts),
        Some("generated") => generated(&opts),
        Some(other) => {
            eprintln!("unknown --source {other}: expected week or generated");
            std::process::exit(2);
        }
    };
    if let Some(path) = flag_value(&args, "--snapshot") {
        sc.snapshot_path = path;
    }
    if let Some(secs) = flag_value(&args, "--snapshot-secs").and_then(|v| v.parse().ok()) {
        sc.snapshot_secs = secs;
    }
    let snapshot_path = sc.snapshot_path.clone();
    let kill_epoch: Option<u64> = flag_value(&args, "--kill-epoch").and_then(|v| v.parse().ok());
    let telemetry_path = flag_value(&args, "--telemetry");
    let trace_json_path = flag_value(&args, "--trace-json");

    if args.iter().any(|a| a == "--verify") {
        let kill = kill_epoch.unwrap_or(2);
        let baseline = sc
            .sim
            .run_stream(&sc.trace, PlacementStrategy::IdleAware, &sc.config)
            .expect("uninterrupted replay");
        let killed =
            replay(&sc, Some(kill), None, &mut NoopRecorder, |_, _| {}).expect("killed replay");
        assert!(killed.is_none(), "kill epoch {kill} past end of trace");
        let snap = ReplaySnapshot::read_from(&snapshot_path).expect("read snapshot");
        println!(
            "killed at epoch {} with {} events consumed; resuming",
            snap.epoch(),
            snap.events_consumed()
        );
        let resumed = replay(&sc, None, Some(&snap), &mut NoopRecorder, |_, _| {})
            .expect("resumed replay")
            .expect("resumed replay reached the end");
        if format!("{baseline:?}") != format!("{resumed:?}") {
            eprintln!("MISMATCH: kill+resume diverged from the uninterrupted replay");
            eprintln!("uninterrupted: {baseline:?}");
            eprintln!("kill+resume:   {resumed:?}");
            std::process::exit(1);
        }
        println!("verify ok: kill+resume ≡ uninterrupted replay");
        summarize(&baseline);
        return;
    }

    let resume_from = if args.iter().any(|a| a == "--resume") {
        match ReplaySnapshot::read_from(&snapshot_path) {
            Ok(snap) => {
                println!(
                    "resuming from {snapshot_path}: epoch {}, {} events consumed",
                    snap.epoch(),
                    snap.events_consumed()
                );
                Some(snap)
            }
            Err(e) => {
                eprintln!("cannot resume from {snapshot_path}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };

    let replay_start = Instant::now();
    let outcome = if telemetry_path.is_some() || trace_json_path.is_some() {
        let mut tel = Telemetry::new();
        sc.trace.record_scan(&mut tel);
        let epoch_nanos = (sc.snapshot_secs * 1e9) as u64;
        let mut jsonl = String::new();
        let out = replay(
            &sc,
            kill_epoch,
            resume_from.as_ref(),
            &mut tel,
            |snap, rec| {
                rec.jsonl_snapshot(
                    snap.epoch(),
                    snap.epoch().saturating_mul(epoch_nanos),
                    &mut jsonl,
                )
            },
        );
        if let Some(path) = &telemetry_path {
            std::fs::write(path, &jsonl).expect("write telemetry JSONL");
            println!("telemetry: per-epoch JSONL -> {path}");
        }
        if let Some(path) = &trace_json_path {
            tel.write_chrome_trace(std::path::Path::new(path))
                .expect("write Chrome trace JSON");
            println!("telemetry: Chrome trace -> {path} (open in Perfetto or chrome://tracing)");
        }
        println!("{}", tel.summary());
        out
    } else {
        replay(
            &sc,
            kill_epoch,
            resume_from.as_ref(),
            &mut NoopRecorder,
            |_, _| {},
        )
    };
    let wall = replay_start.elapsed().as_secs_f64();
    match outcome {
        Ok(Some(report)) => {
            let events = sc.trace.len() as f64;
            println!(
                "replay complete in {wall:.1}s, {}s epochs: {:.0} events/sec, \
                 {:.0} ns/event",
                sc.snapshot_secs,
                events / wall,
                wall * 1e9 / events,
            );
            summarize(&report);
        }
        Ok(None) => {
            println!(
                "killed at epoch {} — snapshot persisted to {snapshot_path}; \
                 rerun with --resume to finish",
                kill_epoch.unwrap_or(0)
            );
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            std::process::exit(1);
        }
    }
}
