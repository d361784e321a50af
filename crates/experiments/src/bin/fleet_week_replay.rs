//! Week-scale crash-resumable replay over multi-file gzip'd trace days:
//! synthesizes one `.csv.gz` per simulated day (14 days × 10 000
//! functions by default), streams the whole set through the fleet
//! simulator without materializing it, and snapshots at epoch
//! boundaries so a killed run resumes bit-identically.
//!
//! ```text
//! fleet_week_replay --fast                    # downscaled 2-day replay
//! fleet_week_replay --fast --kill-epoch 2     # dies at epoch 2, leaves a snapshot
//! fleet_week_replay --fast --resume           # finishes from the snapshot
//! fleet_week_replay --fast --verify           # uninterrupted vs kill+resume bit-compare
//! ```
//!
//! Flags on top of the shared experiment set (`--fast`, `--threads N`):
//! `--days N` / `--functions N` (trace shape; default 14 × 10 000, or
//! 2 × 2 000 under `--fast`), `--out-dir PATH` (where the day files are
//! written, default `target/week_trace`), `--snapshot PATH`,
//! `--snapshot-secs N` (epoch length, default 21600 = 6 h),
//! `--kill-epoch N`, `--resume`, `--verify`, `--telemetry PATH`
//! (per-epoch JSONL metric snapshots), `--trace-json PATH`
//! (Perfetto-loadable Chrome trace of sim-time and wall-time spans).
//! Either telemetry flag also prints the terminal summary; the replay
//! report is bit-identical with telemetry on or off.

use std::time::Instant;

use freedom::fleet::{
    AdmissionPolicy, ControlConfig, ControllerConfig, FleetConfig, FleetReport, FleetSimulator,
    PidConfig, PlacementStrategy, StreamTrace, Telemetry,
};
use freedom::snapshot::ReplaySnapshot;
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

fn scenario(functions: u32) -> (FleetSimulator, FleetConfig) {
    let plans =
        exp::fleet_simulation::synthetic_plans(functions as usize, 4).expect("synthetic plans");
    let sim = FleetSimulator::new(plans).expect("fleet simulator");
    // The week_replay bench scenario: the scarce, volatile market
    // preset where demotions and admission control actually bite.
    let tightness = exp::fleet_simulation::market_tightness()[2];
    let config = FleetConfig {
        market: exp::fleet_simulation::market_config(&tightness, AdmissionPolicy::Greedy),
        control: ControlConfig {
            cadence_secs: 30.0,
            controller: ControllerConfig::HeadroomPid(PidConfig::default()),
        },
        ..FleetConfig::default()
    };
    (sim, config)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opts = exp::ExperimentOpts::from_args();
    let fast = opts.opt_repeats <= 2;
    let base = if fast {
        WeekTraceSpec::downscaled()
    } else {
        WeekTraceSpec::headline()
    };
    let spec = WeekTraceSpec {
        days: flag_value(&args, "--days")
            .and_then(|v| v.parse().ok())
            .unwrap_or(base.days),
        functions: flag_value(&args, "--functions")
            .and_then(|v| v.parse().ok())
            .unwrap_or(base.functions),
        ..base
    };
    let out_dir = flag_value(&args, "--out-dir").unwrap_or_else(|| "target/week_trace".to_string());
    let snapshot_path =
        flag_value(&args, "--snapshot").unwrap_or_else(|| format!("{out_dir}/week_replay.snap"));
    let snapshot_secs: f64 = flag_value(&args, "--snapshot-secs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(21_600.0);
    let kill_epoch: Option<u64> = flag_value(&args, "--kill-epoch").and_then(|v| v.parse().ok());
    let resume = args.iter().any(|a| a == "--resume");
    let verify = args.iter().any(|a| a == "--verify");
    let telemetry_path = flag_value(&args, "--telemetry");
    let trace_json_path = flag_value(&args, "--trace-json");
    let threads = opts.effective_threads();

    let synth_start = Instant::now();
    let paths = spec
        .write_day_files(std::path::Path::new(&out_dir), threads)
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

    // The scan is the one pass that inflates and parses the day files;
    // every replay below reads its row table.
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

    let (sim, config) = scenario(spec.functions);

    if verify {
        let kill = kill_epoch.unwrap_or(2);
        let baseline = sim
            .run_stream(&trace, PlacementStrategy::IdleAware, &config)
            .expect("uninterrupted replay");
        let killed = sim
            .run_stream_resumable(
                &trace,
                PlacementStrategy::IdleAware,
                &config,
                snapshot_secs,
                None,
                |snap| {
                    snap.write_to(&snapshot_path)?;
                    Ok(snap.epoch() < kill)
                },
            )
            .expect("killed replay");
        assert!(killed.is_none(), "kill epoch {kill} past end of trace");
        let snap = ReplaySnapshot::read_from(&snapshot_path).expect("read snapshot");
        println!(
            "killed at epoch {} with {} events consumed; resuming",
            snap.epoch(),
            snap.events_consumed()
        );
        let resumed = sim
            .run_stream_resumable(
                &trace,
                PlacementStrategy::IdleAware,
                &config,
                snapshot_secs,
                Some(&snap),
                |_| Ok(true),
            )
            .expect("resumed replay")
            .expect("resumed replay reached the end");
        if format!("{baseline:?}") != format!("{resumed:?}") {
            eprintln!("MISMATCH: kill+resume diverged from the uninterrupted replay");
            eprintln!("uninterrupted: {baseline:?}");
            eprintln!("kill+resume:   {resumed:?}");
            std::process::exit(1);
        }
        println!("verify ok: kill+resume over gz day files ≡ uninterrupted replay");
        summarize(&baseline);
        return;
    }

    let resume_from = if resume {
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
        trace.record_scan(&mut tel);
        let epoch_nanos = (snapshot_secs * 1e9) as u64;
        let mut jsonl = String::new();
        let out = sim.run_stream_resumable_traced(
            &trace,
            PlacementStrategy::IdleAware,
            &config,
            snapshot_secs,
            resume_from.as_ref(),
            &mut tel,
            |snap, rec| {
                snap.write_to(&snapshot_path)?;
                rec.jsonl_snapshot(
                    snap.epoch(),
                    snap.epoch().saturating_mul(epoch_nanos),
                    &mut jsonl,
                );
                if let Some(kill) = kill_epoch {
                    if snap.epoch() >= kill {
                        return Ok(false);
                    }
                }
                Ok(true)
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
        sim.run_stream_resumable(
            &trace,
            PlacementStrategy::IdleAware,
            &config,
            snapshot_secs,
            resume_from.as_ref(),
            |snap| {
                snap.write_to(&snapshot_path)?;
                if let Some(kill) = kill_epoch {
                    if snap.epoch() >= kill {
                        return Ok(false);
                    }
                }
                Ok(true)
            },
        )
    };
    let wall = replay_start.elapsed().as_secs_f64();
    match outcome {
        Ok(Some(report)) => {
            let events = trace.len() as f64;
            println!(
                "replay complete in {wall:.1}s: {:.0} events/sec, {:.0} ns/event",
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
