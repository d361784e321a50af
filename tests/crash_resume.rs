//! Crash-resumable replay: a streaming fleet replay killed at an
//! arbitrary epoch boundary and restarted from its persisted snapshot
//! must reproduce the uninterrupted report bit for bit — through a real
//! trip to disk, under fault injection, over a multi-zone market with
//! preemption notices.

use faas_freedom::core::fleet::{
    AdmissionPolicy, BrownoutConfig, ControlConfig, ControllerConfig, FaultPlan, FleetConfig,
    FleetSimulator, PidConfig, PlacementStrategy, RetryPolicy, StreamTrace, SupplyProcess,
    TraceSource, ZoneConfig,
};
use faas_freedom::core::market::MarketConfig;
use faas_freedom::core::snapshot::ReplaySnapshot;
use faas_freedom::prelude::FunctionKind;

fn faulted_config() -> FleetConfig {
    FleetConfig {
        market: MarketConfig {
            vms_per_family: 2,
            supply: SupplyProcess {
                step_secs: 10.0,
                min_fraction: 0.2,
                seed: 21,
            },
            zones: ZoneConfig {
                n_zones: 3,
                notice_secs: 4.0,
                shock: 0.5,
                migration_rebill: 0.5,
            },
            admission: AdmissionPolicy::Headroom {
                max_utilization: 0.9,
            },
            ..MarketConfig::default()
        },
        control: ControlConfig {
            cadence_secs: 15.0,
            controller: ControllerConfig::HeadroomPid(PidConfig::default()),
        },
        faults: FaultPlan {
            seed: 29,
            outage_rate_per_hour: 36.0,
            mean_outage_secs: 25.0,
            notice_drop_fraction: 0.25,
            burst_rate_per_hour: 24.0,
            mean_burst_secs: 12.0,
            burst_severity: 0.5,
            ..FaultPlan::NONE
        },
        ..FleetConfig::default()
    }
}

/// The faulted scenario plus per-invocation transient faults and a full
/// retry policy — backoff, hedging, per-family budgets, brownout — so a
/// kill lands with backoff timers armed and the budget partially drained.
fn stormy_config() -> FleetConfig {
    let mut config = faulted_config();
    config.faults = FaultPlan {
        crash_prob: 0.08,
        abort_prob: 0.06,
        straggler_prob: 0.10,
        straggler_factor: 4.0,
        ..config.faults
    };
    config.retry = RetryPolicy {
        max_attempts: 4,
        backoff_base_secs: 0.5,
        backoff_cap_secs: 8.0,
        hedge_delay_secs: 2.0,
        budget_per_sec: 1.0,
        budget_burst: 4.0,
        brownout: Some(BrownoutConfig {
            enter_pressure: 0.2,
            exit_pressure: 0.05,
            utilization_ceiling: 0.7,
        }),
        ..RetryPolicy::DEFAULT
    };
    config
}

fn hot_stream() -> StreamTrace {
    StreamTrace::generate(
        TraceSource::Bursty {
            calm_rps: 1.0,
            burst_rps: 6.0,
            mean_calm_secs: 25.0,
            mean_burst_secs: 12.0,
        },
        FunctionKind::ALL.len(),
        240.0,
        11,
    )
    .unwrap()
}

/// Kill the replay at a pseudo-randomly chosen epoch (seeded, so the
/// test replays identically), persist the snapshot the way a real
/// supervisor would — bytes to a file, re-read on restart — and resume.
/// The resumed report must match the uninterrupted run bit for bit.
#[test]
fn kill_at_random_epoch_resumes_bit_identically() {
    let plans =
        freedom_experiments::fleet_simulation::synthetic_plans(FunctionKind::ALL.len(), 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    let config = faulted_config();
    let lazy = hot_stream();
    let snapshot_secs = 20.0;

    let reference = sim
        .run_stream(&lazy, PlacementStrategy::IdleAware, &config)
        .unwrap();
    assert!(
        reference.notified > 0 && reference.migrated + reference.drained > 0,
        "the scenario must exercise the failure domain: {reference:?}"
    );

    // Count the epochs once so the kill points can span the whole run.
    let mut epochs: Vec<u64> = Vec::new();
    let full = sim
        .run_stream_resumable(
            &lazy,
            PlacementStrategy::IdleAware,
            &config,
            snapshot_secs,
            None,
            |s| {
                epochs.push(s.epoch());
                Ok(true)
            },
        )
        .unwrap()
        .expect("uninterrupted run completes");
    assert_eq!(format!("{reference:?}"), format!("{full:?}"));
    assert!(epochs.len() >= 5, "want several boundaries, got {epochs:?}");

    // Three seeded pseudo-random kill epochs plus both edges.
    let mut lcg: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut kill_epochs = vec![epochs[0], *epochs.last().unwrap()];
    for _ in 0..3 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        kill_epochs.push(epochs[(lcg >> 33) as usize % epochs.len()]);
    }

    let dir = std::env::temp_dir().join(format!("freedom-crash-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, &kill_at) in kill_epochs.iter().enumerate() {
        // The "crashing" process: persists every snapshot, then dies at
        // the chosen boundary (the callback's Ok(false) is the kill).
        let path = dir.join(format!("kill-{i}.snap"));
        let crashed = sim
            .run_stream_resumable(
                &lazy,
                PlacementStrategy::IdleAware,
                &config,
                snapshot_secs,
                None,
                |s| {
                    s.write_to(&path)?;
                    Ok(s.epoch() < kill_at)
                },
            )
            .unwrap();
        assert!(
            crashed.is_none(),
            "epoch {kill_at}: kill must abort the run"
        );

        // The restarted process: reads the snapshot back from disk and
        // picks up where the dead one stopped.
        let snap = ReplaySnapshot::read_from(&path).unwrap();
        assert_eq!(snap.epoch(), kill_at);
        assert_eq!(snap.window_nanos(), 20_000_000_000);
        let resumed = sim
            .run_stream_resumable(
                &lazy,
                PlacementStrategy::IdleAware,
                &config,
                snapshot_secs,
                Some(&snap),
                |_| Ok(true),
            )
            .unwrap()
            .expect("resumed run completes");
        assert_eq!(
            format!("{reference:?}"),
            format!("{resumed:?}"),
            "resume from epoch {kill_at} diverged from the uninterrupted replay"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot is only valid for the replay that produced it: a different
/// controller, fault seed, or snapshot cadence must be rejected up
/// front, and a truncated snapshot file must fail to decode instead of
/// resuming a corrupt position.
#[test]
fn foreign_and_corrupt_snapshots_are_rejected() {
    let plans =
        freedom_experiments::fleet_simulation::synthetic_plans(FunctionKind::ALL.len(), 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    let config = faulted_config();
    let lazy = hot_stream();

    let mut first: Option<ReplaySnapshot> = None;
    sim.run_stream_resumable(
        &lazy,
        PlacementStrategy::IdleAware,
        &config,
        20.0,
        None,
        |s| {
            first = Some(s.clone());
            Ok(false)
        },
    )
    .unwrap();
    let snap = first.expect("at least one boundary");

    let reseeded = FleetConfig {
        faults: FaultPlan {
            seed: config.faults.seed + 1,
            ..config.faults
        },
        ..config
    };
    assert!(
        sim.run_stream_resumable(
            &lazy,
            PlacementStrategy::IdleAware,
            &reseeded,
            20.0,
            Some(&snap),
            |_| Ok(true),
        )
        .is_err(),
        "a different fault seed must invalidate the snapshot"
    );
    assert!(
        sim.run_stream_resumable(
            &lazy,
            PlacementStrategy::IdleAware,
            &config,
            40.0,
            Some(&snap),
            |_| Ok(true),
        )
        .is_err(),
        "a different snapshot cadence must invalidate the snapshot"
    );

    let bytes = snap.to_bytes();
    assert!(ReplaySnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    assert!(ReplaySnapshot::from_bytes(&bytes[1..]).is_err());
    // Single-bit payload corruption at seeded pseudo-random offsets must
    // fail the integrity checksum, never decode into a skewed resume.
    let mut lcg: u64 = 0xa076_1d64_78bd_642f;
    for _ in 0..32 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let byte = (lcg >> 33) as usize % bytes.len();
        let bit = (lcg >> 29) as u8 % 8;
        let mut flipped = bytes.clone();
        flipped[byte] ^= 1 << bit;
        assert!(
            ReplaySnapshot::from_bytes(&flipped).is_err(),
            "bit flip at byte {byte} bit {bit} decoded anyway"
        );
    }
    let roundtrip = ReplaySnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(roundtrip.epoch(), snap.epoch());
    assert_eq!(roundtrip.fingerprint(), snap.fingerprint());
}

/// Kill the replay in the middle of a retry storm — pending backoff
/// timers in the heap, hedges armed against stragglers, the per-family
/// budget partially drained, brownout toggling — and resume from disk.
/// The carried retry state must survive the round-trip: the resumed
/// report matches the uninterrupted one bit for bit at every boundary.
#[test]
fn kill_mid_retry_storm_resumes_bit_identically() {
    let plans =
        freedom_experiments::fleet_simulation::synthetic_plans(FunctionKind::ALL.len(), 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    let config = stormy_config();
    let lazy = hot_stream();
    let snapshot_secs = 20.0;

    let reference = sim
        .run_stream(&lazy, PlacementStrategy::IdleAware, &config)
        .unwrap();
    assert!(
        reference.retried > 0,
        "the storm must actually retry: {reference:?}"
    );
    assert!(
        reference.retried + reference.dead_lettered > 4,
        "want a real storm, got {reference:?}"
    );

    let mut epochs: Vec<u64> = Vec::new();
    let full = sim
        .run_stream_resumable(
            &lazy,
            PlacementStrategy::IdleAware,
            &config,
            snapshot_secs,
            None,
            |s| {
                epochs.push(s.epoch());
                Ok(true)
            },
        )
        .unwrap()
        .expect("uninterrupted run completes");
    assert_eq!(format!("{reference:?}"), format!("{full:?}"));
    assert!(epochs.len() >= 5, "want several boundaries, got {epochs:?}");

    // Kill at every boundary: a retry heap or budget bug that only
    // bites at one particular epoch still fails the sweep.
    let dir = std::env::temp_dir().join(format!("freedom-retry-storm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for &kill_at in &epochs {
        let path = dir.join(format!("storm-{kill_at}.snap"));
        let crashed = sim
            .run_stream_resumable(
                &lazy,
                PlacementStrategy::IdleAware,
                &config,
                snapshot_secs,
                None,
                |s| {
                    s.write_to(&path)?;
                    Ok(s.epoch() < kill_at)
                },
            )
            .unwrap();
        assert!(crashed.is_none(), "epoch {kill_at}: kill must abort");

        let snap = ReplaySnapshot::read_from(&path).unwrap();
        let resumed = sim
            .run_stream_resumable(
                &lazy,
                PlacementStrategy::IdleAware,
                &config,
                snapshot_secs,
                Some(&snap),
                |_| Ok(true),
            )
            .unwrap()
            .expect("resumed run completes");
        assert_eq!(
            format!("{reference:?}"),
            format!("{resumed:?}"),
            "resume from epoch {kill_at} diverged mid-retry-storm"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The scan is the only reader of a trace's files. A multi-file gz
/// trace, once scanned, replays and resumes from a snapshot taken in
/// the middle of a gzip member with every one of its files deleted,
/// and both runs match the uninterrupted report.
#[test]
fn scanned_gz_days_replay_and_resume_after_their_files_are_deleted() {
    let n = FunctionKind::ALL.len();
    let plans = freedom_experiments::fleet_simulation::synthetic_plans(n, 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    let config = faulted_config();
    let snapshot_secs = 300.0;

    // Three 20-minute "days", one gzip member each, zero-count rows
    // included: 5-minute epochs put every boundary but the seams inside
    // a member.
    let dir = std::env::temp_dir().join(format!("freedom-deleted-days-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut lcg: u64 = 0x2545_f491_4f6c_dd1d;
    let mut paths = Vec::new();
    for day in 0..3u64 {
        let mut csv = String::from("app,func,minute,count\n");
        for minute in 20 * day..20 * (day + 1) {
            for f in 0..n {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                csv.push_str(&format!("app,f{f},{minute},{}\n", lcg >> 60));
            }
        }
        let path = dir.join(format!("day{day}.csv.gz"));
        let gz = flate::gzip_compress(csv.as_bytes(), flate::CompressMode::FixedHuffman);
        std::fs::write(&path, gz).unwrap();
        paths.push(path);
    }
    let trace = StreamTrace::from_csv_files(&paths).unwrap();
    let reference = sim
        .run_stream(&trace, PlacementStrategy::IdleAware, &config)
        .unwrap();
    assert_eq!(reference.invocations, trace.len());

    // Epoch 5 ends at minute 25: five minutes into the second member.
    let mut kept = None;
    let killed = sim
        .run_stream_resumable(
            &trace,
            PlacementStrategy::IdleAware,
            &config,
            snapshot_secs,
            None,
            |s| {
                if s.epoch() == 5 {
                    kept = Some(s.to_bytes());
                }
                Ok(s.epoch() < 5)
            },
        )
        .unwrap();
    assert!(killed.is_none(), "the kill must abort the run");

    std::fs::remove_dir_all(&dir).unwrap();
    assert!(paths.iter().all(|p| !p.exists()));

    let replayed = sim
        .run_stream(&trace, PlacementStrategy::IdleAware, &config)
        .unwrap();
    assert_eq!(
        format!("{reference:?}"),
        format!("{replayed:?}"),
        "a replay after the files were deleted diverged"
    );
    let snap = ReplaySnapshot::from_bytes(&kept.expect("a snapshot at epoch 5")).unwrap();
    let resumed = sim
        .run_stream_resumable(
            &trace,
            PlacementStrategy::IdleAware,
            &config,
            snapshot_secs,
            Some(&snap),
            |_| Ok(true),
        )
        .unwrap()
        .expect("resumed run completes");
    assert_eq!(
        format!("{reference:?}"),
        format!("{resumed:?}"),
        "a mid-member resume after the files were deleted diverged"
    );
}
