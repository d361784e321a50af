//! Failure-domain sweep: what multi-zone supply and preemption notices
//! buy the provider when zones actually fail.
//!
//! Every cell replays one heavy-tail trace over a **three-zone** spot
//! market with preemption notices under one fault plan and one
//! controller:
//!
//! - fault plans escalate from `calm` (only the market's own supply
//!   volatility) through `outages` (whole-zone failures) to `stormy`
//!   (outages plus correlated supply-shock bursts plus dropped notice
//!   deliveries);
//! - controllers are the open-loop `static` baseline, the `pid`
//!   admission-ceiling feedback loop, and the surrogate `right_sizer` —
//!   the same presets the control-loop sweep scores on a healthy market.
//!
//! Reported per cell: provider savings vs. the best-config-only
//! baseline, spot share, and the failure-domain ledger — notices
//! delivered, completions drained under notice, cross-zone migrations,
//! and force-demotions — so the table shows how much displaced work the
//! notice lead and the failover path rescue as faults escalate.

use freedom::fleet::{
    AdmissionPolicy, ControlConfig, ControllerConfig, FaultPlan, FleetConfig, FleetReport,
    FleetSimulator, PidConfig, PlacementStrategy, ReplayStats, RightSizerConfig, StreamTrace,
    Telemetry, TraceSource, ZoneConfig,
};

use crate::context::{par_map, ExperimentOpts};
use crate::fleet_simulation::{fleet_scale, market_config, market_tightness, tuned_base_plans};
use crate::report::{fmt_f, TextTable};

/// Controller tick cadence (matches the control-loop sweep).
const CADENCE_SECS: f64 = 20.0;

/// The failure-domain layout every cell replays: three zones, a notice
/// lead that fits several mean executions, strong cross-zone shock
/// correlation, and migrations re-billed at half of list price.
pub fn zone_layout() -> ZoneConfig {
    ZoneConfig {
        n_zones: 3,
        notice_secs: 8.0,
        shock: 0.6,
        migration_rebill: 0.5,
    }
}

/// One fault preset of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct FaultPreset {
    /// Row label (`calm`, `outages`, `stormy`).
    pub label: &'static str,
    /// The injected plan.
    pub plan: FaultPlan,
}

/// The escalation ladder, calmest first.
pub fn fault_presets() -> [FaultPreset; 3] {
    [
        FaultPreset {
            label: "calm",
            plan: FaultPlan::NONE,
        },
        FaultPreset {
            label: "outages",
            plan: FaultPlan {
                seed: 29,
                outage_rate_per_hour: 12.0,
                mean_outage_secs: 45.0,
                notice_drop_fraction: 0.0,
                burst_rate_per_hour: 0.0,
                mean_burst_secs: 1.0,
                burst_severity: 0.0,
                ..FaultPlan::NONE
            },
        },
        FaultPreset {
            label: "stormy",
            plan: FaultPlan {
                seed: 29,
                outage_rate_per_hour: 12.0,
                mean_outage_secs: 45.0,
                notice_drop_fraction: 0.3,
                burst_rate_per_hour: 6.0,
                mean_burst_secs: 30.0,
                burst_severity: 0.6,
                ..FaultPlan::NONE
            },
        },
    ]
}

/// One sweep data point.
///
/// `Debug` deliberately covers only the *result* fields: `stats` and
/// `telemetry` are replay-engine diagnostics (the digest carries
/// sampled wall-clock timings), so they are excluded from the
/// bit-equality surface the determinism tests compare.
#[derive(Clone)]
pub struct OutageRow {
    /// Fault preset label.
    pub faults: &'static str,
    /// Controller preset label.
    pub controller: &'static str,
    /// Best-config-only baseline cost under the same faults.
    pub baseline_cost_usd: f64,
    /// The idle-aware replay over the faulted multi-zone market.
    pub report: FleetReport,
    /// Peak-memory stats of the replay (peak in-flight, peak resident
    /// events).
    pub stats: ReplayStats,
    /// One-line telemetry counter digest of the replay
    /// ([`Telemetry::brief`]).
    pub telemetry: String,
}

impl std::fmt::Debug for OutageRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutageRow")
            .field("faults", &self.faults)
            .field("controller", &self.controller)
            .field("baseline_cost_usd", &self.baseline_cost_usd)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

impl OutageRow {
    /// Provider savings vs. the best-config-only baseline.
    pub fn savings(&self) -> f64 {
        1.0 - self.report.total_cost_usd / self.baseline_cost_usd
    }

    /// In-flight placements displaced by supply drops, however resolved.
    pub fn displaced(&self) -> usize {
        self.report.drained + self.report.migrated + self.report.spot_demoted
    }

    /// Share of displaced work rescued by the notice lead or the
    /// cross-zone failover instead of force-demotion (1.0 when nothing
    /// was displaced).
    pub fn rescue_rate(&self) -> f64 {
        if self.displaced() == 0 {
            return 1.0;
        }
        (self.report.drained + self.report.migrated) as f64 / self.displaced() as f64
    }
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct ZoneOutageResult {
    /// Functions in the simulated fleet.
    pub n_functions: usize,
    /// Trace length in seconds.
    pub duration_secs: f64,
    /// Rows, grouped by fault preset (calmest first), then controller.
    pub rows: Vec<OutageRow>,
}

impl ZoneOutageResult {
    /// The row of one sweep cell.
    pub fn cell(&self, faults: &str, controller: &str) -> Option<&OutageRow> {
        self.rows
            .iter()
            .find(|r| r.faults == faults && r.controller == controller)
    }

    /// Renders the sweep table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "faults",
            "controller",
            "savings",
            "spot share",
            "notified",
            "drained",
            "migrated",
            "demoted",
            "rescue",
            "rejected",
            "violations",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.faults.to_string(),
                r.controller.to_string(),
                format!("{}%", fmt_f(r.savings() * 100.0, 1)),
                format!("{}%", fmt_f(r.report.spot_share() * 100.0, 1)),
                r.report.notified.to_string(),
                r.report.drained.to_string(),
                r.report.migrated.to_string(),
                r.report.spot_demoted.to_string(),
                format!("{}%", fmt_f(r.rescue_rate() * 100.0, 1)),
                r.report.rejected.to_string(),
                r.report.slo_violations.to_string(),
            ]);
        }
        format!(
            "Fleet zone outages (3 zones, {}s notices, faults injected): \
             {} functions, {}s per trace\n{}",
            fmt_f(zone_layout().notice_secs, 0),
            self.n_functions,
            fmt_f(self.duration_secs, 0),
            t.render()
        )
    }

    /// Writes the CSV artifact.
    pub fn write_csv(&self) -> std::io::Result<std::path::PathBuf> {
        let mut t = TextTable::new(vec![
            "faults",
            "controller",
            "invocations",
            "baseline_cost_usd",
            "cost_usd",
            "savings",
            "spot_share",
            "spot_admitted",
            "notified",
            "drained",
            "migrated",
            "spot_demoted",
            "rescue_rate",
            "rejected",
            "slo_violations",
            "p95_latency_inflation",
            "peak_inflight",
            "peak_resident_events",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.faults.to_string(),
                r.controller.to_string(),
                r.report.invocations.to_string(),
                r.baseline_cost_usd.to_string(),
                r.report.total_cost_usd.to_string(),
                r.savings().to_string(),
                r.report.spot_share().to_string(),
                r.report.spot_admitted.to_string(),
                r.report.notified.to_string(),
                r.report.drained.to_string(),
                r.report.migrated.to_string(),
                r.report.spot_demoted.to_string(),
                r.rescue_rate().to_string(),
                r.report.rejected.to_string(),
                r.report.slo_violations.to_string(),
                r.report.p95_latency_inflation.to_string(),
                r.stats.peak_inflight.to_string(),
                r.stats.peak_resident_events().to_string(),
            ]);
        }
        t.write_csv("fleet_zone_outage.csv")
    }
}

/// Runs the sweep: every fault preset × controller over one heavy-tail
/// trace on the tight three-zone market, the cells fanned out across
/// `opts.effective_threads()` workers.
pub fn run(opts: &ExperimentOpts) -> freedom::Result<ZoneOutageResult> {
    let (base_plans, planner) = tuned_base_plans(opts)?;
    let (duration_secs, n_functions) = fleet_scale(opts);
    // Like the control-loop sweep, feedback (and outages) need epochs to
    // land in: stretch the `--fast` trace the same way.
    let duration_secs = if opts.opt_repeats <= 2 {
        duration_secs * 5.0
    } else {
        duration_secs
    };
    let threads = opts.effective_threads();
    let plans = (0..n_functions)
        .map(|i| base_plans[i % base_plans.len()].clone())
        .collect();
    let sim = FleetSimulator::new(plans)?;

    let trace = StreamTrace::generate_sharded(
        TraceSource::HeavyTail {
            mean_rps: 0.5,
            alpha: 1.5,
        },
        n_functions,
        duration_secs,
        opts.seed,
        threads,
    )?;

    // The tight preset: scarce and volatile, so zone failures displace
    // real work instead of disappearing into headroom.
    let tight = market_tightness()[2];
    let market = |admission| freedom::market::MarketConfig {
        zones: zone_layout(),
        ..market_config(&tight, admission)
    };
    let headroom = planner.admission_policy();
    let controllers: [(&'static str, ControllerConfig, AdmissionPolicy); 3] = [
        ("static", ControllerConfig::Static, headroom),
        (
            "pid",
            ControllerConfig::HeadroomPid(PidConfig::default()),
            AdmissionPolicy::Greedy,
        ),
        (
            "right_sizer",
            ControllerConfig::SurrogateRightSizer(RightSizerConfig::default()),
            headroom,
        ),
    ];
    let faults = fault_presets();

    // Every cell replays with a live per-cell recorder: the stats and
    // counter digest ride along in the row while the report itself stays
    // bit-identical to the untraced replay (the determinism lattice pins
    // this).
    let replay = |strategy, config: &FleetConfig| {
        let mut tel = Telemetry::with_capacity(4096);
        let (report, stats) = sim.run_stream_traced(&trace, strategy, config, &mut tel)?;
        Ok::<_, freedom::FreedomError>((report, stats, tel.brief()))
    };

    // One best-config-only baseline per fault preset: the baseline never
    // touches the spot market, so faults and controllers cannot move it,
    // but replaying it per preset keeps every cell's comparison honest.
    let fault_idx: Vec<usize> = (0..faults.len()).collect();
    let baselines = par_map(opts, &fault_idx, |&f| {
        let config = FleetConfig {
            market: market(AdmissionPolicy::Greedy),
            faults: faults[f].plan,
            ..FleetConfig::default()
        };
        Ok(replay(PlacementStrategy::BestConfigOnly, &config)?
            .0
            .total_cost_usd)
    })
    .into_iter()
    .collect::<freedom::Result<Vec<f64>>>()?;

    let points: Vec<(usize, usize)> = (0..faults.len())
        .flat_map(|f| (0..controllers.len()).map(move |c| (f, c)))
        .collect();
    let rows = par_map(opts, &points, |&(f, c)| {
        let (label, controller, admission) = controllers[c];
        let config = FleetConfig {
            market: market(admission),
            control: ControlConfig {
                cadence_secs: CADENCE_SECS,
                controller,
            },
            faults: faults[f].plan,
            ..FleetConfig::default()
        };
        let (report, stats, telemetry) = replay(PlacementStrategy::IdleAware, &config)?;
        Ok(OutageRow {
            faults: faults[f].label,
            controller: label,
            baseline_cost_usd: baselines[f],
            report,
            stats,
            telemetry,
        })
    })
    .into_iter()
    .collect::<freedom::Result<Vec<_>>>()?;
    Ok(ZoneOutageResult {
        n_functions,
        duration_secs,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_domain_rescues_displaced_work() {
        let result = run(&ExperimentOpts::fast()).unwrap();
        assert_eq!(result.rows.len(), 3 * 3);
        for r in &result.rows {
            assert!(r.report.invocations > 0);
            assert_eq!(
                r.report.spot_admitted
                    + r.report.drained
                    + r.report.migrated
                    + r.report.spot_demoted
                    + r.report.rejected,
                r.report.invocations,
                "{}/{}: accounting leaked",
                r.faults,
                r.controller
            );
            assert!(r.baseline_cost_usd > 0.0);
        }
        // The failure-domain machinery must actually fire somewhere:
        // notices delivered, completions drained, work migrated.
        let total = |f: fn(&OutageRow) -> usize| result.rows.iter().map(f).sum::<usize>();
        assert!(total(|r| r.report.notified) > 0, "no notices delivered");
        assert!(total(|r| r.report.drained) > 0, "nothing drained");
        assert!(total(|r| r.report.migrated) > 0, "nothing migrated");
        // Escalating faults displace more work on the open-loop row.
        let calm = result.cell("calm", "static").unwrap();
        let stormy = result.cell("stormy", "static").unwrap();
        assert!(
            stormy.displaced() >= calm.displaced(),
            "outages+bursts must not displace less: {} vs {}",
            stormy.displaced(),
            calm.displaced()
        );
        assert!(result.render().contains("zone outages"));
    }

    #[test]
    fn rescue_rate_is_total_on_zero_displacement() {
        use freedom::fleet::{SupplyProcess, TraceSource};

        // A steady full-supply market displaces nothing: the rate must
        // pin to 1.0, not divide by zero or report 0% rescued.
        let plans = crate::fleet_simulation::synthetic_plans(6, 4).unwrap();
        let sim = FleetSimulator::new(plans).unwrap();
        let config = FleetConfig {
            market: freedom::market::MarketConfig {
                supply: SupplyProcess {
                    step_secs: 10.0,
                    min_fraction: 1.0,
                    seed: 3,
                },
                ..freedom::market::MarketConfig::default()
            },
            ..FleetConfig::default()
        };
        let lazy = StreamTrace::generate(
            TraceSource::Poisson {
                rps_per_function: 0.5,
            },
            6,
            30.0,
            5,
        )
        .unwrap();
        let (report, stats) = sim
            .run_stream_with_stats(&lazy, PlacementStrategy::IdleAware, &config)
            .unwrap();
        assert_eq!(report.invocations, lazy.len());
        let mut row = OutageRow {
            faults: "calm",
            controller: "static",
            baseline_cost_usd: 1.0,
            report,
            stats,
            telemetry: String::new(),
        };
        assert_eq!(row.displaced(), 0, "{:?}", row.report);
        assert_eq!(row.rescue_rate(), 1.0);
        // With displacement, the rate is the rescued share.
        row.report.drained = 2;
        row.report.migrated = 1;
        row.report.spot_demoted = 1;
        assert_eq!(row.displaced(), 4);
        assert_eq!(row.rescue_rate(), 0.75);
    }
}
