//! Fleet-level provider simulation over the shared spot market
//! (extension of §6.2 / Figure 15).
//!
//! Figure 15 evaluates placement decisions one function at a time; this
//! experiment replays invocation traces over a whole fleet contending
//! for one provider-wide spot market, and reports the provider savings,
//! SLO violations, and admission ledger (admitted / demoted / rejected)
//! of the idle-aware policy against the always-best-config baseline.
//!
//! The sweep covers every [`TraceSource`] workload shape (Poisson,
//! bursty, diurnal, heavy-tail, plus the checked-in Azure CSV fixture
//! replayed through [`TraceSource::from_csv`]) × market tightness (how
//! much warm capacity exists and how hard its supply fluctuates) ×
//! admission policy (greedy vs. the planner-emitted headroom
//! controller). Each cell replays sequentially ([`FleetSimulator::run`])
//! and the cells fan out across cores; at default settings the fleet is
//! 120 functions under an hour of traffic, at `--fast` a 12-function,
//! two-minute smoke of the same code paths.

use freedom::fleet::{
    AdmissionPolicy, FleetConfig, FleetReport, FleetSimulator, FunctionPlan, PlacementStrategy,
    StreamTrace, SupplyProcess, TraceSource,
};
use freedom::market::MarketConfig;
use freedom::provider::{IdleCapacityPlanner, PlannedPlacement};
use freedom::Autotuner;
use freedom_cluster::InstanceFamily;
use freedom_faas::collect_ground_truth;
use freedom_optimizer::{BoConfig, Objective, SearchSpace};
use freedom_surrogates::SurrogateKind;
use freedom_workloads::FunctionKind;

use crate::context::{ground_truth_default, par_map, ExperimentOpts};
use crate::report::{fmt_f, TextTable};

/// The checked-in Azure-Functions-style trace fixture
/// (`crates/core/testdata/azure_sample.csv`), replayed as the sweep's
/// fifth source: real `app,func,minute,count` rows grouped per
/// `(app, func)` key through the same k-way merge as the synthetic
/// generators.
pub const AZURE_FIXTURE: &str = include_str!("../../core/testdata/azure_sample.csv");

/// One market-tightness preset: how much warm capacity the provider
/// keeps and how far supply may sag between redraws.
#[derive(Debug, Clone, Copy)]
pub struct MarketTightness {
    /// Preset label (`loose`, `medium`, `tight`).
    pub label: &'static str,
    /// Market-wide warm VMs per family.
    pub vms_per_family: usize,
    /// Lower bound of the fluctuating supply fraction (1.0 = steady).
    pub min_supply_fraction: f64,
}

/// The three tightness presets, loosest first: a roomy steady market, a
/// moderately fluctuating one, and a scarce volatile one where demotions
/// and admission control actually bite.
pub fn market_tightness() -> [MarketTightness; 3] {
    [
        MarketTightness {
            label: "loose",
            vms_per_family: 8,
            min_supply_fraction: 1.0,
        },
        MarketTightness {
            label: "medium",
            vms_per_family: 4,
            min_supply_fraction: 0.5,
        },
        MarketTightness {
            label: "tight",
            vms_per_family: 2,
            min_supply_fraction: 0.0,
        },
    ]
}

/// One sweep data point.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Workload shape label (`poisson`, `bursty`, `diurnal`,
    /// `heavy_tail`, `azure`).
    pub source: &'static str,
    /// Functions in this row's fleet (the Azure fixture brings its own
    /// per-app function count).
    pub functions: usize,
    /// Market tightness preset label.
    pub tightness: &'static str,
    /// Admission policy label (`greedy`, `headroom`).
    pub policy: &'static str,
    /// Baseline (best-config-only) report.
    pub baseline: FleetReport,
    /// Idle-aware report.
    pub idle_aware: FleetReport,
}

impl FleetRow {
    /// Provider savings of idle-aware vs. baseline.
    pub fn cost_reduction(&self) -> f64 {
        1.0 - self.idle_aware.total_cost_usd / self.baseline.total_cost_usd
    }
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct FleetSimResult {
    /// Functions in the simulated fleet.
    pub n_functions: usize,
    /// Trace length in seconds.
    pub duration_secs: f64,
    /// Rows, grouped by trace source, then tightness (loosest first),
    /// then admission policy.
    pub rows: Vec<FleetRow>,
}

impl FleetSimResult {
    /// Renders the sweep table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "trace",
            "market",
            "admission",
            "invocations",
            "savings",
            "spot share",
            "demoted",
            "rejected",
            "violations",
            "p95 lat. inflation",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.source.to_string(),
                r.tightness.to_string(),
                r.policy.to_string(),
                r.baseline.invocations.to_string(),
                format!("{}%", fmt_f(r.cost_reduction() * 100.0, 1)),
                format!("{}%", fmt_f(r.idle_aware.spot_share() * 100.0, 1)),
                r.idle_aware.spot_demoted.to_string(),
                r.idle_aware.rejected.to_string(),
                r.idle_aware.slo_violations.to_string(),
                fmt_f(r.idle_aware.p95_latency_inflation, 3),
            ]);
        }
        format!(
            "Fleet simulation (shared spot market, extension of Fig. 15): {} functions, {}s per trace\n{}",
            self.n_functions,
            fmt_f(self.duration_secs, 0),
            t.render()
        )
    }

    /// Writes the CSV artifact.
    pub fn write_csv(&self) -> std::io::Result<std::path::PathBuf> {
        let mut t = TextTable::new(vec![
            "trace_source",
            "n_functions",
            "market_tightness",
            "admission_policy",
            "invocations",
            "baseline_cost_usd",
            "idle_aware_cost_usd",
            "cost_reduction",
            "spot_share",
            "spot_admitted",
            "spot_demoted",
            "policy_rejections",
            "capacity_misses",
            "slo_violations",
            "mean_latency_inflation",
            "p95_latency_inflation",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.source.to_string(),
                r.functions.to_string(),
                r.tightness.to_string(),
                r.policy.to_string(),
                r.baseline.invocations.to_string(),
                r.baseline.total_cost_usd.to_string(),
                r.idle_aware.total_cost_usd.to_string(),
                r.cost_reduction().to_string(),
                r.idle_aware.spot_share().to_string(),
                r.idle_aware.spot_admitted.to_string(),
                r.idle_aware.spot_demoted.to_string(),
                r.idle_aware.policy_rejections.to_string(),
                r.idle_aware.capacity_misses.to_string(),
                r.idle_aware.slo_violations.to_string(),
                r.idle_aware.mean_latency_inflation.to_string(),
                r.idle_aware.p95_latency_inflation.to_string(),
            ]);
        }
        t.write_csv("fleet_simulation.csv")
    }
}

/// The four workload shapes the sweep replays, targeting ~0.5 rps per
/// function on average (the diurnal period spans the whole trace, one
/// full cycle).
pub fn trace_sources(duration_secs: f64) -> [(&'static str, TraceSource); 4] {
    [
        (
            "poisson",
            TraceSource::Poisson {
                rps_per_function: 0.5,
            },
        ),
        (
            "bursty",
            TraceSource::Bursty {
                calm_rps: 0.1,
                burst_rps: 2.5,
                mean_calm_secs: 45.0,
                mean_burst_secs: 9.0,
            },
        ),
        (
            "diurnal",
            TraceSource::Diurnal {
                mean_rps: 0.5,
                peak_to_trough: 4.0,
                period_secs: duration_secs,
            },
        ),
        (
            "heavy_tail",
            TraceSource::HeavyTail {
                mean_rps: 0.5,
                alpha: 1.5,
            },
        ),
    ]
}

/// The market configuration of a tightness preset under a policy: supply
/// redraws every minute, seeded independently of the trace.
pub fn market_config(tightness: &MarketTightness, admission: AdmissionPolicy) -> MarketConfig {
    MarketConfig {
        vms_per_family: tightness.vms_per_family,
        supply: SupplyProcess {
            step_secs: 60.0,
            min_fraction: tightness.min_supply_fraction,
            seed: 17,
        },
        admission,
        ..MarketConfig::default()
    }
}

/// A fleet of `n_functions` plans built straight from ground-truth
/// tables (no tuning run): the best configuration is the table's fastest
/// feasible point, and each other family's fastest point becomes an
/// alternate, accepted when its actual slowdown stays within 15%.
///
/// This is the cheap fixture the determinism tests and the `spot_market`
/// bench replay; the experiment itself uses tuned plans.
pub fn synthetic_plans(n_functions: usize, seed: u64) -> freedom::Result<Vec<FunctionPlan>> {
    let space = SearchSpace::table1();
    let spot = freedom_pricing::SpotPricing::PAPER_DEFAULT;
    let base = FunctionKind::ALL
        .into_iter()
        .map(|function| {
            let table = collect_ground_truth(
                function,
                &function.default_input(),
                space.configs(),
                1,
                seed,
            )?;
            let best = table
                .best_by_time()
                .ok_or_else(|| freedom::FreedomError::InsufficientData(format!("{function}")))?
                .clone();
            let alternates = InstanceFamily::SEARCH_SPACE
                .iter()
                .filter(|&&family| family != best.config.family())
                .filter_map(|&family| {
                    table
                        .feasible()
                        .filter(|p| p.config.family() == family)
                        .min_by(|a, b| a.exec_time_secs.total_cmp(&b.exec_time_secs))
                        .map(|p| {
                            let norm_exec_time = p.exec_time_secs / best.exec_time_secs;
                            PlannedPlacement {
                                family,
                                config: p.config,
                                accepted: norm_exec_time <= 1.15,
                                norm_exec_time,
                                norm_spot_cost: p.exec_cost_usd * spot.fraction
                                    / best.exec_cost_usd,
                            }
                        })
                })
                .collect();
            Ok(FunctionPlan {
                function,
                best_config: best.config,
                alternates,
                table,
            })
        })
        .collect::<freedom::Result<Vec<FunctionPlan>>>()?;
    Ok((0..n_functions)
        .map(|i| base[i % base.len()].clone())
        .collect())
}

/// Builds the tuned per-function base plans the fleet sweeps replay —
/// one tuning run + planner pass per benchmark function, fanned out —
/// plus the planner that emitted them (whose risk posture supplies the
/// headroom admission policy). Shared by this sweep and the
/// control-loop experiment.
pub fn tuned_base_plans(
    opts: &ExperimentOpts,
) -> freedom::Result<(Vec<FunctionPlan>, IdleCapacityPlanner)> {
    let planner = IdleCapacityPlanner::default();
    let space = SearchSpace::table1();
    let base_plans = par_map(opts, &FunctionKind::ALL, |&function| {
        let table = ground_truth_default(function, opts)?;
        let outcome = Autotuner::new(SurrogateKind::Gp)
            .with_bo_config(BoConfig {
                surrogate_refit_every: opts.surrogate_refit_every,
                ..BoConfig::default()
            })
            .tune_offline(
                function,
                &function.default_input(),
                Objective::ExecutionTime,
                opts.seed,
            )?;
        let plan = planner.plan(&outcome, &table, &space)?;
        Ok(FunctionPlan {
            function,
            best_config: outcome.recommended().ok_or_else(|| {
                freedom::FreedomError::InsufficientData(format!("no config for {function}"))
            })?,
            alternates: plan.placements,
            table,
        })
    })
    .into_iter()
    .collect::<freedom::Result<Vec<FunctionPlan>>>()?;
    Ok((base_plans, planner))
}

/// The sweep's fleet scale: hour-long, hundreds-of-functions traces at
/// full settings; the same code paths at a fraction of the scale under
/// `--fast`.
pub fn fleet_scale(opts: &ExperimentOpts) -> (f64, usize) {
    if opts.opt_repeats <= 2 {
        (120.0, 12)
    } else {
        (3600.0, 120)
    }
}

/// Runs the sweep: every trace source (four synthetic shapes plus the
/// Azure CSV fixture) × market tightness × admission policy, the cells
/// fanned out across `opts.effective_threads()` workers.
pub fn run(opts: &ExperimentOpts) -> freedom::Result<FleetSimResult> {
    // Build plans once per benchmark function; the six tuning runs are
    // independent and fan out. The planner also emits the headroom
    // admission policy the sweep pits against the greedy market.
    let (base_plans, planner) = tuned_base_plans(opts)?;
    let policies = [
        ("greedy", AdmissionPolicy::Greedy),
        ("headroom", planner.admission_policy()),
    ];

    let (duration_secs, n_functions) = fleet_scale(opts);
    let threads = opts.effective_threads();
    let cycle = |n: usize| -> Vec<FunctionPlan> {
        (0..n)
            .map(|i| base_plans[i % base_plans.len()].clone())
            .collect()
    };
    let sim = FleetSimulator::new(cycle(n_functions))?;

    let sources = trace_sources(duration_secs);
    let traces = sources
        .iter()
        .map(|(label, source)| {
            Ok((
                *label,
                source.generate_sharded(n_functions, duration_secs, opts.seed, threads)?,
            ))
        })
        .collect::<freedom::Result<Vec<_>>>()?;
    // The fifth source replays the checked-in Azure fixture through the
    // **streaming** CSV reader — rows in, events out, never the merged
    // view — the path full-size Azure trace files take. Its
    // per-(app, func) streams dictate their own fleet size, so it gets
    // its own simulator over the same cycled base plans.
    let azure_trace = StreamTrace::from_csv(AZURE_FIXTURE)?;
    let azure_sim = FleetSimulator::new(cycle(azure_trace.n_functions()))?;
    let n_sources = traces.len() + 1;

    // Each sweep cell replays its trace twice (baseline + idle-aware);
    // the cells are independent, so they fan out across workers.
    let tightness = market_tightness();
    let points: Vec<(usize, usize, usize)> = (0..n_sources)
        .flat_map(|s| {
            (0..tightness.len()).flat_map(move |t| (0..policies.len()).map(move |p| (s, t, p)))
        })
        .collect();
    let rows = par_map(opts, &points, |&(source_idx, tight_idx, policy_idx)| {
        let (policy_label, admission) = policies[policy_idx];
        let config = FleetConfig {
            market: market_config(&tightness[tight_idx], admission),
            ..FleetConfig::default()
        };
        // The synthetic sources replay materialized, the CSV source
        // through the streaming engine; both are bit-identical.
        let (source_label, functions, baseline, idle_aware) =
            if let Some((source_label, trace)) = traces.get(source_idx) {
                let replay = |strategy| sim.run(trace, strategy, &config);
                (
                    *source_label,
                    trace.n_functions(),
                    replay(PlacementStrategy::BestConfigOnly)?,
                    replay(PlacementStrategy::IdleAware)?,
                )
            } else {
                let replay = |strategy| azure_sim.run_stream(&azure_trace, strategy, &config);
                (
                    "azure",
                    azure_trace.n_functions(),
                    replay(PlacementStrategy::BestConfigOnly)?,
                    replay(PlacementStrategy::IdleAware)?,
                )
            };
        Ok(FleetRow {
            source: source_label,
            functions,
            tightness: tightness[tight_idx].label,
            policy: policy_label,
            baseline,
            idle_aware,
        })
    })
    .into_iter()
    .collect::<freedom::Result<Vec<_>>>()?;
    Ok(FleetSimResult {
        n_functions,
        duration_secs,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_cell_with_consistent_accounting() {
        let result = run(&ExperimentOpts::fast()).unwrap();
        // Four synthetic shapes plus the Azure CSV fixture.
        assert_eq!(result.rows.len(), 5 * 3 * 2);
        let azure_rows: Vec<_> = result.rows.iter().filter(|r| r.source == "azure").collect();
        assert_eq!(azure_rows.len(), 6, "azure sweeps every cell");
        for r in &azure_rows {
            // The fixture's six (app, func) streams and 113 invocations.
            assert_eq!(r.functions, 6);
            assert_eq!(r.baseline.invocations, 113);
        }
        for r in &result.rows {
            assert_eq!(r.baseline.invocations, r.idle_aware.invocations);
            assert!(r.baseline.invocations > 0, "{} trace is empty", r.source);
            // The admission ledger is total: every invocation is exactly
            // one of admitted / demoted / rejected.
            for report in [&r.baseline, &r.idle_aware] {
                assert_eq!(
                    report.spot_admitted + report.spot_demoted + report.rejected,
                    report.invocations,
                    "{}/{}/{}",
                    r.source,
                    r.tightness,
                    r.policy
                );
            }
            // The baseline never touches the market.
            assert_eq!(r.baseline.spot_admitted + r.baseline.spot_demoted, 0);
            // Latency guardrail holds in aggregate.
            assert!(
                r.idle_aware.mean_latency_inflation < 1.3,
                "{}: {}",
                r.source,
                r.idle_aware.mean_latency_inflation
            );
        }
        // In the loose steady market, spot placements save money: demand
        // pricing stays near the full discount and nothing is demoted.
        for r in result.rows.iter().filter(|r| r.tightness == "loose") {
            assert_eq!(r.idle_aware.spot_demoted, 0, "steady supply demotes");
            if r.idle_aware.spot_admitted > 0 {
                assert!(
                    r.cost_reduction() > 0.0,
                    "{}/{}: {}",
                    r.source,
                    r.policy,
                    r.cost_reduction()
                );
            }
        }
        // Tightness bites: the tight market admits no more than the
        // loose one under the same source and policy.
        for rows in result.rows.chunks(6) {
            let loose_greedy = &rows[0];
            let tight_greedy = &rows[4];
            assert_eq!(loose_greedy.tightness, "loose");
            assert_eq!(tight_greedy.tightness, "tight");
            assert_eq!(loose_greedy.source, tight_greedy.source);
            assert!(tight_greedy.idle_aware.spot_admitted <= loose_greedy.idle_aware.spot_admitted);
        }
        assert!(result.render().contains("shared spot market"));
    }

    #[test]
    fn synthetic_plans_cycle_the_benchmark_functions() {
        let plans = synthetic_plans(10, 3).unwrap();
        assert_eq!(plans.len(), 10);
        assert_eq!(plans[0].function, plans[6].function);
        assert!(plans
            .iter()
            .any(|p| p.alternates.iter().any(|a| a.accepted)));
    }
}
