//! Trace-driven fleet simulation over a shared spot market (extension of
//! §6.2).
//!
//! Figure 15 scores the planner's per-family decisions one function at a
//! time. A provider, though, operates a *fleet*: invocations arrive
//! concurrently, warm capacity is finite, **shared across every
//! function**, and fluctuates as the provider's own load moves. This
//! module closes that loop with a discrete-event simulation:
//!
//! - an arrival [`Trace`] over `N` functions (see [`TraceSource`] for the
//!   Poisson / bursty / diurnal / heavy-tail generators and the Azure CSV
//!   ingestion);
//! - a provider-wide [spot market](crate::market): per-family warm VM
//!   slots whose supply follows a seeded
//!   [`SupplyProcess`], an
//!   [`AdmissionPolicy`] gating spot requests on market utilization, and
//!   demand-dependent pricing
//!   ([`SpotPricing::demand_fraction`](freedom_pricing::SpotPricing::demand_fraction));
//! - two [`PlacementStrategy`]s: always-best-config (baseline, pure
//!   on-demand) and idle-aware (try θ-guardrailed alternate families on
//!   the shared market, fall back to on-demand);
//! - a [`FleetReport`] with provider cost, latency inflation, SLO
//!   violations, and the admission ledger (admitted / demoted /
//!   rejected).
//!
//! # One sequential engine
//!
//! The shared ledger couples every function, so the fleet does not
//! decompose per function: the replay is one sequential event loop over
//! the merged arrival stream, `simulate_epoch`, which simulates one
//! epoch of simulated time from a carried state. Two callers drive it:
//!
//! - [`run`](FleetSimulator::run) replays a materialized [`Trace`] as
//!   one epoch spanning the whole trace: the reference engine, and the
//!   pre-built replay the criterion rows time;
//! - every streaming entry point ([`run_stream`](FleetSimulator::run_stream),
//!   [`run_stream_resumable`](FleetSimulator::run_stream_resumable) and
//!   their variants) goes through one private function, `replay`, that
//!   chains the loop over fixed epochs of a lazy [`StreamTrace`], carries the
//!   canonical state across each boundary, and snapshots it so a killed
//!   replay resumes. The single pass is its one-epoch case. Peak memory
//!   is O(functions + in-flight placements), not O(total arrivals).
//!
//! Every attempt — arrival, retry or hedge — goes through one admission
//! pass. All entry points are bit-identical for every epoch size and
//! every kill point (guarded by `tests/determinism.rs` and
//! `tests/crash_resume.rs`). See `crates/core/README.md` for the
//! epoch-chaining contract.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use freedom_faas::PerfTable;
use freedom_linalg::stats;
use freedom_optimizer::SearchSpace;
use freedom_telemetry as tel;
use freedom_workloads::FunctionKind;

use crate::controller::{
    admission_ceiling, update_brownout, ControlSample, ControlScratch, ControlState, Controller,
    FunctionView, ObsAccum, Observation, MAX_TICKS,
};
pub use crate::faults::FaultPlan;
use crate::faults::TransientFault;
use crate::market::{
    family_index, Fnv64, InFlight, MarketConfig, SpotLedger, SupplySchedule, N_MARKET_FAMILIES,
    RUN_ABORT, RUN_HEDGE, RUN_NORMAL,
};
use crate::provider::PlannedPlacement;
use crate::retry::{PendingRetry, RetryBudget, KIND_HEDGE, KIND_RETRY};
use crate::snapshot::{ReplaySnapshot, Unwire, Wire, SNAPSHOT_VERSION};
use crate::trace::{event_nanos, MAX_EPOCHS};
use crate::wheel::TimerWheel;
use crate::{FreedomError, Result};

pub use crate::controller::{ControlConfig, ControllerConfig, PidConfig, RightSizerConfig};
pub use crate::market::{AdmissionPolicy, SupplyProcess, ZoneConfig};
pub use crate::retry::{BrownoutConfig, RetryPolicy};
pub use crate::snapshot::SNAPSHOT_VERSION as REPLAY_SNAPSHOT_VERSION;
pub use crate::stream::{EventStream, StreamCheckpoint, StreamTrace};
pub use crate::trace::{Trace, TraceEvent, TraceSource};
pub use freedom_telemetry::{NoopRecorder, Recorder, Telemetry};

/// How the provider places each invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Always run the tuned best configuration on the on-demand pool.
    BestConfigOnly,
    /// Request a spot placement on a θ-accepted alternate family from the
    /// shared market; fall back to the on-demand best configuration when
    /// admission is denied or nothing fits.
    IdleAware,
}

impl PlacementStrategy {
    /// Both strategies, baseline first.
    pub const ALL: [PlacementStrategy; 2] = [
        PlacementStrategy::BestConfigOnly,
        PlacementStrategy::IdleAware,
    ];
}

/// Everything the simulator needs to place one function.
#[derive(Debug, Clone)]
pub struct FunctionPlan {
    /// The function this plan serves.
    pub function: FunctionKind,
    /// The tuned best configuration (on-demand fallback).
    pub best_config: freedom_faas::ResourceConfig,
    /// Planner output: per-family predicted-best placements; only
    /// `accepted` ones are used, in the given order.
    pub alternates: Vec<PlannedPlacement>,
    /// Ground truth used to look up execution outcomes.
    pub table: PerfTable,
}

/// Fleet-simulation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// The shared spot market every function contends for.
    pub market: MarketConfig,
    /// SLO guardrail: an invocation whose latency inflation exceeds
    /// `1 + slo_theta` counts as a violation (paper: θ = 0.10).
    pub slo_theta: f64,
    /// The closed-loop control plane: tick cadence plus the feedback
    /// controller revising admission and placements during the replay.
    /// Defaults to [`ControllerConfig::Static`] — the open-loop engine.
    pub control: ControlConfig,
    /// Seeded fault injection: zone outages, supply-shock bursts, and
    /// dropped preemption-notice deliveries, all expanded into
    /// simulated-time events the supply schedule composes. Defaults to
    /// [`FaultPlan::NONE`] — nothing injected.
    pub faults: FaultPlan,
    /// How the platform absorbs the per-invocation transient faults a
    /// [`FaultPlan`] injects: backoff/attempt caps, per-family retry
    /// budgets, hedged re-issue of stragglers, and the brownout
    /// thresholds. Inert unless `faults` draws transient faults (or
    /// hedging is enabled).
    pub retry: RetryPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            market: MarketConfig::default(),
            slo_theta: 0.10,
            control: ControlConfig::default(),
            faults: FaultPlan::NONE,
            retry: RetryPolicy::DEFAULT,
        }
    }
}

/// Aggregate outcome of one simulated trace.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Strategy simulated.
    pub strategy: PlacementStrategy,
    /// Invocations served.
    pub invocations: usize,
    /// Total provider cost in USD (spot admissions at the
    /// demand-dependent discount, demotions re-billed at list price,
    /// everything else on-demand).
    pub total_cost_usd: f64,
    /// Mean latency inflation vs. each function's best configuration
    /// (1.0 = every invocation ran at best-config speed).
    pub mean_latency_inflation: f64,
    /// 95th-percentile latency inflation.
    pub p95_latency_inflation: f64,
    /// Invocations admitted to the spot market that ran there to
    /// completion undisturbed (never notified, migrated, or demoted).
    pub spot_admitted: usize,
    /// Spot placements that completed on a slot *under a preemption
    /// notice* — the notice's drain window saved them from the
    /// withdrawal. Billed like an undisturbed admission.
    pub drained: usize,
    /// Spot placements migrated to another zone when their slot was
    /// withdrawn (re-billed at
    /// [`ZoneConfig::migration_rebill`](crate::market::ZoneConfig) ×
    /// list price).
    pub migrated: usize,
    /// Spot placements force-demoted mid-flight when a supply drop
    /// withdrew their VM and no other zone could absorb them
    /// (live-migrated to on-demand, re-billed at list price).
    pub spot_demoted: usize,
    /// In-flight placements that received a preemption notice.
    /// Telemetry, not an outcome class: a notified placement still ends
    /// up drained, migrated, or demoted (or admitted, if the engine
    /// never reached its withdrawal).
    pub notified: usize,
    /// Invocations served on-demand: the baseline strategy, plans with
    /// no accepted alternates, admission-policy denials, and capacity
    /// misses. Every invocation is exactly one of admitted / drained /
    /// migrated / demoted / rejected.
    pub rejected: usize,
    /// Rejections where the admission controller denied the request
    /// outright (utilization above the policy ceiling).
    pub policy_rejections: usize,
    /// Rejections where the policy admitted but no warm slot fit the
    /// request.
    pub capacity_misses: usize,
    /// Retry activations: every time a pending retry reached its fire
    /// instant — or was dead-lettered at scheduling time (attempt cap,
    /// past-horizon backoff). Each activation lands in exactly one
    /// outcome class, extending the accounting partition to
    /// `invocations + retried` records.
    pub retried: usize,
    /// Hedged re-issues that beat their straggler to completion (the
    /// hedge defines the invocation's latency). Hedges are extra racing
    /// copies, not activations: they carry cost but no outcome class.
    pub hedge_wins: usize,
    /// Retry activations abandoned without re-execution: attempt cap or
    /// horizon reached, family retry budget dry, or shed by brownout.
    /// The invocation never completed.
    pub dead_lettered: usize,
    /// The subset of `dead_lettered` dropped by brownout mode (retry
    /// pressure shedding), telemetry for the degradation experiments.
    pub shed_retries: usize,
    /// Invocations whose latency inflation exceeded `1 + slo_theta`.
    pub slo_violations: usize,
    /// Label of the controller that ran the control loop.
    pub controller: &'static str,
    /// Per-tick control-plane telemetry, in tick order: what the
    /// controller observed and how it moved the admission ceiling and
    /// placement orders. Empty when the trace is shorter than one
    /// control cadence.
    pub control: Vec<ControlSample>,
}

impl FleetReport {
    /// Fraction of invocations that started on the spot market
    /// (admitted + drained + migrated + demoted).
    pub fn spot_share(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            (self.spot_admitted + self.drained + self.migrated + self.spot_demoted) as f64
                / self.invocations as f64
        }
    }
}

/// Outcome class of one invocation, recorded per arrival and finalized
/// at reduction: demotions and migrations overwrite the admission
/// record (class and cost), a drain annotates the class only — and only
/// while the record still reads `ADMITTED`, so a migrated placement that
/// later drains keeps its migration bill.
const CLASS_ON_DEMAND: u8 = 0;
const CLASS_CAPACITY_MISS: u8 = 1;
const CLASS_ADMITTED: u8 = 2;
const CLASS_DEMOTED: u8 = 3;
const CLASS_POLICY_REJECT: u8 = 4;
const CLASS_MIGRATED: u8 = 5;
const CLASS_DRAINED: u8 = 6;
/// A retry activation abandoned without re-execution (attempt cap,
/// past-horizon backoff, dry budget, or brownout shed). Only retry
/// records carry this class — a first attempt always lands in one of
/// the classes above.
const CLASS_DEAD_LETTERED: u8 = 7;
/// Number of classes a first attempt can land in (`0..=CLASS_DRAINED`).
const N_ARRIVAL_CLASSES: usize = CLASS_DEAD_LETTERED as usize;

/// [`RetryRecord`] flag bit: the activation was shed by brownout mode.
const RETRY_FLAG_SHED: u8 = 1;

/// An accepted alternate placement resolved to plain numbers, so the hot
/// loop does no table lookups or config math.
#[derive(Debug, Clone, Copy)]
struct ResolvedAlternate {
    /// Index of the alternate's family in the market.
    family: usize,
    milli_vcpus: u32,
    memory_mib: u32,
    duration_nanos: u64,
    /// Undiscounted list-price execution cost (demand pricing and
    /// demotion re-billing both start from this).
    list_cost_usd: f64,
    inflation: f64,
}

/// Where the admission pass sends one attempt.
#[derive(Debug, Clone, Copy)]
enum Admission {
    /// On-demand, for the reason its outcome class names: no active
    /// alternate, a policy denial, or no slot fit.
    OnDemand(u8),
    /// Spot: alternate `ai` of the function's plan fits `slot`;
    /// `utilization` is what the policy gate saw, and prices the run.
    Spot {
        ai: usize,
        slot: u32,
        utilization: f64,
    },
}

/// Everything an epoch simulation reads: immutable for the whole replay.
struct ReplayCtx {
    /// Per-function list-price cost of the best configuration.
    best_costs: Vec<f64>,
    /// All accepted alternates across every function in one flat array:
    /// function `f` owns `alts[alt_offsets[f]..alt_offsets[f + 1]]`, in
    /// planner order. One contiguous table instead of a `Vec` per
    /// function keeps the 10k-function arrival path free of per-plan
    /// pointer chases.
    alts: Vec<ResolvedAlternate>,
    alt_offsets: Vec<u32>,
    /// Per-function encoded configurations and actual inflations — what
    /// the control plane's right-sizer learns from.
    views: Vec<FunctionView>,
    schedule: SupplySchedule,
    market: MarketConfig,
    /// The control loop: immutable controller configuration (state lives
    /// in the carry), tick cadence in integer nanoseconds, and the trace
    /// horizon ticks are capped at — like supply steps, no tick fires
    /// after the last arrival, so the single pass (which never advances
    /// past it) and the epoch chain (whose last epoch does) agree on the
    /// tick sequence.
    controller: Box<dyn Controller>,
    controller_label: &'static str,
    cadence_nanos: u64,
    horizon_nanos: u64,
    /// Flattened-counter offsets of the per-(function, placement)
    /// observation accumulator: function `f` owns
    /// `obs_offsets[f]..obs_offsets[f + 1]`, one slot per accepted
    /// alternate plus a trailing on-demand slot.
    obs_offsets: Vec<u32>,
    /// The fault plan, kept past schedule generation for the
    /// per-invocation transient draws ([`FaultPlan::fault_for`]).
    faults: FaultPlan,
    /// The retry policy in force.
    retry: RetryPolicy,
    /// Whether any transient-fault probability is non-zero — hoisted so
    /// the no-fault arrival path skips the draw entirely and stays
    /// byte-identical to the pre-retry engine.
    transient_active: bool,
    /// Per-function best-config execution time in nanoseconds — the
    /// denominator of every end-to-end (queueing-inclusive) inflation a
    /// retry chain records.
    best_duration_nanos: Vec<u64>,
    /// `retry.hedge_delay_secs` in integer nanoseconds (0 = disabled).
    hedge_delay_nanos: u64,
}

/// One retry activation's outcome, recorded at the instant the
/// activation resolved (fire or immediate dead-letter). Retry records
/// extend the per-invocation accounting: every activation lands in
/// exactly one outcome class, and its inflation — always end-to-end,
/// `(completion − arrival) / best_duration` — overrides the
/// invocation's earlier (placeholder) inflation at reduction, last
/// record wins.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetryRecord {
    /// Global arrival index of the invocation retried.
    idx: u32,
    /// 1-based attempt number the activation started (>= 2).
    attempt: u8,
    /// Outcome class (same encoding as per-invocation classes, plus
    /// [`CLASS_DEAD_LETTERED`]). Supply steps may re-bill it through an
    /// adjustment keyed by `(idx, attempt)`, like a first attempt.
    class: u8,
    /// [`RETRY_FLAG_SHED`] when brownout dropped the activation.
    flags: u8,
    /// What the activation billed (spot price when placed, on-demand
    /// fallback otherwise, 0 for dead letters).
    cost_usd: f64,
    /// End-to-end latency inflation as of this activation's resolution.
    inflation: f64,
}

/// One hedged re-issue: an extra copy racing a straggler. Hedges carry
/// cost (the race's loser still billed) but no outcome class — the
/// invocation's class stays with the straggling attempt — and a winning
/// hedge overrides the invocation's latency inflation at reduction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HedgeRecord {
    /// Global arrival index of the invocation hedged.
    idx: u32,
    /// Whether the hedge finishes before the straggler it races.
    won: bool,
    /// Spot cost of the hedged copy.
    cost_usd: f64,
    /// End-to-end inflation if the hedge defines the latency.
    inflation_if_won: f64,
}

/// The folded prefix of a metering: accumulators over every settled
/// invocation `0..next`. They continue the left-to-right sums, counts
/// and order statistics the final reduction takes, in the same arrival
/// order, so folding early changes no bit of the report. Fixed-size
/// apart from `runs`, which grows with the number of *distinct*
/// inflation values.
#[derive(Debug, Clone, Default)]
struct Settled {
    /// Invocations folded so far.
    next: u32,
    /// First-attempt cost, summed in arrival order.
    cost_usd: f64,
    /// Final latency inflation, summed in arrival order.
    inflation: f64,
    /// First-attempt outcome classes, counted by class code.
    classes: [u64; N_ARRIVAL_CLASSES],
    /// Final inflations above `1 + slo_theta`.
    slo_violations: u64,
    /// Final inflations as `(value, count)` runs, strictly ascending —
    /// the multiset the p95 is selected from.
    runs: Vec<(f64, u64)>,
}

impl Settled {
    /// Adds `batch` to the run list. The batch is sorted in place: the
    /// caller has already summed it in arrival order.
    fn merge_runs(&mut self, batch: &mut [f64]) {
        // Inflations are positive and finite (the fold asserts it), so
        // their raw bits, `<` and `==` all order them exactly as
        // `f64::total_cmp` does; an integer-keyed sort is about twice as
        // fast.
        batch.sort_unstable_by_key(|x| x.to_bits());
        let mut old = std::mem::take(&mut self.runs).into_iter().peekable();
        let mut merged = Vec::with_capacity(old.len() + 1);
        for run in batch.chunk_by(|a, b| a == b) {
            let (value, mut count) = (run[0], run.len() as u64);
            while let Some(below) = old.next_if(|&(v, _)| v < value) {
                merged.push(below);
            }
            if let Some((_, c)) = old.next_if(|&(v, _)| v == value) {
                count += c;
            }
            merged.push((value, count));
        }
        merged.extend(old);
        self.runs = merged;
    }
}

/// Per-arrival metering, in arrival order, plus outcome adjustments
/// keyed by global arrival index (a supply step may re-bill an
/// invocation admitted in an earlier epoch) and the control-plane
/// samples of the ticks processed. Per-invocation records — rather than
/// epoch-local accumulators — are what make the final reduction's
/// float-accumulation order independent of the epoch partition, and
/// therefore bit-identical between the single pass and the epoch chain.
///
/// The per-invocation arrays cover invocations `settled.next..` only:
/// [`EpochMetering::fold`] moves settled invocations into the
/// accumulators, which is what keeps the resumable replay's snapshots
/// sized by in-flight work rather than history.
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochMetering {
    settled: Settled,
    costs: Vec<f64>,
    inflations: Vec<f64>,
    classes: Vec<u8>,
    /// `(global index, attempt, new class, re-billed cost)` — recorded
    /// at the event that changed an outcome (a withdrawal step for
    /// migrations/demotions, a completion under notice for drains; the
    /// drain's cost field is ignored at reduction). Attempt 1 targets
    /// the per-invocation record, attempts >= 2 the matching
    /// [`RetryRecord`].
    adjustments: Vec<(u32, u8, u8, f64)>,
    /// Retry activations resolved so far, in resolution order.
    retries: Vec<RetryRecord>,
    /// Hedged re-issues placed so far, in placement order.
    hedges: Vec<HedgeRecord>,
    samples: Vec<ControlSample>,
    /// In-flight placements notified so far (telemetry sum).
    notified: u32,
}

impl EpochMetering {
    /// Serializes the metering into a crash-resume snapshot: the settled
    /// accumulators, the per-invocation records of the unsettled tail,
    /// then the outcome adjustments, retry and hedge records, and
    /// control samples not yet reduced, floats as bit patterns.
    pub(crate) fn save(&self, w: &mut Wire) {
        debug_assert_eq!(self.costs.len(), self.inflations.len());
        debug_assert_eq!(self.costs.len(), self.classes.len());
        let s = &self.settled;
        w.u32(s.next);
        w.f64(s.cost_usd);
        w.f64(s.inflation);
        for &count in &s.classes {
            w.u64(count);
        }
        w.u64(s.slo_violations);
        w.len(s.runs.len());
        for &(value, count) in &s.runs {
            w.f64(value);
            w.u64(count);
        }
        w.len(self.costs.len());
        for &c in &self.costs {
            w.f64(c);
        }
        for &i in &self.inflations {
            w.f64(i);
        }
        for &c in &self.classes {
            w.u8(c);
        }
        w.len(self.adjustments.len());
        for &(idx, attempt, class, cost) in &self.adjustments {
            w.u32(idx);
            w.u8(attempt);
            w.u8(class);
            w.f64(cost);
        }
        w.len(self.retries.len());
        for r in &self.retries {
            w.u32(r.idx);
            w.u8(r.attempt);
            w.u8(r.class);
            w.u8(r.flags);
            w.f64(r.cost_usd);
            w.f64(r.inflation);
        }
        w.len(self.hedges.len());
        for h in &self.hedges {
            w.u32(h.idx);
            w.u8(u8::from(h.won));
            w.f64(h.cost_usd);
            w.f64(h.inflation_if_won);
        }
        w.len(self.samples.len());
        for s in &self.samples {
            s.save(w);
        }
        w.u32(self.notified);
    }

    /// Restores metering serialized with [`EpochMetering::save`] at a
    /// boundary where `events_consumed` arrivals had been replayed and
    /// `carry` crossed. Every invariant the fold and the reduction index
    /// by is checked here, so a corrupt snapshot whose checksum still
    /// matches is a clean [`FreedomError::InvalidArgument`], never a
    /// panic later.
    pub(crate) fn load(r: &mut Unwire, events_consumed: u64, carry: &Carry) -> Result<Self> {
        let invalid = |what: &str| Err(FreedomError::InvalidArgument(format!("snapshot: {what}")));
        let is_inflation = |x: f64| x.is_finite() && x > 0.0;
        let next = r.u32()?;
        let cost_usd = r.f64()?;
        let inflation = r.f64()?;
        let mut settled_classes = [0u64; N_ARRIVAL_CLASSES];
        for count in &mut settled_classes {
            *count = r.u64()?;
        }
        let slo_violations = r.u64()?;
        let n_runs = r.len()?;
        let mut runs: Vec<(f64, u64)> = Vec::with_capacity(n_runs);
        for _ in 0..n_runs {
            let (value, count) = (r.f64()?, r.u64()?);
            if !is_inflation(value) || count == 0 {
                return invalid("inflation run with a non-positive value or a zero count");
            }
            if runs.last().is_some_and(|&(prev, _)| prev >= value) {
                return invalid("inflation runs are not strictly ascending");
            }
            runs.push((value, count));
        }
        let settled = u64::from(next);
        let class_total = settled_classes
            .iter()
            .try_fold(0u64, |acc, &count| acc.checked_add(count));
        if class_total != Some(settled) {
            return invalid("settled class counts do not sum to the settled invocations");
        }
        let run_total = runs
            .iter()
            .try_fold(0u64, |acc, &(_, count)| acc.checked_add(count));
        if run_total != Some(settled) || slo_violations > settled {
            return invalid("settled inflation counts do not match the settled invocations");
        }
        let n = r.len()?;
        if settled + n as u64 != events_consumed {
            return invalid("settled plus unsettled invocations differ from the events consumed");
        }
        let mut costs = Vec::with_capacity(n);
        for _ in 0..n {
            costs.push(r.f64()?);
        }
        let mut inflations = Vec::with_capacity(n);
        for _ in 0..n {
            let x = r.f64()?;
            if !is_inflation(x) {
                return invalid("non-positive or non-finite inflation");
            }
            inflations.push(x);
        }
        let mut classes = Vec::with_capacity(n);
        for _ in 0..n {
            let class = r.u8()?;
            if usize::from(class) >= N_ARRIVAL_CLASSES {
                return invalid("outcome class out of range");
            }
            classes.push(class);
        }
        let consumed = |idx: u32| u64::from(idx) < events_consumed;
        // The next fold's watermark is the least index in flight or
        // pending, so none of those may lie below `next`.
        let mut live = carry
            .inflight
            .iter()
            .map(|e| e.idx)
            .chain(carry.retries.iter().map(|p| p.idx));
        if live.any(|idx| idx < next || !consumed(idx)) {
            return invalid("in-flight or pending work targets a settled or unreplayed invocation");
        }
        let n_adj = r.len()?;
        let mut adjustments = Vec::with_capacity(n_adj);
        for _ in 0..n_adj {
            let (idx, attempt, class, cost) = (r.u32()?, r.u8()?, r.u8()?, r.f64()?);
            if usize::from(class) >= N_ARRIVAL_CLASSES {
                return invalid("adjustment class out of range");
            }
            if !consumed(idx) || (attempt <= 1 && idx < next) {
                return invalid("adjustment targets a settled or unreplayed invocation");
            }
            adjustments.push((idx, attempt, class, cost));
        }
        let n_retries = r.len()?;
        let mut retries = Vec::with_capacity(n_retries);
        for _ in 0..n_retries {
            let record = RetryRecord {
                idx: r.u32()?,
                attempt: r.u8()?,
                class: r.u8()?,
                flags: r.u8()?,
                cost_usd: r.f64()?,
                inflation: r.f64()?,
            };
            if record.class > CLASS_DEAD_LETTERED
                || !consumed(record.idx)
                || !is_inflation(record.inflation)
            {
                return invalid("malformed retry record");
            }
            retries.push(record);
        }
        let n_hedges = r.len()?;
        let mut hedges = Vec::with_capacity(n_hedges);
        for _ in 0..n_hedges {
            let record = HedgeRecord {
                idx: r.u32()?,
                won: r.bool()?,
                cost_usd: r.f64()?,
                inflation_if_won: r.f64()?,
            };
            if !consumed(record.idx) || !is_inflation(record.inflation_if_won) {
                return invalid("malformed hedge record");
            }
            hedges.push(record);
        }
        let n_samples = r.len()?;
        let mut samples = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            samples.push(ControlSample::load(r)?);
        }
        let notified = r.u32()?;
        Ok(Self {
            settled: Settled {
                next,
                cost_usd,
                inflation,
                classes: settled_classes,
                slo_violations,
                runs,
            },
            costs,
            inflations,
            classes,
            adjustments,
            retries,
            hedges,
            samples,
            notified,
        })
    }

    /// Appends `other` — the metering of the epoch that follows this
    /// one — to the unsettled tail. The concatenation is in global
    /// arrival order, so the chained metering reduces bit-identically
    /// to one epoch's over the whole trace. Records move into an empty
    /// tail instead of being copied, so the single pass hands its one
    /// epoch's per-event records over whole.
    fn append(&mut self, other: EpochMetering) {
        debug_assert!(other.settled.next == 0 && other.settled.runs.is_empty());
        // The fold's premise: nothing recorded after a fold targets an
        // invocation it settled.
        let next = self.settled.next;
        debug_assert!(
            other.adjustments.iter().all(|a| a.0 >= next)
                && other.retries.iter().all(|r| r.idx >= next)
                && other.hedges.iter().all(|h| h.idx >= next),
            "a record targets an invocation already folded as settled"
        );
        fn extend<T: Copy>(tail: &mut Vec<T>, more: Vec<T>) {
            if tail.is_empty() {
                *tail = more;
            } else {
                tail.extend_from_slice(&more);
            }
        }
        extend(&mut self.costs, other.costs);
        extend(&mut self.inflations, other.inflations);
        extend(&mut self.classes, other.classes);
        extend(&mut self.adjustments, other.adjustments);
        extend(&mut self.retries, other.retries);
        extend(&mut self.hedges, other.hedges);
        extend(&mut self.samples, other.samples);
        self.notified += other.notified;
    }

    /// Folds invocations `settled.next..watermark` into the settled
    /// accumulators and drops their records. The caller guarantees they
    /// are settled: no attempt of theirs is in flight and no retry or
    /// hedge of theirs is pending, so no later record can target them.
    /// Retry and hedge records, attempt ≥ 2 adjustments and control
    /// samples stay whole for [`reduce`].
    fn fold(&mut self, watermark: u32, slo_threshold: f64) {
        let lo = self.settled.next;
        let n = (watermark - lo) as usize;
        debug_assert!(n <= self.costs.len());
        if n == 0 {
            return;
        }
        let range = lo..watermark;
        let costs = &mut self.costs[..n];
        let inflations = &mut self.inflations[..n];
        let classes = &mut self.classes[..n];
        self.adjustments.retain(|&(idx, attempt, class, cost)| {
            if attempt > 1 || !range.contains(&idx) {
                return true;
            }
            let i = (idx - lo) as usize;
            if class == CLASS_DRAINED {
                // A drain annotates an undisturbed admission; a
                // migrated placement that later drains keeps its
                // migration record and bill.
                if classes[i] == CLASS_ADMITTED {
                    classes[i] = CLASS_DRAINED;
                }
            } else {
                costs[i] = cost;
                classes[i] = class;
            }
            false
        });
        // A retry chain's records override the invocation's inflation in
        // resolution order (the last activation is the one that defines
        // the end-to-end latency); a winning hedge overrides last of all
        // (the race resolves after the straggling chain terminated).
        for r in &self.retries {
            if range.contains(&r.idx) {
                inflations[(r.idx - lo) as usize] = r.inflation;
            }
        }
        for h in &self.hedges {
            if h.won && range.contains(&h.idx) {
                inflations[(h.idx - lo) as usize] = h.inflation_if_won;
            }
        }
        let s = &mut self.settled;
        for &c in costs.iter() {
            s.cost_usd += c;
        }
        for &x in inflations.iter() {
            debug_assert!(x.is_finite() && x > 0.0, "inflation {x}");
            s.inflation += x;
            s.slo_violations += u64::from(x > slo_threshold);
        }
        for &c in classes.iter() {
            s.classes[usize::from(c)] += 1;
        }
        debug_assert_eq!(
            s.classes.iter().sum::<u64>(),
            u64::from(watermark),
            "folded class counts must partition the folded invocations"
        );
        s.merge_runs(inflations);
        s.next = watermark;
        self.costs.drain(..n);
        self.inflations.drain(..n);
        self.classes.drain(..n);
    }
}

/// Everything that crosses an epoch boundary: the canonical
/// (queue-drain-ordered) in-flight ledger state, the pending retries and
/// budgets, the controller state, and the partial observation epoch —
/// see `crates/core/README.md`.
#[derive(Debug, Clone)]
pub(crate) struct Carry {
    inflight: Vec<InFlight>,
    /// Pending retry/hedge events firing in a later epoch, in
    /// [`PendingRetry::key`] order.
    retries: Vec<PendingRetry>,
    /// Per-family retry token buckets (balance + last refill instant).
    budget: RetryBudget,
    control: ControlState,
    accum: ObsAccum,
}

impl Carry {
    /// The exact state entering epoch 0: empty market, full retry
    /// budgets, the controller's initial state, a zeroed epoch.
    fn initial(ctx: &ReplayCtx) -> Self {
        Self {
            inflight: Vec::new(),
            retries: Vec::new(),
            budget: RetryBudget::new(&ctx.retry, N_MARKET_FAMILIES),
            control: ctx
                .controller
                .init(ctx.market.admission, ctx.best_costs.len()),
            accum: ObsAccum::zero(*ctx.obs_offsets.last().expect("offsets") as usize),
        }
    }

    /// Serializes the carried state into a crash-resume snapshot:
    /// in-flight entries field-for-field (costs as bit patterns), the
    /// pending retries and budget buckets, then the controller state
    /// and partial observation epoch.
    pub(crate) fn save(&self, w: &mut Wire) {
        w.len(self.inflight.len());
        for e in &self.inflight {
            w.u64(e.completion_nanos);
            w.u32(e.slot);
            w.u32(e.idx);
            w.u32(e.epoch);
            w.u32(e.milli);
            w.u32(e.mib);
            w.u32(e.meta);
            w.f64(e.list_cost_usd);
        }
        w.len(self.retries.len());
        for p in &self.retries {
            w.u64(p.at_nanos);
            w.u32(p.idx);
            w.u32(p.function);
            w.u8(p.attempt);
            w.u8(p.kind);
            w.u8(p.family);
            w.u64(p.arrival_nanos);
            w.u64(p.orig_completion_nanos);
        }
        w.len(self.budget.tokens.len());
        for &t in &self.budget.tokens {
            w.u64(t);
        }
        for &t in &self.budget.last_refill {
            w.u64(t);
        }
        self.control.save(w);
        self.accum.save(w);
    }

    /// Restores a carry serialized with [`Carry::save`], field for
    /// field.
    pub(crate) fn load(r: &mut Unwire) -> Result<Self> {
        let n = r.len()?;
        let mut inflight = Vec::with_capacity(n);
        for _ in 0..n {
            inflight.push(InFlight {
                completion_nanos: r.u64()?,
                slot: r.u32()?,
                idx: r.u32()?,
                epoch: r.u32()?,
                milli: r.u32()?,
                mib: r.u32()?,
                meta: r.u32()?,
                list_cost_usd: r.f64()?,
            });
        }
        let n_retries = r.len()?;
        let mut retries = Vec::with_capacity(n_retries);
        for _ in 0..n_retries {
            retries.push(PendingRetry {
                at_nanos: r.u64()?,
                idx: r.u32()?,
                function: r.u32()?,
                attempt: r.u8()?,
                kind: r.u8()?,
                family: r.u8()?,
                arrival_nanos: r.u64()?,
                orig_completion_nanos: r.u64()?,
            });
        }
        let n_families = r.len()?;
        let mut tokens = Vec::with_capacity(n_families);
        for _ in 0..n_families {
            tokens.push(r.u64()?);
        }
        let mut last_refill = Vec::with_capacity(n_families);
        for _ in 0..n_families {
            last_refill.push(r.u64()?);
        }
        Ok(Self {
            inflight,
            retries,
            budget: RetryBudget {
                tokens,
                last_refill,
            },
            control: ControlState::load(r)?,
            accum: ObsAccum::load(r)?,
        })
    }

    /// Checks a decoded carry against the replay it is resuming at
    /// `boundary`: every in-flight entry completes at or after the
    /// boundary on a slot the market has at that instant, with room for
    /// its reservation; every pending retry or hedge fires at or after
    /// the boundary, for an invocation that arrived before it, of a
    /// function and family of this fleet; and the budget, observation
    /// and controller state are sized for it. Decoding alone cannot
    /// know any of these, and each one would otherwise surface as an
    /// out-of-range index or a broken invariant mid-replay.
    fn check(&self, ctx: &ReplayCtx, boundary: u64) -> Result<()> {
        let invalid = |what: &str| Err(FreedomError::InvalidArgument(format!("snapshot: {what}")));
        let mut ledger = SpotLedger::new(&ctx.market, ctx.schedule.start_state(boundary).caps);
        for e in &self.inflight {
            if e.completion_nanos < boundary || !ledger.try_restore(e) {
                return invalid("in-flight work does not fit the market at the resume boundary");
            }
        }
        let n_functions = ctx.best_costs.len();
        for p in &self.retries {
            if p.at_nanos < boundary
                // The invocation arrived in an epoch already replayed.
                || p.arrival_nanos >= boundary
                || p.function as usize >= n_functions
                || usize::from(p.family) >= N_MARKET_FAMILIES
                || !matches!(p.kind, KIND_RETRY | KIND_HEDGE)
                || p.attempt > ctx.retry.max_attempts
            {
                return invalid("pending retry does not fit this fleet at the resume boundary");
            }
        }
        // The controller's logs and orders are shaped like its initial
        // state, and every alternate they name exists in the plan.
        let n_alts = |f: usize| (ctx.alt_offsets[f + 1] - ctx.alt_offsets[f]) as usize;
        let names_alts = |f: usize, alts: &[u8]| alts.iter().all(|&a| usize::from(a) < n_alts(f));
        let c = &self.control;
        let init = ctx.controller.init(ctx.market.admission, n_functions);
        let fits =
            c.observed.len() == init.observed.len()
                && c.observed_batches.len() == init.observed_batches.len()
                && c.orders.len() == init.orders.len()
                && c.observed.iter().zip(&c.observed_batches).enumerate().all(
                    |(f, (log, batches))| {
                        names_alts(f, log)
                            && batches.iter().map(|&b| usize::from(b)).sum::<usize>() == log.len()
                    },
                )
                && c.orders
                    .iter()
                    .enumerate()
                    .all(|(f, order)| order.as_deref().is_none_or(|o| names_alts(f, o)));
        if !fits
            || self.budget.tokens.len() != N_MARKET_FAMILIES
            || self.accum.per_function.len() != *ctx.obs_offsets.last().expect("offsets") as usize
        {
            return invalid("carried control state does not fit this fleet");
        }
        Ok(())
    }
}

/// An epoch's result: metering plus the carried state crossing into the
/// next epoch.
struct EpochOutcome {
    metering: EpochMetering,
    carry_out: Carry,
    /// Most in-flight placements the completion queue ever held.
    peak_inflight: usize,
}

/// Peak-memory telemetry of one streaming replay
/// ([`FleetSimulator::run_stream_with_stats`]): evidence that resident
/// state is bounded by in-flight placements plus what the trace cursors
/// hold, never by total arrivals.
#[derive(Debug, Clone, Copy)]
pub struct ReplayStats {
    /// Arrivals replayed (streamed through, never resident).
    pub events: usize,
    /// Peak size of the in-flight completion queue.
    pub peak_inflight: usize,
    /// Peak events the trace cursors held: one pending arrival per
    /// function (synthetic) or one per row of the largest minute of a
    /// CSV trace, which the reader expands a minute at a time.
    pub peak_cursor_resident: usize,
}

impl ReplayStats {
    /// Peak resident events: in-flight placements + cursor rows.
    pub fn peak_resident_events(&self) -> usize {
        self.peak_inflight + self.peak_cursor_resident
    }
}

/// The fleet simulator: a shared spot market plus elastic on-demand.
pub struct FleetSimulator {
    plans: Vec<FunctionPlan>,
}

impl FleetSimulator {
    /// Creates a simulator serving `plans[i]` for trace function index
    /// `i`.
    ///
    /// The pairing is **positional**: the simulator never inspects
    /// `FunctionPlan::function`, it drives `plans[i]` with the trace's
    /// stream `i`. Each invocation is metered against the plan that
    /// served it, so any ordering is self-consistent — but callers
    /// pairing a fleet with [`Trace::poisson`] (whose six streams are
    /// documented as `FunctionKind::ALL` order) should push plans in
    /// that same order, as the tests and experiments do.
    ///
    /// Returns [`FreedomError::InvalidArgument`] when `plans` is empty.
    pub fn new(plans: Vec<FunctionPlan>) -> Result<Self> {
        if plans.is_empty() {
            return Err(FreedomError::InvalidArgument(
                "fleet needs at least one function plan".into(),
            ));
        }
        Ok(Self { plans })
    }

    /// Replays a materialized trace under a strategy: one simulated
    /// epoch spanning the whole trace, like the streaming single pass.
    /// The engine pulls events through the same iterator interface as
    /// the streaming replay; here the iterator happens to walk a slice.
    pub fn run(
        &self,
        trace: &Trace,
        strategy: PlacementStrategy,
        config: &FleetConfig,
    ) -> Result<FleetReport> {
        let horizon = trace
            .events()
            .last()
            .map(|e| event_nanos(e.at_secs))
            .unwrap_or(0);
        let ctx = self.prepare(trace.n_functions(), horizon, strategy, config)?;
        let events = trace.events();
        let outcome = simulate_epoch(
            &ctx,
            events.iter().copied(),
            events.len(),
            0,
            &Carry::initial(&ctx),
            0,
            ONE_EPOCH,
            &mut NoopRecorder,
        );
        Ok(reduce(
            strategy,
            config.slo_theta,
            events.len(),
            outcome.metering,
            ctx.controller_label,
        ))
    }

    /// Replays a [`StreamTrace`], producing events lazily and consuming
    /// each exactly once: peak memory is O(functions + in-flight
    /// placements) instead of O(total arrivals). Bit-identical to
    /// [`FleetSimulator::run`] on the materialized equivalent
    /// ([`StreamTrace::materialize`]).
    pub fn run_stream(
        &self,
        trace: &StreamTrace,
        strategy: PlacementStrategy,
        config: &FleetConfig,
    ) -> Result<FleetReport> {
        Ok(self.run_stream_with_stats(trace, strategy, config)?.0)
    }

    /// [`FleetSimulator::run_stream`] plus the replay's peak-memory
    /// telemetry. The stats are measurement, not output: they stay out
    /// of the [`FleetReport`], which is bit-identical across entry
    /// points and epoch sizes.
    pub fn run_stream_with_stats(
        &self,
        trace: &StreamTrace,
        strategy: PlacementStrategy,
        config: &FleetConfig,
    ) -> Result<(FleetReport, ReplayStats)> {
        self.run_stream_traced(trace, strategy, config, &mut NoopRecorder)
    }

    /// [`FleetSimulator::run_stream_with_stats`] with a telemetry
    /// [`Recorder`] attached. Telemetry is strictly observational: the
    /// report is bit-identical to the untraced replay for every recorder
    /// (the determinism lattice pins this), and with [`NoopRecorder`]
    /// the instrumentation monomorphizes away entirely. The single pass
    /// is the epoch chain's one-epoch case.
    pub fn run_stream_traced<R: Recorder>(
        &self,
        trace: &StreamTrace,
        strategy: PlacementStrategy,
        config: &FleetConfig,
        rec: &mut R,
    ) -> Result<(FleetReport, ReplayStats)> {
        let no_snapshots = |_: &ReplaySnapshot, _: &mut R| Ok(true);
        let (report, stats) =
            self.replay(trace, strategy, config, ONE_EPOCH, None, rec, no_snapshots)?;
        let report = report.expect("one unbounded epoch never stops early");
        Ok((report, stats))
    }

    /// Crash-resumable streaming replay: chains exact-carry epochs of
    /// `snapshot_secs` sequentially and, at every epoch boundary, hands
    /// `on_snapshot` a versioned [`ReplaySnapshot`] — the stream
    /// checkpoint, the carried state, and the metering with every
    /// settled invocation folded into fixed-size accumulators, so a
    /// snapshot's size follows in-flight work rather than the events
    /// replayed so far. Feeding a persisted snapshot back as `resume`
    /// replays only the remaining epochs; the resulting report is
    /// **bit-identical** to [`FleetSimulator::run_stream`] (and the
    /// whole determinism lattice) for every epoch size, no matter where
    /// the run was killed.
    ///
    /// `on_snapshot` returns `Ok(true)` to continue or `Ok(false)` to
    /// stop (the simulated crash of the kill/resume tests); a stopped
    /// run yields `Ok(None)`. Snapshots are rejected with
    /// [`FreedomError::InvalidArgument`] when their fingerprint —
    /// strategy, config, fleet and trace shape, snapshot cadence — does
    /// not match this replay, so a stale file cannot silently resume a
    /// different simulation, and when their state does not fit this
    /// trace and fleet (see [`StreamTrace::open_at`]), so a corrupt
    /// file whose checksum still matches is an error, never a panic.
    pub fn run_stream_resumable(
        &self,
        trace: &StreamTrace,
        strategy: PlacementStrategy,
        config: &FleetConfig,
        snapshot_secs: f64,
        resume: Option<&ReplaySnapshot>,
        mut on_snapshot: impl FnMut(&ReplaySnapshot) -> Result<bool>,
    ) -> Result<Option<FleetReport>> {
        self.run_stream_resumable_traced(
            trace,
            strategy,
            config,
            snapshot_secs,
            resume,
            &mut NoopRecorder,
            |snap, _rec| on_snapshot(snap),
        )
    }

    /// [`FleetSimulator::run_stream_resumable`] with a telemetry
    /// [`Recorder`] attached. `on_snapshot` additionally receives the
    /// recorder at every epoch boundary, which is the natural hook for
    /// emitting per-epoch JSONL metric snapshots
    /// ([`freedom_telemetry::Telemetry::jsonl_snapshot`]). Strictly
    /// observational.
    #[allow(clippy::too_many_arguments)]
    pub fn run_stream_resumable_traced<R: Recorder>(
        &self,
        trace: &StreamTrace,
        strategy: PlacementStrategy,
        config: &FleetConfig,
        snapshot_secs: f64,
        resume: Option<&ReplaySnapshot>,
        rec: &mut R,
        on_snapshot: impl FnMut(&ReplaySnapshot, &mut R) -> Result<bool>,
    ) -> Result<Option<FleetReport>> {
        let epoch_nanos = validate_epoch(trace.horizon_nanos(), snapshot_secs)?;
        let (report, _) = self.replay(
            trace,
            strategy,
            config,
            epoch_nanos,
            resume,
            rec,
            on_snapshot,
        )?;
        Ok(report)
    }

    /// The epoch chain behind every streaming entry point:
    /// replays `trace` as a chain of exact-carry epochs
    /// `[k·epoch_nanos, (k+1)·epoch_nanos)`, from the start or from
    /// `resume`. At every interior boundary it folds the settled
    /// invocations out of the metering and hands `on_snapshot` the
    /// snapshot; `Ok(false)` stops the replay without a report. The
    /// single pass is the one-epoch case, [`ONE_EPOCH`]: one unbounded
    /// epoch, never closed early, with no boundary to snapshot at.
    #[allow(clippy::too_many_arguments)]
    fn replay<R: Recorder>(
        &self,
        trace: &StreamTrace,
        strategy: PlacementStrategy,
        config: &FleetConfig,
        epoch_nanos: u64,
        resume: Option<&ReplaySnapshot>,
        rec: &mut R,
        mut on_snapshot: impl FnMut(&ReplaySnapshot, &mut R) -> Result<bool>,
    ) -> Result<(Option<FleetReport>, ReplayStats)> {
        let horizon = trace.horizon_nanos();
        let ctx = self.prepare(trace.n_functions(), horizon, strategy, config)?;
        let fingerprint = replay_fingerprint(&ctx, strategy, config, trace.len(), epoch_nanos);
        let n = (horizon / epoch_nanos) as usize + 1;
        let (mut k, mut carry, mut stream, mut prefix, mut consumed) = match resume {
            Some(snap) => {
                if snap.fingerprint != fingerprint {
                    return Err(FreedomError::InvalidArgument(
                        "snapshot fingerprint does not match this replay \
                         (different strategy, config, trace, or snapshot cadence)"
                            .into(),
                    ));
                }
                if snap.epoch == 0 || snap.epoch as usize >= n {
                    return Err(FreedomError::InvalidArgument(format!(
                        "snapshot epoch {} is outside this replay's 1..{n} boundaries",
                        snap.epoch
                    )));
                }
                snap.carry.check(&ctx, snap.epoch * epoch_nanos)?;
                (
                    snap.epoch as usize,
                    snap.carry.clone(),
                    trace.open_at(&snap.checkpoint)?,
                    snap.metering.clone(),
                    snap.events_consumed,
                )
            }
            None => (
                0,
                Carry::initial(&ctx),
                trace.open()?,
                EpochMetering::default(),
                0,
            ),
        };
        let total = trace.len() as u64;
        // A single epoch meters every arrival of the trace.
        let presize = if n == 1 { trace.len() } else { 0 };
        let mut peak_inflight = 0;
        while k < n {
            let (start, end) = epoch_span(k, epoch_nanos);
            let mut count = 0u64;
            let mut stray = false;
            let outcome = {
                // Only a corrupt resume position can yield an event
                // before the epoch or past the trace's length; stop
                // there and fail below rather than replay it.
                let events = std::iter::from_fn(|| {
                    let at = event_nanos(stream.peek()?.at_secs);
                    if at >= end {
                        return None;
                    }
                    if at < start || consumed + count >= total {
                        stray = true;
                        return None;
                    }
                    count += 1;
                    stream.next()
                });
                simulate_epoch(
                    &ctx,
                    events,
                    presize,
                    consumed as u32,
                    &carry,
                    start,
                    end,
                    rec,
                )
            };
            if stray {
                return Err(FreedomError::InvalidArgument(format!(
                    "resumed trace stream strays outside epoch {k} or past its {total} events"
                )));
            }
            rec.add(tel::Counter::EpochsSimulated, 1);
            consumed += count;
            carry = outcome.carry_out;
            peak_inflight = peak_inflight.max(outcome.peak_inflight);
            prefix.append(outcome.metering);
            k += 1;
            if k < n {
                // Below the watermark no attempt is in flight and no
                // retry or hedge is pending, so nothing can touch those
                // invocations again: fold them out of the metering, and
                // the snapshot holds only the unsettled tail.
                let watermark = carry
                    .inflight
                    .iter()
                    .map(|e| e.idx)
                    .chain(carry.retries.iter().map(|p| p.idx))
                    .fold(consumed as u32, u32::min);
                prefix.fold(watermark, 1.0 + config.slo_theta);
                // Lend the running prefix to the snapshot rather than
                // cloning it: its control samples grow with the ticks.
                let snap = ReplaySnapshot {
                    version: SNAPSHOT_VERSION,
                    fingerprint,
                    epoch: k as u64,
                    epoch_nanos,
                    events_consumed: consumed,
                    checkpoint: stream.checkpoint(),
                    carry: carry.clone(),
                    metering: std::mem::take(&mut prefix),
                };
                let boundary = k as u64 * epoch_nanos;
                rec.span_sim(tel::Span::SnapshotEpoch, boundary, boundary, k as u64);
                rec.add(tel::Counter::SnapshotsWritten, 1);
                let snap_wall = rec.now_nanos();
                let keep_going = on_snapshot(&snap, rec)?;
                rec.span_wall(tel::Span::SnapshotEpoch, snap_wall, k as u64);
                prefix = snap.metering;
                if !keep_going {
                    break;
                }
            }
        }
        let stats = ReplayStats {
            events: consumed as usize,
            peak_inflight,
            peak_cursor_resident: stream.peak_resident(),
        };
        if k < n {
            return Ok((None, stats));
        }
        if consumed != total {
            return Err(FreedomError::InvalidArgument(format!(
                "resumed trace stream ended after {consumed} of its {total} events"
            )));
        }
        let report = reduce(
            strategy,
            config.slo_theta,
            trace.len(),
            prefix,
            ctx.controller_label,
        );
        Ok((Some(report), stats))
    }

    /// Validates inputs and resolves plans, supply schedule, and market
    /// settings into the immutable replay context. Takes the trace's
    /// shape — stream count and horizon (last arrival in nanoseconds) —
    /// rather than the trace itself, so materialized and streaming
    /// replays prepare identically.
    fn prepare(
        &self,
        n_functions: usize,
        horizon: u64,
        strategy: PlacementStrategy,
        config: &FleetConfig,
    ) -> Result<ReplayCtx> {
        if n_functions != self.plans.len() {
            return Err(FreedomError::InvalidArgument(format!(
                "trace has {} function streams but the fleet has {} plans",
                n_functions,
                self.plans.len()
            )));
        }
        if !config.slo_theta.is_finite() || config.slo_theta < 0.0 {
            return Err(FreedomError::InvalidArgument(format!(
                "SLO theta must be non-negative, got {}",
                config.slo_theta
            )));
        }
        config.control.validate()?;
        config.retry.validate()?;
        let cadence_nanos = ((config.control.cadence_secs * 1e9) as u64).max(1);
        if horizon / cadence_nanos >= MAX_TICKS {
            return Err(FreedomError::InvalidArgument(format!(
                "a {}s control cadence fires more than {MAX_TICKS} ticks over this trace",
                config.control.cadence_secs
            )));
        }
        let schedule = SupplySchedule::generate(&config.market, &config.faults, horizon)?;
        let mut best_costs = Vec::with_capacity(self.plans.len());
        let mut alts = Vec::new();
        let mut alt_offsets = Vec::with_capacity(self.plans.len() + 1);
        alt_offsets.push(0u32);
        let mut views = Vec::with_capacity(self.plans.len());
        let mut obs_offsets = Vec::with_capacity(self.plans.len() + 1);
        obs_offsets.push(0u32);
        let mut best_duration_nanos = Vec::with_capacity(self.plans.len());
        for plan in &self.plans {
            let best = plan.table.lookup(&plan.best_config).ok_or_else(|| {
                FreedomError::InsufficientData("best config missing in table".into())
            })?;
            let mut alt_encodings = Vec::new();
            let mut alt_inflations = Vec::new();
            if strategy == PlacementStrategy::IdleAware {
                for alt in plan.alternates.iter().filter(|a| a.accepted) {
                    let cfg = alt.config;
                    let point = plan.table.lookup(&cfg).ok_or_else(|| {
                        FreedomError::InsufficientData("alternate config missing in table".into())
                    })?;
                    let family = family_index(cfg.family()).ok_or_else(|| {
                        FreedomError::InvalidArgument(format!(
                            "family {} is not backed by market capacity",
                            cfg.family()
                        ))
                    })?;
                    let inflation = point.exec_time_secs / best.exec_time_secs;
                    alts.push(ResolvedAlternate {
                        family,
                        milli_vcpus: (cfg.cpu_share() * 1000.0).round() as u32,
                        memory_mib: cfg.memory_mib(),
                        duration_nanos: (point.exec_time_secs * 1e9) as u64,
                        list_cost_usd: point.exec_cost_usd,
                        inflation,
                    });
                    alt_encodings.push(SearchSpace::encode(&cfg));
                    alt_inflations.push(inflation);
                }
            }
            // One observation slot per accepted alternate plus the
            // trailing on-demand slot.
            let n_alts = alts.len() as u32 - alt_offsets.last().expect("non-empty");
            alt_offsets.push(alts.len() as u32);
            let next = obs_offsets.last().expect("non-empty") + n_alts + 1;
            obs_offsets.push(next);
            best_costs.push(best.exec_cost_usd);
            best_duration_nanos.push(((best.exec_time_secs * 1e9) as u64).max(1));
            views.push(FunctionView {
                best_encoding: SearchSpace::encode(&plan.best_config),
                alt_encodings,
                alt_inflations,
            });
        }
        let controller = config.control.controller.build();
        Ok(ReplayCtx {
            best_costs,
            alts,
            alt_offsets,
            views,
            schedule,
            market: config.market,
            controller_label: controller.name(),
            controller,
            cadence_nanos,
            horizon_nanos: horizon,
            obs_offsets,
            faults: config.faults,
            retry: config.retry,
            transient_active: config.faults.has_transient(),
            best_duration_nanos,
            hedge_delay_nanos: (config.retry.hedge_delay_secs * 1e9) as u64,
        })
    }
}

/// One epoch's live simulation state: the market ledger and completion
/// queue, the supply and tick cursors, the controller state it carries
/// forward, and the epoch accumulator feeding the next tick.
struct EpochSim<'a, R: Recorder> {
    ctx: &'a ReplayCtx,
    /// The replay's telemetry sink. Strictly observational — nothing in
    /// the simulation reads it back.
    rec: &'a mut R,
    /// Simulated instant of the previous arrival ([`u64::MAX`] before
    /// the first), feeding the arrival-gap histogram.
    prev_arrival: u64,
    ledger: SpotLedger,
    queue: TimerWheel,
    /// Most entries the completion queue ever held — the in-flight term
    /// of the replay's peak-memory bound ([`ReplayStats`]).
    peak_inflight: usize,
    supply_cursor: usize,
    /// Index of the next preemption notice to fire.
    notice_cursor: usize,
    /// Index of the next controller tick to fire (tick `k` fires at
    /// `k · cadence`, `k ≥ 1`, capped at the trace horizon).
    next_tick: u64,
    /// Instant of the next structural break — the earliest pending
    /// supply step, preemption notice, retry/hedge event, or controller
    /// tick (`u64::MAX` when all are exhausted). At fleet scale the
    /// event loop is
    /// dominated by arrivals that advance time *between* breaks;
    /// caching the minimum lets [`EpochSim::advance`] drain due
    /// completions on a three-instruction guard instead of re-deriving
    /// all three cursors per arrival. Every break-firing path
    /// recomputes it.
    next_break: u64,
    /// Pending retry and hedge events, ordered by
    /// [`PendingRetry::key`]. Scheduling always happens at admission
    /// time (an arrival or a firing retry), never at a completion pop —
    /// the single pass never pops completions after the last arrival
    /// while the epoch chain's last epoch does, so completion-time
    /// scheduling would diverge the two.
    retries: BinaryHeap<Reverse<PendingRetry>>,
    /// Per-family retry token buckets, charged at fire time.
    budget: RetryBudget,
    control: ControlState,
    accum: ObsAccum,
    scratch: ControlScratch,
    m: EpochMetering,
}

impl<R: Recorder> EpochSim<'_, R> {
    /// The next pending tick instant, if any remains before the horizon.
    fn next_tick_at(&self) -> Option<u64> {
        let at = self.next_tick.checked_mul(self.ctx.cadence_nanos)?;
        (at <= self.ctx.horizon_nanos).then_some(at)
    }

    /// Advances the market through every completion, supply step,
    /// preemption notice, and controller tick due at or before
    /// `to_nanos`, in time order. At one instant completions release
    /// capacity first (so a finishing invocation is never spuriously
    /// demoted by a simultaneous supply drop), then supply steps
    /// withdraw and resolve their displaced residents, then notices
    /// mark slots, then retries and hedges re-enter admission (seeing
    /// the capacity the same-instant completions just released), then
    /// the controller ticks — observing the epoch *including* anything
    /// a same-instant step or retry just caused.
    ///
    /// Ghost completions — entries whose slot was withdrawn since
    /// placement — pop silently: their fate (migrated or demoted) was
    /// already decided and metered at the withdrawal step.
    #[inline]
    fn advance(&mut self, to_nanos: u64) {
        if to_nanos < self.next_break {
            // Fast path: no supply step, notice, or tick falls in
            // `(now, to_nanos]`, so the only work is draining due
            // completions — and the completion-scan cap at the next
            // step is vacuous because `to_nanos` is already below it.
            while self.queue.next_due(to_nanos).is_some() {
                let e = self.queue.pop_due();
                self.complete(e);
            }
            return;
        }
        self.advance_through_breaks(to_nanos);
    }

    /// The general advance: interleaves completions with the structural
    /// breaks due at or before `to_nanos`, re-deriving the break
    /// cursors each iteration (firing a break can move them).
    #[cold]
    fn advance_through_breaks(&mut self, to_nanos: u64) {
        loop {
            let step_at = self
                .ctx
                .schedule
                .steps
                .get(self.supply_cursor)
                .map_or(u64::MAX, |s| s.at_nanos);
            let retry_at = self.retries.peek().map_or(u64::MAX, |r| r.0.at_nanos);
            // Cap the completion scan at the next unprocessed step or
            // pending retry: both push entries back into the queue, and
            // the wheel's cursor must not have advanced past the push
            // instant. Correctness is unaffected — any completion
            // beyond the break fires after it anyway.
            let completion = self
                .queue
                .next_due(to_nanos.min(step_at).min(retry_at))
                .unwrap_or(u64::MAX);
            let notice_at = self
                .ctx
                .schedule
                .notices
                .get(self.notice_cursor)
                .map_or(u64::MAX, |n| n.at_nanos);
            let tick_at = self.next_tick_at().unwrap_or(u64::MAX);
            // `u64::MAX` stands in for "exhausted": the same-instant
            // priority below (completion < step < notice < retry <
            // tick) is a chain of equality checks against the minimum,
            // so the sentinel never wins unless everything is spent.
            let now = completion
                .min(step_at)
                .min(notice_at)
                .min(retry_at)
                .min(tick_at);
            if now > to_nanos {
                break;
            }
            if completion == now {
                let e = self.queue.pop_due();
                self.complete(e);
            } else if step_at == now {
                self.supply_step();
            } else if notice_at == now {
                self.fire_notice();
            } else if retry_at == now {
                let Reverse(p) = self.retries.pop().expect("retry head exists");
                if p.kind == KIND_RETRY {
                    self.fire_retry(p);
                } else {
                    self.fire_hedge(p);
                }
            } else {
                self.fire_tick(now);
            }
        }
        self.next_break = self.compute_next_break();
    }

    /// Recomputes the cached next-break instant from the four break
    /// cursors.
    fn compute_next_break(&self) -> u64 {
        let step = self
            .ctx
            .schedule
            .steps
            .get(self.supply_cursor)
            .map_or(u64::MAX, |s| s.at_nanos);
        let notice = self
            .ctx
            .schedule
            .notices
            .get(self.notice_cursor)
            .map_or(u64::MAX, |n| n.at_nanos);
        let retry = self.retries.peek().map_or(u64::MAX, |r| r.0.at_nanos);
        step.min(notice)
            .min(retry)
            .min(self.next_tick_at().unwrap_or(u64::MAX))
    }

    /// Retires one popped completion: live entries release their market
    /// slot (noting a drain-window save when the slot was under
    /// notice); ghost entries — their slot withdrawn since placement —
    /// pop silently, their fate already decided and metered at the
    /// withdrawal step.
    #[inline]
    fn complete(&mut self, e: InFlight) {
        if self.ledger.is_live(&e) {
            self.rec.add(tel::Counter::Completions, 1);
            // A hedge pop just releases its slot: the invocation's
            // outcome class stays with the attempt it raced, and the
            // race was decided at placement. An abort pop is the fault
            // surfacing, not a successful run — no drain annotation
            // (the scheduled retry carries the invocation onward).
            if e.run_kind() == RUN_NORMAL && self.ledger.is_notified(e.slot) {
                // Completed under notice: the drain window saved it
                // from the announced withdrawal.
                self.rec.add(tel::Counter::Drained, 1);
                self.m
                    .adjustments
                    .push((e.idx, e.attempt(), CLASS_DRAINED, 0.0));
            }
            self.ledger.release(&e);
        } else {
            self.rec.add(tel::Counter::GhostCompletions, 1);
        }
    }

    /// Fires the supply step at `supply_cursor`: withdraws the dropped
    /// slots and resolves every displaced resident *at the step* —
    /// migrate to another zone when one fits (same family, re-billed at
    /// the migration fraction of list), force-demote otherwise.
    fn supply_step(&mut self) {
        let ctx = self.ctx;
        let step = &ctx.schedule.steps[self.supply_cursor];
        for e in self.ledger.withdraw(&step.caps) {
            // A withdrawn hedge drops silently: it was a speculative
            // extra copy, the invocation's outcome stays with the
            // attempt it raced, and its (already recorded) bill stands.
            if e.run_kind() == RUN_HEDGE {
                continue;
            }
            match self.ledger.migrate_target(e.slot, e.milli, e.mib) {
                Some(slot) => {
                    self.occupy(InFlight { slot, ..e });
                    self.accum.migrated += 1;
                    self.rec.add(tel::Counter::Migrated, 1);
                    self.m.adjustments.push((
                        e.idx,
                        e.attempt(),
                        CLASS_MIGRATED,
                        e.list_cost_usd * ctx.market.zones.migration_rebill,
                    ));
                }
                None => {
                    self.accum.spot_demoted += 1;
                    self.rec.add(tel::Counter::SpotDemoted, 1);
                    self.m
                        .adjustments
                        .push((e.idx, e.attempt(), CLASS_DEMOTED, e.list_cost_usd));
                }
            }
        }
        self.rec.add(tel::Counter::SupplySteps, 1);
        self.rec.span_sim(
            tel::Span::SupplyStep,
            step.at_nanos,
            step.at_nanos,
            self.supply_cursor as u64,
        );
        self.supply_cursor += 1;
    }

    /// Fires the preemption notice at `notice_cursor`: marks every slot
    /// the announced step will withdraw, so they stop admitting and
    /// their residents get a drain window.
    fn fire_notice(&mut self) {
        let ctx = self.ctx;
        let announced = ctx.schedule.notices[self.notice_cursor];
        let hit = self
            .ledger
            .mark_notified(&ctx.schedule.steps[announced.step as usize].caps);
        self.accum.notified += hit;
        self.m.notified += hit;
        self.rec.add(tel::Counter::NoticesFired, 1);
        self.rec.add(tel::Counter::Notified, u64::from(hit));
        self.rec.span_sim(
            tel::Span::Notice,
            announced.at_nanos,
            announced.at_nanos,
            u64::from(hit),
        );
        self.notice_cursor += 1;
    }

    /// Fires controller tick `self.next_tick`: hands the controller the
    /// closed epoch's observation, records the telemetry sample, and
    /// opens the next epoch.
    fn fire_tick(&mut self, at: u64) {
        let wall0 = if R::ENABLED { self.rec.now_nanos() } else { 0 };
        let utilization = self.ledger.utilization();
        let obs = Observation {
            tick: self.next_tick as u32,
            at_nanos: at,
            utilization,
            accum: &self.accum,
            offsets: &self.ctx.obs_offsets,
        };
        let replanned =
            self.ctx
                .controller
                .tick(&mut self.control, &mut self.scratch, &obs, &self.ctx.views);
        // Brownout is re-evaluated each tick from the closing epoch's
        // retry pressure, after the controller has seen the epoch (the
        // sample records the post-update mode).
        if let Some(b) = &self.ctx.retry.brownout {
            update_brownout(&mut self.control, &self.accum, b);
        }
        let tick_nanos = if R::ENABLED {
            self.rec.now_nanos().saturating_sub(wall0)
        } else {
            0
        };
        self.m.samples.push(ControlSample {
            at_secs: at as f64 / 1e9,
            utilization,
            ceiling: admission_ceiling(&self.control.admission),
            arrivals: self.accum.arrivals,
            spot_admitted: self.accum.spot_admitted,
            spot_demoted: self.accum.spot_demoted,
            migrated: self.accum.migrated,
            rejected: self.accum.policy_rejected + self.accum.capacity_missed,
            replanned,
            retried: self.accum.retried,
            brownout: self.control.brownout,
        });
        if R::ENABLED {
            self.rec.observe(tel::Hist::ControllerTickNanos, tick_nanos);
            self.rec.add(tel::Counter::ControllerTicks, 1);
            self.rec.add(tel::Counter::Replans, u64::from(replanned));
            self.rec.observe(
                tel::Hist::UtilizationPpm,
                (utilization.clamp(0.0, 1.0) * 1e6) as u64,
            );
            self.rec.span_sim(
                tel::Span::ControllerTick,
                at.saturating_sub(self.ctx.cadence_nanos),
                at,
                self.next_tick,
            );
        }
        self.accum.reset();
        self.next_tick += 1;
    }

    /// Places one arrival through the admission pass and meters its
    /// first attempt.
    fn arrival(&mut self, function: usize, idx: u32, at: u64) {
        // Telemetry on the hot path: counter and histogram updates are
        // array writes into preallocated storage; the only clock read
        // is the 1-in-64 sampled wall timing. `R::ENABLED` is a
        // monomorphization constant, so the noop build carries none of
        // this.
        if R::ENABLED {
            self.rec.add(tel::Counter::Arrivals, 1);
            self.rec
                .observe(tel::Hist::InflightDepth, self.queue.len() as u64);
            if self.prev_arrival != u64::MAX {
                self.rec
                    .observe(tel::Hist::ArrivalGapNanos, at - self.prev_arrival);
            }
            self.prev_arrival = at;
        }
        let t0 = if R::ENABLED && self.rec.should_sample() {
            self.rec.now_nanos()
        } else {
            0
        };
        self.accum.arrivals += 1;
        let admission = self.admit(function, true);
        let class = self.count(function, admission);
        let (cost, inflation) = match admission {
            Admission::Spot {
                ai,
                slot,
                utilization,
            } => {
                let (cost, rel_inflation, _) =
                    self.place_attempt(function, idx, at, at, 1, ai, slot, utilization);
                (cost, rel_inflation)
            }
            Admission::OnDemand(_) => (self.ctx.best_costs[function], 1.0),
        };
        if R::ENABLED && t0 != 0 {
            let dt = self.rec.now_nanos().saturating_sub(t0);
            self.rec.observe(tel::Hist::AdmissionNanos, dt);
        }
        self.m.costs.push(cost);
        self.m.inflations.push(inflation);
        self.m.classes.push(class);
    }

    /// The admission pass every attempt goes through — a fresh arrival,
    /// a firing retry, a firing hedge: no active alternate sends it
    /// on-demand; otherwise the admission policy in force gates the
    /// market, and the active alternates are tried in the controller's
    /// revised order (the planner's when there is none), best-fit within
    /// each family's available slots. Brownout's tighter ceiling applies
    /// to `fresh` arrivals only: retries are shed and hedges dropped
    /// before they get here.
    fn admit(&self, function: usize, fresh: bool) -> Admission {
        debug_assert!(
            fresh || !self.control.brownout,
            "retries and hedges never reach admission under brownout"
        );
        let ctx = self.ctx;
        let a0 = ctx.alt_offsets[function] as usize;
        let a1 = ctx.alt_offsets[function + 1] as usize;
        let alternates = &ctx.alts[a0..a1];
        let order = self.control.order_for(function);
        // A revised-empty order means the controller retired every
        // alternate: the function runs on-demand, like a plan that never
        // had accepted alternates.
        if alternates.is_empty() || order.is_some_and(|o| o.is_empty()) {
            return Admission::OnDemand(CLASS_ON_DEMAND);
        }
        let utilization = self.ledger.utilization();
        // Brownout tightens fresh-arrival admission: while the mode is
        // active, arrivals are additionally rejected whenever
        // utilization is at or above the brownout ceiling.
        let brownout_block = fresh
            && self.control.brownout
            && ctx
                .retry
                .brownout
                .is_some_and(|b| utilization >= b.utilization_ceiling);
        if !self.control.admission.admits(utilization) || brownout_block {
            return Admission::OnDemand(CLASS_POLICY_REJECT);
        }
        let fit = |ai: usize| {
            let alt = &alternates[ai];
            self.ledger
                .best_fit(alt.family, alt.milli_vcpus, alt.memory_mib)
                .map(|slot| (ai, slot))
        };
        let placed = match order {
            Some(order) => order.iter().find_map(|&ai| fit(ai as usize)),
            None => (0..alternates.len()).find_map(fit),
        };
        match placed {
            Some((ai, slot)) => Admission::Spot {
                ai,
                slot,
                utilization,
            },
            None => Admission::OnDemand(CLASS_CAPACITY_MISS),
        }
    }

    /// Counts one admitted activation — an arrival or a firing retry —
    /// in the control epoch (its class counter and the observation slot
    /// of the placement it got, the trailing on-demand slot unless
    /// placed) and in the recorder; returns its outcome class.
    fn count(&mut self, function: usize, admission: Admission) -> u8 {
        let (class, obs_slot) = match admission {
            Admission::Spot { ai, .. } => {
                self.accum.spot_admitted += 1;
                (CLASS_ADMITTED, self.ctx.obs_offsets[function] as usize + ai)
            }
            Admission::OnDemand(class) => {
                match class {
                    CLASS_POLICY_REJECT => self.accum.policy_rejected += 1,
                    CLASS_CAPACITY_MISS => self.accum.capacity_missed += 1,
                    _ => {}
                }
                (class, self.ctx.obs_offsets[function + 1] as usize - 1)
            }
        };
        self.accum.per_function[obs_slot] += 1;
        if R::ENABLED {
            self.rec.add(
                match class {
                    CLASS_ON_DEMAND => tel::Counter::OnDemand,
                    CLASS_POLICY_REJECT => tel::Counter::PolicyRejected,
                    CLASS_CAPACITY_MISS => tel::Counter::CapacityMissed,
                    _ => tel::Counter::SpotAdmitted,
                },
                1,
            );
        }
        class
    }

    /// Occupies the entry's slot, stamped with the slot's current epoch,
    /// and queues its completion.
    fn occupy(&mut self, entry: InFlight) {
        let entry = InFlight {
            epoch: self.ledger.epoch(entry.slot),
            ..entry
        };
        self.ledger.place(&entry);
        self.queue.push(entry);
        self.peak_inflight = self.peak_inflight.max(self.queue.len());
    }

    /// Executes one placed attempt: draws the attempt's transient fault,
    /// places the (possibly faulted) run on `slot`, and schedules the
    /// follow-up the fault calls for — all at admission time, never at a
    /// completion pop (the reference engine never pops completions after
    /// the last arrival, so completion-time scheduling would diverge the
    /// engines). Returns `(billed cost, relative inflation of the run,
    /// run end instant)`; a crash-on-start bills nothing, occupies no
    /// slot, and "ends" at `at`.
    #[allow(clippy::too_many_arguments)]
    fn place_attempt(
        &mut self,
        function: usize,
        idx: u32,
        at: u64,
        arrival_nanos: u64,
        attempt: u8,
        ai: usize,
        slot: u32,
        utilization: f64,
    ) -> (f64, f64, u64) {
        let ctx = self.ctx;
        let alt = &ctx.alts[ctx.alt_offsets[function] as usize + ai];
        let fault = if ctx.transient_active {
            ctx.faults.fault_for(function as u32, idx, attempt)
        } else {
            None
        };
        if R::ENABLED && fault.is_some() {
            self.rec.add(tel::Counter::TransientFaults, 1);
        }
        let family = alt.family as u8;
        if matches!(fault, Some(TransientFault::CrashOnStart)) {
            // Crashed before starting: no slot consumed, nothing
            // billed; the retry re-enters admission after backoff. The
            // relative inflation is a placeholder — the retry chain's
            // final record overrides it at reduction.
            self.schedule_or_deadletter(
                at,
                idx,
                function as u32,
                arrival_nanos,
                attempt + 1,
                family,
            );
            return (0.0, alt.inflation, at);
        }
        let (kind, duration, rel_inflation) = match fault {
            Some(TransientFault::MidFlightAbort { at_fraction }) => (
                RUN_ABORT,
                (((alt.duration_nanos as f64) * at_fraction) as u64).max(1),
                // Placeholder, overridden by the retry chain.
                alt.inflation,
            ),
            Some(TransientFault::Straggler { factor }) => (
                RUN_NORMAL,
                ((alt.duration_nanos as f64) * factor) as u64,
                alt.inflation * factor,
            ),
            _ => (RUN_NORMAL, alt.duration_nanos, alt.inflation),
        };
        self.occupy(InFlight {
            completion_nanos: at + duration,
            slot,
            idx,
            epoch: 0,
            milli: alt.milli_vcpus,
            mib: alt.memory_mib,
            meta: InFlight::meta_of(kind, attempt),
            list_cost_usd: alt.list_cost_usd,
        });
        if kind == RUN_ABORT {
            // The retry is scheduled now, to fire at the abort's
            // surfacing instant plus backoff. A later migration or
            // demotion of the aborting run does not cancel it: the
            // fault is a property of the attempt, not of the slot it
            // happens to occupy.
            self.schedule_or_deadletter(
                at + duration,
                idx,
                function as u32,
                arrival_nanos,
                attempt + 1,
                family,
            );
        } else if matches!(fault, Some(TransientFault::Straggler { .. })) {
            self.maybe_schedule_hedge(
                idx,
                function as u32,
                arrival_nanos,
                attempt,
                family,
                at,
                at + duration,
            );
        }
        let price = ctx.market.spot.demand_fraction(utilization);
        (alt.list_cost_usd * price, rel_inflation, at + duration)
    }

    /// Schedules attempt `next_attempt` of invocation `idx` to re-enter
    /// admission after backoff — or dead-letters it immediately when
    /// the attempt cap is spent or the backoff lands past the horizon
    /// (the reference engine never advances there, so a past-horizon
    /// retry must resolve *now* to keep the engines identical).
    fn schedule_or_deadletter(
        &mut self,
        base_nanos: u64,
        idx: u32,
        function: u32,
        arrival_nanos: u64,
        next_attempt: u8,
        family: u8,
    ) {
        let policy = &self.ctx.retry;
        let at = base_nanos.saturating_add(policy.backoff_nanos(idx, next_attempt));
        let retry = PendingRetry {
            at_nanos: at,
            idx,
            function,
            attempt: next_attempt,
            kind: KIND_RETRY,
            family,
            arrival_nanos,
            orig_completion_nanos: 0,
        };
        if next_attempt > policy.max_attempts || at > self.ctx.horizon_nanos {
            self.dead_letter(&retry, base_nanos, 0);
            return;
        }
        if R::ENABLED {
            self.rec
                .observe(tel::Hist::RetryBackoffNanos, at - base_nanos);
        }
        self.retries.push(Reverse(retry));
        self.next_break = self.next_break.min(at);
    }

    /// Schedules a hedged re-issue of a straggling attempt, if hedging
    /// is on and the hedge can still fire before both the straggler's
    /// completion and the horizon. A hedge that cannot race is dropped
    /// silently — hedges have no accounting presence until placed.
    #[allow(clippy::too_many_arguments)]
    fn maybe_schedule_hedge(
        &mut self,
        idx: u32,
        function: u32,
        arrival_nanos: u64,
        attempt: u8,
        family: u8,
        at: u64,
        straggle_completion: u64,
    ) {
        let delay = self.ctx.hedge_delay_nanos;
        if delay == 0 {
            return;
        }
        let t_h = at.saturating_add(delay);
        if t_h >= straggle_completion || t_h > self.ctx.horizon_nanos {
            return;
        }
        self.retries.push(Reverse(PendingRetry {
            at_nanos: t_h,
            idx,
            function,
            attempt,
            kind: KIND_HEDGE,
            family,
            arrival_nanos,
            orig_completion_nanos: straggle_completion,
        }));
        self.next_break = self.next_break.min(t_h);
    }

    /// Fires one pending retry: the activation re-enters admission as a
    /// first-class event. Brownout sheds it first (retries yield to
    /// fresh arrivals under overload), then the family budget is
    /// charged, then the activation runs the admission pass
    /// ([`EpochSim::admit`]) and draws a fresh fault, as an arrival
    /// does. Its outcome lands in one [`RetryRecord`]; terminal
    /// fallbacks record end-to-end inflation (queueing included)
    /// against the function's best-config time.
    fn fire_retry(&mut self, p: PendingRetry) {
        let now = p.at_nanos;
        if self.control.brownout {
            self.dead_letter(&p, now, RETRY_FLAG_SHED);
            return;
        }
        if !self
            .budget
            .try_spend(p.family as usize, now, &self.ctx.retry)
        {
            self.dead_letter(&p, now, 0);
            return;
        }
        let function = p.function as usize;
        let admission = self.admit(function, false);
        let class = self.count(function, admission);
        let (cost, end) = match admission {
            Admission::Spot {
                ai,
                slot,
                utilization,
            } => {
                let (cost, _, end) = self.place_attempt(
                    function,
                    p.idx,
                    now,
                    p.arrival_nanos,
                    p.attempt,
                    ai,
                    slot,
                    utilization,
                );
                (cost, end)
            }
            Admission::OnDemand(_) => (
                self.ctx.best_costs[function],
                now + self.ctx.best_duration_nanos[function],
            ),
        };
        let best_d = self.ctx.best_duration_nanos[function] as f64;
        self.push_retry_record(RetryRecord {
            idx: p.idx,
            attempt: p.attempt,
            class,
            flags: 0,
            cost_usd: cost,
            inflation: (end.saturating_sub(p.arrival_nanos)) as f64 / best_d,
        });
    }

    /// Fires one pending hedge: re-issues the straggling invocation's
    /// work as an extra racing copy. Hedges spend no retry budget,
    /// never fault, and have no outcome class — a placed hedge records
    /// its bill and whether it beats the straggler (decided at
    /// placement, since both completion instants are fixed there). A
    /// hedge runs the admission pass unless brownout is on; one it does
    /// not place on spot drops silently.
    fn fire_hedge(&mut self, p: PendingRetry) {
        if self.control.brownout {
            return;
        }
        let function = p.function as usize;
        let Admission::Spot {
            ai,
            slot,
            utilization,
        } = self.admit(function, false)
        else {
            return;
        };
        let ctx = self.ctx;
        let alt = &ctx.alts[ctx.alt_offsets[function] as usize + ai];
        let completion = p.at_nanos + alt.duration_nanos;
        self.occupy(InFlight {
            completion_nanos: completion,
            slot,
            idx: p.idx,
            epoch: 0,
            milli: alt.milli_vcpus,
            mib: alt.memory_mib,
            meta: InFlight::meta_of(RUN_HEDGE, p.attempt),
            list_cost_usd: alt.list_cost_usd,
        });
        let won = completion < p.orig_completion_nanos;
        if R::ENABLED && won {
            self.rec.add(tel::Counter::HedgeWins, 1);
        }
        let best_d = ctx.best_duration_nanos[function] as f64;
        self.m.hedges.push(HedgeRecord {
            idx: p.idx,
            won,
            cost_usd: alt.list_cost_usd * ctx.market.spot.demand_fraction(utilization),
            inflation_if_won: (completion.saturating_sub(p.arrival_nanos)) as f64 / best_d,
        });
    }

    /// Dead-letters retry activation `p` at `at`: no re-execution and no
    /// bill, with its end-to-end inflation so far (at least 1).
    fn dead_letter(&mut self, p: &PendingRetry, at: u64, flags: u8) {
        let best_d = self.ctx.best_duration_nanos[p.function as usize] as f64;
        self.push_retry_record(RetryRecord {
            idx: p.idx,
            attempt: p.attempt,
            class: CLASS_DEAD_LETTERED,
            flags,
            cost_usd: 0.0,
            inflation: ((at.saturating_sub(p.arrival_nanos)) as f64 / best_d).max(1.0),
        });
    }

    /// Appends one retry record — the single accounting slot of one
    /// retry activation. `accum.retried` (the brownout-pressure
    /// numerator) counts exactly these.
    fn push_retry_record(&mut self, r: RetryRecord) {
        self.accum.retried += 1;
        if R::ENABLED {
            self.rec.add(tel::Counter::Retried, 1);
            if r.class == CLASS_DEAD_LETTERED {
                self.rec.add(tel::Counter::DeadLettered, 1);
            }
            if r.flags & RETRY_FLAG_SHED != 0 {
                self.rec.add(tel::Counter::ShedRetries, 1);
            }
        }
        self.m.retries.push(r);
    }
}

/// Epoch length of the single pass: one epoch, unbounded, so it is
/// never closed early and has no boundary to snapshot at.
const ONE_EPOCH: u64 = u64::MAX;

/// Validates a resumable replay's epoch size; returns it in integer
/// nanoseconds.
fn validate_epoch(horizon_nanos: u64, epoch_secs: f64) -> Result<u64> {
    if !epoch_secs.is_finite() || epoch_secs <= 0.0 {
        return Err(FreedomError::InvalidArgument(format!(
            "epoch must be positive, got {epoch_secs}s"
        )));
    }
    let epoch_nanos = ((epoch_secs * 1e9) as u64).max(1);
    if horizon_nanos / epoch_nanos >= MAX_EPOCHS {
        return Err(FreedomError::InvalidArgument(format!(
            "{epoch_secs}s epochs split this trace into {} epochs (max {MAX_EPOCHS})",
            horizon_nanos / epoch_nanos + 1
        )));
    }
    Ok(epoch_nanos)
}

/// The simulated-time span `[k·e, (k+1)·e)` of epoch `k`.
fn epoch_span(k: usize, epoch_nanos: u64) -> (u64, u64) {
    (
        k as u64 * epoch_nanos,
        (k as u64 + 1).saturating_mul(epoch_nanos),
    )
}

/// Fingerprint of a resumable replay's identity: strategy and config
/// (via their `Debug` forms — both are plain data), the resolved fleet
/// shape, the trace shape, and the snapshot cadence. A
/// [`ReplaySnapshot`] carries it so a resume under any different setup
/// is rejected instead of silently producing a frankenstein report.
fn replay_fingerprint(
    ctx: &ReplayCtx,
    strategy: PlacementStrategy,
    config: &FleetConfig,
    trace_len: usize,
    epoch_nanos: u64,
) -> u64 {
    let mut h = Fnv64::new();
    for b in format!("{strategy:?}|{config:?}").bytes() {
        h.write(u64::from(b));
    }
    h.write(ctx.best_costs.len() as u64);
    for (f, cost) in ctx.best_costs.iter().enumerate() {
        h.write(cost.to_bits());
        h.write(u64::from(ctx.alt_offsets[f + 1] - ctx.alt_offsets[f]));
    }
    h.write(trace_len as u64);
    h.write(ctx.horizon_nanos);
    h.write(epoch_nanos);
    h.finish()
}

thread_local! {
    /// Per-thread epoch-close drain buffer. Every epoch drains its
    /// completion queue once at close; the buffer keeps its high-water
    /// capacity across epochs (like the wheel pool in
    /// [`crate::wheel`]), so a steady-state epoch close is
    /// allocation-free apart from the owned carry vector
    /// (`tests/alloc_steady_state.rs` pins this).
    static DRAIN_POOL: std::cell::RefCell<Vec<InFlight>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Simulates one epoch `[start_nanos, end_nanos)` of the merged event
/// stream against the shared market, starting from the carried state
/// (in-flight ledger, controller, partial observation epoch). Events
/// arrive through an iterator and are consumed exactly once — a
/// materialized slice and a lazy cursor merge replay identically.
/// `n_events` is the metering pre-size hint. The single pass is the
/// one-epoch call: all events, the initial carry, an unbounded epoch
/// (`end_nanos` = [`ONE_EPOCH`]).
#[allow(clippy::too_many_arguments)]
fn simulate_epoch<R: Recorder>(
    ctx: &ReplayCtx,
    events: impl Iterator<Item = TraceEvent>,
    n_events: usize,
    base_idx: u32,
    carry_in: &Carry,
    start_nanos: u64,
    end_nanos: u64,
    rec: &mut R,
) -> EpochOutcome {
    let epoch_wall = rec.now_nanos();
    let start = ctx.schedule.start_state(start_nanos);
    let mut ledger = SpotLedger::new(&ctx.market, start.caps);
    // A notice that fired before this epoch for a step still ahead:
    // re-mark its slots so the epoch starts under the same pending
    // notice the single pass would be carrying (the notified placements
    // were already counted when the notice fired).
    if let Some(next_caps) = start.notified_next {
        ledger.mark_notified(next_caps);
    }
    let mut queue = TimerWheel::acquire(start_nanos, end_nanos);
    for entry in &carry_in.inflight {
        let mut e = *entry;
        e.epoch = ledger.epoch(e.slot);
        ledger.restore(&e);
        queue.push(e);
    }
    let mut sim = EpochSim {
        ctx,
        rec,
        prev_arrival: u64::MAX,
        peak_inflight: queue.len(),
        ledger,
        queue,
        supply_cursor: start.cursor,
        notice_cursor: start.notice_cursor,
        // Ticks strictly before the epoch start already fired in a
        // predecessor; a tick exactly at the start belongs to this
        // epoch (its predecessor only advanced to `start − 1`).
        next_tick: start_nanos.div_ceil(ctx.cadence_nanos).max(1),
        next_break: 0,
        retries: carry_in.retries.iter().map(|&p| Reverse(p)).collect(),
        budget: carry_in.budget.clone(),
        control: carry_in.control.clone(),
        accum: carry_in.accum.clone(),
        scratch: ControlScratch::default(),
        m: EpochMetering {
            costs: Vec::with_capacity(n_events),
            inflations: Vec::with_capacity(n_events),
            classes: Vec::with_capacity(n_events),
            ..EpochMetering::default()
        },
    };
    sim.next_break = sim.compute_next_break();

    for (i, event) in events.enumerate() {
        let at = event_nanos(event.at_secs);
        sim.advance(at);
        sim.arrival(event.function, base_idx + i as u32, at);
    }

    // Close the epoch: completions, supply steps, and ticks strictly
    // before the boundary still belong to it (the single pass's
    // unbounded epoch skips this — no steps or ticks outlive the last
    // arrival).
    if end_nanos != ONE_EPOCH {
        sim.advance(end_nanos - 1);
    }

    // Drain: live entries become the canonical carry-over (ascending
    // key order). Ghost entries — their slot withdrawn since placement
    // — drop silently: their fate was resolved and metered at the
    // withdrawal step. The drain lands in a thread-pooled buffer that
    // keeps its capacity across epochs (the carry vector itself must be
    // owned — it travels in the outcome — but the typically much larger
    // ghost-laden drain does not).
    let inflight = DRAIN_POOL.with(|pool| {
        let mut remaining = pool.borrow_mut();
        remaining.clear();
        sim.queue.drain_into(&mut remaining);
        let mut inflight = Vec::with_capacity(remaining.len());
        for &e in remaining.iter() {
            if sim.ledger.is_live(&e) {
                let mut carried = e;
                carried.epoch = 0;
                inflight.push(carried);
            }
        }
        inflight
    });
    let sim_end = if end_nanos == ONE_EPOCH {
        ctx.horizon_nanos
    } else {
        end_nanos.min(ctx.horizon_nanos.max(start_nanos))
    };
    sim.rec
        .span_sim(tel::Span::Epoch, start_nanos, sim_end, u64::from(base_idx));
    sim.rec
        .span_wall(tel::Span::EpochSim, epoch_wall, u64::from(base_idx));
    // Pending retries outliving the epoch carry over in key order
    // (every entry fires at or after `end_nanos` — the close advanced
    // through `end_nanos − 1`).
    let mut pending: Vec<PendingRetry> = sim.retries.into_iter().map(|Reverse(p)| p).collect();
    pending.sort();
    EpochOutcome {
        metering: sim.m,
        carry_out: Carry {
            inflight,
            retries: pending,
            budget: sim.budget,
            control: sim.control,
            accum: sim.accum,
        },
        peak_inflight: sim.peak_inflight,
    }
}

/// Reduces the replay's metering into the fleet report: the whole
/// remainder is folded ([`EpochMetering::fold`]) — the same
/// arrival-order fold whether one epoch or a resumable run's
/// already-folded prefix produced the records, which is what makes the
/// epoch chain bit-identical to the single pass. Retry and hedge records
/// then finish the reduction: attempt ≥ 2 adjustments re-bill their
/// retry records, and their costs add after every first-attempt cost.
fn reduce(
    strategy: PlacementStrategy,
    slo_theta: f64,
    invocations: usize,
    mut m: EpochMetering,
    controller: &'static str,
) -> FleetReport {
    m.fold(invocations as u32, 1.0 + slo_theta);
    debug_assert!(m.costs.is_empty());
    let EpochMetering {
        settled: s,
        adjustments,
        mut retries,
        hedges,
        samples: control,
        notified,
        ..
    } = m;
    // Only attempt >= 2 adjustments survive the fold; each targets the
    // matching retry record (a later step may re-bill a retry placed
    // long before).
    let retry_pos: HashMap<(u32, u8), usize> = retries
        .iter()
        .enumerate()
        .map(|(i, r)| ((r.idx, r.attempt), i))
        .collect();
    for &(idx, attempt, class, cost) in &adjustments {
        if let Some(&at) = retry_pos.get(&(idx, attempt)) {
            let r = &mut retries[at];
            if class == CLASS_DRAINED {
                if r.class == CLASS_ADMITTED {
                    r.class = CLASS_DRAINED;
                }
            } else {
                r.cost_usd = cost;
                r.class = class;
            }
        }
    }
    let mut total_cost = s.cost_usd;
    for r in &retries {
        total_cost += r.cost_usd;
    }
    for h in &hedges {
        total_cost += h.cost_usd;
    }
    // Retry records extend the partition: every activation contributes
    // exactly one class, so the by-class sum is `invocations + retried`.
    let mut by_class = [0usize; CLASS_DEAD_LETTERED as usize + 1];
    for (total, &count) in by_class.iter_mut().zip(&s.classes) {
        *total = count as usize;
    }
    for r in &retries {
        by_class[r.class as usize] += 1;
    }
    let mean_latency_inflation = if invocations == 0 {
        1.0
    } else {
        s.inflation / invocations as f64
    };
    let p95_latency_inflation = stats::quantile_of_runs(&s.runs, 0.95).unwrap_or(1.0);
    FleetReport {
        strategy,
        invocations,
        total_cost_usd: total_cost,
        mean_latency_inflation,
        p95_latency_inflation,
        spot_admitted: by_class[CLASS_ADMITTED as usize],
        drained: by_class[CLASS_DRAINED as usize],
        migrated: by_class[CLASS_MIGRATED as usize],
        spot_demoted: by_class[CLASS_DEMOTED as usize],
        notified: notified as usize,
        rejected: by_class[CLASS_ON_DEMAND as usize]
            + by_class[CLASS_CAPACITY_MISS as usize]
            + by_class[CLASS_POLICY_REJECT as usize],
        retried: retries.len(),
        hedge_wins: hedges.iter().filter(|h| h.won).count(),
        dead_lettered: by_class[CLASS_DEAD_LETTERED as usize],
        shed_retries: retries
            .iter()
            .filter(|r| r.flags & RETRY_FLAG_SHED != 0)
            .count(),
        policy_rejections: by_class[CLASS_POLICY_REJECT as usize],
        capacity_misses: by_class[CLASS_CAPACITY_MISS as usize],
        slo_violations: s.slo_violations as usize,
        controller,
        control,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::IdleCapacityPlanner;
    use crate::Autotuner;
    use freedom_faas::collect_ground_truth;
    use freedom_optimizer::{Objective, SearchSpace};
    use freedom_surrogates::SurrogateKind;

    fn make_plans(seed: u64) -> Vec<FunctionPlan> {
        let planner = IdleCapacityPlanner::default();
        let space = SearchSpace::table1();
        FunctionKind::ALL
            .into_iter()
            .map(|function| {
                let input = function.default_input();
                let table =
                    collect_ground_truth(function, &input, space.configs(), 2, seed).unwrap();
                let outcome = Autotuner::new(SurrogateKind::Gp)
                    .tune_offline(function, &input, Objective::ExecutionTime, seed)
                    .unwrap();
                let plan = planner.plan(&outcome, &table, &space).unwrap();
                FunctionPlan {
                    function,
                    best_config: outcome.recommended().unwrap(),
                    alternates: plan.placements,
                    table,
                }
            })
            .collect()
    }

    /// The lazy and materialized views of one generated six-function
    /// trace.
    fn traces(source: TraceSource, duration_secs: f64, seed: u64) -> (StreamTrace, Trace) {
        let lazy =
            StreamTrace::generate(source, FunctionKind::ALL.len(), duration_secs, seed).unwrap();
        let full = lazy.materialize().unwrap();
        (lazy, full)
    }

    /// The resumable epoch chain at `epoch_secs` epochs, uninterrupted.
    fn chained(
        sim: &FleetSimulator,
        lazy: &StreamTrace,
        strategy: PlacementStrategy,
        config: &FleetConfig,
        epoch_secs: f64,
    ) -> FleetReport {
        sim.run_stream_resumable(lazy, strategy, config, epoch_secs, None, |_| Ok(true))
            .unwrap()
            .expect("an uninterrupted run returns a report")
    }

    fn accounting_is_total(report: &FleetReport) {
        // Every execution — first attempts plus retry activations —
        // lands in exactly one terminal class; hedges are excluded as
        // pure duplicates of an attempt already accounted for.
        assert_eq!(
            report.spot_admitted
                + report.drained
                + report.migrated
                + report.spot_demoted
                + report.rejected
                + report.dead_lettered,
            report.invocations + report.retried
        );
        assert!(report.policy_rejections + report.capacity_misses <= report.rejected);
        // Shed activations are retry records, so the shed count can
        // never exceed the retry count.
        assert!(report.shed_retries <= report.retried);
    }

    #[test]
    fn poisson_trace_shape() {
        let trace = Trace::poisson(100.0, 0.5, 7).unwrap();
        // ~0.5 rps × 6 functions × 100 s = ~300 arrivals.
        assert!((150..=450).contains(&trace.len()), "{}", trace.len());
        assert!(!trace.is_empty());
        assert_eq!(trace.n_functions(), FunctionKind::ALL.len());
        // Sorted by time, all within the window.
        for w in trace.events().windows(2) {
            assert!(w[0].at_secs <= w[1].at_secs);
        }
        assert!(trace.events().iter().all(|e| e.at_secs < 100.0));
        // Deterministic per seed.
        let again = Trace::poisson(100.0, 0.5, 7).unwrap();
        assert_eq!(trace.events(), again.events());
        assert!(Trace::poisson(-1.0, 0.5, 7).is_err());
        assert!(Trace::poisson(10.0, 0.0, 7).is_err());
    }

    #[test]
    fn idle_aware_strategy_cuts_cost_within_latency_budget() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let config = FleetConfig::default();
        let trace = Trace::poisson(120.0, 0.3, 5).unwrap();

        let baseline = sim
            .run(&trace, PlacementStrategy::BestConfigOnly, &config)
            .unwrap();
        let idle_aware = sim
            .run(&trace, PlacementStrategy::IdleAware, &config)
            .unwrap();

        assert_eq!(baseline.invocations, idle_aware.invocations);
        assert_eq!(baseline.spot_admitted, 0);
        assert_eq!(baseline.rejected, baseline.invocations);
        assert!((baseline.mean_latency_inflation - 1.0).abs() < 1e-12);
        accounting_is_total(&baseline);
        accounting_is_total(&idle_aware);

        // The idle-aware fleet serves a meaningful share from spot and
        // pays less overall: the default market is loose, so demand
        // pricing stays near the full discount.
        assert!(idle_aware.spot_share() > 0.2, "{}", idle_aware.spot_share());
        assert!(
            idle_aware.total_cost_usd < baseline.total_cost_usd,
            "{} vs {}",
            idle_aware.total_cost_usd,
            baseline.total_cost_usd
        );
        // Latency inflation stays near the θ=10% guardrail on average.
        assert!(
            idle_aware.mean_latency_inflation < 1.25,
            "{}",
            idle_aware.mean_latency_inflation
        );
    }

    #[test]
    fn contended_market_forces_on_demand_fallbacks() {
        let plans = make_plans(5);
        // A starved shared market under a hot trace must miss sometimes:
        // one VM per family for the whole fleet.
        let sim = FleetSimulator::new(plans).unwrap();
        let config = FleetConfig {
            market: MarketConfig {
                vms_per_family: 1,
                ..MarketConfig::default()
            },
            ..FleetConfig::default()
        };
        let trace = TraceSource::Poisson {
            rps_per_function: 8.0,
        }
        .generate(FunctionKind::ALL.len(), 60.0, 5)
        .unwrap();
        let report = sim
            .run(&trace, PlacementStrategy::IdleAware, &config)
            .unwrap();
        accounting_is_total(&report);
        assert!(report.spot_admitted > 0);
        assert!(report.capacity_misses > 0, "expected misses under pressure");
    }

    #[test]
    fn supply_drops_demote_and_rebill() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let volatile = FleetConfig {
            market: MarketConfig {
                vms_per_family: 2,
                supply: SupplyProcess {
                    step_secs: 2.0,
                    min_fraction: 0.0,
                    seed: 3,
                },
                ..MarketConfig::default()
            },
            ..FleetConfig::default()
        };
        let steady = FleetConfig::default();
        let trace = TraceSource::Poisson {
            rps_per_function: 4.0,
        }
        .generate(FunctionKind::ALL.len(), 60.0, 5)
        .unwrap();
        let volatile_report = sim
            .run(&trace, PlacementStrategy::IdleAware, &volatile)
            .unwrap();
        let steady_report = sim
            .run(&trace, PlacementStrategy::IdleAware, &steady)
            .unwrap();
        accounting_is_total(&volatile_report);
        assert!(
            volatile_report.spot_demoted > 0,
            "an all-or-nothing supply must reclaim in-flight work"
        );
        assert_eq!(steady_report.spot_demoted, 0, "steady supply never demotes");
        // Demotions re-bill at list price, so the volatile market saves
        // less per spot placement than the steady one.
        assert!(volatile_report.total_cost_usd > 0.0);
    }

    fn zoned_config(n_zones: usize, notice_secs: f64) -> FleetConfig {
        FleetConfig {
            market: MarketConfig {
                vms_per_family: 2,
                supply: SupplyProcess {
                    step_secs: 5.0,
                    min_fraction: 0.0,
                    seed: 3,
                },
                zones: ZoneConfig {
                    n_zones,
                    notice_secs,
                    shock: 0.5,
                    migration_rebill: 0.5,
                },
                ..MarketConfig::default()
            },
            ..FleetConfig::default()
        }
    }

    #[test]
    fn preemption_notices_migrate_and_drain_across_zones() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = TraceSource::Poisson {
            rps_per_function: 4.0,
        }
        .generate(FunctionKind::ALL.len(), 60.0, 5)
        .unwrap();
        let noticed = sim
            .run(&trace, PlacementStrategy::IdleAware, &zoned_config(3, 3.0))
            .unwrap();
        let abrupt = sim
            .run(&trace, PlacementStrategy::IdleAware, &zoned_config(3, 0.0))
            .unwrap();
        accounting_is_total(&noticed);
        accounting_is_total(&abrupt);
        // Volatile zones must announce their drops and save in-flight
        // work: drains complete under notice, migrations re-place the
        // rest in a surviving zone instead of force-demoting it.
        assert!(noticed.notified > 0, "{noticed:?}");
        assert!(noticed.drained > 0, "{noticed:?}");
        assert!(noticed.migrated > 0, "{noticed:?}");
        // Without a notice lead nothing ever drains, but cross-zone
        // failover still absorbs displacements at the step itself.
        assert_eq!(abrupt.notified, 0);
        assert_eq!(abrupt.drained, 0);
        assert!(abrupt.migrated > 0, "{abrupt:?}");
        // Single-zone markets have nowhere to fail over: the legacy
        // counters stay dark no matter how violent the supply is.
        let single = sim
            .run(&trace, PlacementStrategy::IdleAware, &zoned_config(1, 0.0))
            .unwrap();
        accounting_is_total(&single);
        assert_eq!(single.notified + single.drained + single.migrated, 0);
        // Migrations re-bill at a fraction of list while demotions pay
        // full list, so failover is never more expensive than the
        // single-zone market at equal scale — and the drain window can
        // only shrink the demoted count further.
        assert!(
            noticed.spot_demoted <= abrupt.spot_demoted,
            "{noticed:?} vs {abrupt:?}"
        );
    }

    #[test]
    fn fault_plans_perturb_the_market_reproducibly() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let (lazy, trace) = traces(
            TraceSource::Poisson {
                rps_per_function: 4.0,
            },
            60.0,
            5,
        );
        let calm = zoned_config(3, 3.0);
        let faulted = FleetConfig {
            faults: FaultPlan {
                seed: 17,
                outage_rate_per_hour: 120.0,
                mean_outage_secs: 15.0,
                notice_drop_fraction: 0.25,
                burst_rate_per_hour: 90.0,
                mean_burst_secs: 10.0,
                burst_severity: 0.6,
                ..FaultPlan::NONE
            },
            ..calm
        };
        let base = sim
            .run(&trace, PlacementStrategy::IdleAware, &calm)
            .unwrap();
        let hit = sim
            .run(&trace, PlacementStrategy::IdleAware, &faulted)
            .unwrap();
        accounting_is_total(&hit);
        // Outages and shock bursts must actually bite: the faulted
        // market reclaims or displaces more work than the calm one.
        assert!(
            hit.spot_demoted + hit.migrated + hit.drained
                > base.spot_demoted + base.migrated + base.drained,
            "{hit:?} vs {base:?}"
        );
        // The plan is a pure function of its seed: an identical rerun
        // reproduces the report bit for bit, a different seed does not.
        let again = sim
            .run(&trace, PlacementStrategy::IdleAware, &faulted)
            .unwrap();
        assert_eq!(format!("{hit:?}"), format!("{again:?}"));
        let reseeded = FleetConfig {
            faults: FaultPlan {
                seed: 18,
                ..faulted.faults
            },
            ..faulted
        };
        let other = sim
            .run(&trace, PlacementStrategy::IdleAware, &reseeded)
            .unwrap();
        assert_ne!(format!("{hit:?}"), format!("{other:?}"));
        // The determinism lattice holds with faults enabled: the epoch
        // chain over the faulted market stays bit-identical.
        for epoch_secs in [3.0, 17.0] {
            let epochs = chained(
                &sim,
                &lazy,
                PlacementStrategy::IdleAware,
                &faulted,
                epoch_secs,
            );
            assert_eq!(format!("{hit:?}"), format!("{epochs:?}"));
        }
    }

    #[test]
    fn epoch_boundary_tie_breaks_are_pinned() {
        // Pin the event order at one instant — completion < step <
        // notice < tick — by aligning every recurring instant on the
        // same lattice: supply steps every 5 s, notices 5 s ahead (so
        // each notice clamps onto the previous step), controller ticks
        // every 5 s, and epoch boundaries at 5 s and 2.5 s. Every step,
        // notice, and tick lands exactly ON an epoch boundary, so each
        // must be owned by exactly one epoch; any double-count or
        // ordering drift breaks bit-identity with the single pass.
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let config = FleetConfig {
            market: MarketConfig {
                vms_per_family: 2,
                supply: SupplyProcess {
                    step_secs: 5.0,
                    min_fraction: 0.0,
                    seed: 3,
                },
                zones: ZoneConfig {
                    n_zones: 2,
                    notice_secs: 5.0,
                    shock: 0.5,
                    migration_rebill: 0.5,
                },
                ..MarketConfig::default()
            },
            control: ControlConfig {
                cadence_secs: 5.0,
                controller: ControllerConfig::HeadroomPid(PidConfig::default()),
            },
            ..FleetConfig::default()
        };
        let (lazy, trace) = traces(
            TraceSource::Poisson {
                rps_per_function: 4.0,
            },
            60.0,
            5,
        );
        let reference = sim
            .run(&trace, PlacementStrategy::IdleAware, &config)
            .unwrap();
        accounting_is_total(&reference);
        assert!(reference.notified > 0, "{reference:?}");
        for epoch_secs in [2.5, 5.0] {
            let epochs = chained(
                &sim,
                &lazy,
                PlacementStrategy::IdleAware,
                &config,
                epoch_secs,
            );
            assert_eq!(
                format!("{reference:?}"),
                format!("{epochs:?}"),
                "epoch={epoch_secs}"
            );
        }
    }

    #[test]
    fn crash_resume_restores_the_replay_bit_identically() {
        use crate::snapshot::ReplaySnapshot;
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let config = FleetConfig {
            faults: FaultPlan {
                seed: 17,
                outage_rate_per_hour: 60.0,
                mean_outage_secs: 20.0,
                notice_drop_fraction: 0.25,
                burst_rate_per_hour: 45.0,
                mean_burst_secs: 10.0,
                burst_severity: 0.6,
                ..FaultPlan::NONE
            },
            control: ControlConfig {
                cadence_secs: 10.0,
                controller: ControllerConfig::HeadroomPid(PidConfig::default()),
            },
            ..zoned_config(3, 3.0)
        };
        let lazy = StreamTrace::generate(
            TraceSource::Bursty {
                calm_rps: 1.0,
                burst_rps: 8.0,
                mean_calm_secs: 20.0,
                mean_burst_secs: 10.0,
            },
            FunctionKind::ALL.len(),
            120.0,
            11,
        )
        .unwrap();
        let reference = sim
            .run_stream(&lazy, PlacementStrategy::IdleAware, &config)
            .unwrap();
        // A full pass with snapshots enabled is the plain sequential
        // chain: same report, and one snapshot per interior boundary.
        let mut snaps: Vec<ReplaySnapshot> = Vec::new();
        let full = sim
            .run_stream_resumable(
                &lazy,
                PlacementStrategy::IdleAware,
                &config,
                15.0,
                None,
                |s| {
                    snaps.push(s.clone());
                    Ok(true)
                },
            )
            .unwrap()
            .expect("an uninterrupted run returns a report");
        assert_eq!(format!("{reference:?}"), format!("{full:?}"));
        assert!(
            snaps.len() >= 4,
            "expected several epochs, got {}",
            snaps.len()
        );
        // Kill at every epoch: resuming from the serialized snapshot —
        // round-tripped through the wire format like a real restart —
        // reproduces the uninterrupted report bit for bit.
        for snap in &snaps {
            let kill_at = snap.epoch();
            let resumed_from = ReplaySnapshot::from_bytes(&snap.to_bytes()).unwrap();
            let crashed = sim
                .run_stream_resumable(
                    &lazy,
                    PlacementStrategy::IdleAware,
                    &config,
                    15.0,
                    None,
                    |s| Ok(s.epoch() < kill_at),
                )
                .unwrap();
            assert!(
                crashed.is_none(),
                "epoch {kill_at}: the kill must abort the run"
            );
            let resumed = sim
                .run_stream_resumable(
                    &lazy,
                    PlacementStrategy::IdleAware,
                    &config,
                    15.0,
                    Some(&resumed_from),
                    |_| Ok(true),
                )
                .unwrap()
                .expect("a resumed run finishes");
            assert_eq!(
                format!("{reference:?}"),
                format!("{resumed:?}"),
                "resume from epoch {kill_at} diverged"
            );
        }
        // A snapshot from a different replay is rejected, not replayed:
        // the fingerprint covers strategy, config, trace, and cadence.
        let other = FleetConfig {
            slo_theta: config.slo_theta + 0.01,
            ..config
        };
        let err = sim.run_stream_resumable(
            &lazy,
            PlacementStrategy::IdleAware,
            &other,
            15.0,
            Some(&snaps[0]),
            |_| Ok(true),
        );
        assert!(
            err.is_err(),
            "a reconfigured replay must reject the snapshot"
        );
        // And so is a snapshot taken at a different cadence.
        let err = sim.run_stream_resumable(
            &lazy,
            PlacementStrategy::IdleAware,
            &config,
            30.0,
            Some(&snaps[0]),
            |_| Ok(true),
        );
        assert!(
            err.is_err(),
            "a replay at another cadence must reject the snapshot"
        );
    }

    /// Snapshots fold settled invocations away, so apart from the
    /// per-tick control samples (report output) a snapshot's size follows
    /// in-flight work and distinct inflation values — not the events
    /// replayed, whose per-invocation records take 17 bytes each.
    #[test]
    fn snapshots_stay_sized_by_in_flight_work() {
        /// Allowed growth over epoch 1's snapshot, in bytes: room for
        /// the unsettled tail behind the oldest in-flight invocation
        /// (≈ 600 records of 17 B here) and for new inflation runs.
        const BOUND: usize = 16 << 10;
        let sim = FleetSimulator::new(make_plans(5)).unwrap();
        let config = FleetConfig {
            control: ControlConfig {
                cadence_secs: 5.0,
                controller: ControllerConfig::HeadroomPid(PidConfig::default()),
            },
            ..zoned_config(3, 3.0)
        };
        let lazy = StreamTrace::generate(
            TraceSource::Poisson {
                rps_per_function: 2.0,
            },
            FunctionKind::ALL.len(),
            1200.0,
            3,
        )
        .unwrap();
        let reference = sim
            .run_stream(&lazy, PlacementStrategy::IdleAware, &config)
            .unwrap();
        assert!(reference.drained + reference.migrated + reference.spot_demoted > 0);
        // (events consumed, snapshot bytes without the control samples)
        let mut sizes: Vec<(u64, usize)> = Vec::new();
        let full = sim
            .run_stream_resumable(
                &lazy,
                PlacementStrategy::IdleAware,
                &config,
                25.0,
                None,
                |s| {
                    let mut samples = Wire::new();
                    for sample in &s.metering.samples {
                        sample.save(&mut samples);
                    }
                    let bytes = s.to_bytes().len() - samples.into_bytes().len();
                    sizes.push((s.events_consumed(), bytes));
                    Ok(true)
                },
            )
            .unwrap()
            .expect("an uninterrupted run returns a report");
        assert_eq!(format!("{reference:?}"), format!("{full:?}"));
        assert!(sizes.len() >= 20, "want ≥ 20 epochs, got {}", sizes.len());
        let (first_events, first_bytes) = sizes[0];
        let (last_events, _) = *sizes.last().unwrap();
        assert!(
            17 * (last_events - first_events) as usize > 10 * BOUND,
            "the trace must be long enough that per-invocation records would overshoot the bound"
        );
        for &(events, bytes) in &sizes {
            assert!(
                bytes <= first_bytes + BOUND,
                "after {events} events the snapshot holds {bytes} B, \
                 epoch 1's held {first_bytes} B"
            );
        }
    }

    /// Every invariant the fold and the reduction index by is checked at
    /// decode: each field of a real mid-run snapshot, corrupted and
    /// re-sealed so the checksum still matches, is a clean error — as is
    /// every truncation and the previous format version.
    #[test]
    fn corrupt_v4_metering_is_rejected_at_decode() {
        use crate::snapshot::tests::sealed;
        let sim = FleetSimulator::new(make_plans(5)).unwrap();
        let lazy = StreamTrace::generate(
            TraceSource::Poisson {
                rps_per_function: 2.0,
            },
            FunctionKind::ALL.len(),
            300.0,
            3,
        )
        .unwrap();
        // The first boundary with settled runs, an unsettled tail, an
        // attempt-1 adjustment still aimed at the tail, and work in
        // flight.
        let mut found = None;
        sim.run_stream_resumable(
            &lazy,
            PlacementStrategy::IdleAware,
            &zoned_config(3, 3.0),
            25.0,
            None,
            |s| {
                let m = &s.metering;
                let ready = m.settled.next > 0
                    && m.settled.runs.len() >= 2
                    && !m.costs.is_empty()
                    && m.adjustments.iter().any(|a| a.1 <= 1)
                    && !s.carry.inflight.is_empty();
                if ready {
                    found = Some(s.clone());
                }
                Ok(!ready)
            },
        )
        .unwrap();
        let snap = found.expect("a boundary with runs, a tail, an adjustment and work in flight");
        let m = &snap.metering;
        let bytes = snap.to_bytes();
        let body = bytes[..bytes.len() - 8].to_vec();
        assert!(ReplaySnapshot::from_bytes(&sealed(body.clone())).is_ok());

        // Offsets, per `ReplaySnapshot::to_bytes`, `Carry::save` and
        // `EpochMetering::save`.
        const EVENTS_CONSUMED: usize = 32;
        let mut checkpoint = Wire::new();
        snap.checkpoint.save(&mut checkpoint);
        let first_inflight_idx = 40 + checkpoint.into_bytes().len() + 8 + 12;
        let mut section = Wire::new();
        m.save(&mut section);
        let at = body.len() - section.into_bytes().len();
        let class_count = |c: usize| at + 20 + 8 * c;
        let runs = class_count(N_ARRIVAL_CLASSES) + 16;
        let run_value = |i: usize| runs + 16 * i;
        let run_count = |i: usize| runs + 16 * i + 8;
        let tail = run_value(m.settled.runs.len()) + 8;
        let tail_class = tail + 16 * m.costs.len();
        let adjustments = tail_class + m.costs.len() + 8;
        let live = m.adjustments.iter().position(|a| a.1 <= 1).unwrap();
        let adjustment = adjustments + 14 * live;

        let get = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let put =
            |b: &mut Vec<u8>, at: usize, v: u64| b[at..at + 8].copy_from_slice(&v.to_le_bytes());
        let reject = |what: &str, patch: &dyn Fn(&mut Vec<u8>)| {
            let mut corrupt = body.clone();
            patch(&mut corrupt);
            let err = ReplaySnapshot::from_bytes(&sealed(corrupt)).expect_err(what);
            assert!(!format!("{err}").contains("checksum"), "{what}: {err}");
        };
        reject("runs out of order", &|b| {
            let first = get(b, run_value(0));
            put(b, run_value(1), first);
        });
        reject("zero run count", &|b| {
            let moved = get(b, run_count(0)) + get(b, run_count(1));
            put(b, run_count(0), 0);
            put(b, run_count(1), moved);
        });
        for bad in [f64::NAN, f64::NEG_INFINITY, -1.0, 0.0] {
            reject("non-positive or non-finite run", &|b| {
                put(b, run_value(0), bad.to_bits())
            });
        }
        reject("infinite run", &|b| {
            put(
                b,
                run_value(m.settled.runs.len() - 1),
                f64::INFINITY.to_bits(),
            )
        });
        reject("tail class out of range", &|b| {
            b[tail_class] = N_ARRIVAL_CLASSES as u8
        });
        reject("adjustment class out of range", &|b| {
            b[adjustment + 5] = 200
        });
        reject("tail length off the events consumed", &|b| {
            let consumed = get(b, EVENTS_CONSUMED);
            put(b, EVENTS_CONSUMED, consumed + 1);
        });
        reject("class counts off the settled invocations", &|b| {
            let count = get(b, class_count(0));
            put(b, class_count(0), count + 1);
        });
        for bad in [m.settled.next - 1, u32::MAX] {
            reject("in-flight work off the unsettled tail", &|b| {
                b[first_inflight_idx..first_inflight_idx + 4].copy_from_slice(&bad.to_le_bytes())
            });
        }
        reject("adjustment below the watermark", &|b| {
            b[adjustment..adjustment + 4].copy_from_slice(&(m.settled.next - 1).to_le_bytes())
        });
        for len in 0..body.len() {
            assert!(
                ReplaySnapshot::from_bytes(&sealed(body[..len].to_vec())).is_err(),
                "a body truncated to {len} bytes decoded"
            );
        }
        let mut v3 = body.clone();
        v3[4..8].copy_from_slice(&3u32.to_le_bytes());
        let err = ReplaySnapshot::from_bytes(&sealed(v3)).expect_err("a v3 file");
        assert!(format!("{err}").contains("version 3"), "{err}");
    }

    /// A snapshot whose checksum matches can still carry a state that
    /// does not fit the trace or fleet it resumes. Each case below
    /// corrupts one field of a real mid-run snapshot, re-seals it, and
    /// must make the resume return `Err` — never panic, and never
    /// allocate without bound.
    #[test]
    fn corrupt_snapshots_fail_the_resume_instead_of_panicking() {
        use crate::snapshot::tests::sealed;
        const EPOCH_SECS: f64 = 25.0;
        /// Snapshot header bytes before the stream checkpoint.
        const HEADER: usize = 40;
        let sim = FleetSimulator::new(make_plans(5)).unwrap();
        let config = FleetConfig {
            control: ControlConfig {
                cadence_secs: 10.0,
                controller: ControllerConfig::SurrogateRightSizer(RightSizerConfig::default()),
            },
            ..zoned_config(3, 3.0)
        };
        let mut rows = String::from("app,func,minute,count\n");
        // Minutes of 60 s against 25 s epochs, so the first boundaries
        // land mid-minute.
        for minute in 0..20 {
            for f in 0..FunctionKind::ALL.len() {
                rows.push_str(&format!("app,f{f},{minute},{}\n", 20 + 7 * f));
            }
        }
        let csv = StreamTrace::from_csv(&rows).unwrap();
        let generated = traces(
            TraceSource::Poisson {
                rps_per_function: 2.0,
            },
            300.0,
            3,
        )
        .0;
        // The first boundary with work in flight and, for CSV, inside a
        // minute (some of its events emitted); returned as the body
        // (checksum stripped) and the checkpoint section's length.
        let snapshot_of = |lazy: &StreamTrace| {
            let mut found = None;
            sim.run_stream_resumable(
                lazy,
                PlacementStrategy::IdleAware,
                &config,
                EPOCH_SECS,
                None,
                |s| {
                    let mut cp = Wire::new();
                    s.checkpoint.save(&mut cp);
                    let cp = cp.into_bytes();
                    let mid_minute = cp[0] == 0 || cp[9..17] != [0; 8];
                    let ready = mid_minute && !s.carry.inflight.is_empty();
                    if ready {
                        let bytes = s.to_bytes();
                        found = Some((bytes[..bytes.len() - 8].to_vec(), cp.len()));
                    }
                    Ok(!ready)
                },
            )
            .unwrap();
            found.expect("a boundary with work in flight")
        };
        let resume = |lazy: &StreamTrace, body: &[u8], patch: &dyn Fn(&mut Vec<u8>)| {
            let mut corrupt = body.to_vec();
            patch(&mut corrupt);
            let snap = ReplaySnapshot::from_bytes(&sealed(corrupt))?;
            sim.run_stream_resumable(
                lazy,
                PlacementStrategy::IdleAware,
                &config,
                EPOCH_SECS,
                Some(&snap),
                |_| Ok(true),
            )
        };
        let put = |b: &mut Vec<u8>, at: usize, v: &[u8]| b[at..at + v.len()].copy_from_slice(v);
        for (lazy, kind) in [(&csv, "csv"), (&generated, "generated")] {
            let (body, cp_len) = snapshot_of(lazy);
            let reference = sim
                .run_stream(lazy, PlacementStrategy::IdleAware, &config)
                .unwrap();
            let intact = resume(lazy, &body, &|_| {}).unwrap().unwrap();
            assert_eq!(format!("{reference:?}"), format!("{intact:?}"), "{kind}");
            let boundary = u64::from_le_bytes(body[16..24].try_into().unwrap())
                * u64::from_le_bytes(body[24..32].try_into().unwrap());
            let first_inflight = HEADER + cp_len + 8;
            let reject = |what: &str, patch: &dyn Fn(&mut Vec<u8>)| {
                assert!(
                    resume(lazy, &body, patch).is_err(),
                    "{kind}: {what} resumed"
                );
            };
            reject("carried completion before the boundary", &|b| {
                put(b, first_inflight, &(boundary - 1).to_le_bytes())
            });
            reject("placement order naming an unknown alternate", &|b| {
                let mut snap = ReplaySnapshot::from_bytes(&sealed(b.clone())).unwrap();
                let order = snap.carry.control.orders.iter_mut().flatten().next();
                order.expect("the right-sizer revised an order")[0] = u8::MAX;
                let bytes = snap.to_bytes();
                *b = bytes[..bytes.len() - 8].to_vec();
            });
            if kind == "csv" {
                // Checkpoint layout: tag, then the row cursor at the
                // start of the minute holding the next event and how
                // many of its events were emitted, both u64. The table
                // holds 20 minutes, each a run of 6 rows of 225 events.
                let (cursor, emitted) = (HEADER + 1, HEADER + 9);
                let at = u64::from_le_bytes(body[cursor..cursor + 8].try_into().unwrap());
                reject("row cursor past the table", &|b| {
                    put(b, cursor, &u64::MAX.to_le_bytes())
                });
                reject("row cursor inside a minute's run", &|b| {
                    put(b, cursor, &(at + 1).to_le_bytes())
                });
                reject(
                    "row cursor at the table's end before the events consumed",
                    &|b| {
                        put(b, cursor, &120u64.to_le_bytes());
                        put(b, emitted, &0u64.to_le_bytes());
                    },
                );
                reject("all of the minute's events emitted", &|b| {
                    put(b, emitted, &225u64.to_le_bytes())
                });
                reject("arrival before the boundary", &|b| {
                    put(b, emitted, &0u64.to_le_bytes())
                });
            } else {
                // Checkpoint layout: tag, cursor count u64, then per
                // cursor four RNG words, the clock and the horizon (66
                // bytes for a Poisson cursor), then one tagged pending
                // arrival per cursor.
                const CURSOR: usize = 66;
                let clock = HEADER + 9 + 32;
                reject("cursor clock set to 0xFF", &|b| b[clock + 7] = 0xFF);
                reject("cursor horizon set to 0xFF", &|b| b[clock + 15] = 0xFF);
                reject("cursor count off the fleet", &|b| {
                    let n = u64::from_le_bytes(b[HEADER + 1..HEADER + 9].try_into().unwrap());
                    let pending = HEADER + 9 + CURSOR * n as usize;
                    let (mut last, mut end) = (pending, pending);
                    for _ in 0..n {
                        last = end;
                        end += if b[end] == 1 { 9 } else { 1 };
                    }
                    b.drain(last..end);
                    b.drain(pending - CURSOR..pending);
                    put(b, HEADER + 1, &(n - 1).to_le_bytes());
                });
            }
        }
    }

    /// What the snapshot fuzz test resumes: a fleet, its replay
    /// configuration and snapshot cadence, and per trace — a gz
    /// multi-part CSV trace and a generated one — a real mid-run
    /// snapshot body (checksum stripped).
    struct FuzzFixture {
        sim: FleetSimulator,
        config: FleetConfig,
        epoch_secs: f64,
        cases: Vec<(StreamTrace, Vec<u8>)>,
    }

    fn fuzz_fixture() -> &'static FuzzFixture {
        static FIXTURE: std::sync::OnceLock<FuzzFixture> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let epoch_secs = 25.0;
            let sim = FleetSimulator::new(make_plans(5)).unwrap();
            let config = FleetConfig {
                control: ControlConfig {
                    cadence_secs: 10.0,
                    controller: ControllerConfig::SurrogateRightSizer(RightSizerConfig::default()),
                },
                retry: RetryPolicy {
                    max_attempts: 3,
                    hedge_delay_secs: 2.0,
                    ..RetryPolicy::DEFAULT
                },
                faults: FaultPlan {
                    seed: 7,
                    crash_prob: 0.05,
                    abort_prob: 0.05,
                    ..FaultPlan::NONE
                },
                ..zoned_config(3, 3.0)
            };
            // Three day-like parts, the middle one plain: minutes of 60 s
            // against 25 s epochs, so a boundary lands mid-member and
            // mid-minute.
            let parts: Vec<Vec<u8>> = (0..3u64)
                .map(|part| {
                    let mut csv = String::from("app,func,minute,count\n");
                    for minute in 7 * part..7 * (part + 1) {
                        for f in 0..FunctionKind::ALL.len() as u64 {
                            csv.push_str(&format!(
                                "app,f{f},{minute},{}\n",
                                (minute * 5 + f * 7) % 31
                            ));
                        }
                    }
                    if part == 1 {
                        csv.into_bytes()
                    } else {
                        flate::gzip_compress(csv.as_bytes(), flate::CompressMode::FixedHuffman)
                    }
                })
                .collect();
            let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
            let csv = StreamTrace::from_csv_parts(&refs).unwrap();
            let generated = traces(
                TraceSource::Poisson {
                    rps_per_function: 2.0,
                },
                300.0,
                3,
            )
            .0;
            let cases = [csv, generated]
                .into_iter()
                .map(|trace| {
                    let mut body = None;
                    sim.run_stream_resumable(
                        &trace,
                        PlacementStrategy::IdleAware,
                        &config,
                        epoch_secs,
                        None,
                        |s| {
                            // CSV checkpoint: tag, row cursor, then the
                            // emitted count of the cursor's minute.
                            let mut cp = Wire::new();
                            s.checkpoint.save(&mut cp);
                            let cp = cp.into_bytes();
                            let mid_minute = cp[0] == 0 || cp[9..17] != [0; 8];
                            let ready = mid_minute && !s.carry.inflight.is_empty();
                            if ready {
                                let bytes = s.to_bytes();
                                body = Some(bytes[..bytes.len() - 8].to_vec());
                            }
                            Ok(!ready)
                        },
                    )
                    .unwrap();
                    (trace, body.expect("a boundary with work in flight"))
                })
                .collect();
            FuzzFixture {
                sim,
                config,
                epoch_secs,
                cases,
            }
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Arbitrary snapshot bytes never panic a resume: a real mid-run
        /// snapshot has bytes flipped, overwritten or cut off anywhere,
        /// is re-sealed so the checksum passes, and resumes to the end.
        /// Every case is an error or a report whose accounting partition
        /// holds over exactly the trace's invocations.
        #[test]
        fn fuzzed_snapshots_resume_to_an_error_or_a_total_report(
            which in 0usize..2,
            edits in proptest::collection::vec((0usize..1 << 20, 0u8..8, 0u8..=255), 1..4),
        ) {
            use crate::snapshot::tests::sealed;
            let fx = fuzz_fixture();
            let (trace, body) = &fx.cases[which];
            let mut bytes = body.clone();
            for &(pos, op, value) in &edits {
                if bytes.is_empty() {
                    break;
                }
                let at = pos % bytes.len();
                match op {
                    0..=3 => bytes[at] ^= 1 << (value % 8),
                    4..=6 => bytes[at] = value,
                    _ => bytes.truncate(at),
                }
            }
            let resumed = ReplaySnapshot::from_bytes(&sealed(bytes)).and_then(|snap| {
                fx.sim.run_stream_resumable(
                    trace,
                    PlacementStrategy::IdleAware,
                    &fx.config,
                    fx.epoch_secs,
                    Some(&snap),
                    |_| Ok(true),
                )
            });
            match resumed {
                Err(_) => {}
                Ok(None) => panic!("an uninterrupted resume stopped early"),
                Ok(Some(report)) => {
                    proptest::prop_assert_eq!(report.invocations, trace.len());
                    accounting_is_total(&report);
                }
            }
        }
    }

    #[test]
    fn a_pending_retry_that_arrives_after_its_boundary_is_rejected() {
        // Its invocation was replayed before the boundary; an arrival at
        // or past it would resolve the retry at zero latency inflation.
        use crate::snapshot::tests::sealed;
        let fx = fuzz_fixture();
        let mut retried = 0;
        for (trace, body) in &fx.cases {
            let mut snap = ReplaySnapshot::from_bytes(&sealed(body.clone())).unwrap();
            let boundary = snap.epoch * snap.epoch_nanos;
            let Some(pending) = snap.carry.retries.first_mut() else {
                continue;
            };
            pending.arrival_nanos = boundary;
            retried += 1;
            let resumed = fx.sim.run_stream_resumable(
                trace,
                PlacementStrategy::IdleAware,
                &fx.config,
                fx.epoch_secs,
                Some(&snap),
                |_| Ok(true),
            );
            assert!(resumed.is_err(), "a retry arriving at the boundary resumed");
        }
        assert!(retried > 0, "no snapshot carried a pending retry");
    }

    #[test]
    fn admission_policy_gates_the_market() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = Trace::poisson(60.0, 1.0, 9).unwrap();
        // A zero-headroom policy rejects every request before it touches
        // the ledger.
        let closed = FleetConfig {
            market: MarketConfig {
                admission: AdmissionPolicy::Headroom {
                    max_utilization: 0.0,
                },
                ..MarketConfig::default()
            },
            ..FleetConfig::default()
        };
        let report = sim
            .run(&trace, PlacementStrategy::IdleAware, &closed)
            .unwrap();
        accounting_is_total(&report);
        assert_eq!(report.spot_admitted + report.spot_demoted, 0);
        assert_eq!(report.policy_rejections, report.invocations);
        // Greedy on the same trace admits plenty.
        let open = sim
            .run(
                &trace,
                PlacementStrategy::IdleAware,
                &FleetConfig::default(),
            )
            .unwrap();
        assert!(open.spot_admitted > 0);
        assert_eq!(open.policy_rejections, 0);
    }

    #[test]
    fn epoch_chain_is_bit_identical_to_the_single_pass() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        // A fluctuating, tightish market: demotions and admission
        // control cross epoch boundaries, not just idle gaps.
        let config = FleetConfig {
            market: MarketConfig {
                vms_per_family: 2,
                supply: SupplyProcess {
                    step_secs: 7.0,
                    min_fraction: 0.3,
                    seed: 11,
                },
                admission: AdmissionPolicy::Headroom {
                    max_utilization: 0.9,
                },
                ..MarketConfig::default()
            },
            ..FleetConfig::default()
        };
        let (lazy, trace) = traces(
            TraceSource::Bursty {
                calm_rps: 0.2,
                burst_rps: 3.0,
                mean_calm_secs: 30.0,
                mean_burst_secs: 6.0,
            },
            120.0,
            5,
        );
        for strategy in PlacementStrategy::ALL {
            let seq = sim.run(&trace, strategy, &config).unwrap();
            for epoch_secs in [1.0, 3.0, 17.0, 120.0] {
                let epochs = chained(&sim, &lazy, strategy, &config, epoch_secs);
                assert_eq!(
                    format!("{seq:?}"),
                    format!("{epochs:?}"),
                    "{strategy:?} diverged at {epoch_secs}s epochs"
                );
            }
        }
    }

    /// A scarce, volatile market under sustained traffic: the regime
    /// where demotions happen and feedback has something to do.
    fn volatile_config(controller: ControllerConfig) -> FleetConfig {
        FleetConfig {
            market: MarketConfig {
                vms_per_family: 2,
                supply: SupplyProcess {
                    step_secs: 20.0,
                    min_fraction: 0.0,
                    seed: 3,
                },
                ..MarketConfig::default()
            },
            control: ControlConfig {
                cadence_secs: 10.0,
                controller,
            },
            ..FleetConfig::default()
        }
    }

    #[test]
    fn static_controller_reproduces_the_open_loop_engine() {
        // The Static controller ticking at any cadence must not perturb
        // the metering: same costs, classes, and violations as the
        // pre-controller engine (cadence so long it never ticks).
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = Trace::poisson(120.0, 0.8, 7).unwrap();
        let never = FleetConfig {
            control: ControlConfig {
                cadence_secs: 1e6,
                controller: ControllerConfig::Static,
            },
            ..volatile_config(ControllerConfig::Static)
        };
        let ticking = volatile_config(ControllerConfig::Static);
        let a = sim
            .run(&trace, PlacementStrategy::IdleAware, &never)
            .unwrap();
        let b = sim
            .run(&trace, PlacementStrategy::IdleAware, &ticking)
            .unwrap();
        assert!(a.control.is_empty(), "1e6s cadence must never tick");
        assert!(!b.control.is_empty(), "10s cadence must tick");
        assert_eq!(a.total_cost_usd.to_bits(), b.total_cost_usd.to_bits());
        assert_eq!(a.spot_admitted, b.spot_admitted);
        assert_eq!(a.spot_demoted, b.spot_demoted);
        assert_eq!(a.slo_violations, b.slo_violations);
        assert_eq!(b.controller, "static");
        // Static telemetry still observes the market.
        assert!(b.control.iter().map(|s| s.arrivals as usize).sum::<usize>() <= b.invocations);
        assert!(b.control.iter().all(|s| s.ceiling == f64::INFINITY));
    }

    #[test]
    fn pid_controller_trades_spot_share_for_fewer_demotions() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = TraceSource::HeavyTail {
            mean_rps: 2.0,
            alpha: 1.5,
        }
        .generate(FunctionKind::ALL.len(), 300.0, 5)
        .unwrap();
        let open = sim
            .run(
                &trace,
                PlacementStrategy::IdleAware,
                &volatile_config(ControllerConfig::Static),
            )
            .unwrap();
        let closed = sim
            .run(
                &trace,
                PlacementStrategy::IdleAware,
                &volatile_config(ControllerConfig::HeadroomPid(PidConfig::default())),
            )
            .unwrap();
        assert_eq!(open.invocations, closed.invocations);
        accounting_is_total(&closed);
        assert!(open.spot_demoted > 0, "volatile market must demote");
        assert!(
            closed.spot_demoted < open.spot_demoted,
            "feedback must reduce demotions: {} vs {}",
            closed.spot_demoted,
            open.spot_demoted
        );
        assert!(
            closed.slo_violations <= open.slo_violations,
            "tightening must not add violations: {} vs {}",
            closed.slo_violations,
            open.slo_violations
        );
        // The loop actually moved the ceiling below the greedy cap.
        assert_eq!(closed.controller, "pid");
        assert!(closed.control.iter().any(|s| s.ceiling < 1.0));
        assert!(closed
            .control
            .iter()
            .all(|s| (PidConfig::default().min_ceiling..=1.0).contains(&s.ceiling)));
    }

    #[test]
    fn right_sizer_retires_guardrail_breaking_alternates() {
        // Force plans whose *first-tried* alternates actually break the
        // θ = 10% guardrail: every family stays accepted and the order
        // puts the slowest first — the worst case of an offline model
        // that mispredicted. The right-sizer must learn the actual
        // latencies and stop using the breakers, cutting violations.
        let mut plans = make_plans(5);
        for plan in &mut plans {
            for a in &mut plan.alternates {
                a.accepted = true;
            }
            plan.alternates
                .sort_by(|a, b| b.norm_exec_time.total_cmp(&a.norm_exec_time));
        }
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = Trace::poisson(240.0, 0.8, 11).unwrap();
        let steady = |controller| FleetConfig {
            control: ControlConfig {
                cadence_secs: 15.0,
                controller,
            },
            ..FleetConfig::default()
        };
        let open = sim
            .run(
                &trace,
                PlacementStrategy::IdleAware,
                &steady(ControllerConfig::Static),
            )
            .unwrap();
        let sized = sim
            .run(
                &trace,
                PlacementStrategy::IdleAware,
                &steady(ControllerConfig::SurrogateRightSizer(
                    RightSizerConfig::default(),
                )),
            )
            .unwrap();
        accounting_is_total(&sized);
        assert_eq!(sized.controller, "right_sizer");
        assert!(
            sized.control.iter().map(|s| s.replanned).sum::<u32>() > 0,
            "observations must trigger at least one replan"
        );
        assert!(
            open.slo_violations > 0,
            "forced-in breakers must violate under the open loop"
        );
        assert!(
            sized.slo_violations < open.slo_violations,
            "retiring observed breakers must cut violations: {} vs {}",
            sized.slo_violations,
            open.slo_violations
        );
    }

    #[test]
    fn every_controller_is_epoch_chain_bit_identical() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let (lazy, trace) = traces(
            TraceSource::Bursty {
                calm_rps: 0.3,
                burst_rps: 3.0,
                mean_calm_secs: 25.0,
                mean_burst_secs: 6.0,
            },
            180.0,
            9,
        );
        for controller in [
            ControllerConfig::Static,
            ControllerConfig::HeadroomPid(PidConfig::default()),
            ControllerConfig::SurrogateRightSizer(RightSizerConfig::default()),
        ] {
            let config = volatile_config(controller);
            let seq = sim
                .run(&trace, PlacementStrategy::IdleAware, &config)
                .unwrap();
            // 7 s epochs split every 10 s control epoch across
            // boundaries, so carried accumulators and controller state
            // really get exercised; 5 s epochs put every tick exactly on
            // a boundary.
            for epoch_secs in [5.0, 7.0, 45.0] {
                let epochs = chained(
                    &sim,
                    &lazy,
                    PlacementStrategy::IdleAware,
                    &config,
                    epoch_secs,
                );
                assert_eq!(
                    format!("{seq:?}"),
                    format!("{epochs:?}"),
                    "{controller:?} diverged at {epoch_secs}s epochs"
                );
            }
        }
    }

    #[test]
    fn streaming_replay_matches_materialized_with_bounded_residency() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let config = FleetConfig {
            market: MarketConfig {
                vms_per_family: 2,
                supply: SupplyProcess {
                    step_secs: 7.0,
                    min_fraction: 0.3,
                    seed: 11,
                },
                ..MarketConfig::default()
            },
            ..FleetConfig::default()
        };
        let source = TraceSource::HeavyTail {
            mean_rps: 1.2,
            alpha: 1.5,
        };
        let lazy = StreamTrace::generate(source, FunctionKind::ALL.len(), 180.0, 5).unwrap();
        let full = lazy.materialize().unwrap();
        for strategy in PlacementStrategy::ALL {
            let reference = sim.run(&full, strategy, &config).unwrap();
            let (streamed, stats) = sim.run_stream_with_stats(&lazy, strategy, &config).unwrap();
            assert_eq!(
                format!("{reference:?}"),
                format!("{streamed:?}"),
                "{strategy:?} diverged between materialized and streaming"
            );
            // Peak resident state is in-flight + one pending arrival per
            // cursor, far below total arrivals.
            assert_eq!(stats.events, full.len());
            assert_eq!(stats.peak_cursor_resident, FunctionKind::ALL.len());
            assert!(
                stats.peak_resident_events() < full.len() / 2,
                "peak {} should be far below {} arrivals",
                stats.peak_resident_events(),
                full.len()
            );
            for epoch_secs in [3.0, 45.0] {
                let epochs = chained(&sim, &lazy, strategy, &config, epoch_secs);
                assert_eq!(
                    format!("{reference:?}"),
                    format!("{epochs:?}"),
                    "{strategy:?} diverged at {epoch_secs}s epochs"
                );
            }
        }
        // Degenerate epochs are rejected: zero, and one so short the
        // trace would split into millions of epochs.
        for epoch_secs in [0.0, 1e-9] {
            assert!(sim
                .run_stream_resumable(
                    &lazy,
                    PlacementStrategy::IdleAware,
                    &config,
                    epoch_secs,
                    None,
                    |_| Ok(true)
                )
                .is_err());
        }
        // A mis-sized fleet is rejected identically.
        let small = StreamTrace::generate(source, 3, 30.0, 1).unwrap();
        assert!(sim
            .run_stream(&small, PlacementStrategy::IdleAware, &config)
            .is_err());
    }

    #[test]
    fn empty_fleet_and_invalid_inputs_are_rejected() {
        assert!(matches!(
            FleetSimulator::new(Vec::new()),
            Err(FreedomError::InvalidArgument(_))
        ));
        let plans = make_plans(1);
        let sim = FleetSimulator::new(plans).unwrap();
        // A 4-function trace cannot drive a 6-function fleet.
        let trace = TraceSource::Poisson {
            rps_per_function: 0.5,
        }
        .generate(4, 30.0, 1)
        .unwrap();
        assert!(matches!(
            sim.run(
                &trace,
                PlacementStrategy::IdleAware,
                &FleetConfig::default()
            ),
            Err(FreedomError::InvalidArgument(_))
        ));
        let (lazy, ok) = traces(
            TraceSource::Poisson {
                rps_per_function: 0.5,
            },
            10.0,
            1,
        );
        // A zero-event trace of the fleet's functions replays to the
        // same report through every entry point, and a snapshot of
        // another replay does not resume it.
        let csv: String = (0..6).map(|f| format!("app,f{f},0,0\n")).collect();
        let empty = StreamTrace::from_csv(&csv).unwrap();
        assert!(empty.is_empty() && empty.n_functions() == 6);
        let config = FleetConfig::default();
        let single = sim
            .run_stream(&empty, PlacementStrategy::IdleAware, &config)
            .unwrap();
        assert_eq!(single.invocations, 0);
        let materialized = sim
            .run(
                &empty.materialize().unwrap(),
                PlacementStrategy::IdleAware,
                &config,
            )
            .unwrap();
        assert_eq!(format!("{single:?}"), format!("{materialized:?}"));
        let resumable = |resume: Option<&ReplaySnapshot>| {
            sim.run_stream_resumable(
                &empty,
                PlacementStrategy::IdleAware,
                &config,
                2.0,
                resume,
                |_| Ok(true),
            )
        };
        let chained = resumable(None).unwrap().expect("an uninterrupted run");
        assert_eq!(format!("{single:?}"), format!("{chained:?}"));
        let mut foreign = None;
        sim.run_stream_resumable(
            &lazy,
            PlacementStrategy::IdleAware,
            &config,
            2.0,
            None,
            |snap| {
                foreign = Some(snap.clone());
                Ok(false)
            },
        )
        .unwrap();
        let foreign = foreign.expect("a 10 s trace snapshots at 2 s epochs");
        match resumable(Some(&foreign)) {
            Err(FreedomError::InvalidArgument(msg)) => {
                assert!(msg.contains("fingerprint"), "{msg}")
            }
            other => panic!("a foreign snapshot resumed an empty trace: {other:?}"),
        }
        // Bad epoch, SLO theta, and market parameters. An epoch absurdly
        // small for the trace span is rejected before any epoch runs.
        for epoch_secs in [0.0, f64::NAN, 1e-9] {
            assert!(sim
                .run_stream_resumable(
                    &lazy,
                    PlacementStrategy::IdleAware,
                    &FleetConfig::default(),
                    epoch_secs,
                    None,
                    |_| Ok(true)
                )
                .is_err());
        }
        assert!(sim
            .run(
                &ok,
                PlacementStrategy::IdleAware,
                &FleetConfig {
                    slo_theta: f64::NAN,
                    ..FleetConfig::default()
                }
            )
            .is_err());
        assert!(sim
            .run(
                &ok,
                PlacementStrategy::IdleAware,
                &FleetConfig {
                    market: MarketConfig {
                        vms_per_family: 0,
                        ..MarketConfig::default()
                    },
                    ..FleetConfig::default()
                }
            )
            .is_err());
        // Degenerate control cadences are rejected up front: zero/NaN,
        // and one so short the trace would tick millions of times.
        for cadence_secs in [0.0, f64::NAN, 1e-9] {
            assert!(sim
                .run(
                    &ok,
                    PlacementStrategy::IdleAware,
                    &FleetConfig {
                        control: ControlConfig {
                            cadence_secs,
                            ..ControlConfig::default()
                        },
                        ..FleetConfig::default()
                    }
                )
                .is_err());
        }
    }

    /// A volatile market plus per-invocation transients and a plain
    /// backoff policy (no hedging, no brownout).
    fn flaky_config() -> FleetConfig {
        FleetConfig {
            faults: FaultPlan {
                seed: 17,
                crash_prob: 0.10,
                abort_prob: 0.08,
                straggler_prob: 0.12,
                straggler_factor: 4.0,
                ..FaultPlan::NONE
            },
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_base_secs: 0.5,
                backoff_cap_secs: 8.0,
                budget_per_sec: 2.0,
                budget_burst: 8.0,
                ..RetryPolicy::DEFAULT
            },
            ..volatile_config(ControllerConfig::Static)
        }
    }

    #[test]
    fn transient_faults_drive_retries_into_the_ledger() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = Trace::poisson(180.0, 0.8, 7).unwrap();
        let config = flaky_config();
        let report = sim
            .run(&trace, PlacementStrategy::IdleAware, &config)
            .unwrap();
        accounting_is_total(&report);
        assert!(report.retried > 0, "transients must retry: {report:?}");
        assert!(
            report.hedge_wins == 0 && report.shed_retries == 0,
            "no hedging or brownout configured: {report:?}"
        );
        // The same seeds replay bit-identically; a different retry seed
        // moves the jittered backoffs and diverges.
        let again = sim
            .run(&trace, PlacementStrategy::IdleAware, &config)
            .unwrap();
        assert_eq!(format!("{report:?}"), format!("{again:?}"));
        let reseeded = FleetConfig {
            retry: RetryPolicy {
                seed: config.retry.seed + 1,
                ..config.retry
            },
            ..config
        };
        let moved = sim
            .run(&trace, PlacementStrategy::IdleAware, &reseeded)
            .unwrap();
        assert_ne!(
            format!("{report:?}"),
            format!("{moved:?}"),
            "the retry seed must matter"
        );
        // Without transients the whole retry layer is inert: no retry
        // records, no dead letters, and the report matches a run under
        // the default policy bit for bit.
        let calm = FleetConfig {
            faults: FaultPlan::NONE,
            ..config
        };
        let quiet = sim
            .run(&trace, PlacementStrategy::IdleAware, &calm)
            .unwrap();
        assert_eq!(quiet.retried, 0);
        assert_eq!(quiet.dead_lettered, 0);
        let default_policy = sim
            .run(
                &trace,
                PlacementStrategy::IdleAware,
                &FleetConfig {
                    retry: RetryPolicy::DEFAULT,
                    ..calm
                },
            )
            .unwrap();
        assert_eq!(format!("{quiet:?}"), format!("{default_policy:?}"));
    }

    #[test]
    fn attempt_cap_dead_letters_what_it_cannot_retry() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = Trace::poisson(180.0, 0.8, 7).unwrap();
        // max_attempts = 1 means a transient failure has no second
        // chance: every crash or abort dead-letters immediately.
        let config = FleetConfig {
            retry: RetryPolicy {
                max_attempts: 1,
                ..flaky_config().retry
            },
            ..flaky_config()
        };
        let report = sim
            .run(&trace, PlacementStrategy::IdleAware, &config)
            .unwrap();
        accounting_is_total(&report);
        assert!(report.dead_lettered > 0, "cap must bite: {report:?}");
        assert_eq!(
            report.retried, report.dead_lettered,
            "with a cap of one every retry record is a dead letter"
        );
        // A generous cap re-executes instead: strictly fewer dead
        // letters under the same fault plan.
        let generous = sim
            .run(&trace, PlacementStrategy::IdleAware, &flaky_config())
            .unwrap();
        assert!(
            generous.dead_lettered < report.dead_lettered,
            "{} vs {}",
            generous.dead_lettered,
            report.dead_lettered
        );
    }

    #[test]
    fn hedges_race_stragglers_and_win_some() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = Trace::poisson(180.0, 0.8, 7).unwrap();
        // Stragglers only — a hedge fired shortly after the slowdown is
        // detected beats a 6x-inflated original often.
        let config = FleetConfig {
            faults: FaultPlan {
                seed: 17,
                straggler_prob: 0.25,
                straggler_factor: 6.0,
                ..FaultPlan::NONE
            },
            retry: RetryPolicy {
                hedge_delay_secs: 0.5,
                ..RetryPolicy::DEFAULT
            },
            ..volatile_config(ControllerConfig::Static)
        };
        let hedged = sim
            .run(&trace, PlacementStrategy::IdleAware, &config)
            .unwrap();
        accounting_is_total(&hedged);
        assert!(hedged.hedge_wins > 0, "hedges must win races: {hedged:?}");
        // Hedging is pure duplication: it changes no terminal class, so
        // the admission ledger matches the unhedged run exactly, and the
        // won races can only shorten observed latency.
        let unhedged = sim
            .run(
                &trace,
                PlacementStrategy::IdleAware,
                &FleetConfig {
                    retry: RetryPolicy {
                        hedge_delay_secs: 0.0,
                        ..config.retry
                    },
                    ..config
                },
            )
            .unwrap();
        assert_eq!(unhedged.hedge_wins, 0);
        assert!(
            hedged.mean_latency_inflation <= unhedged.mean_latency_inflation,
            "{} vs {}",
            hedged.mean_latency_inflation,
            unhedged.mean_latency_inflation
        );
    }

    #[test]
    fn brownout_sheds_retries_under_pressure() {
        let plans = make_plans(5);
        let sim = FleetSimulator::new(plans).unwrap();
        let trace = Trace::poisson(180.0, 1.2, 7).unwrap();
        // Aggressive transients against a sensitive brownout: retry
        // pressure crosses the enter threshold and activations get shed.
        let base = flaky_config();
        let config = FleetConfig {
            faults: FaultPlan {
                crash_prob: 0.25,
                abort_prob: 0.20,
                ..base.faults
            },
            retry: RetryPolicy {
                brownout: Some(BrownoutConfig {
                    enter_pressure: 0.05,
                    exit_pressure: 0.01,
                    utilization_ceiling: 0.6,
                }),
                ..base.retry
            },
            ..base
        };
        let report = sim
            .run(&trace, PlacementStrategy::IdleAware, &config)
            .unwrap();
        accounting_is_total(&report);
        assert!(report.shed_retries > 0, "brownout must shed: {report:?}");
        assert!(
            report.shed_retries <= report.dead_lettered,
            "shed activations are dead letters: {report:?}"
        );
        // The control telemetry records the mode flipping on.
        assert!(
            report.control.iter().any(|s| s.brownout),
            "no control sample saw brownout: {report:?}"
        );
    }

    #[test]
    fn brownout_gates_fresh_arrivals_and_drops_hedges() {
        // Brownout that latches at the first tick and never unlatches
        // (exit pressure 0), with a zero arrival ceiling: from then on
        // every fresh arrival with spot candidates is policy-rejected
        // (the greedy policy rejects nothing itself), every retry is
        // shed, and every hedge — none fires before its 2 s delay — is
        // dropped.
        let sim = FleetSimulator::new(make_plans(5)).unwrap();
        let trace = Trace::poisson(60.0, 1.2, 7).unwrap();
        let base = flaky_config();
        let config = |brownout| FleetConfig {
            faults: FaultPlan {
                crash_prob: 0.3,
                ..base.faults
            },
            control: ControlConfig {
                cadence_secs: 1.0,
                ..base.control
            },
            retry: RetryPolicy {
                hedge_delay_secs: 2.0,
                brownout,
                ..base.retry
            },
            ..base
        };
        let calm = sim
            .run(&trace, PlacementStrategy::IdleAware, &config(None))
            .unwrap();
        assert!(calm.hedge_wins > 0, "{calm:?}");
        assert_eq!(calm.policy_rejections, 0, "{calm:?}");
        let browned = sim
            .run(
                &trace,
                PlacementStrategy::IdleAware,
                &config(Some(BrownoutConfig {
                    enter_pressure: 1e-9,
                    exit_pressure: 0.0,
                    utilization_ceiling: 0.0,
                })),
            )
            .unwrap();
        accounting_is_total(&browned);
        assert!(
            browned.control.iter().all(|s| s.brownout),
            "brownout must latch at the first tick: {browned:?}"
        );
        assert!(browned.policy_rejections > 0, "{browned:?}");
        assert!(
            browned.control[1..].iter().all(|s| s.spot_admitted == 0),
            "an attempt reached spot under brownout: {browned:?}"
        );
        assert_eq!(browned.hedge_wins, 0, "a hedge ran under brownout");
    }
}
