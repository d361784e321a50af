//! The provider's closed-loop control plane.
//!
//! The paper's thesis is that allocation freedom should be exercised
//! *continuously*: the provider picks configurations behind the
//! customer's back, watches what production traffic does to them, and
//! revises — it does not commit to one offline plan. Shabari (delayed
//! decision-making) and "Accelerating Serverless Computing by Harvesting
//! Idle Resources" both locate the win in reacting to observed load
//! in-flight. This module closes that loop over the
//! [fleet replay](crate::fleet):
//!
//! - the engine aggregates an [`Observation`] per control epoch —
//!   market utilization, the admission ledger (admitted / demoted /
//!   rejected), and per-function placement counts — and hands it to a
//!   [`Controller`] at every tick of the control cadence;
//! - [`StaticController`] does nothing: it is the open-loop baseline
//!   (exactly the pre-controller engine) every feedback policy is
//!   scored against;
//! - [`HeadroomPid`] runs a PID loop on the demotion rate: when supply
//!   drops start reclaiming in-flight placements it tightens the
//!   [`AdmissionPolicy`] utilization ceiling, and it relaxes the
//!   ceiling again while the market stays calm;
//! - [`SurrogateRightSizer`] re-fits a per-function surrogate on the
//!   latencies production traffic *actually observed* (warm-start
//!   [`fit_update`](freedom_surrogates::Surrogate::fit_update), batched
//!   [`predict_batch`](freedom_surrogates::Surrogate::predict_batch)
//!   acquisition — the same incremental stack the offline tuner uses)
//!   and re-plans each function's placement order through
//!   [`IdleCapacityPlanner::revise_order`], dropping alternates whose
//!   observed inflation breaks the θ guardrail the offline model
//!   mispredicted;
//! - [`update_brownout`] layers graceful degradation over any of them:
//!   when the epoch's retry pressure (retried / admitted) crosses the
//!   [`BrownoutConfig`] enter threshold, the fleet sheds retries before
//!   fresh arrivals and tightens the admission ceiling, recovering with
//!   hysteresis once pressure falls below the exit threshold.
//!
//! # Determinism
//!
//! Controllers are **pure state machines**: the controller object
//! itself is immutable configuration, and every piece of evolving state
//! lives in a [`ControlState`] that the resumable replay carries across
//! epoch boundaries (and into snapshots) next to the in-flight ledger.
//! Ticks fire at fixed instants of *simulated* time (multiples of the
//! cadence, capped at the trace horizon), so the sequence of
//! `(state, observation) → state'` transitions — and therefore every
//! admission decision and placement revision — is a pure function of
//! the trace, never of the epoch partition. [`control_state_eq`]
//! compares two states bit-exactly. The right-sizer's surrogates are
//! *derived* state: they are rebuilt from the carried observation log by
//! replaying the canonical `fit`/`fit_update` call sequence, so an epoch
//! reconstructing them mid-trace — after a resume — holds the same
//! model, bit for bit, as the single pass that grew it incrementally.

use freedom_surrogates::{Surrogate, SurrogateKind};

use crate::market::AdmissionPolicy;
use crate::provider::{IdleCapacityPlanner, PlannerConfig};
use crate::retry::BrownoutConfig;
use crate::{FreedomError, Result};

/// Upper bound on controller ticks per replay, the cadence's counterpart
/// of the resumable replay's epoch bound [`crate::trace::MAX_EPOCHS`]: a
/// cadence far below the trace span would spend the whole replay ticking.
pub const MAX_TICKS: u64 = 1 << 22;

/// Which feedback policy closes the loop, as plain configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControllerConfig {
    /// Open loop: admission policy and placement orders stay exactly as
    /// planned. The determinism and savings baseline.
    Static,
    /// PID feedback from the demotion rate to the admission ceiling.
    HeadroomPid(PidConfig),
    /// Online re-planning of per-function placements from observed
    /// latencies, through the surrogate stack and the idle-capacity
    /// planner.
    SurrogateRightSizer(RightSizerConfig),
}

impl ControllerConfig {
    /// Instantiates the controller this configuration describes. The
    /// built controller's [`Controller::name`] is the label reports use.
    pub fn build(&self) -> Box<dyn Controller> {
        match *self {
            Self::Static => Box::new(StaticController),
            Self::HeadroomPid(config) => Box::new(HeadroomPid { config }),
            Self::SurrogateRightSizer(config) => Box::new(SurrogateRightSizer { config }),
        }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        match self {
            Self::Static => Ok(()),
            Self::HeadroomPid(pid) => pid.validate(),
            Self::SurrogateRightSizer(rs) => rs.validate(),
        }
    }
}

/// The control loop's cadence plus the controller running on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlConfig {
    /// Seconds of simulated time between controller ticks.
    pub cadence_secs: f64,
    /// The feedback policy.
    pub controller: ControllerConfig,
}

impl Default for ControlConfig {
    fn default() -> Self {
        Self {
            cadence_secs: 30.0,
            controller: ControllerConfig::Static,
        }
    }
}

impl ControlConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        if !self.cadence_secs.is_finite() || self.cadence_secs <= 0.0 {
            return Err(FreedomError::InvalidArgument(format!(
                "control cadence must be positive, got {}s",
                self.cadence_secs
            )));
        }
        self.controller.validate()
    }
}

/// Gains and bounds of the [`HeadroomPid`] controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidConfig {
    /// Demotion rate (demoted ÷ spot placements per epoch) the loop
    /// drives toward. Rates above it tighten the ceiling, calm epochs
    /// relax it.
    pub target_demotion_rate: f64,
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain (the integral term is clamped to ±[`PidConfig::integral_cap`]).
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
    /// Anti-windup clamp on the accumulated error integral.
    pub integral_cap: f64,
    /// Hard floor of the admission ceiling: feedback may not close the
    /// market entirely.
    pub min_ceiling: f64,
    /// Hard cap of the admission ceiling (1.0 ≈ greedy).
    pub max_ceiling: f64,
    /// Ceiling in force before the first tick.
    pub initial_ceiling: f64,
}

impl Default for PidConfig {
    fn default() -> Self {
        Self {
            target_demotion_rate: 0.02,
            kp: 0.9,
            ki: 0.35,
            kd: 0.15,
            integral_cap: 2.0,
            min_ceiling: 0.30,
            max_ceiling: 1.0,
            initial_ceiling: 1.0,
        }
    }
}

impl PidConfig {
    fn validate(&self) -> Result<()> {
        let finite = [
            ("target demotion rate", self.target_demotion_rate),
            ("kp", self.kp),
            ("ki", self.ki),
            ("kd", self.kd),
            ("integral cap", self.integral_cap),
        ];
        for (name, v) in finite {
            if !v.is_finite() || v < 0.0 {
                return Err(FreedomError::InvalidArgument(format!(
                    "PID {name} must be finite and non-negative, got {v}"
                )));
            }
        }
        let unit = [
            ("min ceiling", self.min_ceiling),
            ("max ceiling", self.max_ceiling),
            ("initial ceiling", self.initial_ceiling),
        ];
        for (name, v) in unit {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(FreedomError::InvalidArgument(format!(
                    "PID {name} must be in [0, 1], got {v}"
                )));
            }
        }
        if self.min_ceiling > self.max_ceiling {
            return Err(FreedomError::InvalidArgument(format!(
                "PID ceiling floor {} exceeds cap {}",
                self.min_ceiling, self.max_ceiling
            )));
        }
        Ok(())
    }
}

/// Configuration of the [`SurrogateRightSizer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RightSizerConfig {
    /// Guardrail and risk posture of the online re-planning: the
    /// revised order keeps alternates whose predicted inflation
    /// `mean + beta·std` stays within `1 + theta`.
    pub planner: PlannerConfig,
    /// Surrogate family fitted on the observed latencies.
    pub surrogate: SurrogateKind,
    /// Base seed of the per-function models.
    pub seed: u64,
}

impl Default for RightSizerConfig {
    fn default() -> Self {
        Self {
            planner: PlannerConfig::default(),
            surrogate: SurrogateKind::Gp,
            seed: 0x51DE,
        }
    }
}

impl RightSizerConfig {
    fn validate(&self) -> Result<()> {
        if !self.planner.theta.is_finite() || self.planner.theta < 0.0 {
            return Err(FreedomError::InvalidArgument(format!(
                "right-sizer theta must be non-negative, got {}",
                self.planner.theta
            )));
        }
        if !self.planner.beta.is_finite() || self.planner.beta < 0.0 {
            return Err(FreedomError::InvalidArgument(format!(
                "right-sizer beta must be non-negative, got {}",
                self.planner.beta
            )));
        }
        Ok(())
    }
}

/// Per-epoch counters the engine accumulates between ticks. Part of the
/// resumable replay's carried state: a control epoch routinely spans a
/// snapshot boundary, so the partial sums must travel with the in-flight
/// ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsAccum {
    /// Invocations that arrived this epoch.
    pub arrivals: u32,
    /// Spot admissions this epoch.
    pub spot_admitted: u32,
    /// In-flight placements force-demoted by supply drops this epoch
    /// (counted at the step, not at lazy discovery).
    pub spot_demoted: u32,
    /// In-flight placements migrated cross-zone by supply drops this
    /// epoch (counted at the step).
    pub migrated: u32,
    /// In-flight placements that received a preemption notice this
    /// epoch (counted at the notice).
    pub notified: u32,
    /// Admission-policy denials this epoch.
    pub policy_rejected: u32,
    /// Admitted-but-nothing-fits misses this epoch.
    pub capacity_missed: u32,
    /// Retry activations this epoch — the numerator of the brownout
    /// pressure signal `retried / max(spot_admitted, 1)`.
    pub retried: u32,
    /// Flattened per-(function, placement) invocation counts; function
    /// `f` owns `offsets[f]..offsets[f + 1]`, one slot per accepted
    /// alternate plus a trailing on-demand slot.
    pub per_function: Vec<u32>,
}

impl ObsAccum {
    /// A zeroed accumulator over `slots` flattened placement counters.
    pub fn zero(slots: usize) -> Self {
        Self {
            arrivals: 0,
            spot_admitted: 0,
            spot_demoted: 0,
            migrated: 0,
            notified: 0,
            policy_rejected: 0,
            capacity_missed: 0,
            retried: 0,
            per_function: vec![0; slots],
        }
    }

    /// Resets every counter for the next epoch.
    pub fn reset(&mut self) {
        self.arrivals = 0;
        self.spot_admitted = 0;
        self.spot_demoted = 0;
        self.migrated = 0;
        self.notified = 0;
        self.policy_rejected = 0;
        self.capacity_missed = 0;
        self.retried = 0;
        self.per_function.fill(0);
    }

    /// Serializes the partial epoch into a crash-resume snapshot.
    pub(crate) fn save(&self, w: &mut crate::snapshot::Wire) {
        w.u32(self.arrivals);
        w.u32(self.spot_admitted);
        w.u32(self.spot_demoted);
        w.u32(self.migrated);
        w.u32(self.notified);
        w.u32(self.policy_rejected);
        w.u32(self.capacity_missed);
        w.u32(self.retried);
        w.len(self.per_function.len());
        for &c in &self.per_function {
            w.u32(c);
        }
    }

    /// Restores an accumulator serialized with [`ObsAccum::save`].
    pub(crate) fn load(r: &mut crate::snapshot::Unwire) -> crate::Result<Self> {
        let arrivals = r.u32()?;
        let spot_admitted = r.u32()?;
        let spot_demoted = r.u32()?;
        let migrated = r.u32()?;
        let notified = r.u32()?;
        let policy_rejected = r.u32()?;
        let capacity_missed = r.u32()?;
        let retried = r.u32()?;
        let n = r.len()?;
        let mut per_function = Vec::with_capacity(n);
        for _ in 0..n {
            per_function.push(r.u32()?);
        }
        Ok(Self {
            arrivals,
            spot_admitted,
            spot_demoted,
            migrated,
            notified,
            policy_rejected,
            capacity_missed,
            retried,
            per_function,
        })
    }
}

/// What one control epoch looked like: the snapshot a [`Controller`]
/// receives at each tick.
#[derive(Debug, Clone, Copy)]
pub struct Observation<'a> {
    /// Global tick index (1-based: the first tick fires one cadence into
    /// the trace).
    pub tick: u32,
    /// Tick instant in integer nanoseconds of simulated time.
    pub at_nanos: u64,
    /// Market vCPU utilization at the tick instant (after any supply
    /// step at the same instant).
    pub utilization: f64,
    /// The epoch's counters.
    pub accum: &'a ObsAccum,
    /// Flattened-counter offsets, `n_functions + 1` entries.
    pub offsets: &'a [u32],
}

impl Observation<'_> {
    /// Force-demotions as a fraction of the epoch's spot placements
    /// (admitted plus demoted plus migrated — a migration saved its
    /// placement, so it dilutes rather than drives the rate); 0 when
    /// the epoch saw no spot activity.
    pub fn demotion_rate(&self) -> f64 {
        let at_risk = self.accum.spot_admitted + self.accum.spot_demoted + self.accum.migrated;
        if at_risk == 0 {
            0.0
        } else {
            f64::from(self.accum.spot_demoted) / f64::from(at_risk)
        }
    }

    /// One function's placement counts this epoch: one entry per
    /// accepted alternate (plan order) plus a trailing on-demand count.
    pub fn function_counts(&self, function: usize) -> &[u32] {
        let lo = self.offsets[function] as usize;
        let hi = self.offsets[function + 1] as usize;
        &self.accum.per_function[lo..hi]
    }

    /// Number of functions covered by the observation.
    pub fn n_functions(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// What the engine sees of one function's plan: the encoded
/// configurations and actual inflations the right-sizer learns from.
/// Built once per replay, immutable.
#[derive(Debug, Clone)]
pub struct FunctionView {
    /// Encoded best (on-demand) configuration — the y = 1.0 anchor row
    /// of the observed-latency model.
    pub best_encoding: Vec<f64>,
    /// Encoded configuration of each accepted alternate, plan order.
    pub alt_encodings: Vec<Vec<f64>>,
    /// Actual latency inflation of each accepted alternate.
    pub alt_inflations: Vec<f64>,
}

/// Everything a controller evolves, carried across epoch boundaries (and
/// into snapshots) next to the in-flight ledger.
#[derive(Debug, Clone)]
pub struct ControlState {
    /// Admission policy currently in force (starts at the market's
    /// configured policy, or the PID's initial ceiling).
    pub admission: AdmissionPolicy,
    /// PID error integral.
    pub integral: f64,
    /// PID error at the previous tick.
    pub prev_error: f64,
    /// Right-sizer observation log: per function, the accepted-alternate
    /// indices in first-observed order. The per-function surrogate is a
    /// pure function of this log and its batch partition (see
    /// [`SurrogateRightSizer`]), which is what lets a replay resumed at an
    /// epoch boundary rebuild it.
    pub observed: Vec<Vec<u8>>,
    /// The log's batch partition: per function, how many entries each
    /// observing tick appended (entries sum to the log's length). Part
    /// of the carried state because the canonical model-fitting sequence
    /// is **one warm-start `fit_update` per batch**, not per entry — a
    /// resumed replay rebuilding the model must repeat the batching the
    /// uninterrupted run performed.
    pub observed_batches: Vec<Vec<u8>>,
    /// Right-sizer output: per function, the revised placement order
    /// (`None` = the planner's original order).
    pub orders: Vec<Option<Vec<u8>>>,
    /// Whether the control plane is in brownout: retry pressure crossed
    /// the enter threshold and has not yet recovered below the exit
    /// threshold. While set, retries are shed before fresh arrivals and
    /// fresh admissions face the tightened brownout ceiling. Carried
    /// state — a replay resumed at an epoch boundary continues in the
    /// same mode.
    pub brownout: bool,
}

impl ControlState {
    /// Open-loop state: the base admission policy and no revisions.
    pub fn passthrough(admission: AdmissionPolicy) -> Self {
        Self {
            admission,
            integral: 0.0,
            prev_error: 0.0,
            observed: Vec::new(),
            observed_batches: Vec::new(),
            orders: Vec::new(),
            brownout: false,
        }
    }

    /// The function's placement order if this state revised it.
    pub fn order_for(&self, function: usize) -> Option<&[u8]> {
        self.orders.get(function).and_then(|o| o.as_deref())
    }

    /// Serializes exactly the fields [`control_state_eq`] compares into
    /// a crash-resume snapshot ([`crate::snapshot`]): floats as bit
    /// patterns, logs length-prefixed, `orders` entries tagged.
    pub(crate) fn save(&self, w: &mut crate::snapshot::Wire) {
        let (tag, bits) = admission_bits(&self.admission);
        w.u8(tag);
        w.u64(bits);
        w.f64(self.integral);
        w.f64(self.prev_error);
        let save_log = |w: &mut crate::snapshot::Wire, log: &[Vec<u8>]| {
            w.len(log.len());
            for entries in log {
                w.len(entries.len());
                for &e in entries {
                    w.u8(e);
                }
            }
        };
        save_log(w, &self.observed);
        save_log(w, &self.observed_batches);
        w.bool(self.brownout);
        w.len(self.orders.len());
        for order in &self.orders {
            match order {
                None => w.u8(0),
                Some(entries) => {
                    w.u8(1);
                    w.len(entries.len());
                    for &e in entries {
                        w.u8(e);
                    }
                }
            }
        }
    }

    /// Restores a state serialized with [`ControlState::save`],
    /// bit-identical under [`control_state_eq`].
    pub(crate) fn load(r: &mut crate::snapshot::Unwire) -> crate::Result<Self> {
        let admission = match (r.u8()?, r.u64()?) {
            (0, _) => AdmissionPolicy::Greedy,
            (1, bits) => AdmissionPolicy::Headroom {
                max_utilization: f64::from_bits(bits),
            },
            (tag, _) => {
                return Err(crate::FreedomError::InvalidArgument(format!(
                    "snapshot: unknown admission-policy tag {tag}"
                )))
            }
        };
        let integral = r.f64()?;
        let prev_error = r.f64()?;
        let load_log = |r: &mut crate::snapshot::Unwire| -> crate::Result<Vec<Vec<u8>>> {
            let n = r.len()?;
            let mut log = Vec::with_capacity(n);
            for _ in 0..n {
                let m = r.len()?;
                let mut entries = Vec::with_capacity(m);
                for _ in 0..m {
                    entries.push(r.u8()?);
                }
                log.push(entries);
            }
            Ok(log)
        };
        let observed = load_log(r)?;
        let observed_batches = load_log(r)?;
        let brownout = r.bool()?;
        let n = r.len()?;
        let mut orders = Vec::with_capacity(n);
        for _ in 0..n {
            orders.push(match r.u8()? {
                0 => None,
                1 => {
                    let m = r.len()?;
                    let mut entries = Vec::with_capacity(m);
                    for _ in 0..m {
                        entries.push(r.u8()?);
                    }
                    Some(entries)
                }
                tag => {
                    return Err(crate::FreedomError::InvalidArgument(format!(
                        "snapshot: invalid order tag {tag}"
                    )))
                }
            });
        }
        Ok(Self {
            admission,
            integral,
            prev_error,
            observed,
            observed_batches,
            orders,
            brownout,
        })
    }
}

fn admission_bits(policy: &AdmissionPolicy) -> (u8, u64) {
    match *policy {
        AdmissionPolicy::Greedy => (0, 0),
        AdmissionPolicy::Headroom { max_utilization } => (1, max_utilization.to_bits()),
    }
}

/// Bit-exact equality of two carried controller states — every float by
/// bit pattern, every log and order element-wise.
pub fn control_state_eq(a: &ControlState, b: &ControlState) -> bool {
    admission_bits(&a.admission) == admission_bits(&b.admission)
        && a.integral.to_bits() == b.integral.to_bits()
        && a.prev_error.to_bits() == b.prev_error.to_bits()
        && a.observed == b.observed
        && a.observed_batches == b.observed_batches
        && a.orders == b.orders
        && a.brownout == b.brownout
}

/// Advances the brownout state machine at a controller tick.
///
/// Pressure is the closing epoch's `retried / max(spot_admitted, 1)`.
/// The mode enters at `enter_pressure` and exits only strictly below
/// `exit_pressure` (`< enter_pressure` by validation) — the hysteresis
/// band keeps one noisy epoch from flapping the fleet in and out of
/// degradation. Runs *after* the controller's own `tick` so every
/// controller composes with brownout without knowing about it.
pub fn update_brownout(state: &mut ControlState, accum: &ObsAccum, cfg: &BrownoutConfig) {
    let pressure = f64::from(accum.retried) / f64::from(accum.spot_admitted.max(1));
    if state.brownout {
        if pressure < cfg.exit_pressure {
            state.brownout = false;
        }
    } else if pressure >= cfg.enter_pressure {
        state.brownout = true;
    }
}

/// The admission ceiling a state enforces; ∞ for a greedy policy.
pub fn admission_ceiling(policy: &AdmissionPolicy) -> f64 {
    match *policy {
        AdmissionPolicy::Greedy => f64::INFINITY,
        AdmissionPolicy::Headroom { max_utilization } => max_utilization,
    }
}

/// One replay's transient caches — the right-sizer's fitted surrogates.
/// Never carried into snapshots or compared: everything here is derived
/// from [`ControlState`] by a deterministic replay, so a replay resumed
/// from a snapshot rebuilds it on demand.
#[derive(Default)]
pub struct ControlScratch {
    models: Vec<Option<Box<dyn Surrogate>>>,
}

impl ControlScratch {
    fn model_slot(&mut self, n_functions: usize, f: usize) -> &mut Option<Box<dyn Surrogate>> {
        if self.models.len() < n_functions {
            self.models.resize_with(n_functions, || None);
        }
        &mut self.models[f]
    }
}

/// One tick's telemetry, recorded into the [`FleetReport`](crate::fleet::FleetReport)
/// so experiments can score settling time and ceiling trajectories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlSample {
    /// Tick instant in seconds of simulated time.
    pub at_secs: f64,
    /// Market utilization at the tick.
    pub utilization: f64,
    /// Admission ceiling after the tick (∞ = greedy).
    pub ceiling: f64,
    /// Arrivals in the epoch that ended at this tick.
    pub arrivals: u32,
    /// Spot admissions in the epoch.
    pub spot_admitted: u32,
    /// Force-demotions in the epoch.
    pub spot_demoted: u32,
    /// Cross-zone migrations in the epoch.
    pub migrated: u32,
    /// Policy rejections plus capacity misses in the epoch.
    pub rejected: u32,
    /// Functions whose placement order this tick revised.
    pub replanned: u32,
    /// Retry activations in the epoch.
    pub retried: u32,
    /// Whether the control plane was in brownout after this tick.
    pub brownout: bool,
}

impl ControlSample {
    /// Serializes the sample into a crash-resume snapshot.
    pub(crate) fn save(&self, w: &mut crate::snapshot::Wire) {
        w.f64(self.at_secs);
        w.f64(self.utilization);
        w.f64(self.ceiling);
        w.u32(self.arrivals);
        w.u32(self.spot_admitted);
        w.u32(self.spot_demoted);
        w.u32(self.migrated);
        w.u32(self.rejected);
        w.u32(self.replanned);
        w.u32(self.retried);
        w.bool(self.brownout);
    }

    /// Restores a sample serialized with [`ControlSample::save`].
    pub(crate) fn load(r: &mut crate::snapshot::Unwire) -> crate::Result<Self> {
        Ok(Self {
            at_secs: r.f64()?,
            utilization: r.f64()?,
            ceiling: r.f64()?,
            arrivals: r.u32()?,
            spot_admitted: r.u32()?,
            spot_demoted: r.u32()?,
            migrated: r.u32()?,
            rejected: r.u32()?,
            replanned: r.u32()?,
            retried: r.u32()?,
            brownout: r.bool()?,
        })
    }
}

/// A feedback policy closing the provider's control loop.
///
/// Implementations must be pure: `tick` may read only its arguments and
/// the immutable `self`, and must evolve nothing but the passed
/// [`ControlState`] (plus derived caches in [`ControlScratch`]). The
/// resumable replay relies on that purity to carry, snapshot, and
/// reconstruct controller state at epoch boundaries.
pub trait Controller: Send + Sync {
    /// Stable label for reports.
    fn name(&self) -> &'static str;

    /// The state in force before the first tick.
    fn init(&self, base_admission: AdmissionPolicy, n_functions: usize) -> ControlState;

    /// Consumes one epoch's observation, evolving `state`. Returns the
    /// number of functions whose placement order changed.
    fn tick(
        &self,
        state: &mut ControlState,
        scratch: &mut ControlScratch,
        obs: &Observation<'_>,
        plans: &[FunctionView],
    ) -> u32;
}

/// Open loop: today's behavior, and the baseline every feedback policy
/// is scored against.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticController;

impl Controller for StaticController {
    fn name(&self) -> &'static str {
        "static"
    }

    fn init(&self, base_admission: AdmissionPolicy, _n_functions: usize) -> ControlState {
        ControlState::passthrough(base_admission)
    }

    fn tick(
        &self,
        _state: &mut ControlState,
        _scratch: &mut ControlScratch,
        _obs: &Observation<'_>,
        _plans: &[FunctionView],
    ) -> u32 {
        0
    }
}

/// PID feedback from the epoch demotion rate to the admission
/// utilization ceiling: demotion bursts tighten the market so supply
/// drops find slack instead of in-flight work; calm epochs relax it
/// back toward the cap, recovering spot savings.
#[derive(Debug, Clone, Copy)]
pub struct HeadroomPid {
    config: PidConfig,
}

impl HeadroomPid {
    /// Creates the controller.
    pub fn new(config: PidConfig) -> Self {
        Self { config }
    }
}

impl Controller for HeadroomPid {
    fn name(&self) -> &'static str {
        "pid"
    }

    fn init(&self, _base_admission: AdmissionPolicy, _n_functions: usize) -> ControlState {
        ControlState::passthrough(AdmissionPolicy::Headroom {
            max_utilization: self.config.initial_ceiling,
        })
    }

    fn tick(
        &self,
        state: &mut ControlState,
        _scratch: &mut ControlScratch,
        obs: &Observation<'_>,
        _plans: &[FunctionView],
    ) -> u32 {
        let c = &self.config;
        let error = obs.demotion_rate() - c.target_demotion_rate;
        state.integral = (state.integral + error).clamp(-c.integral_cap, c.integral_cap);
        let derivative = error - state.prev_error;
        state.prev_error = error;
        let u = c.kp * error + c.ki * state.integral + c.kd * derivative;
        let ceiling = match state.admission {
            AdmissionPolicy::Headroom { max_utilization } => max_utilization,
            AdmissionPolicy::Greedy => c.max_ceiling,
        };
        state.admission = AdmissionPolicy::Headroom {
            max_utilization: (ceiling - u).clamp(c.min_ceiling, c.max_ceiling),
        };
        0
    }
}

/// Online right-sizing from observed latencies.
///
/// The offline planner accepted each alternate because the *model*
/// predicted its execution time within θ of the best configuration;
/// production traffic then reveals the actual latency. This controller
/// maintains one surrogate per function over the observed
/// (configuration → inflation) pairs — anchored by the best
/// configuration at inflation 1.0 — and at each tick re-scores every
/// alternate with a batched prediction, re-planning the placement order
/// through [`IdleCapacityPlanner::revise_order`]. Alternates the
/// offline model mispredicted past the guardrail are dropped; the rest
/// are reordered best-predicted-first; never-observed alternates stay
/// at the tail so exploration continues.
///
/// # Model reconstruction
///
/// The surrogate for a function is *defined* by its observation log and
/// the log's **batch partition** (one batch per tick that observed
/// something new, both carried in [`ControlState`]): the canonical call
/// sequence is `fit(anchor + first batch)`, then one warm-start
/// `fit_update(log[..=eₖ], seed(eₖ))` per subsequent batch, where `eₖ`
/// is the batch's cumulative end. The sequential engine grows the model
/// with exactly those calls — a tick that surfaces several alternates
/// at once absorbs them in **one** `fit_update`, which is what keeps
/// the tick cost amortized — and a replay resumed from a snapshot, which
/// holds only the carried log, replays the same batches from scratch.
/// Same sequence, same seeds, same model — bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct SurrogateRightSizer {
    config: RightSizerConfig,
}

impl SurrogateRightSizer {
    /// Creates the controller.
    pub fn new(config: RightSizerConfig) -> Self {
        Self { config }
    }

    fn row_seed(&self, function: usize, row: usize) -> u64 {
        self.config
            .seed
            .wrapping_add((function as u64) << 32)
            .wrapping_add(row as u64)
    }

    /// Training rows for a function: the anchor plus the observed log.
    fn rows(view: &FunctionView, log: &[u8]) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x = Vec::with_capacity(log.len() + 1);
        let mut y = Vec::with_capacity(log.len() + 1);
        x.push(view.best_encoding.clone());
        y.push(1.0);
        for &ai in log {
            x.push(view.alt_encodings[ai as usize].clone());
            y.push(view.alt_inflations[ai as usize]);
        }
        (x, y)
    }

    /// Brings the function's surrogate up to date with its log, whose
    /// batch partition `batches` records how many entries each observing
    /// tick appended. A replay holding no model yet (a fresh start, or a
    /// resume from a snapshot) replays the canonical batched call
    /// sequence from scratch; otherwise only the newest batch is absorbed
    /// — **one** warm-start `fit_update` per tick no matter how many
    /// alternates the epoch surfaced, which is what amortizes the tick
    /// cost. Returns `None` when fitting fails (degenerate data) —
    /// deterministically, since the inputs are.
    fn advance_model<'m>(
        &self,
        slot: &'m mut Option<Box<dyn Surrogate>>,
        view: &FunctionView,
        log: &[u8],
        batches: &[u8],
        function: usize,
    ) -> Option<&'m mut Box<dyn Surrogate>> {
        let (x, y) = Self::rows(view, log);
        if slot.is_none() {
            // Cumulative batch ends in x-row coordinates (the anchor is
            // row 0, so batch k ending at log position e covers x[..=e]).
            let mut ends = batches.iter().scan(0usize, |acc, &b| {
                *acc += b as usize;
                Some(*acc)
            });
            let first = ends.next()?;
            let mut model = self.config.surrogate.build(self.row_seed(function, 0));
            if model.fit(&x[..=first], &y[..=first]).is_err() {
                return None;
            }
            for e in ends {
                if model
                    .fit_update(&x[..=e], &y[..=e], self.row_seed(function, e))
                    .is_err()
                {
                    return None;
                }
            }
            *slot = Some(model);
        } else {
            let e = log.len();
            let model = slot.as_mut().expect("checked above");
            if model
                .fit_update(&x[..=e], &y[..=e], self.row_seed(function, e))
                .is_err()
            {
                *slot = None;
                return None;
            }
        }
        slot.as_mut()
    }
}

impl Controller for SurrogateRightSizer {
    fn name(&self) -> &'static str {
        "right_sizer"
    }

    fn init(&self, base_admission: AdmissionPolicy, n_functions: usize) -> ControlState {
        ControlState {
            admission: base_admission,
            integral: 0.0,
            prev_error: 0.0,
            observed: vec![Vec::new(); n_functions],
            observed_batches: vec![Vec::new(); n_functions],
            orders: vec![None; n_functions],
            brownout: false,
        }
    }

    fn tick(
        &self,
        state: &mut ControlState,
        scratch: &mut ControlScratch,
        obs: &Observation<'_>,
        plans: &[FunctionView],
    ) -> u32 {
        let planner = IdleCapacityPlanner::new(self.config.planner);
        let mut replanned = 0;
        for f in 0..plans.len() {
            let view = &plans[f];
            let n_alts = view.alt_encodings.len();
            if n_alts == 0 {
                continue;
            }
            // Extend the observation log with alternates production
            // traffic exercised for the first time this epoch (ascending
            // index within the epoch, deterministically).
            let counts = obs.function_counts(f);
            let log = &mut state.observed[f];
            let before = log.len();
            for (ai, &count) in counts.iter().take(n_alts).enumerate() {
                if count > 0 && !log.contains(&(ai as u8)) {
                    log.push(ai as u8);
                }
            }
            let fresh = log.len() - before;
            if fresh == 0 {
                continue; // nothing new observed → the order stands
            }
            state.observed_batches[f].push(fresh as u8);
            let log = state.observed[f].clone();
            let batches = state.observed_batches[f].clone();
            let Some(model) =
                self.advance_model(scratch.model_slot(plans.len(), f), view, &log, &batches, f)
            else {
                continue;
            };
            // Batched acquisition over every alternate, then the
            // planner's guardrail decides who stays and in what order.
            let Ok(predictions) = model.predict_batch(&view.alt_encodings) else {
                continue;
            };
            let mut order = planner.revise_order(&predictions);
            // Keep never-observed alternates explorable: append them in
            // plan order behind the model-vetted ones.
            for ai in 0..n_alts as u8 {
                if !log.contains(&ai) && !order.contains(&ai) {
                    order.push(ai);
                }
            }
            if state.orders[f].as_deref() != Some(order.as_slice()) {
                replanned += 1;
                state.orders[f] = Some(order);
            }
        }
        replanned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs_with<'a>(accum: &'a ObsAccum, offsets: &'a [u32], utilization: f64) -> Observation<'a> {
        Observation {
            tick: 1,
            at_nanos: 30_000_000_000,
            utilization,
            accum,
            offsets,
        }
    }

    #[test]
    fn demotion_rate_handles_empty_epochs() {
        let offsets = [0u32, 1];
        let mut accum = ObsAccum::zero(1);
        assert_eq!(obs_with(&accum, &offsets, 0.0).demotion_rate(), 0.0);
        accum.spot_admitted = 6;
        accum.spot_demoted = 2;
        let rate = obs_with(&accum, &offsets, 0.5).demotion_rate();
        assert!((rate - 0.25).abs() < 1e-15);
    }

    #[test]
    fn static_controller_is_open_loop() {
        let ctl = StaticController;
        let base = AdmissionPolicy::Headroom {
            max_utilization: 0.8,
        };
        let mut state = ctl.init(base, 4);
        let snapshot = state.clone();
        let offsets = [0u32, 1];
        let accum = ObsAccum {
            spot_demoted: 50,
            spot_admitted: 1,
            ..ObsAccum::zero(1)
        };
        let replanned = ctl.tick(
            &mut state,
            &mut ControlScratch::default(),
            &obs_with(&accum, &offsets, 0.99),
            &[],
        );
        assert_eq!(replanned, 0);
        assert!(control_state_eq(&state, &snapshot), "static must not move");
    }

    #[test]
    fn pid_tightens_on_demotions_and_relaxes_when_calm() {
        let ctl = HeadroomPid::new(PidConfig::default());
        let mut state = ctl.init(AdmissionPolicy::Greedy, 4);
        assert_eq!(admission_ceiling(&state.admission), 1.0);
        let offsets = [0u32, 1];
        let mut stormy = ObsAccum::zero(1);
        stormy.spot_admitted = 4;
        stormy.spot_demoted = 6;
        let mut scratch = ControlScratch::default();
        ctl.tick(
            &mut state,
            &mut scratch,
            &obs_with(&stormy, &offsets, 0.9),
            &[],
        );
        let tightened = admission_ceiling(&state.admission);
        assert!(
            tightened < 1.0,
            "demotion burst must tighten, got {tightened}"
        );
        assert!(tightened >= PidConfig::default().min_ceiling);
        // A long calm stretch relaxes back toward the cap.
        let calm = ObsAccum {
            spot_admitted: 10,
            ..ObsAccum::zero(1)
        };
        let mut prev = tightened;
        for _ in 0..64 {
            ctl.tick(
                &mut state,
                &mut scratch,
                &obs_with(&calm, &offsets, 0.2),
                &[],
            );
            let now = admission_ceiling(&state.admission);
            assert!(now >= prev - 1e-12, "calm epochs must not tighten");
            prev = now;
        }
        assert!(
            (prev - PidConfig::default().max_ceiling).abs() < 1e-9,
            "calm loop must recover the cap, got {prev}"
        );
        // The trajectory is a pure function of the observation sequence.
        let replay = || {
            let mut s = ctl.init(AdmissionPolicy::Greedy, 4);
            let mut sc = ControlScratch::default();
            ctl.tick(&mut s, &mut sc, &obs_with(&stormy, &offsets, 0.9), &[]);
            ctl.tick(&mut s, &mut sc, &obs_with(&calm, &offsets, 0.2), &[]);
            s
        };
        assert!(control_state_eq(&replay(), &replay()));
    }

    #[test]
    fn right_sizer_drops_observed_guardrail_breakers() {
        // Three alternates: a good one (1.05×), a mispredicted bad one
        // (1.60×), and a never-observed one. After observing the first
        // two, the revised order must drop the breaker, keep the good
        // one, and leave the unobserved alternate explorable at the
        // tail.
        let view = FunctionView {
            best_encoding: vec![0.5, 0.5],
            alt_encodings: vec![vec![0.1, 0.9], vec![0.9, 0.1], vec![0.4, 0.6]],
            alt_inflations: vec![1.05, 1.60, 1.08],
        };
        let ctl = SurrogateRightSizer::new(RightSizerConfig::default());
        let mut state = ctl.init(AdmissionPolicy::Greedy, 1);
        let mut scratch = ControlScratch::default();
        let offsets = [0u32, 4]; // 3 alternates + on-demand
        let mut accum = ObsAccum::zero(4);
        accum.per_function[0] = 7; // alternate 0 observed
        accum.per_function[1] = 3; // alternate 1 observed
        let replanned = ctl.tick(
            &mut state,
            &mut scratch,
            &obs_with(&accum, &offsets, 0.4),
            std::slice::from_ref(&view),
        );
        assert_eq!(replanned, 1);
        let order = state.order_for(0).expect("revised");
        assert!(
            !order.contains(&1),
            "observed 1.60× alternate must be dropped, got {order:?}"
        );
        assert!(order.contains(&0), "observed good alternate stays");
        assert_eq!(
            *order.last().unwrap(),
            2,
            "unobserved alternate stays explorable"
        );
        // A tick with nothing new observed leaves the order untouched.
        accum.reset();
        accum.per_function[0] = 2;
        let replanned = ctl.tick(
            &mut state,
            &mut scratch,
            &obs_with(&accum, &offsets, 0.4),
            std::slice::from_ref(&view),
        );
        assert_eq!(replanned, 0);
    }

    #[test]
    fn right_sizer_model_reconstruction_matches_incremental_growth() {
        // Observing alternates over two ticks (incremental fit_update)
        // must leave the same state as a fresh scratch replaying the
        // carried log in one go — the property resumed reconstruction
        // rests on.
        let view = FunctionView {
            best_encoding: vec![0.5, 0.5],
            alt_encodings: vec![vec![0.1, 0.9], vec![0.9, 0.1], vec![0.4, 0.6]],
            alt_inflations: vec![1.02, 1.25, 1.07],
        };
        let ctl = SurrogateRightSizer::new(RightSizerConfig::default());
        let offsets = [0u32, 4];

        // Incremental: alternate 1 on tick A, alternates 0 and 2 on tick B.
        let mut incremental = ctl.init(AdmissionPolicy::Greedy, 1);
        let mut scratch = ControlScratch::default();
        let mut accum = ObsAccum::zero(4);
        accum.per_function[1] = 1;
        ctl.tick(
            &mut incremental,
            &mut scratch,
            &obs_with(&accum, &offsets, 0.1),
            std::slice::from_ref(&view),
        );
        accum.reset();
        accum.per_function[0] = 1;
        accum.per_function[2] = 1;
        ctl.tick(
            &mut incremental,
            &mut scratch,
            &obs_with(&accum, &offsets, 0.1),
            std::slice::from_ref(&view),
        );

        // Reconstruction: a fresh scratch (as a replay resumed from a
        // snapshot holds) sees the same second tick after carrying only
        // the state — the observation log plus its batch partition.
        let mut carried = ctl.init(AdmissionPolicy::Greedy, 1);
        carried.observed = vec![vec![1]];
        carried.observed_batches = vec![vec![1]];
        carried.orders = {
            let mut s = ctl.init(AdmissionPolicy::Greedy, 1);
            let mut sc = ControlScratch::default();
            let mut a = ObsAccum::zero(4);
            a.per_function[1] = 1;
            ctl.tick(
                &mut s,
                &mut sc,
                &obs_with(&a, &offsets, 0.1),
                std::slice::from_ref(&view),
            );
            s.orders
        };
        let mut fresh_scratch = ControlScratch::default();
        accum.reset();
        accum.per_function[0] = 1;
        accum.per_function[2] = 1;
        ctl.tick(
            &mut carried,
            &mut fresh_scratch,
            &obs_with(&accum, &offsets, 0.1),
            std::slice::from_ref(&view),
        );
        assert!(
            control_state_eq(&incremental, &carried),
            "reconstructed state diverged:\n{incremental:?}\nvs\n{carried:?}"
        );
    }

    #[test]
    fn configs_validate_and_label() {
        assert!(ControlConfig::default().validate().is_ok());
        assert_eq!(ControllerConfig::Static.build().name(), "static");
        assert_eq!(
            ControllerConfig::HeadroomPid(PidConfig::default())
                .build()
                .name(),
            "pid"
        );
        assert_eq!(
            ControllerConfig::SurrogateRightSizer(RightSizerConfig::default())
                .build()
                .name(),
            "right_sizer"
        );
        assert!(ControlConfig {
            cadence_secs: 0.0,
            ..ControlConfig::default()
        }
        .validate()
        .is_err());
        assert!(ControlConfig {
            cadence_secs: f64::NAN,
            ..ControlConfig::default()
        }
        .validate()
        .is_err());
        assert!(ControllerConfig::HeadroomPid(PidConfig {
            min_ceiling: 0.9,
            max_ceiling: 0.5,
            ..PidConfig::default()
        })
        .validate()
        .is_err());
        assert!(ControllerConfig::HeadroomPid(PidConfig {
            kp: f64::INFINITY,
            ..PidConfig::default()
        })
        .validate()
        .is_err());
        assert!(ControllerConfig::SurrogateRightSizer(RightSizerConfig {
            planner: PlannerConfig {
                theta: -0.1,
                ..PlannerConfig::default()
            },
            ..RightSizerConfig::default()
        })
        .validate()
        .is_err());
    }

    #[test]
    fn control_state_equality_is_bitwise() {
        let a = ControlState::passthrough(AdmissionPolicy::Headroom {
            max_utilization: 0.8,
        });
        let mut b = a.clone();
        assert!(control_state_eq(&a, &b));
        b.integral = 1e-300;
        assert!(!control_state_eq(&a, &b));
        b = a.clone();
        b.admission = AdmissionPolicy::Greedy;
        assert!(!control_state_eq(&a, &b));
        b = a.clone();
        b.orders = vec![Some(vec![1])];
        assert!(!control_state_eq(&a, &b));
        b = a.clone();
        b.observed_batches = vec![vec![2]];
        assert!(
            !control_state_eq(&a, &b),
            "the batch partition is carried state"
        );
        b = a.clone();
        b.brownout = true;
        assert!(!control_state_eq(&a, &b), "brownout mode is carried state");
        assert_eq!(admission_ceiling(&AdmissionPolicy::Greedy), f64::INFINITY);
    }

    #[test]
    fn brownout_enters_at_pressure_and_exits_with_hysteresis() {
        let cfg = BrownoutConfig {
            enter_pressure: 0.5,
            exit_pressure: 0.2,
            utilization_ceiling: 0.6,
        };
        let mut state = ControlState::passthrough(AdmissionPolicy::Greedy);
        let mut accum = ObsAccum::zero(1);

        // Calm epoch: stays out.
        accum.spot_admitted = 10;
        accum.retried = 2;
        update_brownout(&mut state, &accum, &cfg);
        assert!(!state.brownout, "0.2 pressure is below the 0.5 entry");

        // Storm epoch: enters.
        accum.retried = 5;
        update_brownout(&mut state, &accum, &cfg);
        assert!(state.brownout);

        // Pressure back inside the hysteresis band: still browned out.
        accum.retried = 3;
        update_brownout(&mut state, &accum, &cfg);
        assert!(state.brownout, "0.3 is above the 0.2 exit — must hold");

        // Recovery below the exit threshold releases the mode.
        accum.retried = 1;
        update_brownout(&mut state, &accum, &cfg);
        assert!(!state.brownout);

        // An epoch with zero admissions uses the max(1) denominator
        // rather than dividing by zero.
        let mut empty = ObsAccum::zero(1);
        empty.retried = 1;
        update_brownout(&mut state, &empty, &cfg);
        assert!(state.brownout, "1 retry over 0 admissions is pressure 1.0");
    }
}
