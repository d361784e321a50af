//! Seeded fault-injection plans for the fleet replay.
//!
//! A [`FaultPlan`] describes failure-domain events — whole-zone outages,
//! fleet-wide supply-shock bursts, and dropped preemption-notice
//! deliveries — as a *pure function of its seed*. Faults are never wall
//! clock callbacks or out-of-band mutations: the plan expands into a
//! [`FaultTimeline`] of simulated-time intervals that
//! the market's `SupplySchedule::generate` composes into the same
//! precomputed supply timeline every replay walks. Because the composed
//! schedule is immutable state shared by `run()`, the streaming replay
//! and every epoch of a resumable one, the determinism lattice
//! (materialized ≡ streaming ≡ epoch chain, bit-identical for every
//! epoch size × controller) holds with faults enabled by construction.
//!
//! Per-invocation *transient* faults (crash-on-start, mid-flight abort,
//! straggler slowdown) ride the same contract from the other direction:
//! instead of expanding into a timeline up front, each spot attempt
//! draws its fault as a stateless hash of `(seed, function, arrival
//! index, attempt)` — see [`FaultPlan::fault_for`] — so the retry layer
//! in [`crate::fleet`] replays the identical failure script no matter
//! how a resumable replay partitions the trace into epochs.

use crate::{FreedomError, Result};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Guard against pathological plans (e.g. a huge rate over a long
/// horizon) expanding into an event count that would dwarf the trace.
const MAX_FAULT_EVENTS: usize = 1 << 20;

/// Seed salt for the notice-delivery drop stream, kept distinct from the
/// interval streams so adding drops never perturbs outage placement.
pub(crate) const NOTICE_DROP_SALT: u64 = 0xa076_1d64_78bd_642f;

/// Seed salt for the per-invocation transient-fault stream. Transient
/// faults are drawn *statelessly* — a hash of `(seed, function, arrival
/// index, attempt)` rather than a sequential RNG walk — so a replay that
/// sees arrivals partitioned across epochs draws the exact same fault
/// for every attempt as the single pass.
pub(crate) const TRANSIENT_SALT: u64 = 0x2545_f491_4f6c_dd1d;

/// A seeded description of the failure events to inject into a replay.
///
/// All rates are Poisson (exponential gaps), all durations exponential
/// with the given mean; the expansion is a pure function of `seed`, so a
/// `FaultPlan` value fully names a fault scenario. [`FaultPlan::NONE`]
/// (the [`Default`]) injects nothing and leaves every schedule
/// bit-identical to the fault-free build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault stream derived from this plan.
    pub seed: u64,
    /// Whole-zone outages per zone-hour (capacity pinned to zero).
    pub outage_rate_per_hour: f64,
    /// Mean outage duration in seconds.
    pub mean_outage_secs: f64,
    /// Fraction of preemption notices whose delivery is dropped
    /// (in `[0, 1]`): the affected step withdraws without warning.
    pub notice_drop_fraction: f64,
    /// Fleet-wide supply-shock bursts per hour (all zones lose a
    /// `burst_severity` fraction of capacity for the burst's duration).
    pub burst_rate_per_hour: f64,
    /// Mean burst duration in seconds.
    pub mean_burst_secs: f64,
    /// Fractional capacity cut applied while a burst is active
    /// (in `[0, 1]`; caps are floored, so small slots can hit zero).
    pub burst_severity: f64,
    /// Per-attempt probability that a spot placement crashes before it
    /// starts (sandbox init failure): nothing runs, nothing is billed,
    /// and the retry layer re-admits the invocation after backoff.
    pub crash_prob: f64,
    /// Per-attempt probability that a spot execution aborts mid-flight
    /// at a seeded fraction of its duration. The partial run bills at
    /// the admitted spot price before the retry layer takes over.
    pub abort_prob: f64,
    /// Per-attempt probability that a spot execution straggles: it
    /// completes, but `straggler_factor` slower than planned. Stragglers
    /// are the hedging target — they finish eventually, so a hedged
    /// re-issue can race them instead of waiting.
    pub straggler_prob: f64,
    /// Duration multiplier applied to straggler attempts (>= 1). A
    /// replay rejects a factor that stretches its fleet's longest spot
    /// run past 2^62 ns.
    pub straggler_factor: f64,
}

/// One transient per-invocation fault, drawn for a single spot attempt.
///
/// On-demand placements never fault: the paper's premise is that the
/// *cheap* capacity is the unreliable capacity, and the platform absorbs
/// its failures through retries rather than surfacing them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransientFault {
    /// The attempt crashes before starting; zero occupancy, zero bill.
    CrashOnStart,
    /// The attempt aborts after running `at_fraction` of its duration.
    MidFlightAbort {
        /// Fraction of the planned duration that elapses before the
        /// abort, in `(0, 1)`.
        at_fraction: f64,
    },
    /// The attempt completes, but `factor` slower than planned.
    Straggler {
        /// Duration multiplier (>= 1).
        factor: f64,
    },
}

/// splitmix64 finisher: the avalanche stage used by every stateless
/// per-event draw in this module (and by the retry layer's jitter).
pub(crate) fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps the top 53 bits of a hash onto `[0, 1)`.
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// The inert plan: no outages, no bursts, no dropped notices.
    pub const NONE: FaultPlan = FaultPlan {
        seed: 0,
        outage_rate_per_hour: 0.0,
        mean_outage_secs: 0.0,
        notice_drop_fraction: 0.0,
        burst_rate_per_hour: 0.0,
        mean_burst_secs: 0.0,
        burst_severity: 0.0,
        crash_prob: 0.0,
        abort_prob: 0.0,
        straggler_prob: 0.0,
        straggler_factor: 0.0,
    };

    /// Whether this plan injects any *supply-side* faults (outages,
    /// bursts, dropped notices). Transient per-invocation faults are
    /// gated separately by [`FaultPlan::has_transient`].
    pub fn is_active(&self) -> bool {
        self.outage_rate_per_hour > 0.0
            || self.burst_rate_per_hour > 0.0
            || self.notice_drop_fraction > 0.0
    }

    /// Whether this plan injects per-invocation transient faults.
    pub fn has_transient(&self) -> bool {
        self.crash_prob > 0.0 || self.abort_prob > 0.0 || self.straggler_prob > 0.0
    }

    /// Draws the transient fault (if any) for one spot attempt.
    ///
    /// Stateless and pure in `(seed, function, idx, attempt)`: the draw
    /// hashes the attempt's identity instead of consuming a sequential
    /// RNG stream, so the draw depends on nothing but the attempt — not
    /// on the order attempts are drawn in, nor on where an epoch
    /// boundary falls. `attempt` is 1-based; a retried invocation rolls a
    /// fresh, independent fault on each attempt.
    ///
    /// The identity packs into one word — `idx` in the low 32 bits,
    /// `attempt` above it, `function` in the high bits — finished by a
    /// single avalanche round: this draw sits on the per-placement hot
    /// path of the replay engines, and one `mix` of a packed distinct
    /// input is the same construction (and statistical quality) as a
    /// SplitMix64 output step.
    pub fn fault_for(&self, function: u32, idx: u32, attempt: u8) -> Option<TransientFault> {
        if !self.has_transient() {
            return None;
        }
        let packed = u64::from(idx) | (u64::from(attempt) << 32) | (u64::from(function) << 40);
        let h = mix(self.seed ^ TRANSIENT_SALT ^ packed);
        let u = unit(h);
        if u < self.crash_prob {
            return Some(TransientFault::CrashOnStart);
        }
        if u < self.crash_prob + self.abort_prob {
            // Second independent draw for where in the run the abort
            // lands, kept away from the endpoints.
            let at_fraction = 0.10 + 0.80 * unit(mix(h));
            return Some(TransientFault::MidFlightAbort { at_fraction });
        }
        if u < self.crash_prob + self.abort_prob + self.straggler_prob {
            return Some(TransientFault::Straggler {
                factor: self.straggler_factor,
            });
        }
        None
    }

    /// Validates rates, durations, and fractions.
    pub fn validate(&self) -> Result<()> {
        let nonneg = [
            ("outage_rate_per_hour", self.outage_rate_per_hour),
            ("mean_outage_secs", self.mean_outage_secs),
            ("burst_rate_per_hour", self.burst_rate_per_hour),
            ("mean_burst_secs", self.mean_burst_secs),
        ];
        for (name, v) in nonneg {
            if !v.is_finite() || v < 0.0 {
                return Err(FreedomError::InvalidArgument(format!(
                    "FaultPlan.{name} must be finite and >= 0, got {v}"
                )));
            }
        }
        for (name, v) in [
            ("notice_drop_fraction", self.notice_drop_fraction),
            ("burst_severity", self.burst_severity),
        ] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(FreedomError::InvalidArgument(format!(
                    "FaultPlan.{name} must be in [0, 1], got {v}"
                )));
            }
        }
        if self.outage_rate_per_hour > 0.0 && self.mean_outage_secs <= 0.0 {
            return Err(FreedomError::InvalidArgument(
                "FaultPlan.mean_outage_secs must be > 0 when outages are enabled".into(),
            ));
        }
        if self.burst_rate_per_hour > 0.0 && self.mean_burst_secs <= 0.0 {
            return Err(FreedomError::InvalidArgument(
                "FaultPlan.mean_burst_secs must be > 0 when bursts are enabled".into(),
            ));
        }
        for (name, v) in [
            ("crash_prob", self.crash_prob),
            ("abort_prob", self.abort_prob),
            ("straggler_prob", self.straggler_prob),
        ] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(FreedomError::InvalidArgument(format!(
                    "FaultPlan.{name} must be in [0, 1], got {v}"
                )));
            }
        }
        if self.crash_prob + self.abort_prob + self.straggler_prob > 1.0 {
            return Err(FreedomError::InvalidArgument(
                "FaultPlan transient fault probabilities must sum to <= 1".into(),
            ));
        }
        if self.straggler_prob > 0.0
            && !(self.straggler_factor.is_finite() && self.straggler_factor >= 1.0)
        {
            return Err(FreedomError::InvalidArgument(format!(
                "FaultPlan.straggler_factor must be finite and >= 1 when stragglers are enabled, got {}",
                self.straggler_factor
            )));
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

/// One whole-zone capacity outage: `zone` holds zero capacity on
/// `[start_nanos, end_nanos)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneOutage {
    /// Index of the affected zone.
    pub zone: usize,
    /// Inclusive start of the outage, simulated nanoseconds.
    pub start_nanos: u64,
    /// Exclusive end of the outage.
    pub end_nanos: u64,
}

/// One fleet-wide supply-shock burst: every zone's caps are cut by
/// `severity` on `[start_nanos, end_nanos)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShockBurst {
    /// Inclusive start of the burst, simulated nanoseconds.
    pub start_nanos: u64,
    /// Exclusive end of the burst.
    pub end_nanos: u64,
    /// Fractional capacity cut while active (in `[0, 1]`).
    pub severity: f64,
}

/// A [`FaultPlan`] expanded over a concrete horizon: sorted outage and
/// burst intervals, ready to compose into a supply schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTimeline {
    /// Zone outages, sorted by zone then start (non-overlapping per zone).
    pub outages: Vec<ZoneOutage>,
    /// Fleet-wide bursts, sorted by start (non-overlapping).
    pub bursts: Vec<ShockBurst>,
}

/// Draws an exponential interval with the given mean (nanoseconds),
/// at least 1 ns so consecutive events never collapse onto one instant.
fn exp_nanos(rng: &mut StdRng, mean_nanos: f64) -> u64 {
    let u: f64 = rng.gen();
    let draw = -(1.0 - u).ln() * mean_nanos;
    (draw as u64).max(1)
}

impl FaultTimeline {
    /// Expands `plan` over `[0, horizon_nanos)` for `n_zones` zones.
    ///
    /// Pure in `(plan, n_zones, horizon_nanos)`: zone outage streams are
    /// drawn per zone in zone order, then the burst stream, all from one
    /// generator seeded with `plan.seed` — so the same plan yields the
    /// same timeline on every engine and every run.
    pub fn generate(plan: &FaultPlan, n_zones: usize, horizon_nanos: u64) -> Result<FaultTimeline> {
        plan.validate()?;
        let mut timeline = FaultTimeline::default();
        if !plan.is_active() || horizon_nanos == 0 {
            return Ok(timeline);
        }
        let mut rng = StdRng::seed_from_u64(plan.seed);
        if plan.outage_rate_per_hour > 0.0 {
            let mean_gap = 3_600e9 / plan.outage_rate_per_hour;
            let mean_len = plan.mean_outage_secs * 1e9;
            for zone in 0..n_zones {
                let mut t = 0u64;
                loop {
                    t = t.saturating_add(exp_nanos(&mut rng, mean_gap));
                    if t >= horizon_nanos {
                        break;
                    }
                    let end = t.saturating_add(exp_nanos(&mut rng, mean_len));
                    timeline.outages.push(ZoneOutage {
                        zone,
                        start_nanos: t,
                        end_nanos: end,
                    });
                    if timeline.outages.len() > MAX_FAULT_EVENTS {
                        return Err(FreedomError::InvalidArgument(
                            "FaultPlan expands into too many outage events".into(),
                        ));
                    }
                    // Resume the gap draw after the outage: intervals
                    // within one zone never overlap.
                    t = end;
                }
            }
        }
        if plan.burst_rate_per_hour > 0.0 {
            let mean_gap = 3_600e9 / plan.burst_rate_per_hour;
            let mean_len = plan.mean_burst_secs * 1e9;
            let mut t = 0u64;
            loop {
                t = t.saturating_add(exp_nanos(&mut rng, mean_gap));
                if t >= horizon_nanos {
                    break;
                }
                let end = t.saturating_add(exp_nanos(&mut rng, mean_len));
                timeline.bursts.push(ShockBurst {
                    start_nanos: t,
                    end_nanos: end,
                    severity: plan.burst_severity,
                });
                if timeline.bursts.len() > MAX_FAULT_EVENTS {
                    return Err(FreedomError::InvalidArgument(
                        "FaultPlan expands into too many burst events".into(),
                    ));
                }
                t = end;
            }
        }
        Ok(timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            outage_rate_per_hour: 6.0,
            mean_outage_secs: 40.0,
            notice_drop_fraction: 0.25,
            burst_rate_per_hour: 4.0,
            mean_burst_secs: 20.0,
            burst_severity: 0.5,
            crash_prob: 0.02,
            abort_prob: 0.03,
            straggler_prob: 0.05,
            straggler_factor: 3.0,
        }
    }

    #[test]
    fn timeline_is_a_pure_function_of_the_seed() {
        let horizon = 3_600_000_000_000; // one hour
        let a = FaultTimeline::generate(&active_plan(7), 3, horizon).unwrap();
        let b = FaultTimeline::generate(&active_plan(7), 3, horizon).unwrap();
        assert_eq!(a, b);
        assert!(!a.outages.is_empty());
        assert!(!a.bursts.is_empty());
        let c = FaultTimeline::generate(&active_plan(8), 3, horizon).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn intervals_start_inside_the_horizon_and_never_overlap_per_zone() {
        let horizon = 7_200_000_000_000;
        let t = FaultTimeline::generate(&active_plan(11), 4, horizon).unwrap();
        for o in &t.outages {
            assert!(o.start_nanos < horizon);
            assert!(o.end_nanos > o.start_nanos);
        }
        for pair in t.outages.windows(2) {
            if pair[0].zone == pair[1].zone {
                assert!(pair[0].end_nanos <= pair[1].start_nanos);
            }
        }
        for pair in t.bursts.windows(2) {
            assert!(pair[0].end_nanos <= pair[1].start_nanos);
        }
    }

    #[test]
    fn inert_plan_expands_to_nothing() {
        let t = FaultTimeline::generate(&FaultPlan::NONE, 8, u64::MAX / 2).unwrap();
        assert!(t.outages.is_empty() && t.bursts.is_empty());
        assert!(!FaultPlan::NONE.is_active());
        assert_eq!(FaultPlan::default(), FaultPlan::NONE);
    }

    #[test]
    fn transient_draws_are_stateless_and_track_their_probabilities() {
        let plan = FaultPlan {
            seed: 33,
            crash_prob: 0.10,
            abort_prob: 0.15,
            straggler_prob: 0.20,
            straggler_factor: 4.0,
            ..FaultPlan::NONE
        };
        assert!(plan.has_transient() && !plan.is_active());
        let (mut crash, mut abort, mut straggle) = (0u32, 0u32, 0u32);
        const N: u32 = 20_000;
        for idx in 0..N {
            let f = plan.fault_for(idx % 7, idx, 1);
            assert_eq!(f, plan.fault_for(idx % 7, idx, 1), "draws must be pure");
            match f {
                Some(TransientFault::CrashOnStart) => crash += 1,
                Some(TransientFault::MidFlightAbort { at_fraction }) => {
                    assert!((0.10..0.90).contains(&at_fraction));
                    abort += 1;
                }
                Some(TransientFault::Straggler { factor }) => {
                    assert_eq!(factor, 4.0);
                    straggle += 1;
                }
                None => {}
            }
        }
        for (hits, expect) in [(crash, 0.10), (abort, 0.15), (straggle, 0.20)] {
            let rate = f64::from(hits) / f64::from(N);
            assert!(
                (rate - expect).abs() < 0.02,
                "rate {rate} too far from {expect}"
            );
        }
        // Fresh attempts re-roll: the same invocation must not be doomed
        // to the identical fault forever.
        let differs = (0..N).any(|idx| plan.fault_for(0, idx, 1) != plan.fault_for(0, idx, 2));
        assert!(differs);
        assert_eq!(FaultPlan::NONE.fault_for(1, 2, 1), None);
        assert!(!FaultPlan::NONE.has_transient());
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let mut p = active_plan(1);
        p.burst_severity = 1.5;
        assert!(p.validate().is_err());
        let mut p = active_plan(1);
        p.notice_drop_fraction = -0.1;
        assert!(p.validate().is_err());
        let mut p = active_plan(1);
        p.mean_outage_secs = 0.0;
        assert!(p.validate().is_err());
        let mut p = active_plan(1);
        p.outage_rate_per_hour = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = active_plan(1);
        p.crash_prob = 1.2;
        assert!(p.validate().is_err());
        let mut p = active_plan(1);
        p.crash_prob = 0.5;
        p.abort_prob = 0.4;
        p.straggler_prob = 0.3;
        assert!(p.validate().is_err());
        let mut p = active_plan(1);
        p.straggler_factor = 0.5;
        assert!(p.validate().is_err());
    }
}
