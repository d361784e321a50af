//! Invocation-level retry semantics for the fleet replay.
//!
//! When a spot attempt hits a transient fault
//! ([`crate::faults::TransientFault`]), the platform does not surface the
//! failure — it re-executes the invocation. This module is the *policy*
//! half of that machinery: [`RetryPolicy`] names the backoff curve,
//! attempt cap, per-family retry budget, hedging delay, and brownout
//! thresholds as plain data, and `RetryBudget` / `PendingRetry` are
//! the carried state the replay threads across epoch boundaries.
//! Everything here is a pure function of `(policy, invocation identity,
//! simulated time)`:
//!
//! - **Backoff** is exponential with *seeded* jitter: the delay before
//!   attempt `k` is `base * 2^(k-2)` capped at `backoff_cap_secs`, then
//!   scaled by a deterministic per-`(seed, idx, attempt)` hash draw —
//!   never a wall-clock or shared-RNG quantity, so a resumed replay
//!   schedules the identical retry instant.
//! - **Budgets** are token buckets *in simulated time*: each instance
//!   family refills at `budget_per_sec` up to `budget_burst`, and every
//!   retry admission spends one token. Refill is lazy fixed-point
//!   integer math on the bucket's own last-refill timestamp, so the
//!   token sequence depends only on the (deterministic) sequence of
//!   spend instants — not on epoch boundaries.
//! - **Hedging** re-issues a straggler's work after `hedge_delay_secs`
//!   and lets the copies race; the winner defines the invocation's
//!   latency. Hedges spend no retry budget and never fault.
//! - **Brownout** is the graceful-degradation mode: when the per-epoch
//!   retry pressure (retried / admitted) crosses
//!   [`BrownoutConfig::enter_pressure`], the control plane sheds retries
//!   before fresh arrivals and tightens the admission ceiling, exiting
//!   only when pressure falls below the (lower) `exit_pressure` —
//!   hysteresis, so the mode cannot flap every epoch.
//!
//! The engine half — how retries re-enter admission as first-class
//! simulated-time events in the replay's one event calendar
//! (`wheel.rs`), ordered `completion < step < notice < retry <
//! tick` at one instant — lives in [`crate::fleet`]; the contract is
//! documented in `crates/core/README.md` ("The retry contract").

use crate::faults::{mix, unit};
use crate::{FreedomError, Result};

/// Seed salt for the backoff-jitter stream, distinct from the
/// transient-fault salt so jitter never correlates with fault draws.
pub(crate) const JITTER_SALT: u64 = 0xd6e8_feb8_6659_fd93;

/// Fixed-point scale for budget tokens: one retry costs `MICRO_TOKEN`.
pub(crate) const MICRO_TOKEN: u64 = 1_000_000;

/// A retry event re-entering admission (kind 0).
pub(crate) const KIND_RETRY: u8 = 0;
/// A hedged re-issue racing a straggler (kind 1).
pub(crate) const KIND_HEDGE: u8 = 1;

/// Brownout thresholds: the hysteresis band on retry pressure plus the
/// tightened utilization ceiling applied to fresh arrivals while the
/// mode is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Enter brownout when `retried / max(spot_admitted, 1)` over the
    /// last control epoch reaches this value.
    pub enter_pressure: f64,
    /// Exit brownout when the pressure falls strictly below this value.
    /// Must be `< enter_pressure` — the gap is the hysteresis band.
    pub exit_pressure: f64,
    /// While browned out, fresh arrivals are policy-rejected whenever
    /// market utilization is at or above this ceiling (in `[0, 1]`),
    /// on top of whatever the active admission policy decides.
    pub utilization_ceiling: f64,
}

impl BrownoutConfig {
    fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("enter_pressure", self.enter_pressure),
            ("exit_pressure", self.exit_pressure),
            ("utilization_ceiling", self.utilization_ceiling),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(FreedomError::InvalidArgument(format!(
                    "BrownoutConfig.{name} must be finite and >= 0, got {v}"
                )));
            }
        }
        if self.exit_pressure >= self.enter_pressure {
            return Err(FreedomError::InvalidArgument(format!(
                "BrownoutConfig.exit_pressure ({}) must be < enter_pressure ({}) for hysteresis",
                self.exit_pressure, self.enter_pressure
            )));
        }
        if self.utilization_ceiling > 1.0 {
            return Err(FreedomError::InvalidArgument(
                "BrownoutConfig.utilization_ceiling must be in [0, 1]".into(),
            ));
        }
        Ok(())
    }
}

/// The retry policy: pure configuration naming how the platform absorbs
/// transient faults. Attempts are 1-based and capped at `max_attempts`
/// *total executions* (the first attempt included); when the cap or the
/// family budget is exhausted the invocation is dead-lettered instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total execution attempts allowed per invocation (>= 1; 1 means
    /// transient failures dead-letter immediately). At most 16.
    pub max_attempts: u8,
    /// Base backoff before the first retry, seconds.
    pub backoff_base_secs: f64,
    /// Ceiling on the exponential backoff, seconds.
    pub backoff_cap_secs: f64,
    /// Jitter width in `[0, 1]`: the delay is scaled by a seeded draw
    /// from `[1 - jitter_frac, 1]`, so 0 disables jitter.
    pub jitter_frac: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
    /// Token-bucket refill rate per instance family, retries per
    /// simulated second.
    pub budget_per_sec: f64,
    /// Token-bucket capacity per family (burst), in retries.
    pub budget_burst: f64,
    /// Delay before hedging a straggler, seconds; 0 disables hedging.
    pub hedge_delay_secs: f64,
    /// Brownout thresholds; `None` disables the mode.
    pub brownout: Option<BrownoutConfig>,
}

impl RetryPolicy {
    /// A conservative default: 3 attempts, 1 s base backoff capped at
    /// 30 s with 50% jitter, 5 retries/s/family refill with a burst of
    /// 20, hedging and brownout off.
    pub const DEFAULT: RetryPolicy = RetryPolicy {
        max_attempts: 3,
        backoff_base_secs: 1.0,
        backoff_cap_secs: 30.0,
        jitter_frac: 0.5,
        seed: 0x5e7_21e5,
        budget_per_sec: 5.0,
        budget_burst: 20.0,
        hedge_delay_secs: 0.0,
        brownout: None,
    };

    /// Validates every field.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 || self.max_attempts > 16 {
            return Err(FreedomError::InvalidArgument(format!(
                "RetryPolicy.max_attempts must be in [1, 16], got {}",
                self.max_attempts
            )));
        }
        let nonneg = [
            ("backoff_base_secs", self.backoff_base_secs),
            ("backoff_cap_secs", self.backoff_cap_secs),
            ("budget_per_sec", self.budget_per_sec),
            ("budget_burst", self.budget_burst),
            ("hedge_delay_secs", self.hedge_delay_secs),
        ];
        for (name, v) in nonneg {
            if !v.is_finite() || v < 0.0 {
                return Err(FreedomError::InvalidArgument(format!(
                    "RetryPolicy.{name} must be finite and >= 0, got {v}"
                )));
            }
        }
        if !self.jitter_frac.is_finite() || !(0.0..=1.0).contains(&self.jitter_frac) {
            return Err(FreedomError::InvalidArgument(format!(
                "RetryPolicy.jitter_frac must be in [0, 1], got {}",
                self.jitter_frac
            )));
        }
        if let Some(b) = &self.brownout {
            b.validate()?;
        }
        Ok(())
    }

    /// Backoff delay (nanoseconds, >= 1) before `attempt` executes.
    ///
    /// `attempt` is the attempt about to be scheduled (so >= 2); the
    /// exponential ordinal is `attempt - 2`. Jitter is a stateless hash
    /// of `(seed, idx, attempt)` scaling the delay into
    /// `[delay * (1 - jitter_frac), delay]`.
    pub fn backoff_nanos(&self, idx: u32, attempt: u8) -> u64 {
        let ordinal = u32::from(attempt.saturating_sub(2));
        let exp = if ordinal >= 63 {
            f64::MAX
        } else {
            (1u64 << ordinal) as f64
        };
        let raw = (self.backoff_base_secs * exp).min(self.backoff_cap_secs);
        let mut h = mix(self.seed ^ JITTER_SALT);
        h = mix(h ^ u64::from(idx));
        h = mix(h ^ u64::from(attempt));
        let scale = 1.0 - self.jitter_frac * unit(h);
        ((raw * scale * 1e9) as u64).max(1)
    }

    /// Refill rate in micro-tokens per simulated second.
    pub(crate) fn rate_micro(&self) -> u64 {
        (self.budget_per_sec * MICRO_TOKEN as f64) as u64
    }

    /// Bucket capacity in micro-tokens.
    pub(crate) fn burst_micro(&self) -> u64 {
        (self.budget_burst * MICRO_TOKEN as f64) as u64
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::DEFAULT
    }
}

/// One pending retry (or hedge) event, scheduled in simulated time.
///
/// These are first-class events in the replay's event calendar: within
/// one instant it orders event kinds `completion < step < notice <
/// retry < tick`, and pending entries that outlive an epoch are
/// carried — drained in [`PendingRetry::key`] order — into the next
/// one, so the epoch chain fires them bit-identically to the single
/// pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingRetry {
    /// Fire instant, simulated nanoseconds.
    pub at_nanos: u64,
    /// Global arrival index of the invocation being re-issued.
    pub idx: u32,
    /// Function index (admission needs the plan row).
    pub function: u32,
    /// Attempt number this event will start (1-based; >= 2 for retries).
    pub attempt: u8,
    /// [`KIND_RETRY`] or [`KIND_HEDGE`].
    pub kind: u8,
    /// Instance family whose budget the retry spends (the family the
    /// faulted attempt was placed on).
    pub family: u8,
    /// Original arrival instant, for end-to-end inflation accounting.
    pub arrival_nanos: u64,
    /// For hedges: the straggler's completion instant the hedge races.
    pub orig_completion_nanos: u64,
}

impl PendingRetry {
    /// Total order among retries and hedges: their tie-break within one
    /// instant of the event calendar, and the order they carry over in.
    pub fn key(&self) -> (u64, u32, u8, u8) {
        (self.at_nanos, self.idx, self.attempt, self.kind)
    }
}

/// Per-family retry token buckets in simulated time.
///
/// Mutable state carried across epochs: tokens refill lazily on access
/// from each bucket's own `last_refill` timestamp using integer
/// micro-token arithmetic, so the balance sequence is a pure function of
/// the spend instants regardless of epoch partitioning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RetryBudget {
    /// Current balance per family, micro-tokens.
    pub tokens: Vec<u64>,
    /// Simulated instant each bucket last refilled.
    pub last_refill: Vec<u64>,
}

impl RetryBudget {
    /// Full buckets at t=0.
    pub fn new(policy: &RetryPolicy, n_families: usize) -> RetryBudget {
        RetryBudget {
            tokens: vec![policy.burst_micro(); n_families],
            last_refill: vec![0; n_families],
        }
    }

    /// Refills `family` up to `now_nanos` and spends one token if the
    /// balance covers it. Returns whether the retry may proceed.
    pub fn try_spend(&mut self, family: usize, now_nanos: u64, policy: &RetryPolicy) -> bool {
        let burst = policy.burst_micro();
        let elapsed = now_nanos.saturating_sub(self.last_refill[family]);
        let refill = (u128::from(policy.rate_micro()) * u128::from(elapsed) / 1_000_000_000) as u64;
        self.tokens[family] = self.tokens[family].saturating_add(refill).min(burst);
        self.last_refill[family] = now_nanos;
        if self.tokens[family] >= MICRO_TOKEN {
            self.tokens[family] -= MICRO_TOKEN;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_caps_and_jitters_deterministically() {
        let p = RetryPolicy {
            jitter_frac: 0.0,
            ..RetryPolicy::DEFAULT
        };
        assert_eq!(p.backoff_nanos(0, 2), 1_000_000_000);
        assert_eq!(p.backoff_nanos(0, 3), 2_000_000_000);
        assert_eq!(p.backoff_nanos(0, 4), 4_000_000_000);
        assert_eq!(p.backoff_nanos(0, 9), 30_000_000_000, "capped at 30s");

        let j = RetryPolicy {
            jitter_frac: 0.5,
            ..RetryPolicy::DEFAULT
        };
        for idx in 0..200u32 {
            let d = j.backoff_nanos(idx, 2);
            assert_eq!(d, j.backoff_nanos(idx, 2), "jitter must be seeded");
            assert!((500_000_000..=1_000_000_000).contains(&d), "got {d}");
        }
        let spread = (0..200u32).any(|i| j.backoff_nanos(i, 2) != j.backoff_nanos(i + 200, 2));
        assert!(spread, "jitter should vary across invocations");
    }

    #[test]
    fn budget_refills_in_simulated_time_and_rejects_when_dry() {
        let p = RetryPolicy {
            budget_per_sec: 2.0,
            budget_burst: 2.0,
            ..RetryPolicy::DEFAULT
        };
        let mut b = RetryBudget::new(&p, 2);
        // Burst of 2 at t=0, then dry.
        assert!(b.try_spend(0, 0, &p));
        assert!(b.try_spend(0, 0, &p));
        assert!(!b.try_spend(0, 0, &p));
        // Families are independent.
        assert!(b.try_spend(1, 0, &p));
        // Half a second refills one token at 2/s.
        assert!(b.try_spend(0, 500_000_000, &p));
        assert!(!b.try_spend(0, 500_000_000, &p));
        // A long idle stretch caps at the burst, not the elapsed time.
        assert!(b.try_spend(0, 3_600_000_000_000, &p));
        assert!(b.try_spend(0, 3_600_000_000_000, &p));
        assert!(!b.try_spend(0, 3_600_000_000_000, &p));
        // The whole walk is reproducible.
        let mut c = RetryBudget::new(&p, 2);
        let plays: Vec<bool> = [0u64, 0, 0, 500_000_000, 3_600_000_000_000]
            .iter()
            .map(|&t| c.try_spend(0, t, &p))
            .collect();
        assert_eq!(plays, vec![true, true, false, true, true]);
    }

    #[test]
    fn pending_retries_order_by_time_then_identity() {
        let base = PendingRetry {
            at_nanos: 10,
            idx: 5,
            function: 1,
            attempt: 2,
            kind: KIND_RETRY,
            family: 0,
            arrival_nanos: 0,
            orig_completion_nanos: 0,
        };
        let later = PendingRetry {
            at_nanos: 11,
            ..base
        };
        let hedge = PendingRetry {
            kind: KIND_HEDGE,
            ..base
        };
        assert!(base.key() < later.key());
        assert!(
            base.key() < hedge.key(),
            "retry fires before hedge at one instant"
        );
        let mut v = vec![later, hedge, base];
        v.sort_by_key(PendingRetry::key);
        assert_eq!(v, vec![base, hedge, later]);
    }

    #[test]
    fn invalid_policies_are_rejected() {
        assert!(RetryPolicy::DEFAULT.validate().is_ok());
        let mut p = RetryPolicy::DEFAULT;
        p.max_attempts = 0;
        assert!(p.validate().is_err());
        let mut p = RetryPolicy::DEFAULT;
        p.max_attempts = 17;
        assert!(p.validate().is_err());
        let mut p = RetryPolicy::DEFAULT;
        p.jitter_frac = 1.5;
        assert!(p.validate().is_err());
        let mut p = RetryPolicy::DEFAULT;
        p.backoff_base_secs = -1.0;
        assert!(p.validate().is_err());
        let mut p = RetryPolicy::DEFAULT;
        p.brownout = Some(BrownoutConfig {
            enter_pressure: 0.3,
            exit_pressure: 0.3,
            utilization_ceiling: 0.5,
        });
        assert!(p.validate().is_err(), "no hysteresis band");
        p.brownout = Some(BrownoutConfig {
            enter_pressure: 0.5,
            exit_pressure: 0.2,
            utilization_ceiling: 0.6,
        });
        assert!(p.validate().is_ok());
    }
}
