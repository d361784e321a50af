//! The shared cross-function spot market: supply process, capacity
//! ledger, and admission controller.
//!
//! The per-function warm pools of the earlier fleet model made sharding
//! exact but assumed every function owns private idle capacity. Real
//! providers harvest a *shared, fluctuating* pool ("Accelerating
//! Serverless Computing by Harvesting Idle Resources", "Serverless in
//! the Wild"): functions contend for the same idle VMs, supply grows and
//! shrinks as the provider's first-party load moves, and placements can
//! be reclaimed mid-flight. This module models that market:
//!
//! - [`SupplyProcess`] × [`ZoneConfig`]: a seeded, piecewise-constant
//!   capacity process per failure zone. Every `step_secs` each zone's
//!   per-family warm-VM count is redrawn between
//!   `min_fraction · vms_per_family` and `vms_per_family`; zones mix a
//!   shared *shock* draw into their own stream (`ZoneConfig::shock`), so
//!   drops correlate across zones the way a region-wide first-party
//!   load spike would. The whole process — including injected
//!   [`FaultPlan`] outages and bursts — is
//!   precomputed into a `SupplySchedule`, a pure function of
//!   `(config, faults, horizon)`, so any replay epoch can reconstruct
//!   the supply in effect at any instant without sequential state.
//! - **Preemption notices**: when `ZoneConfig::notice_secs > 0`, every
//!   capacity drop is announced `notice_secs` ahead by a
//!   `NoticeStep`. A notified slot stops admitting; its in-flight
//!   work either drains (completes before the withdrawal), migrates to
//!   another zone at withdrawal time (re-billed at
//!   `migration_rebill · list`), or is force-demoted to on-demand.
//! - `SpotLedger`: the live market state during a replay — zone-major
//!   VM slots with free capacity, the available prefix dictated by the
//!   current supply step, per-slot resident placements, and market-wide
//!   occupancy counters. Supply drops *withdraw* the highest-indexed
//!   slots of a zone-family; the withdrawal hands the displaced
//!   residents back to the engine (canonically ordered) so their fate —
//!   migrate or demote — is decided *at the step*, and bumps the slot
//!   epoch so stale completion-queue entries are recognized as ghosts
//!   in `O(1)` when popped.
//! - [`AdmissionPolicy`]: the provider-level controller deciding whether
//!   a spot placement request may even try the ledger. [`AdmissionPolicy::Greedy`]
//!   admits whenever capacity fits; [`AdmissionPolicy::Headroom`]
//!   rejects once market utilization crosses a threshold, keeping slack
//!   so supply drops demote fewer in-flight placements.
//!
//! Admitted placements are priced through
//! [`SpotPricing::demand_fraction`]: the discount shrinks as the market
//! fills, so a tight market both rejects more and saves less per
//! admission.

use freedom_cluster::{InstanceFamily, InstanceSize, InstanceType};
use freedom_pricing::SpotPricing;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::faults::{FaultPlan, FaultTimeline, NOTICE_DROP_SALT};
use crate::{FreedomError, Result};

/// The instance families backed by warm market capacity, in the paper's
/// search-space order. Family indices throughout the market refer to
/// positions in this array.
pub const MARKET_FAMILIES: [InstanceFamily; 6] = InstanceFamily::SEARCH_SPACE;

/// Number of families in the market.
pub const N_MARKET_FAMILIES: usize = MARKET_FAMILIES.len();

/// Seed salt for the shared shock stream, kept distinct from the
/// per-zone redraw stream so `shock = 0` and `shock > 0` runs share the
/// same zone draws.
const SHOCK_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Index of `family` in [`MARKET_FAMILIES`], if it is marketable.
pub fn family_index(family: InstanceFamily) -> Option<usize> {
    MARKET_FAMILIES.iter().position(|&f| f == family)
}

/// A seeded piecewise-constant supply process for the shared market.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupplyProcess {
    /// Interval between capacity redraws, in seconds.
    pub step_secs: f64,
    /// Lower bound of the available fraction of each family's maximum
    /// pool, in `[0, 1]`. `1.0` means steady full supply (no redraws).
    pub min_fraction: f64,
    /// Seed of the redraw stream (independent of the trace seed).
    pub seed: u64,
}

impl SupplyProcess {
    /// Steady full supply: the market never fluctuates.
    pub const STEADY: SupplyProcess = SupplyProcess {
        step_secs: 60.0,
        min_fraction: 1.0,
        seed: 0,
    };

    fn validate(&self) -> Result<()> {
        if !self.step_secs.is_finite() || self.step_secs <= 0.0 {
            return Err(FreedomError::InvalidArgument(format!(
                "supply step must be positive, got {}s",
                self.step_secs
            )));
        }
        if !self.min_fraction.is_finite() || !(0.0..=1.0).contains(&self.min_fraction) {
            return Err(FreedomError::InvalidArgument(format!(
                "supply min fraction must be in [0, 1], got {}",
                self.min_fraction
            )));
        }
        Ok(())
    }
}

/// The market's failure-domain layout: how many zones it spans, how
/// correlated their supply is, and what a withdrawal announces ahead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneConfig {
    /// Number of failure zones; `vms_per_family` is per zone.
    pub n_zones: usize,
    /// How far ahead of a capacity drop its preemption notice fires, in
    /// seconds. `0` disables notices: withdrawals strike unannounced
    /// (the pre-zone legacy behavior).
    pub notice_secs: f64,
    /// Weight of the shared shock draw each zone mixes into its own
    /// supply redraw, in `[0, 1]`. `0` keeps zones independent (and the
    /// single-zone redraw stream bit-identical to the legacy market);
    /// `1` makes every zone's fraction move in lockstep.
    pub shock: f64,
    /// Fraction of list price a migrated placement is re-billed at, in
    /// `[0, 1]` — cross-zone failover is cheaper than a demotion (list
    /// price) but dearer than an undisturbed spot run.
    pub migration_rebill: f64,
}

impl ZoneConfig {
    /// One zone, no notices, no shared shock: the legacy market.
    pub const SINGLE: ZoneConfig = ZoneConfig {
        n_zones: 1,
        notice_secs: 0.0,
        shock: 0.0,
        migration_rebill: 0.9,
    };

    fn validate(&self) -> Result<()> {
        if self.n_zones == 0 || self.n_zones > 64 {
            return Err(FreedomError::InvalidArgument(format!(
                "market zone count must be in [1, 64], got {}",
                self.n_zones
            )));
        }
        if !self.notice_secs.is_finite() || self.notice_secs < 0.0 {
            return Err(FreedomError::InvalidArgument(format!(
                "notice lead must be finite and >= 0, got {}s",
                self.notice_secs
            )));
        }
        for (name, v) in [
            ("shock", self.shock),
            ("migration_rebill", self.migration_rebill),
        ] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(FreedomError::InvalidArgument(format!(
                    "zone {name} must be in [0, 1], got {v}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for ZoneConfig {
    fn default() -> Self {
        ZoneConfig::SINGLE
    }
}

/// Provider-level admission control for spot placement requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionPolicy {
    /// Admit any request for which warm capacity fits.
    Greedy,
    /// Admit only while market vCPU utilization stays strictly below
    /// `max_utilization`; beyond it, requests run on-demand even if a
    /// slot would fit. Keeping headroom trades spot share for fewer
    /// demotions when supply contracts.
    Headroom {
        /// Utilization ceiling in `[0, 1]`.
        max_utilization: f64,
    },
}

impl AdmissionPolicy {
    /// Whether a request may try the ledger at the given market
    /// utilization.
    pub fn admits(&self, utilization: f64) -> bool {
        match *self {
            Self::Greedy => true,
            Self::Headroom { max_utilization } => utilization < max_utilization,
        }
    }

    /// Short stable label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Greedy => "greedy",
            Self::Headroom { .. } => "headroom",
        }
    }
}

/// Configuration of the shared spot market.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketConfig {
    /// Maximum warm `.4xlarge` VMs per family *per zone* (shared by
    /// every function in the fleet).
    pub vms_per_family: usize,
    /// How warm capacity fluctuates over the trace.
    pub supply: SupplyProcess,
    /// The failure-domain layout (zones, notices, shock correlation).
    pub zones: ZoneConfig,
    /// Provider-level admission control.
    pub admission: AdmissionPolicy,
    /// Base spot pricing; admissions are billed at
    /// [`SpotPricing::demand_fraction`] of list price.
    pub spot: SpotPricing,
}

impl Default for MarketConfig {
    fn default() -> Self {
        Self {
            vms_per_family: 8,
            supply: SupplyProcess::STEADY,
            zones: ZoneConfig::SINGLE,
            admission: AdmissionPolicy::Greedy,
            spot: SpotPricing::PAPER_DEFAULT,
        }
    }
}

impl MarketConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        if self.vms_per_family == 0 {
            return Err(FreedomError::InvalidArgument(
                "market needs at least one VM per family".into(),
            ));
        }
        if let AdmissionPolicy::Headroom { max_utilization } = self.admission {
            if !max_utilization.is_finite() || !(0.0..=1.0).contains(&max_utilization) {
                return Err(FreedomError::InvalidArgument(format!(
                    "admission utilization ceiling must be in [0, 1], got {max_utilization}"
                )));
            }
        }
        self.zones.validate()?;
        self.supply.validate()
    }

    /// Number of `(zone, family)` capacity lanes: the width of every
    /// caps vector in this market's schedule and ledger.
    pub(crate) fn width(&self) -> usize {
        self.zones.n_zones * N_MARKET_FAMILIES
    }
}

/// One precomputed supply event: the zone-major per-family available VM
/// counts (`caps[zone · N_MARKET_FAMILIES + family]`) in effect from
/// `at_nanos` onward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SupplyStep {
    pub at_nanos: u64,
    pub caps: Vec<u32>,
}

/// One precomputed preemption notice: at `at_nanos` the market learns
/// the caps of `steps[step]` ahead of time and marks the slots that
/// step will withdraw, so they stop admitting and start draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NoticeStep {
    pub at_nanos: u64,
    /// Index into [`SupplySchedule::steps`] of the announced step.
    pub step: u32,
}

/// The whole supply process — zone redraws, injected faults, and the
/// preemption notices announcing its drops — materialized over a replay
/// horizon. A pure function of `(MarketConfig, FaultPlan, horizon)`, so
/// the sequential engine and every replay epoch see the same capacity
/// and the same notices at the same instant.
#[derive(Debug, Clone)]
pub(crate) struct SupplySchedule {
    /// Capacity before the first event (the full pool), zone-major.
    pub base: Vec<u32>,
    /// Capacity events sorted by time: supply redraws at multiples of
    /// `step_secs`, plus fault boundaries (outage/burst starts and
    /// ends), covering every instant `≤ horizon`.
    pub steps: Vec<SupplyStep>,
    /// Preemption notices, strictly increasing in time; each announces
    /// a later step, and at most one notice is pending at any instant
    /// (a notice's step always fires before the next notice).
    pub notices: Vec<NoticeStep>,
}

/// The supply state a replay epoch starting at some instant must
/// reconstruct: the caps in effect, both event cursors, and — when a
/// notice fired earlier whose step is still ahead — the announced caps
/// whose withdrawn slots the epoch must re-mark as notified.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SupplyStart<'a> {
    pub cursor: usize,
    pub notice_cursor: usize,
    pub caps: &'a [u32],
    pub notified_next: Option<&'a [u32]>,
}

impl SupplySchedule {
    /// Materializes the supply process up to `horizon_nanos` (the last
    /// arrival of the trace being replayed), composing `faults` into
    /// the timeline as simulated-time capacity events.
    pub fn generate(config: &MarketConfig, faults: &FaultPlan, horizon_nanos: u64) -> Result<Self> {
        config.validate()?;
        let n_zones = config.zones.n_zones;
        let width = config.width();
        let max = config.vms_per_family as u32;
        let base = vec![max; width];

        // 1. The seeded redraw stream, zone-major per step. With
        //    `shock = 0` the draw call sequence is bit-identical to the
        //    legacy single-zone market (one `gen_range` per lane).
        let mut redraws: Vec<SupplyStep> = Vec::new();
        if config.supply.min_fraction < 1.0 {
            let mut rng = StdRng::seed_from_u64(config.supply.seed);
            let mut shock_rng = StdRng::seed_from_u64(config.supply.seed ^ SHOCK_SALT);
            let shock = config.zones.shock;
            let lo = (config.supply.min_fraction * max as f64).floor() as u32;
            let span = max - lo;
            let step_nanos = ((config.supply.step_secs * 1e9) as u64).max(1);
            let mut t = step_nanos;
            while t <= horizon_nanos {
                let mut caps = vec![0u32; width];
                if shock > 0.0 {
                    // Mix the shared shock draw into each lane's own:
                    // the same region-wide s pulls every zone the same
                    // way, correlating drops without equalizing them.
                    let s: f64 = shock_rng.gen();
                    for cap in &mut caps {
                        let u: f64 = rng.gen();
                        let v = shock * s + (1.0 - shock) * u;
                        *cap = lo + ((v * (span + 1) as f64) as u32).min(span);
                    }
                } else {
                    for cap in &mut caps {
                        *cap = rng.gen_range(lo..max + 1);
                    }
                }
                redraws.push(SupplyStep { at_nanos: t, caps });
                t += step_nanos;
            }
        }

        // 2. Compose the fault timeline. With no faults the redraws ARE
        //    the schedule (the legacy fast path).
        let timeline = FaultTimeline::generate(faults, n_zones, horizon_nanos)?;
        let steps = if timeline == FaultTimeline::default() {
            redraws
        } else {
            compose_faults(&base, &redraws, &timeline, n_zones, horizon_nanos)
        };

        // 3. Announce the drops. A notice fires `notice_secs` ahead of
        //    any step that lowers at least one lane, clamped to the
        //    previous step so at most one notice is ever pending; fault
        //    plans may drop individual deliveries.
        let mut notices = Vec::new();
        if config.zones.notice_secs > 0.0 {
            let notice_nanos = ((config.zones.notice_secs * 1e9) as u64).max(1);
            let mut drop_rng = StdRng::seed_from_u64(faults.seed ^ NOTICE_DROP_SALT);
            let mut prev_at = 0u64;
            let mut prev_caps: &[u32] = &base;
            for (k, step) in steps.iter().enumerate() {
                let drops = step.caps.iter().zip(prev_caps).any(|(n, o)| n < o);
                if drops {
                    let at = step.at_nanos.saturating_sub(notice_nanos).max(prev_at);
                    if at < step.at_nanos {
                        let delivered = faults.notice_drop_fraction == 0.0
                            || drop_rng.gen::<f64>() >= faults.notice_drop_fraction;
                        if delivered {
                            notices.push(NoticeStep {
                                at_nanos: at,
                                step: k as u32,
                            });
                        }
                    }
                }
                prev_at = step.at_nanos;
                prev_caps = &step.caps;
            }
        }

        Ok(Self {
            base,
            steps,
            notices,
        })
    }

    /// The supply state in effect just before any event at `start_nanos`
    /// fires (i.e. after every event strictly earlier than it): the
    /// caps, both cursors, and the pending notice if one fired earlier
    /// for a step at or after `start_nanos`.
    pub fn start_state(&self, start_nanos: u64) -> SupplyStart<'_> {
        let cursor = self.steps.partition_point(|s| s.at_nanos < start_nanos);
        let caps = if cursor == 0 {
            &self.base[..]
        } else {
            &self.steps[cursor - 1].caps[..]
        };
        let notice_cursor = self.notices.partition_point(|n| n.at_nanos < start_nanos);
        let notified_next = notice_cursor
            .checked_sub(1)
            .map(|i| self.notices[i])
            .filter(|n| n.step as usize >= cursor)
            .map(|n| &self.steps[n.step as usize].caps[..]);
        SupplyStart {
            cursor,
            notice_cursor,
            caps,
            notified_next,
        }
    }
}

/// Overlays fault intervals onto the redraw stream: the union of redraw
/// times and interval boundaries becomes the step timeline, and each
/// step's caps are the redraw in effect with active bursts (floored
/// multiplicative cut) and active zone outages (capacity pinned to 0)
/// applied. Intervals never overlap within a lane (per zone for
/// outages, globally for bursts), so one cursor per lane walks them.
fn compose_faults(
    base: &[u32],
    redraws: &[SupplyStep],
    timeline: &FaultTimeline,
    n_zones: usize,
    horizon_nanos: u64,
) -> Vec<SupplyStep> {
    let mut points: Vec<u64> = redraws.iter().map(|s| s.at_nanos).collect();
    for o in &timeline.outages {
        if o.start_nanos <= horizon_nanos {
            points.push(o.start_nanos);
            if o.end_nanos <= horizon_nanos {
                points.push(o.end_nanos);
            }
        }
    }
    for b in &timeline.bursts {
        if b.start_nanos <= horizon_nanos {
            points.push(b.start_nanos);
            if b.end_nanos <= horizon_nanos {
                points.push(b.end_nanos);
            }
        }
    }
    points.sort_unstable();
    points.dedup();

    // Per-zone outage slices (outages are emitted zone-major).
    let mut zone_ranges = vec![(0usize, 0usize); n_zones];
    {
        let mut i = 0;
        for (zone, range) in zone_ranges.iter_mut().enumerate() {
            let start = i;
            while i < timeline.outages.len() && timeline.outages[i].zone == zone {
                i += 1;
            }
            *range = (start, i);
        }
    }

    let mut steps = Vec::with_capacity(points.len());
    let mut rc = 0usize; // redraw cursor
    let mut bc = 0usize; // burst cursor
    let mut oc: Vec<usize> = zone_ranges.iter().map(|&(s, _)| s).collect();
    for &t in &points {
        while rc < redraws.len() && redraws[rc].at_nanos <= t {
            rc += 1;
        }
        let mut caps = if rc == 0 {
            base.to_vec()
        } else {
            redraws[rc - 1].caps.clone()
        };
        while bc < timeline.bursts.len() && timeline.bursts[bc].end_nanos <= t {
            bc += 1;
        }
        if let Some(b) = timeline.bursts.get(bc) {
            if b.start_nanos <= t {
                for cap in &mut caps {
                    *cap = (*cap as f64 * (1.0 - b.severity)).floor() as u32;
                }
            }
        }
        for (zone, range) in zone_ranges.iter().enumerate() {
            let c = &mut oc[zone];
            while *c < range.1 && timeline.outages[*c].end_nanos <= t {
                *c += 1;
            }
            if let Some(o) = timeline.outages.get(*c) {
                if *c < range.1 && o.start_nanos <= t {
                    caps[zone * N_MARKET_FAMILIES..(zone + 1) * N_MARKET_FAMILIES].fill(0);
                }
            }
        }
        steps.push(SupplyStep { at_nanos: t, caps });
    }
    steps
}

/// One in-flight spot placement, as stored in the completion queue and
/// in the carry-over state crossing replay-epoch boundaries.
///
/// Ordering (and equality) is by `(completion_nanos, slot, idx, meta)`:
/// `slot` is a flat market-wide index so it encodes the zone and family,
/// and `(idx, meta)` — the invocation's global arrival index plus its
/// attempt/kind word — uniquely names one run of it, so ties never
/// cascade to the remaining fields. `epoch` deliberately stays out
/// of the key: the sequential engine and a replay epoch reconstructing
/// carried state assign different slot epochs to the same placement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InFlight {
    /// Completion time in integer nanoseconds.
    pub completion_nanos: u64,
    /// Flat slot index:
    /// `(zone · N_MARKET_FAMILIES + family) · vms_per_family + k`.
    pub slot: u32,
    /// Global arrival index of the invocation (into the merged trace).
    pub idx: u32,
    /// Slot epoch at placement time; a mismatch against the ledger's
    /// current epoch marks the entry a ghost (its slot was withdrawn and
    /// the placement's fate — migrated or demoted — was already decided
    /// at the step).
    pub epoch: u32,
    /// Reserved milli-vCPUs.
    pub milli: u32,
    /// Reserved MiB.
    pub mib: u32,
    /// Undiscounted list-price cost of the placement's configuration —
    /// what the invocation is re-billed if demoted (or a
    /// `migration_rebill` fraction of it if migrated).
    pub list_cost_usd: f64,
    /// Retry-layer metadata, packed by [`InFlight::meta_of`]: low 2 bits
    /// the run kind ([`RUN_NORMAL`] / [`RUN_ABORT`] / [`RUN_HEDGE`]),
    /// next 6 bits the 1-based attempt number. Participates in the key
    /// so an invocation's racing copies (a straggler and its hedge, or
    /// successive attempts) order canonically even on a completion tie.
    pub meta: u32,
}

/// A plain execution: completes its work, drains under notice as usual.
pub(crate) const RUN_NORMAL: u32 = 0;
/// A mid-flight abort: occupies its slot until the seeded abort instant,
/// then releases without having completed (the retry layer re-issues).
pub(crate) const RUN_ABORT: u32 = 1;
/// A hedged re-issue racing a straggler; invisible to retry/drain
/// accounting, dropped (not migrated) if its slot is withdrawn.
pub(crate) const RUN_HEDGE: u32 = 2;

impl InFlight {
    pub(crate) fn key(&self) -> (u64, u32, u32, u32) {
        (self.completion_nanos, self.slot, self.idx, self.meta)
    }

    /// Packs the retry layer's run metadata.
    pub(crate) fn meta_of(kind: u32, attempt: u8) -> u32 {
        kind | (u32::from(attempt) << 2)
    }

    /// The run kind packed into `meta`.
    pub(crate) fn run_kind(&self) -> u32 {
        self.meta & 3
    }

    /// The 1-based attempt number packed into `meta`.
    pub(crate) fn attempt(&self) -> u8 {
        ((self.meta >> 2) & 63) as u8
    }
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Word-wise FNV-1a with a splitmix64 finisher — the structural hash
/// behind the resumable replay's fingerprint, which a snapshot carries
/// so it cannot resume a different replay.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    pub fn write(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(Self::PRIME);
    }

    /// Avalanche finisher so low-entropy field patterns still spread
    /// across all 64 bits.
    pub fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One warm VM slot's free capacity.
#[derive(Debug, Clone, Copy)]
struct VmSlot {
    free_milli: u32,
    free_mib: u32,
}

/// The live market state during a replay: zone-major slots, the
/// available prefix per `(zone, family)` lane, per-slot residents,
/// notice flags, epochs for ghost detection, and market-wide occupancy.
///
/// Capacity and occupancy are integer milli-vCPU counters, so the
/// utilization driving admission and demand pricing is an exact ratio of
/// integers — deterministic across engines. Per-slot resident lists are
/// kept order-insensitive (every consumer either counts them, searches
/// by `idx`, or canonically sorts them), so the sequential engine and
/// an epoch reconstructing carried state — which insert in different
/// orders — stay bit-identical.
#[derive(Debug)]
pub(crate) struct SpotLedger {
    vms_per_family: u32,
    slots: Vec<VmSlot>,
    epochs: Vec<u32>,
    /// Live placements per slot — what a withdrawal displaces. Kept
    /// exact so [`SpotLedger::withdraw`] can hand every displaced
    /// in-flight entry to the engine *at the supply step itself* (where
    /// migrate-vs-demote is decided and the feedback signal counted),
    /// instead of waiting for stale queue entries to surface.
    residents: Vec<Vec<InFlight>>,
    /// Slots under a preemption notice: they stop admitting and their
    /// residents drain (or migrate at the announced withdrawal).
    notified: Vec<bool>,
    /// Available-slot prefix per `(zone, family)` lane, zone-major.
    avail: Vec<u32>,
    full_milli: u32,
    full_mib: [u32; N_MARKET_FAMILIES],
    capacity_milli: u64,
    occupied_milli: u64,
}

impl SpotLedger {
    /// A fresh (fully idle) ledger under the capacity `caps`
    /// (zone-major, `config.width()` lanes).
    pub fn new(config: &MarketConfig, caps: &[u32]) -> Self {
        debug_assert_eq!(caps.len(), config.width());
        let vms = config.vms_per_family as u32;
        let full_milli = InstanceSize::X4Large.vcpus() * 1000;
        let mut full_mib = [0u32; N_MARKET_FAMILIES];
        for (i, &family) in MARKET_FAMILIES.iter().enumerate() {
            full_mib[i] = InstanceType::new(family, InstanceSize::X4Large).memory_mib();
        }
        let n_slots = config.width() * vms as usize;
        let mut slots = Vec::with_capacity(n_slots);
        for _ in 0..config.zones.n_zones {
            for &mib in &full_mib {
                for _ in 0..vms {
                    slots.push(VmSlot {
                        free_milli: full_milli,
                        free_mib: mib,
                    });
                }
            }
        }
        let capacity_milli = caps.iter().map(|&c| c as u64 * full_milli as u64).sum();
        Self {
            vms_per_family: vms,
            epochs: vec![0; n_slots],
            residents: vec![Vec::new(); n_slots],
            notified: vec![false; n_slots],
            slots,
            avail: caps.to_vec(),
            full_milli,
            full_mib,
            capacity_milli,
            occupied_milli: 0,
        }
    }

    /// The family (index into [`MARKET_FAMILIES`]) a flat slot belongs to.
    fn family_of(&self, flat: u32) -> usize {
        (flat / self.vms_per_family) as usize % N_MARKET_FAMILIES
    }

    /// The zone a flat slot belongs to.
    pub fn zone_of(&self, flat: u32) -> usize {
        (flat / self.vms_per_family) as usize / N_MARKET_FAMILIES
    }

    /// Re-places a carried in-flight entry onto its slot (epoch-start
    /// reconstruction). The entry's slot is available by construction: it
    /// survived every earlier supply drop.
    pub fn restore(&mut self, entry: &InFlight) {
        let slot = &mut self.slots[entry.slot as usize];
        slot.free_milli -= entry.milli;
        slot.free_mib -= entry.mib;
        Self::insert_resident(&mut self.residents[entry.slot as usize], entry);
        self.occupied_milli += entry.milli as u64;
    }

    /// [`SpotLedger::restore`] for an entry from outside the replay — a
    /// decoded snapshot's carry: restores it only when its slot exists,
    /// is available under the current caps, and has room for the
    /// reservation, and reports whether it did.
    pub fn try_restore(&mut self, entry: &InFlight) -> bool {
        let flat = entry.slot as usize;
        let vms = self.vms_per_family as usize;
        let fits = self
            .avail
            .get(flat / vms)
            .is_some_and(|&avail| flat % vms < avail as usize)
            && self.slots[flat].free_milli >= entry.milli
            && self.slots[flat].free_mib >= entry.mib;
        if fits {
            self.restore(entry);
        }
        fits
    }

    /// Records a resident with an O(1) append. Resident order is not
    /// observable: withdrawals hand displaced entries to the engine
    /// canonically re-sorted, notices only count them, and
    /// [`SpotLedger::release`] matches its exact record by `(idx, meta,
    /// completion)` — unique even for a straggler/hedge twin pair — so
    /// no path needs the vector sorted. Keeping it unsorted turns the
    /// retry-heavy placement mix (which re-places old indices out of
    /// arrival order) from a mid-vector memmove into a push, and
    /// release into a swap-remove.
    #[inline]
    fn insert_resident(residents: &mut Vec<InFlight>, entry: &InFlight) {
        residents.push(*entry);
    }

    /// Market vCPU utilization in `[0, 1]`; a zero-capacity market reads
    /// as saturated.
    pub fn utilization(&self) -> f64 {
        if self.capacity_milli == 0 {
            1.0
        } else {
            self.occupied_milli as f64 / self.capacity_milli as f64
        }
    }

    /// Current epoch of a flat slot.
    pub fn epoch(&self, slot: u32) -> u32 {
        self.epochs[slot as usize]
    }

    /// Whether a queue entry is still live (its slot was not withdrawn
    /// since placement).
    pub fn is_live(&self, entry: &InFlight) -> bool {
        self.epochs[entry.slot as usize] == entry.epoch
    }

    /// Whether a flat slot is under a preemption notice.
    pub fn is_notified(&self, slot: u32) -> bool {
        self.notified[slot as usize]
    }

    /// Marks every slot the announced step will withdraw as notified and
    /// returns how many in-flight placements just received a notice.
    /// Marked slots stop admitting ([`SpotLedger::best_fit`] skips them)
    /// until the withdrawal clears the flag.
    pub fn mark_notified(&mut self, next_caps: &[u32]) -> u32 {
        let mut hit = 0;
        for (lane, &next) in next_caps.iter().enumerate() {
            let cur = self.avail[lane];
            let base = lane as u32 * self.vms_per_family;
            for k in next..cur {
                let flat = (base + k) as usize;
                if !self.notified[flat] {
                    self.notified[flat] = true;
                    hit += self.residents[flat].len() as u32;
                }
            }
        }
        hit
    }

    /// Applies a supply event and returns the in-flight placements it
    /// displaced, canonically sorted by `(completion, slot, idx)` so
    /// every engine resolves them (migrate or demote) in the same
    /// order. Withdrawing a slot empties it immediately: its occupancy
    /// leaves the market, its notice flag clears, and its epoch
    /// advances so queue entries pointing at it read as ghosts when
    /// popped. Restored slots come back empty.
    ///
    /// Resolving displacement *at the step* (rather than when stale
    /// queue entries surface) is what makes the per-epoch
    /// demotion/migration signal a pure function of simulated time — an
    /// epoch that replays this instant observes the same displaced set
    /// as the sequential engine, so the control plane's feedback is
    /// partition-independent.
    pub fn withdraw(&mut self, caps: &[u32]) -> Vec<InFlight> {
        let mut displaced = Vec::new();
        for (lane, &new) in caps.iter().enumerate() {
            let old = self.avail[lane];
            let family = lane % N_MARKET_FAMILIES;
            let base = lane as u32 * self.vms_per_family;
            if new < old {
                for k in new..old {
                    let flat = (base + k) as usize;
                    if !self.residents[flat].is_empty() {
                        let occupied = (self.full_milli - self.slots[flat].free_milli) as u64;
                        self.occupied_milli -= occupied;
                        self.epochs[flat] += 1;
                        displaced.append(&mut self.residents[flat]);
                        self.slots[flat] = VmSlot {
                            free_milli: self.full_milli,
                            free_mib: self.full_mib[family],
                        };
                    }
                    self.notified[flat] = false;
                    self.capacity_milli -= self.full_milli as u64;
                }
            } else {
                for _ in old..new {
                    self.capacity_milli += self.full_milli as u64;
                }
            }
            self.avail[lane] = new;
        }
        displaced.sort_unstable_by_key(|e| e.key());
        displaced
    }

    /// Best-fit scan over a family's available, un-notified slots across
    /// every zone: the least free vCPUs that still fit, lowest flat
    /// index on ties. Returns the flat slot index.
    pub fn best_fit(&self, family: usize, milli: u32, mib: u32) -> Option<u32> {
        let mut best: Option<(u32, u32)> = None; // (free_milli, flat slot)
        let n_zones = self.avail.len() / N_MARKET_FAMILIES;
        for zone in 0..n_zones {
            let lane = zone * N_MARKET_FAMILIES + family;
            let base = lane as u32 * self.vms_per_family;
            for k in 0..self.avail[lane] {
                let flat = base + k;
                if self.notified[flat as usize] {
                    continue;
                }
                let slot = self.slots[flat as usize];
                if slot.free_milli >= milli
                    && slot.free_mib >= mib
                    && best.is_none_or(|(free, _)| slot.free_milli < free)
                {
                    if slot.free_milli == milli {
                        // A perfect CPU fit cannot be beaten, and ties keep
                        // the first slot in flat order — exactly this one.
                        return Some(flat);
                    }
                    best = Some((slot.free_milli, flat));
                }
            }
        }
        best.map(|(_, flat)| flat)
    }

    /// A migration target for a displaced placement: best-fit within the
    /// same family across every *other* zone (the source zone is the one
    /// failing), skipping notified slots. `None` forces a demotion.
    pub fn migrate_target(&self, from: u32, milli: u32, mib: u32) -> Option<u32> {
        let family = self.family_of(from);
        let src_zone = self.zone_of(from);
        let mut best: Option<(u32, u32)> = None;
        let n_zones = self.avail.len() / N_MARKET_FAMILIES;
        for zone in 0..n_zones {
            if zone == src_zone {
                continue;
            }
            let lane = zone * N_MARKET_FAMILIES + family;
            let base = lane as u32 * self.vms_per_family;
            for k in 0..self.avail[lane] {
                let flat = base + k;
                if self.notified[flat as usize] {
                    continue;
                }
                let slot = self.slots[flat as usize];
                if slot.free_milli >= milli
                    && slot.free_mib >= mib
                    && best.is_none_or(|(free, _)| slot.free_milli < free)
                {
                    best = Some((slot.free_milli, flat));
                }
            }
        }
        best.map(|(_, flat)| flat)
    }

    /// Reserves capacity on a slot returned by [`SpotLedger::best_fit`]
    /// or [`SpotLedger::migrate_target`] and records the resident.
    pub fn place(&mut self, entry: &InFlight) {
        let slot = &mut self.slots[entry.slot as usize];
        slot.free_milli -= entry.milli;
        slot.free_mib -= entry.mib;
        Self::insert_resident(&mut self.residents[entry.slot as usize], entry);
        self.occupied_milli += entry.milli as u64;
    }

    /// Releases a live completion's capacity back to its slot.
    ///
    /// A slot can host two records with the same invocation index — a
    /// straggling attempt and the hedge racing it — so the scan matches
    /// the exact record by `(idx, meta, completion)`. Releasing an
    /// arbitrary same-index twin would leave the wrong record standing,
    /// and a later withdrawal would misclassify the survivor (a hedge
    /// drops silently; a real attempt must migrate or demote). The
    /// unordered resident vector makes the removal a swap-remove.
    pub fn release(&mut self, entry: &InFlight) {
        let slot = &mut self.slots[entry.slot as usize];
        slot.free_milli += entry.milli;
        slot.free_mib += entry.mib;
        let residents = &mut self.residents[entry.slot as usize];
        let pos = residents
            .iter()
            .position(|p| {
                p.idx == entry.idx
                    && p.meta == entry.meta
                    && p.completion_nanos == entry.completion_nanos
            })
            .expect("released entry must be resident on its slot");
        residents.swap_remove(pos);
        self.occupied_milli -= entry.milli as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fluctuating() -> MarketConfig {
        MarketConfig {
            vms_per_family: 4,
            supply: SupplyProcess {
                step_secs: 10.0,
                min_fraction: 0.25,
                seed: 7,
            },
            ..MarketConfig::default()
        }
    }

    fn entry(completion: u64, slot: u32, idx: u32, milli: u32, mib: u32) -> InFlight {
        InFlight {
            completion_nanos: completion,
            slot,
            idx,
            epoch: 0,
            milli,
            mib,
            list_cost_usd: 0.1,
            meta: InFlight::meta_of(RUN_NORMAL, 1),
        }
    }

    #[test]
    fn schedule_is_deterministic_and_bounded() {
        let config = fluctuating();
        let horizon = 120_000_000_000; // 120 s
        let a = SupplySchedule::generate(&config, &FaultPlan::NONE, horizon).unwrap();
        let b = SupplySchedule::generate(&config, &FaultPlan::NONE, horizon).unwrap();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.steps.len(), 12, "one redraw per 10 s step");
        assert!(a.notices.is_empty(), "no notices without notice_secs");
        for step in &a.steps {
            assert!(step.at_nanos <= horizon);
            assert_eq!(step.caps.len(), config.width());
            for &cap in &step.caps {
                assert!((1..=4).contains(&cap), "cap {cap} outside [1, 4]");
            }
        }
        // A different supply seed redraws differently.
        let other = SupplySchedule::generate(
            &MarketConfig {
                supply: SupplyProcess {
                    seed: 8,
                    ..config.supply
                },
                ..config
            },
            &FaultPlan::NONE,
            horizon,
        )
        .unwrap();
        assert_ne!(a.steps, other.steps);
        // Steady supply never steps.
        let steady =
            SupplySchedule::generate(&MarketConfig::default(), &FaultPlan::NONE, horizon).unwrap();
        assert!(steady.steps.is_empty());
        assert_eq!(steady.base, vec![8; N_MARKET_FAMILIES]);
    }

    #[test]
    fn shock_couples_zone_supplies() {
        let zoned = |shock| MarketConfig {
            zones: ZoneConfig {
                n_zones: 4,
                shock,
                ..ZoneConfig::SINGLE
            },
            ..fluctuating()
        };
        let horizon = 600_000_000_000;
        // Full shock: every lane sees the same draw at every step.
        let locked = SupplySchedule::generate(&zoned(1.0), &FaultPlan::NONE, horizon).unwrap();
        for step in &locked.steps {
            assert!(step.caps.iter().all(|&c| c == step.caps[0]));
        }
        // No shock: zones move independently (some step differs by lane).
        let free = SupplySchedule::generate(&zoned(0.0), &FaultPlan::NONE, horizon).unwrap();
        assert!(free
            .steps
            .iter()
            .any(|s| s.caps.iter().any(|&c| c != s.caps[0])));
        // The single-zone prefix of the shock-free stream is exactly the
        // legacy schedule: adding zones extends each step's draw list
        // without perturbing the first zone's draws at step 1.
        let legacy = SupplySchedule::generate(&fluctuating(), &FaultPlan::NONE, horizon).unwrap();
        assert_eq!(
            free.steps[0].caps[..N_MARKET_FAMILIES],
            legacy.steps[0].caps[..]
        );
    }

    #[test]
    fn notices_precede_every_drop_and_clamp_to_the_previous_step() {
        let config = MarketConfig {
            zones: ZoneConfig {
                notice_secs: 3.0,
                ..ZoneConfig::SINGLE
            },
            ..fluctuating()
        };
        let horizon = 120_000_000_000;
        let s = SupplySchedule::generate(&config, &FaultPlan::NONE, horizon).unwrap();
        assert!(!s.notices.is_empty());
        let mut prev_at = 0;
        for n in &s.notices {
            let step = &s.steps[n.step as usize];
            assert!(n.at_nanos < step.at_nanos, "notice strictly precedes step");
            assert!(
                step.at_nanos - n.at_nanos <= 3_000_000_000,
                "lead never exceeds notice_secs"
            );
            assert!(n.at_nanos > prev_at, "notices strictly increase");
            // The announced step really drops at least one lane.
            let before = if n.step == 0 {
                &s.base
            } else {
                &s.steps[n.step as usize - 1].caps
            };
            assert!(step.caps.iter().zip(before).any(|(c, b)| c < b));
            prev_at = n.at_nanos;
        }
        // A long lead clamps at the previous step: with step_secs = 10
        // and notice_secs = 30 the notice fires right at the prior step.
        let long = MarketConfig {
            zones: ZoneConfig {
                notice_secs: 30.0,
                ..ZoneConfig::SINGLE
            },
            ..fluctuating()
        };
        let s = SupplySchedule::generate(&long, &FaultPlan::NONE, horizon).unwrap();
        for n in &s.notices {
            let step_at = s.steps[n.step as usize].at_nanos;
            let prev = if n.step == 0 {
                0
            } else {
                s.steps[n.step as usize - 1].at_nanos
            };
            assert_eq!(n.at_nanos, prev.max(step_at.saturating_sub(30_000_000_000)));
        }
    }

    #[test]
    fn faults_compose_into_the_schedule_as_capacity_events() {
        let config = MarketConfig {
            zones: ZoneConfig {
                n_zones: 3,
                notice_secs: 2.0,
                ..ZoneConfig::SINGLE
            },
            ..fluctuating()
        };
        let faults = FaultPlan {
            seed: 21,
            outage_rate_per_hour: 60.0,
            mean_outage_secs: 15.0,
            burst_rate_per_hour: 30.0,
            mean_burst_secs: 10.0,
            burst_severity: 0.5,
            notice_drop_fraction: 0.0,
            ..FaultPlan::NONE
        };
        let horizon = 600_000_000_000;
        let a = SupplySchedule::generate(&config, &faults, horizon).unwrap();
        let b = SupplySchedule::generate(&config, &faults, horizon).unwrap();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.notices, b.notices);
        let plain = SupplySchedule::generate(&config, &FaultPlan::NONE, horizon).unwrap();
        assert!(
            a.steps.len() > plain.steps.len(),
            "fault boundaries add steps"
        );
        // During an outage the zone's caps read zero in the schedule.
        let timeline = FaultTimeline::generate(&faults, 3, horizon).unwrap();
        let o = timeline.outages[0];
        let at_outage = a
            .steps
            .iter()
            .rfind(|s| s.at_nanos >= o.start_nanos && s.at_nanos < o.end_nanos);
        if let Some(step) = at_outage {
            let lane0 = o.zone * N_MARKET_FAMILIES;
            assert!(step.caps[lane0..lane0 + N_MARKET_FAMILIES]
                .iter()
                .all(|&c| c == 0));
        }
        // Dropping every notice delivery silences the schedule without
        // moving a single capacity event.
        let muted = SupplySchedule::generate(
            &config,
            &FaultPlan {
                notice_drop_fraction: 1.0,
                ..faults
            },
            horizon,
        )
        .unwrap();
        assert_eq!(muted.steps, a.steps);
        assert!(muted.notices.is_empty());
    }

    #[test]
    fn start_state_is_a_prefix_function() {
        let config = MarketConfig {
            zones: ZoneConfig {
                notice_secs: 3.0,
                ..ZoneConfig::SINGLE
            },
            ..fluctuating()
        };
        let schedule =
            SupplySchedule::generate(&config, &FaultPlan::NONE, 100_000_000_000).unwrap();
        let s0 = schedule.start_state(0);
        assert_eq!((s0.cursor, s0.notice_cursor), (0, 0));
        assert_eq!(s0.caps, &schedule.base[..]);
        assert!(s0.notified_next.is_none());
        // A start exactly on a step instant leaves that step unprocessed.
        let t1 = schedule.steps[0].at_nanos;
        let s1 = schedule.start_state(t1);
        assert_eq!(s1.cursor, 0);
        assert_eq!(s1.caps, &schedule.base[..]);
        let s2 = schedule.start_state(t1 + 1);
        assert_eq!(s2.cursor, 1);
        assert_eq!(s2.caps, &schedule.steps[0].caps[..]);
        // A start between a notice and its step re-marks the pending
        // notice; a start after the step does not.
        let n = schedule.notices[0];
        let mid = schedule.start_state(n.at_nanos + 1);
        assert_eq!(mid.notice_cursor, 1);
        assert_eq!(
            mid.notified_next,
            Some(&schedule.steps[n.step as usize].caps[..]),
        );
        let after = schedule.start_state(schedule.steps[n.step as usize].at_nanos + 1);
        assert!(after.notified_next.is_none());
    }

    #[test]
    fn withdrawal_displaces_residents_and_restores_empty_slots() {
        let config = fluctuating();
        let mut ledger = SpotLedger::new(&config, &[4; N_MARKET_FAMILIES]);
        let full = ledger.capacity_milli;
        assert_eq!(ledger.utilization(), 0.0);

        // Occupy the last slot of family 0 (flat index 3).
        let placed = entry(50, 3, 9, 2000, 1024);
        ledger.place(&placed);
        assert!(ledger.utilization() > 0.0);
        let epoch_before = ledger.epoch(3);

        // Drop family 0 to 2 VMs: slots 2..4 withdrawn, occupancy leaves,
        // and the step hands back exactly the one displaced resident.
        let mut caps = [4; N_MARKET_FAMILIES];
        caps[0] = 2;
        let displaced = ledger.withdraw(&caps);
        assert_eq!(displaced.len(), 1);
        assert_eq!(displaced[0], placed);
        assert_eq!(ledger.occupied_milli, 0);
        assert_eq!(ledger.capacity_milli, full - 2 * ledger.full_milli as u64);
        assert_eq!(ledger.epoch(3), epoch_before + 1, "withdrawn+occupied");
        assert_eq!(ledger.epoch(2), 0, "idle withdrawn slot keeps its epoch");
        assert!(!ledger.is_live(&placed), "displaced entry reads as a ghost");

        // Bring it back: the slot returns empty, nothing left to displace.
        assert!(ledger.withdraw(&[4; N_MARKET_FAMILIES]).is_empty());
        assert_eq!(ledger.capacity_milli, full);
        assert_eq!(ledger.slots[3].free_milli, ledger.full_milli);
    }

    #[test]
    fn best_fit_prefers_fullest_fitting_slot() {
        let config = MarketConfig {
            vms_per_family: 3,
            ..MarketConfig::default()
        };
        let mut ledger = SpotLedger::new(&config, &[3; N_MARKET_FAMILIES]);
        // Slot 0 nearly full, slot 1 half full, slot 2 empty.
        ledger.place(&entry(10, 0, 0, 15_000, 1024));
        ledger.place(&entry(11, 1, 1, 8_000, 1024));
        // A 2-vCPU request fits slots 1 and 2; best-fit picks 1.
        assert_eq!(ledger.best_fit(0, 2000, 512), Some(1));
        // A 10-vCPU request only fits slot 2.
        assert_eq!(ledger.best_fit(0, 10_000, 512), Some(2));
        // Nothing fits 17 vCPUs.
        assert_eq!(ledger.best_fit(0, 17_000, 512), None);
        // Availability gates the scan: with only slot 0 available the
        // 2-vCPU request has nowhere to go. The withdrawal displaces the
        // one placement living on slot 1.
        let mut caps = [3; N_MARKET_FAMILIES];
        caps[0] = 1;
        assert_eq!(ledger.withdraw(&caps).len(), 1);
        assert_eq!(ledger.best_fit(0, 2000, 512), None);
    }

    #[test]
    fn displacement_is_per_placement_and_canonically_ordered() {
        // Two placements packed onto one slot are two displacements,
        // returned in (completion, slot, idx) order regardless of
        // insertion order.
        let config = MarketConfig {
            vms_per_family: 2,
            ..MarketConfig::default()
        };
        let mut ledger = SpotLedger::new(&config, &[2; N_MARKET_FAMILIES]);
        ledger.place(&entry(90, 1, 7, 2000, 1024));
        ledger.place(&entry(30, 1, 3, 3000, 2048));
        ledger.place(&entry(10, 0, 1, 1000, 512));
        let mut caps = [2; N_MARKET_FAMILIES];
        caps[0] = 1; // withdraws slot 1 only
        let displaced = ledger.withdraw(&caps);
        assert_eq!(displaced.len(), 2);
        assert!(displaced[0].completion_nanos < displaced[1].completion_nanos);
        // A released completion no longer counts as a displaceable
        // resident.
        ledger.release(&entry(10, 0, 1, 1000, 512));
        caps[0] = 0;
        assert!(
            ledger.withdraw(&caps).is_empty(),
            "slot 0 drained before drop"
        );
    }

    #[test]
    fn release_distinguishes_same_index_twins() {
        // A straggling attempt and its hedge share one invocation index
        // and may land on the same slot. Releasing the hedge must leave
        // the original attempt resident — not an arbitrary same-index
        // twin — or a later withdrawal misclassifies the survivor.
        let config = MarketConfig {
            vms_per_family: 2,
            ..MarketConfig::default()
        };
        let mut ledger = SpotLedger::new(&config, &[2; N_MARKET_FAMILIES]);
        let original = entry(90, 1, 7, 1000, 512);
        let mut hedge = entry(50, 1, 7, 1000, 512);
        hedge.meta = InFlight::meta_of(RUN_HEDGE, 2);
        ledger.place(&original);
        ledger.place(&hedge);
        // The hedge wins the race and completes first.
        ledger.release(&hedge);
        // Supply withdraws the slot: the displaced record must be the
        // still-running original attempt, not the released hedge.
        let mut caps = [2; N_MARKET_FAMILIES];
        caps[0] = 1;
        let displaced = ledger.withdraw(&caps);
        assert_eq!(displaced.len(), 1);
        assert_eq!(displaced[0].completion_nanos, 90);
        assert_eq!(displaced[0].run_kind(), RUN_NORMAL);
    }

    #[test]
    fn notified_slots_stop_admitting_and_clear_at_withdrawal() {
        let config = MarketConfig {
            vms_per_family: 2,
            zones: ZoneConfig {
                n_zones: 2,
                notice_secs: 5.0,
                ..ZoneConfig::SINGLE
            },
            ..MarketConfig::default()
        };
        let width = config.width();
        let mut ledger = SpotLedger::new(&config, &vec![2u32; width]);
        // Resident on zone 0, family 0, slot 1 (flat 1).
        ledger.place(&entry(40, 1, 4, 2000, 1024));
        // Announce: zone 0 family 0 drops to 1 VM → flat slot 1 notified.
        let mut next = vec![2u32; width];
        next[0] = 1;
        assert_eq!(ledger.mark_notified(&next), 1, "one resident notified");
        assert!(ledger.is_notified(1));
        // Re-marking the same pending drop is idempotent.
        assert_eq!(ledger.mark_notified(&next), 0);
        // Admission skips the notified slot: family 0 requests land on
        // flat 0 or zone 1's lane instead.
        let fit = ledger.best_fit(0, 1000, 256).unwrap();
        assert_ne!(fit, 1);
        // Migration from the notified slot targets the other zone only.
        let target = ledger.migrate_target(1, 2000, 1024).unwrap();
        assert_eq!(ledger.zone_of(target), 1);
        // The announced withdrawal clears the flag.
        let displaced = ledger.withdraw(&next);
        assert_eq!(displaced.len(), 1);
        assert!(!ledger.is_notified(1));
    }

    #[test]
    fn migration_targets_exclude_the_failing_zone() {
        let config = MarketConfig {
            vms_per_family: 2,
            zones: ZoneConfig {
                n_zones: 2,
                ..ZoneConfig::SINGLE
            },
            ..MarketConfig::default()
        };
        let width = config.width();
        let ledger = SpotLedger::new(&config, &vec![2u32; width]);
        // From zone 0 the best fit lands in zone 1 (lowest flat index of
        // the empty lane), never back into zone 0.
        let from = 0u32;
        let target = ledger.migrate_target(from, 2000, 1024).unwrap();
        assert_eq!(ledger.zone_of(target), 1);
        assert_eq!(target % (config.vms_per_family as u32), 0);
        // Single-zone markets have nowhere to fail over to.
        let single = SpotLedger::new(&MarketConfig::default(), &[8u32; N_MARKET_FAMILIES]);
        assert_eq!(single.migrate_target(0, 1000, 256), None);
    }

    #[test]
    fn admission_policies_gate_on_utilization() {
        assert!(AdmissionPolicy::Greedy.admits(1.0));
        let headroom = AdmissionPolicy::Headroom {
            max_utilization: 0.8,
        };
        assert!(headroom.admits(0.0));
        assert!(headroom.admits(0.79));
        assert!(!headroom.admits(0.8));
        assert!(!headroom.admits(1.0));
        assert!(!AdmissionPolicy::Headroom {
            max_utilization: 0.0
        }
        .admits(0.0));
        assert_eq!(AdmissionPolicy::Greedy.label(), "greedy");
        assert_eq!(headroom.label(), "headroom");
    }

    #[test]
    fn admission_boundaries_are_exact_and_nan_free() {
        // Utilization exactly at the ceiling is a rejection: the policy
        // admits strictly below it, so a full-to-the-ceiling market never
        // over-admits by an epsilon.
        for ceiling in [0.25, 0.5, 0.85, 1.0] {
            let p = AdmissionPolicy::Headroom {
                max_utilization: ceiling,
            };
            assert!(!p.admits(ceiling), "exactly-at-ceiling must reject");
            assert!(p.admits(ceiling - 1e-12));
        }
        // A ceiling of 1.0 still admits any real sub-saturation load;
        // greedy admits everything, even a saturated market.
        assert!(AdmissionPolicy::Headroom {
            max_utilization: 1.0
        }
        .admits(0.999_999));
        assert!(AdmissionPolicy::Greedy.admits(1.0));
        // NaN utilization can never sneak a request past a headroom
        // policy (`NaN < x` is false), and the decision itself is a
        // plain bool — no NaN propagates out of admission control.
        assert!(!AdmissionPolicy::Headroom {
            max_utilization: 0.9
        }
        .admits(f64::NAN));
        assert!(AdmissionPolicy::Greedy.admits(f64::NAN));
    }

    #[test]
    fn demand_pricing_endpoints_bound_the_admission_bill() {
        // The discount the ledger bills admissions at: an empty market
        // charges the full spot discount, a saturated one list price,
        // for any base fraction.
        for fraction in [0.0, 0.2, 0.5, 1.0] {
            let spot = SpotPricing { fraction };
            assert_eq!(spot.demand_fraction(0.0), fraction, "empty market");
            assert_eq!(spot.demand_fraction(1.0), 1.0, "saturated market");
        }
        // The zero-capacity ledger reads as saturated, so its admissions
        // (there are none — nothing fits) would bill at list price.
        let ledger = SpotLedger::new(&MarketConfig::default(), &[0; N_MARKET_FAMILIES]);
        assert_eq!(ledger.utilization(), 1.0);
        assert_eq!(
            SpotPricing::PAPER_DEFAULT.demand_fraction(ledger.utilization()),
            1.0
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(MarketConfig {
            vms_per_family: 0,
            ..MarketConfig::default()
        }
        .validate()
        .is_err());
        assert!(MarketConfig {
            supply: SupplyProcess {
                step_secs: 0.0,
                ..SupplyProcess::STEADY
            },
            ..MarketConfig::default()
        }
        .validate()
        .is_err());
        assert!(MarketConfig {
            supply: SupplyProcess {
                min_fraction: 1.5,
                ..SupplyProcess::STEADY
            },
            ..MarketConfig::default()
        }
        .validate()
        .is_err());
        assert!(MarketConfig {
            admission: AdmissionPolicy::Headroom {
                max_utilization: f64::NAN
            },
            ..MarketConfig::default()
        }
        .validate()
        .is_err());
        for bad in [
            ZoneConfig {
                n_zones: 0,
                ..ZoneConfig::SINGLE
            },
            ZoneConfig {
                notice_secs: -1.0,
                ..ZoneConfig::SINGLE
            },
            ZoneConfig {
                shock: 1.5,
                ..ZoneConfig::SINGLE
            },
            ZoneConfig {
                migration_rebill: f64::INFINITY,
                ..ZoneConfig::SINGLE
            },
        ] {
            assert!(MarketConfig {
                zones: bad,
                ..MarketConfig::default()
            }
            .validate()
            .is_err());
        }
        assert!(MarketConfig::default().validate().is_ok());
    }
}
