//! Zero-allocation telemetry for the replay engine.
//!
//! The replay hot loop is generic over a [`Recorder`]. With the
//! [`NoopRecorder`] every call monomorphizes to nothing — no branches,
//! no allocation, no atomics — so the telemetry-off replay is
//! bit-for-bit and instruction-for-instruction the untraced engine.
//! With the live [`Telemetry`] recorder, every observation lands in
//! preallocated storage: a fixed counter array, fixed log2-bucketed
//! [`Histogram`]s, and a fixed-capacity [`SpanRing`] that overwrites
//! its oldest entry (and counts the drop) instead of growing. After
//! construction, recording never touches the allocator.
//!
//! Two clocks coexist. *Simulated-time* spans carry replay-clock
//! nanoseconds (epoch bounds, controller ticks, supply steps) and are
//! deterministic: the same replay produces the same spans. *Wall-time*
//! spans carry nanoseconds since the recorder's origin `Instant`
//! (scan, epoch simulation, snapshot writes) and describe the host,
//! not the replay — they are excluded from determinism guarantees.
//!
//! Exports: [`Telemetry::jsonl_snapshot`] (one JSON line per epoch),
//! [`Telemetry::chrome_trace`] (trace-event JSON loadable in Perfetto
//! or `chrome://tracing`), and [`Telemetry::summary`] (compact
//! terminal block).

use std::fmt::Write as _;
use std::time::Instant;

/// Monotonic event counters, preallocated as one flat array.
///
/// Sim-derived counters (everything except the span/export plumbing)
/// are deterministic for a given replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Counter {
    /// Trace arrivals admitted to the placement path.
    Arrivals,
    /// Arrivals placed on spot capacity.
    SpotAdmitted,
    /// Arrivals bounced to on-demand by the admission policy.
    PolicyRejected,
    /// Arrivals bounced to on-demand because spot was full.
    CapacityMissed,
    /// Arrivals that ran on-demand because their plan had no active
    /// alternates (policy and capacity bounces count separately).
    OnDemand,
    /// In-flight executions that ran to completion on their placement.
    Completions,
    /// Completions of executions that had already been drained or
    /// demoted off their placement (ledger ghosts).
    GhostCompletions,
    /// Executions drained off withdrawn spot capacity under notice.
    Drained,
    /// Executions live-migrated to a surviving zone.
    Migrated,
    /// Executions demoted from spot to on-demand billing.
    SpotDemoted,
    /// Executions caught by a preemption notice.
    Notified,
    /// Market supply steps applied.
    SupplySteps,
    /// Preemption notices fired.
    NoticesFired,
    /// Controller observation/actuation ticks.
    ControllerTicks,
    /// Per-function placement revisions the controller issued at ticks.
    Replans,
    /// Epochs simulated: one for a single pass, one per epoch of a
    /// resumable replay.
    EpochsSimulated,
    /// Resumable-replay snapshots handed to the snapshot callback.
    SnapshotsWritten,
    /// Transient per-invocation faults drawn on spot attempts
    /// (crash-on-start, mid-flight abort, straggler).
    TransientFaults,
    /// Retry activations: every time the retry layer re-entered
    /// admission for a faulted invocation (including activations that
    /// were immediately shed or dead-lettered).
    Retried,
    /// Hedged re-issues that beat the straggler they raced.
    HedgeWins,
    /// Invocations abandoned by the retry layer (attempt cap or family
    /// budget exhausted, retry past the horizon, or shed in brownout).
    DeadLettered,
    /// Retries shed (dead-lettered) because brownout was active.
    ShedRetries,
}

impl Counter {
    /// Number of counters; length of [`Counter::ALL`].
    pub const COUNT: usize = 22;

    /// Every counter, in declaration (= export) order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Arrivals,
        Counter::SpotAdmitted,
        Counter::PolicyRejected,
        Counter::CapacityMissed,
        Counter::OnDemand,
        Counter::Completions,
        Counter::GhostCompletions,
        Counter::Drained,
        Counter::Migrated,
        Counter::SpotDemoted,
        Counter::Notified,
        Counter::SupplySteps,
        Counter::NoticesFired,
        Counter::ControllerTicks,
        Counter::Replans,
        Counter::EpochsSimulated,
        Counter::SnapshotsWritten,
        Counter::TransientFaults,
        Counter::Retried,
        Counter::HedgeWins,
        Counter::DeadLettered,
        Counter::ShedRetries,
    ];

    /// Stable snake_case name used in JSONL and summaries.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Arrivals => "arrivals",
            Counter::SpotAdmitted => "spot_admitted",
            Counter::PolicyRejected => "policy_rejected",
            Counter::CapacityMissed => "capacity_missed",
            Counter::OnDemand => "on_demand",
            Counter::Completions => "completions",
            Counter::GhostCompletions => "ghost_completions",
            Counter::Drained => "drained",
            Counter::Migrated => "migrated",
            Counter::SpotDemoted => "spot_demoted",
            Counter::Notified => "notified",
            Counter::SupplySteps => "supply_steps",
            Counter::NoticesFired => "notices_fired",
            Counter::ControllerTicks => "controller_ticks",
            Counter::Replans => "replans",
            Counter::EpochsSimulated => "epochs_simulated",
            Counter::SnapshotsWritten => "snapshots_written",
            Counter::TransientFaults => "transient_faults",
            Counter::Retried => "retried",
            Counter::HedgeWins => "hedge_wins",
            Counter::DeadLettered => "dead_lettered",
            Counter::ShedRetries => "shed_retries",
        }
    }
}

/// Value distributions, each a fixed log2-bucketed [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Hist {
    /// Wall nanoseconds of the admission hot path, sampled 1-in-64.
    /// Host-dependent; excluded from determinism guarantees.
    AdmissionNanos,
    /// Timer-wheel in-flight depth observed at each arrival.
    InflightDepth,
    /// Simulated nanoseconds between consecutive arrivals in an epoch.
    ArrivalGapNanos,
    /// Spot-pool utilization in parts-per-million at controller ticks.
    UtilizationPpm,
    /// Simulated nanoseconds of backoff applied to each scheduled retry.
    RetryBackoffNanos,
    /// Wall nanoseconds of each controller tick (the controller's
    /// revision plus the brownout update). Host-dependent; excluded from
    /// determinism guarantees.
    ControllerTickNanos,
}

impl Hist {
    /// Number of histograms; length of [`Hist::ALL`].
    pub const COUNT: usize = 6;

    /// Every histogram, in declaration (= export) order.
    pub const ALL: [Hist; Hist::COUNT] = [
        Hist::AdmissionNanos,
        Hist::InflightDepth,
        Hist::ArrivalGapNanos,
        Hist::UtilizationPpm,
        Hist::RetryBackoffNanos,
        Hist::ControllerTickNanos,
    ];

    /// Stable snake_case name used in JSONL and summaries.
    pub fn name(self) -> &'static str {
        match self {
            Hist::AdmissionNanos => "admission_ns",
            Hist::InflightDepth => "inflight_depth",
            Hist::ArrivalGapNanos => "arrival_gap_ns",
            Hist::UtilizationPpm => "utilization_ppm",
            Hist::RetryBackoffNanos => "retry_backoff_ns",
            Hist::ControllerTickNanos => "controller_tick_ns",
        }
    }
}

/// Span kinds. A span lives on the simulated-time track or the
/// wall-time track (never both); the recording call picks the track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Span {
    /// One replay epoch over simulated time (arg = first event
    /// index).
    Epoch,
    /// One controller cadence interval ending at a tick (arg = tick
    /// count so far).
    ControllerTick,
    /// One market supply step (instant; arg = step count so far).
    SupplyStep,
    /// One preemption notice (instant; arg = executions notified).
    Notice,
    /// One resumable-replay epoch boundary (sim instant) and the wall
    /// time spent writing its snapshot (arg = epoch).
    SnapshotEpoch,
    /// Wall time scanning/parsing one trace source (arg = source
    /// index).
    Scan,
    /// Wall time decompressing + scanning one gzip member (arg =
    /// source index).
    GzDecompress,
    /// Wall time simulating one epoch (arg = first event index).
    EpochSim,
}

impl Span {
    /// Number of span kinds; length of [`Span::ALL`].
    pub const COUNT: usize = 8;

    /// Every span kind, in declaration (= track id) order.
    pub const ALL: [Span; Span::COUNT] = [
        Span::Epoch,
        Span::ControllerTick,
        Span::SupplyStep,
        Span::Notice,
        Span::SnapshotEpoch,
        Span::Scan,
        Span::GzDecompress,
        Span::EpochSim,
    ];

    /// Stable name used as the trace-event name and track label.
    pub fn name(self) -> &'static str {
        match self {
            Span::Epoch => "epoch",
            Span::ControllerTick => "controller_tick",
            Span::SupplyStep => "supply_step",
            Span::Notice => "notice",
            Span::SnapshotEpoch => "snapshot_epoch",
            Span::Scan => "scan",
            Span::GzDecompress => "gz_decompress",
            Span::EpochSim => "epoch_sim",
        }
    }
}

/// Log2-bucketed integer histogram with exact count/sum/min/max.
///
/// Bucket `i` holds values whose bit length is `i`: bucket 0 is the
/// value 0, bucket 1 is {1}, bucket 2 is {2,3}, …, bucket 64 covers the
/// top half of `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    #[inline]
    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Record one observation. Never allocates.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Histogram::bucket_of(value)] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`), clamped to the exact max. Resolution is one
    /// power of two; deterministic given the same observations.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }
}

/// One recorded span: kind, track, start, duration, and a free-form
/// argument. 40 bytes, `Copy`, preallocated in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// What phase this span covers.
    pub kind: Span,
    /// `true` = wall-clock track, `false` = simulated-time track.
    pub wall: bool,
    /// Start in nanoseconds (sim nanos, or wall nanos since the
    /// recorder origin).
    pub start_nanos: u64,
    /// Duration in nanoseconds (0 for instant markers).
    pub dur_nanos: u64,
    /// Kind-specific argument (first event index, epoch, …).
    pub arg: u64,
}

/// Fixed-capacity span buffer: overwrites the oldest entry once full
/// and counts every overwrite, instead of growing.
#[derive(Debug, Clone)]
pub struct SpanRing {
    buf: Vec<SpanRec>,
    cap: usize,
    next: usize,
    dropped: u64,
}

impl SpanRing {
    /// Preallocate a ring for `cap` spans (min 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        SpanRing {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            dropped: 0,
        }
    }

    /// Record one span. Never allocates beyond the preallocated ring.
    #[inline]
    pub fn push(&mut self, rec: SpanRec) {
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Spans currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &SpanRec> {
        let (tail, head) = self.buf.split_at(self.next.min(self.buf.len()));
        head.iter().chain(tail.iter())
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// The replay engine's telemetry sink. Implemented by [`NoopRecorder`]
/// (compiles to nothing) and [`Telemetry`] (preallocated live
/// recorder). The replay runs on one thread and records into one
/// recorder, in simulation order.
pub trait Recorder {
    /// `false` only for the noop recorder; lets the hot loop guard
    /// sampling work behind a compile-time constant.
    const ENABLED: bool;

    /// Increment a counter.
    fn add(&mut self, counter: Counter, delta: u64);

    /// Record one histogram observation.
    fn observe(&mut self, hist: Hist, value: u64);

    /// Wall nanoseconds since the recorder's origin (0 for noop).
    fn now_nanos(&self) -> u64;

    /// True on a 1-in-N cadence, for sampled wall timing of hot paths.
    /// Always false for the noop recorder.
    fn should_sample(&mut self) -> bool;

    /// Record a simulated-time span `[start_nanos, end_nanos]`.
    fn span_sim(&mut self, kind: Span, start_nanos: u64, end_nanos: u64, arg: u64);

    /// Record a wall-time span from `start_nanos` (a prior
    /// [`Recorder::now_nanos`]) to now.
    fn span_wall(&mut self, kind: Span, start_nanos: u64, arg: u64);

    /// Record a wall-time span with an explicit duration (for phases
    /// timed outside the recorder, e.g. the scan pre-pass).
    fn span_wall_at(&mut self, kind: Span, start_nanos: u64, dur_nanos: u64, arg: u64);
}

/// The telemetry-off recorder: every method is an empty `#[inline]`
/// body, so the monomorphized hot loop is identical to an untraced
/// one. Zero size, zero cost, zero allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn add(&mut self, _counter: Counter, _delta: u64) {}
    #[inline(always)]
    fn observe(&mut self, _hist: Hist, _value: u64) {}
    #[inline(always)]
    fn now_nanos(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn should_sample(&mut self) -> bool {
        false
    }
    #[inline(always)]
    fn span_sim(&mut self, _kind: Span, _start_nanos: u64, _end_nanos: u64, _arg: u64) {}
    #[inline(always)]
    fn span_wall(&mut self, _kind: Span, _start_nanos: u64, _arg: u64) {}
    #[inline(always)]
    fn span_wall_at(&mut self, _kind: Span, _start_nanos: u64, _dur_nanos: u64, _arg: u64) {}
}

/// Default span-ring capacity: enough for a multi-day replay's ticks,
/// steps, and epochs at day-scale cadences (~650 KiB of spans).
pub const DEFAULT_SPAN_CAPACITY: usize = 16_384;

/// Sampled hot-path timing cadence: every 64th arrival.
const SAMPLE_MASK: u32 = 63;

/// The live recorder: one flat counter array, fixed histograms, and a
/// span ring, all preallocated at construction.
#[derive(Debug, Clone)]
pub struct Telemetry {
    origin: Instant,
    sample_ctr: u32,
    counters: [u64; Counter::COUNT],
    hists: [Histogram; Hist::COUNT],
    spans: SpanRing,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl Telemetry {
    /// A live recorder with the default span capacity.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// A live recorder whose span ring holds `span_capacity` spans.
    pub fn with_capacity(span_capacity: usize) -> Self {
        Telemetry {
            origin: Instant::now(),
            sample_ctr: 0,
            counters: [0; Counter::COUNT],
            hists: [Histogram::default(); Hist::COUNT],
            spans: SpanRing::new(span_capacity),
        }
    }

    /// Current value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// One histogram's current state.
    pub fn hist(&self, h: Hist) -> &Histogram {
        &self.hists[h as usize]
    }

    /// Recorded spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRec> {
        self.spans.iter()
    }

    /// Spans overwritten because the ring filled up.
    pub fn dropped_spans(&self) -> u64 {
        self.spans.dropped()
    }

    /// One-line digest for sweep tables: the counters that explain a
    /// cell plus the admission-path p99.
    pub fn brief(&self) -> String {
        let adm = self.hist(Hist::AdmissionNanos);
        format!(
            "ticks {} steps {} admission p99 {}ns spans {} (dropped {})",
            self.counter(Counter::ControllerTicks),
            self.counter(Counter::SupplySteps),
            adm.quantile(0.99),
            self.spans.len(),
            self.spans.dropped(),
        )
    }

    /// Compact multi-line terminal summary: non-zero counters,
    /// non-empty histograms, span-ring occupancy.
    pub fn summary(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("telemetry summary\n  counters:");
        let mut any = false;
        for c in Counter::ALL {
            let v = self.counter(c);
            if v != 0 {
                let _ = write!(out, " {}={v}", c.name());
                any = true;
            }
        }
        if !any {
            out.push_str(" (none)");
        }
        out.push('\n');
        for h in Hist::ALL {
            let hist = self.hist(h);
            if hist.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {}: count {} mean {:.0} p50 {} p99 {} max {}",
                h.name(),
                hist.count(),
                hist.mean(),
                hist.quantile(0.5),
                hist.quantile(0.99),
                hist.max(),
            );
        }
        let _ = write!(
            out,
            "  spans: {} recorded, {} dropped (ring capacity {})",
            self.spans.len(),
            self.spans.dropped(),
            self.spans.capacity(),
        );
        out
    }

    /// Append one JSONL metric snapshot (cumulative counters and
    /// histogram digests at a replay epoch) to `out`.
    pub fn jsonl_snapshot(&self, epoch: u64, sim_nanos: u64, out: &mut String) {
        let _ = write!(
            out,
            "{{\"epoch\":{epoch},\"sim_secs\":{:.3},\"counters\":{{",
            sim_nanos as f64 / 1e9
        );
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", c.name(), self.counter(*c));
        }
        out.push_str("},\"hists\":{");
        for (i, h) in Hist::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let hist = self.hist(*h);
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                 \"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.name(),
                hist.count(),
                hist.sum(),
                hist.min(),
                hist.max(),
                hist.quantile(0.5),
                hist.quantile(0.9),
                hist.quantile(0.99),
            );
        }
        let _ = write!(
            out,
            "}},\"spans\":{},\"spans_dropped\":{}}}",
            self.spans.len(),
            self.spans.dropped()
        );
        out.push('\n');
    }

    /// Render every recorded span as Chrome trace-event JSON.
    ///
    /// Process 1 is the simulated-time timeline, process 2 the
    /// wall-time timeline; each span kind gets its own named thread
    /// track. Timestamps and durations are microseconds, as the
    /// trace-event format requires. The output loads directly in
    /// Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(256 + 96 * self.spans.len());
        out.push_str("[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"simulated time\"}},\n",
        );
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
             \"args\":{\"name\":\"wall time\"}},\n",
        );
        let mut present = [[false; Span::COUNT]; 2];
        for rec in self.spans.iter() {
            present[rec.wall as usize][rec.kind as usize] = true;
        }
        for (wall, kinds) in present.iter().enumerate() {
            for (idx, seen) in kinds.iter().enumerate() {
                if *seen {
                    let _ = writeln!(
                        out,
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                         \"args\":{{\"name\":\"{}\"}}}},",
                        wall + 1,
                        idx + 1,
                        Span::ALL[idx].name(),
                    );
                }
            }
        }
        let mut first = true;
        for rec in self.spans.iter() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"arg\":{}}}}}",
                rec.kind.name(),
                if rec.wall { "wall" } else { "sim" },
                rec.start_nanos as f64 / 1e3,
                rec.dur_nanos as f64 / 1e3,
                if rec.wall { 2 } else { 1 },
                rec.kind as usize + 1,
                rec.arg,
            );
        }
        out.push_str("\n]\n");
        out
    }

    /// Write [`Telemetry::chrome_trace`] to a file.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace())
    }
}

impl Recorder for Telemetry {
    const ENABLED: bool = true;

    #[inline]
    fn add(&mut self, counter: Counter, delta: u64) {
        self.counters[counter as usize] += delta;
    }

    #[inline]
    fn observe(&mut self, hist: Hist, value: u64) {
        self.hists[hist as usize].observe(value);
    }

    #[inline]
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline]
    fn should_sample(&mut self) -> bool {
        let hit = self.sample_ctr & SAMPLE_MASK == 0;
        self.sample_ctr = self.sample_ctr.wrapping_add(1);
        hit
    }

    #[inline]
    fn span_sim(&mut self, kind: Span, start_nanos: u64, end_nanos: u64, arg: u64) {
        self.spans.push(SpanRec {
            kind,
            wall: false,
            start_nanos,
            dur_nanos: end_nanos.saturating_sub(start_nanos),
            arg,
        });
    }

    #[inline]
    fn span_wall(&mut self, kind: Span, start_nanos: u64, arg: u64) {
        let dur = self.now_nanos().saturating_sub(start_nanos);
        self.span_wall_at(kind, start_nanos, dur, arg);
    }

    #[inline]
    fn span_wall_at(&mut self, kind: Span, start_nanos: u64, dur_nanos: u64, arg: u64) {
        self.spans.push(SpanRec {
            kind,
            wall: true,
            start_nanos,
            dur_nanos,
            arg,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_of(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.observe(v);
        }
        h
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        // 0 → bucket 0; 1 → 1; 2,3 → 2; 4,7 → 3; 8 → 4; 1023 → 10;
        // 1024 → 11; u64::MAX → 64.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 2);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.buckets[11], 1);
        assert_eq!(h.buckets[64], 1);
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let h = hist_of(&[1, 2, 4, 8, 16, 32, 64, 128, 256, 512]);
        assert_eq!(h.quantile(0.0), 1);
        // rank 5 of 10 lands on value 16 → bucket 5 upper bound 31.
        assert_eq!(h.quantile(0.5), 31);
        // p99 rounds up to the last observation's bucket, clamped to max.
        assert_eq!(h.quantile(0.99), 512);
        assert_eq!(h.quantile(1.0), 512);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn span_ring_overflow_drops_oldest_and_counts() {
        let mut ring = SpanRing::new(4);
        for i in 0..7u64 {
            ring.push(SpanRec {
                kind: Span::Epoch,
                wall: false,
                start_nanos: i,
                dur_nanos: 1,
                arg: i,
            });
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 3);
        let args: Vec<u64> = ring.iter().map(|r| r.arg).collect();
        assert_eq!(args, vec![3, 4, 5, 6], "oldest spans must be dropped first");
    }

    #[test]
    fn span_ring_below_capacity_keeps_order_and_drops_nothing() {
        let mut ring = SpanRing::new(8);
        for i in 0..5u64 {
            ring.push(SpanRec {
                kind: Span::ControllerTick,
                wall: false,
                start_nanos: i * 10,
                dur_nanos: 10,
                arg: i,
            });
        }
        assert_eq!(ring.len(), 5);
        assert_eq!(ring.dropped(), 0);
        let args: Vec<u64> = ring.iter().map(|r| r.arg).collect();
        assert_eq!(args, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn noop_recorder_reports_disabled_and_never_samples() {
        let mut noop = NoopRecorder;
        const { assert!(!NoopRecorder::ENABLED) };
        assert!(!noop.should_sample());
        assert_eq!(noop.now_nanos(), 0);
        // All recording calls are inert.
        noop.add(Counter::Arrivals, 1);
        noop.observe(Hist::AdmissionNanos, 1);
        noop.span_sim(Span::Epoch, 0, 1, 0);
    }

    #[test]
    fn live_recorder_samples_one_in_sixty_four() {
        let mut t = Telemetry::with_capacity(4);
        let hits = (0..256).filter(|_| t.should_sample()).count();
        assert_eq!(hits, 4);
    }

    #[test]
    fn chrome_trace_is_wellformed_json_with_both_processes() {
        let mut t = Telemetry::with_capacity(8);
        t.span_sim(Span::Epoch, 0, 60_000_000_000, 0);
        t.span_sim(Span::ControllerTick, 0, 30_000_000_000, 1);
        t.span_wall_at(Span::Scan, 0, 5_000_000, 0);
        let json = t.chrome_trace();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"simulated time\""));
        assert!(json.contains("\"wall time\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"epoch\""));
        assert!(json.contains("\"name\":\"scan\""));
        // Balanced braces/brackets ⇒ structurally sound without a parser.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn jsonl_snapshot_has_every_counter_and_hist() {
        let mut t = Telemetry::with_capacity(4);
        t.add(Counter::Arrivals, 42);
        t.observe(Hist::AdmissionNanos, 1000);
        let mut line = String::new();
        t.jsonl_snapshot(3, 21_600_000_000_000, &mut line);
        assert!(line.ends_with('\n'));
        assert!(line.contains("\"epoch\":3"));
        assert!(line.contains("\"sim_secs\":21600.000"));
        for c in Counter::ALL {
            assert!(line.contains(&format!("\"{}\":", c.name())), "{}", c.name());
        }
        for h in Hist::ALL {
            assert!(line.contains(&format!("\"{}\":", h.name())), "{}", h.name());
        }
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }
}
