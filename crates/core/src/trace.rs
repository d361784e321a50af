//! Arrival-trace generation for the fleet simulator.
//!
//! "Serverless in the Wild" (Shahrad et al., ATC'20) shows that real
//! provider traces are nothing like a fixed-rate Poisson process: function
//! popularity spans orders of magnitude, arrivals are bursty, and load
//! follows diurnal cycles. [`TraceSource`] models those regimes:
//!
//! - [`TraceSource::Poisson`]: independent exponential inter-arrivals per
//!   function (the original toy workload);
//! - [`TraceSource::Bursty`]: a two-state Markov-modulated Poisson
//!   process (calm/burst) per function;
//! - [`TraceSource::Diurnal`]: a sinusoidally-modulated rate (thinning);
//! - [`TraceSource::HeavyTail`]: Pareto-distributed per-function
//!   popularity and Lomax (heavy-tailed) inter-arrival times.
//!
//! Every generator produces one **independent stream per function**,
//! seeded as a pure function of `(seed, function index)`. That is the
//! property the sharded fleet replay relies on: a function's stream never
//! depends on how many other functions exist or which thread generated
//! it, so `generate` and [`TraceSource::generate_sharded`] are
//! bit-identical. The merged event view is built with a k-way streaming
//! merge over the per-function streams (no global sort).
//!
//! Each generator is implemented as a resumable [`GenCursor`] — the
//! per-function event cursor the streaming pipeline
//! ([`crate::stream::StreamTrace`]) pulls from lazily. The materialized
//! [`Trace`] drains the very same cursor into a `Vec`, so the two
//! representations are bit-identical by construction.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use freedom_workloads::FunctionKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{FreedomError, Result};

/// One invocation arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Arrival time in seconds since trace start.
    pub at_secs: f64,
    /// Index of the invoked function in the fleet's plan list.
    pub function: usize,
}

/// A generated arrival trace: per-function streams plus their merged view.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Sorted arrival times per function (the shard replay input).
    streams: Vec<Vec<f64>>,
    /// All arrivals merged by time (ties: lower function index first).
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Builds a trace from per-function sorted arrival streams, merging
    /// them with a k-way streaming merge (heap of one cursor per stream)
    /// into the time-ordered event view. `O(N log F)`, no global sort,
    /// and the output vector is pre-sized exactly.
    fn from_streams(streams: Vec<Vec<f64>>) -> Self {
        let total: usize = streams.iter().map(Vec::len).sum();
        let mut events = Vec::with_capacity(total);
        // Arrival times are non-negative finite, so their IEEE-754 bit
        // patterns order exactly like the floats and give the heap a
        // cheap `Ord` key. Ties break on function index, matching what a
        // stable sort over function-ordered streams would produce.
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(streams.len());
        let mut cursors = vec![0usize; streams.len()];
        for (f, stream) in streams.iter().enumerate() {
            if let Some(&t) = stream.first() {
                heap.push(Reverse((t.to_bits(), f)));
            }
        }
        while let Some(Reverse((bits, f))) = heap.pop() {
            events.push(TraceEvent {
                at_secs: f64::from_bits(bits),
                function: f,
            });
            cursors[f] += 1;
            if let Some(&t) = streams[f].get(cursors[f]) {
                heap.push(Reverse((t.to_bits(), f)));
            }
        }
        Self { streams, events }
    }

    /// Generates the classic fixed-rate Poisson trace over the six
    /// benchmark functions (function index `i` is `FunctionKind::ALL[i]`;
    /// a fleet replaying this trace should list its plans in the same
    /// order — see `FleetSimulator::new`).
    ///
    /// Returns [`FreedomError::InvalidArgument`] for non-positive rates or
    /// durations.
    pub fn poisson(duration_secs: f64, rps_per_function: f64, seed: u64) -> Result<Self> {
        TraceSource::Poisson { rps_per_function }.generate(
            FunctionKind::ALL.len(),
            duration_secs,
            seed,
        )
    }

    /// The events, in arrival order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of functions with a (possibly empty) stream in this trace.
    pub fn n_functions(&self) -> usize {
        self.streams.len()
    }

    /// The sorted arrival times of one function's stream.
    pub fn stream(&self, function: usize) -> &[f64] {
        &self.streams[function]
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Upper bound on the number of epochs a resumable replay cuts a trace
/// into: an epoch far below the trace's span would otherwise spend the
/// replay on billions of (almost all empty) epochs and snapshots.
pub const MAX_WINDOWS: u64 = 1 << 22;

/// An arrival time in the integer nanoseconds the fleet simulator orders
/// events by. The conversion is monotone over non-negative finite floats,
/// so it preserves the merged view's sort order.
#[inline]
pub(crate) fn event_nanos(at_secs: f64) -> u64 {
    (at_secs * 1e9) as u64
}

/// Truncation of the Pareto popularity weight in
/// [`TraceSource::HeavyTail`]: real providers cap per-function request
/// rates, and an untruncated Pareto sample can be astronomically large.
const MAX_POPULARITY: f64 = 256.0;

/// A family of synthetic arrival-trace generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceSource {
    /// Fixed-rate Poisson arrivals, independently per function.
    Poisson {
        /// Mean arrival rate of every function, in requests per second.
        rps_per_function: f64,
    },
    /// Two-state Markov-modulated Poisson process per function: calm
    /// periods at `calm_rps` alternating with bursts at `burst_rps`,
    /// with exponentially distributed sojourn times.
    Bursty {
        /// Arrival rate outside bursts (may be 0 for on/off traffic).
        calm_rps: f64,
        /// Arrival rate inside bursts.
        burst_rps: f64,
        /// Mean length of a calm period, seconds.
        mean_calm_secs: f64,
        /// Mean length of a burst, seconds.
        mean_burst_secs: f64,
    },
    /// Sinusoidally-modulated Poisson process (thinning):
    /// `rate(t) = mean · (1 + a·sin(2πt/period))` with the amplitude `a`
    /// chosen so the peak-to-trough rate ratio is `peak_to_trough`.
    Diurnal {
        /// Time-averaged arrival rate per function.
        mean_rps: f64,
        /// Ratio of the peak rate to the trough rate (≥ 1).
        peak_to_trough: f64,
        /// Cycle length in seconds (a day, or the trace length).
        period_secs: f64,
    },
    /// "Serverless in the Wild"-shaped traffic: each function's rate is
    /// `mean_rps` scaled by a Pareto(1, α) popularity weight (normalized
    /// to keep the fleet-wide mean near `mean_rps`, truncated at
    /// [`MAX_POPULARITY`]), and its inter-arrival times are Lomax(α)
    /// distributed — heavy-tailed gaps punctuated by clustered arrivals.
    HeavyTail {
        /// Target mean arrival rate per function.
        mean_rps: f64,
        /// Tail index α (must be > 1 so means exist; smaller = heavier).
        alpha: f64,
    },
}

impl TraceSource {
    /// Parses an Azure-Functions-style invocation-count CSV into a
    /// [`Trace`], completing the "Serverless in the Wild" loop with real
    /// trace files instead of synthetic generators.
    ///
    /// Expected rows are `app,func,minute,count`: `count` invocations of
    /// function `func` of application `app` during minute `minute`
    /// (0-based, at most 2³¹ − 1; `count` at most 10⁶). A leading
    /// header row is skipped when its `minute` column is not numeric;
    /// blank lines are ignored. Functions are keyed by `(app, func)` and
    /// assigned fleet indices in order of first appearance, matching how
    /// `FleetSimulator` pairs plans with streams positionally.
    ///
    /// The trace format carries per-minute counts, not timestamps; the
    /// `count` arrivals of a minute are spread evenly across it
    /// (deterministically, no RNG), and each per-function stream is
    /// sorted before the streams run through the same k-way merge as the
    /// synthetic generators.
    ///
    /// Returns [`FreedomError::InvalidArgument`] on malformed rows (with
    /// the 1-based line number) or when no data rows are present.
    pub fn from_csv(csv: &str) -> Result<Trace> {
        let mut keys: std::collections::HashMap<(String, String), usize> =
            std::collections::HashMap::new();
        let mut streams: Vec<Vec<f64>> = Vec::new();
        for (lineno, line) in csv.lines().enumerate() {
            let Some(row) = parse_csv_row(line, lineno)? else {
                continue;
            };
            let next_index = keys.len();
            let function = *keys
                .entry((row.app.to_string(), row.func.to_string()))
                .or_insert(next_index);
            if function == next_index {
                streams.push(Vec::new());
            }
            streams[function]
                .extend((0..row.count).map(|j| minute_event(row.minute, j, row.count)));
        }
        if streams.is_empty() {
            return Err(FreedomError::InvalidArgument(
                "trace CSV has no data rows".into(),
            ));
        }
        // Rows may arrive in any order; each stream must be sorted for
        // the k-way merge.
        for stream in &mut streams {
            stream.sort_by(|a, b| a.total_cmp(b));
        }
        Ok(Trace::from_streams(streams))
    }

    /// Reads [`TraceSource::from_csv`] input from a file.
    pub fn from_csv_path(path: impl AsRef<std::path::Path>) -> Result<Trace> {
        let path = path.as_ref();
        let csv = std::fs::read_to_string(path).map_err(|e| {
            FreedomError::InvalidArgument(format!("cannot read trace CSV {}: {e}", path.display()))
        })?;
        Self::from_csv(&csv)
    }

    /// Generates `n_functions` independent streams over `duration_secs`
    /// seconds and merges them into a [`Trace`].
    ///
    /// Returns [`FreedomError::InvalidArgument`] for non-positive
    /// durations, zero functions, or parameters outside each variant's
    /// domain (see the variant docs).
    pub fn generate(&self, n_functions: usize, duration_secs: f64, seed: u64) -> Result<Trace> {
        self.generate_sharded(n_functions, duration_secs, seed, 1)
    }

    /// Like [`TraceSource::generate`], with stream generation fanned out
    /// over `threads` workers. Streams are pure functions of
    /// `(seed, function index)`, so the result is bit-identical to the
    /// sequential path for every thread count.
    pub fn generate_sharded(
        &self,
        n_functions: usize,
        duration_secs: f64,
        seed: u64,
        threads: usize,
    ) -> Result<Trace> {
        self.validate(n_functions, duration_secs)?;
        let streams = freedom_parallel::par_run(n_functions, threads, |f| {
            self.stream(duration_secs, stream_seed(seed, f))
        });
        Ok(Trace::from_streams(streams))
    }

    pub(crate) fn validate(&self, n_functions: usize, duration_secs: f64) -> Result<()> {
        let invalid = |what: String| Err(FreedomError::InvalidArgument(what));
        if n_functions == 0 {
            return invalid("trace needs at least one function".into());
        }
        if !duration_secs.is_finite() || duration_secs <= 0.0 {
            return invalid(format!("duration must be positive, got {duration_secs}s"));
        }
        let positive = |name: &str, v: f64| -> Result<()> {
            if !v.is_finite() || v <= 0.0 {
                return Err(FreedomError::InvalidArgument(format!(
                    "{name} must be positive, got {v}"
                )));
            }
            Ok(())
        };
        match *self {
            Self::Poisson { rps_per_function } => positive("rate", rps_per_function),
            Self::Bursty {
                calm_rps,
                burst_rps,
                mean_calm_secs,
                mean_burst_secs,
            } => {
                if !calm_rps.is_finite() || calm_rps < 0.0 {
                    return invalid(format!("calm rate must be ≥ 0, got {calm_rps}"));
                }
                positive("burst rate", burst_rps)?;
                positive("mean calm period", mean_calm_secs)?;
                positive("mean burst period", mean_burst_secs)
            }
            Self::Diurnal {
                mean_rps,
                peak_to_trough,
                period_secs,
            } => {
                positive("mean rate", mean_rps)?;
                positive("period", period_secs)?;
                if !peak_to_trough.is_finite() || peak_to_trough < 1.0 {
                    return invalid(format!(
                        "peak-to-trough ratio must be ≥ 1, got {peak_to_trough}"
                    ));
                }
                Ok(())
            }
            Self::HeavyTail { mean_rps, alpha } => {
                positive("mean rate", mean_rps)?;
                if !alpha.is_finite() || alpha <= 1.0 {
                    return invalid(format!("alpha must be > 1, got {alpha}"));
                }
                Ok(())
            }
        }
    }

    /// One function's sorted arrival stream over `(0, duration)`:
    /// a full drain of the function's [`GenCursor`], so the materialized
    /// stream and the lazy one are the same bits by construction.
    fn stream(&self, duration: f64, seed: u64) -> Vec<f64> {
        let mut cursor = GenCursor::new(self, duration, seed);
        let mut out = presized(duration, cursor.rate_hint());
        while let Some(t) = cursor.next_arrival() {
            out.push(t);
        }
        out
    }
}

/// The resumable state of one function's arrival generator: the event
/// cursor the streaming pipeline pulls from lazily.
///
/// A cursor is a pure function of `(source, duration, seed)`: cloning it
/// checkpoints the stream at its current position, and restoring the
/// clone replays the identical suffix — the property a resumable
/// replay's stream checkpoint ([`crate::stream::StreamCheckpoint`], one
/// cursor per function) rests on. [`TraceSource::stream`] drains a
/// fresh cursor into a `Vec`, so the materialized and streaming
/// representations never diverge.
#[derive(Debug, Clone)]
pub(crate) struct GenCursor {
    rng: StdRng,
    t: f64,
    duration: f64,
    done: bool,
    mode: GenMode,
    rate_hint: f64,
}

/// Variant-specific generator state.
#[derive(Debug, Clone)]
enum GenMode {
    Poisson {
        rate: f64,
    },
    Bursty {
        calm_rps: f64,
        burst_rps: f64,
        mean_calm_secs: f64,
        mean_burst_secs: f64,
        bursting: bool,
        switch_at: f64,
    },
    Diurnal {
        mean_rps: f64,
        amp: f64,
        rate_max: f64,
        period_secs: f64,
    },
    HeavyTail {
        alpha: f64,
        scale: f64,
    },
}

impl GenCursor {
    /// Seeds a fresh cursor at `t = 0`. Any RNG draws that fix the
    /// stream's shape (the heavy-tail popularity weight, the first
    /// bursty state switch) happen here, in the same order the
    /// materialized generator performed them.
    pub(crate) fn new(source: &TraceSource, duration: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mode, rate_hint) = match *source {
            TraceSource::Poisson { rps_per_function } => (
                GenMode::Poisson {
                    rate: rps_per_function,
                },
                rps_per_function,
            ),
            TraceSource::Bursty {
                calm_rps,
                burst_rps,
                mean_calm_secs,
                mean_burst_secs,
            } => {
                // Expected rate = time-weighted mix of the two states.
                let mix = (calm_rps * mean_calm_secs + burst_rps * mean_burst_secs)
                    / (mean_calm_secs + mean_burst_secs);
                let switch_at = exp_sample(&mut rng, 1.0 / mean_calm_secs);
                (
                    GenMode::Bursty {
                        calm_rps,
                        burst_rps,
                        mean_calm_secs,
                        mean_burst_secs,
                        bursting: false,
                        switch_at,
                    },
                    mix,
                )
            }
            TraceSource::Diurnal {
                mean_rps,
                peak_to_trough,
                period_secs,
            } => {
                let amp = (peak_to_trough - 1.0) / (peak_to_trough + 1.0);
                let rate_max = mean_rps * (1.0 + amp);
                (
                    GenMode::Diurnal {
                        mean_rps,
                        amp,
                        rate_max,
                        period_secs,
                    },
                    mean_rps,
                )
            }
            TraceSource::HeavyTail { mean_rps, alpha } => {
                // Popularity weight: Pareto(1, α), normalized by its mean
                // α/(α−1) so the fleet-wide average stays ≈ mean_rps,
                // truncated so a single function cannot dwarf the fleet.
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let weight = u.powf(-1.0 / alpha).min(MAX_POPULARITY);
                let rate = mean_rps * weight * (alpha - 1.0) / alpha;
                // Lomax(α) inter-arrivals with mean 1/rate.
                let scale = (alpha - 1.0) / rate;
                (GenMode::HeavyTail { alpha, scale }, rate)
            }
        };
        Self {
            rng,
            t: 0.0,
            duration,
            done: false,
            mode,
            rate_hint,
        }
    }

    /// This stream's expected arrival rate — the pre-sizing hint.
    pub(crate) fn rate_hint(&self) -> f64 {
        self.rate_hint
    }

    /// Serializes the cursor's full resumable state — RNG words, clock,
    /// and variant-specific fields — into a crash-resume snapshot
    /// ([`crate::snapshot`]). The round-trip through
    /// [`GenCursor::load`] restores a cursor that yields the identical
    /// suffix, bit for bit: the property crash-resumable replay rests
    /// on.
    pub(crate) fn save(&self, w: &mut crate::snapshot::Wire) {
        for word in self.rng.to_state() {
            w.u64(word);
        }
        w.f64(self.t);
        w.f64(self.duration);
        w.bool(self.done);
        w.f64(self.rate_hint);
        match &self.mode {
            GenMode::Poisson { rate } => {
                w.u8(0);
                w.f64(*rate);
            }
            GenMode::Bursty {
                calm_rps,
                burst_rps,
                mean_calm_secs,
                mean_burst_secs,
                bursting,
                switch_at,
            } => {
                w.u8(1);
                w.f64(*calm_rps);
                w.f64(*burst_rps);
                w.f64(*mean_calm_secs);
                w.f64(*mean_burst_secs);
                w.bool(*bursting);
                w.f64(*switch_at);
            }
            GenMode::Diurnal {
                mean_rps,
                amp,
                rate_max,
                period_secs,
            } => {
                w.u8(2);
                w.f64(*mean_rps);
                w.f64(*amp);
                w.f64(*rate_max);
                w.f64(*period_secs);
            }
            GenMode::HeavyTail { alpha, scale } => {
                w.u8(3);
                w.f64(*alpha);
                w.f64(*scale);
            }
        }
    }

    /// Restores a cursor previously serialized with [`GenCursor::save`].
    pub(crate) fn load(r: &mut crate::snapshot::Unwire) -> Result<Self> {
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.u64()?;
        }
        let rng = StdRng::from_state(state);
        let t = r.f64()?;
        let duration = r.f64()?;
        let done = r.bool()?;
        let rate_hint = r.f64()?;
        let mode = match r.u8()? {
            0 => GenMode::Poisson { rate: r.f64()? },
            1 => GenMode::Bursty {
                calm_rps: r.f64()?,
                burst_rps: r.f64()?,
                mean_calm_secs: r.f64()?,
                mean_burst_secs: r.f64()?,
                bursting: r.bool()?,
                switch_at: r.f64()?,
            },
            2 => GenMode::Diurnal {
                mean_rps: r.f64()?,
                amp: r.f64()?,
                rate_max: r.f64()?,
                period_secs: r.f64()?,
            },
            3 => GenMode::HeavyTail {
                alpha: r.f64()?,
                scale: r.f64()?,
            },
            tag => {
                return Err(FreedomError::InvalidArgument(format!(
                    "snapshot: unknown generator mode tag {tag}"
                )))
            }
        };
        Ok(Self {
            rng,
            t,
            duration,
            done,
            mode,
            rate_hint,
        })
    }

    /// Whether a restored cursor belongs to the stream `fresh` starts:
    /// the same horizon, variant and rate parameters, and — unless it is
    /// exhausted — a clock inside the horizon (and a burst switch not
    /// behind it). A corrupt checkpoint that passes cannot park the
    /// generator in a state that never advances.
    pub(crate) fn fits(&self, fresh: &GenCursor) -> bool {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        let (params, clock) = match (&self.mode, &fresh.mode) {
            (GenMode::Poisson { rate }, GenMode::Poisson { rate: r }) => (same(*rate, *r), true),
            (
                GenMode::Bursty {
                    calm_rps,
                    burst_rps,
                    mean_calm_secs,
                    mean_burst_secs,
                    switch_at,
                    ..
                },
                GenMode::Bursty {
                    calm_rps: c,
                    burst_rps: b,
                    mean_calm_secs: mc,
                    mean_burst_secs: mb,
                    ..
                },
            ) => (
                same(*calm_rps, *c)
                    && same(*burst_rps, *b)
                    && same(*mean_calm_secs, *mc)
                    && same(*mean_burst_secs, *mb),
                *switch_at >= self.t,
            ),
            (
                GenMode::Diurnal {
                    mean_rps,
                    amp,
                    rate_max,
                    period_secs,
                },
                GenMode::Diurnal {
                    mean_rps: m,
                    amp: a,
                    rate_max: r,
                    period_secs: p,
                },
            ) => (
                same(*mean_rps, *m)
                    && same(*amp, *a)
                    && same(*rate_max, *r)
                    && same(*period_secs, *p),
                true,
            ),
            (
                GenMode::HeavyTail { alpha, scale },
                GenMode::HeavyTail {
                    alpha: a,
                    scale: sc,
                },
            ) => (same(*alpha, *a) && same(*scale, *sc), true),
            _ => (false, false),
        };
        params
            && same(self.duration, fresh.duration)
            && same(self.rate_hint, fresh.rate_hint)
            && (self.done || (clock && self.t >= 0.0 && self.t < self.duration))
    }

    /// The next arrival strictly inside `(0, duration)`, or `None`
    /// forever once the stream is exhausted.
    pub(crate) fn next_arrival(&mut self) -> Option<f64> {
        if self.done {
            return None;
        }
        match &mut self.mode {
            GenMode::Poisson { rate } => {
                self.t += exp_sample(&mut self.rng, *rate);
                if self.t >= self.duration {
                    self.done = true;
                    return None;
                }
                Some(self.t)
            }
            GenMode::Bursty {
                calm_rps,
                burst_rps,
                mean_calm_secs,
                mean_burst_secs,
                bursting,
                switch_at,
            } => loop {
                let rate = if *bursting { *burst_rps } else { *calm_rps };
                // `calm_rps == 0` gives an infinite gap, which simply
                // rides the state machine to the next burst.
                let next = self.t + exp_sample(&mut self.rng, rate);
                if next < *switch_at {
                    self.t = next;
                    if next >= self.duration {
                        self.done = true;
                        return None;
                    }
                    return Some(next);
                }
                // The exponential is memoryless, so jumping to the
                // switch point and redrawing is exact.
                self.t = *switch_at;
                if self.t >= self.duration {
                    self.done = true;
                    return None;
                }
                *bursting = !*bursting;
                let mean = if *bursting {
                    *mean_burst_secs
                } else {
                    *mean_calm_secs
                };
                *switch_at = self.t + exp_sample(&mut self.rng, 1.0 / mean);
            },
            GenMode::Diurnal {
                mean_rps,
                amp,
                rate_max,
                period_secs,
            } => loop {
                // Lewis–Shedler thinning: candidates at the peak rate,
                // accepted with probability rate(t)/rate_max.
                self.t += exp_sample(&mut self.rng, *rate_max);
                if self.t >= self.duration {
                    self.done = true;
                    return None;
                }
                let rate = *mean_rps
                    * (1.0 + *amp * (2.0 * std::f64::consts::PI * self.t / *period_secs).sin());
                let u: f64 = self.rng.gen_range(0.0..1.0);
                if u * *rate_max < rate {
                    return Some(self.t);
                }
            },
            GenMode::HeavyTail { alpha, scale } => {
                let v: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                self.t += *scale * (v.powf(-1.0 / *alpha) - 1.0);
                if self.t >= self.duration {
                    self.done = true;
                    return None;
                }
                Some(self.t)
            }
        }
    }
}

/// One parsed `app,func,minute,count` trace-CSV row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CsvRow<'a> {
    pub app: &'a str,
    pub func: &'a str,
    pub minute: u64,
    pub count: u64,
}

/// Sanity cap per function-minute (~16 k rps): a fat-fingered count must
/// become a clean per-line error, not a giant allocation.
pub(crate) const MAX_COUNT_PER_MINUTE: u64 = 1_000_000;

/// Highest minute a trace row may carry, 2³¹ − 1 (about 4,000 years).
/// Up to it, every arrival [`minute_event`] spreads over minute `m` lies
/// strictly inside `(60m, 60m + 60)` in `f64`, so readers can order the
/// events of whole minutes by comparing integer minutes.
pub(crate) const MAX_MINUTE: u64 = (1 << 31) - 1;

/// Parses one trace-CSV line (`lineno` 0-based). Returns `Ok(None)` for
/// blank lines and for a line-0 header (non-numeric `minute` column).
/// Shared by the materialized reader ([`TraceSource::from_csv`]) and the
/// streaming one ([`crate::stream::StreamTrace`]), so both accept and
/// reject exactly the same rows with the same line-numbered errors.
pub(crate) fn parse_csv_row(line: &str, lineno: usize) -> Result<Option<CsvRow<'_>>> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    let bad = |what: &str| {
        FreedomError::InvalidArgument(format!("trace CSV line {}: {what}: {line:?}", lineno + 1))
    };
    let mut cols = line.split(',').map(str::trim);
    let (app, func, minute, count) = match (
        cols.next(),
        cols.next(),
        cols.next(),
        cols.next(),
        cols.next(),
    ) {
        (Some(app), Some(func), Some(minute), Some(count), None) => (app, func, minute, count),
        _ => return Err(bad("expected 4 columns app,func,minute,count")),
    };
    let Ok(minute) = minute.parse::<u64>() else {
        if lineno == 0 {
            return Ok(None); // header row, per the documented contract
        }
        return Err(bad("minute must be a non-negative integer"));
    };
    if minute > MAX_MINUTE {
        return Err(bad("minute exceeds 2147483647 (2^31 - 1)"));
    }
    // A numeric minute marks a data row even on the first line, so a
    // corrupt count never silently drops invocations as a misdetected
    // header.
    let Ok(count) = count.parse::<u64>() else {
        return Err(bad("count must be a non-negative integer"));
    };
    if count > MAX_COUNT_PER_MINUTE {
        return Err(bad("count exceeds 1e6 invocations per minute"));
    }
    Ok(Some(CsvRow {
        app,
        func,
        minute,
        count,
    }))
}

/// Arrival `j` of a `count`-invocation minute: the minute's invocations
/// spread evenly across its 60 seconds, each at the midpoint of its
/// `1/count` sub-slot. One formula, shared by every CSV reader, so the
/// materialized and streaming paths emit identical bits.
#[inline]
pub(crate) fn minute_event(minute: u64, j: u64, count: u64) -> f64 {
    let start = minute as f64 * 60.0;
    start + (j as f64 + 0.5) * 60.0 / count as f64
}

/// A vector pre-sized for a `duration × rate` stream plus 10% headroom,
/// capped so a pathological rate cannot trigger a giant up-front
/// allocation.
fn presized(duration: f64, rate: f64) -> Vec<f64> {
    let expected = (duration * rate * 1.1) as usize + 8;
    Vec::with_capacity(expected.min(1 << 22))
}

/// Exponential inter-arrival sample via inverse transform.
#[inline]
fn exp_sample(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// Seed of one function's stream: a SplitMix64-style mix of the trace
/// seed and the function index, so every stream is an independent pure
/// function of `(seed, index)` regardless of fleet size or threading.
pub(crate) fn stream_seed(seed: u64, function: usize) -> u64 {
    let mut z = seed ^ (function as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOURCES: [TraceSource; 4] = [
        TraceSource::Poisson {
            rps_per_function: 0.8,
        },
        TraceSource::Bursty {
            calm_rps: 0.2,
            burst_rps: 4.0,
            mean_calm_secs: 40.0,
            mean_burst_secs: 5.0,
        },
        TraceSource::Diurnal {
            mean_rps: 0.8,
            peak_to_trough: 4.0,
            period_secs: 120.0,
        },
        TraceSource::HeavyTail {
            mean_rps: 0.8,
            alpha: 1.5,
        },
    ];

    #[test]
    fn every_source_is_sorted_deterministic_and_shard_stable() {
        for source in SOURCES {
            let a = source.generate(10, 200.0, 7).unwrap();
            assert!(!a.is_empty(), "{source:?} generated nothing");
            assert_eq!(a.n_functions(), 10);
            for w in a.events().windows(2) {
                assert!(
                    w[0].at_secs < w[1].at_secs
                        || (w[0].at_secs == w[1].at_secs && w[0].function <= w[1].function),
                    "{source:?} unsorted"
                );
            }
            assert!(a
                .events()
                .iter()
                .all(|e| e.at_secs > 0.0 && e.at_secs < 200.0));
            assert_eq!(a.len(), (0..10).map(|f| a.stream(f).len()).sum::<usize>());
            // Same seed replays identically; generation threads are
            // immaterial; different seeds diverge.
            let b = source.generate_sharded(10, 200.0, 7, 8).unwrap();
            assert_eq!(a.events(), b.events(), "{source:?} diverged across threads");
            let c = source.generate(10, 200.0, 8).unwrap();
            assert_ne!(a.events(), c.events(), "{source:?} ignored the seed");
        }
    }

    #[test]
    fn streams_do_not_depend_on_fleet_size() {
        // Function 3's stream must be identical whether the fleet has 4
        // or 40 functions — the property sharded replay rests on.
        for source in SOURCES {
            let small = source.generate(4, 100.0, 21).unwrap();
            let large = source.generate(40, 100.0, 21).unwrap();
            assert_eq!(small.stream(3), large.stream(3), "{source:?}");
        }
    }

    #[test]
    fn rates_land_near_their_targets() {
        // 200 functions × 200 s at 0.8 rps ⇒ 32 000 expected arrivals.
        for source in SOURCES {
            let trace = source.generate(200, 200.0, 3).unwrap();
            let expected = 32_000.0;
            let got = trace.len() as f64;
            assert!(
                (0.5..2.0).contains(&(got / expected)),
                "{source:?}: {got} arrivals vs ~{expected}"
            );
        }
    }

    #[test]
    fn heavy_tail_popularity_is_skewed() {
        let trace = TraceSource::HeavyTail {
            mean_rps: 1.0,
            alpha: 1.2,
        }
        .generate(100, 200.0, 11)
        .unwrap();
        let mut lens: Vec<usize> = (0..100).map(|f| trace.stream(f).len()).collect();
        lens.sort_unstable();
        let total: usize = lens.iter().sum();
        let top10: usize = lens[90..].iter().sum();
        // The hottest 10% of functions carry well over a proportional
        // share of traffic.
        assert!(
            top10 * 2 > total,
            "top-10% share {top10}/{total} is not heavy-tailed"
        );
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let gen = |s: TraceSource| s.generate(4, 100.0, 1);
        assert!(gen(TraceSource::Poisson {
            rps_per_function: 0.0
        })
        .is_err());
        assert!(gen(TraceSource::Bursty {
            calm_rps: -0.1,
            burst_rps: 1.0,
            mean_calm_secs: 10.0,
            mean_burst_secs: 5.0
        })
        .is_err());
        assert!(gen(TraceSource::Bursty {
            calm_rps: 0.1,
            burst_rps: 1.0,
            mean_calm_secs: 0.0,
            mean_burst_secs: 5.0
        })
        .is_err());
        assert!(gen(TraceSource::Diurnal {
            mean_rps: 1.0,
            peak_to_trough: 0.5,
            period_secs: 60.0
        })
        .is_err());
        assert!(gen(TraceSource::HeavyTail {
            mean_rps: 1.0,
            alpha: 1.0
        })
        .is_err());
        let p = TraceSource::Poisson {
            rps_per_function: 1.0,
        };
        assert!(p.generate(0, 100.0, 1).is_err());
        assert!(p.generate(4, -5.0, 1).is_err());
        assert!(p.generate(4, f64::NAN, 1).is_err());
    }

    const AZURE_FIXTURE: &str = include_str!("../testdata/azure_sample.csv");

    #[test]
    fn csv_ingestion_builds_sorted_merged_streams() {
        let trace = TraceSource::from_csv(AZURE_FIXTURE).unwrap();
        assert_eq!(trace.n_functions(), 6, "six distinct (app, func) keys");
        assert_eq!(trace.len(), 113, "sum of the fixture's counts");
        // First-appearance order: imgproc/faceblur is function 0.
        assert_eq!(trace.stream(0).len(), 12 + 9);
        // web/render rows arrive minute-1-before-minute-0; the stream
        // must still be sorted.
        let render = trace.stream(3);
        assert_eq!(render.len(), 55);
        for w in render.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Merged view sorted with function-index tie-breaks, like every
        // generated trace.
        for w in trace.events().windows(2) {
            assert!(
                w[0].at_secs < w[1].at_secs
                    || (w[0].at_secs == w[1].at_secs && w[0].function <= w[1].function)
            );
        }
        // Counts spread inside their minute: all of transcode's minute-2
        // arrivals live in [120, 180).
        let transcode = trace.stream(2);
        assert!(transcode[2..].iter().all(|&t| (120.0..180.0).contains(&t)));
        // Parsing is deterministic.
        let again = TraceSource::from_csv(AZURE_FIXTURE).unwrap();
        assert_eq!(trace.events(), again.events());
    }

    #[test]
    fn csv_ingestion_rejects_malformed_input() {
        assert!(TraceSource::from_csv("").is_err());
        assert!(TraceSource::from_csv("app,func,minute,count\n").is_err());
        // Wrong column count, both short and long.
        assert!(TraceSource::from_csv("a,f,0\n").is_err());
        assert!(TraceSource::from_csv("a,f,0,3,extra\n").is_err());
        // Non-numeric minute outside the header line.
        assert!(TraceSource::from_csv("a,f,0,3\na,f,x,2\n").is_err());
        // Negative count and negative minute.
        assert!(TraceSource::from_csv("a,f,0,-1\n").is_err());
        assert!(TraceSource::from_csv("a,f,0,1\na,f,-2,1\n").is_err());
        // A numeric minute with a corrupt count on the first line is a
        // malformed data row, not a header — it must not vanish.
        assert!(TraceSource::from_csv("a,f,0,12x\na,f,1,5\n").is_err());
        // A fat-fingered count hits the per-minute sanity cap instead of
        // attempting a giant allocation.
        assert!(TraceSource::from_csv("a,f,0,1000001\n").is_err());
        // Whitespace-only files have no data rows.
        assert!(TraceSource::from_csv("\n   \n\t\n").is_err());
        // Errors are clean `InvalidArgument`s naming the offending
        // 1-based line, never panics.
        match TraceSource::from_csv("a,f,0,3\na,f,1,oops\n") {
            Err(crate::FreedomError::InvalidArgument(msg)) => {
                assert!(msg.contains("line 2"), "{msg}");
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        // Headerless files parse too, and zero counts are allowed.
        let trace = TraceSource::from_csv("a,f,0,3\nb,g,1,0\n").unwrap();
        assert_eq!(trace.n_functions(), 2);
        assert_eq!(trace.len(), 3);
        assert!(trace.stream(1).is_empty());
        // Missing file.
        assert!(TraceSource::from_csv_path("/nonexistent/trace.csv").is_err());
    }

    #[test]
    fn arrivals_of_the_last_minute_stay_inside_it() {
        // The minute bound is what keeps every spread arrival strictly
        // inside its minute: at `MAX_MINUTE` the float spacing near
        // 60m is ~1.5e-5 s, half the narrowest gap a 1e6-count row
        // leaves at either end of the minute.
        let m = MAX_MINUTE;
        let (lo, hi) = (m as f64 * 60.0, (m + 1) as f64 * 60.0);
        for c in 1..=MAX_COUNT_PER_MINUTE {
            for j in [0, c - 1] {
                let t = minute_event(m, j, c);
                assert!(lo < t && t < hi, "minute_event({m}, {j}, {c}) = {t}");
            }
        }
    }

    #[test]
    fn csv_ingestion_sorts_out_of_order_minutes() {
        // Rows arriving newest-first (and interleaved across functions)
        // still produce sorted streams and a sorted merged view.
        let csv = "a,f,5,2\nb,g,1,3\na,f,0,4\nb,g,3,1\na,f,2,1\n";
        let trace = TraceSource::from_csv(csv).unwrap();
        assert_eq!(trace.n_functions(), 2);
        assert_eq!(trace.len(), 2 + 3 + 4 + 1 + 1);
        for f in 0..trace.n_functions() {
            for w in trace.stream(f).windows(2) {
                assert!(w[0] <= w[1], "stream {f} unsorted: {w:?}");
            }
        }
        for w in trace.events().windows(2) {
            assert!(
                w[0].at_secs < w[1].at_secs
                    || (w[0].at_secs == w[1].at_secs && w[0].function <= w[1].function)
            );
        }
        // Minute 5's arrivals land inside [300, 360).
        let f0 = trace.stream(0);
        assert!(f0.last().is_some_and(|&t| (300.0..360.0).contains(&t)));
    }

    #[test]
    fn zero_calm_rate_gives_pure_bursts() {
        let trace = TraceSource::Bursty {
            calm_rps: 0.0,
            burst_rps: 5.0,
            mean_calm_secs: 30.0,
            mean_burst_secs: 5.0,
        }
        .generate(6, 300.0, 9)
        .unwrap();
        assert!(!trace.is_empty());
        for w in trace.events().windows(2) {
            assert!(w[0].at_secs <= w[1].at_secs);
        }
    }
}
