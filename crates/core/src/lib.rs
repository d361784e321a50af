//! `freedom` — the paper's core contribution as a library.
//!
//! *With Great Freedom Comes Great Opportunity* (EuroSys 2023) argues that
//! serverless platforms should decouple CPU, memory, and instance-type
//! allocation, and shows how black-box optimization turns the resulting
//! 288-point configuration space (Table 1) into simple user-facing choices.
//! This crate assembles the substrates into that system:
//!
//! - [`strategies`]: the four §4.1 allocation strategies (Fixed CPU,
//!   Prop. CPU, Decoupled (m5), Decoupled) with their billing rules;
//! - [`Autotuner`]: offline and online optimization of a deployed function
//!   over a live [`freedom_faas::Gateway`] (§5);
//! - [`interfaces`]: the three §6.1 user interfaces — predicted Pareto
//!   front, weighted multi-objective, hierarchical multi-objective;
//! - [`provider`]: the §4.2/§6.2 provider-side machinery — alternative
//!   instance-type counting (Table 3) and the idle-capacity planner that
//!   trades ≤θ execution time for spot-priced instance types (Figure 15),
//!   emitting both placements and a market admission policy;
//! - [`market`] and [`fleet`]: the shared cross-function spot market
//!   (supply process, capacity ledger, admission control) and the
//!   sequential trace replay that simulates a whole fleet against it —
//!   one event loop over epochs of simulated time, one admission pass
//!   for arrivals, retries and hedges, and one epoch chain whose
//!   one-epoch case is the single pass;
//! - [`stream`]: the constant-memory trace pipeline — resumable
//!   per-function event cursors ([`stream::StreamTrace`]) replayed by
//!   `FleetSimulator::run_stream` with peak memory O(functions +
//!   in-flight) instead of O(total arrivals);
//! - [`faults`]: seeded fault-injection plans (zone outages, supply
//!   shocks, dropped preemption notices) expanded into simulated-time
//!   events the market schedule composes, so every fault scenario is a
//!   pure function of its seed;
//! - [`retry`]: invocation-level failure semantics — seeded per-attempt
//!   transient faults ([`faults::TransientFault`]) absorbed by a
//!   [`retry::RetryPolicy`]: exponential backoff with deterministic
//!   jitter, per-family token-bucket retry budgets in simulated time,
//!   hedged re-issue of stragglers, dead-letter accounting, and a
//!   brownout mode that sheds retries before fresh arrivals under
//!   retry-pressure overload;
//! - [`snapshot`]: versioned crash-resume snapshots — the stream
//!   checkpoint plus the carried state serialized at epoch boundaries
//!   so a killed replay resumes bit-identically;
//! - [`telemetry`]: the zero-allocation observability layer — the
//!   replay is generic over a
//!   [`Recorder`](telemetry::Recorder) (noop by default, monomorphized
//!   away) that collects preallocated counters, log2 latency/value
//!   histograms, and simulated-time + wall-time span traces, exported
//!   as JSONL snapshots, Chrome trace-event JSON, or a terminal
//!   summary; see the "observability contract" in
//!   `crates/core/README.md`;
//! - [`controller`]: the closed-loop control plane — per-epoch
//!   [`Observation`](controller::Observation)s feed a
//!   [`Controller`](controller::Controller) that revises admission
//!   control (PID on the demotion rate) or re-plans placements online
//!   from observed latencies through the surrogate stack.
//!
//! # Examples
//!
//! ```
//! use freedom::Autotuner;
//! use freedom_optimizer::Objective;
//! use freedom_surrogates::SurrogateKind;
//! use freedom_workloads::FunctionKind;
//!
//! // Autotune faceblur's resource configuration for execution time.
//! let tuner = Autotuner::new(SurrogateKind::Gp);
//! let outcome = tuner
//!     .tune_offline(
//!         FunctionKind::Faceblur,
//!         &FunctionKind::Faceblur.default_input(),
//!         Objective::ExecutionTime,
//!         42,
//!     )
//!     .unwrap();
//! let best = outcome.run.best_feasible().unwrap();
//! assert!(!best.failed);
//! ```

mod autotuner;
pub mod controller;
mod error;
pub mod faults;
pub mod fleet;
pub mod interfaces;
pub mod market;
pub mod provider;
pub mod retry;
pub mod snapshot;
pub mod strategies;
pub mod stream;
pub mod trace;
mod wheel;

pub use freedom_telemetry as telemetry;

pub use autotuner::{Autotuner, GatewayEvaluator, TuneOutcome};
pub use error::FreedomError;
pub use strategies::AllocationStrategy;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, FreedomError>;
