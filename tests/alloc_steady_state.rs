//! Pins the replay hot loop's allocation discipline: once the
//! thread-local pools (timer wheel, window drain buffer) are warm,
//! replaying more events must not allocate more. Every per-event path —
//! CSV row parse into the scratch key, wheel push/pop, ledger
//! place/release, metering pushes into exact-capacity vectors — is
//! allocation-free; only per-run and per-epoch structures (context,
//! metering headers, the carry itself) allocate, and their *count* is
//! independent of the event count.
//!
//! The guard compares whole-run allocation counts between a small and an
//! 8× larger trace over the same horizon (same ticks, same supply
//! steps): the marginal allocations per added event must be zero, up to
//! a small slack for amortized growth of event-count-logarithmic
//! structures (e.g. the adjustments list).
//!
//! The paper's tree-ensemble surrogates get the same kind of guard: a fit
//! allocates per tree grown, never per node, split or training row, and a
//! repeated batch prediction allocates only its output.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

use faas_freedom::core::fleet::{FleetConfig, FleetSimulator, PlacementStrategy, StreamTrace};
use freedom_experiments::fleet_simulation::synthetic_plans;
use freedom_optimizer::SearchSpace;
use freedom_surrogates::SurrogateKind;

/// Counts every allocation event (alloc, alloc_zeroed, realloc) without
/// changing behavior. Counting events rather than bytes is deliberate:
/// a `with_capacity` reserve is one event regardless of size, so the
/// count isolates *how often* the replay touches the allocator.
struct CountingAlloc;

thread_local! {
    /// Allocation events of the current thread. The test harness runs
    /// the tests below on parallel threads, and every replay they
    /// measure runs sequentially on its test's thread, so a per-thread
    /// count sees exactly that test's replay. `const` initialization
    /// and a drop-free `Cell` keep the slot itself off the allocator.
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn count_event() {
    // The slot is gone while the thread tears down its thread-locals;
    // allocations made then are not part of any measurement.
    let _ = ALLOC_EVENTS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_event();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A CSV trace with `per_minute` arrivals per function per minute over a
/// fixed 20-minute horizon: scaling `per_minute` scales the event count
/// while keeping the control-tick and supply-step schedules identical.
fn csv_trace(per_minute: u32) -> StreamTrace {
    let mut s = String::from("app,func,minute,count\n");
    for minute in 0..20 {
        for f in 0..12 {
            writeln!(s, "app{f},fn{f},{minute},{per_minute}").unwrap();
        }
    }
    StreamTrace::from_csv(&s).unwrap()
}

/// Allocation events of the calling thread so far.
fn alloc_events() -> u64 {
    ALLOC_EVENTS.with(Cell::get)
}

/// Allocation growth must be bounded by pool warm-up and logarithmic
/// amortized growth, never by the event count. 64 events of slack
/// absorbs vector-doubling tails; the small/large runs differ by
/// thousands of events.
const SLACK: u64 = 64;

#[test]
fn steady_state_replay_allocations_are_event_count_independent() {
    let small = csv_trace(2);
    let large = csv_trace(16);
    assert!(
        large.len() >= 8 * small.len(),
        "{} vs {}",
        large.len(),
        small.len()
    );
    let plans = synthetic_plans(12, 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    let config = FleetConfig::default();
    let run = |trace: &StreamTrace| {
        sim.run_stream(trace, PlacementStrategy::IdleAware, &config)
            .unwrap()
    };

    // Warm-up on the large trace: grows the thread-local wheel pool and
    // drain buffer to their high-water capacities.
    let warm = run(&large);

    let before_small = alloc_events();
    let small_report = run(&small);
    let small_cost = alloc_events() - before_small;

    let before_large = alloc_events();
    let large_report = run(&large);
    let large_cost = alloc_events() - before_large;

    // The replays must have actually replayed (and differ in scale).
    assert_eq!(warm.invocations, large_report.invocations);
    assert!(large_report.invocations >= 8 * small_report.invocations);

    assert!(
        large_cost <= small_cost + SLACK,
        "replaying {} events allocated {} times, but {} events allocated \
         {} times: the event loop is allocating per event",
        large_report.invocations,
        large_cost,
        small_report.invocations,
        small_cost,
    );

    // The resumable epoch chain reuses the same pools across epochs:
    // two identical warm runs must allocate the same number of times
    // (the work is deterministic, so any drift would mean a pool failed
    // to retain capacity).
    let chained = |trace: &StreamTrace| {
        sim.run_stream_resumable(
            trace,
            PlacementStrategy::IdleAware,
            &config,
            60.0,
            None,
            |_| Ok(true),
        )
        .unwrap()
        .unwrap()
    };
    let warm_chained = chained(&large);
    let before_first = alloc_events();
    let first = chained(&large);
    let first_cost = alloc_events() - before_first;
    let before_second = alloc_events();
    let second = chained(&large);
    let second_cost = alloc_events() - before_second;
    assert_eq!(format!("{warm_chained:?}"), format!("{first:?}"));
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
    assert_eq!(format!("{warm:?}"), format!("{first:?}"));
    assert!(
        second_cost <= first_cost + SLACK / 8,
        "identical warm epoch chains allocated {first_cost} then \
         {second_cost} times: epoch scratch is not being reused"
    );
}

/// The telemetry layer's zero-allocation claim, enforced with a *live*
/// recorder: counters, histograms, sampled wall timing, and the span
/// ring are all preallocated at `Telemetry` construction, so a traced
/// replay's steady-state allocation count must be as event-count
/// independent as the recorder-free one. The recorders are built
/// outside the measured region; everything the hot loop touches —
/// `add`, `observe`, `span_sim`, `span_wall`, the ring overwrite path —
/// must stay off the allocator entirely.
#[test]
fn telemetry_recording_allocates_nothing_in_steady_state() {
    use faas_freedom::core::fleet::Telemetry;

    let small = csv_trace(2);
    let large = csv_trace(16);
    let plans = synthetic_plans(12, 4).unwrap();
    let sim = FleetSimulator::new(plans).unwrap();
    let config = FleetConfig::default();
    let run = |trace: &StreamTrace, tel: &mut Telemetry| {
        sim.run_stream_traced(trace, PlacementStrategy::IdleAware, &config, tel)
            .unwrap()
            .0
    };

    // Preallocate every recorder up front: the ring is sized to
    // overflow on the large trace, so the overwrite-oldest path is
    // inside the measured region too.
    let mut warm_tel = Telemetry::with_capacity(8);
    let mut small_tel = Telemetry::with_capacity(8);
    let mut large_tel = Telemetry::with_capacity(8);

    let warm = run(&large, &mut warm_tel);

    let before_small = alloc_events();
    let small_report = run(&small, &mut small_tel);
    let small_cost = alloc_events() - before_small;

    let before_large = alloc_events();
    let large_report = run(&large, &mut large_tel);
    let large_cost = alloc_events() - before_large;

    assert_eq!(warm.invocations, large_report.invocations);
    assert!(large_report.invocations >= 8 * small_report.invocations);
    // The recorder saw the replay, and the ring really did wrap.
    assert_eq!(
        large_tel.counter(faas_freedom::core::telemetry::Counter::Arrivals),
        large_report.invocations as u64
    );
    assert!(
        large_tel.dropped_spans() > 0,
        "ring sized to overflow must overflow"
    );

    assert!(
        large_cost <= small_cost + SLACK,
        "with a live recorder, replaying {} events allocated {} times, \
         but {} events allocated {} times: telemetry is allocating per \
         event",
        large_report.invocations,
        large_cost,
        small_report.invocations,
        small_cost,
    );
}

/// RF, ET and GBRT touch the allocator a fixed number of times per fit,
/// however many training rows there are: growing a tree partitions one
/// reused index buffer, so only each tree's node array (and a bootstrap
/// resample) is allocated. Once a batch prediction over Table 1's 288
/// candidate encodings has filled the model's cache, repeating it
/// allocates exactly once, for the returned vector.
#[test]
fn tree_ensemble_allocations_are_training_size_independent() {
    let candidates: Vec<Vec<f64>> = SearchSpace::table1()
        .configs()
        .iter()
        .map(SearchSpace::encode)
        .collect();
    let training_set = |n: usize| {
        let x: Vec<Vec<f64>> = candidates.iter().step_by(13).take(n).cloned().collect();
        let y: Vec<f64> = x
            .iter()
            .map(|f| 10.0 / f[0] + f[1] * 0.3 + f[2] * 2.0)
            .collect();
        (x, y)
    };
    for kind in [SurrogateKind::Rf, SurrogateKind::Et, SurrogateKind::Gbrt] {
        let fit = |n: usize| {
            let (x, y) = training_set(n);
            assert_eq!(x.len(), n);
            let mut model = kind.build(3);
            let before = alloc_events();
            model.fit(&x, &y).unwrap();
            (alloc_events() - before, model)
        };
        let (small_cost, _) = fit(8);
        let (large_cost, mut model) = fit(20);
        assert_eq!(
            small_cost, large_cost,
            "{kind}: a fit on 8 rows allocated {small_cost} times, on 20 rows \
             {large_cost} times"
        );

        let first = model.predict_batch_mut(&candidates).unwrap();
        let before = alloc_events();
        let again = model.predict_batch_mut(&candidates).unwrap();
        let batch_cost = alloc_events() - before;
        assert_eq!(first, again);
        assert_eq!(
            batch_cost,
            1,
            "{kind}: a repeated batch of {} candidates allocated {batch_cost} times",
            candidates.len()
        );
    }
}
