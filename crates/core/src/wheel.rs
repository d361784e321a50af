//! The replay's event calendar: a hierarchical timer wheel keyed on
//! integer simulated nanoseconds.
//!
//! Every simulated-time event of a replay epoch waits here as one
//! [`Event`]: a completion, the next supply step, the next preemption
//! notice, a pending retry or hedge, or the next controller tick. Every
//! placement pushes one completion and every advance pops the due events
//! back out in calendar order. A `BinaryHeap` pays `O(log n)` per event
//! on that hot path; the wheel pays `O(1)` amortized by hashing event
//! instants into hierarchical buckets of ~1 ms at the finest level
//! ([`FINEST_SHIFT`]) and cascading coarser buckets only when simulated
//! time reaches them.
//!
//! # Calendar order
//!
//! The wheel surfaces entries in **exactly** the total order
//! [`Event::key`] defines: instant, then kind (completion < supply step
//! < notice < retry or hedge < tick), then the kind's own tie-break —
//! `(slot, idx)` for completions, [`PendingRetry::key`] for retries and
//! hedges. That is the order a binary min-heap pops them in. Two entries
//! due at the same nanosecond land in the same finest bucket, and
//! buckets are drained sorted, so the wheel's pop sequence is
//! bit-identical to the heap's; the model tests below pin it against a
//! `BinaryHeap` oracle.
//!
//! The one contract the wheel adds over a heap: time may not run
//! backwards. [`TimerWheel::next_due`] advances the internal cursor at
//! most to its `limit`, and every push the replay makes while handling
//! an event lands at or after that event's instant, so a push never
//! lands behind the cursor; one landing exactly *at* it merges into the
//! ready run. [`TimerWheel::push`] debug-asserts it.

use crate::market::InFlight;
use crate::retry::PendingRetry;

/// One entry of the event calendar: an in-flight placement's completion
/// (ghosts included), a pending retry or hedge, or the next supply step,
/// preemption notice or controller tick. Those last three carry only
/// their instant: a replay queues one of each at a time, and firing one
/// queues its successor.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    Completion(InFlight),
    Step(u64),
    Notice(u64),
    Retry(PendingRetry),
    Tick(u64),
}

/// Bits of [`Event::key`]'s low word below the kind rank. A completion's
/// `(slot, idx)` fills them, which bounds the market at 2^29 slots
/// ([`crate::market::MAX_SLOTS`]).
const RANK_SHIFT: u32 = 61;

impl Event {
    /// The simulated instant the event fires at.
    #[inline]
    pub fn at(&self) -> u64 {
        (self.key() >> 64) as u64
    }

    /// The calendar order, packed into one integer: the instant in the
    /// high word, then the kind's rank in the low word's top three bits,
    /// then the kind's own tie-break.
    #[inline]
    pub fn key(&self) -> u128 {
        let (at, low) = match *self {
            Event::Completion(e) => (
                e.completion_nanos,
                (u64::from(e.slot) << 32) | u64::from(e.idx),
            ),
            Event::Step(at) => (at, 1 << RANK_SHIFT),
            Event::Notice(at) => (at, 2 << RANK_SHIFT),
            Event::Retry(p) => {
                let (at, idx, attempt, kind) = p.key();
                let tie = (u64::from(idx) << 16) | (u64::from(attempt) << 8) | u64::from(kind);
                (at, (3 << RANK_SHIFT) | tie)
            }
            Event::Tick(at) => (at, 4 << RANK_SHIFT),
        };
        (u128::from(at) << 64) | u128::from(low)
    }
}

/// log2 of the finest bucket width: 2^20 ns ≈ 1.05 ms. Events within
/// the same ~millisecond share a bucket and are order-resolved by an
/// in-bucket sort at drain time.
const FINEST_SHIFT: u32 = 20;

/// log2 of the slots per level.
const LVL_BITS: u32 = 6;

/// Slots per level.
const SLOTS: usize = 1 << LVL_BITS;

/// Levels: 8 × 6 bits above the finest shift cover bits 20..64, i.e.
/// every representable `u64` nanosecond.
const LEVELS: usize = 8;

const SLOT_MASK: u64 = (SLOTS - 1) as u64;

/// Hierarchical timer wheel over integer event nanoseconds.
///
/// `levels[l][s]` buckets entries whose instant shares the
/// cursor's bits above level `l`'s 6-bit field and has `s` in that
/// field. The finest bucket the cursor currently points at is held
/// drained and sorted in `ready` (descending, so the minimum pops from
/// the back); coarser buckets cascade down as the cursor reaches them.
pub(crate) struct TimerWheel {
    levels: Box<[[Vec<Event>; SLOTS]; LEVELS]>,
    /// Entries at or beyond `horizon` in push order. An epoch never
    /// advances past its own end, so boundary-crossing entries —
    /// roughly the whole in-flight carry at short epochs — can never
    /// pop during the epoch. Bucketing them would pay placement plus a
    /// cascade per level the cursor crosses, only to drain them at close
    /// anyway; a flat list sorted once at the close
    /// ([`TimerWheel::drain_into`]) pays one push.
    overflow: Vec<Event>,
    /// Exclusive upper bound on every `limit` passed to
    /// [`TimerWheel::next_due`]: the epoch's end instant.
    horizon: u64,
    /// One bit per slot per level marking non-empty buckets, so the
    /// cursor scan is a find-first-set per level instead of a walk over
    /// 64 `Vec` headers — the scan cost is what makes the wheel beat
    /// the heap on epochs with few events.
    occupied: [u64; LEVELS],
    /// Current cursor instant. Invariants: `now` never exceeds any
    /// `limit` passed to [`TimerWheel::next_due`]; every queued entry's
    /// finest bucket is ≥ `now`'s; entries in `now`'s own finest bucket
    /// live in `ready`, never in `levels`.
    now: u64,
    /// `now`'s finest bucket, sorted descending by key.
    ready: Vec<Event>,
    /// Scratch for cascading a coarser bucket: entries are swapped out
    /// here, re-placed, and the buffer cleared — a `mem::take` of the
    /// bucket would drop its capacity and put an allocation on the
    /// steady-state event path (`tests/alloc_steady_state.rs`).
    cascade: Vec<Event>,
    len: usize,
}

impl TimerWheel {
    /// An empty wheel with its cursor at `start`. Every subsequent push
    /// must be at or after `start` — epochs seed it with their start
    /// instant so carried completions land near the cursor instead of
    /// cascading down from epoch zero — and every `next_due` limit must
    /// stay below `horizon`, the epoch's end.
    pub fn new(start: u64, horizon: u64) -> Self {
        Self {
            levels: Box::new(std::array::from_fn(|_| std::array::from_fn(|_| Vec::new()))),
            occupied: [0; LEVELS],
            overflow: Vec::new(),
            horizon,
            now: start,
            ready: Vec::new(),
            cascade: Vec::new(),
            len: 0,
        }
    }

    /// Entries queued, bucketed and overflowed alike.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len + self.overflow.len()
    }

    /// Level whose 6-bit field holds the highest bit where `t` differs
    /// from the cursor; `t` in the cursor's own finest bucket is the
    /// caller's "ready" case.
    fn level_for(&self, t: u64) -> usize {
        let masked = (t ^ self.now) >> FINEST_SHIFT;
        debug_assert!(masked != 0, "same-bucket entries belong in ready");
        ((63 - masked.leading_zeros()) / LVL_BITS) as usize
    }

    /// Start instant of `slot` at `level` within the cursor's current
    /// span of that level.
    fn span_start(&self, level: usize, slot: u64) -> u64 {
        let shift = FINEST_SHIFT + LVL_BITS * level as u32;
        let above = shift + LVL_BITS;
        let prefix = if above >= 64 {
            0
        } else {
            (self.now >> above) << above
        };
        prefix | (slot << shift)
    }

    pub fn push(&mut self, entry: Event) {
        if entry.at() >= self.horizon {
            self.overflow.push(entry);
        } else {
            self.len += 1;
            self.place(entry);
        }
    }

    /// Routes one entry to `ready` (cursor's bucket) or its level
    /// bucket — shared by pushes and cascades so both obey the same
    /// placement invariants.
    fn place(&mut self, entry: Event) {
        let t = entry.at();
        debug_assert!(t >= self.now, "event {} behind cursor {}", t, self.now);
        if t >> FINEST_SHIFT == self.now >> FINEST_SHIFT {
            let key = entry.key();
            let pos = self.ready.partition_point(|x| x.key() > key);
            self.ready.insert(pos, entry);
        } else {
            let level = self.level_for(t);
            let slot = ((t >> (FINEST_SHIFT + LVL_BITS * level as u32)) & SLOT_MASK) as usize;
            self.levels[level][slot].push(entry);
            self.occupied[level] |= 1 << slot;
        }
    }

    /// Instant of the earliest event due at or before `limit`, without
    /// consuming it. Advances the cursor no further than `limit`, so
    /// later pushes at or after `limit` can never land behind it.
    pub fn next_due(&mut self, limit: u64) -> Option<u64> {
        debug_assert!(
            limit < self.horizon || self.horizon == u64::MAX,
            "advance past the epoch end"
        );
        'refill: loop {
            if let Some(e) = self.ready.last() {
                // Every level bucket is in a strictly later finest
                // bucket than `ready`'s, so its minimum is global.
                let at = e.at();
                return (at <= limit).then_some(at);
            }
            if self.len == 0 {
                self.now = self.now.max(limit);
                return None;
            }
            // Scan each level fully before the next: a level's
            // remaining span ends where the next level's first
            // candidate slot begins, so this order is time-correct. The
            // occupancy bitmaps turn the per-level slot walk into one
            // find-first-set; the cursor's own slot at a coarser level
            // can never hold entries (they would differ from `now` at a
            // finer level and be placed there), so the first occupied
            // slot at or after the cursor is the global earliest.
            for level in 0..LEVELS {
                let shift = FINEST_SHIFT + LVL_BITS * level as u32;
                let from = (self.now >> shift) & SLOT_MASK;
                let candidates = self.occupied[level] & (!0u64 << from);
                if candidates == 0 {
                    continue;
                }
                let slot = candidates.trailing_zeros() as usize;
                let start = self.span_start(level, slot as u64);
                if start > limit {
                    // Nothing anywhere is due ≤ limit: later slots
                    // and coarser levels all start even later.
                    self.now = self.now.max(limit);
                    return None;
                }
                self.now = self.now.max(start);
                self.occupied[level] &= !(1 << slot);
                // Both arms *swap* the bucket out instead of taking it,
                // so the drained `Vec`'s capacity stays in rotation —
                // the steady-state refill path allocates nothing.
                if level == 0 {
                    // The cursor's new finest bucket: drain it
                    // sorted descending so the minimum pops O(1).
                    // `ready` is empty here (the refill loop only runs
                    // when it is), so the swap hands its spare capacity
                    // to the emptied bucket.
                    std::mem::swap(&mut self.ready, &mut self.levels[0][slot]);
                    self.ready
                        .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                } else {
                    // Cascade a coarser bucket: every entry re-routes
                    // at least one level down (or into ready), so a
                    // re-place can never land back in this bucket
                    // while the scratch holds its entries.
                    std::mem::swap(&mut self.cascade, &mut self.levels[level][slot]);
                    for i in 0..self.cascade.len() {
                        let e = self.cascade[i];
                        self.place(e);
                    }
                    self.cascade.clear();
                }
                continue 'refill;
            }
            // All occupied buckets sit below their level's cursor slot —
            // impossible while the push invariant (no entry behind the
            // cursor) holds.
            unreachable!("len > 0 but no occupied bucket at or after the cursor");
        }
    }

    /// Every queued completion, ghosts included, in no particular order:
    /// the ready run, the occupied level buckets and the overflow. The
    /// calendar holds every in-flight placement, so this is where a
    /// supply step finds the placements it displaces
    /// ([`crate::market::SpotLedger::withdraw`]).
    pub fn completions(&self) -> impl Iterator<Item = &InFlight> + '_ {
        let buckets = self
            .occupied
            .iter()
            .zip(self.levels.iter())
            .flat_map(|(&bits, level)| {
                std::iter::successors((bits != 0).then_some(bits), |&b| {
                    let rest = b & (b - 1);
                    (rest != 0).then_some(rest)
                })
                .flat_map(move |b| &level[b.trailing_zeros() as usize])
            });
        self.ready
            .iter()
            .chain(buckets)
            .chain(&self.overflow)
            .filter_map(|e| match e {
                Event::Completion(c) => Some(c),
                _ => None,
            })
    }

    /// Pops the entry a preceding [`TimerWheel::next_due`] surfaced.
    pub fn pop_due(&mut self) -> Event {
        let e = self.ready.pop().expect("next_due surfaced an entry");
        self.len -= 1;
        e
    }

    /// Drains the wheel, returning every entry in ascending key order.
    #[cfg(test)]
    pub fn into_sorted(self) -> Vec<Event> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// The epoch-close drain: consumes the wheel, appends every queued
    /// entry to `out` in ascending [`Event::key`] order,
    /// and hands the emptied wheel back to this thread's pool. The
    /// occupancy bitmaps make this walk only the non-empty buckets;
    /// emptied buckets — the overflow list included — keep their
    /// capacity, so a recycled wheel ([`TimerWheel::acquire`]) simulates
    /// its next epoch allocation-free. The sort covers only the
    /// appended suffix, so the caller's buffer may carry unrelated prior
    /// contents.
    pub fn drain_into(mut self, out: &mut Vec<Event>) {
        let from = out.len();
        out.reserve(self.len + self.overflow.len());
        out.append(&mut self.overflow);
        out.extend(self.ready.drain(..).rev());
        for level in 0..LEVELS {
            let mut bits = self.occupied[level];
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                out.append(&mut self.levels[level][slot]);
                bits &= bits - 1;
            }
            self.occupied[level] = 0;
        }
        out[from..].sort_unstable_by_key(Event::key);
        self.len = 0;
        POOL.with(|pool| *pool.borrow_mut() = Some(self));
    }

    /// A wheel with its cursor at `start`, recycled from this thread's
    /// pool when a previous epoch returned one. A resumable replay
    /// opens one wheel per epoch; constructing each from scratch pays a
    /// 512-`Vec` zeroing plus fresh bucket allocations per epoch, which
    /// at short epochs costs more than the event loop itself. The pooled
    /// wheel is already empty (every drain path clears it) and its
    /// buckets keep their capacities warm.
    pub fn acquire(start: u64, horizon: u64) -> Self {
        match POOL.with(|pool| pool.borrow_mut().take()) {
            Some(mut wheel) => {
                wheel.now = start;
                wheel.horizon = horizon;
                wheel
            }
            None => TimerWheel::new(start, horizon),
        }
    }
}

thread_local! {
    /// Per-thread wheel cache backing [`TimerWheel::acquire`]. One slot
    /// suffices: each epoch simulation holds exactly one wheel at a
    /// time, and a thread simulates its epochs one after another.
    static POOL: std::cell::RefCell<Option<TimerWheel>> = const { std::cell::RefCell::new(None) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::{KIND_HEDGE, KIND_RETRY};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn entry(t: u64, slot: u32, idx: u32) -> Event {
        Event::Completion(InFlight {
            completion_nanos: t,
            slot,
            idx,
            epoch: 0,
            milli: 100,
            mib: 64,
            meta: InFlight::meta_of(crate::market::RUN_NORMAL, 1),
            list_cost_usd: 0.1,
        })
    }

    fn retry(t: u64, idx: u32, attempt: u8, kind: u8) -> Event {
        Event::Retry(PendingRetry {
            at_nanos: t,
            idx,
            function: 0,
            attempt,
            kind,
            family: 0,
            arrival_nanos: 0,
            orig_completion_nanos: 0,
        })
    }

    /// Pops the surfaced entry, which must be a completion.
    fn pop(wheel: &mut TimerWheel) -> InFlight {
        match wheel.pop_due() {
            Event::Completion(e) => e,
            other => panic!("expected a completion, popped {other:?}"),
        }
    }

    /// The calendar order spelled out field by field — instant, kind
    /// rank (completion < step < notice < retry/hedge < tick), then the
    /// kind's own tie-break — independently of [`Event::key`]'s packing.
    fn oracle_key(e: &Event) -> (u64, u8, u64, u64) {
        match *e {
            Event::Completion(c) => (c.completion_nanos, 0, u64::from(c.slot), u64::from(c.idx)),
            Event::Step(at) => (at, 1, 0, 0),
            Event::Notice(at) => (at, 2, 0, 0),
            Event::Retry(p) => (
                p.at_nanos,
                3,
                u64::from(p.idx),
                (u64::from(p.attempt) << 8) | u64::from(p.kind),
            ),
            Event::Tick(at) => (at, 4, 0, 0),
        }
    }

    /// The packed meta word every test entry carries
    /// (`meta_of(RUN_NORMAL, 1)`).
    const META: u32 = 1 << 2;

    /// Drives a wheel and a heap through the same push/advance schedule
    /// and asserts identical pop sequences — the model-based pin of the
    /// calendar order. `make` draws each pushed entry from the rng, an
    /// instant and a fresh idx.
    fn check_against_heap(
        seed: u64,
        spread: u64,
        mut make: impl FnMut(&mut StdRng, u64, u32) -> Event,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wheel = TimerWheel::new(0, u64::MAX);
        let mut heap = BinaryHeap::new();
        let mut clock = 0u64;
        let mut idx = 0u32;
        for _ in 0..400 {
            // Simulated time moves forward; each instant pushes a few
            // entries ahead of the clock, then drains the due ones.
            clock += rng.gen_range(0..1u64 << 21);
            for _ in 0..rng.gen_range(0..4) {
                let t = clock + rng.gen_range(0..spread);
                let e = make(&mut rng, t, idx);
                idx += 1;
                wheel.push(e);
                heap.push(Reverse(oracle_key(&e)));
            }
            loop {
                let expect = heap.peek().map(|Reverse(k)| k.0).filter(|&v| v <= clock);
                assert_eq!(wheel.next_due(clock), expect, "seed {seed} at {clock}");
                if expect.is_none() {
                    break;
                }
                let Reverse(want) = heap.pop().unwrap();
                let got = wheel.pop_due();
                assert_eq!(oracle_key(&got), want, "seed {seed} at {clock}");
            }
            assert_eq!(wheel.len(), heap.len());
            // The completion iterator visits exactly the queued
            // completions: ready run, level buckets and overflow alike.
            let mut visited: Vec<_> = wheel.completions().map(InFlight::key).collect();
            let mut queued: Vec<_> = heap
                .iter()
                .filter(|Reverse(k)| k.1 == 0)
                .map(|Reverse(k)| (k.0, k.2 as u32, k.3 as u32, META))
                .collect();
            visited.sort_unstable();
            queued.sort_unstable();
            assert_eq!(visited, queued, "seed {seed} at {clock}");
        }
        // Final drain: everything left comes out in heap order.
        let mut rest = Vec::new();
        while let Some(Reverse(k)) = heap.pop() {
            rest.push(k);
        }
        let drained: Vec<_> = wheel.into_sorted().iter().map(oracle_key).collect();
        assert_eq!(drained, rest, "seed {seed}");
    }

    #[test]
    fn wheel_matches_heap_order_across_spreads() {
        // Spreads from sub-bucket (ties in one finest bucket) to
        // multi-level (cascades across coarse buckets).
        for (seed, spread) in [
            (1, 1 << 10),
            (2, 1 << 20),
            (3, 1 << 26),
            (4, 1 << 33),
            (5, 1 << 44),
        ] {
            check_against_heap(seed, spread, |rng, t, idx| {
                entry(t, rng.gen_range(0..4), idx)
            });
        }
    }

    #[test]
    fn every_event_kind_matches_heap_order() {
        // All five kinds, with instants rounded up to a coarse grid so
        // that entries of different kinds keep meeting at one instant:
        // the heap's field-by-field order must match the wheel's pops
        // and its close-time drain, ties across kinds included.
        for (seed, spread, grid) in [
            (11, 1 << 20, 1 << 18),
            (12, 1 << 26, 1 << 22),
            (13, 1 << 33, 1 << 30),
        ] {
            check_against_heap(seed, spread, |rng, t, idx| {
                let at = t.div_ceil(grid) * grid;
                match rng.gen_range(0..6) {
                    0 => entry(at, rng.gen_range(0..4), idx),
                    1 => Event::Step(at),
                    2 => Event::Notice(at),
                    3 => retry(at, idx % 7, rng.gen_range(2..4), KIND_RETRY),
                    4 => retry(at, idx % 7, rng.gen_range(1..3), KIND_HEDGE),
                    _ => Event::Tick(at),
                }
            });
        }
    }

    #[test]
    fn one_instant_pops_completion_step_notice_retry_tick() {
        // Pushed in reverse of the calendar order, all at one instant.
        let mut wheel = TimerWheel::new(0, u64::MAX);
        let t = 3 << FINEST_SHIFT;
        wheel.push(Event::Tick(t));
        wheel.push(retry(t, 4, 2, KIND_HEDGE));
        wheel.push(retry(t, 4, 2, KIND_RETRY));
        wheel.push(retry(t, 1, 3, KIND_RETRY));
        wheel.push(Event::Notice(t));
        wheel.push(Event::Step(t));
        wheel.push(entry(t, 5, 0));
        wheel.push(entry(t, 2, 8));
        let mut order = Vec::new();
        while wheel.next_due(t).is_some() {
            order.push(match wheel.pop_due() {
                Event::Completion(e) => format!("completion {}/{}", e.slot, e.idx),
                Event::Step(_) => "step".into(),
                Event::Notice(_) => "notice".into(),
                Event::Retry(p) => format!("retry {}/{}/{}", p.idx, p.attempt, p.kind),
                Event::Tick(_) => "tick".into(),
            });
        }
        assert_eq!(
            order,
            [
                "completion 2/8",
                "completion 5/0",
                "step",
                "notice",
                "retry 1/3/0",
                "retry 4/2/0",
                "retry 4/2/1",
                "tick"
            ]
        );
    }

    #[test]
    fn ties_resolve_by_slot_then_idx() {
        let mut wheel = TimerWheel::new(0, u64::MAX);
        let t = 5 << FINEST_SHIFT;
        wheel.push(entry(t, 2, 9));
        wheel.push(entry(t, 0, 7));
        wheel.push(entry(t, 0, 3));
        wheel.push(entry(t, 1, 1));
        assert_eq!(wheel.next_due(t), Some(t));
        let order: Vec<_> = (0..4).map(|_| pop(&mut wheel)).map(|e| e.key()).collect();
        assert_eq!(
            order,
            vec![
                (t, 0, 3, META),
                (t, 0, 7, META),
                (t, 1, 1, META),
                (t, 2, 9, META)
            ],
            "equal instants must drain by (slot, idx)"
        );
    }

    #[test]
    fn pushes_into_the_ready_bucket_keep_order() {
        // A push landing in the bucket the cursor is draining must
        // merge into the sorted ready run, not trail it.
        let mut wheel = TimerWheel::new(0, u64::MAX);
        let base = 7 << FINEST_SHIFT;
        wheel.push(entry(base + 10, 0, 0));
        wheel.push(entry(base + 30, 0, 1));
        assert_eq!(wheel.next_due(base + 5), None, "nothing due yet");
        assert_eq!(wheel.next_due(base + 40), Some(base + 10));
        assert_eq!(pop(&mut wheel).idx, 0);
        // Same finest bucket as the cursor now points at.
        wheel.push(entry(base + 20, 0, 2));
        assert_eq!(wheel.next_due(base + 40), Some(base + 20));
        assert_eq!(pop(&mut wheel).idx, 2);
        assert_eq!(pop(&mut wheel).idx, 1);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn migration_pushes_at_the_cursor_instant_stay_ordered() {
        // The cross-zone migration pattern: the replay drains completions
        // up to a supply step, then re-pushes displaced entries at that
        // very step instant under new slots while the stale twins stay
        // queued under their old slots. Entries landing exactly AT the
        // cursor are legal and same-instant entries across zones must
        // still drain by (time, slot, idx).
        let mut wheel = TimerWheel::new(0, u64::MAX);
        let step = 9 << FINEST_SHIFT;
        wheel.push(entry(step, 1, 0)); // completes exactly at the step
        wheel.push(entry(step + 50, 0, 1)); // will be "migrated" at the step
        assert_eq!(wheel.next_due(step), Some(step));
        assert_eq!(pop(&mut wheel).idx, 0); // cursor now parked at `step`

        // The migration: same completion instants, fresh slots in the
        // surviving zone, pushed while the cursor sits at `step`.
        wheel.push(entry(step, 3, 2));
        wheel.push(entry(step + 50, 2, 3));
        assert_eq!(wheel.next_due(step), Some(step), "push at the cursor");
        assert_eq!(pop(&mut wheel).key(), (step, 3, 2, META));
        assert_eq!(wheel.next_due(step + 50), Some(step + 50));
        // Stale twin (slot 0) pops before the migrated clone (slot 2).
        assert_eq!(pop(&mut wheel).key(), (step + 50, 0, 1, META));
        assert_eq!(pop(&mut wheel).key(), (step + 50, 2, 3, META));
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn completions_visit_the_ready_run_the_buckets_and_the_overflow() {
        // An epoch wheel: entries at or past the horizon overflow.
        let horizon = 1 << 40;
        let mut wheel = TimerWheel::new(0, horizon);
        let times = [10, 30, 1 << 21, 1 << 30, 1 << 35, horizon, horizon + 5];
        for (i, &t) in times.iter().enumerate() {
            wheel.push(entry(t, 1, i as u32));
        }
        wheel.push(Event::Step(20));
        wheel.push(retry(1 << 22, 0, 2, KIND_RETRY));
        wheel.push(Event::Tick(horizon + 1));
        let idxs = |wheel: &TimerWheel| {
            let mut v: Vec<u32> = wheel.completions().map(|e| e.idx).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(idxs(&wheel), [0, 1, 2, 3, 4, 5, 6]);
        // Surface the first bucket: idx 0 pops, idx 1 waits in the
        // ready run, the rest in level buckets and the overflow.
        assert_eq!(wheel.next_due(25), Some(10));
        assert_eq!(pop(&mut wheel).idx, 0);
        assert_eq!(idxs(&wheel), [1, 2, 3, 4, 5, 6]);
        // Cascading moves entries between buckets, never out of view.
        assert_eq!(wheel.next_due((1 << 30) + 1), Some(20));
        assert!(matches!(wheel.pop_due(), Event::Step(20)));
        assert_eq!(wheel.next_due((1 << 30) + 1), Some(30));
        assert_eq!(pop(&mut wheel).idx, 1);
        assert_eq!(wheel.next_due((1 << 30) + 1), Some(1 << 21));
        assert_eq!(idxs(&wheel), [2, 3, 4, 5, 6]);
    }

    #[test]
    fn far_future_entries_cascade_down_exactly_once_due() {
        let mut wheel = TimerWheel::new(0, u64::MAX);
        // One entry per level distance, including the top level.
        let times = [1u64 << 21, 1 << 30, 1 << 40, 1 << 50, 1 << 63];
        for (i, &t) in times.iter().enumerate() {
            wheel.push(entry(t, 0, i as u32));
        }
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(wheel.next_due(t - 1), None, "entry {i} not yet due");
            assert_eq!(wheel.next_due(t), Some(t), "entry {i} due at {t}");
            assert_eq!(pop(&mut wheel).idx, i as u32);
        }
        assert_eq!(wheel.next_due(u64::MAX), None);
    }
}
