//! The completion queue of the replay's event core: a hierarchical
//! timer wheel keyed on integer completion nanoseconds.
//!
//! Every arrival pushes one [`InFlight`] completion and every advance
//! pops the due ones back out in `(completion_nanos, slot, idx)` order.
//! A `BinaryHeap` pays `O(log n)` per event on that hot path; the wheel
//! pays `O(1)` amortized by hashing completion times into hierarchical
//! buckets of ~1 ms at the finest level ([`FINEST_SHIFT`]) and cascading
//! coarser buckets only when simulated time reaches them.
//!
//! # Completion-order guarantee
//!
//! The wheel surfaces entries in **exactly** the total order
//! [`InFlight`] defines — time, then slot, then arrival index — the
//! order a binary min-heap pops them in. Two entries due at the same
//! nanosecond land in the same finest bucket, and buckets are drained
//! sorted, so the wheel's pop sequence is bit-identical to the heap's;
//! the model tests below pin it against a `BinaryHeap` oracle.
//!
//! The one contract the wheel adds over a heap: time may not run
//! backwards. [`TimerWheel::next_due`] advances the internal cursor at
//! most to its `limit`, and the replay only pushes completions at or
//! after the instant it is advancing toward, so a push never lands
//! behind the cursor. [`TimerWheel::push`] debug-asserts it.
//!
//! Multi-zone markets lean on that contract at supply steps: a
//! cross-zone migration re-pushes a displaced entry — same completion
//! instant, a fresh slot in the surviving zone — at the step instant
//! itself, possibly while the cursor is parked mid-drain on that very
//! instant. The replay caps each completion scan at the next unprocessed
//! step (see `fleet.rs`), so the cursor never advances past a future
//! push; an entry landing exactly *at* the cursor is legal and merges
//! into the ready run. The stale pre-migration twin stays queued under
//! its old slot and is filtered by the ledger's epoch check when it
//! pops, and same-instant entries across zones drain in the usual
//! `(time, slot, idx)` order.

use crate::market::InFlight;

/// log2 of the finest bucket width: 2^20 ns ≈ 1.05 ms. Completions
/// within the same ~millisecond share a bucket and are order-resolved by
/// an in-bucket sort at drain time.
const FINEST_SHIFT: u32 = 20;

/// log2 of the slots per level.
const LVL_BITS: u32 = 6;

/// Slots per level.
const SLOTS: usize = 1 << LVL_BITS;

/// Levels: 8 × 6 bits above the finest shift cover bits 20..64, i.e.
/// every representable `u64` nanosecond.
const LEVELS: usize = 8;

const SLOT_MASK: u64 = (SLOTS - 1) as u64;

/// Hierarchical timer wheel over integer completion nanoseconds.
///
/// `levels[l][s]` buckets entries whose completion time shares the
/// cursor's bits above level `l`'s 6-bit field and has `s` in that
/// field. The finest bucket the cursor currently points at is held
/// drained and sorted in `ready` (descending, so the minimum pops from
/// the back); coarser buckets cascade down as the cursor reaches them.
pub(crate) struct TimerWheel {
    levels: Box<[[Vec<InFlight>; SLOTS]; LEVELS]>,
    /// Completions at or beyond `horizon` in arrival order. A window
    /// never advances past its own end, so boundary-crossing
    /// completions — roughly the whole in-flight carry at short epochs
    /// — can never pop during the window. Bucketing them would pay
    /// placement plus a cascade per level the cursor crosses, only to
    /// drain them at close anyway; a flat list sorted once at the
    /// close ([`TimerWheel::drain_into`]) pays one push.
    overflow: Vec<InFlight>,
    /// Exclusive upper bound on every `limit` passed to
    /// [`TimerWheel::next_due`]: the window's end instant.
    horizon: u64,
    /// One bit per slot per level marking non-empty buckets, so the
    /// cursor scan is a find-first-set per level instead of a walk over
    /// 64 `Vec` headers — the scan cost is what makes the wheel beat
    /// the heap on windows with few events.
    occupied: [u64; LEVELS],
    /// Current cursor instant. Invariants: `now` never exceeds any
    /// `limit` passed to [`TimerWheel::next_due`]; every queued entry's
    /// finest bucket is ≥ `now`'s; entries in `now`'s own finest bucket
    /// live in `ready`, never in `levels`.
    now: u64,
    /// `now`'s finest bucket, sorted descending by key.
    ready: Vec<InFlight>,
    /// Scratch for cascading a coarser bucket: entries are swapped out
    /// here, re-placed, and the buffer cleared — a `mem::take` of the
    /// bucket would drop its capacity and put an allocation on the
    /// steady-state event path (`tests/alloc_steady_state.rs`).
    cascade: Vec<InFlight>,
    len: usize,
}

impl TimerWheel {
    /// An empty wheel with its cursor at `start`. Every subsequent push
    /// must be at or after `start` — windows seed it with their start
    /// instant so carried completions land near the cursor instead of
    /// cascading down from epoch zero — and every `next_due` limit must
    /// stay below `horizon`, the window's end.
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

    /// Entries queued, bucketed and overflowed alike — the replay's
    /// in-flight count.
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

    pub fn push(&mut self, entry: InFlight) {
        if entry.completion_nanos >= self.horizon {
            self.overflow.push(entry);
        } else {
            self.len += 1;
            self.place(entry);
        }
    }

    /// Routes one entry to `ready` (cursor's bucket) or its level
    /// bucket — shared by pushes and cascades so both obey the same
    /// placement invariants.
    fn place(&mut self, entry: InFlight) {
        let t = entry.completion_nanos;
        debug_assert!(t >= self.now, "completion {} behind cursor {}", t, self.now);
        if t >> FINEST_SHIFT == self.now >> FINEST_SHIFT {
            let key = (t, entry.slot, entry.idx);
            let pos = self
                .ready
                .partition_point(|x| (x.completion_nanos, x.slot, x.idx) > key);
            self.ready.insert(pos, entry);
        } else {
            let level = self.level_for(t);
            let slot = ((t >> (FINEST_SHIFT + LVL_BITS * level as u32)) & SLOT_MASK) as usize;
            self.levels[level][slot].push(entry);
            self.occupied[level] |= 1 << slot;
        }
    }

    /// Earliest completion due at or before `limit`, without consuming
    /// it. Advances the cursor no further than `limit`, so later pushes
    /// at or after `limit` can never land behind it.
    pub fn next_due(&mut self, limit: u64) -> Option<u64> {
        debug_assert!(
            limit < self.horizon || self.horizon == u64::MAX,
            "advance past the window end"
        );
        'refill: loop {
            if let Some(e) = self.ready.last() {
                // Every level bucket is in a strictly later finest
                // bucket than `ready`'s, so its minimum is global.
                return (e.completion_nanos <= limit).then_some(e.completion_nanos);
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
                    self.ready.sort_unstable_by(|a, b| {
                        (b.completion_nanos, b.slot, b.idx).cmp(&(
                            a.completion_nanos,
                            a.slot,
                            a.idx,
                        ))
                    });
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

    /// Pops the entry a preceding [`TimerWheel::next_due`] surfaced.
    pub fn pop_due(&mut self) -> InFlight {
        let e = self.ready.pop().expect("next_due surfaced an entry");
        self.len -= 1;
        e
    }

    /// Drains the wheel, returning every entry in ascending key order.
    #[cfg(test)]
    pub fn into_sorted(self) -> Vec<InFlight> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// The window-close drain: consumes the wheel, appends every queued
    /// entry to `out` in ascending `(completion_nanos, slot, idx)` order,
    /// and hands the emptied wheel back to this thread's pool. The
    /// occupancy bitmaps make this walk only the non-empty buckets;
    /// emptied buckets — the overflow list included — keep their
    /// capacity, so a recycled wheel ([`TimerWheel::acquire`]) simulates
    /// its next window allocation-free. The sort covers only the
    /// appended suffix, so the caller's buffer may carry unrelated prior
    /// contents.
    pub fn drain_into(mut self, out: &mut Vec<InFlight>) {
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
        out[from..].sort_unstable_by_key(|e| (e.completion_nanos, e.slot, e.idx));
        self.len = 0;
        POOL.with(|pool| *pool.borrow_mut() = Some(self));
    }

    /// A wheel with its cursor at `start`, recycled from this thread's
    /// pool when a previous window returned one. A resumable replay
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
    /// suffices: each window simulation holds exactly one wheel at a
    /// time, and a thread simulates its windows one after another.
    static POOL: std::cell::RefCell<Option<TimerWheel>> = const { std::cell::RefCell::new(None) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn entry(t: u64, slot: u32, idx: u32) -> InFlight {
        InFlight {
            completion_nanos: t,
            slot,
            idx,
            epoch: 0,
            milli: 100,
            mib: 64,
            meta: InFlight::meta_of(crate::market::RUN_NORMAL, 1),
            list_cost_usd: 0.1,
        }
    }

    /// The packed meta word every test entry carries
    /// (`meta_of(RUN_NORMAL, 1)`).
    const META: u32 = 1 << 2;

    /// Drives a wheel and a heap through the same push/advance schedule
    /// and asserts identical pop sequences — the model-based pin of the
    /// completion-order guarantee.
    fn check_against_heap(seed: u64, spread: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wheel = TimerWheel::new(0, u64::MAX);
        let mut heap: BinaryHeap<Reverse<InFlight>> = BinaryHeap::new();
        let mut clock = 0u64;
        let mut idx = 0u32;
        for _ in 0..400 {
            // Simulated time moves forward; each instant pushes a few
            // completions ahead of the clock, then drains the due ones.
            clock += rng.gen_range(0..1u64 << 21);
            for _ in 0..rng.gen_range(0..4) {
                let t = clock + rng.gen_range(0..spread);
                let e = entry(t, rng.gen_range(0..4), idx);
                idx += 1;
                wheel.push(e);
                heap.push(Reverse(e));
            }
            loop {
                let expect = heap
                    .peek()
                    .map(|Reverse(e)| e.completion_nanos)
                    .filter(|&v| v <= clock);
                assert_eq!(wheel.next_due(clock), expect, "seed {seed} at {clock}");
                if expect.is_none() {
                    break;
                }
                let Reverse(want) = heap.pop().unwrap();
                let got = wheel.pop_due();
                assert_eq!(got.key(), want.key(), "seed {seed} at {clock}");
            }
            assert_eq!(wheel.len(), heap.len());
        }
        // Final drain: everything left comes out in heap order.
        let mut rest = Vec::new();
        while let Some(Reverse(e)) = heap.pop() {
            rest.push(e.key());
        }
        let drained: Vec<_> = wheel.into_sorted().iter().map(|e| e.key()).collect();
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
            check_against_heap(seed, spread);
        }
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
        let order: Vec<_> = (0..4).map(|_| wheel.pop_due()).map(|e| e.key()).collect();
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
        assert_eq!(wheel.pop_due().idx, 0);
        // Same finest bucket as the cursor now points at.
        wheel.push(entry(base + 20, 0, 2));
        assert_eq!(wheel.next_due(base + 40), Some(base + 20));
        assert_eq!(wheel.pop_due().idx, 2);
        assert_eq!(wheel.pop_due().idx, 1);
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
        assert_eq!(wheel.pop_due().idx, 0); // cursor now parked at `step`

        // The migration: same completion instants, fresh slots in the
        // surviving zone, pushed while the cursor sits at `step`.
        wheel.push(entry(step, 3, 2));
        wheel.push(entry(step + 50, 2, 3));
        assert_eq!(wheel.next_due(step), Some(step), "push at the cursor");
        assert_eq!(wheel.pop_due().key(), (step, 3, 2, META));
        assert_eq!(wheel.next_due(step + 50), Some(step + 50));
        // Stale twin (slot 0) pops before the migrated clone (slot 2).
        assert_eq!(wheel.pop_due().key(), (step + 50, 0, 1, META));
        assert_eq!(wheel.pop_due().key(), (step + 50, 2, 3, META));
        assert_eq!(wheel.len(), 0);
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
            assert_eq!(wheel.pop_due().idx, i as u32);
        }
        assert_eq!(wheel.next_due(u64::MAX), None);
    }
}
