//! Discrete-event executor.
//!
//! The scheduler is a hierarchical timing wheel rather than a binary
//! heap: schedule and cancel are O(1) in the common case, and each event
//! is moved at most once per wheel level before it fires. See
//! `DESIGN.md` ("Engine internals") for the full picture.

use crate::time::SimTime;

/// Handle to a scheduled event, usable for cancellation.
///
/// Packs the event's slab index and the slot's generation counter;
/// the generation is bumped every time a slab slot is reclaimed, so a
/// handle to an event that already fired (or was already cancelled and
/// reclaimed) can never alias a newer event in the same slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

type EventFn = Box<dyn FnOnce(&mut Engine)>;

/// A pending event: its deadline, its schedule sequence number (the
/// deterministic tie-break), a liveness flag cleared by `cancel`, and
/// the closure to run.
struct Ev {
    at: u64,
    seq: u64,
    alive: bool,
    f: EventFn,
}

/// One recyclable slab slot. `gen` counts reclaims so stale [`EventId`]s
/// become harmless no-ops instead of cancelling an unrelated event.
struct SlabEntry {
    gen: u32,
    ev: Option<Ev>,
}

/// Bits per wheel level: 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels. Level `k` has 1-nanosecond × 64^k slot granularity, so
/// nine levels cover deltas up to 2^54 ns (~208 virtual days); anything
/// farther out goes to the overflow list.
const LEVELS: usize = 9;

/// Slots at or under this many entries fire in place instead of
/// cascading: a removal plus rescan of a slot this small is no more work
/// than re-placing every entry one level down.
const CASCADE_THRESHOLD: usize = 8;

/// `peek_min` source marker for the overflow list (no slot index).
const OVERFLOW_SRC: u32 = u32::MAX;

/// Initial slab capacity: density sweeps schedule hundreds of in-flight
/// events per guest wave, so skip the first reallocation doublings.
const INITIAL_QUEUE_CAPACITY: usize = 256;

/// A single-threaded discrete-event executor over [`SimTime`].
///
/// Events are closures scheduled at absolute or relative virtual times.
/// Ties are broken by schedule order, so runs are fully deterministic.
///
/// Internally events live in a slab (indices are recycled, so steady
/// churn does not allocate) and are indexed by a hierarchical timing
/// wheel: level `k` buckets deadlines at 64^k-nanosecond granularity
/// relative to the wheel cursor, and a slot cascades to finer levels
/// when the cursor reaches it. Each occupied slot caches its minimum
/// `(deadline, seq)` key, so finding the next event scans at most one
/// slot per level.
///
/// Cancellation is tombstone-based: `cancel` clears the event's live
/// flag in place and the slab entry is dropped the next time its slot is
/// scanned or cascaded. [`Engine::pending`] counts only live events, so
/// cancelling an event that already fired is a true no-op — it cannot
/// skew the count.
///
/// # Examples
///
/// ```
/// use simcore::{Engine, SimTime};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut engine = Engine::new();
/// let fired = Rc::new(Cell::new(false));
/// let f = fired.clone();
/// engine.schedule_in(SimTime::from_millis(5), move |_| f.set(true));
/// engine.run();
/// assert!(fired.get());
/// assert_eq!(engine.now(), SimTime::from_millis(5));
/// ```
pub struct Engine {
    now: SimTime,
    /// Wheel cursor in nanoseconds: every live event's deadline is at
    /// least `cur`. Advances only when an event fires (to its deadline),
    /// so it never outruns `now`.
    cur: u64,
    /// `LEVELS * SLOTS` buckets of slab indices, flattened level-major.
    slots: Vec<Vec<u32>>,
    /// Cached minimum `(at, seq, slab idx)` per slot; valid while the
    /// slot bit is set, possibly stale if the minimum was cancelled
    /// (verified against the slab's live flag before use).
    slot_min: Vec<(u64, u64, u32)>,
    /// Per-level slot-occupancy bitmaps.
    occ: [u64; LEVELS],
    /// Events too far out for the wheel (> 2^54 ns past the cursor),
    /// with the cached minimum `(at, seq, slab idx)` among them.
    overflow: Vec<u32>,
    overflow_min: (u64, u64, u32),
    slab: Vec<SlabEntry>,
    free: Vec<u32>,
    /// Live event count: scheduled, not yet fired, not cancelled.
    n_live: usize,
    next_seq: u64,
    fired: u64,
    peak_pending: usize,
    /// Reused drain buffer for cascades, so slot `Vec` capacities are
    /// recycled instead of freed and reallocated on every cascade.
    scratch: Vec<u32>,
}

impl Engine {
    /// Creates an engine with the clock at zero.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            cur: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            slot_min: vec![(0, 0, 0); LEVELS * SLOTS],
            occ: [0; LEVELS],
            overflow: Vec::new(),
            overflow_min: (0, 0, 0),
            slab: Vec::with_capacity(INITIAL_QUEUE_CAPACITY),
            free: Vec::new(),
            n_live: 0,
            next_seq: 0,
            fired: 0,
            peak_pending: 0,
            scratch: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far. Together with host wall-clock this
    /// is the simulator's throughput counter (events/sec), reported per
    /// work unit by the figure runner.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Total events ever scheduled (fired, pending or cancelled).
    pub fn events_scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Number of events still pending. Cancelled and fired events never
    /// count, regardless of when they were cancelled.
    pub fn pending(&self) -> usize {
        self.n_live
    }

    /// High-water mark of [`Engine::pending`]: the deepest the event
    /// queue ever got. Reported per work unit by the figure runner.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Advances the clock without firing anything.
    ///
    /// Used by sequential cost accounting: an operation that "takes" `dt`
    /// simply pushes the clock forward.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if events scheduled before `now + dt` are
    /// pending, since skipping over them would reorder time.
    pub fn advance(&mut self, dt: SimTime) {
        let target = self.now + dt;
        debug_assert!(
            self.peek_time().map(|t| t >= target).unwrap_or(true),
            "advance() would skip over a pending event"
        );
        self.now = target;
    }

    /// Schedules `f` at absolute time `at` (clamped to now if in the past).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut Engine) + 'static,
    ) -> EventId {
        let at = at.max(self.now).as_nanos();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.n_live += 1;
        if self.n_live > self.peak_pending {
            self.peak_pending = self.n_live;
        }
        let ev = Ev {
            at,
            seq,
            alive: true,
            f: Box::new(f),
        };
        let (idx, gen) = match self.free.pop() {
            Some(i) => {
                let entry = &mut self.slab[i as usize];
                entry.ev = Some(ev);
                (i, entry.gen)
            }
            None => {
                self.slab.push(SlabEntry { gen: 0, ev: Some(ev) });
                ((self.slab.len() - 1) as u32, 0)
            }
        };
        self.place(idx, at, seq);
        EventId((gen as u64) << 32 | idx as u64)
    }

    /// Schedules `f` after a relative delay.
    pub fn schedule_in(
        &mut self,
        dt: SimTime,
        f: impl FnOnce(&mut Engine) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + dt, f)
    }

    /// Cancels a previously scheduled event. Cancelling an event that has
    /// already fired (or was already cancelled) is a no-op.
    ///
    /// O(1): only the live flag is cleared; the slab entry is reclaimed
    /// when its slot is next scanned or cascaded.
    pub fn cancel(&mut self, id: EventId) {
        let idx = (id.0 & u32::MAX as u64) as usize;
        let gen = (id.0 >> 32) as u32;
        if let Some(entry) = self.slab.get_mut(idx) {
            if entry.gen == gen {
                if let Some(ev) = entry.ev.as_mut() {
                    if ev.alive {
                        ev.alive = false;
                        self.n_live -= 1;
                    }
                }
            }
        }
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_min().map(|((at, _), _)| SimTime::from_nanos(at))
    }

    /// Fires the next event, advancing the clock to it. Returns false if
    /// the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.peek_min() {
            Some((key, src)) => {
                self.fire(key, src);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the clock would pass `t`; events at exactly `t` fire.
    /// The clock is left at `t` (or beyond-`t` events' view of it), so
    /// callers can continue from a known instant.
    pub fn run_until(&mut self, t: SimTime) {
        let horizon = t.as_nanos();
        while let Some((key, src)) = self.peek_min() {
            if key.0 > horizon {
                break;
            }
            self.fire(key, src);
        }
        if self.now < t {
            self.now = t;
        }
    }

    // --- wheel internals -------------------------------------------------

    /// Frees a slab slot, bumping its generation so outstanding
    /// [`EventId`]s to the old occupant go stale.
    #[inline]
    fn release(&mut self, idx: u32) -> Ev {
        let entry = &mut self.slab[idx as usize];
        let ev = entry.ev.take().expect("slab entry present");
        entry.gen = entry.gen.wrapping_add(1);
        self.free.push(idx);
        ev
    }

    /// True if the cached key `(seq, idx)` still refers to a live event.
    #[inline]
    fn is_live(&self, seq: u64, idx: u32) -> bool {
        self.slab[idx as usize]
            .ev
            .as_ref()
            .is_some_and(|e| e.alive && e.seq == seq)
    }

    /// Inserts a slab index into the wheel (or the overflow list).
    ///
    /// The level is derived from the highest bit where the deadline and
    /// the cursor differ (the classic hashed-wheel rule): both share all
    /// coarser digits, so the deadline lands ahead of the cursor within
    /// that level's 64-slot window — and because the cursor only moves
    /// forward, the claim keeps holding until the slot cascades or fires.
    fn place(&mut self, idx: u32, at: u64, seq: u64) {
        debug_assert!(at >= self.cur, "live events never land behind the cursor");
        let x = at ^ self.cur;
        let k = if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / LEVEL_BITS) as usize
        };
        if k >= LEVELS {
            if self.overflow.is_empty() || (at, seq) < (self.overflow_min.0, self.overflow_min.1)
            {
                self.overflow_min = (at, seq, idx);
            }
            self.overflow.push(idx);
            return;
        }
        let p = ((at >> (LEVEL_BITS * k as u32)) & (SLOTS as u64 - 1)) as usize;
        let i = k * SLOTS + p;
        if self.slots[i].is_empty() {
            self.occ[k] |= 1 << p;
            self.slot_min[i] = (at, seq, idx);
        } else if (at, seq) < (self.slot_min[i].0, self.slot_min[i].1) {
            self.slot_min[i] = (at, seq, idx);
        }
        self.slots[i].push(idx);
    }

    /// Rescans slot `i`, dropping dead entries and refreshing its cached
    /// minimum. Returns false if the slot came up empty.
    fn rebuild_slot(&mut self, i: usize) -> bool {
        let mut min = (u64::MAX, u64::MAX, 0u32);
        let mut w = 0;
        for r in 0..self.slots[i].len() {
            let idx = self.slots[i][r];
            let (at, seq, alive) = {
                let ev = self.slab[idx as usize].ev.as_ref().expect("slab entry");
                (ev.at, ev.seq, ev.alive)
            };
            if alive {
                self.slots[i][w] = idx;
                w += 1;
                if (at, seq) < (min.0, min.1) {
                    min = (at, seq, idx);
                }
            } else {
                self.release(idx);
            }
        }
        self.slots[i].truncate(w);
        self.slot_min[i] = min;
        w > 0
    }

    /// Minimum live `(at, seq)` over the whole queue plus its location
    /// (a slot index, or [`OVERFLOW_SRC`]), or `None` if empty. Does not
    /// move the cursor; dead entries encountered along the way are
    /// reclaimed.
    fn peek_min(&mut self) -> Option<((u64, u64), u32)> {
        let mut best: Option<((u64, u64), u32)> = None;
        for k in 0..LEVELS {
            if self.occ[k] == 0 {
                continue;
            }
            let shift = LEVEL_BITS * k as u32;
            let s = ((self.cur >> shift) & (SLOTS as u64 - 1)) as u32;
            // Rotate the occupancy so the scan starts at the cursor slot:
            // within a level, slots fire in cursor order, and the first
            // occupied one holds the level's earliest deadlines.
            loop {
                let rot = self.occ[k].rotate_right(s);
                if rot == 0 {
                    break;
                }
                let d = rot.trailing_zeros();
                let p = ((s + d) & (SLOTS as u32 - 1)) as usize;
                let i = k * SLOTS + p;
                let (_, mseq, midx) = self.slot_min[i];
                if !self.is_live(mseq, midx) {
                    // Stale cache (the minimum was cancelled): rescan.
                    if !self.rebuild_slot(i) {
                        self.occ[k] &= !(1 << p);
                        continue;
                    }
                }
                let key = (self.slot_min[i].0, self.slot_min[i].1);
                if best.is_none_or(|(b, _)| key < b) {
                    best = Some((key, i as u32));
                }
                break;
            }
        }
        if !self.overflow.is_empty() {
            if !self.is_live(self.overflow_min.1, self.overflow_min.2) {
                self.rebuild_overflow();
            }
            if !self.overflow.is_empty() {
                let okey = (self.overflow_min.0, self.overflow_min.1);
                if best.is_none_or(|(b, _)| okey < b) {
                    best = Some((okey, OVERFLOW_SRC));
                }
            }
        }
        best
    }

    fn rebuild_overflow(&mut self) {
        let mut min = (u64::MAX, u64::MAX, 0u32);
        let mut w = 0;
        for r in 0..self.overflow.len() {
            let idx = self.overflow[r];
            let (at, seq, alive) = {
                let ev = self.slab[idx as usize].ev.as_ref().expect("slab entry");
                (ev.at, ev.seq, ev.alive)
            };
            if alive {
                self.overflow[w] = idx;
                w += 1;
                if (at, seq) < (min.0, min.1) {
                    min = (at, seq, idx);
                }
            } else {
                self.release(idx);
            }
        }
        self.overflow.truncate(w);
        self.overflow_min = min;
    }

    /// Fires the event with key `(at, seq)` found at `src` by
    /// `peek_min`. Advances the cursor to `at`; oversized slots the
    /// cursor lands on cascade to finer levels, while small slots stay
    /// put and fire in place — the common case removes the event straight
    /// from a one- or two-entry slot with no re-placement at all.
    fn fire(&mut self, key: (u64, u64), src: u32) {
        let (at, seq) = key;
        let _ = seq;
        if at > self.cur {
            // Only levels whose cursor digit changed can have a slot
            // sitting at the new cursor position; skip the rest.
            let max_level = ((63 - (at ^ self.cur).leading_zeros()) / LEVEL_BITS) as usize;
            self.cur = at;
            self.cascade_cursor_slots(max_level.min(LEVELS - 1));
        }
        if !self.overflow.is_empty() && self.overflow_min.0 <= self.cur {
            self.migrate_overflow();
        }
        // Locate the event's slot: `src`, unless the event was in the
        // overflow list or its slot just cascaded — both re-place it at
        // level 0 (its deadline now equals the cursor).
        let mut i = src as usize;
        if src == OVERFLOW_SRC
            || self.occ[i / SLOTS] & (1 << (i % SLOTS)) == 0
            || (self.slot_min[i].0, self.slot_min[i].1) != key
        {
            i = (at & (SLOTS as u64 - 1)) as usize;
            if (self.slot_min[i].0, self.slot_min[i].1) != key {
                // The cached minimum is a cancelled event with a smaller
                // key; dropping the dead entries re-exposes ours.
                self.rebuild_slot(i);
            }
        }
        debug_assert_eq!((self.slot_min[i].0, self.slot_min[i].1), key);
        let idx = self.slot_min[i].2;
        if self.slots[i].len() == 1 {
            // Overwhelmingly common: the due event is alone in its slot.
            self.slots[i].clear();
            self.occ[i / SLOTS] &= !(1 << (i % SLOTS));
        } else {
            let pos = self.slots[i]
                .iter()
                .position(|&e| e == idx)
                .expect("minimum event is in its located slot");
            self.slots[i].swap_remove(pos);
            self.rebuild_slot(i);
        }
        let ev = self.release(idx);
        debug_assert!(ev.alive, "peek_min returns live events only");
        self.n_live -= 1;
        self.now = SimTime::from_nanos(at);
        self.fired += 1;
        (ev.f)(self);
    }

    /// Cascades the oversized slots the advancing cursor landed on
    /// (levels 1 to `max_level`) down to finer levels. A slot at the
    /// cursor position only holds deadlines within the cursor's own
    /// coarse tick, so each entry re-places at least one level lower —
    /// the per-event cascade work is bounded by the level count. Slots at
    /// or under [`CASCADE_THRESHOLD`] entries are left alone: removing
    /// from and rescanning a slot that small costs no more than moving
    /// its entries down would, so they fire in place instead.
    fn cascade_cursor_slots(&mut self, max_level: usize) {
        for k in 1..=max_level {
            let shift = LEVEL_BITS * k as u32;
            let p = ((self.cur >> shift) & (SLOTS as u64 - 1)) as usize;
            if self.occ[k] & (1 << p) == 0 {
                continue;
            }
            let i = k * SLOTS + p;
            if self.slots[i].len() <= CASCADE_THRESHOLD {
                continue;
            }
            self.occ[k] &= !(1 << p);
            // Swap through the scratch buffer (rather than take + drop)
            // so slot capacities are recycled across cascades.
            std::mem::swap(&mut self.scratch, &mut self.slots[i]);
            for n in 0..self.scratch.len() {
                let idx = self.scratch[n];
                let (at, seq, alive) = {
                    let ev = self.slab[idx as usize].ev.as_ref().expect("slab entry");
                    (ev.at, ev.seq, ev.alive)
                };
                if alive {
                    self.place(idx, at, seq);
                } else {
                    self.release(idx);
                }
            }
            self.scratch.clear();
        }
    }

    /// Re-places the overflow list once the cursor is inside its range:
    /// entries now within the wheel's horizon move onto the wheel, the
    /// rest stay (with a refreshed cached minimum).
    fn migrate_overflow(&mut self) {
        std::mem::swap(&mut self.scratch, &mut self.overflow);
        self.overflow_min = (u64::MAX, u64::MAX, 0);
        for n in 0..self.scratch.len() {
            let idx = self.scratch[n];
            let (at, seq, alive) = {
                let ev = self.slab[idx as usize].ev.as_ref().expect("slab entry");
                (ev.at, ev.seq, ev.alive)
            };
            if alive {
                self.place(idx, at, seq);
            } else {
                self.release(idx);
            }
        }
        self.scratch.clear();
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let mut e = Engine::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, ms) in [(0u32, 30u64), (1, 10), (2, 20)] {
            let o = order.clone();
            e.schedule_at(SimTime::from_millis(ms), move |_| o.borrow_mut().push(i));
        }
        e.run();
        assert_eq!(*order.borrow(), vec![1, 2, 0]);
        assert_eq!(e.now(), SimTime::from_millis(30));
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut e = Engine::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5u32 {
            let o = order.clone();
            e.schedule_at(SimTime::from_millis(1), move |_| o.borrow_mut().push(i));
        }
        e.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut e = Engine::new();
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        e.schedule_in(SimTime::from_millis(1), move |eng| {
            let h2 = h.clone();
            eng.schedule_in(SimTime::from_millis(2), move |eng| {
                h2.borrow_mut().push(eng.now());
            });
        });
        e.run();
        assert_eq!(*hits.borrow(), vec![SimTime::from_millis(3)]);
    }

    #[test]
    fn cancellation_prevents_firing() {
        let mut e = Engine::new();
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        let id = e.schedule_in(SimTime::from_millis(1), move |_| *f.borrow_mut() = true);
        e.cancel(id);
        e.run();
        assert!(!*fired.borrow());
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn cancel_after_fire_is_a_true_noop() {
        // Regression test: cancelling an already-fired event used to park
        // its id in the tombstone set forever, so pending() (computed as
        // queue.len() - cancelled.len()) drifted and could underflow.
        let mut e = Engine::new();
        let id = e.schedule_in(SimTime::from_millis(1), |_| {});
        assert_eq!(e.pending(), 1);
        e.run();
        assert_eq!(e.pending(), 0);
        e.cancel(id); // already fired: must not affect bookkeeping
        e.cancel(id); // double-cancel: same
        assert_eq!(e.pending(), 0);
        // A later schedule/fire cycle still balances.
        let id2 = e.schedule_in(SimTime::from_millis(1), |_| {});
        assert_eq!(e.pending(), 1);
        e.cancel(id2);
        e.cancel(id2);
        assert_eq!(e.pending(), 0);
        e.run();
        assert_eq!(e.pending(), 0);
        assert_eq!(e.events_fired(), 1);
    }

    #[test]
    fn stale_id_cannot_cancel_a_recycled_slot() {
        // After an event fires, its slab slot is recycled for the next
        // event. The stale handle must not reach through to the newcomer.
        let mut e = Engine::new();
        let stale = e.schedule_in(SimTime::from_millis(1), |_| {});
        e.run();
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        let fresh = e.schedule_in(SimTime::from_millis(1), move |_| *f.borrow_mut() = true);
        assert_ne!(stale, fresh);
        e.cancel(stale); // must not cancel `fresh` even if slots alias
        e.run();
        assert!(*fired.borrow());
    }

    #[test]
    fn cancelled_events_do_not_count_as_fired() {
        let mut e = Engine::new();
        for ms in 1..=10u64 {
            e.schedule_in(SimTime::from_millis(ms), |_| {});
        }
        let id = e.schedule_in(SimTime::from_millis(20), |_| {});
        e.cancel(id);
        e.run();
        assert_eq!(e.events_fired(), 10);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn pending_is_exact_under_interleaved_cancel() {
        let mut e = Engine::new();
        let ids: Vec<_> = (1..=100u64)
            .map(|ms| e.schedule_in(SimTime::from_millis(ms), |_| {}))
            .collect();
        // Cancel every third, some twice.
        for id in ids.iter().step_by(3) {
            e.cancel(*id);
            e.cancel(*id);
        }
        let cancelled = ids.len().div_ceil(3);
        assert_eq!(e.pending(), ids.len() - cancelled);
        e.run();
        assert_eq!(e.pending(), 0);
        assert_eq!(e.events_fired(), (ids.len() - cancelled) as u64);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut e = Engine::new();
        let count = Rc::new(RefCell::new(0));
        for ms in [5u64, 10, 15] {
            let c = count.clone();
            e.schedule_at(SimTime::from_millis(ms), move |_| *c.borrow_mut() += 1);
        }
        e.run_until(SimTime::from_millis(10));
        assert_eq!(*count.borrow(), 2);
        assert_eq!(e.now(), SimTime::from_millis(10));
        e.run();
        assert_eq!(*count.borrow(), 3);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut e = Engine::new();
        e.advance(SimTime::from_millis(10));
        let t = Rc::new(RefCell::new(SimTime::ZERO));
        let tc = t.clone();
        e.schedule_at(SimTime::from_millis(1), move |eng| {
            *tc.borrow_mut() = eng.now();
        });
        e.run();
        assert_eq!(*t.borrow(), SimTime::from_millis(10));
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut e = Engine::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        // > 2^54 ns is beyond the wheel's horizon.
        for (i, t) in [(0u32, u64::MAX), (1, 1 << 60), (2, 5), (3, 1 << 58)] {
            let o = order.clone();
            e.schedule_at(SimTime::from_nanos(t), move |_| o.borrow_mut().push(i));
        }
        assert_eq!(e.peek_time(), Some(SimTime::from_nanos(5)));
        e.run();
        assert_eq!(*order.borrow(), vec![2, 3, 1, 0]);
        assert_eq!(e.now(), SimTime::MAX);
        assert_eq!(e.events_fired(), 4);
    }

    #[test]
    fn same_instant_cross_level_ties_still_break_by_seq() {
        // Two events at the same deadline, placed at different wheel
        // levels (the second is scheduled when the cursor is closer), must
        // still fire in schedule order.
        let mut e = Engine::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        let t = SimTime::from_millis(10);
        let o = order.clone();
        e.schedule_at(t, move |_| o.borrow_mut().push(0u32)); // coarse level
        let o = order.clone();
        e.schedule_at(SimTime::from_millis(9), move |eng| {
            // Cursor is now at 9 ms; 10 ms lands on a finer level.
            let o2 = o.clone();
            eng.schedule_at(SimTime::from_millis(10), move |_| o2.borrow_mut().push(1));
        });
        e.run();
        assert_eq!(*order.borrow(), vec![0, 1]);
    }

    #[test]
    fn peak_pending_and_scheduled_counters() {
        let mut e = Engine::new();
        let ids: Vec<_> = (1..=8u64)
            .map(|ms| e.schedule_in(SimTime::from_millis(ms), |_| {}))
            .collect();
        assert_eq!(e.peak_pending(), 8);
        for id in &ids[..4] {
            e.cancel(*id);
        }
        e.run();
        assert_eq!(e.peak_pending(), 8);
        assert_eq!(e.events_scheduled(), 8);
        assert_eq!(e.events_fired(), 4);
    }
}
