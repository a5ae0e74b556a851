//! Differential property test for the timing-wheel scheduler.
//!
//! Drives the wheel-based [`Engine`] and a textbook binary-heap
//! scheduler through identical randomized schedule / cancel /
//! run-until workloads and asserts they agree on firing order,
//! `pending()` and `events_fired()` at every observation point. The
//! heap model is ~30 lines of obviously-correct code; any divergence
//! is a wheel bug (placement, cascade, overflow, stale cancel, ...).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use simcore::{Engine, EventId, SimRng, SimTime};

/// Reference scheduler: a `(deadline, seq)` min-heap with tombstone
/// cancellation, mirroring the engine's documented semantics — ties
/// fire in schedule order, past deadlines clamp to `now`, cancelling a
/// fired or already-cancelled event is a no-op.
struct HeapModel {
    now: u64,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// Liveness per seq: scheduled and not yet fired or cancelled.
    alive: Vec<bool>,
    fired: u64,
    /// Seqs in firing order.
    log: Vec<u64>,
}

impl HeapModel {
    fn new() -> Self {
        HeapModel {
            now: 0,
            heap: BinaryHeap::new(),
            alive: Vec::new(),
            fired: 0,
            log: Vec::new(),
        }
    }

    /// Returns the new event's seq (== schedule index).
    fn schedule_at(&mut self, at: u64) -> u64 {
        let seq = self.alive.len() as u64;
        self.alive.push(true);
        self.heap.push(Reverse((at.max(self.now), seq)));
        seq
    }

    fn cancel(&mut self, seq: u64) {
        self.alive[seq as usize] = false;
    }

    fn run_until(&mut self, t: u64) {
        while let Some(&Reverse((at, seq))) = self.heap.peek() {
            if at > t {
                break;
            }
            self.heap.pop();
            if std::mem::replace(&mut self.alive[seq as usize], false) {
                self.now = at;
                self.fired += 1;
                self.log.push(seq);
            }
        }
        self.now = self.now.max(t);
    }

    fn pending(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }
}

/// One randomized trial: `ops` operations, then drain both schedulers.
fn trial(seed: u64, ops: usize) {
    let mut rng = SimRng::new(seed);
    let mut engine = Engine::new();
    let model = Rc::new(RefCell::new(HeapModel::new()));
    // Engine-side firing log, appended to by the event closures.
    let fired_log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    // EventId per model seq, for cancellation (None once we saw it fire
    // — stale cancels are exercised via ids we keep anyway).
    let mut ids: Vec<EventId> = Vec::new();

    let check = |engine: &Engine, tag: &str| {
        let m = model.borrow();
        assert_eq!(*fired_log.borrow(), m.log, "seed {seed}: firing order ({tag})");
        assert_eq!(engine.pending(), m.pending(), "seed {seed}: pending ({tag})");
        assert_eq!(engine.events_fired(), m.fired, "seed {seed}: fired ({tag})");
    };

    for _ in 0..ops {
        let r = rng.uniform(0.0, 1.0);
        if r < 0.6 || ids.is_empty() {
            // Schedule. Deltas span every wheel level and the overflow
            // list: a random power-of-two magnitude up to 2^56 ns
            // (past the 2^54 wheel horizon), biased toward small.
            let mag = rng.next_u64() % 57;
            let delta = rng.next_u64() % (1u64 << mag).max(1);
            // Occasionally aim at the past to exercise clamping.
            let at = if rng.chance(0.05) {
                engine.now().as_nanos().saturating_sub(delta)
            } else {
                engine.now().as_nanos().saturating_add(delta)
            };
            let seq = model.borrow_mut().schedule_at(at);
            let log = Rc::clone(&fired_log);
            let id = engine.schedule_at(SimTime::from_nanos(at), move |_| {
                log.borrow_mut().push(seq);
            });
            assert_eq!(ids.len() as u64, seq);
            ids.push(id);
        } else if r < 0.8 {
            // Cancel a random event — possibly one that already fired
            // or was already cancelled (both must be no-ops).
            let seq = rng.next_u64() % ids.len() as u64;
            engine.cancel(ids[seq as usize]);
            model.borrow_mut().cancel(seq);
        } else {
            // Advance virtual time, firing everything due.
            let mag = rng.next_u64() % 57;
            let dt = rng.next_u64() % (1u64 << mag).max(1);
            let t = engine.now().as_nanos().saturating_add(dt);
            engine.run_until(SimTime::from_nanos(t));
            model.borrow_mut().run_until(t);
            assert_eq!(engine.now().as_nanos(), t, "seed {seed}: clock after run_until");
            check(&engine, "after run_until");
        }
    }

    // Drain: everything still pending fires, in (deadline, seq) order.
    engine.run();
    model.borrow_mut().run_until(u64::MAX);
    check(&engine, "after drain");
    assert_eq!(engine.pending(), 0, "seed {seed}: drained");
    assert_eq!(engine.events_scheduled(), ids.len() as u64, "seed {seed}: scheduled count");
}

#[test]
fn wheel_matches_heap_reference() {
    for seed in 0..12 {
        trial(0xC0FFEE ^ seed, 1500);
    }
}

/// Dense same-instant storm: many events at identical deadlines must
/// fire in schedule order on both schedulers.
#[test]
fn wheel_matches_heap_on_ties() {
    let mut rng = SimRng::new(7);
    let mut engine = Engine::new();
    let mut model = HeapModel::new();
    let fired_log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    for _ in 0..4000 {
        // Only 8 distinct deadlines: ties everywhere.
        let at = (rng.next_u64() % 8) * 1000;
        let seq = model.schedule_at(at);
        let log = Rc::clone(&fired_log);
        engine.schedule_at(SimTime::from_nanos(at), move |_| {
            log.borrow_mut().push(seq);
        });
    }
    engine.run();
    model.run_until(u64::MAX);
    assert_eq!(*fired_log.borrow(), model.log);
    assert_eq!(engine.events_fired(), model.fired);
    assert_eq!(engine.pending(), 0);
}
