//! Indexed event queue for the discrete-event hot path.
//!
//! The engine's original event queue was one global `BinaryHeap` holding
//! *every* pending event — including all not-yet-arrived requests. At a
//! million requests that is a million-entry heap, dominated by an arrival
//! backlog that is already sorted. This module splits the queue into lanes
//! keyed on the same `(time, class, seq)` order:
//!
//! * **Arrival lane** (class 0): arrivals are injected in non-decreasing
//!   time order (the fleet pulls them in time order), so they live in a
//!   plain FIFO — `O(1)` push and pop, no comparisons against the backlog.
//! * **Scheduled lane** (class 1): scheduled completions (stage and
//!   retrieval events) go into a `BinaryHeap` keyed `(time, seq)`. Only
//!   *in-flight* work lives here: one micro-batch per resource and the
//!   outstanding retrieval batches, so the lane holds a handful of
//!   entries. A split fleet's KV-transfer lane, which fills in bulk once
//!   the prefill pool runs dry, peaks at 960 entries in the `sizing`
//!   benchmark journey — still a shallow heap.
//! * **Step slot**: the scheduled lane's one decode event. A replica has
//!   at most one decode run in flight, and the run is one event at its
//!   last step's boundary, so this is a single slot. Setting it replaces
//!   the pending entry, which is how a run cut short drops the event it
//!   no longer reaches. At equal times it orders
//!   *after* every other scheduled event, so the scheduled lane is keyed
//!   `(time, step-last, seq)`. Same-instant order therefore does not
//!   depend on when the step event was pushed. Reordering equal-time
//!   events changes neither a group's members nor its `now`, and a step
//!   touches other requests than the stage and retrieval batches it
//!   meets, so this order reproduces the pure `(time, seq)` one.
//!
//! [`EventQueue::pop`] merges the lanes with exactly that ordering:
//! earlier time first (`f64::total_cmp`), arrivals before same-instant
//! scheduled events (class 0 < class 1), the step slot after the other
//! scheduled events, and FIFO/sequence order within a lane. Because each
//! lane is itself emitted in sorted order, the merge is the global heap
//! order of the `(time, class, step-last, seq)` key.
//!
//! A third **fault lane** carries externally injected control events
//! (straggler slowdown changes and the like). Faults order *before*
//! same-instant arrivals — effectively class −1 — so a degradation that
//! lands at the same instant as a request arrival is in force before that
//! request is processed. The tie-break is pinned by unit test below and is
//! part of the chaos-scenario golden contract.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// One entry in the scheduled lane. Sequence numbers are unique, so the
/// `(t, seq)` key is a total order and the heap pops exactly as the
/// historical global heap did.
#[derive(Debug, Clone, Copy)]
struct Scheduled<E> {
    t: f64,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    /// Reversed key order: the max-heap's top is the smallest `(t, seq)`.
    fn cmp(&self, other: &Self) -> Ordering {
        key_cmp(other.t, other.seq, self.t, self.seq)
    }
}

/// Compares two `(t, seq)` keys with the engine's event ordering.
fn key_cmp(t_a: f64, seq_a: u64, t_b: f64, seq_b: u64) -> Ordering {
    t_a.total_cmp(&t_b).then(seq_a.cmp(&seq_b))
}

/// Observability snapshot of one event queue's internal work: per-lane
/// event counts. Pure counters — reading them never perturbs the
/// simulation, so traced and untraced runs stay bit-identical. A replica
/// reports the events it applied per lane, so a decode run of `k` steps
/// counts `k` scheduled events though it is popped once.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventQueueStats {
    /// Events of the fault lane (class −1).
    pub fault_pops: u64,
    /// Events of the FIFO arrival lane (class 0).
    pub arrival_pops: u64,
    /// Events of the scheduled lane (class 1), the step slot included.
    pub scheduled_pops: u64,
}

impl EventQueueStats {
    /// Accumulates another queue's pop counts.
    pub fn merge_from(&mut self, other: &EventQueueStats) {
        self.fault_pops += other.fault_pops;
        self.arrival_pops += other.arrival_pops;
        self.scheduled_pops += other.scheduled_pops;
    }
}

/// The engine's event queue: FIFO fault and arrival lanes merged against a
/// heap of scheduled completions. See the module docs for the ordering
/// contract.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue<E> {
    /// `(t, payload)` fault-lane events in non-decreasing `t`, FIFO.
    /// Class −1: faults beat same-instant arrivals and scheduled events.
    faults: VecDeque<(f64, E)>,
    /// `(t, payload)` arrivals in non-decreasing `t`, FIFO.
    arrivals: VecDeque<(f64, E)>,
    scheduled: BinaryHeap<Scheduled<E>>,
    /// The step slot: at most one `(t, payload)` scheduled event, ordered
    /// after every same-instant entry of `scheduled`.
    step: Option<(f64, E)>,
    /// Lane and time of the earliest event outside the step slot, renewed
    /// by every push and pop of those lanes, so a peek reads two fields.
    rest: Option<(Lane, f64)>,
    /// Sequence counter for scheduled events (arrivals order by FIFO
    /// position; the two lanes never compare sequence numbers against each
    /// other because the class decides same-instant ties).
    seq: u64,
    /// Per-lane pop counters, for [`EventQueueStats`].
    fault_pops: u64,
    arrival_pops: u64,
    scheduled_pops: u64,
}

impl<E: Copy> EventQueue<E> {
    pub(crate) fn new() -> Self {
        Self {
            faults: VecDeque::new(),
            arrivals: VecDeque::new(),
            scheduled: BinaryHeap::new(),
            step: None,
            rest: None,
            seq: 0,
            fault_pops: 0,
            arrival_pops: 0,
            scheduled_pops: 0,
        }
    }

    /// Snapshot of the queue's lifetime work counters.
    pub(crate) fn stats(&self) -> EventQueueStats {
        EventQueueStats {
            fault_pops: self.fault_pops,
            arrival_pops: self.arrival_pops,
            scheduled_pops: self.scheduled_pops,
        }
    }

    /// Enqueues an arrival (class 0). Arrivals must be pushed in
    /// non-decreasing time order — the fleet routes arrivals in time order,
    /// and the debug assertion holds it to that.
    pub(crate) fn push_arrival(&mut self, t: f64, ev: E) {
        debug_assert!(
            self.arrivals.back().map_or(true, |&(back, _)| back <= t),
            "arrivals must be enqueued in non-decreasing time order"
        );
        self.arrivals.push_back((t, ev));
        self.rest = self.head_rest();
    }

    /// Enqueues a scheduled completion (class 1).
    pub(crate) fn push_scheduled(&mut self, t: f64, ev: E) {
        let seq = self.seq;
        self.seq += 1;
        self.scheduled.push(Scheduled { t, seq, ev });
        self.rest = self.head_rest();
    }

    /// Enqueues a fault-lane event (class −1). Like arrivals, fault events
    /// must be pushed in non-decreasing time order — fault schedules are
    /// sorted before injection, and the debug assertion holds them to that.
    pub(crate) fn push_fault(&mut self, t: f64, ev: E) {
        debug_assert!(
            self.faults.back().map_or(true, |&(back, _)| back <= t),
            "fault events must be enqueued in non-decreasing time order"
        );
        self.faults.push_back((t, ev));
        self.rest = self.head_rest();
    }

    /// Schedules the step slot's event at `t`, replacing any pending one.
    pub(crate) fn set_step(&mut self, t: f64, ev: E) {
        self.step = Some((t, ev));
    }

    /// Empties the step slot.
    pub(crate) fn clear_step(&mut self) {
        self.step = None;
    }

    /// Time of the next event without removing it.
    pub(crate) fn peek_time(&self) -> Option<f64> {
        self.head().map(|(_, t)| t)
    }

    /// Time of the next event outside the step slot.
    pub(crate) fn peek_time_without_step(&self) -> Option<f64> {
        self.rest.map(|(_, t)| t)
    }

    /// Removes and returns the next event in `(time, class, step-last,
    /// seq)` order.
    pub(crate) fn pop(&mut self) -> Option<(f64, E)> {
        let (lane, _) = self.head()?;
        let out = match lane {
            Lane::Step => {
                self.scheduled_pops += 1;
                return self.step.take();
            }
            Lane::Fault => {
                self.fault_pops += 1;
                self.faults.pop_front()
            }
            Lane::Arrival => {
                self.arrival_pops += 1;
                self.arrivals.pop_front()
            }
            Lane::Scheduled => {
                self.scheduled_pops += 1;
                self.scheduled.pop().map(|s| (s.t, s.ev))
            }
        };
        self.rest = self.head_rest();
        out
    }

    /// The lane holding the next event and that event's time.
    fn head(&self) -> Option<(Lane, f64)> {
        earlier(self.rest, Lane::Step, self.step.map(|(t, _)| t))
    }

    /// [`Self::head`] outside the step slot. Lanes are compared in
    /// tie-break order, and a later lane wins only on a strictly earlier
    /// time.
    fn head_rest(&self) -> Option<(Lane, f64)> {
        let head = self.faults.front().map(|&(t, _)| (Lane::Fault, t));
        let head = earlier(head, Lane::Arrival, self.arrivals.front().map(|&(t, _)| t));
        earlier(head, Lane::Scheduled, self.scheduled.peek().map(|s| s.t))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.faults.is_empty()
            && self.arrivals.is_empty()
            && self.scheduled.is_empty()
            && self.step.is_none()
    }
}

/// `head`, or `lane` when its next event comes strictly earlier.
fn earlier(head: Option<(Lane, f64)>, lane: Lane, t: Option<f64>) -> Option<(Lane, f64)> {
    match (head, t) {
        (Some((_, head_t)), Some(t)) if t.total_cmp(&head_t) != Ordering::Less => head,
        (_, Some(t)) => Some((lane, t)),
        (head, None) => head,
    }
}

/// The queue's lanes, in same-instant tie-break order.
#[derive(Debug, Clone, Copy)]
enum Lane {
    Fault,
    Arrival,
    Scheduled,
    Step,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Reference key mirroring the historical `BinaryHeap` entry ordering.
    #[derive(PartialEq)]
    struct RefEntry {
        t: f64,
        class: u8,
        seq: u64,
        tag: u32,
    }
    impl Eq for RefEntry {}
    impl PartialOrd for RefEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for RefEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            self.t
                .total_cmp(&other.t)
                .then(self.class.cmp(&other.class))
                .then(self.seq.cmp(&other.seq))
        }
    }

    #[test]
    fn empty_queue_is_empty() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn arrivals_beat_scheduled_events_at_the_same_instant() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push_scheduled(1.0, 10);
        q.push_arrival(1.0, 1);
        q.push_scheduled(0.5, 20);
        assert_eq!(q.pop(), Some((0.5, 20)));
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((1.0, 10)));
        assert!(q.is_empty());
    }

    /// Pins the fault-lane tie-break: at one instant, fault events drain
    /// first (FIFO), then arrivals, then scheduled completions. Chaos
    /// scenario goldens depend on this order.
    #[test]
    fn fault_events_beat_same_instant_arrivals_and_scheduled_events() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push_scheduled(1.0, 30);
        q.push_arrival(1.0, 20);
        q.push_fault(1.0, 10);
        q.push_fault(1.0, 11);
        q.push_fault(2.0, 12);
        assert_eq!(q.peek_time(), Some(1.0));
        assert_eq!(q.pop(), Some((1.0, 10)));
        assert_eq!(q.pop(), Some((1.0, 11)));
        assert_eq!(q.pop(), Some((1.0, 20)));
        assert_eq!(q.pop(), Some((1.0, 30)));
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((2.0, 12)));
        assert!(q.is_empty());
    }

    /// Pins the step slot: at one instant it pops after every other lane,
    /// whenever it was set, and setting it again replaces the pending
    /// step. Its pops count as scheduled pops.
    #[test]
    fn the_step_slot_pops_last_at_its_instant_and_is_replaced_when_set() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.set_step(1.0, 40);
        q.push_scheduled(1.0, 30);
        q.push_arrival(1.0, 20);
        q.push_fault(1.0, 10);
        q.set_step(1.0, 41);
        q.push_scheduled(0.5, 5);
        for want in [(0.5, 5), (1.0, 10), (1.0, 20), (1.0, 30), (1.0, 41)] {
            assert_eq!(q.pop(), Some(want));
        }
        assert!(q.is_empty());
        q.push_scheduled(2.0, 1);
        q.set_step(1.5, 2);
        assert_eq!(q.peek_time(), Some(1.5));
        assert_eq!(q.pop(), Some((1.5, 2)));
        assert_eq!(q.pop(), Some((2.0, 1)));
        let stats = q.stats();
        assert_eq!((stats.fault_pops, stats.arrival_pops), (1, 1));
        assert_eq!(stats.scheduled_pops, 5);
    }

    #[test]
    fn scheduled_ties_break_by_insertion_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for tag in 0..8 {
            q.push_scheduled(2.0, tag);
        }
        for tag in 0..8 {
            assert_eq!(q.pop(), Some((2.0, tag)));
        }
    }

    /// Degenerate case: every key shares one timestamp, so only the
    /// sequence number orders them.
    #[test]
    fn identical_timestamps_stay_in_insertion_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for tag in 0..200 {
            q.push_scheduled(0.0, tag);
        }
        for tag in 0..200 {
            assert_eq!(q.pop(), Some((0.0, tag)));
        }
        assert!(q.is_empty());
    }

    /// Randomized cross-check against the historical heap order, with
    /// interleaved pushes and pops and monotone arrival times.
    #[test]
    fn merged_order_matches_the_reference_heap() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut heap: BinaryHeap<Reverse<RefEntry>> = BinaryHeap::new();
            let mut heap_seq = 0u64;
            let mut arrival_t = 0.0f64;
            let mut popped_t = 0.0f64;
            let mut tag = 0u32;
            let mut expected: Vec<(f64, u32)> = Vec::new();
            let mut actual: Vec<(f64, u32)> = Vec::new();
            for _ in 0..400 {
                match rng.gen_range(0..3u32) {
                    0 => {
                        arrival_t += rng.gen_range(0.0..0.5);
                        q.push_arrival(arrival_t, tag);
                        heap.push(Reverse(RefEntry {
                            t: arrival_t,
                            class: 0,
                            seq: heap_seq,
                            tag,
                        }));
                        heap_seq += 1;
                        tag += 1;
                    }
                    1 => {
                        // Completions are scheduled at or after the last
                        // processed instant, like the engine does.
                        let t = popped_t + rng.gen_range(0.0..3.0);
                        q.push_scheduled(t, tag);
                        heap.push(Reverse(RefEntry {
                            t,
                            class: 1,
                            seq: heap_seq,
                            tag,
                        }));
                        heap_seq += 1;
                        tag += 1;
                    }
                    _ => {
                        let got = q.pop();
                        let want = heap.pop().map(|Reverse(e)| (e.t, e.tag));
                        if let Some((t, _)) = got {
                            popped_t = popped_t.max(t);
                        }
                        assert_eq!(got, want);
                        if let Some(w) = want {
                            expected.push(w);
                        }
                        if let Some(g) = got {
                            actual.push(g);
                        }
                    }
                }
            }
            while let Some(got) = q.pop() {
                let Reverse(e) = heap.pop().expect("reference heap drained early");
                assert_eq!(got, (e.t, e.tag));
            }
            assert!(heap.pop().is_none());
            assert_eq!(expected, actual);
        }
    }

    /// Many live entries pushed in random time order pop in key order.
    #[test]
    fn unsorted_pushes_pop_in_key_order() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut keys: Vec<(f64, u32)> = Vec::new();
        for tag in 0..500u32 {
            let t = rng.gen_range(0.0..100.0);
            q.push_scheduled(t, tag);
            keys.push((t, tag));
        }
        keys.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Popping in one go must be globally sorted even though pushes were
        // not monotone (the engine never does this).
        let mut last = f64::NEG_INFINITY;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            count += 1;
        }
        assert_eq!(count, 500);
    }
}
