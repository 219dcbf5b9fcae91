//! Indexed two-lane event queue for the discrete-event hot path.
//!
//! The engine's original event queue was one global `BinaryHeap` holding
//! *every* pending event — including all not-yet-arrived requests. At a
//! million requests that is a million-entry heap: every push and pop pays
//! `O(log n)` three-key comparisons, and the arrival backlog dominates the
//! heap even though it is already sorted. This module replaces it with a
//! structure indexed on the same `(time, arrival-class, seq)` key:
//!
//! * **Arrival lane** (class 0): arrivals are injected in non-decreasing
//!   time order (the engine sorts its trace up front), so they live in a
//!   plain FIFO — `O(1)` push and pop, no comparisons against the backlog.
//! * **Calendar lane** (class 1): scheduled completions (stage, step and
//!   retrieval events) go into a bucketed calendar queue ([`Calendar`]).
//!   Only *in-flight* work lives here — at most one micro-batch per
//!   resource, one decode step, and the outstanding retrieval batches — so
//!   its live occupancy is tiny and pops are `O(1)` amortized.
//!
//! [`EventQueue::pop`] merges the lanes with exactly the historical
//! ordering: earlier time first (`f64::total_cmp`), arrivals before
//! same-instant scheduled events (class 0 < class 1), and FIFO/sequence
//! order within a lane. Because each lane is itself emitted in sorted order,
//! the merge reproduces the global heap order bit for bit.
//!
//! A third **fault lane** carries externally injected control events
//! (straggler slowdown changes and the like). Faults order *before*
//! same-instant arrivals — effectively class −1 — so a degradation that
//! lands at the same instant as a request arrival is in force before that
//! request is processed. The tie-break is pinned by unit test below and is
//! part of the chaos-scenario golden contract.

use std::cmp::Ordering;
use std::collections::VecDeque;

/// Initial number of calendar buckets (always a power of two).
const INITIAL_BUCKETS: usize = 16;

/// Rebuild the calendar when occupancy exceeds `buckets × GROW_LOAD`.
const GROW_LOAD: usize = 2;

/// Minimum occupancy before a width re-estimation rebuild may trigger —
/// below this the scans are trivially short and the span estimate noisy.
const REESTIMATE_MIN_LEN: usize = 8;

/// One scheduled entry in the calendar lane.
#[derive(Debug, Clone, Copy)]
struct Scheduled<E> {
    t: f64,
    seq: u64,
    ev: E,
}

/// A classic bucketed calendar queue over `(time, seq)` keys.
///
/// Entries hash into `buckets` ring slots of `width` seconds each; a pop
/// scans forward from the current bucket, considering only entries that
/// belong to the current "year" (the ring's sweep through time), and falls
/// back to a full scan after one empty revolution — the standard sparse-set
/// escape. The bucket width is re-estimated from the live key span whenever
/// the queue is rebuilt, keeping the expected entries-per-bucket constant.
///
/// Keys must be popped in non-decreasing time order, which the engine
/// guarantees: completions are always scheduled at or after the instant
/// being processed. Ties on `t` break by `seq` (insertion order), matching
/// the heap the calendar replaces.
#[derive(Debug, Clone)]
struct Calendar<E> {
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Bucket time width, strictly positive and finite.
    width: f64,
    /// Bucket the next search starts from.
    cur: usize,
    /// Upper time bound of `cur`'s current year.
    cur_top: f64,
    len: usize,
    /// Cached location of the minimum entry: `(t, seq, bucket, position)`.
    /// Kept fresh by pushes (a smaller key simply replaces the cache, and
    /// appends never move existing entries); invalidated by pops and
    /// rebuilds.
    cached_min: Option<(f64, u64, usize, usize)>,
    /// Lifetime count of [`Calendar::rebuild`] calls (growth or width
    /// re-estimation). Observability only — never read by the simulation.
    rebuilds: u64,
    /// Lifetime count of full-scan fallbacks in [`Calendar::ensure_min`]
    /// (one empty revolution found nothing in-year). Observability only.
    fallback_scans: u64,
}

impl<E: Copy> Calendar<E> {
    fn new() -> Self {
        Self {
            buckets: vec![Vec::new(); INITIAL_BUCKETS],
            width: 1.0,
            cur: 0,
            cur_top: 1.0,
            len: 0,
            cached_min: None,
            rebuilds: 0,
            fallback_scans: 0,
        }
    }

    fn bucket_of(&self, t: f64) -> usize {
        // `t / width` can exceed u64 for pathological inputs; saturate
        // before the modulo so the index stays in range instead of
        // panicking or going through UB-free-but-wrong float casts.
        let idx = (t / self.width).min(u64::MAX as f64).max(0.0) as u64;
        (idx % self.buckets.len() as u64) as usize
    }

    fn push(&mut self, t: f64, seq: u64, ev: E) {
        if self.len >= self.buckets.len() * GROW_LOAD {
            self.rebuild(self.buckets.len() * 2);
        } else if self.len >= REESTIMATE_MIN_LEN {
            // Width sanity check against the live span (approximated as the
            // distance from the cached minimum to this push — pushes are
            // near the high end of the live window, since completions are
            // scheduled ahead of the instant being processed). A width far
            // off the span degenerates the calendar: too wide and every
            // entry lands in one bucket (pops scan the whole population),
            // too narrow and the population spans many "years" (pops sweep
            // mostly-empty buckets). Either way, redistribute at the same
            // size with a width re-estimated from the true span. The factor
            // of four is hysteresis — a rebuild sets `width = span / len`,
            // so the span must shift by 4x again before the next rebuild.
            if let Some((min_t, ..)) = self.cached_min {
                let span = t - min_t;
                let coverage = self.width * self.buckets.len() as f64;
                if span > 0.0 && (span * 4.0 < self.width || span > coverage * 4.0) {
                    self.rebuild(self.buckets.len());
                }
            }
        }
        let was_empty = self.len == 0;
        let b = self.bucket_of(t);
        self.buckets[b].push(Scheduled { t, seq, ev });
        self.len += 1;
        let pos = self.buckets[b].len() - 1;
        match self.cached_min {
            // A fresh smaller key replaces the cached minimum directly.
            Some((ct, cseq, ..)) if key_cmp(t, seq, ct, cseq) == Ordering::Less => {
                self.cached_min = Some((t, seq, b, pos));
            }
            Some(_) => {}
            // A stale (`None`) cache with live entries must stay stale: the
            // true minimum may be an older entry, so only a push into an
            // empty calendar may seed the cache.
            None if was_empty => self.cached_min = Some((t, seq, b, pos)),
            None => {}
        }
    }

    /// Redistributes every entry over `new_buckets` slots with a width
    /// re-estimated from the live key span.
    fn rebuild(&mut self, new_buckets: usize) {
        self.rebuilds += 1;
        let entries: Vec<Scheduled<E>> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for e in &entries {
            lo = lo.min(e.t);
            hi = hi.max(e.t);
        }
        let span = (hi - lo).max(0.0);
        let width = if entries.is_empty() || span <= 0.0 {
            1.0
        } else {
            // Aim for about one live entry per bucket over the span.
            (span / entries.len() as f64).max(f64::MIN_POSITIVE)
        };
        self.buckets = vec![Vec::new(); new_buckets];
        self.width = width;
        self.len = 0;
        self.cached_min = None;
        // Restart the year sweep at the smallest live key (or zero).
        let floor = if lo.is_finite() { lo } else { 0.0 };
        self.cur = {
            let idx = (floor / width).min(u64::MAX as f64).max(0.0) as u64;
            (idx % new_buckets as u64) as usize
        };
        self.cur_top = (floor / width).floor() * width + width;
        // Insert directly rather than through `push` — the re-estimation
        // trigger must not observe the half-rebuilt calendar.
        for e in entries {
            let b = self.bucket_of(e.t);
            self.buckets[b].push(e);
            self.len += 1;
            let pos = self.buckets[b].len() - 1;
            match self.cached_min {
                Some((ct, cseq, ..)) if key_cmp(e.t, e.seq, ct, cseq) == Ordering::Less => {
                    self.cached_min = Some((e.t, e.seq, b, pos));
                }
                None => self.cached_min = Some((e.t, e.seq, b, pos)),
                Some(_) => {}
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Time of the minimum entry, if any.
    fn peek_time(&mut self) -> Option<f64> {
        self.ensure_min();
        self.cached_min.map(|(t, ..)| t)
    }

    /// Removes and returns the minimum entry by `(t, seq)`.
    fn pop_min(&mut self) -> Option<(f64, E)> {
        self.ensure_min();
        let (t, seq, b, pos) = self.cached_min.take()?;
        let bucket = &mut self.buckets[b];
        debug_assert!(
            bucket.get(pos).is_some_and(|e| e.t == t && e.seq == seq),
            "cached minimum must exist at its recorded position"
        );
        let entry = bucket.swap_remove(pos);
        self.len -= 1;
        // Keep the year sweep at the popped key so the next search starts
        // where this one ended.
        self.cur = b;
        self.cur_top = (t / self.width).floor() * self.width + self.width;
        Some((entry.t, entry.ev))
    }

    /// Locates the minimum entry if the cache is stale.
    fn ensure_min(&mut self) {
        if self.cached_min.is_some() || self.len == 0 {
            return;
        }
        let n = self.buckets.len();
        let mut cur = self.cur;
        let mut top = self.cur_top;
        for _ in 0..n {
            let mut best: Option<(f64, u64, usize)> = None;
            for (pos, e) in self.buckets[cur].iter().enumerate() {
                // Only entries inside the current year belong to this
                // sweep position; later-year entries hash to the same
                // bucket but are not minimal yet.
                if e.t < top
                    && best.map_or(true, |(bt, bs, _)| {
                        key_cmp(e.t, e.seq, bt, bs) == Ordering::Less
                    })
                {
                    best = Some((e.t, e.seq, pos));
                }
            }
            if let Some((t, seq, pos)) = best {
                self.cached_min = Some((t, seq, cur, pos));
                self.cur = cur;
                self.cur_top = top;
                return;
            }
            cur = (cur + 1) % n;
            top += self.width;
        }
        // One full revolution found nothing in-year: the live entries are
        // sparse and far ahead. Fall back to a direct scan for the global
        // minimum and jump the sweep there.
        self.fallback_scans += 1;
        let mut best: Option<(f64, u64, usize, usize)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (pos, e) in bucket.iter().enumerate() {
                if best.map_or(true, |(bt, bs, ..)| {
                    key_cmp(e.t, e.seq, bt, bs) == Ordering::Less
                }) {
                    best = Some((e.t, e.seq, b, pos));
                }
            }
        }
        let (t, _, b, _) = best.expect("non-empty calendar has a minimum");
        self.cached_min = best;
        self.cur = b;
        self.cur_top = (t / self.width).floor() * self.width + self.width;
    }
}

/// Compares two `(t, seq)` keys with the engine's event ordering.
fn key_cmp(t_a: f64, seq_a: u64, t_b: f64, seq_b: u64) -> Ordering {
    t_a.total_cmp(&t_b).then(seq_a.cmp(&seq_b))
}

/// Observability snapshot of one event queue's internal work: per-lane
/// pop counts, calendar maintenance counts, and the final calendar
/// geometry. Pure counters — reading them never perturbs the simulation,
/// so traced and untraced runs stay bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventQueueStats {
    /// Events popped from the fault lane (class −1).
    pub fault_pops: u64,
    /// Events popped from the FIFO arrival lane (class 0).
    pub arrival_pops: u64,
    /// Events popped from the bucketed calendar lane (class 1).
    pub scheduled_pops: u64,
    /// Calendar bucket-array rebuilds (growth or width re-estimation).
    pub rebuilds: u64,
    /// Full-scan fallbacks after an empty calendar revolution.
    pub fallback_scans: u64,
    /// Current calendar bucket count.
    pub buckets: u64,
    /// Current calendar bucket width, in seconds.
    pub width_s: f64,
}

impl EventQueueStats {
    /// Accumulates another queue's stats (pop and maintenance counts add;
    /// geometry keeps the maximum).
    pub fn merge_from(&mut self, other: &EventQueueStats) {
        self.fault_pops += other.fault_pops;
        self.arrival_pops += other.arrival_pops;
        self.scheduled_pops += other.scheduled_pops;
        self.rebuilds += other.rebuilds;
        self.fallback_scans += other.fallback_scans;
        self.buckets = self.buckets.max(other.buckets);
        self.width_s = self.width_s.max(other.width_s);
    }
}

/// The engine's two-lane event queue: a FIFO arrival lane merged against a
/// [`Calendar`] of scheduled completions. See the module docs for the
/// ordering contract.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue<E> {
    /// `(t, payload)` fault-lane events in non-decreasing `t`, FIFO.
    /// Class −1: faults beat same-instant arrivals and scheduled events.
    faults: VecDeque<(f64, E)>,
    /// `(t, payload)` arrivals in non-decreasing `t`, FIFO.
    arrivals: VecDeque<(f64, E)>,
    calendar: Calendar<E>,
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
            calendar: Calendar::new(),
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
            rebuilds: self.calendar.rebuilds,
            fallback_scans: self.calendar.fallback_scans,
            buckets: self.calendar.buckets.len() as u64,
            width_s: self.calendar.width,
        }
    }

    /// Reserves space for `additional` more arrivals in the FIFO lane.
    pub(crate) fn reserve_arrivals(&mut self, additional: usize) {
        self.arrivals.reserve(additional);
    }

    /// Enqueues an arrival (class 0). Arrivals must be pushed in
    /// non-decreasing time order — the engine sorts its trace before
    /// injection, and the debug assertion holds it to that.
    pub(crate) fn push_arrival(&mut self, t: f64, ev: E) {
        debug_assert!(
            self.arrivals.back().map_or(true, |&(back, _)| back <= t),
            "arrivals must be enqueued in non-decreasing time order"
        );
        self.arrivals.push_back((t, ev));
    }

    /// Enqueues a scheduled completion (class 1).
    pub(crate) fn push_scheduled(&mut self, t: f64, ev: E) {
        let seq = self.seq;
        self.seq += 1;
        self.calendar.push(t, seq, ev);
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
    }

    /// Time of the next event without removing it.
    pub(crate) fn peek_time(&mut self) -> Option<f64> {
        let merged = self.peek_rest();
        match (self.faults.front().map(|&(t, _)| t), merged) {
            // Faults (class −1) win ties against every other lane.
            (Some(tf), Some(tm)) => Some(if tf.total_cmp(&tm) != Ordering::Greater {
                tf
            } else {
                tm
            }),
            (Some(tf), None) => Some(tf),
            (None, tm) => tm,
        }
    }

    /// Removes and returns the next event in `(time, class, seq)` order.
    pub(crate) fn pop(&mut self) -> Option<(f64, E)> {
        if let Some(&(tf, _)) = self.faults.front() {
            // Faults (class −1) win ties against every other lane.
            let rest = self.peek_rest();
            if rest.map_or(true, |tr| tf.total_cmp(&tr) != Ordering::Greater) {
                self.fault_pops += 1;
                return self.faults.pop_front();
            }
        }
        let take_arrival = match (self.arrivals.front(), self.calendar.is_empty()) {
            (Some(_), true) => true,
            (None, _) => false,
            (Some(&(ta, _)), false) => {
                let ts = self
                    .calendar
                    .peek_time()
                    .expect("non-empty calendar peeks a time");
                // Arrivals (class 0) win ties against scheduled events.
                ta.total_cmp(&ts) != Ordering::Greater
            }
        };
        let out = if take_arrival {
            self.arrivals.pop_front()
        } else {
            self.calendar.pop_min()
        };
        if out.is_some() {
            if take_arrival {
                self.arrival_pops += 1;
            } else {
                self.scheduled_pops += 1;
            }
        }
        out
    }

    /// Earliest time across the arrival and calendar lanes only.
    fn peek_rest(&mut self) -> Option<f64> {
        match (
            self.arrivals.front().map(|&(t, _)| t),
            self.calendar.peek_time(),
        ) {
            (Some(ta), Some(ts)) => Some(if ta.total_cmp(&ts) != Ordering::Greater {
                ta
            } else {
                ts
            }),
            (Some(ta), None) => Some(ta),
            (None, ts) => ts,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.arrivals.is_empty() && self.calendar.is_empty()
    }
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

    /// Single-bucket degenerate case: every key identical, so the calendar
    /// cannot spread them and must still pop in sequence order.
    #[test]
    fn identical_timestamps_fill_one_bucket_and_stay_ordered() {
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

    /// Growth path: enough live entries to force several rebuilds.
    #[test]
    fn rebuilds_preserve_every_entry_and_the_order() {
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
        // not monotone (the engine never does this, but the calendar's
        // full-scan fallback must still cope).
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
