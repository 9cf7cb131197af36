//! The event calendar: one `(time, seq)`-ordered queue over three
//! containers.
//!
//! Constant-delay timers (ping expiries and the periodic protocol /
//! monitoring re-arms) ride FIFO timer lanes, short-horizon events
//! (message deliveries, whose latency is bounded far below the wheel span)
//! ride a hashed timing wheel, and the binary heap keeps construction-time
//! schedules, stalled events of frozen nodes and rare odd-delay arms. All
//! three merge on the same `(time, seq)` key and [`Calendar`] allocates
//! every sequence number, so which container holds an event is invisible
//! to the pop order — the property test below holds that against a plain
//! binary heap.
//!
//! A lane queues a 48-B [`LaneTimer`] — the timer's fields and its
//! `(at, seq)` key — and turns it back into an [`Event`] when it pops: an
//! `Event` is sized for a delivery's inline `Message`, which a timer does
//! not carry.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use avmon::{Behavior, DurMs, Message, TimeMs, Timer};
use avmon_churn::ChurnEventKind;

use crate::scenario::Corruption;

/// What an event does. A variant that acts on a node carries the node's
/// row in `Simulation::nodes` (its slot), never its identity.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// A trace lifecycle event.
    Churn {
        slot: u32,
        kind: ChurnEventKind,
    },
    Deliver {
        from: u32,
        to: u32,
        msg: Message,
    },
    Timer {
        slot: u32,
        incarnation: u64,
        timer: Timer,
    },
    /// Snapshot counters at the start of the measurement window so the
    /// first sample doesn't absorb the whole warm-up.
    Baseline,
    Sample,
    /// A [`Fault::Corrupt`](crate::Fault::Corrupt) injection: overwrite the
    /// node's PS/TS with seed-deterministic garbage.
    Corrupt {
        slot: u32,
        pattern: Corruption,
        seed: u64,
    },
    /// A scenario-scheduled behavior switch: eclipse campaigns flip the
    /// coalition's behavior at the window edges. `None` is honest.
    SetBehavior {
        slot: u32,
        behavior: Option<Arc<Behavior>>,
    },
}

impl EventKind {
    /// The row a delivery or timer is addressed to; `None` for events
    /// that touch shared state.
    pub(crate) fn addressee(&self) -> Option<usize> {
        match *self {
            EventKind::Deliver { to, .. } => Some(to as usize),
            EventKind::Timer { slot, .. } => Some(slot as usize),
            _ => None,
        }
    }
}

#[derive(Debug)]
pub(crate) struct Event {
    pub at: TimeMs,
    seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest (and, on ties,
        // first-scheduled) event pops first. Determinism depends on this.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A timer as a lane queues it: the [`EventKind::Timer`] fields and the
/// `(at, seq)` key (see the module docs).
#[derive(Debug)]
struct LaneTimer {
    at: TimeMs,
    seq: u64,
    slot: u32,
    incarnation: u64,
    timer: Timer,
}

impl LaneTimer {
    fn into_event(self) -> Event {
        Event {
            at: self.at,
            seq: self.seq,
            kind: EventKind::Timer {
                slot: self.slot,
                incarnation: self.incarnation,
                timer: self.timer,
            },
        }
    }
}

/// One constant-delay FIFO timer lane.
///
/// Every timer armed with exactly `delay` ahead of the arming instant
/// lands here; because simulated time never decreases while draining,
/// entries arrive in nondecreasing `(at, seq)` order and the lane pops
/// from the front in O(1) — no heap sift. A monotonicity check at push
/// time falls back to the wheel or heap, so the lane is an optimization
/// that can never reorder events.
#[derive(Debug)]
struct TimerLane {
    delay: DurMs,
    queue: VecDeque<LaneTimer>,
}

/// The hashed timing wheel: one FIFO bucket per millisecond over a
/// `WHEEL_SPAN`-ms window. Every accepted delay is strictly below the
/// span and pushes carry globally increasing sequence numbers — so a
/// bucket holds exactly one instant at a time and its FIFO order is
/// sequence order, making wheel pops bit-compatible with heap pops.
const WHEEL_SPAN: u64 = 1024;

/// The end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// One slab slot: an event while queued, with the link to the next slot
/// of its bucket; once popped, a free slot linked to the next free one.
#[derive(Debug)]
struct WheelSlot {
    event: Option<Event>,
    next: u32,
}

/// The slab is rebuilt only once it holds more than this many slots; a
/// smaller slab is kept whatever its occupancy.
const WHEEL_SHRINK_FLOOR: usize = 4 * WHEEL_SPAN as usize;

/// The wheel keeps every event in one slab, and each bucket is a FIFO
/// list threaded through it as `(head, tail)`. A pop returns its slot to
/// a LIFO free list and a push takes the most recently freed slot, so
/// the slab holds the peak number of deliveries in flight at once, not
/// the sum of each bucket's own peak. Once a pop leaves at most a quarter
/// of a slab above [`WHEEL_SHRINK_FLOOR`] live, the live events move to a
/// fresh slab of twice their number: the start-up JOIN storm is given
/// back instead of being held for the rest of the run.
#[derive(Debug)]
struct DeliveryWheel {
    slots: Vec<WheelSlot>,
    /// Head of the free list.
    free: u32,
    /// `(head, tail)` slot of each bucket's list; `NIL` when empty.
    buckets: Vec<(u32, u32)>,
    len: usize,
    /// Lower bound on the earliest occupied bucket time (pulled back on
    /// push, advanced monotonically by scans — amortizes peeks to O(1)).
    /// A push into an empty wheel sets it, so an idle gap is not scanned.
    cursor: TimeMs,
}

impl DeliveryWheel {
    fn new() -> Self {
        DeliveryWheel {
            slots: Vec::new(),
            free: NIL,
            buckets: vec![(NIL, NIL); WHEEL_SPAN as usize],
            len: 0,
            cursor: 0,
        }
    }

    fn event(&self, slot: u32) -> Option<&Event> {
        self.slots.get(slot as usize)?.event.as_ref()
    }

    fn push(&mut self, event: Event) {
        self.cursor = match self.len {
            0 => event.at,
            _ => self.cursor.min(event.at),
        };
        self.len += 1;
        let b = (event.at % WHEEL_SPAN) as usize;
        let tail = self.buckets[b].1;
        debug_assert!(
            self.event(tail).is_none_or(|back| back.at == event.at),
            "wheel bucket would hold two instants"
        );
        let slot = WheelSlot {
            event: Some(event),
            next: NIL,
        };
        let i = match self.slots.get_mut(self.free as usize) {
            Some(reused) => {
                let i = self.free;
                self.free = reused.next;
                *reused = slot;
                i
            }
            None => {
                // Fits below `NIL`: 2^32 − 1 deliveries in flight would
                // take over 340 GB of slots.
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        match self.slots.get_mut(tail as usize) {
            Some(back) => back.next = i,
            None => self.buckets[b].0 = i,
        }
        self.buckets[b].1 = i;
    }

    /// The bucket holding the earliest event, advancing the cursor past
    /// empty buckets along the way.
    fn front_bucket(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        loop {
            let b = (self.cursor % WHEEL_SPAN) as usize;
            if self
                .event(self.buckets[b].0)
                .is_some_and(|e| e.at == self.cursor)
            {
                return Some(b);
            }
            self.cursor += 1;
        }
    }

    /// The earliest event.
    fn front(&mut self) -> Option<&Event> {
        let b = self.front_bucket()?;
        self.event(self.buckets[b].0)
    }

    fn pop(&mut self) -> Option<Event> {
        let b = self.front_bucket()?;
        let head = self.buckets[b].0;
        let slot = self.slots.get_mut(head as usize)?;
        let event = slot.event.take();
        self.buckets[b].0 = slot.next;
        if slot.next == NIL {
            self.buckets[b].1 = NIL;
        }
        slot.next = self.free;
        self.free = head;
        self.len -= 1;
        if self.slots.len() > WHEEL_SHRINK_FLOOR && self.len * 4 <= self.slots.len() {
            self.rebuild();
        }
        event
    }

    /// Moves the live events into a slab of capacity `2 × len`, bucket by
    /// bucket from head to tail, and drops the free list. Bucket FIFO
    /// order is kept, so pop order is unchanged. The slab grows only when
    /// every slot is live, so a slab of `S > 4 × WHEEL_SPAN` slots with at
    /// most `S / 4` live has seen at least `3S / 4` pops since it reached
    /// `S`; they pay for this `O(WHEEL_SPAN + S / 4)` walk, O(1) amortized
    /// per pop.
    fn rebuild(&mut self) {
        let mut slots = Vec::with_capacity(2 * self.len);
        for bucket in &mut self.buckets {
            let mut i = bucket.0;
            if i == NIL {
                continue;
            }
            bucket.0 = slots.len() as u32;
            while let Some(slot) = self.slots.get_mut(i as usize) {
                i = slot.next;
                let next = slots.len() as u32 + 1;
                slots.push(WheelSlot {
                    event: slot.event.take(),
                    next,
                });
            }
            if let Some(last) = slots.last_mut() {
                last.next = NIL;
            }
            bucket.1 = slots.len() as u32 - 1;
        }
        self.slots = slots;
        self.free = NIL;
    }
}

/// Event-calendar traffic counters: how many events were popped from the
/// binary heap vs the O(1) structures (timer lanes, delivery wheel), and
/// how many `Expire` timers were discarded dead (ping already answered)
/// without touching the node. Not part of
/// [`SimReport`](crate::SimReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CalendarStats {
    /// Events popped from the binary-heap calendar.
    pub heap_pops: u64,
    /// Timers popped from the FIFO lanes.
    pub lane_pops: u64,
    /// Events popped from the timing wheel.
    pub wheel_pops: u64,
    /// `Expire` timers discarded dead in O(1).
    pub expire_skips: u64,
}

/// Where the `(time, seq)`-least event currently sits.
#[derive(Debug, Clone, Copy)]
enum Source {
    Heap,
    Lane(usize),
    Wheel,
}

#[derive(Debug)]
pub(crate) struct Calendar {
    heap: BinaryHeap<Event>,
    /// One lane per distinct constant timer delay.
    lanes: Vec<TimerLane>,
    wheel: DeliveryWheel,
    seq: u64,
    stats: CalendarStats,
}

impl Calendar {
    /// A calendar whose lanes carry the given constant timer delays
    /// (duplicates share a lane), with heap room for `capacity` deferred
    /// events.
    pub(crate) fn new(mut lane_delays: Vec<DurMs>, capacity: usize) -> Self {
        lane_delays.sort_unstable();
        lane_delays.dedup();
        let lane = |delay| TimerLane {
            delay,
            queue: VecDeque::new(),
        };
        Calendar {
            heap: BinaryHeap::with_capacity(capacity),
            lanes: lane_delays.into_iter().map(lane).collect(),
            wheel: DeliveryWheel::new(),
            seq: 0,
            stats: CalendarStats::default(),
        }
    }

    /// The one place sequence numbers come from: scheduling order *is*
    /// tie-break order.
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn event(&mut self, at: TimeMs, kind: EventKind) -> Event {
        let seq = self.next_seq();
        Event { at, seq, kind }
    }

    /// Schedules what a node handler produced at `now`: a timer exactly one
    /// lane delay ahead joins that lane, anything else inside the wheel
    /// span joins the wheel, the rest (or a lane push that would break the
    /// lane's monotonicity) takes the heap.
    pub(crate) fn schedule(&mut self, now: TimeMs, at: TimeMs, kind: EventKind) {
        let fits = |lane: &TimerLane| {
            now + lane.delay == at && lane.queue.back().is_none_or(|back| back.at <= at)
        };
        if let EventKind::Timer {
            slot,
            incarnation,
            timer,
        } = kind
        {
            if let Some(i) = self.lanes.iter().position(fits) {
                let seq = self.next_seq();
                self.lanes[i].queue.push_back(LaneTimer {
                    at,
                    seq,
                    slot,
                    incarnation,
                    timer,
                });
                return;
            }
        }
        let event = self.event(at, kind);
        if at >= now && at - now < WHEEL_SPAN {
            self.wheel.push(event);
        } else {
            self.heap.push(event);
        }
    }

    /// Parks `kind` on the heap: the construction-time schedule and
    /// events stalled until a frozen node thaws (a thaw time fits no
    /// lane).
    pub(crate) fn defer(&mut self, at: TimeMs, kind: EventKind) {
        let event = self.event(at, kind);
        self.heap.push(event);
    }

    /// Lanes and wheel buckets are FIFO in `(time, seq)`, so inspecting
    /// each front suffices; sequence numbers are unique, making the merge
    /// a total order.
    fn locate(&mut self) -> Option<(TimeMs, Source)> {
        let heap = self.heap.peek().map(|e| (e.at, e.seq, Source::Heap));
        let lanes = self.lanes.iter().enumerate().filter_map(|(i, lane)| {
            let front = lane.queue.front()?;
            Some((front.at, front.seq, Source::Lane(i)))
        });
        let wheel = self.wheel.front().map(|e| (e.at, e.seq, Source::Wheel));
        let least = heap.into_iter().chain(lanes).chain(wheel);
        let (at, _, source) = least.min_by_key(|&(at, seq, _)| (at, seq))?;
        Some((at, source))
    }

    /// Pops the `(time, seq)`-least event unless it lies beyond `deadline`.
    pub(crate) fn pop_due(&mut self, deadline: TimeMs) -> Option<Event> {
        let (at, source) = self.locate()?;
        if at > deadline {
            return None;
        }
        match source {
            Source::Heap => {
                self.stats.heap_pops += 1;
                self.heap.pop()
            }
            Source::Lane(i) => {
                self.stats.lane_pops += 1;
                self.lanes[i].queue.pop_front().map(LaneTimer::into_event)
            }
            Source::Wheel => {
                self.stats.wheel_pops += 1;
                self.wheel.pop()
            }
        }
    }

    /// Counts one timer discarded dead.
    pub(crate) fn note_expire_skip(&mut self) {
        self.stats.expire_skips += 1;
    }

    pub(crate) fn stats(&self) -> CalendarStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmon::rng::Stream;
    use std::cmp::Reverse;

    const LANES: [DurMs; 3] = [500, 5_000, 60_000];

    /// An event tagged with the sequence number it is about to get.
    fn tagged(cal: &Calendar, timer: bool) -> EventKind {
        if timer {
            EventKind::Timer {
                slot: 1,
                incarnation: cal.seq,
                timer: Timer::Protocol,
            }
        } else {
            EventKind::Corrupt {
                slot: 1,
                pattern: Corruption::Full,
                seed: cal.seq,
            }
        }
    }

    /// Pops the calendar and the reference heap together; returns the
    /// popped instant and whether the event was a timer.
    fn pop_both(
        cal: &mut Calendar,
        reference: &mut BinaryHeap<Reverse<(TimeMs, u64)>>,
    ) -> (TimeMs, bool) {
        let Reverse((at, seq)) = reference.pop().expect("reference non-empty");
        assert!(at == 0 || cal.pop_due(at - 1).is_none(), "popped early");
        let event = cal.pop_due(at).expect("due");
        let (tag, timer) = match event.kind {
            EventKind::Timer { incarnation, .. } => (incarnation, true),
            EventKind::Corrupt { seed, .. } => (seed, false),
            ref other => unreachable!("{other:?}"),
        };
        assert_eq!((event.at, tag), (at, seq));
        (event.at, timer)
    }

    /// Random interleavings of schedule / pop / thaw-style requeue /
    /// delivery storm / run-until pop in exactly a plain binary heap's
    /// `(at, seq)` order, every pop is counted once, and every container
    /// (and the lane fallback, and the wheel's slab rebuild) is hit.
    #[test]
    fn pops_match_a_reference_heap_over_random_interleavings() {
        let mut delays = vec![0, 1, WHEEL_SPAN - 1, WHEEL_SPAN, avmon::HOUR];
        delays.extend(LANES);
        let (mut totals, mut fallbacks, mut rebuilds) = (CalendarStats::default(), 0, 0);
        for seed in 0..32u64 {
            let mut rng = Stream::seeded(seed);
            let mut cal = Calendar::new(LANES.to_vec(), 0);
            let mut reference = BinaryHeap::new();
            let (mut now, mut pops) = (0, 0u64);
            for _ in 0..2_000 {
                let delay = delays[rng.gen_range(0..delays.len())];
                let slab = cal.wheel.slots.len();
                match rng.gen_range(0..12) {
                    // Same-instant reschedules come from `delay == 0`.
                    0..=4 => {
                        reference.push(Reverse((now + delay, cal.seq)));
                        let kind = tagged(&cal, rng.gen_bool(0.5));
                        cal.schedule(now, now + delay, kind);
                    }
                    // Armed from an earlier instant than the lane's tail
                    // may hold: the monotonicity fallback.
                    5 if now >= 7 => {
                        let lane = rng.gen_range(0..LANES.len());
                        let (at, before) = (now - 7 + LANES[lane], cal.lanes[lane].queue.len());
                        let breaks = cal.lanes[lane].queue.back().is_some_and(|b| b.at > at);
                        reference.push(Reverse((at, cal.seq)));
                        let kind = tagged(&cal, true);
                        cal.schedule(now - 7, at, kind);
                        assert_eq!(cal.lanes[lane].queue.len(), before + usize::from(!breaks));
                        fallbacks += u32::from(breaks);
                    }
                    // Thaw-style requeue: the popped event stalls on the
                    // heap with a fresh sequence number.
                    6 if !reference.is_empty() => {
                        let (at, timer) = pop_both(&mut cal, &mut reference);
                        (now, pops) = (at, pops + 1);
                        reference.push(Reverse((now + delay, cal.seq)));
                        let kind = tagged(&cal, timer);
                        cal.defer(now + delay, kind);
                    }
                    // A JOIN-storm-like burst: five spans' worth of
                    // deliveries scheduled at one instant.
                    10 if rng.gen_bool(1.0 / 60.0) => {
                        for _ in 0..5 * WHEEL_SPAN {
                            let at = now + rng.gen_range(0..WHEEL_SPAN);
                            reference.push(Reverse((at, cal.seq)));
                            let kind = tagged(&cal, false);
                            cal.schedule(now, at, kind);
                        }
                    }
                    // `run_until`: everything due within `delay` pops.
                    11 => {
                        let until = now + delay;
                        while reference
                            .peek()
                            .is_some_and(|&Reverse((at, _))| at <= until)
                        {
                            (now, pops) = (pop_both(&mut cal, &mut reference).0, pops + 1);
                        }
                    }
                    _ if !reference.is_empty() => {
                        (now, pops) = (pop_both(&mut cal, &mut reference).0, pops + 1);
                    }
                    _ => {}
                }
                // Only a rebuild shortens the slab; later ops push into
                // the rebuilt one.
                rebuilds += u32::from(cal.wheel.slots.len() < slab);
            }
            while !reference.is_empty() {
                pop_both(&mut cal, &mut reference);
                pops += 1;
            }
            assert!(cal.pop_due(TimeMs::MAX).is_none());
            let stats = cal.stats();
            assert_eq!(stats.heap_pops + stats.lane_pops + stats.wheel_pops, pops);
            totals.heap_pops += stats.heap_pops;
            totals.lane_pops += stats.lane_pops;
            totals.wheel_pops += stats.wheel_pops;
        }
        assert!(totals.heap_pops > 0 && totals.lane_pops > 0 && totals.wheel_pops > 0);
        assert!(fallbacks > 0, "no push ever broke a lane's monotonicity");
        assert!(rebuilds > 0, "no storm was ever given back mid-run");
    }

    /// The wheel's memory follows the deliveries in flight: a
    /// 100 000-delivery storm sizes the slab, draining it gives the storm
    /// back down to the shrink floor, and ten spans of steady traffic
    /// afterwards stay within the floor or twice their own in-flight peak.
    #[test]
    fn wheel_memory_follows_what_is_in_flight() {
        const STORM: u64 = 100_000;
        let mut rng = Stream::seeded(5);
        let mut cal = Calendar::new(LANES.to_vec(), 0);
        let mut reference = BinaryHeap::new();
        for _ in 0..STORM {
            let at = rng.gen_range(0..WHEEL_SPAN);
            reference.push(Reverse((at, cal.seq)));
            let kind = tagged(&cal, false);
            cal.schedule(0, at, kind);
        }
        assert_eq!(cal.wheel.slots.len(), STORM as usize);
        let mut now = 0;
        while !reference.is_empty() {
            now = pop_both(&mut cal, &mut reference).0;
        }
        assert!(
            cal.wheel.slots.len() <= WHEEL_SHRINK_FLOOR,
            "the drained storm kept {} slots",
            cal.wheel.slots.len()
        );
        let (start, mut pops, mut in_flight_peak) = (now, STORM, 0);
        while now < start + 10 * WHEEL_SPAN {
            if reference.len() < 64 && (reference.is_empty() || rng.gen_bool(0.5)) {
                let at = now + rng.gen_range(0..WHEEL_SPAN);
                reference.push(Reverse((at, cal.seq)));
                let kind = tagged(&cal, false);
                cal.schedule(now, at, kind);
            } else {
                (now, pops) = (pop_both(&mut cal, &mut reference).0, pops + 1);
            }
            in_flight_peak = in_flight_peak.max(reference.len());
            let bound = WHEEL_SHRINK_FLOOR.max(2 * in_flight_peak);
            assert!(cal.wheel.slots.len() <= bound, "steady phase grew the slab");
        }
        assert_eq!(cal.stats().wheel_pops, pops);
        // Exactly the undelivered events hold a slot.
        let live = cal.wheel.slots.iter().filter(|s| s.event.is_some()).count();
        assert_eq!(live, reference.len());
    }

    /// A lane entry is the timer and its key, not a whole `Event`.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn lane_entries_are_48_bytes() {
        assert_eq!(std::mem::size_of::<LaneTimer>(), 48);
    }

    /// Events carry rows, not identities: an `Event` is 64 B and a wheel
    /// slot (an event and its link) 72 B.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn events_are_64_bytes_and_wheel_slots_72() {
        assert_eq!(std::mem::size_of::<Event>(), 64);
        assert_eq!(std::mem::size_of::<WheelSlot>(), 72);
    }

    /// Both sides of the wheel boundary, and the lane match is exact.
    #[test]
    fn container_choice_follows_the_delay() {
        let mut cal = Calendar::new(LANES.to_vec(), 0);
        let sizes = |cal: &Calendar| (cal.lanes[1].queue.len(), cal.wheel.len, cal.heap.len());
        cal.schedule(10, 10 + WHEEL_SPAN - 1, EventKind::Sample);
        assert_eq!(sizes(&cal), (0, 1, 0));
        cal.schedule(10, 10 + WHEEL_SPAN, EventKind::Sample);
        assert_eq!(sizes(&cal), (0, 1, 1));
        // Only timers ride lanes, and only at exactly the lane's delay.
        cal.schedule(10, 10 + LANES[1], EventKind::Sample);
        assert_eq!(sizes(&cal), (0, 1, 2));
        let timer = tagged(&cal, true);
        cal.schedule(10, 10 + LANES[1], timer);
        assert_eq!(sizes(&cal), (1, 1, 2));
        let timer = tagged(&cal, true);
        cal.schedule(10, 11 + LANES[1], timer);
        assert_eq!(sizes(&cal), (1, 1, 3));
        cal.defer(10, EventKind::Sample);
        assert_eq!((sizes(&cal), cal.seq), ((1, 1, 4), 6));
    }
}
