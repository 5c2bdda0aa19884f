//! The discrete-event queue driving the fleet simulator.
//!
//! Events are totally ordered by `(time, sequence number)`: the sequence
//! number is assigned at push time, so simultaneous events fire in the
//! order they were scheduled. That rule — together with the seeded
//! workloads and the purely analytic cost models — is what makes two runs
//! of the same configuration byte-identical.
//!
//! The push-order tie-break has one consequence worth spelling out for
//! the fault layer: the entire fault schedule is pushed at setup, before
//! any completion can be scheduled, so **a crash landing on the exact
//! timestamp of a completion fires first and wins** — the completion
//! arrives stale (its epoch no longer matches) and the request is treated
//! as a crash victim. This is deterministic, documented, and pinned by a
//! regression test in `tests/chaos.rs`.
//!
//! # The sorted run
//!
//! A replay pushes every arrival of its trace at setup, so a plain binary
//! heap would sift through all of them — 2·10⁵ events on `service_day` —
//! on every pop of a completion. [`EventQueue`] keeps two stores instead:
//!
//! - a **sorted run**, a FIFO. Every push made before the first pop joins
//!   it, in any order, and the first pop sorts it by `(time, seq)`. After
//!   that it takes each push whose time is at or after the time of the
//!   event last appended to it (compared with [`f64::total_cmp`], the
//!   order [`Event`]'s `Ord` uses, so `-0.0` sorts before `+0.0`), or any
//!   push while it is empty;
//! - a **heap** of every other push.
//!
//! `pop` returns the smaller of the two heads. The order is unchanged:
//! once sorted, the run stays sorted, because sequence numbers rise with
//! every push, so an event appended to it is later in `(time, seq)` than
//! every event before it there; its front is its minimum. The smaller of
//! the run's minimum and the heap's minimum is the minimum of the union,
//! which is what one heap holding every event would pop. So every event
//! pushed at setup lands in the run — a faulted replay pushes its fault
//! schedule before its arrivals, and a trace need not be time-sorted —
//! and the heap holds only the work pushed while the replay runs
//! (completions, retries, timers): a pop sifts a heap the size of the
//! in-flight work. Sorting a run that is already in order (a time-sorted
//! trace with no faults) costs one pass.

use crate::slab::SlotKey;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EventKind {
    /// Request `request` (index into the workload) reaches the router.
    Arrival { request: usize },
    /// Request `request` re-reaches the router after a crash-retry
    /// backoff.
    Retry { request: usize },
    /// Replica `replica` finishes paging weights in and can serve.
    WarmupDone { replica: usize },
    /// Request `request` finishes service on `replica`. `epoch` is the
    /// replica's crash epoch at dispatch: a completion whose epoch lags
    /// the replica's current one was scheduled before a crash destroyed
    /// the attempt, and is ignored as stale. Used by the legacy engine;
    /// the fast path schedules [`EventKind::SlotDone`] instead.
    Completion {
        replica: usize,
        request: usize,
        epoch: u64,
    },
    /// The slab slot `slot` on `replica` finishes service (fast engine's
    /// completion event). Staleness needs no epoch: a crash or a lost
    /// hedge race removes the slot from the slab, bumping its generation,
    /// so the key embedded here simply stops resolving.
    SlotDone { replica: usize, slot: SlotKey },
    /// A decode step of the sequence at `slot` on `replica` needs its next
    /// KV block (paged-KV runs only; stale if the slot's generation moved
    /// on — the sequence completed, crashed, was cancelled, or was itself
    /// preempted).
    KvGrow { replica: usize, slot: SlotKey },
    /// Request `request`'s activations finish their inter-stage hop and
    /// reach pipeline stage replica `replica` (pipeline runs only; the
    /// admission bypasses `queue_cap` — upstream stage-0 admission
    /// already bounded the chain's in-flight work).
    StageArrive { request: usize, replica: usize },
    /// Injected fault `fault` (index into the chaos schedule) strikes.
    Fault { fault: usize },
    /// Replica `replica` finishes its post-crash cold restart (stale if
    /// `epoch` no longer matches — a second crash struck mid-recovery).
    RecoveryDone { replica: usize, epoch: u64 },
    /// A drain window closes on `replica`: admission resumes.
    DrainEnd { replica: usize, epoch: u64 },
    /// Hedge timer for `request`: if still unresolved, dispatch a
    /// duplicate attempt to a second replica.
    HedgeFire { request: usize },
    /// The autoscaler evaluates the fleet.
    ScaleTick,
}

/// One scheduled event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub time_s: f64,
    /// Push-order tie-breaker: among same-time events, earlier-scheduled
    /// events fire first.
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time_s.total_cmp(&other.time_s) == Ordering::Equal && self.seq == other.seq
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
        self.time_s
            .total_cmp(&other.time_s)
            .then(self.seq.cmp(&other.seq))
    }
}

/// A min-queue of events with stable same-time ordering: a sorted run
/// plus a heap (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    run: VecDeque<Event>,
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    /// Whether the first pop has sorted the run.
    sorted: bool,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue::default()
    }

    /// An empty queue with run room for `cap` events. The engines size
    /// this from the request count plus fleet size, so the setup pushes of
    /// a million-request replay never pay a regrow (each of which copies
    /// every pending event).
    pub(crate) fn with_capacity(cap: usize) -> Self {
        EventQueue {
            run: VecDeque::with_capacity(cap),
            ..EventQueue::default()
        }
    }

    /// Schedules `kind` at `time_s`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite timestamp — an infinite or NaN event time
    /// always indicates a broken cost model upstream.
    pub(crate) fn push(&mut self, time_s: f64, kind: EventKind) {
        assert!(time_s.is_finite(), "event time must be finite: {time_s}");
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = Event { time_s, seq, kind };
        let in_order = !self.sorted
            || self
                .run
                .back()
                .is_none_or(|last| time_s.total_cmp(&last.time_s) != Ordering::Less);
        if in_order {
            self.run.push_back(event);
        } else {
            self.heap.push(Reverse(event));
        }
    }

    /// Pops the earliest event (ties broken by push order).
    pub(crate) fn pop(&mut self) -> Option<Event> {
        if !self.sorted {
            self.run.make_contiguous().sort_unstable();
            self.sorted = true;
        }
        let run_first = match (self.run.front(), self.heap.peek()) {
            (Some(run), Some(Reverse(heap))) => run < heap,
            (run, _) => run.is_some(),
        };
        if run_first {
            self.run.pop_front()
        } else {
            self.heap.pop().map(|Reverse(e)| e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn orders_by_time_then_push_order() {
        let mut q = EventQueue::new();
        q.push(2.0, EventKind::ScaleTick);
        q.push(1.0, EventKind::Arrival { request: 0 });
        q.push(1.0, EventKind::Arrival { request: 1 });
        q.push(0.5, EventKind::WarmupDone { replica: 3 });

        assert_eq!(q.pop().unwrap().kind, EventKind::WarmupDone { replica: 3 });
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival { request: 0 });
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival { request: 1 });
        assert_eq!(q.pop().unwrap().kind, EventKind::ScaleTick);
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_panics() {
        EventQueue::new().push(f64::NAN, EventKind::ScaleTick);
    }

    #[test]
    fn only_late_pushes_after_the_first_pop_reach_the_heap() {
        let mut q = EventQueue::with_capacity(4);
        // Before the first pop, every push joins the run, in any order.
        for (request, t) in [2.0, 0.0, -0.0, 3.0].into_iter().enumerate() {
            q.push(t, EventKind::Arrival { request });
        }
        assert_eq!((q.run.len(), q.heap.len()), (4, 0));
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival { request: 2 });
        // After it, a push at or after the run's tail (3.0) joins the run
        // and an earlier one the heap.
        q.push(3.0, EventKind::ScaleTick);
        q.push(1.0, EventKind::WarmupDone { replica: 0 });
        assert_eq!((q.run.len(), q.heap.len()), (4, 1));
        let order: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            order,
            [
                EventKind::Arrival { request: 1 },
                EventKind::WarmupDone { replica: 0 },
                EventKind::Arrival { request: 0 },
                EventKind::Arrival { request: 3 },
                EventKind::ScaleTick,
            ]
        );
    }

    /// Absolute push times, mostly signed zeros so that `-0.0` often
    /// follows `+0.0` onto the run's tail, plus times before and after it.
    const TIMES: [f64; 8] = [-0.0, 0.0, -0.0, 0.0, 0.5, 1.0, 1.0, -1.0];
    /// Offsets from the previous push: zero (equal times) or later.
    const STEPS: [f64; 8] = [0.0, 0.0, 0.0, 0.125, 0.25, 0.5, 1.0, 2.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The run-plus-heap queue pops exactly what one plain binary heap
        /// of every event pops, under any interleaving of pushes and pops:
        /// unsorted pushes before the first pop, equal times, `-0.0`
        /// against `+0.0`, pushes earlier than the run's tail, and pushes
        /// after the run drains.
        #[test]
        fn pops_match_a_plain_heap(ops in prop::collection::vec((0u8..3, 0usize..8), 1..160)) {
            let mut q = EventQueue::new();
            let mut oracle: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut last_t = 0.0f64;
            let key = |e: Event| (e.time_s.to_bits(), e.seq, e.kind);
            for (step, &(op, t)) in ops.iter().enumerate() {
                if op == 0 {
                    let want = oracle.pop().map(|Reverse(e)| key(e));
                    prop_assert_eq!(q.pop().map(key), want);
                    continue;
                }
                // An absolute time, or a drift from the last push, which
                // mostly lands on the run.
                let time_s = if op == 1 { TIMES[t] } else { last_t + STEPS[t] };
                last_t = time_s;
                let kind = EventKind::Arrival { request: step };
                q.push(time_s, kind);
                oracle.push(Reverse(Event { time_s, seq, kind }));
                seq += 1;
            }
            while let Some(Reverse(want)) = oracle.pop() {
                prop_assert_eq!(q.pop().map(key), Some(key(want)));
            }
            prop_assert!(q.pop().is_none());
        }
    }
}
