//! The simulator's future-event list.
//!
//! A radix heap keyed on `(time, sequence)`: two events scheduled for the
//! same instant pop in scheduling order, which makes every run bit-for-bit
//! reproducible regardless of the structure's internals. Simulated time
//! never goes backwards (nothing is scheduled before the last event
//! popped), which is what a radix heap needs: an entry is filed in the
//! bucket of the highest bit in which its time differs from the last pop,
//! and a pop that needs the next instant sorts only what it moves there.
//!
//! Event bodies live in a slab beside the heap; the heap itself holds
//! only fixed-size `(time, seq, slot)` handles, so a refill moves 24-byte
//! handles instead of entire `SimEvent<M>` values. Pop order is a pure
//! function of `(time, seq)`, so the slab layout — and its LIFO free list
//! — cannot affect determinism.

use crate::time::SimTime;
use hypersub_snapshot::codec;

/// What can happen in the network.
#[derive(Debug, Clone)]
pub enum SimEvent<M> {
    /// A message arrives at `dst`.
    Deliver {
        /// Sending node index.
        src: usize,
        /// Receiving node index.
        dst: usize,
        /// Protocol payload.
        msg: M,
    },
    /// A timer fires at `node` with an opaque `token`.
    Timer {
        /// Node whose timer fires.
        node: usize,
        /// Token the node uses to tell its timers apart.
        token: u64,
    },
    /// The sender learns a message could not be delivered (fail-stop
    /// "connection refused", surfaced one propagation delay later).
    SendFailed {
        /// Original sender, who receives the notification.
        origin: usize,
        /// The dead destination.
        dst: usize,
        /// The undeliverable message.
        msg: M,
    },
}

codec!(enum SimEvent<M> as "sim event tag" {
    0 => Deliver { src, dst, msg },
    1 => Timer { node, token },
    2 => SendFailed { origin, dst, msg },
});

/// Buckets of a [`RadixQueue`]: bucket 0 holds the entries at exactly the
/// last popped time, bucket `b ≥ 1` those whose time first differs from
/// it in bit `b − 1`.
const BUCKETS: usize = 65;

/// One queued item with its ordering key.
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

/// A monotone priority queue of small `Copy` items keyed on
/// `(time, sequence)`: pops come out in time order, and items of one
/// instant in the order they were pushed. A time before the last pop is
/// refused. The simulator's [`EventQueue`] keeps slab slots in one, the
/// live driver's timer wheel keeps timer tokens.
///
/// Each bucket is unsorted except bucket 0, which holds the current
/// instant in `seq` order from `head` on. A pop that finds it empty
/// refills it from the lowest non-empty bucket: that bucket's minimum
/// becomes the current instant, and its entries move to lower buckets, so
/// an entry moves at most 64 times over its life. Only what a refill moves
/// into bucket 0 is sorted; a same-instant push has the largest `seq` yet
/// and appends.
#[derive(Debug)]
pub struct RadixQueue<T> {
    buckets: [Vec<Entry<T>>; BUCKETS],
    /// Smallest time in each bucket (`u64::MAX` when empty), so a peek
    /// reads the next time without refilling.
    mins: [u64; BUCKETS],
    /// Bit `b` is set when bucket `b` holds an entry.
    occupied: u128,
    /// Bucket 0's entries before this index were popped.
    head: usize,
    /// The last popped time; 0 on a fresh or drained queue.
    last: u64,
    len: usize,
    seq: u64,
}

impl<T> Default for RadixQueue<T> {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [u64::MAX; BUCKETS],
            occupied: 0,
            head: 0,
            last: 0,
            len: 0,
            seq: 0,
        }
    }
}

impl<T: Copy> RadixQueue<T> {
    /// Queues `item` at `at`, after every item already queued for `at`.
    ///
    /// # Panics
    /// If `at` is before the last pop.
    pub fn push(&mut self, at: SimTime, item: T) {
        let at = at.as_micros();
        assert!(at >= self.last, "scheduled before the last pop");
        let seq = self.seq;
        self.seq += 1;
        self.file(Entry { at, seq, item });
        self.len += 1;
    }

    /// Pops the earliest item by `(time, seq)`. The pop that empties the
    /// queue gives back every bucket's capacity and forgets the last
    /// time, so a later burst may start anywhere.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.len == 0 {
            return None;
        }
        if self.occupied & 1 == 0 {
            self.refill();
        }
        let e = self.buckets[0][self.head];
        self.head += 1;
        if self.head == self.buckets[0].len() {
            self.buckets[0].clear();
            self.head = 0;
            self.occupied &= !1;
            self.mins[0] = u64::MAX;
        }
        self.len -= 1;
        if self.len == 0 {
            self.release();
        }
        Some((SimTime::from_micros(e.at), e.item))
    }

    /// Gives back every bucket's capacity and forgets the last time. Out
    /// of line: building a whole empty queue in `pop` would give every pop
    /// a frame of the queue's size.
    #[cold]
    fn release(&mut self) {
        debug_assert!(self.occupied == 0 && self.mins.iter().all(|&m| m == u64::MAX));
        for bucket in &mut self.buckets {
            *bucket = Vec::new();
        }
        self.last = 0;
    }

    /// Time of the next pop, without advancing the current instant: an
    /// item may still be pushed at any time from the last pop on.
    pub fn peek_time(&self) -> Option<SimTime> {
        let b = self.lowest_occupied()?;
        Some(SimTime::from_micros(self.mins[b]))
    }

    /// Number of queued items.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sequence number the next push takes.
    pub(crate) fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Every queued item as `(at, seq, item)`, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SimTime, u64, T)> + '_ {
        let current = &self.buckets[0][self.head..];
        current
            .iter()
            .chain(self.buckets[1..].iter().flatten())
            .map(|e| (SimTime::from_micros(e.at), e.seq, e.item))
    }

    /// Rebuilds a queue holding `entries` under their own sequence
    /// numbers, in any order; the next push takes `next_seq`.
    pub(crate) fn from_entries(
        entries: impl IntoIterator<Item = (SimTime, u64, T)>,
        next_seq: u64,
    ) -> Self {
        let mut q = Self {
            seq: next_seq,
            ..Self::default()
        };
        for (at, seq, item) in entries {
            q.file(Entry {
                at: at.as_micros(),
                seq,
                item,
            });
            q.len += 1;
        }
        q.buckets[0].sort_unstable_by_key(|e| e.seq);
        q
    }

    /// Entries the buckets hold room for.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum()
    }

    /// The lowest non-empty bucket: every entry in it is earlier than any
    /// in a higher one.
    fn lowest_occupied(&self) -> Option<usize> {
        (self.occupied != 0).then(|| self.occupied.trailing_zeros() as usize)
    }

    /// Files `e` in the bucket of the highest bit in which its time
    /// differs from the last pop.
    fn file(&mut self, e: Entry<T>) {
        let b = match e.at ^ self.last {
            0 => 0,
            diff => 64 - diff.leading_zeros() as usize,
        };
        self.buckets[b].push(e);
        self.mins[b] = self.mins[b].min(e.at);
        self.occupied |= 1 << b;
    }

    /// Makes the lowest non-empty bucket's minimum the current instant and
    /// redistributes that bucket, whose entries all land lower. Bucket 0
    /// is empty beforehand, so what it holds afterwards is only what moved,
    /// and that alone is sorted.
    fn refill(&mut self) {
        let b = self
            .lowest_occupied()
            .expect("a non-empty queue has a bucket");
        debug_assert!(b > 0 && self.head == 0);
        self.last = self.mins[b];
        let mut moving = std::mem::take(&mut self.buckets[b]);
        self.mins[b] = u64::MAX;
        self.occupied &= !(1 << b);
        for e in moving.drain(..) {
            self.file(e);
        }
        // The emptied bucket keeps its capacity for the next time it fills.
        self.buckets[b] = moving;
        self.buckets[0].sort_unstable_by_key(|e| e.seq);
    }
}

/// Deterministic future-event list.
#[derive(Debug)]
pub struct EventQueue<M> {
    order: RadixQueue<u32>,
    slab: Vec<Option<SimEvent<M>>>,
    free: Vec<u32>,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self {
            order: RadixQueue::default(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `ev` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is before the last event popped.
    pub fn schedule(&mut self, at: SimTime, ev: SimEvent<M>) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(ev);
                s
            }
            None => {
                let s = u32::try_from(self.slab.len()).expect("event slab exceeds u32 slots");
                self.slab.push(Some(ev));
                s
            }
        };
        self.order.push(at, slot);
    }

    /// Pops the earliest event, if any. The pop that empties the queue
    /// gives back the slab, free list and bucket capacity: a burst (every
    /// subscription's first message, a batch of publishes) leaves none
    /// of its peak behind.
    pub fn pop(&mut self) -> Option<(SimTime, SimEvent<M>)> {
        let (at, slot) = self.order.pop()?;
        let ev = self.slab[slot as usize]
            .take()
            .expect("scheduled slot holds an event");
        if self.order.is_empty() {
            self.slab = Vec::new();
            self.free = Vec::new();
        } else {
            self.free.push(slot);
        }
        Some((at, ev))
    }

    /// Slots the slab, free list and buckets hold room for.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.order.capacity() + self.slab.capacity() + self.free.capacity()
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.order.peek_time()
    }

    /// All pending events as `(at, seq, event)` triples sorted by pop
    /// order, plus the next sequence number — everything a checkpoint
    /// needs to rebuild an equivalent queue. The slab layout, free list
    /// and buckets are deliberately not part of the snapshot: pop order
    /// is a pure function of `(at, seq)`.
    pub fn export_entries(&self) -> (Vec<(SimTime, u64, SimEvent<M>)>, u64)
    where
        M: Clone,
    {
        let mut out: Vec<(SimTime, u64, SimEvent<M>)> = self
            .order
            .iter()
            .map(|(at, seq, slot)| {
                let ev = self.slab[slot as usize]
                    .clone()
                    .expect("scheduled slot holds an event");
                (at, seq, ev)
            })
            .collect();
        out.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        (out, self.order.next_seq())
    }

    /// Rebuilds a queue from [`export_entries`] output, preserving the
    /// original sequence numbers (and therefore same-instant tie-breaks)
    /// exactly.
    ///
    /// [`export_entries`]: EventQueue::export_entries
    pub fn from_entries(entries: Vec<(SimTime, u64, SimEvent<M>)>, next_seq: u64) -> Self {
        let mut slab = Vec::with_capacity(entries.len());
        let mut handles = Vec::with_capacity(entries.len());
        for (at, seq, ev) in entries {
            assert!(seq < next_seq, "entry seq must precede next_seq");
            let slot = u32::try_from(slab.len()).expect("event slab exceeds u32 slots");
            slab.push(Some(ev));
            handles.push((at, seq, slot));
        }
        EventQueue {
            order: RadixQueue::from_entries(handles, next_seq),
            slab,
            free: Vec::new(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn timer(node: usize, token: u64) -> SimEvent<()> {
        SimEvent::Timer { node, token }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), timer(0, 3));
        q.schedule(SimTime::from_micros(10), timer(0, 1));
        q.schedule(SimTime::from_micros(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, ev)| match ev {
                SimEvent::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for token in 0..100 {
            q.schedule(t, timer(0, token));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, ev)| match ev {
                SimEvent::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn export_restore_preserves_pop_order_and_ties() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), timer(0, 3));
        q.schedule(SimTime::from_micros(10), timer(0, 1));
        q.schedule(SimTime::from_micros(10), timer(0, 2)); // same-instant tie
        q.pop(); // free a slab slot so restore sees a non-trivial layout
        q.schedule(SimTime::from_micros(10), timer(0, 9));

        let (entries, next_seq) = q.export_entries();
        let mut restored = EventQueue::from_entries(entries, next_seq);
        let drain = |q: &mut EventQueue<()>| {
            std::iter::from_fn(|| q.pop())
                .map(|(at, ev)| match ev {
                    SimEvent::Timer { token, .. } => (at, token),
                    _ => unreachable!(),
                })
                .collect::<Vec<_>>()
        };
        // New events scheduled after restore continue the seq stream.
        q.schedule(SimTime::from_micros(10), timer(0, 42));
        restored.schedule(SimTime::from_micros(10), timer(0, 42));
        assert_eq!(drain(&mut q), drain(&mut restored));
    }

    /// A drained burst leaves no capacity behind, and the next burst pops
    /// in the order it would on a fresh queue (the slab layout it reuses
    /// or rebuilds cannot show in pop order).
    #[test]
    fn a_drained_burst_gives_back_its_capacity() {
        let burst = |q: &mut EventQueue<()>| {
            // Out of time order, with same-instant ties.
            for token in 0..1000u64 {
                q.schedule(SimTime::from_micros(token * 7919 % 100), timer(0, token));
            }
        };
        let drain = |q: &mut EventQueue<()>| {
            std::iter::from_fn(|| q.pop())
                .map(|(at, ev)| match ev {
                    SimEvent::Timer { token, .. } => (at, token),
                    _ => unreachable!(),
                })
                .collect::<Vec<_>>()
        };
        let mut q = EventQueue::new();
        burst(&mut q);
        assert!(q.capacity() >= 2000);
        let fresh = drain(&mut q);
        assert_eq!(fresh.len(), 1000);
        assert!(fresh.windows(2).all(|w| w[0] < w[1]), "(at, seq) order");
        assert_eq!(q.capacity(), 0, "a drained queue holds no capacity");

        burst(&mut q);
        assert_eq!(drain(&mut q), fresh);
        assert_eq!(q.capacity(), 0);
    }

    /// A peek leaves the current instant where the last pop put it, so a
    /// caller that peeks past its horizon may still schedule before the
    /// peeked time (`Sim::run_until` does).
    #[test]
    fn a_peek_does_not_advance_the_current_instant() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), timer(0, 1));
        q.schedule(SimTime::from_micros(1_000), timer(0, 2));
        assert_eq!(q.pop().map(|(at, _)| at), Some(SimTime::from_micros(5)));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(1_000)));
        q.schedule(SimTime::from_micros(6), timer(0, 3));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(6)));
        assert_eq!(q.pop().map(|(at, _)| at), Some(SimTime::from_micros(6)));
    }

    #[test]
    #[should_panic(expected = "scheduled before the last pop")]
    fn a_time_before_the_last_pop_is_refused() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), timer(0, 1));
        q.schedule(SimTime::from_micros(20), timer(0, 2));
        q.pop();
        q.schedule(SimTime::from_micros(9), timer(0, 3));
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Schedule this far after the last pop (after 0 once drained).
        Schedule(u64),
        Pop,
        Peek,
    }

    /// Four schedules to three pops and one peek; a schedule lands at the
    /// current instant, a few microseconds on, a link latency on, or
    /// anywhere up to 2⁶².
    fn op() -> impl Strategy<Value = Op> {
        (0u8..8, 0u8..4, any::<u64>()).prop_map(|(kind, scale, x)| match kind {
            0..=3 => Op::Schedule(match scale {
                0 => 0,
                1 => x % 8,
                2 => x % 400_000,
                _ => x >> 2,
            }),
            4..=6 => Op::Pop,
            _ => Op::Peek,
        })
    }

    proptest! {
        /// The radix queue pops exactly what a binary heap over
        /// `(at, seq)` pops, through same-instant ties, peeks, drains and
        /// an export/restore at any point.
        #[test]
        fn prop_pops_as_a_binary_heap_does(
            ops in prop::collection::vec(op(), 0..600),
            restore_at in 0usize..600,
        ) {
            let mut q = EventQueue::new();
            let mut reference = BinaryHeap::new();
            let mut last = 0u64;
            let mut token = 0u64;
            for (i, op) in ops.iter().enumerate() {
                if i == restore_at {
                    let (entries, next_seq) = q.export_entries();
                    q = EventQueue::from_entries(entries, next_seq);
                }
                match *op {
                    Op::Schedule(ahead) => {
                        let base = if reference.is_empty() { 0 } else { last };
                        let at = base.saturating_add(ahead);
                        q.schedule(SimTime::from_micros(at), timer(0, token));
                        reference.push(Reverse((at, token)));
                        token += 1;
                    }
                    Op::Pop => {
                        let got = q.pop().map(|(at, ev)| match ev {
                            SimEvent::Timer { token, .. } => (at.as_micros(), token),
                            _ => unreachable!(),
                        });
                        let want = reference.pop().map(|Reverse(e)| e);
                        prop_assert_eq!(got, want);
                        if let Some((at, _)) = want {
                            last = at;
                        }
                    }
                    Op::Peek => {
                        let want = reference.peek().map(|Reverse((at, _))| SimTime::from_micros(*at));
                        prop_assert_eq!(q.peek_time(), want);
                    }
                }
                prop_assert_eq!(q.len(), reference.len());
            }
            while let Some(Reverse(want)) = reference.pop() {
                let got = q.pop().map(|(at, ev)| match ev {
                    SimEvent::Timer { token, .. } => (at.as_micros(), token),
                    _ => unreachable!(),
                });
                prop_assert_eq!(got, Some(want));
            }
            prop_assert!(q.pop().is_none());
            prop_assert_eq!(q.capacity(), 0);
        }
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_micros(7), timer(1, 0));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
