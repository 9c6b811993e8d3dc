//! The flight recorder: a bounded ring buffer of structured trace events.
//!
//! Recording is **off by default** and must stay observably free when
//! disabled: the engine guards every hook behind one `Option` check and
//! builds the event lazily, so a run with no recorder installed executes
//! the exact same instruction stream it did before this module existed.
//! Recording is also **digest-neutral** when enabled — the recorder only
//! observes; it never touches the RNG, the event queue, or message
//! contents (the property tests in the workspace assert run digests are
//! identical with recording on and off).
//!
//! Two event families share the buffer:
//!
//! * **network events** emitted by the engine itself (send, deliver, the
//!   three drop flavors, duplication, fail-stop notification, node
//!   fail/revive), and
//! * **protocol events** emitted by `Node` implementations through
//!   [`crate::Ctx::trace`] as [`ProtoEvent`]s — a flat
//!   `(kind, flow, a, b)` record so the engine stays protocol-agnostic
//!   while protocols keep typed constructors on their side.
//!
//! Every record is stamped with simulation time and the acting node. When
//! the buffer is full the *oldest* record is evicted (flight-recorder
//! semantics: the most recent window survives), and the eviction count is
//! kept so consumers can tell a truncated trace from a complete one.

use crate::time::SimTime;
use hypersub_snapshot::{codec, Decode, Encode, Error, Reader, Writer};
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

/// Interns a decoded event tag so it can live behind the `&'static str`
/// that [`ProtoEvent::kind`] requires. Kinds form a small, closed set
/// (a few dozen dot-namespaced tags), so a linear scan of the registry
/// is cheaper than a hash lookup and each distinct tag leaks at most
/// once per process.
fn intern_kind(s: &str) -> &'static str {
    static KINDS: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut table = KINDS.get_or_init(Mutex::default).lock().unwrap();
    if let Some(k) = table.iter().find(|k| **k == s) {
        return k;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    table.push(leaked);
    leaked
}

/// A protocol-defined trace event: a flat record the engine can store
/// without knowing the protocol's message types. `kind` is a static,
/// dot-namespaced tag (e.g. `"retry.ack"`); `a` and `b` carry two
/// kind-specific operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtoEvent {
    /// Dot-namespaced event tag, e.g. `"sub.register"`.
    pub kind: &'static str,
    /// Application flow this event belongs to (e.g. an event id), if any.
    pub flow: Option<u64>,
    /// First kind-specific operand.
    pub a: u64,
    /// Second kind-specific operand.
    pub b: u64,
}

/// One structured trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The stamped node sent a message to `dst`.
    MsgSend {
        /// Destination node.
        dst: usize,
        /// Wire size in bytes.
        bytes: usize,
        /// Flow id, if the payload is attributed.
        flow: Option<u64>,
    },
    /// The stamped node received a message from `src`.
    MsgDeliver {
        /// Source node.
        src: usize,
        /// Wire size in bytes.
        bytes: usize,
        /// Flow id, if the payload is attributed.
        flow: Option<u64>,
    },
    /// A message from `src` arrived at the stamped node while it was
    /// failed and was dropped (fail-stop model).
    MsgDropDead {
        /// Source node.
        src: usize,
        /// Flow id, if the payload is attributed.
        flow: Option<u64>,
    },
    /// The fault plane lost the stamped node's message to `dst`.
    MsgDropLoss {
        /// Intended destination.
        dst: usize,
        /// Flow id, if the payload is attributed.
        flow: Option<u64>,
    },
    /// An active partition cut the stamped node's message to `dst`.
    MsgDropPartition {
        /// Intended destination.
        dst: usize,
        /// Flow id, if the payload is attributed.
        flow: Option<u64>,
    },
    /// The fault plane injected a duplicate of the stamped node's message
    /// to `dst`.
    MsgDuplicate {
        /// Destination node.
        dst: usize,
        /// Flow id, if the payload is attributed.
        flow: Option<u64>,
    },
    /// The stamped node was notified that its earlier send to the failed
    /// node `dst` could not be delivered.
    SendFailed {
        /// The dead destination.
        dst: usize,
        /// Flow id, if the payload is attributed.
        flow: Option<u64>,
    },
    /// The stamped node was failed.
    NodeFail,
    /// The stamped node was revived.
    NodeRevive,
    /// A protocol-emitted event (see [`ProtoEvent`]).
    Proto(ProtoEvent),
}
codec!(enum TraceEvent as "trace event tag" {
    0 => MsgSend { dst, bytes, flow },
    1 => MsgDeliver { src, bytes, flow },
    2 => MsgDropDead { src, flow },
    3 => MsgDropLoss { dst, flow },
    4 => MsgDropPartition { dst, flow },
    5 => MsgDuplicate { dst, flow },
    6 => SendFailed { dst, flow },
    7 => NodeFail,
    8 => NodeRevive,
    9 => Proto(event),
});

impl TraceEvent {
    /// Stable, dot-namespaced tag for summaries and reports. Protocol
    /// events report their own `kind`.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::MsgSend { .. } => "net.send",
            TraceEvent::MsgDeliver { .. } => "net.deliver",
            TraceEvent::MsgDropDead { .. } => "net.drop_dead",
            TraceEvent::MsgDropLoss { .. } => "net.drop_loss",
            TraceEvent::MsgDropPartition { .. } => "net.drop_partition",
            TraceEvent::MsgDuplicate { .. } => "net.duplicate",
            TraceEvent::SendFailed { .. } => "net.send_failed",
            TraceEvent::NodeFail => "net.node_fail",
            TraceEvent::NodeRevive => "net.node_revive",
            TraceEvent::Proto(p) => p.kind,
        }
    }

    /// The flow id carried by the event, if any.
    pub fn flow(&self) -> Option<u64> {
        match self {
            TraceEvent::MsgSend { flow, .. }
            | TraceEvent::MsgDeliver { flow, .. }
            | TraceEvent::MsgDropDead { flow, .. }
            | TraceEvent::MsgDropLoss { flow, .. }
            | TraceEvent::MsgDropPartition { flow, .. }
            | TraceEvent::MsgDuplicate { flow, .. }
            | TraceEvent::SendFailed { flow, .. } => *flow,
            TraceEvent::NodeFail | TraceEvent::NodeRevive => None,
            TraceEvent::Proto(p) => p.flow,
        }
    }
}

/// One recorded trace entry: what happened, where, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time of the event.
    pub time: SimTime,
    /// The node the event is attributed to (sender for sends and
    /// send-side drops, receiver for deliveries and dead-drops).
    pub node: usize,
    /// The event itself.
    pub event: TraceEvent,
}
codec!(struct TraceRecord { time, node, event });

/// Bounded ring buffer of [`TraceRecord`]s.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    recorded: u64,
    evicted: u64,
}

impl FlightRecorder {
    /// Creates a recorder keeping the most recent `capacity` records.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        Self {
            buf: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            recorded: 0,
            evicted: 0,
        }
    }

    /// Appends a record, evicting the oldest one when full.
    #[inline]
    pub fn record(&mut self, time: SimTime, node: usize, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(TraceRecord { time, node, event });
        self.recorded += 1;
    }

    /// Records currently held (at most `capacity`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything was cleared).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total records ever recorded, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Records evicted to make room (`recorded - len`, saturating).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Iterates the retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Drops all retained records (counters keep accumulating).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Counts retained records per [`TraceEvent::kind`], sorted by kind.
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for r in &self.buf {
            let kind = r.event.kind();
            match counts.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, c)) => *c += 1,
                None => counts.push((kind, 1)),
            }
        }
        counts.sort_unstable_by_key(|&(k, _)| k);
        counts
    }
}

// Hand-written codec: the decoder derives state (`kind` is interned).
impl Encode for ProtoEvent {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.kind.len() as u64);
        w.put_bytes(self.kind.as_bytes());
        self.flow.encode(w);
        w.put_u64(self.a);
        w.put_u64(self.b);
    }
}

impl Decode for ProtoEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let kind = String::decode(r)?;
        Ok(ProtoEvent {
            kind: intern_kind(&kind),
            flow: Option::<u64>::decode(r)?,
            a: r.take_u64()?,
            b: r.take_u64()?,
        })
    }
}

// Hand-written codec: the decoder validates (capacity, fill). The ring
// buffer is captured verbatim — retained window, capacity, and
// both lifetime counters — so a restored run's report (which embeds the
// trace summary) is byte-identical to the uninterrupted run's.
impl Encode for FlightRecorder {
    fn encode(&self, w: &mut Writer) {
        self.capacity.encode(w);
        w.put_u64(self.recorded);
        w.put_u64(self.evicted);
        w.put_u64(self.buf.len() as u64);
        for rec in &self.buf {
            rec.encode(w);
        }
    }
}

impl Decode for FlightRecorder {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let capacity = usize::decode(r)?;
        if capacity == 0 {
            return Err(Error::InvalidValue("flight recorder capacity"));
        }
        let recorded = r.take_u64()?;
        let evicted = r.take_u64()?;
        let n = usize::decode(r)?;
        if n > capacity {
            return Err(Error::InvalidValue("flight recorder overfull"));
        }
        let mut buf = VecDeque::with_capacity(capacity.min(1 << 20));
        for _ in 0..n {
            buf.push_back(TraceRecord::decode(r)?);
        }
        Ok(FlightRecorder {
            buf,
            capacity,
            recorded,
            evicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> TraceEvent {
        TraceEvent::Proto(ProtoEvent {
            kind: "test.ev",
            flow: Some(n),
            a: n,
            b: 0,
        })
    }

    #[test]
    fn records_are_kept_in_order() {
        let mut r = FlightRecorder::new(8);
        for i in 0..5 {
            r.record(SimTime::from_millis(i), i as usize, ev(i));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.evicted(), 0);
        let times: Vec<u64> = r.iter().map(|t| t.time.0).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(r.iter().next().unwrap().node, 0);
    }

    #[test]
    fn overflow_evicts_oldest_and_counts() {
        let mut r = FlightRecorder::new(3);
        for i in 0..10 {
            r.record(SimTime::from_millis(i), 0, ev(i));
        }
        assert_eq!(r.len(), 3, "bounded at capacity");
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.evicted(), 7);
        // The survivors are the most recent window.
        let flows: Vec<Option<u64>> = r.iter().map(|t| t.event.flow()).collect();
        assert_eq!(flows, vec![Some(7), Some(8), Some(9)]);
    }

    #[test]
    fn clear_keeps_counters() {
        let mut r = FlightRecorder::new(4);
        for i in 0..6 {
            r.record(SimTime::ZERO, 0, ev(i));
        }
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.recorded(), 6);
        assert_eq!(r.evicted(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = FlightRecorder::new(0);
    }

    #[test]
    fn kind_counts_aggregate_retained_records() {
        let mut r = FlightRecorder::new(16);
        r.record(SimTime::ZERO, 0, TraceEvent::NodeFail);
        r.record(SimTime::ZERO, 0, TraceEvent::NodeRevive);
        r.record(SimTime::ZERO, 1, TraceEvent::NodeFail);
        r.record(SimTime::ZERO, 2, ev(1));
        let counts = r.kind_counts();
        assert_eq!(
            counts,
            vec![("net.node_fail", 2), ("net.node_revive", 1), ("test.ev", 1)]
        );
    }

    #[test]
    fn recorder_snapshot_round_trip_preserves_window_and_counters() {
        let mut rec = FlightRecorder::new(3);
        rec.record(SimTime::from_millis(1), 0, TraceEvent::NodeFail);
        for i in 0..5 {
            rec.record(SimTime::from_millis(2 + i), i as usize, ev(i));
        }
        rec.record(
            SimTime::from_millis(9),
            2,
            TraceEvent::MsgSend {
                dst: 4,
                bytes: 77,
                flow: Some(12),
            },
        );
        let mut w = Writer::new();
        rec.encode(&mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let back = FlightRecorder::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.capacity(), rec.capacity());
        assert_eq!(back.recorded(), rec.recorded());
        assert_eq!(back.evicted(), rec.evicted());
        let a: Vec<&TraceRecord> = rec.iter().collect();
        let b: Vec<&TraceRecord> = back.iter().collect();
        assert_eq!(a, b);
        assert_eq!(back.kind_counts(), rec.kind_counts());
    }

    #[test]
    fn event_kind_and_flow_accessors() {
        let e = TraceEvent::MsgSend {
            dst: 3,
            bytes: 120,
            flow: Some(9),
        };
        assert_eq!(e.kind(), "net.send");
        assert_eq!(e.flow(), Some(9));
        assert_eq!(TraceEvent::NodeFail.flow(), None);
    }
}
