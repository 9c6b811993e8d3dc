//! Run reports: a serializable summary of one simulation run.
//!
//! A [`Report`] bundles everything needed to compare two runs offline:
//! network size, simulated time, the run digest (the same FNV-1a digest
//! the golden tests pin), per-event delivery aggregates, network
//! counters, the [`ProtoMetrics`](crate::metrics::ProtoMetrics) registry,
//! and — when a flight recorder was installed — the trace summary.
//!
//! [`Json`] is the workspace's one JSON value, read and written: every
//! document — this run report, the shoot-out's `SHOOTOUT.json`, the
//! scenario verdicts — is built as a `Json` and printed by its one
//! layout (`Display`), and every document read back ([`Report::from_json`],
//! `shootout --expect`) is parsed into one. The digest is written as a hex
//! *string* (`"0x…"`) because u64 exceeds the f64-safe integer range of
//! JSON numbers.

use crate::metrics::EventStats;
use crate::sim::{Net, PubSubNode};
use hypersub_simnet::NetStats;
use std::fmt::{self, Write as _};

/// Aggregate delivery outcome over all published events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventSummary {
    /// Events published.
    pub published: u64,
    /// Ground-truth expected deliveries, summed over events.
    pub expected: u64,
    /// Distinct deliveries actually made, summed over events.
    pub delivered: u64,
    /// Duplicate deliveries observed (should be 0).
    pub duplicates: u64,
    /// Max hops over all deliveries.
    pub max_hops: u64,
    /// Max delivery latency over all events, in microseconds.
    pub max_latency_us: u64,
}

impl EventSummary {
    /// Aggregates per-event statistics into one summary.
    pub fn from_stats(stats: &[EventStats]) -> Self {
        Self {
            published: stats.len() as u64,
            expected: stats.iter().map(|s| s.expected as u64).sum(),
            delivered: stats.iter().map(|s| s.delivered as u64).sum(),
            duplicates: stats.iter().map(|s| s.duplicates as u64).sum(),
            max_hops: stats.iter().map(|s| s.max_hops as u64).max().unwrap_or(0),
            max_latency_us: stats
                .iter()
                .map(|s| s.max_latency.as_micros())
                .max()
                .unwrap_or(0),
        }
    }
}

/// Network-level totals (from `hypersub_simnet::NetStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetSummary {
    /// Messages sent.
    pub total_msgs: u64,
    /// Bytes sent.
    pub total_bytes: u64,
    /// Messages dropped at dead destinations.
    pub dropped: u64,
    /// Messages lost to probabilistic fault injection.
    pub fault_dropped: u64,
    /// Messages dropped by partitions.
    pub partition_dropped: u64,
    /// Duplicate copies injected by fault duplication.
    pub duplicated: u64,
}

impl NetSummary {
    /// Snapshots the global counters of a [`NetStats`].
    pub fn from_net(n: &NetStats) -> Self {
        Self {
            total_msgs: n.total_msgs(),
            total_bytes: n.total_bytes(),
            dropped: n.dropped(),
            fault_dropped: n.fault_dropped(),
            partition_dropped: n.partition_dropped(),
            duplicated: n.duplicated(),
        }
    }
}

/// One exported counter: a total plus the hottest node's share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSummary {
    /// Sum over all nodes.
    pub total: u64,
    /// Largest single-node count.
    pub max_node: u64,
}

/// One exported histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Log2 bucket counts (trailing zeros trimmed).
    pub buckets: Vec<u64>,
}

/// Flight-recorder summary, present when recording was enabled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Ring-buffer capacity.
    pub capacity: u64,
    /// Events recorded over the run (including evicted ones).
    pub recorded: u64,
    /// Events evicted by the ring bound.
    pub evicted: u64,
    /// Retained-event counts per kind, sorted by kind.
    pub kinds: Vec<(String, u64)>,
}

/// A serializable summary of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Number of nodes.
    pub nodes: u64,
    /// Final simulated time, in microseconds.
    pub time_us: u64,
    /// Simulator events processed.
    pub steps: u64,
    /// The run digest (delivery trace + network counters).
    pub digest: u64,
    /// Delivery aggregates.
    pub events: EventSummary,
    /// Network totals.
    pub net: NetSummary,
    /// Named protocol counters, in registry order.
    pub counters: Vec<(String, CounterSummary)>,
    /// Named protocol histograms, in registry order.
    pub histograms: Vec<(String, HistSummary)>,
    /// Trace summary when a flight recorder was installed.
    pub trace: Option<TraceSummary>,
}

impl<N: PubSubNode> Net<N> {
    /// Snapshots this run into a [`Report`]: the shared `ProtoMetrics`
    /// registry plus the node type's own counters
    /// ([`PubSubNode::report_counters`]), so `report diff` can compare
    /// any two systems' runs.
    pub fn report(&self) -> Report {
        let stats = self.event_stats();
        let proto = &self.metrics().proto;
        let mut counters: Vec<(String, CounterSummary)> = proto
            .counters()
            .iter()
            .map(|&(name, c)| {
                (
                    name.to_string(),
                    CounterSummary {
                        total: c.total(),
                        max_node: c.max(),
                    },
                )
            })
            .collect();
        let shared = counters.len();
        for n in self.nodes() {
            for (slot, (name, v)) in n.report_counters().into_iter().enumerate() {
                if shared + slot == counters.len() {
                    counters.push((name.to_string(), CounterSummary::default()));
                }
                let summary = &mut counters[shared + slot].1;
                summary.total += v;
                summary.max_node = summary.max_node.max(v);
            }
        }
        let histograms = proto
            .histograms()
            .iter()
            .map(|&(name, h)| {
                (
                    name.to_string(),
                    HistSummary {
                        count: h.count(),
                        sum: h.sum(),
                        max: h.max(),
                        buckets: h.buckets().to_vec(),
                    },
                )
            })
            .collect();
        let trace = self.recorder().map(|r| TraceSummary {
            capacity: r.capacity() as u64,
            recorded: r.recorded(),
            evicted: r.evicted(),
            kinds: r
                .kind_counts()
                .into_iter()
                .map(|(k, c)| (k.to_string(), c))
                .collect(),
        });
        Report {
            nodes: self.len() as u64,
            time_us: self.time().as_micros(),
            steps: self.steps(),
            digest: self.run_digest(),
            events: EventSummary::from_stats(&stats),
            net: NetSummary::from_net(self.net()),
            counters,
            histograms,
            trace,
        }
    }
}

/// One field list per all-`u64` summary, for both directions: `json`
/// writes each field under its own name, in order, and `read` reads it
/// back from there.
macro_rules! u64_fields {
    ($($t:ident { $($f:ident),* })*) => {$(
        impl $t {
            fn json(&self) -> Json {
                Json::object([$((stringify!($f), self.$f.into())),*])
            }

            fn read(v: &Json) -> Result<Self, String> {
                Ok(Self { $($f: num(v, stringify!($f))?),* })
            }
        }
    )*};
}

u64_fields! {
    EventSummary { published, expected, delivered, duplicates, max_hops, max_latency_us }
    NetSummary { total_msgs, total_bytes, dropped, fault_dropped, partition_dropped, duplicated }
    CounterSummary { total, max_node }
}

impl Report {
    /// Total of the named counter, or 0 when the report predates it —
    /// keeps old baselines comparable as the counter registry grows.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.total)
            .unwrap_or(0)
    }

    /// Serializes to a JSON document (the [`Json`] layout).
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .map(|(name, c)| (name.as_str(), c.json()));
        let histograms = self.histograms.iter().map(|(name, h)| {
            let buckets = h.buckets.iter().map(|&b| b.into()).collect();
            let fields = [
                ("count", h.count.into()),
                ("sum", h.sum.into()),
                ("max", h.max.into()),
                ("buckets", Json::Arr(buckets)),
            ];
            (name.as_str(), Json::object(fields))
        });
        let trace = self.trace.as_ref().map_or(Json::Null, |t| {
            let kinds = t.kinds.iter().map(|(k, c)| (k.as_str(), (*c).into()));
            Json::object([
                ("capacity", t.capacity.into()),
                ("recorded", t.recorded.into()),
                ("evicted", t.evicted.into()),
                ("kinds", Json::object(kinds)),
            ])
        });
        Json::object([
            ("version", Json::Num(1)),
            ("nodes", self.nodes.into()),
            ("time_us", self.time_us.into()),
            ("steps", self.steps.into()),
            ("digest", Json::hex(self.digest)),
            ("events", self.events.json()),
            ("net", self.net.json()),
            ("counters", Json::object(counters)),
            ("histograms", Json::object(histograms)),
            ("trace", trace),
        ])
        .to_string()
    }

    /// Parses a document produced by [`Report::to_json`] (any JSON with
    /// the same shape works — field order and whitespace are free).
    ///
    /// # Errors
    /// A human-readable description of the first syntax or shape problem.
    pub fn from_json(s: &str) -> Result<Report, String> {
        let top = &Json::parse(s)?;
        let counters = top
            .get("counters")?
            .obj("counters")?
            .iter()
            .map(|(name, c)| Ok((name.clone(), CounterSummary::read(c)?)))
            .collect::<Result<Vec<_>, String>>()?;
        let histograms = top
            .get("histograms")?
            .obj("histograms")?
            .iter()
            .map(|(name, h)| {
                Ok((
                    name.clone(),
                    HistSummary {
                        count: num(h, "count")?,
                        sum: num(h, "sum")?,
                        max: num(h, "max")?,
                        buckets: h
                            .get("buckets")?
                            .arr("buckets")?
                            .iter()
                            .map(|b| b.num("bucket"))
                            .collect::<Result<Vec<_>, String>>()?,
                    },
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let trace = match top.get("trace")? {
            Json::Null => None,
            t => Some(TraceSummary {
                capacity: num(t, "capacity")?,
                recorded: num(t, "recorded")?,
                evicted: num(t, "evicted")?,
                kinds: t
                    .get("kinds")?
                    .obj("kinds")?
                    .iter()
                    .map(|(k, c)| Ok((k.clone(), c.num(k)?)))
                    .collect::<Result<Vec<_>, String>>()?,
            }),
        };
        let digest_s = top.get("digest")?.str("digest")?;
        let digest = u64::from_str_radix(digest_s.trim_start_matches("0x"), 16)
            .map_err(|e| format!("bad digest {digest_s:?}: {e}"))?;
        Ok(Report {
            nodes: num(top, "nodes")?,
            time_us: num(top, "time_us")?,
            steps: num(top, "steps")?,
            digest,
            events: EventSummary::read(top.get("events")?)?,
            net: NetSummary::read(top.get("net")?)?,
            counters,
            histograms,
            trace,
        })
    }
}

/// Minimal JSON value: every document the workspace writes is built as
/// one and printed by `Display`; every document it reads is parsed into
/// one ([`Json::parse`]). Objects keep insertion order (a `Vec` of pairs)
/// so round-trips preserve registry ordering.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, kept exact (counters exceed 2^53).
    Num(u64),
    /// Any other number (sign, fraction or exponent).
    Dec(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

fn num(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)?.num(key)
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as u64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

/// The one layout: a container holding an object at any depth puts each
/// member on its own line, indented two spaces a level; any other
/// container sits on one line. Members are separated by `,` (plus a space
/// on one line), keys from values by `: `. A `Dec` is written so that it
/// parses back to the same `Dec` (always with a fraction or exponent);
/// JSON has no NaN or infinity, so those are written as `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl Json {
    /// The object with `fields`, in order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A digest as the string `"0x…"`: JSON numbers are not exact past
    /// 2^53.
    pub fn hex(digest: u64) -> Json {
        Json::Str(format!("{digest:#018x}"))
    }

    /// Whether an object sits anywhere inside this value.
    fn holds_object(&self) -> bool {
        let inner = |v: &Json| matches!(v, Json::Obj(_)) || v.holds_object();
        match self {
            Json::Arr(a) => a.iter().any(inner),
            Json::Obj(o) => o.iter().any(|(_, v)| inner(v)),
            _ => false,
        }
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Num(n) => return write!(f, "{n}"),
            // `{:?}` is the shortest text that reads back to `x`, and it
            // keeps a `.0` on whole numbers, so the text is not a `Num`.
            Json::Dec(x) if x.is_finite() => return write!(f, "{x:?}"),
            Json::Dec(_) => return f.write_str("null"),
            Json::Str(s) => return write_str(f, s),
            Json::Arr(a) => ('[', ']', a.iter().map(|v| (None, v)).collect()),
            Json::Obj(o) => (
                '{',
                '}',
                o.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let lines = self.holds_object();
        f.write_char(open)?;
        for (i, (key, v)) in members.into_iter().enumerate() {
            if i > 0 {
                f.write_char(',')?;
            }
            if lines {
                write!(f, "\n{:1$}", "", 2 * depth + 2)?;
            } else if i > 0 {
                f.write_char(' ')?;
            }
            if let Some(k) = key {
                write_str(f, k)?;
                f.write_str(": ")?;
            }
            v.write(f, depth + 1)?;
        }
        if lines {
            write!(f, "\n{:1$}", "", 2 * depth)?;
        }
        f.write_char(close)
    }
    /// The member `key` of this object.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        self.obj(key)?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// This value as an object; `what` names it in the error.
    pub fn obj(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(o) => Ok(o),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }

    /// This value as an array.
    pub fn arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            other => Err(format!("{what}: expected array, got {other:?}")),
        }
    }

    /// This value as a non-negative integer.
    pub fn num(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(format!("{what}: expected number, got {other:?}")),
        }
    }

    /// This value as a string.
    pub fn str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected string, got {other:?}")),
        }
    }

    /// Recursive-descent parser over the JSON this workspace writes:
    /// objects, arrays, strings (with the escapes the printer emits),
    /// numbers, `true`, `false` and `null`.
    ///
    /// # Errors
    /// A description of the first syntax problem, with its byte offset.
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut pos = 0;
        let v = Self::value(b, &mut pos)?;
        Self::ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {pos}", c as char))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        Self::ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut o = Vec::new();
                Self::ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(o));
                }
                loop {
                    Self::ws(b, pos);
                    let k = Self::string(b, pos)?;
                    Self::ws(b, pos);
                    Self::expect(b, pos, b':')?;
                    o.push((k, Self::value(b, pos)?));
                    Self::ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(o));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut a = Vec::new();
                Self::ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(a));
                }
                loop {
                    a.push(Self::value(b, pos)?);
                    Self::ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(a));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(Self::string(b, pos)?)),
            Some(b'n' | b't' | b'f') => {
                let literals = [
                    ("null", Json::Null),
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                ];
                for (word, v) in literals {
                    if b[*pos..].starts_with(word.as_bytes()) {
                        *pos += word.len();
                        return Ok(v);
                    }
                }
                Err(format!("bad literal at byte {pos}"))
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                let text = std::str::from_utf8(&b[start..*pos]).expect("ASCII number");
                match text.parse() {
                    Ok(n) => Ok(Json::Num(n)),
                    Err(_) => text
                        .parse()
                        .map(Json::Dec)
                        .map_err(|e| format!("bad number at byte {start}: {e}")),
                }
            }
            _ => Err(format!("unexpected input at byte {pos}")),
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        Self::expect(b, pos, b'"')?;
        let mut out = String::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| format!("truncated \\u at byte {pos}"))?;
                            // The four bytes may end inside a multi-byte
                            // character: not hex, and not a `str` either.
                            let cp = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| format!("bad codepoint at byte {pos}"))?,
                            );
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                c => {
                    // Multi-byte UTF-8 passes through untouched.
                    let ch_len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    out.push_str(
                        std::str::from_utf8(&b[*pos..*pos + ch_len])
                            .map_err(|e| format!("bad utf8 at byte {pos}: {e}"))?,
                    );
                    *pos += ch_len;
                }
            }
        }
        Err("unterminated string".to_string())
    }
}

/// Writes `s` as a quoted JSON string: the escapes [`Json::parse`] reads.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::rng::TestRng;

    fn sample() -> Report {
        Report {
            nodes: 16,
            time_us: 123_456,
            steps: 789,
            digest: 0xdead_beef_cafe_f00d,
            events: EventSummary {
                published: 10,
                expected: 20,
                delivered: 20,
                duplicates: 0,
                max_hops: 5,
                max_latency_us: 91_000,
            },
            net: NetSummary {
                total_msgs: 400,
                total_bytes: 123_000,
                dropped: 1,
                fault_dropped: 2,
                partition_dropped: 3,
                duplicated: 4,
            },
            counters: vec![
                (
                    "retry.attempts".into(),
                    CounterSummary {
                        total: 7,
                        max_node: 3,
                    },
                ),
                (
                    "lb.migrated_subs".into(),
                    CounterSummary {
                        total: 0,
                        max_node: 0,
                    },
                ),
            ],
            histograms: vec![(
                "delivery.fanout".into(),
                HistSummary {
                    count: 12,
                    sum: 30,
                    max: 6,
                    buckets: vec![0, 4, 6, 2],
                },
            )],
            trace: Some(TraceSummary {
                capacity: 4096,
                recorded: 5000,
                evicted: 904,
                kinds: vec![("net.deliver".into(), 2000), ("net.send".into(), 2096)],
            }),
        }
    }

    #[test]
    fn json_round_trip_is_identity() {
        let r = sample();
        let parsed = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn json_round_trip_without_trace() {
        let r = Report {
            trace: None,
            ..sample()
        };
        let parsed = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        assert!(r.to_json().contains("\"trace\": null"));
    }

    #[test]
    fn digest_survives_as_hex_string() {
        // 0xdead_beef_cafe_f00d > 2^53: a float round-trip would corrupt
        // it, the hex-string encoding must not.
        let r = sample();
        assert!(r.to_json().contains("\"digest\": \"0xdeadbeefcafef00d\""));
        assert_eq!(
            Report::from_json(&r.to_json()).unwrap().digest,
            0xdead_beef_cafe_f00d
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Report::from_json("").is_err());
        assert!(Report::from_json("{").is_err());
        assert!(Report::from_json("{}").is_err(), "missing fields");
        assert!(Report::from_json("{} garbage").is_err());
        let truncated = &sample().to_json()[..100];
        assert!(Report::from_json(truncated).is_err());
    }

    #[test]
    fn escaped_names_round_trip() {
        let mut r = sample();
        r.counters.push((
            "weird\"name\\with\nescapes".into(),
            CounterSummary {
                total: 1,
                max_node: 1,
            },
        ));
        assert_eq!(Report::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn a_u_escape_ending_inside_a_character_is_an_error() {
        let err = Json::parse("\"\\u00€\"").unwrap_err();
        assert!(err.contains("byte 2"), "{err}");
    }

    fn assert_round_trips(v: &Json) {
        let text = v.to_string();
        assert_eq!(Json::parse(&text).as_ref(), Ok(v), "printed as {text}");
    }

    #[test]
    fn printed_values_parse_back_equal() {
        let decs = [3.0, -2.5, -0.0, 1e-9, 1e300, -1e-300, 0.1, 123456.789];
        let strs = [
            "",
            "quote\" back\\slash",
            "line\nfeed\ttab\u{1}\u{1f}",
            "é€𝄞",
        ];
        let scalars: Vec<Json> = [Json::Null, Json::Bool(true), Json::Num(0)]
            .into_iter()
            .chain([Json::Num(u64::MAX)])
            .chain(decs.map(Json::Dec))
            .chain(strs.map(Json::from))
            .collect();
        let nested = Json::object([
            ("empty_obj", Json::object([])),
            ("empty_arr", Json::Arr(vec![])),
            ("flat", Json::Arr(scalars.clone())),
            (
                "arrs",
                Json::Arr(vec![Json::Arr(vec![]), Json::Arr(scalars.clone())]),
            ),
            (
                "objs",
                Json::Arr(vec![Json::object([]), Json::object([("k\"", Json::Null)])]),
            ),
            (
                "deep",
                Json::object([("a", Json::object([("b", Json::Arr(scalars.clone()))]))]),
            ),
        ]);
        for v in scalars.iter().chain([&nested]) {
            assert_round_trips(v);
        }
        assert_eq!(Json::Dec(3.0).to_string(), "3.0", "a whole Dec stays a Dec");
        assert_eq!(Json::Dec(f64::NAN).to_string(), "null");
    }

    #[test]
    fn one_layout_lines_only_around_objects() {
        let v = Json::object([
            ("a", Json::Arr(vec![1u64.into(), 2u64.into()])),
            ("b", Json::object([("c", Json::Null)])),
            ("d", Json::Arr(vec![Json::object([])])),
        ]);
        let want = "{\n  \"a\": [1, 2],\n  \"b\": {\"c\": null},\n  \"d\": [\n    {}\n  ]\n}";
        assert_eq!(v.to_string(), want);
    }

    /// A random value `depth` levels deep at most, from `rng`.
    fn arb_json(rng: &mut TestRng, depth: u32) -> Json {
        const CHARS: [char; 10] = ['a', 'Z', '0', '"', '\\', '\n', '\u{7}', ' ', 'é', '𝄞'];
        let len = rng.below(4) as usize;
        match rng.below(if depth == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::Num(rng.next_u64() >> rng.below(64)),
            3 => {
                let x = f64::from_bits(rng.next_u64());
                Json::Dec(if x.is_finite() { x } else { rng.unit_f64() })
            }
            4 => Json::Str(
                (0..len * 3)
                    .map(|_| CHARS[rng.below(10) as usize])
                    .collect(),
            ),
            5 => Json::Arr((0..len).map(|_| arb_json(rng, depth - 1)).collect()),
            _ => Json::Obj(
                (0..len)
                    .map(|i| (format!("k{i}\"\n"), arb_json(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #[test]
        fn prop_print_then_parse_is_identity(seed in any::<u64>()) {
            let v = arb_json(&mut TestRng::new(seed), 4);
            assert_round_trips(&v);
        }
    }
}
