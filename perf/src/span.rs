//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of the boundary, around
//! its calls into the program; nothing inside the program is timed. A
//! disabled recorder does nothing, so the untraced run pays two branches
//! per batch.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The rep this span belongs to — the identifier spans of one rep share.
    pub rep: u32,
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` when the recorder is off.
#[must_use]
pub struct Open(Option<usize>);

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Spans recorded from here on belong to rep `rep`.
    pub fn start_rep(&mut self, rep: u32) {
        assert!(self.open.is_empty(), "a rep starts with no span open");
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as a JSON array, one span per line.
    pub fn write_json(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"rep\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.rep
            )?;
        }
        writeln!(w, "]")
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// part of it its direct children cover, summed over spans of that name.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}
