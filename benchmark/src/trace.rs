//! In-memory spans, written out as JSON lines when the benchmark ends.
//!
//! Spans are recorded by the harness around its calls into each layer —
//! there are no spans inside the program yet. Each thread owns a [`Tracer`]
//! (no sharing on the hot path); the traced pass merges them at the end.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique across tracers: the lane in the high bits, a counter below.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Spans of one top-level operation (and its replay) share this.
    pub op_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    lane: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `lane` distinguishes threads; every tracer of a run shares `epoch`.
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Tracer {
            epoch,
            lane,
            next: 0,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span from explicit instants and return its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u64,
        op_id: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.next += 1;
        let id = (self.lane << 40) | self.next;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            op_id,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Time `f` as a span.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.push(name, parent, op_id, start, end))
    }
}

/// Self time per span, in the order given: a span's duration minus its
/// children's durations. Durations — not interval overlap — because replayed
/// stages run *after* the operation they decompose: they are its children by
/// cause, not by position on the clock. For properly nested children the two
/// definitions agree. A replay on colder caches can take longer than the
/// stage took inside the operation; the self time is then negative and is
/// reported as such rather than hidden.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    spans
        .iter()
        .map(|s| s.dur_ns() as i64 - child_ns.get(&s.id).copied().unwrap_or(0) as i64)
        .collect()
}

/// Self times, in microseconds, of the spans called `name` whose operation
/// was replayed (every `every`-th): the layer's own cost once the replayed
/// stages beneath it are taken out.
pub fn replayed_self_us(spans: &[Span], name: &str, every: u64) -> Vec<f64> {
    self_times(spans)
        .into_iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name && s.op_id.is_multiple_of(every))
        .map(|(ns, _)| ns as f64 / 1e3)
        .collect()
}

/// Durations of every span called `name`, in microseconds.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// One JSON object per line: `name, start_ns, end_ns, parent, op_id` (+ `id`,
/// which `parent` refers to).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op_id\": {}, \"id\": {}}}",
            s.name, s.start_ns, s.end_ns, s.parent, s.op_id, s.id
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op_id: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(1, 0, "op", 0, 1000),
            // Replayed after the op: outside its interval, still its children.
            span(2, 1, "bridge.gather", 1100, 1300),
            span(3, 1, "nn.forward", 1300, 1900),
            span(4, 3, "tensor.l0.fused", 2000, 2400),
            span(5, 4, "tensor.l0.gemm", 2400, 2700),
            span(6, 0, "op", 3000, 3500),
        ];
        // op: 1000 - (200 + 600); forward: 600 - 400; fused: 400 - 300.
        assert_eq!(self_times(&spans), vec![200, 200, 200, 100, 300, 500]);
        assert_eq!(durations_us(&spans, "nn.forward"), vec![0.6]);
        // All six spans carry op_id 1: replayed when every 1st op is, not
        // when only every 16th is.
        assert_eq!(replayed_self_us(&spans, "op", 1), vec![0.2, 0.5]);
        assert!(replayed_self_us(&spans, "op", 16).is_empty());
    }

    #[test]
    fn a_replay_slower_than_its_op_shows_as_negative_self_time() {
        let spans = vec![span(1, 0, "op", 0, 100), span(2, 1, "replay", 200, 900)];
        assert_eq!(self_times(&spans), vec![-600, 700]);
    }

    #[test]
    fn tracer_ids_are_unique_across_lanes_and_jsonl_parses() {
        let epoch = Instant::now();
        let (mut a, mut b) = (Tracer::new(epoch, 1), Tracer::new(epoch, 2));
        let ((), root) = a.record("op", 0, 7, || ());
        let ((), child) = a.record("nn.forward", root, 7, || ());
        let ((), other) = b.record("op", 0, 8, || ());
        assert!(root != child && root != other && child != other);
        assert_eq!(a.spans[1].parent, root);
        assert!(a.spans[0].end_ns >= a.spans[0].start_ns);

        let dir = crate::results_dir().join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        let all: Vec<Span> = a.spans.iter().chain(&b.spans).cloned().collect();
        write_jsonl(&path, &all).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        for (line, s) in text.lines().zip(&all) {
            let j = Json::parse(line).unwrap();
            assert_eq!(j.get("name").unwrap().as_str(), Some(s.name));
            assert_eq!(j.get("parent").unwrap().as_f64(), Some(s.parent as f64));
            assert_eq!(j.get("op_id").unwrap().as_f64(), Some(s.op_id as f64));
            assert_eq!(j.get("end_ns").unwrap().as_f64(), Some(s.end_ns as f64));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
