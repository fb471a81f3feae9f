//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and end (ns since the tracer's origin), the
//! span that was open when it started (its parent), and a trace id — the
//! index of the query it belongs to. Spans are kept in memory and written
//! out once, when the run ends. A layer's number is its *self time*: the
//! span's duration minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread span recorder. Spans open and close in stack order.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str, trace: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close in stack order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, trace: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.open(name, trace);
        let out = f(self);
        self.close(id);
        out
    }

    /// Records an already-timed interval under `parent` (or, when `None`,
    /// under the innermost open span). Returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            trace,
            parent: parent.or(self.open.last().copied()),
            start_ns: at(start),
            end_ns: at(end),
        });
        self.spans.len() - 1
    }

    /// Moves the end of a recorded span (one whose end was unknown when
    /// its children had to name it as their parent).
    pub fn set_end(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Appends spans recorded by another tracer with the same origin (on
    /// another thread); their parent links are renumbered.
    pub fn append(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "tracer dropped with open spans");
        self.spans
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (children may nest, overlap each other, or stick out of the
/// parent; only the covered part of the parent's interval is subtracted).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            dur - covered(s.start_ns, s.end_ns, kids)
        })
        .collect()
}

/// Per span name: (total self time in ns, number of spans).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    out
}

/// Writes spans as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.trace, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            trace: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,60).
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a1", Some(1), 15, 25),
            span("b", Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        // Two children overlap on [30,40); a third sticks out of the
        // parent's interval, and only its inside part counts.
        let spans = vec![
            span("root", None, 0, 100),
            span("x", Some(0), 20, 40),
            span("y", Some(0), 30, 50),
            span("z", Some(0), 90, 130),
        ];
        // Covered: [20,50) + [90,100) = 40 → self 60.
        assert_eq!(self_times(&spans)[0], 60);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], (60, 1));
        assert_eq!(by_name["z"], (40, 1));
        // Identical children cover once.
        let twins = vec![
            span("p", None, 0, 10),
            span("c", Some(0), 2, 8),
            span("c", Some(0), 2, 8),
        ];
        assert_eq!(self_times(&twins), vec![4, 6, 6]);
        assert_eq!(self_time_by_name(&twins)["c"], (12, 2));
    }

    #[test]
    fn tracer_links_parents_in_stack_order() {
        let mut t = Tracer::new(Instant::now());
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.record("remote", 7, None, Instant::now(), Instant::now());
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.trace == 7 && s.end_ns >= s.start_ns));
    }
}
