//! The benchmark's own spans: recorded around every call it makes into a
//! layer, kept in memory, folded into self times when the run ends.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover, so the self times of a tree always sum to
//! the root's duration — whatever the children do not cover stays visible
//! on the parent's row instead of disappearing.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share its id.
    pub request: Option<u64>,
}

/// An in-memory span log with a fixed time origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::starting_at(Instant::now())
    }

    /// An empty log measuring from `origin` (to share a time base with
    /// another log).
    pub fn starting_at(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds from the origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds from the origin to now.
    pub fn now(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span under `parent`.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, start, end, parent, None);
        out
    }

    /// Opens a span whose children are recorded before it closes.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.push(name, now, now, parent, None)
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now().max(self.spans[id].start_ns);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// One row of a folded waterfall.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Span names from the root down, joined with `/`.
    pub path: String,
    pub self_ns: u64,
    pub count: u64,
}

/// Folds spans by their root-to-span name path, summing self times. The
/// rows sum to the total duration of the root spans.
pub fn fold(spans: &[Span]) -> Vec<Row> {
    let selfs = self_times(spans);
    let mut paths: Vec<String> = Vec::with_capacity(spans.len());
    for s in spans {
        // Parents are always recorded before their children.
        let path = match s.parent {
            Some(p) => format!("{}/{}", paths[p], s.name),
            None => s.name.clone(),
        };
        paths.push(path);
    }
    let mut rows: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (path, self_ns) in paths.into_iter().zip(selfs) {
        let row = rows.entry(path).or_default();
        row.0 += self_ns;
        row.1 += 1;
    }
    rows.into_iter()
        .map(|(path, (self_ns, count))| Row {
            path,
            self_ns,
            count,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("queue", 0, 30, Some(0)),
            span("batch", 40, 90, Some(0)),
            span("explain", 50, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("root", 10, 110, None),
            // Two workers overlapping on [30, 50).
            span("worker", 20, 50, Some(0)),
            span("worker", 30, 60, Some(0)),
            // Hangs over the parent's end: only [100, 110) counts.
            span("late", 100, 140, Some(0)),
        ];
        // Covered: [20, 60) and [100, 110) = 50 of 100.
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn fold_rows_sum_to_the_roots() {
        let spans = vec![
            span("request", 0, 100, None),
            span("queue", 0, 30, Some(0)),
            span("batch", 40, 90, Some(0)),
            span("explain", 50, 70, Some(2)),
            span("request", 200, 260, None),
            span("queue", 200, 250, Some(4)),
        ];
        let rows = fold(&spans);
        let total: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(total, 160);
        let get = |p: &str| rows.iter().find(|r| r.path == p).unwrap();
        assert_eq!((get("request").self_ns, get("request").count), (30, 2));
        assert_eq!(get("request/queue").self_ns, 80);
        assert_eq!(get("request/batch/explain").self_ns, 20);
    }
}
