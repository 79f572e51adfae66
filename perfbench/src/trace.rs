//! In-memory spans around the layer calls of the traced replay.
//!
//! Each replayed request is a root span with its own request id; the layer
//! calls made while replaying it are child spans carrying the same id. A
//! span's self time is its duration minus the part of its interval that its
//! direct children cover.

use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique span id (1-based).
    pub id: usize,
    /// The enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The id shared by a root and all of its descendants.
    pub request: usize,
    /// Layer-qualified name, e.g. `projection.project`.
    pub name: String,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

impl Span {
    /// Wall time between start and end, in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans into memory; nothing is written until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Ids of the spans currently open, innermost last.
    open: Vec<usize>,
    requests: usize,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            requests: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a new root span (a new request id).
    pub fn root<T>(&mut self, name: &str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        assert!(self.open.is_empty(), "a root span cannot nest");
        self.requests += 1;
        self.record(name, body)
    }

    /// Runs `body` inside a child span of the innermost open span.
    pub fn span<T>(&mut self, name: &str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        assert!(!self.open.is_empty(), "a child span needs an open parent");
        self.record(name, body)
    }

    fn record<T>(&mut self, name: &str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() + 1;
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            id,
            parent,
            request: self.requests,
            name: name.to_string(),
            start,
            end: start,
        });
        self.open.push(id);
        let value = body(self);
        self.open.pop();
        let end = self.now();
        self.spans[id - 1].end = end;
        value
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration() as f64 / 1e6)
            .collect()
    }

    /// Self times in milliseconds of every span named `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(span, _)| span.name == name)
            .map(|(_, own)| own as f64 / 1e6)
            .collect()
    }

    /// The direct children of span `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans
            .iter()
            .filter(move |span| span.parent == Some(id))
    }

    /// The root spans named `name`.
    pub fn roots(&self, name: &str) -> impl Iterator<Item = &Span> + '_ {
        let name = name.to_string();
        self.spans
            .iter()
            .filter(move |span| span.parent.is_none() && span.name == name)
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(start, end)| (start.max(lo), end.min(hi)))
        .filter(|(start, end)| start < end)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in clipped {
        current = match current {
            Some((open_start, open_end)) if start <= open_end => {
                Some((open_start, open_end.max(end)))
            }
            Some((open_start, open_end)) => {
                total += open_end - open_start;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((start, end)) = current {
        total += end - start;
    }
    total
}

/// Self time of every span (same order as `spans`): its duration minus the
/// time its direct children cover inside its interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let index_of: std::collections::HashMap<usize, usize> = spans
        .iter()
        .enumerate()
        .map(|(index, span)| (span.id, index))
        .collect();
    for span in spans {
        if let Some(&parent) = span.parent.and_then(|id| index_of.get(&id)) {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| span.duration() - covered(kids, span.start, span.end))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: format!("s{id}"),
            start,
            end,
        }
    }

    #[test]
    fn union_of_overlapping_intervals() {
        assert_eq!(covered(&[], 0, 100), 0);
        assert_eq!(covered(&[(10, 20), (15, 30), (40, 50)], 0, 100), 30);
        assert_eq!(covered(&[(10, 20), (20, 30)], 0, 100), 20);
        // Clipped to the parent interval.
        assert_eq!(covered(&[(0, 50)], 10, 30), 20);
        assert_eq!(covered(&[(40, 50)], 10, 30), 0);
    }

    #[test]
    fn self_time_of_nested_spans() {
        // root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90] with
        // children b1 [55,70] and b2 [60,80] overlapping.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 15, 25),
            span(4, Some(1), 50, 90),
            span(5, Some(4), 55, 70),
            span(6, Some(4), 60, 80),
        ];
        // Only direct children count: root loses a and b (70), not a1.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 15, 15, 20]);
    }

    #[test]
    fn a_leaf_is_all_self_time() {
        assert_eq!(self_times(&[span(1, None, 5, 9)]), vec![4]);
    }

    #[test]
    fn tracer_links_children_to_their_root() {
        let mut tracer = Tracer::new();
        let value = tracer.root("request", |t| {
            t.span("outer", |t| t.span("inner", |_| 7)) + t.span("sibling", |_| 1)
        });
        tracer.root("request", |t| t.span("outer", |_| ()));
        assert_eq!(value, 8);
        let spans = tracer.spans();
        let names: Vec<&str> = spans.iter().map(|span| span.name.as_str()).collect();
        assert_eq!(
            names,
            ["request", "outer", "inner", "sibling", "request", "outer"]
        );
        let parents: Vec<Option<usize>> = spans.iter().map(|span| span.parent).collect();
        assert_eq!(parents, [None, Some(1), Some(2), Some(1), None, Some(5)]);
        let requests: Vec<usize> = spans.iter().map(|span| span.request).collect();
        assert_eq!(requests, [1, 1, 1, 1, 2, 2]);
        assert!(spans.iter().all(|span| span.start <= span.end));
        assert_eq!(tracer.children(1).count(), 2);
        assert_eq!(tracer.roots("request").count(), 2);
        let own = self_times(spans);
        assert_eq!(
            own[0],
            spans[0].duration() - spans[1].duration() - spans[3].duration()
        );
    }
}
