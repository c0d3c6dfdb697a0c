//! Spans the benchmark records around its own calls into each crate.
//!
//! A span has a name, a start and an end (nanoseconds since the trace
//! epoch), the id of the span that caused it and the id of the request
//! it belongs to. Each thread appends to its own [`SpanLog`]; the logs
//! are merged, summarised and written out when the run ends. A disabled
//! log records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique across the logs of one trace.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified operation name, e.g. `engine.submit_batch`.
    pub name: &'static str,
    /// Request the span belongs to (per-log sequence of the caller).
    pub request: u64,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose ids start at `lane << 40`, so logs of different
    /// threads never collide. Every log of one trace shares `epoch`.
    pub fn new(enabled: bool, epoch: Instant, lane: u64) -> SpanLog {
        SpanLog {
            enabled,
            epoch,
            next_id: lane << 40,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span; returns its result and the span's id
    /// (`None` when disabled).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, Option<u64>) {
        if !self.enabled {
            return (f(self), None);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now();
        let out = f(self);
        let end = self.now();
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start,
            end,
        });
        (out, Some(id))
    }

    /// Reserves an id for a span whose interval is closed later with
    /// [`SpanLog::close`] (a root that child threads refer to).
    pub fn open(&mut self) -> Option<(u64, u64)> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        Some((id, self.now()))
    }

    /// Closes a span opened with [`SpanLog::open`].
    pub fn close(
        &mut self,
        opened: Option<(u64, u64)>,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
    ) {
        if let Some((id, start)) = opened {
            let end = self.now();
            self.spans.push(Span {
                id,
                parent,
                name,
                request,
                start,
                end,
            });
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total: u64,
    /// Summed self times, ns: each span's duration minus the part of
    /// it that its children cover (overlapping children counted once).
    pub self_time: u64,
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered.min(s.duration())
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total += s.duration();
        t.self_time += own;
    }
    out
}

/// Writes `spans` as tab-separated rows
/// (`id parent request name start_ns end_ns`).
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}\t{}",
            s.id, s.request, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent.is_none() { "root" } else { "child" },
            request: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,40) and [30,60) overlap; their union is 50 ns.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 30]);
        let t = totals(&spans);
        assert_eq!(
            t["root"],
            NameTotals {
                count: 1,
                total: 100,
                self_time: 50
            }
        );
        assert_eq!(t["child"].self_time, 60);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        // A child on another thread may outlive its parent's interval;
        // a nested child is contained in an earlier one.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 20, 50),
            span(3, Some(1), 25, 30),
            span(4, Some(1), 90, 140),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 30 - 10);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now(), 1);
        let (v, id) = log.span("x", None, 0, |_| 7);
        assert_eq!((v, id), (7, None));
        assert!(log.into_spans().is_empty());

        let mut log = SpanLog::new(true, Instant::now(), 1);
        let root = log.open();
        let (_, child) = log.span("leaf", root.map(|r| r.0), 3, |_| ());
        log.close(root, "root", None, 0);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(1 << 40));
        assert_eq!(child, Some((1 << 40) + 1));
        assert!(spans[1].start <= spans[0].start && spans[0].end <= spans[1].end);
    }
}
