//! In-memory spans recorded around calls into each layer from the
//! benchmark's own code, written out as JSON lines when the run ends.
//!
//! A span has a name, a start, an end and an optional parent; spans of one
//! request (or one replay iteration) share a trace id. Self time is a span
//! minus the part of it its children cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub trace: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans when enabled; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span and returns its id (0 when disabled). Ids are unique
    /// within one tracer; [`assign_ids`] makes them unique across tracers.
    pub fn span(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Duration,
        end: Duration,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            trace,
            parent,
            name,
            start,
            end,
        });
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Renumbers spans collected by several tracers so ids are unique,
/// keeping parent links within each tracer's batch.
pub fn assign_ids(batches: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for batch in batches {
        let offset = out.len() as u64;
        out.extend(batch.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> HashMap<u64, Duration> {
    let mut children: HashMap<u64, Vec<(Duration, Duration)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = Duration::ZERO;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort();
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.duration().saturating_sub(covered))
        })
        .collect()
}

/// Writes spans as JSON lines (times in ns from the run's epoch).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let self_time = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            s.trace,
            s.name,
            s.start.as_nanos(),
            s.end.as_nanos(),
            self_time.get(&s.id).copied().unwrap_or_default().as_nanos()
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let ms = Duration::from_millis;
        let mut t = Tracer::new(true);
        let root = t.span(1, None, "root", ms(0), ms(10));
        t.span(1, Some(root), "a", ms(1), ms(4));
        t.span(1, Some(root), "b", ms(3), ms(6));
        t.span(1, Some(root), "c", ms(9), ms(12));
        let spans = assign_ids(vec![Vec::new(), t.into_spans()]);
        let selfs = self_times(&spans);
        // Children cover [1,6) and [9,10): 6 ms of 10.
        assert_eq!(selfs[&spans[0].id], ms(4));
        assert!(!Tracer::new(false).enabled());
    }
}
