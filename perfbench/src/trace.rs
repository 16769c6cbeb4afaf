//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end and the span that caused it. Spans
//! are kept in memory and written out once, when the run ends. Time is
//! always measured (the workloads need every duration); spans are stored
//! only when tracing is on, so an untraced run pays two clock reads per
//! call and nothing else.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

struct SpanRec {
    name: String,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// One layer's row of the self-time table.
pub struct LayerTime {
    pub name: String,
    pub calls: usize,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under `parent`, and returns its
    /// result with its wall time in seconds. `f` receives the new span's
    /// id (`None` when tracing is off) to parent its own calls.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(SpanRec {
                name: name.to_string(),
                parent,
                start_ns: self.nanos(start),
                end_ns: self.nanos(start),
            });
            spans.len() - 1
        });
        let result = f(id);
        let end = Instant::now();
        if let Some(id) = id {
            self.spans.lock().expect("span list poisoned")[id].end_ns = self.nanos(end);
        }
        (result, end.duration_since(start).as_secs_f64())
    }

    /// Per span name: calls, total time, and self time (each span's
    /// duration minus the part of it its children cover), sorted by self
    /// time, largest first.
    pub fn layer_times(&self) -> Vec<LayerTime> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut rows: Vec<LayerTime> = Vec::new();
        for (s, kids) in spans.iter().zip(children) {
            let clipped: Vec<(u64, u64)> = kids
                .into_iter()
                .map(|(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .collect();
            let total = (s.end_ns - s.start_ns) as f64 * 1e-9;
            let own = total - union_ns(clipped) as f64 * 1e-9;
            match rows.iter_mut().find(|r| r.name == s.name) {
                Some(r) => {
                    r.calls += 1;
                    r.total_s += total;
                    r.self_s += own;
                }
                None => rows.push(LayerTime {
                    name: s.name.clone(),
                    calls: 1,
                    total_s: total,
                    self_s: own,
                }),
            }
        }
        rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
        rows
    }

    /// Seconds covered by spans that have no children — the calls into
    /// the layers themselves, not the benchmark's grouping spans.
    pub fn leaf_seconds(&self) -> f64 {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut has_child = vec![false; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        let leaves = spans
            .iter()
            .zip(has_child)
            .filter(|(_, parent)| !parent)
            .map(|(s, _)| (s.start_ns, s.end_ns))
            .collect();
        union_ns(leaves) as f64 * 1e-9
    }

    /// The spans and the self-time table as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"layers\":[");
        for (i, r) in self.layer_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"calls\":{},\"total_s\":{},\"self_s\":{}}}",
                r.name, r.calls, r.total_s, r.self_s
            );
        }
        out.push_str("],\"spans\":[");
        let spans = self.spans.lock().expect("span list poisoned");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Length of the union of half-open nanosecond intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.retain(|(a, b)| b > a);
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    covered + current.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![]), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("outer", None, |id| {
            t.span("inner", id, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let rows = t.layer_times();
        let outer = rows.iter().find(|r| r.name == "outer").expect("outer");
        let inner = rows.iter().find(|r| r.name == "inner").expect("inner");
        assert!(outer.self_s < inner.self_s);
        assert!(t.leaf_seconds() >= 0.019);
    }
}
