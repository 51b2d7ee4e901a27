//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around its calls
//! into the workspace crates; the crates themselves are not instrumented.
//! A span's name starts with the layer it times (`graph.`, `core.`,
//! `routing.`, `serve.`, `topologies.`), or `bench.` for the benchmark's own
//! loop.  Spans are kept in memory and written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One finished (or open) span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one pass share this identifier.
    pub group: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans when enabled; runs the closures bare when not, so
/// the untraced and traced passes execute the same calls.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    group: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            group: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new span group (one pass) and returns [`Tracer::mark`].
    pub fn begin_group(&mut self) -> usize {
        self.group += 1;
        self.mark()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            group: self.group,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Index the next span will get.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// The spans recorded from index `from` on.
    pub fn since(&self, from: usize) -> &[SpanRec] {
        &self.spans[from..]
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"group\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.group
            )?;
        }
        out.flush()
    }
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer over `spans` (indices absolute from `base`): each
/// span's duration minus the part its child spans cover.  Spans are
/// recorded on one thread, so children never overlap each other.
pub fn self_ns_by_layer(spans: &[SpanRec], base: usize) -> BTreeMap<String, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            if p < spans.len() {
                child_ns[p] += s.dur_ns();
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(layer_of(s.name).to_string()).or_insert(0) += s.dur_ns().saturating_sub(c);
    }
    out
}

/// Total span time per span name over `spans`.
pub fn total_ns_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += s.dur_ns();
    }
    out
}

/// The duration of every span named `name`, in recording order.
pub fn durations_ns(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let base = t.begin_group();
        t.span("bench.pass", |t| {
            t.span("core.classify", |t| {
                t.span("graph.planarity", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(3))
                });
            });
        });
        let spans = t.since(base);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(base));
        let own = self_ns_by_layer(spans, base);
        let total: u64 = own.values().sum();
        assert_eq!(total, spans[0].dur_ns());
        assert!(own["graph"] >= 3_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("graph.planarity", |_| 7);
        assert_eq!(v, 7);
        assert!(t.since(0).is_empty());
    }
}
