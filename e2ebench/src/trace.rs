//! In-memory spans around calls into each layer, recorded from the
//! benchmark's side of the public API.
//!
//! A span names its layer and, optionally, the layer of the span that
//! encloses it for the same request id. Spans stay in memory during the
//! run; [`Tracer::write`] saves them when the run ends. A layer's self
//! time is its spans' duration minus the part their child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Request id shared by the spans of one request.
    pub req: u64,
    pub layer: &'static str,
    /// Layer of the enclosing span of the same request, if any.
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span buffer; disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// An empty tracer with this one's clock and switch, for another
    /// thread; [`Tracer::merge`] brings its spans back.
    pub fn fork(&self) -> Self {
        Tracer::new(self.on, self.origin)
    }

    /// Nanoseconds since the run's clock origin.
    pub fn now(&self) -> u64 {
        ns_since(self.origin)
    }

    pub fn record(
        &mut self,
        req: u64,
        layer: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                req,
                layer,
                parent,
                start_ns,
                end_ns: end_ns.max(start_ns),
            });
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        req: u64,
        layer: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(req, layer, parent, start, end);
        out
    }

    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per layer: number of spans and summed self time in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        self_times(&self.spans)
    }

    /// [`Tracer::self_times`] over the spans whose request id is in
    /// `reqs`.
    pub fn self_times_of(&self, reqs: std::ops::Range<u64>) -> BTreeMap<&'static str, (u64, u64)> {
        let spans: Vec<Span> = self
            .spans
            .iter()
            .filter(|s| reqs.contains(&s.req))
            .copied()
            .collect();
        self_times(&spans)
    }

    /// Writes every span as a tab-separated line
    /// (`req layer parent start_ns end_ns`).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "req\tlayer\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.req,
                s.layer,
                s.parent.unwrap_or("-"),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

pub fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it. A child is a span of the same
/// request whose `parent` names the span's layer.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_req: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_req.entry(s.req).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for group in by_req.values() {
        for s in group {
            let mut children: Vec<(u64, u64)> = group
                .iter()
                .filter(|c| c.parent == Some(s.layer))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            children.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in children {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let entry = out.entry(s.layer).or_default();
            entry.0 += 1;
            entry.1 += (s.end_ns - s.start_ns) - covered;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u64, layer: &'static str, parent: Option<&'static str>, a: u64, b: u64) -> Span {
        Span {
            req,
            layer,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = [
            span(1, "wire", None, 0, 100),
            span(1, "send", Some("wire"), 10, 30),
            span(1, "send", Some("wire"), 20, 40),
            span(2, "wire", None, 0, 50),
            // Another request's child never counts.
            span(3, "send", Some("wire"), 0, 50),
        ];
        let t = self_times(&spans);
        assert_eq!(t["wire"], (2, 70 + 50));
        assert_eq!(t["send"], (3, 20 + 20 + 50));
    }
}
