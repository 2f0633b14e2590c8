//! In-memory spans around the benchmark's calls into the program.
//!
//! A span is `(name, start, end, parent)`; spans open and close in stack
//! order on the benchmark's main thread. A disabled tracer records nothing,
//! so the untraced run pays one branch per boundary.

use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(i), "spans must close in stack order");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Total milliseconds across every span named `name`; +0 when there is
    /// none (an empty `f64` sum is -0, which would print as `-0.0`).
    pub fn total_ms(&self, name: &str) -> f64 {
        self.ms(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Share of span `root`'s duration covered by the leaf spans below it:
    /// the part of the interval that calls into the program account for.
    pub fn leaf_coverage(&self, root: SpanId) -> f64 {
        let Some(root) = root.0 else { return 0.0 };
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        let below = |mut i: usize| loop {
            match self.spans[i].parent {
                Some(p) if p == root => return true,
                Some(p) => i = p,
                None => return false,
            }
        };
        let covered: u64 = (0..self.spans.len())
            .filter(|&i| !has_child[i] && below(i))
            .map(|i| self.spans[i].ns())
            .sum();
        covered as f64 / self.spans[root].ns().max(1) as f64
    }

    /// One line per span name: count, total and self time (total minus
    /// the time its child spans cover), in first-seen order.
    pub fn summary(&self) -> Vec<String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut rows: Vec<(&'static str, usize, u64, u64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let self_ns = s.ns().saturating_sub(*child);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.ns();
                    r.3 += self_ns;
                }
                None => rows.push((s.name, 1, s.ns(), self_ns)),
            }
        }
        rows.iter()
            .map(|(name, n, total, own)| {
                format!(
                    "span {name:<24} count {n:>7}  total {:>10.3} ms  self {:>10.3} ms",
                    *total as f64 / 1e6,
                    *own as f64 / 1e6
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("a");
        t.end(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.leaf_coverage(id), 0.0);
        assert!(t.total_ms("a").is_sign_positive());
    }

    #[test]
    fn parents_nest_and_leaves_cover_the_root() {
        let mut t = Tracer::new(true);
        let root = t.begin("root");
        let step = t.begin("step");
        t.span("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(step);
        t.span("sibling", || ());
        t.end(root);
        let s = t.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0));
        let c = t.leaf_coverage(root);
        assert!(c > 0.5 && c <= 1.0, "coverage {c}");
        assert_eq!(t.summary().len(), 4);
    }
}
