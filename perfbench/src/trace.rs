//! In-memory spans recorded by the benchmark around its calls into each
//! layer; written out as JSON lines when the run ends.

use std::sync::atomic::{AtomicU64, Ordering};

/// Reserve `n` consecutive request ids, unique within the run, so the
/// spans of every phase can share one file.
pub fn request_ids(n: u64) -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(n, Ordering::Relaxed)
}

/// One timed interval: a layer call, or an operation enclosing some.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (within the same [`Spans`]; the `id` of the written line) of
    /// the span that caused this one.
    pub parent: Option<usize>,
    /// The request or operation this span belongs to.
    pub request: u64,
}

/// A span recorder owned by one thread. A disabled recorder keeps
/// nothing, so traced and untraced code paths are the same code.
pub struct Spans {
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder stamping times relative to the run's start.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        crate::epoch().elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Spans::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, request);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another recorder's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.request
            ));
        }
        out
    }
}
