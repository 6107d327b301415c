//! Spans recorded from outside the program, around calls into each
//! layer's public functions.
//!
//! A [`Tracer`] keeps spans in memory (name, start, end, parent, request
//! id) and writes them out once the run ends: as Chrome trace-event JSON
//! that Perfetto opens, and as a per-layer self-time table. A span's
//! self time is its duration minus the part its direct children cover;
//! the benchmark is single-threaded while tracing, so children never
//! overlap.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `asm.preprocess`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; closing out of order is a bug.
#[derive(Debug)]
#[must_use = "an opened span must be closed"]
pub struct Open(usize);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Summed self time, ms.
    pub self_ms: f64,
    /// Summed wall time, ms (children included).
    pub total_ms: f64,
    /// Spans recorded.
    pub calls: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn at_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Sets the request id new spans carry.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            request: self.request,
            start_ns,
            end_ns: 0,
        });
        let index = self.spans.len() - 1;
        self.stack.push(index);
        Open(index)
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if `open` is not the innermost open span.
    pub fn close(&mut self, open: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0].end_ns = self.now_ns().max(self.spans[open.0].start_ns);
    }

    /// Times one call as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = call();
        self.close(open);
        out
    }

    /// Records an interval measured elsewhere (e.g. between two socket
    /// reads) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let start_ns = self.at_ns(start);
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            request: self.request,
            start_ns,
            end_ns: self.at_ns(end).max(start_ns),
        });
    }

    /// Every span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Checks the recorded spans form a forest: every span is closed,
    /// lies inside its parent, and siblings do not overlap.
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn check_nesting(&self) -> Result<(), String> {
        if !self.stack.is_empty() {
            return Err(format!("{} spans still open", self.stack.len()));
        }
        let mut last_child_end: Vec<u64> = vec![0; self.spans.len()];
        let mut last_root_end = 0;
        for (i, span) in self.spans.iter().enumerate() {
            if span.end_ns < span.start_ns {
                return Err(format!("span {i} `{}` ends before it starts", span.name));
            }
            let previous_end = match span.parent {
                Some(p) => {
                    let parent = &self.spans[p];
                    if p >= i || span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                        return Err(format!(
                            "span {i} `{}` escapes its parent `{}`",
                            span.name, parent.name
                        ));
                    }
                    if span.request != parent.request {
                        return Err(format!("span {i} `{}` changes request id", span.name));
                    }
                    &mut last_child_end[p]
                }
                None => &mut last_root_end,
            };
            if span.start_ns < *previous_end {
                return Err(format!("span {i} `{}` overlaps its sibling", span.name));
            }
            *previous_end = span.end_ns;
        }
        Ok(())
    }

    /// Self time of every span, ns, indexed like [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Self time, wall time and call count per span name.
    pub fn table(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            let row = table.entry(span.name).or_default();
            row.self_ms += own as f64 / 1e6;
            row.total_ms += span.duration_ns() as f64 / 1e6;
            row.calls += 1;
        }
        table
    }

    /// Chrome trace-event JSON (complete `X` events, µs timestamps), as
    /// Perfetto and `chrome://tracing` read it.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let category = span.name.split('.').next().unwrap_or(span.name);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{category}\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"span\":{i},\"parent\":{},\
                 \"request\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.parent.map_or("null".to_owned(), |p| p.to_string()),
                span.request,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Whether span `name` belongs to layer or span `layer` (`asm` matches
/// `asm.parse`; `asm.parse` matches only itself).
pub fn layer_matches(name: &str, layer: &str) -> bool {
    name == layer || (name.starts_with(layer) && name.as_bytes().get(layer.len()) == Some(&b'.'))
}
