//! Benchmark-side spans of the traced run: recorded around the calls
//! into each layer, kept in memory, written as Chrome trace events when
//! the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One span. `parent` 0 means none; spans of one request share `request`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The in-memory span store. Disabled (the untraced run) it records
/// nothing, so the timed code is the same in both runs.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

/// The file holds at most this many spans; the in-memory store, which
/// the budget is computed from, is not capped.
const MAX_SPANS_WRITTEN: usize = 20_000;

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from this store's epoch to `t` (0 if `t` is earlier).
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            name,
            id,
            parent,
            request,
            start_ns,
            end_ns,
        });
        id
    }

    /// Times `f` as one span around a public call.
    pub fn around<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        self.record(name, 0, request, start, end);
        r
    }

    /// The spans as Chrome trace events (`pid` 1, one `tid` per span
    /// name), appended to the pool's own trace (`pid` 0) when there is
    /// one. The two clocks start within a pool construction of each
    /// other; compare within a `pid`, not across.
    pub fn chrome_json(&self, pool_trace: Option<&str>) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        if let Some(inner) =
            pool_trace.and_then(|t| t.trim().strip_prefix('[').and_then(|t| t.strip_suffix(']')))
        {
            let inner = inner.trim();
            if !inner.is_empty() {
                out.push_str(inner);
                first = false;
            }
        }
        let mut names: Vec<&'static str> = Vec::new();
        for s in self.spans.iter().take(MAX_SPANS_WRITTEN) {
            let tid = match names.iter().position(|n| *n == s.name) {
                Some(i) => i,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                tid,
                s.id,
                s.parent,
                s.request
            );
        }
        for (tid, name) in names.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            );
        }
        if !first {
            out.push_str(
                ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\
                 \"args\":{\"name\":\"hoodbench spans\"}}",
            );
        }
        out.push_str("\n]\n");
        out
    }
}
