//! In-memory spans recorded at the benchmark's calls into each layer,
//! written out as JSON when a traced run ends.

use crate::json::quote;
use std::time::Instant;

/// Identifies a recorded span, for use as a parent.
pub type SpanId = usize;

struct Span {
    name: String,
    parent: Option<SpanId>,
    req: u64,
    start_ns: u64,
    end_ns: u64,
    /// Placed from reported durations rather than timed by the harness.
    derived: bool,
}

/// The span log of one run. Disabled logs record nothing, so untraced
/// runs pay one branch per call.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Time spent inside the recorder itself.
    cost_ns: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            cost_ns: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span the harness timed itself.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        self.push(name, parent, req, self.ns(start), self.ns(end), false)
    }

    /// Records a span placed from a duration the program reported
    /// (a `SolveReport` phase, a server's queue wait).
    pub fn derived(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        req: u64,
        start_ns: u64,
        dur_ns: u64,
    ) -> Option<SpanId> {
        self.push(name, parent, req, start_ns, start_ns + dur_ns, true)
    }

    /// Start of span `id`, in ns since the log's epoch.
    pub fn start_ns(&self, id: SpanId) -> u64 {
        self.spans[id].start_ns
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Option<SpanId>) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, req, start, Instant::now());
        (out, id)
    }

    fn push(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
        derived: bool,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let t = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            req,
            start_ns,
            end_ns,
            derived,
        });
        self.cost_ns += t.elapsed().as_nanos() as u64;
        Some(self.spans.len() - 1)
    }

    /// Nanoseconds the recorder spent recording.
    pub fn cost_ns(&self) -> u64 {
        self.cost_ns
    }

    /// The log as a JSON array of
    /// `{id, parent, name, req, start_us, end_us, derived}` objects.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\": {id}, \"parent\": {}, \"name\": {}, \"req\": {}, \"start_us\": {}, \"end_us\": {}, \"derived\": {}}}",
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    quote(&s.name),
                    s.req,
                    s.start_ns as f64 / 1e3,
                    s.end_ns as f64 / 1e3,
                    s.derived
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut s = Spans::new(false);
        let (v, id) = s.time("x", None, 0, || 3);
        assert_eq!((v, id), (3, None));
        assert_eq!(s.to_json(), "[\n\n]\n");
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut s = Spans::new(true);
        let (_, outer) = s.time("core.solve", None, 4, || ());
        let inner = s.derived("core.newton", outer, 4, s.start_ns(outer.unwrap()), 10);
        assert_eq!(inner, Some(1));
        let v = crate::json::parse(&s.to_json()).unwrap();
        let rows = v.as_array();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("parent").as_f64(), Some(0.0));
        assert_eq!(rows[1].get("req").as_f64(), Some(4.0));
        assert_eq!(rows[1].get("derived"), &crate::json::Value::Bool(true));
    }
}
