//! Spans recorded by the benchmark's own code around calls into each layer.
//!
//! A span has a name (`<layer>.<stage>`), start and end on the run clock, a
//! parent span and an operation id. Each thread records into its own
//! [`SpanBuf`]; buffers are merged once the traced phase ends and the whole
//! log is written out with each layer's self time: a span's duration minus
//! the part of it that its children cover.

use crate::report::JsonObject;
use std::collections::BTreeMap;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    /// Placed from a duration the program itself reported (response queue /
    /// service time, round train / publish time), not clocked by the
    /// benchmark.
    pub program_reported: bool,
}

#[derive(Default)]
pub struct SpanBuf {
    pub spans: Vec<Span>,
}

impl SpanBuf {
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>, op: u64) -> usize {
        self.spans.push(Span { name, start_ns, end_ns, parent, op, program_reported: false });
        self.spans.len() - 1
    }

    pub fn reported(&mut self, name: &'static str, start_ns: u64, micros: f64, parent: usize, op: u64) -> u64 {
        let end_ns = start_ns + (micros * 1e3) as u64;
        self.spans.push(Span { name, start_ns, end_ns, parent: Some(parent), op, program_reported: true });
        end_ns
    }

    /// Appends another buffer, re-basing its parent indices.
    pub fn absorb(&mut self, other: SpanBuf) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name and per layer (the name's prefix before the
    /// first `.`), in microseconds.
    pub fn self_times(&self) -> (BTreeMap<&'static str, f64>, BTreeMap<String, f64>) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            let covered = covered_ns(span.start_ns, span.end_ns, kids);
            let own = span.end_ns.saturating_sub(span.start_ns).saturating_sub(covered) as f64 / 1e3;
            *by_name.entry(span.name).or_default() += own;
            let layer = span.name.split('.').next().unwrap_or(span.name).to_string();
            *by_layer.entry(layer).or_default() += own;
        }
        (by_name, by_layer)
    }

    /// The log as JSON: every span plus the self-time tables.
    pub fn to_json(&self, header: JsonObject) -> String {
        let (by_name, by_layer) = self.self_times();
        let mut out = String::with_capacity(self.spans.len() * 96 + 1024);
        out.push_str("{\"run\": ");
        out.push_str(&header.render());
        out.push_str(",\n\"self_time_us_by_layer\": ");
        let mut layers = JsonObject::new();
        for (layer, us) in &by_layer {
            layers.num(layer, *us);
        }
        out.push_str(&layers.render());
        out.push_str(",\n\"self_time_us_by_span\": ");
        let mut names = JsonObject::new();
        for (name, us) in &by_name {
            names.num(name, *us);
        }
        out.push_str(&names.render());
        out.push_str(",\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}, \"program_reported\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                s.program_reported,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut buf = SpanBuf::default();
        let root = buf.record("client.submit", 0, 100, None, 1);
        buf.record("serve.queue", 10, 40, Some(root), 1);
        buf.record("serve.service", 30, 70, Some(root), 1);
        let (by_name, by_layer) = buf.self_times();
        assert!((by_name["client.submit"] - 0.040).abs() < 1e-12);
        assert!((by_layer["serve"] - 0.070).abs() < 1e-12);
    }
}
