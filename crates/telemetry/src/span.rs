//! Stage-level span trees and the flight recorder.
//!
//! A [`SpanTree`] records where one request's time went: a named root with
//! nested child stages, each carrying a start offset (relative to the root)
//! and a duration in microseconds. The serving dispatcher builds one tree
//! per request — `request → {queue, service → {batch_assembly, shard_score →
//! {shard_i…}, merge}}` — and pushes it into the [`FlightRecorder`],
//! a fixed-capacity ring of the most recent trees, so the requests around a
//! tail-latency spike can be inspected *after the fact* without having
//! logged anything.
//!
//! Spans are deliberately plain data (built by whoever did the timing, no
//! thread-local ambient context): the serving loop already measures every
//! stage, so the tree just gives those measurements a shape that survives
//! serialization.

use serde::{field, DeError, Deserialize, Serialize, Value};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// One named span with its children, start offset and duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    /// Stage name (`"request"`, `"queue"`, `"shard_score"`, `"shard_3"`, …).
    pub name: String,
    /// Microseconds from the *root* span's start to this span's start.
    pub start_micros: u64,
    /// The span's duration in microseconds.
    pub duration_micros: u64,
    /// Nested child stages, in start order.
    pub children: Vec<SpanTree>,
}

impl SpanTree {
    /// A leaf span.
    pub fn leaf(name: impl Into<String>, start_micros: u64, duration_micros: u64) -> Self {
        Self { name: name.into(), start_micros, duration_micros, children: Vec::new() }
    }

    /// Adds a child and returns `self` (builder-style).
    pub fn with_child(mut self, child: SpanTree) -> Self {
        self.children.push(child);
        self
    }

    /// Total spans in the tree (this node included).
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(SpanTree::span_count).sum::<usize>()
    }

    /// Finds the first span with `name` in depth-first order.
    pub fn find(&self, name: &str) -> Option<&SpanTree> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Renders the tree as an indented ASCII outline — what an operator
    /// prints when reading the flight recorder:
    ///
    /// ```text
    /// request                 812µs
    ///   queue                 103µs
    ///   service               709µs  @103µs
    ///     batch_assembly       11µs  @103µs
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{:<w$} {:>6}µs",
            self.name,
            self.duration_micros,
            w = 24 - indent.len().min(20)
        ));
        if self.start_micros > 0 {
            out.push_str(&format!("  @{}µs", self.start_micros));
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

impl Serialize for SpanTree {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_string(), self.name.to_value()),
            ("start_micros".to_string(), self.start_micros.to_value()),
            ("duration_micros".to_string(), self.duration_micros.to_value()),
            ("children".to_string(), self.children.to_value()),
        ])
    }
}

impl Deserialize for SpanTree {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v.as_object().ok_or_else(|| DeError::new("SpanTree: expected object"))?;
        Ok(Self {
            name: field(obj, "name")?,
            start_micros: field(obj, "start_micros")?,
            duration_micros: field(obj, "duration_micros")?,
            children: field(obj, "children")?,
        })
    }
}

/// A stopwatch that yields `(start_offset, duration)` pairs relative to one
/// root instant — the builder-side helper for assembling [`SpanTree`]s from
/// the serving loop's existing `Instant` measurements.
#[derive(Debug, Clone, Copy)]
pub struct SpanClock {
    root: Instant,
}

impl SpanClock {
    /// A clock whose offsets are measured from `root`.
    pub fn starting_at(root: Instant) -> Self {
        Self { root }
    }

    /// Microseconds from the root to `at` (0 if `at` precedes the root).
    pub fn offset_micros(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.root).as_micros() as u64
    }
}

/// A fixed-capacity ring of the most recent request span trees.
///
/// Writes happen once per request *after* it was answered (the serving
/// dispatcher is the only writer), so a mutex-protected ring is fine here —
/// the lock-free constraint applies to the per-sample metric paths, not to
/// this once-per-request bookkeeping. Readers drain a clone and never block
/// recording for long.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<VecDeque<SpanTree>>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` trees (capacity 0 records
    /// nothing).
    pub fn new(capacity: usize) -> Self {
        Self { ring: Mutex::new(VecDeque::with_capacity(capacity)), capacity }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of trees currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight recorder poisoned").len()
    }

    /// Whether the recorder holds no trees yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a tree, evicting the oldest once full.
    pub fn record(&self, tree: SpanTree) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.ring.lock().expect("flight recorder poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(tree);
    }

    /// The most recent `n` trees, oldest first.
    pub fn last(&self, n: usize) -> Vec<SpanTree> {
        let ring = self.ring.lock().expect("flight recorder poisoned");
        ring.iter().skip(ring.len().saturating_sub(n)).cloned().collect()
    }

    /// The slowest recorded tree by root duration (tail debugging: "show me
    /// the worst request still in the ring").
    pub fn slowest(&self) -> Option<SpanTree> {
        let ring = self.ring.lock().expect("flight recorder poisoned");
        ring.iter().max_by_key(|t| t.duration_micros).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree(duration: u64) -> SpanTree {
        SpanTree::leaf("request", 0, duration).with_child(SpanTree::leaf("queue", 0, duration / 4)).with_child(
            SpanTree::leaf("service", duration / 4, duration - duration / 4).with_child(SpanTree::leaf(
                "batch_assembly",
                duration / 4,
                2,
            )),
        )
    }

    #[test]
    fn span_tree_structure_and_lookup() {
        let tree = sample_tree(100);
        assert_eq!(tree.span_count(), 4);
        assert_eq!(tree.find("batch_assembly").unwrap().duration_micros, 2);
        assert!(tree.find("missing").is_none());
        let rendered = tree.render();
        assert!(rendered.contains("request"), "{rendered}");
        assert!(rendered.contains("batch_assembly"), "{rendered}");
    }

    #[test]
    fn span_tree_serde_round_trip() {
        let tree = sample_tree(812);
        let json = serde_json::to_string(&tree).expect("serialize");
        let back: SpanTree = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(tree, back);
    }

    #[test]
    fn flight_recorder_keeps_the_last_n() {
        let recorder = FlightRecorder::new(3);
        for d in 1..=5u64 {
            recorder.record(sample_tree(d));
        }
        assert_eq!(recorder.len(), 3);
        let last = recorder.last(10);
        let durations: Vec<u64> = last.iter().map(|t| t.duration_micros).collect();
        assert_eq!(durations, vec![3, 4, 5], "oldest evicted, oldest-first order");
        assert_eq!(recorder.last(2).len(), 2);
        assert_eq!(recorder.slowest().unwrap().duration_micros, 5);
    }

    #[test]
    fn zero_capacity_recorder_is_inert() {
        let recorder = FlightRecorder::new(0);
        recorder.record(sample_tree(9));
        assert!(recorder.is_empty());
        assert!(recorder.slowest().is_none());
    }

    #[test]
    fn span_clock_offsets_saturate() {
        let root = Instant::now();
        let clock = SpanClock::starting_at(root);
        assert_eq!(clock.offset_micros(root), 0);
        let later = root + std::time::Duration::from_micros(250);
        assert_eq!(clock.offset_micros(later), 250);
    }
}
