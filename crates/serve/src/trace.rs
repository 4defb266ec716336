//! Stage-level timing of one served batch.
//!
//! A [`StageTrace`] is the score plan's timing scratchpad: the plan fills in
//! how long query assembly, each shard's step (route, scan and select) and
//! the k-way merge took — for a batch of one exactly as for any other. The dispatcher then shapes the totals
//! into per-request [`SpanTree`](ham_telemetry::SpanTree)s for the flight
//! recorder. Tracing is requested explicitly (`Option<&mut StageTrace>`
//! threaded through the plan), so the untraced path carries a `None` check
//! and nothing else.

/// Collected stage durations of one served batch (all microseconds).
#[derive(Debug, Clone, Default)]
pub struct StageTrace {
    /// Building the batch's query matrix from user ids + histories.
    pub batch_assembly_micros: u64,
    /// Per-shard step time, `(shard index, micros)` — wall-clock inside
    /// each shard's task (route, scan and select), so with parallel shards
    /// these overlap.
    pub shard_score_micros: Vec<(usize, u64)>,
    /// The per-request k-way merges across the batch.
    pub merge_micros: u64,
}

impl StageTrace {
    /// A cleared trace ready for one batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slowest shard's scoring time — the critical path through the
    /// parallel shard fan-out.
    pub fn max_shard_micros(&self) -> u64 {
        self.shard_score_micros.iter().map(|&(_, us)| us).max().unwrap_or(0)
    }
}
