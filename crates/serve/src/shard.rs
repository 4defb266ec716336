//! Row-wise sharding of the candidate matrix and the score plan that serves
//! it.
//!
//! The scoring head of every model in this workspace is `r = q · Wᵀ`: a
//! per-user query against the rows of the candidate-embedding matrix `W`.
//! That structure shards trivially — split `W` row-wise into
//! [`Shard`]s, score each shard independently with the existing GEMV/GEMM
//! kernels, rank each shard locally, and merge the per-shard top-k lists
//! into the global top-k with a k-way heap.
//!
//! ## The score plan
//!
//! Every entry point — [`ShardedCatalog::top_k`] / [`top_k_batch`],
//! `ServingModel::recommend` / `recommend_batch` and the server — serves
//! through one plan of two steps:
//!
//! * **per shard** (`ShardedCatalog::score_shard`): route (an IVF shard
//!   picks each request's top-`nprobe` clusters; a flat shard is one
//!   panel), scan the visited panels (the certified int8 scan for a one-row
//!   batch, an f32 GEMM otherwise), and the masked select of each request's
//!   shortlist;
//! * **per request** (`ShardedCatalog::merge_requests`): the k-way merge
//!   of the shortlists of the shards that answered.
//!
//! The only execution parameter is where the per-shard steps run — inline
//! on the caller, on a pool scope, or on the server's deadline-bounded
//! executor (`degrade`).
//!
//! [`top_k_batch`]: ShardedCatalog::top_k_batch
//!
//! ## Exactness
//!
//! The merge is *exact*, not approximate: any item of the global top-k is by
//! definition among the best `k` of its own shard, so per-shard top-k lists
//! of length `min(k, shard_len)` are guaranteed to contain every global
//! winner. The ordering is bit-identical to the single-node path because
//!
//! * per-row dot products do not change when the rows move into a shard
//!   (the GEMV kernel scores each row independently), and the packed-panel
//!   GEMM accumulates every output element in ascending-`k` order regardless
//!   of how the rows are grouped into panels — so shard scores equal the
//!   corresponding single-node scores bit for bit;
//! * per-shard ranking uses the same fused mask+select kernel as the
//!   single-node path (seen items participate with an effective `-inf`, so
//!   even the degenerate "fewer than k unseen items" padding matches); and
//! * the merge comparator is the same total preference (higher score first,
//!   ties to the lower global item id) used by `top_k_indices`.
//!
//! ## The certified int8 scan
//!
//! Every shard and IVF panel carries an int8 snapshot ([`QuantizedMatrix`])
//! built once at construction, with each row's measured element error and
//! L1 norm. A
//! one-row scan reads the snapshot instead of the f32 rows (¼ of the
//! bytes) and serves the same bits as the f32 GEMV:
//!
//! 1. the int8 GEMV gives every row an approximate score `a_j`;
//! 2. [`ScoreBound`] gives a rigorous `b_j ≥ |s_j − a_j|`, where `s_j` is
//!    the f32 score the tier's `dot` computes for the row;
//! 3. with `L` the `k`-th largest lower bound `a_j − b_j` among unseen
//!    rows, at least `k` unseen rows score `≥ L`, so every row of the f32
//!    top-k has `a_j + b_j ≥ L` — those rows are the certified candidates;
//! 4. the candidates are re-scored with `kernels::dot_rows_into` (the very
//!    `dot` chain of the GEMV) and ranked with the same select, so served
//!    ids, order and score bits equal the f32 path by construction.
//!
//! A panel falls back to the f32 GEMV for a request when no bound covers it:
//! a non-finite query or row, a shape that could overflow, or fewer unseen
//! rows than the shortlist (the select then pads with seen rows).

use crate::ivf::{ClusterIndex, IvfConfig, PROBE_ALL};
use crate::trace::StageTrace;
use ham_data::dataset::ItemId;
use ham_tensor::kernels;
use ham_tensor::ops::{top_k_indices, top_k_indices_masked, top_k_indices_masked_with};
use ham_tensor::pool::ThreadPool;
use ham_tensor::{Matrix, QuantizedMatrix, QuantizedQuery, ScoreBound};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// One recommended item with its model score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredItem {
    /// Global catalogue item id.
    pub item: ItemId,
    /// The model score (`-inf` for masked items padding a degenerate tail).
    pub score: f32,
}

/// A contiguous row range of the candidate matrix, owned by one shard.
#[derive(Debug, Clone)]
pub struct Shard {
    offset: usize,
    rows: Matrix,
    /// Int8 snapshot of `rows` with the certified scan's per-row bound terms.
    quantized: QuantizedMatrix,
    /// Inverted-file index over `rows` for cluster-routed retrieval
    /// (`None` until [`ShardedCatalog::with_cluster_index`]).
    ivf: Option<ClusterIndex>,
}

impl Shard {
    /// Copies and snapshots the rows `offset..offset + len` of `w` in one
    /// pass.
    fn build(w: &Matrix, offset: usize, len: usize) -> Self {
        let d = w.cols();
        let (rows, quantized) = QuantizedMatrix::quantize_copy(&w.as_slice()[offset * d..(offset + len) * d], len, d);
        Self { offset, rows, quantized, ivf: None }
    }

    /// Global item id of the shard's first row.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Number of items in the shard.
    pub fn len(&self) -> usize {
        self.rows.rows()
    }

    /// True when the shard holds no items (more shards than items).
    pub fn is_empty(&self) -> bool {
        self.rows.rows() == 0
    }

    /// The shard's slice of the candidate matrix.
    pub fn rows(&self) -> &Matrix {
        &self.rows
    }

    /// The shard's int8 snapshot (the certified scan reads it).
    pub fn quantized(&self) -> &QuantizedMatrix {
        &self.quantized
    }

    /// Number of IVF clusters over this shard (0 when no index was built).
    pub fn num_clusters(&self) -> usize {
        self.ivf.as_ref().map_or(0, ClusterIndex::num_clusters)
    }

    /// Panel `j` of the shard: IVF cluster `j`, or the whole shard when it
    /// carries no index (then `j` is 0, the only panel).
    fn panel(&self, j: usize) -> Panel<'_> {
        match &self.ivf {
            Some(index) => Panel { rows: index.panel(j), qrows: index.qpanel(j), ids: Some(index.cluster_ids(j)) },
            None => Panel { rows: &self.rows, qrows: &self.quantized, ids: None },
        }
    }

    /// Number of panels a request can visit.
    fn num_panels(&self) -> usize {
        self.ivf.as_ref().map_or(1, ClusterIndex::num_clusters)
    }

    /// Length of the longest panel (score-buffer sizing).
    fn max_panel_len(&self) -> usize {
        self.ivf.as_ref().map_or(self.len(), ClusterIndex::max_panel_len)
    }
}

/// One scan unit of a shard: the whole shard, or one IVF cluster panel.
struct Panel<'a> {
    rows: &'a Matrix,
    /// The int8 snapshot of `rows`.
    qrows: &'a QuantizedMatrix,
    /// Shard-local id of each panel row, ascending (`None`: the whole shard,
    /// where the panel row is the shard row).
    ids: Option<&'a [usize]>,
}

impl Panel<'_> {
    fn len(&self) -> usize {
        self.rows.rows()
    }

    /// Shard-local id of panel row `p`.
    fn id(&self, p: usize) -> usize {
        self.ids.map_or(p, |ids| ids[p])
    }

    /// The one-row scan and select: the masked top-`select_k` of `query`
    /// over the panel as global ids (`offset` + shard-local id). Equal, bit
    /// for bit, to [`select`] over the f32 GEMV; read through the int8
    /// snapshot wherever `bound` covers it (module docs).
    // ham-lint: hot-path
    fn scan_select(
        &self,
        offset: usize,
        query: &[f32],
        bound: Option<&ScoreBound>,
        select_k: usize,
        seen: Option<&[bool]>,
        scratch: &mut ScanScratch,
    ) -> Vec<ScoredItem> {
        let ScanScratch { scores, qquery, floor, candidates, exact } = scratch;
        let approx = &mut scores[..self.len()];
        if let Some(bound) = bound.filter(|b| (1..approx.len()).contains(&select_k) && b.covers(self.qrows)) {
            kernels::quantized_matvec_into(self.qrows, qquery, approx);
            if self.certify(bound, approx, select_k, seen, floor, candidates) {
                grow(exact, candidates.len(), 0.0);
                let exact = &mut exact[..candidates.len()];
                kernels::dot_rows_into(self.rows, candidates, query, exact);
                return top_k_indices(exact, select_k)
                    .into_iter()
                    .map(|c| ScoredItem { item: offset + self.id(candidates[c]), score: exact[c] })
                    // ham-lint: allow(alloc, "the returned shortlist, select_k items")
                    .collect();
            }
        }
        self.rows.matvec_transposed_into(query, approx);
        select(offset, self.ids, approx, select_k, seen)
    }

    /// The certification pass over the int8 scores `approx`: collects into
    /// `candidates` (ascending panel rows) every unseen row whose upper
    /// bound reaches `L`, the `select_k`-th largest lower bound among unseen
    /// rows — a superset of the f32 top-`select_k`.
    ///
    /// One pass in blocks of [`CERTIFY_LANES`] rows: `floor`, a min-heap of
    /// the `select_k` best lower bounds so far, gives the running `L`, which
    /// only rises; a row is kept when its upper bound reaches the running
    /// `L`, and the kept rows are filtered once more against the final one.
    /// The bounds of a block are compared branch-free into bitmasks, so the
    /// per-row work is a few vector lanes; the heap and the candidate list
    /// see only the rare rows that pass. Returns false when fewer than
    /// `select_k` rows are unseen (the f32 select would pad with seen rows).
    // ham-lint: hot-path
    fn certify(
        &self,
        bound: &ScoreBound,
        approx: &[f32],
        select_k: usize,
        seen: Option<&[bool]>,
        floor: &mut BinaryHeap<Reverse<Bound>>,
        candidates: &mut Vec<usize>,
    ) -> bool {
        let (errors, l1_norms) = (self.qrows.errors(), self.qrows.l1_norms());
        let radius = |p: usize| bound.row(errors[p], l1_norms[p], approx[p]);
        let unseen = |p: usize| !seen.is_some_and(|bits| bits[self.id(p)]);
        floor.clear();
        candidates.clear();
        let mut level = f32::NEG_INFINITY;
        let mut admit = |p: usize, level: &mut f32| {
            let lower = approx[p] - radius(p);
            if floor.len() < select_k {
                floor.push(Reverse(Bound(lower)));
            } else if lower > *level {
                if let Some(mut top) = floor.peek_mut() {
                    *top = Reverse(Bound(lower));
                }
            }
            if floor.len() == select_k {
                *level = floor.peek().map_or(*level, |top| top.0 .0);
            }
        };
        let blocks = approx
            .chunks_exact(CERTIFY_LANES)
            .zip(errors.chunks_exact(CERTIFY_LANES))
            .zip(l1_norms.chunks_exact(CERTIFY_LANES));
        let tail = approx.len() - approx.len() % CERTIFY_LANES;
        for (block, ((a, error), l1)) in blocks.enumerate() {
            let (mut reach, mut rise) = (0u32, 0u32);
            for l in 0..CERTIFY_LANES {
                let r = bound.row(error[l], l1[l], a[l]);
                reach |= u32::from(a[l] + r >= level) << l;
                rise |= u32::from(a[l] - r > level) << l;
            }
            let base = block * CERTIFY_LANES;
            for p in lanes_of(base, rise).filter(|&p| unseen(p)) {
                admit(p, &mut level);
            }
            candidates.extend(lanes_of(base, reach).filter(|&p| unseen(p)));
        }
        for p in tail..approx.len() {
            if unseen(p) {
                admit(p, &mut level);
                candidates.push(p);
            }
        }
        if floor.len() < select_k {
            return false;
        }
        candidates.retain(|&p| approx[p] + radius(p) >= level);
        true
    }

    /// The batched scan: every query row of `plan` against every panel row
    /// (the f32 packed-panel GEMM), a `batch × len` block.
    fn scan_batch(&self, plan: &ScorePlan) -> Matrix {
        plan.queries.matmul_transposed(self.rows)
    }
}

/// Rows per block of the certification pass: one bit per row in the
/// block's bitmasks.
const CERTIFY_LANES: usize = 16;

/// The rows `base + l` for each set bit `l` of `mask`, ascending.
fn lanes_of(base: usize, mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            base + lane
        })
    })
}

/// A lower bound in the certification heap, ordered by `f32::total_cmp`
/// (the bounds over a covered panel are finite).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bound(f32);

impl Eq for Bound {}
impl PartialOrd for Bound {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bound {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The candidate matrix `W` split row-wise into shards.
#[derive(Debug, Clone)]
pub struct ShardedCatalog {
    shards: Vec<Shard>,
    num_items: usize,
    dim: usize,
    /// Clusters visited per shard per request on the IVF paths
    /// ([`crate::ivf::PROBE_ALL`] = every cluster, the exact endpoint).
    /// Ignored until a cluster index is built.
    nprobe: usize,
}

impl ShardedCatalog {
    /// Splits `w` into `num_shards` near-even contiguous row ranges (the
    /// first `n % num_shards` shards hold one extra row). Shards beyond the
    /// item count come out empty and are handled gracefully everywhere.
    ///
    /// Each shard copies its rows and builds their int8 snapshot in one
    /// pass; the shards are built in parallel on up to
    /// `available_parallelism` scoped threads.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero.
    pub fn from_matrix(w: &Matrix, num_shards: usize) -> Self {
        assert!(num_shards > 0, "ShardedCatalog: need at least one shard");
        let (n, d) = w.shape();
        let (base, extra) = (n / num_shards, n % num_shards);
        let ranges: Vec<(usize, usize)> = (0..num_shards)
            .scan(0, |offset, s| {
                let len = base + usize::from(s < extra);
                *offset += len;
                Some((*offset - len, len))
            })
            .collect();
        let build = |part: &[(usize, usize)]| -> Vec<Shard> {
            part.iter().map(|&(offset, len)| Shard::build(w, offset, len)).collect()
        };
        let threads = std::thread::available_parallelism().map_or(1, usize::from).min(num_shards);
        let shards = if threads <= 1 {
            build(&ranges)
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> =
                    ranges.chunks(num_shards.div_ceil(threads)).map(|part| scope.spawn(move || build(part))).collect();
                workers
                    .into_iter()
                    .flat_map(|worker| worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                    .collect()
            })
        };
        Self { shards, num_items: n, dim: d, nprobe: PROBE_ALL }
    }

    /// Builds a per-shard inverted-file index ([`ClusterIndex`]) with the
    /// deterministic seeded k-means and switches serving to the
    /// cluster-routed IVF paths, visiting `config.nprobe` clusters per shard
    /// per request. With `nprobe = all` (the [`IvfConfig::auto`] default)
    /// results stay bit-identical to the exact paths; narrower probes trade
    /// measured recall for sub-linear scan cost.
    pub fn with_cluster_index(mut self, config: &IvfConfig) -> Self {
        for shard in &mut self.shards {
            shard.ivf = Some(ClusterIndex::build(&shard.rows, config, shard.offset as u64));
        }
        self.nprobe = config.nprobe.max(1);
        self
    }

    /// Re-dials the probe width on an already-built index (cheap — no
    /// rebuild). No-op semantics aside, serving with `nprobe = all` is the
    /// verified exact endpoint.
    pub fn with_nprobe(mut self, nprobe: usize) -> Self {
        self.nprobe = nprobe.max(1);
        self
    }

    /// Clusters visited per shard per request on the IVF paths.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// Whether every shard carries a cluster index (serving then routes
    /// through the IVF paths).
    pub fn is_clustered(&self) -> bool {
        self.shards.iter().all(|s| s.ivf.is_some())
    }

    /// Total (non-empty) clusters across shards, 0 when unclustered.
    pub fn num_clusters(&self) -> usize {
        self.shards.iter().map(Shard::num_clusters).sum()
    }

    /// Clusters a request visits across all shards: `min(nprobe, clusters)`
    /// summed per shard. Deterministic per catalogue (routing picks *which*
    /// clusters, never how many), so responses can report it as retrieval
    /// metadata. 0 when the catalogue is unclustered (exact serving).
    pub fn clusters_probed(&self) -> usize {
        self.clusters_probed_by(0..self.shards.len())
    }

    /// [`Self::clusters_probed`] summed over `shards` only — what a
    /// response that dropped shards actually visited.
    pub(crate) fn clusters_probed_by(&self, shards: impl IntoIterator<Item = usize>) -> usize {
        if !self.is_clustered() {
            return 0;
        }
        shards.into_iter().map(|s| self.nprobe.min(self.shards[s].num_clusters())).sum()
    }

    /// Number of shards (including empty ones).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total catalogue size across shards.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Embedding dimension of the candidate rows.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The shards, in global row order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Scores one query against one shard's f32 rows into a caller-provided
    /// buffer (overwritten) — the f32 GEMV whose bits the certified scan
    /// reproduces, exposed as the reference a caller can time and rank apart
    /// from the served path.
    ///
    /// # Panics
    /// Panics if `out.len()` is not the shard's length.
    // ham-lint: hot-path
    pub fn shard_scores_into(&self, shard: usize, query: &[f32], out: &mut [f32]) {
        self.shards[shard].rows.matvec_transposed_into(query, out);
    }

    /// Ranks one shard's score slice locally: top `min(k, len)` items as
    /// global ids, masking seen items shard-locally through the global
    /// bitmap (fused mask+select — the score slice is never written).
    pub fn shard_top_k(&self, shard: usize, shard_scores: &[f32], k: usize, seen: Option<&[bool]>) -> Vec<ScoredItem> {
        let s = &self.shards[shard];
        assert_eq!(
            shard_scores.len(),
            s.len(),
            "shard_top_k: {} scores for a {}-item shard",
            shard_scores.len(),
            s.len()
        );
        select(s.offset, None, shard_scores, k, seen.map(|bits| &bits[s.offset..s.offset + s.len()]))
    }

    /// Exact global top-k for one query: the per-shard certified scan and
    /// local ranking, then the k-way merge. `seen` is the global seen-item bitmap (length
    /// `num_items`) or `None` to rank the full catalogue.
    ///
    /// Bit-identical to scoring the unsharded matrix and ranking once, for
    /// any shard count; on a clustered catalogue with `nprobe = all` too.
    pub fn top_k(&self, query: &[f32], k: usize, seen: Option<&[bool]>) -> Vec<ScoredItem> {
        let seen = seen.map(|bits| (0..self.num_items).filter(|&item| bits[item]).collect());
        let plan = ScorePlan::new(Matrix::row_vector(query), vec![k], vec![seen]);
        self.run(&plan, None).pop().unwrap_or_default()
    }

    /// Exact global top-k for a query batch: one packed-panel GEMM per shard
    /// (shards scored in parallel on `pool` when given), then per-row local
    /// ranking and merging. `ks[i]` and `seen_items[i]` apply to query row
    /// `i`; a row's seen items are the item ids to exclude (`None` ranks the
    /// full catalogue; ids outside the catalogue are ignored). A one-row
    /// batch takes the certified scan of [`Self::top_k`].
    ///
    /// # Panics
    /// Panics if `ks` or `seen_items` do not have one entry per query row.
    pub fn top_k_batch(
        &self,
        queries: &Matrix,
        ks: &[usize],
        seen_items: &[Option<&[ItemId]>],
        pool: Option<&ThreadPool>,
    ) -> Vec<Vec<ScoredItem>> {
        let b = queries.rows();
        assert_eq!(ks.len(), b, "top_k_batch: {} k values for {} queries", ks.len(), b);
        assert_eq!(seen_items.len(), b, "top_k_batch: {} seen lists for {} queries", seen_items.len(), b);
        let seen = seen_items.iter().map(|items| items.map(<[ItemId]>::to_vec)).collect();
        self.run(&ScorePlan::new(queries.clone(), ks.to_vec(), seen), pool)
    }

    /// Runs `plan`: every shard's step inline on the caller or — given a
    /// `pool` and more than one non-empty shard — in parallel on
    /// `pool.scope`, then the per-request step.
    pub(crate) fn run(&self, plan: &ScorePlan, pool: Option<&ThreadPool>) -> Vec<Vec<ScoredItem>> {
        let mut shortlists: Vec<Shortlists> = vec![Vec::new(); self.shards.len()];
        match pool {
            Some(pool) if self.shards.iter().filter(|s| !s.is_empty()).count() > 1 => pool.scope(|scope| {
                for (s, lists) in shortlists.iter_mut().enumerate() {
                    scope.spawn(move || *lists = self.score_shard(s, plan, &mut ShardScratch::default()));
                }
            }),
            _ => {
                let mut scratch = ShardScratch::default();
                for (s, lists) in shortlists.iter_mut().enumerate() {
                    *lists = self.score_shard(s, plan, &mut scratch);
                }
            }
        }
        self.merge_requests(plan, shortlists, None)
    }

    /// The per-shard step of the plan: route (an IVF shard picks each
    /// request's top-`nprobe` clusters with a centroid GEMV; a flat shard is
    /// one panel), scan the visited panels (the certified int8 scan for a
    /// one-row plan, one f32 GEMM per visited panel over the whole batch
    /// otherwise), then select each request's masked top-`k` as global ids —
    /// its shortlist for the per-request merge. Seen items take part at
    /// `-inf` through the panel→global id translation, so tie-breaks and
    /// degenerate padding match the single-node select.
    ///
    /// Score, route, seen-bitmap and certification buffers come from
    /// `scratch`, which the caller reuses across requests.
    // ham-lint: hot-path
    pub(crate) fn score_shard(&self, s: usize, plan: &ScorePlan, scratch: &mut ShardScratch) -> Shortlists {
        let shard = &self.shards[s];
        let b = plan.len();
        if shard.is_empty() {
            // ham-lint: allow(alloc, "an empty shard answers with an empty shortlist per request")
            return vec![Vec::new(); b];
        }
        scratch.fit(shard);
        let ShardScratch { scan, route, seen } = scratch;
        let seen = &mut seen[..shard.len()];
        let visited = self.route(shard, plan, route);
        let mut blocks: Vec<Option<Matrix>> = Vec::new(); // ham-lint: allow(alloc, "empty unless the batch has several rows")
        let mut bound = None;
        if b > 1 {
            blocks.resize(shard.num_panels(), None);
            for &j in visited.iter().flatten() {
                if blocks[j].is_none() {
                    blocks[j] = Some(shard.panel(j).scan_batch(plan));
                }
            }
        } else {
            scan.qquery.requantize(plan.queries.row(0));
            bound = ScoreBound::new(plan.queries.row(0), &scan.qquery);
        }
        // ham-lint: allow(alloc, "the returned shortlists are the step's output, k items per request")
        let mut out = Vec::with_capacity(b);
        for (i, visited) in visited.iter().enumerate() {
            let history = plan.seen[i].as_deref();
            if let Some(items) = history {
                mark(seen, shard.offset, items, true);
            }
            let bits = history.is_some().then_some(&*seen);
            let k = plan.ks[i];
            // ham-lint: allow(alloc, "one shortlist per visited panel, k items each")
            let mut lists = Vec::with_capacity(visited.len());
            for &j in visited {
                let panel = shard.panel(j);
                lists.push(match blocks.get(j) {
                    Some(block) => {
                        // ham-lint: allow(panic, "the batched scan above scored every visited panel")
                        let scores = block.as_ref().expect("visited panel left unscored").row(i);
                        select(shard.offset, panel.ids, scores, k, bits)
                    }
                    None => panel.scan_select(shard.offset, plan.queries.row(i), bound.as_ref(), k, bits, scan),
                });
            }
            if let Some(items) = history {
                mark(seen, shard.offset, items, false);
            }
            out.push(if lists.len() == 1 { lists.swap_remove(0) } else { merge_top_k(&lists, k) });
        }
        out
    }

    /// The route of the per-shard step: the panels each request visits —
    /// the top-`nprobe` clusters by centroid score (GEMV into `route`), or
    /// the whole shard.
    // ham-lint: hot-path
    fn route(&self, shard: &Shard, plan: &ScorePlan, route: &mut [f32]) -> Vec<Vec<usize>> {
        (0..plan.len())
            .map(|i| match &shard.ivf {
                Some(index) => {
                    let route = &mut route[..index.num_clusters()];
                    index.centroids().matvec_transposed_into(plan.queries.row(i), route);
                    top_k_indices(route, self.nprobe.min(route.len()))
                }
                // ham-lint: allow(alloc, "a one-entry visit list")
                None => vec![0],
            })
            // ham-lint: allow(alloc, "one visit list per request, nprobe entries each")
            .collect()
    }

    /// The per-request step of the plan: each request's k-way merge over the
    /// shortlists of the shards that answered (`answered`, one entry per
    /// shard that made it). `trace` receives the merge timing.
    pub(crate) fn merge_requests(
        &self,
        plan: &ScorePlan,
        mut answered: Vec<Shortlists>,
        trace: Option<&mut StageTrace>,
    ) -> Vec<Vec<ScoredItem>> {
        let started = trace.is_some().then(Instant::now);
        let out = (0..plan.len())
            .map(|i| {
                let lists: Vec<Vec<ScoredItem>> =
                    answered.iter_mut().map(|shard| std::mem::take(&mut shard[i])).collect();
                merge_top_k(&lists, plan.ks[i])
            })
            .collect();
        if let (Some(trace), Some(at)) = (trace, started) {
            trace.merge_micros = at.elapsed().as_micros() as u64;
        }
        out
    }
}

/// One shard's answer to a plan: a shortlist per request, batch order.
pub(crate) type Shortlists = Vec<Vec<ScoredItem>>;

/// One batch as the score plan sees it: the query rows and each request's
/// `k` and seen history. Owned, so the server's executor tasks can share it
/// behind an `Arc`.
#[derive(Debug)]
pub(crate) struct ScorePlan {
    queries: Matrix,
    ks: Vec<usize>,
    /// Item ids each request excludes (`None` ranks the full catalogue).
    seen: Vec<Option<Vec<ItemId>>>,
}

impl ScorePlan {
    /// A plan over `queries` (one row per request).
    pub(crate) fn new(queries: Matrix, ks: Vec<usize>, seen: Vec<Option<Vec<ItemId>>>) -> Self {
        Self { queries, ks, seen }
    }

    /// Number of requests.
    pub(crate) fn len(&self) -> usize {
        self.queries.rows()
    }
}

/// Working buffers of the per-shard step, reused across requests by whoever
/// runs it (an executor worker, or the caller of a direct entry point): the
/// certified scan's buffers, the centroid-score buffer and the shard-local
/// seen bitmap. Invariant between steps: the bitmap is all-clear.
#[derive(Debug, Default)]
pub(crate) struct ShardScratch {
    scan: ScanScratch,
    route: Vec<f32>,
    seen: Vec<bool>,
}

impl ShardScratch {
    /// Grows the buffers to `shard`'s sizes (a no-op once they fit).
    fn fit(&mut self, shard: &Shard) {
        grow(&mut self.scan.scores, shard.max_panel_len(), 0.0);
        grow(&mut self.route, shard.num_clusters(), 0.0);
        grow(&mut self.seen, shard.len(), false);
    }

    /// Restores the all-clear bitmap after a step panicked mid-request.
    pub(crate) fn reset(&mut self) {
        self.seen.fill(false);
    }
}

/// Buffers of the one-row scan ([`Panel::scan_select`]): the panel score
/// buffer (int8 scores, or the f32 GEMV on a fallback), the quantized
/// query, the heap of the `k` best lower bounds, the certified candidates
/// and their f32 re-scores.
#[derive(Debug)]
struct ScanScratch {
    scores: Vec<f32>,
    qquery: QuantizedQuery,
    floor: BinaryHeap<Reverse<Bound>>,
    candidates: Vec<usize>,
    exact: Vec<f32>,
}

impl Default for ScanScratch {
    fn default() -> Self {
        Self {
            scores: Vec::new(),
            qquery: QuantizedQuery::quantize(&[]),
            floor: BinaryHeap::new(),
            candidates: Vec::new(),
            exact: Vec::new(),
        }
    }
}

fn grow<T: Clone>(buf: &mut Vec<T>, len: usize, value: T) {
    if buf.len() < len {
        buf.resize(len, value);
    }
}

/// Sets (or clears) the shard-local bits of `items` in `bits`, the bitmap
/// of the shard starting at global id `offset`; ids outside the shard are
/// ignored. O(history).
fn mark(bits: &mut [bool], offset: usize, items: &[ItemId], value: bool) {
    for &item in items {
        if let Some(bit) = item.checked_sub(offset).and_then(|local| bits.get_mut(local)) {
            *bit = value;
        }
    }
}

/// The masked select of one panel: its top `select_k` rows as global ids
/// (`offset` + the shard-local id, through `ids` for a cluster panel).
/// `local_seen` is the seen bitmap in shard-local index space; masked rows
/// take part at `-inf`, and since panel ids ascend, the panel-index
/// tie-break is the global-id tie-break.
fn select(
    offset: usize,
    ids: Option<&[usize]>,
    scores: &[f32],
    select_k: usize,
    local_seen: Option<&[bool]>,
) -> Vec<ScoredItem> {
    let id = |p: usize| ids.map_or(p, |ids| ids[p]);
    let local = match (local_seen, ids) {
        (None, _) => top_k_indices(scores, select_k),
        (Some(bits), None) => top_k_indices_masked(scores, select_k, bits),
        (Some(bits), Some(ids)) => top_k_indices_masked_with(scores, select_k, |p| bits[ids[p]]),
    };
    local
        .into_iter()
        .map(|p| {
            let masked = local_seen.is_some_and(|bits| bits[id(p)]);
            let score = if masked { f32::NEG_INFINITY } else { scores[p] };
            ScoredItem { item: offset + id(p), score }
        })
        .collect()
}

/// "Better recommendation" ordering: higher score wins, ties go to the lower
/// global item id; NaN compares equal to everything (same convention as
/// `top_k_indices`).
fn better(a: &ScoredItem, b: &ScoredItem) -> std::cmp::Ordering {
    a.score.partial_cmp(&b.score).unwrap_or(std::cmp::Ordering::Equal).then(b.item.cmp(&a.item))
}

/// Head of one per-shard list inside the k-way merge heap.
struct MergeHead {
    entry: ScoredItem,
    list: usize,
    pos: usize,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        better(&self.entry, &other.entry) == std::cmp::Ordering::Equal
    }
}
impl Eq for MergeHead {}
impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        better(&self.entry, &other.entry)
    }
}

/// Merges per-shard top-k lists (each sorted by descending preference) into
/// the exact global top-k with a k-way heap: `O(total log s)` for `s` lists.
///
/// Returns fewer than `k` items only when the lists hold fewer than `k`
/// entries in total (k larger than the catalogue).
pub fn merge_top_k(per_shard: &[Vec<ScoredItem>], k: usize) -> Vec<ScoredItem> {
    let mut heap: std::collections::BinaryHeap<MergeHead> = per_shard
        .iter()
        .enumerate()
        .filter_map(|(list, items)| items.first().map(|&entry| MergeHead { entry, list, pos: 0 }))
        .collect();
    let mut out = Vec::with_capacity(k.min(per_shard.iter().map(Vec::len).sum()));
    while out.len() < k {
        let Some(head) = heap.pop() else { break };
        out.push(head.entry);
        if let Some(&next) = per_shard[head.list].get(head.pos + 1) {
            heap.push(MergeHead { entry: next, list: head.list, pos: head.pos + 1 });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue(n: usize, d: usize) -> Matrix {
        Matrix::from_vec(n, d, (0..n * d).map(|i| ((i * 37) % 23) as f32 * 0.5 - 5.0).collect())
    }

    #[test]
    fn shards_partition_the_catalogue() {
        let w = catalogue(10, 4);
        let cat = ShardedCatalog::from_matrix(&w, 3);
        assert_eq!(cat.num_shards(), 3);
        let lens: Vec<usize> = cat.shards().iter().map(Shard::len).collect();
        assert_eq!(lens, vec![4, 3, 3]);
        let offsets: Vec<usize> = cat.shards().iter().map(Shard::offset).collect();
        assert_eq!(offsets, vec![0, 4, 7]);
        // Row 6 of the catalogue is row 2 of shard 1.
        assert_eq!(cat.shards()[1].rows().row(2), w.row(6));
    }

    #[test]
    fn more_shards_than_items_yields_empty_shards() {
        let w = catalogue(2, 3);
        let cat = ShardedCatalog::from_matrix(&w, 5);
        assert_eq!(cat.num_shards(), 5);
        assert_eq!(cat.shards().iter().filter(|s| s.is_empty()).count(), 3);
        let q = vec![1.0; 3];
        let top = cat.top_k(&q, 2, None);
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn sharded_top_k_equals_unsharded_for_every_shard_count() {
        let w = catalogue(57, 8);
        let q: Vec<f32> = (0..8).map(|i| (i as f32 * 0.3).sin()).collect();
        let reference: Vec<usize> = top_k_indices(&w.matvec_transposed(&q), 10);
        for shards in 1..=8 {
            let cat = ShardedCatalog::from_matrix(&w, shards);
            let ids: Vec<usize> = cat.top_k(&q, 10, None).iter().map(|s| s.item).collect();
            assert_eq!(ids, reference, "shards = {shards}");
        }
    }

    #[test]
    fn certified_scan_rescores_a_small_candidate_set() {
        let (n, d) = (4000, 24);
        let w = Matrix::from_vec(n, d, (0..n * d).map(|i| ((i * 7919) % 1013) as f32 / 506.5 - 1.0).collect());
        let q: Vec<f32> = (0..d).map(|k| (k as f32 * 0.37).sin()).collect();
        let cat = ShardedCatalog::from_matrix(&w, 1);
        let shard = &cat.shards()[0];
        let mut scratch = ShardScratch::default();
        scratch.fit(shard);
        scratch.scan.qquery.requantize(&q);
        let bound = ScoreBound::new(&q, &scratch.scan.qquery).expect("a finite query has a bound");
        let got = shard.panel(0).scan_select(0, &q, Some(&bound), 10, None, &mut scratch.scan);
        let candidates = scratch.scan.candidates.len();
        assert!((10..n / 20).contains(&candidates), "{candidates} certified candidates of {n}");
        let ids: Vec<usize> = got.iter().map(|s| s.item).collect();
        assert_eq!(ids, top_k_indices(&w.matvec_transposed(&q), 10));
    }

    #[test]
    fn merge_breaks_ties_by_lower_item_id() {
        // Two shards, tied scores at the boundary: the lower global id wins,
        // exactly like the single-node tie-break.
        let lists = vec![
            vec![ScoredItem { item: 0, score: 1.0 }, ScoredItem { item: 1, score: 0.5 }],
            vec![ScoredItem { item: 5, score: 1.0 }, ScoredItem { item: 6, score: 0.5 }],
        ];
        let merged = merge_top_k(&lists, 3);
        let ids: Vec<usize> = merged.iter().map(|s| s.item).collect();
        assert_eq!(ids, vec![0, 5, 1]);
    }

    #[test]
    fn merge_with_fewer_candidates_than_k_returns_all() {
        let lists = vec![vec![ScoredItem { item: 2, score: 0.1 }], vec![]];
        assert_eq!(merge_top_k(&lists, 10).len(), 1);
        assert!(merge_top_k(&[], 3).is_empty());
    }

    #[test]
    fn masking_is_shard_local_but_globally_consistent() {
        let w = catalogue(20, 4);
        let q = vec![0.5, -0.25, 1.0, 0.125];
        let seen: Vec<bool> = (0..20).map(|i| i % 3 == 0).collect();
        let reference = top_k_indices_masked(&w.matvec_transposed(&q), 6, &seen);
        for shards in [1, 2, 4, 7] {
            let cat = ShardedCatalog::from_matrix(&w, shards);
            let ids: Vec<usize> = cat.top_k(&q, 6, Some(&seen)).iter().map(|s| s.item).collect();
            assert_eq!(ids, reference, "shards = {shards}");
        }
    }

    #[test]
    fn batch_path_matches_single_query_gemm_reference() {
        let w = catalogue(33, 8);
        let mut queries = Matrix::zeros(3, 8);
        for i in 0..3 {
            for j in 0..8 {
                queries.set(i, j, ((i * 8 + j) as f32 * 0.21).cos());
            }
        }
        // Row 1 excludes its "history" (every 5th item, plus an
        // out-of-catalogue id that must be ignored); rows 0 and 2 rank all.
        let history: Vec<usize> = (0..33).step_by(5).chain([999]).collect();
        let seen_lists = [None, Some(history.as_slice()), None];
        let cat = ShardedCatalog::from_matrix(&w, 4);
        let got = cat.top_k_batch(&queries, &[5, 5, 33], &seen_lists, None);
        // Reference: unsharded GEMM row + the same fused masked ranking.
        let bits: Vec<bool> = (0..33).map(|i| i % 5 == 0).collect();
        let full = queries.matmul_transposed(&w);
        for i in 0..3 {
            let k = [5, 5, 33][i];
            let reference = match seen_lists[i] {
                Some(_) => top_k_indices_masked(full.row(i), k, &bits),
                None => top_k_indices(full.row(i), k),
            };
            let ids: Vec<usize> = got[i].iter().map(|s| s.item).collect();
            assert_eq!(ids, reference, "row {i}");
        }
        // The scratch bitmap is cleared between rows: a second batch with no
        // exclusions must rank the full catalogue for every row.
        let unmasked = cat.top_k_batch(&queries, &[5, 5, 5], &[None, None, None], None);
        assert_eq!(
            unmasked[1].iter().map(|s| s.item).collect::<Vec<_>>(),
            top_k_indices(full.row(1), 5),
            "no residual masking"
        );
    }
}
