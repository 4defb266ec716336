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
//! Every entry point — [`ShardedCatalog::top_k`] / [`top_k_batch`] /
//! [`quantized_top_k`], `ServingModel::recommend` / `recommend_batch` and
//! the server — serves through one plan of two steps:
//!
//! * **per shard** (`ShardedCatalog::score_shard`): route (an IVF shard
//!   picks each request's top-`nprobe` clusters; a flat shard is one
//!   panel), scan the visited panels (f32 or int8; a GEMV for a one-row
//!   batch, a GEMM otherwise), and the masked select of each request's
//!   shortlist;
//! * **per request** (`ShardedCatalog::merge_requests`): the k-way merge
//!   of the shortlists of the shards that answered, then the exact re-rank
//!   on the int8 tier.
//!
//! Tiers are parameters of the plan (`ScorePlan`), not method families;
//! the only execution parameter is where the per-shard steps run — inline
//! on the caller, on a pool scope, or on the server's deadline-bounded
//! executor (`degrade`).
//!
//! [`top_k_batch`]: ShardedCatalog::top_k_batch
//! [`quantized_top_k`]: ShardedCatalog::quantized_top_k
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
//! ## The quantized candidate path
//!
//! [`ShardedCatalog::with_quantization`] snapshots every shard's rows as an
//! int8 [`QuantizedMatrix`] panel alongside the f32 original. An int8 plan
//! ([`ShardedCatalog::quantized_top_k`]) then scores each shard against the
//! i8 panel (¼ of the memory traffic), pre-selects the quantized top-`2k`
//! per shard through the same fused mask+select kernel, merges, and
//! **re-ranks the merged candidates with the exact f32 per-row dot** — the
//! very kernel chain the exact GEMV path uses — so the served top-k is
//! bit-identical to the exact path whenever the exact winners survive the
//! 2k pre-selection (the recall guardrail pinned by the serving
//! test-suite, not a silent approximation). Quantized pre-selection scores
//! are integer-accumulated and therefore bit-identical across tiers and
//! shard counts by construction.

use crate::ivf::{ClusterIndex, IvfConfig, PROBE_ALL};
use crate::trace::StageTrace;
use ham_data::dataset::ItemId;
use ham_tensor::kernels;
use ham_tensor::ops::{top_k_indices, top_k_indices_masked, top_k_indices_masked_with};
use ham_tensor::pool::ThreadPool;
use ham_tensor::{Matrix, QuantizedMatrix, QuantizedQuery};
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
    /// Int8 snapshot of `rows` for the quantized pre-selection path
    /// (`None` until [`ShardedCatalog::with_quantization`]).
    quantized: Option<QuantizedMatrix>,
    /// Inverted-file index over `rows` for cluster-routed retrieval
    /// (`None` until [`ShardedCatalog::with_cluster_index`]).
    ivf: Option<ClusterIndex>,
}

impl Shard {
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

    /// The shard's int8 panel, when the catalogue was quantized.
    pub fn quantized(&self) -> Option<&QuantizedMatrix> {
        self.quantized.as_ref()
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
            None => Panel { rows: &self.rows, qrows: self.quantized.as_ref(), ids: None },
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
    /// The int8 snapshot of `rows` (`None` on an unquantized catalogue).
    qrows: Option<&'a QuantizedMatrix>,
    /// Shard-local id of each panel row, ascending (`None`: the whole shard,
    /// where the panel row is the shard row).
    ids: Option<&'a [usize]>,
}

impl Panel<'_> {
    fn len(&self) -> usize {
        self.rows.rows()
    }

    fn qrows(&self) -> &QuantizedMatrix {
        // ham-lint: allow(panic, "int8 plans are only built for quantized catalogues, whose panels are all snapshotted")
        self.qrows.expect("int8 scan of an unquantized catalogue")
    }

    /// The one-row scan: query row `i` of `plan` against every panel row
    /// (f32 or int8 GEMV) into `out`.
    fn scan_into(&self, plan: &ScorePlan, i: usize, out: &mut [f32]) {
        match &plan.qqueries {
            Some(qq) => kernels::quantized_matvec_into(self.qrows(), &qq[i], out),
            None => self.rows.matvec_transposed_into(plan.queries.row(i), out),
        }
    }

    /// The batched scan: every query row of `plan` against every panel row
    /// (f32 or int8 packed-panel GEMM), a `batch × len` block.
    fn scan_batch(&self, plan: &ScorePlan) -> Matrix {
        match &plan.qqueries {
            Some(qq) => {
                let mut block = Matrix::zeros(qq.len(), self.len());
                kernels::quantized_matmul_transposed_into(qq, self.qrows(), &mut block);
                block
            }
            None => plan.queries.matmul_transposed(self.rows),
        }
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
    /// # Panics
    /// Panics if `num_shards` is zero.
    pub fn from_matrix(w: &Matrix, num_shards: usize) -> Self {
        assert!(num_shards > 0, "ShardedCatalog: need at least one shard");
        let (n, d) = w.shape();
        let base = n / num_shards;
        let extra = n % num_shards;
        let mut shards = Vec::with_capacity(num_shards);
        let mut offset = 0;
        for s in 0..num_shards {
            let len = base + usize::from(s < extra);
            let rows = Matrix::from_vec(len, d, w.as_slice()[offset * d..(offset + len) * d].to_vec());
            shards.push(Shard { offset, rows, quantized: None, ivf: None });
            offset += len;
        }
        Self { shards, num_items: n, dim: d, nprobe: PROBE_ALL }
    }

    /// Snapshots every shard's rows as an int8 panel, enabling the quantized
    /// pre-selection path. The f32 rows stay authoritative — the exact
    /// re-rank and the f32 serving paths keep reading them. A cluster index
    /// built earlier gets its panels quantized too, so the IVF and quantized
    /// tiers compose in either construction order.
    pub fn with_quantization(mut self) -> Self {
        for shard in &mut self.shards {
            shard.quantized = Some(QuantizedMatrix::quantize(&shard.rows));
            if let Some(ivf) = &mut shard.ivf {
                ivf.quantize_panels();
            }
        }
        self
    }

    /// Builds a per-shard inverted-file index ([`ClusterIndex`]) with the
    /// deterministic seeded k-means and switches serving to the
    /// cluster-routed IVF paths, visiting `config.nprobe` clusters per shard
    /// per request. With `nprobe = all` (the [`IvfConfig::auto`] default)
    /// results stay bit-identical to the exact paths; narrower probes trade
    /// measured recall for sub-linear scan cost.
    pub fn with_cluster_index(mut self, config: &IvfConfig) -> Self {
        for shard in &mut self.shards {
            let mut index = ClusterIndex::build(&shard.rows, config, shard.offset as u64);
            if shard.quantized.is_some() {
                index.quantize_panels();
            }
            shard.ivf = Some(index);
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

    /// Whether the shards carry int8 panels ([`Self::with_quantization`]).
    pub fn is_quantized(&self) -> bool {
        self.shards.iter().all(|s| s.quantized.is_some())
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

    /// Scores one query against one shard into a caller-provided buffer
    /// (overwritten) — the fused GEMV of the one-row scan, exposed so a
    /// caller can time the scan apart from the select.
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

    /// Exact global top-k for one query: per-shard GEMV + local ranking,
    /// then the k-way merge. `seen` is the global seen-item bitmap (length
    /// `num_items`) or `None` to rank the full catalogue.
    ///
    /// Bit-identical to scoring the unsharded matrix and ranking once, for
    /// any shard count; on a clustered catalogue with `nprobe = all` too.
    pub fn top_k(&self, query: &[f32], k: usize, seen: Option<&[bool]>) -> Vec<ScoredItem> {
        self.top_k_one(query, k, seen, false)
    }

    /// Global top-k through the int8 tier: per-shard int8 GEMV pre-selection
    /// of the quantized top-`2k`, k-way merge, then an **exact f32 re-rank**
    /// of the merged candidates.
    ///
    /// The re-rank scores each candidate with the same dispatched per-row
    /// dot kernel the exact GEMV path uses, and ranks with the same
    /// comparator — so whenever every exact winner survives the quantized
    /// 2k pre-selection (the recall guardrail the serving tests pin), the
    /// result is bit-identical, ids and order, to [`Self::top_k`].
    ///
    /// # Panics
    /// Panics if the catalogue was not quantized
    /// ([`Self::with_quantization`]).
    pub fn quantized_top_k(&self, query: &[f32], k: usize, seen: Option<&[bool]>) -> Vec<ScoredItem> {
        assert!(self.is_quantized(), "quantized_top_k on an unquantized catalogue");
        self.top_k_one(query, k, seen, true)
    }

    /// One query through the plan, inline on the caller; the seen bitmap
    /// becomes the plan's seen list.
    fn top_k_one(&self, query: &[f32], k: usize, seen: Option<&[bool]>, int8: bool) -> Vec<ScoredItem> {
        let seen = seen.map(|bits| (0..self.num_items).filter(|&item| bits[item]).collect());
        let plan = ScorePlan::new(Matrix::row_vector(query), vec![k], vec![seen], int8);
        self.run(&plan, None).pop().unwrap_or_default()
    }

    /// Exact global top-k for a query batch: one packed-panel GEMM per shard
    /// (shards scored in parallel on `pool` when given), then per-row local
    /// ranking and merging. `ks[i]` and `seen_items[i]` apply to query row
    /// `i`; a row's seen items are the item ids to exclude (`None` ranks the
    /// full catalogue; ids outside the catalogue are ignored). A one-row
    /// batch takes the GEMV of [`Self::top_k`].
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
        self.run(&ScorePlan::new(queries.clone(), ks.to_vec(), seen, false), pool)
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
    /// one panel), scan the visited panels (f32 or int8; a GEMV per panel
    /// for a one-row plan, one GEMM per visited panel over the whole batch
    /// otherwise), then select each request's masked top-`select_k` as
    /// global ids — its shortlist for the per-request merge. Seen items
    /// take part at `-inf` through the panel→global id translation, so
    /// tie-breaks and degenerate padding match the single-node select.
    ///
    /// Score, route and seen-bitmap buffers come from `scratch`, which the
    /// caller reuses across requests.
    // ham-lint: hot-path
    pub(crate) fn score_shard(&self, s: usize, plan: &ScorePlan, scratch: &mut ShardScratch) -> Shortlists {
        let shard = &self.shards[s];
        let b = plan.len();
        if shard.is_empty() {
            // ham-lint: allow(alloc, "an empty shard answers with an empty shortlist per request")
            return vec![Vec::new(); b];
        }
        scratch.fit(shard);
        let ShardScratch { scores, route, seen } = scratch;
        let seen = &mut seen[..shard.len()];
        let visited = self.route(shard, plan, route);
        let mut blocks: Vec<Option<Matrix>> = Vec::new(); // ham-lint: allow(alloc, "empty unless the batch has several rows")
        if b > 1 {
            blocks.resize(shard.num_panels(), None);
            for &j in visited.iter().flatten() {
                if blocks[j].is_none() {
                    blocks[j] = Some(shard.panel(j).scan_batch(plan));
                }
            }
        }
        // ham-lint: allow(alloc, "the returned shortlists are the step's output, select_k items per request")
        let mut out = Vec::with_capacity(b);
        for (i, visited) in visited.iter().enumerate() {
            let history = plan.seen[i].as_deref();
            if let Some(items) = history {
                mark(seen, shard.offset, items, true);
            }
            let bits = history.is_some().then_some(&*seen);
            let select_k = plan.select_k(i);
            // ham-lint: allow(alloc, "one shortlist per visited panel, select_k items each")
            let mut lists = Vec::with_capacity(visited.len());
            for &j in visited {
                let panel = shard.panel(j);
                let panel_scores = match blocks.get(j) {
                    // ham-lint: allow(panic, "the batched scan above scored every visited panel")
                    Some(block) => block.as_ref().expect("visited panel left unscored").row(i),
                    None => {
                        let out = &mut scores[..panel.len()];
                        panel.scan_into(plan, i, out);
                        &*out
                    }
                };
                lists.push(select(shard.offset, panel.ids, panel_scores, select_k, bits));
            }
            if let Some(items) = history {
                mark(seen, shard.offset, items, false);
            }
            out.push(if lists.len() == 1 { lists.swap_remove(0) } else { merge_top_k(&lists, select_k) });
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
    /// shard that made it), then — on an int8 plan — the exact re-rank of
    /// the merged `2k` candidates. `trace` receives the merge and re-rank
    /// timings.
    pub(crate) fn merge_requests(
        &self,
        plan: &ScorePlan,
        mut answered: Vec<Shortlists>,
        trace: Option<&mut StageTrace>,
    ) -> Vec<Vec<ScoredItem>> {
        let started = trace.is_some().then(Instant::now);
        let mut rerank_micros = 0u64;
        let mut out = Vec::with_capacity(plan.len());
        for i in 0..plan.len() {
            let lists: Vec<Vec<ScoredItem>> = answered.iter_mut().map(|shard| std::mem::take(&mut shard[i])).collect();
            let merged = merge_top_k(&lists, plan.select_k(i));
            if plan.qqueries.is_none() {
                out.push(merged);
                continue;
            }
            let rerank_started = started.map(|_| Instant::now());
            out.push(self.rerank_exact(merged, plan.queries.row(i), plan.ks[i], plan.seen[i].as_deref()));
            if let Some(at) = rerank_started {
                rerank_micros += at.elapsed().as_micros() as u64;
            }
        }
        if let (Some(trace), Some(at)) = (trace, started) {
            trace.merge_micros = (at.elapsed().as_micros() as u64).saturating_sub(rerank_micros);
            trace.rerank_micros = rerank_micros;
        }
        out
    }

    /// Re-scores `candidates` with the exact f32 per-row dot (the same
    /// dispatched kernel chain as the exact GEMV path — bit-identical per
    /// row), re-applies the mask (`seen` item ids), and keeps the top `k`
    /// under the exact comparator.
    pub(crate) fn rerank_exact(
        &self,
        candidates: Vec<ScoredItem>,
        query: &[f32],
        k: usize,
        seen: Option<&[ItemId]>,
    ) -> Vec<ScoredItem> {
        let mut exact: Vec<ScoredItem> = candidates
            .into_iter()
            .map(|c| {
                let masked = seen.is_some_and(|items| items.contains(&c.item));
                let score = if masked {
                    f32::NEG_INFINITY
                } else {
                    let (s, local) = self.locate(c.item);
                    kernels::dot(self.shards[s].rows.row(local), query)
                };
                ScoredItem { item: c.item, score }
            })
            .collect();
        exact.sort_by(|a, b| better(b, a));
        exact.truncate(k);
        exact
    }

    /// Shard index and shard-local row of a global item id.
    fn locate(&self, item: usize) -> (usize, usize) {
        debug_assert!(item < self.num_items);
        let s = self.shards.partition_point(|sh| sh.offset + sh.len() <= item);
        (s, item - self.shards[s].offset)
    }
}

/// One shard's answer to a plan: a shortlist per request, batch order.
pub(crate) type Shortlists = Vec<Vec<ScoredItem>>;

/// One batch as the score plan sees it: the query rows, each request's `k`
/// and seen history, and the scan tier. Owned, so the server's executor
/// tasks can share it behind an `Arc`.
#[derive(Debug)]
pub(crate) struct ScorePlan {
    queries: Matrix,
    /// Int8 copies of the query rows — present exactly when the plan scans
    /// the int8 panels; shortlists are then `2k` wide and re-ranked exactly.
    qqueries: Option<Vec<QuantizedQuery>>,
    ks: Vec<usize>,
    /// Item ids each request excludes (`None` ranks the full catalogue).
    seen: Vec<Option<Vec<ItemId>>>,
}

impl ScorePlan {
    /// A plan over `queries` (one row per request), scanning the int8
    /// panels when `int8` is set.
    pub(crate) fn new(queries: Matrix, ks: Vec<usize>, seen: Vec<Option<Vec<ItemId>>>, int8: bool) -> Self {
        let qqueries = int8.then(|| (0..queries.rows()).map(|i| QuantizedQuery::quantize(queries.row(i))).collect());
        Self { queries, qqueries, ks, seen }
    }

    /// Number of requests.
    pub(crate) fn len(&self) -> usize {
        self.queries.rows()
    }

    /// Shortlist width of request `i`: its `k`, or `2k` for the int8
    /// pre-selection.
    fn select_k(&self, i: usize) -> usize {
        if self.qqueries.is_some() {
            self.ks[i].saturating_mul(2)
        } else {
            self.ks[i]
        }
    }
}

/// Working buffers of the per-shard step, reused across requests by whoever
/// runs it (an executor worker, or the caller of a direct entry point): the
/// panel score buffer, the centroid-score buffer and the shard-local seen
/// bitmap. Invariant between steps: the bitmap is all-clear.
#[derive(Debug, Default)]
pub(crate) struct ShardScratch {
    scores: Vec<f32>,
    route: Vec<f32>,
    seen: Vec<bool>,
}

impl ShardScratch {
    /// Grows the buffers to `shard`'s sizes (a no-op once they fit).
    fn fit(&mut self, shard: &Shard) {
        grow(&mut self.scores, shard.max_panel_len(), 0.0);
        grow(&mut self.route, shard.num_clusters(), 0.0);
        grow(&mut self.seen, shard.len(), false);
    }

    /// Restores the all-clear bitmap after a step panicked mid-request.
    pub(crate) fn reset(&mut self) {
        self.seen.fill(false);
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
