//! A model packaged for serving: sharded candidate catalogue + query builder.

use crate::ivf::IvfConfig;
use crate::request::RecommendRequest;
use crate::shard::{ScorePlan, ScoredItem, ShardedCatalog};
use ham_core::{LinearHead, Scorer};
use ham_data::dataset::ItemId;
use ham_tensor::pool::ThreadPool;
use ham_tensor::Matrix;
use std::sync::Arc;

/// A model snapshot prepared for online serving.
///
/// Construction freezes the model's linear head into (1) a [`ShardedCatalog`]
/// — the candidate matrix split row-wise across shards — and (2) an owned
/// query builder, so the serving loop needs no lifetime ties back into the
/// training-side model types. Build one from any [`Scorer`]
/// ([`Self::from_scorer`]) or from anything else exposing a [`LinearHead`]
/// ([`Self::from_head_fn`], used for the `ham-baselines` recommenders).
///
/// Results are **exact**: every request goes through the catalogue's score
/// plan (see [`crate::shard`]). A single request ([`Self::recommend`])
/// scores each shard with the same GEMV kernel the single-node
/// `recommend_top_k` uses and is bit-identical to it; a larger batch
/// ([`Self::recommend_batch`]) coalesces into one packed-panel GEMM per
/// shard and is bit-identical to the equivalent unsharded GEMM ranking
/// (which agrees with the GEMV path within float rounding, ≤ 1e-5 — the same
/// contract `score_batch` has had since the kernel layer landed).
///
/// [`Self::with_quantized_catalog`] additionally freezes an int8 snapshot of
/// the candidate matrix at publish time: requests then pre-select through
/// the quantized panels (¼ of the candidate-matrix memory traffic) and
/// re-rank the quantized top-`2k` with the exact f32 per-row kernel, so the
/// served top-k stays bit-identical — ids and order — to the exact GEMV
/// path (pinned by the serving tests as a recall guardrail).
pub struct ServingModel {
    name: String,
    /// Behind an `Arc`: the server's executor hands each shard task its own
    /// catalogue handle, so a task that outlives its batch (a timed-out slow
    /// shard) can never dangle.
    catalog: Arc<ShardedCatalog>,
    query: ham_core::scorer::QueryFn<'static>,
}

impl ServingModel {
    /// Packages a sharded snapshot of `model` (any [`Scorer`] with a linear
    /// head). Returns `None` if the model has no linear head.
    pub fn from_scorer<S>(name: &str, model: Arc<S>, num_shards: usize) -> Option<Self>
    where
        S: Scorer + Send + Sync + 'static,
    {
        Self::from_head_fn(name, model, num_shards, |m| m.linear_head())
    }

    /// Packages a sharded snapshot of any model for which `head_fn` can
    /// produce a [`LinearHead`] — e.g.
    /// `ham_baselines::SequentialRecommender::linear_head`. Returns `None`
    /// when `head_fn` does.
    ///
    /// The catalogue rows are copied into the shards once, here; the query
    /// builder re-derives the (cheap) head per call, so the `Arc`'d model is
    /// the only thing kept alive.
    pub fn from_head_fn<S, F>(name: &str, model: Arc<S>, num_shards: usize, head_fn: F) -> Option<Self>
    where
        S: Send + Sync + 'static,
        F: for<'m> Fn(&'m S) -> Option<LinearHead<'m>> + Send + Sync + 'static,
    {
        let catalog = Arc::new(catalog_from_env(head_fn(&model)?.candidates(), num_shards));
        let query = Box::new(move |user: usize, history: &[ItemId]| {
            // ham-lint: allow(panic, "head_fn returned Some at construction and is a pure fn of the immutable model")
            head_fn(&model).expect("model's linear head disappeared after construction").query_vector(user, history)
        });
        Some(Self { name: name.to_string(), catalog, query })
    }

    /// Packages a catalogue matrix and a query closure directly (no model
    /// type involved) — the escape hatch for custom scorers.
    pub fn from_parts(
        name: &str,
        candidates: &Matrix,
        num_shards: usize,
        query: impl Fn(usize, &[ItemId]) -> Vec<f32> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            catalog: Arc::new(catalog_from_env(candidates, num_shards)),
            query: Box::new(query),
        }
    }

    /// Packages a pre-built catalogue (possibly quantized and/or clustered)
    /// with a query closure — how the benchmark sweeps re-dial `nprobe`
    /// without rebuilding the k-means index per setting.
    pub fn from_catalog(
        name: &str,
        catalog: ShardedCatalog,
        query: impl Fn(usize, &[ItemId]) -> Vec<f32> + Send + Sync + 'static,
    ) -> Self {
        Self { name: name.to_string(), catalog: Arc::new(catalog), query: Box::new(query) }
    }

    /// Freezes an int8 snapshot of every shard and switches serving to the
    /// quantized pre-selection + exact re-rank path. The f32 shards stay
    /// authoritative (the re-rank reads them), so this only adds the panels'
    /// 1 byte/element — and serving results stay bit-identical to the exact
    /// path under the recall guardrail.
    pub fn with_quantized_catalog(mut self) -> Self {
        // Publish-time construction: the Arc is freshly made and unshared,
        // so this is a move, not a catalogue copy.
        let catalog = Arc::try_unwrap(self.catalog).unwrap_or_else(|shared| (*shared).clone());
        self.catalog = Arc::new(catalog.with_quantization());
        self
    }

    /// Builds the inverted-file cluster index over every shard and switches
    /// serving to the cluster-routed IVF paths (see
    /// [`ShardedCatalog::with_cluster_index`]). With the default
    /// `nprobe = all` the served bits are unchanged; narrower probes trade
    /// measured recall for sub-linear retrieval cost.
    pub fn with_cluster_index(mut self, config: &IvfConfig) -> Self {
        let catalog = Arc::try_unwrap(self.catalog).unwrap_or_else(|shared| (*shared).clone());
        self.catalog = Arc::new(catalog.with_cluster_index(config));
        self
    }

    /// Re-dials the probe width of an already-clustered catalogue (cheap —
    /// no index rebuild).
    pub fn with_nprobe(mut self, nprobe: usize) -> Self {
        let catalog = Arc::try_unwrap(self.catalog).unwrap_or_else(|shared| (*shared).clone());
        self.catalog = Arc::new(catalog.with_nprobe(nprobe));
        self
    }

    /// Whether requests take the quantized pre-selection path.
    pub fn is_quantized(&self) -> bool {
        self.catalog.is_quantized()
    }

    /// Whether requests take the cluster-routed IVF paths.
    pub fn is_clustered(&self) -> bool {
        self.catalog.is_clustered()
    }

    /// Clusters a request visits across all shards (0 on exact serving) —
    /// the retrieval metadata responses report.
    pub fn clusters_probed(&self) -> usize {
        self.catalog.clusters_probed()
    }

    /// Human-readable model name (shown in benchmark reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sharded candidate catalogue.
    pub fn catalog(&self) -> &ShardedCatalog {
        &self.catalog
    }

    /// A shareable handle to the catalogue — what the server's executor
    /// hands to its per-shard tasks.
    pub fn catalog_arc(&self) -> Arc<ShardedCatalog> {
        Arc::clone(&self.catalog)
    }

    /// Catalogue size.
    pub fn num_items(&self) -> usize {
        self.catalog.num_items()
    }

    /// The query vector for one user/history.
    pub fn query_vector(&self, user: usize, history: &[ItemId]) -> Vec<f32> {
        (self.query)(user, history)
    }

    /// Serves one request exactly, inline on the caller: the score plan with
    /// a GEMV per shard, shard-local fused masking, k-way merge.
    /// Bit-identical to the single-node `recommend_top_k` for every shard
    /// count.
    pub fn recommend(&self, request: &RecommendRequest) -> Vec<ScoredItem> {
        self.recommend_batch(std::slice::from_ref(request), None).pop().unwrap_or_default()
    }

    /// Serves a batch through the score plan: the queries are built once,
    /// every shard is scored with one packed-panel GEMM over the whole batch
    /// (in parallel across shards on `pool` when given, inline otherwise),
    /// and each request is ranked and merged with its own `k` and seen
    /// history. A batch of one takes the GEMV of [`Self::recommend`], so a
    /// lonely request gets the same bits whether or not it was queued.
    pub fn recommend_batch(&self, requests: &[RecommendRequest], pool: Option<&ThreadPool>) -> Vec<Vec<ScoredItem>> {
        let mut queries = Matrix::zeros(requests.len(), self.catalog.dim());
        for (i, request) in requests.iter().enumerate() {
            queries.row_mut(i).copy_from_slice(&self.query_vector(request.user, &request.history));
        }
        self.catalog.run(&self.plan(queries, requests), pool)
    }

    /// The score plan for `requests` with query rows `queries` (one per
    /// request, in order), on this model's tier.
    pub(crate) fn plan<'r>(
        &self,
        queries: Matrix,
        requests: impl IntoIterator<Item = &'r RecommendRequest>,
    ) -> ScorePlan {
        let (ks, seen) = requests.into_iter().map(|r| (r.k, r.exclude_seen.then(|| r.history.clone()))).unzip();
        ScorePlan::new(queries, ks, seen, self.catalog.is_quantized())
    }
}

/// Shards `w` and, when the process-wide retrieval override is armed
/// (`HAM_RETRIEVAL=ivf`), builds the cluster index at construction — with
/// the exact `nprobe = all` endpoint unless `HAM_IVF_NPROBE` narrows it, so
/// the override forces the IVF *code paths* without changing served bits.
fn catalog_from_env(w: &Matrix, num_shards: usize) -> ShardedCatalog {
    let catalog = ShardedCatalog::from_matrix(w, num_shards);
    match IvfConfig::from_env() {
        Some(config) => catalog.with_cluster_index(&config),
        None => catalog,
    }
}

impl std::fmt::Debug for ServingModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingModel")
            .field("name", &self.name)
            .field("num_items", &self.catalog.num_items())
            .field("num_shards", &self.catalog.num_shards())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ham_core::{HamConfig, HamModel, HamVariant};

    fn ham() -> Arc<HamModel> {
        let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(8, 4, 2, 2, 2);
        Arc::new(HamModel::new(4, 30, config, 13))
    }

    #[test]
    fn from_scorer_matches_recommend_top_k_bit_for_bit() {
        let model = ham();
        for shards in [1, 3, 8] {
            let serving = ServingModel::from_scorer("ham", Arc::clone(&model), shards).expect("HAM has a head");
            let history = vec![1usize, 5, 9, 9, 2];
            for exclude in [true, false] {
                let request = RecommendRequest {
                    user: 2,
                    history: history.clone(),
                    k: 10,
                    exclude_seen: exclude,
                    deadline: None,
                };
                let served: Vec<usize> = serving.recommend(&request).iter().map(|s| s.item).collect();
                assert_eq!(served, model.recommend_top_k(2, &history, 10, exclude), "shards = {shards}");
            }
        }
    }

    #[test]
    fn batch_of_one_takes_the_exact_gemv_path() {
        let model = ham();
        let serving = ServingModel::from_scorer("ham", Arc::clone(&model), 4).unwrap();
        let request = RecommendRequest::new(0, vec![3, 7], 5);
        let batched = serving.recommend_batch(std::slice::from_ref(&request), None);
        assert_eq!(batched[0], serving.recommend(&request));
    }

    #[test]
    fn from_parts_serves_a_custom_head() {
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0]]);
        let serving = ServingModel::from_parts("toy", &w, 2, |_, _| vec![1.0, 0.5]);
        let top = serving.recommend(&RecommendRequest {
            user: 0,
            history: vec![],
            k: 3,
            exclude_seen: false,
            deadline: None,
        });
        let ids: Vec<usize> = top.iter().map(|s| s.item).collect();
        assert_eq!(ids, vec![2, 0, 1]);
        assert_eq!(top[0].score, 3.0);
    }
}
