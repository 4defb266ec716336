//! The quantized-serving recall guardrail: the int8 pre-selection + exact
//! re-rank path must return **bit-identical** results — ids, order *and*
//! scores — to the exact f32 serving path, for every HAM variant, every
//! baseline, shard counts 1..8, and randomized catalogues/queries/masks.
//!
//! This pins the quantized path as a pure performance trade: the quantized
//! panels pre-select the top-`2k` candidates at ¼ of the memory traffic, the
//! exact f32 per-row kernel re-ranks them, and as long as every exact winner
//! survives the 2k pre-selection (the guardrail measured here), what is
//! served is exactly what the f32 path would have served.

use ham_baselines::{
    BaselineTrainConfig, BprMf, BprMfConfig, Caser, CaserConfig, Gru4Rec, Gru4RecConfig, Hgn, HgnConfig, PopRec,
    SasRec, SasRecConfig, SequentialRecommender,
};
use ham_core::{HamConfig, HamModel, HamVariant, Scorer};
use ham_serve::{merge_top_k, RecommendRequest, ScoredItem, ServingModel, ShardedCatalog};
use ham_tensor::Matrix;
use proptest::prelude::*;
use std::sync::Arc;

const NUM_USERS: usize = 6;
const NUM_ITEMS: usize = 35;
const K: usize = 10;

fn histories() -> Vec<Vec<usize>> {
    (0..NUM_USERS).map(|u| (0..8 + u).map(|t| (u * 11 + t * 5) % NUM_ITEMS).collect()).collect()
}

/// Asserts that the quantized serving path of `model` is bit-identical —
/// ids, order and scores — to the exact serving path, across shard counts
/// 1..8, on both the GEMV (single request) and GEMM (batch) paths.
fn assert_quantized_parity<S, F>(label: &str, model: Arc<S>, head_fn: F)
where
    S: Send + Sync + 'static,
    F: for<'m> Fn(&'m S) -> Option<ham_core::LinearHead<'m>> + Send + Sync + Clone + 'static,
{
    let histories = histories();
    let requests: Vec<RecommendRequest> =
        (0..NUM_USERS).map(|u| RecommendRequest::new(u, histories[u].clone(), K)).collect();

    for shards in 1..=8 {
        let exact = ServingModel::from_head_fn(label, Arc::clone(&model), shards, head_fn.clone())
            .unwrap_or_else(|| panic!("{label} must expose a linear head"));
        let quantized = ServingModel::from_head_fn(label, Arc::clone(&model), shards, head_fn.clone())
            .unwrap_or_else(|| panic!("{label} must expose a linear head"))
            .with_quantized_catalog();
        assert!(quantized.is_quantized() && !exact.is_quantized());

        for request in &requests {
            let want = exact.recommend(request);
            let got = quantized.recommend(request);
            assert_eq!(got, want, "{label}: quantized GEMV parity, shards = {shards}, user = {}", request.user);
        }

        // The quantized batch path re-ranks with the same exact per-row dot,
        // so it must reproduce the quantized GEMV path bit-for-bit.
        let batched = quantized.recommend_batch(&requests, None);
        for (i, request) in requests.iter().enumerate() {
            assert_eq!(
                batched[i],
                quantized.recommend(request),
                "{label}: quantized batch parity, shards = {shards}, user = {}",
                request.user
            );
        }
    }
}

fn quick_train_config() -> BaselineTrainConfig {
    BaselineTrainConfig { epochs: 1, batch_size: 32, ..Default::default() }
}

#[test]
fn every_ham_variant_serves_identically_when_quantized() {
    for variant in [
        HamVariant::HamX,
        HamVariant::HamM,
        HamVariant::HamSX,
        HamVariant::HamSM,
        HamVariant::HamSMNoLowOrder,
        HamVariant::HamSMNoUser,
    ] {
        let base = HamConfig::for_variant(variant);
        let p = if base.uses_synergies() { 2 } else { 1 };
        let config = base.with_dimensions(12, 4, base.n_l.min(2), 2, p);
        let model = Arc::new(HamModel::new(NUM_USERS, NUM_ITEMS, config, 17));
        assert_quantized_parity(variant.name(), model, |s| s.linear_head());
    }
}

#[test]
fn every_baseline_serves_identically_when_quantized() {
    let histories = histories();
    let pop = Arc::new(PopRec::fit(&histories, NUM_ITEMS));
    assert_quantized_parity("PopRec", pop, SequentialRecommender::linear_head);

    let mf = Arc::new(BprMf::fit(
        &histories,
        NUM_ITEMS,
        &BprMfConfig { d: 8, ..Default::default() },
        &quick_train_config(),
        3,
    ));
    assert_quantized_parity("BPR-MF", mf, SequentialRecommender::linear_head);

    let caser = Arc::new(Caser::fit(
        &histories,
        NUM_ITEMS,
        &CaserConfig { d: 8, seq_len: 4, targets: 2, ..Default::default() },
        &quick_train_config(),
        5,
    ));
    assert_quantized_parity("Caser", caser, SequentialRecommender::linear_head);

    let sasrec = Arc::new(SasRec::fit(
        &histories,
        NUM_ITEMS,
        &SasRecConfig { d: 8, seq_len: 4, targets: 2 },
        &quick_train_config(),
        7,
    ));
    assert_quantized_parity("SASRec", sasrec, SequentialRecommender::linear_head);

    let gru = Arc::new(Gru4Rec::fit(
        &histories,
        NUM_ITEMS,
        &Gru4RecConfig { d: 8, seq_len: 4, targets: 2 },
        &quick_train_config(),
        9,
    ));
    assert_quantized_parity("GRU4Rec", gru, SequentialRecommender::linear_head);

    let hgn = Arc::new(Hgn::fit(
        &histories,
        NUM_ITEMS,
        &HgnConfig { d: 8, seq_len: 4, targets: 2 },
        &quick_train_config(),
        11,
    ));
    assert_quantized_parity("HGN", hgn, SequentialRecommender::linear_head);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The recall@k guardrail on raw catalogues: for randomized candidate
    /// matrices, queries, masks, shard counts and k, the quantized top-2k
    /// re-ranked exactly equals the exact top-k — ids, order and scores.
    #[test]
    fn quantized_preselection_recalls_the_exact_top_k(
        n in 10usize..60,
        d in 2usize..16,
        shards in 1usize..9,
        k in 1usize..12,
        seed in 0usize..1000,
        mask in 0usize..2,
    ) {
        let w = Matrix::from_vec(
            n, d,
            (0..n * d).map(|i| (((i * 131 + seed * 17) % 977) as f32 / 488.5 - 1.0) * 2.5).collect(),
        );
        let q: Vec<f32> = (0..d).map(|kk| (((kk * 37 + seed) % 53) as f32 / 26.5 - 1.0) * 1.5).collect();
        let seen: Option<Vec<bool>> = (mask == 1).then(|| (0..n).map(|i| (i * 7 + seed) % 3 == 0).collect());
        let seen_bits = seen.as_deref();

        let catalog = ShardedCatalog::from_matrix(&w, shards).with_quantization();
        let want = catalog.top_k(&q, k, seen_bits);
        let got = catalog.quantized_top_k(&q, k, seen_bits);
        prop_assert_eq!(got, want, "n={} d={} shards={} k={}", n, d, shards, k);
    }

    /// Degenerate shapes keep the guardrail: more shards than items, k larger
    /// than the catalogue, and fully-masked catalogues all serve exactly what
    /// the exact path serves.
    #[test]
    fn quantized_path_matches_on_degenerate_shapes(n in 1usize..6, shards in 1usize..9, seed in 0usize..100) {
        let d = 4usize;
        let w = Matrix::from_vec(n, d, (0..n * d).map(|i| ((i + seed) % 13) as f32 * 0.4 - 2.0).collect());
        let q = vec![0.5f32, -1.0, 0.25, 0.75];
        let catalog = ShardedCatalog::from_matrix(&w, shards).with_quantization();
        let all_seen = vec![true; n];
        for (k, seen) in [(n + 3, None), (1, Some(all_seen.as_slice())), (n, None)] {
            let want = catalog.top_k(&q, k, seen);
            let got = catalog.quantized_top_k(&q, k, seen);
            prop_assert_eq!(got, want, "n={} shards={} k={}", n, shards, k);
        }
    }
}

/// `merge_top_k` remains usable with pre-selection-sized lists (2k per
/// shard): merging more than k candidates keeps the comparator's order so
/// the re-rank sees the best 2k globally.
#[test]
fn preselection_merge_keeps_global_order() {
    let lists = vec![
        vec![ScoredItem { item: 0, score: 3.0 }, ScoredItem { item: 2, score: 1.0 }],
        vec![ScoredItem { item: 1, score: 2.0 }, ScoredItem { item: 3, score: 0.5 }],
    ];
    let merged = merge_top_k(&lists, 4);
    let ids: Vec<usize> = merged.iter().map(|s| s.item).collect();
    assert_eq!(ids, vec![0, 1, 2, 3]);
}
