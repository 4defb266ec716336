//! The IVF retrieval tier's exactness and determinism contracts:
//!
//! * **`nprobe = all` is exact** — visiting every cluster must return
//!   **bit-identical** results (ids, order *and* score bits) to the
//!   unclustered serving path, for randomized catalogues, queries, masks,
//!   shard counts and cluster counts.
//!   The cluster index only *regroups* catalogue rows: the per-row GEMV is
//!   position-independent and the panel GEMM accumulates each output element
//!   in the same ascending-k order, so grouping must never change a bit.
//! * **Approximate serving is deterministic** — batch and solo requests
//!   visit the same clusters (routing is always a per-request centroid
//!   GEMV) and return the same bits at any `nprobe`; rebuilding the index
//!   from the same rows and seed reproduces it exactly.
//! * **Degenerate shapes hold** — more clusters than rows, more shards than
//!   rows, k past the catalogue, fully-masked catalogues.
//! * **The serving stack carries it** — responses report `clusters_probed`,
//!   and the deadline-bounded path serves clustered models bit-identical to
//!   the classic path (or explicitly degraded under injected faults).

use ham_faults::FaultInjector;
use ham_serve::{
    IvfConfig, ModelRegistry, RecServer, RecommendRequest, ScoredItem, ServerConfig, ServingModel, ShardedCatalog,
    PROBE_ALL,
};
use ham_telemetry::Telemetry;
use ham_tensor::Matrix;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A deterministic pseudo-random catalogue matrix.
fn catalogue(n: usize, d: usize, seed: usize) -> Matrix {
    Matrix::from_vec(n, d, (0..n * d).map(|i| (((i * 131 + seed * 17) % 977) as f32 / 488.5 - 1.0) * 2.5).collect())
}

fn query(d: usize, seed: usize) -> Vec<f32> {
    (0..d).map(|k| (((k * 37 + seed) % 53) as f32 / 26.5 - 1.0) * 1.5).collect()
}

fn bits(items: &[ScoredItem]) -> Vec<(usize, u32)> {
    items.iter().map(|s| (s.item, s.score.to_bits())).collect()
}

fn probe_all(clusters: usize, iters: usize, seed: u64) -> IvfConfig {
    IvfConfig { clusters, nprobe: PROBE_ALL, iters, seed }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: `nprobe = all` serves **bit-identical**
    /// results to the unclustered exact path — ids, order and score bits —
    /// for randomized catalogues, queries, masks, shard counts and cluster
    /// counts.
    #[test]
    fn nprobe_all_is_bit_identical_to_exact(
        n in 10usize..60,
        d in 2usize..16,
        shards in 1usize..9,
        clusters in 0usize..9, // 0 = auto (⌈√rows⌉ per shard)
        k in 1usize..12,
        seed in 0usize..1000,
        mask in 0usize..2,
    ) {
        let w = catalogue(n, d, seed);
        let q = query(d, seed);
        let seen: Option<Vec<bool>> = (mask == 1).then(|| (0..n).map(|i| (i * 7 + seed) % 3 == 0).collect());
        let seen_bits = seen.as_deref();
        let config = probe_all(clusters, 4, seed as u64);

        let exact = ShardedCatalog::from_matrix(&w, shards);
        let clustered = ShardedCatalog::from_matrix(&w, shards).with_cluster_index(&config);
        prop_assert!(clustered.is_clustered());
        let want = exact.top_k(&q, k, seen_bits);
        let got = clustered.top_k(&q, k, seen_bits);
        prop_assert_eq!(bits(&got), bits(&want), "n={} shards={} clusters={} k={}", n, shards, clusters, k);
    }

    /// Approximate serving is still deterministic: at any `nprobe`, the
    /// batched GEMM path must return the same bits as the solo GEMV path —
    /// routing is a per-request centroid GEMV either way, so riding in a
    /// batch never changes which clusters a request visits or what it
    /// returns.
    #[test]
    fn batch_path_matches_solo_at_any_nprobe(
        n in 12usize..50,
        shards in 1usize..5,
        nprobe in 1usize..6,
        k in 1usize..9,
        seed in 0usize..500,
    ) {
        let d = 8usize;
        let w = catalogue(n, d, seed);
        let config = IvfConfig { clusters: 0, nprobe, iters: 4, seed: 0xA5 };
        let queries: Vec<Vec<f32>> = (0..6).map(|u| query(d, seed + u * 97)).collect();
        let shared = Arc::new(queries);
        let lookup = Arc::clone(&shared);
        let model = ServingModel::from_catalog(
            "ivf-batch",
            ShardedCatalog::from_matrix(&w, shards).with_cluster_index(&config),
            move |user, _| lookup[user].clone(),
        );
        let requests: Vec<RecommendRequest> =
            (0..shared.len()).map(|u| RecommendRequest::new(u, vec![(u * 5) % n, (u * 11) % n], k)).collect();
        let batched = model.recommend_batch(&requests, None);
        for (i, request) in requests.iter().enumerate() {
            let solo = model.recommend(request);
            prop_assert_eq!(
                bits(&batched[i]), bits(&solo),
                "n={} shards={} nprobe={} k={} user={}", n, shards, nprobe, k, i
            );
        }
    }

    /// Degenerate shapes: more clusters than rows, more shards than rows, k
    /// past the catalogue and fully-masked catalogues — `nprobe = all` stays
    /// bit-identical to exact, and a narrow `nprobe = 1` still returns a
    /// well-formed ranking (right length, non-increasing, no duplicates).
    #[test]
    fn degenerate_shapes_hold(n in 1usize..6, shards in 1usize..9, seed in 0usize..100) {
        let d = 4usize;
        let w = catalogue(n, d, seed);
        let q = query(d, seed);
        let all_seen = vec![true; n];
        // clusters: 50 asks for far more clusters than rows (clamped to n)
        let config = probe_all(50, 4, 7);
        let clustered = ShardedCatalog::from_matrix(&w, shards).with_cluster_index(&config);
        let exact = ShardedCatalog::from_matrix(&w, shards);
        for (k, seen) in [(n + 3, None), (1, Some(all_seen.as_slice())), (n, None)] {
            let want = exact.top_k(&q, k, seen);
            let got = clustered.top_k(&q, k, seen);
            prop_assert_eq!(bits(&got), bits(&want), "n={} shards={} k={}", n, shards, k);
        }
        let narrow = clustered.clone().with_nprobe(1);
        for (k, seen) in [(n + 3, None), (1, Some(all_seen.as_slice())), (n, None)] {
            let got = narrow.top_k(&q, k, seen);
            // A single probed cluster may hold fewer rows than k, so the
            // approximate ranking can be shorter than the exact one — but
            // never longer, and always well-formed.
            prop_assert!(got.len() <= exact.top_k(&q, k, seen).len(), "nprobe=1 never over-fills the response");
            for pair in got.windows(2) {
                prop_assert!(
                    pair[1].score.partial_cmp(&pair[0].score) != Some(std::cmp::Ordering::Greater),
                    "nprobe=1 ranking stays sorted"
                );
            }
            let mut ids: Vec<usize> = got.iter().map(|s| s.item).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), got.len(), "nprobe=1 ranking has no duplicate items");
        }
    }
}

/// Rebuilding the index from the same rows and config reproduces the same
/// served bits — k-means is seeded and single-threaded per shard, so a
/// publish-time rebuild is replayable. Also pinned across spawned threads:
/// the build must not depend on the calling thread's identity or count.
#[test]
fn index_rebuild_is_deterministic_across_threads() {
    let w = catalogue(40, 8, 3);
    let config = IvfConfig { clusters: 5, nprobe: 2, iters: 6, seed: 0xBEEF };
    let build = move || ShardedCatalog::from_matrix(&catalogue(40, 8, 3), 3).with_cluster_index(&config);
    let reference = build();
    let q = query(8, 9);
    let want = bits(&reference.top_k(&q, 7, None));
    let again = build();
    assert_eq!(bits(&again.top_k(&q, 7, None)), want, "same rows + config must rebuild the same index");
    let handles: Vec<_> = (0..4).map(|_| std::thread::spawn(build)).collect();
    for handle in handles {
        let built = handle.join().expect("builder thread panicked");
        assert_eq!(bits(&built.top_k(&q, 7, None)), want, "index build must be thread-count invariant");
    }
    assert_eq!(w.rows(), 40);
}

/// `clusters_probed` flows through the server: clustered models report the
/// per-model constant `min(nprobe, clusters)` summed across shards, exact
/// models report 0.
#[test]
fn clusters_probed_metadata_flows_through_responses() {
    let w = catalogue(48, 6, 11);
    let queries: Vec<Vec<f32>> = (0..8).map(|u| query(6, u * 31)).collect();
    let shared = Arc::new(queries);
    let make = |catalog: ShardedCatalog| {
        let lookup = Arc::clone(&shared);
        ServingModel::from_catalog("probe-meta", catalog, move |user, _| lookup[user].clone())
    };
    let exact = make(ShardedCatalog::from_matrix(&w, 3));
    let config = IvfConfig { clusters: 4, nprobe: 2, iters: 4, seed: 1 };
    let clustered = make(ShardedCatalog::from_matrix(&w, 3).with_cluster_index(&config));
    assert_eq!(exact.clusters_probed(), 0, "exact serving probes no clusters");
    let expected = clustered.clusters_probed();
    assert!(expected > 0, "clustered serving reports its probe width");

    for (model, want) in [(exact, 0usize), (clustered, expected)] {
        let server = RecServer::start(Arc::new(ModelRegistry::new(model)), ServerConfig::default());
        let response = server.submit(RecommendRequest::new(2, vec![1, 5], 6)).expect("admitted");
        assert_eq!(response.clusters_probed, want);
        server.shutdown();
    }
}

/// The deadline-bounded path serves clustered models bit-identical to the
/// classic path when every shard answers — the in-task route+rank must
/// reproduce the dispatcher-side bits — and an injected shard panic is
/// flagged degraded, never silently partial.
#[test]
fn bounded_path_serves_clustered_models_exactly_or_flagged() {
    let w = catalogue(48, 6, 23);
    let config = IvfConfig { clusters: 4, nprobe: 2, iters: 4, seed: 2 };
    let make = || {
        let catalog = ShardedCatalog::from_matrix(&w, 3).with_cluster_index(&config);
        ServingModel::from_catalog("ivf-bounded", catalog, |user, history| {
            vec![1.0, user as f32 * 0.1, history.len() as f32 * 0.05, (user % 7) as f32 * -0.2, 0.3, -0.4]
        })
    };
    // Vacuous fault spec arms the bounded path without touching any shard.
    let faults = FaultInjector::parse("seed=5;shard_slow=99:1ms").expect("valid fault spec");
    let registry = Arc::new(ModelRegistry::new(make()));
    let server_config = ServerConfig { coalesce_wait: Duration::ZERO, ..ServerConfig::default() };
    let server = RecServer::start_instrumented(Arc::clone(&registry), server_config, Telemetry::disabled(), faults);
    for user in 0..12 {
        let request = RecommendRequest::new(user, vec![user % 48, (user + 7) % 48], 6);
        let exact = registry.current().model.recommend(&request);
        let response = server.submit(request).expect("admitted");
        assert!(!response.degraded);
        assert_eq!(bits(&response.items), bits(&exact), "bounded clustered path, user {user}");
        assert!(response.clusters_probed > 0);
    }
    server.shutdown();
    // A panicking shard under the clustered path still degrades loudly.
    let faults = FaultInjector::parse("seed=3;shard_panic=1").expect("valid fault spec");
    let registry = Arc::new(ModelRegistry::new(make()));
    let server_config = ServerConfig { coalesce_wait: Duration::ZERO, ..ServerConfig::default() };
    let server = RecServer::start_instrumented(Arc::clone(&registry), server_config, Telemetry::disabled(), faults);
    let response = server.submit(RecommendRequest::new(1, vec![2, 4], 5)).expect("admitted");
    assert!(response.degraded, "a panicking shard must flag the clustered response");
    assert_eq!(response.shards_answered, 2);
    assert!(!response.items.is_empty(), "surviving shards still answer");
    assert_eq!(response.clusters_probed, 4, "only the two answering shards' probes count (2 x nprobe 2)");
}
