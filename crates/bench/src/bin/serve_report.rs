//! Generates `BENCH_serving.json`: throughput and latency numbers for the
//! sharded serving subsystem (`ham-serve`).
//!
//! Three sections:
//!
//! * **Single-node baseline** — the PR 1 configuration at the same thread
//!   budget: full-catalogue `score_batch` GEMM over 64-user chunks fanned
//!   out on the shared worker pool, fused masked top-k per user. This is the
//!   number sharded serving has to meet or beat.
//! * **Sharded offline sweep** — `ServingModel::recommend_batch` throughput
//!   across shard counts × micro-batch sizes, shards scored in parallel on
//!   the same pool.
//! * **Online serving** — requests pushed through the [`RecServer`]
//!   micro-batching queue from concurrent client threads, with per-request
//!   latency percentiles (p50/p95/p99) and a model hot-swap mid-run.
//! * **IVF retrieval sweep** — cluster-routed approximate candidate
//!   generation on the largest benchmarked catalogue: recall@10 vs
//!   throughput across `nprobe` settings, measured paired against the exact
//!   (unclustered) serving path, with the `nprobe = all` endpoint checked
//!   bit-identical to exact serving.
//!
//! Run from the repository root: `cargo run --release -p ham-bench --bin
//! serve_report` (append `-- --quick` for the CI smoke configuration). The
//! JSON is written to the current directory.

use ham_core::{HamConfig, HamModel, HamVariant};
use ham_eval::ranking::top_k_excluding;
use ham_serve::{
    IvfConfig, LatencyStats, ModelRegistry, RecServer, RecommendRequest, ServerConfig, ServingModel, ShardedCatalog,
    PROBE_ALL,
};
use ham_tensor::kernels::active_tier;
use ham_tensor::pool::global_pool;
use ham_tensor::Matrix;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const D: usize = 32;
const K: usize = 10;

struct BenchScale {
    items: usize,
    users: usize,
    offline_reps: usize,
    online_requests_per_client: usize,
    clients: usize,
}

impl BenchScale {
    fn new(quick: bool) -> Self {
        if quick {
            Self { items: 2_000, users: 64, offline_reps: 4, online_requests_per_client: 40, clients: 2 }
        } else {
            Self { items: 10_000, users: 200, offline_reps: 9, online_requests_per_client: 250, clients: 4 }
        }
    }
}

fn bench_model(scale: &BenchScale) -> (Arc<HamModel>, Vec<Vec<usize>>) {
    let config = HamConfig::for_variant(HamVariant::HamSM).with_dimensions(D, 5, 2, 3, 2);
    let model = Arc::new(HamModel::new(scale.users, scale.items, config, 7));
    let histories: Vec<Vec<usize>> =
        (0..scale.users).map(|u| (0..40).map(|t| (u * 131 + t * 17) % scale.items).collect()).collect();
    (model, histories)
}

/// One pass of the PR 1 single-node path at the pool's thread budget: users
/// chunked over the shared pool, each chunk scored against the **full**
/// catalogue with the batched GEMM and ranked with the fused masked top-k.
fn single_node_pass(model: &HamModel, histories: &[Vec<usize>], threads: usize) {
    let users: Vec<usize> = (0..histories.len()).collect();
    let chunk = users.len().div_ceil(threads);
    let parts: Vec<&[usize]> = users.chunks(chunk).collect();
    global_pool().scope(|scope| {
        for part in parts {
            scope.spawn(move || {
                let mut seen = vec![false; model.num_items()];
                for batch in part.chunks(64) {
                    let hist: Vec<&[usize]> = batch.iter().map(|&u| histories[u].as_slice()).collect();
                    let scores = model.score_batch(batch, &hist);
                    for (i, &u) in batch.iter().enumerate() {
                        black_box(top_k_excluding(scores.row(i), K, &histories[u], &mut seen));
                    }
                }
            });
        }
    });
}

/// One pass of offline sharded serving: all users served through
/// `ServingModel::recommend_batch` in micro-batches of `batch`.
fn sharded_pass(serving: &ServingModel, requests: &[RecommendRequest], batch: usize) {
    for group in requests.chunks(batch) {
        black_box(serving.recommend_batch(group, Some(global_pool())));
    }
}

struct ShardRow {
    shards: usize,
    batch: usize,
    seconds: f64,
    users_per_second: f64,
}

struct OnlineRow {
    label: String,
    throughput_rps: f64,
    stats: LatencyStats,
    versions_seen: Vec<u64>,
}

/// Pushes requests through the micro-batching server from concurrent client
/// threads; publishes a hot-swapped model halfway through.
fn online_run(model: &Arc<HamModel>, histories: &[Vec<usize>], scale: &BenchScale, shards: usize) -> OnlineRow {
    let registry = Arc::new(ModelRegistry::new(
        ServingModel::from_scorer("ham-sm-v1", Arc::clone(model), shards).expect("HAM has a linear head"),
    ));
    let server = Arc::new(RecServer::start(Arc::clone(&registry), ServerConfig::default()));
    let started = Instant::now();
    let total_requests = scale.clients * scale.online_requests_per_client;
    let handles: Vec<_> = (0..scale.clients)
        .map(|c| {
            let server = Arc::clone(&server);
            let histories = histories.to_vec();
            let per_client = scale.online_requests_per_client;
            std::thread::spawn(move || {
                let mut samples = Vec::with_capacity(per_client);
                let mut versions = Vec::new();
                for r in 0..per_client {
                    let user = (c * 31 + r * 7) % histories.len();
                    let response = server
                        .submit(RecommendRequest::new(user, histories[user].clone(), K))
                        .expect("bench requests stay within the queue bound");
                    samples.push(response.total_micros());
                    if versions.last() != Some(&response.model_version) {
                        versions.push(response.model_version);
                    }
                }
                (samples, versions)
            })
        })
        .collect();
    // Hot-swap a retrained model while the clients are mid-flight.
    let swap = {
        let registry = Arc::clone(&registry);
        let model = Arc::clone(model);
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            registry.publish(ServingModel::from_scorer("ham-sm-v2", model, shards).expect("HAM has a linear head"));
        })
    };
    let mut samples = Vec::with_capacity(total_requests);
    let mut versions_seen = Vec::new();
    for handle in handles {
        let (client_samples, client_versions) = handle.join().expect("client thread panicked");
        samples.extend(client_samples);
        for v in client_versions {
            if !versions_seen.contains(&v) {
                versions_seen.push(v);
            }
        }
    }
    swap.join().expect("publisher thread panicked");
    let elapsed = started.elapsed().as_secs_f64();
    versions_seen.sort_unstable();
    OnlineRow {
        label: format!("{}_shards_{}_clients", shards, scale.clients),
        throughput_rps: total_requests as f64 / elapsed,
        stats: LatencyStats::from_micros(samples).expect("at least one sample"),
        versions_seen,
    }
}

/// Scale of the IVF retrieval sweep. Deliberately the **largest** catalogue
/// in the report: approximate retrieval pays off exactly where exact scans
/// hurt, so the recall/throughput trade is measured where it matters.
struct IvfScale {
    items: usize,
    queries: usize,
    prototypes: usize,
    reps: usize,
    shards: usize,
}

impl IvfScale {
    fn new(quick: bool) -> Self {
        if quick {
            Self { items: 20_000, queries: 128, prototypes: 64, reps: 3, shards: 4 }
        } else {
            Self { items: 120_000, queries: 384, prototypes: 256, reps: 5, shards: 4 }
        }
    }
}

/// splitmix64 — the same deterministic generator the k-means seeding uses.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform f32 in [-1, 1).
fn uniform(state: &mut u64) -> f32 {
    (splitmix64(state) >> 40) as f32 / (1u64 << 23) as f32 * 2.0 - 1.0
}

/// A clustered catalogue: `prototypes` anchor directions, every item is an
/// anchor plus item-level noise, every query is an anchor plus tighter
/// noise. Real recommendation catalogues are clustered (genres, franchises,
/// price bands) — a uniform-random catalogue would understate IVF recall,
/// a noiseless one would overstate it.
fn ivf_catalogue(scale: &IvfScale) -> (Matrix, Vec<Vec<f32>>) {
    let mut state = 0x1D1A_7E57_C0FF_EE00u64;
    let protos: Vec<Vec<f32>> = (0..scale.prototypes).map(|_| (0..D).map(|_| uniform(&mut state)).collect()).collect();
    let mut w = Vec::with_capacity(scale.items * D);
    for i in 0..scale.items {
        let proto = &protos[(i * 7 + 3) % scale.prototypes];
        w.extend((0..D).map(|c| proto[c] + 0.25 * uniform(&mut state)));
    }
    let queries = (0..scale.queries)
        .map(|q| {
            let proto = &protos[(q * 13 + 1) % scale.prototypes];
            (0..D).map(|c| proto[c] + 0.1 * uniform(&mut state)).collect()
        })
        .collect();
    (Matrix::from_vec(scale.items, D, w), queries)
}

struct IvfRow {
    nprobe: usize,
    clusters_probed: usize,
    recall_at_10: f64,
    seconds: f64,
    users_per_second: f64,
}

/// Mean recall@K of `approx` against the exact `truth` ranking.
fn recall_at_k(truth: &[Vec<ham_serve::ScoredItem>], approx: &[Vec<ham_serve::ScoredItem>]) -> f64 {
    let mut hits = 0usize;
    let mut total = 0usize;
    for (t, a) in truth.iter().zip(approx) {
        total += t.len();
        hits += t.iter().filter(|item| a.iter().any(|cand| cand.item == item.item)).count();
    }
    hits as f64 / total.max(1) as f64
}

/// The IVF retrieval sweep: recall@10 vs throughput across `nprobe`
/// settings, paired round-robin against the exact (unclustered) arm inside
/// the same rep loop. Returns the exact arm's best seconds and the sweep
/// rows (the `nprobe = all` endpoint is asserted bit-identical to exact).
fn ivf_sweep(scale: &IvfScale) -> (f64, Vec<IvfRow>) {
    let (w, queries) = ivf_catalogue(scale);
    let queries = Arc::new(queries);
    let make_model = |name: &str, catalog: ShardedCatalog| {
        let queries = Arc::clone(&queries);
        ServingModel::from_catalog(name, catalog, move |user, _history| queries[user].clone())
    };
    let exact = make_model("ivf-exact", ShardedCatalog::from_matrix(&w, scale.shards));
    // One k-means build (`nprobe = all`); every sweep point re-dials the
    // probe width on a clone of the built index — no rebuild per point.
    let build_started = Instant::now();
    let clustered = ShardedCatalog::from_matrix(&w, scale.shards).with_cluster_index(&IvfConfig::auto());
    eprintln!(
        "  built {} clusters over {} rows in {:.2}s",
        clustered.num_clusters(),
        scale.items,
        build_started.elapsed().as_secs_f64()
    );
    // `nprobe` is a per-shard dial: points at or past the per-shard cluster
    // count would just repeat the `all` endpoint.
    let mut nprobes: Vec<usize> = [1usize, 2, 4, 8, 16, 32, 64]
        .iter()
        .copied()
        .filter(|&n| n * scale.shards < clustered.num_clusters())
        .collect();
    nprobes.push(PROBE_ALL);
    let models: Vec<ServingModel> =
        nprobes.iter().map(|&n| make_model(&format!("ivf-nprobe-{n}"), clustered.clone().with_nprobe(n))).collect();
    let requests: Vec<RecommendRequest> = (0..scale.queries).map(|q| RecommendRequest::new(q, Vec::new(), K)).collect();

    // Ground truth + recall first (unmeasured), and the exactness check of
    // the `nprobe = all` endpoint: identical ids, order and score bits.
    let serve_all = |model: &ServingModel| {
        let mut out = Vec::with_capacity(requests.len());
        for group in requests.chunks(64) {
            out.extend(model.recommend_batch(group, Some(global_pool())));
        }
        out
    };
    let truth = serve_all(&exact);
    let recalls: Vec<f64> = models.iter().map(|m| recall_at_k(&truth, &serve_all(m))).collect();
    let endpoint = serve_all(models.last().expect("nprobe sweep is never empty"));
    for (t, a) in truth.iter().zip(&endpoint) {
        assert_eq!(t.len(), a.len(), "nprobe=all endpoint diverged from exact serving");
        for (ti, ai) in t.iter().zip(a) {
            assert_eq!(ti.item, ai.item, "nprobe=all endpoint diverged from exact serving");
            assert_eq!(ti.score.to_bits(), ai.score.to_bits(), "nprobe=all endpoint diverged from exact serving");
        }
    }

    // Paired throughput: exact + every nprobe point measured round-robin in
    // the same rep loop (best-of per arm), so VM drift hits all arms alike.
    // Timed at batch-of-1 — the latency-critical serving path, and the one
    // where cluster routing is sub-linear per request. (Batched scoring
    // unions the batch's visited clusters per shard, so its win depends on
    // the batch sharing clusters; these queries deliberately spread across
    // every prototype, the worst case for batching.)
    sharded_pass(&exact, &requests, 1); // warm-up
    let mut exact_seconds = f64::INFINITY;
    let mut point_seconds = vec![f64::INFINITY; models.len()];
    for _ in 0..scale.reps {
        let start = Instant::now();
        sharded_pass(&exact, &requests, 1);
        exact_seconds = exact_seconds.min(start.elapsed().as_secs_f64());
        for (i, model) in models.iter().enumerate() {
            let start = Instant::now();
            sharded_pass(model, &requests, 1);
            point_seconds[i] = point_seconds[i].min(start.elapsed().as_secs_f64());
        }
    }
    let rows = nprobes
        .iter()
        .zip(&models)
        .zip(recalls)
        .zip(point_seconds)
        .map(|(((&nprobe, model), recall_at_10), seconds)| IvfRow {
            nprobe,
            clusters_probed: model.clusters_probed(),
            recall_at_10,
            seconds,
            users_per_second: scale.queries as f64 / seconds,
        })
        .collect();
    (exact_seconds, rows)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = BenchScale::new(quick);
    let threads = global_pool().threads();
    eprintln!(
        "serve_report: {} items, {} users, d = {D}, pool threads = {threads}{}",
        scale.items,
        scale.users,
        if quick { " (quick)" } else { "" }
    );

    let (model, histories) = bench_model(&scale);

    // Paired measurement: the shared VM's throughput drifts over seconds, so
    // the baseline and every sharded configuration are measured round-robin
    // inside the same rep loop (best-of per configuration) instead of in
    // separate blocks minutes apart — ratios then compare like with like.
    let shard_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let batch_sizes: &[usize] = &[1, 16, 64];
    let servings: Vec<(usize, ServingModel)> = shard_counts
        .iter()
        .map(|&s| (s, ServingModel::from_scorer("ham-sm", Arc::clone(&model), s).expect("HAM has a linear head")))
        .collect();
    let requests: Vec<RecommendRequest> =
        (0..histories.len()).map(|u| RecommendRequest::new(u, histories[u].clone(), K)).collect();
    eprintln!(
        "measuring offline throughput, paired round-robin ({} reps): single-node baseline + {} sharded configs...",
        scale.offline_reps,
        servings.len() * batch_sizes.len()
    );
    // Warm-up pass so first-touch page faults and cold caches hit no one.
    single_node_pass(&model, &histories, threads);
    let mut single_seconds = f64::INFINITY;
    let mut sharded_best = vec![f64::INFINITY; servings.len() * batch_sizes.len()];
    for _ in 0..scale.offline_reps {
        let start = Instant::now();
        single_node_pass(&model, &histories, threads);
        single_seconds = single_seconds.min(start.elapsed().as_secs_f64());
        for (si, (_, serving)) in servings.iter().enumerate() {
            for (bi, &batch) in batch_sizes.iter().enumerate() {
                let start = Instant::now();
                sharded_pass(serving, &requests, batch);
                let slot = &mut sharded_best[si * batch_sizes.len() + bi];
                *slot = slot.min(start.elapsed().as_secs_f64());
            }
        }
    }
    let single_ups = scale.users as f64 / single_seconds;
    let mut rows: Vec<ShardRow> = Vec::new();
    for (si, (shards, _)) in servings.iter().enumerate() {
        for (bi, &batch) in batch_sizes.iter().enumerate() {
            let seconds = sharded_best[si * batch_sizes.len() + bi];
            rows.push(ShardRow { shards: *shards, batch, seconds, users_per_second: scale.users as f64 / seconds });
        }
    }
    let best_sharded = rows.iter().map(|r| r.users_per_second).fold(0.0f64, f64::max);

    eprintln!("measuring online serving through the micro-batching queue...");
    let online_shards = if quick { 2 } else { 4 };
    let online = online_run(&model, &histories, &scale, online_shards);

    let ivf_scale = IvfScale::new(quick);
    eprintln!(
        "measuring IVF retrieval sweep: {} items, {} queries, {} shards...",
        ivf_scale.items, ivf_scale.queries, ivf_scale.shards
    );
    let (ivf_exact_seconds, ivf_rows) = ivf_sweep(&ivf_scale);
    let ivf_exact_ups = ivf_scale.queries as f64 / ivf_exact_seconds;

    let mut out = String::from("{\n");
    out.push_str(
        "  \"description\": \"Sharded serving subsystem: single-node baseline vs sharded offline \
         throughput (users/s, k=10, seen-items masked) and online micro-batched serving with latency \
         percentiles. Sharded results are exact (bit-identical ids to the single-node ranking); batch-1 rows \
         take the certified int8 scan, which re-scores its certified candidates through the exact f32 \
         kernel and so serves the same bits.\",\n",
    );
    out.push_str(&format!(
        "  \"d\": {D},\n  \"k\": {K},\n  \"items\": {},\n  \"users\": {},\n  \"pool_threads\": {threads},\n  \
         \"active_tier\": \"{}\",\n  \"quick\": {quick},\n",
        scale.items,
        scale.users,
        active_tier()
    ));
    out.push_str(&format!(
        "  \"single_node_baseline\": {{\"threads\": {threads}, \"seconds\": {:.6}, \"users_per_second\": {:.1}}},\n",
        single_seconds, single_ups
    ));
    out.push_str("  \"sharded_offline\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"batch\": {}, \"seconds\": {:.6}, \"users_per_second\": {:.1}, \"vs_single_node\": {:.3}}}{}\n",
            r.shards,
            r.batch,
            r.seconds,
            r.users_per_second,
            r.users_per_second / single_ups,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"best_sharded_over_single_node\": {:.3},\n", best_sharded / single_ups));
    out.push_str(&format!(
        "  \"online\": {{\"config\": \"{}\", \"throughput_rps\": {:.1}, \"latency_micros\": {{\"mean\": {:.1}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}, \"requests\": {}, \"model_versions_served\": {:?}}},\n",
        online.label,
        online.throughput_rps,
        online.stats.mean_micros,
        online.stats.p50_micros,
        online.stats.p95_micros,
        online.stats.p99_micros,
        online.stats.max_micros,
        online.stats.count,
        online.versions_seen
    ));
    out.push_str(&format!(
        "  \"ivf\": {{\n    \"description\": \"Cluster-routed approximate retrieval on the largest \
         benchmarked catalogue: per-shard k-means index, centroid-routed top-nprobe cluster scans, exact f32 \
         re-rank. recall@10 is measured against the exact ranking; the nprobe=all row is asserted \
         bit-identical to exact serving (ids, order, score bits) before timing. Throughput is the \
         per-request (batch-of-1) serving path, where cluster routing is sub-linear in the catalogue.\",\n    \
         \"items\": {}, \"queries\": {}, \"shards\": {},\n    \
         \"exact_baseline\": {{\"seconds\": {:.6}, \"users_per_second\": {:.1}}},\n    \"sweep\": [\n",
        ivf_scale.items, ivf_scale.queries, ivf_scale.shards, ivf_exact_seconds, ivf_exact_ups
    ));
    for (i, r) in ivf_rows.iter().enumerate() {
        let nprobe = if r.nprobe == PROBE_ALL { "\"all\"".to_string() } else { r.nprobe.to_string() };
        out.push_str(&format!(
            "      {{\"nprobe\": {nprobe}, \"clusters_probed\": {}, \"recall_at_10\": {:.4}, \"seconds\": {:.6}, \
             \"users_per_second\": {:.1}, \"speedup_vs_exact\": {:.3}, \"exact\": {}}}{}\n",
            r.clusters_probed,
            r.recall_at_10,
            r.seconds,
            r.users_per_second,
            r.users_per_second / ivf_exact_ups,
            r.nprobe == PROBE_ALL,
            if i + 1 < ivf_rows.len() { "," } else { "" }
        ));
    }
    // The headline the acceptance bar reads: the best speedup among sweep
    // points that keep recall@10 at or above 0.95.
    let best_accurate = ivf_rows
        .iter()
        .filter(|r| r.recall_at_10 >= 0.95 && r.nprobe != PROBE_ALL)
        .map(|r| (r.nprobe, r.users_per_second / ivf_exact_ups, r.recall_at_10))
        .fold(None::<(usize, f64, f64)>, |best, row| match best {
            Some(b) if b.1 >= row.1 => Some(b),
            _ => Some(row),
        });
    match best_accurate {
        Some((nprobe, speedup, recall)) => out.push_str(&format!(
            "    ],\n    \"best_at_recall_0_95\": {{\"nprobe\": {nprobe}, \"recall_at_10\": {recall:.4}, \
             \"speedup_vs_exact\": {speedup:.3}}}\n  }}\n",
        )),
        None => out.push_str("    ],\n    \"best_at_recall_0_95\": null\n  }\n"),
    }
    out.push_str("}\n");

    std::fs::write("BENCH_serving.json", &out).expect("failed to write BENCH_serving.json");
    println!("{out}");
    eprintln!(
        "wrote BENCH_serving.json (best sharded throughput {:.2}x the single-node baseline)",
        best_sharded / single_ups
    );
}
