//! Generates `BENCH_telemetry.json`: the cost and the coverage of the
//! `ham-telemetry` layer.
//!
//! Two sections:
//!
//! * **Serve overhead** — the same online micro-batched serving run measured
//!   with a disabled telemetry handle and with a fully enabled one (all
//!   counters, histograms, stage spans and the flight recorder live). The
//!   arms are interleaved inside every rep (the arm order alternating
//!   rep-to-rep so slow drift cancels instead of taxing one arm), and the
//!   headline is the **median of the per-rep paired p50 differences** — a
//!   best-of per independent arm would let two unrelated lucky minima
//!   fabricate an overhead (or a speedup) out of scheduler noise. The
//!   median paired overhead must stay within 2%.
//! * **Full-loop snapshot** — one train → publish → serve round through
//!   [`OnlineTrainer`] with a global telemetry handle installed, a shed-
//!   provoking flood against a tiny admission queue, and a staleness
//!   refresh after a real wait. The resulting [`MetricsSnapshot`] — with
//!   the kernel-dispatch tier counters joined in — is embedded verbatim,
//!   proving the shed / publish / staleness / per-tier metrics are nonzero
//!   on a real run.
//!
//! Run from the repository root: `cargo run --release -p ham-bench --bin
//! telemetry_report` (append `-- --quick` for the CI smoke configuration).
//! The JSON is written to the current directory.

use ham_core::{HamConfig, HamModel, HamVariant, TrainConfig};
use ham_data::SequenceDataset;
use ham_online::{OnlineConfig, OnlineTrainer};
use ham_serve::{LatencyStats, ModelRegistry, RecServer, RecommendRequest, ServerConfig, ServingModel};
use ham_telemetry::{MetricsSnapshot, Telemetry};
use ham_tensor::kernels::active_tier;
use ham_tensor::pool::global_pool;
use std::sync::Arc;
use std::time::Duration;

const D: usize = 32;
const K: usize = 10;

struct BenchScale {
    items: usize,
    users: usize,
    reps: usize,
    requests_per_client: usize,
    clients: usize,
}

impl BenchScale {
    fn new(quick: bool) -> Self {
        if quick {
            Self { items: 2_000, users: 64, reps: 3, requests_per_client: 60, clients: 2 }
        } else {
            Self { items: 10_000, users: 200, reps: 7, requests_per_client: 250, clients: 4 }
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

/// One serving pass: `clients` threads push `requests_per_client` requests
/// each through the micro-batching queue; returns every request's total
/// latency in microseconds.
fn serve_pass(server: &Arc<RecServer>, histories: &[Vec<usize>], scale: &BenchScale) -> Vec<u64> {
    let handles: Vec<_> = (0..scale.clients)
        .map(|c| {
            let server = Arc::clone(server);
            let histories = histories.to_vec();
            let per_client = scale.requests_per_client;
            std::thread::spawn(move || {
                let mut samples = Vec::with_capacity(per_client);
                for r in 0..per_client {
                    let user = (c * 31 + r * 7) % histories.len();
                    let response = server
                        .submit(RecommendRequest::new(user, histories[user].clone(), K))
                        .expect("bench requests stay within the queue bound");
                    samples.push(response.total_micros());
                }
                samples
            })
        })
        .collect();
    let mut samples = Vec::new();
    for handle in handles {
        samples.extend(handle.join().expect("client thread panicked"));
    }
    samples
}

/// One paired overhead measurement: per-rep (off, on) latency stats and the
/// per-rep paired p50 difference, summarized by its median.
struct OverheadMeasurement {
    rep_off: Vec<LatencyStats>,
    rep_on: Vec<LatencyStats>,
    /// Per-rep paired p50 overhead, percent: `(on − off) / off · 100`.
    rep_overhead_pct: Vec<f64>,
    /// Median of the per-rep paired differences — the gated headline.
    median_overhead_pct: f64,
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("overhead percentages are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Measures serve latency with telemetry off vs fully on. The two arms are
/// interleaved inside every rep and the rep's **paired** p50 difference is
/// what gets summarized — two independent best-ofs would each chase their
/// own lucky scheduler window, and their difference would measure noise, not
/// telemetry (a previously committed run "passed" the gate at −3.99% that
/// way: the instrumented arm cannot actually be 4% faster). Alternating
/// which arm runs first cancels slow drift (cache warmth, turbo, noisy
/// neighbours) within the pair instead of always taxing the second arm.
fn measure_overhead(scale: &BenchScale) -> OverheadMeasurement {
    let (model, histories) = bench_model(scale);
    let shards = 2;
    let build_server = |telemetry: Telemetry| {
        let registry = Arc::new(ModelRegistry::new(
            ServingModel::from_scorer("ham-sm", Arc::clone(&model), shards).expect("HAM has a linear head"),
        ));
        Arc::new(RecServer::start_with_telemetry(registry, ServerConfig::default(), telemetry))
    };
    let server_off = build_server(Telemetry::disabled());
    let server_on = build_server(Telemetry::enabled());
    // Warm-up both arms: first-touch page faults and cold caches hit no one.
    serve_pass(&server_off, &histories, scale);
    serve_pass(&server_on, &histories, scale);

    let mut rep_off = Vec::with_capacity(scale.reps);
    let mut rep_on = Vec::with_capacity(scale.reps);
    let mut rep_overhead_pct = Vec::with_capacity(scale.reps);
    for rep in 0..scale.reps {
        let stats = |samples: Vec<u64>| LatencyStats::from_micros(samples).expect("samples");
        let (off, on) = if rep % 2 == 0 {
            let off = stats(serve_pass(&server_off, &histories, scale));
            let on = stats(serve_pass(&server_on, &histories, scale));
            (off, on)
        } else {
            let on = stats(serve_pass(&server_on, &histories, scale));
            let off = stats(serve_pass(&server_off, &histories, scale));
            (off, on)
        };
        rep_overhead_pct.push((on.p50_micros as f64 - off.p50_micros as f64) / off.p50_micros as f64 * 100.0);
        rep_off.push(off);
        rep_on.push(on);
    }
    let median_overhead_pct = median(&rep_overhead_pct);
    OverheadMeasurement { rep_off, rep_on, rep_overhead_pct, median_overhead_pct }
}

/// Floods a tiny admission queue until at least one request sheds; the
/// admitted ones are all answered. Retries (bounded) because shedding needs
/// a submit to race the dispatcher's drain.
fn provoke_shed(server: &Arc<RecServer>, histories: &[Vec<usize>]) -> u64 {
    for _ in 0..20 {
        let handles: Vec<_> = (0..8)
            .map(|c| {
                let server = Arc::clone(server);
                let history = histories[c % histories.len()].clone();
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        let _ = server.submit(RecommendRequest::new(c % 4, history.clone(), K));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("flood thread panicked");
        }
        let shed = server.stats().shed;
        if shed > 0 {
            return shed;
        }
    }
    server.stats().shed
}

/// Runs the full train → publish → serve round with a global enabled
/// telemetry handle and returns the final joined snapshot.
fn full_loop_snapshot(quick: bool) -> MetricsSnapshot {
    assert!(
        ham_telemetry::install_global(Telemetry::enabled()),
        "telemetry_report must be the first global install in this process"
    );
    let telemetry = ham_telemetry::global();

    let users = if quick { 24 } else { 64 };
    let items = if quick { 200 } else { 1_000 };
    let initial = SequenceDataset::new("telemetry-loop", vec![(0..20).map(|t| t % items).collect(); users], items);
    let config = OnlineConfig {
        model: HamConfig::for_variant(HamVariant::HamM).with_dimensions(16, 4, 2, 2, 1),
        train: TrainConfig { epochs: 1, batch_size: 64, ..TrainConfig::default() },
        shards: 2,
        quantize_serving: true,
        ivf: None,
        seed: 7,
        gate: ham_online::PublishGate::default(),
    };
    let mut trainer = OnlineTrainer::bootstrap_with_telemetry(&initial, config, telemetry.clone());

    // Fresh traffic, then a full incremental round: grow → train → publish.
    for u in 0..users {
        for t in 0..6 {
            trainer.ingest(u, (u * 13 + t * 3) % items);
        }
    }
    let report = trainer.run_round();
    eprintln!(
        "full loop: round {} published v{} ({} fresh, {} instances)",
        report.round, report.version, report.fresh_interactions, report.instances_trained
    );

    // Serve through a server that records into the same registry; a tiny
    // queue makes the flood below shed deterministically enough.
    let server_config = ServerConfig { max_queue: 1, coalesce_wait: Duration::from_micros(500), ..Default::default() };
    let server = Arc::new(RecServer::start_with_telemetry(trainer.registry(), server_config, telemetry.clone()));
    let histories: Vec<Vec<usize>> = (0..users).map(|u| (0..8).map(|t| (u * 13 + t) % items).collect()).collect();
    let shed = provoke_shed(&server, &histories);
    eprintln!("flood: {} requests shed by the max_queue=1 admission gate", shed);

    // Let the published snapshot age a little so staleness is a real number.
    std::thread::sleep(Duration::from_millis(1_200));
    let staleness = trainer.refresh_staleness();
    eprintln!("staleness: {staleness}s since the round's publish");

    let mut snapshot = telemetry.snapshot().expect("enabled handle");
    // Join the kernel-dispatch tier counters (self-contained in ham-tensor).
    for tier in ham_tensor::kernels::counters::snapshot() {
        snapshot.push_counter(&format!("kernel_{}_calls_total", tier.tier), tier.calls);
        snapshot.push_counter(&format!("kernel_{}_bytes_total", tier.tier), tier.bytes);
    }
    snapshot
}

/// Kernel invocations across every tier: the `kernel_*_calls_total`
/// counters only (their `kernel_*_bytes_total` siblings count bytes).
fn kernel_tier_calls(snapshot: &MetricsSnapshot) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|c| c.name.starts_with("kernel_") && c.name.ends_with("_calls_total"))
        .map(|c| c.value)
        .sum()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = BenchScale::new(quick);
    let threads = global_pool().threads();
    eprintln!(
        "telemetry_report: {} items, {} users, d = {D}, pool threads = {threads}{}",
        scale.items,
        scale.users,
        if quick { " (quick)" } else { "" }
    );

    eprintln!(
        "measuring serve p50 with telemetry off vs on, paired per rep ({} reps, alternating order)...",
        scale.reps
    );
    let overhead = measure_overhead(&scale);
    let overhead_pct = overhead.median_overhead_pct;
    eprintln!(
        "per-rep paired p50 overhead {:?}%: median {:.2}%",
        overhead.rep_overhead_pct.iter().map(|p| (p * 100.0).round() / 100.0).collect::<Vec<_>>(),
        overhead_pct
    );

    eprintln!("running the instrumented train → publish → serve loop...");
    let snapshot = full_loop_snapshot(quick);
    let total_tier_calls = kernel_tier_calls(&snapshot);
    let shed = snapshot.counter("serve_requests_shed_total").unwrap_or(0);
    let publishes = snapshot.counter("online_publishes_total").unwrap_or(0);
    let staleness = snapshot.gauge("online_serving_staleness_seconds").unwrap_or(0);

    let mut out = String::from("{\n");
    out.push_str(
        "  \"description\": \"ham-telemetry cost and coverage: online serve p50 measured with a disabled vs \
         fully enabled telemetry handle (arms interleaved within every rep, order alternating rep-to-rep; \
         the gated headline is the median of the per-rep paired p50 differences, so unrelated lucky minima \
         in the two arms cannot fabricate an overhead or a speedup; counters, latency histograms, stage \
         spans and the flight recorder all live on the enabled arm), plus the full metrics snapshot of one \
         instrumented train->publish->serve round with kernel-dispatch tier counters joined in.\",\n",
    );
    out.push_str(&format!(
        "  \"d\": {D},\n  \"k\": {K},\n  \"items\": {},\n  \"users\": {},\n  \"pool_threads\": {threads},\n  \
         \"active_tier\": \"{}\",\n  \"quick\": {quick},\n",
        scale.items,
        scale.users,
        active_tier()
    ));
    let p50s = |reps: &[LatencyStats]| reps.iter().map(|s| s.p50_micros).collect::<Vec<_>>();
    let median_p50 = |reps: &[LatencyStats]| median(&reps.iter().map(|s| s.p50_micros as f64).collect::<Vec<_>>());
    let median_p99 = |reps: &[LatencyStats]| median(&reps.iter().map(|s| s.p99_micros as f64).collect::<Vec<_>>());
    out.push_str(&format!(
        "  \"serve_overhead\": {{\"reps\": {}, \"requests_per_rep\": {}, \
         \"rep_p50_off_micros\": {:?}, \"rep_p50_on_micros\": {:?}, \
         \"median_p50_off_micros\": {:.1}, \"median_p50_on_micros\": {:.1}, \
         \"median_p99_off_micros\": {:.1}, \"median_p99_on_micros\": {:.1}, \
         \"rep_paired_overhead_pct\": [{}], \
         \"median_paired_overhead_pct\": {:.2}, \"within_2pct\": {}}},\n",
        scale.reps,
        scale.clients * scale.requests_per_client,
        p50s(&overhead.rep_off),
        p50s(&overhead.rep_on),
        median_p50(&overhead.rep_off),
        median_p50(&overhead.rep_on),
        median_p99(&overhead.rep_off),
        median_p99(&overhead.rep_on),
        overhead.rep_overhead_pct.iter().map(|p| format!("{p:.2}")).collect::<Vec<_>>().join(", "),
        overhead_pct,
        overhead_pct <= 2.0
    ));
    out.push_str(&format!(
        "  \"full_round\": {{\"shed\": {shed}, \"publishes\": {publishes}, \
         \"staleness_seconds\": {staleness}, \"kernel_tier_calls\": {total_tier_calls}}},\n"
    ));
    let snapshot_json = serde_json::to_string(&snapshot).expect("snapshot serializes");
    out.push_str(&format!("  \"snapshot\": {snapshot_json}\n"));
    out.push_str("}\n");

    std::fs::write("BENCH_telemetry.json", &out).expect("failed to write BENCH_telemetry.json");
    println!("{out}");
    eprintln!(
        "wrote BENCH_telemetry.json (p50 overhead {:.2}%; shed {shed}, publishes {publishes}, staleness {staleness}s)",
        overhead_pct
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_tier_calls_counts_calls_not_bytes() {
        let mut snapshot = MetricsSnapshot::default();
        snapshot.push_counter("kernel_avx512_calls_total", 19_000);
        snapshot.push_counter("kernel_avx512_bytes_total", 5_775_333_280);
        snapshot.push_counter("kernel_portable_calls_total", 742);
        snapshot.push_counter("kernel_portable_bytes_total", 1_000);
        snapshot.push_counter("serve_requests_shed_total", 3);
        assert_eq!(kernel_tier_calls(&snapshot), 19_742);
    }
}
