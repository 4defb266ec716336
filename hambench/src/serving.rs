//! A closed-loop client on a `RecServer`, the checks and oracle over what it
//! was served, and the replay of recorded requests through the public stage
//! calls (the traced run's per-layer breakdown).
//!
//! Workload `solo_large` lives here; `online_churn` reuses the client loop.

use crate::oracle::{self, DenseRows, Rows};
use crate::report::{Outcome, Values};
use crate::trace::SpanBuf;
use crate::util::{self, Clock, Rng};
use crate::Args;
use ham_core::{HamConfig, HamModel};
use ham_data::synthetic::DatasetProfile;
use ham_faults::FaultInjector;
use ham_serve::{merge_top_k, ModelRegistry, RecServer, RecommendRequest, ServerConfig, ServingModel, SubmitError};
use ham_telemetry::Telemetry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Top-k cutoff of every request.
pub const K: usize = 10;
/// Serving shards (= the core count the workloads are sized for).
pub const SHARDS: usize = 2;

/// `solo_large`: users and catalogue size (200k items, 51 MB of f32 rows).
const USERS: usize = 2_000;
const ITEMS: usize = 200_000;

/// Set-up repetitions per run (set-up here is a fraction of a second).
const SETUP_REPS: usize = 5;

/// Starts a server with telemetry and fault injection pinned off.
pub fn start_server(registry: Arc<ModelRegistry>) -> RecServer {
    RecServer::start_instrumented(registry, ServerConfig::default(), Telemetry::disabled(), FaultInjector::disabled())
}

/// What one response carried. Item ids are kept inline (the first `K`, and
/// the count) so the benchmark's own bookkeeping stays small beside the
/// measured process's peak memory.
pub struct Served {
    ids: [u32; K],
    len: usize,
    pub version: u64,
    pub queue_us: u64,
    pub service_us: u64,
    pub degraded: bool,
}

/// One client call of `RecServer::submit`.
pub struct Record {
    pub op: u64,
    pub user: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub outcome: Result<Served, SubmitError>,
}

impl Served {
    /// The served ids (at most `K` of them; `len` tells if there were more).
    pub fn items(&self) -> Vec<usize> {
        let mut items: Vec<usize> = self.ids[..self.len.min(K)].iter().map(|&i| i as usize).collect();
        // Report an over-long list as such without keeping its tail.
        items.extend(std::iter::repeat_n(usize::MAX, self.len.saturating_sub(K)));
        items
    }
}

impl Record {
    pub fn latency_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn served(&self) -> Option<&Served> {
        self.outcome.as_ref().ok()
    }
}

/// A measured phase of client traffic.
pub struct Phase {
    /// Every call, in order.
    pub records: Vec<Record>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub spans: SpanBuf,
    pub kernel_calls: u64,
    pub kernel_bytes: u64,
    pub shed: u64,
    pub degraded: u64,
}

/// When the client stops: at `deadline`, or once `flag` is raised.
pub struct Stop<'a> {
    pub deadline: Option<Instant>,
    pub flag: Option<&'a AtomicBool>,
}

impl Stop<'_> {
    fn reached(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d) || self.flag.is_some_and(|f| f.load(Ordering::Acquire))
    }
}

pub fn kernel_totals() -> (u64, u64) {
    ham_tensor::kernels::counters::snapshot().iter().fold((0, 0), |(c, b), t| (c + t.calls, b + t.bytes))
}

/// Runs one closed-loop client until `stop`. It picks users from a seeded
/// stream and sends the user's history. `max_version` (if given) tracks the
/// newest model version any response carried.
pub fn drive(
    server: &RecServer,
    histories: &[Vec<usize>],
    seed: u64,
    clock: Clock,
    stop: &Stop<'_>,
    max_version: Option<&AtomicU64>,
    trace: bool,
) -> Phase {
    let stats_before = server.stats();
    let (calls_before, bytes_before) = kernel_totals();
    let mut rng = Rng::new(seed, 1_000);
    let mut records = Vec::new();
    let mut spans = SpanBuf::default();
    let start_ns = clock.ns();
    while !stop.reached() {
        let user = rng.below(histories.len());
        let request = RecommendRequest::new(user, histories[user].clone(), K);
        let op = records.len() as u64;
        let start_ns = clock.ns();
        let result = server.submit(request);
        let end_ns = clock.ns();
        let outcome = result.map(|r| {
            let mut ids = [u32::MAX; K];
            for (slot, scored) in ids.iter_mut().zip(&r.items) {
                *slot = scored.item as u32;
            }
            Served {
                ids,
                len: r.items.len(),
                version: r.model_version,
                queue_us: r.queue_micros,
                service_us: r.service_micros,
                degraded: r.degraded,
            }
        });
        if let (Some(max), Ok(served)) = (max_version, &outcome) {
            max.fetch_max(served.version, Ordering::AcqRel);
        }
        if trace {
            let root = spans.record("client.submit", start_ns, end_ns, None, op);
            if let Ok(served) = &outcome {
                let picked = spans.reported("serve.queue", start_ns, served.queue_us as f64, root, op);
                spans.reported("serve.service", picked, served.service_us as f64, root, op);
            }
        }
        records.push(Record { op, user, start_ns, end_ns, outcome });
    }
    let end_ns = clock.ns();
    let (calls_after, bytes_after) = kernel_totals();
    let stats_after = server.stats();
    Phase {
        records,
        start_ns,
        end_ns,
        spans,
        kernel_calls: calls_after - calls_before,
        kernel_bytes: bytes_after - bytes_before,
        shed: stats_after.shed - stats_before.shed,
        degraded: stats_after.degraded - stats_before.degraded,
    }
}

/// Counts over a phase's responses.
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Responses that broke the serving contract (wrong length, duplicate or
    /// seen item); any makes the run incorrect.
    pub malformed: Vec<String>,
}

/// Checks every response of `phase`. A `SubmitError`, a degraded response
/// or a malformed one counts as failed.
pub fn tally(phase: &Phase, histories: &[Vec<usize>], num_items: usize) -> Tally {
    let mut failed = 0;
    let mut malformed = Vec::new();
    for record in &phase.records {
        match &record.outcome {
            Err(_) => failed += 1,
            Ok(served) => {
                let check = oracle::check_response(&served.items(), K, &histories[record.user], num_items);
                if let Err(why) = check {
                    failed += 1;
                    if malformed.len() < 5 {
                        malformed.push(format!("malformed response to op {}: {why}", record.op));
                    }
                } else if served.degraded {
                    failed += 1;
                }
            }
        }
    }
    Tally { attempted: phase.records.len() as u64, failed, malformed }
}

/// Successful calls of a phase as `(completion ns, latency ms, 1 op)`.
fn completions(phase: &Phase) -> Vec<(u64, f64, f64)> {
    phase
        .records
        .iter()
        .filter(|r| r.served().is_some_and(|s| !s.degraded))
        .map(|r| (r.end_ns, r.latency_ms(), 1.0))
        .collect()
}

/// Throughput and median latency of the phase's best window (see
/// [`util::best_window`]), the pooled p99 (ms), and the sample count.
pub fn traffic_values(phase: &Phase) -> (f64, f64, f64, usize) {
    let done = completions(phase);
    let (per_s, p50) = util::best_window(&done, phase.start_ns, phase.end_ns);
    let latencies = util::sorted(done.iter().map(|d| d.1).collect());
    (per_s, p50, util::percentile(&latencies, 0.99), latencies.len())
}

/// The client's view of a phase over all of it: completions per second and
/// latency percentiles.
pub fn client_values(phase: &Phase, values: &mut Values) {
    let latencies = util::sorted(completions(phase).iter().map(|d| d.1).collect());
    values.set("serve.client_ops_s", latencies.len() as f64 / ((phase.end_ns - phase.start_ns) as f64 / 1e9));
    values.set("serve.client_p50_ms", util::percentile(&latencies, 0.50));
    values.set("serve.client_p99_ms", util::percentile(&latencies, 0.99));
}

/// Picks up to `n` evenly spaced successful records.
pub fn sample_served(records: &[Record], n: usize) -> Vec<&Record> {
    let served: Vec<&Record> = records.iter().filter(|r| r.served().is_some()).collect();
    let stride = served.len().div_ceil(n.max(1)).max(1);
    served.into_iter().step_by(stride).collect()
}

/// Oracle agreement over a sample of `(record, query, catalogue rows)`:
/// mean overlap, the number of served items no near-tie explains, and the
/// sample size.
pub fn oracle_values<'a>(
    samples: impl IntoIterator<Item = (&'a Record, Vec<f32>, &'a dyn Rows)>,
    histories: &[Vec<usize>],
) -> (f64, usize, usize) {
    let mut overlap = 0.0;
    let mut unexplained = 0;
    let mut n = 0;
    for (record, query, rows) in samples {
        let served = record.served().expect("sampled records were served");
        let verdict = oracle::judge(&query, rows, &histories[record.user], &served.items(), K);
        overlap += verdict.overlap;
        unexplained += verdict.unexplained;
        n += 1;
    }
    (if n == 0 { 0.0 } else { overlap / n as f64 }, unexplained, n)
}

/// Per-layer costs from replaying recorded requests through the public
/// stage calls.
#[derive(Default)]
pub struct Replay {
    pub calls: usize,
    pub scan_us: f64,
    pub scan_bytes: f64,
    pub select_us: f64,
    pub merge_us: f64,
    pub query_us: f64,
    /// Stage time of the replayed calls: query build, every shard's scan and
    /// select in sequence (as on the solo path), and the merge.
    pub stage_us: f64,
}

impl Replay {
    pub fn write(&self, values: &mut Values, service_us_mean: f64) {
        let calls = self.calls.max(1) as f64;
        values.set("tensor.scan_us", self.scan_us / calls);
        values.set("tensor.scan_gbps", if self.scan_us > 0.0 { self.scan_bytes / (self.scan_us * 1e3) } else { 0.0 });
        values.set("serve.select_us", self.select_us / calls);
        values.set("serve.merge_us", self.merge_us / calls);
        values.set("core.query_build_us", self.query_us / calls);
        values.set("serve.dispatch_overhead_us", service_us_mean - self.stage_us / calls);
    }
}

/// Replays recorded requests one by one against `model` through the solo
/// path's public stage calls, spending at most `budget` on it. Spans go to
/// `spans`.
pub fn replay(
    model: &ServingModel,
    histories: &[Vec<usize>],
    records: &[Record],
    budget: Duration,
    clock: Clock,
    spans: &mut SpanBuf,
) -> Replay {
    let catalog = model.catalog();
    let d = catalog.dim() as f64;
    let served: Vec<&Record> = records.iter().filter(|r| r.served().is_some()).collect();
    let mut seen = vec![false; catalog.num_items()];
    let mut buf = Vec::new();
    let mut out = Replay::default();
    let started = Instant::now();
    // Evenly spaced requests, densest first, until the budget runs out.
    for i in spread_order(served.len()) {
        if started.elapsed() >= budget {
            break;
        }
        let r = served[i];
        let history = &histories[r.user];
        let root = spans.record("replay.call", clock.ns(), 0, None, r.op);
        let t0 = clock.ns();
        let query = model.query_vector(r.user, history);
        let t1 = clock.ns();
        spans.record("core.query_build", t0, t1, Some(root), r.op);
        out.query_us += (t1 - t0) as f64 / 1e3;
        for &item in history {
            seen[item] = true;
        }
        let mut lists = Vec::with_capacity(catalog.num_shards());
        for (s, shard) in catalog.shards().iter().enumerate() {
            let rows = shard.len() as f64;
            buf.resize(shard.len(), 0.0);
            let t0 = clock.ns();
            catalog.shard_scores_into(s, &query, &mut buf);
            let t1 = clock.ns();
            spans.record("tensor.scan", t0, t1, Some(root), r.op);
            out.scan_us += (t1 - t0) as f64 / 1e3;
            out.scan_bytes += 4.0 * (rows * d + d + rows);
            let t0 = clock.ns();
            lists.push(catalog.shard_top_k(s, &buf, K, Some(&seen)));
            let t1 = clock.ns();
            spans.record("serve.select", t0, t1, Some(root), r.op);
            out.select_us += (t1 - t0) as f64 / 1e3;
        }
        for &item in history {
            seen[item] = false;
        }
        let t0 = clock.ns();
        let merged = merge_top_k(&lists, K);
        let t1 = clock.ns();
        spans.record("serve.merge", t0, t1, Some(root), r.op);
        out.merge_us += (t1 - t0) as f64 / 1e3;
        std::hint::black_box(merged);
        spans.spans[root].end_ns = clock.ns();
        out.calls += 1;
    }
    out.stage_us = out.query_us + out.scan_us + out.select_us + out.merge_us;
    out
}

/// `0..n` in an order that covers the range evenly at every prefix: the
/// strided visit 0, n/2, n/4, 3n/4, … as bit-reversed indices.
fn spread_order(n: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let bits = usize::BITS - (n - 1).max(1).leading_zeros();
    (0..1usize << bits).map(|i| i.reverse_bits() >> (usize::BITS - bits)).filter(|&i| i < n).collect()
}

/// Queue / service figures of a phase's responses.
pub fn response_values(phase: &Phase, values: &mut Values) -> f64 {
    let served: Vec<&Served> = phase.records.iter().filter_map(Record::served).collect();
    let queue = util::sorted(served.iter().map(|s| s.queue_us as f64).collect());
    let service: Vec<f64> = served.iter().map(|s| s.service_us as f64).collect();
    let service_mean = util::mean(&service);
    values.set("serve.queue_us_mean", util::mean(&queue));
    values.set("serve.queue_us_p99", util::percentile(&queue, 0.99));
    values.set("serve.service_us_mean", service_mean);
    values.set("serve.shed_total", phase.shed as f64);
    values.set("serve.degraded_total", phase.degraded as f64);
    let ops = phase.records.len().max(1) as f64;
    values.set("tensor.kernel_calls_per_op", phase.kernel_calls as f64 / ops);
    values.set("tensor.kernel_bytes_per_op", phase.kernel_bytes as f64 / ops);
    service_mean
}

/// A frozen serving snapshot of a seeded model over a seeded dataset.
struct Instance {
    histories: Vec<Vec<usize>>,
    model: Arc<HamModel>,
    registry: Arc<ModelRegistry>,
    server: RecServer,
}

/// Seconds spent in each set-up stage of one repetition.
#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    pub data_s: f64,
    pub train_s: f64,
    pub freeze_s: f64,
}

impl SetupTimes {
    /// Medians over repetitions into the `setup.*` metrics.
    pub fn write(reps: &[SetupTimes], values: &mut Values) {
        let med = |f: fn(&SetupTimes) -> f64| util::median(&reps.iter().map(f).collect::<Vec<_>>());
        values.set("setup.data_s", med(|t| t.data_s));
        values.set("setup.train_s", med(|t| t.train_s));
        values.set("setup.freeze_s", med(|t| t.freeze_s));
    }
}

pub fn model_config() -> HamConfig {
    // HAMs_m, the paper's flagship variant, at d = 64.
    HamConfig::for_variant(ham_core::HamVariant::HamSM)
}

fn build(seed: u64, times: &mut Vec<SetupTimes>) -> Instance {
    let t0 = Instant::now();
    let profile = DatasetProfile { num_users: USERS, num_items: ITEMS, ..DatasetProfile::cds() };
    let data = profile.generate(seed);
    let t1 = Instant::now();
    // Serving cost does not depend on trained weights, so the served model is
    // the seeded initialisation (no training in set-up).
    let model = Arc::new(HamModel::new(data.num_users(), data.num_items, model_config(), seed));
    let t2 = Instant::now();
    let serving = ServingModel::from_scorer("hambench", Arc::clone(&model), SHARDS).expect("HAM has a linear head");
    let registry = Arc::new(ModelRegistry::new(serving));
    let server = start_server(Arc::clone(&registry));
    let t3 = Instant::now();
    times.push(SetupTimes {
        data_s: (t1 - t0).as_secs_f64(),
        train_s: (t2 - t1).as_secs_f64(),
        freeze_s: (t3 - t2).as_secs_f64(),
    });
    Instance { histories: data.sequences, model, registry, server }
}

/// Oracle sample size: keeps the oracle's `f64` scan near 15M row visits.
pub fn oracle_samples(num_items: usize) -> usize {
    (15_000_000 / num_items.max(1)).clamp(32, 512)
}

/// Runs `solo_large`.
pub fn run(args: &Args) -> Outcome {
    let clock = Clock::new();
    let mut times = Vec::new();
    let (inst, setup_secs) = util::repeat_setup(SETUP_REPS, || build(args.seed, &mut times));
    let mut values = Values::default();
    values.set("setup_s", util::median(&setup_secs));
    SetupTimes::write(&times, &mut values);

    let deadline = |secs: f64| Stop { deadline: Some(Instant::now() + Duration::from_secs_f64(secs)), flag: None };
    let num_items = inst.model.num_items();
    let phase = drive(&inst.server, &inst.histories, args.seed, clock, &deadline(args.seconds), None, false);
    values.set("peak_rss_mb", util::peak_rss_mb());
    let tally = tally(&phase, &inst.histories, num_items);
    let (throughput, p50, p99, samples) = traffic_values(&phase);
    values.set("throughput_ops_s", throughput);
    values.set("latency_p50_ms", p50);
    values.set("latency_p99_ms", p99);
    values.set("latency_samples", samples as f64);
    values.set("ok_frac", (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64);
    client_values(&phase, &mut values);

    let rows = DenseRows(inst.model.candidate_item_embeddings());
    let sample = sample_served(&phase.records, oracle_samples(num_items));
    let queries =
        sample.iter().map(|r| (*r, inst.model.query_vector(r.user, &inst.histories[r.user]), &rows as &dyn Rows));
    let (recall, unexplained, checked) = oracle_values(queries, &inst.histories);
    values.set("oracle_recall_at_10", recall);

    let mut notes = tally.malformed.clone();
    if unexplained > 0 {
        notes
            .push(format!("{unexplained} served items beyond f32 near-ties of the oracle top-{K} ({checked} checked)"));
    }
    if args.trace {
        let traced = drive(&inst.server, &inst.histories, args.seed ^ 1, clock, &deadline(args.seconds), None, true);
        let traced_tally = self::tally(&traced, &inst.histories, num_items);
        notes.extend(traced_tally.malformed.iter().cloned());
        let (t_throughput, t_p50, t_p99, _) = traffic_values(&traced);
        crate::overhead(&mut values, (throughput, p50, p99), (t_throughput, t_p50, t_p99));
        let service_mean = response_values(&traced, &mut values);
        let mut spans = traced.spans;
        let published = inst.registry.current();
        let replayed = replay(&published.model, &inst.histories, &traced.records, REPLAY_BUDGET, clock, &mut spans);
        replayed.write(&mut values, service_mean);
        crate::write_trace(args, &spans, &values);
    }
    inst.server.shutdown();
    Outcome { correct: notes.is_empty(), attempted: tally.attempted, failed: tally.failed, values, notes }
}

/// Wall-clock cap on the replay of one traced run.
pub const REPLAY_BUDGET: Duration = Duration::from_millis(2_000);
