//! `online_churn`: writes beside reads on one registry.
//!
//! One client serves continuously while a generator thread ingests a
//! fixed-rate event stream through `OnlineTrainer::ingest` and calls
//! `run_round` (train → shadow gate → publish) every [`ROUND_EVENTS`]
//! events. The stream, the round schedule and therefore every trained model
//! are fixed by the seed; only the event *rate* follows `--seconds`, so the
//! schedule spans the measured phase.

use crate::oracle::{Rows, ShardRows};
use crate::report::{Outcome, Values};
use crate::serving::{self, Record, SetupTimes, Stop, K, SHARDS};
use crate::trace::SpanBuf;
use crate::util::{self, Clock, Rng};
use crate::Args;
use ham_core::TrainConfig;
use ham_data::synthetic::DatasetProfile;
use ham_data::SequenceDataset;
use ham_faults::FaultInjector;
use ham_online::{OnlineConfig, OnlineTrainer, PublishGate};
use ham_serve::{PublishedModel, RecServer, RecommendRequest};
use ham_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USERS: usize = 3_000;
const ITEMS: usize = 20_000;
/// Interactions per user held back from the bootstrap and streamed.
const STREAMED_PER_USER: usize = 2;
const ROUND_EVENTS: usize = 750;
const EPOCHS: usize = 2;
const SETUP_REPS: usize = 5;

/// The seeded split of one dataset into bootstrap history, event stream and
/// held-out final interactions.
struct Stream {
    initial: Vec<Vec<usize>>,
    /// `(user, item)` in ingest order: every user's first streamed item (in a
    /// seeded user order), then every user's second.
    events: Vec<(usize, usize)>,
    /// Per user: the history after the stream, and the held-out next item.
    history: Vec<Vec<usize>>,
    target: Vec<usize>,
    num_items: usize,
}

fn stream(seed: u64) -> Stream {
    let profile = DatasetProfile { num_users: USERS, num_items: ITEMS, ..DatasetProfile::cds() };
    let data = profile.generate(seed);
    let mut order: Vec<usize> = (0..data.num_users()).collect();
    let mut rng = Rng::new(seed, 7);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut initial = Vec::with_capacity(order.len());
    let mut history = Vec::with_capacity(order.len());
    let mut target = Vec::with_capacity(order.len());
    for seq in &data.sequences {
        let (before, last) = seq.split_at(seq.len() - 1);
        initial.push(before[..before.len() - STREAMED_PER_USER].to_vec());
        history.push(before.to_vec());
        target.push(last[0]);
    }
    let events = (0..STREAMED_PER_USER)
        .flat_map(|j| order.iter().map(move |&u| (u, j)))
        .map(|(u, j)| (u, history[u][initial[u].len() + j]))
        .collect();
    Stream { initial, events, history, target, num_items: data.num_items }
}

fn config(seed: u64) -> OnlineConfig {
    OnlineConfig {
        model: serving::model_config(),
        train: TrainConfig { epochs: EPOCHS, ..TrainConfig::default() },
        shards: SHARDS,
        quantize_serving: false,
        ivf: None,
        seed,
        gate: PublishGate::default(),
    }
}

struct Instance {
    stream: Stream,
    trainer: OnlineTrainer,
    server: RecServer,
}

fn build(seed: u64, times: &mut Vec<SetupTimes>) -> Instance {
    let t0 = Instant::now();
    let stream = stream(seed);
    let initial = SequenceDataset::new("online_churn", stream.initial.clone(), stream.num_items);
    let t1 = Instant::now();
    let trainer =
        OnlineTrainer::bootstrap_instrumented(&initial, config(seed), Telemetry::disabled(), FaultInjector::disabled());
    let t2 = Instant::now();
    let server = serving::start_server(trainer.registry());
    let t3 = Instant::now();
    times.push(SetupTimes {
        data_s: (t1 - t0).as_secs_f64(),
        train_s: (t2 - t1).as_secs_f64(),
        freeze_s: (t3 - t2).as_secs_f64(),
    });
    Instance { stream, trainer, server }
}

/// One `run_round` call as the generator saw it.
struct RoundLog {
    /// Events ingested before the call (all of them are in its snapshot).
    cutoff: usize,
    start_ns: u64,
    end_ns: u64,
    version: Option<u64>,
    train_s: f64,
    publish_s: f64,
    probes: usize,
}

/// What the generator did.
struct Generated {
    scheduled_ns: Vec<u64>,
    ingested_ns: Vec<u64>,
    ingest_us: Vec<f64>,
    rounds: Vec<RoundLog>,
    snapshots: BTreeMap<u64, Arc<PublishedModel>>,
    spans: SpanBuf,
}

/// Raises the client's stop flag when dropped, so the client stops however
/// the generator ends, a panic in the trainer included.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Ingests the stream on its schedule (event `i` is due `i / rate` seconds
/// after `start_ns`) and runs a round every [`ROUND_EVENTS`] events. Once
/// the last round is done it waits for the client to see the newest version,
/// then stops the client.
fn generate(
    trainer: &mut OnlineTrainer,
    events: &[(usize, usize)],
    rate: f64,
    clock: Clock,
    max_version: &AtomicU64,
    stop: &AtomicBool,
    trace: bool,
) -> Generated {
    let _stop_client = StopOnDrop(stop);
    let registry = trainer.registry();
    let first = registry.current();
    let mut out = Generated {
        scheduled_ns: Vec::with_capacity(events.len()),
        ingested_ns: Vec::with_capacity(events.len()),
        ingest_us: Vec::with_capacity(events.len()),
        rounds: Vec::new(),
        snapshots: BTreeMap::from([(first.version, first)]),
        spans: SpanBuf::default(),
    };
    let start_ns = clock.ns();
    for (i, &(user, item)) in events.iter().enumerate() {
        let due = start_ns + (i as f64 / rate * 1e9) as u64;
        let now = clock.ns();
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let t0 = clock.ns();
        trainer.ingest(user, item);
        let t1 = clock.ns();
        out.scheduled_ns.push(due);
        out.ingested_ns.push(t1);
        out.ingest_us.push((t1 - t0) as f64 / 1e3);
        if trace {
            out.spans.record("online.ingest", t0, t1, None, i as u64);
        }
        if (i + 1) % ROUND_EVENTS == 0 || i + 1 == events.len() {
            let r0 = clock.ns();
            let report = trainer.run_round();
            let r1 = clock.ns();
            let version = report.published.then_some(report.version);
            if let Some(v) = version {
                out.snapshots.insert(v, registry.current());
            }
            if trace {
                let root = out.spans.record("online.round", r0, r1, None, report.round);
                let trained = out.spans.reported("online.train", r0, report.train_seconds * 1e6, root, report.round);
                out.spans.reported("online.publish", trained, report.publish_seconds * 1e6, root, report.round);
            }
            out.rounds.push(RoundLog {
                cutoff: i + 1,
                start_ns: r0,
                end_ns: r1,
                version,
                train_s: report.train_seconds,
                publish_s: report.publish_seconds,
                probes: report.shadow.map_or(0, |s| s.probes),
            });
        }
    }
    let newest = registry.version();
    let waited = Instant::now();
    while max_version.load(Ordering::Acquire) < newest && waited.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_micros(200));
    }
    out
}

/// End time of the first response carrying each version or a newer one.
fn first_served(records: &[Record], versions: impl Iterator<Item = u64>) -> BTreeMap<u64, u64> {
    let mut first = BTreeMap::new();
    for v in versions {
        if let Some(r) = records.iter().find(|r| r.served().is_some_and(|s| s.version >= v)) {
            first.insert(v, r.end_ns);
        }
    }
    first
}

/// Event-to-servable lag per event (ms), from its scheduled ingest time to
/// the first response whose version includes it; events no response
/// covered are counted apart.
fn freshness(gen: &Generated, first: &BTreeMap<u64, u64>) -> (Vec<f64>, usize) {
    let mut lags = Vec::with_capacity(gen.scheduled_ns.len());
    let mut unserved = 0;
    for (i, &due) in gen.scheduled_ns.iter().enumerate() {
        let version = gen.rounds.iter().find(|r| r.cutoff > i && r.version.is_some()).and_then(|r| r.version);
        match version.and_then(|v| first.get(&v)) {
            Some(&at) => lags.push(at.saturating_sub(due) as f64 / 1e6),
            None => unserved += 1,
        }
    }
    (lags, unserved)
}

/// Recall@10 and NDCG@10 of the served model on every user's held-out
/// final interaction, seen items excluded as in serving.
fn quality(model: &ham_serve::ServingModel, stream: &Stream) -> (f64, f64) {
    let mut hits = 0.0;
    let mut gain = 0.0;
    let users: Vec<usize> = (0..stream.history.len()).collect();
    for chunk in users.chunks(64) {
        let requests: Vec<RecommendRequest> =
            chunk.iter().map(|&u| RecommendRequest::new(u, stream.history[u].clone(), K)).collect();
        for (&u, top) in chunk.iter().zip(model.recommend_batch(&requests, None)) {
            if let Some(pos) = top.iter().position(|s| s.item == stream.target[u]) {
                hits += 1.0;
                gain += 1.0 / ((pos + 2) as f64).log2();
            }
        }
    }
    let n = users.len().max(1) as f64;
    (hits / n, gain / n)
}

struct Measured {
    phase: serving::Phase,
    gen: Generated,
}

fn measure(inst: &mut Instance, args: &Args, clock: Clock, seed: u64, trace: bool) -> Measured {
    let rate = inst.stream.events.len() as f64 / args.seconds;
    let stop = AtomicBool::new(false);
    let max_version = AtomicU64::new(inst.server.model_version());
    let Instance { stream, trainer, server } = inst;
    std::thread::scope(|scope| {
        let gen = scope.spawn(|| generate(trainer, &stream.events, rate, clock, &max_version, &stop, trace));
        let until = Stop { deadline: None, flag: Some(&stop) };
        let phase = serving::drive(server, &stream.history, seed, clock, &until, Some(&max_version), trace);
        Measured { phase, gen: gen.join().expect("generator thread panicked") }
    })
}

/// Responses to one client must never step back to an older version.
fn version_regressions(records: &[Record]) -> usize {
    let versions: Vec<u64> = records.iter().filter_map(|r| r.served().map(|s| s.version)).collect();
    versions.windows(2).filter(|w| w[1] < w[0]).count()
}

/// The event view of a phase: the event-to-servable lag p50 and p99 (ms),
/// servable events, and events no response covered.
fn event_traffic(m: &Measured) -> (f64, f64, usize, usize) {
    let first = first_served(&m.phase.records, m.gen.rounds.iter().filter_map(|r| r.version));
    let (lags, unserved) = freshness(&m.gen, &first);
    let lags = util::sorted(lags);
    (util::percentile(&lags, 0.50), util::percentile(&lags, 0.99), lags.len(), unserved)
}

/// The client's serving rate under publish contention: 1000 / the median
/// latency (ms) of the served responses that completed while `run_round`
/// (train → shadow gate → publish) was running. A closed-loop client at
/// that latency serves this many responses per second. The median passes
/// over the stalls other tenants of a shared host cause, which on a 2-vCPU
/// VM halved the raw response rate of whole runs, while a round that slows
/// or blocks serving still moves it: a round that held serving up would
/// leave only a few, slow, responses to take the median of.
fn contended_throughput(m: &Measured) -> f64 {
    let in_round = |at: u64| m.gen.rounds.iter().any(|r| at > r.start_ns && at <= r.end_ns);
    let latencies: Vec<f64> = m
        .phase
        .records
        .iter()
        .filter(|r| r.served().is_some_and(|s| !s.degraded) && in_round(r.end_ns))
        .map(Record::latency_ms)
        .collect();
    let p50 = util::median(&latencies);
    if p50 > 0.0 {
        1000.0 / p50
    } else {
        0.0
    }
}

/// Runs `online_churn`. Throughput is the client's serving rate while
/// rounds run (see [`contended_throughput`]); latency is the
/// event-to-servable lag of the streamed events.
pub fn run(args: &Args) -> Outcome {
    let clock = Clock::new();
    let mut times = Vec::new();
    let (mut inst, setup_secs) = util::repeat_setup(SETUP_REPS, || build(args.seed, &mut times));
    let mut values = Values::default();
    values.set("setup_s", util::median(&setup_secs));
    SetupTimes::write(&times, &mut values);

    let m = measure(&mut inst, args, clock, args.seed, false);
    values.set("peak_rss_mb", util::peak_rss_mb());
    let num_items = inst.stream.num_items;
    let tally = serving::tally(&m.phase, &inst.stream.history, num_items);
    serving::client_values(&m.phase, &mut values);
    let per_s = contended_throughput(&m);
    let (p50, p99, servable, unserved) = event_traffic(&m);
    values.set("throughput_ops_s", per_s);
    values.set("latency_p50_ms", p50);
    values.set("latency_p99_ms", p99);
    values.set("latency_samples", servable as f64);
    let attempted = m.gen.scheduled_ns.len() as u64 + tally.attempted;
    let failed = unserved as u64 + tally.failed;
    values.set("ok_frac", (attempted - failed) as f64 / attempted.max(1) as f64);
    write_online(&m, &mut values);
    let (recall, ndcg) = quality(&inst.trainer.registry().current().model, &inst.stream);
    values.set("model_recall_at_10", recall);
    values.set("model_ndcg_at_10", ndcg);

    let mut notes = tally.malformed.clone();
    let regressions = version_regressions(&m.phase.records);
    if regressions > 0 {
        notes.push(format!("{regressions} responses carried an older model version than the one before"));
    }
    let sample = serving::sample_served(&m.phase.records, serving::oracle_samples(num_items));
    let rows: BTreeMap<u64, ShardRows<'_>> =
        m.gen.snapshots.iter().map(|(&v, p)| (v, ShardRows(p.model.catalog()))).collect();
    let mut missing = 0;
    let queries = sample.iter().filter_map(|r| {
        let v = r.served()?.version;
        let Some(published) = m.gen.snapshots.get(&v) else {
            missing += 1;
            return None;
        };
        let query = published.model.query_vector(r.user, &inst.stream.history[r.user]);
        Some((*r, query, &rows[&v] as &dyn Rows))
    });
    let (recall, unexplained, checked) = serving::oracle_values(queries, &inst.stream.history);
    values.set("oracle_recall_at_10", recall);
    if unexplained > 0 || missing > 0 {
        notes.push(format!(
            "{unexplained} served items beyond f32 near-ties of the oracle top-{K}, {missing} responses from an unknown version ({checked} checked)"
        ));
    }
    inst.server.shutdown();
    drop(inst);

    if args.trace {
        // The stream is consumed: the traced phase needs a fresh instance.
        let mut traced_inst = build(args.seed, &mut Vec::new());
        let t = measure(&mut traced_inst, args, clock, args.seed ^ 1, true);
        let traced_tally = serving::tally(&t.phase, &traced_inst.stream.history, num_items);
        notes.extend(traced_tally.malformed.iter().cloned());
        let t_per_s = contended_throughput(&t);
        let (t_p50, t_p99, _, _) = event_traffic(&t);
        crate::overhead(&mut values, (per_s, p50, p99), (t_per_s, t_p50, t_p99));
        let service_mean = serving::response_values(&t.phase, &mut values);
        let mut spans = t.phase.spans;
        spans.absorb(t.gen.spans);
        let first = first_served(&t.phase.records, t.gen.rounds.iter().filter_map(|r| r.version));
        for round in &t.gen.rounds {
            if let Some(&at) = round.version.and_then(|v| first.get(&v)) {
                spans.record("online.first_serve", round.end_ns, at.max(round.end_ns), None, round.cutoff as u64);
            }
        }
        let newest = traced_inst.trainer.registry().current();
        let replayed = serving::replay(
            &newest.model,
            &traced_inst.stream.history,
            &t.phase.records,
            serving::REPLAY_BUDGET,
            clock,
            &mut spans,
        );
        replayed.write(&mut values, service_mean);
        traced_inst.server.shutdown();
        crate::write_trace(args, &spans, &values);
    }
    Outcome { correct: notes.is_empty(), attempted, failed, values, notes }
}

/// Generator and round figures of one measured phase.
fn write_online(m: &Measured, values: &mut Values) {
    let gen = &m.gen;
    let first = first_served(&m.phase.records, gen.rounds.iter().filter_map(|r| r.version));
    values.set("online.unserved_events", freshness(gen, &first).1 as f64);
    values.set("online.ingest_us", util::mean(&gen.ingest_us));
    let late: Vec<f64> =
        gen.scheduled_ns.iter().zip(&gen.ingested_ns).map(|(&due, &at)| at.saturating_sub(due) as f64 / 1e6).collect();
    values.set("online.generator_lag_p99_ms", util::percentile(&util::sorted(late), 0.99));
    let rounds = &gen.rounds;
    let per_round = |f: fn(&RoundLog) -> f64| util::mean(&rounds.iter().map(f).collect::<Vec<_>>());
    values.set("online.round_ms", per_round(|r| (r.end_ns - r.start_ns) as f64 / 1e6));
    values.set("online.train_ms", per_round(|r| r.train_s * 1e3));
    values.set("online.publish_ms", per_round(|r| r.publish_s * 1e3));
    values.set("online.gate_probes", per_round(|r| r.probes as f64));
    let first_serve: Vec<f64> = rounds
        .iter()
        .filter_map(|r| r.version.and_then(|v| first.get(&v)).map(|&at| at.saturating_sub(r.end_ns) as f64 / 1e6))
        .collect();
    values.set("online.first_serve_ms", util::mean(&first_serve));
}
