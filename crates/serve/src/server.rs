//! The online request layer: a micro-batching queue in front of the sharded
//! scorer.
//!
//! Concurrent single-user requests are individually tiny (one GEMV each) but
//! collectively leave throughput on the table: a batch of `B` queries against
//! the catalogue is one packed-panel GEMM that streams `W` once instead of
//! `B` times. The [`RecServer`] therefore enqueues every request, and a
//! dispatcher thread drains the queue in batches of up to
//! [`ServerConfig::max_batch`], optionally lingering for
//! [`ServerConfig::coalesce_wait`] to let concurrent callers pile on. Each
//! drained batch is served from the registry's current model snapshot —
//! hot-swaps between batches never pause traffic — and every response carries
//! its own queue/service latency split.
//!
//! Every batch, a lone request included, is served by one engine: query
//! assembly on the dispatcher, the score plan's per-shard steps on the
//! bulkhead executor (`degrade.rs`) — bounded by the batch's deadline
//! when it has one, waiting for every shard when it does not — and the
//! per-request merge back on the dispatcher.

use crate::degrade::{score_bounded, ShardExecutor};
use crate::model::ServingModel;
use crate::registry::ModelRegistry;
use crate::request::{RecommendRequest, RecommendResponse};
use crate::shard::ScoredItem;
use crate::trace::StageTrace;
use ham_faults::FaultInjector;
use ham_telemetry::{Counter, Gauge, Histogram, SpanTree, Telemetry};
use ham_tensor::Matrix;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tuning knobs of the micro-batching queue.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Upper bound on requests coalesced into one scoring batch.
    pub max_batch: usize,
    /// How long the dispatcher lingers for more arrivals once the queue is
    /// non-empty but below `max_batch`. Zero drains immediately (lowest
    /// latency, least coalescing).
    pub coalesce_wait: Duration,
    /// Admission control: requests arriving while the queue already holds
    /// this many are **shed** — [`RecServer::submit`] returns
    /// [`SubmitError::QueueFull`] immediately instead of letting the queue
    /// (and every queued request's latency) grow without bound when load
    /// exceeds what the dispatcher can drain.
    pub max_queue: usize,
    /// Deadline applied to every request that does not carry its own
    /// ([`RecommendRequest::deadline`]), measured from enqueue. A request
    /// still queued past its deadline is shed with
    /// [`SubmitError::DeadlineExpired`] before any scoring is spent on it;
    /// a request picked up close to its deadline grants the shard-scoring
    /// stage only 70% of the remaining budget and may come back
    /// [`degraded`](RecommendResponse::degraded). `None` (the default)
    /// leaves requests without their own deadline unbounded.
    pub default_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { max_batch: 64, coalesce_wait: Duration::from_micros(200), max_queue: 1024, default_deadline: None }
    }
}

/// Fraction of a batch's tightest remaining deadline budget granted to the
/// per-shard steps; the holdback covers the merge and delivery.
/// The batch budget is the minimum over its requests' remaining deadlines
/// at pickup.
const SHARD_BUDGET_FRACTION: f64 = 0.7;

/// Why [`RecServer::submit`] rejected a request without serving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue already held [`ServerConfig::max_queue`] requests; the
    /// request was shed to protect the latency of the admitted ones. The
    /// caller may retry (ideally with backoff).
    QueueFull {
        /// The configured bound the queue was at.
        max_queue: usize,
    },
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// The request's deadline ([`RecommendRequest::deadline`] or
    /// [`ServerConfig::default_deadline`]) expired while it was still
    /// queued; the dispatcher shed it before spending any scoring work —
    /// by the time a result existed the caller would no longer want it.
    DeadlineExpired {
        /// How long the request had waited when it was shed.
        waited_micros: u64,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { max_queue } => {
                write!(f, "request shed: queue at capacity ({max_queue})")
            }
            SubmitError::ShuttingDown => write!(f, "request rejected: server shutting down"),
            SubmitError::DeadlineExpired { waited_micros } => {
                write!(f, "request shed: deadline expired after {waited_micros}µs in queue")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// One queued request and the slot its response will be delivered to.
struct Pending {
    request: RecommendRequest,
    enqueued: Instant,
    /// Absolute expiry (request override or server default), resolved at
    /// admission so the dispatcher's expiry check is one comparison.
    deadline: Option<Instant>,
    slot: Arc<ResponseSlot>,
}

/// A one-shot rendezvous between the submitting thread and the dispatcher.
/// Carries a `Result` so the dispatcher can answer an admitted request with
/// a post-admission rejection (deadline expiry) as well as a response.
struct ResponseSlot {
    filled: Mutex<Option<Result<RecommendResponse, SubmitError>>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        Self { filled: Mutex::new(None), ready: Condvar::new() }
    }

    fn deliver(&self, response: Result<RecommendResponse, SubmitError>) {
        // A poisoned slot means some earlier holder panicked; the Option
        // inside is still structurally sound, so recover it — refusing to
        // deliver would strand the submitter forever.
        *self.filled.lock().unwrap_or_else(PoisonError::into_inner) = Some(response);
        self.ready.notify_one();
    }

    fn wait(&self) -> Result<RecommendResponse, SubmitError> {
        let mut filled = self.filled.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(response) = filled.take() {
                return response;
            }
            // Condvar poisoning carries the same recoverable guard.
            filled = self.ready.wait(filled).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Cumulative request accounting, maintained unconditionally (wait-free
/// relaxed atomics — cheap enough to stay on even with telemetry disabled,
/// and the fix for the shed-visibility gap: before this, a rejected
/// `submit` was the only record a shed ever happened).
#[derive(Debug, Default)]
struct ServerCounters {
    admitted: Counter,
    shed: Counter,
    completed: Counter,
    panic_isolated: Counter,
    /// Requests shed in-queue at their deadline (the error budget's "never
    /// served" bucket).
    deadline_expired: Counter,
    /// Responses answered without every shard (the "served degraded"
    /// bucket).
    degraded: Counter,
    /// Shards dropped from a merge for missing their deadline budget.
    shard_deadline_miss: Counter,
    /// Shards dropped from a merge because their scoring task panicked.
    shard_panic: Counter,
    queue_depth: Gauge,
}

/// Per-shard metric handles, resolved lazily per shard id.
#[derive(Debug, Clone)]
struct ShardMetrics {
    score_micros: Histogram,
    deadline_miss: Counter,
}

/// Histograms resolved once at server start when telemetry is enabled.
#[derive(Debug)]
struct ServeMetrics {
    queue_micros: Histogram,
    service_micros: Histogram,
    total_micros: Histogram,
    batch_size: Histogram,
    stage_batch_assembly: Histogram,
    stage_shard_score: Histogram,
    stage_merge: Histogram,
    /// Lazily resolved per-shard handles (`serve_shard_{s}_score_micros`,
    /// `serve_shard_{s}_deadline_miss_total`), indexed by shard id — the
    /// attribution that makes a slow shard visible *by name* before the
    /// multi-node split lands.
    per_shard: Mutex<Vec<Option<ShardMetrics>>>,
}

impl ServeMetrics {
    /// Resolves the serving metric set (and registers the always-on
    /// counters) in `telemetry`'s registry; `None` when disabled.
    fn resolve(telemetry: &Telemetry, counters: &ServerCounters) -> Option<Self> {
        let registry = telemetry.registry()?;
        registry.register_counter("serve_requests_admitted_total", &counters.admitted);
        registry.register_counter("serve_requests_shed_total", &counters.shed);
        registry.register_counter("serve_requests_completed_total", &counters.completed);
        registry.register_counter("serve_requests_panic_isolated_total", &counters.panic_isolated);
        registry.register_counter("serve_requests_deadline_expired_total", &counters.deadline_expired);
        registry.register_counter("serve_responses_degraded_total", &counters.degraded);
        registry.register_counter("serve_shard_deadline_miss_total", &counters.shard_deadline_miss);
        registry.register_counter("serve_shard_panic_total", &counters.shard_panic);
        registry.register_gauge("serve_queue_depth", &counters.queue_depth);
        Some(Self {
            queue_micros: registry.histogram("serve_queue_micros"),
            service_micros: registry.histogram("serve_service_micros"),
            total_micros: registry.histogram("serve_total_micros"),
            batch_size: registry.histogram("serve_batch_size"),
            stage_batch_assembly: registry.histogram("serve_stage_batch_assembly_micros"),
            stage_shard_score: registry.histogram("serve_stage_shard_score_micros"),
            stage_merge: registry.histogram("serve_stage_merge_micros"),
            per_shard: Mutex::new(Vec::new()),
        })
    }

    /// The metric handles for one shard id (resolved in `telemetry`'s
    /// registry on first use, cached after).
    fn shard(&self, telemetry: &Telemetry, shard: usize) -> ShardMetrics {
        // The cache is a plain Vec of resolved handles — valid even if a
        // prior holder panicked, so recover from poisoning.
        let mut per_shard = self.per_shard.lock().unwrap_or_else(PoisonError::into_inner);
        if per_shard.len() <= shard {
            per_shard.resize(shard + 1, None);
        }
        per_shard[shard]
            .get_or_insert_with(|| {
                // ham-lint: allow(panic, "ServeMetrics is only constructed by resolve(), which requires a registry")
                let registry = telemetry.registry().expect("ServeMetrics exists only with telemetry enabled");
                ShardMetrics {
                    score_micros: registry.histogram(&format!("serve_shard_{shard}_score_micros")),
                    deadline_miss: registry.counter(&format!("serve_shard_{shard}_deadline_miss_total")),
                }
            })
            .clone()
    }
}

/// Cumulative server-side request accounting, as returned by
/// [`RecServer::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests shed at admission ([`SubmitError::QueueFull`]).
    pub shed: u64,
    /// Requests answered (every admitted request eventually is).
    pub completed: u64,
    /// Requests whose solo retry also panicked and were answered with an
    /// empty ranking (delivered with [`RecommendResponse::degraded`] set).
    pub panic_isolated: u64,
    /// Admitted requests shed in-queue at their deadline
    /// ([`SubmitError::DeadlineExpired`]).
    pub deadline_expired: u64,
    /// Responses served without every shard's answer
    /// ([`RecommendResponse::degraded`]).
    pub degraded: u64,
    /// Shard-batch scoring tasks dropped for missing their deadline budget.
    pub shard_deadline_misses: u64,
    /// Shard-batch scoring tasks dropped because they panicked.
    pub shard_panics: u64,
    /// Requests currently waiting in the queue.
    pub queue_depth: usize,
}

struct ServerShared {
    registry: Arc<ModelRegistry>,
    config: ServerConfig,
    queue: Mutex<VecDeque<Pending>>,
    arrived: Condvar,
    shutdown: AtomicBool,
    counters: ServerCounters,
    telemetry: Telemetry,
    metrics: Option<ServeMetrics>,
    faults: FaultInjector,
}

/// An embeddable online recommendation server: micro-batching queue,
/// sharded scoring, hot-swappable model.
///
/// `submit` is called from any number of client threads; one dispatcher
/// thread owns the draining loop. Dropping the server flushes the queue
/// (every accepted request is answered) and joins the dispatcher.
pub struct RecServer {
    shared: Arc<ServerShared>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl RecServer {
    /// Starts the dispatcher for the models published in `registry`.
    /// Telemetry follows the environment (`HAM_TELEMETRY=1` lights up the
    /// metric set of [`Self::start_with_telemetry`]), and so does fault
    /// injection (`HAM_FAULTS=<spec>` arms the deterministic injector —
    /// test/chaos builds only; unset serves faithfully).
    pub fn start(registry: Arc<ModelRegistry>, config: ServerConfig) -> Self {
        Self::start_instrumented(registry, config, Telemetry::from_env(), FaultInjector::from_env())
    }

    /// [`Self::start`] with an explicit [`Telemetry`] handle. An enabled
    /// handle gets the always-on counters registered
    /// (`serve_requests_{admitted,shed,completed,panic_isolated}_total`,
    /// `serve_requests_deadline_expired_total`,
    /// `serve_responses_degraded_total`, `serve_shard_*_total`,
    /// `serve_queue_depth`), per-request latency histograms
    /// (`serve_{queue,service,total}_micros`, `serve_batch_size`), stage
    /// histograms (`serve_stage_*_micros`), per-shard score histograms and
    /// per-request span trees in the handle's flight recorder.
    pub fn start_with_telemetry(registry: Arc<ModelRegistry>, config: ServerConfig, telemetry: Telemetry) -> Self {
        Self::start_instrumented(registry, config, telemetry, FaultInjector::from_env())
    }

    /// [`Self::start_with_telemetry`] with an explicit [`FaultInjector`] —
    /// the full-control constructor used by the chaos suite and benches to
    /// arm deterministic faults without going through the environment.
    pub fn start_instrumented(
        registry: Arc<ModelRegistry>,
        config: ServerConfig,
        telemetry: Telemetry,
        faults: FaultInjector,
    ) -> Self {
        assert!(config.max_batch > 0, "RecServer: max_batch must be positive");
        assert!(config.max_queue > 0, "RecServer: max_queue must be positive");
        let counters = ServerCounters::default();
        let metrics = ServeMetrics::resolve(&telemetry, &counters);
        let shared = Arc::new(ServerShared {
            registry,
            config,
            queue: Mutex::new(VecDeque::new()),
            arrived: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters,
            telemetry,
            metrics,
            faults,
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ham-serve-dispatch".to_string())
                .spawn(move || dispatch_loop(&shared))
                // ham-lint: allow(panic, "startup, before any traffic — a server without a dispatcher cannot run")
                .expect("failed to spawn dispatcher")
        };
        Self { shared, dispatcher: Some(dispatcher) }
    }

    /// Submits a request and blocks until its response is ready, or returns
    /// a [`SubmitError`] **immediately** when the request cannot be
    /// admitted — the queue is at [`ServerConfig::max_queue`] (shed) or the
    /// server is shutting down. Every admitted request is guaranteed a
    /// response: admission and shutdown are decided under the queue lock,
    /// so a request can never slip in behind the dispatcher's final drain.
    ///
    /// Concurrent submitters are coalesced into shared scoring batches; a
    /// lone submitter's batch of one scans each shard with the exact GEMV.
    ///
    /// A request the model itself rejects (unknown user id, a history the
    /// query builder panics on) comes back with an **empty** item list
    /// rather than wedging the server — the dispatcher isolates the panic
    /// and keeps serving the rest of the batch and all later traffic.
    pub fn submit(&self, request: RecommendRequest) -> Result<RecommendResponse, SubmitError> {
        let slot = Arc::new(ResponseSlot::new());
        {
            // A poisoned queue lock means the dispatcher died mid-drain;
            // admitting would strand this request with no thread left to
            // answer it, so shed instead (PR 8's degradation contract:
            // reject loudly rather than hang quietly).
            let Ok(mut queue) = self.shared.queue.lock() else {
                self.shared.counters.shed.inc();
                return Err(SubmitError::ShuttingDown);
            };
            // Both checks must happen under the lock: shutdown is flipped
            // while holding it (see `shutdown`), so an admitted request is
            // visible to the dispatcher's exit check, which only fires on an
            // empty queue — enqueue-then-never-answered cannot happen.
            // ordering: SeqCst pairs with the stores in `shutdown` — the
            // flag is part of the queue-lock admission protocol and must be
            // totally ordered with respect to it.
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Err(SubmitError::ShuttingDown);
            }
            if queue.len() >= self.shared.config.max_queue {
                self.shared.counters.shed.inc();
                return Err(SubmitError::QueueFull { max_queue: self.shared.config.max_queue });
            }
            let now = Instant::now();
            let deadline = request.deadline.or(self.shared.config.default_deadline).map(|budget| now + budget);
            queue.push_back(Pending { request, enqueued: now, deadline, slot: Arc::clone(&slot) });
            self.shared.counters.admitted.inc();
            self.shared.counters.queue_depth.set(queue.len() as i64);
            self.shared.arrived.notify_all();
        }
        slot.wait()
    }

    /// Cumulative admitted/shed/completed/panic-isolated counts and the
    /// current queue depth. Counts are maintained wait-free whether or not
    /// telemetry is enabled, so shed traffic is observable server-side —
    /// not only by the caller whose `submit` was rejected.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            admitted: self.shared.counters.admitted.get(),
            shed: self.shared.counters.shed.get(),
            completed: self.shared.counters.completed.get(),
            panic_isolated: self.shared.counters.panic_isolated.get(),
            deadline_expired: self.shared.counters.deadline_expired.get(),
            degraded: self.shared.counters.degraded.get(),
            shard_deadline_misses: self.shared.counters.shard_deadline_miss.get(),
            shard_panics: self.shared.counters.shard_panic.get(),
            queue_depth: self.shared.counters.queue_depth.get().max(0) as usize,
        }
    }

    /// The telemetry handle the server records into (disabled unless
    /// [`Self::start_with_telemetry`] got an enabled one or the environment
    /// set `HAM_TELEMETRY=1`).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Begins shutdown: subsequent [`Self::submit`] calls return
    /// [`SubmitError::ShuttingDown`], while every already-admitted request
    /// is still drained and answered. Dropping the server joins the
    /// dispatcher (and shuts down first if this was never called).
    pub fn shutdown(&self) {
        // Shutdown must proceed even if a panicking holder poisoned the
        // lock — the guard is only held to order the flag flip against
        // admission, and the flag itself is an atomic.
        let _queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        // ordering: SeqCst pairs with the loads in `submit` and
        // `dispatch_loop`; the flag participates in the admission/drain
        // protocol and must not be reordered around the queue lock.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.arrived.notify_all();
    }

    /// Current number of published model versions (see [`ModelRegistry`]).
    pub fn model_version(&self) -> u64 {
        self.shared.registry.version()
    }
}

impl Drop for RecServer {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(dispatcher) = self.dispatcher.take() {
            let _unused = dispatcher.join();
        }
    }
}

fn dispatch_loop(shared: &ServerShared) {
    // The bulkhead executor that runs every batch's per-shard steps, spawned
    // by the first batch and reused for the dispatcher's life.
    let mut executor: Option<ShardExecutor> = None;
    loop {
        let batch = {
            // The dispatcher is the thread every admitted request depends
            // on: recover the queue from poisoning (it is a plain VecDeque,
            // structurally sound whatever a panicking holder was doing) —
            // dying here would strand the whole queue.
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            // Sleep until work arrives or shutdown (then drain what's left).
            while queue.is_empty() {
                // ordering: SeqCst pairs with the store in `shutdown`,
                // which happens under this queue lock — see `submit` for
                // the admission/drain protocol this flag belongs to.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.arrived.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
            // Linger once to coalesce concurrent submitters into this batch.
            if queue.len() < shared.config.max_batch
                && !shared.config.coalesce_wait.is_zero()
                // ordering: SeqCst, same pairing as the exit check above.
                && !shared.shutdown.load(Ordering::SeqCst)
            {
                let (returned, _timeout) = shared
                    .arrived
                    .wait_timeout(queue, shared.config.coalesce_wait)
                    .unwrap_or_else(PoisonError::into_inner);
                queue = returned;
            }
            let take = queue.len().min(shared.config.max_batch);
            let batch = queue.drain(..take).collect::<Vec<Pending>>();
            shared.counters.queue_depth.set(queue.len() as i64);
            batch
        };
        if batch.is_empty() {
            continue;
        }
        serve_batch(shared, batch, &mut executor);
    }
}

/// How completely one request of a batch was served.
#[derive(Debug, Clone, Copy)]
struct ResponseMeta {
    degraded: bool,
    shards_answered: usize,
    clusters_probed: usize,
}

fn serve_batch(shared: &ServerShared, batch: Vec<Pending>, executor: &mut Option<ShardExecutor>) {
    let published = shared.registry.current();
    let picked_up = Instant::now();
    // Move the requests out of their queue entries — the batch is scored
    // from the originals, no per-request clone on the hot path. Requests
    // already past their deadline are shed here: by the time a result
    // existed the caller would have moved on, so scoring them would only
    // tax their batch-mates.
    let mut requests = Vec::with_capacity(batch.len());
    let mut waiters = Vec::with_capacity(batch.len());
    for pending in batch {
        if pending.deadline.is_some_and(|deadline| picked_up >= deadline) {
            let waited_micros = picked_up.duration_since(pending.enqueued).as_micros() as u64;
            shared.counters.deadline_expired.inc();
            pending.slot.deliver(Err(SubmitError::DeadlineExpired { waited_micros }));
            continue;
        }
        requests.push(pending.request);
        waiters.push((pending.enqueued, pending.deadline, pending.slot));
    }
    if requests.is_empty() {
        return;
    }
    // The batch's scoring budget is its tightest member's deadline.
    let batch_deadline = waiters.iter().filter_map(|(_, deadline, _)| *deadline).min();
    let mut trace = shared.metrics.as_ref().map(|_| StageTrace::new());
    let served = score_batch(shared, &published.model, &requests, picked_up, batch_deadline, executor, trace.as_mut());
    let service_micros = picked_up.elapsed().as_micros() as u64;
    let batch_len = waiters.len() as u64;
    if let (Some(metrics), Some(trace)) = (&shared.metrics, &trace) {
        metrics.batch_size.record(batch_len);
        metrics.service_micros.record(service_micros);
        metrics.stage_batch_assembly.record(trace.batch_assembly_micros);
        metrics.stage_shard_score.record(trace.max_shard_micros());
        metrics.stage_merge.record(trace.merge_micros);
        for &(shard, micros) in &trace.shard_score_micros {
            metrics.shard(&shared.telemetry, shard).score_micros.record(micros);
        }
    }
    for ((enqueued, _deadline, slot), (items, meta)) in waiters.into_iter().zip(served) {
        let queue_micros = picked_up.duration_since(enqueued).as_micros() as u64;
        if let (Some(metrics), Some(trace)) = (&shared.metrics, &trace) {
            metrics.queue_micros.record(queue_micros);
            metrics.total_micros.record(queue_micros + service_micros);
            if let Some(flight) = shared.telemetry.flight() {
                flight.record(request_span_tree(queue_micros, service_micros, trace));
            }
        }
        if meta.degraded {
            shared.counters.degraded.inc();
        }
        // Count before delivering: `deliver` unblocks the submitter, which
        // may read `stats()` immediately — its own completion must already
        // be visible.
        shared.counters.completed.inc();
        slot.deliver(Ok(RecommendResponse {
            items,
            model_version: published.version,
            queue_micros,
            service_micros,
            degraded: meta.degraded,
            shards_answered: meta.shards_answered,
            clusters_probed: meta.clusters_probed,
        }));
    }
}

/// The server's one engine: builds the batch's score plan on the
/// dispatcher, runs its per-shard steps on the bulkhead executor with at
/// most [`SHARD_BUDGET_FRACTION`] of the batch's remaining deadline budget
/// (every shard is awaited when there is no deadline), and merges per
/// request. Shards that miss the budget or panic are dropped from the merge
/// and the responses are flagged degraded; with every shard answering, a
/// response is bit-identical to [`ServingModel::recommend_batch`].
///
/// Query assembly runs user code (the model's query closure). A request it
/// panics on — an unknown user, a history the model rejects — or whose
/// query has the wrong width is answered with an empty ranking **flagged
/// degraded**, so one poisoned request cannot take down its batch-mates and
/// the caller can tell it apart from a genuinely empty result.
fn score_batch(
    shared: &ServerShared,
    model: &ServingModel,
    requests: &[RecommendRequest],
    picked_up: Instant,
    batch_deadline: Option<Instant>,
    executor: &mut Option<ShardExecutor>,
    mut trace: Option<&mut StageTrace>,
) -> Vec<(Vec<ScoredItem>, ResponseMeta)> {
    let catalog = model.catalog_arc();
    let assembly_started = Instant::now();
    let queries: Vec<Option<Vec<f32>>> = requests
        .iter()
        .map(|r| {
            catch_unwind(AssertUnwindSafe(|| model.query_vector(r.user, &r.history)))
                .ok()
                .filter(|q| q.len() == catalog.dim())
        })
        .collect();
    let mut rows = Matrix::zeros(queries.iter().flatten().count(), catalog.dim());
    for (row, query) in queries.iter().flatten().enumerate() {
        rows.row_mut(row).copy_from_slice(query);
    }
    let plan = model.plan(rows, requests.iter().zip(&queries).filter(|(_, q)| q.is_some()).map(|(r, _)| r));
    if let Some(trace) = trace.as_deref_mut() {
        trace.batch_assembly_micros = assembly_started.elapsed().as_micros() as u64;
    }
    let poisoned = ResponseMeta { degraded: true, shards_answered: 0, clusters_probed: 0 };
    let (rankings, meta) = if plan.len() == 0 {
        (Vec::new(), poisoned)
    } else {
        let executor = executor.get_or_insert_with(|| ShardExecutor::new(catalog.num_shards().clamp(1, 8)));
        let shard_deadline = batch_deadline
            .map(|deadline| picked_up + deadline.saturating_duration_since(picked_up).mul_f64(SHARD_BUDGET_FRACTION));
        let outcome = score_bounded(&catalog, Arc::new(plan), executor, shard_deadline, &shared.faults, trace);
        shared.counters.shard_deadline_miss.add(outcome.timed_out.len() as u64);
        shared.counters.shard_panic.add(outcome.panicked.len() as u64);
        if let Some(metrics) = &shared.metrics {
            for &shard in &outcome.timed_out {
                metrics.shard(&shared.telemetry, shard).deadline_miss.inc();
            }
        }
        let meta = ResponseMeta {
            degraded: outcome.answered.len() < catalog.num_shards(),
            shards_answered: outcome.answered.len(),
            clusters_probed: catalog.clusters_probed_by(outcome.answered.iter().copied()),
        };
        (outcome.rankings, meta)
    };
    let mut rankings = rankings.into_iter();
    queries
        .iter()
        .map(|query| match query {
            Some(_) => (rankings.next().unwrap_or_default(), meta),
            None => {
                shared.counters.panic_isolated.inc();
                (Vec::new(), poisoned)
            }
        })
        .collect()
}

/// Shapes one request's timing into the flight-recorder span tree:
/// `request → {queue, service → {batch_assembly, shard_score → {shard_i…},
/// merge}}`, for a batch of one as for any other. Stage offsets are
/// laid out sequentially from the measured durations — parallel shard
/// children share the `shard_score` start offset.
fn request_span_tree(queue_micros: u64, service_micros: u64, trace: &StageTrace) -> SpanTree {
    let mut at = queue_micros;
    let mut service = SpanTree::leaf("service", queue_micros, service_micros).with_child(SpanTree::leaf(
        "batch_assembly",
        at,
        trace.batch_assembly_micros,
    ));
    at += trace.batch_assembly_micros;
    let score_wall = trace.max_shard_micros();
    let mut score = SpanTree::leaf("shard_score", at, score_wall);
    for &(s, micros) in &trace.shard_score_micros {
        score = score.with_child(SpanTree::leaf(format!("shard_{s}"), at, micros));
    }
    service = service.with_child(score);
    at += score_wall;
    service = service.with_child(SpanTree::leaf("merge", at, trace.merge_micros));
    SpanTree::leaf("request", 0, queue_micros + service_micros)
        .with_child(SpanTree::leaf("queue", 0, queue_micros))
        .with_child(service)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ServingModel;
    use ham_tensor::Matrix;

    fn registry(num_items: usize) -> Arc<ModelRegistry> {
        let w = Matrix::from_vec(num_items, 2, (0..num_items * 2).map(|i| i as f32 * 0.01).collect());
        let model = ServingModel::from_parts("toy", &w, 3, |user, _| vec![1.0, user as f32 * 0.1]);
        Arc::new(ModelRegistry::new(model))
    }

    #[test]
    fn single_request_round_trip() {
        let server = RecServer::start(registry(20), ServerConfig::default());
        let response = server.submit(RecommendRequest::new(1, vec![19], 5)).expect("request admitted");
        assert_eq!(response.items.len(), 5);
        assert!(!response.items.iter().any(|s| s.item == 19), "seen item must be masked");
        assert_eq!(response.model_version, 1);
    }

    #[test]
    fn concurrent_submitters_all_get_exact_answers() {
        let registry = registry(50);
        let reference_model = registry.current();
        let server = Arc::new(RecServer::start(Arc::clone(&registry), ServerConfig::default()));
        let handles: Vec<_> = (0..8)
            .map(|user| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let request = RecommendRequest::new(user, vec![user, user + 10], 7);
                    (user, server.submit(request).expect("request admitted"))
                })
            })
            .collect();
        for handle in handles {
            let (user, response) = handle.join().unwrap();
            let expected = reference_model.model.recommend(&RecommendRequest::new(user, vec![user, user + 10], 7));
            let got: Vec<usize> = response.items.iter().map(|s| s.item).collect();
            let want: Vec<usize> = expected.iter().map(|s| s.item).collect();
            assert_eq!(got, want, "user {user}");
            assert!(response.total_micros() >= response.service_micros);
        }
    }

    #[test]
    fn hot_swap_during_traffic_switches_versions_without_pausing() {
        let registry = registry(30);
        let server = Arc::new(RecServer::start(Arc::clone(&registry), ServerConfig::default()));
        let first = server.submit(RecommendRequest::new(0, vec![], 3)).expect("request admitted");
        assert_eq!(first.model_version, 1);
        let w = Matrix::from_vec(30, 2, (0..60).map(|i| -(i as f32)).collect());
        registry.publish(ServingModel::from_parts("toy-v2", &w, 2, |_, _| vec![1.0, 0.0]));
        let second = server.submit(RecommendRequest::new(0, vec![], 3)).expect("request admitted");
        assert_eq!(second.model_version, 2);
        // v2 scores are descending in item id, so item 0 wins.
        assert_eq!(second.items[0].item, 0);
    }

    /// A request the model panics on must not wedge the dispatcher: the
    /// poisoned request gets an empty ranking and later traffic is served.
    #[test]
    fn poisoned_request_does_not_wedge_the_server() {
        let w = Matrix::from_vec(10, 1, (0..10).map(|i| i as f32).collect());
        let model = ServingModel::from_parts("picky", &w, 2, |user, _| {
            assert!(user < 5, "unknown user {user}");
            vec![1.0]
        });
        let server = Arc::new(RecServer::start(Arc::new(ModelRegistry::new(model)), ServerConfig::default()));
        let poisoned = server.submit(RecommendRequest::new(99, vec![], 3)).expect("request admitted");
        assert!(poisoned.items.is_empty(), "rejected request answers empty, not hangs");
        assert!(poisoned.degraded, "a panic-isolated empty answer is flagged, not a silent empty list");
        assert_eq!(poisoned.shards_answered, 0);
        let healthy = server.submit(RecommendRequest::new(1, vec![], 3)).expect("request admitted");
        assert_eq!(healthy.items.len(), 3, "server keeps serving after a poisoned request");
        assert!(!healthy.degraded, "healthy responses are not flagged");
        assert_eq!(server.stats().degraded, 1);
    }

    /// An admitted request whose deadline passes while it is still queued is
    /// shed with an explicit reason instead of being served late.
    #[test]
    fn expired_in_queue_requests_are_shed_with_deadline_reason() {
        // A slow model (2ms per query) with max_batch 1 so a burst queues.
        let w = Matrix::from_vec(16, 1, (0..16).map(|i| i as f32).collect());
        let model = ServingModel::from_parts("slow", &w, 2, |_, _| {
            std::thread::sleep(Duration::from_millis(2));
            vec![1.0]
        });
        let config = ServerConfig { max_batch: 1, coalesce_wait: Duration::ZERO, ..ServerConfig::default() };
        let server = Arc::new(RecServer::start(Arc::new(ModelRegistry::new(model)), config));
        let barrier = Arc::new(std::sync::Barrier::new(12));
        let handles: Vec<_> = (0..12)
            .map(|user| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    // 4ms deadline against ~2ms service: the first couple of
                    // requests fit, the back of the queue cannot.
                    server.submit(RecommendRequest::new(user % 8, vec![], 3).with_deadline(Duration::from_millis(4)))
                })
            })
            .collect();
        let mut served = 0u64;
        let mut expired = 0u64;
        for handle in handles {
            match handle.join().expect("submitter panicked") {
                Ok(response) => {
                    // A request picked up close to its deadline may come back
                    // degraded (the 2ms query build eats its shard budget);
                    // an un-degraded answer must be complete.
                    if !response.degraded {
                        assert_eq!(response.items.len(), 3, "un-degraded requests are complete");
                    }
                    served += 1;
                }
                Err(SubmitError::DeadlineExpired { waited_micros }) => {
                    assert!(waited_micros >= 4_000, "a shed request waited at least its deadline");
                    expired += 1;
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert_eq!(served + expired, 12);
        assert!(expired > 0, "a 12-deep queue at 2ms/request must expire 4ms deadlines");
        assert!(served > 0, "the front of the queue fits its deadline");
        let stats = server.stats();
        assert_eq!(stats.deadline_expired, expired, "server ledger counts every expiry");
        assert_eq!(stats.completed, served);
    }

    /// A healthy model under a generous deadline takes the bounded path and
    /// still answers exactly: complete, un-degraded, all shards accounted.
    #[test]
    fn bounded_path_with_generous_deadline_is_not_degraded() {
        let registry = registry(50);
        let reference = registry.current();
        let server = RecServer::start(Arc::clone(&registry), ServerConfig::default());
        for user in 0..8 {
            let request = RecommendRequest::new(user, vec![user, user + 10], 7);
            let expected = reference.model.recommend(&request);
            let response = server.submit(request.with_deadline(Duration::from_secs(5))).expect("request admitted");
            assert!(!response.degraded);
            assert_eq!(response.shards_answered, 3, "all shards answered");
            let got: Vec<usize> = response.items.iter().map(|s| s.item).collect();
            let want: Vec<usize> = expected.iter().map(|s| s.item).collect();
            assert_eq!(got, want, "bounded path is bit-identical for user {user}");
        }
        assert_eq!(server.stats().degraded, 0);
    }

    #[test]
    fn shutdown_flushes_accepted_requests() {
        let server =
            RecServer::start(registry(10), ServerConfig { coalesce_wait: Duration::ZERO, ..Default::default() });
        let response = server.submit(RecommendRequest::new(0, vec![], 2)).expect("request admitted");
        drop(server);
        assert_eq!(response.items.len(), 2);
    }

    #[test]
    fn submit_after_shutdown_is_rejected_with_reason() {
        let server = RecServer::start(registry(10), ServerConfig::default());
        server.shutdown();
        let rejected = server.submit(RecommendRequest::new(0, vec![], 2));
        assert_eq!(rejected.err(), Some(SubmitError::ShuttingDown));
    }

    /// Flooding past `max_queue` sheds with an explicit reason while every
    /// admitted request completes with a full ranking.
    #[test]
    fn flood_past_capacity_sheds_and_answers_the_admitted() {
        // A deliberately slow model (1ms per query) with a tiny queue, so a
        // burst of 24 concurrent submitters reliably overflows it.
        let w = Matrix::from_vec(16, 1, (0..16).map(|i| i as f32).collect());
        let model = ServingModel::from_parts("slow", &w, 1, |_, _| {
            std::thread::sleep(Duration::from_millis(1));
            vec![1.0]
        });
        let config =
            ServerConfig { max_batch: 1, coalesce_wait: Duration::ZERO, max_queue: 4, ..ServerConfig::default() };
        let server = Arc::new(RecServer::start(Arc::new(ModelRegistry::new(model)), config));
        let barrier = Arc::new(std::sync::Barrier::new(24));
        let handles: Vec<_> = (0..24)
            .map(|user| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    server.submit(RecommendRequest::new(user % 8, vec![], 3))
                })
            })
            .collect();
        let mut admitted = 0usize;
        let mut shed = 0usize;
        for handle in handles {
            match handle.join().expect("submitter panicked") {
                Ok(response) => {
                    assert_eq!(response.items.len(), 3, "admitted requests must complete fully");
                    admitted += 1;
                }
                Err(SubmitError::QueueFull { max_queue }) => {
                    assert_eq!(max_queue, 4, "the shed reason names the configured bound");
                    shed += 1;
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert_eq!(admitted + shed, 24);
        assert!(shed > 0, "a 24-request burst into a 4-slot queue must shed");
        assert!(admitted > 0, "some requests must be admitted");
        // The server-side ledger agrees with what the callers saw — the
        // shed-visibility fix: sheds are now recorded where they happen.
        let stats = server.stats();
        assert_eq!(stats.admitted, admitted as u64, "server counted every admission");
        assert_eq!(stats.shed, shed as u64, "server counted every shed");
        assert_eq!(stats.completed, admitted as u64, "every admitted request completed (submit blocks on delivery)");
        assert_eq!(stats.panic_isolated, 0, "no request panicked");
        assert_eq!(stats.queue_depth, 0, "queue drained once all submitters returned");
    }

    /// The telemetry-enabled path: counters and stage histograms populate,
    /// panic isolation is counted, and the flight recorder holds span trees
    /// with the documented stage hierarchy.
    #[test]
    fn telemetry_records_latencies_spans_and_panic_isolation() {
        let w = Matrix::from_vec(40, 2, (0..80).map(|i| i as f32 * 0.01).collect());
        let model = ServingModel::from_parts("toy", &w, 4, |user, _| {
            assert!(user < 30, "unknown user {user}");
            vec![1.0, user as f32 * 0.1]
        });
        let telemetry = Telemetry::with_flight_capacity(8);
        let server = Arc::new(RecServer::start_with_telemetry(
            Arc::new(ModelRegistry::new(model)),
            ServerConfig { coalesce_wait: Duration::from_millis(4), ..ServerConfig::default() },
            telemetry.clone(),
        ));
        // A concurrent burst so at least one multi-request batch forms.
        let handles: Vec<_> = (0..6)
            .map(|user| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || server.submit(RecommendRequest::new(user, vec![user], 5)))
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap().expect("admitted").items.len(), 5);
        }
        let poisoned = server.submit(RecommendRequest::new(99, vec![], 3)).expect("admitted");
        assert!(poisoned.items.is_empty());

        let stats = server.stats();
        assert_eq!(stats.admitted, 7);
        assert_eq!(stats.completed, 7);
        assert_eq!(stats.panic_isolated, 1, "the poisoned request was isolated and counted");

        let snap = telemetry.snapshot().expect("telemetry enabled");
        assert_eq!(snap.counter("serve_requests_admitted_total"), Some(7));
        assert_eq!(snap.counter("serve_requests_panic_isolated_total"), Some(1));
        assert_eq!(snap.histogram("serve_total_micros").map(|h| h.count), Some(7), "one total sample per request");
        assert_eq!(snap.histogram("serve_queue_micros").map(|h| h.count), Some(7));
        assert!(snap.histogram("serve_batch_size").is_some_and(|h| h.count >= 1 && h.max >= 1));

        let flight = telemetry.flight().expect("telemetry enabled");
        assert!(!flight.is_empty(), "served requests left span trees in the ring");
        let tree = flight.slowest().expect("at least one tree");
        assert_eq!(tree.name, "request");
        assert!(tree.find("queue").is_some() && tree.find("service").is_some());
        // Every tree ends in either the solo GEMV stage or the batch stages.
        for tree in flight.last(8) {
            assert!(
                tree.find("solo_gemv").is_some() || tree.find("shard_score").is_some(),
                "unexpected span shape:\n{}",
                tree.render()
            );
        }
        // A lone request records the same stages as any batch: one child per
        // shard under shard_score, then the merge.
        assert_eq!(server.submit(RecommendRequest::new(3, vec![3], 5)).expect("admitted").items.len(), 5);
        let solo = flight.last(1).pop().expect("the lone request left a tree");
        let shards: Vec<&str> = solo
            .find("shard_score")
            .map_or(Vec::new(), |score| score.children.iter().map(|c| c.name.as_str()).collect());
        assert_eq!(shards, ["shard_0", "shard_1", "shard_2", "shard_3"], "unexpected span shape:\n{}", solo.render());
        assert!(solo.find("merge").is_some(), "unexpected span shape:\n{}", solo.render());
    }

    /// The shutdown race: a request admitted concurrently with shutdown must
    /// still receive a response (admission and the shutdown flag share the
    /// queue lock, so the dispatcher's final drain cannot miss it). Repeated
    /// loom-style: many iterations of submitters racing `shutdown()`.
    #[test]
    fn racing_shutdown_never_strands_an_admitted_request() {
        for round in 0u64..200 {
            let server = RecServer::start(
                registry(12),
                ServerConfig { coalesce_wait: Duration::ZERO, max_batch: 2, ..Default::default() },
            );
            std::thread::scope(|scope| {
                for submitter in 0..2 {
                    let server = &server;
                    scope.spawn(move || {
                        for user in 0..20 {
                            match server.submit(RecommendRequest::new((submitter + user) % 5, vec![], 2)) {
                                // every admitted request must come back whole
                                Ok(response) => assert_eq!(response.items.len(), 2),
                                Err(SubmitError::ShuttingDown) => return,
                                Err(other) => panic!("unexpected rejection: {other}"),
                            }
                        }
                    });
                }
                let server = &server;
                scope.spawn(move || {
                    // vary the interleaving between instant and late shutdown
                    if round % 3 != 0 {
                        std::thread::sleep(Duration::from_micros((round % 7) * 13));
                    }
                    server.shutdown();
                });
            });
            // drop joins the dispatcher; reaching the next iteration proves
            // no submitter hung on a stranded slot
        }
    }
}
