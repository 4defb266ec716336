//! The score plan's executor: deadline-bounded, fault-isolated shard
//! scoring for every batch the server serves.
//!
//! The server runs each batch's per-shard steps here and then the
//! per-request merge on the dispatcher (see [`crate::shard`]). A pool
//! `scope` cannot be abandoned — a shard that stalls (or panics on a
//! worker) would hold the whole batch hostage — so:
//!
//! * a dedicated **bulkhead executor** ([`ShardExecutor`]) runs the
//!   per-shard steps on its own threads, so a stalled shard task never
//!   occupies the process-wide pool other subsystems (training,
//!   evaluation) share; each worker owns the score, route and seen-bitmap
//!   buffers its steps reuse;
//! * the batch coordinator waits for shard results **only until the shard
//!   deadline** (a batch without a deadline waits for every shard); shards
//!   that miss it (or panic) are dropped and the k-way merge runs over the
//!   survivors — a bounded, *flagged* degradation instead of a hang or a
//!   silent lie;
//! * abandoned tasks observe a cancellation flag and bail out of injected
//!   delays and scoring work within ~1ms, so a backlog of timed-out shard
//!   tasks drains quickly instead of wedging the executor.
//!
//! When every shard answers, the response is the plan's: bit-identical to
//! the direct entry points (`ServingModel::recommend` for a batch of one).
//! The chaos suite pins this: under any injected single-shard fault, a
//! response is either bit-identical to the exact path or explicitly flagged
//! degraded.

use crate::shard::{ScorePlan, ScoredItem, ShardScratch, ShardedCatalog, Shortlists};
use crate::trace::StageTrace;
use ham_faults::{FaultInjector, ShardFault};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A dedicated thread pool for the per-shard steps of server batches.
///
/// Deliberately **not** the process-wide work-stealing pool: its `scope`
/// blocks until every task finishes, which is exactly the semantics a
/// deadline must escape, and a slow shard parked on a shared worker would
/// starve unrelated work. This bulkhead owns its backlog; abandoned tasks
/// self-cancel (see [`score_bounded`]) so the queue drains even under
/// sustained shard slowness. Each worker hands its tasks the one
/// [`ShardScratch`] it keeps for its lifetime.
pub(crate) struct ShardExecutor {
    shared: Arc<ExecutorShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

type Task = Box<dyn FnOnce(&mut ShardScratch) + Send>;

struct ExecutorShared {
    /// (task queue, shutdown flag) under one lock so workers can check both.
    tasks: Mutex<(VecDeque<Task>, bool)>,
    arrived: Condvar,
}

impl ShardExecutor {
    /// Spawns `workers.max(1)` bulkhead threads.
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(ExecutorShared { tasks: Mutex::new((VecDeque::new(), false)), arrived: Condvar::new() });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ham-shard-exec-{i}"))
                    .spawn(move || {
                        let mut scratch = ShardScratch::default();
                        loop {
                            let task = {
                                // The (queue, flag) tuple stays structurally
                                // sound whatever a holder was doing when it
                                // panicked; recover rather than lose a bulkhead
                                // worker to someone else's poison.
                                let mut guard = shared.tasks.lock().unwrap_or_else(PoisonError::into_inner);
                                loop {
                                    if let Some(task) = guard.0.pop_front() {
                                        break task;
                                    }
                                    if guard.1 {
                                        return;
                                    }
                                    guard = shared.arrived.wait(guard).unwrap_or_else(PoisonError::into_inner);
                                }
                            };
                            // Tasks contain their own catch_unwind; a panic never
                            // reaches (and never kills) the worker.
                            task(&mut scratch);
                        }
                    })
                    // ham-lint: allow(panic, "bulkhead startup, before any batch is scored — cannot serve without workers")
                    .expect("failed to spawn shard executor worker")
            })
            .collect();
        Self { shared, workers }
    }

    fn submit(&self, task: Task) {
        // Recoverable for the same reason as the worker loop: the tuple is
        // plain data, and a submit that panicked here would cascade into a
        // degraded batch for an unrelated coordinator.
        let mut guard = self.shared.tasks.lock().unwrap_or_else(PoisonError::into_inner);
        guard.0.push_back(task);
        self.shared.arrived.notify_one();
    }
}

impl Drop for ShardExecutor {
    fn drop(&mut self) {
        {
            let mut guard = self.shared.tasks.lock().unwrap_or_else(PoisonError::into_inner);
            guard.1 = true;
            // Unsubmitted work is dropped: the only caller joins every batch
            // before shutdown, so anything still queued here was cancelled.
            guard.0.clear();
            self.shared.arrived.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _unused = worker.join();
        }
    }
}

/// What one shard task reported back to its batch.
enum SlotState {
    /// Task not finished (yet, or ever — the batch stops waiting at the
    /// deadline regardless).
    Pending,
    /// The shard's shortlists + step wall time in microseconds.
    Scored(Shortlists, u64),
    /// The task panicked (injected or organic); the shard is dropped.
    Panicked,
    /// The task observed cancellation and skipped its work.
    Skipped,
}

/// The rendezvous between a batch coordinator and its shard tasks.
struct SlotBoard {
    slots: Mutex<Vec<SlotState>>,
    done: Condvar,
    cancelled: AtomicBool,
}

impl SlotBoard {
    fn new(shards: usize) -> Self {
        Self {
            slots: Mutex::new((0..shards).map(|_| SlotState::Pending).collect()),
            done: Condvar::new(),
            cancelled: AtomicBool::new(false),
        }
    }

    fn fill(&self, shard: usize, state: SlotState) {
        // Shard tasks can panic (that is the point of the bulkhead), so the
        // board lock can be poisoned by a sibling — the Vec of slots is
        // still valid, and already-filled results must not be thrown away.
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        // A cancelled task can report after the coordinator has already
        // drained the board; its slot is gone and the result is discarded.
        // Indexing here would panic *outside* the task's catch_unwind and
        // kill a bulkhead worker.
        if let Some(slot) = slots.get_mut(shard) {
            *slot = state;
        }
        self.done.notify_all();
    }

    fn cancelled(&self) -> bool {
        // ordering: Relaxed — an advisory flag with no data published
        // alongside it; a task that misses the very latest value just does
        // some wasted scoring before its result is discarded.
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Blocks until every slot is non-pending, or `deadline` passes.
    fn wait(&self, deadline: Option<Instant>) {
        // Poison recovery mirrors `fill`: slots a panicked sibling never
        // filled stay Pending and are counted into the degraded response —
        // exactly the contract this module exists to provide.
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !slots.iter().any(|s| matches!(s, SlotState::Pending)) {
                return;
            }
            match deadline {
                None => slots = self.done.wait(slots).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return;
                    }
                    let (returned, _timeout) =
                        self.done.wait_timeout(slots, deadline - now).unwrap_or_else(PoisonError::into_inner);
                    slots = returned;
                }
            }
        }
    }
}

/// The result of one deadline-bounded batch.
pub(crate) struct BoundedOutcome {
    /// Per-request rankings over the surviving shards, batch order.
    pub rankings: Vec<Vec<ScoredItem>>,
    /// Shard ids whose shortlists made it into the merge (empty shards
    /// count — they answer vacuously).
    pub answered: Vec<usize>,
    /// Shard ids dropped because they missed the deadline budget.
    pub timed_out: Vec<usize>,
    /// Shard ids dropped because their scoring task panicked.
    pub panicked: Vec<usize>,
}

/// Runs `plan`'s per-shard steps on the bulkhead executor, waits at most
/// until `shard_deadline` (for every shard when `None` — then only panics
/// can degrade), and runs the per-request step over the shards that
/// answered. `trace` receives the stage timings.
pub(crate) fn score_bounded(
    catalog: &Arc<ShardedCatalog>,
    plan: Arc<ScorePlan>,
    executor: &ShardExecutor,
    shard_deadline: Option<Instant>,
    faults: &FaultInjector,
    mut trace: Option<&mut StageTrace>,
) -> BoundedOutcome {
    let board = Arc::new(SlotBoard::new(catalog.num_shards()));
    for shard in 0..catalog.num_shards() {
        if catalog.shards()[shard].is_empty() {
            // An empty shard answers vacuously — no task, no fault surface.
            board.fill(shard, SlotState::Scored(vec![Vec::new(); plan.len()], 0));
            continue;
        }
        let catalog = Arc::clone(catalog);
        let plan = Arc::clone(&plan);
        let board = Arc::clone(&board);
        let faults = faults.clone();
        executor.submit(Box::new(move |scratch: &mut ShardScratch| {
            if board.cancelled() {
                board.fill(shard, SlotState::Skipped);
                return;
            }
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                inject_fault(&faults, shard, || board.cancelled()).then(|| catalog.score_shard(shard, &plan, scratch))
            }));
            let state = match result {
                Ok(Some(lists)) => SlotState::Scored(lists, started.elapsed().as_micros() as u64),
                Ok(None) => SlotState::Skipped,
                Err(_) => {
                    // The step may have unwound between marking and clearing
                    // the worker's seen bitmap.
                    scratch.reset();
                    SlotState::Panicked
                }
            };
            board.fill(shard, state);
        }));
    }
    board.wait(shard_deadline);
    // Whatever is still pending has missed the budget: flip the cancellation
    // flag so those tasks drain cheaply, then classify the slots.
    // ordering: Relaxed — advisory-only; see `SlotBoard::cancelled`.
    board.cancelled.store(true, Ordering::Relaxed);
    let slots = {
        // Recover from a panicked shard task's poison; unfilled slots read
        // as Pending below and become part of the degraded answer.
        let mut slots = board.slots.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::take(&mut *slots)
    };
    let mut survivors = Vec::with_capacity(slots.len());
    let mut answered = Vec::new();
    let mut timed_out = Vec::new();
    let mut panicked = Vec::new();
    let mut shard_micros = Vec::new();
    for (shard, state) in slots.into_iter().enumerate() {
        match state {
            SlotState::Scored(lists, micros) => {
                shard_micros.push((shard, micros));
                survivors.push(lists);
                answered.push(shard);
            }
            SlotState::Panicked => panicked.push(shard),
            SlotState::Pending | SlotState::Skipped => timed_out.push(shard),
        }
    }
    if let Some(trace) = trace.as_deref_mut() {
        trace.shard_score_micros = shard_micros;
    }
    let rankings = catalog.merge_requests(&plan, survivors, trace);
    BoundedOutcome { rankings, answered, timed_out, panicked }
}

/// Applies any injected fault for `shard` ahead of its step: a
/// [`ShardFault::Delay`] sleeps cooperatively, a [`ShardFault::Panic`]
/// panics (the caller runs this under `catch_unwind`). Returns `false` when
/// `cancelled` turned true — the batch already gave up on this shard, so
/// the remaining sleep and the step are skipped to free the worker quickly.
fn inject_fault(faults: &FaultInjector, shard: usize, cancelled: impl Fn() -> bool) -> bool {
    match faults.shard_fault(shard) {
        Some(ShardFault::Delay(delay)) => {
            // Sleep in small slices, checking for cancellation between
            // them: a shard whose batch already timed out must stop
            // clogging the bulkhead executor within ~1ms, not `delay`.
            let until = Instant::now() + delay;
            loop {
                if cancelled() {
                    return false;
                }
                let now = Instant::now();
                if now >= until {
                    break;
                }
                std::thread::sleep((until - now).min(Duration::from_millis(1)));
            }
        }
        Some(ShardFault::Panic) => panic!("ham-faults: injected panic in shard {shard}"),
        None => {}
    }
    !cancelled()
}
