//! # pool — a work-stealing scoped thread pool with a determinism contract
//!
//! The sweep engine behind `isoee`'s EE surfaces, iso-EE contours and the
//! DVFS advisor. Like [`proptest`](../proptest/index.html), the crate is
//! fully self-contained (no external dependencies, no `unsafe`): workers
//! are scoped `std::thread`s, each owning a mutex-guarded chunk deque, and
//! idle workers steal from the front of their peers' deques.
//!
//! ## The determinism contract
//!
//! [`parallel_map`] and [`parallel_map_indexed`] split the input into
//! contiguous index chunks and write every result into its own
//! pre-assigned output slot, so the reduction is **index-ordered by
//! construction**: the returned `Vec` is the exact value sequence a
//! sequential `map` produces, regardless of thread count or steal
//! interleaving. Each element is computed by exactly one task from exactly
//! the same inputs as in the sequential path, so for a pure function the
//! output is *bit-identical* at any `POOL_THREADS` — the property
//! `tests/parallel_equivalence.rs` enforces across the whole isoee stack.
//!
//! ## Configuration
//!
//! * [`PoolConfig::from_env`] honours `POOL_THREADS` (falls back to the
//!   host's available parallelism); [`global`] caches that lookup.
//! * [`PoolConfig::with_threads`] pins a thread count programmatically —
//!   the differential tests compare 1/2/8-thread runs this way.
//! * When the chunk size is *derived* (no [`PoolConfig::with_chunk_size`]),
//!   a multi-threaded run first times a few tasks inline on the caller:
//!   sweeps whose estimated total is cheaper than spawning threads finish
//!   inline at sequential speed, and sub-microsecond tasks get batched
//!   into chunks carrying tens of microseconds of work each. Results,
//!   ordering and panic behaviour are unchanged — only the schedule
//!   adapts to the measured task cost.
//!
//! ## Observability
//!
//! Every run reports into `obs::global()`:
//!
//! * `pool.workers` (gauge) — workers spawned by the latest parallel run;
//! * `pool.tasks_executed` (counter) — one per task (= input element),
//!   whether it ran inline (1 thread) or on a worker;
//! * `pool.steals` (counter) — chunks taken from another worker's deque;
//! * `pool.queue_depth` (gauge) — chunks not yet claimed, updated as the
//!   run drains;
//! * `pool.task_latency_s` (log histogram) — per-task wall time, measured
//!   at chunk granularity and amortised via `record_n` so the timer never
//!   sits inside the per-task hot path;
//! * `pool.steal_latency_s` (log histogram) — time an idle worker spent
//!   scanning peers before a successful steal;
//! * `pool.queue_residency_s` (log histogram) — how long each chunk
//!   waited in a deque between enqueue and claim.
//!
//! `analyze` cross-checks `pool.tasks_executed` deltas against
//! `isoee.model_evals` to prove the sweep engine's accounting.
//!
//! On a task panic the pool records a `pool.task_panic` event (with the
//! task index) into the `obs::flight` recorder and dumps every thread's
//! flight tail to JSONL before re-raising, so the forensic context of the
//! failure survives the unwind.
//!
//! ## Panics
//!
//! A panicking task aborts the scope: in-flight chunks finish their
//! current element, unclaimed work is dropped, and the panic is re-raised
//! on the caller with the *task index* attached (the lowest-indexed
//! panicking task observed). Nested `parallel_map` calls are allowed —
//! each run spawns its own scope.

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// How many tasks each worker claims at a time, by default: enough chunks
/// for ~4 rounds of stealing per worker, so imbalanced task durations
/// still spread.
const CHUNK_ROUNDS_PER_WORKER: usize = 4;

/// Tasks timed inline on the caller before choosing a strategy, when the
/// chunk size is derived (not pinned via [`PoolConfig::with_chunk_size`]).
const PROBE_TASKS: usize = 4;

/// If the probe estimates the *remaining* work below this, the whole run
/// stays inline on the caller: spawning and joining scoped workers costs
/// tens of microseconds, which would dominate a sub-200µs sweep. This is
/// what keeps tiny model-evaluation sweeps (sub-µs per cell) at
/// sequential speed under a multi-threaded config.
const INLINE_BUDGET_NS: u128 = 200_000;

/// Minimum estimated work per chunk when the chunk size is derived, so
/// per-chunk deque locking and stealing stay well under 1% of useful
/// work even for sub-microsecond tasks.
const TARGET_CHUNK_NS: u128 = 50_000;

/// Thread-count and chunking policy for a parallel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    threads: usize,
    /// `None`: derive from input length and thread count.
    chunk: Option<usize>,
}

impl PoolConfig {
    /// A single-threaded config: `parallel_map` runs inline on the caller
    /// thread — this *is* the sequential path the differential tests
    /// compare against.
    #[must_use]
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// A config with exactly `threads` workers (`0` is clamped to 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            chunk: None,
        }
    }

    /// Override the chunk size (`0` is clamped to 1). Mostly for tests;
    /// the default derives a size from the input length.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = Some(chunk.max(1));
        self
    }

    /// Read the thread count from the `POOL_THREADS` environment variable;
    /// unset, empty, unparsable or zero values fall back to the host's
    /// available parallelism.
    #[must_use]
    pub fn from_env() -> Self {
        Self::with_threads(threads_from_str(
            std::env::var("POOL_THREADS").ok().as_deref(),
        ))
    }

    /// Configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The chunk size used for an input of `len` tasks.
    #[must_use]
    pub fn chunk_size(&self, len: usize) -> usize {
        match self.chunk {
            Some(c) => c,
            None => len
                .div_ceil(self.threads.saturating_mul(CHUNK_ROUNDS_PER_WORKER).max(1))
                .max(1),
        }
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Parse a `POOL_THREADS` value; `None`, empty, unparsable or `0` fall
/// back to the host's available parallelism.
#[must_use]
pub fn threads_from_str(value: Option<&str>) -> usize {
    match value.map(str::trim) {
        Some(s) if !s.is_empty() => match s.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        _ => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The process-wide config, read from `POOL_THREADS` once on first use.
pub fn global() -> &'static PoolConfig {
    static GLOBAL: OnceLock<PoolConfig> = OnceLock::new();
    GLOBAL.get_or_init(PoolConfig::from_env)
}

/// One contiguous run of tasks: global start index plus the output slots
/// the owning worker fills. Stealing moves the whole chunk.
struct Chunk<'a, U> {
    start: usize,
    out: &'a mut [Option<U>],
    /// Enqueue time, for `pool.queue_residency_s`.
    born: std::time::Instant,
}

/// Cached handles for the pool's log histograms (registration takes the
/// registry mutex; the handles are lock-free).
struct PoolHists {
    task_latency: std::sync::Arc<obs::LogHistogram>,
    steal_latency: std::sync::Arc<obs::LogHistogram>,
    queue_residency: std::sync::Arc<obs::LogHistogram>,
}

fn hists() -> &'static PoolHists {
    static HISTS: OnceLock<PoolHists> = OnceLock::new();
    HISTS.get_or_init(|| {
        let reg = obs::global();
        PoolHists {
            task_latency: reg.log_histogram("pool.task_latency_s", "s"),
            steal_latency: reg.log_histogram("pool.steal_latency_s", "s"),
            queue_residency: reg.log_histogram("pool.queue_residency_s", "s"),
        }
    })
}

/// Record the panic into the flight recorder and dump every thread's
/// forensic tail before the unwind continues.
fn flight_panic_dump(task: &TaskPanic) {
    obs::flight::record(
        "pool.task_panic",
        "event",
        0.0,
        &[
            ("index", task.index.to_string()),
            ("message", task.message().to_string()),
        ],
    );
    let _ = obs::flight::dump("pool-task-panic");
}

/// Shared per-run bookkeeping.
struct RunState<U> {
    deques: Vec<Mutex<VecDeque<U>>>,
    /// Chunks not yet claimed by any worker (drives `pool.queue_depth`).
    unclaimed: AtomicUsize,
    /// Set by the first panicking task; stops everyone else early.
    abort: AtomicBool,
    /// Lowest-indexed panic observed `(task_index, payload)`.
    panic: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>>,
}

/// Map `f` over `items` on the configured pool, preserving input order.
///
/// Semantically identical to `items.iter().map(f).collect()`: results are
/// reduced in index order, and with a pure `f` the output is bit-identical
/// at any thread count. See the crate docs for the panic behaviour.
///
/// # Panics
/// Re-raises the panic of the lowest-indexed panicking task, with the task
/// index attached.
pub fn parallel_map<T, U, F>(cfg: &PoolConfig, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_indexed(cfg, items.len(), |i| f(&items[i]))
}

/// Map `f` over the index range `0..len` on the configured pool.
///
/// The index-taking core of [`parallel_map`]; same determinism and panic
/// contract.
///
/// # Panics
/// Re-raises the panic of the lowest-indexed panicking task, with the task
/// index attached.
pub fn parallel_map_indexed<U, F>(cfg: &PoolConfig, len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    // Zero-length inputs short-circuit: no workers, no metrics, no spawn.
    if len == 0 {
        return Vec::new();
    }

    let reg = obs::global();
    let tasks = reg.counter("pool.tasks_executed");

    // The sequential path: the caller thread runs every task inline. This
    // is also the reference the differential tests compare against.
    if cfg.threads <= 1 || len == 1 {
        reg.gauge("pool.workers").set(1.0);
        let t0 = std::time::Instant::now();
        let out: Vec<U> = (0..len).map(&f).collect();
        tasks.add(len as u64);
        record_task_latency(t0.elapsed(), len as u64);
        return out;
    }

    let mut out: Vec<Option<U>> = (0..len).map(|_| None).collect();

    // Measured-cost heuristic (derived-chunk mode only; `with_chunk_size`
    // pins the policy and skips it): time the first few tasks inline,
    // then either finish inline — when the estimated remaining work would
    // be dwarfed by thread spawn/join overhead — or raise the chunk size
    // so each chunk carries enough work to amortise deque traffic. Task
    // results and panics are identical either way; only the schedule
    // adapts, so the determinism contract is unaffected.
    let mut chunk = cfg.chunk_size(len);
    let mut done = 0usize;
    if cfg.chunk.is_none() {
        let probe = PROBE_TASKS.min(len);
        let t0 = std::time::Instant::now();
        run_inline(&mut out[..probe], 0, &f, &tasks);
        let per_task_ns = (t0.elapsed().as_nanos() / probe as u128).max(1);
        done = probe;
        let remaining = (len - probe) as u128;
        if per_task_ns.saturating_mul(remaining) < INLINE_BUDGET_NS {
            reg.gauge("pool.workers").set(1.0);
            run_inline(&mut out[probe..], probe, &f, &tasks);
            return unwrap_slots(out);
        }
        let min_chunk = usize::try_from(TARGET_CHUNK_NS / per_task_ns).unwrap_or(usize::MAX);
        chunk = chunk.max(min_chunk.max(1));
    }

    // Pre-split the (un-probed tail of the) output buffer into disjoint
    // chunk slices; each chunk owns its slots, so no two workers ever
    // alias an element.
    let mut chunks: Vec<Chunk<'_, U>> = Vec::with_capacity((len - done).div_ceil(chunk));
    {
        let mut rest: &mut [Option<U>] = &mut out[done..];
        let mut start = done;
        let born = std::time::Instant::now();
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
            chunks.push(Chunk {
                start,
                out: head,
                born,
            });
            rest = tail;
            start += take;
        }
    }

    let workers = cfg.threads.min(chunks.len());
    let n_chunks = chunks.len();
    let state = RunState {
        deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        unclaimed: AtomicUsize::new(n_chunks),
        abort: AtomicBool::new(false),
        panic: Mutex::new(None),
    };
    // Round-robin the chunks so every worker starts with local work.
    for (i, c) in chunks.into_iter().enumerate() {
        state.deques[i % workers]
            .lock()
            .expect("pool deque poisoned")
            .push_back(c);
    }

    #[allow(clippy::cast_precision_loss)]
    {
        reg.gauge("pool.workers").set(workers as f64);
        reg.gauge("pool.queue_depth").set(n_chunks as f64);
    }

    std::thread::scope(|scope| {
        for w in 0..workers {
            let state = &state;
            let f = &f;
            scope.spawn(move || worker_loop(w, state, f));
        }
    });

    if let Some((index, payload)) = state.panic.lock().expect("pool panic slot poisoned").take() {
        eprintln!("pool: parallel task {index} panicked; re-raising on the caller");
        let task = TaskPanic { index, payload };
        flight_panic_dump(&task);
        resume_unwind(Box::new(task));
    }

    unwrap_slots(out)
}

/// Run `slots.len()` tasks in index order on the caller thread, starting
/// at global index `base`. Panics re-raise as [`TaskPanic`] immediately —
/// execution is in order, so the first panic is the lowest-indexed one.
fn run_inline<U, F>(slots: &mut [Option<U>], base: usize, f: &F, tasks: &obs::Counter)
where
    F: Fn(usize) -> U,
{
    let t0 = std::time::Instant::now();
    let mut ran = 0u64;
    for (offset, slot) in slots.iter_mut().enumerate() {
        let index = base + offset;
        match catch_unwind(AssertUnwindSafe(|| f(index))) {
            Ok(value) => {
                *slot = Some(value);
                tasks.inc();
                ran += 1;
            }
            Err(payload) => {
                eprintln!("pool: parallel task {index} panicked; re-raising on the caller");
                record_task_latency(t0.elapsed(), ran);
                let task = TaskPanic { index, payload };
                flight_panic_dump(&task);
                resume_unwind(Box::new(task));
            }
        }
    }
    record_task_latency(t0.elapsed(), ran);
}

/// Amortised per-task latency: one timer reading per batch, spread over
/// the `ran` tasks it covered (keeps `Instant::now()` off the per-task
/// path — sweep cells run in tens of nanoseconds).
fn record_task_latency(elapsed: std::time::Duration, ran: u64) {
    if ran > 0 {
        #[allow(clippy::cast_precision_loss)]
        hists()
            .task_latency
            .record_n(elapsed.as_secs_f64() / ran as f64, ran);
    }
}

fn unwrap_slots<U>(out: Vec<Option<U>>) -> Vec<U> {
    out.into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| panic!("pool: task {i} never ran")))
        .collect()
}

/// Panic payload re-raised by the pool when a task panics: the original
/// payload plus the task index. Its `Display`/`Debug` embed the index so
/// `catch_unwind` callers (and test harness output) can identify the task.
pub struct TaskPanic {
    /// Index of the panicking task (the lowest-indexed one observed).
    pub index: usize,
    /// The task's original panic payload.
    pub payload: Box<dyn std::any::Any + Send>,
}

impl TaskPanic {
    /// The original payload rendered as a string, when it was one.
    #[must_use]
    pub fn message(&self) -> &str {
        if let Some(s) = self.payload.downcast_ref::<&'static str>() {
            s
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s
        } else {
            "<non-string panic payload>"
        }
    }
}

impl std::fmt::Debug for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "parallel task {} panicked: {}",
            self.index,
            self.message()
        )
    }
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        <Self as std::fmt::Debug>::fmt(self, f)
    }
}

fn worker_loop<U, F>(me: usize, state: &RunState<Chunk<'_, U>>, f: &F)
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let reg = obs::global();
    let tasks = reg.counter("pool.tasks_executed");
    let steals = reg.counter("pool.steals");
    let depth = reg.gauge("pool.queue_depth");
    let workers = state.deques.len();
    loop {
        if state.abort.load(Ordering::Relaxed) {
            return;
        }
        // Own work first (LIFO keeps the locally-hot chunk), then steal
        // from peers front-first (FIFO gives away the coldest chunk).
        let mut claimed = state.deques[me]
            .lock()
            .expect("pool deque poisoned")
            .pop_back();
        if claimed.is_none() {
            let hunt_start = std::time::Instant::now();
            for k in 1..workers {
                let victim = (me + k) % workers;
                let stolen = state.deques[victim]
                    .lock()
                    .expect("pool deque poisoned")
                    .pop_front();
                if stolen.is_some() {
                    steals.inc();
                    hists()
                        .steal_latency
                        .record(hunt_start.elapsed().as_secs_f64());
                    claimed = stolen;
                    break;
                }
            }
        }
        let Some(chunk) = claimed else {
            // All deques empty and nothing re-enqueues: the run is drained
            // (in-flight chunks belong to other workers).
            return;
        };
        #[allow(clippy::cast_precision_loss)]
        depth.set(
            state
                .unclaimed
                .fetch_sub(1, Ordering::Relaxed)
                .saturating_sub(1) as f64,
        );

        hists()
            .queue_residency
            .record(chunk.born.elapsed().as_secs_f64());

        let start = chunk.start;
        let chunk_start = std::time::Instant::now();
        let mut ran = 0u64;
        for (offset, slot) in chunk.out.iter_mut().enumerate() {
            if state.abort.load(Ordering::Relaxed) {
                record_task_latency(chunk_start.elapsed(), ran);
                return;
            }
            let index = start + offset;
            match catch_unwind(AssertUnwindSafe(|| f(index))) {
                Ok(value) => {
                    *slot = Some(value);
                    tasks.inc();
                    ran += 1;
                }
                Err(payload) => {
                    record_task_latency(chunk_start.elapsed(), ran);
                    record_panic(state, index, payload);
                    return;
                }
            }
        }
        record_task_latency(chunk_start.elapsed(), ran);
    }
}

/// Keep the lowest-indexed panic (deterministic winner when several tasks
/// panic) and flip the abort flag.
fn record_panic<C>(state: &RunState<C>, index: usize, payload: Box<dyn std::any::Any + Send>) {
    let mut slot = state.panic.lock().expect("pool panic slot poisoned");
    match slot.as_ref() {
        Some((existing, _)) if *existing <= index => {}
        _ => *slot = Some((index, payload)),
    }
    state.abort.store(true, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1usize, 2, 3, 8] {
            let cfg = PoolConfig::with_threads(threads);
            let got = parallel_map(&cfg, &items, |&x| x * x + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let n = 1537; // deliberately not a multiple of any chunk size
        let ran: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let cfg = PoolConfig::with_threads(8).with_chunk_size(7);
        let out = parallel_map_indexed(&cfg, n, |i| {
            ran[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        for (i, r) in ran.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed), 1, "task {i} run count");
        }
    }

    #[test]
    fn zero_length_short_circuits_without_calling_f() {
        let calls = AtomicU32::new(0);
        let cfg = PoolConfig::with_threads(8);
        let out: Vec<u32> = parallel_map_indexed(&cfg, 0, |_| {
            calls.fetch_add(1, Ordering::Relaxed);
            0
        });
        assert!(out.is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        let out2: Vec<u32> = parallel_map(&cfg, &[] as &[u32], |&x| x);
        assert!(out2.is_empty());
    }

    #[test]
    fn nested_parallel_map_works() {
        let cfg = PoolConfig::with_threads(4);
        let outer = parallel_map_indexed(&cfg, 6, |i| {
            let inner = PoolConfig::with_threads(2);
            parallel_map_indexed(&inner, 5, move |j| i * 10 + j)
        });
        for (i, row) in outer.iter().enumerate() {
            assert_eq!(*row, (0..5).map(|j| i * 10 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panicking_task_aborts_and_reports_its_index() {
        let cfg = PoolConfig::with_threads(4).with_chunk_size(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_indexed(&cfg, 64, |i| {
                if i == 7 {
                    panic!("boom at {i}");
                }
                i
            })
        }))
        .expect_err("the panic must propagate");
        let task = err
            .downcast_ref::<TaskPanic>()
            .expect("pool panics re-raise as TaskPanic");
        assert_eq!(task.index, 7);
        assert_eq!(task.message(), "boom at 7");
        assert!(format!("{task}").contains("task 7"));
    }

    #[test]
    fn lowest_indexed_panic_wins_when_all_tasks_panic() {
        // Sequential path: task 0 panics first by construction.
        let cfg = PoolConfig::sequential();
        let err = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_indexed(&cfg, 8, |i| -> usize { panic!("task {i}") })
        }))
        .expect_err("must propagate");
        // The inline path re-raises the original payload (no TaskPanic
        // wrapper is needed to identify the task: execution is in order).
        let msg = err
            .downcast_ref::<String>()
            .map_or("<non-string>", String::as_str);
        assert_eq!(msg, "task 0");
    }

    #[test]
    fn chunk_size_derivation_is_sane() {
        let cfg = PoolConfig::with_threads(4);
        assert_eq!(cfg.chunk_size(1), 1);
        assert!(cfg.chunk_size(16) >= 1);
        assert!(cfg.chunk_size(10_000) * 4 * CHUNK_ROUNDS_PER_WORKER >= 10_000);
        let pinned = PoolConfig::with_threads(4).with_chunk_size(0);
        assert_eq!(pinned.chunk_size(100), 1, "chunk 0 clamps to 1");
    }

    #[test]
    fn threads_from_str_parses_and_falls_back() {
        assert_eq!(threads_from_str(Some("3")), 3);
        assert_eq!(threads_from_str(Some(" 12 ")), 12);
        let default = default_threads();
        assert_eq!(threads_from_str(None), default);
        assert_eq!(threads_from_str(Some("")), default);
        assert_eq!(threads_from_str(Some("0")), default);
        assert_eq!(threads_from_str(Some("lots")), default);
        assert_eq!(PoolConfig::with_threads(0).threads(), 1);
    }

    #[test]
    fn cached_hist_handles_survive_in_place_reset() {
        // The sweep bench resets metric values between cases
        // (`Registry::reset_values` / `LogHistogram::reset`). The pool
        // caches its histogram Arcs in a `OnceLock`, so the reset must be
        // in place: the registry entry, the cached handle, and a fresh
        // lookup must all remain the *same* allocation, and recording
        // through the cached handle must stay visible to snapshots.
        // (Only the pool's own histograms are reset here — the
        // process-global counters stay untouched so the delta assertions
        // in concurrent tests cannot race.)
        let cfg = PoolConfig::with_threads(2);
        let _ = parallel_map_indexed(&cfg, 64, |i| i); // force registration
        let cached = std::sync::Arc::clone(&hists().task_latency);
        cached.reset();
        assert!(std::sync::Arc::ptr_eq(
            &cached,
            &obs::global().log_histogram("pool.task_latency_s", "s")
        ));
        let before = cached.snapshot().count;
        let _ = parallel_map_indexed(&cfg, 64, |i| i);
        assert!(
            cached.snapshot().count > before,
            "cached handle must keep recording after an in-place reset"
        );
    }

    #[test]
    fn tasks_counter_advances_by_input_length() {
        // The counter is process-global; other tests bump it concurrently,
        // so assert a lower bound on the delta rather than equality.
        let tasks = obs::global().counter("pool.tasks_executed");
        let before = tasks.get();
        let cfg = PoolConfig::with_threads(3);
        let _ = parallel_map_indexed(&cfg, 500, |i| i);
        assert!(tasks.get() - before >= 500);
    }
}
