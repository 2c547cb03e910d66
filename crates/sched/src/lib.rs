//! `livelit-sched`: a zero-dependency scoped work-stealing thread pool for
//! the embarrassingly-parallel hot loops of live evaluation.
//!
//! The paper's live semantics make every livelit invocation independently
//! evaluable: closure collection produces per-hole environments whose
//! fill-and-resume steps share no mutable state, and each splice's live
//! result depends only on its elaboration and its σ. This crate supplies
//! the scheduling substrate those loops fan out on:
//!
//! - **Scoped**: workers are spawned per parallel region with
//!   [`std::thread::scope`], so tasks may borrow from the caller's stack —
//!   no `'static` bounds, no task boxing, no channels.
//! - **Work-stealing**: tasks are dealt round-robin onto per-worker deques;
//!   a worker pops its own deque from the back and steals from the front of
//!   its siblings when it runs dry, so skewed workloads (one huge σ among
//!   many small ones) still saturate the cores.
//! - **Deterministic by construction**: the pool never reorders *results* —
//!   [`Pool::map`] scatters each task's output back to its input index, so
//!   callers observe a plain indexed map regardless of execution
//!   interleaving. Callers must keep tasks independent (output `i` depends
//!   only on input `i`); under that contract, runs at any worker count are
//!   bit-identical.
//! - **Panic-isolating**: each task runs under
//!   [`std::panic::catch_unwind`]; a panicking task yields a [`TaskPanic`]
//!   in its result slot instead of aborting the host or poisoning its
//!   siblings.
//! - **Big stacks**: workers get 512 MiB stacks (reserved address space,
//!   committed only as touched), so the recursive tree walks a task may
//!   run — interning, substitution, decoding of deep terms — have far
//!   more headroom than a default 2 MiB thread. Evaluation itself runs
//!   on the environment machine's explicit frame arena and needs none.
//!
//! Worker count comes from `LIVELIT_THREADS` (default: available
//! parallelism; `1` preserves the sequential path exactly — one big-stack
//! worker runs the tasks in index order). Tests pin the count with
//! [`set_workers_override`] without touching the process environment.
//!
//! The crate is std-only: the build is hermetic and offline.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Stack size for pool workers: generous headroom for recursive walks over
/// deep terms (the evaluator itself never recurses on the host stack).
pub const WORKER_STACK_BYTES: usize = 512 * 1024 * 1024;

/// A captured panic from a pool task: the task's index slot holds this
/// instead of a result, and every sibling task still runs to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The panic payload rendered to text (`&str` and `String` payloads are
    /// preserved verbatim; anything else becomes a fixed placeholder).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Renders a panic payload the way `std` would print it.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Utilization counters for one parallel region, reported by [`Pool::map`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed (= number of input items).
    pub tasks: u64,
    /// Tasks a worker took from a sibling's deque rather than its own.
    pub steals: u64,
    /// Total worker-nanoseconds not spent executing tasks: the region's
    /// wall time times the worker count, minus the summed task runtimes.
    /// A measure of scheduling overhead plus load imbalance.
    pub idle_ns: u64,
}

impl PoolStats {
    /// Accumulates another region's counters into this one.
    pub fn merge(&mut self, other: PoolStats) {
        self.tasks += other.tasks;
        self.steals += other.steals;
        self.idle_ns += other.idle_ns;
    }
}

/// Tasks dealt onto deques but not yet started, across every in-flight
/// parallel region in the process (a gauge: rises at region start, drains
/// as workers pick tasks up).
static QUEUE_DEPTH: AtomicU64 = AtomicU64::new(0);
/// Tasks executed since process start (a monotonic total).
static TOTAL_TASKS: AtomicU64 = AtomicU64::new(0);
/// Tasks stolen from a sibling's deque since process start.
static TOTAL_STEALS: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the process-global scheduler gauges,
/// readable without a tracer installed — the `hazel serve` `metrics` op
/// reports these alongside the latency histograms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Tasks currently queued on deques and not yet started.
    pub queue_depth: u64,
    /// Tasks executed since process start.
    pub tasks: u64,
    /// Tasks stolen from a sibling's deque since process start.
    pub steals: u64,
}

/// Reads the process-global scheduler gauges.
pub fn gauges() -> GaugeSnapshot {
    GaugeSnapshot {
        queue_depth: QUEUE_DEPTH.load(Ordering::Relaxed),
        tasks: TOTAL_TASKS.load(Ordering::Relaxed),
        steals: TOTAL_STEALS.load(Ordering::Relaxed),
    }
}

/// Test override for the worker count; `0` means "not set".
static WORKERS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `LIVELIT_THREADS` parsed once per process.
static ENV_WORKERS: OnceLock<usize> = OnceLock::new();

/// The configured worker count: the test override if set, else
/// `LIVELIT_THREADS` if set to a positive integer, else the machine's
/// available parallelism (falling back to 1).
///
/// The accepted `LIVELIT_THREADS` range is the positive integers (`1`
/// disables parallelism, values above the core count are allowed). A set
/// but unusable value — `0`, negative, or unparseable — is *not* silently
/// swallowed: the first read warns once on stderr, naming the fallback,
/// then uses the machine's available parallelism.
pub fn configured_workers() -> usize {
    let forced = WORKERS_OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return forced;
    }
    *ENV_WORKERS.get_or_init(|| {
        let default = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        match std::env::var("LIVELIT_THREADS").ok() {
            None => default,
            Some(raw) => match raw.trim().parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    // Once per process: ENV_WORKERS memoizes this closure.
                    eprintln!(
                        "warning: ignoring LIVELIT_THREADS={raw:?}: \
                         expected an integer >= 1; \
                         falling back to available parallelism ({default})"
                    );
                    default
                }
            },
        }
    })
}

/// Forces the worker count for subsequent [`Pool::global`] calls
/// (`Some(n)`) or restores the environment-derived default (`None`).
/// For tests: the property suite runs the same programs at pool sizes
/// 1/2/8 in one process, where an env var would race across test threads.
pub fn set_workers_override(workers: Option<usize>) {
    WORKERS_OVERRIDE.store(workers.unwrap_or(0), Ordering::Relaxed);
}

/// A work-stealing pool configuration. Creating one is free — workers are
/// scoped to each [`Pool::map`] call, not kept alive between regions.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with an explicit worker count (clamped to at least 1).
    pub fn with_workers(workers: usize) -> Pool {
        Pool {
            workers: workers.max(1),
        }
    }

    /// The pool configured by [`set_workers_override`] / `LIVELIT_THREADS`.
    pub fn global() -> Pool {
        Pool::with_workers(configured_workers())
    }

    /// The worker count this pool will spawn (before clamping to the task
    /// count of a particular region).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item, in parallel, returning the outputs in
    /// input order along with the region's utilization counters.
    ///
    /// Slot `i` holds `f(i, &items[i])`, or the captured [`TaskPanic`] if
    /// that task panicked. Execution order across slots is unspecified at
    /// worker counts > 1; with 1 worker, tasks run in index order on a
    /// single big-stack thread — exactly the sequential path.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> (Vec<Result<R, TaskPanic>>, PoolStats)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return (Vec::new(), PoolStats::default());
        }
        let workers = self.workers.min(n);
        let start = Instant::now();

        // Round-robin deal onto per-worker deques. Each worker pops its own
        // deque from the back (LIFO keeps its cache warm) and steals from
        // the front of the others (FIFO takes the oldest, largest-grained
        // work first).
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                Mutex::new(
                    (0..n)
                        .filter(|i| i % workers == w)
                        .collect::<VecDeque<usize>>(),
                )
            })
            .collect();
        QUEUE_DEPTH.fetch_add(n as u64, Ordering::Relaxed);

        let mut slots: Vec<Option<Result<R, TaskPanic>>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut steals = 0u64;
        let mut busy_ns = 0u64;

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let deques = &deques;
                    let f = &f;
                    std::thread::Builder::new()
                        .name(format!("livelit-sched-{w}"))
                        .stack_size(WORKER_STACK_BYTES)
                        .spawn_scoped(scope, move || {
                            let mut out: Vec<(usize, Result<R, TaskPanic>)> = Vec::new();
                            let mut local_steals = 0u64;
                            let mut local_busy_ns = 0u64;
                            loop {
                                // Own deque first (back), then steal (front).
                                let next = deques[w]
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .pop_back();
                                let (i, stolen) = match next {
                                    Some(i) => (i, false),
                                    None => {
                                        let mut found = None;
                                        for v in 1..workers {
                                            let victim = (w + v) % workers;
                                            let task = deques[victim]
                                                .lock()
                                                .unwrap_or_else(PoisonError::into_inner)
                                                .pop_front();
                                            if let Some(i) = task {
                                                found = Some(i);
                                                break;
                                            }
                                        }
                                        match found {
                                            Some(i) => (i, true),
                                            None => break,
                                        }
                                    }
                                };
                                if stolen {
                                    local_steals += 1;
                                }
                                QUEUE_DEPTH.fetch_sub(1, Ordering::Relaxed);
                                let task_start = Instant::now();
                                let result = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])))
                                    .map_err(|payload| TaskPanic {
                                        message: panic_message(payload),
                                    });
                                local_busy_ns += task_start.elapsed().as_nanos() as u64;
                                out.push((i, result));
                            }
                            (out, local_steals, local_busy_ns)
                        })
                        .expect("spawn pool worker")
                })
                .collect();
            for handle in handles {
                // A worker thread itself cannot panic — every task body is
                // wrapped in catch_unwind — so join only fails on external
                // thread termination.
                let (out, local_steals, local_busy_ns) =
                    handle.join().expect("pool worker terminated abnormally");
                steals += local_steals;
                busy_ns += local_busy_ns;
                for (i, result) in out {
                    slots[i] = Some(result);
                }
            }
        });

        let wall_ns = start.elapsed().as_nanos() as u64;
        TOTAL_TASKS.fetch_add(n as u64, Ordering::Relaxed);
        TOTAL_STEALS.fetch_add(steals, Ordering::Relaxed);
        let stats = PoolStats {
            tasks: n as u64,
            steals,
            // The single-worker pool is the sequential path: there is no
            // parallel idleness to report, and reporting spawn overhead
            // would make even deterministic traces vary run to run.
            idle_ns: if workers > 1 {
                (wall_ns * workers as u64).saturating_sub(busy_ns)
            } else {
                0
            },
        };
        let results = slots
            .into_iter()
            .map(|slot| slot.expect("every task index was executed exactly once"))
            .collect();
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order_at_every_worker_count() {
        let items: Vec<u64> = (0..100).collect();
        for workers in [1, 2, 3, 8, 64] {
            let pool = Pool::with_workers(workers);
            let (results, stats) = pool.map(&items, |i, x| x * 2 + i as u64);
            let got: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
            let want: Vec<u64> = (0..100).map(|i| i * 3).collect();
            assert_eq!(got, want, "workers={workers}");
            assert_eq!(stats.tasks, 100);
        }
    }

    #[test]
    fn empty_input_runs_no_tasks() {
        let pool = Pool::with_workers(8);
        let (results, stats) = pool.map(&[] as &[u8], |_, _| 0u8);
        assert!(results.is_empty());
        assert_eq!(stats, PoolStats::default());
    }

    #[test]
    fn a_panicking_task_is_captured_and_siblings_complete() {
        let items: Vec<usize> = (0..20).collect();
        for workers in [1, 4] {
            let pool = Pool::with_workers(workers);
            let (results, _) = pool.map(&items, |_, &x| {
                assert!(x != 7, "task seven exploded");
                x + 1
            });
            for (i, r) in results.iter().enumerate() {
                if i == 7 {
                    let panic = r.as_ref().unwrap_err();
                    assert!(
                        panic.message.contains("task seven exploded"),
                        "got: {panic}"
                    );
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i + 1, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn string_panic_payloads_are_preserved() {
        let pool = Pool::with_workers(2);
        let (results, _) = pool.map(&[0u8], |_, _| -> u8 {
            panic!("formatted {}", 42);
        });
        assert_eq!(results[0].as_ref().unwrap_err().message, "formatted 42");
    }

    #[test]
    fn skewed_work_is_stolen() {
        // With 2 workers and round-robin dealing, worker 0's deque is
        // [0, 2, ..., 62] and it pops from the back — so task 62 is the
        // first thing worker 0 runs. Make it sleep: worker 1 drains its
        // own instant half and then must steal worker 0's remaining tasks
        // from the front while worker 0 is stuck in the sleeper.
        let items: Vec<u64> = (0..64).collect();
        let pool = Pool::with_workers(2);
        let (results, stats) = pool.map(&items, |_, &x| {
            if x == 62 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            x
        });
        assert!(results.into_iter().all(|r| r.is_ok()));
        assert!(stats.steals > 0, "expected steals, got {stats:?}");
    }

    #[test]
    fn tasks_may_borrow_from_the_caller_stack() {
        let base = [10u64, 20, 30];
        let items = [0usize, 1, 2];
        let pool = Pool::with_workers(3);
        let (results, _) = pool.map(&items, |_, &i| base[i] + 1);
        let got: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, vec![11, 21, 31]);
    }

    #[test]
    fn gauges_drain_and_accumulate() {
        let before = gauges();
        let items: Vec<u64> = (0..37).collect();
        let pool = Pool::with_workers(4);
        let (_, stats) = pool.map(&items, |_, &x| x);
        let after = gauges();
        // Other tests may run regions concurrently in this process, so
        // totals are compared as lower bounds and the queue-depth drain is
        // checked against a generous ceiling rather than exact zero.
        assert!(after.tasks - before.tasks >= 37);
        assert!(after.steals >= before.steals);
        assert!(stats.tasks == 37);
        assert!(after.queue_depth < 1 << 32, "gauge underflowed");
    }

    #[test]
    fn override_takes_precedence_and_clears() {
        set_workers_override(Some(3));
        assert_eq!(Pool::global().workers(), 3);
        set_workers_override(None);
        assert_eq!(Pool::global().workers(), configured_workers());
    }

    #[test]
    fn deep_recursion_fits_the_worker_stack() {
        // ~1M frames would overflow a default 8 MiB stack; the pool's
        // big-stack workers absorb it.
        fn deep(n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                1 + deep(n - 1)
            }
        }
        let pool = Pool::with_workers(2);
        let (results, _) = pool.map(&[1_000_000u64, 500_000], |_, &n| deep(n));
        assert_eq!(results[0].as_ref().unwrap(), &1_000_000);
        assert_eq!(results[1].as_ref().unwrap(), &500_000);
    }
}
