//! Fixed-size OS-thread worker pool for run fan-out.
//!
//! Parallelism in this workspace exists at exactly one granularity: whole
//! simulation runs. Each run is a single-threaded, seeded, deterministic
//! `Simulator` execution; the pool only decides *when* each run executes,
//! never *what* it computes. Results come back indexed by task id, so the
//! caller's merge order — and therefore every byte of merged output — is
//! independent of scheduling. (The sim crates themselves are barred from
//! threads by the `no-thread-in-sim` lint rule; this crate is the
//! sanctioned home of `std::thread`.)
//!
//! There is one pool, [`run_supervised`]: hang-proof (a supervisor thread
//! enforces a per-task wall-clock budget, so one stuck run cannot stall a
//! whole sweep) and panic-isolating (a panicking task fails only its own
//! slot). The wall clock is read *only* by the supervisor — never by
//! simulation code, which the `no-wall-clock` lint rule enforces.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "panicked with a non-string payload".to_string()
    }
}

/// Outcome of one task under the supervised pool.
#[derive(Debug)]
pub enum TaskResult<T> {
    /// The task returned normally.
    Done(T),
    /// The task panicked; the pool caught the unwind and preserved the
    /// payload message.
    Panicked(String),
    /// The task exceeded the per-task wall-clock budget and was abandoned
    /// by the supervisor.
    TimedOut,
}

/// Per-task slot state shared between workers and the supervisor.
enum Slot<T> {
    /// No worker has claimed the task yet.
    Pending,
    /// A worker started the task at the recorded wall-clock instant.
    Running(Instant),
    /// The watchdog fired while the task was running: a replacement
    /// worker has been spawned, but the original worker keeps a grace
    /// window (recorded here) to deliver a result that raced the
    /// deadline. The worker's real outcome wins; only a slot still
    /// overdue after the grace hardens into [`TaskResult::TimedOut`].
    Overdue(Instant),
    /// Resolved — by the worker, or by the supervisor for overdue tasks.
    Finished(TaskResult<T>),
}

struct Supervised<T, F> {
    task: F,
    n_tasks: usize,
    next: AtomicUsize,
    slots: Vec<Mutex<Slot<T>>>,
}

fn supervised_worker<T, F>(pool: Arc<Supervised<T, F>>)
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    loop {
        let i = pool.next.fetch_add(1, Ordering::Relaxed);
        if i >= pool.n_tasks {
            return;
        }
        *pool.slots[i].lock().expect("result slot lock") = Slot::Running(Instant::now());
        let outcome = match catch_unwind(AssertUnwindSafe(|| (pool.task)(i))) {
            Ok(v) => TaskResult::Done(v),
            Err(payload) => TaskResult::Panicked(panic_message(payload)),
        };
        let mut slot = pool.slots[i].lock().expect("result slot lock");
        match *slot {
            Slot::Finished(_) => {
                // The supervisor already hardened this task to TimedOut
                // and spawned a replacement worker: discard the late
                // result and retire so the pool never runs more than
                // `jobs` live workers.
                return;
            }
            Slot::Overdue(_) => {
                // The watchdog fired while the result was in flight. The
                // real outcome wins — a run that finished in the same
                // tick the watchdog fired is a success, recorded exactly
                // once — but a replacement worker already took this
                // worker's place, so retire after writing.
                *slot = Slot::Finished(outcome);
                return;
            }
            Slot::Pending | Slot::Running(_) => {
                *slot = Slot::Finished(outcome);
            }
        }
    }
}

/// Supervisor poll interval: how often overdue tasks are checked for.
const SUPERVISOR_POLL: Duration = Duration::from_millis(2);

/// How long an overdue task's original worker keeps the right to deliver
/// its result before the slot hardens into [`TaskResult::TimedOut`].
/// Covers the race where a run finishes in the same supervisor tick the
/// watchdog fires: the worker has computed the outcome but not yet taken
/// the slot lock. Sized generously so an oversubscribed machine cannot
/// preempt a finishing worker past it; a genuinely hung run is merely
/// reported one grace window later, which is noise against any real
/// timeout budget.
const OVERDUE_GRACE: Duration = Duration::from_millis(25);

/// Run `task(0..n_tasks)` over `jobs` worker threads (clamped to
/// `[1, n_tasks]`) and return the outcomes in task-index order. Workers
/// pull the next unclaimed index from a shared counter, so the pool stays
/// busy even when run durations differ wildly. A panicking task becomes
/// [`TaskResult::Panicked`] in its slot while the remaining tasks still
/// run; the caller decides what a failed slot means (the sweep records it
/// in `sweep.json` and exits nonzero after the grid finishes).
///
/// The pool is *hang-proof*: each task runs on a detached worker under a
/// wall-clock budget enforced by a supervisor on the calling thread. A
/// task still running past `timeout` is recorded as
/// [`TaskResult::TimedOut`], its worker is abandoned (a stuck simulation
/// cannot be cancelled cooperatively), and a replacement worker is spawned
/// if unclaimed tasks remain — so one hung run can never stall the rest of
/// the grid. `timeout: None` disables the watchdog.
///
/// The deadline is checked only here, from the supervisor: simulation code
/// stays free of wall-clock reads (see the `no-wall-clock` lint
/// rule), and the sim's own outputs remain deterministic.
pub fn run_supervised<T, F>(
    n_tasks: usize,
    jobs: usize,
    timeout: Option<Duration>,
    task: F,
) -> Vec<TaskResult<T>>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    if n_tasks == 0 {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, n_tasks);
    let pool = Arc::new(Supervised {
        task,
        n_tasks,
        next: AtomicUsize::new(0),
        slots: (0..n_tasks).map(|_| Mutex::new(Slot::Pending)).collect(),
    });
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::with_capacity(jobs);
    for _ in 0..jobs {
        let p = Arc::clone(&pool);
        workers.push(std::thread::spawn(move || supervised_worker(p)));
    }
    loop {
        let mut finished = 0usize;
        for slot in &pool.slots {
            let mut s = slot.lock().expect("result slot lock");
            match &*s {
                Slot::Finished(_) => finished += 1,
                Slot::Running(started) => {
                    if timeout.is_some_and(|t| started.elapsed() >= t) {
                        // Don't declare the timeout yet: the worker may
                        // have finished in this very tick and be about
                        // to write. Mark the slot overdue (the worker's
                        // result still wins during the grace window) and
                        // restore the pool's parallelism if work remains.
                        *s = Slot::Overdue(Instant::now());
                        drop(s);
                        if pool.next.load(Ordering::Relaxed) < n_tasks {
                            let p = Arc::clone(&pool);
                            workers.push(std::thread::spawn(move || supervised_worker(p)));
                        }
                    }
                }
                Slot::Overdue(since) => {
                    if since.elapsed() >= OVERDUE_GRACE {
                        *s = Slot::Finished(TaskResult::TimedOut);
                        finished += 1;
                    }
                }
                Slot::Pending => {}
            }
        }
        if finished == n_tasks {
            break;
        }
        std::thread::sleep(SUPERVISOR_POLL);
    }
    // Reap every worker that ran to completion; only genuinely hung
    // workers (whose tasks were hardened to TimedOut) stay detached —
    // a stuck simulation cannot be cancelled cooperatively.
    for handle in workers {
        if handle.is_finished() {
            let _ = handle.join();
        }
    }
    pool.slots
        .iter()
        .map(|slot| {
            // Swap in a tombstone so an abandoned worker that wakes later
            // finds the slot resolved and retires without writing.
            std::mem::replace(
                &mut *slot.lock().expect("result slot lock"),
                Slot::Finished(TaskResult::TimedOut),
            )
        })
        .map(|s| match s {
            Slot::Finished(r) => r,
            _ => unreachable!("supervisor exits only once every slot is finished"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unwrap pool results that must all have completed.
    fn done<T: std::fmt::Debug>(results: Vec<TaskResult<T>>) -> Vec<T> {
        results
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                TaskResult::Done(v) => v,
                other => panic!("task {i}: unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn results_come_back_in_index_order_regardless_of_jobs() {
        let square = |i: usize| i * i;
        let serial = done(run_supervised(17, 1, None, square));
        let wide = done(run_supervised(17, 8, None, square));
        assert_eq!(serial, (0..17).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(serial, wide);
    }

    #[test]
    fn zero_tasks_and_oversized_pools_are_fine() {
        assert!(run_supervised(0, 4, None, |i| i).is_empty());
        assert_eq!(done(run_supervised(2, 64, None, |i| i)), vec![0, 1]);
    }

    #[test]
    fn a_panicking_task_fails_its_slot_but_the_grid_completes() {
        // The default panic hook would spam test output; silence it for
        // the deliberately panicking tasks.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = run_supervised(10, 4, None, |i| {
            if i == 3 {
                panic!("task {i} exploded");
            }
            if i == 7 {
                // Non-format panics carry a `&str` payload.
                panic!("static boom");
            }
            i * 2
        });
        std::panic::set_hook(prev);
        assert_eq!(out.len(), 10);
        for (i, r) in out.iter().enumerate() {
            match (i, r) {
                (3, TaskResult::Panicked(m)) => assert_eq!(m, "task 3 exploded"),
                (7, TaskResult::Panicked(m)) => assert_eq!(m, "static boom"),
                (_, TaskResult::Done(v)) => assert_eq!(*v, i * 2),
                (i, other) => panic!("task {i}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn a_hung_task_times_out_while_the_rest_of_the_grid_completes() {
        let out = run_supervised(6, 2, Some(Duration::from_millis(200)), |i| {
            if i == 1 {
                // A run that never returns: the supervisor must abandon it.
                std::thread::sleep(Duration::from_secs(120));
            }
            i * 3
        });
        assert_eq!(out.len(), 6);
        for (i, r) in out.iter().enumerate() {
            match (i, r) {
                (1, TaskResult::TimedOut) => {}
                (_, TaskResult::Done(v)) => assert_eq!(*v, i * 3),
                (i, other) => panic!("task {i}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn a_replacement_worker_rescues_the_grid_when_the_only_worker_hangs() {
        // jobs = 1 and the very first task hangs: without a replacement
        // worker the remaining tasks would never be claimed.
        let out = run_supervised(4, 1, Some(Duration::from_millis(150)), |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_secs(120));
            }
            i
        });
        assert!(matches!(out[0], TaskResult::TimedOut));
        for (i, r) in out.iter().enumerate().skip(1) {
            assert!(
                matches!(r, TaskResult::Done(v) if *v == i),
                "task {i}: unexpected {r:?}"
            );
        }
    }

    #[test]
    fn panics_and_timeouts_are_reported_as_distinct_kinds() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = run_supervised(5, 2, Some(Duration::from_millis(200)), |i| {
            match i {
                0 => panic!("kaboom {i}"),
                3 => std::thread::sleep(Duration::from_secs(120)),
                _ => {}
            }
            i
        });
        std::panic::set_hook(prev);
        match &out[0] {
            TaskResult::Panicked(m) => assert_eq!(m, "kaboom 0"),
            other => panic!("task 0: unexpected {other:?}"),
        }
        assert!(matches!(out[3], TaskResult::TimedOut));
        for i in [1usize, 2, 4] {
            assert!(
                matches!(out[i], TaskResult::Done(v) if v == i),
                "task {i}: unexpected {:?}",
                out[i]
            );
        }
    }

    #[test]
    fn a_task_finishing_as_the_watchdog_fires_is_recorded_once_as_success() {
        // With a zero timeout every task is "overdue" the instant it
        // starts, so every completion races the watchdog — the worst
        // case of the deadline race. Each run still finishes within the
        // grace window, so each must be recorded exactly once, as its
        // real result, never as TimedOut.
        let ran = Arc::new(AtomicUsize::new(0));
        let ran_in_task = Arc::clone(&ran);
        let out = run_supervised(32, 4, Some(Duration::ZERO), move |i| {
            ran_in_task.fetch_add(1, Ordering::Relaxed);
            i * 5
        });
        assert_eq!(out.len(), 32);
        for (i, r) in out.iter().enumerate() {
            assert!(
                matches!(r, TaskResult::Done(v) if *v == i * 5),
                "task {i}: finished run misrecorded as {r:?}"
            );
        }
        assert_eq!(
            ran.load(Ordering::Relaxed),
            32,
            "every task claimed exactly once despite replacement workers"
        );
    }

    #[test]
    fn all_tasks_run_exactly_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let in_task = Arc::clone(&counter);
        let n = 100;
        let out = run_supervised(n, 7, None, move |i| {
            in_task.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), n);
        assert_eq!(done(out), (0..n).collect::<Vec<_>>());
    }
}
