//! The fleet's persistent worker pool.
//!
//! One pool per fleet: started by `DetectorFleet::open`, joined when the
//! fleet drops. [`ShardPool::for_each_mut`] publishes one batch — a slice
//! of items and the closure to apply to each — and then the calling thread
//! and every worker claim item indices from one atomic counter. The caller
//! is a claimer too, so a batch never waits on a worker that has not
//! started a task: a worker that wakes late finds nothing left to claim.
//!
//! Between batches a worker stays awake for at most [`SPIN`] and then
//! parks: rounds that come less than that apart — a serving engine under
//! load — find it awake, and an idle server costs no CPU. A caller waiting
//! for the last worker of a batch stays awake and parks the same way. A pool with
//! no workers — one shard, or one CPU — runs every batch inline on the
//! caller, exactly like a plain loop.
//!
//! Publishing a batch spawns nothing and allocates nothing: the batch
//! lives on the caller's stack and workers reach it through its address,
//! which stays valid because `for_each_mut` neither returns nor unwinds
//! before every worker that joined the batch has left it. A task that
//! panics is caught where it ran, the batch finishes, and the first panic
//! is re-raised on the caller.

use std::any::Any;
use std::hint;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How long a thread waiting on the pool stays awake before it parks.
/// Waking a parked thread costs a futex call on the waker and, on a
/// virtual machine whose idle vCPU has halted, can take far longer than a
/// round before the thread runs; a wait that outlasts the gap between
/// loaded serving rounds keeps both sides off that path.
const SPIN: Duration = Duration::from_millis(2);

/// Busy-wait iterations before an idle worker starts yielding its CPU.
const PURE_SPINS: u32 = 64;

/// The caller's side of one batch: where the items are, and the closure
/// applied to each.
struct Job<'a, T, F> {
    items: *mut T,
    f: &'a F,
}

/// Runs task `i` of the [`Job<T, F>`] at address `job`.
///
/// # Safety
/// `job` is the address of a `Job<T, F>` that outlives this call, `i` is
/// below its item count, and no other reference to item `i` exists while
/// this runs. `T: Send` lets the item move to the claiming thread; `F:
/// Sync` lets threads share the closure.
unsafe fn run_task<T: Send, F: Fn(&mut T) + Sync>(job: usize, i: usize) {
    let job = &*(job as *const Job<T, F>);
    (job.f)(&mut *job.items.add(i));
}

/// A published batch: the address of its [`Job`], the trampoline that
/// runs one task of it, its task count, and the thread to wake when the
/// last worker leaves it.
#[derive(Clone)]
struct Batch {
    job: usize,
    run: unsafe fn(usize, usize),
    tasks: usize,
    caller: Thread,
}

struct Shared {
    /// Bumped once per published batch; idle workers watch it.
    epoch: AtomicUsize,
    /// The batch open for joining, `None` between batches. Workers join
    /// under this lock, so once the caller has closed it no worker enters.
    open: Mutex<Option<Batch>>,
    /// Next unclaimed task index of the current batch.
    next: AtomicUsize,
    /// Workers inside the current batch.
    busy: AtomicUsize,
    /// Workers that have started running.
    started: AtomicUsize,
    /// The first panic a task of the current batch raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    shutdown: AtomicBool,
}

/// Locks a mutex that no task ever holds, so it cannot be poisoned by one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits until `done` holds: awake for at most [`SPIN`], then parked
/// between checks. Every thread that makes `done` true unparks the waiter
/// afterwards.
///
/// An idle worker (`yield_cpu`) spins briefly and then yields its CPU
/// while it waits, so another thread the scheduler put on that CPU runs
/// at once. The caller of a batch only spins: it holds the round, and a
/// yield could hand its CPU to another thread for a whole time slice.
fn wait_until(yield_cpu: bool, done: impl Fn() -> bool) {
    let started = Instant::now();
    let mut spins = 0;
    while !done() {
        if spins < PURE_SPINS || (!yield_cpu && started.elapsed() < SPIN) {
            spins += 1;
            hint::spin_loop();
        } else if started.elapsed() < SPIN {
            thread::yield_now();
        } else {
            thread::park();
        }
    }
}

impl Shared {
    /// Claims and runs tasks of `batch` until none is left. A panicking
    /// task is caught here, so a claimer never unwinds mid-batch.
    fn claim(&self, batch: &Batch) {
        loop {
            // The counter only hands out indices; the items themselves are
            // published by the `open` lock and returned by `busy`.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= batch.tasks {
                return;
            }
            // SAFETY: `batch` was published by a `for_each_mut` call whose
            // `Job` lives on its stack, and that call neither returns nor
            // unwinds until every thread that joined the batch has left it
            // (it closes `open`, then waits for `busy` to reach 0), so the
            // job, its closure and its items outlive this call. `i` is below
            // `tasks`, the item count, and the counter hands each index to
            // one thread only, so this is the only reference to item `i`.
            let task = || unsafe { (batch.run)(batch.job, i) };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(task)) {
                lock(&self.panic).get_or_insert(payload);
            }
        }
    }

    /// A worker's life: report that it runs, then wait for a batch, join
    /// it if it is still open, claim tasks, leave; until the pool shuts
    /// down.
    fn work(&self, creator: Thread) {
        self.started.fetch_add(1, Ordering::Release);
        creator.unpark();
        drop(creator);
        let mut seen = 0;
        loop {
            wait_until(true, || {
                self.shutdown.load(Ordering::SeqCst) || self.epoch.load(Ordering::SeqCst) != seen
            });
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            seen = self.epoch.load(Ordering::SeqCst);
            let batch = {
                let open = lock(&self.open);
                let Some(batch) = open.clone() else { continue };
                // Ordered by the `open` lock, which the caller takes to close
                // the batch before it reads `busy`.
                self.busy.fetch_add(1, Ordering::Relaxed);
                batch
            };
            self.claim(&batch);
            // Release pairs with the caller's Acquire load of `busy`: the
            // worker's writes to its items happen before the caller returns.
            if self.busy.fetch_sub(1, Ordering::Release) == 1 {
                batch.caller.unpark();
            }
        }
    }
}

/// A fixed set of worker threads that run batches with the caller.
pub(crate) struct ShardPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ShardPool {
    /// Starts `workers` worker threads and returns once each is running,
    /// so a thread's start-up (which allocates) never lands in a batch. A
    /// worker the host refuses to start is left out; the pool runs with the
    /// ones it has.
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            epoch: AtomicUsize::new(0),
            open: Mutex::new(None),
            next: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
            started: AtomicUsize::new(0),
            panic: Mutex::new(None),
            shutdown: AtomicBool::new(false),
        });
        let workers: Vec<JoinHandle<()>> = (0..workers)
            .map_while(|i| {
                let shared = Arc::clone(&shared);
                let creator = thread::current();
                thread::Builder::new()
                    .name(format!("sad-fleet-{}", i + 1))
                    .spawn(move || shared.work(creator))
                    .ok()
            })
            .collect();
        wait_until(true, || shared.started.load(Ordering::Acquire) == workers.len());
        Self { shared, workers }
    }

    /// Worker threads (the caller is not counted).
    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Applies `f` to every item, on the caller and the workers together,
    /// and returns once every item is done. Re-raises the first panic of
    /// any task on the caller, after the whole batch has finished.
    pub(crate) fn for_each_mut<T: Send, F: Fn(&mut T) + Sync>(&self, items: &mut [T], f: F) {
        if self.workers.is_empty() || items.len() < 2 {
            items.iter_mut().for_each(f);
            return;
        }
        let s = &*self.shared;
        let job = Job { items: items.as_mut_ptr(), f: &f };
        let batch = Batch {
            job: &job as *const Job<T, F> as usize,
            run: run_task::<T, F>,
            tasks: items.len(),
            caller: thread::current(),
        };
        // No worker is inside a batch here: the previous call waited for
        // all of them to leave.
        s.next.store(0, Ordering::Relaxed);
        *lock(&s.open) = Some(batch.clone());
        s.epoch.fetch_add(1, Ordering::SeqCst);
        // Unparking a thread that is not parked is one atomic swap.
        for worker in &self.workers {
            worker.thread().unpark();
        }
        s.claim(&batch);
        // Every task is claimed. Close the batch, then wait for the workers
        // still running theirs.
        *lock(&s.open) = None;
        wait_until(false, || s.busy.load(Ordering::Acquire) == 0);
        if let Some(payload) = lock(&s.panic).take() {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for worker in &self.workers {
            worker.thread().unpark();
        }
        for worker in self.workers.drain(..) {
            // Tasks never unwind out of a worker, so a join cannot fail.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_item_runs_exactly_once_at_any_worker_count() {
        for workers in 0..4 {
            let pool = ShardPool::new(workers);
            for n in [0, 1, 2, 3, 17] {
                let mut items = vec![0u32; n];
                for round in 1..=50 {
                    pool.for_each_mut(&mut items, |x| *x += 1);
                    assert!(items.iter().all(|&x| x == round), "{workers} workers, {n} items");
                }
            }
        }
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_after_the_batch() {
        let pool = ShardPool::new(2);
        let mut items: Vec<usize> = (0..8).collect();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_mut(&mut items, |x| {
                if *x == 5 {
                    panic!("task 5");
                }
                *x += 100;
            });
        }));
        let payload = caught.expect_err("the task panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 5"));
        assert_eq!(items.iter().filter(|&&x| x >= 100).count(), 7, "the batch finished");
        // The pool stays usable, and dropping it joins its workers.
        pool.for_each_mut(&mut items, |x| *x = 0);
        assert!(items.iter().all(|&x| x == 0));
    }
}
