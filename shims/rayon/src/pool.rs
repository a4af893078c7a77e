//! The fork-join execution engine: worker pools, job submission, and panic
//! propagation.
//!
//! A pool is a set of persistent worker threads blocking on a shared job
//! queue. A *job* is a batch of `num_tasks` independent tasks described by a
//! single `Fn(usize)` body; workers (and the submitting caller) claim task
//! indices from an atomic cursor until the batch is exhausted. Because the
//! caller always participates in draining its own batch, submission can never
//! deadlock — even a pool whose only worker *is* the caller (nested
//! parallelism) makes progress.
//!
//! Lifetime discipline: the task body is lifetime-erased before being placed
//! on the queue, which is sound because the submitting call blocks until
//! every task of the batch has finished — the borrowed closure and its
//! captures outlive all uses. Workers never touch the erased pointer without
//! first winning a claim, and claims are impossible once the batch is done.
//!
//! Panics inside a task are caught on the executing thread, the first payload
//! is stashed in the job, and the submitting caller re-raises it with
//! [`std::panic::resume_unwind`] after the batch completes — the same
//! observable behavior as real rayon.
//!
//! Each pool starts one detached supervisor thread whose `std::thread::scope`
//! owns the workers, so dropping a [`ThreadPool`] joins every worker through
//! the supervisor.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A batch of `num_tasks` calls into a lifetime-erased task body.
struct Job {
    /// Erased `&dyn Fn(usize) + Sync` from the submitting stack frame. Valid
    /// until the batch completes; see the module docs for the argument.
    body: *const (dyn Fn(usize) + Sync),
    num_tasks: usize,
    /// Next unclaimed task index; claims beyond `num_tasks` are no-ops.
    cursor: AtomicUsize,
    /// Completed-task count plus the wait channel for the submitting caller.
    done: Mutex<usize>,
    done_cv: Condvar,
    /// First panic payload raised by any task of the batch.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

// SAFETY: `body` is only dereferenced by threads that won a task claim, and
// the submitting caller keeps the referent alive until all claims are spent.
unsafe impl Send for Job {}
// SAFETY: as for `Send` above; every other field is `Sync` itself.
unsafe impl Sync for Job {}

impl Job {
    /// Claim and run tasks until the batch is exhausted.
    fn work(&self) {
        loop {
            // ORDERING: Relaxed: the cursor only hands out distinct indices;
            // results are published through the `done` mutex, not the cursor.
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.num_tasks {
                return;
            }
            // SAFETY: claim `i` was won exactly once; the body is alive
            // because the submitter blocks until `done == num_tasks`.
            let body = unsafe { &*self.body };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(i))) {
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut done = self.done.lock().unwrap();
            *done += 1;
            if *done == self.num_tasks {
                self.done_cv.notify_all();
            }
        }
    }
}

/// Shared state of one pool: the job queue and its workers' rendezvous.
pub(crate) struct PoolState {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    num_threads: usize,
    /// Distinguishes pools so `install` can detect "already on this pool".
    id: usize,
}

thread_local! {
    /// The pool whose worker is running on this thread, if any. Parallel
    /// bridges route their work here, which is what makes
    /// `ThreadPool::install` clamp nested parallelism to the pool.
    static CURRENT_POOL: RefCell<Option<Arc<PoolState>>> = const { RefCell::new(None) };
}

fn next_pool_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(1);
    // ORDERING: Relaxed: the ids only need to be distinct.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl PoolState {
    pub(crate) fn num_threads(&self) -> usize {
        self.num_threads
    }

    fn new(num_threads: usize) -> Arc<PoolState> {
        Arc::new(PoolState {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            num_threads,
            id: next_pool_id(),
        })
    }

    /// Push `copies` handles to `job` so that many workers can join in.
    fn announce(&self, job: &Arc<Job>, copies: usize) {
        if copies == 0 {
            return;
        }
        let mut q = self.queue.lock().unwrap();
        for _ in 0..copies {
            q.push_back(job.clone());
        }
        drop(q);
        self.work_ready.notify_all();
    }

    fn wait_and_propagate(job: &Job) {
        let mut done = job.done.lock().unwrap();
        while *done < job.num_tasks {
            done = job.done_cv.wait(done).unwrap();
        }
        drop(done);
        if let Some(payload) = job.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
    }

    fn make_job(body: &(dyn Fn(usize) + Sync), num_tasks: usize) -> Arc<Job> {
        // SAFETY: lifetime erasure; see module docs — the submitter blocks
        // until the batch completes, so the erased borrow cannot dangle while
        // reachable from the queue in a claimable state.
        let body: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
        Arc::new(Job {
            body,
            num_tasks,
            cursor: AtomicUsize::new(0),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    /// Run `body(0..num_tasks)` across this pool's workers with the caller
    /// participating. Blocks until every task finished; re-raises the first
    /// task panic on the caller.
    pub(crate) fn run_tasks(self: &Arc<Self>, num_tasks: usize, body: &(dyn Fn(usize) + Sync)) {
        match num_tasks {
            0 => return,
            // A single task gains nothing from the queue; run it here (the
            // "here" is already a pool worker in the nested case).
            1 => {
                body(0);
                return;
            }
            _ => {}
        }
        let job = Self::make_job(body, num_tasks);
        // The caller takes one share of the work itself.
        self.announce(&job, self.num_threads.min(num_tasks - 1));
        job.work();
        Self::wait_and_propagate(&job);
    }

    /// Run `body(0)` on a pool worker thread — *not* on the caller — and
    /// block until it finished. Used by `install`, whose contract is that the
    /// closure executes inside the pool.
    fn run_on_worker(self: &Arc<Self>, body: &(dyn Fn(usize) + Sync)) {
        let job = Self::make_job(body, 1);
        self.announce(&job, 1);
        Self::wait_and_propagate(&job);
    }

    fn worker_loop(self: Arc<Self>) {
        CURRENT_POOL.with(|c| *c.borrow_mut() = Some(self.clone()));
        loop {
            let job = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    // ORDERING: SeqCst, and read under the queue lock that
                    // `Drop` stores under, so no wake-up falls between the
                    // check and the wait.
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    q = self.work_ready.wait(q).unwrap();
                }
            };
            job.work();
        }
    }

    /// Start the workers behind a detached supervisor whose scope owns them;
    /// joining the supervisor joins every worker.
    fn spawn_workers(self: &Arc<Self>) -> std::thread::JoinHandle<()> {
        let state = self.clone();
        std::thread::Builder::new()
            .name("rayon-shim-supervisor".into())
            .spawn(move || {
                std::thread::scope(|s| {
                    for _ in 0..state.num_threads {
                        let st = state.clone();
                        s.spawn(move || st.worker_loop());
                    }
                });
            })
            .expect("failed to spawn rayon shim supervisor")
    }
}

/// The pool parallel bridges should execute on from this thread: the pool
/// owning the current worker thread, else the lazily-started global pool.
pub(crate) fn current_pool() -> Arc<PoolState> {
    CURRENT_POOL.with(|c| c.borrow().clone()).unwrap_or_else(global_pool)
}

fn global_pool() -> Arc<PoolState> {
    static GLOBAL: OnceLock<Arc<PoolState>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let state = PoolState::new(default_global_threads());
            // The global pool lives for the process; its supervisor is
            // intentionally detached.
            let _ = state.spawn_workers();
            state
        })
        .clone()
}

/// Global-pool size: `RAYON_NUM_THREADS` if set to a positive integer (the
/// same env var real rayon honors; CI uses it to oversubscribe a 1-core
/// runner), else the machine's logical core count.
fn default_global_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Worker-thread count of the pool the current thread would execute on: the
/// enclosing dedicated pool inside `ThreadPool::install`, else the global
/// pool's size.
pub fn current_num_threads() -> usize {
    current_pool().num_threads
}

/// Run `a` and `b`, potentially in parallel (one of them on another worker of
/// the current pool), and return both results. A panic in either closure
/// resurfaces on the caller after both finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let a_slot: Mutex<Option<A>> = Mutex::new(Some(a));
    let b_slot: Mutex<Option<B>> = Mutex::new(Some(b));
    let ra: Mutex<Option<RA>> = Mutex::new(None);
    let rb: Mutex<Option<RB>> = Mutex::new(None);
    let body = |i: usize| {
        if i == 0 {
            let f = a_slot.lock().unwrap().take().expect("join task 0 claimed twice");
            *ra.lock().unwrap() = Some(f());
        } else {
            let f = b_slot.lock().unwrap().take().expect("join task 1 claimed twice");
            *rb.lock().unwrap() = Some(f());
        }
    };
    current_pool().run_tasks(2, &body);
    (
        ra.into_inner().unwrap().expect("join closure `a` produced no value"),
        rb.into_inner().unwrap().expect("join closure `b` produced no value"),
    )
}

/// A dedicated worker pool with exactly the requested thread count.
/// [`ThreadPool::install`] executes its closure *on a pool worker*, so
/// parallel iterators used inside are clamped to this pool's threads — the
/// property `Device::parallel_with_threads` strong-scaling studies rely on.
pub struct ThreadPool {
    state: Arc<PoolState>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Run `op` on one of this pool's worker threads and return its result.
    /// If the calling thread already belongs to this pool (nested `install`),
    /// `op` runs inline. Panics in `op` propagate to the caller.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        let on_this_pool =
            CURRENT_POOL.with(|c| c.borrow().as_ref().map(|p| p.id) == Some(self.state.id));
        if on_this_pool {
            return op();
        }
        let op_slot: Mutex<Option<OP>> = Mutex::new(Some(op));
        let ret: Mutex<Option<R>> = Mutex::new(None);
        let body = |_: usize| {
            let op = op_slot.lock().unwrap().take().expect("install task claimed twice");
            *ret.lock().unwrap() = Some(op());
        };
        self.state.run_on_worker(&body);
        ret.into_inner().unwrap().expect("install closure produced no value")
    }

    pub fn current_num_threads(&self) -> usize {
        self.state.num_threads
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("num_threads", &self.state.num_threads).finish()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Store and notify under the queue lock: a worker checks `shutdown`
        // under that lock and then waits, so without it the notify can fall
        // between the check and the wait and that worker sleeps forever. A
        // poisoned lock guards the same state, and `drop` must not panic.
        let queue = self.state.queue.lock().unwrap_or_else(|e| e.into_inner());
        // ORDERING: SeqCst, paired with the workers' load under the same lock.
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.work_ready.notify_all();
        drop(queue);
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder { num_threads: 0 }
    }

    /// `0` (the rayon default) means "use all cores".
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 { default_global_threads() } else { self.num_threads };
        let state = PoolState::new(n);
        let supervisor = Some(state.spawn_workers());
        Ok(ThreadPool { state, supervisor })
    }
}
