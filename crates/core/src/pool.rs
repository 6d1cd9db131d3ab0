//! The process-wide helper pool behind the `cpu-parallel` backend.
//!
//! One pool serves every [`crate::ParallelCpuBackend`] in the process.
//! It starts lazily, on the first parallel launch, with one helper
//! thread per available core beyond the caller's (capped at
//! `MAX_WORKERS − 1`), and its threads live as long as the process: a
//! launch wakes them instead of spawning and joining threads.
//!
//! [`broadcast`] is the only entry. The caller runs the job itself,
//! alongside up to `helpers` helpers, and returns once every helper that
//! took the job has returned. The job shares out its own work
//! (`cpu_parallel` claims pieces from an atomic counter), so a helper
//! that wakes late finds nothing left and returns at once.
//!
//! One job runs at a time. A [`broadcast`] that finds the pool busy —
//! another context's launch, or one nested inside a job — runs the job
//! on the caller alone. There is no queue to wait in, so no deadlock,
//! and since a job's result does not depend on how many participants
//! ran it, the bits are the same either way.

use crate::cpu_parallel::MAX_WORKERS;
use crate::error::{BrookError, Result};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A job every participant of a [`broadcast`] runs once.
pub(crate) type Job<'a> = dyn Fn() + Sync + 'a;

/// The job on offer to the helpers.
struct Slot {
    /// Bumped per published job, so a helper takes each job at most once.
    epoch: u64,
    /// The published job, lifetime-erased; `None` once its caller stops
    /// offering it.
    job: Option<&'static Job<'static>>,
    /// Helpers that may still take the published job.
    open: usize,
    /// Helpers running a job.
    running: usize,
}

struct Pool {
    /// Helper threads the pool started with.
    helpers: usize,
    /// Held by the one [`broadcast`] whose job is published.
    busy: AtomicBool,
    slot: Mutex<Slot>,
    /// Signals helpers that a job was published.
    published: Condvar,
    /// Signals the caller that a helper finished its job.
    finished: Condvar,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        // No code panics while holding the lock; recover anyway.
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper's life: take each published job with an open seat, run
    /// it, report back, wait for the next one.
    fn serve(&self) {
        let mut seen = 0;
        loop {
            let job = {
                let mut slot = self.lock();
                loop {
                    if slot.epoch != seen {
                        seen = slot.epoch;
                        if let Some(job) = slot.job.filter(|_| slot.open > 0) {
                            slot.open -= 1;
                            slot.running += 1;
                            break job;
                        }
                    }
                    slot = self.published.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
            };
            // `broadcast` wraps every job in `catch_unwind`.
            job();
            let mut slot = self.lock();
            slot.running -= 1;
            if slot.running == 0 {
                self.finished.notify_all();
            }
        }
    }

    /// Offers `job` to `helpers` helpers; the pool must be held (`busy`).
    /// The returned guard withdraws the offer and waits for every helper
    /// that took the job when it drops, so the job outlives all its runs.
    fn publish<'a>(&'a self, job: &'a Job<'a>, helpers: usize) -> Published<'a> {
        // SAFETY: helpers only reach `job` through the slot, and the
        // `Published` guard returned here borrows `job` for `'a`. Its drop
        // — on return and on unwind alike — clears the slot and waits
        // until no helper is running, so no call through the erased
        // reference outlives `'a`. The guard never leaves this module,
        // and `broadcast` drops it in scope, never `mem::forget`s it.
        let erased = unsafe { std::mem::transmute::<&'a Job<'a>, &'static Job<'static>>(job) };
        let mut slot = self.lock();
        slot.epoch += 1;
        slot.job = Some(erased);
        slot.open = helpers;
        drop(slot);
        self.published.notify_all();
        Published {
            pool: self,
            _job: PhantomData,
        }
    }
}

/// A published job; dropping it withdraws the job and releases the pool.
struct Published<'a> {
    pool: &'a Pool,
    _job: PhantomData<&'a Job<'a>>,
}

impl Drop for Published<'_> {
    fn drop(&mut self) {
        let mut slot = self.pool.lock();
        slot.job = None;
        slot.open = 0;
        while slot.running > 0 {
            slot = self
                .pool
                .finished
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(slot);
        self.pool.busy.store(false, Ordering::Release);
    }
}

/// The pool, started on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    let mut started = false;
    let pool = POOL.get_or_init(|| {
        started = true;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Pool {
            helpers: cores.min(MAX_WORKERS) - 1,
            busy: AtomicBool::new(false),
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
                open: 0,
                running: 0,
            }),
            published: Condvar::new(),
            finished: Condvar::new(),
        }
    });
    if started {
        // The helpers serve until the process exits and are never
        // joined; a job's panic is caught inside the job (`broadcast`),
        // so a helper never unwinds.
        for i in 0..pool.helpers {
            // A helper that cannot start leaves its seat empty; the
            // caller and the other helpers do its share.
            let _ = std::thread::Builder::new()
                .name(format!("brook-pool-{i}"))
                .spawn(move || pool.serve());
        }
    }
    pool
}

/// Helper threads in the pool (starting it on first use): a launch has
/// at most this many participants besides its caller.
pub(crate) fn helpers() -> usize {
    pool().helpers
}

/// Runs `job` on the calling thread and on up to `helpers` pool
/// helpers, returning once every participant has returned. When the
/// pool is busy the caller runs `job` alone.
///
/// # Errors
/// `BrookError::Usage` when `job` panicked on any participant; the
/// panic is caught and every helper thread survives it.
pub(crate) fn broadcast(helpers: usize, job: &Job<'_>) -> Result<()> {
    // Relaxed: a helper's store is ordered before the read below by the
    // slot mutex, which it takes to report back and `Published::drop`
    // takes to see it done.
    let panicked = AtomicBool::new(false);
    let run = || {
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            panicked.store(true, Ordering::Relaxed);
        }
    };
    let pool = pool();
    let helpers = helpers.min(pool.helpers);
    // Acquire pairs with the Release in `Published::drop`: the slot is
    // free once `busy` reads false.
    let acquired = helpers > 0
        && pool
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
    let published = acquired.then(|| pool.publish(&run, helpers));
    run();
    // Withdraws the job and waits for every helper that took it.
    drop(published);
    if panicked.into_inner() {
        return Err(BrookError::Usage("parallel CPU worker panicked".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Arg, BrookContext};
    use std::thread::{self, ThreadId};
    use std::time::{Duration, Instant};

    /// Runs one broadcast in which the caller waits (up to a second) for
    /// a helper to join, then runs `body(on_helper)` on both
    /// participants; returns the broadcast's result and the helper that
    /// joined. A helper joins only a published job, so `body` runs only
    /// while this broadcast holds the pool. The pool is shared with every
    /// other test in the process: when it is busy, the caller runs alone,
    /// skips `body`, and the attempt is simply repeated.
    fn with_joined_helper(body: &(dyn Fn(bool) + Sync)) -> (Result<()>, Option<ThreadId>) {
        let caller = thread::current().id();
        let joined = Mutex::new(None);
        let result = broadcast(1, &|| {
            let me = thread::current().id();
            if me != caller {
                *joined.lock().unwrap() = Some(me);
                body(true);
                return;
            }
            let deadline = Instant::now() + Duration::from_secs(1);
            while Instant::now() < deadline {
                if joined.lock().unwrap().is_some() {
                    body(false);
                    return;
                }
                thread::yield_now();
            }
        });
        (result, joined.into_inner().unwrap())
    }

    /// A helper's panic becomes the typed error, and the helper thread
    /// survives to run the next job.
    #[test]
    fn helper_panic_is_an_error_and_the_helper_survives() {
        if helpers() == 0 {
            return; // a one-core host has no helper to panic
        }
        let mut panicker = None;
        for _ in 0..100 {
            let (result, helper) = with_joined_helper(&|on_helper| assert!(!on_helper, "helper fault"));
            if helper.is_none() {
                result.expect("no participant panicked");
                continue;
            }
            let err = result.expect_err("a helper panic must surface");
            assert!(
                matches!(&err, BrookError::Usage(m) if m == "parallel CPU worker panicked"),
                "unexpected error: {err}"
            );
            panicker = helper;
            break;
        }
        let panicker = panicker.expect("a helper joined within 100 attempts");
        let rejoined = (0..100).any(|_| {
            let (result, helper) = with_joined_helper(&|_| {});
            result.expect("a clean job succeeds");
            helper == Some(panicker)
        });
        assert!(rejoined, "the helper that panicked never ran another job");
    }

    /// A broadcast from inside a job finds the pool busy and runs on its
    /// own caller only, on the caller and on a helper alike, without
    /// deadlocking.
    #[test]
    fn nested_broadcast_runs_inline() {
        let inline = |_on_helper: bool| {
            let me = thread::current().id();
            let ran_on = Mutex::new(Vec::new());
            broadcast(MAX_WORKERS, &|| {
                ran_on.lock().unwrap().push(thread::current().id())
            })
            .expect("nested broadcast");
            assert_eq!(
                ran_on.into_inner().unwrap(),
                [me],
                "a nested broadcast left its caller"
            );
        };
        if helpers() == 0 {
            return; // a one-core host always runs inline
        }
        let joined = (0..100).any(|_| {
            let (result, helper) = with_joined_helper(&inline);
            result.expect("no participant panicked");
            helper.is_some()
        });
        assert!(joined, "no helper joined within 100 attempts");
    }

    /// Two threads, each with its own `cpu_parallel()` context, contend
    /// for the pool 200 times each; every output matches `cpu()` bit for
    /// bit, whoever won the pool.
    #[test]
    fn concurrent_contexts_match_serial_bitwise() {
        let src = "kernel void f(float a<>, out float o<>) {
            float s = a;
            int i;
            for (i = 0; i < 8; i++) { if (s > 1.0) { s = sqrt(s) + 0.5; } else { s = s * 3.0 - 0.25; } }
            o = s;
        }";
        let n = 4096;
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.61) % 29.0 - 3.0).collect();
        let run = |mut ctx: BrookContext, times: usize| -> Vec<Vec<u32>> {
            let module = ctx.compile(src).expect("compile");
            let a = ctx.stream(&[n]).expect("a");
            let o = ctx.stream(&[n]).expect("o");
            ctx.write(&a, &data).expect("write");
            (0..times)
                .map(|_| {
                    ctx.run(&module, "f", &[Arg::Stream(&a), Arg::Stream(&o)])
                        .expect("run");
                    ctx.read(&o).expect("read").iter().map(|x| x.to_bits()).collect()
                })
                .collect()
        };
        let reference = run(BrookContext::cpu(), 1).remove(0);
        let outputs: Vec<Vec<Vec<u32>>> = thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| s.spawn(|| run(BrookContext::cpu_parallel(), 200)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("thread")).collect()
        });
        for (t, outs) in outputs.iter().enumerate() {
            assert_eq!(outs.len(), 200);
            for (i, out) in outs.iter().enumerate() {
                assert!(out == &reference, "thread {t} launch {i} diverged from cpu()");
            }
        }
    }
}
