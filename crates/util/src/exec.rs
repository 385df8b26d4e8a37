//! Order-preserving scoped fan-out over a fixed job slice.
//!
//! Jobs are claimed from an atomic cursor by up to `threads` workers on a
//! [`std::thread::scope`]; results land in their job's slot, so the output
//! order equals the input order regardless of scheduling. With one worker
//! (or one job) everything runs inline on the caller's thread — no pool,
//! no synchronization — which is what makes `threads = 1` byte-identical
//! to a plain serial loop.
//!
//! Two-stage runs (synthesize, then verify) have exactly one worker loop,
//! [`run_two_stage_pull`]; the fixed-slice [`run_two_stage`] is a thin
//! adapter over it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Available hardware parallelism, with a serial fallback.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a user-facing thread knob: `0` means "use every core"; an
/// explicit count is honored as-is — oversubscribing the hardware is
/// allowed, both so callers can pin worker counts for reproducible load
/// shapes and so the concurrent code path stays exercised (and provably
/// deterministic) even on single-core machines.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Runs `f` over `jobs` on up to `threads` workers, preserving order.
///
/// Errors are reported per-slot: the first `Err` (in job order, not
/// completion order) is returned, matching what a serial loop would
/// surface. Workers that panic propagate the panic to the caller.
pub fn run_parallel<J: Sync, R: Send, E: Send>(
    threads: usize,
    jobs: &[J],
    f: impl Fn(&J) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    run_parallel_with(threads, jobs, || (), |(), job| f(job))
}

/// Like [`run_parallel`], but hands every worker a private scratch state
/// built by `init` — the hook that lets hot loops reuse allocations
/// (routing-grid labels, heaps, sink buffers) across the jobs a worker
/// processes instead of reallocating per job.
pub fn run_parallel_with<J: Sync, R: Send, E: Send, S>(
    threads: usize,
    jobs: &[J],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &J) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    // Deliberately not clamped to the hardware: honoring an explicit
    // oversubscribed request keeps the concurrent code path exercised (and
    // results identical) even on single-core machines. The cap only guards
    // against absurd requests exhausting OS thread limits.
    const MAX_WORKERS: usize = 1024;
    let workers = threads.max(1).min(jobs.len().max(1)).min(MAX_WORKERS);
    if workers <= 1 {
        let mut scratch = init();
        return jobs.iter().map(|j| f(&mut scratch, j)).collect();
    }

    // Jobs are claimed in chunks to amortize the claim atomic and the
    // store lock when jobs are tiny (per-root candidate timing issues
    // thousands of near-trivial jobs); chunks stay small enough that
    // expensive jobs (pair merges) still load-balance.
    let chunk = (jobs.len() / (workers * 8)).max(1);
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let results: Mutex<Vec<Option<Result<R, E>>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut scratch = init();
                let mut batch: Vec<(usize, Result<R, E>)> = Vec::with_capacity(chunk);
                // Stop claiming once any job has failed — like the serial
                // loop, which short-circuits at the first error. Chunks are
                // claimed in index order and every claimed chunk is fully
                // processed, so unfilled slots form a suffix behind the
                // error and the reported (first-in-order) error stays
                // deterministic.
                while !failed.load(Ordering::Relaxed) {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= jobs.len() {
                        break;
                    }
                    let end = (start + chunk).min(jobs.len());
                    for (i, job) in jobs.iter().enumerate().take(end).skip(start) {
                        let r = f(&mut scratch, job);
                        let bail = r.is_err();
                        batch.push((i, r));
                        if bail {
                            // Abandon the rest of this chunk too; the
                            // unfilled slots sit behind this error, so the
                            // first-in-order error is unaffected.
                            failed.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    let mut store = results.lock().expect("result store poisoned");
                    for (i, r) in batch.drain(..) {
                        store[i] = Some(r);
                    }
                }
            });
        }
    });
    let slots = results.into_inner().expect("result store poisoned");
    let mut out = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot {
            Some(Ok(r)) => out.push(r),
            // First error in job order wins, matching serial behavior.
            Some(Err(e)) => return Err(e),
            None => unreachable!("unfilled slot without a preceding error"),
        }
    }
    Ok(out)
}

/// Two-stage producer/consumer fan-out: every job runs stage 1 (`f1`,
/// e.g. synthesis) and then stage 2 (`f2`, e.g. SPICE verification) on its
/// stage-1 output, with stage-2 work of finished jobs overlapping stage-1
/// work of later jobs on the same worker set.
///
/// Guarantees, matching [`run_parallel_with`]:
///
/// * **Order-preserving** — `out[i]` is `f2(f1(jobs[i]))`, independent of
///   scheduling; with one worker (or one job) both stages run fused and
///   inline on the caller's thread.
/// * **First-error short-circuit** — the returned `Err` is the one a fused
///   serial loop would surface: the failing job with the smallest index
///   among jobs whose predecessors all succeed. On a failure, later jobs
///   are skipped at their next stage boundary, but *earlier* jobs still
///   complete both stages (one of them may hold an even earlier error).
/// * **Per-worker scratch** — each worker owns one `S1` and one `S2` for
///   every job it processes in that stage.
///
/// This is a fixed-slice adapter over [`run_two_stage_pull`], so batch
/// runs and the long-running service share one worker loop: the source is
/// an atomic cursor over `jobs`, the cancel hook skips every job behind
/// the smallest failed index, and results land in per-job slots.
pub fn run_two_stage<J: Sync, M: Send, R: Send, E: Send, S1, S2>(
    threads: usize,
    jobs: &[J],
    init1: impl Fn() -> S1 + Sync,
    f1: impl Fn(&mut S1, &J) -> Result<M, E> + Sync,
    init2: impl Fn() -> S2 + Sync,
    f2: impl Fn(&mut S2, M, &J) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    let next = AtomicUsize::new(0);
    // Smallest job index that has errored so far (`usize::MAX` = none).
    // Jobs behind it are skipped; jobs *before* it still run both stages,
    // because one of them may surface an even earlier error — the one the
    // serial loop would have reported.
    let min_error = AtomicUsize::new(usize::MAX);
    let slots: Mutex<Vec<Option<Result<R, E>>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    let fill = |i: usize, r: Result<R, E>| {
        if r.is_err() {
            min_error.fetch_min(i, Ordering::Relaxed);
        }
        slots.lock().expect("two-stage slots poisoned")[i] = Some(r);
    };
    run_two_stage_pull(
        threads.min(jobs.len()),
        || {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i < jobs.len() {
                Pull::Job(i)
            } else {
                Pull::Closed
            }
        },
        |&i| i > min_error.load(Ordering::Relaxed),
        |_| {},
        init1,
        |s1, &i| match f1(s1, &jobs[i]) {
            Ok(m) => Some(m),
            Err(e) => {
                fill(i, Err(e));
                None
            }
        },
        init2,
        |s2, i, m| fill(i, f2(s2, m, &jobs[i])),
    );

    let slots = slots.into_inner().expect("two-stage slots poisoned");
    let mut out = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot {
            Some(Ok(r)) => out.push(r),
            // Every job before the smallest failed index completed both
            // stages, so the first filled error in index order is the
            // serial loop's error.
            Some(Err(e)) => return Err(e),
            None => unreachable!("unfilled slot without a preceding error"),
        }
    }
    Ok(out)
}

/// What a [`run_two_stage_pull`] source hands a worker that asks for work.
///
/// The source owns job *ordering*: whatever it yields next is what runs
/// next, so a priority queue behind the source gives per-job priorities
/// without the executor knowing about them.
#[derive(Debug)]
pub enum Pull<J> {
    /// A job to run through both stages.
    Job(J),
    /// Nothing to hand out right now, but more may arrive. The source
    /// should park the calling worker briefly (e.g. a condition-variable
    /// wait with a short timeout) before returning this, so idle workers
    /// neither spin nor miss stage-2 work queued in the meantime.
    Pending,
    /// The source is closed and drained: no job will ever arrive again.
    /// Must be sticky — once returned, every later call must return it too.
    Closed,
}

/// The two-stage worker loop: jobs are *pulled* from a live source (a
/// request queue) and every job carries its own result delivery, so the
/// run keeps going until the source closes — the execution core of the
/// long-running service, and (through the fixed-slice adapter
/// [`run_two_stage`]) of batch runs.
///
/// Properties:
///
/// * **Source-defined order** — jobs run in the order the source yields
///   them. Priorities live behind [`Pull`]: yield the highest-priority job
///   first and the executor dispatches it first.
/// * **Cooperative cancellation** — `cancelled` is checked at each stage
///   boundary: before stage 1 starts and again before stage 2 starts
///   (covering jobs whose cancellation landed while stage 1 ran). A job
///   observed cancelled is handed to `on_cancelled` instead of running
///   further stages; a job is always finished by exactly one of
///   `on_cancelled`, a `None` out of `stage1`, or `stage2`.
/// * **Per-job results** — there is no aggregate `Vec` and no first-error
///   short-circuit; one job's failure must not stop a service. The stage
///   closures deliver each job's outcome themselves (`stage1` returns
///   `None` after delivering an error; `stage2` delivers the final result).
///
/// Scheduling: workers prefer draining pending stage-2 work (oldest claim
/// first, which bounds how many stage-1 outputs are alive at once) over
/// pulling new jobs; each worker owns one `S1` and one `S2` across every
/// job it touches; with `threads <= 1` everything runs inline on the
/// caller's thread, giving the fused serial reference behavior.
///
/// Returns when the source reports [`Pull::Closed`] and all pulled jobs
/// have finished both stages.
#[allow(clippy::too_many_arguments)] // one closure per stage hook
pub fn run_two_stage_pull<J: Send, M: Send, S1, S2>(
    threads: usize,
    source: impl Fn() -> Pull<J> + Sync,
    cancelled: impl Fn(&J) -> bool + Sync,
    on_cancelled: impl Fn(J) + Sync,
    init1: impl Fn() -> S1 + Sync,
    stage1: impl Fn(&mut S1, &J) -> Option<M> + Sync,
    init2: impl Fn() -> S2 + Sync,
    stage2: impl Fn(&mut S2, J, M) + Sync,
) {
    const MAX_WORKERS: usize = 1024;
    let workers = threads.clamp(1, MAX_WORKERS);

    struct Shared<J, M> {
        /// Stage-1 outputs awaiting stage 2, as (claim ordinal, job, out).
        ready: Vec<(u64, J, M)>,
        /// Workers currently inside stage 1.
        producing: usize,
        /// Claim ordinals, so stage 2 drains oldest-first.
        next_claim: u64,
        /// The source reported [`Pull::Closed`].
        closed: bool,
    }
    let shared = Mutex::new(Shared {
        ready: Vec::new(),
        producing: 0,
        next_claim: 0,
        closed: false,
    });
    let wake = Condvar::new();

    let worker = || {
        let mut s1 = init1();
        let mut s2 = init2();
        loop {
            // Prefer the oldest finished job's stage 2; this is what keeps
            // the number of live stage-1 outputs bounded near the worker
            // count when stage 2 is the slower stage.
            let mut st = shared.lock().expect("two-stage pull state poisoned");
            let oldest = st
                .ready
                .iter()
                .enumerate()
                .min_by_key(|(_, &(claim, _, _))| claim)
                .map(|(pos, _)| pos);
            if let Some(pos) = oldest {
                let (_, job, m) = st.ready.swap_remove(pos);
                drop(st);
                if cancelled(&job) {
                    on_cancelled(job);
                } else {
                    stage2(&mut s2, job, m);
                }
                continue;
            }
            if st.closed && st.producing == 0 {
                // Closed, nothing in flight, nothing ready: done.
                break;
            }
            drop(st);
            match source() {
                Pull::Job(job) => {
                    if cancelled(&job) {
                        on_cancelled(job);
                        continue;
                    }
                    let claim = {
                        let mut st = shared.lock().expect("two-stage pull state poisoned");
                        st.producing += 1;
                        let claim = st.next_claim;
                        st.next_claim += 1;
                        claim
                    };
                    let out = stage1(&mut s1, &job);
                    let mut st = shared.lock().expect("two-stage pull state poisoned");
                    st.producing -= 1;
                    if let Some(m) = out {
                        st.ready.push((claim, job, m));
                    }
                    drop(st);
                    wake.notify_all();
                }
                Pull::Pending => {
                    // A well-behaved source parked us already; the extra
                    // bounded wait here guards against sources that return
                    // immediately, so an idle worker never busy-spins.
                    let st = shared.lock().expect("two-stage pull state poisoned");
                    if st.ready.is_empty() {
                        let _ = wake
                            .wait_timeout(st, Duration::from_millis(5))
                            .expect("two-stage pull state poisoned");
                    }
                }
                Pull::Closed => {
                    let mut st = shared.lock().expect("two-stage pull state poisoned");
                    st.closed = true;
                    if st.producing > 0 && st.ready.is_empty() {
                        // Other workers are still producing; wait for their
                        // stage-1 outputs instead of hammering the source.
                        let _ = wake
                            .wait_timeout(st, Duration::from_millis(20))
                            .expect("two-stage pull state poisoned");
                    }
                    wake.notify_all();
                }
            }
        }
        wake.notify_all();
    };

    if workers <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let jobs: Vec<usize> = (0..100).collect();
        let out: Vec<usize> = run_parallel(4, &jobs, |&j| Ok::<_, ()>(j * 3)).unwrap();
        assert_eq!(out, jobs.iter().map(|j| j * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_matches_parallel_path() {
        let jobs: Vec<usize> = (0..37).collect();
        let a = run_parallel(1, &jobs, |&j| Ok::<_, ()>(j * j)).unwrap();
        let b = run_parallel(8, &jobs, |&j| Ok::<_, ()>(j * j)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn first_error_in_job_order_wins() {
        let jobs: Vec<usize> = (0..64).collect();
        let err = run_parallel(
            4,
            &jobs,
            |&j| {
                if j == 10 || j == 50 {
                    Err(j)
                } else {
                    Ok(j)
                }
            },
        );
        assert_eq!(err, Err(10));
    }

    #[test]
    fn error_short_circuits_remaining_jobs() {
        let jobs: Vec<usize> = (0..10_000).collect();
        let executed = AtomicUsize::new(0);
        let err = run_parallel(4, &jobs, |&j| {
            executed.fetch_add(1, Ordering::Relaxed);
            if j == 5 {
                Err(j)
            } else {
                std::thread::sleep(std::time::Duration::from_micros(50));
                Ok(j)
            }
        });
        assert_eq!(err, Err(5));
        // Workers stop claiming after the failure: the vast majority of
        // jobs never run (bound is loose to tolerate in-flight chunks).
        assert!(
            executed.load(Ordering::Relaxed) < jobs.len() / 2,
            "ran {} of {} jobs after an early error",
            executed.load(Ordering::Relaxed),
            jobs.len()
        );
    }

    #[test]
    fn worker_scratch_is_reused() {
        let jobs: Vec<usize> = (0..40).collect();
        let out = run_parallel_with(3, &jobs, Vec::<usize>::new, |scratch, &j| {
            scratch.push(j);
            Ok::<_, ()>(scratch.len())
        })
        .unwrap();
        // Each worker's scratch grows monotonically; every result is >= 1.
        assert!(out.iter().all(|&n| n >= 1));
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn zero_requested_threads_resolves_to_hardware() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        // Explicit requests pass through un-clamped, even beyond the core
        // count — the determinism tests rely on genuinely spawning workers.
        assert_eq!(resolve_threads(4096), 4096);
    }

    #[test]
    fn empty_jobs() {
        let out: Vec<u32> = run_parallel(4, &[] as &[u32], |&j| Ok::<_, ()>(j)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn two_stage_preserves_order() {
        let jobs: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 4, 8] {
            let out = run_two_stage(
                threads,
                &jobs,
                || (),
                |(), &j| Ok::<_, ()>(j * 2),
                || (),
                |(), m, &j| Ok::<_, ()>(m + j),
            )
            .unwrap();
            assert_eq!(out, jobs.iter().map(|j| j * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn two_stage_overlaps_stages() {
        // With several workers, some stage-2 call must start before the
        // last stage-1 call finishes — that is the whole point. Track the
        // maximum number of stage-1 jobs still pending when any stage-2
        // job runs.
        let jobs: Vec<usize> = (0..32).collect();
        let produced = AtomicUsize::new(0);
        let overlap_seen = AtomicBool::new(false);
        run_two_stage(
            4,
            &jobs,
            || (),
            |(), &j| {
                std::thread::sleep(Duration::from_micros(200));
                produced.fetch_add(1, Ordering::Relaxed);
                Ok::<_, ()>(j)
            },
            || (),
            |(), m, _| {
                if produced.load(Ordering::Relaxed) < jobs.len() {
                    overlap_seen.store(true, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_micros(200));
                Ok::<_, ()>(m)
            },
        )
        .unwrap();
        assert!(
            overlap_seen.load(Ordering::Relaxed),
            "no stage-2 job ran while stage-1 work remained"
        );
    }

    #[test]
    fn two_stage_first_error_in_job_order_wins() {
        let jobs: Vec<usize> = (0..64).collect();
        // Job 20 fails in stage 1, job 10 fails in stage 2: the fused
        // serial loop would surface job 10's error first.
        let err = run_two_stage(
            4,
            &jobs,
            || (),
            |(), &j| if j == 20 { Err(1000 + j) } else { Ok(j) },
            || (),
            |(), m, _| if m == 10 { Err(2000 + m) } else { Ok(m) },
        );
        assert_eq!(err, Err(2010));
    }

    #[test]
    fn two_stage_error_short_circuits_later_jobs() {
        let jobs: Vec<usize> = (0..10_000).collect();
        let executed = AtomicUsize::new(0);
        let err = run_two_stage(
            4,
            &jobs,
            || (),
            |(), &j| {
                executed.fetch_add(1, Ordering::Relaxed);
                if j == 3 {
                    Err(j)
                } else {
                    std::thread::sleep(Duration::from_micros(50));
                    Ok(j)
                }
            },
            || (),
            |(), m, _| Ok::<_, usize>(m),
        );
        assert_eq!(err, Err(3));
        assert!(
            executed.load(Ordering::Relaxed) < jobs.len() / 2,
            "ran {} of {} stage-1 jobs after an early error",
            executed.load(Ordering::Relaxed),
            jobs.len()
        );
    }

    #[test]
    fn two_stage_scratch_is_reused_per_stage() {
        let jobs: Vec<usize> = (0..40).collect();
        let out = run_two_stage(
            3,
            &jobs,
            Vec::<usize>::new,
            |scratch, &j| {
                scratch.push(j);
                Ok::<_, ()>(scratch.len())
            },
            || 0usize,
            |count, m, _| {
                *count += 1;
                Ok::<_, ()>((m, *count))
            },
        )
        .unwrap();
        assert_eq!(out.len(), 40);
        // Both scratches grow monotonically per worker.
        assert!(out.iter().all(|&(a, b)| a >= 1 && b >= 1));
    }

    #[test]
    fn two_stage_serial_matches_parallel() {
        let jobs: Vec<usize> = (0..53).collect();
        let run = |threads| {
            run_two_stage(
                threads,
                &jobs,
                || (),
                |(), &j| Ok::<_, ()>(j * j),
                || (),
                |(), m, &j| Ok::<_, ()>(m - j),
            )
            .unwrap()
        };
        assert_eq!(run(1), run(7));
    }

    /// A minimal well-behaved pull source over a fixed job list: yields
    /// jobs in list order, then `Closed` forever.
    fn list_source(jobs: Vec<usize>) -> impl Fn() -> Pull<usize> + Sync {
        let cursor = AtomicUsize::new(0);
        move || {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            match jobs.get(i) {
                Some(&j) => Pull::Job(j),
                None => Pull::Closed,
            }
        }
    }

    #[test]
    fn pull_runs_every_job_through_both_stages() {
        for threads in [1, 4] {
            let done = Mutex::new(Vec::new());
            run_two_stage_pull(
                threads,
                list_source((0..50).collect()),
                |_| false,
                |_| panic!("nothing is cancelled"),
                || (),
                |(), &j| Some(j * 2),
                || (),
                |(), j, m| done.lock().unwrap().push((j, m)),
            );
            let mut done = done.into_inner().unwrap();
            done.sort_unstable();
            let expect: Vec<_> = (0..50).map(|j| (j, j * 2)).collect();
            assert_eq!(done, expect, "threads={threads}");
        }
    }

    #[test]
    fn pull_single_worker_honors_source_order() {
        // The source owns ordering: with one worker, dispatch order is
        // exactly the yield order — this is the hook a priority queue
        // plugs into.
        let by_priority = vec![9, 2, 7, 0, 4];
        let order = Mutex::new(Vec::new());
        run_two_stage_pull(
            1,
            list_source(by_priority.clone()),
            |_| false,
            |_| {},
            || (),
            |(), &j| {
                order.lock().unwrap().push(j);
                Some(j)
            },
            || (),
            |(), _, _| {},
        );
        assert_eq!(order.into_inner().unwrap(), by_priority);
    }

    #[test]
    fn pull_cancelled_before_stage1_never_synthesizes() {
        // "Queued" cancellation: the flag is set before the job is pulled,
        // so stage 1 must never run for it.
        let flags: Vec<AtomicBool> = (0..20).map(|j| AtomicBool::new(j % 3 == 0)).collect();
        let ran = Mutex::new(Vec::new());
        let cancelled_jobs = Mutex::new(Vec::new());
        for threads in [1, 3] {
            run_two_stage_pull(
                threads,
                list_source((0..20).collect()),
                |&j: &usize| flags[j].load(Ordering::Relaxed),
                |j| cancelled_jobs.lock().unwrap().push(j),
                || (),
                |(), &j| {
                    ran.lock().unwrap().push(j);
                    Some(j)
                },
                || (),
                |(), _, _| {},
            );
        }
        assert!(ran.lock().unwrap().iter().all(|&j| j % 3 != 0));
        let mut c = cancelled_jobs.into_inner().unwrap();
        c.sort_unstable();
        // Two runs, each cancelling the same set.
        let mut expect: Vec<usize> = (0..20).filter(|j| j % 3 == 0).collect();
        expect = [expect.clone(), expect].concat();
        expect.sort_unstable();
        assert_eq!(c, expect);
    }

    #[test]
    fn pull_cancellation_mid_stage1_skips_stage2() {
        // "In-flight" cancellation, deterministically: the job cancels
        // *itself* while stage 1 runs, so by the stage-2 boundary check the
        // flag is guaranteed set — stage 2 must not run.
        let flags: Vec<AtomicBool> = (0..10).map(|_| AtomicBool::new(false)).collect();
        let verified = Mutex::new(Vec::new());
        let cancelled_jobs = Mutex::new(Vec::new());
        for threads in [1, 4] {
            for f in &flags {
                f.store(false, Ordering::Relaxed);
            }
            run_two_stage_pull(
                threads,
                list_source((0..10).collect()),
                |&j: &usize| flags[j].load(Ordering::Relaxed),
                |j| cancelled_jobs.lock().unwrap().push(j),
                || (),
                |(), &j| {
                    if j == 4 || j == 7 {
                        flags[j].store(true, Ordering::Relaxed);
                    }
                    Some(j)
                },
                || (),
                |(), j, _| verified.lock().unwrap().push(j),
            );
            let mut c = std::mem::take(&mut *cancelled_jobs.lock().unwrap());
            c.sort_unstable();
            assert_eq!(c, vec![4, 7], "threads={threads}");
            let mut v = std::mem::take(&mut *verified.lock().unwrap());
            v.sort_unstable();
            let expect: Vec<usize> = (0..10).filter(|&j| j != 4 && j != 7).collect();
            assert_eq!(v, expect, "threads={threads}");
        }
    }

    #[test]
    fn pull_stage1_none_ends_the_job() {
        // A `None` out of stage 1 (the per-job error path: the closure
        // delivered the error itself) must not reach stage 2.
        let finished = AtomicUsize::new(0);
        run_two_stage_pull(
            3,
            list_source((0..30).collect()),
            |_| false,
            |_| {},
            || (),
            |(), &j| if j % 4 == 0 { None } else { Some(j) },
            || (),
            |(), j, _| {
                assert!(j % 4 != 0, "errored job reached stage 2");
                finished.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(
            finished.load(Ordering::Relaxed),
            (0..30).filter(|j| j % 4 != 0).count()
        );
    }

    #[test]
    fn pull_waits_through_pending_and_drains_on_close() {
        // The source dribbles jobs out with Pending gaps, then closes;
        // every job still completes exactly once.
        let calls = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        run_two_stage_pull(
            2,
            || {
                let c = calls.fetch_add(1, Ordering::Relaxed);
                if c < 12 {
                    if c.is_multiple_of(3) {
                        Pull::Pending
                    } else {
                        Pull::Job(c)
                    }
                } else {
                    Pull::Closed
                }
            },
            |_| false,
            |_| {},
            || (),
            |(), &j| {
                std::thread::sleep(Duration::from_micros(100));
                Some(j)
            },
            || (),
            |(), _, _| {
                completed.fetch_add(1, Ordering::Relaxed);
            },
        );
        // Calls 0..12 with c % 3 != 0 were jobs; all of them completed.
        assert_eq!(
            completed.load(Ordering::Relaxed),
            (0..12).filter(|c| c % 3 != 0).count()
        );
    }

    #[test]
    fn pull_closed_immediately_returns() {
        run_two_stage_pull(
            4,
            || Pull::<usize>::Closed,
            |_| false,
            |_| panic!("no jobs"),
            || (),
            |(), _: &usize| -> Option<usize> { panic!("no jobs") },
            || (),
            |(), _, _: usize| panic!("no jobs"),
        );
    }

    #[test]
    fn two_stage_empty_jobs() {
        let out: Vec<u32> = run_two_stage(
            4,
            &[] as &[u32],
            || (),
            |(), &j| Ok::<_, ()>(j),
            || (),
            |(), m, _| Ok::<_, ()>(m),
        )
        .unwrap();
        assert!(out.is_empty());
    }
}
