//! The work-stealing corpus executor.
//!
//! The previous sweep implementation split the corpus into `threads` static chunks;
//! one pathological loop (the scheduler's backtracking budget varies wildly across
//! the synthetic corpus) then idled every other item of its chunk's worker while
//! the rest of the pool sat done.  Here every worker instead claims the next
//! unprocessed index from a shared atomic counter, so the load balances itself at
//! the granularity of a single loop: a slow item costs exactly one worker, and the
//! others drain the remaining indices around it.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::VliwError;

/// What one worker produced: its `(index, result)` buffer, or the diagnosis of
/// the first item that failed on it.
type WorkerOutcome<R> = Result<Vec<(usize, R)>, (usize, VliwError)>;

/// Applies the fallible `f` to every index in `0..n`, in parallel over
/// `threads` workers, and returns the results in index order — or the error of
/// the lowest-indexed item that failed.
///
/// Workers claim indices from a shared atomic counter (work stealing at item
/// granularity) and buffer `(index, result)` pairs locally; the caller's thread
/// merges the buffers once, so no result slot is ever shared between workers and
/// `f` only needs to be `Sync` — no `'static` bound, no unsafe code.
///
/// A panic in `f` is still caught per item (third-party code inside a sweep can
/// always panic) and surfaces as [`VliwError::WorkerPanic`] carrying the
/// panicking *index* and the original payload message — on a full-corpus
/// sweep, "loop index 731" is the difference between a diagnosable failure and
/// a shrug.  When several items fail concurrently, the lowest index is
/// reported; a worker stops claiming new indices after its first failure.
pub fn try_par_map_indexed<R, F>(n: usize, threads: usize, f: F) -> Result<Vec<R>, VliwError>
where
    R: Send,
    F: Fn(usize) -> Result<R, VliwError> + Sync,
{
    let threads = threads.max(1).min(n.max(1));

    let run_item = |index: usize| -> Result<R, (usize, VliwError)> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(index))) {
            Ok(Ok(result)) => Ok(result),
            Ok(Err(e)) => Err((index, e)),
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                Err((index, VliwError::WorkerPanic { index, message }))
            }
        }
    };

    if threads <= 1 || n <= 1 {
        return (0..n).map(|i| run_item(i).map_err(|(_, e)| e)).collect();
    }

    let next = AtomicUsize::new(0);
    let outcomes: Vec<WorkerOutcome<R>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let next = &next;
                let run_item = &run_item;
                scope.spawn(move |_| {
                    // Registers this worker's per-thread span buffer (and its
                    // `worker-{k}` trace label) with the recorder; a no-op
                    // unless tracing is enabled.
                    vliw_obs::register_worker(worker);
                    let mut local = Vec::with_capacity(n / threads + 1);
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            break;
                        }
                        match run_item(index) {
                            Ok(result) => local.push((index, result)),
                            Err(diagnosis) => return Err(diagnosis),
                        }
                    }
                    Ok(local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panics are caught per item"))
            .collect::<Vec<_>>()
    })
    .expect("worker panics are caught per item");

    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let mut failure: Option<(usize, VliwError)> = None;
    for outcome in outcomes {
        match outcome {
            Ok(local) => {
                for (index, result) in local {
                    results[index] = Some(result);
                }
            }
            Err((index, e)) => {
                if failure.as_ref().is_none_or(|(lowest, _)| index < *lowest) {
                    failure = Some((index, e));
                }
            }
        }
    }
    if let Some((_, e)) = failure {
        return Err(e);
    }
    Ok(results.into_iter().map(|r| r.expect("every index was claimed exactly once")).collect())
}

/// Infallible wrapper over [`try_par_map_indexed`]: applies `f` to every index
/// in `0..n` and returns the results in index order.  A failure (necessarily a
/// caught worker panic, since `f` is infallible) is re-raised on the caller's
/// thread; the payload is the rendered [`VliwError::WorkerPanic`], so the
/// diagnostic format is identical to the error path.
pub fn par_map_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    match try_par_map_indexed(n, threads, |i| Ok(f(i))) {
        Ok(results) => results,
        Err(e) => panic!("{e}"),
    }
}

/// Renders a caught panic payload for the re-raised diagnostic: the `&str` /
/// `String` payloads `panic!` produces are passed through verbatim, anything
/// else (a `panic_any` value) is labelled by what it is not.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_index_order() {
        let seq: Vec<u64> = (0..500).map(|i| i as u64 * 7 + 3).collect();
        for threads in [1, 2, 3, 8, 64] {
            let par = par_map_indexed(500, threads, |i| i as u64 * 7 + 3);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_single_inputs() {
        assert!(par_map_indexed(0, 4, |i| i).is_empty());
        assert_eq!(par_map_indexed(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = par_map_indexed(200, 4, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 200);
        assert_eq!(out, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_is_balanced_across_workers() {
        // One artificially slow item must not serialise the items behind it the way
        // a static chunking would: with 2 workers and the slow item first, the other
        // worker processes everything else concurrently.  We can't assert timing in
        // a unit test, but we can assert correctness under very skewed work.
        let out = par_map_indexed(64, 2, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i * 2
        });
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "experiment worker panicked")]
    fn worker_panics_propagate() {
        let _ = par_map_indexed(16, 4, |i| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn worker_panics_resurface_the_index_and_payload() {
        // The re-raised panic must say *which* loop index died and carry the
        // original payload text — the difference between a diagnosable
        // full-corpus sweep failure and an anonymous `expect` message.
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                par_map_indexed(32, threads, |i| {
                    if i == 19 {
                        panic!("loop exploded: II search diverged");
                    }
                    i
                })
            })
            .expect_err("the sweep must panic");
            let message =
                caught.downcast_ref::<String>().expect("re-raised payload is a String").clone();
            assert!(message.contains("loop index 19"), "threads={threads}: {message}");
            assert!(
                message.contains("loop exploded: II search diverged"),
                "threads={threads}: {message}"
            );
        }
    }

    #[test]
    fn try_map_surfaces_closure_errors_with_the_lowest_index() {
        for threads in [1, 8] {
            let err = try_par_map_indexed(64, threads, |i| {
                if i % 16 == 5 {
                    return Err(VliwError::internal(format!("bad item {i}")));
                }
                Ok(i)
            })
            .expect_err("the sweep must fail");
            assert_eq!(err.to_string(), "internal error: bad item 5", "threads={threads}");
        }
    }

    #[test]
    fn try_map_turns_panics_into_worker_panic_errors() {
        let err = try_par_map_indexed(32, 4, |i| {
            if i == 19 {
                panic!("II search diverged");
            }
            Ok(i)
        })
        .expect_err("the sweep must fail");
        match &err {
            VliwError::WorkerPanic { index, message } => {
                assert_eq!(*index, 19);
                assert_eq!(message, "II search diverged");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert_eq!(
            err.to_string(),
            "experiment worker panicked at loop index 19: II search diverged"
        );
    }

    #[test]
    fn try_map_succeeds_in_index_order() {
        let out = try_par_map_indexed(100, 4, |i| Ok(i * 3)).expect("no failures");
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn lowest_panicking_index_wins() {
        let caught = std::panic::catch_unwind(|| {
            par_map_indexed(64, 8, |i| {
                if i % 16 == 3 {
                    panic!("bad item {i}");
                }
                i
            })
        })
        .expect_err("the sweep must panic");
        let message = caught.downcast_ref::<String>().unwrap().clone();
        assert!(message.contains("loop index 3"), "{message}");
    }
}
