//! Shared thread-count resolution and a deterministic fork-join helper.
//!
//! Every parallel stage in the workspace — simulator propagation, MRT file
//! ingestion, path statistics, per-AS classification — follows the same
//! contract: a `threads` knob where `0` means "one worker per CPU", and
//! output that is bit-identical to the sequential computation at any thread
//! count. This module centralizes both halves: [`effective_threads`] for
//! the knob and [`par_map_indexed`] for the order-restoring fan-out.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a `threads` knob: a positive value is taken literally, `0` means
/// one worker per available CPU (at least 1).
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Render a panic payload as a string: the common `&str` and `String`
/// messages verbatim, anything else as a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f(0..jobs)` across `threads` scoped workers and return the results
/// in job-index order.
///
/// Workers pull job indices from a shared atomic counter (work stealing, so
/// uneven jobs balance), and results are reassembled by index afterwards —
/// the output is therefore independent of scheduling and thread count.
/// With `threads <= 1` (or fewer jobs than that) the closure runs inline on
/// the caller's thread, spawning nothing.
///
/// A panic in `f` propagates to the caller once all workers have stopped.
pub fn par_map_indexed<T, F>(jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(jobs);
    if threads <= 1 {
        return (0..jobs).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    let mut indexed: Vec<(usize, T)> = parts.into_iter().flatten().collect();
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_thread_counts_are_literal() {
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(8), 8);
        assert!(effective_threads(0) >= 1);
    }

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let out = par_map_indexed(37, threads, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_is_empty() {
        assert_eq!(par_map_indexed(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        assert_eq!(par_map_indexed(2, 16, |i| i + 1), vec![1, 2]);
    }

    #[test]
    fn string_panic_payloads_are_preserved() {
        let owned = std::panic::catch_unwind(|| std::panic::panic_any(String::from("owned")));
        assert_eq!(panic_message(owned.unwrap_err().as_ref()), "owned");
        let literal = std::panic::catch_unwind(|| panic!("literal"));
        assert_eq!(panic_message(literal.unwrap_err().as_ref()), "literal");
        let other = std::panic::catch_unwind(|| std::panic::panic_any(7u8));
        assert_eq!(
            panic_message(other.unwrap_err().as_ref()),
            "non-string panic payload"
        );
    }

    #[test]
    fn par_map_indexed_still_propagates_panics() {
        let caught = std::panic::catch_unwind(|| {
            par_map_indexed(4, 2, |i| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(caught.is_err());
    }
}
