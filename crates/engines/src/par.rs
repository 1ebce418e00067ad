//! The one scoped-thread primitive behind activity analysis, the
//! compaction gather and the kernels: split `0..n` into contiguous chunks
//! ([`chunk_ranges`]), then map over the chunks concurrently ([`par_map`]).

use std::ops::Range;

/// Split `0..n` into at most `threads` contiguous ranges of
/// `⌈n / threads⌉` items each (the last may be shorter), in ascending
/// order. Empty for `n = 0`; `threads` is clamped to `1..=n`.
pub fn chunk_ranges(n: usize, threads: usize) -> Vec<Range<usize>> {
    let chunk = n.div_ceil(threads.clamp(1, n.max(1))).max(1);
    (0..n).step_by(chunk).map(|lo| lo..(lo + chunk).min(n)).collect()
}

/// Apply `f` to every item concurrently, one scoped worker per item, and
/// return the results in input order. A worker's panic is re-raised on the
/// caller with its original payload.
///
/// A single item — `threads = 1` — is spawned and joined like any other.
/// Running it on the caller instead is worth up to 9× in ops/s on the
/// tiny-iteration `wall` workload, which is a gain to claim and measure in
/// a PR of its own (ROADMAP, "Open items"), not a side effect of a refactor.
pub fn par_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let f = &f;
    let joined = crossbeam::scope(|s| {
        let workers: Vec<_> = items.into_iter().map(|item| s.spawn(move |_| f(item))).collect();
        workers.into_iter().map(|w| w.join()).collect::<Result<Vec<T>, _>>()
    });
    match joined {
        Ok(Ok(results)) => results,
        // A panicked worker left its share of the work undone; unwinding
        // the caller with the same payload is the only correct outcome.
        Ok(Err(payload)) | Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_the_input_in_order() {
        assert_eq!(chunk_ranges(0, 4), vec![]);
        assert_eq!(chunk_ranges(5, 1), vec![0..5]);
        assert_eq!(chunk_ranges(5, 0), vec![0..5]);
        assert_eq!(chunk_ranges(10, 4), vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(chunk_ranges(3, 8), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn results_keep_input_order() {
        // Force completion in reverse: item i returns only after item
        // i + 1 has signalled it (the last item's sender is dropped
        // unused, so its `recv` fails at once).
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..8).map(|_| std::sync::mpsc::channel::<()>()).unzip();
        let wake_predecessor = std::iter::once(None).chain(txs.into_iter().map(Some));
        let items: Vec<_> = rxs.into_iter().enumerate().zip(wake_predecessor).collect();
        let out = par_map(items, |((i, successor_done), wake)| {
            let _ = successor_done.recv();
            if let Some(tx) = wake {
                let _ = tx.send(());
            }
            i * i
        });
        assert_eq!(out, (0..8).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(par_map(Vec::<u8>::new(), |b| b), vec![]);
    }

    #[test]
    fn worker_panic_propagates_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            par_map(vec![1u32, 2, 3], |i| {
                assert!(i != 2, "worker {i} failed");
                i
            })
        });
        let payload = caught.expect_err("the worker's panic must reach the caller");
        let msg = payload.downcast_ref::<String>().expect("assert! panics with a String");
        assert_eq!(msg, "worker 2 failed");
    }
}
