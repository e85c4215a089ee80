//! Threading helpers: the index-ordered [`par_map`] and the
//! poison-tolerant [`lock`].
//!
//! [`par_map`] is the workspace's one thread fan-out: design-space sweeps,
//! Monte-Carlo ensembles, symbolic-regression restarts and the serve
//! worker pool all call it. Workers pull items from a shared queue
//! and every result goes back to its item's index, so the output never
//! depends on scheduling or on the thread count (DESIGN §6: parallelism
//! never leaks into results).

use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard if a panicking holder poisoned it.
///
/// Every mutex in the workspace guards data that stays consistent at each
/// statement (a slot write, a counter map, a trace push), and serve's
/// `catch_unwind` isolation is built to outlive a panicking worker, so a
/// poisoned lock is not an error.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Set while this thread is running items of a [`par_map`] call.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a worker until dropped (also on unwind).
struct WorkerGuard(bool);

impl WorkerGuard {
    fn enter() -> WorkerGuard {
        WorkerGuard(IN_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.0));
    }
}

/// Apply `f` to every item on up to `threads` threads (the caller plus
/// scoped helpers) and return the results in item order.
///
/// `threads == 0` means one per core (`available_parallelism`). A call
/// nested inside a worker of another `par_map` (or inside a call with a
/// one-thread budget) runs sequentially on that thread. A panic in `f`
/// propagates to the caller once every worker has stopped.
pub fn par_map<I, O, F>(threads: usize, items: impl IntoIterator<Item = I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let items: Vec<I> = items.into_iter().collect();
    let n = items.len();
    let threads = if IN_WORKER.with(Cell::get) {
        1
    } else if threads == 0 {
        std::thread::available_parallelism().map_or(1, |t| t.get())
    } else {
        threads
    };
    if threads.min(n) <= 1 {
        // A one-thread budget also binds calls nested in `f`; a single
        // item leaves theirs alone.
        let _worker = (threads <= 1).then(WorkerGuard::enter);
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let _worker = WorkerGuard::enter();
        let mut out = Vec::new();
        loop {
            // A statement of its own, so the lock is released before `f`.
            let next = lock(&queue).next();
            let Some((i, item)) = next else { break };
            out.push((i, f(item)));
        }
        out
    };
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads.min(n)).map(|_| s.spawn(work)).collect();
        let mut outs = vec![work()];
        for h in helpers {
            match h.join() {
                Ok(out) => outs.push(out),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        for (i, o) in outs.into_iter().flatten() {
            slots[i] = Some(o);
        }
    });
    slots.into_iter().map(|o| o.expect("every item is mapped exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_index_ordered_at_any_thread_count() {
        let expect: Vec<u64> = (0..500u64).map(|i| (i * i) ^ 0x5A).collect();
        for threads in [1, 2, 8] {
            assert_eq!(par_map(threads, 0..500u64, |i| (i * i) ^ 0x5A), expect, "{threads} threads");
        }
        assert_eq!(par_map(0, Vec::<u64>::new(), |i| i), Vec::<u64>::new());
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            par_map(4, 0..64u32, |i| {
                assert!(i != 37, "boom at 37");
                i
            })
        });
        let msg = r.expect_err("the panic reaches the caller");
        let text = msg
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| msg.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(text.contains("boom at 37"), "payload kept: {text:?}");
        // The caller's thread is not left marked as a worker.
        assert!(!IN_WORKER.with(Cell::get));
    }

    #[test]
    fn nested_call_runs_sequentially() {
        let outer = par_map(2, 0..4u32, |i| {
            let here = std::thread::current().id();
            let inner = par_map(8, 0..16u32, |j| (std::thread::current().id(), i * 16 + j));
            assert!(inner.iter().all(|(t, _)| *t == here), "nested items stay on the worker");
            inner.into_iter().map(|(_, v)| v).collect::<Vec<_>>()
        });
        assert_eq!(outer.concat(), (0..64).collect::<Vec<_>>());
    }
}
