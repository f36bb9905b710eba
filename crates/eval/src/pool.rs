//! The deterministic parallel map.
//!
//! Every call is one `std::thread::scope`: the calling thread plus scoped
//! helpers claim **size-adaptive chunks** of the input through a shared
//! atomic cursor, each participant returns the `(index, value)` pairs it
//! computed, and the caller scatters them back by index. Spawning and
//! joining a helper costs ≈50 µs per call on a 2-core host, which is a few
//! percent of a paper-sized DSE and nothing next to a fleet batch; in
//! exchange the map is plain safe Rust with no state between calls.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// What one participant (the caller or a scoped helper) contributed to a
/// map: how long it spent inside the claim loop and how many items it
/// completed. The per-worker busy/wall ratio is the scatter-loss diagnostic
/// surfaced through `EvalStats` — a parallel batch whose helpers show
/// near-zero busy time paid the fan-out for nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerLoad {
    /// Nanoseconds this participant spent claiming and evaluating items.
    pub busy_nanos: u64,
    /// Items this participant completed.
    pub items: u64,
}

/// The chunk size of one cursor claim: coarse enough that cheap items
/// amortize the atomic traffic, fine enough that expensive items cannot
/// serialize behind a bad static partition (at most 1/8 of an even share
/// rides on one claim).
fn chunk_size(items: usize, participants: usize) -> usize {
    (items / (participants * 8)).clamp(1, 1024)
}

/// Maps `f` over `items` on the calling thread plus scoped helpers
/// (up to `threads` participants total) and returns the results in input
/// order.
///
/// Work is claimed through a shared atomic cursor in size-adaptive chunks,
/// so expensive items do not serialize behind a bad static partition.
/// Results are scattered back by index, which makes the output
/// **independent of scheduling**: for a pure `f`, any thread count
/// produces the same vector.
///
/// `threads == 0` means "one per available core"; the effective count is
/// also clamped to the available cores and to `items.len()`. With one
/// participant the map runs on the calling thread without spawning
/// anything.
///
/// # Panics
///
/// A panic in `f` is resumed on the calling thread with its original
/// payload.
///
/// # Examples
///
/// ```
/// let doubled = mcmap_eval::parallel_map(&[1, 2, 3, 4], 8, |x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6, 8]);
/// ```
pub fn parallel_map<T, V, F>(items: &[T], threads: usize, f: F) -> Vec<V>
where
    T: Sync,
    V: Send,
    F: Fn(&T) -> V + Sync,
{
    parallel_map_timed(items, threads, f).0
}

/// [`parallel_map`] plus the per-participant [`WorkerLoad`] ledger: one
/// entry per participant that ran (0 = the calling thread). The ledger is
/// a timing observation — its values are **not** deterministic across
/// runs, only the result vector is.
fn parallel_map_timed<T, V, F>(items: &[T], threads: usize, f: F) -> (Vec<V>, Vec<WorkerLoad>)
where
    T: Sync,
    V: Send,
    F: Fn(&T) -> V + Sync,
{
    map_on(items, effective_threads(threads, items.len()), f)
}

/// The map itself on exactly `participants` threads (the caller plus
/// `participants - 1` scoped helpers), with no clamping to cores or items.
fn map_on<T, V, F>(items: &[T], participants: usize, f: F) -> (Vec<V>, Vec<WorkerLoad>)
where
    T: Sync,
    V: Send,
    F: Fn(&T) -> V + Sync,
{
    let cursor = AtomicUsize::new(0);
    let chunk = chunk_size(items.len(), participants);
    let claim = || {
        let t0 = Instant::now();
        let mut done = Vec::new();
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= items.len() {
                break;
            }
            let end = (start + chunk).min(items.len());
            done.extend((start..end).map(|i| (i, f(&items[i]))));
        }
        let load = WorkerLoad {
            busy_nanos: t0.elapsed().as_nanos() as u64,
            items: done.len() as u64,
        };
        (done, load)
    };

    // A panic on the calling thread unwinds out of the scope after the
    // helpers are joined; a helper's panic is resumed here by hand, so
    // both keep their original payload.
    let parts = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..participants).map(|_| scope.spawn(claim)).collect();
        let mut parts = vec![claim()];
        for helper in helpers {
            let part = helper.join();
            parts.push(part.unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        parts
    });

    let mut slots: Vec<Option<V>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let mut loads = Vec::with_capacity(parts.len());
    for (done, load) in parts {
        for (i, v) in done {
            slots[i] = Some(v);
        }
        loads.push(load);
    }
    let out = slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect();
    (out, loads)
}

/// The per-item outcome of a caught map: the computed value, or the raw
/// panic payload `f` unwound with for that item.
pub type CaughtResult<V> = Result<V, Box<dyn std::any::Any + Send>>;

/// The fault-isolated sibling of [`parallel_map`]: a panic in `f` is
/// caught *per item* instead of unwinding the whole map, so one poisoned
/// candidate cannot take down a long batch.
///
/// Returns, in input order, `Ok(value)` for items that evaluated and
/// `Err(payload)` — the raw panic payload — for items whose `f` panicked.
/// Participants survive their items' panics and keep claiming work.
///
/// # Examples
///
/// ```
/// let out = mcmap_eval::parallel_map_caught(&[1, 2, 3], 2, |x| {
///     assert!(*x != 2, "poisoned");
///     x * 10
/// });
/// assert_eq!(out[0].as_ref().unwrap(), &10);
/// assert!(out[1].is_err());
/// assert_eq!(out[2].as_ref().unwrap(), &30);
/// ```
pub fn parallel_map_caught<T, V, F>(items: &[T], threads: usize, f: F) -> Vec<CaughtResult<V>>
where
    T: Sync,
    V: Send,
    F: Fn(&T) -> V + Sync,
{
    parallel_map_caught_timed(items, threads, f).0
}

/// [`parallel_map_caught`] with the per-participant [`WorkerLoad`] ledger.
pub(crate) fn parallel_map_caught_timed<T, V, F>(
    items: &[T],
    threads: usize,
    f: F,
) -> (Vec<CaughtResult<V>>, Vec<WorkerLoad>)
where
    T: Sync,
    V: Send,
    F: Fn(&T) -> V + Sync,
{
    parallel_map_timed(items, threads, catching(f))
}

/// Wraps `f` so that a panic becomes that item's `Err(payload)`.
fn catching<T, V>(f: impl Fn(&T) -> V) -> impl Fn(&T) -> CaughtResult<V> {
    // AssertUnwindSafe: the worst a caught panic can leave behind is a
    // torn memo-cache insert, and the engine never caches failed items —
    // callers observe either a completed value or an Err, nothing partial.
    move |item| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)))
}

/// Resolves the requested thread count: 0 = one per available core, and
/// never more participants than cores or items. A participant beyond the
/// core count only time-slices with the others, and the batch then waits
/// for whichever of them was preempted holding the last items.
fn effective_threads(requested: usize, items: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let t = if requested == 0 {
        cores
    } else {
        requested.min(cores)
    };
    t.clamp(1, items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(parallel_map(&[] as &[u8], 4, |x| *x), Vec::<u8>::new());
        assert_eq!(parallel_map(&[7u8], 4, |x| *x + 1), vec![8]);
    }

    #[test]
    fn participants_are_bounded_by_cores_and_items() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(effective_threads(0, 1000), cores.min(1000));
        assert_eq!(effective_threads(64, 1000), cores.min(64));
        assert_eq!(effective_threads(64, 1), 1);
        assert_eq!(effective_threads(1, 100), 1);
        assert_eq!(effective_threads(1, 0), 1);
    }

    #[test]
    fn chunks_scale_with_batch_shape() {
        assert_eq!(chunk_size(24, 4), 1, "small batches claim singly");
        assert_eq!(chunk_size(256, 2), 16);
        assert_eq!(chunk_size(1 << 20, 2), 1024, "chunks stay bounded");
    }

    // The tests below drive `map_on` with 4 participants, so spawning,
    // cross-thread claiming, scatter and panic transport run with real
    // helpers on every host, a single-core one included.

    #[test]
    fn ledger_lists_exactly_the_participants_that_ran() {
        let items: Vec<u64> = (0..500).collect();
        let (out, loads) = map_on(&items, 4, |x| x + 1);
        assert_eq!(out, (1..501).collect::<Vec<u64>>());
        assert_eq!(loads.len(), 4, "one entry per participant");
        assert_eq!(loads.iter().map(|l| l.items).sum::<u64>(), 500);

        // The public entry point lists the participants it actually ran,
        // with no placeholder entries for the requested-but-clamped rest.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (_, loads) = parallel_map_timed(&items, 4, |x| x + 1);
        assert_eq!(loads.len(), 4.min(cores));
        assert_eq!(loads.iter().map(|l| l.items).sum::<u64>(), 500);
    }

    #[test]
    fn order_and_coverage_hold_over_many_rounds() {
        for round in 0..50u64 {
            let calls = AtomicUsize::new(0);
            let items: Vec<u64> = (0..257).map(|i| i * 31 + round).collect();
            let expect: Vec<u64> = items.iter().map(|x| x ^ 0xA5A5).collect();
            let (out, _) = map_on(&items, 4, |x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x ^ 0xA5A5
            });
            assert_eq!(out, expect);
            assert_eq!(calls.load(Ordering::Relaxed), items.len(), "each item once");
        }
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<String>()
            .expect("a formatted panic carries a String")
    }

    #[test]
    fn a_helper_panic_is_resumed_on_the_caller_with_its_payload() {
        // The caller holds its first item until a helper has started one,
        // so a helper is guaranteed to claim (and panic on) some item.
        let caller = std::thread::current().id();
        let helper_ran = AtomicBool::new(false);
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            map_on(&items, 4, |x| {
                if std::thread::current().id() == caller {
                    while !helper_ran.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    *x
                } else {
                    helper_ran.store(true, Ordering::Release);
                    panic!("boom in a helper at {x}");
                }
            })
        });
        let payload = result.expect_err("the helper's panic must reach the caller");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("boom in a helper"), "got: {msg}");
    }

    #[test]
    fn a_caller_panic_keeps_its_payload() {
        // Helpers hold their first item until the caller has started one,
        // so the caller is guaranteed to claim (and panic on) some item.
        let caller = std::thread::current().id();
        let caller_ran = AtomicBool::new(false);
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            map_on(&items, 4, |x| {
                if std::thread::current().id() == caller {
                    caller_ran.store(true, Ordering::Release);
                    panic!("boom in the caller at {x}");
                }
                while !caller_ran.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                *x
            })
        });
        let payload = result.expect_err("the caller's panic must propagate");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("boom in the caller"), "got: {msg}");
    }

    #[test]
    fn caught_map_isolates_failures_per_item() {
        let items: Vec<u32> = (0..200).collect();
        let (out, loads) = map_on(
            &items,
            4,
            catching(|x: &u32| {
                assert!(x % 13 != 5, "poisoned {x}");
                x * 3
            }),
        );
        assert_eq!(loads.len(), 4);
        assert_eq!(out.len(), items.len());
        for (i, r) in out.iter().enumerate() {
            if i % 13 == 5 {
                let payload = r.as_ref().expect_err("poisoned items fail");
                let msg = panic_message(payload.as_ref());
                assert!(msg.contains(&format!("poisoned {i}")), "got: {msg}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32 * 3);
            }
        }
    }

    #[test]
    fn a_map_nested_inside_a_map_completes() {
        let outer: Vec<u64> = (0..24).collect();
        let (result, _) = map_on(&outer, 4, |&o| {
            let inner: Vec<u64> = (0..100).collect();
            map_on(&inner, 4, |&i| o * 1000 + i).0.iter().sum::<u64>()
        });
        let expect: Vec<u64> = outer.iter().map(|&o| o * 1000 * 100 + 4950).collect();
        assert_eq!(result, expect);
    }
}
