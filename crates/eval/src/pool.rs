//! The deterministic worker pool.
//!
//! Since PR 10 the pool is **persistent**: a process-wide set of helper
//! threads (one per spare core) is spawned lazily on first use and then
//! reused by every [`parallel_map`] call, so a DSE that evaluates thousands
//! of small batches no longer pays a thread spawn/join per batch. Work is
//! claimed in **size-adaptive chunks** through a shared atomic cursor and
//! results are written straight into their output slots (no per-worker
//! bucket allocation, no gather pass).
//!
//! The pool is also the process's **shared thread budget**: every
//! `parallel_map` call, nested ones included, borrows helpers from the
//! same fixed set, so nested fan-out *composes* instead of
//! oversubscribing — an inner `parallel_map` issued from a helper that
//! finds every other helper busy simply runs inline on its caller.
//! Deadlock is impossible by
//! construction: the submitting thread always participates in its own run,
//! so every run completes even when zero helpers are free.

// The workspace denies `unsafe_code`; this module is the single, narrowly
// scoped exception. Running *borrowed* closures on *persistent* threads
// requires erasing the closure's lifetime (the same reason rayon's core is
// unsafe) — the alternative, spawning scoped threads per batch, is exactly
// the overhead this pool exists to eliminate. Every unsafe block carries
// its invariant; the quiesce protocol in `run_with_pool` is the proof
// obligation they all lean on.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// What one pool participant (the caller or a helper) contributed to a
/// [`parallel_map_timed`] run: how long it spent inside the mapped
/// function's claim loop and how many items it completed. The per-worker
/// busy/wall ratio is the scatter-loss diagnostic surfaced through
/// `EvalStats` — a parallel batch whose helpers show near-zero busy time
/// paid the fan-out for nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerLoad {
    /// Nanoseconds this participant spent claiming and evaluating items.
    pub busy_nanos: u64,
    /// Items this participant completed.
    pub items: u64,
}

/// A lifetime-erased claim loop submitted to the persistent pool.
///
/// Safety contract: the submitting [`run_with_pool`] call never returns —
/// not even by unwinding — before the ticket is retired (`done` set,
/// removed from the queue, and `active == 0`), so the borrowed closure and
/// everything it captures strictly outlive every helper's use of it.
struct Ticket {
    /// The type-erased claim loop. Helpers call it exactly like the caller
    /// does; the closure's own atomic cursor partitions the work.
    work: &'static (dyn Fn() + Sync),
    /// Helpers still wanted; decremented (under the pool lock) when a
    /// helper joins, so a run never gets more participants than requested.
    wanted: usize,
    /// Helpers currently inside `work` (guarded by the pool lock).
    active: usize,
    /// Set (under the pool lock) when the caller's own claim loop drained
    /// the cursor: late helpers must skip the ticket instead of joining.
    done: bool,
}

#[derive(Default)]
struct PoolState {
    queue: Vec<Arc<Mutex<Ticket>>>,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when work is enqueued.
    work_cv: Condvar,
    /// Signalled when a helper leaves a ticket (quiesce wake-up).
    quiesce_cv: Condvar,
    /// Number of helper threads (spare cores; the caller is the +1).
    helpers: usize,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            // `MCMAP_POOL_HELPERS` overrides the helper count (read once,
            // at first use): CI uses it to exercise the helper machinery
            // on single-core runners, where the default would be zero.
            let helpers = std::env::var("MCMAP_POOL_HELPERS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map_or(1, |n| n.get())
                        .saturating_sub(1)
                });
            let pool = Pool {
                state: Mutex::new(PoolState::default()),
                work_cv: Condvar::new(),
                quiesce_cv: Condvar::new(),
                helpers,
            };
            for i in 0..pool.helpers {
                std::thread::Builder::new()
                    .name(format!("mcmap-eval-{i}"))
                    .spawn(helper_loop)
                    .expect("spawn pool helper");
            }
            pool
        })
    }
}

/// A pool helper: block until a ticket wants more participants, run its
/// claim loop, repeat. Helpers are daemon threads — they hold no resources
/// beyond their stack, so process exit just abandons them.
fn helper_loop() {
    let pool = Pool::global();
    loop {
        let ticket: Arc<Mutex<Ticket>> = {
            let mut state = pool.state.lock().expect("pool lock");
            loop {
                let claimed = state.queue.iter().find_map(|t| {
                    let mut g = t.lock().expect("ticket lock");
                    if !g.done && g.wanted > 0 {
                        g.wanted -= 1;
                        g.active += 1;
                        Some(Arc::clone(t))
                    } else {
                        None
                    }
                });
                match claimed {
                    Some(t) => break t,
                    None => state = pool.work_cv.wait(state).expect("pool lock"),
                }
            }
        };
        // The claim loop catches its own panics (see `run_with_pool`), so
        // nothing can unwind through the helper and kill the pool.
        let work = ticket.lock().expect("ticket lock").work;
        work();
        let _state = pool.state.lock().expect("pool lock");
        ticket.lock().expect("ticket lock").active -= 1;
        pool.quiesce_cv.notify_all();
    }
}

/// Runs `claim` on the calling thread plus up to `helpers_wanted` pool
/// helpers, returning only when every participant has left the closure.
/// `claim` must be idempotent across participants (internally partitioned,
/// e.g. by an atomic cursor) and must not panic — wrap panicking work in
/// `catch_unwind` and ferry the payload out by side channel.
fn run_with_pool(helpers_wanted: usize, claim: &(dyn Fn() + Sync)) {
    let pool = Pool::global();
    let helpers_wanted = helpers_wanted.min(pool.helpers);
    if helpers_wanted == 0 {
        claim();
        return;
    }
    // SAFETY: the ticket is retired below — `done` set, dequeued, and
    // `active` drained to zero — before this function returns, and `claim`
    // itself cannot unwind past us (it catches), so no helper can touch
    // `claim` or its captures after their true lifetime ends.
    let work: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(claim) };
    let ticket = Arc::new(Mutex::new(Ticket {
        work,
        wanted: helpers_wanted,
        active: 0,
        done: false,
    }));
    {
        let mut state = pool.state.lock().expect("pool lock");
        state.queue.push(Arc::clone(&ticket));
    }
    pool.work_cv.notify_all();

    claim();

    let mut state = pool.state.lock().expect("pool lock");
    ticket.lock().expect("ticket lock").done = true;
    state.queue.retain(|t| !Arc::ptr_eq(t, &ticket));
    while ticket.lock().expect("ticket lock").active > 0 {
        state = pool.quiesce_cv.wait(state).expect("pool lock");
    }
}

/// One output slot, written exactly once by whichever participant claims
/// its index.
struct Slot<V>(std::cell::UnsafeCell<Option<V>>);

/// SAFETY: the atomic claim cursor hands every index to exactly one
/// participant, so each slot has a unique writer; the caller reads the
/// slots only after every participant has quiesced.
unsafe impl<V: Send> Sync for Slot<V> {}

/// The chunk size of one cursor claim: coarse enough that cheap items
/// amortize the atomic traffic, fine enough that expensive items cannot
/// serialize behind a bad static partition (at most 1/8 of an even share
/// rides on one claim).
fn chunk_size(items: usize, participants: usize) -> usize {
    (items / (participants * 8)).clamp(1, 1024)
}

/// Maps `f` over `items` on the calling thread plus pool helpers (up to
/// `threads` participants total) and returns the results in input order.
///
/// Work is claimed through a shared atomic cursor in size-adaptive chunks,
/// so expensive items do not serialize behind a bad static partition. Each
/// claimed result is written directly into its output slot, which makes the
/// output **independent of scheduling**: for a pure `f`, any thread count
/// produces the same vector.
///
/// `threads == 0` means "one per available core"; the effective count is
/// also clamped to `items.len()`. With one effective participant — or when
/// every pool helper is busy, e.g. inside a nested `parallel_map` — the map
/// runs inline, without any dispatch.
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

/// [`parallel_map`] plus the per-participant [`WorkerLoad`] ledger: entry
/// `i` reports how long participant `i` (0 = the calling thread) spent in
/// the claim loop and how many items it completed. The ledger is a timing
/// observation — its values are **not** deterministic across runs, only the
/// result vector is.
pub fn parallel_map_timed<T, V, F>(items: &[T], threads: usize, f: F) -> (Vec<V>, Vec<WorkerLoad>)
where
    T: Sync,
    V: Send,
    F: Fn(&T) -> V + Sync,
{
    let threads = effective_threads(threads, items.len());
    if threads <= 1 {
        let t0 = Instant::now();
        let out: Vec<V> = items.iter().map(&f).collect();
        let load = WorkerLoad {
            busy_nanos: t0.elapsed().as_nanos() as u64,
            items: items.len() as u64,
        };
        return (out, vec![load]);
    }

    let slots: Vec<Slot<V>> = std::iter::repeat_with(|| Slot(std::cell::UnsafeCell::new(None)))
        .take(items.len())
        .collect();
    let loads: Vec<Slot<WorkerLoad>> =
        std::iter::repeat_with(|| Slot(std::cell::UnsafeCell::new(None)))
            .take(threads)
            .collect();
    let cursor = AtomicUsize::new(0);
    let participant = AtomicUsize::new(0);
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let chunk = chunk_size(items.len(), threads);

    let claim = || {
        // Participants beyond the requested count contribute nothing; the
        // pool never hands out more helpers than `wanted`, so this is just
        // belt and braces for the load ledger's bound.
        let me = participant.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let mut completed = 0u64;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= items.len() {
                break;
            }
            let end = (start + chunk).min(items.len());
            for i in start..end {
                let v = f(&items[i]);
                // SAFETY: index `i` was claimed by exactly this
                // participant (unique cursor claim), so this is the slot's
                // only writer; reads happen after quiescence.
                unsafe { *slots[i].0.get() = Some(v) };
                completed += 1;
            }
        }));
        if let Err(payload) = result {
            let mut slot = panicked.lock().expect("panic slot");
            slot.get_or_insert(payload);
        }
        if me < threads {
            let load = WorkerLoad {
                busy_nanos: t0.elapsed().as_nanos() as u64,
                items: completed,
            };
            // SAFETY: participant indices are unique, so `me` writes its
            // own ledger slot exactly once.
            unsafe { *loads[me].0.get() = Some(load) };
        }
    };
    run_with_pool(threads - 1, &claim);

    if let Some(payload) = panicked.into_inner().expect("panic slot") {
        std::panic::resume_unwind(payload);
    }
    let out = slots
        .into_iter()
        .map(|s| s.0.into_inner().expect("every index claimed exactly once"))
        .collect();
    let loads = loads
        .into_iter()
        .map(|s| s.0.into_inner().unwrap_or_default())
        .collect();
    (out, loads)
}

/// The per-item outcome of a caught map: the computed value, or the raw
/// panic payload `f` unwound with for that item.
pub type CaughtResult<V> = Result<V, Box<dyn std::any::Any + Send>>;

/// The fault-isolated sibling of [`parallel_map`]: a panic in `f` is
/// caught *per item* instead of unwinding the whole pool, so one poisoned
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

/// [`parallel_map_caught`] with the per-participant [`WorkerLoad`] ledger
/// of [`parallel_map_timed`].
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
    // AssertUnwindSafe: the worst a caught panic can leave behind is a
    // torn memo-cache insert, and the engine never caches failed items —
    // callers observe either a completed value or an Err, nothing partial.
    parallel_map_timed(items, threads, |item: &T| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)))
    })
}

/// Number of participants a fan-out can use: the calling thread plus the
/// persistent pool's helpers (one per spare core). A host reports capacity
/// `n` even while helpers are busy — nested runs then degrade to inline
/// execution instead of spawning anything.
pub fn pool_capacity() -> usize {
    Pool::global().helpers + 1
}

/// Resolves the requested thread count: 0 = available parallelism, and
/// never more threads than items.
pub(crate) fn effective_threads(requested: usize, items: usize) -> usize {
    let hw = || std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = if requested == 0 { hw() } else { requested };
    t.clamp(1, items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(parallel_map(&items, threads, |x| x * 3 + 1), expect);
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<u32> = (0..50).collect();
        let _ = parallel_map(&items, 4, |_| calls.fetch_add(1, Ordering::Relaxed));
        assert_eq!(calls.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(parallel_map(&[] as &[u8], 4, |x| *x), Vec::<u8>::new());
        assert_eq!(parallel_map(&[7u8], 4, |x| *x + 1), vec![8]);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(16, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(1, 0), 1);
    }

    #[test]
    fn chunks_scale_with_batch_shape() {
        assert_eq!(chunk_size(24, 4), 1, "small batches claim singly");
        assert_eq!(chunk_size(256, 2), 16);
        assert_eq!(chunk_size(1 << 20, 2), 1024, "chunks stay bounded");
    }

    #[test]
    fn timed_variant_accounts_every_item_to_a_participant() {
        let items: Vec<u64> = (0..500).collect();
        for threads in [1, 4] {
            let (out, loads) = parallel_map_timed(&items, threads, |x| x + 1);
            assert_eq!(out.len(), 500);
            assert!(!loads.is_empty() && loads.len() <= threads.max(1));
            let total: u64 = loads.iter().map(|l| l.items).sum();
            assert_eq!(total, 500, "the ledger accounts every item");
        }
    }

    #[test]
    fn caught_variant_isolates_panics_per_item() {
        let items: Vec<u32> = (0..40).collect();
        for threads in [1, 4] {
            let out = parallel_map_caught(&items, threads, |x| {
                assert!(x % 7 != 3, "poisoned item {x}");
                x * 2
            });
            assert_eq!(out.len(), 40);
            for (i, r) in out.iter().enumerate() {
                if i % 7 == 3 {
                    let payload = r.as_ref().expect_err("poisoned items fail");
                    let msg = payload.downcast_ref::<String>().unwrap();
                    assert!(msg.contains(&format!("poisoned item {i}")));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u32 * 2);
                }
            }
        }
    }

    #[test]
    fn worker_panics_propagate_with_their_payload() {
        let result = std::panic::catch_unwind(|| {
            parallel_map(&[1, 2, 3], 2, |x| {
                assert!(*x != 2, "boom at {x}");
                *x
            })
        });
        let payload = result.expect_err("the panic must cross the pool");
        let msg = payload
            .downcast_ref::<String>()
            .expect("assert! payload is a String");
        assert!(msg.contains("boom at 2"), "got: {msg}");
    }

    #[test]
    fn pool_survives_a_panicking_run() {
        // A panic in one run must not poison the persistent pool: the next
        // run still completes normally on the same helpers.
        let _ = std::panic::catch_unwind(|| {
            parallel_map(&[1u8, 2, 3, 4], 4, |x| {
                assert!(*x != 3, "poison");
                *x
            })
        });
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 4, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_fan_out_composes_without_deadlock() {
        // An inner parallel_map issued from inside an outer one must
        // complete (inline if every helper is busy) — the shared-budget
        // rule. 16 outer items each fanning out 32 inner items.
        let outer: Vec<u64> = (0..16).collect();
        let result = parallel_map(&outer, 4, |&o| {
            let inner: Vec<u64> = (0..32).collect();
            parallel_map(&inner, 4, |&i| o * 100 + i)
                .iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = outer.iter().map(|&o| o * 100 * 32 + 496).collect();
        assert_eq!(result, expect);
    }

    #[test]
    fn pool_capacity_reports_at_least_the_caller() {
        assert!(pool_capacity() >= 1);
    }
}
