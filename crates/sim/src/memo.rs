//! Trajectory memo: each distinct fault trajectory of a Monte-Carlo
//! campaign is simulated once (see [`TrajectoryMemo`]).

use crate::{FaultModel, SimConfig, SimResult, Simulator};
use mcmap_hardening::HTaskId;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

/// Bytes a memo may hold (see [`Trie::bytes`]): the size of the former
/// 2 048-node arena. A point of the benchmark's Cruise portfolio records
/// all of its 850–1 100 distinct trajectories (of 20 000 profiles) in
/// 22–29 KB, its 44–102 distinct outcomes included.
const BYTE_BUDGET: usize = 32 * 1024;

/// The verdict bit of a step byte.
const VERDICT: u8 = 0x80;
/// A step whose query index does not fit the low 7 bits: the index
/// follows as a LEB128 varint.
const WIDE: u8 = 0x7E;
/// A leaf record: the leaf slot follows as a LEB128 varint.
const LEAF: u8 = 0x7F;

/// Bytes one fork entry takes.
const FORK_BYTES: usize = size_of::<(u32, u32)>();

const POISONED: &str = "trajectory memo poisoned";

/// One fault-oracle query. A task index beyond `u32` is not recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Query {
    instance: u64,
    task: u32,
    attempt: u8,
}

impl Query {
    fn new(task: HTaskId, instance: u64, attempt: u8) -> Option<Query> {
        Some(Query {
            instance,
            task: u32::try_from(task.index()).ok()?,
            attempt,
        })
    }

    fn ask(self, faults: &mut dyn FaultModel) -> bool {
        faults.faulty(
            HTaskId::new(self.task as usize),
            self.instance,
            self.attempt,
        )
    }
}

/// One record of the stream.
#[derive(Debug, Clone, Copy)]
enum Record {
    /// Ask `queries[query]`; on `verdict` the trajectory goes on at
    /// `next`, on the other verdict at this step's fork, if any.
    Step {
        query: usize,
        verdict: bool,
        next: usize,
    },
    /// The trajectory ends; its value is `leaves[slot]`.
    Leaf(usize),
}

fn push_varint(out: &mut Vec<u8>, mut n: usize) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// The varint at `at` and the offset after it.
fn read_varint(bytes: &[u8], mut at: usize) -> (usize, usize) {
    let (mut n, mut shift) = (0, 0);
    loop {
        let b = bytes[at];
        at += 1;
        n |= usize::from(b & 0x7F) << shift;
        if b < 0x80 {
            return (n, at);
        }
        shift += 7;
    }
}

/// The recorded trajectories, path-compressed: each is stored once as
/// the tail it does not share with an earlier one.
#[derive(Debug)]
struct Trie<V> {
    /// Tails of steps, each ending in a leaf record. The first recorded
    /// trajectory starts at offset 0; a step byte is the query index
    /// (below [`WIDE`]) plus the recorded verdict in [`VERDICT`].
    stream: Vec<u8>,
    /// `(step, tail)`, sorted by step: the offset of the tail a
    /// trajectory takes when it answers the step's query with the verdict
    /// the step did not record.
    forks: Vec<(u32, u32)>,
    /// The distinct queries, indexed by steps.
    queries: Vec<Query>,
    /// The distinct values, one slot each.
    leaves: Vec<V>,
    budget: usize,
    /// Set when a path did not fit: later misses are not recorded.
    full: bool,
}

impl<V: PartialEq> Trie<V> {
    fn record(&self, at: usize) -> Record {
        let b = self.stream[at];
        if b == LEAF {
            return Record::Leaf(read_varint(&self.stream, at + 1).0);
        }
        let verdict = b & VERDICT != 0;
        let (query, next) = match b & !VERDICT {
            WIDE => read_varint(&self.stream, at + 1),
            q => (usize::from(q), at + 1),
        };
        Record::Step {
            query,
            verdict,
            next,
        }
    }

    /// The tail taken at step `at` on the unrecorded verdict.
    fn fork(&self, at: usize) -> Option<usize> {
        let i = self
            .forks
            .binary_search_by_key(&(at as u32), |&(step, _)| step)
            .ok()?;
        Some(self.forks[i].1 as usize)
    }

    /// Walks the trajectories with `faults`' answers: the leaf slot
    /// reached, or `None` where no recorded trajectory goes on.
    fn lookup(&self, faults: &mut dyn FaultModel) -> Option<usize> {
        if self.stream.is_empty() {
            return None;
        }
        let mut at = 0;
        loop {
            match self.record(at) {
                Record::Leaf(slot) => return Some(slot),
                Record::Step {
                    query,
                    verdict,
                    next,
                } => {
                    at = if self.queries[query].ask(faults) == verdict {
                        next
                    } else {
                        self.fork(at)?
                    };
                }
            }
        }
    }

    /// Records a path ending in `value`: its leaf slot, also when another
    /// run already recorded it, or `value` back when its new bytes exceed
    /// the budget.
    ///
    /// # Panics
    ///
    /// Panics when the path contradicts a recorded one: an equal verdict
    /// prefix led to a different query or a different run length, which
    /// breaks the determinism the memo rests on.
    fn insert(&mut self, path: &[(Query, bool)], value: V) -> Result<usize, V> {
        if self.stream.is_empty() {
            return self.append(None, path, value);
        }
        let (mut at, mut rest) = (0, path);
        loop {
            match self.record(at) {
                Record::Leaf(slot) => {
                    assert!(
                        rest.is_empty(),
                        "a simulation went on where an equal one ended"
                    );
                    debug_assert!(
                        self.leaves[slot] == value,
                        "equal trajectories kept different values"
                    );
                    return Ok(slot);
                }
                Record::Step {
                    query,
                    verdict,
                    next,
                } => {
                    let (&(q, v), tail) = rest
                        .split_first()
                        .expect("a simulation ended where an equal one went on");
                    assert_eq!(
                        self.queries[query], q,
                        "equal fault verdicts led the simulator to different queries"
                    );
                    rest = tail;
                    at = if v == verdict {
                        next
                    } else {
                        match self.fork(at) {
                            Some(t) => t,
                            None => return self.append(Some(at), rest, value),
                        }
                    };
                }
            }
        }
    }

    /// Appends `tail` and its leaf as a new tail, forked from step `from`
    /// (or as the first trajectory), unless that exceeds the budget.
    fn append(
        &mut self,
        from: Option<usize>,
        tail: &[(Query, bool)],
        value: V,
    ) -> Result<usize, V> {
        let (start, queries) = (self.stream.len(), self.queries.len());
        for &(q, verdict) in tail {
            let i = self.query_index(q);
            let verdict = if verdict { VERDICT } else { 0 };
            if i < usize::from(WIDE) {
                self.stream.push(i as u8 | verdict);
            } else {
                self.stream.push(WIDE | verdict);
                push_varint(&mut self.stream, i);
            }
        }
        let interned = self.leaves.iter().position(|l| *l == value);
        let slot = interned.unwrap_or(self.leaves.len());
        self.stream.push(LEAF);
        push_varint(&mut self.stream, slot);
        let new_leaf = usize::from(interned.is_none()) * size_of::<V>();
        let new_fork = usize::from(from.is_some()) * FORK_BYTES;
        if self.bytes() + new_leaf + new_fork > self.budget {
            self.stream.truncate(start);
            self.queries.truncate(queries);
            self.full = true;
            return Err(value);
        }
        if interned.is_none() {
            self.leaves.push(value);
        }
        if let Some(step) = from {
            let i = self.forks.partition_point(|&(s, _)| (s as usize) < step);
            self.forks.insert(i, (step as u32, start as u32));
        }
        Ok(slot)
    }

    /// The index of `q` in the query table, added when new. A linear
    /// scan: it runs only while recording a miss, and a point asks a few
    /// dozen distinct queries.
    fn query_index(&mut self, q: Query) -> usize {
        self.queries
            .iter()
            .position(|&k| k == q)
            .unwrap_or_else(|| {
                self.queries.push(q);
                self.queries.len() - 1
            })
    }

    /// The bytes the memo holds: the stream, the forks, the query table
    /// and one `V` per leaf slot (not counting heap a `V` owns).
    fn bytes(&self) -> usize {
        self.stream.len()
            + self.forks.len() * FORK_BYTES
            + self.queries.len() * size_of::<Query>()
            + self.leaves.len() * size_of::<V>()
    }
}

/// A fault model that records every query and verdict of one run.
struct Recording<'f> {
    inner: &'f mut dyn FaultModel,
    path: Vec<(Query, bool)>,
    /// Cleared when a query does not fit a [`Query`]: the path is not
    /// stored.
    recordable: bool,
}

impl FaultModel for Recording<'_> {
    fn faulty(&mut self, task: HTaskId, instance: u64, attempt: u8) -> bool {
        let verdict = self.inner.faulty(task, instance, attempt);
        match Query::new(task, instance, attempt) {
            Some(q) if self.recordable => self.path.push((q, verdict)),
            _ => self.recordable = false,
        }
        verdict
    }
}

/// What [`TrajectoryMemo::run`] answers. Read the value through
/// [`TrajectoryMemo::leaves`].
#[derive(Debug)]
pub enum Answer<V> {
    /// The run's value is the memo's leaf in this slot.
    Leaf(u32),
    /// The memo did not record the run (it is full, or a query does not
    /// fit); the run's own value, boxed so that an answer stays two
    /// words in a batch of answers.
    Unrecorded(Box<V>),
}

/// The leaf slots of a memo, read under its read lock (see
/// [`TrajectoryMemo::leaves`]).
#[derive(Debug)]
pub struct Leaves<'m, V>(RwLockReadGuard<'m, Trie<V>>);

impl<V> Leaves<'_, V> {
    /// The value an answer of this memo stands for.
    ///
    /// # Panics
    ///
    /// Panics when `answer` names a slot this memo does not hold (an
    /// answer of another memo).
    pub fn get<'a>(&'a self, answer: &'a Answer<V>) -> &'a V {
        match answer {
            Answer::Leaf(slot) => &self.0.leaves[*slot as usize],
            Answer::Unrecorded(value) => value,
        }
    }
}

/// A memo of simulation outcomes keyed by fault trajectory.
///
/// A run of [`Simulator::run`] is a deterministic function of the
/// simulator, its [`SimConfig`] and the sequence of verdicts its
/// [`FaultModel`] returns. The model's contract (points 1–3 on
/// [`FaultModel`]) makes every verdict a pure, order-independent function
/// of its `(task, instance, attempt)` query. So two profiles whose verdicts
/// agree on a prefix face the same next query, and two profiles that agree
/// on every query the engine asks get the same result.
///
/// The memo is a binary decision trie over those answers, path-compressed.
/// Each recorded trajectory is stored once, as the tail of steps it does
/// not share with an earlier one: a step is a query (one byte indexing the
/// memo's table of distinct queries) and the verdict that trajectory
/// received, and the tail ends in a leaf, the slot of what the caller keeps
/// of the run's [`SimResult`]. Equal values share one slot. Where a later
/// trajectory answers a step with the other verdict, a fork entry leads
/// from that step to the later trajectory's tail. A profile walks the trie
/// from the first tail, asking its own fault model each step's query, and
/// a leaf answers it without simulating. A step whose other verdict has no
/// fork is a miss: the profile is simulated once through a recording
/// wrapper around its fault model, and the recorded path is inserted.
///
/// Memory is bounded by a fixed byte budget, independent of the number of
/// profiles: once a path no longer fits, misses are simulated without
/// recording. Who fills the memo (and in which order) changes only how
/// many runs are simulated, never what any run returns.
///
/// One memo serves one simulator, one [`SimConfig`] and one `keep`
/// function: every [`TrajectoryMemo::run`] on it must pass the same ones,
/// since a leaf stores `keep`'s value for a trajectory of that simulation.
/// The fault models may differ (one per profile), provided each obeys the
/// [`FaultModel`] contract.
///
/// The memo is shared by reference between threads: walks take a read
/// lock and return a leaf slot, which writes nothing else the threads
/// share; only a miss that records takes the write lock to insert.
///
/// # Examples
///
/// ```
/// use mcmap_hardening::{harden, HardeningPlan, TaskHardening};
/// use mcmap_model::{AppSet, Architecture, ExecBounds, ProcId, ProcKind, Processor, Task,
///     TaskGraph, Time};
/// use mcmap_sched::{uniform_policies, Mapping, SchedPolicy};
/// use mcmap_sim::{RandomFaults, SimConfig, Simulator, TrajectoryMemo};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let arch = Architecture::builder()
/// #     .homogeneous(1, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-4))
/// #     .build()?;
/// # let g = TaskGraph::builder("g", Time::from_ticks(1_000))
/// #     .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(100))))
/// #     .build()?;
/// # let apps = AppSet::new(vec![g])?;
/// # let mut plan = HardeningPlan::unhardened(&apps);
/// # plan.set_by_flat_index(0, TaskHardening::Reexec(1));
/// # let hsys = harden(&apps, &plan, &arch)?;
/// # let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0)])?;
/// let sim = Simulator::new(&hsys, &arch, &mapping,
///     uniform_policies(1, SchedPolicy::FixedPriorityPreemptive));
/// let cfg = SimConfig::default();
/// let faults = RandomFaults::new(&hsys, &arch, &mapping, 0).with_boost(50.0);
/// let memo = TrajectoryMemo::new();
/// for seed in 0..100 {
///     let answer = memo.run(&sim, &cfg, &mut faults.profile(seed), |r| r.app_wcrt[0]);
///     let wcrt = *memo.leaves().get(&answer);
///     assert_eq!(wcrt, sim.run(&cfg, &mut faults.profile(seed)).app_wcrt[0]);
/// }
/// // One task with one re-execution: at most three trajectories.
/// assert!(memo.simulated() <= 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TrajectoryMemo<V> {
    trie: RwLock<Trie<V>>,
    simulated: AtomicU64,
}

impl<V: PartialEq> Default for TrajectoryMemo<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: PartialEq> TrajectoryMemo<V> {
    /// An empty memo with the fixed byte budget.
    pub fn new() -> Self {
        Self::with_byte_budget(BYTE_BUDGET)
    }

    /// An empty memo holding at most `bytes` bytes. Production code uses
    /// [`TrajectoryMemo::new`]; tests pass a tiny budget so that the
    /// full-memo path runs.
    #[doc(hidden)]
    pub fn with_byte_budget(bytes: usize) -> Self {
        // Stream offsets and leaf slots are stored as `u32`.
        assert!(
            bytes <= u32::MAX as usize,
            "byte budget exceeds the offset encoding"
        );
        TrajectoryMemo {
            trie: RwLock::new(Trie {
                stream: Vec::new(),
                forks: Vec::new(),
                queries: Vec::new(),
                leaves: Vec::new(),
                budget: bytes,
                full: false,
            }),
            simulated: AtomicU64::new(0),
        }
    }

    /// `keep(sim.run(config, faults))`, answered from the memo when a run
    /// with the same fault trajectory was recorded before.
    ///
    /// # Panics
    ///
    /// Panics if another thread panicked while inserting into the memo, or
    /// when two runs with equal verdicts diverged, which the determinism
    /// the memo rests on rules out.
    pub fn run(
        &self,
        sim: &Simulator<'_>,
        config: &SimConfig,
        faults: &mut dyn FaultModel,
        keep: impl FnOnce(SimResult) -> V,
    ) -> Answer<V> {
        let full = {
            let trie = self.trie.read().expect(POISONED);
            if let Some(slot) = trie.lookup(faults) {
                return Answer::Leaf(slot as u32);
            }
            trie.full
        };
        self.simulated.fetch_add(1, Ordering::Relaxed);
        if full {
            return Answer::Unrecorded(Box::new(keep(sim.run(config, faults))));
        }
        let mut rec = Recording {
            inner: faults,
            path: Vec::with_capacity(64),
            recordable: true,
        };
        let value = keep(sim.run(config, &mut rec));
        if !rec.recordable {
            return Answer::Unrecorded(Box::new(value));
        }
        match self.trie.write().expect(POISONED).insert(&rec.path, value) {
            Ok(slot) => Answer::Leaf(slot as u32),
            Err(value) => Answer::Unrecorded(Box::new(value)),
        }
    }

    /// The leaf slots, to read answers with. Holds the read lock until
    /// dropped: a [`TrajectoryMemo::run`] on the same thread meanwhile may
    /// deadlock.
    ///
    /// # Panics
    ///
    /// Panics if another thread panicked while inserting into the memo.
    pub fn leaves(&self) -> Leaves<'_, V> {
        Leaves(self.trie.read().expect(POISONED))
    }

    /// Runs simulated so far (the misses); every other
    /// [`TrajectoryMemo::run`] was answered from the memo.
    pub fn simulated(&self) -> u64 {
        self.simulated.load(Ordering::Relaxed)
    }

    /// Bytes in use (at most the fixed budget): the stream, the forks, the
    /// query table and one `V` per distinct value; heap a `V` owns is not
    /// counted.
    pub fn bytes(&self) -> usize {
        self.trie.read().expect(POISONED).bytes()
    }

    /// Whether a path did not fit the budget, so that later misses are
    /// simulated without recording.
    pub fn is_full(&self) -> bool {
        self.trie.read().expect(POISONED).full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScriptedFaults;

    /// Step `i` of every test path asks task `i`, so equal verdict
    /// prefixes always face the same next query.
    fn path(verdicts: &[bool]) -> Vec<(Query, bool)> {
        verdicts
            .iter()
            .enumerate()
            .map(|(i, &v)| (Query::new(HTaskId::new(i), 0, 0).unwrap(), v))
            .collect()
    }

    /// A fault model answering `path(verdicts)`.
    fn faults(verdicts: &[bool]) -> ScriptedFaults {
        (0..verdicts.len())
            .filter(|&i| verdicts[i])
            .fold(ScriptedFaults::new(), |f, i| {
                f.with_fault(HTaskId::new(i), 0, 0)
            })
    }

    fn trie(budget: usize) -> Trie<u32> {
        TrajectoryMemo::with_byte_budget(budget)
            .trie
            .into_inner()
            .unwrap()
    }

    fn lookup(t: &Trie<u32>, verdicts: &[bool]) -> Option<u32> {
        t.lookup(&mut faults(verdicts)).map(|slot| t.leaves[slot])
    }

    const F: bool = false;
    const T: bool = true;

    #[test]
    fn tails_fork_at_their_first_middle_and_last_step() {
        let mut t = trie(BYTE_BUDGET);
        assert_eq!(t.insert(&path(&[F, F, F, F]), 10), Ok(0));
        // One step byte per query, then the leaf record.
        assert_eq!(t.stream.len(), 4 + 2);
        for (verdicts, value) in [
            (&[T][..], 11),
            (&[F, F, T, F, F], 12),
            (&[F, F, F, T, F], 13),
            // A fork inside a forked tail.
            (&[F, F, T, F, T], 14),
        ] {
            assert!(lookup(&t, verdicts).is_none(), "{verdicts:?}");
            t.insert(&path(verdicts), value).unwrap();
        }
        let steps: Vec<u32> = t.forks.iter().map(|&(step, _)| step).collect();
        assert_eq!(steps, [0, 2, 3, 6 + 2 + 1]);
        for (verdicts, value) in [
            (&[F, F, F, F][..], 10),
            (&[T], 11),
            (&[F, F, T, F, F], 12),
            (&[F, F, F, T, F], 13),
            (&[F, F, T, F, T], 14),
        ] {
            assert_eq!(lookup(&t, verdicts), Some(value), "{verdicts:?}");
            // Recording a path again finds its leaf.
            let slot = t.insert(&path(verdicts), value).unwrap();
            assert_eq!(t.leaves[slot], value);
        }
        assert!(lookup(&t, &[F, T]).is_none());
        assert!(lookup(&t, &[F, F, F, T, T]).is_none());
    }

    #[test]
    fn a_tail_beyond_the_budget_is_not_recorded() {
        let first = path(&[F, F, F, F, F, F]);
        // The first path, its leaf slot and its six queries.
        let used = 6 + 2 + size_of::<u32>() + 6 * size_of::<Query>();
        let mut t = trie(used + FORK_BYTES + 3);
        assert_eq!(t.insert(&first, 1), Ok(0));
        assert_eq!(t.bytes(), used);
        // A fork at step 1 whose four-step tail and new leaf do not fit.
        assert_eq!(t.insert(&path(&[F, T, F, F, F, F]), 2), Err(2));
        assert!(t.full);
        assert_eq!(t.bytes(), used);
        assert!(t.forks.is_empty());
        // A fork at the last step, into an existing value, fits.
        assert_eq!(t.insert(&path(&[F, F, F, F, F, T]), 1), Ok(0));
        assert_eq!(t.bytes(), used + FORK_BYTES + 2);
        assert_eq!(lookup(&t, &[F, F, F, F, F, F]), Some(1));
        assert_eq!(lookup(&t, &[F, F, F, F, F, T]), Some(1));
        assert!(lookup(&t, &[F, T, F, F, F, F]).is_none());
    }

    #[test]
    fn equal_values_share_one_leaf_slot() {
        let mut t = trie(BYTE_BUDGET);
        assert_eq!(t.insert(&path(&[F, F]), 7), Ok(0));
        assert_eq!(t.insert(&path(&[T]), 7), Ok(0));
        assert_eq!(t.insert(&path(&[F, T]), 8), Ok(1));
        assert_eq!(t.leaves, [7, 8]);
    }

    #[test]
    fn wide_queries_and_slots_round_trip() {
        // 300 distinct queries: indices from 126 on take a varint.
        let long = vec![F; 300];
        let mut t = trie(usize::MAX >> 32);
        t.insert(&path(&long), 0).unwrap();
        for k in 1..200 {
            let mut fork = long.clone();
            fork[k] = T;
            t.insert(&path(&fork), k as u32).unwrap();
        }
        assert_eq!(t.leaves.len(), 200);
        assert_eq!(lookup(&t, &long), Some(0));
        for k in 1..200 {
            let mut fork = long.clone();
            fork[k] = T;
            assert_eq!(lookup(&t, &fork), Some(k as u32));
        }
    }

    #[test]
    #[should_panic(expected = "equal fault verdicts led the simulator to different queries")]
    fn a_different_query_after_an_equal_prefix_panics() {
        let mut t = trie(BYTE_BUDGET);
        t.insert(&path(&[F, F]), 0).unwrap();
        let mut other = path(&[F, F]);
        other[1].0 = Query::new(HTaskId::new(9), 0, 0).unwrap();
        let _ = t.insert(&other, 1);
    }

    #[test]
    #[should_panic(expected = "a simulation ended where an equal one went on")]
    fn a_shorter_run_with_equal_verdicts_panics() {
        let mut t = trie(BYTE_BUDGET);
        t.insert(&path(&[F, F]), 0).unwrap();
        let _ = t.insert(&path(&[F]), 1);
    }

    #[test]
    #[should_panic(expected = "a simulation went on where an equal one ended")]
    fn a_longer_run_with_equal_verdicts_panics() {
        let mut t = trie(BYTE_BUDGET);
        t.insert(&path(&[F, F]), 0).unwrap();
        let _ = t.insert(&path(&[F, F, F]), 1);
    }
}
