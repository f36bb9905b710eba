//! Trajectory memo: each distinct fault trajectory of a Monte-Carlo
//! campaign is simulated once (see [`TrajectoryMemo`]).

use crate::{FaultModel, SimConfig, SimResult, Simulator};
use mcmap_hardening::HTaskId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Nodes a memo may hold. 2048 nodes of 16 bytes are 32 KiB per memo; at
/// about 40 queries per run they keep the most frequent trajectories of a
/// point (the fault-free one first) while the rare ones are simulated.
const NODE_BUDGET: usize = 2048;

/// Marks an edge that leads to a leaf; the other bits index the leaf.
const LEAF: u32 = 1 << 31;

/// Widest task index a node can store (the attempt takes the top 8 bits).
const MAX_TASK: usize = (1 << 24) - 1;

/// An edge of the trie: open (`0`), node `n` (`n + 1`), or leaf `k`
/// (`LEAF | k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Edge {
    Open,
    Node(usize),
    Leaf(usize),
}

impl Edge {
    fn decode(e: u32) -> Edge {
        match e {
            0 => Edge::Open,
            e if e & LEAF != 0 => Edge::Leaf((e & !LEAF) as usize),
            e => Edge::Node(e as usize - 1),
        }
    }

    fn node(n: usize) -> u32 {
        n as u32 + 1
    }

    fn leaf(k: usize) -> u32 {
        k as u32 | LEAF
    }
}

/// One fault-oracle query, packed: the task index in the low 24 bits and
/// the attempt in the high 8, plus the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Query {
    task_attempt: u32,
    instance: u32,
}

impl Query {
    /// Packs a query, or `None` when it does not fit a node.
    fn pack(task: HTaskId, instance: u64, attempt: u8) -> Option<Query> {
        if task.index() > MAX_TASK {
            return None;
        }
        Some(Query {
            task_attempt: task.index() as u32 | (attempt as u32) << 24,
            instance: u32::try_from(instance).ok()?,
        })
    }

    fn ask(self, faults: &mut dyn FaultModel) -> bool {
        faults.faulty(
            HTaskId::new((self.task_attempt & MAX_TASK as u32) as usize),
            self.instance as u64,
            (self.task_attempt >> 24) as u8,
        )
    }
}

/// A decision node.
#[derive(Debug, Clone, Copy)]
struct Node {
    query: Query,
    /// The edge taken on verdict `false` (index 0) and `true` (index 1).
    next: [u32; 2],
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

/// Where an edge is stored: the root slot or one edge of a node.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Root,
    Child(usize, bool),
}

#[derive(Debug)]
struct Trie<V> {
    root: u32,
    nodes: Vec<Node>,
    leaves: Vec<V>,
    budget: usize,
    /// Set when a path did not fit: later misses are not recorded.
    full: bool,
}

impl<V> Trie<V> {
    fn edge(&self, slot: Slot) -> u32 {
        match slot {
            Slot::Root => self.root,
            Slot::Child(n, v) => self.nodes[n].next[v as usize],
        }
    }

    fn set(&mut self, slot: Slot, e: u32) {
        match slot {
            Slot::Root => self.root = e,
            Slot::Child(n, v) => self.nodes[n].next[v as usize] = e,
        }
    }

    /// Walks the trie with `faults`' answers: the leaf reached, or `None`
    /// at an open edge.
    fn lookup(&self, faults: &mut dyn FaultModel) -> Option<&V> {
        let mut e = self.root;
        loop {
            match Edge::decode(e) {
                Edge::Open => return None,
                Edge::Leaf(k) => return Some(&self.leaves[k]),
                Edge::Node(n) => {
                    let node = &self.nodes[n];
                    e = node.next[node.query.ask(faults) as usize];
                }
            }
        }
    }

    /// Inserts a recorded path ending in `value`, unless another run
    /// already inserted it or its new nodes exceed the budget.
    ///
    /// # Panics
    ///
    /// Panics when the path contradicts the trie: an equal verdict prefix
    /// led to a different query or a different run length, which breaks
    /// the determinism the memo rests on.
    fn insert(&mut self, path: &[(Query, bool)], value: &V)
    where
        V: Clone,
    {
        let mut slot = Slot::Root;
        for (i, &(query, verdict)) in path.iter().enumerate() {
            match Edge::decode(self.edge(slot)) {
                Edge::Node(n) => {
                    assert_eq!(
                        self.nodes[n].query, query,
                        "equal fault verdicts led the simulator to different queries"
                    );
                    slot = Slot::Child(n, verdict);
                }
                Edge::Leaf(_) => panic!("a simulation ended where an equal one went on"),
                Edge::Open => {
                    let rest = &path[i..];
                    if self.nodes.len() + rest.len() > self.budget {
                        self.full = true;
                        return;
                    }
                    for &(query, verdict) in rest {
                        let n = self.nodes.len();
                        self.nodes.push(Node {
                            query,
                            next: [0; 2],
                        });
                        self.set(slot, Edge::node(n));
                        slot = Slot::Child(n, verdict);
                    }
                    break;
                }
            }
        }
        match Edge::decode(self.edge(slot)) {
            Edge::Open => {
                self.set(slot, Edge::leaf(self.leaves.len()));
                self.leaves.push(value.clone());
            }
            Edge::Leaf(_) => {}
            Edge::Node(_) => panic!("a simulation went on where an equal one ended"),
        }
    }
}

/// A fault model that records every query and verdict of one run.
struct Recording<'f> {
    inner: &'f mut dyn FaultModel,
    path: Vec<(Query, bool)>,
    /// Cleared when a query does not fit a node: the path is not stored.
    packable: bool,
}

impl FaultModel for Recording<'_> {
    fn faulty(&mut self, task: HTaskId, instance: u64, attempt: u8) -> bool {
        let verdict = self.inner.faulty(task, instance, attempt);
        match Query::pack(task, instance, attempt) {
            Some(q) if self.packable => self.path.push((q, verdict)),
            _ => self.packable = false,
        }
        verdict
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
/// The memo is a binary decision trie over those answers. An internal node
/// is one query; its two edges are the verdicts `false` and `true`; a leaf
/// holds what the caller keeps of the run's [`SimResult`]. A profile walks
/// the trie from the root, asking its own fault model each node's query,
/// and a leaf answers it without simulating. An open edge is a miss: the
/// profile is simulated once through a recording wrapper around its fault
/// model, and the recorded path is inserted.
///
/// Memory is bounded by a fixed node budget, independent of the number of
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
/// The memo is shared by reference between threads: lookups take a read
/// lock, and only a miss that records takes the write lock to insert.
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
///     let wcrt = memo.run(&sim, &cfg, &mut faults.profile(seed), |r| r.app_wcrt[0]);
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

impl<V: Clone> Default for TrajectoryMemo<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> TrajectoryMemo<V> {
    /// An empty memo with the fixed node budget.
    pub fn new() -> Self {
        Self::with_node_budget(NODE_BUDGET)
    }

    /// An empty memo holding at most `nodes` nodes. Production code uses
    /// [`TrajectoryMemo::new`]; tests pass a tiny budget so that the
    /// full-memo path runs.
    #[doc(hidden)]
    pub fn with_node_budget(nodes: usize) -> Self {
        // Leaves are at most two per node plus the root.
        assert!(
            nodes < (LEAF / 2) as usize,
            "node budget exceeds the edge encoding"
        );
        TrajectoryMemo {
            trie: RwLock::new(Trie {
                root: 0,
                nodes: Vec::with_capacity(nodes),
                leaves: Vec::new(),
                budget: nodes,
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
    ) -> V {
        let full = {
            let trie = self.trie.read().expect("trajectory memo poisoned");
            if let Some(v) = trie.lookup(faults) {
                return v.clone();
            }
            trie.full
        };
        self.simulated.fetch_add(1, Ordering::Relaxed);
        if full {
            return keep(sim.run(config, faults));
        }
        let mut rec = Recording {
            inner: faults,
            path: Vec::with_capacity(64),
            packable: true,
        };
        let value = keep(sim.run(config, &mut rec));
        if rec.packable {
            self.trie
                .write()
                .expect("trajectory memo poisoned")
                .insert(&rec.path, &value);
        }
        value
    }

    /// Runs simulated so far (the misses); every other
    /// [`TrajectoryMemo::run`] was answered from the memo.
    pub fn simulated(&self) -> u64 {
        self.simulated.load(Ordering::Relaxed)
    }

    /// Trie nodes in use (at most the fixed budget).
    pub fn nodes(&self) -> usize {
        self.trie
            .read()
            .expect("trajectory memo poisoned")
            .nodes
            .len()
    }
}
