//! The DSE's sampling space over the chromosome (Fig. 4 of the paper):
//! random and clustered sampling, crossover, mutation and decoding.
//!
//! The chromosome types themselves ([`Genome`], [`TaskGene`],
//! [`GeneHardening`]) are defined in `mcmap-hardening` and re-exported
//! here, so the linter checks the same type the DSE evolves.

use mcmap_hardening::HardeningPlan;
pub use mcmap_hardening::{GeneHardening, Genome, TaskGene};
use mcmap_model::{AppId, AppSet, Architecture, ProcId};
use rand::seq::SliceRandom;
use rand::RngCore;

/// The sampling space of chromosomes for one (application set, architecture)
/// pair, plus the genetic operators over it.
#[derive(Debug, Clone)]
pub struct GenomeSpace {
    num_procs: usize,
    /// Kind-compatible processors per flat task index.
    allowed: Vec<Vec<ProcId>>,
    /// Owning application per flat task index.
    app_of: Vec<AppId>,
    /// Whether the owning application is droppable, per flat task index.
    task_droppable: Vec<bool>,
    droppable: Vec<AppId>,
    /// Maximum re-execution degree `k`.
    pub max_reexec: u8,
    /// Maximum number of additional replicas per task.
    pub max_replicas: u8,
}

impl GenomeSpace {
    /// Builds the space, precomputing per-task kind-compatible processors.
    pub fn new(apps: &AppSet, arch: &Architecture) -> Self {
        let allowed = apps
            .task_refs()
            .iter()
            .map(|&r| {
                let task = apps.task(r);
                arch.processors()
                    .filter(|(_, p)| task.runs_on(p.kind))
                    .map(|(id, _)| id)
                    .collect()
            })
            .collect();
        GenomeSpace {
            num_procs: arch.num_processors(),
            allowed,
            app_of: apps.task_refs().iter().map(|r| r.app).collect(),
            task_droppable: apps
                .task_refs()
                .iter()
                .map(|r| apps.app(r.app).criticality().is_droppable())
                .collect(),
            droppable: apps.droppable_apps().collect(),
            max_reexec: 2,
            max_replicas: 2,
        }
    }

    /// Caps the re-execution degree explored.
    pub fn with_max_reexec(mut self, k: u8) -> Self {
        self.max_reexec = k;
        self
    }

    /// Caps the number of additional replicas explored.
    pub fn with_max_replicas(mut self, n: u8) -> Self {
        self.max_replicas = n;
        self
    }

    /// The droppable applications, in keep-bit order.
    pub fn droppable_apps(&self) -> &[AppId] {
        &self.droppable
    }

    /// The application owning the task at `flat` index.
    pub fn app_of(&self, flat: usize) -> AppId {
        self.app_of[flat]
    }

    /// Number of processors in the platform.
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Kind-compatible processors of one task (by flat index).
    pub fn allowed_procs(&self, flat: usize) -> &[ProcId] {
        &self.allowed[flat]
    }

    fn random_proc(&self, rng: &mut dyn RngCore) -> ProcId {
        ProcId::new((rng.next_u32() as usize) % self.num_procs)
    }

    fn random_allowed(&self, flat: usize, rng: &mut dyn RngCore) -> ProcId {
        *self.allowed[flat]
            .choose(rng)
            .expect("model validation guarantees every task runs somewhere")
    }

    fn random_hardening(&self, flat: usize, rng: &mut dyn RngCore) -> GeneHardening {
        match rng.next_u32() % 4 {
            0 | 1 => GeneHardening::None,
            2 if self.max_reexec > 0 => {
                GeneHardening::Reexec(1 + (rng.next_u32() as u8) % self.max_reexec)
            }
            3 if self.max_replicas > 0 => {
                let n = 1 + (rng.next_u32() as usize) % self.max_replicas as usize;
                let replicas: Vec<ProcId> =
                    (0..n).map(|_| self.random_allowed(flat, rng)).collect();
                if rng.next_u32().is_multiple_of(2) {
                    GeneHardening::Active {
                        replicas,
                        voter: self.random_proc(rng),
                    }
                } else {
                    GeneHardening::Passive {
                        actives: replicas,
                        standbys: vec![self.random_allowed(flat, rng)],
                        voter: self.random_proc(rng),
                    }
                }
            }
            _ => GeneHardening::None,
        }
    }

    /// Samples a uniform random chromosome (at least one allocated
    /// processor is guaranteed).
    pub fn random(&self, rng: &mut dyn RngCore) -> Genome {
        let mut alloc: Vec<bool> = (0..self.num_procs)
            .map(|_| rng.next_u32() % 2 == 1)
            .collect();
        if !alloc.iter().any(|&b| b) {
            let i = (rng.next_u32() as usize) % self.num_procs;
            alloc[i] = true;
        }
        let keep = self
            .droppable
            .iter()
            .map(|_| rng.next_u32() % 2 == 1)
            .collect();
        let genes = (0..self.allowed.len())
            .map(|flat| TaskGene {
                binding: self.random_allowed(flat, rng),
                hardening: self.random_hardening(flat, rng),
            })
            .collect();
        Genome { alloc, keep, genes }
    }

    /// Samples a *clustered* heuristic chromosome: every processor
    /// allocated, each application's tasks packed onto one randomly chosen
    /// (per-task kind-compatible) processor, critical tasks hardened by
    /// re-execution, droppable applications dropped with probability ½.
    /// Mixing a few of these into the initial population gives the GA a
    /// feasible region to improve on — pure random mappings of large
    /// systems are almost never schedulable.
    pub fn clustered(&self, rng: &mut dyn RngCore) -> Genome {
        let alloc = vec![true; self.num_procs];
        let keep = self
            .droppable
            .iter()
            .map(|_| rng.next_u32() % 2 == 1)
            .collect();
        // One preferred processor per application; a random permutation
        // keeps applications apart as long as processors are available.
        let num_apps = self
            .app_of
            .iter()
            .map(|a| a.index())
            .max()
            .map_or(0, |m| m + 1);
        let mut perm: Vec<usize> = (0..self.num_procs).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, (rng.next_u32() as usize) % (i + 1));
        }
        let home: Vec<ProcId> = (0..num_apps)
            .map(|a| ProcId::new(perm[a % self.num_procs]))
            .collect();
        let genes = (0..self.allowed.len())
            .map(|flat| {
                let preferred = home[self.app_of[flat].index()];
                let binding = if self.allowed[flat].contains(&preferred) {
                    preferred
                } else {
                    self.random_allowed(flat, rng)
                };
                let hardening = if self.task_droppable[flat] || self.max_reexec == 0 {
                    GeneHardening::None
                } else {
                    // The mildest hardening: deadline-friendliest.
                    GeneHardening::Reexec(1)
                };
                TaskGene { binding, hardening }
            })
            .collect();
        Genome { alloc, keep, genes }
    }

    /// Section-wise uniform crossover.
    pub fn crossover(&self, a: &Genome, b: &Genome, rng: &mut dyn RngCore) -> Genome {
        let alloc = a
            .alloc
            .iter()
            .zip(&b.alloc)
            .map(|(&x, &y)| {
                if rng.next_u32().is_multiple_of(2) {
                    x
                } else {
                    y
                }
            })
            .collect();
        let keep = a
            .keep
            .iter()
            .zip(&b.keep)
            .map(|(&x, &y)| {
                if rng.next_u32().is_multiple_of(2) {
                    x
                } else {
                    y
                }
            })
            .collect();
        let genes = a
            .genes
            .iter()
            .zip(&b.genes)
            .map(|(x, y)| {
                if rng.next_u32().is_multiple_of(2) {
                    x.clone()
                } else {
                    y.clone()
                }
            })
            .collect();
        Genome { alloc, keep, genes }
    }

    /// Point mutation: flips one allocation bit, one keep bit, rebinds one
    /// task, or re-randomizes one task's hardening.
    pub fn mutate(&self, g: &mut Genome, rng: &mut dyn RngCore) {
        match rng.next_u32() % 4 {
            0 => {
                let i = (rng.next_u32() as usize) % g.alloc.len();
                g.alloc[i] = !g.alloc[i];
            }
            1 if !g.keep.is_empty() => {
                let i = (rng.next_u32() as usize) % g.keep.len();
                g.keep[i] = !g.keep[i];
            }
            2 => {
                let i = (rng.next_u32() as usize) % g.genes.len();
                g.genes[i].binding = self.random_allowed(i, rng);
            }
            _ => {
                let i = (rng.next_u32() as usize) % g.genes.len();
                g.genes[i].hardening = self.random_hardening(i, rng);
            }
        }
    }

    /// Decodes the chromosome into a hardening plan, the dropped application
    /// set `T_d`, and the per-original-task binding vector.
    pub fn decode(&self, g: &Genome) -> (HardeningPlan, Vec<AppId>, Vec<ProcId>) {
        let mut plan_entries = Vec::with_capacity(g.genes.len());
        for gene in &g.genes {
            plan_entries.push(gene.hardening.to_task_hardening());
        }
        let dropped: Vec<AppId> = self
            .droppable
            .iter()
            .zip(&g.keep)
            .filter(|(_, &kept)| !kept)
            .map(|(&a, _)| a)
            .collect();
        let bindings: Vec<ProcId> = g.genes.iter().map(|gene| gene.binding).collect();
        (HardeningPlan::from_entries(plan_entries), dropped, bindings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_model::{Criticality, ExecBounds, ProcKind, Processor, Task, TaskGraph, Time};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (AppSet, Architecture) {
        let arch = Architecture::builder()
            .homogeneous(4, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
            .build()
            .unwrap();
        let hi = TaskGraph::builder("hi", Time::from_ticks(100))
            .criticality(Criticality::NonDroppable {
                max_failure_rate: 1e-3,
            })
            .task(Task::new("a").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))))
            .task(Task::new("b").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))))
            .channel(0, 1, 8)
            .build()
            .unwrap();
        let lo = TaskGraph::builder("lo", Time::from_ticks(200))
            .criticality(Criticality::Droppable { service: 2.0 })
            .task(Task::new("c").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(20))))
            .build()
            .unwrap();
        (AppSet::new(vec![hi, lo]).unwrap(), arch)
    }

    #[test]
    fn random_genomes_are_structurally_valid() {
        let (apps, arch) = fixture();
        let space = GenomeSpace::new(&apps, &arch);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let g = space.random(&mut rng);
            assert_eq!(g.alloc.len(), 4);
            assert_eq!(g.keep.len(), 1);
            assert_eq!(g.genes.len(), 3);
            assert!(g.alloc.iter().any(|&b| b), "at least one PE allocated");
            for (flat, gene) in g.genes.iter().enumerate() {
                assert!(space.allowed_procs(flat).contains(&gene.binding));
            }
        }
    }

    #[test]
    fn decode_produces_consistent_sections() {
        let (apps, arch) = fixture();
        let space = GenomeSpace::new(&apps, &arch);
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = space.random(&mut rng);
        g.keep = vec![false];
        g.genes[0].hardening = GeneHardening::Reexec(2);
        let (plan, dropped, bindings) = space.decode(&g);
        assert_eq!(dropped, vec![AppId::new(2 - 1)]);
        assert_eq!(plan.by_flat_index(0).reexecutions, 2);
        assert_eq!(bindings.len(), 3);

        g.keep = vec![true];
        let (_, dropped, _) = space.decode(&g);
        assert!(dropped.is_empty());
    }

    #[test]
    fn crossover_mixes_sections_only_from_parents() {
        let (apps, arch) = fixture();
        let space = GenomeSpace::new(&apps, &arch);
        let mut rng = StdRng::seed_from_u64(3);
        let a = space.random(&mut rng);
        let b = space.random(&mut rng);
        for _ in 0..20 {
            let child = space.crossover(&a, &b, &mut rng);
            for (i, gene) in child.genes.iter().enumerate() {
                assert!(gene == &a.genes[i] || gene == &b.genes[i]);
            }
            for (i, &bit) in child.alloc.iter().enumerate() {
                assert!(bit == a.alloc[i] || bit == b.alloc[i]);
            }
        }
    }

    #[test]
    fn mutation_changes_something_eventually() {
        let (apps, arch) = fixture();
        let space = GenomeSpace::new(&apps, &arch);
        let mut rng = StdRng::seed_from_u64(4);
        let original = space.random(&mut rng);
        let mut mutated = original.clone();
        let mut changed = false;
        for _ in 0..20 {
            space.mutate(&mut mutated, &mut rng);
            if mutated != original {
                changed = true;
                break;
            }
        }
        assert!(changed);
    }

    #[test]
    fn random_hardening_respects_caps() {
        let (apps, arch) = fixture();
        let space = GenomeSpace::new(&apps, &arch)
            .with_max_reexec(1)
            .with_max_replicas(1);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let g = space.random(&mut rng);
            for gene in &g.genes {
                match &gene.hardening {
                    GeneHardening::Reexec(k) => assert!(*k == 1),
                    GeneHardening::Active { replicas, .. } => assert_eq!(replicas.len(), 1),
                    GeneHardening::Passive {
                        actives, standbys, ..
                    } => {
                        assert_eq!(actives.len(), 1);
                        assert_eq!(standbys.len(), 1);
                    }
                    GeneHardening::None => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod clustered_tests {
    use super::*;
    use mcmap_model::{Criticality, ExecBounds, ProcKind, Processor, Task, TaskGraph, Time};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (AppSet, Architecture) {
        let arch = Architecture::builder()
            .homogeneous(4, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
            .build()
            .unwrap();
        let hi = TaskGraph::builder("hi", Time::from_ticks(100))
            .criticality(Criticality::NonDroppable {
                max_failure_rate: 1e-3,
            })
            .task(Task::new("a").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5))))
            .task(Task::new("b").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5))))
            .channel(0, 1, 8)
            .build()
            .unwrap();
        let lo = TaskGraph::builder("lo", Time::from_ticks(200))
            .criticality(Criticality::Droppable { service: 2.0 })
            .task(Task::new("c").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5))))
            .build()
            .unwrap();
        (AppSet::new(vec![hi, lo]).unwrap(), arch)
    }

    #[test]
    fn clustered_allocates_everything_and_packs_apps() {
        let (apps, arch) = fixture();
        let space = GenomeSpace::new(&apps, &arch);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let g = space.clustered(&mut rng);
            assert!(g.alloc.iter().all(|&b| b));
            // Tasks of the same application share one processor.
            assert_eq!(g.genes[0].binding, g.genes[1].binding);
            // Critical tasks carry the mildest re-execution hardening.
            assert_eq!(g.genes[0].hardening, GeneHardening::Reexec(1));
            assert_eq!(g.genes[1].hardening, GeneHardening::Reexec(1));
            // Droppable tasks stay unhardened.
            assert_eq!(g.genes[2].hardening, GeneHardening::None);
        }
    }

    #[test]
    fn clustered_spreads_apps_over_distinct_processors() {
        let (apps, arch) = fixture();
        let space = GenomeSpace::new(&apps, &arch);
        let mut rng = StdRng::seed_from_u64(4);
        // Two apps, four processors: homes always differ (permutation).
        for _ in 0..20 {
            let g = space.clustered(&mut rng);
            assert_ne!(g.genes[0].binding, g.genes[2].binding);
        }
    }
}
