//! The DSE chromosome (Fig. 4 of the paper).
//!
//! A genotype consists of three sections:
//!
//! 1. **allocation** — one bit per processor (allocated or not);
//! 2. **(non-)droppable selection** — one bit per droppable application:
//!    set = the application is *kept* through critical mode, clear = it is
//!    dropped when the system goes critical;
//! 3. **binding/hardening** — per original task: the primary binding, the
//!    hardening technique (re-execution degree, or active/passive replica
//!    placements plus the voter placement).
//!
//! The chromosome lives next to [`TaskHardening`], the per-task decision a
//! gene decodes to, so the DSE (`mcmap-core`, which samples and varies
//! genomes) and the linter (`mcmap-lint`, which checks them) share one
//! definition.

use crate::TaskHardening;
use mcmap_model::ProcId;

/// Hardening section of one task gene. Unlike [`TaskHardening`] this is a
/// closed set of alternatives, mirroring the paper's per-task technique
/// choice.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GeneHardening {
    /// No hardening.
    None,
    /// Re-execution with `k ≥ 1` retries.
    Reexec(u8),
    /// Active replication: extra copies on the given processors, voter
    /// placement last.
    Active {
        /// Processors of the additional always-on copies.
        replicas: Vec<ProcId>,
        /// Voter placement.
        voter: ProcId,
    },
    /// Passive replication: one extra always-on copy and standbys.
    Passive {
        /// Processors of the additional always-on copies.
        actives: Vec<ProcId>,
        /// Processors of the on-demand standbys.
        standbys: Vec<ProcId>,
        /// Voter placement.
        voter: ProcId,
    },
}

impl GeneHardening {
    /// Converts to the hardening crate's per-task specification.
    pub fn to_task_hardening(&self) -> TaskHardening {
        match self {
            GeneHardening::None => TaskHardening::none(),
            GeneHardening::Reexec(k) => TaskHardening::reexecution(*k),
            GeneHardening::Active { replicas, voter } => {
                TaskHardening::active(replicas.clone(), *voter)
            }
            GeneHardening::Passive {
                actives,
                standbys,
                voter,
            } => TaskHardening::passive(actives.clone(), standbys.clone(), *voter),
        }
    }

    /// The re-execution budget `k` (0 unless re-execution hardened).
    pub fn reexecutions(&self) -> u8 {
        match self {
            GeneHardening::Reexec(k) => *k,
            _ => 0,
        }
    }

    /// Processors of the extra copies, primary excluded: the always-on
    /// copies first, then the standbys.
    pub fn bodies(&self) -> impl Iterator<Item = ProcId> + '_ {
        let (actives, standbys): (&[ProcId], &[ProcId]) = match self {
            GeneHardening::None | GeneHardening::Reexec(_) => (&[], &[]),
            GeneHardening::Active { replicas, .. } => (replicas, &[]),
            GeneHardening::Passive {
                actives, standbys, ..
            } => (actives, standbys),
        };
        actives.iter().chain(standbys).copied()
    }

    /// The voter placement, if replicated.
    pub fn voter(&self) -> Option<ProcId> {
        match self {
            GeneHardening::None | GeneHardening::Reexec(_) => None,
            GeneHardening::Active { voter, .. } | GeneHardening::Passive { voter, .. } => {
                Some(*voter)
            }
        }
    }

    /// Every processor referenced by this gene besides the primary
    /// binding: the [`bodies`](Self::bodies), then the voter.
    pub fn referenced_procs(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.bodies().chain(self.voter())
    }

    /// Mutable access to the placements of [`referenced_procs`]: the
    /// bodies in the same order, and the voter.
    ///
    /// [`referenced_procs`]: Self::referenced_procs
    pub fn placements_mut(&mut self) -> (impl Iterator<Item = &mut ProcId>, Option<&mut ProcId>) {
        let (actives, standbys, voter): (&mut [ProcId], &mut [ProcId], _) = match self {
            GeneHardening::None | GeneHardening::Reexec(_) => (&mut [], &mut [], None),
            GeneHardening::Active { replicas, voter } => (replicas, &mut [], Some(voter)),
            GeneHardening::Passive {
                actives,
                standbys,
                voter,
            } => (actives, standbys, Some(voter)),
        };
        (actives.iter_mut().chain(standbys.iter_mut()), voter)
    }
}

/// One task's gene: binding plus hardening.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TaskGene {
    /// Processor of the primary copy.
    pub binding: ProcId,
    /// Hardening decision.
    pub hardening: GeneHardening,
}

/// The complete chromosome.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Genome {
    /// Allocation bit per processor.
    pub alloc: Vec<bool>,
    /// Keep bit per *droppable* application (aligned with
    /// [`AppSet::droppable_apps`](mcmap_model::AppSet::droppable_apps), the
    /// DSE's keep-bit order): clear = dropped in critical mode.
    pub keep: Vec<bool>,
    /// Per-original-task genes, in flat-index order.
    pub genes: Vec<TaskGene>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    #[test]
    fn hardening_helpers_cover_every_variant() {
        let p = ProcId::new;
        let a = GeneHardening::Active {
            replicas: vec![p(1)],
            voter: p(0),
        };
        let h = a.to_task_hardening();
        assert!(h.replication.is_replicated());
        assert_eq!(h.replication.active_copies(), 2);
        assert_eq!(a.referenced_procs().collect::<Vec<_>>(), vec![p(1), p(0)]);
        let s = GeneHardening::Passive {
            actives: vec![p(1)],
            standbys: vec![p(2)],
            voter: p(3),
        };
        assert_eq!(s.bodies().collect::<Vec<_>>(), vec![p(1), p(2)]);
        assert_eq!(s.voter(), Some(p(3)));
        assert_eq!(s.referenced_procs().count(), 3);
        assert_eq!(GeneHardening::Reexec(2).reexecutions(), 2);
        for bare in [GeneHardening::None, GeneHardening::Reexec(1)] {
            assert_eq!(bare.referenced_procs().count(), 0);
            assert_eq!(bare.voter(), None);
        }
    }

    #[test]
    fn placements_mut_visits_bodies_then_voter() {
        let p = ProcId::new;
        let mut s = GeneHardening::Passive {
            actives: vec![p(1)],
            standbys: vec![p(2)],
            voter: p(3),
        };
        let (bodies, voter) = s.placements_mut();
        for b in bodies {
            *b = p(b.index() + 10);
        }
        *voter.unwrap() = p(0);
        assert_eq!(
            s.referenced_procs().collect::<Vec<_>>(),
            vec![p(11), p(12), p(0)]
        );
        let mut bare = GeneHardening::Reexec(1);
        let (bodies, voter) = bare.placements_mut();
        assert_eq!(bodies.count(), 0);
        assert!(voter.is_none());
    }

    /// The `Hash` and `Debug` streams of the chromosome seed repair, key
    /// the evaluation memo and break portfolio ties; a reordered field or
    /// variant would silently move every front. Both constants were
    /// recorded before the types moved into this crate.
    #[test]
    fn hash_and_debug_streams_are_pinned() {
        let p = ProcId::new;
        let gene = |binding, hardening| TaskGene { binding, hardening };
        let g = Genome {
            alloc: vec![true, false, true, true],
            keep: vec![false, true],
            genes: vec![
                gene(p(0), GeneHardening::None),
                gene(p(2), GeneHardening::Reexec(2)),
                gene(
                    p(3),
                    GeneHardening::Active {
                        replicas: vec![p(2), p(0)],
                        voter: p(3),
                    },
                ),
                gene(
                    p(0),
                    GeneHardening::Passive {
                        actives: vec![p(3)],
                        standbys: vec![p(2)],
                        voter: p(0),
                    },
                ),
            ],
        };
        let mut h = DefaultHasher::new();
        g.hash(&mut h);
        assert_eq!(h.finish(), 0x9fbb_2b29_6c7e_e3dc);
        assert_eq!(
            format!("{g:?}"),
            "Genome { alloc: [true, false, true, true], keep: [false, true], genes: [\
             TaskGene { binding: ProcId(0), hardening: None }, \
             TaskGene { binding: ProcId(2), hardening: Reexec(2) }, \
             TaskGene { binding: ProcId(3), hardening: Active { replicas: [ProcId(2), ProcId(0)], \
             voter: ProcId(3) } }, \
             TaskGene { binding: ProcId(0), hardening: Passive { actives: [ProcId(3)], \
             standbys: [ProcId(2)], voter: ProcId(0) } }] }"
        );
    }
}
