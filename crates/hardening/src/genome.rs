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
//! A gene's hardening section is a [`TaskHardening`], the plan entry it
//! decodes to, so the DSE (`mcmap-core`, which samples and varies genomes),
//! [`harden`](crate::harden) and the linter (`mcmap-lint`, which checks
//! genomes) read one definition.

use crate::TaskHardening;
use mcmap_model::ProcId;

/// One task's gene: binding plus hardening.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TaskGene {
    /// Processor of the primary copy.
    pub binding: ProcId,
    /// Hardening decision: the task's plan entry.
    pub hardening: TaskHardening,
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
                gene(p(0), TaskHardening::None),
                gene(p(2), TaskHardening::Reexec(2)),
                gene(
                    p(3),
                    TaskHardening::Active {
                        replicas: vec![p(2), p(0)],
                        voter: p(3),
                    },
                ),
                gene(
                    p(0),
                    TaskHardening::Passive {
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
