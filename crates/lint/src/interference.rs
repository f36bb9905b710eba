//! Static interference/dependence analysis over a mapped candidate.
//!
//! Given a chromosome ([`Genome`]) for a system, this pass builds the
//! **interference graph**: one node per application, one edge per pair of
//! applications that place work on a shared processor (primary bindings,
//! replicas, standbys, and voters all count — a preempted voter delays the
//! hardened task just like a preempted primary). On top of the graph it
//! computes, via a monotone closure, the set of applications an edit to one
//! application can reach: the WCRT backend couples tasks only through
//! shared-processor preemption (the fabric models contention-free constant
//! channel delays), so a change to one application's bounds or placement
//! can only cascade through shared-PE edges, transitively.
//!
//! The closure `F(S) = S ∪ neighbors(S)` is monotone on the subset lattice
//! (`S ⊆ T ⇒ F(S) ⊆ F(T)`), so iterating it from the seed terminates at the
//! least fixed point — the connected component(s) containing the seed.
//!
//! The graph feeds the MC012x coupling diagnostics and
//! `mcmap_cli lint --interference`.

use crate::diag::{Diagnostic, EntityRef, LintReport};
use mcmap_hardening::{GeneHardening, Genome};
use mcmap_model::{AppId, AppSet, Architecture, ProcId};

/// Name of the lint pass that surfaces interference diagnostics.
const PASS: &str = "interference";

/// The interference graph of one decoded candidate.
///
/// Built with [`InterferenceGraph::build`]; query with
/// [`closure`](InterferenceGraph::closure), render with
/// [`render_text`](InterferenceGraph::render_text),
/// [`to_json`](InterferenceGraph::to_json), or
/// [`to_dot`](InterferenceGraph::to_dot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterferenceGraph {
    num_procs: usize,
    /// Per-app placement set: every processor referenced by any gene of the
    /// app (binding + replicas + standbys + voter), sorted and deduplicated.
    placement: Vec<Vec<ProcId>>,
    /// Per-app adjacency (apps sharing at least one processor), sorted.
    adj: Vec<Vec<usize>>,
    /// Per-app droppable flag.
    droppable: Vec<bool>,
    /// Per-app "carries hardening" flag.
    hardened: Vec<bool>,
}

impl InterferenceGraph {
    /// Builds the interference graph of `genome` over `apps`/`arch`.
    ///
    /// Returns `None` when the genome's shape does not match the system
    /// (wrong gene, keep, or alloc count) — the genome-shape pass reports
    /// that as MC0109.
    pub fn build(apps: &AppSet, arch: &Architecture, genome: &Genome) -> Option<Self> {
        let num_apps = apps.num_apps();
        let num_procs = arch.num_processors();
        let droppable: Vec<bool> = apps
            .apps()
            .map(|(_, g)| g.criticality().is_droppable())
            .collect();
        let num_droppable = droppable.iter().filter(|&&d| d).count();
        if genome.genes.len() != apps.num_tasks()
            || genome.alloc.len() != num_procs
            || genome.keep.len() != num_droppable
        {
            return None;
        }

        let mut placement: Vec<Vec<ProcId>> = vec![Vec::new(); num_apps];
        let mut hardened = vec![false; num_apps];
        for (flat, gene) in genome.genes.iter().enumerate() {
            let a = apps.task_refs()[flat].app.index();
            placement[a].push(gene.binding);
            placement[a].extend(gene.hardening.referenced_procs());
            if gene.hardening != GeneHardening::None {
                hardened[a] = true;
            }
        }
        for p in &mut placement {
            p.sort_unstable();
            p.dedup();
        }

        // apps-per-processor index, then pairwise adjacency from it. Genes
        // may reference nonexistent processors on malformed genomes (the
        // genome pass reports those as MC0110); such placements still count
        // as shared when two apps name the same phantom processor.
        let mut apps_on: Vec<Vec<usize>> = vec![Vec::new(); num_procs];
        let mut phantom: Vec<(ProcId, Vec<usize>)> = Vec::new();
        for (a, procs) in placement.iter().enumerate() {
            for p in procs {
                if p.index() < num_procs {
                    apps_on[p.index()].push(a);
                } else {
                    match phantom.iter_mut().find(|(q, _)| q == p) {
                        Some((_, v)) => v.push(a),
                        None => phantom.push((*p, vec![a])),
                    }
                }
            }
        }
        apps_on.extend(phantom.into_iter().map(|(_, v)| v));
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); num_apps];
        for colocated in &apps_on {
            for &a in colocated {
                for &b in colocated {
                    if a != b {
                        adj[a].push(b);
                    }
                }
            }
        }
        for n in &mut adj {
            n.sort_unstable();
            n.dedup();
        }

        Some(InterferenceGraph {
            num_procs,
            placement,
            adj,
            droppable,
            hardened,
        })
    }

    /// Number of applications (graph nodes).
    pub fn num_apps(&self) -> usize {
        self.placement.len()
    }

    /// The placement set of one application: every processor referenced by
    /// any of its genes, sorted.
    pub fn placements(&self, app: AppId) -> &[ProcId] {
        &self.placement[app.index()]
    }

    /// Returns `true` when the two applications share at least one
    /// processor (an interference edge).
    pub fn interferes(&self, a: AppId, b: AppId) -> bool {
        a != b && self.adj[a.index()].binary_search(&b.index()).is_ok()
    }

    /// The monotone closure of `seeds` under shared-PE interference: the
    /// least fixed point of `F(S) = S ∪ neighbors(S)`, i.e. every
    /// application reachable from a seed through shared processors. Sorted.
    pub fn closure(&self, seeds: &[AppId]) -> Vec<AppId> {
        let mut in_set = vec![false; self.num_apps()];
        let mut work: Vec<usize> = Vec::new();
        for s in seeds {
            if !in_set[s.index()] {
                in_set[s.index()] = true;
                work.push(s.index());
            }
        }
        while let Some(a) = work.pop() {
            for &b in &self.adj[a] {
                if !in_set[b] {
                    in_set[b] = true;
                    work.push(b);
                }
            }
        }
        (0..self.num_apps())
            .filter(|&a| in_set[a])
            .map(AppId::new)
            .collect()
    }

    /// All interference edges as `(a, b, shared processors)` with `a < b`.
    pub fn edges(&self) -> Vec<(AppId, AppId, Vec<ProcId>)> {
        let mut edges = Vec::new();
        for a in 0..self.num_apps() {
            for &b in &self.adj[a] {
                if a < b {
                    let shared: Vec<ProcId> = self.placement[a]
                        .iter()
                        .filter(|p| self.placement[b].binary_search(p).is_ok())
                        .copied()
                        .collect();
                    edges.push((AppId::new(a), AppId::new(b), shared));
                }
            }
        }
        edges
    }

    /// Appends the MC012x coupling diagnostics to `r`:
    ///
    /// * `MC0120` (warning): three or more applications form a
    ///   fully-connected interference clique — an edit to any of them may
    ///   shift the response times of all of them.
    /// * `MC0121` (warning): a hardened non-droppable task shares a
    ///   processor with a droppable application — the hardening overhead
    ///   couples criticality levels, so dropping decisions and critical-app
    ///   response times can no longer be reasoned about independently.
    /// * `MC0122` (hint): an application shares no processor with any
    ///   other — an interference-free island.
    pub fn diagnose(&self, apps: &AppSet, genome: &Genome, r: &mut LintReport) {
        let n = self.num_apps();
        // MC0120: the whole app set forms a clique (pairwise shared PEs).
        if n >= 3 {
            let clique = (0..n).all(|a| self.adj[a].len() == n - 1);
            if clique {
                r.push(
                    Diagnostic::warning(
                        "MC0120",
                        PASS,
                        EntityRef::none(),
                        format!(
                            "all {n} applications form a fully-connected interference \
                             clique: every pair shares a processor"
                        ),
                    )
                    .with_suggestion(
                        "spread applications over disjoint processors so an edit \
                         shifts fewer response times",
                    ),
                );
            }
        }
        // MC0121: hardening on a critical task couples criticality levels.
        for (flat, gene) in genome.genes.iter().enumerate() {
            let tr = apps.task_refs()[flat];
            if self.droppable[tr.app.index()] || gene.hardening == GeneHardening::None {
                continue;
            }
            let mut procs = vec![gene.binding];
            procs.extend(gene.hardening.referenced_procs());
            procs.sort_unstable();
            procs.dedup();
            let coupled = procs.iter().find_map(|p| {
                (0..n)
                    .find(|&b| self.droppable[b] && self.placement[b].binary_search(p).is_ok())
                    .map(|b| (*p, b))
            });
            if let Some((p, b)) = coupled {
                r.push(
                    Diagnostic::warning(
                        "MC0121",
                        PASS,
                        EntityRef::task(tr.app, tr.task).with_proc(p),
                        format!(
                            "hardened critical task shares {p} with droppable \
                             application a{b}: hardening couples across criticality levels",
                        ),
                    )
                    .with_suggestion(
                        "place the hardened task's copies and voter on processors \
                         without droppable load",
                    ),
                );
            }
        }
        // MC0122: interference-free islands.
        if n >= 2 {
            for a in 0..n {
                if self.adj[a].is_empty() && !self.placement[a].is_empty() {
                    r.push(
                        Diagnostic::hint(
                            "MC0122",
                            PASS,
                            EntityRef::app(AppId::new(a)),
                            "application shares no processor with any other: an \
                             interference-free island",
                        )
                        .with_suggestion(
                            "edits to this application affect only its own response times; \
                             no action needed",
                        ),
                    );
                }
            }
        }
    }

    /// Human-readable report: per-app placements, interference edges, and
    /// the per-app closure sizes.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "interference graph: {} app(s), {} processor(s), {} edge(s)\n",
            self.num_apps(),
            self.num_procs,
            self.edges().len()
        ));
        for a in 0..self.num_apps() {
            let procs: Vec<String> = self.placement[a].iter().map(|p| p.to_string()).collect();
            let closure = self.closure(&[AppId::new(a)]);
            out.push_str(&format!(
                "  a{}{}{}: on [{}], closure {} app(s)\n",
                a,
                if self.droppable[a] {
                    " (droppable)"
                } else {
                    ""
                },
                if self.hardened[a] { " (hardened)" } else { "" },
                procs.join(", "),
                closure.len()
            ));
        }
        for (a, b, shared) in self.edges() {
            let procs: Vec<String> = shared.iter().map(|p| p.to_string()).collect();
            out.push_str(&format!("  {a} -- {b} via [{}]\n", procs.join(", ")));
        }
        out
    }

    /// Machine-readable JSON report (hand-rolled; the build environment
    /// vendors no serialization crates).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"apps\":[");
        for a in 0..self.num_apps() {
            if a > 0 {
                out.push(',');
            }
            let procs: Vec<String> = self.placement[a]
                .iter()
                .map(|p| p.index().to_string())
                .collect();
            out.push_str(&format!(
                "{{\"app\":{},\"droppable\":{},\"hardened\":{},\"procs\":[{}],\"closure\":{}}}",
                a,
                self.droppable[a],
                self.hardened[a],
                procs.join(","),
                self.closure(&[AppId::new(a)]).len()
            ));
        }
        out.push_str("],\"edges\":[");
        for (i, (a, b, shared)) in self.edges().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let procs: Vec<String> = shared.iter().map(|p| p.index().to_string()).collect();
            out.push_str(&format!(
                "{{\"a\":{},\"b\":{},\"procs\":[{}]}}",
                a.index(),
                b.index(),
                procs.join(",")
            ));
        }
        out.push_str("]}");
        out
    }

    /// Graphviz `dot` rendering of the interference graph.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("graph interference {\n");
        for a in 0..self.num_apps() {
            let shape = if self.droppable[a] { "ellipse" } else { "box" };
            let style = if self.hardened[a] { ",style=bold" } else { "" };
            out.push_str(&format!("  a{a} [shape={shape}{style}];\n"));
        }
        for (a, b, shared) in self.edges() {
            let procs: Vec<String> = shared.iter().map(|p| p.to_string()).collect();
            out.push_str(&format!(
                "  a{} -- a{} [label=\"{}\"];\n",
                a.index(),
                b.index(),
                procs.join(",")
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_hardening::TaskGene;
    use mcmap_model::{
        AppSet, Criticality, ExecBounds, ProcKind, Processor, Task, TaskGraph, Time,
    };

    fn arch(n: usize) -> Architecture {
        Architecture::builder()
            .homogeneous(n, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-7))
            .build()
            .unwrap()
    }

    fn app(name: &str, tasks: usize, droppable: bool) -> TaskGraph {
        let mut b = TaskGraph::builder(name, Time::from_ticks(1000));
        b = if droppable {
            b.criticality(Criticality::Droppable { service: 1.0 })
        } else {
            b.criticality(Criticality::NonDroppable {
                max_failure_rate: 1e-4,
            })
        };
        for i in 0..tasks {
            b = b.task(
                Task::new(format!("t{i}"))
                    .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))),
            );
        }
        b.build().unwrap()
    }

    fn gene(p: usize) -> TaskGene {
        TaskGene {
            binding: ProcId::new(p),
            hardening: GeneHardening::None,
        }
    }

    /// Three single-task apps on 3 PEs; a0,a1 share p0; a2 alone on p2.
    fn split_system() -> (AppSet, Architecture, Genome) {
        let apps = AppSet::new_unvalidated(vec![
            app("a", 1, false),
            app("b", 1, true),
            app("c", 1, false),
        ]);
        let g = Genome {
            alloc: vec![true; 3],
            keep: vec![true],
            genes: vec![gene(0), gene(0), gene(2)],
        };
        (apps, arch(3), g)
    }

    #[test]
    fn placement_and_edges() {
        let (apps, arch, g) = split_system();
        let ig = InterferenceGraph::build(&apps, &arch, &g).unwrap();
        assert_eq!(ig.placements(AppId::new(0)), &[ProcId::new(0)]);
        assert!(ig.interferes(AppId::new(0), AppId::new(1)));
        assert!(!ig.interferes(AppId::new(0), AppId::new(2)));
        assert!(!ig.interferes(AppId::new(0), AppId::new(0)));
        let edges = ig.edges();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].2, vec![ProcId::new(0)]);
    }

    #[test]
    fn hardening_procs_extend_the_placement() {
        let apps = AppSet::new_unvalidated(vec![app("a", 1, false), app("b", 1, false)]);
        let a = arch(3);
        let g = Genome {
            alloc: vec![true; 3],
            keep: vec![],
            genes: vec![
                TaskGene {
                    binding: ProcId::new(0),
                    hardening: GeneHardening::Active {
                        replicas: vec![ProcId::new(1)],
                        voter: ProcId::new(2),
                    },
                },
                gene(2),
            ],
        };
        let ig = InterferenceGraph::build(&apps, &a, &g).unwrap();
        assert_eq!(
            ig.placements(AppId::new(0)),
            &[ProcId::new(0), ProcId::new(1), ProcId::new(2)]
        );
        // The voter on p2 couples a0 with a1's binding.
        assert!(ig.interferes(AppId::new(0), AppId::new(1)));
    }

    #[test]
    fn closure_is_the_reachable_component() {
        let (apps, arch, g) = split_system();
        let ig = InterferenceGraph::build(&apps, &arch, &g).unwrap();
        assert_eq!(
            ig.closure(&[AppId::new(0)]),
            vec![AppId::new(0), AppId::new(1)]
        );
        assert_eq!(ig.closure(&[AppId::new(2)]), vec![AppId::new(2)]);
        // Monotone: a bigger seed yields a superset.
        let big = ig.closure(&[AppId::new(0), AppId::new(2)]);
        assert_eq!(big.len(), 3);
    }

    #[test]
    fn shape_mismatch_yields_none() {
        let (apps, arch, mut g) = split_system();
        g.genes.pop();
        assert!(InterferenceGraph::build(&apps, &arch, &g).is_none());
    }

    #[test]
    fn clique_diagnostic_fires_on_full_coupling() {
        let apps = AppSet::new_unvalidated(vec![
            app("a", 1, false),
            app("b", 1, false),
            app("c", 1, false),
        ]);
        let a = arch(2);
        let g = Genome {
            alloc: vec![true, true],
            keep: vec![],
            genes: vec![gene(0), gene(0), gene(0)],
        };
        let ig = InterferenceGraph::build(&apps, &a, &g).unwrap();
        let mut r = LintReport::new();
        ig.diagnose(&apps, &g, &mut r);
        r.finalize();
        assert!(r.has_code("MC0120"));
        assert!(!r.has_errors());
    }

    #[test]
    fn cross_criticality_hardening_diagnostic() {
        let apps = AppSet::new_unvalidated(vec![app("hi", 1, false), app("lo", 1, true)]);
        let a = arch(3);
        let g = Genome {
            alloc: vec![true; 3],
            keep: vec![true],
            genes: vec![
                TaskGene {
                    binding: ProcId::new(0),
                    hardening: GeneHardening::Reexec(1),
                },
                gene(0),
            ],
        };
        let ig = InterferenceGraph::build(&apps, &a, &g).unwrap();
        let mut r = LintReport::new();
        ig.diagnose(&apps, &g, &mut r);
        assert!(r.has_code("MC0121"));
        // Moving the droppable app away removes the coupling.
        let g2 = Genome {
            genes: vec![g.genes[0].clone(), gene(1)],
            ..g.clone()
        };
        let ig2 = InterferenceGraph::build(&apps, &a, &g2).unwrap();
        let mut r2 = LintReport::new();
        ig2.diagnose(&apps, &g2, &mut r2);
        assert!(!r2.has_code("MC0121"));
        assert!(r2.has_code("MC0122"));
    }

    #[test]
    fn renders_are_wellformed() {
        let (apps, arch, g) = split_system();
        let ig = InterferenceGraph::build(&apps, &arch, &g).unwrap();
        let text = ig.render_text();
        assert!(text.contains("interference graph: 3 app(s)"));
        assert!(text.contains("a0 -- a1"));
        let json = ig.to_json();
        assert!(json.starts_with("{\"apps\":["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let dot = ig.to_dot();
        assert!(dot.starts_with("graph interference {"));
        assert!(dot.contains("a0 -- a1"));
        assert!(dot.ends_with("}\n"));
    }
}
