//! GraphViz DOT export of hardened systems.

use crate::{HardenedSystem, Role};
use core::fmt::Write;
use mcmap_model::AppSet;

/// Renders the hardened system `T'`, hardened from `apps`, as a GraphViz
/// digraph: replicas are shaded, standbys dashed, voters drawn as diamonds.
///
/// # Examples
///
/// ```
/// # use mcmap_hardening::{harden, HardeningPlan};
/// # use mcmap_model::{AppSet, Architecture, ExecBounds, ProcKind, Processor, Task,
/// #     TaskGraph, Time};
/// use mcmap_hardening::hardened_to_dot;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let arch = Architecture::builder()
/// #     .homogeneous(1, Processor::new("p", ProcKind::new(0), 1.0, 1.0, 0.0))
/// #     .build()?;
/// # let g = TaskGraph::builder("g", Time::from_ticks(10))
/// #     .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(1))))
/// #     .build()?;
/// # let apps = AppSet::new(vec![g])?;
/// # let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch)?;
/// let dot = hardened_to_dot(&hsys, &apps);
/// assert!(dot.starts_with("digraph"));
/// # Ok(())
/// # }
/// ```
pub fn hardened_to_dot(hsys: &HardenedSystem, apps: &AppSet) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph hardened {{");
    for (id, t) in hsys.tasks() {
        let (shape, style) = match t.role {
            Role::Primary => ("box", "solid"),
            Role::ActiveReplica(_) => ("box", "filled"),
            Role::PassiveReplica(_) => ("box", "dashed"),
            Role::Voter => ("diamond", "solid"),
        };
        let annot = if t.reexec > 0 {
            format!("\\nk={}", t.reexec)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  \"{id}\" [label=\"{}{annot}\", shape={shape}, style={style}];",
            t.name(apps)
        );
    }
    for c in hsys.channels() {
        let _ = writeln!(out, "  \"{}\" -> \"{}\";", c.src, c.dst);
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{harden, HardeningPlan, TaskHardening};
    use mcmap_model::{
        AppSet, Architecture, ExecBounds, ProcId, ProcKind, Processor, Task, TaskGraph, Time,
    };

    #[test]
    fn replicated_system_renders_all_roles() {
        let arch = Architecture::builder()
            .homogeneous(3, Processor::new("p", ProcKind::new(0), 1.0, 1.0, 1e-7))
            .build()
            .unwrap();
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(
                Task::new("a")
                    .with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5)))
                    .with_voting_overhead(Time::from_ticks(1)),
            )
            .task(Task::new("b").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(5))))
            .channel(0, 1, 8)
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(
            0,
            TaskHardening::Passive {
                actives: vec![ProcId::new(1)],
                standbys: vec![ProcId::new(2)],
                voter: ProcId::new(0),
            },
        );
        plan.set_by_flat_index(1, TaskHardening::Reexec(2));
        let hsys = harden(&apps, &plan, &arch).unwrap();
        let dot = hardened_to_dot(&hsys, &apps);
        assert!(dot.contains("shape=diamond")); // voter
        assert!(dot.contains("style=filled")); // active replica
        assert!(dot.contains("style=dashed")); // standby
        assert!(dot.contains("k=2")); // re-execution annotation
        assert_eq!(dot.matches("->").count(), hsys.num_channels());
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }
}
