//! Diagnostic primitives: severity levels, entity references, diagnostics,
//! and the [`LintReport`] container with text and JSON renderers.

use core::fmt;
use mcmap_model::{AppId, ChannelId, ProcId, TaskId};

/// How serious a diagnostic is.
///
/// `Error` means the input violates an invariant the analyses rely on (or a
/// constraint that is provably unsatisfiable); exploration refuses such
/// inputs. `Warning` flags likely mistakes that do not block analysis.
/// `Hint` points out harmless oddities and optimization opportunities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Invariant violation or provably unsatisfiable constraint.
    Error,
    /// Likely mistake; analysis still possible.
    Warning,
    /// Harmless oddity or optimization opportunity.
    Hint,
}

impl Severity {
    /// Lowercase name, as used in the text and JSON renderings.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Hint => "hint",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The model entity a diagnostic points at. All fields are optional; a
/// system-wide diagnostic (e.g. an empty application set) carries none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EntityRef {
    /// Offending application, if any.
    pub app: Option<AppId>,
    /// Offending task (within `app`), if any.
    pub task: Option<TaskId>,
    /// Offending channel (within `app`), if any.
    pub channel: Option<ChannelId>,
    /// Offending processor, if any.
    pub proc: Option<ProcId>,
}

impl EntityRef {
    /// A reference naming nothing (system-wide diagnostics).
    pub fn none() -> Self {
        EntityRef::default()
    }

    /// References an application.
    pub fn app(app: AppId) -> Self {
        EntityRef {
            app: Some(app),
            ..EntityRef::default()
        }
    }

    /// References a task within an application.
    pub fn task(app: AppId, task: TaskId) -> Self {
        EntityRef {
            app: Some(app),
            task: Some(task),
            ..EntityRef::default()
        }
    }

    /// References a channel within an application.
    pub fn channel(app: AppId, channel: ChannelId) -> Self {
        EntityRef {
            app: Some(app),
            channel: Some(channel),
            ..EntityRef::default()
        }
    }

    /// References a processor.
    pub fn proc(proc: ProcId) -> Self {
        EntityRef {
            proc: Some(proc),
            ..EntityRef::default()
        }
    }

    /// Adds a processor to an existing reference (builder style).
    pub fn with_proc(mut self, proc: ProcId) -> Self {
        self.proc = Some(proc);
        self
    }

    /// Returns `true` if the reference names no entity at all.
    pub fn is_empty(&self) -> bool {
        self.app.is_none() && self.task.is_none() && self.channel.is_none() && self.proc.is_none()
    }
}

impl fmt::Display for EntityRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(a) = self.app {
            parts.push(a.to_string());
        }
        if let Some(t) = self.task {
            parts.push(t.to_string());
        }
        if let Some(c) = self.channel {
            parts.push(c.to_string());
        }
        if let Some(p) = self.proc {
            parts.push(p.to_string());
        }
        if parts.is_empty() {
            f.write_str("system")
        } else {
            f.write_str(&parts.join("/"))
        }
    }
}

/// One finding of the static analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable `MC0xxx` code. Codes below `MC0100` mirror
    /// [`mcmap_model::ModelError::code`]; codes `MC0101` and up are
    /// lint-only findings no model constructor rejects.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Name of the pass that produced the finding.
    pub pass: &'static str,
    /// Human-readable description of the defect.
    pub message: String,
    /// The entity the finding points at.
    pub entity: EntityRef,
    /// Optional actionable fix suggestion.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Creates an error-severity diagnostic.
    pub fn error(
        code: &'static str,
        pass: &'static str,
        entity: EntityRef,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            pass,
            message: message.into(),
            entity,
            suggestion: None,
        }
    }

    /// Creates a warning-severity diagnostic.
    pub fn warning(
        code: &'static str,
        pass: &'static str,
        entity: EntityRef,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, pass, entity, message)
        }
    }

    /// Creates a hint-severity diagnostic.
    pub fn hint(
        code: &'static str,
        pass: &'static str,
        entity: EntityRef,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Hint,
            ..Diagnostic::error(code, pass, entity, message)
        }
    }

    /// Attaches a fix suggestion (builder style).
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }

    /// Converts a [`mcmap_model::ModelError`] into the equivalent diagnostic,
    /// preserving the shared `MC00xx` code. `app` supplies the application
    /// context for variants that do not carry one themselves.
    pub fn from_model_error(e: &mcmap_model::ModelError, app: Option<AppId>) -> Self {
        use mcmap_model::ModelError as E;
        let entity = match e {
            E::CyclicGraph { app, task } => EntityRef::task(*app, *task),
            E::DanglingChannel { channel, .. } | E::SelfLoop { channel } => EntityRef {
                app,
                channel: Some(*channel),
                ..EntityRef::default()
            },
            E::UnrunnableTask { task } | E::InvertedExecutionBounds { task } => EntityRef {
                app,
                task: Some(*task),
                ..EntityRef::default()
            },
            E::InvalidFaultRate { proc, .. } | E::InvalidPower { proc } => EntityRef::proc(*proc),
            E::DeadlineExceedsPeriod { app } => EntityRef::app(*app),
            E::ZeroPeriod
            | E::ZeroDeadline
            | E::InvalidFailureRate { .. }
            | E::InvalidService { .. } => EntityRef {
                app,
                ..EntityRef::default()
            },
            E::EmptyArchitecture | E::ZeroBandwidth | E::EmptyAppSet => EntityRef::none(),
        };
        Diagnostic::error(e.code(), "model", entity, e.to_string())
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] ({}) {}: {}",
            self.severity, self.code, self.pass, self.entity, self.message
        )
    }
}

/// The ordered collection of diagnostics produced by one lint run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    diags: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> Self {
        LintReport::default()
    }

    /// Appends one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Appends every diagnostic of another report.
    pub fn extend(&mut self, other: LintReport) {
        self.diags.extend(other.diags);
    }

    /// All diagnostics, in report order (errors first after finalization).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Iterates over the diagnostics.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// Returns `true` if nothing was reported.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Returns `true` if any diagnostic is error-severity.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of diagnostics at the given severity.
    pub fn count(&self, s: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == s).count()
    }

    /// Deduplicated codes of all error-severity diagnostics, sorted.
    pub fn error_codes(&self) -> Vec<&'static str> {
        let mut codes: Vec<&'static str> = self
            .diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.code)
            .collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    /// Deduplicated codes of all diagnostics, sorted.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut codes: Vec<&'static str> = self.diags.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    /// Returns `true` if some diagnostic carries the given code.
    pub fn has_code(&self, code: &str) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Stable-sorts the report: errors first, then warnings, then hints;
    /// ties broken by code. Called by the linter before returning.
    pub fn finalize(&mut self) {
        self.diags
            .sort_by(|a, b| a.severity.cmp(&b.severity).then_with(|| a.code.cmp(b.code)));
    }

    /// Renders the report as human-readable text, one line per diagnostic
    /// plus an optional `help:` line and a trailing summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.to_string());
            out.push('\n');
            if let Some(s) = &d.suggestion {
                out.push_str("  = help: ");
                out.push_str(s);
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} hint(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Hint)
        ));
        out
    }

    /// Renders the report as a JSON object with a `diagnostics` array and
    /// per-severity totals. Hand-rolled (the build environment vendors no
    /// serialization crates); the output is stable and machine-parseable.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":\"");
            out.push_str(d.code);
            out.push_str("\",\"severity\":\"");
            out.push_str(d.severity.as_str());
            out.push_str("\",\"pass\":\"");
            out.push_str(d.pass);
            out.push_str("\",\"message\":");
            push_json_string(&mut out, &d.message);
            out.push_str(",\"app\":");
            push_opt_index(&mut out, d.entity.app.map(|x| x.index()));
            out.push_str(",\"task\":");
            push_opt_index(&mut out, d.entity.task.map(|x| x.index()));
            out.push_str(",\"channel\":");
            push_opt_index(&mut out, d.entity.channel.map(|x| x.index()));
            out.push_str(",\"proc\":");
            push_opt_index(&mut out, d.entity.proc.map(|x| x.index()));
            out.push_str(",\"suggestion\":");
            match &d.suggestion {
                Some(s) => push_json_string(&mut out, s),
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str(&format!(
            "],\"errors\":{},\"warnings\":{},\"hints\":{}}}",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Hint)
        ));
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

/// Full documentation for one diagnostic code: what causes it, a concrete
/// example, and how to fix it. Looked up with [`code_doc`]; rendered by the
/// CLI's `lint --explain MCxxxx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeDoc {
    /// The stable `MC0xxx` code.
    pub code: &'static str,
    /// One-line summary (identical to the `ALL_CODES` description).
    pub summary: &'static str,
    /// What input state triggers the diagnostic.
    pub cause: &'static str,
    /// A concrete example of an input that fires it.
    pub example: &'static str,
    /// How to repair the input.
    pub fix: &'static str,
}

impl CodeDoc {
    /// Renders the documentation as human-readable text.
    pub fn render_text(&self) -> String {
        format!(
            "{}: {}\n\ncause: {}\nexample: {}\nfix: {}\n",
            self.code, self.summary, self.cause, self.example, self.fix
        )
    }
}

/// Full documentation table, one entry per code in `ALL_CODES`, same order.
/// (A unit test pins the 1:1 correspondence.)
pub(crate) const CODE_DOCS: &[CodeDoc] = &[
    CodeDoc {
        code: "MC0001",
        summary: "task graph contains a dependency cycle",
        cause: "following the channels of an application leads back to an already-visited task, so no topological schedule exists",
        example: "tasks a -> b -> c with an extra channel c -> a",
        fix: "remove or reverse one channel on the cycle so the graph is a DAG",
    },
    CodeDoc {
        code: "MC0002",
        summary: "channel endpoint references a nonexistent task",
        cause: "a channel's src or dst index is >= the application's task count",
        example: "a 3-task graph with a channel from task 0 to task 7",
        fix: "point the channel at existing task indices or delete it",
    },
    CodeDoc {
        code: "MC0003",
        summary: "channel connects a task to itself",
        cause: "a channel has src == dst, which the precedence model cannot express",
        example: "a channel from task 2 to task 2",
        fix: "delete the self-loop or split the task in two",
    },
    CodeDoc {
        code: "MC0004",
        summary: "task has no execution profile for any kind",
        cause: "a task carries zero (kind, exec-bounds) entries, so it can run nowhere",
        example: "Task::new(\"t\") built without with_uniform_exec or with_exec",
        fix: "add execution bounds for at least one processor kind",
    },
    CodeDoc {
        code: "MC0005",
        summary: "task has bcet greater than wcet",
        cause: "an execution profile's best case exceeds its worst case",
        example: "ExecBounds with bcet 90 and wcet 40",
        fix: "swap or correct the bounds so bcet <= wcet",
    },
    CodeDoc {
        code: "MC0006",
        summary: "task graph period is zero",
        cause: "an application's period is 0 ticks, making utilization undefined",
        example: "TaskGraph::builder(\"a\", Time::from_ticks(0))",
        fix: "set a positive period",
    },
    CodeDoc {
        code: "MC0007",
        summary: "task graph deadline is zero",
        cause: "an application's deadline is 0 ticks, so nothing can ever meet it",
        example: "a graph with .deadline(Time::from_ticks(0))",
        fix: "set a positive deadline (it defaults to the period)",
    },
    CodeDoc {
        code: "MC0008",
        summary: "reliability bound is outside (0, 1]",
        cause: "a non-droppable application's max_failure_rate is <= 0 or > 1",
        example: "Criticality::NonDroppable { max_failure_rate: 2.0 }",
        fix: "use a probability in (0, 1], e.g. 1e-5",
    },
    CodeDoc {
        code: "MC0009",
        summary: "service value is not finite and positive",
        cause: "a droppable application's service is <= 0, NaN, or infinite",
        example: "Criticality::Droppable { service: -1.0 }",
        fix: "use a finite positive service value",
    },
    CodeDoc {
        code: "MC0010",
        summary: "architecture has no processors",
        cause: "the architecture builder was finished with zero processors",
        example: "Architecture::builder().build()",
        fix: "add at least one processor",
    },
    CodeDoc {
        code: "MC0011",
        summary: "fabric bandwidth is zero",
        cause: "the communication fabric's bandwidth is 0 bytes/tick, making channel delays infinite",
        example: "Fabric::new(0)",
        fix: "set a positive bandwidth",
    },
    CodeDoc {
        code: "MC0012",
        summary: "processor fault rate is negative or not finite",
        cause: "a processor's transient-fault rate is < 0, NaN, or infinite",
        example: "Processor::new(\"p\", kind, 5.0, 20.0, -1.0)",
        fix: "use a non-negative finite fault rate",
    },
    CodeDoc {
        code: "MC0013",
        summary: "processor power figure is negative or not finite",
        cause: "a processor's idle or busy power is < 0, NaN, or infinite",
        example: "Processor::new(\"p\", kind, -5.0, 20.0, 1e-7)",
        fix: "use non-negative finite power figures",
    },
    CodeDoc {
        code: "MC0014",
        summary: "application set is empty",
        cause: "AppSet::new was called with zero task graphs",
        example: "AppSet::new(vec![])",
        fix: "add at least one application",
    },
    CodeDoc {
        code: "MC0015",
        summary: "deadline exceeds the period",
        cause: "an application has D > T; the analyses assume constrained deadlines",
        example: "period 100 with deadline 150",
        fix: "lower the deadline to at most the period",
    },
    CodeDoc {
        code: "MC0101",
        summary: "reliability bound unsatisfiable under the hardening limits",
        cause: "even the strongest hardening the search may assign (max re-executions and replicas on the most reliable processors) cannot reach a task's failure-rate bound",
        example: "max_failure_rate 1e-12 on a platform whose every PE has fault rate 1e-3, with limits (2, 2)",
        fix: "relax the bound, raise the hardening limits, or add more reliable processors",
    },
    CodeDoc {
        code: "MC0102",
        summary: "critical path exceeds the deadline on every mapping",
        cause: "the sum of best-possible WCETs along some dependency chain already exceeds the deadline, before any interference",
        example: "a 3-task chain of WCET 50 each with deadline 100",
        fix: "shorten the chain, speed up the tasks, or extend the deadline",
    },
    CodeDoc {
        code: "MC0103",
        summary: "utilization over-commits the platform",
        cause: "total demand (sum of min-WCET / period) exceeds the number of processors, so no mapping is schedulable",
        example: "ten tasks of utilization 0.5 on a 4-PE platform",
        fix: "add processors, drop load, or lengthen periods",
    },
    CodeDoc {
        code: "MC0104",
        summary: "no task can execute on this processor",
        cause: "a processor's kind is supported by no task, so it can only ever idle",
        example: "a DSP-kind PE in a system whose tasks only profile the CPU kind",
        fix: "remove the processor or add execution profiles for its kind",
    },
    CodeDoc {
        code: "MC0105",
        summary: "task has a zero WCET profile",
        cause: "a task's worst-case execution time is 0 ticks on some kind, which usually indicates missing profiling data",
        example: "ExecBounds::exact(Time::from_ticks(0))",
        fix: "fill in a measured WCET or drop the profile",
    },
    CodeDoc {
        code: "MC0106",
        summary: "voter placed on an unallocated processor",
        cause: "a replicated task's voter is bound to a processor whose allocation bit is cleared (a voter outside the architecture is MC0110)",
        example: "voter on p3 while alloc[3] = false",
        fix: "bind the voter to an allocated processor",
    },
    CodeDoc {
        code: "MC0107",
        summary: "replicas colocated on one processor",
        cause: "two copies of the same task share a processor, so one fault can kill both — the replication buys no reliability",
        example: "primary and replica both on p1",
        fix: "spread the copies over distinct processors",
    },
    CodeDoc {
        code: "MC0108",
        summary: "droppable application carries hardening",
        cause: "a task of a droppable application is hardened; dropping already sacrifices it under faults, so the overhead is wasted",
        example: "Reexec(2) on a best-effort video decoder",
        fix: "remove the hardening or make the application non-droppable",
    },
    CodeDoc {
        code: "MC0109",
        summary: "plan, genome or hardening-entry shape is malformed",
        cause: "the hardening plan or chromosome has a different task, keep-bit, or alloc-bit count than the system it is checked against, or one hardening entry has too few copies (active replication without a replica, passive replication without an extra active copy and a standby)",
        example: "a 5-gene genome for a 7-task application set",
        fix: "regenerate the plan/genome from this system's GenomeSpace, or give the entry its missing copies",
    },
    CodeDoc {
        code: "MC0110",
        summary: "binding or replica on an invalid processor",
        cause: "a gene or plan entry binds a task, replica, or standby to a processor that does not exist, is unallocated, or whose kind the task cannot run on, or places a voter on a processor that does not exist",
        example: "binding a CPU-only task to a DSP-kind PE",
        fix: "bind to an allocated processor of a supported kind",
    },
    CodeDoc {
        code: "MC0111",
        summary: "no processor allocated",
        cause: "every allocation bit of the chromosome is cleared, leaving nowhere to run",
        example: "alloc = [false, false, false]",
        fix: "set at least one allocation bit",
    },
    CodeDoc {
        code: "MC0112",
        summary: "hardening exceeds the configured limits",
        cause: "a gene assigns more re-executions or replicas than the search limits allow",
        example: "Reexec(5) under max_reexec = 2",
        fix: "clamp the gene or raise the limits",
    },
    CodeDoc {
        code: "MC0113",
        summary: "task supports no processor kind present on the platform",
        cause: "a task only profiles kinds that no processor of the architecture has",
        example: "a GPU-only kernel on a CPU-only platform",
        fix: "add a processor of a supported kind or profile the task for the present kinds",
    },
    CodeDoc {
        code: "MC0120",
        summary: "applications form a fully-connected interference clique",
        cause: "every pair of applications shares at least one processor, so a change to any application's mapping can shift the response times of every other one",
        example: "three applications all bound to the same two PEs",
        fix: "spread applications over disjoint processors where the deadlines allow it",
    },
    CodeDoc {
        code: "MC0121",
        summary: "hardening couples across criticality levels on a shared processor",
        cause: "a hardened non-droppable task places a copy or voter on a processor that also hosts a droppable application, so the hardening overhead delays best-effort work and dropping decisions feed back into critical response times",
        example: "a re-executed control task sharing its PE with a droppable video app",
        fix: "place the hardened task's copies and voter on processors without droppable load",
    },
    CodeDoc {
        code: "MC0122",
        summary: "application is an interference-free island",
        cause: "an application shares no processor with any other, so edits to it affect only its own response times",
        example: "one application alone on its own PE",
        fix: "no action needed; its response times are independent of every other application's mapping",
    },
];

/// Full documentation for a diagnostic code, if it exists.
///
/// # Examples
///
/// ```
/// let doc = mcmap_lint::code_doc("MC0120").unwrap();
/// assert!(doc.cause.contains("shares"));
/// assert!(mcmap_lint::code_doc("MC9999").is_none());
/// ```
pub fn code_doc(code: &str) -> Option<&'static CodeDoc> {
    CODE_DOCS.iter().find(|d| d.code == code)
}

/// The full documentation table, one entry per registered diagnostic code,
/// in code order. Backs the CLI's bare `lint --explain` listing.
///
/// # Examples
///
/// ```
/// let docs = mcmap_lint::all_code_docs();
/// assert!(docs.iter().any(|d| d.code == "MC0001"));
/// assert!(docs.windows(2).all(|w| w[0].code < w[1].code));
/// ```
pub fn all_code_docs() -> &'static [CodeDoc] {
    CODE_DOCS
}

fn push_opt_index(out: &mut String, v: Option<usize>) {
    match v {
        Some(i) => out.push_str(&i.to_string()),
        None => out.push_str("null"),
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        let mut r = LintReport::new();
        r.push(Diagnostic::hint(
            "MC0104",
            "platform-fit",
            EntityRef::proc(ProcId::new(2)),
            "no task can run on this processor",
        ));
        r.push(
            Diagnostic::error(
                "MC0001",
                "graph-structure",
                EntityRef::task(AppId::new(0), TaskId::new(3)),
                "task graph contains a cycle",
            )
            .with_suggestion("remove a back edge"),
        );
        r.push(Diagnostic::warning(
            "MC0105",
            "exec-bounds",
            EntityRef::task(AppId::new(1), TaskId::new(0)),
            "wcet is zero",
        ));
        r.finalize();
        r
    }

    #[test]
    fn finalize_orders_errors_first() {
        let r = sample();
        let sevs: Vec<Severity> = r.iter().map(|d| d.severity).collect();
        assert_eq!(
            sevs,
            vec![Severity::Error, Severity::Warning, Severity::Hint]
        );
    }

    #[test]
    fn counting_and_codes() {
        let r = sample();
        assert_eq!(r.len(), 3);
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.error_codes(), vec!["MC0001"]);
        assert_eq!(r.codes(), vec!["MC0001", "MC0104", "MC0105"]);
        assert!(r.has_code("MC0104"));
        assert!(!r.has_code("MC0002"));
    }

    #[test]
    fn text_rendering_contains_all_parts() {
        let text = sample().render_text();
        assert!(text.contains("error[MC0001] (graph-structure) a0/v3:"));
        assert!(text.contains("= help: remove a back edge"));
        assert!(text.contains("1 error(s), 1 warning(s), 1 hint(s)"));
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"diagnostics\":["));
        assert!(json.ends_with("\"errors\":1,\"warnings\":1,\"hints\":1}"));
        assert!(json.contains("\"code\":\"MC0001\""));
        assert!(json.contains("\"app\":0,\"task\":3,\"channel\":null,\"proc\":null"));
        assert!(json.contains("\"suggestion\":\"remove a back edge\""));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_control_characters() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn entity_display_forms() {
        assert_eq!(EntityRef::none().to_string(), "system");
        assert_eq!(
            EntityRef::task(AppId::new(1), TaskId::new(2)).to_string(),
            "a1/v2"
        );
        assert_eq!(
            EntityRef::app(AppId::new(0))
                .with_proc(ProcId::new(3))
                .to_string(),
            "a0/p3"
        );
    }

    #[test]
    fn code_docs_match_all_codes_one_to_one() {
        assert_eq!(CODE_DOCS.len(), crate::ALL_CODES.len());
        for (doc, (code, summary)) in CODE_DOCS.iter().zip(crate::ALL_CODES) {
            assert_eq!(doc.code, *code, "CODE_DOCS out of sync with ALL_CODES");
            assert_eq!(doc.summary, *summary, "summary drifted for {}", code);
            assert!(!doc.cause.is_empty() && !doc.example.is_empty() && !doc.fix.is_empty());
        }
    }

    #[test]
    fn code_doc_lookup_and_render() {
        let doc = code_doc("MC0001").unwrap();
        let text = doc.render_text();
        assert!(text.starts_with("MC0001: task graph contains a dependency cycle"));
        assert!(text.contains("cause: "));
        assert!(text.contains("example: "));
        assert!(text.contains("fix: "));
        assert!(code_doc("MC0999").is_none());
    }

    #[test]
    fn model_error_conversion_keeps_code() {
        let e = mcmap_model::ModelError::ZeroPeriod;
        let d = Diagnostic::from_model_error(&e, Some(AppId::new(2)));
        assert_eq!(d.code, "MC0006");
        assert_eq!(d.code, e.code());
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.entity.app, Some(AppId::new(2)));
    }
}
