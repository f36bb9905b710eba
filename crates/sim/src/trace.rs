//! Execution-trace recording and ASCII Gantt rendering.
//!
//! The event engine can record every execution segment (start/stop of a job
//! on its processor) plus job-level outcomes. Traces serve two purposes:
//! debugging mappings ("why did E miss?") and rendering the Fig. 1-style
//! schedules the paper draws.

use core::fmt;
use mcmap_hardening::{HTaskId, HardenedSystem};
use mcmap_model::{AppSet, ProcId, Time};

/// One contiguous execution segment of a job on a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// The executing task.
    pub task: HTaskId,
    /// The job's periodic instance index.
    pub instance: u64,
    /// The re-execution attempt this segment belongs to.
    pub attempt: u8,
    /// Hosting processor.
    pub proc: ProcId,
    /// Segment start time.
    pub start: Time,
    /// Segment end time (exclusive).
    pub end: Time,
}

/// Why a job left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Completed (possibly after re-executions).
    Completed,
    /// Discarded by the mixed-criticality dropping protocol.
    Dropped,
}

/// A job-level trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// The task.
    pub task: HTaskId,
    /// The periodic instance.
    pub instance: u64,
    /// Completion or drop time.
    pub time: Time,
    /// How the job ended.
    pub outcome: JobOutcome,
}

/// A recorded execution trace: execution segments in chronological order of
/// their end times, plus job outcomes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Execution segments (each preemption splits a job into segments).
    pub segments: Vec<Segment>,
    /// Job completions and drops.
    pub jobs: Vec<JobRecord>,
    /// Times at which the system entered the critical state.
    pub critical_entries: Vec<Time>,
}

impl Trace {
    /// Segments of one processor, in order.
    pub fn on_proc(&self, proc: ProcId) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(move |s| s.proc == proc)
    }

    /// Total busy time of a processor.
    pub fn busy_time(&self, proc: ProcId) -> Time {
        self.on_proc(proc)
            .map(|s| s.end.saturating_sub(s.start))
            .sum()
    }

    /// Renders an ASCII Gantt chart of the first `horizon` ticks, one row
    /// per processor, `width` characters wide. Each cell shows the first
    /// letter of the task occupying that time slot (`.` = idle); a `!`
    /// header marks critical-state entries.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcmap_sim::Trace;
    /// let t = Trace::default();
    /// // An empty trace renders only idle rows.
    /// let s = t.render_gantt(&[], mcmap_model::Time::from_ticks(10), 10);
    /// assert!(s.is_empty());
    /// ```
    pub fn render_gantt(
        &self,
        names: &[(HTaskId, String, ProcId)],
        horizon: Time,
        width: usize,
    ) -> String {
        if names.is_empty() || horizon.is_zero() || width == 0 {
            return String::new();
        }
        let procs: Vec<ProcId> = {
            let mut p: Vec<ProcId> = names.iter().map(|(_, _, p)| *p).collect();
            p.sort();
            p.dedup();
            p
        };
        let label = |task: HTaskId| -> char {
            names
                .iter()
                .find(|(id, _, _)| *id == task)
                .and_then(|(_, n, _)| n.chars().next())
                .unwrap_or('?')
        };
        let scale = |t: Time| -> usize {
            ((t.ticks() as u128 * width as u128) / horizon.ticks() as u128) as usize
        };

        let mut out = String::new();
        // Critical-state marker row.
        let mut marker = vec![' '; width];
        for &t in &self.critical_entries {
            if t < horizon {
                let i = scale(t).min(width - 1);
                marker[i] = '!';
            }
        }
        out.push_str("      ");
        out.extend(marker);
        out.push('\n');

        for proc in procs {
            let mut row = vec!['.'; width];
            for s in self.on_proc(proc) {
                if s.start >= horizon {
                    continue;
                }
                let a = scale(s.start).min(width - 1);
                let b = scale(s.end.min(horizon)).max(a + 1).min(width);
                let c = label(s.task);
                for cell in &mut row[a..b] {
                    *cell = c;
                }
            }
            out.push_str(&format!("{:>4}: ", proc.to_string()));
            out.extend(row);
            out.push('\n');
        }
        out
    }

    /// Convenience: name table derived from a hardened system, the set it
    /// was hardened from, and mapping placements, for
    /// [`Trace::render_gantt`].
    pub fn name_table(
        hsys: &HardenedSystem,
        apps: &AppSet,
        placement: &[ProcId],
    ) -> Vec<(HTaskId, String, ProcId)> {
        hsys.tasks()
            .map(|(id, t)| (id, t.name(apps), placement[id.index()]))
            .collect()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} segments, {} job records, {} critical entries",
            self.segments.len(),
            self.jobs.len(),
            self.critical_entries.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(task: usize, proc: usize, start: u64, end: u64) -> Segment {
        Segment {
            task: HTaskId::new(task),
            instance: 0,
            attempt: 0,
            proc: ProcId::new(proc),
            start: Time::from_ticks(start),
            end: Time::from_ticks(end),
        }
    }

    #[test]
    fn busy_time_sums_segments() {
        let t = Trace {
            segments: vec![seg(0, 0, 0, 10), seg(1, 0, 15, 20), seg(2, 1, 0, 7)],
            ..Trace::default()
        };
        assert_eq!(t.busy_time(ProcId::new(0)), Time::from_ticks(15));
        assert_eq!(t.busy_time(ProcId::new(1)), Time::from_ticks(7));
        assert_eq!(t.busy_time(ProcId::new(2)), Time::ZERO);
    }

    #[test]
    fn gantt_renders_rows_per_processor() {
        let t = Trace {
            segments: vec![seg(0, 0, 0, 50), seg(1, 1, 50, 100)],
            critical_entries: vec![Time::from_ticks(50)],
            ..Trace::default()
        };
        let names = vec![
            (HTaskId::new(0), "alpha".to_string(), ProcId::new(0)),
            (HTaskId::new(1), "beta".to_string(), ProcId::new(1)),
        ];
        let s = t.render_gantt(&names, Time::from_ticks(100), 20);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3); // marker + 2 processors
        assert!(lines[0].contains('!'));
        assert!(lines[1].contains("p0"));
        assert!(lines[1].contains('a'));
        assert!(!lines[1].contains('b'));
        assert!(lines[2].contains('b'));
        // First half of p0's row busy, second half idle.
        let row0: Vec<char> = lines[1].chars().skip(6).collect();
        assert_eq!(row0[0], 'a');
        assert_eq!(row0[19], '.');
    }

    #[test]
    fn gantt_clips_to_horizon() {
        let t = Trace {
            segments: vec![seg(0, 0, 90, 500)],
            ..Trace::default()
        };
        let names = vec![(HTaskId::new(0), "x".to_string(), ProcId::new(0))];
        let s = t.render_gantt(&names, Time::from_ticks(100), 10);
        let row: Vec<char> = s.lines().nth(1).unwrap().chars().skip(6).collect();
        assert_eq!(row[9], 'x');
        assert_eq!(row[0], '.');
    }

    #[test]
    fn empty_inputs_render_nothing() {
        let t = Trace::default();
        assert_eq!(t.render_gantt(&[], Time::from_ticks(10), 10), "");
        let names = vec![(HTaskId::new(0), "x".to_string(), ProcId::new(0))];
        assert_eq!(t.render_gantt(&names, Time::ZERO, 10), "");
        assert_eq!(t.render_gantt(&names, Time::from_ticks(10), 0), "");
    }
}
