//! The engine's instrumentation record and its report formats.

use crate::pool::WorkerLoad;

/// The engine's instrumentation: one type for one candidate's lookup, one
/// batch's tally and the engine's running total, all added by
/// [`EvalStats::merge`].
///
/// A candidate's record carries its hit or miss, evictions and phase
/// nanos; a batch folds its candidates' records and adds its size, wall
/// time, panics, degraded candidates and worker ledger; the engine merges
/// each batch once. `genomes` and `batches` are deterministic for a fixed
/// exploration (results are gathered by index, and every submitted
/// candidate counts exactly once, cache hit or not). Hit/miss totals can
/// shift by a few units across thread counts — concurrent workers may race
/// to first-fill the same key — so throughput tracking should compare
/// `hit_rate()` trends, not exact counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalStats {
    /// Number of `evaluate_batch` calls.
    pub batches: u64,
    /// Candidates submitted to `evaluate_batch` (a single lookup through
    /// `evaluate_one` counts as a hit or a miss only).
    pub genomes: u64,
    /// Candidates answered from the memoization cache.
    pub cache_hits: u64,
    /// Candidates that ran the full evaluation.
    pub cache_misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Evaluation panics caught by the batch path (one per failed
    /// attempt, including attempts later rescued by a retry).
    pub panics: u64,
    /// Candidates that exhausted their retry budget and were degraded to
    /// a typed failure.
    pub degraded: u64,
    /// Entries resident in the cache at snapshot time (a gauge: [`merge`]
    /// keeps the newer value).
    ///
    /// [`merge`]: EvalStats::merge
    pub cache_entries: u64,
    /// Nanoseconds spent hashing keys and probing the cache.
    pub lookup_nanos: u64,
    /// Nanoseconds spent inside the evaluation function (summed across
    /// workers, so this can exceed wall time).
    pub eval_nanos: u64,
    /// Nanoseconds spent inserting results into the cache.
    pub insert_nanos: u64,
    /// Wall-clock nanoseconds across all batches (caller-side).
    pub wall_nanos: u64,
    /// Cumulative per-participant dispatch ledger: entry `i` is what
    /// participant `i` (0 = the submitting thread, 1.. = the scoped helper
    /// threads of each batch) spent inside batch claim loops and how many
    /// candidates it completed. It has one entry per participant of the
    /// widest batch so far. Timing observation — non-deterministic across
    /// runs, like the phase nanos.
    pub worker_loads: Vec<WorkerLoad>,
}

impl EvalStats {
    /// Adds `other` into `self`: every counter sums, `worker_loads` sums by
    /// participant index (widening to the wider ledger), and
    /// `cache_entries`, a gauge, takes `other`'s value.
    pub fn merge(&mut self, other: &EvalStats) {
        self.batches += other.batches;
        self.genomes += other.genomes;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.evictions += other.evictions;
        self.panics += other.panics;
        self.degraded += other.degraded;
        self.cache_entries = other.cache_entries;
        self.lookup_nanos += other.lookup_nanos;
        self.eval_nanos += other.eval_nanos;
        self.insert_nanos += other.insert_nanos;
        self.wall_nanos += other.wall_nanos;
        if self.worker_loads.len() < other.worker_loads.len() {
            self.worker_loads
                .resize(other.worker_loads.len(), WorkerLoad::default());
        }
        for (slot, load) in self.worker_loads.iter_mut().zip(&other.worker_loads) {
            slot.busy_nanos += load.busy_nanos;
            slot.items += load.items;
        }
    }

    /// Share of candidates answered from the cache (0 when nothing ran).
    pub fn hit_rate(&self) -> f64 {
        if self.genomes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.genomes as f64
        }
    }

    /// Evaluation throughput in candidates per wall-clock second.
    pub fn genomes_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.genomes as f64 * 1e9 / self.wall_nanos as f64
        }
    }

    /// Per-worker utilization: each participant's busy nanoseconds over
    /// the total batch wall time. On a well-scattered workload every entry
    /// sits near 1.0; helpers near 0.0 mean the fan-out paid for threads
    /// it could not feed.
    pub fn utilization(&self) -> Vec<f64> {
        if self.wall_nanos == 0 {
            return vec![0.0; self.worker_loads.len()];
        }
        self.worker_loads
            .iter()
            .map(|w| w.busy_nanos as f64 / self.wall_nanos as f64)
            .collect()
    }

    /// Multi-line human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "eval-stats: {} genomes in {} batches ({:.1} genomes/s)\n\
             eval-stats: cache {} hits / {} misses ({:.2} % hit rate), \
             {} evictions, {} resident\n\
             eval-stats: phase nanos: lookup {}, evaluate {}, insert {}, wall {}\n",
            self.genomes,
            self.batches,
            self.genomes_per_sec(),
            self.cache_hits,
            self.cache_misses,
            self.hit_rate() * 100.0,
            self.evictions,
            self.cache_entries,
            self.lookup_nanos,
            self.eval_nanos,
            self.insert_nanos,
            self.wall_nanos,
        );
        if !self.worker_loads.is_empty() {
            let util = self.utilization();
            let rendered: Vec<String> = self
                .worker_loads
                .iter()
                .zip(&util)
                .map(|(w, u)| format!("{} ({:.0} %)", w.items, u * 100.0))
                .collect();
            out.push_str(&format!(
                "eval-stats: worker items (busy/wall): {}\n",
                rendered.join(", "),
            ));
        }
        if self.panics > 0 || self.degraded > 0 {
            out.push_str(&format!(
                "eval-stats: resilience: {} panics caught, {} candidates degraded\n",
                self.panics, self.degraded,
            ));
        }
        out
    }

    /// Single-object JSON report (stable keys, for `BENCH_*.json` tooling).
    pub fn to_json(&self) -> String {
        let util = self.utilization();
        let workers: Vec<String> = self
            .worker_loads
            .iter()
            .zip(&util)
            .map(|(w, u)| {
                format!(
                    "{{\"busy_nanos\":{},\"items\":{},\"utilization\":{:.6}}}",
                    w.busy_nanos, w.items, u,
                )
            })
            .collect();
        format!(
            "{{\"batches\":{},\"genomes\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"hit_rate\":{:.6},\"evictions\":{},\"panics\":{},\"degraded\":{},\
             \"cache_entries\":{},\
             \"lookup_nanos\":{},\"eval_nanos\":{},\"insert_nanos\":{},\
             \"wall_nanos\":{},\"genomes_per_sec\":{:.3},\"workers\":[{}]}}",
            self.batches,
            self.genomes,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate(),
            self.evictions,
            self.panics,
            self.degraded,
            self.cache_entries,
            self.lookup_nanos,
            self.eval_nanos,
            self.insert_nanos,
            self.wall_nanos,
            self.genomes_per_sec(),
            workers.join(","),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates_handle_zero_denominators() {
        let s = EvalStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.genomes_per_sec(), 0.0);
    }

    #[test]
    fn reports_mention_the_load_bearing_numbers() {
        let s = EvalStats {
            batches: 2,
            genomes: 10,
            cache_hits: 4,
            cache_misses: 6,
            evictions: 1,
            panics: 3,
            degraded: 1,
            cache_entries: 5,
            lookup_nanos: 100,
            eval_nanos: 900,
            insert_nanos: 50,
            wall_nanos: 1_000_000_000,
            worker_loads: vec![
                WorkerLoad {
                    busy_nanos: 900_000_000,
                    items: 7,
                },
                WorkerLoad {
                    busy_nanos: 250_000_000,
                    items: 3,
                },
            ],
        };
        let text = s.render_text();
        assert!(text.contains("4 hits / 6 misses"));
        assert!(text.contains("40.00 % hit rate"));
        assert!(text.contains("3 panics caught, 1 candidates degraded"));
        let json = s.to_json();
        assert!(json.contains("\"cache_hits\":4"));
        assert!(json.contains("\"hit_rate\":0.400000"));
        assert!(json.contains("\"panics\":3"));
        assert!(json.contains("\"degraded\":1"));
        assert!(json.contains("\"genomes_per_sec\":10.000"));
        assert!(text.contains("7 (90 %), 3 (25 %)"), "got: {text}");
        assert!(json.contains(
            "\"workers\":[{\"busy_nanos\":900000000,\"items\":7,\"utilization\":0.900000}"
        ));
        assert_eq!(s.utilization(), vec![0.9, 0.25]);

        let clean = EvalStats::default();
        assert!(
            !clean.render_text().contains("resilience"),
            "fault-free runs keep the original report shape"
        );
    }

    #[test]
    fn merge_sums_counters_widens_the_ledger_and_keeps_the_entries_gauge() {
        let load = |busy_nanos, items| WorkerLoad { busy_nanos, items };
        let mut s = EvalStats {
            genomes: 6,
            cache_hits: 2,
            cache_entries: 4,
            lookup_nanos: 10,
            worker_loads: vec![load(100, 4), load(50, 2)],
            ..EvalStats::default()
        };
        // A later serial batch only touches participant 0; the ledger
        // keeps the wider shape.
        s.merge(&EvalStats {
            batches: 1,
            genomes: 1,
            cache_misses: 1,
            cache_entries: 5,
            lookup_nanos: 7,
            worker_loads: vec![load(25, 1)],
            ..EvalStats::default()
        });
        assert_eq!(s.worker_loads, vec![load(125, 5), load(50, 2)]);
        assert_eq!((s.batches, s.genomes), (1, 7));
        assert_eq!((s.cache_hits, s.cache_misses), (2, 1));
        assert_eq!(s.lookup_nanos, 17);
        assert_eq!(s.cache_entries, 5, "gauge, not a sum");
        // Merged into an empty record, a record comes back unchanged.
        let mut empty = EvalStats::default();
        empty.merge(&s);
        assert_eq!(empty, s);
    }
}
