//! Free-running instrumentation counters and their report formats.

use crate::pool::WorkerLoad;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Internal atomic counters, bumped lock-free from worker threads.
#[derive(Debug, Default)]
pub(crate) struct StatCounters {
    pub batches: AtomicU64,
    pub genomes: AtomicU64,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
    pub panics: AtomicU64,
    pub degraded: AtomicU64,
    pub lookup_nanos: AtomicU64,
    pub eval_nanos: AtomicU64,
    pub insert_nanos: AtomicU64,
    pub wall_nanos: AtomicU64,
    /// Per-participant dispatch ledger, merged batch by batch: slot `i`
    /// accumulates what participant `i` (0 = the submitting thread)
    /// contributed across all batches. Cold path — touched once per batch,
    /// not per candidate — so a mutex is fine.
    pub workers: Mutex<Vec<WorkerLoad>>,
}

impl StatCounters {
    pub fn add(&self, field: &AtomicU64, v: u64) {
        field.fetch_add(v, Ordering::Relaxed);
    }

    /// Folds one batch's per-participant loads into the cumulative ledger.
    pub fn merge_loads(&self, loads: &[WorkerLoad]) {
        let mut workers = self.workers.lock().expect("worker ledger");
        if workers.len() < loads.len() {
            workers.resize(loads.len(), WorkerLoad::default());
        }
        for (slot, load) in workers.iter_mut().zip(loads) {
            slot.busy_nanos += load.busy_nanos;
            slot.items += load.items;
        }
    }

    pub fn reset(&self) {
        for f in [
            &self.batches,
            &self.genomes,
            &self.hits,
            &self.misses,
            &self.evictions,
            &self.panics,
            &self.degraded,
            &self.lookup_nanos,
            &self.eval_nanos,
            &self.insert_nanos,
            &self.wall_nanos,
        ] {
            f.store(0, Ordering::Relaxed);
        }
        self.workers.lock().expect("worker ledger").clear();
    }

    pub fn snapshot(&self, cache_entries: u64) -> EvalStats {
        EvalStats {
            worker_loads: self.workers.lock().expect("worker ledger").clone(),
            batches: self.batches.load(Ordering::Relaxed),
            genomes: self.genomes.load(Ordering::Relaxed),
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            cache_entries,
            lookup_nanos: self.lookup_nanos.load(Ordering::Relaxed),
            eval_nanos: self.eval_nanos.load(Ordering::Relaxed),
            insert_nanos: self.insert_nanos.load(Ordering::Relaxed),
            wall_nanos: self.wall_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of the engine's instrumentation.
///
/// `genomes` and `batches` are deterministic for a fixed exploration
/// (results are gathered by index, and every submitted candidate counts
/// exactly once, cache hit or not). Hit/miss totals can shift by a few
/// units across thread counts — concurrent workers may race to first-fill
/// the same key — so throughput tracking should compare `hit_rate()`
/// trends, not exact counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalStats {
    /// Number of `evaluate_batch` calls.
    pub batches: u64,
    /// Total candidates submitted (hits + misses).
    pub genomes: u64,
    /// Candidates answered from the memoization cache.
    pub cache_hits: u64,
    /// Candidates that ran the full evaluation.
    pub cache_misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Worker panics caught by the isolated evaluation path (one per
    /// failed attempt, including attempts later rescued by a retry).
    pub panics: u64,
    /// Candidates that exhausted their retry budget and were degraded to
    /// a typed failure.
    pub degraded: u64,
    /// Entries resident in the cache at snapshot time.
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
    /// participant `i` (0 = the submitting thread, 1.. = pool helpers)
    /// spent inside batch claim loops and how many candidates it
    /// completed. Timing observation — non-deterministic across runs, like
    /// the phase nanos.
    pub worker_loads: Vec<WorkerLoad>,
}

impl EvalStats {
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
    fn counters_reset_to_zero() {
        let c = StatCounters::default();
        c.add(&c.genomes, 5);
        c.add(&c.hits, 2);
        c.merge_loads(&[WorkerLoad {
            busy_nanos: 10,
            items: 5,
        }]);
        assert_eq!(c.snapshot(0).genomes, 5);
        assert_eq!(c.snapshot(0).worker_loads.len(), 1);
        c.reset();
        assert_eq!(c.snapshot(0), EvalStats::default());
    }

    #[test]
    fn worker_ledger_merges_by_participant_index() {
        let c = StatCounters::default();
        c.merge_loads(&[
            WorkerLoad {
                busy_nanos: 100,
                items: 4,
            },
            WorkerLoad {
                busy_nanos: 50,
                items: 2,
            },
        ]);
        // A later serial batch only touches participant 0; the ledger
        // keeps the wider shape.
        c.merge_loads(&[WorkerLoad {
            busy_nanos: 25,
            items: 1,
        }]);
        let s = c.snapshot(0);
        assert_eq!(
            s.worker_loads,
            vec![
                WorkerLoad {
                    busy_nanos: 125,
                    items: 5,
                },
                WorkerLoad {
                    busy_nanos: 50,
                    items: 2,
                },
            ]
        );
    }
}
