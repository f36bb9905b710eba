//! Fault models: who decides which execution attempts are hit by a
//! transient fault.

use mcmap_hardening::{HTaskId, HardenedSystem};
use mcmap_model::{Architecture, ExecBounds, Time};
use mcmap_sched::Mapping;
use std::collections::HashSet;

/// Decides whether a given execution attempt of a job is hit by a transient
/// fault.
///
/// # Determinism contract
///
/// The simulator queries the model with `(task, instance, attempt)` and
/// every implementation must be a *pure function of that triple* (plus
/// its own construction-time state, e.g. a seed). Concretely:
///
/// 1. **Repeated queries agree** — asking the same triple twice within
///    one run returns the same verdict. The engine does re-ask: a
///    passive standby's final value is resolved by replaying its
///    attempt's verdict, and the validation campaigns re-simulate
///    configurations while bisecting a violation.
/// 2. **Query order is irrelevant** — the verdict must not depend on
///    which triples were asked before it. Two simulations that drop
///    different application sets (and therefore interleave queries very
///    differently) must face the *same* fault profile, otherwise
///    degraded-mode runs would not be comparable to the analysis.
/// 3. **Equal construction, equal profile** — two models built with the
///    same inputs (same seed for the random model) answer identically,
///    which is what makes a campaign profile reproducible from
///    `(campaign seed + profile index)` alone.
///
/// `&mut self` exists so models *may* keep caches or statistics, not so
/// verdicts may drift: anything mutated must be invisible in the answers.
/// The `fault_model_contract` test module checks all three properties for
/// every model shipped by this crate.
///
/// Campaigns rely on points 1–3 for more than reproducibility:
/// [`monte_carlo`](crate::monte_carlo) and the validation campaigns answer
/// a profile from a [`TrajectoryMemo`](crate::TrajectoryMemo) by asking it
/// the queries an earlier run asked, in that run's order, and reusing that
/// run's result when every verdict agrees. A model whose verdicts depend on
/// query order or history would get another profile's result.
pub trait FaultModel {
    /// Returns `true` if attempt `attempt` of instance `instance` of `task`
    /// is faulty.
    fn faulty(&mut self, task: HTaskId, instance: u64, attempt: u8) -> bool;
}

/// A fault-free run.
///
/// # Examples
///
/// ```
/// use mcmap_sim::{FaultModel, NoFaults};
/// use mcmap_hardening::HTaskId;
/// assert!(!NoFaults.faulty(HTaskId::new(0), 0, 0));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultModel for NoFaults {
    fn faulty(&mut self, _task: HTaskId, _instance: u64, _attempt: u8) -> bool {
        false
    }
}

/// A scripted fault trace: exactly the listed `(task, instance, attempt)`
/// triples are faulty. Used for directed scenarios such as the paper's
/// Fig. 1 motivational example ("a fault occurs at A").
#[derive(Debug, Clone, Default)]
pub struct ScriptedFaults {
    faults: HashSet<(HTaskId, u64, u8)>,
}

impl ScriptedFaults {
    /// Creates an empty script (equivalent to [`NoFaults`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one faulty attempt.
    pub fn with_fault(mut self, task: HTaskId, instance: u64, attempt: u8) -> Self {
        self.faults.insert((task, instance, attempt));
        self
    }

    /// Number of scripted faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` when no fault is scripted.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

impl FaultModel for ScriptedFaults {
    fn faulty(&mut self, task: HTaskId, instance: u64, attempt: u8) -> bool {
        self.faults.contains(&(task, instance, attempt))
    }
}

/// Seeded random faults: each execution attempt of task `v` on its mapped
/// processor is faulty independently with probability
/// `1 − exp(−λ_p · wcet_v)`.
///
/// Determinism: the verdict is a pure hash of
/// `(seed, task, instance, attempt)`, so repeated queries agree, two models
/// with the same seed produce identical profiles, and — crucially — the
/// profile does not depend on the *order* in which the simulator asks
/// (runs that drop different job sets still face the same faults).
///
/// A verdict is one SipHash-1-3 of that tuple compared with the task's
/// threshold. The thresholds depend only on the operating point and the
/// boost, so they are computed once, by [`RandomFaults::new`] and
/// [`RandomFaults::with_boost`]. A campaign builds the model once per point
/// and asks one [`RandomFaults::profile`] per profile seed; the profile
/// borrows the thresholds and allocates nothing.
#[derive(Debug, Clone)]
pub struct RandomFaults {
    /// Per-task fault probability before the boost.
    probs: Vec<f64>,
    /// Per-task `threshold` of the boosted probability.
    thresholds: Vec<f64>,
    key: SeededSip,
}

impl RandomFaults {
    /// Creates the model from the mapped system; per-task probabilities are
    /// derived from the mapped processor's fault rate and the task's
    /// worst-case execution time.
    pub fn new(hsys: &HardenedSystem, arch: &Architecture, mapping: &Mapping, seed: u64) -> Self {
        let probs = hsys
            .tasks()
            .map(|(id, t)| {
                let proc = mapping.proc_of(id);
                let p = arch.processor(proc);
                let wcet = t
                    .nominal_bounds(p.kind)
                    .map(|b: ExecBounds| b.wcet)
                    .unwrap_or(Time::ZERO);
                p.fault_probability(wcet)
            })
            .collect();
        RandomFaults {
            probs,
            thresholds: Vec::new(),
            key: SeededSip::new(seed),
        }
        .with_boost(1.0)
    }

    /// Sets the multiplier of every fault probability to `factor` (each
    /// boosted probability is clamped to `[0, 1]` here, once). Monte-Carlo
    /// worst-case hunting uses boosts ≫ 1 so that rare fault combinations
    /// are actually visited within a bounded number of profiles.
    pub fn with_boost(mut self, factor: f64) -> Self {
        self.thresholds = self
            .probs
            .iter()
            .map(|&p| threshold((p * factor).clamp(0.0, 1.0)))
            .collect();
        self
    }

    /// The fault profile of `seed`: answers exactly as
    /// `RandomFaults::new(.., seed)` with the same boost would, and borrows
    /// this model's thresholds.
    pub fn profile(&self, seed: u64) -> FaultProfile<'_> {
        FaultProfile {
            thresholds: &self.thresholds,
            key: SeededSip::new(seed),
        }
    }
}

impl FaultModel for RandomFaults {
    fn faulty(&mut self, task: HTaskId, instance: u64, attempt: u8) -> bool {
        verdict(&self.thresholds, &self.key, task, instance, attempt)
    }
}

/// One seeded profile of a [`RandomFaults`] model, from
/// [`RandomFaults::profile`].
#[derive(Debug, Clone, Copy)]
pub struct FaultProfile<'a> {
    thresholds: &'a [f64],
    key: SeededSip,
}

impl FaultModel for FaultProfile<'_> {
    fn faulty(&mut self, task: HTaskId, instance: u64, attempt: u8) -> bool {
        verdict(self.thresholds, &self.key, task, instance, attempt)
    }
}

/// `2^64`, which is also `u64::MAX as f64` (the conversion rounds up).
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// The threshold of fault probability `p`: hash `h` is a fault when
/// `(h as f64) < threshold(p)`.
///
/// This is exactly the test `h as f64 / u64::MAX as f64 < p`. The divisor
/// is `2^64`, and scaling by a power of two is exact for every `h as f64`
/// and every `p` in `[0, 1]` (subnormals included), so both sides of
/// `h / 2^64 < p` scale to `h < p · 2^64` without rounding. A NaN `p`
/// (a zero rate under an infinite boost) stays NaN and never faults.
fn threshold(p: f64) -> f64 {
    p * TWO_POW_64
}

fn verdict(thresholds: &[f64], key: &SeededSip, task: HTaskId, instance: u64, attempt: u8) -> bool {
    (key.hash(task.index() as u64, instance, attempt) as f64) < thresholds[task.index()]
}

/// SipHash-1-3 with keys `(0, 0)`, the algorithm behind std's
/// `DefaultHasher`, specialised to the 25-byte message
/// `seed ‖ task ‖ instance ‖ attempt` (three little-endian `u64`s and one
/// byte), with the state after the seed block precomputed.
///
/// On 64-bit little-endian targets this equals hashing the four values
/// into a fresh `DefaultHasher`, which is how verdicts were first
/// defined. std leaves its hasher unspecified; this kernel pins the
/// verdict stream whatever the toolchain or target.
#[derive(Debug, Clone, Copy)]
struct SeededSip([u64; 4]);

impl SeededSip {
    fn new(seed: u64) -> Self {
        // SipHash's initial state: its four constants xor the zero keys.
        let mut v = [
            0x736f_6d65_7073_6575,
            0x646f_7261_6e64_6f6d,
            0x6c79_6765_6e65_7261,
            0x7465_6462_7974_6573,
        ];
        compress(&mut v, seed);
        SeededSip(v)
    }

    fn hash(&self, task: u64, instance: u64, attempt: u8) -> u64 {
        let mut v = self.0;
        compress(&mut v, task);
        compress(&mut v, instance);
        // The last block: the message length (25) in the top byte over
        // the one remaining byte.
        compress(&mut v, 25 << 56 | attempt as u64);
        v[2] ^= 0xff;
        sip_round(&mut v);
        sip_round(&mut v);
        sip_round(&mut v);
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }
}

/// Absorbs one message block (one compression round).
fn compress(v: &mut [u64; 4], m: u64) {
    v[3] ^= m;
    sip_round(v);
    v[0] ^= m;
}

fn sip_round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13) ^ v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16) ^ v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21) ^ v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17) ^ v[2];
    v[2] = v[2].rotate_left(32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_hardening::{harden, HardeningPlan};
    use mcmap_model::{
        AppSet, Architecture, ExecBounds, ProcId, ProcKind, Processor, Task, TaskGraph,
    };

    fn fixture() -> (Architecture, HardenedSystem, Mapping) {
        let arch = Architecture::builder()
            .homogeneous(1, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-3))
            .build()
            .unwrap();
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(50))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0)]).unwrap();
        (arch, hsys, mapping)
    }

    #[test]
    fn scripted_faults_hit_exactly_the_script() {
        let mut f = ScriptedFaults::new()
            .with_fault(HTaskId::new(0), 2, 0)
            .with_fault(HTaskId::new(1), 0, 1);
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
        assert!(f.faulty(HTaskId::new(0), 2, 0));
        assert!(f.faulty(HTaskId::new(1), 0, 1));
        assert!(!f.faulty(HTaskId::new(0), 0, 0));
        assert!(!f.faulty(HTaskId::new(1), 0, 0));
    }

    #[test]
    fn random_faults_are_deterministic_per_seed() {
        let (arch, hsys, mapping) = fixture();
        let mut a = RandomFaults::new(&hsys, &arch, &mapping, 42).with_boost(500.0);
        let mut b = RandomFaults::new(&hsys, &arch, &mapping, 42).with_boost(500.0);
        for inst in 0..50 {
            assert_eq!(
                a.faulty(HTaskId::new(0), inst, 0),
                b.faulty(HTaskId::new(0), inst, 0)
            );
        }
    }

    #[test]
    fn random_fault_answers_are_stable_within_a_run() {
        let (arch, hsys, mapping) = fixture();
        let mut f = RandomFaults::new(&hsys, &arch, &mapping, 7).with_boost(10_000.0);
        let first = f.faulty(HTaskId::new(0), 3, 0);
        for _ in 0..10 {
            assert_eq!(f.faulty(HTaskId::new(0), 3, 0), first);
        }
    }

    #[test]
    fn boost_increases_fault_frequency() {
        let (arch, hsys, mapping) = fixture();
        let count = |boost: f64| {
            let mut f = RandomFaults::new(&hsys, &arch, &mapping, 1).with_boost(boost);
            (0..2000)
                .filter(|&i| f.faulty(HTaskId::new(0), i, 0))
                .count()
        };
        let low = count(1.0);
        let high = count(2000.0);
        assert!(high > low);
        assert!(
            high > 100,
            "boosted rate should fire frequently, got {high}"
        );
    }

    /// Hashes of fixed `(seed, task, instance, attempt)` tuples, recorded
    /// with std's `DefaultHasher` before the in-crate kernel replaced it.
    const PINNED_HASHES: [(u64, u64, u64, u8, u64); 8] = [
        (0, 0, 0, 0, 0x33ea_bced_9e9d_9a9e),
        (1, 0, 0, 0, 0x837c_6f50_f2ba_7a62),
        (42, 3, 17, 1, 0x4531_e877_9b82_36e3),
        (9, 0, 3, 0, 0x27da_baad_ce76_952a),
        (u64::MAX, 12_345, u64::MAX, 255, 0x4420_3c51_7eda_b844),
        (0x0123_4567_89ab_cdef, 7, 1 << 40, 2, 0x6690_ffe4_064a_e471),
        (7, 1 << 23, 999, 3, 0x0fda_cfbf_79dc_48de),
        (0xdead_beef, 55, 1_000_000, 1, 0x8970_8577_522b_b40e),
    ];

    /// The fixture's verdicts for instances 0..40 × attempts 0..3 (bit
    /// `3 · instance + attempt`), recorded with the same hasher, per
    /// `(seed, boost)`. Boost 500 clamps the probability to exactly 1.
    const PINNED_VERDICTS: [(u64, f64, u128); 4] = [
        (9, 5.0, 0x000c_0e09_90a8_c604_5080_80a5_89e4_c660),
        (42, 500.0, 0x00ff_ffff_ffff_ffff_ffff_ffff_ffff_ffff),
        (1, 1.0, 0x0000_0000_0000_1000_0000_0000_0000_1400),
        (3, 0.5, 0x0000_0000_0090_0000_0100_0000_0020_0000),
    ];

    /// The verdict stream is a contract: every campaign digest rests on
    /// these hashes and verdicts.
    #[test]
    fn verdict_stream_is_pinned() {
        for (seed, task, instance, attempt, hash) in PINNED_HASHES {
            assert_eq!(
                SeededSip::new(seed).hash(task, instance, attempt),
                hash,
                "({seed}, {task}, {instance}, {attempt})"
            );
        }
        let (arch, hsys, mapping) = fixture();
        for (seed, boost, bits) in PINNED_VERDICTS {
            let model = RandomFaults::new(&hsys, &arch, &mapping, 0).with_boost(boost);
            let mut fresh = RandomFaults::new(&hsys, &arch, &mapping, seed).with_boost(boost);
            let mut profile = model.profile(seed);
            let mut table = 0u128;
            for k in 0..120 {
                let (instance, attempt) = (k / 3, (k % 3) as u8);
                let verdict = profile.faulty(HTaskId::new(0), instance, attempt);
                assert_eq!(fresh.faulty(HTaskId::new(0), instance, attempt), verdict);
                table |= (verdict as u128) << k;
            }
            assert_eq!(table, bits, "seed {seed}, boost {boost}");
        }
    }

    #[test]
    fn zero_rate_never_faults() {
        let arch = Architecture::builder()
            .homogeneous(1, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 0.0))
            .build()
            .unwrap();
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(50))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0)]).unwrap();
        let mut f = RandomFaults::new(&hsys, &arch, &mapping, 3).with_boost(1e9);
        assert!((0..100).all(|i| !f.faulty(HTaskId::new(0), i, 0)));
    }
}

#[cfg(test)]
mod kernel_properties {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    /// The verdict hash as first defined: the tuple hashed into a fresh
    /// `DefaultHasher`.
    fn reference_hash(seed: u64, task: usize, instance: u64, attempt: u8) -> u64 {
        let mut h = DefaultHasher::new();
        seed.hash(&mut h);
        task.hash(&mut h);
        instance.hash(&mut h);
        attempt.hash(&mut h);
        h.finish()
    }

    /// The verdict test as first defined.
    fn reference_faulty(h: u64, p: f64) -> bool {
        (h as f64 / u64::MAX as f64) < p
    }

    /// The smallest hash the reference does not call faulty. `h as f64`
    /// is monotone in `h`, so the faulty hashes are a prefix of `u64`,
    /// and `u64::MAX` is never faulty at `p ≤ 1`.
    fn first_failing(p: f64) -> u64 {
        let (mut lo, mut hi) = (0u64, u64::MAX);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if reference_faulty(mid, p) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn assert_exact(h: u64, p: f64) {
        assert_eq!(
            (h as f64) < threshold(p),
            reference_faulty(h, p),
            "h = {h}, p = {p:e}"
        );
    }

    #[test]
    fn threshold_is_exact_at_the_edges() {
        let clamped_by_boost = (0.25f64 * 1e3).clamp(0.0, 1.0);
        assert_eq!(clamped_by_boost, 1.0);
        let ps = [
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            1e-300,
            0.5,
            1.0 - f64::EPSILON,
            clamped_by_boost,
            f64::NAN,
        ];
        for p in ps {
            let first = first_failing(p);
            let t = threshold(p) as u64;
            for h in [
                0,
                1,
                first.saturating_sub(1),
                first,
                first.saturating_add(1),
                t.saturating_sub(1),
                t,
                t.saturating_add(1),
                u64::MAX,
            ] {
                assert_exact(h, p);
            }
        }
        // At p = 1 the hashes that round up to 2^64 are not faults.
        assert!(first_failing(1.0) < u64::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Checks the kernel against the `DefaultHasher` of the toolchain
        /// that runs the test. std leaves that hasher unspecified, so the
        /// contract is the pinned vectors of `verdict_stream_is_pinned`;
        /// this property only shows they were not a lucky sample.
        #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
        #[test]
        fn kernel_equals_the_default_hasher(
            seed in any::<u64>(),
            task in any::<usize>(),
            instance in any::<u64>(),
            attempt in any::<u8>(),
        ) {
            prop_assert_eq!(
                SeededSip::new(seed).hash(task as u64, instance, attempt),
                reference_hash(seed, task, instance, attempt)
            );
        }

        /// The threshold test equals the division test for random hashes,
        /// for hashes near the threshold, and for probabilities drawn
        /// uniformly and across every binade of `[0, 1]`.
        #[test]
        fn threshold_test_equals_the_division(
            h in any::<u64>(),
            bits in any::<u64>(),
            uniform in 0.0f64..1.0,
            offset in 0u64..4096,
        ) {
            let binade = f64::from_bits(bits % (1.0f64.to_bits() + 1));
            for p in [binade, uniform] {
                let near = (threshold(p) as u64).wrapping_add(offset).wrapping_sub(2048);
                for h in [h, near, first_failing(p).wrapping_add(offset).wrapping_sub(2048)] {
                    prop_assert_eq!((h as f64) < threshold(p), reference_faulty(h, p));
                }
            }
        }
    }
}

#[cfg(test)]
mod fault_model_contract {
    use super::*;
    use mcmap_hardening::{harden, HardeningPlan};
    use mcmap_model::{
        AppSet, Architecture, ExecBounds, ProcId, ProcKind, Processor, Task, TaskGraph,
    };

    fn fixture() -> (Architecture, HardenedSystem, Mapping) {
        let arch = Architecture::builder()
            .homogeneous(1, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-3))
            .build()
            .unwrap();
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(50))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mapping = Mapping::new(&hsys, &arch, vec![ProcId::new(0)]).unwrap();
        (arch, hsys, mapping)
    }

    /// The query universe the contract is exercised over.
    fn triples() -> Vec<(HTaskId, u64, u8)> {
        let mut v = Vec::new();
        for inst in 0..40 {
            for attempt in 0..3 {
                v.push((HTaskId::new(0), inst, attempt));
            }
        }
        v
    }

    /// Contract checks 1 and 2 for any model: the full verdict table is
    /// identical when queried forward, backward, and with every triple
    /// repeated three times in a row.
    fn assert_contract<'a>(mut make: impl FnMut() -> Box<dyn FaultModel + 'a>) {
        let ts = triples();
        let forward: Vec<bool> = {
            let mut m = make();
            ts.iter().map(|&(t, i, a)| m.faulty(t, i, a)).collect()
        };
        let backward: Vec<bool> = {
            let mut m = make();
            let mut v: Vec<bool> = ts
                .iter()
                .rev()
                .map(|&(t, i, a)| m.faulty(t, i, a))
                .collect();
            v.reverse();
            v
        };
        assert_eq!(forward, backward, "verdicts must not depend on query order");
        let mut m = make();
        for (k, &(t, i, a)) in ts.iter().enumerate() {
            for repeat in 0..3 {
                assert_eq!(
                    m.faulty(t, i, a),
                    forward[k],
                    "repeat {repeat} of {t:?}/{i}/{a} drifted"
                );
            }
        }
    }

    #[test]
    fn all_shipped_models_obey_the_contract() {
        let (arch, hsys, mapping) = fixture();
        assert_contract(|| Box::new(NoFaults));
        assert_contract(|| {
            Box::new(
                ScriptedFaults::new()
                    .with_fault(HTaskId::new(0), 2, 0)
                    .with_fault(HTaskId::new(0), 17, 1),
            )
        });
        assert_contract(|| {
            Box::new(RandomFaults::new(&hsys, &arch, &mapping, 42).with_boost(500.0))
        });
        assert_contract(|| Box::new(ExhaustiveReexecution::new(&hsys)));
    }

    /// Contract check 3 for the random model: the profile is a function
    /// of the seed alone — equal seeds agree everywhere, and different
    /// seeds disagree somewhere (at a boost that makes faults common).
    #[test]
    fn random_profiles_are_seed_functions() {
        let (arch, hsys, mapping) = fixture();
        // Boost 5 puts the per-attempt probability near 0.25 — faults are
        // common but far from certain, so distinct seeds can diverge.
        let table = |seed: u64| -> Vec<bool> {
            let mut m = RandomFaults::new(&hsys, &arch, &mapping, seed).with_boost(5.0);
            triples()
                .iter()
                .map(|&(t, i, a)| m.faulty(t, i, a))
                .collect()
        };
        assert_eq!(table(9), table(9));
        assert_ne!(table(9), table(10), "distinct seeds must diverge");
    }

    /// A profile is the model `new` builds for that seed: same verdict
    /// table, and the model it borrows from is unaffected.
    #[test]
    fn profiles_equal_fresh_models() {
        let (arch, hsys, mapping) = fixture();
        let table = |m: &mut dyn FaultModel| -> Vec<bool> {
            triples()
                .iter()
                .map(|&(t, i, a)| m.faulty(t, i, a))
                .collect()
        };
        let mut base = RandomFaults::new(&hsys, &arch, &mapping, 9).with_boost(5.0);
        let before = table(&mut base);
        for seed in [0, 10, u64::MAX] {
            let mut fresh = RandomFaults::new(&hsys, &arch, &mapping, seed).with_boost(5.0);
            assert_eq!(table(&mut base.profile(seed)), table(&mut fresh));
        }
        assert_eq!(table(&mut base), before);
        assert_contract(|| Box::new(base.profile(42)));
    }
}

/// The *Adhoc* fault model: every re-execution-hardened task is maximally
/// re-executed — all attempts before the last one in the budget are faulty,
/// the final one succeeds. Tasks without a re-execution budget never fault.
///
/// Combined with [`SimConfig::start_critical`](crate::SimConfig) and
/// worst-case execution times, this reproduces the paper's ad-hoc worst-case
/// trace (§5.1): critical from the start of the hyperperiod, `wcet'` from
/// Eq. (1) everywhere, droppable tasks absent.
#[derive(Debug, Clone)]
pub struct ExhaustiveReexecution {
    budgets: Vec<u8>,
}

impl ExhaustiveReexecution {
    /// Builds the model from the hardened system's re-execution budgets.
    pub fn new(hsys: &HardenedSystem) -> Self {
        ExhaustiveReexecution {
            budgets: hsys.tasks().map(|(_, t)| t.reexec).collect(),
        }
    }
}

impl FaultModel for ExhaustiveReexecution {
    fn faulty(&mut self, task: HTaskId, _instance: u64, attempt: u8) -> bool {
        attempt < self.budgets[task.index()]
    }
}

#[cfg(test)]
mod exhaustive_tests {
    use super::*;
    use mcmap_hardening::{harden, HardeningPlan, TaskHardening};
    use mcmap_model::{
        AppSet, Architecture, ExecBounds, ProcKind, Processor, Task, TaskGraph, Time,
    };

    #[test]
    fn exhausts_budget_then_succeeds() {
        let arch = Architecture::builder()
            .homogeneous(1, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-6))
            .build()
            .unwrap();
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let mut plan = HardeningPlan::unhardened(&apps);
        plan.set_by_flat_index(0, TaskHardening::Reexec(2));
        let hsys = harden(&apps, &plan, &arch).unwrap();
        let mut f = ExhaustiveReexecution::new(&hsys);
        assert!(f.faulty(HTaskId::new(0), 0, 0));
        assert!(f.faulty(HTaskId::new(0), 0, 1));
        assert!(!f.faulty(HTaskId::new(0), 0, 2));
        assert!(f.faulty(HTaskId::new(0), 7, 1));
    }

    #[test]
    fn unhardened_tasks_never_fault() {
        let arch = Architecture::builder()
            .homogeneous(1, Processor::new("p", ProcKind::new(0), 5.0, 20.0, 1e-6))
            .build()
            .unwrap();
        let g = TaskGraph::builder("g", Time::from_ticks(100))
            .task(Task::new("t").with_uniform_exec(1, ExecBounds::exact(Time::from_ticks(10))))
            .build()
            .unwrap();
        let apps = AppSet::new(vec![g]).unwrap();
        let hsys = harden(&apps, &HardeningPlan::unhardened(&apps), &arch).unwrap();
        let mut f = ExhaustiveReexecution::new(&hsys);
        assert!(!f.faulty(HTaskId::new(0), 0, 0));
    }
}
