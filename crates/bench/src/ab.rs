//! Paired A/B timing: the one measurement loop behind every gated bench.
//!
//! A measurement runs [`ROUNDS`] rounds of `k` legs, closures the harness
//! times. Round `r` runs every leg once, starting with leg `r mod k`
//! (`k = 2` gives alternating A/B pairs). A gate reads the median of the
//! per-round ratios of one leg's wall to leg 0's: the legs of one round
//! see the same phase of a shared host, so their ratio cancels load swings
//! that a ratio of separately aggregated walls keeps.
//!
//! Before and after each round the harness reads the `cpu` steal field of
//! `/proc/stat`, and it runs a round again when steal took more than
//! [`MAX_STEAL_SHARE`] of it. Past [`MAX_RETRIES`] such retries the
//! measurement is too noisy, which is never a pass.

use std::time::Instant;

/// Clean rounds behind every gate.
pub const ROUNDS: usize = 41;

/// Rounds a measurement may discard for steal before it gives up.
pub const MAX_RETRIES: usize = ROUNDS;

/// The retry rule: a round is discarded when the CPU time stolen during
/// it, summed over all CPUs, exceeds this share of its wall. A round
/// shorter than one steal tick is discarded by any tick.
pub const MAX_STEAL_SHARE: f64 = 0.05;

/// `/proc/stat` counts in `USER_HZ` ticks, which Linux fixes at 100 per
/// second for user space.
const TICKS_PER_SEC: f64 = 100.0;

/// The walls of a measurement's clean rounds.
#[derive(Debug)]
pub struct Measurement {
    /// Wall seconds of each leg in each clean round: `walls[leg][round]`.
    pub walls: Vec<Vec<f64>>,
    /// Steal ticks during each clean round.
    pub steal: Vec<u64>,
    /// Every discarded round as `(round index, steal ticks)`, in order.
    pub retries: Vec<(usize, u64)>,
}

/// A measurement that discarded more than [`MAX_RETRIES`] rounds: every
/// discarded round as `(round index, steal ticks)`.
#[derive(Debug)]
struct TooNoisy(Vec<(usize, u64)>);

/// Lower quartile, median and upper quartile of a sample (linear
/// interpolation between order statistics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// The 25th percentile.
    pub q1: f64,
    /// The 50th percentile.
    pub median: f64,
    /// The 75th percentile.
    pub q3: f64,
}

impl Quartiles {
    /// The quartiles of a non-empty sample.
    pub fn of(xs: &[f64]) -> Self {
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let h = (s.len() - 1) as f64 * q;
            let lo = h.floor() as usize;
            s[lo] + (h - lo as f64) * (s[(lo + 1).min(s.len() - 1)] - s[lo])
        };
        Quartiles {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }
}

impl Measurement {
    /// `leg`'s wall over leg 0's wall, one ratio per clean round.
    fn ratios(&self, leg: usize) -> Vec<f64> {
        let base = &self.walls[0];
        self.walls[leg]
            .iter()
            .zip(base)
            .map(|(w, b)| w / b)
            .collect()
    }

    /// The quartiles of `leg`'s wall over leg 0's wall, one ratio per
    /// clean round; gates read the median.
    pub fn ratio(&self, leg: usize) -> Quartiles {
        Quartiles::of(&self.ratios(leg))
    }

    /// The median wall of one leg, in seconds.
    pub fn wall(&self, leg: usize) -> f64 {
        Quartiles::of(&self.walls[leg]).median
    }

    /// The JSON members (no braces) of leg 0 against `leg`, named `names`:
    /// per-round walls, the ratio quartiles, per-round steal and the
    /// discarded rounds.
    pub fn json(&self, leg: usize, names: [&str; 2]) -> String {
        fn join<T>(xs: &[T], f: impl Fn(&T) -> String) -> String {
            xs.iter().map(f).collect::<Vec<_>>().join(",")
        }
        let secs = |x: &f64| format!("{x:.6}");
        let r = self.ratio(leg);
        format!(
            "\"rounds\":{},\"legs\":[\"{}\",\"{}\"],\"walls_secs\":[[{}],[{}]],\
             \"ratio_q1\":{:.4},\"ratio_median\":{:.4},\"ratio_q3\":{:.4},\
             \"steal_ticks\":[{}],\"retries\":[{}]",
            self.steal.len(),
            names[0],
            names[1],
            join(&self.walls[0], secs),
            join(&self.walls[leg], secs),
            r.q1,
            r.median,
            r.q3,
            join(&self.steal, u64::to_string),
            join(&self.retries, |(round, ticks)| format!("[{round},{ticks}]")),
        )
    }
}

/// Measures `legs` against the host's `/proc/stat` steal. A measurement
/// that runs out of retries prints a `host too noisy` line, the marker
/// `scripts/check.sh` reports as its own outcome, and exits with status
/// 75: it is never a pass.
pub fn measure(legs: &mut [&mut dyn FnMut()]) -> Measurement {
    run(legs, proc_steal).unwrap_or_else(|TooNoisy(retries)| {
        eprintln!(
            "ab: host too noisy: {} rounds discarded for steal before {ROUNDS} were clean \
             (round, ticks): {retries:?}",
            retries.len()
        );
        std::process::exit(75)
    })
}

/// Measures `legs`, reading the cumulative steal ticks from `steal`
/// (`None`: no steal information, the round counts as clean).
fn run(
    legs: &mut [&mut dyn FnMut()],
    mut steal: impl FnMut() -> Option<u64>,
) -> Result<Measurement, TooNoisy> {
    let k = legs.len();
    let mut m = Measurement {
        walls: vec![Vec::with_capacity(ROUNDS); k],
        steal: Vec::with_capacity(ROUNDS),
        retries: Vec::new(),
    };
    let mut round_walls = vec![0.0; k];
    while m.steal.len() < ROUNDS {
        let round = m.steal.len();
        let before = steal();
        for first in 0..k {
            let leg = (round + first) % k;
            let t0 = Instant::now();
            legs[leg]();
            round_walls[leg] = t0.elapsed().as_secs_f64();
        }
        let stolen = before.zip(steal()).map_or(0, |(b, a)| a.saturating_sub(b));
        if stolen as f64 / TICKS_PER_SEC > MAX_STEAL_SHARE * round_walls.iter().sum::<f64>() {
            m.retries.push((round, stolen));
            if m.retries.len() > MAX_RETRIES {
                return Err(TooNoisy(m.retries));
            }
            continue;
        }
        for (walls, &w) in m.walls.iter_mut().zip(&round_walls) {
            walls.push(w);
        }
        m.steal.push(stolen);
    }
    Ok(m)
}

/// The cumulative steal ticks of all CPUs: the eighth value of the `cpu`
/// line of `/proc/stat`.
fn proc_steal() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    cpu.split_whitespace().nth(7)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A steal source whose cumulative count is `counts(read)` on the
    /// `read`-th call (two calls per round).
    fn fake_steal(counts: impl Fn(usize) -> u64) -> impl FnMut() -> Option<u64> {
        let mut read = 0;
        move || {
            read += 1;
            Some(counts(read - 1))
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn proc_stat_has_a_steal_field() {
        assert!(proc_steal().is_some());
    }

    #[test]
    fn known_walls_give_the_expected_quartiles() {
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.75, 2.5, 3.25));
        assert_eq!(Quartiles::of(&[7.0]).median, 7.0);

        let m = Measurement {
            walls: vec![vec![1.0, 2.0, 1.0, 4.0, 2.0], vec![1.5, 2.0, 3.0, 4.0, 5.0]],
            steal: vec![0; 5],
            retries: Vec::new(),
        };
        assert_eq!(m.ratios(1), vec![1.5, 1.0, 3.0, 1.0, 2.5]);
        assert_eq!(
            m.ratio(1),
            Quartiles {
                q1: 1.0,
                median: 1.5,
                q3: 2.5
            }
        );
        assert_eq!(m.wall(0), 2.0);
        assert!(m
            .json(1, ["a", "b"])
            .contains("\"ratio_q1\":1.0000,\"ratio_median\":1.5000,\"ratio_q3\":2.5000"));
    }

    #[test]
    fn leg_order_rotates_between_rounds() {
        let log = RefCell::new(Vec::new());
        let (mut a, mut b, mut c) = (
            || log.borrow_mut().push(0),
            || log.borrow_mut().push(1),
            || log.borrow_mut().push(2),
        );
        let m = run(&mut [&mut a, &mut b, &mut c], fake_steal(|_| 0)).expect("no steal");
        assert_eq!(m.walls.len(), 3);
        assert!(m.walls.iter().all(|w| w.len() == ROUNDS));
        let log = log.into_inner();
        assert_eq!(&log[..9], &[0, 1, 2, 1, 2, 0, 2, 0, 1]);
        for (round, order) in log.chunks(3).enumerate() {
            assert_eq!(
                order[0],
                round % 3,
                "round {round} starts with the wrong leg"
            );
        }
    }

    #[test]
    fn a_steal_jump_retries_that_round_and_records_it() {
        let runs = RefCell::new(0);
        let (mut a, mut b) = (|| *runs.borrow_mut() += 1, || {});
        // Steal jumps by 3 ticks between the two reads of round 4 only.
        let m = run(
            &mut [&mut a, &mut b],
            fake_steal(|read| if read > 8 { 3 } else { 0 }),
        )
        .expect("one retry fits the budget");
        assert_eq!(m.retries, vec![(4, 3)]);
        assert_eq!(m.steal, vec![0; ROUNDS]);
        assert_eq!(m.walls[0].len(), ROUNDS);
        assert_eq!(runs.into_inner(), ROUNDS + 1, "round 4 ran twice");
    }

    #[test]
    fn exhausted_retries_are_too_noisy_never_a_pass() {
        // Steal rises by one tick per read: every round is stolen from.
        let (mut a, mut b) = (|| {}, || {});
        let noisy = run(&mut [&mut a, &mut b], fake_steal(|read| read as u64))
            .expect_err("a round stolen from every time cannot pass");
        let TooNoisy(retries) = noisy;
        assert_eq!(retries.len(), MAX_RETRIES + 1);
        assert!(retries
            .iter()
            .all(|&(round, ticks)| round == 0 && ticks == 1));

        // Without steal information nothing is retried.
        let m = run(&mut [&mut a, &mut b], || None).expect("no steal source");
        assert!(m.retries.is_empty());
    }
}
