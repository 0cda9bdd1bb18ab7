//! The round estimator.
//!
//! The host is a small virtual machine that switches between a fast
//! state and one about 1.6 times slower, in stretches from a tenth of a
//! second to tens of seconds, on top of a slower drift of some ten per
//! cent. The median of a timed loop therefore says which state the host
//! was mostly in, not what the code costs. Every timed phase is cut into
//! short rounds that do identical work by construction, and the reported
//! value is the **least-disturbed twentieth**: the 5th percentile of the
//! rounds for a time, the 95th for a throughput. It needs only one round
//! in twenty to have run undisturbed, and unlike the single best round
//! it is not set by the rare round that ran faster than the host
//! normally allows. With fewer than twenty rounds it is the best round.
//! Median and quartiles over rounds are kept beside the value for the
//! record.

use std::time::{Duration, Instant};

/// Which direction is good.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's value with the spread of the rounds it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The least-disturbed twentieth of the rounds.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub rounds: usize,
}

impl Summary {
    /// A value that did not come from rounds (a count, a ratio).
    pub fn single(value: f64) -> Summary {
        Summary { value, median: value, q1: value, q3: value, rounds: 1 }
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `samples` and return the nearest-rank percentile.
pub fn percentile_of(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    percentile(samples, p)
}

/// Sort `samples` and return their median (nearest rank).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile_of(samples, 0.5)
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), because that is what the run
/// spreads are judged by. One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = (i * (n + 1)) as f64;
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Outside the data the exclusive method extrapolates: delta may
        // leave 0..4, exactly as in Python.
        let delta = m - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Share of the rounds taken as undisturbed.
const CLEAN_SHARE: f64 = 0.05;

/// Reduce per-round values to a [`Summary`].
pub fn summarize(rounds: &[f64], better: Better) -> Summary {
    let (q1, median, q3) = quartiles(rounds);
    let mut sorted = rounds.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let value = match better {
        Better::Lower => percentile(&sorted, CLEAN_SHARE),
        Better::Higher => {
            // The mirror image: as many rounds above it as the 5th
            // percentile has below.
            sorted.reverse();
            percentile(&sorted, CLEAN_SHARE)
        }
    };
    Summary { value, median, q1, q3, rounds: rounds.len() }
}

/// A latency percentile that needs more samples than one short round
/// holds: pool the samples of the least-disturbed twentieth of the
/// rounds — those with the lowest median — and take the percentile of
/// the pool. The quartiles beside it are of the per-round percentile.
pub fn tail_of_clean_rounds(rounds: &mut [Vec<f64>], p: f64) -> Summary {
    assert!(!rounds.is_empty(), "tail of no rounds");
    for r in rounds.iter_mut() {
        r.sort_unstable_by(f64::total_cmp);
    }
    let per_round: Vec<f64> = rounds.iter().map(|r| percentile(r, p)).collect();
    let (q1, median, q3) = quartiles(&per_round);
    rounds.sort_by(|a, b| percentile(a, 0.5).total_cmp(&percentile(b, 0.5)));
    let clean = ((CLEAN_SHARE * rounds.len() as f64).ceil() as usize).max(1);
    let mut pool: Vec<f64> = rounds[..clean].concat();
    Summary { value: percentile_of(&mut pool, p), median, q1, q3, rounds: rounds.len() }
}

/// One kind of round in a measuring window.
#[derive(Clone, Copy, Debug)]
pub struct Lane {
    /// Share of the window's time this kind of round should get.
    pub share: f64,
    /// Never fewer rounds than this, however slow the host.
    pub min: usize,
    /// Never more, however fast the code: the work of a run stays
    /// bounded.
    pub max: usize,
}

impl Lane {
    pub const fn new(share: f64, min: usize, max: usize) -> Lane {
        Lane { share, min, max }
    }
}

/// Run rounds of several kinds, interleaved over one window of
/// `seconds`, calling `round(lane, index)` for each.
///
/// The host's speed drifts between levels that each last tens of
/// seconds. Rounds of one kind are therefore not run back to back but
/// spread over the whole window, the next round always going to the
/// lane that has had least time for its share, so that every metric
/// sees every level the window saw and its least-disturbed round comes
/// from the best of them.
///
/// `at_floor` is called once, when every lane has done its minimum: the
/// one moment in a window by which a fixed amount of work has been done
/// whatever the host's speed. Returns the rounds done per lane.
pub fn interleave(
    seconds: f64,
    lanes: &[Lane],
    mut round: impl FnMut(usize, usize),
    at_floor: impl FnOnce(),
) -> Vec<usize> {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let mut spent = vec![0.0f64; lanes.len()];
    let mut done = vec![0usize; lanes.len()];
    let mut at_floor = Some(at_floor);
    loop {
        let below_floor = (0..lanes.len()).any(|l| done[l] < lanes[l].min);
        if let Some(hook) = at_floor.take_if(|_| !below_floor) {
            hook();
        }
        let in_time = start.elapsed() < budget;
        // Until the floor is reached only lanes below theirs run, so the
        // work done by then does not depend on the host's speed.
        let next = (0..lanes.len())
            .filter(|&l| done[l] < lanes[l].max.max(lanes[l].min))
            .filter(|&l| if below_floor { done[l] < lanes[l].min } else { in_time })
            .min_by(|&a, &b| (spent[a] / lanes[a].share).total_cmp(&(spent[b] / lanes[b].share)));
        let Some(lane) = next else {
            return done;
        };
        let t = Instant::now();
        round(lane, done[lane]);
        spent[lane] += t.elapsed().as_secs_f64();
        done[lane] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 1,000 samples leave exactly ten beyond the 99th percentile.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(v.iter().filter(|x| **x > percentile(&v, 0.99)).count(), 10);
        let mut unsorted = [3.0, 1.0, 2.0];
        assert_eq!(percentile_of(&mut unsorted, 0.5), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the data.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn the_least_disturbed_twentieth_is_reported() {
        // Fewer than twenty rounds: the best one.
        let rounds = [50.0, 61.0, 40.0, 60.0, 59.0];
        let up = summarize(&rounds, Better::Higher);
        assert_eq!((up.value, up.median, up.rounds), (61.0, 59.0, 5));
        let down = summarize(&rounds, Better::Lower);
        assert_eq!(down.value, 40.0);
        assert!(down.q1 <= down.median && down.median <= down.q3);
        assert_eq!(Summary::single(3.0).q3, 3.0);
        // A hundred rounds: the fifth from the good end, so that four
        // freak rounds do not set the value.
        let mut rounds: Vec<f64> = (1..=100).map(f64::from).collect();
        rounds[0] = 0.001;
        assert_eq!(summarize(&rounds, Better::Lower).value, 5.0);
        rounds[99] = 1e9;
        assert_eq!(summarize(&rounds, Better::Higher).value, 96.0);
    }

    #[test]
    fn a_tail_is_taken_over_the_clean_rounds_pooled() {
        // Forty rounds of ten samples; the two with the lowest median are
        // the clean twentieth, and the tail is the pool's percentile.
        let mut rounds: Vec<Vec<f64>> =
            (0..40).map(|r| (0..10).map(|i| f64::from(100 * (r + 1) + i)).collect()).collect();
        rounds.reverse();
        let s = tail_of_clean_rounds(&mut rounds, 0.9);
        // Pool: 100..=109 and 200..=209; its 90th percentile is the 18th.
        assert_eq!(s.value, 207.0);
        assert_eq!(s.rounds, 40);
        assert!(s.median > 2000.0, "the record keeps every round's own percentile");
        let s = tail_of_clean_rounds(&mut [vec![3.0, 1.0, 2.0]], 1.0);
        assert_eq!((s.value, s.median), (3.0, 3.0));
    }

    #[test]
    fn lanes_respect_floor_cap_and_share() {
        let one = |min, max| [Lane::new(1.0, min, max)];
        assert_eq!(interleave(0.0, &one(3, 10), |_, _| {}, || {}), [3]);
        assert_eq!(interleave(60.0, &one(1, 4), |_, _| {}, || {}), [4]);
        // The floor hook fires once, after exactly the minimum rounds.
        let seen = std::cell::RefCell::new(Vec::new());
        let mut at_floor = Vec::new();
        let lanes = [Lane::new(0.5, 2, 3), Lane::new(0.5, 1, 3)];
        let done = interleave(
            60.0,
            &lanes,
            |l, i| seen.borrow_mut().push((l, i)),
            || {
                at_floor = seen.borrow().clone();
            },
        );
        assert_eq!(done, [3, 3]);
        at_floor.sort_unstable();
        assert_eq!(at_floor, [(0, 0), (0, 1), (1, 0)]);
        // Equal rounds, unequal shares: the lane with three times the
        // share gets about three times the rounds, and they alternate.
        let mut order = Vec::new();
        let nap = || std::thread::sleep(Duration::from_millis(2));
        let lanes = [Lane::new(0.75, 1, 1000), Lane::new(0.25, 1, 1000)];
        let done = interleave(
            0.2,
            &lanes,
            |l, _| {
                order.push(l);
                nap();
            },
            || {},
        );
        assert!(done[0] > 2 * done[1] && done[1] >= 5, "{done:?}");
        let last_of_minor = order.iter().rposition(|&l| l == 1).unwrap();
        assert!(last_of_minor > order.len() * 3 / 4, "the minor lane is spread over the window");
    }
}
