//! KL-LUCB best-arm identification.
//!
//! Anchor estimates rule precision with a multi-armed bandit to minimize
//! classifier invocations (paper §3.2). Each candidate rule is an arm; a
//! pull draws rule-conditioned perturbations and observes how many the
//! black box labels with the anchored class. KL-LUCB adaptively pulls the
//! most ambiguous arms until the top-`k` set is separated with confidence
//! `1 − δ` up to tolerance `ε`.

/// Sufficient statistics of one arm (candidate rule).
#[derive(Clone, Copy, Debug, Default)]
pub struct ArmState {
    /// Total rule-conditioned samples drawn.
    pub n: u64,
    /// Samples whose prediction matched the anchored class.
    pub successes: u64,
}

impl ArmState {
    /// Empirical precision; 0 before any pull.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.successes as f64 / self.n as f64
        }
    }
}

/// Bernoulli KL divergence `KL(p ‖ q)` with the usual conventions at the
/// boundaries.
pub fn kl_bernoulli(p: f64, q: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    let q = q.clamp(1e-12, 1.0 - 1e-12);
    let mut kl = 0.0;
    if p > 0.0 {
        kl += p * (p / q).ln();
    }
    if p < 1.0 {
        kl += (1.0 - p) * ((1.0 - p) / (1.0 - q)).ln();
    }
    kl
}

/// Upper KL confidence bound: the largest `q ≥ mean` with
/// `n · KL(mean ‖ q) ≤ beta`, found by bisection. An unpulled arm gets 1.
pub fn kl_upper_bound(arm: &ArmState, beta: f64) -> f64 {
    kl_upper_bound_unless_below(arm, beta, f64::NEG_INFINITY).expect("no bound is below -inf")
}

/// [`kl_upper_bound`]'s bisection, abandoned (`None`) once the bound is
/// known to be below `floor`. The result never exceeds the bracket's upper
/// end, so when that end drops below `floor`, so does the bound.
fn kl_upper_bound_unless_below(arm: &ArmState, beta: f64, floor: f64) -> Option<f64> {
    if arm.n == 0 {
        return Some(1.0);
    }
    let p = arm.mean();
    let level = beta / arm.n as f64;
    let (mut lo, mut hi) = (p, 1.0);
    for _ in 0..32 {
        if hi < floor {
            return None;
        }
        let mid = 0.5 * (lo + hi);
        if kl_bernoulli(p, mid) > level {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(lo)
}

/// Lower KL confidence bound: the smallest `q ≤ mean` with
/// `n · KL(mean ‖ q) ≤ beta`. An unpulled arm gets 0.
pub fn kl_lower_bound(arm: &ArmState, beta: f64) -> f64 {
    if arm.n == 0 {
        return 0.0;
    }
    let p = arm.mean();
    let level = beta / arm.n as f64;
    let (mut lo, mut hi) = (0.0, p);
    for _ in 0..32 {
        let mid = 0.5 * (lo + hi);
        if kl_bernoulli(p, mid) > level {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Exploration rate used by the reference Anchor implementation:
/// `β(t) = ln(n_arms · t^α / δ)` with `α = 1.1`.
pub fn beta(n_arms: usize, t: u64, delta: f64) -> f64 {
    let alpha = 1.1;
    ((n_arms as f64) * (t.max(1) as f64).powf(alpha) / delta)
        .ln()
        .max(0.0)
}

/// One KL-LUCB round's comparison: the weakest member of `top` (lowest
/// lower bound, the first of equals) and the strongest challenger in
/// `rest` (highest upper bound, the last of equals), with the gap between
/// their bounds. Each bound is a bisection, so it is computed once per arm,
/// and a challenger's bisection stops as soon as its bound is known to be
/// below the best one so far (it can then be neither the max nor tie it).
fn separation(arms: &[ArmState], top: &[usize], rest: &[usize], b: f64) -> (usize, usize, f64) {
    let (lt, lower) = top
        .iter()
        .map(|&i| (i, kl_lower_bound(&arms[i], b)))
        .min_by(|x, y| x.1.partial_cmp(&y.1).expect("finite bounds"))
        .expect("top set non-empty");
    let mut best: Option<(usize, f64)> = None;
    for &i in rest {
        let floor = best.map_or(f64::NEG_INFINITY, |(_, upper)| upper);
        match kl_upper_bound_unless_below(&arms[i], b, floor) {
            Some(upper) if upper >= floor => best = Some((i, upper)),
            _ => {}
        }
    }
    let (ut, upper) = best.expect("rest non-empty");
    (lt, ut, upper - lower)
}

/// Identifies the `top_k` arms by mean with KL-LUCB.
///
/// `pull(arm_idx, batch, state)` draws `batch` more samples for one arm and
/// updates its state (returning how many draws actually happened — a
/// sampler may be exhausted). Stops when the gap between the weakest
/// upper bound outside the top set and the weakest lower bound inside it is
/// below `epsilon`, or when no arm can be pulled further, or after
/// `max_pulls` total draws. Returns the indices of the selected arms,
/// best mean first.
#[allow(clippy::too_many_arguments)]
pub fn kl_lucb(
    arms: &mut [ArmState],
    top_k: usize,
    epsilon: f64,
    delta: f64,
    batch: usize,
    max_pulls: u64,
    mut pull: impl FnMut(usize, usize, &mut ArmState) -> usize,
) -> Vec<usize> {
    assert!(!arms.is_empty(), "need at least one arm");
    let k = top_k.min(arms.len());
    let n_arms = arms.len();
    let mut total_pulls: u64 = arms.iter().map(|a| a.n).sum();
    let mut exhausted = vec![false; n_arms];

    loop {
        // Rank arms by mean.
        let mut order: Vec<usize> = (0..n_arms).collect();
        order.sort_by(|&i, &j| {
            arms[j]
                .mean()
                .partial_cmp(&arms[i].mean())
                .expect("finite means")
                .then(i.cmp(&j))
        });
        let (top, rest) = order.split_at(k);
        if rest.is_empty() {
            return top.to_vec();
        }
        let b = beta(n_arms, total_pulls, delta);
        let (lt, ut, gap) = separation(arms, top, rest, b);
        if gap < epsilon || total_pulls >= max_pulls {
            return top.to_vec();
        }
        let mut progressed = false;
        for idx in [ut, lt] {
            if exhausted[idx] {
                continue;
            }
            let drawn = pull(idx, batch, &mut arms[idx]);
            if drawn == 0 {
                exhausted[idx] = true;
            } else {
                total_pulls += drawn as u64;
                progressed = true;
            }
        }
        if !progressed {
            return top.to_vec();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn kl_bernoulli_basics() {
        assert_eq!(kl_bernoulli(0.5, 0.5), 0.0);
        assert!(kl_bernoulli(0.9, 0.1) > 0.0);
        assert!(kl_bernoulli(0.0, 0.5) > 0.0);
        assert!(kl_bernoulli(1.0, 0.5) > 0.0);
        // Asymmetric but always non-negative.
        for &(p, q) in &[(0.2, 0.8), (0.7, 0.3), (0.01, 0.99)] {
            assert!(kl_bernoulli(p, q) >= 0.0);
        }
    }

    #[test]
    fn bounds_bracket_the_mean_and_tighten() {
        let loose = ArmState {
            n: 10,
            successes: 7,
        };
        let tight = ArmState {
            n: 1000,
            successes: 700,
        };
        let b = 2.0;
        let (lo_l, hi_l) = (kl_lower_bound(&loose, b), kl_upper_bound(&loose, b));
        let (lo_t, hi_t) = (kl_lower_bound(&tight, b), kl_upper_bound(&tight, b));
        assert!(lo_l <= 0.7 && 0.7 <= hi_l);
        assert!(lo_t <= 0.7 && 0.7 <= hi_t);
        assert!(
            hi_t - lo_t < hi_l - lo_l,
            "more samples must tighten bounds"
        );
    }

    #[test]
    fn unpulled_arm_has_trivial_bounds() {
        let a = ArmState::default();
        assert_eq!(kl_upper_bound(&a, 1.0), 1.0);
        assert_eq!(kl_lower_bound(&a, 1.0), 0.0);
        assert_eq!(a.mean(), 0.0);
    }

    #[test]
    fn lucb_finds_the_best_arm() {
        // True precisions: arm 2 is clearly best.
        let truth = [0.3, 0.5, 0.95, 0.4];
        let mut arms = vec![ArmState::default(); truth.len()];
        let mut rng = StdRng::seed_from_u64(0);
        let top = kl_lucb(&mut arms, 1, 0.1, 0.05, 16, 100_000, |idx, batch, arm| {
            for _ in 0..batch {
                arm.n += 1;
                if rng.gen_bool(truth[idx]) {
                    arm.successes += 1;
                }
            }
            batch
        });
        assert_eq!(top, vec![2]);
    }

    #[test]
    fn lucb_top2_selection() {
        let truth = [0.9, 0.1, 0.85, 0.2];
        let mut arms = vec![ArmState::default(); truth.len()];
        let mut rng = StdRng::seed_from_u64(1);
        let mut top = kl_lucb(&mut arms, 2, 0.15, 0.05, 16, 100_000, |idx, batch, arm| {
            for _ in 0..batch {
                arm.n += 1;
                if rng.gen_bool(truth[idx]) {
                    arm.successes += 1;
                }
            }
            batch
        });
        top.sort_unstable();
        assert_eq!(top, vec![0, 2]);
    }

    #[test]
    fn lucb_respects_exhausted_arms() {
        // Pull function refuses to draw: must terminate immediately with
        // the prior ranking.
        let mut arms = vec![
            ArmState {
                n: 10,
                successes: 9,
            },
            ArmState {
                n: 10,
                successes: 1,
            },
        ];
        let top = kl_lucb(&mut arms, 1, 0.01, 0.05, 8, 100_000, |_, _, _| 0);
        assert_eq!(top, vec![0]);
    }

    #[test]
    fn lucb_respects_max_pulls() {
        let mut arms = vec![ArmState::default(); 2];
        let mut pulls = 0u64;
        let _ = kl_lucb(&mut arms, 1, 1e-9, 0.05, 4, 40, |_, batch, arm| {
            pulls += batch as u64;
            arm.n += batch as u64;
            // Identical arms: bounds never separate; max_pulls must stop us.
            arm.successes += batch as u64 / 2;
            batch
        });
        assert!(pulls <= 48, "pulled {pulls} times");
    }

    proptest::proptest! {
        /// Computing each bound once, and abandoning challengers that
        /// cannot win, selects the same arms, and the same gap, as
        /// comparing freshly computed bounds inside `min_by` / `max_by`.
        /// Half the arms have tiny counts, so tied bounds (and unpulled
        /// arms) are common and the first-min / last-max tie rule is
        /// exercised; the others have counts whose bounds separate.
        #[test]
        fn separation_matches_the_closure_form(
            counts in proptest::collection::vec((0u8..2, 0u64..400, 0u64..400), 2..12),
            split in 1usize..9,
            b in 0.0f64..20.0,
        ) {
            use proptest::prelude::prop_assert_eq;
            let arms: Vec<ArmState> = counts
                .iter()
                .map(|&(tiny, n, s)| {
                    let (n, s) = if tiny == 0 { (n % 4, s % 4) } else { (n, s) };
                    ArmState { n, successes: s.min(n) }
                })
                .collect();
            let order: Vec<usize> = (0..arms.len()).collect();
            let (top, rest) = order.split_at(split.min(arms.len() - 1));
            let &lt = top
                .iter()
                .min_by(|&&i, &&j| {
                    kl_lower_bound(&arms[i], b)
                        .partial_cmp(&kl_lower_bound(&arms[j], b))
                        .expect("finite bounds")
                })
                .expect("top set non-empty");
            let &ut = rest
                .iter()
                .max_by(|&&i, &&j| {
                    kl_upper_bound(&arms[i], b)
                        .partial_cmp(&kl_upper_bound(&arms[j], b))
                        .expect("finite bounds")
                })
                .expect("rest non-empty");
            let gap = kl_upper_bound(&arms[ut], b) - kl_lower_bound(&arms[lt], b);
            prop_assert_eq!(separation(&arms, top, rest, b), (lt, ut, gap));
        }
    }

    #[test]
    fn beta_grows_with_t_and_arms() {
        assert!(beta(10, 100, 0.05) > beta(10, 10, 0.05));
        assert!(beta(20, 10, 0.05) > beta(10, 10, 0.05));
        assert!(beta(10, 10, 0.01) > beta(10, 10, 0.1));
    }
}
