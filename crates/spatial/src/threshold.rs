//! Connectivity-threshold search over random point clouds.
//!
//! For a point-cloud sampler, the critical radius `R*` is the smallest
//! transmission radius at which the disk-graph snapshot is connected with
//! probability at least one half. The paper's introduction highlights that
//! for the MRWP stationary distribution this threshold is *exponentially*
//! larger (a root of `n`) than for uniform clouds (`Θ(√log n)` when
//! `L = √n`); experiment E11 measures both with this module.

use crate::disk_giant_fraction;
use fastflood_geom::{Point, Rect};

/// Configuration for [`connectivity_threshold`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdSearch {
    /// Snapshots drawn per radius probe.
    pub trials_per_radius: usize,
    /// Bisection stops when the bracket width falls below
    /// `tolerance · upper_bound`.
    pub relative_tolerance: f64,
    /// The empirical connection probability that counts as "connected
    /// enough" (1/2 is the customary threshold definition).
    pub target_probability: f64,
}

impl Default for ThresholdSearch {
    fn default() -> Self {
        ThresholdSearch {
            trials_per_radius: 9,
            relative_tolerance: 0.02,
            target_probability: 0.5,
        }
    }
}

/// Finds the connectivity-threshold radius of a random point cloud by
/// bisection.
///
/// `sample` draws one snapshot (a fresh vector of positions) per call;
/// for each probed radius, `trials_per_radius` snapshots are drawn and the
/// empirical probability of connectivity is compared against
/// `target_probability`. The search starts the bracket's upper end at
/// 1/256 of the region diameter and doubles it until the probe succeeds
/// (thresholds sit far below the diameter, and probes at large radii
/// are the expensive ones), then bisects `[0, upper]` until the bracket
/// is at most `relative_tolerance` times its upper end — or has shrunk
/// to the coordinate resolution, for clouds connected at every radius.
///
/// Returns the midpoint of the final bracket.
///
/// # Panics
///
/// Panics if `sample` returns an empty cloud, or if the search
/// configuration is degenerate (zero trials, non-positive tolerance,
/// target probability outside `(0, 1)`).
///
/// # Examples
///
/// ```
/// use fastflood_geom::{Point, Rect};
/// use fastflood_spatial::{connectivity_threshold, ThresholdSearch};
///
/// // A deterministic 10-point chain with spacing 1: the threshold is 1.
/// let region = Rect::square(10.0)?;
/// let r = connectivity_threshold(
///     region,
///     ThresholdSearch { trials_per_radius: 1, ..Default::default() },
///     || (0..10).map(|i| Point::new(i as f64, 0.0)).collect(),
/// );
/// assert!((r - 1.0).abs() < 0.1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn connectivity_threshold<F>(region: Rect, config: ThresholdSearch, mut sample: F) -> f64
where
    F: FnMut() -> Vec<Point>,
{
    assert!(
        config.trials_per_radius > 0,
        "need at least one trial per radius"
    );
    assert!(
        config.relative_tolerance > 0.0,
        "tolerance must be positive"
    );
    assert!(
        config.target_probability > 0.0 && config.target_probability < 1.0,
        "target probability must be in (0, 1)"
    );
    let diameter = (region.width().powi(2) + region.height().powi(2)).sqrt();
    let mut connected_enough = |radius: f64| {
        let mut connected = 0usize;
        for _ in 0..config.trials_per_radius {
            let pts = sample();
            assert!(!pts.is_empty(), "sampler returned an empty cloud");
            if disk_giant_fraction(region, radius, &pts).expect("finite positions") == 1.0 {
                connected += 1;
            }
        }
        connected as f64 / config.trials_per_radius as f64 >= config.target_probability
    };
    // every cloud in the region is connected at the diameter, which
    // 1/256 of it reaches after eight exact doublings
    let mut hi = diameter / 256.0;
    while hi < diameter && !connected_enough(hi) {
        hi *= 2.0;
    }
    // P(connected) is monotone nondecreasing in R for a fixed snapshot, so
    // bisection on the empirical probability converges to the threshold.
    let mut lo = 0.0_f64;
    while hi - lo > config.relative_tolerance * hi && hi > f64::EPSILON * diameter {
        let mid = 0.5 * (lo + hi);
        if connected_enough(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn deterministic_chain_threshold() {
        let region = Rect::square(20.0).unwrap();
        let spacing = 2.0;
        let r = connectivity_threshold(
            region,
            ThresholdSearch {
                trials_per_radius: 1,
                relative_tolerance: 0.005,
                target_probability: 0.5,
            },
            || {
                (0..10)
                    .map(|i| Point::new(i as f64 * spacing, 0.0))
                    .collect()
            },
        );
        assert!(
            (r - spacing).abs() < 0.2,
            "threshold {r} should be near the chain spacing {spacing}"
        );
    }

    #[test]
    fn singleton_cloud_threshold_is_zero_ish() {
        let region = Rect::square(10.0).unwrap();
        let r = connectivity_threshold(
            region,
            ThresholdSearch {
                trials_per_radius: 1,
                ..Default::default()
            },
            || vec![Point::new(5.0, 5.0)],
        );
        // one point is always connected: the bracket collapses to ~0
        assert!(r < 0.5);
    }

    #[test]
    fn opposite_corners_connect_at_the_diagonal() {
        // the bisection probes radii above the region side, where the
        // grid has a single bucket narrower than the radius
        let region = Rect::square(10.0).unwrap();
        let r = connectivity_threshold(
            region,
            ThresholdSearch {
                trials_per_radius: 1,
                relative_tolerance: 0.001,
                target_probability: 0.5,
            },
            || vec![Point::new(0.0, 0.0), Point::new(10.0, 10.0)],
        );
        let diagonal = 200f64.sqrt();
        assert!((r - diagonal).abs() < 0.02 * diagonal, "{r} vs {diagonal}");
    }

    #[test]
    fn uniform_cloud_threshold_decreases_with_n() {
        let region = Rect::square(100.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut threshold_for = |n: usize| {
            connectivity_threshold(
                region,
                ThresholdSearch {
                    trials_per_radius: 5,
                    relative_tolerance: 0.01,
                    target_probability: 0.5,
                },
                || {
                    (0..n)
                        .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                        .collect()
                },
            )
        };
        let sparse = threshold_for(30);
        let dense = threshold_for(300);
        assert!(
            dense < sparse,
            "denser clouds connect at smaller radii ({dense} vs {sparse})"
        );
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn rejects_zero_trials() {
        let region = Rect::square(10.0).unwrap();
        connectivity_threshold(
            region,
            ThresholdSearch {
                trials_per_radius: 0,
                ..Default::default()
            },
            || vec![Point::new(0.0, 0.0)],
        );
    }

    #[test]
    #[should_panic(expected = "empty cloud")]
    fn rejects_empty_sampler() {
        let region = Rect::square(10.0).unwrap();
        connectivity_threshold(region, ThresholdSearch::default(), Vec::new);
    }
}
