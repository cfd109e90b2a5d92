//! Algorithm 1: radius-guided Gonzalez.

use crate::adjacency::CenterAdjacency;
use crate::sweep::farthest_first;
use mdbscan_metric::Metric;
use mdbscan_parallel::{Csr, ParallelConfig};

/// Knobs for [`RadiusGuidedNet::build_with`]. Plain-old-data (`Copy`),
/// so an owning engine can stash and replay it freely.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Index of the arbitrary first center `p₀` (paper line 1). Default 0.
    pub first: usize,
    /// Worker threads for the sweep's first round, the `n − 1`
    /// distances to `p₀`; every later round is a few thousand
    /// evaluations after the cover-set skipping and runs inline. The
    /// split results are element-local and the farthest-point choice
    /// breaks ties on point index, so the result is **identical for
    /// every thread count** — the default is the machine's available
    /// parallelism.
    pub parallel: ParallelConfig,
    /// Hard cap on `|E|`; `usize::MAX` by default. A safety valve for
    /// adversarial inputs where `r̄` was chosen far below the data's
    /// resolution (Lemma 1 bounds `|E|` by `O((Δ/r̄)^D) + z`, but `D` of
    /// the *whole* input is unbounded).
    pub max_centers: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            first: 0,
            parallel: ParallelConfig::default(),
            max_centers: usize::MAX,
        }
    }
}

/// The output of the radius-guided Gonzalez greedy (paper Algorithm 1): an
/// `r̄`-net `E` of the input with its Voronoi decomposition.
///
/// Properties (proved in §2 of the paper, certified by the tests below):
///
/// * **covering**: every point is within `r̄` of its center
///   (`dist_to_center[p] ≤ r̄`), except when `max_centers` truncated the run
///   (then [`RadiusGuidedNet::covered`] is false);
/// * **packing**: distinct centers are more than `r̄` apart;
/// * the cover sets `C_e` partition the input.
///
/// The net depends only on `(X, dis, r̄)` — *not* on `(ε, MinPts)` — which
/// is what makes parameter tuning cheap (Remark 5/6): build once with
/// `r̄ ≤ ε₀/2`, then reuse for every `(ε, MinPts)` with `ε ≥ ε₀`. It also
/// does not depend on the thread count used to build it.
#[derive(Debug, Clone)]
pub struct RadiusGuidedNet {
    /// The radius bound `r̄` the net was built with.
    pub rbar: f64,
    /// Point indices of the centers `E`, in insertion order.
    pub centers: Vec<usize>,
    /// For each point, the position in `centers` of its closest center
    /// `c_p` (ties broken toward the earlier center).
    pub assignment: Vec<u32>,
    /// For each point, `dis(p, c_p)`.
    pub dist_to_center: Vec<f64>,
    /// Cover sets `C_e`: for each center, the points assigned to it,
    /// ascending — every point appears in exactly one row. Stored flat
    /// (offsets + values) so the Step 1–3 inner loops stream contiguous
    /// memory.
    pub cover_sets: Csr,
    /// Whether the greedy reached `d_max ≤ r̄` (false only when truncated
    /// by `max_centers`).
    pub covered: bool,
}

impl RadiusGuidedNet {
    /// Runs Algorithm 1 with default options (first center = point 0,
    /// first sweep round split over available cores).
    ///
    /// Panics if `points` is empty or `rbar` is not positive and finite.
    pub fn build<P: Sync, M: Metric<P> + Sync>(points: &[P], metric: &M, rbar: f64) -> Self {
        Self::build_with(points, metric, rbar, &BuildOptions::default())
    }

    /// Runs Algorithm 1 with explicit options.
    ///
    /// Cost: `n − 1` distances for the first center, then per new center
    /// `c` one distance `dis(c, e)` to each earlier center `e` whose
    /// cover set has a positive radius `r_e` — `O(|E|²)` in all — plus
    /// one early-abandoned distance per member that `c` could capture.
    /// A set with `dis(c, e) > 2·r_e`, and a member `p` with
    /// `dis(c, e) > 2·dis(p, e)`, is out of reach by the triangle
    /// inequality and skipped without evaluation (both tests carry a
    /// relative slack of `1e-9` against rounding; see the
    /// floating-point caveat in `mdbscan_metric::prune`). The net is
    /// bit-identical to re-sweeping all `n` points per center, which
    /// costs `|E|·n` distances.
    pub fn build_with<P: Sync, M: Metric<P> + Sync>(
        points: &[P],
        metric: &M,
        rbar: f64,
        opts: &BuildOptions,
    ) -> Self {
        assert!(!points.is_empty(), "Algorithm 1 on an empty set");
        assert!(
            rbar.is_finite() && rbar > 0.0,
            "radius bound must be positive and finite, got {rbar}"
        );
        assert!(opts.first < points.len(), "first-center index out of range");
        let max_centers = opts.max_centers.max(1);
        let sweep = farthest_first(
            points,
            metric,
            opts.first,
            opts.parallel.threads(),
            |k, far_d| !(far_d <= rbar || k >= max_centers),
        );
        let cover_sets = Csr::from_assignment(&sweep.assignment, sweep.centers.len());
        RadiusGuidedNet {
            rbar,
            centers: sweep.centers,
            assignment: sweep.assignment,
            dist_to_center: sweep.dist,
            cover_sets,
            covered: sweep.far_d <= rbar,
        }
    }

    /// Number of points the net was built over.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when built over zero points (cannot happen via `build`, but
    /// keeps the API total).
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Computes the neighbor-ball adjacency at `threshold`: for every
    /// center `e`, the centers `e'` with `dis(e, e') ≤ threshold`
    /// (including `e` itself).
    ///
    /// With `threshold = 2r̄ + ε` this is exactly the paper's `A_p` for
    /// every `p ∈ C_e` (definition (1)); the ρ-approximate algorithm uses
    /// `4r̄ + ε` (definition (13)). Cost: `|E|²/2` early-abandoned distance
    /// evaluations — independent of `n`, so re-running it per `(ε, MinPts)`
    /// choice is the cheap part of parameter tuning.
    pub fn neighbor_adjacency<P: Sync, M: mdbscan_metric::BatchMetric<P> + Sync>(
        &self,
        points: &[P],
        metric: &M,
        threshold: f64,
    ) -> CenterAdjacency {
        CenterAdjacency::build(points, metric, &self.centers, threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbscan_metric::{CountingMetric, Euclidean};

    fn line(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64]).collect()
    }

    fn check_net_properties(pts: &[Vec<f64>], net: &RadiusGuidedNet) {
        // covering
        for (i, p) in pts.iter().enumerate() {
            let c = net.centers[net.assignment[i] as usize];
            let d = Euclidean.distance(&pts[c], p);
            assert!((d - net.dist_to_center[i]).abs() < 1e-12);
            if net.covered {
                assert!(
                    d <= net.rbar + 1e-12,
                    "point {i} at {d} > rbar {}",
                    net.rbar
                );
            }
            // closest center
            for &e in &net.centers {
                assert!(d <= Euclidean.distance(&pts[e], p) + 1e-12);
            }
        }
        // packing
        for (a, &ci) in net.centers.iter().enumerate() {
            for &cj in net.centers.iter().skip(a + 1) {
                assert!(
                    Euclidean.distance(&pts[ci], &pts[cj]) > net.rbar,
                    "centers {ci},{cj} violate packing"
                );
            }
        }
        // partition
        assert_eq!(net.cover_sets.total_len(), pts.len());
        let mut seen = vec![false; pts.len()];
        for (e, set) in net.cover_sets.iter().enumerate() {
            for &p in set {
                assert!(!seen[p as usize]);
                seen[p as usize] = true;
                assert_eq!(net.assignment[p as usize] as usize, e);
            }
        }
    }

    #[test]
    fn net_on_a_line() {
        let pts = line(100);
        let net = RadiusGuidedNet::build(&pts, &Euclidean, 5.0);
        assert!(net.covered);
        assert!(net.centers.len() >= 10, "needs >= Δ/2r̄ centers");
        check_net_properties(&pts, &net);
    }

    #[test]
    fn tiny_radius_promotes_every_point() {
        let pts = line(20);
        let net = RadiusGuidedNet::build(&pts, &Euclidean, 0.5);
        assert_eq!(net.centers.len(), 20);
        assert!(net.covered);
        check_net_properties(&pts, &net);
    }

    #[test]
    fn huge_radius_single_center() {
        let pts = line(20);
        let net = RadiusGuidedNet::build(&pts, &Euclidean, 100.0);
        assert_eq!(net.centers.len(), 1);
        assert_eq!(net.centers[0], 0);
        assert!(net.covered);
    }

    #[test]
    fn duplicates_are_fine() {
        let pts = vec![vec![0.0]; 7];
        let net = RadiusGuidedNet::build(&pts, &Euclidean, 1.0);
        assert_eq!(net.centers.len(), 1);
        assert_eq!(net.cover_sets[0].len(), 7);
    }

    #[test]
    fn max_centers_truncates() {
        let pts = line(100);
        let opts = BuildOptions {
            max_centers: 3,
            ..Default::default()
        };
        let net = RadiusGuidedNet::build_with(&pts, &Euclidean, 0.1, &opts);
        assert_eq!(net.centers.len(), 3);
        assert!(!net.covered);
    }

    #[test]
    fn custom_first_center() {
        let pts = line(50);
        let opts = BuildOptions {
            first: 25,
            ..Default::default()
        };
        let net = RadiusGuidedNet::build_with(&pts, &Euclidean, 10.0, &opts);
        assert_eq!(net.centers[0], 25);
        check_net_properties(&pts, &net);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let pts: Vec<Vec<f64>> = (0..9000)
            .map(|i| vec![(i % 97) as f64, (i % 89) as f64 * 0.5])
            .collect();
        let seq = RadiusGuidedNet::build_with(
            &pts,
            &Euclidean,
            7.0,
            &BuildOptions {
                parallel: ParallelConfig::sequential(),
                ..Default::default()
            },
        );
        for threads in [2usize, 4, 8] {
            let par = RadiusGuidedNet::build_with(
                &pts,
                &Euclidean,
                7.0,
                &BuildOptions {
                    parallel: ParallelConfig::new(threads),
                    ..Default::default()
                },
            );
            assert_eq!(seq.centers, par.centers, "threads={threads}");
            assert_eq!(seq.assignment, par.assignment, "threads={threads}");
            assert_eq!(seq.cover_sets, par.cover_sets, "threads={threads}");
        }
    }

    #[test]
    fn linear_distance_cost_per_iteration() {
        let pts = line(500);
        let counting = CountingMetric::new(Euclidean);
        let opts = BuildOptions {
            parallel: ParallelConfig::sequential(),
            ..Default::default()
        };
        let net = RadiusGuidedNet::build_with(&pts, &counting, 50.0, &opts);
        // Each iteration sweeps at most n points.
        let iters = net.centers.len() as u64;
        assert!(
            counting.count() <= iters * 500,
            "count {} > iters {} * n",
            counting.count(),
            iters
        );
    }

    #[test]
    #[should_panic]
    fn zero_radius_panics() {
        let pts = line(5);
        let _ = RadiusGuidedNet::build(&pts, &Euclidean, 0.0);
    }

    #[test]
    #[should_panic]
    fn nan_radius_panics() {
        let pts = line(5);
        let _ = RadiusGuidedNet::build(&pts, &Euclidean, f64::NAN);
    }
}
