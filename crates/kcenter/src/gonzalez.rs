//! Vanilla Gonzalez greedy `k`-center.

use crate::sweep::farthest_first;
use mdbscan_metric::Metric;
use mdbscan_parallel::ParallelConfig;

/// Output of [`gonzalez`].
#[derive(Debug, Clone)]
pub struct KCenterResult {
    /// Point indices of the selected centers, in selection order.
    pub centers: Vec<usize>,
    /// For each point, the position (in `centers`) of its closest center.
    pub assignment: Vec<u32>,
    /// For each point, the distance to its closest center.
    pub dist_to_center: Vec<f64>,
    /// The clustering radius: `max_p dis(p, centers)`, which is at most
    /// twice the optimal `k`-center radius.
    pub radius: f64,
}

/// Gonzalez's farthest-point greedy for `k`-center clustering
/// (2-approximation; Gonzalez 1985). Deterministic given `first`, the index
/// of the seed center.
///
/// Shares Algorithm 1's cover-set sweep
/// ([`RadiusGuidedNet::build_with`](crate::RadiusGuidedNet::build_with)):
/// `n − 1` distances for the seed, then per new center one distance to
/// each earlier center with a positive cover radius (`O(k²)` in all)
/// plus one per member it could capture — at most `O(n)` per
/// iteration, far fewer on clustered data. Panics if `points` is empty,
/// `k == 0`, or `first` is out of range.
pub fn gonzalez<P: Sync, M: Metric<P> + Sync>(
    points: &[P],
    metric: &M,
    k: usize,
    first: usize,
) -> KCenterResult {
    gonzalez_with(points, metric, k, first, &ParallelConfig::default())
}

/// As [`gonzalez`], with an explicit thread-count knob for the sweep's
/// first round. The sweep is deterministic for any thread count (ties
/// break on point index), so every setting returns the same centers and
/// assignment.
pub fn gonzalez_with<P: Sync, M: Metric<P> + Sync>(
    points: &[P],
    metric: &M,
    k: usize,
    first: usize,
    parallel: &ParallelConfig,
) -> KCenterResult {
    assert!(!points.is_empty(), "k-center of an empty set");
    assert!(k >= 1, "k must be at least 1");
    assert!(first < points.len(), "seed index out of range");
    let k = k.min(points.len());
    let sweep = farthest_first(points, metric, first, parallel.threads(), |len, far_d| {
        // far_d == 0: every remaining point duplicates a center
        !(len >= k || far_d == 0.0)
    });
    KCenterResult {
        centers: sweep.centers,
        assignment: sweep.assignment,
        dist_to_center: sweep.dist,
        radius: sweep.far_d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbscan_metric::Euclidean;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for i in 0..10 {
            v.push(vec![i as f64 * 0.1, 0.0]);
            v.push(vec![100.0 + i as f64 * 0.1, 0.0]);
        }
        v
    }

    #[test]
    fn k2_separates_blobs() {
        let pts = two_blobs();
        let res = gonzalez(&pts, &Euclidean, 2, 0);
        assert_eq!(res.centers.len(), 2);
        assert!(res.radius < 2.0, "radius {} should be small", res.radius);
        // centers in different blobs
        let c0 = pts[res.centers[0]][0];
        let c1 = pts[res.centers[1]][0];
        assert!((c0 < 50.0) != (c1 < 50.0));
        // assignment is the closest center
        for (i, p) in pts.iter().enumerate() {
            let a = res.assignment[i] as usize;
            let da = Euclidean.distance(&pts[res.centers[a]], p);
            for &c in &res.centers {
                assert!(da <= Euclidean.distance(&pts[c], p) + 1e-12);
            }
            assert!((res.dist_to_center[i] - da).abs() < 1e-12);
        }
    }

    #[test]
    fn k_larger_than_distinct_points_stops_early() {
        let pts = vec![vec![0.0], vec![0.0], vec![1.0]];
        let res = gonzalez(&pts, &Euclidean, 10, 0);
        assert_eq!(res.centers.len(), 2);
        assert_eq!(res.radius, 0.0);
    }

    #[test]
    fn radius_is_two_approx_on_line() {
        // 9 points on a line, k=3: optimal radius 1 (centers at 1,4,7).
        let pts: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64]).collect();
        let res = gonzalez(&pts, &Euclidean, 3, 0);
        assert!(
            res.radius <= 2.0 + 1e-12,
            "2-approx bound, got {}",
            res.radius
        );
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let pts: Vec<Vec<f64>> = (0..6000)
            .map(|i| vec![(i % 83) as f64, (i % 71) as f64])
            .collect();
        let seq = gonzalez_with(&pts, &Euclidean, 12, 0, &ParallelConfig::sequential());
        for threads in [2usize, 8] {
            let par = gonzalez_with(&pts, &Euclidean, 12, 0, &ParallelConfig::new(threads));
            assert_eq!(seq.centers, par.centers, "threads={threads}");
            assert_eq!(seq.assignment, par.assignment, "threads={threads}");
        }
    }

    #[test]
    #[should_panic]
    fn empty_input_panics() {
        let pts: Vec<Vec<f64>> = vec![];
        let _ = gonzalez(&pts, &Euclidean, 1, 0);
    }

    #[test]
    #[should_panic]
    fn zero_k_panics() {
        let pts = vec![vec![0.0]];
        let _ = gonzalez(&pts, &Euclidean, 0, 0);
    }
}
