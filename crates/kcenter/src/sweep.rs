//! The farthest-point sweep shared by both Gonzalez greedies.
//!
//! Each round adds the point `c` farthest from the current centers and
//! lets it capture every point it is strictly closer to. A full sweep
//! re-measures all `n` points against `c`; this one only touches the
//! cover sets `c` can reach. Each center keeps its members with their
//! distances `d[p]` and its farthest member (radius `r_e`). By the
//! triangle inequality `dis(c, p) ≥ dis(c, e) − d[p]`, so `p ∈ C_e` can
//! be captured (`dis(c, p) < d[p]`) only if `dis(c, e) ≤ 2·d[p]`, and
//! the whole set only if `dis(c, e) ≤ 2·r_e`. A round therefore costs
//! one distance to each center with `r_e > 0` plus one `distance_leq`
//! per member that passes the skip rule.
//!
//! The skip rule carries a relative slack ([`SKIP_SLACK`]) so that the
//! rounding of the computed distances can never skip a point the full
//! sweep would have captured (see the "Floating-point caveat" in
//! `mdbscan_metric::prune`). Every point that is not skipped gets
//! exactly the full sweep's call, `distance_leq(c, p, d[p])` with the
//! `<` rule, and the next center is the largest `d[p]` with ties to the
//! smaller point index — so centers, assignment and distances are
//! bit-identical to the full sweep.
//!
//! Threads split only the first round: `n − 1` evaluations against the
//! first center, contiguous ranges concatenated in order. Every later
//! round runs inline. After skipping it is a few thousand evaluations,
//! and on cheap metrics even rounds of tens of thousands measured
//! slower when handed to a second thread than when run inline. The
//! output never depends on the thread count.

use std::cmp::Reverse;

use mdbscan_metric::Metric;
use mdbscan_parallel::par_map_range;

/// First-round distance evaluations per worker below which the round
/// stays on the calling thread: a thread hand-off costs more than a few
/// thousand cheap distances.
const MIN_EVALS_PER_THREAD: usize = 4096;

/// Relative slack of the skip rule. A `k`-term floating-point distance
/// is off by at most about `k/2` ulps relative, and the rule needs
/// twice that; `1e-9` (≈ 4.5M ulps) covers any dimension in use with a
/// wide margin, and the members it admits sit within a billionth of the
/// threshold, so it costs no measurable evaluations.
const SKIP_SLACK: f64 = 1e-9;

/// True when a new center at distance `dce` from center `e` provably
/// cannot get strictly closer than `d` to a member of `C_e` at distance
/// `d` from `e`.
fn out_of_reach(dce: f64, d: f64) -> bool {
    dce > 2.0 * d * (1.0 + SKIP_SLACK)
}

/// The order of the full sweep's left-to-right argmax: larger distance
/// first, then the smaller point index.
type FarKey = (f64, Reverse<u32>);

/// One cover set `C_e`, owning its members' distances to `e`.
struct CoverSet {
    members: Vec<u32>,
    dist: Vec<f64>,
    /// Slot of the farthest member. Every set keeps its center, so it is
    /// never empty.
    far: usize,
    /// That member's key, cached so the per-round argmax over all sets
    /// reads one flat array instead of chasing two pointers per set.
    far_key: FarKey,
}

impl CoverSet {
    fn new(members: Vec<u32>, dist: Vec<f64>) -> Self {
        let mut set = Self {
            members,
            dist,
            far: 0,
            far_key: (0.0, Reverse(0)),
        };
        set.refresh_far();
        set
    }

    fn radius(&self) -> f64 {
        self.far_key.0
    }

    fn key(&self, slot: usize) -> FarKey {
        (self.dist[slot], Reverse(self.members[slot]))
    }

    fn refresh_far(&mut self) {
        self.far = (1..self.members.len()).fold(0, |best, i| {
            if self.key(i) > self.key(best) {
                i
            } else {
                best
            }
        });
        self.far_key = self.key(self.far);
    }
}

/// The greedy's result: centers in insertion order, each point's
/// center position and distance, and the farthest distance at the stop.
pub(crate) struct Sweep {
    pub centers: Vec<usize>,
    pub assignment: Vec<u32>,
    pub dist: Vec<f64>,
    pub far_d: f64,
}

/// Runs the farthest-point greedy from `first`. Before each round,
/// `more(centers_so_far, farthest_distance)` decides whether the
/// farthest point becomes the next center.
pub(crate) fn farthest_first<P: Sync, M: Metric<P> + Sync>(
    points: &[P],
    metric: &M,
    first: usize,
    threads: usize,
    mut more: impl FnMut(usize, f64) -> bool,
) -> Sweep {
    let n = points.len();
    let dist = par_map_range(n, threads, MIN_EVALS_PER_THREAD, |p| {
        if p == first {
            0.0
        } else {
            metric.distance(&points[first], &points[p])
        }
    });
    let mut sets = vec![CoverSet::new((0..n as u32).collect(), dist)];
    let mut centers = vec![first];
    loop {
        let src = (1..sets.len()).fold(0, |best, e| {
            if sets[e].far_key > sets[best].far_key {
                e
            } else {
                best
            }
        });
        let far_d = sets[src].radius();
        if !more(centers.len(), far_d) {
            return finish(n, centers, &sets, far_d);
        }
        let slot = sets[src].far;
        let c = sets[src].members.remove(slot) as usize;
        sets[src].dist.remove(slot);
        sets[src].refresh_far();
        let captured = round(points, metric, c, &centers, &mut sets);
        centers.push(c);
        sets.push(captured);
    }
}

/// Sweeps the new center `c` over the cover sets it can reach, moves
/// the captured members out of them, and returns the new set `C_c`.
fn round<P, M: Metric<P>>(
    points: &[P],
    metric: &M,
    c: usize,
    centers: &[usize],
    sets: &mut [CoverSet],
) -> CoverSet {
    let cp = &points[c];
    let mut members = vec![c as u32];
    let mut dist = vec![0.0];
    for (set, &e) in sets.iter_mut().zip(centers) {
        // A set with r_e = 0 holds only points at distance 0, which no
        // center can beat under `<`; it costs no evaluation at all.
        let r = set.radius();
        if r == 0.0 {
            continue;
        }
        let dce = metric.distance(cp, &points[e]);
        if out_of_reach(dce, r) {
            continue;
        }
        let before = members.len();
        let mut keep = 0;
        for slot in 0..set.members.len() {
            let (p, d) = (set.members[slot], set.dist[slot]);
            // `<` keeps ties on the earlier center, matching the paper's
            // "arbitrarily pick one" determinism contract.
            let nd = (!out_of_reach(dce, d))
                .then(|| metric.distance_leq(cp, &points[p as usize], d))
                .flatten()
                .filter(|&nd| nd < d);
            if let Some(nd) = nd {
                members.push(p);
                dist.push(nd);
            } else {
                set.members[keep] = p;
                set.dist[keep] = d;
                keep += 1;
            }
        }
        if members.len() > before {
            set.members.truncate(keep);
            set.dist.truncate(keep);
            // Early sets shrink by orders of magnitude; release the
            // slack so the sets stay O(n) in memory, not O(n log |E|).
            if keep < set.members.capacity() / 4 {
                set.members.shrink_to_fit();
                set.dist.shrink_to_fit();
            }
            set.refresh_far();
        }
    }
    CoverSet::new(members, dist)
}

fn finish(n: usize, centers: Vec<usize>, sets: &[CoverSet], far_d: f64) -> Sweep {
    let mut assignment = vec![0u32; n];
    let mut dist = vec![0.0f64; n];
    for (e, set) in sets.iter().enumerate() {
        for (&p, &d) in set.members.iter().zip(&set.dist) {
            assignment[p as usize] = e as u32;
            dist[p as usize] = d;
        }
    }
    Sweep {
        centers,
        assignment,
        dist,
        far_d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gonzalez_with, BuildOptions, RadiusGuidedNet};
    use mdbscan_metric::{CountingMetric, Euclidean, Levenshtein, VectorBlock};
    use mdbscan_parallel::{Csr, ParallelConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The full-array sweep the cover-set sweep replaces: every round
    /// measures all `n` points against the new center.
    fn full_sweep<P, M: Metric<P>>(
        points: &[P],
        metric: &M,
        first: usize,
        mut more: impl FnMut(usize, f64) -> bool,
    ) -> Sweep {
        let n = points.len();
        let mut dist: Vec<f64> = (0..n)
            .map(|p| {
                if p == first {
                    0.0
                } else {
                    metric.distance(&points[first], &points[p])
                }
            })
            .collect();
        let mut assignment = vec![0u32; n];
        let mut centers = vec![first];
        loop {
            let (mut far, mut far_d) = (0, f64::NEG_INFINITY);
            for (p, &d) in dist.iter().enumerate() {
                if d > far_d {
                    (far, far_d) = (p, d);
                }
            }
            if !more(centers.len(), far_d) {
                return Sweep {
                    centers,
                    assignment,
                    dist,
                    far_d,
                };
            }
            let pos = centers.len() as u32;
            centers.push(far);
            for p in 0..n {
                if p == far {
                    dist[p] = 0.0;
                    assignment[p] = pos;
                } else if let Some(nd) = metric.distance_leq(&points[far], &points[p], dist[p]) {
                    if nd < dist[p] {
                        dist[p] = nd;
                        assignment[p] = pos;
                    }
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|d| d.to_bits()).collect()
    }

    /// Asserts both greedies return the full sweep's nets at every
    /// thread count.
    fn assert_matches_full_sweep<P: Sync, M: Metric<P> + Sync>(
        points: &[P],
        metric: &M,
        rbar: f64,
        first: usize,
        max_centers: usize,
    ) {
        let reference = full_sweep(points, metric, first, |k, d| {
            !(d <= rbar || k >= max_centers)
        });
        let k = reference.centers.len();
        let gonzalez_ref = full_sweep(points, metric, first, |len, d| !(len >= k || d == 0.0));
        for threads in [1usize, 2, 3, 8] {
            let opts = BuildOptions {
                first,
                parallel: ParallelConfig::new(threads),
                max_centers,
            };
            let net = RadiusGuidedNet::build_with(points, metric, rbar, &opts);
            assert_eq!(net.centers, reference.centers, "threads={threads}");
            assert_eq!(net.assignment, reference.assignment, "threads={threads}");
            assert_eq!(bits(&net.dist_to_center), bits(&reference.dist));
            let sets = Csr::from_assignment(&reference.assignment, k);
            assert_eq!(net.cover_sets, sets, "threads={threads}");
            assert_eq!(net.covered, reference.far_d <= rbar);

            let g = gonzalez_with(points, metric, k, first, &ParallelConfig::new(threads));
            assert_eq!(g.centers, gonzalez_ref.centers, "threads={threads}");
            assert_eq!(g.assignment, gonzalez_ref.assignment, "threads={threads}");
            assert_eq!(bits(&g.dist_to_center), bits(&gonzalez_ref.dist));
            let radius = gonzalez_ref.dist.iter().copied().fold(0.0, f64::max);
            assert_eq!(g.radius.to_bits(), radius.to_bits());
        }
    }

    fn blobs(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let (cx, cy) = ((i % 5) as f64 * 30.0, (i % 3) as f64 * 30.0);
                vec![
                    cx + rng.random_range(-4.0..4.0),
                    cy + rng.random_range(-4.0..4.0),
                ]
            })
            .collect()
    }

    #[test]
    fn blobs_match_full_sweep() {
        let pts = blobs(1500, 1);
        for (rbar, first) in [(1.0, 0), (2.5, 1234), (0.8, 1499)] {
            assert_matches_full_sweep(&pts, &Euclidean, rbar, first, usize::MAX);
        }
    }

    #[test]
    fn split_first_round_matches_full_sweep() {
        // Enough points that the first round splits across workers.
        let pts = blobs(9000, 6);
        assert_matches_full_sweep(&pts, &Euclidean, 6.0, 4500, usize::MAX);
    }

    #[test]
    fn truncated_nets_match_full_sweep() {
        let pts = blobs(1200, 2);
        for max_centers in [1usize, 2, 17, 200] {
            assert_matches_full_sweep(&pts, &Euclidean, 0.3, 77, max_centers);
        }
    }

    #[test]
    fn duplicate_heavy_input_matches_full_sweep() {
        // 2400 points on 30 distinct sites: most cover sets collapse to
        // radius 0 and the greedy saturates on duplicates.
        let pts: Vec<Vec<f64>> = (0..2400)
            .map(|i| vec![((i * 7) % 30) as f64 * 1.5, ((i * 7) % 30 / 6) as f64])
            .collect();
        for rbar in [0.5, 1.0, 4.0] {
            assert_matches_full_sweep(&pts, &Euclidean, rbar, 5, usize::MAX);
        }
    }

    #[test]
    fn lattices_with_exact_and_ulp_ties_match_full_sweep() {
        // Integer lattice: dis(c, e) = 2·d[p] happens exactly. The
        // 0.37-step copy puts the same ties a few ulps apart.
        for step in [1.0, 0.37] {
            let pts: Vec<Vec<f64>> = (0..600)
                .map(|i| vec![(i % 30) as f64 * step, (i / 30) as f64 * step])
                .collect();
            for rbar in [1.0, 1.5, 2.0, 3.0] {
                assert_matches_full_sweep(&pts, &Euclidean, rbar * step, 0, usize::MAX);
                assert_matches_full_sweep(&pts, &Euclidean, rbar * step, 315, usize::MAX);
            }
        }
    }

    #[test]
    fn f32_embeddings_match_full_sweep() {
        let mut rng = StdRng::seed_from_u64(3);
        let anchors: Vec<Vec<f64>> = (0..12)
            .map(|_| (0..128).map(|_| rng.random_range(-1.0..1.0)).collect())
            .collect();
        let rows: Vec<Vec<f64>> = (0..360)
            .map(|i| {
                anchors[i % 12]
                    .iter()
                    .map(|x| x + rng.random_range(-0.05..0.05))
                    .collect()
            })
            .collect();
        let block = VectorBlock::<f32>::from_rows(&rows);
        let ids: Vec<u32> = (0..rows.len() as u32).collect();
        for rbar in [0.42, 0.46, 0.5, 2.0] {
            assert_matches_full_sweep(&ids, &block, rbar, 11, usize::MAX);
        }
    }

    #[test]
    fn levenshtein_strings_match_full_sweep() {
        let mut rng = StdRng::seed_from_u64(4);
        let roots = ["clustering", "density", "metric", "doubling", "streaming"];
        let words: Vec<String> = (0..300)
            .map(|i| {
                let mut w: Vec<u8> = roots[i % roots.len()].bytes().collect();
                for _ in 0..rng.random_range(0..4usize) {
                    let at = rng.random_range(0..w.len());
                    w[at] = b'a' + rng.random_range(0..26u8);
                }
                String::from_utf8(w).expect("ascii")
            })
            .collect();
        for rbar in [1.0, 2.0, 3.0] {
            assert_matches_full_sweep(&words, &Levenshtein, rbar, 9, usize::MAX);
        }
    }

    #[test]
    fn clustered_input_costs_fewer_than_n_evals_per_center() {
        let pts = blobs(4000, 5);
        let counting = CountingMetric::new(Euclidean);
        let opts = BuildOptions {
            parallel: ParallelConfig::sequential(),
            ..Default::default()
        };
        let net = RadiusGuidedNet::build_with(&pts, &counting, 1.0, &opts);
        let full = (pts.len() * net.centers.len()) as u64;
        assert!(
            counting.count() * 4 < full,
            "{} evals for {} centers over {} points",
            counting.count(),
            net.centers.len(),
            pts.len()
        );
    }
}
