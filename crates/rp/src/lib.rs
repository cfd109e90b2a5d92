//! Seeded random-projection candidate index for high-dimensional
//! Euclidean/embedding workloads, in the sDBSCAN mold (Xu & Pham).
//!
//! The grid index (`mdbscan_grid`) generates candidates by spatial
//! bucketing and is hard-gated to d ≤ 3; net-anchored triangle-inequality
//! pruning (the paper's §3 machinery) erodes as the doubling dimension
//! grows. This crate covers the remaining regime — ML embedding vectors
//! at d = 128–768 — with **K seeded random Gaussian directions**:
//!
//! 1. every direction is drawn from the shim-`rand` generator
//!    (Box–Muller, [`rand::distr::StandardNormal`]) seeded by
//!    [`RpConfig::seed`] and normalised to unit length;
//! 2. every point's dot product with every direction is computed once at
//!    build time (ascending-dimension accumulation, so the result is
//!    bit-identical regardless of batching);
//! 3. per direction the index keeps the **top-m closest** list (largest
//!    dot products) and the **top-m furthest** list (smallest), ordered
//!    by (value, id) under [`f64::total_cmp`];
//! 4. a query for point `id` ranks the directions by the point's **list
//!    depth** — its would-be position in the stored closest/furthest
//!    list, found by binary search on the (value, id) order — consults
//!    the [`RpConfig::probes`] shallowest ones (taking whichever end the
//!    point is nearer), and returns the sorted, deduplicated union (self
//!    always included).
//!
//! Depth-ranked probing, rather than ranking directions by the raw
//! `|value|`, matters on real embedding tables: any direction component
//! shared by the whole table (a non-centered mean, a dominant principal
//! direction) shifts every point's value on a direction by a common
//! per-direction amount. Raw `|value|` ranking then probes the
//! directions with the largest *common* shift — the same lists for
//! every query, regardless of where the query actually sits. List depth
//! is invariant under any per-direction monotone shift, and guarantees
//! the query itself is inside every probed list whose depth is within
//! `top_m` — the precondition for its neighbours to be there too.
//!
//! # Determinism vs. quality
//!
//! The candidate sets are **deterministic for a fixed seed**: directions
//! depend only on `(seed, dim)`, projection values only on a point's own
//! coordinates, and [`RpIndex::extend`] is bit-identical to a fresh
//! [`RpIndex::build`] over the concatenated point set (top-m of a union
//! is contained in the union of per-part top-ms, so merging the stored
//! lists with the new points' values reproduces the fresh sort exactly).
//! Solvers built on this index therefore stay bit-identical across
//! thread counts, cache states, ingest-vs-fresh, and artifact round
//! trips. What the index does *not* promise is agreement with the exact
//! solver: a candidate set may miss true ε-neighbours, which shows up as
//! a *quality* score (measured against the exact solver via
//! `crates/eval`), not as nondeterminism. More projections, deeper
//! lists, and more probes buy quality with evaluation count.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use rand::distr::StandardNormal;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest [`RpConfig::projections`] an engine artifact may carry. The
/// index stores `projections × dim` direction coordinates plus one
/// projection value per point and direction, so an unchecked count read
/// from disk (up to `u32::MAX`) would abort the process on allocation
/// at the first query; artifact decoding rejects anything above this.
pub const MAX_PROJECTIONS: u32 = 1 << 16;

/// Configuration of a random-projection index; part of the engine
/// configuration, so every artifact built from it is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RpConfig {
    /// Seed for the direction generator. Two indexes with the same seed
    /// and dimension share the exact same directions.
    pub seed: u64,
    /// Number of random directions `K`.
    pub projections: u32,
    /// List depth `m`: each direction keeps its `m` closest and `m`
    /// furthest points.
    pub top_m: u32,
    /// Directions consulted per query (clamped to `projections`).
    pub probes: u32,
}

impl RpConfig {
    /// A config with the given seed and the default shape
    /// (`projections = 32`, `top_m = 128`, `probes = 4`).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            projections: 32,
            top_m: 128,
            probes: 4,
        }
    }

    /// Sets the number of random directions.
    pub fn projections(mut self, projections: u32) -> Self {
        self.projections = projections.max(1);
        self
    }

    /// Sets the per-direction list depth.
    pub fn top_m(mut self, top_m: u32) -> Self {
        self.top_m = top_m.max(1);
        self
    }

    /// Sets the number of directions consulted per query.
    pub fn probes(mut self, probes: u32) -> Self {
        self.probes = probes.max(1);
        self
    }
}

impl Default for RpConfig {
    fn default() -> Self {
        Self::new(0)
    }
}

/// Work counters for random-projection candidate generation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpStats {
    /// Projection lists consulted.
    pub projections: u64,
    /// Candidate ids handed to the caller (after dedup, self included).
    pub candidates_emitted: u64,
    /// Candidates discarded by the caller without a distance evaluation
    /// (duplicates across probed lists, or ids filtered out because they
    /// are not summary members / centers).
    pub candidates_rejected: u64,
}

impl RpStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &RpStats) {
        self.projections += other.projections;
        self.candidates_emitted += other.candidates_emitted;
        self.candidates_rejected += other.candidates_rejected;
    }
}

/// One list entry: the point's projection value and its id. Values are
/// kept so [`RpIndex::extend`] can merge stored lists against new points
/// without re-projecting old ones.
type Entry = (f64, u32);

/// Ordering for the closest list: value descending, id ascending. Total
/// (via [`f64::total_cmp`]), so sorts are deterministic.
fn closest_cmp(a: &Entry, b: &Entry) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Ordering for the furthest list: value ascending, id ascending.
fn furthest_cmp(a: &Entry, b: &Entry) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// The immutable index: build once per epoch, share behind an `Arc`,
/// query concurrently (queries take `&self`).
#[derive(Debug, Clone)]
pub struct RpIndex {
    cfg: RpConfig,
    dim: usize,
    len: usize,
    /// `projections × dim`, row per direction, unit-norm.
    dirs: Vec<f64>,
    /// Per direction: one projection value per point, point order.
    values: Vec<Vec<f64>>,
    /// Per direction: up to `top_m` entries, `closest_cmp` order.
    closest: Vec<Vec<Entry>>,
    /// Per direction: up to `top_m` entries, `furthest_cmp` order.
    furthest: Vec<Vec<Entry>>,
}

impl RpIndex {
    /// Builds the index over `coords` (row-major, `dim` values per
    /// point, point id = row position). Panics when `dim == 0` or
    /// `coords.len()` is not a multiple of `dim`.
    pub fn build(dim: usize, coords: &[f64], cfg: RpConfig) -> Self {
        assert!(dim > 0, "RpIndex requires dim >= 1");
        assert!(
            coords.len().is_multiple_of(dim),
            "coords length {} not a multiple of dim {dim}",
            coords.len()
        );
        let k = cfg.projections.max(1) as usize;
        let dirs = sample_directions(cfg.seed, k, dim);
        let mut index = Self {
            cfg,
            dim,
            len: 0,
            dirs,
            values: vec![Vec::new(); k],
            closest: vec![Vec::new(); k],
            furthest: vec![Vec::new(); k],
        };
        index.absorb(coords);
        index
    }

    /// A new index covering the old points plus `new_coords`, appended
    /// in order (ids continue from [`RpIndex::len`]). **Bit-identical**
    /// to a fresh build over the concatenated coordinates: directions
    /// depend only on the seed, values only on each point's own row, and
    /// the merged top-m lists equal the fresh ones because every entry a
    /// stored list dropped is dominated by `top_m` entries it kept.
    pub fn extend(&self, new_coords: &[f64]) -> Self {
        assert!(
            new_coords.len().is_multiple_of(self.dim),
            "coords length {} not a multiple of dim {}",
            new_coords.len(),
            self.dim
        );
        let mut next = self.clone();
        next.absorb(new_coords);
        next
    }

    /// Projects `coords` onto every direction, appends the values, and
    /// re-selects the per-direction lists.
    fn absorb(&mut self, coords: &[f64]) {
        let added = coords.len() / self.dim;
        let k = self.values.len();
        let m = self.cfg.top_m.max(1) as usize;
        for kk in 0..k {
            let dir = &self.dirs[kk * self.dim..(kk + 1) * self.dim];
            let vals = &mut self.values[kk];
            vals.reserve(added);
            for i in 0..added {
                let row = &coords[i * self.dim..(i + 1) * self.dim];
                // Ascending-dimension accumulation: one canonical
                // summation order, so the value never depends on how
                // points are batched into build/extend calls.
                let mut acc = 0.0f64;
                for d in 0..self.dim {
                    acc += dir[d] * row[d];
                }
                vals.push(acc);
            }
            let fresh = |base: &[Entry]| -> Vec<Entry> {
                let mut pool: Vec<Entry> = base.to_vec();
                pool.extend((0..added).map(|i| (vals[self.len + i], (self.len + i) as u32)));
                pool
            };
            let mut close = fresh(&self.closest[kk]);
            close.sort_unstable_by(closest_cmp);
            close.truncate(m);
            self.closest[kk] = close;
            let mut far = fresh(&self.furthest[kk]);
            far.sort_unstable_by(furthest_cmp);
            far.truncate(m);
            self.furthest[kk] = far;
        }
        self.len += added;
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The configuration the index was built with.
    pub fn cfg(&self) -> RpConfig {
        self.cfg
    }

    /// Fills `out` with the candidate ids for indexed point `id`:
    /// the union of the [`RpConfig::probes`] *shallowest* directions'
    /// lists — shallowest by the point's own position in the stored
    /// list order (closest or furthest, whichever end the point is
    /// nearer) — sorted ascending, deduplicated, `id` itself always
    /// present. Dropped duplicates are charged to
    /// [`RpStats::candidates_rejected`].
    pub fn candidates_for(&self, id: u32, out: &mut Vec<u32>, stats: &mut RpStats) {
        assert!((id as usize) < self.len, "query id {id} out of range");
        let k = self.values.len();
        let probes = (self.cfg.probes.max(1) as usize).min(k);
        // Rank directions by the point's list depth ascending (see the
        // crate docs: depth is invariant under per-direction common
        // shifts, unlike |value|), direction index ascending — a total
        // order, so probe choice is deterministic.
        let mut ranked: Vec<(usize, usize, bool)> = (0..k)
            .map(|kk| {
                let probe = (self.values[kk][id as usize], id);
                let dc = self.closest[kk].partition_point(|e| closest_cmp(e, &probe).is_lt());
                let df = self.furthest[kk].partition_point(|e| furthest_cmp(e, &probe).is_lt());
                (dc.min(df), kk, dc <= df)
            })
            .collect();
        ranked.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        out.clear();
        out.push(id);
        for &(_, kk, near_close) in ranked.iter().take(probes) {
            let list = if near_close {
                &self.closest[kk]
            } else {
                &self.furthest[kk]
            };
            out.extend(list.iter().map(|&(_, pid)| pid));
        }
        stats.projections += probes as u64;
        let raw = out.len();
        out.sort_unstable();
        out.dedup();
        stats.candidates_emitted += out.len() as u64;
        stats.candidates_rejected += (raw - out.len()) as u64;
    }
}

/// `k` unit-norm Gaussian directions of dimension `dim`, drawn in a
/// fixed order from a [`StdRng`] seeded with `seed`.
fn sample_directions(seed: u64, k: usize, dim: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dirs = vec![0.0f64; k * dim];
    for kk in 0..k {
        let row = &mut dirs[kk * dim..(kk + 1) * dim];
        loop {
            for slot in row.iter_mut() {
                *slot = StandardNormal.sample(&mut rng);
            }
            let mut norm_sq = 0.0f64;
            for &x in row.iter() {
                norm_sq += x * x;
            }
            if norm_sq > 0.0 {
                let inv = 1.0 / norm_sq.sqrt();
                for slot in row.iter_mut() {
                    *slot *= inv;
                }
                break;
            }
            // All-zero draw: probability ~0, but resampling keeps the
            // direction well-defined without a panic.
        }
    }
    dirs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A little two-cluster row-major dataset on the unit sphere of
    /// dimension `dim`: half the points hug +e0, half hug -e0.
    fn two_poles(n: usize, dim: usize) -> Vec<f64> {
        let mut coords = Vec::with_capacity(n * dim);
        for i in 0..n {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            let wobble = 0.05 * (i as f64 / n as f64);
            let mut row = vec![0.0; dim];
            row[0] = sign;
            row[1] = wobble;
            let norm = (1.0 + wobble * wobble).sqrt();
            for x in row.iter_mut() {
                *x /= norm;
            }
            coords.extend_from_slice(&row);
        }
        coords
    }

    fn assert_index_eq(a: &RpIndex, b: &RpIndex) {
        assert_eq!(a.len, b.len);
        assert_eq!(a.dim, b.dim);
        assert_eq!(a.cfg, b.cfg);
        for (x, y) in a.dirs.iter().zip(&b.dirs) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for kk in 0..a.values.len() {
            assert_eq!(a.values[kk].len(), b.values[kk].len());
            for (x, y) in a.values[kk].iter().zip(&b.values[kk]) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (lists_a, lists_b) in [
                (&a.closest[kk], &b.closest[kk]),
                (&a.furthest[kk], &b.furthest[kk]),
            ] {
                assert_eq!(lists_a.len(), lists_b.len());
                for ((va, ia), (vb, ib)) in lists_a.iter().zip(lists_b.iter()) {
                    assert_eq!(va.to_bits(), vb.to_bits());
                    assert_eq!(ia, ib);
                }
            }
        }
    }

    #[test]
    fn build_is_deterministic_for_fixed_seed() {
        let coords = two_poles(200, 16);
        let cfg = RpConfig::new(42).projections(8).top_m(16).probes(3);
        let a = RpIndex::build(16, &coords, cfg);
        let b = RpIndex::build(16, &coords, cfg);
        assert_index_eq(&a, &b);
        let other = RpIndex::build(16, &coords, RpConfig::new(43).projections(8));
        assert_ne!(a.dirs[0].to_bits(), other.dirs[0].to_bits());
    }

    #[test]
    fn extend_is_bit_identical_to_fresh_build() {
        let dim = 24;
        let coords = two_poles(800, dim);
        let cfg = RpConfig::new(7).projections(6).top_m(32).probes(2);
        let fresh = RpIndex::build(dim, &coords, cfg);
        for splits in [vec![800usize], vec![500, 300], vec![100, 0, 350, 350]] {
            let mut index: Option<RpIndex> = None;
            let mut off = 0usize;
            for chunk in splits {
                let part = &coords[off * dim..(off + chunk) * dim];
                index = Some(match index {
                    None => RpIndex::build(dim, part, cfg),
                    Some(prev) => prev.extend(part),
                });
                off += chunk;
            }
            assert_index_eq(&fresh, &index.unwrap());
        }
    }

    #[test]
    fn candidates_are_sorted_deduped_and_contain_self() {
        let coords = two_poles(300, 8);
        let cfg = RpConfig::new(1).projections(5).top_m(40).probes(3);
        let index = RpIndex::build(8, &coords, cfg);
        let mut out = Vec::new();
        let mut stats = RpStats::default();
        for id in [0u32, 7, 299] {
            index.candidates_for(id, &mut out, &mut stats);
            assert!(out.binary_search(&id).is_ok(), "self id missing");
            assert!(out.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
            assert!(out.iter().all(|&q| (q as usize) < 300));
        }
        assert_eq!(stats.projections, 9);
        assert!(stats.candidates_emitted > 0);
    }

    #[test]
    fn same_pole_points_see_each_other() {
        // Tight clusters at opposite poles: a point's candidates must
        // cover its own pole (the aligned direction's closest list when
        // the value is positive, the furthest list when negative).
        let n = 120;
        let coords = two_poles(n, 12);
        let cfg = RpConfig::new(9).projections(16).top_m(n as u32).probes(4);
        let index = RpIndex::build(12, &coords, cfg);
        let mut out = Vec::new();
        let mut stats = RpStats::default();
        for id in 0..n as u32 {
            index.candidates_for(id, &mut out, &mut stats);
            let same_pole = out.iter().filter(|&&q| q % 2 == id % 2).count();
            assert!(
                same_pole >= n / 2,
                "point {id}: only {same_pole} same-pole candidates"
            );
        }
    }

    #[test]
    fn probes_clamp_to_projection_count() {
        let coords = two_poles(50, 4);
        let cfg = RpConfig::new(3).projections(2).top_m(10).probes(99);
        let index = RpIndex::build(4, &coords, cfg);
        let mut out = Vec::new();
        let mut stats = RpStats::default();
        index.candidates_for(0, &mut out, &mut stats);
        assert_eq!(stats.projections, 2);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = RpStats {
            projections: 1,
            candidates_emitted: 2,
            candidates_rejected: 3,
        };
        let b = RpStats {
            projections: 10,
            candidates_emitted: 20,
            candidates_rejected: 30,
        };
        a.merge(&b);
        assert_eq!(
            a,
            RpStats {
                projections: 11,
                candidates_emitted: 22,
                candidates_rejected: 33,
            }
        );
    }

    #[test]
    #[should_panic]
    fn zero_dim_rejected() {
        let _ = RpIndex::build(0, &[], RpConfig::new(0));
    }
}
