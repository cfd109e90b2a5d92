//! BICO (Fichtenberger, Gillé, Schmidt, Schwiegelshohn, Sohler; ESA 2013):
//! BIRCH-style clustering features maintained as a streaming coreset for
//! k-means, followed by weighted k-means++ on the coreset.
//!
//! Simplification vs. the original: the
//! original's tree with per-level radii and projection-based
//! nearest-neighbor filtering is flattened to a single CF layer with a
//! global radius threshold that doubles on overflow — the same
//! coreset-quality mechanism (merge cost bounded by the threshold), minus
//! the lookup acceleration. Output quality is equivalent; insertion is
//! somewhat slower, which only *flatters* BICO's quality-per-memory in
//! our tables (it is a competitor).

use mdbscan_core::{Clustering, PointLabel};

use crate::kmeans::{sq_dist, weighted_kmeans};

/// A clustering feature: weight, coordinate sum, and squared-norm sum —
/// enough to merge points exactly for k-means purposes.
#[derive(Debug, Clone)]
struct Feature {
    weight: f64,
    sum: Vec<f64>,
    sumsq: f64,
}

impl Feature {
    fn centroid(&self) -> Vec<f64> {
        self.sum.iter().map(|&s| s / self.weight).collect()
    }
}

/// Streaming BICO coreset builder + offline weighted k-means.
///
/// ```
/// use mdbscan_baselines::Bico;
/// let mut bico = Bico::new(2, 50, 7);
/// for i in 0..500 {
///     let x = if i % 2 == 0 { 0.0 } else { 100.0 };
///     bico.insert(&[x + (i % 7) as f64 * 0.01, 0.0]);
/// }
/// assert!(bico.coreset_len() <= 50);
/// let centers = bico.centers(20);
/// assert_eq!(centers.len(), 2);
/// ```
pub struct Bico {
    k: usize,
    /// Coreset budget `m` (the paper suggests `O(k log n / ε²)`; the
    /// harness uses 200·k).
    budget: usize,
    threshold: f64,
    features: Vec<Feature>,
    seed: u64,
    inserted: u64,
}

impl Bico {
    /// New builder for `k` target clusters with coreset budget `m`.
    pub fn new(k: usize, budget: usize, seed: u64) -> Self {
        assert!(k >= 1 && budget >= k, "budget must be >= k >= 1");
        Self {
            k,
            budget,
            threshold: 0.0,
            features: Vec::new(),
            seed,
            inserted: 0,
        }
    }

    /// Number of clustering features currently held.
    pub fn coreset_len(&self) -> usize {
        self.features.len()
    }

    /// Points consumed so far.
    pub fn len(&self) -> u64 {
        self.inserted
    }

    /// True before the first insertion.
    pub fn is_empty(&self) -> bool {
        self.inserted == 0
    }

    /// Feeds one point.
    pub fn insert(&mut self, p: &[f64]) {
        self.inserted += 1;
        self.insert_weighted(p, 1.0);
        if self.features.len() > self.budget {
            self.rebuild();
        }
    }

    fn insert_weighted(&mut self, p: &[f64], w: f64) {
        // Nearest CF within the current threshold absorbs the point.
        let mut best: Option<(usize, f64)> = None;
        for (i, f) in self.features.iter().enumerate() {
            let d = sq_dist(p, &f.centroid());
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        match best {
            Some((i, d)) if d.sqrt() <= self.threshold => {
                let f = &mut self.features[i];
                f.weight += w;
                for (s, &x) in f.sum.iter_mut().zip(p.iter()) {
                    *s += w * x;
                }
                f.sumsq += w * p.iter().map(|x| x * x).sum::<f64>();
            }
            _ => self.features.push(Feature {
                weight: w,
                sum: p.iter().map(|&x| w * x).collect(),
                sumsq: w * p.iter().map(|x| x * x).sum::<f64>(),
            }),
        }
    }

    /// Overflow: double the radius threshold and re-insert the CF
    /// centroids under the coarser scale.
    fn rebuild(&mut self) {
        if self.threshold == 0.0 {
            // Bootstrap the scale from the data: smallest non-zero
            // centroid spacing among current features.
            let mut min_d = f64::INFINITY;
            for i in 0..self.features.len() {
                for j in (i + 1)..self.features.len() {
                    let d = sq_dist(&self.features[i].centroid(), &self.features[j].centroid());
                    if d > 0.0 && d < min_d {
                        min_d = d;
                    }
                }
            }
            self.threshold = if min_d.is_finite() { min_d.sqrt() } else { 1.0 };
        }
        while self.features.len() > self.budget {
            self.threshold *= 2.0;
            let old = std::mem::take(&mut self.features);
            for f in old {
                let c = f.centroid();
                let mut merged = false;
                for g in self.features.iter_mut() {
                    if sq_dist(&c, &g.centroid()).sqrt() <= self.threshold {
                        g.weight += f.weight;
                        for (s, &x) in g.sum.iter_mut().zip(f.sum.iter()) {
                            *s += x;
                        }
                        g.sumsq += f.sumsq;
                        merged = true;
                        break;
                    }
                }
                if !merged {
                    self.features.push(f);
                }
            }
        }
    }

    /// Offline stage: weighted k-means++ over the coreset; returns the
    /// `k` centers.
    pub fn centers(&self, lloyd_iters: usize) -> Vec<Vec<f64>> {
        let pts: Vec<Vec<f64>> = self.features.iter().map(Feature::centroid).collect();
        let ws: Vec<f64> = self.features.iter().map(|f| f.weight).collect();
        let (centers, _) = weighted_kmeans(&pts, &ws, self.k, lloyd_iters, self.seed);
        centers
    }

    /// Convenience batch API: stream `points` through, then label each by
    /// its nearest center (BICO partitions everything; labels are `Core`).
    pub fn fit(points: &[Vec<f64>], k: usize, budget: usize, seed: u64) -> Clustering {
        if points.is_empty() {
            return Clustering::from_labels(vec![]);
        }
        let mut bico = Self::new(k, budget, seed);
        for p in points {
            bico.insert(p);
        }
        let centers = bico.centers(25);
        let labels: Vec<PointLabel> = points
            .iter()
            .map(|p| {
                let mut best = 0u32;
                let mut best_d = f64::INFINITY;
                for (c, center) in centers.iter().enumerate() {
                    let d = sq_dist(p, center);
                    if d < best_d {
                        best_d = d;
                        best = c as u32;
                    }
                }
                PointLabel::Core(best)
            })
            .collect();
        Clustering::from_labels(labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_respected_under_streaming() {
        let mut bico = Bico::new(3, 40, 1);
        for i in 0..5000 {
            let c = (i % 3) as f64 * 100.0;
            bico.insert(&[c + (i % 11) as f64 * 0.1, (i % 7) as f64 * 0.1]);
        }
        assert!(bico.coreset_len() <= 40);
        assert_eq!(bico.len(), 5000);
        let centers = bico.centers(20);
        assert_eq!(centers.len(), 3);
        // centers land near 0, 100, 200
        let mut xs: Vec<f64> = centers.iter().map(|c| c[0]).collect();
        xs.sort_by(f64::total_cmp);
        assert!((xs[0] - 0.5).abs() < 10.0, "{xs:?}");
        assert!((xs[1] - 100.5).abs() < 10.0, "{xs:?}");
        assert!((xs[2] - 200.5).abs() < 10.0, "{xs:?}");
    }

    #[test]
    fn fit_partitions_blobs() {
        let mut pts = Vec::new();
        for i in 0..200 {
            let c = if i % 2 == 0 { 0.0 } else { 60.0 };
            pts.push(vec![c + (i % 5) as f64 * 0.1]);
        }
        let c = Bico::fit(&pts, 2, 30, 3);
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.cluster_of(0), c.cluster_of(2));
        assert_ne!(c.cluster_of(0), c.cluster_of(1));
    }

    #[test]
    fn weight_mass_is_conserved() {
        let mut bico = Bico::new(2, 10, 1);
        for i in 0..1000 {
            bico.insert(&[(i % 100) as f64]);
        }
        let total: f64 = bico.features.iter().map(|f| f.weight).sum();
        assert!((total - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn empty_fit() {
        assert!(Bico::fit(&[], 2, 10, 1).is_empty());
    }

    #[test]
    #[should_panic]
    fn bad_budget_panics() {
        let _ = Bico::new(5, 3, 1);
    }
}
