//! Synthetic workload generators for the metric DBSCAN experiments.
//!
//! The paper's evaluation (Table 1) uses 19 datasets in four classes:
//! low/medium-dimensional Euclidean tables, high-dimensional image
//! embeddings, text corpora under edit distance, and million-scale
//! streams. None of those files ship here, so — the reproduction's
//! substitution rule — each *class* is regenerated by a
//! deterministic synthetic generator that realizes the property the
//! paper's algorithms exploit: **inliers with low doubling dimension, plus
//! unconstrained outliers**:
//!
//! * [`moons`], [`circles`], [`banana`], [`cluto_like`] — the classic 2-D
//!   shape benchmarks (arbitrary-shape clusters, Fig. 5);
//! * [`blobs`] — Gaussian mixtures in any ambient dimension (the UCI-table
//!   stand-ins);
//! * [`lowdim_blobs`] — million-scale 2-D/3-D Gaussian mixtures with
//!   uniform background noise (the big planar tables and Fig. 6
//!   scalability sweeps; sized for the `mdbscan_grid` candidate index);
//! * [`highdim_embeddings`] — unit-norm Gaussian-mixture embeddings at
//!   configurable dimension (the GloVe/NYTimes-style vector workloads the
//!   `mdbscan_rp` random-projection index targets);
//! * [`manifold_clusters`] — clusters supported on a random low-dimensional
//!   affine manifold embedded in a high ambient dimension, with uniform
//!   ambient outliers (the MNIST/CIFAR/GIST stand-ins: high `d`, low `D`);
//! * [`noisy_duplication`] — the paper's own §5.1 protocol: sample base
//!   points, duplicate 10×, add per-coordinate `U[−5,5]` noise, then add
//!   1 % uniform outliers in `[0,255]^d` (the `MNIST_noisy` datasets);
//! * [`string_clusters`] — edit-distance text: random seed strings, members
//!   within `m` random edits, random outlier strings;
//! * [`DriftingStream`] — a restartable stream over drifting Gaussian
//!   sources (the Spotify_Session stand-in for Algorithm 3).
//!
//! Every generator takes an explicit `u64` seed and returns a
//! [`Dataset`](mdbscan_metric::Dataset) with ground-truth labels
//! (`-1` = generated as noise/outlier).
#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod blobs;
mod highdim;
mod io;
mod lowdim;
mod manifold;
mod randutil;
mod shapes2d;
mod stream;
mod strings;

pub use blobs::{blobs, BlobSpec};
pub use highdim::{highdim_embeddings, HighDimSpec};
pub use io::{read_csv, write_csv};
pub use lowdim::{lowdim_blobs, LowDimSpec};
pub use manifold::{manifold_clusters, noisy_duplication, ManifoldSpec};
pub use shapes2d::{banana, circles, cluto_like, moons};
pub use stream::DriftingStream;
pub use strings::{string_clusters, StringSpec};
