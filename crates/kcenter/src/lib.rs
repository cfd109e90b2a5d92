//! k-center clustering toolkit for the metric DBSCAN pipeline.
//!
//! Three algorithms live here:
//!
//! * [`gonzalez`] — the classical 2-approximate greedy for `k`-center
//!   (Gonzalez 1985): repeatedly add the point farthest from the current
//!   center set.
//! * [`RadiusGuidedNet`] — **Algorithm 1 of the paper**: the same greedy,
//!   but driven by a *radius bound* `r̄` instead of `k`. It terminates as
//!   soon as every point lies within `r̄` of a center, producing an `r̄`-net
//!   `E` of the data together with the *cover sets* `C_e` (the Voronoi
//!   cells of the net) and per-point closest-center assignments `c_p`. On
//!   inliers of doubling dimension `D` plus `z` arbitrary outliers, the
//!   greedy stops after `O((Δ/r̄)^D) + z` iterations (Lemma 1). Each
//!   iteration measures the new center against the earlier centers and
//!   then only the members of the cover sets it can reach: a set whose
//!   center is more than twice its radius away, or a member more than
//!   twice its own center distance away, is skipped by the triangle
//!   inequality (with a `1e-9` relative slack against rounding). The
//!   build costs `n − 1 + O(|E|²)` distances plus the members actually
//!   touched, instead of the textbook `|E|·n`, and returns the same net.
//!   Both greedies share this sweep.
//! * [`IncrementalNet`] — the **online** counterpart of Algorithm 1:
//!   first-fit netting (the streaming pass-1 rule), maintaining a valid
//!   `r̄`-net under point-at-a-time insertion with batch-split-invariant
//!   results — the substrate of the engine's dynamic ingest path.
//! * [`kcenter_with_outliers`] — the randomized greedy of Ding–Yu–Wang
//!   (ESA 2019) that the DYW_DBSCAN baseline (Ding et al., IJCAI 2021)
//!   builds on: each round samples the next center uniformly from the
//!   `(1+η)·z̃` farthest points, which tolerates up to `z̃` adversarial
//!   outliers with constant success probability per round. The paper
//!   (§3.3) contrasts its own deterministic, parameter-light Algorithm 1
//!   against exactly this routine.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod adjacency;
mod gonzalez;
mod online;
mod outliers;
mod persist;
mod radius_guided;
mod sweep;

pub use adjacency::CenterAdjacency;
pub use gonzalez::{gonzalez, gonzalez_with, KCenterResult};
pub use online::{IncrementalNet, IngestDelta, PointAccess};
pub use outliers::{kcenter_with_outliers, OutlierKCenter};
pub use radius_guided::{BuildOptions, RadiusGuidedNet};
