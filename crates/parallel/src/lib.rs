//! Deterministic data parallelism + flat storage for the metric-DBSCAN
//! pipeline.
//!
//! Every hot phase of the paper's algorithms — the Algorithm-1 distance
//! sweep, the center adjacency, Step 1 core counting, Step 2 BCP
//! testing, Step 3 border assignment, and the Algorithm-2 summary /
//! labeling loops — is embarrassingly parallel over points or centers.
//! This crate provides the two ingredients those phases share:
//!
//! * [`ParallelConfig`] plus a small family of scoped-thread executors
//!   ([`par_map_range`], [`par_map_ranges`]), **deterministic by
//!   construction**: work is split into contiguous index chunks,
//!   per-chunk results are combined in chunk order, and ties always
//!   break toward the smaller index — so the output never depends on
//!   the thread count or on scheduling. With one thread (or small
//!   inputs) they degrade to the plain sequential loop with zero
//!   overhead.
//! * [`Csr`] — compressed sparse rows (offsets + one flat value array)
//!   replacing `Vec<Vec<u32>>` for cover sets, center adjacency, and
//!   core fragments. The innermost distance loops walk contiguous
//!   memory instead of chasing one heap allocation per center.
//! * [`ChunkedCsr`] — the append-only writer-side companion of [`Csr`]:
//!   rows grow by sealed per-batch chunks (historical chunks are never
//!   reallocated), and an epoch publish flattens into the flat [`Csr`]
//!   readers iterate.
//!
//! The executors use `std::thread::scope`, not a pool: the workspace
//! spawns threads only around substantial work (guarded by
//! `min_per_thread`), where the ~10µs spawn cost is noise next to the
//! distance evaluations inside. The Algorithm-1 greedy, for one, hands
//! only its first round (`n − 1` distances) to threads: its cover-set
//! sweep (see `mdbscan_kcenter`) leaves every later round a few thousand
//! evaluations, which run faster inline.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod chunked;
mod config;
mod csr;
mod executors;
mod persist;

pub use chunked::ChunkedCsr;
pub use config::ParallelConfig;
pub use csr::Csr;
pub use executors::{par_map_range, par_map_ranges, split_even, split_weighted, worker_count};
