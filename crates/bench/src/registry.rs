//! The dataset registry: every Table 1 dataset class, mapped to its
//! synthetic stand-in with paper-matched `(n, d)` shape (scaled down by
//! default — the `--full` flag restores paper-order sizes) and a
//! per-dataset base `ε₀` at which the planted clusters are recoverable,
//! so the harness can sweep `ε` around it exactly like Fig. 3 does.

use mdbscan_datagen::{
    blobs, cluto_like, manifold_clusters, moons, noisy_duplication, string_clusters, BlobSpec,
    DriftingStream, ManifoldSpec, StringSpec,
};
use mdbscan_metric::Dataset;

use crate::HarnessArgs;

/// A vector dataset plus the harness metadata attached to it.
pub struct VecEntry {
    /// The generated dataset (points + ground truth).
    pub data: Dataset<Vec<f64>>,
    /// Registry name (matches the paper's dataset it stands in for).
    pub name: &'static str,
    /// Dataset class (the Fig. 3 row it belongs to).
    pub class: Class,
    /// Base ε at which the planted structure is recoverable.
    pub eps0: f64,
    /// Ambient dimension.
    pub dim: usize,
}

/// A string dataset entry (edit-distance panels).
pub struct StrEntry {
    /// The generated dataset.
    pub data: Dataset<String>,
    /// Registry name.
    pub name: &'static str,
    /// Base ε (in edit-distance units).
    pub eps0: f64,
}

/// Fig. 3 row classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Row 1: low/medium-dimensional Euclidean.
    LowDim,
    /// Row 2: high-dimensional, low intrinsic dimension.
    HighDim,
    /// Row 4: large-scale.
    Large,
}

/// Row 1 stand-ins: Moons (2-d), Cancer (32-d), Arrhythmia (262-d),
/// Biodeg (41-d).
pub fn low_dim_suite(args: &HarnessArgs) -> Vec<VecEntry> {
    vec![
        VecEntry {
            data: moons(args.sized(2000), 0.06, 0.02, args.seed),
            name: "Moons",
            class: Class::LowDim,
            eps0: 0.12,
            dim: 2,
        },
        VecEntry {
            data: blobs(
                &BlobSpec {
                    n: args.sized(569),
                    dim: 32,
                    clusters: 2,
                    std: 1.0,
                    center_box: 25.0,
                    outlier_frac: 0.01,
                },
                args.seed + 1,
            ),
            name: "Cancer",
            class: Class::LowDim,
            eps0: 8.5, // intra-cluster distances concentrate at √(2·32) ≈ 8.0
            dim: 32,
        },
        VecEntry {
            data: blobs(
                &BlobSpec {
                    n: args.sized(452),
                    dim: 262,
                    clusters: 3,
                    std: 1.0,
                    center_box: 40.0,
                    outlier_frac: 0.01,
                },
                args.seed + 2,
            ),
            name: "Arrhythmia",
            class: Class::LowDim,
            eps0: 24.0, // √(2·262) ≈ 22.9
            dim: 262,
        },
        VecEntry {
            data: blobs(
                &BlobSpec {
                    n: args.sized(1055),
                    dim: 41,
                    clusters: 2,
                    std: 1.0,
                    center_box: 25.0,
                    outlier_frac: 0.01,
                },
                args.seed + 3,
            ),
            name: "Biodeg",
            class: Class::LowDim,
            eps0: 9.5, // √(2·41) ≈ 9.1
            dim: 41,
        },
    ]
}

fn image_like(
    args: &HarnessArgs,
    name: &'static str,
    base_n: usize,
    dim: usize,
    seed_off: u64,
) -> VecEntry {
    // The paper's §5.1 protocol (footnote 2): sample base points, then
    // duplicate each 10× with small per-coordinate noise and add 1 %
    // ambient outliers — this densification is what gives the image sets
    // their compressible r̄-net structure (Fig. 6's ≈1 % memory).
    let spec = ManifoldSpec {
        n: args.sized(base_n) / 10,
        ambient_dim: dim,
        intrinsic_dim: 6,
        clusters: 10,
        std: 1.0,
        center_box: 40.0,
        outlier_frac: 0.0,
        ambient_box: 60.0,
    };
    let base = manifold_clusters(&spec, args.seed + seed_off);
    // noise amplitude: copy-cloud radius ≈ 0.4 « ε₀
    let noise = 0.4 / (dim as f64 / 3.0).sqrt();
    let mut data = noisy_duplication(&base, 10, noise, 0.01, -60.0, 60.0, args.seed + seed_off);
    data = Dataset::with_labels(
        name,
        data.points().to_vec(),
        data.labels().unwrap().to_vec(),
    );
    VecEntry {
        data,
        name,
        class: Class::HighDim,
        eps0: 4.0,
        dim,
    }
}

/// Row 2 stand-ins: MNIST (784-d), Fashion MNIST (784-d), USPS HW (256-d),
/// CIFAR 10 (3072-d) — the paper's §5.1 protocol: low intrinsic dimension
/// in huge ambient dimension, 1 % ambient outliers.
pub fn high_dim_suite(args: &HarnessArgs) -> Vec<VecEntry> {
    vec![
        image_like(args, "MNIST", 1000, 784, 10),
        image_like(args, "FashionMNIST", 1000, 784, 11),
        image_like(args, "USPS_HW", 1000, 256, 12),
        image_like(args, "CIFAR10", 600, 3072, 13),
    ]
}

/// Row 3 stand-ins: COLA, AG News, MRPC, MNLI under edit distance.
pub fn text_suite(args: &HarnessArgs) -> Vec<StrEntry> {
    let mk = |name: &'static str, n: usize, clusters: usize, seed_off: u64| StrEntry {
        data: string_clusters(
            &StringSpec {
                n: args.sized(n),
                clusters,
                seed_len: 24,
                max_edits: 3,
                outlier_frac: 0.02,
                ..Default::default()
            },
            args.seed + seed_off,
        ),
        name,
        eps0: 6.0,
    };
    vec![
        mk("COLA", 515, 4, 20),
        mk("AGNews", 1200, 4, 21),
        mk("MRPC", 900, 6, 22),
        mk("MNLI", 1500, 8, 23),
    ]
}

/// Row 4 stand-ins: GloVe25 (25-d), SIFT (128-d), GIST (960-d), DEEP1B
/// (96-d) at reduced `n` (the `--full` flag multiplies by 10; the paper's
/// absolute sizes are out of laptop scope; the substitution rule is
/// stated in the `mdbscan_datagen` crate docs).
pub fn large_suite(args: &HarnessArgs) -> Vec<VecEntry> {
    let mk = |name: &'static str, base_n: usize, dim: usize, seed_off: u64| VecEntry {
        data: manifold_clusters(
            &ManifoldSpec {
                n: args.sized(base_n),
                ambient_dim: dim,
                intrinsic_dim: 6,
                clusters: 20,
                std: 1.0,
                center_box: 80.0,
                outlier_frac: 0.005,
                ambient_box: 120.0,
            },
            args.seed + seed_off,
        ),
        name,
        class: Class::Large,
        eps0: 4.0,
        dim,
    };
    vec![
        mk("GloVe25", 20_000, 25, 30),
        mk("SIFT", 10_000, 128, 31),
        mk("GIST", 4_000, 960, 32),
        mk("DEEP1B", 10_000, 96, 33),
    ]
}

/// Table 3/4 extras: PCAM-like (1024-d) and LSUN-like (1024-d).
pub fn pcam_lsun(args: &HarnessArgs) -> Vec<VecEntry> {
    vec![
        image_like(args, "PCAM", 800, 1024, 40),
        image_like(args, "LSUN", 800, 1024, 41),
    ]
}

/// Fig. 5 / Table 3 2-D shape sets.
pub fn shape_suite(args: &HarnessArgs) -> Vec<VecEntry> {
    vec![
        VecEntry {
            data: moons(args.sized(2000), 0.06, 0.02, args.seed),
            name: "Moons",
            class: Class::LowDim,
            eps0: 0.12,
            dim: 2,
        },
        VecEntry {
            data: cluto_like(args.sized(2000), 0.05, args.seed + 50),
            name: "Cluto",
            class: Class::LowDim,
            eps0: 0.45,
            dim: 2,
        },
    ]
}

/// The §5.1 noisy-duplication variants of a base image-like dataset.
pub fn noisy_variant(args: &HarnessArgs, base: &VecEntry, seed_off: u64) -> VecEntry {
    // Scale the base down so copies×base ≈ the original size.
    let small = HarnessArgs {
        scale: args.scale / 10.0,
        ..*args
    };
    let inner = image_like(&small, base.name, 1000, base.dim, seed_off);
    // Per-coordinate noise amplitude chosen so the *norm* of the noise
    // vector (≈ a·√(d/3)) is a fixed fraction of ε₀ — the paper's U[−5,5]
    // on [0,255]^d pixels has the same "small relative to ε" property.
    let noise = 1.5 / (base.dim as f64 / 3.0).sqrt();
    VecEntry {
        data: noisy_duplication(
            &inner.data,
            10,
            noise,
            0.01,
            -60.0,
            60.0,
            args.seed + seed_off,
        ),
        name: match base.name {
            "MNIST" => "MNIST_noisy",
            "FashionMNIST" => "Fashion_noisy",
            _ => "noisy",
        },
        class: Class::HighDim,
        // duplication inflates pairwise distances to √(ε₀² + 2·‖noise‖²)
        eps0: (base.eps0 * base.eps0 + 2.0 * 1.5 * 1.5).sqrt(),
        dim: base.dim,
    }
}

/// The Spotify_Session stand-in (drifting stream).
pub fn session_stream(args: &HarnessArgs) -> DriftingStream {
    DriftingStream {
        n: args.sized(20_000),
        dim: 21,
        intrinsic_dim: 4,
        sources: 6,
        std: 0.6,
        drift: 0.0005,
        outlier_prob: 0.01,
        boxsize: 80.0,
        seed: args.seed + 60,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HarnessArgs {
        HarnessArgs {
            seed: 1,
            scale: 0.05,
            full: false,
        }
    }

    #[test]
    fn suites_generate_with_ground_truth() {
        let args = tiny();
        for e in low_dim_suite(&args)
            .into_iter()
            .chain(high_dim_suite(&args))
            .chain(shape_suite(&args))
            .chain(pcam_lsun(&args))
        {
            assert!(e.data.len() >= 10, "{}", e.name);
            assert!(e.data.labels().is_some(), "{}", e.name);
            assert_eq!(e.data.points()[0].len(), e.dim, "{}", e.name);
            assert!(e.eps0 > 0.0);
        }
        for e in text_suite(&args) {
            assert!(e.data.len() >= 10, "{}", e.name);
            assert!(e.eps0 > 0.0);
        }
    }

    #[test]
    fn stream_prefixes_work() {
        let args = tiny();
        let s = session_stream(&args);
        assert_eq!(s.prefix(10.0).iter().count(), s.n / 10);
    }

    #[test]
    fn noisy_variant_has_copies() {
        let args = HarnessArgs {
            seed: 1,
            scale: 0.1,
            full: false,
        };
        let base = &high_dim_suite(&args)[0];
        let noisy = noisy_variant(&args, base, 70);
        assert!(noisy.name.contains("noisy"));
        assert!(noisy.data.len() >= 100);
    }
}
