//! # ham-tensor
//!
//! Dense matrix and vector math substrate for the HAM reproduction.
//!
//! The HAM paper ("Hybrid Associations Models for Sequential Recommendation")
//! and the baselines it compares against (Caser, SASRec, HGN) are built from a
//! small set of dense linear-algebra primitives over embedding matrices:
//! matrix products, element-wise (Hadamard) products, mean/max pooling over
//! rows, sigmoid/softmax non-linearities and random initialisation.
//!
//! This crate provides exactly those primitives over a row-major [`Matrix`] of
//! `f32` values, with no external linear-algebra dependencies, so that every
//! higher layer of the workspace (autograd engine, the HAM models, the deep
//! baselines) is built from scratch as the reproduction requires.
//!
//! ## The kernel layer
//!
//! Everything hot funnels through the batched kernels in [`kernels`] — a
//! multi-accumulator [`kernels::dot`], the fused one-user catalogue pass
//! [`kernels::matvec_transposed`] (and its allocation-free
//! [`kernels::matvec_transposed_into`]), the packed-panel batched GEMM
//! [`kernels::matmul_transposed`] (`Q·Wᵀ`, the scorer behind
//! `evaluate_batch`) and the cache-blocked [`kernels::matmul`]. The kernel
//! layer is **tiered**: a portable safe reference tier and explicit
//! AVX2+FMA and AVX-512 tiers, selected once per process by runtime feature
//! detection (overridable via the `HAM_KERNEL_TIER` environment variable),
//! so vector speed no longer depends on `-C target-cpu=native`. The
//! [`Matrix`] methods of the same names delegate to the dispatched kernels,
//! so model code written against `Matrix` inherits the fast paths. See the
//! [`kernels`] module docs for the tier table and when each entry point
//! applies.
//!
//! ## Quantized candidate scoring
//!
//! [`quant`] adds an int8 serving-side path: [`QuantizedMatrix`] snapshots a
//! frozen candidate matrix at 1 byte/element (per-row scale + zero-point),
//! [`QuantizedQuery`] quantizes a request vector, and the `quantized_*`
//! kernels in [`kernels`] score the pair with exact integer accumulation —
//! quartering the memory traffic of the bandwidth-bound catalogue pass while
//! staying bit-identical across tiers and shard groupings. [`ScoreBound`]
//! bounds how far such a score can sit from the f32 one, which lets the
//! serving layer's certified scan read the catalogue in int8 and re-score
//! only the rows that can still reach the top-k.
//!
//! ## The worker pool
//!
//! [`pool::workers`] hosts a reusable work-stealing [`pool::ThreadPool`] of
//! persistent workers with a `std::thread::scope`-style borrowing API and a
//! process-wide [`pool::global_pool`]. The threaded evaluation protocol
//! (`ham-eval`) and the sharded serving layer (`ham-serve`) both fan out on
//! it instead of spawning scoped threads per call.
//!
//! ## Conventions
//!
//! * All matrices are row-major; an *embedding matrix* stores one embedding
//!   per row.
//! * Dimension mismatches are programming errors and panic with a descriptive
//!   message (mirroring `ndarray`); fallible, data-dependent operations return
//!   `Result` instead.
//! * Randomised constructors take an explicit `&mut impl rand::Rng` so every
//!   experiment in the workspace is reproducible from a seed.
//!
//! ## Example
//!
//! ```
//! use ham_tensor::Matrix;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let v = Matrix::xavier_uniform(4, 8, &mut rng); // 4 item embeddings, d = 8
//! let pooled = v.mean_rows();                     // mean pooling over the items
//! assert_eq!(pooled.len(), 8);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod cluster;
pub mod init;
pub mod kernels;
pub mod linalg;
pub mod matrix;
pub mod ops;
pub mod pool;
pub mod quant;
pub mod stats;

pub use cluster::{kmeans_rows, KMeansResult};
pub use matrix::Matrix;
pub use ops::{sigmoid, sigmoid_scalar, softmax_in_place};
pub use pool::Pooling;
pub use quant::{QuantizedMatrix, QuantizedQuery, ScoreBound};
