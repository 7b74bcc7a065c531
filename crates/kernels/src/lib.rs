//! # mt-kernels
//!
//! Cache-blocked, multi-threaded CPU kernels for the workspace's hot
//! operators — the GEMM family (N/NT/TT/TN via a packed SIMD microkernel,
//! see [`gemm`]), row softmax, LayerNorm, and GeLU — behind a single
//! [`Backend`] selector.
//!
//! The crate operates on plain `&[f32]` slices so it sits *below*
//! `mt-tensor` (which wraps these kernels in shape-checked `Tensor` entry
//! points) and carries no dependency besides `mt-trace` for per-kernel
//! spans.
//!
//! ## Determinism contract
//!
//! Every kernel partitions its output into **fixed-size work units** (GEMM
//! row bands of [`gemm::TILE_M`] rows, row blocks of [`ROW_BLOCK`] rows,
//! element chunks of [`CHUNK`] elements). The unit size never depends on the
//! thread count, each unit is computed start-to-finish by exactly one
//! worker with a fixed internal reduction order (ascending `k` for GEMM,
//! ascending row for row reductions), and any cross-unit reduction
//! (LayerNorm's `dγ`/`dβ`) is combined on the calling thread in ascending
//! unit order. Consequently [`Backend::Threaded`] produces **bit-identical**
//! results to [`Backend::Serial`] at any thread count — the property that
//! lets the gradient-equivalence and Table-2 tests upstream keep their exact
//! assertions while the backend is swapped underneath them.
//!
//! The GEMM microkernel extends the contract to its SIMD dispatch: the
//! runtime-selected AVX2 path and the scalar fallback are the *same*
//! generic function instantiated at two feature levels, both computing
//! plain `mul`-then-`add` per element (FMA is never enabled), so feature
//! detection changes throughput only — never an output bit. See
//! [`gemm`]'s module docs for the packing/microkernel architecture.
//!
//! ## Tracing
//!
//! Each kernel entry opens an `mt-trace` span (`kernel_gemm`,
//! `kernel_softmax`, `kernel_layer_norm`, `kernel_gelu`, plus `_backward`
//! variants) annotated with the problem shape, work-unit count, and thread
//! count, so `trace-report` timelines show where compute time goes. With a
//! disabled tracer the span costs one `Option` check and allocates nothing.
//!
//! ## Example
//!
//! ```
//! use mt_kernels::{gemm, Backend};
//!
//! // C = A · B for A: [2, 3], B: [3, 2].
//! let a = [1., 2., 3., 4., 5., 6.];
//! let b = [7., 8., 9., 10., 11., 12.];
//! let mut c = [0.0f32; 4];
//! gemm::gemm(Backend::Serial, false, false, 2, 2, 3, &a, &b, &mut c);
//! assert_eq!(c, [58., 64., 139., 154.]);
//!
//! let mut c_mt = [0.0f32; 4];
//! gemm::gemm(Backend::Threaded { threads: 4 }, false, false, 2, 2, 3, &a, &b, &mut c_mt);
//! assert_eq!(c, c_mt); // bit-identical at any thread count
//! ```

#![warn(missing_docs)]

mod backend;
pub mod gemm;
pub mod pool;
mod rowwise;

pub use backend::{default_backend, set_default_backend, Backend};
pub use rowwise::{
    gelu, gelu_backward, layer_norm, layer_norm_backward, softmax_rows, softmax_rows_backward,
    CHUNK, ROW_BLOCK,
};
