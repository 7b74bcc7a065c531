//! The unified GEMM kernel: `C = op(A) · op(B)` with independent transpose
//! flags, built around a SIMD-friendly packed microkernel and threaded over
//! output row bands.
//!
//! One entry point ([`gemm`]) replaces the former `matmul` / `matmul_nt` /
//! `matmul_tn` triplication: the `(transpose_a, transpose_b)` pair selects
//! the operand layout and the kernel dispatches internally. The output is
//! always row-major `[m, n]`:
//!
//! | flags      | A layout | B layout | computes  |
//! |------------|----------|----------|-----------|
//! | `(f, f)`   | `[m, k]` | `[k, n]` | `A · B`   |
//! | `(f, t)`   | `[m, k]` | `[n, k]` | `A · Bᵀ`  |
//! | `(t, f)`   | `[k, m]` | `[k, n]` | `Aᵀ · B`  |
//! | `(t, t)`   | `[k, m]` | `[n, k]` | `Aᵀ · Bᵀ` |
//!
//! ## Architecture: pack once, then one inner loop for every layout
//!
//! The kernel is a two-stage pipeline:
//!
//! 1. **Packing.** `B` is copied once per call into [`PackedB`] — per
//!    [`NR`]-column *panels*, each panel laid out `[k][NR]` so the inner
//!    loop reads it as one forward stream. Each row band packs its `A` rows
//!    into [`MR`]-row *tiles* laid out `[k][MR]` (broadcast-friendly). The
//!    packing step is transpose-aware: a transposed operand is normalized
//!    into the *same* packed layout, so all four transpose kinds run the
//!    identical inner loop and NT/TN stop paying a strided-access tax.
//!    Ragged edges are zero-padded in the packed buffers; padded lanes are
//!    computed and discarded, never stored.
//!
//! 2. **Microkernel.** An `MR × NR` register-tile accumulator: for each
//!    `kk` the microkernel broadcasts `MR` values of `A` against an
//!    `NR`-wide row of the `B` panel and accumulates `MR·NR` products. The
//!    accumulator tile lives in registers for the whole `k` loop, so `C`
//!    is written exactly once. The loop is written over fixed-size arrays
//!    that the compiler lowers to SIMD; on x86-64 the same body is
//!    instantiated twice — once under `#[target_feature(enable = "avx2")]`
//!    (selected at runtime via `is_x86_feature_detected!`) and once at the
//!    baseline feature level as the scalar-codegen fallback. Both
//!    instantiations execute the identical `mul`-then-`add` expression per
//!    element (FMA is deliberately not enabled), so the selected path
//!    changes throughput only, never a single output bit.
//!
//! ## Blocking and determinism
//!
//! `C` is split into row bands of [`TILE_M`] rows (the last band may be
//! ragged); each band is one work unit, computed entirely by one worker.
//! Every `C[i][j]` is the sum `Σₖ a·b` taken in strictly ascending `k`
//! with a single accumulator chain — the microkernel's register tile holds
//! one independent chain per output element. Both properties are
//! independent of the thread count, the SIMD path, and the band
//! partitioning, which is what makes `Threaded` bit-identical to `Serial`
//! (see the crate docs).
//!
//! ## Threading policy
//!
//! The worker count is sized to the problem via
//! [`Backend::threads_for_work`]: each extra scoped worker must bring
//! enough FLOPs to repay its spawn cost, so tiny GEMMs run serial (no
//! wakeup at all) and medium ones fan out to fewer workers than a big
//! one. `B` is packed once on the calling thread and shared read-only by
//! every band, so the packing cost is paid once regardless of the worker
//! count. Results are bit-identical at any worker count, so this is purely
//! a latency/throughput policy.

use crate::backend::Backend;
use crate::pool;
use mt_trace::ArgValue;

/// Rows of `C` per work unit (one band = one unit).
pub const TILE_M: usize = 32;

/// Rows per microkernel register tile: at each `kk` the inner loop
/// broadcasts `MR` packed `A` values against the `B` panel row.
pub const MR: usize = 8;

/// Columns per packed `B` panel — the SIMD accumulator width the
/// microkernel carries per output row (f32x8 on AVX2, two f32x4 at the
/// baseline feature level).
pub const NR: usize = 8;

/// What [`gemm_stats`] measured for one call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GemmStats {
    /// Microseconds ([`mt_trace::monotonic_us`]) spent packing `B` into
    /// panels on the calling thread. Per-band `A`-tile packing rides
    /// inside the banded compute and is not separable from it.
    pub packing_us: u64,
    /// Workers the work-size policy actually ran with (≤ the backend's
    /// configured thread count; see [`Backend::threads_for_work`]).
    pub threads_used: usize,
}

/// `C = op(A) · op(B)` into `out` (`[m, n]`, row-major, fully overwritten).
///
/// `m`/`n` are the output dimensions and `k` the contraction length; the
/// operand layouts implied by the flags are listed in the module docs.
///
/// The backend's configured thread count is an upper bound: the kernel
/// sizes the actual worker fan-out to the problem's FLOPs
/// ([`Backend::threads_for_work`]), so small problems never pay a scoped
/// spawn. Results are bit-identical at any worker count.
///
/// # Panics
///
/// Panics if a slice length disagrees with its implied layout.
#[allow(clippy::too_many_arguments)] // flat slice ABI; mt-tensor's Gemm descriptor is the ergonomic entry
pub fn gemm(
    backend: Backend,
    transpose_a: bool,
    transpose_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let _ = gemm_stats(backend, transpose_a, transpose_b, m, n, k, a, b, out);
}

/// [`gemm`], also returning what the call measured ([`GemmStats`]).
///
/// `kernel_bench` uses this to report the packing cost next to the compute
/// time; everything else calls [`gemm`].
///
/// # Panics
///
/// Panics if a slice length disagrees with its implied layout.
#[allow(clippy::too_many_arguments)] // flat slice ABI; mt-tensor's Gemm descriptor is the ergonomic entry
pub fn gemm_stats(
    backend: Backend,
    transpose_a: bool,
    transpose_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) -> GemmStats {
    assert_eq!(a.len(), m * k, "gemm: A length vs m*k");
    assert_eq!(b.len(), k * n, "gemm: B length vs k*n");
    assert_eq!(out.len(), m * n, "gemm: C length vs m*n");
    if m == 0 || n == 0 {
        return GemmStats::default();
    }
    let bands = m.div_ceil(TILE_M);
    let flops = 2 * (m as u64) * (n as u64) * (k as u64);
    let threads = backend.threads_for_work(flops).min(bands);
    let kind = kind_label(transpose_a, transpose_b);
    let tracer = mt_trace::current();
    let mut span = tracer.span_args("kernel_gemm", || {
        vec![
            ("kind", ArgValue::from(kind)),
            ("m", ArgValue::from(m)),
            ("n", ArgValue::from(n)),
            ("k", ArgValue::from(k)),
            ("tiles", ArgValue::from(bands)),
            ("threads", ArgValue::from(threads)),
        ]
    });
    let t0 = mt_trace::monotonic_us();
    let pb = PackedB::pack(transpose_b, n, k, b);
    let packing_us = mt_trace::monotonic_us().saturating_sub(t0);
    let simd = simd_level();
    // Stored-A row length: `a` is `[m, k]` row-major when not transposed,
    // `[k, m]` when transposed (op(A) row i lives in stored column i).
    let a_stride = if transpose_a { m } else { k };
    let chunks: Vec<&mut [f32]> = out.chunks_mut(TILE_M * n).collect();
    pool::run_indexed(threads, chunks, |band, c_band| {
        let row0 = band * TILE_M;
        let rows = c_band.len() / n;
        band_gemm(simd, transpose_a, a, a_stride, row0, rows, n, k, &pb, c_band);
    });
    span.arg("packing_us", packing_us);
    drop(span);
    GemmStats { packing_us, threads_used: threads }
}

/// Trace/report label for a transpose-flag pair (`"nn"`, `"nt"`, `"tn"`,
/// `"tt"`).
pub fn kind_label(transpose_a: bool, transpose_b: bool) -> &'static str {
    match (transpose_a, transpose_b) {
        (false, false) => "nn",
        (false, true) => "nt",
        (true, false) => "tn",
        (true, true) => "tt",
    }
}

// ---------------------------------------------------------------------------
// SIMD feature selection
// ---------------------------------------------------------------------------

/// Which microkernel instantiation to run. Both compute the identical
/// per-element float expression; the choice affects throughput only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Simd {
    /// Baseline-feature codegen (the portable fallback).
    Scalar,
    /// The `#[target_feature(enable = "avx2")]` instantiation; only
    /// constructed after `is_x86_feature_detected!("avx2")` succeeds.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

/// Runtime-detected SIMD level, resolved once and cached in an atomic.
fn simd_level() -> Simd {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        // 0 = undetected, 1 = scalar, 2 = avx2.
        static LEVEL: AtomicU8 = AtomicU8::new(0);
        match LEVEL.load(Ordering::Relaxed) {
            1 => Simd::Scalar,
            2 => Simd::Avx2,
            _ => {
                let detected = if std::arch::is_x86_feature_detected!("avx2") { 2u8 } else { 1u8 };
                // Racing first calls detect the same CPU; same value stored.
                LEVEL.store(detected, Ordering::Relaxed);
                if detected == 2 {
                    Simd::Avx2
                } else {
                    Simd::Scalar
                }
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Simd::Scalar
    }
}

/// Human-readable label of the microkernel path this process runs
/// (`"avx2"` or `"scalar"`), for benchmark reports and traces.
pub fn simd_feature() -> &'static str {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => "avx2",
        Simd::Scalar => "scalar",
    }
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// `B` packed into [`NR`]-column panels, each laid out `[k][NR]` so the
/// microkernel streams it forward with unit stride.
///
/// The packing is transpose-aware: `pack` reads `B` either `[k, n]`
/// (normal) or `[n, k]` (transposed) and lands both in the identical
/// normalized layout — packing a transposed operand equals transposing it
/// first and then packing (asserted by the packing tests). The last panel
/// is zero-padded to `NR` columns; padded lanes are computed by the
/// microkernel and discarded on store.
///
/// A `PackedB` is immutable and `Sync`, so one pack is shared read-only by
/// every row band of the worker pool: `B` is packed exactly once per GEMM.
pub struct PackedB {
    data: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Packs `b` (layout selected by `transpose_b`, see [`gemm`]'s table)
    /// into panels.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn pack(transpose_b: bool, n: usize, k: usize, b: &[f32]) -> PackedB {
        assert_eq!(b.len(), k * n, "PackedB::pack: B length vs k*n");
        let panels = n.div_ceil(NR);
        let mut data = vec![0.0f32; panels * k * NR];
        for jp in 0..panels {
            let j0 = jp * NR;
            let w = NR.min(n - j0);
            let dst = &mut data[jp * k * NR..(jp + 1) * k * NR];
            if !transpose_b {
                // b is [k, n]: per kk, copy a contiguous run of w columns.
                for kk in 0..k {
                    dst[kk * NR..kk * NR + w].copy_from_slice(&b[kk * n + j0..kk * n + j0 + w]);
                }
            } else {
                // b is [n, k]: op(B)[kk][j] = b[j*k + kk] — read each
                // source row contiguously, scatter into the panel column.
                for c in 0..w {
                    let src = &b[(j0 + c) * k..(j0 + c + 1) * k];
                    for (kk, &v) in src.iter().enumerate() {
                        dst[kk * NR + c] = v;
                    }
                }
            }
        }
        PackedB { data, k, n }
    }

    /// Number of [`NR`]-column panels.
    pub fn panels(&self) -> usize {
        self.n.div_ceil(NR)
    }

    /// One panel's `[k][NR]` slab.
    fn panel(&self, jp: usize) -> &[f32] {
        &self.data[jp * self.k * NR..(jp + 1) * self.k * NR]
    }

    /// The raw packed buffer (panel-major `[panel][k][NR]`, zero-padded),
    /// for the packing-equivalence tests.
    pub fn data(&self) -> &[f32] {
        &self.data
    }
}

/// Packs `rows` op(A) rows starting at `row0` into [`MR`]-row tiles laid
/// out `[k][MR]` (zero-padded), normalizing both stored layouts:
///
/// * `transpose_a == false`: `a` is row-major with row stride `a_stride
///   == k`; each tile is a small `MR × k` transpose.
/// * `transpose_a == true`: `a` is `[k, m]` with `a_stride == m`; op(A)
///   row `i` is stored column `i`, so each `kk` contributes `MR`
///   *contiguous* stored values — a straight copy.
///
/// `dst` must hold `rows.div_ceil(MR) * k * MR` elements and is fully
/// overwritten (padding lanes included).
fn pack_a_band(
    transpose_a: bool,
    a: &[f32],
    a_stride: usize,
    row0: usize,
    rows: usize,
    k: usize,
    dst: &mut [f32],
) {
    let tiles = rows.div_ceil(MR);
    debug_assert_eq!(dst.len(), tiles * k * MR);
    for t in 0..tiles {
        let r0 = t * MR;
        let h = MR.min(rows - r0);
        let tile = &mut dst[t * k * MR..(t + 1) * k * MR];
        if h < MR {
            tile.fill(0.0);
        }
        if !transpose_a {
            for r in 0..h {
                let src = &a[(row0 + r0 + r) * a_stride..(row0 + r0 + r) * a_stride + k];
                for (kk, &v) in src.iter().enumerate() {
                    tile[kk * MR + r] = v;
                }
            }
        } else {
            for kk in 0..k {
                let src = &a[kk * a_stride + row0 + r0..kk * a_stride + row0 + r0 + h];
                tile[kk * MR..kk * MR + h].copy_from_slice(src);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Microkernel
// ---------------------------------------------------------------------------

/// One band × one `B` panel: every [`MR`]-row tile of the band runs the
/// register-tile microkernel against the panel and stores its valid
/// `h × w` corner into `C`.
///
/// Per output element the accumulator is a single chain over ascending
/// `kk` of `mul`-then-`add` — the expression the determinism contract and
/// the naive-oracle tests pin down. Fixed-size `[[f32; NR]; MR]` arrays
/// keep the tile in registers; the surrounding `target_feature` wrapper
/// decides how wide the compiler lowers the arithmetic.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // internal hot loop; bundling would cost a struct per panel
fn band_panel_impl(
    k: usize,
    rows: usize,
    n: usize,
    j0: usize,
    w: usize,
    a_tiles: &[f32],
    panel: &[f32],
    c: &mut [f32],
) {
    let tiles = rows.div_ceil(MR);
    for t in 0..tiles {
        let ap = &a_tiles[t * k * MR..(t + 1) * k * MR];
        let mut acc = [[0.0f32; NR]; MR];
        for (av, bv) in ap.chunks_exact(MR).zip(panel.chunks_exact(NR)) {
            for r in 0..MR {
                let a = av[r];
                let row = &mut acc[r];
                for (rc, &b) in row.iter_mut().zip(bv) {
                    *rc += a * b;
                }
            }
        }
        let h = MR.min(rows - t * MR);
        for (r, acc_row) in acc.iter().enumerate().take(h) {
            let out_row = t * MR + r;
            c[out_row * n + j0..out_row * n + j0 + w].copy_from_slice(&acc_row[..w]);
        }
    }
}

/// The AVX2 instantiation of [`band_panel_impl`]. Same source, same
/// `mul`+`add` expression — only the vector width differs, so outputs are
/// bit-identical to the scalar instantiation.
///
/// Callers must have verified `is_x86_feature_detected!("avx2")` (done
/// once in [`simd_level`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // mirrors band_panel_impl
fn band_panel_avx2(
    k: usize,
    rows: usize,
    n: usize,
    j0: usize,
    w: usize,
    a_tiles: &[f32],
    panel: &[f32],
    c: &mut [f32],
) {
    band_panel_impl(k, rows, n, j0, w, a_tiles, panel, c)
}

/// One row band of `C = op(A) · op(B)`: packs the band's `A` rows into
/// tiles, then sweeps every panel of the shared [`PackedB`].
///
/// `row0`/`rows` select op(A) rows (`row0` indexes `a`'s stored rows when
/// not transposed, stored columns when transposed); `c` is the band's
/// `rows × n` output window, fully overwritten. Every [`TILE_M`] band of
/// [`gemm`] runs through here, whichever worker picks it up.
#[allow(clippy::too_many_arguments)] // the band's full operand description
fn band_gemm(
    simd: Simd,
    transpose_a: bool,
    a: &[f32],
    a_stride: usize,
    row0: usize,
    rows: usize,
    n: usize,
    k: usize,
    pb: &PackedB,
    c: &mut [f32],
) {
    debug_assert_eq!(c.len(), rows * n);
    debug_assert_eq!(pb.k, k, "PackedB k mismatch");
    debug_assert_eq!(pb.n, n, "PackedB n mismatch");
    let tiles = rows.div_ceil(MR);
    let mut a_tiles = vec![0.0f32; tiles * k * MR];
    pack_a_band(transpose_a, a, a_stride, row0, rows, k, &mut a_tiles);
    for jp in 0..pb.panels() {
        let j0 = jp * NR;
        let w = NR.min(n - j0);
        match simd {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the Avx2 variant is only constructed by simd_level()
            // after is_x86_feature_detected!("avx2") succeeded on this CPU.
            Simd::Avx2 => unsafe { band_panel_avx2(k, rows, n, j0, w, &a_tiles, pb.panel(jp), c) },
            Simd::Scalar => band_panel_impl(k, rows, n, j0, w, &a_tiles, pb.panel(jp), c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference with the same ascending-k per-element order.
    fn reference(
        ta: bool,
        tb: bool,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let av = if ta { a[kk * m + i] } else { a[i * k + kk] };
                    let bv = if tb { b[j * k + kk] } else { b[kk * n + j] };
                    acc += av * bv;
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn filled(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn known_values_nn() {
        let a = [1., 2., 3., 4., 5., 6.];
        let b = [7., 8., 9., 10., 11., 12.];
        let mut c = [0.0f32; 4];
        gemm(Backend::Serial, false, false, 2, 2, 3, &a, &b, &mut c);
        assert_eq!(c, [58., 64., 139., 154.]);
    }

    #[test]
    fn all_kinds_match_reference_on_ragged_shapes() {
        // m = 33 and 70 force ragged final bands (TILE_M = 32) and ragged
        // microkernel tiles (MR = 8); n = 5/7/19 force ragged panels
        // (NR = 8); k = 65 exercises a long contraction chain.
        for &(m, n, k) in &[(1, 1, 1), (33, 5, 65), (70, 7, 3), (32, 64, 64), (40, 19, 65)] {
            let a_len = m * k;
            let b_len = k * n;
            for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
                let a = filled(a_len, 1);
                let b = filled(b_len, 2);
                let want = reference(ta, tb, m, n, k, &a, &b);
                let mut got = vec![0.0f32; m * n];
                gemm(Backend::Serial, ta, tb, m, n, k, &a, &b, &mut got);
                // The packed microkernel preserves the naive ascending-k
                // mul+add chain exactly, so this holds to the bit.
                assert!(
                    want.iter().zip(&got).all(|(w, g)| w.to_bits() == g.to_bits()),
                    "{} m={m} n={n} k={k}: not bit-identical to the naive oracle",
                    kind_label(ta, tb)
                );
            }
        }
    }

    #[test]
    fn threaded_is_bit_identical_to_serial() {
        let (m, n, k) = (70, 19, 65);
        let a = filled(m * k, 3);
        let b = filled(k * n, 4);
        for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut serial = vec![0.0f32; m * n];
            gemm(Backend::Serial, ta, tb, m, n, k, &a, &b, &mut serial);
            for threads in 1..=8 {
                let mut mt = vec![0.0f32; m * n];
                gemm(Backend::Threaded { threads }, ta, tb, m, n, k, &a, &b, &mut mt);
                assert!(
                    serial.iter().zip(&mt).all(|(s, t)| s.to_bits() == t.to_bits()),
                    "{} threads={threads}: not bit-identical",
                    kind_label(ta, tb)
                );
            }
        }
    }

    #[test]
    fn multi_worker_fanout_is_bit_identical_to_serial() {
        // Big enough that threads_for_work actually grants several
        // workers (the small-shape tests above exercise the policy's
        // serial cutoff instead).
        let (m, n, k) = (160, 96, 170);
        let a = filled(m * k, 5);
        let b = filled(k * n, 6);
        let mut serial = vec![0.0f32; m * n];
        gemm(Backend::Serial, false, false, m, n, k, &a, &b, &mut serial);
        let backend = Backend::Threaded { threads: 4 };
        assert!(
            backend.threads_for_work(2 * (m * n * k) as u64) > 1,
            "shape must be above the parallel cutoff for this test to mean anything"
        );
        let mut mt = vec![0.0f32; m * n];
        gemm(backend, false, false, m, n, k, &a, &b, &mut mt);
        assert!(serial.iter().zip(&mt).all(|(s, t)| s.to_bits() == t.to_bits()));
    }

    #[test]
    fn packing_a_transposed_panel_equals_transposing_then_packing() {
        let (n, k) = (19, 33);
        let b = filled(k * n, 9);
        // Explicit transpose: bt[[n, k]] with bt[j][kk] = b[kk][j].
        let mut bt = vec![0.0f32; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        let packed_direct = PackedB::pack(true, n, k, &bt);
        let packed_via_transpose = PackedB::pack(false, n, k, &b);
        assert_eq!(
            packed_direct.data(),
            packed_via_transpose.data(),
            "transpose-aware packing must normalize both layouts identically"
        );
    }

    #[test]
    fn packed_a_tiles_normalize_both_layouts_identically() {
        let (m, k) = (21, 13); // ragged tiles: 21 rows over MR = 8
        let a = filled(m * k, 10);
        // Explicit transpose: at[[k, m]] with at[kk][i] = a[i][kk].
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let tiles = m.div_ceil(MR);
        let mut packed_n = vec![0.0f32; tiles * k * MR];
        let mut packed_t = vec![0.0f32; tiles * k * MR];
        pack_a_band(false, &a, k, 0, m, k, &mut packed_n);
        pack_a_band(true, &at, m, 0, m, k, &mut packed_t);
        assert_eq!(packed_n, packed_t);
    }

    #[test]
    fn output_is_overwritten_not_accumulated() {
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [1.0f32, 2.0, 3.0, 4.0];
        let mut c = [9.0f32; 4]; // stale garbage must be cleared
        gemm(Backend::Serial, false, false, 2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn zero_k_zeroes_the_output() {
        let mut c = [7.0f32; 6];
        gemm(Backend::Serial, false, false, 2, 3, 0, &[], &[], &mut c);
        assert_eq!(c, [0.0; 6]);
    }

    #[test]
    fn stats_report_packing_and_policy_threads() {
        let (m, n, k) = (64, 64, 64);
        let a = filled(m * k, 11);
        let b = filled(k * n, 12);
        let mut c = vec![0.0f32; m * n];
        // 64³ sits below the measured crossover: even an 8-thread backend
        // must run it serial.
        let stats =
            gemm_stats(Backend::Threaded { threads: 8 }, false, false, m, n, k, &a, &b, &mut c);
        assert_eq!(stats.threads_used, 1, "below-crossover problems run serial");
    }

    #[test]
    #[should_panic(expected = "A length")]
    fn rejects_bad_lengths() {
        let mut c = [0.0f32; 4];
        gemm(Backend::Serial, false, false, 2, 2, 3, &[0.0; 5], &[0.0; 6], &mut c);
    }
}
