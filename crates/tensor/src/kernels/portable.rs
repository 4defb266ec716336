//! The portable reference tier: safe multi-accumulator loops that
//! auto-vectorize on any target the compiler knows how to vectorize for.
//!
//! These are the kernels every other tier is checked against (the tier-parity
//! suite in `tests/kernel_tiers.rs` pins agreement ≤ 1e-5, bit-exact on
//! integer-valued inputs). They contain no `unsafe` and no architecture
//! assumptions; with `-C target-cpu=native` the compiler turns the
//! multi-accumulator shapes into vector FMAs, without it they still beat the
//! naive single-accumulator loops on scalar/SSE2 codegen.
//!
//! Accumulation-order contract (shared with the AVX2 tier): every output
//! element is one accumulation chain in ascending-`k` order, so results do
//! not depend on how rows are grouped into panels or shards.

use super::{
    pack_panel_kmajor, quantized_score, row_is_sparse, DOT_LANES, GEMM_B_PANEL, MATMUL_J_BLOCK, SERIAL_DOT_LEN,
};
use crate::quant::{QuantizedMatrix, QuantizedQuery};
use crate::Matrix;

/// Dot product with [`DOT_LANES`] independent partial sums.
///
/// A single-accumulator reduction is a serial dependency chain the compiler
/// must not reassociate, so it can neither vectorize nor overlap the FMAs.
/// Eight explicit partial sums make the reassociation part of the program:
/// the loop body is lane-wise independent and compiles to vector FMAs, with
/// one horizontal reduction at the end. Rows shorter than
/// [`SERIAL_DOT_LEN`] are one ascending chain from zero — the chain the
/// GEMM computes for every element — so at those widths a lone request's
/// GEMV and a batched request's GEMM agree bit for bit.
// ham-lint: hot-path
pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
    if a.len() < SERIAL_DOT_LEN {
        return a.iter().zip(b).fold(0.0, |sum, (x, y)| sum + x * y);
    }
    let mut acc = [0.0f32; DOT_LANES];
    let mut a_chunks = a.chunks_exact(DOT_LANES);
    let mut b_chunks = b.chunks_exact(DOT_LANES);
    for (a8, b8) in a_chunks.by_ref().zip(b_chunks.by_ref()) {
        for l in 0..DOT_LANES {
            acc[l] += a8[l] * b8[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
        tail += x * y;
    }
    let half: f32 = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let other: f32 = (acc[4] + acc[5]) + (acc[6] + acc[7]);
    half + other + tail
}

/// `out[j] = w.row(j) · q` — one fused pass over `w` with the vectorizing
/// multi-accumulator [`dot`] per row.
// ham-lint: hot-path
pub(super) fn matvec_transposed_into(w: &Matrix, q: &[f32], out: &mut [f32]) {
    let d = w.cols();
    let data = w.as_slice();
    for (j, o) in out.iter_mut().enumerate() {
        *o = dot(&data[j * d..(j + 1) * d], q);
    }
}

/// `out[i] = w.row(rows[i]) · q` with the [`dot`] chain of
/// [`matvec_transposed_into`], so each output matches that row of the GEMV
/// bit for bit. The dispatcher validated the shapes and row indices.
// ham-lint: hot-path
pub(super) fn dot_rows_into(w: &Matrix, rows: &[usize], q: &[f32], out: &mut [f32]) {
    let d = w.cols();
    let data = w.as_slice();
    for (o, &r) in out.iter_mut().zip(rows) {
        *o = dot(&data[r * d..(r + 1) * d], q);
    }
}

/// Blocked `a · bᵀ` into `out` (overwrites): panels of `b` rows are re-packed
/// k-major so the innermost loop is a contiguous axpy over the panel width,
/// and the packed panel stays L1-resident while every row of `a` is scored
/// against it. `b` is streamed from memory exactly once regardless of the
/// batch size; the packing cost is amortised over all rows of `a`.
pub(super) fn matmul_transposed_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, d) = a.shape();
    let n = b.rows();
    let out_data = out.as_mut_slice();
    out_data.fill(0.0);
    if d == 0 {
        return;
    }
    let a_data = a.as_slice();
    let b_data = b.as_slice();

    let mut packed = vec![0.0f32; GEMM_B_PANEL * d];
    let mut j0 = 0;
    while j0 < n {
        let jw = (n - j0).min(GEMM_B_PANEL);
        pack_panel_kmajor(b_data, d, j0, jw, &mut packed);
        for i in 0..m {
            let a_row = &a_data[i * d..(i + 1) * d];
            let out_seg = &mut out_data[i * n + j0..i * n + j0 + jw];
            for (k, &av) in a_row.iter().enumerate() {
                let panel_row = &packed[k * jw..(k + 1) * jw];
                for (o, &bv) in out_seg.iter_mut().zip(panel_row) {
                    *o += av * bv;
                }
            }
        }
        j0 += jw;
    }
}

/// Cache-blocked `a · b` into `out` (which must be all-zero on entry).
///
/// Loop order is column-panel (`j` block) outermost, then output row, then
/// the inner dimension: the `B` panel of [`MATMUL_J_BLOCK`] columns is reused
/// across every row of `A`, and each output element accumulates in ascending
/// `k` order (bit-identical to the classic i-k-j loop).
///
/// Rows of `a` are classified once as dense or sparse ([`row_is_sparse`]):
/// the dense inner loop carries **no** zero test (a branch there inhibits
/// vectorization), while sparse rows — the one-hot and masked matrices the
/// autograd tape produces — skip their zero entries. The two paths are
/// bit-identical for finite inputs because skipping `k` is exactly
/// `out += 0.0 * b[k][j]`: the product is a signed zero and the accumulator
/// can never be `-0.0` (it starts at `+0.0` and `+0.0 + ±0.0 = +0.0` under
/// round-to-nearest), so adding it changes nothing.
pub(super) fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, p) = a.shape();
    let n = b.cols();
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let out_data = out.as_mut_slice();
    let sparse: Vec<bool> = (0..m).map(|i| row_is_sparse(&a_data[i * p..(i + 1) * p])).collect();

    let mut j0 = 0;
    while j0 < n {
        let jw = (n - j0).min(MATMUL_J_BLOCK);
        for i in 0..m {
            let a_row = &a_data[i * p..(i + 1) * p];
            let out_seg = &mut out_data[i * n + j0..i * n + j0 + jw];
            if sparse[i] {
                for (k, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    axpy(out_seg, av, &b_data[k * n + j0..k * n + j0 + jw]);
                }
            } else {
                for (k, &av) in a_row.iter().enumerate() {
                    axpy(out_seg, av, &b_data[k * n + j0..k * n + j0 + jw]);
                }
            }
        }
        j0 += jw;
    }
}

/// `out += alpha * b` — the branch-free inner row update of [`matmul_into`]
/// and, as a public kernel through the dispatcher, the rank-1 row update the
/// batched BPR trainer accumulates its gradients with.
#[inline]
// ham-lint: hot-path
pub(super) fn axpy(out: &mut [f32], alpha: f32, b: &[f32]) {
    for (o, &bv) in out.iter_mut().zip(b) {
        *o += alpha * bv;
    }
}

/// Batched scatter of rank-1 row updates:
/// `dst.row(dst_rows[p]) += scales[p] * src.row(src_rows[p])` for every `p`.
/// The shapes were validated by the dispatcher.
// ham-lint: hot-path
pub(super) fn axpy_rows(dst: &mut Matrix, dst_rows: &[usize], scales: &[f32], src: &Matrix, src_rows: &[usize]) {
    let d = src.cols();
    let src_data = src.as_slice();
    let dst_data = dst.as_mut_slice();
    for ((&dr, &scale), &sr) in dst_rows.iter().zip(scales).zip(src_rows) {
        axpy(&mut dst_data[dr * d..(dr + 1) * d], scale, &src_data[sr * d..(sr + 1) * d]);
    }
}

/// Exact integer core of the quantized kernels: `Σ_k p[k] · s[k]` in `i32`.
///
/// Four independent partial sums so the widening multiply-accumulate
/// auto-vectorizes; integer addition is associative, so every accumulation
/// shape yields the same value — quantized scores are bit-identical across
/// tiers by construction, not by a rounding argument.
// ham-lint: hot-path
pub(super) fn quantized_dot_i32(p: &[u8], s: &[i8]) -> i32 {
    let mut acc = [0i32; 4];
    let mut p_chunks = p.chunks_exact(4);
    let mut s_chunks = s.chunks_exact(4);
    for (p4, s4) in p_chunks.by_ref().zip(s_chunks.by_ref()) {
        for l in 0..4 {
            acc[l] += p4[l] as i32 * s4[l] as i32;
        }
    }
    let mut tail = 0i32;
    for (&pv, &sv) in p_chunks.remainder().iter().zip(s_chunks.remainder()) {
        tail += pv as i32 * sv as i32;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Quantized GEMV: `out[j] ≈ w.row(j) · q` from the int8 panel — one
/// integer dot plus the zero-point fixup per row, streaming 1 byte/element
/// instead of 4.
// ham-lint: hot-path
pub(super) fn quantized_matvec_into(w: &QuantizedMatrix, q: &QuantizedQuery, out: &mut [f32]) {
    let d = w.cols();
    let payload = w.payload();
    for (j, o) in out.iter_mut().enumerate() {
        let acc = quantized_dot_i32(&payload[j * d..(j + 1) * d], q.payload());
        *o = quantized_score(acc, w.zero_point(j), w.scale(j), q);
    }
}

/// Quantized batched scoring `out[b][j] ≈ queries[b] · w.row(j)`: the
/// candidate panel is streamed exactly once (outer loop over rows), each row
/// scored against every quantized query while it is L1-resident.
pub(super) fn quantized_matmul_transposed_into(queries: &[QuantizedQuery], w: &QuantizedMatrix, out: &mut Matrix) {
    let d = w.cols();
    let n = w.rows();
    let payload = w.payload();
    let out_data = out.as_mut_slice();
    for j in 0..n {
        let row = &payload[j * d..(j + 1) * d];
        let (zp, scale) = (w.zero_point(j), w.scale(j));
        for (b, q) in queries.iter().enumerate() {
            out_data[b * n + j] = quantized_score(quantized_dot_i32(row, q.payload()), zp, scale, q);
        }
    }
}
