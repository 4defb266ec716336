//! Property suite for the int8 quantized scoring path: the a-priori error
//! bound (scaled by the per-row magnitude through `scale_r`), the certified
//! bound between int8 and f32 scores on every tier, exact
//! integer-accumulation bit-identity across tiers, the candidate re-score
//! kernel's parity with the GEMV, and round-trip behaviour of the affine
//! scheme on arbitrary inputs.

use ham_tensor::kernels::{
    dot_rows_into_with_tier, matvec_transposed_into_with_tier, quantized_dot_with_tier,
    quantized_matmul_transposed_into_with_tier, quantized_matvec_into_with_tier, KernelTier,
};
use ham_tensor::quant::score_error_bound;
use ham_tensor::{Matrix, QuantizedMatrix, QuantizedQuery, ScoreBound};
use proptest::prelude::*;

/// Every tier runnable on this machine; the quantized kernels must agree
/// bit-for-bit across all of them (integer accumulation is exact).
fn all_tiers() -> Vec<KernelTier> {
    [KernelTier::Portable, KernelTier::Avx2, KernelTier::Avx512].into_iter().filter(|t| t.supported()).collect()
}

fn exact_score(row: &[f32], q: &[f32]) -> f32 {
    row.iter().zip(q).map(|(w, x)| (*w as f64) * (*x as f64)).sum::<f64>() as f32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The quantized score of every row stays within the a-priori bound of
    /// the exact score — the bound scales with the per-row magnitude
    /// (`scale_r = (max − min)/255`), so large-magnitude rows are allowed
    /// proportionally more absolute error and small rows almost none.
    #[test]
    fn quantized_score_respects_the_error_bound(
        rows in proptest::collection::vec(proptest::collection::vec(-8.0f32..8.0, 12..13), 1..12),
        q in proptest::collection::vec(-3.0f32..3.0, 12..13),
    ) {
        let n = rows.len();
        let w = Matrix::from_vec(n, 12, rows.concat());
        let qw = QuantizedMatrix::quantize(&w);
        let qq = QuantizedQuery::quantize(&q);
        let mut scores = vec![0.0f32; n];
        quantized_matvec_into_with_tier(KernelTier::Portable, &qw, &qq, &mut scores);
        for (j, &score) in scores.iter().enumerate() {
            let exact = exact_score(w.row(j), &q);
            let bound = score_error_bound(w.row(j), &q);
            prop_assert!(
                (exact - score).abs() <= bound,
                "row {j}: |{exact} - {score}| > bound {bound}"
            );
        }
    }

    /// Scaling a row scales its permitted error: the bound itself must be
    /// (close to) homogeneous in the row magnitude, which pins the
    /// "scaled by per-row magnitude" property directly.
    #[test]
    fn error_bound_scales_with_row_magnitude(
        row in proptest::collection::vec(-4.0f32..4.0, 1..24),
        q in proptest::collection::vec(-2.0f32..2.0, 24..25),
        factor in 2.0f32..16.0,
    ) {
        let q = &q[..row.len()];
        let scaled: Vec<f32> = row.iter().map(|v| v * factor).collect();
        let base = score_error_bound(&row, q);
        let grown = score_error_bound(&scaled, q);
        // The |w|·scale_q terms scale exactly; the scale_r terms scale
        // exactly too — the whole bound is homogeneous degree 1 in the row.
        prop_assert!(
            (grown - factor * base).abs() <= 1e-3 * (1.0 + grown.abs()),
            "bound {base} scaled by {factor} gave {grown}"
        );
    }

    /// Quantized scores are bit-identical across every supported tier and
    /// across row groupings (integer accumulation is associative), for all
    /// three kernel entry points.
    #[test]
    fn quantized_kernels_are_bit_identical_across_tiers(
        n in 1usize..20,
        d in 1usize..48,
        seed in 0usize..32,
    ) {
        let w = Matrix::from_vec(
            n, d,
            (0..n * d).map(|i| (((i * 31 + seed * 7) % 41) as f32 - 20.0) * 0.21).collect(),
        );
        let qf: Vec<f32> = (0..d).map(|k| ((k * 13 + seed) % 23) as f32 * 0.17 - 1.9).collect();
        let qw = QuantizedMatrix::quantize(&w);
        let qq = QuantizedQuery::quantize(&qf);
        let mut reference = vec![0.0f32; n];
        quantized_matvec_into_with_tier(KernelTier::Portable, &qw, &qq, &mut reference);
        for tier in all_tiers() {
            let mut fast = vec![f32::NAN; n];
            quantized_matvec_into_with_tier(tier, &qw, &qq, &mut fast);
            for j in 0..n {
                prop_assert_eq!(fast[j].to_bits(), reference[j].to_bits(), "{} matvec row {}", tier, j);
                let single = quantized_dot_with_tier(tier, &qw, j, &qq);
                prop_assert_eq!(single.to_bits(), reference[j].to_bits(), "{} dot row {}", tier, j);
            }
            let mut batch = Matrix::zeros(2, n);
            quantized_matmul_transposed_into_with_tier(tier, &[qq.clone(), qq.clone()], &qw, &mut batch);
            for b in 0..2 {
                for (j, r) in reference.iter().enumerate() {
                    prop_assert_eq!(batch.get(b, j).to_bits(), r.to_bits(), "{} gemm ({},{})", tier, b, j);
                }
            }
        }
    }

    /// Row-grouping independence: scoring a slice of the rows alone gives the
    /// same bits as the corresponding entries of the full panel — the
    /// property the sharded quantized pre-selection rests on.
    #[test]
    fn quantized_scores_are_position_independent(split in 1usize..19) {
        let (n, d) = (20usize, 24usize);
        let w = Matrix::from_vec(n, d, (0..n * d).map(|i| ((i * 37) % 29) as f32 * 0.13 - 1.8).collect());
        let qf: Vec<f32> = (0..d).map(|k| (k as f32 * 0.23).sin()).collect();
        let qq = QuantizedQuery::quantize(&qf);
        let full = QuantizedMatrix::quantize(&w);
        let mut full_scores = vec![0.0f32; n];
        quantized_matvec_into_with_tier(KernelTier::Portable, &full, &qq, &mut full_scores);
        for (start, len) in [(0, split), (split, n - split)] {
            let shard = Matrix::from_vec(len, d, w.as_slice()[start * d..(start + len) * d].to_vec());
            let panel = QuantizedMatrix::quantize(&shard);
            let mut part = vec![0.0f32; len];
            for tier in all_tiers() {
                quantized_matvec_into_with_tier(tier, &panel, &qq, &mut part);
                for j in 0..len {
                    prop_assert_eq!(
                        part[j].to_bits(), full_scores[start + j].to_bits(),
                        "{} shard {}+{} row {}", tier, start, len, j
                    );
                }
            }
        }
    }

    /// Affine round-trip: every dequantized element lands within one step of
    /// the original (half a step from rounding, up to another half from
    /// clamping at the nudged range edge).
    #[test]
    fn round_trip_is_within_one_step(row in proptest::collection::vec(-10.0f32..10.0, 1..40)) {
        let w = Matrix::from_vec(1, row.len(), row.clone());
        let qw = QuantizedMatrix::quantize(&w);
        let back = qw.dequantize_row(0);
        for (k, (&orig, &deq)) in row.iter().zip(&back).enumerate() {
            prop_assert!(
                (orig - deq).abs() <= qw.scale(0) + 1e-6,
                "col {k}: {orig} vs {deq} (scale {})", qw.scale(0)
            );
        }
    }
}

/// SplitMix64 stream for the adversarial generators below.
fn stream(seed: u64) -> impl FnMut() -> f32 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The certified bound holds on every tier: for every row, the f32 GEMV
    /// score lies in `[a − b, a + b]` evaluated in f32, where `a` is the int8
    /// score and `b` the row's bound — on rows spread over twelve orders of
    /// magnitude, constant and zero rows, near-subnormal values, and tiny,
    /// huge and zero queries.
    #[test]
    fn certified_bound_covers_the_f32_score_on_every_tier(
        seed in 0u64..1_000_000,
        n in 1usize..40,
        d in 1usize..70,
        query_scale in 0usize..5,
    ) {
        let mut rnd = stream(seed);
        let mut data = Vec::with_capacity(n * d);
        for j in 0..n {
            let scale = [1.0f32, 1e-3, 1e3, 1e-30, 1e6][j % 5];
            match j % 7 {
                0 => data.extend(std::iter::repeat_n(rnd() * scale, d)),
                1 => data.extend(std::iter::repeat_n(0.0, d)),
                _ => data.extend((0..d).map(|_| rnd() * scale)),
            }
        }
        let w = Matrix::from_vec(n, d, data);
        let qscale = [1.0f32, 0.0, 1e-20, 1e4, 1e-3][query_scale];
        let q: Vec<f32> = (0..d).map(|_| rnd() * qscale).collect();
        let qm = QuantizedMatrix::quantize(&w);
        let qq = QuantizedQuery::quantize(&q);
        let bound = ScoreBound::new(&q, &qq).expect("finite query");
        // A case the bound does not cover would test nothing.
        prop_assert!(bound.covers(&qm), "uncovered case (certifiable = {})", qm.certifiable());
        let mut approx = vec![0.0f32; n];
        quantized_matvec_into_with_tier(KernelTier::Portable, &qm, &qq, &mut approx);
        for tier in all_tiers() {
            let mut exact = vec![0.0f32; n];
            matvec_transposed_into_with_tier(tier, &w, &q, &mut exact);
            for j in 0..n {
                let (a, s) = (approx[j], exact[j]);
                let b = bound.row(qm.errors()[j], qm.l1_norms()[j], a);
                prop_assert!(a - b <= s && s <= a + b, "{} row {}: f32 {} outside {} ± {}", tier, j, s, a, b);
            }
        }
    }

    /// The candidate re-score kernel applies each tier's own `dot` chain:
    /// its outputs are bit-identical to the same rows of that tier's GEMV,
    /// for any row list (repeats and any order included).
    #[test]
    fn dot_rows_into_matches_the_gemv_rows_on_every_tier(
        seed in 0u64..1_000_000,
        n in 1usize..60,
        d in 0usize..90,
        picks in 0usize..40,
    ) {
        let mut rnd = stream(seed);
        let w = Matrix::from_vec(n, d, (0..n * d).map(|_| rnd() * 3.0).collect());
        let q: Vec<f32> = (0..d).map(|_| rnd()).collect();
        let rows: Vec<usize> = (0..picks).map(|_| ((rnd() + 1.0) * 0.5 * n as f32) as usize % n).collect();
        for tier in all_tiers() {
            let mut gemv = vec![0.0f32; n];
            matvec_transposed_into_with_tier(tier, &w, &q, &mut gemv);
            let mut picked = vec![f32::NAN; rows.len()];
            dot_rows_into_with_tier(tier, &w, &rows, &q, &mut picked);
            for (i, &r) in rows.iter().enumerate() {
                prop_assert_eq!(picked[i].to_bits(), gemv[r].to_bits(), "{} pick {} (row {})", tier, i, r);
            }
        }
    }
}

/// Non-finite inputs are never certified: a NaN or infinite row makes the
/// snapshot uncertifiable, and a non-finite query has no bound.
#[test]
fn non_finite_inputs_are_never_certified() {
    let finite = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.0, 1.0, 1.0]]);
    assert!(QuantizedMatrix::quantize(&finite).certifiable());
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let w = Matrix::from_rows(&[&[0.5, bad, 2.0], &[1.0, 1.0, 1.0]]);
        assert!(!QuantizedMatrix::quantize(&w).certifiable(), "row holding {bad}");
        let q = [1.0, bad, 0.5];
        assert!(ScoreBound::new(&q, &QuantizedQuery::quantize(&q)).is_none(), "query holding {bad}");
    }
    // Values whose range overflows f32 have no finite scale.
    let huge = Matrix::from_rows(&[&[f32::MAX, -f32::MAX]]);
    assert!(!QuantizedMatrix::quantize(&huge).certifiable());
}

/// The fused copy-and-quantize build equals quantizing the copied matrix,
/// and its stored row terms bound the true ones from above: the L1 norms
/// and the worst element errors (zero for a row stored exactly).
#[test]
fn quantize_copy_matches_quantize_and_bounds_the_row_terms() {
    let mut rnd = stream(9);
    let (n, d) = (37, 23);
    let mut src: Vec<f32> = (0..n * d).map(|_| rnd() * 4.0).collect();
    src[..d].fill(0.0);
    let (copy, fused) = QuantizedMatrix::quantize_copy(&src, n, d);
    assert_eq!(copy.as_slice(), src.as_slice());
    assert_eq!(fused, QuantizedMatrix::quantize(&copy));
    assert_eq!(fused.errors()[0], 0.0, "a zero row is stored exactly");
    for j in 0..n {
        let exact: f64 = copy.row(j).iter().map(|&v| (v as f64).abs()).sum();
        assert!(fused.l1_norms()[j] as f64 >= exact, "row {j}");
        // The exact dequantization `scale·(p − zp)`, in f64.
        let (scale, zp) = (fused.scale(j) as f64, fused.zero_point(j) as f64);
        for (&v, &p) in copy.row(j).iter().zip(fused.row(j)) {
            let error = (scale * (p as f64 - zp) - v as f64).abs();
            assert!(error <= fused.errors()[j] as f64, "row {j}: {v} off by {error}");
        }
    }
}
