//! The certified int8 scan against one naive oracle.
//!
//! A one-row request reads each panel's int8 snapshot, certifies the rows
//! that can still reach the top-k and re-scores only those in f32. The
//! oracle is the plain f32 path on the *unsharded* matrix: score every row
//! with `matvec_transposed`, rank once with the fused mask+select. Served
//! ids, order and score bits must equal the oracle's for shard counts 1..8,
//! flat and IVF (`nprobe = all`) catalogues, with and without a seen mask —
//! on catalogues built to break a loose bound: duplicate rows and exact
//! ties, near-ties one ulp apart, rows closer than one int8 step, row norms
//! spread 1000x, constant rows, a zero query, widths that are not a
//! multiple of 16, `k` at or past the unseen count and fully seen shards. Non-finite inputs take the f32
//! fallback, which must serve what the f32 per-shard reference serves.

use ham_serve::{merge_top_k, IvfConfig, ScoredItem, ShardedCatalog, PROBE_ALL};
use ham_tensor::ops::{top_k_indices, top_k_indices_masked};
use ham_tensor::Matrix;
use proptest::prelude::*;

/// SplitMix64 stream for the case generator.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// An `n × d` catalogue in one of the adversarial styles.
fn catalogue(style: usize, n: usize, d: usize, rng: &mut Stream) -> Matrix {
    let base: Vec<f32> = (0..d).map(|_| rng.unit()).collect();
    let pool: Vec<Vec<f32>> = (0..3).map(|_| (0..d).map(|_| rng.unit()).collect()).collect();
    let mut data = Vec::with_capacity(n * d);
    for j in 0..n {
        let row: Vec<f32> = match style {
            // Duplicates: every row is one of three, so scores tie exactly.
            0 => pool[rng.below(pool.len())].clone(),
            // Near-ties: the base row with its first element `j` ulps up.
            1 => {
                let mut row = base.clone();
                row[0] = (0..j % 7).fold(row[0], |v, _| v.next_up());
                row
            }
            // Row norms spread 1000x.
            2 => {
                let scale = 1e-3f32.powf(rng.below(1000) as f32 / 999.0);
                (0..d).map(|_| rng.unit() * scale).collect()
            }
            // Constant rows, zero rows among them.
            3 => vec![[0.0, 0.5, -0.25, 1.0][rng.below(4)]; d],
            // Sub-step perturbations of one row: the int8 snapshot cannot
            // order them, only the bound keeps the f32 winners.
            4 => base.iter().map(|&v| v + rng.unit() * 0.004).collect(),
            _ => (0..d).map(|_| rng.unit()).collect(),
        };
        data.extend_from_slice(&row);
    }
    Matrix::from_vec(n, d, data)
}

fn bits(items: &[ScoredItem]) -> Vec<(usize, u32)> {
    items.iter().map(|s| (s.item, s.score.to_bits())).collect()
}

/// The naive oracle: the unsharded f32 GEMV and one fused mask+select.
fn oracle(w: &Matrix, q: &[f32], k: usize, seen: Option<&[bool]>) -> Vec<(usize, u32)> {
    let scores = w.matvec_transposed(q);
    let ids = match seen {
        Some(bits) => top_k_indices_masked(&scores, k, bits),
        None => top_k_indices(&scores, k),
    };
    ids.into_iter()
        .map(|j| {
            let masked = seen.is_some_and(|bits| bits[j]);
            (j, if masked { f32::NEG_INFINITY } else { scores[j] }.to_bits())
        })
        .collect()
}

/// The f32 per-shard reference (the replay path): GEMV per shard, local
/// select, k-way merge — what the fallback must reproduce.
fn f32_shard_reference(catalog: &ShardedCatalog, q: &[f32], k: usize, seen: Option<&[bool]>) -> Vec<(usize, u32)> {
    let lists: Vec<Vec<ScoredItem>> = (0..catalog.num_shards())
        .map(|s| {
            let mut scores = vec![0.0; catalog.shards()[s].len()];
            catalog.shard_scores_into(s, q, &mut scores);
            catalog.shard_top_k(s, &scores, k, seen)
        })
        .collect();
    bits(&merge_top_k(&lists, k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The certification oracle: every configuration serves the oracle's
    /// ids, order and score bits.
    #[test]
    fn certified_scan_serves_the_f32_oracle_bits(
        seed in 0u64..1_000_000,
        style in 0usize..6,
        n in 1usize..2500,
        d in 1usize..41,
        k_mode in 0usize..4,
        mask_mode in 0usize..4,
        zero_query in 0usize..6,
    ) {
        let mut rng = Stream(seed);
        let w = catalogue(style, n, d, &mut rng);
        let q: Vec<f32> = if zero_query == 0 { vec![0.0; d] } else { (0..d).map(|_| rng.unit() * 2.0).collect() };
        let seen: Vec<bool> = match mask_mode {
            1 => (0..n).map(|_| rng.below(3) == 0).collect(),
            // The first half seen: whole shards are fully seen.
            2 => (0..n).map(|j| j < n / 2).collect(),
            3 => vec![true; n],
            _ => vec![false; n],
        };
        let unseen = seen.iter().filter(|&&b| !b).count();
        let k = match k_mode {
            0 => unseen.max(1),
            1 => unseen + 3,
            _ => 1 + rng.below(16),
        };
        let ivf = IvfConfig { clusters: 0, nprobe: PROBE_ALL, iters: 2, seed };
        let wants = [oracle(&w, &q, k, None), oracle(&w, &q, k, Some(&seen))];
        for shards in 1..=8 {
            let flat = ShardedCatalog::from_matrix(&w, shards);
            let clustered = flat.clone().with_cluster_index(&ivf);
            for (catalog, layout) in [(&flat, "flat"), (&clustered, "ivf")] {
                for (want, seen) in wants.iter().zip([None, Some(seen.as_slice())]) {
                    prop_assert_eq!(
                        &bits(&catalog.top_k(&q, k, seen)), want,
                        "{}: style={} n={} d={} k={} shards={} masked={}",
                        layout, style, n, d, k, shards, seen.is_some()
                    );
                }
            }
        }
    }

    /// Non-finite inputs fall back to the f32 GEMV: a NaN query, or a
    /// catalogue row holding a NaN or an infinity, serves exactly what the
    /// f32 per-shard path serves.
    #[test]
    fn non_finite_inputs_fall_back_to_the_f32_path(
        seed in 0u64..1_000_000,
        n in 20usize..200,
        d in 1usize..33,
        shards in 1usize..9,
        case in 0usize..3,
    ) {
        let mut rng = Stream(seed);
        let mut w = catalogue(5, n, d, &mut rng);
        let mut q: Vec<f32> = (0..d).map(|_| rng.unit()).collect();
        match case {
            0 => q[rng.below(d)] = f32::NAN,
            1 => w.set(rng.below(n), rng.below(d), f32::NAN),
            _ => w.set(rng.below(n), rng.below(d), f32::INFINITY),
        }
        let catalog = ShardedCatalog::from_matrix(&w, shards);
        let seen: Vec<bool> = (0..n).map(|_| rng.below(4) == 0).collect();
        for seen in [None, Some(seen.as_slice())] {
            let k = 1 + rng.below(12);
            prop_assert_eq!(
                bits(&catalog.top_k(&q, k, seen)), f32_shard_reference(&catalog, &q, k, seen),
                "case={} n={} d={} shards={} k={}", case, n, d, shards, k
            );
        }
    }
}
