//! Pins the integer encoder layer — attention on the packed GEMM kernels,
//! the allocation-free softmax row and the folded `Add & LN` — bit for bit
//! to the reference datapath in `support/`, under every GEMM kernel this
//! host can run.
//!
//! Shapes cover 1, 2 and 4 heads; odd head widths and widths that are not a
//! multiple of the kernels' `NR`-column panel; and batches mixing sequence
//! lengths 1, `MR ± 1`, `NR ± 1` and 128. Dedicated cases drive the scores
//! into ±127 saturation and give one key a probability code of 255, and
//! assert the reference really reached those corners.
//!
//! Kernel selection is process-global, so every test that forces a kernel
//! holds [`kernel_lock`] and restores the auto-detected default.

mod support;

use fqbert_bert::layers::EncoderLayerParams;
use fqbert_core::int_model::LayerScales;
use fqbert_core::{IntEncoderLayer, IntLinear};
use fqbert_quant::{QuantizedLayerNorm, ResidualScales, SoftmaxLut};
use fqbert_tensor::gemm::kernels;
use fqbert_tensor::gemm::{GemmScratch, MR, NR};
use fqbert_tensor::{IntTensor, RngSource};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use support::Coverage;

fn kernel_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

const HEADS: [usize; 3] = [1, 2, 4];
/// Odd widths, widths off the `NR` panel grid, and one on it.
const HEAD_DIMS: [usize; 6] = [1, 3, 7, 16, NR - 1, NR + 1];
const SEQ_LENS: [usize; 8] = [1, 2, MR - 1, MR + 1, NR - 1, NR, NR + 1, 128];
/// Score scales from coarse to saturating.
const SCORE_SCALES: [f32; 4] = [0.5, 4.0, 16.0, 2000.0];

fn scales(scores: f32) -> LayerScales {
    LayerScales {
        input: 16.0,
        q: 12.0,
        k: 12.0,
        v: 20.0,
        scores,
        attn_output: 24.0,
        layer_norm: 32.0,
        ffn_hidden: 16.0,
        ffn_output: 24.0,
    }
}

/// A layer of random float weights at `weight_bits`. With `identity_qk`
/// the query and key projections are replaced by the identity, so
/// `Q = K = X` and the input alone decides which key dominates.
fn layer(
    seed: u64,
    heads: usize,
    head_dim: usize,
    weight_bits: u32,
    scores: f32,
    identity_qk: bool,
) -> IntEncoderLayer {
    let hidden = heads * head_dim;
    let mut rng = RngSource::seed_from_u64(seed);
    let params = EncoderLayerParams::new(&mut rng, hidden, hidden + 3);
    let s = scales(scores);
    let layer = IntEncoderLayer::from_float(&params, heads, head_dim, weight_bits, false, &s, 1e-5)
        .expect("layer");
    if !identity_qk {
        return layer;
    }
    let eye: Vec<i8> = (0..hidden * hidden)
        .map(|i| i8::from(i / hidden == i % hidden))
        .collect();
    let eye = IntTensor::from_vec(eye, &[hidden, hidden]).expect("identity");
    let identity =
        IntLinear::from_quantized(eye, IntTensor::zeros(&[hidden]), 1.0, s.input, s.input, 8)
            .expect("identity projection");
    let s = LayerScales {
        q: s.input,
        k: s.input,
        ..s
    };
    IntEncoderLayer::from_quantized_parts(
        identity.clone(),
        identity,
        layer.value.clone(),
        layer.attn_output.clone(),
        layer.ffn1.clone(),
        layer.ffn2.clone(),
        heads,
        head_dim,
        &s,
        layer.attn_layer_norm().clone(),
        layer.ffn_layer_norm().clone(),
    )
    .expect("identity-QK layer")
}

/// Input codes for `total` rows of `hidden` drawn cyclically from `seed`.
fn input(seed: &[i8], total: usize, hidden: usize) -> IntTensor<i8> {
    let data = (0..total * hidden).map(|i| seed[i % seed.len()]).collect();
    IntTensor::from_vec(data, &[total, hidden]).expect("input")
}

/// Runs the layer on every available kernel and asserts each output equals
/// the reference; returns the reference's coverage.
fn assert_matches_reference(
    layer: &IntEncoderLayer,
    x: &IntTensor<i8>,
    seq_lens: &[usize],
) -> Coverage {
    let (expected, coverage) = support::forward(layer, x, seq_lens);
    let _guard = kernel_lock();
    // One scratch across kernels and calls, as a serving worker keeps it.
    let mut scratch = GemmScratch::new();
    for kind in kernels::available() {
        assert_eq!(kernels::force(kind), kind);
        let got = layer
            .forward_batch_with_scratch(x, seq_lens, &mut scratch)
            .expect("forward");
        assert_eq!(
            got,
            expected,
            "layer diverges from the reference on {} (heads {}, seq_lens {seq_lens:?})",
            kind.name(),
            layer.heads()
        );
    }
    kernels::force(kernels::best_available());
    coverage
}

proptest! {
    #[test]
    fn layer_matches_reference_on_every_kernel(
        heads_at in 0usize..HEADS.len(),
        dim_at in 0usize..HEAD_DIMS.len(),
        lens_at in proptest::collection::vec(0usize..SEQ_LENS.len(), 1..4),
        scale_at in 0usize..SCORE_SCALES.len(),
        w4 in 0u8..2,
        seed in 0u64..1_000,
        codes in proptest::collection::vec(-127i8..=127, 1..97),
    ) {
        let (heads, head_dim) = (HEADS[heads_at], HEAD_DIMS[dim_at]);
        let seq_lens: Vec<usize> = lens_at.iter().map(|&i| SEQ_LENS[i]).collect();
        let bits = if w4 == 1 { 4 } else { 8 };
        let layer = layer(seed, heads, head_dim, bits, SCORE_SCALES[scale_at], false);
        let total = seq_lens.iter().sum();
        let x = input(&codes, total, heads * head_dim);
        assert_matches_reference(&layer, &x, &seq_lens);
    }

    #[test]
    fn softmax_row_matches_reference(
        scores in proptest::collection::vec(-400i32..400, 0..150),
        scale in 0.25f32..64.0,
    ) {
        let lut = SoftmaxLut::new(scale, support::PROB_LEVELS).expect("lut");
        let expected = support::softmax_row(&lut, &scores);
        prop_assert_eq!(lut.apply_row(&scores), expected.clone());
        let narrow: Vec<i8> = scores.iter().map(|&s| s.clamp(-127, 127) as i8).collect();
        let wide: Vec<i32> = narrow.iter().map(|&s| i32::from(s)).collect();
        let mut probs = vec![0u8; narrow.len()];
        lut.apply_row_into(&narrow, &mut probs);
        let probs: Vec<i32> = probs.iter().map(|&p| i32::from(p)).collect();
        prop_assert_eq!(probs, support::softmax_row(&lut, &wide));
    }

    #[test]
    fn add_ln_matches_reference(
        a in proptest::collection::vec(-128i8..=127, 1..80),
        b_seed in proptest::collection::vec(-128i8..=127, 1..80),
        params in proptest::collection::vec(-128i8..=127, 2..40),
        scale_a in 0.05f32..300.0,
        scale_b in 0.05f32..300.0,
        out_scale in 0.05f32..300.0,
    ) {
        let hidden = a.len();
        let b: Vec<i8> = (0..hidden).map(|i| b_seed[i % b_seed.len()]).collect();
        let gamma: Vec<i8> = (0..hidden).map(|i| params[i % params.len()]).collect();
        let beta: Vec<i8> = (0..hidden).map(|i| params[(i + 1) % params.len()]).collect();
        let ln = QuantizedLayerNorm::from_codes(gamma, beta, 1e-5).expect("ln");
        let expected = support::add_ln(&ln, &a, scale_a, &b, scale_b, out_scale);
        let folded = ResidualScales::new(scale_a, scale_b, out_scale).expect("scales");
        let mut out = vec![0i8; hidden];
        ln.apply_residual_into(&a, &b, &folded, &mut out).expect("in place");
        prop_assert_eq!(&out, &expected);
        prop_assert_eq!(
            ln.apply_residual(&a, scale_a, &b, scale_b, out_scale).expect("wrapper"),
            expected
        );
    }
}

#[test]
fn saturated_scores_match_reference() {
    let seq_lens = [NR + 1, 1, 128, MR - 1];
    let mut covered = false;
    for (heads, head_dim) in [(1, NR + 1), (2, 7), (4, 3)] {
        let layer = layer(5, heads, head_dim, 4, 2000.0, false);
        let codes: Vec<i8> = (0..97).map(|i| ((i * 53) % 255 - 127) as i8).collect();
        let x = input(&codes, seq_lens.iter().sum(), heads * head_dim);
        covered |= assert_matches_reference(&layer, &x, &seq_lens).saturated_score;
    }
    assert!(covered, "no score reached the ±127 bound");
}

#[test]
fn dominant_key_matches_reference() {
    let seq_lens = [MR + 1, NR - 1, 128];
    for (heads, head_dim) in [(1, 16), (2, NR + 1), (4, 7)] {
        let hidden = heads * head_dim;
        let layer = layer(9, heads, head_dim, 8, 4.0, true);
        // Small non-negative tokens, and one token per sequence whose
        // codes are all large: its key outscores every other key for
        // every query.
        let total: usize = seq_lens.iter().sum();
        let mut x = input(&[0, 3, 1, 5, 2, 4, 6, 1, 8], total, hidden);
        let mut start = 0;
        for &seq in &seq_lens {
            let dominant = start + seq / 2;
            x.as_mut_slice()[dominant * hidden..(dominant + 1) * hidden].fill(100);
            start += seq;
        }
        let coverage = assert_matches_reference(&layer, &x, &seq_lens);
        assert!(
            coverage.full_probability,
            "no probability code reached {} for heads {heads}",
            support::PROB_LEVELS
        );
    }
}
