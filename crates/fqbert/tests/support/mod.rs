//! Reference datapath of one integer encoder layer, kept only to be
//! compared against.
//!
//! This is the layer as it ran before attention moved onto the packed GEMM
//! kernels: per-head block copies, `matmul_transposed_i32` with `i64`
//! accumulators, a per-element `i128` `Requantizer::apply`, a buffered
//! softmax row, a scalar Attn·V triple loop, and an `Add & LN` that converts
//! its float scales on every row. Projections use `IntLinear::forward_naive`
//! (the `matmul_i32` + scalar requantize oracle). Every derived parameter is
//! rebuilt from the layer's public scales exactly as the layer builds it.

use fqbert_core::int_model::IntGelu;
use fqbert_core::IntEncoderLayer;
use fqbert_quant::fixedpoint::{fixed_inv_sqrt, Fixed};
use fqbert_quant::{QuantizedLayerNorm, Requantizer, SoftmaxLut};
use fqbert_tensor::IntTensor;

/// Output levels of the attention probabilities.
pub const PROB_LEVELS: u32 = 255;

/// Fractional bits of the LN core's internal grid.
const INTERNAL_FRAC_BITS: u32 = 16;
/// Fractional bits of the stored gamma/beta codes.
const PARAM_FRAC_BITS: u32 = 6;

/// What the reference saw inside attention, so tests can prove they reached
/// the corner cases they claim to cover.
#[derive(Debug, Default, Clone, Copy)]
pub struct Coverage {
    /// A requantized score hit the ±127 bound.
    pub saturated_score: bool,
    /// A probability code reached `PROB_LEVELS`.
    pub full_probability: bool,
}

/// Extracts rows `[r0, r1)` × columns `[c0, c1)` of an int8 matrix.
fn slice_block_i8(x: &IntTensor<i8>, r0: usize, r1: usize, c0: usize, c1: usize) -> IntTensor<i8> {
    let width = c1 - c0;
    let mut out = IntTensor::<i8>::zeros(&[r1 - r0, width]);
    for r in r0..r1 {
        out.as_mut_slice()[(r - r0) * width..(r - r0 + 1) * width]
            .copy_from_slice(&x.row(r)[c0..c1]);
    }
    out
}

/// The softmax row with buffered numerators.
pub fn softmax_row(lut: &SoftmaxLut, scores: &[i32]) -> Vec<i32> {
    let Some(&max) = scores.iter().max() else {
        return Vec::new();
    };
    let numerators: Vec<u32> = scores
        .iter()
        .map(|&s| lut.exp_lookup(i64::from(max) - i64::from(s)))
        .collect();
    let denom = numerators.iter().map(|&n| u64::from(n)).sum::<u64>().max(1);
    numerators
        .iter()
        .map(|&n| ((u64::from(n) * u64::from(lut.out_levels()) + denom / 2) / denom) as i32)
        .collect()
}

/// The 3-stage `Add & LN` with per-row scale conversion and buffers.
pub fn add_ln(
    ln: &QuantizedLayerNorm,
    a: &[i8],
    scale_a: f32,
    b: &[i8],
    scale_b: f32,
    out_scale: f32,
) -> Vec<i8> {
    let n = ln.hidden() as i64;
    let inv_a = Fixed::from_f32(1.0 / scale_a, INTERNAL_FRAC_BITS);
    let inv_b = Fixed::from_f32(1.0 / scale_b, INTERNAL_FRAC_BITS);
    let mut summed = Vec::with_capacity(a.len());
    let mut total: i64 = 0;
    for (&xa, &xb) in a.iter().zip(b) {
        let va = Fixed::from_raw(i32::from(xa), 0)
            .rescale(INTERNAL_FRAC_BITS)
            .mul(inv_a);
        let vb = Fixed::from_raw(i32::from(xb), 0)
            .rescale(INTERNAL_FRAC_BITS)
            .mul(inv_b);
        let v = va.saturating_add(vb);
        total += i64::from(v.raw());
        summed.push(v);
    }
    let mean = Fixed::from_raw((total / n) as i32, INTERNAL_FRAC_BITS);
    let mut centered = Vec::with_capacity(a.len());
    let mut var_acc: i64 = 0;
    for v in &summed {
        let c = v.saturating_sub(mean);
        var_acc += i64::from(c.raw()) * i64::from(c.raw());
        centered.push(c);
    }
    let var_raw = (var_acc / n) >> INTERNAL_FRAC_BITS;
    let var = Fixed::from_raw(
        var_raw.clamp(0, i64::from(i32::MAX)) as i32,
        INTERNAL_FRAC_BITS,
    );
    let eps_fixed = Fixed::from_f32(
        ln.eps().max(1.0 / (1 << INTERNAL_FRAC_BITS) as f32),
        INTERNAL_FRAC_BITS,
    );
    let inv_std = fixed_inv_sqrt(var.saturating_add(eps_fixed), 20);
    let out_scale_fixed = Fixed::from_f32(out_scale, INTERNAL_FRAC_BITS);
    centered
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let gamma = Fixed::from_raw(i32::from(ln.gamma_codes()[i]), PARAM_FRAC_BITS)
                .rescale(INTERNAL_FRAC_BITS);
            let beta = Fixed::from_raw(i32::from(ln.beta_codes()[i]), PARAM_FRAC_BITS)
                .rescale(INTERNAL_FRAC_BITS);
            let normalised = c.mul(inv_std).mul(gamma).saturating_add(beta);
            normalised
                .mul(out_scale_fixed)
                .rescale(0)
                .raw()
                .clamp(i8::MIN as i32, i8::MAX as i32) as i8
        })
        .collect()
}

/// The reference forward pass of `layer` over sequences packed row-wise in
/// `x`, plus what its attention covered.
pub fn forward(
    layer: &IntEncoderLayer,
    x: &IntTensor<i8>,
    seq_lens: &[usize],
) -> (IntTensor<i8>, Coverage) {
    let s = layer.scales();
    let (total, hidden) = x.as_matrix_dims().expect("matrix input");
    let heads = layer.heads();
    let head_dim = hidden / heads;
    let score_requant = Requantizer::from_scale(
        f64::from(s.scores) / (f64::from(s.q) * f64::from(s.k) * (head_dim as f64).sqrt()),
        8,
    )
    .expect("score requantizer");
    let softmax = SoftmaxLut::new(s.scores, PROB_LEVELS).expect("softmax LUT");
    let context_requant =
        Requantizer::from_scale(1.0 / f64::from(PROB_LEVELS), 8).expect("context requantizer");
    let q = layer.query.forward_naive(x).expect("query");
    let k = layer.key.forward_naive(x).expect("key");
    let v = layer.value.forward_naive(x).expect("value");

    let mut coverage = Coverage::default();
    let mut context = IntTensor::<i8>::zeros(&[total, hidden]);
    let mut start = 0usize;
    for &seq in seq_lens {
        let end = start + seq;
        for h in 0..heads {
            let lo = h * head_dim;
            let hi = lo + head_dim;
            let qh = slice_block_i8(&q, start, end, lo, hi);
            let kh = slice_block_i8(&k, start, end, lo, hi);
            let vh = slice_block_i8(&v, start, end, lo, hi);
            let score_acc = qh.matmul_transposed_i32(&kh).expect("scores");
            let scores: Vec<i32> = score_acc
                .as_slice()
                .iter()
                .map(|&acc| score_requant.apply(i64::from(acc)))
                .collect();
            coverage.saturated_score |= scores.iter().any(|s| s.abs() == 127);
            let probs: Vec<i32> = scores
                .chunks(seq)
                .flat_map(|row| softmax_row(&softmax, row))
                .collect();
            coverage.full_probability |= probs.contains(&(PROB_LEVELS as i32));
            for i in 0..seq {
                for d in 0..head_dim {
                    let mut acc: i64 = 0;
                    for j in 0..seq {
                        acc += i64::from(probs[i * seq + j]) * i64::from(vh.row(j)[d]);
                    }
                    let code = context_requant.apply(acc).clamp(-127, 127) as i8;
                    context.as_mut_slice()[(start + i) * hidden + lo + d] = code;
                }
            }
        }
        start = end;
    }

    let attn_out = layer.attn_output.forward_naive(&context).expect("attn out");
    let mut normed = IntTensor::<i8>::zeros(&[total, hidden]);
    for i in 0..total {
        let row = add_ln(
            layer.attn_layer_norm(),
            x.row(i),
            s.input,
            attn_out.row(i),
            s.attn_output,
            s.layer_norm,
        );
        normed.as_mut_slice()[i * hidden..(i + 1) * hidden].copy_from_slice(&row);
    }
    let ffn_pre = layer.ffn1.forward_naive(&normed).expect("ffn1");
    let ffn_hidden = IntGelu::new(s.ffn_hidden, s.ffn_hidden).apply_tensor(&ffn_pre);
    let ffn_out = layer.ffn2.forward_naive(&ffn_hidden).expect("ffn2");
    let mut out = IntTensor::<i8>::zeros(&[total, hidden]);
    for i in 0..total {
        let row = add_ln(
            layer.ffn_layer_norm(),
            normed.row(i),
            s.layer_norm,
            ffn_out.row(i),
            s.ffn_output,
            s.layer_norm,
        );
        out.as_mut_slice()[i * hidden..(i + 1) * hidden].copy_from_slice(&row);
    }
    (out, coverage)
}
