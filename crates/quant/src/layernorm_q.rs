//! Integer / fixed-point layer normalization (paper §III-B, LN Core).
//!
//! The accelerator's LN core is a coarse-grained, 3-stage SIMD pipeline:
//!
//! 1. consume **two** input vectors with their scaling factors (the residual
//!    and the sub-layer output of the `Add & LN` block), produce their sum
//!    and its mean;
//! 2. subtract the mean and compute the variance;
//! 3. apply the element-wise `gamma * (x - mean) / sqrt(var + eps) + beta`
//!    multiplication and requantize to 8-bit.
//!
//! [`QuantizedLayerNorm`] reproduces those three stages with fixed-point
//! arithmetic only ([`Fixed`] values and the Newton–Raphson
//! [`fixed_inv_sqrt`]); `gamma` and `beta` are stored as the 8-bit
//! fixed-point parameters the paper describes.

use crate::fixedpoint::{fixed_inv_sqrt, Fixed};
use crate::{QuantError, Result};

/// Fractional bits used for the internal fixed-point pipeline.
const INTERNAL_FRAC_BITS: u32 = 16;
/// Fractional bits used to store the 8-bit gamma/beta parameters.
const PARAM_FRAC_BITS: u32 = 6;

/// The three scales of one `Add & LN` block — residual input `a`, sub-layer
/// output `b` and the output — folded once into the fixed-point constants
/// the LN core multiplies by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidualScales {
    /// Raw `1 / scale_a` at [`INTERNAL_FRAC_BITS`].
    inv_a: i32,
    /// Raw `1 / scale_b` at [`INTERNAL_FRAC_BITS`].
    inv_b: i32,
    /// `out_scale` at [`INTERNAL_FRAC_BITS`].
    out: Fixed,
}

impl ResidualScales {
    /// Validates and folds the scales (values = code / scale) of the two
    /// int8 inputs and of the int8 output.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScale`] for a scale that is not a
    /// positive finite number.
    // fqlint::allow(float-escape): construction-time boundary — the float
    // scales are checked and folded into fixed-point constants once; the
    // per-row routine that uses them is integer-only.
    pub fn new(scale_a: f32, scale_b: f32, out_scale: f32) -> Result<Self> {
        for &s in &[scale_a, scale_b, out_scale] {
            if !(s.is_finite() && s > 0.0) {
                return Err(QuantError::InvalidScale(s));
            }
        }
        Ok(Self {
            inv_a: Fixed::from_f32(1.0 / scale_a, INTERNAL_FRAC_BITS).raw(),
            inv_b: Fixed::from_f32(1.0 / scale_b, INTERNAL_FRAC_BITS).raw(),
            out: Fixed::from_f32(out_scale, INTERNAL_FRAC_BITS),
        })
    }
}

/// A layer-norm layer whose parameters and arithmetic are fully quantized.
// fqlint::allow(float-escape): `eps` is calibration metadata kept for
// serialization; the row routine reads its fixed-point fold `eps_fixed`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLayerNorm {
    gamma: Vec<i8>,
    beta: Vec<i8>,
    eps: f32,
    /// `max(eps, 2⁻¹⁶)` at [`INTERNAL_FRAC_BITS`], folded at construction.
    eps_fixed: Fixed,
}

/// `x · inv` on the internal grid, for an int8 code `x` and a raw
/// [`INTERNAL_FRAC_BITS`] constant `inv`. This is one exact multiply:
/// `Fixed::from_raw(x, 0).rescale(16).mul(inv)` forms `x·2¹⁶·inv`, whose
/// rounding shift by 16 drops only zero bits, so it equals
/// `clamp_i32(x · inv)`.
fn scale_code(x: i8, inv: i32) -> Fixed {
    let product = i64::from(x) * i64::from(inv);
    Fixed::from_raw(
        product.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32,
        INTERNAL_FRAC_BITS,
    )
}

impl QuantizedLayerNorm {
    /// Quantizes float `gamma`/`beta` parameters into the 8-bit fixed-point
    /// representation used on the accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidArgument`] if the parameter vectors have
    /// different lengths or are empty.
    // fqlint::allow(float-escape): construction-time boundary — float
    // parameters are quantized to 8-bit fixed-point codes once.
    pub fn from_float(gamma: &[f32], beta: &[f32], eps: f32) -> Result<Self> {
        if gamma.len() != beta.len() || gamma.is_empty() {
            return Err(QuantError::InvalidArgument(format!(
                "gamma ({}) and beta ({}) must be equal-length and non-empty",
                gamma.len(),
                beta.len()
            )));
        }
        // fqlint::allow(narrowing-cast): `PARAM_FRAC_BITS` is a bit-shift
        // amount < 32.
        let quantize = |v: f32| -> i8 {
            (v * f32::powi(2.0, PARAM_FRAC_BITS as i32))
                .round()
                .clamp(i8::MIN as f32, i8::MAX as f32) as i8
        };
        Self::from_codes(
            gamma.iter().copied().map(quantize).collect(),
            beta.iter().copied().map(quantize).collect(),
            eps,
        )
    }

    /// Reassembles a layer norm from stored parameter codes (the inverse of
    /// [`QuantizedLayerNorm::gamma_codes`]/[`QuantizedLayerNorm::beta_codes`]
    /// plus [`QuantizedLayerNorm::eps`]), used when loading model artifacts.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidArgument`] if the code vectors have
    /// different lengths or are empty.
    // fqlint::allow(float-escape): load-time boundary — folds the float
    // epsilon into its fixed-point constant once.
    pub fn from_codes(gamma: Vec<i8>, beta: Vec<i8>, eps: f32) -> Result<Self> {
        if gamma.len() != beta.len() || gamma.is_empty() {
            return Err(QuantError::InvalidArgument(format!(
                "gamma ({}) and beta ({}) codes must be equal-length and non-empty",
                gamma.len(),
                beta.len()
            )));
        }
        let eps_fixed = Fixed::from_f32(
            eps.max(1.0 / (1 << INTERNAL_FRAC_BITS) as f32),
            INTERNAL_FRAC_BITS,
        );
        Ok(Self {
            gamma,
            beta,
            eps,
            eps_fixed,
        })
    }

    /// The epsilon added to the variance.
    // fqlint::allow(float-escape): metadata accessor for artifact
    // serialization; not on the per-row path.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Hidden size normalised over.
    pub fn hidden(&self) -> usize {
        self.gamma.len()
    }

    /// The quantized gamma codes (Q2.5 fixed point).
    pub fn gamma_codes(&self) -> &[i8] {
        &self.gamma
    }

    /// The quantized beta codes (Q2.5 fixed point).
    pub fn beta_codes(&self) -> &[i8] {
        &self.beta
    }

    /// Runs the 3-stage `Add & LN` pipeline on two quantized input rows,
    /// writing the int8 output codes into `out` — integer-only and
    /// allocation-free. `a` and `b` are int8 codes (values = code / scale)
    /// at the scales folded into `scales`.
    ///
    /// The stages stream over the inputs three times instead of buffering
    /// the sum: stage 1 accumulates the mean of `a/s_a + b/s_b`, stage 2
    /// the variance around it, and stage 3 the element-wise
    /// `gamma·(x - mean)/sqrt(var + eps) + beta` requantized to the output
    /// scale. Recomputing the sum is two multiplies per element.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidArgument`] if a row length does not
    /// match the parameter length.
    pub fn apply_residual_into(
        &self,
        a: &[i8],
        b: &[i8],
        scales: &ResidualScales,
        out: &mut [i8],
    ) -> Result<()> {
        let hidden = self.hidden();
        if a.len() != hidden || b.len() != hidden || out.len() != hidden {
            return Err(QuantError::InvalidArgument(format!(
                "rows of {} / {} / {} elements do not match hidden size {hidden}",
                a.len(),
                b.len(),
                out.len()
            )));
        }
        let n = hidden as i64;
        let sum = |xa: i8, xb: i8| {
            scale_code(xa, scales.inv_a).saturating_add(scale_code(xb, scales.inv_b))
        };

        // Stage 1: both operands on the shared internal grid, added, and
        // the mean of the sum.
        let total: i64 = a
            .iter()
            .zip(b)
            .map(|(&xa, &xb)| i64::from(sum(xa, xb).raw()))
            .sum();
        // fqlint::allow(narrowing-cast): the mean of `i32`-ranged raw
        // values is itself in `i32` range.
        let mean = Fixed::from_raw((total / n) as i32, INTERNAL_FRAC_BITS);

        // Stage 2: the variance, accumulated in a wide integer with 2·frac
        // bits and renormalised once at the end.
        let var_acc: i64 = a
            .iter()
            .zip(b)
            .map(|(&xa, &xb)| {
                let c = i64::from(sum(xa, xb).saturating_sub(mean).raw());
                c * c
            })
            .sum();
        let var_raw = (var_acc / n) >> INTERNAL_FRAC_BITS;
        let var = Fixed::from_raw(
            var_raw.clamp(0, i64::from(i32::MAX)) as i32,
            INTERNAL_FRAC_BITS,
        );
        let inv_std = fixed_inv_sqrt(var.saturating_add(self.eps_fixed), 20);

        // Stage 3: element-wise gamma/beta and output requantization.
        let params = self.gamma.iter().zip(&self.beta);
        for (((&xa, &xb), (&g, &bt)), o) in a.iter().zip(b).zip(params).zip(out.iter_mut()) {
            let gamma = Fixed::from_raw(i32::from(g), PARAM_FRAC_BITS).rescale(INTERNAL_FRAC_BITS);
            let beta = Fixed::from_raw(i32::from(bt), PARAM_FRAC_BITS).rescale(INTERNAL_FRAC_BITS);
            let centered = sum(xa, xb).saturating_sub(mean);
            let normalised = centered.mul(inv_std).mul(gamma).saturating_add(beta);
            // Round the fixed-point value to the nearest integer code.
            *o = normalised
                .mul(scales.out)
                .rescale(0)
                .raw()
                .clamp(i32::from(i8::MIN), i32::from(i8::MAX)) as i8;
        }
        Ok(())
    }

    /// [`QuantizedLayerNorm::apply_residual_into`] with float scales,
    /// returning a new row: folds the scales, then runs the same integer
    /// routine.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScale`] for non-positive or non-finite
    /// scales, or [`QuantError::InvalidArgument`] if the row lengths do not
    /// match the parameter length.
    // fqlint::allow(float-escape): compatibility wrapper — folds the float
    // scales once per call, then delegates to the integer routine.
    pub fn apply_residual(
        &self,
        a: &[i8],
        scale_a: f32,
        b: &[i8],
        scale_b: f32,
        out_scale: f32,
    ) -> Result<Vec<i8>> {
        let scales = ResidualScales::new(scale_a, scale_b, out_scale)?;
        let mut out = vec![0i8; self.hidden()];
        self.apply_residual_into(a, b, &scales, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqbert_tensor::Tensor;

    fn dequantize(codes: &[i8]) -> Vec<f32> {
        codes
            .iter()
            .map(|&c| c as f32 / f32::powi(2.0, PARAM_FRAC_BITS as i32))
            .collect()
    }

    fn float_layer_norm(x: &[f32], gamma: &[f32], beta: &[f32], eps: f32) -> Vec<f32> {
        let n = x.len() as f32;
        let mean = x.iter().sum::<f32>() / n;
        let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let inv = 1.0 / (var + eps).sqrt();
        x.iter()
            .enumerate()
            .map(|(i, &v)| (v - mean) * inv * gamma[i] + beta[i])
            .collect()
    }

    #[test]
    fn parameters_roundtrip_within_fixed_point_step() {
        let gamma = vec![1.0f32, 0.5, -1.25, 2.0];
        let beta = vec![0.1f32, -0.3, 0.0, 1.5];
        let ln = QuantizedLayerNorm::from_float(&gamma, &beta, 1e-5).unwrap();
        for (a, b) in gamma.iter().zip(dequantize(ln.gamma_codes()).iter()) {
            assert!((a - b).abs() <= 1.0 / 32.0 + 1e-6);
        }
        for (a, b) in beta.iter().zip(dequantize(ln.beta_codes()).iter()) {
            assert!((a - b).abs() <= 1.0 / 32.0 + 1e-6);
        }
    }

    #[test]
    fn matches_float_reference_on_residual_add() {
        let hidden = 32;
        let mut rng = fqbert_tensor::RngSource::seed_from_u64(5);
        let a_f = rng.normal_tensor(&[hidden], 0.0, 1.0);
        let b_f = rng.normal_tensor(&[hidden], 0.0, 1.0);
        let gamma: Vec<f32> = (0..hidden).map(|i| 0.8 + 0.01 * i as f32).collect();
        let beta: Vec<f32> = (0..hidden).map(|i| -0.2 + 0.01 * i as f32).collect();
        let ln = QuantizedLayerNorm::from_float(&gamma, &beta, 1e-5).unwrap();

        // Quantize the inputs to int8.
        let scale_a = 127.0 / a_f.abs_max().unwrap();
        let scale_b = 127.0 / b_f.abs_max().unwrap();
        let a_q: Vec<i8> = a_f
            .as_slice()
            .iter()
            .map(|&v| (v * scale_a).round() as i8)
            .collect();
        let b_q: Vec<i8> = b_f
            .as_slice()
            .iter()
            .map(|&v| (v * scale_b).round() as i8)
            .collect();

        let out_scale = 32.0;
        let out = ln
            .apply_residual(&a_q, scale_a, &b_q, scale_b, out_scale)
            .unwrap();

        let sum: Vec<f32> = a_f
            .as_slice()
            .iter()
            .zip(b_f.as_slice())
            .map(|(&x, &y)| x + y)
            .collect();
        let reference = float_layer_norm(
            &sum,
            &dequantize(ln.gamma_codes()),
            &dequantize(ln.beta_codes()),
            1e-5,
        );
        let mut max_err = 0.0f32;
        for (o, r) in out.iter().zip(reference.iter()) {
            let approx = *o as f32 / out_scale;
            max_err = max_err.max((approx - r).abs());
        }
        assert!(
            max_err < 0.15,
            "quantized layer norm deviates from reference by {max_err}"
        );
    }

    #[test]
    fn single_input_normalisation_has_near_zero_mean() {
        let hidden = 64;
        let mut rng = fqbert_tensor::RngSource::seed_from_u64(6);
        let x_f = rng.normal_tensor(&[hidden], 3.0, 2.0);
        let gamma = vec![1.0f32; hidden];
        let beta = vec![0.0f32; hidden];
        let ln = QuantizedLayerNorm::from_float(&gamma, &beta, 1e-5).unwrap();
        let scale_x = 127.0 / x_f.abs_max().unwrap();
        let x_q: Vec<i8> = x_f
            .as_slice()
            .iter()
            .map(|&v| (v * scale_x).round() as i8)
            .collect();
        let zeros = vec![0i8; hidden];
        let out = ln.apply_residual(&x_q, scale_x, &zeros, 1.0, 32.0).unwrap();
        let vals =
            Tensor::from_vec(out.iter().map(|&c| c as f32 / 32.0).collect(), &[hidden]).unwrap();
        assert!(vals.mean().unwrap().abs() < 0.1);
        let var = vals.map(|v| v * v).mean().unwrap();
        assert!((var - 1.0).abs() < 0.2, "variance {var} should be near 1");
    }

    #[test]
    fn input_validation() {
        let ln = QuantizedLayerNorm::from_float(&[1.0, 1.0], &[0.0, 0.0], 1e-5).unwrap();
        assert!(ln
            .apply_residual(&[1, 2, 3], 1.0, &[0; 3], 1.0, 1.0)
            .is_err());
        assert!(ln.apply_residual(&[1, 2], 0.0, &[0; 2], 1.0, 1.0).is_err());
        assert!(ln.apply_residual(&[1, 2], 1.0, &[0; 2], 1.0, -1.0).is_err());
        assert!(ln
            .apply_residual(&[1, 2], 1.0, &[0; 2], f32::NAN, 1.0)
            .is_err());
        let scales = ResidualScales::new(1.0, 1.0, 1.0).unwrap();
        assert!(ln
            .apply_residual_into(&[1, 2], &[0; 2], &scales, &mut [0; 3])
            .is_err());
        assert!(ResidualScales::new(1.0, f32::INFINITY, 1.0).is_err());
        assert!(QuantizedLayerNorm::from_float(&[1.0], &[0.0, 0.0], 1e-5).is_err());
        assert!(QuantizedLayerNorm::from_float(&[], &[], 1e-5).is_err());
    }
}
