//! Property tests pinning the blocked int8 GEMM kernel to the naive
//! `matmul_i32` + scalar epilogue path: same shapes, same accumulators, same
//! fused outputs, across random shapes including non-multiple-of-block
//! dimensions, empty matrices and int4-range weights — and, since the SIMD
//! dispatch landed, across **every kernel available on this host**
//! (scalar/sse2/avx2/neon × wide/int4-nibble panels), for both activation
//! operand types (`i8` codes and the `u8` probability codes attention
//! feeds in) read and written through strided row views.
//!
//! Kernel selection is process-global, so tests that force a kernel
//! serialise on [`kernel_lock`] and restore the auto-detected default
//! before releasing it. (Even a mid-test switch would be benign — every
//! kernel is bit-identical — but serialising keeps each run's coverage
//! deterministic.)

use fqbert_tensor::gemm::kernels::{self, KernelKind};
use fqbert_tensor::gemm::{
    gemm_i32_into, gemm_i8_fused, gemm_i8_i32, gemm_i8_requant, gemm_requant_into, ActCode,
    GemmScratch, PackedWeights, RequantParams, StridedRows, StridedRowsMut, MAX_K, MR, NR,
};
use fqbert_tensor::{pack4, IntTensor};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

fn kernel_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn i8_full() -> impl Strategy<Value = i8> {
    -128i8..=127
}

fn i4() -> impl Strategy<Value = i8> {
    -8i8..=7
}

fn i2() -> impl Strategy<Value = i8> {
    -2i8..=1
}

/// `rows × cols` codes cycled from `seed`, laid out `stride ≥ cols` apart
/// with `pad` filler codes in every gap, so a strided view that reads past
/// its columns picks up wrong values.
fn strided_codes<T: Copy>(seed: &[T], pad: T, rows: usize, cols: usize, stride: usize) -> Vec<T> {
    let mut data = vec![pad; rows * stride];
    for r in 0..rows {
        for c in 0..cols {
            data[r * stride + c] = seed[(r * cols + c) % seed.len()];
        }
    }
    data
}

/// The naive `i64` reduction of `x · w` over a strided activation view.
fn naive_i32<T: Copy + Into<i16>>(x: &StridedRows<'_, T>, w: &IntTensor<i8>) -> Vec<i32> {
    let n = w.dims()[1];
    let mut out = Vec::with_capacity(x.rows() * n);
    for r in 0..x.rows() {
        for c in 0..n {
            let acc: i64 = x
                .row(r)
                .iter()
                .enumerate()
                .map(|(kk, &a)| i64::from(a.into()) * i64::from(w.row(kk)[c]))
                .sum();
            out.push(i32::try_from(acc).expect("exact sums fit i32"));
        }
    }
    out
}

/// Runs [`gemm_i32_into`] into an output with `out_gap` sentinel elements
/// after every row and asserts the naive sums land in the block while the
/// gaps stay untouched.
fn assert_strided_i32<T: ActCode>(
    x: StridedRows<'_, T>,
    packed: &PackedWeights,
    w: &IntTensor<i8>,
    out_gap: usize,
    scratch: &mut GemmScratch,
) {
    let (m, n) = (x.rows(), packed.n());
    let stride = n + out_gap;
    let mut out = vec![-7i32; m * stride];
    let view = StridedRowsMut::new(&mut out, m, n, stride).expect("out view");
    gemm_i32_into(x, packed, scratch, view).expect("gemm");
    let what = (
        kernels::selected().name,
        packed.is_nibble(),
        std::any::type_name::<T>(),
    );
    assert_eq!(
        unstride(&out, m, n, stride),
        naive_i32(&x, w),
        "diverges: {what:?}"
    );
    for r in 0..m {
        assert!(
            out[r * stride + n..(r + 1) * stride]
                .iter()
                .all(|&v| v == -7),
            "wrote into a row gap: {what:?}"
        );
    }
}

/// Reads the `rows × cols` block of a strided output buffer.
fn unstride<T: Copy>(data: &[T], rows: usize, cols: usize, stride: usize) -> Vec<T> {
    (0..rows)
        .flat_map(|r| data[r * stride..r * stride + cols].iter().copied())
        .collect()
}

fn build(seed: &[i8], rows: usize, cols: usize) -> IntTensor<i8> {
    let data: Vec<i8> = (0..rows * cols)
        .map(|i| {
            if seed.is_empty() {
                0
            } else {
                seed[i % seed.len()]
            }
        })
        .collect();
    IntTensor::from_vec(data, &[rows, cols]).expect("shape")
}

proptest! {
    #[test]
    fn blocked_accumulators_match_naive_matmul(
        m in 0usize..33,
        k in 0usize..70,
        n in 0usize..50,
        seed_x in proptest::collection::vec(i8_full(), 1..64),
        seed_w in proptest::collection::vec(i8_full(), 1..64),
    ) {
        let x = build(&seed_x, m, k);
        let w = build(&seed_w, k, n);
        let packed = PackedWeights::pack(&w).expect("pack");
        let mut scratch = GemmScratch::new();
        let blocked = gemm_i8_i32(&x, &packed, &mut scratch).expect("blocked");
        let naive = x.matmul_i32(&w).expect("naive");
        prop_assert_eq!(blocked, naive);
    }

    #[test]
    fn blocked_kernel_is_exact_for_int4_weights(
        m in 1usize..20,
        k in 1usize..120,
        n in 1usize..40,
        seed_x in proptest::collection::vec(i8_full(), 1..64),
        seed_w in proptest::collection::vec(i4(), 1..64),
    ) {
        let x = build(&seed_x, m, k);
        let w = build(&seed_w, k, n);
        let packed = PackedWeights::pack(&w).expect("pack");
        let mut scratch = GemmScratch::new();
        let blocked = gemm_i8_i32(&x, &packed, &mut scratch).expect("blocked");
        let naive = x.matmul_i32(&w).expect("naive");
        prop_assert_eq!(blocked, naive);
    }

    // The tentpole property: every kernel available on this host produces
    // accumulators bit-identical to the naive reduction, over both wide
    // `i16` panels (int8 weights) and direct-compute nibble panels (int4
    // and int2 weight codes), across shapes with odd-k remainders and
    // partial row/column tiles.
    #[test]
    fn every_available_kernel_is_bit_identical_to_naive(
        m in 0usize..18,
        k in 0usize..80,
        n in 0usize..70,
        seed_x in proptest::collection::vec(i8_full(), 1..64),
        seed_w8 in proptest::collection::vec(i8_full(), 1..64),
        seed_w4 in proptest::collection::vec(i4(), 1..64),
        seed_w2 in proptest::collection::vec(i2(), 1..64),
    ) {
        let _guard = kernel_lock();
        let x = build(&seed_x, m, k);
        let w8 = build(&seed_w8, k, n);
        let w4 = build(&seed_w4, k, n);
        let w2 = build(&seed_w2, k, n);
        let wide = PackedWeights::pack(&w8).expect("pack wide");
        let nib4 = PackedWeights::pack_nibble(&w4).expect("pack nibble w4");
        let nib2 = PackedWeights::pack_nibble(&w2).expect("pack nibble w2");
        let naive8 = x.matmul_i32(&w8).expect("naive w8");
        let naive4 = x.matmul_i32(&w4).expect("naive w4");
        let naive2 = x.matmul_i32(&w2).expect("naive w2");
        let mut scratch = GemmScratch::new();
        for kind in kernels::available() {
            prop_assert_eq!(kernels::force(kind), kind);
            let name = kind.name();
            let got8 = gemm_i8_i32(&x, &wide, &mut scratch).expect("wide gemm");
            prop_assert_eq!(&got8, &naive8, "wide panels diverge on {}", name);
            let got4 = gemm_i8_i32(&x, &nib4, &mut scratch).expect("nibble w4 gemm");
            prop_assert_eq!(&got4, &naive4, "int4 nibble panels diverge on {}", name);
            let got2 = gemm_i8_i32(&x, &nib2, &mut scratch).expect("nibble w2 gemm");
            prop_assert_eq!(&got2, &naive2, "int2 nibble panels diverge on {}", name);
        }
        kernels::force(kernels::best_available());
    }

    // The same property for the other operand shapes the driver accepts:
    // `i8` and `u8` activations (the full `0..=255` probability range) read
    // through strided views with a gap after every row, accumulators
    // written through a strided output view, over wide and nibble panels.
    #[test]
    fn every_kernel_is_exact_for_u8_and_strided_operands(
        m in 0usize..18,
        k in 0usize..80,
        n in 0usize..70,
        x_gap in 0usize..5,
        out_gap in 0usize..5,
        seed_x in proptest::collection::vec(i8_full(), 1..64),
        seed_p in proptest::collection::vec(0u8..=255, 1..64),
        seed_w8 in proptest::collection::vec(i8_full(), 1..64),
        seed_w4 in proptest::collection::vec(i4(), 1..64),
    ) {
        let _guard = kernel_lock();
        let w8 = build(&seed_w8, k, n);
        let w4 = build(&seed_w4, k, n);
        let panels = [
            (PackedWeights::pack(&w8).expect("pack wide"), &w8),
            (PackedWeights::pack_nibble(&w4).expect("pack nibble"), &w4),
        ];
        let x_stride = k + x_gap;
        let x_i8 = strided_codes(&seed_x, 99, m, k, x_stride);
        let x_u8 = strided_codes(&seed_p, 201, m, k, x_stride);
        let x_i8 = StridedRows::new(&x_i8, m, k, x_stride).expect("i8 view");
        let x_u8 = StridedRows::new(&x_u8, m, k, x_stride).expect("u8 view");
        let mut scratch = GemmScratch::new();
        for kind in kernels::available() {
            kernels::force(kind);
            for (packed, w) in &panels {
                assert_strided_i32(x_i8, packed, w, out_gap, &mut scratch);
                assert_strided_i32(x_u8, packed, w, out_gap, &mut scratch);
            }
        }
        kernels::force(kernels::best_available());
    }

    // Panels packed from strided rows — `W = src` and `W = srcᵀ` — equal
    // the panels of the copied-out matrix, and the fused requantize GEMM
    // over a `u8` operand writes exactly the scalar reference's codes into
    // a strided destination.
    #[test]
    fn strided_panels_and_u8_requant_match_reference(
        rows in 0usize..40,
        cols in 0usize..40,
        gap in 0usize..4,
        m in 1usize..9,
        seed in proptest::collection::vec(i8_full(), 1..64),
        seed_p in proptest::collection::vec(0u8..=255, 1..64),
        multiplier in 0i64..=(1i64 << 30),
        shift in 0i32..=40,
    ) {
        let _guard = kernel_lock();
        let stride = cols + gap;
        let data = strided_codes(&seed, -3, rows, cols, stride);
        let src = StridedRows::new(&data, rows, cols, stride).expect("view");
        let copy = build(&seed, rows, cols);
        let transposed = IntTensor::from_vec(
            (0..cols * rows).map(|i| copy.row(i % rows)[i / rows]).collect(),
            &[cols, rows],
        )
        .expect("transpose");
        let mut as_rows = PackedWeights::default();
        as_rows.repack_rows(src).expect("repack rows");
        prop_assert_eq!(&as_rows, &PackedWeights::pack(&copy).expect("pack"));
        let mut as_columns = PackedWeights::pack_nibble(&build(&[1], 2, 2)).expect("nibble");
        as_columns.repack_columns(src).expect("repack columns");
        prop_assert_eq!(&as_columns, &PackedWeights::pack(&transposed).expect("pack ᵀ"));

        // probs (m × rows, u8) · W (rows × cols), requantized.
        let params = RequantParams { multiplier, shift, clamp: 127 };
        let probs = strided_codes(&seed_p, 0, m, rows, rows);
        let probs = StridedRows::new(&probs, m, rows, rows).expect("probs");
        let bias = vec![0i32; cols];
        let mut expected = vec![0i8; m * cols];
        let acc = naive_i32(&probs, &copy);
        for r in 0..m {
            kernels::scalar::requant_row(
                &acc[r * cols..(r + 1) * cols],
                &bias,
                params,
                &mut expected[r * cols..(r + 1) * cols],
            );
        }
        let mut scratch = GemmScratch::new();
        for kind in kernels::available() {
            kernels::force(kind);
            let mut out = vec![55i8; m * stride];
            let view = StridedRowsMut::new(&mut out, m, cols, stride).expect("out view");
            gemm_requant_into(probs, &as_rows, &bias, params, &mut scratch, view).expect("gemm");
            prop_assert_eq!(unstride(&out, m, cols, stride), expected.clone(), "{}", kind.name());
        }
        kernels::force(kernels::best_available());
    }

    // The fused epilogue sees identical accumulators on every kernel, so
    // requantized int8 outputs are identical too.
    #[test]
    fn fused_outputs_are_identical_across_kernels(
        m in 1usize..10,
        k in 1usize..50,
        n in 1usize..40,
        seed_x in proptest::collection::vec(i8_full(), 1..64),
        seed_w in proptest::collection::vec(i8_full(), 1..64),
        seed_b in proptest::collection::vec(-20_000i32..20_000, 1..64),
    ) {
        let _guard = kernel_lock();
        let x = build(&seed_x, m, k);
        let w = build(&seed_w, k, n);
        let bias: Vec<i32> = (0..n).map(|i| seed_b[i % seed_b.len()]).collect();
        let packed = PackedWeights::pack(&w).expect("pack");
        let epilogue = |acc: i32, c: usize| -> i8 {
            ((i64::from(acc) + i64::from(bias[c])) / 37).clamp(-127, 127) as i8
        };
        let mut scratch = GemmScratch::new();
        kernels::force(KernelKind::Scalar);
        let reference = gemm_i8_fused(&x, &packed, &mut scratch, epilogue).expect("scalar fused");
        for kind in kernels::available() {
            kernels::force(kind);
            let got = gemm_i8_fused(&x, &packed, &mut scratch, epilogue).expect("fused");
            prop_assert_eq!(&got, &reference, "fused outputs diverge on {}", kind.name());
        }
        kernels::force(kernels::best_available());
    }

    #[test]
    fn fused_epilogue_matches_scalar_postprocessing(
        m in 1usize..16,
        k in 1usize..48,
        n in 1usize..32,
        seed_x in proptest::collection::vec(i8_full(), 1..64),
        seed_w in proptest::collection::vec(i8_full(), 1..64),
        seed_b in proptest::collection::vec(-20_000i32..20_000, 1..64),
    ) {
        let x = build(&seed_x, m, k);
        let w = build(&seed_w, k, n);
        let bias: Vec<i32> = (0..n).map(|i| seed_b[i % seed_b.len()]).collect();
        let packed = PackedWeights::pack(&w).expect("pack");
        let mut scratch = GemmScratch::new();
        // Epilogue mirroring IntLinear: bias add + divide + clamp to int8.
        let epilogue = |acc: i32, c: usize| -> i8 {
            ((i64::from(acc) + i64::from(bias[c])) / 37).clamp(-127, 127) as i8
        };
        let fused = gemm_i8_fused(&x, &packed, &mut scratch, epilogue).expect("fused");
        let naive = x.matmul_i32(&w).expect("naive");
        for r in 0..m {
            for c in 0..n {
                prop_assert_eq!(fused.row(r)[c], epilogue(naive.row(r)[c], c));
            }
        }
    }

    // Nibble panels gathered straight from the v2 `pack_i4` byte stream
    // must equal the unpack-then-pack panels bit for bit (the zero-copy
    // load path's correctness contract), and compute the same GEMM.
    #[test]
    fn panels_from_v2_bytes_match_unpacked_packing(
        m in 1usize..10,
        k in 1usize..70,
        n in 1usize..40,
        seed_x in proptest::collection::vec(i8_full(), 1..64),
        seed_w in proptest::collection::vec(i4(), 1..64),
    ) {
        let x = build(&seed_x, m, k);
        let w = build(&seed_w, k, n);
        let bytes = pack4::pack_i4(w.as_slice()).expect("pack_i4");
        let from_bytes = PackedWeights::from_v2_nibble_bytes(&bytes, k, n).expect("from bytes");
        prop_assert_eq!(&from_bytes, &PackedWeights::pack_nibble(&w).expect("pack_nibble"));
        let wide_bytes: Vec<u8> = w.as_slice().iter().map(|&c| c as u8).collect();
        let wide = PackedWeights::pack_wide_from_bytes(&wide_bytes, k, n).expect("wide bytes");
        prop_assert_eq!(&wide, &PackedWeights::pack(&w).expect("pack"));
        let mut scratch = GemmScratch::new();
        let naive = x.matmul_i32(&w).expect("naive");
        prop_assert_eq!(&gemm_i8_i32(&x, &from_bytes, &mut scratch).expect("gemm"), &naive);
        prop_assert_eq!(&gemm_i8_i32(&x, &wide, &mut scratch).expect("gemm wide"), &naive);
    }

    // Every host kernel's requantize epilogue is bit-identical to the
    // 128-bit scalar reference over the whole SIMD-exact envelope
    // (Q1.30 multipliers, shifts 0..=62, clamps 0..=127), including the
    // extreme accumulator/bias corners where the i64 product peaks.
    #[test]
    fn requant_kernels_match_scalar_reference(
        accs in proptest::collection::vec(proptest::num::i32::ANY, 0..70),
        biases in proptest::collection::vec(proptest::num::i32::ANY, 1..70),
        multiplier in 0i64..=(1i64 << 30),
        shift in 0i32..=62,
        clamp in 0i32..=127,
    ) {
        let params = RequantParams { multiplier, shift, clamp };
        prop_assert!(params.simd_exact());
        let len = accs.len();
        let bias: Vec<i32> = (0..len).map(|i| biases[i % biases.len()]).collect();
        // Splice in the worst-case corners so every run stresses them.
        let mut accs = accs;
        for (i, v) in [i32::MIN, i32::MAX, 0].into_iter().enumerate() {
            if let Some(slot) = accs.get_mut(i) {
                *slot = v;
            }
        }
        let mut reference = vec![0i8; len];
        kernels::scalar::requant_row(&accs, &bias, params, &mut reference);
        for kind in kernels::available() {
            let mut got = vec![0i8; len];
            (kernels::dispatch_for(kind).requant)(&accs, &bias, params, &mut got);
            prop_assert_eq!(&got, &reference, "requant diverges on {}", kind.name());
        }
    }

    // The fused requant GEMM equals applying the scalar reference to the
    // raw accumulators, on every kernel.
    #[test]
    fn fused_requant_gemm_matches_reference_across_kernels(
        m in 1usize..8,
        k in 1usize..50,
        n in 1usize..40,
        seed_x in proptest::collection::vec(i8_full(), 1..64),
        seed_w in proptest::collection::vec(i8_full(), 1..64),
        seed_b in proptest::collection::vec(-100_000i32..100_000, 1..64),
        multiplier in 0i64..=(1i64 << 30),
        shift in 0i32..=62,
        clamp in 1i32..=127,
    ) {
        let _guard = kernel_lock();
        let params = RequantParams { multiplier, shift, clamp };
        let x = build(&seed_x, m, k);
        let w = build(&seed_w, k, n);
        let bias: Vec<i32> = (0..n).map(|i| seed_b[i % seed_b.len()]).collect();
        let packed = PackedWeights::pack(&w).expect("pack");
        let mut scratch = GemmScratch::new();
        let raw = gemm_i8_i32(&x, &packed, &mut scratch).expect("raw");
        let mut expected = vec![0i8; m * n];
        for r in 0..m {
            kernels::scalar::requant_row(
                raw.row(r),
                &bias,
                params,
                &mut expected[r * n..(r + 1) * n],
            );
        }
        for kind in kernels::available() {
            kernels::force(kind);
            let got = gemm_i8_requant(&x, &packed, &bias, params, &mut scratch).expect("fused");
            prop_assert_eq!(got.as_slice(), expected.as_slice(), "diverges on {}", kind.name());
        }
        kernels::force(kernels::best_available());
    }

    #[test]
    fn exact_block_multiples_are_also_exact(
        mb in 1usize..5,
        kb in 1usize..4,
        nb in 1usize..4,
        seed in proptest::collection::vec(i8_full(), 1..64),
    ) {
        // Shapes that are exact multiples of the MR × NR tile.
        let (m, k, n) = (mb * MR, kb * 32, nb * NR);
        let x = build(&seed, m, k);
        let w = build(&seed, k, n);
        let packed = PackedWeights::pack(&w).unwrap();
        let mut scratch = GemmScratch::new();
        prop_assert_eq!(
            gemm_i8_i32(&x, &packed, &mut scratch).expect("blocked"),
            x.matmul_i32(&w).expect("naive")
        );
    }
}

/// Deterministic cross-kernel edge cases: empty shapes in every dimension,
/// odd-k remainders with single rows/columns, and all-padding (all-zero)
/// activation blocks such as fully-masked sequence tails.
#[test]
fn cross_kernel_edge_shapes_and_all_padding_blocks() {
    let _guard = kernel_lock();
    let shapes = [
        (0usize, 0usize, 0usize),
        (0, 4, 4),
        (4, 0, 4),
        (4, 4, 0),
        (1, 1, 1),
        (1, 7, 1),
        (MR, 9, NR),
        (MR + 1, 31, NR + 1),
        (2 * MR, 64, 2 * NR),
        (3, 33, 65),
    ];
    for &(m, k, n) in &shapes {
        let x = IntTensor::from_vec(
            (0..m * k).map(|i| ((i % 251) as i64 - 125) as i8).collect(),
            &[m, k],
        )
        .expect("x");
        // All-padding activations: a fully masked row block must still be
        // bit-identical (and produce all-zero accumulators).
        let zeros = IntTensor::<i8>::zeros(&[m, k]);
        let w8 = IntTensor::from_vec(
            (0..k * n).map(|i| ((i % 255) as i64 - 127) as i8).collect(),
            &[k, n],
        )
        .expect("w8");
        let w4 = IntTensor::from_vec(
            (0..k * n).map(|i| ((i % 16) as i64 - 8) as i8).collect(),
            &[k, n],
        )
        .expect("w4");
        let wide = PackedWeights::pack(&w8).expect("pack");
        let nib = PackedWeights::pack_nibble(&w4).expect("pack nibble");
        let mut scratch = GemmScratch::new();
        for kind in kernels::available() {
            kernels::force(kind);
            for x in [&x, &zeros] {
                assert_eq!(
                    gemm_i8_i32(x, &wide, &mut scratch).expect("wide"),
                    x.matmul_i32(&w8).expect("naive"),
                    "wide ({m},{k},{n}) on {}",
                    kind.name()
                );
                assert_eq!(
                    gemm_i8_i32(x, &nib, &mut scratch).expect("nibble"),
                    x.matmul_i32(&w4).expect("naive"),
                    "nibble ({m},{k},{n}) on {}",
                    kind.name()
                );
            }
        }
    }
    kernels::force(kernels::best_available());
}

/// This container/CI lane must actually exercise what it claims: scalar is
/// always present, and on x86_64 the SSE2 baseline path must be available.
#[test]
fn expected_kernels_are_available() {
    let available = kernels::available();
    assert!(available.contains(&KernelKind::Scalar));
    if cfg!(target_arch = "x86_64") {
        assert!(available.contains(&KernelKind::Sse2));
    }
}

/// A `u8` operand may add up to `255 · 128` per step, so its depth bound is
/// half of `MAX_K`: one step past it is rejected before any accumulation,
/// while `i8` activations of the same depth are accepted.
#[test]
fn u8_operand_depth_bound_rejects_half_max_k_plus_one() {
    let k = MAX_K / 2 + 1;
    let w = IntTensor::<i8>::zeros(&[k, 1]);
    let packed = PackedWeights::pack(&w).expect("pack");
    let mut scratch = GemmScratch::new();
    let mut out = [0i32];
    let probs = vec![255u8; k];
    let view = StridedRowsMut::new(&mut out, 1, 1, 1).expect("out");
    let err = gemm_i32_into(
        StridedRows::new(&probs, 1, k, k).expect("u8"),
        &packed,
        &mut scratch,
        view,
    );
    assert!(
        err.is_err(),
        "u8 operand at k = MAX_K / 2 + 1 must be rejected"
    );
    let codes = vec![1i8; k];
    let view = StridedRowsMut::new(&mut out, 1, 1, 1).expect("out");
    gemm_i32_into(
        StridedRows::new(&codes, 1, k, k).expect("i8"),
        &packed,
        &mut scratch,
        view,
    )
    .expect("i8 operand at the same depth");

    // At the bound itself the worst-case u8 sum is still exact.
    let k = MAX_K / 2;
    let w = IntTensor::from_vec(vec![-128i8; k], &[k, 1]).expect("w");
    let packed = PackedWeights::pack(&w).expect("pack");
    let probs = vec![255u8; k];
    let view = StridedRowsMut::new(&mut out, 1, 1, 1).expect("out");
    gemm_i32_into(
        StridedRows::new(&probs, 1, k, k).expect("u8"),
        &packed,
        &mut scratch,
        view,
    )
    .expect("u8 operand at the bound");
    assert_eq!(i64::from(out[0]), -255 * 128 * k as i64);
}
