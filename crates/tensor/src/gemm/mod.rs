//! Blocked, cache-friendly int8 GEMM with packed weights, a fused epilogue
//! and runtime-dispatched SIMD micro-kernels — the software hot path behind
//! every integer matrix product of the encoder: the six linear projections
//! (Q/K/V, attention output, FFN1/FFN2) and both attention products, Q·Kᵀ
//! and Attn·V ([`attention_head_into`]).
//!
//! # Packed layout
//!
//! A weight matrix `W` of shape `[k, n]` (row-major `[in, out]`, as stored by
//! `IntLinear`) is packed **once**, at layer construction or artifact-load
//! time, into column panels of width [`NR`]. Within a panel the reduction
//! dimension is walked **two steps at a time** and the two weights of each
//! column's k-pair sit adjacent in memory:
//!
//! ```text
//! panel p, k-pair pp  (columns p·NR .. p·NR+NR, zero-padded past n and
//! for the odd-k tail):
//!     wide[p·k_pairs + pp][2j + t] = W[2pp + t][p·NR + j]      (t = 0, 1)
//! ```
//!
//! where `k_pairs = ceil(k / 2)`. One `[i16; 2·NR]` row of the panel is
//! exactly what one dispatch step of the micro-kernel consumes: the pair
//! `(W[2pp][c], W[2pp+1][c])` forms the 32-bit lane that x86 `pmaddwd`
//! (`_mm256_madd_epi16`) multiplies against a broadcast activation pair.
//! Weights are stored pre-widened to `i16` — the kernels' multiply operand
//! width — so no sign-extension happens in the hot loop.
//!
//! Low-bit weights (4-bit and 2-bit codes, `[-8, 7]`) can instead be packed
//! with [`PackedWeights::pack_nibble`] into **nibble panels** that the int4
//! kernels consume directly, sign-extending in-register and skipping the
//! unpack-to-i16 copy entirely:
//!
//! ```text
//!     nib[p·k_pairs + pp][j] = nibble(W[2pp][c]) | nibble(W[2pp+1][c]) << 4
//! ```
//!
//! — one byte per column per k-pair, a quarter of the wide panel's resident
//! bytes.
//!
//! Both layouts can also be built **directly from the v2 artifact byte
//! stream** without materialising an intermediate `IntTensor`:
//! [`PackedWeights::from_v2_nibble_bytes`] gathers nibble panels straight
//! from the `pack_i4` encoding (element `e = kk·n + c` lives in nibble
//! `e % 2` of byte `e / 2`), and [`PackedWeights::pack_wide_from_bytes`]
//! widens raw two's-complement `i8` code bytes in place. This is the
//! zero-copy load path: w4 weights go from artifact bytes to compute-ready
//! panels without ever round-tripping through unpacked `i8` codes or `i16`
//! widening.
//!
//! Attention's right-hand operands are activations, packed **per call**
//! into the same wide panels by two packers that read strided rows in
//! place: [`PackedWeights::repack_rows`] takes source rows as `W`'s rows
//! (one head's `V_h`) and [`PackedWeights::repack_columns`] takes them as
//! `W`'s columns (one head's `K_hᵀ`, with no transposed copy).
//!
//! Activations are packed per call into row blocks of height [`MR`] with the
//! same k-pair interleave (`a[pp][2r + t] = X[r0 + r][2pp + t]`), inside a
//! caller-provided [`GemmScratch`] that is reused across layers instead of
//! re-allocated per projection. The left-hand operand is read through a
//! [`StridedRows`] view and may be `i8` activation codes or `u8` codes (the
//! softmax probabilities, `0..=255`); both widen exactly to the kernels'
//! `i16`. Results can be written through a [`StridedRowsMut`] view, so a
//! head's context lands directly in its columns of the context matrix.
//! Because every panel row is a fixed-size
//! array and odd-`k` tails are zero-padded at pack time, the micro-kernels
//! iterate full tiles only — no partial-panel or remainder special cases,
//! and no fallible slice chunking in the hot loop.
//!
//! # Kernel dispatch
//!
//! The per-tile micro-kernel is selected once per process by the
//! [`kernels`] module: an AVX2 path (`_mm256_madd_epi16` accumulator tiles)
//! and an SSE2 fallback on x86_64, a NEON (`smlal`-shaped) path on aarch64,
//! and a portable scalar kernel that doubles as the property-test reference.
//! Selection uses `is_x86_feature_detected!` / compile-target gating and can
//! be overridden with `FQBERT_KERNEL=scalar|sse2|avx2|neon`; see
//! [`kernels::selected`].
//!
//! # Bit-exactness contract
//!
//! For every output element the reduction runs over `kk = 0, 1, …, k-1` in
//! ascending order, exactly like the naive [`IntTensor::matmul_i32`] triple
//! loop. The naive loop saturates the `i32` accumulator after every partial
//! product while these kernels accumulate without saturation; for `i8`
//! operands the two are nevertheless bit-identical because `|a·w| ≤ 128²`
//! bounds every partial sum by `k · 128²`, which stays inside `i32` for all
//! `k ≤` [`MAX_K`] — packing rejects larger `k`. A `u8` operand multiplies
//! by up to `255 · 128` per step, so its bound is half as deep: the driver
//! rejects `k > MAX_K / 2` for it ([`ActCode::MAX_DEPTH`]). Absent overflow,
//! integer addition is exact and associative, so the SIMD kernels'
//! lane-parallel accumulation produces the same bits as the sequential
//! reduction, whichever operand type and whatever strides the views use.
//! The property tests in `tests/proptest_gemm.rs` pin every available
//! kernel to the naive loop across random shapes (including empty
//! matrices, non-multiple-of-block dimensions, int4/int2 nibble panels,
//! `u8` operands and strided input/output views).

pub mod kernels;

use crate::itensor::IntElement;
use crate::{IntTensor, Result, TensorError};

/// Width (output columns) of one packed weight panel and of the micro-kernel
/// accumulator tile.
pub const NR: usize = 32;

/// Height (input rows) of one packed activation block and of the
/// micro-kernel accumulator tile.
pub const MR: usize = 4;

/// Length of one k-pair row of a wide weight panel: an interleaved
/// `(W[2pp][c], W[2pp+1][c])` pair per column.
pub const WIDE_B: usize = 2 * NR;

/// Length of one k-pair row of a packed activation block: an interleaved
/// `(X[r][2pp], X[r][2pp+1])` pair per row.
pub const WIDE_A: usize = 2 * MR;

/// The `MR × NR` accumulator tile every micro-kernel updates in place.
pub type AccTile = [[i32; NR]; MR];

/// Largest reduction depth for which unsaturated `i32` accumulation of
/// int8×int8 products cannot overflow (`k · 128² ≤ 2³¹ - 1`, using the
/// worst-case product `(-128)·(-128)`), and therefore the largest `k`
/// [`PackedWeights::pack`] accepts.
pub const MAX_K: usize = i32::MAX as usize / (128 * 128);

/// Panel storage of a packed weight matrix: pre-widened `i16` pairs, or raw
/// two's-complement nibbles for low-bit weights (decoded in-register by the
/// int4 kernel path).
#[derive(Debug, Clone, PartialEq, Eq)]
enum PanelStore {
    /// `panels · k_pairs` rows of interleaved `i16` pairs.
    Wide(Vec<[i16; WIDE_B]>),
    /// `panels · k_pairs` rows of one nibble-pair byte per column.
    Nibble(Vec<[u8; NR]>),
}

/// An int8 weight matrix re-laid-out into [`NR`]-wide, k-pair-interleaved
/// column panels (see the module docs). Built once per layer; read-only
/// afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedWeights {
    store: PanelStore,
    k: usize,
    n: usize,
}

/// An empty `[0, 0]` wide-panel matrix: the starting point for the
/// `repack_*` packers, which reuse its storage call after call.
impl Default for PackedWeights {
    fn default() -> Self {
        Self {
            store: PanelStore::Wide(Vec::new()),
            k: 0,
            n: 0,
        }
    }
}

impl PackedWeights {
    /// Packs a `[k, n]` row-major weight matrix into wide (`i16`) column
    /// panels.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if `weight` is not rank 2 and
    /// [`TensorError::ShapeMismatch`] if `k` exceeds [`MAX_K`] (the depth
    /// beyond which unsaturated `i32` accumulation could overflow and the
    /// bit-exactness contract with `matmul_i32` would break).
    pub fn pack(weight: &IntTensor<i8>) -> Result<Self> {
        let mut packed = Self::default();
        packed.repack_rows(StridedRows::of_matrix(weight)?)?;
        Ok(packed)
    }

    /// Re-packs this value as wide panels of `W = src` — source row `kk`
    /// is weight row `kk`, so `W[kk][c] = src.row(kk)[c]` — reusing the
    /// panel storage. This packs an activation block read in place, such as
    /// one attention head's `V_h` columns of the value projection, as the
    /// right-hand operand of a per-call GEMM.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `src` has more than
    /// [`MAX_K`] rows.
    pub fn repack_rows(&mut self, src: StridedRows<'_, i8>) -> Result<()> {
        let (k, n) = (src.rows, src.cols);
        let k_pairs = k.div_ceil(2);
        self.refill_wide(k, n, |data| {
            for kk in 0..k {
                let t = kk % 2;
                for (p, chunk) in src.row(kk).chunks(NR).enumerate() {
                    let dst = &mut data[p * k_pairs + kk / 2];
                    for (j, &s) in chunk.iter().enumerate() {
                        dst[2 * j + t] = i16::from(s);
                    }
                }
            }
        })
    }

    /// Re-packs this value as wide panels of `W = srcᵀ` — source row `c` is
    /// weight column `c`, so `W[kk][c] = src.row(c)[kk]` — reusing the
    /// panel storage. This packs one attention head's `K_hᵀ` straight from
    /// the key projection's rows, with no transposed copy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `src` has more than
    /// [`MAX_K`] columns.
    pub fn repack_columns(&mut self, src: StridedRows<'_, i8>) -> Result<()> {
        let (k, n) = (src.cols, src.rows);
        let k_pairs = k.div_ceil(2);
        self.refill_wide(k, n, |data| {
            for c in 0..n {
                let (p, j) = (c / NR, c % NR);
                let panel = &mut data[p * k_pairs..(p + 1) * k_pairs];
                for (dst, pair) in panel.iter_mut().zip(src.row(c).chunks(2)) {
                    dst[2 * j] = i16::from(pair[0]);
                    if let Some(&v) = pair.get(1) {
                        dst[2 * j + 1] = i16::from(v);
                    }
                }
            }
        })
    }

    /// Resets the storage to zeroed wide panels for a `[k, n]` matrix
    /// (keeping the allocation) and lets `fill` write the codes.
    fn refill_wide(
        &mut self,
        k: usize,
        n: usize,
        fill: impl FnOnce(&mut [[i16; WIDE_B]]),
    ) -> Result<()> {
        Self::checked_depth(k, n)?;
        let mut data = match std::mem::replace(&mut self.store, PanelStore::Wide(Vec::new())) {
            PanelStore::Wide(data) => data,
            PanelStore::Nibble(_) => Vec::new(),
        };
        data.clear();
        data.resize(n.div_ceil(NR) * k.div_ceil(2), [0i16; WIDE_B]);
        fill(&mut data);
        self.store = PanelStore::Wide(data);
        self.k = k;
        self.n = n;
        Ok(())
    }

    /// Packs a `[k, n]` weight matrix of low-bit codes (each in `[-8, 7]`,
    /// i.e. 4-bit or 2-bit quantized weights) into nibble panels consumed
    /// directly by the int4 kernel path — one byte per column per k-pair,
    /// a quarter of the resident bytes of [`PackedWeights::pack`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ValueOutOfRange`] if any code does not fit a
    /// signed nibble, plus the same rank/depth errors as
    /// [`PackedWeights::pack`].
    pub fn pack_nibble(weight: &IntTensor<i8>) -> Result<Self> {
        let (k, n) = Self::checked_dims(weight)?;
        let panels = n.div_ceil(NR);
        let k_pairs = k.div_ceil(2);
        let mut data = vec![[0u8; NR]; panels * k_pairs];
        let src = weight.as_slice();
        for p in 0..panels {
            let c0 = p * NR;
            let width = NR.min(n - c0);
            for (pp, dst) in data[p * k_pairs..(p + 1) * k_pairs].iter_mut().enumerate() {
                for (j, d) in dst.iter_mut().enumerate().take(width) {
                    let lo = crate::pack4::nibble(src[2 * pp * n + c0 + j])?;
                    let hi = if 2 * pp + 1 < k {
                        crate::pack4::nibble(src[(2 * pp + 1) * n + c0 + j])?
                    } else {
                        0
                    };
                    *d = lo | (hi << 4);
                }
            }
        }
        Ok(Self {
            store: PanelStore::Nibble(data),
            k,
            n,
        })
    }

    /// Packs wide (`i16`) column panels directly from a `[k, n]` row-major
    /// stream of two's-complement `i8` code bytes — the v2 artifact
    /// encoding of 8-bit weights — without materialising an intermediate
    /// `IntTensor`. Produces panels bit-identical to
    /// [`PackedWeights::pack`] over the same codes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `bytes` is not exactly
    /// `k · n` bytes or `k` exceeds [`MAX_K`].
    pub fn pack_wide_from_bytes(bytes: &[u8], k: usize, n: usize) -> Result<Self> {
        Self::checked_depth(k, n)?;
        if bytes.len() != k * n {
            return Err(TensorError::ShapeMismatch {
                op: "gemm_pack_wide_from_bytes (byte count)",
                lhs: vec![bytes.len()],
                rhs: vec![k * n],
            });
        }
        let panels = n.div_ceil(NR);
        let k_pairs = k.div_ceil(2);
        let mut data = vec![[0i16; WIDE_B]; panels * k_pairs];
        for p in 0..panels {
            let c0 = p * NR;
            let width = NR.min(n - c0);
            for (pp, dst) in data[p * k_pairs..(p + 1) * k_pairs].iter_mut().enumerate() {
                for t in 0..2 {
                    let kk = 2 * pp + t;
                    if kk >= k {
                        break;
                    }
                    let row = &bytes[kk * n + c0..kk * n + c0 + width];
                    for (j, &s) in row.iter().enumerate() {
                        // fqlint::allow(narrowing-cast): same-width
                        // `u8 -> i8` reinterpretation — the byte stream
                        // stores two's-complement codes.
                        dst[2 * j + t] = i16::from(s as i8);
                    }
                }
            }
        }
        Ok(Self {
            store: PanelStore::Wide(data),
            k,
            n,
        })
    }

    /// Builds nibble panels directly from the v2 artifact's `pack_i4` byte
    /// stream for a `[k, n]` weight matrix: flat element `e = kk·n + c`
    /// occupies nibble `e % 2` of byte `e / 2` (low nibble first). The
    /// panel gather pairs the nibbles of rows `2pp` and `2pp + 1` of each
    /// column — a pure nibble shuffle with no widening, producing panels
    /// bit-identical to [`PackedWeights::pack_nibble`] over the unpacked
    /// codes. Every nibble is a valid two's-complement code, so unlike the
    /// unpack path no per-element range check is needed.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `bytes` is not exactly
    /// `ceil(k·n / 2)` bytes or `k` exceeds [`MAX_K`], and
    /// [`TensorError::ValueOutOfRange`] if an odd `k·n` leaves a non-zero
    /// final high nibble (corrupt encoding — the packer zeroes it).
    pub fn from_v2_nibble_bytes(bytes: &[u8], k: usize, n: usize) -> Result<Self> {
        Self::checked_depth(k, n)?;
        let numel = k * n;
        if bytes.len() != numel.div_ceil(2) {
            return Err(TensorError::ShapeMismatch {
                op: "gemm_from_v2_nibble_bytes (byte count)",
                lhs: vec![bytes.len()],
                rhs: vec![numel.div_ceil(2)],
            });
        }
        if numel % 2 == 1 {
            let last = bytes[bytes.len() - 1];
            if last >> 4 != 0 {
                return Err(TensorError::ValueOutOfRange {
                    what: "trailing int4 high nibble (must be zero padding)",
                    value: i64::from(last >> 4),
                });
            }
        }
        let nib_at = |e: usize| (bytes[e / 2] >> (4 * (e % 2))) & 0x0f;
        let panels = n.div_ceil(NR);
        let k_pairs = k.div_ceil(2);
        let mut data = vec![[0u8; NR]; panels * k_pairs];
        for p in 0..panels {
            let c0 = p * NR;
            let width = NR.min(n - c0);
            for (pp, dst) in data[p * k_pairs..(p + 1) * k_pairs].iter_mut().enumerate() {
                for (j, d) in dst.iter_mut().enumerate().take(width) {
                    let lo = nib_at(2 * pp * n + c0 + j);
                    let hi = if 2 * pp + 1 < k {
                        nib_at((2 * pp + 1) * n + c0 + j)
                    } else {
                        0
                    };
                    *d = lo | (hi << 4);
                }
            }
        }
        Ok(Self {
            store: PanelStore::Nibble(data),
            k,
            n,
        })
    }

    /// Shared rank / depth validation for both packers.
    fn checked_dims(weight: &IntTensor<i8>) -> Result<(usize, usize)> {
        let (k, n) = weight.as_matrix_dims()?;
        Self::checked_depth(k, n)?;
        Ok((k, n))
    }

    /// Depth validation shared with the from-bytes constructors.
    fn checked_depth(k: usize, n: usize) -> Result<()> {
        if k > MAX_K {
            return Err(TensorError::ShapeMismatch {
                op: "gemm_pack (k exceeds MAX_K)",
                lhs: vec![k, n],
                rhs: vec![MAX_K, n],
            });
        }
        Ok(())
    }

    /// Reduction depth (input features) of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output columns of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether the panels hold raw nibbles (int4 compute path) rather than
    /// pre-widened `i16` pairs.
    pub fn is_nibble(&self) -> bool {
        matches!(self.store, PanelStore::Nibble(_))
    }

    /// Bytes resident in the packed panel storage.
    pub fn resident_bytes(&self) -> usize {
        match &self.store {
            PanelStore::Wide(data) => data.len() * WIDE_B * std::mem::size_of::<i16>(),
            PanelStore::Nibble(data) => data.len() * NR,
        }
    }
}

/// Activation code types the GEMM reads as its left-hand operand: signed
/// `i8` activations, or unsigned `u8` codes such as the softmax's
/// attention probabilities (`0..=255`). Both widen exactly to the kernels'
/// `i16` multiply operand.
pub trait ActCode: Copy + Into<i16> {
    /// Largest reduction depth for which the unsaturated `i32` sum of this
    /// operand times `i8` weights cannot overflow.
    const MAX_DEPTH: usize;
}

impl ActCode for i8 {
    /// `k · 128 · 128 ≤ 2³¹ - 1`.
    const MAX_DEPTH: usize = MAX_K;
}

impl ActCode for u8 {
    /// `k · 255 · 128 ≤ 2³¹ - 1` holds for every `k ≤ MAX_K / 2`.
    const MAX_DEPTH: usize = MAX_K / 2;
}

/// Checks that `rows` rows of `cols` elements, `stride` apart, fit in a
/// buffer of `len` elements without overlapping.
fn check_strided(
    op: &'static str,
    len: usize,
    rows: usize,
    cols: usize,
    stride: usize,
) -> Result<()> {
    let end = match rows {
        0 => Some(0),
        1 => Some(cols),
        _ if cols > stride => None,
        _ => (rows - 1)
            .checked_mul(stride)
            .and_then(|start| start.checked_add(cols)),
    };
    match end {
        Some(end) if end <= len => Ok(()),
        _ => Err(TensorError::ShapeMismatch {
            op,
            lhs: vec![rows, cols, stride],
            rhs: vec![len],
        }),
    }
}

/// A read-only `rows × cols` matrix inside a larger row-major buffer: row
/// `r` is `data[r·stride ..][..cols]`. The GEMM reads its activations
/// through this view, so one attention head's column block of Q, K or V is
/// used in place instead of being copied out.
#[derive(Debug, Clone, Copy)]
pub struct StridedRows<'a, T> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a, T> StridedRows<'a, T> {
    /// Views `rows` rows of `cols` elements starting every `stride`
    /// elements of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the rows overlap
    /// (`cols > stride` with more than one row) or run past `data`.
    pub fn new(data: &'a [T], rows: usize, cols: usize, stride: usize) -> Result<Self> {
        check_strided("strided rows", data.len(), rows, cols, stride)?;
        Ok(Self {
            data,
            rows,
            cols,
            stride,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Elements per row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` (`r < rows`).
    pub fn row(&self, r: usize) -> &'a [T] {
        &self.data[r * self.stride..r * self.stride + self.cols]
    }
}

impl<'a, T: IntElement> StridedRows<'a, T> {
    /// Views a whole rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns a rank error if `x` is not a matrix.
    pub fn of_matrix(x: &'a IntTensor<T>) -> Result<Self> {
        let (rows, cols) = x.as_matrix_dims()?;
        Self::new(x.as_slice(), rows, cols, cols)
    }
}

/// The writable counterpart of [`StridedRows`]: the GEMM stores its
/// `rows × cols` outputs into a larger row-major buffer, e.g. one attention
/// head's columns of the context matrix.
#[derive(Debug)]
pub struct StridedRowsMut<'a, T> {
    data: &'a mut [T],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a, T> StridedRowsMut<'a, T> {
    /// Views `rows` rows of `cols` elements starting every `stride`
    /// elements of `data`.
    ///
    /// # Errors
    ///
    /// As for [`StridedRows::new`].
    pub fn new(data: &'a mut [T], rows: usize, cols: usize, stride: usize) -> Result<Self> {
        check_strided("strided output rows", data.len(), rows, cols, stride)?;
        Ok(Self {
            data,
            rows,
            cols,
            stride,
        })
    }

    /// Row `r` (`r < rows`).
    fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.data[r * self.stride..r * self.stride + self.cols]
    }
}

/// Reusable buffers for every GEMM of a forward pass.
///
/// One scratch serves every projection and every attention head of every
/// encoder layer in a forward pass; reusing it avoids an allocation per
/// GEMM (12 layers × 6 projections per batch, plus two GEMMs per head).
/// Buffers only grow, so a scratch kept across batches settles at the
/// largest shapes it has seen and stays allocation-free from then on.
#[derive(Debug, Default)]
pub struct GemmScratch {
    /// One `[i16; 2·MR]` row per k-pair: `a_block[pp][2r + t] = X[r0+r][2pp+t]`.
    a_block: Vec<[i16; WIDE_A]>,
    /// The per-call buffers of [`attention_head_into`].
    attention: AttentionBuffers,
}

/// Buffers of one attention head, reused across heads, sequences and layers.
#[derive(Debug, Default)]
struct AttentionBuffers {
    /// `K_hᵀ`, then `V_h`: the right-hand operand packed per call.
    panel: PackedWeights,
    /// All-zero bias for the two bias-free requantizations.
    zero_bias: Vec<i32>,
    /// `seq × seq` requantized scores.
    scores: Vec<i8>,
    /// `seq × seq` probability codes.
    probs: Vec<u8>,
}

impl GemmScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch whose packing buffer is already sized for
    /// reduction depths up to `k`, so the first GEMM through it allocates
    /// nothing. Long-lived owners (e.g. a worker thread that keeps one
    /// scratch across every batch it serves) size it once for the deepest
    /// projection of their model.
    pub fn with_depth(k: usize) -> Self {
        let mut scratch = Self::default();
        scratch.reserve_depth(k);
        scratch
    }

    /// Grows the packing buffer to hold an activation block of reduction
    /// depth `k` (no-op when already large enough). The buffer never
    /// shrinks, so a scratch reused across layers settles at the deepest
    /// projection and stays allocation-free from then on.
    pub fn reserve_depth(&mut self, k: usize) {
        let need = k.div_ceil(2);
        if self.a_block.capacity() < need {
            self.a_block.reserve(need - self.a_block.len());
        }
    }

    /// Largest reduction depth the current buffer can pack without
    /// reallocating.
    pub fn depth_capacity(&self) -> usize {
        self.a_block.capacity() * 2
    }
}

/// Packs rows `r0 .. r0+rows` of `x` into the k-pair-interleaved
/// `[pp][2r + t]` layout, widening to the kernels' `i16` operand width and
/// zero-padding missing rows up to [`MR`] and the odd-`k` tail.
fn pack_rows<T: ActCode>(
    a_block: &mut Vec<[i16; WIDE_A]>,
    x: StridedRows<'_, T>,
    r0: usize,
    rows: usize,
) {
    a_block.clear();
    a_block.resize(x.cols.div_ceil(2), [0i16; WIDE_A]);
    for r in 0..rows {
        for (pair, dst) in x.row(r0 + r).chunks(2).zip(a_block.iter_mut()) {
            dst[2 * r] = pair[0].into();
            if let Some(&v) = pair.get(1) {
                dst[2 * r + 1] = v.into();
            }
        }
    }
}

/// Drives the blocked GEMM `x (m×k) · W (k×n)` and feeds every finished
/// accumulator row segment to `sink(row, c0, accs)` in row-block/panel
/// order (`accs[j]` is the accumulator for column `c0 + j`), through the
/// process-selected micro-kernel. Handing the epilogue a contiguous
/// segment instead of one element at a time is what lets
/// [`gemm_requant_into`] run a SIMD fixup over it. This is the one GEMM
/// loop: every entry point below is a sink over it.
fn gemm_drive<T: ActCode, F: FnMut(usize, usize, &[i32])>(
    x: StridedRows<'_, T>,
    weights: &PackedWeights,
    a_block: &mut Vec<[i16; WIDE_A]>,
    mut sink: F,
) -> Result<()> {
    let (m, k) = (x.rows, x.cols);
    if k != weights.k {
        return Err(TensorError::ShapeMismatch {
            op: "gemm",
            lhs: vec![m, k],
            rhs: vec![weights.k, weights.n],
        });
    }
    if k > T::MAX_DEPTH {
        return Err(TensorError::ShapeMismatch {
            op: "gemm (k exceeds the activation operand's depth bound)",
            lhs: vec![m, k],
            rhs: vec![T::MAX_DEPTH],
        });
    }
    let n = weights.n;
    let panels = n.div_ceil(NR);
    let k_pairs = k.div_ceil(2);
    let kernel = kernels::selected();
    for r0 in (0..m).step_by(MR) {
        let rows = MR.min(m - r0);
        pack_rows(a_block, x, r0, rows);
        for p in 0..panels {
            let c0 = p * NR;
            let cols = NR.min(n - c0);
            let mut acc = [[0i32; NR]; MR];
            match &weights.store {
                PanelStore::Wide(data) => {
                    (kernel.wide)(a_block, &data[p * k_pairs..(p + 1) * k_pairs], &mut acc);
                }
                PanelStore::Nibble(data) => {
                    (kernel.nibble)(a_block, &data[p * k_pairs..(p + 1) * k_pairs], &mut acc);
                }
            }
            for (r, row) in acc.iter().enumerate().take(rows) {
                sink(r0 + r, c0, &row[..cols]);
            }
        }
    }
    Ok(())
}

/// Checks that `out` is `m × n`.
fn check_out<O>(op: &'static str, out: &StridedRowsMut<'_, O>, m: usize, n: usize) -> Result<()> {
    if (out.rows, out.cols) != (m, n) {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: vec![out.rows, out.cols],
            rhs: vec![m, n],
        });
    }
    Ok(())
}

/// Blocked GEMM writing the raw `i32` accumulators of `x · W` into `out`
/// (`x.rows() × W.n()`), bit-identical to the naive `i64` reduction for
/// either activation type (see the module docs for the contract).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x`'s width differs from the
/// packed `k`, `k` exceeds the operand's [`ActCode::MAX_DEPTH`], or `out`
/// has the wrong shape.
pub fn gemm_i32_into<T: ActCode>(
    x: StridedRows<'_, T>,
    weights: &PackedWeights,
    scratch: &mut GemmScratch,
    mut out: StridedRowsMut<'_, i32>,
) -> Result<()> {
    check_out("gemm_i32_into (output)", &out, x.rows, weights.n)?;
    gemm_drive(x, weights, &mut scratch.a_block, |r, c0, accs| {
        out.row_mut(r)[c0..c0 + accs.len()].copy_from_slice(accs);
    })
}

/// Blocked GEMM returning the raw `i32` accumulators,
/// bit-identical to [`IntTensor::matmul_i32`] (see the module docs for the
/// contract). Mostly useful for tests and diagnostics — the engine uses the
/// fused [`gemm_i8_requant`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x`'s width differs from the
/// packed `k`, or a rank error for non-matrix inputs.
pub fn gemm_i8_i32(
    x: &IntTensor<i8>,
    weights: &PackedWeights,
    scratch: &mut GemmScratch,
) -> Result<IntTensor<i32>> {
    let x = StridedRows::of_matrix(x)?;
    let n = weights.n;
    let mut out = IntTensor::<i32>::zeros(&[x.rows, n]);
    let view = StridedRowsMut::new(out.as_mut_slice(), x.rows, n, n)?;
    gemm_i32_into(x, weights, scratch, view)?;
    Ok(out)
}

/// Blocked GEMM with a fused epilogue: every `i32` accumulator is mapped to
/// an output `i8` code by `epilogue(acc, col)` — typically bias add plus
/// fixed-point requantization — without materialising an intermediate `i32`
/// tensor.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x`'s width differs from the
/// packed `k`, or a rank error for non-matrix inputs.
pub fn gemm_i8_fused<F: Fn(i32, usize) -> i8>(
    x: &IntTensor<i8>,
    weights: &PackedWeights,
    scratch: &mut GemmScratch,
    epilogue: F,
) -> Result<IntTensor<i8>> {
    let x = StridedRows::of_matrix(x)?;
    let n = weights.n;
    let mut out = IntTensor::<i8>::zeros(&[x.rows, n]);
    let slice = out.as_mut_slice();
    gemm_drive(x, weights, &mut scratch.a_block, |r, c0, accs| {
        for (j, &acc) in accs.iter().enumerate() {
            slice[r * n + c0 + j] = epilogue(acc, c0 + j);
        }
    })?;
    Ok(out)
}

/// Fixed-point requantization parameters for the fused GEMM epilogue:
/// `out = clamp(round(  (acc + bias) · multiplier / 2^shift ), ±clamp)`
/// with round-half-away-from-zero — exactly
/// `fqbert_quant::Requantizer::apply` followed by the `i8` clamp, expressed
/// as plain fields so the tensor crate needs no quant dependency.
///
/// The effective output bound is `min(clamp, 127)`: the epilogue produces
/// `i8` codes, so wider bounds are meaningless and are capped rather than
/// wrapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequantParams {
    /// Fixed-point multiplier (Q1.30-normalised by `Requantizer`, but any
    /// `i64` is accepted — out-of-envelope values take the exact scalar
    /// path).
    pub multiplier: i64,
    /// Right shift applied after the multiply; values `<= 0` mean no shift.
    pub shift: i32,
    /// Symmetric output saturation bound (capped at 127).
    pub clamp: i32,
}

impl RequantParams {
    /// Whether the SIMD requantize kernels compute this parameter set
    /// exactly in `i64` arithmetic: `multiplier ∈ [0, 2^30]` (the Q1.30
    /// normalised-mantissa range, denormal folding included), `shift ∈
    /// [0, 62]` and `clamp ∈ [0, 127]`. Every `Requantizer` produces
    /// parameters inside this envelope; anything outside falls back to the
    /// 128-bit scalar reference.
    ///
    /// Inside the envelope `|acc + bias| ≤ 2^32`, so `|product| ≤ 2^62` and
    /// `product + half ≤ 2^62 + 2^61 < 2^63` — `i64` arithmetic is exact
    /// and the SIMD path is bit-identical to the `i128` reference.
    pub fn simd_exact(&self) -> bool {
        (0..=1i64 << 30).contains(&self.multiplier)
            && (0..=62).contains(&self.shift)
            && (0..=i32::from(i8::MAX)).contains(&self.clamp)
    }
}

/// Blocked GEMM with the requantization epilogue fused and SIMD-accelerated,
/// writing into `out` (`x.rows() × W.n()`): every accumulator row segment
/// gets `+ bias[col]`, the fixed-point multiply/shift/round and the
/// symmetric clamp applied by the process-selected requantize kernel —
/// bit-identical to applying `Requantizer::apply(acc + bias).clamp(-127, 127)`
/// per element (the cross-kernel property tests pin this). Parameters
/// outside [`RequantParams::simd_exact`] take the 128-bit scalar reference.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `bias` is not one entry per
/// output column, `x`'s width differs from the packed `k`, `k` exceeds the
/// operand's [`ActCode::MAX_DEPTH`], or `out` has the wrong shape.
pub fn gemm_requant_into<T: ActCode>(
    x: StridedRows<'_, T>,
    weights: &PackedWeights,
    bias: &[i32],
    params: RequantParams,
    scratch: &mut GemmScratch,
    out: StridedRowsMut<'_, i8>,
) -> Result<()> {
    requant_drive(x, weights, bias, params, &mut scratch.a_block, out)
}

/// [`gemm_requant_into`] over an explicit packing buffer, so
/// [`attention_head_into`] can run it while holding its other buffers.
fn requant_drive<T: ActCode>(
    x: StridedRows<'_, T>,
    weights: &PackedWeights,
    bias: &[i32],
    params: RequantParams,
    a_block: &mut Vec<[i16; WIDE_A]>,
    mut out: StridedRowsMut<'_, i8>,
) -> Result<()> {
    if bias.len() != weights.n {
        return Err(TensorError::ShapeMismatch {
            op: "gemm_requant (bias length)",
            lhs: vec![bias.len()],
            rhs: vec![weights.n],
        });
    }
    check_out("gemm_requant (output)", &out, x.rows, weights.n)?;
    let kernel: kernels::RequantKernel = if params.simd_exact() {
        kernels::selected().requant
    } else {
        kernels::scalar::requant_row
    };
    gemm_drive(x, weights, a_block, |r, c0, accs| {
        let end = c0 + accs.len();
        kernel(accs, &bias[c0..end], params, &mut out.row_mut(r)[c0..end]);
    })
}

/// [`gemm_requant_into`] over a whole `i8` matrix, returning a new tensor —
/// the fused projection GEMM of every integer linear layer.
///
/// # Errors
///
/// As for [`gemm_requant_into`], plus a rank error for non-matrix inputs.
pub fn gemm_i8_requant(
    x: &IntTensor<i8>,
    weights: &PackedWeights,
    bias: &[i32],
    params: RequantParams,
    scratch: &mut GemmScratch,
) -> Result<IntTensor<i8>> {
    let x = StridedRows::of_matrix(x)?;
    let n = weights.n;
    let mut out = IntTensor::<i8>::zeros(&[x.rows, n]);
    let view = StridedRowsMut::new(out.as_mut_slice(), x.rows, n, n)?;
    gemm_requant_into(x, weights, bias, params, scratch, view)?;
    Ok(out)
}

/// One head of integer scaled dot-product attention, with both matrix
/// products on the packed GEMM kernels:
///
/// ```text
/// scores  = requant_score(Q_h · K_hᵀ)          i8,  seq × seq
/// probs   = softmax_row(scores), row by row     u8,  seq × seq
/// out     = requant_context(probs · V_h)        i8,  seq × head_dim
/// ```
///
/// `K_hᵀ` is packed straight from `k`'s rows and `V_h` from `v`'s rows
/// (strided views, no block copies); neither requantization has a bias.
/// The score, probability and panel buffers live in `scratch`, so a
/// scratch reused across heads and layers makes this allocation-free.
/// Bit-identical to the naive loop — exact `i32` accumulation, then the
/// same per-element requantization (see the module docs).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `q`, `k` and `v` do not all
/// have `seq` rows, `q` and `k` differ in width, `out` is not
/// `seq × v.cols()`, or a depth bound is exceeded (`head_dim >`
/// [`MAX_K`], or `seq > MAX_K / 2` for the `u8` probabilities).
#[allow(clippy::too_many_arguments)]
pub fn attention_head_into<F: FnMut(&[i8], &mut [u8])>(
    q: StridedRows<'_, i8>,
    k: StridedRows<'_, i8>,
    v: StridedRows<'_, i8>,
    score: RequantParams,
    mut softmax_row: F,
    context: RequantParams,
    scratch: &mut GemmScratch,
    out: StridedRowsMut<'_, i8>,
) -> Result<()> {
    let seq = q.rows;
    if k.rows != seq || v.rows != seq || k.cols != q.cols {
        return Err(TensorError::ShapeMismatch {
            op: "attention_head (q/k/v)",
            lhs: vec![q.rows, q.cols, k.rows, k.cols],
            rhs: vec![v.rows, v.cols],
        });
    }
    check_out("attention_head (output)", &out, seq, v.cols)?;
    if seq == 0 {
        return Ok(());
    }
    let GemmScratch { a_block, attention } = scratch;
    let AttentionBuffers {
        panel,
        zero_bias,
        scores,
        probs,
    } = attention;
    let (scores, probs) = (grown(scores, seq * seq), grown(probs, seq * seq));
    let zero_bias = grown(zero_bias, seq.max(v.cols));

    panel.repack_columns(k)?;
    let score_out = StridedRowsMut::new(&mut scores[..], seq, seq, seq)?;
    requant_drive(q, panel, &zero_bias[..seq], score, a_block, score_out)?;
    for (s, p) in scores.chunks_exact(seq).zip(probs.chunks_exact_mut(seq)) {
        softmax_row(s, p);
    }
    panel.repack_rows(v)?;
    let probs = StridedRows::new(&probs[..], seq, seq, seq)?;
    requant_drive(probs, panel, &zero_bias[..v.cols], context, a_block, out)
}

/// The first `len` elements of `buf`, growing it with zeros if it is
/// shorter. Buffers never shrink, so reuse stops allocating.
fn grown<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor_i8(data: Vec<i8>, dims: &[usize]) -> IntTensor<i8> {
        IntTensor::from_vec(data, dims).expect("shape")
    }

    fn pseudo(i: usize) -> i8 {
        (((i as i64 * 2654435761) >> 7) % 255 - 127) as i8
    }

    fn pseudo4(i: usize) -> i8 {
        (((i as i64 * 2654435761) >> 9) % 16 - 8) as i8
    }

    #[test]
    fn matches_naive_matmul_on_non_block_multiple_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 16, 16),
            (9, 33, 21),
        ] {
            let x = tensor_i8((0..m * k).map(pseudo).collect(), &[m, k]);
            let w = tensor_i8((0..k * n).map(|i| pseudo(i + 99)).collect(), &[k, n]);
            let packed = PackedWeights::pack(&w).unwrap();
            let mut scratch = GemmScratch::new();
            let blocked = gemm_i8_i32(&x, &packed, &mut scratch).unwrap();
            let naive = x.matmul_i32(&w).unwrap();
            assert_eq!(blocked, naive, "mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn nibble_panels_match_naive_matmul() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 16, 16),
            (9, 33, 21),
            (2, 63, 40),
        ] {
            let x = tensor_i8((0..m * k).map(pseudo).collect(), &[m, k]);
            let w = tensor_i8((0..k * n).map(|i| pseudo4(i + 99)).collect(), &[k, n]);
            let packed = PackedWeights::pack_nibble(&w).unwrap();
            assert!(packed.is_nibble());
            let mut scratch = GemmScratch::new();
            let blocked = gemm_i8_i32(&x, &packed, &mut scratch).unwrap();
            let naive = x.matmul_i32(&w).unwrap();
            assert_eq!(blocked, naive, "mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn nibble_packing_rejects_wide_codes() {
        let w = tensor_i8(vec![8, 0, 0, 0], &[2, 2]);
        assert!(PackedWeights::pack_nibble(&w).is_err());
        let w = tensor_i8(vec![0, -9, 0, 0], &[2, 2]);
        assert!(PackedWeights::pack_nibble(&w).is_err());
    }

    #[test]
    fn nibble_panels_quarter_resident_bytes() {
        let w = tensor_i8((0..64 * 64).map(pseudo4).collect(), &[64, 64]);
        let wide = PackedWeights::pack(&w).unwrap();
        let nib = PackedWeights::pack_nibble(&w).unwrap();
        assert_eq!(nib.resident_bytes() * 4, wide.resident_bytes());
    }

    #[test]
    fn empty_matrices_produce_empty_outputs() {
        let mut scratch = GemmScratch::new();
        for &(m, k, n) in &[(0usize, 4usize, 4usize), (4, 0, 4), (4, 4, 0), (0, 0, 0)] {
            let x = tensor_i8(vec![0; m * k], &[m, k]);
            let w = tensor_i8(vec![0; k * n], &[k, n]);
            let packed = PackedWeights::pack(&w).unwrap();
            let blocked = gemm_i8_i32(&x, &packed, &mut scratch).unwrap();
            assert_eq!(blocked, x.matmul_i32(&w).unwrap(), "({m},{k},{n})");
            assert_eq!(blocked.dims(), &[m, n]);
        }
    }

    #[test]
    fn fused_epilogue_sees_column_indices() {
        let x = tensor_i8(vec![1, 2, 3, 4], &[2, 2]);
        let w = tensor_i8(vec![1, 0, 0, 0, 1, 0], &[2, 3]);
        let packed = PackedWeights::pack(&w).unwrap();
        let mut scratch = GemmScratch::new();
        let out = gemm_i8_fused(&x, &packed, &mut scratch, |acc, c| {
            (acc + c as i32).clamp(-128, 127) as i8
        })
        .unwrap();
        // x·w = [[1,2,0],[3,4,0]]; epilogue adds the column index.
        assert_eq!(out.as_slice(), &[1, 3, 2, 3, 5, 2]);
    }

    #[test]
    fn scratch_is_reusable_across_shapes() {
        let mut scratch = GemmScratch::new();
        for &(m, k, n) in &[(5usize, 40usize, 12usize), (2, 3, 2), (7, 19, 31)] {
            let x = tensor_i8((0..m * k).map(pseudo).collect(), &[m, k]);
            let w = tensor_i8((0..k * n).map(|i| pseudo(i + 7)).collect(), &[k, n]);
            let packed = PackedWeights::pack(&w).unwrap();
            assert_eq!(
                gemm_i8_i32(&x, &packed, &mut scratch).unwrap(),
                x.matmul_i32(&w).unwrap()
            );
        }
    }

    #[test]
    fn rejects_mismatched_k_and_oversized_k() {
        let x = tensor_i8(vec![0; 6], &[2, 3]);
        let w = tensor_i8(vec![0; 8], &[4, 2]);
        let packed = PackedWeights::pack(&w).unwrap();
        assert!(gemm_i8_i32(&x, &packed, &mut GemmScratch::new()).is_err());
        assert!(PackedWeights::pack(&tensor_i8(vec![0; 3], &[3])).is_err());
    }

    #[test]
    fn scratch_depth_reservation_is_sticky() {
        let mut scratch = GemmScratch::with_depth(64);
        assert!(scratch.depth_capacity() >= 64);
        // Packing a shallower block must not shrink the buffer.
        let x = tensor_i8((0..2 * 3).map(pseudo).collect(), &[2, 3]);
        let w = tensor_i8((0..3 * 2).map(pseudo).collect(), &[3, 2]);
        let packed = PackedWeights::pack(&w).unwrap();
        gemm_i8_i32(&x, &packed, &mut scratch).unwrap();
        assert!(scratch.depth_capacity() >= 64);
        scratch.reserve_depth(16); // no-op below capacity
        assert!(scratch.depth_capacity() >= 64);
        scratch.reserve_depth(128);
        assert!(scratch.depth_capacity() >= 128);
    }

    #[test]
    fn nibble_panels_from_v2_bytes_match_pack_nibble() {
        for &(k, n) in &[(1usize, 1usize), (3, 5), (16, 16), (33, 21), (63, 40)] {
            let codes: Vec<i8> = (0..k * n).map(pseudo4).collect();
            let w = tensor_i8(codes.clone(), &[k, n]);
            let bytes = crate::pack4::pack_i4(&codes).unwrap();
            let from_bytes = PackedWeights::from_v2_nibble_bytes(&bytes, k, n).unwrap();
            assert_eq!(
                from_bytes,
                PackedWeights::pack_nibble(&w).unwrap(),
                "({k},{n})"
            );
            assert!(from_bytes.is_nibble());
        }
    }

    #[test]
    fn wide_panels_from_bytes_match_pack() {
        for &(k, n) in &[(1usize, 1usize), (3, 5), (16, 16), (33, 21)] {
            let codes: Vec<i8> = (0..k * n).map(pseudo).collect();
            let w = tensor_i8(codes.clone(), &[k, n]);
            // fqlint::allow(narrowing-cast): same-width i8 -> u8 test setup.
            let bytes: Vec<u8> = codes.iter().map(|&c| c as u8).collect();
            let from_bytes = PackedWeights::pack_wide_from_bytes(&bytes, k, n).unwrap();
            assert_eq!(from_bytes, PackedWeights::pack(&w).unwrap(), "({k},{n})");
        }
    }

    #[test]
    fn from_bytes_constructors_reject_bad_encodings() {
        // Wrong byte counts.
        assert!(PackedWeights::from_v2_nibble_bytes(&[0u8; 3], 2, 2).is_err());
        assert!(PackedWeights::pack_wide_from_bytes(&[0u8; 3], 2, 2).is_err());
        // Odd element count with dirty trailing high nibble.
        assert!(PackedWeights::from_v2_nibble_bytes(&[0x00, 0x10], 1, 3).is_err());
        assert!(PackedWeights::from_v2_nibble_bytes(&[0x00, 0x01], 1, 3).is_ok());
        // Depth beyond MAX_K.
        assert!(PackedWeights::from_v2_nibble_bytes(&vec![0u8; MAX_K + 1], MAX_K + 1, 2).is_err());
    }

    #[test]
    fn requant_epilogue_matches_reference_per_element() {
        let params = RequantParams {
            multiplier: 715_827_883, // ~ 2/3 in Q1.30
            shift: 31,
            clamp: 127,
        };
        assert!(params.simd_exact());
        let reference = |acc: i32, bias: i32| -> i8 {
            let sum = i64::from(acc) + i64::from(bias);
            let product = i128::from(sum) * i128::from(params.multiplier);
            let half = 1i128 << (params.shift - 1);
            let rounded = if product >= 0 {
                (product + half) >> params.shift
            } else {
                -((-product + half) >> params.shift)
            };
            rounded.clamp(-127, 127) as i8
        };
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 5, 7), (9, 33, 21)] {
            let x = tensor_i8((0..m * k).map(pseudo).collect(), &[m, k]);
            let w = tensor_i8((0..k * n).map(|i| pseudo(i + 99)).collect(), &[k, n]);
            let bias: Vec<i32> = (0..n).map(|c| (c as i32 - 3) * 1000).collect();
            let packed = PackedWeights::pack(&w).unwrap();
            let mut scratch = GemmScratch::new();
            let fused = gemm_i8_requant(&x, &packed, &bias, params, &mut scratch).unwrap();
            let raw = gemm_i8_i32(&x, &packed, &mut scratch).unwrap();
            for r in 0..m {
                for (c, &b) in bias.iter().enumerate() {
                    assert_eq!(
                        fused.as_slice()[r * n + c],
                        reference(raw.as_slice()[r * n + c], b),
                        "({m},{k},{n}) at ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn requant_rejects_mismatched_bias() {
        let x = tensor_i8(vec![1, 2], &[1, 2]);
        let w = tensor_i8(vec![1, 0, 0, 1], &[2, 2]);
        let packed = PackedWeights::pack(&w).unwrap();
        let params = RequantParams {
            multiplier: 1 << 30,
            shift: 30,
            clamp: 127,
        };
        let err = gemm_i8_requant(&x, &packed, &[0], params, &mut GemmScratch::new());
        assert!(err.is_err());
    }

    #[test]
    fn strided_views_reject_overlap_and_overrun() {
        let data = [0i8; 10];
        assert!(StridedRows::new(&data, 3, 2, 4).is_ok()); // ends at 2·4 + 2 = 10
        assert!(StridedRows::new(&data, 3, 3, 4).is_err()); // ends at 11 > 10
        assert!(StridedRows::new(&data, 2, 5, 4).is_err()); // rows overlap
        assert!(StridedRows::new(&data, 1, 10, 0).is_ok()); // one row needs no stride
        assert!(StridedRows::new(&data, 1, 11, 11).is_err());
        assert!(StridedRows::new(&data, 0, 99, 0).is_ok());
        assert!(StridedRows::new(&data, usize::MAX, 1, usize::MAX).is_err());
        let mut out = [0i32; 6];
        assert!(StridedRowsMut::new(&mut out, 2, 2, 4).is_ok());
        assert!(StridedRowsMut::new(&mut out, 2, 3, 4).is_err());
    }

    #[test]
    fn attention_head_rejects_inconsistent_shapes() {
        let codes = [1i8; 24];
        let view = |rows, cols| StridedRows::new(&codes, rows, cols, cols).unwrap();
        let params = RequantParams {
            multiplier: 1 << 30,
            shift: 30,
            clamp: 127,
        };
        let mut scratch = GemmScratch::new();
        let mut out = [0i8; 24];
        let mut run = |q, k, v, rows, cols| {
            let out = StridedRowsMut::new(&mut out, rows, cols, cols).unwrap();
            attention_head_into(q, k, v, params, |_, _| {}, params, &mut scratch, out)
        };
        assert!(run(view(3, 4), view(3, 4), view(3, 2), 3, 2).is_ok());
        assert!(run(view(3, 4), view(2, 4), view(3, 2), 3, 2).is_err()); // K rows
        assert!(run(view(3, 4), view(3, 3), view(3, 2), 3, 2).is_err()); // Q/K width
        assert!(run(view(3, 4), view(3, 4), view(3, 2), 3, 3).is_err()); // output
        assert!(run(view(0, 4), view(0, 4), view(0, 2), 0, 2).is_ok());
    }

    #[test]
    fn packed_accessors_report_shape() {
        let w = tensor_i8((0..6).map(|i| i as i8).collect(), &[2, 3]);
        let packed = PackedWeights::pack(&w).unwrap();
        assert_eq!(packed.k(), 2);
        assert_eq!(packed.n(), 3);
        assert!(!packed.is_nibble());
    }
}
