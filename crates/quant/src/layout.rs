//! Weight-matrix quantization layouts: conventional column-major groups vs
//! the paper's HMX tile-group layout (Section 5.1.1).
//!
//! A weight matrix `W` has shape `[k, n]`: `k` is the accumulation
//! dimension (input features), `n` the output dimension, and GEMM computes
//! `Y[m, n] = X[m, k] x W[k, n]`.
//!
//! - **Column-major groups** (llama.cpp CPU backend): each output column is
//!   stored contiguously along `k` and split into groups of 32; blocks are
//!   interleaved scale+quants (AoS). On the NPU this layout forces the
//!   dequantizer to *scatter* values into the HMX tile order (Figure 6).
//! - **HMX tile groups** (ours): the matrix is first permuted into the exact
//!   byte order the HMX expects — column-major 32x32 tiles, each with the
//!   two-row interleave of Figure 4a — and *then* quantized in consecutive
//!   runs of 32, which correspond to 2x16 sub-tiles of the original matrix.
//!   Dequantized registers can be stored to TCM contiguously.
//!
//! Both layouts are built and undone by one walk over the groups. It goes
//! one 32-row strip (k-tile) at a time, the loop the HMX itself runs over
//! tiles, and places each group's 32 elements through a fixed offset table
//! rather than by permuting element indices one by one. `quantize` writes
//! each block at its layout-order offset in the byte stream; `dequantize`
//! writes each group's values back into the row-major matrix.

use hexsim::hmx::TILE_DIM;

use crate::block::{BlockQ4_0, BlockQ8_0, GROUP_SIZE, Q4_0_BLOCK_BYTES, Q8_0_BLOCK_BYTES};

/// Which block codec a matrix uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QuantScheme {
    /// 4-bit groups of 32 (4.5 bits per weight).
    Q4_0,
    /// 8-bit groups of 32 (8.5 bits per weight).
    Q8_0,
}

impl QuantScheme {
    /// Serialized bytes per 32-element block.
    pub fn block_bytes(self) -> usize {
        match self {
            QuantScheme::Q4_0 => Q4_0_BLOCK_BYTES,
            QuantScheme::Q8_0 => Q8_0_BLOCK_BYTES,
        }
    }

    /// Effective bits per weight including the scale.
    pub fn bits_per_weight(self) -> f64 {
        self.block_bytes() as f64 * 8.0 / GROUP_SIZE as f64
    }
}

/// The element ordering that groups are formed over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WeightLayout {
    /// Conventional: groups along each output column (k-major).
    ColumnMajorGroups,
    /// Paper Section 5.1.1: groups in HMX tile memory order.
    HmxTileGroups,
}

/// A quantized weight matrix: AoS blocks in layout order.
#[derive(Clone, Debug)]
pub struct QuantizedMatrix {
    /// Accumulation dimension (rows of `W`, multiple of 32).
    pub k: usize,
    /// Output dimension (columns of `W`, multiple of 32).
    pub n: usize,
    /// Block codec.
    pub scheme: QuantScheme,
    /// Element ordering.
    pub layout: WeightLayout,
    /// Serialized blocks, `(k * n / 32) * block_bytes` bytes.
    pub bytes: Vec<u8>,
}

/// Groups per 32x32 HMX tile.
const GROUPS_PER_TILE: usize = TILE_DIM * TILE_DIM / GROUP_SIZE;

/// Offsets, from a group's first element, of its 32 elements in row-major
/// `W[k][n]`, in group order.
///
/// A tile group is a 2x16 sub-tile read in the two-row interleave of
/// Figure 4a, so element `i` sits in row `i % 2` and column `i / 2` of it;
/// a column-major group is 32 consecutive rows of one column.
fn group_offsets(layout: WeightLayout, n: usize) -> [usize; GROUP_SIZE] {
    std::array::from_fn(|i| match layout {
        WeightLayout::ColumnMajorGroups => i * n,
        WeightLayout::HmxTileGroups => (i % 2) * n + i / 2,
    })
}

/// Visits every group of a `[k, n]` matrix once, as `f(block, base)`:
/// `block` is the group's index in layout order and `base` the flat
/// row-major index of its first element (add [`group_offsets`] for the
/// rest).
///
/// The walk goes one 32-row strip (k-tile) at a time, the loop the HMX runs
/// over tiles, so the rows it reads stay in cache. Within a strip, tile
/// groups go n-tile by n-tile and column-major groups column by column.
fn for_each_group(layout: WeightLayout, k: usize, n: usize, mut f: impl FnMut(usize, usize)) {
    let k_tiles = k / TILE_DIM;
    for kt in 0..k_tiles {
        let strip = kt * TILE_DIM * n;
        match layout {
            // Column `col` holds its k-tiles as blocks `col * k_tiles ..`.
            WeightLayout::ColumnMajorGroups => {
                for col in 0..n {
                    f(col * k_tiles + kt, strip + col);
                }
            }
            // Column-major tiles (k-tile fastest, Figure 4b); inside a tile,
            // group `g` covers rows `2 * (g / 2)..+2`, columns
            // `16 * (g % 2)..+16`.
            WeightLayout::HmxTileGroups => {
                for nt in 0..n / TILE_DIM {
                    let first = (nt * k_tiles + kt) * GROUPS_PER_TILE;
                    for g in 0..GROUPS_PER_TILE {
                        let base = strip + (g / 2) * 2 * n + nt * TILE_DIM + (g % 2) * 16;
                        f(first + g, base);
                    }
                }
            }
        }
    }
}

impl QuantizedMatrix {
    /// Quantizes a row-major `[k, n]` f32 matrix.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `n` is not a multiple of 32 or if `weights` has the
    /// wrong length.
    pub fn quantize(
        weights: &[f32],
        k: usize,
        n: usize,
        scheme: QuantScheme,
        layout: WeightLayout,
    ) -> Self {
        assert_eq!(weights.len(), k * n, "weight length mismatch");
        assert!(
            k.is_multiple_of(TILE_DIM) && n.is_multiple_of(TILE_DIM),
            "dims must be x32"
        );
        let block_bytes = scheme.block_bytes();
        let mut bytes = vec![0u8; k * n / GROUP_SIZE * block_bytes];
        let offsets = group_offsets(layout, n);
        let mut group = [0.0f32; GROUP_SIZE];
        for_each_group(layout, k, n, |block, base| {
            for (g, &off) in group.iter_mut().zip(&offsets) {
                *g = weights[base + off];
            }
            let dst = &mut bytes[block * block_bytes..(block + 1) * block_bytes];
            match scheme {
                QuantScheme::Q4_0 => dst.copy_from_slice(&BlockQ4_0::quantize(&group).to_bytes()),
                QuantScheme::Q8_0 => dst.copy_from_slice(&BlockQ8_0::quantize(&group).to_bytes()),
            }
        });
        QuantizedMatrix {
            k,
            n,
            scheme,
            layout,
            bytes,
        }
    }

    /// Number of 32-element blocks.
    pub fn num_blocks(&self) -> usize {
        self.k * self.n / GROUP_SIZE
    }

    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Parses block `idx` as Q4_0.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not Q4_0 or `idx` is out of range.
    pub fn block_q4(&self, idx: usize) -> BlockQ4_0 {
        assert_eq!(self.scheme, QuantScheme::Q4_0);
        let off = idx * Q4_0_BLOCK_BYTES;
        BlockQ4_0::from_bytes(&self.bytes[off..off + Q4_0_BLOCK_BYTES])
    }

    /// Parses block `idx` as Q8_0.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not Q8_0 or `idx` is out of range.
    pub fn block_q8(&self, idx: usize) -> BlockQ8_0 {
        assert_eq!(self.scheme, QuantScheme::Q8_0);
        let off = idx * Q8_0_BLOCK_BYTES;
        BlockQ8_0::from_bytes(&self.bytes[off..off + Q8_0_BLOCK_BYTES])
    }

    /// Dequantizes back to a row-major `[k, n]` f32 matrix (inverting the
    /// layout permutation), for error measurement and reference math.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.k * self.n];
        let offsets = group_offsets(self.layout, self.n);
        for_each_group(self.layout, self.k, self.n, |block, base| {
            let vals: [f32; GROUP_SIZE] = match self.scheme {
                QuantScheme::Q4_0 => self.block_q4(block).dequantize(),
                QuantScheme::Q8_0 => self.block_q8(block).dequantize(),
            };
            for (&v, &off) in vals.iter().zip(&offsets) {
                out[base + off] = v;
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use hexsim::hmx::tile_elem_offset;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::synth::gaussian_matrix;

    /// Oracle: flat element index (into row-major `W[k][n]`) of the `pos`-th
    /// element in the HMX stream order: column-major tiles, two-row
    /// interleave inside.
    fn hmx_stream_index(pos: usize, k: usize, n: usize) -> usize {
        let tile_elems = TILE_DIM * TILE_DIM;
        let k_tiles = k / TILE_DIM;
        let tile_idx = pos / tile_elems;
        let within = pos % tile_elems;
        // Column-major tile order: k-tile varies fastest (Figure 4b).
        let n_tile = tile_idx / k_tiles;
        let k_tile = tile_idx % k_tiles;
        // Invert the interleaved within-tile offset: offset -> (row, col).
        let pair = within / (TILE_DIM * 2);
        let slot = within % (TILE_DIM * 2);
        let col = slot / 2;
        let row = pair * 2 + slot % 2;
        debug_assert_eq!(tile_elem_offset(row, col), within * 2);
        let kk = k_tile * TILE_DIM + row;
        let nn = n_tile * TILE_DIM + col;
        kk * n + nn
    }

    /// Oracle: flat element index of the `pos`-th element in conventional
    /// column-major group order (whole column of `W`, k-major, column by
    /// column).
    fn colmajor_stream_index(pos: usize, k: usize, n: usize) -> usize {
        let col = pos / k;
        let row = pos % k;
        row * n + col
    }

    fn stream_index(layout: WeightLayout, pos: usize, k: usize, n: usize) -> usize {
        match layout {
            WeightLayout::ColumnMajorGroups => colmajor_stream_index(pos, k, n),
            WeightLayout::HmxTileGroups => hmx_stream_index(pos, k, n),
        }
    }

    /// Oracle `quantize`: gathers each block element by element.
    fn quantize_oracle(
        w: &[f32],
        k: usize,
        n: usize,
        scheme: QuantScheme,
        layout: WeightLayout,
    ) -> Vec<u8> {
        let mut bytes = Vec::new();
        for b in 0..k * n / GROUP_SIZE {
            let group: [f32; GROUP_SIZE] =
                std::array::from_fn(|i| w[stream_index(layout, b * GROUP_SIZE + i, k, n)]);
            match scheme {
                QuantScheme::Q4_0 => {
                    bytes.extend_from_slice(&BlockQ4_0::quantize(&group).to_bytes())
                }
                QuantScheme::Q8_0 => {
                    bytes.extend_from_slice(&BlockQ8_0::quantize(&group).to_bytes())
                }
            }
        }
        bytes
    }

    /// Oracle `dequantize`: scatters each block element by element.
    fn dequantize_oracle(qm: &QuantizedMatrix) -> Vec<f32> {
        let mut out = vec![0.0f32; qm.k * qm.n];
        for b in 0..qm.num_blocks() {
            let vals = match qm.scheme {
                QuantScheme::Q4_0 => qm.block_q4(b).dequantize(),
                QuantScheme::Q8_0 => qm.block_q8(b).dequantize(),
            };
            for (i, v) in vals.into_iter().enumerate() {
                out[stream_index(qm.layout, b * GROUP_SIZE + i, qm.k, qm.n)] = v;
            }
        }
        out
    }

    #[test]
    fn strip_walk_matches_per_element_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x57a1_9e0d);
        for case in 0..24u64 {
            let k = 32 * rng.gen_range(1..=8usize);
            let n = 32 * rng.gen_range(1..=8usize);
            let w = gaussian_matrix(k, n, case, 1.0, 0.02);
            for layout in [WeightLayout::ColumnMajorGroups, WeightLayout::HmxTileGroups] {
                // The walk visits every block exactly once and places every
                // element where the oracle does.
                let offsets = group_offsets(layout, n);
                let mut visits = vec![0u32; k * n / GROUP_SIZE];
                for_each_group(layout, k, n, |block, base| {
                    visits[block] += 1;
                    for (i, &off) in offsets.iter().enumerate() {
                        let pos = block * GROUP_SIZE + i;
                        assert_eq!(base + off, stream_index(layout, pos, k, n));
                    }
                });
                assert!(visits.iter().all(|&v| v == 1), "{k}x{n} {layout:?}");
                for scheme in [QuantScheme::Q4_0, QuantScheme::Q8_0] {
                    let qm = QuantizedMatrix::quantize(&w, k, n, scheme, layout);
                    let what = format!("{k}x{n} {layout:?} {scheme:?}");
                    assert_eq!(
                        qm.bytes,
                        quantize_oracle(&w, k, n, scheme, layout),
                        "{what}"
                    );
                    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
                    assert_eq!(
                        bits(qm.dequantize()),
                        bits(dequantize_oracle(&qm)),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn hmx_stream_is_a_permutation() {
        let (k, n) = (64, 96);
        let mut seen = vec![false; k * n];
        for pos in 0..k * n {
            let flat = hmx_stream_index(pos, k, n);
            assert!(!seen[flat], "duplicate at pos {pos}");
            seen[flat] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn hmx_stream_groups_are_2x16_subtiles() {
        // Paper Section 5.1.1: a 32-element group in the new order covers
        // 2 rows x 16 columns of the original matrix.
        let (k, n) = (64, 64);
        let mut rows = std::collections::BTreeSet::new();
        let mut cols = std::collections::BTreeSet::new();
        for i in 0..GROUP_SIZE {
            let flat = hmx_stream_index(i, k, n);
            rows.insert(flat / n);
            cols.insert(flat % n);
        }
        assert_eq!(rows.len(), 2);
        assert_eq!(cols.len(), 16);
    }

    #[test]
    fn hmx_stream_tiles_are_column_major() {
        // The second tile in stream order must be the next k-tile of the
        // same n-tile column (inner product at tile level, Figure 4b).
        let (k, n) = (64, 64);
        let first_of_tile1 = hmx_stream_index(TILE_DIM * TILE_DIM, k, n);
        let row = first_of_tile1 / n;
        let col = first_of_tile1 % n;
        assert_eq!(row, 32, "second tile should advance along k");
        assert_eq!(col, 0);
    }

    #[test]
    fn colmajor_stream_walks_columns() {
        let (k, n) = (64, 32);
        assert_eq!(colmajor_stream_index(0, k, n), 0);
        assert_eq!(colmajor_stream_index(1, k, n), n); // Next row, same col.
        assert_eq!(colmajor_stream_index(k, k, n), 1); // Next column.
    }

    #[test]
    fn quantize_dequantize_preserves_shape_and_error() {
        let (k, n) = (64, 64);
        let w = gaussian_matrix(k, n, 42, 1.0, 0.0);
        for layout in [WeightLayout::ColumnMajorGroups, WeightLayout::HmxTileGroups] {
            let qm = QuantizedMatrix::quantize(&w, k, n, QuantScheme::Q4_0, layout);
            assert_eq!(qm.num_blocks(), k * n / 32);
            let deq = qm.dequantize();
            assert_eq!(deq.len(), w.len());
            let mse: f32 = w
                .iter()
                .zip(&deq)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                / w.len() as f32;
            assert!(mse < 0.02, "layout {layout:?} mse {mse}");
        }
    }

    #[test]
    fn tile_group_error_comparable_to_conventional() {
        // Paper Table 4's premise: tile grouping does not meaningfully change
        // quantization error for zero-mean Gaussian-ish weights.
        let (k, n) = (128, 128);
        let w = gaussian_matrix(k, n, 7, 1.0, 0.0);
        let mse = |layout| {
            let qm = QuantizedMatrix::quantize(&w, k, n, QuantScheme::Q4_0, layout);
            let deq = qm.dequantize();
            w.iter()
                .zip(&deq)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                / w.len() as f32
        };
        let conv = mse(WeightLayout::ColumnMajorGroups);
        let tile = mse(WeightLayout::HmxTileGroups);
        let ratio = tile / conv;
        assert!(
            (0.8..1.25).contains(&ratio),
            "tile/conventional mse ratio {ratio}"
        );
    }

    #[test]
    fn q8_layouts_roundtrip_tightly() {
        let (k, n) = (32, 64);
        let w = gaussian_matrix(k, n, 3, 1.0, 0.0);
        let qm =
            QuantizedMatrix::quantize(&w, k, n, QuantScheme::Q8_0, WeightLayout::HmxTileGroups);
        let deq = qm.dequantize();
        let max_err = w
            .iter()
            .zip(&deq)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 0.05, "max_err {max_err}");
    }

    #[test]
    fn bits_per_weight() {
        assert!((QuantScheme::Q4_0.bits_per_weight() - 4.5).abs() < 1e-12);
        assert!((QuantScheme::Q8_0.bits_per_weight() - 8.5).abs() < 1e-12);
    }

    #[test]
    fn byte_len_matches_scheme() {
        let (k, n) = (32, 32);
        let w = vec![0.5f32; k * n];
        let q4 =
            QuantizedMatrix::quantize(&w, k, n, QuantScheme::Q4_0, WeightLayout::HmxTileGroups);
        assert_eq!(q4.byte_len(), 32 * 18);
        let q8 =
            QuantizedMatrix::quantize(&w, k, n, QuantScheme::Q8_0, WeightLayout::HmxTileGroups);
        assert_eq!(q8.byte_len(), 32 * 34);
    }
}
