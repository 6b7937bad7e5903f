//! HMX matrix engine: 32x32 FP16 tiles with the two-level interleaved
//! memory layout of paper Figure 4.
//!
//! The basic HMX data unit is a *tile*: a 32x32 FP16 matrix occupying 2 KiB
//! of TCM. Within a tile, every two rows are permuted so that the pair is
//! stored like the transposed 2x32 sub-matrix: `a0,b0,a1,b1,...,a31,b31`
//! (Figure 4a). At the GEMM level, weight tiles are laid out column-major
//! (the k-dimension tiles of one output column are contiguous) because the
//! hardware performs an inner product at tile granularity (Figure 4b).
//!
//! The engine multiplies an activation tile by a weight tile and accumulates
//! into an internal higher-precision accumulator; on writeback it can scale
//! and bias each output channel (column) before converting to FP16.

use crate::f16::F16;

/// Rows/columns of an HMX tile.
pub const TILE_DIM: usize = 32;
/// Bytes occupied by one FP16 tile in TCM.
pub const TILE_BYTES: usize = TILE_DIM * TILE_DIM * 2;

/// Byte offset of element `(row, col)` inside an interleaved FP16 tile.
///
/// Rows are processed in pairs; within pair `p = row / 2` the element order
/// is `(p, col, row % 2)`, i.e. the pair is stored as the transposed 2x32
/// sub-matrix (paper Figure 4a).
///
/// # Panics
///
/// Panics if `row` or `col` is out of range.
#[inline]
pub fn tile_elem_offset(row: usize, col: usize) -> usize {
    assert!(row < TILE_DIM && col < TILE_DIM, "tile index out of range");
    let pair = row / 2;
    let within = col * 2 + (row % 2);
    (pair * (TILE_DIM * 2) + within) * 2
}

/// Packs a row-major 32x32 FP16 matrix into the interleaved tile byte
/// layout.
pub fn pack_tile(rows: &[[F16; TILE_DIM]; TILE_DIM]) -> [u8; TILE_BYTES] {
    let mut out = [0u8; TILE_BYTES];
    for (r, row) in rows.iter().enumerate() {
        for (c, v) in row.iter().enumerate() {
            let off = tile_elem_offset(r, c);
            out[off..off + 2].copy_from_slice(&v.0.to_le_bytes());
        }
    }
    out
}

/// Unpacks an interleaved tile back into a row-major 32x32 FP16 matrix.
///
/// # Panics
///
/// Panics if `bytes` is shorter than [`TILE_BYTES`].
pub fn unpack_tile(bytes: &[u8]) -> [[F16; TILE_DIM]; TILE_DIM] {
    let mut out = [[F16::ZERO; TILE_DIM]; TILE_DIM];
    for (r, row) in out.iter_mut().enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            let off = tile_elem_offset(r, c);
            *v = F16(u16::from_le_bytes([bytes[off], bytes[off + 1]]));
        }
    }
    out
}

/// Linear tile index of weight tile `(k_tile, n_tile)` in the column-major
/// tile layout of paper Figure 4b, for a weight matrix with `k_tiles` tiles
/// along the accumulation dimension.
#[inline]
pub fn weight_tile_index(k_tile: usize, n_tile: usize, k_tiles: usize) -> usize {
    n_tile * k_tiles + k_tile
}

/// The HMX internal accumulator: a 32x32 FP32 matrix.
///
/// FP16 HMX accumulates in higher precision internally (paper Section
/// 5.2.1); the simulator uses FP32, matching the `AccumType=FP32`
/// annotations in the paper's Algorithm 1.
#[derive(Clone)]
pub struct HmxAccumulator(pub [[f32; TILE_DIM]; TILE_DIM]);

impl Default for HmxAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl HmxAccumulator {
    /// A zeroed accumulator.
    pub const fn new() -> Self {
        HmxAccumulator([[0.0f32; TILE_DIM]; TILE_DIM])
    }

    /// Resets all entries to zero.
    pub fn clear(&mut self) {
        for row in self.0.iter_mut() {
            row.fill(0.0);
        }
    }

    /// Accumulates `act x wgt` (both row-major 32x32, FP16 inputs upcast to
    /// FP32 for the MAC, like the hardware's internal precision).
    #[allow(clippy::needless_range_loop)]
    pub fn mac(&mut self, act: &[[F16; TILE_DIM]; TILE_DIM], wgt: &[[F16; TILE_DIM]; TILE_DIM]) {
        for i in 0..TILE_DIM {
            for k in 0..TILE_DIM {
                let a = act[i][k].to_f32();
                if a == 0.0 {
                    continue;
                }
                for j in 0..TILE_DIM {
                    self.0[i][j] += a * wgt[k][j].to_f32();
                }
            }
        }
    }

    /// Converts the accumulator to an FP16 tile, applying optional
    /// per-column (output channel) scale and bias first — the HMX writeback
    /// path of paper Section 3.1.2.
    #[allow(clippy::needless_range_loop)]
    pub fn to_tile(
        &self,
        scale: Option<&[f32; TILE_DIM]>,
        bias: Option<&[f32; TILE_DIM]>,
    ) -> [[F16; TILE_DIM]; TILE_DIM] {
        let mut out = [[F16::ZERO; TILE_DIM]; TILE_DIM];
        for i in 0..TILE_DIM {
            for j in 0..TILE_DIM {
                let mut v = self.0[i][j];
                if let Some(s) = scale {
                    v *= s[j];
                }
                if let Some(b) = bias {
                    v += b[j];
                }
                out[i][j] = F16::from_f32(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tile(start: f32) -> [[F16; TILE_DIM]; TILE_DIM] {
        let mut t = [[F16::ZERO; TILE_DIM]; TILE_DIM];
        for (r, row) in t.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = F16::from_f32(start + ((r * 7 + c * 3) % 13) as f32 - 6.0);
            }
        }
        t
    }

    #[test]
    fn tile_offsets_match_figure_4a() {
        // Pair (row0,row1) stored as a0,b0,a1,b1,...
        assert_eq!(tile_elem_offset(0, 0), 0);
        assert_eq!(tile_elem_offset(1, 0), 2);
        assert_eq!(tile_elem_offset(0, 1), 4);
        assert_eq!(tile_elem_offset(1, 1), 6);
        // Second pair starts after 2 rows * 32 cols * 2 bytes = 128 bytes.
        assert_eq!(tile_elem_offset(2, 0), 128);
        assert_eq!(tile_elem_offset(31, 31), TILE_BYTES - 2);
    }

    #[test]
    fn tile_offsets_are_a_permutation() {
        let mut seen = vec![false; TILE_DIM * TILE_DIM];
        for r in 0..TILE_DIM {
            for c in 0..TILE_DIM {
                let off = tile_elem_offset(r, c);
                assert_eq!(off % 2, 0);
                let slot = off / 2;
                assert!(!seen[slot], "offset collision at ({r},{c})");
                seen[slot] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let t = seq_tile(0.5);
        let bytes = pack_tile(&t);
        let back = unpack_tile(&bytes);
        for r in 0..TILE_DIM {
            for c in 0..TILE_DIM {
                assert_eq!(t[r][c], back[r][c]);
            }
        }
    }

    #[test]
    fn weight_tiles_column_major() {
        // For k_tiles = 4: tile (k=1, n=2) sits at 2*4 + 1.
        assert_eq!(weight_tile_index(1, 2, 4), 9);
        assert_eq!(weight_tile_index(0, 0, 4), 0);
        assert_eq!(weight_tile_index(3, 0, 4), 3);
    }

    #[test]
    fn mac_matches_reference_matmul() {
        let a = seq_tile(1.0);
        let b = seq_tile(-2.0);
        let mut acc = HmxAccumulator::new();
        acc.mac(&a, &b);
        // Reference: plain f32 triple loop.
        for i in [0usize, 7, 31] {
            for j in [0usize, 13, 31] {
                let mut expect = 0.0f32;
                for k in 0..TILE_DIM {
                    expect += a[i][k].to_f32() * b[k][j].to_f32();
                }
                assert!((acc.0[i][j] - expect).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn accumulator_accumulates_across_macs() {
        let a = seq_tile(1.0);
        let b = seq_tile(0.0);
        let mut acc1 = HmxAccumulator::new();
        acc1.mac(&a, &b);
        acc1.mac(&a, &b);
        let mut acc2 = HmxAccumulator::new();
        acc2.mac(&a, &b);
        for i in 0..TILE_DIM {
            for j in 0..TILE_DIM {
                assert!((acc1.0[i][j] - 2.0 * acc2.0[i][j]).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn writeback_scale_and_bias_per_column() {
        let mut acc = HmxAccumulator::new();
        for i in 0..TILE_DIM {
            for j in 0..TILE_DIM {
                acc.0[i][j] = 1.0;
            }
        }
        let mut scale = [1.0f32; TILE_DIM];
        scale[3] = 2.0;
        let mut bias = [0.0f32; TILE_DIM];
        bias[5] = -4.0;
        let tile = acc.to_tile(Some(&scale), Some(&bias));
        assert_eq!(tile[0][0].to_f32(), 1.0);
        assert_eq!(tile[9][3].to_f32(), 2.0);
        assert_eq!(tile[9][5].to_f32(), -3.0);
    }

    #[test]
    fn clear_resets() {
        let mut acc = HmxAccumulator::new();
        acc.0[1][1] = 5.0;
        acc.clear();
        assert_eq!(acc.0[1][1], 0.0);
    }
}
