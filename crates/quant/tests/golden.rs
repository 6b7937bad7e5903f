//! Golden pin of the serialized weight format.
//!
//! `quantize` and `dequantize` share one group walk, so a change applied the
//! same way to both would still round-trip. These digests pin the bytes
//! `quantize` emits and the reconstruction error `dequantize` yields for one
//! fixed seeded matrix per layout and scheme, so any drift in the weight
//! format fails here.

use tilequant::synth::gaussian_matrix;
use tilequant::{QuantError, QuantScheme, QuantizedMatrix, WeightLayout};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(layout, scheme, FNV-1a of quantize bytes, FNV-1a of QuantError rmse bits)`.
const GOLDEN: [(WeightLayout, QuantScheme, u64, u64); 4] = [
    (
        WeightLayout::ColumnMajorGroups,
        QuantScheme::Q4_0,
        0x76dd_5ec7_0b96_c59c,
        0xf903_b0dd_9151_d9c2,
    ),
    (
        WeightLayout::ColumnMajorGroups,
        QuantScheme::Q8_0,
        0xbd8f_699f_af35_eaa9,
        0x428e_0255_bb4b_ac3d,
    ),
    (
        WeightLayout::HmxTileGroups,
        QuantScheme::Q4_0,
        0x9303_06e0_a01a_6851,
        0x1591_b27e_f095_3749,
    ),
    (
        WeightLayout::HmxTileGroups,
        QuantScheme::Q8_0,
        0xf866_a6aa_8cc3_6b6c,
        0x26a6_9763_87db_e1cd,
    ),
];

#[test]
fn weight_format_matches_golden_digests() {
    let (k, n) = (256, 512);
    let w = gaussian_matrix(k, n, 0x601d, 1.0, 0.01);
    let got: Vec<_> = GOLDEN
        .iter()
        .map(|&(layout, scheme, ..)| {
            let qm = QuantizedMatrix::quantize(&w, k, n, scheme, layout);
            let rmse = QuantError::measure(&w, &qm.dequantize()).rmse;
            (
                layout,
                scheme,
                fnv1a(&qm.bytes),
                fnv1a(&rmse.to_bits().to_le_bytes()),
            )
        })
        .collect();
    assert_eq!(got, GOLDEN, "serialized weight format drifted");
}
