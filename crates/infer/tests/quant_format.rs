//! Hostile-input decode tests for the NDINF2 quantized weight sections,
//! mirroring the PR 2 container fuzz: truncation at every offset, seeded
//! bit flips, duplicate container entries, and hand-crafted sections with
//! out-of-range scales, overflowing deltas, bad padding and illegal values.
//! `Artifact::decode` must reject (or survive) all of it without panicking.

use std::collections::BTreeMap;
use std::sync::Arc;

use ndsnn::checkpoint::encode_blobs;
use ndsnn::recovery::BlobWriter;
use ndsnn_infer::{
    quantize_artifact, Artifact, Executor, Manifest, Op, QuantOptions, QuantWeight, WeightStore,
};
use ndsnn_tensor::Tensor;

/// Flatten → LIF → quantized linear: the smallest artifact that exercises
/// every NDINF2 section (scales, int8 values, index stream).
fn quantized_artifact() -> Artifact {
    let w = Tensor::from_vec(
        [3, 8],
        vec![
            1.0, 0.0, -0.5, 0.0, 0.25, 0.0, 0.0, 0.75, //
            0.0, 2.0, 0.0, -1.0, 0.0, 0.5, 0.0, 0.0, //
            0.125, 0.0, 0.0, 0.0, -0.25, 0.0, 1.5, 0.0,
        ],
    )
    .unwrap();
    let art = Artifact {
        manifest: Manifest {
            arch: "hostile".to_string(),
            timesteps: 2,
            in_channels: 2,
            image_size: 2,
            num_classes: 3,
            mask_digest: 0,
            config_json: "{}".to_string(),
            densities: vec![],
        },
        ops: vec![
            Op::Flatten {
                name: "f".to_string(),
            },
            Op::Lif {
                name: "lif".to_string(),
                alpha: 0.5,
                v_threshold: 0.5,
                hard_reset: false,
            },
            Op::Linear {
                name: "fc".to_string(),
                out_features: 3,
                in_features: 8,
                weight: WeightStore::Dense(w),
                bias: None,
            },
        ],
    };
    let (qart, rows) = quantize_artifact(&art, &QuantOptions::default()).unwrap();
    assert!(qart.is_quantized(), "fc must quantize: {rows:?}");
    qart
}

#[test]
fn quantized_round_trip_is_stable() {
    let art = quantized_artifact();
    let bytes = art.encode();
    let back = Artifact::decode(&bytes).expect("round trip");
    assert!(back.is_quantized());
    assert_eq!(back.encode(), bytes, "re-encode must be byte-identical");
}

#[test]
fn truncation_at_every_offset_is_rejected() {
    let bytes = quantized_artifact().encode();
    for n in 0..bytes.len() {
        assert!(
            Artifact::decode(&bytes[..n]).is_err(),
            "decode accepted a {n}-byte prefix of a {}-byte artifact",
            bytes.len()
        );
    }
}

#[test]
fn container_bit_flips_are_rejected() {
    // CRC32 detects every single-bit error inside an entry; header flips
    // fail structural parsing. Either way: an error, never a panic.
    let bytes = quantized_artifact().encode();
    let mut s = 0x9E3779B9u64;
    for _ in 0..512 {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let bit = (s >> 16) as usize % (bytes.len() * 8);
        let mut evil = bytes.clone();
        evil[bit / 8] ^= 1 << (bit % 8);
        assert!(
            Artifact::decode(&evil).is_err(),
            "decode accepted a flip of bit {bit}"
        );
    }
}

/// Re-wraps a mutated graph blob in a *valid* container so the CRC passes
/// and the section decoders themselves face the hostile bytes.
fn container_with_graph(graph: Vec<u8>) -> Vec<u8> {
    let art = quantized_artifact();
    let entries = ndsnn::checkpoint::decode_blobs(&art.encode()).unwrap();
    let mut out = BTreeMap::new();
    out.insert("manifest".to_string(), entries["manifest"].clone());
    out.insert("graph".to_string(), graph);
    encode_blobs(&out)
}

#[test]
fn graph_blob_truncation_at_every_offset_is_rejected() {
    let art = quantized_artifact();
    let entries = ndsnn::checkpoint::decode_blobs(&art.encode()).unwrap();
    let graph = &entries["graph"];
    for n in 0..graph.len() {
        assert!(
            Artifact::decode(&container_with_graph(graph[..n].to_vec())).is_err(),
            "decode accepted a {n}-byte graph prefix"
        );
    }
}

#[test]
fn graph_blob_bit_flips_never_panic() {
    // Behind a valid CRC, a flipped section byte may still decode to a
    // *different valid* artifact (e.g. an int8 value bit). The pinned
    // guarantee is weaker but crucial: no panic, and anything accepted is
    // internally consistent enough to re-encode and run.
    let art = quantized_artifact();
    let entries = ndsnn::checkpoint::decode_blobs(&art.encode()).unwrap();
    let graph = &entries["graph"];
    let images =
        Tensor::from_vec([1, 2, 2, 2], vec![0.9, 0.1, 0.4, 0.8, 0.2, 0.7, 0.3, 0.6]).unwrap();
    let mut s = 0xC0FFEEu64;
    for _ in 0..256 {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let bit = (s >> 16) as usize % (graph.len() * 8);
        let mut evil = graph.clone();
        evil[bit / 8] ^= 1 << (bit % 8);
        if let Ok(art) = Artifact::decode(&container_with_graph(evil)) {
            art.encode();
            // Shape-level corruption surfaces as a runtime error, not UB.
            let _ = Executor::new(Arc::new(art)).forward(&images);
        }
    }
}

#[test]
fn duplicate_container_sections_are_rejected() {
    // Splice a second copy of the "graph" entry into the container and bump
    // the entry count: decode_blobs must refuse the shadowing entry.
    let art = quantized_artifact();
    let full = art.encode();
    let entries = ndsnn::checkpoint::decode_blobs(&full).unwrap();
    let mut one = BTreeMap::new();
    one.insert("graph".to_string(), entries["graph"].clone());
    let single = encode_blobs(&one);
    let header = 8 + 4; // magic + entry count
    let mut evil = full.clone();
    evil[8..12].copy_from_slice(&3u32.to_le_bytes());
    evil.extend_from_slice(&single[header..]);
    let err = Artifact::decode(&evil).unwrap_err();
    assert!(
        err.to_string().contains("duplicate"),
        "expected duplicate-entry rejection, got: {err}"
    );
}

// ---- Hand-crafted NDINF2 sections -------------------------------------

/// Minimal manifest blob with a chosen magic/version pair.
fn manifest_blob(magic: &str, version: u64) -> Vec<u8> {
    let mut w = BlobWriter::new();
    w.put_str(magic);
    w.put_u64(version);
    w.put_str("crafted");
    w.put_usize(1); // timesteps
    w.put_usize(1); // in_channels
    w.put_usize(2); // image_size
    w.put_usize(2); // num_classes
    w.put_u64(0); // mask digest
    w.put_str("{}");
    w.put_usize(0); // densities
    w.finish()
}

/// One-op graph (`Linear` 2×40) whose weight store bytes come from `store`.
fn crafted_artifact(magic: &str, version: u64, store: impl FnOnce(&mut BlobWriter)) -> Vec<u8> {
    let mut g = BlobWriter::new();
    g.put_usize(1);
    g.put_u8(0); // Linear op tag
    g.put_str("fc");
    g.put_usize(2); // out_features
    g.put_usize(40); // in_features
    store(&mut g);
    g.put_u8(0); // no bias
    let mut entries = BTreeMap::new();
    entries.insert("manifest".to_string(), manifest_blob(magic, version));
    entries.insert("graph".to_string(), g.finish());
    encode_blobs(&entries)
}

/// Valid 2×40 quantized store: row 0 holds cols {0, 2}, row 1 holds {1}.
/// Its delta-varint stream (5 bytes) is smaller than its bitmap (10), so
/// the writer keeps tag 1. Callers override individual fields to make it
/// hostile.
fn quant_store(w: &mut BlobWriter, encoding_tag: u8, scales: &[f32], values: &[u8], stream: &[u8]) {
    w.put_u8(2); // store kind: QuantCsr
    w.put_usize(2);
    w.put_usize(40);
    w.put_u8(encoding_tag);
    w.put_usize(scales.len());
    for &sv in scales {
        w.put_f32(sv);
    }
    w.put_bytes(values);
    w.put_bytes(stream);
}

const GOOD_SCALES: [f32; 2] = [0.25, 0.5];
const GOOD_VALUES: [u8; 3] = [3, 251 /* -5 */, 7];
/// Delta-varint: row 0 `count=2, first=0, gap=2`; row 1 `count=1, first=1`.
const GOOD_DELTA: [u8; 5] = [2, 0, 2, 1, 1];

fn decode_crafted(store: impl FnOnce(&mut BlobWriter)) -> ndsnn_infer::Result<Artifact> {
    Artifact::decode(&crafted_artifact("NDINF2", 2, store))
}

#[test]
fn crafted_baseline_store_decodes() {
    let art = decode_crafted(|w| quant_store(w, 1, &GOOD_SCALES, &GOOD_VALUES, &GOOD_DELTA))
        .expect("baseline must decode");
    assert!(art.is_quantized());
}

#[test]
fn quant_store_in_version1_artifact_is_rejected() {
    let bytes = crafted_artifact("NDINF1", 1, |w| {
        quant_store(w, 1, &GOOD_SCALES, &GOOD_VALUES, &GOOD_DELTA)
    });
    let err = Artifact::decode(&bytes).unwrap_err();
    assert!(
        err.to_string().contains("version-1"),
        "expected version gate, got: {err}"
    );
}

#[test]
fn mismatched_magic_version_pairs_are_rejected() {
    for (magic, version) in [("NDINF2", 1), ("NDINF1", 2), ("NDINF9", 1)] {
        let bytes = crafted_artifact(magic, version, |w| {
            quant_store(w, 1, &GOOD_SCALES, &GOOD_VALUES, &GOOD_DELTA)
        });
        assert!(
            Artifact::decode(&bytes).is_err(),
            "accepted magic {magic:?} v{version}"
        );
    }
}

#[test]
fn out_of_range_scales_are_rejected() {
    for bad in [f32::NAN, f32::INFINITY, -0.25] {
        assert!(
            decode_crafted(|w| quant_store(w, 1, &[bad, 0.5], &GOOD_VALUES, &GOOD_DELTA)).is_err(),
            "accepted scale {bad}"
        );
    }
    // Zero scale on a non-empty row breaks the scale⇔occupancy invariant.
    assert!(decode_crafted(|w| quant_store(w, 1, &[0.0, 0.5], &GOOD_VALUES, &GOOD_DELTA)).is_err());
    // Scale count must equal the row count.
    assert!(decode_crafted(|w| quant_store(w, 1, &[0.25], &GOOD_VALUES, &GOOD_DELTA)).is_err());
}

#[test]
fn minus_128_value_is_rejected() {
    // The symmetric grid never produces -128; a store carrying it is forged.
    assert!(
        decode_crafted(|w| quant_store(w, 1, &GOOD_SCALES, &[3, 0x80, 7], &GOOD_DELTA)).is_err()
    );
}

#[test]
fn delta_overflow_past_cols_is_rejected() {
    // Gap of 200 from col 0 lands far past cols = 40.
    assert!(
        decode_crafted(|w| quant_store(w, 1, &GOOD_SCALES, &GOOD_VALUES, &[2, 0, 200, 1, 1]))
            .is_err()
    );
    // Multi-byte varint pushing the accumulated column past u32.
    assert!(decode_crafted(|w| {
        quant_store(
            w,
            1,
            &GOOD_SCALES,
            &GOOD_VALUES,
            &[2, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 1],
        )
    })
    .is_err());
}

#[test]
fn zero_delta_gap_is_rejected() {
    // Gap 0 would duplicate a column; gaps are ≥ 1 by construction.
    assert!(
        decode_crafted(|w| quant_store(w, 1, &GOOD_SCALES, &GOOD_VALUES, &[2, 1, 0, 1, 1]))
            .is_err()
    );
}

#[test]
fn index_count_mismatch_is_rejected() {
    // Stream describes 2 entries but the value array has 3.
    assert!(
        decode_crafted(|w| quant_store(w, 1, &GOOD_SCALES, &GOOD_VALUES, &[1, 0, 1, 1])).is_err()
    );
}

#[test]
fn trailing_index_bytes_are_rejected() {
    let mut stream = GOOD_DELTA.to_vec();
    stream.push(0);
    assert!(decode_crafted(|w| quant_store(w, 1, &GOOD_SCALES, &GOOD_VALUES, &stream)).is_err());
}

#[test]
fn non_ascending_absolute_indices_are_rejected() {
    // Absolute rows are `varint count + LE u32 cols`; cols [2, 0] descend.
    let mut stream = Vec::new();
    stream.push(2);
    stream.extend_from_slice(&2u32.to_le_bytes());
    stream.extend_from_slice(&0u32.to_le_bytes());
    stream.push(1);
    stream.extend_from_slice(&1u32.to_le_bytes());
    assert!(decode_crafted(|w| quant_store(w, 2, &GOOD_SCALES, &GOOD_VALUES, &stream)).is_err());
}

/// Absolute index rows, which the writer never produces but the reader
/// accepts: a LEB128 entry count (one byte here, every count is below 128),
/// then each column as a little-endian `u32`.
fn absolute_stream(rows: &[&[u32]]) -> Vec<u8> {
    let mut out = Vec::new();
    for row in rows {
        out.push(row.len() as u8);
        for c in *row {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
    out
}

/// The quantized weight of a crafted one-linear artifact.
fn quant_weight(art: &Artifact) -> &QuantWeight {
    match &art.ops[0] {
        Op::Linear {
            weight: WeightStore::QuantCsr(q),
            ..
        } => q,
        op => panic!("expected a quantized linear, got {op:?}"),
    }
}

/// Logit bits of a crafted artifact's quantized weight, run as a linear
/// layer behind a flatten on a binary input.
fn forward_bits(art: &Artifact) -> Vec<u32> {
    let q = quant_weight(art);
    let (rows, cols) = q.csr().dims();
    let flatten = Op::Flatten {
        name: "f".to_string(),
    };
    let linear = Op::Linear {
        name: "fc".to_string(),
        out_features: rows,
        in_features: cols,
        weight: WeightStore::QuantCsr(q.clone()),
        bias: None,
    };
    let manifest = Manifest {
        in_channels: cols,
        image_size: 1,
        num_classes: rows,
        ..art.manifest.clone()
    };
    let ops = vec![flatten, linear];
    let fired = (0..cols).map(|c| f32::from(u8::from(c != 1))).collect();
    let images = Tensor::from_vec([1, cols, 1, 1], fired).unwrap();
    let logits = Executor::new(Arc::new(Artifact { manifest, ops }))
        .forward(&images)
        .unwrap();
    logits.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn absolute_encoded_store_still_loads() {
    // The GOOD_DELTA entries as absolute rows.
    let stream = absolute_stream(&[&[0, 2], &[1]]);
    let abs = decode_crafted(|w| quant_store(w, 2, &GOOD_SCALES, &GOOD_VALUES, &stream))
        .expect("tag-2 store decodes");
    let delta = decode_crafted(|w| quant_store(w, 1, &GOOD_SCALES, &GOOD_VALUES, &GOOD_DELTA))
        .expect("baseline decodes");
    let (a, d) = (quant_weight(&abs), quant_weight(&delta));
    assert_eq!((a.csr(), a.scales()), (d.csr(), d.scales()));
    assert_eq!(forward_bits(&abs), forward_bits(&delta));
    // Re-encoding writes the writer's choice, not the tag the store was
    // read with: exactly the tag-1 store.
    let tag1 = crafted_artifact("NDINF2", 2, |w| {
        quant_store(w, 1, &GOOD_SCALES, &GOOD_VALUES, &GOOD_DELTA)
    });
    assert_eq!(abs.encode(), tag1);
}

#[test]
fn nonzero_bitmap_padding_is_rejected() {
    // A 2×5 grid is 10 bits, so the second bitmap byte has 6 padding
    // bits; set one of them.
    let w = |pad_bit: bool| {
        move |bw: &mut BlobWriter| {
            bw.put_u8(2);
            bw.put_usize(2);
            bw.put_usize(5);
            bw.put_u8(0); // bitmap
            bw.put_usize(2);
            bw.put_f32(0.25);
            bw.put_f32(0.5);
            bw.put_bytes(&GOOD_VALUES);
            // Bits: row 0 cols {0,2} → byte0 bits 0,2; row 1 col 1 → global
            // bit 6. Padding bits are 10..16.
            let mut bits = [0b0100_0101u8, 0b0000_0000];
            if pad_bit {
                bits[1] |= 1 << 4; // global bit 12: padding
            }
            bw.put_bytes(&bits);
        }
    };
    assert!(
        decode_crafted(w(false)).is_ok(),
        "canonical bitmap must decode"
    );
    assert!(decode_crafted(w(true)).is_err(), "padding bit must reject");
}

#[test]
fn unknown_tags_are_rejected() {
    // Unknown index-encoding tag.
    assert!(
        decode_crafted(|w| quant_store(w, 9, &GOOD_SCALES, &GOOD_VALUES, &GOOD_DELTA)).is_err()
    );
    // Unknown weight-store kind.
    assert!(decode_crafted(|w| {
        w.put_u8(7);
    })
    .is_err());
}

#[test]
fn f32_csr_row_count_overflow_is_rejected() {
    // An f32 CSR store claiming `u64::MAX` rows with empty arrays: `rows + 1`
    // overflows, so validation must fail cleanly instead of panicking.
    let bytes = crafted_artifact("NDINF1", 1, |w| {
        w.put_u8(1); // store kind: Csr
        w.put_u64(u64::MAX); // rows
        w.put_usize(4); // cols
        w.put_usize(0); // values
        w.put_usize(0); // column indices
        w.put_usize(0); // row pointers
    });
    let err = Artifact::decode(&bytes).unwrap_err();
    assert!(err.to_string().contains("invalid CSR"), "{err}");
}

#[test]
fn quant_grid_overflow_is_rejected() {
    assert!(decode_crafted(|w| {
        w.put_u8(2);
        w.put_usize(usize::MAX);
        w.put_usize(usize::MAX);
        w.put_u8(1);
        w.put_usize(0);
    })
    .is_err());
}

// ---- Bias lengths ------------------------------------------------------

/// A bias must have one entry per output feature or channel. A short conv
/// bias made the fused conv + affine epilogue index past its end inside
/// `Executor::forward`; a long one, or a linear bias of any wrong length,
/// ran silently. Decode rejects all of them.
#[test]
fn bias_length_mismatch_is_rejected() {
    use ndsnn_tensor::ops::conv::Conv2dGeometry;
    let manifest = Manifest {
        arch: "bias".to_string(),
        timesteps: 1,
        in_channels: 1,
        image_size: 2,
        num_classes: 2,
        mask_digest: 0,
        config_json: "{}".to_string(),
        densities: vec![],
    };
    let conv = |bias_len: usize| {
        vec![
            Op::Conv2d {
                name: "conv".to_string(),
                geometry: Conv2dGeometry::square(1, 2, 1, 1, 0),
                weight: WeightStore::Dense(Tensor::ones([2, 1, 1, 1])),
                bias: Some(Tensor::ones([bias_len])),
            },
            Op::Affine {
                name: "bn".to_string(),
                mean: vec![0.0; 2],
                inv_std: vec![1.0; 2],
                gamma: vec![1.0; 2],
                beta: vec![0.0; 2],
            },
            Op::GlobalAvgPool {
                name: "gap".to_string(),
            },
        ]
    };
    let linear = |bias_len: usize| {
        vec![
            Op::Flatten {
                name: "f".to_string(),
            },
            Op::Linear {
                name: "fc".to_string(),
                out_features: 2,
                in_features: 4,
                weight: WeightStore::Dense(Tensor::ones([2, 4])),
                bias: Some(Tensor::ones([bias_len])),
            },
        ]
    };
    let images = Tensor::ones([1, 1, 2, 2]);
    for ops in [conv(2), linear(2)] {
        let art = Artifact {
            manifest: manifest.clone(),
            ops,
        };
        let back = Artifact::decode(&art.encode()).expect("matching bias decodes");
        Executor::new(Arc::new(back)).forward(&images).unwrap();
    }
    for ops in [conv(1), conv(3), linear(1), linear(3)] {
        let art = Artifact {
            manifest: manifest.clone(),
            ops,
        };
        let err = Artifact::decode(&art.encode()).unwrap_err();
        assert!(err.to_string().contains("bias"), "{err}");
    }
}
