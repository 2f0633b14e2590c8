//! Property tests for the quantized inference path:
//!
//! 1. **Thread invariance** — quantized logits are bit-identical under
//!    `NDSNN_THREADS`-style overrides of 1 and 4. Integer accumulation is
//!    exact, so this holds by construction and any divergence means a kernel
//!    stopped accumulating in `i32`.
//! 2. **Requantize determinism** — two executors over the same quantized
//!    artifact (one freshly round-tripped through NDINF2 bytes) agree
//!    bitwise.
//! 3. **NDINF1 byte stability** — artifacts without quantized stores still
//!    write the exact version-1 bytes (magic pinned, round trip stable, and
//!    a golden digest of a handcrafted artifact frozen in this test).
//! 4. **NDINF2 byte stability** — default quantization of a handcrafted
//!    artifact, whose layers pick both the bitmap and the delta-varint index
//!    encoding, writes pinned bytes.

mod common;

use common::{assert_fires, cfg_for, sparse_params};
use ndsnn::config::RunConfig;
use ndsnn_infer::{
    compile, quantize_artifact, Artifact, CompileOptions, Executor, Manifest, Op, QuantOptions,
    WeightStore,
};
use ndsnn_snn::models::Architecture;
use ndsnn_tensor::parallel::set_thread_override;
use ndsnn_tensor::{Csr, Tensor};

fn test_images(cfg: &RunConfig, batch: usize) -> Tensor {
    common::test_images(cfg, batch, 0x0DD5EED)
}

#[test]
fn quantized_vgg16_logits_are_thread_count_invariant() {
    let cfg = cfg_for(Architecture::Vgg16);
    let params = sparse_params(&cfg, 0.9);
    let f32_art = compile(&cfg, &params, &CompileOptions::default()).expect("compile");
    let (qart, rows) = quantize_artifact(&f32_art, &QuantOptions::default()).expect("quantize");
    assert!(
        rows.iter().any(|r| r.quantized),
        "VGG-16 must quantize at least one spike-input layer: {rows:?}"
    );
    // Full NDINF2 round trip before running: serving loads from bytes.
    let qart = Artifact::decode(&qart.encode()).expect("NDINF2 round trip");
    let images = test_images(&cfg, 3);
    assert_fires(&cfg, &params, &images);
    let mut bits: Vec<Vec<u32>> = Vec::new();
    for threads in [1usize, 4] {
        set_thread_override(Some(threads));
        let mut exec = Executor::new(std::sync::Arc::new(qart.clone()));
        let logits = exec.forward(&images).expect("quantized forward");
        bits.push(logits.as_slice().iter().map(|v| v.to_bits()).collect());
        set_thread_override(None);
    }
    assert_eq!(
        bits[0], bits[1],
        "quantized logits must be bit-identical at 1 and 4 threads"
    );
}

#[test]
fn quantized_forward_is_deterministic_across_round_trips() {
    let cfg = cfg_for(Architecture::Lenet5);
    let params = sparse_params(&cfg, 0.9);
    let f32_art = compile(&cfg, &params, &CompileOptions::default()).expect("compile");
    let (qart, _) = quantize_artifact(&f32_art, &QuantOptions::default()).expect("quantize");
    let round_tripped = Artifact::decode(&qart.encode()).expect("round trip");
    let images = test_images(&cfg, 4);
    assert_fires(&cfg, &params, &images);
    let a = Executor::new(std::sync::Arc::new(qart))
        .forward(&images)
        .expect("direct forward");
    let b = Executor::new(std::sync::Arc::new(round_tripped))
        .forward(&images)
        .expect("round-tripped forward");
    for (va, vb) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(va.to_bits(), vb.to_bits());
    }
}

#[test]
fn f32_artifacts_still_write_version1_bytes() {
    let cfg = cfg_for(Architecture::Lenet5);
    let params = sparse_params(&cfg, 0.9);
    let art = compile(
        &cfg,
        &params,
        &CompileOptions {
            quantize: None,
            ..Default::default()
        },
    )
    .expect("compile");
    assert!(!art.is_quantized());
    let bytes = art.encode();
    let window = |needle: &[u8]| bytes.windows(needle.len()).any(|w| w == needle);
    assert!(window(b"NDINF1"), "f32 artifact must carry the v1 magic");
    assert!(!window(b"NDINF2"), "f32 artifact must not mention NDINF2");
    let back = Artifact::decode(&bytes).expect("round trip");
    assert_eq!(back.encode(), bytes);
}

/// FNV-1a over the encoded artifact: any byte change moves the digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Handcrafted deterministic artifact covering dense, CSR and every op tag
/// the f32 path serializes.
fn golden_artifact() -> Artifact {
    let dense = Tensor::from_vec([2, 4], vec![0.5, -1.0, 0.0, 2.0, 1.5, 0.0, -0.25, 0.75]).unwrap();
    let csr_src = Tensor::from_vec([2, 4], vec![0.0, 3.0, 0.0, 0.0, -2.0, 0.0, 0.0, 1.0]).unwrap();
    Artifact {
        manifest: Manifest {
            arch: "golden".to_string(),
            timesteps: 2,
            in_channels: 1,
            image_size: 2,
            num_classes: 2,
            mask_digest: 0xDEADBEEF,
            config_json: "{\"golden\":true}".to_string(),
            densities: vec![("fc".to_string(), 0.375)],
        },
        ops: vec![
            Op::Flatten {
                name: "f".to_string(),
            },
            Op::Lif {
                name: "lif".to_string(),
                alpha: 0.5,
                v_threshold: 1.0,
                hard_reset: false,
            },
            Op::Linear {
                name: "fc".to_string(),
                out_features: 2,
                in_features: 4,
                weight: WeightStore::Csr(Csr::from_weight(&csr_src).unwrap().into()),
                bias: Some(Tensor::from_slice(&[0.1, -0.1])),
            },
            Op::Linear {
                name: "fc2".to_string(),
                out_features: 2,
                in_features: 4,
                weight: WeightStore::Dense(dense),
                bias: None,
            },
        ],
    }
}

#[test]
fn f32_encoding_matches_golden_digest() {
    // Pinned from the first post-quantization build: the NDINF1 byte stream
    // for pure-f32 artifacts is frozen. If this digest moves, old artifacts
    // on disk stop being byte-reproducible — bump the format version
    // instead of editing the constant casually.
    let bytes = golden_artifact().encode();
    assert_eq!(
        fnv1a(&bytes),
        0x3489A55074102C22,
        "NDINF1 byte stream changed (len {})",
        bytes.len()
    );
}

/// Handcrafted flatten → LIF → linear → LIF → linear artifact. Every
/// hidden weight is nonzero (magnitudes 1/13..13/13, alternating signs), so
/// that layer's index set writes as a bitmap; the output layer keeps three
/// entries per 64-wide row and writes as delta-varint.
fn golden_int8_source() -> Artifact {
    let lif = |name: &str| Op::Lif {
        name: name.to_string(),
        alpha: 0.5,
        v_threshold: 1.0,
        hard_reset: false,
    };
    let hidden = (0..64 * 16)
        .map(|i| ((i * 7) % 13 + 1) as f32 / if i % 2 == 0 { 13.0 } else { -13.0 })
        .collect();
    let mut out = vec![0.0f32; 3 * 64];
    for r in 0..3 {
        for (k, &v) in [0.5f32, -0.75, 1.0].iter().enumerate() {
            out[r * 64 + r * 5 + k * 20] = v;
        }
    }
    let linear = |name: &str, rows: usize, cols: usize, w: Vec<f32>| Op::Linear {
        name: name.to_string(),
        out_features: rows,
        in_features: cols,
        weight: WeightStore::Dense(Tensor::from_vec([rows, cols], w).unwrap()),
        bias: Some(Tensor::from_slice(&vec![0.125; rows])),
    };
    Artifact {
        manifest: Manifest {
            arch: "golden-int8".to_string(),
            timesteps: 2,
            in_channels: 1,
            image_size: 4,
            num_classes: 3,
            mask_digest: 0xC0DE,
            config_json: "{\"golden\":\"int8\"}".to_string(),
            densities: vec![],
        },
        ops: vec![
            Op::Flatten {
                name: "f".to_string(),
            },
            lif("l1"),
            linear("hidden", 64, 16, hidden),
            lif("l2"),
            linear("out", 3, 64, out),
        ],
    }
}

#[test]
fn int8_encoding_matches_golden_digest() {
    // The NDINF2 bytes of default quantization are frozen: a change to the
    // writer's index-encoding choice or layout moves this digest.
    let (qart, rows) =
        quantize_artifact(&golden_int8_source(), &QuantOptions::default()).expect("quantize");
    let chosen: Vec<&str> = rows.iter().map(|r| r.encoding.as_str()).collect();
    assert_eq!(chosen, ["bitmap", "delta"], "{rows:?}");
    let bytes = qart.encode();
    assert_eq!(
        fnv1a(&bytes),
        0x74D754F6AAFC4197,
        "NDINF2 byte stream changed (len {})",
        bytes.len()
    );
    assert_eq!(
        Artifact::decode(&bytes).expect("round trip").encode(),
        bytes
    );
}
