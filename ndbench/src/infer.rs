//! Frozen-model set-up shared by the serving workloads, the per-kernel-kind
//! executor breakdown, and the `infer_batch` workload.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ndsnn::config::{DatasetKind, MethodSpec, RunConfig};
use ndsnn::profile::Profile;
use ndsnn_infer::{
    compile, quantize_artifact, Artifact, CompileOptions, Executor, ModelRegistry, Op,
    QuantOptions, RegistryOptions, WeightStore,
};
use ndsnn_snn::models::Architecture;
use ndsnn_tensor::Tensor;

use crate::gen;
use crate::stats::{median, nearest_rank, windowed};
use crate::trace::Tracer;
use crate::workload::{Outcome, Scale};

/// One served model: its routing name, ERK sparsity and storage.
#[derive(Debug, Clone, Copy)]
pub struct Model {
    pub name: &'static str,
    pub sparsity: f64,
    /// int8 NDINF2 over QAT-snapped weights; otherwise f32 NDINF1.
    pub int8: bool,
    mask_tag: u64,
}

pub const F32_MODEL: Model = Model {
    name: "vgg16-f32",
    sparsity: 0.9,
    int8: false,
    mask_tag: gen::tag::F32_MASK,
};

pub const INT8_MODEL: Model = Model {
    name: "vgg16-int8",
    sparsity: 0.8,
    int8: true,
    mask_tag: gen::tag::INT8_MASK,
};

pub const BATCH: usize = 32;

/// Every 64th reply or batch is checked against a second execution.
pub const CHECK_EVERY: usize = 64;

pub fn model_config(profile: Profile) -> RunConfig {
    profile.run_config(Architecture::Vgg16, DatasetKind::Cifar10, MethodSpec::Dense)
}

/// The model's weights: benchmark input, generated once per run.
pub fn params(
    cfg: &RunConfig,
    model: Model,
    seed: u64,
) -> Result<BTreeMap<String, Tensor>, String> {
    gen::erk_params(cfg, model.sparsity, seed, model.mask_tag, model.int8)
}

/// Compiles, for int8 quantizes, encodes and registers `model`, with a
/// span around each call. Returns the compiled f32 artifact, before
/// quantization.
pub fn register(
    registry: &ModelRegistry,
    cfg: &RunConfig,
    params: &BTreeMap<String, Tensor>,
    model: Model,
    tr: &mut Tracer,
) -> Result<Artifact, String> {
    let opts = CompileOptions {
        quantize: None,
        ..CompileOptions::default()
    };
    let art = tr
        .span("infer.compile", || compile(cfg, params, &opts))
        .map_err(|e| e.to_string())?;
    let bytes = if model.int8 {
        let (q, _) = tr
            .span("infer.quantize", || {
                quantize_artifact(&art, &QuantOptions::default())
            })
            .map_err(|e| e.to_string())?;
        tr.span("infer.encode", || q.encode())
    } else {
        tr.span("infer.encode", || art.encode())
    };
    tr.span("infer.register", || registry.register(model.name, bytes))
        .map_err(|e| e.to_string())?;
    Ok(art)
}

/// Milliseconds per set-up of each set-up call, from the spans of
/// `reps` set-ups.
pub fn setup_metrics(tr: &Tracer, reps: usize, m: &mut BTreeMap<&'static str, f64>) {
    for (span, metric) in [
        ("infer.compile", "infer.compile_ms"),
        ("infer.quantize", "infer.quantize_ms"),
        ("infer.encode", "infer.encode_ms"),
        ("infer.register", "infer.register_ms"),
        ("infer.fleet_start", "infer.fleet_start_ms"),
    ] {
        m.insert(metric, tr.total_ms(span) / reps.max(1) as f64);
    }
}

/// One image (or a batch of them) as an executor input tensor.
pub fn input(art: &Artifact, batch: &[&[f32]]) -> Result<Tensor, String> {
    let m = &art.manifest;
    let data: Vec<f32> = batch.iter().flat_map(|img| img.iter().copied()).collect();
    Tensor::from_vec(
        [batch.len(), m.in_channels, m.image_size, m.image_size],
        data,
    )
    .map_err(|e| e.to_string())
}

pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Kernel kinds an executor op is charged to, by slot: 0 dense, 1 CSR,
/// 2 int8, 3 everything without a weight.
const KIND_SLOTS: usize = 4;

fn kinds(ops: &[Op], out: &mut Vec<Option<usize>>) {
    for op in ops {
        match op {
            Op::Linear { weight, .. } | Op::Conv2d { weight, .. } => out.push(Some(match weight {
                WeightStore::Dense(_) => 0,
                WeightStore::Csr(_) => 1,
                WeightStore::QuantCsr(_) => 2,
            })),
            // The block's counter includes its children, which are charged
            // on their own.
            Op::Residual {
                main,
                shortcut,
                lif_out,
                ..
            } => {
                out.push(None);
                kinds(main, out);
                kinds(shortcut, out);
                kinds(std::slice::from_ref(lif_out), out);
            }
            _ => out.push(Some(3)),
        }
    }
}

/// Per-forward milliseconds by kernel kind (`exec.<tag>.<kind>_ms`) and
/// the share of forward wall time the per-op counters cover
/// (`exec.<tag>.coverage`), from `exec`'s counters over `forwards` calls
/// that took `forward_ms` in total. `names` maps the reported kinds to
/// their metric names.
pub fn exec_metrics(
    exec: &Executor,
    forwards: usize,
    forward_ms: f64,
    names: &[(usize, &'static str)],
    coverage: &'static str,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let mut slots = Vec::new();
    kinds(&exec.artifact().ops, &mut slots);
    let mut ns = [0u64; KIND_SLOTS];
    for ((_, op_ns), slot) in exec.layer_ns().into_iter().zip(slots) {
        if let Some(k) = slot {
            ns[k] += op_ns;
        }
    }
    for &(k, metric) in names {
        m.insert(metric, ns[k] as f64 / 1e6 / forwards.max(1) as f64);
    }
    let covered: u64 = ns.iter().sum();
    m.insert(
        coverage,
        covered as f64 / 1e6 / forward_ms.max(f64::MIN_POSITIVE),
    );
}

pub const F32_KINDS: [(usize, &str); 3] = [
    (0, "exec.f32.dense_ms"),
    (1, "exec.f32.csr_ms"),
    (3, "exec.f32.other_ms"),
];
pub const INT8_KINDS: [(usize, &str); 4] = [
    (0, "exec.int8.dense_ms"),
    (1, "exec.int8.csr_ms"),
    (2, "exec.int8.int8_ms"),
    (3, "exec.int8.other_ms"),
];

/// `infer_batch`: `Executor::forward` on the int8 NDINF2 artifact at batch
/// 32, back to back, with no serving control plane in the way.
pub fn run(seed: u64, scale: Scale, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = model_config(scale.profile);
    let params = params(&cfg, INT8_MODEL, seed)?;

    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..scale.setup_reps {
        let t = Instant::now();
        let registry = ModelRegistry::new(RegistryOptions::default());
        let f32_art = register(&registry, &cfg, &params, INT8_MODEL, tr)?;
        let art = registry
            .get(INT8_MODEL.name)
            .ok_or("registered model missing")?;
        let exec = Executor::new(art);
        setups.push(t.elapsed().as_secs_f64());
        built = Some((f32_art, exec));
    }
    let (f32_art, mut exec) = built.ok_or("no set-up ran")?;
    out.reps = setups.len();
    out.checks.check(
        "infer.artifact_int8",
        exec.artifact().is_quantized(),
        || "the int8 artifact quantized no layer".into(),
    );

    const POOL: usize = 8;
    let images = gen::images(seed, POOL * BATCH, exec.artifact().sample_len());
    let batches: Vec<Tensor> = images
        .chunks(BATCH)
        .map(|c| {
            input(
                exec.artifact(),
                &c.iter().map(Vec::as_slice).collect::<Vec<_>>(),
            )
        })
        .collect::<Result<_, _>>()?;

    exec.reset_counters();
    let mut lat_ms = Vec::new();
    let mut kept = Vec::new();
    let mut starts = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < scale.seconds {
        let i = lat_ms.len();
        let t = Instant::now();
        starts.push(start.elapsed().as_secs_f64());
        let r = tr.span("exec.int8_b32", || exec.forward(&batches[i % POOL]));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        match r {
            Ok(logits) => {
                lat_ms.push(ms);
                if i.is_multiple_of(CHECK_EVERY) {
                    kept.push((i % POOL, logits));
                }
            }
            Err(e) => {
                out.failed += 1;
                lat_ms.push(f64::INFINITY);
                out.checks
                    .check("infer.forward", false, || format!("batch {i}: {e}"));
            }
        }
    }
    let int8_ms: f64 = lat_ms.iter().filter(|v| v.is_finite()).sum();

    // The f32 artifact compiled from the same QAT-snapped weights is the
    // reference: on the power-of-two grid the int8 kernels are exact.
    let mut reference = Executor::new(Arc::new(f32_art));
    for (b, logits) in &kept {
        let want = tr
            .span("exec.f32_b32", || reference.forward(&batches[*b]))
            .map_err(|e| e.to_string())?;
        out.checks.check(
            "infer.int8_bit_equal_f32",
            same_bits(logits.as_slice(), want.as_slice()),
            || format!("pool batch {b}: int8 logits differ from the f32 artifact's"),
        );
    }

    let ok = lat_ms.iter().filter(|v| v.is_finite()).count();
    let m = &mut out.metrics;
    if tr.enabled() {
        setup_metrics(tr, setups.len(), m);
        let f32_ms = tr.ms("exec.f32_b32");
        m.insert("exec.int8_b32_ms", median(&lat_ms).unwrap_or(0.0));
        m.insert("exec.f32_b32_ms", median(&f32_ms).unwrap_or(0.0));
        exec_metrics(&exec, ok, int8_ms, &INT8_KINDS, "exec.int8.coverage", m);
        let f32_total: f64 = f32_ms.iter().sum();
        exec_metrics(
            &reference,
            f32_ms.len(),
            f32_total,
            &F32_KINDS,
            "exec.f32.coverage",
            m,
        );
    } else {
        m.insert("setup_s", median(&setups).expect("set-ups ran"));
        m.insert(
            "samples_per_s",
            (ok * BATCH) as f64 / (int8_ms / 1e3).max(f64::MIN_POSITIVE),
        );
        m.insert("latency_p50_ms", nearest_rank(&lat_ms, 50.0).unwrap_or(0.0));
        let timed: Vec<(f64, f64)> = starts.into_iter().zip(lat_ms).collect();
        m.insert(
            "latency_p99_ms",
            windowed(&timed, scale.seconds, 99.0).unwrap_or(0.0),
        );
    }
    Ok(out)
}
