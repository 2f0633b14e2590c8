//! Runs a single configurable training experiment and prints the full
//! result record as JSON (per-epoch trace, activity, per-layer spike
//! rates) — the scripting-friendly entry point for custom sweeps.
//!
//! ```sh
//! run_single [--profile smoke|small|paper] [--arch vgg16|resnet19|lenet5]
//!            [--dataset cifar10|cifar100|tiny] [--method dense|ndsnn|set|rigl|lth|admm]
//!            [--sparsity <f64>] [--initial <f64>] [--timesteps <n>] [--seed <n>]
//!            [--epochs <n>] [--delta-t <n>] [--neuron lif|plif]
//!            [--surrogate atan|fastsigmoid[:alpha]|rect[:width]|gauss[:sigma]]
//!            [--checkpoint-dir <path>] [--checkpoint-every <n>] [--resume]
//!            [--export <path>] [--quantize]
//! ```
//!
//! An unknown flag, an unknown value of an enumerated flag or an
//! unparsable number exits with status 2 before training starts.
//!
//! With `--checkpoint-dir` the run goes through the crash-safe path
//! (`trainer::run_recoverable`): a full-state generation is written every
//! `--checkpoint-every` optimizer steps and `--resume` continues
//! bit-identically from the newest valid one. The fault policy comes from
//! `NDSNN_FAULT_POLICY` (abort|skip|rollback).
//!
//! `--export <path>` compiles the trained model into a frozen NDINF1
//! inference artifact after training (BatchNorm folded, masked weights
//! CSR-packed; serve it with `infer_single`). Without `--checkpoint-dir`
//! the run uses a temporary checkpoint directory so the final generation
//! exists to compile from, then removes it. Adding `--quantize` (or setting
//! `NDSNN_INFER_QUANT=1`) compresses eligible spike-input layers to int8
//! NDINF2 stores and prints a per-layer size table on stderr.

use ndsnn::config::{DatasetKind, MethodSpec};
use ndsnn::profile::Profile;
use ndsnn::recovery::RecoveryOptions;
use ndsnn::trainer;
use ndsnn_bench::Args;
use ndsnn_snn::models::{Architecture, NeuronKind};
use ndsnn_snn::surrogate::Surrogate;

const USAGE: &str = "run_single [--profile smoke|small|paper] [--arch vgg16|resnet19|lenet5] \
[--dataset cifar10|cifar100|tiny] [--method dense|ndsnn|set|rigl|lth|admm] [--sparsity <f64>] \
[--initial <f64>] [--timesteps <n>] [--seed <n>] [--epochs <n>] [--delta-t <n>] \
[--neuron lif|plif] [--surrogate atan|fastsigmoid[:alpha]|rect[:width]|gauss[:sigma]] \
[--checkpoint-dir <path>] [--checkpoint-every <n>] [--resume] [--export <path>] [--quantize]";

/// Parses `name[:param]` surrogate specs: `atan`, `fastsigmoid[:alpha]`,
/// `rect[:width]`, `gauss[:sigma]`. Compact-support windows (`rect`,
/// `gauss`) enable the active-set sparse-gradient backward. An unknown
/// name, a parameter on `atan` or an unparsable parameter is `None`.
fn parse_surrogate(spec: &str) -> Option<Surrogate> {
    let (name, param) = match spec.split_once(':') {
        Some((n, p)) => (n, Some(p.parse::<f32>().ok()?)),
        None => (spec, None),
    };
    match name {
        "atan" if param.is_none() => Some(Surrogate::Atan),
        "fastsigmoid" => Some(Surrogate::FastSigmoid {
            alpha: param.unwrap_or(2.0),
        }),
        "rect" | "rectangle" => Some(Surrogate::Rectangle {
            width: param.unwrap_or(1.0),
        }),
        "gauss" | "gaussian" => Some(Surrogate::Gaussian {
            sigma: param.unwrap_or(0.4),
        }),
        _ => None,
    }
}

fn main() {
    let args = Args::parse(USAGE);
    let profile = args
        .choice("--profile", Profile::parse)
        .unwrap_or(Profile::Small);
    let arch = args
        .choice("--arch", |s| match s {
            "vgg16" => Some(Architecture::Vgg16),
            "resnet19" => Some(Architecture::Resnet19),
            "lenet5" => Some(Architecture::Lenet5),
            _ => None,
        })
        .unwrap_or(Architecture::Vgg16);
    let dataset = args
        .choice("--dataset", |s| match s {
            "cifar10" => Some(DatasetKind::Cifar10),
            "cifar100" => Some(DatasetKind::Cifar100),
            "tiny" => Some(DatasetKind::TinyImageNet),
            _ => None,
        })
        .unwrap_or(DatasetKind::Cifar10);
    let sparsity: f64 = args.number("--sparsity").unwrap_or(0.95);
    let initial: f64 = args.number("--initial").unwrap_or(0.7);
    let ndsnn = MethodSpec::Ndsnn {
        initial_sparsity: initial.min(sparsity),
        final_sparsity: sparsity,
    };
    let method = args
        .choice("--method", |s| match s {
            "dense" => Some(MethodSpec::Dense),
            "ndsnn" => Some(ndsnn),
            "set" => Some(MethodSpec::Set { sparsity }),
            "rigl" => Some(MethodSpec::Rigl { sparsity }),
            "lth" => Some(MethodSpec::Lth {
                final_sparsity: sparsity,
                rounds: 4,
            }),
            "admm" => Some(MethodSpec::Admm {
                target_sparsity: sparsity,
            }),
            _ => None,
        })
        .unwrap_or(ndsnn);
    let mut cfg = profile.run_config(arch, dataset, method);
    if let Some(t) = args.number("--timesteps") {
        cfg.timesteps = t;
    }
    if let Some(seed) = args.number("--seed") {
        cfg.seed = seed;
    }
    if let Some(dt) = args.number("--delta-t") {
        cfg.delta_t = dt;
    }
    if let Some(e) = args.number("--epochs") {
        cfg.epochs = e;
    }
    if let Some(n) = args.choice("--neuron", |s| match s {
        "lif" => Some(NeuronKind::Lif),
        "plif" => Some(NeuronKind::Plif),
        _ => None,
    }) {
        cfg.neuron = n;
    }
    if let Some(s) = args.choice("--surrogate", parse_surrogate) {
        cfg.surrogate = s;
    }
    let checkpoint_every = args.number("--checkpoint-every");
    cfg.image_size = cfg.image_size.max(trainer::min_image_size(arch));
    eprintln!("running {}", cfg.describe());
    let export = args.get("--export");
    // Exporting needs a checkpoint generation to compile from; without an
    // explicit directory, use a temporary one for the duration of the run.
    let temp_ckpt = if export.is_some() && !args.has("--checkpoint-dir") {
        Some(std::env::temp_dir().join(format!("ndsnn-export-{}", std::process::id())))
    } else {
        None
    };
    let ckpt_dir = args
        .get("--checkpoint-dir")
        .map(std::path::PathBuf::from)
        .or_else(|| temp_ckpt.clone());
    let result = match &ckpt_dir {
        Some(dir) => {
            if let Some(n) = checkpoint_every {
                cfg.checkpoint_every = n;
            }
            if export.is_some() && cfg.checkpoint_every == 0 {
                // Only the final-state generation is needed for export.
                cfg.checkpoint_every = usize::MAX;
            }
            let mut recovery = RecoveryOptions::with_dir(dir);
            if args.has("--resume") {
                recovery = recovery.resuming();
            }
            let (train, test) = trainer::build_datasets(&cfg);
            trainer::run_recoverable(&cfg, &train, &test, &recovery).expect("run failed")
        }
        None => trainer::run(&cfg).expect("run failed"),
    };
    if let Some(path) = export {
        let dir = ckpt_dir.as_ref().expect("export implies checkpoint dir");
        // Quantize explicitly (not via CompileOptions) so the per-layer
        // size rows are available for the table below.
        let copts = ndsnn_infer::CompileOptions {
            quantize: None,
            ..Default::default()
        };
        let mut art = ndsnn_infer::compile_from_checkpoint_dir(&cfg, dir, &copts)
            .expect("compile inference artifact");
        if args.has("--quantize") || ndsnn::config::env::infer_quant() {
            let (qart, rows) = ndsnn_infer::quantize_artifact(&art, &Default::default())
                .expect("quantize artifact");
            let size_rows: Vec<_> = rows
                .iter()
                .map(|r| ndsnn_metrics::quant::SizeRow {
                    name: r.name.clone(),
                    f32_bytes: r.f32_bytes,
                    compressed_bytes: r.bytes,
                    encoding: r.encoding.clone(),
                    rel_error: r.rel_error,
                })
                .collect();
            eprintln!(
                "{}",
                ndsnn_metrics::quant::size_table("quantized artifact sizes", &size_rows)
            );
            art = qart;
        }
        art.save(path).expect("write inference artifact");
        eprintln!(
            "exported {} ({} ops, {} weighted layers, mask digest {:016x})",
            path,
            art.ops.len(),
            art.manifest.densities.len(),
            art.manifest.mask_digest
        );
    }
    if let Some(tmp) = temp_ckpt {
        let _ = std::fs::remove_dir_all(tmp);
    }
    println!("{}", result.to_json());
}
