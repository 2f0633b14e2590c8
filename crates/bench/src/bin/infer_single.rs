//! Serves frozen NDINF1/NDINF2 inference artifacts and prints a JSON
//! report: per-request latency percentiles, batching behaviour and
//! per-layer time.
//!
//! ```sh
//! infer_single --artifact <path> [--requests <n>] [--clients <n>]
//!              [--batch <n>] [--max-wait-us <n>] [--deadline-ms <n>]
//!              [--seed <n>] [--quantize]
//! infer_single --model-dir <dir> [--model <name>]... [--requests <n>]
//!              [--clients <n>] [--batch <n>] [--max-wait-us <n>]
//!              [--deadline-ms <n>] [--seed <n>]
//! ```
//!
//! An unknown flag, an unparsable number, or `--artifact` or `--quantize`
//! next to `--model-dir` exits with status 2 before anything is loaded or
//! served.
//!
//! `--model-dir` switches to **fleet mode**: every artifact file in the
//! directory is registered into a [`ndsnn_infer::ModelRegistry`] under its
//! file stem (honoring `NDSNN_FLEET_BUDGET_BYTES` / `NDSNN_FLEET_MAX_MODELS`),
//! served by a per-model sharded [`ndsnn_infer::Fleet`]
//! (`NDSNN_FLEET_SHARD_THREADS` workers total), and requests are routed by
//! name round-robin across the resident models — or only the names given
//! via repeated `--model` flags. The report then carries one entry per
//! model with its own `ServeStats` counters and latency percentiles, plus
//! fleet-wide totals and the accounting-identity verdict.
//!
//! Requests carry deterministic synthetic images (seeded) and are submitted
//! from `--clients` concurrent threads through the serving control plane
//! (`ndsnn_infer::Server`); `--batch`/`--max-wait-us` override the
//! `NDSNN_INFER_BATCH`/`NDSNN_INFER_MAX_WAIT_US` environment knobs, and the
//! queue/shed/drain knobs (`NDSNN_INFER_QUEUE_CAP`,
//! `NDSNN_INFER_SHED_POLICY`, `NDSNN_INFER_DRAIN_MS`) are honored from the
//! environment. `--deadline-ms` gives every request a deadline budget;
//! expired or shed requests are counted in the report rather than served.
//! The per-layer breakdown comes from a separate single-batch `Executor`
//! pass over the same artifact, so it reflects the op costs without
//! queueing noise. Produce an artifact with `run_single --export <path>`.
//!
//! `--quantize` (or `NDSNN_INFER_QUANT=1`) compresses the loaded artifact's
//! eligible spike-input layers to int8 NDINF2 stores in memory before
//! serving and prints a per-layer size table on stderr. Already-quantized
//! artifacts serve as-is.

use std::sync::Arc;
use std::time::Duration;

use ndsnn_bench::Args;
use ndsnn_infer::{
    Artifact, BatchPolicy, Executor, Fleet, FleetOptions, InferError, ModelRegistry, Router,
    ServeOptions, Server,
};
use ndsnn_metrics::fleet::{percentile, FleetRollup};
use ndsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

const USAGE: &str = "infer_single --artifact <path> | --model-dir <dir> [--model <name>]... \
[--requests <n>] [--clients <n>] [--batch <n>] [--max-wait-us <n>] [--deadline-ms <n>] \
[--seed <n>] [--quantize]";

#[derive(Serialize)]
struct LayerTime {
    name: String,
    ns: u64,
}

#[derive(Serialize)]
struct Report {
    arch: String,
    timesteps: usize,
    num_classes: usize,
    mask_digest: String,
    densities: Vec<(String, f64)>,
    requests: u64,
    batches: u64,
    max_batch_seen: u64,
    shed: u64,
    deadline_expired: u64,
    restarts: u64,
    faulted: u64,
    bad_inputs: u64,
    latency_p50_us: u64,
    latency_p95_us: u64,
    latency_max_us: u64,
    layer_ns: Vec<LayerTime>,
}

/// Per-model entry of the fleet-mode report: the shard's `ServeStats`
/// counters plus client-side latency percentiles.
#[derive(Serialize)]
struct ModelReport {
    model: String,
    arch: String,
    workers: usize,
    routed: u64,
    submitted: u64,
    requests: u64,
    batches: u64,
    max_batch_seen: u64,
    shed: u64,
    deadline_expired: u64,
    restarts: u64,
    faulted: u64,
    bad_inputs: u64,
    latency_p50_us: u64,
    latency_p95_us: u64,
    latency_max_us: u64,
}

#[derive(Serialize)]
struct FleetReport {
    models: Vec<ModelReport>,
    resident_models: usize,
    resident_bytes: u64,
    unknown_model: u64,
    fleet_requests: u64,
    fleet_submitted: u64,
    accounting_ok: bool,
}

/// Nearest-rank percentile of `samples` in whole microseconds (0 when
/// nothing was recorded).
fn percentile_us(samples: &[Duration], q: f64) -> u64 {
    percentile(samples, q).as_micros() as u64
}

/// Fleet mode: register every artifact in `dir`, serve the selected names
/// through a router, and print per-model `ServeStats` + latency report.
fn run_fleet(
    dir: &str,
    only: &[String],
    requests: usize,
    clients: usize,
    seed: u64,
    opts: ServeOptions,
) {
    let registry = ModelRegistry::from_env();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| {
            eprintln!("cannot read --model-dir {dir}: {e}");
            std::process::exit(2);
        })
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    entries.sort();
    for path in &entries {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        if name.is_empty() {
            continue;
        }
        match registry.register_file(&name, path) {
            Ok(_) => eprintln!("registered {name} from {}", path.display()),
            Err(e) => eprintln!("skipping {}: {e}", path.display()),
        }
    }
    if registry.is_empty() {
        eprintln!("no loadable artifacts in {dir}");
        std::process::exit(2);
    }
    let names: Vec<String> = if only.is_empty() {
        registry.models().into_iter().map(|m| m.name).collect()
    } else {
        for name in only {
            if !registry.contains(name) {
                eprintln!("--model {name}: not found in {dir}");
                std::process::exit(2);
            }
        }
        only.to_vec()
    };
    eprintln!(
        "fleet: {} resident model(s), {} B encoded, serving {:?}",
        registry.len(),
        registry.resident_bytes(),
        names
    );

    let mut fleet_opts = FleetOptions::from_env();
    fleet_opts.serve = opts;
    let selected: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), 1.0)).collect();
    let fleet = Fleet::from_registry(&registry, &selected, fleet_opts).unwrap_or_else(|e| {
        eprintln!("fleet start failed: {e}");
        std::process::exit(2);
    });
    let workers: Vec<usize> = names
        .iter()
        .map(|n| fleet.shard_workers(n).unwrap_or(0))
        .collect();
    let router = Arc::new(Router::new(fleet));

    // Every model shares one synthetic image pool; request g goes to model
    // g % k, so each model sees a deterministic slice of the pool.
    let sample = registry.get(&names[0]).unwrap().sample_len();
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = ndsnn_tensor::init::uniform([requests.max(1), sample], 0.0, 1.0, &mut rng);
    let images: Vec<Vec<f32>> = (0..requests)
        .map(|i| pool.as_slice()[i * sample..(i + 1) * sample].to_vec())
        .collect();

    let mut handles = Vec::new();
    for c in 0..clients {
        let router = Arc::clone(&router);
        let names: Vec<String> = names.clone();
        let mine: Vec<(usize, Vec<f32>)> = images
            .iter()
            .enumerate()
            .skip(c)
            .step_by(clients)
            .map(|(g, img)| (g, img.clone()))
            .collect();
        handles.push(std::thread::spawn(move || {
            let mut rollup = FleetRollup::new();
            for (g, img) in &mine {
                let name = &names[g % names.len()];
                match router.infer(name, img) {
                    Ok(reply) => rollup.model(name).record(reply.latency),
                    // Counted per shard in the report's `ServeStats`.
                    Err(
                        InferError::DeadlineExceeded
                        | InferError::Overloaded
                        | InferError::ExecutorFault(_),
                    ) => {}
                    Err(e) => panic!("infer {name} failed: {e}"),
                }
            }
            rollup
        }));
    }
    let mut rollup = FleetRollup::new();
    for h in handles {
        rollup.absorb(&h.join().expect("client thread"));
    }
    router.shutdown();

    let stats = router.stats();
    let totals = stats.fleet_totals();
    let mut models = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let m = &stats.per_model[name];
        let samples = rollup.model(name).samples();
        let arch = registry
            .get(name)
            .map(|a| a.manifest.arch.clone())
            .unwrap_or_default();
        models.push(ModelReport {
            model: name.clone(),
            arch,
            workers: workers[i],
            routed: m.routed,
            submitted: m.serve.submitted,
            requests: m.serve.requests,
            batches: m.serve.batches,
            max_batch_seen: m.serve.max_batch_seen,
            shed: m.serve.shed,
            deadline_expired: m.serve.deadline_expired,
            restarts: m.serve.restarts,
            faulted: m.serve.faulted,
            bad_inputs: m.serve.bad_inputs,
            latency_p50_us: percentile_us(samples, 0.5),
            latency_p95_us: percentile_us(samples, 0.95),
            latency_max_us: percentile_us(samples, 1.0),
        });
    }
    let report = FleetReport {
        models,
        resident_models: registry.len(),
        resident_bytes: registry.resident_bytes(),
        unknown_model: stats.unknown_model,
        fleet_requests: totals.requests,
        fleet_submitted: totals.submitted,
        accounting_ok: totals.accounting_identity().is_ok(),
    };
    println!(
        "{}",
        ndsnn_metrics::json::to_string(&report).expect("serialize fleet report")
    );
}

fn main() {
    let args = Args::parse(USAGE);
    // Fleet mode serves the stored artifacts as they are.
    args.refuse_with("--model-dir", &["--artifact", "--quantize"]);
    let requests: usize = args.number("--requests").unwrap_or(32);
    let clients: usize = args.number("--clients").unwrap_or(4).max(1);
    let seed: u64 = args.number("--seed").unwrap_or(7);
    let mut policy = BatchPolicy::from_env();
    if let Some(b) = args.number("--batch") {
        policy.max_batch = b;
    }
    if let Some(us) = args.number("--max-wait-us") {
        policy.max_wait = Duration::from_micros(us);
    }
    let deadline: Option<Duration> = args.number("--deadline-ms").map(Duration::from_millis);
    let mut opts = ServeOptions::from_env();
    opts.policy = policy;
    if deadline.is_some() {
        opts.default_deadline = deadline;
    }

    // Fleet mode: a directory of artifacts routed by name.
    if let Some(dir) = args.get("--model-dir") {
        let only: Vec<String> = args.all("--model").into_iter().map(String::from).collect();
        run_fleet(dir, &only, requests, clients, seed, opts);
        return;
    }

    let path = args.get("--artifact").unwrap_or_else(|| {
        eprintln!("usage: {USAGE}");
        std::process::exit(2);
    });
    let mut loaded = Artifact::load(path).expect("load artifact");
    let quantize = args.has("--quantize") || ndsnn::config::env::infer_quant();
    if quantize && !loaded.is_quantized() {
        let (qart, rows) =
            ndsnn_infer::quantize_artifact(&loaded, &Default::default()).expect("quantize");
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
        loaded = qart;
    }
    let artifact = Arc::new(loaded);
    let m = &artifact.manifest;
    eprintln!(
        "serving {} (T={}, {}x{}x{}, {} classes, {} weighted layers) batch={} max_wait={:?}",
        m.arch,
        m.timesteps,
        m.in_channels,
        m.image_size,
        m.image_size,
        m.num_classes,
        m.densities.len(),
        policy.max_batch,
        policy.max_wait
    );

    // Deterministic synthetic request images.
    let sample = artifact.sample_len();
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = ndsnn_tensor::init::uniform([requests.max(1), sample], 0.0, 1.0, &mut rng);
    let images: Vec<Vec<f32>> = (0..requests)
        .map(|i| pool.as_slice()[i * sample..(i + 1) * sample].to_vec())
        .collect();

    let server = Arc::new(Server::start_with(Arc::clone(&artifact), opts));
    let mut handles = Vec::new();
    for c in 0..clients {
        let server = Arc::clone(&server);
        let mine: Vec<Vec<f32>> = images.iter().skip(c).step_by(clients).cloned().collect();
        handles.push(std::thread::spawn(move || {
            let mut latencies = Vec::with_capacity(mine.len());
            for img in &mine {
                match server.infer(img) {
                    Ok(reply) => latencies.push(reply.latency),
                    // Typed control-plane outcomes are expected under
                    // deadline/overload pressure and show up in the
                    // report's counters.
                    Err(
                        InferError::DeadlineExceeded
                        | InferError::Overloaded
                        | InferError::ExecutorFault(_),
                    ) => {}
                    Err(e) => panic!("infer failed: {e}"),
                }
            }
            latencies
        }));
    }
    let latencies: Vec<Duration> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let stats = server.stats();
    server.shutdown();

    // Per-layer time from a clean single-batch executor pass.
    let mut exec = Executor::new(Arc::clone(&artifact));
    let batch = policy.max_batch.min(requests.max(1));
    let mut flat = Vec::with_capacity(batch * sample);
    for img in images.iter().take(batch) {
        flat.extend_from_slice(img);
    }
    let tensor = Tensor::from_vec(vec![batch, m.in_channels, m.image_size, m.image_size], flat)
        .expect("batch tensor");
    exec.forward(&tensor).expect("executor forward");
    let layer_ns = exec
        .layer_ns()
        .into_iter()
        .map(|(name, ns)| LayerTime { name, ns })
        .collect();

    let report = Report {
        arch: m.arch.clone(),
        timesteps: m.timesteps,
        num_classes: m.num_classes,
        mask_digest: format!("{:016x}", m.mask_digest),
        densities: m.densities.clone(),
        requests: stats.requests,
        batches: stats.batches,
        max_batch_seen: stats.max_batch_seen,
        shed: stats.shed,
        deadline_expired: stats.deadline_expired,
        restarts: stats.restarts,
        faulted: stats.faulted,
        bad_inputs: stats.bad_inputs,
        latency_p50_us: percentile_us(&latencies, 0.5),
        latency_p95_us: percentile_us(&latencies, 0.95),
        latency_max_us: percentile_us(&latencies, 1.0),
        layer_ns,
    };
    println!(
        "{}",
        ndsnn_metrics::json::to_string(&report).expect("serialize report")
    );
}
