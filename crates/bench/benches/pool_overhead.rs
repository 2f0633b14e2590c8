//! Benchmarks of the persistent worker pool (DESIGN.md §10).
//!
//! Two levels:
//!
//! 1. `dispatch/*` — a tiny fixed kernel dispatched through
//!    [`for_chunks_mut`] at 2 threads, isolating pure dispatch cost (condvar
//!    wakeup of parked workers).
//! 2. `train_step/*` — a full BPTT training iteration on the Small-profile
//!    VGG workload at pool@1 and pool@2 (2 being the core count of the
//!    reference bench host), so `pool@1 / pool@2` is the end-to-end speedup
//!    threading buys.
//!
//! The summary record appended to `NDSNN_BENCH_JSON`
//! (`results/bench_pool.json`) carries that speedup plus an explicit
//! bit-identity check of per-batch losses between pool@1 and pool@2.

use std::io::Write as _;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ndsnn::config::{DatasetKind, MethodSpec, RunConfig};
use ndsnn::profile::Profile;
use ndsnn::trainer::{build_datasets, build_network};
use ndsnn_snn::models::Architecture;
use ndsnn_snn::optim::Sgd;
use ndsnn_tensor::parallel::{for_chunks_mut, set_thread_override};

/// Worker threads of the threaded variants.
const THREADS: usize = 2;

/// Small-profile VGG-16 at batch 4. Dispatch cost is per layer × timestep —
/// independent of the batch dimension — so a lean batch keeps the GEMM work
/// from drowning the dispatch comparison while still exercising every
/// parallel phase of the step.
fn small_cfg() -> RunConfig {
    let mut cfg =
        Profile::Small.run_config(Architecture::Vgg16, DatasetKind::Cifar10, MethodSpec::Dense);
    cfg.batch_size = 4;
    cfg
}

struct Rig {
    net: ndsnn_snn::network::SpikingNetwork,
    opt: Sgd,
}

fn build_rig(cfg: &RunConfig) -> Rig {
    Rig {
        net: build_network(cfg).unwrap(),
        opt: Sgd::new(cfg.sgd),
    }
}

fn step_once(rig: &mut Rig, batch: &ndsnn_data::loader::Batch) -> f32 {
    let stats = rig.net.train_batch(&batch.images, &batch.labels).unwrap();
    rig.opt.step(&mut rig.net.layers).unwrap();
    stats.loss
}

fn bench_pool_overhead(c: &mut Criterion) {
    // ---- Bit-identity check (untimed): pool@1 vs pool@2 loss trajectory. ----
    let cfg = small_cfg();
    let (train, _) = build_datasets(&cfg);
    let loader = ndsnn_data::loader::BatchLoader::eval(cfg.batch_size);
    let batch = loader.epoch(&train, 0).remove(0);

    let mut losses_bit_identical = true;
    {
        set_thread_override(Some(1));
        let mut rig1 = build_rig(&cfg);
        set_thread_override(Some(THREADS));
        let mut rig_t = build_rig(&cfg);
        for _ in 0..3 {
            set_thread_override(Some(1));
            let l1 = step_once(&mut rig1, &batch);
            set_thread_override(Some(THREADS));
            let lt = step_once(&mut rig_t, &batch);
            if l1.to_bits() != lt.to_bits() {
                losses_bit_identical = false;
                eprintln!("pool_overhead: loss diverged across thread counts: {l1} vs {lt}");
            }
        }
        set_thread_override(None);
    }
    println!("pool_overhead: losses_bit_identical={losses_bit_identical}");

    // ---- Pure dispatch cost: a 4-chunk kernel on the pool. ----
    let mut group = c.benchmark_group("dispatch");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    let src = vec![1.0f32; 1 << 16];
    group.bench_with_input(BenchmarkId::new("axpy_64k", "pool"), &(), |b, _| {
        set_thread_override(Some(THREADS));
        let mut out = vec![0.0f32; 1 << 16];
        b.iter(|| {
            for_chunks_mut(&mut out, 1 << 14, |start, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v += src[start + j] * 0.5;
                }
            });
            black_box(out[0])
        });
        set_thread_override(None);
    });
    group.finish();

    // ---- Full training step: pool@1 and pool@2, interleaved. ----
    // Sequential per-variant timing loops are hostage to machine-load drift
    // (CPU steal shifts whole variants by 2× on shared hosts). Instead every
    // round times one step of *each* variant back to back, so both sample
    // the same noise distribution, and the per-variant median over rounds
    // compares like with like.
    let variants: [(&str, usize); 2] = [("pool_t1", 1), ("pool_t2", THREADS)];
    const ROUNDS: usize = 40;
    let mut rigs: Vec<Rig> = variants.iter().map(|_| build_rig(&cfg)).collect();
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(ROUNDS); variants.len()];
    // Warm-up: fault in every code path and spawn the pool workers.
    for (rig, &(_, threads)) in rigs.iter_mut().zip(&variants) {
        set_thread_override(Some(threads));
        for _ in 0..2 {
            black_box(step_once(rig, &batch));
        }
    }
    for _ in 0..ROUNDS {
        for (vi, &(_, threads)) in variants.iter().enumerate() {
            set_thread_override(Some(threads));
            let t0 = std::time::Instant::now();
            black_box(step_once(&mut rigs[vi], &batch));
            times[vi].push(t0.elapsed().as_nanos() as f64);
        }
    }
    set_thread_override(None);
    let median_of = |v: &[f64]| -> f64 {
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    };
    let mut step_medians = [0.0f64; 2];
    let mut step_lines = String::new();
    for (vi, &(label, _)) in variants.iter().enumerate() {
        let med = median_of(&times[vi]);
        let mean = times[vi].iter().sum::<f64>() / times[vi].len() as f64;
        step_medians[vi] = med;
        println!(
            "bench train_step/vgg16_small/{label}: median {med:.1} ns/step, \
             mean {mean:.1} ns/step ({ROUNDS} interleaved rounds)"
        );
        step_lines.push_str(&format!(
            "{{\"id\":\"train_step/vgg16_small/{label}\",\"median_ns\":{med:.1},\
             \"mean_ns\":{mean:.1},\"rounds\":{ROUNDS}}}\n"
        ));
    }

    // ---- Summary record for results/. ----
    let Ok(path) = std::env::var("NDSNN_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let t1_vs_t2 = step_medians[0] / step_medians[1];
    let line = format!(
        "{{\"id\":\"pool_overhead/summary\",\"threads\":{THREADS},\
         \"pool_t1_over_t2\":{t1_vs_t2:.3},\
         \"losses_bit_identical\":{losses_bit_identical}}}\n"
    );
    print!("pool_overhead summary: {line}");
    let payload = format!("{step_lines}{line}");
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(payload.as_bytes()));
    if let Err(e) = written {
        eprintln!("pool_overhead: could not append summary to {path}: {e}");
    }
}

criterion_group!(benches, bench_pool_overhead);
criterion_main!(benches);
