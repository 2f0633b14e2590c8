//! Deterministic chaos tests for the serving control plane: the
//! acceptance gate for fault tolerance.
//!
//! A seeded [`ServeFaultPlan`] injects executor panics and slow batches
//! while concurrent clients submit a deterministic request mix (clean
//! images, hostile NaN images, tight deadlines) against a deliberately
//! tiny admission queue. The invariants pinned here:
//!
//! 1. **Exactly one reply per request** — success, `Overloaded`,
//!    `DeadlineExceeded`, `ExecutorFault` or `BadInput`; never a hang and
//!    never any other error. The accounting identity
//!    `requests + shed + deadline_expired + faulted + bad_inputs == submitted`
//!    must hold on the server's own counters.
//! 2. **Auto-restart** — after every injected panic the server rebuilds
//!    the executor and keeps serving; `restarts` equals the number of
//!    panic indices actually reached.
//! 3. **Bit-identity under chaos** — every *successful* reply's logits are
//!    bit-identical to an unfaulted server's answer for the same image,
//!    no matter how many restarts, sheds or slow batches happened around
//!    it.

use std::sync::Arc;
use std::time::Duration;

use ndsnn_infer::{
    Artifact, BatchPolicy, HealthState, InferError, Manifest, Op, ServeFaultPlan, ServeOptions,
    Server, ShedPolicy, WeightStore,
};
use ndsnn_tensor::Tensor;

const SAMPLE_LEN: usize = 4;
const THREADS: usize = 8;
const PER_THREAD: usize = 25;
const TOTAL: usize = THREADS * PER_THREAD;

/// 1×2×2 input, flatten, LIF, linear to 2 classes — small enough that a
/// chaos run with hundreds of requests finishes in well under a second.
fn toy_artifact() -> Arc<Artifact> {
    let w = Tensor::from_vec([2, 4], vec![1.0, -1.0, 0.5, 0.0, -0.5, 2.0, 0.0, 1.0]).unwrap();
    Arc::new(Artifact {
        manifest: Manifest {
            arch: "toy".to_string(),
            timesteps: 2,
            in_channels: 1,
            image_size: 2,
            num_classes: 2,
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
                out_features: 2,
                in_features: 4,
                weight: WeightStore::Dense(w),
                bias: Some(Tensor::from_slice(&[0.25, -0.25])),
            },
        ],
    })
}

/// [`toy_artifact`] with its linear layer quantized to int8 (the LIF in
/// front makes it spike-input, so the compile-time walk accepts it) and
/// round-tripped through NDINF2 bytes — the artifact a quantized server
/// would actually load.
fn quantized_toy_artifact() -> Arc<Artifact> {
    let (qart, rows) =
        ndsnn_infer::quantize_artifact(&toy_artifact(), &ndsnn_infer::QuantOptions::default())
            .expect("quantize toy artifact");
    assert!(
        qart.is_quantized(),
        "toy linear layer must quantize: {rows:?}"
    );
    Arc::new(Artifact::decode(&qart.encode()).expect("NDINF2 round trip"))
}

/// Deterministic per-request image: distinct, finite, reproducible.
fn image_for(g: usize) -> Vec<f32> {
    (0..SAMPLE_LEN)
        .map(|j| ((g * 37 + j * 13) % 100) as f32 / 50.0 - 1.0)
        .collect()
}

/// Global request indices that submit a hostile (NaN) image.
fn is_hostile(g: usize) -> bool {
    g % 17 == 5
}

/// Global request indices that carry a 5 ms deadline.
fn deadline_for(g: usize) -> Option<Duration> {
    (g % 11 == 3).then(|| Duration::from_millis(5))
}

/// Reference logits (as bits) from an unfaulted, unbatched server.
fn reference_bits(artifact: &Arc<Artifact>) -> Vec<Vec<u32>> {
    let server = Server::start(
        Arc::clone(artifact),
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::from_micros(0),
        },
    );
    (0..TOTAL)
        .map(|g| {
            let reply = server.infer(&image_for(g)).expect("reference infer");
            reply.logits.iter().map(|v| v.to_bits()).collect()
        })
        .collect()
}

fn chaos_run_with(artifact: Arc<Artifact>, shed: ShedPolicy) {
    let reference = reference_bits(&artifact);
    // Low horizon, so the run below usually executes far more than 8
    // batches; the top-up after it makes sure every injected fault index is
    // reached even when shedding left few batches.
    let plan = ServeFaultPlan::seeded(0xC4A05, 8, 3, 2, Duration::from_millis(10));
    let injected_panics = plan.panic_at_batches.len() as u64;
    let last_panic = *plan.panic_at_batches.iter().max().expect("a panic");
    assert!(injected_panics >= 1, "seed must place at least one panic");
    let server = Arc::new(Server::start_with(
        artifact,
        ServeOptions {
            policy: BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_micros(200),
            },
            queue_cap: 2,
            shed,
            default_deadline: None,
            drain_timeout: Duration::from_millis(2000),
            // Deterministic chaos needs one dispatcher: the fault plan
            // numbers batches per worker.
            workers: 1,
            fault_plan: plan,
        },
    ));

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let s = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            let mut outcomes = Vec::with_capacity(PER_THREAD);
            for i in 0..PER_THREAD {
                let g = t * PER_THREAD + i;
                let mut image = image_for(g);
                if is_hostile(g) {
                    image[2] = f32::NAN;
                }
                outcomes.push((g, s.infer_with_deadline(&image, deadline_for(g))));
            }
            outcomes
        }));
    }

    let mut successes = 0u64;
    for h in handles {
        // `join` returning at all is the no-hang guarantee: every request
        // observed exactly one reply.
        for (g, outcome) in h.join().expect("client thread") {
            match outcome {
                Ok(reply) => {
                    assert!(!is_hostile(g), "hostile request {g} must not succeed");
                    let bits: Vec<u32> = reply.logits.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        bits, reference[g],
                        "request {g}: logits diverged from unfaulted run"
                    );
                    successes += 1;
                }
                Err(InferError::BadInput(_)) => {
                    assert!(is_hostile(g), "clean request {g} rejected as bad input");
                }
                Err(
                    InferError::Overloaded
                    | InferError::DeadlineExceeded
                    | InferError::ExecutorFault(_),
                ) => {}
                Err(e) => panic!("request {g}: unexpected outcome {e}"),
            }
        }
    }

    let stats = server.stats();
    assert_eq!(stats.requests, successes);
    assert_eq!(stats.submitted, TOTAL as u64);
    stats
        .accounting_identity()
        .expect("accounting identity violated");

    // Each shed reply is instant and a stalled batch is not, so on a loaded
    // host the clients can exhaust their requests while the one dispatcher
    // has run only a few batches; and a batch's `ExecutorFault` replies go
    // out before the supervisor counts its restart. Serve clean requests
    // one at a time until one succeeds in a batch past every injected panic
    // index: that reply is sent after every restart was counted.
    loop {
        let past_faults = server.stats().batches > last_panic;
        if server.infer(&image_for(0)).is_ok() && past_faults {
            break;
        }
    }
    let stats = server.stats();
    stats
        .accounting_identity()
        .expect("accounting identity violated");
    assert_eq!(
        stats.restarts, injected_panics,
        "every injected panic must trigger exactly one rebuild: {stats:?}"
    );
    assert!(stats.faulted >= stats.restarts);
    assert_eq!(
        server.health(),
        HealthState::Degraded {
            restarts: injected_panics
        }
    );

    // The server is still serving after all that: a clean request answers
    // with reference bits.
    let reply = server.infer(&image_for(0)).expect("post-chaos infer");
    let bits: Vec<u32> = reply.logits.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, reference[0]);

    server.shutdown();
    assert!(matches!(
        server.infer(&image_for(0)).unwrap_err(),
        InferError::Closed
    ));
}

#[test]
fn chaos_matrix_reject_new() {
    chaos_run_with(toy_artifact(), ShedPolicy::RejectNew);
}

#[test]
fn chaos_matrix_drop_oldest() {
    chaos_run_with(toy_artifact(), ShedPolicy::DropOldest);
}

// Quantized artifacts run the identical chaos matrix: restarts rebuild the
// executor from the NDINF2 artifact, and successful replies stay
// bit-identical to the unfaulted quantized reference.

#[test]
fn chaos_matrix_quantized_reject_new() {
    chaos_run_with(quantized_toy_artifact(), ShedPolicy::RejectNew);
}

#[test]
fn chaos_matrix_quantized_drop_oldest() {
    chaos_run_with(quantized_toy_artifact(), ShedPolicy::DropOldest);
}

#[test]
fn drain_answers_every_straggler() {
    // Stall the first batch, queue stragglers behind it, then shut down
    // with a generous drain budget: everything queued must still be
    // answered successfully before the server exits.
    let server = Arc::new(Server::start_with(
        toy_artifact(),
        ServeOptions {
            policy: BatchPolicy {
                max_batch: 1,
                max_wait: Duration::from_micros(0),
            },
            queue_cap: 64,
            fault_plan: ServeFaultPlan {
                panic_at_batches: vec![],
                slow_batches: vec![(0, Duration::from_millis(150))],
            },
            ..ServeOptions::default()
        },
    ));
    let mut handles = Vec::new();
    for g in 0..6 {
        let s = Arc::clone(&server);
        handles.push(std::thread::spawn(move || s.infer(&image_for(g))));
    }
    std::thread::sleep(Duration::from_millis(50)); // all submitted, batch 0 stalled
    server.shutdown_within(Duration::from_secs(5));
    for h in handles {
        assert!(h.join().expect("client thread").is_ok());
    }
}
