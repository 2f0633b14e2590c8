//! The serving workloads: two models in a fleet behind a router, traffic
//! split 2:1 by seed — f32 NDINF1 at ERK 0.9 and int8 NDINF2 at ERK 0.8.
//!
//! One run is an open-loop Poisson phase at a fixed rate (two thirds of the
//! time budget), which gives the latency metrics, then a closed loop with
//! both clients (the last third), which gives throughput. Latency is
//! charged from each request's due time, so a stall shows up in the
//! requests queued behind it. Each phase runs on a fresh fleet, so the
//! accounting identity is checked per phase.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ndsnn_infer::{Executor, Fleet, FleetOptions, ModelRegistry, RegistryOptions, Router};

use crate::gen;
use crate::infer::{self, CHECK_EVERY, F32_MODEL, INT8_MODEL};
use crate::stats::{median, nearest_rank, windowed};
use crate::trace::Tracer;
use crate::workload::{Checks, Outcome, Scale};

/// Closed-loop clients: as many as the bench host has cores.
const CLOSED_CLIENTS: usize = 2;

/// Open-loop sender threads. Each blocks in `Router::infer` for its whole
/// request, so a request due while every sender waits is sent late; with 2
/// senders the generator ran 2.4 ms late at p99 at 500 rps. With 4, all are
/// busy at once for about 0.2% of arrivals at 500 rps. A waiting sender is
/// blocked, not runnable, so it does not compete with the server for cores.
const OPEN_SENDERS: usize = 4;

const MODELS: [infer::Model; 2] = [F32_MODEL, INT8_MODEL];
const WEIGHTS: [f64; 2] = [2.0, 1.0];

/// An open-loop generator running later than this at p99 marks the run
/// invalid: the load was not the load the schedule describes.
const MAX_GEN_LATE_P99_MS: f64 = 2.0;

/// Distinct images and routes the closed loop cycles through.
const CLOSED_POOL: usize = 256;

/// B1 forwards per model the traced run times on direct executors.
const TRACE_B1_FORWARDS: usize = 64;

/// One answered request.
struct Sample {
    index: usize,
    model: usize,
    due: Duration,
    sent: Duration,
    done: Duration,
    /// Server-side latency and batch size, or the error.
    reply: Result<(Duration, usize), String>,
    /// Logits of every `CHECK_EVERY`-th request, for the direct re-check.
    logits: Option<Vec<f32>>,
}

fn start_router(registry: &ModelRegistry) -> Result<Router, String> {
    let models: Vec<(&str, f64)> = MODELS.iter().map(|m| m.name).zip(WEIGHTS).collect();
    Fleet::from_registry(registry, &models, FleetOptions::default())
        .map(Router::new)
        .map_err(|e| e.to_string())
}

/// `clients` threads take the next request from a shared cursor. In the
/// open loop (`due` set) a client sleeps until the request is due; in the
/// closed loop it sends at once until `until` passes.
fn drive(
    clients: usize,
    router: &Router,
    images: &[Vec<f32>],
    routes: &[usize],
    due: Option<&[Duration]>,
    until: Duration,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let client = || {
        let mut out = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let due_at = match due {
                Some(due) if index >= due.len() => return out,
                Some(due) => due[index],
                None if t0.elapsed() >= until => return out,
                None => t0.elapsed(),
            };
            if let Some(wait) = due_at.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            let model = routes[index % routes.len()];
            let sent = t0.elapsed();
            let r = router.infer(MODELS[model].name, &images[index % images.len()]);
            let done = t0.elapsed();
            let logits = match &r {
                Ok(reply) if index.is_multiple_of(CHECK_EVERY) => Some(reply.logits.clone()),
                _ => None,
            };
            out.push(Sample {
                index,
                model,
                due: due_at,
                sent,
                done,
                reply: r
                    .map(|reply| (reply.latency, reply.batch_size))
                    .map_err(|e| e.to_string()),
                logits,
            });
        }
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|_| s.spawn(client)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Shuts the phase's fleet down and checks that every request got exactly
/// one typed reply. Returns the requests the fleet failed (shed, expired,
/// faulted, closed or rejected).
fn finish_phase(router: Router, phase: &'static str, checks: &mut Checks) -> u64 {
    router.shutdown();
    let stats = router.stats().fleet_totals();
    let identity = stats.accounting_identity();
    checks.check(phase, identity.is_ok(), || {
        identity.clone().err().unwrap_or_default()
    });
    stats.shed + stats.deadline_expired + stats.faulted + stats.closed + stats.bad_inputs
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(rate_rps: f64, seed: u64, scale: Scale, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = infer::model_config(scale.profile);
    let params = [
        infer::params(&cfg, F32_MODEL, seed)?,
        infer::params(&cfg, INT8_MODEL, seed)?,
    ];

    // Set-up: compile → quantize → encode → register → fleet start.
    let mut setups = Vec::new();
    let mut registry = None;
    for _ in 0..scale.setup_reps {
        let t = Instant::now();
        let reg = ModelRegistry::new(RegistryOptions::default());
        for (model, p) in MODELS.iter().zip(&params) {
            infer::register(&reg, &cfg, p, *model, tr)?;
        }
        let router = tr.span("infer.fleet_start", || start_router(&reg))?;
        setups.push(t.elapsed().as_secs_f64());
        router.shutdown();
        registry = Some(reg);
    }
    let registry = registry.ok_or("no set-up ran")?;
    out.reps = setups.len();
    let arts: Vec<_> = MODELS
        .iter()
        .map(|m| registry.get(m.name).ok_or("registered model missing"))
        .collect::<Result<_, _>>()?;
    let sample_len = arts[0].sample_len();

    // Open loop at the fixed rate.
    let open_span = Duration::from_secs_f64(scale.seconds * 2.0 / 3.0);
    let due = gen::poisson_arrivals(seed, rate_rps, open_span);
    let routes = gen::routing(seed, due.len().max(1), &WEIGHTS);
    let images = gen::images(seed, due.len().max(CLOSED_POOL), sample_len);
    let router = start_router(&registry)?;
    let phase = tr.begin("serve.open_loop");
    let open = drive(
        OPEN_SENDERS,
        &router,
        &images,
        &routes,
        Some(&due),
        open_span,
    );
    tr.end(phase);
    let mut fleet_failed = finish_phase(router, "serve.open_accounting", &mut out.checks);

    // Closed loop: both clients, back to back.
    let closed_for = Duration::from_secs_f64(scale.seconds / 3.0);
    let router = start_router(&registry)?;
    let phase = tr.begin("serve.closed_loop");
    let t = Instant::now();
    let closed = drive(
        CLOSED_CLIENTS,
        &router,
        &images[..CLOSED_POOL],
        &routes[..CLOSED_POOL.min(routes.len())],
        None,
        closed_for,
    );
    let closed_s = t.elapsed().as_secs_f64();
    tr.end(phase);
    fleet_failed += finish_phase(router, "serve.closed_accounting", &mut out.checks);

    // Every CHECK_EVERY-th reply must equal a direct forward on the same
    // image, bit for bit: batching never changes a request's logits.
    let mut execs: Vec<Executor> = arts.iter().cloned().map(Executor::new).collect();
    for e in &mut execs {
        e.reset_counters();
    }
    let b1_spans = ["exec.f32_b1", "exec.int8_b1"];
    for (s, pool) in open
        .iter()
        .map(|s| (s, &images[..]))
        .chain(closed.iter().map(|s| (s, &images[..CLOSED_POOL])))
    {
        let Some(logits) = &s.logits else { continue };
        let image = &pool[s.index % pool.len()];
        let x = infer::input(&arts[s.model], &[image])?;
        let want = tr
            .span(b1_spans[s.model], || execs[s.model].forward(&x))
            .map_err(|e| e.to_string())?;
        out.checks.check(
            "serve.reply_bit_equal_direct",
            infer::same_bits(logits, want.as_slice()),
            || format!("{} request {}", MODELS[s.model].name, s.index),
        );
    }

    for s in open.iter().chain(&closed) {
        out.attempted += 1;
        if let Err(e) = &s.reply {
            out.failed += 1;
            out.checks.check("serve.request", false, || {
                format!("request {}: {e}", s.index)
            });
        }
    }
    let late_ms: Vec<f64> = open
        .iter()
        .map(|s| ms(s.sent.saturating_sub(s.due)))
        .collect();
    let gen_late_p99 = nearest_rank(&late_ms, 99.0).unwrap_or(0.0);
    if gen_late_p99 >= MAX_GEN_LATE_P99_MS {
        out.invalid = Some(format!(
            "open-loop generator p99 lateness {gen_late_p99:.3} ms >= {MAX_GEN_LATE_P99_MS} ms"
        ));
    }

    let m = &mut out.metrics;
    if tr.enabled() {
        infer::setup_metrics(tr, setups.len(), m);
        let server_ms: Vec<f64> = open
            .iter()
            .map(|s| s.reply.as_ref().map_or(f64::INFINITY, |r| ms(r.0)))
            .collect();
        let batch: Vec<f64> = open
            .iter()
            .filter_map(|s| s.reply.as_ref().ok().map(|r| r.1 as f64))
            .collect();
        m.insert(
            "serve.server_p50_ms",
            nearest_rank(&server_ms, 50.0).unwrap_or(0.0),
        );
        m.insert(
            "serve.server_p99_ms",
            nearest_rank(&server_ms, 99.0).unwrap_or(0.0),
        );
        m.insert(
            "serve.batch_mean",
            batch.iter().sum::<f64>() / batch.len().max(1) as f64,
        );
        m.insert("serve.failed", fleet_failed as f64);
        m.insert("bench.gen_late_p99_ms", gen_late_p99);

        // Time batch-1 forwards on the served artifacts directly.
        for (k, exec) in execs.iter_mut().enumerate() {
            for image in images.iter().take(TRACE_B1_FORWARDS) {
                let x = infer::input(&arts[k], &[image])?;
                tr.span(b1_spans[k], || exec.forward(&x))
                    .map_err(|e| e.to_string())?;
            }
        }
        let f32_ms = tr.ms(b1_spans[0]);
        let int8_ms = tr.ms(b1_spans[1]);
        m.insert("exec.f32_b1_ms", median(&f32_ms).unwrap_or(0.0));
        m.insert("exec.int8_b1_ms", median(&int8_ms).unwrap_or(0.0));
        infer::exec_metrics(
            &execs[0],
            f32_ms.len(),
            f32_ms.iter().sum(),
            &infer::F32_KINDS,
            "exec.f32.coverage",
            m,
        );
        infer::exec_metrics(
            &execs[1],
            int8_ms.len(),
            int8_ms.iter().sum(),
            &infer::INT8_KINDS,
            "exec.int8.coverage",
            m,
        );
    } else {
        let latency: Vec<(f64, f64)> = open
            .iter()
            .map(|s| {
                let l = match s.reply {
                    Ok(_) => ms(s.done - s.due),
                    Err(_) => f64::INFINITY,
                };
                (s.due.as_secs_f64(), l)
            })
            .collect();
        let all: Vec<f64> = latency.iter().map(|s| s.1).collect();
        let served = closed.iter().filter(|s| s.reply.is_ok()).count();
        m.insert("setup_s", median(&setups).expect("set-ups ran"));
        m.insert("latency_p50_ms", nearest_rank(&all, 50.0).unwrap_or(0.0));
        m.insert(
            "latency_p99_ms",
            windowed(&latency, open_span.as_secs_f64(), 99.0).unwrap_or(0.0),
        );
        m.insert("samples_per_s", served as f64 / closed_s);
    }
    Ok(out)
}
