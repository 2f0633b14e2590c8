//! Forward-only executor for frozen NDINF1 artifacts.
//!
//! [`Executor`] walks the frozen op list once per timestep and averages the
//! logits, mirroring `ndsnn_snn::network::SpikingNetwork::forward` in
//! eval mode **operation for operation**: the same kernels (or serial loops
//! with identical accumulation order) run over the same values, so the
//! logits are bit-identical to the training graph at any `NDSNN_THREADS`
//! setting. The only state that survives a timestep is the per-LIF membrane
//! potential and previous-spike buffer, both preallocated once and reset at
//! the start of every [`Executor::forward`] call — no gradients, no
//! activation caches, no optimizer plumbing.
//!
//! Per-op wall-clock counters accumulate across calls and are exposed via
//! [`Executor::layer_ns`]; a [`Op::Residual`] entry reports time inclusive
//! of its children.

use std::sync::Arc;
use std::time::Instant;

use ndsnn_tensor::ops::conv::{conv2d_forward, Conv2dGeometry, ConvWeight};
use ndsnn_tensor::ops::matmul::matmul_a_bt;
use ndsnn_tensor::ops::pool::{
    avg_pool2d_forward, global_avg_pool, max_pool2d_forward, Pool2dGeometry,
};
use ndsnn_tensor::ops::quant::csr_xwt_i8;
use ndsnn_tensor::ops::spmm::csr_xwt;
use ndsnn_tensor::ops::tile::{AffineLifRow, AffineRow, BiasRow, NoEpilogue, TileEpilogue};
use ndsnn_tensor::scratch::ScratchPool;
use ndsnn_tensor::Tensor;

use crate::artifact::{binary_inputs, Artifact, Op, WeightStore};
use crate::error::{InferError, Result};

/// Membrane state of one frozen LIF layer.
///
/// `None` means "not yet stepped since reset" — the first timestep seeds the
/// membrane with zeros and the previous-spike term with `0.0`, exactly like
/// the training layer after `reset_state`.
#[derive(Debug, Default)]
struct LifState {
    v: Option<Vec<f32>>,
    o_prev: Option<Vec<f32>>,
}

impl LifState {
    fn reset(&mut self) {
        self.v = None;
        self.o_prev = None;
    }
}

fn exec_err(msg: impl std::fmt::Display) -> InferError {
    InferError::Exec(msg.to_string())
}

/// Whether an op carries (or contains) membrane state. Everything else is a
/// pure function of its input, so a leading run of stateless ops produces
/// the same output every timestep under `Direct` encoding.
fn is_stateful(op: &Op) -> bool {
    matches!(op, Op::Lif { .. } | Op::Residual { .. })
}

/// One top-level execution step: either a single op, or a frozen conv block
/// fused into one kernel pass.
///
/// Fusion never changes a value: the affine (and conv bias) ride the tiled
/// conv as a per-tile epilogue applied after each output element's full
/// accumulation — exactly where the standalone `Affine` op ran — and the LIF
/// threshold joins only at `timesteps == 1`, where the membrane update from
/// reset state collapses to a pure compare (`v = 0`, `o_prev = 0`, so the
/// new membrane is the input for both reset modes and only the spike
/// survives the call). Multi-timestep LIFs keep their membrane and stay
/// unfused.
#[derive(Debug, Clone, Copy)]
enum TopStep {
    /// Run `ops[i]` as-is.
    Run(usize),
    /// `ops[conv]` (Conv2d) + `ops[affine]` (Affine) + optionally
    /// `ops[lif]` (Lif, single-timestep only) as one fused kernel pass.
    FusedConv {
        conv: usize,
        affine: usize,
        lif: Option<usize>,
    },
}

/// Number of per-op counter slots `op` occupies (Residual entries carry
/// their children).
fn op_name_count(op: &Op) -> usize {
    match op {
        Op::Residual {
            main,
            shortcut,
            lif_out,
            ..
        } => {
            1 + main.iter().map(op_name_count).sum::<usize>()
                + shortcut.iter().map(op_name_count).sum::<usize>()
                + op_name_count(lif_out)
        }
        _ => 1,
    }
}

/// Builds the fused step plan over the top-level op list, plus each op's
/// global counter index. Conv2d + Affine fuse whenever the affine's channel
/// vectors match the conv's output channels; a directly following Lif joins
/// only when `timesteps == 1`.
fn build_steps(ops: &[Op], timesteps: usize) -> (Vec<TopStep>, Vec<usize>) {
    let mut global_idx = Vec::with_capacity(ops.len());
    let mut g = 0;
    for op in ops {
        global_idx.push(g);
        g += op_name_count(op);
    }
    let mut steps = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        if let Op::Conv2d { geometry, .. } = &ops[i] {
            if let Some(Op::Affine {
                mean,
                inv_std,
                gamma,
                beta,
                ..
            }) = ops.get(i + 1)
            {
                let f = geometry.out_channels;
                if mean.len() == f && inv_std.len() == f && gamma.len() == f && beta.len() == f {
                    let lif = match ops.get(i + 2) {
                        Some(Op::Lif { .. }) if timesteps == 1 => Some(i + 2),
                        _ => None,
                    };
                    steps.push(TopStep::FusedConv {
                        conv: i,
                        affine: i + 1,
                        lif,
                    });
                    i += 2 + usize::from(lif.is_some());
                    continue;
                }
            }
        }
        steps.push(TopStep::Run(i));
        i += 1;
    }
    (steps, global_idx)
}

/// Whether a step carries membrane state (fused conv blocks are stateful
/// only when they absorbed a LIF).
fn step_stateful(step: &TopStep, ops: &[Op]) -> bool {
    match step {
        TopStep::Run(i) => is_stateful(&ops[*i]),
        TopStep::FusedConv { lif, .. } => lif.is_some(),
    }
}

fn collect_names(ops: &[Op], names: &mut Vec<String>, lif_count: &mut usize) {
    for op in ops {
        names.push(op.name().to_string());
        match op {
            Op::Lif { .. } => *lif_count += 1,
            Op::Residual {
                main,
                shortcut,
                lif_out,
                ..
            } => {
                collect_names(main, names, lif_count);
                collect_names(shortcut, names, lif_count);
                collect_names(std::slice::from_ref(lif_out), names, lif_count);
            }
            _ => {}
        }
    }
}

/// A reusable forward-only engine over one frozen artifact.
///
/// Construction preallocates one membrane-state slot per LIF layer and a
/// scratch pool for im2col workspaces; a `forward` call allocates only the
/// activation tensors themselves. The executor is intentionally `!Sync` in
/// use (forward takes `&mut self`): one executor serves one thread, and the
/// serving runtime owns exactly one.
pub struct Executor {
    art: Arc<Artifact>,
    states: Vec<LifState>,
    ns: Vec<u64>,
    names: Vec<String>,
    pool: ScratchPool,
    state_cursor: usize,
    op_cursor: usize,
    /// Fused top-level execution plan (see [`TopStep`]).
    steps: Vec<TopStep>,
    /// Global counter index of each top-level op (Residual children occupy
    /// the slots after their parent).
    global_idx: Vec<usize>,
    /// Per counter slot, whether the op's input is certainly binary
    /// ([`binary_inputs`]): a sparse conv there runs the spike walk.
    binary: Vec<bool>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("arch", &self.art.manifest.arch)
            .field("ops", &self.names.len())
            .field("lif_layers", &self.states.len())
            .finish()
    }
}

impl Executor {
    /// Builds an executor over `artifact`, preallocating all per-layer state.
    pub fn new(artifact: Arc<Artifact>) -> Executor {
        let mut names = Vec::new();
        let mut lif_count = 0;
        collect_names(&artifact.ops, &mut names, &mut lif_count);
        let ns = vec![0u64; names.len()];
        let states = (0..lif_count).map(|_| LifState::default()).collect();
        let (steps, global_idx) = build_steps(&artifact.ops, artifact.manifest.timesteps);
        Executor {
            binary: binary_inputs(&artifact.ops),
            art: artifact,
            states,
            ns,
            names,
            pool: ScratchPool::new(),
            state_cursor: 0,
            op_cursor: 0,
            steps,
            global_idx,
        }
    }

    /// The artifact this executor runs.
    pub fn artifact(&self) -> &Arc<Artifact> {
        &self.art
    }

    /// Runs a full multi-timestep forward over a `(B, C, H, W)` batch and
    /// returns the timestep-averaged `(B, num_classes)` logits.
    ///
    /// Bit-identical to `SpikingNetwork::forward` in eval mode on the same
    /// weights: per timestep the raw images feed the graph (`Direct`
    /// encoding), the first timestep's logits seed the accumulator and later
    /// ones `add_assign` in order, then the sum is scaled by `1/T`.
    pub fn forward(&mut self, images: &Tensor) -> Result<Tensor> {
        let m = &self.art.manifest;
        let d = images.dims().to_vec();
        if images.rank() != 4
            || d[1] != m.in_channels
            || d[2] != m.image_size
            || d[3] != m.image_size
        {
            return Err(exec_err(format!(
                "input {:?} does not match artifact geometry ({}, {}, {})",
                d, m.in_channels, m.image_size, m.image_size
            )));
        }
        for st in &mut self.states {
            st.reset();
        }
        let art = Arc::clone(&self.art);
        let timesteps = art.manifest.timesteps;
        // With Direct encoding every timestep replays the same input, so the
        // leading stateless steps (typically the first fused conv block)
        // produce identical tensors each step: compute them once and reuse.
        let prefix = self
            .steps
            .iter()
            .take_while(|s| !step_stateful(s, &art.ops))
            .count();
        let mut prefix_out: Option<Tensor> = None;
        let mut acc: Option<Tensor> = None;
        for t in 0..timesteps {
            self.state_cursor = 0;
            let mut x = match (t, &prefix_out) {
                (1.., Some(cached)) => cached.clone(),
                _ => {
                    let mut x = images.clone();
                    for si in 0..prefix {
                        x = self.run_step(&art, si, x)?;
                    }
                    if prefix > 0 && timesteps > 1 {
                        prefix_out = Some(x.clone());
                    }
                    x
                }
            };
            for si in prefix..self.steps.len() {
                x = self.run_step(&art, si, x)?;
            }
            match &mut acc {
                Some(a) => a.add_assign(&x)?,
                None => acc = Some(x),
            }
        }
        let mut mean = acc.ok_or_else(|| exec_err("artifact has zero timesteps"))?;
        mean.scale_in_place(1.0 / timesteps as f32);
        Ok(mean)
    }

    /// Per-op `(name, accumulated_nanoseconds)` counters in forward order
    /// (Residual entries include their children).
    pub fn layer_ns(&self) -> Vec<(String, u64)> {
        self.names
            .iter()
            .cloned()
            .zip(self.ns.iter().copied())
            .collect()
    }

    /// Zeroes the per-op time counters.
    pub fn reset_counters(&mut self) {
        self.ns.iter_mut().for_each(|v| *v = 0);
    }

    /// Executes one top-level plan step. `Run` steps delegate to `run_op`
    /// with the cursor pointed at the op's counter slot; `FusedConv` steps
    /// run the convolution with the affine (and threshold, at T==1) folded
    /// into the tile epilogue. Fused wall time is charged entirely to the
    /// conv's counter — the affine/LIF counters stay zero, matching the
    /// training profiler's rule that epilogue work belongs to the kernel.
    fn run_step(&mut self, art: &Artifact, si: usize, x: Tensor) -> Result<Tensor> {
        match self.steps[si] {
            TopStep::Run(i) => {
                self.op_cursor = self.global_idx[i];
                self.run_op(&art.ops[i], x)
            }
            TopStep::FusedConv { conv, affine, lif } => {
                let idx = self.global_idx[conv];
                let start = Instant::now();
                let (name, geometry, weight, conv_bias) = match &art.ops[conv] {
                    Op::Conv2d {
                        name,
                        geometry,
                        weight,
                        bias,
                    } => (name, geometry, weight, bias),
                    _ => unreachable!("build_steps only fuses Conv2d"),
                };
                let (mean, inv_std, gamma, beta) = match &art.ops[affine] {
                    Op::Affine {
                        mean,
                        inv_std,
                        gamma,
                        beta,
                        ..
                    } => (mean, inv_std, gamma, beta),
                    _ => unreachable!("build_steps only fuses Affine"),
                };
                let affine_epi = AffineRow {
                    bias: conv_bias.as_ref().map(|b| b.as_slice()),
                    mean: mean.as_slice(),
                    inv_std: inv_std.as_slice(),
                    gamma: gamma.as_slice(),
                    beta: beta.as_slice(),
                };
                let binary = self.binary[idx];
                let out = match lif {
                    Some(li) => {
                        let v_threshold = match &art.ops[li] {
                            Op::Lif { v_threshold, .. } => *v_threshold,
                            _ => unreachable!("build_steps only fuses Lif"),
                        };
                        let epi = AffineLifRow {
                            affine: affine_epi,
                            v_threshold,
                        };
                        self.run_conv(name, weight, geometry, &x, binary, &epi)?
                    }
                    None => self.run_conv(name, weight, geometry, &x, binary, &affine_epi)?,
                };
                if lif.is_some() {
                    // The fused threshold consumed the LIF's slot for this
                    // timestep; its (unused, reset) state stays aligned.
                    self.state_cursor += 1;
                }
                self.ns[idx] += start.elapsed().as_nanos() as u64;
                Ok(out)
            }
        }
    }

    fn run_op(&mut self, op: &Op, x: Tensor) -> Result<Tensor> {
        let idx = self.op_cursor;
        self.op_cursor += 1;
        let start = Instant::now();
        let out = match op {
            Op::Linear {
                name,
                out_features,
                in_features,
                weight,
                bias,
            } => self.run_linear(name, *out_features, *in_features, weight, bias.as_ref(), x)?,
            Op::Conv2d {
                name,
                geometry,
                weight,
                bias,
            } => {
                let binary = self.binary[idx];
                match bias {
                    Some(b) => {
                        let epi = BiasRow(b.as_slice());
                        self.run_conv(name, weight, geometry, &x, binary, &epi)?
                    }
                    None => self.run_conv(name, weight, geometry, &x, binary, &NoEpilogue)?,
                }
            }
            Op::Affine {
                name,
                mean,
                inv_std,
                gamma,
                beta,
            } => run_affine(name, mean, inv_std, gamma, beta, &x)?,
            Op::Lif {
                name,
                alpha,
                v_threshold,
                hard_reset,
            } => {
                let cursor = self.state_cursor;
                self.state_cursor += 1;
                let state = self
                    .states
                    .get_mut(cursor)
                    .ok_or_else(|| exec_err(format!("{name}: LIF state cursor out of range")))?;
                run_lif(name, *alpha, *v_threshold, *hard_reset, state, &x)?
            }
            Op::AvgPool2d { name, kernel } => {
                avg_pool2d_forward(&x, &Pool2dGeometry::non_overlapping(*kernel))
                    .map_err(|e| exec_err(format!("{name}: {e}")))?
            }
            Op::MaxPool2d { name, kernel } => {
                max_pool2d_forward(&x, &Pool2dGeometry::non_overlapping(*kernel))
                    .map_err(|e| exec_err(format!("{name}: {e}")))?
                    .0
            }
            Op::Flatten { name } => {
                if x.rank() < 2 {
                    return Err(exec_err(format!("{name}: input rank < 2")));
                }
                let b = x.dims()[0];
                let rest = x.len() / b.max(1);
                x.reshape([b, rest])
                    .map_err(|e| exec_err(format!("{name}: {e}")))?
            }
            Op::GlobalAvgPool { name } => {
                global_avg_pool(&x).map_err(|e| exec_err(format!("{name}: {e}")))?
            }
            Op::Residual {
                main,
                shortcut,
                lif_out,
                ..
            } => {
                let input = x;
                let mut y = input.clone();
                for child in main {
                    y = self.run_op(child, y)?;
                }
                let skip = if shortcut.is_empty() {
                    input
                } else {
                    let mut s = input;
                    for child in shortcut {
                        s = self.run_op(child, s)?;
                    }
                    s
                };
                y.add_assign(&skip)?;
                self.run_op(lif_out, y)?
            }
        };
        self.ns[idx] += start.elapsed().as_nanos() as u64;
        Ok(out)
    }

    fn run_linear(
        &self,
        name: &str,
        out_features: usize,
        in_features: usize,
        weight: &WeightStore,
        bias: Option<&Tensor>,
        x: Tensor,
    ) -> Result<Tensor> {
        if x.rank() != 2 || x.dims()[1] != in_features {
            return Err(exec_err(format!(
                "{name}: input {:?} does not match in_features {in_features}",
                x.dims()
            )));
        }
        let b = x.dims()[0];
        let mut y = match weight {
            WeightStore::Dense(w) => {
                matmul_a_bt(&x, w).map_err(|e| exec_err(format!("{name}: {e}")))?
            }
            WeightStore::Csr(m) => {
                // Same zero-seeded accumulate the training graph's exec plan
                // uses; csr_xwt is bit-identical to matmul_a_bt per row.
                let mut y = Tensor::zeros([b, out_features]);
                csr_xwt(m.csr(), x.as_slice(), y.as_mut_slice(), b);
                y
            }
            WeightStore::QuantCsr(q) => {
                // Multiply-free gather-add: the compiler only quantizes
                // layers with guaranteed-binary inputs, so every fired
                // feature contributes its raw i8 weight to an i32
                // accumulator; one f32 multiply per logit requantizes.
                if q.csr().dims() != (out_features, in_features) {
                    return Err(exec_err(format!(
                        "{name}: quant weight {:?} does not match ({out_features}, {in_features})",
                        q.csr().dims()
                    )));
                }
                let mut y = Tensor::zeros([b, out_features]);
                csr_xwt_i8(q.csr(), q.scales(), x.as_slice(), y.as_mut_slice(), b);
                y
            }
        };
        if let Some(bias) = bias {
            let k = out_features;
            let od = y.as_mut_slice();
            for i in 0..b {
                for (o, &bv) in od[i * k..(i + 1) * k].iter_mut().zip(bias.as_slice()) {
                    *o += bv;
                }
            }
        }
        Ok(y)
    }

    /// Runs one convolution with `epi` applied after each output element's
    /// full accumulation: the unfused `Conv2d` op passes its bias
    /// ([`BiasRow`], or [`NoEpilogue`]), a fused block its affine and
    /// threshold. Training's forward runs every store: dense ones on the
    /// tiles, CSR and int8 ones through their memoized column view, on the
    /// spike walk where `binary` certifies the input 0/1.
    fn run_conv(
        &self,
        name: &str,
        weight: &WeightStore,
        g: &Conv2dGeometry,
        x: &Tensor,
        binary: bool,
        epi: &impl TileEpilogue,
    ) -> Result<Tensor> {
        let weight = match weight {
            WeightStore::Dense(w) => ConvWeight::Dense(w),
            WeightStore::Csr(m) => {
                let (cols, vals) = m.column_view();
                ConvWeight::Cols(cols, vals)
            }
            WeightStore::QuantCsr(q) => {
                let (cols, vals) = q.column_view();
                ConvWeight::Int8(cols, vals, q.scales())
            }
        };
        let spikes = binary && !matches!(weight, ConvWeight::Dense(_));
        conv2d_forward(x, weight, g, spikes, epi, &self.pool)
            .map_err(|e| exec_err(format!("{name}: {e}")))
    }
}

/// Frozen BatchNorm epilogue: per channel `out = γ·(x − μ)·inv_std + β`,
/// the exact f32 expression of the training layer's eval forward (the
/// compiler only precomputes `inv_std`, which eval derives from the same
/// `1/√(var+ε)` — no value folding, so no rounding differences).
fn run_affine(
    name: &str,
    mean: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    beta: &[f32],
    x: &Tensor,
) -> Result<Tensor> {
    let d = x.dims();
    let (b, c, spatial) = match x.rank() {
        2 => (d[0], d[1], 1),
        4 => (d[0], d[1], d[2] * d[3]),
        r => return Err(exec_err(format!("{name}: unsupported input rank {r}"))),
    };
    if c != mean.len() || c != inv_std.len() || c != gamma.len() || c != beta.len() {
        return Err(exec_err(format!(
            "{name}: channel count {c} does not match affine parameters"
        )));
    }
    let mut out = Tensor::zeros(x.dims());
    let id = x.as_slice();
    let od = out.as_mut_slice();
    for s in 0..b {
        for ch in 0..c {
            let base = (s * c + ch) * spatial;
            let (m, is, g, be) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
            for i in base..base + spatial {
                let xh = (id[i] - m) * is;
                od[i] = g * xh + be;
            }
        }
    }
    Ok(out)
}

/// One LIF timestep with the training layer's exact update:
/// soft reset `v ← α·v + I − ϑ·o_prev`, hard reset
/// `v ← α·v·(1 − o_prev) + I`, spike `o = 1[v − ϑ ≥ 0]`. Elementwise, so
/// the serial loop is bit-identical to the training layer's chunked one.
fn run_lif(
    name: &str,
    alpha: f32,
    v_threshold: f32,
    hard_reset: bool,
    state: &mut LifState,
    x: &Tensor,
) -> Result<Tensor> {
    let n = x.len();
    let mut v = state.v.take().unwrap_or_else(|| vec![0.0f32; n]);
    if v.len() != n {
        return Err(exec_err(format!(
            "{name}: input size changed mid-sequence ({} -> {n})",
            v.len()
        )));
    }
    let o_prev = state.o_prev.take();
    let id = x.as_slice();
    let mut o = vec![0.0f32; n];
    for i in 0..n {
        let op = o_prev.as_ref().map_or(0.0, |s| s[i]);
        let nv = if hard_reset {
            alpha * v[i] * (1.0 - op) + id[i]
        } else {
            alpha * v[i] + id[i] - v_threshold * op
        };
        v[i] = nv;
        o[i] = f32::from(nv - v_threshold >= 0.0);
    }
    state.v = Some(v);
    state.o_prev = Some(o.clone());
    Tensor::from_vec(x.dims().to_vec(), o).map_err(|e| exec_err(format!("{name}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Manifest;
    use ndsnn_tensor::ops::conv::im2col;
    use ndsnn_tensor::Csr;

    fn manifest(timesteps: usize, in_channels: usize, image_size: usize) -> Manifest {
        Manifest {
            arch: "test".to_string(),
            timesteps,
            in_channels,
            image_size,
            num_classes: 2,
            mask_digest: 0,
            config_json: "{}".to_string(),
            densities: vec![],
        }
    }

    #[test]
    fn csr_and_dense_linear_agree_bitwise() {
        let w = Tensor::from_vec(
            [3, 4],
            vec![
                1.5, 0.0, -2.0, 0.25, 0.0, 0.0, 3.0, 0.0, 0.5, -0.5, 0.0, 0.0,
            ],
        )
        .unwrap();
        let bias = Tensor::from_slice(&[0.1, -0.2, 0.3]);
        let make = |store: WeightStore| Artifact {
            manifest: manifest(1, 1, 2),
            ops: vec![
                Op::Flatten {
                    name: "f".to_string(),
                },
                Op::Linear {
                    name: "fc".to_string(),
                    out_features: 3,
                    in_features: 4,
                    weight: store,
                    bias: Some(bias.clone()),
                },
            ],
        };
        let x = Tensor::from_vec(
            [2, 1, 2, 2],
            vec![0.5, -1.0, 2.0, 0.25, 1.0, 0.0, -0.5, 4.0],
        )
        .unwrap();
        let mut dense = Executor::new(Arc::new(make(WeightStore::Dense(w.clone()))));
        let mut csr = Executor::new(Arc::new(make(WeightStore::Csr(
            Csr::from_weight(&w).unwrap().into(),
        ))));
        let a = dense.forward(&x).unwrap();
        let b = csr.forward(&x).unwrap();
        assert_eq!(a.dims(), [2, 3]);
        for (va, vb) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn lif_soft_reset_matches_hand_computation() {
        // alpha 0.5, threshold 1.0, T = 3, constant input 0.8:
        // t0: v = 0.8, no spike. t1: v = 0.4 + 0.8 = 1.2, spike.
        // t2: v = 0.5*1.2 + 0.8 - 1.0 = 0.4, no spike.
        // Mean spike output = (0 + 1 + 0) / 3.
        let art = Artifact {
            manifest: manifest(3, 1, 1),
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
            ],
        };
        let mut ex = Executor::new(Arc::new(art));
        let x = Tensor::from_vec([1, 1, 1, 1], vec![0.8]).unwrap();
        let y = ex.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[1.0 / 3.0]);
        // State resets between calls: a second forward is identical.
        let y2 = ex.forward(&x).unwrap();
        assert_eq!(y2.as_slice(), &[1.0 / 3.0]);
    }

    #[test]
    fn counters_accumulate_per_op() {
        let art = Artifact {
            manifest: manifest(2, 1, 2),
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
            ],
        };
        let mut ex = Executor::new(Arc::new(art));
        let x = Tensor::zeros([1, 1, 2, 2]);
        ex.forward(&x).unwrap();
        let ns = ex.layer_ns();
        assert_eq!(ns.len(), 2);
        assert_eq!(ns[0].0, "f");
        assert_eq!(ns[1].0, "lif");
        ex.reset_counters();
        assert!(ex.layer_ns().iter().all(|(_, n)| *n == 0));
    }

    /// Deterministic pseudo-random fill (no external RNG dep).
    fn fill(len: usize, seed: u32, sparse: bool) -> Vec<f32> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                let v = ((s >> 8) as f32 / (1 << 24) as f32) - 0.5;
                if sparse && !s.is_multiple_of(3) {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    /// Small conv block: 2 -> 3 channels, 3x3 kernel, pad 1 over 5x5 input.
    fn conv_block_ops(store: WeightStore, bias: &Tensor, timest_lif: bool) -> Vec<Op> {
        let mut ops = vec![
            Op::Conv2d {
                name: "conv".to_string(),
                geometry: Conv2dGeometry::square(2, 3, 3, 1, 1),
                weight: store,
                bias: Some(bias.clone()),
            },
            Op::Affine {
                name: "bn".to_string(),
                mean: vec![0.1, -0.2, 0.05],
                inv_std: vec![1.1, 0.9, 1.3],
                gamma: vec![0.8, 1.2, -0.7],
                beta: vec![0.01, -0.02, 0.03],
            },
        ];
        if timest_lif {
            ops.push(Op::Lif {
                name: "lif".to_string(),
                alpha: 0.5,
                v_threshold: 0.2,
                hard_reset: true,
            });
        }
        ops
    }

    /// Unfused reference: conv (+bias) through a single-op executor, then
    /// the standalone affine / LIF functions — the exact pre-fusion path.
    fn unfused_reference(
        store: WeightStore,
        bias: &Tensor,
        x: &Tensor,
        timesteps: usize,
        with_lif: bool,
    ) -> Tensor {
        let conv_art = Artifact {
            manifest: manifest(1, 2, 5),
            ops: vec![Op::Conv2d {
                name: "conv".to_string(),
                geometry: Conv2dGeometry::square(2, 3, 3, 1, 1),
                weight: store,
                bias: Some(bias.clone()),
            }],
        };
        let mut conv_ex = Executor::new(Arc::new(conv_art));
        let mut state = LifState::default();
        let mut acc: Option<Tensor> = None;
        for _ in 0..timesteps {
            let y = conv_ex.forward(x).unwrap();
            let y = run_affine(
                "bn",
                &[0.1, -0.2, 0.05],
                &[1.1, 0.9, 1.3],
                &[0.8, 1.2, -0.7],
                &[0.01, -0.02, 0.03],
                &y,
            )
            .unwrap();
            let y = if with_lif {
                run_lif("lif", 0.5, 0.2, true, &mut state, &y).unwrap()
            } else {
                y
            };
            match &mut acc {
                Some(a) => a.add_assign(&y).unwrap(),
                None => acc = Some(y),
            }
        }
        let mut mean = acc.unwrap();
        mean.scale_in_place(1.0 / timesteps as f32);
        mean
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.dims(), b.dims());
        for (va, vb) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn fused_dense_conv_block_bit_identical_to_unfused() {
        let w = Tensor::from_vec([3, 2, 3, 3], fill(54, 7, false)).unwrap();
        let bias = Tensor::from_slice(&[0.3, -0.1, 0.05]);
        // Batch of 2; second sample all zeros to cover the epilogue-on-zero
        // path (the affine of 0 is not 0).
        let mut xd = fill(2 * 2 * 5 * 5, 11, false);
        xd[50..].iter_mut().for_each(|v| *v = 0.0);
        let x = Tensor::from_vec([2, 2, 5, 5], xd).unwrap();
        for (timesteps, with_lif) in [(1, true), (1, false), (3, false), (3, true)] {
            let art = Artifact {
                manifest: manifest(timesteps, 2, 5),
                ops: conv_block_ops(WeightStore::Dense(w.clone()), &bias, with_lif),
            };
            let mut ex = Executor::new(Arc::new(art));
            // Conv + affine always fuse; the LIF joins only at T == 1.
            let fused_lif = with_lif && timesteps == 1;
            assert!(matches!(
                ex.steps[0],
                TopStep::FusedConv { lif, .. } if lif.is_some() == fused_lif
            ));
            let got = ex.forward(&x).unwrap();
            let want = unfused_reference(
                WeightStore::Dense(w.clone()),
                &bias,
                &x,
                timesteps,
                with_lif,
            );
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn fused_csr_conv_block_bit_identical_to_unfused() {
        let wd = Tensor::from_vec([3, 18], fill(54, 7, true)).unwrap();
        let w = Csr::from_weight(&wd).unwrap();
        let bias = Tensor::from_slice(&[0.3, -0.1, 0.05]);
        // Sample 0 sparse, sample 1 all-zero (the epilogue still applies),
        // sample 2 dense.
        let mut xd = fill(3 * 2 * 5 * 5, 11, true);
        xd[50..100].iter_mut().for_each(|v| *v = 0.0);
        xd[100..].iter_mut().enumerate().for_each(|(i, v)| {
            *v = 0.25 + i as f32 * 0.01;
        });
        let x = Tensor::from_vec([3, 2, 5, 5], xd).unwrap();
        for (timesteps, with_lif) in [(1, true), (3, false)] {
            let art = Artifact {
                manifest: manifest(timesteps, 2, 5),
                ops: conv_block_ops(WeightStore::Csr(w.clone().into()), &bias, with_lif),
            };
            let mut ex = Executor::new(Arc::new(art));
            let got = ex.forward(&x).unwrap();
            let want = unfused_reference(
                WeightStore::Csr(w.clone().into()),
                &bias,
                &x,
                timesteps,
                with_lif,
            );
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn fused_block_charges_conv_counter_only() {
        let w = Tensor::from_vec([3, 2, 3, 3], fill(54, 7, false)).unwrap();
        let bias = Tensor::from_slice(&[0.3, -0.1, 0.05]);
        let art = Artifact {
            manifest: manifest(1, 2, 5),
            ops: conv_block_ops(WeightStore::Dense(w.clone()), &bias, true),
        };
        let mut ex = Executor::new(Arc::new(art));
        let x = Tensor::from_vec([2, 2, 5, 5], fill(100, 3, false)).unwrap();
        ex.forward(&x).unwrap();
        let ns = ex.layer_ns();
        assert_eq!(
            ns.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            ["conv", "bn", "lif"]
        );
        // All fused work lands on the conv counter; the absorbed affine and
        // LIF counters must stay untouched (disjoint attribution).
        assert!(ns[0].1 > 0, "conv counter empty");
        assert_eq!(ns[1].1, 0, "affine counter must stay zero when fused");
        assert_eq!(ns[2].1, 0, "lif counter must stay zero when fused");
    }

    #[test]
    fn geometry_mismatch_is_an_error() {
        let art = Artifact {
            manifest: manifest(1, 3, 8),
            ops: vec![Op::Flatten {
                name: "f".to_string(),
            }],
        };
        let mut ex = Executor::new(Arc::new(art));
        let x = Tensor::zeros([1, 1, 8, 8]);
        assert!(ex.forward(&x).is_err());
    }

    /// Quantizes the sparse 3x18 conv weight used by the CSR block tests.
    fn quant_conv_weight() -> crate::quant::QuantWeight {
        let wd = Tensor::from_vec([3, 18], fill(54, 7, true)).unwrap();
        let csr = Csr::from_weight(&wd).unwrap();
        let (qw, _) = crate::quant::quantize_store(&WeightStore::Csr(csr.into())).unwrap();
        qw
    }

    /// Binary 0/1 spike batch: sample 0 mixed, sample 1 all-zero (the
    /// epilogue still applies), sample 2 all-ones.
    fn spike_batch() -> Tensor {
        let mut xd: Vec<f32> = fill(3 * 2 * 5 * 5, 11, true)
            .into_iter()
            .map(|v| if v != 0.0 { 1.0 } else { 0.0 })
            .collect();
        xd[50..100].iter_mut().for_each(|v| *v = 0.0);
        xd[100..].iter_mut().for_each(|v| *v = 1.0);
        Tensor::from_vec([3, 2, 5, 5], xd).unwrap()
    }

    #[test]
    fn quantized_conv_matches_integer_hand_reference() {
        let qw = quant_conv_weight();
        let x = spike_batch();
        let art = Artifact {
            manifest: manifest(1, 2, 5),
            ops: vec![Op::Conv2d {
                name: "conv".to_string(),
                geometry: Conv2dGeometry::square(2, 3, 3, 1, 1),
                weight: WeightStore::QuantCsr(qw.clone()),
                bias: None,
            }],
        };
        let mut ex = Executor::new(Arc::new(art));
        let got = ex.forward(&x).unwrap();
        // Independent reference: im2col by hand, then one i32 gather-add per
        // output element requantized with a single f32 multiply — the exact
        // arithmetic the kernel contracts to produce.
        let g = Conv2dGeometry::square(2, 3, 3, 1, 1);
        let (rows, cols) = qw.csr().dims();
        let mut want = vec![0.0f32; 3 * rows * 25];
        for s in 0..3 {
            let mut patches = vec![0.0f32; cols * 25];
            let sample = &x.as_slice()[s * 2 * 25..(s + 1) * 2 * 25];
            im2col(sample, &g, 5, 5, 5, 5, &mut patches);
            for r in 0..rows {
                for p in 0..25 {
                    let mut acc = 0i32;
                    for e in qw.csr().row_ptr()[r]..qw.csr().row_ptr()[r + 1] {
                        let ci = qw.csr().idx()[e as usize] as usize;
                        if patches[ci * 25 + p] != 0.0 {
                            acc += i32::from(qw.csr().val()[e as usize]);
                        }
                    }
                    want[s * rows * 25 + r * 25 + p] = qw.scales()[r] * acc as f32;
                }
            }
        }
        assert_eq!(got.dims(), [3, 3, 5, 5]);
        for (va, vb) in got.as_slice().iter().zip(&want) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn fused_quantized_conv_block_bit_identical_to_unfused() {
        let qw = quant_conv_weight();
        let bias = Tensor::from_slice(&[0.3, -0.1, 0.05]);
        let x = spike_batch();
        for (timesteps, with_lif) in [(1, true), (3, false)] {
            let art = Artifact {
                manifest: manifest(timesteps, 2, 5),
                ops: conv_block_ops(WeightStore::QuantCsr(qw.clone()), &bias, with_lif),
            };
            let mut ex = Executor::new(Arc::new(art));
            assert!(matches!(ex.steps[0], TopStep::FusedConv { .. }));
            let got = ex.forward(&x).unwrap();
            let want = unfused_reference(
                WeightStore::QuantCsr(qw.clone()),
                &bias,
                &x,
                timesteps,
                with_lif,
            );
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn quantized_forward_is_thread_count_invariant() {
        use ndsnn_tensor::parallel::{run_serial, set_thread_override};
        let qw = quant_conv_weight();
        let bias = Tensor::from_slice(&[0.3, -0.1, 0.05]);
        let x = spike_batch();
        let art = Arc::new(Artifact {
            manifest: manifest(1, 2, 5),
            ops: conv_block_ops(WeightStore::QuantCsr(qw), &bias, true),
        });
        let serial = run_serial(|| Executor::new(art.clone()).forward(&x).unwrap());
        set_thread_override(Some(4));
        let threaded = Executor::new(art).forward(&x).unwrap();
        set_thread_override(None);
        assert_bits_eq(&serial, &threaded);
    }

    #[test]
    fn quantized_linear_matches_integer_hand_reference() {
        let wd = Tensor::from_vec([3, 4], fill(12, 5, true)).unwrap();
        let csr = Csr::from_weight(&wd).unwrap();
        let (qw, _) = crate::quant::quantize_store(&WeightStore::Csr(csr.into())).unwrap();
        let art = Artifact {
            manifest: manifest(1, 1, 2),
            ops: vec![
                Op::Flatten {
                    name: "f".to_string(),
                },
                Op::Linear {
                    name: "fc".to_string(),
                    out_features: 3,
                    in_features: 4,
                    weight: WeightStore::QuantCsr(qw.clone()),
                    bias: Some(Tensor::from_slice(&[0.1, -0.2, 0.3])),
                },
            ],
        };
        let x =
            Tensor::from_vec([2, 1, 2, 2], vec![1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0]).unwrap();
        let mut ex = Executor::new(Arc::new(art));
        let got = ex.forward(&x).unwrap();
        let xs = x.as_slice();
        let mut want = vec![0.0f32; 2 * 3];
        for b in 0..2 {
            for r in 0..3 {
                let mut acc = 0i32;
                for e in qw.csr().row_ptr()[r]..qw.csr().row_ptr()[r + 1] {
                    let ci = qw.csr().idx()[e as usize] as usize;
                    if xs[b * 4 + ci] != 0.0 {
                        acc += i32::from(qw.csr().val()[e as usize]);
                    }
                }
                want[b * 3 + r] = qw.scales()[r] * acc as f32 + [0.1f32, -0.2, 0.3][r];
            }
        }
        for (va, vb) in got.as_slice().iter().zip(&want) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn csr_weight_shape_mismatch_is_an_error() {
        let w = Csr::from_weight(&Tensor::from_vec([3, 18], fill(54, 7, true)).unwrap()).unwrap();
        let lif = || Op::Lif {
            name: "lif".to_string(),
            alpha: 0.5,
            v_threshold: 0.5,
            hard_reset: false,
        };
        // Raw input (im2col) and, behind a LIF, spikes (the walk): both
        // refuse the 3x18 weight under a geometry whose col rows are 8.
        for front in [None, Some(lif())] {
            let conv = Op::Conv2d {
                name: "conv".to_string(),
                geometry: Conv2dGeometry::square(2, 3, 2, 1, 1),
                weight: WeightStore::Csr(w.clone().into()),
                bias: None,
            };
            let ops = front.into_iter().chain([conv]).collect();
            let mut ex = Executor::new(Arc::new(Artifact {
                manifest: manifest(1, 2, 5),
                ops,
            }));
            let x = Tensor::from_vec([1, 2, 5, 5], fill(50, 3, true)).unwrap();
            let err = ex.forward(&x).unwrap_err().to_string();
            assert!(err.contains("conv"), "{err}");
        }
    }

    #[test]
    fn quantized_weight_shape_mismatch_is_an_error() {
        let qw = quant_conv_weight(); // 3 x 18
        let art = Artifact {
            manifest: manifest(1, 2, 5),
            ops: vec![Op::Conv2d {
                name: "conv".to_string(),
                // cr = 2*2*2 = 8, filters = 3: disagrees with the 3x18 weight.
                geometry: Conv2dGeometry::square(2, 3, 2, 0, 1),
                weight: WeightStore::QuantCsr(qw),
                bias: None,
            }],
        };
        let mut ex = Executor::new(Arc::new(art));
        let x = Tensor::zeros([1, 2, 5, 5]);
        assert!(ex.forward(&x).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The executor's sparse conv against the naive references, bit for
        /// bit: `reference::conv2d_forward` for f32 CSR stores (~10% live
        /// entries plus ~3% stored zeros) and an integer reference (`i32`
        /// sums over the non-zero taps, then one requantize multiply) for
        /// int8 ones. Binary inputs come from a LIF in front of the conv, so
        /// the conv runs the spike walk; raw ones take `im2col` (f32) or
        /// count every non-zero as a spike (int8). The conv carries a bias,
        /// a fused affine, both or neither, at 1 and 2 threads.
        #[test]
        fn sparse_conv_matches_reference(
            size in 1usize..7,
            stride in 1usize..3,
            padding in 0usize..2,
            batch in 1usize..6,
            channels in (1usize..4, 1usize..6),
            flags in (proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY),
            affine in proptest::bool::ANY,
            threads in 1usize..3,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            let ((cin, cout), (int8, binary, bias)) = (channels, flags);
            let kernel = if size + 2 * padding >= 3 { 3 } else { 1 };
            let g = Conv2dGeometry::square(cin, cout, kernel, stride, padding);
            let (cr, thr) = (g.col_rows(), 0.3f32);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (mut ptr, mut idx, mut wf, mut wq) = (vec![0u32], vec![], vec![], vec![]);
            let (mut dense, mut qdense) = (vec![0.0f32; cout * cr], vec![0i32; cout * cr]);
            let mut scales = Vec::new();
            for k in 0..cout * cr {
                let u: f64 = rng.gen();
                if u < 0.13 {
                    let v = if u < 0.1 { rng.gen_range(-1.0f32..1.0) } else { 0.0 };
                    let q = if u < 0.1 { rng.gen_range(-127i8..=127) } else { 0 };
                    (dense[k], qdense[k]) = (v, i32::from(q));
                    idx.push((k % cr) as u32);
                    wf.push(v);
                    wq.push(q);
                }
                if k % cr == cr - 1 {
                    let stored = idx.len() as u32 > ptr[ptr.len() - 1];
                    scales.push(if stored { rng.gen_range(0.001f32..0.1) } else { 0.0 });
                    ptr.push(idx.len() as u32);
                }
            }
            let weight = if int8 {
                let q = Csr::from_parts(cout, cr, ptr, idx, wq).unwrap();
                WeightStore::QuantCsr(crate::quant::QuantWeight::new(q, scales.clone()).unwrap())
            } else {
                WeightStore::Csr(Csr::from_parts(cout, cr, ptr, idx, wf).unwrap().into())
            };
            let mut per_channel = |lo: f32, hi: f32| -> Vec<f32> {
                (0..cout).map(|_| rng.gen_range(lo..hi)).collect()
            };
            let (b, mean, inv_std) = (per_channel(-1.0, 1.0), per_channel(-1.0, 1.0), per_channel(0.5, 2.0));
            let (gamma, beta) = (per_channel(-2.0, 2.0), per_channel(-1.0, 1.0));
            let x: Vec<f32> = (0..batch * cin * size * size)
                .map(|_| if rng.gen_bool(0.4) { 0.0 } else { rng.gen_range(-1.0f32..1.0) })
                .collect();
            let x = Tensor::from_vec([batch, cin, size, size], x).unwrap();
            let lif = Op::Lif { name: "lif".into(), alpha: 0.5, v_threshold: thr, hard_reset: false };
            let conv = Op::Conv2d { name: "conv".into(), geometry: g, weight, bias: bias.then(|| Tensor::from_slice(&b)) };
            let (m, is, ga, be) = (mean.clone(), inv_std.clone(), gamma.clone(), beta.clone());
            let bn = Op::Affine { name: "bn".into(), mean: m, inv_std: is, gamma: ga, beta: be };
            let ops = [binary.then_some(lif), Some(conv), affine.then_some(bn)];
            let art = Artifact { manifest: manifest(1, cin, size), ops: ops.into_iter().flatten().collect() };
            ndsnn_tensor::parallel::set_thread_override(Some(threads));
            let got = Executor::new(Arc::new(art)).forward(&x);
            ndsnn_tensor::parallel::set_thread_override(None);

            // One LIF step from reset is a threshold compare on the input.
            let xin = if binary {
                let spikes = x.as_slice().iter().map(|&v| f32::from(v - thr >= 0.0)).collect();
                Tensor::from_vec(x.dims().to_vec(), spikes).unwrap()
            } else {
                x
            };
            let bias_v = bias.then_some(&b[..]);
            let (oh, ow) = g.output_hw(size, size).unwrap();
            let sp = oh * ow;
            let mut want = if int8 {
                let (mut out, mut col) = (vec![0.0f32; batch * cout * sp], vec![0.0f32; cr * sp]);
                let in_len = cin * size * size;
                for s in 0..batch {
                    im2col(&xin.as_slice()[s * in_len..(s + 1) * in_len], &g, size, size, oh, ow, &mut col);
                    for (i, o) in out[s * cout * sp..(s + 1) * cout * sp].iter_mut().enumerate() {
                        let (f, p) = (i / sp, i % sp);
                        let on = (0..cr).filter(|&r| col[r * sp + p] != 0.0);
                        *o = scales[f] * on.map(|r| qdense[f * cr + r]).sum::<i32>() as f32;
                        if let Some(bv) = bias_v {
                            *o += bv[f];
                        }
                    }
                }
                out
            } else {
                let w = Tensor::from_vec(g.weight_dims(), dense).unwrap();
                ndsnn_tensor::reference::conv2d_forward(&xin, &w, bias_v, &g).as_slice().to_vec()
            };
            for (i, v) in want.iter_mut().enumerate().filter(|_| affine) {
                let f = i / sp % cout;
                *v = gamma[f] * ((*v - mean[f]) * inv_std[f]) + beta[f];
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let got = got.unwrap();
            proptest::prop_assert_eq!(got.dims(), &[batch, cout, oh, ow][..]);
            proptest::prop_assert_eq!(bits(got.as_slice()), bits(&want));
        }
    }
}
