//! Cache-blocked tiled GEMM core with packed panels and fused epilogues.
//!
//! One micro-kernel serves every dense product in the engine. The driver
//! blocks the output into `MC × NC` macro-tiles, walks the shared dimension
//! in `KC` slabs, packs the operand slabs into contiguous panels drawn from
//! a [`ScratchPool`], and runs a register-tiled `MR × NR` micro-kernel over
//! the packed data. Operand *sources* are layout objects ([`PanelA`],
//! [`PanelB`]): plain row-major, transposed, or implicit im2col via
//! [`Im2colLayout`] — so `A·B`, `Aᵀ·B`, `A·Bᵀ`, conv forward
//! (`W · im2col(x)`), conv `dW` (`gy · im2col(x)ᵀ`) and conv `dCol`
//! (`Wᵀ · gy`) all route through the same core, and the convolutions never
//! materialize a dense col buffer.
//!
//! # Fixed accumulation order (bit-identity contract)
//!
//! Every output element is a `+0.0`-seeded (or prior-`C`-valued) chain of
//! `acc += a·b` additions in **ascending k order**: the `KC` slabs advance
//! in order, the micro-kernel walks `p` ascending within a slab, and the
//! accumulator round-trips through `C` between slabs (an exact f32
//! store/load). This is precisely the per-element chain of the naive
//! [`crate::reference`] kernels, and of the spike/CSR gathers: their
//! zero-product skips are exact no-ops on a `+0.0`-seeded chain, and their
//! local-accumulator-then-store shape equals the direct chain when `C`
//! starts at zero. Tiles own disjoint output regions and the tile→thread
//! assignment carries no state, so results are bit-identical for any
//! `NDSNN_THREADS` / `NDSNN_MIN_TILE_WORK` setting *and* to the reference.
//! Epilogues apply after a tile's final slab, exactly where the unfused
//! post-passes ran.
//!
//! # Dispatch granularity
//!
//! Parallelism is over tiles (batched drivers flatten `sample × tile`), via
//! [`crate::parallel::parallel_for_tiles`]. A minimum-work heuristic
//! (`NDSNN_MIN_TILE_WORK` multiply-adds per task, default
//! [`DEFAULT_MIN_TILE_WORK`]) keeps small problems serial — dispatching a
//! 256³ matmul across workers used to *lose* 35% to wakeup latency.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::ops::layout::Im2colLayout;
use crate::parallel::{parallel_for_tiles, SharedSlice};
use crate::scratch::ScratchPool;

/// Micro-kernel register tile rows. `4×8` accumulators fill half the 16
/// baseline-x86-64 xmm registers, leaving room for operand loads and
/// broadcasts; an `8×8` tile spills to the stack and halves throughput.
pub const MR: usize = 4;
/// Micro-kernel register tile columns.
pub const NR: usize = 8;
/// Macro-tile rows (multiple of `MR`).
pub const MC: usize = 64;
/// Macro-tile columns (multiple of `NR`).
pub const NC: usize = 64;
/// Shared-dimension slab length: packed panels stay L1/L2-resident
/// (`MC·KC` and `KC·NC` are 64 KiB each).
pub const KC: usize = 256;

/// Default minimum multiply-adds a parallel tile task must own before the
/// driver splits work across the pool (`NDSNN_MIN_TILE_WORK`). `2^25` keeps
/// a 256³ matmul (`2^24` MACs) serial — pool dispatch there cost more than
/// it bought — while a 1024³ product still fans out to every worker.
pub const DEFAULT_MIN_TILE_WORK: usize = 1 << 25;

static MIN_TILE_WORK_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Test/bench override for the minimum-work-per-task heuristic. `Some(0)`
/// forces tile-parallel dispatch regardless of problem size; `None`
/// restores the cached `NDSNN_MIN_TILE_WORK` / default. Results are
/// unaffected either way (the partition never changes what a tile computes).
pub fn set_min_tile_work_override(value: Option<usize>) {
    MIN_TILE_WORK_OVERRIDE.store(value.unwrap_or(usize::MAX), Ordering::SeqCst);
}

fn configured_min_tile_work() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        crate::env::parse_usize("NDSNN_MIN_TILE_WORK").unwrap_or(DEFAULT_MIN_TILE_WORK)
    })
}

/// The effective minimum multiply-adds per parallel tile task:
/// `NDSNN_MIN_TILE_WORK` if set (resolved once per process), else
/// [`DEFAULT_MIN_TILE_WORK`], unless overridden via
/// [`set_min_tile_work_override`].
pub fn min_tile_work() -> usize {
    match MIN_TILE_WORK_OVERRIDE.load(Ordering::SeqCst) {
        usize::MAX => configured_min_tile_work(),
        v => v,
    }
}

/// Process-wide scratch pool backing the packed panels of GEMMs whose
/// callers hold no pool of their own (the `matmul*` entry points). Panel
/// buffers are small (≤ 64 KiB) and bounded by the worker count, so the
/// retained capacity stays negligible.
pub fn tile_scratch() -> &'static ScratchPool {
    static POOL: OnceLock<ScratchPool> = OnceLock::new();
    POOL.get_or_init(ScratchPool::new)
}

// ---------------------------------------------------------------------------
// Operand layout objects.
// ---------------------------------------------------------------------------

/// Source of the left operand (logical `m × k`).
#[derive(Clone, Copy)]
pub enum PanelA<'a> {
    /// Row-major `m × k` storage.
    Rows(&'a [f32]),
    /// Row-major `k × m` storage — the logical operand is its transpose
    /// (serves `Aᵀ·B` and conv `dCol`'s `Wᵀ` without materializing it).
    Cols(&'a [f32]),
}

/// Source of the right operand (logical `k × n`).
#[derive(Clone, Copy)]
pub enum PanelB<'a> {
    /// Row-major `k × n` storage.
    Rows(&'a [f32]),
    /// Row-major `n × k` storage — the logical operand is its transpose
    /// (serves `A·Bᵀ`).
    Cols(&'a [f32]),
    /// Implicit im2col of a `(C, H, W)` sample: logical `cr × spatial`,
    /// gathered through the layout object at pack time (conv forward).
    Im2col(&'a Im2colLayout, &'a [f32]),
    /// Transposed implicit im2col: logical `spatial × cr` (conv `dW`).
    Im2colT(&'a Im2colLayout, &'a [f32]),
}

// ---------------------------------------------------------------------------
// Fused epilogues.
// ---------------------------------------------------------------------------

/// A per-output-tile epilogue, applied to a tile's valid region right after
/// its final `KC` slab — the same program point where the unfused post-pass
/// (bias loop, eval BatchNorm, frozen affine) ran over the full output, so
/// fusing never changes a value or an accumulation order. Wall-clock spent
/// here belongs to the *kernel* that fused it (conv/matmul counters), never
/// to `norm_ns`/`neuron_ns` (see `PhaseTimings` in the core crate).
pub trait TileEpilogue: Sync {
    /// Transforms `seg = C[row][j0 .. j0+seg.len()]` in place.
    fn apply(&self, row: usize, j0: usize, seg: &mut [f32]);

    /// `true` when [`TileEpilogue::apply`] is the identity — lets the
    /// driver skip the pass entirely.
    fn is_noop(&self) -> bool {
        false
    }
}

/// The identity epilogue.
pub struct NoEpilogue;

impl TileEpilogue for NoEpilogue {
    fn apply(&self, _row: usize, _j0: usize, _seg: &mut [f32]) {}
    fn is_noop(&self) -> bool {
        true
    }
}

/// Per-row bias add: `C[row][j] += bias[row]` (conv forward, where GEMM rows
/// are output channels).
pub struct BiasRow<'a>(pub &'a [f32]);

impl TileEpilogue for BiasRow<'_> {
    #[inline]
    fn apply(&self, row: usize, _j0: usize, seg: &mut [f32]) {
        let bv = self.0[row];
        seg.iter_mut().for_each(|v| *v += bv);
    }
}

/// Per-column bias add: `C[row][j] += bias[j]` (linear forward, where GEMM
/// columns are output features).
pub struct BiasCol<'a>(pub &'a [f32]);

impl TileEpilogue for BiasCol<'_> {
    #[inline]
    fn apply(&self, _row: usize, j0: usize, seg: &mut [f32]) {
        let n = seg.len();
        for (v, &bv) in seg.iter_mut().zip(&self.0[j0..j0 + n]) {
            *v += bv;
        }
    }
}

/// Per-row frozen-BatchNorm affine, optionally preceded by a conv bias:
/// `x += bias[row]; C = γ·(x − μ)·inv_std + β` — the exact f32 expression
/// of the eval-mode BatchNorm / frozen `Affine` op, element for element.
pub struct AffineRow<'a> {
    /// Conv bias folded in front of the affine (`None` for bias-free convs).
    pub bias: Option<&'a [f32]>,
    /// Per-channel running mean `μ`.
    pub mean: &'a [f32],
    /// Per-channel `1/√(σ² + ε)`.
    pub inv_std: &'a [f32],
    /// Per-channel scale `γ`.
    pub gamma: &'a [f32],
    /// Per-channel shift `β`.
    pub beta: &'a [f32],
}

impl AffineRow<'_> {
    #[inline]
    fn transform(&self, row: usize, v: f32) -> f32 {
        let x = match self.bias {
            Some(b) => v + b[row],
            None => v,
        };
        let xh = (x - self.mean[row]) * self.inv_std[row];
        self.gamma[row] * xh + self.beta[row]
    }
}

impl TileEpilogue for AffineRow<'_> {
    #[inline]
    fn apply(&self, row: usize, _j0: usize, seg: &mut [f32]) {
        for v in seg {
            *v = self.transform(row, *v);
        }
    }
}

/// [`AffineRow`] followed by a LIF threshold compare:
/// `o = 1[affine(x) − ϑ ≥ 0]`. This is exactly one LIF step from reset
/// state (`v = 0`, `o_prev = 0` make the membrane update collapse to the
/// input), so it is only fused where no membrane state survives — frozen
/// single-timestep serving.
pub struct AffineLifRow<'a> {
    /// The affine stage.
    pub affine: AffineRow<'a>,
    /// Firing threshold `ϑ`.
    pub v_threshold: f32,
}

impl TileEpilogue for AffineLifRow<'_> {
    #[inline]
    fn apply(&self, row: usize, _j0: usize, seg: &mut [f32]) {
        for v in seg {
            let nv = self.affine.transform(row, *v);
            *v = f32::from(nv - self.v_threshold >= 0.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Packing.
// ---------------------------------------------------------------------------

/// Packs rows `i0..i0+mc`, slab `pc..pc+kc` of the logical `A` into
/// `MR`-row panels: `ap[panel][p][i]`, zero-padded to a multiple of `MR`.
#[allow(clippy::too_many_arguments)] // tile coords + slab + logical dims
fn pack_a(
    a: PanelA,
    ap: &mut [f32],
    i0: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    m: usize,
    k: usize,
) {
    let mp = mc.div_ceil(MR);
    for ip in 0..mp {
        let panel = &mut ap[ip * MR * kc..(ip + 1) * MR * kc];
        let rows = MR.min(mc - ip * MR);
        match a {
            PanelA::Rows(data) => {
                debug_assert!(data.len() >= m * k);
                for p in 0..kc {
                    let dst = &mut panel[p * MR..(p + 1) * MR];
                    for (ii, d) in dst.iter_mut().enumerate() {
                        *d = if ii < rows {
                            data[(i0 + ip * MR + ii) * k + pc + p]
                        } else {
                            0.0
                        };
                    }
                }
            }
            PanelA::Cols(data) => {
                debug_assert!(data.len() >= k * m);
                for p in 0..kc {
                    let src = &data[(pc + p) * m..];
                    let dst = &mut panel[p * MR..(p + 1) * MR];
                    for (ii, d) in dst.iter_mut().enumerate() {
                        *d = if ii < rows {
                            src[i0 + ip * MR + ii]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }
}

/// Packs cols `j0..j0+nc`, slab `pc..pc+kc` of the logical `B` into
/// `NR`-column panels: `bp[panel][p][j]`, zero-padded to a multiple of `NR`.
#[allow(clippy::too_many_arguments)] // tile coords + slab + logical dims
fn pack_b(
    b: PanelB,
    bp: &mut [f32],
    j0: usize,
    nc: usize,
    pc: usize,
    kc: usize,
    k: usize,
    n: usize,
) {
    let np = nc.div_ceil(NR);
    for jp in 0..np {
        let panel = &mut bp[jp * NR * kc..(jp + 1) * NR * kc];
        let cols = NR.min(nc - jp * NR);
        match b {
            PanelB::Rows(data) => {
                debug_assert!(data.len() >= k * n);
                for p in 0..kc {
                    let src = &data[(pc + p) * n..];
                    let dst = &mut panel[p * NR..(p + 1) * NR];
                    for (jj, d) in dst.iter_mut().enumerate() {
                        *d = if jj < cols {
                            src[j0 + jp * NR + jj]
                        } else {
                            0.0
                        };
                    }
                }
            }
            PanelB::Cols(data) => {
                debug_assert!(data.len() >= n * k);
                for p in 0..kc {
                    let dst = &mut panel[p * NR..(p + 1) * NR];
                    for (jj, d) in dst.iter_mut().enumerate() {
                        *d = if jj < cols {
                            data[(j0 + jp * NR + jj) * k + pc + p]
                        } else {
                            0.0
                        };
                    }
                }
            }
            PanelB::Im2col(layout, sample) => {
                // Columns are output positions: decompose each panel column
                // once, then gather per row with add-only index math.
                let mut oy = [0usize; NR];
                let mut ox = [0usize; NR];
                for jj in 0..cols {
                    let (y, x) = layout.decompose_pos(j0 + jp * NR + jj);
                    oy[jj] = y;
                    ox[jj] = x;
                }
                for p in 0..kc {
                    let (c, kh, kw) = layout.decompose_row(pc + p);
                    let dst = &mut panel[p * NR..(p + 1) * NR];
                    for (jj, d) in dst.iter_mut().enumerate() {
                        *d = if jj < cols {
                            layout.value(sample, c, kh, kw, oy[jj], ox[jj])
                        } else {
                            0.0
                        };
                    }
                }
            }
            PanelB::Im2colT(layout, sample) => {
                // Transposed view: columns are col rows, rows are positions.
                let mut ch = [0usize; NR];
                let mut kh = [0usize; NR];
                let mut kw = [0usize; NR];
                for jj in 0..cols {
                    let (c, h, w) = layout.decompose_row(j0 + jp * NR + jj);
                    ch[jj] = c;
                    kh[jj] = h;
                    kw[jj] = w;
                }
                for p in 0..kc {
                    let (oy, ox) = layout.decompose_pos(pc + p);
                    let dst = &mut panel[p * NR..(p + 1) * NR];
                    for (jj, d) in dst.iter_mut().enumerate() {
                        *d = if jj < cols {
                            layout.value(sample, ch[jj], kh[jj], kw[jj], oy, ox)
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The tile body and drivers.
// ---------------------------------------------------------------------------

/// Logical dimensions of one GEMM (`C[m×n] += A[m×k] · B[k×n]`).
#[derive(Debug, Clone, Copy)]
struct Dims {
    m: usize,
    k: usize,
    n: usize,
}

/// The register-tile rank-1 update chain: for every packed position `p` in
/// ascending order, `acc[i][j] += a_panel[p][i] · b_panel[p][j]`. This IS the
/// documented per-element accumulation order — one `+0.0`-seeded ascending-k
/// f32 chain per output element, independent of blocking.
///
/// The fixed-size `[f32; MR]`/`[f32; NR]` views are load-bearing: they let
/// the compiler fully unroll the update and keep `acc` in vector registers
/// across the whole loop. Dynamic-length slices here demote `acc` to the
/// stack and serialise every multiply-add through memory.
#[inline]
fn microkernel(a_panel: &[f32], b_panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (av, bv) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        let av: &[f32; MR] = av.try_into().unwrap();
        let bv: &[f32; NR] = bv.try_into().unwrap();
        for (arow, &ai) in acc.iter_mut().zip(av) {
            for (aj, &bj) in arow.iter_mut().zip(bv) {
                *aj += ai * bj;
            }
        }
    }
}

/// Computes macro-tile `(ti, tj)` of one GEMM: accumulates every `KC` slab
/// in ascending k order into `C` (round-tripping the register tile through
/// memory between slabs — exact in f32), then applies the epilogue to the
/// tile's valid region.
#[allow(clippy::too_many_arguments)] // internal: GEMM dims + tile coords + shared output
fn run_tile<E: TileEpilogue>(
    a: PanelA,
    b: PanelB,
    c: &SharedSlice<f32>,
    c_off: usize,
    dims: Dims,
    ti: usize,
    tj: usize,
    epi: &E,
    pool: &ScratchPool,
) {
    let Dims { m, k, n } = dims;
    let (i0, j0) = (ti * MC, tj * NC);
    let (mc, nc) = (MC.min(m - i0), NC.min(n - j0));
    let (mp, np) = (mc.div_ceil(MR), nc.div_ceil(NR));
    let slab = KC.min(k.max(1));
    let mut ap = pool.take(mp * MR * slab);
    let mut bp = pool.take(np * NR * slab);
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        pack_a(a, &mut ap, i0, mc, pc, kc, m, k);
        pack_b(b, &mut bp, j0, nc, pc, kc, k, n);
        for ip in 0..mp {
            let rows = MR.min(mc - ip * MR);
            let a_panel = &ap[ip * MR * kc..(ip + 1) * MR * kc];
            for jp in 0..np {
                let cols = NR.min(nc - jp * NR);
                let b_panel = &bp[jp * NR * kc..(jp + 1) * NR * kc];
                let base = c_off + (i0 + ip * MR) * n + j0 + jp * NR;
                if rows == MR && cols == NR {
                    // Interior micro-tile: every access to `acc` has constant
                    // extent, so the accumulator is promoted to registers for
                    // the whole p-loop. This branch is load-bearing — routing
                    // interior tiles through the dynamic-extent edge path
                    // below keeps `acc` on the stack and serialises every
                    // multiply-add through memory (~4× slower end to end).
                    let mut acc = [[0.0f32; NR]; MR];
                    for (i, arow) in acc.iter_mut().enumerate() {
                        // SAFETY: rows of this micro-tile belong exclusively
                        // to this tile task (tiles partition the output).
                        let crow = unsafe { c.slice_mut(base + i * n, NR) };
                        arow.copy_from_slice(crow);
                    }
                    microkernel(a_panel, b_panel, &mut acc);
                    for (i, arow) in acc.iter().enumerate() {
                        // SAFETY: as above.
                        let crow = unsafe { c.slice_mut(base + i * n, NR) };
                        crow.copy_from_slice(arow);
                    }
                } else {
                    // Edge micro-tile: partial rows/cols, dynamic extents.
                    // Same per-element accumulation chain (padding lanes hold
                    // exact zeros), just without register promotion.
                    let mut acc = [[0.0f32; NR]; MR];
                    for (i, arow) in acc.iter_mut().enumerate().take(rows) {
                        // SAFETY: as above.
                        let crow = unsafe { c.slice_mut(base + i * n, cols) };
                        arow[..cols].copy_from_slice(crow);
                    }
                    microkernel(a_panel, b_panel, &mut acc);
                    for (i, arow) in acc.iter().enumerate().take(rows) {
                        // SAFETY: as above.
                        let crow = unsafe { c.slice_mut(base + i * n, cols) };
                        crow.copy_from_slice(&arow[..cols]);
                    }
                }
            }
        }
        pc += kc;
    }
    pool.give(ap);
    pool.give(bp);
    if !epi.is_noop() {
        for i in 0..mc {
            // SAFETY: row segment owned by this tile.
            let seg = unsafe { c.slice_mut(c_off + (i0 + i) * n + j0, nc) };
            epi.apply(i0 + i, j0, seg);
        }
    }
}

/// `C += A · B` over macro-tiles, with `epi` fused per output tile.
///
/// `c` must hold `m·n` elements; the epilogue must only be fused when this
/// call performs the *final* accumulation into `C`.
#[allow(clippy::too_many_arguments)] // GEMM dims (m,k,n) + operands + epilogue + pool
pub fn gemm_tiled<E: TileEpilogue>(
    a: PanelA,
    b: PanelB,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    epi: &E,
    pool: &ScratchPool,
) {
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let (tm, tn) = (m.div_ceil(MC), n.div_ceil(NC));
    let dims = Dims { m, k, n };
    let shared = SharedSlice::new(c);
    parallel_for_tiles(tm * tn, m * k * n, min_tile_work(), |tile| {
        run_tile(a, b, &shared, 0, dims, tile / tn, tile % tn, epi, pool);
    });
}

/// Batched implicit-GEMM convolution forward: for every sample `s`,
/// `out[s] += W · im2col(x[s])` with `epi` fused per tile. Parallelism is
/// over the flattened `sample × tile` grid, so thread scaling holds even at
/// batch 1.
#[allow(clippy::too_many_arguments)] // batched GEMM: strides + dims + epilogue + pool
pub fn conv_fwd_tiled<E: TileEpilogue>(
    weight: &[f32],
    input: &[f32],
    layout: &Im2colLayout,
    batch: usize,
    in_stride: usize,
    out: &mut [f32],
    out_stride: usize,
    epi: &E,
    pool: &ScratchPool,
) {
    let (m, k, n) = (
        out_stride / layout.cols().max(1),
        layout.rows(),
        layout.cols(),
    );
    debug_assert_eq!(out.len(), batch * out_stride);
    debug_assert_eq!(out_stride, m * n);
    if batch == 0 || m == 0 || n == 0 {
        return;
    }
    let (tm, tn) = (m.div_ceil(MC), n.div_ceil(NC));
    let per_sample = tm * tn;
    let dims = Dims { m, k, n };
    let shared = SharedSlice::new(out);
    parallel_for_tiles(
        batch * per_sample,
        batch * m * k * n,
        min_tile_work(),
        |task| {
            let (s, tile) = (task / per_sample, task % per_sample);
            let sample = &input[s * in_stride..(s + 1) * in_stride];
            run_tile(
                PanelA::Rows(weight),
                PanelB::Im2col(layout, sample),
                &shared,
                s * out_stride,
                dims,
                tile / tn,
                tile % tn,
                epi,
                pool,
            );
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::matmul as naive;
    use rand::{rngs::StdRng, SeedableRng};

    fn rand_vec(len: usize, rng: &mut StdRng) -> Vec<f32> {
        crate::init::uniform([len], -1.0, 1.0, rng)
            .as_slice()
            .to_vec()
    }

    #[test]
    fn tiled_matches_naive_on_odd_shapes() {
        let mut rng = StdRng::seed_from_u64(7);
        let pool = ScratchPool::new();
        // Shapes straddling every MR/NR/MC/NC/KC boundary.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (8, 8, 8),
            (9, 7, 11),
            (63, 65, 64),
            (70, 300, 66),
            (1, 257, 130),
        ] {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let want = naive(&a, &b, m, k, n);
            let mut c = vec![0.0f32; m * n];
            gemm_tiled(
                PanelA::Rows(&a),
                PanelB::Rows(&b),
                &mut c,
                m,
                k,
                n,
                &NoEpilogue,
                &pool,
            );
            for (g, w) in c.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-4 * (1.0 + w.abs()), "({m},{k},{n})");
            }
        }
    }

    #[test]
    fn transposed_sources_match_row_major() {
        let mut rng = StdRng::seed_from_u64(8);
        let pool = ScratchPool::new();
        let (m, k, n) = (21usize, 34usize, 17usize);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        // Transposed copies.
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut bt = vec![0.0f32; n * k];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut c0 = vec![0.0f32; m * n];
        gemm_tiled(
            PanelA::Rows(&a),
            PanelB::Rows(&b),
            &mut c0,
            m,
            k,
            n,
            &NoEpilogue,
            &pool,
        );
        let mut c1 = vec![0.0f32; m * n];
        gemm_tiled(
            PanelA::Cols(&at),
            PanelB::Rows(&b),
            &mut c1,
            m,
            k,
            n,
            &NoEpilogue,
            &pool,
        );
        let mut c2 = vec![0.0f32; m * n];
        gemm_tiled(
            PanelA::Rows(&a),
            PanelB::Cols(&bt),
            &mut c2,
            m,
            k,
            n,
            &NoEpilogue,
            &pool,
        );
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c0), bits(&c1), "A-transposed source diverged");
        assert_eq!(bits(&c0), bits(&c2), "B-transposed source diverged");
    }

    #[test]
    fn accumulates_into_existing_c() {
        let mut rng = StdRng::seed_from_u64(9);
        let pool = ScratchPool::new();
        let (m, k, n) = (13usize, 29usize, 10usize);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let seed = rand_vec(m * n, &mut rng);
        let mut c = seed.clone();
        gemm_tiled(
            PanelA::Rows(&a),
            PanelB::Rows(&b),
            &mut c,
            m,
            k,
            n,
            &NoEpilogue,
            &pool,
        );
        let want = naive(&a, &b, m, k, n);
        for ((g, s), w) in c.iter().zip(&seed).zip(&want) {
            assert!((g - (s + w)).abs() <= 1e-4 * (1.0 + w.abs()));
        }
    }

    #[test]
    fn epilogues_match_unfused_post_pass() {
        let mut rng = StdRng::seed_from_u64(10);
        let pool = ScratchPool::new();
        let (m, k, n) = (19usize, 23usize, 37usize);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let row_bias = rand_vec(m, &mut rng);
        let col_bias = rand_vec(n, &mut rng);
        let mean = rand_vec(m, &mut rng);
        let inv_std = rand_vec(m, &mut rng);
        let gamma = rand_vec(m, &mut rng);
        let beta = rand_vec(m, &mut rng);

        let mut base = vec![0.0f32; m * n];
        gemm_tiled(
            PanelA::Rows(&a),
            PanelB::Rows(&b),
            &mut base,
            m,
            k,
            n,
            &NoEpilogue,
            &pool,
        );

        // BiasRow == GEMM then per-row add.
        let mut fused = vec![0.0f32; m * n];
        gemm_tiled(
            PanelA::Rows(&a),
            PanelB::Rows(&b),
            &mut fused,
            m,
            k,
            n,
            &BiasRow(&row_bias),
            &pool,
        );
        let mut unfused = base.clone();
        for i in 0..m {
            unfused[i * n..(i + 1) * n]
                .iter_mut()
                .for_each(|v| *v += row_bias[i]);
        }
        assert!(fused
            .iter()
            .zip(&unfused)
            .all(|(x, y)| x.to_bits() == y.to_bits()));

        // BiasCol == GEMM then per-column add.
        let mut fused = vec![0.0f32; m * n];
        gemm_tiled(
            PanelA::Rows(&a),
            PanelB::Rows(&b),
            &mut fused,
            m,
            k,
            n,
            &BiasCol(&col_bias),
            &pool,
        );
        let mut unfused = base.clone();
        for i in 0..m {
            for j in 0..n {
                unfused[i * n + j] += col_bias[j];
            }
        }
        assert!(fused
            .iter()
            .zip(&unfused)
            .all(|(x, y)| x.to_bits() == y.to_bits()));

        // AffineRow(+bias) == GEMM, bias pass, then the frozen-affine expression.
        let affine = AffineRow {
            bias: Some(&row_bias),
            mean: &mean,
            inv_std: &inv_std,
            gamma: &gamma,
            beta: &beta,
        };
        let mut fused = vec![0.0f32; m * n];
        gemm_tiled(
            PanelA::Rows(&a),
            PanelB::Rows(&b),
            &mut fused,
            m,
            k,
            n,
            &affine,
            &pool,
        );
        let mut unfused = base.clone();
        for i in 0..m {
            for v in &mut unfused[i * n..(i + 1) * n] {
                let x = *v + row_bias[i];
                let xh = (x - mean[i]) * inv_std[i];
                *v = gamma[i] * xh + beta[i];
            }
        }
        assert!(fused
            .iter()
            .zip(&unfused)
            .all(|(x, y)| x.to_bits() == y.to_bits()));

        // AffineLifRow == affine then threshold compare.
        let lif = AffineLifRow {
            affine: AffineRow {
                bias: None,
                mean: &mean,
                inv_std: &inv_std,
                gamma: &gamma,
                beta: &beta,
            },
            v_threshold: 0.1,
        };
        let mut fused = vec![0.0f32; m * n];
        gemm_tiled(
            PanelA::Rows(&a),
            PanelB::Rows(&b),
            &mut fused,
            m,
            k,
            n,
            &lif,
            &pool,
        );
        let mut unfused = base;
        for i in 0..m {
            for v in &mut unfused[i * n..(i + 1) * n] {
                let xh = (*v - mean[i]) * inv_std[i];
                let nv = gamma[i] * xh + beta[i];
                *v = f32::from(nv - 0.1 >= 0.0);
            }
        }
        assert!(fused
            .iter()
            .zip(&unfused)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn forced_tile_parallelism_is_bit_identical_to_serial() {
        use crate::parallel::{run_serial, set_thread_override};
        let mut rng = StdRng::seed_from_u64(11);
        let pool = ScratchPool::new();
        let (m, k, n) = (130usize, 70usize, 129usize); // 3×3 tile grid, ragged edges
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let serial = run_serial(|| {
            let mut c = vec![0.0f32; m * n];
            gemm_tiled(
                PanelA::Rows(&a),
                PanelB::Rows(&b),
                &mut c,
                m,
                k,
                n,
                &NoEpilogue,
                &pool,
            );
            c
        });
        set_min_tile_work_override(Some(0));
        for threads in [2usize, 4] {
            set_thread_override(Some(threads));
            let mut c = vec![0.0f32; m * n];
            gemm_tiled(
                PanelA::Rows(&a),
                PanelB::Rows(&b),
                &mut c,
                m,
                k,
                n,
                &NoEpilogue,
                &pool,
            );
            assert!(
                c.iter()
                    .zip(&serial)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "threads={threads} diverged"
            );
        }
        set_thread_override(None);
        set_min_tile_work_override(None);
    }

    #[test]
    fn min_tile_work_override_controls_dispatch() {
        set_min_tile_work_override(Some(123));
        assert_eq!(min_tile_work(), 123);
        set_min_tile_work_override(Some(0));
        assert_eq!(min_tile_work(), 0);
        set_min_tile_work_override(None);
        // Back to the configured default (no env var in tests).
        assert_eq!(min_tile_work(), configured_min_tile_work());
    }
}
