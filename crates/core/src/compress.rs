//! Gradient compression for sparse aggregation — the paper's "sparse
//! gradient aggregation" direction grown into an adaptive family.
//!
//! Every scheme carries **error feedback** (the part of the gradient a
//! round drops is folded into the next round's accumulator, so nothing is
//! permanently lost):
//!
//! * [`Compression::TopK`] — keep the `k = ratio·m` largest-magnitude
//!   coordinates at a fixed ratio (the static scheme from PR 2);
//! * [`Compression::Uniform8Bit`] — linear quantization of every value to
//!   8 bits with a per-vector scale;
//! * [`Compression::Sparse`] — adaptive sparsification v2: a
//!   [`KSchedule`] chooses this round's k (fixed, norm-adaptive à la
//!   Deng et al., or allocated layer-wise by per-block gradient norm),
//!   optionally composed with 8-bit value quantization (`q8`) and a
//!   union-growth bound in the sparse tree reduce (`union_bound`).
//!
//! **NaN policy** (bugfix): a NaN coordinate's magnitude is treated as
//! +∞, so selection always keeps it and the poison surfaces downstream
//! instead of silently scrambling `select_nth` (whose comparator used to
//! map incomparable pairs to `Equal`, making the kept set arbitrary).
//! The f32 wire transmits the NaN as-is; the 8-bit value lane cannot
//! represent it, so quantized frames transmit 0 for that coordinate and
//! the NaN stays in the error-feedback residual, where it resurfaces
//! every round rather than vanishing.
//!
//! **Quantized exactness**: quantization happens at *compression* time —
//! the lossy dense vector holds exactly `q·scale` per coordinate, and the
//! quantization error lives in the residual. The wire can therefore ship
//! `(q, scale)` and the receiver's `q·scale` reconstruction is bitwise
//! identical to the sender's, keeping the tree reduce a plain f32 sum
//! that the simulated backend mirrors exactly.
//!
//! [`Compression::wire_elements`] prices one leaf frame for the α–β cost
//! model; [`Compression::round_wire_bounds`] brackets the exact f32
//! element count a whole tree allreduce moves on the real wire, and the
//! engine's wire-accounting test reconciles it against the threaded
//! backend's traffic counters.

use sasgd_comm::sparse::{dense8_frame_elements, sparse8_frame_elements, sparse_frame_elements};

/// Selection magnitude: NaN maps to +∞ so it is always kept (see the
/// module-level NaN policy). Identical to `v.abs()` for non-NaN input.
fn mag(v: f32) -> f32 {
    if v.is_nan() {
        f32::INFINITY
    } else {
        v.abs()
    }
}

/// `‖v‖₂` accumulated in f64. NaN coordinates yield a NaN norm (callers
/// treat that as "hold the schedule steady").
fn l2_norm(v: &[f32]) -> f64 {
    v.iter()
        .map(|&x| {
            let x = f64::from(x);
            x * x
        })
        .sum::<f64>()
        .sqrt()
}

/// Snap `v` onto the 8-bit grid `{-127..127}·scale`, returning the
/// reconstruction. `0` reconstructions are canonical `+0.0` (never
/// `-0.0`) so sparse wire frames, which drop exact zeros, round-trip the
/// dense form bitwise. NaN maps to `0.0` — the grid cannot carry it; the
/// caller's residual keeps the NaN alive.
fn quantize8(v: f32, scale: f32) -> f32 {
    if v.is_nan() {
        return 0.0;
    }
    let q = (v / scale).round().clamp(-127.0, 127.0);
    if q == 0.0 {
        0.0
    } else {
        q * scale
    }
}

/// Quantization scale for a vector whose largest magnitude is `maxabs`,
/// clamped away from zero: a subnormal `maxabs` used to underflow
/// `maxabs/127` to `0.0`, turning every `(v/scale)` into NaN (bugfix).
fn q8_scale_for(maxabs: f32) -> f32 {
    (maxabs / 127.0).max(f32::MIN_POSITIVE)
}

/// Keep the `k` largest-magnitude coordinates of `g[lo..hi]` by writing
/// them into `d[lo..hi]` (other slots untouched); returns how many were
/// written. Ties at the threshold fill in index order; exact zeros are
/// never kept (they carry no mass), so a range with fewer than `k`
/// nonzeros keeps exactly its nonzeros. `k ≥ len` copies the range
/// verbatim (lossless).
fn keep_topk(g: &[f32], lo: usize, hi: usize, k: usize, d: &mut [f32]) -> usize {
    let len = hi - lo;
    if k >= len {
        d[lo..hi].copy_from_slice(&g[lo..hi]);
        return g[lo..hi].iter().filter(|&&v| v != 0.0).count();
    }
    let mut mags: Vec<f32> = g[lo..hi].iter().map(|&v| mag(v)).collect();
    let idx = len - k;
    mags.select_nth_unstable_by(idx, f32::total_cmp);
    let thresh = mags[idx];
    let mut kept = 0usize;
    // First pass: strictly above threshold.
    for (i, &v) in g[lo..hi].iter().enumerate() {
        if mag(v) > thresh {
            d[lo + i] = v;
            kept += 1;
        }
    }
    // Second pass: fill up with values equal to the threshold (ties)
    // until exactly k are kept.
    for (i, &v) in g[lo..hi].iter().enumerate() {
        if kept == k {
            break;
        }
        if d[lo + i] == 0.0 && mag(v) == thresh && v != 0.0 {
            d[lo + i] = v;
            kept += 1;
        }
    }
    kept
}

/// Largest-remainder apportionment of `k_total` over blocks proportional
/// to `weights`, capped at per-block `caps`. Deterministic: remainder
/// goes by descending fractional part, ties to the lower block index.
/// Degenerate weights (all zero, or non-finite totals, e.g. an Inf/NaN
/// block norm) fall back to capacity-proportional allocation.
fn apportion(weights: &[f64], caps: &[usize], k_total: usize) -> Vec<usize> {
    let n = weights.len();
    let mut ks = vec![0usize; n];
    if n == 0 || k_total == 0 {
        return ks;
    }
    let total: f64 = weights.iter().sum();
    let cap_total: usize = caps.iter().sum();
    let degenerate = !(total.is_finite() && total > 0.0);
    let mut fracs: Vec<(f64, usize)> = Vec::with_capacity(n);
    let mut assigned = 0usize;
    for j in 0..n {
        let share = if degenerate {
            caps[j] as f64 / cap_total as f64
        } else {
            weights[j] / total
        };
        let quota = k_total as f64 * share;
        // lint:allow(float-cast): quota ∈ [0, k_total] by construction;
        // floor of a finite non-negative f64 fits usize here.
        let fl = (quota.floor().max(0.0) as usize).min(caps[j]);
        ks[j] = fl;
        assigned += fl;
        fracs.push((quota - fl as f64, j));
    }
    fracs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    // Hand out the remainder one slot at a time, skipping saturated
    // blocks, until the budget is spent or every block is full.
    while assigned < k_total.min(cap_total) {
        let mut progressed = false;
        for &(_, j) in &fracs {
            if assigned == k_total.min(cap_total) {
                break;
            }
            if ks[j] < caps[j] {
                ks[j] += 1;
                assigned += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    ks
}

/// Messages a binomial-tree reduce to one root sends at each level:
/// `(subtree_size, messages)` per level, ascending. A vrank sends at its
/// lowest set bit `b`, carrying a partial that aggregates its size-`b`
/// subtree; the number of such vranks in `[1, p)` is the message count.
fn reduce_levels(p: usize) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    let mut bit = 1usize;
    while bit < p {
        let mut count = 0u64;
        let mut v = bit;
        while v < p {
            count += 1;
            v += 2 * bit;
        }
        out.push((bit, count));
        bit <<= 1;
    }
    out
}

/// Per-round k policy for [`Compression::Sparse`] — how many coordinates
/// each learner keeps, and how the budget is spread over the model.
///
/// All ratios are fractions of the model size `m`, in `(0, 1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KSchedule {
    /// Keep `ceil(ratio·m)` every round (the static baseline).
    Fixed {
        /// Fraction of coordinates kept.
        ratio: f64,
    },
    /// Grow/shrink the ratio with the residual-to-gradient norm ratio
    /// `ρ = ‖residual‖/‖input‖` (Deng et al.): after each round,
    /// `ratio ← clamp(ratio·(1 + gain·(ρ − target)), min, max)`.
    /// Heavy truncation (ρ above target) buys more bandwidth next round;
    /// a well-captured gradient gives bandwidth back.
    NormAdaptive {
        /// Starting ratio.
        ratio0: f64,
        /// Lower clamp for the ratio.
        ratio_min: f64,
        /// Upper clamp for the ratio.
        ratio_max: f64,
        /// Residual-norm ratio the controller steers toward.
        target: f64,
        /// Multiplicative step size of the controller.
        gain: f64,
    },
    /// A global `ceil(ratio·m)` budget allocated across parameter blocks
    /// proportional to per-block gradient L2 norm (largest-remainder
    /// apportionment, capped at block size). Blocks come from the
    /// model's parameter layout via [`KState::new`]; with no block map
    /// this degrades to `Fixed`.
    LayerWise {
        /// Fraction of coordinates kept, summed over all blocks.
        ratio: f64,
    },
}

impl KSchedule {
    /// Fixed-ratio schedule.
    pub fn fixed(ratio: f64) -> Self {
        KSchedule::Fixed { ratio }
    }

    /// Norm-adaptive schedule with default controller settings: clamp to
    /// `[ratio0/4, min(16·ratio0, 1)]`, steer toward `ρ = 0.95`, gain
    /// `0.5`.
    pub fn norm_adaptive(ratio0: f64) -> Self {
        KSchedule::NormAdaptive {
            ratio0,
            ratio_min: ratio0 / 4.0,
            ratio_max: (16.0 * ratio0).min(1.0),
            target: 0.95,
            gain: 0.5,
        }
    }

    /// Layer-wise budget allocation at a fixed global ratio.
    pub fn layer_wise(ratio: f64) -> Self {
        KSchedule::LayerWise { ratio }
    }

    /// The ratio the schedule starts from.
    fn base_ratio(&self) -> f64 {
        match *self {
            KSchedule::Fixed { ratio } | KSchedule::LayerWise { ratio } => ratio,
            KSchedule::NormAdaptive { ratio0, .. } => ratio0,
        }
    }

    /// The range the per-round ratio can occupy over a run.
    pub fn ratio_bounds(&self) -> (f64, f64) {
        match *self {
            KSchedule::Fixed { ratio } | KSchedule::LayerWise { ratio } => (ratio, ratio),
            KSchedule::NormAdaptive {
                ratio_min,
                ratio_max,
                ..
            } => (ratio_min, ratio_max),
        }
    }

    /// The range of per-round kept-coordinate budgets for an `m`-element
    /// gradient.
    pub fn k_bounds(&self, m: usize) -> (usize, usize) {
        let (lo, hi) = self.ratio_bounds();
        (ratio_to_k(lo, m), ratio_to_k(hi, m))
    }

    /// Validate the schedule's parameters.
    ///
    /// # Panics
    /// Panics if a ratio is outside `(0, 1]`, bounds are inverted, or the
    /// controller constants are non-finite.
    pub fn validate(&self) {
        let ok_ratio = |r: f64| r > 0.0 && r <= 1.0;
        match *self {
            KSchedule::Fixed { ratio } | KSchedule::LayerWise { ratio } => {
                assert!(ok_ratio(ratio), "k-schedule ratio must be in (0,1]");
            }
            KSchedule::NormAdaptive {
                ratio0,
                ratio_min,
                ratio_max,
                target,
                gain,
            } => {
                assert!(
                    ok_ratio(ratio0) && ok_ratio(ratio_min) && ok_ratio(ratio_max),
                    "k-schedule ratio must be in (0,1]"
                );
                assert!(
                    ratio_min <= ratio0 && ratio0 <= ratio_max,
                    "norm-adaptive bounds must bracket ratio0"
                );
                assert!(
                    target.is_finite() && gain.is_finite(),
                    "norm-adaptive controller constants must be finite"
                );
            }
        }
    }

    /// Short label tag, e.g. `k1.0%`, `adk1.0%`, `lwk1.0%`.
    pub fn tag(&self) -> String {
        match *self {
            KSchedule::Fixed { ratio } => format!("k{:.1}%", ratio * 100.0),
            KSchedule::NormAdaptive { ratio0, .. } => format!("adk{:.1}%", ratio0 * 100.0),
            KSchedule::LayerWise { ratio } => format!("lwk{:.1}%", ratio * 100.0),
        }
    }
}

/// `ceil(ratio·m)` clamped to `[1, m]` (0 for an empty vector).
fn ratio_to_k(ratio: f64, m: usize) -> usize {
    // lint:allow(float-cast): ceil of ratio·m with ratio ∈ (0,1] is an
    // exact integer ≤ m; the clamp bounds any edge case.
    ((m as f64 * ratio).ceil() as usize).clamp(1.min(m), m)
}

/// Per-learner mutable schedule state: the current ratio of a
/// [`KSchedule`], the model's parameter-block map for layer-wise
/// allocation, and the last round's outcome for instrumentation.
///
/// Each learner owns one `KState` for the whole run; both backends drive
/// it with the same inputs in the same order, so the schedule itself is
/// deterministic and backend-agnostic.
#[derive(Clone, Debug)]
pub struct KState {
    schedule: KSchedule,
    ratio_now: f64,
    blocks: Vec<(usize, usize)>,
    /// Nonzero coordinates actually transmitted last round.
    pub last_k: usize,
    /// `‖residual‖₂` after the last round.
    pub last_residual_norm: f64,
}

impl KState {
    /// Fresh state for `c`. `blocks` is the model's per-layer parameter
    /// block map (`Model::param_blocks`); only `LayerWise` reads it.
    ///
    /// # Panics
    /// Panics on invalid [`Compression::Sparse`] schedule parameters (see
    /// [`KSchedule::validate`]); the legacy schemes validate their own
    /// ratio at compression time.
    pub fn new(c: &Compression, blocks: Vec<(usize, usize)>) -> Self {
        let schedule = match *c {
            Compression::Sparse { k, .. } => {
                k.validate();
                k
            }
            Compression::TopK { ratio } => KSchedule::Fixed { ratio },
            Compression::Uniform8Bit => KSchedule::Fixed { ratio: 1.0 },
        };
        KState {
            schedule,
            ratio_now: schedule.base_ratio(),
            blocks,
            last_k: 0,
            last_residual_norm: 0.0,
        }
    }

    /// The ratio the next round will use.
    pub fn ratio(&self) -> f64 {
        self.ratio_now
    }
}

/// A gradient compression scheme.
///
/// ```
/// use sasgd_core::Compression;
/// let g = [0.1f32, -5.0, 0.2, 3.0];
/// let c = Compression::TopK { ratio: 0.5 }.compress(&g);
/// // The two largest-magnitude coordinates survive; the rest feed the
/// // error-feedback residual.
/// assert_eq!(c.dense, vec![0.0, -5.0, 0.0, 3.0]);
/// assert_eq!(c.residual, vec![0.1, 0.0, 0.2, 0.0]);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Compression {
    /// Keep the largest `ratio·m` coordinates (0 < ratio ≤ 1); the rest
    /// stay in the sender's residual.
    TopK {
        /// Fraction of coordinates kept.
        ratio: f64,
    },
    /// 8-bit linear quantization of every coordinate.
    Uniform8Bit,
    /// Adaptive sparsification: a [`KSchedule`] picks each round's k,
    /// optionally composed with 8-bit value quantization and a
    /// union-growth bound in the sparse tree.
    Sparse {
        /// Per-round k policy.
        k: KSchedule,
        /// Quantize kept values to 8 bits (the composed
        /// sparsify+quantize wire codec, ~`k/4 + k` elements vs `2k`).
        q8: bool,
        /// Re-TopK merged partials at every tree level so nnz cannot
        /// grow with depth; trimmed mass folds back into rank-local
        /// residuals.
        union_bound: bool,
    },
}

/// Outcome of compressing one gradient vector.
pub struct Compressed {
    /// The reconstructed (lossy) dense vector that will be aggregated.
    pub dense: Vec<f32>,
    /// The residual to fold into the next accumulation (error feedback).
    pub residual: Vec<f32>,
    /// Nonzero coordinates in `dense` (what the sparse wire transmits).
    pub k_eff: usize,
    /// The schedule's kept-coordinate budget this round (`m` when the
    /// scheme is not sparse); also the union bound in the sparse tree.
    pub k_budget: usize,
    /// `‖residual‖₂`.
    pub residual_norm: f64,
    /// Quantization scale when values are on the 8-bit grid
    /// (`Uniform8Bit`, or `Sparse` with `q8`): every nonzero of `dense`
    /// is exactly `q·scale` for an integer `q ∈ [-127, 127]`.
    pub q8_scale: Option<f32>,
}

impl Compression {
    /// Compress `g` statelessly: adaptive schedules run from their
    /// starting ratio with no block map. Prefer
    /// [`Compression::compress_with`] inside a run.
    ///
    /// # Panics
    /// Panics if a ratio is outside `(0, 1]`.
    pub fn compress(&self, g: &[f32]) -> Compressed {
        self.compress_with(g, &mut KState::new(self, Vec::new()))
    }

    /// Compress `g`, returning the lossy dense reconstruction plus the
    /// residual, and advance the schedule state.
    ///
    /// # Panics
    /// Panics if a ratio is outside `(0, 1]`.
    pub fn compress_with(&self, g: &[f32], state: &mut KState) -> Compressed {
        match *self {
            Compression::TopK { ratio } => {
                assert!(ratio > 0.0 && ratio <= 1.0, "top-k ratio must be in (0,1]");
                let m = g.len();
                let k = ratio_to_k(ratio, m);
                let mut c = sparse_compress(g, &[(0, m)], &[k], k, false);
                c.k_budget = k;
                state.last_k = c.k_eff;
                state.last_residual_norm = c.residual_norm;
                c
            }
            Compression::Uniform8Bit => {
                let m = g.len();
                let maxabs = g.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
                if maxabs == 0.0 {
                    return Compressed {
                        dense: g.to_vec(),
                        residual: vec![0.0; m],
                        k_eff: m,
                        k_budget: m,
                        residual_norm: 0.0,
                        q8_scale: None,
                    };
                }
                let scale = q8_scale_for(maxabs);
                let mut dense = Vec::with_capacity(m);
                let mut residual = Vec::with_capacity(m);
                for &v in g {
                    let rec = quantize8(v, scale);
                    dense.push(rec);
                    residual.push(v - rec);
                }
                let residual_norm = l2_norm(&residual);
                state.last_k = m;
                state.last_residual_norm = residual_norm;
                Compressed {
                    dense,
                    residual,
                    k_eff: m,
                    k_budget: m,
                    residual_norm,
                    q8_scale: Some(scale),
                }
            }
            Compression::Sparse { q8, .. } => {
                state.schedule.validate();
                let m = g.len();
                let k_total = ratio_to_k(state.ratio_now, m);
                let layer_wise = matches!(state.schedule, KSchedule::LayerWise { .. });
                let (blocks, ks): (Vec<(usize, usize)>, Vec<usize>) = if layer_wise
                    && state.blocks.len() > 1
                {
                    let caps: Vec<usize> = state.blocks.iter().map(|&(lo, hi)| hi - lo).collect();
                    let weights: Vec<f64> = state
                        .blocks
                        .iter()
                        .map(|&(lo, hi)| l2_norm(&g[lo..hi]))
                        .collect();
                    (state.blocks.clone(), apportion(&weights, &caps, k_total))
                } else {
                    (vec![(0, m)], vec![k_total])
                };
                let mut c = sparse_compress(g, &blocks, &ks, k_total, q8);
                if let KSchedule::NormAdaptive {
                    ratio_min,
                    ratio_max,
                    target,
                    gain,
                    ..
                } = state.schedule
                {
                    let gn = l2_norm(g);
                    let rho = if gn > 0.0 { c.residual_norm / gn } else { 0.0 };
                    let next = state.ratio_now * (1.0 + gain * (rho - target));
                    if next.is_finite() {
                        state.ratio_now = next.clamp(ratio_min, ratio_max);
                    }
                }
                c.k_budget = k_total;
                state.last_k = c.k_eff;
                state.last_residual_norm = c.residual_norm;
                c
            }
        }
    }

    /// `f32` elements of one *leaf* wire frame for an `m`-parameter
    /// gradient (for the α–β cost model): top-k ships a
    /// `[len, nnz, idx…, val…]` frame (`2 + 2k`); 8-bit ships a packed
    /// `[len, scale, q…]` frame (`2 + ⌈m/4⌉`); the composed sparse codec
    /// ships `[len, nnz, scale, idx…, q…]` (`3 + k + ⌈k/4⌉`).
    pub fn wire_elements(&self, m: usize) -> f64 {
        match *self {
            Compression::TopK { ratio } => sparse_frame_elements(ratio_to_k(ratio, m)) as f64,
            Compression::Uniform8Bit => dense8_frame_elements(m) as f64,
            Compression::Sparse { k, q8, .. } => {
                let kk = ratio_to_k(k.base_ratio(), m);
                if q8 {
                    sparse8_frame_elements(kk) as f64
                } else {
                    sparse_frame_elements(kk) as f64
                }
            }
        }
    }

    /// Bracket the total `f32` elements one allreduce round of an
    /// `m`-parameter gradient moves on the real wire: a binomial-tree
    /// reduce to rank 0 plus a broadcast of the result, exactly what the
    /// threaded backend's traffic counters measure.
    ///
    /// For `Uniform8Bit` the count is exact (min == max). For sparse
    /// schemes the upper bound lets merged partials grow to the union of
    /// their subtree (`subtree_size·k_max`, capped at `m`) unless the
    /// scheme is union-bounded, in which case every level stays at
    /// `k_max`. The lower bound assumes full index overlap and, for f32
    /// values, that each learner's frame carries its full `k_min` budget
    /// (true whenever the gradient has at least `k_min` nonzeros). With
    /// `q8` only the largest kept value is sure to survive — kept values
    /// under half a quantisation step round to zero and leave the frame —
    /// so the floor counts one entry per frame (for a nonzero gradient).
    pub fn round_wire_bounds(&self, m: usize, p: usize) -> (u64, u64) {
        if p <= 1 {
            return (0, 0);
        }
        let levels = reduce_levels(p);
        let bcast_msgs = (p - 1) as u64;
        match *self {
            Compression::Uniform8Bit => {
                // Leaf senders ship the packed frame; internal partials
                // and the result broadcast ship dense f32.
                let mut total = bcast_msgs * m as u64;
                for &(bit, n) in &levels {
                    total += n * if bit == 1 {
                        dense8_frame_elements(m) as u64
                    } else {
                        m as u64
                    };
                }
                (total, total)
            }
            Compression::TopK { ratio } => {
                let k = ratio_to_k(ratio, m);
                sparse_round_bounds(&levels, bcast_msgs, m, p, k, k, false, false)
            }
            Compression::Sparse { k, q8, union_bound } => {
                let (kmin, kmax) = k.k_bounds(m);
                let kmin = if q8 { kmin.min(1) } else { kmin };
                sparse_round_bounds(&levels, bcast_msgs, m, p, kmin, kmax, q8, union_bound)
            }
        }
    }
}

/// Shared sparse-round bracket: leaf frames at the leaf codec size,
/// internal/broadcast frames at the f32 sparse size, nnz growing with
/// subtree size unless bounded.
#[allow(clippy::too_many_arguments)]
fn sparse_round_bounds(
    levels: &[(usize, u64)],
    bcast_msgs: u64,
    m: usize,
    p: usize,
    kmin: usize,
    kmax: usize,
    q8: bool,
    bounded: bool,
) -> (u64, u64) {
    let leaf = |nnz: usize| -> u64 {
        if q8 {
            sparse8_frame_elements(nnz) as u64
        } else {
            sparse_frame_elements(nnz) as u64
        }
    };
    let inner = |nnz: usize| sparse_frame_elements(nnz) as u64;
    let mut min = 0u64;
    let mut max = 0u64;
    for &(bit, n) in levels {
        let (lo, hi) = if bit == 1 {
            (leaf(kmin), leaf(kmax))
        } else {
            let cap = if bounded { kmax } else { (bit * kmax).min(m) };
            (inner(kmin), inner(cap))
        };
        min += n * lo;
        max += n * hi;
    }
    let bcap = if bounded { kmax } else { (p * kmax).min(m) };
    min += bcast_msgs * inner(kmin);
    max += bcast_msgs * inner(bcap);
    (min, max)
}

/// Core sparse compression: per-block top-k selection, optional 8-bit
/// quantization of the kept values, residual fill. `k_total` is the
/// whole-vector budget (used only for the lossless fast path).
fn sparse_compress(
    g: &[f32],
    blocks: &[(usize, usize)],
    ks: &[usize],
    k_total: usize,
    q8: bool,
) -> Compressed {
    let m = g.len();
    let mut d = vec![0.0f32; m];
    let mut residual = vec![0.0f32; m];
    if k_total >= m && blocks.len() == 1 && !q8 {
        // Lossless identity: preserve the input bit-for-bit (including
        // signed zeros) with an all-zero residual, as ratio-1.0 TopK
        // always has.
        d.copy_from_slice(g);
        let k_eff = g.iter().filter(|&&v| v != 0.0).count();
        return Compressed {
            dense: d,
            residual,
            k_eff,
            k_budget: k_total,
            residual_norm: 0.0,
            q8_scale: None,
        };
    }
    for (&(lo, hi), &kj) in blocks.iter().zip(ks) {
        if kj > 0 {
            keep_topk(g, lo, hi, kj, &mut d);
        }
    }
    let q8_scale = if q8 {
        let maxabs = d.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let scale = q8_scale_for(maxabs);
        for v in d.iter_mut() {
            if *v != 0.0 {
                *v = quantize8(*v, scale);
            }
        }
        Some(scale)
    } else {
        None
    };
    let mut k_eff = 0usize;
    let mut rsq = 0.0f64;
    for i in 0..m {
        if d[i] == 0.0 {
            residual[i] = g[i];
        } else {
            k_eff += 1;
            if q8_scale.is_some() {
                residual[i] = g[i] - d[i];
            }
        }
        let r = f64::from(residual[i]);
        rsq += r * r;
    }
    Compressed {
        dense: d,
        residual,
        k_eff,
        k_budget: k_total,
        residual_norm: rsq.sqrt(),
        q8_scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sasgd_tensor::SeedRng;

    #[test]
    fn topk_keeps_exactly_k_and_preserves_total() {
        let g = vec![0.1, -5.0, 0.2, 3.0, -0.05, 0.0, 1.0, -0.3];
        let c = Compression::TopK { ratio: 0.25 }.compress(&g);
        let kept = c.dense.iter().filter(|&&v| v != 0.0).count();
        assert_eq!(kept, 2);
        assert_eq!(c.k_eff, 2);
        assert_eq!(c.dense[1], -5.0);
        assert_eq!(c.dense[3], 3.0);
        // dense + residual == original, coordinate-wise.
        for ((&d, &r), &o) in c.dense.iter().zip(&c.residual).zip(&g) {
            assert_eq!(d + r, o);
        }
    }

    #[test]
    fn topk_full_ratio_is_lossless() {
        let g = vec![1.0, -2.0, 3.0];
        let c = Compression::TopK { ratio: 1.0 }.compress(&g);
        assert_eq!(c.dense, g);
        assert!(c.residual.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn topk_handles_ties_without_over_keeping() {
        let g = vec![2.0, -2.0, 2.0, 2.0];
        let c = Compression::TopK { ratio: 0.5 }.compress(&g);
        let kept = c.dense.iter().filter(|&&v| v != 0.0).count();
        assert_eq!(kept, 2, "exactly k survive even with ties");
    }

    #[test]
    fn topk_with_fewer_nonzeros_than_k_keeps_exactly_the_nonzeros() {
        // k = 4 but only two nonzeros: the threshold lands on 0.0 and
        // the tie pass must not promote zeros. Everything real is kept,
        // the residual is exactly zero.
        let g = vec![0.0f32, 2.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0];
        let c = Compression::TopK { ratio: 0.5 }.compress(&g);
        assert_eq!(c.dense, g);
        assert_eq!(c.k_eff, 2);
        assert!(c.residual.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn topk_keeps_nan_coordinates() {
        // Regression: `select_nth_unstable_by` used to map incomparable
        // pairs to Equal, so one NaN made the kept set arbitrary. Policy:
        // NaN magnitude is +∞ — always kept, poison surfaces downstream.
        let g = vec![1.0f32, f32::NAN, 3.0, 2.0];
        let c = Compression::TopK { ratio: 0.5 }.compress(&g);
        assert!(c.dense[1].is_nan(), "NaN coordinate must be kept");
        assert_eq!(c.dense[2], 3.0, "largest finite coordinate rides along");
        assert_eq!(c.dense[0], 0.0);
        assert_eq!(c.dense[3], 0.0);
        assert_eq!(c.residual[0], 1.0);
        assert_eq!(c.residual[1], 0.0);
        assert_eq!(c.residual[3], 2.0);
    }

    #[test]
    fn uniform8_subnormal_gradient_does_not_nan_poison() {
        // Regression: a subnormal maxabs underflowed `maxabs/127` to 0.0,
        // so every `(v/0.0)` became NaN/Inf and the "compressed" dense
        // vector poisoned the model.
        let g = vec![0.0f32, 1.0e-44, -1.0e-44, 0.0];
        let c = Compression::Uniform8Bit.compress(&g);
        for (i, (&d, &r)) in c.dense.iter().zip(&c.residual).enumerate() {
            assert!(d.is_finite(), "dense[{i}] = {d} must be finite");
            assert!(r.is_finite(), "residual[{i}] = {r} must be finite");
            assert_eq!(d + r, g[i], "mass conserved at {i}");
        }
    }

    #[test]
    fn quantized_zero_is_canonical_positive_zero() {
        // A tiny negative value rounds to q = -0.0; the reconstruction
        // must be +0.0 so the sparse wire (which drops exact zeros)
        // round-trips the dense form bitwise.
        let rec = quantize8(-1.0e-9, 1.0);
        assert_eq!(rec.to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn quantization_error_is_bounded_by_half_step() {
        let mut rng = SeedRng::new(1);
        let g: Vec<f32> = (0..1000).map(|_| rng.normal() * 3.0).collect();
        let c = Compression::Uniform8Bit.compress(&g);
        let maxabs = g.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let step = maxabs / 127.0;
        for (&r, &o) in c.residual.iter().zip(&g) {
            assert!(r.abs() <= step / 2.0 + 1e-6, "residual {r} vs step {step}");
            let _ = o;
        }
    }

    #[test]
    fn quantization_of_zero_vector_is_identity() {
        let g = vec![0.0f32; 8];
        let c = Compression::Uniform8Bit.compress(&g);
        assert_eq!(c.dense, g);
    }

    #[test]
    fn sparse_fixed_matches_topk_bitwise() {
        let mut rng = SeedRng::new(7);
        let g: Vec<f32> = (0..257).map(|_| rng.normal()).collect();
        let a = Compression::TopK { ratio: 0.25 }.compress(&g);
        let b = Compression::Sparse {
            k: KSchedule::fixed(0.25),
            q8: false,
            union_bound: false,
        }
        .compress(&g);
        for i in 0..g.len() {
            assert_eq!(a.dense[i].to_bits(), b.dense[i].to_bits());
            assert_eq!(a.residual[i].to_bits(), b.residual[i].to_bits());
        }
        assert_eq!(a.k_eff, b.k_eff);
    }

    #[test]
    fn composed_q8_values_sit_exactly_on_the_grid() {
        let mut rng = SeedRng::new(3);
        let g: Vec<f32> = (0..512).map(|_| rng.normal() * 2.0).collect();
        let c = Compression::Sparse {
            k: KSchedule::fixed(0.1),
            q8: true,
            union_bound: false,
        }
        .compress(&g);
        let scale = c.q8_scale.expect("composed codec sets a scale");
        let step = f64::from(scale);
        for (i, (&d, &r)) in c.dense.iter().zip(&c.residual).enumerate() {
            if d != 0.0 {
                // Exactly representable as q·scale — the wire recovers q
                // by rounding and reconstructs bitwise.
                let q = (d / scale).round();
                assert!(q.abs() <= 127.0);
                assert_eq!((q * scale).to_bits(), d.to_bits(), "coord {i}");
                // Kept coordinates obey the half-step quantization bound.
                assert!(
                    f64::from(r.abs()) <= step / 2.0 + 1e-9,
                    "residual {r} vs step {step} at {i}"
                );
            }
        }
    }

    #[test]
    fn composed_q8_transmits_zero_for_nan_and_keeps_it_in_residual() {
        let g = vec![1.0f32, f32::NAN, 3.0, 2.0];
        let c = Compression::Sparse {
            k: KSchedule::fixed(0.5),
            q8: true,
            union_bound: false,
        }
        .compress(&g);
        assert_eq!(c.dense[1], 0.0, "q8 grid cannot carry NaN");
        assert!(c.residual[1].is_nan(), "NaN persists in the residual");
        assert!(c.dense[2] != 0.0, "finite top coordinate still travels");
    }

    #[test]
    fn norm_adaptive_ratio_grows_under_heavy_truncation() {
        // Flat magnitudes: keeping 5% leaves ρ ≈ √0.95 > target, so the
        // controller should buy more bandwidth.
        let comp = Compression::Sparse {
            k: KSchedule::NormAdaptive {
                ratio0: 0.05,
                ratio_min: 0.0125,
                ratio_max: 0.8,
                target: 0.5,
                gain: 0.5,
            },
            q8: false,
            union_bound: false,
        };
        let mut state = KState::new(&comp, Vec::new());
        let g: Vec<f32> = (0..400).map(|i| 1.0 + (i % 7) as f32 * 0.01).collect();
        let r0 = state.ratio();
        for _ in 0..5 {
            comp.compress_with(&g, &mut state);
        }
        assert!(
            state.ratio() > r0 * 1.2,
            "ratio should grow: {r0} -> {}",
            state.ratio()
        );
        assert!(state.ratio() <= 0.8);
    }

    #[test]
    fn norm_adaptive_ratio_shrinks_when_residual_is_small() {
        // One dominant coordinate: k=1 already captures almost all mass,
        // ρ ≈ 0 < target, so the controller gives bandwidth back.
        let comp = Compression::Sparse {
            k: KSchedule::NormAdaptive {
                ratio0: 0.25,
                ratio_min: 0.01,
                ratio_max: 0.5,
                target: 0.5,
                gain: 0.5,
            },
            q8: false,
            union_bound: false,
        };
        let mut state = KState::new(&comp, Vec::new());
        let mut g = vec![1.0e-6f32; 64];
        g[11] = 100.0;
        let r0 = state.ratio();
        for _ in 0..5 {
            comp.compress_with(&g, &mut state);
        }
        assert!(
            state.ratio() < r0 * 0.8,
            "ratio should shrink: {r0} -> {}",
            state.ratio()
        );
        assert!(state.ratio() >= 0.01);
    }

    #[test]
    fn layer_wise_allocates_budget_by_block_norm() {
        let comp = Compression::Sparse {
            k: KSchedule::layer_wise(0.5),
            q8: false,
            union_bound: false,
        };
        // Block 0 carries essentially all the gradient mass.
        let mut state = KState::new(&comp, vec![(0, 4), (4, 8)]);
        let g = vec![10.0f32, 9.0, 8.0, 7.0, 0.1, 0.1, 0.1, 0.1];
        let c = comp.compress_with(&g, &mut state);
        assert_eq!(c.k_eff, 4);
        assert_eq!(&c.dense[..4], &g[..4], "budget lands on the heavy block");
        assert!(c.dense[4..].iter().all(|&v| v == 0.0));
        // Balanced blocks split the budget.
        let mut state = KState::new(&comp, vec![(0, 4), (4, 8)]);
        let g = vec![5.0f32, 4.0, 0.1, 0.1, 5.0, 4.0, 0.1, 0.1];
        let c = comp.compress_with(&g, &mut state);
        let kept0 = c.dense[..4].iter().filter(|&&v| v != 0.0).count();
        let kept1 = c.dense[4..].iter().filter(|&&v| v != 0.0).count();
        assert_eq!((kept0, kept1), (2, 2));
    }

    #[test]
    fn apportionment_is_exact_and_capped() {
        // Largest-remainder: budgets sum exactly to k_total when
        // capacity allows, and never exceed a block's size.
        let ks = apportion(&[3.0, 1.0, 1.0], &[10, 10, 10], 10);
        assert_eq!(ks.iter().sum::<usize>(), 10);
        assert_eq!(ks[0], 6);
        let ks = apportion(&[100.0, 1.0], &[2, 10], 8);
        assert_eq!(ks[0], 2, "saturated block stays capped");
        assert_eq!(ks.iter().sum::<usize>(), 8, "spill goes to open blocks");
        // Degenerate (all-zero) weights fall back to capacity shares.
        let ks = apportion(&[0.0, 0.0], &[4, 12], 4);
        assert_eq!(ks.iter().sum::<usize>(), 4);
        assert!(ks[1] >= ks[0]);
    }

    #[test]
    fn wire_elements_shrink() {
        let m = 506_378;
        assert!(Compression::TopK { ratio: 0.01 }.wire_elements(m) < m as f64 * 0.03);
        let packed = 2.0 + (m as f64 / 4.0).ceil();
        assert!((Compression::Uniform8Bit.wire_elements(m) - packed).abs() < 1e-9);
        let composed = Compression::Sparse {
            k: KSchedule::fixed(0.01),
            q8: true,
            union_bound: false,
        };
        let plain = Compression::Sparse {
            k: KSchedule::fixed(0.01),
            q8: false,
            union_bound: false,
        };
        assert!(composed.wire_elements(m) < plain.wire_elements(m) * 0.7);
    }

    #[test]
    fn round_wire_bounds_uniform8_is_exact_and_below_dense() {
        // p=4 tree: two leaf sends (packed), one internal send (dense m),
        // three broadcast messages (dense m).
        let (m, p) = (1000usize, 4usize);
        let packed = dense8_frame_elements(m) as u64;
        let (lo, hi) = Compression::Uniform8Bit.round_wire_bounds(m, p);
        assert_eq!(lo, hi, "uniform8 accounting is exact");
        assert_eq!(lo, 2 * packed + m as u64 + 3 * m as u64);
        let dense_round = 2 * (p as u64 - 1) * m as u64;
        assert!(lo < dense_round);
    }

    #[test]
    fn round_wire_bounds_bracket_union_growth() {
        let (m, p) = (10_000usize, 8usize);
        let fixed = Compression::Sparse {
            k: KSchedule::fixed(0.01),
            q8: false,
            union_bound: false,
        };
        let bounded = Compression::Sparse {
            k: KSchedule::fixed(0.01),
            q8: false,
            union_bound: true,
        };
        let (lo_f, hi_f) = fixed.round_wire_bounds(m, p);
        let (lo_b, hi_b) = bounded.round_wire_bounds(m, p);
        assert!(lo_f <= hi_f);
        assert_eq!(lo_f, lo_b, "full-overlap floor is codec-independent");
        assert!(
            hi_b < hi_f,
            "union bound caps depth growth: {hi_b} vs {hi_f}"
        );
        assert!(lo_b <= hi_b);
        // p=1: no communication at all.
        assert_eq!(fixed.round_wire_bounds(m, 1), (0, 0));
    }

    #[test]
    fn round_wire_bounds_floor_holds_when_q8_rounds_kept_values_to_zero() {
        // Each rank keeps k = 10 coordinates: one at 1.0 and nine at 1e-4,
        // under half a quantisation step (1/254), so q8 ships one entry
        // per leaf. The measured round must still sit inside the bracket.
        use sasgd_comm::sparse::{sparse_allreduce_tree_v2, SparseTreeOpts, SparseVec};
        use sasgd_comm::world::CommWorld;
        let (m, p) = (200usize, 4usize);
        let comp = Compression::Sparse {
            k: KSchedule::fixed(0.05),
            q8: true,
            union_bound: false,
        };
        let mut world = CommWorld::new(p);
        let traffic = world.traffic();
        std::thread::scope(|s| {
            for mut c in world.communicators() {
                s.spawn(move || {
                    let r = c.rank();
                    let mut g = vec![0.0f32; m];
                    g[r] = 1.0;
                    for j in 1..10 {
                        g[r + 10 * j] = 1e-4;
                    }
                    let out = comp.compress_with(&g, &mut KState::new(&comp, Vec::new()));
                    assert_eq!(out.k_eff, 1, "the small kept values round to zero");
                    let mut sv = SparseVec::from_dense(&out.dense);
                    let opts = SparseTreeOpts {
                        union_bound: None,
                        q8_scale: out.q8_scale,
                    };
                    let mut profile = Default::default();
                    sparse_allreduce_tree_v2(&mut c, &mut sv, opts, &mut profile)
                        .expect("sparse allreduce");
                });
            }
        });
        let (lo, hi) = comp.round_wire_bounds(m, p);
        let got = traffic.elements_sent();
        assert!((lo..=hi).contains(&got), "{got} outside [{lo}, {hi}]");
    }

    #[test]
    fn error_feedback_recovers_dropped_mass() {
        // Repeatedly compressing (gradient + residual) must transmit every
        // coordinate's mass eventually: after many rounds of a constant
        // gradient, the cumulative transmitted vector approaches
        // rounds × gradient.
        let g = vec![1.0f32, 0.2, 0.05, -0.6];
        let comp = Compression::TopK { ratio: 0.25 };
        let mut residual = vec![0.0f32; 4];
        let mut transmitted = [0.0f32; 4];
        let rounds = 40;
        for _ in 0..rounds {
            let input: Vec<f32> = g.iter().zip(&residual).map(|(a, b)| a + b).collect();
            let c = comp.compress(&input);
            for (t, &d) in transmitted.iter_mut().zip(&c.dense) {
                *t += d;
            }
            residual = c.residual;
        }
        for (i, (&t, &gi)) in transmitted.iter().zip(&g).enumerate() {
            let expect = gi * rounds as f32;
            assert!(
                (t - expect).abs() <= gi.abs().max(1.0) * 2.0,
                "coord {i}: transmitted {t} vs {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "top-k ratio")]
    fn bad_ratio_rejected() {
        Compression::TopK { ratio: 0.0 }.compress(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "ratio must be in (0,1]")]
    fn bad_schedule_ratio_rejected() {
        Compression::Sparse {
            k: KSchedule::fixed(1.5),
            q8: false,
            union_bound: false,
        }
        .compress(&[1.0]);
    }
}
