//! Sparse wire format and sparse tree collectives.
//!
//! Top-k gradient compression only pays off if the *wire* carries the
//! sparse form. This module gives the comm substrate an index/value
//! encoding and a binomial-tree allreduce over it, so compressed SASGD on
//! the threaded backend moves `O(k)` elements per hop instead of `O(m)` —
//! and the traffic counters record the real (compressed) sizes.
//!
//! The reduction mirrors [`crate::collectives::reduce_tree`]'s combine order
//! exactly (accumulated self `+=` incoming child, children in ascending
//! bit order), so a sparse allreduce of vectors produces the same sums, bit
//! for bit, as the dense tree allreduce of their densified forms — with one
//! IEEE corner: a coordinate whose every contribution is `-0.0` densifies
//! to `+0.0` here (`-0.0` entries are structurally absent) while a dense
//! reduction keeps `-0.0`. Gradient payloads never hit it; tests exclude
//! `-0.0` explicitly.
//!
//! Wire encoding inside the existing `Vec<f32>` message type:
//! `[len, nnz, idx..., val...]` with `len`/`nnz`/indices bit-cast from
//! `u32` via [`f32::from_bits`] (exact round-trip; an index would need to
//! exceed 2³¹ before its bit pattern could collide with a NaN).
//!
//! The composed codec [`SparseVec8`] additionally quantizes the value
//! lane to 8 bits (`[len, nnz, scale, idx..., q-packed...]`, four `i8`
//! per `f32` slot, ~`k + k/4` elements instead of `2k`). It only ships
//! values that already sit exactly on the `q·scale` grid — compression
//! quantizes, the wire just transports — so the receiver's `q·scale`
//! reconstruction is bitwise identical to the sender's dense form and
//! the tree reduce stays a plain f32 sum.
//!
//! [`sparse_allreduce_tree_v2`] is that collective — reduce to rank 0
//! plus a broadcast of the encoded sum — with two optional layers: a
//! per-level wire profile ([`SparseLevelProfile`], measuring how the
//! index union grows with tree depth) and an optional union bound that
//! re-TopKs each merged partial, folding the trimmed mass back to the
//! caller as a sparse *spill* for its error-feedback residual — nothing
//! is silently lost. Both engine backends run it over their transports.
//!
//! Decoding validates every peer frame: a frame whose length disagrees
//! with its header, whose indices are out of order or out of range, whose
//! scale is not finite, or whose dense length differs from the
//! receiver's is [`CommError::Malformed`], never a panic.
//!
//! [`q8_allreduce_tree`] gives dense 8-bit quantization a real wire form:
//! leaf sends travel as packed `[len, scale, q-packed]` frames
//! (`2 + ⌈m/4⌉` elements), merged partials and the result broadcast stay
//! dense f32 — bitwise identical to the dense tree over the same
//! quantized inputs.

use crate::collectives::broadcast;
use crate::transport::Transport;
use crate::world::CommError;

/// Elements of a [`SparseVec`] wire frame carrying `nnz` entries.
pub fn sparse_frame_elements(nnz: usize) -> usize {
    2 + 2 * nnz
}

/// Elements of a [`SparseVec8`] wire frame carrying `nnz` entries.
pub fn sparse8_frame_elements(nnz: usize) -> usize {
    3 + nnz + nnz.div_ceil(4)
}

/// Elements of a packed dense 8-bit frame (`[len, scale, q-packed...]`)
/// for an `m`-element vector.
pub fn dense8_frame_elements(m: usize) -> usize {
    2 + m.div_ceil(4)
}

/// Ranking magnitude for union-bound trimming: NaN maps to +∞ so a
/// poisoned coordinate is never silently trimmed away.
fn trim_mag(v: f32) -> f32 {
    if v.is_nan() {
        f32::INFINITY
    } else {
        v.abs()
    }
}

/// A sparse view of an `m`-element `f32` vector: sorted indices plus
/// values. Zero values may appear (sums that cancel stay represented so
/// repeated merges keep the dense addition structure); `-0.0` never enters
/// through [`SparseVec::from_dense`].
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVec {
    /// Dense length.
    pub len: u32,
    /// Strictly increasing coordinate indices.
    pub idx: Vec<u32>,
    /// Values, parallel to `idx`.
    pub val: Vec<f32>,
}

impl SparseVec {
    /// Extract the nonzero coordinates of `dense` (`±0.0` excluded).
    pub fn from_dense(dense: &[f32]) -> Self {
        assert!(dense.len() <= u32::MAX as usize, "vector too long for wire");
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for (i, &v) in dense.iter().enumerate() {
            if v != 0.0 {
                idx.push(i as u32);
                val.push(v);
            }
        }
        SparseVec {
            len: dense.len() as u32,
            idx,
            val,
        }
    }

    /// Stored entries (including exact-zero sums).
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Densify. [`CommError::Malformed`] when an index is out of range
    /// or the lanes differ in length — impossible for vectors built by
    /// [`SparseVec::from_dense`] or [`SparseVec::decode`].
    pub fn to_dense(&self) -> Result<Vec<f32>, CommError> {
        if self.idx.len() != self.val.len() {
            return Err(malformed("index and value lanes differ in length"));
        }
        let mut out = vec![0.0f32; self.len as usize];
        for (&i, &v) in self.idx.iter().zip(&self.val) {
            *out.get_mut(i as usize)
                .ok_or(malformed("sparse index out of range"))? = v;
        }
        Ok(out)
    }

    /// Merge-add `other` into `self` (`self[i] += other[i]` on shared
    /// coordinates, union elsewhere) — the sparse mirror of the dense
    /// reduce's `a += b`.
    pub fn add_assign(&mut self, other: &SparseVec) {
        assert_eq!(self.len, other.len, "length mismatch in sparse add");
        let (n_a, n_b) = (self.idx.len(), other.idx.len());
        let mut idx = Vec::with_capacity(n_a + n_b);
        let mut val = Vec::with_capacity(n_a + n_b);
        let (mut a, mut b) = (0usize, 0usize);
        while a < n_a && b < n_b {
            match self.idx[a].cmp(&other.idx[b]) {
                std::cmp::Ordering::Less => {
                    idx.push(self.idx[a]);
                    val.push(self.val[a]);
                    a += 1;
                }
                std::cmp::Ordering::Greater => {
                    idx.push(other.idx[b]);
                    val.push(other.val[b]);
                    b += 1;
                }
                std::cmp::Ordering::Equal => {
                    idx.push(self.idx[a]);
                    val.push(self.val[a] + other.val[b]);
                    a += 1;
                    b += 1;
                }
            }
        }
        idx.extend_from_slice(&self.idx[a..]);
        val.extend_from_slice(&self.val[a..]);
        idx.extend_from_slice(&other.idx[b..]);
        val.extend_from_slice(&other.val[b..]);
        self.idx = idx;
        self.val = val;
    }

    /// Encode as a `Vec<f32>` message: `[len, nnz, idx..., val...]`,
    /// integers bit-cast.
    pub fn encode(&self) -> Vec<f32> {
        let nnz = self.idx.len();
        let mut out = Vec::with_capacity(2 + 2 * nnz);
        out.push(f32::from_bits(self.len));
        out.push(f32::from_bits(nnz as u32));
        out.extend(self.idx.iter().map(|&i| f32::from_bits(i)));
        out.extend_from_slice(&self.val);
        out
    }

    /// Decode an [`encode`](SparseVec::encode)d message, validating it:
    /// [`CommError::Malformed`] unless the frame length matches its `nnz`
    /// header and the indices are strictly increasing and below `len`.
    pub fn decode(buf: &[f32]) -> Result<Self, CommError> {
        let [len, nnz, ..] = *buf else {
            return Err(malformed("sparse frame shorter than its header"));
        };
        let (len, nnz) = (len.to_bits(), nnz.to_bits() as usize);
        if Some(buf.len()) != nnz.checked_mul(2).and_then(|n| n.checked_add(2)) {
            return Err(malformed("sparse frame length disagrees with its nnz"));
        }
        let idx = decode_indices(&buf[2..2 + nnz], len)?;
        let val = buf[2 + nnz..].to_vec();
        Ok(SparseVec { len, idx, val })
    }
}

fn malformed(what: &'static str) -> CommError {
    CommError::Malformed { what }
}

/// Bit-cast a frame's index lane, checking the indices are strictly
/// increasing and below `len`.
fn decode_indices(lane: &[f32], len: u32) -> Result<Vec<u32>, CommError> {
    let idx: Vec<u32> = lane.iter().map(|v| v.to_bits()).collect();
    if idx.windows(2).any(|w| w[0] >= w[1]) {
        return Err(malformed("sparse indices not strictly increasing"));
    }
    if idx.last().is_some_and(|&i| i >= len) {
        return Err(malformed("sparse index out of range"));
    }
    Ok(idx)
}

/// A finite quantization scale from a peer's frame.
fn decode_scale(v: f32) -> Result<f32, CommError> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(malformed("non-finite quantization scale"))
    }
}

/// Tag space mirroring `collectives::tag` (kept private there).
fn tag(op: u64, phase: u64) -> u64 {
    (op << 4) | phase
}

/// A sparse vector with 8-bit quantized values: the composed
/// sparsify+quantize wire codec. Values are `q·scale` for integer
/// `q ∈ [-127, 127]`; the scale travels in the frame (it is *not*
/// recoverable from the quantized values, so it must be explicit).
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVec8 {
    /// Dense length.
    pub len: u32,
    /// Quantization step.
    pub scale: f32,
    /// Strictly increasing coordinate indices.
    pub idx: Vec<u32>,
    /// Quantized values, parallel to `idx`.
    pub q: Vec<i8>,
}

impl SparseVec8 {
    /// Wrap a sparse vector whose values already sit exactly on the
    /// `q·scale` grid (the compressor quantized them). Debug builds
    /// assert the grid property: `round(v/scale)·scale` must reproduce
    /// `v` bit-for-bit, which is what makes the codec lossless on the
    /// wire.
    pub fn from_scaled(sv: &SparseVec, scale: f32) -> Self {
        let q = sv
            .val
            .iter()
            .map(|&v| {
                let q = (v / scale).round();
                debug_assert!(q.abs() <= 127.0, "value {v} off the 8-bit grid");
                debug_assert_eq!(
                    (q * scale).to_bits(),
                    v.to_bits(),
                    "value {v} not exactly q·scale"
                );
                // lint:allow(float-cast): |q| ≤ 127 by the grid property.
                q as i8
            })
            .collect();
        SparseVec8 {
            len: sv.len,
            scale,
            idx: sv.idx.clone(),
            q,
        }
    }

    /// Quantize an arbitrary sparse vector onto a fresh 8-bit grid
    /// (scale = maxabs/127, clamped away from zero). Lossy: round-trip
    /// error per entry is at most `scale/2`. NaN values map to `q = 0`.
    pub fn quantize(sv: &SparseVec) -> Self {
        let maxabs = sv.val.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let scale = (maxabs / 127.0).max(f32::MIN_POSITIVE);
        let q = sv
            .val
            .iter()
            .map(|&v| {
                if v.is_nan() {
                    0i8
                } else {
                    // lint:allow(float-cast): clamped to [-127, 127].
                    (v / scale).round().clamp(-127.0, 127.0) as i8
                }
            })
            .collect();
        SparseVec8 {
            len: sv.len,
            scale,
            idx: sv.idx.clone(),
            q,
        }
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Dequantize to the f32 sparse form: `q·scale` per entry, with
    /// `q = 0` reconstructing canonical `+0.0`.
    pub fn to_sparse(&self) -> SparseVec {
        let val = self
            .q
            .iter()
            .map(|&q| {
                if q == 0 {
                    0.0
                } else {
                    f32::from(q) * self.scale
                }
            })
            .collect();
        SparseVec {
            len: self.len,
            idx: self.idx.clone(),
            val,
        }
    }

    /// Encode as a `Vec<f32>` message: `[len, nnz, scale, idx...,
    /// q-packed...]` with four `i8` per `f32` slot (bit-cast via `u32`
    /// little-endian packing).
    pub fn encode(&self) -> Vec<f32> {
        let nnz = self.idx.len();
        let mut out = Vec::with_capacity(sparse8_frame_elements(nnz));
        out.push(f32::from_bits(self.len));
        out.push(f32::from_bits(nnz as u32));
        out.push(self.scale);
        out.extend(self.idx.iter().map(|&i| f32::from_bits(i)));
        for chunk in self.q.chunks(4) {
            let mut bytes = [0u8; 4];
            for (b, &qv) in bytes.iter_mut().zip(chunk) {
                *b = qv as u8;
            }
            out.push(f32::from_bits(u32::from_le_bytes(bytes)));
        }
        out
    }

    /// Decode an [`encode`](SparseVec8::encode)d message, validating it:
    /// [`CommError::Malformed`] unless the frame length matches its `nnz`
    /// header, the indices are strictly increasing and below `len`, and
    /// the scale is finite.
    pub fn decode(buf: &[f32]) -> Result<Self, CommError> {
        let [len, nnz, scale, ..] = *buf else {
            return Err(malformed("sparse8 frame shorter than its header"));
        };
        let (len, nnz) = (len.to_bits(), nnz.to_bits() as usize);
        let scale = decode_scale(scale)?;
        let expect = nnz
            .checked_add(nnz.div_ceil(4))
            .and_then(|n| n.checked_add(3));
        if Some(buf.len()) != expect {
            return Err(malformed("sparse8 frame length disagrees with its nnz"));
        }
        let idx = decode_indices(&buf[3..3 + nnz], len)?;
        let mut q = Vec::with_capacity(nnz);
        for packed in &buf[3 + nnz..] {
            for b in packed.to_bits().to_le_bytes() {
                if q.len() < nnz {
                    q.push(b as i8);
                }
            }
        }
        Ok(SparseVec8 { len, scale, idx, q })
    }
}

/// One tree level's wire traffic, summed over messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Messages sent at this level.
    pub messages: u64,
    /// Sparse entries carried, summed over the level's messages.
    pub nnz: u64,
    /// `f32` elements on the wire, summed over the level's messages.
    pub elements: u64,
}

/// Per-level wire profile of a sparse tree allreduce: levels `0..d-1`
/// are the reduce sends at bits `1, 2, 4, …` (so level = depth of the
/// sender's subtree), and level `d = ⌈log₂ p⌉` is the result broadcast.
/// Index-union growth with depth shows up directly as rising
/// `nnz/messages` across levels; a union-bounded tree stays flat.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SparseLevelProfile {
    /// Per-level stats, indexed by tree level.
    pub levels: Vec<LevelStats>,
}

impl SparseLevelProfile {
    /// Accumulate `messages` messages carrying `nnz` total entries in
    /// `elements` total wire elements at `level`.
    pub fn record(&mut self, level: usize, messages: u64, nnz: u64, elements: u64) {
        if self.levels.len() <= level {
            self.levels.resize(level + 1, LevelStats::default());
        }
        let s = &mut self.levels[level];
        s.messages += messages;
        s.nnz += nnz;
        s.elements += elements;
    }

    /// Fold another profile (e.g. another rank's or another round's)
    /// into this one.
    pub fn merge(&mut self, other: &SparseLevelProfile) {
        for (level, s) in other.levels.iter().enumerate() {
            self.record(level, s.messages, s.nnz, s.elements);
        }
    }

    /// Total wire elements across all levels.
    pub fn total_elements(&self) -> u64 {
        self.levels.iter().map(|s| s.elements).sum()
    }

    /// Total messages across all levels.
    pub fn total_messages(&self) -> u64 {
        self.levels.iter().map(|s| s.messages).sum()
    }
}

/// Options for [`sparse_allreduce_tree_v2`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SparseTreeOpts {
    /// Re-TopK every merged partial down to this many entries, folding
    /// the trimmed mass into the spill. `None` = unbounded (the
    /// exact sum).
    pub union_bound: Option<usize>,
    /// When set, leaf-level sends (a rank's own un-merged contribution,
    /// which the compressor placed exactly on this `q·scale` grid) ship
    /// as [`SparseVec8`] frames. Merged partials are arbitrary f32 sums
    /// and always ship as plain [`SparseVec`] frames. All ranks must
    /// agree on `Some`/`None` (the scale itself is per-rank and travels
    /// in the frame).
    pub q8_scale: Option<f32>,
}

/// Reduce-level index of a send at tree bit `bit`.
fn level_of(bit: usize) -> usize {
    bit.trailing_zeros() as usize
}

/// The broadcast's level index: one past the last reduce level,
/// `⌈log₂ p⌉`.
fn broadcast_level(p: usize) -> usize {
    (usize::BITS - (p - 1).leading_zeros()) as usize
}

/// Trim `sv` in place to its `bound` largest-magnitude entries (NaN
/// ranks as +∞; ties break toward the lower index), returning the
/// trimmed-off entries as a sparse remainder for the caller's residual.
fn trim_to_bound(sv: &mut SparseVec, bound: usize) -> SparseVec {
    let nnz = sv.idx.len();
    if nnz <= bound {
        return SparseVec {
            len: sv.len,
            idx: Vec::new(),
            val: Vec::new(),
        };
    }
    let mut order: Vec<usize> = (0..nnz).collect();
    order.sort_by(|&a, &b| {
        trim_mag(sv.val[b])
            .total_cmp(&trim_mag(sv.val[a]))
            .then(sv.idx[a].cmp(&sv.idx[b]))
    });
    let mut keep = vec![false; nnz];
    for &e in &order[..bound] {
        keep[e] = true;
    }
    let mut kept_idx = Vec::with_capacity(bound);
    let mut kept_val = Vec::with_capacity(bound);
    let mut rest_idx = Vec::with_capacity(nnz - bound);
    let mut rest_val = Vec::with_capacity(nnz - bound);
    for (e, &kept) in keep.iter().enumerate() {
        if kept {
            kept_idx.push(sv.idx[e]);
            kept_val.push(sv.val[e]);
        } else {
            rest_idx.push(sv.idx[e]);
            rest_val.push(sv.val[e]);
        }
    }
    let rest = SparseVec {
        len: sv.len,
        idx: rest_idx,
        val: rest_val,
    };
    sv.idx = kept_idx;
    sv.val = kept_val;
    rest
}

/// Reduce phase of [`sparse_allreduce_tree_v2`] (root 0): the dense
/// tree's combine order plus per-level profiling, optional q8 leaf frames, and optional
/// union-bound trimming after every merge (trimmed mass accumulates in
/// `spill`).
fn sparse_reduce_to_root<T: Transport>(
    comm: &mut T,
    sv: &mut SparseVec,
    opts: SparseTreeOpts,
    profile: &mut SparseLevelProfile,
    spill: &mut SparseVec,
) -> Result<(), CommError> {
    let p = comm.size();
    if p == 1 {
        comm.next_op();
        return Ok(());
    }
    let op = comm.next_op();
    let rank = comm.rank();
    let mut bit = 1usize;
    while bit < p {
        if rank & bit != 0 {
            let parent = rank & !bit;
            let enc = match (bit, opts.q8_scale) {
                (1, Some(scale)) => SparseVec8::from_scaled(sv, scale).encode(),
                _ => sv.encode(),
            };
            profile.record(level_of(bit), 1, sv.nnz() as u64, enc.len() as u64);
            comm.send(parent, tag(op, 1), enc)?;
            return Ok(());
        }
        let child = rank | bit;
        if child < p {
            let buf = comm.recv(child, tag(op, 1))?;
            let part = match (bit, opts.q8_scale) {
                (1, Some(_)) => SparseVec8::decode(&buf)?.to_sparse(),
                _ => SparseVec::decode(&buf)?,
            };
            if part.len != sv.len {
                return Err(malformed("sparse frame of another dense length"));
            }
            sv.add_assign(&part);
            if let Some(bound) = opts.union_bound {
                let trimmed = trim_to_bound(sv, bound);
                spill.add_assign(&trimmed);
            }
        }
        bit <<= 1;
    }
    Ok(())
}

/// Sparse allreduce (sum): binomial-tree reduce to rank 0 plus a
/// broadcast of the encoded result, so every rank returns with the full
/// sparse sum and wire traffic is `O(nnz)` per hop. Adds per-level wire
/// profiling, optional [`SparseVec8`] leaf frames, and an optional union
/// bound. Returns this rank's *spill* — the mass its trims removed from
/// partial sums — which the caller must fold into its error-feedback
/// residual so nothing is lost. With default [`SparseTreeOpts`] the spill
/// is empty and the result is bitwise the dense tree allreduce of the
/// densified inputs.
///
/// Reduce sends are profiled at the sender; the result broadcast
/// (`p − 1` messages of the root frame) is profiled analytically on
/// rank 0, so merging all ranks' profiles counts every message exactly
/// once.
pub fn sparse_allreduce_tree_v2<T: Transport>(
    comm: &mut T,
    sv: &mut SparseVec,
    opts: SparseTreeOpts,
    profile: &mut SparseLevelProfile,
) -> Result<SparseVec, CommError> {
    let p = comm.size();
    let mut spill = SparseVec {
        len: sv.len,
        idx: Vec::new(),
        val: Vec::new(),
    };
    sparse_reduce_to_root(comm, sv, opts, profile, &mut spill)?;
    let mut enc = sv.encode();
    if comm.rank() == 0 && p > 1 {
        let msgs = (p - 1) as u64;
        profile.record(
            broadcast_level(p),
            msgs,
            msgs * sv.nnz() as u64,
            msgs * enc.len() as u64,
        );
    }
    broadcast(comm, 0, &mut enc)?;
    *sv = SparseVec::decode(&enc)?;
    if sv.len != spill.len {
        return Err(malformed("sparse frame of another dense length"));
    }
    Ok(spill)
}

/// Encode an `m`-element dense vector whose entries sit exactly on the
/// `q·scale` grid as a packed dense frame `[len, scale, q-packed...]`
/// (four `i8` per `f32` slot). Debug builds assert the grid property.
fn dense8_encode(v: &[f32], scale: f32) -> Vec<f32> {
    assert!(v.len() <= u32::MAX as usize, "vector too long for wire");
    let mut out = Vec::with_capacity(dense8_frame_elements(v.len()));
    out.push(f32::from_bits(v.len() as u32));
    out.push(scale);
    for chunk in v.chunks(4) {
        let mut bytes = [0u8; 4];
        for (b, &x) in bytes.iter_mut().zip(chunk) {
            let q = (x / scale).round();
            debug_assert!(q.abs() <= 127.0, "value {x} off the 8-bit grid");
            let rec = if q == 0.0 { 0.0f32 } else { q * scale };
            debug_assert_eq!(rec.to_bits(), x.to_bits(), "value {x} not exactly q·scale");
            // lint:allow(float-cast): |q| ≤ 127 by the grid property.
            *b = (q as i8) as u8;
        }
        out.push(f32::from_bits(u32::from_le_bytes(bytes)));
    }
    out
}

/// Decode a [`dense8_encode`]d frame of an `m`-element vector back to the
/// dense `q·scale` vector (`q = 0` reconstructing canonical `+0.0`):
/// [`CommError::Malformed`] unless the frame's length header is `m`, its
/// size matches the header and its scale is finite.
fn dense8_decode(buf: &[f32], m: usize) -> Result<Vec<f32>, CommError> {
    let [len, scale, ..] = *buf else {
        return Err(malformed("dense8 frame shorter than its header"));
    };
    if len.to_bits() as usize != m {
        return Err(malformed("dense8 frame of another dense length"));
    }
    let scale = decode_scale(scale)?;
    if buf.len() != dense8_frame_elements(m) {
        return Err(malformed("dense8 frame length disagrees with its header"));
    }
    let mut out = Vec::with_capacity(m);
    for packed in &buf[2..] {
        for b in packed.to_bits().to_le_bytes() {
            if out.len() < m {
                let q = b as i8;
                out.push(if q == 0 { 0.0 } else { f32::from(q) * scale });
            }
        }
    }
    Ok(out)
}

/// Dense allreduce for 8-bit-quantized vectors: leaf-level sends (a
/// rank's own contribution, which the compressor placed exactly on its
/// `q·scale` grid) travel as packed dense-8-bit frames
/// (`2 + ⌈m/4⌉` elements); merged partials are arbitrary f32 sums and
/// travel dense, as does the result broadcast. The scale is per-sender
/// and rides in the frame. Because the wire only transports values the
/// sender already holds, the result is bitwise identical to
/// [`crate::collectives::allreduce_tree`] over the same (quantized)
/// inputs — the 8-bit frame is a transport optimization, not an extra
/// lossy step.
pub fn q8_allreduce_tree<T: Transport>(
    comm: &mut T,
    v: &mut Vec<f32>,
    scale: f32,
) -> Result<(), CommError> {
    let p = comm.size();
    if p == 1 {
        comm.next_op();
        return Ok(());
    }
    let op = comm.next_op();
    let rank = comm.rank();
    let mut bit = 1usize;
    while bit < p {
        if rank & bit != 0 {
            let parent = rank & !bit;
            let enc = if bit == 1 {
                dense8_encode(v, scale)
            } else {
                v.clone()
            };
            comm.send(parent, tag(op, 1), enc)?;
            break;
        }
        let child = rank | bit;
        if child < p {
            let buf = comm.recv(child, tag(op, 1))?;
            let part = if bit == 1 {
                dense8_decode(&buf, v.len())?
            } else if buf.len() == v.len() {
                buf
            } else {
                return Err(malformed("dense partial of another length"));
            };
            for (a, b) in v.iter_mut().zip(&part) {
                *a += b;
            }
        }
        bit <<= 1;
    }
    broadcast(comm, 0, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::allreduce_tree;
    use crate::world::{CommWorld, Communicator};
    use proptest::prelude::*;
    use std::thread;

    fn run_world<T: Send>(p: usize, f: impl Fn(&mut Communicator) -> T + Sync) -> Vec<T> {
        let mut world = CommWorld::new(p);
        let comms = world.communicators();
        let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
        thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|mut c| {
                    let f = &f;
                    s.spawn(move || f(&mut c))
                })
                .collect();
            for (slot, h) in out.iter_mut().zip(handles) {
                *slot = Some(h.join().expect("rank thread"));
            }
        });
        out.into_iter().map(|o| o.expect("result")).collect()
    }

    /// The unbounded, unprofiled sparse allreduce; returns the spill.
    fn allreduce_exact(c: &mut Communicator, sv: &mut SparseVec) -> SparseVec {
        let mut profile = SparseLevelProfile::default();
        sparse_allreduce_tree_v2(c, sv, SparseTreeOpts::default(), &mut profile)
            .expect("sparse allreduce")
    }

    #[test]
    fn encode_decode_round_trip() {
        let v = vec![0.0f32, -1.5, 0.0, 3.25, 0.0, 1e-30];
        let sv = SparseVec::from_dense(&v);
        assert_eq!(sv.nnz(), 3);
        let back = SparseVec::decode(&sv.encode()).expect("valid frame");
        assert_eq!(back, sv);
        assert_eq!(back.to_dense(), Ok(v));
    }

    #[test]
    fn merge_matches_dense_addition() {
        let a = vec![1.0f32, 0.0, 2.0, 0.0];
        let b = vec![0.5f32, -1.0, 0.0, 0.0];
        let mut sa = SparseVec::from_dense(&a);
        sa.add_assign(&SparseVec::from_dense(&b));
        let want: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert_eq!(sa.to_dense(), Ok(want));
    }

    #[test]
    fn cancelling_sum_keeps_entry() {
        let mut a = SparseVec::from_dense(&[2.0f32, 0.0]);
        a.add_assign(&SparseVec::from_dense(&[-2.0f32, 0.0]));
        assert_eq!(a.nnz(), 1, "exact-zero sums stay represented");
        assert_eq!(a.to_dense(), Ok(vec![0.0, 0.0]));
    }

    #[test]
    fn sparse_allreduce_equals_dense_allreduce_bitwise() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            let m = 17;
            // Rank r contributes a sparse vector touching every third
            // coordinate offset by r.
            let input = |r: usize| -> Vec<f32> {
                (0..m)
                    .map(|j| {
                        if (j + r).is_multiple_of(3) {
                            (r as f32 + 1.0) * 0.1 + j as f32
                        } else {
                            0.0
                        }
                    })
                    .collect()
            };
            let dense = run_world(p, |c| {
                let mut v = input(c.rank());
                allreduce_tree(c, &mut v).expect("allreduce");
                v
            });
            let sparse = run_world(p, |c| {
                let mut sv = SparseVec::from_dense(&input(c.rank()));
                let spill = allreduce_exact(c, &mut sv);
                assert_eq!(spill.nnz(), 0, "unbounded tree spills nothing");
                sv.to_dense().expect("in range")
            });
            for (d, s) in dense.iter().zip(&sparse) {
                for (a, b) in d.iter().zip(s) {
                    assert_eq!(a.to_bits(), b.to_bits(), "p={p}");
                }
            }
        }
    }

    #[test]
    fn sparse_wire_traffic_shrinks() {
        let p = 4;
        let m = 1000usize;
        // 10 nonzeros per rank → sparse messages ≪ dense m.
        let dense_elems = {
            let mut world = CommWorld::new(p);
            let traffic = world.traffic();
            let comms = world.communicators();
            thread::scope(|s| {
                for mut c in comms {
                    s.spawn(move || {
                        let mut v = vec![0.0f32; m];
                        for j in 0..10 {
                            v[j * 97 % m] = c.rank() as f32 + 1.0;
                        }
                        allreduce_tree(&mut c, &mut v).expect("allreduce");
                    });
                }
            });
            traffic.elements_sent()
        };
        let sparse_elems = {
            let mut world = CommWorld::new(p);
            let traffic = world.traffic();
            let comms = world.communicators();
            thread::scope(|s| {
                for mut c in comms {
                    s.spawn(move || {
                        let mut v = vec![0.0f32; m];
                        for j in 0..10 {
                            v[j * 97 % m] = c.rank() as f32 + 1.0;
                        }
                        let mut sv = SparseVec::from_dense(&v);
                        allreduce_exact(&mut c, &mut sv);
                    });
                }
            });
            traffic.elements_sent()
        };
        assert!(
            sparse_elems * 10 < dense_elems,
            "sparse {sparse_elems} vs dense {dense_elems}"
        );
    }

    /// Bit-cast `u32` words into a frame.
    fn frame(words: &[u32]) -> Vec<f32> {
        words.iter().map(|&w| f32::from_bits(w)).collect()
    }

    fn is_malformed<T: std::fmt::Debug>(r: Result<T, CommError>) -> bool {
        matches!(r, Err(CommError::Malformed { .. }))
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        // Short, length-mismatched, unsorted, duplicate and out-of-range.
        assert!(is_malformed(SparseVec::decode(&frame(&[4]))));
        assert!(is_malformed(SparseVec::decode(&frame(&[4, 2, 1]))));
        assert!(is_malformed(SparseVec::decode(&frame(&[4, 2, 3, 1, 0, 0]))));
        assert!(is_malformed(SparseVec::decode(&frame(&[4, 2, 1, 1, 0, 0]))));
        assert!(is_malformed(SparseVec::decode(&frame(&[4, 1, 4, 0]))));
        assert!(is_malformed(SparseVec::decode(&frame(&[4, u32::MAX]))));
        assert!(SparseVec::decode(&frame(&[4, 1, 3, 0])).is_ok());
        // A huge nnz header must not overflow the length check.
        let huge = frame(&[u32::MAX, u32::MAX, 0]);
        assert!(is_malformed(SparseVec8::decode(&huge)));
        let mut nan_scale = frame(&[4, 1, 0, 2, 0]);
        nan_scale[2] = f32::NAN;
        assert!(is_malformed(SparseVec8::decode(&nan_scale)));
        nan_scale[2] = f32::INFINITY;
        assert!(is_malformed(SparseVec8::decode(&nan_scale)));
        nan_scale[2] = 0.5;
        assert!(SparseVec8::decode(&nan_scale).is_ok());
        // dense8: wrong dense length, wrong size, bad scale.
        let good = dense8_encode(&[0.5, -0.5, 1.0], 0.5);
        assert_eq!(dense8_decode(&good, 3), Ok(vec![0.5, -0.5, 1.0]));
        assert!(is_malformed(dense8_decode(&good, 4)));
        assert!(is_malformed(dense8_decode(&good[..2], 3)));
        assert!(is_malformed(dense8_decode(&good[..1], 3)));
        let mut bad = good.clone();
        bad[1] = f32::NAN;
        assert!(is_malformed(dense8_decode(&bad, 3)));
        // A hand-built vector with an index past its length.
        let sv = SparseVec {
            len: 2,
            idx: vec![5],
            val: vec![1.0],
        };
        assert!(is_malformed(sv.to_dense()));
    }

    #[test]
    fn hostile_leaf_frame_fails_the_receiving_rank_typed() {
        // Rank 1 puts garbage where its leaf frame belongs: rank 0's
        // sparse and q8 trees return Malformed instead of panicking.
        for q8 in [false, true] {
            let out = run_world(2, |c| {
                if c.rank() == 1 {
                    let op = c.next_op();
                    c.send(0, tag(op, 1), frame(&[9, 7, 3, 1])).expect("send");
                    return true;
                }
                if q8 {
                    let mut v = vec![0.5f32; 9];
                    is_malformed(q8_allreduce_tree(c, &mut v, 0.5))
                } else {
                    let mut sv = SparseVec::from_dense(&[1.0f32; 9]);
                    let mut profile = SparseLevelProfile::default();
                    let opts = SparseTreeOpts::default();
                    is_malformed(sparse_allreduce_tree_v2(c, &mut sv, opts, &mut profile))
                }
            });
            assert_eq!(out, vec![true, true], "q8={q8}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_frames_never_panic(
            len in 0u32..24,
            nnz in 0u32..12,
            idx in proptest::collection::vec(0u32..32, 0..12),
            raw in proptest::collection::vec(0u32..u32::MAX, 0..40),
            cut in 0usize..48,
        ) {
            // Near-valid headers (plausible len/nnz, mostly-sorted small
            // indices) reach the deep checks; the raw tail and the cut
            // cover everything else.
            let mut words = vec![len, nnz];
            words.extend(&idx);
            words.extend(&raw);
            words.truncate(cut.max(1));
            for buf in [frame(&words), frame(&raw)] {
                if let Ok(sv) = SparseVec::decode(&buf) {
                    prop_assert!(sv.idx.windows(2).all(|w| w[0] < w[1]));
                    prop_assert_eq!(sv.idx.len(), sv.val.len());
                    prop_assert_eq!(sv.to_dense().map(|d| d.len()), Ok(sv.len as usize));
                }
                if let Ok(sv8) = SparseVec8::decode(&buf) {
                    prop_assert!(sv8.scale.is_finite());
                    prop_assert!(sv8.to_sparse().to_dense().is_ok());
                }
                let m = len as usize;
                if let Ok(d) = dense8_decode(&buf, m) {
                    prop_assert_eq!(d.len(), m);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let mut a = SparseVec::from_dense(&[1.0f32]);
        a.add_assign(&SparseVec::from_dense(&[1.0f32, 2.0]));
    }

    /// A sparse vector whose values sit exactly on the `q·scale` grid.
    fn grid_vector(m: usize, scale: f32, seed: usize) -> SparseVec {
        let mut v = vec![0.0f32; m];
        for j in 0..(m / 3) {
            let q = ((seed + 3 * j) % 255) as i32 - 127;
            if q != 0 {
                v[(seed + 7 * j) % m] = q as f32 * scale;
            }
        }
        SparseVec::from_dense(&v)
    }

    #[test]
    fn sparse8_round_trip_is_bitwise_for_grid_values() {
        let sv = grid_vector(97, 0.03125, 5);
        let q8 = SparseVec8::from_scaled(&sv, 0.03125);
        let enc = q8.encode();
        assert_eq!(enc.len(), sparse8_frame_elements(sv.nnz()));
        let back = SparseVec8::decode(&enc).expect("valid frame");
        assert_eq!(back, q8);
        let rec = back.to_sparse();
        assert_eq!(rec.idx, sv.idx);
        for (a, b) in rec.val.iter().zip(&sv.val) {
            assert_eq!(a.to_bits(), b.to_bits(), "grid values survive the wire");
        }
    }

    #[test]
    fn sparse8_quantize_obeys_half_step_bound() {
        // Off-grid values: a fresh quantization grid loses at most half a
        // step per kept coordinate.
        let mut v = vec![0.0f32; 64];
        for (j, slot) in v.iter_mut().enumerate().skip(1) {
            *slot = (j as f32 * 0.377).sin() * 2.5;
        }
        let sv = SparseVec::from_dense(&v);
        let q8 = SparseVec8::quantize(&sv);
        let rec = q8.to_sparse();
        for ((&orig, &r), &i) in sv.val.iter().zip(&rec.val).zip(&sv.idx) {
            assert!(
                (orig - r).abs() <= q8.scale / 2.0 + 1e-6,
                "coord {i}: {orig} -> {r}, step {}",
                q8.scale
            );
        }
    }

    #[test]
    fn trim_keeps_largest_and_returns_the_rest() {
        let mut sv = SparseVec::from_dense(&[1.0f32, -4.0, 0.5, 3.0, -2.0]);
        let rest = trim_to_bound(&mut sv, 2);
        assert_eq!(sv.idx, vec![1, 3], "largest magnitudes survive");
        assert_eq!(rest.idx, vec![0, 2, 4], "trimmed mass is handed back");
        assert_eq!(rest.val, vec![1.0, 0.5, -2.0]);
        // Under the bound: no-op, empty remainder.
        let rest = trim_to_bound(&mut sv, 5);
        assert_eq!(rest.nnz(), 0);
        assert_eq!(sv.idx, vec![1, 3]);
    }

    /// Run the union-bounded v2 tree over `inputs` (rank `r` contributes
    /// `inputs[r]`): every rank's `(total, spill, profile)`.
    fn bounded_run(
        inputs: &[SparseVec],
        bound: usize,
        q8_scale: Option<f32>,
    ) -> Vec<(SparseVec, SparseVec, SparseLevelProfile)> {
        run_world(inputs.len(), |c| {
            let mut sv = inputs[c.rank()].clone();
            let mut profile = SparseLevelProfile::default();
            let opts = SparseTreeOpts {
                union_bound: Some(bound),
                q8_scale,
            };
            let spill =
                sparse_allreduce_tree_v2(c, &mut sv, opts, &mut profile).expect("v2 bounded");
            (sv, spill, profile)
        })
    }

    #[test]
    fn v2_bounded_tree_agrees_across_ranks_and_counts_every_frame() {
        // q8 leaf frames + union bound, p across tree shapes: every rank
        // ends with the same total, and the merged per-level profile
        // counts exactly the elements the traffic counters see.
        for p in [2usize, 3, 4, 7, 8] {
            let m = 64;
            let scale = 0.03125f32;
            let inputs: Vec<SparseVec> = (0..p).map(|r| grid_vector(m, scale, r + 1)).collect();
            let mut world = CommWorld::new(p);
            let traffic = world.traffic();
            let comms = world.communicators();
            let out: Vec<(SparseVec, SparseLevelProfile)> = thread::scope(|s| {
                let handles: Vec<_> = comms
                    .into_iter()
                    .map(|mut c| {
                        let mut sv = inputs[c.rank()].clone();
                        s.spawn(move || {
                            let mut profile = SparseLevelProfile::default();
                            let opts = SparseTreeOpts {
                                union_bound: Some(6),
                                q8_scale: Some(scale),
                            };
                            sparse_allreduce_tree_v2(&mut c, &mut sv, opts, &mut profile)
                                .expect("v2 bounded");
                            (sv, profile)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("rank thread"))
                    .collect()
            });
            let mut merged = SparseLevelProfile::default();
            for (r, (total, profile)) in out.iter().enumerate() {
                assert_eq!(total, &out[0].0, "total p={p} rank={r}");
                assert!(total.nnz() <= 6, "root trimmed to the bound");
                merged.merge(profile);
            }
            assert_eq!(merged.total_elements(), traffic.elements_sent(), "p={p}");
            assert_eq!(merged.total_messages(), traffic.messages_sent(), "p={p}");
        }
    }

    #[test]
    fn bounded_tree_conserves_mass_exactly() {
        // Integer-valued contributions: every sum is exact in f32, so
        // delivered + spilled must equal the input mass to the bit.
        let p = 4;
        let m = 32;
        let inputs: Vec<SparseVec> = (0..p)
            .map(|r| {
                let mut v = vec![0.0f32; m];
                for j in 0..12 {
                    v[(r * 5 + j * 3) % m] = (r + 1) as f32 * (j + 1) as f32;
                }
                SparseVec::from_dense(&v)
            })
            .collect();
        let input_mass: f64 = inputs
            .iter()
            .flat_map(|sv| sv.val.iter())
            .map(|&v| f64::from(v))
            .sum();
        let out = bounded_run(&inputs, 5, None);
        let total = &out[0].0;
        assert!(total.nnz() <= 5, "delivered vector respects the bound");
        let delivered: f64 = total.val.iter().map(|&v| f64::from(v)).sum();
        let spilled: f64 = out
            .iter()
            .flat_map(|(_, spill, _)| spill.val.iter())
            .map(|&v| f64::from(v))
            .sum();
        assert_eq!(
            delivered + spilled,
            input_mass,
            "no mass is silently lost by union-bound trimming"
        );
    }

    #[test]
    fn union_bound_keeps_per_message_nnz_flat_across_levels() {
        // Disjoint index sets per rank: the worst case for union growth.
        let p = 8;
        let m = 4096;
        let per_rank = 16usize;
        let inputs: Vec<SparseVec> = (0..p)
            .map(|r| {
                let mut v = vec![0.0f32; m];
                for j in 0..per_rank {
                    v[r * 512 + j * 7] = (r + 1) as f32;
                }
                SparseVec::from_dense(&v)
            })
            .collect();
        let profile = |out: &[(SparseVec, SparseVec, SparseLevelProfile)]| {
            let mut merged = SparseLevelProfile::default();
            for (_, _, pr) in out {
                merged.merge(pr);
            }
            merged
        };
        let unbounded = profile(&bounded_run(&inputs, m, None));
        let leaf = &unbounded.levels[0];
        let deepest = &unbounded.levels[2];
        assert!(
            deepest.nnz * leaf.messages > 2 * leaf.nnz * deepest.messages,
            "unbounded per-message nnz must grow with depth: {unbounded:?}"
        );
        let out = bounded_run(&inputs, per_rank, None);
        let bounded = profile(&out);
        for (level, s) in bounded.levels.iter().enumerate() {
            assert!(
                s.nnz <= s.messages * per_rank as u64,
                "level {level} exceeds the union bound: {s:?}"
            );
        }
        assert_eq!(out[0].0.nnz(), per_rank, "delivered vector is at the bound");
        assert!(
            out.iter().map(|(_, spill, _)| spill.nnz()).sum::<usize>() > 0,
            "trimmed mass lands in the spills"
        );
    }

    /// A dense vector on rank `r`'s own `q·scale` grid.
    fn grid_dense(m: usize, scale: f32, seed: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; m];
        for (j, slot) in v.iter_mut().enumerate() {
            let q = ((seed + 5 * j) % 255) as i32 - 127;
            if q != 0 {
                *slot = q as f32 * scale;
            }
        }
        v
    }

    #[test]
    fn dense8_frame_round_trip_is_bitwise() {
        for m in [0usize, 1, 3, 4, 17] {
            let v = grid_dense(m, 0.0625, 2);
            let enc = dense8_encode(&v, 0.0625);
            assert_eq!(enc.len(), dense8_frame_elements(m));
            assert_eq!(dense8_decode(&enc, m), Ok(v), "m={m}");
        }
    }

    #[test]
    fn q8_allreduce_matches_dense_allreduce_bitwise() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            let m = 23;
            let dense = run_world(p, |c| {
                let mut v = grid_dense(m, 0.0625, c.rank() + 1);
                allreduce_tree(c, &mut v).expect("allreduce");
                v
            });
            let q8 = run_world(p, |c| {
                let mut v = grid_dense(m, 0.0625, c.rank() + 1);
                q8_allreduce_tree(c, &mut v, 0.0625).expect("q8 allreduce");
                v
            });
            for (d, s) in dense.iter().zip(&q8) {
                for (a, b) in d.iter().zip(s) {
                    assert_eq!(a.to_bits(), b.to_bits(), "p={p}");
                }
            }
        }
    }

    #[test]
    fn q8_allreduce_wire_traffic_is_exactly_modeled() {
        // p=4 tree: two leaf senders (ranks 1, 3) ship packed frames, one
        // internal sender (rank 2) ships dense, broadcast ships 3 dense.
        let p = 4;
        let m = 1000usize;
        let mut world = CommWorld::new(p);
        let traffic = world.traffic();
        let comms = world.communicators();
        thread::scope(|s| {
            for mut c in comms {
                s.spawn(move || {
                    let mut v = grid_dense(m, 0.125, c.rank() + 1);
                    q8_allreduce_tree(&mut c, &mut v, 0.125).expect("q8 allreduce");
                });
            }
        });
        let want = (2 * dense8_frame_elements(m) + m + 3 * m) as u64;
        assert_eq!(traffic.elements_sent(), want);
        assert!(want < (2 * (p - 1) * m) as u64, "beats the dense tree");
    }
}
