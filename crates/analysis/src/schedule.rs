//! Shared fixtures of the interleaving checks: the bitwise result
//! fingerprint, order-sensitive rank inputs, and the deliberately
//! arrival-order-dependent reduce the model checker's negative control
//! runs ([`crate::dpor::sc_bad_reduce`]). The DPOR corpus, the real-thread
//! smoke test and the benchmark's parameter fingerprint all use them.

use sasgd_comm::transport::Transport;

/// FNV-1a over the bit patterns of a result vector — the same fingerprint
/// style as `tests/engine_golden.rs`.
pub fn fnv1a_f32(xs: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Rank inputs chosen so that any change in combine order is visible
/// bitwise: mixed magnitudes make float addition order-sensitive.
pub fn order_sensitive_input(rank: usize, m: usize) -> Vec<f32> {
    (0..m)
        .map(|j| {
            let base = match (rank + j) % 4 {
                0 => 1.0e8,
                1 => 1.0,
                2 => -1.0e8,
                _ => 3.7e-5,
            };
            base + (rank as f32 + 1.0) * 0.123 + j as f32 * 0.017
        })
        .collect()
}

/// In-memory binomial-tree sum of per-rank buffers in the wire tree's
/// combine order (receiver `i` absorbs `i + gap`, gaps doubling) — the
/// bitwise reference for the dense tree collectives.
pub fn tree_reference(mut bufs: Vec<Vec<f32>>) -> Vec<f32> {
    let p = bufs.len();
    let mut gap = 1;
    while gap < p {
        let mut i = 0;
        while i + gap < p {
            let (lo, hi) = bufs.split_at_mut(i + gap);
            for (a, b) in lo[i].iter_mut().zip(&hi[0]) {
                *a += b;
            }
            i += 2 * gap;
        }
        gap *= 2;
    }
    bufs.swap_remove(0)
}

/// A deliberately broken tree reduce that merges children in **arrival
/// order** (via [`Transport::recv_any`]) instead of rank order. Float
/// addition is not associative, so its result depends on the interleaving
/// — the model checker must flag the wildcard receive as a race.
pub fn bad_reduce_arrival_order<T: Transport>(comm: &mut T, root: usize, buf: &mut [f32]) {
    let p = comm.size();
    if p == 1 {
        comm.next_op();
        return;
    }
    let op = comm.next_op();
    let tag = (op << 4) | 1;
    let vrank = (comm.rank() + p - root) % p;
    // Children/parent sets identical to the correct reduce_tree…
    let mut children = Vec::new();
    let mut bit = 1usize;
    let mut parent = None;
    while bit < p {
        if vrank & bit != 0 {
            parent = Some(((vrank & !bit) + root) % p);
            break;
        }
        let child_v = vrank | bit;
        if child_v < p {
            children.push((child_v + root) % p);
        }
        bit <<= 1;
    }
    // …but the merge happens in whatever order the messages arrive.
    let candidates: Vec<(usize, u64)> = children.iter().map(|&c| (c, tag)).collect();
    let mut outstanding = candidates.len();
    while outstanding > 0 {
        let (_, part) = comm.recv_any(&candidates).expect("arrival-order recv");
        for (a, b) in buf.iter_mut().zip(&part) {
            *a += b;
        }
        outstanding -= 1;
    }
    if let Some(par) = parent {
        comm.send(par, tag, buf.to_vec()).expect("bad-reduce send");
    }
}
