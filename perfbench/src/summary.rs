//! Per-layer numbers derived from the spans of traced training calls.
//!
//! Step, layer and sync timings come from rank 0; message and byte counts
//! from the send spans of every rank. Sync rounds are counted from
//! transport spans — `History::sync_rounds` is not read, because the
//! lockstep rank loop never assigns it.

use crate::stats::quantile;
use crate::trace::{Kind, Span};

/// The nn layer families the benchmark reports.
pub const FAMILIES: [&str; 5] = ["conv2d", "temporal_conv", "linear", "pool", "pointwise"];

fn family(layer: &str) -> usize {
    match layer {
        "Conv2d" => 0,
        "TemporalConv1d" => 1,
        "Linear" => 2,
        "MaxPool2d" | "TemporalMaxPool" | "AvgPool2d" => 3,
        // ReLU, Tanh, Dropout, Flatten, GlobalMaxOverTime, LRN.
        _ => 4,
    }
}

#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Rank-0 steps traced.
    pub steps: usize,
    pub step_ms: Vec<f64>,
    /// Per step, milliseconds per `[family][fwd, bwd]`.
    pub layer_ms: Vec<[[f64; 2]; 5]>,
    /// Rank-0 sync windows of rounds ≥ 1.
    pub sync_ms: Vec<f64>,
    /// Per round, rank 0's send and receive time.
    pub send_ms: Vec<f64>,
    pub recv_ms: Vec<f64>,
    /// Totals over rank-0 steps.
    pub step_total_ms: f64,
    pub layer_total_ms: f64,
    pub sync_total_ms: f64,
    pub recv_total_ms: f64,
    pub unattributed_total_ms: f64,
    /// Sends of rounds ≥ 1 from every rank, and their payload elements.
    pub messages: u64,
    pub elements: u64,
    /// Sends of every round (initial broadcast included), every rank.
    pub all_messages: u64,
    /// Violations of span nesting found while attributing time.
    pub errors: Vec<String>,
}

impl TraceSummary {
    pub fn rounds(&self) -> usize {
        self.sync_ms.len()
    }

    /// Fold one traced call's spans in: `rank0` from rank 0's recorder,
    /// `all` from every rank's.
    pub fn add_call(&mut self, rank0: &[Span], all: &[Vec<Span>]) {
        let mut step_of: Vec<Option<usize>> = vec![None; rank0.len()];
        let mut sync_of: Vec<Option<usize>> = vec![None; rank0.len()];
        let base = self.step_ms.len();
        for (i, sp) in rank0.iter().enumerate() {
            match sp.kind {
                Kind::Step => {
                    step_of[i] = Some(self.step_ms.len());
                    self.step_ms.push(ms(sp.dur_ns()));
                    self.layer_ms.push([[0.0; 2]; 5]);
                }
                Kind::Sync if sp.round >= 1 => {
                    sync_of[i] = Some(self.sync_ms.len());
                    self.sync_ms.push(ms(sp.dur_ns()));
                    self.send_ms.push(0.0);
                    self.recv_ms.push(0.0);
                }
                _ => {}
            }
        }
        // Per step: time covered by direct children, to find self time.
        let mut covered = vec![0.0f64; self.step_ms.len() - base];
        for sp in rank0 {
            let parent = sp.parent;
            match sp.kind {
                Kind::Fwd | Kind::Bwd => {
                    if let Some(s) = parent.and_then(|p| step_of[p]) {
                        let dir = usize::from(sp.kind == Kind::Bwd);
                        self.layer_ms[s][family(sp.name)][dir] += ms(sp.dur_ns());
                        self.layer_total_ms += ms(sp.dur_ns());
                        covered[s - base] += ms(sp.dur_ns());
                    }
                }
                Kind::Sync if sp.round >= 1 => match parent.and_then(|p| step_of[p]) {
                    Some(s) => {
                        self.sync_total_ms += ms(sp.dur_ns());
                        covered[s - base] += ms(sp.dur_ns());
                    }
                    None => self
                        .errors
                        .push(format!("sync round {} outside a step", sp.round)),
                },
                Kind::Send | Kind::Recv => {
                    if let Some(r) = parent.and_then(|p| sync_of[p]) {
                        if sp.kind == Kind::Send {
                            self.send_ms[r] += ms(sp.dur_ns());
                        } else {
                            self.recv_ms[r] += ms(sp.dur_ns());
                            self.recv_total_ms += ms(sp.dur_ns());
                        }
                    }
                }
                _ => {}
            }
        }
        for (k, &c) in covered.iter().enumerate() {
            let wall = self.step_ms[base + k];
            let own = wall - c;
            // Children are sequential on one thread, so they can never
            // cover more than their parent (allow clock rounding).
            if own < -1e-6 {
                self.errors
                    .push(format!("step {k}: children cover {c} ms of {wall} ms"));
            }
            self.step_total_ms += wall;
            self.unattributed_total_ms += own;
        }
        self.steps += self.step_ms.len() - base;
        for spans in all {
            for sp in spans.iter().filter(|s| s.kind == Kind::Send) {
                self.all_messages += 1;
                if sp.round >= 1 {
                    self.messages += 1;
                    self.elements += sp.elements;
                }
            }
        }
    }

    /// `p`-quantile over steps of one layer family and direction.
    pub fn layer_q(&self, fam: usize, dir: usize, q: f64) -> f64 {
        let v: Vec<f64> = self.layer_ms.iter().map(|s| s[fam][dir]).collect();
        quantile(&v, q)
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            kind,
            name,
            start_ns: start * 1_000_000,
            end_ns: end * 1_000_000,
            parent,
            rank: 0,
            round: u64::from(kind == Kind::Sync || kind == Kind::Send || kind == Kind::Recv),
            elements: 10,
        }
    }

    /// Two 10 ms steps; the second holds a sync round. Self time is what
    /// the layers and the sync window leave uncovered.
    #[test]
    fn step_time_splits_into_layers_sync_and_self_time() {
        let rank0 = vec![
            span(Kind::Step, "step", 0, 10, None),
            span(Kind::Fwd, "Conv2d", 0, 3, Some(0)),
            span(Kind::Bwd, "ReLU", 3, 4, Some(0)),
            span(Kind::Step, "step", 10, 20, None),
            span(Kind::Fwd, "Linear", 10, 12, Some(3)),
            span(Kind::Sync, "sync", 13, 18, Some(3)),
            span(Kind::Send, "send", 13, 14, Some(5)),
            span(Kind::Recv, "recv", 15, 18, Some(5)),
        ];
        let mut s = TraceSummary::default();
        s.add_call(&rank0, std::slice::from_ref(&rank0));
        assert_eq!(s.steps, 2);
        assert_eq!(s.rounds(), 1);
        assert_eq!(s.step_total_ms, 20.0);
        assert_eq!(s.layer_total_ms, 6.0);
        assert_eq!(s.sync_total_ms, 5.0);
        assert_eq!(s.unattributed_total_ms, 9.0);
        assert_eq!((s.send_ms[0], s.recv_ms[0]), (1.0, 3.0));
        assert_eq!((s.messages, s.all_messages, s.elements), (1, 1, 10));
        assert_eq!(s.layer_ms[0][0][0], 3.0, "conv fwd in step 0");
        assert_eq!(s.layer_ms[0][4][1], 1.0, "pointwise bwd in step 0");
        assert_eq!(s.layer_ms[1][2][0], 2.0, "linear fwd in step 1");
        assert!(s.errors.is_empty());
    }

    #[test]
    fn children_overrunning_their_step_are_reported() {
        let rank0 = vec![
            span(Kind::Step, "step", 0, 2, None),
            span(Kind::Fwd, "Linear", 0, 3, Some(0)),
        ];
        let mut s = TraceSummary::default();
        s.add_call(&rank0, &[]);
        assert_eq!(s.errors.len(), 1);
    }
}
