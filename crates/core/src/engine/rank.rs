//! The per-rank learner loops, generic over the comm substrate.
//!
//! The threaded backend spawns one thread per rank running one of three
//! loops, each written once over [`Transport`] so the *same code* drives a
//! rank whether its peers are threads in this process (in-proc crossbeam
//! endpoints), other OS processes (socket endpoints handed out by the
//! launcher), or model-checker ranks:
//!
//! * [`run_collective_rank`] — every collective strategy under either
//!   cadence. A `StepClock` decides the cadence (batch source, the γ
//!   each step uses, round boundaries from the [`SyncPolicy`], when to
//!   evaluate, when to stop); the loop only executes its ticks, with the
//!   sync-point exchange passed in as an [`EventOp`]. [`run_sasgd_rank`]
//!   is its lockstep-gradient case — the paper's Algorithm 1 with the
//!   operation order frozen (local steps, tree allreduce every `T`
//!   minibatches, `x -= γp·Σg`, rank 0 evaluating at epoch ends), so a
//!   multi-process run produces bitwise the same `final_params` as an
//!   in-process one (the launcher's integration test pins this).
//! * [`run_sasgd_ft_rank`] — lockstep SASGD over the fault-tolerant
//!   allreduce, taking its steps and γ from the same clock.
//! * [`run_ps_rank`] — the asynchronous counterpart: one Downpour or
//!   EAMSGD learner trading with parameter-server shards through a
//!   [`PsTransportClient`].
//!
//! Wire failures are typed, never panics: a collective or PS rank returns
//! [`EngineError::WireFailure`]; a fault-tolerant rank that *can* degrade
//! (evicted, or orphaned while rank 0 still coordinates) retires into
//! [`History::retirements`] instead.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sasgd_comm::collectives::{allreduce_tree, broadcast};
use sasgd_comm::fault::FaultPlan;
use sasgd_comm::ft::{ft_allreduce, FtError, Membership};
use sasgd_comm::ps_transport::{PsTransportClient, PsTransportError};
use sasgd_comm::sparse::{
    q8_allreduce_tree, sparse_allreduce_tree_v2, SparseLevelProfile, SparseTreeOpts, SparseVec,
};
use sasgd_comm::transport::Transport;
use sasgd_comm::world::CommError;
use sasgd_data::{Dataset, Shard};
use sasgd_nn::Model;
use sasgd_tensor::SeedRng;

use super::{delta_sq_norm, BatchStream, EngineError};
use crate::algorithms::GammaP;
use crate::compress::{Compression, KState};
use crate::history::{History, MembershipEvent, RetirementEvent, StalenessStats};
use crate::schedule::SyncPolicy;
use crate::trainer::{EvalSets, Learner, TrainConfig};

/// Everything a single SASGD rank needs besides its endpoint, model and
/// data shard. One spec is built per rank (it owns its label); every
/// field must be identical across ranks for the collectives to line up.
pub struct SasgdRankSpec<'a> {
    /// Full training set (rank 0 evaluates against it).
    pub train_set: &'a Dataset,
    /// Test set (rank 0 only).
    pub test_set: &'a Dataset,
    /// Shared training configuration.
    pub cfg: &'a TrainConfig,
    /// World size.
    pub p: usize,
    /// Aggregation interval `T`.
    pub t: usize,
    /// Global-rate policy.
    pub gamma_p: GammaP,
    /// Optional gradient compression.
    pub compression: Option<Compression>,
    /// History label.
    pub label: String,
    /// Lockstep steps per epoch — `min` over all shards, computed once by
    /// the caller so every rank truncates identically.
    pub steps_per_epoch: usize,
}

fn wire_failure(rank: usize, round: u64, e: impl std::fmt::Display) -> EngineError {
    EngineError::WireFailure {
        rank,
        round,
        detail: e.to_string(),
    }
}

/// One rank of plain (optionally compressed) SASGD over any transport —
/// the lockstep-gradient case of [`run_collective_rank`]. Returns this
/// rank's [`History`]; only rank 0's carries epoch records.
pub fn run_sasgd_rank<T: Transport>(
    comm: &mut T,
    model: Model,
    shard: &Shard,
    spec: &SasgdRankSpec<'_>,
) -> Result<History, EngineError> {
    let collective = CollectiveRankSpec {
        train_set: spec.train_set,
        test_set: spec.test_set,
        cfg: spec.cfg,
        p: spec.p,
        label: spec.label.clone(),
        clock: ClockSpec::Lockstep {
            steps_per_epoch: Some(spec.steps_per_epoch),
        },
        policy: SyncPolicy::fixed(spec.t),
        collective_tau: 0,
        history_interval: spec.t,
    };
    let op = EventOp::Gradient {
        gamma_p: spec.gamma_p,
        compression: spec.compression,
    };
    run_collective_rank(comm, model, shard, &collective, op)
}

/// One rank of fault-tolerant SASGD over any transport. Graceful paths:
///
/// * **eviction** — survivors confirmed this rank lost (e.g. it stalled
///   past the deadline): retire quietly, recording a
///   [`RetirementEvent`], rather than diverge;
/// * **any other wire failure on a non-coordinator** — the rank cannot
///   rejoin, but the run does not need it: retire the same way;
/// * **a wire failure on the recovery coordinator (rank 0)** — nothing
///   can degrade around the coordinator, so this is the one path that
///   returns [`EngineError::WireFailure`].
pub fn run_sasgd_ft_rank<T: Transport>(
    comm: &mut T,
    model: Model,
    shard: &Shard,
    spec: &SasgdRankSpec<'_>,
    plan: &FaultPlan,
    deadline: Duration,
) -> Result<History, EngineError> {
    let rank = comm.rank();
    let cfg = spec.cfg;
    let crash_at = plan.crash_step(rank);
    let mut membership = Membership::new(spec.p);
    let mut learner = Learner::new(rank, model, cfg);
    let mut x = learner.model.param_vector();
    broadcast(comm, 0, &mut x).map_err(|e| wire_failure(rank, 0, e))?;
    learner.model.write_params(&x);
    let evals = (rank == 0).then(|| EvalSets::prepare(spec.train_set, spec.test_set, cfg.eval_cap));
    let mut history = History::new(spec.label.clone(), spec.p, spec.t);
    let clock_spec = ClockSpec::Lockstep {
        steps_per_epoch: Some(spec.steps_per_epoch),
    };
    let n = spec.train_set.len();
    let policy = SyncPolicy::fixed(spec.t);
    let mut clock = StepClock::new(clock_spec, false, shard, cfg, spec.p, n, policy);
    let mut compute_s = 0.0f64;
    let mut comm_s = 0.0f64;
    let mut gstep = 0u64;
    while let Some(tick) = clock.next(&mut learner.rng) {
        match tick {
            Tick::Step { idx, gamma } => {
                gstep += 1;
                // Faults fire only at step boundaries (never inside a
                // collective), so degraded runs replay bitwise.
                if crash_at.is_some_and(|s| gstep >= s) {
                    // Crash: stop participating. Dropping the comm endpoint
                    // on return is what survivors detect.
                    break;
                }
                if let Some(stall) = plan.stall_at(rank, gstep) {
                    std::thread::sleep(stall);
                }
                let t0 = Instant::now();
                learner.local_step(spec.train_set, &idx, gamma, 0.0, 1.0);
                compute_s += t0.elapsed().as_secs_f64();
            }
            Tick::Sync { round, gamma } => {
                let t1 = Instant::now();
                history.sync_rounds = round;
                let outcome = match ft_allreduce(comm, &mut membership, &mut learner.gs, deadline) {
                    Ok(o) => o,
                    // Evicted (survivors confirmed this rank lost, e.g. it
                    // stalled past the deadline), or the wire failed under
                    // a rank the run does not need: retire quietly instead
                    // of diverging or panicking the world.
                    Err(e) if rank != 0 || matches!(e, FtError::Evicted { .. }) => {
                        history.retirements.push(RetirementEvent {
                            rank,
                            round,
                            reason: e.to_string(),
                        });
                        break;
                    }
                    // Rank 0 is the recovery coordinator; nothing can
                    // degrade around it.
                    Err(e) => return Err(wire_failure(rank, round, e)),
                };
                // Graceful degradation: γp rescales to the survivor count
                // (= p on a clean round, so the fault-free trajectory
                // matches run_sasgd_rank).
                let gp = spec.gamma_p.resolve(gamma, membership.len());
                global_step(&mut x, gp, &learner.gs);
                learner.model.write_params(&x);
                learner.gs.iter_mut().for_each(|g| *g = 0.0);
                let elapsed = t1.elapsed().as_secs_f64();
                comm_s += elapsed;
                if rank == 0 && !outcome.lost.is_empty() {
                    history.membership.push(MembershipEvent {
                        round,
                        epoch: outcome.epoch,
                        lost: outcome.lost.clone(),
                        survivors: membership.len(),
                        gamma_p: gp,
                        recovery_seconds: elapsed,
                    });
                }
            }
            Tick::EpochEnd { .. } => {}
            Tick::Eval { epoch } => {
                if let Some(ev) = &evals {
                    let samples = clock.samples() * membership.len() as u64;
                    let rec = ev.record(&mut learner.model, epoch, compute_s, comm_s, samples);
                    history.records.push(rec);
                }
            }
        }
    }
    history.final_params = Some(learner.model.param_vector());
    Ok(history)
}

/// How a rank's `StepClock` paces it — everything that differs between the
/// two cadences of the collective loop.
#[derive(Clone, Copy, Debug)]
pub enum ClockSpec {
    /// Bulk-synchronous epochs (the paper's Algorithm 1): each epoch's
    /// batch order is drawn from the shard at the epoch's start, γ moves
    /// every step (independent learners — the [`EventOp::EpochAverage`]
    /// exchange — hold the epoch-start γ instead), a round ends every `T`
    /// steps (rounds straddle epoch ends), and rank 0 evaluates at every
    /// epoch end.
    Lockstep {
        /// Truncate every epoch to this many steps — the smallest shard's
        /// whole-minibatch count, computed once by the caller so every
        /// rank truncates identically. `None` walks the full shard,
        /// ragged tail included.
        steps_per_epoch: Option<usize>,
    },
    /// Free-running rounds over an endless reshuffled batch stream: one γ
    /// per round from nominal system progress, `T` steps per round (or
    /// `epoch_block` when `T = 0`, each such round counting as an epoch),
    /// and rank 0 evaluates whenever its shard pass completes.
    EventDriven {
        /// Round size for never-syncing strategies (`T = 0`): the smallest
        /// shard's whole-minibatch count, computed once by the caller.
        epoch_block: usize,
    },
}

/// One thing a rank loop does next, in program order.
pub(crate) enum Tick {
    /// One local minibatch at rate `gamma`.
    Step { idx: Vec<usize>, gamma: f32 },
    /// A round boundary: the sync-point exchange of round `round`
    /// (1-based) at the round's γ.
    Sync { round: u64, gamma: f32 },
    /// The end of epoch `epoch` (1-based).
    EpochEnd { epoch: usize },
    /// Rank 0 records an evaluation at `epoch` on the x axis.
    Eval { epoch: f64 },
}

/// The cadence of one rank, as a stream of [`Tick`]s. It owns the batch
/// source, the γ each step uses, the round boundaries (from the
/// [`SyncPolicy`]), when to evaluate and when to stop, so the rank loops
/// only execute ticks. Every decision is a function of rank-invariant
/// state and this rank's own RNG stream, so all ranks of a run agree on
/// the round structure without a coordinator.
pub(crate) struct StepClock<'a> {
    pace: Pace<'a>,
    cfg: &'a TrainConfig,
    p: usize,
    n: usize,
    policy: SyncPolicy,
    ticks: VecDeque<Tick>,
    /// Own-shard samples consumed so far.
    samples: u64,
    rounds: u64,
    /// `samples` at the last evaluation.
    evaluated_at: Option<u64>,
    done: bool,
}

/// Where a [`StepClock`] stands: the current epoch's remaining batches
/// (lockstep), or the batch stream and the round in progress
/// (event-driven).
enum Pace<'a> {
    Lockstep {
        shard: &'a Shard,
        steps_per_epoch: Option<usize>,
        /// Hold the epoch-start γ for the whole epoch.
        epoch_start_gamma: bool,
        epoch: usize,
        batches: std::vec::IntoIter<Vec<usize>>,
        steps: usize,
        since_sync: usize,
    },
    EventDriven {
        stream: BatchStream,
        epoch_block: usize,
        /// Interval, steps left and γ of the round in progress.
        t: usize,
        left: usize,
        gamma: f32,
        /// Nominal per-rank steps, the same on every rank.
        steps_done: u64,
        epochs_done: usize,
        passes: u64,
    },
}

impl<'a> StepClock<'a> {
    pub(crate) fn new(
        spec: ClockSpec,
        epoch_start_gamma: bool,
        shard: &'a Shard,
        cfg: &'a TrainConfig,
        p: usize,
        n: usize,
        policy: SyncPolicy,
    ) -> Self {
        let (pace, done) = match spec {
            ClockSpec::Lockstep { steps_per_epoch } => {
                let batches = Vec::new().into_iter();
                let pace = Pace::Lockstep {
                    shard,
                    steps_per_epoch,
                    epoch_start_gamma,
                    epoch: 0,
                    batches,
                    steps: 0,
                    since_sync: 0,
                };
                (pace, cfg.epochs == 0)
            }
            ClockSpec::EventDriven { epoch_block } => {
                let stream = BatchStream::new(shard.indices().to_vec(), cfg.batch_size);
                let pace = Pace::EventDriven {
                    stream,
                    epoch_block,
                    t: 0,
                    left: 0,
                    gamma: 0.0,
                    steps_done: 0,
                    epochs_done: 0,
                    passes: 0,
                };
                (pace, false)
            }
        };
        StepClock {
            pace,
            cfg,
            p,
            n,
            policy,
            ticks: VecDeque::new(),
            samples: 0,
            rounds: 0,
            evaluated_at: None,
            done,
        }
    }

    /// Fractional epoch fed to the γ schedule at lockstep step `step` of
    /// `steps` in epoch `epoch` (1-based) — shared with the simulated
    /// backend so both resolve the identical rate.
    pub(crate) fn lockstep_epoch(
        epoch_start_gamma: bool,
        epoch: usize,
        step: usize,
        steps: usize,
    ) -> f64 {
        let start = (epoch - 1) as f64;
        if epoch_start_gamma {
            start
        } else {
            start + step as f64 / steps as f64
        }
    }

    /// Fractional collective epoch fed to the γ schedule for an
    /// event-driven round: nominal system-wide progress after `steps_done`
    /// per-rank steps of `batch` samples across `p` ranks over an
    /// `n`-sample dataset. Rank-independent by construction, so every rank
    /// resolves the same γ for a given round on either backend.
    pub(crate) fn round_epoch(steps_done: u64, batch: usize, p: usize, n: usize) -> f64 {
        (steps_done * batch as u64 * p as u64) as f64 / n as f64
    }

    /// The next tick, or `None` once the run is over. `rng` is the rank's
    /// batch-order and dropout stream: a lockstep epoch draws its whole
    /// batch order before its first step, an event-driven batch is drawn
    /// just before its step.
    pub(crate) fn next(&mut self, rng: &mut SeedRng) -> Option<Tick> {
        while self.ticks.is_empty() && !self.done {
            self.advance(rng);
        }
        self.ticks.pop_front()
    }

    /// Feed the end-of-round signal of the exchange just run to the sync
    /// policy (adaptive intervals take effect from the next round).
    pub(crate) fn observe_round(&mut self, signal: Option<f32>) {
        self.policy.observe_round(signal);
    }

    /// Own-shard samples consumed so far.
    pub(crate) fn samples(&self) -> u64 {
        self.samples
    }

    /// Queue the next step and whatever boundaries it closes.
    fn advance(&mut self, rng: &mut SeedRng) {
        let cfg = self.cfg;
        let (idx, gamma, round_end, epoch_end, eval);
        match &mut self.pace {
            Pace::Lockstep {
                shard,
                steps_per_epoch,
                epoch_start_gamma,
                epoch,
                batches,
                steps,
                since_sync,
            } => {
                if batches.len() == 0 {
                    *epoch += 1;
                    let order = shard.epoch_iter(cfg.batch_size, rng);
                    let next: Vec<Vec<usize>> = match *steps_per_epoch {
                        Some(cap) => order.take(cap).collect(),
                        None => order.collect(),
                    };
                    *steps = next.len();
                    *batches = next.into_iter();
                }
                let step = *steps - batches.len();
                let at = Self::lockstep_epoch(*epoch_start_gamma, *epoch, step, *steps);
                idx = batches.next();
                gamma = if idx.is_some() { cfg.gamma_at(at) } else { 0.0 };
                *since_sync += usize::from(idx.is_some());
                let t = self.policy.current_t();
                round_end = t >= 1 && *since_sync >= t;
                if round_end {
                    *since_sync = 0;
                }
                epoch_end = (batches.len() == 0).then_some(*epoch);
                eval = epoch_end.map(|e| e as f64);
                self.done = epoch_end.is_some_and(|e| e >= cfg.epochs);
            }
            Pace::EventDriven {
                stream,
                epoch_block,
                t,
                left,
                gamma: round_gamma,
                steps_done,
                epochs_done,
                passes,
            } => {
                if *left == 0 {
                    // γ for the whole round, resolved from nominal progress
                    // *before* the round.
                    *t = self.policy.current_t();
                    *left = if *t >= 1 { *t } else { *epoch_block };
                    let at = Self::round_epoch(*steps_done, cfg.batch_size, self.p, self.n);
                    *round_gamma = cfg.gamma_at(at);
                }
                idx = Some(stream.next(rng));
                gamma = *round_gamma;
                *left -= 1;
                *steps_done += 1;
                let closed = *left == 0;
                round_end = closed && *t >= 1;
                epoch_end = (closed && *t == 0).then(|| {
                    *epochs_done += 1;
                    *epochs_done
                });
                // Rank 0 evaluates at the first round end after each
                // completed pass over its shard.
                let pass = closed && stream.completed_passes() > *passes;
                if pass {
                    *passes = stream.completed_passes();
                }
                let len = idx.as_ref().map_or(0, Vec::len) as u64;
                eval = pass.then(|| Self::progress(self.samples + len, self.p, self.n));
                if closed {
                    self.done = if *t >= 1 {
                        let target = (cfg.epochs as u64) * (self.n as u64);
                        *steps_done * (cfg.batch_size as u64) * (self.p as u64) >= target
                    } else {
                        *epochs_done >= cfg.epochs
                    };
                }
            }
        }
        if let Some(idx) = idx {
            self.samples += idx.len() as u64;
            self.ticks.push_back(Tick::Step { idx, gamma });
        }
        if round_end {
            self.rounds += 1;
            let round = self.rounds;
            self.ticks.push_back(Tick::Sync { round, gamma });
        }
        if let Some(epoch) = epoch_end {
            self.ticks.push_back(Tick::EpochEnd { epoch });
        }
        // Every run ends on an evaluation of its final state.
        let last = self.done && self.evaluated_at != Some(self.samples);
        let eval = eval.or_else(|| last.then(|| Self::progress(self.samples, self.p, self.n)));
        if let Some(epoch) = eval {
            self.ticks.push_back(Tick::Eval { epoch });
            self.evaluated_at = Some(self.samples);
        }
    }

    /// Collective epochs of progress after `samples` own-shard samples.
    fn progress(samples: u64, p: usize, n: usize) -> f64 {
        samples as f64 * p as f64 / n as f64
    }
}

/// The sync-point exchange of [`run_collective_rank`]: what a round's
/// rendezvous (or an epoch end) does on the wire. `T` is the rank's
/// transport type, which the hierarchical op's group endpoints share.
pub enum EventOp<T> {
    /// No communication at all (sequential SGD).
    LocalOnly,
    /// Rank-order gather-average of the parameters to rank 0 at every
    /// epoch end (one-shot model averaging). Rank 0 passes the replica it
    /// writes the running average into and evaluates; other ranks `None`.
    EpochAverage {
        /// Rank 0's averaging replica.
        replica: Option<Model>,
    },
    /// Tree allreduce of the accumulated gradients plus the global step
    /// `x ← x − γp·Σg` (SASGD, optionally compressed with error feedback).
    Gradient {
        /// Global-rate policy.
        gamma_p: GammaP,
        /// Optional gradient compression.
        compression: Option<Compression>,
    },
    /// Tree allreduce of the parameters scaled by `1/p` (Local SGD).
    ParamAverage,
    /// Parameter average applied one round late, so the allreduce of round
    /// `k` overlaps the compute of round `k+1` (DaSGD).
    DelayedAverage,
    /// Two-level SASGD: every round a group allreduce of the accumulated
    /// gradients plus the group step at `γp` over the group size; every
    /// `t_global` rounds the group copies are averaged among the group
    /// leaders and broadcast back down the group.
    Hierarchical {
        /// Local rounds between leader averages.
        t_global: usize,
        /// Group-rate policy (resolved over the group size).
        gamma_p: GammaP,
        /// Endpoint among this rank's group members.
        local: T,
        /// Endpoint among the group leaders (local rank 0 only).
        leaders: Option<T>,
    },
}

/// Everything one collective rank needs besides its endpoint, model, data
/// shard and exchange. Every field except `label` must be identical across
/// ranks: the round structure (`clock`, `policy`) and the γ of each step
/// are resolved independently per rank and must agree for the collectives
/// to line up.
pub struct CollectiveRankSpec<'a> {
    /// Full training set (rank 0 evaluates against it).
    pub train_set: &'a Dataset,
    /// Test set (rank 0 only).
    pub test_set: &'a Dataset,
    /// Shared training configuration.
    pub cfg: &'a TrainConfig,
    /// World size.
    pub p: usize,
    /// History label.
    pub label: String,
    /// The cadence.
    pub clock: ClockSpec,
    /// This strategy's T schedule; each rank advances its own copy on
    /// identical signals, so the copies never diverge.
    pub policy: SyncPolicy,
    /// Staleness the strategy imposes by construction (1 for DaSGD).
    pub collective_tau: u64,
    /// Aggregation interval reported in [`History`].
    pub history_interval: usize,
}

/// One rank of the shared collective loop over any transport: execute the
/// `StepClock`'s ticks — local steps, the `op` exchange at every round
/// boundary or epoch end, rank 0's evaluations. Under the lockstep clock
/// this is Algorithm 1 and its lockstep relatives; under the event-driven
/// clock it is the threaded mirror of the simulated collective event
/// engine. Because each step touches only rank-local state and γ never
/// depends on completion interleaving, `final_params` are bitwise the
/// simulated backend's for every op except hierarchical with more than
/// one group (level 2 averages through a tree here, in rank order there).
pub fn run_collective_rank<T: Transport>(
    comm: &mut T,
    model: Model,
    shard: &Shard,
    spec: &CollectiveRankSpec<'_>,
    op: EventOp<T>,
) -> Result<History, EngineError> {
    let rank = comm.rank();
    let cfg = spec.cfg;
    let p = spec.p;
    let mut learner = Learner::new(rank, model, cfg);
    let mut exchange = Exchange::setup(op, comm, &mut learner)?;
    let evals = (rank == 0).then(|| EvalSets::prepare(spec.train_set, spec.test_set, cfg.eval_cap));
    let mut history = History::new(spec.label.clone(), p, spec.history_interval);
    let n = spec.train_set.len();
    // Independent learners (one-shot averaging) hold the epoch-start γ.
    let epoch_gamma = matches!(exchange.op, EventOp::EpochAverage { .. });
    let policy = spec.policy.clone();
    let mut clock = StepClock::new(spec.clock, epoch_gamma, shard, cfg, p, n, policy);
    let mut compute_s = 0.0f64;
    let mut comm_s = 0.0f64;
    while let Some(tick) = clock.next(&mut learner.rng) {
        match tick {
            Tick::Step { idx, gamma } => {
                let t0 = Instant::now();
                learner.local_step(spec.train_set, &idx, gamma, 0.0, 1.0);
                if !exchange.keeps_gs() {
                    learner.gs.iter_mut().for_each(|g| *g = 0.0);
                }
                compute_s += t0.elapsed().as_secs_f64();
            }
            Tick::Sync { round, gamma } => {
                let t1 = Instant::now();
                history.sync_rounds = round;
                let signal = exchange.sync(comm, &mut learner, p, gamma, round, &mut history)?;
                comm_s += t1.elapsed().as_secs_f64();
                clock.observe_round(signal);
                if rank == 0 {
                    for id in 0..p {
                        history.push_staleness(round - 1, id, spec.collective_tau, gamma);
                    }
                }
            }
            Tick::EpochEnd { epoch } => {
                let t1 = Instant::now();
                exchange.epoch_end(comm, &learner, p, epoch)?;
                comm_s += t1.elapsed().as_secs_f64();
            }
            Tick::Eval { epoch } => {
                if let Some(ev) = &evals {
                    let model = exchange.eval_model(&mut learner);
                    let samples = clock.samples() * p as u64;
                    let rec = ev.record(model, epoch, compute_s, comm_s, samples);
                    history.records.push(rec);
                }
            }
        }
    }
    history.final_params = Some(exchange.final_params(&learner));
    Ok(history)
}

/// An [`EventOp`] with the buffers it needs, allocated for that op only.
struct Exchange<T> {
    op: EventOp<T>,
    /// The parameters as of the last exchange: the global (or group)
    /// parameters of the gradient ops, the last average of Local SGD, the
    /// local parameters DaSGD's pending average was taken at. Starts as
    /// the run's initial parameters; empty for ops that never exchange.
    x: Vec<f32>,
    /// Gradient compression with its error-feedback state.
    codec: Option<Codec>,
    /// DaSGD: the average that lands next round.
    pending: Option<Vec<f32>>,
    /// Hierarchical: rounds since the last leader average.
    local_rounds: usize,
}

/// A compression scheme with its adaptive-k state and residual.
struct Codec {
    comp: Compression,
    kstate: KState,
    residual: Vec<f32>,
}

impl<T: Transport> Exchange<T> {
    /// Allocate `op`'s buffers. The gradient-shaped ops start from rank
    /// 0's parameters (Algorithm 1's broadcast); the averaging ops start
    /// from the factory's identical replicas, like their simulated
    /// strategies.
    fn setup(op: EventOp<T>, comm: &mut T, learner: &mut Learner) -> Result<Self, EngineError> {
        let x = match op {
            EventOp::LocalOnly | EventOp::EpochAverage { .. } => Vec::new(),
            EventOp::ParamAverage | EventOp::DelayedAverage => learner.model.param_vector(),
            EventOp::Gradient { .. } | EventOp::Hierarchical { .. } => {
                let mut x = learner.model.param_vector();
                broadcast(comm, 0, &mut x).map_err(|e| wire_failure(comm.rank(), 0, e))?;
                learner.model.write_params(&x);
                x
            }
        };
        let codec = match op {
            EventOp::Gradient {
                compression: Some(comp),
                ..
            } => {
                let blocks = match comp {
                    Compression::Sparse { .. } => learner.model.param_blocks(),
                    _ => Vec::new(),
                };
                Some(Codec {
                    comp,
                    kstate: KState::new(&comp, blocks),
                    residual: vec![0.0; x.len()],
                })
            }
            _ => None,
        };
        Ok(Exchange {
            op,
            x,
            codec,
            pending: None,
            local_rounds: 0,
        })
    }

    /// Whether the op consumes the accumulated gradient `gs` (the others
    /// clear it every step).
    fn keeps_gs(&self) -> bool {
        matches!(
            self.op,
            EventOp::Gradient { .. } | EventOp::Hierarchical { .. }
        )
    }

    /// Round `round`'s rendezvous at rate `gamma`. Returns the end-of-round
    /// signal the sync policy adapts on (Local SGD's displacement norm).
    fn sync(
        &mut self,
        comm: &mut T,
        learner: &mut Learner,
        p: usize,
        gamma: f32,
        round: u64,
        history: &mut History,
    ) -> Result<Option<f32>, EngineError> {
        let rank = comm.rank();
        let fail = |e: CommError| wire_failure(rank, round, e);
        let x = &mut self.x;
        match &mut self.op {
            EventOp::LocalOnly | EventOp::EpochAverage { .. } => {}
            EventOp::Gradient { gamma_p, .. } => {
                let gp = gamma_p.resolve(gamma, p);
                match &mut self.codec {
                    None => {
                        allreduce_tree(comm, &mut learner.gs).map_err(fail)?;
                        global_step(x, gp, &learner.gs);
                    }
                    Some(c) => {
                        let total = compressed_allreduce(
                            comm,
                            c.comp,
                            &learner.gs,
                            &mut c.residual,
                            &mut c.kstate,
                            history,
                            round,
                        )?;
                        global_step(x, gp, &total);
                    }
                }
                learner.model.write_params(x);
                learner.gs.iter_mut().for_each(|g| *g = 0.0);
            }
            EventOp::ParamAverage => {
                let mut buf = learner.model.param_vector();
                allreduce_tree(comm, &mut buf).map_err(fail)?;
                let inv = 1.0 / p as f32;
                buf.iter_mut().for_each(|v| *v *= inv);
                learner.model.write_params(&buf);
                let signal = delta_sq_norm(&buf, x);
                *x = buf;
                return Ok(Some(signal));
            }
            EventOp::DelayedAverage => {
                // Average of the *pre-application* parameters; the
                // round-(k−1) average lands now, re-based onto the local
                // progress made since its snapshot.
                let cur = learner.model.param_vector();
                let mut buf = cur.clone();
                allreduce_tree(comm, &mut buf).map_err(fail)?;
                let inv = 1.0 / p as f32;
                buf.iter_mut().for_each(|v| *v *= inv);
                *x = match self.pending.replace(buf) {
                    Some(prev) => {
                        let applied = rebase(&prev, &cur, x);
                        learner.model.write_params(&applied);
                        applied
                    }
                    None => cur,
                };
            }
            EventOp::Hierarchical {
                t_global,
                gamma_p,
                local,
                leaders,
            } => {
                // Level 1: group allreduce of gs, group step.
                let gp = gamma_p.resolve(gamma, local.size());
                allreduce_tree(local, &mut learner.gs).map_err(fail)?;
                global_step(x, gp, &learner.gs);
                learner.gs.iter_mut().for_each(|g| *g = 0.0);
                self.local_rounds += 1;
                if self.local_rounds == *t_global {
                    // Level 2: average the group copies among the leaders,
                    // broadcast down the group.
                    if let Some(leaders) = leaders.as_mut() {
                        allreduce_tree(leaders, x).map_err(fail)?;
                        let inv = 1.0 / leaders.size() as f32;
                        x.iter_mut().for_each(|v| *v *= inv);
                    }
                    broadcast(local, 0, x).map_err(fail)?;
                    self.local_rounds = 0;
                }
                learner.model.write_params(x);
            }
        }
        Ok(None)
    }

    /// The end of epoch `epoch`: one-shot averaging gathers the parameters
    /// to rank 0 in rank order (the simulated strategy's accumulation
    /// order) and refreshes its evaluation replica.
    fn epoch_end(
        &mut self,
        comm: &mut T,
        learner: &Learner,
        p: usize,
        epoch: usize,
    ) -> Result<(), EngineError> {
        let EventOp::EpochAverage { replica } = &mut self.op else {
            return Ok(());
        };
        let rank = comm.rank();
        let fail = |e: CommError| wire_failure(rank, epoch as u64, e);
        let gather_tag = (comm.next_op() << 4) | 2;
        let own = learner.model.param_vector();
        match replica {
            Some(replica) => {
                let mut avg = vec![0.0f32; own.len()];
                let mut add = |v: &[f32]| {
                    for (a, &b) in avg.iter_mut().zip(v) {
                        *a += b / p as f32;
                    }
                };
                add(&own);
                for r in 1..p {
                    add(&comm.recv(r, gather_tag).map_err(fail)?);
                }
                replica.write_params(&avg);
            }
            None => comm.send(0, gather_tag, own).map_err(fail)?,
        }
        Ok(())
    }

    /// The model rank 0 evaluates.
    fn eval_model<'m>(&'m mut self, learner: &'m mut Learner) -> &'m mut Model {
        match &mut self.op {
            EventOp::EpochAverage {
                replica: Some(replica),
            } => replica,
            _ => &mut learner.model,
        }
    }

    /// The parameters reported in [`History::final_params`].
    fn final_params(&self, learner: &Learner) -> Vec<f32> {
        let cur = learner.model.param_vector();
        match (&self.op, &self.pending) {
            (
                EventOp::EpochAverage {
                    replica: Some(replica),
                },
                _,
            ) => replica.param_vector(),
            // A pending average that never landed is flushed into the
            // final parameters, exactly like the simulated strategy.
            (_, Some(prev)) => rebase(prev, &cur, &self.x),
            _ => cur,
        }
    }
}

/// `x ← x − γp·g`.
fn global_step(x: &mut [f32], gp: f32, g: &[f32]) {
    for (xi, &gi) in x.iter_mut().zip(g) {
        *xi -= gp * gi;
    }
}

/// A delayed average `avg` re-based onto the local progress `cur − snap`
/// made since it was taken.
fn rebase(avg: &[f32], cur: &[f32], snap: &[f32]) -> Vec<f32> {
    avg.iter()
        .zip(cur)
        .zip(snap)
        .map(|((&a, &c), &s0)| a + (c - s0))
        .collect()
}

/// How an asynchronous learner trades with the parameter server.
#[derive(Clone, Copy, Debug)]
pub enum PsExchange {
    /// Downpour: `T` plain SGD steps accumulate `Σg`; push `−γ·Σg`, then
    /// pull fresh parameters.
    Downpour,
    /// EAMSGD: `T` momentum steps on the local replica; pull the center
    /// `x̃`, retreat `α(x − x̃)` toward it and push that elastic
    /// difference.
    Eamsgd {
        /// Moving rate `α`.
        alpha: f32,
        /// Local momentum `δ`.
        momentum: f32,
    },
}

impl PsExchange {
    /// EAMSGD with moving rate `moving_rate` (default `0.9/p`) and
    /// momentum `momentum`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ momentum < 1` and `0 < α ≤ 1`.
    pub fn eamsgd(p: usize, moving_rate: Option<f32>, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        let alpha = moving_rate.unwrap_or(0.9 / p as f32);
        assert!(alpha > 0.0 && alpha <= 1.0, "moving rate out of range");
        PsExchange::Eamsgd { alpha, momentum }
    }
}

/// Everything a parameter-server learner needs besides its client,
/// model and data shard.
pub struct PsRankSpec<'a> {
    /// Full training set (rank 0 evaluates against it).
    pub train_set: &'a Dataset,
    /// Test set (rank 0 only).
    pub test_set: &'a Dataset,
    /// Shared training configuration.
    pub cfg: &'a TrainConfig,
    /// Learner count.
    pub p: usize,
    /// Local steps between exchanges.
    pub t: usize,
    /// History label.
    pub label: String,
    /// Downpour or EAMSGD.
    pub exchange: PsExchange,
    /// Scale each exchange's rate (`γ`, or `α`) by `1/(1+τ)`.
    pub staleness_gamma: bool,
}

/// One asynchronous parameter-server learner (Downpour or EAMSGD) over
/// any transport: pull `x0`, then `T` local steps and one exchange per
/// round until this learner's share of `epochs·n` samples is consumed.
/// Rank 0 records an epoch whenever its shard pass completes.
///
/// τ is *measured*: `exchanges` is shared by every learner of the run,
/// and an exchange's τ is how many exchanges (any learner's, this one's
/// included — `fetch_add` returns the pre-increment count) the server
/// absorbed since this learner's last pull. Rank 0's observations land in
/// [`History::staleness_series`].
///
/// A failed add or pull is [`EngineError::WireFailure`] naming this rank
/// and the round (`0` for the initial pull), never a panic.
pub fn run_ps_rank<T: Transport>(
    client: &mut PsTransportClient<T>,
    model: Model,
    shard: &Shard,
    spec: &PsRankSpec<'_>,
    exchanges: &AtomicU64,
) -> Result<History, EngineError> {
    let rank = client.rank();
    let cfg = spec.cfg;
    let (p, n) = (spec.p, spec.train_set.len());
    let target = (cfg.epochs * n).div_ceil(p);
    let failure = |round: u64, e: PsTransportError| EngineError::WireFailure {
        rank,
        round,
        detail: e.to_string(),
    };
    let mut learner = Learner::new(rank, model, cfg);
    let x0 = client.pull().map_err(|e| failure(0, e))?;
    learner.model.write_params(&x0);
    let mut seen = exchanges.load(Ordering::SeqCst);
    let mut velocity = match spec.exchange {
        PsExchange::Eamsgd { .. } => vec![0.0f32; x0.len()],
        PsExchange::Downpour => Vec::new(),
    };
    let evals = (rank == 0).then(|| EvalSets::prepare(spec.train_set, spec.test_set, cfg.eval_cap));
    let mut history = History::new(spec.label.clone(), p, spec.t);
    let mut stream = BatchStream::new(shard.indices().to_vec(), cfg.batch_size);
    let mut samples = 0usize;
    let mut compute_s = 0.0f64;
    let mut comm_s = 0.0f64;
    let mut recorded = 0u64;
    let mut round = 0u64;
    let mut staleness_obs: Vec<u64> = Vec::new();
    while samples < target {
        // Schedule γ by estimated collective progress.
        let gamma_now = cfg.gamma_at(samples as f64 * p as f64 / n as f64);
        let t0 = Instant::now();
        for _ in 0..spec.t {
            let idx = stream.next(&mut learner.rng);
            samples += idx.len();
            match spec.exchange {
                PsExchange::Downpour => {
                    learner.local_step(spec.train_set, &idx, gamma_now, 0.0, 1.0);
                }
                PsExchange::Eamsgd { momentum, .. } => {
                    // One momentum-SGD step on the local replica — same
                    // arithmetic as the simulated strategy.
                    let (g, _) = learner.compute_gradient(spec.train_set, &idx);
                    let mut params = learner.model.param_vector();
                    for ((vi, pi), &gi) in velocity.iter_mut().zip(params.iter_mut()).zip(&g) {
                        *vi = momentum * *vi - gamma_now * gi;
                        *pi += *vi;
                    }
                    learner.model.write_params(&params);
                }
            }
        }
        compute_s += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        round += 1;
        let tau = exchanges.fetch_add(1, Ordering::SeqCst) - seen;
        let scaled = |rate: f32| {
            if spec.staleness_gamma {
                rate / (1.0 + tau as f32) // lint:allow(float-cast)
            } else {
                rate
            }
        };
        let rate = match spec.exchange {
            PsExchange::Downpour => {
                // The server applies the push whenever it lands relative
                // to the other learners.
                let gamma_eff = scaled(gamma_now);
                let delta: Vec<f32> = learner.gs.iter().map(|g| -gamma_eff * g).collect();
                client.add(&delta).map_err(|e| failure(round, e))?;
                learner.gs.iter_mut().for_each(|g| *g = 0.0);
                let fresh = client.pull().map_err(|e| failure(round, e))?;
                seen = exchanges.load(Ordering::SeqCst);
                learner.model.write_params(&fresh);
                gamma_eff
            }
            PsExchange::Eamsgd { alpha, .. } => {
                let alpha_eff = scaled(alpha);
                let center = client.pull().map_err(|e| failure(round, e))?;
                seen = exchanges.load(Ordering::SeqCst);
                let mut params = learner.model.param_vector();
                let mut diff = vec![0.0f32; params.len()];
                for ((pi, &ci), di) in params.iter_mut().zip(&center).zip(diff.iter_mut()) {
                    *di = alpha_eff * (*pi - ci);
                    *pi -= *di;
                }
                learner.model.write_params(&params);
                client.add(&diff).map_err(|e| failure(round, e))?;
                alpha_eff
            }
        };
        comm_s += t1.elapsed().as_secs_f64();
        if let Some(ev) = &evals {
            history.push_staleness(round - 1, 0, tau, rate);
            staleness_obs.push(tau);
            if stream.completed_passes() > recorded {
                // One pass over rank 0's shard ≈ one epoch of collective
                // progress.
                recorded = stream.completed_passes();
                let rec = ev.record(
                    &mut learner.model,
                    recorded as f64,
                    compute_s,
                    comm_s,
                    (samples * p) as u64,
                );
                history.records.push(rec);
            }
        }
    }
    if let (Some(ev), true) = (&evals, history.records.is_empty()) {
        let rec = ev.record(
            &mut learner.model,
            samples as f64 * p as f64 / n as f64,
            compute_s,
            comm_s,
            (samples * p) as u64,
        );
        history.records.push(rec);
    }
    history.staleness = StalenessStats::from_observations(&staleness_obs);
    history.final_params = Some(learner.model.param_vector());
    Ok(history)
}

/// Compress-with-error-feedback then allreduce over the scheme's wire
/// form: the unbounded sparse tree for [`Compression::TopK`], exact 8-bit leaf
/// frames for [`Compression::Uniform8Bit`] (falling back to the dense
/// tree for the all-zero gradient, which has no q8 scale), and the
/// instrumented v2 sparse tree for [`Compression::Sparse`] — recording
/// `(round, rank, k_eff, residual_norm)` plus per-level wire stats into
/// `history`, and folding any union-bound spill back into `residual`.
fn compressed_allreduce<T: Transport>(
    comm: &mut T,
    comp: Compression,
    gs: &[f32],
    residual: &mut Vec<f32>,
    kstate: &mut KState,
    history: &mut History,
    round: u64,
) -> Result<Vec<f32>, EngineError> {
    let rank = comm.rank();
    // Error feedback: compress gs + carried residual, keep what was
    // dropped.
    let input: Vec<f32> = gs.iter().zip(residual.iter()).map(|(a, b)| a + b).collect();
    let c = comp.compress_with(&input, kstate);
    *residual = c.residual;
    // lint:allow(float-cast): telemetry narrowing — the norm is a
    // monitoring signal, not part of the update arithmetic.
    history.push_sparsity(round, rank, c.k_eff, c.residual_norm as f32);
    let total = match comp {
        Compression::TopK { .. } => {
            // Unbounded tree: bitwise the exact sum, empty spill, and the
            // profile is not part of TopK's telemetry.
            let mut sv = SparseVec::from_dense(&c.dense);
            let mut profile = SparseLevelProfile::default();
            sparse_allreduce_tree_v2(comm, &mut sv, SparseTreeOpts::default(), &mut profile)
                .map_err(|e| wire_failure(rank, round, e))?;
            sv.to_dense()
        }
        Compression::Uniform8Bit => {
            let mut buf = c.dense;
            match c.q8_scale {
                Some(scale) => q8_allreduce_tree(comm, &mut buf, scale)
                    .map_err(|e| wire_failure(rank, round, e))?,
                None => allreduce_tree(comm, &mut buf).map_err(|e| wire_failure(rank, round, e))?,
            }
            buf
        }
        Compression::Sparse { union_bound, .. } => {
            let mut sv = SparseVec::from_dense(&c.dense);
            let opts = SparseTreeOpts {
                union_bound: if union_bound { Some(c.k_budget) } else { None },
                q8_scale: c.q8_scale,
            };
            let mut profile = SparseLevelProfile::default();
            let spill = sparse_allreduce_tree_v2(comm, &mut sv, opts, &mut profile)
                .map_err(|e| wire_failure(rank, round, e))?;
            history.sparse_levels.merge(&profile);
            for (&i, &v) in spill.idx.iter().zip(&spill.val) {
                residual[i as usize] += v;
            }
            sv.to_dense()
        }
    };
    Ok(total)
}
