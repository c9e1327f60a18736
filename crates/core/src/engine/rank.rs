//! The per-rank SASGD loop, generic over the comm substrate.
//!
//! [`run_sasgd_rank`] and [`run_sasgd_ft_rank`] are the exact learner
//! loops the threaded backend spawns one thread per rank for — factored
//! out over [`Transport`] so the *same code* drives a rank whether its
//! peers are threads in this process (in-proc crossbeam endpoints) or
//! other OS processes (socket endpoints handed out by the launcher). The
//! operation order is frozen: local steps, tree allreduce every `T`
//! minibatches, `x -= γp·Σg`, rank 0 evaluating at epoch ends — so a
//! multi-process run produces bitwise the same `final_params` as an
//! in-process one (the launcher's integration test pins this).
//!
//! [`run_ps_rank`] is the asynchronous counterpart: one Downpour or
//! EAMSGD learner trading with parameter-server shards through a
//! [`PsTransportClient`].
//!
//! Wire failures are typed, never panics: a plain-SASGD or PS rank returns
//! [`EngineError::WireFailure`]; a fault-tolerant rank that *can* degrade
//! (evicted, or orphaned while rank 0 still coordinates) retires into
//! [`History::retirements`] instead.

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

use super::{delta_sq_norm, event_gamma_epoch, BatchStream, EngineError};
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

fn wire_failure(rank: usize, round: u64, e: CommError) -> EngineError {
    EngineError::WireFailure {
        rank,
        round,
        detail: e.to_string(),
    }
}

/// One rank of plain (optionally compressed) SASGD over any transport.
/// Returns this rank's [`History`]; only rank 0's carries epoch records.
pub fn run_sasgd_rank<T: Transport>(
    comm: &mut T,
    model: Model,
    shard: &Shard,
    spec: &SasgdRankSpec<'_>,
) -> Result<History, EngineError> {
    let rank = comm.rank();
    let cfg = spec.cfg;
    let mut learner = Learner::new(rank, model, cfg);
    let mut x = learner.model.param_vector();
    let m = x.len();
    // Broadcast learner 0's parameters (Algorithm 1).
    broadcast(comm, 0, &mut x).map_err(|e| wire_failure(rank, 0, e))?;
    learner.model.write_params(&x);
    let mut residual = vec![0.0f32; if spec.compression.is_some() { m } else { 0 }];
    let mut kstate = spec.compression.map(|c| {
        let blocks = match c {
            Compression::Sparse { .. } => learner.model.param_blocks(),
            _ => Vec::new(),
        };
        KState::new(&c, blocks)
    });
    let evals = if rank == 0 {
        Some(EvalSets::prepare(
            spec.train_set,
            spec.test_set,
            cfg.eval_cap,
        ))
    } else {
        None
    };
    let mut history = History::new(spec.label.clone(), spec.p, spec.t);
    let mut compute_s = 0.0f64;
    let mut comm_s = 0.0f64;
    let mut samples = 0u64;
    let mut since_agg = 0usize;
    let mut round = 0u64;
    for epoch in 1..=cfg.epochs {
        let batches: Vec<Vec<usize>> = shard
            .epoch_iter(cfg.batch_size, &mut learner.rng)
            .take(spec.steps_per_epoch)
            .collect();
        for (step, idx) in batches.iter().enumerate() {
            // Same per-step schedule formula as the simulated backend, so
            // trajectories stay bitwise equal.
            let epoch_f = (epoch - 1) as f64 + step as f64 / spec.steps_per_epoch as f64;
            let gamma_now = cfg.gamma_at(epoch_f);
            samples += idx.len() as u64;
            let t0 = Instant::now();
            learner.local_step(spec.train_set, idx, gamma_now, 0.0, 1.0);
            compute_s += t0.elapsed().as_secs_f64();
            since_agg += 1;
            if since_agg == spec.t {
                let gp = spec.gamma_p.resolve(gamma_now, spec.p);
                let t1 = Instant::now();
                round += 1;
                let total: Vec<f32> = match (spec.compression, kstate.as_mut()) {
                    (Some(comp), Some(ks)) => compressed_allreduce(
                        comm,
                        comp,
                        &learner.gs,
                        &mut residual,
                        ks,
                        &mut history,
                        round,
                    )?,
                    _ => {
                        allreduce_tree(comm, &mut learner.gs)
                            .map_err(|e| wire_failure(rank, round, e))?;
                        learner.gs.clone()
                    }
                };
                for (xi, &g) in x.iter_mut().zip(&total) {
                    *xi -= gp * g;
                }
                learner.model.write_params(&x);
                learner.gs.iter_mut().for_each(|g| *g = 0.0);
                comm_s += t1.elapsed().as_secs_f64();
                since_agg = 0;
            }
        }
        if let Some(ev) = &evals {
            let rec = ev.record(
                &mut learner.model,
                epoch as f64,
                compute_s,
                comm_s,
                samples * spec.p as u64,
            );
            history.records.push(rec);
        }
    }
    history.sync_rounds = round;
    history.final_params = Some(learner.model.param_vector());
    Ok(history)
}

/// One rank of fault-tolerant SASGD over any transport. Graceful paths:
///
/// * **eviction** — survivors confirmed this rank lost (e.g. it stalled
///   past the deadline): retire quietly, recording a
///   [`RetirementEvent`], rather than diverge;
/// * **any other wire failure on a non-coordinator** — the rank cannot
///   rejoin, but the run does not need it: retire the same way (this was
///   a panic before the transport refactor);
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
    let evals = if rank == 0 {
        Some(EvalSets::prepare(
            spec.train_set,
            spec.test_set,
            cfg.eval_cap,
        ))
    } else {
        None
    };
    let mut history = History::new(spec.label.clone(), spec.p, spec.t);
    let mut compute_s = 0.0f64;
    let mut comm_s = 0.0f64;
    let mut samples = 0u64;
    let mut since_agg = 0usize;
    let mut gstep = 0u64;
    let mut round = 0u64;
    'run: for epoch in 1..=cfg.epochs {
        let batches: Vec<Vec<usize>> = shard
            .epoch_iter(cfg.batch_size, &mut learner.rng)
            .take(spec.steps_per_epoch)
            .collect();
        for (step, idx) in batches.iter().enumerate() {
            gstep += 1;
            // Faults fire only at step boundaries (never inside a
            // collective), so degraded runs replay bitwise.
            if crash_at.is_some_and(|s| gstep >= s) {
                // Crash: stop participating. Dropping the comm endpoint on
                // return is what survivors detect.
                break 'run;
            }
            if let Some(stall) = plan.stall_at(rank, gstep) {
                std::thread::sleep(stall);
            }
            let epoch_f = (epoch - 1) as f64 + step as f64 / spec.steps_per_epoch as f64;
            let gamma_now = cfg.gamma_at(epoch_f);
            samples += idx.len() as u64;
            let t0 = Instant::now();
            learner.local_step(spec.train_set, idx, gamma_now, 0.0, 1.0);
            compute_s += t0.elapsed().as_secs_f64();
            since_agg += 1;
            if since_agg == spec.t {
                let t1 = Instant::now();
                round += 1;
                let outcome = match ft_allreduce(comm, &mut membership, &mut learner.gs, deadline) {
                    Ok(o) => o,
                    Err(e @ FtError::Evicted { .. }) => {
                        // Survivors confirmed this rank lost (e.g. it
                        // stalled past the deadline); retire quietly
                        // rather than diverge.
                        history.retirements.push(RetirementEvent {
                            rank,
                            round,
                            reason: e.to_string(),
                        });
                        break 'run;
                    }
                    Err(e) if rank != 0 => {
                        // The wire failed under this rank but the run
                        // does not need it: degrade exactly like an
                        // eviction instead of panicking the world.
                        history.retirements.push(RetirementEvent {
                            rank,
                            round,
                            reason: e.to_string(),
                        });
                        break 'run;
                    }
                    Err(e) => {
                        // Rank 0 is the recovery coordinator; nothing
                        // can degrade around it.
                        return Err(wire_failure_ft(rank, round, &e));
                    }
                };
                // Graceful degradation: γp rescales to the survivor count
                // (= p on a clean round, so the fault-free trajectory
                // matches run_sasgd_rank).
                let gp = spec.gamma_p.resolve(gamma_now, membership.len());
                for (xi, &g) in x.iter_mut().zip(&learner.gs) {
                    *xi -= gp * g;
                }
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
                since_agg = 0;
            }
        }
        if let Some(ev) = &evals {
            let rec = ev.record(
                &mut learner.model,
                epoch as f64,
                compute_s,
                comm_s,
                samples * membership.len() as u64,
            );
            history.records.push(rec);
        }
    }
    history.sync_rounds = round;
    history.final_params = Some(learner.model.param_vector());
    Ok(history)
}

fn wire_failure_ft(rank: usize, round: u64, e: &FtError) -> EngineError {
    EngineError::WireFailure {
        rank,
        round,
        detail: e.to_string(),
    }
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

/// The wire counterpart of a collective strategy's sync — what one round's
/// rendezvous does in the event-driven threaded loop ([`run_event_rank`]).
#[derive(Clone, Copy)]
pub enum EventOp {
    /// No communication at all (sequential SGD).
    LocalOnly,
    /// Rank-order gather-average to rank 0 at epoch ends (one-shot model
    /// averaging).
    EpochAverage,
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
}

/// Everything one event-driven collective rank needs besides its endpoint,
/// model and data shard. Every field except `label` must be identical
/// across ranks: the round structure (`policy`, `epoch_block`) and the
/// round γ are resolved independently per rank and must agree for the
/// collectives to line up.
pub struct EventRankSpec<'a> {
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
    /// The rendezvous operation.
    pub op: EventOp,
    /// This strategy's T schedule; each rank advances its own copy on
    /// identical signals, so the copies never diverge.
    pub policy: SyncPolicy,
    /// Round size for never-syncing strategies (`T = 0`): the smallest
    /// shard's whole-minibatch count, computed once by the caller.
    pub epoch_block: usize,
    /// Staleness the strategy imposes by construction (1 for DaSGD).
    pub collective_tau: u64,
    /// Aggregation interval reported in [`History`].
    pub history_interval: usize,
}

/// One rank of the event-driven collective loop over any transport — the
/// threaded mirror of the simulated backend's collective event engine.
/// Each round: a `T`-minibatch block at a round γ resolved from *nominal*
/// system progress (identical on every rank and backend), then the
/// [`EventOp`] rendezvous. Because the block math touches only rank-local
/// state and γ never depends on completion interleaving, `final_params`
/// here are bitwise the simulated backend's for the allreduce-shaped ops
/// at any `p` (and for every op at `p = 1`).
pub fn run_event_rank<T: Transport>(
    comm: &mut T,
    model: Model,
    eval_replica: Option<Model>,
    shard: &Shard,
    spec: &EventRankSpec<'_>,
) -> Result<History, EngineError> {
    let rank = comm.rank();
    let cfg = spec.cfg;
    let p = spec.p;
    let n = spec.train_set.len();
    let mut learner = Learner::new(rank, model, cfg);
    let mut policy = spec.policy.clone();
    let mut x = learner.model.param_vector();
    if matches!(spec.op, EventOp::Gradient { .. }) {
        // Broadcast learner 0's parameters (Algorithm 1). The other ops
        // start from the factory's identical replicas, like their
        // simulated strategies.
        broadcast(comm, 0, &mut x).map_err(|e| wire_failure(rank, 0, e))?;
        learner.model.write_params(&x);
    }
    let keeps_gs = matches!(spec.op, EventOp::Gradient { .. });
    let mut residual = vec![
        0.0f32;
        match spec.op {
            EventOp::Gradient {
                compression: Some(_),
                ..
            } => x.len(),
            _ => 0,
        }
    ];
    let mut kstate = match spec.op {
        EventOp::Gradient {
            compression: Some(c),
            ..
        } => {
            let blocks = match c {
                Compression::Sparse { .. } => learner.model.param_blocks(),
                _ => Vec::new(),
            };
            Some(KState::new(&c, blocks))
        }
        _ => None,
    };
    // Local SGD's plateau-signal state and DaSGD's delayed-application
    // state (unused by the other ops).
    let mut prev_avg = x.clone();
    let mut snap = x.clone();
    let mut pending: Option<Vec<f32>> = None;
    let mut avg_model = eval_replica;

    let evals = if rank == 0 {
        Some(EvalSets::prepare(
            spec.train_set,
            spec.test_set,
            cfg.eval_cap,
        ))
    } else {
        None
    };
    let mut history = History::new(spec.label.clone(), p, spec.history_interval);
    let mut stream = BatchStream::new(shard.indices().to_vec(), cfg.batch_size);
    let mut samples = 0u64; // own-shard samples
    let mut steps_done = 0u64; // nominal per-rank steps, same on every rank
    let mut syncs = 0u64;
    let mut epochs_done = 0usize;
    let mut recorded_passes = 0u64;
    let mut compute_s = 0.0f64;
    let mut comm_s = 0.0f64;
    let mut staleness_obs: Vec<u64> = Vec::new();
    let target_steps = (cfg.epochs as u64) * (n as u64); // in batch·p units

    loop {
        let t_now = policy.current_t();
        let block = if t_now >= 1 { t_now } else { spec.epoch_block };
        // Same round γ formula as the simulated collective event loop, so
        // trajectories stay bitwise equal.
        let gamma_now = cfg.gamma_at(event_gamma_epoch(steps_done, cfg.batch_size, p, n));
        let t0 = Instant::now();
        for _ in 0..block {
            let idx = stream.next(&mut learner.rng);
            samples += idx.len() as u64;
            learner.local_step(spec.train_set, &idx, gamma_now, 0.0, 1.0);
            if !keeps_gs {
                learner.gs.iter_mut().for_each(|g| *g = 0.0);
            }
        }
        compute_s += t0.elapsed().as_secs_f64();
        steps_done += block as u64;
        if t_now >= 1 {
            syncs += 1;
            let t1 = Instant::now();
            let signal = match spec.op {
                EventOp::LocalOnly | EventOp::EpochAverage => None,
                EventOp::Gradient {
                    gamma_p,
                    compression,
                } => {
                    let gp = gamma_p.resolve(gamma_now, p);
                    let total = allreduce_grads(
                        comm,
                        &mut learner,
                        compression,
                        &mut residual,
                        &mut kstate,
                        &mut history,
                        syncs,
                    )?;
                    for (xi, &g) in x.iter_mut().zip(&total) {
                        *xi -= gp * g;
                    }
                    learner.model.write_params(&x);
                    learner.gs.iter_mut().for_each(|g| *g = 0.0);
                    None
                }
                EventOp::ParamAverage => {
                    let mut buf = learner.model.param_vector();
                    allreduce_tree(comm, &mut buf).map_err(|e| wire_failure(rank, syncs, e))?;
                    let inv = 1.0 / p as f32;
                    buf.iter_mut().for_each(|v| *v *= inv);
                    learner.model.write_params(&buf);
                    let sig = delta_sq_norm(&buf, &prev_avg);
                    prev_avg = buf;
                    Some(sig)
                }
                EventOp::DelayedAverage => {
                    // Average of the *pre-application* parameters; the
                    // round-(k−1) average lands now, re-based onto the
                    // local progress made since its snapshot.
                    let cur = learner.model.param_vector();
                    let mut buf = cur.clone();
                    allreduce_tree(comm, &mut buf).map_err(|e| wire_failure(rank, syncs, e))?;
                    let inv = 1.0 / p as f32;
                    buf.iter_mut().for_each(|v| *v *= inv);
                    if let Some(prev) = pending.take() {
                        let applied: Vec<f32> = prev
                            .iter()
                            .zip(&cur)
                            .zip(&snap)
                            .map(|((&pv, &c), &s0)| pv + (c - s0))
                            .collect();
                        learner.model.write_params(&applied);
                        snap = applied;
                    } else {
                        snap = cur;
                    }
                    pending = Some(buf);
                    None
                }
            };
            comm_s += t1.elapsed().as_secs_f64();
            policy.observe_round(signal);
            if rank == 0 {
                for id in 0..p {
                    history.push_staleness(syncs - 1, id, spec.collective_tau, gamma_now);
                    staleness_obs.push(spec.collective_tau);
                }
            }
        } else {
            // T = 0: the round is an epoch.
            epochs_done += 1;
            if matches!(spec.op, EventOp::EpochAverage) {
                // Rank-order gather-average to rank 0, mirroring the
                // simulated strategy's accumulation order.
                let t1 = Instant::now();
                let gather_tag = (comm.next_op() << 4) | 2;
                if rank == 0 {
                    let own = learner.model.param_vector();
                    let mut avg: Vec<f32> = own.iter().map(|&v| v / p as f32).collect();
                    for r in 1..p {
                        let v = comm
                            .recv(r, gather_tag)
                            .map_err(|e| wire_failure(rank, epochs_done as u64, e))?;
                        for (a, &b) in avg.iter_mut().zip(&v) {
                            *a += b / p as f32;
                        }
                    }
                    avg_model
                        .as_mut()
                        .expect("rank 0 holds the averaging replica")
                        .write_params(&avg);
                } else {
                    comm.send(0, gather_tag, learner.model.param_vector())
                        .map_err(|e| wire_failure(rank, epochs_done as u64, e))?;
                }
                comm_s += t1.elapsed().as_secs_f64();
            }
        }
        if let Some(ev) = &evals {
            if stream.completed_passes() > recorded_passes {
                recorded_passes = stream.completed_passes();
                let epoch = samples as f64 * p as f64 / n as f64;
                let eval_model = avg_model.as_mut().unwrap_or(&mut learner.model);
                let rec = ev.record(eval_model, epoch, compute_s, comm_s, samples * p as u64);
                history.records.push(rec);
            }
        }
        let done = if t_now >= 1 {
            steps_done * (cfg.batch_size as u64) * (p as u64) >= target_steps
        } else {
            epochs_done >= cfg.epochs
        };
        if done {
            break;
        }
    }
    if let Some(ev) = &evals {
        if history.records.is_empty()
            || history.records.last().expect("nonempty").samples < samples * p as u64
        {
            let epoch = samples as f64 * p as f64 / n as f64;
            let eval_model = avg_model.as_mut().unwrap_or(&mut learner.model);
            let rec = ev.record(eval_model, epoch, compute_s, comm_s, samples * p as u64);
            history.records.push(rec);
        }
    }
    history.staleness = StalenessStats::from_observations(&staleness_obs);
    history.sync_rounds = syncs;
    history.final_params = Some(match spec.op {
        EventOp::EpochAverage => match &avg_model {
            Some(am) => am.param_vector(),
            None => learner.model.param_vector(),
        },
        // A pending average that never landed is flushed into the final
        // parameters, exactly like the simulated strategy.
        EventOp::DelayedAverage => match pending.take() {
            Some(prev) => {
                let cur = learner.model.param_vector();
                prev.iter()
                    .zip(&cur)
                    .zip(&snap)
                    .map(|((&pv, &c), &s0)| pv + (c - s0))
                    .collect()
            }
            None => learner.model.param_vector(),
        },
        _ => learner.model.param_vector(),
    });
    Ok(history)
}

/// Tree allreduce of the learner's accumulated gradient, with the same
/// compression/error-feedback handling as [`run_sasgd_rank`]'s inline
/// path. Returns the (reconstructed) dense total.
fn allreduce_grads<T: Transport>(
    comm: &mut T,
    learner: &mut Learner,
    compression: Option<Compression>,
    residual: &mut Vec<f32>,
    kstate: &mut Option<KState>,
    history: &mut History,
    round: u64,
) -> Result<Vec<f32>, EngineError> {
    let rank = comm.rank();
    match (compression, kstate.as_mut()) {
        (Some(comp), Some(ks)) => {
            compressed_allreduce(comm, comp, &learner.gs, residual, ks, history, round)
        }
        _ => {
            allreduce_tree(comm, &mut learner.gs).map_err(|e| wire_failure(rank, round, e))?;
            Ok(learner.gs.clone())
        }
    }
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
