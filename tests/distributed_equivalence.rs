//! Cross-crate equivalence tests: the simulated trainer, the threaded
//! backend and the sequential baseline must agree where the algorithms
//! coincide mathematically.

use sasgd::core::algorithms::GammaP;
use sasgd::core::{
    train, Algorithm, Backend, Cadence, EngineError, Executor, LrSchedule, TSchedule, TrainConfig,
};
use sasgd::data::cifar_like::{generate, CifarLikeConfig};
use sasgd::nn::models;
use sasgd::simnet::JitterModel;
use sasgd::tensor::SeedRng;

fn quiet_cfg(epochs: usize, gamma: f32, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::new(epochs, 8, gamma, seed);
    cfg.jitter = JitterModel::none();
    cfg
}

#[test]
fn threaded_equals_simulated_sasgd_bitwise() {
    // Same seeds, same batch orders, same binomial-tree reduction order:
    // the two backends must produce identical accuracy trajectories.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(128, 32, 3));
    for (p, t) in [(2usize, 1usize), (4, 2), (3, 5)] {
        let cfg = quiet_cfg(3, 0.05, 21);
        let factory = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let h_thread = Executor::new(Backend::Threaded).run(
            &factory,
            &train_set,
            &test_set,
            &Algorithm::sasgd(p, t, GammaP::OverP),
            &cfg,
        );
        let mut f = || models::tiny_cnn(3, &mut SeedRng::new(5));
        let algo = Algorithm::Sasgd {
            p,
            t,
            gamma_p: GammaP::OverP,
            compression: None,
        };
        let h_sim = train(&mut f, &train_set, &test_set, &algo, &cfg);
        assert_eq!(h_thread.records.len(), h_sim.records.len());
        for (a, b) in h_thread.records.iter().zip(&h_sim.records) {
            assert_eq!(
                a.train_loss, b.train_loss,
                "p={p} T={t}: train loss diverged"
            );
            assert_eq!(
                a.test_acc, b.test_acc,
                "p={p} T={t}: test accuracy diverged"
            );
            assert_eq!(
                a.train_acc, b.train_acc,
                "p={p} T={t}: train accuracy diverged"
            );
        }
        // Both backends count the same aggregation rounds.
        assert!(h_sim.sync_rounds > 0, "p={p} T={t}: no sync rounds counted");
        assert_eq!(
            h_thread.sync_rounds, h_sim.sync_rounds,
            "p={p} T={t}: sync round counts diverged"
        );
        // Parameter-for-parameter, not just trajectory-for-trajectory:
        // the final flat parameter vectors must be bitwise equal. With
        // `--features parallel` this pins the determinism contract of the
        // rayon kernels under real OS threads against the serial simulator.
        let pt = h_thread.final_params.expect("threaded final params");
        let ps = h_sim.final_params.expect("simulated final params");
        assert_eq!(pt.len(), ps.len());
        let diverged = pt.iter().zip(&ps).filter(|(a, b)| a != b).count();
        assert_eq!(
            diverged,
            0,
            "p={p} T={t}: {diverged}/{} final parameters diverged",
            pt.len()
        );
    }
}

/// Run `algo` on both engine backends and assert bitwise-equal final
/// parameters.
fn assert_backends_agree(algo: &Algorithm, cfg: &TrainConfig, model_seed: u64) {
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 24, 3));
    let factory = move || models::tiny_cnn(3, &mut SeedRng::new(model_seed));
    let sim = Executor::new(Backend::Simulated).run(&factory, &train_set, &test_set, algo, cfg);
    let thr = Executor::new(Backend::Threaded).run(&factory, &train_set, &test_set, algo, cfg);
    let ps = sim.final_params.expect("simulated final params");
    let pt = thr.final_params.expect("threaded final params");
    assert_eq!(ps.len(), pt.len());
    let diverged = ps
        .iter()
        .zip(&pt)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    assert_eq!(
        diverged,
        0,
        "{}: {diverged}/{} final parameters diverged between backends",
        sim.label,
        ps.len()
    );
}

#[test]
fn threaded_equals_simulated_downpour_p1_bitwise() {
    // With a single learner the asynchronous schedule collapses: pushes and
    // pulls alternate deterministically, the γ schedule sees the same
    // sample counts, and the batch stream reshuffles from the same RNG —
    // so the real parameter server must reproduce the simulated one bit
    // for bit. (Beyond p = 1 the OS scheduler decides the interleaving;
    // that divergence is the phenomenon the backend exists to exhibit.)
    assert_backends_agree(
        &Algorithm::Downpour {
            p: 1,
            t: 2,
            staleness_gamma: false,
        },
        &quiet_cfg(3, 0.04, 17),
        5,
    );
}

#[test]
fn threaded_equals_simulated_eamsgd_p1_bitwise() {
    // Same collapse for elastic averaging: one learner's momentum block
    // and elastic exchange against a real center server must match the
    // simulated strategy exactly.
    assert_backends_agree(
        &Algorithm::Eamsgd {
            p: 1,
            t: 2,
            moving_rate: Some(0.5),
            momentum: 0.9,
            staleness_gamma: false,
        },
        &quiet_cfg(3, 0.04, 19),
        5,
    );
}

#[test]
fn threaded_equals_simulated_local_sgd_bitwise() {
    // Parameter averaging is allreduce-shaped: one rank-independent γ per
    // round and a binomial-tree reduction, so real threads must reproduce
    // the simulated event engine bit for bit at ANY p, not just p=1.
    for p in [1usize, 4] {
        assert_backends_agree(
            &Algorithm::LocalSgd {
                p,
                schedule: TSchedule::Fixed { t: 2 },
            },
            &quiet_cfg(3, 0.05, 23),
            5,
        );
    }
}

#[test]
fn threaded_equals_simulated_adaptive_local_sgd_bitwise() {
    // The adaptive policy is driven by the average-displacement signal,
    // which both backends compute from identical floats — so the interval
    // doublings land on the same rounds and the trajectories stay bitwise
    // equal.
    assert_backends_agree(
        &Algorithm::LocalSgd {
            p: 4,
            schedule: TSchedule::AdaptivePlateau {
                t0: 1,
                t_max: 8,
                patience: 1,
                rel_improve: 0.2,
            },
        },
        &quiet_cfg(3, 0.05, 29),
        5,
    );
}

#[test]
fn threaded_equals_simulated_delayed_avg_bitwise() {
    // Delayed averaging is also allreduce-shaped (the delay changes when
    // the average lands, not the float sequence), so the cross-backend
    // contract again holds at any p.
    for p in [1usize, 4] {
        assert_backends_agree(
            &Algorithm::DelayedAvg { p, t: 2 },
            &quiet_cfg(3, 0.05, 31),
            5,
        );
    }
}

#[test]
fn event_driven_p1_collapses_to_simulated_bitwise() {
    // At p=1 the event-driven engine has no scheduling freedom left: every
    // strategy's threaded run must reproduce the simulated one bit for
    // bit. (Downpour and EAMSGD p=1 are pinned by the dedicated tests
    // above; these are the collective strategies under an explicit
    // event-driven cadence.)
    let mut cfg = quiet_cfg(2, 0.05, 37);
    cfg.cadence = Some(Cadence::EventDriven);
    for algo in [
        Algorithm::Sequential,
        Algorithm::Sasgd {
            p: 1,
            t: 2,
            gamma_p: GammaP::OverP,
            compression: None,
        },
        Algorithm::HierarchicalSasgd {
            groups: 1,
            per_group: 1,
            t_local: 2,
            t_global: 2,
            gamma_p: GammaP::OverP,
        },
        Algorithm::ModelAverageOnce { p: 1 },
        Algorithm::LocalSgd {
            p: 1,
            schedule: TSchedule::Fixed { t: 2 },
        },
        Algorithm::DelayedAvg { p: 1, t: 2 },
    ] {
        assert_backends_agree(&algo, &cfg, 5);
    }
}

#[test]
fn sync_sgd_is_sasgd_with_t1() {
    // T=1 SASGD is classic synchronous SGD; doubling T=1's γp via the
    // Fixed policy must equal OverP at 2γ — a consistency check of the
    // γp plumbing.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 24, 3));
    let cfg = quiet_cfg(2, 0.05, 9);
    let p = 4;
    let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(7));
    let a = train(
        &mut f1,
        &train_set,
        &test_set,
        &Algorithm::Sasgd {
            p,
            t: 1,
            gamma_p: GammaP::Fixed(0.05 / p as f32),
            compression: None,
        },
        &cfg,
    );
    let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(7));
    let b = train(
        &mut f2,
        &train_set,
        &test_set,
        &Algorithm::Sasgd {
            p,
            t: 1,
            gamma_p: GammaP::OverP,
            compression: None,
        },
        &cfg,
    );
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.train_loss, y.train_loss);
    }
}

#[test]
fn downpour_p1_t1_tracks_sequential_closely() {
    // One asynchronous learner has no one to be stale against. The local
    // step does NOT compound with the server step: the server applies γ·g
    // to the same pre-step parameters and the pull overwrites the local
    // replica with that result, so each round moves the model by exactly
    // one γ·g — sequential SGD at the *same* γ. (With p=1 the learner's
    // shard is the whole set and the batch streams coincide, so the
    // trajectories agree to within accumulation noise.)
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 48, 3));
    let cfg = quiet_cfg(4, 0.02, 13);
    let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(3));
    let dp = train(
        &mut f1,
        &train_set,
        &test_set,
        &Algorithm::Downpour {
            p: 1,
            t: 1,
            staleness_gamma: false,
        },
        &cfg,
    );
    let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(3));
    let seq = train(&mut f2, &train_set, &test_set, &Algorithm::Sequential, &cfg);
    let d = dp.final_test_acc();
    let s = seq.final_test_acc();
    assert!(
        (d - s).abs() < 1e-6,
        "Downpour p=1 ({d}) should match sequential SGD at the same γ ({s})"
    );
}

#[test]
fn gamma_p_policies_change_trajectories() {
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 24, 3));
    let cfg = quiet_cfg(2, 0.05, 1);
    let mut f1 = || models::tiny_cnn(3, &mut SeedRng::new(1));
    let over_p = train(
        &mut f1,
        &train_set,
        &test_set,
        &Algorithm::Sasgd {
            p: 4,
            t: 2,
            gamma_p: GammaP::OverP,
            compression: None,
        },
        &cfg,
    );
    let mut f2 = || models::tiny_cnn(3, &mut SeedRng::new(1));
    let same = train(
        &mut f2,
        &train_set,
        &test_set,
        &Algorithm::Sasgd {
            p: 4,
            t: 2,
            gamma_p: GammaP::SameAsGamma,
            compression: None,
        },
        &cfg,
    );
    assert_ne!(
        over_p.records[0].train_loss, same.records[0].train_loss,
        "γp = γ vs γ/p must differ with 4 learners"
    );
}

/// `assert_backends_agree` under a decaying γ: the per-step (lockstep)
/// and per-round (event-driven) γ rules only show in the trajectory when
/// γ actually moves.
fn assert_backends_agree_inv_epoch(algo: &Algorithm, cadence: Cadence, batch_size: usize) {
    let mut cfg = quiet_cfg(3, 0.05, 41);
    cfg.batch_size = batch_size;
    cfg.schedule = LrSchedule::InvEpoch { rate: 0.5 };
    cfg.cadence = Some(cadence);
    assert_backends_agree(algo, &cfg, 5);
}

#[test]
fn threaded_equals_simulated_lockstep_under_inv_epoch_gamma() {
    // 96 samples over 4 shards at batch 6 is 4 steps per epoch, so T = 3
    // rounds straddle epoch boundaries while γ changes every step.
    assert_backends_agree_inv_epoch(
        &Algorithm::Sasgd {
            p: 4,
            t: 3,
            gamma_p: GammaP::OverP,
            compression: None,
        },
        Cadence::Lockstep,
        6,
    );
    // Sequential walks the whole set with per-step γ; one-shot averaging
    // holds the epoch-start γ for a whole epoch.
    for algo in [Algorithm::Sequential, Algorithm::ModelAverageOnce { p: 3 }] {
        assert_backends_agree_inv_epoch(&algo, Cadence::Lockstep, 8);
    }
}

#[test]
fn threaded_equals_simulated_event_driven_under_inv_epoch_gamma() {
    // One γ per round, resolved from nominal progress on every rank.
    for algo in [
        Algorithm::Sasgd {
            p: 4,
            t: 3,
            gamma_p: GammaP::OverP,
            compression: None,
        },
        Algorithm::LocalSgd {
            p: 3,
            schedule: TSchedule::Fixed { t: 2 },
        },
        Algorithm::DelayedAvg { p: 3, t: 2 },
        Algorithm::HierarchicalSasgd {
            groups: 1,
            per_group: 3,
            t_local: 2,
            t_global: 2,
            gamma_p: GammaP::OverP,
        },
    ] {
        assert_backends_agree_inv_epoch(&algo, Cadence::EventDriven, 6);
    }
}

#[test]
fn threaded_dispatch_matrix_covers_every_strategy_and_cadence() {
    // Every Algorithm under both cadences on the threaded backend: the
    // parameter-server strategies and the averaging lattice points have no
    // lockstep path on threads (a typed error naming the strategy); every
    // other pair runs and reports its threaded label.
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(48, 16, 2));
    let factory = || models::tiny_cnn(2, &mut SeedRng::new(5));
    let p = 2usize;
    let algos = [
        Algorithm::Sequential,
        Algorithm::Sasgd {
            p,
            t: 1,
            gamma_p: GammaP::OverP,
            compression: None,
        },
        Algorithm::HierarchicalSasgd {
            groups: 2,
            per_group: 1,
            t_local: 1,
            t_global: 1,
            gamma_p: GammaP::OverP,
        },
        Algorithm::Downpour {
            p,
            t: 1,
            staleness_gamma: false,
        },
        Algorithm::Eamsgd {
            p,
            t: 1,
            moving_rate: None,
            momentum: 0.9,
            staleness_gamma: false,
        },
        Algorithm::LocalSgd {
            p,
            schedule: TSchedule::Fixed { t: 1 },
        },
        Algorithm::DelayedAvg { p, t: 1 },
        Algorithm::ModelAverageOnce { p },
    ];
    // (lockstep, event-driven): Ok(threaded label) or Err(strategy label).
    type Outcome = Result<&'static str, &'static str>;
    let expected: [(Outcome, Outcome); 8] = [
        (Ok("SGD-threaded"), Ok("SGD-threaded")),
        (Ok("SASGD-threaded(p=2,T=1)"), Ok("SASGD-threaded(p=2,T=1)")),
        (
            Ok("H-SASGD-threaded(g=2x1,Tl=1,Tg=1)"),
            Ok("H-SASGD-threaded(g=2x1,Tl=1,Tg=1)"),
        ),
        (Err("Downpour(p=2,T=1)"), Ok("Downpour-threaded(p=2,T=1)")),
        (Err("EAMSGD(p=2,T=1)"), Ok("EAMSGD-threaded(p=2,T=1)")),
        (Err("LocalSGD(p=2,T=1)"), Ok("LocalSGD-threaded(p=2,T=1)")),
        (Err("DaSGD(p=2,T=1)"), Ok("DaSGD-threaded(p=2,T=1)")),
        (Ok("ModelAvg-threaded(p=2)"), Ok("ModelAvg-threaded(p=2)")),
    ];
    for (algo, (lock, event)) in algos.iter().zip(expected) {
        for (cadence, want) in [(Cadence::Lockstep, lock), (Cadence::EventDriven, event)] {
            let mut cfg = quiet_cfg(1, 0.05, 3);
            cfg.cadence = Some(cadence);
            let got = Executor::new(Backend::Threaded)
                .try_run(&factory, &train_set, &test_set, algo, &cfg)
                .map(|h| h.label)
                .map_err(|e| match e {
                    EngineError::UnsupportedCadence { label } => label,
                    other => panic!("{algo:?} under {cadence:?}: unexpected {other}"),
                });
            assert_eq!(
                got.as_deref().map_err(String::as_str),
                want,
                "{algo:?} under {cadence:?} on the threaded backend"
            );
        }
    }
}
