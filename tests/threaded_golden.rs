//! Golden-parameter pins for the threaded backend's collective strategies.
//!
//! `tests/engine_golden.rs` pins the simulated engine; the threaded
//! backend is tied to it by the cross-backend bitwise tests, but those
//! cannot cover hierarchical SASGD with more than one group (level 2
//! averages through a tree on threads and in rank order in the
//! simulator, so the two are not bitwise equal there). These checksums
//! pin the threaded `final_params` directly, same workload and helpers as
//! the engine goldens.
//!
//! To regenerate after an *intentional* numerics change:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -q --test threaded_golden -- --nocapture
//! ```

use sasgd::core::{
    Algorithm, Backend, Cadence, Executor, GammaP, LrSchedule, TSchedule, TrainConfig,
};
use sasgd::data::cifar_like::{generate, CifarLikeConfig};
use sasgd::nn::models;
use sasgd::tensor::SeedRng;

/// FNV-1a over the little-endian bit patterns of the parameter vector.
fn checksum(params: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in params {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

struct Golden {
    name: &'static str,
    algo: Algorithm,
    /// FNV-1a checksum of `final_params` bit patterns.
    hash: u64,
    /// Bit patterns of the first four parameters.
    head: [u32; 4],
}

fn check(cases: Vec<Golden>, run: impl Fn(&Algorithm) -> Vec<f32>) {
    let print = std::env::var("GOLDEN_PRINT").is_ok();
    for g in cases {
        let params = run(&g.algo);
        let hash = checksum(&params);
        let head: Vec<u32> = params.iter().take(4).map(|v| v.to_bits()).collect();
        if print {
            println!(
                "GOLDEN {} hash: 0x{hash:016x}, head: [0x{:08x}, 0x{:08x}, 0x{:08x}, 0x{:08x}],",
                g.name, head[0], head[1], head[2], head[3]
            );
            continue;
        }
        assert_eq!(
            hash, g.hash,
            "{}: final_params checksum drifted (head bits {head:08x?}, \
             expected {:08x?})",
            g.name, g.head
        );
        for (i, (&got, &want)) in head.iter().zip(&g.head).enumerate() {
            assert_eq!(got, want, "{}: param[{i}] bits drifted", g.name);
        }
    }
}

/// Run `algo` on the threaded backend under `cadence` over the engine
/// goldens' workload, with a decaying γ so the per-step (lockstep) and
/// per-round (event-driven) γ rules give different trajectories.
fn run_threaded(algo: &Algorithm, cadence: Cadence) -> Vec<f32> {
    let (train_set, test_set) = generate(&CifarLikeConfig::tiny(96, 24, 3));
    let mut cfg = TrainConfig::new(2, 8, 0.05, 42);
    cfg.schedule = LrSchedule::InvEpoch { rate: 0.5 };
    cfg.cadence = Some(cadence);
    let factory = || models::tiny_cnn(3, &mut SeedRng::new(7));
    let h = Executor::new(Backend::Threaded).run(&factory, &train_set, &test_set, algo, &cfg);
    h.final_params
        .unwrap_or_else(|| panic!("{} must report final_params", algo.label()))
}

fn hier(groups: usize, per_group: usize) -> Algorithm {
    Algorithm::HierarchicalSasgd {
        groups,
        per_group,
        t_local: 2,
        t_global: 2,
        gamma_p: GammaP::OverP,
    }
}

#[test]
fn threaded_lockstep_final_params_are_pinned() {
    check(
        vec![
            Golden {
                name: "threaded_hier_2x2_tl2_tg2",
                algo: hier(2, 2),
                hash: 0x56d8_6693_b18c_42b7,
                head: [0xbd8b9316, 0xbd0b413d, 0x3d430fd8, 0x3ddab98e],
            },
            Golden {
                name: "threaded_hier_3x2_tl2_tg2",
                algo: hier(3, 2),
                hash: 0x07d2_228c_3580_8f00,
                head: [0xbd8e72dc, 0xbd13904a, 0x3d3d4410, 0x3ddacfa8],
            },
            Golden {
                name: "threaded_modelavg_p3",
                algo: Algorithm::ModelAverageOnce { p: 3 },
                hash: 0x9245_198d_a4f7_55ec,
                head: [0xbd886d71, 0xbd06c87a, 0x3d474b4d, 0x3dde6a10],
            },
        ],
        |algo| run_threaded(algo, Cadence::Lockstep),
    );
}

#[test]
fn threaded_event_driven_final_params_are_pinned() {
    check(
        vec![
            Golden {
                name: "threaded_event_hier_2x2_tl2_tg2",
                algo: hier(2, 2),
                hash: 0xecda_4563_3578_0cdf,
                head: [0xbd8a6154, 0xbd08fa46, 0x3d44b0cf, 0x3ddb6665],
            },
            Golden {
                name: "threaded_event_hier_3x2_tl2_tg2",
                algo: hier(3, 2),
                hash: 0x2db0_21d9_b7a1_d8df,
                head: [0xbd8d9963, 0xbd11bd34, 0x3d3e5740, 0x3ddb6166],
            },
            Golden {
                name: "threaded_event_localsgd_p4_adaptive",
                algo: Algorithm::LocalSgd {
                    p: 4,
                    schedule: TSchedule::AdaptivePlateau {
                        t0: 1,
                        t_max: 4,
                        patience: 1,
                        rel_improve: 0.2,
                    },
                },
                hash: 0x8e56_31cf_30c4_fab2,
                head: [0xbd8c5a3e, 0xbd0f1e6f, 0x3d41a7b4, 0x3ddc0356],
            },
        ],
        |algo| run_threaded(algo, Cadence::EventDriven),
    );
}
