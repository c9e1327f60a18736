//! Integration tests for the lint leg, plus a thin real-thread smoke of
//! what the model checker explores on its modeled transport.
//!
//! * The lint pass must fire on every bad fixture, stay silent on every
//!   good fixture, and report **zero** violations on the real tree.
//! * The shipped collectives and the two-shard parameter server, run on
//!   real `CommWorld` threads at p = 4 and 8, must match in-memory
//!   references bitwise. (The negative controls live in
//!   `model_checker.rs`.)

use std::collections::BTreeSet;
use std::thread;
use std::time::Duration;

use sasgd_analysis::lints::{call_taint_single, lint_file};
use sasgd_analysis::scan::{fixtures_dir, lint_fixture_corpus, lint_repo, repo_root};
use sasgd_analysis::schedule::{order_sensitive_input, tree_reference};
use sasgd_comm::collectives::{allreduce_ring, allreduce_tree, chunk_bounds};
use sasgd_comm::ft::{ft_allreduce, Membership};
use sasgd_comm::hierarchy::{grouped, hierarchical_allreduce};
use sasgd_comm::ps_transport::{run_inproc, PsLayout};
use sasgd_comm::sparse::{sparse_allreduce_tree_v2, SparseLevelProfile, SparseTreeOpts, SparseVec};
use sasgd_comm::world::{CommWorld, Communicator};

fn fixture_lints(name: &str) -> Vec<&'static str> {
    let path = fixtures_dir().join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let virtual_path = src
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("// virtual-path:"))
        .map(|s| s.trim().to_string())
        .expect("fixture declares a virtual path");
    // Per-file lints plus the degenerate one-file-crate `call-taint` pass —
    // the same combination `lint_fixture_corpus` runs.
    let mut v = lint_file(&virtual_path, &src);
    v.extend(call_taint_single(&virtual_path, &src));
    v.into_iter().map(|v| v.lint).collect()
}

#[test]
fn every_bad_fixture_fires_its_lint() {
    // Two `use`s plus two signature mentions: the lint is per occurrence.
    assert_eq!(
        fixture_lints("bad/map_iter.rs"),
        vec!["map-iter", "map-iter", "map-iter", "map-iter"]
    );
    assert_eq!(fixture_lints("bad/unsafe_unlisted.rs"), vec!["unsafe"]);
    assert_eq!(fixture_lints("bad/unsafe_undocumented.rs"), vec!["unsafe"]);
    assert_eq!(
        fixture_lints("bad/wall_clock.rs"),
        vec!["wall-clock", "wall-clock", "wall-clock"]
    );
    assert_eq!(
        fixture_lints("bad/raw_spawn.rs"),
        vec!["raw-spawn", "raw-spawn"]
    );
    assert_eq!(
        fixture_lints("bad/hot_alloc.rs"),
        vec!["hot-alloc", "hot-alloc", "hot-alloc"]
    );
    assert_eq!(
        fixture_lints("bad/float_cast.rs"),
        vec!["float-cast", "float-cast", "float-cast"]
    );
    // `.unwrap()` and `.expect()` each fire once.
    assert_eq!(
        fixture_lints("bad/comm_unwrap.rs"),
        vec!["comm-unwrap", "comm-unwrap"]
    );
    // Both tainted call edges fire: decay_seed -> thread_salt and
    // scale_gradients -> decay_seed.
    assert_eq!(
        fixture_lints("bad/call_taint.rs"),
        vec!["call-taint", "call-taint"]
    );
}

#[test]
fn every_good_fixture_is_clean() {
    for name in [
        "good/map_btree.rs",
        "good/unsafe_documented.rs",
        "good/wall_clock_threaded.rs",
        "good/spawn_comm.rs",
        "good/hot_ws.rs",
        "good/float_promote.rs",
        "good/comm_propagate.rs",
        "good/call_taint_local.rs",
    ] {
        let fired = fixture_lints(name);
        assert!(fired.is_empty(), "{name} fired {fired:?}");
    }
}

#[test]
fn corpus_exercises_every_lint_id() {
    let (files, violations) = lint_fixture_corpus(&fixtures_dir());
    assert!(files >= 16, "expected the full corpus, saw {files} files");
    let fired: BTreeSet<&str> = violations.iter().map(|v| v.lint).collect();
    for id in sasgd_analysis::lints::LINT_IDS {
        assert!(fired.contains(id), "no fixture fires `{id}` — lint is dead");
    }
}

#[test]
fn real_tree_is_clean() {
    let run = lint_repo(&repo_root());
    assert!(
        run.files_scanned > 40,
        "scan found only {} files",
        run.files_scanned
    );
    let msgs: Vec<String> = run
        .violations
        .iter()
        .map(|v| format!("[{}] {}:{} {}", v.lint, v.file, v.line, v.message))
        .collect();
    assert!(
        msgs.is_empty(),
        "lint violations on the real tree:\n{}",
        msgs.join("\n")
    );
}

// ---------------------------------------------------------------------------
// Real-thread smoke: the DPOR corpus runs on the model transport; this
// runs the same collectives and the PS on real `CommWorld` threads and
// pins every result bitwise to an in-memory reference.
// ---------------------------------------------------------------------------

const M: usize = 9;

/// Run `body` on every rank of a `p`-rank in-process world; results in
/// rank order.
fn on_threads(p: usize, body: impl Fn(Communicator) -> Vec<f32> + Sync) -> Vec<Vec<f32>> {
    let mut world = CommWorld::new(p);
    let comms = world.communicators();
    let body = &body;
    thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| s.spawn(move || body(c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect()
    })
}

fn inputs(p: usize) -> Vec<Vec<f32>> {
    (0..p).map(|r| order_sensitive_input(r, M)).collect()
}

/// Rank `r`'s input kept only where `(r + j)` is even — a sparse gradient
/// with order-sensitive magnitudes.
fn sparse_input(r: usize) -> Vec<f32> {
    order_sensitive_input(r, M)
        .into_iter()
        .enumerate()
        .map(|(j, x)| if (r + j).is_multiple_of(2) { x } else { 0.0 })
        .collect()
}

/// The ring's combine order: chunk `c` starts as rank `c`'s own chunk
/// and absorbs ranks `c+1, c+2, …` (mod p) in turn.
fn ring_reference(bufs: &[Vec<f32>]) -> Vec<f32> {
    let p = bufs.len();
    let mut out = vec![0.0f32; M];
    for (c, &(lo, hi)) in chunk_bounds(M, p).iter().enumerate() {
        for j in lo..hi {
            let mut acc = bufs[c][j];
            for k in 1..p {
                acc += bufs[(c + k) % p][j];
            }
            out[j] = acc;
        }
    }
    out
}

fn assert_bitwise(what: &str, p: usize, got: &[Vec<f32>], want: &[f32]) {
    for (r, v) in got.iter().enumerate() {
        let same =
            v.len() == want.len() && v.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{what} p={p} rank {r}: {v:?} != reference {want:?}");
    }
}

#[test]
fn real_thread_collectives_match_in_memory_references_bitwise() {
    for p in [4usize, 8] {
        let tree = tree_reference(inputs(p));
        let got = on_threads(p, |mut c| {
            let mut v = order_sensitive_input(c.rank(), M);
            allreduce_tree(&mut c, &mut v).expect("tree allreduce");
            v
        });
        assert_bitwise("allreduce_tree", p, &got, &tree);

        let got = on_threads(p, |mut c| {
            let mut v = order_sensitive_input(c.rank(), M);
            allreduce_ring(&mut c, &mut v).expect("ring allreduce");
            v
        });
        assert_bitwise("allreduce_ring", p, &got, &ring_reference(&inputs(p)));

        // The unbounded sparse tree is bitwise the dense tree of the
        // densified inputs.
        let sparse_total = tree_reference((0..p).map(sparse_input).collect());
        let got = on_threads(p, |mut c| {
            let mut sv = SparseVec::from_dense(&sparse_input(c.rank()));
            let mut profile = SparseLevelProfile::default();
            let spill =
                sparse_allreduce_tree_v2(&mut c, &mut sv, SparseTreeOpts::default(), &mut profile)
                    .expect("sparse allreduce");
            assert_eq!(spill.nnz(), 0, "unbounded tree spills nothing");
            sv.to_dense().expect("in range")
        });
        assert_bitwise("sparse_allreduce_tree_v2", p, &got, &sparse_total);

        let got = on_threads(p, |mut c| {
            let mut membership = Membership::new(c.size());
            let mut v = order_sensitive_input(c.rank(), M);
            let out = ft_allreduce(&mut c, &mut membership, &mut v, Duration::from_secs(5))
                .expect("ft allreduce");
            assert!(
                out.lost.is_empty(),
                "fault-free round evicted {:?}",
                out.lost
            );
            v
        });
        assert_bitwise("ft_allreduce", p, &got, &tree);

        let per_group = p / 2;
        let group_sums = inputs(p)
            .chunks(per_group)
            .map(|g| tree_reference(g.to_vec()))
            .collect();
        let hier = tree_reference(group_sums);
        let got = thread::scope(|s| {
            let handles: Vec<_> = grouped(2, per_group)
                .into_iter()
                .enumerate()
                .map(|(r, mut b)| {
                    s.spawn(move || {
                        let mut v = order_sensitive_input(r, M);
                        hierarchical_allreduce(&mut b, &mut v).expect("hierarchical allreduce");
                        v
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread"))
                .collect::<Vec<_>>()
        });
        assert_bitwise("hierarchical_allreduce", p, &got, &hier);
    }
}

#[test]
fn real_thread_two_shard_ps_matches_in_memory_reference_bitwise() {
    for p in [4usize, 8] {
        // Learner r's delta lives on coordinates j ≡ r (mod p), so every
        // coordinate takes exactly one nonzero add: the arrival order of
        // the learners cannot change a bit, while the values stay
        // order-sensitive.
        let delta = |r: usize| -> Vec<f32> {
            order_sensitive_input(r, M)
                .into_iter()
                .enumerate()
                .map(|(j, x)| if j % p == r { x } else { 0.0 })
                .collect()
        };
        let initial = order_sensitive_input(p, M);
        let want: Vec<f32> = (0..M).map(|j| initial[j] + delta(j % p)[j]).collect();
        let layout = PsLayout {
            p,
            shards: 2,
            dim: M,
        };
        let run = run_inproc(layout, &initial, |mut client| {
            let rank = client.rank();
            client.add(&delta(rank)).expect("add");
            let pulled = client.pull().expect("pull");
            client.finish().expect("finish");
            // Per-learner FIFO: this learner's own add is in its pull.
            (0..M)
                .filter(|j| j % p == rank)
                .all(|j| pulled[j].to_bits() == want[j].to_bits())
        })
        .expect("shards serve");
        assert!(run.learners.iter().all(|&own_visible| own_visible), "p={p}");
        assert_bitwise("ps_transport_s2", p, &[run.params], &want);
    }
}
