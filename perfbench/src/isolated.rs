//! The isolated-call leg: public kernel, codec, parameter-I/O and data
//! entry points timed one by one, at the shapes the workload's layers and
//! batch issue.

use std::hint::black_box;
use std::io::Cursor;
use std::time::Duration;

use sasgd_bench::alloc;
use sasgd_comm::protocol::{read_frame, write_frame};
use sasgd_comm::sparse::{SparseVec, SparseVec8};
use sasgd_core::KState;
use sasgd_nn::Ctx;
use sasgd_tensor::linalg::{gemm_nn_ws, gemm_nt_ws, gemm_tn_ws};
use sasgd_tensor::{SeedRng, Workspace};

use crate::stats::time_median;
use crate::workload::{LayerSpec, Net, Setup, SPARSE};

/// GEMM layouts, in metric order.
pub const LAYOUTS: [&str; 3] = ["nn", "nt", "tn"];

/// One GEMM call `(m, k, n)` in the argument order of its `gemm_*_ws`
/// entry point (`tn` takes `k` first).
type Call = (usize, usize, usize);

/// Every GEMM one training step of `net` at minibatch `batch` issues,
/// grouped by layout: forward and backward of conv (im2col), linear and
/// temporal layers.
pub fn gemm_calls(net: Net, batch: usize) -> [Vec<Call>; 3] {
    let mut calls: [Vec<Call>; 3] = Default::default();
    let [nn, nt, tn] = &mut calls;
    let mut dims = net.input_dims();
    let mut rng = SeedRng::new(0);
    for spec in net.specs() {
        let layer = spec.build(&mut rng);
        let out = layer.out_shape(&dims);
        match spec {
            LayerSpec::Conv { ci, co, k, .. } => {
                let (npix, plen) = (out[1] * out[2], ci * k * k);
                let rows = batch * npix;
                nt.push((rows, plen, co));
                nn.push((rows, co, plen));
                // Per-image weight gradient, `[npix]ᵀ·[npix, plen]`.
                tn.extend(std::iter::repeat_n((npix, co, plen), batch));
            }
            LayerSpec::Linear { din, dout } => {
                let rows = batch * dims[..dims.len() - 1].iter().product::<usize>();
                nn.push((rows, din, dout));
                tn.push((rows, din, dout));
                nt.push((rows, dout, din));
            }
            LayerSpec::Temporal { din, nkern, window } => {
                let rows = batch * out[0];
                let fan_in = window * din;
                nn.push((rows, fan_in, nkern));
                tn.push((rows, fan_in, nkern));
                nt.push((rows, nkern, fan_in));
            }
            _ => {}
        }
        dims = out;
    }
    calls
}

fn flops(calls: &[Call]) -> f64 {
    calls
        .iter()
        .map(|&(a, b, c)| 2.0 * (a * b * c) as f64)
        .sum()
}

fn filled(n: usize, rng: &mut SeedRng) -> Vec<f32> {
    (0..n).map(|_| rng.uniform_range(-1.0, 1.0)).collect()
}

/// Results of the isolated leg.
pub struct Isolated {
    /// Per layout: (GFLOP/s, MFLOP per training step).
    pub gemm: [(f64, f64); 3],
    pub codec_ms: f64,
    pub codec_allocs: f64,
    pub param_io_ms: f64,
    pub param_io_allocs: f64,
    pub frame_encode_ms: f64,
    pub frame_decode_ms: f64,
    pub batch_us: f64,
}

const BUDGET: Duration = Duration::from_millis(300);

fn allocs_of(f: impl FnOnce()) -> f64 {
    alloc::reset();
    f();
    alloc::allocs() as f64
}

pub fn run(setup: &Setup) -> Isolated {
    let wl = setup.wl;
    let mut rng = SeedRng::new(0x150);
    let mut gemm = [(0.0, 0.0); 3];
    for (layout, calls) in gemm_calls(wl.net, wl.batch).iter().enumerate() {
        let mut bufs: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = calls
            .iter()
            .map(|&(a, b, c)| match layout {
                // nn: A[m,k]·B[k,n]; nt: A[m,k]·B[n,k]ᵀ; tn: A[k,m]ᵀ·B[k,n].
                0 => (
                    filled(a * b, &mut rng),
                    filled(b * c, &mut rng),
                    vec![0.0; a * c],
                ),
                1 => (
                    filled(a * b, &mut rng),
                    filled(c * b, &mut rng),
                    vec![0.0; a * c],
                ),
                _ => (
                    filled(a * b, &mut rng),
                    filled(a * c, &mut rng),
                    vec![0.0; b * c],
                ),
            })
            .collect();
        let mut ws = Workspace::new();
        let secs = time_median(BUDGET, 5, || {
            for (&(a, b, c), (x, y, out)) in calls.iter().zip(bufs.iter_mut()) {
                match layout {
                    0 => gemm_nn_ws(out, x, y, a, b, c, &mut ws),
                    1 => gemm_nt_ws(out, x, y, a, b, c, &mut ws),
                    _ => gemm_tn_ws(out, x, y, a, b, c, &mut ws),
                }
                black_box(&out);
            }
        });
        let f = flops(calls);
        gemm[layout] = (f / secs / 1e9, f / 1e6);
    }

    // A real gradient of the workload's model on one of its minibatches.
    let mut model = wl.net.reference(setup.model_seed);
    let idx: Vec<usize> = (0..wl.batch).collect();
    let (x, y) = setup.train.batch(&idx);
    let mut ctx = Ctx::train(SeedRng::new(0xD5));
    model.zero_grads();
    model.forward_loss(&x, &y, &mut ctx);
    model.backward(&mut ctx);
    let g = model.grad_vector();

    let ks0 = KState::new(&SPARSE, model.param_blocks());
    let compress = |ks0: &KState| {
        let mut ks = ks0.clone();
        SPARSE.compress_with(&g, &mut ks)
    };
    let codec_ms = time_median(BUDGET, 5, || {
        black_box(compress(&ks0));
    }) * 1e3;
    let codec_allocs = allocs_of(|| {
        black_box(compress(&ks0));
    });

    let param_io = |model: &mut sasgd_nn::Model| {
        let g = model.grad_vector();
        let x = model.param_vector();
        model.write_params(&x);
        black_box(g);
    };
    let param_io_ms = time_median(BUDGET, 5, || param_io(&mut model)) * 1e3;
    let param_io_allocs = allocs_of(|| param_io(&mut model));

    // The frame the workload puts on the wire: the composed sparse+q8
    // leaf frame for the sparse workload, a socket frame of the dense
    // gradient otherwise.
    let (frame_encode_ms, frame_decode_ms) = if wl.compression.is_some() {
        let c = compress(&ks0);
        let scale = c.q8_scale.expect("q8 codec yields a scale");
        let sv8 = SparseVec8::from_scaled(&SparseVec::from_dense(&c.dense), scale);
        let enc = sv8.encode();
        (
            time_median(BUDGET, 5, || {
                black_box(sv8.encode());
            }),
            time_median(BUDGET, 5, || {
                black_box(SparseVec8::decode(&enc));
            }),
        )
    } else {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, 0, 1, &g).expect("in-memory write");
        let mut out: Vec<u8> = Vec::with_capacity(buf.len());
        (
            time_median(BUDGET, 5, || {
                out.clear();
                write_frame(&mut out, 0, 1, &g).expect("in-memory write");
                black_box(&out);
            }),
            time_median(BUDGET, 5, || {
                let f = read_frame(&mut Cursor::new(&buf)).expect("well-formed frame");
                black_box(f);
            }),
        )
    };

    const INNER: usize = 64;
    let batch_s = time_median(Duration::from_millis(100), 10, || {
        for _ in 0..INNER {
            black_box(setup.train.batch(black_box(&idx)));
        }
    });

    Isolated {
        gemm,
        codec_ms,
        codec_allocs,
        param_io_ms,
        param_io_allocs,
        frame_encode_ms: frame_encode_ms * 1e3,
        frame_decode_ms: frame_decode_ms * 1e3,
        batch_us: batch_s / INNER as f64 * 1e6,
    }
}
