//! SASGD benchmark: end-to-end metrics from untraced training calls, or
//! per-layer metrics from traced ones plus an isolated-call leg.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload nlc-sparse --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a metric table on stderr, a parameter checksum line, and as the
//! last stdout line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. Exits non-zero when an output check fails. With `--trace 0`
//! the window is spread over child processes of this binary (`procs`).

mod heap;
mod isolated;
mod procs;
mod stats;
mod summary;
mod trace;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sasgd_analysis::schedule::fnv1a_f32;
use sasgd_bench::alloc;
use sasgd_comm::sparse::{sparse8_frame_elements, sparse_frame_elements};
use sasgd_core::{Compression, EngineError};

use stats::{mean, median, quantile, Metrics};
use summary::{TraceSummary, FAMILIES};
use trace::{Recorder, Span};
use workload::{bitwise_eq, CallOutcome, Setup, Workload, FRAME_HEADER_BYTES, P, WORKLOADS};

#[global_allocator]
static GLOBAL: heap::PeakHeap = heap::PeakHeap;

/// Set-ups per process: at least `SETUP_MIN`, and more until
/// `SETUP_BUDGET` is spent (at most `SETUP_MAX`); `setup_s` is the median
/// over every process of a run.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 20;
const SETUP_BUDGET: Duration = Duration::from_millis(400);

const USAGE: &str =
    "usage: perfbench --workload <cnn-dense|nlc-sparse|nlc-socket> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// One process of an end-to-end run (see `procs`): print raw samples
    /// instead of the result line.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::named(&name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", names.join(", "))
    })?;
    let seed = get("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("bad --trace {t:?} (0 or 1)")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        child: argv.iter().any(|a| a == "--child"),
    })
}

/// Output checks and the operation count, over every call of a process. One
/// operation is one sync round.
struct Checks {
    wl: Workload,
    param_len: usize,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Final parameters of the process's first call; every later call, traced
    /// or not, must reproduce them bitwise.
    first_params: Option<Vec<f32>>,
}

impl Checks {
    fn fail(&mut self, msg: String) {
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    /// Check one call's outputs. Returns its history when it passed.
    fn call<'a>(&mut self, out: &'a CallOutcome, label: &str) -> Option<&'a sasgd_core::History> {
        let rounds = self.wl.rounds_per_call();
        self.attempted += rounds;
        let h = match &out.history {
            Ok(h) => h,
            Err(e) => {
                self.failed += match e {
                    EngineError::WireFailure { round, .. } => {
                        rounds - round.saturating_sub(1).min(rounds)
                    }
                    _ => rounds,
                };
                self.fail(format!("{label}: {e}"));
                return None;
            }
        };
        let before = self.failures.len();
        let losses_finite = !h.records.is_empty()
            && h.records
                .iter()
                .all(|r| r.train_loss.is_finite() && r.test_loss.is_finite());
        if !losses_finite {
            self.fail(format!("{label}: missing or non-finite loss"));
        }
        let samples = h.records.last().map_or(0, |r| r.samples);
        if samples != self.wl.samples_per_call() {
            self.fail(format!(
                "{label}: {samples} samples, expected {}",
                self.wl.samples_per_call()
            ));
        }
        match (&h.final_params, &self.first_params) {
            (None, _) => self.fail(format!("{label}: no final parameters")),
            (Some(p), None) => self.first_params = Some(p.clone()),
            (Some(p), Some(first)) => {
                if !bitwise_eq(p, first) {
                    self.fail(format!(
                        "{label}: final parameters differ from the run's first call (checksum {:#018x} vs {:#018x})",
                        fnv1a_f32(p),
                        fnv1a_f32(first)
                    ));
                }
            }
        }
        self.wire(out, h, label);
        if self.failures.len() > before {
            self.failed += rounds;
            return None;
        }
        Some(h)
    }

    /// Measured wire elements. Dense workloads: exactly the dense tree's
    /// count. Sparse: at most `round_wire_bounds`' maximum, and inside the
    /// same bracket evaluated at each round's observed `k_eff` — the
    /// analytic minimum assumes every frame carries its full k budget,
    /// which 8-bit rounding of small kept values breaks (see NOTES.md).
    /// The initial parameter broadcast is dense on every workload.
    fn wire(&mut self, out: &CallOutcome, h: &sasgd_core::History, label: &str) {
        let m = self.param_len as u64;
        let links = (P - 1) as u64;
        let rounds = self.wl.rounds_per_call();
        let sync_elements = out.wire_elements.saturating_sub(links * m);
        let Some(c @ Compression::Sparse { k, q8, union_bound }) = self.wl.compression else {
            let expect = links * m * (1 + 2 * rounds);
            if out.wire_elements != expect {
                self.fail(format!(
                    "{label}: {} wire elements, dense tree moves {expect}",
                    out.wire_elements
                ));
            }
            return;
        };
        let (_, hi) = c.round_wire_bounds(self.param_len, P);
        if sync_elements > hi * rounds {
            self.fail(format!(
                "{label}: {sync_elements} sync wire elements above round_wire_bounds' {}",
                hi * rounds
            ));
        }
        // Two ranks: rank 1's leaf frame to rank 0, then rank 0's merged
        // frame back. The merge holds at least the larger support, at
        // most their sum, capped at the budget when union-bounded.
        let kmax = k.k_bounds(self.param_len).1;
        let mut k_eff = vec![[None::<usize>; P]; rounds as usize + 1];
        for s in &h.sparsity_series {
            if let Some(slot) = k_eff.get_mut(s.round as usize) {
                slot[s.rank] = Some(s.k_eff);
            }
        }
        let (mut lo, mut hi) = (0u64, 0u64);
        for (r, ks) in k_eff.iter().enumerate().skip(1) {
            let [Some(k0), Some(k1)] = *ks else {
                self.fail(format!("{label}: no k_eff for both ranks in round {r}"));
                return;
            };
            let leaf = if q8 {
                sparse8_frame_elements(k1)
            } else {
                sparse_frame_elements(k1)
            };
            let cap = if union_bound { kmax } else { self.param_len };
            lo += (leaf + sparse_frame_elements(k0.max(k1).min(cap))) as u64;
            hi += (leaf + sparse_frame_elements((k0 + k1).min(cap))) as u64;
        }
        if sync_elements < lo || sync_elements > hi {
            self.fail(format!(
                "{label}: {sync_elements} sync wire elements outside [{lo}, {hi}] at the observed k_eff"
            ));
        }
    }

    /// Span-derived checks of a traced call: sync rounds counted from
    /// transport spans equal steps/T, sent messages equal the transport's
    /// own counter, and child spans never overrun their step.
    fn traced(&mut self, call: &TraceSummary, out: &CallOutcome) {
        let expect_rounds = self.wl.rounds_per_call() as usize;
        if call.rounds() != expect_rounds {
            self.fail(format!(
                "traced: {} sync rounds in spans, expected {expect_rounds}",
                call.rounds()
            ));
        }
        if call.steps != self.wl.steps_per_rank {
            self.fail(format!(
                "traced: {} rank-0 steps in spans, expected {}",
                call.steps, self.wl.steps_per_rank
            ));
        }
        if call.all_messages != out.wire_messages {
            self.fail(format!(
                "traced: {} sends in spans, transport counted {}",
                call.all_messages, out.wire_messages
            ));
        }
        for e in &call.errors {
            self.fail(format!("traced: {e}"));
        }
    }
}

/// Spans of one traced call: rank 0's, and every rank's.
fn collect(recs: &[Arc<Recorder>]) -> Vec<Vec<Span>> {
    recs.iter().map(|r| r.spans()).collect()
}

fn summarize(spans: &[Vec<Span>]) -> TraceSummary {
    let mut s = TraceSummary::default();
    s.add_call(&spans[0], spans);
    s
}

/// Write one traced call as Chrome trace-event JSON next to the
/// benchmark's sources. Parent indices are made global across ranks.
fn write_trace(wl: &str, seed: u64, spans: &[Vec<Span>]) -> std::io::Result<String> {
    let mut all = Vec::new();
    for rank_spans in spans {
        let base = all.len();
        all.extend(rank_spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..*s
        }));
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{wl}-seed{seed}.json");
    std::fs::write(&path, trace::chrome_trace(&all))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    if !args.trace && !args.child {
        return end_to_end_run(&args);
    }
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut setup: Option<Setup> = None;
    let setup_start = Instant::now();
    while setup_s.len() < SETUP_MIN
        || (setup_start.elapsed() < SETUP_BUDGET && setup_s.len() < SETUP_MAX)
    {
        // Tear the previous set-up (and its sockets) down first.
        drop(setup.take());
        let t0 = Instant::now();
        match wl.setup(args.seed) {
            Ok(s) => {
                setup_s.push(t0.elapsed().as_secs_f64());
                generate_s.push(s.generate_s);
                setup = Some(s);
            }
            Err(e) => {
                eprintln!("set-up failed: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let mut setup = setup.expect("SETUP_MIN >= 1");
    if let Err(e) = setup.check_traced_model() {
        eprintln!("set-up failed: {e}");
        return ExitCode::from(1);
    }
    let mut checks = Checks {
        wl,
        param_len: setup.param_len,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        first_params: None,
    };
    let window = Duration::from_secs_f64(args.seconds);
    if args.trace {
        let metrics = per_layer(
            &mut setup,
            &mut checks,
            window,
            median(&generate_s),
            args.seed,
        );
        let checksum = checks.first_params.as_deref().map(fnv1a_f32);
        return report(
            &args,
            &metrics,
            &checks.failures,
            checksum,
            checks.attempted,
            checks.failed,
        );
    }
    let mut samples = end_to_end(&mut setup, &mut checks, window);
    samples.setup_s = setup_s;
    samples.checksum = checks
        .first_params
        .as_deref()
        .map(fnv1a_f32)
        .into_iter()
        .collect();
    samples.attempted = checks.attempted;
    samples.failed = checks.failed;
    for f in &checks.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    print!("{}", samples.encode());
    if checks.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Print the metric table and any failed checks on stderr, the checksum
/// line and the result line on stdout; exit 1 when a check failed.
fn report(
    args: &Args,
    metrics: &Metrics,
    failures: &[String],
    checksum: Option<u64>,
    attempted: u64,
    failed: u64,
) -> ExitCode {
    let wl = args.workload;
    eprint!(
        "{} seed={} trace={}\n{}",
        wl.name,
        args.seed,
        u8::from(args.trace),
        metrics.table()
    );
    for f in failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    if let Some(c) = checksum {
        println!("checksum {} seed={} fnv1a64={c:#018x}", wl.name, args.seed);
    }
    println!("{}", metrics.result_json(correct, attempted, failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// An end-to-end run: the leg below in `procs::PROCESSES` child processes,
/// pooled. Every process must end with the same final parameters.
fn end_to_end_run(args: &Args) -> ExitCode {
    let wl = args.workload;
    let (s, mut failures) = procs::run_children(wl.name, args.seed, args.seconds);
    if s.checksum.iter().any(|&c| c != s.checksum[0]) {
        let sums: Vec<String> = s.checksum.iter().map(|c| format!("{c:#018x}")).collect();
        failures.push(format!(
            "final parameters differ between processes of one seed: {}",
            sums.join(" ")
        ));
    }
    if s.final_loss
        .iter()
        .any(|l| l.to_bits() != s.final_loss[0].to_bits())
    {
        failures.push("final loss differs between processes of one seed".into());
    }
    let (mut attempted, mut failed) = (s.attempted, s.failed);
    if attempted == 0 {
        // No process got as far as a training call.
        attempted = wl.rounds_per_call();
        failed = attempted;
    }
    if !failures.is_empty() && failed == 0 {
        failed = 1;
    }
    let setups: Vec<String> = s
        .setup_s
        .iter()
        .map(|v| format!("{:.1}", v * 1e3))
        .collect();
    eprintln!("set-up ms, all processes: {}", setups.join(" "));
    let mut m = Metrics::default();
    m.put("samples_per_s", median(&s.samples_per_s), "1/s");
    m.put("setup_s", median(&s.setup_s), "s");
    m.put("final_loss", median(&s.final_loss), "nats");
    m.put("wire_bytes_per_sample", median(&s.bytes_per_sample), "B");
    // The 75th percentile over calls: on the socket workload a call's peak
    // sits on one of a few plateaus 6.6 MiB (one dense frame) apart,
    // depending on whether another frame is in flight at that moment.
    m.put("peak_heap_mb", quantile(&s.heap_mb, 0.75), "MiB");
    report(
        args,
        &m,
        &failures,
        s.checksum.first().copied(),
        attempted,
        failed,
    )
}

/// End-to-end leg of one process: one traced call (warm-up, and the proof
/// that the wrappers are transparent), then untraced calls for the whole
/// window.
fn end_to_end(setup: &mut Setup, checks: &mut Checks, window: Duration) -> procs::Samples {
    let wl = setup.wl;
    let (out, recs) = setup.run_traced();
    checks.call(&out, "traced");
    checks.traced(&summarize(&collect(&recs)), &out);

    let mut s = procs::Samples::default();
    let start = Instant::now();
    while s.samples_per_s.is_empty() || start.elapsed() < window {
        heap::reset_peak();
        let out = setup.run_untraced();
        let peak = heap::peak_mb();
        if let Some(h) = checks.call(&out, "untraced") {
            let samples = wl.samples_per_call() as f64;
            s.samples_per_s.push(samples / out.wall_s);
            s.bytes_per_sample.push(out.wire_bytes as f64 / samples);
            s.heap_mb.push(peak);
            s.final_loss = vec![f64::from(h.records.last().expect("checked").train_loss)];
        }
        if checks.failed > 0 && (s.samples_per_s.is_empty() || start.elapsed() >= window) {
            break;
        }
    }
    let per_call: Vec<String> = s.samples_per_s.iter().map(|v| format!("{v:.1}")).collect();
    eprintln!("samples/s per call: {}", per_call.join(" "));
    s
}

/// Per-layer leg: traced and untraced calls alternate over the window
/// (spans pooled over every traced call), then a sequential leg and the
/// isolated-call leg.
fn per_layer(
    setup: &mut Setup,
    checks: &mut Checks,
    window: Duration,
    generate_s: f64,
    seed: u64,
) -> Metrics {
    let wl = setup.wl;
    let samples = wl.samples_per_call() as f64;
    let rank_steps = (wl.steps_per_rank * P) as f64;

    // Allocation counts over one untraced call (also the warm-up).
    alloc::reset();
    let out = setup.run_untraced();
    let (allocs, alloc_bytes) = (alloc::allocs() as f64, alloc::bytes() as f64);
    let first = checks.call(&out, "untraced").cloned();

    let mut summary = TraceSummary::default();
    let mut traced_sps = Vec::new();
    let mut untraced_sps = Vec::new();
    let mut traced_calls = 0usize;
    let mut last_spans = Vec::new();
    let start = Instant::now();
    while traced_sps.len() < 2 || start.elapsed() < window {
        let (out, recs) = setup.run_traced();
        let spans = collect(&recs);
        checks.traced(&summarize(&spans), &out);
        if checks.call(&out, "traced").is_some() {
            traced_sps.push(samples / out.wall_s);
            summary.add_call(&spans[0], &spans);
            traced_calls += 1;
        }
        last_spans = spans;
        let out = setup.run_untraced();
        if checks.call(&out, "untraced").is_some() {
            untraced_sps.push(samples / out.wall_s);
        }
        if checks.failed > 0 && (traced_sps.is_empty() || start.elapsed() >= window) {
            break;
        }
    }
    eprintln!(
        "rank-0 step wall {:.1} ms = layers {:.1} + sync {:.1} + unattributed {:.1} over {} steps",
        summary.step_total_ms,
        summary.layer_total_ms,
        summary.sync_total_ms,
        summary.unattributed_total_ms,
        summary.steps
    );
    match write_trace(wl.name, seed, &last_spans) {
        Ok(path) => eprintln!("trace written to {path}"),
        Err(e) => eprintln!("trace not written: {e}"),
    }

    let (seq_s, seq_h) = setup.run_sequential();
    let seq_samples = seq_h.records.last().map_or(0, |r| r.samples) as f64;
    if seq_samples != samples {
        checks.fail(format!(
            "sequential: {seq_samples} samples, expected {samples}"
        ));
    }
    let seq_sps = seq_samples / seq_s;
    let iso = isolated::run(setup);

    let mut m = Metrics::default();
    for (i, layout) in isolated::LAYOUTS.iter().enumerate() {
        m.put(
            format!("tensor.gemm_{layout}.gflops"),
            iso.gemm[i].0,
            "GFLOP/s",
        );
        m.put(
            format!("tensor.gemm_{layout}.mflop"),
            iso.gemm[i].1,
            "MFLOP",
        );
    }
    for (f, fam) in FAMILIES.iter().enumerate() {
        for (d, dir) in ["fwd", "bwd"].iter().enumerate() {
            m.put(
                format!("nn.{fam}.{dir}_ms"),
                summary.layer_q(f, d, 0.5),
                "ms",
            );
            m.put(
                format!("nn.{fam}.{dir}_ms.p90"),
                summary.layer_q(f, d, 0.9),
                "ms",
            );
        }
    }
    let step_total = summary.step_total_ms.max(f64::MIN_POSITIVE);
    m.put("nn.share", summary.layer_total_ms / step_total, "ratio");

    let rounds = summary.rounds().max(1) as f64;
    m.put("core.steps", summary.steps as f64, "count");
    m.put("core.step_ms.p50", quantile(&summary.step_ms, 0.5), "ms");
    m.put("core.step_ms.p90", quantile(&summary.step_ms, 0.9), "ms");
    m.put("core.sync_ms.p50", quantile(&summary.sync_ms, 0.5), "ms");
    m.put("core.sync_ms.p90", quantile(&summary.sync_ms, 0.9), "ms");
    m.put(
        "core.sync_rounds",
        summary.rounds() as f64 / traced_calls.max(1) as f64,
        "count",
    );
    m.put(
        "core.unattributed_ms",
        summary.unattributed_total_ms / summary.steps.max(1) as f64,
        "ms",
    );
    m.put("core.codec_ms", iso.codec_ms, "ms");
    m.put("core.codec_allocs", iso.codec_allocs, "count");
    let (k_eff, residual) = first.as_ref().map_or((0.0, 0.0), |h| {
        let ks: Vec<f64> = h.sparsity_series.iter().map(|s| s.k_eff as f64).collect();
        let last = h
            .sparsity_series
            .iter()
            .filter(|s| s.rank == 0)
            .max_by_key(|s| s.round)
            .map_or(0.0, |s| f64::from(s.residual_norm));
        (mean(&ks), last)
    });
    m.put("core.k_eff.mean", k_eff, "count");
    m.put("core.residual_norm.last", residual, "l2");
    m.put("core.param_io_ms", iso.param_io_ms, "ms");
    m.put("core.param_io_allocs", iso.param_io_allocs, "count");
    m.put("core.allocs_per_step", allocs / rank_steps, "count");
    m.put(
        "core.alloc_mb_per_step",
        alloc_bytes / rank_steps / 1e6,
        "MB",
    );
    m.put("core.seq_samples_per_s", seq_sps, "1/s");
    m.put(
        "core.speedup_vs_seq",
        median(&untraced_sps) / seq_sps,
        "ratio",
    );

    let header = if wl.socket {
        FRAME_HEADER_BYTES as f64
    } else {
        0.0
    };
    m.put("comm.send_ms.per_round", mean(&summary.send_ms), "ms");
    m.put(
        "comm.recv_wait_ms.p50",
        quantile(&summary.recv_ms, 0.5),
        "ms",
    );
    m.put(
        "comm.recv_wait_ms.p90",
        quantile(&summary.recv_ms, 0.9),
        "ms",
    );
    m.put(
        "comm.recv_wait_share",
        summary.recv_total_ms / step_total,
        "ratio",
    );
    m.put(
        "comm.messages_per_round",
        summary.messages as f64 / rounds,
        "count",
    );
    m.put(
        "comm.bytes_per_round",
        (4.0 * summary.elements as f64 + header * summary.messages as f64) / rounds,
        "B",
    );
    let level = first
        .as_ref()
        .and_then(|h| h.sparse_levels.levels.first().copied())
        .unwrap_or_default();
    let call_rounds = wl.rounds_per_call() as f64;
    m.put(
        "comm.sparse.l0.nnz",
        level.nnz as f64 / call_rounds,
        "count",
    );
    m.put(
        "comm.sparse.l0.elements",
        level.elements as f64 / call_rounds,
        "count",
    );
    m.put("comm.frame_encode_ms", iso.frame_encode_ms, "ms");
    m.put("comm.frame_decode_ms", iso.frame_decode_ms, "ms");

    m.put(
        "mem.peak_rss_mb",
        stats::peak_rss_mb().unwrap_or(f64::NAN),
        "MiB",
    );
    m.put("data.generate_s", generate_s, "s");
    m.put("data.batch_us", iso.batch_us, "us");
    m.put(
        "trace.overhead_pct",
        (median(&untraced_sps) / median(&traced_sps) - 1.0) * 100.0,
        "%",
    );
    m
}
