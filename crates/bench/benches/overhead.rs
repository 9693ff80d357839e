//! Measures what instrumentation costs, over one vortex@5% pipeline, for
//! the two layers every run carries:
//!
//! * **obs** — the end-to-end pipeline with instrumentation disabled (the
//!   default — must stay within 2% of an uninstrumented build), the same
//!   pipeline with a trace sink attached, and the absolute cost of the
//!   individual primitives.
//! * **prof** — what the profiler costs when it is *not* running — the
//!   price every user pays — and when it is. Disabled, a span's only
//!   profiler work is one relaxed atomic load (the span-stack enable
//!   check), so the pipeline must stay within 2% of a build with no
//!   profiler at all. With the span stacks forced on, every span push/pops
//!   two atomics; with the sampler thread running at the default 1 kHz,
//!   add one registry walk per millisecond. Both enabled figures are
//!   reported; only the disabled one is asserted, since that is the
//!   default state.
//!
//! Self-timed like `micro.rs`: median of repeated runs, no benchmarking
//! dependencies.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cla_bench::{median_of, memory_fs};
use cla_core::pipeline::{analyze, Analysis, PipelineOptions};
use cla_obs::{ChromeTraceWriter, LATENCY_BUCKETS_US};
use cla_workload::{by_name, generate, GenOptions};

/// Runs `f` repeatedly, prints the median per-iteration time and returns it.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> Duration {
    let (median, samples) = median_of(|| (), |()| f());
    println!("{name:32} {median:>12.2?}   ({samples} samples)");
    median
}

fn main() {
    let w = generate(
        by_name("vortex").unwrap(),
        &GenOptions {
            scale: 0.05,
            files: 4,
            ..Default::default()
        },
    );
    let fs = memory_fs(&w);
    let files: Vec<&str> = w.source_files();
    let opts = PipelineOptions::default();
    let run = || analyze(&fs, &files, &opts).expect("pipeline");

    obs_overhead(files.len(), &run);
    println!();
    prof_overhead(files.len(), &run);
}

fn obs_overhead(files: usize, run: &dyn Fn() -> Analysis) {
    println!("== obs overhead (vortex @ 5%, {files} files) ==");
    let obs = cla_obs::global();

    // The default state: spans measure time but emit nothing, counters are
    // plain relaxed atomics. This is the figure the <2% budget applies to.
    assert!(!obs.tracing(), "bench must start with tracing disabled");
    let disabled = bench("pipeline, obs disabled", run);

    // Full tracing into a discarded stream: every span serialized to JSON.
    let sink = ChromeTraceWriter::from_writer(Box::new(std::io::sink())).expect("sink");
    obs.set_trace_sink(Some(Arc::new(sink)));
    let traced = bench("pipeline, chrome trace on", run);
    obs.set_trace_sink(None);

    let overhead = (traced.as_secs_f64() - disabled.as_secs_f64()) / disabled.as_secs_f64() * 100.0;
    println!("tracing overhead when enabled: {overhead:+.1}%");

    // Primitive costs, amortized over 1000 operations per sample.
    bench("1000 disabled spans", || {
        for _ in 0..1000 {
            let mut sp = obs.span("bench", "noop");
            sp.set("k", 1u64);
            drop(sp);
        }
    });
    let counter = obs.counter("bench_ops_total");
    bench("1000 counter incs", || {
        for _ in 0..1000 {
            counter.inc();
        }
    });
    let hist = obs.histogram_with("bench_lat_us", &[], LATENCY_BUCKETS_US);
    bench("1000 histogram observes", || {
        for i in 0..1000u64 {
            hist.observe(i);
        }
    });
}

fn prof_overhead(files: usize, run: &dyn Fn() -> Analysis) {
    println!("== prof overhead (vortex @ 5%, {files} files) ==");

    // Default state: no profiler, span stacks off.
    assert!(
        !cla_obs::spanstack::enabled(),
        "bench must start with span stacks disabled"
    );
    let baseline = bench("pipeline, profiler absent", run);

    // Span stacks forced on, no sampler: the pure push/pop cost.
    cla_obs::spanstack::enable();
    let stacks_on = bench("pipeline, span stacks on", run);
    cla_obs::spanstack::disable();

    // Full profiler: stacks + 1 kHz sampler thread.
    let profiler = cla_prof::Profiler::start_default();
    let sampled = bench("pipeline, sampler at 1 kHz", run);
    let profile = profiler.stop();
    println!(
        "  ({} samples collected over the sampled runs)",
        profile.samples
    );

    assert!(
        !cla_obs::spanstack::enabled(),
        "profiler did not release the span stacks"
    );

    let pct = |num: Duration, den: Duration| {
        (num.as_secs_f64() - den.as_secs_f64()) / den.as_secs_f64() * 100.0
    };
    println!(
        "span stacks on: {:+.1}%   sampler on: {:+.1}%",
        pct(stacks_on, baseline),
        pct(sampled, baseline)
    );

    // The <2% assertion. Sequential before/after timing cannot hold a 2%
    // bound on a shared machine (frequency drift alone exceeds it), so the
    // two states are *interleaved*: each round runs the pipeline once in
    // each state. The within-round order alternates too — the second run
    // of a round is reliably faster (warm caches), and alternating makes
    // that bias hit both series equally. The median difference then
    // isolates what a retired profiler actually leaves behind.
    let mut never = Vec::new();
    let mut retired = Vec::new();
    // Every timed run is the second of a back-to-back burst, so both
    // series are equally cache-warm. The retired burst additionally runs a
    // full profiler cycle first; its untimed first run also absorbs the
    // cycle's transient (thread join, Profile teardown), which is not the
    // durable state this bench asserts on.
    let measure_never = |never: &mut Vec<Duration>| {
        black_box(run());
        let t = Instant::now();
        black_box(run());
        never.push(t.elapsed());
    };
    let measure_retired = |retired: &mut Vec<Duration>| {
        let p = cla_prof::Profiler::start_default();
        drop(p.stop());
        black_box(run());
        let t = Instant::now();
        black_box(run());
        retired.push(t.elapsed());
    };
    for round in 0..48 {
        if round % 2 == 0 {
            measure_never(&mut never);
            measure_retired(&mut retired);
        } else {
            measure_retired(&mut retired);
            measure_never(&mut never);
        }
    }
    // Matched pairs: each round's two runs are adjacent in time, so drift
    // cancels within the pair and the per-round relative difference is the
    // clean signal. The assertion allows two standard errors of headroom
    // on top of the 2% budget — on a quiet machine that's a fraction of a
    // percent, and on a noisy shared runner it widens exactly as much as
    // the measurements themselves are untrustworthy, instead of flaking.
    let diffs: Vec<f64> = never
        .iter()
        .zip(&retired)
        .map(|(n, r)| (r.as_secs_f64() - n.as_secs_f64()) / n.as_secs_f64() * 100.0)
        .collect();
    let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
    let var = diffs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / (diffs.len() - 1) as f64;
    let stderr = (var / diffs.len() as f64).sqrt();
    println!(
        "disabled-mode overhead (matched pairs): {mean:+.2}% ± {stderr:.2}% over {} rounds",
        diffs.len()
    );
    assert!(
        mean < 2.0 + 2.0 * stderr,
        "profiler-retired runs are {mean:.2}% ± {stderr:.2}% slower than profiler-never runs — state leaked"
    );
}
