//! The repository benchmark: end-to-end and per-layer measurements of
//! the DL(T) projection flow, one workload per process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <c432_physical|midsize_cold|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it records the run set-up (seed, `nproc`, `DLP_THREADS`, git
//! revision). See `perfbench/README.md` for what each workload measures.

mod checks;
mod flow;
mod midsize;
mod physical;
mod serve_mix;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use trace::{SpanId, Tracer};

/// The per-layer metrics every traced run reports: name, unit, and
/// whether the value is a sum over the run's operations (reported per
/// round, so that runs of different lengths compare). A layer a workload
/// does not call reads 0.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("layout.s", "s", true),
    ("layout.unrouted", "count", true),
    ("extract.s", "s", true),
    ("atpg.s", "s", true),
    ("atpg.vectors", "count", true),
    ("sim_gate.s", "s", true),
    ("sim_switch.build_s", "s", true),
    ("sim_switch.s", "s", true),
    ("sim_switch.steps", "count", true),
    ("sim_switch.ns_per_step", "ns", false),
    ("sim_switch.utilization", "fraction", false),
    ("montecarlo.s", "s", true),
    ("montecarlo.ns_per_die", "ns", false),
    ("yield.mc_s", "s", true),
    ("yield.calibrate_s", "s", true),
    ("fit.s", "s", true),
    ("serve.first_touch_p50_ms", "ms", false),
    ("serve.repeat_p50_ms", "ms", false),
    ("serve.hit_ratio", "fraction", false),
    ("trace.run_s", "s", false),
    ("trace.span_coverage", "fraction", false),
];

/// A set-up is timed in fixed batches: each batch repeats the workload's
/// set-up a fixed number of times as one interval (a few tenths of a
/// second of netlist builds; 30 server starts in `serve_mix`), and
/// `setup_s` is the fastest of `SETUP_BATCHES` batches. One set-up takes well under a
/// millisecond, and the median of single set-ups read anywhere between 57
/// and 111 µs from one process to the next for the same c432 build.
pub const SETUP_BATCHES: usize = 10;

/// Layer spans must cover at least this share of the timed wall time.
pub const MIN_SPAN_COVERAGE: f64 = 0.9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Per-layer values of one run, keyed by the names in [`PER_LAYER`].
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _, _)| *n == name), "{name}");
        *self.0.entry(name).or_insert(0.0) += value;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What a workload hands back: its tallies, its timings and its checks.
pub struct Run {
    pub tracer: Arc<Tracer>,
    pub seed: u64,
    pub seconds: f64,
    /// Worker count for every stage that takes one: `nproc`.
    pub threads: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Check failures and unexpected errors; any makes `correct` false.
    pub problems: Vec<String>,
    /// Client-observed latency of every request, in milliseconds: a
    /// served request, or in the batch workloads what a user waits for in
    /// one round (the chain of c432 stage calls; the three projections).
    pub request_ms: Vec<f64>,
    /// Wall and CPU seconds of the timed operations, one entry per round.
    pub round_wall_s: Vec<f64>,
    pub round_cpu_s: Vec<f64>,
    pub setup_s: f64,
    pub layers: Layers,
    /// Share of the timed wall time that layer spans cover, when the
    /// workload measures it itself; otherwise the benchmark's leaf spans
    /// over the rounds' wall time.
    pub span_coverage: Option<f64>,
    round_wall: f64,
    round_cpu: f64,
}

impl Run {
    fn new(args: &Args) -> Run {
        Run {
            tracer: Arc::new(Tracer::new(args.trace)),
            seed: args.seed,
            seconds: args.seconds,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            request_ms: Vec::new(),
            round_wall_s: Vec::new(),
            round_cpu_s: Vec::new(),
            setup_s: 0.0,
            layers: Layers::default(),
            span_coverage: None,
            round_wall: 0.0,
            round_cpu: 0.0,
        }
    }

    pub fn thread_count(&self) -> dlp_core::par::ThreadCount {
        dlp_core::par::ThreadCount::fixed(self.threads).expect("nproc is at least 1")
    }

    /// Builds the workload's inputs in [`SETUP_BATCHES`] batches of
    /// `builds` builds each, records the fastest batch's wall time as
    /// `setup_s`, and returns one build.
    pub fn setup<T>(&mut self, builds: usize, mut build: impl FnMut() -> T) -> T {
        let mut fastest = f64::INFINITY;
        let mut last = None;
        for _ in 0..SETUP_BATCHES {
            let start = Instant::now();
            for _ in 0..builds {
                last = Some(std::hint::black_box(build()));
            }
            fastest = fastest.min(start.elapsed().as_secs_f64());
        }
        self.setup_s = fastest;
        last.expect("at least one build")
    }

    /// Records a check result; a failed check makes the run incorrect.
    pub fn check(&mut self, what: &str, result: checks::Check) {
        if let Err(e) = result {
            self.problems.push(format!("{what}: {e}"));
        }
    }

    /// Counts one operation; `ok == false` counts it as failed.
    pub fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records one request's latency.
    pub fn request(&mut self, seconds: f64) {
        self.request_ms.push(seconds * 1e3);
    }

    /// Runs `f` as a timed operation inside a span: its wall and CPU
    /// time count towards the current round. Returns `f`'s result and its
    /// wall seconds.
    pub fn timed<R>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> (R, f64) {
        let cpu0 = sys::cpu_seconds();
        let tracer = Arc::clone(&self.tracer);
        let (result, seconds) = tracer.span(name, parent, f);
        self.round_cpu += sys::cpu_seconds() - cpu0;
        self.round_wall += seconds;
        (result, seconds)
    }

    /// Runs whole rounds of `round` until `--seconds` of wall time have
    /// passed, and records each round's timed wall and CPU seconds. Time
    /// spent outside [`Run::timed`] (the output checks) is left out.
    pub fn rounds(&mut self, mut round: impl FnMut(&mut Run, Option<SpanId>)) {
        let started = Instant::now();
        let tracer = Arc::clone(&self.tracer);
        tracer.span("run", None, |root| {
            while self.round_wall_s.is_empty() || started.elapsed().as_secs_f64() < self.seconds {
                self.round_wall = 0.0;
                self.round_cpu = 0.0;
                let requests_before = self.request_ms.len();
                round(self, root);
                eprintln!(
                    "round {}: {:.3} s wall, {:.2} s CPU; requests (ms) {:.1?}",
                    self.round_wall_s.len() + 1,
                    self.round_wall,
                    self.round_cpu,
                    &self.request_ms[requests_before..]
                );
                self.round_wall_s.push(self.round_wall);
                self.round_cpu_s.push(self.round_cpu);
            }
        });
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`q` in (0, 1]).
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let value = if value.is_finite() { value } else { 0.0 };
    out.push_str(&format!(
        "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
    ));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run::new(&args);
    match args.workload.as_str() {
        "c432_physical" => physical::c432_physical(&mut run),
        "midsize_cold" => midsize::midsize_cold(&mut run),
        "serve_mix" => serve_mix::serve_mix(&mut run),
        other => {
            eprintln!("error: unknown workload {other:?} (c432_physical, midsize_cold, serve_mix)");
            return ExitCode::from(2);
        }
    }
    let peak_rss_mb = sys::peak_rss_mb();
    if run.attempted == 0 {
        eprintln!("error: no operation ran");
        return ExitCode::FAILURE;
    }

    let run_s = median(&mut run.round_wall_s.clone());
    let mut metrics = String::from("{");
    if args.trace {
        let coverage = run.span_coverage.unwrap_or_else(|| {
            run.tracer.leaf_seconds() / run.round_wall_s.iter().sum::<f64>()
        });
        run.layers.set("trace.span_coverage", coverage);
        if coverage < MIN_SPAN_COVERAGE {
            run.problems.push(format!(
                "layer spans cover {coverage:.3} of the timed wall time, under {MIN_SPAN_COVERAGE}"
            ));
        }
        run.layers.set("trace.run_s", run_s);
        let rounds = run.round_wall_s.len().max(1) as f64;
        for &(name, unit, per_round) in PER_LAYER {
            let value = run.layers.get(name);
            metric(
                &mut metrics,
                name,
                if per_round { value / rounds } else { value },
                unit,
            );
        }
        eprintln!(
            "layer self time ({} workload, seed {}):",
            args.workload, args.seed
        );
        for r in run.tracer.layer_times() {
            eprintln!(
                "  {:<22} {:>6} calls {:>12.6} s total {:>12.6} s self",
                r.name, r.calls, r.total_s, r.self_s
            );
        }
        let path = format!(".bench_out/trace-{}-seed{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, run.tracer.to_json(&args.workload, args.seed)));
        match written {
            Ok(()) => eprintln!("spans written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    } else {
        metric(&mut metrics, "setup_s", run.setup_s, "s");
        metric(&mut metrics, "run_s", run_s, "s");
        metric(
            &mut metrics,
            "cpu_s",
            median(&mut run.round_cpu_s.clone()),
            "s",
        );
        metric(&mut metrics, "peak_rss_mb", peak_rss_mb, "MB");
        metric(
            &mut metrics,
            "request_p50_ms",
            percentile(&mut run.request_ms.clone(), 0.5),
            "ms",
        );
        metric(
            &mut metrics,
            "request_p99_ms",
            percentile(&mut run.request_ms.clone(), 0.99),
            "ms",
        );
    }
    metrics.push('}');
    for p in &run.problems {
        eprintln!("check failed: {p}");
    }
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"rounds\":{},\"requests\":{},\"nproc\":{},\"dlp_threads\":\"{}\",\"git_rev\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.round_wall_s.len(),
        run.request_ms.len(),
        run.threads,
        std::env::var("DLP_THREADS").unwrap_or_default(),
        sys::git_revision(),
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        run.problems.is_empty(),
        run.attempted,
        run.failed
    );
    ExitCode::SUCCESS
}
