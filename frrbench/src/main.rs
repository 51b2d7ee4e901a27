//! The repository benchmark: seeded workloads over the fastreroute
//! workspace, timed end to end (untraced) and split by layer (traced).
//!
//! ```text
//! frrbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
//! metrics are [`END_TO_END`], with `--trace 1` they are [`PER_LAYER`].
//! Every earlier line is the human-readable work profile.

mod serve;
mod sweep;
mod trace;
mod zoo;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// The zoo seed the paper-facing bins use; the default workload seed.
pub const DEFAULT_SEED: u64 = 0xD5_2022;

/// Set-ups per set-up process: at least this many, and at least
/// [`SETUP_SECONDS`] of them.
const SETUP_REPS: usize = 3;
const SETUP_SECONDS: f64 = 0.05;
/// Fresh processes `setup_s` is measured in.
const SETUP_PROCESSES: usize = 8;

/// End-to-end metrics, emitted by every workload with tracing off.  What a
/// unit of work and an operation are depends on the workload (see
/// `LAYERS.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
];

/// Per-layer metrics, emitted by every workload with tracing on.  A layer
/// a workload does not call reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topologies.zoo_gen_ms", "ms"),
    ("graph.planarity.ms", "ms"),
    ("graph.planarity.calls", "count"),
    ("graph.outerplanar.ms", "ms"),
    ("graph.outerplanar.calls", "count"),
    ("graph.minors.k5m1.ms", "ms"),
    ("graph.minors.k33m1.ms", "ms"),
    ("graph.minors.k7m1.ms", "ms"),
    ("graph.minors.k44m1.ms", "ms"),
    ("graph.minors.calls", "count"),
    ("graph.minors.contractions", "count"),
    ("graph.minors.memo_hit_ratio", "ratio"),
    ("graph.minors.unknown_ratio", "ratio"),
    ("core.classify.graph_ms.p50", "ms"),
    ("core.classify.graph_ms.p95", "ms"),
    ("core.classify.graph_ms.max", "ms"),
    ("core.classify.parallel_eff", "ratio"),
    ("core.classify.cache_hit_ratio", "ratio"),
    ("core.impossibility.ms", "ms"),
    ("routing.mask.sparse.ms", "ms"),
    ("routing.mask.dense.ms", "ms"),
    ("routing.walk.sparse.ms", "ms"),
    ("routing.walk.dense.ms", "ms"),
    ("routing.walk.sparse.ns_per_check", "ns"),
    ("routing.walk.dense.ns_per_check", "ns"),
    ("routing.sweep.masks", "count"),
    ("routing.sweep.routes", "count"),
    ("routing.sweep.tours", "count"),
    ("routing.sweep.edges_toggled", "count"),
    ("routing.sweep.bridge_tests", "count"),
    ("routing.sweep.bridge_hit_ratio", "ratio"),
    ("routing.compile.ms", "ms"),
    ("routing.compile.rule_words", "count"),
    ("routing.compiled_sim.route_ns", "ns"),
    ("serve.rebuild.ms", "ms"),
    ("serve.digest.us", "us"),
    ("serve.tick_self.ms", "ms"),
    ("serve.submit.ns", "ns"),
    ("serve.settle_ms.p99", "ms"),
    ("serve.query_ns.p50", "ns"),
    ("serve.query_ns.p99", "ns"),
    ("obs.trace_overhead", "ratio"),
    ("self.topologies.ms", "ms"),
    ("self.graph.ms", "ms"),
    ("self.core.ms", "ms"),
    ("self.routing.ms", "ms"),
    ("self.serve.ms", "ms"),
    ("self.bench.ms", "ms"),
];

/// Self-time metrics of the traced run and the span layer each sums.
const SELF_METRICS: &[(&str, &str)] = &[
    ("self.topologies.ms", "topologies"),
    ("self.graph.ms", "graph"),
    ("self.core.ms", "core"),
    ("self.routing.ms", "routing"),
    ("self.serve.ms", "serve"),
    ("self.bench.ms", "bench"),
];

/// Correctness bookkeeping: every gated operation counts as attempted, and
/// as failed when its gate does not hold.
#[derive(Default)]
pub struct Gates {
    pub attempted: u64,
    pub failed: u64,
}

impl Gates {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                println!("FAILED: {}", what());
            }
        }
    }
}

/// One workload: seeded inputs, a measured pass, and a traced pass that
/// splits the same kind of work by layer.
pub trait Workload: Sized {
    /// Builds the inputs from `seed`.  Timed for `setup_s`.
    fn setup(seed: u64, tracer: &mut Tracer) -> Self;
    /// Human-readable work profile (graph sizes, masks, checks, ...).
    fn profile(&self) -> Vec<String>;
    /// One measured pass: pushes each operation's latency into `ops_ms` and
    /// returns the units of work done.
    fn pass(&mut self, ops_ms: &mut Vec<f64>, gates: &mut Gates) -> f64;
    /// Run-level checks after the measured passes.
    fn final_checks(&mut self, _gates: &mut Gates) {}
    /// One pass of the layer decomposition.  Run alternately with tracing
    /// off and on; returns per-layer values (only read from traced passes).
    fn layer_pass(&mut self, tracer: &mut Tracer, gates: &mut Gates) -> Vec<(&'static str, f64)>;
    /// Per-layer values measured once per traced run.
    fn layer_extras(&mut self, _gates: &mut Gates) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    /// Only time set-ups and print their median (a child of the run).
    setup_only: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: frrbench --workload <zoo-classify|verify-sparse|verify-dense|serve-churn> \
         [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]"
    );
    std::process::exit(2)
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse_seed(&value).unwrap_or_else(|| usage()),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            "--setup-only" => args.setup_only = value == "1",
            _ => usage(),
        }
    }
    args
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median time of repeated set-ups in this process: at least
/// [`SETUP_REPS`] of them and at least [`SETUP_SECONDS`] of them.
fn setup_median<W: Workload>(seed: u64) -> f64 {
    let mut off = Tracer::new(false);
    let mut times = Vec::new();
    let started = Instant::now();
    while times.len() < SETUP_REPS || started.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t0 = Instant::now();
        W::setup(seed, &mut off);
        times.push(t0.elapsed().as_secs_f64());
    }
    median(&times)
}

/// `setup_s`: the mean over [`SETUP_PROCESSES`] fresh processes of each
/// one's median set-up time.  Set-up is short (0.2 ms for `verify-dense`),
/// and a process's address-space layout moves it by up to 40% in two
/// modes, so the figure averages over layouts instead of drawing one.
fn setup_seconds(args: &Args, gates: &mut Gates) -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut per_process = Vec::with_capacity(SETUP_PROCESSES);
    for _ in 0..SETUP_PROCESSES {
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
                "--setup-only",
                "1",
            ])
            .output();
        let secs = out.ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .trim()
                .parse::<f64>()
                .ok()
        });
        match secs {
            Some(s) => per_process.push(s),
            None => gates.check(false, || "a set-up process failed".into()),
        }
    }
    per_process.iter().sum::<f64>() / per_process.len().max(1) as f64
}

/// The untraced run: set-up, the measured passes, the end-to-end metrics.
fn run_untraced<W: Workload>(args: &Args, gates: &mut Gates) -> BTreeMap<&'static str, f64> {
    let setup_s = setup_seconds(args, gates);
    let mut w = W::setup(args.seed, &mut Tracer::new(false));
    println!("set up in {SETUP_PROCESSES} processes: {:.6} s", setup_s);
    for line in w.profile() {
        println!("{line}");
    }
    // One warm-up pass: caches fill and lazy set-up finishes before timing.
    w.pass(&mut Vec::new(), gates);
    let mut ops_ms = Vec::new();
    let mut rates = Vec::new();
    let started = Instant::now();
    while rates.len() < 3 || started.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let work = w.pass(&mut ops_ms, gates);
        rates.push(work / t0.elapsed().as_secs_f64());
    }
    w.final_checks(gates);
    println!(
        "measured {} passes, {} operations in {:.2} s",
        rates.len(),
        ops_ms.len(),
        started.elapsed().as_secs_f64()
    );
    BTreeMap::from([
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb()),
        ("work_per_s", median(&rates)),
        ("op_ms.p50", quantile(&ops_ms, 0.50)),
        ("op_ms.p90", quantile(&ops_ms, 0.90)),
    ])
}

/// The traced run: alternating untraced and traced layer passes; per-layer
/// values are medians over the traced ones.
fn run_traced<W: Workload>(args: &Args, gates: &mut Gates) -> BTreeMap<&'static str, f64> {
    let mut tracer = Tracer::new(true);
    let from = tracer.begin_group();
    let mut w = W::setup(args.seed, &mut tracer);
    let zoo_gen_ns = trace::total_ns_by_name(tracer.since(from))
        .get("topologies.full_zoo")
        .copied()
        .unwrap_or(0);
    let mut off = Tracer::new(false);
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let started = Instant::now();
    while traced_s.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        w.layer_pass(&mut off, gates);
        untraced_s.push(t0.elapsed().as_secs_f64());

        let base = tracer.begin_group();
        let t0 = Instant::now();
        let pass_values = tracer.span("bench.pass", |t| w.layer_pass(t, gates));
        traced_s.push(t0.elapsed().as_secs_f64());
        let spans = tracer.since(base);
        let own = trace::self_ns_by_layer(spans, base);
        for &(name, layer) in SELF_METRICS {
            let ns = own.get(layer).copied().unwrap_or(0);
            values.entry(name).or_default().push(ns as f64 / 1e6);
        }
        for (name, v) in pass_values {
            assert!(
                PER_LAYER.iter().any(|(n, _)| *n == name),
                "{name} is not a per-layer metric"
            );
            values.entry(name).or_default().push(v);
        }
    }
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    for (name, v) in &values {
        out.insert(name, median(v));
    }
    for (name, v) in w.layer_extras(gates) {
        out.insert(name, v);
    }
    out.insert("topologies.zoo_gen_ms", zoo_gen_ns as f64 / 1e6);
    out.insert(
        "obs.trace_overhead",
        median(&traced_s) / median(&untraced_s) - 1.0,
    );
    println!(
        "traced run: {} untraced + {} traced layer passes, {} spans",
        untraced_s.len(),
        traced_s.len(),
        tracer.mark()
    );
    if let Some(path) = &args.trace_out {
        match tracer.write_jsonl(path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => gates.check(false, || {
                format!("writing spans to {}: {e}", path.display())
            }),
        }
    }
    out
}

fn run<W: Workload>(args: &Args) -> (Gates, BTreeMap<&'static str, f64>) {
    if args.setup_only {
        println!("{}", setup_median::<W>(args.seed));
        std::process::exit(0);
    }
    let mut gates = Gates::default();
    let metrics = if args.trace {
        run_traced::<W>(args, &mut gates)
    } else {
        run_untraced::<W>(args, &mut gates)
    };
    (gates, metrics)
}

/// The result line: every catalogue metric with its unit, in catalogue order.
fn result_json(gates: &Gates, catalogue: &[(&str, &str)], metrics: &BTreeMap<&str, f64>) -> String {
    let body: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).copied().unwrap_or(f64::NAN);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gates.failed == 0 && gates.attempted > 0,
        gates.attempted.max(1),
        gates.failed,
        body.join(", ")
    )
}

fn main() {
    let args = parse_args();
    if !args.setup_only {
        println!(
            "workload {} seed {:#x} seconds {} trace {} (available_parallelism {})",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            std::thread::available_parallelism().map_or(1, |c| c.get())
        );
    }
    let (mut gates, metrics) = match args.workload.as_str() {
        "zoo-classify" => run::<zoo::ZooClassify>(&args),
        "verify-sparse" => run::<sweep::VerifySweep<sweep::Sparse>>(&args),
        "verify-dense" => run::<sweep::VerifySweep<sweep::Dense>>(&args),
        "serve-churn" => run::<serve::ServeChurn>(&args),
        _ => usage(),
    };
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in catalogue {
        let v = metrics.get(name).copied().unwrap_or(f64::NAN);
        gates.check(v.is_finite(), || format!("metric {name} is not finite"));
        println!("  {name:<36} {v:>16.6} {unit}");
    }
    println!(
        "failed_ratio {} ({} of {} gated operations)",
        gates.failed as f64 / gates.attempted.max(1) as f64,
        gates.failed,
        gates.attempted
    );
    println!("{}", result_json(&gates, catalogue, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric `BENCHMARK.json` names is emitted, with the same unit,
    /// and nothing else is.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                compact.contains(&entry),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        let listed = compact.matches("{\"name\":").count();
        let workloads = compact.matches("\"why\":").count();
        assert_eq!(listed - workloads, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_names_every_metric_with_its_unit() {
        let gates = Gates {
            attempted: 3,
            failed: 0,
        };
        for catalogue in [END_TO_END, PER_LAYER] {
            let metrics = catalogue.iter().map(|(n, _)| (*n, 1.5)).collect();
            let line = result_json(&gates, catalogue, &metrics);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
            for (name, unit) in catalogue {
                assert!(line.contains(&format!(
                    "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
                )));
            }
        }
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn seeds_parse_in_hex_and_decimal() {
        assert_eq!(parse_seed("0xD52022"), Some(DEFAULT_SEED));
        assert_eq!(parse_seed("13967394"), Some(DEFAULT_SEED));
        assert_eq!(parse_seed("x"), None);
    }
}
