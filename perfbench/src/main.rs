//! `perfbench`: the lowutil end-to-end benchmark.
//!
//! ```text
//! perfbench --workload suite|graph --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload drives the same user-visible pipeline through the
//! library's public functions: the offline commands (`report`, `record`,
//! `replay`, `snapshot save`, `snapshot load`) over the workload's input
//! programs, then an in-process `lowutil serve` daemon under open-loop
//! push and query load, then a closed-loop drain. The workloads differ in
//! their inputs and in how the run's seconds are shared between the
//! offline and serve phases; see `perfbench/README.md`.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`).

mod gen;
mod load;
mod offline;
mod spans;
mod stats;

use gen::Rng;
use lowutil::ir::display_program_source;
use lowutil::workloads::{workload, WorkloadSize, NAMES};
use offline::{Input, Offline, Tally};
use spans::{get, share, Recorder};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, reported with `--trace 0`: name and unit.
const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("report_s", "s"),
    ("record_s", "s"),
    ("replay_s", "s"),
    ("trace_bytes_per_instr", "B/instr"),
    ("snapshot_save_s", "s"),
    ("snapshot_report_s", "s"),
    ("push_ack_p50_ms", "ms"),
    ("push_ack_p90_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("sessions_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, reported with `--trace 1`: name and unit.
const PER_LAYER: [(&str, &str); 46] = [
    ("ir.parse_s", "s"),
    ("ir.lines_per_s", "1/s"),
    ("vm.plain_s", "s"),
    ("vm.instr_per_s", "1/s"),
    ("vm.trace.encode_s", "s"),
    ("vm.trace.decode_s", "s"),
    ("vm.trace.bytes", "B"),
    ("vm.stream.feed_s", "s"),
    ("vm.stream.mb_per_s", "MB/s"),
    ("core.gcost.build_s", "s"),
    ("core.gcost.overhead_x", "x"),
    ("core.gcost.nodes", "count"),
    ("core.gcost.edges", "count"),
    ("par.replay.jobs1_s", "s"),
    ("par.replay.jobsN_s", "s"),
    ("par.replay.speedup", "x"),
    ("par.pipeline_s", "s"),
    ("par.pipeline.speedup", "x"),
    ("core.csr.build_s", "s"),
    ("analyses.rank_s", "s"),
    ("analyses.reference_rank_s", "s"),
    ("analyses.dead_s", "s"),
    ("analyses.render_s", "s"),
    ("analyses.qcache.hit_s", "s"),
    ("core.store.write_s", "s"),
    ("core.store.read_s", "s"),
    ("core.store.bytes", "B"),
    ("core.incr.absorb_s", "s"),
    ("core.incr.delta_nodes", "count"),
    ("core.incr.write_s", "s"),
    ("serve.stats_p50_ms", "ms"),
    ("serve.gen_late_ms", "ms"),
    ("serve.inflight_max", "count"),
    ("report.self.ir", "ratio"),
    ("report.self.vm.interp", "ratio"),
    ("report.self.core.gcost", "ratio"),
    ("report.self.core.csr", "ratio"),
    ("report.self.analyses", "ratio"),
    ("report.self.bench", "ratio"),
    ("push.self.vm.stream", "ratio"),
    ("push.self.core.gcost", "ratio"),
    ("push.self.core.incr", "ratio"),
    ("push.self.analyses", "ratio"),
    ("push.self.core.incr.write", "ratio"),
    ("push.self.daemon", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Bare `stats` requests in the traced run's probe.
const STATS_PROBES: usize = 40;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(bad)?,
            "--seconds" => {
                a.seconds = v.parse::<u32>().map_err(bad)?.clamp(1, 120) as f64;
            }
            "--trace" => a.trace = v.parse::<u8>().map_err(bad)? == 1,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["suite", "graph"].contains(&a.workload.as_str()) {
        return Err("--workload must be suite or graph".to_string());
    }
    Ok(a)
}

/// What a workload feeds the pipeline, and how it shares the run.
struct Spec {
    offline: Vec<Input>,
    snap_reps: usize,
    serve_programs: Vec<(String, String)>,
    /// Recorded sessions per serve program.
    variants: u64,
    tenants: usize,
    /// Open-loop offered rate, requests per second.
    rate: f64,
    /// Shares of `--seconds` for offline passes, open loop and drain.
    shares: [f64; 3],
}

fn suite_sources() -> Vec<Input> {
    NAMES
        .iter()
        .map(|n| Input {
            name: n.to_string(),
            source: display_program_source(&workload(n, WorkloadSize::Small).program),
        })
        .collect()
}

/// The suite programs pushed to the daemon: every one that runs at most
/// about 60k instructions at small size. The four larger ones would put
/// a handful of pushes a hundred milliseconds out, right at the p90.
const SERVE_SUITE: &[&str] = &[
    "antlr",
    "bloat",
    "chart",
    "fop",
    "pmd",
    "jython",
    "xalan",
    "hsqldb",
    "luindex",
    "lusearch",
    "avrora",
    "batik",
    "sunflow",
    "tradesoap",
    "pcqueue",
    "mtserver",
    "forkjoin",
];

fn spec(workload: &str, seed: u64) -> Spec {
    if workload == "suite" {
        let all = suite_sources();
        // The daemon's traffic: the smaller suite programs plus one
        // mid-size generated program, over three tenants.
        let mut serve_programs: Vec<(String, String)> = all
            .iter()
            .filter(|i| SERVE_SUITE.contains(&i.name.as_str()))
            .map(|i| (i.name.clone(), i.source.clone()))
            .collect();
        serve_programs.push(("gen".to_string(), gen::program(seed, 300, 3)));
        return Spec {
            offline: all,
            snap_reps: 20,
            serve_programs,
            variants: 2,
            tenants: 3,
            rate: 30.0,
            shares: [0.42, 0.43, 0.15],
        };
    }
    Spec {
        offline: vec![Input {
            name: "gen".to_string(),
            source: gen::program(seed, 2000, 3),
        }],
        snap_reps: 1,
        // Sessions big enough that a push's own work, not the accept
        // poll, is a good part of its latency.
        serve_programs: (0..3)
            .map(|i| (format!("gen{i}"), gen::program(seed ^ (i + 1), 150, 3)))
            .collect(),
        variants: 4,
        tenants: 2,
        rate: 25.0,
        shares: [0.47, 0.38, 0.15],
    }
}

/// Peak resident set size of this process (the daemon included), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json(correct: bool, tally: &Tally, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|(_, _, v)| v.is_finite())
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload suite|graph --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let clients = lowutil::par::default_jobs();
    let mut tally = Tally::default();

    // Set-up: generate the inputs, record the serve sessions, start the
    // daemon and seed every aggregate. Repeated; the last one is used.
    let mut setup_s = Vec::new();
    let mut ready = None;
    for i in 0..SETUPS {
        // Stop the previous set-up first, so that its recorded sessions
        // and daemon are gone before the next one builds its own and
        // `peak_rss_mib` counts one set-up only.
        if let Some((_, _, old)) = ready.take() {
            load::Daemon::stop(old);
        }
        let t = Instant::now();
        let spec = spec(&args.workload, args.seed);
        let mix = load::Mix::record(
            spec.serve_programs.clone(),
            spec.variants,
            spec.tenants,
            args.seed,
        )?;
        let daemon = load::Daemon::start(&mix, &work.join(format!("serve{i}")), clients)?;
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((spec, mix, daemon));
    }
    let (spec, mix, daemon) = ready.expect("at least one set-up");
    let before = daemon.acked();

    // Offline passes. A traced run alternates untraced and traced
    // passes, so the tracing overhead compares like with like.
    let dir = work.join("offline");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let off = Offline {
        inputs: &spec.offline,
        jobs: clients,
        sched_seed: args.seed,
        snap_reps: spec.snap_reps,
        dir,
    };
    let mut plain = Recorder::new(false);
    let mut traced = Recorder::new(true);
    let mut rng = Rng::new(args.seed ^ 0x0ff1);
    let t = Instant::now();
    let offline_s = spec.shares[0] * args.seconds;
    // One untimed warm-up pass in input order. Without it the heap's
    // high-water mark depends on the first pass's seeded order: on
    // `suite` peak RSS came out at 46 or 54 MiB by seed.
    let inputs: Vec<usize> = (0..spec.offline.len()).collect();
    off.pass(&inputs, &mut Recorder::new(false), &mut tally);
    let min_passes = if args.trace { 4 } else { 3 };
    let mut pass = 0;
    while pass < min_passes || t.elapsed().as_secs_f64() < offline_s {
        let mut order: Vec<usize> = (0..spec.offline.len()).collect();
        rng.shuffle(&mut order);
        let rec = if args.trace && pass % 2 == 1 {
            &mut traced
        } else {
            &mut plain
        };
        off.pass(&order, rec, &mut tally);
        pass += 1;
    }

    // Open loop, then (traced) the bare-stats probe, then the drain.
    let n = (spec.rate * spec.shares[1] * args.seconds).round() as usize;
    let schedule = gen::schedule(args.seed, n, spec.rate, &mix.sessions_of_key);
    let ol = load::open_loop(&daemon, &mix, &schedule, clients, &mut tally);
    let stats_p50 = if args.trace {
        load::stats_probe(&daemon, STATS_PROBES, args.seed, &mut tally)
    } else {
        0.0
    };
    let sessions_per_s = load::drain(
        &daemon,
        &mix,
        clients,
        spec.shares[2] * args.seconds,
        args.seed,
        &mut tally,
    );
    daemon.check_hashes(&mix, &mut tally);
    daemon.stop();
    let pushes = if args.trace {
        load::replica(&mix, &before, &ol.pushed, work)
    } else {
        Recorder::new(false)
    };

    let push_p50 = stats::percentile(&ol.push_ms, 0.5);
    let correct = tally.failed == 0;
    let metrics: Vec<(&str, &str, f64)> = if !args.trace {
        let values: [Option<f64>; END_TO_END.len()] = [
            stats::median(&setup_s),
            Some(plain.input_medians("report")),
            Some(plain.input_medians("record")),
            Some(plain.input_medians("replay")),
            Some(plain.mean_of(|p| get(p, "trace_bytes") / get(p, "trace_instructions"))),
            Some(plain.input_medians("snapshot_save.one")),
            Some(plain.input_medians("snapshot_report.one")),
            push_p50,
            stats::percentile(&ol.push_ms, 0.9),
            stats::percentile(&ol.query_ms, 0.5),
            stats::percentile(&ol.query_ms, 0.9),
            Some(sessions_per_s),
            Some(peak_rss_mib()),
            Some(1.0 - tally.failed as f64 / tally.attempted.max(1) as f64),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .filter_map(|(&(n, u), v)| v.map(|v| (n, u, v)))
            .collect()
    } else {
        let r = &traced;
        let reps = spec.snap_reps as f64;
        let push_s = push_p50.unwrap_or(f64::NAN) / 1e3;
        let push_layers = [
            "vm.stream",
            "core.gcost",
            "core.incr",
            "analyses",
            "core.incr.write",
        ];
        let push_self = |l: &str| pushes.mean(&format!("push:{l}")) / push_s;
        let push_daemon = 1.0 - push_layers.iter().map(|l| push_self(l)).sum::<f64>();
        let phases = [
            "report",
            "record",
            "replay",
            "snapshot_save",
            "snapshot_report",
        ];
        let phase_sum = |rec: &Recorder| -> f64 { phases.iter().map(|p| rec.mean(p)).sum() };
        let values: [f64; PER_LAYER.len()] = [
            r.mean("report:ir"),
            r.mean_of(|p| get(p, "lines") / get(p, "report:ir")),
            r.mean("vm.plain"),
            r.mean_of(|p| get(p, "instructions") / get(p, "vm.plain")),
            r.mean("record:vm.trace"),
            r.mean("vm.trace.decode"),
            r.mean("trace_bytes"),
            pushes.mean("vm.stream.feed"),
            pushes.mean("vm.stream.mb_per_s"),
            r.mean("report:core.gcost"),
            r.mean_of(|p| get(p, "profiled") / get(p, "vm.plain")),
            r.mean("gcost_nodes"),
            r.mean("gcost_edges"),
            r.mean("par.replay.jobs1"),
            r.mean("par.replay.jobsN"),
            r.mean_of(|p| get(p, "par.replay.jobs1") / get(p, "par.replay.jobsN")),
            r.mean("par.pipeline"),
            r.mean_of(|p| get(p, "profiled") / get(p, "par.pipeline")),
            r.mean("core.csr.build"),
            r.mean("report:analyses.rank"),
            r.mean("analyses.reference_rank"),
            r.mean("report:analyses.dead"),
            r.mean("report:analyses.render"),
            r.mean("analyses.qcache.hit"),
            r.mean("snapshot_save:core.store") / reps,
            r.mean("snapshot_report:core.store") / reps,
            r.mean("store_bytes"),
            pushes.mean("core.incr.absorb"),
            pushes.mean("core.incr.delta_nodes"),
            pushes.mean("core.incr.write"),
            stats_p50,
            stats::percentile(&ol.late_ms, 0.9).unwrap_or(f64::NAN),
            ol.inflight_max as f64,
            r.mean_of(|p| share(p, "report", "ir")),
            r.mean_of(|p| share(p, "report", "vm.interp")),
            r.mean_of(|p| share(p, "report", "core.gcost")),
            r.mean_of(|p| share(p, "report", "core.csr")),
            r.mean_of(|p| {
                ["analyses.dead", "analyses.rank", "analyses.render"]
                    .iter()
                    .map(|l| share(p, "report", l))
                    .sum()
            }),
            r.mean_of(|p| {
                1.0 - ["ir", "vm.interp", "core.gcost", "core.csr"]
                    .iter()
                    .chain(&["analyses.dead", "analyses.rank", "analyses.render"])
                    .map(|l| share(p, "report", l))
                    .sum::<f64>()
            }),
            push_self("vm.stream"),
            push_self("core.gcost"),
            push_self("core.incr"),
            push_self("analyses"),
            push_self("core.incr.write"),
            push_daemon,
            (phase_sum(&traced) / phase_sum(&plain) - 1.0) * 100.0,
        ];
        print_breakdown(&traced, &pushes, &ol, push_s, &push_layers);
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    Ok(json(correct, &tally, &metrics))
}

/// Prints the traced run's self-time table: per offline phase, each
/// layer's mean share; for pushes, each layer's per-session median
/// against the open-loop push p50.
fn print_breakdown(
    r: &Recorder,
    pushes: &Recorder,
    ol: &load::OpenLoop,
    push_s: f64,
    push_layers: &[&str],
) {
    println!(
        "# self time by phase and layer ({} traced passes)",
        r.passes()
    );
    for (phase, layer, v) in r.breakdown() {
        println!("{phase:<16} {layer:<20} {v:.4}");
    }
    println!(
        "# push: p50 {:.2} ms over {} acknowledged open-loop pushes",
        push_s * 1e3,
        ol.push_ms.len()
    );
    let mut inner = 0.0;
    for l in push_layers {
        let v = pushes.mean(&format!("push:{l}"));
        inner += v;
        println!("push             {l:<20} {:.3} ms", v * 1e3);
    }
    println!(
        "push             {:<20} {:.3} ms",
        "daemon",
        (push_s - inner) * 1e3
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for n in &all {
            assert!(!n.is_empty() && n.len() <= 64, "{n}");
            assert!(
                n.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-'),
                "{n}"
            );
            assert!(n.as_bytes()[0].is_ascii_alphanumeric(), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let j = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        for (n, u) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                j.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
                "{n} ({u}) missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let t = Tally {
            attempted: 3,
            failed: 0,
        };
        let line = json(true, &t, &[("report_s", "s", 1.5), ("x", "s", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"report_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
