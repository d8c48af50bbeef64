//! The offline path, as `lowutil report`, `record`, `replay`,
//! `snapshot save` and `snapshot load` run it, driven through the
//! library's public functions.
//!
//! One pass runs every phase once per input program, making the same
//! calls as the CLI whether or not tracing is on. Where one call serves
//! several layers, a traced pass splits its time with measurements made
//! outside the phase spans, and it runs extra per-layer measurements
//! (plain VM run, pipelined profile, replay at one job, trace decode,
//! reference engine, query-cache hit) outside them too.

use crate::spans::Recorder;
use lowutil::analyses::{
    dead_value_metrics, low_utility_report_batch, rank_structures_batch, rank_structures_with,
    render_report, BatchAnalyzer, CacheKey, CostBenefitConfig, EngineChoice, QueryCache,
    ReferenceEngine,
};
use lowutil::core::{
    canonical_order, content_hash, read_snapshot, write_snapshot, AlignedBuf, CostGraph,
    CostGraphConfig, CostProfiler, CsrGraph,
};
use lowutil::ir::{parse_program, Program};
use lowutil::par::{replay_gcost, run_pipelined, PipelineOptions};
use lowutil::vm::{
    CountingSink, NullTracer, RunConfig, RunOutcome, SinkTracer, TraceReader, TraceWriter, Vm,
};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// The report's `--top` default.
const TOP: usize = 10;

/// One input program, as `.lu` source.
pub struct Input {
    pub name: String,
    pub source: String,
}

/// Attempted and failed operations; a failed check is a failed
/// operation.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts `n` operations that succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

pub struct Offline<'a> {
    pub inputs: &'a [Input],
    /// Worker count for replay and ranking, the CLI's `--jobs` default.
    pub jobs: usize,
    pub sched_seed: u64,
    /// Snapshot encodes, and decode-rank-renders, per input per pass;
    /// the snapshot metrics take the fastest. On graphs of a few hundred
    /// nodes one repetition takes tens to hundreds of microseconds, and
    /// ranking hands work to a second thread, so a single repetition
    /// mostly times how soon the other core is free.
    pub snap_reps: usize,
    pub dir: PathBuf,
}

fn vm<'p>(p: &'p Program, sched_seed: u64) -> Vm<'p> {
    Vm::with_config(
        p,
        RunConfig {
            sched_seed,
            ..RunConfig::default()
        },
    )
}

fn parse(src: &str) -> Result<Program, String> {
    parse_program(src).map_err(|e| e.to_string())
}

impl Offline<'_> {
    /// Runs one pass over the inputs in `order`.
    pub fn pass(&self, order: &[usize], rec: &mut Recorder, tally: &mut Tally) {
        for &i in order {
            let input = &self.inputs[i];
            rec.set_input(&input.name);
            if let Err(e) = self.one(input, rec, tally) {
                tally.check(false, || format!("{}: {e}", input.name));
            }
        }
        rec.end_pass();
    }

    fn one(&self, input: &Input, rec: &mut Recorder, tally: &mut Tally) -> Result<(), String> {
        let src = input.source.as_str();
        let cfg = CostGraphConfig::default();
        let ccfg = CostBenefitConfig::default();
        let traced = rec.on;

        // Extra, outside the phases: the plain run that splits profiled
        // and recording runs into VM time and observer time.
        let plain_s = if traced {
            let p = parse(src)?;
            let t = Instant::now();
            let out = vm(&p, self.sched_seed)
                .run(&mut NullTracer)
                .map_err(|e| e.to_string())?;
            let s = t.elapsed().as_secs_f64();
            rec.add("vm.plain", s);
            rec.add("instructions", out.instructions_executed as f64);
            rec.add("lines", src.lines().count() as f64);
            s
        } else {
            0.0
        };

        // report: parse, profiled run, rank, render.
        let (live, g, out, profiled_s) = rec.phase("report", |rec| -> Result<_, String> {
            let p = rec.layer("ir", || parse(src))?;
            let t = Instant::now();
            let mut prof = CostProfiler::new(&p, cfg);
            let out = vm(&p, self.sched_seed)
                .run(&mut prof)
                .map_err(|e| e.to_string())?;
            let g = prof.finish();
            let profiled_s = t.elapsed().as_secs_f64();
            if traced {
                let v = plain_s.min(profiled_s);
                rec.charge("vm.interp", v);
                rec.charge("core.gcost", profiled_s - v);
            }
            let dead = rec.layer("analyses.dead", || {
                dead_value_metrics(&g, out.instructions_executed)
            });
            let text = rec.layer("analyses", || {
                low_utility_report_batch(&p, &g, &ccfg, TOP, Some(&dead), self.jobs)
            });
            Ok((text, g, out, profiled_s))
        })?;
        tally.check(!live.is_empty(), || format!("{}: empty report", input.name));
        let analyses = if traced {
            self.analyses_parts(input, &g, &out, &live, tally)?
        } else {
            Vec::new()
        };
        rec.split("report", "analyses", &analyses);

        // record: parse, run under the trace writer.
        let (trace, stats) = rec.phase("record", |rec| -> Result<_, String> {
            let p = rec.layer("ir", || parse(src))?;
            let t = Instant::now();
            let mut tracer = SinkTracer(TraceWriter::new(Vec::new()));
            let rout = vm(&p, self.sched_seed)
                .run(&mut tracer)
                .map_err(|e| e.to_string())?;
            let (bytes, stats) = tracer.0.finish().map_err(|e| e.to_string())?;
            if traced {
                let s = t.elapsed().as_secs_f64();
                let v = plain_s.min(s);
                rec.charge("vm.interp", v);
                rec.charge("vm.trace", s - v);
            }
            Ok((bytes, (stats, rout.instructions_executed)))
        })?;
        let (stats, rec_instr) = stats;
        tally.check(
            stats.instructions == out.instructions_executed && rec_instr == stats.instructions,
            || format!("{}: recorded instruction count differs", input.name),
        );
        rec.add("trace_bytes", trace.len() as f64);
        rec.add("trace_instructions", stats.instructions as f64);

        // replay: parse, trace to G_cost at the default --jobs, report.
        let replayed = rec.phase("replay", |rec| -> Result<_, String> {
            let p = rec.layer("ir", || parse(src))?;
            let (g2, instr) = rec.layer("par.replay", || -> Result<_, String> {
                let reader = TraceReader::new(&trace).map_err(|e| e.to_string())?;
                let g2 = replay_gcost(&p, cfg, &reader, self.jobs).map_err(|e| e.to_string())?;
                Ok((g2, reader.trailer().instructions))
            })?;
            let dead = rec.layer("analyses.dead", || dead_value_metrics(&g2, instr));
            Ok(rec.layer("analyses", || {
                low_utility_report_batch(&p, &g2, &ccfg, TOP, Some(&dead), self.jobs)
            }))
        })?;
        tally.check(replayed == live, || {
            format!("{}: replay report differs from live report", input.name)
        });
        rec.split("replay", "analyses", &analyses);

        // snapshot save: G_cost to snapshot bytes. The file is written
        // once, untimed: write latency on an overlay filesystem varies
        // twofold between passes and would drown the encoder.
        let snap_path = self.dir.join("offline.snap");
        let csr_s = if traced {
            let t = Instant::now();
            black_box(CsrGraph::build_ordered(
                g.graph(),
                &canonical_order(g.graph()),
            ));
            t.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let reps = self.snap_reps.max(1);
        let mut buf = Vec::new();
        rec.phase("snapshot_save", |rec| -> Result<(), String> {
            let t = Instant::now();
            let mut fastest = f64::INFINITY;
            for _ in 0..reps {
                let r = Instant::now();
                buf.clear();
                write_snapshot(&g, out.instructions_executed, &mut buf)
                    .map_err(|e| e.to_string())?;
                fastest = fastest.min(r.elapsed().as_secs_f64());
            }
            rec.add_per_input("snapshot_save.one", fastest);
            if traced {
                let s = t.elapsed().as_secs_f64();
                let c = (csr_s * reps as f64).min(s);
                rec.charge("core.csr", c);
                rec.charge("core.store", s - c);
            }
            Ok(())
        })?;
        std::fs::write(&snap_path, &buf).map_err(|e| e.to_string())?;
        let saved = buf.len();
        rec.add("store_bytes", saved as f64);

        // snapshot load: parse, read the file, then decode, rank over the
        // loaded CSR and render. Only the last three repeat: the parse is
        // timed in every phase before this one, and small-file reads on
        // an overlay filesystem vary far more than the work they feed.
        let loaded = rec.phase("snapshot_report", |rec| -> Result<String, String> {
            let t = Instant::now();
            let p = rec.layer("ir", || parse(src))?;
            let buf = rec
                .layer("core.store", || AlignedBuf::load(&snap_path))
                .map_err(|e| e.to_string())?;
            let once = t.elapsed().as_secs_f64();
            let mut fastest = f64::INFINITY;
            let mut text = String::new();
            for _ in 0..reps {
                let r = Instant::now();
                let snap = rec
                    .layer("core.store", || read_snapshot(&buf))
                    .map_err(|e| e.to_string())?;
                let gcost = rec.layer("core.store", || snap.to_cost_graph());
                let ranked = rec.layer("analyses.rank", || {
                    let engine = BatchAnalyzer::with_csr(snap.csr().clone(), self.jobs);
                    rank_structures_with(&gcost, &ccfg, &engine, self.jobs)
                });
                let dead = rec.layer("analyses.dead", || {
                    dead_value_metrics(&gcost, snap.total_instructions())
                });
                text = rec.layer("analyses.render", || {
                    render_report(&p, &ranked, TOP, Some(&dead))
                });
                fastest = fastest.min(r.elapsed().as_secs_f64());
            }
            rec.add_per_input("snapshot_report.one", once + fastest);
            Ok(text)
        })?;
        tally.check(loaded == live, || {
            format!("{}: snapshot report differs from live report", input.name)
        });

        if traced {
            rec.add("core.csr.build", csr_s);
            rec.add("gcost_nodes", g.graph().num_nodes() as f64);
            rec.add("gcost_edges", g.graph().num_edges() as f64);
            rec.add("profiled", profiled_s);
            self.extras(input, &g, &out, &trace, &live, rec, tally)?;
        }
        Ok(())
    }

    /// The parts of `low_utility_report_batch`, timed one by one on the
    /// same graph: the CSR build (when the engine the report builds uses
    /// one), the rest of ranking, and rendering. They split the report's
    /// `analyses` span.
    fn analyses_parts(
        &self,
        input: &Input,
        g: &CostGraph,
        out: &RunOutcome,
        live: &str,
        tally: &mut Tally,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let p = parse(&input.source)?;
        let dead = dead_value_metrics(g, out.instructions_executed);
        let csr_s = if BatchAnalyzer::new(g, self.jobs).uses_snapshot() {
            let t = Instant::now();
            black_box(CsrGraph::build(g.graph()));
            t.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let t = Instant::now();
        let ranked = rank_structures_batch(g, &CostBenefitConfig::default(), self.jobs);
        let rank_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let text = render_report(&p, &ranked, TOP, Some(&dead));
        let render_s = t.elapsed().as_secs_f64();
        tally.check(text == live, || {
            format!(
                "{}: report from its parts differs from live report",
                input.name
            )
        });
        Ok(vec![
            ("core.csr", csr_s),
            ("analyses.rank", (rank_s - csr_s).max(0.0)),
            ("analyses.render", render_s),
        ])
    }

    /// Per-layer measurements with no end-to-end phase of their own.
    #[allow(clippy::too_many_arguments)]
    fn extras(
        &self,
        input: &Input,
        g: &CostGraph,
        out: &RunOutcome,
        trace: &[u8],
        live: &str,
        rec: &mut Recorder,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let cfg = CostGraphConfig::default();
        let ccfg = CostBenefitConfig::default();
        let p = parse(&input.source)?;
        let hash = content_hash(g);

        // Pipelined profiling on one worker per core, against the
        // sequential profile timed in the report phase.
        let opts = PipelineOptions {
            jobs: self.jobs,
            ..PipelineOptions::default()
        };
        let t = Instant::now();
        let (r, gp) = run_pipelined(&p, cfg, &opts, |tr| vm(&p, self.sched_seed).run(tr));
        rec.add("par.pipeline", t.elapsed().as_secs_f64());
        r.map_err(|e| e.to_string())?;
        tally.check(content_hash(&gp) == hash, || {
            format!("{}: pipelined graph differs from live graph", input.name)
        });

        // Replay on one worker and on the default worker count.
        let reader = TraceReader::new(trace).map_err(|e| e.to_string())?;
        for (key, jobs) in [("par.replay.jobs1", 1), ("par.replay.jobsN", self.jobs)] {
            let t = Instant::now();
            let gr = replay_gcost(&p, cfg, &reader, jobs).map_err(|e| e.to_string())?;
            rec.add(key, t.elapsed().as_secs_f64());
            tally.check(content_hash(&gr) == hash, || {
                format!("{}: replay at {jobs} jobs differs", input.name)
            });
        }

        // Trace decode alone: validate and walk every event.
        let t = Instant::now();
        let reader = TraceReader::new(trace).map_err(|e| e.to_string())?;
        let mut sink = CountingSink::new();
        reader.replay(&mut sink).map_err(|e| e.to_string())?;
        rec.add("vm.trace.decode", t.elapsed().as_secs_f64());

        // The reference engine on the same graph.
        let dead = dead_value_metrics(g, out.instructions_executed);
        let t = Instant::now();
        let ranked = rank_structures_with(g, &ccfg, &ReferenceEngine::new(g), 1);
        rec.add("analyses.reference_rank", t.elapsed().as_secs_f64());
        tally.check(render_report(&p, &ranked, TOP, Some(&dead)) == live, || {
            format!("{}: reference engine report differs", input.name)
        });

        // A warm query-cache hit.
        let cache = QueryCache::new(self.dir.join("qcache"));
        let key = CacheKey::new(hash, EngineChoice::Batch, &ccfg);
        cache.store(&key, &ranked).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let hit = cache.load(&key);
        rec.add("analyses.qcache.hit", t.elapsed().as_secs_f64());
        tally.check(
            hit.is_some_and(|h| render_report(&p, &h, TOP, Some(&dead)) == live),
            || format!("{}: query-cache hit differs", input.name),
        );
        Ok(())
    }
}
