//! The serve path: an in-process daemon started with `Server::start`
//! on loopback TCP, fed recorded sessions under open-loop load, then
//! drained by a closed loop, then checked against an offline merge.

use crate::gen::{Arrival, Op, QueryKind, Rng};
use crate::offline::Tally;
use crate::spans::Recorder;
use crate::stats::median;
use lowutil::analyses::IncrementalAnalyzer;
use lowutil::core::{
    content_hash, Aggregate, CostGraph, CostGraphConfig, GraphBuilder, IncrementalCsr,
};
use lowutil::ir::parse_program;
use lowutil::serve::{push_trace, request, Handle, ServeConfig, Server};
use lowutil::vm::{CountingSink, RunConfig, SinkTracer, StreamingReader, TraceWriter, Vm};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// The daemon's accept loop polls every 20 ms. Closed-loop clients
/// sleep a uniform draw from one poll period before each request so
/// their timing does not lock to the poll.
const POLL_S: f64 = 0.020;

/// The daemon's socket read size, used to feed the replica identically.
const CHUNK: usize = 64 << 10;

/// One recorded session: a trace of one run of one program, plus the
/// cost graph an offline replay builds from it.
pub struct Session {
    pub program: usize,
    pub trace: Vec<u8>,
    pub graph: CostGraph,
    pub instructions: u64,
}

/// The traffic mix: programs (name and source), recorded sessions, and
/// aggregates as `(tenant, program)`.
pub struct Mix {
    pub programs: Vec<(String, String)>,
    pub sessions: Vec<Session>,
    pub keys: Vec<(String, usize)>,
    pub sessions_of_key: Vec<Vec<usize>>,
}

impl Mix {
    /// Records `variants` sessions per program (each with its own
    /// `rand` and scheduler seed) and spreads every program over
    /// `tenants` tenants.
    pub fn record(
        programs: Vec<(String, String)>,
        variants: u64,
        tenants: usize,
        seed: u64,
    ) -> Result<Mix, String> {
        let mut sessions = Vec::new();
        let mut of_program = vec![Vec::new(); programs.len()];
        for (pi, (name, src)) in programs.iter().enumerate() {
            let p = parse_program(src).map_err(|e| format!("{name}: {e}"))?;
            for v in 0..variants {
                // The VM treats `rand` seeds 0 and 1 alike.
                let run = RunConfig {
                    seed: v + 2,
                    sched_seed: seed.wrapping_add(v),
                    ..RunConfig::default()
                };
                let mut tracer = SinkTracer(TraceWriter::new(Vec::new()));
                let out = Vm::with_config(&p, run)
                    .run(&mut tracer)
                    .map_err(|e| format!("{name}: {e}"))?;
                let (trace, _) = tracer.0.finish().map_err(|e| e.to_string())?;
                let mut sr = StreamingReader::new();
                let mut b = GraphBuilder::new(&p, CostGraphConfig::default());
                sr.feed(&trace, &mut b).map_err(|e| e.to_string())?;
                sr.finish().map_err(|e| e.to_string())?;
                of_program[pi].push(sessions.len());
                sessions.push(Session {
                    program: pi,
                    trace,
                    graph: b.finish(),
                    instructions: out.instructions_executed,
                });
            }
        }
        let mut keys = Vec::new();
        let mut sessions_of_key = Vec::new();
        for t in 0..tenants {
            for (pi, s) in of_program.iter().enumerate() {
                keys.push((format!("t{t}"), pi));
                sessions_of_key.push(s.clone());
            }
        }
        Ok(Mix {
            programs,
            sessions,
            keys,
            sessions_of_key,
        })
    }

    fn program_name(&self, key: usize) -> &str {
        &self.programs[self.keys[key].1].0
    }
}

/// A running daemon over a mix, with the sessions it acknowledged.
pub struct Daemon {
    handle: Handle,
    addr: String,
    dir: PathBuf,
    /// `(key, session)` for every acknowledged push, in ack order.
    acked: Mutex<Vec<(usize, usize)>>,
    ids: AtomicUsize,
}

impl Daemon {
    /// Writes the mix's programs where the daemon resolves them, starts
    /// it, and pushes one session into every aggregate so that queries
    /// always find one.
    pub fn start(mix: &Mix, dir: &Path, clients: usize) -> Result<Daemon, String> {
        let programs_dir = dir.join("programs");
        std::fs::create_dir_all(&programs_dir).map_err(|e| e.to_string())?;
        for (name, src) in &mix.programs {
            std::fs::write(programs_dir.join(format!("{name}.lu")), src)
                .map_err(|e| e.to_string())?;
        }
        let handle = Server::start(ServeConfig {
            data_dir: dir.join("data"),
            listen: "127.0.0.1:0".to_string(),
            programs_dir: Some(programs_dir),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("serve: {e}"))?;
        let d = Daemon {
            addr: handle.addr().to_string(),
            handle,
            dir: dir.to_path_buf(),
            acked: Mutex::new(Vec::new()),
            ids: AtomicUsize::new(0),
        };
        let next = AtomicUsize::new(0);
        let failed = AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..clients {
                s.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::SeqCst);
                    if k >= mix.keys.len() {
                        break;
                    }
                    if d.push(mix, k, mix.sessions_of_key[k][0]).is_err() {
                        failed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        match failed.into_inner() {
            0 => Ok(d),
            n => {
                d.stop();
                Err(format!("{n} set-up pushes were not acknowledged"))
            }
        }
    }

    /// Pushes one session; `Ok` only for an `ok` acknowledgement.
    fn push(&self, mix: &Mix, key: usize, session: usize) -> Result<(), String> {
        let id = format!("s{}", self.ids.fetch_add(1, Ordering::SeqCst));
        let tenant = &mix.keys[key].0;
        let r = push_trace(
            &self.addr,
            tenant,
            mix.program_name(key),
            &id,
            &mix.sessions[session].trace,
        )
        .map_err(|e| e.to_string())?;
        if !r.starts_with(&format!("ok session={id} ")) {
            return Err(format!("push answered `{}`", r.trim_end()));
        }
        self.acked
            .lock()
            .expect("ack list lock poisoned")
            .push((key, session));
        Ok(())
    }

    fn query(&self, mix: &Mix, key: usize, kind: QueryKind) -> Result<(), String> {
        let line = format!(
            "query {} {} {}",
            mix.keys[key].0,
            mix.program_name(key),
            kind.word()
        );
        let r = request(&self.addr, &line).map_err(|e| e.to_string())?;
        let ok = match kind {
            QueryKind::Hash => r.starts_with("hash "),
            QueryKind::Stats => r.starts_with("stats sessions="),
            QueryKind::Rank => r.lines().last().is_some_and(|l| l.starts_with("end ")),
            QueryKind::Report => r.ends_with("end\n"),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "`{line}` answered `{}`",
                r.lines().next().unwrap_or("")
            ))
        }
    }

    pub fn acked(&self) -> Vec<(usize, usize)> {
        self.acked.lock().expect("ack list lock poisoned").clone()
    }

    /// Checks each aggregate's content hash against an offline merge of
    /// exactly the sessions the daemon acknowledged.
    pub fn check_hashes(&self, mix: &Mix, tally: &mut Tally) {
        let acked = self.acked();
        for key in 0..mix.keys.len() {
            let mut agg = Aggregate::new();
            for &(_, s) in acked.iter().filter(|(k, _)| *k == key) {
                agg.absorb(&mix.sessions[s].graph, mix.sessions[s].instructions);
            }
            let want = format!(
                "hash {:016x} sessions={}\n",
                content_hash(&agg.to_cost_graph()),
                agg.sessions()
            );
            let line = format!("query {} {} hash", mix.keys[key].0, mix.program_name(key));
            let got = request(&self.addr, &line).unwrap_or_else(|e| e.to_string());
            tally.check(got == want, || {
                format!(
                    "{line}: daemon `{}`, offline `{}`",
                    got.trim_end(),
                    want.trim_end()
                )
            });
        }
    }

    pub fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Latency samples from the open-loop phase, in milliseconds.
#[derive(Debug, Default)]
pub struct OpenLoop {
    pub push_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub inflight_max: usize,
    /// `(key, session)` of each acknowledged open-loop push.
    pub pushed: Vec<(usize, usize)>,
}

/// Replays `schedule` against the daemon with at most `clients`
/// requests in flight. A request that falls due while every client is
/// busy waits, and its latency counts from when it fell due.
pub fn open_loop(
    d: &Daemon,
    mix: &Mix,
    schedule: &[Arrival],
    clients: usize,
    tally: &mut Tally,
) -> OpenLoop {
    let next = AtomicUsize::new(0);
    let inflight = AtomicUsize::new(0);
    let result = Mutex::new((OpenLoop::default(), Vec::<String>::new()));
    let start = Instant::now();
    thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(a) = schedule.get(i) else { break };
                let due = start + Duration::from_secs_f64(a.due_s);
                if let Some(w) = due.checked_duration_since(Instant::now()) {
                    thread::sleep(w);
                }
                let began = Instant::now();
                let n = inflight.fetch_add(1, Ordering::SeqCst) + 1;
                let res = match a.op {
                    Op::Push { session, key } => d.push(mix, key, session),
                    Op::Query { kind, key } => d.query(mix, key, kind),
                };
                inflight.fetch_sub(1, Ordering::SeqCst);
                let ms = due.elapsed().as_secs_f64() * 1e3;
                let late = began.saturating_duration_since(due).as_secs_f64() * 1e3;
                let mut r = result.lock().expect("result lock poisoned");
                r.0.inflight_max = r.0.inflight_max.max(n);
                r.0.late_ms.push(late);
                match (a.op, res) {
                    (_, Err(e)) => r.1.push(e),
                    (Op::Push { session, key }, Ok(())) => {
                        r.0.push_ms.push(ms);
                        r.0.pushed.push((key, session));
                    }
                    (Op::Query { .. }, Ok(())) => r.0.query_ms.push(ms),
                }
            });
        }
    });
    let (out, errors) = result.into_inner().expect("result lock poisoned");
    tally.passed((out.push_ms.len() + out.query_ms.len()) as u64);
    for e in errors {
        tally.check(false, || e);
    }
    out
}

/// `clients` closed-loop clients push back to back for `seconds`, each
/// sleeping a uniform draw from one accept-poll period first. They take
/// turns through one seeded order of every (aggregate, session) pair, so
/// the mix of small and large sessions is the same for every seed.
/// Returns acknowledged sessions per second.
pub fn drain(
    d: &Daemon,
    mix: &Mix,
    clients: usize,
    seconds: f64,
    seed: u64,
    tally: &mut Tally,
) -> f64 {
    let mut order: Vec<(usize, usize)> = mix
        .sessions_of_key
        .iter()
        .enumerate()
        .flat_map(|(key, ss)| ss.iter().map(move |&s| (key, s)))
        .collect();
    Rng::new(seed ^ 0xd7a1).shuffle(&mut order);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let outcomes = Mutex::new((0usize, Vec::<String>::new(), start));
    thread::scope(|s| {
        for c in 0..clients {
            let (outcomes, order, next) = (&outcomes, &order, &next);
            s.spawn(move || {
                let mut rng = Rng::new(seed ^ (0xd7a2 + c as u64));
                while Instant::now() < stop {
                    thread::sleep(Duration::from_secs_f64(rng.unit() * POLL_S));
                    let (key, session) = order[next.fetch_add(1, Ordering::Relaxed) % order.len()];
                    let res = d.push(mix, key, session);
                    let mut o = outcomes.lock().expect("drain lock poisoned");
                    match res {
                        Ok(()) => o.0 += 1,
                        Err(e) => o.1.push(e),
                    }
                    o.2 = Instant::now();
                }
            });
        }
    });
    let (acked, errors, last) = outcomes.into_inner().expect("drain lock poisoned");
    tally.passed(acked as u64);
    for e in errors {
        tally.check(false, || e);
    }
    acked as f64 / last.duration_since(start).as_secs_f64().max(1e-9)
}

/// Median latency of `n` bare `stats` requests, each after a uniform
/// draw from one accept-poll period: roughly the accept wait plus a
/// thread spawn.
pub fn stats_probe(d: &Daemon, n: usize, seed: u64, tally: &mut Tally) -> f64 {
    let mut rng = Rng::new(seed ^ 0x57a7);
    let mut ms = Vec::with_capacity(n);
    for _ in 0..n {
        thread::sleep(Duration::from_secs_f64(rng.unit() * POLL_S));
        let t = Instant::now();
        let r = request(&d.addr, "stats");
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally.check(
            r.as_ref().is_ok_and(|r| r.starts_with("ok tenants=")),
            || format!("bare stats answered {r:?}"),
        );
    }
    median(&ms).unwrap_or(0.0)
}

/// Runs each open-loop push's bytes through the calls the daemon makes
/// for it, in ack order, on a replica of each aggregate that starts from
/// the sessions pushed before the open loop. Returns a one-pass recorder
/// holding each layer's per-session median, charged to phase `push`.
pub fn replica(
    mix: &Mix,
    before: &[(usize, usize)],
    pushed: &[(usize, usize)],
    dir: &Path,
) -> Recorder {
    let mut rec = Recorder::new(true);
    let snap_path = dir.join("replica.snap");
    let cfg = CostGraphConfig::default();
    let programs: Vec<_> = mix
        .programs
        .iter()
        .map(|(_, src)| parse_program(src).expect("mix programs parsed at set-up"))
        .collect();
    struct Replica {
        agg: Aggregate,
        inc: IncrementalCsr,
        rank: IncrementalAnalyzer,
    }
    let mut replicas: Vec<Option<Replica>> = (0..mix.keys.len()).map(|_| None).collect();
    for &(key, s) in before {
        let session = &mix.sessions[s];
        let r = replicas[key].get_or_insert_with(|| {
            let agg = Aggregate::new();
            let inc = IncrementalCsr::new(&agg);
            let rank = IncrementalAnalyzer::new(&inc, 1);
            Replica { agg, inc, rank }
        });
        let delta = r.agg.absorb(&session.graph, session.instructions);
        let dirty = r.inc.apply(&r.agg, &delta);
        r.rank.refresh(&r.inc, &dirty, 1);
    }
    let mut layers: [Vec<f64>; 5] = Default::default();
    let mut delta_nodes = Vec::new();
    let mut bytes = 0usize;
    for &(key, s) in pushed {
        let session = &mix.sessions[s];
        let p = &programs[session.program];
        let t = Instant::now();
        let mut sr = StreamingReader::new();
        let mut count = CountingSink::new();
        for c in session.trace.chunks(CHUNK) {
            sr.feed(c, &mut count).expect("acknowledged trace streams");
        }
        let stream = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut sr = StreamingReader::new();
        let mut b = GraphBuilder::new(p, cfg);
        for c in session.trace.chunks(CHUNK) {
            sr.feed(c, &mut b).expect("acknowledged trace streams");
        }
        let trailer = sr.finish().expect("acknowledged trace has a trailer");
        let g = b.finish();
        let build = (t.elapsed().as_secs_f64() - stream).max(0.0);
        let r = replicas[key]
            .as_mut()
            .expect("every aggregate was seeded before the open loop");
        let t = Instant::now();
        let delta = r.agg.absorb(&g, trailer.instructions);
        let dirty = r.inc.apply(&r.agg, &delta);
        let absorb = t.elapsed().as_secs_f64();
        let t = Instant::now();
        r.rank.refresh(&r.inc, &dirty, 1);
        let refresh = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut buf = Vec::new();
        r.inc
            .write_snapshot(r.agg.total_instructions(), &mut buf)
            .expect("writing to memory cannot fail");
        let _ = std::fs::write(&snap_path, &buf);
        let write = t.elapsed().as_secs_f64();
        bytes += session.trace.len();
        delta_nodes.push(delta.new_nodes.len() as f64);
        for (v, x) in layers
            .iter_mut()
            .zip([stream, build, absorb, refresh, write])
        {
            v.push(x);
        }
    }
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let stream_total: f64 = layers[0].iter().sum();
    rec.add("vm.stream.feed", med(&layers[0]));
    rec.add(
        "vm.stream.mb_per_s",
        bytes as f64 / 1e6 / stream_total.max(1e-12),
    );
    rec.add("push:vm.stream", med(&layers[0]));
    rec.add("push:core.gcost", med(&layers[1]));
    rec.add("push:core.incr", med(&layers[2]));
    rec.add("push:analyses", med(&layers[3]));
    rec.add("push:core.incr.write", med(&layers[4]));
    rec.add("core.incr.absorb", med(&layers[2]));
    rec.add("core.incr.write", med(&layers[4]));
    // Most absorbs change only frequencies; the mean shows how many
    // nodes the structural ones add.
    let n = delta_nodes.len().max(1) as f64;
    rec.add("core.incr.delta_nodes", delta_nodes.iter().sum::<f64>() / n);
    rec.end_pass();
    rec
}
