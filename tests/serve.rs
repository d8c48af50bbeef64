//! Session-lifecycle tests for `lowutil serve`: ingest over TCP and
//! unix sockets, spool-directory pickup, aggregate persistence across
//! restarts, request latency and stop wake-up of the blocking accept
//! threads, the `snapshot verify` corruption sweep, and query-cache GC
//! through the CLI.

use lowutil::core::{content_hash, replay_cost_graph, Aggregate, CostGraphConfig};
use lowutil::ir::Program;
use lowutil::serve::{push_trace, request, spool_paths, ServeConfig, Server};
use lowutil::vm::{RunConfig, SinkTracer, TraceReader, TraceWriter, Vm};
use lowutil::workloads::{workload, WorkloadSize};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lowutil-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn record(program: &Program, segment_limit: usize, sched_seed: u64) -> Vec<u8> {
    let mut tracer = SinkTracer(TraceWriter::with_segment_limit(Vec::new(), segment_limit));
    Vm::with_config(
        program,
        RunConfig {
            sched_seed,
            ..RunConfig::default()
        },
    )
    .run(&mut tracer)
    .expect("workload runs");
    let (bytes, _) = tracer.0.finish().expect("trace finishes");
    bytes
}

fn test_config(data: PathBuf) -> ServeConfig {
    ServeConfig {
        data_dir: data,
        default_size: WorkloadSize::Small,
        idle_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    }
}

/// The offline sequential merge the daemon must reproduce.
fn offline_hash(program: &Program, traces: &[Vec<u8>]) -> u64 {
    let mut agg = Aggregate::new();
    for bytes in traces {
        let reader = TraceReader::new(bytes).expect("clean trace");
        let g = replay_cost_graph(program, CostGraphConfig::default(), &reader).unwrap();
        agg.absorb(&g, reader.trailer().instructions);
    }
    content_hash(&agg.to_cost_graph())
}

#[test]
fn tcp_ingest_lifecycle_and_restart_persistence() {
    let data = tmpdir("life");
    let w = workload("antlr", WorkloadSize::Small);
    let trace = record(&w.program, 256, 0);
    let expect1 = offline_hash(&w.program, std::slice::from_ref(&trace));
    let expect2 = offline_hash(&w.program, &[trace.clone(), trace.clone()]);

    let handle = Server::start(test_config(data.clone())).unwrap();
    let addr = handle.addr().to_string();

    let resp = push_trace(&addr, "acme", "antlr@small", "s1", &trace).unwrap();
    assert!(resp.starts_with("ok "), "push: {resp}");
    assert!(resp.contains("sessions=1"), "{resp}");
    let hash_line = request(&addr, "query acme antlr@small hash").unwrap();
    assert_eq!(
        hash_line.trim(),
        format!("hash {expect1:016x} sessions=1"),
        "daemon hash matches the offline merge"
    );

    // A corrupt session is rejected and leaves the aggregate untouched.
    let resp = push_trace(
        &addr,
        "acme",
        "antlr@small",
        "bad",
        &trace[..trace.len() / 3],
    )
    .unwrap();
    assert!(resp.starts_with("rejected "), "truncated push: {resp}");
    assert_eq!(
        request(&addr, "query acme antlr@small hash")
            .unwrap()
            .trim(),
        format!("hash {expect1:016x} sessions=1")
    );

    // Unknown programs and bad names are rejected outright.
    let resp = push_trace(&addr, "acme", "nosuch", "x", &trace).unwrap();
    assert!(resp.starts_with("rejected "), "{resp}");
    let resp = push_trace(&addr, "../etc", "antlr@small", "x", &trace).unwrap();
    assert!(resp.starts_with("rejected "), "{resp}");

    // Queries keep working while the aggregate grows.
    let resp = push_trace(&addr, "acme", "antlr@small", "s2", &trace).unwrap();
    assert!(resp.contains("sessions=2"), "{resp}");
    let stats = request(&addr, "query acme antlr@small stats").unwrap();
    assert!(stats.contains("sessions=2"), "{stats}");
    assert!(stats.contains(&format!("hash={expect2:016x}")), "{stats}");
    let rank = request(&addr, "query acme antlr@small rank 5").unwrap();
    assert!(rank.lines().last().unwrap().starts_with("end "), "{rank}");
    let report = request(&addr, "query acme antlr@small report 3").unwrap();
    assert!(report.contains("low-utility data structures"), "{report}");
    let diff = request(&addr, "query acme antlr@small diff acme antlr@small").unwrap();
    assert!(diff.contains("regression=0"), "self-diff is clean: {diff}");

    // The shutdown request stops the daemon...
    let resp = request(&addr, "shutdown").unwrap();
    assert!(resp.starts_with("ok "), "{resp}");
    handle.wait();

    // ...and a fresh daemon on the same data dir restores the aggregate
    // from its persisted snapshot: same content hash, no re-ingestion.
    let handle = Server::start(test_config(data.clone())).unwrap();
    let addr = handle.addr().to_string();
    let hash_line = request(&addr, "query acme antlr@small hash").unwrap();
    assert!(
        hash_line.starts_with(&format!("hash {expect2:016x}")),
        "restart restores the aggregate: {hash_line}"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn spool_directory_ingestion() {
    let data = tmpdir("spool-data");
    let spool = tmpdir("spool-in");
    std::fs::create_dir_all(&spool).unwrap();
    let w = workload("chart", WorkloadSize::Small);
    let trace = record(&w.program, 256, 0);
    let expect = offline_hash(&w.program, std::slice::from_ref(&trace));

    let cfg = ServeConfig {
        spool_dir: Some(spool.clone()),
        ..test_config(data.clone())
    };
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr().to_string();

    let (trace_path, resp_path) = spool_paths(&spool, "acme", "chart@small", "job1");
    std::fs::create_dir_all(trace_path.parent().unwrap()).unwrap();
    std::fs::write(&trace_path, &trace).unwrap();
    // Also drop a corrupt file: it must land in `.rejected`, not the
    // aggregate.
    let (bad_path, bad_resp) = spool_paths(&spool, "acme", "chart@small", "job2");
    std::fs::write(&bad_path, &trace[..trace.len() / 2]).unwrap();

    let deadline = Instant::now() + Duration::from_secs(20);
    while (!resp_path.exists() || !bad_resp.exists()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    let resp = std::fs::read_to_string(&resp_path).expect("spool file was processed");
    assert!(resp.starts_with("ok "), "{resp}");
    assert!(trace_path.with_extension("done").exists());
    let resp = std::fs::read_to_string(&bad_resp).expect("bad spool file was processed");
    assert!(resp.starts_with("rejected "), "{resp}");
    assert!(bad_path.with_extension("rejected").exists());

    let hash_line = request(&addr, "query acme chart@small hash").unwrap();
    assert_eq!(hash_line.trim(), format!("hash {expect:016x} sessions=1"));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
    let _ = std::fs::remove_dir_all(&spool);
}

#[cfg(unix)]
#[test]
fn unix_socket_ingestion() {
    let data = tmpdir("unix-data");
    let sock = std::env::temp_dir().join(format!("lowutil-serve-{}.sock", std::process::id()));
    let w = workload("fop", WorkloadSize::Small);
    let trace = record(&w.program, 256, 0);
    let expect = offline_hash(&w.program, std::slice::from_ref(&trace));

    let cfg = ServeConfig {
        unix_socket: Some(sock.clone()),
        ..test_config(data.clone())
    };
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr().to_string();

    let mut s = std::os::unix::net::UnixStream::connect(&sock).unwrap();
    s.write_all(b"ingest acme fop@small u1\n").unwrap();
    s.write_all(&trace).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("ok "), "unix ingest: {resp}");

    let hash_line = request(&addr, "query acme fop@small hash").unwrap();
    assert_eq!(hash_line.trim(), format!("hash {expect:016x} sessions=1"));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
    let _ = std::fs::remove_file(&sock);
}

#[cfg(unix)]
fn unix_request(sock: &Path, line: &str) -> String {
    let mut s = std::os::unix::net::UnixStream::connect(sock).unwrap();
    s.write_all(format!("{line}\n").as_bytes()).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    resp
}

/// Runs `f` on a helper thread; the receiver hears when it returns, so a
/// stop that hangs fails through `recv_timeout` instead of hanging the
/// test.
fn on_helper(f: impl FnOnce() + Send + 'static) -> mpsc::Receiver<()> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx
}

/// The accept threads block in `accept()`, so a request is served the
/// moment it arrives and 100 sequential requests take milliseconds. The
/// 1 s bound fails any accept path that waits 10 ms or more per request.
#[cfg(unix)]
#[test]
fn back_to_back_requests_do_not_wait() {
    let data = tmpdir("b2b-data");
    let sock = std::env::temp_dir().join(format!("lowutil-b2b-{}.sock", std::process::id()));
    let cfg = ServeConfig {
        unix_socket: Some(sock.clone()),
        ..test_config(data.clone())
    };
    let handle = Server::start(cfg).unwrap();
    let addr = handle.addr().to_string();

    let t = Instant::now();
    for _ in 0..100 {
        let resp = request(&addr, "stats").unwrap();
        assert!(resp.starts_with("ok "), "{resp}");
    }
    let tcp = t.elapsed();
    let t = Instant::now();
    for _ in 0..100 {
        let resp = unix_request(&sock, "stats");
        assert!(resp.starts_with("ok "), "{resp}");
    }
    let unix = t.elapsed();
    handle.shutdown();
    assert!(
        tcp < Duration::from_secs(1),
        "100 TCP requests took {tcp:?}"
    );
    assert!(
        unix < Duration::from_secs(1),
        "100 unix requests took {unix:?}"
    );
    let _ = std::fs::remove_dir_all(&data);
    let _ = std::fs::remove_file(&sock);
}

/// A stop wakes every listener: the `shutdown` request ends
/// [`Handle::wait`], and [`Handle::shutdown`] returns without any
/// traffic, with a wildcard TCP address, a unix socket and a spool
/// directory all configured.
#[cfg(unix)]
#[test]
fn stop_wakes_every_listener() {
    let data = tmpdir("wake-data");
    let spool = tmpdir("wake-spool");
    std::fs::create_dir_all(&spool).unwrap();
    let sock = std::env::temp_dir().join(format!("lowutil-wake-{}.sock", std::process::id()));
    let cfg = ServeConfig {
        listen: "0.0.0.0:0".to_string(),
        unix_socket: Some(sock.clone()),
        spool_dir: Some(spool.clone()),
        ..test_config(data.clone())
    };

    // (a) The `shutdown` request ends `Handle::wait`.
    let handle = Server::start(cfg.clone()).unwrap();
    let addr = format!("127.0.0.1:{}", handle.addr().port());
    let stats = unix_request(&sock, "stats");
    assert_eq!(
        stats.trim(),
        "ok tenants=0 active_sessions=0 absorbed=0 rejected=0"
    );
    let waited = on_helper(move || handle.wait());
    let resp = request(&addr, "shutdown").unwrap();
    assert!(resp.starts_with("ok "), "{resp}");
    assert!(
        waited.recv_timeout(Duration::from_secs(5)).is_ok(),
        "Handle::wait did not return within 5 s of a shutdown request"
    );

    // (b) `Handle::shutdown` with no traffic at all.
    let handle = Server::start(cfg).unwrap();
    let stopped = on_helper(move || handle.shutdown());
    assert!(
        stopped.recv_timeout(Duration::from_secs(5)).is_ok(),
        "Handle::shutdown did not return within 5 s"
    );

    let _ = std::fs::remove_dir_all(&data);
    let _ = std::fs::remove_dir_all(&spool);
    let _ = std::fs::remove_file(&sock);
}

/// `lowutil snapshot verify`: exit 0 with per-section `ok` rows on a
/// valid snapshot; exit 1 naming the damaged section on corruption,
/// across a sweep of truncations and byte flips.
#[test]
fn snapshot_verify_cli_corruption_sweep() {
    use std::process::Command;
    let dir = tmpdir("verify");
    std::fs::create_dir_all(&dir).unwrap();
    let w = workload("antlr", WorkloadSize::Small);
    let trace = record(&w.program, 256, 0);
    let reader = TraceReader::new(&trace).unwrap();
    let g = replay_cost_graph(&w.program, CostGraphConfig::default(), &reader).unwrap();
    let snap = dir.join("good.snap");
    lowutil::core::save_snapshot(&g, reader.trailer().instructions, &snap).unwrap();
    let bytes = std::fs::read(&snap).unwrap();

    let verify = |path: &std::path::Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_lowutil"))
            .args(["snapshot", "verify"])
            .arg(path)
            .output()
            .expect("lowutil runs");
        (
            out.status.code().unwrap_or(-1),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };

    let (code, stdout) = verify(&snap);
    assert_eq!(code, 0, "clean snapshot verifies: {stdout}");
    assert!(stdout.contains("snapshot OK"), "{stdout}");
    assert!(stdout.contains("section kind"), "{stdout}");

    let bad = dir.join("bad.snap");
    for cut in [0, 7, 15, 16, 40, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&bad, &bytes[..cut]).unwrap();
        let (code, stdout) = verify(&bad);
        assert_eq!(code, 1, "truncation at {cut} must fail: {stdout}");
        assert!(stdout.contains("snapshot CORRUPT"), "{stdout}");
    }
    // A flip inside the first section body is named in the report. The
    // section area starts at the 8-aligned end of the preamble+header.
    let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let body_at = (16 + header_len).next_multiple_of(8);
    let mut flipped = bytes.clone();
    flipped[body_at] ^= 0x01;
    std::fs::write(&bad, &flipped).unwrap();
    let (code, stdout) = verify(&bad);
    assert_eq!(code, 1, "section flip must fail: {stdout}");
    assert!(stdout.contains("CRC mismatch"), "{stdout}");
    // Magic and header flips fail before any section table exists.
    for at in [0, 20] {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x40;
        std::fs::write(&bad, &flipped).unwrap();
        let (code, stdout) = verify(&bad);
        assert_eq!(code, 1, "flip at {at} must fail: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `lowutil cache gc` through the CLI: the daemon's warm rank responses
/// are byte-identical before and after a GC that keeps the entry, and
/// still byte-identical (recomputed) after a GC that evicts everything.
#[test]
fn cache_gc_cli_keeps_rank_responses_bit_exact() {
    use std::process::Command;
    let data = tmpdir("gc-data");
    let w = workload("antlr", WorkloadSize::Small);
    let trace = record(&w.program, 256, 0);

    let handle = Server::start(test_config(data.clone())).unwrap();
    let addr = handle.addr().to_string();
    let resp = push_trace(&addr, "acme", "antlr@small", "s1", &trace).unwrap();
    assert!(resp.starts_with("ok "), "{resp}");
    let cold = request(&addr, "query acme antlr@small rank 5").unwrap();
    let warm = request(&addr, "query acme antlr@small rank 5").unwrap();
    assert_eq!(cold, warm, "warm hit reproduces the cold ranking");

    let qcache = data.join("qcache");
    assert!(qcache.exists(), "rank query populated the cache");
    let gc = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_lowutil"))
            .args(["cache", "gc"])
            .arg(&qcache)
            .args(args)
            .output()
            .expect("lowutil runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // A generous age budget keeps the entry; the warm response is
    // byte-identical after the sweep.
    let out = gc(&["--max-age-secs", "86400"]);
    assert!(out.contains("removed 0"), "{out}");
    assert_eq!(
        request(&addr, "query acme antlr@small rank 5").unwrap(),
        warm
    );
    // A zero size budget evicts everything; the recomputed response is
    // still byte-identical.
    let out = gc(&["--max-bytes", "0"]);
    assert!(out.contains("bytes_kept 0"), "{out}");
    assert_eq!(
        request(&addr, "query acme antlr@small rank 5").unwrap(),
        warm
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&data);
}
