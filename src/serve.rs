//! `lowutil serve` — a concurrent trace-ingestion daemon.
//!
//! The offline pipeline (`record` → `replay`/`snapshot`) assumes each
//! trace is a file that already ended. This module is the long-lived
//! complement: a daemon that accepts many trace streams *concurrently*
//! (TCP, unix sockets, and a watched spool directory), incrementally
//! builds a per-session [`CostGraph`] as framed v2/v3 segments arrive
//! ([`StreamingReader`]), and merges *completed* sessions into
//! per-`(tenant, program)` [`Aggregate`]s that persist across restarts
//! through the snapshot store.
//!
//! # Session lifecycle
//!
//! ```text
//! connect ── "ingest <tenant> <program> <id>\n" ── raw trace bytes ── EOF
//!    │                                                                │
//!    │   reader thread ──ring──▶ builder thread                       │
//!    │   (socket chunks)        (StreamingReader → GraphBuilder)      │
//!    ▼                                                                ▼
//!  evict (idle / oversize / corrupt) ──▶ salvage stats, NOT absorbed
//!  clean EOF with verified trailer   ──▶ absorbed + snapshot persisted
//! ```
//!
//! Per-session memory is bounded: raw bytes sit in a fixed-capacity
//! [`lowutil_par::ring`](mod@crate::par::ring) between the socket reader and
//! the builder (a full ring blocks the reader, which stops draining the
//! socket — TCP back-pressure does the rest), every framed record is
//! capped by the streaming record limit, and a per-session byte budget
//! evicts runaway streams. Idle sessions are evicted on a timeout.
//!
//! # The aggregate-integrity invariant
//!
//! Only a session whose stream ends with a checksum-verified trailer
//! that agrees with its replayed contents is absorbed. An evicted,
//! disconnected, or corrupted session finalizes through the salvage
//! path — its longest valid prefix is *reported* to the client (the
//! builder's state is exactly the offline `TraceReader::salvage`
//! prefix) — but it is **never** merged, so a bad session cannot change
//! a tenant aggregate's content hash. Because [`Aggregate::absorb`] is
//! commutative, concurrent arrival order does not change the merged
//! graph either: the daemon's aggregate is byte-identical to an offline
//! sequential merge of the same sessions.
//!
//! Queries (`report` / `rank` / `diff` / `hash` / `stats`) run against a
//! point-in-time copy of the aggregate while ingestion continues, and
//! warm rankings are served from the content-hash [`QueryCache`].
//!
//! # Accepting and stopping
//!
//! Each listener (TCP, and the unix socket when configured) has one
//! thread blocked in `accept()`, so a connection is served the moment it
//! arrives. A stop — the `shutdown` request or [`Handle::shutdown`] —
//! sets the stop flag and then makes one throwaway connection to each
//! listener (an unspecified TCP address is reached through loopback).
//! The accept thread checks the flag after every `accept()` returns, so
//! it drops that wake connection unserved and exits. [`Handle::wait`]
//! and [`Handle::shutdown`] resend the wake until every accept thread
//! has returned, so a lost wake cannot hang a stop.

use crate::analyses::{
    dead_value_metrics, diff_rankings, gc_snapshots, rank_structures_with, ranked_keys,
    render_report, CacheKey, CostBenefitConfig, DiffConfig, EngineChoice, IncrementalAnalyzer,
    QueryCache, StructureCostBenefit,
};
use crate::core::{
    read_snapshot, Aggregate, AlignedBuf, CostGraph, CostGraphConfig, GraphBuilder, IncrementalCsr,
};
use crate::ir::{parse_program, Program};
use crate::vm::{StreamingReader, DEFAULT_STREAM_RECORD_LIMIT};
use crate::workloads::{workload, WorkloadSize, NAMES};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How the daemon listens, ingests, and bounds sessions.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root of persistent state: `tenants/<tenant>/<program>.snap`
    /// aggregate snapshots plus the `qcache/` query cache.
    pub data_dir: PathBuf,
    /// TCP listen address; port 0 auto-assigns (printed by the CLI).
    pub listen: String,
    /// Unix-domain socket path (unix hosts only; removed on start).
    pub unix_socket: Option<PathBuf>,
    /// Watched spool directory: `<spool>/<tenant>/<program>/*.trace`
    /// files are ingested and renamed to `.done` / `.rejected`.
    pub spool_dir: Option<PathBuf>,
    /// Directory of `<name>.lu` programs; names not found there fall
    /// back to built-in workload names (`antlr`, `antlr@small`, …).
    pub programs_dir: Option<PathBuf>,
    /// Workload size when a program name has no `@size` suffix.
    pub default_size: WorkloadSize,
    /// Graph construction config for every session.
    pub graph: CostGraphConfig,
    /// Ring capacity, in chunks, between socket reader and builder.
    pub session_buffer: usize,
    /// Socket read chunk size in bytes.
    pub chunk_bytes: usize,
    /// Per-record cap handed to [`StreamingReader::with_record_limit`].
    pub record_limit: usize,
    /// Per-session raw-byte budget; exceeding it evicts the session.
    pub max_session_bytes: u64,
    /// Evict a session that sends nothing for this long.
    pub idle_timeout: Duration,
    /// Query-cache size budget swept at startup (`None` = unbounded).
    pub cache_max_bytes: Option<u64>,
    /// Query-cache age budget swept at startup (`None` = unbounded).
    pub cache_max_age: Option<Duration>,
    /// Tenant-snapshot size budget swept at startup (`None` =
    /// unbounded); see [`gc_snapshots`].
    pub snap_max_bytes: Option<u64>,
    /// Tenant-snapshot age budget swept at startup (`None` =
    /// unbounded).
    pub snap_max_age: Option<Duration>,
    /// Per-tenant newest-snapshot floor for the startup sweep: each
    /// tenant's `snap_keep_latest` most recent snapshots are exempt
    /// from both budgets (clamped to at least 1).
    pub snap_keep_latest: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            data_dir: PathBuf::from("lowutil-serve"),
            listen: "127.0.0.1:0".to_string(),
            unix_socket: None,
            spool_dir: None,
            programs_dir: None,
            default_size: WorkloadSize::Default,
            graph: CostGraphConfig::default(),
            session_buffer: 64,
            chunk_bytes: 64 << 10,
            record_limit: DEFAULT_STREAM_RECORD_LIMIT,
            max_session_bytes: 1 << 30,
            idle_timeout: Duration::from_secs(30),
            cache_max_bytes: Some(256 << 20),
            cache_max_age: None,
            snap_max_bytes: None,
            snap_max_age: None,
            snap_keep_latest: 1,
        }
    }
}

/// Tenant and program names become path components and protocol tokens,
/// so they are restricted to a conservative alphabet (`@` carries the
/// workload-size suffix).
fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'@')
}

struct Tenant {
    agg: Aggregate,
    /// The incrementally-maintained view of `agg`, built lazily on the
    /// first absorb or query and patched in O(delta) afterwards.
    live: Option<Live>,
}

/// The live query/persist state of one aggregate: the canonical CSR
/// view (arrays, cached export, content hash) plus the carried per-seed
/// analysis results. The `Arc`s let queries take O(1) handles and rank
/// outside the tenant lock; an absorb racing a long query pays one
/// copy-on-write clone ([`Arc::make_mut`]) instead of blocking.
struct Live {
    inc: Arc<IncrementalCsr>,
    rank: Arc<IncrementalAnalyzer>,
    /// A materialized [`CostGraph`] of the current generation, built on
    /// the first ranked query after an absorb and shared by every warm
    /// query until the next absorb invalidates it.
    view: Option<Arc<CostGraph>>,
}

impl Tenant {
    /// Builds (or returns) the live view. The full canonical build runs
    /// once per aggregate per daemon lifetime; every later absorb goes
    /// through the delta path.
    fn ensure_live(&mut self) -> &mut Live {
        if self.live.is_none() {
            let inc = IncrementalCsr::new(&self.agg);
            let rank = IncrementalAnalyzer::new(&inc, 1);
            self.live = Some(Live {
                inc: Arc::new(inc),
                rank: Arc::new(rank),
                view: None,
            });
        }
        self.live.as_mut().expect("just ensured")
    }

    /// Absorbs one session graph and folds the returned delta into the
    /// live view — no fresh [`CostGraph`] is materialized.
    fn absorb(&mut self, g: &CostGraph, instructions: u64) {
        let delta = self.agg.absorb(g, instructions);
        match &mut self.live {
            None => {
                self.ensure_live();
            }
            Some(live) => {
                let dirty = Arc::make_mut(&mut live.inc).apply(&self.agg, &delta);
                Arc::make_mut(&mut live.rank).refresh(&live.inc, &dirty, 1);
                live.view = None;
            }
        }
    }
}

/// Tenant aggregates keyed by `(tenant, program)`.
type TenantMap = HashMap<(String, String), Arc<Mutex<Tenant>>>;

struct State {
    cfg: ServeConfig,
    /// The bound TCP address, which the stop wake connects to.
    addr: SocketAddr,
    life: Mutex<Lifecycle>,
    /// Signalled when a stop is requested and when a [`Lifecycle`] count
    /// reaches zero.
    life_changed: Condvar,
    programs: Mutex<HashMap<String, Arc<Program>>>,
    tenants: Mutex<TenantMap>,
    absorbed: AtomicU64,
    rejected: AtomicU64,
}

/// What [`Handle::join`] waits on, kept under one lock so it can sleep on
/// [`State::life_changed`] instead of polling.
#[derive(Default)]
struct Lifecycle {
    /// Set once by [`State::request_stop`], never cleared.
    stop: bool,
    /// Accept threads that have not returned yet.
    listeners: u64,
    /// Connections being served.
    active_sessions: u64,
}

impl State {
    fn life(&self) -> MutexGuard<'_, Lifecycle> {
        // Every update is one field store, so a poisoned guard still
        // holds consistent values.
        self.life.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stopping(&self) -> bool {
        self.life().stop
    }

    /// Sets the stop flag, then wakes the accept threads out of their
    /// blocking `accept()`.
    fn request_stop(&self) {
        self.life().stop = true;
        self.life_changed.notify_all();
        self.wake_listeners();
    }

    /// Makes one throwaway connection to each listener. Errors are
    /// ignored: [`Handle::join`] resends the wake until the accept
    /// threads have returned.
    fn wake_listeners(&self) {
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
        #[cfg(unix)]
        if let Some(path) = &self.cfg.unix_socket {
            let _ = std::os::unix::net::UnixStream::connect(path);
        }
    }

    fn tenant(&self, tenant: &str, program: &str) -> Arc<Mutex<Tenant>> {
        let mut map = self.tenants.lock().unwrap();
        map.entry((tenant.to_string(), program.to_string()))
            .or_insert_with(|| {
                Arc::new(Mutex::new(Tenant {
                    agg: Aggregate::new(),
                    live: None,
                }))
            })
            .clone()
    }

    fn existing_tenant(&self, tenant: &str, program: &str) -> Option<Arc<Mutex<Tenant>>> {
        self.tenants
            .lock()
            .unwrap()
            .get(&(tenant.to_string(), program.to_string()))
            .cloned()
    }

    fn snapshot_path(&self, tenant: &str, program: &str) -> PathBuf {
        self.cfg
            .data_dir
            .join("tenants")
            .join(tenant)
            .join(format!("{program}.snap"))
    }

    fn query_cache(&self) -> QueryCache {
        QueryCache::new(self.cfg.data_dir.join("qcache"))
    }

    /// Resolves a program name: `<programs_dir>/<name>.lu` first, then
    /// the built-in workloads (`name` or `name@small|default|large`).
    fn resolve_program(&self, name: &str) -> Result<Arc<Program>, String> {
        if let Some(p) = self.programs.lock().unwrap().get(name) {
            return Ok(p.clone());
        }
        let program = self.load_program(name)?;
        let arc = Arc::new(program);
        self.programs
            .lock()
            .unwrap()
            .insert(name.to_string(), arc.clone());
        Ok(arc)
    }

    fn load_program(&self, name: &str) -> Result<Program, String> {
        if let Some(dir) = &self.cfg.programs_dir {
            let path = dir.join(format!("{name}.lu"));
            if path.exists() {
                let src = fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                return parse_program(&src).map_err(|e| format!("{name}: {e}"));
            }
        }
        let (base, size) = match name.split_once('@') {
            Some((b, "small")) => (b, WorkloadSize::Small),
            Some((b, "default")) => (b, WorkloadSize::Default),
            Some((b, "large")) => (b, WorkloadSize::Large),
            Some((_, other)) => return Err(format!("unknown workload size `{other}`")),
            None => (name, self.cfg.default_size),
        };
        if !NAMES.contains(&base) {
            return Err(format!("unknown program `{name}`"));
        }
        Ok(workload(base, size).program)
    }
}

/// How long one wake connection may take to connect.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);
/// How long [`Handle::join`] waits for the accept threads before it
/// resends the wake.
const WAKE_RETRY: Duration = Duration::from_millis(100);
/// How long [`Handle::join`] waits, after a stop, for the accept threads
/// and the open sessions together.
const STOP_CAP: Duration = Duration::from_secs(10);
/// The pause after a failed `accept()`: errors such as EMFILE persist
/// until some connection closes, and retrying at once would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// A running daemon: its shared state plus the join handles needed to
/// stop it. Created by [`Server::start`].
pub struct Handle {
    state: Arc<State>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Handle {
    /// The bound TCP address (with the auto-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Blocks until the daemon is asked to stop by a `shutdown` request,
    /// then joins it as [`Handle::shutdown`] does.
    pub fn wait(self) {
        self.join();
    }

    /// Stops the daemon: sets the stop flag and wakes each accept thread
    /// out of its blocking `accept()` with one throwaway connection, so no
    /// new connection is served. In-flight sessions are evicted within
    /// the socket poll interval. Waits up to 10 s for the accept threads
    /// and sessions, resending the wake while an accept thread is still
    /// blocked, then joins the daemon threads. An accept thread that no
    /// wake reached within those 10 s is left detached.
    pub fn shutdown(self) {
        self.state.request_stop();
        self.join();
    }

    fn join(self) {
        let state = &self.state;
        let mut life = state
            .life_changed
            .wait_while(state.life(), |l| !l.stop)
            .unwrap_or_else(PoisonError::into_inner);
        let deadline = Instant::now() + STOP_CAP;
        // A lost wake would leave an accept thread blocked for good, so
        // resend it until every accept thread has returned.
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            life = state
                .life_changed
                .wait_timeout_while(life, left.min(WAKE_RETRY), |l| l.listeners > 0)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            if life.listeners == 0 || left <= WAKE_RETRY {
                break;
            }
            drop(life);
            state.wake_listeners();
            life = state.life();
        }
        let woken = life.listeners == 0;
        // Sessions notice the stop flag within one read timeout; wait
        // for them so their tenant locks and sockets are released.
        let left = deadline.saturating_duration_since(Instant::now());
        drop(
            state
                .life_changed
                .wait_timeout_while(life, left, |l| l.active_sessions > 0)
                .unwrap_or_else(PoisonError::into_inner),
        );
        // Past the cap, an accept thread that never woke is left detached.
        if woken {
            for t in self.threads {
                let _ = t.join();
            }
        }
    }
}

/// The daemon entry point; see [`Server::start`].
pub struct Server;

impl Server {
    /// Starts the daemon: restores persisted tenant aggregates from
    /// `data_dir`, sweeps the query cache to its budgets, binds the
    /// listeners, and spawns the accept/spool threads.
    ///
    /// # Errors
    /// Fails when the data directory or a listener cannot be set up.
    pub fn start(cfg: ServeConfig) -> io::Result<Handle> {
        fs::create_dir_all(cfg.data_dir.join("tenants"))?;
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        #[cfg(unix)]
        let unix_listener = match &cfg.unix_socket {
            Some(path) => {
                let _ = fs::remove_file(path);
                Some(std::os::unix::net::UnixListener::bind(path)?)
            }
            None => None,
        };

        let state = Arc::new(State {
            cfg,
            addr,
            life: Mutex::new(Lifecycle::default()),
            life_changed: Condvar::new(),
            programs: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            absorbed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        // Sweep snapshots before restoring: an over-budget or expired
        // snapshot should not be loaded just to be eligible for the
        // next sweep.
        let _ = gc_snapshots(
            &state.cfg.data_dir.join("tenants"),
            state.cfg.snap_max_bytes,
            state.cfg.snap_max_age,
            state.cfg.snap_keep_latest,
        );
        restore_tenants(&state);
        let _ = state
            .query_cache()
            .gc(state.cfg.cache_max_bytes, state.cfg.cache_max_age);

        let mut threads = Vec::new();
        {
            let running = CountGuard::new(&state, CountGuard::LISTENERS);
            threads.push(thread::spawn(move || {
                accept_loop(running, || listener.accept().map(|(s, _)| Conn::Tcp(s)))
            }));
        }
        #[cfg(unix)]
        if let Some(listener) = unix_listener {
            let running = CountGuard::new(&state, CountGuard::LISTENERS);
            threads.push(thread::spawn(move || {
                accept_loop(running, || listener.accept().map(|(s, _)| Conn::Unix(s)))
            }));
        }
        if state.cfg.spool_dir.is_some() {
            let state = state.clone();
            threads.push(thread::spawn(move || spool_loop(&state)));
        }
        Ok(Handle { state, threads })
    }
}

/// Reloads every persisted `tenants/<tenant>/<program>.snap` aggregate.
/// A snapshot that fails validation is skipped (and reported on stderr)
/// rather than poisoning startup; `lowutil snapshot verify` names the
/// damage.
fn restore_tenants(state: &Arc<State>) {
    let root = state.cfg.data_dir.join("tenants");
    let Ok(tenants) = fs::read_dir(&root) else {
        return;
    };
    for tenant_dir in tenants.flatten() {
        let tenant = tenant_dir.file_name().to_string_lossy().into_owned();
        let Ok(files) = fs::read_dir(tenant_dir.path()) else {
            continue;
        };
        for file in files.flatten() {
            let path = file.path();
            if path.extension().is_none_or(|e| e != "snap") {
                continue;
            }
            let Some(program) = path.file_stem().map(|s| s.to_string_lossy().into_owned()) else {
                continue;
            };
            let restored = AlignedBuf::load(&path)
                .map_err(|e| e.to_string())
                .and_then(|buf| {
                    let snap = read_snapshot(&buf).map_err(|e| e.to_string())?;
                    Ok((snap.to_cost_graph(), snap.total_instructions()))
                });
            match restored {
                Ok((g, total)) => {
                    let slot = state.tenant(&tenant, &program);
                    slot.lock().unwrap().agg.absorb(&g, total);
                }
                Err(e) => eprintln!("-- serve: skipping {}: {e}", path.display()),
            }
        }
    }
}

/// One unit of a [`Lifecycle`] count, held by an accept thread or an
/// open connection. Dropping it, also while unwinding, gives the unit
/// back and wakes [`Handle::join`] when the count reaches zero.
struct CountGuard {
    state: Arc<State>,
    count: fn(&mut Lifecycle) -> &mut u64,
}

impl CountGuard {
    const LISTENERS: fn(&mut Lifecycle) -> &mut u64 = |l| &mut l.listeners;
    const SESSIONS: fn(&mut Lifecycle) -> &mut u64 = |l| &mut l.active_sessions;

    fn new(state: &Arc<State>, count: fn(&mut Lifecycle) -> &mut u64) -> CountGuard {
        *count(&mut state.life()) += 1;
        CountGuard {
            state: state.clone(),
            count,
        }
    }
}

impl Drop for CountGuard {
    fn drop(&mut self) {
        let mut life = self.state.life();
        let n = (self.count)(&mut life);
        *n -= 1;
        if *n == 0 {
            self.state.life_changed.notify_all();
        }
    }
}

/// Serves each accepted connection on a thread of its own. `accept`
/// blocks; the stop flag is checked after it returns, so the wake
/// connection of [`State::request_stop`] is dropped unserved.
fn accept_loop(running: CountGuard, mut accept: impl FnMut() -> io::Result<Conn>) {
    let state = &running.state;
    loop {
        let accepted = accept();
        if state.stopping() {
            return;
        }
        match accepted {
            Ok(conn) => {
                // Counted here, before the thread exists, so a stop that
                // follows at once still waits for this connection.
                let session = CountGuard::new(state, CountGuard::SESSIONS);
                thread::spawn(move || handle_conn(&session.state, conn));
            }
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// A client connection: TCP or unix-domain, one request per connection.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(d),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// The socket poll interval: reads time out this often so idle/stop
/// checks run even when a client goes quiet.
const POLL: Duration = Duration::from_millis(100);

fn handle_conn(state: &Arc<State>, mut conn: Conn) {
    let _ = conn.set_read_timeout(Some(POLL));
    let (line, leftover) = match read_request_line(state, &mut conn) {
        Ok(v) => v,
        Err(_) => return,
    };
    let toks: Vec<&str> = line.split_whitespace().collect();
    let response = match toks.as_slice() {
        ["ingest", tenant, program, id] => {
            ingest_socket(state, &mut conn, tenant, program, id, leftover)
        }
        ["query", rest @ ..] => match run_query(state, rest) {
            Ok(r) => r,
            Err(e) => format!("error {}\n", one_line(&e)),
        },
        ["stats"] => {
            let tenants = state.tenants.lock().unwrap().len();
            format!(
                "ok tenants={} active_sessions={} absorbed={} rejected={}\n",
                tenants,
                // This very connection holds one active slot.
                state.life().active_sessions.saturating_sub(1),
                state.absorbed.load(Ordering::SeqCst),
                state.rejected.load(Ordering::SeqCst),
            )
        }
        ["shutdown"] => {
            state.request_stop();
            "ok shutting down\n".to_string()
        }
        _ => "error unknown request\n".to_string(),
    };
    let _ = conn.write_all(response.as_bytes());
    let _ = conn.flush();
    if let Conn::Tcp(s) = &conn {
        let _ = s.shutdown(Shutdown::Write);
    }
}

/// Reads the request line (bounded), returning it plus any body bytes
/// that arrived in the same chunks.
fn read_request_line(state: &State, conn: &mut Conn) -> Result<(String, Vec<u8>), String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut last_data = Instant::now();
    loop {
        if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&buf[..nl]).into_owned();
            let leftover = buf[nl + 1..].to_vec();
            return Ok((line, leftover));
        }
        if buf.len() > 4096 {
            return Err("request line too long".to_string());
        }
        if state.stopping() {
            return Err("shutting down".to_string());
        }
        match conn.read(&mut chunk) {
            Ok(0) => return Err("connection closed before request line".to_string()),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                last_data = Instant::now();
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if last_data.elapsed() > state.cfg.idle_timeout {
                    return Err("idle timeout".to_string());
                }
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// One line, protocol-safe: newlines collapsed.
fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

// ---------------------------------------------------------------------------
// Ingestion
// ---------------------------------------------------------------------------

/// How a finished (or evicted) session left the builder.
struct SessionEnd {
    /// Clean end-of-stream (client half-closed); *not* sufficient for
    /// absorption — the trailer must also have verified.
    clean_eof: bool,
    /// Why the session ended early, when it did.
    reason: Option<String>,
}

/// Socket ingestion: a reader thread drains the socket into a bounded
/// SPSC ring (back-pressure at the socket boundary), the builder drains
/// the ring into [`StreamingReader`] + [`GraphBuilder`]. Dropping the
/// ring receiver (builder error, oversize eviction) makes the reader's
/// push fail, which closes the socket — the eviction propagates without
/// shared flags.
fn ingest_socket(
    state: &Arc<State>,
    conn: &mut Conn,
    tenant: &str,
    program_name: &str,
    id: &str,
    leftover: Vec<u8>,
) -> String {
    if !valid_name(tenant) || !valid_name(program_name) || !valid_name(id) {
        state.rejected.fetch_add(1, Ordering::SeqCst);
        return "rejected invalid tenant/program/session name\n".to_string();
    }
    let program = match state.resolve_program(program_name) {
        Ok(p) => p,
        Err(e) => {
            state.rejected.fetch_add(1, Ordering::SeqCst);
            return format!("rejected {}\n", one_line(&e));
        }
    };
    let reader_conn = match conn.try_clone() {
        Ok(c) => c,
        Err(e) => {
            state.rejected.fetch_add(1, Ordering::SeqCst);
            return format!("rejected cannot clone connection: {e}\n");
        }
    };

    let mut sr = StreamingReader::with_record_limit(state.cfg.record_limit);
    let mut builder = GraphBuilder::new(&program, state.cfg.graph);
    let mut fed: u64 = 0;
    let (mut tx, mut rx) = crate::par::ring::<Vec<u8>>(state.cfg.session_buffer.max(1));

    let end = thread::scope(|s| {
        let reader = s.spawn({
            let state = state.clone();
            move || {
                let mut conn = reader_conn;
                let mut end = SessionEnd {
                    clean_eof: false,
                    reason: None,
                };
                if !leftover.is_empty() && tx.push(leftover).is_err() {
                    drain_to_eof(&mut conn, &state);
                    return end;
                }
                let mut chunk = vec![0u8; state.cfg.chunk_bytes.max(1)];
                let mut last_data = Instant::now();
                loop {
                    if state.stopping() {
                        end.reason = Some("server shutting down".to_string());
                        return end;
                    }
                    match conn.read(&mut chunk) {
                        Ok(0) => {
                            end.clean_eof = true;
                            return end;
                        }
                        Ok(n) => {
                            last_data = Instant::now();
                            if tx.push(chunk[..n].to_vec()).is_err() {
                                // Builder dropped its receiver: evicted.
                                // Swallow the client's remaining bytes so
                                // it can finish writing and read the
                                // rejection line instead of hitting a
                                // connection reset mid-write.
                                drain_to_eof(&mut conn, &state);
                                return end;
                            }
                        }
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut =>
                        {
                            if last_data.elapsed() > state.cfg.idle_timeout {
                                end.reason = Some("idle timeout".to_string());
                                return end;
                            }
                        }
                        Err(e) => {
                            end.reason = Some(format!("read error: {e}"));
                            return end;
                        }
                    }
                }
            }
        });

        let mut oversize = None;
        while let Some(chunk) = rx.pop() {
            fed += chunk.len() as u64;
            if fed > state.cfg.max_session_bytes {
                oversize = Some(format!(
                    "session exceeds byte budget of {}",
                    state.cfg.max_session_bytes
                ));
                break;
            }
            if sr.feed(&chunk, &mut builder).is_err() {
                // The error is latched in `sr`; stop pulling.
                break;
            }
        }
        drop(rx); // unblocks a reader stuck on push
        let mut end = reader.join().unwrap_or(SessionEnd {
            clean_eof: false,
            reason: Some("reader thread panicked".to_string()),
        });
        if let Some(o) = oversize {
            end.clean_eof = false;
            end.reason = Some(o);
        }
        end
    });

    finalize_session(state, tenant, program_name, id, sr, builder, end)
}

/// Discards an evicted session's remaining bytes until EOF (bounded by
/// the idle timeout and the stop flag), keeping the TCP teardown clean
/// for the client: without this, closing with unread data queued sends a
/// reset that can destroy the rejection line before the peer reads it.
fn drain_to_eof(conn: &mut Conn, state: &State) {
    let mut sink = vec![0u8; 16 << 10];
    let mut last_data = Instant::now();
    loop {
        if state.stopping() {
            return;
        }
        match conn.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => last_data = Instant::now(),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if last_data.elapsed() > state.cfg.idle_timeout {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Spool/file ingestion: the bytes are already complete on disk, so they
/// stream through the same reader without the socket ring.
fn ingest_bytes(
    state: &Arc<State>,
    tenant: &str,
    program_name: &str,
    id: &str,
    bytes: &[u8],
) -> String {
    if !valid_name(tenant) || !valid_name(program_name) || !valid_name(id) {
        state.rejected.fetch_add(1, Ordering::SeqCst);
        return "rejected invalid tenant/program/session name\n".to_string();
    }
    let program = match state.resolve_program(program_name) {
        Ok(p) => p,
        Err(e) => {
            state.rejected.fetch_add(1, Ordering::SeqCst);
            return format!("rejected {}\n", one_line(&e));
        }
    };
    let mut sr = StreamingReader::with_record_limit(state.cfg.record_limit);
    let mut builder = GraphBuilder::new(&program, state.cfg.graph);
    let mut end = SessionEnd {
        clean_eof: true,
        reason: None,
    };
    if bytes.len() as u64 > state.cfg.max_session_bytes {
        end.clean_eof = false;
        end.reason = Some(format!(
            "session exceeds byte budget of {}",
            state.cfg.max_session_bytes
        ));
    } else {
        for chunk in bytes.chunks(state.cfg.chunk_bytes.max(1)) {
            if sr.feed(chunk, &mut builder).is_err() {
                break;
            }
        }
    }
    finalize_session(state, tenant, program_name, id, sr, builder, end)
}

/// The single absorption gate. Only a clean EOF with a verified,
/// totals-consistent trailer merges the session; every other outcome
/// reports the salvaged prefix and leaves the aggregate untouched.
fn finalize_session(
    state: &Arc<State>,
    tenant: &str,
    program_name: &str,
    id: &str,
    mut sr: StreamingReader,
    builder: GraphBuilder,
    end: SessionEnd,
) -> String {
    let progress = sr.progress();
    let complete = end.clean_eof && end.reason.is_none() && sr.finish().is_ok();
    if !complete {
        state.rejected.fetch_add(1, Ordering::SeqCst);
        let reason = sr
            .error()
            .map(|e| e.to_string())
            .or(end.reason)
            .unwrap_or_else(|| "incomplete stream".to_string());
        return format!(
            "rejected session={id} reason=\"{}\" salvaged_segments={} salvaged_events={}\n",
            one_line(&reason),
            sr.segments_seen(),
            progress.events,
        );
    }
    let trailer = *sr.trailer().expect("complete session has a trailer");
    let g = builder.finish();
    let slot = state.tenant(tenant, program_name);
    let mut t = slot.lock().unwrap();
    t.absorb(&g, trailer.instructions);
    let sessions = t.agg.sessions();
    let total = t.agg.total_instructions();
    let live = t.ensure_live();
    let hash = live.inc.content_hash();
    // Persist while still holding the aggregate lock: concurrent
    // sessions on the same aggregate would otherwise race on the temp
    // file and could overwrite a newer snapshot with a staler merge.
    // The bytes come straight from the live view — byte-identical to
    // `write_snapshot` of the offline sequential merge.
    let persisted = persist_live(state, tenant, program_name, &live.inc, total);
    drop(t);
    if let Err(e) = persisted {
        eprintln!("-- serve: persisting {tenant}/{program_name} failed: {e}");
    }
    state.absorbed.fetch_add(1, Ordering::SeqCst);
    format!(
        "ok session={id} sessions={sessions} hash={hash:016x} events={} instructions={}\n",
        trailer.events, trailer.instructions,
    )
}

/// Persists one live view via temp-file + rename, so a crash mid-write
/// leaves the previous snapshot intact.
fn persist_live(
    state: &State,
    tenant: &str,
    program: &str,
    inc: &IncrementalCsr,
    total_instructions: u64,
) -> io::Result<()> {
    let path = state.snapshot_path(tenant, program);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("snap.tmp");
    let mut buf = Vec::new();
    inc.write_snapshot(total_instructions, &mut buf)?;
    fs::write(&tmp, buf)?;
    fs::rename(&tmp, &path)
}

// ---------------------------------------------------------------------------
// Spool ingestion
// ---------------------------------------------------------------------------

fn spool_loop(state: &Arc<State>) {
    while !state.stopping() {
        spool_scan(state);
        thread::sleep(Duration::from_millis(100));
    }
}

/// One spool sweep: `<spool>/<tenant>/<program>/<id>.trace` files are
/// claimed by renaming to `.work` (restart- and multi-scanner-safe),
/// ingested, then renamed to `.done` or `.rejected` with the response
/// line written alongside as `<id>.resp`.
fn spool_scan(state: &Arc<State>) {
    let Some(root) = state.cfg.spool_dir.clone() else {
        return;
    };
    let Ok(tenants) = fs::read_dir(&root) else {
        return;
    };
    for tenant_dir in tenants.flatten() {
        let tenant = tenant_dir.file_name().to_string_lossy().into_owned();
        let Ok(programs) = fs::read_dir(tenant_dir.path()) else {
            continue;
        };
        for program_dir in programs.flatten() {
            let program = program_dir.file_name().to_string_lossy().into_owned();
            let Ok(files) = fs::read_dir(program_dir.path()) else {
                continue;
            };
            for file in files.flatten() {
                let path = file.path();
                if path.extension().is_none_or(|e| e != "trace") {
                    continue;
                }
                let id = path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let work = path.with_extension("work");
                if fs::rename(&path, &work).is_err() {
                    continue; // another scanner claimed it
                }
                let response = match fs::read(&work) {
                    Ok(bytes) => ingest_bytes(state, &tenant, &program, &id, &bytes),
                    Err(e) => format!("rejected cannot read spool file: {e}\n"),
                };
                let done = if response.starts_with("ok ") {
                    path.with_extension("done")
                } else {
                    path.with_extension("rejected")
                };
                let _ = fs::write(path.with_extension("resp"), &response);
                let _ = fs::rename(&work, &done);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

/// Serves `query <tenant> <program> hash|stats|rank|report|diff …`
/// against the live incremental view. `hash`/`stats` answer from the
/// view's maintained scalars without touching the graph; ranked queries
/// route through the content-hash query cache and — on a miss — rank
/// with the carried per-seed analysis state instead of a fresh engine.
fn run_query(state: &Arc<State>, toks: &[&str]) -> Result<String, String> {
    let (&tenant, &program, op) = match toks {
        [t, p, rest @ ..] if !rest.is_empty() => (t, p, rest),
        _ => return Err("query needs <tenant> <program> <op>".to_string()),
    };
    match op {
        ["hash"] => {
            let s = live_scalars(state, tenant, program)?;
            Ok(format!("hash {:016x} sessions={}\n", s.hash, s.sessions))
        }
        ["stats"] => {
            let s = live_scalars(state, tenant, program)?;
            Ok(format!(
                "stats sessions={} nodes={} edges={} instructions={} hash={:016x}\n",
                s.sessions, s.nodes, s.edges, s.total, s.hash,
            ))
        }
        ["rank"] | ["rank", _] => {
            let top = match op {
                ["rank", n] => n
                    .parse::<usize>()
                    .map_err(|_| "bad top count".to_string())?,
                _ => 10,
            };
            let q = live_view(state, tenant, program)?;
            let ranked = ranked_cached(state, &q);
            let mut out = String::new();
            for s in ranked.iter().take(top) {
                let _ = writeln!(
                    out,
                    "struct {} {} {:016x} {:016x} {}",
                    s.root.site.0,
                    s.root.slot,
                    s.n_rac.to_bits(),
                    s.n_rab.to_bits(),
                    s.allocations
                );
            }
            let _ = writeln!(out, "end {}", ranked.len().min(top));
            Ok(out)
        }
        ["report"] | ["report", _] => {
            let top = match op {
                ["report", n] => n
                    .parse::<usize>()
                    .map_err(|_| "bad top count".to_string())?,
                _ => 10,
            };
            let prog = state.resolve_program(program)?;
            let q = live_view(state, tenant, program)?;
            let ranked = ranked_cached(state, &q);
            let dead = dead_value_metrics(&q.view, q.total);
            let mut out = render_report(&prog, &ranked, top, Some(&dead));
            out.push_str("end\n");
            Ok(out)
        }
        ["diff", other_tenant, other_program] => {
            let qa = live_view(state, tenant, program)?;
            let qb = live_view(state, other_tenant, other_program)?;
            let ka = ranked_keys(&qa.view, &ranked_cached(state, &qa));
            let kb = ranked_keys(&qb.view, &ranked_cached(state, &qb));
            let report = diff_rankings(&ka, &kb, &DiffConfig::default());
            let mut out = report.render();
            let _ = writeln!(
                out,
                "end regression={}",
                if report.has_regression() { 1 } else { 0 }
            );
            Ok(out)
        }
        _ => Err("unknown query op".to_string()),
    }
}

/// The O(1) scalars of one live aggregate — content hash, session and
/// node/edge counts — read under the tenant lock without materializing
/// or cloning any graph.
struct LiveScalars {
    hash: u64,
    sessions: u64,
    total: u64,
    nodes: usize,
    edges: usize,
}

fn live_scalars(state: &Arc<State>, tenant: &str, program: &str) -> Result<LiveScalars, String> {
    let slot = state
        .existing_tenant(tenant, program)
        .ok_or_else(|| format!("no aggregate for {tenant}/{program}"))?;
    let mut t = slot.lock().unwrap();
    if t.agg.is_empty() {
        return Err(format!("no aggregate for {tenant}/{program}"));
    }
    let sessions = t.agg.sessions();
    let total = t.agg.total_instructions();
    let live = t.ensure_live();
    Ok(LiveScalars {
        hash: live.inc.content_hash(),
        sessions,
        total,
        nodes: live.inc.num_nodes(),
        edges: live.inc.num_edges(),
    })
}

/// Shared handles for one ranked query: the materialized graph of the
/// current generation plus the live CSR and analysis state. Taken under
/// the tenant lock in O(1) once the generation's view exists — ranking
/// then runs outside the lock, so ingestion never blocks behind an
/// engine run.
struct LiveQuery {
    view: Arc<CostGraph>,
    inc: Arc<IncrementalCsr>,
    rank: Arc<IncrementalAnalyzer>,
    hash: u64,
    total: u64,
}

fn live_view(state: &Arc<State>, tenant: &str, program: &str) -> Result<LiveQuery, String> {
    let slot = state
        .existing_tenant(tenant, program)
        .ok_or_else(|| format!("no aggregate for {tenant}/{program}"))?;
    let mut t = slot.lock().unwrap();
    if t.agg.is_empty() {
        return Err(format!("no aggregate for {tenant}/{program}"));
    }
    let total = t.agg.total_instructions();
    // Materialize once per generation: the first ranked query after an
    // absorb pays `to_cost_graph`, every later one shares the Arc.
    if t.ensure_live().view.is_none() {
        let merged = Arc::new(t.agg.to_cost_graph());
        let live = t.ensure_live();
        debug_assert_eq!(
            merged.graph().num_nodes(),
            live.inc.num_nodes(),
            "canonical interning and the live view must agree on node ids"
        );
        live.view = Some(merged);
    }
    let live = t.ensure_live();
    Ok(LiveQuery {
        view: live.view.clone().expect("just materialized"),
        inc: live.inc.clone(),
        rank: live.rank.clone(),
        hash: live.inc.content_hash(),
        total,
    })
}

fn ranked_cached(state: &Arc<State>, q: &LiveQuery) -> Vec<StructureCostBenefit> {
    let config = CostBenefitConfig::default();
    let cache = state.query_cache();
    // Keyed as `Batch`: the incremental engine answers byte-identically
    // to a cold batch engine (enforced by tests/incremental.rs), so
    // entries stay interchangeable with offline `rank` runs.
    let key = CacheKey::new(q.hash, EngineChoice::Batch, &config);
    if let Some(hit) = cache.load(&key) {
        return hit;
    }
    let ranked = rank_structures_with(&q.view, &config, &q.rank.engine(&q.inc), 1);
    if let Err(e) = cache.store(&key, &ranked) {
        eprintln!("-- serve: query cache store failed: {e}");
    }
    ranked
}

// ---------------------------------------------------------------------------
// Client helpers
// ---------------------------------------------------------------------------

/// Pushes one recorded trace to a running daemon over TCP, returning the
/// daemon's single-line response (`ok …` or `rejected …`).
///
/// # Errors
/// Propagates connection/transfer errors; a *rejected* session is an
/// `Ok` carrying the rejection line, not an error.
pub fn push_trace(
    addr: &str,
    tenant: &str,
    program: &str,
    id: &str,
    trace: &[u8],
) -> io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.write_all(format!("ingest {tenant} {program} {id}\n").as_bytes())?;
    s.write_all(trace)?;
    s.shutdown(Shutdown::Write)?;
    let mut response = String::new();
    s.read_to_string(&mut response)?;
    Ok(response)
}

/// Sends one request line (`query …`, `stats`, `shutdown`) to a running
/// daemon over TCP and returns the full response.
///
/// # Errors
/// Propagates connection/transfer errors.
pub fn request(addr: &str, line: &str) -> io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.write_all(line.as_bytes())?;
    s.write_all(b"\n")?;
    s.shutdown(Shutdown::Write)?;
    let mut response = String::new();
    s.read_to_string(&mut response)?;
    Ok(response)
}

/// Writes a trace into a spool directory in the layout
/// the spool loop watches, plus the path the response will land at.
pub fn spool_paths(spool: &Path, tenant: &str, program: &str, id: &str) -> (PathBuf, PathBuf) {
    let dir = spool.join(tenant).join(program);
    (
        dir.join(format!("{id}.trace")),
        dir.join(format!("{id}.resp")),
    )
}
