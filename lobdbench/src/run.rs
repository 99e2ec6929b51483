//! lobd under test, and the epochs run against it.
//!
//! Every epoch does one fixed amount of workload work on freshly
//! preloaded objects, so it ends on the same live data whatever the build:
//! a faster build does more epochs, never more work per epoch.
//!
//! A timed epoch runs against its own lobd process (this binary with
//! `--serve`, which does what the `lobd` binary does: `LobdService::open`
//! and `spawn` with the default `ServerConfig`), started on a fresh data
//! directory and stopped afterwards. Start, connect and preload are one
//! set-up sample, and the process's peak RSS is lobd's alone. A traced
//! run keeps lobd in this process, where the direct depths can reach it,
//! and unlinks each epoch's objects before the next.

use crate::target::{Core, Direct, FrameLog, Target, Tcp};
use crate::workload::{sub_seed, Kind, Recorder, Rng, State, Workload, CLIENTS, KINDS};
use pglo_buffer::PoolStats;
use pglo_server::{spawn, LobdService, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Where requests enter lobd.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Depth {
    Tcp,
    Direct,
    Core,
}

/// Payload bytes per client kept for timing the frame codec.
const FRAME_LOG_BYTES: usize = 4 << 20;

/// Counters read through lobd's public APIs.
pub struct Snap {
    pool: PoolStats,
    wal_end: u64,
    commits: u64,
    /// obs entries; only an in-process lobd has them.
    obs: HashMap<String, f64>,
}

impl Snap {
    fn take(service: &LobdService) -> Self {
        let env = service.env();
        Self {
            pool: env.pool().stats(),
            wal_end: env.wal().end_lsn(),
            commits: env.txns().counters().0,
            obs: obs::snapshot_entries().into_iter().map(|e| (e.name, e.value.as_f64())).collect(),
        }
    }

    /// The counters as one line, for `--serve` to hand to its parent.
    fn encode(&self) -> String {
        let p = &self.pool;
        let fields = [
            p.hits,
            p.misses,
            p.evictions,
            p.writebacks,
            p.prefetch_pages,
            p.prefetch_hits,
            p.bgwriter_pages,
            p.bgwriter_cycles,
            self.wal_end,
            self.commits,
        ];
        fields.map(|v| v.to_string()).join(" ")
    }

    fn decode(line: &str) -> Result<Self, String> {
        let v: Vec<u64> = line
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("counters {line:?}: {e}"))?;
        let [hits, misses, evictions, writebacks, prefetch_pages, prefetch_hits, bgwriter_pages, bgwriter_cycles, wal_end, commits] =
            v[..]
        else {
            return Err(format!("counters {line:?}: expected 10 fields"));
        };
        let pool = PoolStats {
            hits,
            misses,
            evictions,
            writebacks,
            prefetch_pages,
            prefetch_hits,
            bgwriter_pages,
            bgwriter_cycles,
        };
        Ok(Self { pool, wal_end, commits, obs: HashMap::new() })
    }
}

/// Counter movement over a measured phase (summed over epochs).
#[derive(Default)]
pub struct Delta {
    pub pool: PoolStats,
    pub wal_bytes: u64,
    pub commits: u64,
    obs: HashMap<String, f64>,
}

impl Delta {
    fn between(a: &Snap, b: &Snap) -> Self {
        let (p, q) = (&a.pool, &b.pool);
        let pool = PoolStats {
            hits: q.hits - p.hits,
            misses: q.misses - p.misses,
            evictions: q.evictions - p.evictions,
            writebacks: q.writebacks - p.writebacks,
            prefetch_pages: q.prefetch_pages - p.prefetch_pages,
            prefetch_hits: q.prefetch_hits - p.prefetch_hits,
            bgwriter_pages: q.bgwriter_pages - p.bgwriter_pages,
            bgwriter_cycles: q.bgwriter_cycles - p.bgwriter_cycles,
        };
        let obs = b
            .obs
            .iter()
            .map(|(k, v)| (k.clone(), v - a.obs.get(k).copied().unwrap_or(0.0)))
            .collect();
        Self { pool, wal_bytes: b.wal_end - a.wal_end, commits: b.commits - a.commits, obs }
    }

    fn add(&mut self, d: &Delta) {
        let (p, q) = (&mut self.pool, &d.pool);
        p.hits += q.hits;
        p.misses += q.misses;
        p.evictions += q.evictions;
        p.writebacks += q.writebacks;
        p.prefetch_pages += q.prefetch_pages;
        p.prefetch_hits += q.prefetch_hits;
        p.bgwriter_pages += q.bgwriter_pages;
        p.bgwriter_cycles += q.bgwriter_cycles;
        self.wal_bytes += d.wal_bytes;
        self.commits += d.commits;
        for (k, v) in &d.obs {
            *self.obs.entry(k.clone()).or_default() += v;
        }
    }

    /// An obs counter or histogram field; 0 if never registered.
    pub fn obs(&self, name: &str) -> f64 {
        self.obs.get(name).copied().unwrap_or(0.0)
    }

    /// Mean of an obs span or histogram (`sum / count`); 0 if empty.
    pub fn mean(&self, hist: &str) -> f64 {
        let n = self.obs(&format!("{hist}.count"));
        if n > 0.0 {
            self.obs(&format!("{hist}.sum_ns")) / n
        } else {
            0.0
        }
    }
}

/// A directory under the working directory, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> std::io::Result<Self> {
        let dir = std::env::current_dir()?.join(".bench_data").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    fn dir(&self, n: u64) -> PathBuf {
        self.0.join(format!("lobd{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's directory is left in it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The configuration lobd opened with, for the provenance record.
#[derive(Clone, Default)]
pub struct Config {
    pub pool_frames: usize,
    pub durable_sync: bool,
    pub bgwriter: bool,
    pub server_config: String,
}

impl Config {
    fn of(service: &LobdService) -> Self {
        let env = service.env();
        Self {
            pool_frames: env.pool().capacity(),
            durable_sync: env.wal().options().durable_sync,
            bgwriter: env.bgwriter_running(),
            server_config: format!("{:?}", ServerConfig::default()),
        }
    }
}

/// What an epoch needs from the lobd it runs against.
pub trait Server {
    fn snap(&mut self) -> Result<Snap, String>;
    /// Write every dirty page, so the files hold the whole heap.
    fn flush(&mut self) -> Result<(), String>;
    fn dir(&self) -> &Path;
}

/// lobd in this process, for the traced run.
pub struct Lobd {
    service: Arc<LobdService>,
    server: Option<ServerHandle>,
    dir: PathBuf,
}

impl Lobd {
    pub fn start(scratch: &Scratch) -> Result<Self, String> {
        let dir = scratch.dir(0);
        let service =
            LobdService::open(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
        let server =
            spawn(Arc::clone(&service), ServerConfig::default()).map_err(|e| e.to_string())?;
        Ok(Self { service, server: Some(server), dir })
    }

    /// One session per client at `depth`; `trace` keeps frames at the
    /// direct depth for timing the codec.
    pub fn connect(&self, depth: Depth, trace: bool) -> Result<Vec<Box<dyn Target>>, String> {
        match depth {
            Depth::Tcp => connect(self.server.as_ref().expect("lobd is serving").local_addr()),
            Depth::Direct => Ok((0..CLIENTS)
                .map(|_| {
                    let log = trace.then(|| FrameLog::new(FRAME_LOG_BYTES));
                    Box::new(Direct::new(&self.service, log)) as Box<dyn Target>
                })
                .collect()),
            Depth::Core => Ok((0..CLIENTS)
                .map(|_| Box::new(Core::new(&self.service)) as Box<dyn Target>)
                .collect()),
        }
    }

    pub fn config(&self) -> Config {
        Config::of(&self.service)
    }
}

impl Server for Lobd {
    fn snap(&mut self) -> Result<Snap, String> {
        Ok(Snap::take(&self.service))
    }

    fn flush(&mut self) -> Result<(), String> {
        self.service.env().pool().flush_all().map_err(|e| format!("flush: {e}"))
    }

    fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Lobd {
    /// Shut down and join the server, stop the background writer and
    /// checkpointer, remove the directory. The storage environment is not
    /// freed when the service drops (every closed `pglo_core::LoHandle`
    /// leaks its backend, which holds the environment), so its threads
    /// are stopped by hand before the directory goes.
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
        let env = self.service.env();
        env.stop_bgwriter();
        env.stop_checkpointer();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One v4 TCP session per client.
fn connect(addr: SocketAddr) -> Result<Vec<Box<dyn Target>>, String> {
    (0..CLIENTS).map(|_| Ok(Box::new(Tcp::connect(addr)?) as Box<dyn Target>)).collect()
}

/// The body of `--serve DIR`: lobd as the `lobd` binary runs it, plus a
/// control channel on stdin/stdout. It prints `addr pool_frames
/// durable_sync bgwriter` once serving, answers `snap` with the counters
/// and `flush` with `ok`, and shuts down at `quit` or end of input.
pub fn serve(dir: &Path) -> Result<(), String> {
    let service = LobdService::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let server = spawn(Arc::clone(&service), ServerConfig::default()).map_err(|e| e.to_string())?;
    let cfg = Config::of(&service);
    let mut out = std::io::stdout().lock();
    let mut say = |line: String| {
        writeln!(out, "{line}").and_then(|()| out.flush()).map_err(|e| e.to_string())
    };
    say(format!(
        "{} {} {} {}",
        server.local_addr(),
        cfg.pool_frames,
        cfg.durable_sync,
        cfg.bgwriter
    ))?;
    for line in std::io::stdin().lock().lines() {
        match line.map_err(|e| e.to_string())?.as_str() {
            "snap" => say(Snap::take(&service).encode())?,
            "flush" => {
                service.env().pool().flush_all().map_err(|e| format!("flush: {e}"))?;
                say("ok".into())?;
            }
            _ => break,
        }
    }
    server.shutdown();
    server.join();
    Ok(())
}

/// A `--serve` child process: lobd for one timed epoch.
pub struct LobdProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    dir: PathBuf,
    addr: SocketAddr,
    config: Config,
}

impl LobdProcess {
    pub fn start(scratch: &Scratch, n: u64) -> Result<Self, String> {
        let dir = scratch.dir(n);
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("--serve")
            .arg(&dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start lobd: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut p = Self {
            child,
            stdin,
            stdout,
            dir,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            config: Config::default(),
        };
        let ready = p.read_line()?;
        let f: Vec<&str> = ready.split_whitespace().collect();
        let bad = || format!("lobd start line {ready:?}");
        let [addr, frames, durable, bgwriter] = f[..] else { return Err(bad()) };
        p.addr = addr.parse().map_err(|_| bad())?;
        p.config = Config {
            pool_frames: frames.parse().map_err(|_| bad())?,
            durable_sync: durable == "true",
            bgwriter: bgwriter == "true",
            server_config: format!("{:?}", ServerConfig::default()),
        };
        Ok(p)
    }

    pub fn connect(&self) -> Result<Vec<Box<dyn Target>>, String> {
        connect(self.addr)
    }

    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Peak resident set of the lobd process so far.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        peak_rss_kib(&format!("/proc/{}/status", self.child.id()))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("lobd exited".into()),
            Ok(_) => Ok(line.trim().to_string()),
            Err(e) => Err(format!("lobd: {e}")),
        }
    }

    fn ask(&mut self, cmd: &str) -> Result<String, String> {
        let stdin = self.stdin.as_mut().ok_or("lobd is stopping")?;
        writeln!(stdin, "{cmd}").and_then(|()| stdin.flush()).map_err(|e| format!("lobd: {e}"))?;
        self.read_line()
    }
}

impl Server for LobdProcess {
    fn snap(&mut self) -> Result<Snap, String> {
        Snap::decode(&self.ask("snap")?)
    }

    fn flush(&mut self) -> Result<(), String> {
        match self.ask("flush")?.as_str() {
            "ok" => Ok(()),
            other => Err(format!("lobd flush: {other:?}")),
        }
    }

    fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for LobdProcess {
    /// End of input shuts lobd down; wait for it, then remove its files.
    fn drop(&mut self) {
        drop(self.stdin.take());
        if self.child.wait().is_err() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        // Commit the removal now, with whatever the file system does to
        // free the blocks, rather than inside the next epoch's first
        // fsync.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::File::open(parent).and_then(|d| d.sync_all());
        }
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file.
pub fn peak_rss_kib(status: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(status).map_err(|e| format!("{status}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {status}"))
}

/// Bytes of regular files under `dir`, skipping the `wal` directory.
fn data_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            if entry.file_name() != "wal" {
                total += data_bytes(&entry.path())?;
            }
        } else {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Make every file under `dir` durable, so the set-up's write-back is
/// over before the measured phase starts instead of running beside it.
fn settle(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let synced = if path.is_dir() {
            settle(&path)
        } else {
            std::fs::File::open(&path).and_then(|f| f.sync_all())
        };
        match synced {
            // lobd may rename or recycle a file between listing and opening.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            other => other?,
        }
    }
    std::fs::File::open(dir)?.sync_all()
}

/// Preload every client's data; the first error wins.
pub fn preload(
    w: Workload,
    seed: u64,
    targets: &mut [Box<dyn Target>],
) -> Result<Vec<State>, String> {
    let mut states: Vec<State> = (0..CLIENTS).map(|c| w.state(seed, c)).collect();
    let mut recs: Vec<Recorder> = (0..CLIENTS).map(|_| Recorder::new(false)).collect();
    match in_parallel(targets, &mut states, &mut recs, |t, st, rec, _| w.preload(t, rec, st)) {
        Some(e) => Err(e),
        None => Ok(states),
    }
}

/// Settings of one epoch.
pub struct EpochSpec {
    pub workload: Workload,
    pub seed: u64,
    pub epoch: u64,
    /// Record a span per request.
    pub trace: bool,
    /// A timed epoch measures the data directory afterwards and leaves
    /// its lobd to be stopped; a traced one unlinks its objects from the
    /// lobd all passes share.
    pub timed: bool,
}

/// What one epoch measured.
#[derive(Default)]
pub struct Epoch {
    pub measured_s: f64,
    pub recs: Vec<Recorder>,
    pub delta: Delta,
    /// Data-directory bytes outside the WAL after the measured phase.
    pub space_bytes: u64,
    pub frames: Vec<(u8, Vec<u8>)>,
    /// The failed request or mismatched read that ended the epoch.
    pub error: Option<String>,
}

/// One epoch's measured phase on preloaded `states`.
pub fn epoch(
    server: &mut dyn Server,
    targets: &mut [Box<dyn Target>],
    mut states: Vec<State>,
    spec: &EpochSpec,
) -> Result<Epoch, String> {
    let w = spec.workload;
    let mut recs: Vec<Recorder> = (0..CLIENTS).map(|_| Recorder::new(spec.trace)).collect();
    server.flush()?;
    settle(server.dir()).map_err(|e| format!("settle {}: {e}", server.dir().display()))?;
    let before = server.snap()?;
    let t1 = Instant::now();
    let error = in_parallel(targets, &mut states, &mut recs, |t, st, rec, c| {
        let mut rng = Rng::new(sub_seed(spec.seed, c, spec.epoch));
        w.run(t, rec, st, &mut rng)
    });
    let measured_s = t1.elapsed().as_secs_f64();
    let delta = Delta::between(&before, &server.snap()?);
    let mut ep = Epoch { measured_s, recs, delta, error, ..Epoch::default() };
    if ep.error.is_some() {
        return Ok(ep);
    }
    if spec.timed {
        server.flush()?;
        ep.space_bytes = data_bytes(server.dir()).map_err(|e| e.to_string())?;
    } else {
        let mut recs: Vec<Recorder> = (0..CLIENTS).map(|_| Recorder::new(false)).collect();
        ep.error =
            in_parallel(targets, &mut states, &mut recs, |t, st, rec, _| w.cleanup(t, rec, st));
    }
    ep.frames = targets.iter_mut().flat_map(|t| t.take_frames()).collect();
    Ok(ep)
}

/// Run `f` for every client on its own thread; the first error wins.
fn in_parallel<F>(
    targets: &mut [Box<dyn Target>],
    states: &mut [State],
    recs: &mut [Recorder],
    f: F,
) -> Option<String>
where
    F: Fn(&mut dyn Target, &mut State, &mut Recorder, usize) -> Result<(), String> + Sync,
{
    let f = &f;
    std::thread::scope(|s| {
        let joins: Vec<_> = targets
            .iter_mut()
            .zip(states.iter_mut())
            .zip(recs.iter_mut())
            .enumerate()
            .map(|(c, ((t, st), rec))| s.spawn(move || f(t.as_mut(), st, rec, c)))
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .find_map(Result::err)
    })
}

/// Epochs of one depth, merged.
#[derive(Default)]
pub struct Agg {
    pub lat_ns: [Vec<u64>; KINDS],
    /// Length of each `lat_ns` vector at the end of each epoch.
    epoch_ends: Vec<[usize; KINDS]>,
    pub requests: u64,
    pub failed: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub measured_s: f64,
    /// Requests and user MiB per second of each epoch.
    pub ops_rates: Vec<f64>,
    pub mib_rates: Vec<f64>,
    pub setups: Vec<f64>,
    pub space_amp: Vec<f64>,
    pub peak_rss_mib: Vec<f64>,
    pub delta: Delta,
    pub epochs: u64,
    pub spans: u64,
    /// Span time, and the wall time the spans cover, summed over clients.
    pub busy_ns: u64,
    pub window_ns: u64,
    pub frames: Vec<(u8, Vec<u8>)>,
}

impl Agg {
    pub fn absorb(&mut self, ep: Epoch, live_bytes: u64) {
        self.epochs += 1;
        self.measured_s += ep.measured_s;
        self.space_amp.push(ep.space_bytes as f64 / live_bytes as f64);
        let requests: u64 = ep.recs.iter().map(|r| r.requests).sum();
        let bytes: u64 = ep.recs.iter().map(|r| r.bytes_read + r.bytes_written).sum();
        self.ops_rates.push(requests as f64 / ep.measured_s);
        self.mib_rates.push(bytes as f64 / (1024.0 * 1024.0) / ep.measured_s);
        self.delta.add(&ep.delta);
        self.frames.extend(ep.frames);
        for rec in ep.recs {
            for (all, lat) in self.lat_ns.iter_mut().zip(rec.lat_ns) {
                all.extend(lat);
            }
            self.requests += rec.requests;
            self.failed += rec.failed;
            self.bytes_read += rec.bytes_read;
            self.bytes_written += rec.bytes_written;
            let spans = rec.spans.as_deref().unwrap_or_default();
            if let (Some(first), Some(last)) = (spans.first(), spans.last()) {
                self.window_ns += last.start_ns + last.dur_ns - first.start_ns;
                self.busy_ns += spans.iter().map(|s| s.dur_ns).sum::<u64>();
                self.spans += spans.len() as u64;
            }
        }
        self.epoch_ends.push(std::array::from_fn(|k| self.lat_ns[k].len()));
    }

    /// The `q` percentile of `kinds`' latencies in each window of whole
    /// epochs holding at least `min_samples` of them, then the median over
    /// windows: a slow stretch of the host moves one window, not the
    /// figure. With a single window this is the pooled percentile.
    pub fn windowed(&self, kinds: &[Kind], q: f64, min_samples: usize) -> f64 {
        let mut windows: Vec<Vec<u64>> = vec![Vec::new()];
        let mut start = [0usize; KINDS];
        for end in &self.epoch_ends {
            let window = windows.last_mut().expect("there is always a window");
            for &k in kinds {
                window.extend_from_slice(
                    &self.lat_ns[k as usize][start[k as usize]..end[k as usize]],
                );
            }
            start = *end;
            if window.len() >= min_samples {
                windows.push(Vec::new());
            }
        }
        // A short last window joins the one before it.
        let short = windows.pop().unwrap_or_default();
        match windows.last_mut() {
            Some(prev) => prev.extend(short),
            None => windows.push(short),
        }
        let mut values: Vec<f64> = windows
            .iter_mut()
            .map(|w| {
                w.sort_unstable();
                crate::layers::percentile(w, q)
            })
            .collect();
        median(&mut values)
    }

    /// Latencies of the given request classes, sorted.
    pub fn sorted(&self, kinds: &[Kind]) -> Vec<u64> {
        let mut v: Vec<u64> =
            kinds.iter().flat_map(|k| self.lat_ns[*k as usize].iter().copied()).collect();
        v.sort_unstable();
        v
    }

    /// Every request's latency, sorted.
    pub fn all_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.lat_ns.iter().flatten().copied().collect();
        v.sort_unstable();
        v
    }
}

/// Median, averaging the middle two of an even count; 0 for none.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    (values[(n - 1) / 2] + values[n / 2]) / 2.0
}
