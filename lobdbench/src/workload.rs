//! The three workloads, their inputs and the checks on every reply.
//!
//! Each client runs a closed loop: it sends its next request only after
//! the reply to the previous one (except `stream_large`'s read-back, a v4
//! pipeline at window [`WINDOW`]). Every input — op mix, offsets, frame
//! contents — comes from the seed; lobd only ever sees requests. Every
//! read is compared byte for byte with a shadow copy kept here, or with
//! the recorded old bytes for an as-of read.

use crate::target::{LoKind, Op, Scalar, Target};
use pglo_compress::synth::FrameGenerator;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Concurrent client sessions.
pub const CLIENTS: usize = 2;
/// lobd's buffer pool as `LobdService::open` builds it: 4096 × 8 KiB.
pub const POOL_BYTES: u64 = 4096 * 8192;

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;
/// §9's frame size.
const FRAME: usize = 4096;

// point_rw: one 8 MiB f-chunk object per client, 4096-byte frame ops with
// 80/20 locality, 80% reads, a commit every 8 ops. The op count per
// epoch is fixed so every epoch ends on the same heap: each write adds a
// chunk version, and 400-odd writes per client keep the heap inside the
// pool.
const PT_OBJECT: usize = 8 * MIB;
const PT_FRAMES: u64 = (PT_OBJECT / FRAME) as u64;
const PT_HOT: u64 = PT_FRAMES / 5;
const PT_OPS: usize = 2048;
const PT_TXN_OPS: usize = 8;
const PRELOAD_IO: usize = 64 * KIB;

// stream_large: one 64 MiB f-chunk object per client in 64 KiB writes,
// then read back through a pipeline.
const ST_OBJECT: usize = 64 * MIB;
const ST_IO: usize = 64 * KIB;
const ST_BLOCKS: usize = ST_OBJECT / ST_IO;
/// Writes per ingest transaction (256 KiB), so commits are numerous
/// enough for a tail percentile.
const ST_TXN_WRITES: usize = 4;
/// Distinct block bodies per client; each block also carries its index.
const ST_BODIES: usize = 16;
/// Pipeline window of the read-back.
pub const WINDOW: usize = 8;

// churn_tt: the object life cycle over 1 MiB objects, 8 live per client.
const CH_OBJECT: usize = MIB;
const CH_IO: usize = 32 * KIB;
const CH_OVERWRITE: usize = 128 * KIB;
const CH_LIVE: usize = 8;
const CH_ITERS: usize = 16;
/// Fraction of 64-byte cells that are byte runs: frames LZ77 shrinks to
/// about half.
const CH_RUN_FRACTION: f64 = 0.5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointRw,
    StreamLarge,
    ChurnTt,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PointRw, Workload::StreamLarge, Workload::ChurnTt];

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRw => "point_rw",
            Workload::StreamLarge => "stream_large",
            Workload::ChurnTt => "churn_tt",
        }
    }

    /// Sizes, for the provenance record.
    pub fn sizes(self) -> Vec<(&'static str, u64)> {
        let per_client = |v: usize| (v * CLIENTS) as u64;
        match self {
            Workload::PointRw => vec![
                ("object_bytes", PT_OBJECT as u64),
                ("data_bytes", per_client(PT_OBJECT)),
                ("frame_bytes", FRAME as u64),
                ("ops_per_client_epoch", PT_OPS as u64),
                ("ops_per_commit", PT_TXN_OPS as u64),
                ("read_pct", 80),
                ("hot_pct", 20),
                ("hot_access_pct", 80),
            ],
            Workload::StreamLarge => vec![
                ("object_bytes", ST_OBJECT as u64),
                ("data_bytes", per_client(ST_OBJECT)),
                ("io_bytes", ST_IO as u64),
                ("writes_per_commit", ST_TXN_WRITES as u64),
                ("read_window", WINDOW as u64),
            ],
            Workload::ChurnTt => vec![
                ("object_bytes", CH_OBJECT as u64),
                ("live_objects_per_client", CH_LIVE as u64),
                ("data_bytes", per_client(CH_OBJECT * CH_LIVE)),
                ("io_bytes", CH_IO as u64),
                ("overwrite_bytes", CH_OVERWRITE as u64),
                ("iterations_per_client_epoch", CH_ITERS as u64),
            ],
        }
    }

    /// Live user bytes at the end of an epoch, all clients.
    pub fn live_bytes(self) -> u64 {
        (CLIENTS
            * match self {
                Workload::PointRw => PT_OBJECT,
                Workload::StreamLarge => ST_OBJECT,
                Workload::ChurnTt => CH_OBJECT * CH_LIVE,
            }) as u64
    }
}

/// splitmix64: small, fast and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `pct`/100.
    pub fn pct(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// A seed for one (client, epoch) stream, derived from the run's seed.
pub fn sub_seed(seed: u64, client: usize, epoch: u64) -> u64 {
    let mut r = Rng::new(seed ^ (client as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    r.0 ^= epoch.wrapping_mul(0x9FB2_1C65_1E98_DF25);
    r.next()
}

/// Request classes latencies are kept for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Read,
    AsOfRead,
    Write,
    Commit,
    Create,
    Unlink,
    /// Begin, open, close, and the commit of a read-only transaction.
    Other,
}

pub const KINDS: usize = 7;

/// One request as the trace keeps it, relative to the recorder's start.
pub struct Span {
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-client measurements: exact latencies per request class, counts,
/// and, in a traced run, one span per request.
pub struct Recorder {
    pub lat_ns: [Vec<u64>; KINDS],
    pub requests: u64,
    pub failed: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub spans: Option<Vec<Span>>,
    origin: Instant,
}

impl Recorder {
    pub fn new(trace: bool) -> Self {
        Self {
            lat_ns: Default::default(),
            requests: 0,
            failed: 0,
            bytes_read: 0,
            bytes_written: 0,
            spans: trace.then(Vec::new),
            origin: Instant::now(),
        }
    }

    fn record(&mut self, kind: Kind, start: Instant, dur_ns: u64) {
        self.lat_ns[kind as usize].push(dur_ns);
        if let Some(spans) = &mut self.spans {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            spans.push(Span { start_ns, dur_ns });
        }
    }

    fn fail(&mut self, msg: String) -> String {
        self.failed += 1;
        msg
    }

    /// Send one request and time it.
    pub fn call(
        &mut self,
        t: &mut dyn Target,
        kind: Kind,
        op: &Op<'_>,
        out: &mut Vec<u8>,
    ) -> Result<Scalar, String> {
        self.requests += 1;
        let start = Instant::now();
        let res = t.call(op, out);
        self.record(kind, start, start.elapsed().as_nanos() as u64);
        match (res, op) {
            (Ok(v), Op::ReadAt { .. }) => {
                self.bytes_read += out.len() as u64;
                Ok(v)
            }
            (Ok(v), Op::WriteAt { data, .. }) => {
                self.bytes_written += data.len() as u64;
                Ok(v)
            }
            (Ok(v), _) => Ok(v),
            (Err(e), _) => Err(self.fail(format!("{kind:?} request failed: {e}"))),
        }
    }

    /// Count a reply whose bytes differ from the shadow copy.
    pub fn verify(&mut self, got: &[u8], want: &[u8], what: &str) -> Result<(), String> {
        if got == want {
            Ok(())
        } else {
            Err(self.fail(format!(
                "{what}: {} bytes read differ from the {} expected",
                got.len(),
                want.len()
            )))
        }
    }
}

/// A client's inputs and shadow copies, made from the seed before the
/// set-up timer starts.
pub enum State {
    Point { id: u64, fd: u32, shadow: Vec<u8> },
    Stream { bodies: Vec<Vec<u8>>, tag: u64, id: Option<u64> },
    Churn(Box<Churn>),
}

pub struct Churn {
    gen: FrameGenerator,
    live: VecDeque<Live>,
    next_frame: u64,
    created: u64,
}

struct Live {
    id: u64,
    data: Vec<u8>,
    /// Commit timestamp of the last transaction that wrote it.
    ts: u64,
}

impl Workload {
    pub fn state(self, seed: u64, client: usize) -> State {
        let mut rng = Rng::new(sub_seed(seed, client, u64::MAX));
        match self {
            Workload::PointRw => {
                let mut shadow = vec![0u8; PT_OBJECT];
                rng.fill(&mut shadow);
                State::Point { id: 0, fd: 0, shadow }
            }
            Workload::StreamLarge => {
                let bodies = (0..ST_BODIES)
                    .map(|_| {
                        let mut b = vec![0u8; ST_IO];
                        rng.fill(&mut b);
                        b
                    })
                    .collect();
                State::Stream { bodies, tag: rng.next(), id: None }
            }
            Workload::ChurnTt => State::Churn(Box::new(Churn {
                gen: FrameGenerator::new(FRAME, CH_RUN_FRACTION, rng.next()),
                live: VecDeque::new(),
                next_frame: (client as u64) << 40,
                created: 0,
            })),
        }
    }

    /// Load the data the measured phase works on (part of set-up).
    pub fn preload(
        self,
        t: &mut dyn Target,
        rec: &mut Recorder,
        st: &mut State,
    ) -> Result<(), String> {
        let mut out = Vec::new();
        match st {
            State::Point { id, fd, shadow } => {
                rec.call(t, Kind::Other, &Op::Begin, &mut out)?;
                *id = rec.call(t, Kind::Create, &Op::Create(LoKind::FChunk), &mut out)?;
                *fd =
                    rec.call(t, Kind::Other, &Op::Open { id: *id, write: true }, &mut out)? as u32;
                for (i, chunk) in shadow.chunks(PRELOAD_IO).enumerate() {
                    let op = Op::WriteAt { fd: *fd, off: (i * PRELOAD_IO) as u64, data: chunk };
                    rec.call(t, Kind::Write, &op, &mut out)?;
                }
                rec.call(t, Kind::Commit, &Op::Commit, &mut out)?;
            }
            State::Stream { .. } => {}
            State::Churn(ch) => {
                for _ in 0..CH_LIVE {
                    ch.create(t, rec)?;
                }
            }
        }
        Ok(())
    }

    /// One epoch's fixed amount of work.
    pub fn run(
        self,
        t: &mut dyn Target,
        rec: &mut Recorder,
        st: &mut State,
        rng: &mut Rng,
    ) -> Result<(), String> {
        match st {
            State::Point { fd, shadow, .. } => point_rw(t, rec, *fd, shadow, rng),
            State::Stream { bodies, tag, id } => stream_large(t, rec, bodies, *tag, id),
            State::Churn(ch) => {
                for _ in 0..CH_ITERS {
                    ch.iteration(t, rec, rng)?;
                }
                Ok(())
            }
        }
    }

    /// Close and unlink what the epoch created (after the measured phase),
    /// for a lobd that serves the next epoch too.
    pub fn cleanup(
        self,
        t: &mut dyn Target,
        rec: &mut Recorder,
        st: &mut State,
    ) -> Result<(), String> {
        let mut out = Vec::new();
        let ids: Vec<u64> = match st {
            State::Point { id, fd, .. } => {
                rec.call(t, Kind::Other, &Op::Close { fd: *fd }, &mut out)?;
                vec![*id]
            }
            State::Stream { id, .. } => id.take().into_iter().collect(),
            State::Churn(ch) => ch.live.drain(..).map(|l| l.id).collect(),
        };
        for id in ids {
            rec.call(t, Kind::Unlink, &Op::Unlink { id }, &mut out)?;
        }
        Ok(())
    }
}

fn point_rw(
    t: &mut dyn Target,
    rec: &mut Recorder,
    fd: u32,
    shadow: &mut [u8],
    rng: &mut Rng,
) -> Result<(), String> {
    let mut out = Vec::with_capacity(FRAME);
    let mut frame = vec![0u8; FRAME];
    let hot = rng.below(PT_FRAMES - PT_HOT);
    for _ in 0..PT_OPS / PT_TXN_OPS {
        rec.call(t, Kind::Other, &Op::Begin, &mut out)?;
        for _ in 0..PT_TXN_OPS {
            let f = if rng.pct(80) { hot + rng.below(PT_HOT) } else { rng.below(PT_FRAMES) };
            let at = f as usize * FRAME;
            let off = at as u64;
            if rng.pct(80) {
                rec.call(t, Kind::Read, &Op::ReadAt { fd, off, len: FRAME as u32 }, &mut out)?;
                rec.verify(&out, &shadow[at..at + FRAME], "read_at")?;
            } else {
                rng.fill(&mut frame);
                rec.call(t, Kind::Write, &Op::WriteAt { fd, off, data: &frame }, &mut out)?;
                shadow[at..at + FRAME].copy_from_slice(&frame);
            }
        }
        rec.call(t, Kind::Commit, &Op::Commit, &mut out)?;
    }
    Ok(())
}

/// Block `k` of a stream object: a body chosen by `k`, stamped with `k`
/// and the client's tag so a misplaced block cannot pass for another.
fn stream_block(bodies: &[Vec<u8>], tag: u64, k: usize, buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&bodies[k % bodies.len()]);
    buf[..8].copy_from_slice(&(k as u64).to_le_bytes());
    buf[8..16].copy_from_slice(&tag.to_le_bytes());
}

fn stream_large(
    t: &mut dyn Target,
    rec: &mut Recorder,
    bodies: &[Vec<u8>],
    tag: u64,
    object: &mut Option<u64>,
) -> Result<(), String> {
    let mut out = Vec::new();
    let mut block = Vec::with_capacity(ST_IO);
    rec.call(t, Kind::Other, &Op::Begin, &mut out)?;
    let id = rec.call(t, Kind::Create, &Op::Create(LoKind::FChunk), &mut out)?;
    *object = Some(id);
    let fd = rec.call(t, Kind::Other, &Op::Open { id, write: true }, &mut out)? as u32;
    for k in 0..ST_BLOCKS {
        stream_block(bodies, tag, k, &mut block);
        rec.call(
            t,
            Kind::Write,
            &Op::WriteAt { fd, off: (k * ST_IO) as u64, data: &block },
            &mut out,
        )?;
        if (k + 1) % ST_TXN_WRITES == 0 {
            rec.call(t, Kind::Commit, &Op::Commit, &mut out)?;
            if k + 1 < ST_BLOCKS {
                rec.call(t, Kind::Other, &Op::Begin, &mut out)?;
            }
        }
    }

    rec.call(t, Kind::Other, &Op::Begin, &mut out)?;
    let offs: Vec<u64> = (0..ST_BLOCKS).map(|k| (k * ST_IO) as u64).collect();
    let mut mismatch = None;
    let res = t.read_pipelined(fd, &offs, ST_IO as u32, WINDOW, &mut |k, data, dur_ns| {
        rec.requests += 1;
        rec.bytes_read += data.len() as u64;
        rec.record(Kind::Read, Instant::now() - Duration::from_nanos(dur_ns), dur_ns);
        stream_block(bodies, tag, k, &mut block);
        if data != block.as_slice() && mismatch.is_none() {
            mismatch = Some((k, data.to_vec()));
        }
    });
    if let Err(e) = res {
        rec.requests += 1;
        return Err(rec.fail(format!("pipelined read failed: {e}")));
    }
    if let Some((k, data)) = mismatch {
        stream_block(bodies, tag, k, &mut block);
        return rec.verify(&data, &block, "pipelined read_at");
    }
    rec.call(t, Kind::Other, &Op::Commit, &mut out)?;
    rec.call(t, Kind::Other, &Op::Close { fd }, &mut out)?;
    Ok(())
}

impl Churn {
    fn frames(&mut self, bytes: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(bytes);
        while data.len() < bytes {
            data.extend_from_slice(&self.gen.frame(self.next_frame));
            self.next_frame += 1;
        }
        data
    }

    /// Create an object, alternating f-chunk and v-segment+LZ77, and
    /// write it in `CH_IO` ops in one transaction.
    fn create(&mut self, t: &mut dyn Target, rec: &mut Recorder) -> Result<(), String> {
        let kind = if self.created.is_multiple_of(2) { LoKind::FChunk } else { LoKind::VSegLz77 };
        self.created += 1;
        let data = self.frames(CH_OBJECT);
        let mut out = Vec::new();
        rec.call(t, Kind::Other, &Op::Begin, &mut out)?;
        let id = rec.call(t, Kind::Create, &Op::Create(kind), &mut out)?;
        let fd = rec.call(t, Kind::Other, &Op::Open { id, write: true }, &mut out)? as u32;
        for (i, chunk) in data.chunks(CH_IO).enumerate() {
            rec.call(
                t,
                Kind::Write,
                &Op::WriteAt { fd, off: (i * CH_IO) as u64, data: chunk },
                &mut out,
            )?;
        }
        rec.call(t, Kind::Other, &Op::Close { fd }, &mut out)?;
        let ts = rec.call(t, Kind::Commit, &Op::Commit, &mut out)?;
        self.live.push_back(Live { id, data, ts });
        Ok(())
    }

    /// Create; overwrite part of a live object and read it back; read
    /// the version before the overwrite as of its timestamp; unlink the
    /// oldest object beyond `CH_LIVE`.
    fn iteration(
        &mut self,
        t: &mut dyn Target,
        rec: &mut Recorder,
        rng: &mut Rng,
    ) -> Result<(), String> {
        self.create(t, rec)?;
        let new = self.frames(CH_OVERWRITE);
        let i = rng.below(self.live.len() as u64) as usize;
        let at = rng.below(((CH_OBJECT - CH_OVERWRITE) / FRAME + 1) as u64) as usize * FRAME;
        let (id, old_ts) = (self.live[i].id, self.live[i].ts);
        let mut out = Vec::new();

        rec.call(t, Kind::Other, &Op::Begin, &mut out)?;
        let fd = rec.call(t, Kind::Other, &Op::Open { id, write: true }, &mut out)? as u32;
        for (j, chunk) in new.chunks(CH_IO).enumerate() {
            let off = (at + j * CH_IO) as u64;
            rec.call(t, Kind::Write, &Op::WriteAt { fd, off, data: chunk }, &mut out)?;
        }
        for (j, want) in new.chunks(CH_IO).enumerate() {
            let off = (at + j * CH_IO) as u64;
            rec.call(t, Kind::Read, &Op::ReadAt { fd, off, len: CH_IO as u32 }, &mut out)?;
            rec.verify(&out, want, "read_at after overwrite")?;
        }
        rec.call(t, Kind::Other, &Op::Close { fd }, &mut out)?;
        let ts = rec.call(t, Kind::Commit, &Op::Commit, &mut out)?;

        let fd = rec.call(t, Kind::Other, &Op::OpenAsOf { id, ts: old_ts }, &mut out)? as u32;
        let old = &self.live[i].data[at..at + CH_OVERWRITE];
        for (j, want) in old.chunks(CH_IO).enumerate() {
            let off = (at + j * CH_IO) as u64;
            rec.call(t, Kind::AsOfRead, &Op::ReadAt { fd, off, len: CH_IO as u32 }, &mut out)?;
            rec.verify(&out, want, "read_at as of the previous version")?;
        }
        rec.call(t, Kind::Other, &Op::Close { fd }, &mut out)?;
        let obj = &mut self.live[i];
        obj.data[at..at + CH_OVERWRITE].copy_from_slice(&new);
        obj.ts = ts;

        if self.live.len() > CH_LIVE {
            let gone = self.live.pop_front().expect("more than CH_LIVE objects are live");
            rec.call(t, Kind::Unlink, &Op::Unlink { id: gone.id }, &mut out)?;
        }
        Ok(())
    }

    /// Frames of the kind this workload writes, for timing the codec.
    pub fn sample_frames(&self, n: u64) -> Vec<Vec<u8>> {
        (0..n).map(|i| self.gen.frame(i)).collect()
    }
}
