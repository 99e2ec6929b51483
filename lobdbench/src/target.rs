//! The three depths a request can enter lobd at, behind one interface.
//!
//! * [`Tcp`] — a v4 session over loopback TCP: proto, reactor, executor,
//!   service and everything below.
//! * [`Direct`] — the same `(opcode, payload)` frames handed straight to
//!   [`LobdService::handle_frame`] on a [`Session`]: service and below.
//! * [`Core`] — the same logical operations as direct `pglo_core` calls
//!   ([`LoStore`] + [`LoCursor`], which is what the service dispatches
//!   to): core and below.
//!
//! Every depth receives the same requests for the same seed, so the
//! difference between two depths' timings is the self time of the layers
//! between them.

use pglo_compress::CodecKind;
use pglo_core::{LoCursor, LoId, LoSpec, LoStore, OpenMode, UserId};
use pglo_heap::StorageEnv;
use pglo_server::proto::{self, Opcode, Reader};
use pglo_server::{Client, LobdService, Session, WireSpec};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Large-object implementations the workloads create.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoKind {
    /// f-chunk, uncompressed.
    FChunk,
    /// v-segment with LZ77 per segment.
    VSegLz77,
}

/// One request, at the level of the wire protocol.
pub enum Op<'a> {
    Begin,
    Commit,
    Create(LoKind),
    Open { id: u64, write: bool },
    OpenAsOf { id: u64, ts: u64 },
    ReadAt { fd: u32, off: u64, len: u32 },
    WriteAt { fd: u32, off: u64, data: &'a [u8] },
    Close { fd: u32 },
    Unlink { id: u64 },
}

/// What a request returns besides read data: the commit timestamp, the
/// new object id or the descriptor; 0 for the rest.
pub type Scalar = u64;

/// A client session at one depth. Read data lands in `out`.
pub trait Target: Send {
    fn call(&mut self, op: &Op<'_>, out: &mut Vec<u8>) -> Result<Scalar, String>;

    /// Positioned reads of `len` bytes at each of `offs` on `fd`, with up
    /// to `window` requests in flight. `done(i, data, latency_ns)` runs for
    /// each reply in order. Depths without a pipeline send them one by
    /// one.
    fn read_pipelined(
        &mut self,
        fd: u32,
        offs: &[u64],
        len: u32,
        _window: usize,
        done: &mut dyn FnMut(usize, &[u8], u64),
    ) -> Result<(), String> {
        let mut out = Vec::new();
        for (i, &off) in offs.iter().enumerate() {
            let t = Instant::now();
            self.call(&Op::ReadAt { fd, off, len }, &mut out)?;
            done(i, &out, t.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Frames kept for timing the codec (only [`Direct`] keeps any).
    fn take_frames(&mut self) -> Vec<(u8, Vec<u8>)> {
        Vec::new()
    }
}

/// Encode a request as the frame the typed client would send.
pub fn encode(op: &Op<'_>, p: &mut Vec<u8>) -> Opcode {
    p.clear();
    match *op {
        Op::Begin => Opcode::Begin,
        Op::Commit => Opcode::Commit,
        Op::Create(kind) => {
            let spec = match kind {
                LoKind::FChunk => WireSpec::fchunk(),
                LoKind::VSegLz77 => WireSpec::vsegment(2),
            };
            spec.encode(p);
            Opcode::LoCreate
        }
        Op::Open { id, write } => {
            proto::put_u64(p, id);
            p.push(u8::from(write));
            proto::put_u32(p, 0);
            Opcode::LoOpen
        }
        Op::OpenAsOf { id, ts } => {
            proto::put_u64(p, id);
            proto::put_u64(p, ts);
            Opcode::LoOpenAsOf
        }
        Op::ReadAt { fd, off, len } => {
            proto::put_u32(p, fd);
            proto::put_u64(p, off);
            proto::put_u32(p, len);
            Opcode::LoReadAt
        }
        Op::WriteAt { fd, off, data } => {
            proto::put_u32(p, fd);
            proto::put_u64(p, off);
            proto::put_bytes(p, data);
            Opcode::LoWriteAt
        }
        Op::Close { fd } => {
            proto::put_u32(p, fd);
            Opcode::LoClose
        }
        Op::Unlink { id } => {
            proto::put_u64(p, id);
            Opcode::LoUnlink
        }
    }
}

/// Decode a `(status, payload)` reply for `op`.
fn decode(op: &Op<'_>, status: u8, reply: Vec<u8>, out: &mut Vec<u8>) -> Result<Scalar, String> {
    if status != 0 {
        return Err(format!("status {status}: {}", String::from_utf8_lossy(&reply)));
    }
    let mut r = Reader::new(&reply);
    let v = match op {
        Op::Commit | Op::Create(_) => r.u64().map_err(|e| e.to_string())?,
        Op::Open { .. } | Op::OpenAsOf { .. } => u64::from(r.u32().map_err(|e| e.to_string())?),
        Op::ReadAt { .. } => {
            *out = reply;
            return Ok(0);
        }
        _ => 0,
    };
    r.finish().map_err(|e| e.to_string())?;
    Ok(v)
}

/// A v4 session over TCP, one request in flight (a caller waiting for
/// its reply), except in [`Target::read_pipelined`].
pub struct Tcp {
    client: Client<TcpStream>,
    payload: Vec<u8>,
}

impl Tcp {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Self { client, payload: Vec::new() })
    }
}

impl Target for Tcp {
    fn call(&mut self, op: &Op<'_>, out: &mut Vec<u8>) -> Result<Scalar, String> {
        let code = encode(op, &mut self.payload);
        let (status, reply) =
            self.client.call_raw(code as u8, &self.payload).map_err(|e| e.to_string())?;
        decode(op, status, reply, out)
    }

    fn read_pipelined(
        &mut self,
        fd: u32,
        offs: &[u64],
        len: u32,
        window: usize,
        done: &mut dyn FnMut(usize, &[u8], u64),
    ) -> Result<(), String> {
        let mut pipe = self.client.pipeline_with_window(window);
        let mut inflight = std::collections::VecDeque::with_capacity(window);
        let mut next = 0;
        let mut offs = offs.iter();
        loop {
            if inflight.len() < window {
                if let Some(&off) = offs.next() {
                    let sent = Instant::now();
                    let ticket = pipe.lo_read_at(fd, off, len).map_err(|e| e.to_string())?;
                    inflight.push_back((ticket, sent));
                    continue;
                }
            }
            let Some((ticket, sent)) = inflight.pop_front() else { return Ok(()) };
            let data = pipe.redeem(ticket).map_err(|e| e.to_string())?;
            done(next, &data, sent.elapsed().as_nanos() as u64);
            next += 1;
        }
    }
}

/// Frames kept for timing the codec, up to a byte budget.
pub struct FrameLog {
    pub frames: Vec<(u8, Vec<u8>)>,
    budget: usize,
}

impl FrameLog {
    pub fn new(budget: usize) -> Self {
        Self { frames: Vec::new(), budget }
    }

    fn keep(&mut self, code: u8, payload: &[u8]) {
        if payload.len() <= self.budget {
            self.budget -= payload.len();
            self.frames.push((code, payload.to_vec()));
        }
    }
}

/// Frames handed straight to the service, skipping socket and reactor.
pub struct Direct {
    service: Arc<LobdService>,
    session: Session,
    payload: Vec<u8>,
    /// Requests and replies as they would cross the wire.
    log: Option<FrameLog>,
}

impl Direct {
    pub fn new(service: &Arc<LobdService>, log: Option<FrameLog>) -> Self {
        let mut session = service.session_opened();
        session.set_proto_version(4);
        Self { service: Arc::clone(service), session, payload: Vec::new(), log }
    }
}

impl Target for Direct {
    fn call(&mut self, op: &Op<'_>, out: &mut Vec<u8>) -> Result<Scalar, String> {
        let code = encode(op, &mut self.payload);
        let (status, reply) =
            self.service.handle_frame(&mut self.session, code as u8, &self.payload);
        if let Some(log) = &mut self.log {
            log.keep(code as u8, &self.payload);
            log.keep(status, &reply);
        }
        decode(op, status, reply, out)
    }

    fn take_frames(&mut self) -> Vec<(u8, Vec<u8>)> {
        self.log.take().map_or_else(Vec::new, |log| log.frames)
    }
}

impl Drop for Direct {
    fn drop(&mut self) {
        self.service.session_closed(&mut self.session);
    }
}

/// Direct `pglo_core` calls: the work the service dispatches each frame
/// to, without decode, session lookup, reply encoding or the request
/// loop's amortized redo capture.
pub struct Core {
    env: Arc<StorageEnv>,
    store: Arc<LoStore>,
    txn: Option<pglo_txn::Txn>,
    cursors: HashMap<u32, LoCursor>,
    next_fd: u32,
}

impl Core {
    pub fn new(service: &LobdService) -> Self {
        Self {
            env: Arc::clone(service.env()),
            store: Arc::clone(service.store()),
            txn: None,
            cursors: HashMap::new(),
            next_fd: 1,
        }
    }

    fn install(&mut self, cur: LoCursor) -> Scalar {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.cursors.insert(fd, cur);
        u64::from(fd)
    }

    fn cursor(&self, fd: u32) -> Result<&LoCursor, String> {
        self.cursors.get(&fd).ok_or_else(|| format!("bad descriptor {fd}"))
    }
}

impl Target for Core {
    fn call(&mut self, op: &Op<'_>, out: &mut Vec<u8>) -> Result<Scalar, String> {
        let e = |e: pglo_core::LoError| e.to_string();
        match *op {
            Op::Begin => {
                self.txn = Some(self.env.begin());
                Ok(0)
            }
            Op::Commit => {
                let txn = self.txn.take().ok_or("commit without a transaction")?;
                txn.try_commit().map_err(|e| e.to_string())
            }
            Op::Create(kind) => {
                let spec = match kind {
                    LoKind::FChunk => LoSpec::fchunk(),
                    LoKind::VSegLz77 => LoSpec::vsegment(CodecKind::Lz77),
                }
                .owned_by(UserId(0));
                let txn = self.txn.as_ref().ok_or("create without a transaction")?;
                Ok(self.store.create(txn, &spec).map_err(e)?.0)
            }
            Op::Open { id, write } => {
                let mode = if write { OpenMode::ReadWrite } else { OpenMode::ReadOnly };
                let txn = self.txn.as_ref().ok_or("open without a transaction")?;
                self.store
                    .open_as(txn, LoId(id), mode, UserId(0))
                    .map_err(e)?
                    .close()
                    .map_err(e)?;
                Ok(self.install(LoCursor::new(LoId(id), mode, UserId(0))))
            }
            Op::OpenAsOf { id, ts } => {
                self.store.open_as_of(LoId(id), ts).map_err(e)?.close().map_err(e)?;
                Ok(self.install(LoCursor::as_of(LoId(id), ts)))
            }
            Op::ReadAt { fd, off, len } => {
                out.clear();
                out.resize(len as usize, 0);
                let n = self
                    .cursor(fd)?
                    .read_at(&self.store, self.txn.as_ref(), off, out)
                    .map_err(e)?;
                out.truncate(n);
                Ok(0)
            }
            Op::WriteAt { fd, off, data } => {
                self.cursor(fd)?.write_at(&self.store, self.txn.as_ref(), off, data).map_err(e)?;
                Ok(0)
            }
            Op::Close { fd } => {
                self.cursors.remove(&fd).ok_or_else(|| format!("bad descriptor {fd}"))?;
                Ok(0)
            }
            Op::Unlink { id } => {
                self.store.unlink(LoId(id)).map_err(e)?;
                Ok(0)
            }
        }
    }
}
