//! The per-layer metrics, the end-to-end metric each should move, and
//! the request ledger of a traced run.
//!
//! A traced run replays the same seed at three depths (TCP, direct
//! `handle_frame`, direct `pglo_core`) and reads lobd's counters between
//! them: pool statistics, WAL end LSN, transaction counters and the obs
//! spans' `.count`/`.sum_ns`. Heap and B-tree self time cannot be told
//! apart from outside beyond `core.create_us` and the chunk walk.

use crate::run::Agg;
use crate::workload::{Kind, Workload};
use pglo_compress::CodecKind;
use pglo_server::proto;
use std::hint::black_box;
use std::time::Instant;

use Workload::{ChurnTt as C, PointRw as P, StreamLarge as S};

/// One per-layer metric.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// End-to-end metrics it should move, and on which workload.
    pub moves: &'static str,
    /// Workloads that exercise it: the traced run fails if it reads 0
    /// there.
    pub nonzero_on: &'static [Workload],
    /// Derived from obs spans or histograms, so unavailable without obs.
    pub from_obs: bool,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    nonzero_on: &'static [Workload],
    from_obs: bool,
) -> LayerMetric {
    LayerMetric { name, unit, moves, nonzero_on, from_obs }
}

/// The layer → end-to-end map. `BENCHMARK.json` lists the same names.
pub const LAYER_METRICS: &[LayerMetric] = &[
    m(
        "server.proto.encode_ns",
        "ns",
        "ops_per_s, read_p50_us on point_rw; ~0 share on stream_large",
        &[P, S, C],
        false,
    ),
    m(
        "server.proto.decode_ns",
        "ns",
        "ops_per_s, read_p50_us on point_rw; ~0 share on stream_large",
        &[P, S, C],
        false,
    ),
    m("server.reactor.self_us", "us", "read_p50_us, ops_per_s on point_rw", &[P], false),
    m("server.service.self_us", "us", "read_p50_us, ops_per_s on point_rw", &[P], false),
    m("core.read_us", "us", "read_* on all workloads", &[P, S, C], false),
    m("core.write_us", "us", "write_* on all workloads", &[P, S, C], false),
    m("core.create_us", "us", "write_* on churn_tt", &[C], false),
    m("core.unlink_us", "us", "write_* on churn_tt", &[C], false),
    m("core.asof_read_us", "us", "read_* on churn_tt", &[C], false),
    m("core.fchunk.chunk_walk_mean", "chunks", "read_p50_us on point_rw", &[P], true),
    m(
        "buffer.hit_rate",
        "ratio",
        "mib_per_s on stream_large; read_p99_us on point_rw",
        &[P, S],
        false,
    ),
    m(
        "buffer.misses_per_op",
        "1/op",
        "mib_per_s on stream_large; read_p99_us on point_rw",
        &[S],
        false,
    ),
    m(
        "buffer.evictions_per_op",
        "1/op",
        "mib_per_s on stream_large; read_p99_us on point_rw",
        &[S],
        false,
    ),
    m(
        "buffer.miss_load_us",
        "us",
        "mib_per_s on stream_large; read_p99_us on point_rw",
        &[S],
        true,
    ),
    m(
        "buffer.prefetch_hit_rate",
        "ratio",
        "mib_per_s on stream_large (0 while the read-ahead gate stays shut)",
        &[],
        false,
    ),
    m("buffer.bgwriter_pages", "pages", "mib_per_s on stream_large", &[S], false),
    m("buffer.capture_us_per_commit", "us", "commit_p95_us, write_p99_us on point_rw", &[P], true),
    m("buffer.pin_retry_rate", "ratio", "commit_p95_us, write_p99_us on point_rw", &[], true),
    m(
        "wal.bytes_per_commit",
        "bytes",
        "commit_*, wal_bytes_per_user_byte on point_rw, churn_tt",
        &[P, C],
        false,
    ),
    m(
        "wal.group_commit_batch_mean",
        "commits",
        "commit_*, wal_bytes_per_user_byte on point_rw, churn_tt",
        &[P, C],
        true,
    ),
    m(
        "wal.fsyncs_per_commit",
        "1/commit",
        "commit_* on point_rw, churn_tt (0 unless durable_sync)",
        &[],
        true,
    ),
    m("txn.commit_us", "us", "commit_p50_us on point_rw", &[P, C], true),
    m("txn.clog_append_us", "us", "commit_p50_us on point_rw", &[P], true),
    m(
        "smgr.disk.read_us",
        "us",
        "mib_per_s on stream_large; ~0 on point_rw reads (single and batched reads)",
        &[S],
        true,
    ),
    m(
        "smgr.disk.reads_per_op",
        "1/op",
        "mib_per_s on stream_large; ~0 on point_rw reads (single and batched reads)",
        &[S],
        true,
    ),
    m(
        "smgr.disk.read_many_per_op",
        "1/op",
        "mib_per_s on stream_large (read-ahead batches)",
        &[],
        true,
    ),
    m("smgr.disk.write_us", "us", "mib_per_s on stream_large", &[S], true),
    m("smgr.disk.writes_per_user_mib", "1/MiB", "mib_per_s on stream_large", &[S], true),
    m(
        "compress.ratio",
        "ratio",
        "write_p50_us, space_amp on churn_tt; none elsewhere",
        &[C],
        false,
    ),
    m(
        "compress.ns_per_byte",
        "ns/B",
        "write_p50_us, space_amp on churn_tt; none elsewhere",
        &[C],
        false,
    ),
    m(
        "decompress.ns_per_byte",
        "ns/B",
        "write_p50_us, space_amp on churn_tt; none elsewhere",
        &[C],
        false,
    ),
    m("trace.overhead_pct", "%", "none: what the traced run's own spans cost", &[], false),
];

pub fn median(sorted: &[u64]) -> f64 {
    percentile(sorted, 0.5)
}

/// Nearest-rank percentile of sorted samples; 0 for none.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nanoseconds per call of `f`, repeated until `min_ns` have passed.
fn time_ns(min_ns: u128, mut f: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let (mut calls, mut reps) = (0usize, 0u32);
    while reps < 3 || start.elapsed().as_nanos() < min_ns {
        calls += f();
        reps += 1;
    }
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Encode and decode time per frame of the workload's own requests and
/// replies, as the v4 reactor frames them.
fn codec_ns(frames: &[(u8, Vec<u8>)]) -> (f64, f64) {
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    let mut buf = Vec::new();
    let encode = time_ns(20_000_000, || {
        for (i, (code, payload)) in frames.iter().enumerate() {
            buf.clear();
            proto::encode_frame_into(&mut buf, true, i as u32 + 1, *code, payload);
            black_box(&buf);
        }
        frames.len()
    });
    let wire: Vec<Vec<u8>> = frames
        .iter()
        .map(|(code, payload)| {
            let mut b = Vec::new();
            proto::encode_frame_into(&mut b, true, 1, *code, payload);
            b
        })
        .collect();
    let decode = time_ns(20_000_000, || {
        for b in &wire {
            let frame = proto::decode_frame(black_box(b), true);
            assert!(matches!(frame, Ok(Some(_))), "a recorded frame failed to decode");
            black_box(frame.ok());
        }
        wire.len()
    });
    (encode, decode)
}

/// LZ77 ratio and cost per input byte on churn_tt's frames.
fn codec_cost(frames: &[Vec<u8>]) -> (f64, f64, f64) {
    let codec = CodecKind::Lz77.codec();
    let packed: Vec<Vec<u8>> =
        frames.iter().map(|f| pglo_compress::compress_vec(codec, f)).collect();
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let ratio = packed.iter().map(Vec::len).sum::<usize>() as f64 / bytes as f64;
    let comp = time_ns(50_000_000, || {
        for f in frames {
            black_box(pglo_compress::compress_vec(codec, black_box(f)));
        }
        bytes
    });
    let decomp = time_ns(50_000_000, || {
        for (p, f) in packed.iter().zip(frames) {
            let out = pglo_compress::decompress_vec(codec, black_box(p));
            assert!(out.as_deref() == Ok(f.as_slice()), "LZ77 round trip changed a frame");
        }
        bytes
    });
    (ratio, comp, decomp)
}

/// Everything a traced run measured.
pub struct Traced<'a> {
    pub workload: Workload,
    pub tcp: &'a Agg,
    pub direct: &'a Agg,
    pub core: &'a Agg,
    /// Measured seconds of the untraced TCP passes.
    pub plain_s: f64,
    pub churn_frames: Vec<Vec<u8>>,
}

/// Per-layer metric values, in [`LAYER_METRICS`] order; `None` where the
/// build has no obs.
pub fn compute(t: &Traced<'_>) -> Vec<Option<f64>> {
    let (tcp, d) = (t.tcp, &t.tcp.delta);
    let us = |ns: f64| ns / 1e3;
    let core_median = |k: Kind| us(median(&t.core.sorted(&[k])));
    let ops = tcp.requests as f64;
    let commits = d.commits as f64;
    let (enc, dec) = codec_ns(&t.direct.frames);
    let (cratio, cns, dns) =
        if t.workload == C { codec_cost(&t.churn_frames) } else { (0.0, 0.0, 0.0) };
    let pins = d.obs("pool.pin.fast") + d.obs("pool.pin.slow");
    let user_mib = tcp.bytes_written as f64 / (1024.0 * 1024.0);
    let values = [
        enc,
        dec,
        us(median(&tcp.all_sorted()) - median(&t.direct.all_sorted())),
        us(median(&t.direct.all_sorted()) - median(&t.core.all_sorted())),
        core_median(Kind::Read),
        core_median(Kind::Write),
        core_median(Kind::Create),
        core_median(Kind::Unlink),
        core_median(Kind::AsOfRead),
        d.mean("lo.fchunk.chunk_walk"),
        d.pool.hit_rate(),
        ratio(d.pool.misses as f64, ops),
        ratio(d.pool.evictions as f64, ops),
        us(d.mean("pool.miss.load")),
        ratio(d.pool.prefetch_hits as f64, d.pool.prefetch_pages as f64),
        ratio(d.pool.bgwriter_pages as f64, tcp.epochs as f64),
        us(ratio(d.obs("pool.capture.sum_ns"), commits)),
        ratio(d.obs("pool.pin.retries"), pins),
        ratio(d.wal_bytes as f64, commits),
        d.mean("wal.group_commit.batch"),
        ratio(d.obs("wal.fsync.count"), commits),
        us(d.mean("txn.commit")),
        us(d.mean("txn.clog.append")),
        us(ratio(
            d.obs("smgr.disk.read.sum_ns") + d.obs("smgr.disk.read_many.sum_ns"),
            d.obs("smgr.disk.read.count") + d.obs("smgr.disk.read_many.count"),
        )),
        ratio(d.obs("smgr.disk.read.count") + d.obs("smgr.disk.read_many.count"), ops),
        ratio(d.obs("smgr.disk.read_many.count"), ops),
        us(d.mean("smgr.disk.write")),
        ratio(d.obs("smgr.disk.write.count"), user_mib),
        cratio,
        cns,
        dns,
        100.0 * ratio(tcp.measured_s - t.plain_s, t.plain_s),
    ];
    assert_eq!(values.len(), LAYER_METRICS.len(), "one value per layer metric");
    LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(lm, v)| (obs::active() || !lm.from_obs).then_some(v))
        .collect()
}

/// Exercised metrics that read 0, and a flush-policy breach. A self time
/// taken as the difference of two depths may come out negative when the
/// layer costs less than the noise; that still shows it was measured.
pub fn check(w: Workload, values: &[Option<f64>], durable_sync: bool) -> Vec<String> {
    let mut bad = Vec::new();
    for (lm, v) in LAYER_METRICS.iter().zip(values) {
        let Some(v) = *v else { continue };
        if lm.nonzero_on.contains(&w) && (v == 0.0 || v.is_nan()) {
            bad.push(format!("{} = {v} on {}, which exercises it", lm.name, w.name()));
        }
        if lm.name == "wal.fsyncs_per_commit" && (v > 0.0) != durable_sync {
            bad.push(format!("{} = {v} under durable_sync = {durable_sync}", lm.name));
        }
    }
    bad
}

fn mean_us(lat: &[u64]) -> f64 {
    ratio(lat.iter().sum::<u64>() as f64, lat.len() as f64) / 1e3
}

/// The ledger: where a request's mean time goes, depth by depth, then
/// inside core from the core-depth counters. Means add up; medians would
/// not.
pub fn ledger(t: &Traced<'_>) -> String {
    let all = |a: &Agg| a.lat_ns.concat();
    let (client, service, core) =
        (mean_us(&all(t.tcp)), mean_us(&all(t.direct)), mean_us(&all(t.core)));
    let d = &t.core.delta;
    let per_req =
        |span: &str| ratio(d.obs(&format!("{span}.sum_ns")), t.core.requests as f64) / 1e3;
    let (miss, commit) = (per_req("pool.miss.load"), per_req("txn.commit"));
    let mut s = format!(
        "ledger {}: mean us per request, {} requests per depth from {} clients\n",
        t.workload.name(),
        t.tcp.requests,
        crate::workload::CLIENTS,
    );
    let row = |s: &mut String, name: &str, v: f64| {
        s.push_str(&format!("  {name:<52} {v:>10.2} us {:>6.1}%\n", 100.0 * ratio(v, client)))
    };
    row(&mut s, "client round trip (TCP, v4)", client);
    row(&mut s, "  reactor + wire   = TCP - handle_frame", client - service);
    row(&mut s, "  service dispatch = handle_frame - core", service - core);
    row(&mut s, "  core (direct pglo_core calls)", core);
    if obs::active() {
        row(&mut s, "    pool miss load, incl. smgr reads", miss);
        row(&mut s, "    txn commit: capture, WAL append, clog", commit);
        row(&mut s, "      of which clog append", per_req("txn.clog.append"));
        row(&mut s, "      of which WAL fsync", per_req("wal.fsync"));
        row(&mut s, "    remainder: heap, B-tree, chunk walk, codec, copies", core - miss - commit);
        s.push_str("  partly off the request path (bgwriter), per request:\n");
        row(&mut s, "    redo capture", per_req("pool.capture"));
        row(&mut s, "    page write-back", per_req("pool.writeback"));
    } else {
        s.push_str("  core breakdown unavailable: built without obs\n");
    }
    s.push_str("  per request class: count, mean us at TCP / handle_frame / core\n");
    for (i, name) in
        ["read", "as-of read", "write", "commit", "create", "unlink", "other"].iter().enumerate()
    {
        let n = t.tcp.lat_ns[i].len();
        if n > 0 {
            s.push_str(&format!(
                "    {name:<12} {n:>8} {:>10.2} {:>10.2} {:>10.2}\n",
                mean_us(&t.tcp.lat_ns[i]),
                mean_us(&t.direct.lat_ns[i]),
                mean_us(&t.core.lat_ns[i]),
            ));
        }
    }
    s.push_str(&format!(
        "  clients spent {:.1}% of their time inside requests; {} spans recorded\n",
        100.0 * ratio(t.tcp.busy_ns as f64, t.tcp.window_ns as f64),
        t.tcp.spans + t.direct.spans + t.core.spans,
    ));
    s
}

/// Every layer metric with the end-to-end metric it should move.
pub fn table(values: &[Option<f64>]) -> String {
    let mut s = String::from("layer metrics (value, unit, should move):\n");
    for (lm, v) in LAYER_METRICS.iter().zip(values) {
        let v = v.map_or_else(|| "unavailable".to_string(), |v| format!("{v:.4}"));
        s.push_str(&format!("  {:<32} {v:>14} {:<8} {}\n", lm.name, lm.unit, lm.moves));
    }
    s
}
