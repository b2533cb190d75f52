//! The traced run's layer probes: the benchmark's own calls into each
//! layer's public functions, recorded as spans.
//!
//! Read probes send each line once over a depth-1 connection (the
//! request's root span), then run it in process: `wire::handle_line`
//! (`wire.exec`), `wire::parse_request` (`wire.parse`) and the
//! `QueryTarget` call (`query.<op>`), with `Opened::snapshots`
//! (`snapshot.pin`) and `Stiu::trajs_in_interval` (`stiu.candidates`)
//! as children of the query. Before each line a served `ping` measures
//! the serve hop on its own (`serve.ping`, with the in-process ping as
//! its child `wire.ping`), so that the layers can be checked to add up
//! to the round trip. Ingest probes compress, publish and log spare
//! batches on the end-of-run copy, stage by stage.

use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use utcq_core::plan::TrajPlan;
use utcq_core::reference::{score_matrix, select_references};
use utcq_core::wal::{Record, Wal};
use utcq_core::wire::{handle_line, parse_request, Request};
use utcq_core::{
    compress::compress_trajectory_with_roles, decompress_trajectory, hooks, pivot, FsyncPolicy,
    Opened, QueryTarget, WalConfig,
};
use utcq_traj::{Dataset, TedView};

use crate::loadgen::Depth1;
use crate::server::IO_TIMEOUT;
use crate::trace::Tracer;
use crate::workload::Kind;

/// Candidates decoded per range probe for `decompress.traj`.
const DECODES_PER_RANGE: usize = 16;

/// Counts gathered by the read probes.
#[derive(Debug, Default, Clone)]
pub struct ReadCounts {
    /// Range probes run.
    pub ranges: usize,
    /// StIU candidates summed over shards, over all range probes.
    pub candidates: usize,
    /// Candidates whose `prob_mass` reaches the query's α.
    pub kept: usize,
    /// Range answers (ids) returned.
    pub hits: usize,
    /// Probes whose served and in-process answers differed.
    pub mismatches: usize,
    /// Probes run.
    pub probes: usize,
}

/// The served `ping` line that measures the serve hop.
const PING: &str = r#"{"op":"ping"}"#;

/// Runs the read probes over `lines` (the first `warm` only warm the
/// copies' caches and are not recorded). `exec` answers `wire.exec`,
/// `query` the query-layer calls.
pub fn read_probes(
    tr: &mut Tracer,
    addr: SocketAddr,
    exec: &Opened,
    query: &Opened,
    lines: &[(Kind, std::sync::Arc<str>)],
    warm: usize,
) -> Result<ReadCounts, String> {
    let mut counts = ReadCounts::default();
    let mut conn = Depth1::connect(addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    for (i, (kind, line)) in lines.iter().enumerate() {
        let req = i as u64;
        // The first of the two round trips finds the server idle after
        // the in-process calls; alternate which one that is.
        let mut timed = |l: &str| -> Result<(String, u64, u64), String> {
            let start = tr.now_ns();
            let (reply, _) = conn.round_trip(l).map_err(|e| e.to_string())?;
            Ok((reply, start, tr.now_ns()))
        };
        let ((pong, ping_start, ping_end), (served, start, end)) = if i % 2 == 0 {
            let p = timed(PING)?;
            (p, timed(line)?)
        } else {
            let l = timed(line)?;
            (timed(PING)?, l)
        };
        let measured = i >= warm;
        let mut scratch = Tracer::new(Instant::now());
        let t: &mut Tracer = if measured { &mut *tr } else { &mut scratch };
        let ping = t.record(req, "serve.ping", None, ping_start, ping_end);
        let (pong_want, _) = t.time(req, "wire.ping", Some(ping), || handle_line(exec, PING));
        let root = t.record(req, "serve.request", None, start, end);
        let (reply, exec_span) = t.time(req, "wire.exec", Some(root), || handle_line(exec, line));
        let (parsed, _) = t.time(req, "wire.parse", Some(exec_span), || parse_request(line));
        let parsed = parsed.map_err(|e| format!("probe line does not parse: {}", e.message))?;
        let q_name = match kind {
            Kind::Where => "query.where",
            Kind::When => "query.when",
            Kind::Range => "query.range",
        };
        let (q_span, range_args) = match parsed.request {
            Request::Where {
                traj,
                t: at,
                alpha,
                page,
            } => {
                let (_, q) = t.time(req, q_name, Some(exec_span), || {
                    query
                        .where_query(traj, at, alpha, page)
                        .map(|p| p.items.len())
                });
                (q, None)
            }
            Request::When {
                traj,
                edge,
                rd,
                alpha,
                page,
            } => {
                let (_, q) = t.time(req, q_name, Some(exec_span), || {
                    query
                        .when_query(traj, edge, rd, alpha, page)
                        .map(|p| p.items.len())
                });
                (q, None)
            }
            Request::Range {
                re,
                tq,
                alpha,
                page,
            } => {
                let (n, q) = t.time(req, q_name, Some(exec_span), || {
                    query
                        .range_query(&re, tq, alpha, page)
                        .map(|p| p.items.len())
                });
                (q, Some((tq, alpha, n.unwrap_or(0))))
            }
            _ => return Err("probe lines must be where, when or range".to_string()),
        };
        let (snaps, _) = t.time(req, "snapshot.pin", Some(q_span), || query.snapshots());
        if let Some((tq, alpha, n_hits)) = range_args {
            let (cands, _) = t.time(req, "stiu.candidates", Some(q_span), || {
                snaps
                    .iter()
                    .map(|s| s.stiu().trajs_in_interval(tq))
                    .collect::<Vec<_>>()
            });
            if measured {
                counts.ranges += 1;
                counts.hits += n_hits;
                for (snap, js) in snaps.iter().zip(&cands) {
                    let cds = snap.compressed();
                    let p_codec = cds.params.p_codec();
                    counts.candidates += js.len();
                    for &j in js {
                        let Some(ct) = cds.trajectories.get(j as usize) else {
                            continue;
                        };
                        let mass = TrajPlan::build(ct, &p_codec)
                            .map(|p| p.prob_mass())
                            .unwrap_or(f64::INFINITY);
                        if alpha <= mass + 1e-9 {
                            counts.kept += 1;
                        }
                    }
                    let step = (js.len() / DECODES_PER_RANGE).max(1);
                    for &j in js.iter().step_by(step).take(DECODES_PER_RANGE) {
                        if let Some(ct) = cds.trajectories.get(j as usize) {
                            let _ = t.time(req, "decompress.traj", None, || {
                                decompress_trajectory(snap.network(), ct, cds.w_e, &cds.params)
                            });
                        }
                    }
                }
            }
        }
        if measured {
            counts.probes += 2;
            counts.mismatches +=
                usize::from(reply.line != served) + usize::from(pong_want.line != pong);
        }
    }
    Ok(counts)
}

/// Counts gathered by the ingest probes.
#[derive(Debug, Default, Clone)]
pub struct IngestCounts {
    /// Batches ingested.
    pub batches: usize,
    /// Trajectories compressed.
    pub trajs: usize,
    /// Same-start-vertex instance pairs × pivots, summed.
    pub fjd_pairs: usize,
    /// `hooks::copied_bytes` growth, summed over publishes.
    pub copied_bytes: u64,
    /// WAL growth, summed over appends.
    pub wal_bytes: u64,
    /// Ingests that failed.
    pub failures: usize,
}

/// Ingests `batches` (with their request `lines`) into `copy` — a
/// non-durable copy at the end-of-run size — timing the wire parse, the
/// publish and, per trajectory, the compression stages run on their
/// own; then appends each batch to a fresh WAL at `wal_path` with
/// fsync always.
pub fn ingest_probes(
    tr: &mut Tracer,
    copy: &Opened,
    batches: &[Dataset],
    lines: &[String],
    wal_path: &Path,
) -> Result<IngestCounts, String> {
    let mut counts = IngestCounts::default();
    let net = copy.network().clone();
    let params = copy.snapshots()[0].compressed().params;
    let _ = std::fs::remove_file(wal_path);
    let (mut wal, _) = Wal::open(&WalConfig::new(wal_path).fsync(FsyncPolicy::Always))
        .map_err(|e| e.to_string())?;
    for (k, (batch, line)) in batches.iter().zip(lines).enumerate() {
        let req = 1_000_000 + k as u64;
        tr.time(req, "wire.ingest_parse", None, || {
            parse_request(line).is_ok()
        });
        let copied0 = hooks::copied_bytes();
        let (ok, publish) = tr.time(req, "store.ingest", None, || copy.ingest(batch).is_ok());
        counts.copied_bytes += hooks::copied_bytes() - copied0;
        counts.failures += usize::from(!ok);
        for tu in &batch.trajectories {
            let t0 = tr.now_ns();
            let views: Vec<TedView> = tu
                .instances
                .iter()
                .map(|i| TedView::from_instance(&net, i))
                .collect();
            let t1 = tr.now_ns();
            let seqs: Vec<Vec<u32>> = views.iter().map(|v| v.entries.clone()).collect();
            let svs: Vec<_> = views.iter().map(|v| v.sv).collect();
            let probs: Vec<f64> = views.iter().map(|v| v.prob).collect();
            let t2 = tr.now_ns();
            std::hint::black_box(pivot::select_pivots(&seqs, params.n_pivots));
            let t3 = tr.now_ns();
            let sm = std::hint::black_box(score_matrix(&seqs, &svs, &probs, params.n_pivots));
            let t4 = tr.now_ns();
            let roles = std::hint::black_box(select_references(&sm));
            let t5 = tr.now_ns();
            let coded = compress_trajectory_with_roles(&net, tu, &params, &roles);
            let t6 = tr.now_ns();
            counts.failures += usize::from(coded.is_err());
            // compress_trajectory_with_roles builds its own views, and
            // score_matrix selects its own pivots: those calls are
            // their children.
            let code = tr.record(req, "compress.code", Some(publish), t5, t6);
            tr.record(req, "compress.views", Some(code), t0, t1);
            let sm_span = tr.record(req, "reference.score_matrix", Some(publish), t3, t4);
            tr.record(req, "pivot.select", Some(sm_span), t2, t3);
            tr.record(req, "reference.select", Some(publish), t4, t5);
            let n = svs.len();
            let pivots = if n < 2 { 0 } else { params.n_pivots.min(n) };
            let same_start = (0..n)
                .flat_map(|w| (w + 1..n).map(move |v| (w, v)))
                .filter(|&(w, v)| svs[w] == svs[v])
                .count();
            counts.fjd_pairs += same_start * pivots;
            counts.trajs += 1;
        }
        let rec = Record {
            epoch: k as u64 + 1,
            name: String::new(),
            default_interval: batch.default_interval,
            trajectories: batch.trajectories.clone(),
        };
        let before = wal.len_bytes();
        let (appended, _) = tr.time(req, "wal.append", None, || wal.append(&rec).is_ok());
        counts.failures += usize::from(!appended);
        counts.wal_bytes += wal.len_bytes() - before;
        counts.batches += 1;
    }
    Ok(counts)
}

/// Times `Opened::checkpoint` on `copy` (attaching a fresh WAL whose
/// checkpoint target is `container`) `reps` times; returns ms.
pub fn checkpoint_probe(
    tr: &mut Tracer,
    copy: &Opened,
    wal_path: &Path,
    container: &Path,
    reps: usize,
) -> Result<Vec<f64>, String> {
    let _ = std::fs::remove_file(wal_path);
    copy.attach_wal(
        WalConfig::new(wal_path)
            .fsync(FsyncPolicy::Always)
            .checkpoint_to(container),
    )
    .map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(reps);
    for r in 0..reps {
        let (res, i) = tr.time(2_000_000 + r as u64, "wal.checkpoint", None, || {
            copy.checkpoint()
        });
        match res {
            Ok(Some(_)) => out.push(tr.spans()[i].dur_ns() as f64 / 1e6),
            Ok(None) => return Err("checkpoint probe: no WAL attached".to_string()),
            Err(e) => return Err(format!("checkpoint probe: {e}")),
        }
    }
    Ok(out)
}
