//! One benchmark run: build the inputs, start the server, drive the
//! phases, check every answer, and compute the metrics.
//!
//! Phases of a run measuring `S` seconds:
//!
//! * set-up: the server is started [`SETUP_RUNS`] times; each start is
//!   timed until its first request is answered (`setup_s`, the median);
//! * warm-up (not timed): the fixed read rate for [`WARM_S`] seconds;
//! * fixed rate: open-loop reads at the workload's rate, for half of `S`
//!   (six tenths when ingest runs beside the reads) — the latency
//!   metrics. A traced run alternates untraced and traced segments;
//! * ladder (untraced runs only): the ascending rates for the rest of
//!   `S`, stopping at the first step that misses the limit —
//!   `read_qps_at_slo`;
//! * ingest: the closed-loop loader back to back beside the reads, in
//!   every phase, or alone after them for the workload's fixed number
//!   of batches.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use utcq_core::wire::handle_line;
use utcq_core::{FsyncPolicy, Opened, QueryTarget, WalConfig};

use crate::loadgen::{run_phase, tighten_timer_slack, Conn, Loader, Outcome, ReadRecord, Schedule};
use crate::probes;
use crate::server::{self, Server};
use crate::stats::{median, window_percentiles, window_rates, Step, Summary};
use crate::trace::Tracer;
use crate::verify::{self, nested_f64};
use crate::workload::{self, where_line, Kind, Spec};

/// Server starts timed for `setup_s`.
pub const SETUP_RUNS: usize = 15;
/// Warm-up seconds before the fixed-rate phase.
pub const WARM_S: f64 = 0.5;
/// How long a phase waits for outstanding responses after its last send.
pub const DRAIN: Duration = Duration::from_secs(10);
/// Spare batches for the traced run's ingest probes.
pub const PROBE_BATCHES: usize = 8;
/// Window length for the ingest medians.
pub const WINDOW_NS: u64 = 500_000_000;
/// Segments of a traced run's fixed-rate phase, alternately untraced
/// and traced (`trace.overhead_frac`).
pub const TRACE_SEGMENTS: usize = 6;
/// Longest the ingest phase after the reads may send for.
pub const INGEST_AFTER_MAX: Duration = Duration::from_secs(60);
/// Idle pause before a phase that follows the ladder.
pub const SETTLE: Duration = Duration::from_secs(1);
/// Backlog samples per ladder step.
pub const BACKLOG_SAMPLES: usize = 100;
/// Server worker threads.
pub const SERVER_THREADS: usize = 2;

/// The end-to-end metrics an untraced run reports, in order.
pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "where_p50_us",
    "when_p50_us",
    "range_p50_us",
    "read_qps_at_slo",
    "ingest_trajs_per_s",
    "ingest_ack_p50_ms",
    "compress_ratio",
    "server_rss_mib",
    "ops_ok_frac",
];

/// The per-layer metrics a traced run reports, in order.
pub const PER_LAYER: [&str; 38] = [
    "wire.parse_us",
    "wire.exec_us",
    "wire.serialize_us",
    "serve.hop_us",
    "snapshot.pin_ns",
    "query.where_us",
    "query.when_us",
    "query.range_us",
    "stiu.candidates_per_range",
    "stiu.candidates_us",
    "plan.prune_kept_frac",
    "query.range_hits_per_candidate",
    "cache.hit_rate",
    "cache.misses_per_op",
    "cache.evictions_per_op",
    "decompress.traj_us",
    "wire.ingest_parse_ms",
    "compress.views_us",
    "pivot.select_us",
    "reference.score_matrix_us",
    "reference.select_us",
    "compress.code_us",
    "reference.fjd_pairs_per_traj",
    "compress.ratio_t",
    "compress.ratio_e",
    "compress.ratio_d",
    "compress.ratio_tflag",
    "compress.ratio_p",
    "store.index_publish_ms",
    "chunk.copied_bytes_per_publish",
    "wal.append_ms",
    "wal.bytes_per_traj",
    "wal.checkpoints",
    "wal.checkpoint_ms",
    "storage.open_ms",
    "loadgen.late_us_p99",
    "trace.unaccounted_frac",
    "trace.overhead_frac",
];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The run's result line plus a detail object for humans.
#[derive(Debug, Clone)]
pub struct Report {
    /// No answer mismatched, nothing failed or was lost.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed, refused, timed out, answered wrong or lost.
    pub failed: usize,
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Extra facts (sizes, percentile levels, ladder steps, shares).
    pub detail: Vec<(String, String)>,
}

/// Removes the run's scratch directory when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn e2s<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Phase lengths of a run measuring `seconds`.
struct Plan {
    fixed: Duration,
    step: Duration,
}

fn plan(spec: &Spec, seconds: f64) -> Plan {
    let fixed = if spec.ingest_after_reads.is_none() {
        0.6
    } else {
        0.5
    };
    Plan {
        fixed: Duration::from_secs_f64(seconds * fixed),
        step: Duration::from_secs_f64(seconds * (1.0 - fixed) / spec.ladder.len() as f64),
    }
}

/// Latencies (µs) of the answered reads of `reads` whose stream kind is
/// `kind`.
fn latencies(reads: &[ReadRecord], kind_of: impl Fn(&ReadRecord) -> Kind, kind: Kind) -> Vec<f64> {
    reads
        .iter()
        .filter(|r| kind_of(r) == kind)
        .filter_map(ReadRecord::latency_us)
        .collect()
}

/// Runs the workload named in `args` from the repository at `root`.
pub fn run(root: &Path, args: &Args) -> Result<Report, String> {
    let spec = workload::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    let bin = server::build_utcq(root)?;
    let target = server::target_dir(root);
    let work = WorkDir(target.join("bench-work").join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(e2s)?;
    let p = plan(&spec, args.seconds);
    let beside = spec.ingest_after_reads.is_none();
    let read_conns: Vec<usize> = if beside { vec![1] } else { vec![0, 1] };

    // Inputs.
    let t_gen = Instant::now();
    let data = workload::build_data(&spec, args.seed);
    let container = work.0.join("data.utcq");
    workload::write_container(&data, &container)?;
    let container_bytes = std::fs::metadata(&container).map_err(e2s)?.len();
    let mut open_ms = Vec::with_capacity(3);
    for _ in 0..3 {
        let t0 = Instant::now();
        Opened::open(&container).map_err(e2s)?;
        open_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let copy = Opened::open(&container).map_err(e2s)?;
    let gen_s = t_gen.elapsed().as_secs_f64();

    // Read schedules and the stream that fills them.
    let warm_plan =
        Schedule::fixed_rate(spec.fixed_qps, Duration::from_secs_f64(WARM_S), &read_conns);
    let segments = if args.trace { TRACE_SEGMENTS } else { 1 };
    let segment = p.fixed / segments as u32;
    let fixed_plans: Vec<Schedule> = (0..segments)
        .map(|_| Schedule::fixed_rate(spec.fixed_qps, segment, &read_conns))
        .collect();
    let ladder_plans: Vec<Schedule> = if args.trace {
        Vec::new()
    } else {
        spec.ladder
            .iter()
            .map(|&q| Schedule::fixed_rate(q, p.step, &read_conns))
            .collect()
    };
    let probe_lines_n = match (spec.pool, args.trace) {
        (_, false) => 0,
        (Some(n), true) => n,
        (None, true) => 240,
    };
    let scheduled = warm_plan.n
        + fixed_plans.iter().map(|s| s.n).sum::<usize>()
        + ladder_plans.iter().map(|s| s.n).sum::<usize>();
    let stream = workload::read_stream(&spec, &data, args.seed, scheduled + probe_lines_n);

    // Server.
    let wal = work.0.join("log.wal");
    let mut sargs: Vec<String> = vec![
        "--in".into(),
        container.display().to_string(),
        "--threads".into(),
        SERVER_THREADS.to_string(),
        "--writable".into(),
    ];
    if let Some(c) = spec.checkpoint_bytes {
        sargs.extend([
            "--wal".into(),
            wal.display().to_string(),
            "--fsync".into(),
            "always".into(),
            "--checkpoint-bytes".into(),
            c.to_string(),
        ]);
    }
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let first = &data.base.trajectories[0];
    let setup_line = where_line(first.id, first.times[0], 0.0);
    let setup_want = handle_line(&copy, &setup_line).line;
    let mut setup_s = Vec::with_capacity(SETUP_RUNS);
    let mut server = None;
    for k in 0..SETUP_RUNS {
        let _ = std::fs::remove_file(&wal);
        let s = Server::spawn(&bin, &sargs)?;
        let got = s.request(&setup_line);
        setup_s.push(s.spawned.elapsed().as_secs_f64());
        attempted += 1;
        if got.as_deref() != Ok(setup_want.as_str()) {
            failed += 1;
        }
        if k + 1 < SETUP_RUNS {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.ok_or("no server")?;
    let addr = server.addr;

    tighten_timer_slack();
    let mut conns = vec![
        Conn::connect(addr).map_err(e2s)?,
        Conn::connect(addr).map_err(e2s)?,
    ];
    let batch_line = |k: usize| data.batch_line(k);
    let rss_kib = std::cell::Cell::new(None);
    let read_rss = |acked: usize| {
        if acked == spec.rss_at_batches {
            rss_kib.set(server.peak_rss_kib());
        }
    };
    let mut loader = Loader {
        conn: 0,
        line_for: &batch_line,
        next: 0,
        limit: spec.ingest_after_reads.unwrap_or(usize::MAX),
        acked: 0,
        on_ack: &read_rss,
    };
    // The stream position of each phase's first read.
    let mut phase_offsets: Vec<usize> = Vec::new();
    let mut offset = 0usize;
    let mut phase = |conns: &mut [Conn],
                     plan: &Schedule,
                     loader: Option<&mut Loader<'_>>,
                     send_for: Duration,
                     probes_ns: &[u64],
                     give_up: Duration,
                     tracer: Option<&mut Tracer>| {
        let base = offset;
        phase_offsets.push(base);
        offset += plan.n;
        let mut line_for = |i: usize, acked: usize| stream.get(base + i).resolve(&data, acked);
        run_phase(
            conns,
            plan,
            &mut line_for,
            loader,
            send_for,
            probes_ns,
            give_up,
            DRAIN,
            tracer,
        )
    };

    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut tr = Tracer::new(Instant::now());
    outcomes.push(phase(
        &mut conns,
        &warm_plan,
        beside.then_some(&mut loader),
        Duration::from_secs_f64(WARM_S),
        &[],
        DRAIN,
        None,
    ));
    let cache_before = if args.trace {
        Some(server.request(r#"{"op":"cache_stats"}"#)?)
    } else {
        None
    };
    // The fixed-rate phase (a traced run: its odd segments traced).
    let fixed_idx = outcomes.len();
    for (k, fp) in fixed_plans.iter().enumerate() {
        let out = phase(
            &mut conns,
            fp,
            beside.then_some(&mut loader),
            segment,
            &[],
            DRAIN,
            (k % 2 == 1).then_some(&mut tr),
        );
        outcomes.push(out);
    }
    let fixed_range = fixed_idx..outcomes.len();
    let cache_after = if args.trace {
        Some(server.request(r#"{"op":"cache_stats"}"#)?)
    } else {
        None
    };

    // Ladder. A rung whose reads run twice the limit late has failed:
    // it stops sending rather than build a backlog to drain.
    let give_up = Duration::from_secs_f64(2.0 * spec.limit_us / 1e6);
    let mut steps: Vec<Step> = Vec::new();
    for (k, lp) in ladder_plans.iter().enumerate() {
        let step_ns = p.step.as_nanos() as u64;
        let probes_ns: Vec<u64> = (1..BACKLOG_SAMPLES)
            .map(|i| step_ns * i as u64 / BACKLOG_SAMPLES as u64)
            .collect();
        let out = phase(
            &mut conns,
            lp,
            beside.then_some(&mut loader),
            p.step,
            &probes_ns,
            give_up,
            None,
        );
        let half = out.backlog.len() / 2;
        let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
        let lat: Vec<f64> = out.reads.iter().filter_map(|r| r.latency_us()).collect();
        let answered_in_step = out
            .reads
            .iter()
            .filter(|r| r.recv_ns.is_some_and(|t| t <= step_ns))
            .count();
        let step = Step {
            offered_qps: spec.ladder[k],
            achieved_qps: answered_in_step as f64 / p.step.as_secs_f64(),
            tail_us: Summary::of(&lat, 99.0).tail,
            failed: out.failed_reads(),
            backlog_early: mean(&out.backlog[..half]),
            backlog_late: mean(&out.backlog[half..]),
            sent: out.reads.len(),
        };
        steps.push(step);
        outcomes.push(out);
        if !step.passes(spec.limit_us) {
            break;
        }
    }
    // Traced runs probe the reads of a read-only phase here, while the
    // server still holds only the container's data.
    let mut read_counts = None;
    let probe_lines: Vec<(Kind, Arc<str>)> = (scheduled..scheduled + probe_lines_n)
        .map(|i| {
            let r = stream.get(i);
            (r.kind(), r.resolve(&data, loader.acked))
        })
        .collect();
    if args.trace && !beside {
        read_counts = Some(read_layer_probes(
            &mut tr,
            &server,
            &spec,
            (&copy, &copy),
            &probe_lines,
        )?);
    }
    let ingest_idx = if beside {
        fixed_range.clone()
    } else {
        // Let the server finish the ladder's aftermath before timing ingest.
        std::thread::sleep(SETTLE);
        let out = phase(
            &mut conns,
            &Schedule::fixed_rate(1.0, Duration::ZERO, &read_conns),
            Some(&mut loader),
            INGEST_AFTER_MAX,
            &[],
            DRAIN,
            None,
        );
        outcomes.push(out);
        outcomes.len() - 1..outcomes.len()
    };
    drop(conns);

    // End of run: what the server reports about itself.
    let info = server.request(r#"{"op":"info"}"#)?;
    let reads: Vec<&ReadRecord> = outcomes.iter().flat_map(|o| o.reads.iter()).collect();
    let acks: Vec<&crate::loadgen::AckRecord> =
        outcomes.iter().flat_map(|o| o.acks.iter()).collect();
    let acked = loader.acked;
    if let Some(n) = spec.ingest_after_reads {
        if acked != n {
            return Err(format!(
                "the ingest phase acknowledged {acked} of {n} batches"
            ));
        }
    }

    // Verification (and, traced, the read probes of the ingest workload,
    // which need the copy at the server's final state).
    let verdict = verify::check(
        &copy,
        &reads,
        &acks,
        &batch_line,
        data.base.trajectories.len(),
        spec.batch_trajs,
    );
    let info_ok = handle_line(&copy, r#"{"op":"info"}"#).line == info;
    if args.trace && beside {
        // The range-result cache would answer the query layer's repeat
        // of each exec'd line: replay the acked batches into a second
        // copy of the base data (the server's checkpoints have rewritten
        // the container) for the query layer.
        let base = work.0.join("probe_base.utcq");
        workload::write_container(&data, &base)?;
        let second = Opened::open(&base).map_err(e2s)?;
        for k in 0..acked {
            second.ingest(&data.batch(k)).map_err(e2s)?;
        }
        read_counts = Some(read_layer_probes(
            &mut tr,
            &server,
            &spec,
            (&copy, &second),
            &probe_lines,
        )?);
    }
    let (stderr, lost) = if spec.checkpoint_bytes.is_some() {
        let err = server.kill9();
        let lost = durability_loss(&container, &wal, &data, acked)?;
        (err, Some(lost))
    } else {
        (server.shutdown()?, None)
    };
    let checkpoints = stderr.matches("checkpoint: saved").count();

    let no_response = reads.iter().filter(|r| r.response.is_none()).count();
    attempted += reads.len() + acks.len() + 1 + usize::from(lost.is_some());
    failed += no_response
        + verdict.read_mismatches
        + verdict.bad_acks
        + usize::from(!info_ok)
        + lost.map_or(0, |l| usize::from(l > 0));
    if let Some(rc) = &read_counts {
        attempted += rc.probes;
        failed += rc.mismatches;
    }

    let mut detail: Vec<(String, String)> = vec![
        ("workload".into(), format!("\"{}\"", spec.name)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        (
            "trajectories".into(),
            data.base.trajectories.len().to_string(),
        ),
        ("container_bytes".into(), container_bytes.to_string()),
        (
            "fsync".into(),
            if spec.checkpoint_bytes.is_some() {
                "\"always\"".into()
            } else {
                "null".into()
            },
        ),
        (
            "checkpoint_bytes".into(),
            spec.checkpoint_bytes
                .map_or("null".into(), |c| c.to_string()),
        ),
        ("inputs_s".into(), format!("{gen_s:.3}")),
        ("acked_batches".into(), acked.to_string()),
        ("checkpoints".into(), checkpoints.to_string()),
        (
            "read_mismatches".into(),
            verdict.read_mismatches.to_string(),
        ),
        ("bad_acks".into(), verdict.bad_acks.to_string()),
        ("no_response".into(), no_response.to_string()),
        (
            "lost_after_kill".into(),
            lost.map_or("null".into(), |l| l.to_string()),
        ),
    ];
    // Per read kind, over the fixed-rate phase: the latency summary and
    // (for the detail line) the median over windows of each window's p50.
    // Per segment of the fixed-rate phase, per kind: the latency of
    // each answered read.
    let fixed_lat: Vec<Vec<Vec<f64>>> = fixed_range
        .clone()
        .map(|o| {
            let base = phase_offsets[o];
            Kind::ALL
                .iter()
                .map(|&k| latencies(&outcomes[o].reads, |r| stream.get(base + r.idx).kind(), k))
                .collect()
        })
        .collect();
    let per_kind: Vec<(Kind, Summary)> = Kind::ALL
        .iter()
        .enumerate()
        .map(|(ki, &k)| {
            let all: Vec<f64> = fixed_lat
                .iter()
                .flat_map(|seg| seg[ki].iter().copied())
                .collect();
            (k, Summary::of(&all, 99.0))
        })
        .collect();
    for (k, s) in &per_kind {
        detail.push((
            format!("{}_latency", k.name()),
            format!(
                "{{\"n\":{},\"p50_us\":{:.1},\"tail_level\":{},\"tail_us\":{:.1}}}",
                s.n, s.p50, s.tail_level, s.tail
            ),
        ));
    }
    let late: Vec<f64> = fixed_range
        .clone()
        .flat_map(|o| outcomes[o].reads.iter())
        .map(|r| r.sent_ns.saturating_sub(r.due_ns) as f64 / 1e3)
        .collect();
    let late_s = Summary::of(&late, 99.0);
    detail.push((
        "generator_late_us".into(),
        format!(
            "{{\"p50\":{:.1},\"tail_level\":{},\"tail\":{:.1}}}",
            late_s.p50, late_s.tail_level, late_s.tail
        ),
    ));
    // Per window of the ingest phase: acknowledged batches per second
    // and the median ack latency; the medians over windows are reported.
    let mut ack_rates = Vec::new();
    let mut ack_p50s = Vec::new();
    let mut ack_ms = Vec::new();
    for o in ingest_idx.map(|o| &outcomes[o]) {
        let Some(first) = o.acks.first().map(|a| a.sent_ns) else {
            continue;
        };
        let timed: Vec<(u64, f64)> = o
            .acks
            .iter()
            .filter_map(|a| a.recv_ns.map(|r| (r, (r - a.sent_ns) as f64 / 1e6)))
            .collect();
        let recvs: Vec<u64> = timed.iter().map(|t| t.0).collect();
        let last = recvs.iter().copied().max().unwrap_or(first);
        ack_rates.extend(window_rates(&recvs, first, last, WINDOW_NS));
        ack_p50s.extend(window_percentiles(&timed, WINDOW_NS, 50.0));
        ack_ms.extend(timed.iter().map(|t| t.1));
    }
    if ack_rates.is_empty() || ack_p50s.is_empty() {
        return Err(format!(
            "ingest ran for less than one {} ms window",
            WINDOW_NS / 1_000_000
        ));
    }
    let ingest_tps = median(&ack_rates) * spec.batch_trajs as f64;
    let ack_p50 = median(&ack_p50s);
    let ack_s = Summary::of(&ack_ms, 99.0);
    detail.push((
        "ingest_ack".into(),
        format!(
            "{{\"n\":{},\"p50_ms\":{:.3},\"window_p50_ms\":{:.3},\"windows\":{},\"tail_level\":{},\"tail_ms\":{:.3}}}",
            ack_s.n, ack_s.p50, ack_p50, ack_p50s.len(), ack_s.tail_level, ack_s.tail
        ),
    ));
    let qps_at_slo = crate::stats::ladder_answer(&steps, spec.limit_us);
    detail.push((
        "ladder".into(),
        format!(
            "{{\"limit_us\":{},\"step_s\":{:.3},\"steps\":[{}]}}",
            spec.limit_us,
            p.step.as_secs_f64(),
            steps
                .iter()
                .map(|s| format!(
                    "{{\"offered\":{},\"achieved\":{:.1},\"tail_us\":{:.1},\"failed\":{},\"backlog\":[{:.1},{:.1}],\"pass\":{}}}",
                    s.offered_qps,
                    s.achieved_qps,
                    s.tail_us,
                    s.failed,
                    s.backlog_early,
                    s.backlog_late,
                    s.passes(spec.limit_us)
                ))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ));
    let ratio = nested_f64(&info, "info", "ratio").unwrap_or(f64::NAN);

    let mut metrics = Vec::new();
    if !args.trace {
        let rss_kib = rss_kib.get().ok_or_else(|| {
            format!(
                "the server acknowledged {acked} of the {} batches its peak RSS is read at",
                spec.rss_at_batches
            )
        })?;
        let m = |name, unit, value| Metric { name, unit, value };
        metrics.extend([
            m("setup_s", "s", median(&setup_s)),
            m("where_p50_us", "us", per_kind[0].1.p50),
            m("when_p50_us", "us", per_kind[1].1.p50),
            m("range_p50_us", "us", per_kind[2].1.p50),
            m("read_qps_at_slo", "1/s", qps_at_slo),
            m("ingest_trajs_per_s", "1/s", ingest_tps),
            m("ingest_ack_p50_ms", "ms", ack_p50),
            m("compress_ratio", "ratio", ratio),
            m("server_rss_mib", "MiB", rss_kib as f64 / 1024.0),
            m(
                "ops_ok_frac",
                "frac",
                1.0 - failed as f64 / attempted.max(1) as f64,
            ),
        ]);
    } else {
        let spare: Vec<usize> = (acked..acked + PROBE_BATCHES).collect();
        let ingest_counts = probes::ingest_probes(
            &mut tr,
            &copy,
            &spare.iter().map(|&k| data.batch(k)).collect::<Vec<_>>(),
            &spare
                .iter()
                .map(|&k| data.batch_line(k))
                .collect::<Vec<_>>(),
            &work.0.join("probe.wal"),
        )?;
        failed += ingest_counts.failures;
        attempted += ingest_counts.batches;
        let ckpt_ms = probes::checkpoint_probe(
            &mut tr,
            &copy,
            &work.0.join("ckpt.wal"),
            &work.0.join("ckpt.utcq"),
            3,
        )?;
        let rc = read_counts.clone().unwrap_or_default();
        let ratios = match &copy {
            Opened::Single(s) => s.ratios(),
            Opened::Sharded(s) => s.ratios(),
        };
        let stat = |before: &Option<String>, after: &Option<String>, key: &str| -> f64 {
            let get = |l: &Option<String>| {
                l.as_deref()
                    .and_then(|l| nested_f64(l, "cache", key))
                    .unwrap_or(0.0)
            };
            get(after) - get(before)
        };
        let hits = stat(&cache_before, &cache_after, "hits");
        let misses = stat(&cache_before, &cache_after, "misses");
        let evictions = stat(&cache_before, &cache_after, "evictions");
        let ops = fixed_range
            .clone()
            .map(|o| outcomes[o].reads.len())
            .sum::<usize>()
            .max(1) as f64;
        let med = |v: Vec<f64>| {
            let m = median(&v);
            if m.is_nan() {
                0.0
            } else {
                m
            }
        };
        let parse = med(tr.dur_us("wire.parse"));
        let exec = med(tr.dur_us("wire.exec"));
        let serialize = med(tr.self_us("wire.exec"));
        let hop = med(tr.self_us("serve.request"));
        let per_traj = |name: &str| med(tr.self_us(name));
        let served_p50: Vec<(Kind, f64)> = per_kind.iter().map(|(k, s)| (*k, s.p50)).collect();
        let (unaccounted, shares) = unaccounted(&tr, &served_p50);
        detail.push(("shares".into(), shares));
        // Fixed-rate latency of the traced segments over the untraced.
        let p50_of = |traced: bool| {
            let lat: Vec<f64> = fixed_lat
                .iter()
                .enumerate()
                .filter(|(seg, _)| (seg % 2 == 1) == traced)
                .flat_map(|(_, kinds)| kinds.iter().flatten().copied())
                .collect();
            median(&lat)
        };
        let overhead_frac = p50_of(true) / p50_of(false) - 1.0;
        let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let m = |name, unit, value: f64| Metric {
            name,
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        };
        metrics.extend([
            m("wire.parse_us", "us", parse),
            m("wire.exec_us", "us", exec),
            m("wire.serialize_us", "us", serialize),
            m("serve.hop_us", "us", hop),
            m(
                "snapshot.pin_ns",
                "ns",
                med(tr.dur_us("snapshot.pin")) * 1e3,
            ),
            m("query.where_us", "us", med(tr.dur_us("query.where"))),
            m("query.when_us", "us", med(tr.dur_us("query.when"))),
            m("query.range_us", "us", med(tr.dur_us("query.range"))),
            m(
                "stiu.candidates_per_range",
                "count",
                div(rc.candidates as f64, rc.ranges as f64),
            ),
            m(
                "stiu.candidates_us",
                "us",
                med(tr.dur_us("stiu.candidates")),
            ),
            m(
                "plan.prune_kept_frac",
                "frac",
                div(rc.kept as f64, rc.candidates as f64),
            ),
            m(
                "query.range_hits_per_candidate",
                "ratio",
                div(rc.hits as f64, rc.candidates as f64),
            ),
            m("cache.hit_rate", "frac", div(hits, hits + misses)),
            m("cache.misses_per_op", "count", misses / ops),
            m("cache.evictions_per_op", "count", evictions / ops),
            m(
                "decompress.traj_us",
                "us",
                med(tr.dur_us("decompress.traj")),
            ),
            m(
                "wire.ingest_parse_ms",
                "ms",
                med(tr.dur_us("wire.ingest_parse")) / 1e3,
            ),
            m("compress.views_us", "us", per_traj("compress.views")),
            m("pivot.select_us", "us", per_traj("pivot.select")),
            m(
                "reference.score_matrix_us",
                "us",
                per_traj("reference.score_matrix"),
            ),
            m("reference.select_us", "us", per_traj("reference.select")),
            m("compress.code_us", "us", per_traj("compress.code")),
            m(
                "reference.fjd_pairs_per_traj",
                "count",
                div(ingest_counts.fjd_pairs as f64, ingest_counts.trajs as f64),
            ),
            m("compress.ratio_t", "ratio", ratios.t),
            m("compress.ratio_e", "ratio", ratios.e),
            m("compress.ratio_d", "ratio", ratios.d),
            m("compress.ratio_tflag", "ratio", ratios.tflag),
            m("compress.ratio_p", "ratio", ratios.p),
            m(
                "store.index_publish_ms",
                "ms",
                med(tr.self_us("store.ingest")) / 1e3,
            ),
            m(
                "chunk.copied_bytes_per_publish",
                "bytes",
                div(
                    ingest_counts.copied_bytes as f64,
                    ingest_counts.batches as f64,
                ),
            ),
            m("wal.append_ms", "ms", med(tr.dur_us("wal.append")) / 1e3),
            m(
                "wal.bytes_per_traj",
                "bytes",
                div(ingest_counts.wal_bytes as f64, ingest_counts.trajs as f64),
            ),
            m("wal.checkpoints", "count", checkpoints as f64),
            m("wal.checkpoint_ms", "ms", median(&ckpt_ms)),
            m("storage.open_ms", "ms", median(&open_ms)),
            m("loadgen.late_us_p99", "us", late_s.tail),
            m("trace.unaccounted_frac", "frac", unaccounted),
            m("trace.overhead_frac", "frac", overhead_frac),
        ]);
        let spans_dir = target.join("bench-trace");
        std::fs::create_dir_all(&spans_dir).map_err(e2s)?;
        let spans_path = spans_dir.join(format!("{}-{}.jsonl", spec.name, args.seed));
        tr.write(&spans_path).map_err(e2s)?;
        detail.push(("spans".into(), format!("\"{}\"", spans_path.display())));
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail,
    })
}

/// Runs the read probes (`wire.exec` on `exec`, the query layer on
/// `query`).
fn read_layer_probes(
    tr: &mut Tracer,
    server: &Server,
    spec: &Spec,
    (exec, query): (&Opened, &Opened),
    lines: &[(Kind, Arc<str>)],
) -> Result<probes::ReadCounts, String> {
    // A replayed pool is warm on the server: run it once unrecorded
    // first. Lines that never repeat get a distinct preamble instead.
    let (lines, warm): (Vec<(Kind, Arc<str>)>, usize) = match spec.pool {
        Some(_) => ([lines, lines].concat(), lines.len()),
        None => (lines.to_vec(), lines.len() / 4),
    };
    probes::read_probes(tr, server.addr, exec, query, &lines, warm)
}

/// Per read kind, over the depth-1 probes: the round trip against the
/// serve hop measured on its own (`serve.ping` self time) plus the
/// in-process execution (`wire.exec`, which its child layers make up).
/// Returns the mean unaccounted share `1 − (hop + exec) / round trip`
/// over the kinds, and a JSON table of each layer's median self time as
/// a share of the depth-1 round trip, with the fixed-rate p50 from
/// `served_p50` over that round trip (the wait a request has under
/// load that it does not have alone).
fn unaccounted(tr: &Tracer, served_p50: &[(Kind, f64)]) -> (f64, String) {
    let mut req_kind = std::collections::HashMap::new();
    for s in tr.spans() {
        let kind = match s.name {
            "query.where" => Kind::Where,
            "query.when" => Kind::When,
            "query.range" => Kind::Range,
            _ => continue,
        };
        req_kind.insert(s.req, kind);
    }
    let layers = [
        "serve.request",
        "wire.exec",
        "wire.parse",
        "query.where",
        "query.when",
        "query.range",
        "snapshot.pin",
        "stiu.candidates",
        "serve.ping",
    ];
    let median_of = |k: Kind, name: &str, self_time: bool| -> f64 {
        let v: Vec<f64> = tr
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && req_kind.get(&s.req) == Some(&k))
            .map(|(i, s)| {
                if self_time {
                    tr.self_ns(i) / 1e3
                } else {
                    s.dur_ns() as f64 / 1e3
                }
            })
            .collect();
        median(&v)
    };
    let mut fracs = Vec::new();
    let mut table = Vec::new();
    for &(k, served) in served_p50 {
        let rtt = median_of(k, "serve.request", false);
        let hop = median_of(k, "serve.ping", true);
        let exec = median_of(k, "wire.exec", false);
        if !(rtt > 0.0 && hop.is_finite() && exec.is_finite()) {
            continue;
        }
        fracs.push(1.0 - (hop + exec) / rtt);
        let selfs: Vec<String> = layers
            .iter()
            .map(|&n| (n, median_of(k, n, true)))
            .filter(|(_, v)| v.is_finite())
            .map(|(n, v)| format!("\"{n}\":{:.4}", v / rtt))
            .collect();
        table.push(format!(
            "\"{}\":{{\"served_p50_us\":{:.1},\"depth1_rtt_us\":{:.1},\"loaded_over_depth1\":{:.3},\"share_of_depth1_rtt\":{{{}}}}}",
            k.name(),
            served,
            rtt,
            served / rtt,
            selfs.join(",")
        ));
    }
    let mean = if fracs.is_empty() {
        0.0
    } else {
        fracs.iter().sum::<f64>() / fracs.len() as f64
    };
    (mean, format!("{{{}}}", table.join(",")))
}

/// Reopens the killed server's container and WAL and counts acked
/// trajectories that are missing; a wrong length counts as one loss.
fn durability_loss(
    container: &Path,
    wal: &Path,
    data: &workload::Data,
    acked: usize,
) -> Result<usize, String> {
    let reopened = Opened::open_durable(container, WalConfig::new(wal).fsync(FsyncPolicy::Always))
        .map_err(|e| format!("reopening after kill -9: {e}"))?;
    let snaps = reopened.snapshots();
    let missing = (0..acked)
        .flat_map(|k| data.batch_ids(k))
        .filter(|&id| !snaps.iter().any(|s| s.traj_index(id).is_some()))
        .count();
    let want = data.base.trajectories.len() + acked * data.batch_trajs;
    Ok(missing + usize::from(reopened.len() != want))
}
