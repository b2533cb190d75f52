//! The workloads: their fixed sizes and server settings, the seeded
//! datasets and containers, and the request streams.
//!
//! Datasets come from the `utcq_datagen` profiles and queries from the
//! `utcq_bench::workload` generators; the server only ever sees the
//! container file and the request lines built here.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use utcq_bench::workload::{range_queries, when_queries, where_queries};
use utcq_core::{CompressParams, StiuParams, Store};
use utcq_datagen::{generate_network, generate_on_network, DatasetProfile, GenOptions};
use utcq_network::RoadNetwork;
use utcq_traj::{Dataset, UncertainTrajectory};

/// Fixed description of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name (the `--workload` argument).
    pub name: &'static str,
    /// Dataset profile (`utcq_datagen::profile::cd` / `hz`).
    pub profile: fn() -> DatasetProfile,
    /// Trajectories in the single-store v2 container the server opens.
    pub base_trajs: usize,
    /// Durable ingest: `--wal`, `--fsync always`, `--checkpoint-bytes`.
    pub checkpoint_bytes: Option<u64>,
    /// Shares of where, when and range reads.
    pub mix: [f64; 3],
    /// `Some(n)`: reads replay a pool of `n` distinct requests; `None`:
    /// no request shape ever repeats.
    pub pool: Option<usize>,
    /// Open-loop read rate of the fixed-rate phase (requests/s).
    pub fixed_qps: f64,
    /// The ascending rate ladder for `read_qps_at_slo` (requests/s).
    pub ladder: &'static [f64],
    /// Latency limit on the ladder's tail percentile (µs).
    pub limit_us: f64,
    /// Trajectories per ingest batch.
    pub batch_trajs: usize,
    /// `Some(n)`: the loader sends `n` batches alone, after the reads.
    /// `None`: it sends batches back to back beside the reads, for the
    /// whole of each read phase.
    pub ingest_after_reads: Option<usize>,
    /// `server_rss_mib` is the server's peak RSS when this many batches
    /// are acknowledged: a fixed amount of data, however fast the
    /// loader ran.
    pub rss_at_batches: usize,
}

/// Read request kinds, in mix order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `where(traj, t, α)`.
    Where,
    /// `when(traj, ⟨edge, rd⟩, α)`.
    When,
    /// `range(RE, tq, α)`.
    Range,
}

impl Kind {
    /// All kinds, in mix order.
    pub const ALL: [Kind; 3] = [Kind::Where, Kind::When, Kind::Range];

    /// The protocol op name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Where => "where",
            Kind::When => "when",
            Kind::Range => "range",
        }
    }
}

/// Every workload.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "serve_hot",
            profile: utcq_datagen::profile::cd,
            base_trajs: 2_000,
            checkpoint_bytes: None,
            mix: [0.45, 0.45, 0.10],
            pool: Some(256),
            fixed_qps: 16_000.0,
            ladder: SERVE_HOT_LADDER,
            limit_us: 50_000.0,
            batch_trajs: 64,
            ingest_after_reads: Some(750),
            rss_at_batches: 750,
        },
        Spec {
            name: "ingest_mixed",
            profile: utcq_datagen::profile::hz,
            base_trajs: 1_000,
            checkpoint_bytes: Some(4 << 20),
            mix: [0.40, 0.40, 0.20],
            pool: None,
            fixed_qps: 150.0,
            ladder: INGEST_MIXED_LADDER,
            limit_us: 50_000.0,
            batch_trajs: 16,
            ingest_after_reads: None,
            rss_at_batches: 800,
        },
    ]
}

/// `serve_hot`'s ladder (requests/s).
const SERVE_HOT_LADDER: &[f64] = &[48_000.0, 96_000.0];
/// `ingest_mixed`'s ladder (requests/s).
const INGEST_MIXED_LADDER: &[f64] = &[100.0, 200.0];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// Distinct fresh trajectories generated for ingest. Batch `k` reuses
/// the trajectories of pool batch `k mod (POOL_TRAJS / batch size)`
/// under fresh ids, so a run can ingest for as long as it lasts without
/// generating or holding every batch up front.
pub const POOL_TRAJS: usize = 4096;

/// A where or when read prepared on a pool batch's trajectory; the id
/// is filled in when the batch it reads is known.
#[derive(Debug, Clone, PartialEq)]
enum BatchRead {
    Where {
        offset: usize,
        t: i64,
        alpha: f64,
    },
    When {
        offset: usize,
        edge: u32,
        rd: f64,
        alpha: f64,
    },
}

/// The generated inputs of one run.
#[derive(Debug)]
pub struct Data {
    /// The road network.
    pub net: Arc<RoadNetwork>,
    /// The trajectories in the container.
    pub base: Dataset,
    /// Compression parameters (the paper's Table 7 defaults).
    pub params: CompressParams,
    /// Trajectories per ingest batch.
    pub batch_trajs: usize,
    /// Id of the first trajectory of batch 0.
    first_id: u64,
    /// Distinct fresh batches; trajectory `i` of each has id `i`.
    pool: Vec<Dataset>,
    /// Each pool batch's `ingest` line, cut before every id.
    templates: Vec<Vec<String>>,
    /// Where and when reads on each pool batch (4 of each, where first).
    pool_reads: Vec<Vec<BatchRead>>,
}

impl Data {
    /// The trajectory ids of ingest batch `k`.
    pub fn batch_ids(&self, k: usize) -> std::ops::Range<u64> {
        let first = self.first_id + (k * self.batch_trajs) as u64;
        first..first + self.batch_trajs as u64
    }

    /// Ingest batch `k` as a dataset.
    pub fn batch(&self, k: usize) -> Dataset {
        let mut ds = self.pool[k % self.pool.len()].clone();
        for (tu, id) in ds.trajectories.iter_mut().zip(self.batch_ids(k)) {
            tu.id = id;
        }
        ds
    }

    /// The `ingest` request line of batch `k`.
    pub fn batch_line(&self, k: usize) -> String {
        let pieces = &self.templates[k % self.templates.len()];
        let mut out = String::with_capacity(pieces.iter().map(String::len).sum::<usize>() + 256);
        for (piece, id) in pieces.iter().zip(self.batch_ids(k).map(Some).chain([None])) {
            out.push_str(piece);
            if let Some(id) = id {
                let _ = write!(out, "{id}");
            }
        }
        out
    }

    /// Read `slot` of `kind` (where or when) on batch `k`.
    fn batch_read(&self, k: usize, kind: Kind, slot: usize) -> String {
        let reads = &self.pool_reads[k % self.pool_reads.len()];
        let half = reads.len() / 2;
        let i = if kind == Kind::Where {
            slot % half
        } else {
            half + slot % half
        };
        let id = |offset: usize| self.batch_ids(k).start + offset as u64;
        match reads[i] {
            BatchRead::Where { offset, t, alpha } => where_line(id(offset), t, alpha),
            BatchRead::When {
                offset,
                edge,
                rd,
                alpha,
            } => when_line(id(offset), edge, rd, alpha),
        }
    }
}

/// Seed of the road network: one fixed city per profile, so that
/// runs differ only in their trajectories and requests.
pub const NETWORK_SEED: u64 = 1;

/// Builds the network, the base dataset and the pool of fresh ingest
/// trajectories for `seed`.
pub fn build_data(spec: &Spec, seed: u64) -> Data {
    let profile = (spec.profile)();
    let net = generate_network(&profile, NETWORK_SEED);
    let base = generate_on_network(
        &net,
        &profile,
        &GenOptions {
            n_trajectories: spec.base_trajs,
            seed,
            ..GenOptions::default()
        },
    );
    let fresh = generate_on_network(
        &net,
        &profile,
        &GenOptions {
            n_trajectories: POOL_TRAJS,
            seed: seed ^ 0x5EED_F00D,
            ..GenOptions::default()
        },
    );
    let first_id = base
        .trajectories
        .iter()
        .map(|t| t.id)
        .max()
        .map_or(0, |m| m + 1);
    let pool: Vec<Dataset> = fresh
        .trajectories
        .chunks_exact(spec.batch_trajs)
        .map(|c| {
            let mut trajectories = c.to_vec();
            for (i, tu) in trajectories.iter_mut().enumerate() {
                tu.id = i as u64;
            }
            Dataset {
                name: String::new(),
                default_interval: base.default_interval,
                trajectories,
            }
        })
        .collect();
    let templates = pool
        .iter()
        .map(|b| ingest_pieces(&b.trajectories))
        .collect();
    let pool_reads = pool
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let s = seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
            let mut reads: Vec<BatchRead> = where_queries(b, 4, s)
                .iter()
                .map(|q| BatchRead::Where {
                    offset: q.traj_id as usize,
                    t: q.t,
                    alpha: q.alpha,
                })
                .collect();
            reads.extend(when_queries(b, 4, s ^ 1).iter().map(|q| BatchRead::When {
                offset: q.traj_id as usize,
                edge: q.edge.0,
                rd: q.rd,
                alpha: q.alpha,
            }));
            reads
        })
        .collect();
    Data {
        net: Arc::new(net),
        params: utcq_bench::datasets::paper_params(&profile),
        base,
        batch_trajs: spec.batch_trajs,
        first_id,
        pool,
        templates,
        pool_reads,
    }
}

/// Compresses the base dataset into the workload's container at `path`.
pub fn write_container(data: &Data, path: &Path) -> Result<(), String> {
    Store::build(
        Arc::clone(&data.net),
        &data.base,
        data.params,
        StiuParams::default(),
    )
    .and_then(|s| s.save(path))
    .map_err(|e| e.to_string())
}

/// `{"op":"where",...}` for a trajectory and time.
pub fn where_line(traj: u64, t: i64, alpha: f64) -> String {
    format!(r#"{{"op":"where","traj":{traj},"t":{t},"alpha":{alpha}}}"#)
}

/// `{"op":"when",...}` for a trajectory and location.
pub fn when_line(traj: u64, edge: u32, rd: f64, alpha: f64) -> String {
    format!(r#"{{"op":"when","traj":{traj},"edge":{edge},"rd":{rd},"alpha":{alpha}}}"#)
}

/// The `ingest` request line for a batch (the `PROTOCOL.md` shape),
/// cut before each trajectory's id: the line is the pieces joined with
/// the ids in between.
fn ingest_pieces(trajs: &[UncertainTrajectory]) -> Vec<String> {
    let mut pieces = Vec::with_capacity(trajs.len() + 1);
    let mut out = String::from(r#"{"op":"ingest","trajectories":["#);
    for (i, tu) in trajs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r#"{"id":"#);
        pieces.push(std::mem::take(&mut out));
        out.push_str(r#","times":["#);
        for (k, t) in tu.times.iter().enumerate() {
            let _ = write!(out, "{}{t}", if k > 0 { "," } else { "" });
        }
        out.push_str(r#"],"instances":["#);
        for (w, inst) in tu.instances.iter().enumerate() {
            let _ = write!(
                out,
                r#"{}{{"prob":{},"path":["#,
                if w > 0 { "," } else { "" },
                inst.prob
            );
            for (k, e) in inst.path.iter().enumerate() {
                let _ = write!(out, "{}{}", if k > 0 { "," } else { "" }, e.0);
            }
            out.push_str(r#"],"positions":["#);
            for (k, p) in inst.positions.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}[{},{}]",
                    if k > 0 { "," } else { "" },
                    p.path_idx,
                    p.rd
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    pieces.push(out);
    pieces
}

/// One read of a stream: a fixed line, or a read on a recently
/// acknowledged batch resolved when it is sent.
#[derive(Debug, Clone, PartialEq)]
pub enum Read {
    /// A fixed request line.
    Line(Kind, Arc<str>),
    /// Read `slot` of the batch `back` batches before the newest
    /// acknowledged one (falls back to `fallback` before any ack).
    Recent {
        /// Kind of the resolved read.
        kind: Kind,
        /// How many batches back from the newest acknowledged one.
        back: usize,
        /// Which of that batch's prepared reads.
        slot: usize,
        /// The base-data line used while too few batches are acked.
        fallback: Arc<str>,
    },
}

impl Read {
    /// The read's kind.
    pub fn kind(&self) -> Kind {
        match self {
            Read::Line(k, _) | Read::Recent { kind: k, .. } => *k,
        }
    }

    /// The request line, given the batches acknowledged so far.
    pub fn resolve(&self, data: &Data, acked: usize) -> Arc<str> {
        match self {
            Read::Line(_, l) => Arc::clone(l),
            Read::Recent {
                kind,
                back,
                slot,
                fallback,
            } => {
                if acked <= *back {
                    Arc::clone(fallback)
                } else {
                    data.batch_read(acked - 1 - back, *kind, *slot).into()
                }
            }
        }
    }

    /// A stable text form, for determinism checks.
    pub fn text(&self) -> String {
        match self {
            Read::Line(_, l) => l.to_string(),
            Read::Recent {
                kind,
                back,
                slot,
                fallback,
            } => format!("recent:{}:{back}:{slot}|{fallback}", kind.name()),
        }
    }
}

/// A workload's reads, in the order a run sends them.
#[derive(Debug)]
pub enum Stream {
    /// A pool of distinct reads replayed in seeded order: read `i` is
    /// drawn from `i` and the seed, so no stream is materialised.
    Pool {
        /// The distinct reads.
        reads: Vec<Read>,
        /// Seed of the draw.
        seed: u64,
    },
    /// Reads that never repeat, generated up front.
    Fresh(Vec<Read>),
}

impl Stream {
    /// Read `i` of the stream.
    ///
    /// # Panics
    /// On a fresh stream, when `i` is beyond the reads generated.
    pub fn get(&self, i: usize) -> &Read {
        match self {
            Stream::Pool { reads, seed } => {
                &reads[(splitmix64(seed ^ i as u64) % reads.len() as u64) as usize]
            }
            Stream::Fresh(reads) => &reads[i],
        }
    }
}

/// The SplitMix64 finaliser: a well-mixed 64-bit hash of `x`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Queries of one kind over the base data, as request lines.
fn lines_of(kind: Kind, net: &RoadNetwork, ds: &Dataset, n: usize, seed: u64) -> Vec<String> {
    match kind {
        Kind::Where => where_queries(ds, n, seed)
            .iter()
            .map(|q| where_line(q.traj_id, q.t, q.alpha))
            .collect(),
        Kind::When => when_queries(ds, n, seed)
            .iter()
            .map(|q| when_line(q.traj_id, q.edge.0, q.rd, q.alpha))
            .collect(),
        Kind::Range => range_queries(net, ds, n, seed)
            .iter()
            .map(|q| {
                format!(
                    r#"{{"op":"range","min_x":{},"min_y":{},"max_x":{},"max_y":{},"tq":{},"alpha":{}}}"#,
                    q.re.min_x, q.re.min_y, q.re.max_x, q.re.max_y, q.tq, q.alpha
                )
            })
            .collect(),
    }
}

/// `n` distinct lines of `kind` (a duplicate draw is replaced).
fn distinct_lines(
    kind: Kind,
    net: &RoadNetwork,
    ds: &Dataset,
    n: usize,
    seed: u64,
    seen: &mut HashSet<String>,
) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    let mut round = 0u64;
    while out.len() < n {
        let want = n - out.len();
        for l in lines_of(kind, net, ds, want + want / 8 + 4, seed ^ (round << 32)) {
            if out.len() < n && seen.insert(l.clone()) {
                out.push(l);
            }
        }
        round += 1;
    }
    out
}

/// Splits `n` draws over the mix with a seeded generator: the kind of
/// each position in the stream.
fn kinds(mix: [f64; 3], n: usize, rng: &mut StdRng) -> Vec<Kind> {
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            if u < mix[0] {
                Kind::Where
            } else if u < mix[0] + mix[1] {
                Kind::When
            } else {
                Kind::Range
            }
        })
        .collect()
}

/// The workload's read stream for `seed`. A pool workload replays its
/// distinct requests in seeded order; the others never repeat a request
/// (`n` reads are generated); a workload with ingest beside its reads
/// aims half of its where/when reads at recently acknowledged batches.
pub fn read_stream(spec: &Spec, data: &Data, seed: u64, n: usize) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0005_7EA3);
    let net = data.net.as_ref();
    let mut seen = HashSet::new();
    if let Some(pool_n) = spec.pool {
        let mut pool = Vec::with_capacity(pool_n);
        let mut taken = 0usize;
        for (i, kind) in Kind::ALL.iter().enumerate() {
            let k = if i == 2 {
                pool_n - taken
            } else {
                (spec.mix[i] * pool_n as f64).round() as usize
            };
            taken += k;
            for l in distinct_lines(*kind, net, &data.base, k, seed ^ (i as u64 + 11), &mut seen) {
                pool.push(Read::Line(*kind, l.into()));
            }
        }
        return Stream::Pool {
            reads: pool,
            seed: rng.gen(),
        };
    }
    let beside = spec.ingest_after_reads.is_none();
    let order = kinds(spec.mix, n, &mut rng);
    let mut per_kind: Vec<std::vec::IntoIter<String>> = Kind::ALL
        .iter()
        .enumerate()
        .map(|(i, kind)| {
            let k = order.iter().filter(|o| *o == kind).count();
            distinct_lines(*kind, net, &data.base, k, seed ^ (i as u64 + 21), &mut seen).into_iter()
        })
        .collect();
    Stream::Fresh(
        order
            .iter()
            .map(|kind| {
                let i = Kind::ALL.iter().position(|k| k == kind).unwrap_or(0);
                let line: Arc<str> = per_kind[i].next().unwrap_or_default().into();
                if beside && *kind != Kind::Range && rng.gen_bool(0.5) {
                    Read::Recent {
                        kind: *kind,
                        back: rng.gen_range(0..4),
                        slot: rng.gen_range(0..4),
                        fallback: line,
                    }
                } else {
                    Read::Line(*kind, line)
                }
            })
            .collect(),
    )
}
