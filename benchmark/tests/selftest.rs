//! Self-tests of the benchmark's own logic: the percentile rule, the
//! ladder decision, metric names, seeded determinism and the answer
//! check. Run with `cargo test --manifest-path benchmark/Cargo.toml`.

use std::sync::Arc;

use utcq_benchmark::loadgen::{AckRecord, ReadRecord};
use utcq_benchmark::run::{END_TO_END, PER_LAYER};
use utcq_benchmark::stats::{
    ladder_answer, median, percentile, rank, tail_level, valid_metric_name, window_percentiles,
    window_rates, Step, Summary,
};
use utcq_benchmark::verify;
use utcq_benchmark::workload::{self, build_data, read_stream, Kind, Spec, POOL_TRAJS};
use utcq_core::wire::{parse_request, Json, Request};
use utcq_core::{Opened, StiuParams, Store};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // 1000 samples: rank 990 leaves exactly 10 beyond p99.
    assert_eq!(tail_level(1000, 99.0), Some(99.0));
    // 999: p99 would leave 9 beyond, p95 leaves 49.
    assert_eq!(tail_level(999, 99.0), Some(95.0));
    // 200: p95 leaves 10, p99 2.
    assert_eq!(tail_level(200, 99.0), Some(95.0));
    assert_eq!(tail_level(199, 99.0), Some(90.0));
    // 20 samples support only the median (10 beyond); 19 nothing.
    assert_eq!(tail_level(20, 99.0), Some(50.0));
    assert_eq!(tail_level(19, 99.0), None);
    assert_eq!(tail_level(0, 99.0), None);
    // The cap applies.
    assert_eq!(tail_level(100_000, 95.0), Some(95.0));
    assert_eq!(rank(1000, 99.0), 990);

    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    let s = Summary::of(&samples, 99.0);
    assert_eq!(
        (s.n, s.p50, s.tail, s.tail_level),
        (1000, 500.0, 990.0, 99.0)
    );
    let few = Summary::of(&samples[..15], 99.0);
    assert_eq!(few.n, 15);
    assert!(few.tail.is_nan() && few.tail_level.is_nan());
    let mut sorted = samples.clone();
    sorted.reverse();
    sorted.sort_by(f64::total_cmp);
    assert_eq!(percentile(&sorted, 90.0), 900.0);
}

#[test]
fn window_medians_shrug_off_a_stalled_window() {
    const S: u64 = 1_000_000_000;
    // Four windows of 20 samples at 1.0, one stalled window at 50.0.
    let samples: Vec<(u64, f64)> = (0..5u64)
        .flat_map(|w| {
            (0..20u64).map(move |i| (w * S + i * (S / 20), if w == 2 { 50.0 } else { 1.0 }))
        })
        .collect();
    let p50s = window_percentiles(&samples, S, 50.0);
    assert_eq!(p50s, vec![1.0, 1.0, 50.0, 1.0, 1.0]);
    assert_eq!(median(&p50s), 1.0);
    // Windows with fewer than ten samples are skipped.
    assert_eq!(
        window_percentiles(&samples[..9], S, 50.0),
        Vec::<f64>::new()
    );
    // 10 events/s for 3 whole windows; the partial last one is dropped.
    let events: Vec<u64> = (0..35u64).map(|i| i * (S / 10)).collect();
    assert_eq!(
        window_rates(&events, 0, 35 * (S / 10), S),
        vec![10.0, 10.0, 10.0]
    );
}

fn step(offered: f64, tail_us: f64) -> Step {
    Step {
        offered_qps: offered,
        achieved_qps: offered,
        tail_us,
        failed: 0,
        backlog_early: 1.0,
        backlog_late: 1.0,
        sent: (offered * 2.0) as usize,
    }
}

#[test]
fn ladder_stops_at_the_first_step_that_misses_a_condition() {
    let limit = 50_000.0;
    let steps = [
        step(100.0, 1_000.0),
        step(300.0, 2_000.0),
        step(900.0, 80_000.0),
    ];
    assert_eq!(ladder_answer(&steps, limit), 300.0);
    // A later passing step does not count after a failure.
    let steps = [
        step(100.0, 1_000.0),
        step(300.0, 90_000.0),
        step(900.0, 1_000.0),
    ];
    assert_eq!(ladder_answer(&steps, limit), 100.0);
    // Nothing passes.
    assert_eq!(ladder_answer(&[step(100.0, 90_000.0)], limit), 0.0);
    // Any failure fails the step.
    let mut failed = step(300.0, 1_000.0);
    failed.failed = 1;
    assert_eq!(ladder_answer(&[step(100.0, 1.0), failed], limit), 100.0);
    // Achieved below 98% of offered fails it.
    let mut slow = step(300.0, 1_000.0);
    slow.achieved_qps = 290.0;
    assert!(!slow.passes(limit));
    slow.achieved_qps = 295.0;
    assert!(slow.passes(limit));
}

#[test]
fn a_growing_backlog_fails_a_step_but_a_short_bump_does_not() {
    let limit = 50_000.0;
    // 600 requests sent: the allowance is max(4, 6) = 6.
    let mut s = step(300.0, 1_000.0);
    s.backlog_early = 2.0;
    s.backlog_late = 8.0;
    assert!(!s.backlog_grows() && s.passes(limit));
    s.backlog_late = 8.5;
    assert!(s.backlog_grows() && !s.passes(limit));
    // A bump early in the step that drains is not growth.
    s.backlog_early = 40.0;
    s.backlog_late = 3.0;
    assert!(!s.backlog_grows());
    // Small steps keep the floor of 4.
    let mut small = step(10.0, 1_000.0);
    small.backlog_late = small.backlog_early + 4.0;
    assert!(!small.backlog_grows());
    small.backlog_late += 0.5;
    assert!(small.backlog_grows());
}

#[test]
fn metric_names_are_valid_and_match_benchmark_json() {
    for bad in ["", "_x", ".x", "a b", "a/b", "ü", &"x".repeat(65)] {
        assert!(!valid_metric_name(bad), "{bad:?} accepted");
    }
    for good in ["setup_s", "wire.parse_us", "0x", "a-b.c_d", &"x".repeat(64)] {
        assert!(valid_metric_name(good), "{good:?} rejected");
    }
    for name in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_metric_name(name), "{name}");
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        match json.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string()
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    };
    assert_eq!(names("end_to_end"), END_TO_END);
    assert_eq!(names("per_layer"), PER_LAYER);
    for w in names("workloads") {
        assert!(workload::by_name(&w).is_some(), "unknown workload {w}");
    }
}

/// A workload shrunk to test size, keeping its request-stream shape.
fn small(name: &str) -> Spec {
    let mut s = workload::by_name(name).expect("workload exists");
    s.base_trajs = 120;
    s
}

fn stream_text(spec: &Spec, seed: u64) -> String {
    let data = build_data(spec, seed);
    let stream = read_stream(spec, &data, seed, 400);
    let mut out: Vec<String> = (0..400).map(|i| stream.get(i).text()).collect();
    out.extend((0..6).map(|k| data.batch_line(k)));
    // Recent reads resolved against a few acknowledged batches.
    out.extend((0..400).map(|i| stream.get(i).resolve(&data, 5).to_string()));
    out.join("\n")
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    for name in ["serve_hot", "ingest_mixed"] {
        let spec = small(name);
        let a = stream_text(&spec, 7);
        assert_eq!(a, stream_text(&spec, 7), "{name}: not deterministic");
        assert_ne!(a, stream_text(&spec, 8), "{name}: seed ignored");
    }
}

#[test]
fn pools_replay_and_fresh_streams_never_repeat() {
    let hot = small("serve_hot");
    let data = build_data(&hot, 3);
    let stream = read_stream(&hot, &data, 3, 0);
    let distinct: std::collections::HashSet<String> =
        (0..5_000).map(|i| stream.get(i).text()).collect();
    assert_eq!(distinct.len(), hot.pool.expect("pool"));

    let mixed = small("ingest_mixed");
    let data = build_data(&mixed, 3);
    let stream = read_stream(&mixed, &data, 3, 2_000);
    let texts: Vec<String> = (0..2_000).map(|i| stream.get(i).text()).collect();
    let distinct: std::collections::HashSet<&String> = texts.iter().collect();
    assert_eq!(distinct.len(), texts.len());
    let ranges = (0..2_000)
        .filter(|&i| stream.get(i).kind() == Kind::Range)
        .count() as f64;
    assert!((ranges / 2_000.0 - 0.2).abs() < 0.05);
}

#[test]
fn batch_lines_carry_fresh_ids_over_the_recycled_pool() {
    let spec = small("ingest_mixed");
    let data = build_data(&spec, 4);
    let per_pool = POOL_TRAJS / spec.batch_trajs;
    let mut seen = std::collections::HashSet::new();
    for k in [0, 1, per_pool, per_pool + 1] {
        let want = data.batch(k);
        let Ok(parsed) = parse_request(&data.batch_line(k)) else {
            panic!("batch {k}: line does not parse");
        };
        let Request::Ingest { trajectories, .. } = parsed.request else {
            panic!("batch {k}: not an ingest line");
        };
        assert_eq!(trajectories, want.trajectories, "batch {k}");
        let ids: Vec<u64> = data.batch_ids(k).collect();
        assert_eq!(
            ids,
            want.trajectories.iter().map(|t| t.id).collect::<Vec<_>>()
        );
        assert!(
            ids.iter().all(|id| seen.insert(*id)),
            "batch {k} reuses an id"
        );
    }
    // Batch k and k + pool size share content, not ids.
    let (a, b) = (data.batch(1), data.batch(per_pool + 1));
    assert_eq!(a.trajectories[0].times, b.trajectories[0].times);
    assert_ne!(a.trajectories[0].id, b.trajectories[0].id);
}

fn record(line: &str, response: Option<String>, window: (usize, usize)) -> ReadRecord {
    ReadRecord {
        idx: 0,
        line: line.into(),
        due_ns: 0,
        sent_ns: 0,
        recv_ns: response.as_ref().map(|_| 1),
        response,
        acks_at_send: window.0,
        acks_at_recv: window.1,
    }
}

#[test]
fn answer_check_admits_only_the_epochs_in_a_reads_window() {
    let spec = small("ingest_mixed");
    let data = build_data(&spec, 5);
    let open = || {
        let store = Store::build(
            Arc::clone(&data.net),
            &data.base,
            data.params,
            StiuParams::default(),
        )
        .expect("build");
        Opened::Single(Box::new(store))
    };
    // What a server answers before and after the first batch.
    let server = open();
    let first = &data.batch(0).trajectories[0];
    let probe = workload::where_line(first.id, first.times[0], 0.0);
    let before = utcq_core::wire::handle_line(&server, &probe).line;
    let ack = utcq_core::wire::handle_line_writable(&server, &data.batch_line(0)).line;
    let after = utcq_core::wire::handle_line(&server, &probe).line;
    assert_ne!(before, after, "the probe must see the batch");
    let acks = [AckRecord {
        batch: 0,
        sent_ns: 0,
        recv_ns: Some(1),
        response: Some(ack.clone()),
    }];
    let acks: Vec<&AckRecord> = acks.iter().collect();
    let n = data.base.trajectories.len();
    let check = |reads: &[ReadRecord]| {
        let reads: Vec<&ReadRecord> = reads.iter().collect();
        verify::check(
            &open(),
            &reads,
            &acks,
            &|k| data.batch_line(k),
            n,
            spec.batch_trajs,
        )
    };
    // Either epoch is admissible while the batch was in flight.
    let ok = check(&[
        record(&probe, Some(before.clone()), (0, 1)),
        record(&probe, Some(after.clone()), (0, 1)),
        record(&probe, Some(after.clone()), (1, 1)),
    ]);
    assert_eq!(ok, verify::Verdict::default());
    // A pre-batch answer to a read sent after the ack is wrong, and so
    // is an answer that matches no epoch.
    let bad = check(&[
        record(&probe, Some(before), (1, 1)),
        record(&probe, Some("{\"ok\":true}".into()), (0, 1)),
        record(&probe, None, (0, 0)),
    ]);
    assert_eq!(bad.read_mismatches, 2);
    assert_eq!(bad.bad_acks, 0);
    // A tampered ack is caught.
    let wrong = [AckRecord {
        response: Some(ack.replace("\"epoch\":1", "\"epoch\":2")),
        ..acks[0].clone()
    }];
    let wrong: Vec<&AckRecord> = wrong.iter().collect();
    let v = verify::check(
        &open(),
        &[],
        &wrong,
        &|k| data.batch_line(k),
        n,
        spec.batch_trajs,
    );
    assert_eq!(v.bad_acks, 1);
}
