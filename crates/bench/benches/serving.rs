//! Placement-daemon throughput over a real localhost socket.
//!
//! The serving story only holds if online placement keeps up with request
//! arrival — the bar is ≥10k placement requests/s through the full stack
//! (TCP framing, JSON decode, memoized prediction, cluster mutation).

use criterion::{criterion_group, criterion_main, Criterion};
use gaugur_bench::ExperimentContext;
use gaugur_core::{GAugur, GAugurConfig, Placement};
use gaugur_gamesim::{GameId, Resolution};
use gaugur_sched::{select_server, select_server_incremental, Policy, ScoreCache};
use gaugur_serve::{
    daemon, load, Client, DaemonConfig, LoadConfig, MemoizedFps, ModelHandle, MonotonicClock,
    PredictionMemo, RequestTrace, SlowMeta, Stage, TraceCollector, WindowedCollector,
};
use std::time::Instant;

/// Deep-fleet placement-path comparison, in-process (no wire): the old
/// per-request full recompute (occupancy clone + stateless scorer) against
/// the incremental scorer with a persistent per-server score cache. Printed
/// as µs/request and a speedup ratio; the cache is what buys the win, so the
/// fleet is pre-loaded near-full where the quadratic cost bites. Returns
/// `(full-recompute µs/req, incremental µs/req)` for the JSON report.
fn deep_fleet_comparison(model: &GAugur) -> (f64, f64) {
    const N_SERVERS: usize = 64;
    const N_GAMES: u32 = 20;
    const REPS: u32 = 400;
    const R: Resolution = Resolution::Fhd1080;

    let handle = ModelHandle::from_model(model.clone());
    let loaded = handle.get();
    let memo = PredictionMemo::new(1 << 16);
    let fps = MemoizedFps {
        model: &loaded,
        memo: &memo,
        qos: 60.0,
    };

    // Three distinct games per server (7 and 14 are coprime spacings mod 20).
    let mut occupancy: Vec<Vec<Placement>> = (0..N_SERVERS)
        .map(|s| {
            [s, s + 7, s + 14]
                .iter()
                .map(|&g| (GameId((g % N_GAMES as usize) as u32), R))
                .collect()
        })
        .collect();

    // One warm-up pass per path so the shared prediction memo is equally hot
    // before either timer starts.
    let run_old = |occupancy: &mut Vec<Vec<Placement>>| {
        for i in 0..REPS {
            let request = (GameId(i % N_GAMES), R);
            let snapshot = occupancy.clone(); // what the daemon used to do
            if let Some(server) = select_server(&snapshot, request, &Policy::MaxPredictedFps(&fps))
            {
                occupancy[server].push(request);
                occupancy[server].pop();
            }
        }
    };
    run_old(&mut occupancy);
    let t0 = Instant::now();
    run_old(&mut occupancy);
    let old_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);

    let mut cache = ScoreCache::new(N_SERVERS);
    let run_new = |occupancy: &mut Vec<Vec<Placement>>, cache: &mut ScoreCache| {
        for i in 0..REPS {
            let request = (GameId(i % N_GAMES), R);
            if let Some(sel) = select_server_incremental(&*occupancy, request, &fps, 1, cache) {
                occupancy[sel.server].push(request);
                occupancy[sel.server].pop();
                cache.invalidate(sel.server); // the immediate depart
            }
        }
    };
    run_new(&mut occupancy, &mut cache);
    let t1 = Instant::now();
    run_new(&mut occupancy, &mut cache);
    let new_us = t1.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);

    let (hits, misses) = cache.counts();
    eprintln!(
        "placement_deep_fleet ({N_SERVERS} servers, 3 games each): \
         full recompute {old_us:.1} µs/req, incremental {new_us:.1} µs/req \
         ({:.1}x, score cache {hits} hits / {misses} misses)",
        old_us / new_us.max(1e-9)
    );
    (old_us, new_us)
}

/// Per-request cost of the tracing path, in-process: one full request's
/// worth of stage recording — five stage adds into the request-local
/// accumulator, the sharded histogram merge, and the slow-ring offer. The
/// budget is well under a microsecond; at 10k req/s that keeps tracing below
/// 1% of the request path.
fn trace_overhead_ns() -> f64 {
    const REPS: u64 = 1_000_000;
    let collector = TraceCollector::new(4, 16);
    let t0 = Instant::now();
    for i in 0..REPS {
        let mut trace = RequestTrace::new();
        trace.add(Stage::Decode, 3);
        trace.add(Stage::Predict, 40);
        trace.add(Stage::Place, 60);
        trace.add(Stage::Encode, 5);
        trace.add(Stage::WriteReply, 7 + (i & 63));
        collector.record_request((i % 4) as usize, "place", &trace, SlowMeta::default());
    }
    let ns = t0.elapsed().as_nanos() as f64 / REPS as f64;
    std::hint::black_box(collector.stage_snapshot());
    eprintln!("trace_record: {ns:.0} ns per fully-staged request");
    assert!(
        ns < 1_000.0,
        "tracing blew its overhead budget: {ns:.0} ns/request"
    );
    ns
}

/// Per-request cost of the windowed-telemetry path, in-process: one
/// `record_request` into the recording worker's ring of per-second buckets
/// (request counters, per-stage latency histograms, place tallies). This
/// rides the same hot path as `trace_record`; its budget is ≤100 ns on top.
fn windowed_overhead_ns() -> f64 {
    const REPS: u64 = 1_000_000;
    let collector = WindowedCollector::new(4, 2, std::sync::Arc::new(MonotonicClock::new()));
    let mut trace = RequestTrace::new();
    trace.add(Stage::Decode, 3);
    trace.add(Stage::Predict, 40);
    trace.add(Stage::Place, 60);
    trace.add(Stage::Encode, 5);
    trace.add(Stage::WriteReply, 7);
    let t0 = Instant::now();
    for i in 0..REPS {
        collector.record_request((i % 4) as usize, true, true, &trace);
    }
    let ns = t0.elapsed().as_nanos() as f64 / REPS as f64;
    std::hint::black_box(collector.views());
    eprintln!("windowed_record: {ns:.0} ns per request");
    assert!(
        ns < 500.0,
        "windowed telemetry blew its overhead budget: {ns:.0} ns/request"
    );
    ns
}

/// Cost of rendering the Prometheus exposition from a populated snapshot —
/// the price of one `Metrics` scrape, minus the wire.
fn metrics_render_us(client: &mut Client) -> f64 {
    const REPS: u32 = 200;
    let snap = client.stats().expect("stats scrape");
    let t0 = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(gaugur_serve::render_prometheus(&snap));
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);
    eprintln!("metrics_render: {us:.1} µs per exposition");
    us
}

/// Contended `Place` scaling curve: the same closed-loop driver at
/// 1/2/4/8 workers against a single-lock fleet (`shards = 1`) and a
/// sharded one (`shards = 4`). A fresh daemon per cell so score caches
/// and session counters start cold; best-of-`RUNS` per cell to damp
/// scheduler noise. Returns `(workers, shards, req/s)` rows.
fn contended_scaling(model: &GAugur, games: &[GameId]) -> Vec<(usize, usize, f64)> {
    const RUNS: usize = 3;
    let mut curve = Vec::new();
    for &workers in &[1usize, 2, 4, 8] {
        for &shards in &[1usize, 4] {
            let mut best = 0f64;
            for run in 0..RUNS {
                let handle = daemon::start(
                    DaemonConfig {
                        n_servers: 64,
                        workers,
                        shards,
                        print_stats_on_shutdown: false,
                        ..Default::default()
                    },
                    ModelHandle::from_model(model.clone()),
                )
                .expect("daemon starts");
                let report = load::run(&LoadConfig {
                    addr: handle.local_addr().to_string(),
                    seed: 7 + run as u64,
                    connections: workers,
                    requests: 4_000,
                    rate: f64::INFINITY,
                    mean_session_arrivals: 4.0,
                    games: games.to_vec(),
                    resolutions: vec![Resolution::Fhd1080],
                    qos: 60.0,
                    batch: 1,
                    expect_shards: Some(shards),
                    ..Default::default()
                });
                assert_eq!(report.errors, 0, "contended run hit errors");
                assert_eq!(report.shard_violation, None, "{report}");
                best = best.max(report.achieved_rps);
                handle.shutdown();
            }
            eprintln!(
                "contended_place: {workers} worker(s) x {shards} shard(s): \
                 {best:.0} req/s (best of {RUNS})"
            );
            curve.push((workers, shards, best));
        }
    }
    curve
}

/// Write the machine-readable report the CI gate checks for.
#[allow(clippy::too_many_arguments)]
fn emit_report(
    placement_us: (f64, f64),
    single_rps: f64,
    batch_rps: f64,
    p50: u64,
    p99: u64,
    trace_ns: f64,
    windowed_ns: f64,
    render_us: f64,
    curve: &[(usize, usize, f64)],
) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    let (old_us, new_us) = placement_us;
    let mut curve_json = String::new();
    for &(workers, shards, rps) in curve {
        curve_json.push_str(&format!(
            "  \"contended_place_w{workers}_s{shards}_rps\": {rps:.0},\n"
        ));
    }
    let rps_at = |w: usize, s: usize| {
        curve
            .iter()
            .find(|&&(cw, cs, _)| cw == w && cs == s)
            .map_or(0.0, |&(_, _, r)| r)
    };
    let json = format!(
        "{{\n  \"benchmark\": \"serving\",\n  \
         \"placement_full_recompute_us_per_req\": {old_us:.1},\n  \
         \"placement_incremental_us_per_req\": {new_us:.1},\n  \
         \"placement_speedup\": {:.2},\n  \
         \"throughput_rps\": {single_rps:.0},\n  \
         \"throughput_batch16_rps\": {batch_rps:.0},\n  \
         \"latency_p50_us\": {p50},\n  \
         \"latency_p99_us\": {p99},\n\
         {curve_json}  \
         \"contended_speedup_w8_s4_vs_s1\": {:.3},\n  \
         \"trace_record_ns_per_request\": {trace_ns:.0},\n  \
         \"windowed_record_ns_per_request\": {windowed_ns:.0},\n  \
         \"metrics_render_us\": {render_us:.1}\n}}\n",
        old_us / new_us.max(1e-9),
        rps_at(8, 4) / rps_at(8, 1).max(1e-9),
    );
    std::fs::write(path, json).expect("write BENCH_serving.json");
    eprintln!("wrote {path}");
}

fn bench(c: &mut Criterion) {
    let ctx = ExperimentContext::small(1);
    let model =
        GAugur::from_measurements(ctx.profiles.clone(), &ctx.train, GAugurConfig::default());
    let games: Vec<GameId> = ctx.catalog.games().iter().map(|g| g.id).collect();

    let placement_us = deep_fleet_comparison(&model);
    let trace_ns = trace_overhead_ns();
    let windowed_ns = windowed_overhead_ns();
    let curve = contended_scaling(&model, &games);
    let handle = daemon::start(
        DaemonConfig {
            n_servers: 64,
            workers: 4,
            print_stats_on_shutdown: false,
            ..Default::default()
        },
        ModelHandle::from_model(model),
    )
    .expect("daemon starts");
    let addr = handle.local_addr().to_string();

    // Headline number first: a closed-loop driver run, reported as req/s.
    let report = load::run(&LoadConfig {
        addr: addr.clone(),
        seed: 7,
        connections: 4,
        requests: 10_000,
        rate: f64::INFINITY,
        mean_session_arrivals: 4.0,
        games: games.clone(),
        resolutions: vec![Resolution::Fhd1080],
        qos: 60.0,
        batch: 1,
        verify_trace: true,
        ..Default::default()
    });
    eprintln!(
        "serving_throughput: {:.0} placement req/s over localhost \
         (4 connections, p50 {}µs, p99 {}µs, {} errors)",
        report.achieved_rps, report.p50_us, report.p99_us, report.errors
    );
    assert!(report.errors == 0, "load driver hit errors");
    assert_eq!(
        report.trace_violation, None,
        "stage accounting must reconcile after the headline run"
    );

    // Same stream batched 16 arrivals per PlaceBatch frame: fewer round
    // trips, one frame per burst.
    let batched = load::run(&LoadConfig {
        addr: addr.clone(),
        seed: 7,
        connections: 4,
        requests: 10_000,
        rate: f64::INFINITY,
        mean_session_arrivals: 4.0,
        games: games.clone(),
        resolutions: vec![Resolution::Fhd1080],
        qos: 60.0,
        batch: 16,
        ..Default::default()
    });
    eprintln!(
        "serving_throughput_batch16: {:.0} arrivals/s over localhost \
         ({:.2}x vs single-place, {} errors)",
        batched.achieved_rps,
        batched.achieved_rps / report.achieved_rps.max(1e-9),
        batched.errors
    );
    assert!(batched.errors == 0, "batched load driver hit errors");

    // Single-connection round trip: one place + one depart per iteration.
    let mut client = Client::connect(&*addr).expect("client connects");
    let render_us = metrics_render_us(&mut client);

    emit_report(
        placement_us,
        report.achieved_rps,
        batched.achieved_rps,
        report.p50_us,
        report.p99_us,
        trace_ns,
        windowed_ns,
        render_us,
        &curve,
    );
    c.bench_function("serve_place_depart_roundtrip", |b| {
        b.iter(|| {
            let placed = client
                .place(games[0], Resolution::Fhd1080)
                .expect("placement succeeds");
            client.depart(placed.session).expect("departure succeeds");
        })
    });

    // Concurrent throughput: one iteration = a 2000-request driver run.
    let mut g = c.benchmark_group("serve_throughput");
    g.sample_size(5);
    g.bench_function("place_2000_over_4_connections", |b| {
        b.iter(|| {
            let r = load::run(&LoadConfig {
                addr: addr.clone(),
                seed: 7,
                connections: 4,
                requests: 2000,
                rate: f64::INFINITY,
                mean_session_arrivals: 4.0,
                games: games.clone(),
                resolutions: vec![Resolution::Fhd1080],
                qos: 60.0,
                batch: 1,
                ..Default::default()
            });
            assert_eq!(r.errors, 0);
            r
        })
    });
    g.finish();

    drop(client);
    handle.shutdown();
}

criterion_group!(benches, bench);
criterion_main!(benches);
