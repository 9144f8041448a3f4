//! Open-loop placement benchmark for the gaugur serving daemon.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload place_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process trains a small model (untimed), saves it as an artifact,
//! starts the daemon with 64 servers and 2 workers, and drives it over its
//! wire API from 2 connections with a seeded Poisson schedule. Latency is
//! timed from each arrival's due time. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` adds a traced run of the same seed, an in-process
//! replay through the public layer functions and per-layer timings on the
//! captured inputs, and prints the per-layer metrics. Every run checks the
//! correctness gate and exits non-zero when it fails. The last stdout line
//! is the JSON result; the line before it is the full report with
//! provenance.

mod gen;
mod layers;
mod replay;
mod spans;
mod stream;

use gaugur_bench::ExperimentContext;
use gaugur_core::{GAugur, GAugurConfig};
use gaugur_serve::{
    daemon, verify_stage_accounting, Client, DaemonConfig, ModelHandle, StatsSnapshot,
};
use gen::{Kind, Phase, Rec, RunClock, PHASE_NAMES};
use layers::median;
use replay::Replay;
use spans::Spans;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use stream::{Op, Stream, Workload};

/// The model is fixed across workload seeds: the seed varies the traffic,
/// not the predictor being served.
const MODEL_SEED: u64 = 1;
const N_SERVERS: usize = 64;
const WORKERS: usize = 2;
const WARMUP: Duration = Duration::from_secs(2);
const SETUP_REPS: usize = 9;
/// Arrivals the single-connection oracle compares against the replay.
const ORACLE_ARRIVALS: usize = 2000;
/// Places due this long after a reload reply count as post-swap.
const POST_SWAP_WINDOW_NS: u64 = 250_000_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    stream::workload(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be within 1..=60".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn daemon_config(w: &Workload) -> DaemonConfig {
    DaemonConfig {
        n_servers: N_SERVERS,
        workers: WORKERS,
        shards: w.shards,
        print_stats_on_shutdown: false,
        ..Default::default()
    }
}

/// FNV-1a over the artifact bytes: a stable fingerprint for provenance.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted values.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median time from `ModelHandle::load` to the daemon's first reply.
fn measure_setup(w: &Workload, artifact: &Path) -> Result<(f64, Vec<f64>), String> {
    let mut samples = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let model = ModelHandle::load(artifact).map_err(|e| format!("load artifact: {e}"))?;
        let handle = daemon::start(daemon_config(w), model).map_err(|e| format!("start: {e}"))?;
        let mut client = Client::connect(handle.local_addr()).map_err(|e| e.to_string())?;
        client.stats().map_err(|e| format!("first reply: {e}"))?;
        samples.push(t.elapsed().as_secs_f64());
        drop(client);
        handle.shutdown();
    }
    let all = samples.clone();
    Ok((median(&mut samples), all))
}

/// One daemon driven by the open-loop generator over the whole stream.
struct DaemonRun {
    recs: Vec<Rec>,
    spans: Spans,
    boundary: StatsSnapshot,
    last: StatsSnapshot,
    /// `(ns after start, daemon CPU ns, host steal ticks)` at the start
    /// and the end of the measured phase.
    cpu_marks: [(u64, u64, u64); 2],
    timer_slack_ns: Option<u64>,
}

fn drive(
    w: &Workload,
    stream: &Stream,
    artifact: &str,
    warm_ns: u64,
    end_ns: u64,
    traced: bool,
) -> Result<DaemonRun, String> {
    let model = ModelHandle::load(artifact).map_err(|e| format!("load artifact: {e}"))?;
    let handle = daemon::start(daemon_config(w), model).map_err(|e| format!("start: {e}"))?;
    let connect = || Client::connect(handle.local_addr()).map_err(|e| format!("connect: {e}"));
    // Never more connections than workers: a third one would wait for a
    // free worker behind the other two.
    let clients = vec![connect()?, connect()?];
    let clock = RunClock {
        t0: Instant::now() + Duration::from_millis(50),
        warm_ns,
        traced,
    };
    let (results, cpu_marks) = std::thread::scope(|s| {
        let mut threads = Vec::new();
        for (c, client) in clients.into_iter().enumerate() {
            let clock = &clock;
            let builder = std::thread::Builder::new().name(format!("perfbench-gen-{c}"));
            let t = if c < w.place_conns {
                builder.spawn_scoped(s, move || {
                    gen::place_conn(client, w, &stream.conns[c], &stream.departs[c], c, clock)
                })
            } else {
                builder.spawn_scoped(s, move || {
                    gen::control_conn(client, stream, artifact, c, clock)
                })
            };
            threads.push(t.expect("spawn generator thread"));
        }
        let marks = [warm_ns, end_ns].map(|t| {
            let at = clock.t0 + Duration::from_nanos(t);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            (t, gen::daemon_cpu_ns(), gen::steal_ticks())
        });
        let results: Vec<_> = threads
            .into_iter()
            .map(|t| t.join().expect("generator thread"))
            .collect();
        (results, marks)
    });
    let mut recs = Vec::new();
    let mut spans = Spans::new(clock.t0);
    let mut boundary = None;
    let mut timer_slack_ns = None;
    let mut clients = Vec::new();
    for r in results {
        recs.extend(r.recs);
        spans.absorb(r.spans);
        boundary = boundary.or(r.boundary);
        timer_slack_ns = timer_slack_ns.max(r.timer_slack_ns);
        clients.push(r.client);
    }
    let last = clients[0]
        .stats()
        .map_err(|e| format!("final stats: {e}"))?;
    drop(clients);
    handle.shutdown();
    Ok(DaemonRun {
        recs,
        spans,
        boundary: boundary.ok_or("no warm-up stats snapshot")?,
        last,
        cpu_marks,
        timer_slack_ns,
    })
}

/// The correctness gate on a drained daemon.
fn gate(w: &Workload, run: &DaemonRun) -> Result<(), String> {
    let s = &run.last;
    let sent = |k: Kind| run.recs.iter().filter(|r| r.kind == k).count() as u64;
    let mut errors = Vec::new();
    if s.active_sessions != 0 {
        errors.push(format!(
            "{} sessions still active after the drain",
            s.active_sessions
        ));
    }
    if let Err(e) = verify_stage_accounting(s) {
        errors.push(format!("stage accounting: {e}"));
    }
    let shard_sum: u64 = s.shard_active_sessions.iter().sum();
    if shard_sum != s.active_sessions || s.shard_misrouted_sessions != 0 || s.shards != w.shards {
        errors.push(format!(
            "shards: {} shards, actives {:?} vs {}, {} misrouted",
            s.shards, s.shard_active_sessions, s.active_sessions, s.shard_misrouted_sessions
        ));
    }
    if s.model_version != 1 + sent(Kind::Reload) {
        errors.push(format!(
            "model_version {} after {} reloads",
            s.model_version,
            sent(Kind::Reload)
        ));
    }
    if s.retrains_ok != 0 {
        errors.push(format!("{} retrains completed", s.retrains_ok));
    }
    if s.feedback_accepted != sent(Kind::Report) {
        errors.push(format!(
            "feedback_accepted {} != {} reports sent",
            s.feedback_accepted,
            sent(Kind::Report)
        ));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

/// On one shard, the daemon driven from one connection must choose the
/// in-process replay's server and predict bit-identical FPS for the first
/// [`ORACLE_ARRIVALS`] arrivals of the stream.
fn oracle(w: &Workload, stream: &Stream, artifact: &str) -> Result<usize, String> {
    if w.shards != 1 {
        return Ok(0);
    }
    let model = ModelHandle::load(artifact).map_err(|e| format!("load artifact: {e}"))?;
    let handle = daemon::start(daemon_config(w), model).map_err(|e| format!("start: {e}"))?;
    let mut client = Client::connect(handle.local_addr()).map_err(|e| e.to_string())?;
    let mut replay = Replay::new(artifact, stream, N_SERVERS, w.shards, false);
    let mut sessions = std::collections::HashMap::new();
    let mut checked = 0;
    let mut result = Ok(());
    for op in stream.merged() {
        match op {
            Op::Place { conn, idx } => {
                if checked == ORACLE_ARRIVALS {
                    break;
                }
                checked += 1;
                let (game, res) = stream.conns[conn][idx].placement;
                let got = client
                    .place(game, res)
                    .map_err(|e| format!("oracle place: {e}"))?;
                let want = replay
                    .place(conn, idx, (game, res), false)
                    .ok_or("replay rejected a place")?;
                if got.server != want.server || got.predicted_fps.to_bits() != want.fps.to_bits() {
                    result = Err(format!(
                        "arrival {checked}: daemon server {} fps {} vs replay server {} fps {}",
                        got.server, got.predicted_fps, want.server, want.fps
                    ));
                    break;
                }
                sessions.insert((conn, idx), got.session);
            }
            Op::Depart { conn, idx } => {
                if let Some(session) = sessions.remove(&(conn, idx)) {
                    client
                        .depart(session)
                        .map_err(|e| format!("oracle depart: {e}"))?;
                    replay.depart(conn, idx, false);
                }
            }
            Op::Reload { .. } => {}
        }
    }
    drop(client);
    handle.shutdown();
    result.map(|()| checked)
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Place latencies (µs) from the due time, for places due in `[from, to)`.
fn place_latencies_us(recs: &[Rec], from: u64, to: u64) -> Vec<f64> {
    recs.iter()
        .filter(|r| r.kind == Kind::Place && (from..to).contains(&r.due_ns))
        .map(|r| (r.done_ns - r.due_ns) as f64 / 1000.0)
        .collect()
}

/// End-to-end figures of the measured phase of one run.
struct EndToEnd {
    /// Place latency from the due time (µs): p50, p90, p99, max.
    p50: f64,
    p90: f64,
    p99: f64,
    max: f64,
    /// Place latency from the send time (µs), without the wait behind
    /// earlier requests on the same connection.
    rtt_p50: f64,
    rtt_p90: f64,
    samples: usize,
    /// Share of host CPU time stolen by other guests while measuring.
    steal_share: f64,
    cpu_us_per_req: f64,
    mean_pred_fps: f64,
    late_p99_us: f64,
    post_swap_p90_us: f64,
    reload_rtt_ms: f64,
}

fn end_to_end(run: &DaemonRun, warm_ns: u64, end_ns: u64) -> EndToEnd {
    let lat = place_latencies_us(&run.recs, warm_ns, end_ns);
    let measured: Vec<&Rec> = run
        .recs
        .iter()
        .filter(|r| r.kind == Kind::Place && r.phase == Phase::Measured)
        .collect();
    let late: Vec<f64> = measured
        .iter()
        .map(|r| r.send_ns.saturating_sub(r.due_ns) as f64 / 1000.0)
        .collect();
    let rtt: Vec<f64> = measured
        .iter()
        .map(|r| (r.done_ns - r.send_ns) as f64 / 1000.0)
        .collect();
    let fps: Vec<f64> = measured.iter().filter(|r| r.ok).map(|r| r.fps).collect();
    let reloads: Vec<&Rec> = run.recs.iter().filter(|r| r.kind == Kind::Reload).collect();
    let post: Vec<f64> = reloads
        .iter()
        .flat_map(|r| place_latencies_us(&run.recs, r.done_ns, r.done_ns + POST_SWAP_WINDOW_NS))
        .collect();
    let mut reload_ms: Vec<f64> = reloads
        .iter()
        .map(|r| (r.done_ns - r.send_ns) as f64 / 1e6)
        .collect();
    let [(from, cpu0, steal0), (to, cpu1, steal1)] = run.cpu_marks;
    let answered = run
        .recs
        .iter()
        .filter(|r| r.ok && (from..to).contains(&r.done_ns))
        .count();
    // /proc/stat counts steal in 1/100 s ticks, summed over CPUs.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let steal_share = (steal1 - steal0) as f64 / 100.0 / ((to - from) as f64 / 1e9 * cpus);
    EndToEnd {
        p50: percentile(&lat, 50.0),
        p90: percentile(&lat, 90.0),
        p99: percentile(&lat, 99.0),
        max: percentile(&lat, 100.0),
        rtt_p50: percentile(&rtt, 50.0),
        rtt_p90: percentile(&rtt, 90.0),
        samples: lat.len(),
        steal_share,
        cpu_us_per_req: (cpu1 - cpu0) as f64 / 1000.0 / answered.max(1) as f64,
        mean_pred_fps: fps.iter().sum::<f64>() / fps.len().max(1) as f64,
        late_p99_us: percentile(&late, 99.0),
        post_swap_p90_us: percentile(&post, 90.0),
        reload_rtt_ms: median(&mut reload_ms),
    }
}

/// Per-layer metrics of the measured phase, from the daemon's own `Stats`
/// (differenced across the warm-up boundary), the traced run, the replay
/// and the per-layer timings.
fn per_layer(
    run: &DaemonRun,
    e2e: &EndToEnd,
    traced_e2e: &EndToEnd,
    replay: &Replay,
    t: &layers::LayerTimes,
) -> Vec<Metric> {
    let (b, l) = (&run.boundary, &run.last);
    let d = |f: fn(&StatsSnapshot) -> u64| f(l).saturating_sub(f(b));
    let stage = |name: &str, s: &StatsSnapshot| {
        s.per_stage
            .get(name)
            .map(|st| (st.total_us, st.count))
            .unwrap_or((0, 0))
    };
    let stage_delta = |name: &str| {
        let (t1, c1) = stage(name, l);
        let (t0, c0) = stage(name, b);
        (t1 - t0, c1 - c0)
    };
    let handled = stage_delta("decode").1;
    let attributed_us: f64 = gaugur_serve::trace::REQUEST_STAGES
        .iter()
        .map(|s| stage_delta(s.name()).0 as f64)
        .sum::<f64>()
        / handled.max(1) as f64;
    let (wait_us, wait_n) = stage_delta("place_admit_wait");
    let admitted = d(|s| s.placements_admitted);
    let (hits, misses) = (d(|s| s.cache_hits), d(|s| s.cache_misses));
    let (shits, smisses) = (d(|s| s.score_hits), d(|s| s.score_misses));

    let c = &replay.counts;
    let mut place_total: Vec<f64> = c
        .place_total_ns
        .iter()
        .map(|&n| n as f64 / 1000.0)
        .collect();
    let replay_place_us = median(&mut place_total);
    let mean_ns = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    let cap = &replay.capture;
    let mut reload_inproc = c.reload_ms.clone();
    vec![
        ("wire.decode_ns", t.decode_ns, "ns"),
        ("wire.encode_ns", t.encode_ns, "ns"),
        (
            "wire.frame_bytes",
            ratio(cap.frame_bytes_total, cap.frame_requests),
            "bytes",
        ),
        ("net.loopback_rtt_us", t.loopback_rtt_us, "us"),
        ("daemon.attributed_us", attributed_us, "us"),
        (
            "daemon.unattributed_us",
            traced_e2e.rtt_p50 - replay_place_us - t.loopback_rtt_us,
            "us",
        ),
        (
            "memo.lookups_per_place",
            ratio(hits + misses, admitted),
            "count",
        ),
        ("memo.miss_share", ratio(misses, hits + misses), "ratio"),
        ("memo.hit_ns", t.memo_hit_ns, "ns"),
        ("ensemble.ns_per_query", t.ensemble_ns_per_query, "ns"),
        (
            "ensemble.queries_per_place",
            ratio(c.ensemble_queries, c.places),
            "count",
        ),
        (
            "scorer.candidates_per_place",
            ratio(c.candidates, c.places),
            "count",
        ),
        (
            "scorer.self_ns_per_candidate",
            ratio(c.scorer_ns - c.scorer_child_ns, c.candidates),
            "ns",
        ),
        (
            "score_cache.hit_share",
            ratio(shits, shits + smisses),
            "ratio",
        ),
        ("cluster.admit_ns", mean_ns(&c.admit_ns), "ns"),
        ("cluster.depart_ns", mean_ns(&c.depart_ns), "ns"),
        ("shard.admit_wait_us", ratio(wait_us, wait_n), "us"),
        (
            "shard.retries_per_place",
            ratio(d(|s| s.place_admit_retries), admitted),
            "count",
        ),
        ("feedback.ingest_ns", t.feedback_ingest_ns, "ns"),
        ("telemetry.record_ns", t.telemetry_record_ns, "ns"),
        ("reload.ms", e2e.reload_rtt_ms, "ms"),
        ("reload.inproc_ms", median(&mut reload_inproc), "ms"),
        ("swap.post_p90_us", e2e.post_swap_p90_us, "us"),
        (
            "swap.post_miss_share",
            ratio(c.post_swap_misses, c.post_swap_lookups),
            "ratio",
        ),
        ("gen.late_p99_us", e2e.late_p99_us, "us"),
        (
            "trace.overhead_share",
            traced_e2e.p50 / e2e.p50 - 1.0,
            "ratio",
        ),
    ]
}

fn phase_counts(recs: &[Rec]) -> [(u64, u64, u64); 3] {
    let mut out = [(0, 0, 0); 3];
    for r in recs {
        let p = &mut out[r.phase as usize];
        p.0 += 1;
        if r.ok {
            p.1 += 1;
        } else {
            p.2 += 1;
        }
    }
    out
}

fn run(args: &Args) -> Result<(), String> {
    let w = &args.workload;
    let out_dir: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{}", w.name, args.seed));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    // Training is set-up the daemon never pays for; it stays untimed.
    let ctx = ExperimentContext::small(MODEL_SEED);
    let model =
        GAugur::from_measurements(ctx.profiles.clone(), &ctx.train, GAugurConfig::default());
    let artifact_path = out_dir.join("model.json");
    model
        .save_json(&artifact_path)
        .map_err(|e| format!("save artifact: {e}"))?;
    let artifact_hash = fnv1a(&std::fs::read(&artifact_path).map_err(|e| e.to_string())?);
    let artifact = artifact_path
        .to_str()
        .ok_or("artifact path is not UTF-8")?
        .to_string();

    let (setup_s, setup_all) = measure_setup(w, &artifact_path)?;

    let warm_ns = WARMUP.as_nanos() as u64;
    let end_ns = warm_ns + args.seconds * 1_000_000_000;
    let stream = Stream::generate(w, args.seed, end_ns);

    let run = drive(w, &stream, &artifact, warm_ns, end_ns, false)?;
    gate(w, &run).map_err(|e| format!("correctness gate: {e}"))?;
    let oracle_checked =
        oracle(w, &stream, &artifact).map_err(|e| format!("correctness gate: oracle: {e}"))?;
    let e2e = end_to_end(&run, warm_ns, end_ns);

    let counts = phase_counts(&run.recs);
    for (name, (sent, ok, failed)) in PHASE_NAMES.iter().zip(counts) {
        println!("phase {name:<8} sent {sent:>7} succeeded {ok:>7} failed {failed:>4}");
    }
    let attempted: u64 = counts.iter().map(|c| c.0).sum();
    let failed: u64 = counts.iter().map(|c| c.2).sum();

    // The gated latency is the send-to-reply median. Due-time percentiles
    // and every p90 follow the shared host's CPU steal (through the
    // per-connection queue) more than the daemon, so they are reported
    // beside it, ungated.
    let e2e_metrics: Vec<Metric> = vec![
        ("place_rtt_p50_us", e2e.rtt_p50, "us"),
        ("cpu_us_per_req", e2e.cpu_us_per_req, "us"),
        ("mean_pred_fps", e2e.mean_pred_fps, "fps"),
        ("setup_s", setup_s, "s"),
    ];
    // Also part of the per-layer metrics, so `--trace 1` results carry them.
    let latency: Vec<Metric> = vec![
        ("place_p50_us", e2e.p50, "us"),
        ("place_p90_us", e2e.p90, "us"),
        ("place_rtt_p90_us", e2e.rtt_p90, "us"),
    ];
    let ungated: Vec<Metric> = vec![
        ("place_p99_us", e2e.p99, "us"),
        ("place_max_us", e2e.max, "us"),
        ("place_samples", e2e.samples as f64, "count"),
        ("fail_share", ratio(failed, attempted), "ratio"),
        ("host_steal_share", e2e.steal_share, "ratio"),
    ];

    let mut layer_metrics = Vec::new();
    if args.trace {
        let traced = drive(w, &stream, &artifact, warm_ns, end_ns, true)?;
        gate(w, &traced).map_err(|e| format!("correctness gate (traced run): {e}"))?;
        let traced_e2e = end_to_end(&traced, warm_ns, end_ns);
        let mut replay = Replay::new(&artifact, &stream, N_SERVERS, w.shards, true);
        replay.run(&stream, w.reports, warm_ns);
        if replay.model_version() != 1 + stream.reloads.len() as u64 {
            return Err("correctness gate: replay model version".into());
        }
        let times = layers::time_layers(&replay.capture, &replay.model(), w.shards);
        layer_metrics = per_layer(&run, &e2e, &traced_e2e, &replay, &times);
        traced
            .spans
            .write_tsv(&out_dir.join("client_spans.tsv"))
            .map_err(|e| format!("write spans: {e}"))?;
        if let Some(s) = &replay.spans {
            s.write_tsv(&out_dir.join("replay_spans.tsv"))
                .map_err(|e| format!("write spans: {e}"))?;
        }
        println!(
            "traced run: place p50 {:.1} us p90 {:.1} us; replay score-cache hits {}/{}",
            traced_e2e.p50,
            traced_e2e.p90,
            replay.counts.score_hits,
            replay.counts.score_hits + replay.counts.score_misses
        );
    }

    for (n, v, u) in e2e_metrics
        .iter()
        .chain(&latency)
        .chain(&ungated)
        .chain(&layer_metrics)
    {
        println!("{n:<30} {v:>14.3} {u}");
    }

    let cfg = daemon_config(w);
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git_dir = root.join(".git");
    let git_rev = command_output(
        "git",
        &[
            "--git-dir",
            git_dir.to_str().unwrap_or(".git"),
            "rev-parse",
            "HEAD",
        ],
    );
    let mut report = String::new();
    let _ = write!(
        report,
        "{{\"benchmark\":\"perfbench\",\"workload\":{},\"why\":{},\"seed\":{},\"seconds\":{},\"trace\":{},",
        json_str(w.name),
        json_str(w.why),
        args.seed,
        args.seconds,
        args.trace
    );
    let _ = write!(
        report,
        "\"env\":{{\"nproc\":{},\"profile\":{},\"git_rev\":{},\"rustc\":{},\"timer_slack_ns\":{},\
         \"model_seed\":{MODEL_SEED},\"artifact_fnv1a\":\"{artifact_hash:016x}\",\
         \"daemon\":{{\"n_servers\":{},\"workers\":{},\"shards\":{},\"queue_capacity\":{},\"memo_capacity\":{},\"qos\":{}}},\
         \"traffic\":{{\"rate_per_s\":{},\"place_conns\":{},\"mean_life\":{},\"reports\":{},\"reload_every_ms\":{},\"warmup_s\":{}}}}},",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(&git_rev),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        run.timer_slack_ns.map_or("null".into(), |s| s.to_string()),
        cfg.n_servers,
        cfg.workers,
        cfg.shards,
        cfg.queue_capacity,
        cfg.memo_capacity,
        cfg.qos,
        w.rate,
        w.place_conns,
        w.mean_life,
        w.reports,
        w.reload_every_ms.map_or("null".into(), |m| m.to_string()),
        WARMUP.as_secs(),
    );
    let phases: Vec<String> = PHASE_NAMES
        .iter()
        .zip(counts)
        .map(|(n, (s, o, f))| format!("\"{n}\":{{\"sent\":{s},\"succeeded\":{o},\"failed\":{f}}}"))
        .collect();
    let list = |v: &[f64]| v.iter().map(|x| json_num(*x)).collect::<Vec<_>>().join(",");
    let _ = write!(
        report,
        "\"phases\":{{{}}},\"setup_s_samples\":[{}],\"gate\":{{\"passed\":true,\"oracle_arrivals\":{oracle_checked}}},\
         \"end_to_end\":{},\"ungated\":{},\"per_layer\":{},\"claim\":null}}",
        phases.join(","),
        list(&setup_all),
        metrics_json(&e2e_metrics),
        metrics_json(&[latency.clone(), ungated].concat()),
        metrics_json(&layer_metrics),
    );
    std::fs::write(out_dir.join("report.json"), format!("{report}\n"))
        .map_err(|e| format!("write report: {e}"))?;
    // The artifact is rebuilt every run; only its hash is kept.
    let _ = std::fs::remove_file(&artifact_path);
    println!("{report}");

    let metrics = if args.trace {
        [latency, layer_metrics].concat()
    } else {
        e2e_metrics
    };
    println!(
        "{{\"correct\":true,\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(&metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <place_hot|place_mixed|swap_feedback> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
