//! Per-layer timings of public functions on inputs captured from the
//! workload's own replayed stream, in ns per call or per item.

use crate::replay::Capture;
use gaugur_core::{DegradationBatch, FeatureBuffer, InterferencePredictor};
use gaugur_sched::{ColocationBatch, PredictScratch};
use gaugur_serve::model::LoadedModel;
use gaugur_serve::wire::{decode_payload, read_frame_bytes, write_frame};
use gaugur_serve::{
    Feedback, FeedbackConfig, MonotonicClock, PredictionMemo, Request, SlowMeta, TraceCollector,
    WindowedCollector,
};
use std::hint::black_box;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches used for the memo and ensemble timings: few enough that every
/// distinct colocation fits in a fresh memo.
const TIMED_BATCHES: usize = 256;

pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median ns per item over repeated passes of `pass`, which handles
/// `items` items: one untimed warm pass, then passes until at least five
/// ran and 100 ms went by.
fn per_item_ns(items: usize, mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    pass();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5
        || (start.elapsed() < Duration::from_millis(100) && samples.len() < 1000)
    {
        let t = Instant::now();
        pass();
        samples.push(t.elapsed().as_nanos() as f64 / items as f64);
    }
    median(&mut samples)
}

/// Every `len / k`-th element, at most `k` of them.
fn spread<T>(v: &[T], k: usize) -> impl Iterator<Item = &T> {
    let step = v.len().div_ceil(k).max(1);
    v.iter().step_by(step)
}

#[derive(Debug, Default)]
pub struct LayerTimes {
    pub decode_ns: f64,
    pub encode_ns: f64,
    pub memo_hit_ns: f64,
    pub ensemble_ns_per_query: f64,
    pub feedback_ingest_ns: f64,
    pub telemetry_record_ns: f64,
    pub loopback_rtt_us: f64,
}

pub fn time_layers(cap: &Capture, model: &LoadedModel, shards: usize) -> LayerTimes {
    let decode_ns = per_item_ns(cap.request_frames.len(), || {
        for f in &cap.request_frames {
            black_box(decode_payload::<Request>(black_box(f)).expect("captured frame decodes"));
        }
    });
    let mut buf = Vec::with_capacity(512);
    let encode_ns = per_item_ns(cap.replies.len(), || {
        for r in &cap.replies {
            buf.clear();
            write_frame(&mut buf, black_box(r)).expect("writing to a Vec cannot fail");
            black_box(&buf);
        }
    });

    let hit: Vec<ColocationBatch> = spread(&cap.hit_batches, TIMED_BATCHES)
        .map(|colocations| {
            let mut b = ColocationBatch::new();
            for m in colocations {
                b.push(m);
            }
            b
        })
        .collect();
    let memo = PredictionMemo::new(gaugur_serve::DaemonConfig::default().memo_capacity);
    let mut scratch = PredictScratch::new();
    let mut out = Vec::new();
    let items = hit.iter().map(ColocationBatch::len).sum();
    let memo_hit_ns = per_item_ns(items, || {
        for b in &hit {
            memo.colocation_sums(model, b, &mut scratch, &mut out);
            black_box(&out);
        }
    });

    let miss: Vec<DegradationBatch> = spread(&cap.miss_batches, TIMED_BATCHES)
        .map(|queries| {
            let mut b = DegradationBatch::new();
            for (target, others) in queries {
                b.push(*target, others);
            }
            b
        })
        .collect();
    let mut features = FeatureBuffer::default();
    let mut values = Vec::new();
    let items = miss.iter().map(DegradationBatch::len).sum();
    let ensemble_ns_per_query = per_item_ns(items, || {
        for b in &miss {
            model
                .gaugur
                .predict_degradation_batch(b, &mut features, &mut values);
            black_box(&values);
        }
    });

    let feedback = Feedback::new(FeedbackConfig::default());
    let mut samples = Vec::new();
    if !cap.reports.is_empty() {
        for _ in 0..7 {
            let reports = cap.reports.clone();
            let t = Instant::now();
            for (record, predicted) in reports {
                black_box(feedback.ingest(record, predicted, false));
            }
            samples.push(t.elapsed().as_nanos() as f64 / cap.reports.len() as f64);
        }
    }
    let feedback_ingest_ns = median(&mut samples);

    let traces = TraceCollector::new(2, 16);
    let windowed = WindowedCollector::new(2, shards, Arc::new(MonotonicClock::new()));
    let telemetry_record_ns = per_item_ns(cap.traces.len(), || {
        for (i, (kind, trace, is_place)) in cap.traces.iter().enumerate() {
            traces.record_request(i % 2, kind, trace, SlowMeta::default());
            windowed.record_request(i % 2, true, *is_place, trace);
        }
    });

    LayerTimes {
        decode_ns,
        encode_ns,
        memo_hit_ns,
        ensemble_ns_per_query,
        feedback_ingest_ns,
        telemetry_record_ns,
        loopback_rtt_us: loopback_rtt_us(cap),
    }
}

/// Median round trip of one captured place request out and one captured
/// reply back through a loopback TCP echo, written the way the client and
/// daemon write them (length, then payload).
fn loopback_rtt_us(cap: &Capture) -> f64 {
    const WARM: usize = 200;
    const ROUNDS: usize = 3000;
    let (Some(req), Some(reply)) = (cap.request_frames.first(), cap.replies.first()) else {
        return 0.0;
    };
    let mut reply_frame = Vec::new();
    write_frame(&mut reply_frame, reply).expect("writing to a Vec cannot fail");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("loopback address");
    let (len_bytes, payload) = reply_frame.split_at(4);
    let mut rtts = Vec::with_capacity(ROUNDS);
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            let (mut sock, _) = listener.accept().expect("echo accepts");
            sock.set_nodelay(true).expect("nodelay");
            while read_frame_bytes(&mut sock).is_ok() {
                if sock
                    .write_all(len_bytes)
                    .and_then(|()| sock.write_all(payload))
                    .is_err()
                {
                    break;
                }
            }
        });
        let mut c = TcpStream::connect(addr).expect("connect to echo");
        c.set_nodelay(true).expect("nodelay");
        let len = (req.len() as u32).to_be_bytes();
        for i in 0..WARM + ROUNDS {
            let t = Instant::now();
            c.write_all(&len)
                .and_then(|()| c.write_all(req))
                .expect("echo write");
            read_frame_bytes(&mut c).expect("echo reply");
            if i >= WARM {
                rtts.push(t.elapsed().as_nanos() as f64 / 1000.0);
            }
        }
        drop(c);
        echo.join().expect("echo thread");
    });
    median(&mut rtts)
}
