//! In-process replay of a stream through the program's public layer
//! functions, in the order the daemon calls them for a `Place`:
//! `decode_payload`, `select_server_incremental_with` (per shard, ranked
//! with `rank_shard_selections` when there are several), the memoized
//! prediction of the admitted session, `ClusterState::admit` and
//! `write_frame`. Every call is wrapped in a span from outside; the scorer's
//! `FpsModel` is a timing wrapper around `MemoizedFps`, so memo and
//! ensemble time nests under the scorer span.
//!
//! The same replay, without spans, is the correctness oracle: on one shard
//! it must choose the daemon's server and predict bit-identical FPS.

use crate::spans::{Spans, ROOT};
use crate::stream::{Op, Stream};
use gaugur_core::Placement;
use gaugur_sched::{
    eligible_servers, rank_shard_selections, select_server_incremental_with, ColocationBatch,
    FpsModel, PlacementScratch, PredictScratch, ScoreCache, Selection,
};
use gaugur_serve::feedback::OutcomeRecord;
use gaugur_serve::model::LoadedModel;
use gaugur_serve::wire::{decode_payload, write_frame};
use gaugur_serve::{
    ClusterState, MemoizedFps, ModelHandle, OutcomeReport, PredictionMemo, Request, RequestTrace,
    Response, Stage,
};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Places counted after each model version bump for the post-swap miss
/// share.
pub const POST_SWAP_PLACES: usize = 500;

/// Spans kept for the span file: those of measured requests, up to this
/// many, which bounds the file to tens of MB on the busiest workload.
const SPAN_CAP: usize = 250_000;

/// Upper bound on captured inputs of each kind; enough for stable per-call
/// timings without holding a whole run in memory.
const CAPTURE_CAP: usize = 4096;

/// One `predict_colocation_sums` call seen by the timing wrapper.
struct FpsCall {
    start_ns: u64,
    end_ns: u64,
    colocations: Vec<Vec<Placement>>,
    misses: u64,
    /// Ensemble queries the call's misses asked for: `(target, others)`.
    miss_queries: Vec<(Placement, Vec<Placement>)>,
}

/// `FpsModel` wrapper that times every batched call into the memoized model
/// and keeps its inputs.
struct TimedFps<'a> {
    inner: MemoizedFps<'a>,
    epoch: Instant,
    calls: Mutex<Vec<FpsCall>>,
}

impl FpsModel for TimedFps<'_> {
    fn predict_member_fps(&self, members: &[Placement], idx: usize) -> f64 {
        self.inner.predict_member_fps(members, idx)
    }

    fn predict_colocation_sum(&self, members: &[Placement]) -> f64 {
        self.inner.predict_colocation_sum(members)
    }

    fn predict_colocation_sums(
        &self,
        batch: &ColocationBatch,
        scratch: &mut PredictScratch,
        out: &mut Vec<f64>,
    ) {
        let (_, misses_before) = self.inner.memo.counts();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.inner.predict_colocation_sums(batch, scratch, out);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let misses = self.inner.memo.counts().1 - misses_before;
        // On a miss the memo leaves the ensemble queries it ran in the
        // caller's scratch; with no misses it ran none.
        let mut miss_queries = Vec::new();
        if misses > 0 {
            let mut others = Vec::new();
            for q in 0..scratch.queries.len() {
                scratch.queries.copy_others_into(q, &mut others);
                miss_queries.push((scratch.queries.target(q), others.clone()));
            }
        }
        let colocations = (0..batch.len())
            .map(|i| batch.members(i).to_vec())
            .collect();
        self.calls
            .lock()
            .expect("replay is single-threaded")
            .push(FpsCall {
                start_ns,
                end_ns,
                colocations,
                misses,
                miss_queries,
            });
    }

    fn model_name(&self) -> &'static str {
        "timed(GAugur, memoized)"
    }
}

/// Inputs captured from the replayed stream for the per-layer timings.
#[derive(Default)]
pub struct Capture {
    pub request_frames: Vec<Vec<u8>>,
    pub replies: Vec<Response>,
    pub frame_bytes_total: u64,
    pub frame_requests: u64,
    /// Scorer batches the memo answered without a miss.
    pub hit_batches: Vec<Vec<Vec<Placement>>>,
    /// Ensemble query sets of scorer batches that missed.
    pub miss_batches: Vec<Vec<(Placement, Vec<Placement>)>>,
    pub reports: Vec<(OutcomeRecord, f64)>,
    /// Per replayed request: kind, its stage mix (µs, as the daemon floors
    /// it) and whether it is a placement.
    pub traces: Vec<(&'static str, RequestTrace, bool)>,
}

/// Counters of the replay, for the measured part of the stream.
#[derive(Default, Debug, Clone)]
pub struct Counts {
    pub places: u64,
    pub candidates: u64,
    pub scorer_ns: u64,
    pub scorer_child_ns: u64,
    pub ensemble_queries: u64,
    pub admit_ns: Vec<u64>,
    pub depart_ns: Vec<u64>,
    /// Decode + score + predict + admit + encode of each place (ns).
    pub place_total_ns: Vec<u64>,
    pub reload_ms: Vec<f64>,
    pub post_swap_lookups: u64,
    pub post_swap_misses: u64,
    pub score_hits: u64,
    pub score_misses: u64,
}

/// The daemon's shard layout: contiguous ranges, the first
/// `n % shards` one server larger; shard `s` mints ids `s + 1 + k·shards`.
fn shard_layout(n_servers: usize, shards: usize) -> Vec<(usize, usize)> {
    let n = shards.max(1).min(n_servers.max(1));
    let (size, rem) = (n_servers / n, n_servers % n);
    let mut base = 0;
    (0..n)
        .map(|s| {
            let len = size + usize::from(s < rem);
            base += len;
            (base - len, len)
        })
        .collect()
}

struct Shard {
    cluster: ClusterState,
    scores: ScoreCache,
    base: usize,
}

/// The result of one replayed placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placed {
    pub session: u64,
    pub server: usize,
    pub fps: f64,
}

pub struct Replay {
    handle: ModelHandle,
    artifact: String,
    memo: PredictionMemo,
    qos: f64,
    shards: Vec<Shard>,
    scratch: PlacementScratch,
    candidates: Vec<Option<Selection>>,
    order: Vec<usize>,
    sessions: Vec<Vec<Option<(u64, f64, u64)>>>,
    pub spans: Option<Spans>,
    /// Whether the request being replayed records spans.
    recording: bool,
    pub capture: Capture,
    pub counts: Counts,
    post_swap_left: usize,
    epoch: Instant,
}

fn ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn frame<T: serde::Serialize>(msg: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, msg).expect("writing to a Vec cannot fail");
    buf
}

impl Replay {
    /// A fresh replay of a daemon with `n_servers`, `shards` and the
    /// default memo, serving the model at `artifact`.
    pub fn new(
        artifact: &str,
        stream: &Stream,
        n_servers: usize,
        shards: usize,
        traced: bool,
    ) -> Replay {
        let defaults = gaugur_serve::DaemonConfig::default();
        let layout = shard_layout(n_servers, shards);
        let n = layout.len() as u64;
        let epoch = Instant::now();
        Replay {
            handle: ModelHandle::load(artifact).expect("artifact loads"),
            artifact: artifact.to_string(),
            memo: PredictionMemo::new(defaults.memo_capacity),
            qos: defaults.qos,
            shards: layout
                .iter()
                .enumerate()
                .map(|(s, &(base, len))| Shard {
                    cluster: ClusterState::new_sharded(len, s as u64, n),
                    scores: ScoreCache::new(len),
                    base,
                })
                .collect(),
            scratch: PlacementScratch::new(),
            candidates: Vec::new(),
            order: Vec::new(),
            sessions: stream.conns.iter().map(|a| vec![None; a.len()]).collect(),
            spans: traced.then(|| Spans::new(epoch)),
            recording: false,
            capture: Capture::default(),
            counts: Counts::default(),
            post_swap_left: 0,
            epoch,
        }
    }

    fn span(&mut self, name: &'static str, start: u64, end: u64, parent: u32, req: u64) -> u32 {
        match &mut self.spans {
            Some(s) if self.recording => s.push(name, start, end, parent, req),
            _ => 0,
        }
    }

    /// Decide, at a request boundary, whether the next request records spans.
    fn start_request(&mut self, measured: bool) {
        self.recording = measured
            && self
                .spans
                .as_ref()
                .is_some_and(|s| s.spans.len() < SPAN_CAP);
    }

    fn close(&mut self, id: u32, end: u64) {
        if let Some(s) = &mut self.spans {
            if id != 0 {
                s.spans[id as usize - 1].end_ns = end;
            }
        }
    }

    fn capture_frames(&mut self, req: &[u8], reply: &Response, reply_len: usize) {
        self.capture.frame_bytes_total += (req.len() + reply_len) as u64;
        self.capture.frame_requests += 1;
        if self.capture.request_frames.len() < CAPTURE_CAP {
            self.capture.request_frames.push(req[4..].to_vec());
            self.capture.replies.push(reply.clone());
        }
    }

    /// Run the scorer on one shard with spans for it and its model calls,
    /// adding its time, its model calls' time and its inputs to the counts.
    fn score(
        &mut self,
        s: usize,
        placement: Placement,
        model: &LoadedModel,
        parent: u32,
        req: u64,
        measured: bool,
    ) -> Option<Selection> {
        let timed = TimedFps {
            inner: MemoizedFps {
                model,
                memo: &self.memo,
                qos: self.qos,
            },
            epoch: self.epoch,
            calls: Mutex::new(Vec::new()),
        };
        let shard = &mut self.shards[s];
        let candidates = eligible_servers(&shard.cluster, placement.0).len() as u64;
        let start = ns(self.epoch);
        let sel = select_server_incremental_with(
            &shard.cluster,
            placement,
            &timed,
            model.version,
            &mut shard.scores,
            &mut self.scratch,
        );
        let end = ns(self.epoch);
        let calls = timed.calls.into_inner().expect("replay is single-threaded");
        let id = self.span("sched.select_server", start, end, parent, req);
        let mut child_ns = 0;
        for call in calls {
            child_ns += call.end_ns - call.start_ns;
            self.span("memo.colocation_sums", call.start_ns, call.end_ns, id, req);
            if self.post_swap_left > 0 {
                self.counts.post_swap_lookups += call.colocations.len() as u64;
                self.counts.post_swap_misses += call.misses;
            }
            if !measured {
                continue;
            }
            self.counts.ensemble_queries += call.miss_queries.len() as u64;
            if call.misses == 0 {
                if self.capture.hit_batches.len() < CAPTURE_CAP {
                    self.capture.hit_batches.push(call.colocations);
                }
            } else if self.capture.miss_batches.len() < CAPTURE_CAP {
                self.capture.miss_batches.push(call.miss_queries);
            }
        }
        if measured {
            self.counts.candidates += candidates;
            self.counts.scorer_ns += end - start;
            self.counts.scorer_child_ns += child_ns;
        }
        sel
    }

    /// Replay one placement the way the daemon handles `Place`.
    pub fn place(
        &mut self,
        conn: usize,
        idx: usize,
        placement: Placement,
        measured: bool,
    ) -> Option<Placed> {
        let req_id = ((conn as u64) << 40) | idx as u64;
        let model = self.handle.get();
        let (game, resolution) = placement;
        let req_frame = frame(&Request::Place { game, resolution });
        self.start_request(measured);
        let top = self.span("replay.place", ns(self.epoch), 0, ROOT, req_id);

        let t = ns(self.epoch);
        let decoded: Request = decode_payload(&req_frame[4..]).expect("captured frame decodes");
        let decode_ns = ns(self.epoch) - t;
        self.span("wire.decode_payload", t, t + decode_ns, top, req_id);
        debug_assert_eq!(decoded, Request::Place { game, resolution });

        let score_start = ns(self.epoch);
        let winner = if self.shards.len() == 1 {
            self.score(0, placement, &model, top, req_id, measured)
                .map(|sel| (0, sel))
        } else {
            // Phase 1: score every shard, dropping the speculative cache
            // entry as the daemon does before it releases the shard lock.
            let mut candidates = std::mem::take(&mut self.candidates);
            candidates.clear();
            for s in 0..self.shards.len() {
                let sel = self.score(s, placement, &model, top, req_id, measured);
                if let Some(sel) = &sel {
                    self.shards[s].scores.invalidate(sel.server);
                }
                candidates.push(sel);
            }
            let t = ns(self.epoch);
            rank_shard_selections(&candidates, &mut self.order);
            self.span(
                "sched.rank_shard_selections",
                t,
                ns(self.epoch),
                top,
                req_id,
            );
            self.candidates = candidates;
            // Phase 2: nothing moved in between, so the winner's re-score
            // reproduces its phase-1 selection and restores its cache entry.
            match self.order.first().copied() {
                Some(s) => self
                    .score(s, placement, &model, top, req_id, measured)
                    .map(|sel| (s, sel)),
                None => None,
            }
        };
        let score_ns = ns(self.epoch) - score_start;
        let (s, sel) = winner?;

        let t = ns(self.epoch);
        let shard = &self.shards[s];
        let (prediction, cached) = self.memo.predict_with(
            &model,
            self.qos,
            placement,
            shard.cluster.members(sel.server),
            &mut self.scratch.predict,
        );
        let predict_ns = ns(self.epoch) - t;
        let co_runners = !shard.cluster.members(sel.server).is_empty();
        self.span("memo.predict_with", t, t + predict_ns, top, req_id);
        if self.post_swap_left > 0 {
            self.counts.post_swap_lookups += 1;
            self.counts.post_swap_misses += u64::from(!cached);
            self.post_swap_left -= 1;
        }

        let t = ns(self.epoch);
        let session = self.shards[s].cluster.admit(sel.server, placement);
        let admit_ns = ns(self.epoch) - t;
        self.span("cluster.admit", t, t + admit_ns, top, req_id);
        let server = self.shards[s].base + sel.server;

        let reply = Response::Placed {
            session,
            server,
            predicted_fps: prediction.fps,
            model_version: model.version,
        };
        let t = ns(self.epoch);
        let reply_frame = frame(&reply);
        let encode_ns = ns(self.epoch) - t;
        self.span("wire.write_frame", t, t + encode_ns, top, req_id);
        self.close(top, ns(self.epoch));

        self.sessions[conn][idx] = Some((session, prediction.fps, model.version));
        if measured {
            self.counts.places += 1;
            self.counts.ensemble_queries += u64::from(!cached && co_runners);
            self.counts.admit_ns.push(admit_ns);
            self.counts
                .place_total_ns
                .push(decode_ns + score_ns + predict_ns + admit_ns + encode_ns);
            self.capture_frames(&req_frame, &reply, reply_frame.len());
            let mut trace = RequestTrace::new();
            trace.add(Stage::Decode, decode_ns / 1000);
            trace.add(Stage::Place, score_ns / 1000);
            trace.add(Stage::Predict, predict_ns / 1000);
            trace.add(Stage::Encode, encode_ns / 1000);
            if self.capture.traces.len() < CAPTURE_CAP {
                self.capture.traces.push(("place", trace, true));
            }
        }
        Some(Placed {
            session,
            server,
            fps: prediction.fps,
        })
    }

    /// Capture the outcome report the generator sends after placing
    /// arrival `idx`: the co-runners are the server's occupancy right now.
    pub fn report(&mut self, conn: usize, idx: usize, noise: f64, measured: bool) {
        let Some((session, predicted_fps, version)) = self.sessions[conn][idx] else {
            return;
        };
        let shard = &self.shards[(session as usize - 1) % self.shards.len()];
        let placed = shard.cluster.lookup(session).expect("live session");
        let others = shard
            .cluster
            .members(placed.server)
            .iter()
            .filter(|&&(g, _)| g != placed.placement.0)
            .copied()
            .collect();
        let observed_fps = predicted_fps * (1.0 + noise);
        if measured {
            let report = OutcomeReport {
                session,
                observed_fps,
                predicted_fps,
                model_version: version,
            };
            let req = frame(&Request::ReportOutcome { report });
            let reply = Response::OutcomeRecorded {
                accepted: 1,
                stale: 0,
                dropped: 0,
            };
            let reply_len = frame(&reply).len();
            self.capture_frames(&req, &reply, reply_len);
            if self.capture.reports.len() < CAPTURE_CAP {
                self.capture.reports.push((
                    OutcomeRecord {
                        target: placed.placement,
                        others,
                        observed_fps,
                    },
                    predicted_fps,
                ));
            }
        }
    }

    /// Replay the departure of arrival `idx`'s session.
    pub fn depart(&mut self, conn: usize, idx: usize, measured: bool) {
        let Some((session, _, _)) = self.sessions[conn][idx].take() else {
            return;
        };
        let req_id = ((conn as u64) << 40) | idx as u64 | (1 << 39);
        let req_frame = frame(&Request::Depart { session });
        self.start_request(measured);
        let top = self.span("replay.depart", ns(self.epoch), 0, ROOT, req_id);
        let t = ns(self.epoch);
        let _: Request = decode_payload(&req_frame[4..]).expect("captured frame decodes");
        let decode_ns = ns(self.epoch) - t;
        self.span("wire.decode_payload", t, t + decode_ns, top, req_id);

        let s = (session as usize - 1) % self.shards.len();
        let t = ns(self.epoch);
        let shard = &mut self.shards[s];
        let placed = shard.cluster.depart(session).expect("live session departs");
        shard.scores.invalidate(placed.server);
        let depart_ns = ns(self.epoch) - t;
        let server = shard.base + placed.server;
        self.span("cluster.depart", t, t + depart_ns, top, req_id);
        let reply = Response::Departed { session, server };
        let t = ns(self.epoch);
        let reply_frame = frame(&reply);
        let encode_ns = ns(self.epoch) - t;
        self.span("wire.write_frame", t, t + encode_ns, top, req_id);
        self.close(top, ns(self.epoch));
        if measured {
            self.counts.depart_ns.push(depart_ns);
            self.capture_frames(&req_frame, &reply, reply_frame.len());
            let mut trace = RequestTrace::new();
            trace.add(Stage::Decode, decode_ns / 1000);
            trace.add(Stage::Place, depart_ns / 1000);
            trace.add(Stage::Encode, encode_ns / 1000);
            if self.capture.traces.len() < CAPTURE_CAP {
                self.capture.traces.push(("depart", trace, false));
            }
        }
    }

    /// Reload the artifact, as the daemon's `ReloadModel` does.
    pub fn reload(&mut self, idx: usize) {
        let t = ns(self.epoch);
        self.handle
            .reload(Some(Path::new(&self.artifact)))
            .expect("artifact reloads");
        let end = ns(self.epoch);
        self.start_request(true);
        self.span("model.reload", t, end, ROOT, (1 << 62) | idx as u64);
        self.counts.reload_ms.push((end - t) as f64 / 1e6);
        self.post_swap_left = POST_SWAP_PLACES;
    }

    pub fn model_version(&self) -> u64 {
        self.handle.version()
    }

    /// Replay the whole stream in merged order; ops due before `warm_ns`
    /// update state but are not counted.
    pub fn run(&mut self, stream: &Stream, reports: bool, warm_ns: u64) {
        for op in stream.merged() {
            match op {
                Op::Place { conn, idx } => {
                    let a = &stream.conns[conn][idx];
                    let measured = a.due_ns >= warm_ns;
                    if self.place(conn, idx, a.placement, measured).is_some() && reports {
                        self.report(conn, idx, a.noise, measured);
                    }
                }
                Op::Depart { conn, idx } => {
                    let measured = stream.conns[conn][idx].due_ns >= warm_ns;
                    self.depart(conn, idx, measured);
                }
                Op::Reload { idx } => self.reload(idx),
            }
        }
        let (h, m) = self.shards.iter().fold((0, 0), |(h, m), s| {
            let (sh, sm) = s.scores.counts();
            (h + sh, m + sm)
        });
        self.counts.score_hits = h;
        self.counts.score_misses = m;
    }

    /// The model the replay ended with, for per-layer timings.
    pub fn model(&self) -> std::sync::Arc<LoadedModel> {
        self.handle.get()
    }
}

#[cfg(test)]
mod tests {
    use super::shard_layout;

    #[test]
    fn shard_layout_matches_the_daemon_partition() {
        assert_eq!(shard_layout(64, 2), vec![(0, 32), (32, 32)]);
        assert_eq!(shard_layout(10, 3), vec![(0, 4), (4, 3), (7, 3)]);
        assert_eq!(shard_layout(64, 1), vec![(0, 64)]);
    }
}
