//! Daemon observability: lock-free request counters and fixed-bucket
//! latency histograms, snapshotted on demand (the `Stats` request) and
//! printed when the daemon shuts down.
//!
//! Everything here is updated on the request hot path, so the collection
//! side is plain relaxed atomics — no locks, no allocation. Snapshots are
//! not atomic across counters (a concurrent request may straddle one), which
//! is fine for monitoring; tests that need exact reconciliation quiesce the
//! daemon first.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::slo::{Clock, MonotonicClock, SloReport};
use crate::trace::{SlowRequest, StageStats};
use crate::wire::REQUEST_KINDS;

/// Upper bounds (µs) of the latency histogram buckets; the final implicit
/// bucket is overflow. Spans 1 µs service times to multi-second stalls.
pub const LATENCY_BUCKETS_US: [u64; 12] = [
    5, 10, 25, 50, 100, 250, 500, 1_000, 5_000, 25_000, 100_000, 1_000_000,
];

/// Number of histogram counters (`LATENCY_BUCKETS_US` plus overflow).
pub const N_BUCKETS: usize = LATENCY_BUCKETS_US.len() + 1;

/// Index into an [`N_BUCKETS`]-wide histogram for a duration in µs: the
/// first bucket whose upper bound contains it, or the overflow bucket.
pub fn bucket_index(us: u64) -> usize {
    LATENCY_BUCKETS_US
        .iter()
        .position(|&b| us <= b)
        .unwrap_or(N_BUCKETS - 1)
}

/// Approximate percentile (0..=100) over a fixed-bucket histogram laid out
/// like [`LATENCY_BUCKETS_US`] (+ overflow): the upper bound of the bucket
/// holding the p-th sample, or `max_us` when the rank falls in the
/// open-ended overflow bucket (reporting `u64::MAX` there used to poison
/// downstream aggregation). Returns 0 with no samples. Shared by the per-op
/// and per-stage snapshot types so their semantics cannot drift apart.
pub fn histogram_percentile_us(buckets: &[u64], max_us: u64, p: f64) -> u64 {
    let n: u64 = buckets.iter().sum();
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return LATENCY_BUCKETS_US.get(i).copied().unwrap_or(max_us);
        }
    }
    max_us
}

/// Per-request-kind counters in snapshot (wire) form.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RequestStats {
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Histogram counts per bucket of [`LATENCY_BUCKETS_US`] (+ overflow).
    pub latency_us: Vec<u64>,
    /// Largest observed latency (µs); bounds percentile reports when the
    /// rank falls in the open-ended overflow bucket.
    #[serde(default)]
    pub max_us: u64,
    /// Sum of all observed latencies (µs); feeds the Prometheus histogram
    /// `_sum` series.
    #[serde(default)]
    pub sum_us: u64,
}

impl RequestStats {
    /// Total requests of this kind.
    pub fn total(&self) -> u64 {
        self.ok + self.errors
    }

    /// Approximate latency percentile (0..=100) from the histogram: the
    /// upper bound of the bucket holding the p-th sample, or the observed
    /// maximum when the rank falls in the open-ended overflow bucket (the
    /// overflow bucket has no upper bound of its own; reporting `u64::MAX`
    /// there used to poison downstream percentile aggregation). Returns 0
    /// with no samples.
    pub fn percentile_us(&self, p: f64) -> u64 {
        histogram_percentile_us(&self.latency_us, self.max_us, p)
    }
}

/// Full daemon state snapshot, as served to `Stats` requests.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Version of the currently loaded model.
    pub model_version: u64,
    /// Sessions currently placed on the fleet.
    pub active_sessions: u64,
    /// Fleet size the daemon was configured with.
    pub servers: usize,
    /// Connections the acceptor has admitted.
    pub connections_accepted: u64,
    /// Connections fully disposed of — served to EOF/error, or shed with a
    /// terminal reply. After a quiesced shutdown this reconciles with
    /// `connections_accepted`.
    #[serde(default)]
    pub connections_closed: u64,
    /// Connections turned away with `Overloaded`.
    pub overloaded_rejections: u64,
    /// Connections turned away with `ShuttingDown` (queue closed for drain).
    #[serde(default)]
    pub shutdown_rejections: u64,
    /// Frames that failed to decode.
    pub malformed_frames: u64,
    /// Sessions admitted into the fleet (`Place` and `PlaceBatch` items).
    /// Conservation invariant: `placements_admitted` = placements confirmed
    /// to clients + `placements_rolled_back`.
    #[serde(default)]
    pub placements_admitted: u64,
    /// Admitted sessions departed again by the daemon itself because the
    /// reply carrying them could not be delivered (dead client); these never
    /// leak into `active_sessions`.
    #[serde(default)]
    pub placements_rolled_back: u64,
    /// Placement shards the fleet is partitioned into (1 = one placement
    /// domain spanning the whole fleet; every count runs the same two-phase
    /// admit).
    #[serde(default)]
    pub shards: usize,
    /// Sessions currently placed, per shard (indexed by shard id).
    /// Conservation invariant: sums to `active_sessions` at any quiesced
    /// snapshot.
    #[serde(default)]
    pub shard_active_sessions: Vec<u64>,
    /// Sessions whose id did not route back to the shard that owns them
    /// (must stay 0; anything else is an id-scheme bug).
    #[serde(default)]
    pub shard_misrouted_sessions: u64,
    /// Two-phase admits that lost the re-validation race and re-scored.
    #[serde(default)]
    pub place_admit_retries: u64,
    /// Two-phase admits that exhausted their retries and fell back to the
    /// best-ranked shard that still admits.
    #[serde(default)]
    pub place_admit_fallbacks: u64,
    /// `Depart` requests naming a session id that was not placed (already
    /// departed, rolled back, or never existed).
    #[serde(default)]
    pub depart_unknown_sessions: u64,
    /// Prediction-memo hits.
    pub cache_hits: u64,
    /// Prediction-memo misses.
    pub cache_misses: u64,
    /// Per-server score-cache hits (placement `before` sums served from
    /// cache instead of recomputed).
    #[serde(default)]
    pub score_hits: u64,
    /// Per-server score-cache misses (full server-sum recomputations).
    #[serde(default)]
    pub score_misses: u64,
    /// Outcome reports accepted into the feedback buffer (fresh or stale).
    #[serde(default)]
    pub feedback_accepted: u64,
    /// Accepted reports whose `model_version` predated the current model;
    /// buffered as training data but excluded from drift statistics.
    #[serde(default)]
    pub feedback_stale: u64,
    /// Outcome reports rejected (unknown session or non-finite FPS).
    #[serde(default)]
    pub feedback_dropped: u64,
    /// Outcome records currently buffered for the next retrain.
    #[serde(default)]
    pub feedback_buffered: u64,
    /// Outcome records evicted from full ring shards. Conservation
    /// invariant: `feedback_accepted` = `feedback_buffered` +
    /// `feedback_evicted` + records consumed by snapshots (snapshots do not
    /// drain, so accepted = buffered + evicted at all times).
    #[serde(default)]
    pub feedback_evicted: u64,
    /// Distinct (game, game) colocation pairs with outcome aggregates.
    #[serde(default)]
    pub feedback_pairs: u64,
    /// Current overall Page–Hinkley drift score (0 when quiescent).
    #[serde(default)]
    pub drift_score: f64,
    /// Mean absolute relative FPS error over the sliding feedback window.
    #[serde(default)]
    pub windowed_mae: f64,
    /// Times the drift detector tripped since startup.
    #[serde(default)]
    pub drift_trips: u64,
    /// Background retrains that completed and published a new model version.
    #[serde(default)]
    pub retrains_ok: u64,
    /// Background retrains that failed (too few samples, unusable data, or
    /// injected faults); these never bump the model version.
    #[serde(default)]
    pub retrains_failed: u64,
    /// Wall-clock duration of the most recent successful retrain (ms).
    #[serde(default)]
    pub last_retrain_ms: u64,
    /// Outcome samples used by the most recent successful retrain.
    #[serde(default)]
    pub last_retrain_samples: u64,
    /// Counters per request kind.
    pub per_request: BTreeMap<String, RequestStats>,
    /// Merged per-stage pipeline timings (see [`crate::trace`]); keyed by
    /// [`crate::trace::STAGES`] names.
    #[serde(default)]
    pub per_stage: BTreeMap<String, StageStats>,
    /// Worst-N slowest requests with per-stage breakdowns, slowest first.
    #[serde(default)]
    pub slow_requests: Vec<SlowRequest>,
    /// Windowed SLO evaluation (burn rates, alert states, rolling views);
    /// `None` from stats sources that predate the SLO engine.
    #[serde(default)]
    pub slo: Option<SloReport>,
}

impl StatsSnapshot {
    /// Memo hit rate in [0, 1]; 0 with no lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Score-cache hit rate in [0, 1]; 0 with no lookups.
    pub fn score_hit_rate(&self) -> f64 {
        let total = self.score_hits + self.score_misses;
        if total == 0 {
            0.0
        } else {
            self.score_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "daemon statistics")?;
        writeln!(
            f,
            "  uptime:            {:.1} s",
            self.uptime_ms as f64 / 1e3
        )?;
        writeln!(f, "  model version:     {}", self.model_version)?;
        writeln!(f, "  active sessions:   {}", self.active_sessions)?;
        writeln!(f, "  servers:           {}", self.servers)?;
        writeln!(
            f,
            "  connections:       {} accepted / {} closed",
            self.connections_accepted, self.connections_closed
        )?;
        writeln!(f, "  overloaded:        {}", self.overloaded_rejections)?;
        writeln!(f, "  shed at shutdown:  {}", self.shutdown_rejections)?;
        writeln!(f, "  malformed frames:  {}", self.malformed_frames)?;
        writeln!(
            f,
            "  placements:        {} admitted / {} rolled back",
            self.placements_admitted, self.placements_rolled_back
        )?;
        // A one-shard fleet under concurrent placements can lose the epoch
        // race too, so its retries are shown whenever there are any.
        if self.shards > 1 || self.place_admit_retries + self.place_admit_fallbacks > 0 {
            writeln!(
                f,
                "  shards:            {} ({} admit retries / {} fallbacks), per-shard active {:?}",
                self.shards,
                self.place_admit_retries,
                self.place_admit_fallbacks,
                self.shard_active_sessions
            )?;
        }
        if self.depart_unknown_sessions > 0 {
            writeln!(f, "  unknown departs:   {}", self.depart_unknown_sessions)?;
        }
        writeln!(
            f,
            "  prediction memo:   {} hits / {} misses ({:.1}% hit rate)",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.cache_hit_rate()
        )?;
        writeln!(
            f,
            "  score cache:       {} hits / {} misses ({:.1}% hit rate)",
            self.score_hits,
            self.score_misses,
            100.0 * self.score_hit_rate()
        )?;
        writeln!(
            f,
            "  feedback:          {} accepted ({} stale) / {} dropped, {} buffered / {} evicted, {} pairs",
            self.feedback_accepted,
            self.feedback_stale,
            self.feedback_dropped,
            self.feedback_buffered,
            self.feedback_evicted,
            self.feedback_pairs
        )?;
        writeln!(
            f,
            "  drift:             score {:.4}, windowed MAE {:.4}, {} trips",
            self.drift_score, self.windowed_mae, self.drift_trips
        )?;
        writeln!(
            f,
            "  retrains:          {} ok / {} failed, last {} ms over {} samples",
            self.retrains_ok, self.retrains_failed, self.last_retrain_ms, self.last_retrain_samples
        )?;
        if let Some(slo) = &self.slo {
            let burns = slo
                .objectives
                .iter()
                .map(|o| {
                    format!(
                        "{} {} ({:.1}/{:.1})",
                        o.name, o.state, o.fast_burn, o.slow_burn
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(
                f,
                "  slo:               {} — {burns}, {} transitions",
                slo.state, slo.transitions
            )?;
        }
        writeln!(
            f,
            "  {:<14} {:>8} {:>8} {:>10} {:>10} {:>10}",
            "request", "ok", "errors", "p50", "p95", "p99"
        )?;
        for (kind, rs) in &self.per_request {
            if rs.total() == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<14} {:>8} {:>8} {:>9}µs {:>9}µs {:>9}µs",
                kind,
                rs.ok,
                rs.errors,
                rs.percentile_us(50.0),
                rs.percentile_us(95.0),
                rs.percentile_us(99.0)
            )?;
        }
        if self.per_stage.values().any(|st| st.count > 0) {
            writeln!(
                f,
                "  {:<14} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "stage", "count", "mean", "p50", "p99", "max"
            )?;
            for (stage, st) in &self.per_stage {
                if st.count == 0 {
                    continue;
                }
                writeln!(
                    f,
                    "  {:<14} {:>8} {:>8.1}µs {:>9}µs {:>9}µs {:>9}µs",
                    stage,
                    st.count,
                    st.mean_us(),
                    st.percentile_us(50.0),
                    st.percentile_us(99.0),
                    st.max_us
                )?;
            }
        }
        if !self.slow_requests.is_empty() {
            writeln!(f, "  slowest requests (stage breakdown, µs)")?;
            for slow in &self.slow_requests {
                let breakdown = crate::trace::STAGES
                    .iter()
                    .zip(&slow.stage_us)
                    .filter(|(_, &us)| us > 0)
                    .map(|(name, us)| format!("{name} {us}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                writeln!(
                    f,
                    "    #{:<8} {:<14} {:>9}µs  [{breakdown}]",
                    slow.seq, slow.kind, slow.total_us
                )?;
            }
        }
        Ok(())
    }
}

struct KindCounters {
    ok: AtomicU64,
    errors: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
    max_us: AtomicU64,
    sum_us: AtomicU64,
}

impl KindCounters {
    fn new() -> KindCounters {
        KindCounters {
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max_us: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

/// Collection-side counters; shared across workers as plain atomics.
pub struct AtomicStats {
    clock: Arc<dyn Clock>,
    started_us: u64,
    kinds: Vec<(&'static str, KindCounters)>,
    connections: AtomicU64,
    connections_closed: AtomicU64,
    overloaded: AtomicU64,
    shutdown_rejected: AtomicU64,
    malformed: AtomicU64,
    admitted: AtomicU64,
    rolled_back: AtomicU64,
    admit_retries: AtomicU64,
    admit_fallbacks: AtomicU64,
    depart_unknown: AtomicU64,
}

impl Default for AtomicStats {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicStats {
    /// Fresh counters with every request kind pre-registered, timed by a
    /// monotonic clock.
    pub fn new() -> AtomicStats {
        AtomicStats::new_with_clock(Arc::new(MonotonicClock::new()))
    }

    /// Fresh counters reading uptime from an injected [`Clock`] (the
    /// daemon shares one clock across stats, windowed telemetry and the
    /// recorder; tests use a [`crate::slo::ManualClock`]).
    pub fn new_with_clock(clock: Arc<dyn Clock>) -> AtomicStats {
        AtomicStats {
            started_us: clock.now_us(),
            clock,
            kinds: REQUEST_KINDS
                .iter()
                .map(|&k| (k, KindCounters::new()))
                .collect(),
            connections: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            shutdown_rejected: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rolled_back: AtomicU64::new(0),
            admit_retries: AtomicU64::new(0),
            admit_fallbacks: AtomicU64::new(0),
            depart_unknown: AtomicU64::new(0),
        }
    }

    fn kind(&self, kind: &str) -> &KindCounters {
        // REQUEST_KINDS is tiny; linear scan beats hashing at this size.
        self.kinds
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, c)| c)
            .expect("unregistered request kind")
    }

    /// Record one handled request of `kind` with its service latency.
    pub fn record(&self, kind: &str, ok: bool, latency_us: u64) {
        let c = self.kind(kind);
        if ok {
            c.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
        c.buckets[bucket_index(latency_us)].fetch_add(1, Ordering::Relaxed);
        c.max_us.fetch_max(latency_us, Ordering::Relaxed);
        c.sum_us.fetch_add(latency_us, Ordering::Relaxed);
    }

    /// Count an accepted connection.
    pub fn note_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Count an accepted connection fully disposed of (served to EOF/error,
    /// or shed with a terminal reply).
    pub fn note_connection_closed(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a connection turned away with `Overloaded`.
    pub fn note_overloaded(&self) {
        self.overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a connection turned away with `ShuttingDown`.
    pub fn note_shutdown_rejected(&self) {
        self.shutdown_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a session admitted into the fleet.
    pub fn note_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count an admission rolled back because its reply was undeliverable.
    pub fn note_rolled_back(&self) {
        self.rolled_back.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a two-phase admit that lost its re-validation race and
    /// re-scored the fleet.
    pub fn note_admit_retry(&self) {
        self.admit_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a two-phase admit that exhausted its retries and fell back to
    /// a next-best shard candidate.
    pub fn note_admit_fallback(&self) {
        self.admit_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a `Depart` naming an unknown session id.
    pub fn note_depart_unknown(&self) {
        self.depart_unknown.fetch_add(1, Ordering::Relaxed);
    }

    /// Count an undecodable frame.
    pub fn note_malformed(&self) {
        self.malformed.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot every counter. `model_version`, `active_sessions` and
    /// `servers` come from the daemon, which owns that state.
    pub fn snapshot(
        &self,
        model_version: u64,
        active_sessions: u64,
        servers: usize,
    ) -> StatsSnapshot {
        let per_request = self
            .kinds
            .iter()
            .map(|(kind, c)| {
                (
                    kind.to_string(),
                    RequestStats {
                        ok: c.ok.load(Ordering::Relaxed),
                        errors: c.errors.load(Ordering::Relaxed),
                        latency_us: c
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        max_us: c.max_us.load(Ordering::Relaxed),
                        sum_us: c.sum_us.load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        StatsSnapshot {
            uptime_ms: self.clock.now_us().saturating_sub(self.started_us) / 1_000,
            model_version,
            active_sessions,
            servers,
            connections_accepted: self.connections.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            overloaded_rejections: self.overloaded.load(Ordering::Relaxed),
            shutdown_rejections: self.shutdown_rejected.load(Ordering::Relaxed),
            malformed_frames: self.malformed.load(Ordering::Relaxed),
            placements_admitted: self.admitted.load(Ordering::Relaxed),
            placements_rolled_back: self.rolled_back.load(Ordering::Relaxed),
            place_admit_retries: self.admit_retries.load(Ordering::Relaxed),
            place_admit_fallbacks: self.admit_fallbacks.load(Ordering::Relaxed),
            depart_unknown_sessions: self.depart_unknown.load(Ordering::Relaxed),
            // The prediction memo, score cache, shard layout and the
            // feedback subsystem live outside these atomics; the daemon
            // fills all of the below in when it assembles the full snapshot.
            cache_hits: 0,
            cache_misses: 0,
            shards: 0,
            shard_active_sessions: Vec::new(),
            shard_misrouted_sessions: 0,
            score_hits: 0,
            score_misses: 0,
            feedback_accepted: 0,
            feedback_stale: 0,
            feedback_dropped: 0,
            feedback_buffered: 0,
            feedback_evicted: 0,
            feedback_pairs: 0,
            drift_score: 0.0,
            windowed_mae: 0.0,
            drift_trips: 0,
            retrains_ok: 0,
            retrains_failed: 0,
            last_retrain_ms: 0,
            last_retrain_samples: 0,
            per_request,
            // Stage timings live in the TraceCollector; the daemon merges
            // them in alongside the score/feedback fields above.
            per_stage: BTreeMap::new(),
            slow_requests: Vec::new(),
            slo: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_latencies_correctly() {
        let s = AtomicStats::new();
        s.record("place", true, 1); // bucket 0 (≤5)
        s.record("place", true, 5); // bucket 0 (≤5)
        s.record("place", true, 6); // bucket 1 (≤10)
        s.record("place", false, 2_000_000); // overflow bucket
        let snap = s.snapshot(1, 0, 2);
        let rs = &snap.per_request["place"];
        assert_eq!(rs.ok, 3);
        assert_eq!(rs.errors, 1);
        assert_eq!(rs.latency_us[0], 2);
        assert_eq!(rs.latency_us[1], 1);
        assert_eq!(rs.latency_us[N_BUCKETS - 1], 1);
        assert_eq!(rs.total(), 4);
    }

    #[test]
    fn percentiles_track_the_histogram() {
        let s = AtomicStats::new();
        for _ in 0..99 {
            s.record("predict", true, 3);
        }
        s.record("predict", true, 900); // one slow outlier (≤1000 bucket)
        let rs = s.snapshot(1, 0, 1).per_request["predict"].clone();
        assert_eq!(rs.percentile_us(50.0), 5);
        assert_eq!(rs.percentile_us(99.0), 5);
        assert_eq!(rs.percentile_us(100.0), 1_000);
        assert_eq!(RequestStats::default().percentile_us(50.0), 0);
    }

    #[test]
    fn overflow_bucket_reports_observed_max_not_u64_max() {
        // A latency beyond the last bucket bound used to make percentile_us
        // return u64::MAX, which poisoned the load driver's aggregates.
        let s = AtomicStats::new();
        s.record("place", true, 3_456_789); // overflow (> 1s)
        let rs = s.snapshot(1, 0, 1).per_request["place"].clone();
        assert_eq!(rs.max_us, 3_456_789);
        assert_eq!(rs.percentile_us(50.0), 3_456_789);
        assert_eq!(rs.percentile_us(100.0), 3_456_789);

        // Mixed: fast requests keep their bucket bounds, only ranks landing
        // in the overflow bucket use the observed max.
        let s = AtomicStats::new();
        for _ in 0..9 {
            s.record("place", true, 4);
        }
        s.record("place", true, 2_000_000);
        let rs = s.snapshot(1, 0, 1).per_request["place"].clone();
        assert_eq!(rs.percentile_us(50.0), 5);
        assert_eq!(rs.percentile_us(90.0), 5);
        assert_eq!(rs.percentile_us(100.0), 2_000_000);
        assert_eq!(rs.max_us, 2_000_000);
    }

    // Satellite: percentile bucket-boundary behavior for the per-op
    // histograms (the stage-histogram mirror lives in `trace::tests`).
    #[test]
    fn per_op_percentile_bucket_boundaries() {
        let s = AtomicStats::new();
        // 10 samples exactly on bucket 0's upper bound (≤5µs), 10 in the
        // next bucket (≤10µs).
        for _ in 0..10 {
            s.record("place", true, 5);
        }
        for _ in 0..10 {
            s.record("place", true, 6);
        }
        let rs = s.snapshot(1, 0, 1).per_request["place"].clone();
        // p=50 → rank 10, which is the *last* sample of bucket 0: a rank
        // landing exactly on a bucket edge stays in the lower bucket.
        assert_eq!(rs.percentile_us(50.0), 5);
        // Any rank past the edge crosses into the next bucket's bound.
        assert_eq!(rs.percentile_us(50.1), 10);
        // p=0 clamps the rank to 1: the first bucket with samples.
        assert_eq!(rs.percentile_us(0.0), 5);
        // p=100 is the last bucket with samples.
        assert_eq!(rs.percentile_us(100.0), 10);
        // The sum feeds the exporter's `_sum` series.
        assert_eq!(rs.sum_us, 10 * 5 + 10 * 6);

        // Overflow-bucket rank reports the observed max, not a bound.
        let s = AtomicStats::new();
        s.record("place", true, 1_000_000); // edge of the last real bucket
        s.record("place", true, 1_000_001); // first value past it: overflow
        let rs = s.snapshot(1, 0, 1).per_request["place"].clone();
        assert_eq!(rs.latency_us[N_BUCKETS - 2], 1);
        assert_eq!(rs.latency_us[N_BUCKETS - 1], 1);
        assert_eq!(rs.percentile_us(50.0), 1_000_000);
        assert_eq!(rs.percentile_us(100.0), 1_000_001);
    }

    #[test]
    fn lifecycle_counters_reach_the_snapshot() {
        let s = AtomicStats::new();
        s.note_connection();
        s.note_connection();
        s.note_connection_closed();
        s.note_admitted();
        s.note_admitted();
        s.note_rolled_back();
        s.note_shutdown_rejected();
        s.note_admit_retry();
        s.note_admit_retry();
        s.note_admit_fallback();
        s.note_depart_unknown();
        let snap = s.snapshot(1, 1, 1);
        assert_eq!(snap.connections_accepted, 2);
        assert_eq!(snap.connections_closed, 1);
        assert_eq!(snap.placements_admitted, 2);
        assert_eq!(snap.placements_rolled_back, 1);
        assert_eq!(snap.shutdown_rejections, 1);
        assert_eq!(snap.place_admit_retries, 2);
        assert_eq!(snap.place_admit_fallbacks, 1);
        assert_eq!(snap.depart_unknown_sessions, 1);
        // Conservation: admitted = confirmed + rolled back, with one
        // confirmed placement here.
        assert_eq!(snap.placements_admitted, 1 + snap.placements_rolled_back);
    }

    #[test]
    fn every_kind_is_preregistered() {
        let snap = AtomicStats::new().snapshot(0, 0, 0);
        for kind in REQUEST_KINDS {
            assert!(snap.per_request.contains_key(kind), "{kind}");
        }
    }

    #[test]
    fn display_renders_without_panicking() {
        let s = AtomicStats::new();
        s.record("stats", true, 10);
        let text = s.snapshot(2, 3, 4).to_string();
        assert!(text.contains("model version:     2"));
        assert!(text.contains("stats"));
    }

    #[test]
    fn uptime_follows_the_injected_clock() {
        let clock = Arc::new(crate::slo::ManualClock::new(5_000_000));
        let s = AtomicStats::new_with_clock(clock.clone());
        assert_eq!(s.snapshot(1, 0, 0).uptime_ms, 0);
        clock.advance_us(2_500_000);
        assert_eq!(s.snapshot(1, 0, 0).uptime_ms, 2_500);
        // A clock that jumps backwards must not underflow.
        clock.set_us(0);
        assert_eq!(s.snapshot(1, 0, 0).uptime_ms, 0);
    }
}
