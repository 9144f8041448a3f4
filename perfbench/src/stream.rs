//! Workload definitions and the seeded request streams they generate.
//!
//! A stream is a pure function of `(workload, seed)`: per-connection
//! Poisson arrival times, the game and resolution of each arrival, how many
//! later arrivals on the same connection its session lives for, and the
//! observation noise of its outcome report. Wire timing never feeds back
//! into the stream, so the traced run, the in-process replay and the
//! correctness oracle all see exactly the inputs the open-loop run sent.

use gaugur_gamesim::game::ALL_RESOLUTIONS;
use gaugur_gamesim::rng::rng_for;
use gaugur_gamesim::{GameId, Resolution};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Games in the `ExperimentContext::small` catalog; arrivals draw uniformly.
pub const N_GAMES: u32 = 20;

const ARRIVAL_CTX: u64 = 0x4152_5256; // "ARRV"

/// One benchmark workload: a traffic mix plus the daemon shape it runs on.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Total `Place` arrivals per second across all placing connections.
    pub rate: f64,
    /// Connections that carry placements (the rest of the two carry
    /// control traffic only).
    pub place_conns: usize,
    pub resolutions: &'static [Resolution],
    /// Mean session life, in later arrivals on the same connection.
    pub mean_life: f64,
    pub shards: usize,
    /// Send one `ReportOutcome` after every placement.
    pub reports: bool,
    /// Period of `ReloadModel` on the control connection, if any.
    pub reload_every_ms: Option<u64>,
}

const FHD: &[Resolution] = &[Resolution::Fhd1080];

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "place_hot",
        why: "per-request overhead path: 2 shards, 1080p only, so the memo hits (0.1% miss) and the ensemble stays idle; daemon I/O, wire, telemetry, scorer and shard locks dominate",
        rate: 4000.0,
        place_conns: 2,
        resolutions: FHD,
        mean_life: 80.0,
        shards: 2,
        reports: false,
        reload_every_ms: None,
    },
    Workload {
        name: "place_mixed",
        why: "all four resolutions outgrow the memo, so memo misses and the batched ensemble dominate the single-shard place path and per-request I/O is a small share",
        rate: 400.0,
        place_conns: 2,
        resolutions: &ALL_RESOLUTIONS,
        mean_life: 80.0,
        shards: 1,
        reports: false,
        reload_every_ms: None,
    },
    Workload {
        name: "swap_feedback",
        why: "outcome reports beside 1080p placements plus a ReloadModel of the same artifact every 2 s: feedback ingest, model reload and the memo refill after each version bump",
        rate: 2000.0,
        place_conns: 1,
        resolutions: FHD,
        mean_life: 160.0,
        shards: 1,
        reports: true,
        reload_every_ms: Some(2000),
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One `Place` arrival on a connection.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Due time, ns after the run's start instant.
    pub due_ns: u64,
    pub placement: (GameId, Resolution),
    /// Index of the later arrival on the same connection after which this
    /// session departs; `>= len` means it departs in the drain phase.
    pub depart_at: usize,
    /// Multiplicative observation noise for the outcome report, in
    /// `[-0.02, 0.02]`.
    pub noise: f64,
}

/// Everything one run sends, by connection.
pub struct Stream {
    /// Arrivals of each placing connection, in due order.
    pub conns: Vec<Vec<Arrival>>,
    /// Departures due after each arrival: `departs[c][j]` lists the arrival
    /// indices (on connection `c`) whose sessions leave right after
    /// arrival `j` is answered.
    pub departs: Vec<Vec<Vec<usize>>>,
    /// `ReloadModel` due times (ns) on the control connection.
    pub reloads: Vec<u64>,
}

fn exponential(rng: &mut ChaCha8Rng, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() * mean
}

impl Stream {
    /// The stream of `workload` for `seed`, covering `total_ns` of arrivals.
    pub fn generate(workload: &Workload, seed: u64, total_ns: u64) -> Stream {
        let per_conn_rate = workload.rate / workload.place_conns as f64;
        let mut conns = Vec::new();
        let mut departs = Vec::new();
        for c in 0..workload.place_conns {
            let mut rng = rng_for(seed, &[ARRIVAL_CTX, c as u64]);
            let mut arrivals = Vec::new();
            let mut t = 0.0f64;
            loop {
                t += exponential(&mut rng, 1e9 / per_conn_rate);
                if t >= total_ns as f64 {
                    break;
                }
                let game = GameId(rng.gen_range(0..N_GAMES));
                let res = workload.resolutions[rng.gen_range(0..workload.resolutions.len())];
                let life = (exponential(&mut rng, workload.mean_life).round() as usize).max(1);
                let noise = rng.gen_range(-0.02..0.02);
                let j = arrivals.len();
                arrivals.push(Arrival {
                    due_ns: t as u64,
                    placement: (game, res),
                    depart_at: j + life,
                    noise,
                });
            }
            let mut d = vec![Vec::new(); arrivals.len()];
            for (j, a) in arrivals.iter().enumerate() {
                if a.depart_at < arrivals.len() {
                    d[a.depart_at].push(j);
                }
            }
            conns.push(arrivals);
            departs.push(d);
        }
        let reloads = match workload.reload_every_ms {
            Some(ms) => (1..)
                .map(|k| k * ms * 1_000_000)
                .take_while(|&t| t < total_ns)
                .collect(),
            None => Vec::new(),
        };
        Stream {
            conns,
            departs,
            reloads,
        }
    }

    /// The whole stream as one sequence in due order: each arrival followed
    /// by the departures it triggers on its connection, reloads at their
    /// due times. Ties keep connection order, so the sequence is a pure
    /// function of the stream.
    pub fn merged(&self) -> Vec<Op> {
        let mut keyed: Vec<(u64, usize, Op)> = Vec::new();
        for (c, arrivals) in self.conns.iter().enumerate() {
            for (j, a) in arrivals.iter().enumerate() {
                keyed.push((a.due_ns, c, Op::Place { conn: c, idx: j }));
                for &k in &self.departs[c][j] {
                    keyed.push((a.due_ns, c, Op::Depart { conn: c, idx: k }));
                }
            }
        }
        for (k, &t) in self.reloads.iter().enumerate() {
            keyed.push((t, usize::MAX, Op::Reload { idx: k }));
        }
        // Stable: within one (due, conn) the place precedes its departs.
        keyed.sort_by_key(|&(t, c, _)| (t, c));
        keyed.into_iter().map(|(_, _, op)| op).collect()
    }
}

/// One step of the merged stream. `idx` of a `Depart` names the arrival
/// whose session leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Place { conn: usize, idx: usize },
    Depart { conn: usize, idx: usize },
    Reload { idx: usize },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let w = workload("place_hot").unwrap();
        let a = Stream::generate(&w, 3, 200_000_000);
        let b = Stream::generate(&w, 3, 200_000_000);
        let c = Stream::generate(&w, 4, 200_000_000);
        let key = |s: &Stream| -> Vec<(u64, u32, usize)> {
            s.conns[0]
                .iter()
                .map(|a| (a.due_ns, a.placement.0 .0, a.depart_at))
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        // 2,000 arrivals/s per connection over 0.2 s.
        assert!(
            (300..500).contains(&a.conns[0].len()),
            "{}",
            a.conns[0].len()
        );
    }

    #[test]
    fn merged_order_places_before_their_departs() {
        let w = workload("swap_feedback").unwrap();
        let s = Stream::generate(&w, 1, 5_000_000_000);
        assert_eq!(s.reloads.len(), 2);
        let mut placed = vec![false; s.conns[0].len()];
        for op in s.merged() {
            match op {
                Op::Place { idx, .. } => placed[idx] = true,
                Op::Depart { idx, .. } => assert!(placed[idx]),
                Op::Reload { .. } => {}
            }
        }
    }
}
