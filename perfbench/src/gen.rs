//! The open-loop generator: one thread per connection, each sending its
//! connection's arrivals at their due times through the daemon's public
//! wire client. A late reply delays the next send on that connection, and
//! that delay is charged to the next request, because latency is timed from
//! the due time, not the send time.

use crate::spans::{Spans, ROOT};
use crate::stream::{Arrival, Stream, Workload};
use gaugur_serve::{Client, OutcomeReport, Request, Response, StatsSnapshot};
use std::ffi::{c_int, c_ulong};
use std::time::{Duration, Instant};

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
}

const PR_SET_TIMERSLACK: c_int = 29;
const PR_GET_TIMERSLACK: c_int = 30;

/// Set the calling thread's timer slack to 1 ns, so a sleep until a due
/// time wakes at the due time instead of up to the default 50 µs later.
/// Returns the slack the kernel reports afterwards.
pub fn set_timer_slack_1ns() -> Option<u64> {
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument by value
    // and PR_GET_TIMERSLACK takes none; neither touches this process's
    // memory.
    let slack = unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
        prctl(PR_GET_TIMERSLACK)
    };
    u64::try_from(slack).ok()
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Place,
    Depart,
    Report,
    Reload,
    Stats,
}

impl Kind {
    pub fn span_name(self) -> &'static str {
        match self {
            Kind::Place => "client.place",
            Kind::Depart => "client.depart",
            Kind::Report => "client.report_outcome",
            Kind::Reload => "client.reload_model",
            Kind::Stats => "client.stats",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warmup = 0,
    Measured = 1,
    Drain = 2,
}

pub const PHASE_NAMES: [&str; 3] = ["warmup", "measured", "drain"];

/// One request the generator sent. Times are ns after the run's start.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub kind: Kind,
    pub phase: Phase,
    pub due_ns: u64,
    pub send_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
    /// Predicted FPS of a successful place.
    pub fps: f64,
}

/// What one connection's thread hands back.
pub struct ConnResult {
    pub client: Client,
    pub recs: Vec<Rec>,
    pub spans: Spans,
    /// `Stats` taken on connection 0 once its warm-up arrivals are done.
    pub boundary: Option<StatsSnapshot>,
    pub timer_slack_ns: Option<u64>,
}

/// Shared per-run settings of every generator thread.
pub struct RunClock {
    pub t0: Instant,
    pub warm_ns: u64,
    pub traced: bool,
}

struct Conn {
    client: Client,
    recs: Vec<Rec>,
    spans: Spans,
    conn: usize,
    traced: bool,
}

impl Conn {
    fn now_ns(&self) -> u64 {
        self.spans.now_ns()
    }

    /// Send one request and record it; `Some(reply)` when it succeeded.
    fn call(&mut self, kind: Kind, phase: Phase, due_ns: u64, req: &Request) -> Option<Response> {
        let send_ns = self.now_ns();
        let reply = self.client.call(req);
        let done_ns = self.now_ns();
        let reply = match reply {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("perfbench: connection {}: {kind:?} failed: {e}", self.conn);
                if e.is_ambiguous() {
                    let _ = self.client.reconnect();
                }
                None
            }
        };
        let (ok, fps) = match &reply {
            Some(Response::Placed { predicted_fps, .. }) => (true, *predicted_fps),
            Some(Response::Departed { .. }) | Some(Response::Reloaded { .. }) => (true, 0.0),
            Some(Response::Stats(_)) => (true, 0.0),
            Some(Response::OutcomeRecorded { accepted, .. }) => (*accepted == 1, 0.0),
            _ => (false, 0.0),
        };
        let idx = self.recs.len() as u64;
        self.recs.push(Rec {
            kind,
            phase,
            due_ns,
            send_ns,
            done_ns,
            ok,
            fps,
        });
        if self.traced {
            let req_id = ((self.conn as u64) << 40) | idx;
            self.spans
                .push(kind.span_name(), send_ns, done_ns, ROOT, req_id);
        }
        if ok {
            reply
        } else {
            None
        }
    }
}

/// Drive one placing connection: every arrival at its due time, its
/// outcome report (when the workload sends them), the departures it
/// triggers, then the drain of every session still live.
pub fn place_conn(
    client: Client,
    w: &Workload,
    arrivals: &[Arrival],
    departs: &[Vec<usize>],
    conn: usize,
    clock: &RunClock,
) -> ConnResult {
    let timer_slack_ns = set_timer_slack_1ns();
    let mut c = Conn {
        client,
        recs: Vec::with_capacity(arrivals.len() * 3 + 16),
        spans: Spans::new(clock.t0),
        conn,
        traced: clock.traced,
    };
    let mut sessions: Vec<Option<u64>> = vec![None; arrivals.len()];
    let mut boundary = None;
    for (j, a) in arrivals.iter().enumerate() {
        sleep_until(clock.t0 + Duration::from_nanos(a.due_ns));
        let phase = if a.due_ns < clock.warm_ns {
            Phase::Warmup
        } else {
            Phase::Measured
        };
        let (game, resolution) = a.placement;
        let placed = c.call(
            Kind::Place,
            phase,
            a.due_ns,
            &Request::Place { game, resolution },
        );
        if let Some(Response::Placed {
            session,
            predicted_fps,
            model_version,
            ..
        }) = placed
        {
            sessions[j] = Some(session);
            if w.reports {
                let report = OutcomeReport {
                    session,
                    observed_fps: predicted_fps * (1.0 + a.noise),
                    predicted_fps,
                    model_version,
                };
                c.call(
                    Kind::Report,
                    phase,
                    a.due_ns,
                    &Request::ReportOutcome { report },
                );
            }
        }
        for &k in &departs[j] {
            if let Some(session) = sessions[k].take() {
                c.call(Kind::Depart, phase, a.due_ns, &Request::Depart { session });
            }
        }
        let last_warm = phase == Phase::Warmup
            && arrivals
                .get(j + 1)
                .is_none_or(|n| n.due_ns >= clock.warm_ns);
        if conn == 0 && last_warm {
            if let Some(Response::Stats(s)) = c.call(Kind::Stats, phase, a.due_ns, &Request::Stats)
            {
                boundary = Some(*s);
            }
        }
    }
    for session in sessions.iter_mut().filter_map(Option::take) {
        let due = c.now_ns();
        c.call(
            Kind::Depart,
            Phase::Drain,
            due,
            &Request::Depart { session },
        );
    }
    ConnResult {
        client: c.client,
        recs: c.recs,
        spans: c.spans,
        boundary,
        timer_slack_ns,
    }
}

/// Drive the control connection: one `ReloadModel` of `artifact` at each
/// reload due time.
pub fn control_conn(
    client: Client,
    stream: &Stream,
    artifact: &str,
    conn: usize,
    clock: &RunClock,
) -> ConnResult {
    let timer_slack_ns = set_timer_slack_1ns();
    let mut c = Conn {
        client,
        recs: Vec::new(),
        spans: Spans::new(clock.t0),
        conn,
        traced: clock.traced,
    };
    for &due in &stream.reloads {
        sleep_until(clock.t0 + Duration::from_nanos(due));
        let phase = if due < clock.warm_ns {
            Phase::Warmup
        } else {
            Phase::Measured
        };
        let path = Some(artifact.to_string());
        c.call(Kind::Reload, phase, due, &Request::ReloadModel { path });
    }
    ConnResult {
        client: c.client,
        recs: c.recs,
        spans: c.spans,
        boundary: None,
        timer_slack_ns,
    }
}

/// User+system CPU time (ns) of the daemon's threads, from
/// `/proc/self/task/*/schedstat`; daemon threads are named `gaugur-serve-*`.
pub fn daemon_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0;
    for task in tasks.flatten() {
        let dir = task.path();
        let is_daemon = std::fs::read_to_string(dir.join("comm"))
            .map(|c| c.starts_with("gaugur-serve-"))
            .unwrap_or(false);
        if !is_daemon {
            continue;
        }
        if let Ok(s) = std::fs::read_to_string(dir.join("schedstat")) {
            total += s
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    total
}

/// Host steal ticks (all CPUs) from `/proc/stat`.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
        })
        .unwrap_or(0)
}
