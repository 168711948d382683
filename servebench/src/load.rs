//! The two load generators and the per-connection response log.
//!
//! * **Closed loop**: each connection sends its next request only after
//!   the previous reply arrived (`qps_peak`, `cost_mean`).
//! * **Open loop**: each connection sends on a fixed schedule whether or
//!   not replies have arrived, and every request is timed from its due
//!   time, so a stall also charges the requests queued behind it
//!   (`lat_*`, `update_*`, the `qps_at_slo` ladder).
//!
//! Replies are not checked inside the timed window. Each query lane is
//! keyed by `(constant, state)`, where the state is the set of
//! in-footprint facts about the constant that this connection's acked
//! updates, replayed in send order, left inserted. A lane text already
//! seen under its key only adds its cost; a new one is appended to the
//! connection's lane log file and checked after the run against a
//! scalar `QueryProcessor` run on a mirror database in that state (see
//! `check`). Keys are bounded by constants × states on hot and churn,
//! and the log lives on disk, so the harness's memory does not grow
//! with the number of requests the server answers.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::gen::{FactChange, Op, OpStream};
use crate::net::Conn;

/// Pipelined requests a connection may have outstanding before the
/// open-loop schedule counts as overrun (and stops sending). Replies
/// for that many requests stay far below loopback socket buffers, so
/// neither side ever blocks on a full buffer.
pub const MAX_OUTSTANDING: usize = 256;
/// Longest wait for any reply before the run fails as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// What a connection saw, accumulated across phases.
#[derive(Debug)]
pub struct ConnLog {
    /// Lane texts already logged, per `(constant, state)` key.
    seen: HashMap<(u32, u8), Vec<String>>,
    /// The lane log, one `constant<TAB>state<TAB>lane text` line per
    /// logged lane.
    pub path: PathBuf,
    file: BufWriter<File>,
    pub logged: usize,
    /// Replies that were malformed or contradicted the request (wrong
    /// lane count, wrong ack) — wrong answers.
    pub wrong: Vec<String>,
    /// Requests answered in full.
    pub ok: u64,
    /// Requests refused (`overloaded`, `shutting_down`, ...).
    pub refused: u64,
    /// Requests answered with an error, or with a failed lane.
    pub errors: u64,
    pub timed_out: u64,
    pub lanes: u64,
    pub cost_sum: f64,
}

impl ConnLog {
    fn create(path: &Path) -> io::Result<Self> {
        Ok(ConnLog {
            seen: HashMap::new(),
            path: path.to_path_buf(),
            file: BufWriter::new(File::create(path)?),
            logged: 0,
            wrong: Vec::new(),
            ok: 0,
            refused: 0,
            errors: 0,
            timed_out: 0,
            lanes: 0,
            cost_sum: 0.0,
        })
    }

    /// Flushes the lane log for the checker.
    pub fn finish(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.refused + self.errors + self.timed_out + self.wrong.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.refused + self.errors + self.timed_out + self.wrong.len() as u64
    }
}

/// What a reply must answer, captured when its request is sent.
#[derive(Debug)]
pub enum Pending {
    Query(Vec<u32>),
    Update(FactChange),
    Checkpoint,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Update,
    Checkpoint,
}

impl Pending {
    pub fn kind(&self) -> Kind {
        match self {
            Pending::Query(_) => Kind::Query,
            Pending::Update(_) => Kind::Update,
            Pending::Checkpoint => Kind::Checkpoint,
        }
    }
}

/// Splits the lanes out of an `answers` reply. Lane objects are flat
/// (no nested braces) and string values escape quotes, so a scan that
/// skips string contents finds each `{...}`.
pub fn split_lanes(line: &str) -> Option<Vec<&str>> {
    let start = line.find("\"results\":[")? + "\"results\":[".len();
    let bytes = line.as_bytes();
    let mut lanes = Vec::with_capacity(32);
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => {
                let open = i;
                let mut in_str = false;
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' if in_str => i += 1,
                        b'"' => in_str = !in_str,
                        b'}' if !in_str => break,
                        _ => {}
                    }
                    i += 1;
                }
                lanes.push(line.get(open..=i)?);
                i += 1;
            }
            b']' => return Some(lanes),
            _ => i += 1,
        }
    }
    None
}

/// The `"cost"` field of a lane, if the lane answered.
pub fn lane_cost(lane: &str) -> Option<f64> {
    let at = lane.find("\"cost\":")? + "\"cost\":".len();
    let rest = &lane[at..];
    let end = rest.find(['}', ',']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One client connection with its operation stream and log.
pub struct Client<'p> {
    addr: SocketAddr,
    conn: Conn,
    pub stream: OpStream<'p>,
    pub log: ConnLog,
    /// Per constant, the in-footprint facts (`FactChange::bit`s) this
    /// connection's acked updates have inserted and not retracted. Acks
    /// are filed in send order, so when a lane's reply is filed this is
    /// the state every update sent before the lane left.
    state: HashMap<u32, u8>,
    dedupe: bool,
}

/// One open-loop reply: due time (since the phase start), latency.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due_ns: u64,
    pub lat_ns: u64,
    pub kind: Kind,
}

/// What one connection's open-loop run produced.
#[derive(Debug, Default)]
pub struct OpenResult {
    pub samples: Vec<Sample>,
    /// How late each request left, ns.
    pub lag_ns: Vec<u64>,
    /// Whether the schedule overran `MAX_OUTSTANDING` replies.
    pub overran: bool,
    pub failed: u64,
    pub lanes: u64,
}

impl<'p> Client<'p> {
    /// Connects to `addr`; lanes to check go to the file at `log`.
    pub fn connect(
        addr: SocketAddr,
        stream: OpStream<'p>,
        dedupe: bool,
        log: &Path,
    ) -> io::Result<Self> {
        Ok(Client {
            addr,
            conn: Conn::connect(addr)?,
            stream,
            log: ConnLog::create(log)?,
            state: HashMap::new(),
            dedupe,
        })
    }

    /// Sends the stream's next operation; returns what its reply must
    /// answer.
    fn send_next(&mut self, checkpoints: bool) -> io::Result<Pending> {
        let op = self.stream.next_op(checkpoints);
        self.conn.send(op.line())?;
        Ok(match op {
            Op::Query { lanes, .. } => Pending::Query(lanes),
            Op::Update { change, .. } => Pending::Update(change),
            Op::Checkpoint { .. } => Pending::Checkpoint,
        })
    }

    /// Files one reply; returns the query lanes it answered and whether
    /// the request failed.
    fn file_reply(&mut self, pending: Pending, line: &str) -> io::Result<(u64, bool)> {
        let kind_is = |k: &str| line.contains(&format!("\"kind\":\"{k}\""));
        if kind_is("error") {
            if line.contains("\"error\":\"overloaded\"")
                || line.contains("\"error\":\"shutting_down\"")
            {
                self.log.refused += 1;
            } else {
                self.log.errors += 1;
            }
            return Ok((0, true));
        }
        Ok(match pending {
            Pending::Query(constants) => {
                let Some(lanes) = split_lanes(line).filter(|l| l.len() == constants.len()) else {
                    self.log.wrong.push(format!("malformed answers reply: {line}"));
                    return Ok((0, true));
                };
                let mut failed = false;
                for (lane, &constant) in lanes.iter().zip(&constants) {
                    let Some(cost) = lane_cost(lane) else {
                        failed = true;
                        continue;
                    };
                    self.log.lanes += 1;
                    self.log.cost_sum += cost;
                    let state = self.state.get(&constant).copied().unwrap_or(0);
                    if self.dedupe {
                        let seen = self.log.seen.entry((constant, state)).or_default();
                        if seen.iter().any(|t| t == lane) {
                            continue;
                        }
                        seen.push((*lane).to_string());
                    }
                    writeln!(self.log.file, "{constant}\t{state}\t{lane}")?;
                    self.log.logged += 1;
                }
                if failed {
                    self.log.errors += 1;
                } else {
                    self.log.ok += 1;
                }
                (constants.len() as u64, failed)
            }
            Pending::Update(change) => {
                let field = if change.insert { "\"inserted\":1" } else { "\"retracted\":1" };
                if kind_is("updated") && line.contains(field) {
                    let state = self.state.entry(change.constant).or_insert(0);
                    if change.insert {
                        *state |= change.bit;
                    } else {
                        *state &= !change.bit;
                    }
                    self.log.ok += 1;
                    (0, false)
                } else {
                    self.log.wrong.push(format!("update {change:?} answered {line}"));
                    (0, true)
                }
            }
            Pending::Checkpoint => {
                if kind_is("checkpointed") {
                    self.log.ok += 1;
                    (0, false)
                } else {
                    self.log.wrong.push(format!("checkpoint answered {line}"));
                    (0, true)
                }
            }
        })
    }

    fn recv_reply(&mut self) -> io::Result<String> {
        match self.conn.recv_until(Instant::now() + REPLY_TIMEOUT)? {
            Some(line) => Ok(line),
            None => {
                self.log.timed_out += 1;
                Err(io::Error::new(io::ErrorKind::TimedOut, "no reply within 30 s"))
            }
        }
    }

    /// Replaces the connection with a fresh one (the previous one has
    /// nothing outstanding), so the server spawns a new handler thread.
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.conn = Conn::connect(self.addr)?;
        Ok(())
    }

    /// Closed loop until `until`: the next request leaves when the
    /// previous reply arrived. Returns the query lanes answered.
    pub fn closed_loop(&mut self, until: Instant) -> io::Result<u64> {
        let mut lanes = 0;
        while Instant::now() < until {
            let pending = self.send_next(true)?;
            let line = self.recv_reply()?;
            lanes += self.file_reply(pending, &line)?.0;
        }
        Ok(lanes)
    }

    /// Open loop: `count` requests, request `i` due at
    /// `start + offset + i * interval`.
    pub fn open_loop(
        &mut self,
        start: Instant,
        offset: Duration,
        interval: Duration,
        count: u64,
    ) -> io::Result<OpenResult> {
        let mut out = OpenResult::default();
        let mut outstanding: VecDeque<(Instant, Pending)> = VecDeque::new();
        let mut limit = count;
        let mut sent = 0u64;
        while sent < limit || !outstanding.is_empty() {
            let now = Instant::now();
            let deadline = if sent < limit {
                let due = start + offset + interval.mul_f64(sent as f64);
                if due <= now {
                    if outstanding.len() >= MAX_OUTSTANDING {
                        // The server cannot keep up: stop the schedule
                        // rather than let socket buffers fill.
                        out.overran = true;
                        limit = sent;
                        continue;
                    }
                    let pending = self.send_next(false)?;
                    out.lag_ns.push((now - due).as_nanos() as u64);
                    outstanding.push_back((due, pending));
                    sent += 1;
                    continue;
                }
                due
            } else {
                now + REPLY_TIMEOUT
            };
            match self.conn.recv_until(deadline)? {
                Some(line) => {
                    let got = Instant::now();
                    let (due, pending) = outstanding.pop_front().ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "reply without a request")
                    })?;
                    let kind = pending.kind();
                    let (n, failed) = self.file_reply(pending, &line)?;
                    out.lanes += n;
                    out.failed += u64::from(failed);
                    out.samples.push(Sample {
                        due_ns: (due - start).as_nanos() as u64,
                        lat_ns: (got - due).as_nanos() as u64,
                        kind,
                    });
                }
                None if sent >= limit => {
                    self.log.timed_out += outstanding.len() as u64;
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply within 30 s"));
                }
                None => {}
            }
        }
        Ok(out)
    }
}
