//! Dynamic batcher + admission controller: a bounded FIFO of jobs that
//! an executor shard drains in planes of up to [`MAX_LANES`] lanes.
//!
//! The batcher is a *synchronous state machine* — it never touches a
//! clock or a thread by itself. Callers pass `Instant`s in (kept with
//! each job so the server can report enqueue → reply service time),
//! which keeps every transition deterministic and directly testable
//! (the proptests in `tests/batcher_props.rs` drive it without sleeps).
//!
//! ## State machine
//!
//! ```text
//!          offer(job, now)                    cut_plane()
//! client ──────────────────▶ [FIFO queue] ──────────────────▶ executor
//!              │                  │
//!              │ queue full       │ whenever the queue is non-empty
//!              ▼                  │ and the executor is free
//!          Err(job)               ▼
//!        ("overloaded")
//! ```
//!
//! * **Admission** is lane-denominated: a queue holds at most
//!   `cap_lanes` query lanes summed over jobs. [`Batcher::offer`]
//!   returns the job back (`Err`) when it does not fit — the caller
//!   sheds it with an `overloaded` response. A job is never partially
//!   admitted.
//! * **Readiness** is non-emptiness: the executor is work-conserving
//!   and never waits for a plane to fill. Batching comes from what
//!   piles up while the previous plane runs.
//! * **Cutting** ([`Batcher::cut_plane`]) pops whole jobs FIFO until
//!   the next job would overflow the plane. Jobs are never split across
//!   planes (each is at most [`LANES`] lanes wide, enforced at request
//!   parse time), so a batch request's lanes always execute together.
//!   A cut's capacity is [`MAX_LANES`], so one cut takes the whole queue
//!   when it holds ≤ 512 lanes, and otherwise the longest FIFO prefix
//!   that fits in 512.

use std::collections::VecDeque;
use std::time::Instant;

use qpl_graph::batch::{LANES, MAX_LANES};

/// How many plane lanes a queued job occupies (its query count).
pub trait LaneWeight {
    /// Lanes this job needs, `1..=LANES`.
    fn lanes(&self) -> usize;
}

/// Bounded FIFO of jobs with lane-denominated admission and whole-job
/// plane cutting.
#[derive(Debug)]
pub struct Batcher<T> {
    queue: VecDeque<(T, Instant)>,
    lanes_queued: usize,
    cap_lanes: usize,
    shed: u64,
    admitted: u64,
}

impl<T: LaneWeight> Batcher<T> {
    /// An empty batcher admitting at most `cap_lanes` queued lanes.
    pub fn new(cap_lanes: usize) -> Self {
        Self { queue: VecDeque::new(), lanes_queued: 0, cap_lanes, shed: 0, admitted: 0 }
    }

    /// Admits `job` (stamped with arrival time `now`) or sheds it.
    ///
    /// # Errors
    /// Returns the job back when admitting it would exceed the lane
    /// cap; the caller owes the client an `overloaded` response.
    pub fn offer(&mut self, job: T, now: Instant) -> Result<(), T> {
        let w = job.lanes();
        debug_assert!(
            (1..=LANES).contains(&w),
            "jobs are 1..=LANES lanes wide (enforced at request parse)"
        );
        if self.lanes_queued + w > self.cap_lanes {
            self.shed += 1;
            return Err(job);
        }
        self.lanes_queued += w;
        self.admitted += 1;
        self.queue.push_back((job, now));
        Ok(())
    }

    /// Pops whole jobs FIFO into `out` (cleared first) until the widest
    /// plane ([`MAX_LANES`]) is full or the next job would not fit.
    /// Returns the lane total. Empty queue → 0 lanes, empty `out`.
    pub fn cut_plane(&mut self, out: &mut Vec<(T, Instant)>) -> usize {
        out.clear();
        let mut lanes = 0usize;
        while let Some((job, _)) = self.queue.front() {
            let w = job.lanes();
            if lanes + w > MAX_LANES {
                break;
            }
            lanes += w;
            out.push(self.queue.pop_front().expect("front exists"));
            if lanes == MAX_LANES {
                break;
            }
        }
        self.lanes_queued -= lanes;
        lanes
    }

    /// Lanes currently queued (summed over jobs).
    pub fn lanes_queued(&self) -> usize {
        self.lanes_queued
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Jobs shed since construction.
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Jobs admitted since construction.
    pub fn admitted_count(&self) -> u64 {
        self.admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct J(usize);
    impl LaneWeight for J {
        fn lanes(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn admission_sheds_past_the_lane_cap() {
        let t0 = Instant::now();
        let mut b = Batcher::new(10);
        assert!(b.offer(J(6), t0).is_ok());
        assert!(b.offer(J(4), t0).is_ok());
        let rejected = b.offer(J(1), t0);
        assert!(rejected.is_err(), "cap is lanes, not jobs");
        assert_eq!(b.shed_count(), 1);
        assert_eq!(b.admitted_count(), 2);
        assert_eq!(b.lanes_queued(), 10);
    }

    #[test]
    fn cut_plane_pops_whole_jobs_up_to_512_lanes() {
        let t0 = Instant::now();
        let mut b = Batcher::new(2000);
        for _ in 0..7 {
            b.offer(J(64), t0).unwrap(); // 448 lanes
        }
        b.offer(J(40), t0).unwrap(); // 488
        b.offer(J(30), t0).unwrap(); // would overflow: stays queued
        b.offer(J(4), t0).unwrap(); // FIFO: not reordered around the 30
        let mut out = Vec::new();
        assert_eq!(b.cut_plane(&mut out), 488);
        assert_eq!(out.len(), 8, "jobs are never split and never reordered");
        assert_eq!(b.lanes_queued(), 34);
        assert_eq!(b.cut_plane(&mut out), 34);
        assert!(b.is_empty());
        assert_eq!(b.cut_plane(&mut out), 0);
    }

    #[test]
    fn exact_fill_stops_at_the_plane_boundary() {
        let t0 = Instant::now();
        let mut b = Batcher::new(1000);
        for _ in 0..520 {
            b.offer(J(1), t0).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(b.cut_plane(&mut out), MAX_LANES);
        assert_eq!(out.len(), MAX_LANES);
        assert_eq!(b.lanes_queued(), 8);
    }

    #[test]
    fn wide_planes_drain_a_backlog_in_one_cut() {
        let t0 = Instant::now();
        let mut b = Batcher::new(1000);
        for _ in 0..5 {
            b.offer(J(60), t0).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(b.cut_plane(&mut out), 300);
        assert!(b.is_empty(), "one wide cut drains the whole backlog");
    }
}
