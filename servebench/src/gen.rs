//! Seeded workload generation: the knowledge-base text the server
//! loads and the operation stream each client connection sends.
//!
//! The server only ever sees the text produced here. Every shape
//! statistic that moves a metric (fact counts, the share of queried
//! constants present in the KB, the predicate skew) is fixed by
//! construction; the seed only chooses *which* constants and in what
//! order, so runs on different seeds measure the same workload.

use std::fmt::Write as _;

/// Query lanes per batch request.
pub const BATCH: usize = 32;
/// Client connections (and client threads) driving the load.
pub const CONNS: usize = 2;

/// SplitMix64: a tiny, seedable, dependency-free generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Hot,
    Cold,
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Hot, Workload::Cold, Workload::Churn];

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot",
            Workload::Cold => "cold",
            Workload::Churn => "churn",
        }
    }
}

/// Load shape per workload: the open-loop rate and the operation mix.
#[derive(Debug, Clone)]
pub struct Load {
    /// Fixed open-loop rate for the latency phase, requests/s over both
    /// connections. It sits well below capacity even when the host runs
    /// several times slower than usual, so the latency metrics measure
    /// the serving path rather than queueing near saturation.
    pub open_rate: f64,
    /// Every `update_every`-th operation on a connection is an update
    /// (0 = never).
    pub update_every: u64,
    /// Every `checkpoint_every`-th operation on connection 0 is a
    /// checkpoint (0 = never).
    pub checkpoint_every: u64,
    /// Requests replayed per connection by the traced run.
    pub replay_ops: u64,
}

/// One extensional fact change sent in an `update`.
#[derive(Debug, Clone)]
pub struct FactChange {
    pub insert: bool,
    pub pred: String,
    pub constant: u32,
    /// `1 << i` for the predicate `Plan::edb[i]`.
    pub bit: u8,
}

/// One operation a connection sends.
#[derive(Debug, Clone)]
pub enum Op {
    Query { line: String, lanes: Vec<u32> },
    Update { line: String, change: FactChange },
    Checkpoint { line: String },
}

impl Op {
    pub fn line(&self) -> &str {
        match self {
            Op::Query { line, .. } | Op::Update { line, .. } | Op::Checkpoint { line } => line,
        }
    }
}

/// Everything a run needs, derived from `(workload, seed, seconds)`.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub kb: String,
    pub form: &'static str,
    pub layers: usize,
    pub rules: usize,
    pub facts: usize,
    /// Names of the constants with ids `0..names.len()`; larger ids are
    /// absent constants named `z{id - names.len()}`.
    pub names: Vec<String>,
    /// Constants present in the KB.
    pub present: usize,
    /// The extensional predicates the compiled graph retrieves.
    pub edb: Vec<String>,
    pub load: Load,
    /// Per connection: the constant ids it queries (hot / churn) — the
    /// connections' sets are disjoint so each one's answers depend only
    /// on its own updates.
    conn_constants: Vec<Vec<u32>>,
    /// Cold: the present-pool order each connection walks.
    cold_pool: Vec<Vec<u32>>,
    /// Churn: per connection, the `(edb index, constant)` facts absent
    /// from the base KB that its updates toggle.
    toggles: Vec<Vec<(usize, u32)>>,
}

/// Share of cold query constants that are present in the KB, as
/// `PRESENT_NUM / PRESENT_DEN`.
pub const COLD_PRESENT_NUM: u64 = 1;
pub const COLD_PRESENT_DEN: u64 = 3;
/// Cold present constants (one fact each): enough for about 450k
/// queries, more than a 45 s run serves. Runs shorter than 10 s (smoke
/// tests) get a proportionally smaller KB.
const COLD_POOL: usize = 150_000;
/// Cold facts per extensional predicate, in tenths of the present pool
/// (the last predicate in left-to-right order gets the most).
const COLD_SKEW: [usize; 3] = [1, 2, 7];

/// The rule text of a layered KB: `q0` at the top, `rules` alternative
/// rules per derived predicate, `layers` layers, bottoming out in
/// `rules` extensional predicates `e{layers}_{i}`.
fn layered_rules(layers: usize, rules: usize, out: &mut String) -> Vec<String> {
    let widths: Vec<usize> = std::iter::once(1).chain((1..=layers).map(|_| rules)).collect();
    for l in 0..layers {
        for i in 0..widths[l] {
            let head = if l == 0 { "q0".to_string() } else { format!("p{l}_{i}") };
            for j in 0..rules {
                let child = if l + 1 == layers {
                    format!("e{}_{}", l + 1, (i * rules + j) % widths[l + 1])
                } else {
                    format!("p{}_{}", l + 1, j)
                };
                let _ = writeln!(out, "{head}(X) :- {child}(X).");
            }
        }
    }
    (0..rules).map(|i| format!("e{layers}_{i}")).collect()
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Plan {
        let mut rng = Rng::new(seed.wrapping_mul(3).wrapping_add(workload as u64));
        match workload {
            Workload::Hot | Workload::Churn => Self::layered_20(workload, seed, &mut rng),
            Workload::Cold => Self::cold(seed, seconds, &mut rng),
        }
    }

    /// The default serving shape (3 layers x 2 rules, 20 constants, 6
    /// facts per extensional predicate). The seed shuffles the
    /// constants; the first six get `e3_0`, the fourth to ninth `e3_1`,
    /// so exactly 9 constants are present and 3 of them in both.
    fn layered_20(workload: Workload, seed: u64, rng: &mut Rng) -> Plan {
        let mut kb = String::new();
        let edb = layered_rules(3, 2, &mut kb);
        let names: Vec<String> = (0..20).map(|i| format!("c{i}")).collect();
        let mut order: Vec<u32> = (0..20).collect();
        rng.shuffle(&mut order);
        let mut base = Vec::new();
        for &c in &order[0..6] {
            base.push((0, c));
        }
        for &c in &order[3..9] {
            base.push((1, c));
        }
        for (p, c) in &base {
            let _ = writeln!(kb, "{}({}).", edb[*p], names[*c as usize]);
        }
        // Alternate the shuffled order between connections: each gets
        // 10 constants, the present ones split as evenly as possible.
        let conn_constants: Vec<Vec<u32>> =
            (0..CONNS).map(|k| order.iter().skip(k).step_by(CONNS).copied().collect()).collect();
        let toggles = conn_constants
            .iter()
            .map(|cs| {
                let mut t = Vec::new();
                for &c in cs {
                    for p in 0..edb.len() {
                        if !base.contains(&(p, c)) {
                            t.push((p, c));
                        }
                    }
                }
                t
            })
            .collect();
        let load = match workload {
            Workload::Churn => {
                Load { open_rate: 800.0, update_every: 8, checkpoint_every: 2000, replay_ops: 3000 }
            }
            _ => Load { open_rate: 500.0, update_every: 0, checkpoint_every: 0, replay_ops: 3000 },
        };
        Plan {
            workload,
            seed,
            kb,
            form: "q0(b)",
            layers: 3,
            rules: 2,
            facts: base.len(),
            names,
            present: 9,
            edb,
            load,
            conn_constants,
            cold_pool: Vec::new(),
            toggles,
        }
    }

    /// About 200 arcs (4 layers x 3 rules). Present constants `k{i}`
    /// each get one fact, split 10% / 20% / 70% over `e4_0..e4_2`, so
    /// the left-to-right strategy tries the rarest predicate first and
    /// PIB has a climb to find.
    fn cold(seed: u64, seconds: u64, rng: &mut Rng) -> Plan {
        let mut kb = String::new();
        let edb = layered_rules(4, 3, &mut kb);
        let pool = COLD_POOL.min(COLD_POOL * seconds.max(1) as usize / 10);
        let names: Vec<String> = (0..pool).map(|i| format!("k{i}")).collect();
        let mut preds: Vec<usize> = Vec::with_capacity(pool);
        for (p, tenths) in COLD_SKEW.iter().enumerate() {
            preds.extend(std::iter::repeat_n(p, pool * tenths / 10));
        }
        preds.resize(pool, COLD_SKEW.len() - 1);
        rng.shuffle(&mut preds);
        for (i, &p) in preds.iter().enumerate() {
            let _ = writeln!(kb, "{}(k{i}).", edb[p]);
        }
        let mut order: Vec<u32> = (0..pool as u32).collect();
        rng.shuffle(&mut order);
        let cold_pool =
            (0..CONNS).map(|k| order.iter().skip(k).step_by(CONNS).copied().collect()).collect();
        Plan {
            workload: Workload::Cold,
            seed,
            kb,
            form: "q0(b)",
            layers: 4,
            rules: 3,
            facts: pool,
            names,
            present: pool,
            edb,
            load: Load { open_rate: 100.0, update_every: 0, checkpoint_every: 0, replay_ops: 400 },
            conn_constants: Vec::new(),
            cold_pool,
            toggles: Vec::new(),
        }
    }

    /// The text name of constant `id`.
    pub fn name(&self, id: u32) -> String {
        match self.names.get(id as usize) {
            Some(n) => n.clone(),
            None => format!("z{}", id as usize - self.names.len()),
        }
    }

    /// Whether constants recur within a run (they never do on cold).
    pub fn constants_repeat(&self) -> bool {
        self.workload != Workload::Cold
    }

    /// Connection `k`'s operation stream.
    pub fn stream(&self, k: usize) -> OpStream<'_> {
        OpStream {
            plan: self,
            conn: k,
            rng: Rng::new(self.seed ^ (0x1000 + k as u64).wrapping_mul(0x9e37_79b9)),
            ops: 0,
            queries: 0,
            pool_pos: 0,
            absent_next: k as u64,
            pending_retract: None,
        }
    }
}

/// A connection's deterministic operation stream. The same seed yields
/// the same sequence; how far a run gets into it depends on speed.
pub struct OpStream<'p> {
    plan: &'p Plan,
    conn: usize,
    rng: Rng,
    ops: u64,
    queries: u64,
    pool_pos: usize,
    absent_next: u64,
    pending_retract: Option<FactChange>,
}

impl OpStream<'_> {
    /// Times a cold stream ran out of present constants and reused its
    /// pool from the start (0 on a correctly sized run).
    pub fn pool_wraps(&self) -> usize {
        self.plan.cold_pool.get(self.conn).map_or(0, |p| self.pool_pos / p.len().max(1))
    }

    /// The next operation. Checkpoints are only due when
    /// `checkpoints` is set: the closed loop and the replay take them,
    /// the latency-timed open loop does not, since one checkpoint
    /// (snapshot write, fsync, rename) stalls the shard for tens of ms
    /// on a slow disk and would decide a whole ladder rung.
    pub fn next_op(&mut self, checkpoints: bool) -> Op {
        self.ops += 1;
        let load = &self.plan.load;
        if checkpoints
            && self.conn == 0
            && load.checkpoint_every > 0
            && self.ops.is_multiple_of(load.checkpoint_every)
        {
            return Op::Checkpoint { line: r#"{"kind":"checkpoint"}"#.to_string() };
        }
        if load.update_every > 0 && self.ops.is_multiple_of(load.update_every) {
            return self.update();
        }
        self.query()
    }

    /// Updates come in insert/retract pairs of one fact inside the
    /// compiled graph's footprint, so each one invalidates the memo while
    /// the KB oscillates around its base state and costs stay stationary.
    fn update(&mut self) -> Op {
        let change = match self.pending_retract.take() {
            Some(inserted) => FactChange { insert: false, ..inserted },
            None => {
                let t = &self.plan.toggles[self.conn];
                let (p, constant) = t[self.rng.below(t.len())];
                let pred = self.plan.edb[p].clone();
                let change = FactChange { insert: true, pred, constant, bit: 1 << p };
                self.pending_retract = Some(change.clone());
                change
            }
        };
        let fact = format!("{}({})", change.pred, self.plan.name(change.constant));
        let field = if change.insert { "insert" } else { "retract" };
        Op::Update { line: format!(r#"{{"kind":"update","{field}":["{fact}"]}}"#), change }
    }

    fn query(&mut self) -> Op {
        let mut lanes = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            lanes.push(self.next_constant());
        }
        let mut line = String::with_capacity(24 + 12 * BATCH);
        line.push_str(r#"{"kind":"batch","qs":["#);
        for (i, &c) in lanes.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "\"q0({})\"", self.plan.name(c));
        }
        line.push_str("]}");
        Op::Query { line, lanes }
    }

    fn next_constant(&mut self) -> u32 {
        self.queries += 1;
        if self.plan.workload != Workload::Cold {
            let cs = &self.plan.conn_constants[self.conn];
            return cs[self.rng.below(cs.len())];
        }
        // Exactly PRESENT_NUM of every PRESENT_DEN queries name a KB
        // constant (each once), the rest a fresh absent constant.
        let q = self.queries;
        let present = (q * COLD_PRESENT_NUM) / COLD_PRESENT_DEN
            > ((q - 1) * COLD_PRESENT_NUM) / COLD_PRESENT_DEN;
        if present {
            // A run that outlasts its pool (a much faster server)
            // wraps around; `pool_wraps` reports it.
            let pool = &self.plan.cold_pool[self.conn];
            let c = pool[self.pool_pos % pool.len()];
            self.pool_pos += 1;
            c
        } else {
            let id = self.plan.names.len() as u64 + self.absent_next;
            self.absent_next += CONNS as u64;
            u32::try_from(id).expect("absent constant ids fit in u32")
        }
    }
}
