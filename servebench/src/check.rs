//! After-the-run correctness: every logged lane reply against a scalar
//! `QueryProcessor` run on a mirror database.
//!
//! A lane is logged with the state its connection's acked in-footprint
//! updates, replayed in send order, left its constant in (see `load`).
//! The mirror is the base KB with those facts inserted for the lane's
//! constant, which is the state the server answered it in: connections
//! query disjoint constants, a query's answer depends only on facts
//! about its own constant, and one connection's requests are served in
//! order.

use std::collections::HashMap;
use std::io::{BufRead as _, BufReader};

use qpl_datalog::parser::parse_query;
use qpl_datalog::{Fact, Term};
use qpl_engine::{QueryAnswer, QueryProcessor};
use qpl_graph::context::RunScratch;
use qpl_serve::{JsonValue, ServeEngine};

use crate::gen::Plan;

/// The lane log line `constant<TAB>state<TAB>text`.
fn parse_line(line: &str) -> Option<(u32, u8, &str)> {
    let mut parts = line.splitn(3, '\t');
    let constant = parts.next()?.parse().ok()?;
    let state = parts.next()?.parse().ok()?;
    Some((constant, state, parts.next()?))
}

/// Checks one connection's lane log; returns the number of lanes
/// checked and a description of every wrong lane.
pub fn check_connection(
    plan: &Plan,
    mut engine: ServeEngine,
    log: &std::path::Path,
) -> Result<(usize, Vec<String>), String> {
    let qp = QueryProcessor::left_to_right(&engine.compiled);
    let total_cost = engine.compiled.graph.total_cost();
    let mut scratch = RunScratch::new(&engine.compiled.graph);
    let mut wrong = Vec::new();
    let file = std::fs::File::open(log).map_err(|e| format!("{}: {e}", log.display()))?;
    // Per constant, the in-footprint facts the mirror holds beyond the
    // base KB.
    let mut mirror: HashMap<u32, u8> = HashMap::new();
    let mut checked = 0;
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("{}: {e}", log.display()))?;
        let (constant, state, text) =
            parse_line(&line).ok_or_else(|| format!("bad lane log line {line:?}"))?;
        checked += 1;
        let name = plan.name(constant);
        let held = mirror.entry(constant).or_insert(0);
        for (i, pred) in plan.edb.iter().enumerate() {
            let bit = 1u8 << i;
            if (*held ^ state) & bit == 0 {
                continue;
            }
            let atom =
                parse_query(&format!("{pred}({name})"), &mut engine.table).expect("fact parses");
            let args = atom
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(s) => *s,
                    Term::Var(_) => unreachable!("generated facts are ground"),
                })
                .collect();
            let fact = Fact::new(atom.predicate, args);
            if state & bit != 0 {
                engine.db.insert(fact).expect("mirror insert");
            } else {
                engine.db.retract(fact).expect("mirror retract");
            }
        }
        *held = state;
        let query = parse_query(&format!("q0({name})"), &mut engine.table).expect("query parses");
        let (want, want_cost) = match qp.run_into(&query, &engine.db, &mut scratch) {
            Ok(QueryAnswer::Yes(_)) => ("yes", None),
            Ok(QueryAnswer::No) => ("no", Some(scratch.cost())),
            Err(e) => {
                wrong.push(format!("reference run failed for {name}: {e}"));
                continue;
            }
        };
        let problem = match JsonValue::parse(text) {
            Err(e) => Some(format!("unparsable lane ({e})")),
            Ok(lane) => {
                let answer = lane.get("answer").and_then(JsonValue::as_str);
                let cost = lane.get("cost").and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
                let witness = lane.get("witness").and_then(JsonValue::as_str);
                if answer != Some(want) {
                    Some(format!("answered {answer:?}, reference says {want}"))
                } else if !(cost >= 1.0 && cost <= total_cost) {
                    Some(format!("cost {cost} outside [1, {total_cost}]"))
                } else if want_cost.is_some_and(|c| c != cost) {
                    // A failing search attempts every arc under any
                    // strategy, so its cost is strategy-invariant.
                    Some(format!("no-answer cost {cost}, reference {want_cost:?}"))
                } else if let Some(w) = witness {
                    let ok = w.ends_with(&format!("({name})"))
                        && parse_query(w, &mut engine.table)
                            .is_ok_and(|a| engine.db.contains_atom(&a));
                    (!ok).then(|| format!("witness {w} is not a fact about {name}"))
                } else if want == "yes" {
                    Some("yes without a witness".to_string())
                } else {
                    None
                }
            }
        };
        if let Some(p) = problem {
            wrong.push(format!("q0({name}) in state {state}: {p}: {text}"));
        }
    }
    Ok((checked, wrong))
}
