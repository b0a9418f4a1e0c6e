//! Synchronous local evaluation of the fully-local parts of a plan.
//!
//! Independent branches of `Union`/`Join` nodes carry no data dependencies
//! on each other, so [`eval_local_threads`] fans them out over a small
//! [`std::thread::scope`] worker pool. The fan-out happens strictly inside
//! one simulator event — the discrete-event simulator's virtual-time
//! semantics are untouched, only the wall-clock cost of processing the
//! event shrinks. Results are collected in input order, so evaluation is
//! deterministic regardless of worker count.
//!
//! Branches are claimed from a shared work-queue (an atomic cursor), not
//! chunked contiguously: with skewed branch costs a contiguous chunking
//! leaves whole workers idle while one grinds through the expensive
//! chunk, which is exactly the E16 `union_ms_by_workers` regression.
//! Fan-out is also skipped entirely when the host has a single core or
//! the statistics-estimated workload is below [`SPAWN_COST_FLOOR`] —
//! thread spawn plus cache-cold evaluation costs more than it saves on
//! small extents.

use crate::peer::BaseKind;
use sqpeer_plan::{PlanNode, Site};
use sqpeer_routing::PeerId;
use sqpeer_rql::{evaluate, ResultSet};
use sqpeer_store::BaseStatistics;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The host's core count, read once per process: the standard library
/// re-reads cgroup files on every call, which a per-subplan lookup would
/// pay on every evaluation.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Worker threads used by [`eval_local`]: the machine's parallelism,
/// capped low — plan trees rarely have more than a handful of independent
/// branches and the simulator runs many peers on one host.
pub fn default_workers() -> usize {
    host_cores().min(4)
}

/// Evaluates a plan subtree entirely at `me`, assuming every fetch site is
/// `me` (callers guarantee this; foreign sites evaluate to empty with a
/// debug assertion, which keeps release behaviour total).
pub fn eval_local(plan: &PlanNode, me: PeerId, base: &BaseKind) -> ResultSet {
    eval_local_threads(plan, me, base, default_workers())
}

/// [`eval_local`] with an explicit worker count. `workers <= 1` evaluates
/// sequentially; otherwise the direct children of each `Union`/`Join` node
/// split over up to `workers` scoped threads (each branch then recursing
/// sequentially — the fan-out at the root is where the width is).
pub fn eval_local_threads(
    plan: &PlanNode,
    me: PeerId,
    base: &BaseKind,
    workers: usize,
) -> ResultSet {
    match plan {
        PlanNode::Fetch { subquery, site } => {
            debug_assert_eq!(*site, Site::Peer(me), "eval_local on a non-local fetch");
            base.with_materialized(|db| evaluate(&subquery.query, db))
        }
        PlanNode::Union(inputs) => {
            let mut parts = eval_branches(inputs, me, base, workers).into_iter();
            let Some(mut acc) = parts.next() else {
                return ResultSet::default();
            };
            let rest: Vec<ResultSet> = parts.collect();
            acc.union_all(&rest);
            acc
        }
        PlanNode::Join { inputs, .. } => {
            let mut parts = eval_branches(inputs, me, base, workers).into_iter();
            let Some(mut acc) = parts.next() else {
                return ResultSet::default();
            };
            for part in parts {
                acc = acc.join(&part);
            }
            acc
        }
    }
}

/// Estimated triples the branches must touch before a thread fan-out can
/// pay for itself: below this, spawn latency and cache-cold workers lose
/// to just evaluating inline.
const SPAWN_COST_FLOOR: usize = 4_096;

/// Statistics-estimated evaluation cost of one branch: the sum of the
/// (subsumption-closed) extent sizes its fetches scan. Crude but cheap —
/// it only has to separate "toy extent" from "worth a thread".
fn branch_cost(plan: &PlanNode, stats: &BaseStatistics) -> usize {
    match plan {
        PlanNode::Fetch { subquery, .. } => subquery
            .query
            .patterns()
            .iter()
            .map(|p| stats.property_closed(p.property).triples)
            .sum(),
        PlanNode::Union(inputs) | PlanNode::Join { inputs, .. } => {
            inputs.iter().map(|i| branch_cost(i, stats)).sum()
        }
    }
}

/// Evaluates sibling subtrees, in input order, across up to `workers`
/// scoped threads pulling branch indices from a shared atomic cursor
/// (self-balancing under skewed branch costs). Falls back to inline,
/// sequential evaluation on single-core hosts and for workloads under
/// [`SPAWN_COST_FLOOR`].
fn eval_branches(
    inputs: &[PlanNode],
    me: PeerId,
    base: &BaseKind,
    workers: usize,
) -> Vec<ResultSet> {
    // Never spawn more workers than the host can actually run: extra
    // threads only add scheduling churn (the E16 1-core regression).
    let workers = workers.min(host_cores()).min(inputs.len());
    let inline = || {
        inputs
            .iter()
            .map(|i| eval_local_threads(i, me, base, 1))
            .collect()
    };
    if workers <= 1 || inputs.len() <= 1 {
        return inline();
    }
    let stats = base.with_materialized(|db| db.statistics());
    let total: usize = inputs.iter().map(|i| branch_cost(i, &stats)).sum();
    if total < SPAWN_COST_FLOOR {
        return inline();
    }
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<ResultSet>> = (0..inputs.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= inputs.len() {
                            break;
                        }
                        mine.push((i, eval_local_threads(&inputs[i], me, base, 1)));
                    }
                    mine
                })
            })
            .collect();
        for handle in handles {
            for (i, rs) in handle.join().expect("branch worker panicked") {
                results[i] = Some(rs);
            }
        }
    });
    // Scatter by index keeps input order regardless of claim order.
    results.into_iter().map(|r| r.unwrap_or_default()).collect()
}

/// Is every fetch of this subtree evaluable at `me` (and free of holes)?
pub fn fully_local(plan: &PlanNode, me: PeerId) -> bool {
    match plan {
        PlanNode::Fetch { site, .. } => *site == Site::Peer(me),
        PlanNode::Union(inputs) => inputs.iter().all(|i| fully_local(i, me)),
        PlanNode::Join { inputs, site } => {
            site.map(|s| s == me).unwrap_or(true) && inputs.iter().all(|i| fully_local(i, me))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_plan::Subquery;
    use sqpeer_rdfs::{Range, Resource, Schema, SchemaBuilder, Triple};
    use sqpeer_rql::compile;
    use sqpeer_store::DescriptionBase;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "u");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let c3 = b.class("C3").unwrap();
        let _ = b.property("p", c1, Range::Class(c2)).unwrap();
        let _ = b.property("q", c2, Range::Class(c3)).unwrap();
        Arc::new(b.finish().unwrap())
    }

    fn base(s: &Arc<Schema>) -> BaseKind {
        let p = s.property_by_name("p").unwrap();
        let q = s.property_by_name("q").unwrap();
        let mut db = DescriptionBase::new(Arc::clone(s));
        db.insert_described(Triple::new(Resource::new("a"), p, Resource::new("b")));
        db.insert_described(Triple::new(Resource::new("b"), q, Resource::new("c")));
        BaseKind::Materialized(db)
    }

    fn fetch(s: &Arc<Schema>, src: &str, peer: u32) -> PlanNode {
        PlanNode::Fetch {
            subquery: Subquery {
                covers: vec![0],
                query: compile(src, s).unwrap(),
            },
            site: Site::Peer(PeerId(peer)),
        }
    }

    #[test]
    fn local_join_and_union() {
        let s = schema();
        let b = base(&s);
        let me = PeerId(1);
        let plan = PlanNode::join(vec![
            fetch(&s, "SELECT X, Y FROM {X}p{Y}", 1),
            fetch(&s, "SELECT Y, Z FROM {Y}q{Z}", 1),
        ]);
        let rs = eval_local(&plan, me, &b);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.columns, vec!["X", "Y", "Z"]);

        let union = PlanNode::Union(vec![
            fetch(&s, "SELECT X, Y FROM {X}p{Y}", 1),
            fetch(&s, "SELECT X, Y FROM {X}p{Y}", 1),
        ]);
        let rs = eval_local(&union, me, &b);
        assert_eq!(rs.len(), 1, "union dedups identical branches");
    }

    #[test]
    fn threaded_union_matches_sequential() {
        let s = schema();
        let b = base(&s);
        let me = PeerId(1);
        // A wide union (more branches than workers) must produce the same
        // result at every worker count, including join subtrees.
        let wide = PlanNode::Union(
            (0..7)
                .map(|_| fetch(&s, "SELECT X, Y FROM {X}p{Y}", 1))
                .collect(),
        );
        let seq = eval_local_threads(&wide, me, &b, 1);
        for workers in [2, 4, 8] {
            assert_eq!(eval_local_threads(&wide, me, &b, workers), seq);
        }
        assert_eq!(eval_local(&wide, me, &b), seq);
    }

    #[test]
    fn fully_local_detection() {
        let s = schema();
        let me = PeerId(1);
        assert!(fully_local(&fetch(&s, "SELECT X, Y FROM {X}p{Y}", 1), me));
        assert!(!fully_local(&fetch(&s, "SELECT X, Y FROM {X}p{Y}", 2), me));
        let hole = PlanNode::Fetch {
            subquery: Subquery {
                covers: vec![0],
                query: compile("SELECT X, Y FROM {X}p{Y}", &s).unwrap(),
            },
            site: Site::Hole,
        };
        assert!(!fully_local(&hole, me));
        let mixed = PlanNode::join(vec![
            fetch(&s, "SELECT X, Y FROM {X}p{Y}", 1),
            fetch(&s, "SELECT Y, Z FROM {Y}q{Z}", 2),
        ]);
        assert!(!fully_local(&mixed, me));
        // A join sited at another peer is not local even with local inputs.
        let foreign_join = PlanNode::Join {
            inputs: vec![fetch(&s, "SELECT X, Y FROM {X}p{Y}", 1)],
            site: Some(PeerId(3)),
        };
        assert!(!fully_local(&foreign_join, me));
    }
}
