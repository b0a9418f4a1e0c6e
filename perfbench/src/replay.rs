//! Engine replay: one query re-run through the layers' public functions.
//!
//! The traced run times each layer from outside by replaying a measured
//! query step by step — compile, route, plan, optimise, then the final
//! plan executed leaf by leaf (evaluate at the site, encode and decode
//! the partial result, union and join at the merge points) — with a span
//! around every call. The replayed answer must equal the distributed one,
//! which ties the per-layer numbers to the work the overlay really did.

use crate::trace::Tracer;
use sqpeer_plan::{generate_plan, optimize, CostParams, Estimator, PlanNode, Site, UniformCost};
use sqpeer_routing::{AdRegistry, PeerId, RoutingPolicy};
use sqpeer_rql::{compile, evaluate, ResultSet};
use sqpeer_store::DescriptionBase;
use sqpeer_wire::{decode_value, encode_value, SchemaRegistry};
use std::sync::Arc;

/// Work counters summed over every replayed query.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// Rows produced by `evaluate` at the plan's leaves.
    pub eval_rows: u64,
    /// Rows entering union and join merges.
    pub merge_rows_in: u64,
    /// Rows leaving union and join merges.
    pub merge_rows_out: u64,
    /// Advertisements in the registry each route scanned.
    pub ads_scanned: u64,
    /// Distinct peers annotated.
    pub peers_annotated: u64,
    /// Annotated (peer, pattern) pairs.
    pub annotated_pairs: u64,
    /// Annotated pairs whose single-pattern fetch returned rows.
    pub useful_pairs: u64,
    /// Fetch counts summed over the optimiser's report stages.
    pub candidate_fetches: u64,
    /// Fetches in the final plan.
    pub final_fetches: u64,
    /// Encoded partial-result bytes.
    pub wire_bytes: u64,
    /// Rows carried by those bytes.
    pub wire_rows: u64,
    /// Fetches whose site was a hole (never expected on these overlays).
    pub holes: u64,
}

/// Where a replay finds the overlay's state.
pub struct ReplayCtx<'a> {
    /// The community schema, as the wire codec resolves it.
    pub schemas: &'a SchemaRegistry,
    /// The schema queries compile against.
    pub schema: &'a Arc<sqpeer::rdfs::Schema>,
    /// Every peer's current advertisement.
    pub registry: &'a AdRegistry,
    /// The routing policy the peers run.
    pub policy: RoutingPolicy,
    /// A peer's current description base.
    pub base: &'a dyn Fn(PeerId) -> Option<&'a DescriptionBase>,
}

/// Replays `text` rooted at `root` and returns the final answer,
/// projected and sorted like the distributed outcome.
pub fn replay(
    ctx: &ReplayCtx<'_>,
    text: &str,
    root: PeerId,
    qid: u64,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> ResultSet {
    let (result, generated) = tracer.span("replay", qid, |t| {
        let query = t
            .span("rql.compile", qid, |_| compile(text, ctx.schema))
            .expect("benchmark queries compile");
        let annotated = t.span("routing.route", qid, |_| {
            ctx.registry.route(&query, ctx.policy)
        });
        counts.ads_scanned += ctx.registry.len() as u64;
        counts.peers_annotated += annotated.all_peers().len() as u64;

        let plan = t.span("plan.generate", qid, |_| generate_plan(&annotated));
        let generated = plan.clone();
        let mut estimator = Estimator::new(CostParams::default());
        for ad in ctx.registry.advertisements() {
            if let Some(stats) = &ad.stats {
                estimator.set_stats(ad.peer, stats.clone());
            }
        }
        let (optimized, report) = t.span("plan.optimize", qid, |_| {
            optimize(plan, root, &estimator, &UniformCost::default())
        });
        counts.candidate_fetches += report.stages.iter().map(|s| s.2 as u64).sum::<u64>();
        counts.final_fetches += optimized.fetch_count() as u64;

        let result = execute(ctx, &optimized, qid, t, counts);
        let names: Vec<String> = query
            .projection()
            .iter()
            .map(|&v| query.var_name(v).to_string())
            .collect();
        (result.project(&names), generated)
    });

    // Off the replay's clock: the generated plan holds exactly one fetch
    // per annotated (peer, pattern) pair, and a pair is useful when its
    // fetch returns rows.
    generated.visit(&mut |node| {
        if let PlanNode::Fetch {
            subquery,
            site: Site::Peer(p),
        } = node
        {
            counts.annotated_pairs += 1;
            if (ctx.base)(*p).is_some_and(|b| !evaluate(&subquery.query, b).is_empty()) {
                counts.useful_pairs += 1;
            }
        }
    });
    result.sorted()
}

fn execute(
    ctx: &ReplayCtx<'_>,
    node: &PlanNode,
    qid: u64,
    t: &mut Tracer,
    counts: &mut ReplayCounts,
) -> ResultSet {
    match node {
        PlanNode::Fetch {
            subquery,
            site: Site::Peer(p),
        } => {
            let Some(base) = (ctx.base)(*p) else {
                return ResultSet::empty(Vec::new());
            };
            let rows = t.span("rql.eval", qid, |_| evaluate(&subquery.query, base));
            counts.eval_rows += rows.len() as u64;
            let bytes = t.span("wire.encode", qid, |_| encode_value(&rows));
            let back: ResultSet = t
                .span("wire.decode", qid, |_| decode_value(&bytes, ctx.schemas))
                .expect("a result the codec encoded decodes");
            counts.wire_bytes += bytes.len() as u64;
            counts.wire_rows += back.len() as u64;
            back
        }
        PlanNode::Fetch {
            site: Site::Hole, ..
        } => {
            counts.holes += 1;
            ResultSet::empty(Vec::new())
        }
        PlanNode::Union(inputs) => t.span("rql.merge", qid, |t| {
            let parts: Vec<ResultSet> = inputs
                .iter()
                .map(|n| execute(ctx, n, qid, t, counts))
                .collect();
            counts.merge_rows_in += parts.iter().map(|p| p.len() as u64).sum::<u64>();
            let columns = parts.first().map(|p| p.columns.clone()).unwrap_or_default();
            let mut acc = ResultSet::empty(columns);
            acc.union_all(&parts);
            counts.merge_rows_out += acc.len() as u64;
            acc
        }),
        PlanNode::Join { inputs, .. } => t.span("rql.merge", qid, |t| {
            let parts: Vec<ResultSet> = inputs
                .iter()
                .map(|n| execute(ctx, n, qid, t, counts))
                .collect();
            counts.merge_rows_in += parts.iter().map(|p| p.len() as u64).sum::<u64>();
            let mut parts = parts.into_iter();
            let first = parts.next().unwrap_or_default();
            let joined = parts.fold(first, |acc, p| acc.join(&p));
            counts.merge_rows_out += joined.len() as u64;
            joined
        }),
    }
}
