//! The SQPeer distributed execution engine (paper §2.4–§2.5, §3).
//!
//! This crate implements the peer state machine that runs inside the
//! network simulator: the [`PeerNode`] plugs into
//! [`sqpeer_net::Simulator`] and implements, per peer role,
//!
//! * query intake from client-peers,
//! * routing — locally (ad-hoc mode, over the peer's pulled neighbourhood
//!   advertisements) or delegated to a super-peer (hybrid mode),
//! * plan generation and (optional) optimisation,
//! * plan execution over ubQL channels: remote fetches and shipped join
//!   subplans, streaming `Data` packets dest → root, union/join assembly,
//! * **interleaved routing and processing** for partial plans with holes
//!   (§3.2, Figure 7): a peer receiving a plan it cannot complete fills
//!   what it can from local knowledge and forwards the rest,
//! * **run-time adaptation** (§2.5): on channel failure the root discards
//!   intermediate results (the ubQL approach), excludes the obsolete peer
//!   and re-runs routing + processing.

pub mod local;
pub mod msg;
pub mod obs;
pub mod peer;

pub use local::{default_workers, eval_local, eval_local_threads};
pub use msg::{HierScope, Msg, PeerChannel, QueryId, QueryOutcome, TraceCtx};
pub use obs::{ObsConfig, ObsState, SlowQuery};
pub use peer::{BaseKind, ClusterInfo, PeerConfig, PeerMode, PeerNode, Role, SlowChannelPolicy};
pub use sqpeer_cache::{CacheConfig, CacheStats};
pub use sqpeer_plan::Explain;
pub use sqpeer_trace::{spans_well_nested, stitched_well_nested, QueryProfile, TraceEvent, Tracer};

use sqpeer_net::{Ctx, Transport};
use sqpeer_routing::PeerId;

/// Maps a routing-level [`PeerId`](sqpeer_routing::PeerId) onto its
/// simulator node (the two id spaces coincide by construction).
pub fn node_of(peer: PeerId) -> sqpeer_net::NodeId {
    sqpeer_net::NodeId(peer.0)
}

/// Maps a simulator node id back to the routing-level peer id.
pub fn peer_of(node: sqpeer_net::NodeId) -> PeerId {
    PeerId(node.0)
}

/// Injects `msg` from `from` to `to` on a driver's transport, charged
/// [`Msg::wire_size`] bytes — the driver-side twin of `send`.
pub fn inject<T: Transport<PeerNode>>(transport: &mut T, from: PeerId, to: PeerId, msg: Msg) {
    let bytes = msg.wire_size();
    transport.inject(node_of(from), node_of(to), msg, bytes);
}

/// Sends `msg` to `to` from inside a peer handler, charged
/// [`Msg::wire_size`] bytes. Together with [`broadcast`] and [`inject`]
/// this is the only place a message's byte charge is decided; the charge
/// is returned for the root's per-query byte counters.
pub(crate) fn send(ctx: &mut Ctx<Msg>, to: PeerId, msg: Msg) -> usize {
    let bytes = msg.wire_size();
    ctx.send(node_of(to), msg, bytes);
    bytes
}

/// Sends one copy of `msg` to each of `to`, in order, sized once.
/// Returns the per-copy byte charge.
pub(crate) fn broadcast(ctx: &mut Ctx<Msg>, to: &[PeerId], msg: Msg) -> usize {
    let bytes = msg.wire_size();
    for &peer in to {
        ctx.send(node_of(peer), msg.clone(), bytes);
    }
    bytes
}
