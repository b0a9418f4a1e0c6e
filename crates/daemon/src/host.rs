//! The `sqpeerd` peer host: a tenant group behind real TCP.
//!
//! A host owns one [`LoopbackNet`] of [`PeerNode`]s (a tenant's peer
//! group) and exposes two sockets:
//!
//! * the **peer port** speaks the wire protocol: clients (the gateway)
//!   send [`Envelope`]d `ClientQuery` frames and receive the answer as a
//!   `Data` frame — the §2.4 result packet, which carries both the rows
//!   and the completeness flag;
//! * the **status port** serves the PR 5 telemetry snapshot as plain
//!   text: connect, read to EOF, done — `curl`-able without any HTTP
//!   machinery.
//!
//! Threading: one accept thread per listener, parked in a blocking
//! `accept`; a reader thread per peer connection; and one pump thread
//! that owns the transport. The pump wakes on work, never on a timer of
//! its own: it runs everything due ([`LoopbackNet::run_due`]), hands off
//! finished queries, then blocks on its command channel until a command
//! arrives or the next queued frame or timer falls due
//! ([`LoopbackNet::next_due_us`]). Connection threads send query
//! commands and block on a per-query reply channel, so several queries
//! can be in flight at once; the status thread sends a render command,
//! so the page reflects the pump's state at the moment it is requested.
//! Queries are posed at a member by the member itself, so the root keeps
//! the only copy of each answer; the hand-off moves it out of the root's
//! `outcomes`, and a host retains no answer once it has replied
//! (`retained_answers` on the status page).

use crate::accept::{spawn_acceptor, wake};
use crate::{assemble, group, Group, GroupSpec, LoopbackNet};
use sqpeer_exec::{Msg, PeerNode, QueryId};
use sqpeer_net::{Channel, ChannelId, ChannelState, Transport};
use sqpeer_routing::PeerId;
use sqpeer_rql::ResultSet;
use sqpeer_wire::{read_frame, write_frame, Envelope, SchemaRegistry};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How a host is set up.
pub struct HostConfig {
    /// Peer-port bind address (use port 0 to let the OS pick).
    pub listen: String,
    /// Optional status-port bind address.
    pub status: Option<String>,
    /// The tenant group to assemble.
    pub spec: GroupSpec,
    /// Telemetry window (µs); `None` disables collection.
    pub telemetry_window_us: Option<u64>,
    /// Transport time given to advertisement discovery at boot.
    pub settle_us: u64,
    /// Stream answers back to peer-port clients in batches of this many
    /// rows — each batch its own `Data` frame (`seq` ascending, `last`
    /// on the final one), paced [`ANSWER_PACE_US`] apart so downstream
    /// consumers observe a genuine first-batch-early arrival. `None`
    /// (the default) keeps the single-frame answer.
    pub answer_batch_rows: Option<usize>,
}

/// Real-time pacing between streamed answer frames on the peer port:
/// long enough that a client's first-row and total-latency clocks are
/// measurably apart, short enough to be negligible against query time.
pub const ANSWER_PACE_US: u64 = 1_000;

/// One in-flight query inside the pump.
struct InFlight {
    at: PeerId,
    reply: Sender<(ResultSet, bool)>,
}

/// Work for the pump, sent by the connection and status threads.
enum Command {
    /// Pose `query` at member `at`; the answer goes back on `reply`.
    Query {
        at: PeerId,
        query: sqpeer_rql::QueryPattern,
        reply: Sender<(ResultSet, bool)>,
    },
    /// Render the status page from the pump's current state.
    Status(Sender<String>),
    /// Stop the pump.
    Stop,
}

/// A running host.
pub struct HostHandle {
    /// The bound peer-port address.
    pub addr: SocketAddr,
    /// The bound status-port address, when configured.
    pub status_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    commands: Sender<Command>,
    threads: Vec<JoinHandle<()>>,
}

impl HostHandle {
    /// Stops the pump, wakes the accept threads and joins them all.
    /// Connection threads notice within their read timeout.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.commands.send(Command::Stop);
        wake(self.addr);
        if let Some(status) = self.status_addr {
            wake(status);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Boots a host: assembles the group on a fresh loopback transport,
/// binds the sockets, spawns the pump and accept threads.
pub fn spawn_host(config: HostConfig) -> io::Result<HostHandle> {
    let HostConfig {
        listen,
        status,
        spec,
        telemetry_window_us,
        settle_us,
        answer_batch_rows,
    } = config;

    let mut schemas = SchemaRegistry::new();
    schemas.register(Arc::clone(&spec.schema));
    let mut net: LoopbackNet<PeerNode> = LoopbackNet::new(schemas.clone());
    if let Some(window) = telemetry_window_us {
        net.enable_telemetry(window);
    }
    let group = assemble(&mut net, spec, settle_us);

    let listener = TcpListener::bind(&listen)?;
    let addr = listener.local_addr()?;
    let status_listener = status.as_deref().map(TcpListener::bind).transpose()?;
    let status_addr = status_listener
        .as_ref()
        .map(TcpListener::local_addr)
        .transpose()?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let (commands, command_rx) = channel::<Command>();
    let mut threads = Vec::new();
    // Peer-port connections accepted since boot: counted by the acceptor,
    // reported by the pump's status page.
    let peer_connections = Arc::new(AtomicU64::new(0));

    // Pump thread: owns the transport, poses queries, hands off answers,
    // renders the status page on request.
    let connections = Arc::clone(&peer_connections);
    threads.push(std::thread::spawn(move || {
        pump(net, group, command_rx, connections)
    }));

    // Peer-port accept thread: one reader thread per connection.
    let serve = {
        let (commands, shutdown) = (commands.clone(), Arc::clone(&shutdown));
        move |stream| {
            peer_connections.fetch_add(1, Ordering::Relaxed);
            let (commands, schemas) = (commands.clone(), schemas.clone());
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                serve_connection(stream, commands, schemas, shutdown, answer_batch_rows)
            });
        }
    };
    threads.push(spawn_acceptor(listener, Arc::clone(&shutdown), serve));

    // Status accept thread: asks the pump for a fresh page per request.
    if let Some(listener) = status_listener {
        let commands = commands.clone();
        let serve = move |mut stream: TcpStream| {
            let (reply, page) = channel();
            if commands.send(Command::Status(reply)).is_ok() {
                if let Ok(text) = page.recv() {
                    let _ = io::Write::write_all(&mut stream, text.as_bytes());
                }
            }
        };
        threads.push(spawn_acceptor(listener, Arc::clone(&shutdown), serve));
    }

    Ok(HostHandle {
        addr,
        status_addr,
        shutdown,
        commands,
        threads,
    })
}

/// The transport-owning loop: run what is due, hand off finished
/// queries, then sleep until a command arrives or the next frame or
/// timer falls due.
fn pump(
    mut net: LoopbackNet<PeerNode>,
    mut group: Group,
    commands: Receiver<Command>,
    peer_connections: Arc<AtomicU64>,
) {
    let mut in_flight: HashMap<QueryId, InFlight> = HashMap::new();
    let mut ttfr = QueryTtfr::default();
    loop {
        net.run_due();
        in_flight.retain(
            |&qid, flight| match group::take_outcome(&mut net, flight.at, qid) {
                Some(outcome) => {
                    if let Some(t) = outcome.ttfr_us {
                        ttfr.count += 1;
                        ttfr.sum_us += t;
                        ttfr.last_us = Some(t);
                    }
                    let _ = flight.reply.send((outcome.result, outcome.partial));
                    false
                }
                None => true,
            },
        );
        let command = match net.next_due_us() {
            Some(due) => {
                commands.recv_timeout(Duration::from_micros(due.saturating_sub(net.now_us())))
            }
            None => commands.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match command {
            // A query addressed to a non-member would never be answered:
            // dropping `reply` closes the client's connection instead.
            Ok(Command::Query { at, .. }) if !group.peers.contains(&at) => {}
            Ok(Command::Query { at, query, reply }) => {
                let qid = group::pose(&mut net, &mut group, at, query);
                in_flight.insert(qid, InFlight { at, reply });
            }
            Ok(Command::Status(reply)) => {
                let connections = peer_connections.load(Ordering::Relaxed);
                let _ = reply.send(render_status(&net, &group, &ttfr, connections));
            }
            Err(RecvTimeoutError::Timeout) => {}
            Ok(Command::Stop) | Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Aggregate per-query time-to-first-row, as seen by this host's roots.
#[derive(Debug, Default)]
struct QueryTtfr {
    count: u64,
    sum_us: u64,
    last_us: Option<u64>,
}

/// Renders the plain-text status page: counters plus the telemetry
/// snapshot's own rendering.
fn render_status(
    net: &LoopbackNet<PeerNode>,
    group: &Group,
    ttfr: &QueryTtfr,
    peer_connections: u64,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let m = net.metrics();
    let _ = writeln!(out, "sqpeerd status");
    let _ = writeln!(out, "now_us {}", net.now_us());
    let _ = writeln!(out, "messages {}", m.total_messages());
    let _ = writeln!(out, "bytes {}", m.total_bytes());
    let _ = writeln!(out, "dropped {}", m.dropped());
    let _ = writeln!(out, "retries {}", m.retries_sent());
    let _ = writeln!(out, "replans {}", m.replans());
    let _ = writeln!(out, "decode_failures {}", net.decode_failures());
    // Streaming counters, folded across the hosted nodes: the high-water
    // in-flight mark (bounded by the credit window) and total credits
    // granted by consumers.
    let (mut max_inflight, mut credits) = (0u32, 0u64);
    for id in net.node_ids() {
        if let Some(node) = net.node(id) {
            max_inflight = max_inflight.max(node.max_stream_inflight);
            credits += node.credits_granted;
        }
    }
    let _ = writeln!(out, "max_stream_inflight {max_inflight}");
    let _ = writeln!(out, "credits_granted {credits}");
    let _ = writeln!(
        out,
        "retained_answers {}",
        group::retained_answers(net, group)
    );
    let _ = writeln!(out, "query_ttfr_count {}", ttfr.count);
    if let Some(mean) = ttfr.sum_us.checked_div(ttfr.count) {
        let _ = writeln!(out, "query_ttfr_mean_us {mean}");
    }
    if let Some(last) = ttfr.last_us {
        let _ = writeln!(out, "query_ttfr_last_us {last}");
    }
    match net.telemetry_snapshot() {
        Some(t) => {
            let _ = writeln!(out, "telemetry_links {}", t.len());
            out.push_str(&t.render());
        }
        None => {
            let _ = writeln!(out, "telemetry off");
        }
    }
    // Steady-state costs: connections a pooling client keeps reusing,
    // and the roots' plan cache, summed over the members.
    let _ = writeln!(out, "peer_connections {peer_connections}");
    let (mut plan_hits, mut plan_misses) = (0u64, 0u64);
    for id in net.node_ids() {
        if let Some(stats) = net.node(id).and_then(PeerNode::cache_stats) {
            plan_hits += stats.plan_hits;
            plan_misses += stats.plan_misses;
        }
    }
    let _ = writeln!(out, "plan_cache_hits {plan_hits}");
    let _ = writeln!(out, "plan_cache_misses {plan_misses}");
    // Observability-plane section (`sqpeerd obs` prints from this marker
    // on): merged pattern statistics, slow-query log entries and the
    // per-node flight recorders.
    let _ = writeln!(out, "## obs");
    let mut patterns = sqpeer_net::PatternStats::new();
    let (mut obs_on, mut pushes, mut push_bytes) = (false, 0u64, 0u64);
    for id in net.node_ids() {
        let Some(obs) = net.node(id).and_then(PeerNode::obs) else {
            continue;
        };
        obs_on = true;
        patterns.merge(&obs.patterns);
        pushes += obs.pushes_sent;
        push_bytes += obs.push_bytes_sent;
    }
    if !obs_on {
        let _ = writeln!(out, "obs off");
        return out;
    }
    let _ = writeln!(out, "obs_pushes_sent {pushes}");
    let _ = writeln!(out, "obs_push_bytes {push_bytes}");
    out.push_str(&patterns.render());
    for id in net.node_ids() {
        let Some(obs) = net.node(id).and_then(PeerNode::obs) else {
            continue;
        };
        for sq in &obs.slow_queries {
            let _ = writeln!(
                out,
                "slow_query node {} {} latency_us {} pattern {}",
                id.0, sq.query, sq.latency_us, sq.pattern
            );
        }
        if !obs.recorder.is_empty() {
            let _ = writeln!(out, "# flight recorder, node {}", id.0);
            out.push_str(&obs.recorder.dump());
        }
    }
    out
}

/// One peer-port connection: `Envelope(ClientQuery)` in, one or more
/// `Envelope(Data)` frames out (several when `answer_batch_rows` streams
/// the answer), until the peer closes or shutdown.
fn serve_connection(
    mut stream: TcpStream,
    commands: Sender<Command>,
    schemas: SchemaRegistry,
    shutdown: Arc<AtomicBool>,
    answer_batch_rows: Option<usize>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    // A pooling client sends many request/response pairs over this one
    // socket; Nagle would hold each small reply back.
    let _ = stream.set_nodelay(true);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let envelope: Envelope = match read_frame(&mut stream, &schemas) {
            Ok(Some(e)) => e,
            Ok(None) => return, // clean EOF
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        };
        let Msg::ClientQuery { qid, query } = envelope.msg else {
            // Anything but a client query on the front door is refused by
            // closing: the peer protocol proper runs inside the group.
            return;
        };
        let (reply_tx, reply_rx) = channel();
        // `envelope.to` names the member peer the client wants to pose
        // the query at; the pump re-mints a host-local qid and the reply
        // echoes the client's own.
        if commands
            .send(Command::Query {
                at: envelope.to,
                query,
                reply: reply_tx,
            })
            .is_err()
        {
            return;
        }
        let Ok((result, partial)) = reply_rx.recv() else {
            return;
        };
        let channel = Channel {
            id: ChannelId(qid.0),
            root: envelope.from,
            dest: envelope.to,
            state: ChannelState::Closed,
        };
        let data = |result: ResultSet, partial: bool, seq: u32, last: bool| Envelope {
            from: envelope.to,
            to: envelope.from,
            sent_at_us: 0,
            msg: Msg::Data {
                channel,
                qid,
                tag: 0,
                result,
                partial,
                stats: None,
                seq,
                last,
            },
        };
        match answer_batch_rows {
            Some(batch) if batch > 0 && result.rows.len() > batch => {
                let columns = result.columns.clone();
                let chunks = result.rows;
                let total = chunks.chunks(batch).count();
                for (i, rows) in chunks.chunks(batch).enumerate() {
                    if i > 0 {
                        // Pace the stream so the client's first-row and
                        // total-latency clocks are measurably apart.
                        std::thread::sleep(Duration::from_micros(ANSWER_PACE_US));
                    }
                    let last = i + 1 == total;
                    let piece = ResultSet {
                        columns: columns.clone(),
                        rows: rows.to_vec(),
                    };
                    let frame = data(piece, if last { partial } else { false }, i as u32, last);
                    if write_frame(&mut stream, &frame).is_err() {
                        return;
                    }
                }
            }
            _ => {
                if write_frame(&mut stream, &data(result, partial, 0, true)).is_err() {
                    return;
                }
            }
        }
    }
}
