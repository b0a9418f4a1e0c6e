//! The multi-tenant gateway: token-routed access to isolated peer groups.
//!
//! Each tenant is a *separate* `sqpeerd` host — its own transport, its
//! own peers, its own description bases. The gateway holds a map from
//! bearer token to tenant, and the token alone determines which host a
//! request can reach: isolation is structural, not filtered. There is no
//! code path by which a request carrying tenant A's token opens a
//! connection to tenant B's host, so cross-tenant leakage would require
//! the gateway to hold a wrong map, not a peer to misbehave.
//!
//! Admission control is per tenant: a cap on concurrently executing
//! queries and a cap on request bytes in flight. Both are charged before
//! the tenant's host is contacted and released when the answer (or
//! failure) comes back, so an over-quota tenant consumes gateway-side
//! arithmetic only.
//!
//! Connections to a tenant's host are pooled *inside that tenant*: a
//! query borrows an idle stream (or connects), and the stream goes back
//! only after a complete answer. Two tenants naming the same host address
//! still never share a stream, so pooling leaves isolation structural.

use crate::accept::{spawn_acceptor, wake};
use sqpeer_rdfs::Schema;
use sqpeer_routing::PeerId;
use sqpeer_rql::compile;
use sqpeer_wire::{
    encode_frame, read_frame, read_payload, AnswerRelay, Envelope, GatewayRequest, GatewayResponse,
    RelayError, SchemaRegistry,
};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-tenant admission limits.
#[derive(Debug, Clone, Copy)]
pub struct Quotas {
    /// Maximum queries executing at once.
    pub max_concurrent: u32,
    /// Maximum request bytes in flight (sum of admitted frame sizes).
    pub max_bytes_in_flight: u64,
}

impl Default for Quotas {
    fn default() -> Self {
        Quotas {
            max_concurrent: 8,
            max_bytes_in_flight: 1 << 20,
        }
    }
}

/// Admission state for one tenant. Charge with [`Admission::try_admit`]
/// before doing work, release with [`Admission::release`] afterwards —
/// the quota trip reports which limit fired, verbatim, in
/// [`GatewayResponse::OverQuota`].
#[derive(Debug)]
pub struct Admission {
    quotas: Quotas,
    in_flight: u32,
    bytes_in_flight: u64,
}

impl Admission {
    /// Fresh admission state under `quotas`.
    pub fn new(quotas: Quotas) -> Self {
        Admission {
            quotas,
            in_flight: 0,
            bytes_in_flight: 0,
        }
    }

    /// Tries to admit a request of `bytes`; on refusal names the quota
    /// that tripped and admits nothing.
    pub fn try_admit(&mut self, bytes: u64) -> Result<(), String> {
        if self.in_flight >= self.quotas.max_concurrent {
            return Err(format!(
                "concurrent queries (max {})",
                self.quotas.max_concurrent
            ));
        }
        if self.bytes_in_flight.saturating_add(bytes) > self.quotas.max_bytes_in_flight {
            return Err(format!(
                "bytes in flight (max {})",
                self.quotas.max_bytes_in_flight
            ));
        }
        self.in_flight += 1;
        self.bytes_in_flight += bytes;
        Ok(())
    }

    /// Returns a previously admitted request's charge.
    pub fn release(&mut self, bytes: u64) {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(bytes);
    }

    /// Queries currently admitted.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Bytes currently admitted.
    pub fn bytes_in_flight(&self) -> u64 {
        self.bytes_in_flight
    }
}

/// One tenant: where its host lives, what schema its queries compile
/// against, which member peer receives them, and its quotas.
pub struct TenantConfig {
    /// Bearer token identifying the tenant.
    pub token: String,
    /// Address of the tenant's `sqpeerd` host peer port.
    pub host: String,
    /// The tenant's community schema (queries compile against it at the
    /// gateway, so malformed queries never reach the host).
    pub schema: Arc<Schema>,
    /// The member peer queries are posed at.
    pub at: PeerId,
    /// Admission limits.
    pub quotas: Quotas,
}

struct Tenant {
    host: String,
    schema: Arc<Schema>,
    schemas: SchemaRegistry,
    at: PeerId,
    admission: Mutex<Admission>,
    /// Idle streams to `host`, each one left after a complete answer.
    idle: Mutex<Vec<TcpStream>>,
    /// At most this many idle streams are kept: the concurrency quota,
    /// which already bounds how many can be in use at once.
    max_idle: usize,
}

impl Tenant {
    /// The tenant `config` describes, with an empty pool.
    fn new(config: TenantConfig) -> Self {
        let mut schemas = SchemaRegistry::new();
        schemas.register(Arc::clone(&config.schema));
        Tenant {
            host: config.host,
            schema: config.schema,
            schemas,
            at: config.at,
            admission: Mutex::new(Admission::new(config.quotas)),
            idle: Mutex::new(Vec::new()),
            max_idle: config.quotas.max_concurrent as usize,
        }
    }

    /// An idle pooled stream to the host, if any.
    fn checkout(&self) -> Option<TcpStream> {
        self.idle.lock().expect("pool lock poisoned").pop()
    }

    /// Returns a stream that just delivered a complete answer.
    fn checkin(&self, stream: TcpStream) {
        let mut idle = self.idle.lock().expect("pool lock poisoned");
        if idle.len() < self.max_idle {
            idle.push(stream);
        }
    }
}

/// Gateway setup: where to listen and who the tenants are.
pub struct GatewayConfig {
    /// Bind address (port 0 lets the OS pick).
    pub listen: String,
    /// The tenant table.
    pub tenants: Vec<TenantConfig>,
}

/// A running gateway.
pub struct GatewayHandle {
    /// The bound listen address.
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
}

impl GatewayHandle {
    /// Wakes the accept loop, stops it and joins it. Client threads
    /// notice within their read timeout.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake(self.addr);
        let _ = self.acceptor.join();
    }
}

/// The gateway uses this id as the envelope `from` when forwarding to a
/// host; hosts echo it as the reply destination.
const GATEWAY_PEER: PeerId = PeerId(u32::MAX);

/// Boots the gateway: binds the listener and spawns the accept loop.
/// Connections speak framed [`GatewayRequest`] / [`GatewayResponse`].
pub fn spawn_gateway(config: GatewayConfig) -> io::Result<GatewayHandle> {
    let listener = TcpListener::bind(&config.listen)?;
    let addr = listener.local_addr()?;

    let tenants: Arc<HashMap<String, Tenant>> = Arc::new(
        config
            .tenants
            .into_iter()
            .map(|t| (t.token.clone(), Tenant::new(t)))
            .collect(),
    );

    let shutdown = Arc::new(AtomicBool::new(false));
    let next_qid = Arc::new(AtomicU64::new(0));
    let shutdown_flag = Arc::clone(&shutdown);
    let acceptor = spawn_acceptor(listener, Arc::clone(&shutdown), move |stream| {
        let tenants = Arc::clone(&tenants);
        let shutdown = Arc::clone(&shutdown_flag);
        let next_qid = Arc::clone(&next_qid);
        std::thread::spawn(move || serve_client(stream, tenants, next_qid, shutdown));
    });

    Ok(GatewayHandle {
        addr,
        shutdown,
        acceptor,
    })
}

/// Readies an accepted client connection: a read timeout so the serving
/// thread notices shutdown, and `TCP_NODELAY` so the tail of an answer
/// larger than one segment is not held back by Nagle.
fn configure_client(stream: &TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_nodelay(true)
}

/// One client connection: framed requests in, framed verdicts out.
fn serve_client(
    mut stream: TcpStream,
    tenants: Arc<HashMap<String, Tenant>>,
    next_qid: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
) {
    if configure_client(&stream).is_err() {
        return;
    }
    // Requests carry no schema-bound types, so an empty registry decodes
    // them.
    let no_schemas = SchemaRegistry::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let request: GatewayRequest = match read_frame(&mut stream, &no_schemas) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            // Idle: no byte of a next request has arrived yet.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        };
        let response = answer(&request, &tenants, &next_qid);
        if io::Write::write_all(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Resolves one request to the frame of its verdict. The token lookup is
/// the *only* place a host address enters the picture — an unknown token
/// returns before any connection exists, and a known one can only ever
/// reach its own tenant's host.
fn answer(
    request: &GatewayRequest,
    tenants: &HashMap<String, Tenant>,
    next_qid: &AtomicU64,
) -> Vec<u8> {
    let Some(tenant) = tenants.get(&request.token) else {
        return encode_frame(&GatewayResponse::Unauthorized);
    };
    let query = match compile(&request.query, &tenant.schema) {
        Ok(q) => q,
        Err(e) => return encode_frame(&GatewayResponse::Error(e.to_string())),
    };
    let qid = sqpeer_exec::QueryId(next_qid.fetch_add(1, Ordering::SeqCst));
    let envelope = Envelope {
        from: GATEWAY_PEER,
        to: tenant.at,
        sent_at_us: 0,
        msg: sqpeer_exec::Msg::ClientQuery { qid, query },
    };
    let frame = encode_frame(&envelope);
    let charge = frame.len() as u64;

    if let Err(quota) = tenant
        .admission
        .lock()
        .expect("admission lock poisoned")
        .try_admit(charge)
    {
        return encode_frame(&GatewayResponse::OverQuota { quota });
    }
    let verdict = forward(tenant, &frame);
    tenant
        .admission
        .lock()
        .expect("admission lock poisoned")
        .release(charge);
    verdict.unwrap_or_else(|failure| encode_frame(&failure))
}

/// Ships an admitted, already-encoded query frame to the tenant's host
/// and relays the `Data` reply — a single packet, or a streamed
/// sequence of packets ending in one flagged `last` — into the client's
/// answer frame. The gateway wall-clocks the stream: `ttfr_us` is when
/// the first answer rows arrived, `latency_us` when the final packet did.
///
/// The frame goes over a pooled stream when one is idle. A pooled stream
/// can have gone stale (the host restarted since it was pooled); if it
/// fails before the first reply byte, the query is sent once more on a
/// fresh connection — safe, because a `ClientQuery` is read-only.
fn forward(tenant: &Tenant, frame: &[u8]) -> Result<Vec<u8>, GatewayResponse> {
    let started = Instant::now();
    let outcome = match tenant.checkout() {
        Some(pooled) => match exchange(pooled, frame, &tenant.schemas, started) {
            Exchange::Stale(_) => exchange_fresh(tenant, frame, started),
            done => done,
        },
        None => exchange_fresh(tenant, frame, started),
    };
    match outcome {
        Exchange::Answer(answer, stream) => {
            tenant.checkin(stream);
            Ok(answer)
        }
        Exchange::Stale(verdict) | Exchange::Failed(verdict) => Err(verdict),
    }
}

/// How one request/response exchange with a host ended.
enum Exchange {
    /// A complete answer frame; the stream is clean and can be pooled.
    Answer(Vec<u8>, TcpStream),
    /// The stream failed before any reply byte arrived.
    Stale(GatewayResponse),
    /// Any later failure; the stream is dropped.
    Failed(GatewayResponse),
}

/// [`exchange`] over a new connection to the tenant's host.
fn exchange_fresh(tenant: &Tenant, frame: &[u8], started: Instant) -> Exchange {
    match TcpStream::connect(&tenant.host) {
        Ok(stream) => {
            // The stream carries many small request/response pairs.
            let _ = stream.set_nodelay(true);
            exchange(stream, frame, &tenant.schemas, started)
        }
        Err(e) => Exchange::Failed(GatewayResponse::Error(format!("host unreachable: {e}"))),
    }
}

/// Writes one query frame and relays `Data` frames until the one flagged
/// `last`.
fn exchange(
    mut host: TcpStream,
    frame: &[u8],
    schemas: &SchemaRegistry,
    started: Instant,
) -> Exchange {
    let closed = || GatewayResponse::Error("host closed without answering".into());
    let unreadable =
        |e: &dyn std::fmt::Display| GatewayResponse::Error(format!("host reply unreadable: {e}"));
    if let Err(e) = io::Write::write_all(&mut host, frame) {
        return Exchange::Stale(GatewayResponse::Error(format!("host write failed: {e}")));
    }
    // Wait for the first reply byte without consuming it: a stream the
    // host dropped while it sat in the pool fails here, before any reply.
    match host.peek(&mut [0u8]) {
        Ok(0) => return Exchange::Stale(closed()),
        Err(e) => return Exchange::Stale(unreadable(&e)),
        Ok(_) => {}
    }
    let mut relay = AnswerRelay::new();
    let mut ttfr_us = 0u64;
    loop {
        let payload = match read_payload(&mut host) {
            Ok(Some(p)) => p,
            Ok(None) => return Exchange::Failed(closed()),
            Err(e) => return Exchange::Failed(unreadable(&e)),
        };
        match relay.push(&payload, schemas) {
            Ok(batch) => {
                if ttfr_us == 0 && batch.rows > 0 {
                    ttfr_us = started.elapsed().as_micros() as u64;
                }
                if batch.last {
                    let latency_us = started.elapsed().as_micros() as u64;
                    return Exchange::Answer(relay.finish(ttfr_us, latency_us), host);
                }
            }
            Err(RelayError::Wire(e)) => return Exchange::Failed(unreadable(&e)),
            Err(RelayError::Unexpected(other)) => {
                return Exchange::Failed(GatewayResponse::Error(format!(
                    "host sent an unexpected message: {other:?}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_enforces_concurrency_quota() {
        let mut a = Admission::new(Quotas {
            max_concurrent: 2,
            max_bytes_in_flight: 1_000,
        });
        assert!(a.try_admit(10).is_ok());
        assert!(a.try_admit(10).is_ok());
        let err = a.try_admit(10).unwrap_err();
        assert!(err.contains("concurrent"), "{err}");
        a.release(10);
        assert!(a.try_admit(10).is_ok());
        assert_eq!(a.in_flight(), 2);
    }

    #[test]
    fn admission_enforces_byte_quota_without_partial_charges() {
        let mut a = Admission::new(Quotas {
            max_concurrent: 10,
            max_bytes_in_flight: 100,
        });
        assert!(a.try_admit(60).is_ok());
        let err = a.try_admit(60).unwrap_err();
        assert!(err.contains("bytes"), "{err}");
        // The refused request must not have charged anything.
        assert_eq!(a.bytes_in_flight(), 60);
        assert_eq!(a.in_flight(), 1);
        assert!(a.try_admit(40).is_ok());
        a.release(60);
        a.release(40);
        assert_eq!(a.bytes_in_flight(), 0);
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn pool_keeps_at_most_max_concurrent_idle_streams() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound");
        let tenant = Tenant::new(TenantConfig {
            token: "t".into(),
            host: addr.to_string(),
            schema: sqpeer_testkit::fixtures::fig1_schema(),
            at: PeerId(0),
            quotas: Quotas {
                max_concurrent: 2,
                ..Quotas::default()
            },
        });
        for _ in 0..3 {
            tenant.checkin(TcpStream::connect(addr).expect("connects"));
        }
        assert!(tenant.checkout().is_some());
        assert!(tenant.checkout().is_some());
        assert!(tenant.checkout().is_none(), "a third idle stream was kept");
    }

    #[test]
    fn accepted_client_streams_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _client = TcpStream::connect(listener.local_addr().expect("bound")).expect("connects");
        let (accepted, _) = listener.accept().expect("accepts");
        assert!(!accepted.nodelay().expect("readable option"));
        configure_client(&accepted).expect("configures");
        assert!(accepted.nodelay().expect("readable option"));
        assert_eq!(
            accepted.read_timeout().expect("readable option"),
            Some(Duration::from_millis(500))
        );
    }

    #[test]
    fn unknown_tokens_never_reach_a_host() {
        // `answer` with an empty tenant table must refuse without any
        // connection attempt — there is no address to connect to.
        let tenants = HashMap::new();
        let verdict = answer(
            &GatewayRequest {
                token: "nobody".into(),
                query: "SELECT X FROM {X}p{Y}".into(),
            },
            &tenants,
            &AtomicU64::new(0),
        );
        assert_eq!(verdict, encode_frame(&GatewayResponse::Unauthorized));
    }
}
