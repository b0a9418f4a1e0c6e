//! The `gateway-join` and `gateway-scan` workloads: two tenants behind
//! `spawn_gateway`, each a `spawn_host` group, queried over loopback TCP.
//! `gateway-join` rotates through the chain queries of length 1 and 2;
//! `gateway-scan` through those of length 1 only, so it runs no joins.
//!
//! Load is a closed loop of two persistent client connections, one per
//! tenant: each sends its next request only after the previous answer
//! arrived. Answers are checked against the engine replay of the same
//! query over the tenant's bases, itself checked against the oracle.

use crate::replay::{replay, ReplayCounts, ReplayCtx};
use crate::trace::{Tracer, NO_QUERY};
use crate::{median, percentile, ratio, Args, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqpeer::exec::{BaseKind, PeerNode, Role};
use sqpeer::overlay::{oracle_answer, oracle_base};
use sqpeer::plan::generate_plan;
use sqpeer::prelude::*;
use sqpeer::routing::RoutingLimits;
use sqpeer_cache::{CacheConfig, CacheStats, SemanticCache};
use sqpeer_daemon::{
    spawn_gateway, spawn_host, GatewayConfig, GatewayHandle, GroupSpec, HostConfig, HostHandle,
    Quotas, TenantConfig,
};
use sqpeer_testkit::{
    chain_properties, chain_query_text, community_schema, populate, DataSpec, SchemaSpec,
};
use sqpeer_wire::{read_frame, write_frame, GatewayRequest, GatewayResponse, SchemaRegistry};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema seed whose community schema has exactly 16 chain queries of
/// length 1–2 (8 + 8).
const SCHEMA_SEED: u64 = 61;
const TENANTS: usize = 2;
const MEMBERS: usize = 6;
const TRIPLES_PER_PROPERTY: usize = 400;
const CLASS_POOL: usize = 400;
/// Transport time each host gives advertisement discovery at boot.
const SETTLE_US: u64 = 150_000;
/// System builds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Longer than the host pump's status-page refresh period, so a status
/// read after this pause reflects every finished query.
const STATUS_SETTLE: Duration = Duration::from_millis(400);
/// Upper bound of each client's seeded think time between requests.
/// The daemons poll their sockets and step their transport on fixed
/// periods (a 5 ms accept poll, 1 ms pump slices); a client with no
/// think time locks into one phase of those periods for a whole run, and
/// round trips then differ from run to run by which phase it hit.
const THINK_US: u64 = 5_000;
/// A request without an answer after this long counts as a timeout.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

fn schema() -> Arc<Schema> {
    community_schema(
        SchemaSpec {
            chain_classes: 8,
            subclasses_per_class: 1,
            subproperty_fraction: 0.5,
        },
        SCHEMA_SEED,
    )
}

/// One tenant's member bases: member `m` populates every other schema
/// property, starting at `m % 2`, so two-pattern chains join across
/// members.
fn tenant_bases(schema: &Arc<Schema>, seed: u64, tenant: usize) -> Vec<DescriptionBase> {
    let props: Vec<PropertyId> = schema.properties().collect();
    (0..MEMBERS)
        .map(|m| {
            let mine: Vec<PropertyId> = props
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == m % 2)
                .map(|(_, &p)| p)
                .collect();
            let mut base = DescriptionBase::new(Arc::clone(schema));
            let mut rng = StdRng::seed_from_u64(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((tenant * MEMBERS + m) as u64),
            );
            let spec = DataSpec {
                triples_per_property: TRIPLES_PER_PROPERTY,
                class_pool: CLASS_POOL,
            };
            populate(&mut base, &mine, spec, &mut rng);
            base
        })
        .collect()
}

struct System {
    hosts: Vec<HostHandle>,
    gateway: GatewayHandle,
}

impl System {
    fn shutdown(self) {
        self.gateway.shutdown();
        for h in self.hosts {
            h.shutdown();
        }
    }
}

fn token(tenant: usize) -> String {
    format!("tenant-{tenant}")
}

fn boot(schema: &Arc<Schema>, bases: &[Vec<DescriptionBase>], tracer: &mut Tracer) -> System {
    let hosts: Vec<HostHandle> = bases
        .iter()
        .map(|b| {
            tracer
                .span("daemon.spawn_host", NO_QUERY, |_| {
                    spawn_host(HostConfig {
                        listen: "127.0.0.1:0".into(),
                        status: Some("127.0.0.1:0".into()),
                        spec: GroupSpec {
                            schema: Arc::clone(schema),
                            bases: b.clone(),
                            config: PeerConfig::default(),
                        },
                        telemetry_window_us: None,
                        settle_us: SETTLE_US,
                        answer_batch_rows: None,
                    })
                })
                .expect("host binds a loopback port")
        })
        .collect();
    let gateway = tracer
        .span("daemon.spawn_gateway", NO_QUERY, |_| {
            spawn_gateway(GatewayConfig {
                listen: "127.0.0.1:0".into(),
                tenants: hosts
                    .iter()
                    .enumerate()
                    .map(|(t, h)| TenantConfig {
                        token: token(t),
                        host: h.addr.to_string(),
                        schema: Arc::clone(schema),
                        at: PeerId(0),
                        quotas: Quotas::default(),
                    })
                    .collect(),
            })
        })
        .expect("gateway binds a loopback port");
    System { hosts, gateway }
}

/// Counters scraped from a host's status page.
#[derive(Debug, Clone, Copy, Default)]
struct Status {
    messages: u64,
    bytes: u64,
    dropped: u64,
    retries: u64,
    replans: u64,
    decode_failures: u64,
}

fn read_status(addr: SocketAddr) -> Status {
    let mut text = String::new();
    TcpStream::connect(addr)
        .and_then(|mut s| s.read_to_string(&mut text))
        .expect("status page readable");
    let field = |key: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.trim().parse().ok())
            .unwrap_or_else(|| panic!("status page lacks {key}:\n{text}"))
    };
    Status {
        messages: field("messages"),
        bytes: field("bytes"),
        dropped: field("dropped"),
        retries: field("retries"),
        replans: field("replans"),
        decode_failures: field("decode_failures"),
    }
}

fn statuses(sys: &System) -> Status {
    let mut sum = Status::default();
    for h in &sys.hosts {
        let s = read_status(h.status_addr.expect("hosts run a status port"));
        sum.messages += s.messages;
        sum.bytes += s.bytes;
        sum.dropped += s.dropped;
        sum.retries += s.retries;
        sum.replans += s.replans;
        sum.decode_failures += s.decode_failures;
    }
    sum
}

/// An answer reduced to what the check compares: columns, row count and
/// an order-independent digest of the display-rendered rows.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    columns: Vec<String>,
    rows: usize,
    digest: u64,
}

fn fingerprint<'a>(
    columns: &[String],
    rows: impl ExactSizeIterator<Item = Vec<String>> + 'a,
) -> Fingerprint {
    let n = rows.len();
    let digest = rows.fold(0u64, |acc, row| {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        acc.wrapping_add(h.finish())
    });
    Fingerprint {
        columns: columns.to_vec(),
        rows: n,
        digest,
    }
}

fn fingerprint_of(rs: &ResultSet) -> Fingerprint {
    fingerprint(
        &rs.columns,
        rs.rows
            .iter()
            .map(|r| r.iter().map(|n| n.to_string()).collect()),
    )
}

/// One tenant's view for the replay: advertisements as its peers
/// advertise them, and its bases.
struct TenantState {
    bases: Vec<DescriptionBase>,
    registry: AdRegistry,
}

impl TenantState {
    fn new(bases: Vec<DescriptionBase>) -> Self {
        let mut registry = AdRegistry::new();
        for (i, b) in bases.iter().enumerate() {
            let node = PeerNode::new(
                PeerId(i as u32),
                Role::Simple,
                BaseKind::Materialized(b.clone()),
                PeerConfig::default(),
            );
            if let Some(ad) = node.own_advertisement() {
                registry.register(ad);
            }
        }
        TenantState { bases, registry }
    }
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    tenant: usize,
    query: usize,
    rtt_us: u64,
    host_us: u64,
    ok: bool,
}

#[derive(Debug, Default)]
struct ClientLog {
    samples: Vec<Sample>,
    refusals: u64,
    partials: u64,
    failures: u64,
}

/// A closed-loop client: next request only after the previous answer.
fn client(
    addr: SocketAddr,
    tenant: usize,
    texts: &[String],
    expected: &[Fingerprint],
    deadline: Instant,
    seed: u64,
    tracer: &mut Tracer,
) -> ClientLog {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (tenant as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let connect = || {
        let s = TcpStream::connect(addr).expect("gateway reachable");
        s.set_read_timeout(Some(CLIENT_TIMEOUT))
            .expect("read timeout settable");
        s.set_nodelay(true).expect("nodelay settable");
        s
    };
    let mut stream = connect();
    let no_schemas = SchemaRegistry::new();
    let mut log = ClientLog::default();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let query = (tenant * 5 + i) % texts.len();
        let qid = ((tenant as u64) << 32) | i as u64;
        i += 1;
        let t0 = Instant::now();
        let reply = tracer.span("gateway.round_trip", qid, |_| {
            write_frame(
                &mut stream,
                &GatewayRequest {
                    token: token(tenant),
                    query: texts[query].clone(),
                },
            )?;
            read_frame::<GatewayResponse>(&mut stream, &no_schemas)
        });
        let rtt_us = t0.elapsed().as_micros() as u64;
        let (ok, host_us) = match reply {
            Ok(Some(GatewayResponse::Answer {
                columns,
                rows,
                partial,
                latency_us,
                ..
            })) => {
                if partial {
                    log.partials += 1;
                }
                let fp = fingerprint(&columns, rows.into_iter());
                (!partial && fp == expected[query], latency_us)
            }
            Ok(Some(GatewayResponse::OverQuota { .. } | GatewayResponse::Unauthorized)) => {
                log.refusals += 1;
                (false, 0)
            }
            Ok(Some(GatewayResponse::Error(_))) => (false, 0),
            Ok(None) | Err(_) => {
                // Closed, timed out or unreadable: start a fresh
                // connection for the next request.
                stream = connect();
                (false, 0)
            }
        };
        if !ok {
            log.failures += 1;
        }
        log.samples.push(Sample {
            tenant,
            query,
            rtt_us,
            host_us,
            ok,
        });
        std::thread::sleep(Duration::from_micros(rng.gen_range(0..THINK_US)));
    }
    log
}

/// Runs `gateway-join` (`joins` true) or `gateway-scan` (`joins` false).
pub fn run(args: &Args, joins: bool) -> Report {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, args.trace);
    let schema = schema();
    let lengths: &[usize] = if joins { &[1, 2] } else { &[1] };
    let texts: Vec<String> = lengths
        .iter()
        .flat_map(|&len| chain_properties(&schema, len))
        .map(|c| chain_query_text(&schema, &c))
        .collect();

    // Set-up: generate the bases and boot both hosts and the gateway,
    // discovery settle included; several times, keeping the last.
    let mut setups = Vec::new();
    let mut system: Option<(System, Vec<Vec<DescriptionBase>>)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((sys, _)) = system.take() {
            sys.shutdown();
        }
        let t0 = Instant::now();
        let built = tracer.span("daemon.setup", NO_QUERY, |t| {
            let bases: Vec<Vec<DescriptionBase>> = (0..TENANTS)
                .map(|tenant| tenant_bases(&schema, args.seed, tenant))
                .collect();
            (boot(&schema, &bases, t), bases)
        });
        setups.push(t0.elapsed().as_secs_f64());
        system = Some(built);
    }
    let (sys, bases) = system.expect("at least one boot");
    std::thread::sleep(STATUS_SETTLE);
    let boot = statuses(&sys);

    // Expected answers, off the clock: the engine replay of each query
    // per tenant, checked against the oracle.
    let mut schemas = SchemaRegistry::new();
    schemas.register(Arc::clone(&schema));
    let policy = PeerConfig::default().routing_policy;
    let tenants: Vec<TenantState> = bases.into_iter().map(TenantState::new).collect();
    let mut oracle_ok = true;
    let mut expected: Vec<Vec<Fingerprint>> = Vec::new();
    let mut off = Tracer::new(origin, false);
    for ts in &tenants {
        let oracle = oracle_base(&schema, ts.bases.iter());
        let ctx = ReplayCtx {
            schemas: &schemas,
            schema: &schema,
            registry: &ts.registry,
            policy,
            base: &|p| ts.bases.get(p.0 as usize),
        };
        let mut fps = Vec::new();
        for text in &texts {
            let mut scratch = ReplayCounts::default();
            let replayed = replay(&ctx, text, PeerId(0), NO_QUERY, &mut off, &mut scratch);
            let q = compile(text, &schema).expect("generated chain queries compile");
            oracle_ok &= replayed == oracle_answer(&oracle, &q);
            fps.push(fingerprint_of(&replayed));
        }
        expected.push(fps);
    }

    // Warm-up, off the clock: every query once per tenant.
    for t in 0..TENANTS {
        let mut stream = TcpStream::connect(sys.gateway.addr).expect("gateway reachable");
        for text in &texts {
            write_frame(
                &mut stream,
                &GatewayRequest {
                    token: token(t),
                    query: text.clone(),
                },
            )
            .expect("warm-up request sent");
            let _: Option<GatewayResponse> =
                read_frame(&mut stream, &SchemaRegistry::new()).expect("warm-up answer readable");
        }
    }

    std::thread::sleep(STATUS_SETTLE);
    let before = statuses(&sys);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let traced = tracer.enabled();
    let logs: Vec<(ClientLog, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|t| {
                let (texts, expected, addr) = (&texts, &expected[t], sys.gateway.addr);
                let seed = args.seed;
                s.spawn(move || {
                    let mut tr = Tracer::new(origin, traced);
                    let log = client(addr, t, texts, expected, deadline, seed, &mut tr);
                    (log, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    std::thread::sleep(STATUS_SETTLE);
    let after = statuses(&sys);
    sys.shutdown();

    let mut samples: Vec<Sample> = Vec::new();
    let (mut refusals, mut partials, mut failures) = (0u64, 0u64, 0u64);
    for (log, tr) in logs {
        samples.extend(&log.samples);
        refusals += log.refusals;
        partials += log.partials;
        failures += log.failures;
        tracer.absorb(tr);
    }
    let attempted = samples.len() as u64;
    let correct = samples.iter().filter(|s| s.ok).count() as f64;
    let nq = attempted.max(1) as f64;
    let rtt_ms: Vec<f64> = samples.iter().map(|s| s.rtt_us as f64 / 1e3).collect();
    let host_ms: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.host_us as f64 / 1e3)
        .collect();

    let mut r = Report::new(attempted, failures);
    r.check(oracle_ok, "replayed answer differs from the oracle");
    r.e2e("setup_s", median(&setups), "s");
    r.e2e("throughput_qps", correct / window_s, "1/s");
    r.e2e("latency_ms_p50", percentile(&rtt_ms, 50.0), "ms");
    r.e2e("latency_ms_p95", percentile(&rtt_ms, 95.0), "ms");
    // No virtual clock here: the system's own latency clock is the
    // gateway's host leg (`latency_us` in its answer).
    r.e2e("vlatency_ms_p50", percentile(&host_ms, 50.0), "ms");
    r.e2e("vlatency_ms_p95", percentile(&host_ms, 95.0), "ms");
    r.e2e(
        "msgs_per_query",
        (after.messages - before.messages) as f64 / nq,
        "count",
    );
    r.e2e(
        "bytes_per_query",
        (after.bytes - before.bytes) as f64 / nq,
        "B",
    );
    r.context("queries", attempted.to_string());
    r.context("latency_samples", rtt_ms.len().to_string());
    r.context("vlatency_samples", host_ms.len().to_string());
    r.context("setup_samples", setups.len().to_string());
    r.context("pool", texts.len().to_string());
    r.context("clients", TENANTS.to_string());
    r.context("window_s", format!("{window_s}"));

    if traced {
        let mut counts = ReplayCounts::default();
        let mut mismatches = 0u64;
        for (k, s) in samples.iter().enumerate() {
            let ts = &tenants[s.tenant];
            let ctx = ReplayCtx {
                schemas: &schemas,
                schema: &schema,
                registry: &ts.registry,
                policy,
                base: &|p| ts.bases.get(p.0 as usize),
            };
            let replayed = replay(
                &ctx,
                &texts[s.query],
                PeerId(0),
                k as u64,
                &mut tracer,
                &mut counts,
            );
            if fingerprint_of(&replayed) != expected[s.tenant][s.query] {
                mismatches += 1;
            }
        }
        r.check(
            mismatches == 0,
            "replayed answers differ from the distributed ones",
        );
        let totals = tracer.totals();
        let per_q = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.self_ns as f64 / 1e3 / nq)
        };
        r.layer_replay(&counts, &per_q, nq);
        r.layer(
            "routing.useful_ratio",
            ratio(counts.useful_pairs, counts.annotated_pairs),
            "ratio",
        );
        let replay_ns = tracer.durations("replay");
        let ok: Vec<(usize, &Sample)> = samples.iter().enumerate().filter(|(_, s)| s.ok).collect();
        let gw: Vec<f64> = ok
            .iter()
            .map(|(_, s)| s.rtt_us as f64 - s.host_us as f64)
            .collect();
        let host: Vec<f64> = ok.iter().map(|(_, s)| s.host_us as f64).collect();
        let overhead: Vec<f64> = ok
            .iter()
            .map(|&(k, s)| s.host_us as f64 - replay_ns[&(k as u64)] as f64 / 1e3)
            .collect();
        r.layer("daemon.gateway_us", median(&gw), "us");
        r.layer("daemon.host_us", median(&host), "us");
        r.layer("daemon.host_overhead_us", median(&overhead), "us");
        let p50s: Vec<f64> = (0..TENANTS)
            .map(|t| {
                let v: Vec<f64> = samples
                    .iter()
                    .filter(|s| s.tenant == t)
                    .map(|s| s.rtt_us as f64)
                    .collect();
                percentile(&v, 50.0)
            })
            .collect();
        let (lo, hi) = p50s
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        r.layer(
            "daemon.tenant_p50_ratio",
            if lo > 0.0 { hi / lo } else { 0.0 },
            "ratio",
        );
        r.layer("daemon.refusals", refusals as f64, "count");
        r.layer(
            "daemon.decode_failures",
            (after.decode_failures - before.decode_failures) as f64,
            "count",
        );
        r.layer(
            "net.retries",
            (after.retries - before.retries) as f64,
            "count",
        );
        r.layer(
            "net.drops",
            (after.dropped - before.dropped) as f64,
            "count",
        );
        r.layer(
            "exec.replans",
            (after.replans - before.replans) as f64,
            "count",
        );
        r.layer("exec.partials", partials as f64, "count");
        r.layer("overlay.boot_msgs", boot.messages as f64, "count");
        // The hosts do not publish their peers' cache counters, so the
        // cache layer is replayed: each tenant's measured query stream,
        // in order, through a root-peer cache of the default size.
        let mut caches: Vec<SemanticCache> = (0..TENANTS)
            .map(|_| SemanticCache::new(CacheConfig::default()))
            .collect();
        for s in &samples {
            let ts = &tenants[s.tenant];
            let cache = &mut caches[s.tenant];
            let q = compile(&texts[s.query], &schema).expect("generated chain queries compile");
            let annotated = cache.route(&ts.registry, &q, policy, RoutingLimits::unlimited());
            let epochs = ts.registry.epochs();
            if cache.plan_for(epochs, &annotated).is_none() {
                cache.store_plan(epochs, &annotated, &generate_plan(&annotated));
            }
        }
        let c = caches.iter().fold(CacheStats::default(), |mut a, c| {
            let s = c.stats();
            a.hits += s.hits + s.subsumption_hits;
            a.misses += s.misses;
            a.plan_hits += s.plan_hits;
            a.plan_misses += s.plan_misses;
            a.invalidations += s.invalidations;
            a.evictions += s.evictions;
            a
        });
        r.layer("cache.hit_ratio", ratio(c.hits, c.hits + c.misses), "ratio");
        r.layer(
            "cache.plan_hit_ratio",
            ratio(c.plan_hits, c.plan_hits + c.plan_misses),
            "ratio",
        );
        r.layer("cache.invalidations", c.invalidations as f64, "count");
        r.layer("cache.evictions", c.evictions as f64, "count");
        r.layer_absent(&[
            "net.sim_run_us",
            "net.events_per_query",
            "net.us_per_event",
            "exec.timeouts",
            "overlay.update_us",
            "overlay.update_msgs",
        ]);
        r.layer("trace.throughput_qps", correct / window_s, "1/s");
        r.spans(tracer);
    }
    r
}
