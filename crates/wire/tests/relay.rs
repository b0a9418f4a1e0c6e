//! The gateway's answer relay against its oracle.
//!
//! The oracle is the path the relay replaced: decode every host frame
//! with `decode_payload::<Envelope>`, render each cell with `to_string`,
//! and encode the `GatewayResponse::Answer` those rows make. Over random
//! answers — every node and literal kind (NaN, ±inf, -0.0, non-ASCII
//! text), empty answers, answers split over several frames — the relay's
//! frame must be byte-identical to the oracle's. Over malformed frames
//! the relay must fail exactly when the oracle's decode does, with the
//! same error, and never panic.

use proptest::prelude::*;
use sqpeer_exec::{Msg, QueryId};
use sqpeer_net::{Channel, ChannelId, ChannelState};
use sqpeer_rdfs::{Literal, Node, Resource};
use sqpeer_routing::PeerId;
use sqpeer_rql::{compile, ResultSet};
use sqpeer_store::BaseStatistics;
use sqpeer_testkit::fixtures::{fig1_query_text, fig1_schema, fig2_bases};
use sqpeer_wire::{
    decode_payload, encode_frame, AnswerRelay, Envelope, GatewayResponse, RelayError,
    SchemaRegistry, WireError,
};

fn registry() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    reg.register(fig1_schema());
    reg
}

fn stats() -> BaseStatistics {
    fig2_bases(&fig1_schema())[0].statistics()
}

/// Every node kind, with the floats and strings whose display forms are
/// easiest to get wrong.
fn node(kind: u8, v: u32) -> Node {
    let literal = |l| Node::Literal(l);
    match kind % 12 {
        0 => Node::Resource(Resource::new(format!("http://r/{v}"))),
        1 => Node::Resource(Resource::new(format!("http://ρ/ü{v}/日本"))),
        2 => literal(Literal::Integer(v as i64 - 40)),
        3 => literal(Literal::Integer(if v.is_multiple_of(2) {
            i64::MIN
        } else {
            i64::MAX
        })),
        4 => literal(Literal::Float(v as f64 / 7.0)),
        5 => literal(Literal::Float(f64::NAN)),
        6 => literal(Literal::Float(if v.is_multiple_of(2) {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        })),
        7 => literal(Literal::Float(-0.0)),
        8 => literal(Literal::Boolean(v.is_multiple_of(2))),
        9 => literal(Literal::String(format!("s{v} \"q\" ß→✓").into())),
        10 => literal(Literal::String("".into())),
        _ => Node::Resource(Resource::new("")),
    }
}

/// The payload (version byte + envelope) of one host `Data` frame.
fn data_payload(
    result: ResultSet,
    partial: bool,
    stats: Option<BaseStatistics>,
    seq: u32,
    last: bool,
) -> Vec<u8> {
    let frame = encode_frame(&Envelope {
        from: PeerId(2),
        to: PeerId(u32::MAX),
        sent_at_us: 0,
        msg: Msg::Data {
            channel: Channel {
                id: ChannelId(7),
                root: PeerId(u32::MAX),
                dest: PeerId(2),
                state: ChannelState::Closed,
            },
            qid: QueryId(7),
            tag: 0,
            result,
            partial,
            stats,
            seq,
            last,
        },
    });
    frame[4..].to_vec()
}

/// The replaced gateway path: decode, render with `to_string`, encode.
fn oracle(payloads: &[Vec<u8>], reg: &SchemaRegistry, ttfr_us: u64, latency_us: u64) -> Vec<u8> {
    let mut columns: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut partial = false;
    for payload in payloads {
        let envelope: Envelope = decode_payload(payload, reg).expect("oracle decodes");
        let Msg::Data {
            result,
            partial: batch_partial,
            ..
        } = envelope.msg
        else {
            panic!("oracle fed a non-Data frame");
        };
        if columns.is_empty() {
            columns = result.columns.clone();
        }
        partial |= batch_partial;
        rows.extend(
            result
                .rows
                .iter()
                .map(|row| row.iter().map(|node| node.to_string()).collect::<Vec<_>>()),
        );
    }
    encode_frame(&GatewayResponse::Answer {
        columns,
        rows,
        partial,
        ttfr_us,
        latency_us,
    })
}

fn relay(payloads: &[Vec<u8>], reg: &SchemaRegistry, ttfr_us: u64, latency_us: u64) -> Vec<u8> {
    let mut relay = AnswerRelay::new();
    for (k, payload) in payloads.iter().enumerate() {
        let relayed = relay
            .push(payload, reg)
            .expect("relay accepts a valid frame");
        assert_eq!(relayed.last, k + 1 == payloads.len());
    }
    relay.finish(ttfr_us, latency_us)
}

/// A valid answer frame's payload, big enough that every field of the
/// envelope and every cell kind sits somewhere a corruption can hit.
fn sample_payload() -> Vec<u8> {
    let rows = (0..12u8)
        .map(|k| vec![node(k, k as u32), node(k + 1, 3)])
        .collect();
    let result = ResultSet {
        columns: vec!["X".into(), "Y".into()],
        rows,
    };
    data_payload(result, true, Some(stats()), 3, true)
}

/// Relay and oracle agree on a payload that may be malformed: both
/// reject it with the same error, or both accept it with the same bytes
/// (or, for a well-formed non-`Data` message, the relay names it).
fn assert_parity(payload: &[u8], reg: &SchemaRegistry) {
    let mut relay = AnswerRelay::new();
    let relayed = relay.push(payload, reg);
    match decode_payload::<Envelope>(payload, reg) {
        Err(e) => match relayed {
            Err(RelayError::Wire(got)) => assert_eq!(got, e),
            other => panic!("oracle rejects ({e}) but relay gave {other:?}"),
        },
        Ok(Envelope {
            msg: Msg::Data { .. },
            ..
        }) => {
            relayed.expect("relay accepts what the oracle accepts");
            assert_eq!(relay.finish(1, 2), oracle(&[payload.to_vec()], reg, 1, 2));
        }
        Ok(_) => assert!(matches!(relayed, Err(RelayError::Unexpected(_)))),
    }
}

fn arb_answer() -> impl Strategy<Value = (ResultSet, Vec<usize>, Vec<bool>)> {
    (
        0..4usize,
        prop::collection::vec((0..12u8, 0..80u32), 0..40),
        prop::collection::vec(0..6usize, 0..4),
        prop::collection::vec(any::<bool>(), 4),
    )
        .prop_map(|(width, cells, cuts, flags)| {
            let columns: Vec<String> = ["X", "Y", "Z"][..width.min(3)]
                .iter()
                .map(|c| c.to_string())
                .collect();
            let rows = if columns.is_empty() {
                Vec::new()
            } else {
                cells
                    .chunks(columns.len())
                    .filter(|c| c.len() == columns.len())
                    .map(|c| c.iter().map(|&(k, v)| node(k, v)).collect())
                    .collect()
            };
            (ResultSet { columns, rows }, cuts, flags)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One answer, split into consecutive frames at `cuts` (so some
    /// frames may be empty), relays to the oracle's exact bytes.
    #[test]
    fn relay_matches_oracle(
        (answer, cuts, flags) in arb_answer(),
        ttfr_us in 0..5_000u64,
        latency_us in 0..1_000_000u64,
    ) {
        let reg = registry();
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c * answer.rows.len() / 5).collect();
        bounds.push(answer.rows.len());
        bounds.sort_unstable();
        let mut start = 0;
        let frames = bounds.len();
        let payloads: Vec<Vec<u8>> = bounds
            .iter()
            .enumerate()
            .map(|(k, &end)| {
                let batch = ResultSet {
                    columns: answer.columns.clone(),
                    rows: answer.rows[start..end].to_vec(),
                };
                start = end;
                let last = k + 1 == frames;
                let stats = (last && flags[1]).then(stats);
                data_payload(batch, flags[k % 4] && flags[0], stats, k as u32, last)
            })
            .collect();
        prop_assert_eq!(
            relay(&payloads, &reg, ttfr_us, latency_us),
            oracle(&payloads, &reg, ttfr_us, latency_us)
        );
    }

    /// Single-byte corruption anywhere in a valid frame: the relay
    /// rejects exactly what the oracle rejects, with the same error.
    #[test]
    fn bitflips_keep_parity(pos in 0usize..4096, flip in 1u8..255) {
        let reg = registry();
        let mut payload = sample_payload();
        let at = pos % payload.len();
        payload[at] ^= flip;
        assert_parity(&payload, &reg);
    }

    /// Random bytes never panic the relay and keep parity.
    #[test]
    fn random_bytes_keep_parity(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        assert_parity(&bytes, &registry());
    }
}

#[test]
fn every_truncation_is_rejected() {
    let reg = registry();
    let payload = sample_payload();
    for cut in 0..payload.len() {
        let mut relay = AnswerRelay::new();
        assert!(
            relay.push(&payload[..cut], &reg).is_err(),
            "truncation at {cut}/{} relayed",
            payload.len()
        );
        assert_parity(&payload[..cut], &reg);
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let reg = registry();
    let mut payload = sample_payload();
    payload.push(0xAA);
    let mut relay = AnswerRelay::new();
    assert!(matches!(
        relay.push(&payload, &reg),
        Err(RelayError::Wire(WireError::TrailingBytes(1)))
    ));
}

#[test]
fn wrong_version_is_refused() {
    let reg = registry();
    let mut payload = sample_payload();
    payload[0] += 1;
    assert_parity(&payload, &reg);
    assert!(matches!(
        AnswerRelay::new().push(&payload, &reg),
        Err(RelayError::Wire(WireError::BadVersion { .. }))
    ));
}

/// Bad node and literal tags, bad UTF-8 in a URI and in a string
/// literal, bad booleans and a bad statistics option tag, each written
/// into an otherwise valid one-cell frame. (Corrupt statistics are
/// covered by the bit-flip sweep over the sample frame, which has them.)
#[test]
fn bad_cells_and_flags_are_refused() {
    let reg = registry();
    let one = |node: Node| {
        let result = ResultSet {
            columns: vec!["X".into()],
            rows: vec![vec![node]],
        };
        data_payload(result, false, None, 0, true)
    };
    let resource = Node::Resource(Resource::new("abc"));
    let text = Node::Literal(Literal::string("abc"));
    let find = |hay: &[u8], needle: &[u8]| {
        hay.windows(needle.len())
            .position(|w| w == needle)
            .expect("needle present")
    };
    let mut cases: Vec<(Vec<u8>, &str)> = Vec::new();
    // Node tag: the byte before the URI's length prefix.
    let mut p = one(resource.clone());
    let at = find(&p, b"abc") - 2;
    p[at] = 2;
    cases.push((p, "node tag"));
    // Literal tag: the byte after the node tag 1.
    let mut p = one(text.clone());
    let at = find(&p, b"abc") - 2;
    p[at] = 4;
    cases.push((p, "literal tag"));
    for node in [resource.clone(), text] {
        let mut p = one(node);
        let at = find(&p, b"abc");
        p[at] = 0xFF;
        cases.push((p, "UTF-8"));
    }
    // The frame ends `partial | stats option | seq | last`.
    let p = one(resource);
    let n = p.len();
    for (offset, what) in [(4, "partial"), (3, "stats option"), (1, "last")] {
        let mut bad = p.clone();
        bad[n - offset] = 7;
        cases.push((bad, what));
    }
    for (payload, what) in cases {
        let relayed = AnswerRelay::new().push(&payload, &reg);
        assert!(
            matches!(relayed, Err(RelayError::Wire(_))),
            "bad {what} relayed"
        );
        assert_parity(&payload, &reg);
    }
}

/// A non-`Data` reply is named, not relayed; one that does not decode —
/// here a query whose schema fingerprint the gateway does not know — is
/// the oracle's decode error.
#[test]
fn non_data_replies_are_refused() {
    let schema = fig1_schema();
    let query = Envelope {
        from: PeerId(1),
        to: PeerId(2),
        sent_at_us: 0,
        msg: Msg::ClientQuery {
            qid: QueryId(42),
            query: compile(fig1_query_text(), &schema).unwrap(),
        },
    };
    let payload = encode_frame(&query)[4..].to_vec();
    assert!(matches!(
        AnswerRelay::new().push(&payload, &registry()),
        Err(RelayError::Unexpected(msg)) if matches!(*msg, Msg::ClientQuery { .. })
    ));
    let unknown = SchemaRegistry::new();
    assert!(matches!(
        AnswerRelay::new().push(&payload, &unknown),
        Err(RelayError::Wire(WireError::UnknownSchema(_)))
    ));
    assert_parity(&payload, &unknown);
}

#[test]
fn empty_answer_relays_like_the_oracle() {
    let reg = registry();
    let empty = data_payload(ResultSet::empty(vec!["X".into()]), false, None, 0, true);
    let payloads = [empty];
    assert_eq!(relay(&payloads, &reg, 0, 5), oracle(&payloads, &reg, 0, 5));
    // No frame at all (a relay finished before any arrived) is the empty
    // answer with no columns.
    assert_eq!(
        AnswerRelay::new().finish(0, 0),
        encode_frame(&GatewayResponse::Answer {
            columns: Vec::new(),
            rows: Vec::new(),
            partial: false,
            ttfr_us: 0,
            latency_us: 0,
        })
    );
}
