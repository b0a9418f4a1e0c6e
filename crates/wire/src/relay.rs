//! The gateway's answer relay: host `Data` frames in, one client
//! [`GatewayResponse::Answer`](crate::GatewayResponse::Answer) frame out.
//!
//! A host answers a forwarded query with one or more `Msg::Data` frames
//! whose rows are `Node`s; the client wants each cell display-rendered.
//! The relay walks every host payload once. It validates each byte
//! exactly as `read_frame::<Envelope>` would — version, envelope header,
//! `Msg` tag, channel, columns, node and literal tags, UTF-8, the
//! piggybacked statistics, `seq`/`last` and trailing bytes — while it
//! writes each cell's display form straight into the answer's row
//! encoding. A resource cell is copied from the frame slice as `&` + URI
//! (its `Display`); a literal goes through the [`Literal`] decoder and
//! its `Display`, so no second rendering rule exists. No `Node`, row or
//! string is built per cell.
//!
//! Frames concatenate: rows append in arrival order, `partial` is the OR
//! of every frame's flag, and the columns are the first non-empty ones
//! seen. The answer frame is byte-identical to encoding the
//! `GatewayResponse::Answer` that decoding and rendering every frame
//! would give (pinned by the wire test suite).

use crate::codec::{Reader, Wire, WireError, Writer};
use crate::msg::{decode_payload, frame_with, Envelope, DATA_TAG, WIRE_VERSION};
use crate::SchemaRegistry;
use sqpeer_exec::{Msg, PeerChannel, QueryId};
use sqpeer_rdfs::Literal;
use sqpeer_routing::PeerId;
use sqpeer_store::BaseStatistics;
use std::fmt::Write as _;

/// Accumulates one answer's host frames into a client answer frame.
#[derive(Debug, Default)]
pub struct AnswerRelay {
    columns: Vec<String>,
    /// Every relayed row, already in the answer's encoding (no count).
    rows: Writer,
    row_count: usize,
    partial: bool,
    /// Scratch buffer for rendering one literal.
    text: String,
}

/// What one relayed host frame carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Relayed {
    /// Rows in this frame.
    pub rows: usize,
    /// Whether this was the answer's final frame.
    pub last: bool,
}

/// Why a host frame could not be relayed. After either, the relay is
/// spent: the rows of the failing frame may be half-written.
#[derive(Debug)]
pub enum RelayError {
    /// The payload is not valid wire — exactly the error `read_frame`
    /// would have reported.
    Wire(WireError),
    /// A well-formed message that is not a `Data` packet.
    Unexpected(Box<Msg>),
}

impl From<WireError> for RelayError {
    fn from(e: WireError) -> Self {
        RelayError::Wire(e)
    }
}

impl AnswerRelay {
    /// An empty relay.
    pub fn new() -> Self {
        AnswerRelay::default()
    }

    /// Validates one host frame payload (version byte and envelope, as
    /// `read_payload` returns it) and appends its rows.
    pub fn push(
        &mut self,
        payload: &[u8],
        schemas: &SchemaRegistry,
    ) -> Result<Relayed, RelayError> {
        let mut r = Reader::new(payload, schemas);
        let version = r.byte()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion {
                got: version,
                want: WIRE_VERSION,
            }
            .into());
        }
        PeerId::decode(&mut r)?;
        PeerId::decode(&mut r)?;
        r.u64v()?; // sent_at_us
        if r.u64v()? != DATA_TAG {
            // Anything else decodes whole, for its error or its rendering.
            return Err(match decode_payload::<Envelope>(payload, schemas) {
                Ok(envelope) => RelayError::Unexpected(Box::new(envelope.msg)),
                Err(e) => RelayError::Wire(e),
            });
        }
        PeerChannel::decode(&mut r)?;
        QueryId::decode(&mut r)?;
        r.u64v()?; // subplan tag
        let columns = Vec::<String>::decode(&mut r)?;
        let rows = r.count()?;
        for _ in 0..rows {
            self.relay_row(&mut r)?;
        }
        let partial = r.boolean()?;
        Option::<BaseStatistics>::decode(&mut r)?;
        r.u32v()?; // seq
        let last = r.boolean()?;
        r.expect_end()?;
        if self.columns.is_empty() {
            self.columns = columns;
        }
        self.row_count += rows;
        self.partial |= partial;
        Ok(Relayed { rows, last })
    }

    /// Copies one `Vec<Node>` row into the answer as a `Vec<String>` of
    /// display forms.
    fn relay_row(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        let cells = r.count()?;
        self.rows.usizev(cells);
        for _ in 0..cells {
            match r.byte()? {
                0 => {
                    let uri = r.str()?;
                    self.rows.usizev(uri.len() + 1);
                    self.rows.byte(b'&');
                    self.rows.raw(uri.as_bytes());
                }
                1 => {
                    let literal = Literal::decode(r)?;
                    self.text.clear();
                    write!(self.text, "{literal}").expect("writing to a String cannot fail");
                    self.rows.string(&self.text);
                }
                tag => {
                    return Err(WireError::BadTag {
                        what: "Node",
                        tag: tag as u64,
                    })
                }
            }
        }
        Ok(())
    }

    /// The complete client frame of `GatewayResponse::Answer` with the
    /// rows relayed so far and the gateway's wall-clock measurements.
    pub fn finish(self, ttfr_us: u64, latency_us: u64) -> Vec<u8> {
        let rows = self.rows.into_bytes();
        let columns_len: usize = self.columns.iter().map(|c| c.len() + 10).sum();
        let capacity = rows.len() + columns_len + 48;
        frame_with(capacity, |w| {
            w.byte(0); // GatewayResponse::Answer
            self.columns.encode(w);
            w.usizev(self.row_count);
            w.raw(&rows);
            w.boolean(self.partial);
            w.u64v(ttfr_us);
            w.u64v(latency_us);
        })
    }
}
