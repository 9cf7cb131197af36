//! Binary wire codec for [`Message`].
//!
//! A compact, fixed-layout encoding: one tag byte, then the fields in
//! declaration order. Node identities are 6 bytes (4 address + 2 port,
//! matching the paper's per-entry accounting: a `ViewFetchReply` carrying
//! `cvs` entries costs `11 + 6·cvs` bytes, in line with the "6 Bytes per
//! entry" estimate of §4.1). All multi-byte integers are big-endian.
//!
//! The codec is used by the UDP runtime for real I/O and by every driver
//! for bandwidth accounting ([`encoded_len`] is exact by construction —
//! a property test guarantees `encoded_len(m) == encode(m).len()`).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::CodecError;
use crate::message::{Message, Nonce};
use crate::NodeId;

/// Maximum number of view entries accepted in a single message.
///
/// Generous upper bound: even `cvs = 10·N^{1/4}` at `N = 10^8` stays below
/// this. Prevents hostile length fields from causing huge allocations.
pub const MAX_VIEW_ENTRIES: usize = 4096;

/// Maximum application payload accepted in a single [`Message::AppData`].
///
/// Keeps hostile length fields from forcing huge allocations and keeps app
/// datagrams comfortably inside a single UDP packet.
pub const MAX_APP_PAYLOAD: usize = 1024;

const TAG_JOIN: u8 = 0x01;
const TAG_INIT_VIEW_REQUEST: u8 = 0x02;
const TAG_INIT_VIEW_REPLY: u8 = 0x03;
const TAG_VIEW_PING: u8 = 0x04;
const TAG_VIEW_PONG: u8 = 0x05;
const TAG_VIEW_FETCH: u8 = 0x06;
const TAG_VIEW_FETCH_REPLY: u8 = 0x07;
const TAG_NOTIFY: u8 = 0x08;
const TAG_MONITOR_PING: u8 = 0x09;
const TAG_MONITOR_PONG: u8 = 0x0a;
const TAG_REPORT_REQUEST: u8 = 0x0b;
const TAG_REPORT_REPLY: u8 = 0x0c;
const TAG_HISTORY_REQUEST: u8 = 0x0d;
const TAG_HISTORY_REPLY: u8 = 0x0e;
const TAG_ADD_ME_REQUEST: u8 = 0x0f;
const TAG_PRESENCE: u8 = 0x10;
const TAG_APP_DATA: u8 = 0x11;

/// Encodes `msg` into a fresh buffer.
///
/// # Example
///
/// ```
/// use avmon::codec::{decode, encode};
/// use avmon::{Message, Nonce};
///
/// let msg = Message::ViewPing { nonce: Nonce(42) };
/// let bytes = encode(&msg);
/// assert_eq!(decode(&bytes)?, msg);
/// # Ok::<(), avmon::CodecError>(())
/// ```
#[must_use]
pub fn encode(msg: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(msg));
    encode_into(msg, &mut buf);
    buf.freeze()
}

/// Encodes `msg`, appending to `buf`.
pub fn encode_into(msg: &Message, buf: &mut BytesMut) {
    match msg {
        Message::Join {
            origin,
            weight,
            hops,
        } => {
            buf.put_u8(TAG_JOIN);
            buf.put_slice(&origin.to_bytes());
            buf.put_u32(*weight);
            buf.put_u32(*hops);
        }
        Message::InitViewRequest { nonce } => {
            buf.put_u8(TAG_INIT_VIEW_REQUEST);
            buf.put_u64(nonce.0);
        }
        Message::InitViewReply { nonce, view } => {
            buf.put_u8(TAG_INIT_VIEW_REPLY);
            buf.put_u64(nonce.0);
            put_view(buf, view);
        }
        Message::ViewPing { nonce } => {
            buf.put_u8(TAG_VIEW_PING);
            buf.put_u64(nonce.0);
        }
        Message::ViewPong { nonce } => {
            buf.put_u8(TAG_VIEW_PONG);
            buf.put_u64(nonce.0);
        }
        Message::ViewFetch { nonce } => {
            buf.put_u8(TAG_VIEW_FETCH);
            buf.put_u64(nonce.0);
        }
        Message::ViewFetchReply { nonce, view } => {
            buf.put_u8(TAG_VIEW_FETCH_REPLY);
            buf.put_u64(nonce.0);
            put_view(buf, view);
        }
        Message::Notify { monitor, target } => {
            buf.put_u8(TAG_NOTIFY);
            buf.put_slice(&monitor.to_bytes());
            buf.put_slice(&target.to_bytes());
        }
        Message::MonitorPing { nonce } => {
            buf.put_u8(TAG_MONITOR_PING);
            buf.put_u64(nonce.0);
        }
        Message::MonitorPong { nonce } => {
            buf.put_u8(TAG_MONITOR_PONG);
            buf.put_u64(nonce.0);
        }
        Message::ReportRequest { nonce, count } => {
            buf.put_u8(TAG_REPORT_REQUEST);
            buf.put_u64(nonce.0);
            buf.put_u8(*count);
        }
        Message::ReportReply { nonce, monitors } => {
            buf.put_u8(TAG_REPORT_REPLY);
            buf.put_u64(nonce.0);
            put_view(buf, monitors);
        }
        Message::HistoryRequest { nonce, target } => {
            buf.put_u8(TAG_HISTORY_REQUEST);
            buf.put_u64(nonce.0);
            buf.put_slice(&target.to_bytes());
        }
        Message::HistoryReply {
            nonce,
            target,
            availability,
            samples,
        } => {
            buf.put_u8(TAG_HISTORY_REPLY);
            buf.put_u64(nonce.0);
            buf.put_slice(&target.to_bytes());
            match availability {
                Some(a) => {
                    buf.put_u8(1);
                    buf.put_f64(*a);
                }
                None => buf.put_u8(0),
            }
            buf.put_u64(*samples);
        }
        Message::AddMeRequest => buf.put_u8(TAG_ADD_ME_REQUEST),
        Message::Presence { origin } => {
            buf.put_u8(TAG_PRESENCE);
            buf.put_slice(&origin.to_bytes());
        }
        Message::AppData { payload } => {
            debug_assert!(payload.len() <= MAX_APP_PAYLOAD);
            buf.put_u8(TAG_APP_DATA);
            buf.put_u16(payload.len() as u16);
            buf.put_slice(payload);
        }
    }
}

/// The exact number of bytes [`encode`] produces for `msg`.
///
/// Used on the hot path for bandwidth accounting without allocating.
#[must_use]
pub fn encoded_len(msg: &Message) -> usize {
    const ID: usize = NodeId::ENCODED_LEN;
    match msg {
        Message::Join { .. } => 1 + ID + 4 + 4,
        Message::InitViewRequest { .. }
        | Message::ViewPing { .. }
        | Message::ViewPong { .. }
        | Message::ViewFetch { .. }
        | Message::MonitorPing { .. }
        | Message::MonitorPong { .. } => 1 + 8,
        Message::InitViewReply { view, .. } | Message::ViewFetchReply { view, .. } => {
            1 + 8 + 2 + ID * view.len()
        }
        Message::Notify { .. } => 1 + 2 * ID,
        Message::ReportRequest { .. } => 1 + 8 + 1,
        Message::ReportReply { monitors, .. } => 1 + 8 + 2 + ID * monitors.len(),
        Message::HistoryRequest { .. } => 1 + 8 + ID,
        Message::HistoryReply { availability, .. } => {
            1 + 8 + ID + 1 + if availability.is_some() { 8 } else { 0 } + 8
        }
        Message::AddMeRequest => 1,
        Message::Presence { .. } => 1 + ID,
        Message::AppData { payload } => 1 + 2 + payload.len(),
    }
}

fn put_view(buf: &mut BytesMut, view: &[NodeId]) {
    debug_assert!(view.len() <= MAX_VIEW_ENTRIES);
    buf.put_u16(view.len() as u16);
    for id in view {
        buf.put_slice(&id.to_bytes());
    }
}

/// Decodes one message occupying the entire buffer.
///
/// # Errors
///
/// Returns a [`CodecError`] on truncation, unknown tags, oversized length
/// fields, or trailing bytes.
pub fn decode(bytes: &[u8]) -> Result<Message, CodecError> {
    let mut buf = bytes;
    let msg = decode_from(&mut buf)?;
    if !buf.is_empty() {
        return Err(CodecError::TrailingBytes(buf.len()));
    }
    Ok(msg)
}

/// Decodes one message from the front of `buf`, advancing it.
///
/// # Errors
///
/// Returns a [`CodecError`] on truncation, unknown tags, or oversized
/// length fields.
pub fn decode_from(buf: &mut &[u8]) -> Result<Message, CodecError> {
    let tag = take_u8(buf)?;
    let msg = match tag {
        TAG_JOIN => Message::Join {
            origin: take_id(buf)?,
            weight: take_u32(buf)?,
            hops: take_u32(buf)?,
        },
        TAG_INIT_VIEW_REQUEST => Message::InitViewRequest {
            nonce: take_nonce(buf)?,
        },
        TAG_INIT_VIEW_REPLY => Message::InitViewReply {
            nonce: take_nonce(buf)?,
            view: take_view(buf)?,
        },
        TAG_VIEW_PING => Message::ViewPing {
            nonce: take_nonce(buf)?,
        },
        TAG_VIEW_PONG => Message::ViewPong {
            nonce: take_nonce(buf)?,
        },
        TAG_VIEW_FETCH => Message::ViewFetch {
            nonce: take_nonce(buf)?,
        },
        TAG_VIEW_FETCH_REPLY => Message::ViewFetchReply {
            nonce: take_nonce(buf)?,
            view: take_view(buf)?,
        },
        TAG_NOTIFY => Message::Notify {
            monitor: take_id(buf)?,
            target: take_id(buf)?,
        },
        TAG_MONITOR_PING => Message::MonitorPing {
            nonce: take_nonce(buf)?,
        },
        TAG_MONITOR_PONG => Message::MonitorPong {
            nonce: take_nonce(buf)?,
        },
        TAG_REPORT_REQUEST => Message::ReportRequest {
            nonce: take_nonce(buf)?,
            count: take_u8(buf)?,
        },
        TAG_REPORT_REPLY => Message::ReportReply {
            nonce: take_nonce(buf)?,
            monitors: take_view(buf)?,
        },
        TAG_HISTORY_REQUEST => Message::HistoryRequest {
            nonce: take_nonce(buf)?,
            target: take_id(buf)?,
        },
        TAG_HISTORY_REPLY => {
            let nonce = take_nonce(buf)?;
            let target = take_id(buf)?;
            let availability = match take_u8(buf)? {
                0 => None,
                _ => Some(take_f64(buf)?),
            };
            let samples = take_u64(buf)?;
            Message::HistoryReply {
                nonce,
                target,
                availability,
                samples,
            }
        }
        TAG_ADD_ME_REQUEST => Message::AddMeRequest,
        TAG_PRESENCE => Message::Presence {
            origin: take_id(buf)?,
        },
        TAG_APP_DATA => Message::AppData {
            payload: take_payload(buf)?,
        },
        other => return Err(CodecError::UnknownTag(other)),
    };
    Ok(msg)
}

fn need(buf: &[u8], n: usize) -> Result<(), CodecError> {
    if buf.len() < n {
        Err(CodecError::Truncated {
            needed: n - buf.len(),
        })
    } else {
        Ok(())
    }
}

fn take_u8(buf: &mut &[u8]) -> Result<u8, CodecError> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

fn take_u16(buf: &mut &[u8]) -> Result<u16, CodecError> {
    need(buf, 2)?;
    Ok(buf.get_u16())
}

fn take_u32(buf: &mut &[u8]) -> Result<u32, CodecError> {
    need(buf, 4)?;
    Ok(buf.get_u32())
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, CodecError> {
    need(buf, 8)?;
    Ok(buf.get_u64())
}

fn take_f64(buf: &mut &[u8]) -> Result<f64, CodecError> {
    need(buf, 8)?;
    Ok(buf.get_f64())
}

fn take_nonce(buf: &mut &[u8]) -> Result<Nonce, CodecError> {
    Ok(Nonce(take_u64(buf)?))
}

fn take_id(buf: &mut &[u8]) -> Result<NodeId, CodecError> {
    need(buf, NodeId::ENCODED_LEN)?;
    let mut raw = [0u8; NodeId::ENCODED_LEN];
    buf.copy_to_slice(&mut raw);
    Ok(NodeId::from_bytes(raw))
}

fn take_payload(buf: &mut &[u8]) -> Result<Vec<u8>, CodecError> {
    let len = usize::from(take_u16(buf)?);
    if len > MAX_APP_PAYLOAD {
        return Err(CodecError::LengthOutOfRange {
            declared: len,
            max: MAX_APP_PAYLOAD,
        });
    }
    need(buf, len)?;
    let mut payload = vec![0u8; len];
    buf.copy_to_slice(&mut payload);
    Ok(payload)
}

fn take_view(buf: &mut &[u8]) -> Result<Vec<NodeId>, CodecError> {
    let len = usize::from(take_u16(buf)?);
    if len > MAX_VIEW_ENTRIES {
        return Err(CodecError::LengthOutOfRange {
            declared: len,
            max: MAX_VIEW_ENTRIES,
        });
    }
    // The wire must hold every declared entry before anything is
    // allocated for them.
    need(buf, len * NodeId::ENCODED_LEN)?;
    let mut view = Vec::with_capacity(len);
    for _ in 0..len {
        view.push(take_id(buf)?);
    }
    Ok(view)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        let a = NodeId::from_index(17);
        let b = NodeId::from_index(39);
        vec![
            Message::Join {
                origin: a,
                weight: 27,
                hops: 3,
            },
            Message::InitViewRequest { nonce: Nonce(7) },
            Message::InitViewReply {
                nonce: Nonce(7),
                view: vec![a, b],
            },
            Message::ViewPing {
                nonce: Nonce(u64::MAX),
            },
            Message::ViewPong { nonce: Nonce(0) },
            Message::ViewFetch { nonce: Nonce(1) },
            Message::ViewFetchReply {
                nonce: Nonce(1),
                view: vec![],
            },
            Message::ViewFetchReply {
                nonce: Nonce(2),
                view: (0..27).map(NodeId::from_index).collect(),
            },
            Message::Notify {
                monitor: a,
                target: b,
            },
            Message::MonitorPing { nonce: Nonce(5) },
            Message::MonitorPong { nonce: Nonce(5) },
            Message::ReportRequest {
                nonce: Nonce(9),
                count: 4,
            },
            Message::ReportReply {
                nonce: Nonce(9),
                monitors: vec![b],
            },
            Message::HistoryRequest {
                nonce: Nonce(11),
                target: a,
            },
            Message::HistoryReply {
                nonce: Nonce(11),
                target: a,
                availability: Some(0.75),
                samples: 42,
            },
            Message::HistoryReply {
                nonce: Nonce(12),
                target: b,
                availability: None,
                samples: 0,
            },
            Message::AddMeRequest,
            Message::Presence { origin: b },
            Message::AppData { payload: vec![] },
            Message::AppData {
                payload: vec![0xde, 0xad, 0xbe, 0xef],
            },
        ]
    }

    #[test]
    fn round_trips_every_variant() {
        for msg in sample_messages() {
            let bytes = encode(&msg);
            assert_eq!(decode(&bytes).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn encoded_len_is_exact() {
        for msg in sample_messages() {
            assert_eq!(encode(&msg).len(), encoded_len(&msg), "{msg:?}");
        }
    }

    #[test]
    fn view_reply_size_matches_paper_accounting() {
        // 11 bytes header + 6 per entry: cvs=32 → 203 bytes ≈ the paper's
        // 192B estimate at 6B/entry.
        let view: Vec<NodeId> = (0..32).map(NodeId::from_index).collect();
        let msg = Message::ViewFetchReply {
            nonce: Nonce(0),
            view,
        };
        assert_eq!(encoded_len(&msg), 1 + 8 + 2 + 6 * 32);
    }

    #[test]
    fn rejects_unknown_tag() {
        assert_eq!(decode(&[0xEE]), Err(CodecError::UnknownTag(0xEE)));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        for msg in sample_messages() {
            let bytes = encode(&msg);
            for cut in 0..bytes.len() {
                let err = decode(&bytes[..cut]);
                assert!(err.is_err(), "{msg:?} truncated at {cut} must fail");
            }
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = encode(&Message::AddMeRequest).to_vec();
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn rejects_oversized_view_length() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_VIEW_FETCH_REPLY);
        buf.put_u64(0);
        buf.put_u16(u16::MAX);
        let err = decode(&buf);
        assert_eq!(
            err,
            Err(CodecError::LengthOutOfRange {
                declared: usize::from(u16::MAX),
                max: MAX_VIEW_ENTRIES
            })
        );
    }

    /// A view length prefix within range but beyond the bytes that follow
    /// fails on the whole shortfall, before a view is allocated for it.
    #[test]
    fn rejects_view_length_the_wire_does_not_hold() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_VIEW_FETCH_REPLY);
        buf.put_u64(0);
        buf.put_u16(4096);
        assert_eq!(buf.len(), 11);
        assert_eq!(
            decode(&buf),
            Err(CodecError::Truncated {
                needed: 4096 * NodeId::ENCODED_LEN
            })
        );
    }

    #[test]
    fn rejects_oversized_app_payload() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_APP_DATA);
        buf.put_u16(u16::MAX);
        let err = decode(&buf);
        assert_eq!(
            err,
            Err(CodecError::LengthOutOfRange {
                declared: usize::from(u16::MAX),
                max: MAX_APP_PAYLOAD
            })
        );
    }

    #[test]
    fn decode_from_advances_buffer() {
        let mut buf = BytesMut::new();
        encode_into(&Message::AddMeRequest, &mut buf);
        encode_into(&Message::ViewPing { nonce: Nonce(3) }, &mut buf);
        let bytes = buf.freeze();
        let mut slice: &[u8] = &bytes;
        assert_eq!(decode_from(&mut slice).unwrap(), Message::AddMeRequest);
        assert_eq!(
            decode_from(&mut slice).unwrap(),
            Message::ViewPing { nonce: Nonce(3) }
        );
        assert!(slice.is_empty());
    }
}
