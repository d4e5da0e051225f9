//! `PeerPacket` — the coalesced per-peer wire format.
//!
//! Posting one message *per box* is the many-small-messages anti-pattern:
//! each message pays a mailbox lock, a map insertion and a condvar signal
//! (latency and per-message overhead on a real interconnect). A
//! `PeerPacket` carries every box payload a `(phase, peer)` pair exchanges
//! in **one** contiguous message:
//!
//! ```text
//! [count: u32]
//! [(box_id: u32, len: u32) × count]     — the header records
//! [payload: f64 × Σ len]               — all box payloads, concatenated
//! ```
//!
//! `len` counts `f64`s, not bytes. All integers and floats are
//! little-endian, matching the collectives' codecs. Encode and decode are
//! exact inverses; a truncated or ragged buffer panics with a diagnostic
//! rather than yielding garbage payloads.

/// Encode one packed per-peer message from `(box id, payload)` entries.
pub fn encode_packet(entries: &[(u32, &[f64])]) -> Vec<u8> {
    let floats: usize = entries.iter().map(|(_, p)| p.len()).sum();
    let mut out = Vec::with_capacity(4 + entries.len() * 8 + floats * 8);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (b, p) in entries {
        let len = u32::try_from(p.len()).expect("box payload exceeds u32::MAX f64s");
        out.extend_from_slice(&b.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
    }
    for (_, p) in entries {
        for &x in *p {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out
}

/// Decode a message produced by [`encode_packet`] back into
/// `(box id, payload)` entries, in the sender's entry order.
pub fn decode_packet(bytes: &[u8]) -> Vec<(u32, Vec<f64>)> {
    let word = |at: usize| -> u32 {
        u32::from_le_bytes(bytes[at..at + 4].try_into().expect("truncated packet header"))
    };
    assert!(bytes.len() >= 4, "packet shorter than its count field");
    let count = word(0) as usize;
    let header_end = 4 + count * 8;
    assert!(bytes.len() >= header_end, "packet shorter than its header");
    let mut entries = Vec::with_capacity(count);
    let mut cursor = header_end;
    for i in 0..count {
        let b = word(4 + i * 8);
        let len = word(4 + i * 8 + 4) as usize;
        let end = cursor + len * 8;
        assert!(bytes.len() >= end, "packet payload truncated at box {b}");
        let payload = bytes[cursor..end]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        entries.push((b, payload));
        cursor = end;
    }
    assert_eq!(cursor, bytes.len(), "trailing bytes after the last box payload");
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_order_and_values() {
        let a = vec![1.5, -2.25, 0.0];
        let b: Vec<f64> = Vec::new();
        let c = vec![f64::MAX, f64::MIN_POSITIVE];
        let entries: Vec<(u32, &[f64])> = vec![(7, &a), (0, &b), (u32::MAX, &c)];
        let wire = encode_packet(&entries);
        let back = decode_packet(&wire);
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], (7, a));
        assert_eq!(back[1], (0, b));
        assert_eq!(back[2], (u32::MAX, c));
    }

    #[test]
    fn empty_packet_roundtrips() {
        let wire = encode_packet(&[]);
        assert_eq!(wire, vec![0, 0, 0, 0]);
        assert!(decode_packet(&wire).is_empty());
    }

    #[test]
    fn one_message_regardless_of_box_count() {
        // The point of the format: n boxes, one contiguous buffer.
        let payloads: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64; 3]).collect();
        let entries: Vec<(u32, &[f64])> =
            payloads.iter().enumerate().map(|(i, p)| (i as u32, p.as_slice())).collect();
        let wire = encode_packet(&entries);
        assert_eq!(wire.len(), 4 + 100 * 8 + 300 * 8);
        let back = decode_packet(&wire);
        for (i, (b, p)) in back.iter().enumerate() {
            assert_eq!(*b as usize, i);
            assert_eq!(p, &payloads[i]);
        }
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_payload_rejected() {
        let p = vec![1.0, 2.0];
        let mut wire = encode_packet(&[(3, &p)]);
        wire.truncate(wire.len() - 1);
        decode_packet(&wire);
    }

    #[test]
    #[should_panic(expected = "trailing")]
    fn trailing_garbage_rejected() {
        let p = vec![1.0];
        let mut wire = encode_packet(&[(3, &p)]);
        wire.push(0);
        decode_packet(&wire);
    }
}
