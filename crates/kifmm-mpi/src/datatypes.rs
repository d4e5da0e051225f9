//! The collectives' payload codecs: numeric slices to and from
//! little-endian byte messages, with plain `{to,from}_le_bytes`.

/// Encode `f64`s little-endian.
pub(crate) fn encode_f64s(v: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for &x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Decode `f64`s little-endian.
pub(crate) fn decode_f64s(b: &[u8]) -> Vec<f64> {
    assert_eq!(b.len() % 8, 0, "payload is not a whole number of f64s");
    b.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
}

/// Encode `u64`s little-endian.
pub(crate) fn encode_u64s(v: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for &x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Decode `u64`s little-endian.
pub(crate) fn decode_u64s(b: &[u8]) -> Vec<u64> {
    assert_eq!(b.len() % 8, 0, "payload is not a whole number of u64s");
    b.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let v = vec![0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, 3.25];
        assert_eq!(decode_f64s(&encode_f64s(&v)), v);
        assert!(decode_f64s(&[]).is_empty());
    }

    #[test]
    fn u64_roundtrip() {
        let v = vec![0u64, 1, u64::MAX, 42];
        assert_eq!(decode_u64s(&encode_u64s(&v)), v);
    }

    #[test]
    fn byte_layout_is_little_endian() {
        assert_eq!(encode_u64s(&[0x0807_0605_0403_0201]), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(encode_f64s(&[1.0])[7], 0x3f);
    }

    #[test]
    #[should_panic]
    fn ragged_payload_rejected() {
        decode_f64s(&[1, 2, 3]);
    }
}
