//! CRC-32 checksums and the length-prefixed **frame** encoding shared by
//! every durable store in the workspace.
//!
//! Both `om-storage`'s file backend (WAL batches, snapshot entries) and
//! `om-log`'s persistent topic (log-segment records) write their records
//! as frames:
//!
//! ```text
//! payload_len: u32 LE  ++  crc32(payload): u32 LE  ++  payload
//! ```
//!
//! No frame has an empty payload, so a length field that reads zero is
//! never a frame: it is where the frames **end**. A log segment is
//! created full-size and zero-filled, so its written region is followed
//! by zeros, and [`parse_frame`] stops there.
//!
//! The frame is also the unit of **torn-tail recovery**: a process dying
//! mid-append leaves a final frame whose length or checksum no longer
//! validates, and [`parse_frame`] reports the exact byte offset where
//! the valid prefix ends so the store can cut there. The formats built
//! on top of frames are documented in `docs/DURABILITY.md`.

/// Bytes of a frame header (`u32` length + `u32` CRC).
pub const FRAME_HEADER: usize = 8;

/// CRC-32 (IEEE 802.3, reflected) lookup tables for slicing-by-8,
/// built at compile time. `CRC_TABLES[0]` is the classic bytewise
/// table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight table lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (IEEE polynomial — the checksum in every frame),
/// eight bytes per step (slicing-by-8).
///
/// ```
/// // The standard test vector.
/// assert_eq!(om_common::checksum::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = u32::MAX;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Appends `payload` to `out` as one frame (header + payload). The
/// payload must not be empty: a zero length field marks the end of the
/// frames.
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(!payload.is_empty(), "a zero length field ends the frames");
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Parses the frame starting at byte `at` of `bytes`.
///
/// * `Ok(Some((payload, next_at)))` — a valid frame; continue at `next_at`.
/// * `Ok(None)` — no frame starts at `at`: the buffer ends there, or its
///   length field reads zero (all of it the buffer holds) — the end of
///   the frames.
/// * `Err(at)` — the bytes from `at` on are not one whole valid frame
///   (truncated header, truncated payload, or checksum mismatch): the
///   torn-tail truncation point.
pub fn parse_frame(bytes: &[u8], at: usize) -> Result<Option<(&[u8], usize)>, usize> {
    let rest = &bytes[at..];
    if rest.iter().take(4).all(|&b| b == 0) {
        return Ok(None);
    }
    if rest.len() < FRAME_HEADER {
        return Err(at);
    }
    let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    if rest.len() - FRAME_HEADER < len {
        return Err(at);
    }
    let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
    if crc32(payload) != crc {
        return Err(at);
    }
    Ok(Some((payload, at + FRAME_HEADER + len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn frames_roundtrip_and_report_torn_tails() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"first");
        push_frame(&mut buf, b"second record");
        let (p1, at) = parse_frame(&buf, 0).unwrap().unwrap();
        assert_eq!(p1, b"first");
        let (p2, at) = parse_frame(&buf, at).unwrap().unwrap();
        assert_eq!(p2, b"second record");
        assert!(parse_frame(&buf, at).unwrap().is_none(), "clean end");

        // Any truncation of the second frame reports the torn tail at
        // its start; flipping a payload bit fails the checksum the same
        // way.
        let first_end = FRAME_HEADER + 5;
        for cut in first_end + 1..buf.len() {
            assert_eq!(parse_frame(&buf[..cut], first_end), Err(first_end), "cut={cut}");
        }
        let mut corrupt = buf.clone();
        *corrupt.last_mut().unwrap() ^= 0x01;
        assert_eq!(parse_frame(&corrupt, first_end), Err(first_end));
    }

    #[test]
    fn a_zero_length_field_ends_the_frames() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"record");
        let end = buf.len();
        // The zero fill of a pre-allocated segment, whole or cut short
        // inside the length field: the frames end at `end`.
        for pad in [1, 3, 4, 7, 8, 4_096] {
            let mut padded = buf.clone();
            padded.resize(end + pad, 0);
            let (_, at) = parse_frame(&padded, 0).unwrap().unwrap();
            assert_eq!(parse_frame(&padded, at), Ok(None), "pad={pad}");
        }
        // An all-zero header is not an empty frame, though its CRC
        // field (that of the empty payload) would match.
        assert_eq!(crc32(b""), 0);
        assert_eq!(parse_frame(&[0u8; FRAME_HEADER], 0), Ok(None));
        // A non-zero length field is a frame, or a torn one.
        let mut torn = buf.clone();
        torn.extend_from_slice(&[0, 0, 0, 1, 0, 0, 0, 0]);
        assert_eq!(parse_frame(&torn, end), Err(end));
    }

    /// The bytewise loop slicing-by-8 replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_crc() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let mut rng = SplitMix64::new(0xC5C3_2000);
        let bytes: Vec<u8> = (0..4_096 + 8).map(|_| rng.next_u64() as u8).collect();
        for len in 0..=4_096 {
            // Every length, at a seeded start so unaligned slices are
            // covered too.
            let start = rng.next_bounded(8) as usize;
            let slice = &bytes[start..start + len];
            assert_eq!(
                crc32(slice),
                crc32_bytewise(slice),
                "len={len} start={start}"
            );
        }
    }
}
