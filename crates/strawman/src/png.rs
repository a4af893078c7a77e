//! Minimal dependency-free PNG encoder (8-bit RGBA, zlib *stored* blocks).
//!
//! Strawman's result delivery (requirement R8) writes PNG files. We encode
//! with uncompressed deflate blocks — bit-exact valid PNG, no compression
//! ratio. CRC-32 and Adler-32 are implemented here. The encoder copies the
//! pixels once, from the caller's buffer into the file bytes, and checksums
//! them where they land.

/// `CRC_TABLES[0]` is the byte-at-a-time CRC-32 table of the reflected
/// polynomial; `CRC_TABLES[k][b]` is byte `b`'s CRC followed by `k` zero
/// bytes, which lets [`crc32`] fold eight input bytes per step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 8 * 256 {
        let (k, b) = (i / 256, i % 256);
        if k == 0 {
            let (mut crc, mut bit) = (b as u32, 0);
            while bit < 8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                bit += 1;
            }
            t[0][b] = crc;
        } else {
            t[k][b] = (t[k - 1][b] >> 8) ^ t[0][(t[k - 1][b] & 0xFF) as usize];
        }
        i += 1;
    }
    t
};

/// CRC-32 (ISO 3309) with the standard polynomial.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][w[4] as usize]
            ^ CRC_TABLES[2][w[5] as usize]
            ^ CRC_TABLES[1][w[6] as usize]
            ^ CRC_TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Continue an Adler-32 `(a, b)` pair, both already reduced, over `data`.
fn adler32_update((mut a, mut b): (u32, u32), data: &[u8]) -> (u32, u32) {
    const MOD: u32 = 65521;
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (a, b)
}

/// Adler-32 checksum (zlib).
pub fn adler32(data: &[u8]) -> u32 {
    let (a, b) = adler32_update((1, 0), data);
    (b << 16) | a
}

/// Append the CRC that closes the chunk whose type field starts at `kind_at`.
fn close_chunk(out: &mut Vec<u8>, kind_at: usize) {
    let crc = crc32(&out[kind_at..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// Append a zlib stream of stored (BTYPE=00) deflate blocks holding the
/// `raw_len` bytes of `pieces`. The length is known up front, so each block's
/// header (final flag, LEN, NLEN) goes out before its bytes and nothing is
/// staged.
fn zlib_stored<'a>(out: &mut Vec<u8>, raw_len: usize, pieces: impl Iterator<Item = &'a [u8]>) {
    out.extend_from_slice(&[0x78, 0x01]); // CMF: deflate, 32K window; FLG: no dict, check bits
    if raw_len == 0 {
        out.extend_from_slice(&[0x01, 0x00, 0x00, 0xFF, 0xFF]);
    }
    let (mut at, mut adler) = (0, (1, 0));
    for mut raw in pieces {
        adler = adler32_update(adler, raw);
        while !raw.is_empty() {
            if at % 65535 == 0 {
                let len = raw_len.saturating_sub(at).min(65535) as u16;
                out.push((at + len as usize == raw_len) as u8);
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&(!len).to_le_bytes());
            }
            let (now, later) = raw.split_at(raw.len().min(65535 - at % 65535));
            out.extend_from_slice(now);
            at += now.len();
            raw = later;
        }
    }
    assert_eq!(at, raw_len, "raw bytes announced");
    out.extend_from_slice(&((adler.1 << 16) | adler.0).to_be_bytes());
}

/// Encode RGBA8 pixels (row-major, top first) as a PNG byte stream.
pub fn encode_rgba(width: u32, height: u32, rgba: &[u8]) -> Vec<u8> {
    assert_eq!(rgba.len(), width as usize * height as usize * 4, "pixel buffer size");
    // Raw scanlines: filter byte 0 + row.
    let stride = width as usize * 4;
    let raw_len = (stride + 1) * height as usize;
    let idat_len = 2 + 5 * raw_len.div_ceil(65535).max(1) + raw_len + 4;
    let mut out = Vec::with_capacity(8 + 25 + 12 + idat_len + 12);
    out.extend_from_slice(&[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A]);

    out.extend_from_slice(&13u32.to_be_bytes());
    out.extend_from_slice(b"IHDR");
    out.extend_from_slice(&width.to_be_bytes());
    out.extend_from_slice(&height.to_be_bytes());
    out.extend_from_slice(&[8, 6, 0, 0, 0]); // 8-bit, RGBA, deflate, std, none
    close_chunk(&mut out, 8 + 4); // past the signature and the length field

    out.extend_from_slice(&(idat_len as u32).to_be_bytes());
    let idat_at = out.len();
    out.extend_from_slice(b"IDAT");
    let rows = (0..height as usize).map(|y| &rgba[y * stride..(y + 1) * stride]);
    zlib_stored(&mut out, raw_len, rows.flat_map(|row| [&[0u8][..], row]));
    assert_eq!(out.len(), idat_at + 4 + idat_len, "IDAT length announced");
    close_chunk(&mut out, idat_at);

    out.extend_from_slice(&[0, 0, 0, 0, b'I', b'E', b'N', b'D', 0xAE, 0x42, 0x60, 0x82]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference the table CRC is checked against: one bit at a time.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// The encoder as it stood before the single-pass writer (scanlines into
    /// `raw`, `raw` into a zlib temporary, chunk bytes into a CRC input):
    /// the new one must produce its bytes exactly.
    fn parent_encode_rgba(width: u32, height: u32, rgba: &[u8]) -> Vec<u8> {
        fn chunk(out: &mut Vec<u8>, kind: &[u8; 4], payload: &[u8]) {
            out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            out.extend_from_slice(kind);
            out.extend_from_slice(payload);
            let mut crc_input = Vec::with_capacity(4 + payload.len());
            crc_input.extend_from_slice(kind);
            crc_input.extend_from_slice(payload);
            out.extend_from_slice(&crc32_bitwise(&crc_input).to_be_bytes());
        }
        fn zlib_stored(raw: &[u8]) -> Vec<u8> {
            let mut out = vec![0x78, 0x01];
            let mut chunks = raw.chunks(65535).peekable();
            if raw.is_empty() {
                out.extend_from_slice(&[0x01, 0x00, 0x00, 0xFF, 0xFF]);
            }
            while let Some(c) = chunks.next() {
                out.push(chunks.peek().is_none() as u8);
                let len = c.len() as u16;
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&(!len).to_le_bytes());
                out.extend_from_slice(c);
            }
            out.extend_from_slice(&adler32(raw).to_be_bytes());
            out
        }
        let mut out = vec![0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A];
        let mut ihdr = Vec::with_capacity(13);
        ihdr.extend_from_slice(&width.to_be_bytes());
        ihdr.extend_from_slice(&height.to_be_bytes());
        ihdr.extend_from_slice(&[8, 6, 0, 0, 0]);
        chunk(&mut out, b"IHDR", &ihdr);
        let mut raw = Vec::new();
        for row in rgba.chunks(width as usize * 4) {
            raw.push(0);
            raw.extend_from_slice(row);
        }
        chunk(&mut out, b"IDAT", &zlib_stored(&raw));
        chunk(&mut out, b"IEND", &[]);
        out
    }

    /// `len` bytes of a seeded xorshift stream.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"IEND"), 0xAE42_6082);
    }

    #[test]
    fn table_crc_equals_bitwise_crc() {
        for v in [&b""[..], b"123456789", b"IEND"] {
            assert_eq!(crc32(v), crc32_bitwise(v));
        }
        for (seed, len) in [0, 1, 7, 8, 9, 65_535, 65_536, 288 * 288 * 4].into_iter().enumerate() {
            let buf = noise(seed as u64 + 1, len);
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "length {len}");
        }
    }

    #[test]
    fn encoder_bytes_are_the_parent_encoder_s() {
        // 127×129: (127·4 + 1)·129 = 65 661 raw bytes, so the first stored
        // block ends 383 bytes into the last scanline.
        for (i, (w, h)) in [(1u32, 1u32), (4, 4), (127, 129), (288, 288)].into_iter().enumerate() {
            let px = noise(i as u64 + 11, (w * h * 4) as usize);
            assert!(encode_rgba(w, h, &px) == parent_encode_rgba(w, h, &px), "{w}x{h}");
        }
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn png_structure_is_valid() {
        let px = vec![255u8; 4 * 4 * 4];
        let png = encode_rgba(4, 4, &px);
        // Signature.
        assert_eq!(&png[..8], &[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A]);
        // IHDR at offset 8.
        assert_eq!(&png[12..16], b"IHDR");
        assert_eq!(u32::from_be_bytes([png[16], png[17], png[18], png[19]]), 4); // width
                                                                                 // Ends with IEND + its CRC.
        let n = png.len();
        assert_eq!(&png[n - 8..n - 4], b"IEND");
        assert_eq!(
            u32::from_be_bytes([png[n - 4], png[n - 3], png[n - 2], png[n - 1]]),
            0xAE42_6082
        );
    }

    #[test]
    fn zlib_stream_round_trips_through_manual_inflate() {
        // Decode our own stored blocks to verify framing; the raw bytes
        // arrive in pieces that straddle the block boundaries.
        let raw: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        let mut z = Vec::new();
        zlib_stored(&mut z, raw.len(), raw.chunks(70_001));
        assert_eq!(z[0], 0x78);
        let mut pos = 2;
        let mut recovered = Vec::new();
        loop {
            let bfinal = z[pos];
            let len = u16::from_le_bytes([z[pos + 1], z[pos + 2]]) as usize;
            let nlen = u16::from_le_bytes([z[pos + 3], z[pos + 4]]);
            assert_eq!(!(len as u16), nlen, "NLEN check");
            pos += 5;
            recovered.extend_from_slice(&z[pos..pos + len]);
            pos += len;
            if bfinal == 1 {
                break;
            }
        }
        assert_eq!(recovered, raw);
        let adler = u32::from_be_bytes([z[pos], z[pos + 1], z[pos + 2], z[pos + 3]]);
        assert_eq!(adler, adler32(&raw));
    }

    #[test]
    #[should_panic(expected = "pixel buffer size")]
    fn wrong_buffer_size_panics() {
        encode_rgba(2, 2, &[0u8; 3]);
    }
}
