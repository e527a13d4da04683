//! CRC-32 (IEEE 802.3, reflected) over byte slices.
//!
//! The one implementation in the workspace: the on-disk formats check
//! with it, and the transport's frame layer sums its header and payload
//! with [`crc32_update`]. The tables are built at compile time.
//!
//! The checksum runs over every WAL record at recovery, every checkpoint,
//! every spill slot and every frame, so it goes eight bytes a step
//! ("slicing-by-8"):
//! table `k` holds the CRC of a byte followed by `k` zero bytes, which
//! lets the eight lookups of one step proceed independently instead of
//! each waiting for the previous byte's result.

const fn build_tables() -> [[u32; 256]; 8] {
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
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// The CRC-32 checksum of the bytes `crc` summed followed by `bytes`:
/// `crc32_update(crc32(a), b)` is `crc32` of `a` and `b` joined.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Longer than one eight-byte step, with a remainder.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn a_checksum_continues_across_pieces() {
        assert_eq!(crc32_update(0, b"123456789"), 0xCBF4_3926);
        let text = b"The quick brown fox jumps over the lazy dog";
        for split in 0..=text.len() {
            let (head, tail) = text.split_at(split);
            assert_eq!(
                crc32_update(crc32(head), tail),
                crc32(text),
                "split at {split}"
            );
        }
    }

    #[test]
    fn one_bit_flips_change_the_checksum() {
        let base = crc32(b"record payload");
        let mut bytes = b"record payload".to_vec();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                assert_ne!(crc32(&bytes), base, "flip at byte {i} bit {bit}");
                bytes[i] ^= 1 << bit;
            }
        }
    }
}
