//! CRC32C (Castagnoli) — the per-page integrity checksum of the store
//! file format (DESIGN.md §13).
//!
//! Self-contained because the build environment has no crates.io access.
//! The Castagnoli polynomial is the standard choice for storage checksums
//! (iSCSI, ext4, Btrfs): it detects all single-byte errors and all burst
//! errors up to 32 bits, which is exactly the torn-write / bit-flip fault
//! model the disk store defends against.
//!
//! Every buffer miss checksums one page, so the kernel works a word at a
//! time: the `crc32` instruction where the CPU has it (x86-64 SSE4.2,
//! detected at run time), a slicing-by-8 table kernel everywhere else.
//! Both sit behind the one [`crc32c`] entry point and produce the same
//! value for every input.

/// Reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC state after byte `b` followed by `k` zero bytes, which lets eight
/// input bytes be folded in with eight independent lookups.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
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

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC32C of `bytes` (initial value all-ones, final value inverted — the
/// conventional framing, matching hardware `crc32c` instructions).
pub fn crc32c(bytes: &[u8]) -> u32 {
    !hardware(!0, bytes).unwrap_or_else(|| slicing_by_8(!0, bytes))
}

/// Fold `bytes` into the raw CRC state one byte per table lookup.
fn bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The portable kernel: eight bytes per step, eight table lookups that
/// do not depend on each other. `pub(crate)` so tests reach it on hosts
/// where [`crc32c`] dispatches to the hardware kernel.
pub(crate) fn slicing_by_8(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
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
    bytewise(crc, words.remainder())
}

/// The hardware kernel, or `None` where the CPU (or the target) has no
/// CRC32C instruction. The crate's only `unsafe` lives here.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) fn hardware(crc: u32, bytes: &[u8]) -> Option<u32> {
    use std::arch::x86_64::_mm_crc32_u64;

    #[target_feature(enable = "sse4.2")]
    fn kernel(crc: u32, bytes: &[u8]) -> u32 {
        let mut words = bytes.chunks_exact(8);
        let mut wide = u64::from(crc);
        for w in &mut words {
            let word = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
            wide = _mm_crc32_u64(wide, word);
        }
        // The instruction leaves the upper half zero.
        bytewise(wide as u32, words.remainder())
    }

    if !std::arch::is_x86_feature_detected!("sse4.2") {
        return None;
    }
    // SAFETY: `kernel` is an otherwise safe function whose only
    // requirement is that the CPU executes SSE4.2, checked just above.
    Some(unsafe { kernel(crc, bytes) })
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn hardware(_crc: u32, _bytes: &[u8]) -> Option<u32> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{seal_page, verify_page, PAGE_PAYLOAD, PAGE_SIZE};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn fill_random(rng: &mut StdRng, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
        }
    }

    /// The byte-at-a-time loop every kernel must agree with.
    fn oracle(bytes: &[u8]) -> u32 {
        !bytewise(!0, bytes)
    }

    /// Oracle ≡ portable kernel ≡ dispatching entry point ≡ hardware
    /// kernel (where this host has one).
    fn assert_kernels_agree(bytes: &[u8]) -> u32 {
        let want = oracle(bytes);
        assert_eq!(!slicing_by_8(!0, bytes), want, "slicing-by-8, {} bytes", bytes.len());
        assert_eq!(crc32c(bytes), want, "crc32c, {} bytes", bytes.len());
        if let Some(hw) = hardware(!0, bytes) {
            assert_eq!(!hw, want, "hardware, {} bytes", bytes.len());
        }
        want
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 (iSCSI) appendix B.4 test vectors.
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        for (bytes, crc) in [
            (&b""[..], 0),
            (&b"123456789"[..], 0xE306_9283),
            (&[0u8; 32][..], 0x8A91_36AA),
            (&[0xFFu8; 32][..], 0x62A8_AB43),
            (&ascending[..], 0x46DD_794E),
            (&descending[..], 0x113F_DB5C),
        ] {
            assert_eq!(assert_kernels_agree(bytes), crc);
        }
    }

    #[test]
    fn every_short_length_at_every_start_offset() {
        // Unaligned heads and tails: the word loop must not care where
        // the slice starts or how many bytes trail the last whole word.
        let mut rng = StdRng::seed_from_u64(0xC3C3);
        let mut backing = [0u8; 8 + 257];
        fill_random(&mut rng, &mut backing);
        for start in 0..8 {
            for len in 0..=257 {
                assert_kernels_agree(&backing[start..start + len]);
            }
        }
    }

    #[test]
    fn random_page_payloads() {
        let mut rng = StdRng::seed_from_u64(20260926);
        let mut payload = vec![0u8; PAGE_PAYLOAD];
        for _ in 0..1000 {
            fill_random(&mut rng, &mut payload);
            assert_kernels_agree(&payload);
        }
    }

    #[test]
    fn detects_every_single_byte_flip() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let crc = crc32c(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut corrupted = base.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32c(&corrupted), crc, "flip at byte {i} bit {bit} undetected");
            }
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_sealed_page_fails_verification() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut page = Box::new([0u8; PAGE_SIZE]);
        fill_random(&mut rng, &mut page[..]);
        seal_page(&mut page);
        assert!(verify_page(&page));
        // Payload and trailer alike: 8 192 × 8 flips.
        for byte in 0..PAGE_SIZE {
            for bit in 0..8 {
                page[byte] ^= 1 << bit;
                assert!(!verify_page(&page), "flip at byte {byte} bit {bit} undetected");
                page[byte] ^= 1 << bit;
            }
        }
        assert!(verify_page(&page));
    }
}
