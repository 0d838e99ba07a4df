//! Bit-packed serialization of polynomials.
//!
//! Two families of layouts live here:
//!
//! * **Byte-stream packing** ([`pack_bits`] / [`unpack_bits`], and the
//!   allocation-free [`pack_bits_into`] / [`unpack_bits_into`]) — the
//!   little-endian bitstream encoding used by Saber's wire formats and
//!   XOF expansion (13-bit matrix coefficients, 10-bit public-key words,
//!   `ε_T`-bit ciphertext words, 1-bit messages). It is a group codec:
//!   eight `bits`-wide values occupy exactly `bits` bytes, so each group
//!   moves through one little-endian `u128` instead of bit by bit;
//! * **64-bit memory-word layouts** ([`words_from_coeffs`] /
//!   [`coeffs_from_words`]) — the exact BRAM image the paper's hardware
//!   multipliers stream: 13-bit public/accumulator coefficients packed
//!   contiguously (52 words per polynomial, with coefficients straddling
//!   word boundaries — the reason for the 24-bit extraction multiplexer
//!   of §4.1), and 4-bit two's-complement secret nibbles (16 per word,
//!   16 words per polynomial).

use crate::modulus::N;
use crate::poly::Poly;
use crate::secret::{SecretPoly, SecretRangeError};

/// Values per codec group: eight `bits`-wide values fill exactly `bits`
/// bytes, so groups never share a byte.
const GROUP: usize = 8;

/// One group's eight `width`-bit values as a little-endian word.
#[inline(always)]
fn join_group(group: &[u16; GROUP], width: usize) -> u128 {
    group
        .iter()
        .enumerate()
        .fold(0, |word, (j, &v)| word | u128::from(v) << (j * width))
}

/// Splits a little-endian word into eight `width`-bit values.
#[inline(always)]
fn split_group(word: u128, width: usize, group: &mut [u16; GROUP]) {
    let mask = (1u128 << width) - 1;
    for (j, v) in group.iter_mut().enumerate() {
        *v = ((word >> (j * width)) & mask) as u16;
    }
}

#[inline(always)]
fn pack_groups(values: &[u16], width: usize, out: &mut [u8]) {
    let len = out.len();
    let mut store = |g: usize, word: u128| {
        let start = g * width;
        match out.get_mut(start..start + 16) {
            // A full 16-byte store: the bytes past this group's `width`
            // are zero here and the next group overwrites them.
            Some(window) => window.copy_from_slice(&word.to_le_bytes()),
            None => out[start..].copy_from_slice(&word.to_le_bytes()[..len - start]),
        }
    };
    let mut groups = values.chunks_exact(GROUP);
    for (g, group) in groups.by_ref().enumerate() {
        store(g, join_group(group.try_into().expect("full group"), width));
    }
    let rest = groups.remainder();
    if !rest.is_empty() {
        let mut padded = [0u16; GROUP];
        padded[..rest.len()].copy_from_slice(rest);
        store(values.len() / GROUP, join_group(&padded, width));
    }
}

#[inline(always)]
fn unpack_groups(bytes: &[u8], width: usize, out: &mut [u16]) {
    let load = |g: usize| {
        let start = g * width;
        match bytes.get(start..start + 16) {
            Some(window) => u128::from_le_bytes(window.try_into().expect("16-byte window")),
            None => {
                let tail = &bytes[start..bytes.len().min(start + width)];
                let mut padded = [0u8; 16];
                padded[..tail.len()].copy_from_slice(tail);
                u128::from_le_bytes(padded)
            }
        }
    };
    let count = out.len();
    let mut groups = out.chunks_exact_mut(GROUP);
    for (g, group) in groups.by_ref().enumerate() {
        split_group(load(g), width, group.try_into().expect("full group"));
    }
    let rest = groups.into_remainder();
    if !rest.is_empty() {
        let mut padded = [0u16; GROUP];
        split_group(load(count / GROUP), width, &mut padded);
        rest.copy_from_slice(&padded[..rest.len()]);
    }
}

/// Packs `values`, each `bits` wide, into a little-endian bitstream.
///
/// # Panics
///
/// Panics if `bits` is 0 or > 16, or if any value exceeds `bits` bits.
#[must_use]
pub fn pack_bits(values: &[u16], bits: u32) -> Vec<u8> {
    let mut out = vec![0u8; (values.len() * bits as usize).div_ceil(8)];
    pack_bits_into(values, bits, &mut out);
    out
}

/// Allocation-free [`pack_bits`]: writes the bitstream into `out`, which
/// must hold exactly `⌈values.len()·bits/8⌉` bytes (every byte is
/// overwritten, so it need not be zeroed).
///
/// Each group of eight values is assembled in one little-endian `u128`
/// and stored as `bits` bytes; a partial last group is zero-padded and
/// stores only the bytes it reaches.
///
/// # Panics
///
/// Panics if `bits` is 0 or > 16, if `out` has the wrong length, or if
/// any value exceeds `bits` bits.
pub fn pack_bits_into(values: &[u16], bits: u32, out: &mut [u8]) {
    assert!((1..=16).contains(&bits), "bit width out of range");
    assert_eq!(
        out.len(),
        (values.len() * bits as usize).div_ceil(8),
        "output buffer must hold exactly the packed bytes"
    );
    let overflow = values.iter().fold(0, |acc, &v| acc | v >> (bits - 1) >> 1);
    if overflow != 0 {
        // Rejected input only: locating the offender may branch.
        let v = values
            .iter()
            .find(|&&v| u32::from(v) >= 1 << bits)
            .expect("an oversized value was flagged");
        panic!("value {v} exceeds {bits} bits");
    }
    // Saber's two hot widths get copies with constant shifts.
    match bits {
        10 => pack_groups(values, 10, out),
        13 => pack_groups(values, 13, out),
        _ => pack_groups(values, bits as usize, out),
    }
}

/// Unpacks `count` values of `bits` width from a little-endian bitstream.
///
/// # Panics
///
/// Panics if the stream is too short or `bits` is out of range.
#[must_use]
pub fn unpack_bits(bytes: &[u8], bits: u32, count: usize) -> Vec<u16> {
    let mut out = vec![0u16; count];
    unpack_bits_into(bytes, bits, &mut out);
    out
}

/// Allocation-free [`unpack_bits`]: fills `out` with the first
/// `out.len()` values of the bitstream.
///
/// Each group of eight values is read from its `bits` bytes as one
/// little-endian `u128` (a full 16-byte load while the stream is long
/// enough, a zero-padded copy near its end) and split with shifts and
/// masks.
///
/// # Panics
///
/// Panics if the stream is too short or `bits` is out of range.
pub fn unpack_bits_into(bytes: &[u8], bits: u32, out: &mut [u16]) {
    assert!((1..=16).contains(&bits), "bit width out of range");
    let needed_bits = out.len() * bits as usize;
    assert!(
        bytes.len() * 8 >= needed_bits,
        "bitstream too short: need {} bits, have {}",
        needed_bits,
        bytes.len() * 8
    );
    match bits {
        10 => unpack_groups(bytes, 10, out),
        13 => unpack_groups(bytes, 13, out),
        _ => unpack_groups(bytes, bits as usize, out),
    }
}

/// Serializes a polynomial as a `QBITS`-bit little-endian bitstream.
#[must_use]
pub fn poly_to_bytes<const QBITS: u32>(poly: &Poly<QBITS>) -> Vec<u8> {
    pack_bits(poly.coeffs(), QBITS)
}

/// Allocation-free [`poly_to_bytes`]: `out` must hold exactly
/// `256·QBITS/8` bytes.
///
/// # Panics
///
/// Panics if `out` has the wrong length.
pub fn poly_to_bytes_into<const QBITS: u32>(poly: &Poly<QBITS>, out: &mut [u8]) {
    pack_bits_into(poly.coeffs(), QBITS, out);
}

/// Deserializes a polynomial from a `QBITS`-bit little-endian bitstream.
///
/// # Panics
///
/// Panics if `bytes` is shorter than `⌈256·QBITS/8⌉`.
#[must_use]
pub fn poly_from_bytes<const QBITS: u32>(bytes: &[u8]) -> Poly<QBITS> {
    let mut coeffs = [0u16; N];
    unpack_bits_into(bytes, QBITS, &mut coeffs);
    Poly::from_coeffs(coeffs)
}

/// Number of 64-bit memory words holding one polynomial of `bits`-wide
/// coefficients (e.g. 52 words for 13-bit, 16 words for 4-bit nibbles).
#[must_use]
pub const fn words_per_poly(bits: u32) -> usize {
    (N * bits as usize).div_ceil(64)
}

/// Packs coefficients into 64-bit memory words, little-endian within and
/// across words — the exact image the hardware BRAM holds.
#[must_use]
pub fn words_from_coeffs(values: &[u16], bits: u32) -> Vec<u64> {
    let bytes = pack_bits(values, bits);
    let mut words = vec![0u64; (values.len() * bits as usize).div_ceil(64)];
    for (i, &b) in bytes.iter().enumerate() {
        words[i / 8] |= u64::from(b) << ((i % 8) * 8);
    }
    words
}

/// Inverse of [`words_from_coeffs`].
#[must_use]
pub fn coeffs_from_words(words: &[u64], bits: u32, count: usize) -> Vec<u16> {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for &w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    unpack_bits(&bytes, bits, count)
}

/// The 52-word BRAM image of a 13-bit polynomial.
#[must_use]
pub fn poly13_to_words(poly: &Poly<13>) -> Vec<u64> {
    words_from_coeffs(poly.coeffs(), 13)
}

/// Rebuilds a 13-bit polynomial from its 52-word BRAM image.
#[must_use]
pub fn poly13_from_words(words: &[u64]) -> Poly<13> {
    let coeffs = coeffs_from_words(words, 13, N);
    Poly::from_fn(|i| coeffs[i])
}

/// The 16-word BRAM image of a secret polynomial (16 4-bit
/// two's-complement nibbles per word, as in §4.1 of the paper).
#[must_use]
pub fn secret_to_words(secret: &SecretPoly) -> Vec<u64> {
    let nibbles = secret.to_nibbles();
    let mut words = vec![0u64; N / 16];
    for (i, &n) in nibbles.iter().enumerate() {
        words[i / 16] |= u64::from(n) << ((i % 16) * 4);
    }
    words
}

/// Rebuilds a secret polynomial from its 16-word BRAM image.
///
/// # Errors
///
/// Returns [`SecretRangeError`] if a nibble decodes outside the Saber
/// secret-coefficient range.
pub fn secret_from_words(words: &[u64]) -> Result<SecretPoly, SecretRangeError> {
    assert_eq!(words.len(), N / 16, "secret image must be 16 words");
    let mut nibbles = [0u8; N];
    for (i, n) in nibbles.iter_mut().enumerate() {
        *n = ((words[i / 16] >> ((i % 16) * 4)) & 0xf) as u8;
    }
    SecretPoly::from_nibbles(&nibbles)
}

/// Packs a 256-bit message into a 1-bit-per-coefficient polynomial.
#[must_use]
pub fn message_to_poly(message: &[u8; 32]) -> Poly<1> {
    Poly::from_fn(|i| u16::from((message[i / 8] >> (i % 8)) & 1))
}

/// Recovers the 32-byte message from a 1-bit polynomial.
#[must_use]
pub fn poly_to_message(poly: &Poly<1>) -> [u8; 32] {
    let mut out = [0u8; 32];
    for i in 0..N {
        out[i / 8] |= (poly.coeff(i) as u8) << (i % 8);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::{PolyP, PolyQ};

    #[test]
    fn bitstream_roundtrip_all_widths() {
        for bits in 1..=16u32 {
            let values: Vec<u16> = (0..N as u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) % (1 << bits)) as u16)
                .collect();
            let packed = pack_bits(&values, bits);
            assert_eq!(unpack_bits(&packed, bits, N), values, "bits = {bits}");
        }
    }

    #[test]
    fn poly_bytes_roundtrip() {
        let p = PolyQ::from_fn(|i| (i as u16).wrapping_mul(321));
        assert_eq!(poly_from_bytes::<13>(&poly_to_bytes(&p)), p);
        let p10 = PolyP::from_fn(|i| (i as u16).wrapping_mul(3));
        assert_eq!(poly_from_bytes::<10>(&poly_to_bytes(&p10)), p10);
    }

    #[test]
    fn word_counts_match_paper() {
        // 256 × 13 bits = 3328 bits = 52 words; the paper's accumulator
        // buffer is 3328 bits and the public buffer streams 52 words.
        assert_eq!(words_per_poly(13), 52);
        assert_eq!(words_per_poly(4), 16);
        assert_eq!(words_per_poly(10), 40);
    }

    #[test]
    fn poly13_word_image_roundtrip() {
        let p = PolyQ::from_fn(|i| (8191 - i) as u16);
        let words = poly13_to_words(&p);
        assert_eq!(words.len(), 52);
        assert_eq!(poly13_from_words(&words), p);
    }

    #[test]
    fn coefficients_straddle_word_boundaries() {
        // Coefficient 4 occupies bits 52..65: split across words 0 and 1.
        let mut p = PolyQ::zero();
        p.set_coeff(4, 0x1fff);
        let words = poly13_to_words(&p);
        assert_ne!(words[0], 0, "low part in word 0");
        assert_ne!(words[1], 0, "high part in word 1");
    }

    #[test]
    fn secret_word_image_roundtrip() {
        let s = SecretPoly::from_fn(|i| (((i * 13) % 11) as i8) - 5);
        let words = secret_to_words(&s);
        assert_eq!(words.len(), 16);
        assert_eq!(secret_from_words(&words).unwrap(), s);
    }

    #[test]
    fn message_roundtrip() {
        let mut msg = [0u8; 32];
        for (i, b) in msg.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37) ^ 0x5a;
        }
        assert_eq!(poly_to_message(&message_to_poly(&msg)), msg);
    }

    #[test]
    #[should_panic(expected = "exceeds 10 bits")]
    fn oversized_value_panics() {
        let _ = pack_bits(&[1024], 10);
    }

    #[test]
    #[should_panic(expected = "bitstream too short")]
    fn short_stream_panics() {
        let _ = unpack_bits(&[0u8; 10], 13, 256);
    }
}
