//! The group bitstream codec (`packing::{pack_bits, unpack_bits}` and
//! their `*_into` forms) against the bit-serial codec it replaced, kept
//! here as the reference: every width 1..=16, at counts around each
//! group and byte boundary, with seeded values.

use saber_ring::packing;
use saber_testkit::Rng;

/// Bit-serial reference packer: one value at a time, at most one byte
/// boundary per step.
fn reference_pack(values: &[u16], bits: u32) -> Vec<u8> {
    let mut out = vec![0u8; (values.len() * bits as usize).div_ceil(8)];
    let mut bit_pos = 0usize;
    for &v in values {
        assert!(
            u32::from(v) < (1u32 << bits),
            "value {v} exceeds {bits} bits"
        );
        let mut remaining = bits;
        let mut chunk = u32::from(v);
        while remaining > 0 {
            let byte = bit_pos / 8;
            let offset = (bit_pos % 8) as u32;
            let take = remaining.min(8 - offset);
            out[byte] |= ((chunk & ((1 << take) - 1)) as u8) << offset;
            chunk >>= take;
            bit_pos += take as usize;
            remaining -= take;
        }
    }
    out
}

/// Bit-serial reference unpacker.
fn reference_unpack(bytes: &[u8], bits: u32, count: usize) -> Vec<u16> {
    let mut out = Vec::with_capacity(count);
    let mut bit_pos = 0usize;
    for _ in 0..count {
        let mut v = 0u32;
        let mut got = 0u32;
        while got < bits {
            let byte = bit_pos / 8;
            let offset = (bit_pos % 8) as u32;
            let take = (bits - got).min(8 - offset);
            let chunk = (u32::from(bytes[byte]) >> offset) & ((1 << take) - 1);
            v |= chunk << got;
            got += take;
            bit_pos += take as usize;
        }
        out.push(v as u16);
    }
    out
}

/// Counts around the 8-value group boundary, the 256-coefficient
/// polynomial and a rank-3 vector.
const COUNTS: [usize; 8] = [0, 1, 7, 8, 9, 255, 256, 768];

fn seeded_values(rng: &mut Rng, bits: u32, count: usize) -> Vec<u16> {
    let max = ((1u32 << bits) - 1) as u16;
    (0..count).map(|_| rng.range_u16(0, max)).collect()
}

#[test]
fn group_codec_matches_the_bit_serial_reference() {
    for bits in 1..=16u32 {
        for count in COUNTS {
            let mut rng = Rng::new(0xC0DE_C000 + u64::from(bits) * 1_000 + count as u64);
            for _ in 0..4 {
                let values = seeded_values(&mut rng, bits, count);
                let packed = packing::pack_bits(&values, bits);
                assert_eq!(
                    packed,
                    reference_pack(&values, bits),
                    "pack: width {bits}, count {count}, seed {}",
                    rng.seed()
                );
                assert_eq!(
                    packing::unpack_bits(&packed, bits, count),
                    values,
                    "unpack: width {bits}, count {count}, seed {}",
                    rng.seed()
                );
            }
        }
    }
}

#[test]
fn unpack_matches_the_reference_on_arbitrary_streams() {
    // Random bytes, not just packed values: the decoder must read the
    // same bits as the reference, including from streams longer than
    // needed and trailing bits that belong to no value.
    for bits in 1..=16u32 {
        for count in COUNTS {
            let mut rng = Rng::new(0x5EED_0000 + u64::from(bits) * 1_000 + count as u64);
            let needed = (count * bits as usize).div_ceil(8);
            for extra in [0, 1, 15, 17] {
                let mut bytes = vec![0u8; needed + extra];
                rng.fill_bytes(&mut bytes);
                assert_eq!(
                    packing::unpack_bits(&bytes, bits, count),
                    reference_unpack(&bytes, bits, count),
                    "width {bits}, count {count}, {extra} extra bytes"
                );
            }
        }
    }
}

#[test]
fn into_forms_overwrite_their_buffers() {
    for bits in 1..=16u32 {
        for count in COUNTS {
            let mut rng = Rng::new(0x1A70_0000 + u64::from(bits) * 1_000 + count as u64);
            let values = seeded_values(&mut rng, bits, count);
            // A dirty output buffer: every byte must be written.
            let mut packed = vec![0xA5u8; (count * bits as usize).div_ceil(8)];
            packing::pack_bits_into(&values, bits, &mut packed);
            assert_eq!(
                packed,
                reference_pack(&values, bits),
                "width {bits}, count {count}"
            );
            let mut unpacked = vec![0xFFFFu16; count];
            packing::unpack_bits_into(&packed, bits, &mut unpacked);
            assert_eq!(unpacked, values, "width {bits}, count {count}");
        }
    }
}

#[test]
#[should_panic(expected = "value 16 exceeds 4 bits")]
fn oversized_value_in_a_partial_group_panics() {
    let _ = packing::pack_bits(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 16], 4);
}

#[test]
#[should_panic(expected = "output buffer must hold exactly the packed bytes")]
fn pack_into_rejects_a_wrong_length_buffer() {
    packing::pack_bits_into(&[1, 2, 3], 10, &mut [0u8; 5]);
}

#[test]
#[should_panic(expected = "bitstream too short")]
fn unpack_into_rejects_a_short_stream() {
    packing::unpack_bits_into(&[0u8; 9], 10, &mut [0u16; 8]);
}
