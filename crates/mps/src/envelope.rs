//! Internal message representation.

use std::any::Any;

/// A message in flight between two ranks.
///
/// The payload is type-erased; [`crate::Ctx::recv`] downcasts it back to the
/// concrete `Vec<T>` and panics loudly on a type mismatch (which is always a
/// programming error — tags exist to catch exactly this).
pub(crate) struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// User (or internal-collective) tag.
    pub tag: u64,
    /// Virtual time at which the transfer completes and the payload becomes
    /// available to the receiver.
    pub arrival_s: f64,
    /// Payload size in bytes (for diagnostics; counted at the sender).
    pub bytes: u64,
    /// The sender's vector clock at send time (for race analysis).
    pub vc: Vec<u64>,
    /// The data, as `Box<Vec<T>>` behind `dyn Any`.
    pub payload: Box<dyn Any + Send>,
}

/// Tags at or above this value are reserved for internal collectives.
pub(crate) const INTERNAL_TAG_BASE: u64 = crate::trace::USER_TAG_LIMIT;

/// Build an internal-collective tag from a per-rank collective sequence
/// number and a round index. All ranks execute collectives in the same
/// program order, so sequence numbers agree across ranks and consecutive
/// collectives can never cross-talk.
///
/// The map is one to one. A sequence number below 2^24 with a round below
/// 256 (every logarithmic collective's round, and the O(p) collectives'
/// rounds up to p = 256) packs into `2^32 + seq·2^8 + round`, inside
/// `[2^32, 2^33)`. Every other pair takes the wide form
/// `(seq + 2)·2^32 + round`, at or above `2^33`, which holds every `u32`
/// round for sequence numbers up to `2^32 − 3`.
///
/// The collective schedules in [`crate::algo`] draw every tag from here;
/// it is public so that callers can name the tags a collective's messages
/// carry. User programs must stay below [`crate::USER_TAG_LIMIT`] and
/// never construct these.
///
/// # Panics
/// Panics when `seq` exceeds [`MAX_COLL_SEQ`], where the wide form would
/// wrap.
#[inline]
pub fn internal_tag(seq: u64, round: u32) -> u64 {
    if seq > MAX_COLL_SEQ {
        seq_overflow(seq);
    }
    let round = u64::from(round);
    if seq < 1 << 24 && round < 1 << 8 {
        INTERNAL_TAG_BASE | (seq << 8) | round
    } else {
        ((seq + 2) << 32) | round
    }
}

/// The largest collective sequence number [`internal_tag`] takes.
pub const MAX_COLL_SEQ: u64 = (1 << 32) - 3;

#[cold]
#[inline(never)]
fn seq_overflow(seq: u64) -> ! {
    panic!("collective sequence number {seq} exceeds the internal tag space")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_tags_never_collide_with_user_tags() {
        assert!(internal_tag(0, 0) >= INTERNAL_TAG_BASE);
        assert!(internal_tag(12345, 255) >= INTERNAL_TAG_BASE);
    }

    #[test]
    fn internal_tags_distinct_per_seq_and_round() {
        assert_ne!(internal_tag(1, 0), internal_tag(1, 1));
        assert_ne!(internal_tag(1, 0), internal_tag(2, 0));
    }

    /// The packed form is the one every pinned trace holds.
    #[test]
    fn packed_tags_keep_their_values() {
        assert_eq!(internal_tag(0, 0), 1 << 32);
        assert_eq!(internal_tag(3, 63), (1 << 32) + 3 * 256 + 63);
        assert_eq!(internal_tag((1 << 24) - 1, 255), (1 << 33) - 1);
    }

    /// Bit 24 of the sequence number used to land on the base bit.
    #[test]
    fn sequence_numbers_past_2_pow_24_do_not_wrap_onto_early_ones() {
        for round in [0, 1, 255] {
            assert_ne!(internal_tag(1 << 24, round), internal_tag(0, round));
            assert_ne!(internal_tag(1 << 25, round), internal_tag(1 << 24, round));
        }
        assert!(internal_tag(1 << 24, 0) >= 1 << 33);
    }

    /// An O(p) collective's round reaches p − 1: round 256 + i of an even
    /// `s` used to equal round i of `s + 1`.
    #[test]
    fn rounds_past_255_do_not_spill_into_the_next_sequence_number() {
        for s in [0, 2, 1000] {
            for i in [0, 5, 255] {
                assert_ne!(internal_tag(s, 256 + i), internal_tag(s + 1, i));
            }
        }
        assert_ne!(internal_tag(0, u32::MAX), internal_tag(1, u32::MAX));
    }

    /// Around both boundaries, every pair gets its own tag.
    #[test]
    fn tags_are_one_to_one_around_the_boundaries() {
        let seqs = [
            0,
            1,
            2,
            (1 << 24) - 1,
            1 << 24,
            (1 << 24) + 1,
            (1 << 32) - 3,
        ];
        let rounds = [0, 1, 255, 256, 257, 4095, u32::MAX];
        let mut tags: Vec<u64> = seqs
            .iter()
            .flat_map(|&s| rounds.iter().map(move |&r| internal_tag(s, r)))
            .collect();
        assert!(tags.iter().all(|&t| t >= INTERNAL_TAG_BASE));
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), seqs.len() * rounds.len());
    }

    #[test]
    #[should_panic(expected = "exceeds the internal tag space")]
    fn a_sequence_number_past_the_tag_space_is_refused() {
        let _ = internal_tag((1 << 32) - 2, 0);
    }
}
