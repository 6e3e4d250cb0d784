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
/// The collective schedules in [`crate::algo`] draw every tag from here;
/// it is public so that callers can name the tags a collective's messages
/// carry. User programs must stay below [`crate::USER_TAG_LIMIT`] and
/// never construct these.
#[inline]
pub fn internal_tag(seq: u64, round: u32) -> u64 {
    INTERNAL_TAG_BASE | (seq << 8) | u64::from(round)
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
}
