//! The matching core: one inbox per receiving rank, matched by
//! `(src, tag)`.
//!
//! Both interpreters of a plan that match messages use it: the static
//! checker ([`crate::analyze_plan`]) and the `simrt` event engine. An
//! [`Inbox`] holds the messages sent to one rank and not yet received, in
//! arrival order. Senders deposit in program order, so the oldest envelope
//! from `src` carrying `tag` ([`Inbox::take`]) is exactly the match of
//! `mps`'s per-`(src, dst)` FIFO channels with tag skipping. The core
//! holds O(messages in flight) instead of `p²` channels.
//!
//! Wildcard receives are matched differently by the two users, each on
//! top of this core:
//!
//! * the checker takes the **lowest** source holding the tag (the first of
//!   [`Inbox::sources`]) and marks its verdict inexact beyond two ranks,
//!   because another schedule could deliver a different source first;
//! * simrt takes the **oldest** envelope with the tag in arrival order
//!   ([`Inbox::take_any`]); its FIFO ready queue makes that order a pure
//!   function of the plan and `p`.

/// A message waiting in an [`Inbox`]: its sender, its tag, and what the
/// inbox's user carries with it.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    /// Sending rank.
    pub src: usize,
    /// Message tag (user or internal-collective).
    pub tag: u64,
    /// The user's payload (bytes for the checker, timing for simrt).
    pub body: M,
}

/// One rank's arrival-ordered inbox.
#[derive(Debug, Clone)]
pub struct Inbox<M> {
    queue: Vec<Envelope<M>>,
}

impl<M> Default for Inbox<M> {
    fn default() -> Self {
        Self { queue: Vec::new() }
    }
}

impl<M> Inbox<M> {
    /// Deposit `env` behind everything already buffered.
    pub fn push(&mut self, env: Envelope<M>) {
        self.queue.push(env);
    }

    /// Remove the oldest envelope from `src` with `tag`: per-source FIFO
    /// with tag skipping.
    pub fn take(&mut self, src: usize, tag: u64) -> Option<Envelope<M>> {
        let i = self
            .queue
            .iter()
            .position(|e| e.src == src && e.tag == tag)?;
        Some(self.queue.remove(i))
    }

    /// Remove the oldest envelope with `tag` from any source: simrt's
    /// arrival-order wildcard rule.
    pub fn take_any(&mut self, tag: u64) -> Option<Envelope<M>> {
        let i = self.queue.iter().position(|e| e.tag == tag)?;
        Some(self.queue.remove(i))
    }

    /// The distinct sources holding an envelope with `tag`, ascending: the
    /// checker's wildcard rule takes the first.
    #[must_use]
    pub fn sources(&self, tag: u64) -> Vec<usize> {
        let mut s: Vec<usize> = self
            .queue
            .iter()
            .filter(|e| e.tag == tag)
            .map(|e| e.src)
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Envelopes buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The buffered envelopes, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Envelope<M>> {
        self.queue.iter()
    }

    /// Remove every buffered envelope, oldest first.
    pub fn drain(&mut self) -> impl Iterator<Item = Envelope<M>> + '_ {
        self.queue.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: u64) -> Envelope<()> {
        Envelope { src, tag, body: () }
    }

    #[test]
    fn specific_receives_skip_tags_but_keep_per_source_order() {
        let mut inbox = Inbox::default();
        for e in [env(1, 5), env(2, 6), env(1, 6), env(1, 6)] {
            inbox.push(e);
        }
        // The oldest (1, 6) is behind a (1, 5) and a (2, 6).
        assert_eq!(inbox.take(1, 6), Some(env(1, 6)));
        assert_eq!(inbox.take(3, 6), None);
        assert_eq!(inbox.sources(6), vec![1, 2]);
        // Arrival order picks the older (2, 6) over the remaining (1, 6).
        assert_eq!(inbox.take_any(6), Some(env(2, 6)));
        let left: Vec<_> = inbox.drain().collect();
        assert_eq!(left, vec![env(1, 5), env(1, 6)]);
        assert!(inbox.is_empty());
    }
}
