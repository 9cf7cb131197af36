//! The one way to seed or draw randomness in this workspace.
//!
//! Same-seed runs give byte-identical reports only if every stream is
//! seeded from the master seed and every word it yields is accounted
//! for. A [`Stream`] does both: [`Stream::seeded`] is its only
//! constructor, and it counts each 64-bit word it produces, so the
//! simulator's `RngLedger` reads [`Stream::draws`] per stream.
//!
//! `clippy.toml` bans `rand`'s seeding and draw methods; this module holds
//! the only exemptions. The inherent draw methods shadow `rand::Rng`'s and
//! `SliceRandom`'s, so a draw site reads `rng.gen_range(..)` and
//! `rng.shuffle(&mut items)`.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SampleRange, SeedableRng, Standard};

/// A seeded, counted random stream.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: SmallRng,
    draws: u64,
}

impl Stream {
    /// The stream for `seed`. Callers derive `seed` from the master seed
    /// (directly or through `mix64` of stable inputs), never from the OS.
    #[must_use]
    #[expect(clippy::disallowed_methods, reason = "the one seeding site")]
    pub fn seeded(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            draws: 0,
        }
    }

    /// How many 64-bit words this stream has produced.
    #[must_use]
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// A uniformly random value of `T`.
    #[expect(clippy::disallowed_methods, reason = "the counted draw")]
    pub fn gen<T: Standard>(&mut self) -> T {
        Rng::gen(self)
    }

    /// A uniformly random value in `range`.
    #[expect(clippy::disallowed_methods, reason = "the counted draw")]
    pub fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        Rng::gen_range(self, range)
    }

    /// `true` with probability `p`.
    #[expect(clippy::disallowed_methods, reason = "the counted draw")]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        Rng::gen_bool(self, p)
    }

    /// A uniformly random element of `items`, or `None` if it is empty.
    #[expect(clippy::disallowed_methods, reason = "the counted draw")]
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        items.choose(self)
    }

    /// `amount` distinct elements of `items` in random order (all of them
    /// if `items` is shorter).
    #[expect(clippy::disallowed_methods, reason = "the counted draw")]
    pub fn choose_multiple<'a, T>(
        &mut self,
        items: &'a [T],
        amount: usize,
    ) -> std::vec::IntoIter<&'a T> {
        items.choose_multiple(self, amount)
    }

    /// Shuffles `items` in place (Fisher–Yates).
    #[expect(clippy::disallowed_methods, reason = "the counted draw")]
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        items.shuffle(self);
    }
}

/// Every word leaves through here, so [`Stream::draws`] counts exactly the
/// words pulled, including those a generic `R: Rng` caller draws.
impl RngCore for Stream {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::Stream;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let (mut a, mut b, mut c) = (Stream::seeded(7), Stream::seeded(7), Stream::seeded(8));
        let xs: Vec<u64> = (0..32).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.gen()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn each_scalar_draw_is_one_word() {
        let mut rng = Stream::seeded(11);
        assert_eq!(rng.draws(), 0);
        let _: u64 = rng.gen();
        assert_eq!(rng.draws(), 1, "gen is one word");
        let _: u64 = rng.gen_range(0..100);
        assert_eq!(rng.draws(), 2, "gen_range is one word");
        let _ = rng.gen_bool(0.5);
        assert_eq!(rng.draws(), 3, "gen_bool is one word");
        assert!(rng.choose(&[1, 2, 3]).is_some());
        assert_eq!(rng.draws(), 4, "choose is one word");
        assert!(rng.choose::<u8>(&[]).is_none());
        assert_eq!(rng.draws(), 4, "choose from nothing draws nothing");
    }

    #[test]
    fn slice_draws_count_their_words() {
        let mut rng = Stream::seeded(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        assert_eq!(rng.draws(), 49, "a shuffle of n is n - 1 words");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        let picked: Vec<u32> = rng.choose_multiple(&v, 10).copied().collect();
        assert_eq!(rng.draws(), 59, "choose_multiple of k is k words");
        let mut uniq = picked.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 10, "choose_multiple is without replacement");
    }

    #[test]
    fn a_clone_keeps_its_count_and_its_place() {
        let mut rng = Stream::seeded(4);
        for _ in 0..17 {
            let _: u32 = rng.gen();
        }
        let mut clone = rng.clone();
        assert_eq!(clone.draws(), 17);
        assert_eq!(rng.gen::<u64>(), clone.gen::<u64>());
        assert_eq!(rng.draws(), clone.draws());
    }
}
