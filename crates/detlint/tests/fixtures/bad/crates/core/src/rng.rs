//! Bad fixture: a draw in a file no owners entry covers.

pub fn unregistered(rng: &mut SmallRng) -> u64 {
    rng.gen_range(0..10)
}
