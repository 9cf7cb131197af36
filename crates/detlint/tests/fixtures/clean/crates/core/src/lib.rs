//! Clean fixture: everything detlint permits, all in one tree.

pub fn lifetimes_and_strings<'a>(s: &'a str) -> char {
    // Draws inside literals and comments must not fire:
    // rng.gen_range(0..9), rng.shuffle(&mut v) (prose mention).
    let _raw = r#"rng.gen() rng.choose(&v)"#;
    let _plain = "rng.next_u64() \
                  spans two lines";
    let _ = s;
    'x'
}

#[cfg(test)]
mod tests {
    // Tests are exempt: they may draw from any stream.
    #[test]
    fn draws_are_fine_here() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = rng.gen_range(0..9);
    }
}
