//! One seed to rule every randomized test.
//!
//! Every seeded harness in the repo — the differential fuzzer, the
//! threaded stress tests — derives its randomness from
//! [`test_seed`], so a failure seen in CI is reproduced locally by
//! exporting the same `PARCFL_TEST_SEED`. Failure messages always print
//! the seed.

/// Environment variable overriding the base test seed.
pub(crate) const SEED_ENV: &str = "PARCFL_TEST_SEED";

/// Fixed fallback seed used when [`SEED_ENV`] is unset or unparsable.
pub(crate) const DEFAULT_SEED: u64 = 0xC0FFEE;

/// The base seed for randomized tests: `PARCFL_TEST_SEED` if set (decimal
/// or `0x`-prefixed hex), else `0xC0FFEE`.
pub fn test_seed() -> u64 {
    match std::env::var(SEED_ENV) {
        Ok(v) => parse_seed(&v).unwrap_or(DEFAULT_SEED),
        Err(_) => DEFAULT_SEED,
    }
}

fn parse_seed(v: &str) -> Option<u64> {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// Derives a per-purpose sub-seed from `base` (splitmix64-style mixing,
/// so adjacent indices give uncorrelated streams).
pub fn derive(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0x2A"), Some(42));
        assert_eq!(parse_seed(" 7 "), Some(7));
        assert_eq!(parse_seed("nope"), None);
    }

    #[test]
    fn derive_differs_per_index() {
        assert_ne!(derive(1, 0), derive(1, 1));
        assert_ne!(derive(1, 0), derive(2, 0));
    }
}
