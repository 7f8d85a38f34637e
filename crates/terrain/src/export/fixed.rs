//! The exporters' one fixed-point number writer.
//!
//! Every text backend prints floats with a fixed number of decimals: `{:.2}`
//! pixel coordinates in the SVG backends, a `{:.3}` scalar in the treemap's
//! titles, `{:.6}` vertices in OBJ and PLY. [`push_fixed`] appends exactly
//! the bytes `format!("{:.d$}", x)` would, but prints almost every value
//! from integers instead of through a `core::fmt` float format.
//!
//! Why the integer path is exact. std prints the exact decimal value of `x`
//! rounded to `d` decimals, ties to even, with a `-` for every sign-negative
//! `x` (so `-0.0` and `-0.001` print as `-0.00`). Let `T = |x|·10^d` (exact)
//! and `y` its rounded `f64` product (`10^d` itself is exact). The printed
//! digits are `T` rounded to an integer, and only a half-integer `h` can
//! separate `T` from `y` in that rounding. Below 2^52 every half-integer is
//! an `f64`, so rounding is monotone across it: `y < h` implies `T < h`,
//! and `y > h` implies `T > h`. The writer goes further and demands that
//! `y` sit more than a few ulps away from the nearest `h`, then prints
//! `⌊y⌉` as `q.r` with `d` zero-padded fraction digits. Everything else
//! (NaN, ±inf, `y ≥ 2^52`, and values at or next to a tie) falls back to
//! std's own formatting, which owns the tie rule.
//!
//! See Adams, "Ryū revisited: printf floating point conversion" (OOPSLA
//! 2019) for a full fixed-precision algorithm; this guarded fast path is
//! all the exporters need.

use std::io::Write as _;

/// Largest decimal count the writer accepts (the exporters use 2, 3 and 6).
const MAX_DECIMALS: usize = 6;

/// `10^d`, each exact in an `f64`.
const POW10: [u64; MAX_DECIMALS + 1] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// 2^52: below it every half-integer is representable.
const INTEGER_PATH_LIMIT: f64 = 4_503_599_627_370_496.0;

/// How many ulps of `y` its fraction must keep from ½ for the integer path.
const TIE_MARGIN_ULPS: f64 = 4.0;

/// Append `x` with `decimals` digits after the point, byte for byte as
/// `format!("{x:.decimals$}")`.
#[inline]
pub(crate) fn push_fixed(out: &mut Vec<u8>, x: f64, decimals: usize) {
    assert!(decimals <= MAX_DECIMALS, "at most {MAX_DECIMALS} decimals, got {decimals}");
    let scale = POW10[decimals];
    let y = x.abs() * scale as f64;
    // `y < 2^52` is false for NaN and ±inf too.
    if y < INTEGER_PATH_LIMIT {
        let whole = y as u64;
        let frac = y - whole as f64;
        // ulp(y) for normal y; 0 for subnormal y, whose fraction is ~0.
        let ulp = f64::from_bits(y.to_bits() & 0x7ff0_0000_0000_0000) * f64::EPSILON;
        if (frac - 0.5).abs() > TIE_MARGIN_ULPS * ulp {
            if x.is_sign_negative() {
                out.push(b'-');
            }
            push_digits(out, whole + u64::from(frac > 0.5), scale, decimals);
            return;
        }
    }
    let _ = write!(out, "{x:.decimals$}");
}

/// Append `n / scale` as `q.r`, with `decimals` fraction digits
/// (`scale == 10^decimals`, no point when `decimals == 0`).
#[inline]
fn push_digits(out: &mut Vec<u8>, n: u64, scale: u64, decimals: usize) {
    // 16 integer digits (n < 2^52), the point, and MAX_DECIMALS digits.
    let mut buf = [0u8; 32];
    let mut at = buf.len();
    let (mut q, mut r) = (n / scale, n % scale);
    for _ in 0..decimals {
        at -= 1;
        buf[at] = b'0' + (r % 10) as u8;
        r /= 10;
    }
    if decimals > 0 {
        at -= 1;
        buf[at] = b'.';
    }
    loop {
        at -= 1;
        buf[at] = b'0' + (q % 10) as u8;
        q /= 10;
        if q == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[at..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const DECIMALS: [usize; 3] = [2, 3, 6];

    fn fixed(x: f64, decimals: usize) -> String {
        let mut out = Vec::new();
        push_fixed(&mut out, x, decimals);
        String::from_utf8(out).unwrap()
    }

    fn assert_matches_std(x: f64) {
        for d in DECIMALS {
            assert_eq!(
                fixed(x, d),
                format!("{x:.d$}"),
                "x = {x:e} ({:#018x}), d = {d}",
                x.to_bits()
            );
        }
    }

    /// The next `f64` away from zero and toward zero (finite, nonzero `x`).
    fn neighbours(x: f64) -> [f64; 2] {
        [f64::from_bits(x.to_bits() + 1), f64::from_bits(x.to_bits() - 1)]
    }

    #[test]
    fn std_rounds_ties_to_even_and_keeps_the_sign_of_zero() {
        // The behaviour the writer must reproduce, pinned against std itself.
        assert_eq!(fixed(0.125, 2), "0.12");
        assert_eq!(fixed(0.375, 2), "0.38");
        assert_eq!(fixed(2.5, 0), "2");
        assert_eq!(fixed(3.5, 0), "4");
        assert_eq!(fixed(-0.0, 2), "-0.00");
        assert_eq!(fixed(-0.001, 2), "-0.00");
        assert_eq!(fixed(0.0, 6), "0.000000");
        assert_eq!(fixed(1.005, 2), "1.00"); // 1.005 is 1.00499999999999989…
        assert_eq!(fixed(123.456, 2), "123.46");
        assert_eq!(fixed(9.999, 2), "10.00");
        assert_eq!(fixed(f64::NAN, 2), "NaN");
        assert_eq!(fixed(-f64::NAN, 2), "NaN");
        assert_eq!(fixed(f64::INFINITY, 3), "inf");
        assert_eq!(fixed(f64::NEG_INFINITY, 6), "-inf");
    }

    #[test]
    fn special_values_match_std() {
        for x in [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
        ] {
            assert_matches_std(x);
        }
    }

    #[test]
    fn negatives_that_round_to_zero_keep_their_sign() {
        for x in [-1e-300, -1e-9, -0.0001, -0.004, -0.0049, -0.005, -0.0051, -4.9e-7, -5e-7] {
            assert_matches_std(x);
            assert!(fixed(x, 2).starts_with('-'));
        }
    }

    #[test]
    fn dyadic_tie_grids_and_their_neighbours_match_std() {
        // m/2^k for k ≤ 10 lands on exact ties of 2, 3 and 6 decimals
        // (0.125, 0.0625, 0.0009765625, …); both neighbours of each tie must
        // round away from it the way std does.
        for k in 1..=10u32 {
            let denom = f64::from(1u32 << k);
            for m in 0..=4096u32 {
                let x = f64::from(m) / denom;
                assert_matches_std(x);
                assert_matches_std(-x);
                if m > 0 {
                    for n in neighbours(x) {
                        assert_matches_std(n);
                        assert_matches_std(-n);
                    }
                }
            }
        }
        // Large dyadic ties: m/8 just below and past 2^52 / 10^d.
        for d in DECIMALS {
            let limit = INTEGER_PATH_LIMIT / POW10[d] as f64;
            for x in [limit / 4.0, limit / 2.0, limit, limit * 2.0] {
                let base = (x * 8.0).floor();
                for step in -40..=40 {
                    let y = (base + f64::from(step)) / 8.0;
                    for n in neighbours(y) {
                        assert_matches_std(n);
                    }
                    assert_matches_std(y);
                }
            }
        }
    }

    #[test]
    fn values_at_and_past_the_integer_limit_match_std() {
        for d in DECIMALS {
            let limit = INTEGER_PATH_LIMIT / POW10[d] as f64;
            let mut x = limit / 16.0;
            while x < limit * 16.0 {
                assert_matches_std(x);
                for n in neighbours(x) {
                    assert_matches_std(n);
                }
                x *= 1.0625;
            }
        }
        for x in [1e15, 4.5e15, 4.503599627370496e15, 9.007199254740992e15, 1e17, 1e22, 1e300] {
            assert_matches_std(x);
            assert_matches_std(-x);
        }
    }

    #[test]
    fn subnormals_match_std() {
        let mut bits = 1u64;
        while bits < 0x0010_0000_0000_0000 {
            assert_matches_std(f64::from_bits(bits));
            assert_matches_std(-f64::from_bits(bits));
            bits = bits * 3 + 1;
        }
    }

    #[test]
    fn decimal_grids_match_std() {
        // Short decimals (what layouts and pixel maths produce) sit next
        // to, but rarely on, a rounding boundary.
        for i in -20_000..=20_000i32 {
            assert_matches_std(f64::from(i) / 1000.0);
            assert_matches_std(f64::from(i) * 0.0005);
            assert_matches_std(f64::from(i) / 3.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn random_bit_patterns_match_std(bits in 0u64..=u64::MAX) {
            assert_matches_std(f64::from_bits(bits));
        }

        #[test]
        fn random_values_in_the_integer_path_match_std(
            mantissa in 0u64..(1u64 << 52),
            exponent in 1003u64..1080,
            negative in 0u64..2,
        ) {
            // Exponents 2^-20 … 2^56: pixel and vertex magnitudes, up to
            // past the integer path's limit.
            let x = f64::from_bits(negative << 63 | exponent << 52 | mantissa);
            assert_matches_std(x);
        }
    }
}
