//! Hand-rolled JSON: a minimal *syntax* validator and the in-place
//! writers the exporters render with.
//!
//! The workspace is offline and its `serde` is a no-op shim, so every
//! exporter renders JSON by hand — and this validator is how tests and the
//! CI bench prove the rendered output actually parses. It checks syntax
//! only (structure, string escapes, number shape); it does not build a
//! document tree.
//!
//! The writers append escaped strings, integers and fixed-precision floats
//! straight to an output buffer, with no temporary `String` per value.

use std::fmt::Write as _;

/// Validates that `input` is one complete JSON value (object, array,
/// string, number, or literal) with nothing but whitespace after it.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with a
/// byte offset.
pub fn validate_json(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

/// Validates newline-delimited JSON: every non-empty line must be one
/// complete JSON value.
///
/// # Errors
///
/// Returns the first offending line number (1-based) and the underlying
/// syntax error.
pub fn validate_jsonl(input: &str) -> Result<(), String> {
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    match bytes.get(*pos) {
        Some(b'{') => object(bytes, pos),
        Some(b'[') => array(bytes, pos),
        Some(b'"') => string(bytes, pos),
        Some(b't') => literal(bytes, pos, "true"),
        Some(b'f') => literal(bytes, pos, "false"),
        Some(b'n') => literal(bytes, pos, "null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}", pos = *pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn literal(bytes: &[u8], pos: &mut usize, word: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume opening quote
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match bytes.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => {
                                    return Err(format!("bad \\u escape at byte {pos}", pos = *pos))
                                }
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
            }
            0x00..=0x1F => return Err(format!("raw control byte in string at {pos}", pos = *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_digits = eat_digits(bytes, pos);
    if int_digits == 0 {
        return Err(format!("expected digits at byte {pos}", pos = *pos));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(bytes, pos) == 0 {
            return Err(format!(
                "expected fraction digits at byte {pos}",
                pos = *pos
            ));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(bytes, pos) == 0 {
            return Err(format!(
                "expected exponent digits at byte {pos}",
                pos = *pos
            ));
        }
    }
    // Reject leading zeros like 007 (but allow 0, 0.5).
    let text = &bytes[start..*pos];
    let unsigned = if text.first() == Some(&b'-') {
        &text[1..]
    } else {
        text
    };
    if unsigned.len() > 1 && unsigned[0] == b'0' && unsigned[1].is_ascii_digit() {
        return Err(format!("leading zero in number at byte {start}"));
    }
    Ok(())
}

fn eat_digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while matches!(bytes.get(*pos), Some(d) if d.is_ascii_digit()) {
        *pos += 1;
    }
    *pos - start
}

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped for a JSON string literal (quotes not
/// included): quote, backslash, newline, carriage return and tab get their
/// two-character escapes and every other control character a lowercase
/// `\u00xx`. Runs of bytes that need no escape are copied in one piece.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1F => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xF)]));
        } else {
            out.push_str(short);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// Appends the decimal digits of `n` to `out`.
pub(crate) fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// Appends `v` with exactly `decimals` (at most 9) fractional digits, the
/// text `format!("{v:.decimals$}")` produces.
///
/// Positive normal values below 2^53 are rounded with integer arithmetic:
/// `v = m · 2^e` exactly, so `v · 10^decimals` is `m · 10^decimals`
/// (below 2^83) shifted right by `-e`, rounded half to even on the bits
/// shifted out — the exact-value rounding of `{:.N}`. Every other value
/// (negative, zero, subnormal, 2^53 and above, non-finite) goes through
/// `write!`.
pub(crate) fn push_fixed(out: &mut String, v: f64, decimals: usize) {
    const POW10: [u64; 10] = [
        1,
        10,
        100,
        1_000,
        10_000,
        100_000,
        1_000_000,
        10_000_000,
        100_000_000,
        1_000_000_000,
    ];
    const TWO_POW_53: f64 = 9_007_199_254_740_992.0;
    if !(v.is_normal() && v > 0.0 && v < TWO_POW_53) {
        let _ = write!(out, "{v:.decimals$}");
        return;
    }
    let bits = v.to_bits();
    let mantissa = (bits & ((1 << 52) - 1)) | (1 << 52);
    // `v < 2^53` and `mantissa >= 2^52` make the exponent at most zero.
    let shift = 1075 - ((bits >> 52) & 0x7FF) as u32;
    let scale = POW10[decimals];
    let scaled = u128::from(mantissa) * u128::from(scale);
    let rounded = match shift {
        0 => scaled,
        // `scaled < 2^83 < 2^(shift - 1)`: below half, rounds to zero.
        128.. => 0,
        _ => {
            let q = scaled >> shift;
            let rem = scaled & ((1u128 << shift) - 1);
            let half = 1u128 << (shift - 1);
            if rem > half || (rem == half && q & 1 == 1) {
                q + 1
            } else {
                q
            }
        }
    };
    // `rounded <= 2^53 · 10^decimals`, so its integer part fits a u64;
    // most values fit whole, and a u64 division is much cheaper.
    let (int, mut frac) = match u64::try_from(rounded) {
        Ok(r) => (r / scale, r % scale),
        Err(_) => (
            (rounded / u128::from(scale)) as u64,
            (rounded % u128::from(scale)) as u64,
        ),
    };
    push_u64(out, int);
    if decimals > 0 {
        let mut digits = [b'0'; 10];
        digits[0] = b'.';
        for d in digits[1..=decimals].iter_mut().rev() {
            *d = b'0' + (frac % 10) as u8;
            frac /= 10;
        }
        out.push_str(std::str::from_utf8(&digits[..=decimals]).expect("ASCII digits"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "0",
            r#"{"a":[1,2,{"b":"c\nd"}],"e":true}"#,
            r#"  [ 1 , "two" , null ]  "#,
        ] {
            assert!(validate_json(doc).is_ok(), "should accept {doc:?}");
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "1.",
            "nul",
            "\"unterminated",
            "{} {}",
            "{\"a\"=1}",
        ] {
            assert!(validate_json(doc).is_err(), "should reject {doc:?}");
        }
    }

    #[test]
    fn jsonl_reports_line() {
        let err = validate_jsonl("{}\n{\"bad\"\n{}").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    /// `push_fixed` next to the `format!` rendering it replaces.
    fn assert_fixed_matches_format(v: f64) {
        for decimals in [3, 9] {
            let mut out = String::from("x");
            push_fixed(&mut out, v, decimals);
            assert_eq!(
                out[1..],
                format!("{v:.decimals$}"),
                "{v:e} ({:#x})",
                v.to_bits()
            );
        }
    }

    #[test]
    fn fixed_precision_matches_format_on_random_bit_patterns() {
        // splitmix64
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..20_000 {
            let bits = next();
            // Any bit pattern, then one with an exponent near the
            // simulator's timestamps and metric values (2^-40 to 2^60).
            assert_fixed_matches_format(f64::from_bits(bits));
            let exponent = 983 + (bits >> 52) % 100;
            assert_fixed_matches_format(f64::from_bits(
                (exponent << 52) | (bits & ((1 << 52) - 1)),
            ));
        }
    }

    #[test]
    fn fixed_precision_rounds_exact_ties_half_to_even() {
        // `k / 2^n` is exact; `n = 4` puts `{:.3}` and `n = 10` puts
        // `{:.9}` exactly halfway between two outputs for odd `k`.
        for n in 0..=64 {
            for k in (1_u64..200).chain([(1 << 40) + 1, (1 << 52) - 1, (1 << 53) - 1]) {
                assert_fixed_matches_format(k as f64 / 2f64.powi(n));
            }
        }
        let mut out = String::new();
        push_fixed(&mut out, 1.0 / 16.0, 3);
        push_fixed(&mut out, 3.0 / 16.0, 3);
        assert_eq!(out, "0.0620.188");
    }

    #[test]
    fn fixed_precision_matches_format_at_the_edges() {
        let two_53 = 9_007_199_254_740_992.0_f64;
        for v in [
            0.0,
            -0.0,
            -1.5,
            -0.0004,
            -1e-12,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            5e-324,
            1e-300,
            // The largest `f64` below 2^53.
            f64::from_bits(two_53.to_bits() - 1),
            two_53,
            two_53 + 2.0,
            1e20,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            0.0005,
            0.0015,
            999.9995,
            1e-10,
            123_456.789,
        ] {
            assert_fixed_matches_format(v);
        }
    }

    #[test]
    fn integers_render_in_full() {
        let mut out = String::new();
        for n in [0, 7, 10, 4_294_967_295, u64::MAX] {
            push_u64(&mut out, n);
            out.push(' ');
        }
        assert_eq!(out, format!("0 7 10 4294967295 {} ", u64::MAX));
    }

    #[test]
    fn escape_round_trips_through_validator() {
        let s = format!("\"{}\"", escape_json("a\"b\\c\nd\te\u{1}"));
        assert!(validate_json(&s).is_ok(), "{s}");
    }
}
