//! Scalar value semantics of XPath 1.0 (conversions and string/number
//! functions), shared by constant folding, the NVM and the baseline
//! interpreter so all evaluators agree bit-for-bit.

/// Convert a string to a number per XPath `number()`: optional whitespace,
/// optional minus, digits with optional fraction; anything else is NaN.
pub fn string_to_number(s: &str) -> f64 {
    let t = s.trim_matches([' ', '\t', '\r', '\n']);
    if t.is_empty() {
        return f64::NAN;
    }
    let (neg, rest) = match t.strip_prefix('-') {
        Some(r) => (true, r),
        None => (false, t),
    };
    // Grammar: Digits ('.' Digits?)? | '.' Digits
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let int_digits = i;
    let mut frac_digits = 0;
    if i < bytes.len() && bytes[i] == b'.' {
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            frac_digits += 1;
            i += 1;
        }
    }
    if i != bytes.len() || (int_digits == 0 && frac_digits == 0) {
        return f64::NAN;
    }
    match rest.parse::<f64>() {
        Ok(v) => {
            if neg {
                -v
            } else {
                v
            }
        }
        Err(_) => f64::NAN,
    }
}

/// Convert a number to a string per XPath `string()`: integers without a
/// decimal point, NaN/Infinity spelled out, no exponent notation for the
/// magnitudes XPath cares about.
pub fn number_to_string(n: f64) -> String {
    if n.is_nan() {
        return "NaN".to_owned();
    }
    if n.is_infinite() {
        return if n > 0.0 {
            "Infinity".into()
        } else {
            "-Infinity".into()
        };
    }
    if n == 0.0 {
        return "0".to_owned();
    }
    if n == n.trunc() && n.abs() < 1e18 {
        return format!("{}", n as i64);
    }
    // Shortest representation that round-trips; Rust's Display for f64
    // already produces that, without exponent for moderate magnitudes.
    let s = format!("{n}");
    if s.contains('e') || s.contains('E') {
        // Fall back to a plain decimal expansion.
        format!("{n:.10}").trim_end_matches('0').trim_end_matches('.').to_owned()
    } else {
        s
    }
}

/// `boolean()` of a number: false for 0 and NaN.
pub fn number_to_boolean(n: f64) -> bool {
    n != 0.0 && !n.is_nan()
}

/// `boolean()` of a string: false iff empty.
pub fn string_to_boolean(s: &str) -> bool {
    !s.is_empty()
}

/// `round()` per XPath: half rounds towards +∞ (unlike Rust's
/// `f64::round`, which rounds half away from zero).
pub fn xpath_round(n: f64) -> f64 {
    if n.is_nan() || n.is_infinite() {
        return n;
    }
    let f = n.floor();
    if n - f >= 0.5 {
        f + 1.0
    } else {
        // Preserves -0.0 semantics for -0.5 < n <= -0.0.
        f + (n - f).round()
    }
}

/// `substring(s, start, len?)` per XPath: 1-based, positions are rounded,
/// NaN handling per spec (character-based, not byte-based).
pub fn xpath_substring(s: &str, start: f64, length: Option<f64>) -> String {
    let chars: Vec<char> = s.chars().collect();
    let start_r = xpath_round(start);
    if start_r.is_nan() {
        return String::new();
    }
    let end_r = match length {
        None => f64::INFINITY,
        Some(l) => {
            let l = xpath_round(l);
            if l.is_nan() {
                return String::new();
            }
            start_r + l
        }
    };
    // Select characters at 1-based positions p with start <= p < end.
    let lo = if start_r.is_infinite() {
        if start_r > 0.0 {
            return String::new();
        }
        0
    } else {
        (start_r as i64 - 1).max(0) as usize
    };
    let hi = if end_r.is_infinite() {
        if end_r > 0.0 {
            chars.len()
        } else {
            return String::new();
        }
    } else {
        ((end_r as i64 - 1).max(0) as usize).min(chars.len())
    };
    if lo >= hi {
        return String::new();
    }
    chars[lo..hi].iter().collect()
}

/// `normalize-space()` per XPath: strip leading/trailing whitespace,
/// collapse internal runs to single spaces.
pub fn normalize_space(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_ws = true;
    for c in s.chars() {
        if matches!(c, ' ' | '\t' | '\r' | '\n') {
            if !in_ws {
                out.push(' ');
                in_ws = true;
            }
        } else {
            out.push(c);
            in_ws = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

/// `translate(s, from, to)` per XPath: map characters of `from` to the
/// corresponding characters of `to`; characters of `from` beyond `to`'s
/// length are removed; the first occurrence in `from` wins.
pub fn translate(s: &str, from: &str, to: &str) -> String {
    let from_chars: Vec<char> = from.chars().collect();
    let to_chars: Vec<char> = to.chars().collect();
    let mut out = String::with_capacity(s.len());
    'outer: for c in s.chars() {
        for (i, &f) in from_chars.iter().enumerate() {
            if f == c {
                if let Some(&t) = to_chars.get(i) {
                    out.push(t);
                }
                continue 'outer;
            }
        }
        out.push(c);
    }
    out
}

/// `substring-before(a, b)`.
pub fn substring_before(a: &str, b: &str) -> String {
    match a.find(b) {
        Some(i) if !b.is_empty() => a[..i].to_owned(),
        _ => String::new(),
    }
}

/// `substring-after(a, b)`. An empty `b` occurs at offset 0, so the
/// answer is all of `a` (XPath 1.0 §4.2).
pub fn substring_after(a: &str, b: &str) -> String {
    match a.find(b) {
        Some(i) => a[i + b.len()..].to_owned(),
        None => String::new(),
    }
}

/// `string-length()` counts characters, not bytes.
pub fn string_length(s: &str) -> f64 {
    s.chars().count() as f64
}

/// `local-name()` of a stored name: the text after the prefix's `:`
/// (names are stored verbatim, with no prefix expansion).
pub fn local_name(qname: &str) -> &str {
    qname.split_once(':').map_or(qname, |(_, local)| local)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_parsing() {
        assert_eq!(string_to_number("12"), 12.0);
        assert_eq!(string_to_number("  -3.5 "), -3.5);
        assert_eq!(string_to_number(".5"), 0.5);
        assert_eq!(string_to_number("5."), 5.0);
        assert!(string_to_number("").is_nan());
        assert!(string_to_number("12x").is_nan());
        assert!(string_to_number("1e3").is_nan(), "no exponents in XPath 1.0");
        assert!(string_to_number("--3").is_nan());
        assert!(string_to_number("+3").is_nan(), "no leading + in XPath 1.0");
    }

    #[test]
    fn number_formatting() {
        assert_eq!(number_to_string(0.0), "0");
        assert_eq!(number_to_string(-0.0), "0");
        assert_eq!(number_to_string(42.0), "42");
        assert_eq!(number_to_string(-17.0), "-17");
        assert_eq!(number_to_string(3.5), "3.5");
        assert_eq!(number_to_string(f64::NAN), "NaN");
        assert_eq!(number_to_string(f64::INFINITY), "Infinity");
        assert_eq!(number_to_string(f64::NEG_INFINITY), "-Infinity");
    }

    #[test]
    fn boolean_conversions() {
        assert!(!number_to_boolean(0.0));
        assert!(!number_to_boolean(-0.0));
        assert!(!number_to_boolean(f64::NAN));
        assert!(number_to_boolean(0.1));
        assert!(number_to_boolean(f64::INFINITY));
        assert!(string_to_boolean("x"));
        assert!(!string_to_boolean(""));
    }

    #[test]
    fn round_half_toward_positive_infinity() {
        assert_eq!(xpath_round(2.5), 3.0);
        assert_eq!(xpath_round(-2.5), -2.0);
        assert_eq!(xpath_round(2.4), 2.0);
        assert_eq!(xpath_round(-2.6), -3.0);
        assert!(xpath_round(f64::NAN).is_nan());
    }

    #[test]
    fn substring_spec_examples() {
        // Examples straight from the XPath 1.0 recommendation §4.2.
        assert_eq!(xpath_substring("12345", 2.0, Some(3.0)), "234");
        assert_eq!(xpath_substring("12345", 2.0, None), "2345");
        assert_eq!(xpath_substring("12345", 1.5, Some(2.6)), "234");
        assert_eq!(xpath_substring("12345", 0.0, Some(3.0)), "12");
        assert_eq!(xpath_substring("12345", f64::NAN, Some(3.0)), "");
        assert_eq!(xpath_substring("12345", 1.0, Some(f64::NAN)), "");
        assert_eq!(xpath_substring("12345", -42.0, Some(f64::INFINITY)), "12345");
        assert_eq!(xpath_substring("12345", f64::NEG_INFINITY, Some(f64::INFINITY)), "");
    }

    #[test]
    fn normalize_space_examples() {
        assert_eq!(normalize_space("  a  b \t c \n"), "a b c");
        assert_eq!(normalize_space(""), "");
        assert_eq!(normalize_space("   "), "");
        assert_eq!(normalize_space("x"), "x");
    }

    #[test]
    fn translate_examples() {
        assert_eq!(translate("bar", "abc", "ABC"), "BAr");
        assert_eq!(translate("--aaa--", "abc-", "ABC"), "AAA");
        assert_eq!(translate("abca", "aa", "xy"), "xbcx", "first match wins");
    }

    #[test]
    fn substring_before_after() {
        assert_eq!(substring_before("1999/04/01", "/"), "1999");
        assert_eq!(substring_after("1999/04/01", "/"), "04/01");
        assert_eq!(substring_after("1999/04/01", "19"), "99/04/01");
        assert_eq!(substring_before("abc", "x"), "");
        assert_eq!(substring_after("abc", "x"), "");
        assert_eq!(substring_before("abc", ""), "");
        assert_eq!(substring_after("abc", ""), "abc");
    }

    #[test]
    fn string_length_chars() {
        assert_eq!(string_length(""), 0.0);
        assert_eq!(string_length("abc"), 3.0);
        assert_eq!(string_length("äöü"), 3.0);
    }
}
