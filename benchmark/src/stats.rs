//! Small numeric helpers: order statistics, geometric mean, the answer
//! digest and the process's peak resident set.

use natix::QueryOutput;
use xpath_syntax::xvalue::number_to_string;

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them (the driver's measure of run-to-run spread); 0 for fewer
/// than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(values)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// FNV-1a, the engine's own hash family.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of an answer: its kind, its cardinality, and FNV-1a over the
/// node ids (document order) or the scalar's text. Node ids are stable
/// per store, and the disk store keeps the arena's numbering, so one
/// digest compares evaluators and stores alike. A number's text is its
/// XPath `string()`, so `0` and `-0` (the interpreter's `sum()` of an
/// empty set) are one answer.
pub fn digest(out: &QueryOutput) -> u64 {
    match out {
        QueryOutput::Nodes(ns) => {
            let h = fnv1a(fnv1a(FNV_OFFSET, b"nodes"), &(ns.len() as u64).to_le_bytes());
            ns.iter().fold(h, |h, n| fnv1a(h, &n.0.to_le_bytes()))
        }
        QueryOutput::Num(n) => fnv1a(fnv1a(FNV_OFFSET, b"num"), number_to_string(*n).as_bytes()),
        QueryOutput::Bool(b) => fnv1a(fnv1a(FNV_OFFSET, b"bool"), &[*b as u8]),
        QueryOutput::Str(s) => fnv1a(fnv1a(FNV_OFFSET, b"str"), s.as_bytes()),
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(median(&v), 5.5);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn digest_separates_kinds_and_contents() {
        let a = digest(&QueryOutput::Nodes(vec![natix::NodeId(1), natix::NodeId(2)]));
        let b = digest(&QueryOutput::Nodes(vec![natix::NodeId(2), natix::NodeId(1)]));
        assert_ne!(a, b);
        assert_ne!(digest(&QueryOutput::Num(1.0)), digest(&QueryOutput::Str("1".into())));
        assert_eq!(digest(&QueryOutput::Num(0.0)), digest(&QueryOutput::Num(-0.0)));
        assert!(peak_rss_mb() > 0.0);
    }
}
