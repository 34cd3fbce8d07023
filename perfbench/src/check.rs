//! Answer digests and comparisons used to check every timed answer.

use faq_factor::Factor;

/// Values whose exact bits can be digested.
pub trait Bits: faq_semiring::SemiringElem {
    /// The value's bit pattern.
    fn bits(&self) -> u64;
    /// Whether two values agree within `rel` relative error.
    fn close(&self, other: &Self, rel: f64) -> bool;
}

impl Bits for u64 {
    fn bits(&self) -> u64 {
        *self
    }
    fn close(&self, other: &Self, _rel: f64) -> bool {
        self == other
    }
}

impl Bits for f64 {
    fn bits(&self) -> u64 {
        self.to_bits()
    }
    fn close(&self, other: &Self, rel: f64) -> bool {
        self == other || (self - other).abs() <= rel * self.abs().max(other.abs())
    }
}

/// Row count plus an FNV-1a checksum over schema, rows and value bits: two
/// answers with equal digests are, for benchmarking purposes, identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Output rows.
    pub rows: usize,
    /// Checksum.
    pub sum: u64,
}

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest an answer.
pub fn digest<E: Bits>(f: &Factor<E>) -> Digest {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in f.schema() {
        fnv(&mut h, u64::from(v.0));
    }
    for i in 0..f.len() {
        for &x in f.row(i) {
            fnv(&mut h, u64::from(x));
        }
        fnv(&mut h, f.value(i).bits());
    }
    Digest { rows: f.len(), sum: h }
}

/// Whether two answers have the same schema and rows, with values equal up
/// to `rel` relative error (0 for exact domains).
pub fn same_answer<E: Bits>(a: &Factor<E>, b: &Factor<E>, rel: f64) -> bool {
    a.schema() == b.schema()
        && a.len() == b.len()
        && (0..a.len()).all(|i| a.row(i) == b.row(i) && a.value(i).close(b.value(i), rel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use faq_hypergraph::Var;

    #[test]
    fn digest_sees_rows_and_values() {
        let f = |v: u64| Factor::new(vec![Var(0)], vec![(vec![1], 1u64), (vec![2], v)]).unwrap();
        assert_eq!(digest(&f(2)), digest(&f(2)));
        assert_ne!(digest(&f(2)), digest(&f(3)));
        assert_eq!(digest(&f(2)).rows, 2);
        assert!(same_answer(&f(2), &f(2), 0.0));
        assert!(!same_answer(&f(2), &f(3), 0.0));
        let g = |v: f64| Factor::new(vec![Var(0)], vec![(vec![1], v)]).unwrap();
        assert!(same_answer(&g(1.0), &g(1.0 + 1e-13), 1e-9));
        assert!(!same_answer(&g(1.0), &g(1.1), 1e-9));
    }
}
