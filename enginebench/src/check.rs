//! Output checks: golden records and digests of simulated outputs.

/// Splits a flat one-level JSON object into `key:value` fields.
fn fields(record: &str) -> Vec<&str> {
    record
        .trim_start_matches('{')
        .trim_end_matches('}')
        .split(',')
        .collect()
}

/// Names every field where `got` differs from `want`.
pub fn field_diff(what: &str, want: &str, got: &str) -> Vec<String> {
    let (w, g) = (fields(want), fields(got));
    if w.len() != g.len() {
        return vec![format!("{what}: {} fields, expected {}", g.len(), w.len())];
    }
    w.iter()
        .zip(&g)
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("{what}: got {b}, expected {a}"))
        .collect()
}

/// FNV-1a over a sequence of 64-bit words: an order-sensitive digest
/// of simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Compares a digest against the value stored for the default seed.
pub fn golden(what: &str, seed: u64, got: u64, seed1: u64) -> Option<String> {
    (seed == 1 && got != seed1)
        .then(|| format!("{what}: digest {got:#018x}, expected {seed1:#018x}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_diff_names_changed_fields() {
        let want = "{\"a\":1,\"b\":2}";
        assert!(field_diff("x", want, want).is_empty());
        let d = field_diff("x", want, "{\"a\":1,\"b\":3}");
        assert_eq!(d, vec!["x: got \"b\":3, expected \"b\":2".to_string()]);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        a.word(1);
        a.word(2);
        let mut b = Digest::new();
        b.word(2);
        b.word(1);
        assert_ne!(a.value(), b.value());
    }
}
