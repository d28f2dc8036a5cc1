//! Good: serving-path indexing without panics — checked access, and the
//! `windows` length guarantee the lint recognises. Literal subscripts
//! are fine in tests.

/// Checked access instead of a literal subscript.
pub fn third(values: &[f64]) -> f64 {
    values.get(2).copied().unwrap_or(f64::NAN)
}

/// Indexing straight out of `windows(2)` carries a length guarantee.
pub fn max_step(values: &[f64]) -> f64 {
    let mut best = 0.0_f64;
    for w in values.windows(2) {
        best = best.max((w[1] - w[0]).abs());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn third_of_three() {
        // Test code may index freely: an out-of-bounds panic IS the test
        // failure.
        let v = [1.0, 2.0, 3.0];
        assert_eq!(third(&v), v[2]);
    }
}
