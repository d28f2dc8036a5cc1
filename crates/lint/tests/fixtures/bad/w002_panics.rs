//! Bad: a literal slice index in library code aborts the serving
//! request that hits a shorter slice.

pub fn third(values: &[f64]) -> f64 {
    values[2] //~ W002
}
