//! Good: well-formed pragmas — a known rule slug, a reason after the em
//! dash, and a real violation underneath for each one to suppress. Both
//! placements work: own line above, or trailing on the offending line.

pub fn first_checkpoint(route: &[u32]) -> u32 {
    // lint: allow(panic_in_library) — routes are validated non-empty at load time
    route[0]
}

pub fn head(values: &[f64]) -> f64 {
    values[0] // lint: allow(panic_in_library) — callers index only non-empty windows
}
