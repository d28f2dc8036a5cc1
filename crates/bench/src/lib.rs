//! Benchmark harness support for the WiLocator reproduction.
//!
//! The real content lives in `benches/`: one `harness = false` bench per
//! table and figure of the paper (each prints the same rows or series the
//! paper reports). Run everything with `cargo bench -p wilocator-bench`;
//! select workload size with `WILOCATOR_SCALE` ∈ `smoke` / `medium`
//! (default) / `paper`. Pipeline speed is measured by `perfbench/`.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::time::Instant;

/// Runs one experiment body with a standard banner and timing footer.
pub fn run_experiment(name: &str, paper_reference: &str, body: impl FnOnce() -> String) {
    let scale = wilocator_eval::Scale::from_env();
    println!("================================================================");
    println!("{name} — {paper_reference}");
    println!("scale: {scale} (set WILOCATOR_SCALE=smoke|medium|paper)");
    println!("================================================================");
    let start = Instant::now();
    let output = body();
    println!("{output}");
    println!(
        "[{name} completed in {:.1} s]\n",
        start.elapsed().as_secs_f64()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_experiment_executes_body() {
        let mut ran = false;
        run_experiment("t", "p", || {
            ran = true;
            String::from("ok")
        });
        assert!(ran);
    }
}
