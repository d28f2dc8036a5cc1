//! CI bench-regression guard for the flat positioning kernels.
//!
//! Runs the fix kernel (100 rank-vector lookups), the full 1 km SVD
//! raster, and the incremental churn patch with plain `Instant` timing,
//! then compares against the checked-in baseline:
//!
//! ```text
//! cargo run --release -p wilocator-bench --example kernel_smoke -- --check
//! cargo run --release -p wilocator-bench --example kernel_smoke -- --bless
//! ```
//!
//! `--check` exits non-zero when any kernel is more than [`TOLERANCE`]×
//! slower than its baseline — deliberately loose, because CI runs on
//! noisy shared single-core containers; the goal is catching
//! order-of-magnitude regressions (an accidental `clone` in the hot
//! loop, a map probe reintroduced), not 10% drift. Methodology notes
//! live in `EXPERIMENTS.md`.

use std::time::Instant;

use wilocator_geo::{BoundingBox, Point};
use wilocator_rf::{AccessPoint, ApId, HomogeneousField, SignalField};
use wilocator_road::{NetworkBuilder, Route, RouteId};
use wilocator_svd::{
    PositionerConfig, RoutePositioner, RouteTileIndex, SignalVoronoiDiagram, SvdConfig,
};

/// Maximum tolerated slowdown vs. the blessed baseline.
const TOLERANCE: f64 = 2.0;

/// The rows of `baselines/kernel_baseline.json` and of EXPERIMENTS.md's
/// "CI smoke guard" table.
const KERNELS: [&str; 3] = [
    "locate_100_scans",
    "svd_raster_1km_2m",
    "svd_churn_death_patch",
];

fn street(len: f64) -> (Route, HomogeneousField) {
    let mut b = NetworkBuilder::new();
    let n0 = b.add_node(Point::new(0.0, 0.0));
    let mut prev = n0;
    let mut edges = Vec::new();
    let n = (len / 250.0) as usize;
    for i in 1..=n {
        let node = b.add_node(Point::new(i as f64 * 250.0, 0.0));
        edges.push(b.add_edge(prev, node, None).expect("distinct"));
        prev = node;
    }
    let net = b.build();
    let route = Route::new(RouteId(0), "smoke", edges, &net).expect("connected");
    let mut aps = Vec::new();
    let mut x = 25.0;
    let mut i = 0u32;
    while x < len {
        aps.push(AccessPoint::new(
            ApId(i),
            Point::new(x, if i.is_multiple_of(2) { 15.0 } else { -15.0 }),
        ));
        i += 1;
        x += 55.0;
    }
    (route, HomogeneousField::new(aps))
}

/// Best-of-`reps` wall time of `body` run `inner` times, in ns per run.
fn time_ns(reps: usize, inner: usize, mut body: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..inner {
            body();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / inner as f64);
    }
    best
}

fn measure() -> Vec<(&'static str, f64)> {
    let mut rows = Vec::new();

    // Fix kernel: 100 lookups along a 10 km street.
    let (route, field) = street(10_000.0);
    let index = RouteTileIndex::build(&field, &route, SvdConfig::default(), 2.0);
    let pos = RoutePositioner::new(route.clone(), index, PositionerConfig::default());
    let ranked: Vec<Vec<(ApId, i32)>> = (0..100)
        .map(|i| {
            let p = route.point_at(i as f64 * 97.0);
            field
                .detectable_at(p, -90.0)
                .into_iter()
                .map(|(ap, rss)| (ap, rss.round() as i32))
                .collect()
        })
        .collect();
    rows.push((
        "locate_100_scans",
        time_ns(5, 200, || {
            for (i, r) in ranked.iter().enumerate() {
                std::hint::black_box(pos.locate(r, i as f64 * 10.0, None));
            }
        }),
    ));

    // Full raster of a 1 km strip at 2 m.
    let (_, field) = street(1_000.0);
    let bbox = BoundingBox::new(Point::new(0.0, -150.0), Point::new(1_000.0, 150.0));
    let cfg = SvdConfig {
        resolution_m: 2.0,
        ..SvdConfig::default()
    };
    rows.push((
        "svd_raster_1km_2m",
        time_ns(3, 3, || {
            std::hint::black_box(SignalVoronoiDiagram::build(&field, bbox, cfg));
        }),
    ));

    // Incremental patch after one AP death on the same strip.
    let diagram = SignalVoronoiDiagram::build(&field, bbox, cfg);
    let dead = ApId(9);
    let post = field.without_aps(&[dead]);
    rows.push((
        "svd_churn_death_patch",
        time_ns(3, 10, || {
            let mut d = diagram.clone();
            std::hint::black_box(d.apply_churn(&post, &[dead]));
        }),
    ));
    rows
}

fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("baselines")
        .join("kernel_baseline.json")
}

fn render_json(rows: &[(&str, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (name, ns)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!("  \"{name}\": {:.0}{comma}\n", ns));
    }
    out.push_str("}\n");
    out
}

/// Reads `"name": <number>` out of the baseline file. Deliberately tiny:
/// the file is machine-written by `--bless` with exactly that shape, and
/// a parse failure is a hard error (a smoke that silently passes on a
/// corrupt baseline guards nothing).
fn parse_baseline(text: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":");
    let rest = &text[text.find(&key)? + key.len()..];
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows = measure();
    match args.first().map(String::as_str) {
        Some("--bless") => {
            let path = baseline_path();
            std::fs::write(&path, render_json(&rows)).expect("write baseline");
            println!("blessed {}:", path.display());
            for (name, ns) in &rows {
                println!("  {name:<24} {:>12.0} ns", ns);
            }
        }
        Some("--check") => {
            let path = baseline_path();
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing baseline {} ({e}) — bless it with --bless",
                    path.display()
                )
            });
            let mut failed = false;
            for name in KERNELS {
                let now = rows
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, ns)| ns)
                    .expect("kernel measured");
                let base = parse_baseline(&text, name)
                    .unwrap_or_else(|| panic!("baseline missing row {name} — re-bless"));
                let ratio = now / base;
                let verdict = if ratio > TOLERANCE { "FAIL" } else { "ok" };
                println!(
                    "{name:<24} {now:>12.0} ns  baseline {base:>12.0} ns  x{ratio:.2}  {verdict}"
                );
                failed |= ratio > TOLERANCE;
            }
            if failed {
                eprintln!(
                    "kernel regression: >{}x slower than baselines/kernel_baseline.json \
                     — investigate, or re-bless with --bless if intentional",
                    TOLERANCE
                );
                std::process::exit(1);
            }
        }
        other => {
            eprintln!("usage: kernel_smoke --check | --bless (got {other:?})");
            std::process::exit(2);
        }
    }
}
