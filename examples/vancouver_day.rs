//! A service day on the paper's four Metro-Vancouver routes (Table I):
//! full crowdsensing pipeline — simulate, track every bus, train the
//! predictor, and report accuracy per route.
//!
//! Run with `cargo run --release --example vancouver_day`. Pass
//! `--trace-out trace.json` to also write the server's flight-recorder
//! export as Chrome trace-event JSON — load it at `chrome://tracing` or
//! <https://ui.perfetto.dev>, or analyze it with
//! `cargo run --release -p wilocator-tracedump -- trace.json`.

use wilocator::eval::{route_name, run_pipeline, vancouver_city, vancouver_pipeline, Cdf, Scale};
use wilocator::rf::SignalField;
use wilocator::road::RouteId;

fn main() {
    let mut trace_out: Option<String> = None;
    let mut debug_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => match args.next() {
                Some(path) => trace_out = Some(path),
                None => {
                    eprintln!("--trace-out takes a file path");
                    std::process::exit(2);
                }
            },
            "--debug-out" => match args.next() {
                Some(path) => debug_out = Some(path),
                None => {
                    eprintln!("--debug-out takes a file path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "unknown argument `{other}`; usage: vancouver_day [--trace-out FILE] [--debug-out FILE]"
                );
                std::process::exit(2);
            }
        }
    }

    let city = vancouver_city(42);
    println!("Table-I city generated:");
    for route in &city.routes {
        println!(
            "  route {:>10}: {:>5.1} km, {:>2} stops",
            route.name(),
            route.length() / 1_000.0,
            route.stops().len()
        );
    }
    println!("  {} access points deployed\n", city.field.aps().len());

    let mut config = vancouver_pipeline(Scale::Smoke, 42);
    // Publish rider snapshots every simulated 30 s so the quality plane
    // ledgers ETAs and confirms them against later fixes.
    config.publish_every_s = 30.0;
    println!(
        "simulating {} day(s) ({} training), headway {:.0} s …",
        config.sim.days, config.train_days, config.headways[0].1
    );
    let out = run_pipeline(&city, &config);
    println!(
        "{} trips simulated, {} scan bundles ingested\n",
        out.dataset.trips.len(),
        out.dataset.bundle_count()
    );

    println!("positioning accuracy (evaluation days):");
    for id in 0..4 {
        let route = RouteId(id);
        let cdf = Cdf::new(out.positioning.get(&route).cloned().unwrap_or_default());
        println!(
            "  route {:>10}: median {:>5.1} m, p90 {:>6.1} m ({} fixes)",
            route_name(route),
            cdf.median(),
            cdf.quantile(0.9),
            cdf.len()
        );
    }

    let rush: Vec<_> = out.predictions.iter().filter(|p| p.rush).collect();
    let wilo: Cdf = rush.iter().map(|p| p.wilocator_err()).collect();
    let agency: Cdf = rush.iter().map(|p| p.agency_err()).collect();
    println!(
        "\nrush-hour arrival prediction ({} predictions):",
        rush.len()
    );
    println!(
        "  WiLocator:      median {:>5.0} s, p90 {:>5.0} s, max {:>5.0} s",
        wilo.median(),
        wilo.quantile(0.9),
        wilo.max()
    );
    println!(
        "  Transit agency: median {:>5.0} s, p90 {:>5.0} s, max {:>5.0} s",
        agency.median(),
        agency.quantile(0.9),
        agency.max()
    );

    // The server's own account of the day, from the observability layer.
    let snapshot = out.server.metrics();
    println!("\nserver metrics:");
    for family in [
        "wilocator_reports_total",
        "wilocator_fixes_total",
        "wilocator_reports_stale_total",
        "wilocator_traversals_committed_total",
        "svd_fix_exact_total",
        "svd_fix_tie_boundary_total",
        "svd_fix_nearest_signature_total",
        "svd_fix_dead_reckoned_total",
        "predict_residual_borrow_total",
        "predict_arrival_total",
    ] {
        println!("  {family:<38} {}", snapshot.counter_family_total(family));
    }
    println!(
        "  (full exposition: {} lines of Prometheus text)",
        out.server.metrics_text().lines().count()
    );

    // The quality plane's verdict on the day: per-route ETA accuracy
    // quantiles and drift-detector states, from the same sections the
    // /debug endpoints publish.
    let quality = &out.server.query_snapshot().quality;
    println!(
        "\nquality plane (evaluated at {:.0} s):",
        quality.evaluated_at_s
    );
    for (route, rq) in &quality.routes {
        for h in &rq.horizons {
            if h.confirmed_total == 0 {
                continue;
            }
            println!(
                "  route {:>10} @{:>3.0}s: n={:<4} |e|={:>5.1} s, p90 {:>+6.1} s",
                route_name(*route),
                h.horizon_s,
                h.confirmed_total,
                h.mean_abs_error_s,
                h.p90_s
            );
        }
    }
    for d in &quality.slo {
        if d.fired {
            println!(
                "  detector {} FIRED (exemplars: {:?})",
                d.name, d.exemplar_trace_ids
            );
        }
    }

    if let Some(path) = debug_out {
        let json = wilocator::serve::debug_dump(&out.server);
        match std::fs::write(&path, &json) {
            Ok(()) => println!(
                "\nquality plane: wrote {} bytes of /debug JSON to {path} \
                 (render with `tracedump dash {path}`)",
                json.len()
            ),
            Err(e) => {
                eprintln!("write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = trace_out {
        let json = out.server.trace_chrome_json();
        match std::fs::write(&path, &json) {
            Ok(()) => println!(
                "\nflight recorder: wrote {} bytes of Chrome trace JSON to {path}",
                json.len()
            ),
            Err(e) => {
                eprintln!("write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
