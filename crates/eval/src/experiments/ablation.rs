//! Ablations and head-to-head comparisons beyond the paper's figures:
//!
//! * positioning scheme shoot-out (SVD vs every baseline in
//!   `wilocator-baselines`) — quantifies the motivation of §II;
//! * scan-period sensitivity (the prototype fixed 10 s; what does the
//!   choice cost?);
//! * AP churn (the paper's "AP b is out of function" robustness claim,
//!   §III-B) against the fingerprinting baseline that breaks;
//! * heterogeneous transmit power (when the true SVD ≠ the Euclidean VD,
//!   how much does the server's homogeneity assumption cost?).

use rand::rngs::StdRng;
use rand::SeedableRng;
use wilocator_baselines::{
    CellIdMatcher, FingerprintConfig, FingerprintPositioner, GpsTracker, NearestApPositioner,
    TrilaterationPositioner,
};
use wilocator_rf::{ApId, ScannerConfig, SignalField};
use wilocator_road::RouteId;
use wilocator_sim::{
    daily_schedule, serving_tower, simple_street, simulate, CityConfig, GpsModel, SensingConfig,
    SimulationConfig, TrafficConfig, TrafficModel,
};
use wilocator_svd::{PositionerConfig, SvdConfig};

use crate::experiments::fig9::{test_scene, Sweep};
use crate::metrics::{mean, Cdf};
use crate::render::render_table;
use crate::replay::{replay_locator_errors, replay_svd_errors};
use crate::scenarios::Scale;

/// Summary row for one positioning method.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodRow {
    /// Method name.
    pub name: &'static str,
    /// Number of error samples.
    pub samples: usize,
    /// Median error, metres.
    pub median_m: f64,
    /// Mean error, metres.
    pub mean_m: f64,
    /// 90th-percentile error, metres.
    pub p90_m: f64,
}

fn row(name: &'static str, errors: Vec<f64>) -> MethodRow {
    let cdf = Cdf::new(errors);
    MethodRow {
        name,
        samples: cdf.len(),
        median_m: cdf.median(),
        mean_m: cdf.mean(),
        p90_m: cdf.quantile(0.9),
    }
}

/// Head-to-head positioning comparison on the shared test street.
pub fn positioning_methods(scale: Scale, seed: u64) -> Vec<MethodRow> {
    let (city, dataset) = test_scene(scale, seed);
    let route = city.routes[0].clone();
    let mut out = Vec::new();

    // 1. WiLocator's SVD.
    out.push(row(
        "SVD (WiLocator)",
        replay_svd_errors(
            &city.routes,
            &dataset,
            &city.server_field,
            SvdConfig::default(),
            PositionerConfig::default(),
            2.0,
        ),
    ));

    // 2. Nearest AP (Euclidean Voronoi).
    let nearest = NearestApPositioner::new(route.clone(), city.server_field.aps());
    out.push(row(
        "Nearest AP (VD)",
        replay_locator_errors(&city.routes, &dataset, |_, ranked| nearest.locate(ranked)),
    ));

    // 3. Fingerprinting (calibrated on the true field).
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1);
    let fp = FingerprintPositioner::survey(
        &city.field,
        &route,
        ScannerConfig::default(),
        FingerprintConfig::default(),
        &mut rng,
    );
    out.push(row(
        "Fingerprint kNN",
        replay_locator_errors(&city.routes, &dataset, |_, ranked| fp.locate(ranked)),
    ));

    // 4. Log-distance trilateration.
    let tri = TrilaterationPositioner::new(route.clone(), city.server_field.aps());
    out.push(row(
        "Trilateration",
        replay_locator_errors(&city.routes, &dataset, |_, ranked| tri.locate(ranked)),
    ));

    // 5. GPS with urban canyons.
    let gps_model = GpsModel::new(city.network.edges().len(), 0.35, seed ^ 0x675);
    let gps = GpsTracker::new(route.clone());
    let mut gps_errors = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6752);
    for trip in dataset.trips_of(route.id()) {
        for bundle in &trip.bundles {
            let pos = route.position_at(bundle.true_s);
            if let Some(s) = gps.locate(gps_model.fix(pos.point, pos.edge, &mut rng)) {
                gps_errors.push((s - bundle.true_s).abs());
            }
        }
    }
    out.push(row("GPS (urban canyon)", gps_errors));

    // 6. Cell-ID sequence matching.
    let matcher = CellIdMatcher::build(&route, &city.towers, 20.0);
    let mut cell_errors = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCE11);
    for trip in dataset.trips_of(route.id()) {
        let mut observed: Vec<usize> = Vec::new();
        let mut prior: Option<f64> = None;
        for bundle in &trip.bundles {
            let p = route.point_at(bundle.true_s);
            if let Some(t) = serving_tower(&city.towers, p, &mut rng) {
                observed.push(t);
            }
            let window = observed.len().saturating_sub(12);
            if let Some(s) = matcher.locate(&observed[window..], prior) {
                cell_errors.push((s - bundle.true_s).abs());
                prior = Some(s);
            }
        }
    }
    out.push(row("Cell-ID matching", cell_errors));
    out
}

/// Renders the method comparison.
pub fn render_methods(rows: &[MethodRow]) -> String {
    let mut table = vec![vec![
        "Method".to_string(),
        "samples".to_string(),
        "median (m)".to_string(),
        "mean (m)".to_string(),
        "p90 (m)".to_string(),
    ]];
    for r in rows {
        table.push(vec![
            r.name.to_string(),
            r.samples.to_string(),
            format!("{:.1}", r.median_m),
            format!("{:.1}", r.mean_m),
            format!("{:.1}", r.p90_m),
        ]);
    }
    format!("Positioning method comparison\n{}", render_table(&table))
}

/// Scan-period sensitivity: simulate the same street with different scan
/// periods, report the mean SVD positioning error.
pub fn scan_period_sweep(scale: Scale, seed: u64) -> Sweep {
    let city = simple_street(3_000.0, 8, seed, &CityConfig::default());
    let traffic = TrafficModel::new(&city.network, TrafficConfig::default(), seed);
    let schedule = daily_schedule(&city, &[(RouteId(0), scale.headway_s())]);
    let mut points = Vec::new();
    for period in [5.0, 10.0, 20.0, 30.0, 40.0] {
        let sim = SimulationConfig {
            days: 1,
            seed,
            sensing: SensingConfig {
                scan_period_s: period,
                ..SensingConfig::default()
            },
            ..SimulationConfig::default()
        };
        let dataset = simulate(&city, &schedule, &traffic, &sim);
        let errors = replay_svd_errors(
            &city.routes,
            &dataset,
            &city.server_field,
            SvdConfig::default(),
            PositionerConfig::default(),
            2.0,
        );
        points.push((period, mean(&errors)));
    }
    Sweep {
        x_label: "scan period (s)",
        points,
    }
}

/// AP-churn robustness: kill a growing fraction of APs *after* the server
/// built its SVD and the fingerprint survey finished; compare the stale
/// SVD, a rebuilt SVD (server noticed the dead BSSIDs) and the stale
/// fingerprint database.
///
/// Returns `(dead fraction, stale SVD, rebuilt SVD, stale fingerprint)`
/// mean errors in metres.
pub fn ap_churn(scale: Scale, seed: u64) -> Vec<(f64, f64, f64, f64)> {
    let (city, _) = test_scene(scale, seed);
    let route = city.routes[0].clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let fp = FingerprintPositioner::survey(
        &city.field,
        &route,
        ScannerConfig::default(),
        FingerprintConfig::default(),
        &mut rng,
    );
    let traffic = TrafficModel::new(&city.network, TrafficConfig::default(), seed);
    let schedule = daily_schedule(&city, &[(RouteId(0), scale.headway_s())]);
    let mut out = Vec::new();
    for frac in [0.0, 0.1, 0.25, 0.4] {
        let n_dead = (city.field.aps().len() as f64 * frac) as usize;
        let dead: Vec<ApId> = city
            .field
            .aps()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 7 < (n_dead * 7 / city.field.aps().len().max(1)))
            .map(|(_, ap)| ap.id())
            .collect();
        // Re-simulate with the churned physical field.
        let mut churned = city.clone();
        churned.field = city.field.without_aps(&dead);
        let dataset = simulate(
            &churned,
            &schedule,
            &traffic,
            &SimulationConfig {
                days: 1,
                seed,
                ..SimulationConfig::default()
            },
        );
        // Stale SVD: the server still believes the dead APs exist.
        let stale = mean(&replay_svd_errors(
            &churned.routes,
            &dataset,
            &city.server_field,
            SvdConfig::default(),
            PositionerConfig::default(),
            2.0,
        ));
        // Rebuilt SVD: geo-tag database pruned.
        let rebuilt_field = city.server_field.without_aps(&dead);
        let rebuilt = mean(&replay_svd_errors(
            &churned.routes,
            &dataset,
            &rebuilt_field,
            SvdConfig::default(),
            PositionerConfig::default(),
            2.0,
        ));
        // Stale fingerprints.
        let fp_err = mean(&replay_locator_errors(
            &churned.routes,
            &dataset,
            |_, ranked| fp.locate(ranked),
        ));
        out.push((frac, stale, rebuilt, fp_err));
    }
    out
}

/// Renders the churn table.
pub fn render_churn(rows: &[(f64, f64, f64, f64)]) -> String {
    let mut table = vec![vec![
        "dead APs".to_string(),
        "stale SVD (m)".to_string(),
        "rebuilt SVD (m)".to_string(),
        "stale fingerprint (m)".to_string(),
    ]];
    for &(frac, stale, rebuilt, fp) in rows {
        table.push(vec![
            format!("{:.0} %", frac * 100.0),
            format!("{stale:.1}"),
            format!("{rebuilt:.1}"),
            format!("{fp:.1}"),
        ]);
    }
    format!(
        "AP churn robustness (paper §III-B)\n{}",
        render_table(&table)
    )
}

/// Heterogeneous transmit power: widen the true TX spread while the server
/// keeps assuming homogeneity. Returns `(spread dB, SVD, nearest-AP)` mean
/// errors.
pub fn hetero_power(scale: Scale, seed: u64) -> Vec<(f64, f64, f64)> {
    let mut out = Vec::new();
    for spread in [0.0, 4.0, 8.0, 12.0] {
        let config = CityConfig {
            ap_tx_dbm: (20.0 - spread / 2.0, 20.0 + spread / 2.0 + 1e-6),
            ..CityConfig::default()
        };
        let city = simple_street(3_000.0, 8, seed, &config);
        let traffic = TrafficModel::new(&city.network, TrafficConfig::default(), seed);
        let schedule = daily_schedule(&city, &[(RouteId(0), scale.headway_s())]);
        let dataset = simulate(
            &city,
            &schedule,
            &traffic,
            &SimulationConfig {
                days: 1,
                seed,
                ..SimulationConfig::default()
            },
        );
        let svd = mean(&replay_svd_errors(
            &city.routes,
            &dataset,
            &city.server_field,
            SvdConfig::default(),
            PositionerConfig::default(),
            2.0,
        ));
        let nearest = NearestApPositioner::new(city.routes[0].clone(), city.server_field.aps());
        let near = mean(&replay_locator_errors(
            &city.routes,
            &dataset,
            |_, ranked| nearest.locate(ranked),
        ));
        out.push((spread, svd, near));
    }
    out
}

/// Renders the heterogeneous-power table.
pub fn render_hetero(rows: &[(f64, f64, f64)]) -> String {
    let mut table = vec![vec![
        "TX spread (dB)".to_string(),
        "SVD (m)".to_string(),
        "nearest AP (m)".to_string(),
    ]];
    for &(spread, svd, near) in rows {
        table.push(vec![
            format!("{spread:.0}"),
            format!("{svd:.1}"),
            format!("{near:.1}"),
        ]);
    }
    format!(
        "Heterogeneous TX power (true SVD ≠ Euclidean VD)\n{}",
        render_table(&table)
    )
}

/// Propagation-model mismatch: the true channel's path-loss exponent
/// sweeps away from the n = 3.0 the server always assumes. The paper's
/// claim — "no calibration or RF propagation model is required" — predicts
/// the rank-based SVD barely notices (ranks survive any monotone
/// transformation of distance), while model-inverting trilateration
/// degrades with the mismatch.
///
/// Returns `(true exponent, SVD mean error m, trilateration mean error m)`.
pub fn model_mismatch(scale: Scale, seed: u64) -> Vec<(f64, f64, f64)> {
    use wilocator_rf::{LogDistance, PhysicalField};

    let base = simple_street(3_000.0, 8, seed, &CityConfig::default());
    let route = base.routes[0].clone();
    let schedule = daily_schedule(&base, &[(RouteId(0), scale.headway_s())]);
    let tri = TrilaterationPositioner::new(route.clone(), base.server_field.aps());
    let mut out = Vec::new();
    for exponent in [2.4, 2.7, 3.0, 3.3, 3.6] {
        let mut city = base.clone();
        city.field = PhysicalField::new(
            city.field.aps().to_vec(),
            LogDistance::new(40.0, exponent, 1.0),
            *city.field.shadowing(),
        );
        let traffic = TrafficModel::new(&city.network, TrafficConfig::default(), seed);
        let dataset = simulate(
            &city,
            &schedule,
            &traffic,
            &SimulationConfig {
                days: 1,
                seed,
                ..SimulationConfig::default()
            },
        );
        // The server keeps its n = 3.0 assumption in both schemes.
        let svd = mean(&replay_svd_errors(
            &city.routes,
            &dataset,
            &city.server_field,
            SvdConfig::default(),
            PositionerConfig::default(),
            2.0,
        ));
        let tri_err = mean(&replay_locator_errors(
            &city.routes,
            &dataset,
            |_, ranked| tri.locate(ranked),
        ));
        out.push((exponent, svd, tri_err));
    }
    out
}

/// Renders the model-mismatch table.
pub fn render_mismatch(rows: &[(f64, f64, f64)]) -> String {
    let mut table = vec![vec![
        "true exponent (server assumes 3.0)".to_string(),
        "SVD (m)".to_string(),
        "trilateration (m)".to_string(),
    ]];
    for &(n, svd, tri) in rows {
        table.push(vec![
            format!("{n:.1}"),
            format!("{svd:.1}"),
            format!("{tri:.1}"),
        ]);
    }
    format!(
        "Propagation-model mismatch (paper: \"no calibration or RF propagation model is required\")\n{}",
        render_table(&table)
    )
}

/// Hybrid WiFi/GPS tracking through a coverage gap (the paper's §VII
/// extension): WiFi-only dead-reckons through an AP-free stretch; the
/// hybrid tracker powers GPS up only inside the gap. Returns
/// `(wifi_only_mean_m, hybrid_mean_m, gps_duty_cycle)`.
pub fn hybrid_gap(scale: Scale, seed: u64) -> (f64, f64, f64) {
    use wilocator_core::{FixSource, HybridConfig, HybridTracker};
    use wilocator_svd::{RoutePositioner, RouteTileIndex, TrackingFilter};

    // A street whose middle 800 m has no APs.
    let mut city = simple_street(3_000.0, 6, seed, &CityConfig::default());
    let gap_aps: Vec<ApId> = city
        .field
        .aps()
        .iter()
        .filter(|ap| ap.position().x > 1_100.0 && ap.position().x < 1_900.0)
        .map(|ap| ap.id())
        .collect();
    city.field = city.field.without_aps(&gap_aps);
    city.server_field = city.server_field.without_aps(&gap_aps);
    let route = city.routes[0].clone();

    let traffic = TrafficModel::new(&city.network, TrafficConfig::default(), seed);
    let schedule = daily_schedule(&city, &[(RouteId(0), scale.headway_s())]);
    let dataset = simulate(
        &city,
        &schedule,
        &traffic,
        &SimulationConfig {
            days: 1,
            seed,
            ..SimulationConfig::default()
        },
    );

    let index = RouteTileIndex::build(&city.server_field, &route, SvdConfig::default(), 2.0);
    let positioner = RoutePositioner::new(route.clone(), index, PositionerConfig::default());
    let gps_model = GpsModel::new(city.network.edges().len(), 0.3, seed ^ 0x9);

    let mut wifi_errors = Vec::new();
    let mut hybrid_errors = Vec::new();
    let mut duty_sum = 0.0;
    let mut trips = 0usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4B);
    for trip in dataset.trips_of(route.id()) {
        let mut wifi = TrackingFilter::new(positioner.clone());
        let mut hybrid = HybridTracker::new(positioner.clone(), HybridConfig::default());
        for bundle in &trip.bundles {
            let avg = wilocator_svd::average_ranks(&bundle.scans, 1);
            let ranked: Vec<(ApId, i32)> = avg
                .iter()
                .map(|a| (a.ap, a.mean_rss_dbm.round() as i32))
                .collect();
            if let Some(fix) = wifi.step(&ranked, bundle.time_s) {
                wifi_errors.push((fix.s - bundle.true_s).abs());
            }
            let pos = route.position_at(bundle.true_s);
            let fix = hybrid.ingest(&ranked, bundle.time_s, || {
                gps_model.fix(pos.point, pos.edge, &mut rng)
            });
            if let Some(fix) = fix {
                let _ = matches!(fix.source, FixSource::Gps);
                hybrid_errors.push((fix.s - bundle.true_s).abs());
            }
        }
        duty_sum += hybrid.gps_duty_cycle();
        trips += 1;
    }
    (
        mean(&wifi_errors),
        mean(&hybrid_errors),
        duty_sum / trips.max(1) as f64,
    )
}

/// Renders the hybrid-gap result.
pub fn render_hybrid(result: (f64, f64, f64)) -> String {
    let (wifi, hybrid, duty) = result;
    format!(
        "Hybrid WiFi/GPS through an 800 m coverage gap (paper §VII)\n\
         | tracker    | mean error (m) |\n\
         |------------|----------------|\n\
         | WiFi only  | {wifi:14.1} |\n\
         | hybrid     | {hybrid:14.1} |\n\
         GPS duty cycle: {:.0} % (an always-on AVL unit burns 100 %)\n",
        duty * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svd_beats_coarse_baselines() {
        let rows = positioning_methods(Scale::Smoke, 11);
        let get = |name: &str| rows.iter().find(|r| r.name.starts_with(name)).unwrap();
        let svd = get("SVD");
        let nearest = get("Nearest");
        let cell = get("Cell-ID");
        assert!(svd.samples > 0 && nearest.samples > 0 && cell.samples > 0);
        // The paper's ordering: SVD ≺ nearest-AP ≺ Cell-ID. Medians are
        // the paper's headline metric (means are tail-dominated by the
        // rare divergence episodes every scheme has).
        assert!(
            svd.median_m < nearest.median_m,
            "SVD {} vs nearest {}",
            svd.median_m,
            nearest.median_m
        );
        assert!(
            nearest.mean_m < cell.mean_m,
            "nearest {} vs cell {}",
            nearest.mean_m,
            cell.mean_m
        );
    }

    #[test]
    fn longer_scan_periods_cost_accuracy() {
        let sweep = scan_period_sweep(Scale::Smoke, 11);
        assert_eq!(sweep.points.len(), 5);
        let at5 = sweep.points[0].1;
        let at40 = sweep.points[4].1;
        assert!(
            at40 >= at5 * 0.8,
            "sparser scans should not be better: {at40} vs {at5}"
        );
    }

    #[test]
    fn churn_hurts_fingerprints_more_than_rebuilt_svd() {
        let rows = ap_churn(Scale::Smoke, 11);
        assert_eq!(rows.len(), 4);
        let (_, _, rebuilt0, fp0) = rows[0];
        let (_, _, rebuilt40, fp40) = rows[3];
        let svd_growth = rebuilt40 / rebuilt0.max(1e-9);
        let fp_growth = fp40 / fp0.max(1e-9);
        assert!(
            fp_growth >= svd_growth * 0.8,
            "fingerprint should degrade at least comparably: {fp_growth} vs {svd_growth}"
        );
    }

    #[test]
    fn hetero_power_degrades_gracefully() {
        let rows = hetero_power(Scale::Smoke, 11);
        assert_eq!(rows.len(), 4);
        for &(_, svd, near) in &rows {
            assert!(svd.is_finite() && near.is_finite());
        }
        // At realistic spreads (≤ 4 dB — "the transmitted power of the
        // WiFi APs is often limited", §V-A) the rank-based SVD beats the
        // nearest-AP scheme. At extreme spreads the server's homogeneity
        // assumption costs it that edge — an honest limitation the table
        // documents.
        for &(spread, svd, near) in rows.iter().take(2) {
            assert!(
                svd < near * 1.2,
                "at {spread} dB spread: svd {svd} vs nearest {near}"
            );
        }
        // Error grows with the spread (the assumption really is load-bearing).
        assert!(
            rows[3].1 > rows[0].1,
            "12 dB spread should hurt the SVD: {} vs {}",
            rows[3].1,
            rows[0].1
        );
    }

    #[test]
    fn renders_are_nonempty() {
        let rows = positioning_methods(Scale::Smoke, 11);
        assert!(render_methods(&rows).contains("SVD"));
    }

    #[test]
    fn svd_shrugs_off_model_mismatch() {
        let rows = model_mismatch(Scale::Smoke, 11);
        assert_eq!(rows.len(), 5);
        let svd_at = |n: f64| rows.iter().find(|r| (r.0 - n).abs() < 1e-9).unwrap().1;
        let tri_at = |n: f64| rows.iter().find(|r| (r.0 - n).abs() < 1e-9).unwrap().2;
        // Rank-based positioning is insensitive to the exponent (ranks are
        // invariant under monotone distance transforms) …
        let svd_spread = (svd_at(2.4) - svd_at(3.0))
            .abs()
            .max((svd_at(3.6) - svd_at(3.0)).abs());
        assert!(
            svd_spread <= svd_at(3.0) * 0.8 + 5.0,
            "SVD moved {svd_spread} m across the exponent sweep"
        );
        // … while trilateration visibly degrades away from n = 3.0.
        let tri_degradation = tri_at(2.4).max(tri_at(3.6)) / tri_at(3.0).max(1e-9);
        assert!(
            tri_degradation > 1.15,
            "trilateration should suffer from the mismatch: ratio {tri_degradation}"
        );
        assert!(render_mismatch(&rows).contains("exponent"));
    }

    #[test]
    fn hybrid_closes_the_coverage_gap() {
        let (wifi, hybrid, duty) = hybrid_gap(Scale::Smoke, 11);
        assert!(
            hybrid < wifi * 0.8,
            "hybrid {hybrid} m should beat WiFi-only {wifi} m through the gap"
        );
        assert!(duty > 0.0 && duty < 0.7, "GPS duty cycle {duty}");
        assert!(render_hybrid((wifi, hybrid, duty)).contains("duty"));
    }
}
