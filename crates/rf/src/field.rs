//! Mean signal fields: the contract between the channel and the SVD.

use wilocator_geo::{GridIndex, Point};

use crate::ap::{AccessPoint, ApId};
use crate::pathloss::{LogDistance, PathLoss};
use crate::shadowing::ShadowingField;
use crate::NOISE_FLOOR_DBM;

/// A deterministic mean-RSS field over a set of access points.
///
/// `expected_rss` must return the *mean* received signal strength (dBm) a
/// device at `p` would measure from `ap` — fast fading is added separately
/// per scan. The Signal Voronoi Diagram (Definition 1 of the paper) is the
/// partition of the plane induced by `argmax` over APs of this function.
pub trait SignalField: std::fmt::Debug + Send + Sync {
    /// The access points generating this field, indexable by [`ApId`].
    fn aps(&self) -> &[AccessPoint];

    /// Mean RSS (dBm) from `ap` at point `p`.
    fn expected_rss(&self, ap: &AccessPoint, p: Point) -> f64;

    /// Looks an AP up by id (ids are dense indices in this crate).
    fn ap(&self, id: ApId) -> Option<&AccessPoint> {
        self.aps().get(id.0 as usize)
    }

    /// All APs whose mean RSS at `p` exceeds `threshold_dbm`, strongest
    /// first, as `(ApId, rss)` pairs.
    fn detectable_at(&self, p: Point, threshold_dbm: f64) -> Vec<(ApId, f64)> {
        let mut out: Vec<(ApId, f64)> = self
            .aps()
            .iter()
            .map(|ap| (ap.id(), self.expected_rss(ap, p)))
            .filter(|&(_, rss)| rss >= threshold_dbm)
            .collect();
        // RSS values can be arbitrary field outputs; `total_cmp` orders
        // them without a panic path (NaN sorts below every number here,
        // i.e. weakest).
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }
}

/// Builds a bucket index over AP positions for radius queries.
///
/// Shared helper for scanners and the SVD rasteriser: both repeatedly ask
/// "which APs could possibly be heard here?".
pub fn ap_index(aps: &[AccessPoint], bucket_m: f64) -> GridIndex<ApId> {
    let mut idx = GridIndex::new(bucket_m);
    for ap in aps {
        idx.insert(ap.position(), ap.id());
    }
    idx
}

/// The server-side field: homogeneous propagation from geo-tags only.
///
/// This encodes the paper's §V-A assumption — the back end knows AP
/// positions (from Google Maps / Shaw Go WiFi geo-tags) but not their
/// transmit powers or environments, so it "simply regard\[s\] that all the
/// factors affecting signal propagation are the same for APs". APs without
/// a geo-tag are excluded, as in the paper.
///
/// # Examples
///
/// ```
/// use wilocator_geo::Point;
/// use wilocator_rf::{AccessPoint, ApId, HomogeneousField, SignalField};
///
/// let aps = vec![
///     AccessPoint::new(ApId(0), Point::new(0.0, 0.0)),
///     AccessPoint::new(ApId(1), Point::new(100.0, 0.0)),
/// ];
/// let field = HomogeneousField::new(aps);
/// // Close to AP0, it dominates.
/// let ranked = field.detectable_at(Point::new(10.0, 0.0), -90.0);
/// assert_eq!(ranked[0].0, ApId(0));
/// ```
#[derive(Debug, Clone)]
pub struct HomogeneousField {
    aps: Vec<AccessPoint>,
    model: LogDistance,
    assumed_tx_dbm: f64,
}

impl HomogeneousField {
    /// Creates the field with the default urban model and 20 dBm assumed
    /// transmit power. APs are indexable by id: `aps[i].id() == ApId(i)` is
    /// expected (the deployment generators uphold this).
    pub fn new(aps: Vec<AccessPoint>) -> Self {
        HomogeneousField {
            aps,
            model: LogDistance::urban(),
            assumed_tx_dbm: 20.0,
        }
    }

    /// Returns a copy of this field without the given APs — the paper's AP
    /// dynamics scenario ("suppose that the AP b is out of function").
    pub fn without_aps(&self, dead: &[ApId]) -> HomogeneousField {
        let mut f = self.clone();
        f.aps.retain(|ap| !dead.contains(&ap.id()));
        f
    }
}

impl SignalField for HomogeneousField {
    fn aps(&self) -> &[AccessPoint] {
        &self.aps
    }

    fn ap(&self, id: ApId) -> Option<&AccessPoint> {
        // Ids may be sparse after `without_aps`; fall back to a scan.
        self.aps
            .get(id.0 as usize)
            .filter(|ap| ap.id() == id)
            .or_else(|| self.aps.iter().find(|ap| ap.id() == id))
    }

    fn expected_rss(&self, ap: &AccessPoint, p: Point) -> f64 {
        if !ap.is_geo_tagged() {
            return NOISE_FLOOR_DBM - 100.0;
        }
        self.model
            .rss_dbm(self.assumed_tx_dbm, ap.position().distance(p))
    }
}

/// The simulator-side ground-truth field: per-AP transmit power, an
/// arbitrary path-loss model and correlated shadowing.
///
/// The mean channel a real phone experiences; [`crate::Scanner`] adds fast
/// fading and quantisation on top.
#[derive(Debug, Clone)]
pub struct PhysicalField<M: PathLoss = LogDistance> {
    aps: Vec<AccessPoint>,
    model: M,
    shadowing: ShadowingField,
}

impl<M: PathLoss> PhysicalField<M> {
    /// Creates the ground-truth field.
    pub fn new(aps: Vec<AccessPoint>, model: M, shadowing: ShadowingField) -> Self {
        PhysicalField {
            aps,
            model,
            shadowing,
        }
    }

    /// The shadowing component.
    pub fn shadowing(&self) -> &ShadowingField {
        &self.shadowing
    }

    /// The path-loss model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Returns a copy of this field without the given APs (AP churn).
    pub fn without_aps(&self, dead: &[ApId]) -> PhysicalField<M>
    where
        M: Clone,
    {
        let mut f = self.clone();
        f.aps.retain(|ap| !dead.contains(&ap.id()));
        f
    }
}

impl<M: PathLoss> SignalField for PhysicalField<M> {
    fn aps(&self) -> &[AccessPoint] {
        &self.aps
    }

    fn ap(&self, id: ApId) -> Option<&AccessPoint> {
        self.aps
            .get(id.0 as usize)
            .filter(|ap| ap.id() == id)
            .or_else(|| self.aps.iter().find(|ap| ap.id() == id))
    }

    fn expected_rss(&self, ap: &AccessPoint, p: Point) -> f64 {
        self.model
            .rss_dbm(ap.tx_power_dbm(), ap.position().distance(p))
            + self.shadowing.shadow_db(ap.id(), p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_aps() -> Vec<AccessPoint> {
        vec![
            AccessPoint::new(ApId(0), Point::new(0.0, 0.0)),
            AccessPoint::new(ApId(1), Point::new(100.0, 0.0)),
        ]
    }

    #[test]
    fn homogeneous_nearest_ap_dominates() {
        let f = HomogeneousField::new(two_aps());
        let near0 = f.detectable_at(Point::new(20.0, 0.0), -200.0);
        assert_eq!(near0[0].0, ApId(0));
        let near1 = f.detectable_at(Point::new(80.0, 0.0), -200.0);
        assert_eq!(near1[0].0, ApId(1));
    }

    #[test]
    fn homogeneous_midpoint_is_a_tie() {
        let f = HomogeneousField::new(two_aps());
        let mid = Point::new(50.0, 0.0);
        let a = f.expected_rss(&f.aps()[0], mid);
        let b = f.expected_rss(&f.aps()[1], mid);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn non_geo_tagged_ap_is_ignored_by_server_field() {
        let mut aps = two_aps();
        aps[1] = aps[1].clone().without_geo_tag();
        let f = HomogeneousField::new(aps);
        let ranked = f.detectable_at(Point::new(80.0, 0.0), -90.0);
        assert!(ranked.iter().all(|&(id, _)| id == ApId(0)));
    }

    #[test]
    fn detectable_is_sorted_desc() {
        let f = HomogeneousField::new(two_aps());
        let ranked = f.detectable_at(Point::new(30.0, 5.0), -200.0);
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn threshold_filters() {
        let f = HomogeneousField::new(two_aps());
        // 20 dBm − 40 − 30·log10(d): at d = 400 m RSS ≈ −98 dBm.
        let ranked = f.detectable_at(Point::new(500.0, 0.0), -90.0);
        assert!(ranked.is_empty());
    }

    #[test]
    fn without_aps_removes_site() {
        let f = HomogeneousField::new(two_aps()).without_aps(&[ApId(0)]);
        assert_eq!(f.aps().len(), 1);
        assert_eq!(f.ap(ApId(1)).unwrap().id(), ApId(1));
        assert!(f.ap(ApId(0)).is_none());
    }

    #[test]
    fn physical_field_heterogeneous_power_shifts_dominance() {
        let mut aps = two_aps();
        aps[1] = aps[1].clone().with_tx_power_dbm(35.0); // hot AP
        let f = PhysicalField::new(aps, LogDistance::urban(), ShadowingField::disabled());
        // Midpoint now clearly favours the hot AP — the case where the true
        // SVD differs from the Euclidean VD.
        let mid = Point::new(50.0, 0.0);
        let ranked = f.detectable_at(mid, -200.0);
        assert_eq!(ranked[0].0, ApId(1));
    }

    #[test]
    fn physical_field_includes_shadowing() {
        let aps = two_aps();
        let with = PhysicalField::new(
            aps.clone(),
            LogDistance::urban(),
            ShadowingField::new(8.0, 50.0, 3),
        );
        let without = PhysicalField::new(aps, LogDistance::urban(), ShadowingField::disabled());
        let p = Point::new(33.0, 12.0);
        let a = with.expected_rss(&with.aps()[0], p);
        let b = without.expected_rss(&without.aps()[0], p);
        assert_ne!(a, b);
    }

    #[test]
    fn ap_index_radius_query() {
        let idx = ap_index(&two_aps(), 50.0);
        let near: Vec<_> = idx.within(Point::new(10.0, 0.0), 30.0).collect();
        assert_eq!(near.len(), 1);
        assert_eq!(*near[0].2, ApId(0));
    }
}
