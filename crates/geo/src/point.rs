//! Great-circle geodesy on a spherical Earth.
//!
//! A sphere (rather than the WGS-84 ellipsoid) is accurate to ~0.5 % for
//! distance, which is far below the path-inflation uncertainty of any
//! Internet latency model, and keeps the math dependency-free.

/// Mean Earth radius in kilometres (IUGG mean radius R1).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A point on the Earth's surface, in decimal degrees.
///
/// Latitude is clamped to `[-90, 90]`; longitude is normalised to
/// `(-180, 180]` on construction so that every `GeoPoint` is in canonical
/// form and comparisons behave predictably.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in decimal degrees, positive north.
    pub lat: f64,
    /// Longitude in decimal degrees, positive east.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point, clamping latitude and wrapping longitude into
    /// canonical range.
    ///
    /// ```
    /// use shears_geo::GeoPoint;
    /// let p = GeoPoint::new(95.0, 200.0);
    /// assert_eq!(p.lat, 90.0);
    /// assert_eq!(p.lon, -160.0);
    /// ```
    pub fn new(lat: f64, lon: f64) -> Self {
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = (lon + 180.0).rem_euclid(360.0) - 180.0;
        if lon == -180.0 {
            lon = 180.0;
        }
        Self { lat, lon }
    }

    /// Latitude in radians.
    #[inline]
    pub fn lat_rad(self) -> f64 {
        self.lat.to_radians()
    }

    /// Longitude in radians.
    #[inline]
    pub fn lon_rad(self) -> f64 {
        self.lon.to_radians()
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    ///
    /// The haversine form is numerically stable for small distances, which
    /// matters here: probe-to-PoP hops are often only a few kilometres.
    pub fn distance_km(self, other: GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat_rad(), self.lon_rad());
        let (lat2, lon2) = (other.lat_rad(), other.lon_rad());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// Initial bearing from `self` towards `other`, in degrees `[0, 360)`.
    pub fn initial_bearing_deg(self, other: GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat_rad(), self.lon_rad());
        let (lat2, lon2) = (other.lat_rad(), other.lon_rad());
        let dlon = lon2 - lon1;
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        (y.atan2(x).to_degrees() + 360.0) % 360.0
    }

    /// The point reached by travelling `distance_km` along the great
    /// circle with the given initial `bearing_deg`.
    pub fn destination(self, bearing_deg: f64, distance_km: f64) -> GeoPoint {
        let delta = distance_km / EARTH_RADIUS_KM;
        let theta = bearing_deg.to_radians();
        let lat1 = self.lat_rad();
        let lon1 = self.lon_rad();
        let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
        let lon2 = lon1
            + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
        GeoPoint::new(lat2.to_degrees(), lon2.to_degrees())
    }

    /// The midpoint of the great-circle segment between `self` and `other`.
    pub fn midpoint(self, other: GeoPoint) -> GeoPoint {
        let (lat1, lon1) = (self.lat_rad(), self.lon_rad());
        let (lat2, lon2) = (other.lat_rad(), other.lon_rad());
        let bx = lat2.cos() * (lon2 - lon1).cos();
        let by = lat2.cos() * (lon2 - lon1).sin();
        let lat3 = (lat1.sin() + lat2.sin()).atan2(((lat1.cos() + bx).powi(2) + by.powi(2)).sqrt());
        let lon3 = lon1 + by.atan2(lat1.cos() + bx);
        GeoPoint::new(lat3.to_degrees(), lon3.to_degrees())
    }

    /// The antipode (diametrically opposite point).
    pub fn antipode(self) -> GeoPoint {
        GeoPoint::new(-self.lat, self.lon + 180.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn canonicalises_longitude() {
        assert_eq!(GeoPoint::new(0.0, 540.0).lon, 180.0);
        assert_eq!(GeoPoint::new(0.0, -540.0).lon, 180.0);
        assert_eq!(GeoPoint::new(0.0, -180.0).lon, 180.0);
        assert_eq!(GeoPoint::new(0.0, 181.0).lon, -179.0);
    }

    #[test]
    fn known_distance_london_paris() {
        let london = GeoPoint::new(51.5074, -0.1278);
        let paris = GeoPoint::new(48.8566, 2.3522);
        let d = london.distance_km(paris);
        assert!(close(d, 343.5, 2.0), "d = {d}");
    }

    #[test]
    fn known_distance_sfo_syd() {
        let sfo = GeoPoint::new(37.6188, -122.3756);
        let syd = GeoPoint::new(-33.9399, 151.1753);
        let d = sfo.distance_km(syd);
        assert!(close(d, 11_934.0, 30.0), "d = {d}");
    }

    #[test]
    fn distance_is_symmetric() {
        let a = GeoPoint::new(12.3, 45.6);
        let b = GeoPoint::new(-33.0, 151.0);
        assert!(close(a.distance_km(b), b.distance_km(a), 1e-9));
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = GeoPoint::new(60.0, 25.0);
        assert_eq!(a.distance_km(a), 0.0);
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        let a = GeoPoint::new(10.0, 20.0);
        let d = a.distance_km(a.antipode());
        assert!(
            close(d, std::f64::consts::PI * EARTH_RADIUS_KM, 0.5),
            "d = {d}"
        );
    }

    #[test]
    fn bearing_due_east_on_equator() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 10.0);
        assert!(close(a.initial_bearing_deg(b), 90.0, 1e-9));
        assert!(close(b.initial_bearing_deg(a), 270.0, 1e-9));
    }

    #[test]
    fn destination_round_trips_distance() {
        let start = GeoPoint::new(48.0, 11.0);
        for bearing in [0.0, 45.0, 137.0, 210.5, 359.0] {
            for dist in [0.5, 10.0, 500.0, 4000.0] {
                let end = start.destination(bearing, dist);
                let back = start.distance_km(end);
                assert!(
                    close(back, dist, 1e-6 * dist.max(1.0)),
                    "b={bearing} d={dist} got {back}"
                );
            }
        }
    }

    #[test]
    fn midpoint_is_equidistant() {
        let a = GeoPoint::new(51.5, -0.1);
        let b = GeoPoint::new(40.7, -74.0);
        let m = a.midpoint(b);
        assert!(close(a.distance_km(m), b.distance_km(m), 1e-6));
    }
}
