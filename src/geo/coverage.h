// Single-satellite coverage geometry.
//
// A satellite at altitude h covers a ground point when the point sees it
// above a minimum elevation angle ε. The equivalent Earth-central half-angle
// of the footprint is
//     η = asin( Re·cos ε / (Re + h) )     (nadir half-angle)
//     λ = π/2 − ε − η                     (Earth-central half-angle)
// which is the quantity every sizing computation in the library uses.
#ifndef SSPLANE_GEO_COVERAGE_H
#define SSPLANE_GEO_COVERAGE_H

namespace ssplane::geo {

/// The paper's 30° minimum elevation for user coverage [rad], the default of
/// every design, sizing and sweep that takes one.
inline constexpr double default_min_elevation_rad = 0.5235987755982988;

/// Derived coverage geometry for one altitude / min-elevation pair.
struct coverage_geometry {
    double altitude_m = 0.0;
    double min_elevation_rad = 0.0;
    double earth_central_half_angle_rad = 0.0; ///< λ: footprint angular radius.
    double nadir_half_angle_rad = 0.0;         ///< η: cone half-angle at the satellite.
    double slant_range_m = 0.0;                ///< Range to the footprint edge.
    double footprint_area_fraction = 0.0;      ///< Footprint area / Earth area.

    /// Compute the geometry. Requires altitude_m > 0 and ε in [0, π/2).
    static coverage_geometry from(double altitude_m, double min_elevation_rad);
};

/// Street-of-coverage half-width [rad] for a plane of `sats_per_plane`
/// equally spaced satellites with footprint half-angle `lambda_rad`:
///     cos λ = cos c · cos(π/S)  =>  c = acos(cos λ / cos(π/S)).
/// Returns 0 when S is too small to close the street (π/S ≥ λ).
double street_half_width_rad(double lambda_rad, int sats_per_plane) noexcept;

/// Smallest number of equally spaced satellites for which a plane forms a
/// continuous street (π/S < λ).
int min_sats_for_street(double lambda_rad) noexcept;

} // namespace ssplane::geo

#endif // SSPLANE_GEO_COVERAGE_H
