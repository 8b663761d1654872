// Geometry of an SS-plane on the sun-relative (latitude × time-of-day) grid.
//
// In the sun-fixed rotating frame, a sun-synchronous orbit is a *fixed*
// great circle (its node precesses exactly with the mean sun). We map
// (latitude φ, time-of-day τ) to a unit sphere with the noon meridian at
// sun-frame longitude 0 (θ = (τ − 12h)·15°/h). A plane with local time of
// ascending node `ltan` and inclination i then has orbit normal
//     n̂ = (sin i · sin θ0, −sin i · cos θ0, cos i),  θ0 = (ltan − 12)·15°,
// and a grid point P is within the plane's street of half-width c iff
// |n̂ · P̂| ≤ sin c.
#ifndef SSPLANE_CORE_PLANE_TRACE_H
#define SSPLANE_CORE_PLANE_TRACE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "geo/grid.h"
#include "util/vec3.h"

namespace ssplane::core {

/// Orbit normal of an SS-plane in the sun-relative frame.
vec3 plane_normal(double inclination_rad, double ltan_h) noexcept;

/// Boolean mask (1 = covered) over `grid` cells within street half-width
/// `street_half_width_rad` of the plane's great circle.
std::vector<std::uint8_t> plane_coverage_mask(const geo::lat_tod_grid& grid,
                                              double inclination_rad,
                                              double ltan_h,
                                              double street_half_width_rad);

/// Precomputed per-row/per-column trigonometry of a lat x tod grid.
///
/// Building a coverage mask only needs cos/sin of each latitude row and each
/// time-of-day column; caching them turns the per-cell work into five
/// multiplies, bit-identical to n̂ · P̂ with P̂ built per cell (the test-side
/// reference, `CoverageMask.SunFrameTableMatchesDirectMask`).
/// Build one per grid and reuse it for every plane evaluated on that grid
/// (the greedy designer's hot loop).
class sun_frame_table {
public:
    explicit sun_frame_table(const geo::lat_tod_grid& grid);

    std::size_t n_lat() const noexcept { return cos_lat_.size(); }
    std::size_t n_tod() const noexcept { return cos_tod_.size(); }

    /// Fill `mask` with the plane_coverage_mask of this grid (resized to
    /// n_lat x n_tod, row-major).
    void coverage_mask(double inclination_rad, double ltan_h,
                       double street_half_width_rad,
                       std::vector<std::uint8_t>& mask) const;

private:
    std::vector<double> cos_lat_;
    std::vector<double> sin_lat_;
    std::vector<double> cos_tod_;
    std::vector<double> sin_tod_;
};

/// LTANs of the planes whose ascending (resp. descending) branch passes
/// through the point (latitude, tod). Empty when |latitude| exceeds the
/// plane's maximum reachable latitude.
struct ltan_solutions {
    std::optional<double> ascending;
    std::optional<double> descending;
};
ltan_solutions ltan_through(double inclination_rad, double latitude_deg, double tod_h);

} // namespace ssplane::core

#endif // SSPLANE_CORE_PLANE_TRACE_H
