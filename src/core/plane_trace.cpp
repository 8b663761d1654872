#include "core/plane_trace.h"

#include <cmath>

#include "util/angles.h"
#include "util/expects.h"

namespace ssplane::core {

vec3 plane_normal(double inclination_rad, double ltan_h) noexcept
{
    const double theta0 = hours2rad(ltan_h - 12.0);
    const double si = std::sin(inclination_rad);
    return {si * std::sin(theta0), -si * std::cos(theta0), std::cos(inclination_rad)};
}

std::vector<std::uint8_t> plane_coverage_mask(const geo::lat_tod_grid& grid,
                                              double inclination_rad,
                                              double ltan_h,
                                              double street_half_width_rad)
{
    const sun_frame_table table(grid);
    std::vector<std::uint8_t> mask;
    table.coverage_mask(inclination_rad, ltan_h, street_half_width_rad, mask);
    return mask;
}

sun_frame_table::sun_frame_table(const geo::lat_tod_grid& grid)
{
    cos_lat_.resize(grid.n_lat());
    sin_lat_.resize(grid.n_lat());
    for (std::size_t r = 0; r < grid.n_lat(); ++r) {
        const double lat = deg2rad(grid.latitude_center_deg(r));
        cos_lat_[r] = std::cos(lat);
        sin_lat_[r] = std::sin(lat);
    }
    cos_tod_.resize(grid.n_tod());
    sin_tod_.resize(grid.n_tod());
    for (std::size_t c = 0; c < grid.n_tod(); ++c) {
        const double theta = hours2rad(grid.tod_center_h(c) - 12.0);
        cos_tod_[c] = std::cos(theta);
        sin_tod_[c] = std::sin(theta);
    }
}

void sun_frame_table::coverage_mask(double inclination_rad, double ltan_h,
                                    double street_half_width_rad,
                                    std::vector<std::uint8_t>& mask) const
{
    const vec3 n = plane_normal(inclination_rad, ltan_h);
    const double sin_c = std::sin(street_half_width_rad);

    mask.assign(n_lat() * n_tod(), 0);
    for (std::size_t r = 0; r < n_lat(); ++r) {
        const double cl = cos_lat_[r];
        const double sl = sin_lat_[r];
        std::uint8_t* row = mask.data() + r * n_tod();
        for (std::size_t c = 0; c < n_tod(); ++c) {
            // Same products and summation order as n.dot(P) with P the
            // cell's unit vector (cos lat cos θ, cos lat sin θ, sin lat).
            const double dot =
                n.x * (cl * cos_tod_[c]) + n.y * (cl * sin_tod_[c]) + n.z * sl;
            if (std::abs(dot) <= sin_c) row[c] = 1;
        }
    }
}

ltan_solutions ltan_through(double inclination_rad, double latitude_deg, double tod_h)
{
    ltan_solutions out;
    const double si = std::sin(inclination_rad);
    const double ci = std::cos(inclination_rad);
    const double sin_lat = std::sin(deg2rad(latitude_deg));
    if (std::abs(si) < 1e-12) return out;
    const double sin_u = sin_lat / si;
    if (sin_u < -1.0 || sin_u > 1.0) return out; // latitude unreachable

    const double u_asc = std::asin(sin_u); // ascending branch, u in [-pi/2, pi/2]
    const double u_desc = pi - u_asc;      // descending branch

    const auto ltan_for = [&](double u) {
        const double dtheta = std::atan2(ci * std::sin(u), std::cos(u));
        return wrap_hours_24(tod_h - rad2hours(dtheta));
    };
    out.ascending = ltan_for(u_asc);
    out.descending = ltan_for(u_desc);
    return out;
}

} // namespace ssplane::core
