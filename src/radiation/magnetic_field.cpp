#include "radiation/magnetic_field.h"

#include <cmath>

#include "astro/constants.h"
#include "geo/geodesy.h"
#include "util/angles.h"

namespace ssplane::radiation {

namespace {
// Reference radius for dipole normalization: the mean Earth radius, so that
// L = 1 corresponds to the field line grazing the surface at the equator.
constexpr double reference_radius_m = astro::earth_mean_radius_m;
} // namespace

dipole_model dipole_model::eccentric_2015()
{
    // IGRF-2015-like eccentric dipole: surface equatorial field ~29.9 uT,
    // geomagnetic north pole near (80.4 N, 72.6 W), center displaced ~570 km
    // toward ~(22 N, 140 E). The displacement puts the weak-field region
    // (and hence the SAA flux maximum) over South America / South Atlantic.
    const vec3 offset_direction = geo::to_unit_vector(22.0, 140.0);
    return dipole_model(2.99e-5, 80.4, -72.6, offset_direction * 570.0e3);
}

dipole_model::dipole_model(double surface_equatorial_field_t,
                           double north_pole_latitude_deg,
                           double north_pole_longitude_deg,
                           const vec3& center_offset_m)
    : b0_(surface_equatorial_field_t),
      axis_(geo::to_unit_vector(north_pole_latitude_deg, north_pole_longitude_deg)),
      offset_m_(center_offset_m)
{
}

magnetic_coordinates dipole_model::coordinates_at(const vec3& r_ecef_m) const noexcept
{
    const vec3 rel = r_ecef_m - offset_m_;
    const double r = rel.norm();
    magnetic_coordinates mc;
    if (r <= 0.0) return mc;

    // Magnetic latitude: angle from the dipole's magnetic equator plane.
    const double sin_maglat = clamp(rel.dot(axis_) / r, -1.0, 1.0);
    mc.magnetic_latitude_rad = std::asin(sin_maglat);

    const double cos2 = 1.0 - sin_maglat * sin_maglat;
    const double r_re = r / reference_radius_m;
    mc.l_shell = cos2 > 1e-12 ? r_re / cos2 : 1e12;

    // |B| for a dipole: (B0/(r/Re)^3) * sqrt(1 + 3 sin^2(maglat)).
    mc.field_t = b0_ / (r_re * r_re * r_re) *
                 std::sqrt(1.0 + 3.0 * sin_maglat * sin_maglat);
    const double l3 = mc.l_shell * mc.l_shell * mc.l_shell;
    mc.equatorial_field_t = b0_ / l3;
    return mc;
}

} // namespace ssplane::radiation
