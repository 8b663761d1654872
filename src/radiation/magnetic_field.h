// Offset tilted dipole model of the geomagnetic field.
//
// The trapped-particle structure the paper's survivability argument rests on
// (inner/outer Van Allen belts, South Atlantic Anomaly) is organized by the
// dipole geometry: flux is ordered by the McIlwain L-shell and the local
// field strength B. Using the epoch-2015 *eccentric* dipole (axis tilted
// ~9.7°, center displaced ~570 km toward the western Pacific) makes the SAA
// emerge naturally over South America where the field is weakest at fixed
// altitude.
#ifndef SSPLANE_RADIATION_MAGNETIC_FIELD_H
#define SSPLANE_RADIATION_MAGNETIC_FIELD_H

#include "util/vec3.h"

namespace ssplane::radiation {

/// Dipole coordinates of a point, used to order trapped-particle flux.
struct magnetic_coordinates {
    double l_shell = 0.0;            ///< McIlwain L [Earth radii].
    double field_t = 0.0;            ///< Local field magnitude B [tesla].
    double equatorial_field_t = 0.0; ///< B0/L^3: field at the shell's equator [tesla].
    double magnetic_latitude_rad = 0.0; ///< Dipole magnetic latitude [rad].

    /// B/B0 along the field line (>= 1); large values mean the point sits
    /// far down the line toward the mirror regions.
    double b_over_b0() const noexcept
    {
        return equatorial_field_t > 0.0 ? field_t / equatorial_field_t : 0.0;
    }
};

/// Eccentric (offset, tilted) dipole field in Earth-fixed coordinates.
class dipole_model {
public:
    /// Epoch-2015-like eccentric dipole (IGRF-derived approximation).
    static dipole_model eccentric_2015();

    /// Construct from explicit parameters.
    /// `north_pole_lat/lon` locate the *geomagnetic north pole* (axis), and
    /// `center_offset_m` displaces the dipole center (ECEF meters).
    dipole_model(double surface_equatorial_field_t,
                 double north_pole_latitude_deg,
                 double north_pole_longitude_deg,
                 const vec3& center_offset_m);

    /// Dipole coordinates (L, B, B0, magnetic latitude) of an ECEF position.
    magnetic_coordinates coordinates_at(const vec3& r_ecef_m) const noexcept;

    /// Reference equatorial surface field strength [tesla].
    double surface_equatorial_field_t() const noexcept { return b0_; }

    /// Dipole center offset from the Earth's center [m, ECEF].
    const vec3& center_offset_m() const noexcept { return offset_m_; }

private:
    double b0_;
    vec3 axis_;
    vec3 offset_m_;
};

} // namespace ssplane::radiation

#endif // SSPLANE_RADIATION_MAGNETIC_FIELD_H
