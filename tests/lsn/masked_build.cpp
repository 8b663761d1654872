#include "masked_build.h"

#include "astro/constants.h"
#include "astro/frames.h"

namespace ssplane::lsn {

network_snapshot masked_build(const lsn_topology& topology,
                              const std::vector<ground_station>& stations,
                              double min_elevation_rad, double max_isl_range_m,
                              const std::vector<vec3>& sat_positions_ecef,
                              std::span<const std::uint8_t> failed)
{
    const int n_satellites = static_cast<int>(topology.satellites.size());
    const int n_ground = static_cast<int>(stations.size());
    const auto is_failed = [&](int s) {
        return !failed.empty() && failed[static_cast<std::size_t>(s)] != 0;
    };

    std::vector<network_snapshot::link> links;
    for (const auto& link : topology.links) {
        if (is_failed(link.a) || is_failed(link.b)) continue;
        const double d = (sat_positions_ecef[static_cast<std::size_t>(link.a)] -
                          sat_positions_ecef[static_cast<std::size_t>(link.b)]).norm();
        if (d <= max_isl_range_m)
            links.push_back({link.a, link.b, d / astro::speed_of_light_m_s});
    }
    for (int g = 0; g < n_ground; ++g) {
        const auto& station = stations[static_cast<std::size_t>(g)];
        const vec3 site =
            astro::geodetic_to_ecef({station.latitude_deg, station.longitude_deg, 0.0});
        for (int s = 0; s < n_satellites; ++s) {
            if (is_failed(s)) continue;
            const vec3& sat = sat_positions_ecef[static_cast<std::size_t>(s)];
            if (astro::elevation_angle_rad(site, sat) >= min_elevation_rad)
                links.push_back({s, n_satellites + g,
                                 (sat - site).norm() / astro::speed_of_light_m_s});
        }
    }
    return make_network_snapshot(n_satellites, n_ground, std::move(links));
}

} // namespace ssplane::lsn
