#include "demand/population.h"

#include <algorithm>
#include <cmath>

#include "demand/cities.h"
#include "util/angles.h"

namespace ssplane::demand {

namespace {

constexpr double cell_deg = 0.5; ///< Grid resolution (matches SEDAC).

/// Add one city as a Gaussian splat conserving its total population.
void splat_city(geo::lat_lon_grid& grid, const city& c)
{
    const double sigma = c.spread_deg;
    const double cell = grid.cell_deg();
    // Beyond 4 sigma the kernel is negligible, but always reach the
    // neighboring cell centers so coarse grids keep the city's full mass.
    const double reach = std::max(4.0 * sigma, cell);

    const double lat_lo = clamp(c.latitude_deg - reach, -90.0, 90.0);
    const double lat_hi = clamp(c.latitude_deg + reach, -90.0, 90.0);
    const std::size_t row_lo = grid.row_of_latitude(lat_lo);
    const std::size_t row_hi = grid.row_of_latitude(lat_hi);

    // Longitude reach widens toward the poles.
    const double cos_lat = std::max(0.05, std::cos(deg2rad(c.latitude_deg)));
    const double lon_reach = std::min(180.0, reach / cos_lat);

    struct target {
        std::size_t row;
        std::size_t col;
        double weight;
    };
    std::vector<target> targets;
    double weight_sum = 0.0;

    for (std::size_t r = row_lo; r <= row_hi; ++r) {
        const double lat = grid.latitude_center_deg(r);
        const double area = grid.cell_area_km2(r);
        const int n_lon_cells = static_cast<int>(std::ceil(lon_reach / cell));
        const std::size_t center_col = grid.col_of_longitude(c.longitude_deg);
        for (int dc = -n_lon_cells; dc <= n_lon_cells; ++dc) {
            const std::size_t col =
                (center_col + static_cast<std::size_t>(dc + static_cast<int>(grid.n_lon()))) %
                grid.n_lon();
            const double lon = grid.longitude_center_deg(col);
            // Local-flat angular distance with longitude convergence.
            const double dlat = lat - c.latitude_deg;
            const double dlon = wrap_deg_180(lon - c.longitude_deg) * cos_lat;
            const double d2 = dlat * dlat + dlon * dlon;
            if (d2 > reach * reach) continue;
            const double w = std::exp(-d2 / (2.0 * sigma * sigma)) * area;
            targets.push_back({r, col, w});
            weight_sum += w;
        }
    }
    if (weight_sum <= 0.0) return;

    for (const auto& t : targets) {
        const double cell_population = c.population * t.weight / weight_sum;
        grid.field()(t.row, t.col) += cell_population / grid.cell_area_km2(t.row);
    }
}

void fill_region(geo::lat_lon_grid& grid, const region_density& region)
{
    const std::size_t row_lo = grid.row_of_latitude(region.lat_min_deg);
    const std::size_t row_hi = grid.row_of_latitude(region.lat_max_deg);
    for (std::size_t r = row_lo; r <= row_hi; ++r) {
        const double lat = grid.latitude_center_deg(r);
        if (lat < region.lat_min_deg || lat > region.lat_max_deg) continue;
        for (std::size_t c = 0; c < grid.n_lon(); ++c) {
            const double lon = grid.longitude_center_deg(c);
            if (lon < region.lon_min_deg || lon > region.lon_max_deg) continue;
            grid.field()(r, c) += region.density_per_km2;
        }
    }
}

} // namespace

population_model::population_model() : grid_(cell_deg)
{
    for (const auto& region : background_regions()) fill_region(grid_, region);
    for (const auto& c : world_cities()) splat_city(grid_, c);

    for (std::size_t r = 0; r < grid_.n_lat(); ++r) {
        const double area = grid_.cell_area_km2(r);
        for (std::size_t c = 0; c < grid_.n_lon(); ++c)
            total_population_ += grid_.field()(r, c) * area;
    }
    max_by_latitude_ = grid_.max_over_longitude();
}

double population_model::density_at(double latitude_deg, double longitude_deg) const
{
    return grid_.field()(grid_.row_of_latitude(latitude_deg),
                         grid_.col_of_longitude(longitude_deg));
}

std::vector<double> population_model::latitude_centers_deg() const
{
    std::vector<double> lats(grid_.n_lat());
    for (std::size_t r = 0; r < grid_.n_lat(); ++r) lats[r] = grid_.latitude_center_deg(r);
    return lats;
}

} // namespace ssplane::demand
