// Gridded world population density model (SEDAC substitute).
//
// Rasterizes the embedded gazetteer onto an equal-angle grid: each city is
// a Gaussian splat whose total mass equals its metro population; each
// background region contributes its mean density. The result is queried
// exactly like the SEDAC product the paper uses: a people/km^2 field on a
// 0.5° grid plus the max-density-per-latitude profile (paper Fig. 3).
#ifndef SSPLANE_DEMAND_POPULATION_H
#define SSPLANE_DEMAND_POPULATION_H

#include <vector>

#include "geo/grid.h"

namespace ssplane::demand {

/// Gridded population density [people/km^2] on the 0.5° grid of SEDAC.
class population_model {
public:
    population_model();

    const geo::lat_lon_grid& density() const noexcept { return grid_; }

    /// Sum of density x cell-area over the grid [people].
    double total_population() const noexcept { return total_population_; }

    /// Density of the cell containing (lat, lon) [people/km^2].
    double density_at(double latitude_deg, double longitude_deg) const;

    /// Max density over all longitudes for each latitude band — the exact
    /// reduction plotted in paper Fig. 3.
    const std::vector<double>& max_density_by_latitude() const noexcept
    {
        return max_by_latitude_;
    }

    /// Latitude band centers matching max_density_by_latitude().
    std::vector<double> latitude_centers_deg() const;

private:
    geo::lat_lon_grid grid_;
    std::vector<double> max_by_latitude_;
    double total_population_ = 0.0;
};

} // namespace ssplane::demand

#endif // SSPLANE_DEMAND_POPULATION_H
