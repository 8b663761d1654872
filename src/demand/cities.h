// Embedded world population gazetteer.
//
// Substitute for the SEDAC Gridded World Population dataset used by the
// paper (see DESIGN.md): ~240 metropolitan areas (approximate 2020s metro
// populations and footprint spreads) plus coarse continental background
// densities. The population model rasterizes these onto the same 0.5° grid
// SEDAC uses; the load-bearing feature — the max-density-per-latitude
// profile of paper Fig. 3 — is reproduced by the gazetteer.
#ifndef SSPLANE_DEMAND_CITIES_H
#define SSPLANE_DEMAND_CITIES_H

#include <span>
#include <vector>

namespace ssplane::demand {

/// One metropolitan area, modeled as a Gaussian population splat.
struct city {
    const char* name;
    double latitude_deg;
    double longitude_deg;
    double population;   ///< Metro population [people].
    double spread_deg;   ///< Gaussian sigma of the footprint [degrees].
};

/// The built-in gazetteer, ordered roughly by region.
std::span<const city> world_cities() noexcept;

/// The `n` most populous gazetteer metros, greedily filtered so no two
/// picks are closer than 5° of great-circle arc — one gateway per
/// conurbation instead of five in the Pearl River Delta. Ordered by
/// descending population; n must be positive and the filtered gazetteer
/// must be able to supply n cities.
std::vector<city> top_cities(int n);

/// A coarse rural/suburban background density over a lat/lon box.
struct region_density {
    const char* name;
    double lat_min_deg;
    double lat_max_deg;
    double lon_min_deg;
    double lon_max_deg;
    double density_per_km2; ///< Mean population density of the box [people/km^2].
};

/// Background continental regions (very coarse land approximation).
std::span<const region_density> background_regions() noexcept;

} // namespace ssplane::demand

#endif // SSPLANE_DEMAND_CITIES_H
