#include "demand/population.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "demand/cities.h"

namespace ssplane::demand {
namespace {

const population_model& shared_model()
{
    static const population_model model;
    return model;
}

TEST(Population, TotalNearWorldPopulation)
{
    EXPECT_GT(shared_model().total_population(), 7.0e9);
    EXPECT_LT(shared_model().total_population(), 9.0e9);
}

TEST(Population, PeakDensityMatchesSedacScale)
{
    // SEDAC 0.5-degree max density is ~6,000-7,000 people/km^2 (Dhaka).
    const double peak = shared_model().density().field().max_value();
    EXPECT_GT(peak, 4500.0);
    EXPECT_LT(peak, 9000.0);
}

TEST(Population, PeakLatitudeNearSouthAsia)
{
    // Paper Fig. 3: the max-by-latitude profile peaks near 24 N.
    const auto& profile = shared_model().max_density_by_latitude();
    const auto it = std::max_element(profile.begin(), profile.end());
    const std::size_t row = static_cast<std::size_t>(it - profile.begin());
    const double lat = shared_model().density().latitude_center_deg(row);
    EXPECT_GT(lat, 18.0);
    EXPECT_LT(lat, 32.0);
}

TEST(Population, PolesAreEmpty)
{
    EXPECT_LT(shared_model().density_at(89.0, 0.0), 1e-6);
    EXPECT_LT(shared_model().density_at(-89.0, 100.0), 1e-6);
    EXPECT_LT(shared_model().density_at(-70.0, 0.0), 1e-6); // Antarctica
}

TEST(Population, KnownCitiesAreDense)
{
    // Megacity cells should be far denser than the ocean.
    EXPECT_GT(shared_model().density_at(23.81, 90.41), 2000.0); // Dhaka
    EXPECT_GT(shared_model().density_at(35.69, 139.69), 1000.0); // Tokyo
    EXPECT_GT(shared_model().density_at(40.71, -74.01), 500.0);  // New York
    // Mid-Pacific is nearly empty.
    EXPECT_LT(shared_model().density_at(0.0, -140.0), 1.0);
}

TEST(Population, ProfileOrderOfLatitudes)
{
    const auto& model = shared_model();
    // Northern mid-latitudes dominate southern high latitudes.
    const auto& profile = model.max_density_by_latitude();
    const auto density_at_lat = [&](double lat) {
        return profile[model.density().row_of_latitude(lat)];
    };
    EXPECT_GT(density_at_lat(24.0), density_at_lat(-45.0));
    EXPECT_GT(density_at_lat(31.0), density_at_lat(62.0));
    EXPECT_GT(density_at_lat(-23.5), 500.0); // Sao Paulo band
}

TEST(Population, LatitudeCentersMatchGrid)
{
    const auto lats = shared_model().latitude_centers_deg();
    ASSERT_EQ(lats.size(), shared_model().density().n_lat());
    EXPECT_NEAR(lats.front(), -89.75, 1e-9);
    EXPECT_NEAR(lats.back(), 89.75, 1e-9);
}

TEST(Population, GazetteerSanity)
{
    for (const auto& c : world_cities()) {
        EXPECT_GE(c.latitude_deg, -90.0) << c.name;
        EXPECT_LE(c.latitude_deg, 90.0) << c.name;
        EXPECT_GE(c.longitude_deg, -180.0) << c.name;
        EXPECT_LE(c.longitude_deg, 180.0) << c.name;
        EXPECT_GT(c.population, 0.0) << c.name;
        EXPECT_GT(c.spread_deg, 0.0) << c.name;
        EXPECT_LT(c.spread_deg, 2.0) << c.name;
    }
    EXPECT_GE(world_cities().size(), 200u);
}

TEST(Population, RegionsSanity)
{
    for (const auto& r : background_regions()) {
        EXPECT_LT(r.lat_min_deg, r.lat_max_deg) << r.name;
        EXPECT_LT(r.lon_min_deg, r.lon_max_deg) << r.name;
        EXPECT_GT(r.density_per_km2, 0.0) << r.name;
    }
}

} // namespace
} // namespace ssplane::demand
