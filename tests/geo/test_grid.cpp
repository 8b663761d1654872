#include "geo/grid.h"

#include <cmath>

#include <gtest/gtest.h>

#include "astro/constants.h"
#include "util/expects.h"

namespace ssplane::geo {
namespace {

TEST(Grid2d, IndexingAndBounds)
{
    grid2d g(3, 4, 1.5);
    EXPECT_EQ(g.rows(), 3u);
    EXPECT_EQ(g.cols(), 4u);
    EXPECT_EQ(g.size(), 12u);
    EXPECT_DOUBLE_EQ(g.at(2, 3), 1.5);
    g.at(1, 2) = 7.0;
    EXPECT_DOUBLE_EQ(g(1, 2), 7.0);
    EXPECT_THROW(g.at(3, 0), ssplane::contract_violation);
    EXPECT_THROW(g.at(0, 4), ssplane::contract_violation);
}

TEST(Grid2d, Reductions)
{
    grid2d g(2, 2, 0.0);
    g(0, 1) = 5.0;
    g(1, 0) = -2.0;
    EXPECT_DOUBLE_EQ(g.max_value(), 5.0);
    EXPECT_DOUBLE_EQ(g.total(), 3.0);
    const auto am = g.argmax();
    EXPECT_EQ(am.row, 0u);
    EXPECT_EQ(am.col, 1u);
}

TEST(Grid2d, RowSpan)
{
    grid2d g(2, 3, 0.0);
    g(1, 0) = 1.0;
    g(1, 2) = 3.0;
    const auto row = g.row_span(1);
    ASSERT_EQ(row.size(), 3u);
    EXPECT_DOUBLE_EQ(row[0], 1.0);
    EXPECT_DOUBLE_EQ(row[2], 3.0);
}

class LatLonGridTest : public ::testing::TestWithParam<double> {};

TEST_P(LatLonGridTest, DimensionsMatchResolution)
{
    const double cell = GetParam();
    lat_lon_grid g(cell);
    EXPECT_EQ(g.n_lat(), static_cast<std::size_t>(std::lround(180.0 / cell)));
    EXPECT_EQ(g.n_lon(), static_cast<std::size_t>(std::lround(360.0 / cell)));
}

TEST_P(LatLonGridTest, CenterIndexRoundTrip)
{
    const double cell = GetParam();
    lat_lon_grid g(cell);
    for (std::size_t r = 0; r < g.n_lat(); r += 7) {
        EXPECT_EQ(g.row_of_latitude(g.latitude_center_deg(r)), r);
    }
    for (std::size_t c = 0; c < g.n_lon(); c += 11) {
        EXPECT_EQ(g.col_of_longitude(g.longitude_center_deg(c)), c);
    }
}

TEST_P(LatLonGridTest, AreasSumToEarthSurface)
{
    const double cell = GetParam();
    lat_lon_grid g(cell);
    double total = 0.0;
    for (std::size_t r = 0; r < g.n_lat(); ++r)
        total += g.cell_area_km2(r) * static_cast<double>(g.n_lon());
    const double re_km = astro::earth_mean_radius_m / 1000.0;
    EXPECT_NEAR(total / (4.0 * pi * re_km * re_km), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Resolutions, LatLonGridTest, ::testing::Values(0.5, 1.0, 2.0, 5.0));

TEST(LatLonGrid, RejectsBadResolution)
{
    EXPECT_THROW(lat_lon_grid(7.3), ssplane::contract_violation);
    EXPECT_THROW(lat_lon_grid(0.0), ssplane::contract_violation);
    EXPECT_THROW(lat_lon_grid(-1.0), ssplane::contract_violation);
}

TEST(LatLonGrid, LongitudeWrapping)
{
    lat_lon_grid g(1.0);
    EXPECT_EQ(g.col_of_longitude(181.0), g.col_of_longitude(-179.0));
    EXPECT_EQ(g.col_of_longitude(360.0), g.col_of_longitude(0.0));
}

TEST(LatLonGrid, MaxOverLongitude)
{
    lat_lon_grid g(5.0);
    g.field()(10, 3) = 9.0;
    g.field()(10, 60) = 4.0;
    const auto maxes = g.max_over_longitude();
    ASSERT_EQ(maxes.size(), g.n_lat());
    EXPECT_DOUBLE_EQ(maxes[10], 9.0);
    EXPECT_DOUBLE_EQ(maxes[0], 0.0);
}

TEST(LatTodGrid, DimensionsAndRoundTrip)
{
    lat_tod_grid g(0.5, 0.25);
    EXPECT_EQ(g.n_lat(), 360u);
    EXPECT_EQ(g.n_tod(), 96u);
    for (std::size_t r = 0; r < g.n_lat(); r += 13)
        EXPECT_EQ(g.row_of_latitude(g.latitude_center_deg(r)), r);
}

TEST(LatTodGrid, RejectsBadResolution)
{
    EXPECT_THROW(lat_tod_grid(0.7, 1.0), ssplane::contract_violation);
    EXPECT_THROW(lat_tod_grid(1.0, 0.7), ssplane::contract_violation);
}

} // namespace
} // namespace ssplane::geo
