#include "core/plane_trace.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "../util/cross.h"
#include "util/angles.h"
#include "util/expects.h"

namespace ssplane::core {
namespace {

constexpr double k_ss_inclination = deg2rad(97.604); // 560 km

/// Unit vector of a (latitude, time-of-day) point on the sun-relative
/// sphere: the direct form the cached-trig mask is held to.
vec3 sun_frame_unit(double latitude_deg, double tod_h)
{
    const double lat = deg2rad(latitude_deg);
    const double theta = hours2rad(tod_h - 12.0);
    const double cl = std::cos(lat);
    return {cl * std::cos(theta), cl * std::sin(theta), std::sin(lat)};
}

TEST(PlaneTrace, SunFrameUnitBasics)
{
    // Noon on the equator is the +x direction; midnight is -x.
    EXPECT_NEAR((sun_frame_unit(0.0, 12.0) - vec3{1, 0, 0}).norm(), 0.0, 1e-12);
    EXPECT_NEAR((sun_frame_unit(0.0, 0.0) - vec3{-1, 0, 0}).norm(), 0.0, 1e-12);
    EXPECT_NEAR((sun_frame_unit(90.0, 5.0) - vec3{0, 0, 1}).norm(), 0.0, 1e-9);
    for (double lat : {-60.0, 0.0, 45.0}) {
        for (double tod : {0.0, 6.5, 13.0, 23.9}) {
            EXPECT_NEAR(sun_frame_unit(lat, tod).norm(), 1.0, 1e-12);
        }
    }
}

TEST(PlaneTrace, TraceStartsAtNodeWithLtan)
{
    // The plane of LTAN 14.5 h crosses the equator at 14.5 h heading north
    // and at 2.5 h heading south: along the great circle of normal n the
    // direction of motion at r is n x r.
    const vec3 n = plane_normal(k_ss_inclination, 14.5);
    const vec3 node = sun_frame_unit(0.0, 14.5);
    const vec3 antinode = sun_frame_unit(0.0, 2.5);
    EXPECT_NEAR(n.dot(node), 0.0, 1e-12);
    EXPECT_NEAR(n.dot(antinode), 0.0, 1e-12);
    EXPECT_NEAR(cross(n, node).z, std::sin(k_ss_inclination), 1e-12);
    EXPECT_NEAR(cross(n, antinode).z, -std::sin(k_ss_inclination), 1e-12);

    // On the grid, the plane's street covers the equator at the node and the
    // antinode and nowhere a quarter day away.
    const geo::lat_tod_grid grid(1.0, 0.25);
    const auto mask = plane_coverage_mask(grid, k_ss_inclination, 14.5, deg2rad(3.0));
    const std::size_t equator = grid.row_of_latitude(0.5) * grid.n_tod();
    const auto col = [&](double tod_h) {
        return static_cast<std::size_t>(tod_h / grid.tod_cell_h());
    };
    EXPECT_EQ(mask[equator + col(14.5)], 1);
    EXPECT_EQ(mask[equator + col(2.5)], 1);
    EXPECT_EQ(mask[equator + col(8.5)], 0);
    EXPECT_EQ(mask[equator + col(20.5)], 0);
}

TEST(PlaneTrace, MaxLatitudeIsSupplementOfInclination)
{
    // A retrograde plane reaches latitude 180 - i and no further: the LTAN
    // solutions stop there, and a narrow street's mask tops out there.
    const double max_lat = 180.0 - rad2deg(k_ss_inclination);
    EXPECT_TRUE(ltan_through(k_ss_inclination, max_lat - 0.01, 12.0).ascending);
    EXPECT_FALSE(ltan_through(k_ss_inclination, max_lat + 0.01, 12.0).ascending);

    const geo::lat_tod_grid grid(0.1, 0.1);
    const double street_deg = 0.05;
    const auto mask =
        plane_coverage_mask(grid, k_ss_inclination, 12.0, deg2rad(street_deg));
    double top = 0.0;
    for (std::size_t r = 0; r < grid.n_lat(); ++r) {
        for (std::size_t c = 0; c < grid.n_tod(); ++c) {
            if (mask[r * grid.n_tod() + c] != 0)
                top = std::max(top, std::abs(grid.latitude_center_deg(r)));
        }
    }
    EXPECT_LE(top, max_lat + street_deg);
    EXPECT_GE(top, max_lat - grid.lat_cell_deg());
}

class LtanThroughTest : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(LtanThroughTest, SolutionsPassThroughThePoint)
{
    const auto [lat, tod] = GetParam();
    const auto sol = ltan_through(k_ss_inclination, lat, tod);
    ASSERT_TRUE(sol.ascending.has_value());
    ASSERT_TRUE(sol.descending.has_value());
    const vec3 p = sun_frame_unit(lat, tod);
    EXPECT_NEAR(plane_normal(k_ss_inclination, *sol.ascending).norm(), 1.0, 1e-12);
    EXPECT_NEAR(plane_normal(k_ss_inclination, *sol.ascending).dot(p), 0.0, 1e-9);
    EXPECT_NEAR(plane_normal(k_ss_inclination, *sol.descending).dot(p), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SweepSeedPoints, LtanThroughTest,
    ::testing::Values(std::make_pair(23.75, 14.0), std::make_pair(0.0, 3.0),
                      std::make_pair(-33.0, 20.5), std::make_pair(51.0, 9.25),
                      std::make_pair(75.0, 0.5), std::make_pair(-60.0, 12.0)));

TEST(LtanThrough, EquatorSolutionsAreNodeAndAntinode)
{
    const auto sol = ltan_through(k_ss_inclination, 0.0, 14.0);
    ASSERT_TRUE(sol.ascending && sol.descending);
    EXPECT_NEAR(hour_difference(*sol.ascending, 14.0), 0.0, 1e-9);
    EXPECT_NEAR(hour_difference(*sol.descending, 2.0), 0.0, 1e-9);
}

TEST(LtanThrough, UnreachableLatitude)
{
    // |lat| beyond 180 - i is never crossed.
    const auto sol = ltan_through(k_ss_inclination, 85.0, 12.0);
    EXPECT_FALSE(sol.ascending.has_value());
    EXPECT_FALSE(sol.descending.has_value());
}

TEST(CoverageMask, ContainsSeedAndRespectsWidth)
{
    geo::lat_tod_grid grid(2.0, 0.5);
    const double street = deg2rad(7.25);
    const auto sol = ltan_through(k_ss_inclination, 23.0, 14.25);
    ASSERT_TRUE(sol.ascending.has_value());
    const auto mask = plane_coverage_mask(grid, k_ss_inclination, *sol.ascending, street);

    const std::size_t seed_index = grid.row_of_latitude(23.0) * grid.n_tod() +
                                   static_cast<std::size_t>(14.25 / grid.tod_cell_h());
    EXPECT_EQ(mask[seed_index], 1);

    // Mask cells are exactly those within the street of the great circle.
    const vec3 n = plane_normal(k_ss_inclination, *sol.ascending);
    for (std::size_t r = 0; r < grid.n_lat(); r += 5) {
        for (std::size_t c = 0; c < grid.n_tod(); c += 3) {
            const vec3 p = sun_frame_unit(grid.latitude_center_deg(r), grid.tod_center_h(c));
            const bool inside = std::abs(n.dot(p)) <= std::sin(street);
            EXPECT_EQ(mask[r * grid.n_tod() + c] == 1, inside);
        }
    }
}

TEST(CoverageMask, WiderStreetCoversMore)
{
    geo::lat_tod_grid grid(2.0, 0.5);
    const auto count = [&](double street) {
        const auto mask = plane_coverage_mask(grid, k_ss_inclination, 13.0, street);
        std::size_t covered = 0;
        for (auto m : mask) covered += m;
        return covered;
    };
    EXPECT_GT(count(deg2rad(8.0)), count(deg2rad(4.0)));
    EXPECT_GT(count(deg2rad(4.0)), count(deg2rad(1.0)));
    EXPECT_GT(count(deg2rad(1.0)), 0u);
}

TEST(CoverageMask, SunFrameTableMatchesDirectMask)
{
    // The cached-trig table is the greedy designer's hot path; it must
    // reproduce the direct sun_frame_unit mask cell-for-cell.
    geo::lat_tod_grid grid(1.0, 0.25);
    const sun_frame_table table(grid);
    EXPECT_EQ(table.n_lat(), grid.n_lat());
    EXPECT_EQ(table.n_tod(), grid.n_tod());

    std::vector<std::uint8_t> from_table;
    for (const double ltan : {0.7, 6.0, 13.5, 22.25}) {
        for (const double street_deg : {1.0, 7.25}) {
            const auto direct = [&] {
                const vec3 n = plane_normal(k_ss_inclination, ltan);
                const double sin_c = std::sin(deg2rad(street_deg));
                std::vector<std::uint8_t> mask(grid.n_lat() * grid.n_tod(), 0);
                for (std::size_t r = 0; r < grid.n_lat(); ++r)
                    for (std::size_t c = 0; c < grid.n_tod(); ++c) {
                        const vec3 p = sun_frame_unit(grid.latitude_center_deg(r),
                                                      grid.tod_center_h(c));
                        if (std::abs(n.dot(p)) <= sin_c)
                            mask[r * grid.n_tod() + c] = 1;
                    }
                return mask;
            }();
            table.coverage_mask(k_ss_inclination, ltan, deg2rad(street_deg),
                                from_table);
            EXPECT_EQ(from_table, direct) << "ltan " << ltan;
        }
    }
}

TEST(CoverageMask, PolarCapsAlwaysUncovered)
{
    geo::lat_tod_grid grid(0.5, 1.0);
    const auto mask = plane_coverage_mask(grid, k_ss_inclination, 12.0, deg2rad(7.25));
    // Latitudes beyond 82.4 + 7.25 = 89.65 are unreachable.
    const std::size_t top_row = grid.row_of_latitude(89.9);
    for (std::size_t c = 0; c < grid.n_tod(); ++c)
        EXPECT_EQ(mask[top_row * grid.n_tod() + c], 0);
}

} // namespace
} // namespace ssplane::core
