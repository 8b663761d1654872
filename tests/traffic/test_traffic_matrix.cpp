#include "traffic/traffic_matrix.h"

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "demand/cities.h"
#include "geo/geodesy.h"
#include "util/angles.h"
#include "util/expects.h"

namespace ssplane::traffic {
namespace {

const demand::population_model& test_population()
{
    static const demand::population_model model;
    return model;
}

TEST(StationsFromCities, ReturnsRequestedCountOrderedByPopulation)
{
    const auto stations = stations_from_cities(12);
    ASSERT_EQ(stations.size(), 12u);
    // The gazetteer's largest metros lead the list.
    EXPECT_EQ(stations[0].name, "Tokyo");
    for (const auto& gs : stations) {
        EXPECT_FALSE(gs.name.empty());
        EXPECT_GE(gs.latitude_deg, -90.0);
        EXPECT_LE(gs.latitude_deg, 90.0);
    }
}

TEST(StationsFromCities, RespectsMinimumSeparation)
{
    // Gateways keep 5 degrees of great-circle arc between any two, while
    // the gazetteer's 40 largest metros do not: the filter skips some.
    const auto stations = stations_from_cities(40);
    ASSERT_EQ(stations.size(), 40u);
    for (std::size_t i = 0; i < stations.size(); ++i) {
        for (std::size_t j = i + 1; j < stations.size(); ++j) {
            const double angle = geo::central_angle_rad(
                stations[i].latitude_deg, stations[i].longitude_deg,
                stations[j].latitude_deg, stations[j].longitude_deg);
            EXPECT_GE(angle, deg2rad(5.0));
        }
    }
    std::vector<demand::city> largest(demand::world_cities().begin(),
                                      demand::world_cities().end());
    std::sort(largest.begin(), largest.end(), [](const auto& a, const auto& b) {
        return a.population > b.population;
    });
    largest.resize(40);
    bool any_close = false;
    for (std::size_t i = 0; i < largest.size(); ++i)
        for (std::size_t j = i + 1; j < largest.size(); ++j)
            any_close |= geo::central_angle_rad(largest[i].latitude_deg,
                                                largest[i].longitude_deg,
                                                largest[j].latitude_deg,
                                                largest[j].longitude_deg) < deg2rad(5.0);
    EXPECT_TRUE(any_close);
}

TEST(StationsFromCities, RejectsImpossibleRequests)
{
    EXPECT_THROW(stations_from_cities(0), contract_violation);
    // The gazetteer holds a few hundred metros, fewer still 5 degrees apart.
    EXPECT_GT(1000u, demand::world_cities().size());
    EXPECT_THROW(stations_from_cities(1000), contract_violation);
}

TEST(TrafficMatrix, SymmetricNormalizedZeroDiagonal)
{
    const demand::demand_model model(test_population());
    const auto stations = stations_from_cities(8);
    traffic_matrix_options opts;
    opts.total_demand_gbps = 500.0;
    const auto matrix = build_traffic_matrix(model, stations,
                                             astro::instant::j2000(), opts);

    ASSERT_EQ(matrix.n_stations, 8);
    double pair_sum = 0.0;
    for (int a = 0; a < 8; ++a) {
        EXPECT_EQ(matrix.demand(a, a), 0.0);
        for (int b = 0; b < 8; ++b) {
            EXPECT_GE(matrix.demand(a, b), 0.0);
            EXPECT_DOUBLE_EQ(matrix.demand(a, b), matrix.demand(b, a));
            if (b > a) pair_sum += matrix.demand(a, b);
        }
    }
    EXPECT_NEAR(pair_sum, 500.0, 1e-9 * 500.0);
}

TEST(TrafficMatrix, FollowsTheDiurnalCycle)
{
    // The same gateway set offers a different matrix twelve hours later:
    // endpoint masses are evaluated at local solar time.
    const demand::demand_model model(test_population());
    const auto stations = stations_from_cities(6);
    const auto t0 = astro::instant::from_calendar(2026, 6, 1, 0);
    const auto m0 = build_traffic_matrix(model, stations, t0);
    const auto m12 = build_traffic_matrix(model, stations, t0.plus_seconds(12 * 3600.0));

    bool any_difference = false;
    double sum0 = 0.0;
    double sum12 = 0.0;
    for (int a = 0; a < 6; ++a)
        for (int b = a + 1; b < 6; ++b) {
            any_difference |=
                std::abs(m0.demand(a, b) - m12.demand(a, b)) > 1e-9;
            sum0 += m0.demand(a, b);
            sum12 += m12.demand(a, b);
        }
    EXPECT_TRUE(any_difference);
    // Normalization keeps the total fixed even as the shape shifts.
    EXPECT_NEAR(sum0, 1000.0, 1e-9 * 1000.0);
    EXPECT_NEAR(sum12, 1000.0, 1e-9 * 1000.0);
}

TEST(TrafficMatrix, AllZeroMassesYieldZeroMatrix)
{
    const demand::demand_model model(test_population());
    // Mid-ocean "gateways": no population mass, so no gravity weight.
    const std::vector<lsn::ground_station> ocean = {
        {"Pacific", 0.0, -150.0}, {"South Atlantic", -40.0, -20.0}};
    const auto matrix = build_traffic_matrix(model, ocean, astro::instant::j2000());
    EXPECT_EQ(matrix.demand(0, 1), 0.0);
}

TEST(TrafficMatrix, ValidateRejectsDegenerateOptionsPerField)
{
    EXPECT_NO_THROW(validate(traffic_matrix_options{}));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();

    for (const double bad : {-1.0, nan, inf}) {
        traffic_matrix_options opts;
        opts.total_demand_gbps = bad;
        EXPECT_THROW(validate(opts), contract_violation) << "total_demand_gbps " << bad;
    }
    // No demand stays legal.
    traffic_matrix_options none;
    none.total_demand_gbps = 0.0;
    EXPECT_NO_THROW(validate(none));

    // The builder checks at its entry too.
    const demand::demand_model model(test_population());
    for (const double bad : {nan, inf}) {
        traffic_matrix_options opts;
        opts.total_demand_gbps = bad;
        EXPECT_THROW(build_traffic_matrix(model, stations_from_cities(4),
                                          astro::instant::j2000(), opts),
                     contract_violation)
            << "total_demand_gbps " << bad;
    }
}

} // namespace
} // namespace ssplane::traffic
