#include "demand/demand_model.h"

#include <gtest/gtest.h>

#include "demand/diurnal.h"

namespace ssplane::demand {
namespace {

const population_model& shared_population()
{
    static const population_model model;
    return model;
}

TEST(DemandModel, SunRelativeGridIsNormalized)
{
    const demand_model model(shared_population());
    const auto grid = model.sun_relative_grid();
    EXPECT_NEAR(grid.field().max_value(), 1.0, 1e-12);
    for (double v : grid.field().values()) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0 + 1e-12);
    }
}

TEST(DemandModel, GridIsSeparableProduct)
{
    // D(lat, tod) = pop_profile(lat) * diurnal(tod) (normalized), so the
    // ratio between two time columns is identical across latitude rows.
    const demand_model model(shared_population());
    const auto grid = model.sun_relative_grid();
    const auto c1 = static_cast<std::size_t>(14.0 / grid.tod_cell_h());
    const auto c2 = static_cast<std::size_t>(4.0 / grid.tod_cell_h());
    const std::size_t r_ref = grid.row_of_latitude(23.8);
    const double ref_ratio = grid.field()(r_ref, c2) / grid.field()(r_ref, c1);
    for (double lat : {-34.0, 0.25, 31.0, 51.0}) {
        const std::size_t r = grid.row_of_latitude(lat);
        if (grid.field()(r, c1) <= 0.0) continue;
        EXPECT_NEAR(grid.field()(r, c2) / grid.field()(r, c1), ref_ratio, 1e-9);
    }
}

TEST(DemandModel, PeakCellAtPeakLatitudeAndHour)
{
    const demand_model model(shared_population());
    const auto grid = model.sun_relative_grid();
    const auto peak = grid.field().argmax();
    const double lat = grid.latitude_center_deg(peak.row);
    const double tod = grid.tod_center_h(peak.col);
    EXPECT_GT(lat, 18.0);
    EXPECT_LT(lat, 32.0);
    EXPECT_GT(tod, 9.0);
    EXPECT_LT(tod, 23.0);
}

TEST(DemandModel, DemandAtCombinesPopulationAndTime)
{
    const demand_model model(shared_population());
    const auto t = astro::instant::from_calendar(2015, 6, 1, 12);
    // Greenwich at 12 UT is local noon; 180 E is local midnight.
    const double noon = model.demand_at(51.5, 0.0, t);
    // Same place 14 hours later (local ~2 am) has much lower demand.
    const double night = model.demand_at(51.5, 0.0, t.plus_seconds(14.5 * 3600.0));
    EXPECT_GT(noon, night);
    EXPECT_GT(noon / night, 1.5);
}

TEST(DemandModel, SnapshotFollowsTheSun)
{
    const demand_model model(shared_population());
    const auto t0 = astro::instant::from_calendar(2015, 6, 1, 12);
    const auto snap0 = model.snapshot(t0);
    const auto snap6 = model.snapshot(t0.plus_seconds(6.0 * 3600.0));

    // The diurnal multiplier applied to a fixed longitude changes over 6 h...
    const std::size_t row = snap0.row_of_latitude(23.8);
    const std::size_t col = snap0.col_of_longitude(90.4);
    EXPECT_NE(snap0.field()(row, col), snap6.field()(row, col));

    // ...but the population factor is shared: dividing out the diurnal
    // shape recovers the same underlying density.
    const double center_lon = snap0.longitude_center_deg(col);
    const double lst0 = astro::mean_solar_time_hours(t0, center_lon);
    const double lst6 =
        astro::mean_solar_time_hours(t0.plus_seconds(6.0 * 3600.0), center_lon);
    const double pop0 = snap0.field()(row, col) / canonical_diurnal_shape(lst0);
    const double pop6 = snap6.field()(row, col) / canonical_diurnal_shape(lst6);
    EXPECT_NEAR(pop0, pop6, 1e-6 * pop0 + 1e-9);
}

TEST(DemandModel, GridResolutionOptions)
{
    demand_options opts;
    opts.lat_cell_deg = 2.0;
    opts.tod_cell_h = 1.0;
    const demand_model model(shared_population(), opts);
    const auto grid = model.sun_relative_grid();
    EXPECT_EQ(grid.n_lat(), 90u);
    EXPECT_EQ(grid.n_tod(), 24u);
    EXPECT_NEAR(grid.field().max_value(), 1.0, 1e-12);
}

} // namespace
} // namespace ssplane::demand
