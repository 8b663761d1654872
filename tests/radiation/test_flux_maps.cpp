#include "radiation/fluence.h"

#include <vector>

#include <gtest/gtest.h>

#include "astro/frames.h"
#include "radiation/solar_cycle.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::radiation {
namespace {

const radiation_environment& shared_env()
{
    static const radiation_environment env;
    return env;
}

const astro::instant k_day = astro::instant::from_calendar(2014, 3, 15);

vec3 cell_center(const geo::lat_lon_grid& grid, std::size_t row, std::size_t col,
                 double altitude_m)
{
    return astro::geodetic_to_ecef(
        {grid.latitude_center_deg(row), grid.longitude_center_deg(col), altitude_m});
}

void expect_same_values(const geo::lat_lon_grid& a, const geo::lat_lon_grid& b)
{
    ASSERT_EQ(a.n_lat(), b.n_lat());
    ASSERT_EQ(a.n_lon(), b.n_lon());
    const auto av = a.field().values();
    const auto bv = b.field().values();
    EXPECT_EQ(std::vector<double>(av.begin(), av.end()),
              std::vector<double>(bv.begin(), bv.end()));
}

TEST(FluxComponents, CombineMatchesDirectFlux)
{
    const auto& env = shared_env();
    // Positions spanning SAA, horn bands, quiet low latitudes and the
    // below-cutoff degenerate case.
    const std::vector<astro::geodetic> points = {
        {-25.0, -50.0, 560.0e3}, {62.0, 60.0, 560.0e3},  {18.0, 60.0, 560.0e3},
        {-62.0, -120.0, 560.0e3}, {0.0, 0.0, 100.0e3},   {45.0, 170.0, 1200.0e3},
    };
    for (const auto& g : points) {
        const vec3 r = astro::geodetic_to_ecef(g);
        for (const double activity : {0.0, 0.4, 1.3}) {
            const particle_flux direct = env.flux(r, activity);
            const particle_flux combined = env.combine(env.components_at(r), activity);
            EXPECT_DOUBLE_EQ(combined.electrons_cm2_s_mev, direct.electrons_cm2_s_mev);
            EXPECT_DOUBLE_EQ(combined.protons_cm2_s_mev, direct.protons_cm2_s_mev);
        }
    }
}

TEST(FluxMaps, FluxMapIsTheBeltModelAtEveryCellCenter)
{
    const auto& env = shared_env();
    const double altitude_m = 560.0e3;
    const double activity = solar_activity(k_day);

    const flux_maps maps = flux_map_at_altitude(env, altitude_m, 10.0, k_day);
    ASSERT_EQ(maps.electrons.n_lat(), 18u);
    ASSERT_EQ(maps.electrons.n_lon(), 36u);
    ASSERT_EQ(maps.protons.n_lat(), 18u);
    ASSERT_EQ(maps.protons.n_lon(), 36u);

    for (std::size_t r = 0; r < maps.electrons.n_lat(); ++r) {
        for (std::size_t c = 0; c < maps.electrons.n_lon(); ++c) {
            const particle_flux direct =
                env.flux(cell_center(maps.electrons, r, c, altitude_m), activity);
            EXPECT_EQ(maps.electrons.field()(r, c), direct.electrons_cm2_s_mev);
            EXPECT_EQ(maps.protons.field()(r, c), direct.protons_cm2_s_mev);
        }
    }
    EXPECT_GT(maps.electrons.field().max_value(), 0.0);
    EXPECT_GT(maps.protons.field().max_value(), 0.0);
}

TEST(FluxMaps, MaxElectronMapIsThePerDayMaximum)
{
    // The outer belt is non-negative and rounding is monotone, so the
    // maximum over days of inner + outer * scale is inner + outer *
    // max(scale) in floating point too: the two agree bit for bit.
    const auto& env = shared_env();
    const double altitude_m = 560.0e3;
    const double cell_deg = 15.0;
    const geo::lat_lon_grid map =
        max_electron_flux_map(env, altitude_m, cell_deg, 16, 99);

    geo::lat_lon_grid direct(cell_deg);
    for (const auto& day : sample_cycle24_days(16, 99)) {
        const double activity = solar_activity(day);
        for (std::size_t r = 0; r < direct.n_lat(); ++r) {
            for (std::size_t c = 0; c < direct.n_lon(); ++c) {
                const particle_flux f =
                    env.flux(cell_center(direct, r, c, altitude_m), activity);
                if (f.electrons_cm2_s_mev > direct.field()(r, c))
                    direct.field()(r, c) = f.electrons_cm2_s_mev;
            }
        }
    }
    expect_same_values(map, direct);
    EXPECT_GT(map.field().max_value(), 0.0);
}

TEST(FluxMaps, MaxElectronMapRejectsFewerThanOneDay)
{
    // The maximum starts from the first sampled day, so an empty sample must
    // be refused before any cell is visited.
    const auto& env = shared_env();
    EXPECT_THROW(max_electron_flux_map(env, 560.0e3, 15.0, 0, 99), contract_violation);
    EXPECT_THROW(max_electron_flux_map(env, 560.0e3, 15.0, -3, 99), contract_violation);
}

TEST(FluxMaps, SameAtOneAndFourThreads)
{
    const auto& env = shared_env();
    set_thread_count(1);
    const flux_maps serial = flux_map_at_altitude(env, 800.0e3, 4.0, k_day);
    const geo::lat_lon_grid serial_max = max_electron_flux_map(env, 800.0e3, 4.0, 8, 5);
    set_thread_count(4);
    const flux_maps parallel = flux_map_at_altitude(env, 800.0e3, 4.0, k_day);
    const geo::lat_lon_grid parallel_max =
        max_electron_flux_map(env, 800.0e3, 4.0, 8, 5);
    set_thread_count(0);

    expect_same_values(serial.electrons, parallel.electrons);
    expect_same_values(serial.protons, parallel.protons);
    expect_same_values(serial_max, parallel_max);
}

} // namespace
} // namespace ssplane::radiation
