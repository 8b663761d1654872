#include "radiation/belts.h"

#include <gtest/gtest.h>

#include "astro/constants.h"
#include "astro/frames.h"
#include "geo/grid.h"
#include "radiation/fluence.h"
#include "radiation/solar_cycle.h"

namespace ssplane::radiation {
namespace {

const radiation_environment& shared_env()
{
    static const radiation_environment env;
    return env;
}

vec3 position_at(double lat, double lon, double alt_m)
{
    return astro::geodetic_to_ecef({lat, lon, alt_m});
}

TEST(Belts, ZeroBelowAtmosphericCutoff)
{
    const auto f = shared_env().flux(position_at(-25.0, -50.0, 100.0e3), 1.0);
    EXPECT_EQ(f.electrons_cm2_s_mev, 0.0);
    EXPECT_EQ(f.protons_cm2_s_mev, 0.0);
}

TEST(Belts, FluxNonNegativeEverywhere)
{
    for (double lat = -80.0; lat <= 80.0; lat += 20.0) {
        for (double lon = -180.0; lon < 180.0; lon += 45.0) {
            const auto f = shared_env().flux(position_at(lat, lon, 560.0e3), 1.0);
            EXPECT_GE(f.electrons_cm2_s_mev, 0.0);
            EXPECT_GE(f.protons_cm2_s_mev, 0.0);
        }
    }
}

TEST(Belts, SaaIsProtonHotspot)
{
    // Proton flux at 560 km peaks in the South Atlantic Anomaly.
    const auto maps = flux_map_at_altitude(shared_env(), 560.0e3, 4.0,
                                           astro::instant::from_calendar(2014, 3, 15));
    const auto peak = maps.protons.field().argmax();
    const double lat = maps.protons.latitude_center_deg(peak.row);
    const double lon = maps.protons.longitude_center_deg(peak.col);
    EXPECT_GT(lat, -50.0);
    EXPECT_LT(lat, 0.0);
    EXPECT_GT(lon, -90.0);
    EXPECT_LT(lon, 10.0);
}

TEST(Belts, SaaDominatesPacificAtSameLatitude)
{
    const auto saa = shared_env().flux(position_at(-25.0, -50.0, 560.0e3), 1.0);
    const auto pacific = shared_env().flux(position_at(-25.0, -170.0, 560.0e3), 1.0);
    EXPECT_GT(saa.protons_cm2_s_mev, 5.0 * pacific.protons_cm2_s_mev);
    EXPECT_GT(saa.electrons_cm2_s_mev, pacific.electrons_cm2_s_mev);
}

TEST(Belts, OuterBeltHornsAtHighMagneticLatitude)
{
    // Electron flux shows high-latitude bands (the outer-belt horns):
    // band latitudes beat the mid-latitude trough away from the SAA.
    const auto horn = shared_env().flux(position_at(62.0, 60.0, 560.0e3), 1.0);
    const auto trough = shared_env().flux(position_at(20.0, 60.0, 560.0e3), 1.0);
    EXPECT_GT(horn.electrons_cm2_s_mev, 3.0 * trough.electrons_cm2_s_mev);
}

TEST(Belts, OuterElectronsRespondToActivity)
{
    const vec3 horn = position_at(62.0, 60.0, 560.0e3);
    const auto quiet = shared_env().flux(horn, 0.0);
    const auto active = shared_env().flux(horn, 1.0);
    EXPECT_GT(active.electrons_cm2_s_mev, 2.0 * quiet.electrons_cm2_s_mev);
}

TEST(Belts, ProtonsAnticorrelateWithActivity)
{
    const vec3 saa = position_at(-25.0, -50.0, 560.0e3);
    const auto quiet = shared_env().flux(saa, 0.0);
    const auto active = shared_env().flux(saa, 1.0);
    EXPECT_LT(active.protons_cm2_s_mev, quiet.protons_cm2_s_mev);
}

TEST(Belts, OuterElectronsFollowTheSolarCycle)
{
    const vec3 horn = position_at(62.0, 60.0, 560.0e3);
    // Cycle maximum (2014) outruns cycle minimum (2009) for outer electrons.
    const auto flux_on = [&](const astro::instant& day) {
        return shared_env().flux(horn, solar_activity(day));
    };
    const auto max_day = flux_on(astro::instant::from_calendar(2014, 4, 1));
    const auto min_day = flux_on(astro::instant::from_calendar(2009, 1, 15));
    EXPECT_GT(max_day.electrons_cm2_s_mev, min_day.electrons_cm2_s_mev);
}

TEST(Belts, CustomParametersApply)
{
    belt_parameters params;
    params.electron_inner_amplitude = 0.0;
    params.electron_outer_amplitude = 0.0;
    params.proton_amplitude = 0.0;
    const radiation_environment empty(dipole_model::eccentric_2015(), params);
    const auto f = empty.flux(position_at(-25.0, -50.0, 560.0e3), 1.0);
    EXPECT_EQ(f.electrons_cm2_s_mev, 0.0);
    EXPECT_EQ(f.protons_cm2_s_mev, 0.0);
}

TEST(Belts, HigherAltitudeSeesMoreOuterBelt)
{
    // Moving toward the belt center, flux rises (same activity, same latlon).
    const auto low = shared_env().flux(position_at(62.0, 60.0, 400.0e3), 1.0);
    const auto high = shared_env().flux(position_at(62.0, 60.0, 1400.0e3), 1.0);
    EXPECT_GT(high.electrons_cm2_s_mev, low.electrons_cm2_s_mev);
}

} // namespace
} // namespace ssplane::radiation
