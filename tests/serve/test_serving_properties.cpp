// Property suite of one serving step over randomized failure masks on the
// three topology builders (SS planes, Walker +Grid, degree-capped Walker):
// 8 random-loss seeds per shell at three instants, each packed against the
// step's one shared visibility table. Per (shell, step, seed):
//
//   * the rate groups hold every active session exactly once, and the
//     zero-rate group is exactly the dropped sessions;
//   * served + degraded + dropped = active, with every term >= 0;
//   * delivered <= offered;
//   * beams_used <= beams_per_satellite x alive satellites;
//   * satellites_serving <= alive satellites.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../lsn/capped_topology.h"
#include "lsn/scenario.h"
#include "lsn/topology.h"
#include "serve/beam_assignment.h"
#include "util/angles.h"

namespace ssplane::serve {
namespace {

struct shell {
    std::string name;
    lsn::lsn_topology topology;
};

std::vector<shell> shells()
{
    constellation::walker_parameters walker;
    walker.altitude_m = 550.0e3;
    walker.inclination_rad = deg2rad(53.0);
    walker.n_planes = 8;
    walker.sats_per_plane = 10;
    walker.phasing_f = 1;
    std::vector<constellation::ss_plane> planes;
    for (int k = 0; k < 8; ++k)
        planes.push_back({560.0e3 + 10.0e3 * k, 6.0 + 1.5 * k, 12, 0.0});
    return {{"ss_planes", lsn::build_ss_topology(planes, astro::instant::j2000())},
            {"walker_grid", lsn::build_walker_grid_topology(walker)},
            {"walker_capped_3", lsn::build_walker_capped_topology(walker, 3)}};
}

const session_grid& test_grid()
{
    static const session_grid grid = [] {
        const demand::population_model population;
        serving_options options;
        options.n_sessions = 20000;
        options.seed = 5;
        return sample_session_grid(population, options);
    }();
    return grid;
}

TEST(ServingProperties, EveryStepAccountsForEveryActiveSession)
{
    const session_grid& grid = test_grid();
    // Scarce beams and thin ones, so drops, degradation and full service
    // all occur across the draws: a beam over more than five sessions
    // delivers under half their offered rate.
    serving_options options;
    options.beams_per_satellite = 8;
    options.beam_capacity_gbps = 0.05;
    options.satellite_capacity_gbps = 4.0;
    const std::vector<double> offsets{0.0, 5400.0, 43200.0};
    int checked = 0;
    std::int64_t dropped_total = 0;
    std::int64_t degraded_total = 0;
    for (const shell& s : shells()) {
        const lsn::snapshot_builder builder(s.topology, lsn::default_ground_stations(),
                                            astro::instant::j2000(), deg2rad(25.0));
        const auto positions = builder.positions_at_offsets(offsets);
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            const visibility_table visibility = discover_visibility(
                grid, positions[i], builder.epoch().plus_seconds(offsets[i]), options);
            for (std::uint64_t seed = 1; seed <= 8; ++seed) {
                lsn::failure_scenario scenario;
                scenario.mode = lsn::failure_mode::random_loss;
                scenario.loss_fraction = 0.05 * static_cast<double>(seed);
                scenario.seed = seed;
                const auto failed = lsn::sample_failures(s.topology, scenario);
                std::int64_t alive = 0;
                for (const std::uint8_t f : failed) alive += f == 0 ? 1 : 0;

                const beam_assignment step = pack_beams(visibility, failed, options);
                SCOPED_TRACE(s.name + ", step " + std::to_string(i) + ", seed " +
                             std::to_string(seed));
                std::int64_t grouped = 0;
                std::int64_t zero_rate = 0;
                for (const session_rate_group& g : step.rate_groups) {
                    EXPECT_GT(g.sessions, 0);
                    EXPECT_GE(g.rate_mbps, 0.0);
                    grouped += g.sessions;
                    zero_rate += g.rate_mbps == 0.0 ? g.sessions : 0;
                }
                EXPECT_EQ(grouped, step.sessions_active);
                EXPECT_EQ(zero_rate, step.sessions_dropped);

                const std::int64_t served =
                    step.sessions_active - step.sessions_degraded - step.sessions_dropped;
                EXPECT_GE(served, 0);
                EXPECT_GE(step.sessions_degraded, 0);
                EXPECT_GE(step.sessions_dropped, 0);
                EXPECT_EQ(served + step.sessions_degraded + step.sessions_dropped,
                          step.sessions_active);

                // Both totals sum the same per-session rates in a different
                // order, so allow their last bits to differ.
                EXPECT_LE(step.delivered_gbps, step.offered_gbps * (1.0 + 1.0e-12));
                EXPECT_LE(step.beams_used, options.beams_per_satellite * alive);
                EXPECT_LE(step.satellites_serving, alive);
                dropped_total += step.sessions_dropped;
                degraded_total += step.sessions_degraded;
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 3 * 3 * 8);
    EXPECT_GT(dropped_total, 0);
    EXPECT_GT(degraded_total, 0);
}

} // namespace
} // namespace ssplane::serve
