// The input contract every per-step sweep entry point shares
// (`lsn::sweep_geometry::validate`): the failure timeline is well formed,
// spans the geometry's satellites, and has zero rows, one row, or one row
// per grid step. Each entry point first accepts matching inputs, so a
// rejection can only come from the broken one.
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "constellation/walker.h"
#include "serve/serving_sweep.h"
#include "spectral/percolation.h"
#include "tempo/bulk_sweep.h"
#include "traffic/adversary.h"
#include "util/angles.h"
#include "util/expects.h"

namespace ssplane {
namespace {

using entry_point = std::function<void(const lsn::failure_timeline&)>;

const demand::demand_model& test_demand()
{
    static const demand::population_model population;
    static const demand::demand_model model(population);
    return model;
}

/// A two-step grid on a 16-satellite shell with three gateways.
struct sweep_fixture {
    lsn::lsn_topology topo = lsn::build_walker_grid_topology(
        {.inclination_rad = deg2rad(53.0), .n_planes = 4, .sats_per_plane = 4,
         .phasing_f = 1});
    lsn::sweep_geometry geometry{
        lsn::snapshot_builder{topo, traffic::stations_from_cities(3),
                              astro::instant::j2000(), deg2rad(25.0)},
        lsn::sweep_offsets(7200.0, 3600.0)};
    std::vector<tempo::bulk_transfer_request> requests{{0, 1, 100.0, 0.0, 7200.0}};
    serve::serving_options serving{.n_sessions = 2000, .seed = 3};
    serve::session_grid grid =
        serve::sample_session_grid(test_demand().population(), serving);

    /// Every timeline-taking sweep entry point on this geometry.
    std::vector<std::pair<const char*, entry_point>> entry_points() const
    {
        using t_t = const lsn::failure_timeline&;
        return {
            {"scenario", [this](t_t t) {
                 lsn::run_scenario_sweep_timeline(geometry, t);
             }},
            {"traffic", [this](t_t t) {
                 traffic::run_traffic_sweep_timeline(geometry, t, test_demand());
             }},
            {"bulk", [this](t_t t) {
                 tempo::run_bulk_sweep_timeline(geometry, t, requests);
             }},
            {"bulk_per_step", [this](t_t t) {
                 tempo::run_bulk_sweep_per_step_baseline_timeline(geometry, t, requests);
             }},
            {"percolation", [this](t_t t) {
                 spectral::run_percolation_sweep_timeline(geometry, t);
             }},
            {"serving", [this](t_t t) {
                 serve::run_serving_sweep_timeline(geometry, {&t}, grid, serving);
             }},
        };
    }
};

/// A zero-filled timeline of `n_rows` rows, `n_satellites` wide.
lsn::failure_timeline rows_of(int n_rows, int n_satellites)
{
    lsn::failure_timeline timeline;
    timeline.n_satellites = n_satellites;
    timeline.n_steps = n_rows;
    timeline.masks.assign(static_cast<std::size_t>(n_rows) *
                              static_cast<std::size_t>(n_satellites),
                          0);
    return timeline;
}

TEST(SweepInputs, EveryEntryPointAcceptsMatchingInputs)
{
    const sweep_fixture fx;
    for (const auto& [name, run] : fx.entry_points()) {
        EXPECT_NO_THROW(run(rows_of(2, fx.geometry.builder().n_satellites()))) << name;
        EXPECT_NO_THROW(run({})) << name;
    }
    lsn::failure_scenario adversary;
    adversary.mode = lsn::failure_mode::greedy_adversary;
    adversary.adversary_budget = 1;
    EXPECT_NO_THROW(traffic::generate_adversary_timeline(fx.geometry, adversary,
                                                         test_demand()));
}

TEST(SweepInputs, TimelineWiderThanTheBuilderIsRejectedByEveryEntryPoint)
{
    const sweep_fixture fx;
    const auto wide = rows_of(2, fx.geometry.builder().n_satellites() + 1);
    for (const auto& [name, run] : fx.entry_points())
        EXPECT_THROW(run(wide), contract_violation) << name;
}

TEST(SweepInputs, TimelineWhoseRowsDoNotFitTheGridIsRejectedByEveryEntryPoint)
{
    // Three rows on a two-step grid: no step may read a row that is not its
    // own, and no row may go unread.
    const sweep_fixture fx;
    const int n_satellites = fx.geometry.builder().n_satellites();
    ASSERT_EQ(fx.geometry.n_steps(), 2);
    const auto three = rows_of(3, n_satellites);
    for (const auto& [name, run] : fx.entry_points())
        EXPECT_THROW(run(three), contract_violation) << name;

    const std::vector<lsn::network_snapshot> snapshots{fx.geometry.snapshot(0),
                                                       fx.geometry.snapshot(1)};
    EXPECT_NO_THROW(tempo::build_time_expanded_graph_timeline(
        snapshots, fx.geometry.offsets(), rows_of(2, n_satellites)));
    EXPECT_THROW(tempo::build_time_expanded_graph_timeline(snapshots,
                                                           fx.geometry.offsets(), three),
                 contract_violation);
}

} // namespace
} // namespace ssplane
