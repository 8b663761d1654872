// The input contract every per-step sweep entry point shares
// (`lsn::validate_sweep_inputs`): positions hold one row per sweep offset,
// and the failure timeline spans the builder's satellites. Each entry point
// first accepts matching inputs, so a rejection can only come from the
// broken one.
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

using positions_t = std::vector<std::vector<vec3>>;
using entry_point =
    std::function<void(const positions_t&, const lsn::failure_timeline&)>;

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
    lsn::snapshot_builder builder{topo, traffic::stations_from_cities(3),
                                  astro::instant::j2000(), deg2rad(25.0)};
    std::vector<double> offsets = lsn::sweep_offsets(7200.0, 3600.0);
    positions_t positions = builder.positions_at_offsets(offsets);
    std::vector<tempo::bulk_transfer_request> requests{{0, 1, 100.0, 0.0, 7200.0}};
    serve::serving_options serving{.n_sessions = 2000, .seed = 3};
    serve::session_grid grid =
        serve::sample_session_grid(test_demand().population(), serving);

    /// Every timeline-taking sweep entry point on this builder and grid.
    std::vector<std::pair<const char*, entry_point>> entry_points() const
    {
        using p_t = const positions_t&;
        using t_t = const lsn::failure_timeline&;
        return {
            {"scenario", [this](p_t p, t_t t) {
                 lsn::run_scenario_sweep_timeline(builder, offsets, p, t);
             }},
            {"traffic", [this](p_t p, t_t t) {
                 traffic::run_traffic_sweep_timeline(builder, offsets, p, t, test_demand());
             }},
            {"bulk", [this](p_t p, t_t t) {
                 tempo::run_bulk_sweep_timeline(builder, offsets, p, t, requests);
             }},
            {"bulk_per_step", [this](p_t p, t_t t) {
                 tempo::run_bulk_sweep_per_step_baseline_timeline(builder, offsets, p, t,
                                                                  requests);
             }},
            {"percolation", [this](p_t p, t_t t) {
                 spectral::run_percolation_sweep_timeline(builder, offsets, p, t);
             }},
            {"serving", [this](p_t p, t_t t) {
                 serve::run_serving_sweep_timeline(builder, offsets, p, {&t}, grid,
                                                   serving);
             }},
            {"materialize", [this](p_t p, t_t t) {
                 tempo::materialize_snapshots_timeline(builder, offsets, p, t);
             }},
        };
    }

    /// The one-strike greedy adversary over this grid with `p` as positions.
    lsn::failure_timeline adversary(const positions_t& p) const
    {
        lsn::failure_scenario scenario;
        scenario.mode = lsn::failure_mode::greedy_adversary;
        scenario.adversary_budget = 1;
        return traffic::generate_adversary_timeline(builder, offsets, p, scenario,
                                                    test_demand());
    }
};

/// A zero-filled two-row timeline `n_satellites` wide.
lsn::failure_timeline two_rows(int n_satellites)
{
    lsn::failure_timeline timeline;
    timeline.n_satellites = n_satellites;
    timeline.n_steps = 2;
    timeline.masks.assign(2 * static_cast<std::size_t>(n_satellites), 0);
    return timeline;
}

TEST(SweepInputs, EveryEntryPointAcceptsMatchingInputs)
{
    const sweep_fixture fx;
    for (const auto& [name, run] : fx.entry_points()) {
        EXPECT_NO_THROW(run(fx.positions, two_rows(fx.builder.n_satellites()))) << name;
        EXPECT_NO_THROW(run(fx.positions, {})) << name;
    }
    EXPECT_NO_THROW(fx.adversary(fx.positions));
}

TEST(SweepInputs, PositionsOneRowShortAreRejectedByEveryEntryPoint)
{
    const sweep_fixture fx;
    positions_t short_positions = fx.positions;
    short_positions.pop_back();
    for (const auto& [name, run] : fx.entry_points())
        EXPECT_THROW(run(short_positions, {}), contract_violation) << name;
    EXPECT_THROW(fx.adversary(short_positions), contract_violation);
}

TEST(SweepInputs, TimelineWiderThanTheBuilderIsRejectedByEveryEntryPoint)
{
    const sweep_fixture fx;
    const auto wide = two_rows(fx.builder.n_satellites() + 1);
    for (const auto& [name, run] : fx.entry_points())
        EXPECT_THROW(run(fx.positions, wide), contract_violation) << name;
}

} // namespace
} // namespace ssplane
