#include "traffic/adversary.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/expects.h"

namespace ssplane::traffic {

lsn::failure_timeline generate_adversary_timeline(
    const lsn::snapshot_builder& builder, std::span<const double> offsets_s,
    const std::vector<std::vector<vec3>>& positions,
    const lsn::failure_scenario& scenario, const demand::demand_model& demand,
    const traffic_sweep_options& options)
{
    expects(scenario.mode == lsn::failure_mode::greedy_adversary,
            "adversary timeline needs a greedy_adversary scenario");
    const auto& topology = builder.topology();
    lsn::validate(scenario, topology);
    // This generates the timeline, so only the grid is checked here: an
    // empty timeline spans any builder.
    lsn::validate_sweep_inputs(builder, offsets_s, positions, {});
    validate(options.capacity);

    const int n = builder.n_satellites();
    const int n_steps = static_cast<int>(offsets_s.size());
    const int n_planes = lsn::plane_count(topology);

    lsn::failure_timeline timeline;
    timeline.n_satellites = n;
    timeline.n_steps = n_steps;
    timeline.masks.assign(
        static_cast<std::size_t>(n_steps) * static_cast<std::size_t>(n), 0);
    if (n_steps == 0 || n == 0) return timeline;

    // The attacker's planning grid: every stride-th sweep step. Scoring a
    // candidate on the subsampled grid trades oracle fidelity for a
    // stride-fold cheaper search; stride 1 is the exact oracle.
    std::vector<double> eval_offsets;
    std::vector<std::vector<vec3>> eval_positions;
    for (int i = 0; i < n_steps; i += scenario.adversary_eval_stride) {
        eval_offsets.push_back(offsets_s[static_cast<std::size_t>(i)]);
        eval_positions.push_back(positions[static_cast<std::size_t>(i)]);
    }

    std::vector<std::uint8_t> current(static_cast<std::size_t>(n), 0);
    std::vector<std::uint8_t> plane_dead(static_cast<std::size_t>(n_planes), 0);
    const auto kill_plane = [&](int p, std::vector<std::uint8_t>& mask) {
        for (int s = 0; s < n; ++s)
            if (topology.satellites[static_cast<std::size_t>(s)].plane == p)
                mask[static_cast<std::size_t>(s)] = 1;
    };

    const auto row = [&](int i) {
        return timeline.masks.data() +
               static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
    };

    int fill_from = 0; // next timeline row still holding the previous mask
    for (int strike = 0; strike < scenario.adversary_budget; ++strike) {
        const int strike_step =
            scenario.adversary_first_strike_step +
            strike * scenario.adversary_strike_interval_steps;
        if (strike_step >= n_steps) break; // schedule ran past the horizon

        // Greedy choice: trial-kill every surviving plane and keep the one
        // that leaves the least delivered traffic. The candidate loop is
        // serial (each inner sweep parallelizes over steps), so the argmin
        // and its lowest-index tie-break never depend on the thread count.
        int best_plane = -1;
        double best_delivered = std::numeric_limits<double>::infinity();
        for (int p = 0; p < n_planes; ++p) {
            if (plane_dead[static_cast<std::size_t>(p)]) continue;
            auto trial = current;
            kill_plane(p, trial);
            const auto sweep = run_traffic_sweep_timeline(
                builder, eval_offsets, eval_positions,
                lsn::failure_timeline::from_static_mask(std::move(trial)), demand,
                options);
            if (sweep.metrics.delivered_gbps_mean < best_delivered) {
                best_delivered = sweep.metrics.delivered_gbps_mean;
                best_plane = p;
            }
        }
        if (best_plane < 0) break; // every plane already dead

        // Rows up to the strike keep the pre-strike mask; the strike lands
        // at `strike_step` and is permanent.
        for (; fill_from < strike_step; ++fill_from)
            std::copy_n(current.data(), n, row(fill_from));
        plane_dead[static_cast<std::size_t>(best_plane)] = 1;
        kill_plane(best_plane, current);
    }
    for (; fill_from < n_steps; ++fill_from)
        std::copy_n(current.data(), n, row(fill_from));
    return timeline;
}

} // namespace ssplane::traffic
