#include "traffic/adversary.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "obs/metrics.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::traffic {

lsn::failure_timeline generate_adversary_timeline(
    const lsn::sweep_geometry& geometry, const lsn::failure_scenario& scenario,
    const demand::demand_model& demand, const traffic_sweep_options& options)
{
    expects(scenario.mode == lsn::failure_mode::greedy_adversary,
            "adversary timeline needs a greedy_adversary scenario");
    const auto& builder = geometry.builder();
    const auto& topology = builder.topology();
    lsn::validate(scenario, topology);
    validate(options.matrix);
    validate(options.capacity);

    const int n = builder.n_satellites();
    const int n_steps = geometry.n_steps();
    const int n_planes = lsn::plane_count(topology);

    lsn::failure_timeline timeline;
    timeline.n_satellites = n;
    timeline.n_steps = n_steps;
    timeline.masks.assign(
        static_cast<std::size_t>(n_steps) * static_cast<std::size_t>(n), 0);
    if (n == 0) return timeline;

    // The attacker's planning grid: every stride-th sweep step. Scoring a
    // candidate on the subsampled grid trades oracle fidelity for a
    // stride-fold cheaper search; stride 1 is the exact oracle. Each
    // planning step's gravity matrix depends only on its instant, so it is
    // built once for the whole generation.
    std::vector<std::size_t> plan_steps;
    std::vector<traffic_matrix> matrices;
    for (int i = 0; i < n_steps; i += scenario.adversary_eval_stride) {
        const auto step = static_cast<std::size_t>(i);
        plan_steps.push_back(step);
        matrices.push_back(build_traffic_matrix(
            demand, builder.stations(),
            builder.epoch().plus_seconds(geometry.offsets()[step]), options.matrix));
    }
    const int n_plan = static_cast<int>(plan_steps.size());
    OBS_COUNT_N("traffic.adversary.unplanned_steps", n_steps - n_plan);
    const auto assign_at = [&](int k, std::span<const std::uint8_t> mask,
                               const route_replay& replay = {}) {
        const auto ki = static_cast<std::size_t>(k);
        return assign_flows(geometry.snapshot(static_cast<int>(plan_steps[ki]), mask),
                            matrices[ki], options.capacity, replay);
    };

    std::vector<std::uint8_t> current(static_cast<std::size_t>(n), 0);
    std::vector<std::uint8_t> plane_dead(static_cast<std::size_t>(n_planes), 0);
    const auto plane_of = [&](int s) {
        return topology.satellites[static_cast<std::size_t>(s)].plane;
    };
    const auto kill_plane = [&](int p, std::vector<std::uint8_t>& mask) {
        for (int s = 0; s < n; ++s)
            if (plane_of(s) == p) mask[static_cast<std::size_t>(s)] = 1;
    };

    const auto row = [&](int i) {
        return timeline.masks.data() +
               static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
    };

    // One base assignment per planning step under the current mask: its
    // delivered Gbps, which planes have a satellite on a path it queried
    // (failing any other plane leaves that step's assignment as is), and
    // its route record, which the step's trials replay.
    struct base_step {
        double delivered_gbps = 0.0;
        std::vector<std::uint8_t> plane_on_path;
        route_record routes;
    };
    struct trial {
        int plane = 0;
        int step = 0; ///< Planning-grid index.
    };

    int fill_from = 0; // next timeline row still holding the previous mask
    for (int strike = 0; strike < scenario.adversary_budget; ++strike) {
        const int strike_step =
            scenario.adversary_first_strike_step +
            strike * scenario.adversary_strike_interval_steps;
        if (strike_step >= n_steps) break; // schedule ran past the horizon

        const auto base = parallel_map<base_step>(
            static_cast<std::size_t>(n_plan), [&](std::size_t k) {
                auto flow = assign_at(static_cast<int>(k), current);
                base_step out;
                out.delivered_gbps = flow.delivered_gbps;
                out.plane_on_path.assign(static_cast<std::size_t>(n_planes), 0);
                for (const int v : flow.routes.nodes)
                    if (v < n) out.plane_on_path[static_cast<std::size_t>(plane_of(v))] = 1;
                out.routes = std::move(flow.routes);
                return out;
            });

        // Trial-assign only the (surviving plane, step) pairs the base
        // routing touched, plane-major, in one flat fan-out; each trial
        // replays its step's base record up to the first tree that differs.
        std::vector<trial> trials;
        std::size_t n_pairs = 0;
        for (int p = 0; p < n_planes; ++p) {
            if (plane_dead[static_cast<std::size_t>(p)]) continue;
            n_pairs += static_cast<std::size_t>(n_plan);
            for (int k = 0; k < n_plan; ++k)
                if (base[static_cast<std::size_t>(k)]
                        .plane_on_path[static_cast<std::size_t>(p)] != 0)
                    trials.push_back({p, k});
        }
        OBS_COUNT_N("traffic.adversary.trials", trials.size());
        OBS_COUNT_N("traffic.adversary.pruned", n_pairs - trials.size());
        const auto trial_delivered =
            parallel_map<double>(trials.size(), [&](std::size_t t) {
                auto mask = current;
                kill_plane(trials[t].plane, mask);
                const auto step = static_cast<std::size_t>(trials[t].step);
                return assign_at(trials[t].step, mask, {&base[step].routes, current, mask})
                    .delivered_gbps;
            });

        // Greedy choice: keep the plane whose loss leaves the least
        // delivered traffic. Each score is the step-ordered sum that
        // `run_traffic_sweep_timeline` averages for the trial mask, and the
        // argmin runs serially in plane order, so the lowest index wins ties
        // and the choice never depends on the thread count.
        int best_plane = -1;
        double best_delivered = std::numeric_limits<double>::infinity();
        std::size_t next = 0; // cursor into the plane-major trials
        for (int p = 0; p < n_planes; ++p) {
            if (plane_dead[static_cast<std::size_t>(p)]) continue;
            double delivered_sum = 0.0;
            for (int k = 0; k < n_plan; ++k) {
                const bool tried = next < trials.size() && trials[next].plane == p &&
                                   trials[next].step == k;
                delivered_sum += tried ? trial_delivered[next++]
                                       : base[static_cast<std::size_t>(k)].delivered_gbps;
            }
            const double delivered_mean = delivered_sum / n_plan;
            if (delivered_mean < best_delivered) {
                best_delivered = delivered_mean;
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
