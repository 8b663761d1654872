#include "tempo/time_expanded_graph.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/expects.h"
#include "util/parallel.h"

namespace ssplane::tempo {

void validate(const bulk_route_options& options)
{
    traffic::validate(options.capacity);
    expects(std::isfinite(options.sat_buffer_gb) && options.sat_buffer_gb >= 0.0,
            "satellite buffer must be finite and non-negative");
    expects(options.max_paths_per_request >= 1,
            "need at least one augmenting path per request");
    expects(std::isfinite(options.last_step_s) && options.last_step_s >= 0.0,
            "last step dwell must be finite and non-negative");
}

std::vector<double> step_dwells(std::span<const double> offsets_s,
                                double last_step_s)
{
    expects(!offsets_s.empty(), "need at least one step");
    std::vector<double> dwell(offsets_s.size());
    for (std::size_t i = 0; i + 1 < offsets_s.size(); ++i) {
        dwell[i] = offsets_s[i + 1] - offsets_s[i];
        expects(dwell[i] > 0.0, "offsets must be strictly increasing");
    }
    if (last_step_s > 0.0)
        dwell.back() = last_step_s;
    else {
        expects(offsets_s.size() > 1,
                "single-step grids need an explicit last_step_s");
        dwell.back() = dwell[dwell.size() - 2];
    }
    return dwell;
}

void time_expanded_graph::reset_loads()
{
    for (auto& s : slots) s.load_gb = 0.0;
}

std::vector<double> time_expanded_graph::satellite_buffer_high_water_gb() const
{
    std::vector<double> high_water(static_cast<std::size_t>(n_satellites), 0.0);
    for (const auto& s : slots) {
        if (!s.storage || s.a >= n_satellites) continue;
        auto& hw = high_water[static_cast<std::size_t>(s.a)];
        hw = std::max(hw, s.load_gb);
    }
    return high_water;
}

time_expanded_graph build_time_expanded_graph_timeline(
    std::span<const lsn::network_snapshot> snapshots,
    std::span<const double> offsets_s, const lsn::failure_timeline& timeline,
    const bulk_route_options& options)
{
    OBS_SPAN("tempo.graph.build");
    OBS_COUNT("tempo.graph.builds");
    validate(options);
    expects(!snapshots.empty(), "need at least one snapshot");
    expects(snapshots.size() == offsets_s.size(),
            "need one offset per snapshot");

    time_expanded_graph graph;
    graph.n_satellites = snapshots[0].n_satellites;
    graph.n_ground = snapshots[0].n_ground;
    graph.n_steps = static_cast<int>(snapshots.size());
    graph.options = options;
    graph.offsets_s.assign(offsets_s.begin(), offsets_s.end());
    graph.dwell_s = step_dwells(offsets_s, options.last_step_s);
    lsn::validate(timeline, graph.n_satellites, graph.n_steps);

    // Time nodes are step-major, so walking the steps, then each step's
    // nodes in order, emits the CSR rows in time-node order. A row lists
    // its transmission arcs in the snapshot row's link-id order, then its
    // storage arc. Step i's slot for link id is step i's first slot plus id.
    // Reserve the exact unfailed sizes (upper bounds under failures).
    std::size_t n_links = 0;
    for (const auto& snap : snapshots) n_links += snap.links.size();
    const auto n_stored = static_cast<std::size_t>(graph.n_steps - 1);
    graph.slots.reserve(n_links + n_stored * static_cast<std::size_t>(graph.n_satellites));
    graph.arcs.reserve(2 * n_links + n_stored * static_cast<std::size_t>(graph.n_nodes()));
    graph.arc_begin.reserve(static_cast<std::size_t>(graph.n_time_nodes()) + 1);
    graph.arc_begin.push_back(0);
    for (int i = 0; i < graph.n_steps; ++i) {
        const auto& snap = snapshots[static_cast<std::size_t>(i)];
        expects(snap.n_satellites == graph.n_satellites &&
                    snap.n_ground == graph.n_ground,
                "snapshots must share one node set");
        const double dwell = graph.dwell_s[static_cast<std::size_t>(i)];
        const int first_slot = static_cast<int>(graph.slots.size());
        for (const auto& link : snap.links) {
            time_expanded_graph::slot s;
            s.step = i;
            s.a = link.a;
            s.b = link.b;
            s.uplink = link.b >= graph.n_satellites;
            s.capacity_gb = (s.uplink ? options.capacity.uplink_capacity_gbps
                                      : options.capacity.isl_capacity_gbps) *
                            dwell;
            graph.slots.push_back(s);
        }

        // Storage arcs into the next step: buffered satellites (live at
        // this step, with a non-zero buffer) get a capacity slot; ground
        // stores for free. A satellite that dies mid-sweep loses its
        // storage arcs from its failure step on.
        const bool stores = i + 1 < graph.n_steps;
        const auto step_failed = timeline.step(i);
        for (int u = 0; u < graph.n_nodes(); ++u) {
            for (const auto& arc : snap.arcs_of(u))
                graph.arcs.push_back(
                    {graph.time_node(arc.to, i), first_slot + arc.link,
                     snap.links[static_cast<std::size_t>(arc.link)].latency_s});
            const bool satellite = u < graph.n_satellites;
            if (stores && !satellite)
                graph.arcs.push_back({graph.time_node(u, i + 1), -1, dwell});
            if (stores && satellite && options.sat_buffer_gb > 0.0 &&
                (step_failed.empty() || step_failed[static_cast<std::size_t>(u)] == 0)) {
                time_expanded_graph::slot store;
                store.step = i;
                store.a = u;
                store.b = u;
                store.storage = true;
                store.capacity_gb = options.sat_buffer_gb;
                graph.arcs.push_back({graph.time_node(u, i + 1),
                                      static_cast<int>(graph.slots.size()), dwell});
                graph.slots.push_back(store);
            }
            graph.arc_begin.push_back(static_cast<std::int64_t>(graph.arcs.size()));
        }
    }
    OBS_COUNT_N("tempo.graph.arcs", graph.arcs.size());
    return graph;
}

time_expanded_graph build_time_expanded_graph_timeline(
    const lsn::snapshot_builder& builder, std::span<const double> offsets_s,
    const std::vector<std::vector<vec3>>& positions,
    const lsn::failure_timeline& timeline, const bulk_route_options& options)
{
    validate(options); // fail before paying the parallel snapshots
    lsn::validate(timeline, builder.n_satellites(), static_cast<int>(offsets_s.size()));
    expects(positions.size() == offsets_s.size(), "positions must cover every offset");
    const auto snapshots = parallel_map<lsn::network_snapshot>(
        offsets_s.size(), [&](std::size_t i) {
            return builder.snapshot_from_positions(positions[i],
                                                   timeline.step(static_cast<int>(i)));
        });
    return build_time_expanded_graph_timeline(snapshots, offsets_s, timeline, options);
}

} // namespace ssplane::tempo
