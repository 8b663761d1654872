#include "exp/evaluation_context.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "traffic/adversary.h"
#include "util/expects.h"

namespace ssplane::exp {

cache_statistics operator-(const cache_statistics& a, const cache_statistics& b)
{
    return {a.timeline_hits - b.timeline_hits,
            a.timeline_misses - b.timeline_misses,
            a.snapshot_builds - b.snapshot_builds};
}

evaluation_context::evaluation_context(const lsn::lsn_topology& topology,
                                       std::vector<lsn::ground_station> stations,
                                       const astro::instant& epoch,
                                       const lsn::scenario_sweep_options& grid)
    : geometry_([&] {
          OBS_SPAN("exp.context.build"); // covers the propagation pass
          OBS_COUNT("exp.context.builds");
          return lsn::sweep_geometry(
              lsn::snapshot_builder(topology, std::move(stations), epoch,
                                    grid.min_elevation_rad, grid.max_isl_range_m),
              lsn::sweep_offsets(grid.duration_s, grid.step_s));
      }())
{
}

void evaluation_context::set_adversary_oracle(const demand::demand_model& demand,
                                              traffic::traffic_sweep_options options)
{
    // The used-flag and the oracle pointer share the cache mutex: arming
    // races against concurrent timeline() lookups otherwise.
    const std::lock_guard lock(timeline_mutex_);
    expects(!adversary_oracle_used_,
            "adversary oracle cannot be re-armed after a greedy_adversary "
            "timeline has been generated; it would disagree with the cache");
    adversary_demand_ = &demand;
    adversary_options_ = std::move(options);
}

const lsn::failure_timeline& evaluation_context::timeline(
    const lsn::failure_scenario& scenario) const
{
    // Reject invalid knobs before the cache lookup: a NaN knob would break
    // the map's ordering and could alias an existing valid entry.
    const auto& topology = builder().topology();
    lsn::validate(scenario, topology);
    // The generators below see only the key, so the fields it drops cannot
    // change a draw.
    auto key = lsn::canonical(scenario);
    {
        const std::lock_guard lock(timeline_mutex_);
        const auto it = timelines_.find(key);
        if (it != timelines_.end()) {
            timeline_hits_.fetch_add(1, std::memory_order_relaxed);
            OBS_COUNT("exp.timeline_cache.hit");
            return it->second;
        }
    }
    timeline_misses_.fetch_add(1, std::memory_order_relaxed);
    OBS_COUNT("exp.timeline_cache.miss");
    OBS_SPAN("exp.timeline_generate");
    // Generate outside the lock (the adversary oracle in particular runs
    // full traffic sweeps); generation is deterministic, so a racing
    // duplicate produces the identical timeline and the first insert wins.
    lsn::failure_timeline generated;
    if (key.mode == lsn::failure_mode::greedy_adversary) {
        // Snapshot the oracle under the lock; the flag write must also be
        // mutex-guarded so it cannot race a concurrent set_adversary_oracle.
        const demand::demand_model* demand = nullptr;
        traffic::traffic_sweep_options oracle_options;
        {
            const std::lock_guard lock(timeline_mutex_);
            expects(adversary_demand_ != nullptr,
                    "greedy_adversary scenarios need set_adversary_oracle("
                    "demand, options) on the evaluation context before the "
                    "first lookup");
            adversary_oracle_used_ = true;
            demand = adversary_demand_;
            oracle_options = adversary_options_;
        }
        generated =
            traffic::generate_adversary_timeline(geometry_, key, *demand, oracle_options);
    } else {
        generated = lsn::sample_failure_timeline(topology, key, offsets(), epoch());
    }
    const std::lock_guard lock(timeline_mutex_);
    return timelines_.emplace(std::move(key), std::move(generated)).first->second;
}

std::size_t evaluation_context::timeline_cache_size() const
{
    const std::lock_guard lock(timeline_mutex_);
    return timelines_.size();
}

cache_statistics evaluation_context::cache_stats() const noexcept
{
    return {timeline_hits_.load(std::memory_order_relaxed),
            timeline_misses_.load(std::memory_order_relaxed), geometry_.builds()};
}

} // namespace ssplane::exp
