// Shared evaluation substrate of an experiment campaign (ROADMAP "scenario
// batching"; paper §2.1/§5 joint sustainability-survivability studies).
//
// Every sweep engine (`lsn::run_scenario_sweep_timeline`,
// `traffic::run_traffic_sweep_timeline`, `tempo::run_bulk_sweep_timeline`,
// ...) needs the same shared inputs: the step geometry and the scenario's
// failure timeline. An `evaluation_context` is built once per (topology,
// stations, epoch, time grid) and owns exactly that shared state:
//
//   * one `lsn::sweep_geometry`: the snapshot builder, the `sweep_offsets`
//     time grid, its one propagation pass and each step's unfailed links,
//   * one failure-timeline cache keyed on `lsn::canonical(scenario)`, the
//     whole input of a draw — scenarios with equal canonical forms reuse
//     one timeline bit-identically, and the generator is handed that key,
//     so a field the key drops can never change a draw.
//     `traffic::generate_adversary_timeline` draws the greedy adversary,
//     `lsn::sample_failure_timeline` every other mode (a static mode's
//     timeline is the single-row wrap of its `sample_failures` mask).
//
// Every metric engine of a campaign then evaluates against this one
// context, so a cross-metric study pays the shared work once instead of
// once per (scenario, engine) cell.
#ifndef SSPLANE_EXP_EVALUATION_CONTEXT_H
#define SSPLANE_EXP_EVALUATION_CONTEXT_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "lsn/scenario.h"
#include "traffic/traffic_sweep.h"

namespace ssplane::exp {

/// Cumulative cache telemetry of one `evaluation_context`: its timeline
/// lookups and its geometry's step builds, counted with plain atomics
/// whatever the SSPLANE_OBS option (lookups are mirrored into the obs
/// registry as `exp.timeline_cache.hit/miss`). Racing first lookups each
/// count one miss — every racer pays the (deterministic) generation, the
/// cache keeps one copy.
struct cache_statistics {
    std::uint64_t timeline_hits = 0;
    std::uint64_t timeline_misses = 0;
    std::uint64_t snapshot_builds = 0;

    double timeline_hit_rate() const noexcept
    {
        const std::uint64_t total = timeline_hits + timeline_misses;
        return total > 0 ? static_cast<double>(timeline_hits) /
                               static_cast<double>(total)
                         : 0.0;
    }

    friend bool operator==(const cache_statistics&,
                           const cache_statistics&) = default;
};

/// a - b, component-wise: the telemetry delta across one campaign run.
cache_statistics operator-(const cache_statistics& a, const cache_statistics& b);

class evaluation_context {
public:
    /// Builds the geometry's builder, time grid and propagation pass. The
    /// topology must outlive the context (it is referenced by the builder,
    /// not copied).
    evaluation_context(const lsn::lsn_topology& topology,
                       std::vector<lsn::ground_station> stations,
                       const astro::instant& epoch,
                       const lsn::scenario_sweep_options& grid = {});

    const lsn::sweep_geometry& geometry() const noexcept { return geometry_; }
    const lsn::snapshot_builder& builder() const noexcept { return geometry_.builder(); }
    const astro::instant& epoch() const noexcept { return builder().epoch(); }
    std::span<const double> offsets() const noexcept { return geometry_.offsets(); }
    const std::vector<std::vector<vec3>>& positions() const noexcept
    {
        return geometry_.positions();
    }
    int n_steps() const noexcept { return geometry_.n_steps(); }

    /// The scenario's failure timeline, generated on first use and cached.
    /// Validates the scenario against the topology before the lookup.
    /// Scenarios with equal `lsn::canonical` forms hit one cache entry — a
    /// `none` baseline dedupes regardless of its seed. Static
    /// modes (`none`, `random_loss`, `plane_attack`, `radiation_poisson`)
    /// are the single-row wrap of their `sample_failures` mask; the
    /// time-correlated modes generate the per-step sequence over this
    /// context's time grid; `greedy_adversary` additionally requires an
    /// oracle set via `set_adversary_oracle` (a `contract_violation`
    /// otherwise). The returned reference stays valid for the context's
    /// lifetime. Thread-safe; the generators are deterministic, so
    /// concurrent first calls agree.
    const lsn::failure_timeline& timeline(const lsn::failure_scenario& scenario) const;

    /// Distinct timelines generated so far.
    // DETLINT-ALLOW(unused-public-api): the dedup and race tests count the
    // distinct cached timelines; cache_stats() cannot, since every racing
    // first lookup counts a miss.
    std::size_t timeline_cache_size() const;

    /// Cumulative timeline hit/miss and step-build telemetry since
    /// construction. `run_campaign` snapshots this before and after to
    /// report the per-campaign delta in `campaign_result`.
    cache_statistics cache_stats() const noexcept;

    /// Arm the greedy adversary: the demand model and traffic knobs its
    /// delivered-traffic oracle scores strikes against. The demand model
    /// must outlive the context. Call before the first `greedy_adversary`
    /// timeline lookup (changing the oracle after a lookup would silently
    /// disagree with the cached timeline, so re-arming is rejected once a
    /// timeline has been generated with the previous oracle).
    void set_adversary_oracle(const demand::demand_model& demand,
                              traffic::traffic_sweep_options options = {});

private:
    lsn::sweep_geometry geometry_;
    const demand::demand_model* adversary_demand_ = nullptr;
    traffic::traffic_sweep_options adversary_options_;
    mutable bool adversary_oracle_used_ = false;
    mutable std::mutex timeline_mutex_;
    /// Keyed on `lsn::canonical(scenario)`.
    mutable std::map<lsn::failure_scenario, lsn::failure_timeline> timelines_;
    // Cache telemetry (see cache_statistics). Relaxed: counts only, no
    // ordering is implied against the cache contents.
    mutable std::atomic<std::uint64_t> timeline_hits_{0};
    mutable std::atomic<std::uint64_t> timeline_misses_{0};
};

} // namespace ssplane::exp

#endif // SSPLANE_EXP_EVALUATION_CONTEXT_H
