#include "lsn/scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "astro/constants.h"
#include "lsn/failures.h"
#include "lsn/routing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "radiation/solar_cycle.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/union_find.h"

namespace ssplane::lsn {

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

// Sub-stream purposes of `rng::split(seed, purpose, step)`. Disjoint from
// the raw `rng(seed)` stream the one-shot `sample_failures` draws consume,
// so timeline evolution can never perturb a legacy mask on the same seed.
constexpr std::uint64_t purpose_cascade = 1;
constexpr std::uint64_t purpose_storm = 2;

/// Mark `k` distinct indices out of `n` via a partial Fisher-Yates shuffle.
std::vector<int> draw_distinct(int n, int k, rng& r)
{
    std::vector<int> idx(static_cast<std::size_t>(n));
    std::iota(idx.begin(), idx.end(), 0);
    for (int j = 0; j < k; ++j) {
        const auto pick = static_cast<std::size_t>(r.uniform_int(j, n - 1));
        std::swap(idx[static_cast<std::size_t>(j)], idx[pick]);
    }
    idx.resize(static_cast<std::size_t>(k));
    return idx;
}

/// Index of unordered station pair (a, b), a < b, in (0,1), (0,2), ... order.
std::size_t pair_index(int a, int b, int n)
{
    return static_cast<std::size_t>(a * n - a * (a + 1) / 2 + (b - a - 1));
}

} // namespace

snapshot_builder::snapshot_builder(const lsn_topology& topology,
                                   std::vector<ground_station> stations,
                                   const astro::instant& epoch,
                                   double min_elevation_rad,
                                   double max_isl_range_m)
    : topology_(&topology),
      stations_(std::move(stations)),
      epoch_(epoch),
      min_elevation_rad_(min_elevation_rad),
      max_isl_range_m_(max_isl_range_m)
{
    expects(std::isfinite(min_elevation_rad) &&
                std::abs(min_elevation_rad) <= pi / 2.0,
            "minimum elevation must be finite radians in [-pi/2, pi/2]");
    expects(max_isl_range_m > 0.0, "ISL range must be positive");
    propagators_.reserve(topology.satellites.size());
    for (const auto& sat : topology.satellites)
        propagators_.emplace_back(sat.elements, epoch);
    ground_ecef_.reserve(stations_.size());
    for (const auto& gs : stations_)
        ground_ecef_.push_back(astro::geodetic_to_ecef(
            {gs.latitude_deg, gs.longitude_deg, 0.0}));
}

std::vector<std::vector<vec3>> snapshot_builder::positions_at_offsets(
    std::span<const double> offsets_s) const
{
    OBS_SPAN("lsn.propagate");
    OBS_COUNT("lsn.propagation_passes");
    const std::size_t n_steps = offsets_s.size();
    const std::size_t n_sats = propagators_.size();
    std::vector<double> gmst(n_steps);
    for (std::size_t i = 0; i < n_steps; ++i)
        gmst[i] = astro::gmst_rad(epoch_.plus_seconds(offsets_s[i]));

    std::vector<std::vector<vec3>> out(n_steps, std::vector<vec3>(n_sats));
    parallel_for(n_sats, [&](std::size_t begin, std::size_t end) {
        std::vector<astro::state_vector> states(n_steps);
        for (std::size_t s = begin; s < end; ++s) {
            propagators_[s].states_at_offsets(epoch_, offsets_s, states);
            for (std::size_t i = 0; i < n_steps; ++i)
                out[i][s] = astro::eci_to_ecef_at_gmst(states[i].position_m, gmst[i]);
        }
    });
    return out;
}

std::vector<network_snapshot::link> snapshot_builder::unfailed_links(
    const std::vector<vec3>& sat_positions_ecef) const
{
    OBS_SPAN("lsn.snapshot.build");
    OBS_COUNT("lsn.snapshot.builds");
    expects(sat_positions_ecef.size() == propagators_.size(),
            "positions/satellite count mismatch");
    // Links in creation order: the topology's ISLs within range, then each
    // station's ground links in satellite order.
    std::vector<network_snapshot::link> links;
    for (const auto& link : topology_->links) {
        const double d = (sat_positions_ecef[static_cast<std::size_t>(link.a)] -
                          sat_positions_ecef[static_cast<std::size_t>(link.b)]).norm();
        if (d <= max_isl_range_m_)
            links.push_back({link.a, link.b, d / astro::speed_of_light_m_s});
    }
    for (int g = 0; g < n_ground(); ++g) {
        const vec3& site = ground_ecef_[static_cast<std::size_t>(g)];
        for (int s = 0; s < n_satellites(); ++s) {
            const vec3& sat = sat_positions_ecef[static_cast<std::size_t>(s)];
            if (astro::elevation_angle_rad(site, sat) >= min_elevation_rad_)
                links.push_back({s, n_satellites() + g,
                                 (sat - site).norm() / astro::speed_of_light_m_s});
        }
    }
    return links;
}

namespace {

/// The one masking rule (see `sweep_geometry::snapshot`).
network_snapshot filtered_snapshot(int n_satellites, int n_ground,
                                   std::span<const network_snapshot::link> links,
                                   std::span<const std::uint8_t> failed)
{
    OBS_COUNT("lsn.snapshot.filters");
    expects(failed.empty() || failed.size() == static_cast<std::size_t>(n_satellites),
            "failure mask size mismatch");
    const auto alive = [&](int node) {
        return node >= n_satellites || failed.empty() ||
               failed[static_cast<std::size_t>(node)] == 0;
    };
    std::vector<network_snapshot::link> kept;
    kept.reserve(links.size());
    for (const auto& link : links)
        if (alive(link.a) && alive(link.b)) kept.push_back(link);
    return make_network_snapshot(n_satellites, n_ground, std::move(kept));
}

} // namespace

network_snapshot snapshot_builder::snapshot_from_positions(
    const std::vector<vec3>& sat_positions_ecef,
    std::span<const std::uint8_t> failed) const
{
    return filtered_snapshot(n_satellites(), n_ground(),
                             unfailed_links(sat_positions_ecef), failed);
}

sweep_geometry::sweep_geometry(snapshot_builder builder, std::vector<double> offsets_s)
    : builder_(std::move(builder)), offsets_(std::move(offsets_s)),
      positions_(builder_.positions_at_offsets(offsets_)), steps_(offsets_.size())
{
    expects(!offsets_.empty(), "a sweep grid needs at least one step");
}

network_snapshot sweep_geometry::snapshot(int step,
                                          std::span<const std::uint8_t> failed) const
{
    expects(step >= 0 && step < n_steps(), "sweep step out of range");
    const auto i = static_cast<std::size_t>(step);
    std::call_once(steps_[i].built, [&] {
        steps_[i].links = builder_.unfailed_links(positions_[i]);
        builds_.fetch_add(1, std::memory_order_relaxed);
    });
    return filtered_snapshot(builder_.n_satellites(), builder_.n_ground(),
                             steps_[i].links, failed);
}

namespace {

/// True for the modes that evolve a per-step timeline and so have no
/// single static mask.
bool is_timeline_mode(failure_mode mode) noexcept
{
    return mode == failure_mode::kessler_cascade ||
           mode == failure_mode::solar_storm ||
           mode == failure_mode::greedy_adversary;
}

/// The plane fluences feed annual_failure_rate (and, through `canonical`,
/// the campaign's timeline-cache key), so they must be sane numbers —
/// shared by the radiation_poisson and solar_storm validation arms.
void validate_fluence(const failure_scenario& scenario)
{
    for (const double fluence : scenario.plane_daily_fluence)
        expects(std::isfinite(fluence) && fluence >= 0.0,
                "plane fluence must be finite and non-negative");
}

} // namespace

void validate(const failure_scenario& scenario)
{
    switch (scenario.mode) {
    case failure_mode::none:
        break;

    case failure_mode::random_loss:
        expects(std::isfinite(scenario.loss_fraction) &&
                    scenario.loss_fraction >= 0.0 && scenario.loss_fraction <= 1.0,
                "loss fraction must be in [0, 1]");
        break;

    case failure_mode::plane_attack:
        expects(scenario.planes_attacked >= 0,
                "planes_attacked must be non-negative");
        break;

    case failure_mode::radiation_poisson:
        expects(std::isfinite(scenario.horizon_days) && scenario.horizon_days > 0.0,
                "horizon_days must be finite and positive");
        validate_fluence(scenario);
        break;

    case failure_mode::kessler_cascade:
        expects(scenario.cascade_initial_hits >= 0,
                "cascade_initial_hits must be non-negative");
        expects(std::isfinite(scenario.cascade_base_daily_hazard) &&
                    scenario.cascade_base_daily_hazard >= 0.0,
                "cascade base daily hazard must be finite and non-negative");
        expects(std::isfinite(scenario.cascade_escalation) &&
                    scenario.cascade_escalation >= 0.0,
                "cascade escalation factor must be finite and non-negative");
        expects(std::isfinite(scenario.cascade_cooldown_s) &&
                    scenario.cascade_cooldown_s > 0.0,
                "cascade cooldown must be finite and positive");
        break;

    case failure_mode::solar_storm:
        expects(std::isfinite(scenario.storm_start_s) &&
                    scenario.storm_start_s >= 0.0,
                "storm start must be finite and non-negative");
        expects(std::isfinite(scenario.storm_duration_s) &&
                    scenario.storm_duration_s > 0.0,
                "storm duration must be finite and positive");
        expects(std::isfinite(scenario.storm_fluence_multiplier) &&
                    scenario.storm_fluence_multiplier >= 1.0,
                "storm fluence multiplier must be finite and >= 1");
        validate_fluence(scenario);
        break;

    case failure_mode::greedy_adversary:
        expects(scenario.adversary_budget >= 0,
                "adversary budget must be non-negative");
        expects(scenario.adversary_strike_interval_steps >= 1,
                "adversary strike interval must be at least one step");
        expects(scenario.adversary_first_strike_step >= 0,
                "adversary first strike step must be non-negative");
        expects(scenario.adversary_eval_stride >= 1,
                "adversary eval stride must be at least 1");
        break;
    }
}

void validate(const failure_scenario& scenario, const lsn_topology& topology)
{
    validate(scenario);
    if (scenario.mode == failure_mode::plane_attack)
        expects(scenario.planes_attacked <= plane_count(topology),
                "planes_attacked must not exceed the plane count");
    if (scenario.mode == failure_mode::radiation_poisson ||
        scenario.mode == failure_mode::solar_storm)
        expects(scenario.plane_daily_fluence.size() ==
                    static_cast<std::size_t>(plane_count(topology)),
                "plane_daily_fluence must have exactly one entry per plane");
    if (scenario.mode == failure_mode::kessler_cascade)
        expects(scenario.cascade_initial_hits <=
                    static_cast<int>(topology.satellites.size()),
                "cascade_initial_hits must not exceed the satellite count");
    if (scenario.mode == failure_mode::greedy_adversary)
        expects(scenario.adversary_budget <= plane_count(topology),
                "adversary budget must not exceed the plane count");
}

failure_scenario canonical(const failure_scenario& scenario)
{
    failure_scenario key;
    key.mode = scenario.mode;
    if (scenario.mode != failure_mode::none &&
        scenario.mode != failure_mode::greedy_adversary)
        key.seed = scenario.seed;
    switch (scenario.mode) {
    case failure_mode::none:
        break;
    case failure_mode::random_loss:
        key.loss_fraction = scenario.loss_fraction;
        break;
    case failure_mode::plane_attack:
        key.planes_attacked = scenario.planes_attacked;
        break;
    case failure_mode::radiation_poisson:
        key.plane_daily_fluence = scenario.plane_daily_fluence;
        key.horizon_days = scenario.horizon_days;
        break;
    case failure_mode::kessler_cascade:
        key.cascade_initial_hits = scenario.cascade_initial_hits;
        key.cascade_base_daily_hazard = scenario.cascade_base_daily_hazard;
        key.cascade_escalation = scenario.cascade_escalation;
        key.cascade_cooldown_s = scenario.cascade_cooldown_s;
        break;
    case failure_mode::solar_storm:
        key.plane_daily_fluence = scenario.plane_daily_fluence;
        key.storm_start_s = scenario.storm_start_s;
        key.storm_duration_s = scenario.storm_duration_s;
        key.storm_fluence_multiplier = scenario.storm_fluence_multiplier;
        break;
    case failure_mode::greedy_adversary:
        key.adversary_budget = scenario.adversary_budget;
        key.adversary_strike_interval_steps = scenario.adversary_strike_interval_steps;
        key.adversary_first_strike_step = scenario.adversary_first_strike_step;
        key.adversary_eval_stride = scenario.adversary_eval_stride;
        break;
    }
    return key;
}

int plane_count(const lsn_topology& topology)
{
    int n_planes = 0;
    for (const auto& sat : topology.satellites)
        n_planes = std::max(n_planes, sat.plane + 1);
    return n_planes;
}

std::vector<std::uint8_t> sample_failures(const lsn_topology& topology,
                                          const failure_scenario& scenario)
{
    validate(scenario, topology);
    expects(!is_timeline_mode(scenario.mode),
            "timeline failure modes have no single static mask; use "
            "sample_failure_timeline (or, for greedy_adversary, "
            "traffic::generate_adversary_timeline)");
    const int n = static_cast<int>(topology.satellites.size());
    std::vector<std::uint8_t> failed(static_cast<std::size_t>(n), 0);
    rng r(scenario.seed);

    switch (scenario.mode) {
    case failure_mode::none:
        break;

    case failure_mode::random_loss: {
        const int k = static_cast<int>(std::lround(scenario.loss_fraction * n));
        for (const int i : draw_distinct(n, k, r))
            failed[static_cast<std::size_t>(i)] = 1;
        break;
    }

    case failure_mode::plane_attack: {
        const int n_planes = plane_count(topology);
        const auto attacked =
            draw_distinct(n_planes, scenario.planes_attacked, r);
        std::vector<std::uint8_t> plane_hit(static_cast<std::size_t>(n_planes), 0);
        for (const int p : attacked) plane_hit[static_cast<std::size_t>(p)] = 1;
        for (int i = 0; i < n; ++i)
            failed[static_cast<std::size_t>(i)] =
                plane_hit[static_cast<std::size_t>(topology.satellites
                                                       [static_cast<std::size_t>(i)]
                                                           .plane)];
        break;
    }

    case failure_mode::radiation_poisson: {
        for (int i = 0; i < n; ++i) {
            const int plane = topology.satellites[static_cast<std::size_t>(i)].plane;
            const double rate = annual_failure_rate(
                scenario.plane_daily_fluence[static_cast<std::size_t>(plane)]);
            const double p_fail =
                1.0 - std::exp(-rate * scenario.horizon_days / 365.25);
            failed[static_cast<std::size_t>(i)] = r.bernoulli(p_fail) ? 1 : 0;
        }
        break;
    }

    case failure_mode::kessler_cascade:
    case failure_mode::solar_storm:
    case failure_mode::greedy_adversary:
        break; // unreachable: rejected by the timeline-mode guard above
    }
    return failed;
}

namespace {

/// Debris bookkeeping of the Kessler cascade: one loss deposits a full
/// unit in its own plane and half a unit in each (wrapping) adjacent
/// plane. Degenerate plane counts collapse naturally: a single plane gets
/// only its own unit, two planes share one 0.5 deposit (up == down).
void deposit_debris(std::vector<double>& debris, int plane)
{
    const int n_planes = static_cast<int>(debris.size());
    debris[static_cast<std::size_t>(plane)] += 1.0;
    if (n_planes <= 1) return;
    const int up = (plane + 1) % n_planes;
    const int down = (plane + n_planes - 1) % n_planes;
    debris[static_cast<std::size_t>(up)] += 0.5;
    if (down != up) debris[static_cast<std::size_t>(down)] += 0.5;
}

/// The one hazard loop of the cascade and the storm. Row 0 holds
/// `first_hits`; each later step copies the last row forward, asks
/// `hazard(t0, t1, p_fail)` for each plane's failure probability over
/// [t0, t1], and draws one Bernoulli per live satellite in index order.
/// `on_losses` sees row 0's hits, then each step's new losses after its
/// draws.
template <class Hazard, class OnLosses>
failure_timeline hazard_timeline(const lsn_topology& topology,
                                 std::span<const double> offsets_s, std::uint64_t seed,
                                 std::uint64_t purpose, std::span<const int> first_hits,
                                 Hazard hazard, OnLosses on_losses)
{
    const int n = static_cast<int>(topology.satellites.size());
    const int n_steps = static_cast<int>(offsets_s.size());

    failure_timeline timeline;
    timeline.n_satellites = n;
    timeline.n_steps = n_steps;
    timeline.masks.assign(
        static_cast<std::size_t>(n_steps) * static_cast<std::size_t>(n), 0);
    if (n == 0) return timeline;

    const auto row = [&](int i) {
        return timeline.masks.data() +
               static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
    };
    for (const int s : first_hits) row(0)[s] = 1;
    on_losses(first_hits);

    std::vector<double> p_fail(static_cast<std::size_t>(plane_count(topology)), 0.0);
    std::vector<int> new_failures;
    for (int i = 1; i < n_steps; ++i) {
        std::copy_n(row(i - 1), n, row(i));
        const double t0 = offsets_s[static_cast<std::size_t>(i - 1)];
        const double t1 = offsets_s[static_cast<std::size_t>(i)];
        expects(t1 - t0 > 0.0, "sweep offsets must be strictly increasing");
        hazard(t0, t1, std::span<double>(p_fail));

        // One sub-stream per step: adding or dropping steps never shifts
        // another step's draws, and failed satellites draw nothing.
        rng r = rng::split(seed, purpose, static_cast<std::uint64_t>(i));
        new_failures.clear();
        for (int s = 0; s < n; ++s) {
            if (row(i)[s]) continue;
            const int plane = topology.satellites[static_cast<std::size_t>(s)].plane;
            if (r.bernoulli(p_fail[static_cast<std::size_t>(plane)])) {
                row(i)[s] = 1;
                new_failures.push_back(s);
            }
        }
        on_losses(std::span<const int>(new_failures));
    }
    return timeline;
}

failure_timeline sample_cascade_timeline(const lsn_topology& topology,
                                         const failure_scenario& scenario,
                                         std::span<const double> offsets_s)
{
    const int n = static_cast<int>(topology.satellites.size());
    std::vector<double> debris(static_cast<std::size_t>(plane_count(topology)), 0.0);

    // Step 0: the triggering event. Distinct hits via the same partial
    // Fisher-Yates the one-shot modes use, on the cascade's own sub-stream.
    rng r = rng::split(scenario.seed, purpose_cascade, 0);
    const std::vector<int> hits = draw_distinct(n, scenario.cascade_initial_hits, r);

    const auto hazard = [&](double t0, double t1, std::span<double> p_fail) {
        // Deposited debris decays (deorbit / avoidance), then sets this
        // step's per-plane hazard on top of the ambient rate.
        const double dt_s = t1 - t0;
        const double decay = std::exp(-dt_s / scenario.cascade_cooldown_s);
        for (double& d : debris) d *= decay;
        const double dt_days = dt_s / 86400.0;
        for (std::size_t p = 0; p < p_fail.size(); ++p) {
            const double hazard_daily = scenario.cascade_base_daily_hazard +
                                        scenario.cascade_escalation * debris[p];
            p_fail[p] = 1.0 - std::exp(-hazard_daily * dt_days);
        }
    };
    // A step's losses feed the next step's hazard, not their own — the
    // collision debris takes one step to disperse into the shells.
    const auto deposit = [&](std::span<const int> lost) {
        for (const int s : lost)
            deposit_debris(debris,
                           topology.satellites[static_cast<std::size_t>(s)].plane);
    };
    return hazard_timeline(topology, offsets_s, scenario.seed, purpose_cascade, hits,
                           hazard, deposit);
}

failure_timeline sample_storm_timeline(const lsn_topology& topology,
                                       const failure_scenario& scenario,
                                       std::span<const double> offsets_s,
                                       const astro::instant& epoch)
{
    expects(topology.satellites.empty() || scenario.storm_start_s <= offsets_s.back(),
            "storm window must start inside the sweep horizon");

    const auto hazard = [&](double t0, double t1, std::span<double> p_fail) {
        // Raised-cosine storm window, further scaled by the deterministic
        // solar-activity level at that instant: the same storm template
        // hits harder near solar maximum.
        const double t_mid = 0.5 * (t0 + t1);
        double window = 0.0;
        const double x = (t_mid - scenario.storm_start_s) / scenario.storm_duration_s;
        if (x >= 0.0 && x <= 1.0)
            window = 0.5 * (1.0 - std::cos(2.0 * 3.14159265358979323846 * x));
        const double activity =
            radiation::solar_activity(epoch.plus_seconds(t_mid));
        const double multiplier =
            1.0 + (scenario.storm_fluence_multiplier - 1.0) * window * activity;

        const double dt_years = (t1 - t0) / 86400.0 / 365.25;
        for (std::size_t p = 0; p < p_fail.size(); ++p) {
            const double rate =
                annual_failure_rate(scenario.plane_daily_fluence[p] * multiplier);
            p_fail[p] = 1.0 - std::exp(-rate * dt_years);
        }
    };
    return hazard_timeline(topology, offsets_s, scenario.seed, purpose_storm, {}, hazard,
                           [](std::span<const int>) {});
}

} // namespace

failure_timeline sample_failure_timeline(const lsn_topology& topology,
                                         const failure_scenario& scenario,
                                         std::span<const double> offsets_s,
                                         const astro::instant& epoch)
{
    validate(scenario, topology);
    expects(!offsets_s.empty(), "a sweep grid needs at least one step");
    switch (scenario.mode) {
    case failure_mode::kessler_cascade:
        return sample_cascade_timeline(topology, scenario, offsets_s);
    case failure_mode::solar_storm:
        return sample_storm_timeline(topology, scenario, offsets_s, epoch);
    case failure_mode::greedy_adversary:
        expects(false,
                "greedy_adversary needs the delivered-traffic oracle; use "
                "traffic::generate_adversary_timeline (or set the campaign "
                "context's adversary oracle)");
        return {};
    default:
        // One-shot modes: the static mask holds for every step — and the
        // draw is the untouched `sample_failures` stream, bit-identical to
        // the pre-timeline output.
        return failure_timeline::from_static_mask(
            sample_failures(topology, scenario));
    }
}

double giant_component_fraction(const network_snapshot& snapshot,
                                std::span<const std::uint8_t> failed)
{
    const int n = snapshot.n_satellites;
    if (n == 0) return 0.0;
    expects(failed.empty() || failed.size() == static_cast<std::size_t>(n),
            "failure mask size mismatch");
    const auto alive = [&](int s) {
        return failed.empty() || failed[static_cast<std::size_t>(s)] == 0;
    };

    union_find components(n);
    for (const auto& link : snapshot.links) {
        if (link.b >= n) continue; // ground links don't join sats
        if (alive(link.a) && alive(link.b)) components.unite(link.a, link.b);
    }

    int largest = 0;
    for (int u = 0; u < n; ++u)
        if (alive(u)) largest = std::max(largest, components.component_size(u));
    return static_cast<double>(largest) / n;
}

std::vector<double> sweep_offsets(double duration_s, double step_s)
{
    expects(step_s > 0.0, "sweep step must be positive");
    expects(std::isfinite(duration_s) && duration_s > 0.0,
            "sweep duration must be finite and positive");
    // Offset i is i * step_s, computed afresh: a running `+= step_s` drifts
    // off the grid and can admit an extra step just below duration_s.
    std::vector<double> offsets;
    for (double t_off = 0.0; t_off < duration_s;
         t_off = static_cast<double>(offsets.size()) * step_s)
        offsets.push_back(t_off);
    return offsets;
}

scenario_sweep_result run_scenario_sweep_timeline(const sweep_geometry& geometry,
                                                  const failure_timeline& timeline)
{
    OBS_SPAN("lsn.scenario_sweep");
    OBS_COUNT("lsn.sweep.runs");
    OBS_COUNT_N("lsn.sweep.steps", geometry.offsets().size());
    geometry.validate(timeline);

    const int n_steps = geometry.n_steps();
    const int n_ground = geometry.builder().n_ground();
    const int n_pairs = n_ground * (n_ground - 1) / 2;

    // Per-step result slots: each step writes only its own entry, so chunking
    // never affects the outcome and the serial reduction below is
    // bit-identical for any thread count.
    struct step_result {
        int n_failed = 0;
        double giant_fraction = 0.0;
        std::vector<double> pair_latency_s; ///< inf = unreachable.
    };
    const auto per_step = parallel_map<step_result>(
        static_cast<std::size_t>(n_steps), [&](std::size_t i) {
            step_result slot;
            const auto failed = timeline.step(static_cast<int>(i));
            const auto snap = geometry.snapshot(static_cast<int>(i), failed);
            slot.n_failed = timeline.n_failed_at(static_cast<int>(i));
            slot.giant_fraction = giant_component_fraction(snap, failed);
            slot.pair_latency_s.assign(static_cast<std::size_t>(n_pairs), inf);
            router routes(snap);
            std::vector<int> later; // the gateways after `a`
            for (int a = 0; a + 1 < n_ground; ++a) {
                later.clear();
                for (int b = a + 1; b < n_ground; ++b) later.push_back(snap.ground_node(b));
                routes.route(snap.ground_node(a), later);
                for (int b = a + 1; b < n_ground; ++b)
                    slot.pair_latency_s[pair_index(a, b, n_ground)] =
                        routes.latency_s(snap.ground_node(b));
            }
            return slot;
        });

    scenario_sweep_result result;
    result.n_stations = n_ground;
    result.n_steps = n_steps;
    result.step_n_failed.reserve(per_step.size());
    result.step_giant_fraction.reserve(per_step.size());
    result.step_pair_reachable_fraction.reserve(per_step.size());
    result.pair_reachable_fraction.assign(
        static_cast<std::size_t>(n_ground) * static_cast<std::size_t>(n_ground), 0.0);
    result.pair_mean_latency_ms.assign(
        static_cast<std::size_t>(n_ground) * static_cast<std::size_t>(n_ground), 0.0);

    std::vector<int> reach_count(static_cast<std::size_t>(n_pairs), 0);
    std::vector<double> latency_sum_ms(static_cast<std::size_t>(n_pairs), 0.0);
    std::vector<double> pooled_ms; // (step, pair) order — deterministic
    double giant_sum = 0.0;
    for (const auto& step : per_step) {
        giant_sum += step.giant_fraction;
        int step_reachable = 0;
        for (std::size_t k = 0; k < step.pair_latency_s.size(); ++k) {
            const double latency_s = step.pair_latency_s[k];
            if (latency_s == inf) continue;
            ++step_reachable;
            ++reach_count[k];
            latency_sum_ms[k] += latency_s * 1000.0;
            pooled_ms.push_back(latency_s * 1000.0);
        }
        result.step_n_failed.push_back(step.n_failed);
        result.step_giant_fraction.push_back(step.giant_fraction);
        result.step_pair_reachable_fraction.push_back(
            n_pairs > 0 ? static_cast<double>(step_reachable) / n_pairs : 0.0);
    }

    long total_reachable = 0;
    for (int a = 0; a + 1 < n_ground; ++a) {
        for (int b = a + 1; b < n_ground; ++b) {
            const std::size_t k = pair_index(a, b, n_ground);
            total_reachable += reach_count[k];
            const double reach_frac = static_cast<double>(reach_count[k]) / n_steps;
            const double mean_ms =
                reach_count[k] > 0 ? latency_sum_ms[k] / reach_count[k] : 0.0;
            const auto ab = static_cast<std::size_t>(a * n_ground + b);
            const auto ba = static_cast<std::size_t>(b * n_ground + a);
            result.pair_reachable_fraction[ab] = reach_frac;
            result.pair_reachable_fraction[ba] = reach_frac;
            result.pair_mean_latency_ms[ab] = mean_ms;
            result.pair_mean_latency_ms[ba] = mean_ms;
        }
    }

    auto& m = result.metrics;
    m.n_failed = timeline.final_n_failed();
    m.giant_component_fraction = giant_sum / n_steps;
    m.pair_reachable_fraction =
        n_pairs > 0
            ? static_cast<double>(total_reachable) / (static_cast<double>(n_pairs) * n_steps)
            : 0.0;
    if (!pooled_ms.empty()) {
        m.mean_latency_ms = mean(pooled_ms);
        std::sort(pooled_ms.begin(), pooled_ms.end());
        m.p95_latency_ms = percentile_sorted(pooled_ms, 95.0);
    }
    return result;
}

double p95_latency_inflation(const scenario_sweep_result& baseline,
                             const scenario_sweep_result& scenario)
{
    if (baseline.metrics.p95_latency_ms <= 0.0 || scenario.metrics.p95_latency_ms <= 0.0)
        return 0.0;
    return scenario.metrics.p95_latency_ms / baseline.metrics.p95_latency_ms;
}

} // namespace ssplane::lsn
