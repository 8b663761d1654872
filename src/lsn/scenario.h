// Scenario-sweep network survivability engine (paper §2.1, §5(2)/(3)).
//
// The survivability half of the paper asks how an LSN behaves as satellites
// fail. This module provides the machinery to answer it at scale:
//
//   * `snapshot_builder` hoists per-satellite propagator construction and
//     ground-site geometry out of the per-step path and sweeps whole time
//     grids through `j2_propagator::states_at_offsets` (one GMST evaluation
//     per step, batched element advances per satellite);
//   * `failure_scenario`/`sample_failures` inject satellite loss: uniform
//     random loss, whole-plane attack, and radiation-driven Poisson failures
//     wired to the `failures.h` annual-rate model via per-plane fluence;
//   * `sweep_geometry` holds a time grid's positions and each step's
//     unfailed links; every per-step sweep (here and in `traffic`, `tempo`,
//     `serve`, `spectral`) takes one and filters those links per mask;
//   * `run_scenario_sweep_timeline` fans the per-step snapshot + routing
//     work over the process thread pool (`util/parallel`) with per-step
//     result slots, so any `SSPLANE_THREADS` value reproduces identical
//     metrics, and reduces to robustness metrics: giant-component fraction,
//     the all-pairs ground-station reachability/latency matrix, and pooled
//     latency statistics comparable against an unfailed baseline.
#ifndef SSPLANE_LSN_SCENARIO_H
#define SSPLANE_LSN_SCENARIO_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "astro/propagator.h"
#include "geo/coverage.h"
#include "lsn/timeline.h"
#include "lsn/topology.h"

namespace ssplane::lsn {

/// Reusable snapshot factory. Propagators, ground geodetics and ground ECEF
/// sites are derived once at construction; each time slice then costs one
/// batched element advance per satellite plus the geometry tests. The
/// topology must outlive the builder (it is referenced, not copied).
/// `min_elevation_rad` must be finite radians in [-pi/2, pi/2] and
/// `max_isl_range_m` positive (else `contract_violation`).
class snapshot_builder {
public:
    snapshot_builder(const lsn_topology& topology,
                     std::vector<ground_station> stations,
                     const astro::instant& epoch,
                     double min_elevation_rad,
                     double max_isl_range_m = 6.0e6);

    int n_satellites() const noexcept { return static_cast<int>(propagators_.size()); }
    int n_ground() const noexcept { return static_cast<int>(stations_.size()); }
    const astro::instant& epoch() const noexcept { return epoch_; }
    const lsn_topology& topology() const noexcept { return *topology_; }
    const std::vector<ground_station>& stations() const noexcept { return stations_; }

    /// Satellite ECEF positions for a whole time grid in one batched
    /// propagation sweep: result[step][satellite]. Parallelized over
    /// satellites; identical for any thread count. The only propagation
    /// path: a single instant is a one-offset grid.
    std::vector<std::vector<vec3>> positions_at_offsets(
        std::span<const double> offsets_s) const;

    /// Graph assembled from one step of `positions_at_offsets` output: ISLs
    /// within `max_isl_range_m` in topology order, then each station's links
    /// to satellites above `min_elevation_rad` in satellite order, each
    /// weighted by geometric distance over the speed of light, then masked
    /// by `failed` as `sweep_geometry::snapshot` masks.
    network_snapshot snapshot_from_positions(
        const std::vector<vec3>& sat_positions_ecef,
        std::span<const std::uint8_t> failed = {}) const;

private:
    friend class sweep_geometry;
    /// The unmasked links of `snapshot_from_positions`, in link order.
    std::vector<network_snapshot::link> unfailed_links(
        const std::vector<vec3>& sat_positions_ecef) const;
    const lsn_topology* topology_;
    std::vector<ground_station> stations_;
    astro::instant epoch_;
    double min_elevation_rad_;
    double max_isl_range_m_;
    std::vector<astro::j2_propagator> propagators_;
    std::vector<vec3> ground_ecef_;
};

/// One constellation geometry over a sweep time grid, shared by every
/// failure mask judged on it (a mask never moves a satellite): the builder,
/// the offsets, their one `positions_at_offsets` pass and each step's
/// unfailed links, built on the step's first request by whichever thread
/// asks first. The grid has at least one step (empty offsets are a
/// `contract_violation`). The builder's topology must outlive the geometry.
class sweep_geometry {
public:
    sweep_geometry(snapshot_builder builder, std::vector<double> offsets_s);

    const snapshot_builder& builder() const noexcept { return builder_; }
    std::span<const double> offsets() const noexcept { return offsets_; }
    /// Satellite ECEF positions, [step][satellite].
    const std::vector<std::vector<vec3>>& positions() const noexcept { return positions_; }
    int n_steps() const noexcept { return static_cast<int>(offsets_.size()); }

    /// The one masking rule: step `step`'s unfailed links minus every link
    /// with an endpoint failed in `failed` (empty, or one entry per
    /// satellite), in link order, through `make_network_snapshot`. Thread-safe.
    network_snapshot snapshot(int step, std::span<const std::uint8_t> failed = {}) const;

    /// Reject a timeline that does not fit this grid and the builder's
    /// satellites (`lsn::validate(timeline, n_satellites, n_steps)`).
    void validate(const failure_timeline& timeline) const
    {
        lsn::validate(timeline, builder_.n_satellites(), n_steps());
    }

    /// Steps whose unfailed links have been built.
    std::uint64_t builds() const noexcept { return builds_.load(); }

private:
    struct step_links {
        std::once_flag built;
        std::vector<network_snapshot::link> links;
    };
    snapshot_builder builder_;
    std::vector<double> offsets_;
    std::vector<std::vector<vec3>> positions_;
    mutable std::vector<step_links> steps_;
    mutable std::atomic<std::uint64_t> builds_{0};
};

/// How satellites are removed from the network. The first four modes draw
/// one static mask (`sample_failures`); the last three evolve a per-step
/// `failure_timeline` and cannot be collapsed to a single mask.
enum class failure_mode {
    none,              ///< Unfailed baseline.
    random_loss,       ///< `loss_fraction` of satellites, drawn uniformly.
    plane_attack,      ///< `planes_attacked` whole planes, drawn uniformly.
    radiation_poisson, ///< Per-satellite Poisson failures from plane fluence.
    kessler_cascade,   ///< Debris cascade: losses raise neighbor-plane hazard.
    solar_storm,       ///< Storm epoch modulating per-plane fluence mid-sweep.
    greedy_adversary,  ///< Budgeted attacker maximizing delivered-traffic damage.
};

/// One failure scenario. Fields are read per `mode`; `seed` makes every
/// draw reproducible.
struct failure_scenario {
    failure_mode mode = failure_mode::none;
    double loss_fraction = 0.0; ///< random_loss: fraction of satellites in [0, 1].
    int planes_attacked = 0;    ///< plane_attack: whole planes removed.
    /// radiation_poisson / solar_storm: daily electron fluence per plane
    /// index [#/cm^2/MeV], fed through `annual_failure_rate` (the storm
    /// multiplies it inside the storm window).
    std::vector<double> plane_daily_fluence;
    double horizon_days = 365.25; ///< radiation_poisson: exposure window.
    // DETLINT-ALLOW(validate-coverage): every 64-bit seed is valid.
    std::uint64_t seed = 0;

    // --- kessler_cascade ----------------------------------------------
    /// Satellites destroyed by the triggering event at step 0.
    int cascade_initial_hits = 1;
    /// Ambient daily collision hazard per live satellite, debris aside.
    double cascade_base_daily_hazard = 0.0;
    /// Extra daily hazard per unit of debris in a satellite's plane. Each
    /// loss deposits 1 unit in its own plane and 0.5 in each adjacent
    /// (wrapping) plane.
    double cascade_escalation = 0.05;
    /// Debris decay time constant [s]: deposited debris decays by
    /// exp(-dt / cooldown) per step — the deorbit/avoidance relief valve.
    double cascade_cooldown_s = 21600.0;

    // --- solar_storm ----------------------------------------------------
    double storm_start_s = 0.0;        ///< Storm onset, offset from epoch.
    double storm_duration_s = 21600.0; ///< Raised-cosine storm window width.
    /// Peak fluence multiplier at the window center, further scaled by
    /// `radiation::solar_activity` at that instant (quiet sun damps it).
    double storm_fluence_multiplier = 10.0;

    // --- greedy_adversary -------------------------------------------------
    int adversary_budget = 0;             ///< Whole planes the attacker kills.
    int adversary_strike_interval_steps = 1; ///< Steps between strikes.
    int adversary_first_strike_step = 0;     ///< Step of the first strike.
    /// Evaluate candidate strikes on every `stride`-th sweep step — the
    /// attacker's planning grid. 1 = the full grid.
    int adversary_eval_stride = 1;

    /// Field by field, in declaration order. Doubles make the order partial:
    /// compare only validated scenarios (no NaN knob), as a cache key does.
    friend auto operator<=>(const failure_scenario&, const failure_scenario&) = default;
};

/// Reject out-of-range scenario knobs with a clear `contract_violation`:
/// `loss_fraction` outside [0, 1], negative `planes_attacked`, a
/// non-positive or non-finite `horizon_days` or negative fluence entries
/// for `radiation_poisson`. Only the fields of the scenario's own `mode`
/// are judged — mirrors `traffic::validate(capacity_options)`.
void validate(const failure_scenario& scenario);

/// Additionally checks the topology-dependent constraints: `planes_attacked`
/// cannot exceed the plane count and `plane_daily_fluence` must have exactly
/// one entry per plane. Called by `sample_failures` and the campaign runner.
void validate(const failure_scenario& scenario, const lsn_topology& topology);

/// The scenario with every field its mode's generator does not read reset
/// to its default: the whole input of a draw, so two scenarios with equal
/// canonical forms get one timeline. `none` keeps only its mode (the
/// all-zero mask reads no seed), `greedy_adversary` its four schedule knobs
/// (the search draws no random numbers). `sample_failures`,
/// `sample_failure_timeline` and `traffic::generate_adversary_timeline`
/// return the same draw for a scenario and for its canonical form.
failure_scenario canonical(const failure_scenario& scenario);

/// Number of orbital planes of a topology (max plane index + 1).
int plane_count(const lsn_topology& topology);

/// Draw the failed-satellite mask for a scenario (size n_satellites,
/// 1 = failed). Deterministic in `scenario.seed`. Validates the scenario
/// against the topology first. The last three modes (`kessler_cascade`,
/// `solar_storm`, `greedy_adversary`) are a contract violation — they have
/// no single static mask.
std::vector<std::uint8_t> sample_failures(const lsn_topology& topology,
                                          const failure_scenario& scenario);

/// Evolve the scenario's per-step failure timeline over the sweep grid,
/// which must have at least one step (else `contract_violation`).
/// One-shot modes wrap their `sample_failures` mask (bit-identical draw);
/// `kessler_cascade` and `solar_storm` evolve step-by-step with
/// deterministic per-step sub-streams (`rng::split(seed, purpose, step)`),
/// so the timeline is reproducible for any thread count and adding steps
/// never perturbs earlier rows. `greedy_adversary` is a contract
/// violation here — it needs the delivered-traffic oracle, which lives in
/// `traffic::generate_adversary_timeline`.
failure_timeline sample_failure_timeline(const lsn_topology& topology,
                                         const failure_scenario& scenario,
                                         std::span<const double> offsets_s,
                                         const astro::instant& epoch);

/// Fraction of *all* satellites inside the largest ISL-connected component
/// (ground nodes and ground links excluded). Satellites flagged in `failed`
/// never join a component, so the fraction reflects both fragmentation and
/// raw loss.
double giant_component_fraction(const network_snapshot& snapshot,
                                std::span<const std::uint8_t> failed = {});

/// Time grid and geometry thresholds of a sweep.
struct scenario_sweep_options {
    double duration_s = 86400.0;
    double step_s = 300.0;
    double min_elevation_rad = geo::default_min_elevation_rad;
    double max_isl_range_m = 6.0e6;
};

/// The sweep time grid: offsets i * step_s for i = 0, 1, 2, ... while below
/// duration_s, each computed afresh so no roundoff accumulates — shared by
/// every time-stepped sweep so their grids can never drift apart.
/// A grid has at least one step: a duration that is not finite and
/// positive, or a non-positive step, is a contract violation.
std::vector<double> sweep_offsets(double duration_s, double step_s);

/// Scalar robustness metrics for one scenario over the sweep window.
struct scenario_metrics {
    int n_failed = 0;                      ///< Satellites removed by the scenario.
    double giant_component_fraction = 0.0; ///< Mean over steps.
    double pair_reachable_fraction = 0.0;  ///< Mean over steps and station pairs.
    double mean_latency_ms = 0.0;          ///< Over reachable (pair, step) samples.
    double p95_latency_ms = 0.0;           ///< Over reachable (pair, step) samples.
};

/// Full sweep output: scalar metrics, per-step degradation traces and the
/// all-pairs ground-station matrices (row-major n_stations x n_stations,
/// symmetric, zero diagonal).
struct scenario_sweep_result {
    scenario_metrics metrics;
    int n_stations = 0;
    int n_steps = 0;
    /// Per-step degradation traces — flat under a static mask, the
    /// trajectory of interest under a timeline (time-to-partition,
    /// recovery headroom are reductions over these).
    std::vector<int> step_n_failed;
    std::vector<double> step_giant_fraction;
    std::vector<double> step_pair_reachable_fraction;
    std::vector<double> pair_reachable_fraction; ///< Fraction of steps routed.
    std::vector<double> pair_mean_latency_ms;    ///< Over that pair's reachable steps.

    double reachable(int a, int b) const
    {
        return pair_reachable_fraction[static_cast<std::size_t>(a * n_stations + b)];
    }
    double mean_latency_ms(int a, int b) const
    {
        return pair_mean_latency_ms[static_cast<std::size_t>(a * n_stations + b)];
    }
};

/// Sweep one failure timeline over the geometry's time grid: take every
/// step's snapshot under `timeline.step(i)`, route all station pairs, and
/// reduce. Scenarios reach it through `sample_failure_timeline`, a static
/// mask through `failure_timeline::from_static_mask`, the unfailed
/// baseline through an empty `failure_timeline{}`. Bit-identical for any
/// `SSPLANE_THREADS` value.
scenario_sweep_result run_scenario_sweep_timeline(const sweep_geometry& geometry,
                                                  const failure_timeline& timeline);

/// p95 latency inflation of `scenario` relative to `baseline` (1 = no
/// inflation). Returns 0 when either p95 is undefined because no pair was
/// ever reachable.
double p95_latency_inflation(const scenario_sweep_result& baseline,
                             const scenario_sweep_result& scenario);

} // namespace ssplane::lsn

#endif // SSPLANE_LSN_SCENARIO_H
