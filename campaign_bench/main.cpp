// End-to-end campaign benchmark program.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]
//   campaign_bench --self-test [--seed N]
//
// --trace 0 repeats {set up the workload, run exp::run_campaign on the cold
// context, time more set-ups alone} until S seconds have passed, checks
// every cell, and reports the medians of the end-to-end metrics. --trace 1 replays
// each layer from outside (replay.h), runs the campaign once untraced and
// once with obs spans recording, and reports the per-layer metrics.
// --self-test checks that the deterministic counters and the CSV digest
// repeat across two runs and across pool sizes 1 and the pinned size, on a
// coarse grid. The last line of a measuring run is one JSON object.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replay.h"
#include "timing.h"
#include "util/parallel.h"
#include "workload.h"

#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif
#ifndef BENCH_COMPILER
#define BENCH_COMPILER "unknown"
#endif

using namespace bench;

namespace {

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string commit = "unknown";
    bool self_test = false;
};

std::optional<options> parse(int argc, char** argv)
{
    options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--self-test") {
            o.self_test = true;
            continue;
        }
        if (i + 1 >= argc) return std::nullopt;
        const std::string value = argv[++i];
        char* end = nullptr;
        if (key == "--workload") {
            o.workload = value;
        } else if (key == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
        } else if (key == "--trace") {
            o.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
            if (o.trace != 0 && o.trace != 1) return std::nullopt;
        } else if (key == "--commit") {
            o.commit = value;
        } else {
            return std::nullopt;
        }
        if (end != nullptr && *end != '\0') return std::nullopt;
    }
    if (!o.self_test && (o.workload.empty() || !(o.seconds > 0.0))) return std::nullopt;
    return o;
}

unsigned online_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return 1;
}

/// Pool size: SSPLANE_THREADS when set, else 4, clamped to [1, nproc].
unsigned pinned_pool(unsigned nproc)
{
    unsigned wanted = 4;
    if (const char* env = std::getenv("SSPLANE_THREADS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > 0) wanted = static_cast<unsigned>(n);
    }
    return std::clamp(wanted, 1U, nproc);
}

/// The q-quantile of `v`, interpolated between order statistics.
double quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double at = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(at);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (at - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string number(double v)
{
    char text[40];
    std::snprintf(text, sizeof text, "%.17g", std::isfinite(v) ? v : 0.0);
    return text;
}

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<metric>& metrics)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
                  << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
                  << "\"}";
    std::cout << "}}" << std::endl;
}

/// One checked campaign; every cell counts as failed when it threw.
struct checked_run {
    double wall_s = 0.0; ///< run_campaign alone, checks excluded.
    double cpu_s = 0.0;  ///< Process CPU over the same interval.
    campaign_check check;
    std::string digest = "none";
};

checked_run run_checked(const workload_setup& setup)
{
    checked_run run;
    const double cpu0 = process_cpu_s();
    const auto start = clock_type::now();
    try {
        const auto result = exp::run_campaign(setup.plan, *setup.context);
        run.wall_s = seconds_since(start);
        run.cpu_s = process_cpu_s() - cpu0;
        run.check = check_campaign(result);
        run.digest = csv_digest(result);
    } catch (const std::exception& e) {
        run.wall_s = seconds_since(start);
        const int cells = static_cast<int>(exp::expand_scenarios(setup.plan).size() *
                                           setup.plan.engines.size());
        run.check.cells = cells;
        run.check.hard_failures = cells;
        run.check.invalid_cells = cells;
        run.check.messages.push_back(std::string("run_campaign threw: ") + e.what());
    }
    return run;
}

void print_check(const campaign_check& check)
{
    std::cout << "cells " << check.cells << ", invalid " << check.invalid_cells
              << " (hard " << check.hard_failures << ", lambda2 "
              << check.lambda2_violations << ")\n";
    for (const auto& message : check.messages) std::cout << "  invalid: " << message << "\n";
}

/// The work counters of one campaign, the noise-free side of its cost.
void print_work(const std::vector<obs::metric_sample>& counters)
{
    std::cout << "work:";
    for (const auto& sample : counters)
        if (sample.value != 0.0) std::cout << ' ' << sample.name << '=' << number(sample.value);
    std::cout << "\n";
}

/// Wall time of one set-up; the set-up is torn down outside the timer.
double time_setup(const workload_spec& spec, std::uint64_t seed)
{
    const auto t = clock_type::now();
    const auto setup = build_setup(spec, seed);
    return seconds_since(t);
}

int run_untraced(const workload_spec& spec, const options& opt)
{
    // Set-up is short next to a campaign and sensitive to the host: after
    // every campaign, time set-ups alone for this share of the campaign's
    // wall time, so the setup_s median rests on many samples spread over
    // the whole run.
    constexpr double setup_share = 0.25;
    std::vector<double> setup_s, campaign_s;
    long long attempted = 0, failed = 0, invalid = 0;
    bool repeatable = true;
    std::string first_digest;
    std::vector<obs::metric_sample> first_counters;
    const auto start = clock_type::now();
    for (int rep = 0;; ++rep) {
        const auto t = clock_type::now();
        auto setup = build_setup(spec, opt.seed);
        setup_s.push_back(seconds_since(t));

        obs::registry::instance().reset();
        const checked_run run = run_checked(*setup);
        campaign_s.push_back(run.wall_s);
        const auto counters = obs::deterministic_snapshot();
        setup.reset();

        attempted += run.check.cells;
        failed += run.check.hard_failures;
        invalid += run.check.invalid_cells;
        if (rep == 0) {
            first_digest = run.digest;
            first_counters = counters;
            print_check(run.check);
            print_work(counters);
        }
        repeatable = repeatable && run.digest == first_digest && counters == first_counters;
        std::cout << "rep " << rep << ": setup_s " << number(setup_s.back())
                  << " campaign_s " << number(campaign_s.back()) << " csv_digest "
                  << run.digest << "\n";

        const auto batch = clock_type::now();
        while (seconds_since(batch) < setup_share * run.wall_s)
            setup_s.push_back(time_setup(spec, opt.seed));
        if (rep + 1 >= spec.min_campaigns && seconds_since(start) >= opt.seconds) break;
    }
    std::cout << "set-ups timed: " << setup_s.size() << ", quartiles "
              << number(quantile(setup_s, 0.25)) << ' ' << number(quantile(setup_s, 0.5))
              << ' ' << number(quantile(setup_s, 0.75)) << "\n";
    std::cout << "repeatable across reps: " << (repeatable ? "yes" : "NO") << "\n";
    print_result(failed == 0 && repeatable, attempted, failed,
                 {{"setup_s", median(setup_s), "s"},
                  {"campaign_s", median(campaign_s), "s"},
                  {"peak_rss_mb", peak_rss_mb(), "MB"},
                  {"valid_cell_frac",
                   1.0 - static_cast<double>(invalid) / static_cast<double>(attempted),
                   "fraction"}});
    return 0;
}

int run_traced(const workload_spec& spec, const options& opt, unsigned pool)
{
    const auto setup = build_setup(spec, opt.seed);
    // The replays run first, so the process heap is warm before the two
    // campaigns whose times are compared.
    auto replay = replay_layers(*setup);

    campaign_timing timing;
    timing.pool_threads = pool;
    setup->context = make_context(*setup);
    obs::registry::instance().reset();
    const checked_run run = run_checked(*setup);
    timing.untraced_s = run.wall_s;
    timing.cpu_s = run.cpu_s;
    const auto counters = obs::registry::instance().snapshot();
    print_check(run.check);
    std::cout << "csv_digest " << run.digest << "\n";

    setup->context = make_context(*setup);
    obs::trace_reset();
    obs::set_tracing_enabled(true);
    const auto t = clock_type::now();
    (void)exp::run_campaign(setup->plan, *setup->context);
    timing.traced_s = seconds_since(t);
    obs::set_tracing_enabled(false);
    std::cout << "traced run: " << obs::trace_snapshot().size() << " spans\n";
    obs::trace_reset();

    print_result(run.check.hard_failures == 0, run.check.cells, run.check.hard_failures,
                 per_layer_report(std::move(replay), timing, counters));
    return 0;
}

/// Counters and digest of one coarse campaign at pool size `pool`.
std::pair<std::string, std::vector<obs::metric_sample>> fingerprint(
    const workload_spec& spec, std::uint64_t seed, unsigned pool)
{
    set_thread_count(pool);
    const auto setup = build_setup(spec, seed);
    obs::registry::instance().reset();
    const checked_run run = run_checked(*setup);
    return {run.digest, obs::deterministic_snapshot()};
}

int run_self_test(std::uint64_t seed, unsigned pool)
{
    bool pass = true;
    for (const std::string name : {"ss_day", "walker_static"}) {
        const workload_spec spec = coarse(*find_workload(name));
        const auto reference = fingerprint(spec, seed, pool);
        for (const unsigned threads : {pool, 1U}) {
            const auto again = fingerprint(spec, seed, threads);
            const bool same_digest = again.first == reference.first;
            const bool same_counters = again.second == reference.second;
            std::cout << "self-test " << name << " pool " << threads << ": csv_digest "
                      << again.first << (same_digest ? " same" : " DIFFERS") << ", "
                      << again.second.size() << " counters"
                      << (same_counters ? " same" : " DIFFER") << "\n";
            for (std::size_t i = 0; !same_counters && i < again.second.size() &&
                                    i < reference.second.size();
                 ++i)
                if (!(again.second[i] == reference.second[i]))
                    std::cout << "  " << reference.second[i].name << ": "
                              << number(reference.second[i].value) << " vs "
                              << again.second[i].name << ": "
                              << number(again.second[i].value) << "\n";
            pass = pass && same_digest && same_counters && again.first != "none";
        }
    }
    set_thread_count(pool);
    std::cout << "self-test: " << (pass ? "PASS" : "FAIL") << std::endl;
    return pass ? 0 : 1;
}

} // namespace

int main(int argc, char** argv)
{
    const auto opt = parse(argc, argv);
    if (!opt) {
        std::cerr << "usage: campaign_bench --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--commit ID]\n"
                     "       campaign_bench --self-test [--seed N]\n";
        return 2;
    }
#if defined(SSPLANE_OBS_DISABLED)
    const bool obs_on = false;
#else
    const bool obs_on = true;
#endif
#if defined(NDEBUG)
    const bool optimized = std::string(BENCH_BUILD_TYPE) == "Release";
#else
    const bool optimized = false;
#endif
    if (!optimized || !obs_on) {
        std::cerr << "campaign_bench refuses a build with CMAKE_BUILD_TYPE="
                  << BENCH_BUILD_TYPE << " and SSPLANE_OBS=" << (obs_on ? "ON" : "OFF")
                  << ": timings need Release and the counters need SSPLANE_OBS=ON\n";
        return 3;
    }

    const unsigned nproc = online_cpus();
    const unsigned pool = pinned_pool(nproc);
    set_thread_count(pool);
    // Spans record only where the traced pass turns them on, whatever
    // SSPLANE_TRACE says.
    obs::set_tracing_enabled(false);
    if (opt->self_test) return run_self_test(opt->seed, pool);

    const workload_spec* spec = find_workload(opt->workload);
    if (spec == nullptr) {
        std::cerr << "unknown workload '" << opt->workload << "'; known:";
        for (const auto& name : workload_names()) std::cerr << ' ' << name;
        std::cerr << "\n";
        return 2;
    }
    std::cout << "{\"env\": {\"workload\": \"" << spec->name << "\", \"seed\": "
              << opt->seed << ", \"trace\": " << opt->trace
              << ", \"pool_threads\": " << pool << ", \"nproc\": " << nproc
              << ", \"build_type\": \"" << BENCH_BUILD_TYPE
              << "\", \"ssplane_obs\": \"ON\", \"compiler\": \"" << BENCH_COMPILER
              << "\", \"commit\": \"" << opt->commit << "\", \"step_s\": "
              << number(spec->step_s) << ", \"sessions\": " << spec->sessions << "}}\n";
    return opt->trace == 0 ? run_untraced(*spec, *opt) : run_traced(*spec, *opt, pool);
}
