// detlint — the determinism contract of this codebase, as a linter.
//
// Every sweep, campaign and timeline must be bit-identical across
// SSPLANE_THREADS {1,2,4} and across machines. The runtime regression tests
// sample a handful of configurations; detlint enforces the *source-level*
// contract that makes those tests representative, at analysis time:
//
//   unordered-iteration      iteration over std::unordered_map/set — the
//                            iteration order is implementation-defined, so
//                            any result derived from it is nondeterministic.
//                            Point lookups (find/emplace/at/[]) are fine.
//   raw-rng                  randomness outside util/rng: rand(), srand(),
//                            std::random_device, std::mt19937 & friends,
//                            time(0)-style seeding. All draws must flow
//                            through ssplane::rng so seeds reproduce.
//   wall-clock               wall-clock reads (chrono ::now(), clock(),
//                            gettimeofday) in simulation code — results
//                            must depend only on the scenario epoch.
//   parallel-accumulation    compound assignment (+=, -=, *=, /=) to a
//                            variable declared outside a parallel_for /
//                            parallel_map body that captures by reference:
//                            a data race, and even when benign the FP
//                            reduction order depends on thread timing. Use
//                            per-chunk partials combined in chunk order
//                            (see radiation/fluence.cpp) or per-index slots.
//   ref-capture-task         a lambda with a by-reference capture handed to
//                            a detached task primitive (thread_pool::submit,
//                            task_group::run, std::thread) — unlike
//                            parallel_for bodies the task outlives the
//                            statement that queues it, so every by-ref
//                            capture needs a stated synchronization story;
//                            capture pointers by value instead.
//   split-purpose-collision  two rng::split purpose constants with the same
//                            value, or a raw literal purpose aliasing a
//                            named one: the sub-streams would be identical,
//                            silently correlating draws.
//   validate-coverage        a field of an options/scenario struct that has
//                            a `void validate(const T&)` contract but is
//                            never mentioned in any validate overload (or
//                            the helpers they call) — new knobs must either
//                            be validated or explicitly exempted.
//
// One check is opt-in: it runs only when named with --check, because its
// verdict depends on which callers the linted set holds.
//
//   unused-public-api        a function declared in a linted header that no
//                            linted file names outside its own declarations
//                            and definitions (a call in its own .h/.cpp
//                            counts). Name-level, with no overload or
//                            namespace resolution, so it errs toward not
//                            firing. Run it over src/ and every program
//                            (examples, bench, campaign_bench), never tests:
//                            a function only tests call leaves src/ — it is
//                            deleted or moved test-side. Reported at the
//                            declaration's name; an allow anywhere from the
//                            declaration's first line to that line covers it.
//
// Escape hatch: a finding is suppressed by a comment on the same line or
// the line above:
//
//     // DETLINT-ALLOW(check-id): reason the pattern is safe here
//
// The reason is mandatory — an empty justification does not suppress.
#ifndef SSPLANE_TOOLS_DETLINT_H
#define SSPLANE_TOOLS_DETLINT_H

#include <set>
#include <string>
#include <vector>

namespace detlint {

struct finding {
    std::string file;
    int line = 0;          ///< 1-based.
    std::string check;     ///< Check id, e.g. "unordered-iteration".
    std::string message;
    bool suppressed = false; ///< A DETLINT-ALLOW covers this site.
};

struct check_info {
    std::string id;
    std::string summary;
    /// Runs only when named in options::checks (see unused-public-api).
    bool opt_in = false;
};

/// Registry of every check, in stable report order.
const std::vector<check_info>& all_checks();

struct options {
    /// Check ids to run; empty means every check that is not opt-in.
    /// Unknown ids are an error in the CLI and ignored here.
    std::set<std::string> checks;
};

/// Lint `paths` (files, or directories scanned recursively for *.h/*.cpp).
/// Returns every finding, suppressed ones included, sorted by (file, line,
/// check) — callers filter on `suppressed`. Throws std::runtime_error on
/// unreadable paths.
std::vector<finding> run(const std::vector<std::string>& paths,
                         const options& opts = {});

} // namespace detlint

#endif // SSPLANE_TOOLS_DETLINT_H
