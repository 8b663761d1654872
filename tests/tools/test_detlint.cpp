// detlint check suite: every check must both fire on its positive fixture
// and go quiet (suppressed, not silent) on its DETLINT-ALLOW fixture — an
// escape hatch that stops suppressing is as much a regression as a check
// that stops firing. The tree-level tests then pin the real contract: src/
// lints clean, every rng::split purpose stream in the tree is unique, and
// every function a header declares has a caller in src/ or a program.
#include "detlint.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using detlint::finding;

std::vector<finding> lint(const std::string& path,
                          const std::string& check = {})
{
    detlint::options opts;
    if (!check.empty()) opts.checks.insert(check);
    return detlint::run({path}, opts);
}

int count(const std::vector<finding>& findings, const std::string& check,
          bool suppressed)
{
    return static_cast<int>(std::count_if(
        findings.begin(), findings.end(), [&](const finding& f) {
            return f.check == check && f.suppressed == suppressed;
        }));
}

std::string fixture(const std::string& name)
{
    return std::string(DETLINT_FIXTURE_DIR) + "/" + name;
}

struct check_case {
    const char* check;
    const char* fire_fixture;
    const char* allow_fixture;
    int min_firings; ///< Distinct hazard shapes the fire fixture encodes.
};

const check_case cases[] = {
    {"unordered-iteration", "unordered_iteration_fire.cpp",
     "unordered_iteration_allow.cpp", 3},
    {"raw-rng", "raw_rng_fire.cpp", "raw_rng_allow.cpp", 5},
    {"wall-clock", "wall_clock_fire.cpp", "wall_clock_allow.cpp", 3},
    {"parallel-accumulation", "parallel_accumulation_fire.cpp",
     "parallel_accumulation_allow.cpp", 1},
    {"ref-capture-task", "ref_capture_task_fire.cpp",
     "ref_capture_task_allow.cpp", 2},
    {"split-purpose-collision", "split_purpose_collision_fire.cpp",
     "split_purpose_collision_allow.cpp", 3},
    {"validate-coverage", "validate_coverage_fire.cpp",
     "validate_coverage_allow.cpp", 1},
    {"unused-public-api", "unused_public_api_fire", "unused_public_api_allow", 3},
};

TEST(Detlint, RegistryListsEveryFixturedCheck)
{
    const auto& checks = detlint::all_checks();
    ASSERT_GE(checks.size(), 6u);
    for (const auto& c : cases) {
        const bool known =
            std::any_of(checks.begin(), checks.end(),
                        [&](const auto& info) { return info.id == c.check; });
        EXPECT_TRUE(known) << c.check;
    }
}

TEST(Detlint, EveryCheckFiresOnItsPositiveFixture)
{
    for (const auto& c : cases) {
        const auto findings = lint(fixture(c.fire_fixture), c.check);
        EXPECT_GE(count(findings, c.check, /*suppressed=*/false),
                  c.min_firings)
            << c.check;
        EXPECT_EQ(count(findings, c.check, /*suppressed=*/true), 0) << c.check;
    }
}

TEST(Detlint, EveryCheckIsSuppressedByItsAllowFixture)
{
    for (const auto& c : cases) {
        const auto findings = lint(fixture(c.allow_fixture), c.check);
        EXPECT_EQ(count(findings, c.check, /*suppressed=*/false), 0)
            << c.check;
        EXPECT_GE(count(findings, c.check, /*suppressed=*/true), 1) << c.check;
    }
}

TEST(Detlint, FireFixturesStayScopedToTheirOwnCheck)
{
    // A fire fixture may only trip its own check: cross-firing means a
    // check grew overreach and src/ annotations would stop being targeted.
    for (const auto& c : cases) {
        const auto findings = lint(fixture(c.fire_fixture));
        for (const auto& f : findings)
            EXPECT_EQ(f.check, c.check)
                << c.fire_fixture << " also fired " << f.check;
    }
}

TEST(Detlint, FindingsAreSortedAndCarryLineNumbers)
{
    const auto findings = lint(fixture("raw_rng_fire.cpp"));
    ASSERT_GE(findings.size(), 2u);
    for (std::size_t i = 1; i < findings.size(); ++i)
        EXPECT_LE(findings[i - 1].line, findings[i].line);
    for (const auto& f : findings) EXPECT_GT(f.line, 0);
}

TEST(Detlint, AllowWithoutReasonDoesNotSuppress)
{
    // The annotation contract requires a non-empty reason; the fire
    // fixtures carry none, so nothing in them may come back suppressed.
    for (const auto& c : cases) {
        const auto findings = lint(fixture(c.fire_fixture));
        EXPECT_EQ(count(findings, c.check, /*suppressed=*/true), 0) << c.check;
    }
}

TEST(Detlint, WallClockSanctionedModulePathIsExempt)
{
    // obs/clock.{h,cpp} is the one module allowed to read the wall clock
    // (instrumentation timestamps); its findings report as suppressed with
    // no per-line annotation required.
    const auto findings = lint(fixture("obs/clock.cpp"), "wall-clock");
    EXPECT_EQ(count(findings, "wall-clock", /*suppressed=*/false), 0);
    EXPECT_GE(count(findings, "wall-clock", /*suppressed=*/true), 1);
}

TEST(Detlint, WallClockExemptionDoesNotLeakOutsideTheSanctionedPath)
{
    // Byte-identical wall-clock read, same basename, wrong directory: the
    // path allowlist is a suffix match on obs/clock.*, not on the filename.
    const auto findings = lint(fixture("clock.cpp"), "wall-clock");
    EXPECT_GE(count(findings, "wall-clock", /*suppressed=*/false), 1);
    EXPECT_EQ(count(findings, "wall-clock", /*suppressed=*/true), 0);
}

TEST(Detlint, RefCaptureTaskCoversTaskGroupRun)
{
    // A task group's run hands its task to the pool like submit: a
    // by-reference capture fires through an object or a pointer, and tasks
    // that capture pointers to their slot and inputs by value lint clean.
    const auto fire = lint(fixture("ref_capture_task_group_fire.cpp"));
    EXPECT_EQ(count(fire, "ref-capture-task", /*suppressed=*/false), 2);
    EXPECT_EQ(static_cast<int>(fire.size()), 2);
    EXPECT_TRUE(lint(fixture("ref_capture_task_group_clean.cpp")).empty());
}

TEST(Detlint, UnusedPublicApiFiresAtEachShapesDeclaration)
{
    // A static member, an inline member and a free function that only
    // their own declaration and definition name (the last under an allow
    // comment without a reason) fire, each at the header line that
    // declares it; the functions the caller calls stay quiet.
    const auto findings =
        lint(fixture("unused_public_api_fire"), "unused-public-api");
    std::ifstream header(fixture("unused_public_api_fire/api.h"));
    std::vector<std::string> lines;
    for (std::string line; std::getline(header, line);) lines.push_back(line);
    std::set<std::string> names;
    for (const auto& f : findings) {
        EXPECT_FALSE(f.suppressed) << f.message;
        const std::string name = f.message.substr(1, f.message.find('\'', 1) - 1);
        names.insert(name);
        ASSERT_LE(f.line, static_cast<int>(lines.size()));
        EXPECT_NE(lines[static_cast<std::size_t>(f.line - 1)].find(name + "("),
                  std::string::npos)
            << f.file << ":" << f.line << " does not declare " << name;
    }
    EXPECT_EQ(names, (std::set<std::string>{"axis", "orphan_ratio", "tilted"}));
    EXPECT_EQ(findings.size(), 3u);
}

TEST(Detlint, UnusedPublicApiRunsOnlyWhenNamed)
{
    // Its verdict depends on which callers the linted set holds, so a run
    // without --check=unused-public-api leaves it out.
    const auto& checks = detlint::all_checks();
    const auto info = std::find_if(checks.begin(), checks.end(), [](const auto& c) {
        return c.id == "unused-public-api";
    });
    ASSERT_NE(info, checks.end());
    EXPECT_TRUE(info->opt_in);
    EXPECT_EQ(count(lint(fixture("unused_public_api_fire")), "unused-public-api",
                    /*suppressed=*/false),
              0);
}

TEST(Detlint, UnusedPublicApiSeesEveryCallShapeOfTheTree)
{
    // Stream insertion, a braced push_back, products, an arrow call, a
    // qualified static call, an inline header body and a macro: each is the
    // one caller of its function, and none may read as a declaration. Nor
    // may a static_assert or a function-pointer member.
    EXPECT_TRUE(
        lint(fixture("unused_public_api_clean"), "unused-public-api").empty());
}

TEST(Detlint, UnknownPathThrows)
{
    EXPECT_THROW(lint(fixture("no_such_fixture.cpp")), std::runtime_error);
}

// --- Tree-level contract ---------------------------------------------------

TEST(DetlintTree, SrcLintsCleanUnderEveryCheck)
{
    const auto findings = lint(SSPLANE_SRC_DIR);
    std::string report;
    for (const auto& f : findings)
        if (!f.suppressed)
            report += f.file + ":" + std::to_string(f.line) + " [" + f.check +
                      "] " + f.message + "\n";
    EXPECT_EQ(report, "");
}

TEST(DetlintTree, SrcSuppressionsAreFewAndIntentional)
{
    // Suppressions are part of the contract surface: a jump in their count
    // means ALLOW is becoming a reflex instead of a proof. Raise the bound
    // consciously when adding one. Current ledger of nine:
    //   * four per-struct RNG seeds, every 64-bit value valid: the failure
    //     scenario, Lanczos, masking-threshold and serving session options;
    //   * three boolean toggles, both values valid: the percolation
    //     analyzer's compute_lambda2 and compute_clustering, and the masking
    //     threshold's stop_at_collapse;
    //   * the obs clock, the one place that reads wall time;
    //   * the thread pool's by-reference capture of the loop body, which
    //     outlives every chunk task.
    const auto findings = lint(SSPLANE_SRC_DIR);
    const auto suppressed = static_cast<int>(
        std::count_if(findings.begin(), findings.end(),
                      [](const finding& f) { return f.suppressed; }));
    EXPECT_LE(suppressed, 9);
}

TEST(DetlintTree, EveryPublicFunctionHasAProgramCaller)
{
    // The callers are src/ and the programs; tests are not. A function that
    // only a test calls is deleted or moved test-side; the suppressions are
    // the few a test must observe although no program reads them (today
    // one: evaluation_context::timeline_cache_size).
    const std::string root = SSPLANE_ROOT_DIR;
    detlint::options opts;
    opts.checks = {"unused-public-api"};
    const auto findings = detlint::run(
        {root + "/src", root + "/examples", root + "/bench", root + "/campaign_bench"},
        opts);
    std::string report;
    for (const auto& f : findings)
        if (!f.suppressed)
            report += f.file + ":" + std::to_string(f.line) + " " + f.message + "\n";
    EXPECT_EQ(report, "");
    EXPECT_LE(count(findings, "unused-public-api", /*suppressed=*/true), 3);
}

TEST(DetlintTree, RngSplitPurposeStreamsAreUniqueTreeWide)
{
    // The guard the split-purpose-collision check exists for: purposes
    // partition the seed space into independent sub-streams, so any two
    // streams sharing a value silently correlate unrelated draws. Runs over
    // src/ as its own named test so a collision fails loudly even if the
    // aggregate clean-run test is ever filtered out.
    const auto findings = lint(SSPLANE_SRC_DIR, "split-purpose-collision");
    std::string report;
    for (const auto& f : findings)
        if (!f.suppressed)
            report += f.file + ":" + std::to_string(f.line) + " " + f.message +
                      "\n";
    EXPECT_EQ(report, "");
}

} // namespace
