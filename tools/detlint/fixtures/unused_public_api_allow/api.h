// Fixture: unused-public-api suppressed by DETLINT-ALLOW with a reason, on
// the line above a one-line declaration and above a declaration whose name
// sits on its second line.
#ifndef FIXTURE_UNUSED_PUBLIC_API_ALLOW_H
#define FIXTURE_UNUSED_PUBLIC_API_ALLOW_H

#include <cstddef>

namespace fixture {

class timeline_cache {
public:
    std::size_t lookups() const noexcept { return lookups_; }

    /// Distinct entries so far.
    // DETLINT-ALLOW(unused-public-api): the dedup tests count distinct
    // entries, and no program reads them.
    std::size_t entry_count() const noexcept { return entries_; }

private:
    std::size_t lookups_ = 0;
    std::size_t entries_ = 0;
};

// DETLINT-ALLOW(unused-public-api): the round-trip test's inverse.
[[nodiscard]] double
inverse_scale(double x);

} // namespace fixture

#endif // FIXTURE_UNUSED_PUBLIC_API_ALLOW_H
