// Output checks of the campaign benchmark: per-cell invariants and a digest
// of the campaign CSVs.
#ifndef CAMPAIGN_BENCH_CHECKS_H
#define CAMPAIGN_BENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "exp/campaign.h"

namespace bench {

using namespace ssplane;

/// λ₂ at or below this reads as zero — the masking detector's default
/// `lambda2_epsilon`.
inline constexpr double lambda2_zero = 1.0e-9;

/// Verdict over every (scenario, engine) cell of one campaign.
///
/// Hard invariants — a break counts in `hard_failures`:
///   * every fraction column and per-step fraction trace lies in [0, 1];
///   * delivered <= offered for traffic, bulk and serving;
///   * survivability and percolation report the same per-step giant
///     fraction (the percolation cell is charged).
/// Known solver defect — counts in `lambda2_violations` only:
///   * a percolation step reports λ₂ > `lambda2_zero` while its
///     susceptibility is positive, i.e. on a disconnected alive graph.
/// `invalid_cells` is the number of cells breaking either kind.
struct campaign_check {
    int cells = 0;
    int hard_failures = 0;
    int lambda2_violations = 0;
    int invalid_cells = 0;
    std::vector<std::string> messages; ///< One line per broken invariant.
};

campaign_check check_campaign(const exp::campaign_result& result);

/// FNV-1a 64 over `write_csv` followed by `write_step_csv`, as 16 hex digits.
std::string csv_digest(const exp::campaign_result& result);

} // namespace bench

#endif // CAMPAIGN_BENCH_CHECKS_H
