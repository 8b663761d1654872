// The program side of the must-not-fire fixture: it calls each entry point.
#include <sstream>

#include "api.h"

int main()
{
    std::ostringstream out;
    fixture::csv_writer writer(out);
    writer.cell("x");
    FIXTURE_COUNT("rows");
    const double alpha[] = {1.0, 2.0};
    const fixture::owed_pairs pairs{};
    const int recorded = 4;
    const fixture::failure_timeline timeline{};
    return static_cast<int>(fixture::ground_track(1.0).size()) +
           static_cast<int>(fixture::ritz_weight(2.0, alpha)) +
           static_cast<int>(fixture::proton_flux({}, 0.5)) +
           fixture::replay(&pairs, &recorded) + fixture::scaled<fixture::layout>(2) +
           timeline.step(3);
}
