#include "equivalence_fixtures.h"

#include "../lsn/capped_topology.h"
#include "constellation/sun_sync.h"
#include "constellation/walker.h"
#include "util/angles.h"

namespace ssplane::traffic {

std::vector<equivalence_fixture> equivalence_fixtures()
{
    constellation::walker_parameters shell;
    shell.altitude_m = 550.0e3;
    shell.inclination_rad = deg2rad(53.0);
    shell.n_planes = 10;
    shell.sats_per_plane = 10;
    shell.phasing_f = 1;
    std::vector<constellation::ss_plane> ss_planes;
    for (int p = 0; p < 8; ++p)
        ss_planes.push_back({560.0e3, 1.5 * p, 14, 0.3 * p});
    return {
        {"walker +grid", lsn::build_walker_grid_topology(shell)},
        {"capped walker", lsn::build_walker_capped_topology(shell, 3)},
        {"ss design", lsn::build_ss_topology(ss_planes, astro::instant::j2000())},
    };
}

const demand::demand_model& test_demand()
{
    static const demand::population_model population;
    static const demand::demand_model model(population);
    return model;
}

} // namespace ssplane::traffic
