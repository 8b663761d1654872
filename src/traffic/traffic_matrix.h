// Demand-driven ground-to-ground traffic matrices (ROADMAP "heavy traffic
// from millions of users"; paper §3.1 demand model meets the §5 LSN).
//
// The matrix is a gravity model: offered load between two gateways is
// proportional to the product of their endpoint masses over their
// great-circle distance, floored at 500 km. Masses come from
// `demand::demand_model` evaluated at each gateway's location at the query
// instant — i.e. at its *local solar time* — so the matrix follows the
// diurnal cycle as the planet rotates: a gateway at 4 am offers a fraction
// of its evening load.
#ifndef SSPLANE_TRAFFIC_TRAFFIC_MATRIX_H
#define SSPLANE_TRAFFIC_TRAFFIC_MATRIX_H

#include <span>
#include <vector>

#include "astro/time.h"
#include "demand/demand_model.h"
#include "lsn/topology.h"

namespace ssplane::traffic {

/// Gateway set derived from the `n` most populous gazetteer metros at least
/// 5° apart (`demand::top_cities`), replacing the hard-coded dozen of
/// `lsn::default_ground_stations` with a data-driven, scalable set.
std::vector<lsn::ground_station> stations_from_cities(int n);

/// Gravity-model scale.
struct traffic_matrix_options {
    /// Total offered load over all unordered pairs after normalization
    /// [Gbps]. The gravity weights fix the *shape*; this fixes the scale.
    double total_demand_gbps = 1000.0;
};

/// Reject a negative or non-finite `total_demand_gbps` with a clear
/// `contract_violation`. Unchecked, a NaN total yields a NaN matrix that
/// assigns nothing yet reads as fully delivered. `build_traffic_matrix`,
/// the traffic sweep and the greedy adversary call this before any work.
void validate(const traffic_matrix_options& options);

/// Symmetric offered-load matrix over a gateway set [Gbps], zero diagonal.
struct traffic_matrix {
    int n_stations = 0;
    std::vector<double> demand_gbps; ///< Row-major n x n.

    double demand(int a, int b) const
    {
        return demand_gbps[static_cast<std::size_t>(a) *
                               static_cast<std::size_t>(n_stations) +
                           static_cast<std::size_t>(b)];
    }
};

/// Build the gravity matrix at absolute time `t`. Endpoint masses are
/// `demand.demand_at(station, t)` (diurnal-aware); pair weights are
/// mass_a * mass_b / max(distance, 500 km), the floor keeping near-coincident
/// gateways finite, normalized so the unordered-pair total equals
/// `options.total_demand_gbps` (an all-zero mass field yields an all-zero
/// matrix).
traffic_matrix build_traffic_matrix(const demand::demand_model& demand,
                                    std::span<const lsn::ground_station> stations,
                                    const astro::instant& t,
                                    const traffic_matrix_options& options = {});

} // namespace ssplane::traffic

#endif // SSPLANE_TRAFFIC_TRAFFIC_MATRIX_H
