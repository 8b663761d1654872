// Property suite of the percolation analyzer's λ₂ over randomized failure
// masks on the three topology builders (Walker +Grid, degree-capped
// Walker, SS planes):
//
//   * λ₂ = 0 exactly, with no solve, iff union-find finds more than one
//     alive component; a connected survivor graph has λ₂ > 0;
//   * every connected solve passes its residual test;
//   * on these ≤ 200-node fixtures λ₂ matches the dense Jacobi reference of
//     the compacted alive graph, disconnected masks included;
//   * the Laplacian mat-vec sums each row in ascending column order, bit
//     for bit.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../lsn/capped_topology.h"
#include "jacobi.h"

#include "lsn/scenario.h"
#include "spectral/percolation.h"
#include "util/angles.h"
#include "util/rng.h"

namespace ssplane::spectral {
namespace {

struct fixture {
    std::string name;
    lsn::lsn_topology topology;
};

std::vector<fixture> fixtures()
{
    constellation::walker_parameters shell;
    shell.altitude_m = 550.0e3;
    shell.inclination_rad = deg2rad(53.0);
    shell.n_planes = 8;
    shell.sats_per_plane = 10;
    shell.phasing_f = 1;
    std::vector<constellation::ss_plane> planes;
    for (int k = 0; k < 8; ++k)
        planes.push_back({560.0e3 + 10.0e3 * k, 6.0 + 1.5 * k, 12, 0.0});
    return {{"walker_grid", lsn::build_walker_grid_topology(shell)},
            {"walker_capped_3", lsn::build_walker_capped_topology(shell, 3)},
            {"ss_planes", lsn::build_ss_topology(planes, astro::instant::j2000())}};
}

/// Random-loss masks at four fractions and 1-3 plane attacks, each drawn
/// on four seeds, plus the unfailed graph.
std::vector<std::vector<std::uint8_t>> masks(const lsn::lsn_topology& topology)
{
    std::vector<std::vector<std::uint8_t>> out{{}};
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        lsn::failure_scenario scenario;
        scenario.seed = seed;
        scenario.mode = lsn::failure_mode::random_loss;
        for (const double fraction : {0.05, 0.15, 0.3, 0.5}) {
            scenario.loss_fraction = fraction;
            out.push_back(lsn::sample_failures(topology, scenario));
        }
        scenario.mode = lsn::failure_mode::plane_attack;
        for (const int planes : {1, 2, 3}) {
            scenario.planes_attacked = planes;
            out.push_back(lsn::sample_failures(topology, scenario));
        }
    }
    return out;
}

/// λ₂ of the compacted alive graph by the dense reference.
double jacobi_alive_lambda2(const lsn::lsn_topology& topology,
                            std::span<const std::uint8_t> failed)
{
    const alive_graph graph = alive_adjacency(topology, failed);
    return jacobi_eigenvalues(to_dense(graph), graph.n_alive())[1];
}

TEST(Lambda2Properties, ZeroExactlyIffDisconnected)
{
    for (const auto& [name, topology] : fixtures()) {
        int connected = 0, disconnected = 0;
        for (const auto& mask : masks(topology)) {
            const percolation_metrics m = analyze_percolation(topology, mask);
            ASSERT_GE(m.n_alive, 2) << name;
            EXPECT_TRUE(m.lambda2_converged) << name;
            if (m.n_components > 1) {
                ++disconnected;
                EXPECT_EQ(m.lambda2, 0.0) << name << ": " << m.n_components
                                          << " components";
                EXPECT_EQ(m.lanczos_iterations, 0) << name;
                EXPECT_GT(m.susceptibility, 0.0) << name;
            } else {
                ++connected;
                EXPECT_GT(m.lambda2, 1.0e-9) << name;
                EXPECT_GT(m.lanczos_iterations, 0) << name;
                EXPECT_EQ(m.susceptibility, 0.0) << name;
            }
        }
        // The masks must exercise both sides of the equivalence.
        EXPECT_GT(connected, 0) << name;
        EXPECT_GT(disconnected, 0) << name;
    }
}

TEST(Lambda2Properties, MatchesJacobiOnMaskedFixtures)
{
    for (const auto& [name, topology] : fixtures()) {
        ASSERT_LE(topology.satellites.size(), 200u) << name;
        for (const auto& mask : masks(topology)) {
            const percolation_metrics m = analyze_percolation(topology, mask);
            EXPECT_NEAR(m.lambda2, jacobi_alive_lambda2(topology, mask), 1.0e-8)
                << name << ": " << m.n_components << " components, " << m.n_alive
                << " alive";
        }
    }
}

TEST(Lambda2Properties, MatVecSumsEachRowInAscendingColumnOrder)
{
    // Every λ₂ bit rests on the order in which a row of L x is summed: from
    // 0.0, -x[c] per neighbour and degree · x[r], in ascending column order
    // (the diagonal between the neighbours below r and those above it).
    // Entries of mixed sign and magnitude make any other order round
    // differently somewhere.
    rng draw(2024);
    for (const auto& [name, topology] : fixtures()) {
        for (const auto& mask : masks(topology)) {
            const alive_graph graph = alive_adjacency(topology, mask);
            const auto n = static_cast<std::size_t>(graph.n_alive());
            std::vector<double> x(n);
            for (double& v : x) v = draw.uniform(-1.0, 1.0);
            std::vector<double> y(n);
            laplacian_multiply(graph, x, y);
            for (std::size_t r = 0; r < n; ++r) {
                const auto row = graph.row(static_cast<int>(r));
                const double diagonal = static_cast<double>(row.size()) * x[r];
                double sum = 0.0;
                bool diagonal_added = false;
                for (const int c : row) {
                    if (!diagonal_added && static_cast<std::size_t>(c) > r) {
                        sum += diagonal;
                        diagonal_added = true;
                    }
                    sum += -x[static_cast<std::size_t>(c)];
                }
                if (!diagonal_added) sum += diagonal;
                EXPECT_EQ(y[r], sum) << name << ": row " << r;
            }
        }
    }
}

TEST(Lambda2Properties, DisabledSolveReportsZeroAndConverged)
{
    percolation_options options;
    options.compute_lambda2 = false;
    for (const auto& [name, topology] : fixtures()) {
        const percolation_metrics m = analyze_percolation(topology, {}, options);
        EXPECT_EQ(m.n_components, 1) << name;
        EXPECT_EQ(m.lambda2, 0.0) << name;
        EXPECT_EQ(m.lanczos_iterations, 0) << name;
        EXPECT_TRUE(m.lambda2_converged) << name;
    }
}

} // namespace
} // namespace ssplane::spectral
