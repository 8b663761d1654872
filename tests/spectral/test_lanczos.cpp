#include "spectral/lanczos.h"

#include <cmath>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "../lsn/capped_topology.h"
#include "jacobi.h"

#include "spectral/percolation.h"
#include "util/angles.h"
#include "util/expects.h"

namespace ssplane::spectral {
namespace {

using links_t = std::vector<lsn::isl_link>;

/// The links of a path over satellites first, ..., first + n - 1.
links_t path_links(int n, int first = 0)
{
    links_t links;
    for (int i = 0; i + 1 < n; ++i) links.push_back({first + i, first + i + 1});
    return links;
}

alive_graph path_graph(int n) { return alive_adjacency(n, path_links(n)); }

links_t cycle_links(int n)
{
    links_t links = path_links(n);
    links.push_back({n - 1, 0});
    return links;
}

alive_graph cycle_graph(int n) { return alive_adjacency(n, cycle_links(n)); }

alive_graph complete_graph(int n)
{
    links_t links;
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j) links.push_back({i, j});
    return alive_adjacency(n, links);
}

/// λ₂ by the dense reference: second-smallest eigenvalue of the Laplacian.
double jacobi_lambda2(const alive_graph& graph)
{
    const std::vector<double> eigenvalues =
        jacobi_eigenvalues(to_dense(graph), graph.n_alive());
    expects(eigenvalues.size() >= 2, "reference graphs have n >= 2");
    return eigenvalues[1];
}

void expect_lanczos_matches_jacobi(const alive_graph& graph, double tol = 1.0e-8)
{
    const lanczos_result solve = algebraic_connectivity(graph);
    EXPECT_TRUE(solve.converged);
    EXPECT_NEAR(solve.lambda2, jacobi_lambda2(graph), tol);
}

TEST(Lanczos, PathGraphMatchesClosedFormAndJacobi)
{
    for (const int n : {2, 3, 7, 24, 60}) {
        const alive_graph graph = path_graph(n);
        const lanczos_result solve = algebraic_connectivity(graph);
        // Path P_n: λ₂ = 2(1 - cos(π/n)) = 4 sin²(π/2n).
        const double s = std::sin(std::numbers::pi / (2.0 * n));
        EXPECT_TRUE(solve.converged) << "n=" << n;
        EXPECT_NEAR(solve.lambda2, 4.0 * s * s, 1.0e-8) << "n=" << n;
        EXPECT_NEAR(solve.lambda2, jacobi_lambda2(graph), 1.0e-8) << "n=" << n;
    }
}

TEST(Lanczos, CycleGraphMatchesClosedFormAndJacobi)
{
    for (const int n : {3, 8, 40, 101}) {
        const alive_graph graph = cycle_graph(n);
        const lanczos_result solve = algebraic_connectivity(graph);
        // Cycle C_n: λ₂ = 2(1 - cos(2π/n)).
        EXPECT_TRUE(solve.converged) << "n=" << n;
        EXPECT_NEAR(solve.lambda2, 2.0 * (1.0 - std::cos(2.0 * std::numbers::pi / n)),
                    1.0e-8)
            << "n=" << n;
        EXPECT_NEAR(solve.lambda2, jacobi_lambda2(graph), 1.0e-8) << "n=" << n;
    }
}

TEST(Lanczos, CompleteGraphLambda2IsN)
{
    for (const int n : {2, 5, 17}) {
        const lanczos_result solve = algebraic_connectivity(complete_graph(n));
        EXPECT_TRUE(solve.converged) << "n=" << n;
        EXPECT_NEAR(solve.lambda2, static_cast<double>(n), 1.0e-8) << "n=" << n;
    }
}

TEST(Lanczos, DisconnectedGraphAgreesWithJacobiAndUnionFind)
{
    // Two components: a 6-cycle and a 5-path, disjoint.
    links_t links = cycle_links(6);
    const links_t tail = path_links(5, 6);
    links.insert(links.end(), tail.begin(), tail.end());
    const alive_graph graph = alive_adjacency(11, links);

    const lanczos_result solve = algebraic_connectivity(graph);
    EXPECT_TRUE(solve.converged);
    // The raw solver reaches λ₂ = 0 only to solver precision; the dense
    // reference and the union-find component count tell the same story.
    EXPECT_NEAR(solve.lambda2, 0.0, 1.0e-8);
    EXPECT_NEAR(jacobi_lambda2(graph), 0.0, 1.0e-10);
    // The analyzer knows the component count and skips the solve: λ₂ is
    // exactly 0.
    const percolation_metrics metrics = analyze_adjacency(graph);
    EXPECT_EQ(metrics.n_components, 2);
    EXPECT_EQ(metrics.lambda2, 0.0);
    EXPECT_EQ(metrics.lanczos_iterations, 0);
    EXPECT_TRUE(metrics.lambda2_converged);
}

TEST(Lanczos, ConvergedMeansResidualBelowTolerance)
{
    constellation::walker_parameters p;
    p.altitude_m = 550.0e3;
    p.inclination_rad = deg2rad(53.0);
    p.n_planes = 12;
    p.sats_per_plane = 15; // 180 nodes, degree 4: ‖L‖∞ = 8
    const alive_graph graph = alive_adjacency(lsn::build_walker_grid_topology(p));
    const double reference = jacobi_lambda2(graph);
    std::vector<int> iterations;
    for (const double tolerance : {1.0e-6, 1.0e-8, 1.0e-10}) {
        lanczos_options options;
        options.tolerance = tolerance;
        const lanczos_result solve = algebraic_connectivity(graph, options);
        EXPECT_TRUE(solve.converged) << tolerance;
        EXPECT_LE(solve.residual, tolerance * 8.0) << tolerance;
        // |θ − λ| ≤ residual for the eigenvalue nearest θ, and θ ≥ λ₂.
        EXPECT_GE(solve.lambda2, reference - 1.0e-12) << tolerance;
        EXPECT_NEAR(solve.lambda2, reference, solve.residual + 1.0e-12) << tolerance;
        iterations.push_back(solve.iterations);
    }
    // The residual test, not Krylov exhaustion, stops these solves: a
    // looser tolerance stops strictly earlier.
    EXPECT_LT(iterations[0], iterations[2]);
    EXPECT_LE(iterations[0], iterations[1]);
    EXPECT_LE(iterations[1], iterations[2]);
}

TEST(Lanczos, IterationCapIsReportedUnconverged)
{
    // A 60-node path needs far more than 5 Lanczos steps: the cap binds, the
    // solve says so, and its Ritz value approximates λ₂ from above.
    const alive_graph graph = path_graph(60);
    lanczos_options options;
    options.max_iterations = 5;
    const lanczos_result solve = algebraic_connectivity(graph, options);
    EXPECT_FALSE(solve.converged);
    EXPECT_EQ(solve.iterations, 5);
    EXPECT_GT(solve.residual, options.tolerance * 4.0);
    EXPECT_GT(solve.lambda2, jacobi_lambda2(graph));

    // The analyzer carries the flag.
    percolation_options capped;
    capped.lanczos.max_iterations = 5;
    const percolation_metrics metrics = analyze_adjacency(graph, capped);
    EXPECT_FALSE(metrics.lambda2_converged);
    EXPECT_EQ(metrics.lanczos_iterations, 5);
    EXPECT_EQ(metrics.lambda2, solve.lambda2);
}

TEST(Lanczos, WalkerShellMatchesJacobi)
{
    constellation::walker_parameters p;
    p.altitude_m = 550.0e3;
    p.inclination_rad = deg2rad(53.0);
    p.n_planes = 8;
    p.sats_per_plane = 12; // 96 nodes: comfortably inside the dense regime
    const lsn::lsn_topology topo = lsn::build_walker_grid_topology(p);
    expect_lanczos_matches_jacobi(alive_adjacency(topo));
}

TEST(Lanczos, MaskedWalkerShellMatchesJacobi)
{
    constellation::walker_parameters p;
    p.altitude_m = 550.0e3;
    p.inclination_rad = deg2rad(53.0);
    p.n_planes = 6;
    p.sats_per_plane = 8;
    const lsn::lsn_topology topo = lsn::build_walker_grid_topology(p);
    std::vector<std::uint8_t> failed(topo.satellites.size(), 0);
    failed[3] = failed[17] = failed[30] = 1;
    // Full dimension: the failed satellites' links removed and no mask, so
    // their rows stay as isolated vertices that pin the second-smallest
    // eigenvalue at 0 — and both solvers agree.
    links_t survivor_links;
    for (const auto& link : topo.links)
        if (failed[static_cast<std::size_t>(link.a)] == 0 &&
            failed[static_cast<std::size_t>(link.b)] == 0)
            survivor_links.push_back(link);
    const int n = static_cast<int>(topo.satellites.size());
    const alive_graph full = alive_adjacency(n, survivor_links);
    ASSERT_EQ(full.n_alive(), n);
    const lanczos_result solve = algebraic_connectivity(full);
    EXPECT_TRUE(solve.converged);
    EXPECT_NEAR(solve.lambda2, jacobi_lambda2(full), 1.0e-8);
    EXPECT_NEAR(solve.lambda2, 0.0, 1.0e-8);
    // Compacted to the survivors, the graph is connected: λ₂ > 0, and the
    // solvers still agree.
    const alive_graph alive = alive_adjacency(topo, failed);
    ASSERT_EQ(alive.n_alive(), n - 3);
    const lanczos_result compact = algebraic_connectivity(alive);
    EXPECT_TRUE(compact.converged);
    EXPECT_GT(compact.lambda2, 1.0e-3);
    EXPECT_NEAR(compact.lambda2, jacobi_lambda2(alive), 1.0e-8);
}

TEST(Lanczos, TinyGraphsConvergeExactly)
{
    EXPECT_DOUBLE_EQ(algebraic_connectivity(alive_graph{}).lambda2, 0.0);
    const lanczos_result one = algebraic_connectivity(alive_adjacency(1, links_t{}));
    EXPECT_TRUE(one.converged);
    EXPECT_DOUBLE_EQ(one.lambda2, 0.0);
}

TEST(Lanczos, SeedChangesStartVectorButNotResult)
{
    const alive_graph graph = cycle_graph(24);
    lanczos_options a;
    a.seed = 1;
    lanczos_options b;
    b.seed = 99;
    EXPECT_NEAR(algebraic_connectivity(graph, a).lambda2,
                algebraic_connectivity(graph, b).lambda2, 1.0e-9);
    // Bit-identical across repeated solves on the same seed.
    EXPECT_DOUBLE_EQ(algebraic_connectivity(graph, a).lambda2,
                     algebraic_connectivity(graph, a).lambda2);
}

TEST(Lanczos, TridiagonalSmallestEigenvalue)
{
    // 1x1: the diagonal itself.
    const std::vector<double> a1 = {3.5};
    EXPECT_NEAR(tridiagonal_smallest_eigenvalue(a1, {}), 3.5, 1.0e-12);
    // 2x2 [[2, 1], [1, 2]]: eigenvalues 1 and 3.
    const std::vector<double> a2 = {2.0, 2.0};
    const std::vector<double> b2 = {1.0};
    EXPECT_NEAR(tridiagonal_smallest_eigenvalue(a2, b2), 1.0, 1.0e-12);
    // Free Laplacian of P_3 projected: check against Jacobi on the dense form.
    const std::vector<double> a3 = {1.0, 2.0, 1.0};
    const std::vector<double> b3 = {-1.0, -1.0};
    const std::vector<double> dense = {1.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 1.0};
    EXPECT_NEAR(tridiagonal_smallest_eigenvalue(a3, b3), jacobi_eigenvalues(dense, 3)[0],
                1.0e-12);
}

TEST(Lanczos, TridiagonalEigenvectorLastComponent)
{
    // 1x1: the eigenvector is the unit vector itself.
    const std::vector<double> a1 = {3.5};
    EXPECT_DOUBLE_EQ(tridiagonal_eigenvector_last_component(a1, {}, 3.5), 1.0);
    // [[2, 1], [1, 2]]: eigenvalue 1 has eigenvector (1, -1)/√2.
    const std::vector<double> a2 = {2.0, 2.0};
    const std::vector<double> b2 = {1.0};
    EXPECT_NEAR(tridiagonal_eigenvector_last_component(a2, b2, 1.0), std::sqrt(0.5),
                1.0e-12);
    // P_3 Laplacian: eigenvalue 0 has the constant eigenvector, 1/√3 each;
    // eigenvalue 1 has (1, 0, -1)/√2.
    const std::vector<double> a3 = {1.0, 2.0, 1.0};
    const std::vector<double> b3 = {-1.0, -1.0};
    EXPECT_NEAR(tridiagonal_eigenvector_last_component(a3, b3, 0.0), std::sqrt(1.0 / 3.0),
                1.0e-12);
    EXPECT_NEAR(tridiagonal_eigenvector_last_component(a3, b3, 1.0), std::sqrt(0.5),
                1.0e-12);
    // The smallest eigenvalue of a long path's tridiagonal, as the solver
    // feeds it: the bisected θ is exact only to rounding.
    const std::vector<double> a = {1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0};
    const std::vector<double> b(6, -1.0);
    const double theta = tridiagonal_smallest_eigenvalue(a, b);
    EXPECT_NEAR(tridiagonal_eigenvector_last_component(a, b, theta), std::sqrt(1.0 / 7.0),
                1.0e-9);
}

TEST(Lanczos, ValidateRejectsDegenerateOptions)
{
    lanczos_options bad_iters;
    bad_iters.max_iterations = 0;
    EXPECT_THROW(validate(bad_iters), contract_violation);
    lanczos_options bad_tol;
    bad_tol.tolerance = -1.0;
    EXPECT_THROW(validate(bad_tol), contract_violation);
    lanczos_options nan_tol;
    nan_tol.tolerance = std::nan("");
    EXPECT_THROW(validate(nan_tol), contract_violation);
    EXPECT_NO_THROW(validate(lanczos_options{}));
}

TEST(Laplacian, ValidateRejectsMalformedGraphs)
{
    // The path 0-1-2, then one fault at a time; the solver refuses each.
    alive_graph path;
    path.n_satellites = 3;
    path.row_begin = {0, 1, 3, 4};
    path.neighbors = {1, 0, 2, 1};
    EXPECT_NO_THROW(validate(path));
    EXPECT_NO_THROW(validate(alive_graph{}));

    const auto expect_rejected = [](const alive_graph& bad, const char* fault) {
        EXPECT_THROW(validate(bad), contract_violation) << fault;
        EXPECT_THROW(algebraic_connectivity(bad), contract_violation) << fault;
    };
    alive_graph bad = path;
    bad.row_begin = {0, 2, 1, 4};
    expect_rejected(bad, "decreasing offsets");
    bad = path;
    bad.row_begin = {0, 1, 3, 3};
    expect_rejected(bad, "wrong end");
    bad = path;
    bad.row_begin.clear();
    expect_rejected(bad, "no offsets");
    bad = path;
    bad.n_satellites = 2;
    expect_rejected(bad, "more survivors than satellites");
    bad = path;
    bad.neighbors = {1, 0, 3, 1};
    expect_rejected(bad, "out-of-range neighbour");
    bad = path;
    bad.neighbors = {1, 2, 0, 1};
    expect_rejected(bad, "unsorted row");
    bad = path;
    bad.row_begin = {0, 1, 4, 5};
    bad.neighbors = {1, 0, 2, 2, 1};
    expect_rejected(bad, "repeated neighbour");
    bad = path;
    bad.row_begin = {0, 1, 2, 3};
    bad.neighbors = {1, 2, 1};
    expect_rejected(bad, "asymmetric row");
}

TEST(Laplacian, RowSumsVanishAndDegreesMatch)
{
    constellation::walker_parameters p;
    p.inclination_rad = deg2rad(53.0);
    p.n_planes = 4;
    p.sats_per_plane = 5;
    const lsn::lsn_topology topo = lsn::build_walker_grid_topology(p);
    const alive_graph graph = alive_adjacency(topo);
    ASSERT_EQ(graph.n_alive(), 20);
    std::vector<double> ones(20, 1.0);
    std::vector<double> out(20, -1.0);
    laplacian_multiply(graph, ones, out);
    for (const double v : out) EXPECT_EQ(v, 0.0);
    // L e_i is column i of L, which is row i: the degree at i, -1 at each
    // neighbour, 0 elsewhere.
    const std::vector<int> degrees = lsn::link_degrees(topo);
    for (std::size_t i = 0; i < 20; ++i) {
        std::vector<double> unit(20, 0.0);
        unit[i] = 1.0;
        laplacian_multiply(graph, unit, out);
        std::vector<double> expected(20, 0.0);
        expected[i] = static_cast<double>(degrees[i]);
        for (const int c : graph.row(static_cast<int>(i)))
            expected[static_cast<std::size_t>(c)] = -1.0;
        EXPECT_EQ(out, expected) << "column " << i;
    }
}

TEST(AliveGraph, RepeatedLinksAndSelfLoopsCoalesce)
{
    // 0-1 three times in both orientations, a self-loop on 2, 1-2 once,
    // and 2-3 twice in opposite orientations.
    const links_t links{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {2, 1}, {3, 2}, {2, 3}};
    const alive_graph graph = alive_adjacency(4, links);
    EXPECT_EQ(graph.n_satellites, 4);
    EXPECT_EQ(graph.row_begin, (std::vector<int>{0, 1, 3, 5, 6}));
    EXPECT_EQ(graph.neighbors, (std::vector<int>{1, 0, 2, 1, 3, 2}));

    // On a Walker +Grid every row lists exactly the satellite's ISL degree.
    constellation::walker_parameters p;
    p.inclination_rad = deg2rad(53.0);
    p.n_planes = 6;
    p.sats_per_plane = 8;
    const lsn::lsn_topology topo = lsn::build_walker_grid_topology(p);
    const alive_graph grid = alive_adjacency(topo);
    const std::vector<int> degrees = lsn::link_degrees(topo);
    ASSERT_EQ(grid.n_alive(), static_cast<int>(degrees.size()));
    for (int i = 0; i < grid.n_alive(); ++i)
        EXPECT_EQ(static_cast<int>(grid.row(i).size()),
                  degrees[static_cast<std::size_t>(i)])
            << "satellite " << i;
}

} // namespace
} // namespace ssplane::spectral
