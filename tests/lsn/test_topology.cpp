#include "lsn/topology.h"

#include "astro/ground_track.h"

#include <algorithm>
#include <bit>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "astro/constants.h"
#include "capped_topology.h"
#include "lsn/scenario.h"
#include "masked_build.h"
#include "util/angles.h"
#include "util/expects.h"
#include "util/rng.h"

namespace ssplane::lsn {
namespace {

/// The graph at the epoch: a fresh builder's one-offset propagation grid.
network_snapshot snapshot_at_epoch(const lsn_topology& topo,
                                   const std::vector<ground_station>& stations,
                                   double min_elevation_rad,
                                   double max_isl_range_m = 6.0e6)
{
    const snapshot_builder builder(topo, stations, astro::instant::j2000(),
                                   min_elevation_rad, max_isl_range_m);
    const std::vector<double> epoch_only{0.0};
    return builder.snapshot_from_positions(builder.positions_at_offsets(epoch_only)[0]);
}

TEST(Topology, WalkerGridLinkCount)
{
    constellation::walker_parameters p;
    p.altitude_m = 550.0e3;
    p.inclination_rad = deg2rad(53.0);
    p.n_planes = 5;
    p.sats_per_plane = 6;
    const auto topo = build_walker_grid_topology(p);
    EXPECT_EQ(topo.satellites.size(), 30u);
    // +Grid: each satellite has one intra-plane and one cross-plane link.
    EXPECT_EQ(topo.links.size(), 60u);
    for (const auto& link : topo.links) {
        EXPECT_GE(link.a, 0);
        EXPECT_LT(link.b, 30);
        EXPECT_NE(link.a, link.b);
    }
}

/// No undirected edge may appear twice (a duplicated link would double its
/// adjacency entries and survive a single link-cut failure).
void expect_unique_links(const lsn_topology& topo)
{
    std::set<std::pair<int, int>> seen;
    for (const auto& link : topo.links) {
        EXPECT_NE(link.a, link.b);
        const auto edge = std::minmax(link.a, link.b);
        EXPECT_TRUE(seen.insert(edge).second)
            << "duplicate link " << edge.first << "-" << edge.second;
    }
}

TEST(Topology, TwoPlaneGridHasNoDuplicateCrossLinks)
{
    constellation::walker_parameters p;
    p.inclination_rad = deg2rad(53.0);
    p.n_planes = 2;
    p.sats_per_plane = 6;
    const auto topo = build_walker_grid_topology(p);
    // 2 rings of 6 plus ONE bridge of 6 (0->1 and 1->0 are the same edge).
    EXPECT_EQ(topo.links.size(), 12u + 6u);
    expect_unique_links(topo);
}

TEST(Topology, TwoSatRingHasNoDuplicateWrapLink)
{
    constellation::walker_parameters p;
    p.inclination_rad = deg2rad(53.0);
    p.n_planes = 4;
    p.sats_per_plane = 2;
    const auto topo = build_walker_grid_topology(p);
    // 4 one-link "rings" + cross links 0-1, 1-2, 2-3, 3-0 at both slots.
    EXPECT_EQ(topo.links.size(), 4u + 8u);
    expect_unique_links(topo);
}

TEST(Topology, TwoByTwoGridDedup)
{
    constellation::walker_parameters p;
    p.inclination_rad = deg2rad(53.0);
    p.n_planes = 2;
    p.sats_per_plane = 2;
    const auto topo = build_walker_grid_topology(p);
    // Both degeneracies at once: 2 one-link rings + one bridge per slot.
    EXPECT_EQ(topo.links.size(), 4u);
    expect_unique_links(topo);
}

TEST(Topology, LargerGridsHaveUniqueLinks)
{
    constellation::walker_parameters p;
    p.inclination_rad = deg2rad(53.0);
    p.n_planes = 5;
    p.sats_per_plane = 6;
    expect_unique_links(build_walker_grid_topology(p));

    std::vector<constellation::ss_plane> planes;
    planes.push_back({560.0e3, 10.0, 2, 0.0}); // 2-ring: single intra link
    planes.push_back({560.0e3, 14.0, 4, 0.0});
    planes.push_back({560.0e3, 12.0, 4, 0.0});
    const auto ss = build_ss_topology(planes, astro::instant::j2000());
    expect_unique_links(ss);
    // 1 + 4 + 4 ring links; LTAN order 10-12-14 gives bridges of min(2,4)
    // and min(4,4) satellites.
    EXPECT_EQ(ss.links.size(), 9u + 6u);
}

TEST(Topology, SinglePlaneHasRingOnly)
{
    constellation::walker_parameters p;
    p.inclination_rad = deg2rad(65.0);
    p.n_planes = 1;
    p.sats_per_plane = 8;
    const auto topo = build_walker_grid_topology(p);
    EXPECT_EQ(topo.links.size(), 8u); // ring only
}

TEST(Topology, SsTopologyRingsAndCrossLinks)
{
    std::vector<constellation::ss_plane> planes;
    planes.push_back({560.0e3, 10.0, 4, 0.0});
    planes.push_back({560.0e3, 14.0, 4, 0.0});
    planes.push_back({560.0e3, 12.0, 4, 0.0});
    const auto topo = build_ss_topology(planes, astro::instant::j2000());
    EXPECT_EQ(topo.satellites.size(), 12u);
    // 3 rings of 4 + 2 adjacent-LTAN bridges of 4.
    EXPECT_EQ(topo.links.size(), 12u + 8u);
}

TEST(Topology, DefaultGroundStationsSpreadOverLatitudes)
{
    const auto stations = default_ground_stations();
    EXPECT_GE(stations.size(), 10u);
    double min_lat = 90.0;
    double max_lat = -90.0;
    for (const auto& gs : stations) {
        min_lat = std::min(min_lat, gs.latitude_deg);
        max_lat = std::max(max_lat, gs.latitude_deg);
    }
    EXPECT_LT(min_lat, -20.0);
    EXPECT_GT(max_lat, 50.0);
}

TEST(Topology, SnapshotStructure)
{
    constellation::walker_parameters p;
    p.altitude_m = 550.0e3;
    p.inclination_rad = deg2rad(53.0);
    p.n_planes = 4;
    p.sats_per_plane = 4;
    const auto topo = build_walker_grid_topology(p);
    const auto stations = default_ground_stations();
    const auto snap = snapshot_at_epoch(topo, stations, deg2rad(30.0));

    EXPECT_EQ(snap.n_satellites, 16);
    EXPECT_EQ(snap.n_ground, static_cast<int>(stations.size()));
    EXPECT_EQ(snap.n_nodes(), 16 + static_cast<int>(stations.size()));
    EXPECT_EQ(snap.arc_begin.size(), static_cast<std::size_t>(snap.n_nodes()) + 1);
    EXPECT_EQ(snap.arcs.size(), 2 * snap.links.size());
    EXPECT_EQ(snap.ground_node(0), 16);
}

TEST(Topology, GroundLinkAppearsWhenSatelliteOverhead)
{
    // One satellite placed over the equator/prime meridian at epoch; a
    // ground station at the subsatellite point must link to it.
    constellation::walker_parameters p;
    p.altitude_m = 560.0e3;
    p.inclination_rad = deg2rad(65.0);
    p.n_planes = 1;
    p.sats_per_plane = 1;
    lsn_topology topo;
    topo.satellites = constellation::make_walker_delta(p);

    const auto epoch = astro::instant::j2000();
    const astro::j2_propagator orbit(topo.satellites[0].elements, epoch);
    const auto sub = astro::subsatellite_point(orbit.state_at(epoch).position_m, epoch);

    std::vector<ground_station> stations;
    stations.push_back({"under", sub.latitude_deg, sub.longitude_deg});
    stations.push_back({"antipode", -sub.latitude_deg,
                        wrap_deg_180(sub.longitude_deg + 180.0)});
    const auto snap = snapshot_at_epoch(topo, stations, deg2rad(30.0));
    ASSERT_EQ(snap.arcs_of(snap.ground_node(0)).size(), 1u);
    EXPECT_TRUE(snap.arcs_of(snap.ground_node(1)).empty());

    // Latency of the overhead link is roughly altitude / c.
    const auto& link =
        snap.links[static_cast<std::size_t>(snap.arcs_of(snap.ground_node(0))[0].link)];
    EXPECT_EQ(link.a, 0);
    EXPECT_EQ(link.b, snap.ground_node(0));
    EXPECT_NEAR(link.latency_s, 560.0e3 / astro::speed_of_light_m_s, 2e-4);
}

TEST(Topology, IslRangeLimitDropsLongLinks)
{
    constellation::walker_parameters p;
    p.altitude_m = 550.0e3;
    p.inclination_rad = deg2rad(53.0);
    p.n_planes = 2;
    p.sats_per_plane = 2; // antipodal in-plane satellites -> huge distance
    const auto topo = build_walker_grid_topology(p);
    const auto snap_all = snapshot_at_epoch(topo, {}, deg2rad(30.0), 5.0e7);
    const auto snap_short = snapshot_at_epoch(topo, {}, deg2rad(30.0), 1.0e6);
    EXPECT_GT(snap_all.links.size(), snap_short.links.size());
}

/// Connected components of the static ISL wiring by BFS (test-local; the
/// library's union-find lives in the spectral suite).
int count_components(const lsn_topology& topo)
{
    const int n = static_cast<int>(topo.satellites.size());
    std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
    for (const auto& link : topo.links) {
        adj[static_cast<std::size_t>(link.a)].push_back(link.b);
        adj[static_cast<std::size_t>(link.b)].push_back(link.a);
    }
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    int components = 0;
    std::vector<int> stack;
    for (int start = 0; start < n; ++start) {
        if (seen[static_cast<std::size_t>(start)]) continue;
        ++components;
        stack.push_back(start);
        seen[static_cast<std::size_t>(start)] = 1;
        while (!stack.empty()) {
            const int u = stack.back();
            stack.pop_back();
            for (const int v : adj[static_cast<std::size_t>(u)])
                if (!seen[static_cast<std::size_t>(v)]) {
                    seen[static_cast<std::size_t>(v)] = 1;
                    stack.push_back(v);
                }
        }
    }
    return components;
}

constellation::walker_parameters capped_params(int planes, int sats)
{
    constellation::walker_parameters p;
    p.altitude_m = 550.0e3;
    p.inclination_rad = deg2rad(70.0);
    p.n_planes = planes;
    p.sats_per_plane = sats;
    p.phasing_f = planes > 1 ? 1 : 0;
    return p;
}

TEST(CappedTopology, RespectsDegreeCapAndStaysConnected)
{
    for (int degree = 2; degree <= 5; ++degree) {
        const auto topo = build_walker_capped_topology(capped_params(12, 6), degree);
        EXPECT_EQ(topo.satellites.size(), 72u);
        expect_unique_links(topo);
        const auto degrees = link_degrees(topo);
        // The chord layers reach the cap on a shell this size, never more.
        EXPECT_EQ(*std::max_element(degrees.begin(), degrees.end()), degree)
            << "degree=" << degree;
        EXPECT_EQ(count_components(topo), 1) << "degree=" << degree;
    }
}

TEST(CappedTopology, DegreeTwoIsAHamiltonianRing)
{
    const auto topo = build_walker_capped_topology(capped_params(6, 4), 2);
    // A single cycle over all 24 satellites: 24 edges, every degree exactly 2.
    EXPECT_EQ(topo.links.size(), 24u);
    const auto degrees = link_degrees(topo);
    for (const int d : degrees) EXPECT_EQ(d, 2);
    EXPECT_EQ(count_components(topo), 1);
}

TEST(CappedTopology, LinkCountGrowsMonotonicallyWithDegree)
{
    std::size_t previous = 0;
    for (int degree = 2; degree <= 5; ++degree) {
        const auto topo = build_walker_capped_topology(capped_params(16, 5), degree);
        EXPECT_GT(topo.links.size(), previous) << "degree=" << degree;
        previous = topo.links.size();
    }
}

TEST(CappedTopology, RejectsDegreeBelowRing)
{
    EXPECT_THROW(build_walker_capped_topology(capped_params(4, 4), 1),
                 contract_violation);
}

TEST(CappedTopology, TinyShellsDegenerateGracefully)
{
    // 1 plane x 3 sats: the serpentine ring is just that plane's ring.
    const auto ring = build_walker_capped_topology(capped_params(1, 3), 4);
    EXPECT_EQ(ring.links.size(), 3u);
    expect_unique_links(ring);
    // 2 planes x 1 sat: a single edge, no duplicate closure.
    const auto pair = build_walker_capped_topology(capped_params(2, 1), 3);
    EXPECT_EQ(pair.links.size(), 1u);
    expect_unique_links(pair);
}

TEST(Topology, LinkDegreeHelpers)
{
    lsn_topology topo;
    topo.satellites.resize(4);
    topo.links = {{0, 1}, {1, 2}, {1, 3}};
    const auto degrees = link_degrees(topo);
    ASSERT_EQ(degrees.size(), 4u);
    EXPECT_EQ(degrees[0], 1);
    EXPECT_EQ(degrees[1], 3);
    lsn_topology bad;
    bad.satellites.resize(2);
    bad.links = {{0, 5}};
    EXPECT_THROW(link_degrees(bad), contract_violation);
}

/// The link-table invariants: every link has a < b and appears exactly
/// once in each endpoint's CSR row, and each row lists ids in increasing
/// order.
void expect_link_table(const network_snapshot& snap)
{
    ASSERT_EQ(snap.arc_begin.size(), static_cast<std::size_t>(snap.n_nodes()) + 1);
    EXPECT_EQ(snap.arc_begin.front(), 0);
    EXPECT_EQ(snap.arc_begin.back(), static_cast<int>(snap.arcs.size()));
    std::vector<int> seen_at_a(snap.links.size(), 0);
    std::vector<int> seen_at_b(snap.links.size(), 0);
    for (int u = 0; u < snap.n_nodes(); ++u) {
        int previous = -1;
        for (const auto& arc : snap.arcs_of(u)) {
            ASSERT_GE(arc.link, 0);
            ASSERT_LT(arc.link, static_cast<int>(snap.links.size()));
            EXPECT_GT(arc.link, previous) << "row " << u;
            previous = arc.link;
            const auto& link = snap.links[static_cast<std::size_t>(arc.link)];
            const auto id = static_cast<std::size_t>(arc.link);
            if (u == link.a && arc.to == link.b)
                ++seen_at_a[id];
            else if (u == link.b && arc.to == link.a)
                ++seen_at_b[id];
            else
                ADD_FAILURE() << "arc " << u << "->" << arc.to << " is not link " << id;
        }
    }
    for (std::size_t id = 0; id < snap.links.size(); ++id) {
        EXPECT_LT(snap.links[id].a, snap.links[id].b) << "link " << id;
        EXPECT_EQ(seen_at_a[id], 1) << "link " << id;
        EXPECT_EQ(seen_at_b[id], 1) << "link " << id;
    }
}

/// `got` and `want` hold the same links (endpoints, latency bit for bit) in
/// the same order and the same CSR rows.
void expect_same_snapshot(const network_snapshot& got, const network_snapshot& want)
{
    ASSERT_EQ(got.n_satellites, want.n_satellites);
    ASSERT_EQ(got.n_ground, want.n_ground);
    ASSERT_EQ(got.links.size(), want.links.size());
    for (std::size_t id = 0; id < want.links.size(); ++id) {
        const auto& g = got.links[id];
        const auto& w = want.links[id];
        ASSERT_TRUE(g.a == w.a && g.b == w.b &&
                    std::bit_cast<std::uint64_t>(g.latency_s) ==
                        std::bit_cast<std::uint64_t>(w.latency_s))
            << "link " << id;
    }
    ASSERT_EQ(got.arc_begin, want.arc_begin);
    ASSERT_EQ(got.arcs.size(), want.arcs.size());
    for (std::size_t k = 0; k < want.arcs.size(); ++k)
        ASSERT_TRUE(got.arcs[k].to == want.arcs[k].to &&
                    got.arcs[k].link == want.arcs[k].link)
            << "arc " << k;
}

TEST(Topology, SnapshotLinkTableOnUnmaskedAndMaskedWalker)
{
    constellation::walker_parameters p;
    p.altitude_m = 550.0e3;
    p.inclination_rad = deg2rad(53.0);
    p.n_planes = 8;
    p.sats_per_plane = 8;
    p.phasing_f = 1;
    const auto topo = build_walker_grid_topology(p);
    const snapshot_builder builder(topo, default_ground_stations(),
                                   astro::instant::j2000(), deg2rad(25.0));
    const std::vector<double> epoch_only{0.0};
    const auto positions = builder.positions_at_offsets(epoch_only)[0];

    const auto full = builder.snapshot_from_positions(positions);
    expect_link_table(full);
    EXPECT_GT(full.links.size(), topo.links.size()); // ground links too

    std::vector<std::uint8_t> failed(topo.satellites.size(), 0);
    for (std::size_t s = 0; s < failed.size(); s += 5) failed[s] = 1;
    const auto masked = builder.snapshot_from_positions(positions, failed);
    expect_link_table(masked);
    for (std::size_t s = 0; s < failed.size(); s += 5)
        EXPECT_TRUE(masked.arcs_of(static_cast<int>(s)).empty()) << "satellite " << s;

    // The mask only deletes links: the masked table is the unmasked one
    // minus the failed satellites' links, in the same order.
    std::vector<network_snapshot::link> survivors;
    for (const auto& link : full.links)
        if (failed[static_cast<std::size_t>(link.a)] == 0 &&
            (link.b >= full.n_satellites || failed[static_cast<std::size_t>(link.b)] == 0))
            survivors.push_back(link);
    ASSERT_EQ(masked.links.size(), survivors.size());
    for (std::size_t id = 0; id < survivors.size(); ++id) {
        EXPECT_EQ(masked.links[id].a, survivors[id].a);
        EXPECT_EQ(masked.links[id].b, survivors[id].b);
        EXPECT_EQ(masked.links[id].latency_s, survivors[id].latency_s);
    }

    // Both filtered paths — the step geometry and the one-step builder call —
    // equal the reference build that applies the mask inside its loops, on
    // every step of a grid, three shells and 19 masks each.
    std::vector<constellation::ss_plane> ss_planes;
    for (int plane = 0; plane < 8; ++plane)
        ss_planes.push_back({560.0e3, 1.5 * plane, 14, 0.3 * plane});
    const std::vector<std::pair<const char*, lsn_topology>> shells{
        {"ss design", build_ss_topology(ss_planes, astro::instant::j2000())},
        {"walker +grid", topo},
        {"capped walker", build_walker_capped_topology(p, 3)}};
    const auto stations = default_ground_stations();
    const double min_elevation_rad = deg2rad(25.0);
    const double max_isl_range_m = 6.0e6;
    rng draws(19);
    for (const auto& [name, shell] : shells) {
        SCOPED_TRACE(name);
        const sweep_geometry geometry(
            snapshot_builder(shell, stations, astro::instant::j2000(), min_elevation_rad,
                             max_isl_range_m),
            sweep_offsets(4.0 * 3600.0, 3600.0));
        const std::size_t n = shell.satellites.size();
        std::vector<std::vector<std::uint8_t>> masks{
            {}, std::vector<std::uint8_t>(n, 1), std::vector<std::uint8_t>(n, 0)};
        for (std::size_t s = 0; s < n; ++s)
            masks.back()[s] = shell.satellites[s].plane == 1;
        for (int draw = 0; draw < 16; ++draw) {
            const double loss = draws.uniform(0.0, 0.5);
            auto& mask = masks.emplace_back(n, 0);
            for (auto& bit : mask) bit = draws.bernoulli(loss) ? 1 : 0;
        }
        for (int step = 0; step < geometry.n_steps(); ++step) {
            const auto& at_step = geometry.positions()[static_cast<std::size_t>(step)];
            for (std::size_t m = 0; m < masks.size(); ++m) {
                SCOPED_TRACE(::testing::Message() << "step " << step << ", mask " << m);
                const auto reference = masked_build(shell, stations, min_elevation_rad,
                                                    max_isl_range_m, at_step, masks[m]);
                expect_same_snapshot(geometry.snapshot(step, masks[m]), reference);
                expect_same_snapshot(
                    geometry.builder().snapshot_from_positions(at_step, masks[m]),
                    reference);
            }
            EXPECT_TRUE(geometry.snapshot(step, masks[1]).links.empty());
        }
    }
}

TEST(Topology, SnapshotFactoryOrientsLinksAndRejectsBadOnes)
{
    // Links may come in either orientation; ids follow input order.
    const auto snap = make_network_snapshot(2, 1, {{2, 0, 0.003}, {0, 1, 0.005}});
    expect_link_table(snap);
    ASSERT_EQ(snap.links.size(), 2u);
    EXPECT_EQ(snap.links[0].a, 0);
    EXPECT_EQ(snap.links[0].b, 2);
    EXPECT_EQ(snap.link_between(2, 0), 0);
    EXPECT_EQ(snap.link_between(1, 0), 1);
    EXPECT_EQ(snap.link_between(1, 2), -1);
    EXPECT_THROW(snap.arcs_of(3), contract_violation);

    EXPECT_THROW(make_network_snapshot(2, 0, {{0, 2, 0.001}}), contract_violation);
    EXPECT_THROW(make_network_snapshot(2, 0, {{-1, 1, 0.001}}), contract_violation);
    EXPECT_THROW(make_network_snapshot(2, 0, {{1, 1, 0.001}}), contract_violation);
    EXPECT_THROW(make_network_snapshot(-1, 0, {}), contract_violation);
    EXPECT_THROW(make_network_snapshot(2, 0, {{0, 1, -0.0025}}), contract_violation);
    EXPECT_THROW(make_network_snapshot(2, 0, {{0, 1, std::nan("")}}), contract_violation);
}

} // namespace
} // namespace ssplane::lsn
