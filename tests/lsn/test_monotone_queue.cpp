#include "lsn/monotone_queue.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/expects.h"
#include "util/rng.h"

namespace ssplane::lsn {
namespace {

/// The reference order: a binary heap of (key, node id) pairs under
/// `std::greater<>` pops the least key first and, among equal keys, the
/// lowest node id.
using reference_queue =
    std::priority_queue<std::pair<double, int>, std::vector<std::pair<double, int>>,
                        std::greater<>>;

TEST(MonotoneQueue, PopsInTheBinaryHeapOrderUnderRandomMonotoneInterleavings)
{
    // Seeded interleavings over a day of keys (0 to 86,400 s): single pushes
    // a little above the last pop, pushes exactly at it, and bursts of at
    // least 1000 entries sharing one key, as tempo's storage arcs queue every
    // node at a step boundary. Each pop must return the reference's entry.
    constexpr double day_s = 86400.0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        rng draws(seed);
        monotone_queue queue;
        reference_queue reference;
        double floor = 0.0; // the last popped key
        std::size_t pops = 0;
        bool same = true;
        const auto push = [&](double key) {
            const auto node = static_cast<int>(draws.uniform_int(0, 99999));
            queue.push(key, node);
            reference.emplace(key, node);
        };
        const auto pop_both = [&] {
            const auto [key, node] = queue.pop();
            same = key == reference.top().first && node == reference.top().second;
            reference.pop();
            floor = key;
            ++pops;
        };
        int bursts = 0;
        for (int step = 0; step < 12000 && same && floor < day_s; ++step) {
            const double roll = draws.uniform();
            if (roll < 0.003) {
                // A step boundary: every node waits for the same instant.
                const double boundary =
                    std::min(day_s, std::ceil((floor + 1.0) / 600.0) * 600.0);
                const auto n = draws.uniform_int(1000, 2000);
                for (std::int64_t i = 0; i < n; ++i) push(boundary);
                ++bursts;
            } else if (roll < 0.1) {
                push(floor);
            } else if (roll < 0.55 || reference.empty()) {
                push(std::min(day_s, floor + (draws.bernoulli(0.5)
                                                  ? draws.uniform(0.0, 0.05)
                                                  : draws.uniform(0.0, 900.0))));
            } else {
                pop_both();
            }
        }
        while (same && !reference.empty()) pop_both();
        EXPECT_TRUE(same) << "seed " << seed << ": pop " << pops << " differs";
        EXPECT_TRUE(queue.empty()) << "seed " << seed;
        EXPECT_GT(bursts, 0) << "seed " << seed;
    }
}

TEST(MonotoneQueue, EqualKeysPopByNodeIdAcrossRefillsAndLatePushes)
{
    // 2000 entries at one key in descending id order, then more ties pushed
    // between pops: the lowest id always comes first.
    monotone_queue queue;
    for (int node = 1999; node >= 0; --node) queue.push(3600.0, 2 * node + 1);
    queue.push(7200.0, 0);
    EXPECT_EQ(queue.pop().node, 1);
    queue.push(3600.0, 0); // a tie behind the floor's own key
    EXPECT_EQ(queue.pop().node, 0);
    for (int node = 1; node < 2000; ++node) {
        const auto [key, id] = queue.pop();
        EXPECT_EQ(key, 3600.0);
        EXPECT_EQ(id, 2 * node + 1);
    }
    const auto last = queue.pop();
    EXPECT_EQ(last.key, 7200.0);
    EXPECT_EQ(last.node, 0);
    EXPECT_TRUE(queue.empty());
}

TEST(MonotoneQueue, RejectsKeysBelowTheLastPopNaNAndEmptyPops)
{
    monotone_queue queue;
    EXPECT_THROW(queue.push(-1.0e-9, 0), contract_violation); // below the 0 floor
    EXPECT_THROW(queue.push(std::nan(""), 0), contract_violation);
    EXPECT_THROW(queue.pop(), contract_violation);

    queue.push(-0.0, 4); // equals +0
    queue.push(5.0, 1);
    queue.push(2.5, 2);
    EXPECT_EQ(queue.pop().node, 4);
    EXPECT_EQ(queue.pop().node, 2);
    EXPECT_THROW(queue.push(2.0, 3), contract_violation);
    EXPECT_THROW(queue.push(std::nextafter(2.5, 0.0), 3), contract_violation);
    queue.push(2.5, 3); // equal to the last pop is fine
    queue.push(std::numeric_limits<double>::infinity(), 5);
    EXPECT_EQ(queue.pop().node, 3);
    EXPECT_EQ(queue.pop().node, 1);
    EXPECT_EQ(queue.pop().key, std::numeric_limits<double>::infinity());
    EXPECT_TRUE(queue.empty());

    // The floor is now +inf; clear() lowers it back to 0.
    EXPECT_THROW(queue.push(4.0, 0), contract_violation);
    queue.push(std::numeric_limits<double>::infinity(), 6);
    queue.clear();
    EXPECT_TRUE(queue.empty());
    queue.push(1.0, 7);
    EXPECT_EQ(queue.pop().node, 7);
}

} // namespace
} // namespace ssplane::lsn
