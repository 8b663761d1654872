#include "util/union_find.h"

#include <gtest/gtest.h>

namespace ssplane {
namespace {

TEST(UnionFind, TracksComponentSizesAndCountsOnlyRealMerges)
{
    union_find components(6);
    components.unite(0, 1);
    components.unite(1, 2);
    components.unite(2, 0); // already one component: not a merge
    components.unite(3, 4);
    EXPECT_EQ(components.unions(), 3);
    EXPECT_EQ(components.find(0), components.find(2));
    EXPECT_NE(components.find(0), components.find(3));
    EXPECT_EQ(components.component_size(1), 3);
    EXPECT_EQ(components.component_size(4), 2);
    EXPECT_EQ(components.component_size(5), 1);
}

} // namespace
} // namespace ssplane
