#include "util/vec3.h"

#include <cmath>

#include <gtest/gtest.h>

#include "cross.h"
#include "util/angles.h"

namespace ssplane {
namespace {

TEST(Vec3, BasicArithmetic)
{
    const vec3 a{1.0, 2.0, 3.0};
    const vec3 b{-1.0, 0.5, 2.0};
    EXPECT_EQ(a + b, vec3(0.0, 2.5, 5.0));
    EXPECT_EQ(a - b, vec3(2.0, 1.5, 1.0));
    EXPECT_EQ(a * 2.0, vec3(2.0, 4.0, 6.0));
    EXPECT_EQ(2.0 * a, a * 2.0);
    EXPECT_EQ(-a, vec3(-1.0, -2.0, -3.0));
}

TEST(Vec3, DotAndCrossIdentities)
{
    const vec3 a{1.0, 2.0, 3.0};
    const vec3 b{-2.0, 1.0, 0.5};
    // Cross product is perpendicular to both operands.
    EXPECT_NEAR(cross(a, b).dot(a), 0.0, 1e-12);
    EXPECT_NEAR(cross(a, b).dot(b), 0.0, 1e-12);
    // Anti-commutativity.
    EXPECT_EQ(cross(a, b), -cross(b, a));
    // Lagrange identity: |a x b|^2 = |a|^2 |b|^2 - (a.b)^2.
    EXPECT_NEAR(cross(a, b).dot(cross(a, b)),
                a.dot(a) * b.dot(b) - a.dot(b) * a.dot(b), 1e-9);
}

TEST(Vec3, NormalizedHasUnitLength)
{
    const vec3 v{3.0, -4.0, 12.0};
    EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-12);
    EXPECT_EQ(vec3{}.normalized(), vec3{});
}

// Rodrigues' rotation of v about a unit axis: the independent formula the
// axis rotations are held to.
vec3 rotate_about(const vec3& v, const vec3& unit_axis, double angle)
{
    const double c = std::cos(angle);
    const double s = std::sin(angle);
    return v * c + cross(unit_axis, v) * s + unit_axis * (unit_axis.dot(v) * (1.0 - c));
}

class RotationTest : public ::testing::TestWithParam<double> {};

TEST_P(RotationTest, RotationsPreserveNorm)
{
    const double angle = GetParam();
    const vec3 v{1.3, -0.7, 2.1};
    EXPECT_NEAR(rotate_x(v, angle).norm(), v.norm(), 1e-12);
    EXPECT_NEAR(rotate_z(v, angle).norm(), v.norm(), 1e-12);
}

TEST_P(RotationTest, RotateAboutZAxisMatchesRotateZ)
{
    const double angle = GetParam();
    const vec3 v{0.4, 1.1, -2.0};
    const vec3 a = rotate_z(v, angle);
    const vec3 b = rotate_about(v, {0.0, 0.0, 1.0}, angle);
    EXPECT_NEAR((a - b).norm(), 0.0, 1e-12);
}

TEST_P(RotationTest, RotateAboutXAxisMatchesRotateX)
{
    const double angle = GetParam();
    const vec3 v{0.4, 1.1, -2.0};
    const vec3 a = rotate_x(v, angle);
    const vec3 b = rotate_about(v, {1.0, 0.0, 0.0}, angle);
    EXPECT_NEAR((a - b).norm(), 0.0, 1e-12);
}

TEST_P(RotationTest, InverseRotationRestores)
{
    const double angle = GetParam();
    const vec3 v{5.0, -3.0, 0.5};
    EXPECT_NEAR((rotate_x(rotate_x(v, angle), -angle) - v).norm(), 0.0, 1e-12);
    EXPECT_NEAR((rotate_z(rotate_z(v, angle), -angle) - v).norm(), 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(SweepAngles, RotationTest,
                         ::testing::Values(-3.0, -1.0, -0.3, 0.0, 0.2, 1.0, 2.5, 3.14,
                                           6.0));

TEST(Vec3, AngleBetween)
{
    EXPECT_NEAR(angle_between({1, 0, 0}, {0, 1, 0}), pi / 2.0, 1e-12);
    EXPECT_NEAR(angle_between({1, 0, 0}, {1, 0, 0}), 0.0, 1e-7);
    EXPECT_NEAR(angle_between({1, 0, 0}, {-1, 0, 0}), pi, 1e-7);
    // Scale invariance.
    EXPECT_NEAR(angle_between({2, 2, 0}, {0, 0, 5}), pi / 2.0, 1e-12);
}

TEST(Vec3, RotationComposition)
{
    // Rotating 90° about z maps x-hat to y-hat.
    const vec3 x{1, 0, 0};
    EXPECT_NEAR((rotate_z(x, pi / 2.0) - vec3{0, 1, 0}).norm(), 0.0, 1e-12);
    // Rotating 90° about x maps y-hat to z-hat.
    EXPECT_NEAR((rotate_x(vec3{0, 1, 0}, pi / 2.0) - vec3{0, 0, 1}).norm(), 0.0, 1e-12);
}

} // namespace
} // namespace ssplane
