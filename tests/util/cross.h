// The cross product, kept test-side: Rodrigues' rotation (the reference the
// axis rotations are held to) and the state-to-elements inverse of the
// Kepler tests use it, and nothing in src/ does.
#ifndef SSPLANE_TESTS_UTIL_CROSS_H
#define SSPLANE_TESTS_UTIL_CROSS_H

#include "util/vec3.h"

namespace ssplane {

constexpr vec3 cross(const vec3& a, const vec3& b) noexcept
{
    return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x};
}

} // namespace ssplane

#endif // SSPLANE_TESTS_UTIL_CROSS_H
