// Minimal 3-vector used for positions, velocities and directions.
//
// A deliberate value type (Regular, C.11): cheap to copy, constexpr-friendly,
// no dynamic allocation. Units are carried by context (documented per API).
#ifndef SSPLANE_UTIL_VEC3_H
#define SSPLANE_UTIL_VEC3_H

#include <cmath>

namespace ssplane {

struct vec3 {
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;

    constexpr vec3() = default;
    constexpr vec3(double x_, double y_, double z_) noexcept : x(x_), y(y_), z(z_) {}

    constexpr vec3 operator+(const vec3& o) const noexcept { return {x + o.x, y + o.y, z + o.z}; }
    constexpr vec3 operator-(const vec3& o) const noexcept { return {x - o.x, y - o.y, z - o.z}; }
    constexpr vec3 operator-() const noexcept { return {-x, -y, -z}; }
    constexpr vec3 operator*(double s) const noexcept { return {x * s, y * s, z * s}; }
    constexpr vec3 operator/(double s) const noexcept { return {x / s, y / s, z / s}; }

    constexpr vec3& operator+=(const vec3& o) noexcept { x += o.x; y += o.y; z += o.z; return *this; }
    constexpr vec3& operator-=(const vec3& o) noexcept { x -= o.x; y -= o.y; z -= o.z; return *this; }
    constexpr vec3& operator*=(double s) noexcept { x *= s; y *= s; z *= s; return *this; }

    constexpr bool operator==(const vec3&) const = default;

    constexpr double dot(const vec3& o) const noexcept { return x * o.x + y * o.y + z * o.z; }

    double norm() const noexcept { return std::sqrt(dot(*this)); }

    /// Unit vector in this direction; the zero vector maps to itself.
    vec3 normalized() const noexcept
    {
        const double n = norm();
        return n > 0.0 ? (*this) / n : *this;
    }
};

constexpr vec3 operator*(double s, const vec3& v) noexcept { return v * s; }

/// Angle between two non-zero vectors, in radians, in [0, pi].
inline double angle_between(const vec3& a, const vec3& b) noexcept
{
    const double na = a.norm();
    const double nb = b.norm();
    if (na == 0.0 || nb == 0.0) return 0.0;
    double c = a.dot(b) / (na * nb);
    if (c > 1.0) c = 1.0;
    if (c < -1.0) c = -1.0;
    return std::acos(c);
}

/// Rotate v about the +x axis by `angle` radians (right-handed).
inline vec3 rotate_x(const vec3& v, double angle) noexcept
{
    const double c = std::cos(angle);
    const double s = std::sin(angle);
    return {v.x, c * v.y - s * v.z, s * v.y + c * v.z};
}

/// Rotate v about the +z axis by `angle` radians (right-handed).
inline vec3 rotate_z(const vec3& v, double angle) noexcept
{
    const double c = std::cos(angle);
    const double s = std::sin(angle);
    return {c * v.x - s * v.y, s * v.x + c * v.y, v.z};
}

} // namespace ssplane

#endif // SSPLANE_UTIL_VEC3_H
