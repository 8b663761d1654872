// Time systems: Julian dates, calendar conversion, sidereal time and
// mean-solar time.
//
// The library uses a single continuous time scale (UT-like; leap seconds are
// ignored, which is far below the fidelity any result here depends on).
// `instant` wraps a Julian date and supports arithmetic in seconds.
#ifndef SSPLANE_ASTRO_TIME_H
#define SSPLANE_ASTRO_TIME_H

#include "astro/constants.h"

namespace ssplane::astro {

/// A point in time, stored as a Julian date.
///
/// Regular value type; difference and offset arithmetic are in seconds.
class instant {
public:
    constexpr instant() noexcept : jd_(jd_j2000) {}

    /// From a raw Julian date.
    static constexpr instant from_julian_date(double jd) noexcept { return instant(jd); }

    /// From a Gregorian calendar date and time-of-day (UT).
    /// Months are 1..12, days 1..31; hour/minute/second may carry fractions.
    static instant from_calendar(int year, int month, int day,
                                 int hour = 0, int minute = 0, double second = 0.0);

    /// The J2000.0 epoch (2000-01-01 12:00).
    static constexpr instant j2000() noexcept { return instant(jd_j2000); }

    constexpr double julian_date() const noexcept { return jd_; }

    /// Days elapsed since J2000.0 (can be negative).
    constexpr double days_since_j2000() const noexcept { return jd_ - jd_j2000; }

    /// This instant shifted by `seconds`.
    constexpr instant plus_seconds(double seconds) const noexcept
    {
        return instant(jd_ + seconds / seconds_per_day);
    }

    /// This instant shifted by `days`.
    constexpr instant plus_days(double days) const noexcept { return instant(jd_ + days); }

    /// Seconds from `other` to this instant (positive when this is later).
    constexpr double seconds_since(const instant& other) const noexcept
    {
        return (jd_ - other.jd_) * seconds_per_day;
    }

    constexpr bool operator==(const instant&) const = default;
    constexpr auto operator<=>(const instant&) const = default;

private:
    explicit constexpr instant(double jd) noexcept : jd_(jd) {}
    double jd_;
};

/// Greenwich Mean Sidereal Time at `t`, as an angle in radians in [0, 2*pi).
double gmst_rad(const instant& t) noexcept;

/// Right ascension of the *mean sun* at `t` [rad] — by construction of mean
/// solar time this equals the sun's mean longitude.
double mean_sun_right_ascension_rad(const instant& t) noexcept;

/// Mean solar time of day at geographic longitude `longitude_deg` [hours, 0..24).
double mean_solar_time_hours(const instant& t, double longitude_deg) noexcept;

/// Mean solar time of day for a direction given directly by its inertial
/// (ECI) right ascension [rad]. 12 h = the meridian facing the mean sun.
double solar_time_of_right_ascension_hours(const instant& t,
                                           double right_ascension_rad) noexcept;

} // namespace ssplane::astro

#endif // SSPLANE_ASTRO_TIME_H
