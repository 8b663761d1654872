#include "api.h"

namespace fixture {

registry& registry::instance()
{
    static registry shared;
    return shared;
}

counter& registry::get_counter(const char*)
{
    static counter rows;
    return rows;
}

std::string csv_escape(const std::string& field)
{
    return "\"" + field + "\"";
}

void csv_writer::cell(const std::string& x)
{
    out_ << csv_escape(x);
}

double subsatellite_point(double t)
{
    return t * 0.5;
}

std::vector<ground_point> ground_track(double t)
{
    std::vector<ground_point> track;
    track.push_back({t, subsatellite_point(t)});
    return track;
}

double tridiagonal_eigenvector_last_component(std::span<const double> alpha)
{
    return alpha.empty() ? 0.0 : alpha.back();
}

double ritz_weight(double b, std::span<const double> alpha)
{
    return b * tridiagonal_eigenvector_last_component(alpha);
}

double proton_activity_scale(double activity)
{
    return 1.0 - 0.3 * activity;
}

double proton_flux(const flux_mix& c, double a)
{
    return c.proton * proton_activity_scale(a);
}

int owed_pairs::owed_of(int pair) const
{
    return pair;
}

int replay(const owed_pairs* base, const int* recorded)
{
    return base->owed_of(*recorded);
}

int layout::stride()
{
    return 3;
}

} // namespace fixture
