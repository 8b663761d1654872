// Fixture: unused-public-api must stay quiet. Each function has one caller,
// through a call shape from the tree that a naive declaration pattern
// misreads as a declaration: a stream insertion, a braced push_back, a
// product, an arrow call, a qualified static call in a template, a call in
// an inline header body and a call from a macro in the same header. A
// static_assert and a function-pointer member are not functions at all.
#ifndef FIXTURE_UNUSED_PUBLIC_API_CLEAN_H
#define FIXTURE_UNUSED_PUBLIC_API_CLEAN_H

#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace fixture {

struct counter {
    void add(long n) { total += n; }
    long total = 0;
    void (*on_add)(long);
};
static_assert(sizeof(counter) > sizeof(long), "counter holds its total");

struct registry {
    static registry& instance();
    counter& get_counter(const char* name);
};

#define FIXTURE_COUNT(name)                                                    \
    ::fixture::registry::instance().get_counter(name).add(1)

std::string csv_escape(const std::string& field);

class csv_writer {
public:
    explicit csv_writer(std::ostream& out) : out_(out) {}
    void cell(const std::string& x);

private:
    std::ostream& out_;
};

struct ground_point {
    double t = 0.0;
    double latitude_deg = 0.0;
};
double subsatellite_point(double t);
std::vector<ground_point> ground_track(double t);

double tridiagonal_eigenvector_last_component(std::span<const double> alpha);
double ritz_weight(double b, std::span<const double> alpha);

struct flux_mix {
    double proton = 0.0;
};
double proton_activity_scale(double activity);
double proton_flux(const flux_mix& c, double a);

struct owed_pairs {
    int owed_of(int pair) const;
};
int replay(const owed_pairs* base, const int* recorded);

struct layout {
    static int stride();
};

template <class T>
int scaled(int n)
{
    return n * T::stride();
}

class failure_timeline {
public:
    bool is_static() const noexcept { return n_steps_ == 1; }
    int step(int i) const { return is_static() ? 0 : i; }

private:
    int n_steps_ = 1;
};

} // namespace fixture

#endif // FIXTURE_UNUSED_PUBLIC_API_CLEAN_H
