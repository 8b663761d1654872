// Fixture: unused-public-api fires on each function that nothing but its
// own declaration and definition names: a static member (the dipole's
// `centered_2015` shape), an inline member (`axis_unit`) and a free
// function whose allow comment gives no reason. The others have a caller.
#ifndef FIXTURE_UNUSED_PUBLIC_API_FIRE_H
#define FIXTURE_UNUSED_PUBLIC_API_FIRE_H

namespace fixture {

class field_model {
public:
    static field_model eccentric();
    static field_model tilted();

    double magnitude(double r) const;
    const double& axis() const noexcept { return axis_; }

private:
    double axis_ = 1.0;
};

// DETLINT-ALLOW(unused-public-api):
double orphan_ratio(double a, double b);

double used_everywhere(double x);

} // namespace fixture

#endif // FIXTURE_UNUSED_PUBLIC_API_FIRE_H
