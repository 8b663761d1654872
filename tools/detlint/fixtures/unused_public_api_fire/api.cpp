#include "api.h"

#include <cmath>

namespace fixture {

field_model field_model::eccentric()
{
    return field_model{};
}

field_model field_model::tilted()
{
    field_model model;
    model.axis_ = 0.5;
    return model;
}

double field_model::magnitude(double r) const
{
    return axis_ / (r * r * r);
}

double orphan_ratio(double a, double b)
{
    // A call inside its own definition is not a caller.
    return b == 0.0 ? orphan_ratio(a, 1.0) : a / b;
}

double used_everywhere(double x)
{
    return std::sqrt(x);
}

} // namespace fixture
