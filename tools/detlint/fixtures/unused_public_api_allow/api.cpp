#include "api.h"

namespace fixture {

double inverse_scale(double x)
{
    return 1.0 / x;
}

} // namespace fixture
