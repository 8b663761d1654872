// The program side of the allow fixture.
#include "api.h"

int main()
{
    const fixture::timeline_cache cache{};
    return static_cast<int>(cache.lookups());
}
