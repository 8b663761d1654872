// The program side of the fire fixture: it calls what the fixture keeps.
#include "api.h"

int main()
{
    const fixture::field_model model = fixture::field_model::eccentric();
    return static_cast<int>(model.magnitude(2.0) + fixture::used_everywhere(4.0));
}
