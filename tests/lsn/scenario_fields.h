// Every field of `lsn::failure_scenario` with a move to another valid value,
// and the check that `lsn::canonical` is the whole input of a draw: the
// fields a mode does not read cannot change its draw and are gone from the
// key, and each field it reads is part of the key. A field added to
// `failure_scenario` belongs in `scenario_fields()`.
#ifndef SSPLANE_TESTS_LSN_SCENARIO_FIELDS_H
#define SSPLANE_TESTS_LSN_SCENARIO_FIELDS_H

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lsn/scenario.h"

namespace ssplane::lsn::testing {

struct scenario_field {
    std::string name;
    /// Moves the field off its current value, keeping it valid for a
    /// six-plane test shell whatever the mode.
    void (*move)(failure_scenario&);
};

/// Every field but `mode`, in declaration order.
inline const std::vector<scenario_field>& scenario_fields()
{
    static const std::vector<scenario_field> fields{
        {"loss_fraction",
         [](failure_scenario& s) { s.loss_fraction += s.loss_fraction < 0.5 ? 0.25 : -0.25; }},
        {"planes_attacked",
         [](failure_scenario& s) { s.planes_attacked = s.planes_attacked == 1 ? 2 : 1; }},
        {"plane_daily_fluence",
         [](failure_scenario& s) {
             if (s.plane_daily_fluence.empty())
                 s.plane_daily_fluence.assign(6, 3.0e10);
             else
                 s.plane_daily_fluence.front() *= 2.0;
         }},
        {"horizon_days", [](failure_scenario& s) { s.horizon_days *= 2.0; }},
        {"seed", [](failure_scenario& s) { s.seed += 1; }},
        {"cascade_initial_hits",
         [](failure_scenario& s) {
             s.cascade_initial_hits = s.cascade_initial_hits == 1 ? 2 : 1;
         }},
        {"cascade_base_daily_hazard",
         [](failure_scenario& s) { s.cascade_base_daily_hazard += 0.01; }},
        {"cascade_escalation", [](failure_scenario& s) { s.cascade_escalation += 0.1; }},
        {"cascade_cooldown_s", [](failure_scenario& s) { s.cascade_cooldown_s *= 2.0; }},
        {"storm_start_s", [](failure_scenario& s) { s.storm_start_s += 3600.0; }},
        {"storm_duration_s", [](failure_scenario& s) { s.storm_duration_s *= 2.0; }},
        {"storm_fluence_multiplier",
         [](failure_scenario& s) { s.storm_fluence_multiplier *= 2.0; }},
        {"adversary_budget",
         [](failure_scenario& s) { s.adversary_budget = s.adversary_budget == 1 ? 2 : 1; }},
        {"adversary_strike_interval_steps",
         [](failure_scenario& s) { s.adversary_strike_interval_steps += 1; }},
        {"adversary_first_strike_step",
         [](failure_scenario& s) { s.adversary_first_strike_step += 1; }},
        {"adversary_eval_stride", [](failure_scenario& s) { s.adversary_eval_stride += 1; }},
    };
    return fields;
}

/// `base` sets only fields of `reads` off their defaults; `draw` is the
/// mode's generator on a fixed geometry. Moves every other field, then
/// checks that the key drops them all, that the generator returns one draw
/// for the moved scenario and for its key, and that moving any field of
/// `reads` moves the key.
inline void expect_canonical_is_whole_input(
    const failure_scenario& base, const std::vector<std::string>& reads,
    const std::function<failure_timeline(const failure_scenario&)>& draw)
{
    const auto read = [&](const std::string& name) {
        return std::find(reads.begin(), reads.end(), name) != reads.end();
    };
    auto cluttered = base;
    for (const auto& field : scenario_fields())
        if (!read(field.name)) field.move(cluttered);
    const auto key = canonical(cluttered);
    EXPECT_EQ(key, canonical(base));
    EXPECT_EQ(canonical(key), key);

    const auto drawn = draw(cluttered);
    const auto from_key = draw(key);
    EXPECT_EQ(drawn.n_satellites, from_key.n_satellites);
    EXPECT_EQ(drawn.n_steps, from_key.n_steps);
    EXPECT_EQ(drawn.masks, from_key.masks);

    for (const auto& field : scenario_fields()) {
        if (!read(field.name)) continue;
        auto moved = cluttered;
        field.move(moved);
        EXPECT_NE(canonical(moved), key) << field.name << " is read but not kept";
    }
}

} // namespace ssplane::lsn::testing

#endif // SSPLANE_TESTS_LSN_SCENARIO_FIELDS_H
