// Fixture: ref-capture-task must fire on by-reference captures handed to a
// task group's run, through an object or a pointer, and stay quiet on the
// by-value one beside them.
#include <functional>

struct task_group {
    void run(std::function<void()> task);
};

void queue_cells(task_group& group, task_group* nested, double* slots)
{
    double total = 0.0;
    group.run([&total] { total = 1.0; }); // outlives this frame unless joined
    nested->run([&] { slots[0] = total; });
    double* slot = slots + 1;
    group.run([slot] { *slot = 2.0; }); // fine: a pointer by value
}
