// Fixture: a task group whose tasks capture pointers to their slot and
// inputs by value, the campaign's pattern. ref-capture-task must stay
// quiet, and so must every other check.
#include <cstddef>
#include <functional>
#include <vector>

struct task_group {
    void run(std::function<void()> task);
    void wait();
};

double evaluate(const double& input) { return input * 2.0; }

void queue_cells(const std::vector<double>& inputs, std::vector<double>& slots)
{
    task_group group;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const double* input = &inputs[i];
        double* slot = &slots[i];
        group.run([input, slot] { *slot = evaluate(*input); });
    }
    group.wait();
}
