#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

namespace ssplane::obs {

namespace {

bool env_tracing_enabled() noexcept
{
    const char* env = std::getenv("SSPLANE_TRACE");
    return env != nullptr && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
}

std::atomic<bool>& tracing_flag() noexcept
{
    static std::atomic<bool> enabled{env_tracing_enabled()};
    return enabled;
}

/// One thread's span storage. Owned jointly by the thread (thread_local
/// shared_ptr) and the global buffer list, so spans survive thread exit and
/// a flush never races a dying thread. The per-buffer mutex is uncontended
/// except against a concurrent flush.
struct thread_buffer {
    std::mutex mutex;
    std::vector<trace_span> spans;
    std::uint32_t tid = 0;
};

struct buffer_list {
    std::mutex mutex;
    std::vector<std::shared_ptr<thread_buffer>> buffers;
    std::uint32_t next_tid = 1;
};

buffer_list& buffers() noexcept
{
    // Leaked on purpose: threads may record spans while static destructors
    // run (destruction order across translation units is unspecified).
    static buffer_list* const the_list = new buffer_list();
    return *the_list;
}

thread_buffer& this_thread_buffer()
{
    thread_local std::shared_ptr<thread_buffer> t_buffer = [] {
        auto buffer = std::make_shared<thread_buffer>();
        auto& list = buffers();
        const std::lock_guard lock(list.mutex);
        buffer->tid = list.next_tid++;
        list.buffers.push_back(buffer);
        return buffer;
    }();
    return *t_buffer;
}

/// JSON string escaping for span names (quotes, backslashes, control
/// characters — names are identifiers in practice, but stay safe).
void write_json_escaped(std::ostream& out, std::string_view text)
{
    for (const char c : text) {
        switch (c) {
        case '"': out << "\\\""; break;
        case '\\': out << "\\\\"; break;
        case '\n': out << "\\n"; break;
        case '\t': out << "\\t"; break;
        case '\r': out << "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                constexpr const char* hex = "0123456789abcdef";
                out << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
            } else {
                out << c;
            }
        }
    }
}

void write_event(std::ostream& out, char phase, const trace_span& s,
                 std::uint64_t ts_ns, bool& first)
{
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"";
    write_json_escaped(out, s.name);
    // ts is microseconds (Chrome trace convention); keep ns resolution via
    // the fractional part.
    out << "\",\"cat\":\"ssplane\",\"ph\":\"" << phase << "\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << ts_ns / 1000 << '.' << ts_ns % 1000 / 100
        << (ts_ns % 100) / 10 << ts_ns % 10 << '}';
}

/// Walk one thread's (begin asc, end desc)-sorted spans maintaining the
/// enclosing-span stack; `on_enter`/`on_exit` see perfectly nested scopes.
template <class Enter, class Exit>
void walk_nested(const std::vector<trace_span>& sorted, std::size_t begin,
                 std::size_t end, Enter&& on_enter, Exit&& on_exit)
{
    std::vector<const trace_span*> stack;
    for (std::size_t i = begin; i < end; ++i) {
        const trace_span& s = sorted[i];
        while (!stack.empty() && stack.back()->end_ns <= s.begin_ns) {
            on_exit(*stack.back());
            stack.pop_back();
        }
        on_enter(s, stack);
        stack.push_back(&s);
    }
    while (!stack.empty()) {
        on_exit(*stack.back());
        stack.pop_back();
    }
}

} // namespace

bool tracing_enabled() noexcept
{
    return tracing_flag().load(std::memory_order_relaxed);
}

void set_tracing_enabled(bool enabled) noexcept
{
    tracing_flag().store(enabled, std::memory_order_relaxed);
}

void record_span(std::string name, std::uint64_t begin_ns, std::uint64_t end_ns)
{
    thread_buffer& buffer = this_thread_buffer();
    const std::lock_guard lock(buffer.mutex);
    buffer.spans.push_back(
        {std::move(name), buffer.tid, begin_ns, std::max(begin_ns, end_ns)});
}

std::vector<trace_span> trace_snapshot()
{
    std::vector<trace_span> all;
    {
        auto& list = buffers();
        const std::lock_guard lock(list.mutex);
        for (const auto& buffer : list.buffers) {
            const std::lock_guard buffer_lock(buffer->mutex);
            all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
        }
    }
    std::sort(all.begin(), all.end(),
              [](const trace_span& a, const trace_span& b) {
                  if (a.tid != b.tid) return a.tid < b.tid;
                  if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
                  if (a.end_ns != b.end_ns) return a.end_ns > b.end_ns;
                  return a.name < b.name;
              });
    return all;
}

void trace_reset()
{
    auto& list = buffers();
    const std::lock_guard lock(list.mutex);
    for (const auto& buffer : list.buffers) {
        const std::lock_guard buffer_lock(buffer->mutex);
        buffer->spans.clear();
    }
}

void write_chrome_trace(std::ostream& out)
{
    const auto spans = trace_snapshot();
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    std::size_t tid_begin = 0;
    for (std::size_t i = 0; i <= spans.size(); ++i) {
        if (i < spans.size() && spans[i].tid == spans[tid_begin].tid) continue;
        walk_nested(
            spans, tid_begin, i,
            [&](const trace_span& s, const auto&) {
                write_event(out, 'B', s, s.begin_ns, first);
            },
            [&](const trace_span& s) { write_event(out, 'E', s, s.end_ns, first); });
        tid_begin = i;
    }
    out << "\n]}\n";
}

std::vector<phase_stat> phase_stats()
{
    const auto spans = trace_snapshot();
    // Aggregate by name; `std::map` keeps the intermediate order sorted so
    // the final wall-time sort is deterministic given deterministic spans.
    std::map<std::string, phase_stat> by_name;
    const auto slot = [&](const trace_span& s) -> phase_stat& {
        auto& stat = by_name[s.name];
        stat.name = s.name;
        return stat;
    };
    std::size_t tid_begin = 0;
    for (std::size_t i = 0; i <= spans.size(); ++i) {
        if (i < spans.size() && spans[i].tid == spans[tid_begin].tid) continue;
        walk_nested(
            spans, tid_begin, i,
            [&](const trace_span& s, const std::vector<const trace_span*>& stack) {
                const std::uint64_t wall = s.end_ns - s.begin_ns;
                phase_stat& stat = slot(s);
                ++stat.count;
                stat.wall_ns += wall;
                stat.self_ns += wall;
                // The parent's self time excludes this directly nested span.
                if (!stack.empty()) slot(*stack.back()).self_ns -= wall;
            },
            [](const trace_span&) {});
        tid_begin = i;
    }
    std::vector<phase_stat> stats;
    stats.reserve(by_name.size());
    for (auto& [name, stat] : by_name) stats.push_back(std::move(stat));
    std::sort(stats.begin(), stats.end(),
              [](const phase_stat& a, const phase_stat& b) {
                  if (a.wall_ns != b.wall_ns) return a.wall_ns > b.wall_ns;
                  return a.name < b.name;
              });
    return stats;
}

std::vector<phase_busy> phase_busy_fractions()
{
    const auto spans = trace_snapshot();
    const auto is_phase = [](const std::string& name) {
        return name == "campaign.run" || name == "campaign.prefetch_timelines" ||
               name == "campaign.cells" || name.starts_with("campaign.batch.");
    };
    // Workers by tid: `trace_snapshot` sorts by tid, so each worker's tasks
    // are one run of the list.
    std::vector<std::uint32_t> workers;
    std::vector<phase_busy> phases;
    for (const auto& s : spans) {
        if (s.name == "pool.task" && (workers.empty() || workers.back() != s.tid))
            workers.push_back(s.tid);
        if (is_phase(s.name))
            phases.push_back({s.name, s.begin_ns, s.end_ns - s.begin_ns, 0, {}});
    }
    std::sort(phases.begin(), phases.end(), [](const phase_busy& a, const phase_busy& b) {
        if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
        if (a.wall_ns != b.wall_ns) return a.wall_ns > b.wall_ns;
        return a.name < b.name;
    });
    for (auto& phase : phases) {
        const std::uint64_t end_ns = phase.begin_ns + phase.wall_ns;
        std::vector<std::uint64_t> busy_ns(workers.size(), 0);
        std::size_t w = 0;
        for (const auto& s : spans) {
            if (s.name != "pool.task") continue;
            while (workers[w] != s.tid) ++w;
            const std::uint64_t from = std::max(s.begin_ns, phase.begin_ns);
            const std::uint64_t to = std::min(s.end_ns, end_ns);
            if (from < to) busy_ns[w] += to - from;
        }
        for (const std::uint64_t ns : busy_ns) {
            phase.task_ns += ns;
            phase.worker_busy.push_back(
                phase.wall_ns > 0 ? static_cast<double>(ns) / static_cast<double>(phase.wall_ns)
                                  : 0.0);
        }
    }
    return phases;
}

void write_phase_summary(std::ostream& out)
{
    const auto stats = phase_stats();
    std::size_t name_width = 5;
    for (const auto& s : stats) name_width = std::max(name_width, s.name.size());

    const auto pad = [&](std::string text, std::size_t width) {
        if (text.size() < width) text.append(width - text.size(), ' ');
        return text;
    };
    const auto ms = [](std::uint64_t ns) {
        std::string text = std::to_string(ns / 1000000) + '.';
        const std::uint64_t frac = ns % 1000000 / 1000;
        if (frac < 100) text += '0';
        if (frac < 10) text += '0';
        text += std::to_string(frac);
        return text;
    };

    out << pad("phase", name_width) << "  " << pad("count", 8) << " "
        << pad("wall_ms", 12) << " " << pad("self_ms", 12) << '\n';
    for (const auto& s : stats)
        out << pad(s.name, name_width) << "  " << pad(std::to_string(s.count), 8)
            << " " << pad(ms(s.wall_ns), 12) << " " << pad(ms(s.self_ns), 12)
            << '\n';

    const auto phases = phase_busy_fractions();
    if (phases.empty()) return;
    out << '\n'
        << pad("campaign phase", name_width) << "  " << pad("wall_ms", 12) << " "
        << pad("task_ms", 12) << " busy % per pool worker\n";
    for (const auto& phase : phases) {
        out << pad(phase.name, name_width) << "  " << pad(ms(phase.wall_ns), 12) << " "
            << pad(ms(phase.task_ns), 12);
        for (const double busy : phase.worker_busy) {
            // One decimal, rounded: 0.9713 reads 97.1.
            const auto tenths = static_cast<std::uint64_t>(busy * 1000.0 + 0.5);
            out << ' ' << tenths / 10 << '.' << tenths % 10;
        }
        out << '\n';
    }
}

} // namespace ssplane::obs
