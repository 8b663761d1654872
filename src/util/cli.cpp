#include "util/cli.h"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "util/csv.h"

namespace ssplane {

cli_args::cli_args(int argc, const char* const* argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0) {
            const auto eq = arg.find('=');
            if (eq == std::string::npos) {
                options_[arg.substr(2)] = "";
            } else {
                options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
            }
        }
    }
}

bool cli_args::has(const std::string& name) const
{
    return options_.count(name) > 0;
}

std::string cli_args::get(const std::string& name, const std::string& fallback) const
{
    const auto it = options_.find(name);
    return it == options_.end() ? fallback : it->second;
}

double cli_args::get_double(const std::string& name, double fallback, double min,
                            double max) const
{
    const auto it = options_.find(name);
    if (it == options_.end()) return fallback;
    const std::string& text = it->second;
    const char* const end = text.data() + text.size();
    double value = 0.0;
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (text.empty() || error != std::errc{} || stop != end || !std::isfinite(value) ||
        value < min || value > max)
        throw std::invalid_argument("--" + name + " needs a number in [" +
                                    format_number(min) + ", " + format_number(max) +
                                    "], got '" + text + "'");
    return value;
}

std::uint64_t cli_args::get_uint(const std::string& name, std::uint64_t fallback,
                                 std::uint64_t min, std::uint64_t max) const
{
    const auto it = options_.find(name);
    if (it == options_.end()) return fallback;
    const std::string& text = it->second;
    const char* const end = text.data() + text.size();
    std::uint64_t value = 0;
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (text.empty() || error != std::errc{} || stop != end || value < min ||
        value > max)
        throw std::invalid_argument("--" + name + " needs a whole number in [" +
                                    std::to_string(min) + ", " +
                                    std::to_string(max) + "], got '" + text + "'");
    return value;
}

} // namespace ssplane
