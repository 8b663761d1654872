// Minimal command-line flag parsing for examples and bench binaries.
//
// Supports "--key=value" and "--flag" arguments; anything else is kept as a
// positional argument. Unknown keys are permitted (benches share a parser).
#ifndef SSPLANE_UTIL_CLI_H
#define SSPLANE_UTIL_CLI_H

#include <map>
#include <string>
#include <vector>

namespace ssplane {

/// Parsed command line: option map plus positional arguments.
class cli_args {
public:
    cli_args(int argc, const char* const* argv);

    /// True when --name was given (with or without a value).
    bool has(const std::string& name) const;

    /// Value of --name=value, or `fallback` when absent.
    std::string get(const std::string& name, const std::string& fallback) const;

    /// Numeric value of --name=value, or `fallback` when absent/unparsable.
    double get_double(const std::string& name, double fallback) const;

    /// Positional (non-flag) arguments in order.
    const std::vector<std::string>& positional() const noexcept { return positional_; }

private:
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

} // namespace ssplane

#endif // SSPLANE_UTIL_CLI_H
