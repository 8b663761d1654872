// Minimal command-line flag parsing for examples and bench binaries.
//
// Supports "--key=value" and "--flag" arguments; anything else is ignored.
// Unknown keys are permitted (benches share a parser).
#ifndef SSPLANE_UTIL_CLI_H
#define SSPLANE_UTIL_CLI_H

#include <cstdint>
#include <limits>
#include <map>
#include <string>

namespace ssplane {

/// Parsed command line: the option map.
class cli_args {
public:
    cli_args(int argc, const char* const* argv);

    /// True when --name was given (with or without a value).
    bool has(const std::string& name) const;

    /// Value of --name=value, or `fallback` when absent.
    std::string get(const std::string& name, const std::string& fallback) const;

    /// Value of --name=value as a finite number in [min, max], or
    /// `fallback` when absent. The whole value must parse as a decimal
    /// number (`std::from_chars`); anything else (empty, trailing text, a
    /// sign other than a leading '-', "nan", "inf", an overflow, a value
    /// outside the range) throws std::invalid_argument naming the flag.
    double get_double(const std::string& name, double fallback, double min,
                      double max) const;

    /// Value of --name=value as a whole decimal number in [min, max], or
    /// `fallback` when absent. Anything else (a sign, a fraction, an
    /// exponent, "nan", an out-of-range value) throws std::invalid_argument
    /// naming the flag.
    std::uint64_t get_uint(const std::string& name, std::uint64_t fallback,
                           std::uint64_t min = 0,
                           std::uint64_t max =
                               std::numeric_limits<std::uint64_t>::max()) const;

private:
    std::map<std::string, std::string> options_;
};

} // namespace ssplane

#endif // SSPLANE_UTIL_CLI_H
