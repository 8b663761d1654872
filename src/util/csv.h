// CSV emission for bench/figure outputs.
//
// Benches print their series as CSV blocks on stdout so any plotting tool
// can regenerate the paper's figures from captured output.
#ifndef SSPLANE_UTIL_CSV_H
#define SSPLANE_UTIL_CSV_H

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace ssplane {

/// Streams rows of comma-separated values with a fixed header.
///
/// Usage:
///   csv_writer csv(std::cout, {"altitude_km", "n_satellites"});
///   csv.row({550.0, 1584.0});
class csv_writer {
public:
    /// Writes the header line immediately (cells escaped like `row_text`).
    csv_writer(std::ostream& out, std::vector<std::string> columns);

    /// Write one row of numeric cells; the count must match the header.
    void row(std::initializer_list<double> cells);

    /// Write one row of numeric cells; the count must match the header.
    void row(const std::vector<double>& cells);

    /// Write one row of string cells; cells containing a comma, quote or
    /// newline are quoted per RFC 4180 (`csv_escape`), numeric-looking
    /// cells pass through untouched.
    void row_text(const std::vector<std::string>& cells);

private:
    std::ostream& out_;
    std::size_t n_columns_;
};

/// Format a double compactly (up to `precision` significant digits,
/// no trailing zeros).
std::string format_number(double value, int precision = 10);

/// RFC 4180 field escaping: cells containing a comma, double quote, CR or
/// LF come back wrapped in double quotes with inner quotes doubled; all
/// other cells come back unchanged.
std::string csv_escape(const std::string& cell);

} // namespace ssplane

#endif // SSPLANE_UTIL_CSV_H
