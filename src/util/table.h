// Aligned console tables for human-readable bench summaries.
#ifndef SSPLANE_UTIL_TABLE_H
#define SSPLANE_UTIL_TABLE_H

#include <ostream>
#include <string>
#include <vector>

namespace ssplane {

/// Collects rows of string cells and renders them with aligned columns.
class table_printer {
public:
    explicit table_printer(std::vector<std::string> columns);

    /// Append a row; width must match the header.
    void row(const std::vector<std::string>& cells);

    /// Render the table (header, separator, rows) to `out`.
    void print(std::ostream& out) const;

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace ssplane

#endif // SSPLANE_UTIL_TABLE_H
