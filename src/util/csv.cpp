#include "util/csv.h"

#include <charconv>
#include <cmath>

#include "util/expects.h"

namespace ssplane {

csv_writer::csv_writer(std::ostream& out, std::vector<std::string> columns)
    : out_(out), n_columns_(columns.size())
{
    expects(!columns.empty(), "csv_writer needs at least one column");
    for (std::size_t i = 0; i < columns.size(); ++i) {
        if (i > 0) out_ << ',';
        out_ << csv_escape(columns[i]);
    }
    out_ << '\n';
}

void csv_writer::row(std::initializer_list<double> cells)
{
    row(std::vector<double>(cells));
}

void csv_writer::row(const std::vector<double>& cells)
{
    expects(cells.size() == n_columns_, "csv row width mismatch");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0) out_ << ',';
        out_ << format_number(cells[i]);
    }
    out_ << '\n';
}

void csv_writer::row_text(const std::vector<std::string>& cells)
{
    expects(cells.size() == n_columns_, "csv row width mismatch");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0) out_ << ',';
        out_ << csv_escape(cells[i]);
    }
    out_ << '\n';
}

std::string csv_escape(const std::string& cell)
{
    if (cell.find_first_of(",\"\r\n") == std::string::npos) return cell;
    std::string escaped;
    escaped.reserve(cell.size() + 2);
    escaped.push_back('"');
    for (const char c : cell) {
        if (c == '"') escaped.push_back('"');
        escaped.push_back(c);
    }
    escaped.push_back('"');
    return escaped;
}

std::string format_number(double value, int precision)
{
    if (std::isnan(value)) return "nan";
    if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
    char buffer[64];
    auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                   std::chars_format::general, precision);
    if (ec != std::errc{}) return "0";
    return std::string(buffer, ptr);
}

} // namespace ssplane
