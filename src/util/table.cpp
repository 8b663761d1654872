#include "util/table.h"

#include <algorithm>

#include "util/expects.h"

namespace ssplane {

table_printer::table_printer(std::vector<std::string> columns)
    : header_(std::move(columns))
{
    expects(!header_.empty(), "table needs at least one column");
}

void table_printer::row(const std::vector<std::string>& cells)
{
    expects(cells.size() == header_.size(), "table row width mismatch");
    rows_.push_back(cells);
}

void table_printer::print(std::ostream& out) const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
    for (const auto& r : rows_)
        for (std::size_t i = 0; i < r.size(); ++i)
            widths[i] = std::max(widths[i], r[i].size());

    auto print_row = [&](const std::vector<std::string>& cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            out << cells[i];
            if (i + 1 < cells.size())
                out << std::string(widths[i] - cells[i].size() + 2, ' ');
        }
        out << '\n';
    };

    print_row(header_);
    std::size_t total = 0;
    for (std::size_t w : widths) total += w + 2;
    out << std::string(total > 2 ? total - 2 : total, '-') << '\n';
    for (const auto& r : rows_) print_row(r);
}

} // namespace ssplane
