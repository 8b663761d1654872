#include "geo/grid.h"

#include <algorithm>
#include <cmath>

#include "astro/constants.h"
#include "util/angles.h"
#include "util/expects.h"

namespace ssplane::geo {

grid2d::grid2d(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), values_(rows * cols, fill)
{
}

double& grid2d::at(std::size_t row, std::size_t col)
{
    expects(row < rows_ && col < cols_, "grid2d index out of range");
    return values_[row * cols_ + col];
}

double grid2d::at(std::size_t row, std::size_t col) const
{
    expects(row < rows_ && col < cols_, "grid2d index out of range");
    return values_[row * cols_ + col];
}

std::span<const double> grid2d::row_span(std::size_t row) const
{
    expects(row < rows_, "grid2d row out of range");
    return {values_.data() + row * cols_, cols_};
}

double grid2d::max_value() const noexcept
{
    if (values_.empty()) return 0.0;
    return *std::max_element(values_.begin(), values_.end());
}

double grid2d::total() const noexcept
{
    double sum = 0.0;
    for (double v : values_) sum += v;
    return sum;
}

grid2d::cell_index grid2d::argmax() const noexcept
{
    cell_index best;
    double best_value = values_.empty() ? 0.0 : values_[0];
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
            const double v = values_[r * cols_ + c];
            if (v > best_value) {
                best_value = v;
                best = {r, c};
            }
        }
    }
    return best;
}

namespace {

std::size_t checked_band_count(double span, double cell, const char* what)
{
    expects(cell > 0.0, "cell size must be positive");
    const double count = span / cell;
    const auto n = static_cast<std::size_t>(std::lround(count));
    expects(std::abs(count - static_cast<double>(n)) < 1e-9 && n > 0, what);
    return n;
}

} // namespace

lat_lon_grid::lat_lon_grid(double cell_deg)
    : cell_deg_(cell_deg),
      field_(checked_band_count(180.0, cell_deg, "cell_deg must divide 180"),
             checked_band_count(360.0, cell_deg, "cell_deg must divide 360"))
{
}

double lat_lon_grid::latitude_center_deg(std::size_t row) const
{
    expects(row < n_lat(), "latitude row out of range");
    return -90.0 + (static_cast<double>(row) + 0.5) * cell_deg_;
}

double lat_lon_grid::longitude_center_deg(std::size_t col) const
{
    expects(col < n_lon(), "longitude column out of range");
    return -180.0 + (static_cast<double>(col) + 0.5) * cell_deg_;
}

std::size_t lat_lon_grid::row_of_latitude(double latitude_deg) const
{
    expects(latitude_deg >= -90.0 && latitude_deg <= 90.0, "latitude out of range");
    const auto row = static_cast<std::size_t>((latitude_deg + 90.0) / cell_deg_);
    return std::min(row, n_lat() - 1);
}

std::size_t lat_lon_grid::col_of_longitude(double longitude_deg) const
{
    const double lon = wrap_deg_180(longitude_deg);
    const auto col = static_cast<std::size_t>((lon + 180.0) / cell_deg_);
    return std::min(col, n_lon() - 1);
}

double lat_lon_grid::cell_area_km2(std::size_t row) const
{
    const double re_km = astro::earth_mean_radius_m / 1000.0;
    const double lat0 = deg2rad(latitude_center_deg(row) - cell_deg_ / 2.0);
    const double lat1 = deg2rad(latitude_center_deg(row) + cell_deg_ / 2.0);
    const double dlon = deg2rad(cell_deg_);
    return re_km * re_km * dlon * (std::sin(lat1) - std::sin(lat0));
}

std::vector<double> lat_lon_grid::max_over_longitude() const
{
    std::vector<double> out(n_lat(), 0.0);
    for (std::size_t r = 0; r < n_lat(); ++r) {
        const auto row = field_.row_span(r);
        out[r] = row.empty() ? 0.0 : *std::max_element(row.begin(), row.end());
    }
    return out;
}

lat_tod_grid::lat_tod_grid(double lat_cell_deg, double tod_cell_h)
    : lat_cell_deg_(lat_cell_deg),
      tod_cell_h_(tod_cell_h),
      field_(checked_band_count(180.0, lat_cell_deg, "lat_cell_deg must divide 180"),
             checked_band_count(24.0, tod_cell_h, "tod_cell_h must divide 24"))
{
}

double lat_tod_grid::latitude_center_deg(std::size_t row) const
{
    expects(row < n_lat(), "latitude row out of range");
    return -90.0 + (static_cast<double>(row) + 0.5) * lat_cell_deg_;
}

double lat_tod_grid::tod_center_h(std::size_t col) const
{
    expects(col < n_tod(), "time-of-day column out of range");
    return (static_cast<double>(col) + 0.5) * tod_cell_h_;
}

std::size_t lat_tod_grid::row_of_latitude(double latitude_deg) const
{
    expects(latitude_deg >= -90.0 && latitude_deg <= 90.0, "latitude out of range");
    const auto row = static_cast<std::size_t>((latitude_deg + 90.0) / lat_cell_deg_);
    return std::min(row, n_lat() - 1);
}

} // namespace ssplane::geo
