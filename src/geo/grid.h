// Regular grids over the Earth surface and over the sun-relative
// (latitude × local-time-of-day) cylinder.
//
// Both grid classes are dense row-major value fields with geometry helpers.
// The lat/tod grid is the domain of the paper's SS-plane design problem
// (paper Fig. 8); the lat/lon grid carries population and radiation maps
// (paper Figs. 3, 5, 6).
#ifndef SSPLANE_GEO_GRID_H
#define SSPLANE_GEO_GRID_H

#include <cstddef>
#include <span>
#include <vector>

namespace ssplane::geo {

/// Dense row-major 2-D field of doubles.
class grid2d {
public:
    grid2d() = default;
    grid2d(std::size_t rows, std::size_t cols, double fill = 0.0);

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }
    std::size_t size() const noexcept { return values_.size(); }

    double& at(std::size_t row, std::size_t col);
    double at(std::size_t row, std::size_t col) const;

    double& operator()(std::size_t row, std::size_t col) noexcept
    {
        return values_[row * cols_ + col];
    }
    double operator()(std::size_t row, std::size_t col) const noexcept
    {
        return values_[row * cols_ + col];
    }

    std::span<const double> values() const noexcept { return values_; }
    std::span<double> values() noexcept { return values_; }

    /// Row `row` as a contiguous span.
    std::span<const double> row_span(std::size_t row) const;

    double max_value() const noexcept;
    double total() const noexcept;

    /// Location of the maximum value (first occurrence, row-major order).
    struct cell_index {
        std::size_t row = 0;
        std::size_t col = 0;
    };
    cell_index argmax() const noexcept;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> values_;
};

/// Equal-angle latitude × longitude grid (cell-centered).
/// Row 0 is the southernmost band; column 0 starts at longitude -180°.
class lat_lon_grid {
public:
    /// `cell_deg` must divide 180 evenly (e.g. 0.5, 1, 2 degrees).
    explicit lat_lon_grid(double cell_deg);

    double cell_deg() const noexcept { return cell_deg_; }
    std::size_t n_lat() const noexcept { return field_.rows(); }
    std::size_t n_lon() const noexcept { return field_.cols(); }

    double latitude_center_deg(std::size_t row) const;
    double longitude_center_deg(std::size_t col) const;

    std::size_t row_of_latitude(double latitude_deg) const;
    std::size_t col_of_longitude(double longitude_deg) const;

    /// Surface area of a cell in row `row` [km^2] (spherical Earth).
    double cell_area_km2(std::size_t row) const;

    grid2d& field() noexcept { return field_; }
    const grid2d& field() const noexcept { return field_; }

    /// Maximum field value in each latitude band (paper Fig. 3 reduction).
    std::vector<double> max_over_longitude() const;

private:
    double cell_deg_;
    grid2d field_;
};

/// Latitude × local-time-of-day grid on the sun-relative cylinder.
/// Row 0 is the southernmost band; column 0 is local midnight.
class lat_tod_grid {
public:
    /// `lat_cell_deg` must divide 180 evenly; `tod_cell_h` must divide 24 evenly.
    lat_tod_grid(double lat_cell_deg, double tod_cell_h);

    double lat_cell_deg() const noexcept { return lat_cell_deg_; }
    double tod_cell_h() const noexcept { return tod_cell_h_; }
    std::size_t n_lat() const noexcept { return field_.rows(); }
    std::size_t n_tod() const noexcept { return field_.cols(); }

    double latitude_center_deg(std::size_t row) const;
    double tod_center_h(std::size_t col) const;

    std::size_t row_of_latitude(double latitude_deg) const;

    grid2d& field() noexcept { return field_; }
    const grid2d& field() const noexcept { return field_; }

private:
    double lat_cell_deg_;
    double tod_cell_h_;
    grid2d field_;
};

} // namespace ssplane::geo

#endif // SSPLANE_GEO_GRID_H
