// Disjoint-set forest for connected-component queries.
//
// Shared by the survivability giant-component fraction (`lsn`) and the
// percolation analysis (`spectral`). Union by size with path halving; the
// callers walk nodes and edges serially in index order, so every query is
// deterministic.
#ifndef SSPLANE_UTIL_UNION_FIND_H
#define SSPLANE_UTIL_UNION_FIND_H

#include <cstddef>
#include <utility>
#include <vector>

namespace ssplane {

class union_find {
public:
    explicit union_find(int n)
        : parent_(static_cast<std::size_t>(n)), size_(static_cast<std::size_t>(n), 1)
    {
        for (int i = 0; i < n; ++i) parent_[static_cast<std::size_t>(i)] = i;
    }

    int find(int x)
    {
        while (parent_[static_cast<std::size_t>(x)] != x) {
            parent_[static_cast<std::size_t>(x)] =
                parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
            x = parent_[static_cast<std::size_t>(x)];
        }
        return x;
    }

    void unite(int a, int b)
    {
        a = find(a);
        b = find(b);
        if (a == b) return;
        if (size_[static_cast<std::size_t>(a)] < size_[static_cast<std::size_t>(b)])
            std::swap(a, b);
        parent_[static_cast<std::size_t>(b)] = a;
        size_[static_cast<std::size_t>(a)] += size_[static_cast<std::size_t>(b)];
        ++unions_;
    }

    /// Size of the component holding `x`.
    int component_size(int x) { return size_[static_cast<std::size_t>(find(x))]; }
    /// Merges performed so far (unions of two distinct components).
    int unions() const noexcept { return unions_; }

private:
    std::vector<int> parent_;
    std::vector<int> size_;
    int unions_ = 0;
};

} // namespace ssplane

#endif // SSPLANE_UTIL_UNION_FIND_H
