// Tempo's earliest-arrival queue: a radix heap over the IEEE-754 bit
// pattern of non-negative keys that pops in (key, id) order.
//
// Tempo's pass over waits and latencies never pushes a key below the key
// it last popped, and it needs the id order among equal keys: storage arcs
// land thousands of time-nodes on each step boundary, and the first of
// them to pop is the predecessor a later arrival keeps. `lsn::router`
// does not need that order: its paths replay each key's pop order from
// node ids, so it settles components from a plain indexed heap that
// compares keys only. A radix heap exploits the monotone keys: an entry
// lives in the bucket named by the highest bit in which its key differs
// from the last popped key, so a push is one XOR and one count of leading
// zeros, and a pop only re-buckets entries when the equal-key bucket runs
// dry. Non-negative doubles order like their bit patterns read as unsigned
// integers, so the buckets are exact: no quantization, no epsilon.
#ifndef SSPLANE_LSN_MONOTONE_QUEUE_H
#define SSPLANE_LSN_MONOTONE_QUEUE_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/expects.h"

namespace ssplane::lsn {

/// Min-queue of (key, node) entries whose keys never fall below the last
/// popped key. Entries pop in (key, node id) order — the order of a
/// `std::priority_queue<std::pair<double, int>>` under `std::greater<>` —
/// also when thousands of entries share one key: bucket 0, which holds
/// the entries equal to the last pop, is a min-heap on node id.
class monotone_queue {
public:
    struct entry {
        double key = 0.0;
        int node = 0;
    };

    bool empty() const noexcept { return occupied_ == 0 && buckets_[0].empty(); }

    /// Queues `node` at `key`. Throws `contract_violation` when `key` is NaN
    /// or below the last popped key (below 0 before the first pop). A -0
    /// key is queued, and pops, as +0, which it equals.
    void push(double key, int node)
    {
        expects(key >= std::bit_cast<double>(last_bits_),
                "monotone_queue: key below the last pop");
        const std::uint64_t bits = std::bit_cast<std::uint64_t>(key + 0.0);
        place({bits, node});
        if (bits == last_bits_)
            std::push_heap(buckets_[0].begin(), buckets_[0].end(), higher_node);
    }

    /// Removes and returns the least entry in (key, node id) order.
    entry pop()
    {
        expects(!empty(), "monotone_queue: pop from an empty queue");
        auto& ties = buckets_[0];
        if (ties.empty()) refill();
        std::pop_heap(ties.begin(), ties.end(), higher_node);
        const slot least = ties.back();
        ties.pop_back();
        return {std::bit_cast<double>(least.bits), least.node};
    }

    /// Empties the queue and lowers its floor back to 0, keeping storage.
    void clear() noexcept
    {
        for (auto& bucket : buckets_) bucket.clear();
        occupied_ = 0;
        last_bits_ = 0;
    }

private:
    /// A queued entry: the key's bit pattern, read as an unsigned integer.
    struct slot {
        std::uint64_t bits = 0;
        int node = 0;
    };

    /// Files `e` in bucket 0 when its key equals the last pop, else in
    /// bucket 1 + the highest bit that differs from the last pop's.
    void place(const slot& e)
    {
        const std::uint64_t diff = e.bits ^ last_bits_;
        if (diff == 0) {
            buckets_[0].push_back(e);
            return;
        }
        const int high = 63 - std::countl_zero(diff);
        buckets_[static_cast<std::size_t>(high) + 1].push_back(e);
        occupied_ |= std::uint64_t{1} << high;
    }

    /// Heap order of bucket 0: the lowest node id on top.
    static bool higher_node(const slot& a, const slot& b) noexcept
    {
        return a.node > b.node;
    }

    /// Moves the least key up to the floor: the first non-empty bucket's
    /// minimum becomes the last pop, and re-bucketing against it sends
    /// every entry of that bucket strictly lower (its minimum and ties to
    /// bucket 0). Entries in higher buckets keep their bucket.
    void refill()
    {
        const int first = std::countr_zero(occupied_);
        occupied_ &= occupied_ - 1;
        auto& from = buckets_[static_cast<std::size_t>(first) + 1];
        std::uint64_t least = from.front().bits;
        for (const auto& e : from) least = std::min(least, e.bits);
        last_bits_ = least;
        for (const auto& e : from) place(e);
        from.clear();
        std::make_heap(buckets_[0].begin(), buckets_[0].end(), higher_node);
    }

    std::array<std::vector<slot>, 65> buckets_;
    std::uint64_t occupied_ = 0;  ///< Bit b - 1 set: bucket b (1..64) is non-empty.
    std::uint64_t last_bits_ = 0; ///< Bit pattern of the last popped key (0 before any).
};

} // namespace ssplane::lsn

#endif // SSPLANE_LSN_MONOTONE_QUEUE_H
