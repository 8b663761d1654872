#include "lsn/routing.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "obs/metrics.h"
#include "util/expects.h"
#include "util/union_find.h"

namespace ssplane::lsn {

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

std::size_t at(int index) { return static_cast<std::size_t>(index); }

} // namespace

router::router(const network_snapshot& snapshot, std::span<const double> link_cost_s)
    : snapshot_(&snapshot)
{
    OBS_COUNT("lsn.router.builds");
    const auto n_nodes = snapshot.n_nodes();
    expects(link_cost_s.empty() || link_cost_s.size() == snapshot.links.size(),
            "need one cost per snapshot link");
    const auto cost_of = [&](std::size_t id) {
        return link_cost_s.empty() ? snapshot.links[id].latency_s : link_cost_s[id];
    };
    // `c >= 0` fails on NaN as on a negative cost, and passes +inf and -0.
    bool costs_valid = true;
    union_find joined(n_nodes);
    for (std::size_t id = 0; id < snapshot.links.size(); ++id) {
        const double c = cost_of(id);
        costs_valid &= c >= 0.0;
        if (c == 0.0) joined.unite(snapshot.links[id].a, snapshot.links[id].b);
    }
    expects(costs_valid, "link costs must be non-negative or +inf");

    // Components numbered by their lowest node, members listed in id order.
    component_.assign(at(n_nodes), -1);
    std::vector<int> of_root(at(n_nodes), -1);
    int n_components = 0;
    for (int v = 0; v < n_nodes; ++v) {
        int& id = of_root[at(joined.find(v))];
        if (id < 0) id = n_components++;
        component_[at(v)] = id;
    }
    member_begin_.assign(at(n_components) + 1, 0);
    for (const int c : component_) ++member_begin_[at(c) + 1];
    for (std::size_t c = 1; c < member_begin_.size(); ++c)
        member_begin_[c] += member_begin_[c - 1];
    members_.resize(at(n_nodes));
    std::vector<int> fill(member_begin_.begin(), member_begin_.end() - 1);
    for (int v = 0; v < n_nodes; ++v) members_[at(fill[at(component_[at(v)])]++)] = v;

    arc_cost_.resize(snapshot.arcs.size());
    for (std::size_t i = 0; i < arc_cost_.size(); ++i)
        arc_cost_[i] = cost_of(at(snapshot.arcs[i].link));

    // Per component, one hop per neighbouring component at the least
    // finite cost of the links into it; `slot` finds a neighbour already
    // in the row being built. The hops join the finite-cost groups.
    std::vector<std::ptrdiff_t> slot(at(n_components), -1);
    union_find grouped(n_components);
    hop_begin_.assign(1, 0);
    for (int c = 0; c < n_components; ++c) {
        const auto row = static_cast<std::ptrdiff_t>(hops_.size());
        for (int k = member_begin_[at(c)]; k < member_begin_[at(c) + 1]; ++k) {
            const int m = members_[at(k)];
            for (int i = snapshot.arc_begin[at(m)]; i < snapshot.arc_begin[at(m) + 1]; ++i) {
                const double cost = arc_cost_[at(i)];
                const int to = component_[at(snapshot.arcs[at(i)].to)];
                if (cost == inf || to == c) continue;
                auto& where = slot[at(to)];
                if (where >= row) {
                    auto& kept = hops_[static_cast<std::size_t>(where)].cost;
                    kept = std::min(kept, cost);
                } else {
                    where = static_cast<std::ptrdiff_t>(hops_.size());
                    hops_.push_back({to, cost});
                    grouped.unite(c, to);
                }
            }
        }
        hop_begin_.push_back(static_cast<int>(hops_.size()));
    }
    group_.resize(at(n_components));
    for (int c = 0; c < n_components; ++c) group_[at(c)] = grouped.find(c);
    OBS_COUNT_N("lsn.router.components", n_components);

    reached_.assign(at(n_components), 0);
    wanted_.assign(at(n_components), 0);
    dist_.assign(at(n_components), inf);
    queue_.reserve(at(n_components));
    queue_slot_.assign(at(n_components), 0);
    position_.assign(at(n_components), 0);
    target_.assign(at(n_nodes), 0);
    ordered_.assign(at(n_nodes), 0);
    pop_rank_.assign(at(n_nodes), 0);
    reached_from_.assign(at(n_nodes), 0);
}

void router::next_stamp()
{
    if (++stamp_ != 0) return;
    // Wrapped: no stale entry may read as current.
    for (auto* stamps : {&reached_, &wanted_, &target_, &ordered_})
        std::fill(stamps->begin(), stamps->end(), 0);
    stamp_ = 1;
}

void router::route(int src_node, std::span<const int> targets)
{
    // Every routing query in the stack lands here, so these two counters
    // are the per-campaign "how many shortest-path solves, and how much of
    // the graph each one walked" figures.
    OBS_COUNT("lsn.dijkstra.runs");
    const auto& snapshot = *snapshot_;
    expects(src_node >= 0 && src_node < snapshot.n_nodes(), "bad source node");
    for (const int t : targets)
        expects(t >= 0 && t < snapshot.n_nodes(), "bad target node");
    next_stamp();
    source_ = src_node;
    settled_.clear();
    int unsettled = 0; // target components not yet settled
    for (const int t : targets) {
        target_[at(t)] = stamp_;
        auto& wanted = wanted_[at(component_[at(t)])];
        unsettled += wanted != stamp_;
        wanted = stamp_;
    }
    if (unsettled == 0) return;

    const int src = component_[at(src_node)];
    reached_[at(src)] = stamp_;
    dist_[at(src)] = 0.0;
    queue_.assign(1, src);
    queue_slot_[at(src)] = 0;
    // Key of the last target component to settle; the rest of that key
    // settles too, since the pop order of its members needs all of them.
    double last_key = inf;
    while (!queue_.empty()) {
        const int c = queue_.front();
        const double d = dist_[at(c)];
        if (d > last_key) break;
        pop_least();
        position_[at(c)] = static_cast<int>(settled_.size());
        settled_.push_back(c);
        if (wanted_[at(c)] == stamp_ && --unsettled == 0) last_key = d;
        // Costs are positive here, so a settled component is never
        // improved and an improved one is still queued.
        for (int h = hop_begin_[at(c)]; h < hop_begin_[at(c) + 1]; ++h) {
            const auto& [to, cost] = hops_[at(h)];
            const double nd = d + cost;
            if (reached_[at(to)] != stamp_) {
                reached_[at(to)] = stamp_;
                dist_[at(to)] = nd;
                queue_.push_back(to);
                sift_up(queue_.size() - 1, to);
            } else if (nd < dist_[at(to)]) {
                dist_[at(to)] = nd;
                sift_up(at(queue_slot_[at(to)]), to);
            }
        }
    }
    OBS_COUNT_N("lsn.dijkstra.settled", settled_.size());
}

/// Files `component`, whose key may have fallen, at `slot` or above it:
/// every parent with a larger key moves down a level.
void router::sift_up(std::size_t slot, int component)
{
    const double key = dist_[at(component)];
    while (slot > 0) {
        const std::size_t parent = (slot - 1) / 4;
        const int above = queue_[parent];
        if (!(key < dist_[at(above)])) break;
        queue_[slot] = above;
        queue_slot_[at(above)] = static_cast<int>(slot);
        slot = parent;
    }
    queue_[slot] = component;
    queue_slot_[at(component)] = static_cast<int>(slot);
}

/// Removes the root: the last entry sinks from the top past every least
/// child with a smaller key. The least child is picked on keys alone.
void router::pop_least()
{
    const int sinking = queue_.back();
    queue_.pop_back();
    const std::size_t n = queue_.size();
    if (n == 0) return;
    const double key = dist_[at(sinking)];
    std::size_t slot = 0;
    for (;;) {
        const std::size_t first = 4 * slot + 1;
        if (first >= n) break;
        const std::size_t last = std::min(first + 4, n);
        std::size_t least = first;
        double least_key = dist_[at(queue_[first])];
        for (std::size_t k = first + 1; k < last; ++k) {
            const double k_key = dist_[at(queue_[k])];
            const bool lower = k_key < least_key;
            least = lower ? k : least;
            least_key = lower ? k_key : least_key;
        }
        if (!(least_key < key)) break;
        queue_[slot] = queue_[least];
        queue_slot_[at(queue_[slot])] = static_cast<int>(slot);
        slot = least;
    }
    queue_[slot] = sinking;
    queue_slot_[at(sinking)] = static_cast<int>(slot);
}

double router::dist_of(int node) const
{
    const auto c = at(component_[at(node)]);
    return reached_[c] == stamp_ ? dist_[c] : inf;
}

double router::latency_s(int target) const
{
    expects(stamp_ != 0 && target >= 0 && target < snapshot_->n_nodes() &&
                target_[at(target)] == stamp_,
            "not a target of the last query");
    return dist_of(target);
}

std::vector<int> router::path_to(int target)
{
    std::vector<int> path;
    append_path(target, path);
    return path;
}

void router::append_path(int target, std::vector<int>& path)
{
    if (latency_s(target) == inf) return;
    const auto first = static_cast<std::ptrdiff_t>(path.size());
    path.push_back(target);
    for (int v = target; v != source_;) path.push_back(v = predecessor(v));
    std::reverse(path.begin() + first, path.end());
}

bool router::connected(int a, int b) const
{
    const int n_nodes = snapshot_->n_nodes();
    expects(a >= 0 && a < n_nodes && b >= 0 && b < n_nodes, "bad node");
    return group_[at(component_[at(a)])] == group_[at(component_[at(b)])];
}

/// The neighbour whose relaxation node-level Dijkstra would have kept: of
/// the lower keys reaching `node` exactly, the least key, first in its pop
/// order; else the member of the node's own key that reached it first.
int router::predecessor(int node)
{
    const auto& snapshot = *snapshot_;
    const double key = dist_of(node);
    int best = -1;
    double best_key = inf;
    for (int i = snapshot.arc_begin[at(node)]; i < snapshot.arc_begin[at(node) + 1]; ++i) {
        const int u = snapshot.arcs[at(i)].to;
        const double du = dist_of(u);
        if (!(du < key) || du + arc_cost_[at(i)] != key) continue;
        if (best < 0 || du < best_key) {
            best = u;
            best_key = du;
        } else if (du == best_key && u != best) {
            if (ordered_[at(u)] != stamp_) order_key(component_[at(u)]);
            if (pop_rank_[at(u)] < pop_rank_[at(best)]) best = u;
        }
    }
    if (best >= 0) return best;
    if (ordered_[at(node)] != stamp_) order_key(component_[at(node)]);
    expects(reached_from_[at(node)] >= 0, "router: no predecessor reaches the node");
    return reached_from_[at(node)];
}

/// Replays the pop order of the key holding `component`: every member of
/// every component settled at that key gets its rank and in-key reacher.
void router::order_key(int component)
{
    const auto& snapshot = *snapshot_;
    const double key = dist_[at(component)];
    auto first = at(position_[at(component)]);
    while (first > 0 && dist_[at(settled_[first - 1])] == key) --first;
    auto last = at(position_[at(component)]) + 1;
    while (last < settled_.size() && dist_[at(settled_[last])] == key) ++last;

    constexpr int unreached = -2;
    key_heap_.clear();
    for (auto s = first; s < last; ++s) {
        const auto c = at(settled_[s]);
        for (int k = member_begin_[c]; k < member_begin_[c + 1]; ++k) {
            const int m = members_[at(k)];
            ordered_[at(m)] = stamp_;
            bool seeded = m == source_;
            for (int i = snapshot.arc_begin[at(m)]; !seeded && i < snapshot.arc_begin[at(m) + 1];
                 ++i) {
                const double du = dist_of(snapshot.arcs[at(i)].to);
                seeded = du < key && du + arc_cost_[at(i)] == key;
            }
            reached_from_[at(m)] = seeded ? -1 : unreached;
            if (seeded) key_heap_.push_back(m);
        }
    }
    std::make_heap(key_heap_.begin(), key_heap_.end(), std::greater<>{});
    for (int rank = 0; !key_heap_.empty(); ++rank) {
        std::pop_heap(key_heap_.begin(), key_heap_.end(), std::greater<>{});
        const int m = key_heap_.back();
        key_heap_.pop_back();
        pop_rank_[at(m)] = rank;
        for (int i = snapshot.arc_begin[at(m)]; i < snapshot.arc_begin[at(m) + 1]; ++i) {
            const int w = snapshot.arcs[at(i)].to;
            if (ordered_[at(w)] != stamp_ || reached_from_[at(w)] != unreached ||
                key + arc_cost_[at(i)] != key)
                continue;
            reached_from_[at(w)] = m;
            key_heap_.push_back(w);
            std::push_heap(key_heap_.begin(), key_heap_.end(), std::greater<>{});
        }
    }
}

} // namespace ssplane::lsn
