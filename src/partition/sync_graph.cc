#include "partition/sync_graph.h"

#include <algorithm>

#include "support/error.h"

namespace ndp::partition {

int
SyncGraph::addNode()
{
    if (nodes_ == adj_.size())
        adj_.emplace_back();
    else
        adj_[nodes_].clear();
    return static_cast<int>(nodes_++);
}

void
SyncGraph::addArc(int from, int to)
{
    NDP_CHECK(from >= 0 && static_cast<std::size_t>(from) < nodes_,
              "bad sync arc source " << from);
    NDP_CHECK(to >= 0 && static_cast<std::size_t>(to) < nodes_,
              "bad sync arc target " << to);
    NDP_CHECK(from != to, "self sync arc");
    auto &out = adj_[static_cast<std::size_t>(from)];
    if (std::find(out.begin(), out.end(), to) == out.end())
        out.push_back(to);
}

std::size_t
SyncGraph::arcCount() const
{
    std::size_t n = 0;
    for (std::size_t v = 0; v < nodes_; ++v)
        n += adj_[v].size();
    return n;
}

bool
SyncGraph::reachable(int from, int to) const
{
    return reachableAvoiding(from, to, -1, -1);
}

bool
SyncGraph::impliedByOthers(int from, int to) const
{
    return reachableAvoiding(from, to, from, to);
}

void
SyncGraph::removeArc(int from, int to)
{
    NDP_CHECK(from >= 0 && static_cast<std::size_t>(from) < nodes_,
              "bad arc source " << from);
    std::erase(adj_[static_cast<std::size_t>(from)], to);
}

bool
SyncGraph::reachableAvoiding(int from, int to, int skip_from,
                             int skip_to) const
{
    std::vector<std::uint8_t> &seen = seen_;
    std::vector<int> &stack = stack_;
    seen.assign(nodes_, 0);
    stack.assign(1, from);
    seen[static_cast<std::size_t>(from)] = 1;
    while (!stack.empty()) {
        const int v = stack.back();
        stack.pop_back();
        for (int next : adj_[static_cast<std::size_t>(v)]) {
            if (v == skip_from && next == skip_to)
                continue; // the arc whose redundancy is being tested
            if (next == to)
                return true;
            if (!seen[static_cast<std::size_t>(next)]) {
                seen[static_cast<std::size_t>(next)] = 1;
                stack.push_back(next);
            }
        }
    }
    return false;
}

std::size_t
SyncGraph::transitiveReduce()
{
    std::size_t removed = 0;
    for (std::size_t v = 0; v < nodes_; ++v) {
        auto &out = adj_[v];
        for (std::size_t i = 0; i < out.size();) {
            const int target = out[i];
            // Redundant iff the target is still reachable without the
            // direct arc (a chain already enforces the ordering).
            if (reachableAvoiding(static_cast<int>(v), target,
                                  static_cast<int>(v), target)) {
                out.erase(out.begin() + static_cast<std::ptrdiff_t>(i));
                ++removed;
            } else {
                ++i;
            }
        }
    }
    return removed;
}

} // namespace ndp::partition
