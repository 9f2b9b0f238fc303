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
    std::vector<std::uint8_t> &seen = seen_;
    std::vector<int> &stack = stack_;
    seen.assign(nodes_, 0);
    stack.assign(1, from);
    seen[static_cast<std::size_t>(from)] = 1;
    while (!stack.empty()) {
        const int v = stack.back();
        stack.pop_back();
        for (int next : adj_[static_cast<std::size_t>(v)]) {
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

bool
SyncGraph::dropIfImplied(int from, int to)
{
    NDP_CHECK(from >= 0 && static_cast<std::size_t>(from) < nodes_,
              "bad arc source " << from);
    auto &out = adj_[static_cast<std::size_t>(from)];
    const std::size_t erased = std::erase(out, to);
    NDP_CHECK(erased == 1, "no sync arc " << from << " -> " << to);
    if (reachable(from, to))
        return true; // a chain of other arcs already forces the order
    out.push_back(to);
    return false;
}

} // namespace ndp::partition
