#include "partition/splitter.h"

#include <algorithm>

#include "support/error.h"

namespace ndp::partition {

namespace {

constexpr std::uint32_t kNoVertex = 0xffffffffu;

} // namespace

void
StatementSplitter::split(const ir::VarSet &sets,
                         std::span<const Location> leaf_locations,
                         noc::NodeId store_node, LoadBalancer *balancer,
                         SplitPlan &out)
{
    NDP_CHECK(store_node >= 0 && store_node < mesh_->nodeCount(),
              "bad store node " << store_node);
    out.clear();
    splitSet(sets, leaf_locations, store_node, /*outermost=*/true,
             balancer, out);
    NDP_CHECK(out.root >= 0, "split produced no root subcomputation");

    std::int32_t starters = 0;
    std::size_t child = 0;
    for (const PackedSub &sub : out.subs) {
        if (sub.children == 0)
            ++starters;
        for (std::size_t c = 0; c < sub.children; ++c, ++child) {
            if (out.subs[out.children[child]].node != sub.node)
                ++out.crossNodeEdges;
        }
    }
    out.degreeOfParallelism = std::max(starters, 1);
}

int
StatementSplitter::emitSub(noc::NodeId at_node, std::span<const Item> inputs,
                           bool is_root, LoadBalancer *balancer,
                           SplitPlan &out)
{
    PackedSub sub;
    std::size_t leaves = 0;
    std::size_t children = 0;
    std::int64_t op_cost = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const Item &in = inputs[i];
        if (in.leaf >= 0) {
            out.leaves.push_back(narrowPacked<std::uint8_t>(in.leaf, "leaf"));
            ++leaves;
        } else if (in.sub >= 0) {
            out.children.push_back(
                narrowPacked<std::uint8_t>(in.sub, "child"));
            ++children;
        }
        if (i > 0) {
            out.ops.push_back(in.op);
            op_cost += ir::opCost(in.op);
        }
    }
    sub.leaves = narrowPacked<std::uint8_t>(leaves, "leaf");
    sub.children = narrowPacked<std::uint8_t>(children, "child");
    sub.ops = narrowPacked<std::uint8_t>(
        inputs.empty() ? 0 : inputs.size() - 1, "op count");
    sub.opCost = narrowPacked<std::int32_t>(op_cost, "op cost");
    sub.isRoot = is_root ? 1 : 0;

    // Load balancing: if the merge node is over-loaded, slide the work
    // to the least-loaded input node that accepts it; the result then
    // pays one extra trip back (Section 4.5).
    noc::NodeId chosen = at_node;
    if (balancer && op_cost > 0 && !is_root &&
        !balancer->accepts(at_node, op_cost)) {
        noc::NodeId best = noc::kInvalidNode;
        std::int64_t best_load = 0;
        for (const Item &in : inputs) {
            if (in.node == at_node || in.node == noc::kInvalidNode)
                continue;
            if (!balancer->accepts(in.node, op_cost))
                continue;
            const std::int64_t l = balancer->load(in.node);
            if (best == noc::kInvalidNode || l < best_load ||
                (l == best_load && in.node < best)) {
                best = in.node;
                best_load = l;
            }
        }
        if (best != noc::kInvalidNode) {
            chosen = best;
            out.plannedMovement += mesh_->distance(best, at_node);
        }
    }
    sub.node = narrowPacked<std::uint16_t>(chosen, "node");
    if (balancer && op_cost > 0)
        balancer->add(chosen, op_cost);
    out.subs.push_back(sub);
    const int idx = static_cast<int>(out.subs.size()) - 1;
    if (is_root)
        out.root = idx;
    return idx;
}

StatementSplitter::Item
StatementSplitter::splitSet(const ir::VarSet &set,
                            std::span<const Location> leaf_locations,
                            noc::NodeId store_node, bool outermost,
                            LoadBalancer *balancer, SplitPlan &out)
{
    // This depth's scratch; nested sets recurse into deeper levels, so
    // the unique_ptr keeps this reference valid while levels_ grows.
    if (depth_ == levels_.size()) {
        levels_.push_back(std::make_unique<Level>());
        levels_.back()->vertexOfNode.assign(
            static_cast<std::size_t>(mesh_->nodeCount()), -1);
    }
    Level &lv = *levels_[depth_++];
    lv.vertexNode.clear();
    // On every exit: reset the node slots this level touched (one per
    // vertex) and give the depth back.
    struct LevelLease
    {
        Level &lv;
        std::size_t &depth;
        ~LevelLease()
        {
            for (noc::NodeId node : lv.vertexNode)
                lv.vertexOfNode[static_cast<std::size_t>(node)] = -1;
            --depth;
        }
    } lease{lv, depth_};

    // ---- 1. Materialise the set's elements as located items. ----
    lv.items.clear();
    for (const ir::VarSet::Elem &elem : set.elems) {
        Item item;
        item.op = elem.op;
        if (elem.isLeaf()) {
            NDP_CHECK(static_cast<std::size_t>(elem.leaf) <
                          leaf_locations.size(),
                      "leaf index out of range");
            item.leaf = elem.leaf;
            item.node =
                leaf_locations[static_cast<std::size_t>(elem.leaf)].node;
        } else {
            item = splitSet(*elem.sub, leaf_locations, store_node,
                            /*outermost=*/false, balancer, out);
            item.op = elem.op;
            if (item.node == noc::kInvalidNode)
                continue; // all-constant subset: nothing to place
        }
        lv.items.push_back(item);
    }

    // ---- 2. Group items by node into graph vertices. ----
    // The node -> vertex map is a flat mesh-sized array, so grouping is
    // one indexed load per item.
    auto vertex_for = [&](noc::NodeId node) -> std::uint32_t {
        std::int32_t &slot = lv.vertexOfNode[static_cast<std::size_t>(node)];
        if (slot < 0) {
            slot = static_cast<std::int32_t>(lv.vertexNode.size());
            lv.vertexNode.push_back(node);
        }
        return static_cast<std::uint32_t>(slot);
    };
    for (const Item &item : lv.items)
        vertex_for(item.node);
    if (outermost)
        vertex_for(store_node); // the store node always joins the MST
    if (lv.vertexNode.empty())
        return Item{}; // pure-constant subexpression: no located data

    const std::size_t vertex_count = lv.vertexNode.size();
    lv.itemBegin.resize(vertex_count + 1);
    lv.grouped.clear();
    for (std::uint32_t v = 0; v < vertex_count; ++v) {
        lv.itemBegin[v] = static_cast<std::uint32_t>(lv.grouped.size());
        for (const Item &item : lv.items) {
            if (lv.vertexOfNode[static_cast<std::size_t>(item.node)] ==
                static_cast<std::int32_t>(v))
                lv.grouped.push_back(item);
        }
    }
    lv.itemBegin[vertex_count] =
        static_cast<std::uint32_t>(lv.grouped.size());
    auto items_of = [&lv](std::uint32_t v) {
        return std::span<const Item>(lv.grouped.data() + lv.itemBegin[v],
                                     lv.itemBegin[v + 1] - lv.itemBegin[v]);
    };

    // ---- 3. Single-vertex fast path (everything already colocated).
    if (vertex_count == 1) {
        const std::span<const Item> items = items_of(0);
        if (outermost) {
            emitSub(store_node, items, /*is_root=*/true, balancer, out);
            return Item{};
        }
        if (items.size() == 1)
            return items.front();
        Item result;
        result.node = lv.vertexNode[0];
        result.sub = emitSub(lv.vertexNode[0], items, false, balancer, out);
        return result;
    }

    // ---- 4. Kruskal's algorithm over the complete vertex graph. ----
    lv.edges.clear();
    for (std::uint32_t i = 0; i < vertex_count; ++i) {
        for (std::uint32_t j = i + 1; j < vertex_count; ++j) {
            lv.edges.push_back(
                {mesh_->distance(lv.vertexNode[i], lv.vertexNode[j]), i, j});
        }
    }
    // Equal-weight edges tie-break toward the store vertex first (a
    // shallower tree rooted at the store gives more subcomputation
    // parallelism at identical movement), then on node ids for
    // determinism — a refinement of the paper's random pick.
    const std::uint32_t store_vertex =
        outermost ? static_cast<std::uint32_t>(
                        lv.vertexOfNode[static_cast<std::size_t>(store_node)])
                  : kNoVertex;
    std::sort(lv.edges.begin(), lv.edges.end(),
              [&](const Edge &x, const Edge &y) {
                  if (x.weight != y.weight)
                      return x.weight < y.weight;
                  const bool xs = x.a == store_vertex || x.b == store_vertex;
                  const bool ys = y.a == store_vertex || y.b == store_vertex;
                  if (xs != ys)
                      return xs;
                  if (lv.vertexNode[x.a] != lv.vertexNode[y.a])
                      return lv.vertexNode[x.a] < lv.vertexNode[y.a];
                  return lv.vertexNode[x.b] < lv.vertexNode[y.b];
              });

    lv.forest.reset(vertex_count);
    lv.tree.clear();
    for (const Edge &e : lv.edges) {
        if (lv.forest.unite(e.a, e.b)) {
            lv.tree.emplace_back(e.a, e.b);
            out.edges.push_back(
                {narrowPacked<std::uint16_t>(lv.vertexNode[e.a], "node"),
                 narrowPacked<std::uint16_t>(lv.vertexNode[e.b], "node"),
                 narrowPacked<std::uint16_t>(e.weight, "weight")});
        }
    }
    // Adjacency lists keep acceptance order: it fixes the walk order
    // below, and with it the order subs are emitted in.
    lv.adjBegin.assign(vertex_count + 1, 0);
    for (const auto &[a, b] : lv.tree) {
        ++lv.adjBegin[a + 1];
        ++lv.adjBegin[b + 1];
    }
    for (std::size_t v = 0; v < vertex_count; ++v)
        lv.adjBegin[v + 1] += lv.adjBegin[v];
    lv.adjFill.assign(lv.adjBegin.begin(), lv.adjBegin.end() - 1);
    lv.adjacent.resize(2 * lv.tree.size());
    for (const auto &[a, b] : lv.tree) {
        lv.adjacent[lv.adjFill[a]++] = b;
        lv.adjacent[lv.adjFill[b]++] = a;
    }

    // ---- 5. Pick the tree root. ----
    std::uint32_t root_vertex = 0;
    if (outermost) {
        root_vertex = store_vertex;
    } else {
        std::int32_t best = mesh_->distance(lv.vertexNode[0], store_node);
        for (std::uint32_t i = 1; i < vertex_count; ++i) {
            const std::int32_t d =
                mesh_->distance(lv.vertexNode[i], store_node);
            if (d < best || (d == best && lv.vertexNode[i] <
                                              lv.vertexNode[root_vertex])) {
                best = d;
                root_vertex = i;
            }
        }
    }

    // ---- 6. Post-order walk: leaves flow toward the root, one
    // subcomputation per merge point (Section 4.3). Iterative to keep
    // stack use bounded.
    lv.vertexResult.assign(vertex_count, Item{});
    lv.parent.assign(vertex_count, kNoVertex);
    lv.order.clear(); // pre-order; reversed = post-order
    lv.order.push_back(root_vertex);
    lv.parent[root_vertex] = root_vertex;
    for (std::size_t at = 0; at < lv.order.size(); ++at) {
        const std::uint32_t v = lv.order[at];
        for (std::uint32_t k = lv.adjBegin[v]; k < lv.adjBegin[v + 1]; ++k) {
            const std::uint32_t next = lv.adjacent[k];
            if (lv.parent[next] == kNoVertex) {
                lv.parent[next] = v;
                lv.order.push_back(next);
            }
        }
    }
    NDP_CHECK(lv.order.size() == vertex_count,
              "MST did not span all vertices");

    for (std::size_t at = vertex_count; at-- > 0;) {
        const std::uint32_t v = lv.order[at];
        const std::span<const Item> own = items_of(v);
        lv.inputs.assign(own.begin(), own.end());
        for (std::uint32_t k = lv.adjBegin[v]; k < lv.adjBegin[v + 1]; ++k) {
            const std::uint32_t c = lv.adjacent[k];
            if (lv.parent[c] != v || c == v)
                continue;
            const Item &in = lv.vertexResult[c];
            if (in.node == noc::kInvalidNode)
                continue;
            // The child's value crosses the MST edge exactly once, as
            // one element: a child vertex always yields a subcomputation
            // or a forwarded partial result, never a bare operand (a
            // lone operand is read where it lives and its value sent).
            out.plannedMovement +=
                mesh_->distance(lv.vertexNode[c], lv.vertexNode[v]);
            lv.inputs.push_back(in);
        }
        const std::span<const Item> inputs(lv.inputs);
        if (v == root_vertex && outermost) {
            emitSub(store_node, inputs, /*is_root=*/true, balancer, out);
            continue;
        }
        Item &result = lv.vertexResult[v];
        if (inputs.empty()) {
            result = Item{};
        } else if (inputs.size() == 1 && inputs.front().leaf >= 0) {
            // A lone operand about to cross an MST edge: read it here
            // — where it lives (its home bank or a planned L1 copy) —
            // and forward the *value*. Shipping one element instead of
            // pulling a full line to the consumer is the essence of
            // bringing computation to data; it also realises the L1
            // reuse the variable2node map planned (Section 4.3).
            result = Item{};
            result.node = lv.vertexNode[v];
            result.op = inputs.front().op;
            result.sub =
                emitSub(lv.vertexNode[v], inputs, false, balancer, out);
        } else if (inputs.size() == 1) {
            // Pass-through of an already-forwarded partial result.
            result = inputs.front();
            result.node = lv.vertexNode[v];
        } else {
            const int idx =
                emitSub(lv.vertexNode[v], inputs, false, balancer, out);
            result = Item{};
            result.node = out.subs[static_cast<std::size_t>(idx)].node;
            result.sub = idx;
        }
    }

    if (outermost)
        return Item{};
    return lv.vertexResult[root_vertex];
}

} // namespace ndp::partition
