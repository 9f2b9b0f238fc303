#include "partition/splitter.h"

#include <algorithm>

#include "support/error.h"

namespace ndp::partition {

namespace {

constexpr std::uint32_t kNoVertex = 0xffffffffu;

/** Levels with at most this many items find vertices by a scan. */
constexpr std::uint32_t kScanItems = 8;

/** Levels with at most this many vertices pack them in edge keys (a
 *  vertex under 128 takes 7 bits, the higher one 8). */
constexpr std::uint32_t kPackedVertices = 128;

/** Levels with at most this many edges (8 vertices) rank-sort them. */
constexpr std::uint32_t kRankSortEdges = 28;

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
    // A split that threw leaves items behind; nothing else outlives it.
    itemTop_ = 0;
    starters_ = 0;
    splitSet(sets, leaf_locations, store_node, /*outermost=*/true,
             balancer, out);
    NDP_CHECK(out.root >= 0, "split produced no root subcomputation");
    out.degreeOfParallelism = std::max(starters_, 1);
}

int
StatementSplitter::emitSub(noc::NodeId at_node, std::span<const Item> inputs,
                           bool is_root, LoadBalancer *balancer,
                           SplitPlan &out)
{
    PackedSub sub;
    std::size_t leaves = 0;
    std::size_t children = 0;
    std::int32_t cross = 0; // children on another node than at_node
    std::int64_t op_cost = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const Item &in = inputs[i];
        if (in.isLeaf()) {
            out.leaves.push_back(narrowPacked<std::uint8_t>(in.leaf(), "leaf"));
            ++leaves;
        } else if (in.isSub()) {
            out.children.push_back(
                narrowPacked<std::uint8_t>(in.sub(), "child"));
            ++children;
            cross += out.subs[static_cast<std::size_t>(in.sub())].node !=
                     at_node;
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
            cross = 0;
            for (const Item &in : inputs) {
                if (in.isSub())
                    cross += out.subs[static_cast<std::size_t>(in.sub())]
                                 .node != chosen;
            }
        }
    }
    starters_ += children == 0;
    out.crossNodeEdges += cross;
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
StatementSplitter::mergeAt(noc::NodeId node, std::span<const Item> inputs,
                           LoadBalancer *balancer, SplitPlan &out)
{
    if (inputs.empty())
        return Item{};
    const Item &front = inputs.front();
    if (inputs.size() == 1 && front.isLeaf()) {
        // A lone operand about to cross an MST edge: read it here —
        // where it lives (its home bank or a planned L1 copy) — and
        // forward the *value*. Shipping one element instead of pulling
        // a full line to the consumer is the essence of bringing
        // computation to data; it also realises the L1 reuse the
        // variable2node map planned (Section 4.3). The sub has no op,
        // so no cost for the balancer to weigh, and no child: it is
        // emitSub()'s result for one leaf, written directly.
        PackedSub sub;
        sub.node = narrowPacked<std::uint16_t>(node, "node");
        sub.leaves = 1;
        out.leaves.push_back(narrowPacked<std::uint8_t>(front.leaf(), "leaf"));
        out.subs.push_back(sub);
        ++starters_;
        return Item::ofSub(node, static_cast<int>(out.subs.size()) - 1,
                           front.op);
    }
    if (inputs.size() == 1) {
        // Pass-through of an already-forwarded partial result.
        return {node, front.ref, front.op};
    }
    const int sub = emitSub(node, inputs, false, balancer, out);
    return Item::ofSub(out.subs[static_cast<std::size_t>(sub)].node, sub,
                       ir::OpKind::Add);
}

void
StatementSplitter::reserveLevel(std::size_t vertices, std::size_t items)
{
    if (vertexNode_.size() < vertices) {
        vertexNode_.resize(vertices);
        ownHead_.resize(vertices);
        ownTail_.resize(vertices);
        label_.resize(vertices);
        adjHead_.resize(vertices);
        adjTail_.resize(vertices);
        arcNext_.resize(2 * vertices);
        arcTo_.resize(2 * vertices);
        order_.resize(vertices + 1); // the walk writes one past
        kidsBegin_.resize(vertices);
        kidsEnd_.resize(vertices);
        vertexResult_.resize(vertices);
        edges_.resize(vertices * (vertices - 1) / 2);
        sorted_.resize(std::min<std::size_t>(edges_.size(), kRankSortEdges));
    }
    if (itemNext_.size() < items) {
        itemNext_.resize(items);
        inputs_.resize(2 * items);
    }
}

StatementSplitter::Item
StatementSplitter::splitSet(const ir::VarSet &set,
                            std::span<const Location> leaf_locations,
                            noc::NodeId store_node, bool outermost,
                            LoadBalancer *balancer, SplitPlan &out)
{
    // ---- 1. Materialise the set's elements as located items, on top
    // of the open levels' items; a nested set pushes and pops its own
    // above them and emits its subs first.
    const std::size_t first = itemTop_;
    auto push = [this](const Item &item) {
        if (itemTop_ == items_.size())
            items_.resize(std::max<std::size_t>(16, 2 * items_.size()));
        items_[itemTop_++] = item;
    };
    for (const ir::VarSet::Elem &elem : set.elems) {
        if (elem.isLeaf()) {
            NDP_CHECK(static_cast<std::size_t>(elem.leaf) <
                          leaf_locations.size(),
                      "leaf index out of range");
            push(Item::ofLeaf(
                leaf_locations[static_cast<std::size_t>(elem.leaf)].node,
                elem.leaf, elem.op));
            continue;
        }
        Item item = splitSet(*elem.sub, leaf_locations, store_node,
                             /*outermost=*/false, balancer, out);
        if (item.node == noc::kInvalidNode)
            continue; // all-constant subset: nothing to place
        item.op = elem.op;
        push(item);
    }
    const Item result =
        splitLevel(first, store_node, outermost, balancer, out);
    itemTop_ = first;
    return result;
}

StatementSplitter::Item
StatementSplitter::splitLevel(std::size_t first, noc::NodeId store_node,
                              bool outermost, LoadBalancer *balancer,
                              SplitPlan &out)
{
    const Item *const items = items_.data() + first;
    const auto item_count = static_cast<std::uint32_t>(itemTop_ - first);
    // At most one vertex per item, plus the store's.
    if (vertexNode_.size() <= item_count || itemNext_.size() < item_count)
        reserveLevel(item_count + 1, item_count);

    // ---- 2. Group items by node into graph vertices, numbered in
    // first-seen order, each vertex keeping its items, in order, as a
    // list. A few items find their vertex by a scan of the vertices;
    // more use the flat mesh-sized node -> vertex map, one indexed
    // load per item.
    const bool scan = item_count <= kScanItems;
    std::int32_t *const vertex_of = vertexOfNode_.data();
    noc::NodeId *const vertex_node = vertexNode_.data();
    std::uint32_t *const own_head = ownHead_.data();
    std::uint32_t *const own_tail = ownTail_.data();
    std::uint32_t *const item_next = itemNext_.data();
    std::uint32_t vertex_count = 0;
    // On every exit: reset the node slots this level set.
    struct SlotLease
    {
        std::int32_t *vertexOf;
        const noc::NodeId *vertexNode;
        const std::uint32_t &count;
        bool scan;
        ~SlotLease()
        {
            for (std::uint32_t v = 0; !scan && v < count; ++v)
                vertexOf[vertexNode[v]] = -1;
        }
    } lease{vertex_of, vertex_node, vertex_count, scan};
    auto vertex_for = [&](noc::NodeId node) -> std::uint32_t {
        if (scan) {
            for (std::uint32_t v = 0; v < vertex_count; ++v) {
                if (vertex_node[v] == node)
                    return v;
            }
        } else if (vertex_of[node] >= 0) {
            return static_cast<std::uint32_t>(vertex_of[node]);
        }
        // Every vertex's node ends up in a packed edge or sub.
        (void)narrowPacked<std::uint16_t>(node, "node");
        if (!scan)
            vertex_of[node] = static_cast<std::int32_t>(vertex_count);
        vertex_node[vertex_count] = node;
        own_head[vertex_count] = kNoVertex;
        return vertex_count++;
    };
    for (std::uint32_t i = 0; i < item_count; ++i) {
        const std::uint32_t v = vertex_for(items[i].node);
        item_next[i] = kNoVertex;
        if (own_head[v] == kNoVertex)
            own_head[v] = i;
        else
            item_next[own_tail[v]] = i;
        own_tail[v] = i;
    }
    // The store node always joins the outermost level's MST.
    const std::uint32_t store_vertex =
        outermost ? vertex_for(store_node) : kNoVertex;
    if (vertex_count == 0)
        return Item{}; // pure-constant subexpression: no located data

    // A vertex's inputs: its own items in order, then (added by the
    // walk below) its children's results.
    Item *const inputs = inputs_.data();
    auto gather_own = [&](std::uint32_t v) {
        std::uint32_t n = 0;
        for (std::uint32_t i = own_head[v]; i != kNoVertex; i = item_next[i])
            inputs[n++] = items[i];
        return n;
    };

    // ---- 3. Single-vertex fast path (everything already colocated).
    if (vertex_count == 1) {
        const std::uint32_t n = gather_own(0);
        if (outermost) {
            emitSub(store_node, {inputs, n}, /*is_root=*/true, balancer,
                    out);
            return Item{};
        }
        if (n == 1)
            return inputs[0];
        return Item::ofSub(
            vertex_node[0],
            emitSub(vertex_node[0], {inputs, n}, false, balancer, out),
            ir::OpKind::Add);
    }

    // ---- 3b. Two vertices: the one edge is the tree, and the child
    // is emitted before the root, as the steps below would.
    if (vertex_count == 2) {
        const std::int32_t weight =
            mesh_->distance(vertex_node[0], vertex_node[1]);
        out.edges.push_back(
            {static_cast<std::uint16_t>(vertex_node[0]),
             static_cast<std::uint16_t>(vertex_node[1]),
             narrowPacked<std::uint16_t>(weight, "weight")});
        std::uint32_t root = 0;
        if (outermost) {
            root = store_vertex;
        } else {
            const std::int32_t d0 =
                mesh_->distance(vertex_node[0], store_node);
            const std::int32_t d1 =
                mesh_->distance(vertex_node[1], store_node);
            root = d1 < d0 || (d1 == d0 && vertex_node[1] < vertex_node[0])
                       ? 1
                       : 0;
        }
        const std::uint32_t child = 1 - root;
        const Item from_child = mergeAt(
            vertex_node[child], {inputs, gather_own(child)}, balancer, out);
        std::uint32_t n = gather_own(root);
        if (from_child.node != noc::kInvalidNode) {
            out.plannedMovement += weight;
            inputs[n++] = from_child;
        }
        if (outermost) {
            emitSub(store_node, {inputs, n}, /*is_root=*/true, balancer,
                    out);
            return Item{};
        }
        return mergeAt(vertex_node[root], {inputs, n}, balancer, out);
    }

    // ---- 4. Kruskal's algorithm over the complete vertex graph.
    // Equal-weight edges tie-break toward the store vertex first (a
    // shallower tree rooted at the store gives more subcomputation
    // parallelism at identical movement), then on node ids for
    // determinism — a refinement of the paper's random pick. The
    // packed keys sort in exactly that order; below their nodes, which
    // differ from edge to edge, they carry the endpoints' vertices
    // when those fit.
    const bool ids_packed = vertex_count <= kPackedVertices;
    std::uint64_t *const edges = edges_.data();
    std::uint32_t edge_count = 0;
    for (std::uint32_t i = 0; i < vertex_count; ++i) {
        const auto node_i = static_cast<std::uint64_t>(vertex_node[i]);
        for (std::uint32_t j = i + 1; j < vertex_count; ++j) {
            const auto weight = static_cast<std::uint64_t>(
                narrowPacked<std::uint16_t>(
                    mesh_->distance(vertex_node[i], vertex_node[j]),
                    "weight"));
            const std::uint64_t off_store =
                i == store_vertex || j == store_vertex ? 0 : 1;
            edges[edge_count++] =
                weight << 48 | off_store << 47 | node_i << 31 |
                static_cast<std::uint64_t>(vertex_node[j]) << 15 |
                (ids_packed ? i << 8 | j : 0);
        }
    }
    const std::uint64_t *sorted = edges;
    if (edge_count <= kRankSortEdges) {
        // Keys are distinct (so are their node pairs): each key's rank
        // is the count of smaller keys, found without a branch.
        std::uint64_t *const ranked = sorted_.data();
        for (std::uint32_t k = 0; k < edge_count; ++k) {
            std::uint32_t rank = 0;
            for (std::uint32_t m = 0; m < edge_count; ++m)
                rank += edges[m] < edges[k];
            ranked[rank] = edges[k];
        }
        sorted = ranked;
    } else {
        std::sort(edges, edges + edge_count);
    }

    // Each vertex's component label; an accepted edge gives its first
    // endpoint's component the second's label.
    std::uint32_t *const label = label_.data();
    std::uint32_t *const head = adjHead_.data();
    std::uint32_t *const tail = adjTail_.data();
    std::uint32_t *const arc_next = arcNext_.data();
    std::uint32_t *const arc_to = arcTo_.data();
    std::uint32_t *const seen = kidsBegin_.data(); // until the walk
    std::uint32_t *const kids_begin = kidsBegin_.data();
    for (std::uint32_t v = 0; v < vertex_count; ++v) {
        label[v] = v;
        head[v] = kNoVertex;
        seen[v] = 0;
    }
    // Adjacency lists keep acceptance order: it fixes the walk order
    // below, and with it the order subs are emitted in.
    std::uint32_t arcs = 0;
    auto link = [&](std::uint32_t from, std::uint32_t to) {
        arc_to[arcs] = to;
        arc_next[arcs] = kNoVertex;
        if (head[from] == kNoVertex)
            head[from] = arcs;
        else
            arc_next[tail[from]] = arcs;
        tail[from] = arcs++;
    };
    // A spanning tree has vertex_count - 1 edges; the rest are rejected.
    const std::uint32_t tree_arcs = 2 * (vertex_count - 1);
    for (std::uint32_t k = 0; k < edge_count && arcs < tree_arcs; ++k) {
        const std::uint64_t key = sorted[k];
        const auto node_a = static_cast<noc::NodeId>(key >> 31 & 0xffff);
        const auto node_b = static_cast<noc::NodeId>(key >> 15 & 0xffff);
        const auto a = ids_packed
                           ? static_cast<std::uint32_t>(key >> 8 & 0x7f)
                           : static_cast<std::uint32_t>(vertex_of[node_a]);
        const auto b = ids_packed
                           ? static_cast<std::uint32_t>(key & 0xff)
                           : static_cast<std::uint32_t>(vertex_of[node_b]);
        const std::uint32_t from = label[a];
        const std::uint32_t to = label[b];
        if (from == to)
            continue;
        for (std::uint32_t v = 0; v < vertex_count; ++v)
            label[v] = label[v] == from ? to : label[v];
        out.edges.push_back({static_cast<std::uint16_t>(node_a),
                             static_cast<std::uint16_t>(node_b),
                             static_cast<std::uint16_t>(key >> 48)});
        link(a, b);
        link(b, a);
    }

    // ---- 5. Pick the tree root.
    std::uint32_t root_vertex = 0;
    if (outermost) {
        root_vertex = store_vertex;
    } else {
        std::int32_t best = mesh_->distance(vertex_node[0], store_node);
        for (std::uint32_t i = 1; i < vertex_count; ++i) {
            const std::int32_t d = mesh_->distance(vertex_node[i], store_node);
            if (d < best ||
                (d == best && vertex_node[i] < vertex_node[root_vertex])) {
                best = d;
                root_vertex = i;
            }
        }
    }

    // ---- 6. Post-order walk: leaves flow toward the root, one
    // subcomputation per merge point (Section 4.3). Iterative to keep
    // stack use bounded: a breadth-first walk from the root, each
    // vertex's neighbours in adjacency order, so the vertices a vertex
    // discovers are its children, next to each other in the order.
    std::uint32_t *const order = order_.data(); // pre-order; reversed = post
    std::uint32_t *const kids_end = kidsEnd_.data();
    std::uint32_t visited = 1;
    order[0] = root_vertex;
    seen[root_vertex] = 1;
    for (std::uint32_t at = 0; at < visited; ++at) {
        const std::uint32_t v = order[at];
        kids_begin[v] = visited;
        for (std::uint32_t k = head[v]; k != kNoVertex; k = arc_next[k]) {
            const std::uint32_t next = arc_to[k];
            const std::uint32_t fresh = seen[next] == 0;
            seen[next] = seen[next] | fresh;
            order[visited] = next; // kept only when fresh
            visited += fresh;
        }
        kids_end[v] = visited;
    }
    NDP_CHECK(visited == vertex_count, "MST did not span all vertices");

    Item *const vertex_result = vertexResult_.data();
    for (std::uint32_t at = vertex_count; at-- > 0;) {
        const std::uint32_t v = order[at];
        std::uint32_t n = gather_own(v);
        for (std::uint32_t k = kids_begin[v]; k < kids_end[v]; ++k) {
            const std::uint32_t c = order[k];
            const Item &in = vertex_result[c];
            if (in.node == noc::kInvalidNode)
                continue;
            // The child's value crosses the MST edge exactly once, as
            // one element: a child vertex always yields a subcomputation
            // or a forwarded partial result, never a bare operand (a
            // lone operand is read where it lives and its value sent).
            out.plannedMovement +=
                mesh_->distance(vertex_node[c], vertex_node[v]);
            inputs[n++] = in;
        }
        if (v == root_vertex && outermost) {
            emitSub(store_node, {inputs, n}, /*is_root=*/true, balancer,
                    out);
            continue;
        }
        vertex_result[v] =
            mergeAt(vertex_node[v], {inputs, n}, balancer, out);
    }

    if (outermost)
        return Item{};
    return vertex_result[root_vertex];
}

} // namespace ndp::partition
