#ifndef NDP_NOC_MESH_TOPOLOGY_H
#define NDP_NOC_MESH_TOPOLOGY_H

/**
 * @file
 * The M x N 2D-mesh topology of the target manycore (Figure 1). Each
 * node holds a core, a private L1, and one bank of the shared SNUCA L2.
 * Memory controllers sit at the four corner nodes.
 *
 * The topology carries a fault::FaultModel; the healthy chip is its
 * empty case. Every topology (mesh, torus, faulted or not) is built by
 * one algorithm: the surviving directed graph (dead routers and failed
 * links removed), an all-pairs BFS distance table over it, and routes
 * that greedily take the first +x/-x/+y/-y link one hop closer to the
 * destination. On a healthy mesh that is dimension-ordered (XY)
 * routing over exactly ManhattanDistance links; on a healthy torus it
 * takes the shorter way round each dimension, forward on ties.
 * Construction fails fast with ndp::fatal, naming the fault, when
 * faultSetProblem() rejects the fault set, and rehomeOf() maps each
 * dead node's L2 bank to its nearest live node.
 */

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fault/fault_model.h"
#include "noc/coord.h"
#include "support/error.h"

namespace ndp::noc {

/**
 * Identifier of one unidirectional physical link. Links connect
 * adjacent nodes; the id encodes (source node, direction).
 */
struct LinkId
{
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;

    bool operator==(const LinkId &other) const = default;
};

/** Quadrant index (0..3) used by the quadrant / SNC-4 cluster modes. */
using QuadrantId = std::int32_t;

/**
 * Rectangular 2D mesh (optionally a torus) with row-major node
 * numbering.
 *
 * The topology is immutable after construction. Routes are shortest
 * paths over the surviving links with a fixed +x/-x/+y/-y next-hop
 * order, which without faults is minimal XY routing: X first, then Y,
 * over the (wrap-aware) Manhattan distance. The torus option exercises
 * the paper's claim that the approach works with any on-chip topology
 * (Section 2).
 */
class MeshTopology
{
  public:
    /**
     * @param cols mesh width (N in the paper's M x N template)
     * @param rows mesh height
     * @param torus add wrap-around links in both dimensions
     * @param faults dead/degraded nodes and failed links; the empty
     *        model reproduces the healthy mesh exactly. Fatal, with
     *        faultSetProblem()'s message, if the chip cannot run.
     */
    MeshTopology(std::int32_t cols, std::int32_t rows,
                 bool torus = false, fault::FaultModel faults = {});

    bool isTorus() const { return torus_; }

    std::int32_t cols() const { return cols_; }
    std::int32_t rows() const { return rows_; }
    std::int32_t nodeCount() const { return cols_ * rows_; }

    /** Dense per-link index space for traffic accounting. */
    std::int32_t linkCount() const { return linkCount_; }

    bool contains(const Coord &c) const;

    NodeId nodeAt(const Coord &c) const;
    Coord coordOf(NodeId node) const;

    /**
     * Hop distance between two nodes: the shortest surviving path,
     * which is the (wrap-aware) Manhattan distance on a healthy chip.
     * Served from a precomputed O(N^2) table — distance() sits on the
     * locate/MST/traffic hot paths, so it must stay a single load in
     * release builds (hence NDP_DCHECK).
     */
    std::int32_t
    distance(NodeId a, NodeId b) const
    {
        NDP_DCHECK(a >= 0 && a < nodeCount() && b >= 0 &&
                       b < nodeCount(),
                   "bad node pair " << a << ", " << b);
        return distanceTable_[static_cast<std::size_t>(a) *
                                  static_cast<std::size_t>(nodeCount()) +
                              static_cast<std::size_t>(b)];
    }

    /**
     * The healthy-mesh Manhattan distance computed from coordinates,
     * bypassing the table and ignoring faults. Kept as the independent
     * reference: property tests cross-check the BFS table against it,
     * dead banks re-home by it, and under faults it lower-bounds the
     * detoured distance.
     */
    std::int32_t distanceUncached(NodeId a, NodeId b) const;

    /**
     * The dense index of the unidirectional link from @p from to the
     * adjacent node @p to. Used to index TrafficMatrix counters.
     */
    std::int32_t linkIndex(NodeId from, NodeId to) const;

    /**
     * Route from @p from to @p to as a sequence of dense link indices:
     * the shortest surviving path, minimal XY on a healthy mesh. Empty
     * when from == to. A view into the per-pair link table built at
     * construction, so routing allocates nothing.
     * Fatal (NDP_CHECK) when either endpoint is dead.
     */
    std::span<const std::int32_t>
    route(NodeId from, NodeId to) const
    {
        NDP_CHECK(from >= 0 && from < nodeCount() && to >= 0 &&
                      to < nodeCount(),
                  "bad route " << from << " -> " << to);
        NDP_CHECK(isLive(from) && isLive(to),
                  "routing through dead node: " << from << " -> " << to);
        const std::size_t pair =
            static_cast<std::size_t>(from) *
                static_cast<std::size_t>(nodeCount()) +
            static_cast<std::size_t>(to);
        const std::int32_t begin = routeBegin_[pair];
        return {routeLinks_.data() + begin,
                static_cast<std::size_t>(routeBegin_[pair + 1] - begin)};
    }

    /** Nodes visited by route(), inclusive of both endpoints. */
    std::vector<NodeId> routeNodes(NodeId from, NodeId to) const;

    /**
     * The corner nodes hosting the memory controllers (Figure 1):
     * (0,0), (cols-1,0), (0,rows-1), (cols-1,rows-1). The order is
     * the quadrant encoding: entry q sits in quadrant q.
     */
    const std::vector<NodeId> &memoryControllerNodes() const
    {
        return mcNodes_;
    }

    /** Quadrant (0..3) containing @p node, for quadrant/SNC-4 modes. */
    QuadrantId quadrantOf(NodeId node) const;

    // ------------------------------------------------------------------
    // Fault queries. All are trivially cheap; with an empty model every
    // node is live.

    bool hasFaults() const { return !faults_.empty(); }
    const fault::FaultModel &faults() const { return faults_; }

    /** Is @p node's tile (core + caches + router) usable? */
    bool
    isLive(NodeId node) const
    {
        NDP_DCHECK(node >= 0 && node < nodeCount(),
                   "bad node id " << node);
        return tiles_[static_cast<std::size_t>(node)] != kDead;
    }

    /** Does @p node's core compute fault::kDegradeFactor times slower? */
    bool
    isDegraded(NodeId node) const
    {
        NDP_DCHECK(node >= 0 && node < nodeCount(),
                   "bad node id " << node);
        return tiles_[static_cast<std::size_t>(node)] == kDegraded;
    }

    /** Live node ids, ascending. Equals all nodes when fault-free. */
    const std::vector<NodeId> &liveNodes() const { return liveNodes_; }

    /**
     * Where @p node's L2 bank content lives: @p node itself when live,
     * else the nearest live node by healthy Manhattan distance with a
     * deterministic lowest-id tiebreak. AddressMap applies this to
     * every home-bank lookup so the compiler and the simulator agree
     * on re-homed banks.
     */
    NodeId
    rehomeOf(NodeId node) const
    {
        NDP_DCHECK(node >= 0 && node < nodeCount(),
                   "bad node id " << node);
        return rehome_[static_cast<std::size_t>(node)];
    }

    /**
     * The one rule for a usable chip: nothing when a cols x rows mesh
     * (torus or not) can run with @p faults, else the first problem,
     * as a message that names it. In order: a dead or degraded node,
     * or a link, outside the mesh; a failed link between tiles that
     * share no link; a dead memory-controller corner; a live tile
     * that cannot reach corner 0, or that corner 0 cannot reach. The
     * constructor fails with this message; fault campaigns re-draw on
     * it. The empty model returns at once. Fatal if the mesh is
     * smaller than 2x2.
     */
    static std::optional<std::string>
    faultSetProblem(std::int32_t cols, std::int32_t rows, bool torus,
                    const fault::FaultModel &faults);

    /** A tile's state, as the per-node tile mask holds it. */
    enum TileState : std::uint8_t { kDead, kHealthy, kDegraded };

  private:
    /** Fill the tile-state, BFS distance, re-home and route tables of
     *  a fault set faultSetProblem() accepted. */
    void buildTables();

    std::int32_t cols_;
    std::int32_t rows_;
    bool torus_;
    std::int32_t linkCount_;
    fault::FaultModel faults_;
    std::vector<NodeId> mcNodes_;
    /** distance(a, b) == distanceTable_[a * nodeCount() + b]. */
    std::vector<std::int32_t> distanceTable_;
    /** Per-node TileState. */
    std::vector<std::uint8_t> tiles_;
    std::vector<NodeId> liveNodes_;
    /** Dead-bank re-home map (identity on live nodes). */
    std::vector<NodeId> rehome_;
    /**
     * CSR route table: the links of route(a, b) are
     * routeLinks_[routeBegin_[p] .. routeBegin_[p + 1]) with
     * p = a * nodeCount() + b. Pairs with a dead endpoint are empty.
     */
    std::vector<std::int32_t> routeBegin_;
    std::vector<std::int32_t> routeLinks_;
};

} // namespace ndp::noc

#endif // NDP_NOC_MESH_TOPOLOGY_H
