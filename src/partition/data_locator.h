#ifndef NDP_PARTITION_DATA_LOCATOR_H
#define NDP_PARTITION_DATA_LOCATOR_H

/**
 * @file
 * Data location detection (Section 4.1, Algorithm 1's GetNode). The
 * location of a datum is, in priority order:
 *
 *  1. the nearest node whose L1 already holds it because an earlier
 *     subcomputation in the window fetched it (the variable2node map,
 *     nearestCopy());
 *  2. otherwise its SNUCA home L2 bank.
 *
 * The paper sends a predicted L2 miss to its memory controller; here
 * the fill flows through the home bank, so a miss is located there too
 * (DESIGN.md §7, deviation 1) and a location is a pure function of the
 * address and the window map.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/address.h"
#include "noc/coord.h"
#include "noc/mesh_topology.h"
#include "partition/dense_ids.h"

namespace ndp::partition {

/** Where a located datum lives. */
enum class LocationSource : std::uint8_t
{
    L1Copy, ///< present in some node's L1 due to a scheduled subcomp.
    L2Home, ///< at its home L2 bank
};

struct Location
{
    noc::NodeId node = noc::kInvalidNode;
    LocationSource source = LocationSource::L2Home;
};

/**
 * The compiler-maintained variable2node map (Algorithm 1 line 34):
 * which nodes will hold each line in their L1s because of
 * already-scheduled subcomputations in the current window.
 *
 * Flat and reused: the window's lines get dense ids, and each id's
 * node list keeps its capacity across clear(), so a map reused window
 * after window allocates nothing in steady state and clear() costs
 * O(lines the window touched). A line whose last copy is evicted keeps
 * its id, with an empty list, until clear().
 */
class VariableToNodeMap
{
  public:
    /**
     * @param per_node_capacity how many distinct lines one node's L1 is
     *        trusted to retain within a window; 0 = unlimited. A finite
     *        capacity models the L1 pollution that makes very large
     *        windows counter-productive (Section 4.4): once a node's
     *        budget overflows, its oldest recorded copy is dropped.
     */
    explicit VariableToNodeMap(std::size_t per_node_capacity = 0);

    /** Record that @p node's L1 will hold the line of @p addr. */
    void add(mem::Addr addr, noc::NodeId node);

    /** Nodes holding the line of @p addr, oldest first (empty if none). */
    const std::vector<noc::NodeId> &nodesFor(mem::Addr addr) const;

    /** Forget every copy and the insertion history: a fresh map. */
    void clear();

    /**
     * FNV-1a digest of the (line, node) insertion sequence since
     * construction or the last clear() — evictions included, so two
     * maps with the same digest were built by the same add() history.
     * The nest-parallel equivalence tests compare digests to pin that
     * per-nest fan-out replays exactly the serial window state.
     */
    std::uint64_t insertionHash() const { return hash_; }
    /** Number of accepted (non-duplicate) add() calls since then. */
    std::int64_t insertionCount() const { return inserts_; }

  private:
    static constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

    /**
     * FIFO of line ids with an advancing head instead of
     * erase-from-front: popping the oldest line is O(1), and the dead
     * prefix is compacted away only once it exceeds the live half.
     */
    struct LineFifo
    {
        std::vector<std::uint32_t> items;
        std::size_t head = 0;

        std::size_t size() const { return items.size() - head; }
    };

    void dropOldest(noc::NodeId node);
    void mixHash(std::uint64_t value);

    std::size_t capacity_;
    std::uint64_t hash_ = kFnvOffset;
    std::int64_t inserts_ = 0;
    DenseIds lines_;
    /** Nodes per line id; lists past lines_.size() wait for reuse. */
    std::vector<std::vector<noc::NodeId>> nodes_;
    /**
     * Per-node FIFO of the line ids recorded for it (oldest first),
     * indexed by node id and grown on demand; clear() empties only the
     * nodes listed in fifoNodes_, so a map reused window after window
     * pays per node it touched, not per mesh node.
     */
    std::vector<LineFifo> fifo_;
    std::vector<noc::NodeId> fifoNodes_;
    static const std::vector<noc::NodeId> kEmpty;
};

/**
 * The L1 copy to use among non-empty @p copies (the window map's nodes
 * for a line): the one nearest @p prefer_near, typically the store
 * node of the statement being split, ties toward the lower node id.
 */
Location nearestCopy(const noc::MeshTopology &mesh,
                     const std::vector<noc::NodeId> &copies,
                     noc::NodeId prefer_near);

} // namespace ndp::partition

#endif // NDP_PARTITION_DATA_LOCATOR_H
