#ifndef NDP_MEM_ADDRESS_MAPPING_H
#define NDP_MEM_ADDRESS_MAPPING_H

/**
 * @file
 * Physical address mapping (Section 2, Figure 2): cache-line-granularity
 * interleaving of lines over the SNUCA L2 banks, and page-granularity
 * interleaving of pages over memory channels / ranks / banks. Plus the
 * KNL cluster modes (Section 6.1), which constrain the relative
 * positions of the home L2 bank and the servicing memory controller.
 */

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/address.h"
#include "noc/mesh_topology.h"

namespace ndp::mem {

/** KNL-style cluster-of-mesh operating modes (Section 6.1). */
enum class ClusterMode
{
    AllToAll, ///< addresses hashed over all banks; any MC may serve
    Quadrant, ///< MC is in the same quadrant as the home L2 bank
    SNC4,     ///< bank and MC both confined to the page's quadrant
};

/** KNL-style memory modes (Section 6.1). */
enum class MemoryMode
{
    Flat,   ///< MCDRAM and DDR are separate address spaces
    Cache,  ///< MCDRAM is a direct-mapped memory-side cache over DDR
    Hybrid, ///< half of MCDRAM as cache, half as flat memory
};

const char *toString(ClusterMode mode);
const char *toString(MemoryMode mode);

/**
 * Decoded page-granularity DRAM coordinates (Figure 2b). Each is at
 * most 3 address bits wide, so a byte holds it.
 */
struct DramCoord
{
    std::uint8_t channel = 0; ///< bits 12..13
    std::uint8_t rank = 0;    ///< bits 14..15
    std::uint8_t bank = 0;    ///< bits 16..18
};

/**
 * Maps addresses onto the mesh: which node's L2 bank is a line's SNUCA
 * home, and which corner memory controller owns its page.
 *
 * One L2 bank per mesh node; one memory channel per corner MC.
 */
class AddressMap
{
  public:
    AddressMap(const noc::MeshTopology &mesh, ClusterMode cluster_mode);

    ClusterMode clusterMode() const { return clusterMode_; }
    const noc::MeshTopology &mesh() const { return *mesh_; }

    /**
     * The node holding the home L2 bank of the line containing @p a.
     * In SNC-4 mode the bank is confined to the quadrant selected by the
     * page's quadrant bits; in the other modes lines interleave over all
     * banks. Under faults, banks of dead nodes are transparently
     * re-homed to the mesh's nearest live node (rehomeOf), so the
     * returned node is always live.
     */
    noc::NodeId homeBankNode(Addr a) const;

    /** The DRAM coordinates of @p a's page (Figure 2b bit fields). */
    DramCoord dramCoord(Addr a) const;

    /**
     * The mesh node of the memory controller that services misses to
     * @p a. AllToAll: the MC selected by the page's channel bits.
     * Quadrant: the MC in the home bank's quadrant. SNC-4: the MC in the
     * page's quadrant.
     */
    noc::NodeId memoryControllerNode(Addr a) const;

    /** Index (0..3) of the controller returned by memoryControllerNode. */
    std::uint32_t memoryControllerIndex(Addr a) const;

    /** Quadrant assigned to @p a's page under SNC-4 semantics. */
    noc::QuadrantId pageQuadrant(Addr a) const;

    /**
     * Install a profile-derived page -> MC-index override (the
     * data-to-MC mapping scheme of Section 6.5 / Figure 23). Pages not
     * present keep their default mapping. Pass an empty map to clear.
     */
    void setPageMcOverride(
        std::unordered_map<std::uint64_t, std::uint32_t> page_to_mc);

    bool hasPageMcOverride() const { return !pageMcOverride_.empty(); }

  private:
    /** Nodes of the given quadrant, row-major. */
    const std::vector<noc::NodeId> &quadrantNodes(noc::QuadrantId q) const;

    const noc::MeshTopology *mesh_;
    ClusterMode clusterMode_;
    std::vector<std::vector<noc::NodeId>> quadNodes_;
    std::unordered_map<std::uint64_t, std::uint32_t> pageMcOverride_;
};

} // namespace ndp::mem

#endif // NDP_MEM_ADDRESS_MAPPING_H
