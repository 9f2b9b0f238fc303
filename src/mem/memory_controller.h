#ifndef NDP_MEM_MEMORY_CONTROLLER_H
#define NDP_MEM_MEMORY_CONTROLLER_H

/**
 * @file
 * Memory-controller queue model. L2 misses travel over the mesh to one
 * of the corner MCs (Figure 1, steps 2-4); the off-chip access time is
 * the second time-consuming period named in Section 2. We model:
 *
 *   service = base_latency(kind)                    [MCDRAM vs DDR4]
 *           + bank_conflict_penalty if the access hits the same DRAM
 *             bank as the previous one on this channel
 *           + queue_delay proportional to pass-1 load on this MC
 *
 * In cache/hybrid memory modes a direct-mapped MCDRAM-side cache is
 * probed first; only its misses pay DDR latency (Section 6.1).
 */

#include <cstdint>
#include <memory>
#include <optional>

#include "mem/address.h"
#include "mem/address_mapping.h"
#include "mem/cache.h"
#include "noc/coord.h"

namespace ndp::mem {

/** Timing/capacity parameters for one memory controller. */
struct MemoryControllerParams
{
    std::int64_t mcdramLatency = 90;      ///< cycles, high-bandwidth path
    std::int64_t ddrLatency = 220;        ///< cycles, DDR4 path
    std::int64_t bankConflictPenalty = 24;///< same-bank back-to-back cost
    std::int64_t queueCyclesPerLoad = 2;  ///< delay per concurrent request
    std::int64_t queueLoadUnit = 512;     ///< accesses per delay unit
    std::uint64_t mcdramCacheBytes = 256ull << 10; ///< per-MC slice when
                                                 ///< MCDRAM acts as cache
};

/** Which physical memory backs an address in flat/hybrid mode. */
enum class MemoryKind : std::uint8_t
{
    Mcdram,
    Ddr,
};

/**
 * One corner memory controller: queue-pressure accounting (pass 1) and
 * latency responses (pass 2).
 */
class MemoryController
{
  public:
    MemoryController(noc::NodeId node, MemoryMode mode,
                     MemoryControllerParams params);

    noc::NodeId node() const { return node_; }
    MemoryMode mode() const { return mode_; }

    /**
     * Pass 1: record @p count accesses so queue pressure is known in
     * pass 2.
     */
    void recordAccess(std::int64_t count = 1);

    /**
     * Pass 2: cycles to service a miss to @p a whose backing memory (in
     * flat/hybrid mode) is @p kind. @p coord carries the decoded DRAM
     * bank for the conflict model.
     */
    std::int64_t serviceLatency(Addr a, MemoryKind kind,
                                const DramCoord &coord);

    /** Accesses serviced in pass 2. */
    std::int64_t servicedCount() const { return serviced_; }

    /** MCDRAM-side cache statistics (cache/hybrid mode only). */
    const CacheStats *sideCacheStats() const;

    /** Drop the pass-1 load and all pass-2 state. */
    void reset();

  private:
    std::int64_t queueDelay() const;

    noc::NodeId node_;
    MemoryMode mode_;
    MemoryControllerParams params_;
    std::unique_ptr<SetAssocCache> sideCache_; // MCDRAM-as-cache
    std::int64_t recordedLoad_ = 0;
    std::int64_t serviced_ = 0;
    std::optional<std::uint64_t> lastBankKey_;
};

} // namespace ndp::mem

#endif // NDP_MEM_MEMORY_CONTROLLER_H
