#ifndef NDP_SIM_MANYCORE_H
#define NDP_SIM_MANYCORE_H

/**
 * @file
 * The modelled manycore: an M x N mesh of tiles, each with a core, a
 * private L1, and one bank of the shared SNUCA L2 (Figure 1); corner
 * memory controllers; and the KNL-style cluster/memory modes. The
 * system walks individual memory accesses through the hierarchy
 * (pass 1), producing AccessRecords that pass 2 converts to cycles.
 */

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_set>
#include <vector>

#include "mem/address_mapping.h"
#include "mem/cache.h"
#include "mem/memory_controller.h"
#include "mem/miss_predictor.h"
#include "noc/mesh_topology.h"
#include "noc/noc_model.h"
#include "noc/traffic_matrix.h"
#include "sim/plan.h"

namespace ndp::sim {

/** Full configuration of the modelled machine. */
struct ManycoreConfig
{
    std::int32_t meshCols = 6; ///< KNL: 36 tiles in a 6x6 arrangement
    std::int32_t meshRows = 6;
    /** Wrap-around links (torus) instead of a plain mesh. */
    bool torus = false;
    mem::ClusterMode clusterMode = mem::ClusterMode::Quadrant;
    mem::MemoryMode memoryMode = mem::MemoryMode::Flat;

    // Cache capacities are scaled down with the synthetic datasets so
    // steady-state L2 miss rates land in the paper's 16-37% band; the
    // KNL values (32KB L1, 1MB L2 bank) apply at proportionally larger
    // problem scales.
    std::uint64_t l1Bytes = 4 * 1024;
    std::uint32_t l1Ways = 4;
    std::uint64_t l2BankBytes = 32 * 1024;
    std::uint32_t l2Ways = 8;

    std::int64_t l1HitCycles = 2;
    std::int64_t l2BankCycles = 20;
    std::int64_t computeCyclesPerOpUnit = 9;
    /**
     * Fixed per-task issue cost (loop control, address generation,
     * spawn bookkeeping). Charged to every task, so plans with more
     * subcomputation tasks pay proportionally more — the distribution
     * overhead of the approach.
     */
    std::int64_t perTaskOverheadCycles = 18;
    /** Fixed handshake cost per cross-node synchronisation wait. */
    std::int64_t syncOverheadCycles = 30;
    /** Core cycles to emit one cross-node result message. */
    std::int64_t sendCycles = 8;
    /** Core cycles to receive/integrate one cross-node result. */
    std::int64_t recvCycles = 14;
    /** Flit payload in bytes (64B line = 8 flits). */
    std::int64_t flitBytes = 8;

    noc::NocParams noc;
    mem::MemoryControllerParams mc;

    /**
     * Fault set of the modelled chip: dead/degraded nodes and failed
     * links. The default (empty) model is the healthy machine and
     * changes nothing. A non-empty model makes the mesh route around
     * failures, re-homes dead L2 banks, and slows degraded cores by
     * faults.degradeFactor(); construction is fatal if the surviving
     * mesh is disconnected or a corner MC node is dead.
     */
    fault::FaultModel faults;

    std::int64_t
    lineFlits() const
    {
        return static_cast<std::int64_t>(mem::kLineSize) / flitBytes;
    }
};

/** Where an access was satisfied. */
enum class AccessLevel : std::uint8_t
{
    L1,
    L2,
    Memory,
};

/**
 * Outcome of one walked access; everything pass 2 needs to price it
 * without re-running the caches. The engine keeps one per simulated
 * access, so it is packed: node ids in 16 bits (ManycoreSystem admits
 * only meshes of at most kMaxNodes nodes, so every id fits), and the
 * level, memory kind and DRAM coordinates in a byte each.
 */
struct AccessRecord
{
    /** Nodes a mesh may have: ids 0..kMaxNodes - 1 fit a PackedNode. */
    using PackedNode = std::int16_t;
    static constexpr std::int32_t kMaxNodes =
        std::numeric_limits<PackedNode>::max() + 1;

    mem::Addr addr = 0;
    PackedNode requester = noc::kInvalidNode;
    PackedNode home = noc::kInvalidNode; ///< home L2 bank node
    PackedNode mc = noc::kInvalidNode;   ///< servicing MC (Memory only)
    AccessLevel level = AccessLevel::L1;
    mem::MemoryKind memKind = mem::MemoryKind::Ddr;
    mem::DramCoord dram;
    bool isWrite = false;
};

static_assert(sizeof(AccessRecord) <= 24,
              "sim::AccessRecord outgrew 24 bytes");

/**
 * The machine model. Owns every cache/controller and the traffic
 * matrix; exposes the pass-1 access walk and the pass-2 latency
 * calculation.
 */
class ManycoreSystem
{
  public:
    /**
     * Build the machine of @p config. A mesh of more than
     * AccessRecord::kMaxNodes nodes is an ndp::fatal, raised before
     * anything is allocated.
     */
    explicit ManycoreSystem(const ManycoreConfig &config);

    const ManycoreConfig &config() const { return config_; }
    const noc::MeshTopology &mesh() const { return mesh_; }
    const mem::AddressMap &addressMap() const { return addrMap_; }
    mem::AddressMap &addressMap() { return addrMap_; }
    noc::TrafficMatrix &traffic() { return traffic_; }
    const noc::TrafficMatrix &traffic() const { return traffic_; }
    noc::NocModel &nocModel() { return noc_; }
    mem::MissPredictor &missPredictor() { return predictor_; }

    /** Arrays placed into MCDRAM in flat/hybrid memory mode. */
    void setMcdramArrays(std::unordered_set<ir::ArrayId> arrays);

    /** Backing memory of @p array under the current memory mode. */
    mem::MemoryKind memoryKindOf(ir::ArrayId array) const;

    /**
     * Pass 1: walk a read from @p node through L1 -> home L2 -> MC,
     * updating caches, the traffic matrix, MC queue load, and the L2
     * miss predictor. Returns the record pass 2 will price.
     */
    AccessRecord walkRead(noc::NodeId node, const MemAccess &access);

    /**
     * Pass 1: walk a (write-through) store: allocate in the local L1,
     * send the line to its home bank, allocate there.
     */
    AccessRecord walkWrite(noc::NodeId node, const MemAccess &access);

    /** Where warmRead() found a line, and its home bank. */
    struct CacheOutcome
    {
        AccessLevel level = AccessLevel::L1;
        /** Home L2 bank node; unset (kInvalidNode) on an L1 hit. */
        noc::NodeId home = noc::kInvalidNode;
    };

    /**
     * The part of walkRead() that outlives resetMeasurement(): the
     * L1, on a miss the home bank, and the miss predictor's training.
     * Records no traffic, MC load or AccessRecord, so a warm-up pass
     * calls it alone; walkRead() adds those on top.
     */
    CacheOutcome warmRead(noc::NodeId node, mem::Addr addr);

    /**
     * The part of walkWrite() that outlives resetMeasurement():
     * allocate the line in @p node's L1 and its home bank, which is
     * returned.
     */
    noc::NodeId warmWrite(noc::NodeId node, mem::Addr addr);

    /** Pass 1: account a task-result message from @p from to @p to. */
    void recordResultMessage(noc::NodeId from, noc::NodeId to,
                             std::int64_t bytes);

    /**
     * End of pass 1: freeze the recorded traffic into the per-pair
     * congestion table every pass-2 latency below reads.
     */
    void freezeTraffic();

    /**
     * Latency decomposition of one access, so the engine can scale or
     * zero the network component (ideal-network mode, Figure 18's S2).
     */
    struct LatencyParts
    {
        std::int64_t core = 0;    ///< L1 / L2 bank / pipeline cycles
        std::int64_t network = 0; ///< on-chip network cycles
        std::int64_t memory = 0;  ///< MC queue + DRAM cycles

        std::int64_t total() const { return core + network + memory; }
    };

    /**
     * Pass 2: cycles the requesting core stalls for @p record,
     * including congestion from the traffic frozen by freezeTraffic().
     */
    LatencyParts accessLatency(const AccessRecord &record);

    /** Pass 2: network latency of a result message (0 when local). */
    std::int64_t resultMessageLatency(noc::NodeId from, noc::NodeId to,
                                      std::int64_t bytes);

    /** Aggregated L1 statistics over all nodes. */
    mem::CacheStats l1Stats() const;
    /** Aggregated L2 statistics over all banks. */
    mem::CacheStats l2Stats() const;

    /** Clear caches/traffic/stats for a fresh run (keeps predictor). */
    void reset();

    /**
     * Clear statistics, traffic, and queue pressure but KEEP cache
     * contents (and the predictor): used after warm-up passes so
     * measurement covers one steady-state trip.
     */
    void resetMeasurement();

    /** Clear the (profile-trained) L2 miss predictor as well. */
    void resetPredictor();

  private:
    mem::MemoryController &mcAt(noc::NodeId node);

    ManycoreConfig config_;
    noc::MeshTopology mesh_;
    mem::AddressMap addrMap_;
    noc::TrafficMatrix traffic_;
    noc::NocModel noc_;
    mem::MissPredictor predictor_;
    std::vector<mem::SetAssocCache> l1s_;
    std::vector<mem::SetAssocCache> l2Banks_;
    std::vector<std::unique_ptr<mem::MemoryController>> mcs_; // 4 corners
    std::unordered_set<ir::ArrayId> mcdramArrays_;
};

} // namespace ndp::sim

#endif // NDP_SIM_MANYCORE_H
