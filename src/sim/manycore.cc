#include "sim/manycore.h"

#include <algorithm>

#include "support/error.h"

namespace ndp::sim {

namespace {

/** @p config, whose mesh must fit an AccessRecord's node ids. */
const ManycoreConfig &
admitted(const ManycoreConfig &config)
{
    const std::int64_t nodes = static_cast<std::int64_t>(config.meshCols) *
                               config.meshRows;
    NDP_REQUIRE(nodes <= AccessRecord::kMaxNodes,
                "a " << config.meshCols << "x" << config.meshRows
                     << " mesh has " << nodes
                     << " nodes; access records hold 16-bit node ids, "
                        "so a mesh has at most "
                     << AccessRecord::kMaxNodes);
    return config;
}

/** @p node as an AccessRecord holds it; admitted() made it fit. */
AccessRecord::PackedNode
packed(noc::NodeId node)
{
    return static_cast<AccessRecord::PackedNode>(node);
}

} // namespace

ManycoreSystem::ManycoreSystem(const ManycoreConfig &config)
    : config_(admitted(config)),
      mesh_(config.meshCols, config.meshRows, config.torus,
            config.faults),
      addrMap_(mesh_, config.clusterMode),
      traffic_(mesh_),
      noc_(mesh_, config.noc)
{
    l1s_.reserve(static_cast<std::size_t>(mesh_.nodeCount()));
    l2Banks_.reserve(static_cast<std::size_t>(mesh_.nodeCount()));
    for (noc::NodeId n = 0; n < mesh_.nodeCount(); ++n) {
        l1s_.emplace_back(config.l1Bytes, config.l1Ways);
        l2Banks_.emplace_back(config.l2BankBytes, config.l2Ways);
    }
    for (noc::NodeId mc_node : mesh_.memoryControllerNodes()) {
        mcs_.push_back(std::make_unique<mem::MemoryController>(
            mc_node, config.memoryMode, config.mc));
    }
}

void
ManycoreSystem::setMcdramArrays(std::unordered_set<ir::ArrayId> arrays)
{
    mcdramArrays_ = std::move(arrays);
}

mem::MemoryKind
ManycoreSystem::memoryKindOf(ir::ArrayId array) const
{
    switch (config_.memoryMode) {
      case mem::MemoryMode::Cache:
        // Everything is DDR-backed behind the MCDRAM-side cache.
        return mem::MemoryKind::Ddr;
      case mem::MemoryMode::Flat:
      case mem::MemoryMode::Hybrid:
        return mcdramArrays_.count(array) != 0 ? mem::MemoryKind::Mcdram
                                               : mem::MemoryKind::Ddr;
    }
    return mem::MemoryKind::Ddr;
}

mem::MemoryController &
ManycoreSystem::mcAt(noc::NodeId node)
{
    for (auto &mc : mcs_) {
        if (mc->node() == node)
            return *mc;
    }
    ndp::panic("no memory controller at node " + std::to_string(node));
}

AccessRecord
ManycoreSystem::recordOf(noc::NodeId node, const MemAccess &access,
                         bool write) const
{
    AccessRecord rec;
    rec.addr = access.addr;
    rec.requester = packed(node);
    rec.home = packed(addrMap_.homeBankNode(access.addr));
    // A store allocates locally and writes through to its home bank
    // (the store node of Section 4.3 keeps the output at its home).
    rec.level = write ? AccessLevel::L2 : AccessLevel::L1;
    rec.isWrite = write;
    return rec;
}

AccessLevel
ManycoreSystem::cacheStep(const AccessRecord &rec)
{
    const bool l1_hit =
        l1s_[static_cast<std::size_t>(rec.requester)].access(rec.addr);
    if (rec.isWrite) {
        l2Banks_[static_cast<std::size_t>(rec.home)].access(rec.addr);
        return AccessLevel::L2;
    }
    if (l1_hit)
        return AccessLevel::L1;
    const bool l2_hit =
        l2Banks_[static_cast<std::size_t>(rec.home)].access(rec.addr);
    predictor_.update(rec.addr, l2_hit);
    return l2_hit ? AccessLevel::L2 : AccessLevel::Memory;
}

ManycoreSystem::AccessTally &
ManycoreSystem::AccessTally::operator+=(const AccessTally &other)
{
    for (std::size_t mc = 0; mc < mcLoad.size(); ++mc)
        mcLoad[mc] += other.mcLoad[mc];
    mcdramAccesses += other.mcdramAccesses;
    ddrAccesses += other.ddrAccesses;
    return *this;
}

void
ManycoreSystem::completeRecord(AccessRecord &rec, const MemAccess &access,
                               noc::TrafficMatrix &traffic,
                               AccessTally &tally) const
{
    const noc::NodeId node = rec.requester;
    const noc::NodeId home = rec.home;
    if (rec.isWrite) {
        const std::int64_t flits =
            std::max<std::int64_t>(1, access.size / config_.flitBytes);
        if (node != home)
            traffic.addMessage(node, home, flits);
        return;
    }
    if (rec.level == AccessLevel::L1)
        return;

    // L1 miss: request to the home bank (1), data back (5) — Figure 1.
    traffic.addMessage(node, home, 1); // request flit
    if (rec.level == AccessLevel::L2) {
        traffic.addMessage(home, node, config_.lineFlits());
        return;
    }

    // L2 miss: home bank forwards to the MC (2,3); data returns to the
    // home bank (4) and then the requester's L1.
    const std::uint32_t mc_index = addrMap_.memoryControllerIndex(rec.addr);
    const noc::NodeId mc = mesh_.memoryControllerNodes()[mc_index];
    rec.mc = packed(mc);
    rec.memKind = memoryKindOf(access.array);
    rec.dram = addrMap_.dramCoord(rec.addr);
    ++(rec.memKind == mem::MemoryKind::Mcdram ? tally.mcdramAccesses
                                              : tally.ddrAccesses);
    traffic.addMessage(home, mc, 1);
    ++tally.mcLoad[mc_index];
    // Critical-word-first: the MC sends the data directly to the
    // requester; the home-bank fill travels as a separate copy off the
    // critical path.
    traffic.addMessage(mc, node, config_.lineFlits());
    traffic.addMessage(mc, home, config_.lineFlits());
}

void
ManycoreSystem::recordTally(const AccessTally &tally)
{
    for (std::size_t mc = 0; mc < tally.mcLoad.size(); ++mc) {
        mcAt(mesh_.memoryControllerNodes()[mc])
            .recordAccess(tally.mcLoad[mc]);
    }
}

void
ManycoreSystem::recordResultMessage(noc::NodeId from, noc::NodeId to,
                                    std::int64_t bytes,
                                    noc::TrafficMatrix &traffic) const
{
    if (from == to)
        return;
    const std::int64_t flits =
        std::max<std::int64_t>(1, bytes / config_.flitBytes);
    traffic.addMessage(from, to, flits);
}

void
ManycoreSystem::freezeTraffic()
{
    noc_.freezeCongestion(traffic_);
}

ManycoreSystem::LatencyParts
ManycoreSystem::accessLatency(const AccessRecord &rec)
{
    LatencyParts parts;
    if (rec.isWrite) {
        // Posted write: the core only pays the L1 fill; the line
        // travels to its home bank off the critical path (its traffic
        // still contributes to congestion).
        parts.core = config_.l1HitCycles;
        return parts;
    }
    switch (rec.level) {
      case AccessLevel::L1:
        parts.core = config_.l1HitCycles;
        return parts;
      case AccessLevel::L2:
        parts.core = config_.l1HitCycles + config_.l2BankCycles;
        parts.network =
            noc_.messageLatency(rec.requester, rec.home, 1) +
            noc_.messageLatency(rec.home, rec.requester,
                                config_.lineFlits());
        return parts;
      case AccessLevel::Memory:
        parts.core = config_.l1HitCycles + config_.l2BankCycles;
        parts.network =
            noc_.messageLatency(rec.requester, rec.home, 1) +
            noc_.messageLatency(rec.home, rec.mc, 1) +
            noc_.messageLatency(rec.mc, rec.requester,
                                config_.lineFlits());
        parts.memory = mcAt(rec.mc).serviceLatency(rec.addr, rec.memKind,
                                                   rec.dram);
        return parts;
    }
    ndp::panic("unreachable access level");
}

std::int64_t
ManycoreSystem::resultMessageLatency(noc::NodeId from, noc::NodeId to,
                                     std::int64_t bytes)
{
    if (from == to)
        return 0;
    const std::int64_t flits =
        std::max<std::int64_t>(1, bytes / config_.flitBytes);
    return noc_.messageLatency(from, to, flits);
}

mem::CacheStats
ManycoreSystem::l1Stats() const
{
    mem::CacheStats total;
    for (const auto &l1 : l1s_) {
        total.hits += l1.stats().hits;
        total.misses += l1.stats().misses;
    }
    return total;
}

mem::CacheStats
ManycoreSystem::l2Stats() const
{
    mem::CacheStats total;
    for (const auto &bank : l2Banks_) {
        total.hits += bank.stats().hits;
        total.misses += bank.stats().misses;
    }
    return total;
}

void
ManycoreSystem::reset()
{
    for (auto &l1 : l1s_)
        l1.flush();
    for (auto &bank : l2Banks_)
        bank.flush();
    resetMeasurement();
    // Note: the miss predictor is deliberately NOT reset here — it is
    // the compiler's profile-trained state and must survive across the
    // baseline/optimized simulation runs. Use resetPredictor().
}

void
ManycoreSystem::resetMeasurement()
{
    for (auto &l1 : l1s_)
        l1.resetStats();
    for (auto &bank : l2Banks_)
        bank.resetStats();
    for (auto &mc : mcs_)
        mc->reset();
    traffic_.reset();
    noc_.resetStats();
    noc_.clearCongestion();
}

void
ManycoreSystem::resetPredictor()
{
    predictor_.reset();
}

} // namespace ndp::sim
