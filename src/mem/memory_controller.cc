#include "mem/memory_controller.h"

#include "support/error.h"

namespace ndp::mem {

MemoryController::MemoryController(noc::NodeId node, MemoryMode mode,
                                   MemoryControllerParams params)
    : node_(node), mode_(mode), params_(params)
{
    if (mode_ == MemoryMode::Cache || mode_ == MemoryMode::Hybrid) {
        std::uint64_t bytes = params_.mcdramCacheBytes;
        if (mode_ == MemoryMode::Hybrid)
            bytes /= 2; // 50%-50% split, matching Section 6.7
        sideCache_ = std::make_unique<SetAssocCache>(bytes, /*ways=*/1);
    }
}

void
MemoryController::recordAccess(std::int64_t count)
{
    recordedLoad_ += count;
}

std::int64_t
MemoryController::queueDelay() const
{
    return params_.queueCyclesPerLoad *
           (recordedLoad_ / params_.queueLoadUnit);
}

std::int64_t
MemoryController::serviceLatency(Addr a, MemoryKind kind,
                                 const DramCoord &coord)
{
    ++serviced_;
    std::int64_t latency = queueDelay();

    // In cache mode everything lives behind the MCDRAM-side cache; in
    // hybrid mode only DDR-backed data does (MCDRAM-flat data bypasses).
    const bool behind_side_cache =
        sideCache_ && (mode_ == MemoryMode::Cache || kind == MemoryKind::Ddr);
    if (behind_side_cache) {
        if (sideCache_->access(a))
            return latency + params_.mcdramLatency;
        latency += params_.mcdramLatency; // probe + fill cost
        kind = MemoryKind::Ddr;
    }

    latency += (kind == MemoryKind::Mcdram) ? params_.mcdramLatency
                                            : params_.ddrLatency;

    const std::uint64_t bank_key =
        (static_cast<std::uint64_t>(coord.rank) << 3) | coord.bank;
    if (lastBankKey_ && *lastBankKey_ == bank_key)
        latency += params_.bankConflictPenalty;
    lastBankKey_ = bank_key;
    return latency;
}

const CacheStats *
MemoryController::sideCacheStats() const
{
    return sideCache_ ? &sideCache_->stats() : nullptr;
}

void
MemoryController::reset()
{
    serviced_ = 0;
    lastBankKey_.reset();
    if (sideCache_) {
        sideCache_->flush();
        sideCache_->resetStats();
    }
    recordedLoad_ = 0;
}

} // namespace ndp::mem
