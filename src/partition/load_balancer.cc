#include "partition/load_balancer.h"

#include <algorithm>

#include "support/error.h"

namespace ndp::partition {

LoadBalancer::LoadBalancer(std::int32_t node_count, double threshold)
    : load_(static_cast<std::size_t>(node_count), 0),
      available_(static_cast<std::size_t>(node_count), 1),
      threshold_(threshold)
{
    NDP_REQUIRE(node_count > 0, "balancer needs nodes");
    NDP_REQUIRE(threshold >= 0.0, "negative balance threshold");
}

void
LoadBalancer::markUnavailable(noc::NodeId node)
{
    NDP_CHECK(node >= 0 &&
                  static_cast<std::size_t>(node) < load_.size(),
              "bad node " << node);
    NDP_CHECK(load_[static_cast<std::size_t>(node)] == 0,
              "node " << node << " already holds load");
    available_[static_cast<std::size_t>(node)] = 0;
}

bool
LoadBalancer::isAvailable(noc::NodeId node) const
{
    NDP_CHECK(node >= 0 &&
                  static_cast<std::size_t>(node) < load_.size(),
              "bad node " << node);
    return available_[static_cast<std::size_t>(node)] != 0;
}

bool
LoadBalancer::accepts(noc::NodeId node, std::int64_t extra_cost) const
{
    NDP_CHECK(node >= 0 &&
                  static_cast<std::size_t>(node) < load_.size(),
              "bad node " << node);
    if (!available_[static_cast<std::size_t>(node)])
        return false;
    const std::int64_t mine =
        load_[static_cast<std::size_t>(node)] + extra_cost;
    const std::int64_t other_max = node == topNode_ ? second_ : top_;
    if (other_max == 0) {
        // Nothing has been scheduled elsewhere yet: accept a first
        // assignment, otherwise every node would veto every other.
        return load_[static_cast<std::size_t>(node)] == 0;
    }
    return static_cast<double>(mine) <=
           (1.0 + threshold_) * static_cast<double>(other_max);
}

void
LoadBalancer::add(noc::NodeId node, std::int64_t cost)
{
    NDP_CHECK(node >= 0 &&
                  static_cast<std::size_t>(node) < load_.size(),
              "bad node " << node);
    NDP_CHECK(available_[static_cast<std::size_t>(node)],
              "load committed to unavailable node " << node);
    NDP_CHECK(cost >= 0, "negative load " << cost);
    std::int64_t &load = load_[static_cast<std::size_t>(node)];
    if (inTrial_)
        journal_.push_back({node, load});
    const std::int64_t now = load += cost;
    if (node == topNode_) {
        top_ = now;
    } else if (now > top_) {
        second_ = top_;
        top_ = now;
        topNode_ = node;
    } else {
        second_ = std::max(second_, now);
    }
}

void
LoadBalancer::checkpoint()
{
    NDP_CHECK(!inTrial_, "balancer trial already open");
    inTrial_ = true;
    trialTop_ = top_;
    trialTopNode_ = topNode_;
    trialSecond_ = second_;
}

void
LoadBalancer::commit()
{
    NDP_CHECK(inTrial_, "no balancer trial to commit");
    inTrial_ = false;
    journal_.clear();
}

void
LoadBalancer::rollback()
{
    NDP_CHECK(inTrial_, "no balancer trial to roll back");
    // Newest first, so a node added twice ends at its oldest prior.
    for (auto it = journal_.rbegin(); it != journal_.rend(); ++it)
        load_[static_cast<std::size_t>(it->node)] = it->prior;
    top_ = trialTop_;
    topNode_ = trialTopNode_;
    second_ = trialSecond_;
    inTrial_ = false;
    journal_.clear();
}

std::int64_t
LoadBalancer::load(noc::NodeId node) const
{
    NDP_CHECK(node >= 0 &&
                  static_cast<std::size_t>(node) < load_.size(),
              "bad node " << node);
    return load_[static_cast<std::size_t>(node)];
}

std::int64_t
LoadBalancer::maxLoad() const
{
    return top_;
}

std::int64_t
LoadBalancer::totalLoad() const
{
    std::int64_t total = 0;
    for (std::int64_t l : load_)
        total += l;
    return total;
}

void
LoadBalancer::reset()
{
    std::fill(load_.begin(), load_.end(), 0);
    top_ = 0;
    topNode_ = noc::kInvalidNode;
    second_ = 0;
    inTrial_ = false;
    journal_.clear();
}

} // namespace ndp::partition
