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

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "noc/coord.h"
#include "noc/mesh_topology.h"

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
 * The nodes holding one line in their L1s: a node bitset of
 * ceil(nodes / 64) words. Iterates in ascending node id.
 */
class CopySet
{
  public:
    class Iterator
    {
      public:
        Iterator(const std::uint64_t *words, std::size_t count,
                 std::size_t at)
            : words_(words), count_(count), at_(at),
              bits_(at < count ? words[at] : 0)
        {
            skipEmpty();
        }

        noc::NodeId
        operator*() const
        {
            return static_cast<noc::NodeId>(64 * at_ +
                                            std::countr_zero(bits_));
        }

        Iterator &
        operator++()
        {
            bits_ &= bits_ - 1;
            skipEmpty();
            return *this;
        }

        bool operator!=(const Iterator &other) const
        {
            return at_ != other.at_ || bits_ != other.bits_;
        }

      private:
        void
        skipEmpty()
        {
            while (bits_ == 0 && at_ < count_ && ++at_ < count_)
                bits_ = words_[at_];
        }

        const std::uint64_t *words_;
        std::size_t count_;
        std::size_t at_;
        std::uint64_t bits_;
    };

    CopySet() = default;
    CopySet(const std::uint64_t *words, std::size_t count)
        : words_(words), count_(count)
    {}

    bool
    empty() const
    {
        for (std::size_t w = 0; w < count_; ++w) {
            if (words_[w] != 0)
                return false;
        }
        return true;
    }

    bool
    contains(noc::NodeId node) const
    {
        const auto n = static_cast<std::size_t>(node);
        return n / 64 < count_ && ((words_[n / 64] >> (n % 64)) & 1) != 0;
    }

    Iterator begin() const { return {words_, count_, 0}; }
    Iterator end() const { return {words_, count_, count_}; }

  private:
    const std::uint64_t *words_ = nullptr;
    std::size_t count_ = 0;
};

/**
 * The compiler-maintained variable2node map (Algorithm 1 line 34):
 * which nodes will hold each line in their L1s because of
 * already-scheduled subcomputations in the current window.
 *
 * Keyed by the dense line ids of a nest's instance stream
 * (ir::InstanceStream::lineOf), and sized to its lineCount at
 * construction: the planner and the verifier each build one over the
 * stream they resolved. Each line has a node bitset stamped with the
 * window epoch, so clear() bumps the epoch and resets only the node
 * FIFOs the window touched, and a map reused window after window,
 * candidate after candidate, allocates nothing once its node FIFOs
 * have grown.
 */
class VariableToNodeMap
{
  public:
    /**
     * @param node_count mesh nodes; every node id added is below it
     * @param per_node_capacity how many distinct lines one node's L1 is
     *        trusted to retain within a window; 0 = unlimited. A finite
     *        capacity models the L1 pollution that makes very large
     *        windows counter-productive (Section 4.4): once a node's
     *        budget overflows, its oldest recorded copy is dropped.
     * @param line_count the stream's line count; every line id added
     *        is below it
     */
    VariableToNodeMap(std::int32_t node_count,
                      std::size_t per_node_capacity, std::size_t line_count);

    /**
     * Record that @p node's L1 will hold line @p line. True when the
     * copy is new (accepted); false when the node already holds it. A
     * line id at or past the line count is an internal error.
     */
    bool add(std::uint32_t line, noc::NodeId node);

    /** The nodes holding @p line (empty if none). */
    CopySet
    copies(std::uint32_t line) const
    {
        if (line >= stamp_.size() || stamp_[line] != epoch_)
            return {};
        return {bits_.data() + static_cast<std::size_t>(line) * words_,
                words_};
    }

    /** Forget every copy and the insertion count: a fresh window. */
    void clear();

    /** Number of accepted add() calls since construction or clear(). */
    std::int64_t insertionCount() const { return inserts_; }

  private:
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

    std::size_t words_;
    std::size_t capacity_;
    std::int64_t inserts_ = 0;
    /** The current window; a line stamped otherwise has no copies. */
    std::uint32_t epoch_ = 1;
    std::vector<std::uint32_t> stamp_;
    /** words_ bitset words per line. */
    std::vector<std::uint64_t> bits_;
    /**
     * Per-node FIFO of the line ids recorded for it (oldest first);
     * clear() empties only the nodes listed in fifoNodes_.
     */
    std::vector<LineFifo> fifo_;
    std::vector<noc::NodeId> fifoNodes_;
};

/**
 * The L1 copy to use among non-empty @p copies (the window map's nodes
 * for a line): the one nearest @p prefer_near, typically the store
 * node of the statement being split, ties toward the lower node id.
 */
Location nearestCopy(const noc::MeshTopology &mesh, const CopySet &copies,
                     noc::NodeId prefer_near);

} // namespace ndp::partition

#endif // NDP_PARTITION_DATA_LOCATOR_H
