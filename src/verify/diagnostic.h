#ifndef NDP_VERIFY_DIAGNOSTIC_H
#define NDP_VERIFY_DIAGNOSTIC_H

/**
 * @file
 * Structured diagnostics of the static plan verifier. Every finding
 * carries a stable rule id ("R1.edge-weight", "R5.task-on-dead", ...),
 * a severity, and the (statement, iteration, task, node) location it
 * anchors to, so mutation tests can assert the exact rule that fired
 * and CI can machine-read the JSON rendering.
 *
 * Rule families (see DESIGN.md §9 for the paper anchors):
 *   R1  MST well-formedness        (Section 3 / Algorithm 1)
 *   R2  Equation-1 cost consistency
 *   R3  schedule legality          (Section 4.3/4.5)
 *   R4  window/reuse coherence     (variable2node, Section 4.4)
 *   R5  fault legality             (PR 4's degraded machines)
 *   R6  split-plan cache replay identity
 */

#include <cstdint>
#include <string>
#include <vector>

#include "noc/coord.h"
#include "sim/plan.h"
#include "verify/verify_level.h"

namespace ndp::verify {

enum class Severity
{
    Warning,
    Error,
};

const char *toString(Severity severity);

/** One finding of the verifier. */
struct Diagnostic
{
    /** Stable rule id, e.g. "R1.edge-weight". */
    std::string rule;
    Severity severity = Severity::Error;
    /** Static statement the finding anchors to (-1 = plan-wide). */
    std::int32_t statementIndex = -1;
    /** Iteration of that statement (-1 = plan-wide). */
    std::int64_t iterationNumber = -1;
    /** Offending task (kInvalidTask when not task-specific). */
    sim::TaskId task = sim::kInvalidTask;
    /** Offending mesh node (kInvalidNode when not node-specific). */
    noc::NodeId node = noc::kInvalidNode;
    /** One-line human explanation. */
    std::string message;
};

/**
 * Severity tallies of one or many verification reports. Carried up the
 * stack (NestResult::verify -> AppResult -> SweepStats) so every summary
 * can say how many plans were proven clean.
 */
struct ReportCounts
{
    /** Statement instances whose records were checked. */
    std::int64_t plansVerified = 0;
    /** Of those, splits replayed from the split-plan cache (R6's
     *  subjects at Full). */
    std::int64_t replaysVerified = 0;
    std::int64_t warnings = 0;
    std::int64_t errors = 0;

    bool
    clean() const
    {
        return warnings == 0 && errors == 0;
    }

    std::int64_t
    total() const
    {
        return warnings + errors;
    }

    void
    merge(const ReportCounts &other)
    {
        plansVerified += other.plansVerified;
        replaysVerified += other.replaysVerified;
        warnings += other.warnings;
        errors += other.errors;
    }
};

/** All diagnostics of one verified plan. */
class Report
{
  public:
    /** Stored diagnostics are capped; counts() stays exact. */
    static constexpr std::size_t kMaxStored = 200;

    std::string plan;
    VerifyLevel level = VerifyLevel::Off;

    void add(Diagnostic diag);

    const std::vector<Diagnostic> &diagnostics() const { return diags_; }
    const ReportCounts &counts() const { return counts_; }
    ReportCounts &counts() { return counts_; }

    bool clean() const { return counts_.clean(); }

    /** Fixed-width diagnostic table (empty string when clean). */
    std::string renderTable() const;

    /** Machine-readable JSON object (always non-empty). */
    std::string renderJson() const;

  private:
    std::vector<Diagnostic> diags_;
    ReportCounts counts_;
};

} // namespace ndp::verify

#endif // NDP_VERIFY_DIAGNOSTIC_H
