#ifndef NDP_VERIFY_PLAN_VERIFIER_H
#define NDP_VERIFY_PLAN_VERIFIER_H

/**
 * @file
 * Static plan verification (translation validation for partition
 * plans): every ExecutionPlan the partitioner emits is checked against
 * an independent recomputation of the paper's invariants, using only
 * the recorded PlanProvenance, the machine description, and the IR —
 * never the planner's own intermediate state.
 *
 * Rule families (ids are "<family>.<check>", see DESIGN.md §9):
 *   R1 MST well-formedness: every recorded MST edge prices the real
 *      MeshTopology distance under the active fault epoch; the edge
 *      union spans the operand nodes and the store; flat statements
 *      additionally check the exact |V|-1 edge count and acyclicity.
 *   R2 Equation-1 consistency: the claimed movement equals the
 *      reference splitter's recomputation (plus priced load-balancer
 *      slides), kept splits beat the default placement, slide-free
 *      splits respect the naive all-to-store bound.
 *   R3 schedule legality: one record per statement instance, each
 *      naming the (iteration, statement) of its stream position, as
 *      do its tasks; tasks tile the plan contiguously, children
 *      precede parents and every merge waits on all of its children
 *      (sync points), exactly one task stores, every subcomputation
 *      reaches the root, deps are backward and duplicate-free, and —
 *      at Full — conflicting accesses (RAW/WAW) are ordered by the
 *      dependence graph (the static race check; WAR is intentionally
 *      exempt, mirroring the planner's bounded reader tracking).
 *   R4 window coherence: non-L1 locations sit at the datum's re-homed
 *      bank; at Full, every variable2node reuse edge points at a node
 *      the window replay proves fetched that line earlier, the pick is
 *      the deterministic nearest-to-store copy, and a reuse edge that
 *      crosses an overwrite of the datum is ordered after it.
 *   R5 fault legality: no task, sync endpoint, or reuse source on a
 *      dead node; edges priced at the healthy Manhattan distance under
 *      faults are flagged as unpriced detours; the provenance epoch
 *      must match the machine's fault signature.
 *   R6 cache replay identity: a SplitPlanCache hit must be
 *      bit-identical to the fresh reference split.
 */

#include "ir/statement.h"
#include "sim/manycore.h"
#include "sim/plan.h"
#include "verify/diagnostic.h"
#include "verify/provenance.h"

namespace ndp::verify {

/** Stateless checker; one instance can verify many plans. */
class PlanVerifier
{
  public:
    /**
     * @param system the machine the plan targets (mesh distances,
     *        fault set, address map); read-only
     * @param arrays the program's array table, from which the
     *        verifier resolves the nest's instance stream itself
     */
    PlanVerifier(const sim::ManycoreSystem &system,
                 const ir::ArrayTable &arrays);

    /**
     * Check @p plan (produced for @p nest) against @p prov. The
     * returned report's level echoes prov.level; at Off the report is
     * trivially clean.
     */
    Report verify(const ir::LoopNest &nest,
                  const sim::ExecutionPlan &plan,
                  const PlanProvenance &prov) const;

  private:
    const sim::ManycoreSystem *system_;
    const ir::ArrayTable *arrays_;
};

} // namespace ndp::verify

#endif // NDP_VERIFY_PLAN_VERIFIER_H
