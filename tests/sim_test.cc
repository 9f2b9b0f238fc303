/**
 * @file
 * Tests for the manycore model and the two-pass execution engine:
 * access walks through the hierarchy, latency decomposition, plan
 * execution, determinism, warm-up behaviour, the Figure 18 override
 * knobs, and the pass-2 scheduler's deterministic work counter.
 */

#include <gtest/gtest.h>

#include "driver/experiment.h"
#include "sim/energy.h"
#include "sim/engine.h"
#include "sim/manycore.h"
#include "support/error.h"
#include "workloads/workload.h"

#include "plan_lists.h"

namespace {

using namespace ndp;
using namespace ndp::sim;
using test::ListTask;
using test::pack;
using test::PlanLists;

class ManycoreTest : public ::testing::Test
{
  protected:
    ManycoreConfig config;
};

TEST_F(ManycoreTest, WalkReadLevels)
{
    ManycoreSystem system(config);
    const noc::NodeId node = 7;
    MemAccess access{0x4000, 64, 0};

    // Cold: L1 miss, L2 miss -> memory.
    const AccessRecord first = system.walkRead(node, access);
    EXPECT_EQ(first.level, AccessLevel::Memory);
    EXPECT_EQ(first.home,
              system.addressMap().homeBankNode(access.addr));
    EXPECT_EQ(first.mc,
              system.addressMap().memoryControllerNode(access.addr));

    // Immediately after: L1 hit at the same node.
    const AccessRecord second = system.walkRead(node, access);
    EXPECT_EQ(second.level, AccessLevel::L1);

    // From another node: the home bank now holds the line -> L2.
    const AccessRecord remote = system.walkRead(
        node == 0 ? 1 : 0, access);
    EXPECT_EQ(remote.level, AccessLevel::L2);
}

TEST_F(ManycoreTest, AccessLatencyDecomposition)
{
    ManycoreSystem system(config);
    AccessRecord l1;
    l1.level = AccessLevel::L1;
    l1.requester = 0;
    const auto parts = system.accessLatency(l1);
    EXPECT_EQ(parts.core, config.l1HitCycles);
    EXPECT_EQ(parts.network, 0);
    EXPECT_EQ(parts.memory, 0);

    AccessRecord local_l2;
    local_l2.level = AccessLevel::L2;
    local_l2.requester = 5;
    local_l2.home = 5; // same node: no network
    const auto local = system.accessLatency(local_l2);
    EXPECT_EQ(local.network, 0);
    EXPECT_EQ(local.core, config.l1HitCycles + config.l2BankCycles);

    AccessRecord remote_l2 = local_l2;
    remote_l2.home = 35;
    const auto remote = system.accessLatency(remote_l2);
    EXPECT_GT(remote.network, 0);
}

TEST_F(ManycoreTest, WriteIsPostedButMovesData)
{
    ManycoreSystem system(config);
    MemAccess access{0x8000, 64, 0};
    const std::int64_t before = system.traffic().totalFlitHops();
    const AccessRecord rec = system.walkWrite(3, access);
    EXPECT_TRUE(rec.isWrite);
    if (system.addressMap().homeBankNode(access.addr) != 3) {
        EXPECT_GT(system.traffic().totalFlitHops(), before);
    }
    EXPECT_EQ(system.accessLatency(rec).total(), config.l1HitCycles);
}

TEST_F(ManycoreTest, McdramArraysChangeMemoryKind)
{
    ManycoreSystem system(config); // flat mode
    system.setMcdramArrays({2});
    EXPECT_EQ(system.memoryKindOf(2), mem::MemoryKind::Mcdram);
    EXPECT_EQ(system.memoryKindOf(3), mem::MemoryKind::Ddr);
}

TEST_F(ManycoreTest, CacheModeForcesDdrBacking)
{
    config.memoryMode = mem::MemoryMode::Cache;
    ManycoreSystem system(config);
    system.setMcdramArrays({2});
    EXPECT_EQ(system.memoryKindOf(2), mem::MemoryKind::Ddr);
}

TEST_F(ManycoreTest, AccessRecordHoldsExtremeValues)
{
    // The packed record must carry the largest values a walk writes:
    // the top node of a 16x16 mesh, channel 3 / rank 3 / bank 7, a
    // memory access to MCDRAM, and the write flag.
    config.meshCols = 16;
    config.meshRows = 16;
    ManycoreSystem system(config); // flat mode
    system.setMcdramArrays({0});
    const noc::NodeId top = 255;
    const MemAccess access{(3u << 12) | (3u << 14) | (7u << 16), 8, 0};

    const AccessRecord read = system.walkRead(top, access);
    EXPECT_EQ(read.level, AccessLevel::Memory);
    EXPECT_EQ(read.addr, access.addr);
    EXPECT_EQ(noc::NodeId{read.requester}, top);
    EXPECT_EQ(noc::NodeId{read.home},
              system.addressMap().homeBankNode(access.addr));
    EXPECT_EQ(noc::NodeId{read.mc},
              system.addressMap().memoryControllerNode(access.addr));
    EXPECT_EQ(read.memKind, mem::MemoryKind::Mcdram);
    EXPECT_EQ(read.dram.channel, 3);
    EXPECT_EQ(read.dram.rank, 3);
    EXPECT_EQ(read.dram.bank, 7);
    EXPECT_FALSE(read.isWrite);

    const AccessRecord write = system.walkWrite(top, access);
    EXPECT_TRUE(write.isWrite);
    EXPECT_EQ(noc::NodeId{write.requester}, top);
    EXPECT_EQ(noc::NodeId{write.home},
              system.addressMap().homeBankNode(access.addr));

    // The largest id an admitted mesh has survives the packing.
    AccessRecord rec;
    rec.home = static_cast<AccessRecord::PackedNode>(
        AccessRecord::kMaxNodes - 1);
    EXPECT_EQ(noc::NodeId{rec.home}, AccessRecord::kMaxNodes - 1);
}

TEST_F(ManycoreTest, RejectsAMeshWhoseNodeIdsDoNotFit16Bits)
{
    config.meshCols = 200;
    config.meshRows = 200;
    try {
        ManycoreSystem system(config);
        FAIL() << "a 40000-node mesh was admitted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("40000 nodes"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(ManycoreTest, ResetKeepsPredictorClearsCaches)
{
    ManycoreSystem system(config);
    MemAccess access{0x4000, 64, 0};
    system.walkRead(0, access);
    system.walkRead(0, access);
    const std::int64_t preds = system.missPredictor().predictions();
    EXPECT_GT(preds, 0);
    system.reset();
    EXPECT_EQ(system.l1Stats().accesses(), 0);
    EXPECT_EQ(system.missPredictor().predictions(), preds);
    system.resetPredictor();
    EXPECT_EQ(system.missPredictor().predictions(), 0);
}

// --------------------------------------------------------------- engine

/** Helpers to hand-build small plans; @p id is also the iteration. */
ListTask
makeTask(TaskId id, noc::NodeId node, std::int64_t cost = 1)
{
    ListTask t;
    t.node = node;
    t.computeCost = cost;
    t.statementIndex = 0;
    t.iterationNumber = id;
    return t;
}

class EngineTest : public ::testing::Test
{
  protected:
    ManycoreConfig config;
};

TEST_F(EngineTest, SingleTaskMakespan)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    PlanLists plan;
    plan.tasks.push_back(makeTask(0, 3, 2));
    const SimResult result = engine.run(pack(plan));
    EXPECT_EQ(result.taskCount, 1);
    EXPECT_EQ(result.makespanCycles,
              config.perTaskOverheadCycles +
                  2 * config.computeCyclesPerOpUnit);
    EXPECT_EQ(result.syncCount, 0);
}

TEST_F(EngineTest, IndependentTasksRunInParallel)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    PlanLists plan;
    for (TaskId i = 0; i < 8; ++i)
        plan.tasks.push_back(makeTask(i, i, 4));
    const SimResult serial_work = engine.run(pack(plan));
    // Eight independent tasks on eight nodes: makespan = one task.
    EXPECT_EQ(serial_work.makespanCycles,
              config.perTaskOverheadCycles +
                  4 * config.computeCyclesPerOpUnit);
    EXPECT_EQ(serial_work.totalBusyCycles,
              8 * serial_work.makespanCycles);
}

TEST_F(EngineTest, SameNodeTasksSerialize)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    PlanLists plan;
    for (TaskId i = 0; i < 4; ++i)
        plan.tasks.push_back(makeTask(i, 9, 1));
    const SimResult result = engine.run(pack(plan));
    EXPECT_EQ(result.makespanCycles, 4 * (config.perTaskOverheadCycles +
                                          config.computeCyclesPerOpUnit));
}

TEST_F(EngineTest, CrossNodeDependencyAddsSyncAndMessage)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    PlanLists plan;
    plan.tasks.push_back(makeTask(0, 0, 1));
    ListTask consumer = makeTask(1, 35, 1);
    consumer.deps.push_back(0);
    plan.tasks.push_back(consumer);
    const SimResult result = engine.run(pack(plan));
    EXPECT_EQ(result.syncCount, 1);
    EXPECT_GT(result.syncWaitCycles, 0);
    // Makespan exceeds two serial tasks by the message+sync time.
    EXPECT_GT(result.makespanCycles,
              2 * (config.perTaskOverheadCycles +
                   config.computeCyclesPerOpUnit));
}

TEST_F(EngineTest, SameNodeDependencyNeedsNoSync)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    PlanLists plan;
    plan.tasks.push_back(makeTask(0, 4, 1));
    ListTask consumer = makeTask(1, 4, 1);
    consumer.deps.push_back(0);
    plan.tasks.push_back(consumer);
    const SimResult result = engine.run(pack(plan));
    EXPECT_EQ(result.syncCount, 0);
}

TEST_F(EngineTest, ReadyListFillsWaitGaps)
{
    // One consumer waits on a remote producer; an unrelated task on
    // the consumer's node fills the gap, so makespan is less than the
    // naive serial order.
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    PlanLists plan;
    plan.tasks.push_back(makeTask(0, 0, 30)); // slow producer
    ListTask consumer = makeTask(1, 10, 1);
    consumer.deps.push_back(0);
    plan.tasks.push_back(consumer);
    plan.tasks.push_back(makeTask(2, 10, 30)); // filler on node 10
    const SimResult result = engine.run(pack(plan));
    const std::int64_t producer_time =
        config.perTaskOverheadCycles + 30 * config.computeCyclesPerOpUnit;
    // The filler overlaps the producer, so the makespan is well under
    // producer + filler + consumer run back to back.
    EXPECT_LT(result.makespanCycles,
              2 * producer_time +
                  (config.perTaskOverheadCycles +
                   config.computeCyclesPerOpUnit));
}

TEST_F(EngineTest, DeterministicAcrossRuns)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    PlanLists plan;
    for (TaskId i = 0; i < 40; ++i) {
        ListTask t = makeTask(i, i % 36, 1 + i % 5);
        t.reads.push_back({static_cast<mem::Addr>(0x1000 + 64 * i), 64, 0});
        if (i > 0 && i % 3 == 0)
            t.deps.push_back(i - 1);
        plan.tasks.push_back(t);
    }
    const SimResult a = engine.run(pack(plan));
    const SimResult b = engine.run(pack(plan));
    EXPECT_EQ(a.makespanCycles, b.makespanCycles);
    EXPECT_EQ(a.dataMovementFlitHops, b.dataMovementFlitHops);
    EXPECT_EQ(a.l1.hits, b.l1.hits);
    EXPECT_EQ(a.energy.total(), b.energy.total());
}

TEST_F(EngineTest, WarmupRaisesHitRates)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    PlanLists plan;
    for (TaskId i = 0; i < 64; ++i) {
        ListTask t = makeTask(i, i % 36, 1);
        t.reads.push_back({static_cast<mem::Addr>(0x10000 + 64 * i), 64, 0});
        plan.tasks.push_back(t);
    }
    EngineOptions cold;
    cold.warmupPasses = 0;
    EngineOptions warm;
    warm.warmupPasses = 1;
    const SimResult cold_run = engine.run(pack(plan), cold);
    const SimResult warm_run = engine.run(pack(plan), warm);
    // After the warm-up trip every line is resident in its reader's
    // L1, so the measured trip hits where the cold trip missed.
    EXPECT_GT(warm_run.l1.hitRate(), cold_run.l1.hitRate());
    EXPECT_LE(warm_run.makespanCycles, cold_run.makespanCycles);
}

TEST_F(EngineTest, IdealNetworkRemovesNetworkStalls)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    PlanLists plan;
    for (TaskId i = 0; i < 32; ++i) {
        ListTask t = makeTask(i, i % 36, 1);
        t.reads.push_back({static_cast<mem::Addr>(0x20000 + 64 * i), 64, 0});
        plan.tasks.push_back(t);
    }
    EngineOptions ideal;
    ideal.idealNetwork = true;
    const SimResult real = engine.run(pack(plan));
    const SimResult zero = engine.run(pack(plan), ideal);
    EXPECT_EQ(zero.networkStallCycles, 0);
    EXPECT_LE(zero.makespanCycles, real.makespanCycles);
}

TEST_F(EngineTest, L1OverrideMovesHitRateTowardTarget)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    PlanLists plan;
    // Reads with zero reuse: natural L1 hit rate ~ 0.
    for (TaskId i = 0; i < 128; ++i) {
        ListTask t = makeTask(i, i % 36, 1);
        t.reads.push_back({static_cast<mem::Addr>(0x40000 + 64 * i), 64, 0});
        plan.tasks.push_back(t);
    }
    EngineOptions natural;
    natural.warmupPasses = 0; // cold: natural L1 hit rate ~ 0
    const SimResult base = engine.run(pack(plan), natural);
    EngineOptions forced;
    forced.warmupPasses = 0;
    forced.l1HitRateOverride = 0.9;
    const SimResult boosted = engine.run(pack(plan), forced);
    // Higher effective hit rate shows as fewer network stalls.
    EXPECT_LT(boosted.networkStallCycles, base.networkStallCycles);
}

TEST_F(EngineTest, ExtraSyncsPenalizeMakespan)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    PlanLists plan;
    plan.tasks.push_back(makeTask(0, 0, 1));
    const SimResult base = engine.run(pack(plan));
    EngineOptions opts;
    opts.extraSyncs = 3600;
    const SimResult penalized = engine.run(pack(plan), opts);
    EXPECT_GT(penalized.makespanCycles, base.makespanCycles);
    EXPECT_EQ(penalized.syncCount, base.syncCount + 3600);
}

TEST_F(EngineTest, ParallelismSpeedupCutsCompute)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    PlanLists plan;
    plan.tasks.push_back(makeTask(0, 0, 100));
    EngineOptions opts;
    opts.parallelismSpeedup = 2.0;
    const SimResult fast = engine.run(pack(plan), opts);
    const SimResult slow = engine.run(pack(plan));
    EXPECT_LT(fast.computeCycles, slow.computeCycles);
}

TEST_F(EngineTest, RejectsForwardDependencies)
{
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    PlanLists plan;
    ListTask t = makeTask(0, 0, 1);
    t.deps.push_back(5); // dep on a later (nonexistent-yet) task
    plan.tasks.push_back(t);
    EXPECT_THROW(engine.run(pack(plan)), PanicError);
}

TEST_F(EngineTest, RejectsSelfDependenceByName)
{
    // A task that waits on itself fails the dep-order check by name,
    // not later as an anonymous dependence cycle.
    ManycoreSystem system(config);
    ExecutionEngine engine(system);
    PlanLists plan;
    ListTask t = makeTask(0, 0, 1);
    t.deps.push_back(0);
    plan.tasks.push_back(t);
    try {
        engine.run(pack(plan));
        FAIL() << "a self-dependent task ran";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("does not precede task 0"),
                  std::string::npos)
            << e.what();
    }
}

// --------------------------------------------------------------- energy

TEST(EnergyTest, ComponentsScaleWithEvents)
{
    EnergyParams params;
    EnergyEvents events;
    events.opUnits = 100;
    events.l1Accesses = 50;
    events.flitHops = 200;
    events.ddrAccesses = 10;
    events.syncs = 5;
    events.nodeCount = 36;
    events.makespanCycles = 1000;
    const EnergyBreakdown e = computeEnergy(events, params);
    EXPECT_DOUBLE_EQ(e.compute, 100 * params.aluPerOpUnit);
    EXPECT_DOUBLE_EQ(e.network, 200 * params.linkPerFlitHop);
    EXPECT_DOUBLE_EQ(e.memory, 10 * params.ddrAccess);
    EXPECT_DOUBLE_EQ(e.staticLeakage,
                     36 * 1000 * params.staticPerNodeCycle);
    EXPECT_GT(e.total(), 0.0);

    EnergyEvents doubled = events;
    doubled.flitHops *= 2;
    EXPECT_GT(computeEnergy(doubled, params).total(), e.total());
}

TEST(EnergyTest, ZeroEventsZeroEnergy)
{
    EXPECT_DOUBLE_EQ(computeEnergy({}, {}).total(), 0.0);
}

TEST(SchedulerWorkTest, PopsPerTaskBoundedOnAllApps)
{
    // Pass 2 queues each task once: one pop to run it, at most one
    // more to move it from the future queue to the due queue, plus the
    // node-head pops. The counter is deterministic, so this gates the
    // scheduler's work, not the clock. Plan selection is off so every
    // optimized plan's own run is observed.
    workloads::WorkloadFactory factory(256);
    driver::ExperimentConfig config;
    config.planSelection = false;
    const driver::ExperimentRunner runner(config);
    std::int64_t runs = 0;
    for (const workloads::Workload &app : factory.buildAll()) {
        for (const driver::NestResult &nest : runner.runApp(app).nests) {
            for (const SimResult *run :
                 {&nest.defaultRun, &nest.optimizedRun}) {
                ASSERT_GT(run->taskCount, 0) << app.name << "/" << nest.nest;
                EXPECT_LE(run->schedulerPops, 3 * run->taskCount)
                    << app.name << "/" << nest.nest << ": "
                    << run->schedulerPops << " pops for "
                    << run->taskCount << " tasks";
                ++runs;
            }
        }
    }
    EXPECT_GE(runs, 24);
}

} // namespace
