#ifndef NDP_NDP_H
#define NDP_NDP_H

/**
 * @file
 * Umbrella header for the NDP computation-partitioning library — a
 * reproduction of Tang et al., "Data Movement Aware Computation
 * Partitioning" (MICRO-50, 2017).
 *
 * Layer map (each usable independently):
 *
 *   ndp::noc        — 2D-mesh topology, XY routing, traffic/latency
 *   ndp::mem        — SNUCA address mapping, caches, MCs, predictor
 *   ndp::ir         — loop-nest IR, kernel parser, nested variable sets
 *   ndp::sim        — the modelled manycore + two-pass engine
 *   ndp::partition  — THE PAPER'S CONTRIBUTION: data location,
 *                     MST-based statement splitting and window-based
 *                     subcomputation scheduling (Algorithm 1)
 *   ndp::baseline   — the profile-guided default placement and the
 *                     data-to-MC page mapping it is compared against
 *   ndp::workloads  — the 12 synthetic Splash-2/Mantevo stand-ins
 *   ndp::driver     — experiment orchestration for the paper's
 *                     tables and figures
 *
 * Quick start: see examples/quickstart.cpp.
 */

#include "baseline/data_to_mc.h"
#include "baseline/default_placement.h"
#include "driver/experiment.h"
#include "ir/instance.h"
#include "ir/nested_sets.h"
#include "ir/parser.h"
#include "mem/address_mapping.h"
#include "mem/cache.h"
#include "mem/memory_controller.h"
#include "mem/miss_predictor.h"
#include "noc/mesh_topology.h"
#include "noc/noc_model.h"
#include "noc/traffic_matrix.h"
#include "partition/codegen.h"
#include "partition/data_locator.h"
#include "partition/load_balancer.h"
#include "partition/partitioner.h"
#include "partition/splitter.h"
#include "partition/sync_graph.h"
#include "sim/energy.h"
#include "sim/engine.h"
#include "sim/manycore.h"
#include "support/stats.h"
#include "support/table.h"
#include "workloads/workload.h"

#endif // NDP_NDP_H
