/**
 * @file
 * Figure 22: normalized execution time across the KNL-style
 * configuration grid — cluster mode (A: all-to-all, B: quadrant, C:
 * SNC-4) x memory mode (X: flat, Y: cache, Z: hybrid) x code version
 * (1: original, 2: optimized). All values are normalized against the
 * default configuration (B,X,1); lower is better.
 *
 * Paper observations to check: the optimized code wins in every
 * configuration; the cluster-mode differences shrink under our
 * approach; flat beats cache mode; (C,X,2) is the best configuration;
 * and (A,X,2) outperforms (C,X,1).
 *
 * The heaviest sweep in the suite: 12 apps x 9 machine configs fan out
 * across NDP_BENCH_THREADS workers. The (B,X,1) reference is the
 * deterministic default run of the (B,X) cell itself, so no separate
 * reference experiment is needed. The table is bit-identical for any
 * thread count (timing on stderr).
 */

#include "bench_common.h"

int
main()
{
    using namespace ndp;
    bench::banner("fig22_knl_configs", "Figure 22");

    struct Cluster
    {
        char tag;
        mem::ClusterMode mode;
    };
    struct Memory
    {
        char tag;
        mem::MemoryMode mode;
    };
    const Cluster clusters[] = {
        {'A', mem::ClusterMode::AllToAll},
        {'B', mem::ClusterMode::Quadrant},
        {'C', mem::ClusterMode::SNC4},
    };
    const Memory memories[] = {
        {'X', mem::MemoryMode::Flat},
        {'Y', mem::MemoryMode::Cache},
        {'Z', mem::MemoryMode::Hybrid},
    };

    std::vector<std::string> headers = {"app"};
    std::vector<std::string> cfg_labels;
    std::vector<driver::ExperimentConfig> configs;
    std::size_t ref_index = 0; // the (B,X) cell
    for (const Cluster &c : clusters) {
        for (const Memory &m : memories) {
            const std::string label = std::string(1, c.tag) + "," +
                                      std::string(1, m.tag);
            for (int v = 1; v <= 2; ++v)
                headers.push_back(label + "," + std::to_string(v));
            cfg_labels.push_back(label);

            driver::ExperimentConfig cfg;
            cfg.machine.clusterMode = c.mode;
            cfg.machine.memoryMode = m.mode;
            if (c.mode == mem::ClusterMode::Quadrant &&
                m.mode == mem::MemoryMode::Flat) {
                ref_index = configs.size();
            }
            configs.push_back(cfg);
        }
    }
    Table table(headers);

    const bench::SweepOutcome sweep = bench::runSweep(configs);

    std::vector<double> norm_sum(headers.size() - 1, 0.0);
    int app_count = 0;
    for (std::size_t a = 0; a < sweep.apps.size(); ++a) {
        const std::vector<driver::SweepCell> &cells = sweep.grid[a];
        const double base = static_cast<double>(
            cells[ref_index].result.defaultMakespan);

        table.row().cell(sweep.apps[a].name);
        std::size_t col = 0;
        for (const driver::SweepCell &cell : cells) {
            const double orig =
                static_cast<double>(cell.result.defaultMakespan) /
                base;
            const double opt =
                static_cast<double>(cell.result.optimizedMakespan) /
                base;
            table.cell(orig, 3).cell(opt, 3);
            norm_sum[col++] += orig;
            norm_sum[col++] += opt;
        }
        ++app_count;
    }

    table.row().cell("mean");
    for (double sum : norm_sum)
        table.cell(sum / std::max(1, app_count), 3);
    table.print(std::cout);

    bench::printTiming(cfg_labels, sweep);
    return 0;
}
