/**
 * @file
 * Thin wrapper: the cluster-scaling figure, scenario-driven.
 *
 * The topology, trace, host variants and sweep axes that used to be
 * hard-coded here live in bench/scenarios/cluster_scale.scenario;
 * this main keeps the historical --quick flag and runs the scenario
 * through the shared sweep runner. See the scenario file for the
 * experiment's rationale; the regenerated CSV is byte-identical to
 * what the hand-rolled main produced.
 */

#include <cstdio>
#include <string>

#include "bench/scenario_cli.hh"

int
main(int argc, char **argv)
{
    // --quick: fewer devices and requests (CI-style smoke runs).
    pipellm::scenario::RunOptions opts;
    opts.progress = benchutil::printingSink();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            opts.quick = true;
        } else {
            std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
            return 2;
        }
    }

    std::printf("\n=== Cluster scaling: N replicas, offered load ~ N "
                "===\n");
    auto spec = benchutil::loadScenarioOrDie(
        benchutil::resolveScenarioPath("cluster_scale"));
    pipellm::scenario::runScenario(spec, opts);

    std::printf("\nexpectation: with private host resources w/o CC "
                "and PipeLLM track the offered load (near-linear) and "
                "stock CC is capped at N x its per-device "
                "crypto-bound service rate; on the shared host every "
                "mode knees as the crypto pool and bridge saturate, "
                "CC earliest and hardest, PipeLLM in between\n");
    return 0;
}
