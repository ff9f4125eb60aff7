/**
 * @file
 * SweepRunner: expand a scenario's sweep matrix and emit CSV rows.
 *
 * runScenario() is the engine behind the pipellm_run driver: it
 * walks the axes a ScenarioSpec declares (host variants x modes x
 * replica counts, fault scales, overload multipliers), materializes
 * each point through ScenarioBuilder, and writes the same CSV files —
 * byte-identical rows — the hand-written bench mains used to
 * produce. Progress goes through a caller-supplied sink, never
 * stdout, so the library stays inside the src/ logging discipline;
 * binaries attach a printing sink, tests attach nothing.
 */

#ifndef PIPELLM_SCENARIO_RUNNER_HH
#define PIPELLM_SCENARIO_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "scenario/spec.hh"

namespace pipellm {
namespace scenario {

/** Knobs the driver CLI exposes on top of a scenario file. */
struct RunOptions
{
    /** Use the *_quick sweep axes (CI smoke). */
    bool quick = false;
    /**
     * Ignored. It stays only because perfbench/perfbench.cc still
     * sets it, and goes when that file next changes.
     */
    int threads = -1;
    /** Directory the CSV files land in (created if needed). */
    std::string out_dir = "bench_results";
    /** Sink for one-line progress messages; null = silent. */
    std::function<void(const std::string &)> progress;
};

/** What a scenario run produced. */
struct RunSummary
{
    /** CSV files written, in emission order. */
    std::vector<std::string> csv_paths;
    /** Data rows written across all CSVs (headers excluded). */
    std::size_t rows = 0;
    /** Cluster/soak executions performed. */
    std::size_t runs = 0;
};

/**
 * Expand and run @p spec 's sweep matrix, writing CSVs under
 * @p opts.out_dir. The spec must pass validate(); invariant failures
 * mid-sweep (integrity faults on a fault-free run, an unrecovered
 * soak) trap via PIPELLM_ASSERT exactly as the legacy benches did.
 */
RunSummary runScenario(const ScenarioSpec &spec,
                       const RunOptions &opts);

} // namespace scenario
} // namespace pipellm

#endif // PIPELLM_SCENARIO_RUNNER_HH
