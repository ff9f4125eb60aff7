/**
 * @file
 * Shared CLI glue for scenario-driven bench binaries.
 *
 * The scenario library itself never prints (src/ bans the printf
 * family); binaries attach the printf-backed progress sink here and
 * share the --quick/--out flag handling between pipellm_run and the
 * thin legacy wrappers.
 */

#ifndef PIPELLM_BENCH_SCENARIO_CLI_HH
#define PIPELLM_BENCH_SCENARIO_CLI_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "scenario/runner.hh"
#include "scenario/spec.hh"

namespace benchutil {

/** Progress sink printing one line per message to stdout. */
inline std::function<void(const std::string &)>
printingSink()
{
    return [](const std::string &line) {
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
    };
}

/**
 * Resolve @p arg to a scenario path: an existing file wins; a bare
 * name falls back to <scenario-dir>/<name>[.scenario] so
 * `pipellm_run cluster_scale` works from any build directory.
 */
inline std::string
resolveScenarioPath(const std::string &arg)
{
#ifdef PIPELLM_SCENARIO_DIR
    if (!std::ifstream(arg).good() &&
        arg.find('/') == std::string::npos) {
        std::string name = arg;
        const std::string ext = ".scenario";
        if (name.size() < ext.size() ||
            name.compare(name.size() - ext.size(), ext.size(), ext) !=
                0)
            name += ext;
        std::string fallback =
            std::string(PIPELLM_SCENARIO_DIR) + "/" + name;
        if (std::ifstream(fallback).good())
            return fallback;
    }
#endif
    return arg;
}

/** Load @p path or exit(1) with every parse error on stderr. */
inline pipellm::scenario::ScenarioSpec
loadScenarioOrDie(const std::string &path)
{
    auto parsed = pipellm::scenario::loadScenario(path);
    if (!parsed.ok()) {
        for (const auto &e : parsed.errors)
            std::fprintf(stderr, "%s\n", e.c_str());
        std::exit(1);
    }
    auto problems = parsed.spec.validate();
    if (!problems.empty()) {
        for (const auto &e : problems)
            std::fprintf(stderr, "%s: %s\n", path.c_str(), e.c_str());
        std::exit(1);
    }
    return parsed.spec;
}

} // namespace benchutil

#endif // PIPELLM_BENCH_SCENARIO_CLI_HH
