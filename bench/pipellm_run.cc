/**
 * @file
 * pipellm_run: the one driver binary for declarative scenarios.
 *
 * Every experiment the legacy bench_cluster_scale / bench_faults /
 * bench_soak mains hard-coded now lives in a committed .scenario file
 * under bench/scenarios/; this driver loads any number of them and
 * runs their sweep matrices through scenario::runScenario. Adding a
 * sweep point (a 5th replica count, another fault scale) is a
 * scenario-file edit — no C++ changes, no new binary.
 *
 *   pipellm_run bench/scenarios/cluster_scale.scenario
 *   pipellm_run --quick cluster_scale faults soak
 *   pipellm_run --validate my_new_sweep.scenario
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/scenario_cli.hh"

namespace {

int
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [--quick] [--out DIR] [--validate] "
        "[--dump] <scenario>...\n"
        "       %s --list\n"
        "  <scenario>   a .scenario file, or a bare name resolved\n"
        "               against the repo's bench/scenarios/\n"
        "  --quick      use the *_quick sweep axes (CI smoke)\n"
        "  --out DIR    CSV output directory (default bench_results)\n"
        "  --validate   parse + validate only, run nothing\n"
        "  --dump       print the canonical round-trip text, run\n"
        "               nothing\n"
        "  --list       list scenario kinds and committed scenarios\n",
        prog, prog);
    return 2;
}

int
listScenarios()
{
    std::printf("scenario kinds:\n");
    for (const auto &info : pipellm::scenario::scenarioKinds())
        std::printf("  %-14s %s\n", info.name, info.summary);

    std::printf("\ncommitted scenarios (%s):\n", PIPELLM_SCENARIO_DIR);
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(
             PIPELLM_SCENARIO_DIR, ec)) {
        if (entry.path().extension() == ".scenario")
            names.push_back(entry.path().filename().string());
    }
    if (ec) {
        std::fprintf(stderr, "cannot list %s: %s\n",
                     PIPELLM_SCENARIO_DIR, ec.message().c_str());
        return 1;
    }
    std::sort(names.begin(), names.end());
    for (const auto &name : names) {
        auto spec = benchutil::loadScenarioOrDie(
            std::string(PIPELLM_SCENARIO_DIR) + "/" + name);
        std::printf("  %-24s kind %s\n", name.c_str(),
                    pipellm::scenario::toString(spec.kind));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    pipellm::scenario::RunOptions opts;
    opts.progress = benchutil::printingSink();
    bool validate_only = false;
    bool dump_only = false;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            opts.quick = true;
        } else if (arg == "--out" && i + 1 < argc) {
            opts.out_dir = argv[++i];
        } else if (arg == "--validate") {
            validate_only = true;
        } else if (arg == "--dump") {
            dump_only = true;
        } else if (arg == "--list") {
            return listScenarios();
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty())
        return usage(argv[0]);

    for (const auto &file : files) {
        std::string path = benchutil::resolveScenarioPath(file);
        auto spec = benchutil::loadScenarioOrDie(path);
        if (dump_only) {
            std::fputs(pipellm::scenario::dumpScenario(spec).c_str(),
                       stdout);
            continue;
        }
        if (validate_only) {
            std::printf("%s: OK (%s, kind %s)\n", path.c_str(),
                        spec.name.c_str(),
                        pipellm::scenario::toString(spec.kind));
            continue;
        }
        auto summary = pipellm::scenario::runScenario(spec, opts);
        std::printf("scenario %s: %zu runs, %zu rows\n",
                    spec.name.c_str(), summary.runs, summary.rows);
        for (const auto &csv : summary.csv_paths)
            std::printf("  wrote %s\n", csv.c_str());
    }
    return 0;
}
