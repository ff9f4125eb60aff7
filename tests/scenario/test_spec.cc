/**
 * @file
 * Scenario text format: parse/dump round-trips, error collection, and
 * the actionable-validation contract (ISSUE satellite: unknown keys,
 * out-of-range values and fault plans naming absent devices each
 * produce a message that tells the author what to fix).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/spec.hh"

using namespace pipellm;
using namespace pipellm::scenario;

namespace {

/** The scenarios committed under bench/scenarios/. */
const char *const committedScenarios[] = {
    PIPELLM_SCENARIO_DIR "/cluster_scale.scenario",
    PIPELLM_SCENARIO_DIR "/disagg.scenario",
    PIPELLM_SCENARIO_DIR "/faults.scenario",
    PIPELLM_SCENARIO_DIR "/soak.scenario",
};

/** A minimal valid cluster_scale scenario to mutate in error tests. */
std::string
minimalText()
{
    return "[scenario]\n"
           "name = mini\n"
           "kind = cluster_scale\n"
           "[cluster]\n"
           "devices = 1 2\n"
           "modes = Cc\n";
}

bool
anyContains(const std::vector<std::string> &messages,
            const std::string &needle)
{
    for (const auto &m : messages) {
        if (m.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

} // namespace

TEST(ScenarioSpec, MinimalTextParsesAndValidates)
{
    auto parsed = parseScenario(minimalText());
    ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
    EXPECT_EQ(parsed.spec.name, "mini");
    EXPECT_EQ(parsed.spec.kind, ScenarioKind::ClusterScale);
    EXPECT_EQ(parsed.spec.csv, "mini.csv"); // defaulted from name
    EXPECT_EQ(parsed.spec.cluster.devices,
              (std::vector<unsigned>{1, 2}));
    EXPECT_TRUE(parsed.spec.validate().empty());
}

TEST(ScenarioSpec, CommittedScenariosLoadValidateAndRoundTrip)
{
    for (const char *path : committedScenarios) {
        SCOPED_TRACE(path);
        auto parsed = loadScenario(path);
        ASSERT_TRUE(parsed.ok())
            << (parsed.errors.empty() ? "" : parsed.errors.front());
        EXPECT_TRUE(parsed.spec.validate().empty());

        // dump -> parse must reproduce the exact spec (doubles are
        // printed shortest-round-trip).
        auto again = parseScenario(dumpScenario(parsed.spec), path);
        ASSERT_TRUE(again.ok())
            << (again.errors.empty() ? "" : again.errors.front());
        EXPECT_EQ(parsed.spec, again.spec);
        // And the canonical form is a fixed point.
        EXPECT_EQ(dumpScenario(parsed.spec), dumpScenario(again.spec));
    }
}

TEST(ScenarioSpec, UnknownKeysAreRejectedWithLocation)
{
    auto parsed =
        parseScenario(minimalText() + "tpyo_threads = 4\n", "mini");
    ASSERT_FALSE(parsed.ok());
    EXPECT_TRUE(anyContains(parsed.errors, "unknown key"));
    EXPECT_TRUE(anyContains(parsed.errors, "tpyo_threads"));
    EXPECT_TRUE(anyContains(parsed.errors, "mini:7"));
}

TEST(ScenarioSpec, UnknownSectionIsRejected)
{
    auto parsed = parseScenario(minimalText() + "[tracee]\n");
    ASSERT_FALSE(parsed.ok());
    EXPECT_TRUE(anyContains(parsed.errors, "unknown section"));
}

TEST(ScenarioSpec, AllParseErrorsAreCollectedNotJustTheFirst)
{
    auto parsed = parseScenario("[scenario]\n"
                                "bogus_one = 1\n"
                                "bogus_two = 2\n"
                                "name = x\n");
    ASSERT_EQ(parsed.errors.size(), 2u);
}

TEST(ScenarioSpec, NegativeBridgeBandwidthIsRejected)
{
    auto parsed = parseScenario(minimalText() +
                                "[host shared]\n"
                                "bridge_gbps = -1\n");
    ASSERT_TRUE(parsed.ok());
    auto problems = parsed.spec.validate();
    EXPECT_TRUE(anyContains(problems, "bridge_gbps is negative"));
}

TEST(ScenarioSpec, FaultPlanNamingAbsentDeviceIsRejected)
{
    auto parsed = parseScenario("[scenario]\n"
                                "name = mini\n"
                                "kind = fault_sweep\n"
                                "[cluster]\n"
                                "devices = 1 2\n"
                                "modes = Cc\n"
                                "[faults]\n"
                                "scales = 0 1\n"
                                "crash_devices = 5\n");
    ASSERT_TRUE(parsed.ok());
    auto problems = parsed.spec.validate();
    EXPECT_TRUE(anyContains(problems, "crash_devices names device 5"));
    EXPECT_TRUE(anyContains(problems, "ids 0..1"));
}

TEST(ScenarioSpec, KindSectionMismatchesAreRejected)
{
    // cluster_scale scenarios must not carry a fault plan.
    auto parsed = parseScenario(minimalText() +
                                "[faults]\n"
                                "tag_corruption_rate = 0.1\n");
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(anyContains(parsed.spec.validate(),
                            "does not inject faults"));

    // soak scenarios need phases and exactly one served system.
    auto soak = parseScenario("[scenario]\n"
                              "name = s\n"
                              "kind = soak\n"
                              "[cluster]\n"
                              "devices = 2\n"
                              "modes = Plain\n");
    ASSERT_TRUE(soak.ok());
    auto problems = soak.spec.validate();
    EXPECT_TRUE(anyContains(problems, "at least one [soak] phase"));
    EXPECT_TRUE(anyContains(problems, "exactly one of Cc or Pipe"));
}

TEST(ScenarioSpec, OutOfRangeProbabilityIsRejected)
{
    auto parsed = parseScenario("[scenario]\n"
                                "name = f\n"
                                "kind = fault_sweep\n"
                                "[cluster]\n"
                                "devices = 1\n"
                                "modes = Cc\n"
                                "[faults]\n"
                                "scales = 0 1\n"
                                "tag_corruption_rate = 1.5\n");
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(anyContains(parsed.spec.validate(),
                            "not a probability"));
}

TEST(ScenarioSpec, QuickAxesFallBackToFullAxes)
{
    auto parsed = parseScenario(minimalText());
    ASSERT_TRUE(parsed.ok());
    const auto &spec = parsed.spec;
    // No *_quick keys: quick runs use the full axes.
    EXPECT_EQ(spec.deviceAxis(true), spec.deviceAxis(false));
    EXPECT_EQ(spec.requestsPerDevice(true),
              spec.requestsPerDevice(false));

    auto quick = parseScenario(minimalText() +
                               "devices_quick = 1\n"
                               "[trace]\n"
                               "requests_per_device = 48\n"
                               "requests_per_device_quick = 8\n");
    ASSERT_TRUE(quick.ok());
    EXPECT_EQ(quick.spec.deviceAxis(true),
              (std::vector<unsigned>{1}));
    EXPECT_EQ(quick.spec.requestsPerDevice(true), 8u);
    EXPECT_EQ(quick.spec.requestsPerDevice(false), 48u);
}

TEST(ScenarioSpec, HostAxisDefaultsToOnePrivateVariant)
{
    auto parsed = parseScenario(minimalText());
    ASSERT_TRUE(parsed.ok());
    auto hosts = parsed.spec.hostAxis();
    ASSERT_EQ(hosts.size(), 1u);
    EXPECT_EQ(hosts[0], HostVariantSpec{});
    EXPECT_EQ(hosts[0].name, "private");
}

TEST(ScenarioSpec, SystemModeNamesRoundTrip)
{
    for (SystemMode m : {SystemMode::Plain, SystemMode::Cc,
                         SystemMode::Cc4t, SystemMode::Pipe,
                         SystemMode::Pipe0}) {
        auto back = parseSystemMode(keyOf(m));
        ASSERT_TRUE(back.has_value()) << keyOf(m);
        EXPECT_EQ(*back, m);
    }
    EXPECT_FALSE(parseSystemMode("NotASystem").has_value());
    EXPECT_STREQ(toString(SystemMode::Plain), "w/o CC");
    EXPECT_STREQ(toString(SystemMode::Pipe), "PipeLLM");
}

TEST(ScenarioSpec, KindRegistryCoversEveryKindWithUniqueNames)
{
    const auto &kinds = scenarioKinds();
    ASSERT_EQ(kinds.size(), 4u);
    for (const auto &info : kinds) {
        // The registry name is the `kind =` spelling.
        auto parsed = parseScenario(std::string("[scenario]\n"
                                                "name = k\n"
                                                "kind = ") +
                                    info.name + "\n");
        ASSERT_TRUE(parsed.ok()) << info.name;
        EXPECT_EQ(parsed.spec.kind, info.kind);
        EXPECT_STREQ(toString(info.kind), info.name);
        EXPECT_NE(std::string(info.summary), "");
    }
}

TEST(ScenarioSpec, UnknownKindSuggestsTheNearestValidKind)
{
    EXPECT_EQ(nearestScenarioKind("disag"), "disagg");
    EXPECT_EQ(nearestScenarioKind("fault_swep"), "fault_sweep");
    EXPECT_EQ(nearestScenarioKind("sok"), "soak");

    auto parsed = parseScenario("[scenario]\n"
                                "name = x\n"
                                "kind = cluster_scal\n",
                                "x");
    ASSERT_FALSE(parsed.ok());
    EXPECT_TRUE(anyContains(parsed.errors, "unknown kind"));
    EXPECT_TRUE(anyContains(parsed.errors,
                            "did you mean 'cluster_scale'?"));
}

TEST(ScenarioSpec, EveryFieldSurvivesTheDumpRoundTrip)
{
    // One text exercising every section and key — crash_devices and
    // the disagg/migration fields included — so a field dropped from
    // dumpScenario() fails here, not in a sweep.
    auto parsed = parseScenario("[scenario]\n"
                                "name = everything\n"
                                "kind = disagg\n"
                                "csv = everything.csv\n"
                                "[cluster]\n"
                                "devices = 2 4\n"
                                "devices_quick = 2\n"
                                "modes = Cc Pipe\n"
                                "policy = least_loaded\n"
                                "[device]\n"
                                "channel_sample_limit = 128\n"
                                "[engine]\n"
                                "model = opt13b\n"
                                "parallel_sampling = 4\n"
                                "[trace]\n"
                                "dataset = alpaca\n"
                                "max_len = 512\n"
                                "seed = 7\n"
                                "rate_per_device = 1.25\n"
                                "requests_per_device = 20\n"
                                "requests_per_device_quick = 10\n"
                                "[disagg]\n"
                                "prefill_replicas = 1\n"
                                "chunk_kib = 512\n"
                                "pipeline_depth = 8\n"
                                "[faults]\n"
                                "seed = 99\n"
                                "replica_restart_rate = 0.25\n"
                                "migration_tag_rate = 0.001\n"
                                "migration_stall_rate = 0.002\n"
                                "dest_crash_rate = 0.0005\n"
                                "migration_stall_timeout_us = 120\n"
                                "max_migration_attempts = 6\n"
                                "crash_devices = 1 3\n"
                                "scales = 0 1 2\n"
                                "scales_quick = 0 1\n");
    ASSERT_TRUE(parsed.ok())
        << (parsed.errors.empty() ? "" : parsed.errors.front());
    ASSERT_TRUE(parsed.spec.validate().empty())
        << parsed.spec.validate().front();

    const auto &spec = parsed.spec;
    EXPECT_EQ(spec.disagg.prefill_replicas, 1u);
    EXPECT_EQ(spec.disagg.chunk_kib, 512.0);
    EXPECT_EQ(spec.disagg.pipeline_depth, 8u);
    EXPECT_EQ(spec.faults.migration_stall_timeout_us, 120.0);
    EXPECT_EQ(spec.faults.max_migration_attempts, 6u);
    EXPECT_EQ(spec.faults.crash_devices,
              (std::vector<unsigned>{1, 3}));

    auto again = parseScenario(dumpScenario(spec), "round-trip");
    ASSERT_TRUE(again.ok())
        << (again.errors.empty() ? "" : again.errors.front());
    EXPECT_EQ(spec, again.spec);
}

TEST(ScenarioSpec, DisaggSectionAndRatesRejectedOutsideDisaggKind)
{
    // A [disagg] section on a cluster_scale scenario is a mistake.
    auto parsed = parseScenario(minimalText() +
                                "[disagg]\n"
                                "chunk_kib = 128\n");
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(anyContains(parsed.spec.validate(), "[disagg]"));

    // Migration fault rates on a fault_sweep scenario never fire.
    auto sweep = parseScenario("[scenario]\n"
                               "name = f\n"
                               "kind = fault_sweep\n"
                               "[cluster]\n"
                               "devices = 1 2\n"
                               "modes = Cc\n"
                               "[faults]\n"
                               "scales = 0 1\n"
                               "migration_tag_rate = 0.1\n");
    ASSERT_TRUE(sweep.ok());
    EXPECT_TRUE(anyContains(sweep.spec.validate(),
                            "nothing migrates"));
}

TEST(ScenarioSpec, DisaggKindNeedsRoomForBothRoles)
{
    // A single-device disagg scenario has no decode side to migrate
    // to; prefill_replicas must leave at least one decode replica.
    auto parsed = parseScenario("[scenario]\n"
                                "name = d\n"
                                "kind = disagg\n"
                                "[cluster]\n"
                                "devices = 1 2\n"
                                "modes = Cc\n"
                                "[disagg]\n"
                                "prefill_replicas = 1\n");
    ASSERT_TRUE(parsed.ok());
    auto problems = parsed.spec.validate();
    EXPECT_TRUE(anyContains(problems,
                            "devices entry must be at least 2"));

    auto hog = parseScenario("[scenario]\n"
                             "name = d\n"
                             "kind = disagg\n"
                             "[cluster]\n"
                             "devices = 2\n"
                             "modes = Cc\n"
                             "[disagg]\n"
                             "prefill_replicas = 2\n");
    ASSERT_TRUE(hog.ok());
    EXPECT_TRUE(anyContains(hog.spec.validate(), "prefill_replicas"));
}

TEST(ScenarioSpec, ValuesThatWouldCrashTheRunAreRejected)
{
    // Each row is a value that, if accepted, would PANIC mid-run or
    // convert a negative double to ticks or bytes (undefined
    // behaviour). Non-finite numbers fail to parse; the ranges fail
    // validate().
    const std::string base = "[scenario]\n"
                             "name = s\n"
                             "kind = soak\n"
                             "[cluster]\n"
                             "devices = 2\n"
                             "modes = Cc\n"
                             "[soak]\n"
                             "phase = 8 4 0.8\n";
    struct Row
    {
        const char *lines;
        const char *message;
    };
    const Row rows[] = {
        {"[trace]\nrate_per_device = nan\n", "bad value 'nan'"},
        {"[trace]\nrate_per_device = inf\n", "bad value 'inf'"},
        {"[overload]\nmultipliers = 1 -inf\n", "bad value '-inf'"},
        {"[soak]\nphase = 8 4 nan\n", "bad value '8 4 nan'"},
        {"[faults]\nspdm_rekey_ms = -5\n", "spdm_rekey_ms is negative"},
        {"[faults]\nwarmup_probe_kib = -1\n",
         "warmup_probe_kib is negative"},
        {"[faults]\nstorm_start_s = -1\n", "storm_start_s is negative"},
        {"[overload]\nslo_floor_s = -1\n", "slo_floor_s is negative"},
        {"[overload]\nslo_per_token_ms = -1\n",
         "slo_per_token_ms is negative"},
        {"[overload]\nrate_per_device = 0\n",
         "[overload] rate_per_device must be positive"},
    };

    auto problems = [](const std::string &text) {
        auto parsed = parseScenario(text);
        return parsed.ok() ? parsed.spec.validate() : parsed.errors;
    };
    ASSERT_TRUE(problems(base).empty());
    for (const Row &row : rows) {
        SCOPED_TRACE(row.lines);
        EXPECT_TRUE(anyContains(problems(base + row.lines), row.message));
    }
}
