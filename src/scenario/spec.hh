/**
 * @file
 * Declarative scenario description: one text file naming the cluster
 * topology, device profile, workload trace, fault plan, admission/SLO
 * configuration and sweep axes of an experiment.
 *
 * The format is a deliberately tiny sections + key/value dialect — no
 * external dependencies, strict about unknown keys — so a scenario is
 * reviewable in a diff and every evaluation point is data, not code:
 *
 *     [scenario]
 *     name = cluster_scale
 *     kind = cluster_scale
 *
 *     [cluster]
 *     devices = 1 2 4 8
 *     modes = Plain Cc Pipe
 *
 *     [host shared]
 *     shared_crypto_lanes = 2
 *     bridge_gbps = 160
 *
 * Lists are whitespace-separated; `[host <name>]` sections repeat, one
 * per swept host-resource variant; the `phase` key repeats inside
 * `[soak]`. Every `*_quick` key gives the CI-smoke variant of its
 * sweep axis. parseScenario() collects *all* errors (unknown keys,
 * malformed values) instead of stopping at the first;
 * ScenarioSpec::validate() adds semantic checks (empty axes, negative
 * bandwidths, fault plans naming absent devices) with actionable
 * messages. dumpScenario() emits a canonical text that parses back to
 * an equal spec, which is what the round-trip tests pin down.
 */

#ifndef PIPELLM_SCENARIO_SPEC_HH
#define PIPELLM_SCENARIO_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/mode.hh"
#include "serving/cluster.hh"

namespace pipellm {
namespace scenario {

/** The sweep/figure family a scenario expands into. */
enum class ScenarioKind : std::uint8_t
{
    /** Replica-scaling sweep: host variants x modes x device counts
     *  (cluster_scale.scenario). */
    ClusterScale,
    /** Fault-intensity sweep: modes x device counts x fault scales
     *  (faults.scenario). */
    FaultSweep,
    /** Chaos soak + overload sweep through src/chaos
     *  (soak.scenario). */
    Soak,
    /** Disaggregated prefill/decode sweep: modes x device counts x
     *  migration-fault scales, every request migrating its KV from a
     *  prefill replica to a decode replica. */
    Disagg,
};

const char *toString(ScenarioKind kind);

/** One entry of the kind registry (--list, nearest-kind errors). */
struct ScenarioKindInfo
{
    ScenarioKind kind;
    const char *name;    ///< the `kind =` spelling
    const char *summary; ///< one-line description for --list
};

/** Every scenario kind, in declaration order. */
const std::vector<ScenarioKindInfo> &scenarioKinds();

/** The known kind name closest to @p name by edit distance. */
std::string nearestScenarioKind(const std::string &name);

/** One swept host-resource variant (`[host <name>]`). */
struct HostVariantSpec
{
    std::string name = "private";
    /** Machine-wide CPU crypto lane pool; 0 = private per-runtime. */
    unsigned shared_crypto_lanes = 0;
    /** Shared host-bridge bandwidth in GB/s; 0 = uncapped. */
    double bridge_gbps = 0;
    /** Per-request bridge latency in microseconds. */
    double bridge_latency_us = 0;
    /**
     * Override of PipeLLM's max speculative lane lead on this host,
     * in milliseconds; negative keeps the pipe preset's default. On a
     * contended pool a deep lead books shared lanes far ahead of
     * everyone's demand traffic, so shared variants keep it small.
     */
    double pipe_max_lane_lead_ms = -1;

    bool operator==(const HostVariantSpec &) const = default;
};

/** `[cluster]`: topology and the mode/replica sweep axes. */
struct ClusterSpec
{
    std::vector<unsigned> devices;
    std::vector<unsigned> devices_quick; ///< empty = same as devices
    std::vector<SystemMode> modes;
    serving::RoutePolicy policy = serving::RoutePolicy::RoundRobin;

    bool operator==(const ClusterSpec &) const = default;
};

/** `[device]`: the per-device hardware profile. */
struct DeviceSpec
{
    /** Calibrated SystemSpec preset name (h100). */
    std::string spec = "h100";
    /** Functional-crypto sampling cap (bytes actually sealed). */
    unsigned channel_sample_limit = 512;

    bool operator==(const DeviceSpec &) const = default;
};

/** `[engine]`: the per-replica vLLM engine. */
struct EngineSpec
{
    /** ModelConfig preset name (opt13b/opt30b/opt66b/...). */
    std::string model = "opt30b";
    unsigned parallel_sampling = 6;

    bool operator==(const EngineSpec &) const = default;
};

/** `[pipe]`: which PipeLLM configuration preset to use. */
struct PipeSpec
{
    enum class Kind : std::uint8_t
    {
        Kv,      ///< KV-swapping preset (1+1 lanes, deep pipeline)
        Offload, ///< model-offloading preset (10+1 lanes)
    };
    Kind kind = Kind::Kv;

    bool operator==(const PipeSpec &) const = default;
};

const char *toString(PipeSpec::Kind kind);

/** `[trace]`: the arrival workload. */
struct TraceSpec
{
    /** DatasetProfile preset name (sharegpt/alpaca/ultrachat). */
    std::string dataset = "sharegpt";
    /** Length clip override; 0 keeps the dataset default. */
    std::uint32_t max_len = 0;
    std::uint64_t seed = 42;
    /** Poisson rate per device (cluster rate = rate * n_devices). */
    double rate_per_device = 0.8;
    std::size_t requests_per_device = 32;
    std::size_t requests_per_device_quick = 0; ///< 0 = same

    bool operator==(const TraceSpec &) const = default;
};

/**
 * `[faults]`: the scale-1 fault environment and its sweep axis.
 * Fields mirror fault::FaultPlan but stay in human units (seconds,
 * ms, KiB) so dumpScenario() round-trips exactly; the builder does
 * the Tick conversion when it materializes a plan.
 */
struct FaultSpec
{
    std::uint64_t seed = 1;
    /** Scale-1 per-opportunity Bernoulli probabilities. */
    double tag_corruption_rate = 0;
    double copy_stall_rate = 0;
    double lane_fault_rate = 0;
    /** Scale-1 crash/restart arrival rates (events/s per replica). */
    double replica_crash_rate = 0;
    double replica_restart_rate = 0;
    /** SPDM re-attestation + key-exchange cost on rejoin. */
    double spdm_rekey_ms = 10;
    /** Warm-up probe round-tripped before a restart rejoins. */
    double warmup_probe_kib = 256;
    /** Scale-1 per-migration-chunk Bernoulli probabilities. */
    double migration_tag_rate = 0;
    double migration_stall_rate = 0;
    double dest_crash_rate = 0;
    /** Migration stall-watchdog timeout per attempt. */
    double migration_stall_timeout_us = 80;
    /** Consecutive stalls tolerated before local-decode fallback. */
    unsigned max_migration_attempts = 4;
    /** Fault-storm window; every Bernoulli rate is multiplied inside. */
    double storm_start_s = 0;
    double storm_end_s = 0;
    double storm_multiplier = 1;
    /** Restrict injected crashes to these device ids (empty = any). */
    std::vector<unsigned> crash_devices;
    /** Intensity multipliers; 0 rows run with the injector disarmed. */
    std::vector<double> scales{0};
    std::vector<double> scales_quick;
    /** Goodput bucketing for the per-crash dip measurement. */
    double dip_window_s = 2;
    /** Recovery bar as a fraction of pre-crash goodput. */
    double dip_recover_frac = 0.5;

    bool operator==(const FaultSpec &) const = default;
};

/** `[disagg]`: prefill/decode split knobs (kind = disagg only). */
struct DisaggSpec
{
    /** Prefill replicas per cluster; 0 = half, rounded down. */
    unsigned prefill_replicas = 0;
    /** Encrypted KV migration chunk size. */
    double chunk_kib = 256;
    /** Chunks sealed ahead of the verification frontier. */
    unsigned pipeline_depth = 4;

    bool operator==(const DisaggSpec &) const = default;
};

/** `[admission]`: front-end overload protection. */
struct AdmissionSpec
{
    bool shed = false;
    double service_cost_per_sec = 0;
    std::uint64_t max_outstanding_cost = 0;

    bool operator==(const AdmissionSpec &) const = default;
};

/** `[slo]`: deadline stamped per request. */
struct SloSpec
{
    double floor_s = 0;
    double per_token_ms = 0;

    bool operator==(const SloSpec &) const = default;
};

/** One `phase = <requests> <requests_quick> <rate_per_device>`. */
struct SoakPhaseSpec
{
    std::size_t requests = 0;
    std::size_t requests_quick = 0;
    double rate_per_device = 1;

    bool operator==(const SoakPhaseSpec &) const = default;
};

/** `[soak]`: the phased chaos timeline and its recovery analysis. */
struct SoakSpec
{
    std::vector<SoakPhaseSpec> phases;
    double goodput_window_s = 2;
    double recover_frac = 0.5;

    bool operator==(const SoakSpec &) const = default;
};

/** `[overload]`: the admission-off-vs-on rate sweep (Soak part 2). */
struct OverloadSpec
{
    std::vector<double> multipliers;
    std::vector<double> multipliers_quick;
    /** Requests per sweep point; 0 skips the overload sweep. */
    std::size_t requests = 0;
    std::size_t requests_quick = 0;
    /** x1 Poisson rate per device. */
    double rate_per_device = 0.8;
    double slo_floor_s = 1;
    double slo_per_token_ms = 10;
    double service_cost_per_sec = 4000;

    bool operator==(const OverloadSpec &) const = default;
};

/** A fully-parsed scenario: everything one experiment sweep needs. */
struct ScenarioSpec
{
    std::string name;
    ScenarioKind kind = ScenarioKind::ClusterScale;
    /** Primary CSV file name; derived outputs append suffixes. */
    std::string csv;

    ClusterSpec cluster;
    DeviceSpec device;
    EngineSpec engine;
    PipeSpec pipe;
    TraceSpec trace;
    /** Swept host variants; empty = one implicit private variant. */
    std::vector<HostVariantSpec> hosts;
    DisaggSpec disagg;
    FaultSpec faults;
    AdmissionSpec admission;
    SloSpec slo;
    SoakSpec soak;
    OverloadSpec overload;

    /** The replica-count axis for @p quick runs. */
    const std::vector<unsigned> &deviceAxis(bool quick) const;
    /** The fault-scale axis for @p quick runs. */
    const std::vector<double> &scaleAxis(bool quick) const;
    /** Requests per device for @p quick runs. */
    std::size_t requestsPerDevice(bool quick) const;
    /** Host variants, with the implicit private default filled in. */
    std::vector<HostVariantSpec> hostAxis() const;

    /**
     * Semantic validation: empty sweep axes, out-of-range values,
     * fault plans naming absent devices, kind/section mismatches.
     * Returns one actionable message per problem; empty = valid.
     */
    std::vector<std::string> validate() const;

    bool operator==(const ScenarioSpec &) const = default;
};

/** Outcome of parsing a scenario text. */
struct ParseResult
{
    ScenarioSpec spec;
    /** file:line-prefixed parse errors; empty = success. */
    std::vector<std::string> errors;

    bool ok() const { return errors.empty(); }
};

/** Parse scenario text; @p origin labels error messages. */
ParseResult parseScenario(const std::string &text,
                          const std::string &origin = "<string>");

/** Read and parse a scenario file. */
ParseResult loadScenario(const std::string &path);

/**
 * Canonical text form: parseScenario(dumpScenario(s)).spec == s for
 * any spec that passes validation (doubles are printed shortest-
 * round-trip, so no precision is lost).
 */
std::string dumpScenario(const ScenarioSpec &spec);

} // namespace scenario
} // namespace pipellm

#endif // PIPELLM_SCENARIO_SPEC_HH
