/**
 * @file
 * Replica-routing serving layer over a multi-device Platform.
 *
 * A production deployment serves one model from N identical replicas,
 * one per GPU, behind a front-end router. This layer reproduces that
 * shape inside the simulator: the router owns one RuntimeApi (and so
 * one VllmEngine) per cluster device and load-balances a Poisson
 * arrival trace across them. Each replica's crypto state — IV
 * counters, CC session, staged copy paths — belongs to its own
 * DeviceContext, so speculation on one GPU can never consume another
 * GPU's IVs; crypto and transfer *capacity* may be private or shared
 * machine-wide depending on the Platform's HostResources.
 *
 * The run loop is event-interleaved co-simulation: replicas step
 * concurrently on the shared clock behind a conservative min-clock
 * frontier, requests are delivered when the frontier reaches their
 * arrival, and routing decisions read live replica load at that
 * moment. Replicas on a contended host therefore hit the shared
 * crypto pool and host bridge in global time order. With private
 * resources and faults disarmed, the replicas are independent
 * between arrivals, and a decoupled loop runs each one up to the
 * next arrival in turn (ClusterResult::sharded). The two loops agree
 * except after a migration advances a busy decode replica's clock
 * (see ClusterRouter::run).
 *
 * Routing is deterministic: round-robin by arrival order, or
 * least-loaded by each replica's live outstanding-token count with
 * lowest-device-id tie-breaking. With one device, either policy
 * degenerates to the single-Platform path bit-for-bit.
 *
 * Disaggregated serving (DisaggConfig) splits the cluster by role:
 * the first P replicas run prefill only, the rest decode only.
 * Arrivals route among the prefill replicas; a finished prefill's KV
 * blocks migrate to the least-loaded decode replica over a per-pair
 * encrypted link (KvMigrator), and the decode stage carries every
 * end-to-end metric. Handoffs are processed only at delivery
 * barriers, in (finish tick, source, request id) order. Migration
 * failures degrade gracefully: a stalled stream decodes locally on
 * the prefill replica, a destination crash re-routes the migration
 * to another live decode replica, and a prefill replica that dies
 * before its handoff is processed requeues the full request through
 * normal failover.
 *
 * Two robustness layers sit on top. A crashed replica can restart
 * (FaultPlan::replica_restart_rate): after a seeded repair delay it
 * re-keys its SPDM session into a fresh IV epoch, re-uploads the
 * weights through the staged path, round-trips a warm-up probe, and
 * only then rejoins routing. And the front-end can protect itself
 * from overload (AdmissionConfig): requests whose deadline is
 * provably unmeetable are shed before routing, and a per-replica
 * outstanding-cost cap holds excess arrivals at the front-end. Both
 * are off by default and change nothing when disabled.
 */

#ifndef PIPELLM_SERVING_CLUSTER_HH
#define PIPELLM_SERVING_CLUSTER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "runtime/api.hh"
#include "serving/migrate.hh"
#include "serving/vllm.hh"
#include "trace/request.hh"

namespace pipellm {
namespace serving {

/** How the router picks a replica for each arriving request. */
enum class RoutePolicy : std::uint8_t
{
    /** Strict rotation in arrival order. */
    RoundRobin,
    /**
     * Replica with the smallest outstanding-token estimate
     * (prompt + parallel_sampling * output tokens); ties go to the
     * lowest device id.
     */
    LeastLoaded,
};

const char *toString(RoutePolicy policy);

/**
 * Builds the runtime driving one replica. Called once per device at
 * router construction; the factory decides the RuntimeApi flavor
 * (plain, CC, PipeLLM, ...) and must bind it to @p device.
 */
using RuntimeFactory = std::function<std::unique_ptr<runtime::RuntimeApi>(
    runtime::Platform &, runtime::DeviceId)>;

/**
 * Overload protection at the front-end. Disabled (the default), the
 * router behaves exactly as before — no extra branches change any
 * routing decision, so committed bench output is byte-identical.
 */
struct AdmissionConfig
{
    /**
     * Shed a request whose deadline is provably unmeetable: even if
     * the least-loaded replica served nothing but its current
     * backlog plus this request at the full estimated service rate,
     * it would still finish late. The bound is optimistic (future
     * arrivals are ignored), so shedding never kills a request that
     * had any chance under the estimate.
     */
    bool shed_enabled = false;

    /**
     * Estimated per-replica service rate in cost units
     * (prompt + parallel_sampling * output tokens) per simulated
     * second; converts outstanding cost into projected finish time.
     * 0 disables the deadline test even when shedding is on.
     */
    double service_cost_per_sec = 0;

    /**
     * Queue-depth backpressure: a replica whose outstanding cost
     * would exceed this is not a routing candidate, and a request no
     * candidate can take is held at the front-end until a step frees
     * capacity. 0 = uncapped. An idle replica always qualifies, so a
     * single huge request cannot deadlock the cap.
     */
    std::uint64_t max_outstanding_cost = 0;
};

/**
 * Disaggregated prefill/decode serving. Disabled (the default), the
 * router is the homogeneous-replica one, decision for decision.
 */
struct DisaggConfig
{
    bool enabled = false;

    /**
     * Replicas [0, prefill_replicas) serve prefill; the rest serve
     * decode. 0 picks half the cluster; the value is clamped so both
     * roles keep at least one replica (disaggregation needs >= 2
     * devices and is ignored below that).
     */
    unsigned prefill_replicas = 0;

    /** KV migration stream tuning (chunk size, pipeline depth). */
    MigrationConfig migration;
};

/** Cluster-serving configuration. */
struct ClusterConfig
{
    /** Per-replica engine configuration (identical replicas). */
    VllmConfig engine;
    RoutePolicy policy = RoutePolicy::RoundRobin;
    /** Front-end overload protection (inert by default). */
    AdmissionConfig admission;
    /** Prefill/decode disaggregation (inert by default). */
    DisaggConfig disagg;
};

/** Per-replica slice of a cluster run. */
struct ReplicaReport
{
    runtime::DeviceId device = 0;
    /** Disaggregated runs: this replica served the prefill role. */
    bool prefill = false;
    std::uint64_t requests = 0;
    /** Output tokens routed here (output_len * parallel_sampling). */
    std::uint64_t routed_tokens = 0;
    VllmResult result;
    runtime::RuntimeStats runtime_stats;
    std::string runtime_name;

    /** True when the injected crash schedule killed this replica. */
    bool crashed = false;
    /** Tick at which the router detected the crash. */
    Tick crash_time = 0;
    /** Unfinished requests moved off this replica when it died. */
    std::uint64_t requeued = 0;
    /** Unfinished requests lost because no replica survived. */
    std::uint64_t dropped = 0;
    /** Orphaned requests this (surviving) replica absorbed. */
    std::uint64_t absorbed = 0;
    /** Generated tokens lost with this replica's in-flight work. */
    std::uint64_t lost_tokens = 0;
    /** Faults this replica's runtime recovered from. */
    fault::FaultReport faults;

    /** Crashes of this replica (can exceed 1 once restarts rejoin). */
    std::uint64_t crash_count = 0;
    /** Restart sequences scheduled (re-key + reload + probe). */
    std::uint64_t restarts = 0;
    /** True when a restart re-admitted this replica to routing. */
    bool rejoined = false;
    /** Tick of the last completed rejoin. */
    Tick rejoin_time = 0;
    /** Summed crash-detect -> rejoin-complete time. */
    Tick time_to_rejoin = 0;
};

/** Aggregate result of serving one trace across the cluster. */
struct ClusterResult
{
    /**
     * Completed-weighted mean of replica normalized latencies —
     * algebraically identical to the mean over the merged samples.
     */
    double normalized_latency = 0;
    /**
     * True cluster-wide p90 normalized latency, computed over the
     * merged per-request samples of every replica.
     */
    double p90_normalized_latency = 0;
    /**
     * Completed-weighted mean of the replica p90s — the
     * approximation this field's name used to denote. It is not a
     * percentile of anything; it is kept (documented) because
     * committed bench CSVs' p90 columns were generated from it and
     * must stay byte-identical.
     */
    double replica_weighted_p90 = 0;
    std::uint64_t completed = 0;
    std::uint64_t preemptions = 0;
    /** Wall time of the slowest replica. */
    Tick makespan = 0;
    /** Routed output tokens over the makespan. */
    double tokens_per_sec = 0;
    /** Tokens of *completed* requests over the makespan: the goodput
     *  a fault sweep watches (lost work routed but never delivered
     *  does not count). Equals tokens_per_sec on fault-free runs
     *  where every routed request completes. */
    double goodput_tokens_per_sec = 0;
    /** Requests dropped because every replica had crashed. */
    std::uint64_t dropped = 0;

    /** Requests shed by admission control (never routed). */
    std::uint64_t shed_requests = 0;
    /** Routed-token equivalent of the shed requests. */
    std::uint64_t shed_tokens = 0;
    /** Completed requests that finished past their deadline. */
    std::uint64_t slo_missed = 0;
    /** Generated tokens of those late completions. */
    std::uint64_t slo_missed_tokens = 0;
    /** Goodput counting only in-SLO completions. */
    double slo_goodput_tokens_per_sec = 0;
    /** Times a request was held because every candidate was capped. */
    std::uint64_t backpressure_deferrals = 0;
    /** Requests held for a rejoining replica when all were dead. */
    std::uint64_t deferred_to_rejoin = 0;

    /** Cluster-wide fault/recovery counters (replicas merged). */
    fault::FaultReport faults;
    /** All replicas' completion events merged, sorted by time. */
    std::vector<CompletionEvent> completions;
    std::vector<ReplicaReport> replicas;

    /**
     * Wall-clock bookkeeping for the bench harness; never part of a
     * CSV row. Engine scheduler iterations across all replicas (the
     * co-simulation's unit of work), and whether the run took the
     * decoupled per-replica loop or the sequential min-clock one.
     */
    std::uint64_t engine_steps = 0;
    bool sharded = false;
};

/** The front-end router plus its N engine replicas. */
class ClusterRouter
{
  public:
    /** One replica per device of @p platform's cluster. */
    ClusterRouter(runtime::Platform &platform,
                  const RuntimeFactory &factory, ClusterConfig config);

    unsigned numReplicas() const { return unsigned(runtimes_.size()); }
    RoutePolicy policy() const { return config_.policy; }

    /**
     * Routing decision for @p req, advancing router state (rotation
     * cursor / load estimates). Exposed so tests can drive the policy
     * deterministically without a full serving run.
     * @return the chosen replica, or nullopt when no candidate
     *         exists: every replica is dead, or every alive one is
     *         past the admission cost cap (backpressure)
     */
    std::optional<runtime::DeviceId> route(const trace::Request &req);

    /**
     * Force a replica out of the routing set, as an external health
     * check would (tests and harnesses; run() resets liveness).
     */
    void markReplicaDead(runtime::DeviceId id);

    /** Serve @p requests (arrival-stamped) across the replicas. */
    ClusterResult run(const trace::Trace &requests);

    /** Replica @p id's runtime, for inspection. */
    runtime::RuntimeApi &runtime(runtime::DeviceId id);

    /** Replicas not yet killed by the crash schedule. */
    unsigned aliveCount() const;

  private:
    /** Outstanding-work estimate a request adds to its replica. */
    std::uint64_t costOf(const trace::Request &req) const;

    /** Routing-candidate test: alive and under the admission cap. */
    bool isCandidate(unsigned d, std::uint64_t cost) const;

    runtime::Platform &platform_;
    ClusterConfig config_;
    std::vector<std::unique_ptr<runtime::RuntimeApi>> runtimes_;
    /** Rotation cursor (RoundRobin). */
    unsigned next_ = 0;
    /** Outstanding-token estimate per replica (LeastLoaded). */
    std::vector<std::uint64_t> load_;
    /** Health per replica; routing never targets a dead one. */
    std::vector<bool> alive_;
    /**
     * Role map for the current disaggregated run (1 = decode-only,
     * never a front-end routing candidate). Empty outside
     * disaggregated runs, leaving every routing decision unchanged.
     */
    std::vector<std::uint8_t> decode_role_;
};

} // namespace serving
} // namespace pipellm

#endif // PIPELLM_SERVING_CLUSTER_HH
