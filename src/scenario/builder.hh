/**
 * @file
 * ScenarioBuilder: materialize simulator objects from a ScenarioSpec.
 *
 * The builder is the one place scenario vocabulary (preset names,
 * human units, sweep axes) turns into simulator types — Platform,
 * ClusterRouter, TraceGenerator, FaultPlan, SoakPlan. Each method
 * reproduces the construction the hand-written bench mains used to
 * perform, in the same order with the same expressions, which is what
 * keeps regenerated CSVs byte-identical to the committed ones; the
 * builder-equivalence tests pin that down per figure.
 */

#ifndef PIPELLM_SCENARIO_BUILDER_HH
#define PIPELLM_SCENARIO_BUILDER_HH

#include <memory>

#include "scenario/spec.hh"
#include "serving/cluster.hh"
#include "chaos/chaos.hh"
#include "trace/generator.hh"

namespace pipellm {
namespace scenario {

/** One materialized cluster: the router plus the Platform it serves
 *  on (the router holds a reference, so ownership rides together). */
struct BuiltCluster
{
    std::unique_ptr<runtime::Platform> platform;
    std::unique_ptr<serving::ClusterRouter> router;
};

class ScenarioBuilder
{
  public:
    /** @p spec must outlive the builder and pass validate(). */
    explicit ScenarioBuilder(const ScenarioSpec &spec);

    const ScenarioSpec &spec() const { return spec_; }

    /** The calibrated hardware profile named by [device] spec. */
    gpu::SystemSpec systemSpec() const;

    /** Functional-crypto sampling from [device]. */
    crypto::ChannelConfig channelConfig() const;

    /** The ModelConfig preset named by [engine] model. */
    llm::ModelConfig model() const;

    /** The DatasetProfile named by [trace], with the clip applied. */
    trace::DatasetProfile datasetProfile() const;

    /** HostResources for one [host] variant (GB/s -> bytes/s). */
    runtime::HostResources hostResources(
        const HostVariantSpec &host) const;

    /**
     * The PipeLLM configuration preset from [pipe], with @p host 's
     * lane-lead override applied (contended pools keep speculation
     * just-in-time).
     */
    core::PipeLlmConfig pipeConfig(const HostVariantSpec &host) const;

    /** ClusterConfig with the engine/policy/admission knobs set. */
    serving::ClusterConfig clusterConfig() const;

    /**
     * The [faults] plan with every rate multiplied by @p scale
     * (human units converted to ticks/bytes here, not in the spec,
     * so scenario text round-trips exactly).
     */
    fault::FaultPlan scaledPlan(double scale) const;

    /** The Poisson arrival trace for an @p n_devices cluster. */
    trace::Trace poissonTrace(std::size_t n_requests,
                              unsigned n_devices) const;

    /**
     * Materialize one sweep point: Platform on @p host, faults armed
     * when @p fault_scale > 0, one @p mode replica per device behind
     * the router. The unnamed fifth parameter is ignored; it stays
     * only because perfbench/perfbench.cc still passes a worker
     * count, and goes when that file next changes.
     */
    BuiltCluster build(SystemMode mode, unsigned n_devices,
                       const HostVariantSpec &host, double fault_scale,
                       unsigned = 1) const;

    /** The chaos SoakPlan for a kind=soak scenario. */
    chaos::SoakPlan soakPlan(bool quick) const;

    /**
     * The [overload] sweep point at @p multiplier: faults disarmed,
     * one phase at the swept rate, the tight overload SLO, shedding
     * per @p shed.
     */
    chaos::SoakPlan overloadPlan(bool quick, double multiplier,
                                 bool shed) const;

  private:
    const ScenarioSpec &spec_;
};

} // namespace scenario
} // namespace pipellm

#endif // PIPELLM_SCENARIO_BUILDER_HH
