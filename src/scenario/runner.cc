#include "scenario/runner.hh"

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <sstream>

#include "common/csv.hh"
#include "common/logging.hh"
#include "scenario/builder.hh"
#include "chaos/chaos.hh"

namespace pipellm {
namespace scenario {

namespace {

std::string
fixed(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

/** Shared per-kind state: builder, options, output and bookkeeping. */
struct Sweep
{
    const ScenarioSpec &spec;
    const RunOptions &opts;
    ScenarioBuilder builder;
    RunSummary summary;

    Sweep(const ScenarioSpec &s, const RunOptions &o)
        : spec(s), opts(o), builder(s)
    {
    }

    template <typename... Args>
    void
    say(const Args &...args)
    {
        if (opts.progress)
            opts.progress(logConcat(args...));
    }

    CsvWriter
    open(const std::string &name)
    {
        std::filesystem::create_directories(opts.out_dir);
        std::string path = opts.out_dir + "/" + name;
        summary.csv_paths.push_back(path);
        return CsvWriter(path);
    }

    /** "soak.csv" + "_overload" -> "soak_overload.csv". */
    std::string
    derivedCsv(const std::string &suffix) const
    {
        std::string base = spec.csv;
        const std::string ext = ".csv";
        if (base.size() >= ext.size() &&
            base.compare(base.size() - ext.size(), ext.size(), ext) ==
                0)
            base.erase(base.size() - ext.size());
        return base + suffix + ext;
    }

    void
    assertIntegrity(runtime::Platform &platform, unsigned n)
    {
        for (unsigned d = 0; d < n; ++d) {
            PIPELLM_ASSERT(platform.gpu(d).integrityFailures() == 0,
                           "integrity failure on device ", d);
        }
    }
};

void
runClusterScale(Sweep &s)
{
    auto csv = s.open(s.spec.csv);
    csv.header({"n_devices", "mode", "policy", "offered_rate",
                "tokens_per_s", "speedup_vs_1dev", "norm_latency_s_tok",
                "p90_norm_latency_s_tok", "completed", "preemptions",
                "makespan_s", "replica", "replica_requests",
                "replica_tokens_per_s", "replica_norm_latency_s_tok",
                "replica_h2d_gb", "replica_cpu_crypto_gb", "host_mode",
                "shared_lanes", "bridge_gbps"});

    const auto &devices = s.spec.deviceAxis(s.opts.quick);
    std::size_t requests_per_device =
        s.spec.requestsPerDevice(s.opts.quick);
    auto policy = s.spec.cluster.policy;

    for (const auto &host : s.spec.hostAxis()) {
        auto res = s.builder.hostResources(host);
        for (SystemMode mode : s.spec.cluster.modes) {
            double base_tps = 0;
            s.say("-- ", toString(mode), " (",
                  serving::toString(policy), " routing, ", host.name,
                  " host) --");
            for (unsigned n : devices) {
                auto built = s.builder.build(mode, n, host, 0);
                auto r = built.router->run(s.builder.poissonTrace(
                    requests_per_device * n, n));
                ++s.summary.runs;
                s.assertIntegrity(*built.platform, n);
                if (n == 1)
                    base_tps = r.tokens_per_sec;
                double speedup =
                    base_tps > 0 ? r.tokens_per_sec / base_tps : 0;
                s.say("N=", n, "  ", fixed(r.tokens_per_sec, 1),
                      " tok/s  (x", fixed(speedup, 2), ")  ",
                      fixed(r.normalized_latency, 4), " s/tok  p90 ",
                      fixed(r.p90_normalized_latency, 4),
                      "  completed ", r.completed);
                for (const auto &rep : r.replicas) {
                    double rep_tps =
                        rep.result.total_time
                            ? double(rep.routed_tokens) /
                                  toSeconds(rep.result.total_time)
                            : 0;
                    csv.field(n).field(toString(mode))
                        .field(serving::toString(policy))
                        .field(s.spec.trace.rate_per_device * n)
                        .field(r.tokens_per_sec)
                        .field(speedup).field(r.normalized_latency)
                        // Historical column: the completed-weighted
                        // mean of replica p90s, kept so the committed
                        // CSV stays byte-identical (the true merged
                        // p90 lives in p90_normalized_latency).
                        .field(r.replica_weighted_p90)
                        .field(r.completed).field(r.preemptions)
                        .field(toSeconds(r.makespan)).field(rep.device)
                        .field(rep.requests).field(rep_tps)
                        .field(rep.result.normalized_latency)
                        .field(double(rep.runtime_stats.h2d_bytes) /
                               1e9)
                        .field(
                            double(rep.runtime_stats.cpu_encrypt_bytes +
                                   rep.runtime_stats
                                       .cpu_decrypt_bytes) /
                            1e9)
                        .field(host.name)
                        .field(host.shared_crypto_lanes)
                        .field(res.bridge_bw / 1e9)
                        .endRow();
                }
            }
        }
    }
    s.summary.rows += csv.rows();
}

void
runFaultSweep(Sweep &s)
{
    auto csv = s.open(s.spec.csv);
    // The column prefix up to replica_lost_tokens is frozen: scale-0
    // rows must stay byte-identical to the committed file, so
    // p90_norm_latency_s_tok still carries the historical completed-
    // weighted mean of replica p90s (ClusterResult::
    // replica_weighted_p90) and every new column — the true merged
    // p90 and the restart/goodput-dip metrics — is appended after it.
    csv.header({"n_devices", "mode", "fault_scale", "tag_rate",
                "stall_rate", "lane_rate", "crash_rate_per_s",
                "tokens_per_s", "goodput_tok_per_s",
                "norm_latency_s_tok", "p90_norm_latency_s_tok",
                "completed", "dropped", "makespan_s", "tag_faults",
                "tag_retries", "copy_stalls", "lane_faults",
                "crashes", "requeued", "lost_tokens",
                "degraded_entries", "degraded_sends",
                "retry_latency_s", "replica", "replica_crashed",
                "replica_crash_s", "replica_requests",
                "replica_requeued", "replica_absorbed",
                "replica_dropped", "replica_lost_tokens",
                "true_p90_norm_latency_s_tok", "restart_rate_per_s",
                "restarts", "rejoin_time_total_s",
                "goodput_dip_depth", "goodput_dip_s",
                "replica_crash_count", "replica_restarts",
                "replica_rejoined", "replica_rejoin_s",
                "replica_time_to_rejoin_s"});

    const auto &devices = s.spec.deviceAxis(s.opts.quick);
    const auto &scales = s.spec.scaleAxis(s.opts.quick);
    std::size_t requests_per_device =
        s.spec.requestsPerDevice(s.opts.quick);
    const HostVariantSpec private_host;

    for (SystemMode mode : s.spec.cluster.modes) {
        for (unsigned n : devices) {
            s.say("-- ", toString(mode), ", N=", n, " --");
            for (double scale : scales) {
                auto built =
                    s.builder.build(mode, n, private_host, scale);
                auto r = built.router->run(s.builder.poissonTrace(
                    requests_per_device * n, n));
                ++s.summary.runs;
                if (scale == 0) {
                    // Disarmed rows are the byte-identical fault-free
                    // baseline; armed rows legitimately see injected
                    // integrity failures.
                    s.assertIntegrity(*built.platform, n);
                }
                const auto plan = s.builder.scaledPlan(scale);
                const auto &f = r.faults;
                s.say("scale ", fixed(scale, 1), "  ",
                      fixed(r.tokens_per_sec, 1), " tok/s goodput ",
                      fixed(r.goodput_tokens_per_sec, 1), "  ",
                      fixed(r.normalized_latency, 4),
                      " s/tok  retries ", f.tag_retries, "  crashes ",
                      f.replica_crashes, "  restarts ",
                      f.replica_restarts, "  requeued ",
                      f.requeued_requests, "  dropped ", r.dropped);
                // Goodput dip around the first crash: depth and time
                // below the recovery bar (zeros when no replica
                // crashed, e.g. every scale-0 row).
                chaos::DipMetrics dip;
                Tick first_crash = maxTick;
                for (const auto &rep : r.replicas) {
                    if (rep.crash_count > 0)
                        first_crash =
                            std::min(first_crash, rep.crash_time);
                }
                if (first_crash != maxTick) {
                    auto timeline = chaos::goodputTimeline(
                        r.completions,
                        seconds(s.spec.faults.dip_window_s));
                    dip = chaos::dipAfter(
                        timeline, first_crash,
                        s.spec.faults.dip_recover_frac);
                }
                for (const auto &rep : r.replicas) {
                    csv.field(n).field(toString(mode)).field(scale)
                        .field(scale > 0 ? plan.tag_corruption_rate
                                         : 0.0)
                        .field(scale > 0 ? plan.copy_stall_rate : 0.0)
                        .field(scale > 0 ? plan.lane_fault_rate : 0.0)
                        .field(scale > 0 ? plan.replica_crash_rate
                                         : 0.0)
                        .field(r.tokens_per_sec)
                        .field(r.goodput_tokens_per_sec)
                        .field(r.normalized_latency)
                        .field(r.replica_weighted_p90)
                        .field(r.completed).field(r.dropped)
                        .field(toSeconds(r.makespan))
                        .field(f.tag_faults).field(f.tag_retries)
                        .field(f.copy_stalls).field(f.lane_faults)
                        .field(f.replica_crashes)
                        .field(f.requeued_requests)
                        .field(f.lost_tokens).field(f.degraded_entries)
                        .field(f.degraded_sends)
                        .field(toSeconds(f.retry_latency))
                        .field(rep.device).field(rep.crashed ? 1 : 0)
                        .field(rep.crashed ? toSeconds(rep.crash_time)
                                           : 0.0)
                        .field(rep.requests).field(rep.requeued)
                        .field(rep.absorbed).field(rep.dropped)
                        .field(rep.lost_tokens)
                        .field(r.p90_normalized_latency)
                        .field(scale > 0 ? plan.replica_restart_rate
                                         : 0.0)
                        .field(f.replica_restarts)
                        .field(toSeconds(f.restart_rejoin_ticks))
                        .field(dip.dip_depth)
                        .field(toSeconds(dip.dip_duration))
                        .field(rep.crash_count).field(rep.restarts)
                        .field(rep.rejoined ? 1 : 0)
                        .field(rep.rejoined
                                   ? toSeconds(rep.rejoin_time)
                                   : 0.0)
                        .field(toSeconds(rep.time_to_rejoin))
                        .endRow();
                }
            }
        }
    }
    s.summary.rows += csv.rows();
}

void
runSoakKind(Sweep &s)
{
    // Part 1: the phased chaos soak with its recovery invariants.
    auto plan = s.builder.soakPlan(s.opts.quick);
    auto result = chaos::runSoak(plan);
    ++s.summary.runs;
    const auto &c = result.cluster;
    const auto &f = c.faults;

    s.say("completed ", c.completed, "  goodput ",
          fixed(c.goodput_tokens_per_sec, 1), " tok/s  slo-goodput ",
          fixed(c.slo_goodput_tokens_per_sec, 1), " tok/s  true p90 ",
          fixed(c.p90_normalized_latency, 4), " s/tok");
    s.say("crashes ", f.replica_crashes, "  restarts ",
          f.replica_restarts, "  requeued ", f.requeued_requests,
          "  shed ", c.shed_requests, " (", c.shed_tokens,
          " tok)  deferred ", c.deferred_to_rejoin);

    {
        auto csv = s.open(s.spec.csv);
        csv.header({"window_start_s", "window_end_s",
                    "goodput_tok_per_s"});
        for (const auto &w : result.timeline) {
            csv.field(toSeconds(w.start)).field(toSeconds(w.end))
                .field(w.tokens_per_sec).endRow();
        }
        s.summary.rows += csv.rows();
    }

    {
        auto dcsv = s.open(s.derivedCsv("_disturbances"));
        dcsv.header({"disturbance", "at_s", "baseline_tok_per_s",
                     "min_tok_per_s", "dip_depth", "dip_duration_s",
                     "recovered", "recovery_at_s"});
        for (const auto &d : result.disturbances) {
            s.say("  ", d.what, " at ", fixed(toSeconds(d.at), 2),
                  " s  baseline ", fixed(d.dip.baseline_tps, 1),
                  "  min ", fixed(d.dip.min_tps, 1), "  depth ",
                  fixed(d.dip.dip_depth, 2), "  below-bar ",
                  fixed(toSeconds(d.dip.dip_duration), 2), " s  ",
                  d.dip.recovered ? "recovered" : "NOT RECOVERED");
            dcsv.field(d.what).field(toSeconds(d.at))
                .field(d.dip.baseline_tps).field(d.dip.min_tps)
                .field(d.dip.dip_depth)
                .field(toSeconds(d.dip.dip_duration))
                .field(d.dip.recovered ? 1 : 0)
                .field(toSeconds(d.dip.recovery_at)).endRow();
        }
        s.summary.rows += dcsv.rows();
    }

    // The soak's two invariants. The auditor would already have
    // trapped mid-run on any violation; the count is belt and braces.
    PIPELLM_ASSERT(result.audit_violations == 0,
                   "invariant auditor recorded ",
                   result.audit_violations, " violations");
    PIPELLM_ASSERT(result.allRecovered(),
                   "goodput did not recover after every disturbance");
    s.say("soak invariants held: auditor silent, goodput recovered "
          "after all ",
          result.disturbances.size(), " disturbances");

    // Part 2: the overload sweep, admission off vs on.
    const OverloadSpec &o = s.spec.overload;
    std::size_t n_requests =
        s.opts.quick && o.requests_quick > 0 ? o.requests_quick
                                             : o.requests;
    if (n_requests == 0)
        return;
    const auto &multipliers =
        s.opts.quick && !o.multipliers_quick.empty()
            ? o.multipliers_quick
            : o.multipliers;

    auto csv = s.open(s.derivedCsv("_overload"));
    csv.header({"rate_multiplier", "shed", "requests", "completed",
                "shed_requests", "shed_tokens", "slo_missed",
                "goodput_tok_per_s", "slo_goodput_tok_per_s",
                "norm_latency_s_tok", "p90_norm_latency_s_tok",
                "backpressure_deferrals", "makespan_s"});
    for (bool shed : {false, true}) {
        for (double mult : multipliers) {
            auto oplan =
                s.builder.overloadPlan(s.opts.quick, mult, shed);
            auto r = chaos::runSoak(oplan);
            ++s.summary.runs;
            const auto &oc = r.cluster;
            s.say("x", fixed(mult, 1), " shed=", shed ? 1 : 0,
                  "  completed ", oc.completed, "  shed ",
                  oc.shed_requests, "  p90 ",
                  fixed(oc.p90_normalized_latency, 4),
                  " s/tok  goodput ",
                  fixed(oc.goodput_tokens_per_sec, 1),
                  "  slo-goodput ",
                  fixed(oc.slo_goodput_tokens_per_sec, 1));
            csv.field(mult).field(shed ? 1 : 0).field(n_requests)
                .field(oc.completed).field(oc.shed_requests)
                .field(oc.shed_tokens).field(oc.slo_missed)
                .field(oc.goodput_tokens_per_sec)
                .field(oc.slo_goodput_tokens_per_sec)
                .field(oc.normalized_latency)
                .field(oc.p90_normalized_latency)
                .field(oc.backpressure_deferrals)
                .field(toSeconds(oc.makespan)).endRow();
        }
    }
    s.summary.rows += csv.rows();
}

void
runDisagg(Sweep &s)
{
    auto csv = s.open(s.spec.csv);
    csv.header({"n_devices", "prefill_replicas", "decode_replicas",
                "mode", "fault_scale", "migration_tag_rate",
                "migration_stall_rate", "dest_crash_rate",
                "offered_rate", "tokens_per_s", "goodput_tok_per_s",
                "norm_latency_s_tok", "p90_norm_latency_s_tok",
                "completed", "dropped", "makespan_s", "migrations",
                "migrated_chunks", "discarded_chunks",
                "speculated_ivs", "migration_tag_faults",
                "migration_retries", "migration_stalls",
                "migration_fallbacks", "dest_crashes",
                "migrations_rerouted", "replica", "replica_role",
                "replica_requests", "replica_completed",
                "replica_tokens_per_s"});

    const auto &devices = s.spec.deviceAxis(s.opts.quick);
    const auto &scales = s.spec.scaleAxis(s.opts.quick);
    std::size_t requests_per_device =
        s.spec.requestsPerDevice(s.opts.quick);
    const HostVariantSpec private_host;

    for (SystemMode mode : s.spec.cluster.modes) {
        for (unsigned n : devices) {
            s.say("-- ", toString(mode), ", N=", n, " --");
            for (double scale : scales) {
                auto built =
                    s.builder.build(mode, n, private_host, scale);
                auto r = built.router->run(s.builder.poissonTrace(
                    requests_per_device * n, n));
                ++s.summary.runs;
                if (scale == 0) {
                    // Disarmed rows are the byte-identical fault-free
                    // baseline; armed rows legitimately see injected
                    // integrity failures on the migration links.
                    s.assertIntegrity(*built.platform, n);
                }
                const auto plan = s.builder.scaledPlan(scale);
                const auto &f = r.faults;
                unsigned prefill_n = 0;
                for (const auto &rep : r.replicas)
                    prefill_n += rep.prefill ? 1 : 0;
                s.say("scale ", fixed(scale, 1), "  ",
                      fixed(r.tokens_per_sec, 1), " tok/s  ",
                      fixed(r.normalized_latency, 4), " s/tok  ",
                      "migrations ", f.migrations, " (",
                      f.migrated_chunks, " chunks, ",
                      f.speculated_migration_ivs, " speculated IVs)  ",
                      "retries ", f.migration_retries, "  stalls ",
                      f.migration_stalls, "  rerouted ",
                      f.migrations_rerouted, "  fallbacks ",
                      f.migration_fallbacks);
                for (const auto &rep : r.replicas) {
                    double rep_tps =
                        rep.result.total_time
                            ? double(rep.routed_tokens) /
                                  toSeconds(rep.result.total_time)
                            : 0;
                    csv.field(n).field(prefill_n)
                        .field(n - prefill_n).field(toString(mode))
                        .field(scale)
                        .field(scale > 0 ? plan.migration_tag_rate
                                         : 0.0)
                        .field(scale > 0 ? plan.migration_stall_rate
                                         : 0.0)
                        .field(scale > 0 ? plan.dest_crash_rate : 0.0)
                        .field(s.spec.trace.rate_per_device * n)
                        .field(r.tokens_per_sec)
                        .field(r.goodput_tokens_per_sec)
                        .field(r.normalized_latency)
                        .field(r.p90_normalized_latency)
                        .field(r.completed).field(r.dropped)
                        .field(toSeconds(r.makespan))
                        .field(f.migrations).field(f.migrated_chunks)
                        .field(f.discarded_chunks)
                        .field(f.speculated_migration_ivs)
                        .field(f.migration_tag_faults)
                        .field(f.migration_retries)
                        .field(f.migration_stalls)
                        .field(f.migration_fallbacks)
                        .field(f.dest_mid_migration_crashes)
                        .field(f.migrations_rerouted)
                        .field(rep.device)
                        .field(rep.prefill ? "prefill" : "decode")
                        .field(rep.requests)
                        .field(rep.result.completed).field(rep_tps)
                        .endRow();
                }
            }
        }
    }
    s.summary.rows += csv.rows();
}

} // namespace

RunSummary
runScenario(const ScenarioSpec &spec, const RunOptions &opts)
{
    Sweep sweep(spec, opts);
    sweep.say("=== scenario ", spec.name, " (", toString(spec.kind),
              opts.quick ? ", quick" : "", ") ===");
    switch (spec.kind) {
      case ScenarioKind::ClusterScale:
        runClusterScale(sweep);
        break;
      case ScenarioKind::FaultSweep:
        runFaultSweep(sweep);
        break;
      case ScenarioKind::Soak:
        runSoakKind(sweep);
        break;
      case ScenarioKind::Disagg:
        runDisagg(sweep);
        break;
    }
    return std::move(sweep.summary);
}

} // namespace scenario
} // namespace pipellm
