/**
 * @file
 * Bit-exact textual image of a ClusterResult, used by the scenario
 * builder-equivalence tests.
 */

#ifndef PIPELLM_TESTS_SERVING_CLUSTER_FINGERPRINT_HH
#define PIPELLM_TESTS_SERVING_CLUSTER_FINGERPRINT_HH

#include <ios>
#include <sstream>
#include <string>

#include "serving/cluster.hh"

namespace serving_test {

/**
 * Exact textual image of everything a bench CSV row could be printed
 * from. Doubles are serialized as hexfloats so the comparison is
 * bit-for-bit, not round-trip-through-decimal.
 */
inline std::string
fingerprint(const pipellm::serving::ClusterResult &r)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << r.normalized_latency << '|' << r.p90_normalized_latency
       << '|' << r.replica_weighted_p90 << '|' << r.completed << '|'
       << r.preemptions << '|' << r.makespan << '|' << r.tokens_per_sec
       << '|' << r.goodput_tokens_per_sec << '|' << r.dropped << '|'
       << r.shed_requests << '|' << r.shed_tokens << '|' << r.slo_missed
       << '|' << r.slo_missed_tokens << '|'
       << r.slo_goodput_tokens_per_sec << '|'
       << r.backpressure_deferrals << '|' << r.deferred_to_rejoin
       << '\n';
    os << "faults:" << r.faults.tag_faults << '/'
       << r.faults.tag_retries << '/' << r.faults.copy_stalls << '/'
       << r.faults.lane_faults << '/' << r.faults.replica_crashes
       << '\n';
    os << "migration:" << r.faults.migrations << '/'
       << r.faults.migrated_chunks << '/'
       << r.faults.discarded_chunks << '/'
       << r.faults.migration_tag_faults << '/'
       << r.faults.migration_retries << '/'
       << r.faults.migration_stalls << '/'
       << r.faults.migration_fallbacks << '/'
       << r.faults.dest_mid_migration_crashes << '/'
       << r.faults.migrations_rerouted << '/'
       << r.faults.speculated_migration_ivs << '\n';
    for (const auto &c : r.completions)
        os << "c:" << c.at << ':' << c.tokens << '\n';
    for (const auto &rep : r.replicas) {
        os << "r" << rep.device << ':' << rep.requests << ':'
           << rep.routed_tokens << ':' << rep.crashed << ':'
           << rep.crash_time << ':' << rep.requeued << ':'
           << rep.dropped << ':' << rep.absorbed << ':'
           << rep.lost_tokens << ':' << rep.crash_count << ':'
           << rep.restarts << ':' << rep.rejoined << ':'
           << rep.rejoin_time << ':' << rep.time_to_rejoin << '\n';
        const auto &v = rep.result;
        os << "  v:" << v.normalized_latency << ':'
           << v.p90_normalized_latency << ':' << v.completed << ':'
           << v.completed_tokens << ':' << v.preemptions << ':'
           << v.recomputed_tokens << ':' << v.swap_out_bytes << ':'
           << v.swap_in_bytes << ':' << v.total_time << ':'
           << v.slo_missed << ':' << v.slo_missed_tokens << '\n';
        const auto &s = rep.runtime_stats;
        os << "  s:" << s.h2d_calls << ':' << s.h2d_bytes << ':'
           << s.d2h_calls << ':' << s.d2h_bytes << ':' << s.kernels
           << ':' << s.cpu_encrypt_bytes << ':' << s.cpu_decrypt_bytes
           << '\n';
    }
    return os.str();
}

} // namespace serving_test

#endif // PIPELLM_TESTS_SERVING_CLUSTER_FINGERPRINT_HH
