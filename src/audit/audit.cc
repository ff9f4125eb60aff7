#include "audit/audit.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.hh"

namespace pipellm {
namespace audit {

std::uint64_t
digest(const void *data, std::size_t len)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

const char *
toString(Check check)
{
    switch (check) {
      case Check::IvReuse:
        return "iv-reuse";
      case Check::TagLedger:
        return "tag-ledger";
      case Check::LaneOverlap:
        return "lane-overlap";
      case Check::ClockRegression:
        return "clock-regression";
      case Check::ChainCompletion:
        return "chain-completion";
      case Check::BridgeConservation:
        return "bridge-conservation";
      case Check::DecryptBeforeArrival:
        return "decrypt-before-arrival";
      case Check::FrontierRegression:
        return "frontier-regression";
      case Check::EarlyDelivery:
        return "early-delivery";
      case Check::ResidualLoad:
        return "residual-load";
    }
    return "?";
}

Auditor &
Auditor::instance()
{
    static Auditor auditor;
    return auditor;
}

void
Auditor::reset()
{
    common::LockGuard lock(mu_);
    trap_ = true;
    violations_.clear();
    for (auto &count : evaluations_)
        count = 0;
    exposures_.clear();
    channel_epoch_.clear();
    ledger_.clear();
    resources_.clear();
    shared_stages_.clear();
    frontier_.clear();
}

std::size_t
Auditor::count(Check check) const
{
    common::LockGuard lock(mu_);
    std::size_t n = 0;
    for (const auto &v : violations_) {
        if (v.check == check)
            ++n;
    }
    return n;
}

std::uint64_t
Auditor::evaluations(Check check) const
{
    common::LockGuard lock(mu_);
    return evaluations_[std::size_t(check)];
}

std::string
Auditor::report() const
{
    common::LockGuard lock(mu_);
    std::ostringstream os;
    os << "audit: " << violations_.size() << " violation(s)\n";
    for (const auto &v : violations_)
        os << "  [" << toString(v.check) << "] " << v.message << "\n";
    return os.str();
}

void
Auditor::violate(Check check, std::string message)
{
    violations_.push_back(Violation{check, message});
    if (trap_) {
        PANIC("audit violation [", toString(check), "]: ",
              std::move(message));
    }
}

// --- crypto ---

void
Auditor::noteSessionEpoch(std::uint64_t channel_id)
{
    common::LockGuard lock(mu_);
    ++channel_epoch_[channel_id];
}

void
Auditor::noteExposure(std::uint64_t channel_id, int dir,
                      std::uint64_t counter)
{
    common::LockGuard lock(mu_);
    evaluated(Check::IvReuse);
    ExposureKey key{channel_id, channel_epoch_[channel_id], dir,
                    counter};
    auto [it, fresh] = exposures_.emplace(key, Exposure{});
    if (!fresh) {
        violate(Check::IvReuse,
                logConcat("channel #", channel_id, " exposed two ",
                          "ciphertexts under (dir=", dir, ", counter=",
                          counter, ") in epoch ", key.epoch,
                          it->second.retained
                              ? " (first was a retained blob)"
                              : ""));
    }
}

void
Auditor::noteRetainedExposure(std::uint64_t channel_id, int dir,
                              std::uint64_t counter,
                              std::uint64_t tag_digest)
{
    common::LockGuard lock(mu_);
    evaluated(Check::IvReuse);
    ExposureKey key{channel_id, channel_epoch_[channel_id], dir,
                    counter};
    Exposure exposure;
    exposure.retained = true;
    exposure.tag_digest = tag_digest;
    auto [it, fresh] = exposures_.emplace(key, exposure);
    if (fresh)
        return;
    if (!it->second.retained) {
        violate(Check::IvReuse,
                logConcat("channel #", channel_id, " retained blob ",
                          "collides with a lockstep exposure at (dir=",
                          dir, ", counter=", counter, ")"));
    } else if (it->second.tag_digest != tag_digest) {
        // Replaying the identical ciphertext is the §8.2 design; a
        // *different* ciphertext under a used retained IV is two-time
        // pad material.
        violate(Check::IvReuse,
                logConcat("channel #", channel_id, " exposed two ",
                          "distinct retained ciphertexts under (dir=",
                          dir, ", counter=", counter, ")"));
    }
}

std::uint64_t
Auditor::noteSeal(std::uint64_t channel_id, int dir,
                  std::uint64_t counter)
{
    common::LockGuard lock(mu_);
    std::uint64_t serial = ++next_serial_;
    BlobRecord record;
    record.channel = channel_id;
    record.dir = dir;
    record.counter = counter;
    ledger_.emplace(serial, record);
    return serial;
}

void
Auditor::noteVerified(std::uint64_t serial)
{
    common::LockGuard lock(mu_);
    auto it = ledger_.find(serial);
    if (it == ledger_.end())
        return;
    if (it->second.state == BlobState::Discarded) {
        evaluated(Check::TagLedger);
        violate(Check::TagLedger,
                logConcat("blob #", serial, " (channel #",
                          it->second.channel, " dir ", it->second.dir,
                          " counter ", it->second.counter,
                          ") was verified after being explicitly ",
                          "discarded"));
    }
    it->second.state = BlobState::Verified;
}

void
Auditor::noteDiscarded(std::uint64_t serial)
{
    common::LockGuard lock(mu_);
    auto it = ledger_.find(serial);
    if (it != ledger_.end() && it->second.state == BlobState::Sealed)
        it->second.state = BlobState::Discarded;
}

std::size_t
Auditor::outstandingBlobs() const
{
    common::LockGuard lock(mu_);
    std::size_t n = 0;
    for (const auto &[serial, record] : ledger_) {
        if (record.state == BlobState::Sealed)
            ++n;
    }
    return n;
}

void
Auditor::checkLedgerDrained(const char *context)
{
    common::LockGuard lock(mu_);
    evaluated(Check::TagLedger);
    // The ledger is a hash map; sort the sealed serials so the sample
    // in the violation message is deterministic (the lint's
    // determinism check exists precisely because this once wasn't).
    std::vector<std::uint64_t> sealed;
    for (const auto &[serial, record] : ledger_) {
        if (record.state == BlobState::Sealed)
            sealed.push_back(serial);
    }
    std::sort(sealed.begin(), sealed.end());
    std::size_t outstanding = sealed.size();
    std::ostringstream sample;
    for (std::size_t i = 0; i < std::min<std::size_t>(4, sealed.size());
         ++i) {
        const BlobRecord &record = ledger_.at(sealed[i]);
        sample << " (channel #" << record.channel << " dir "
               << record.dir << " counter " << record.counter << ")";
    }
    if (outstanding > 0) {
        violate(Check::TagLedger,
                logConcat(context, ": ", outstanding, " sealed blob(s)",
                          " neither verified nor discarded, e.g.",
                          sample.str()));
    }
}

// --- sim ---

void
Auditor::noteService(std::uint64_t res_id, const std::string &name,
                     Tick start, Tick done, std::uint64_t bytes)
{
    common::LockGuard lock(mu_);
    evaluated(Check::LaneOverlap);
    evaluated(Check::ClockRegression);
    auto &state = resources_[res_id];
    if (done < start) {
        violate(Check::ClockRegression,
                logConcat(name, ": service interval [", start, ", ",
                          done, "] runs backwards"));
    }
    if (state.seen && start < state.last_done) {
        violate(Check::LaneOverlap,
                logConcat(name, ": op starting at ", start,
                          " overlaps previous op ending at ",
                          state.last_done,
                          " on a serialized resource"));
    }
    state.last_start = start;
    state.last_done = done;
    state.seen = true;
    state.served_bytes += bytes;
}

void
Auditor::noteChainForward(std::uint64_t down_id,
                          const std::string &down_name,
                          std::uint64_t bytes, Tick upstream_done,
                          Tick chain_done)
{
    common::LockGuard lock(mu_);
    evaluated(Check::ChainCompletion);
    if (chain_done < upstream_done) {
        violate(Check::ChainCompletion,
                logConcat(down_name, ": chained completion ",
                          chain_done, " precedes upstream completion ",
                          upstream_done));
    }
    auto &stage = shared_stages_[down_id];
    if (stage.name.empty())
        stage.name = down_name;
    stage.forwarded += bytes;
}

void
Auditor::noteDecrypt(Tick arrival, Tick plain_ready)
{
    common::LockGuard lock(mu_);
    evaluated(Check::DecryptBeforeArrival);
    if (plain_ready < arrival) {
        violate(Check::DecryptBeforeArrival,
                logConcat("plaintext ready at ", plain_ready,
                          " before its ciphertext lands at ", arrival));
    }
}

void
Auditor::checkConservation()
{
    common::LockGuard lock(mu_);
    evaluated(Check::BridgeConservation);
    // Audit ids are assigned in construction order; checking stages in
    // id order keeps the violation sequence independent of the hash
    // map's iteration order.
    std::vector<std::uint64_t> ids;
    ids.reserve(shared_stages_.size());
    for (const auto &[id, stage] : shared_stages_)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (std::uint64_t id : ids)
        checkStage(id, shared_stages_.at(id));
}

void
Auditor::checkConservation(std::uint64_t stage_id)
{
    common::LockGuard lock(mu_);
    evaluated(Check::BridgeConservation);
    auto it = shared_stages_.find(stage_id);
    if (it != shared_stages_.end())
        checkStage(it->first, it->second);
}

void
Auditor::checkStage(std::uint64_t id, const SharedStage &stage)
{
    auto it = resources_.find(id);
    std::uint64_t served =
        it == resources_.end() ? 0 : it->second.served_bytes;
    if (served != stage.forwarded) {
        violate(Check::BridgeConservation,
                logConcat(stage.name, ": served ", served,
                          " bytes but upstreams forwarded ",
                          stage.forwarded));
    }
}

// --- serving ---

void
Auditor::noteFrontier(std::uint64_t run_id, Tick t)
{
    common::LockGuard lock(mu_);
    evaluated(Check::FrontierRegression);
    auto [it, fresh] = frontier_.emplace(run_id, t);
    if (!fresh) {
        if (t < it->second) {
            violate(Check::FrontierRegression,
                    logConcat("cluster run #", run_id,
                              ": frontier moved from ", it->second,
                              " back to ", t));
        }
        it->second = std::max(it->second, t);
    }
}

void
Auditor::noteReplicaStep(std::uint64_t run_id, Tick engine_clock,
                         Tick frontier)
{
    common::LockGuard lock(mu_);
    evaluated(Check::FrontierRegression);
    if (engine_clock > frontier) {
        violate(Check::FrontierRegression,
                logConcat("cluster run #", run_id, ": stepped a ",
                          "replica at clock ", engine_clock,
                          " ahead of the frontier ", frontier));
    }
}

void
Auditor::noteDelivery(std::uint64_t run_id, Tick arrival,
                      Tick engine_clock)
{
    common::LockGuard lock(mu_);
    evaluated(Check::EarlyDelivery);
    if (engine_clock < arrival) {
        violate(Check::EarlyDelivery,
                logConcat("cluster run #", run_id, ": request with ",
                          "arrival ", arrival,
                          " delivered to a replica at clock ",
                          engine_clock));
    }
}

void
Auditor::noteRunEnd(std::uint64_t run_id, std::uint64_t residual_load)
{
    common::LockGuard lock(mu_);
    evaluated(Check::ResidualLoad);
    frontier_.erase(run_id);
    if (residual_load != 0) {
        violate(Check::ResidualLoad,
                logConcat("cluster run #", run_id, ": router load ",
                          "accounting left ", residual_load,
                          " outstanding tokens after the run drained"));
    }
}

} // namespace audit
} // namespace pipellm
