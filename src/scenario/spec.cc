#include "scenario/spec.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace pipellm {
namespace scenario {

namespace {

std::string
trim(const std::string &s)
{
    auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

std::vector<std::string>
tokens(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string tok;
    while (is >> tok)
        out.push_back(tok);
    return out;
}

/** Shortest text that round-trips the double exactly. */
std::string
fmtDouble(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    PIPELLM_ASSERT(res.ec == std::errc(), "double format failed");
    return std::string(buf, res.ptr);
}

/**
 * Parse a finite double. std::from_chars also accepts "nan" and
 * "inf", which no scenario value means and which turn into undefined
 * behaviour once converted to ticks or bytes, so they are rejected.
 */
bool
parseDoubleValue(const std::string &s, double &out)
{
    const char *first = s.data();
    const char *last = s.data() + s.size();
    auto res = std::from_chars(first, last, out);
    return res.ec == std::errc() && res.ptr == last && std::isfinite(out);
}

bool
parseU64Value(const std::string &s, std::uint64_t &out)
{
    const char *first = s.data();
    const char *last = s.data() + s.size();
    auto res = std::from_chars(first, last, out);
    return res.ec == std::errc() && res.ptr == last;
}

/** Parse state threaded through the per-section key handlers. */
struct Ctx
{
    ScenarioSpec spec;
    std::vector<std::string> errors;
    std::string origin;
    int line = 0;
    /** Host variant the current `[host <name>]` section fills. */
    HostVariantSpec *host = nullptr;

    template <typename... Args>
    void
    err(const Args &...args)
    {
        errors.push_back(logConcat(origin, ":", line, ": ", args...));
    }

    void
    badValue(const std::string &key, const std::string &value,
             const char *expect)
    {
        err("bad value '", value, "' for ", key, " (expected ",
            expect, ")");
    }

    bool
    getDouble(const std::string &key, const std::string &value,
              double &out)
    {
        if (parseDoubleValue(value, out))
            return true;
        badValue(key, value, "a finite number");
        return false;
    }

    bool
    getU64(const std::string &key, const std::string &value,
           std::uint64_t &out)
    {
        if (parseU64Value(value, out))
            return true;
        badValue(key, value, "a non-negative integer");
        return false;
    }

    bool
    getUnsigned(const std::string &key, const std::string &value,
                unsigned &out)
    {
        std::uint64_t wide = 0;
        if (parseU64Value(value, wide) && wide <= 0xffffffffull) {
            out = unsigned(wide);
            return true;
        }
        badValue(key, value, "a non-negative integer");
        return false;
    }

    bool
    getU32(const std::string &key, const std::string &value,
           std::uint32_t &out)
    {
        unsigned u = 0;
        if (!getUnsigned(key, value, u))
            return false;
        out = u;
        return true;
    }

    bool
    getSize(const std::string &key, const std::string &value,
            std::size_t &out)
    {
        std::uint64_t wide = 0;
        if (!getU64(key, value, wide))
            return false;
        out = std::size_t(wide);
        return true;
    }

    bool
    getBool(const std::string &key, const std::string &value,
            bool &out)
    {
        if (value == "on" || value == "true" || value == "1") {
            out = true;
            return true;
        }
        if (value == "off" || value == "false" || value == "0") {
            out = false;
            return true;
        }
        badValue(key, value, "on/off");
        return false;
    }

    bool
    getDoubleList(const std::string &key, const std::string &value,
                  std::vector<double> &out)
    {
        std::vector<double> parsed;
        for (const auto &tok : tokens(value)) {
            double v = 0;
            if (!parseDoubleValue(tok, v)) {
                badValue(key, tok, "a list of finite numbers");
                return false;
            }
            parsed.push_back(v);
        }
        out = std::move(parsed);
        return true;
    }

    bool
    getUnsignedList(const std::string &key, const std::string &value,
                    std::vector<unsigned> &out)
    {
        std::vector<unsigned> parsed;
        for (const auto &tok : tokens(value)) {
            std::uint64_t v = 0;
            if (!parseU64Value(tok, v) || v > 0xffffffffull) {
                badValue(key, tok,
                         "a list of non-negative integers");
                return false;
            }
            parsed.push_back(unsigned(v));
        }
        out = std::move(parsed);
        return true;
    }
};

/** Levenshtein distance, for did-you-mean kind suggestions. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t sub = diag + (a[i - 1] != b[j - 1]);
            diag = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
        }
    }
    return row[b.size()];
}

std::string
joinKindNames()
{
    std::string out;
    for (const auto &k : scenarioKinds()) {
        if (!out.empty())
            out += "/";
        out += k.name;
    }
    return out;
}

void
scenarioKey(Ctx &c, const std::string &key, const std::string &value)
{
    if (key == "name") {
        c.spec.name = value;
    } else if (key == "kind") {
        bool found = false;
        for (const auto &k : scenarioKinds()) {
            if (value == k.name) {
                c.spec.kind = k.kind;
                found = true;
                break;
            }
        }
        if (!found) {
            c.err("unknown kind '", value, "' (known: ",
                  joinKindNames(), "; did you mean '",
                  nearestScenarioKind(value), "'?)");
        }
    } else if (key == "csv") {
        c.spec.csv = value;
    } else {
        c.err("unknown key '", key,
              "' in [scenario] (known: name, kind, csv)");
    }
}

void
clusterKey(Ctx &c, const std::string &key, const std::string &value)
{
    auto &cl = c.spec.cluster;
    if (key == "devices") {
        c.getUnsignedList(key, value, cl.devices);
    } else if (key == "devices_quick") {
        c.getUnsignedList(key, value, cl.devices_quick);
    } else if (key == "modes") {
        std::vector<SystemMode> modes;
        bool ok = true;
        for (const auto &tok : tokens(value)) {
            auto mode = parseSystemMode(tok);
            if (!mode) {
                c.badValue(key, tok, "Plain/Cc/Cc4t/Pipe/Pipe0");
                ok = false;
                break;
            }
            modes.push_back(*mode);
        }
        if (ok)
            cl.modes = std::move(modes);
    } else if (key == "policy") {
        if (value == "round_robin")
            cl.policy = serving::RoutePolicy::RoundRobin;
        else if (value == "least_loaded")
            cl.policy = serving::RoutePolicy::LeastLoaded;
        else
            c.badValue(key, value, "round_robin/least_loaded");
    } else {
        c.err("unknown key '", key,
              "' in [cluster] (known: devices, devices_quick, modes, "
              "policy)");
    }
}

void
deviceKey(Ctx &c, const std::string &key, const std::string &value)
{
    if (key == "spec")
        c.spec.device.spec = value;
    else if (key == "channel_sample_limit")
        c.getUnsigned(key, value, c.spec.device.channel_sample_limit);
    else
        c.err("unknown key '", key,
              "' in [device] (known: spec, channel_sample_limit)");
}

void
engineKey(Ctx &c, const std::string &key, const std::string &value)
{
    if (key == "model")
        c.spec.engine.model = value;
    else if (key == "parallel_sampling")
        c.getUnsigned(key, value, c.spec.engine.parallel_sampling);
    else
        c.err("unknown key '", key,
              "' in [engine] (known: model, parallel_sampling)");
}

void
pipeKey(Ctx &c, const std::string &key, const std::string &value)
{
    if (key == "kind") {
        if (value == "kv")
            c.spec.pipe.kind = PipeSpec::Kind::Kv;
        else if (value == "offload")
            c.spec.pipe.kind = PipeSpec::Kind::Offload;
        else
            c.badValue(key, value, "kv/offload");
    } else {
        c.err("unknown key '", key, "' in [pipe] (known: kind)");
    }
}

void
traceKey(Ctx &c, const std::string &key, const std::string &value)
{
    auto &t = c.spec.trace;
    if (key == "dataset")
        t.dataset = value;
    else if (key == "max_len")
        c.getU32(key, value, t.max_len);
    else if (key == "seed")
        c.getU64(key, value, t.seed);
    else if (key == "rate_per_device")
        c.getDouble(key, value, t.rate_per_device);
    else if (key == "requests_per_device")
        c.getSize(key, value, t.requests_per_device);
    else if (key == "requests_per_device_quick")
        c.getSize(key, value, t.requests_per_device_quick);
    else
        c.err("unknown key '", key,
              "' in [trace] (known: dataset, max_len, seed, "
              "rate_per_device, requests_per_device, "
              "requests_per_device_quick)");
}

void
hostKey(Ctx &c, const std::string &key, const std::string &value)
{
    auto &h = *c.host;
    if (key == "shared_crypto_lanes")
        c.getUnsigned(key, value, h.shared_crypto_lanes);
    else if (key == "bridge_gbps")
        c.getDouble(key, value, h.bridge_gbps);
    else if (key == "bridge_latency_us")
        c.getDouble(key, value, h.bridge_latency_us);
    else if (key == "pipe_max_lane_lead_ms")
        c.getDouble(key, value, h.pipe_max_lane_lead_ms);
    else
        c.err("unknown key '", key,
              "' in [host ", h.name,
              "] (known: shared_crypto_lanes, bridge_gbps, "
              "bridge_latency_us, pipe_max_lane_lead_ms)");
}

void
faultsKey(Ctx &c, const std::string &key, const std::string &value)
{
    auto &f = c.spec.faults;
    if (key == "seed")
        c.getU64(key, value, f.seed);
    else if (key == "tag_corruption_rate")
        c.getDouble(key, value, f.tag_corruption_rate);
    else if (key == "copy_stall_rate")
        c.getDouble(key, value, f.copy_stall_rate);
    else if (key == "lane_fault_rate")
        c.getDouble(key, value, f.lane_fault_rate);
    else if (key == "replica_crash_rate")
        c.getDouble(key, value, f.replica_crash_rate);
    else if (key == "replica_restart_rate")
        c.getDouble(key, value, f.replica_restart_rate);
    else if (key == "spdm_rekey_ms")
        c.getDouble(key, value, f.spdm_rekey_ms);
    else if (key == "warmup_probe_kib")
        c.getDouble(key, value, f.warmup_probe_kib);
    else if (key == "migration_tag_rate")
        c.getDouble(key, value, f.migration_tag_rate);
    else if (key == "migration_stall_rate")
        c.getDouble(key, value, f.migration_stall_rate);
    else if (key == "dest_crash_rate")
        c.getDouble(key, value, f.dest_crash_rate);
    else if (key == "migration_stall_timeout_us")
        c.getDouble(key, value, f.migration_stall_timeout_us);
    else if (key == "max_migration_attempts")
        c.getUnsigned(key, value, f.max_migration_attempts);
    else if (key == "storm_start_s")
        c.getDouble(key, value, f.storm_start_s);
    else if (key == "storm_end_s")
        c.getDouble(key, value, f.storm_end_s);
    else if (key == "storm_multiplier")
        c.getDouble(key, value, f.storm_multiplier);
    else if (key == "crash_devices")
        c.getUnsignedList(key, value, f.crash_devices);
    else if (key == "scales")
        c.getDoubleList(key, value, f.scales);
    else if (key == "scales_quick")
        c.getDoubleList(key, value, f.scales_quick);
    else if (key == "dip_window_s")
        c.getDouble(key, value, f.dip_window_s);
    else if (key == "dip_recover_frac")
        c.getDouble(key, value, f.dip_recover_frac);
    else
        c.err("unknown key '", key,
              "' in [faults] (known: seed, tag_corruption_rate, "
              "copy_stall_rate, lane_fault_rate, replica_crash_rate, "
              "replica_restart_rate, spdm_rekey_ms, warmup_probe_kib, "
              "migration_tag_rate, migration_stall_rate, "
              "dest_crash_rate, migration_stall_timeout_us, "
              "max_migration_attempts, storm_start_s, storm_end_s, "
              "storm_multiplier, crash_devices, scales, scales_quick, "
              "dip_window_s, dip_recover_frac)");
}

void
disaggKey(Ctx &c, const std::string &key, const std::string &value)
{
    auto &d = c.spec.disagg;
    if (key == "prefill_replicas")
        c.getUnsigned(key, value, d.prefill_replicas);
    else if (key == "chunk_kib")
        c.getDouble(key, value, d.chunk_kib);
    else if (key == "pipeline_depth")
        c.getUnsigned(key, value, d.pipeline_depth);
    else
        c.err("unknown key '", key,
              "' in [disagg] (known: prefill_replicas, chunk_kib, "
              "pipeline_depth)");
}

void
admissionKey(Ctx &c, const std::string &key, const std::string &value)
{
    auto &a = c.spec.admission;
    if (key == "shed")
        c.getBool(key, value, a.shed);
    else if (key == "service_cost_per_sec")
        c.getDouble(key, value, a.service_cost_per_sec);
    else if (key == "max_outstanding_cost")
        c.getU64(key, value, a.max_outstanding_cost);
    else
        c.err("unknown key '", key,
              "' in [admission] (known: shed, service_cost_per_sec, "
              "max_outstanding_cost)");
}

void
sloKey(Ctx &c, const std::string &key, const std::string &value)
{
    if (key == "floor_s")
        c.getDouble(key, value, c.spec.slo.floor_s);
    else if (key == "per_token_ms")
        c.getDouble(key, value, c.spec.slo.per_token_ms);
    else
        c.err("unknown key '", key,
              "' in [slo] (known: floor_s, per_token_ms)");
}

void
soakKey(Ctx &c, const std::string &key, const std::string &value)
{
    auto &s = c.spec.soak;
    if (key == "phase") {
        auto parts = tokens(value);
        SoakPhaseSpec phase;
        std::uint64_t req = 0;
        std::uint64_t req_quick = 0;
        if (parts.size() == 3 && parseU64Value(parts[0], req) &&
            parseU64Value(parts[1], req_quick) &&
            parseDoubleValue(parts[2], phase.rate_per_device)) {
            phase.requests = std::size_t(req);
            phase.requests_quick = std::size_t(req_quick);
            s.phases.push_back(phase);
        } else {
            c.badValue(key, value,
                       "'<requests> <requests_quick> "
                       "<rate_per_device>'");
        }
    } else if (key == "goodput_window_s") {
        c.getDouble(key, value, s.goodput_window_s);
    } else if (key == "recover_frac") {
        c.getDouble(key, value, s.recover_frac);
    } else {
        c.err("unknown key '", key,
              "' in [soak] (known: phase, goodput_window_s, "
              "recover_frac)");
    }
}

void
overloadKey(Ctx &c, const std::string &key, const std::string &value)
{
    auto &o = c.spec.overload;
    if (key == "multipliers")
        c.getDoubleList(key, value, o.multipliers);
    else if (key == "multipliers_quick")
        c.getDoubleList(key, value, o.multipliers_quick);
    else if (key == "requests")
        c.getSize(key, value, o.requests);
    else if (key == "requests_quick")
        c.getSize(key, value, o.requests_quick);
    else if (key == "rate_per_device")
        c.getDouble(key, value, o.rate_per_device);
    else if (key == "slo_floor_s")
        c.getDouble(key, value, o.slo_floor_s);
    else if (key == "slo_per_token_ms")
        c.getDouble(key, value, o.slo_per_token_ms);
    else if (key == "service_cost_per_sec")
        c.getDouble(key, value, o.service_cost_per_sec);
    else
        c.err("unknown key '", key,
              "' in [overload] (known: multipliers, "
              "multipliers_quick, requests, requests_quick, "
              "rate_per_device, slo_floor_s, slo_per_token_ms, "
              "service_cost_per_sec)");
}

using KeyHandler = void (*)(Ctx &, const std::string &,
                            const std::string &);

KeyHandler
sectionHandler(const std::string &section)
{
    if (section == "scenario")
        return scenarioKey;
    if (section == "cluster")
        return clusterKey;
    if (section == "device")
        return deviceKey;
    if (section == "engine")
        return engineKey;
    if (section == "pipe")
        return pipeKey;
    if (section == "trace")
        return traceKey;
    if (section == "disagg")
        return disaggKey;
    if (section == "faults")
        return faultsKey;
    if (section == "admission")
        return admissionKey;
    if (section == "slo")
        return sloKey;
    if (section == "soak")
        return soakKey;
    if (section == "overload")
        return overloadKey;
    return nullptr;
}

const char *const knownModels[] = {"opt13b", "opt30b", "opt66b",
                                   "opt175b", "opt175b-int4",
                                   "llama7b"};
const char *const knownDatasets[] = {"sharegpt", "alpaca",
                                     "ultrachat"};
const char *const knownSpecs[] = {"h100"};

template <std::size_t N>
bool
isKnown(const std::string &name, const char *const (&table)[N])
{
    return std::find_if(std::begin(table), std::end(table),
                        [&](const char *k) { return name == k; }) !=
           std::end(table);
}

template <std::size_t N>
std::string
joinKnown(const char *const (&table)[N])
{
    std::string out;
    for (const char *k : table) {
        if (!out.empty())
            out += "/";
        out += k;
    }
    return out;
}

} // namespace

const char *
toString(ScenarioKind kind)
{
    switch (kind) {
      case ScenarioKind::ClusterScale:
        return "cluster_scale";
      case ScenarioKind::FaultSweep:
        return "fault_sweep";
      case ScenarioKind::Soak:
        return "soak";
      case ScenarioKind::Disagg:
        return "disagg";
    }
    return "?";
}

const std::vector<ScenarioKindInfo> &
scenarioKinds()
{
    static const std::vector<ScenarioKindInfo> kinds = {
        {ScenarioKind::ClusterScale, "cluster_scale",
         "replica-scaling sweep: host variants x modes x devices"},
        {ScenarioKind::FaultSweep, "fault_sweep",
         "fault-intensity sweep: modes x devices x fault scales"},
        {ScenarioKind::Soak, "soak",
         "chaos soak + overload sweep through the chaos harness"},
        {ScenarioKind::Disagg, "disagg",
         "disaggregated prefill/decode sweep with encrypted KV "
         "migration"},
    };
    return kinds;
}

std::string
nearestScenarioKind(const std::string &name)
{
    const ScenarioKindInfo *best = nullptr;
    std::size_t best_dist = 0;
    for (const auto &k : scenarioKinds()) {
        std::size_t d = editDistance(name, k.name);
        if (!best || d < best_dist) {
            best = &k;
            best_dist = d;
        }
    }
    return best->name;
}

const char *
toString(PipeSpec::Kind kind)
{
    switch (kind) {
      case PipeSpec::Kind::Kv:
        return "kv";
      case PipeSpec::Kind::Offload:
        return "offload";
    }
    return "?";
}

const std::vector<unsigned> &
ScenarioSpec::deviceAxis(bool quick) const
{
    if (quick && !cluster.devices_quick.empty())
        return cluster.devices_quick;
    return cluster.devices;
}

const std::vector<double> &
ScenarioSpec::scaleAxis(bool quick) const
{
    if (quick && !faults.scales_quick.empty())
        return faults.scales_quick;
    return faults.scales;
}

std::size_t
ScenarioSpec::requestsPerDevice(bool quick) const
{
    if (quick && trace.requests_per_device_quick > 0)
        return trace.requests_per_device_quick;
    return trace.requests_per_device;
}

std::vector<HostVariantSpec>
ScenarioSpec::hostAxis() const
{
    if (!hosts.empty())
        return hosts;
    return {HostVariantSpec{}};
}

ParseResult
parseScenario(const std::string &text, const std::string &origin)
{
    Ctx c;
    c.origin = origin;
    KeyHandler handler = nullptr;
    std::string section;

    std::istringstream is(text);
    std::string raw;
    while (std::getline(is, raw)) {
        ++c.line;
        auto hash = raw.find('#');
        if (hash != std::string::npos)
            raw.erase(hash);
        std::string line = trim(raw);
        if (line.empty())
            continue;

        if (line.front() == '[') {
            if (line.back() != ']') {
                c.err("malformed section header '", line, "'");
                handler = nullptr;
                continue;
            }
            auto inner = trim(line.substr(1, line.size() - 2));
            auto parts = tokens(inner);
            c.host = nullptr;
            if (parts.size() == 2 && parts[0] == "host") {
                c.spec.hosts.push_back(HostVariantSpec{});
                c.spec.hosts.back().name = parts[1];
                c.host = &c.spec.hosts.back();
                handler = hostKey;
                section = inner;
            } else if (parts.size() == 1 &&
                       (handler = sectionHandler(parts[0]))) {
                section = parts[0];
            } else {
                c.err("unknown section [", inner,
                      "] (known: scenario, cluster, device, engine, "
                      "pipe, trace, host <name>, disagg, faults, "
                      "admission, slo, soak, overload)");
                handler = nullptr;
            }
            continue;
        }

        auto eq = line.find('=');
        if (eq == std::string::npos) {
            c.err("expected 'key = value', got '", line, "'");
            continue;
        }
        if (!handler) {
            c.err("'", line, "' outside any known section");
            continue;
        }
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        handler(c, key, value);
    }

    if (c.spec.csv.empty() && !c.spec.name.empty())
        c.spec.csv = c.spec.name + ".csv";

    ParseResult result;
    result.spec = std::move(c.spec);
    result.errors = std::move(c.errors);
    return result;
}

ParseResult
loadScenario(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        ParseResult bad;
        bad.errors.push_back(path + ": cannot open scenario file");
        return bad;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parseScenario(text.str(), path);
}

std::string
dumpScenario(const ScenarioSpec &spec)
{
    std::ostringstream os;
    auto list = [&](const char *key, const auto &values) {
        if (values.empty())
            return;
        os << key << " =";
        for (const auto &v : values)
            os << " " << v;
        os << "\n";
    };

    os << "[scenario]\n";
    os << "name = " << spec.name << "\n";
    os << "kind = " << toString(spec.kind) << "\n";
    os << "csv = " << spec.csv << "\n";

    os << "\n[cluster]\n";
    list("devices", spec.cluster.devices);
    list("devices_quick", spec.cluster.devices_quick);
    if (!spec.cluster.modes.empty()) {
        os << "modes =";
        for (auto m : spec.cluster.modes)
            os << " " << keyOf(m);
        os << "\n";
    }
    os << "policy = "
       << (spec.cluster.policy == serving::RoutePolicy::RoundRobin
               ? "round_robin"
               : "least_loaded")
       << "\n";

    os << "\n[device]\n";
    os << "spec = " << spec.device.spec << "\n";
    os << "channel_sample_limit = " << spec.device.channel_sample_limit
       << "\n";

    os << "\n[engine]\n";
    os << "model = " << spec.engine.model << "\n";
    os << "parallel_sampling = " << spec.engine.parallel_sampling
       << "\n";

    os << "\n[pipe]\n";
    os << "kind = " << toString(spec.pipe.kind) << "\n";

    os << "\n[trace]\n";
    os << "dataset = " << spec.trace.dataset << "\n";
    os << "max_len = " << spec.trace.max_len << "\n";
    os << "seed = " << spec.trace.seed << "\n";
    os << "rate_per_device = " << fmtDouble(spec.trace.rate_per_device)
       << "\n";
    os << "requests_per_device = " << spec.trace.requests_per_device
       << "\n";
    os << "requests_per_device_quick = "
       << spec.trace.requests_per_device_quick << "\n";

    for (const auto &h : spec.hosts) {
        os << "\n[host " << h.name << "]\n";
        os << "shared_crypto_lanes = " << h.shared_crypto_lanes
           << "\n";
        os << "bridge_gbps = " << fmtDouble(h.bridge_gbps) << "\n";
        os << "bridge_latency_us = " << fmtDouble(h.bridge_latency_us)
           << "\n";
        os << "pipe_max_lane_lead_ms = "
           << fmtDouble(h.pipe_max_lane_lead_ms) << "\n";
    }

    if (spec.disagg != DisaggSpec{} ||
        spec.kind == ScenarioKind::Disagg) {
        os << "\n[disagg]\n";
        os << "prefill_replicas = " << spec.disagg.prefill_replicas
           << "\n";
        os << "chunk_kib = " << fmtDouble(spec.disagg.chunk_kib)
           << "\n";
        os << "pipeline_depth = " << spec.disagg.pipeline_depth
           << "\n";
    }

    if (spec.faults != FaultSpec{}) {
        const auto &f = spec.faults;
        os << "\n[faults]\n";
        os << "seed = " << f.seed << "\n";
        os << "tag_corruption_rate = "
           << fmtDouble(f.tag_corruption_rate) << "\n";
        os << "copy_stall_rate = " << fmtDouble(f.copy_stall_rate)
           << "\n";
        os << "lane_fault_rate = " << fmtDouble(f.lane_fault_rate)
           << "\n";
        os << "replica_crash_rate = "
           << fmtDouble(f.replica_crash_rate) << "\n";
        os << "replica_restart_rate = "
           << fmtDouble(f.replica_restart_rate) << "\n";
        os << "spdm_rekey_ms = " << fmtDouble(f.spdm_rekey_ms)
           << "\n";
        os << "warmup_probe_kib = " << fmtDouble(f.warmup_probe_kib)
           << "\n";
        os << "migration_tag_rate = "
           << fmtDouble(f.migration_tag_rate) << "\n";
        os << "migration_stall_rate = "
           << fmtDouble(f.migration_stall_rate) << "\n";
        os << "dest_crash_rate = " << fmtDouble(f.dest_crash_rate)
           << "\n";
        os << "migration_stall_timeout_us = "
           << fmtDouble(f.migration_stall_timeout_us) << "\n";
        os << "max_migration_attempts = " << f.max_migration_attempts
           << "\n";
        os << "storm_start_s = " << fmtDouble(f.storm_start_s) << "\n";
        os << "storm_end_s = " << fmtDouble(f.storm_end_s) << "\n";
        os << "storm_multiplier = " << fmtDouble(f.storm_multiplier)
           << "\n";
        list("crash_devices", f.crash_devices);
        if (!f.scales.empty()) {
            os << "scales =";
            for (double s : f.scales)
                os << " " << fmtDouble(s);
            os << "\n";
        }
        if (!f.scales_quick.empty()) {
            os << "scales_quick =";
            for (double s : f.scales_quick)
                os << " " << fmtDouble(s);
            os << "\n";
        }
        os << "dip_window_s = " << fmtDouble(f.dip_window_s) << "\n";
        os << "dip_recover_frac = " << fmtDouble(f.dip_recover_frac)
           << "\n";
    }

    if (spec.admission != AdmissionSpec{}) {
        os << "\n[admission]\n";
        os << "shed = " << (spec.admission.shed ? "on" : "off")
           << "\n";
        os << "service_cost_per_sec = "
           << fmtDouble(spec.admission.service_cost_per_sec) << "\n";
        os << "max_outstanding_cost = "
           << spec.admission.max_outstanding_cost << "\n";
    }

    if (spec.slo != SloSpec{}) {
        os << "\n[slo]\n";
        os << "floor_s = " << fmtDouble(spec.slo.floor_s) << "\n";
        os << "per_token_ms = " << fmtDouble(spec.slo.per_token_ms)
           << "\n";
    }

    if (spec.soak != SoakSpec{}) {
        os << "\n[soak]\n";
        for (const auto &p : spec.soak.phases) {
            os << "phase = " << p.requests << " " << p.requests_quick
               << " " << fmtDouble(p.rate_per_device) << "\n";
        }
        os << "goodput_window_s = "
           << fmtDouble(spec.soak.goodput_window_s) << "\n";
        os << "recover_frac = " << fmtDouble(spec.soak.recover_frac)
           << "\n";
    }

    if (spec.overload != OverloadSpec{}) {
        const auto &o = spec.overload;
        os << "\n[overload]\n";
        if (!o.multipliers.empty()) {
            os << "multipliers =";
            for (double m : o.multipliers)
                os << " " << fmtDouble(m);
            os << "\n";
        }
        if (!o.multipliers_quick.empty()) {
            os << "multipliers_quick =";
            for (double m : o.multipliers_quick)
                os << " " << fmtDouble(m);
            os << "\n";
        }
        os << "requests = " << o.requests << "\n";
        os << "requests_quick = " << o.requests_quick << "\n";
        os << "rate_per_device = " << fmtDouble(o.rate_per_device)
           << "\n";
        os << "slo_floor_s = " << fmtDouble(o.slo_floor_s) << "\n";
        os << "slo_per_token_ms = " << fmtDouble(o.slo_per_token_ms)
           << "\n";
        os << "service_cost_per_sec = "
           << fmtDouble(o.service_cost_per_sec) << "\n";
    }

    return os.str();
}

std::vector<std::string>
ScenarioSpec::validate() const
{
    std::vector<std::string> errors;
    auto err = [&](auto... args) {
        errors.push_back(logConcat(args...));
    };

    if (name.empty())
        err("[scenario] name is empty: every scenario needs a name");
    if (csv.empty())
        err("[scenario] csv is empty: name the output CSV file");

    // --- cluster ---
    if (cluster.devices.empty()) {
        err("[cluster] devices is empty: list at least one replica "
            "count (e.g. 'devices = 1 2 4')");
    }
    unsigned max_devices = 0;
    for (unsigned n : cluster.devices) {
        if (n == 0)
            err("[cluster] devices contains 0: a cluster needs at "
                "least one replica");
        max_devices = std::max(max_devices, n);
    }
    for (unsigned n : cluster.devices_quick) {
        if (n == 0)
            err("[cluster] devices_quick contains 0: a cluster needs "
                "at least one replica");
        if (n > max_devices)
            err("[cluster] devices_quick names ", n,
                " replicas but the full axis tops out at ",
                max_devices, ": quick must be a scaled-down run");
    }
    if (cluster.modes.empty())
        err("[cluster] modes is empty: list at least one system "
            "(Plain/Cc/Cc4t/Pipe/Pipe0)");

    // --- device / engine / pipe / trace presets ---
    if (!isKnown(device.spec, knownSpecs))
        err("[device] spec '", device.spec, "' is unknown (known: ",
            joinKnown(knownSpecs), ")");
    if (device.channel_sample_limit == 0)
        err("[device] channel_sample_limit must be positive: 0 would "
            "disable functional crypto verification entirely");
    if (!isKnown(engine.model, knownModels))
        err("[engine] model '", engine.model, "' is unknown (known: ",
            joinKnown(knownModels), ")");
    if (engine.parallel_sampling == 0)
        err("[engine] parallel_sampling must be at least 1");
    if (!isKnown(trace.dataset, knownDatasets))
        err("[trace] dataset '", trace.dataset,
            "' is unknown (known: ", joinKnown(knownDatasets), ")");
    if (trace.rate_per_device <= 0)
        err("[trace] rate_per_device must be positive, got ",
            fmtDouble(trace.rate_per_device));
    if (kind != ScenarioKind::Soak && trace.requests_per_device == 0)
        err("[trace] requests_per_device must be positive for a ",
            toString(kind), " scenario");

    // --- host variants ---
    for (const auto &h : hosts) {
        if (h.bridge_gbps < 0)
            err("[host ", h.name, "] bridge_gbps is negative (",
                fmtDouble(h.bridge_gbps),
                "): bandwidths are non-negative, 0 = uncapped");
        if (h.bridge_latency_us < 0)
            err("[host ", h.name, "] bridge_latency_us is negative");
        for (const auto &other : hosts) {
            if (&other != &h && other.name == h.name) {
                err("[host ", h.name,
                    "] appears twice: variant names must be unique");
                break;
            }
        }
    }

    // --- faults ---
    auto checkProb = [&](const char *key, double v) {
        if (v < 0 || v > 1)
            err("[faults] ", key, " = ", fmtDouble(v),
                " is not a probability (expected 0..1 at scale 1)");
    };
    checkProb("tag_corruption_rate", faults.tag_corruption_rate);
    checkProb("copy_stall_rate", faults.copy_stall_rate);
    checkProb("lane_fault_rate", faults.lane_fault_rate);
    checkProb("migration_tag_rate", faults.migration_tag_rate);
    checkProb("migration_stall_rate", faults.migration_stall_rate);
    checkProb("dest_crash_rate", faults.dest_crash_rate);
    if (faults.migration_stall_timeout_us <= 0)
        err("[faults] migration_stall_timeout_us must be positive");
    if (faults.max_migration_attempts == 0)
        err("[faults] max_migration_attempts must be at least 1: the "
            "watchdog needs one attempt before it can fall back");
    if (faults.replica_crash_rate < 0)
        err("[faults] replica_crash_rate is negative");
    if (faults.replica_restart_rate < 0)
        err("[faults] replica_restart_rate is negative");
    if (faults.storm_multiplier < 0)
        err("[faults] storm_multiplier is negative");
    if (faults.spdm_rekey_ms < 0)
        err("[faults] spdm_rekey_ms is negative");
    if (faults.warmup_probe_kib < 0)
        err("[faults] warmup_probe_kib is negative");
    if (faults.storm_start_s < 0)
        err("[faults] storm_start_s is negative");
    if (faults.storm_end_s < faults.storm_start_s)
        err("[faults] storm window ends (",
            fmtDouble(faults.storm_end_s), "s) before it starts (",
            fmtDouble(faults.storm_start_s), "s)");
    for (double s : faults.scales) {
        if (s < 0)
            err("[faults] scales contains ", fmtDouble(s),
                ": fault scales are non-negative (0 = disarmed "
                "baseline)");
    }
    for (double s : faults.scales_quick) {
        if (s < 0)
            err("[faults] scales_quick contains ", fmtDouble(s),
                ": fault scales are non-negative");
    }
    if (faults.dip_window_s <= 0)
        err("[faults] dip_window_s must be positive");
    if (faults.dip_recover_frac < 0 || faults.dip_recover_frac > 1)
        err("[faults] dip_recover_frac must be within 0..1");
    for (unsigned d : faults.crash_devices) {
        if (max_devices > 0 && d >= max_devices) {
            err("[faults] crash_devices names device ", d,
                " but the largest cluster in [cluster] devices has ",
                max_devices, " replicas (ids 0..", max_devices - 1,
                ")");
        }
    }

    // --- admission / slo ---
    if (admission.service_cost_per_sec < 0)
        err("[admission] service_cost_per_sec is negative");
    if (slo.floor_s < 0)
        err("[slo] floor_s is negative");
    if (slo.per_token_ms < 0)
        err("[slo] per_token_ms is negative");

    // --- soak / overload ---
    if (soak.goodput_window_s <= 0)
        err("[soak] goodput_window_s must be positive");
    if (soak.recover_frac < 0 || soak.recover_frac > 1)
        err("[soak] recover_frac must be within 0..1");
    for (const auto &p : soak.phases) {
        if (p.requests == 0)
            err("[soak] phase with 0 requests contributes nothing");
        if (p.rate_per_device <= 0)
            err("[soak] phase rate_per_device must be positive");
    }
    for (double m : overload.multipliers) {
        if (m <= 0)
            err("[overload] multipliers must be positive, got ",
                fmtDouble(m));
    }
    if (overload.rate_per_device <= 0)
        err("[overload] rate_per_device must be positive, got ",
            fmtDouble(overload.rate_per_device));
    if (overload.slo_floor_s < 0)
        err("[overload] slo_floor_s is negative");
    if (overload.slo_per_token_ms < 0)
        err("[overload] slo_per_token_ms is negative");
    if (overload.requests > 0 && overload.multipliers.empty())
        err("[overload] requests is set but multipliers is empty: "
            "list the rate multipliers to sweep");

    // --- disagg ---
    if (disagg.chunk_kib <= 0)
        err("[disagg] chunk_kib must be positive");
    if (disagg.pipeline_depth == 0)
        err("[disagg] pipeline_depth must be at least 1 (1 = no "
            "speculation, seal strictly behind the verify frontier)");
    unsigned min_devices = max_devices;
    for (unsigned n : cluster.devices)
        min_devices = std::min(min_devices, n);
    if (kind == ScenarioKind::Disagg) {
        if (min_devices < 2 && !cluster.devices.empty())
            err("a disagg scenario splits replicas into prefill and "
                "decode roles: every [cluster] devices entry must be "
                "at least 2");
        if (disagg.prefill_replicas > 0 && min_devices >= 2 &&
            disagg.prefill_replicas >= min_devices) {
            err("[disagg] prefill_replicas (", disagg.prefill_replicas,
                ") leaves no decode replica in the smallest cluster (",
                min_devices, " devices): lower it or drop it (0 = "
                "half the cluster)");
        }
        if (!hosts.empty())
            err("disaggregated sweeps run on private host resources: "
                "[host] variants are not supported for kind = disagg");
        if (soak != SoakSpec{} || overload != OverloadSpec{})
            err("[soak]/[overload] sections only apply to kind = "
                "soak");
        if (scaleAxis(false).empty())
            err("a disagg scenario needs [faults] scales (use "
                "'scales = 0' for a fault-free sweep)");
    } else {
        if (disagg != DisaggSpec{})
            err("a [disagg] section only applies to kind = disagg");
        if (faults.migration_tag_rate != 0 ||
            faults.migration_stall_rate != 0 ||
            faults.dest_crash_rate != 0) {
            err("[faults] migration rates only fire on kind = disagg "
                "runs: nothing migrates in a ", toString(kind),
                " scenario");
        }
    }

    // --- kind-specific shape ---
    switch (kind) {
      case ScenarioKind::ClusterScale:
        if (faults != FaultSpec{})
            err("a cluster_scale scenario does not inject faults: "
                "remove [faults] or set kind = fault_sweep");
        if (soak != SoakSpec{} || overload != OverloadSpec{})
            err("[soak]/[overload] sections only apply to kind = "
                "soak");
        break;
      case ScenarioKind::FaultSweep:
        if (scaleAxis(false).empty())
            err("a fault_sweep scenario needs [faults] scales");
        if (!hosts.empty())
            err("fault sweeps run on private host resources: [host] "
                "variants are not supported for kind = fault_sweep");
        if (soak != SoakSpec{} || overload != OverloadSpec{})
            err("[soak]/[overload] sections only apply to kind = "
                "soak");
        break;
      case ScenarioKind::Soak:
        if (soak.phases.empty())
            err("a soak scenario needs at least one [soak] phase "
                "('phase = <requests> <requests_quick> <rate>')");
        if (cluster.modes.size() != 1 ||
            (cluster.modes[0] != SystemMode::Cc &&
             cluster.modes[0] != SystemMode::Pipe)) {
            err("a soak scenario serves one system: set [cluster] "
                "modes to exactly one of Cc or Pipe");
        }
        if (!hosts.empty())
            err("the soak harness runs on private host resources: "
                "[host] variants are not supported for kind = soak");
        if (cluster.devices.size() != 1)
            err("a soak scenario runs one fixed cluster: [cluster] "
                "devices must name exactly one replica count");
        break;
      case ScenarioKind::Disagg:
        // Shape checks live above (they need min_devices); nothing
        // further here.
        break;
    }

    return errors;
}

} // namespace scenario
} // namespace pipellm
