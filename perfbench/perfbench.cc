/**
 * @file
 * perfbench: wall-clock benchmark of the simulator itself.
 *
 * Each workload is a list of sweep points taken from a committed
 * .scenario file. A pass sets every point up (loadScenario/validate,
 * ScenarioBuilder::build, poissonTrace), then simulates them
 * (ClusterRouter::run, the output check, teardown). Every one of
 * those calls is timed from outside the simulator; nothing under src/
 * is instrumented. Passes repeat until --seconds have elapsed.
 *
 *   perfbench --root . --workload serve_sweep --seed 0 --seconds 20 \
 *             --trace 0
 *
 * --trace 0 prints the end-to-end metrics (wall_s, setup_s,
 * peak_rss_mb, points_failed). --trace 1 alternates plain and traced
 * passes: a traced pass records a span around every call, attaches a
 * TransferTrace to each replica and probes the layers the run used;
 * it prints the per-layer metrics and the traced/plain wall ratio,
 * and writes the spans as Chrome trace-event JSON. The last stdout
 * line is one JSON object {correct, attempted, failed, metrics}.
 *
 * Outputs are checked per point: a digest of the ClusterResult
 * fields the scenario CSVs carry (compared with perfbench/digests.txt
 * when the seed is recorded there, and across passes always),
 * integrityFailures() == 0 on disarmed points, and
 * completed + shed + dropped == offered. serve_sweep also regenerates
 * cluster_scale.csv once per run and byte-compares it with the
 * committed file.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "crypto/channel.hh"
#include "mem/sparse_memory.hh"
#include "pipellm/pipellm_runtime.hh"
#include "pipellm/predictor.hh"
#include "runtime/transfer_trace.hh"
#include "scenario/builder.hh"
#include "scenario/runner.hh"
#include "scenario/spec.hh"
#include "sim/event_queue.hh"

using namespace pipellm;
using scenario::ScenarioSpec;
using scenario::SystemMode;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** All digits of @p v, so two runs compare exactly. */
std::string
exact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------- CLI

struct Options
{
    std::string root = ".";
    std::string out_dir = ".bench_build";
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    /** Two requests per device: the smoke test's minimum size. */
    bool min_size = false;
    std::string git_sha = "unknown";
};

int
usage()
{
    std::fprintf(
        stderr,
        "usage: perfbench --workload NAME [--seed N] [--seconds S]\n"
        "                 [--trace 0|1] [--size full|min] [--root DIR]\n"
        "                 [--out DIR] [--git-sha SHA]\n"
        "  workloads: pipe_faults cc_restart serve_sweep disagg\n");
    return 2;
}

// ----------------------------------------------------------- workloads

/** One benchmark workload: sweep points of a committed scenario. */
struct Workload
{
    const char *name;
    /** File under bench/scenarios/. */
    const char *scenario;
    /** Use the scenario's *_quick axes. */
    bool quick;
    /** Narrows the committed sweep to the workload's points. */
    void (*shape)(ScenarioSpec &);
};

void
onePoint(ScenarioSpec &s, SystemMode mode, unsigned devices, double scale,
         std::size_t requests_per_device)
{
    s.cluster.modes = {mode};
    s.cluster.devices = {devices};
    s.cluster.devices_quick.clear();
    s.faults.scales = {scale};
    s.faults.scales_quick.clear();
    s.trace.requests_per_device = requests_per_device;
    s.trace.requests_per_device_quick = 0;
}

/** Predictor/pipeline workload: tag retries and restarts on PipeLLM. */
void
pipeFaults(ScenarioSpec &s)
{
    onePoint(s, SystemMode::Pipe, 2, 2, 16);
}

/** Crypto plus crash/re-key/weight-reload workload on stock CC. */
void
ccRestart(ScenarioSpec &s)
{
    onePoint(s, SystemMode::Cc, 4, 4, 24);
    s.device.channel_sample_limit = 4096;
}

const Workload kWorkloads[] = {
    {"pipe_faults", "faults.scenario", false, pipeFaults},
    {"cc_restart", "faults.scenario", false, ccRestart},
    {"serve_sweep", "cluster_scale.scenario", true, nullptr},
    {"disagg", "disagg.scenario", true, nullptr},
};

const Workload *
findWorkload(const std::string &name)
{
    for (const auto &w : kWorkloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

/** One sweep point, enumerated in the scenario runner's order. */
struct PointDef
{
    scenario::HostVariantSpec host;
    SystemMode mode = SystemMode::Plain;
    unsigned devices = 1;
    double scale = 0;
    std::string label;
};

std::vector<PointDef>
pointsOf(const ScenarioSpec &spec, bool quick)
{
    std::vector<PointDef> out;
    for (const auto &host : spec.hostAxis()) {
        for (SystemMode mode : spec.cluster.modes) {
            for (unsigned n : spec.deviceAxis(quick)) {
                for (double scale : spec.scaleAxis(quick)) {
                    std::ostringstream label;
                    label << host.name << '.' << scenario::keyOf(mode)
                          << ".n" << n << ".x" << scale;
                    out.push_back({host, mode, n, scale, label.str()});
                }
            }
        }
    }
    return out;
}

/**
 * The inputs of sub-seed @p offset (0 = the committed trace, kept as
 * is): the committed trace's request lengths in a seeded order, with
 * Poisson arrivals redrawn at the same rate. Drawing a fresh trace
 * instead would also redraw the lengths, whose heavy tail moves a
 * pass's wall time by 2-4x from seed to seed.
 */
void
reseedTrace(trace::Trace &t, std::uint64_t offset, double rate)
{
    if (offset == 0)
        return;
    Rng rng(offset);
    for (std::size_t k = t.size(); k > 1; --k) {
        std::size_t j = rng.uniformInt(0, k - 1);
        std::swap(t[k - 1].prompt_len, t[j].prompt_len);
        std::swap(t[k - 1].output_len, t[j].output_len);
    }
    double at = 0;
    for (auto &r : t) {
        at += rng.exponential(rate);
        r.arrival = seconds(at);
    }
}

// ------------------------------------------------------------- tracing

/** One timed call: name, start, end, pass and point (-1 = none). */
struct Span
{
    const char *name;
    Clock::time_point start;
    Clock::time_point end;
    int pass;
    int point;
};

/** In-memory span recorder; written out once, at exit. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    bool enabled = false;
    int pass = -1;
    int point = -1;

    /** Runs @p fn, records its span when enabled; returns seconds. */
    template <typename F>
    double
    timed(const char *name, F &&fn)
    {
        auto t0 = Clock::now();
        fn();
        auto t1 = Clock::now();
        if (enabled)
            spans_.push_back({name, t0, t1, pass, point});
        return secondsBetween(t0, t1);
    }

    std::size_t size() const { return spans_.size(); }

    /** Chrome trace-event JSON (opens in Perfetto). */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\": [\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(
                f,
                "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                "\"args\": {\"pass\": %d, \"point\": %d}}",
                i ? ",\n" : "", s.name, s.pass,
                1e6 * secondsBetween(origin_, s.start),
                1e6 * secondsBetween(s.start, s.end), s.pass, s.point);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

// ------------------------------------------------------ output checks

/** FNV-1a over the text form of every field, at round-trip precision. */
class Digest
{
  public:
    Digest &
    add(const char *key, double v)
    {
        return text(key).text(exact(v).c_str());
    }

    Digest &
    add(const char *key, std::uint64_t v)
    {
        return text(key).text(std::to_string(v).c_str());
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
        return buf;
    }

  private:
    Digest &
    text(const char *s)
    {
        for (; *s; ++s) {
            h_ ^= std::uint8_t(*s);
            h_ *= 0x100000001b3ull;
        }
        h_ ^= ';';
        h_ *= 0x100000001b3ull;
        return *this;
    }

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Every ClusterResult field the cluster/fault/disagg CSVs carry. */
std::string
digestOf(const serving::ClusterResult &r)
{
    Digest d;
    d.add("tokens_per_sec", r.tokens_per_sec)
        .add("goodput", r.goodput_tokens_per_sec)
        .add("norm_latency", r.normalized_latency)
        .add("p90", r.p90_normalized_latency)
        .add("replica_weighted_p90", r.replica_weighted_p90)
        .add("completed", r.completed)
        .add("preemptions", r.preemptions)
        .add("dropped", r.dropped)
        .add("makespan", std::uint64_t(r.makespan))
        .add("completions", std::uint64_t(r.completions.size()));
    const auto &f = r.faults;
    d.add("tag_faults", f.tag_faults)
        .add("tag_retries", f.tag_retries)
        .add("copy_stalls", f.copy_stalls)
        .add("lane_faults", f.lane_faults)
        .add("crashes", f.replica_crashes)
        .add("restarts", f.replica_restarts)
        .add("rejoin_ticks", std::uint64_t(f.restart_rejoin_ticks))
        .add("requeued", f.requeued_requests)
        .add("lost_tokens", f.lost_tokens)
        .add("degraded_entries", f.degraded_entries)
        .add("degraded_sends", f.degraded_sends)
        .add("retry_latency", std::uint64_t(f.retry_latency))
        .add("migrations", f.migrations)
        .add("migrated_chunks", f.migrated_chunks)
        .add("discarded_chunks", f.discarded_chunks)
        .add("speculated_ivs", f.speculated_migration_ivs)
        .add("migration_tag_faults", f.migration_tag_faults)
        .add("migration_retries", f.migration_retries)
        .add("migration_stalls", f.migration_stalls)
        .add("migration_fallbacks", f.migration_fallbacks)
        .add("dest_crashes", f.dest_mid_migration_crashes)
        .add("rerouted", f.migrations_rerouted);
    for (const auto &rep : r.replicas) {
        d.add("device", std::uint64_t(rep.device))
            .add("prefill", std::uint64_t(rep.prefill))
            .add("requests", rep.requests)
            .add("routed_tokens", rep.routed_tokens)
            .add("total_time", std::uint64_t(rep.result.total_time))
            .add("rep_norm_latency", rep.result.normalized_latency)
            .add("rep_completed", std::uint64_t(rep.result.completed))
            .add("h2d_bytes", rep.runtime_stats.h2d_bytes)
            .add("cpu_crypto_bytes", rep.runtime_stats.cpu_encrypt_bytes +
                                         rep.runtime_stats.cpu_decrypt_bytes)
            .add("crashed", std::uint64_t(rep.crashed))
            .add("crash_time", std::uint64_t(rep.crash_time))
            .add("requeued", rep.requeued)
            .add("absorbed", rep.absorbed)
            .add("dropped", rep.dropped)
            .add("lost_tokens", rep.lost_tokens)
            .add("crash_count", rep.crash_count)
            .add("restarts", rep.restarts)
            .add("rejoined", std::uint64_t(rep.rejoined))
            .add("rejoin_time", std::uint64_t(rep.rejoin_time))
            .add("time_to_rejoin", std::uint64_t(rep.time_to_rejoin));
    }
    return d.hex();
}

/** Recorded digests: (workload, point label with sub-seed) -> hex. */
using DigestBook =
    std::map<std::pair<std::string, std::string>, std::string>;

DigestBook
loadDigests(const std::string &path)
{
    DigestBook book;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string workload, label, hex;
        if (is >> workload >> label >> hex)
            book[{workload, label}] = hex;
    }
    return book;
}

bool
sameFileBytes(const std::string &a, const std::string &b)
{
    std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
    if (!fa || !fb)
        return false;
    std::string da((std::istreambuf_iterator<char>(fa)),
                   std::istreambuf_iterator<char>());
    std::string db((std::istreambuf_iterator<char>(fb)),
                   std::istreambuf_iterator<char>());
    return da == db;
}

// -------------------------------------------------------------- probes

volatile std::uint64_t g_sink = 0;

/** A fixed single-thread loop: makes host-speed drift visible. */
double
calibrationMs()
{
    auto t0 = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 10'000'000; ++i) {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdull;
        x ^= x >> 29;
    }
    g_sink = x;
    return 1e3 * secondsBetween(t0, Clock::now());
}

struct ChainProbe
{
    sim::EventQueue *queue;
    std::uint64_t remaining;
};

void
chainStep(ChainProbe *c)
{
    if (--c->remaining)
        c->queue->scheduleIn(1, [c] { chainStep(c); });
}

/** Events/s of one self-rescheduling EventQueue chain. */
double
eventsPerSecond()
{
    constexpr std::uint64_t events = 200'000;
    sim::EventQueue eq;
    ChainProbe chain{&eq, events};
    auto t0 = Clock::now();
    eq.schedule(0, [&chain] { chainStep(&chain); });
    eq.run();
    return double(events) / secondsBetween(t0, Clock::now());
}

/** Seconds to alloc + free a @p bytes region on a fresh arena. */
double
weightFreeSeconds(std::uint64_t bytes)
{
    mem::SparseMemory arena("perfbench-free-probe", bytes + GiB);
    auto t0 = Clock::now();
    auto region = arena.alloc(bytes, "weights");
    arena.free(region);
    return secondsBetween(t0, Clock::now());
}

// -------------------------------------------------------------- passes

/** Per-layer totals of one traced pass (summed over its points). */
struct LayerTotals
{
    double parse_s = 0, build_s = 0, tracegen_s = 0;
    double run_s = 0, check_s = 0, teardown_s = 0;
    std::uint64_t points = 0, sharded_points = 0, engine_steps = 0;
    std::uint64_t transfers = 0;
    std::uint64_t outcomes[6] = {0, 0, 0, 0, 0, 0};
    std::uint64_t pipe_replicas = 0, swaps = 0, hits = 0, nops = 0;
    std::uint64_t predict_calls = 0;
    double predict_s = 0;
    std::uint64_t crypto_bytes = 0;
    double seal_s = 0, open_s = 0;
    std::uint64_t sealed_bytes = 0, tag_mismatches = 0;
    std::uint64_t migrated = 0, speculated_ivs = 0, discarded = 0;
    std::uint64_t weight_frees = 0, pages = 0;
    std::uint64_t injected = 0, recovered = 0, restarts = 0;
    double free_s = 0, events_per_s = 0;
};

/** A point after setup: the built cluster and its trace. */
struct Prepared
{
    const PointDef *def = nullptr;
    /** The point's label plus its sub-seed: the digest key. */
    std::string label;
    std::unique_ptr<ScenarioSpec> spec;
    std::unique_ptr<scenario::ScenarioBuilder> builder;
    /** Attached to the replicas' runtimes: declared before (so
     *  destroyed after) the cluster that points at them. */
    std::vector<std::unique_ptr<runtime::TransferTrace>> transfers;
    scenario::BuiltCluster cluster;
    trace::Trace trace;
};

/** Setups timed per pass; the pass's setup_s is their median. */
constexpr int kSetupReps = 5;

/** Sub-seeds reserved per --seed: seed n draws n*1000, n*1000+1, ... */
constexpr std::uint64_t kDrawsPerSeed = 1000;

struct PassResult
{
    bool traced = false;
    double setup_s = 0;
    double wall_s = 0;
    LayerTotals layers;
};

class Bench
{
  public:
    Bench(const Options &opts, const Workload &workload,
          Clock::time_point origin)
        : opts_(opts), workload_(workload), tracer_(origin),
          digests_(loadDigests(opts.root + "/perfbench/digests.txt"))
    {
    }

    /** Loads the workload's scenario once to enumerate its points. */
    bool
    init()
    {
        auto spec = loadSpec(0);
        if (!spec)
            return false;
        points_ = pointsOf(*spec, workload_.quick);
        return !points_.empty();
    }

    std::size_t numPoints() const { return points_.size(); }

    /**
     * Sets up every point at sub-seed @p offset kSetupReps times (the
     * pass's setup_s is the median), then simulates the last set.
     */
    PassResult
    runPass(int pass, bool traced, std::uint64_t offset)
    {
        PassResult out;
        out.traced = traced;
        tracer_.enabled = traced;
        tracer_.pass = pass;
        LayerTotals &lt = out.layers;

        std::vector<Prepared> prepared;
        std::vector<double> setups;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            lt.parse_s = lt.build_s = lt.tracegen_s = 0;
            prepared = prepare(offset, lt);
            setups.push_back(lt.parse_s + lt.build_s + lt.tracegen_s);
        }
        out.setup_s = median(setups);

        for (std::size_t i = 0; i < prepared.size(); ++i) {
            Prepared &p = prepared[i];
            tracer_.point = int(i);
            ++attempted_;
            if (!p.cluster.router) {
                complain(p, "scenario did not load or validate");
                ++failed_;
                continue;
            }
            auto &router = *p.cluster.router;
            if (traced) {
                for (unsigned d = 0; d < router.numReplicas(); ++d) {
                    p.transfers.push_back(
                        std::make_unique<runtime::TransferTrace>());
                    router.runtime(d).attachTrace(p.transfers.back().get());
                }
            }
            serving::ClusterResult r;
            double run = tracer_.timed("serving.run",
                                       [&] { r = router.run(p.trace); });
            bool ok = true;
            double check = tracer_.timed("bench.check",
                                         [&] { ok = checkPoint(p, r); });
            if (traced)
                ok = probeLayers(p, r, lt) && ok;
            failed_ += ok ? 0 : 1;
            double teardown = tracer_.timed("serving.teardown", [&] {
                // The router holds the platform by reference: it goes
                // first.
                p.cluster.router.reset();
                p.cluster.platform.reset();
            });
            lt.run_s += run;
            lt.check_s += check;
            lt.teardown_s += teardown;
            out.wall_s += run + check + teardown;
        }

        if (traced && !prepared.empty() && prepared.front().builder) {
            tracer_.point = -1;
            auto weights =
                prepared.front().builder->model().totalParamBytes();
            tracer_.timed("probe.mem_free", [&] {
                lt.free_s = weightFreeSeconds(weights);
            });
            tracer_.timed("probe.event_chain",
                          [&] { lt.events_per_s = eventsPerSecond(); });
        }
        tracer_.enabled = false;
        return out;
    }

    /**
     * serve_sweep only: regenerate cluster_scale.csv with the
     * committed seeds and byte-compare it with the committed file.
     */
    void
    checkCommittedCsv()
    {
        auto parsed = scenario::loadScenario(scenarioPath());
        ++attempted_;
        if (!parsed.ok()) {
            ++failed_;
            return;
        }
        scenario::RunOptions run;
        run.quick = true;
        run.threads = 1;
        run.out_dir = opts_.out_dir + "/perfbench-csv-check";
        std::filesystem::remove_all(run.out_dir);
        auto summary = scenario::runScenario(parsed.spec, run);
        bool same = summary.csv_paths.size() == 1 &&
                    sameFileBytes(summary.csv_paths.front(),
                                  opts_.root + "/bench_results/" +
                                      parsed.spec.csv);
        std::filesystem::remove_all(run.out_dir);
        std::printf("check %s regenerated with committed seeds: %s\n",
                    parsed.spec.csv.c_str(),
                    same ? "byte-identical" : "DIFFERS");
        if (!same)
            ++failed_;
    }

    /**
     * Writes every digest this run computed to @p path and prints how
     * many matched perfbench/digests.txt.
     */
    void
    reportDigests(const std::string &path) const
    {
        if (digest_log_.empty())
            return;
        std::ofstream out(path);
        for (const auto &line : digest_log_)
            out << line << '\n';
        std::printf("digests: %" PRIu64 " match the recorded ones, %" PRIu64
                    " unrecorded (seed not in perfbench/digests.txt); "
                    "all %zu written to %s\n",
                    matched_, unrecorded_, digest_log_.size(), path.c_str());
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const Tracer &tracer() const { return tracer_; }

  private:
    /** Setup of one pass: parse, validate, build, generate traces. */
    std::vector<Prepared>
    prepare(std::uint64_t offset, LayerTotals &lt)
    {
        std::vector<Prepared> prepared(points_.size());
        for (std::size_t i = 0; i < points_.size(); ++i) {
            tracer_.point = int(i);
            Prepared &p = prepared[i];
            p.def = &points_[i];
            p.label = p.def->label + ".s" + std::to_string(offset);
            lt.parse_s += tracer_.timed("scenario.load",
                                        [&] { p.spec = loadSpec(offset); });
            if (!p.spec)
                continue;
            lt.build_s += tracer_.timed("scenario.build", [&] {
                p.builder =
                    std::make_unique<scenario::ScenarioBuilder>(*p.spec);
                p.cluster = p.builder->build(p.def->mode, p.def->devices,
                                             p.def->host, p.def->scale,
                                             1);
            });
            lt.tracegen_s += tracer_.timed("trace.generate", [&] {
                p.trace = p.builder->poissonTrace(
                    p.spec->requestsPerDevice(workload_.quick) *
                        p.def->devices,
                    p.def->devices);
                reseedTrace(p.trace, offset,
                            p.spec->trace.rate_per_device * p.def->devices);
            });
        }
        return prepared;
    }

    std::string
    scenarioPath() const
    {
        return opts_.root + "/bench/scenarios/" + workload_.scenario;
    }

    /** loadScenario + the workload's shape and sub-seed; null on
     *  error. */
    std::unique_ptr<ScenarioSpec>
    loadSpec(std::uint64_t offset) const
    {
        auto parsed = scenario::loadScenario(scenarioPath());
        for (const auto &e : parsed.errors)
            std::fprintf(stderr, "perfbench: %s\n", e.c_str());
        if (!parsed.ok())
            return nullptr;
        auto spec = std::make_unique<ScenarioSpec>(std::move(parsed.spec));
        if (workload_.shape)
            workload_.shape(*spec);
        // cluster_scale scenarios reject any [faults] setting.
        if (spec->kind != scenario::ScenarioKind::ClusterScale)
            spec->faults.seed += offset;
        if (opts_.min_size) {
            spec->trace.requests_per_device = 2;
            spec->trace.requests_per_device_quick = 0;
        }
        auto problems = spec->validate();
        for (const auto &e : problems)
            std::fprintf(stderr, "perfbench: %s\n", e.c_str());
        return problems.empty() ? std::move(spec) : nullptr;
    }

    /** Prints why @p p failed; callers count each point once. */
    void
    complain(const Prepared &p, const std::string &why) const
    {
        std::printf("FAIL pass %d point %s: %s\n", tracer_.pass,
                    p.label.c_str(), why.c_str());
    }

    /** The output checks of one simulated point; false = failed. */
    bool
    checkPoint(const Prepared &p, const serving::ClusterResult &r)
    {
        bool ok = true;
        if (p.def->scale == 0) {
            for (unsigned d = 0; d < p.def->devices; ++d) {
                if (p.cluster.platform->gpu(d).integrityFailures() != 0) {
                    complain(p, "integrity failure on device " +
                                    std::to_string(d));
                    ok = false;
                }
            }
        }
        std::uint64_t accounted = r.completed + r.shed_requests + r.dropped;
        if (accounted != p.trace.size()) {
            complain(p, "completed + shed + dropped = " +
                            std::to_string(accounted) + ", offered " +
                            std::to_string(p.trace.size()));
            ok = false;
        }

        std::string hex = digestOf(r);
        // A trace run simulates every sub-seed twice, plain then
        // traced: attaching the trace must not change the result.
        auto [seen, first] = seen_.emplace(p.label, hex);
        if (!first) {
            if (seen->second != hex) {
                complain(p, "traced digest " + hex +
                                " differs from plain " + seen->second);
                ok = false;
            }
            return ok;
        }
        if (opts_.min_size)
            return ok;
        digest_log_.push_back(std::string(workload_.name) + " " +
                              p.label + " " + hex);
        auto rec = digests_.find({workload_.name, p.label});
        if (rec == digests_.end()) {
            ++unrecorded_;
        } else if (rec->second == hex) {
            ++matched_;
        } else {
            complain(p, "digest " + hex + " != recorded " + rec->second);
            ok = false;
        }
        return ok;
    }

    /** Counters the layers expose, plus timed probes on live state;
     *  false when a probe saw a broken result. */
    bool
    probeLayers(Prepared &p, const serving::ClusterResult &r,
                LayerTotals &lt)
    {
        auto &platform = *p.cluster.platform;
        auto &router = *p.cluster.router;
        const unsigned n = router.numReplicas();
        const std::uint64_t sample_limit = p.spec->device.channel_sample_limit;

        ++lt.points;
        lt.sharded_points += r.sharded ? 1 : 0;
        lt.engine_steps += r.engine_steps;
        lt.weight_frees += r.replicas.size();
        for (const auto &rep : r.replicas) {
            lt.transfers +=
                rep.runtime_stats.h2d_calls + rep.runtime_stats.d2h_calls;
        }
        for (const auto &t : p.transfers) {
            for (const auto &rec : t->records()) {
                ++lt.outcomes[unsigned(rec.outcome)];
                lt.sealed_bytes += std::min(rec.bytes, sample_limit);
            }
        }
        const auto &f = r.faults;
        lt.injected += f.injectedTotal();
        lt.recovered += f.recoveredTotal();
        lt.restarts += f.replica_restarts;
        lt.migrated += f.migrated_chunks;
        lt.speculated_ivs += f.speculated_migration_ivs;
        lt.discarded += f.discarded_chunks;

        lt.pages += platform.hostMem().materializedPages();
        for (unsigned d = 0; d < n; ++d) {
            lt.pages += platform.gpu(d).memory().materializedPages();
            lt.tag_mismatches += platform.device(d).channel().tagMismatches();
        }

        tracer_.timed("probe.predictor", [&] {
            for (unsigned d = 0; d < n; ++d) {
                auto *pipe =
                    dynamic_cast<core::PipeLlmRuntime *>(&router.runtime(d));
                if (!pipe)
                    continue;
                const auto &ps = pipe->pipeStats();
                ++lt.pipe_replicas;
                lt.swaps += ps.swap_requests;
                lt.hits += ps.hits;
                lt.nops += ps.nops;
                timePredict(pipe->predictor(),
                            2 * pipe->config().pipeline_depth + 4, lt);
            }
            // No PipeLLM replica (the predictor's bypass workload):
            // time the fixed cost of an empty predictor instead.
            if (lt.pipe_replicas == 0) {
                const core::PipeLlmConfig defaults;
                timePredict(core::Predictor{},
                            2 * defaults.pipeline_depth + 4, lt);
            }
        });

        bool probe_ok = true;
        tracer_.timed("probe.crypto", [&] {
            const auto &ch = platform.device(0).channel();
            std::vector<std::uint8_t> sample(sample_limit, 0x5c);
            std::vector<std::uint8_t> plain;
            std::vector<crypto::CipherBlob> blobs(64);
            auto t0 = Clock::now();
            for (std::size_t i = 0; i < blobs.size(); ++i) {
                blobs[i] = ch.seal(crypto::Direction::HostToDevice,
                                   (1ull << 48) + i, sample.data(),
                                   sample.size());
            }
            auto t1 = Clock::now();
            bool ok = true;
            for (std::size_t i = 0; i < blobs.size(); ++i)
                ok = ch.open(blobs[i], (1ull << 48) + i, plain) && ok;
            auto t2 = Clock::now();
            if (!ok) {
                complain(p, "crypto probe: a sealed sample failed to open");
                probe_ok = false;
            }
            lt.crypto_bytes += blobs.size() * sample.size();
            lt.seal_s += secondsBetween(t0, t1);
            lt.open_s += secondsBetween(t1, t2);
        });
        return probe_ok;
    }

    void
    timePredict(const core::Predictor &predictor, std::size_t steps,
                LayerTotals &lt)
    {
        constexpr int calls = 16;
        std::size_t got = 0;
        auto t0 = Clock::now();
        for (int i = 0; i < calls; ++i)
            got += predictor.predictNext(steps).size();
        lt.predict_s += secondsBetween(t0, Clock::now());
        lt.predict_calls += calls;
        g_sink = got;
    }

    const Options &opts_;
    const Workload &workload_;
    Tracer tracer_;
    DigestBook digests_;
    std::vector<PointDef> points_;
    /** First digest per point label (with its sub-seed). */
    std::map<std::string, std::string> seen_;
    /** "workload label digest" lines, in digests.txt format. */
    std::vector<std::string> digest_log_;
    std::uint64_t matched_ = 0;
    std::uint64_t unrecorded_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// ------------------------------------------------------------- metrics

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** The per-layer metrics of one traced pass. */
std::vector<Metric>
layerMetrics(const LayerTotals &t)
{
    auto count = [](std::uint64_t v) { return double(v); };
    const char *outcome_names[6] = {"direct", "hit",      "miss",
                                    "deferred", "nop",    "retry"};
    std::vector<Metric> m = {
        {"scenario.parse_ms", 1e3 * t.parse_s, "ms",
         "loadScenario + validate"},
        {"scenario.build_ms", 1e3 * t.build_s, "ms", "ScenarioBuilder::build"},
        {"trace.gen_ms", 1e3 * t.tracegen_s, "ms", "poissonTrace"},
        {"serving.run_s", t.run_s, "s", "ClusterRouter::run"},
        {"serving.teardown_ms", 1e3 * t.teardown_s, "ms",
         "router then platform"},
        {"bench.check_ms", 1e3 * t.check_s, "ms", "digest + invariants"},
        {"serving.engine_steps", count(t.engine_steps), "count", ""},
        {"serving.step_us", 1e6 * ratio(t.run_s, double(t.engine_steps)), "us",
         "run_s / engine_steps"},
        {"serving.sharded_share",
         ratio(double(t.sharded_points), double(t.points)), "ratio",
         "points on the sharded loop"},
        {"migrate.chunks", count(t.migrated), "count", "verified chunks"},
        {"migrate.speculated_ivs", count(t.speculated_ivs), "count", ""},
        {"migrate.discard_ratio",
         ratio(double(t.discarded), double(t.migrated + t.discarded)), "ratio",
         "discarded / (verified + discarded)"},
        {"runtime.transfers", count(t.transfers), "count",
         "sum of h2d_calls + d2h_calls"},
        {"runtime.us_per_transfer", 1e6 * ratio(t.run_s, double(t.transfers)),
         "us", "run_s / transfers"},
    };
    for (int i = 0; i < 6; ++i) {
        m.push_back({std::string("runtime.outcome.") + outcome_names[i],
                     count(t.outcomes[i]), "count", "TransferTrace"});
    }
    const char *pipe_note = t.pipe_replicas
                                ? "end-of-run PipeLLM predictors"
                                : "no PipeLLM replica: empty predictor";
    m.insert(m.end(), {
        {"pipellm.hit_ratio", ratio(double(t.hits), double(t.swaps)), "ratio",
         "hits / swap_requests"},
        {"pipellm.nops_per_swap", ratio(double(t.nops), double(t.swaps)),
         "ratio", ""},
        {"pipellm.predict_us",
         1e6 * ratio(t.predict_s, double(t.predict_calls)), "us", pipe_note},
        {"crypto.seal_mbps", 1e-6 * ratio(double(t.crypto_bytes), t.seal_s),
         "MB/s", "SecureChannel::seal at the sample size"},
        {"crypto.open_mbps", 1e-6 * ratio(double(t.crypto_bytes), t.open_s),
         "MB/s", "SecureChannel::open at the sample size"},
        {"crypto.sealed_mb", 1e-6 * double(t.sealed_bytes), "MB",
         "computed: sum of min(bytes, sample_limit) over transfers"},
        {"crypto.tag_mismatches", count(t.tag_mismatches), "count", ""},
        {"mem.free_ms", 1e3 * t.free_s, "ms",
         "alloc + free of the model's weight size, fresh SparseMemory"},
        {"mem.weight_frees", count(t.weight_frees), "count",
         "engines torn down"},
        {"mem.pages", count(t.pages), "count", "materialized, host + devices"},
        {"sim.events_per_s", t.events_per_s, "1/s", "EventQueue chain probe"},
        {"fault.injected", count(t.injected), "count", "FaultReport"},
        {"fault.recovered", count(t.recovered), "count", "FaultReport"},
        {"fault.restarts", count(t.restarts), "count", ""},
    });
    return m;
}

void
printMetric(const Metric &m, const std::string &samples)
{
    std::printf("%-26s %14.6g %-6s %s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), samples.c_str(), m.note.empty() ? "" : "; ",
                m.note.c_str());
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << '"' << metrics[i].name
           << "\": {\"value\": " << exact(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

double
peakRssMiB()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

} // namespace

int
main(int argc, char **argv)
{
    const auto origin = Clock::now();
    // Line-buffered, so a point that aborts leaves the lines before it.
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        std::string val = argv[++i];
        if (arg == "--workload")
            opts.workload = val;
        else if (arg == "--seed")
            opts.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::atof(val.c_str());
        else if (arg == "--trace")
            opts.trace = val == "1";
        else if (arg == "--size")
            opts.min_size = val == "min";
        else if (arg == "--root")
            opts.root = val;
        else if (arg == "--out")
            opts.out_dir = val;
        else if (arg == "--git-sha")
            opts.git_sha = val;
        else
            return usage();
    }
    const Workload *workload = findWorkload(opts.workload);
    if (!workload)
        return usage();

    std::vector<double> calib;
    for (int i = 0; i < 3; ++i)
        calib.push_back(calibrationMs());
    const double calib_ms = median(calib);

    Bench bench(opts, *workload, origin);
    if (!bench.init()) {
        std::fprintf(stderr, "perfbench: no points for %s\n", workload->name);
        return 1;
    }
    std::printf("stamp git_sha=%s build_type=%s compiler=\"%s\" "
                "hw_threads=%u host.calib_ms=%.3f\n",
                opts.git_sha.c_str(), PERFBENCH_BUILD_TYPE, __VERSION__,
                std::thread::hardware_concurrency(), calib_ms);
    std::printf("workload %s seed %" PRIu64 ": %zu point(s) of %s%s, "
                "--threads 1, %s\n",
                workload->name, opts.seed, bench.numPoints(),
                workload->scenario, workload->quick ? " --quick" : "",
                opts.trace ? "plain and traced passes alternate"
                           : "plain passes");

    // Passes repeat until the budget is spent; the trace run needs at
    // least one of each kind.
    std::vector<PassResult> passes;
    auto measure_start = Clock::now();
    for (int pass = 0;; ++pass) {
        // Each pass simulates a fresh sub-seed of --seed; a trace run
        // simulates each one plain, then traced.
        bool traced = opts.trace && pass % 2 == 1;
        int draw = opts.trace ? pass / 2 : pass;
        const std::uint64_t offset = opts.seed * kDrawsPerSeed + draw;
        passes.push_back(bench.runPass(pass, traced, offset));
        std::printf("pass %d sub-seed %" PRIu64 " %s: wall %.6f s, "
                    "setup %.6f s\n",
                    pass, offset, traced ? "traced" : "plain",
                    passes.back().wall_s, passes.back().setup_s);
        bool spent =
            secondsBetween(measure_start, Clock::now()) >= opts.seconds;
        if ((spent && (!opts.trace || traced)) ||
            std::uint64_t(draw) + 1 >= kDrawsPerSeed)
            break;
    }
    const double peak_rss = peakRssMiB();
    if (std::string(workload->name) == "serve_sweep" && !opts.min_size)
        bench.checkCommittedCsv();
    std::filesystem::create_directories(opts.out_dir);
    bench.reportDigests(opts.out_dir + "/perfbench-digests-" +
                        workload->name + ".txt");

    std::vector<double> plain_wall, plain_setup, traced_wall;
    std::vector<std::vector<Metric>> traced_layers;
    for (const auto &p : passes) {
        if (p.traced) {
            traced_wall.push_back(p.wall_s);
            traced_layers.push_back(layerMetrics(p.layers));
        } else {
            plain_wall.push_back(p.wall_s);
            plain_setup.push_back(p.setup_s);
        }
    }

    const std::uint64_t attempted = bench.attempted();
    const std::uint64_t failed = bench.failed();
    const double failed_share = ratio(double(failed), double(attempted));
    std::vector<Metric> out;
    if (!opts.trace) {
        std::string n = "median of " + std::to_string(plain_wall.size()) +
                        " passes";
        auto [lo, hi] =
            std::minmax_element(plain_wall.begin(), plain_wall.end());
        char range[64];
        std::snprintf(range, sizeof(range), "min %.4f, max %.4f", *lo, *hi);
        out = {
            {"wall_s", median(plain_wall), "s", range},
            {"setup_s", median(plain_setup), "s",
             "parse + validate + build + trace generation"},
            {"peak_rss_mb", peak_rss, "MiB", ""},
        };
        printMetric(out[0], n);
        printMetric(out[1], n);
        printMetric(out[2], "1 sample (process peak)");
        printMetric({"points_failed", failed_share, "ratio", ""},
                    std::to_string(failed) + " of " +
                        std::to_string(attempted) + " points");
    } else {
        std::size_t k = traced_layers.size();
        std::string n = "median of " + std::to_string(k) + " traced passes";
        for (std::size_t i = 0; i < traced_layers.front().size(); ++i) {
            std::vector<double> v;
            for (const auto &pass : traced_layers)
                v.push_back(pass[i].value);
            Metric m = traced_layers.front()[i];
            m.value = median(v);
            out.push_back(m);
        }
        out.push_back(
            {"host.calib_ms", calib_ms, "ms", "fixed loop, median of 3"});
        double overhead = ratio(median(traced_wall), median(plain_wall));
        out.push_back({"bench.traced_over_plain", overhead, "ratio",
                       "traced pass wall / plain pass wall"});
        for (const auto &m : out)
            printMetric(m, n);
        std::printf("tracing overhead: traced %.4f s vs plain %.4f s per "
                    "pass (medians of %zu and %zu), x%.4f\n",
                    median(traced_wall), median(plain_wall),
                    traced_wall.size(), plain_wall.size(), overhead);
        std::string spans = opts.out_dir + "/perfbench-spans-" +
                            workload->name + ".json";
        if (bench.tracer().write(spans))
            std::printf("spans: %s (%zu)\n", spans.c_str(),
                        bench.tracer().size());
    }
    std::printf("%s\n",
                resultJson(failed == 0, attempted, failed, out).c_str());
    return 0;
}
