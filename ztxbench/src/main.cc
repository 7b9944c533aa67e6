/**
 * @file
 * ztxbench: run one named workload (or `all`) of the zTX benchmark
 * for a time budget and report its metrics.
 *
 *   ztxbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * A run repeats the workload's job list ("a pass") until S seconds
 * have passed and reports medians over the passes. The first pass
 * only warms up; at least three timed ones follow. Every pass of
 * one run uses the same seed, so each job's simulated-results digest
 * must repeat exactly; a job whose digest
 * changes, whose own checks fail, or whose sharded statsJson differs
 * across host-thread counts counts as failed.
 *
 * The reported times are in reference seconds: host seconds divided
 * by the speed of HostReference, fixed loops timed between the jobs
 * of the same pass, so that a shared host's slow and fast phases
 * cancel out. The raw host times are in the log.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 alternates
 * untraced passes with traced ones (phase profiler on) and reports
 * the per-layer metrics of the traced passes plus trace.overhead,
 * the traced/untraced ratio of median pass time. The last
 * line of stdout is one JSON object: correct, attempted, failed and
 * metrics ({name: {value, unit}}).
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/json.hh"
#include "common/prof.hh"
#include "jobs.hh"

namespace {

using namespace ztxbench;

/** Wall-clock cap on the measured passes of one workload. */
constexpr double maxRunSeconds = 150.0;

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return unsigned(std::max(1, CPU_COUNT(&set)));
    return 1;
}

/** The CPU's brand string, read with CPUID (no file access). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s = brand;
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

/** CPU seconds this process has used, over all its threads. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/**
 * The host-speed reference: two fixed single-threaded loops that do
 * not call the library, so a change to the program leaves them alone
 * while a shared host's slow and fast phases move them with the
 * simulator. One is integer and branch work in registers, the way
 * simulated spinning keeps a host core busy; the other looks lines up
 * in an 8-way LRU cache model of 16 MiB of tags and use ticks, the way
 * the simulator's cache arrays for 100 or more CPUs miss the host's
 * private caches. The two take about the same time, so the reference
 * slows with both kinds of contention.
 */
class HostReference
{
    /** @name The cache model: 8-way sets and a hot region @{ */
    static constexpr std::size_t sets = 1u << 17;
    static constexpr unsigned ways = 8;
    static constexpr std::uint64_t hotLines = 4096;
    /** @} */

  public:
    /** Iterations of each loop in one timed chunk. */
    static constexpr unsigned aluIters = 1u << 19;
    static constexpr unsigned cacheIters = 3u << 16;
    /** Chunks whose host time is one reference second. */
    static constexpr double refSecondChunks = 100;
    /** Host seconds of jobs between two chunks of a pass. */
    static constexpr double chunkEvery = 0.1;

    /** Bytes of the cache model's tables, all resident. */
    static constexpr std::size_t tableBytes =
        2 * sets * ways * sizeof(std::uint64_t);

    /** Run one chunk; return its host seconds. */
    double chunk()
    {
        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t x = 0x9E3779B97F4A7C15ULL, acc = 0;
        for (unsigned i = 0; i < aluIters; ++i) {
            x = xorshift(x);
            if (x & 1)
                acc += x >> 3;
            else
                acc ^= x * 3;
            if ((x >> 5) & 3)
                acc += i;
        }
        for (unsigned i = 0; i < cacheIters; ++i) {
            x = xorshift(x);
            // Three in four accesses go to a hot 4096-line region.
            const std::uint64_t line =
                (x & 3) ? (x >> 8) % hotLines : (x >> 8) % (sets * 64);
            std::uint64_t *tag = &tags_[(line % sets) * ways];
            std::uint64_t *use = &uses_[(line % sets) * ways];
            const std::uint64_t want = line / sets + 1;
            unsigned way = 0;
            while (way < ways && tag[way] != want)
                ++way;
            if (way == ways) {
                way = 0;
                for (unsigned w = 1; w < ways; ++w)
                    if (use[w] < use[way])
                        way = w;
                tag[way] = want;
            } else {
                ++acc;
            }
            use[way] = ++tick_;
        }
        sink_ = acc;
        return secondsSince(t0);
    }

  private:
    static std::uint64_t xorshift(std::uint64_t x)
    {
        x ^= x << 13;
        x ^= x >> 7;
        return x ^ (x << 17);
    }

    std::vector<std::uint64_t> tags_{std::vector<std::uint64_t>(sets * ways)};
    std::vector<std::uint64_t> uses_{std::vector<std::uint64_t>(sets * ways)};
    std::uint64_t tick_ = 0;
    volatile std::uint64_t sink_ = 0;
};

/** One pass over a workload's job list. */
struct Pass
{
    /** The first pass only warms up: its times are not reported. */
    bool warmup = false;
    bool traced = false;
    double wall = 0; ///< host seconds in the jobs
    double cpu = 0;  ///< process CPU seconds in the jobs, all threads
    /** Host seconds and number of the reference chunks timed. */
    double refChunkSeconds = 0;
    unsigned refChunks = 0;
    Spans spans;
    Counts counts;
    std::uint64_t runInstructions = 0;
    std::vector<JobResult> jobs;
    /** @name Phase-profiler figures (traced passes only) @{ */
    double stepSelfTicks = 0;
    double fetchTicks = 0;
    double stcStoreTicks = 0;
    double stcOverlayTicks = 0;
    double mergeShare = 0;
    /** @} */

    double setup() const { return spans.ctor + spans.build; }
    double simMips() const
    {
        return ratio(double(runInstructions), spans.run) / 1e6;
    }
    /** Host seconds of one reference second during this pass. */
    double refSecond() const
    {
        return ratio(refChunkSeconds, refChunks) *
               HostReference::refSecondChunks;
    }
    /** The jobs' time and set-up time in reference seconds. */
    double wallRef() const { return ratio(wall, refSecond()); }
    double setupRef() const { return ratio(setup(), refSecond()); }
    /** Simulated million instructions per reference second of run. */
    double simMipsRef() const { return simMips() * refSecond(); }
};

/** Fill @p pass's profiler figures from prof::snapshotJson(). */
void
readProfiler(Pass &pass)
{
    const ztx::Json snap = ztx::prof::snapshotJson();
    const ztx::Json *sites = snap.find("sites");
    const auto site = [sites](const char *name) {
        std::pair<double, double> cc{0, 0}; // cycles, calls
        for (std::size_t i = 0; sites && i < sites->size(); ++i) {
            const ztx::Json &s = sites->at(i);
            if (s.find("name")->str() == name)
                cc = {s.find("cycles")->number(),
                      s.find("calls")->number()};
        }
        return cc;
    };
    const auto step = site("cpu.step");
    const auto fetch = site("hier.fetch");
    const auto store = site("stc.store");
    const auto overlay = site("stc.overlay");
    const auto parallel = site("sched.parallel");
    const auto merge = site("sched.merge");
    // Self time of a step: the fetch and store-cache sites nest
    // inside it.
    pass.stepSelfTicks =
        ratio(step.first - fetch.first - store.first - overlay.first,
              step.second);
    pass.fetchTicks = ratio(fetch.first, fetch.second);
    pass.stcStoreTicks = ratio(store.first, store.second);
    pass.stcOverlayTicks = ratio(overlay.first, overlay.second);
    pass.mergeShare =
        ratio(merge.first, parallel.first + merge.first);
}

/**
 * Run @p jobs once. A reference chunk runs before the first job and
 * after every job that ends chunkEvery or more job seconds after the
 * last chunk, and after the last job, so the reference samples the
 * host's speed across the pass.
 */
Pass
runPass(const std::vector<Job> &jobs, bool traced, HostReference &ref)
{
    Pass pass;
    pass.traced = traced;
    const auto time_chunk = [&pass, &ref] {
        pass.refChunkSeconds += ref.chunk();
        ++pass.refChunks;
    };
    if (traced) {
        ztx::prof::reset();
        ztx::prof::setEnabled(true);
    }
    time_chunk();
    double since_chunk = 0;
    for (const Job &job : jobs) {
        const double cpu0 = cpuSeconds();
        const auto t0 = std::chrono::steady_clock::now();
        pass.jobs.push_back(job.run());
        const double wall = secondsSince(t0);
        pass.cpu += cpuSeconds() - cpu0;
        pass.wall += wall;
        since_chunk += wall;
        if (since_chunk >= HostReference::chunkEvery ||
            &job == &jobs.back()) {
            time_chunk();
            since_chunk = 0;
        }
    }
    if (traced) {
        ztx::prof::setEnabled(false);
        readProfiler(pass);
    }
    for (const JobResult &r : pass.jobs) {
        pass.spans.add(r.spans);
        pass.counts.add(r.counts);
        pass.runInstructions += r.runInstructions;
    }
    return pass;
}

/** Outcome of one workload run. */
struct Outcome
{
    std::vector<Metric> metrics;
    unsigned attempted = 0;
    unsigned failed = 0;
};

/** @p f over the timed passes that are traced, or untraced. */
template <class F>
std::vector<double>
samples(const std::vector<Pass> &passes, bool traced, F f)
{
    std::vector<double> v;
    for (const Pass &p : passes)
        if (!p.warmup && p.traced == traced)
            v.push_back(f(p));
    return v;
}

template <class F>
double
medianOf(const std::vector<Pass> &passes, bool traced, F f)
{
    return median(samples(passes, traced, f));
}

std::vector<Metric>
perLayerMetrics(const std::vector<Pass> &passes)
{
    const auto traced = [&passes](auto f) {
        return medianOf(passes, true, f);
    };
    // Exact counts repeat in every pass (checked); take the first.
    const Counts &c = passes.front().counts;
    const auto n = [](std::uint64_t v) { return double(v); };
    return {
        {"workload.build_s", traced([](const Pass &p) {
             return p.spans.build;
         }),
         "s"},
        {"sim.ctor_s", traced([](const Pass &p) { return p.spans.ctor; }),
         "s"},
        {"sim.run_s", traced([](const Pass &p) { return p.spans.run; }),
         "s"},
        {"sim.parallel_s", traced([](const Pass &p) {
             return p.spans.parallel;
         }),
         "s"},
        {"sim.merge_s", traced([](const Pass &p) {
             return p.spans.merge;
         }),
         "s"},
        {"sim.quanta", n(passes.front().spans.quanta), "count"},
        {"workload.collect_s", traced([](const Pass &p) {
             return p.spans.collect;
         }),
         "s"},
        {"inject.check_s", traced([](const Pass &p) {
             return p.spans.check;
         }),
         "s"},
        {"litmus.enumerate_s", traced([](const Pass &p) {
             return p.spans.enumerate;
         }),
         "s"},
        {"prof.cpu.step.self_ticks", traced([](const Pass &p) {
             return p.stepSelfTicks;
         }),
         "ticks/step"},
        {"prof.hier.fetch.ticks_per_call", traced([](const Pass &p) {
             return p.fetchTicks;
         }),
         "ticks/call"},
        {"prof.stc.store.ticks_per_call", traced([](const Pass &p) {
             return p.stcStoreTicks;
         }),
         "ticks/call"},
        {"prof.stc.overlay.ticks_per_call", traced([](const Pass &p) {
             return p.stcOverlayTicks;
         }),
         "ticks/call"},
        {"prof.sched.merge_share", traced([](const Pass &p) {
             return p.mergeShare;
         }),
         "ratio"},
        {"trace.overhead",
         ratio(traced([](const Pass &p) { return p.wallRef(); }),
               medianOf(passes, false,
                        [](const Pass &p) { return p.wallRef(); })),
         "ratio"},
        {"core.instructions", n(c.instructions), "count"},
        {"core.ipc", ratio(n(c.instructions), n(c.cpuCycles)),
         "instr/cycle"},
        {"sim.cycles", n(c.cycles), "cycles"},
        {"tx.commits", n(c.commits), "count"},
        {"tx.aborts", n(c.aborts), "count"},
        {"tx.abort_rate", ratio(n(c.aborts), n(c.commits + c.aborts)),
         "ratio"},
        {"tx.aborts.store-conflict", n(c.abortsStoreConflict), "count"},
        {"tx.aborts.fetch-conflict", n(c.abortsFetchConflict), "count"},
        {"millicode.ppa", n(c.ppa), "count"},
        {"millicode.solo_requests", n(c.soloRequests), "count"},
        {"mem.fetch.l1_hit", n(c.l1Hits), "count"},
        {"mem.fetch.miss", n(c.fetchMisses), "count"},
        {"mem.xi.received", n(c.xiReceived), "count"},
        {"mem.xi.rejected", n(c.xiRejected), "count"},
        {"core.stc.gathers", n(c.stcGathers), "count"},
        {"sched.serial_fraction",
         ratio(n(c.stepsDeferred), n(c.stepsTotal)), "ratio"},
        {"sched.steps_deferred", n(c.stepsDeferred), "count"},
        {"litmus.schedules", n(c.litmusSchedules), "count"},
        {"workload.norm_throughput",
         ratio(c.normThroughputSum, c.normThroughputJobs), "norm"},
    };
}

std::uint64_t
passDigest(const Pass &pass)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const JobResult &r : pass.jobs) {
        h ^= r.digest;
        h *= 0x100000001b3ULL;
    }
    return h;
}

Outcome
runWorkload(const std::string &name, const Options &opt,
            unsigned host_threads)
{
    const std::vector<Job> jobs =
        workloadJobs(name, opt.seed, host_threads);
    std::printf("# workload %s: %zu jobs, seed %llu, %s\n", name.c_str(),
                jobs.size(), (unsigned long long)opt.seed,
                opt.trace ? "traced (untraced passes interleaved)"
                          : "untraced");

    Outcome out;
    HostReference ref;
    std::vector<Pass> passes;
    // A warm-up pass, then at least three timed ones (two of each
    // kind when traced).
    const unsigned min_passes = opt.trace ? 5 : 4;
    const auto t0 = std::chrono::steady_clock::now();
    while (passes.size() < min_passes ||
           (secondsSince(t0) < opt.seconds &&
            secondsSince(t0) < maxRunSeconds)) {
        const bool traced = opt.trace && passes.size() % 2 == 0 &&
                            !passes.empty();
        Pass pass = runPass(jobs, traced, ref);
        pass.warmup = passes.empty();

        // Per-job checks: its own verdict, the digest of pass 1,
        // and byte-identical statsJson where the job asks for it.
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            JobResult &r = pass.jobs[j];
            if (!passes.empty() && r.digest != passes[0].jobs[j].digest)
                r.fail("simulated results differ from pass 1");
            if (jobs[j].sameStatsAs >= 0 &&
                r.stats != pass.jobs[jobs[j].sameStatsAs].stats)
                r.fail("statsJson differs from " +
                       jobs[jobs[j].sameStatsAs].name);
            ++out.attempted;
            if (!r.ok) {
                ++out.failed;
                std::printf("FAIL pass %zu job %s: %s\n",
                            passes.size() + 1, jobs[j].name.c_str(),
                            r.why.c_str());
            }
        }
        if (passes.empty()) {
            for (std::size_t j = 0; j < jobs.size(); ++j)
                std::printf("job %-24s digest=%016llx %s\n",
                            jobs[j].name.c_str(),
                            (unsigned long long)pass.jobs[j].digest,
                            pass.jobs[j].summary.c_str());
            std::printf("# sim_digest=%016llx\n",
                        (unsigned long long)passDigest(pass));
        }
        std::printf("pass %zu%s wall_s=%.6f cpu_s=%.6f setup_s=%.6f "
                    "sim_mips=%.4f ref_s=%.6f wall_ref_s=%.6f "
                    "setup_ref_s=%.6f sim_mips_ref=%.4f\n",
                    passes.size() + 1,
                    pass.warmup ? " warm-up" : pass.traced ? " traced" : "",
                    pass.wall, pass.cpu, pass.setup(), pass.simMips(),
                    pass.refSecond(), pass.wallRef(), pass.setupRef(),
                    pass.simMipsRef());
        for (JobResult &r : pass.jobs)
            r.stats.clear(); // checked above; the digest covers it
        passes.push_back(std::move(pass));
    }

    const auto untraced = [&passes](auto f) {
        return medianOf(passes, false, f);
    };
    const double fail_frac = ratio(out.failed, out.attempted);
    const std::vector<double> walls =
        samples(passes, false, [](const Pass &p) { return p.wall; });
    std::printf("# %zu untraced timed passes (after 1 warm-up), wall_s "
                "min %.6f max %.6f; %zu traced passes\n",
                walls.size(), *std::min_element(walls.begin(), walls.end()),
                *std::max_element(walls.begin(), walls.end()),
                passes.size() - 1 - walls.size());
    std::printf("# fail_frac = %.6g (%u of %u jobs failed)\n", fail_frac,
                out.failed, out.attempted);
    std::printf("# untraced medians in host time: wall_s = %.6f s, "
                "setup_s = %.6f s, sim_mips = %.4f MIPS; one reference "
                "second = %.6f s\n",
                untraced([](const Pass &p) { return p.wall; }),
                untraced([](const Pass &p) { return p.setup(); }),
                untraced([](const Pass &p) { return p.simMips(); }),
                untraced([](const Pass &p) { return p.refSecond(); }));
    if (opt.trace) {
        out.metrics = perLayerMetrics(passes);
    } else {
        out.metrics = {
            {"wall_ref_s",
             untraced([](const Pass &p) { return p.wallRef(); }), "ref_s"},
            // Named setup_s with unit s in BENCHMARK.json, like every
            // time here it is in reference seconds.
            {"setup_s",
             untraced([](const Pass &p) { return p.setupRef(); }), "s"},
            {"sim_mips_ref",
             untraced([](const Pass &p) { return p.simMipsRef(); }),
             "MI/ref_s"},
            // The reference's tables are not the program's memory.
            {"peak_rss_mb",
             peakRssMb() - HostReference::tableBytes / 1048576.0, "MB"},
        };
    }
    for (const Metric &m : out.metrics)
        std::printf("metric %-32s %.17g %s\n", m.name.c_str(), m.value,
                    m.unit);
    return out;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "ztxbench: %s\n"
                 "usage: ztxbench --workload "
                 "spin-lock|tx-conflict|zec12-144|verify|all\n"
                 "                --seed N --seconds S --trace 0|1\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val, &end, 10);
            if (*val == '-' || *end != '\0')
                usage("--seed wants a non-negative integer");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val, &end);
            if (*end != '\0' || !(opt.seconds > 0))
                usage("--seconds wants a positive number");
        } else if (arg == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
                usage("--trace wants 0 or 1");
            opt.trace = val[0] == '1';
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    const auto &names = workloadNames();
    if (opt.workload != "all" &&
        std::find(names.begin(), names.end(), opt.workload) ==
            names.end())
        usage(("unknown workload '" + opt.workload + "'").c_str());
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    const std::string build_type = ZTXB_BUILD_TYPE;
    bool release = build_type == "Release";
#ifndef NDEBUG
    release = false;
#endif
    if (!release) {
        std::fprintf(stderr,
                     "ztxbench: refusing to report numbers from a "
                     "non-Release build (CMAKE_BUILD_TYPE=%s)\n",
                     build_type.c_str());
        return 3;
    }

    const unsigned nproc = hostCpus();
    const unsigned host_threads = std::min(4u, nproc);
#if defined(__clang__)
    const char *compiler = "clang";
#elif defined(__GNUC__)
    const char *compiler = "gcc";
#else
    const char *compiler = "c++";
#endif
    std::printf("# ztxbench seed=%llu seconds=%g trace=%d\n",
                (unsigned long long)opt.seed, opt.seconds,
                int(opt.trace));
    std::printf("# host: nproc=%u cpu=\"%s\" compiler=\"%s %s\" "
                "build=%s lto=%s sharded_threads=%u\n",
                nproc, cpuModel().c_str(), compiler, __VERSION__,
                build_type.c_str(), ZTXB_LTO ? "on" : "off",
                host_threads);
    std::printf("# every simulated machine starts with empty caches\n");
    std::printf("# the model is numerically unvalidated: the repo holds "
                "no reference numbers, only the paper's qualitative "
                "Figure 5 shape\n");

    const std::vector<std::string> names =
        opt.workload == "all" ? workloadNames()
                              : std::vector<std::string>{opt.workload};
    Outcome total;
    for (const std::string &name : names) {
        Outcome o = runWorkload(name, opt, host_threads);
        total.attempted += o.attempted;
        total.failed += o.failed;
        for (Metric &m : o.metrics) {
            if (names.size() > 1)
                m.name = name + "." + m.name;
            total.metrics.push_back(std::move(m));
        }
    }

    std::string line = "{\"correct\": ";
    line += total.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(total.attempted);
    line += ", \"failed\": " + std::to_string(total.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < total.metrics.size(); ++i) {
        const Metric &m = total.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
