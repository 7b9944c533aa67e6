#include "jobs.hh"

#include <chrono>
#include <cstdio>
#include <map>
#include <utility>

#include "common/json.hh"
#include "inject/fault_plan.hh"
#include "inject/oracle.hh"
#include "inject/order_infer.hh"
#include "isa/program.hh"
#include "litmus/compile.hh"
#include "litmus/corpus.hh"
#include "litmus/dsl.hh"
#include "litmus/enumerate.hh"
#include "sim/machine.hh"
#include "workload/hashtable.hh"
#include "workload/layout.hh"
#include "workload/list_set.hh"
#include "workload/op_log.hh"
#include "workload/queue.hh"
#include "workload/report.hh"
#include "workload/update_bench.hh"

namespace ztxbench {

using namespace ztx;

void
Spans::add(const Spans &o)
{
    build += o.build;
    ctor += o.ctor;
    run += o.run;
    collect += o.collect;
    check += o.check;
    enumerate += o.enumerate;
    parallel += o.parallel;
    merge += o.merge;
    quanta += o.quanta;
}

void
Counts::add(const Counts &o)
{
    instructions += o.instructions;
    cycles += o.cycles;
    cpuCycles += o.cpuCycles;
    commits += o.commits;
    aborts += o.aborts;
    abortsStoreConflict += o.abortsStoreConflict;
    abortsFetchConflict += o.abortsFetchConflict;
    ppa += o.ppa;
    soloRequests += o.soloRequests;
    l1Hits += o.l1Hits;
    fetchMisses += o.fetchMisses;
    xiReceived += o.xiReceived;
    xiRejected += o.xiRejected;
    stcGathers += o.stcGathers;
    stepsDeferred += o.stepsDeferred;
    stepsTotal += o.stepsTotal;
    litmusSchedules += o.litmusSchedules;
    normThroughputSum += o.normThroughputSum;
    normThroughputJobs += o.normThroughputJobs;
}

void
JobResult::fail(std::string reason)
{
    if (ok)
        why = std::move(reason);
    ok = false;
}

namespace {

/** Splits host time into consecutive spans. */
class Stopwatch
{
  public:
    /** Seconds since the previous lap (or construction). */
    double
    lap()
    {
        const auto t = std::chrono::steady_clock::now();
        const double s = std::chrono::duration<double>(t - last_).count();
        last_ = t;
        return s;
    }

  private:
    std::chrono::steady_clock::time_point last_ =
        std::chrono::steady_clock::now();
};

/** FNV-1a, 64 bit. */
std::uint64_t
fnv1a(const std::string &text, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** SplitMix64: the per-job machine seed from the workload seed. */
std::uint64_t
jobSeed(std::uint64_t seed, unsigned job)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (job + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/**
 * The figure benches' machine: the paper's topology with L3/L4
 * trimmed to 8 MB/32 MB (every workload footprint stays far below
 * either), as bench/bench_util.hh's benchMachine().
 */
sim::MachineConfig
benchMachine()
{
    sim::MachineConfig cfg;
    cfg.geometry.l3 = {8ULL << 20, 12};
    cfg.geometry.l4 = {32ULL << 20, 24};
    return cfg;
}

/** The paper's normalization: 100 = 2 CPUs, 1 var, pool 1, lock. */
double
normalizationReference()
{
    static const double ref =
        workload::referenceThroughput(benchMachine(), 600);
    return ref;
}

std::uint64_t
counterOf(const Json &group, const char *name)
{
    const Json *counters = group.find("counters");
    const Json *c = counters ? counters->find(name) : nullptr;
    return c ? c->asUint() : 0;
}

/**
 * Stats collection shared by every machine job: the tx summary, the
 * statsJson document with its counts, the store-cache gathers, the
 * normalized throughput (CPUs / mean measured-region cycles) and
 * the digest.
 */
void
collect(sim::Machine &m, Cycles elapsed, JobResult &r)
{
    const workload::TxStatsSummary tx = workload::collectTxStats(m);
    double region_sum = 0;
    std::uint64_t region_count = 0;
    for (unsigned i = 0; i < m.numCpus(); ++i) {
        region_sum += m.cpu(i).regionCycles().sum();
        region_count += m.cpu(i).regionCycles().count();
    }
    const Json doc = m.statsJson();
    r.stats = doc.dump();

    Counts &c = r.counts;
    c.instructions = tx.instructions;
    c.cycles = elapsed;
    c.cpuCycles = std::uint64_t(elapsed) * m.numCpus();
    c.commits = tx.commits;
    c.aborts = tx.aborts;
    const auto reason = [&tx](const char *name) {
        const auto it = tx.abortsByReason.find(name);
        return it == tx.abortsByReason.end() ? std::uint64_t(0)
                                             : it->second;
    };
    c.abortsStoreConflict = reason("store-conflict");
    c.abortsFetchConflict = reason("fetch-conflict");
    const Json &hier = *doc.find("hierarchy");
    c.l1Hits = counterOf(hier, "fetch.l1_hit");
    c.fetchMisses = counterOf(hier, "fetch.miss");
    c.xiRejected = counterOf(hier, "xi.rejected");
    const Json &mach = *doc.find("machine");
    c.stepsDeferred = counterOf(mach, "sched.steps_deferred");
    c.stepsTotal = counterOf(mach, "sched.steps_total");
    const Json &cpus = *doc.find("cpus");
    for (std::size_t i = 0; i < cpus.size(); ++i) {
        c.ppa += counterOf(cpus.at(i), "millicode.ppa");
        c.soloRequests +=
            counterOf(cpus.at(i), "millicode.solo_requests");
        c.xiReceived += counterOf(cpus.at(i), "xi.received");
    }
    for (unsigned i = 0; i < m.numCpus(); ++i) {
        // The store cache exposes its stats through a non-const
        // accessor only; reading the counters does not modify it.
        auto &cache = const_cast<core::GatheringStoreCache &>(
            m.cpu(i).storeCache());
        const auto &stc = cache.stats().counters();
        if (const auto it = stc.find("gathers"); it != stc.end())
            c.stcGathers += it->second.value();
    }
    double norm = 0;
    if (region_count != 0) {
        const double throughput =
            double(m.numCpus()) / (region_sum / double(region_count));
        norm = 100.0 * throughput / normalizationReference();
        c.normThroughputSum = norm;
        c.normThroughputJobs = 1;
    }
    r.runInstructions = tx.instructions;

    char head[96];
    std::snprintf(head, sizeof head,
                  "norm_throughput=%.17g commits=%llu aborts=%llu",
                  norm, (unsigned long long)tx.commits,
                  (unsigned long long)tx.aborts);
    r.summary = head;
    for (const auto &[name, n] : tx.abortsByReason)
        r.summary += " " + name + "=" + std::to_string(n);
    r.digest = fnv1a(r.summary, fnv1a(r.stats));

    const sim::HostPhaseTimes &pt = m.hostPhaseTimes();
    r.spans.parallel = pt.parallelSeconds;
    r.spans.merge = pt.mergeSeconds;
    r.spans.quanta = pt.quanta;
}

/** Figure-5 update/read job (workload/update_bench.hh). */
JobResult
runUpdate(const workload::UpdateBenchConfig &cfg)
{
    JobResult r;
    sim::MachineConfig mcfg = cfg.machine;
    mcfg.activeCpus = cfg.cpus;
    mcfg.seed = cfg.seed;
    Stopwatch sw;
    sim::Machine m(mcfg);
    r.spans.ctor = sw.lap();
    const isa::Program program = workload::buildUpdateProgram(cfg);
    m.setProgramAll(&program);
    r.spans.build = sw.lap();
    const Cycles elapsed = m.run();
    r.spans.run = sw.lap();
    collect(m, elapsed, r);
    r.spans.collect = sw.lap();

    if (!m.allHalted()) {
        r.fail("machine did not halt");
        return r;
    }
    // Pool-sum conservation: every update op adds 1 to each of its
    // variables exactly once, whatever synchronized it; reads add 0.
    m.drainAllStores();
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < cfg.poolSize; ++i)
        sum += m.memory().read(workload::poolBase + Addr(i) * 256, 8);
    const std::uint64_t want =
        cfg.readOnly ? 0
                     : std::uint64_t(cfg.cpus) * cfg.iterations *
                           cfg.varsPerOp;
    if (sum != want)
        r.fail("pool sum " + std::to_string(sum) + " != " +
               std::to_string(want));
    if (r.counts.commits + r.counts.aborts == 0 &&
        cfg.method != workload::SyncMethod::CoarseLock)
        r.fail("no transactions ran");
    return r;
}

/** Watchdog window of the chaos jobs, as bench/chaos. */
constexpr Cycles chaosWatchdog = 2'000'000;

/** Fault plan of chaos mix @p mix (bench/chaos's base rates). */
inject::FaultPlan
mixPlan(const std::string &mix, Addr hot_line)
{
    inject::FaultPlan plan;
    if (mix == "spurious")
        plan.spuriousAbortRate = 0.002;
    else if (mix == "xi_storm")
        plan.xiStormRate = 0.003;
    else if (mix == "squeeze") {
        plan.capacitySqueezeRate = 0.0005;
        plan.squeezeDuration = 3000;
    } else if (mix == "interrupts")
        plan.interruptStormRate = 0.0004;
    else if (mix == "delayed_xi") {
        plan.delayedXiRate = 0.2;
        plan.xiDelayMax = 300;
    } else if (mix == "targeted") {
        plan.targetedConflictRate = 0.004;
        plan.targetedLine = hot_line;
    }
    return plan;
}

/** The chaos structures' shared machine set-up. */
sim::MachineConfig
chaosMachine(unsigned cpus, std::uint64_t seed, const std::string &mix,
             Addr hot_line)
{
    sim::MachineConfig mcfg = benchMachine();
    mcfg.faults = mixPlan(mix, hot_line);
    mcfg.watchdogCycles = chaosWatchdog;
    mcfg.activeCpus = cpus;
    mcfg.seed = seed;
    return mcfg;
}

/** Bind @p program and @p log to every CPU (R15: private arena). */
void
bindChaos(sim::Machine &m, const isa::Program &program,
          workload::OpLog &log)
{
    m.setProgramAll(&program);
    for (unsigned i = 0; i < m.numCpus(); ++i) {
        m.cpu(i).setGr(15, workload::arenaBase +
                               Addr(i) * workload::arenaStride);
        m.cpu(i).setOpRecorder(&log);
    }
}

/** Run a chaos machine and collect; false if it cannot be judged. */
bool
runChaos(sim::Machine &m, Stopwatch &sw, JobResult &r)
{
    const Cycles elapsed = m.run();
    r.spans.run = sw.lap();
    collect(m, elapsed, r);
    r.spans.collect = sw.lap();
    if (m.watchdogFired()) {
        r.fail("forward-progress watchdog fired");
        return false;
    }
    if (!m.allHalted()) {
        r.fail("machine did not halt");
        return false;
    }
    return true;
}

/** Fold an order-inference report and oracle into @p r. */
void
judge(const inject::OrderInferReport &rep,
      const inject::OracleReport &oracle, sim::Machine &m, JobResult &r)
{
    if (!rep.verdict.checked)
        r.fail("history unchecked: " + rep.verdict.reason);
    else if (!rep.verdict.linearizable)
        r.fail("history not linearizable: " + rep.verdict.reason);
    if (!oracle.ok)
        r.fail("oracle: " + oracle.summary());
    if (std::string why = workload::indexOracleCheck(m); !why.empty())
        r.fail("hot-path index inconsistent: " + why);
    r.summary += rep.inferred ? " order=inferred" : " order=dfs";
}

/** Op-log record to checker op, for programs that log the op code. */
void
decodeRecord(const workload::OpRecord &rec, inject::LinOp &op)
{
    op.code = inject::LinOpCode(rec.code);
    op.arg = rec.a0;
    op.result = rec.result;
}

constexpr unsigned chaosCpus = 4;
constexpr unsigned chaosIterations = 150;

JobResult
runListSet(std::uint64_t seed, const std::string &mix)
{
    JobResult r;
    workload::ListSetBenchConfig cfg;
    cfg.cpus = chaosCpus;
    cfg.useElision = true;
    cfg.iterations = chaosIterations;
    cfg.opLog = true;
    cfg.seed = seed;

    Stopwatch sw;
    sim::Machine m(chaosMachine(cfg.cpus, seed, mix, workload::listBase));
    // Pre-fill: a sorted chain of half the key space.
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; k <= cfg.keySpace; k += 2)
        keys.push_back(k);
    Addr prev = workload::listBase;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const Addr node = workload::listPrefillArena + Addr(i) * 256;
        m.memory().write(node + 0, keys[i], 8);
        m.memory().write(prev + 8, node, 8);
        prev = node;
    }
    m.memory().write(prev + 8, 0, 8);
    r.spans.ctor = sw.lap();
    const isa::Program program = workload::buildListSetProgram(cfg);
    workload::OpLog log(m.numCpus(), cfg.opLogCapacity);
    bindChaos(m, program, log);
    r.spans.build = sw.lap();
    if (!runChaos(m, sw, r))
        return r;

    const auto history = log.history(decodeRecord);
    const inject::OrderInferReport rep =
        workload::checkLoggedHistoryOrdered(log, [&] {
            return inject::inferSetLinearizable(history, keys);
        });
    std::int64_t net_inserts = 0;
    for (unsigned i = 0; i < m.numCpus(); ++i)
        net_inserts += std::int64_t(m.cpu(i).gr(14));
    m.drainAllStores();
    const inject::OracleReport oracle = inject::checkListSet(
        m.memory(), m.allHalted(), workload::listBase,
        std::int64_t(keys.size()) + net_inserts);
    judge(rep, oracle, m, r);
    r.spans.check = sw.lap();
    return r;
}

/** Host copy of the hash table program's bucket function. */
std::uint64_t
bucketOf(std::uint64_t key, unsigned buckets)
{
    return ((key * 0x9E3779B1ULL) >> 8) & (buckets - 1);
}

JobResult
runHashTable(std::uint64_t seed, const std::string &mix)
{
    JobResult r;
    workload::HashTableBenchConfig cfg;
    cfg.cpus = chaosCpus;
    cfg.useElision = true;
    cfg.iterations = chaosIterations;
    cfg.opLog = true;
    cfg.seed = seed;
    const auto bucket = [&cfg](std::uint64_t key) {
        return bucketOf(key, cfg.buckets);
    };

    Stopwatch sw;
    sim::Machine m(
        chaosMachine(cfg.cpus, seed, mix, workload::hashTableBase));
    // Pre-fill the whole key space by linear probing.
    std::vector<std::uint64_t> slots(cfg.buckets + cfg.maxProbes, 0);
    for (std::uint64_t key = 1; key <= cfg.keySpace; ++key) {
        for (unsigned p = 0; p < cfg.maxProbes; ++p) {
            std::uint64_t &slot = slots[bucket(key) + p];
            if (slot == 0) {
                slot = key;
                break;
            }
        }
    }
    std::int64_t occupied = 0;
    for (std::size_t b = 0; b < slots.size(); ++b) {
        if (slots[b] == 0)
            continue;
        ++occupied;
        const Addr a = workload::hashTableBase + Addr(b) * 256;
        m.memory().write(a, slots[b], 8);
        m.memory().write(a + 8, slots[b], 8);
    }
    r.spans.ctor = sw.lap();
    const isa::Program program = workload::buildHashTableProgram(cfg);
    workload::OpLog log(m.numCpus(), cfg.opLogCapacity);
    bindChaos(m, program, log);
    r.spans.build = sw.lap();
    if (!runChaos(m, sw, r))
        return r;

    const auto history = log.history(
        [&cfg](const workload::OpRecord &rec, inject::LinOp &op) {
            op.code = rec.a1 < cfg.putPercent
                          ? inject::LinOpCode::MapPut
                          : inject::LinOpCode::MapGet;
            op.arg = rec.a0;
            op.result = rec.result;
        });
    const inject::OrderInferReport rep =
        workload::checkLoggedHistoryOrdered(log, [&] {
            return inject::inferMapLinearizable(
                history, slots, cfg.buckets, cfg.maxProbes, bucket);
        });
    m.drainAllStores();
    const inject::OracleReport oracle = inject::checkHashTable(
        m.memory(), m.allHalted(), workload::hashTableBase, cfg.buckets,
        cfg.maxProbes, bucket, occupied, std::int64_t(cfg.keySpace));
    judge(rep, oracle, m, r);
    r.spans.check = sw.lap();
    return r;
}

JobResult
runQueue(std::uint64_t seed, const std::string &mix)
{
    JobResult r;
    workload::QueueBenchConfig cfg;
    cfg.cpus = chaosCpus;
    cfg.iterations = chaosIterations;
    cfg.useConstrainedTx = true;
    cfg.opLog = true;
    cfg.seed = seed;

    // Queue layout of workload/queue.cc: head and tail pointers on
    // their own lines of the anchor, a dummy node with a null next.
    constexpr Addr headPtr = workload::queueBase;
    constexpr Addr tailPtr = workload::queueBase + 256;
    constexpr Addr dummy = workload::queueBase + 0x1000;

    Stopwatch sw;
    sim::Machine m(chaosMachine(cfg.cpus, seed, mix, workload::queueBase));
    m.memory().write(headPtr, dummy, 8);
    m.memory().write(tailPtr, dummy, 8);
    m.memory().write(dummy + 8, 0, 8);
    r.spans.ctor = sw.lap();
    const isa::Program program = workload::buildQueueProgram(cfg);
    workload::OpLog log(m.numCpus(), cfg.opLogCapacity);
    bindChaos(m, program, log);
    r.spans.build = sw.lap();
    if (!runChaos(m, sw, r))
        return r;

    const auto history = log.history(decodeRecord);
    const inject::OrderInferReport rep =
        workload::checkLoggedHistoryOrdered(log, [&] {
            return inject::inferQueueLinearizable(history, {});
        });
    std::int64_t dequeued = 0;
    for (unsigned i = 0; i < m.numCpus(); ++i)
        dequeued += std::int64_t(m.cpu(i).gr(14));
    m.drainAllStores();
    const inject::OracleReport oracle = inject::checkQueue(
        m.memory(), m.allHalted(), headPtr, tailPtr,
        std::int64_t(cfg.cpus) * cfg.iterations - dequeued);
    judge(rep, oracle, m, r);
    r.spans.check = sw.lap();
    return r;
}

/** The whole litmus corpus under litmus::enumerate at @p seed. */
JobResult
runLitmus(std::uint64_t seed)
{
    JobResult r;
    litmus::EnumOptions opt;
    opt.seed = seed;
    std::uint64_t h = fnv1a("litmus");
    for (const litmus::CorpusTest &ct : litmus::corpus()) {
        Stopwatch sw;
        const litmus::ParseResult pr = litmus::parse(ct.src);
        if (!pr.ok) {
            r.fail(std::string(ct.name) + ": parse error: " + pr.error);
            continue;
        }
        const litmus::Compiled c = litmus::compile(pr.test);
        r.spans.build += sw.lap();
        const litmus::EnumResult res = litmus::enumerate(c, opt);
        r.spans.enumerate += sw.lap();
        h = fnv1a(litmus::enumResultJson(c, res).dump(), h);
        r.counts.litmusSchedules += res.schedulesExplored;
        if (res.verdict != "ok")
            r.fail(std::string(ct.name) + ": verdict " + res.verdict);
    }
    r.digest = h;
    r.summary = "schedules=" + std::to_string(r.counts.litmusSchedules);
    return r;
}

workload::UpdateBenchConfig
updateConfig(unsigned cpus, unsigned pool, workload::SyncMethod method,
             unsigned iterations, std::uint64_t seed)
{
    workload::UpdateBenchConfig cfg;
    cfg.cpus = cpus;
    cfg.poolSize = pool;
    cfg.varsPerOp = 4;
    cfg.method = method;
    cfg.iterations = iterations;
    cfg.seed = seed;
    cfg.machine = benchMachine();
    return cfg;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "spin-lock", "tx-conflict", "zec12-144", "verify"};
    return names;
}

std::vector<Job>
workloadJobs(const std::string &workload, std::uint64_t seed,
             unsigned host_threads)
{
    using workload::SyncMethod;
    std::vector<Job> jobs;
    const auto add = [&jobs, seed](std::string name, auto fn) {
        const std::uint64_t s = jobSeed(seed, unsigned(jobs.size()));
        jobs.push_back({std::move(name), [fn, s] { return fn(s); }});
    };
    const auto update = [&add](std::string name, unsigned cpus,
                               unsigned pool, SyncMethod method,
                               unsigned iterations, bool read_only) {
        add(std::move(name), [=](std::uint64_t s) {
            workload::UpdateBenchConfig cfg =
                updateConfig(cpus, pool, method, iterations, s);
            cfg.readOnly = read_only;
            return runUpdate(cfg);
        });
    };

    if (workload == "spin-lock") {
        update("coarse-lock.10k.24cpu", 24, 10000,
               SyncMethod::CoarseLock, 100, false);
        update("coarse-lock.10k.100cpu", 100, 10000,
               SyncMethod::CoarseLock, 12, false);
    } else if (workload == "tx-conflict") {
        update("tbegin.1k.100cpu", 100, 1000, SyncMethod::TBegin, 150,
               false);
        update("tbeginc.1k.100cpu", 100, 1000, SyncMethod::TBeginc, 150,
               false);
        update("tbeginc-read.1k.100cpu", 100, 1000, SyncMethod::TBeginc,
               150, true);
    } else if (workload == "zec12-144") {
        // The timed point runs on one host thread. The byte-identity
        // pair (hostThreads 1 and N, one shared machine seed) is kept
        // short: the N-thread run's host time swings with the host's
        // load, and as the bulk of a pass it would drown the rest.
        const auto zec12 = [](unsigned iterations, unsigned threads,
                              std::uint64_t s) {
            workload::UpdateBenchConfig cfg = updateConfig(
                144, 10000, SyncMethod::TBegin, iterations, s);
            cfg.machine.topology = mem::Topology(6, 6, 4);
            cfg.machine.hostThreads = threads;
            return runUpdate(cfg);
        };
        add("tbegin.10k.144cpu.ht1",
            [zec12](std::uint64_t s) { return zec12(150, 1, s); });
        const std::uint64_t s = jobSeed(seed, 1);
        for (const unsigned threads : {1u, host_threads}) {
            const int pair_ref = jobs.size() == 1 ? -1 : 1;
            jobs.push_back(
                {"tbegin.10k.144cpu.short.ht" + std::to_string(threads),
                 [zec12, s, threads] { return zec12(20, threads, s); },
                 pair_ref});
        }
    } else if (workload == "verify") {
        add("litmus.a", runLitmus);
        add("litmus.b", runLitmus);
        for (const char *mix : {"none", "spurious", "xi_storm", "squeeze",
                                "interrupts", "delayed_xi", "targeted"}) {
            const std::string m = mix;
            add("list_set." + m,
                [m](std::uint64_t s) { return runListSet(s, m); });
            add("hashtable." + m,
                [m](std::uint64_t s) { return runHashTable(s, m); });
            add("queue." + m,
                [m](std::uint64_t s) { return runQueue(s, m); });
        }
    }
    if (!jobs.empty())
        normalizationReference();
    return jobs;
}

} // namespace ztxbench
