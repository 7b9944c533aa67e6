/**
 * @file
 * The zTX machine: topology, memory, hierarchy, CPUs, and the
 * deterministic scheduler that advances them.
 *
 * Scheduling model: each CPU has a ready time in global cycles; the
 * machine repeatedly steps the CPU with the smallest ready time
 * (ties broken by CPU id), adding the step's cycle cost plus any
 * pending stall (abort penalties, millicode backoff). Coherence
 * actions happen synchronously inside a step, so a single-threaded,
 * fully reproducible simulation emerges; concurrency shows up as the
 * interleaving of steps at cycle granularity.
 *
 * The machine also implements the millicode "broadcast-stop" (solo
 * mode): while a CPU holds solo, every other CPU is parked until
 * release — the paper's last-resort guarantee for constrained
 * transactions.
 */

#ifndef ZTX_SIM_MACHINE_HH
#define ZTX_SIM_MACHINE_HH

#include <algorithm>
#include <deque>
#include <memory>
#include <ostream>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "core/cpu.hh"
#include "inject/fault_injector.hh"
#include "inject/fault_plan.hh"
#include "debug/os_model.hh"
#include "sim/io_subsystem.hh"
#include "debug/page_table.hh"
#include "mem/geometry.hh"
#include "mem/hierarchy.hh"
#include "mem/latency_model.hh"
#include "mem/main_memory.hh"
#include "mem/topology.hh"

namespace ztx::inject {
class ScheduleSteer;
}

namespace ztx::sim {

/** Everything configurable about a machine. */
struct MachineConfig
{
    mem::Topology topology{6, 4, 5};
    mem::LatencyModel latency{};
    mem::HierarchyGeometry geometry{};
    core::TmConfig tm{};

    /** CPUs to instantiate; 0 means all of the topology. */
    unsigned activeCpus = 0;

    /** Master seed; per-CPU RNGs derive from it. */
    std::uint64_t seed = 1;

    /**
     * Period of per-CPU asynchronous (external) interruptions in
     * cycles; 0 disables them.
     */
    Cycles externalInterruptPeriod = 0;

    /**
     * Instantiate the I/O (channel) subsystem. It occupies the last
     * CPU slot of the topology on the coherence fabric, so
     * activeCpus must leave that slot free.
     */
    bool enableIo = false;

    /**
     * Fault-injection campaign (chaos testing, src/inject). The
     * default plan is inert: no injector is instantiated and the
     * machine behaves exactly as without the subsystem.
     */
    inject::FaultPlan faults{};

    /**
     * Forward-progress watchdog: if no CPU retires a progress event
     * (transaction commit, measured-region close, halt) and the
     * channel subsystem completes no transfer for this many cycles,
     * run() stops deterministically, records a diagnosis bundle
     * (watchdogReport()), and returns instead of spinning forever.
     * 0 disables the watchdog.
     */
    Cycles watchdogCycles = 0;

    /** Ignored (there is one run loop); ztxbench/ still sets it. */
    unsigned hostThreads = 0;

    /**
     * Schedule steering hook (enumeration-mode stepping, see
     * inject/steer.hh and src/litmus). When set, run() ignores
     * ready-time ordering and instead asks the steer to pick the
     * next CPU from the runnable set before every step; simulated
     * time still advances monotonically (stepping a CPU drags `now`
     * up to its ready time). Non-owning; must outlive the machine.
     * Not serialized (a steered run is an enumeration artifact, not
     * a reproducible configuration).
     */
    inject::ScheduleSteer *steer = nullptr;
};

/** Always zero (there is no parallel phase); ztxbench/ still reads it. */
struct HostPhaseTimes
{
    double parallelSeconds = 0.0;
    double mergeSeconds = 0.0;
    std::uint64_t quanta = 0;
};

/** A complete simulated SMP machine. */
class Machine : public core::CpuEnv
{
  public:
    explicit Machine(const MachineConfig &config);
    ~Machine() override;

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Number of instantiated CPUs. */
    unsigned numCpus() const { return unsigned(cpus_.size()); }

    /** CPU @p id. */
    core::Cpu &cpu(CpuId id) { return *cpus_.at(id); }
    const core::Cpu &cpu(CpuId id) const { return *cpus_.at(id); }

    /** @name Shared components @{ */
    mem::MainMemory &memory() { return memory_; }
    mem::Hierarchy &hierarchy() { return hierarchy_; }
    const mem::Hierarchy &hierarchy() const { return hierarchy_; }
    debug::PageTable &pageTable() { return pageTable_; }
    debug::OsModel &os() { return os_; }
    /** The channel subsystem (fatal unless enableIo was set). */
    IoSubsystem &io();
    /** @} */

    /** Pump the I/O subsystem until its queue is empty. */
    void drainIo();

    /** Bind @p program to CPU @p id (resets its PSW). */
    void setProgram(CpuId id, const isa::Program *program);

    /** Bind @p program to every CPU. */
    void setProgramAll(const isa::Program *program);

    /**
     * Run until every CPU halts or @p max_cycles elapse from now.
     * @return Global cycles elapsed during this call.
     */
    Cycles run(Cycles max_cycles = ~Cycles(0));

    /** True once every CPU has halted. */
    bool allHalted() const;

    /** Drain every CPU's buffered stores (host-side inspection). */
    void drainAllStores();

    /** Functional memory read merging all CPUs' store buffers. */
    std::uint64_t peekMem(Addr addr, unsigned size);

    /** Write all stats (machine, hierarchy, OS, CPUs) to @p os. */
    void dumpStats(std::ostream &out);

    /**
     * The complete machine state as one JSON document: run metadata
     * (seed, topology, active CPUs, TM configuration, elapsed
     * cycles) plus the machine, hierarchy, OS, I/O, and per-CPU
     * stat groups.
     */
    Json statsJson() const;

    /** Serialize statsJson(). @param indent as Json::write. */
    void dumpStatsJson(std::ostream &out, int indent = 2) const;

    /** The configuration this machine was built from. */
    const MachineConfig &config() const { return cfg_; }

    /** All zero; see HostPhaseTimes. */
    const HostPhaseTimes &hostPhaseTimes() const
    {
        return phaseTimes_;
    }

    /** Machine-level stats: scheduler steps, interrupts, solo. */
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** @name Fault injection & watchdog @{ */
    /** The fault injector (nullptr when the plan is inert). */
    inject::FaultInjector *injector() { return injector_.get(); }

    /** True once the forward-progress watchdog stopped a run. */
    bool watchdogFired() const { return watchdogFired_; }

    /**
     * Diagnosis bundle captured when the watchdog fired: solo-mode
     * state, per-CPU abort histories / TDB addresses / ladder
     * positions, and injection stats. Null before any firing.
     */
    const Json &watchdogReport() const { return watchdogReport_; }
    /** @} */

    /** @name core::CpuEnv @{ */
    Cycles now() const override { return now_; }
    void requestSolo(CpuId cpu) override;
    void releaseSolo(CpuId cpu) override;
    CpuId soloHolder() const override { return soloCpu_; }
    void noteProgress(CpuId cpu) override
    {
        (void)cpu;
        ++progressTicks_;
    }
    /** @} */

  private:
    MachineConfig cfg_;
    mem::MainMemory memory_;
    mem::Hierarchy hierarchy_;
    debug::PageTable pageTable_;
    debug::OsModel os_;
    std::vector<std::unique_ptr<core::Cpu>> cpus_;

    Cycles now_ = 0;
    std::vector<Cycles> readyAt_;
    std::vector<Cycles> nextInterrupt_;
    StatGroup stats_{"machine"};
    /** @name Hot-path counters, resolved once @{ */
    Counter &stepCounter_ = stats_.counter("scheduler.steps");
    Counter &extDeliveredCounter_ =
        stats_.counter("external.delivered");
    Counter &extSkippedCounter_ =
        stats_.counter("external.periods_skipped");
    Counter &soloRequestCounter_ = stats_.counter("solo.requests");
    /** @} */
    std::unique_ptr<IoSubsystem> io_;
    Cycles ioReadyAt_ = 0;
    /**
     * FIFO of CPUs waiting for (or holding) solo mode; the front is
     * the current holder. Millicode instances on different CPUs
     * serialize through this queue (paper §III.E).
     */
    std::deque<CpuId> soloQueue_;
    CpuId soloCpu_ = invalidCpu;

    void fireWatchdog();

    /**
     * Deliver CPU @p id's due external interrupt at time @p t and
     * advance its next tick past @p t: at most one interrupt per
     * period, so a CPU parked for many periods (behind solo mode,
     * or stalled on a long interrupt-service penalty) never gets
     * the missed ticks as a back-to-back burst. The caller checks
     * that an interrupt is due and counts the delivery.
     * @return Periods skipped (for external.periods_skipped).
     */
    std::uint64_t deliverExternalInterrupt(CpuId id, Cycles t);

    /**
     * Pump channel (I/O) transfers whose ready time has come, so
     * channel traffic interleaves with CPU steps.
     */
    void
    pumpDueIo()
    {
        while (io_ && !io_->idle() && ioReadyAt_ <= now_) {
            const Cycles cost = io_->pump();
            ioReadyAt_ = std::max(ioReadyAt_, now_) +
                         std::max<Cycles>(cost, 1);
        }
    }

    /**
     * The step body both run loops share: advance `now` to @p t,
     * pump due I/O, deliver a due external interrupt, let the
     * injector act, step CPU @p id and set its next ready time.
     * @return False, with nothing stepped, once @p end_cycle is
     *         reached.
     */
    bool stepCpu(CpuId id, Cycles t, Cycles end_cycle);

    /** The exact ready-time heap scheduler. */
    Cycles runLegacy(Cycles max_cycles);

    /** Enumeration-mode stepping (cfg_.steer != nullptr). */
    Cycles runSteered(Cycles max_cycles);

    /** O(1) watchdog progress sum: CPU ticks + I/O completions. */
    std::uint64_t progressSum() const
    {
        return progressTicks_ + (io_ ? io_->completed() : 0);
    }

    std::unique_ptr<inject::FaultInjector> injector_;
    /** @name Watchdog state @{ */
    std::uint64_t lastProgressSum_ = 0;
    Cycles lastProgressAt_ = 0;
    bool watchdogFired_ = false;
    Json watchdogReport_;
    /** @} */

    /**
     * Event-driven forward-progress counter (commits, region
     * closes, halts), bumped via noteProgress().
     */
    std::uint64_t progressTicks_ = 0;
    HostPhaseTimes phaseTimes_;
};

/**
 * @p config as a JSON object (topology, TM parameters, seed, ...),
 * the run-metadata block of statsJson() and the bench reports.
 */
Json machineConfigJson(const MachineConfig &config);

} // namespace ztx::sim

#endif // ZTX_SIM_MACHINE_HH
