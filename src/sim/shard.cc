#include "shard.hh"

#include <algorithm>

#include "common/prof.hh"
#include "sim/machine.hh"

namespace ztx::sim {

Shard::Shard(Machine &machine, unsigned chip, std::vector<CpuId> cpus)
    : machine_(machine), chip_(chip), cpus_(std::move(cpus))
{
    deferred_.bind(arena_);
    soloOps_.bind(arena_);
}

void
Shard::push(Cycles t, CpuId id)
{
    machine_.heapKey_[id] = t;
    heap_.push({t, id});
}

void
Shard::requestSolo(CpuId cpu)
{
    if (machine_.parallelPhase_) {
        soloOps_.push_back({curTime_, cpu, true});
        return;
    }
    machine_.requestSolo(cpu);
}

void
Shard::releaseSolo(CpuId cpu)
{
    if (machine_.parallelPhase_) {
        soloOps_.push_back({curTime_, cpu, false});
        return;
    }
    machine_.releaseSolo(cpu);
}

CpuId
Shard::soloHolder() const
{
    // Stable during the parallel phase: solo transitions are applied
    // only at the barrier, so every shard observes the same holder
    // for the whole quantum regardless of host-thread count.
    return machine_.soloCpu_;
}

void
Shard::beginRun()
{
    deferred_.release();
    soloOps_.release();
    arena_.reset();
    steps_ = extDelivered_ = extSkipped_ = progress_ = 0;
    l3Local_ = 0;
    curTime_ = machine_.now_;
    lastEventAt_ = machine_.now_;
    // The heap is carried across run() calls: a member CPU only
    // needs a fresh entry when its ready time moved while the heap
    // was cold (program rebind, bounded-run resume) — the old entry,
    // if any, is then stale and filtered on pop. beginRun() runs
    // serially, so the machine counter is safe to bump here.
    for (const CpuId id : cpus_) {
        if (machine_.cpus_[id]->halted())
            continue;
        if (machine_.heapKey_[id] == machine_.readyAt_[id])
            continue; // live entry already queued
        push(machine_.readyAt_[id], id);
        machine_.heapReinsertsCounter_.inc();
    }
}

Cycles
Shard::nextEventTime() const
{
    return heap_.empty() ? ~Cycles(0) : heap_.top().first;
}

void
Shard::runQuantum(Cycles q_end)
{
    while (!heap_.empty() && heap_.top().first < q_end) {
        const auto [t, id] = heap_.top();
        heap_.pop();
        if (t != machine_.readyAt_[id])
            continue; // stale entry
        // The live entry is consumed: invalidate its key so that a
        // path that does not re-push (halt, deferral) leaves the CPU
        // marked as unqueued for beginRun()'s carry check.
        machine_.heapKey_[id] = ~Cycles(0);
        if (machine_.cpus_[id]->halted())
            continue;

        // Solo mode: park everyone but the holder until the next
        // barrier (the holder may release there). The park target is
        // the quantum boundary, which depends only on the schedule,
        // not on host-thread count.
        const CpuId solo = machine_.soloCpu_;
        if (solo != invalidCpu && id != solo) {
            machine_.readyAt_[id] = q_end;
            push(q_end, id);
            continue;
        }

        curTime_ = t;
        lastEventAt_ = t;

        if (machine_.cfg_.externalInterruptPeriod &&
            t >= machine_.nextInterrupt_[id]) {
            ++extDelivered_;
            extSkipped_ += machine_.deliverExternalInterrupt(id, t);
        }

        if (machine_.injector_)
            machine_.injector_->beforeStep(id, t);

        core::Cpu &cpu = *machine_.cpus_[id];
        cpu.setLocalOnly(true);
        Cycles cost;
        {
            ZTX_PROF_SCOPE("cpu.step");
            cost = cpu.step();
        }
        cpu.setLocalOnly(false);
        // Fast-path L3 hits are counted even for a step that later
        // defers on another line: the partial fetches really
        // happened (and make the re-executed step's leading lines
        // private hits), deterministically in both cases.
        l3Local_ += cpu.consumeShardL3Hits();
        if (cpu.deferredStep()) {
            // The step needs to leave the shard: nothing was
            // charged or moved (interrupt delivery and injector
            // draws above are not repeated at the barrier). The CPU
            // blocks (no heap entry) until the barrier re-executes
            // the step serially, where it is counted.
            deferred_.push_back({t, id});
            continue;
        }
        ++steps_;
        machine_.readyAt_[id] = t + cost + cpu.consumePendingStall();
        if (!cpu.halted())
            push(machine_.readyAt_[id], id);
    }
}

} // namespace ztx::sim
