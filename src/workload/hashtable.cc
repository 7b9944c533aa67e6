#include "hashtable.hh"

#include <string>

#include "common/log.hh"
#include "isa/assembler.hh"
#include "locks/lock_gen.hh"
#include "workload/elision.hh"
#include "workload/layout.hh"

namespace ztx::workload {

using isa::Assembler;
using isa::Program;

namespace {

/** Fibonacci-style multiplicative hash parameters. */
constexpr std::uint64_t hashMultiplier = 0x9E3779B1ULL;
constexpr unsigned hashShift = 8;

/** Host-side copy of the generated program's bucket function. */
std::uint64_t
bucketOf(std::uint64_t key, unsigned buckets)
{
    return ((key * hashMultiplier) >> hashShift) & (buckets - 1);
}

} // namespace

Program
buildHashTableProgram(const HashTableBenchConfig &cfg)
{
    if ((cfg.buckets & (cfg.buckets - 1)) != 0)
        ztx_fatal("hash-table bucket count must be a power of two");

    /*
     * Registers: R3 probe key, R4 bucket address, R5 read value,
     * R6 hash scratch, R7 op selector, R8 iterations, R9 table
     * base, R10 global lock, R11 backoff, R12 key, R13 probe
     * counter, R14 hash multiplier, R15 bucket mask.
     * R0..R2 belong to the elision/lock helpers.
     */
    Assembler as;
    const locks::LockRegs lock_regs;
    as.la(9, 0, std::int64_t(hashTableBase));
    as.la(10, 0, std::int64_t(globalLockAddr));
    as.lhi(8, cfg.iterations);
    as.lhi(14, std::int64_t(hashMultiplier));
    as.lhi(15, std::int64_t(cfg.buckets - 1));
    as.label("iter");
    as.rnd(12, cfg.keySpace);
    as.ahi(12, 1); // keys are 1..keySpace (0 marks empty)
    as.rnd(7, 100);
    as.lr(6, 12);
    as.msgr(6, 14);
    as.srlg(6, 6, hashShift);
    as.ngr(6, 15);
    as.sllg(6, 6, 8); // bucket index -> byte offset (256-B buckets)

    // Emitted up to twice (TX path and lock fallback): unique label
    // suffixes per emission. R4 and R13 must be (re)computed inside
    // the body: the elision TBEGIN saves no registers, so an abort
    // mid-probe leaves them advanced, and a retry or the fallback
    // continuing from there could store past the probe window.
    int emission = 0;
    const auto body = [&] {
        const std::string n = std::to_string(emission++);
        // Zero the result register inside the region so an aborted
        // attempt cannot leave a stale value: a put sets it to 1
        // when it stored, a get loads the value; 0 is a miss or a
        // probe-bound drop.
        if (cfg.opLog)
            as.lhi(5, 0);
        as.la(4, 9, 0, 6);
        as.lhi(13, std::int64_t(cfg.maxProbes));
        as.label("probe" + n);
        as.lg(3, 4, 0);
        as.cghi(3, 0);
        as.jz("empty" + n);
        as.cgr(3, 12);
        as.jz("found" + n);
        as.la(4, 4, 256); // linear probe into the padded tail
        as.brct(13, "probe" + n);
        as.j("end" + n); // probe bound: treat as miss / drop put
        as.label("empty" + n);
        as.cghi(7, std::int64_t(cfg.putPercent));
        as.brc(isa::maskCc0 | isa::maskCc2, "end" + n); // get: miss
        as.stg(12, 4, 0); // claim the slot: key
        as.stg(12, 4, 8); // value
        if (cfg.opLog)
            as.lhi(5, 1); // put applied
        as.j("end" + n);
        as.label("found" + n);
        as.cghi(7, std::int64_t(cfg.putPercent));
        as.brc(isa::maskCc0 | isa::maskCc2, "get" + n);
        as.stg(12, 4, 8); // put: update value
        if (cfg.opLog)
            as.lhi(5, 1); // put applied
        as.j("end" + n);
        as.label("get" + n);
        as.lg(5, 4, 8);
        as.label("end" + n);
        // Version record: in the elided TX it arms the commit
        // footprint; on the lock path it records the lock-line
        // write that orders the region in the lock's version chain.
        if (cfg.opLog)
            as.oplogv(10, 0);
    };

    // One log code for both ops: the raw selector rides along in
    // the second argument register and the host splits put/get the
    // same way the program does (selector < putPercent).
    if (cfg.opLog)
        as.oplogb(std::uint32_t(inject::LinOpCode::MapGet), 12, 7);
    as.markb();
    if (cfg.useElision) {
        emitLockElision(as, 10, 0, body, "ht");
    } else {
        locks::SpinLock::emitAcquire(as, 10, 0, lock_regs, "ht");
        body();
        locks::SpinLock::emitRelease(as, 10, 0, lock_regs);
    }
    as.marke();
    if (cfg.opLog)
        as.oploge(5);
    as.brct(8, "iter");
    as.halt();
    return as.finish();
}

HashTableBenchResult
runHashTableBench(const HashTableBenchConfig &cfg)
{
    const Program program = buildHashTableProgram(cfg);
    const auto bucket_of = [&](std::uint64_t key) {
        return bucketOf(key, cfg.buckets);
    };
    std::int64_t prefill_occupied = 0;
    std::vector<std::uint64_t> initial_slots;
    HashTableBenchResult res;
    WorkloadRun run;
    run.name = "hash-table";
    run.machine = &cfg.machine;
    run.cpus = cfg.cpus;
    run.seed = cfg.seed;
    run.program = &program;
    run.opLog = cfg.opLog;
    run.opLogCapacity = cfg.opLogCapacity;
    run.prefill = [&](sim::Machine &machine) {
        // The whole key space, so the read-mostly mix mostly hits
        // (the paper's steady-state hashtable).
        for (std::uint64_t key = 1; key <= cfg.keySpace; ++key) {
            std::uint64_t b = bucket_of(key);
            for (unsigned probe = 0; probe < cfg.maxProbes; ++probe) {
                const Addr slot = hashTableBase + (b + probe) * 256;
                if (machine.memory().read(slot, 8) == 0 ||
                    machine.memory().read(slot, 8) == key) {
                    machine.memory().write(slot, key, 8);
                    machine.memory().write(slot + 8, key, 8);
                    break;
                }
            }
        }
        // Slots occupied by the prefill: puts only ever add keys,
        // so the oracle's occupancy floor after any chaotic run.
        // The full slot array doubles as the checker's initial
        // state.
        for (unsigned b = 0; b < cfg.buckets + cfg.maxProbes; ++b) {
            const std::uint64_t key = machine.memory().read(
                hashTableBase + Addr(b) * 256, 8);
            initial_slots.push_back(key);
            if (key)
                ++prefill_occupied;
        }
    };
    run.decode = [&](const OpRecord &rec, inject::LinOp &op) {
        // One log code for both ops: the raw selector splits them.
        op.code = rec.a1 < cfg.putPercent ? inject::LinOpCode::MapPut
                                          : inject::LinOpCode::MapGet;
        op.arg = rec.a0;
        op.result = rec.result;
    };
    run.infer = [&](const std::vector<inject::LinOp> &history) {
        return inject::inferMapLinearizable(history, initial_slots,
                                            cfg.buckets,
                                            cfg.maxProbes, bucket_of);
    };
    run.walk = [&](sim::Machine &machine) {
        for (unsigned b = 0; b < cfg.buckets + cfg.maxProbes; ++b) {
            if (machine.memory().read(hashTableBase + Addr(b) * 256,
                                      8))
                ++res.occupiedBuckets;
        }
        return inject::checkHashTable(
            machine.memory(), machine.allHalted(), hashTableBase,
            cfg.buckets, cfg.maxProbes, bucket_of, prefill_occupied,
            std::int64_t(cfg.keySpace));
    };
    runWorkload(run, res);
    return res;
}

} // namespace ztx::workload
