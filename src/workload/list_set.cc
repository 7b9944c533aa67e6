#include "list_set.hh"

#include <string>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "isa/assembler.hh"
#include "locks/lock_gen.hh"
#include "workload/elision.hh"
#include "workload/layout.hh"

namespace ztx::workload {

using isa::Assembler;
using isa::Program;

namespace {

/*
 * Node layout: key @0, next @8, one node per 256-byte line. The
 * head sentinel's next pointer lives at listBase + 8.
 *
 * Registers: R4 prev, R5 curr, R6 key scratch, R7 applied flag,
 * R8 iterations, R9 head, R10 lock, R12 key, R13 op selector /
 * new-node address, R14 net-insert counter, R15 arena bump.
 * R0/R1/R2/R3/R11 belong to the elision and lock helpers.
 */

/** Emit the sorted traversal: leaves prev in R4, curr in R5, and
 *  curr->key in R6 (when curr != 0). */
void
emitTraverse(Assembler &as, const std::string &tag)
{
    as.la(4, 9, 0);
    as.lg(5, 4, 8);
    as.label(tag + "_find");
    as.cghi(5, 0);
    as.jz(tag + "_stop");
    as.lg(6, 5, 0);
    as.cgr(6, 12);
    as.brc(isa::maskCc0 | isa::maskCc2, tag + "_stop"); // key <= cur
    as.lr(4, 5);
    as.lg(5, 5, 8);
    as.j(tag + "_find");
    as.label(tag + "_stop");
}

} // namespace

Program
buildListSetProgram(const ListSetBenchConfig &cfg)
{
    if (cfg.lookupPercent + cfg.insertPercent > 100)
        ztx_fatal("list-set operation mix exceeds 100%");

    const locks::LockRegs lock_regs;
    Assembler as;
    as.la(9, 0, std::int64_t(listBase));
    as.la(10, 0, std::int64_t(globalLockAddr));
    as.lhi(8, cfg.iterations);
    as.lhi(14, 0);
    as.label("iter");
    as.rnd(12, cfg.keySpace);
    as.ahi(12, 1);
    as.rnd(13, 100);
    as.cghi(13, std::int64_t(cfg.lookupPercent));
    as.jl("lookup_sec");
    as.cghi(13,
            std::int64_t(cfg.lookupPercent + cfg.insertPercent));
    as.jl("insert_sec");
    as.j("delete_sec");

    int emission = 0;
    const auto wrap = [&](const std::function<void()> &body,
                          const std::string &site) {
        // Version recording rides at the end of the region body: on
        // the TX path OPLOGV arms commit-footprint reporting, on the
        // lock path it records the lock-line write that orders the
        // region in the lock's version chain.
        const auto logged = [&] {
            body();
            if (cfg.opLog)
                as.oplogv(10, 0);
        };
        as.markb();
        if (cfg.useElision) {
            emitLockElision(as, 10, 0, logged, site);
        } else {
            locks::SpinLock::emitAcquire(as, 10, 0, lock_regs,
                                         site + "_lk");
            logged();
            locks::SpinLock::emitRelease(as, 10, 0, lock_regs);
        }
        as.marke();
    };

    // --- Lookup.
    as.label("lookup_sec");
    if (cfg.opLog)
        as.oplogb(std::uint32_t(inject::LinOpCode::SetLookup), 12);
    wrap(
        [&] {
            emitTraverse(as, "lk" + std::to_string(emission++));
        },
        "lookup");
    if (cfg.opLog) {
        // Found iff curr != 0 && curr->key == key; R5/R6 hold the
        // committed traversal result past the region, so the flag
        // can be derived outside it (only widens the window).
        as.lhi(7, 0);
        as.cghi(5, 0);
        as.jz("lk_res");
        as.cgr(6, 12);
        as.jnz("lk_res");
        as.lhi(7, 1);
        as.label("lk_res");
        as.oploge(7);
    }
    as.j("iter_end");

    // --- Insert: node prepared outside the synchronized region.
    as.label("insert_sec");
    as.la(13, 15, 0);
    as.stg(12, 13, 0); // node.key
    as.la(15, 15, 256);
    if (cfg.opLog)
        as.oplogb(std::uint32_t(inject::LinOpCode::SetInsert), 12);
    wrap(
        [&] {
            const std::string tag =
                "in" + std::to_string(emission++);
            emitTraverse(as, tag);
            as.lhi(7, 0);
            as.cghi(5, 0);
            as.jz(tag + "_do"); // at end -> insert
            as.cgr(6, 12);
            as.jz(tag + "_dn"); // already present
            as.label(tag + "_do");
            as.stg(5, 13, 8);  // node->next = curr
            as.stg(13, 4, 8);  // prev->next = node
            as.lhi(7, 1);
            as.label(tag + "_dn");
        },
        "insert");
    if (cfg.opLog)
        as.oploge(7); // applied flag
    as.agr(14, 7);
    as.j("iter_end");

    // --- Delete.
    as.label("delete_sec");
    if (cfg.opLog)
        as.oplogb(std::uint32_t(inject::LinOpCode::SetDelete), 12);
    wrap(
        [&] {
            const std::string tag =
                "de" + std::to_string(emission++);
            emitTraverse(as, tag);
            as.lhi(7, 0);
            as.cghi(5, 0);
            as.jz(tag + "_dn"); // not present (end)
            as.cgr(6, 12);
            as.jnz(tag + "_dn"); // not present (greater)
            as.lg(6, 5, 8);      // curr->next
            as.stg(6, 4, 8);     // prev->next = curr->next
            as.lhi(7, 1);
            as.label(tag + "_dn");
        },
        "del");
    if (cfg.opLog)
        as.oploge(7); // applied flag
    as.sgr(14, 7);

    as.label("iter_end");
    as.brct(8, "iter");
    as.halt();
    return as.finish();
}

ListSetBenchResult
runListSetBench(const ListSetBenchConfig &cfg)
{
    const Program program = buildListSetProgram(cfg);
    std::vector<std::uint64_t> keys;
    ListSetBenchResult res;
    WorkloadRun run;
    run.name = "list-set";
    run.machine = &cfg.machine;
    run.cpus = cfg.cpus;
    run.seed = cfg.seed;
    run.program = &program;
    run.arena = true;
    run.opLog = cfg.opLog;
    run.opLogCapacity = cfg.opLogCapacity;
    run.prefill = [&](sim::Machine &machine) {
        // A sorted chain of the selected keys.
        Rng prefill_rng(cfg.seed ^ 0xBEEF);
        for (std::uint64_t k = 1; k <= cfg.keySpace; ++k)
            if (prefill_rng.nextBool(cfg.prefillPercent / 100.0))
                keys.push_back(k);
        Addr prev = listBase;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const Addr node = listPrefillArena + Addr(i) * 256;
            machine.memory().write(node + 0, keys[i], 8);
            machine.memory().write(prev + 8, node, 8);
            prev = node;
        }
        machine.memory().write(prev + 8, 0, 8);
    };
    run.decode = [](const OpRecord &rec, inject::LinOp &op) {
        op.code = inject::LinOpCode(rec.code);
        op.arg = rec.a0;
        op.result = rec.result;
    };
    run.infer = [&](const std::vector<inject::LinOp> &history) {
        return inject::inferSetLinearizable(history, keys);
    };
    run.walk = [&](sim::Machine &machine) {
        std::int64_t net_inserts = 0;
        for (unsigned i = 0; i < machine.numCpus(); ++i)
            net_inserts += std::int64_t(machine.cpu(i).gr(14));
        res.sorted = true;
        std::int64_t last_key = 0;
        Addr node = machine.memory().read(listBase + 8, 8);
        while (node != 0 && res.finalLength <= 100000) {
            const auto key =
                std::int64_t(machine.memory().read(node + 0, 8));
            if (key <= last_key)
                res.sorted = false;
            last_key = key;
            ++res.finalLength;
            node = machine.memory().read(node + 8, 8);
        }
        const std::int64_t expected =
            std::int64_t(keys.size()) + net_inserts;
        res.lengthConsistent =
            expected == std::int64_t(res.finalLength);
        return inject::checkListSet(machine.memory(),
                                    machine.allHalted(), listBase,
                                    expected);
    };
    runWorkload(run, res);
    return res;
}

} // namespace ztx::workload
