/**
 * @file
 * The figure 5(e) workload: a shared hash table accessed by multiple
 * threads for reading and writing, synchronized either by a global
 * lock (the "synchronized" baseline) or by eliding that lock with
 * transactions, as the IBM Testarossa JIT prototype does for
 * java/util/Hashtable.
 *
 * The table is open-addressed with bounded linear probing; each
 * bucket (key doubleword + value doubleword) occupies its own cache
 * line. Keys are drawn uniformly from a key space, with a
 * configurable put fraction (read-mostly by default).
 */

#ifndef ZTX_WORKLOAD_HASHTABLE_HH
#define ZTX_WORKLOAD_HASHTABLE_HH

#include <cstdint>

#include "isa/program.hh"
#include "sim/machine.hh"
#include "workload/run.hh"

namespace ztx::workload {

/** Hash-table experiment configuration. */
struct HashTableBenchConfig
{
    unsigned cpus = 2;
    unsigned buckets = 1024;      ///< power of two
    unsigned keySpace = 512;      ///< distinct keys in use
    unsigned putPercent = 10;     ///< write fraction of operations
    unsigned maxProbes = 4;       ///< linear-probe bound
    bool useElision = false;      ///< false: global lock
    unsigned iterations = 300;    ///< operations per CPU
    std::uint64_t seed = 1;
    /**
     * Record an operation history and check it for linearizability
     * after the run. Off: the generated program is bit-identical to
     * the unlogged one.
     */
    bool opLog = false;
    /** Per-CPU op-log ring capacity (overflow truncates). */
    std::size_t opLogCapacity = 1u << 16;
    sim::MachineConfig machine{};
};

/** Outcome of one hash-table run (oracle: inject::checkHashTable). */
struct HashTableBenchResult : RunResult
{
    /** Occupied buckets at the end (sanity). */
    unsigned occupiedBuckets = 0;
};

/** Build the generated program for @p cfg. */
isa::Program buildHashTableProgram(const HashTableBenchConfig &cfg);

/** Run the experiment. */
HashTableBenchResult runHashTableBench(const HashTableBenchConfig &cfg);

} // namespace ztx::workload

#endif // ZTX_WORKLOAD_HASHTABLE_HH
