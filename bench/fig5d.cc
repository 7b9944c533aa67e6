/**
 * @file
 * Figure 5(d): reading 4 variables from a pool of 10k — read-write
 * lock versus constrained transactions. Expected shape: the RW lock
 * flattens out because every reader entry/exit updates the
 * read-count word, which ping-pongs between CPUs; transactions only
 * check that no writer is present, so the lock-word line stays
 * shared and throughput grows almost linearly.
 */

#include "figure.hh"

int
main(int argc, char **argv)
{
    return ztx::bench::figureMain(ztx::bench::fig5dSpec, argc, argv);
}
