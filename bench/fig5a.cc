/**
 * @file
 * Figure 5(a): transactions versus a coarse lock, operations
 * updating 4 random variables, pool sizes 1k and 10k. Expected
 * shape (paper §IV): the coarse lock is poor and roughly flat with
 * steps at chip/MCM boundaries; transactions scale nearly linearly;
 * TBEGIN on the 1k pool flattens/drops at high CPU counts from the
 * rising conflict rate but stays above the lock.
 */

#include "figure.hh"

int
main(int argc, char **argv)
{
    return ztx::bench::figureMain(ztx::bench::fig5aSpec, argc, argv);
}
