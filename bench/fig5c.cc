/**
 * @file
 * Figure 5(c): updating 4 variables from a pool of 10 (extreme
 * contention). Expected shape: transactions are competitive at low
 * CPU counts, but beyond that the coarse lock wins — a transaction
 * must own all 4 lines to commit and keeps aborting while it waits,
 * wasting transfers, whereas a lock holder is guaranteed to finish.
 * Under extreme contention constrained transactions (millicode
 * escalation, no fallback) hold up slightly better than TBEGIN.
 */

#include "figure.hh"

int
main(int argc, char **argv)
{
    return ztx::bench::figureMain(ztx::bench::fig5cSpec, argc, argv);
}
