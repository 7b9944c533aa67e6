/**
 * @file
 * Figure 5(b): single-variable updates from a pool of 10. Expected
 * shape: the coarse lock yields very poor throughput; fine-grained
 * locks are better but stop scaling around 10 CPUs and decline;
 * transactions grow up to ~24 CPUs (the tested MCM node size), hold
 * roughly steady beyond, and beat the locks across the whole range.
 */

#include "figure.hh"

int
main(int argc, char **argv)
{
    return ztx::bench::figureMain(ztx::bench::fig5bSpec, argc, argv);
}
