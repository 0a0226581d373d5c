/**
 * @file
 * `figures [-j N] [-o DIR] [name ...]`: every paper figure and table
 * from one deduplicated sweep (figures.hpp).
 */

#include "figures.hpp"
#include "noc/parallel.hpp"

// Every figure NAME: bench/NAME.cpp defines void NAME(Sweep &).
#define DR_FIGURES(X)                                                    \
    X(ablation_dr) X(fig02_locality) X(fig05_topology_bw) X(fig06_avcp) \
    X(fig07_adaptive) X(fig09_layout_routing) X(fig10_14_headline)      \
    X(fig15_locality_opts) X(fig16_topologies) X(fig17_18_layouts)      \
    X(fig19_sensitivity) X(fig_chiplet_scale) X(synthetic_noc)          \
    X(tab_energy_area) X(tab_node_mix)
#define DR_DECLARE(name) void name(dr::Sweep &);
#define DR_ENTRY(name) {#name, name},

DR_FIGURES(DR_DECLARE)

int
main(int argc, char **argv)
{
    return dr::figuresMain(argc, argv, {DR_FIGURES(DR_ENTRY)},
                           dr::simulatePoint, dr::availableCpus());
}
