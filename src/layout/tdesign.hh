/**
 * @file
 * t-design parity declustering (Steiner quadruple systems).
 *
 * BIBDs balance single-fault reconstruction: every disk *pair* shares
 * the same number of stripes. They say nothing about triples, so two
 * concurrent failures still hit survivors unevenly. A 3-design fixes
 * that (the t-designs parity-declustering line of work,
 * arXiv:1209.6152): when every disk *triple* is covered equally, the
 * joint double-fault rebuild load is perfectly flat -- the
 * ImbalanceEvaluator's double-fault worst ratio is exactly 1.
 *
 * The construction here is the boolean Steiner quadruple system
 * SQS(2^m): the blocks are all 4-subsets of {0..2^m - 1} whose
 * members XOR to zero. Any three points determine the unique fourth
 * (w = x ^ y ^ z, distinct from each because the other two differ),
 * so every triple lies in exactly one block -- a 3-(2^m, 4, 1)
 * design. Every 3-design is also a 2-design (here lambda2 =
 * (v - 2) / 2), so the Holland-Gibson tile machinery applies
 * unchanged; this class only supplies the block family and its own
 * identity. Reaches v = 8 where no cyclic BIBD(8, 4) exists --
 * exactly the parameter gap the registry needed a combinatorial
 * baseline for.
 */

#ifndef PDDL_LAYOUT_TDESIGN_HH
#define PDDL_LAYOUT_TDESIGN_HH

#include "layout/parity_decluster.hh"

namespace pddl {

/**
 * The boolean Steiner quadruple system 3-(v, 4, 1) over v = 2^m
 * points (m >= 3): all 4-subsets XOR-ing to zero, each ascending.
 * Returned with lambda set to the induced pair coverage (v - 2) / 2
 * so it verifies as a BIBD.
 */
Bibd booleanQuadrupleSystem(int v);

/** Parity declustering over a 3-design instead of a plain BIBD. */
class TDesignLayout : public ParityDeclusterLayout
{
  public:
    /** @param disks array size; must be a power of two >= 8
     *  (stripe width is the SQS block size, 4). */
    explicit TDesignLayout(int disks);
};

} // namespace pddl

#endif // PDDL_LAYOUT_TDESIGN_HH
