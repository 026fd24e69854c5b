"""Pure-Python search backend.

Implements the kernel contract with Python integers as user bitmasks.  It
returns the same status, plan and counters as the compiled backend on every
call, which the parity tests check, but it shares the work that the compiled
backend repeats per authorisation alternative ("combo"):

- Combos with equal masks at depths 0..d-1 carry identical search state at
  depth d, because that state is built from those masks alone.  The combos
  are sorted once by their mask tuples, which makes each such prefix class a
  contiguous range [lo, hi) of the sorted order.  A class is split into its
  children at depth d, the runs of equal masks in column d, only when the
  search first expands it there, and the split is kept for later visits.  A
  node repairs one matching per alive class rather than one per combo.  A
  class whose matching can no longer saturate the blocks is dead for its
  whole subtree, because masks only shrink along a branch.
- The sort is stable, so a full-depth class lists its identical combos in
  index order, and the least alive combo, whose matching gives the plan, is
  the first entry of one of them.
- SoD, BoD, at-most and at-least constraints rule blocks out whatever the
  users, so a node computes its admissible blocks once, as a bitmask, and
  tries only those.

A depth's user-independent (UI) state is two packed ints of k-bit block-set
fields, which a node updates with a few int operations and no loop over the
step's neighbours:

- `fwd[d]` has a field per depth f >= d: the blocks that SoD and BoD with
  the depths before d forbid f.  Placing depth d in block b shifts field 0
  out and ORs in `sod[d] << b`, a bit in the field of each later SoD
  neighbour, and `bod_all[d] ^ (bod[d] << b)`, every block but b in the
  field of each later BoD neighbour.  Field 0 then rules blocks out of the
  next depth's open blocks and new one.
- `cover[d]` has a field per count and per SUAL scope: the blocks that its
  depths before d cover.  Placing depth d in block b ORs in
  `spread[d] << b`, a bit in the field of each scope that holds d.  A count
  bound is read only at the scope positions where it can rule a block out.
  Depths are visited in ascending order, so a SUAL scope can restrict only
  at its last depth, and is read only there.

A node places depth d's step in an admissible block b and does its work
cheapest first.  It builds depth d+1's UI state and, when d+1 < k, its
admissible blocks.  When there are none, the node has no children whatever
its matchings say, so it ends before it touches a class; on the benchmark's
`search` draws over a third of the nodes end there.  Otherwise it repairs
the matching of each alive class into depth d+1's lists, narrowing it when
a SUAL scope restricts at d.  The node is counted, and the node and
deadline budgets are checked, before any of this, so a node that ends early
counts and can stop the search like any other.

State is depth-indexed: entering depth d+1 builds new ints and rows from
depth d's and never mutates a row another depth can see, so backtracking
needs no undo log.  Each depth owns the lists of its alive classes and
refills them in place when its parent places a step.  The depth-first walk
is one loop over an explicit stack in `run_search`'s own frame, with the
node's work inlined: a node makes no Python call unless it splits a class,
repairs a matching with `matching.augment` or narrows a SUAL scope.  No
nested function reaches itself, so no reference cycle holds the search
state: it is freed by reference counting when `run_search` returns, not by
the cyclic collector.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from operator import itemgetter
from typing import Optional

from ..matching import augment
from . import BUDGET, SAT, UNSAT

_TIME_CHECK_EVERY = 2048
_NEVER = 1 << 62  # a node count no search reaches


def run_search(
    prob,
    max_nodes: Optional[int] = None,
    max_patterns: Optional[int] = None,
    deadline: Optional[float] = None,
):
    """Run the depth-first pattern search.

    Returns (status, plan | None, patterns, nodes, matchings) where `plan`
    maps original step ids to users.  `deadline` is an absolute
    time.perf_counter() value.
    """
    k = prob.k
    m = len(prob.combo_masks)
    if k == 0 or m == 0:
        return (UNSAT, None, 0, 0, 0)

    field = (1 << k) - 1  # one block set; blocks are labelled 0..k-1
    # sod[d], bod[d]: a bit at field f - d - 1 for each later neighbour f;
    # bod_all[d]: that whole field
    sod, bod, bod_all = [0] * k, [0] * k, [0] * k
    for f in range(k):
        for e in prob.sod_prev[f]:
            sod[e] |= 1 << (f - e - 1) * k
        for e in prob.bod_prev[f]:
            bod[e] |= 1 << (f - e - 1) * k
            bod_all[e] |= field << (f - e - 1) * k
    # The cover fields: count ci at field ci, SUAL si after the counts.
    # spread[d]: a bit at the field of each scope holding depth d.
    counts, suals = prob.counts, prob.suals
    spread = [0] * k
    for i, spec in enumerate((*counts, *suals)):
        for d in spec.depths:
            spread[d] |= 1 << i * k
    # checks[d]: (field shift, r, at most?) of each count bound that can
    # rule a block out at depth d.  Scope position i sees the blocks of
    # the i scope depths before it, so an at-most bound r bites only from
    # position r on, and an at-least bound is met whatever came before
    # while r - 1 or more scope depths remain; its r is reduced by the
    # scope depths after d.
    checks: list[list[tuple[int, int, bool]]] = [[] for _ in range(k)]
    for ci, spec in enumerate(counts):
        r, size = spec.r, len(spec.depths)
        for i, d in enumerate(spec.depths):
            remaining = size - i - 1
            if spec.at_most:
                if i >= r:
                    checks[d].append((ci * k, r, True))
            elif remaining + 1 < r:
                checks[d].append((ci * k, r - remaining, False))
    # sual_end[d]: (field shift, h, super-users) of each SUAL whose scope
    # ends at depth d
    sual_end: list[list[tuple[int, int, int]]] = [[] for _ in range(k)]
    for si, spec in enumerate(suals):
        if spec.depths:
            sual_end[max(spec.depths)].append(
                ((len(counts) + si) * k, spec.h, spec.xmask))

    combo_masks = prob.combo_masks
    # the combos stably sorted by mask tuple; a class is a range [lo, hi)
    perm = sorted(range(m), key=combo_masks.__getitem__)
    sorted_masks = [combo_masks[c] for c in perm]
    # splits[d][lo]: the children of the depth-d class starting at lo, as
    # (lo, hi, mask at depth d), split when the class is first expanded
    splits: list[list[Optional[list[tuple[int, int, int]]]]] = \
        [[None] * m for _ in range(k)]
    # alive[d]: the alive classes at depth d as (lo, hi, block masks,
    # matching of blocks to users).  Depth d owns the list and refills it
    # in place; the block masks and matchings are shared between depths,
    # never mutated.
    alive: list[list[tuple[int, int, list[int], list[int]]]] = \
        [[(0, m, [], [])]] + [[] for _ in range(k)]
    # The explicit stack: depth d's frame is its UI state fwd[d] and
    # cover[d], its block count nbs[d] and the admissible blocks left[d] it
    # has still to try, lowest first.  A recursive nested function would
    # hold this frame's state in a cycle.
    fwd, cover, nbs, left = [0] * k, [0] * k, [0] * k, [0] * k
    assign = [0] * k
    seen = [0]  # the users an augmenting-path search has visited

    def split(d: int, lo: int, hi: int) -> list[tuple[int, int, int]]:
        # The children of the class [lo, hi) at depth d: the runs of equal
        # masks in column d, which is sorted there because the members
        # agree on depths 0..d-1.
        kids = []
        start = lo
        while start < hi:
            mask = sorted_masks[start][d]
            if sorted_masks[hi - 1][d] == mask:
                end = hi  # the rest of the range is one run
            else:
                end = bisect_right(sorted_masks, mask, start, hi,
                                   key=itemgetter(d))
            kids.append((start, end, mask))
            start = end
        splits[d][lo] = kids
        return kids

    def restrict(rows: list[int], mrow: list[int],
                 restricted: list[tuple[int, int]]) -> bool:
        # Narrow the blocks covering each restricted SUAL scope to its
        # super-users, repairing the matching; False when it cannot saturate.
        for xmask, cov in restricted:
            while cov:
                lsb = cov & -cov
                bb = lsb.bit_length() - 1
                cov ^= lsb
                newm = rows[bb] & xmask
                if newm != rows[bb]:
                    if newm == 0:
                        return False
                    rows[bb] = newm
                    if not (newm >> mrow[bb]) & 1:
                        mrow[bb] = -1
                        seen[0] = 0
                        if not augment(rows, mrow, bb, seen):
                            return False
        return True

    nodes = patterns = matchings = 0
    status, plan = UNSAT, None
    # At depth 0 every cover is empty, and a count check there rules out
    # block 0: an at-most one has r = 0, and an at-least one needs two or
    # more blocks where depth 0 can add only one.
    left[0] = 0 if checks[0] else 1
    # the node count that breaks the node budget, and the next one at
    # which a budget is due
    cap = _NEVER if max_nodes is None else max_nodes + 1
    stop = cap if deadline is None else min(cap, _TIME_CHECK_EVERY)
    d = 0
    while d >= 0:
        blocks = left[d]
        if not blocks:
            d -= 1
            continue
        lsb = blocks & -blocks
        left[d] = blocks ^ lsb
        nodes += 1
        if nodes >= stop:
            # below the cap, only the deadline's tick is due
            if nodes >= cap or time.perf_counter() > deadline:
                status = BUDGET
                break
            stop = min(nodes + _TIME_CHECK_EVERY, cap)

        # place depth d's step in block b: depth d+1's UI state
        b = lsb.bit_length() - 1
        nb = nbs[d]
        nb2 = nb + 1 if b == nb else nb
        d1 = d + 1
        fw = (fwd[d] >> k) | (sod[d] << b)
        if bod_all[d]:
            fw |= bod_all[d] ^ (bod[d] << b)
        cov = cover[d] | (spread[d] << b)
        if d1 < k:
            full = (2 << nb2) - 1
            blocks = (fw & full) ^ full
            for shift, r, at_most in checks[d1]:
                c = cov >> shift & field
                distinct = c.bit_count()
                if at_most:
                    # never more than r: the first r scope depths cover at
                    # most r blocks, and from position r on this check
                    # keeps them at r
                    if distinct == r:
                        blocks &= c
                elif distinct < r:
                    if distinct + 1 < r:
                        blocks = 0
                        break
                    blocks &= ~c
            if not blocks:
                continue
            left[d1], fwd[d1], cover[d1] = blocks, fw, cov

        restricted = None
        if sual_end[d]:
            restricted = []
            for shift, h, xmask in sual_end[d]:
                c = cov >> shift & field
                if c.bit_count() <= h:
                    restricted.append((xmask, c))

        # the matching repair of each alive class
        level = splits[d]
        kids = alive[d1]
        kids.clear()
        if b == nb:
            for lo, hi, rows_p, mrow_p in alive[d]:
                for clo, chi, step_mask in level[lo] or split(d, lo, hi):
                    if step_mask == 0:
                        continue
                    rows = [*rows_p, step_mask]
                    u = (step_mask & -step_mask).bit_length() - 1
                    if u not in mrow_p:
                        # augment's first step: the lowest user is free
                        mrow = [*mrow_p, u]
                    else:
                        mrow = [*mrow_p, -1]
                        seen[0] = 0
                        if not augment(rows, mrow, nb, seen):
                            continue
                    if restricted:
                        rows, mrow = rows.copy(), mrow.copy()
                        if not restrict(rows, mrow, restricted):
                            continue
                    kids.append((clo, chi, rows, mrow))
        else:
            for lo, hi, rows_p, mrow_p in alive[d]:
                row = rows_p[b]
                for clo, chi, step_mask in level[lo] or split(d, lo, hi):
                    newm = row & step_mask
                    if newm == 0:
                        continue
                    # lists are copied only where this child changes them
                    rows, mrow = rows_p, mrow_p
                    if newm != row:
                        rows = rows_p.copy()
                        rows[b] = newm
                        if not (newm >> mrow_p[b]) & 1:
                            mrow = mrow_p.copy()
                            mrow[b] = -1
                            seen[0] = 0
                            if not augment(rows, mrow, b, seen):
                                continue
                    if restricted:
                        rows, mrow = rows.copy(), mrow.copy()
                        if not restrict(rows, mrow, restricted):
                            continue
                    kids.append((clo, chi, rows, mrow))
        if not kids:
            continue
        assign[d] = b
        d = d1
        if d == k:
            patterns += 1
            if max_patterns is not None and patterns > max_patterns:
                status = BUDGET
            else:
                # a full-depth class's first entry is its least combo
                mrow = min(kids, key=lambda entry: perm[entry[0]])[3]
                plan = [0] * k
                for e in range(k):
                    plan[prob.order[e]] = mrow[assign[e]]
                status, matchings = SAT, 1
            break
        nbs[d] = nb2
    return (status, plan, patterns, nodes, matchings)
