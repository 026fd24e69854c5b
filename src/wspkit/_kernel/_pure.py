"""Pure-Python search backend.

Implements the kernel contract with Python integers as user bitmasks.  The
compiled backend, `_speed.c`, transliterates this module's `run_search`
step for step, so the two return the same status, plan and counters on
every call, which the parity tests check; a change to the search here is
made there too.  The search shares work between the authorisation
alternatives ("combos"):

- Combos with equal masks at depths 0..d-1 carry identical search state at
  depth d, because that state is built from those masks alone.
  `SearchProblem` keeps its combos sorted by mask tuple, which makes each
  such prefix class a contiguous range [lo, hi) of combos.  A class is
  split into its children at depth d, the runs of equal masks in column d,
  only when the search first expands it there, and the split is kept for
  later visits.  A node repairs one matching per alive class rather than
  one per combo.  A class whose matching can no longer saturate the blocks
  is dead for its whole subtree, because masks only shrink along a branch.
- A depth lists its alive classes in combo order, so the plan is the
  matching of the first class alive at full depth.
- SoD, at-most and at-least constraints rule blocks out whatever the
  users, so a node computes its admissible blocks once, as a bitmask, and
  tries only those.  Compile hands a binding-of-duty pair over as an
  at-most count with r = 1, which this rule prunes as any other count.

A depth's user-independent (UI) state is one packed int of k-bit
block-set fields, one per scope: the blocks that the scope's depths before
it cover.  A node updates it with a few int operations and no loop over
the step's scopes:

- The scopes are, in order, SoD scope f for each depth f (the earlier
  depths f has an SoD with), each count, and each SUAL.  Depth d's int
  holds scope i at field i - d, so the fields of passed depths shift out.
  Which scopes hold a depth, which count checks run there and which SUAL
  scopes end there are `depth_tables`' rows, which both backends read;
  this module only puts them in shift form.
- Placing depth d in block b ORs `spread[d] << b`, a bit in the field of
  each scope that holds d, into depth d's int shifted down one field:
  that is depth d+1's int.  Its field 0 is depth d+1's SoD scope, the
  blocks that depth may not join, which rule blocks out of its open blocks
  and new one.  A count bound is read only at the scope positions where it
  can rule a block out, and a SUAL scope only at its last depth.
- A node that leaves depth d+1 admissible blocks keeps depth d+1's int
  already shifted, as `cover[d+1]`, so the nodes at depth d+1 share one
  shift, and a node that the UI constraints end pays none.

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
from . import BUDGET, SAT, UNSAT, depth_tables

_TIME_CHECK_EVERY = 2048
_NEVER = 1 << 62  # a node count no search reaches


def _shift_form(prob):
    """`depth_tables` in shift form, where depth d's int holds scope i at
    field i - d: spread[d], a bit at field i - d - 1 for each scope i
    holding depth d; checks[d], (field shift, r, at most?) of each count
    check at depth d; and sual_end[d], (field shift after depth d, h,
    super-users) of each SUAL whose scope ends at depth d.  Kept out of
    `run_search`, whose loop reads k: a comprehension there naming k would
    make it a cell variable, slower to read at every node."""
    k = prob.k
    holders, checks, sual_end = depth_tables(prob)
    spread = []
    for d, row in enumerate(holders):
        bits = 0
        for i in row:
            bits |= 1 << (i - d - 1) * k
        spread.append(bits)
    checks = [[((i - d) * k, r, at_most) for i, r, at_most in row] if row
              else row for d, row in enumerate(checks)]
    suals, base = prob.suals, k + len(prob.counts)  # SUAL si: scope base + si
    sual_end = [[((base + si - d - 1) * k, h, suals[si].xmask)
                 for si, h in row] if row else row
                for d, row in enumerate(sual_end)]
    return spread, checks, sual_end


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
    spread, checks, sual_end = _shift_form(prob)

    # sorted by mask tuple, so a class is a range [lo, hi) of combos
    combo_masks = prob.combo_masks
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
    # The explicit stack: depth d's frame is its UI state shifted down one
    # field, cover[d], its block count nbs[d] and the admissible blocks
    # left[d] it has still to try, lowest first.  A recursive nested
    # function would hold this frame's state in a cycle.
    cover, nbs, left = [0] * k, [0] * k, [0] * k
    assign = [0] * k
    seen = [0]  # the users an augmenting-path search has visited

    def split(d: int, lo: int, hi: int) -> list[tuple[int, int, int]]:
        # The children of the class [lo, hi) at depth d: the runs of equal
        # masks in column d, which is sorted there because the members
        # agree on depths 0..d-1.
        kids = []
        start = lo
        while start < hi:
            mask = combo_masks[start][d]
            if combo_masks[hi - 1][d] == mask:
                end = hi  # the rest of the range is one run
            else:
                end = bisect_right(combo_masks, mask, start, hi,
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
        cov = cover[d] | (spread[d] << b)
        if d1 < k:
            full = (2 << nb2) - 1
            blocks = (cov & full) ^ full
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
            left[d1], cover[d1] = blocks, cov >> k

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
                    if restricted and not restrict(rows, mrow, restricted):
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
                # the first class alive at full depth gives the plan
                mrow = kids[0][3]
                plan = [0] * k
                for e in range(k):
                    plan[prob.order[e]] = mrow[assign[e]]
                status, matchings = SAT, 1
            break
        nbs[d] = nb2
    return (status, plan, patterns, nodes, matchings)
