"""Pure-Python search backend.

Implements the kernel contract with Python integers as user bitmasks.  It
returns the same status, plan and counters as the compiled backend on every
call, which the parity tests check, but it shares the work that the compiled
backend repeats per authorisation alternative ("combo"):

- Combos with equal masks at depths 0..d-1 carry identical search state at
  depth d, because that state is built from those masks alone.  Each such
  prefix class is named by its least member, and a node repairs one matching
  per alive class rather than one per combo.  A class whose matching can no
  longer saturate the blocks is dead for its whole subtree, because masks
  only shrink along a branch.
- SoD, BoD, at-most and at-least constraints rule blocks out whatever the
  users, so a node computes its admissible blocks once, as a bitmask, and
  tries only those.

State is depth-indexed: entering depth d+1 builds new rows from depth d's and
never mutates a row another depth can see, so backtracking needs no undo log.
"""

from __future__ import annotations

import time
from typing import Optional

UNSAT, SAT, BUDGET = 0, 1, 2

_TIME_CHECK_EVERY = 2048


def _prefix_classes(combo_masks, k: int) -> list[dict[int, list[tuple[int, int]]]]:
    """The prefix-class tree over the combos, in visit order.

    A class at depth d holds the combos with equal masks at depths 0..d-1 and
    is named by its least member; depth 0 has the one class 0.
    `tree[d][name]` lists the class's children as (least member, mask at
    depth d), in order of their least members' first appearance.
    """
    tree = []
    classes = [list(range(len(combo_masks)))]
    for d in range(k):
        level = {}
        split_classes = []
        for members in classes:
            first = members[0]
            if len(members) == 1:
                level[first] = [(first, combo_masks[first][d])]
                split_classes.append(members)
                continue
            split: dict[int, list[int]] = {}
            for c in members:
                mask = combo_masks[c][d]
                group = split.get(mask)
                if group is None:
                    split[mask] = [c]
                else:
                    group.append(c)
            level[first] = [(group[0], mask) for mask, group in split.items()]
            split_classes.extend(split.values())
        classes = split_classes
        tree.append(level)
    return tree


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

    sod_prev = prob.sod_prev
    bod_prev = prob.bod_prev
    counts = prob.counts
    count_at = prob.count_at
    suals = prob.suals
    sual_at = prob.sual_at
    # per depth: (count index, at_most, r, scope depths after this one)
    count_checks = [
        [(ci, counts[ci].at_most, counts[ci].r,
          len(counts[ci].depths) - counts[ci].depths.index(d) - 1)
         for ci in count_at[d]]
        for d in range(k)]

    tree = _prefix_classes(prob.combo_masks, k)
    # alive[d]: the alive classes at depth d as (name, block masks, matching
    # of blocks to users); the lists are shared between depths, never mutated
    alive: list[list[tuple[int, list[int], list[int]]]] = \
        [[(0, [], [])]] + [[] for _ in range(k)]
    ccover = [[0] * len(counts)] + [[] for _ in range(k)]
    scover = [[0] * len(suals)] + [[] for _ in range(k)]
    sassigned = [[0] * len(suals)] + [[] for _ in range(k)]
    assign = [0] * k

    stats = {"patterns": 0, "nodes": 0, "matchings": 0}
    result: list[Optional[list[int]]] = [None]

    def augment(rows: list[int], mrow: list[int], b: int, seen: list[int]) -> bool:
        # Kuhn augmenting path from block b, users tried in ascending order.
        avail = rows[b] & ~seen[0]
        while avail:
            lsb = avail & -avail
            u = lsb.bit_length() - 1
            avail ^= lsb
            seen[0] |= lsb
            if u not in mrow or augment(rows, mrow, mrow.index(u), seen):
                mrow[b] = u
                return True
        return False

    def restrict(rows: list[int], mrow: list[int], restricted: list[int],
                 srow: list[int]) -> bool:
        # Narrow the blocks covering each restricted SUAL scope to its
        # super-users, repairing the matching; False when it cannot saturate.
        for si in restricted:
            xmask = suals[si].xmask
            cov = srow[si]
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
                        if not augment(rows, mrow, bb, [0]):
                            return False
        return True

    def allowed(d: int, nb: int) -> int:
        """The blocks 0..nb, as a bitmask, that depth d's step may join
        under the user-independent constraints."""
        blocks = (2 << nb) - 1
        for e in bod_prev[d]:
            blocks &= 1 << assign[e]
        for e in sod_prev[d]:
            blocks &= ~(1 << assign[e])
        crow = ccover[d]
        for ci, at_most, r, remaining in count_checks[d]:
            cov = crow[ci]
            distinct = cov.bit_count()
            if at_most:
                if distinct > r:
                    return 0
                if distinct == r:
                    blocks &= cov
            elif distinct + 1 + remaining < r:
                return 0
            elif distinct + remaining < r:
                blocks &= ~cov
        return blocks

    def apply_choice(d: int, nb: int, b: int) -> int:
        """Assign depth d's step to the admissible block b; build depth d+1
        state.

        Returns the new block count, -1 when every alive class lost its
        saturating matching, or -2 when a budget stops the search.
        """
        stats["nodes"] += 1
        if max_nodes is not None and stats["nodes"] > max_nodes:
            return -2
        if deadline is not None and stats["nodes"] % _TIME_CHECK_EVERY == 0:
            if time.perf_counter() > deadline:
                return -2

        assign[d] = b
        opened = b == nb
        nb2 = nb + 1 if opened else nb
        d1 = d + 1
        bbit = 1 << b

        crow = ccover[d]
        if count_at[d]:
            crow = crow.copy()
            for ci in count_at[d]:
                crow[ci] |= bbit
        ccover[d1] = crow

        srow, arow = scover[d], sassigned[d]
        restricted = []
        if sual_at[d]:
            srow, arow = srow.copy(), arow.copy()
            for si in sual_at[d]:
                srow[si] |= bbit
                arow[si] += 1
                spec = suals[si]
                if arow[si] == len(spec.depths) and srow[si].bit_count() <= spec.h:
                    restricted.append(si)
        scover[d1], sassigned[d1] = srow, arow

        level = tree[d]
        kids = []
        for name, rows_p, mrow_p in alive[d]:
            for child, step_mask in level[name]:
                if opened:
                    if step_mask == 0:
                        continue
                    rows = rows_p + [step_mask]
                    u = (step_mask & -step_mask).bit_length() - 1
                    if u not in mrow_p:
                        # augment's first step: the lowest user is free
                        mrow = mrow_p + [u]
                    else:
                        mrow = mrow_p + [-1]
                        if not augment(rows, mrow, nb, [0]):
                            continue
                else:
                    # lists are copied only where this child changes them
                    rows, mrow = rows_p, mrow_p
                    newm = rows_p[b] & step_mask
                    if newm != rows_p[b]:
                        if newm == 0:
                            continue
                        rows = rows_p.copy()
                        rows[b] = newm
                        if not (newm >> mrow_p[b]) & 1:
                            mrow = mrow_p.copy()
                            mrow[b] = -1
                            if not augment(rows, mrow, b, [0]):
                                continue
                if restricted:
                    rows, mrow = rows.copy(), mrow.copy()
                    if not restrict(rows, mrow, restricted, srow):
                        continue
                kids.append((child, rows, mrow))
        if not kids:
            return -1
        alive[d1] = kids
        return nb2

    def extract_plan(d: int) -> list[int]:
        # the least alive class holds the least alive combo
        mrow = min(alive[d])[2]
        stats["matchings"] += 1
        plan = [0] * k
        for e in range(k):
            plan[prob.order[e]] = mrow[assign[e]]
        return plan

    def search(d: int, nb: int) -> int:
        blocks = allowed(d, nb)
        while blocks:
            lsb = blocks & -blocks
            blocks ^= lsb
            nb2 = apply_choice(d, nb, lsb.bit_length() - 1)
            if nb2 == -2:
                return BUDGET
            if nb2 < 0:
                continue
            if d + 1 == k:
                stats["patterns"] += 1
                if max_patterns is not None and stats["patterns"] > max_patterns:
                    return BUDGET
                result[0] = extract_plan(d + 1)
                return SAT
            got = search(d + 1, nb2)
            if got != UNSAT:
                return got
        return UNSAT

    status = search(0, 0)
    plan = result[0] if status == SAT else None
    return (status, plan, stats["patterns"], stats["nodes"], stats["matchings"])
