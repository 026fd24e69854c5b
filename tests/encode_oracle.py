"""The encoding oracle: every solution of a CS model by exhaustive search,
and a model's CNF as a list of clauses.

The library only writes models out (`emit_opb`, `emit_dimacs`,
`emit_cs_json`) and checks single assignments (`satisfied_by`).  The tests
enumerate a CS model's solutions to compare them with the valid plans, and
read the lowered CNF clause by clause to check it against the rows.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from wspkit.encode import BooleanModel, CSModel, _lower, _spans


def iter_solutions(model: CSModel) -> Iterator[dict[str, int]]:
    """Every satisfying assignment (selectors included), in lexicographic
    variable-domain order.  Exhaustive; meant for small instances."""
    names = [v.name for v in model.variables]
    domains = [v.domain for v in model.variables]
    for combo in itertools.product(*domains):
        a = dict(zip(names, combo))
        if model.satisfied_by(a):
            yield a


def plan_solutions(model: CSModel) -> list[tuple[int, ...]]:
    """Distinct plans among the solutions, in lexicographic order."""
    k = model.instance.k
    return sorted({tuple(a[f"y{s}"] for s in range(k))
                   for a in iter_solutions(model)})


def lower_to_clauses(model: BooleanModel) -> tuple[int, list[tuple[int, ...]]]:
    """Compile every row to CNF clauses; returns (total variable count
    including the counter registers, clauses).  The clauses are the array
    that `emit_dimacs` writes, split at its zeros."""
    nvars, flat, _ = _lower(model)
    return nvars, [tuple(flat[start:end]) for _, start, end
                   in _spans(flat, itertools.repeat(None, flat.count(0)))]
