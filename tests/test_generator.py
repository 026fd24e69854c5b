"""Instance generator tests: PRNG conformance, draw structure, distribution
checks, calibration, and the benchmark families.

Rates and calibrated counts asserted here are seed-pinned regressions; the
distribution checks compare against the analytic values of the documented
sampling scheme.
"""

import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import fields, replace

import pytest

from conftest import ScalarSplitMix64, next64
from wspkit import cli
from wspkit.core import ADA, AtMost, InvariantError, SoD, SUAL, WL, WspError, bits_of
from wspkit.generator import (
    FAMILY_KINDS,
    CalibrationError,
    GenSpec,
    PTCalibration,
    SplitMix64,
    calibrate_pt,
    calibration_path,
    derive_seed,
    family_draw,
    family_spec,
    generate,
    generate_with_meta,
    load_calibration,
    save_calibration,
)
from wspkit.generator import (
    _KINDS,
    _Sample,
    _draw_authorisation,
    _draw_sod,
    _draw_step_users,
    _pair,
    _round_three_quarters,
    _AM3_SHARED_K,
    _SHARED_MAX,
    _shared_am3,
    _shared_sod,
    _SOD_SHARED_K,
)
from wspkit.solver import Verdict, solve_backtracking

BAND = (0.25, 0.75)  # wide band so tiny test sizes calibrate reliably


# --- the fixed PRNG -------------------------------------------------------------


def test_stream_matches_published_vectors():
    rng = SplitMix64(0)
    assert [next64(rng) for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_stream_is_seed_deterministic():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [next64(a) for _ in range(10)] == [next64(b) for _ in range(10)]


def test_bounded_draws_stay_in_range():
    rng = SplitMix64(1)
    for bound in (1, 2, 3, 7, 100):
        assert all(0 <= rng.below(bound) < bound for _ in range(200))
    assert all(rng.below(1) == 0 for _ in range(16))
    with pytest.raises(InvariantError):
        rng.below(0)


def test_bounded_draws_are_uniform():
    rng = SplitMix64(5)
    draws = 10_000
    counts = [0] * 5
    for _ in range(draws):
        counts[rng.below(5)] += 1
    sigma = math.sqrt(draws * 0.2 * 0.8)
    assert all(abs(c - draws / 5) <= 3 * sigma for c in counts)


def test_subsets_are_valid_and_uniform():
    rng = SplitMix64(9)
    for _ in range(100):
        got = rng.subset(10, 4)
        assert len(got) == 4 == len(set(got))
        assert all(0 <= v < 10 for v in got)
    assert sorted(rng.subset(6, 6)) == list(range(6))
    with pytest.raises(InvariantError):
        rng.subset(3, 4)
    # ordered pairs from range(4): 12 outcomes, all equally likely
    draws = 12_000
    counts = {}
    for _ in range(draws):
        pair = tuple(rng.subset(4, 2))
        counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == 12
    sigma = math.sqrt(draws * (1 / 12) * (11 / 12))
    assert all(abs(c - draws / 12) <= 3 * sigma for c in counts.values())


STREAM_BOUNDS = (1, 2, 6, 12, 80, 1 << 63)


def stream_calls(seed: int):
    """A seeded mix of raw reads, below and subset calls, as (name, args);
    a raw read is `below(2**64)`."""
    pick = random.Random(seed)
    for _ in range(300):
        roll = pick.random()
        if roll < 0.2:
            yield "below", (1 << 64,)
        elif roll < 0.6:
            yield "below", (pick.choice(STREAM_BOUNDS),)
        else:
            m = pick.choice((1, 2, 5, 12, 80, 130))
            size = m if roll > 0.97 else pick.randint(0, min(m, 6))
            yield "subset", (m, size)


@pytest.mark.parametrize("seed", [0, 1, (1 << 64) - 1] + list(range(2, 49)))
def test_stream_matches_the_scalar_oracle(seed):
    # outputs and the state after every call, whether it ends mid-batch or
    # on a batch's last output
    rng, oracle = SplitMix64(seed), ScalarSplitMix64(seed)
    assert rng.state == oracle.state
    for name, args in stream_calls(seed):
        assert getattr(rng, name)(*args) == getattr(oracle, name)(*args)
        assert rng.state == oracle.state


def test_stream_resumes_from_a_state_read_at_any_point():
    # the states after 0..1100 outputs fall at every position of the
    # first four batches and into the fifth
    rng = SplitMix64(81)
    for _ in range(1100):
        resumed, oracle = SplitMix64(rng.state), ScalarSplitMix64(rng.state)
        assert [next64(resumed) for _ in range(5)] == \
            [oracle.next64() for _ in range(5)]
        assert resumed.subset(12, 4) == oracle.subset(12, 4)
        assert resumed.state == oracle.state
        next64(rng)


def test_draw_limits_are_named():
    # a refused draw reads nothing from the stream
    rng = SplitMix64(3)
    for m, size in ((5, -1), (0, -1), (3, 4), (0, 1)):
        with pytest.raises(InvariantError, match=r"size must be in \[0, m\]"):
            rng.subset(m, size)
    for bound in (0, -1, (1 << 64) + 1, 1 << 65):
        with pytest.raises(InvariantError,
                           match=r"bound must be in \[1, 2\*\*64\]"):
            rng.below(bound)
    assert rng.state == 3
    oracle = ScalarSplitMix64(3)
    assert rng.below(1 << 64) == oracle.next64()
    assert rng.subset(5, 0) == [] and rng.subset(0, 0) == []
    assert rng.state == oracle.state


# --- the sampling core against its textbook definition --------------------------
#
# `ScalarSplitMix64` reads one output at a time and draws `below` and
# `subset` as their definitions read.  The package reads the batched stream,
# carries the rejection shift from one draw to the next, inlines both draws
# in `_draw_step_users`, and draws two-step pairs without a pool in `_pair`.
# The shift changes where a bound crosses a power of two, so the bounds sit
# on either side of each;
# streams advanced to positions 250..255 of their first batch make a refill
# land in the middle of a draw.

EDGE_BOUNDS = sorted({b for j in range(1, 8)
                      for b in (2 ** j - 1, 2 ** j, 2 ** j + 1)})
REFILL_OFFSETS = range(250, 256)


def advanced(offset: int):
    """A batched stream and its oracle, both `offset` outputs in."""
    rng, oracle = SplitMix64(offset), ScalarSplitMix64(offset)
    for _ in range(offset):
        assert next64(rng) == oracle.next64()
    return rng, oracle


def step_users_longhand(oracle, k: int, n: int) -> list[list[int]]:
    step_users = [[] for _ in range(k)]
    for u in range(n):
        for s in oracle.subset(k, 1 + oracle.below(max(1, k // 2))):
            step_users[s].append(u)
    return step_users


@pytest.mark.parametrize("offset", REFILL_OFFSETS)
def test_below_matches_its_definition_across_a_refill(offset):
    bounds = [b for j in range(1, 65) for b in (2 ** j - 1, 2 ** j, 2 ** j + 1)
              if b <= 1 << 64]
    rng, oracle = advanced(offset)
    for bound in bounds:
        assert [rng.below(bound) for _ in range(3)] == \
            [oracle.below(bound) for _ in range(3)]
        assert rng.state == oracle.state


@pytest.mark.parametrize("offset", REFILL_OFFSETS)
def test_subset_matches_its_definition_across_a_refill(offset):
    rng, oracle = advanced(offset)
    for m in EDGE_BOUNDS:
        for size in sorted({0, 1, min(2, m), m // 2, m - 1, m}):
            assert rng.subset(m, size) == oracle.subset(m, size)
            assert rng.state == oracle.state


@pytest.mark.parametrize("offset", REFILL_OFFSETS)
def test_sod_pair_is_a_two_subset_across_a_refill(offset):
    rng, oracle = advanced(offset)
    for k in EDGE_BOUNDS[1:]:
        for _ in range(4):
            assert _pair(rng, k) == tuple(oracle.subset(k, 2))
            assert rng.state == oracle.state
            a, b = oracle.subset(k, 2)
            assert _draw_sod(rng, k, 1) == SoD(min(a, b), max(a, b))
            assert rng.state == oracle.state


@pytest.mark.parametrize("offset", REFILL_OFFSETS)
def test_step_users_match_their_definition_across_a_refill(offset):
    for k in EDGE_BOUNDS:
        rng, oracle = advanced(offset)
        assert _draw_step_users(rng, k, 9) == step_users_longhand(oracle, k, 9)
        assert rng.state == oracle.state


@pytest.mark.parametrize("k, n, seed", [(k, 30, k) for k in EDGE_BOUNDS]
                         + [(5, 3, 0), (6, 4, 2), (9, 5, 3)])
def test_authorisation_matches_its_definition(k, n, seed):
    # retried draws included: the last three take 11, 18 and 8 attempts
    for attempt in itertools.count():
        oracle = ScalarSplitMix64(derive_seed(seed, attempt))
        step_users = step_users_longhand(oracle, k, n)
        if all(step_users):
            break
    auth, state, attempts = _draw_authorisation(k, n, seed)
    assert auth.to_lists() == step_users
    assert (state, attempts) == (oracle.state, attempt + 1)


def test_subseed_derivation():
    assert all(0 <= derive_seed(0, i) <= (1 << 64) - 1 for i in range(100))
    assert len({derive_seed(0, i) for i in range(10_000)}) == 10_000
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(7) == derive_seed(7)


# --- spec validation -------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(InvariantError, match="k"):
        GenSpec(k=0, n=5)
    with pytest.raises(InvariantError, match="n"):
        GenSpec(k=5, n=0)
    with pytest.raises(InvariantError, match="sod"):
        GenSpec(k=5, n=5, sod=-1)
    with pytest.raises(InvariantError, match="n >= 4"):
        GenSpec(k=5, n=3, wl=1)
    assert GenSpec(k=5, n=4, wl=1).counts()["wl"] == 1
    # one count field per kind of the kind table, in its order
    assert tuple(f.name for f in fields(GenSpec)
                 if f.name not in ("k", "n", "seed")) == FAMILY_KINDS
    shapes = {kind: (shape.steps, shape.users)
              for kind, shape in _KINDS.items()}
    assert shapes == {"sod": (2, 1), "am3": (5, 1), "sual": (5, 5),
                      "wl": (2, 4), "ada": (2, 2)}
    for kind, (steps, users) in shapes.items():
        need = rf"^spec: {kind} draws need k >= {steps} and n >= {users}, "
        GenSpec(k=steps, n=users, **{kind: 1})
        with pytest.raises(InvariantError, match=need + rf"got k={steps - 1}"):
            GenSpec(k=steps - 1, n=users, **{kind: 1})
        if users > 1:
            with pytest.raises(InvariantError,
                               match=need + rf"got k={steps}, n={users - 1}$"):
                GenSpec(k=steps, n=users - 1, **{kind: 1})


@pytest.mark.parametrize("field, value", [
    ("k", 12.0), ("n", 120.0), ("sod", 2.0), ("am3", True), ("sual", False),
    ("wl", "1"), ("ada", None), ("seed", 1.5), ("seed", True)])
def test_spec_fields_must_be_ints(field, value):
    # the CLI schema's integer rule: no float, no bool, nothing else
    with pytest.raises(InvariantError,
                       match=rf"^spec: {field} must be an int, got {value!r}$"):
        GenSpec(**{"k": 12, "n": 120, field: value})


@pytest.mark.parametrize("spec_kwargs, named", [
    (dict(k=4, n=9, am3=1), "k >= 5"),
    (dict(k=4, n=9, sual=1), "k >= 5"),
    (dict(k=5, n=4, sual=1), "n >= 5"),
    (dict(k=1, n=9, sod=1), "sod"),
    (dict(k=1, n=9, ada=1), "ada"),
    (dict(k=2, n=1, ada=1), "n >= 2"),
])
def test_generate_preconditions_name_the_parameter(spec_kwargs, named):
    with pytest.raises(InvariantError, match=named):
        generate(GenSpec(**spec_kwargs))


# --- draw structure ---------------------------------------------------------------


def test_generation_is_deterministic():
    spec = GenSpec(k=8, n=20, sod=3, am3=2, seed=11)
    assert generate(spec) == generate(spec)
    assert generate(spec) != generate(GenSpec(k=8, n=20, sod=3, am3=2, seed=12))


def test_am3_shape():
    inst = generate(GenSpec(k=10, n=100, am3=10, seed=0))
    assert len(inst.constraints) == 10
    for c in inst.constraints:
        assert isinstance(c, AtMost) and c.r == 3 and len(c.scope) == 5
        assert len(set(c.scope)) == 5


def test_draws_share_one_object_per_sod_pair_and_am3_scope():
    draws = [generate(GenSpec(k=12, n=120, am3=12, sod=26,
                              seed=derive_seed(5, i))) for i in range(200)]
    held = [c for inst in draws for c in inst.constraints]
    sods = {id(c): c for c in held if isinstance(c, SoD)}
    am3s = {id(c): c for c in held if isinstance(c, AtMost)}
    # C(12, 2) pairs and C(12, 5) scopes exist, against 5200 and 2400 held
    assert len(sods) <= 66 and len(am3s) <= 792
    for c in sods.values():
        assert c == SoD(c.s1, c.s2)
    for c in am3s.values():
        assert c == AtMost(3, c.scope)


def test_shared_values_stay_within_their_bound():
    # a kind is shared up to the largest k whose values all fit, and the
    # values of a smaller k are among them: the caches never evict
    assert math.comb(_SOD_SHARED_K, 2) <= _SHARED_MAX < math.comb(
        _SOD_SHARED_K + 1, 2)
    assert math.comb(_AM3_SHARED_K, 5) <= _SHARED_MAX < math.comb(
        _AM3_SHARED_K + 1, 5)
    for k in (5, 8, 11, 12):
        generate(GenSpec(k=k, n=k, am3=2000, sod=2000, seed=k))
    for shared, most in ((_shared_sod, math.comb(_SOD_SHARED_K, 2)),
                         (_shared_am3, math.comb(_AM3_SHARED_K, 5))):
        info = shared.cache_info()
        assert info.maxsize == _SHARED_MAX
        assert info.currsize <= most
    # past those k, draws build their values unshared
    am3, sod = _shared_am3.cache_info(), _shared_sod.cache_info()
    for i in range(40):
        inst = generate(GenSpec(k=40, n=40, am3=40, seed=i))
        assert inst.constraints[0] == AtMost(3, inst.constraints[0].scope)
        generate(GenSpec(k=_SOD_SHARED_K + 1, n=40, sod=40, seed=i))
    assert _shared_am3.cache_info() == am3
    assert _shared_sod.cache_info() == sod


def test_constraint_shapes_by_kind():
    inst = generate(GenSpec(k=6, n=12, sod=1, am3=1, sual=1, wl=1, ada=1,
                            seed=3))
    sod, am3, sual, wl, ada = inst.constraints
    assert isinstance(sod, SoD) and sod.s1 < sod.s2
    assert isinstance(am3, AtMost)
    assert isinstance(sual, SUAL) and sual.h == 3
    supers = set(bits_of(sual.supers))
    assert len(sual.scope) == 5 and len(supers) == 5
    teams = [set(bits_of(team)) for team in wl.teams]
    assert isinstance(wl, WL) and len(wl.scope) == 2
    assert [len(team) for team in teams] == [3, 3]  # n//4 each
    assert not (teams[0] & teams[1])
    assert isinstance(ada, ADA)
    trigger, required = set(bits_of(ada.trigger)), set(bits_of(ada.required))
    assert len(trigger) == 6 and len(required) == 6  # n//2 each
    assert trigger <= set(range(12)) and required <= set(range(12))


def test_every_step_ends_up_authorised():
    for seed in range(20):
        inst = generate(GenSpec(k=7, n=5, seed=seed))
        assert all(inst.auth.users(s) for s in range(inst.k))


def test_regeneration_is_counted_and_capped():
    inst, meta = generate_with_meta(GenSpec(k=5, n=3, seed=0))
    assert meta["attempts"] == 11  # seed-pinned: ten draws left a step empty
    assert all(inst.auth.users(s) for s in range(5))
    assert generate(GenSpec(k=5, n=3, seed=0)) == inst
    with pytest.raises(WspError, match="attempts"):
        generate(GenSpec(k=9, n=1, seed=0))  # one user cannot cover 9 steps


def test_authorisation_size_distribution():
    k, n = 10, 10_000
    inst = generate(GenSpec(k=k, n=n, seed=0))
    sizes = [sum(inst.auth.allows(s, u) for s in range(k)) for u in range(n)]
    assert all(1 <= size <= k // 2 for size in sizes)
    mean = sum(sizes) / n
    expected = (1 + k // 2) / 2
    assert abs(mean - expected) <= 0.02 * expected
    # each step is equally likely to land in a user's list
    p = expected / k
    sigma = math.sqrt(n * p * (1 - p))
    for s in range(k):
        assert abs(len(inst.auth.users(s)) - n * p) <= 3 * sigma


# --- golden draws -----------------------------------------------------------------

# SHA-256 of the JSON document of `generate(spec)` and the attempts it took,
# pinned so that any change to the draw code that alters a single bit of an
# instance fails here.  The specs cover every kind alone and mixed, n in
# {7, 80, 120, 2000, 10 000}, the benchmark shapes, and draws that need
# retries.
GOLDEN_DRAWS = [
    (GenSpec(k=1, n=7, seed=3), 1,
     "ef79a9f72a07d14460e9c82fafd4aee49ed335abced84bd841b0c3155d3ca06c"),
    (GenSpec(k=2, n=7, sod=1, seed=1), 1,
     "c156b5633319e8b8aa8cbe55f21abad2c373bf3d6957c6c5c016d3abe848e460"),
    (GenSpec(k=5, n=7, sod=3, seed=0), 1,
     "f95c05fa572f89fb1b8eae6344ee508bf376849e5abfc57a5f4e591bcee6062d"),
    (GenSpec(k=5, n=7, am3=2, seed=1), 1,
     "0538860f03712fc139eee9f09a78a2031638326868022dd7211f1e272f041384"),
    (GenSpec(k=5, n=7, sual=2, seed=2), 1,
     "23848dc491d6580d1526e70639daf8861aac53fc28bb2aebbc167c339f289e17"),
    (GenSpec(k=5, n=7, wl=2, seed=3), 3,
     "7dd92a647dd7b693107c96f8bbffa72944c8382c5b934bac86c91c2262d97cdf"),
    (GenSpec(k=5, n=7, ada=2, seed=4), 1,
     "62db9267ac97df7d4aa4e4d07933fa5339feb07b80e349fa03ede6a5ef161b65"),
    (GenSpec(k=6, n=7, sod=2, am3=1, sual=1, wl=1, ada=1, seed=5), 1,
     "2834eb4caa90cba32e2ba7e216662cec884506f58e4ab8e871471ab9d320899c"),
    (GenSpec(k=7, n=7, sod=4, am3=7, seed=6), 1,
     "48f19dbb1b6f649b79973c0ec13feaa60996983bf702a8170ca6c140a324036e"),
    (GenSpec(k=8, n=80, sod=5, seed=7), 1,
     "9f4bd6dc3cd42c03dd2332eca34683dc365c8dc8f328c5c0ad56d3ecc99cc65f"),
    (GenSpec(k=8, n=80, am3=3, seed=8), 1,
     "8f302e5dc4df8b9b0b28fec099a04df0b1bdb8d92e233aae82426fc248a372f8"),
    (GenSpec(k=8, n=80, sual=3, seed=9), 1,
     "06f028528f6495180f46225a44ca669d2571fc9480b242f93aec6f78628aeddb"),
    (GenSpec(k=8, n=80, wl=3, seed=10), 1,
     "07849e29f91c1ba4d53659a6d4b1ff99c43164674b790f8bbcc50173235b7b15"),
    (GenSpec(k=8, n=80, ada=3, seed=11), 1,
     "1b461b00e3ec5f3ebc80ca09e6e439d6ef455ceca02f127b1aeb5ca03fd092ce"),
    (GenSpec(k=8, n=80, sod=10, am3=8, wl=2, ada=8, seed=12), 1,
     "5430bcc4af3eebdbd784c2cc3ee6531273bc14a56a0e32eacc308a0635c76ed5"),
    (GenSpec(k=10, n=80, sod=7, am3=10, sual=1, wl=2, ada=2, seed=13), 1,
     "eb247575a8fcc15d44834867447029a3492411ea414e293e1b8f4fb7d6b53d25"),
    (GenSpec(k=10, n=80, sod=7, am3=10, sual=1, wl=2, ada=2,
             seed=0x243F6A8885A308D3), 1,
     "ae8fb42c5f8e82e9977b658b59961dd9d022f1f934b319251642f1fd607af75a"),
    (GenSpec(k=12, n=120, sod=26, am3=12, seed=14), 1,
     "49997caa271c097ca8f88478fae2adf3d0f29c97c0217d31ffab24d04098f43b"),
    (GenSpec(k=12, n=120, sod=19, am3=12, wl=3, seed=15), 1,
     "444921a703b2cbee617fcf58e69088f7ade2ee1ade0d969d50267b852d91eac1"),
    (GenSpec(k=12, n=120, sod=66, am3=12, seed=16), 1,
     "2e9871b987c515bb6a679b03b1e6555694be5c3d61da2a659d80ac679a82fa21"),
    (GenSpec(k=12, n=120, sod=19, am3=12, wl=66, seed=17), 1,
     "643f58a87f995204a8e2081e9530fe28d39932cec8d7e0af3a44bec148ed28bf"),
    (GenSpec(k=12, n=120, sod=19, am3=12, ada=20, seed=18), 1,
     "57c7f5f132fa5602daa9bb38faedca4ae683ab1f29643c0ed929391a4ce4a0da"),
    (GenSpec(k=12, n=120, sod=19, am3=12, sual=10, seed=19), 1,
     "2aab3ceeadac07c41927e1d768db076e2984f3187d6268d0a1b71f24a3d246cb"),
    (GenSpec(k=12, n=120, am3=30, seed=20), 1,
     "cb74621f2033d5ac373bfc64634bdb98830db2e73f4b86a65af78ec50019f97f"),
    (GenSpec(k=12, n=120, sod=1, am3=1, sual=1, wl=1, ada=1, seed=21), 1,
     "f4a98f740dc8ed469d5b4005330e0584c7e3337e295f959af66f055b23544ac0"),
    (GenSpec(k=16, n=120, sod=35, am3=16, seed=22), 1,
     "090f96a7715214858d096563c398126d6461641b34e5b2240041d2d3216a9f8e"),
    (GenSpec(k=5, n=3, seed=0), 11,
     "08ca1e8add41f5d800ffa65764aca6ed22adeae1850251688978c9ad76938b88"),
    (GenSpec(k=5, n=3, sod=2, seed=1), 3,
     "db9b9361a660c3d890a0858b9d7ba0158c889a91b23e0ad7721a45117374e3f3"),
    (GenSpec(k=6, n=4, sod=2, wl=1, ada=1, seed=2), 18,
     "bd3ace5ab045161d76342e564c45b0a8fb531cfebf9abe974498ca74e2c3f8df"),
    (GenSpec(k=9, n=5, am3=2, sual=1, seed=3), 8,
     "5d38bb6b6823abed5a32010192a7ab524b8afae4a84b64ee6b4af1cbc5547de0"),
    (GenSpec(k=16, n=2000, sod=35, am3=16, sual=2, wl=2, ada=2, seed=23), 1,
     "491a2c987487da3829f0c28aafff0679da243f1e65936b0b535548cf9b8d6539"),
    (GenSpec(k=16, n=10_000, sod=35, am3=16, sual=1, wl=1, ada=1, seed=24), 1,
     "2a1064d0f3eae41467d7aaae39a08315c7d51a144e71b1d302860668a5f0bf10"),
]


@pytest.mark.parametrize("spec, attempts, digest", GOLDEN_DRAWS)
def test_draws_match_golden_digests(spec, attempts, digest):
    inst, meta = generate_with_meta(spec)
    text = cli.dump_json(cli.instance_to_doc(inst))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
    assert meta["attempts"] == attempts


# --- calibration -------------------------------------------------------------------


def base_spec(k=5, n=8):
    return GenSpec(k=k, n=n, am3=k, seed=derive_seed(k, n))


def sat_rate(base, vary, count, samples):
    """The SAT rate calibration measures at `count`, from its definition:
    `samples` draws with seeds derived from (base.seed, index)."""
    spec = replace(base, **{vary: getattr(base, vary) + count})
    hits = sum(
        solve_backtracking(generate(replace(spec, seed=derive_seed(
            base.seed, i)))).verdict is Verdict.SAT
        for i in range(samples))
    return hits / samples


def test_calibrate_argument_validation():
    base = base_spec()
    with pytest.raises(InvariantError, match="20 samples"):
        calibrate_pt(base, samples=10, band=BAND)
    with pytest.raises(InvariantError, match="band"):
        calibrate_pt(base, samples=20, band=(0.6, 0.4))
    with pytest.raises(InvariantError, match="kind"):
        calibrate_pt(base, samples=20, band=BAND, vary="bod")
    with pytest.raises(InvariantError, match="sod count"):
        calibrate_pt(GenSpec(k=5, n=8, am3=5, sod=2), samples=20,
                     band=BAND)


@pytest.mark.parametrize("jobs", [0, -3, True, False, 1.0, "2", None])
def test_calibrate_refuses_jobs_that_are_not_a_positive_int(jobs, monkeypatch):
    # refused before any draw is solved
    import wspkit.solver

    def no_solve(*args, **kwargs):
        raise AssertionError("calibration solved a draw")

    monkeypatch.setattr(wspkit.solver, "solve_backtracking", no_solve)
    with pytest.raises(InvariantError, match=r"calibrate: jobs must be an "
                       rf"int >= 1, got {re.escape(repr(jobs))}$"):
        calibrate_pt(base_spec(), samples=20, band=BAND, jobs=jobs)


def test_family_spec_checks_jobs_before_it_reads_the_cache(cache_env):
    # a warm cache for the sod family at k=5, n=8: a hit solves nothing
    save_calibration(5, 8, "sod", PTCalibration(2, 0.5, 20), BAND,
                     master_seed=derive_seed(5, 8))
    assert family_spec("sod", 5, 8, samples=20, band=BAND).sod == 2
    with pytest.raises(InvariantError,
                       match=r"^calibrate: jobs must be an int >= 1, got 0$"):
        family_spec("sod", 5, 8, samples=20, band=BAND, jobs=0)


def test_calibration_rate_bounds():
    with pytest.raises(InvariantError):
        PTCalibration(3, 1.2, 40)
    assert PTCalibration(3, 0.5, 40).sat_rate == 0.5


def test_calibrate_finds_the_transition():
    cal = calibrate_pt(base_spec(), samples=40, band=BAND)
    assert cal == PTCalibration(e_value=2, sat_rate=0.7, samples=40)
    # measured fresh, the calibrated family really straddles the transition
    rate = sat_rate(base_spec(), "sod", cal.e_value, 40)
    assert BAND[0] <= rate <= BAND[1]


def test_calibrate_returns_zero_when_unconstrained_rate_is_in_band():
    cal = calibrate_pt(base_spec(), samples=40, band=(0.25, 0.9))
    assert cal.e_value == 0
    assert cal.sat_rate == 0.875


def test_calibrate_rate_is_monotone_under_common_seeds():
    base = base_spec()
    rates = [sat_rate(base, "sod", e, 40) for e in (0, 2, 6, 10)]
    assert rates == sorted(rates, reverse=True)


def test_calibrate_error_below_band_at_zero():
    base = GenSpec(k=5, n=8, am3=5, wl=3, seed=derive_seed(5, 8))
    with pytest.raises(CalibrationError, match="below the band"):
        calibrate_pt(base, samples=40, band=BAND)


def test_calibrate_error_rate_stays_high():
    # extra am3 constraints never push this size down into the band
    with pytest.raises(CalibrationError, match="stays above"):
        calibrate_pt(base_spec(), samples=40, band=BAND, vary="am3")


def test_calibrate_error_rate_cliff():
    # at this size a single wl constraint overshoots the band entirely
    fixed = GenSpec(k=5, n=8, am3=5, sod=1, seed=derive_seed(5, 8))
    with pytest.raises(CalibrationError, match="jumps"):
        calibrate_pt(fixed, samples=40, band=BAND, vary="wl")


def test_parallel_rate_estimate_matches_serial():
    base = base_spec()
    assert calibrate_pt(base, samples=20, band=BAND, jobs=2) == \
        calibrate_pt(base, samples=20, band=BAND, jobs=1)


# per varied kind: a base spec with constraints drawn before and after it
EQUIVALENCE_BASES = {
    "sod": GenSpec(k=6, n=12, am3=2, sual=1, wl=1, ada=1, seed=5),
    "am3": GenSpec(k=6, n=12, sod=2, am3=1, sual=1, wl=1, ada=1, seed=6),
    "sual": GenSpec(k=6, n=12, sod=2, am3=1, wl=1, ada=1, seed=7),
    "wl": GenSpec(k=6, n=12, sod=2, am3=1, sual=1, ada=1, seed=8),
    "ada": GenSpec(k=6, n=12, sod=2, am3=1, sual=1, wl=1, seed=9),
}


@pytest.mark.parametrize("vary", sorted(EQUIVALENCE_BASES))
def test_calibration_sample_equals_generate_at_every_count(vary):
    base = EQUIVALENCE_BASES[vary]
    for index in (0, 1, 7):
        sample = _Sample(base, vary, index)
        for count in (5, 0, 2, 9, 1, 9, 12):
            spec = replace(base, seed=derive_seed(base.seed, index),
                           **{vary: getattr(base, vary) + count})
            assert sample.instance(count) == generate(spec)


def test_calibration_solves_the_instances_generate_gives(monkeypatch):
    # every solve goes through wspkit.solver.solve_backtracking, one per
    # sample and probed count, in bisection order and sample order
    import wspkit.solver

    seen = []
    original = wspkit.solver.solve_backtracking

    def recording(inst, *args, **kwargs):
        seen.append(inst)
        return original(inst, *args, **kwargs)

    monkeypatch.setattr(wspkit.solver, "solve_backtracking", recording)
    base = base_spec()
    cal = calibrate_pt(base, samples=20, band=BAND)
    probes = (0, 10, 5, 2, 1)   # seed-pinned bisection order
    assert cal.e_value in probes
    assert seen == [generate(replace(base, sod=count,
                                     seed=derive_seed(base.seed, i)))
                    for count in probes for i in range(20)]


# --- calibration cache ---------------------------------------------------------------


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("WSPKIT_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_cache_round_trip(cache_env):
    cal = PTCalibration(4, 0.55, 40)
    path = save_calibration(8, 80, "sod", cal, BAND, master_seed=123)
    assert path.parent == cache_env
    doc = json.loads(path.read_text())
    assert doc == {"k": 8, "n": 80, "family": "sod", "e_value": 4,
                   "sat_rate": 0.55, "samples": 40, "band": [0.25, 0.75],
                   "master_seed": 123}
    assert load_calibration(8, 80, "sod", 40, BAND, 123) == cal


def test_cache_misses(cache_env):
    assert load_calibration(8, 80, "sod", 40, BAND, 1) is None
    save_calibration(8, 80, "sod", PTCalibration(4, 0.5, 40), BAND, 1)
    assert load_calibration(8, 80, "sod", 40, BAND, 2) is None  # other seed
    assert load_calibration(8, 80, "sod", 80, BAND, 1) is None  # other samples
    assert load_calibration(8, 80, "sod", 40, (0.4, 0.6), 1) is None
    calibration_path(9, 80, "sod").write_text("not json")
    assert load_calibration(9, 80, "sod", 40, BAND, 1) is None


def test_malformed_cache_is_a_miss(cache_env):
    path = save_calibration(8, 80, "sod", PTCalibration(4, 0.5, 40), BAND, 1)
    good = json.loads(path.read_text())
    broken = [[1, 2], "text", None,
              {key: v for key, v in good.items() if key != "e_value"},
              {key: v for key, v in good.items() if key != "sat_rate"},
              {key: v for key, v in good.items() if key != "samples"},
              {**good, "sat_rate": 1.5},
              {**good, "sat_rate": "high"},
              {**good, "e_value": "4"},
              {**good, "e_value": -1},
              {**good, "e_value": True}]
    for doc in broken:
        path.write_text(json.dumps(doc))
        assert load_calibration(8, 80, "sod", 40, BAND, 1) is None, doc


@pytest.mark.parametrize("data", [b"[" * 100_000 + b"]" * 100_000,
                                  b'{"e_value": "\xff"}'],
                         ids=["nested", "not_ascii"])
def test_unparseable_cache_file_is_a_miss(cache_env, data):
    path = save_calibration(8, 80, "sod", PTCalibration(4, 0.5, 40), BAND, 1)
    path.write_bytes(data)
    assert load_calibration(8, 80, "sod", 40, BAND, 1) is None


def test_malformed_cache_triggers_a_fresh_calibration(cache_env):
    calibration_path(5, 8, "sod").write_text("[1, 2]")
    band = (0.01, 0.99)
    spec = family_spec("sod", 5, 8, samples=20, band=band)
    cached = load_calibration(5, 8, "sod", 20, band, derive_seed(5, 8))
    assert cached is not None and cached.e_value == spec.sod


def test_family_consults_the_cache(cache_env):
    # a planted cache entry is believed outright: no solving happens
    planted = PTCalibration(7, 0.5, 40)
    save_calibration(5, 8, "sod", planted, BAND, derive_seed(5, 8))
    spec = family_spec("sod", 5, 8, samples=40, band=BAND)
    assert spec.sod == 7


# --- benchmark families -----------------------------------------------------------------


def test_three_quarters_rounding_is_ties_down():
    assert [_round_three_quarters(e) for e in range(9)] == [
        0, 1, 1, 2, 3, 4, 4, 5, 6]


def test_family_requires_known_kind():
    with pytest.raises(InvariantError, match="kind"):
        family_spec("bod", 5, 8)


def test_sod_family_spec(cache_env):
    spec = family_spec("sod", 5, 8, samples=40, band=BAND)
    assert spec.counts() == {"sod": 2, "am3": 5, "sual": 0, "wl": 0, "ada": 0}
    assert calibration_path(5, 8, "sod").exists()


def test_sod_family_count_override_skips_calibration():
    # no cache dir involved at all: the override is used as-is
    spec = family_spec("sod", 5, 8, count_override=9, use_cache=False)
    assert spec.sod == 9 and spec.am3 == 5


def test_mixed_family_spec(cache_env):
    spec = family_spec("ada", 5, 8, samples=40, band=BAND)
    assert spec.am3 == 5
    assert spec.sod == _round_three_quarters(2)
    assert spec.ada == 1
    assert calibration_path(5, 8, "ada").exists()
    override = family_spec("ada", 5, 8, samples=40, band=BAND,
                           count_override=4)
    assert override.ada == 4 and override.sod == spec.sod


def test_wl_family_at_wider_n(cache_env):
    spec = family_spec("wl", 5, 16, samples=40, band=BAND)
    assert spec.wl >= 1 and spec.am3 == 5


def test_parallel_family_matches_serial(tmp_path, monkeypatch):
    # same counts and byte-identical cache files with one or two processes
    specs, files = [], []
    for jobs in (1, 2):
        cache = tmp_path / f"jobs{jobs}"
        monkeypatch.setenv("WSPKIT_CACHE_DIR", str(cache))
        specs.append(family_spec("wl", 5, 16, samples=20, band=BAND,
                                 jobs=jobs))
        files.append({p.name: p.read_bytes() for p in cache.iterdir()})
    assert specs[0] == specs[1]
    assert sorted(files[0]) == ["pt-k5-n16-sod.json", "pt-k5-n16-wl.json"]
    assert files[0] == files[1]


def test_import_leaves_the_process_pool_unloaded():
    # the pool is imported only when a calibration asks for jobs > 1
    code = ("import sys, wspkit, wspkit.cli; "
            "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(
                             sys.path)}).stdout
    assert out.strip() == "False"


def family_members(spec, master_seed, count):
    """The first `count` members of the family of `spec`."""
    return [family_draw(spec, master_seed, i)[0] for i in range(count)]


def test_family_stream_is_reproducible(cache_env):
    first = family_members(
        family_spec("sod", 5, 8, samples=40, band=BAND), 99, 4)
    second = family_members(
        family_spec("sod", 5, 8, samples=40, band=BAND), 99, 4)
    assert first == second
    assert len({inst.auth for inst in first}) > 1  # indices get fresh seeds
    for inst in first:
        assert len(inst.constraints) == 7  # 5 am3 + 2 sod
        assert sum(isinstance(c, AtMost) for c in inst.constraints) == 5


def test_family_stream_rate_sits_near_the_transition(cache_env):
    spec = family_spec("sod", 5, 8, samples=40, band=BAND)
    hits = sum(solve_backtracking(inst).verdict is Verdict.SAT
               for inst in family_members(spec, 2024, 40))
    assert 0.15 <= hits / 40 <= 0.85
