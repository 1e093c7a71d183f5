"""Topology, domain, and deterministic stream contracts."""

from __future__ import annotations

import math
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothmas.core import (
    Domain,
    InvalidAgentError,
    InvalidArgumentError,
    InvalidTopologyError,
    Purpose,
    SeedSpec,
    Topology,
    UNIT_DOMAIN,
    as_state,
    box_domain,
    full_topology,
    ring_topology,
)

# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


def test_ring_of_ten_edges_and_neighbors():
    topo = ring_topology(10)
    assert topo.n == 10
    assert topo.edge_count == 20
    assert topo.neighbors(0) == (1, 9)
    assert topo.neighbors(5) == (4, 6)
    assert topo.neighbors(9) == (0, 8)


def test_ring_of_two_deduplicates_neighbors():
    topo = ring_topology(2)
    assert topo.neighbors(0) == (1,)
    assert topo.neighbors(1) == (0,)
    assert topo.edge_count == 2


def test_full_topology_neighbors():
    topo = full_topology(3)
    assert topo.neighbors(0) == (1, 2)
    assert topo.neighbors(1) == (0, 2)
    assert topo.neighbors(2) == (0, 1)
    assert topo.edge_count == 6


@pytest.mark.parametrize("factory", [ring_topology, full_topology])
@pytest.mark.parametrize("n", [-1, 0, 1])
def test_topologies_need_at_least_two_agents(factory, n):
    with pytest.raises(InvalidTopologyError):
        factory(n)


@pytest.mark.parametrize("factory", [ring_topology, full_topology])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_no_agent_is_its_own_neighbor(factory, n):
    topo = factory(n)
    for i in range(n):
        nbrs = topo.neighbors(i)
        assert i not in nbrs
        assert list(nbrs) == sorted(set(nbrs))


def test_topology_identity_depends_on_edges_only():
    edges = frozenset({(0, 2), (2, 0), (1, 0)})
    a, b = Topology(3, edges), Topology(3, frozenset(sorted(edges)))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == f"Topology(n=3, edges={edges!r})"
    assert a != Topology(3, edges | {(0, 1)})
    assert [a.neighbors(i) for i in range(3)] == [(2,), (0,), (0,)]
    assert [a.receivers(i) for i in range(3)] == [(1, 2), (), (0,)]
    # the cached adjacency stays out of identity: a topology that differs only
    # in its caches is still equal to, and hashes and prints like, the original
    c = Topology(3, edges)
    object.__setattr__(c, "_out_neighbors", ((), (), ()))
    object.__setattr__(c, "_in_neighbors", ((), (), ()))
    assert c == a and hash(c) == hash(a) and repr(c) == repr(a)


@pytest.mark.parametrize(
    "topo",
    [
        ring_topology(7),
        full_topology(5),
        Topology(5, frozenset({(0, 1), (0, 4), (2, 1), (3, 0), (4, 0), (4, 3)})),
    ],
    ids=["ring", "full", "irregular"],
)
def test_receivers_are_the_transpose_of_neighbors(topo):
    for j in range(topo.n):
        expected = tuple(i for i in range(topo.n) if j in topo.neighbors(i))
        assert topo.receivers(j) == expected
    assert sum(len(topo.receivers(j)) for j in range(topo.n)) == topo.edge_count


@pytest.mark.parametrize("agent", [-1, 5, 100])
def test_neighbors_rejects_unknown_agent(agent):
    topo = ring_topology(5)
    with pytest.raises(InvalidAgentError):
        topo.neighbors(agent)
    with pytest.raises(InvalidAgentError):
        topo.receivers(agent)


def test_topology_rejects_edges_to_unknown_agents():
    with pytest.raises(InvalidTopologyError):
        Topology(3, frozenset({(0, 7)}))


def test_topology_rejects_self_edges():
    with pytest.raises(InvalidTopologyError):
        Topology(3, frozenset({(1, 1)}))


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------


def _draws(seed: int, round_index: int, agent: int, purpose: Purpose, index: int, n: int):
    stream = SeedSpec(seed).stream(round_index, agent, purpose, index)
    return stream.uniforms(n)


def test_same_path_yields_identical_sequence():
    a = _draws(42, 3, 1, Purpose.TRANSMIT, 0, 64)
    b = _draws(42, 3, 1, Purpose.TRANSMIT, 0, 64)
    assert a == b


def test_fresh_stream_object_matches_previous_stream_object():
    spec = SeedSpec(7)
    first = spec.branch(0, 2, Purpose.DECIDE).stream(5)
    second = spec.branch(0, 2, Purpose.DECIDE).stream(5)
    xs = [first.next_uniform() for _ in range(10)]
    ys = [second.next_uniform() for _ in range(10)]
    assert xs == ys


def _correlation(xs, ys):
    mx = statistics.fmean(xs)
    my = statistics.fmean(ys)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


BASE_PATH = (1234, 7, 3, Purpose.TRANSMIT, 2)


@pytest.mark.parametrize(
    "other",
    [
        (1235, 7, 3, Purpose.TRANSMIT, 2),  # master seed differs
        (1234, 8, 3, Purpose.TRANSMIT, 2),  # round differs
        (1234, 7, 4, Purpose.TRANSMIT, 2),  # agent differs
        (1234, 7, 3, Purpose.VERIFY, 2),  # purpose differs
        (1234, 7, 3, Purpose.TRANSMIT, 3),  # stream index differs
    ],
)
def test_streams_on_distinct_paths_are_uncorrelated(other):
    n = 10_000
    xs = _draws(*BASE_PATH, n)
    ys = _draws(*other, n)
    assert xs != ys
    assert abs(_correlation(xs, ys)) < 0.05


def test_uniform_draws_live_in_unit_interval():
    stream = SeedSpec(0).stream(0, 0, Purpose.INIT, 0)
    draws = stream.uniforms(10_000)
    assert all(0.0 <= u < 1.0 for u in draws)
    assert abs(statistics.fmean(draws) - 0.5) < 0.02


def test_gaussian_draws_have_sane_moments():
    stream = SeedSpec(99).stream(1, 0, Purpose.VERIFY, 0)
    draws = [stream.next_gaussian() for _ in range(20_000)]
    assert abs(statistics.fmean(draws)) < 0.03
    assert abs(statistics.pstdev(draws) - 1.0) < 0.03
    assert all(math.isfinite(x) for x in draws)


def test_interleaved_draw_types_stay_deterministic():
    def run():
        stream = SeedSpec(5).stream(2, 1, Purpose.DECIDE, 4)
        out = []
        for _ in range(5):
            out.append(stream.next_uniform())
            out.append(stream.next_gaussian())
        return out

    assert run() == run()


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------


def test_clamp_pushes_points_back_into_the_box():
    dom = Domain((0.0, -1.0), (1.0, 1.0))
    assert dom.clamp((1.5, -2.0)) == (1.0, -1.0)
    assert dom.clamp((0.25, 0.5)) == (0.25, 0.5)
    assert dom.clamp((-0.1, 2.0)) == (0.0, 1.0)


def test_contains_checks_bounds_and_dimension():
    dom = Domain((0.0,), (1.0,))
    assert dom.contains((0.0,))
    assert dom.contains((1.0,))
    assert not dom.contains((1.0001,))
    assert not dom.contains((0.5, 0.5))


def test_unit_domain_shape():
    assert UNIT_DOMAIN.low == (0.0,)
    assert UNIT_DOMAIN.high == (1.0,)
    assert UNIT_DOMAIN.dimension == 1


def test_box_domain_starts_at_origin():
    dom = box_domain((2000.0, 2000.0, 1000.0))
    assert dom.low == (0.0, 0.0, 0.0)
    assert dom.high == (2000.0, 2000.0, 1000.0)
    assert dom.diagonal() == pytest.approx(3000.0)


def test_diagonal_is_euclidean_length():
    dom = Domain((0.0, 0.0), (3.0, 4.0))
    assert dom.diagonal() == pytest.approx(5.0)


def test_uniform_vector_is_inside_and_deterministic():
    dom = Domain((-1.0, 10.0), (1.0, 20.0))
    spec = SeedSpec(11)
    a = dom.uniform_vector(spec.stream(0, 0, Purpose.INIT, 0))
    b = dom.uniform_vector(spec.stream(0, 0, Purpose.INIT, 0))
    c = dom.uniform_vector(spec.stream(0, 1, Purpose.INIT, 0))
    assert a == b
    assert a != c
    assert dom.contains(a) and dom.contains(c)


@pytest.mark.parametrize(
    "low, high",
    [
        ((0.0,), (0.0,)),  # degenerate axis
        ((1.0,), (0.0,)),  # inverted axis
        ((0.0, 0.0), (1.0,)),  # length mismatch
        ((), ()),  # empty
        ((0.0,), (math.inf,)),  # non-finite bound
    ],
)
def test_domain_rejects_bad_bounds(low, high):
    with pytest.raises(InvalidArgumentError):
        Domain(low, high)


def test_int_bounds_become_floats():
    dom = Domain((0, -1), (1, 1))
    assert dom.low == (0.0, -1.0) and dom.high == (1.0, 1.0)
    clamped = dom.clamp([-0.5, 2.5])
    assert clamped == (0.0, 1.0)
    for x in dom.low + dom.high + clamped:
        assert type(x) is float


def test_clamp_rejects_dimension_mismatch():
    with pytest.raises(InvalidArgumentError):
        UNIT_DOMAIN.clamp((0.5, 0.5))


def test_as_state_coerces_and_validates():
    assert as_state([1, 2.5]) == (1.0, 2.5)
    with pytest.raises(InvalidArgumentError):
        as_state([])
    with pytest.raises(InvalidArgumentError):
        as_state([math.nan])


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=2**32),
)
def test_clamped_points_always_land_inside(vec, seed):
    dom = Domain((-1.0,) * len(vec), (1.0,) * len(vec))
    assert dom.contains(dom.clamp(vec))
