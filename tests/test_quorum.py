"""Quorum algebra tests. subcover's brute force is itself the oracle for the
closed-form bound and for the availability region; the general commit
condition over any acceptance pattern, the round-robin patterns and the
config range check below are reference oracles that only these tests use."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossword.assignment import ClusterParams, balanced_rr
from crossword.quorum import (
    AcceptancePattern,
    Config,
    c4_valid,
    candidate_configs,
    check_commit_rr,
    cover,
    multipaxos_config,
    nodes,
    rspaxos_config,
    subcover,
)


class InvalidConfigError(ValueError):
    pass


def check_config(config: Config, params: ClusterParams) -> Config:
    """Range validation: 1 <= c <= m and m <= q <= n. Availability under f
    failures is a separate, stronger predicate (c4_valid)."""
    if not 1 <= config.c <= params.m:
        raise InvalidConfigError(f"c={config.c} outside [1, {params.m}]")
    if not params.m <= config.q <= params.n:
        raise InvalidConfigError(f"q={config.q} outside [{params.m}, {params.n}]")
    return config


def subcover_rr_bound(q: int, c: int, f: int) -> int:
    """Lower bound on subcover for any q-reply pattern under balanced
    round-robin with c shards per server; met with equality when the
    replying servers are consecutive."""
    return q - f + c - 1


def check_commit_general(ap: AcceptancePattern, params: ClusterParams, f: int | None = None) -> bool:
    """Slot may commit iff >= m nodes accepted and any f of them can fail
    without dropping reachable coverage below d."""
    if f is None:
        f = params.f
    if nodes(ap) < params.m:
        return False
    return subcover(ap, f) >= params.scheme.d


def rspaxos_f(params: ClusterParams) -> int:
    return params.scheme.p // 2


def rr_pattern(params: ClusterParams, c: int, servers: list[int]) -> dict[int, frozenset[int]]:
    """Acceptance pattern in which each listed server vouches for its full
    balanced round-robin slice."""
    policy = balanced_rr(params, c)
    return {s: policy.shards_of(s) for s in servers}


def fs(*xs):
    return frozenset(xs)


def test_cover_counts_distinct_shards():
    ap = {0: fs(0, 1), 1: fs(1, 2), 4: fs(4, 0)}
    assert nodes(ap) == 3
    assert cover(ap) == 4


def test_subcover_four_singleton_replies():
    ap = {0: fs(0), 1: fs(1), 2: fs(2), 3: fs(3)}
    assert subcover(ap, 2) == 2
    assert subcover(ap, 0) == 4
    assert subcover(ap, 4) == 0


def test_subcover_closed_form_equality_on_consecutive_servers():
    params = ClusterParams.for_cluster(5)
    for q in range(3, 6):
        for c in range(1, 4):
            ap = rr_pattern(params, c, list(range(q)))
            for f in range(0, q):
                bound = subcover_rr_bound(q, c, f)
                got = subcover(ap, f)
                assert got == max(0, min(bound, cover(ap))) or got >= bound


def test_subcover_closed_form_is_lower_bound_all_patterns():
    params = ClusterParams.for_cluster(5)
    for q in range(3, 6):
        for c in range(1, 4):
            for servers in itertools.combinations(range(5), q):
                ap = rr_pattern(params, c, list(servers))
                for f in range(0, 3):
                    assert subcover(ap, f) >= min(
                        subcover_rr_bound(q, c, f), cover(ap)
                    )


def test_check_commit_general_multipaxos_shape():
    params = ClusterParams.for_cluster(5)
    ap = rr_pattern(params, 3, [0, 1, 2])
    assert check_commit_general(ap, params, f=2)


def test_check_commit_general_rspaxos_shape_fails_at_full_f():
    params = ClusterParams.for_cluster(5)
    ap = rr_pattern(params, 1, [0, 1, 2, 3])
    assert not check_commit_general(ap, params, f=2)
    assert check_commit_general(ap, params, f=rspaxos_f(params))


def test_too_few_nodes_never_commits():
    params = ClusterParams.for_cluster(5)
    ap = rr_pattern(params, 3, [0, 1])
    assert not check_commit_general(ap, params, f=0)


def test_config_validation():
    params = ClusterParams.for_cluster(5)
    check_config(Config(q=3, c=3), params)
    check_config(Config(q=4, c=1), params)  # in range even though not c4-safe
    with pytest.raises(InvalidConfigError):
        check_config(Config(q=2, c=3), params)
    with pytest.raises(InvalidConfigError):
        check_config(Config(q=3, c=4), params)
    with pytest.raises(InvalidConfigError):
        check_config(Config(q=6, c=1), params)


def test_check_commit_rr_counts_replies():
    cfg = Config(q=4, c=2)
    assert check_commit_rr(cfg, 4)
    assert check_commit_rr(cfg, 5)
    assert not check_commit_rr(cfg, 3)


def test_candidate_configs_lie_on_boundary_line():
    for n in (3, 5, 7, 9):
        params = ClusterParams.for_cluster(n)
        cands = candidate_configs(params)
        assert [c.q for c in cands] == list(range(params.m, n + 1))
        for cand in cands:
            assert cand.q + cand.c == n + 1
            assert 1 <= cand.c <= params.m
            assert c4_valid(cand, params)
        assert cands[0] == multipaxos_config(params)
        assert cands[-1] == Config(q=n, c=1)


def test_rspaxos_config_outside_region_except_n3():
    for n in (3, 5, 7, 9):
        params = ClusterParams.for_cluster(n)
        cfg = rspaxos_config(params)
        assert cfg.c == 1
        if n == 3:
            assert c4_valid(cfg, params)
        else:
            assert not c4_valid(cfg, params)


def test_region_formula_matches_brute_force_small():
    """The full n in {3,5,7,9} sweep is acceptance criterion 1; this keeps a
    quick n=3,5 cross-check in the unit suite."""
    for n in (3, 5):
        params = ClusterParams.for_cluster(n)
        f = n - params.m
        for q in range(params.m, n + 1):
            for c in range(1, params.m + 1):
                ok_all = all(
                    check_commit_general(rr_pattern(params, c, list(srv)), params, f=f)
                    for srv in itertools.combinations(range(n), q)
                )
                assert ok_all == c4_valid(Config(q=q, c=c), params), (n, q, c)


def test_unbalanced_commit_example():
    # 5 servers over an (8, 5) code (d = 5); heavier shares on the first
    # two followers
    d = 5
    params = ClusterParams.for_cluster(5)
    strong = {0: fs(0, 1, 2, 3, 4), 1: fs(0, 1, 2, 3, 4), 2: fs(3, 4, 5, 6, 7)}
    weak = {0: fs(0, 1, 2, 3, 4), 3: fs(5, 6, 7), 4: fs(7)}
    assert subcover(strong, 2) >= 5
    assert nodes(strong) >= params.m and subcover(strong, 2) >= d
    assert subcover(weak, 2) < d


def test_multipaxos_and_candidates_always_commit_at_full_f():
    for n in (3, 5, 7):
        params = ClusterParams.for_cluster(n)
        for cand in candidate_configs(params):
            for srv in itertools.combinations(range(n), cand.q):
                ap = rr_pattern(params, cand.c, list(srv))
                assert check_commit_general(ap, params, f=n - params.m)


@given(n=st.sampled_from([3, 5]), data=st.data())
def test_subcover_monotone_in_f(n, data):
    params = ClusterParams.for_cluster(n)
    c = data.draw(st.integers(1, params.m))
    servers = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    ap = rr_pattern(params, c, servers)
    vals = [subcover(ap, f) for f in range(0, len(servers) + 1)]
    assert vals == sorted(vals, reverse=True)
