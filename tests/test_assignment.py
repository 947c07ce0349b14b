import pytest

from crossword.assignment import ClusterParams, InvalidParameterError, balanced_rr, slot_policy


def test_cluster_params_factory():
    p = ClusterParams.for_cluster(5)
    assert (p.n, p.m, p.f) == (5, 3, 2)
    assert (p.scheme.n_shards, p.scheme.d, p.scheme.p) == (5, 3, 2)
    with pytest.raises(InvalidParameterError):
        ClusterParams.for_cluster(4)
    with pytest.raises(InvalidParameterError):
        ClusterParams.for_cluster(1)


def test_balanced_rr_c1():
    pol = balanced_rr(ClusterParams.for_cluster(5), 1)
    assert [sorted(s) for s in pol.per_server] == [[0], [1], [2], [3], [4]]


def test_balanced_rr_c2_wraps():
    pol = balanced_rr(ClusterParams.for_cluster(5), 2)
    assert sorted(pol.shards_of(4)) == [0, 4]
    assert sorted(pol.shards_of(0)) == [0, 1]


def test_balanced_rr_c3_majority():
    pol = balanced_rr(ClusterParams.for_cluster(5), 3)
    assert sorted(pol.shards_of(3)) == [0, 3, 4]
    # every shard appears on exactly c servers
    counts = {j: 0 for j in range(5)}
    for s in range(5):
        for j in pol.shards_of(s):
            counts[j] += 1
    assert all(v == 3 for v in counts.values())


def test_balanced_rr_c_range():
    params = ClusterParams.for_cluster(5)
    with pytest.raises(InvalidParameterError):
        balanced_rr(params, 0)
    with pytest.raises(InvalidParameterError):
        balanced_rr(params, 4)


@pytest.mark.parametrize("n", [3, 5])
def test_slot_policy_full_copies_from_d(n):
    params = ClusterParams.for_cluster(n)
    d = params.scheme.d
    for c in range(1, d):
        assert slot_policy(params, c) == balanced_rr(params, c)
    policy = slot_policy(params, d)
    assert policy.per_server == (frozenset(range(d)),) * n
    # d shards per server, as round-robin gives at c = d
    assert [len(s) for s in policy.per_server] == [len(s) for s in balanced_rr(params, d).per_server]
    assert slot_policy(params, d) is slot_policy(params, d)
    with pytest.raises(InvalidParameterError):
        slot_policy(params, d + 1)
    with pytest.raises(InvalidParameterError):
        slot_policy(params, 0)
