import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtree import (
    InvalidParameterError,
    NoParentsError,
    SizeLimitError,
    TreeGraph,
    edge_list_text,
    generate_chain,
    generate_dendrimer,
    generate_sft,
    generate_star,
    generate_vicsek,
    parse_edge_list_text,
    read_edge_list,
    structural_stats,
    write_edge_list,
)
from qtree.graphs import _grow_sft_parents, _sft_cdf, _uniform_rows

from conftest import validate_tree


def test_chain_smallest():
    g = generate_chain(2)
    assert g.edges() == [(0, 1)]
    assert g.degrees() == [1, 1]


def test_chain_three_functionalities():
    assert generate_chain(3).degrees() == [1, 2, 1]


def test_chain_100_structure():
    # independent oracle: the path graph is (i, i+1) edges by definition
    g = generate_chain(100)
    assert g.edges() == [(i, i + 1) for i in range(99)]
    st = structural_stats(g)
    assert st.n_leaves == 2
    assert st.avg_f_nonleaf == 2.0


def test_chain_rejects_n1():
    with pytest.raises(InvalidParameterError):
        generate_chain(1)


def test_star_equals_chain_at_n3():
    assert generate_star(3).edges() == [(0, 1), (0, 2)]
    # same graph as the 3-chain up to relabeling; same degree multiset
    assert sorted(generate_star(3).degrees()) == sorted(generate_chain(3).degrees())


def test_star_functionalities():
    assert generate_star(4).degrees() == [3, 1, 1, 1]


def test_star5_stats_hand_count():
    st = structural_stats(generate_star(5))
    assert st.n_leaves == 4
    assert st.n_parents == 1
    assert st.per_node_delta == (-1,)
    assert st.avg_f_minus_delta_parents == 5.0
    assert st.avg_f_nonleaf == 4.0


def test_star_rejects_n1():
    with pytest.raises(InvalidParameterError):
        generate_star(1)


def test_dendrimer_generation_one_is_star():
    assert generate_dendrimer(3, 1).edges() == generate_star(4).edges()


def test_dendrimer_f3_g2_hand_count():
    g = generate_dendrimer(3, 2)
    assert g.n == 10
    # breadth-first indexing: core 0, ring 1-3, leaves 4-9
    assert g.edges() == [
        (0, 1), (0, 2), (0, 3),
        (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9),
    ]
    st = structural_stats(g)
    assert st.n_leaves == 6
    assert st.n_parents == 3
    assert st.per_node_delta == (0, 0, 0)
    assert st.avg_f_nonleaf == 3.0
    assert st.avg_f_minus_delta_parents == 3.0


def test_dendrimer_node_count_closed_form():
    for f, g in [(3, 4), (4, 3), (5, 2), (3, 8)]:
        tree = generate_dendrimer(f, g)
        assert tree.n == 1 + f * ((f - 1) ** g - 1) // (f - 2)
        assert validate_tree(tree) is None
    assert generate_dendrimer(4, 3).n == 53


def test_dendrimer_size_limit():
    with pytest.raises(SizeLimitError):
        generate_dendrimer(3, 20)  # 3 145 726 nodes
    # a count of thousands of digits is too long for str(); the message says so
    with pytest.raises(SizeLimitError, match="more than 2\\^64 nodes"):
        generate_dendrimer(3, 20_000)


def test_dendrimer_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        generate_dendrimer(2, 3)
    with pytest.raises(InvalidParameterError):
        generate_dendrimer(3, 0)


def test_vicsek_generation_one_is_star():
    assert generate_vicsek(4, 1).edges() == generate_star(5).edges()


def test_vicsek_node_counts():
    for f, g in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]:
        tree = generate_vicsek(f, g)
        assert tree.n == (f + 1) ** g
        assert validate_tree(tree) is None
    assert generate_vicsek(4, 3).n == 125


def test_vicsek_f3_g2_structure():
    g = generate_vicsek(3, 2)
    assert g.n == 16
    assert len(g.edges()) == 15
    assert validate_tree(g) is None
    st = structural_stats(g)
    # hand count: three sub-star centers keep two free leaves each
    assert st.n_leaves == 6
    assert st.n_parents == 3
    assert st.avg_f_nonleaf == pytest.approx(2.4)


def test_vicsek_f3_g2_golden_edge_list():
    # locks the breadth-first relabeling so written files stay stable
    expected = "\n".join(
        ["# qtree-format=1", "# label=vicsek(f=3,g=2)", "16",
         "0 1", "0 2", "0 3", "1 4", "2 5", "3 6", "4 7", "5 8", "6 9",
         "7 10", "7 11", "8 12", "8 13", "9 14", "9 15"]
    ) + "\n"
    assert edge_list_text(generate_vicsek(3, 2)) == expected


EDGE_LIST_SHA256 = {
    "chain(50)": (lambda: generate_chain(50),
                  "f38a22d2b923133156fc917c5d7a63dd61f75a06bf8f5541b6795d23dc1b588b"),
    "star(50)": (lambda: generate_star(50),
                 "45be3480e7fe2ed3e60a08f8e43a2f89e50f8d64f4be69cf74b7856839327a71"),
    "dendrimer(3,6)": (lambda: generate_dendrimer(3, 6),
                       "defd21176a16d0928f8936978ca922093677f0b0863a90ebf6965cd48065afd1"),
    "dendrimer(4,4)": (lambda: generate_dendrimer(4, 4),
                       "7d36cc254e72a973c8640aa67b52dfa4f600ec429b50616fc2a050fef18e8f24"),
    "vicsek(3,3)": (lambda: generate_vicsek(3, 3),
                    "c91dabe9a66e916f5efe450ed9d87cd5812c064cb908e47feccc350b69f0174b"),
    "vicsek(4,3)": (lambda: generate_vicsek(4, 3),
                    "d8791d44a8690f596968ad7cbae286b4713c2e1ab4a3a3e7085fb7d05a89bf4f"),
    "vicsek(5,2)": (lambda: generate_vicsek(5, 2),
                    "25ec68e9a606716f8f48253e96968f3b028e97e63b8f8a7725f031b2284a4675"),
    "sft(1000,2.5,seed=7)": (lambda: generate_sft(1000, 2.5, seed=7),
                             "413dc1ea0459805bffb0657e8c95d1b78b9c9ab63ce1a244318179d8c6014a08"),
    "sft(4000,2.2,seed=3)": (lambda: generate_sft(4000, 2.2, seed=3),
                             "307b32354f0c894f809197aa4653411f6d9b3b61f84932f1a81008563eda9fdf"),
}


@pytest.mark.parametrize("name", EDGE_LIST_SHA256)
def test_generated_edge_list_golden_sha256(name):
    # written files stay byte-stable across changes to the tree representation
    make, digest = EDGE_LIST_SHA256[name]
    assert hashlib.sha256(edge_list_text(make()).encode()).hexdigest() == digest


def test_vicsek_nonleaf_average_approaches_limit():
    # (f + 4)/3 for the non-leaf average, f for the parent average
    st = structural_stats(generate_vicsek(4, 4))
    assert st.avg_f_nonleaf == pytest.approx(8 / 3, rel=2e-3)
    assert st.avg_f_parents == pytest.approx(4.0, abs=1e-12)


def test_vicsek_size_limit():
    with pytest.raises(SizeLimitError):
        generate_vicsek(4, 10)  # 9 765 625 nodes
    with pytest.raises(SizeLimitError, match="more than 2\\^64 nodes"):
        generate_vicsek(3, 20_000)


def test_sft_n3_is_path():
    for s in (1.5, 2.5, 6.0):
        g = generate_sft(3, s, seed=11)
        assert sorted(g.degrees()) == [1, 1, 2]
        assert validate_tree(g) is None


def test_sft_large_is_tree():
    g = generate_sft(10_000, 2.5, seed=424242)
    assert len(g.edges()) == 9999
    assert validate_tree(g) is None


def test_sft_reproducible():
    a = generate_sft(500, 2.5, seed=99)
    b = generate_sft(500, 2.5, seed=99)
    assert a == b
    c = generate_sft(500, 2.5, seed=100)
    assert a.edges() != c.edges()


def test_sft_parameter_validation():
    with pytest.raises(InvalidParameterError):
        generate_sft(2, 2.5)
    with pytest.raises(InvalidParameterError):
        generate_sft(10, 1.0)
    with pytest.raises(InvalidParameterError):
        generate_sft(10, 2.5, f_max=10)
    with pytest.raises(InvalidParameterError):
        generate_sft(10, 2.5, f_max=1)
    for s in (float("inf"), float("nan")):
        with pytest.raises(InvalidParameterError, match="finite"):
            generate_sft(10, s)


def test_sft_realized_functionality_matches_power_law_mean():
    # ensemble mean of the realized non-leaf functionality against the
    # truncated power-law average sum(f^(1-s)) / sum(f^(-s)); agreement
    # tightens as s grows because truncation effects fade
    n, f_max, seeds = 1000, 999, 200

    def realized_mean(s):
        vals = []
        for seed in range(seeds):
            st = structural_stats(generate_sft(n, s, f_max, seed=seed))
            vals.append(st.avg_f_nonleaf)
        return sum(vals) / seeds

    def analytic(s):
        num = sum(f ** (1.0 - s) for f in range(2, f_max + 1))
        den = sum(f ** (-s) for f in range(2, f_max + 1))
        return num / den

    rels = {
        s: abs(realized_mean(s) - analytic(s)) / analytic(s) for s in (2.2, 3.0, 4.0)
    }
    assert rels[4.0] < 0.01
    assert rels[3.0] < 0.02
    assert rels[4.0] < rels[3.0] < rels[2.2]


@pytest.mark.parametrize("seed", range(40))
def test_sft_structural_identities(seed):
    # N_P = N_L/(avg(f-delta)-1) and N_L = N - (N-2)/(avg_f_nonleaf-1)
    g = generate_sft(200, 2.1 + (seed % 20) * 0.1, seed=seed)
    st = structural_stats(g)
    assert st.n_parents == pytest.approx(
        st.n_leaves / (st.avg_f_minus_delta_parents - 1.0), abs=1e-12
    )
    assert st.n_leaves == pytest.approx(
        g.n - (g.n - 2) / (st.avg_f_nonleaf - 1.0), abs=1e-12
    )


def test_structural_identities_deterministic_families():
    graphs = [
        generate_chain(64),
        generate_star(64),
        generate_dendrimer(3, 5),
        generate_vicsek(4, 3),
        generate_vicsek(3, 4),
    ]
    for g in graphs:
        st = structural_stats(g)
        assert st.n_parents * (st.avg_f_minus_delta_parents - 1.0) == pytest.approx(
            st.n_leaves, abs=1e-10
        )
        assert 2 <= st.n_leaves <= g.n - 1


def test_leaf_count_boundaries():
    assert structural_stats(generate_chain(50)).n_leaves == 2
    assert structural_stats(generate_star(50)).n_leaves == 49


def test_stats_rejects_no_parents():
    with pytest.raises(NoParentsError):
        structural_stats(generate_chain(2))


def test_delta_is_at_least_minus_one():
    for g in [generate_star(9), generate_chain(9), generate_sft(300, 2.3, seed=5)]:
        st = structural_stats(g)
        assert all(d >= -1 for d in st.per_node_delta)


def test_validate_tree_ok():
    assert validate_tree(generate_chain(5)) is None


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("5\n0 1\n1 2\n2 0\n3 4\n", id="cycle"),
        pytest.param("5\n0 1\n1 2\n2 3\n3 1\n", id="cycle-away-from-0"),
        pytest.param("4\n0 1\n2 3\n2 3\n", id="repeated-edge"),
        pytest.param("3\n0 0\n1 2\n", id="self-loop"),
        pytest.param("4\n0 1\n1 2\n3 3\n", id="self-loop-isolated"),
        pytest.param("4\n0 1\n1 0\n2 3\n", id="disconnected"),
    ],
)
def test_parse_refuses_edge_lists_that_are_not_trees(text):
    # with n - 1 edges, each of these leaves some node unreached from node 0
    with pytest.raises(InvalidParameterError, match="not connected to node 0"):
        parse_edge_list_text(text)


@pytest.mark.parametrize(
    "parents, problem",
    [
        ((), "root"),
        ((0, 0), "root"),
        ((-1, 1), "not an earlier node"),
        ((-1, 0, 3, 1), "not an earlier node"),
        ((-1, 0, -1), "not an earlier node"),
        ((-1, 0, 1, 0), "breadth-first order"),
        ((-1, 0, 0, 2, 1), "breadth-first order"),
    ],
)
def test_validate_tree_refuses_bad_parent_arrays(parents, problem):
    assert problem in validate_tree(TreeGraph(parents))


def test_parse_renumbers_breadth_first_from_node_zero():
    # star centered at node 3, listed in no particular order
    g = parse_edge_list_text("5\n3 4\n1 3\n0 3\n3 2\n")
    assert g.parents == (-1, 0, 1, 1, 1)
    assert validate_tree(g) is None
    assert structural_stats(g).parent_ids == (1,)


def test_edge_list_round_trip(tmp_path):
    g = generate_sft(80, 2.7, seed=3)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back == g
    # writing the parsed graph reproduces the file byte for byte
    assert edge_list_text(back) == path.read_text(encoding="utf-8")


def test_edge_list_header_and_label(tmp_path):
    text = edge_list_text(generate_star(4))
    assert text.splitlines()[0] == "# qtree-format=1"
    assert "# label=star(n=4)" in text
    assert parse_edge_list_text(text).label == "star(n=4)"


def test_edge_list_rejects_corrupt_input():
    with pytest.raises(InvalidParameterError):
        parse_edge_list_text("3\n0 1\n")  # missing an edge
    with pytest.raises(InvalidParameterError):
        parse_edge_list_text("4\n0 1\n2 3\n1 2\n0 3\n")  # one edge too many
    with pytest.raises(InvalidParameterError):
        parse_edge_list_text("2\n0 5\n")


def test_generated_families_all_validate():
    graphs = [
        generate_chain(17),
        generate_star(17),
        generate_dendrimer(4, 3),
        generate_vicsek(5, 2),
        generate_sft(400, 3.2, seed=8),
    ]
    for g in graphs:
        assert validate_tree(g) is None
        degs = g.degrees()
        assert all(1 <= d <= g.n - 1 for d in degs)
        assert sum(degs) == 2 * (g.n - 1)


# --- reference loop implementations ------------------------------------------
#
# The per-tree code the array kernels replaced, kept as the oracle: the
# kernels must reproduce it exactly.

def _reference_sft_parents(n, s, f_max, seed):
    rng = np.random.default_rng(seed)
    support = np.arange(2, f_max + 1, dtype=np.float64)
    cdf = np.cumsum(support ** (-float(s)))
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    targets = 2 + np.searchsorted(cdf, rng.random(n), side="right")
    capacity = targets.astype(np.int64)
    capacity[1:] -= 1
    return np.searchsorted(np.cumsum(capacity), np.arange(n - 1), side="right")


def _reference_stats(g):
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.edges():
        nbrs[u].append(v)
        nbrs[v].append(u)
    deg = [len(a) for a in nbrs]
    is_leaf = [d == 1 for d in deg]
    leaf_ids = tuple(j for j in range(g.n) if is_leaf[j])
    parent_ids = tuple(
        j for j in range(g.n) if not is_leaf[j] and any(is_leaf[v] for v in nbrs[j])
    )
    deltas = tuple(sum(1 for v in nbrs[j] if not is_leaf[v]) - 1 for j in parent_ids)
    sum_f_parents = sum(deg[j] for j in parent_ids)
    return (
        len(leaf_ids),
        len(parent_ids),
        (2 * (g.n - 1) - len(leaf_ids)) / (g.n - len(leaf_ids)),
        (sum_f_parents - sum(deltas)) / len(parent_ids),
        sum_f_parents / len(parent_ids),
        deltas,
        leaf_ids,
        parent_ids,
    )


SFT_CASES = [(3, 2.5, 2), (5, 2.2, 4), (60, 2.5, 2), (100, 2.2, 99), (100, 4.0, 99),
             (200, 9.0, 199), (1000, 1.4, 30), (5000, 2.6, 4999)]


@pytest.mark.parametrize("n, s, f_max", SFT_CASES)
def test_sft_matches_reference_growth(n, s, f_max):
    for seed in (0, 7, 2**64 - 1):
        g = generate_sft(n, s, f_max, seed)
        expected = _reference_sft_parents(n, s, f_max, seed)
        assert g.edges() == sorted((int(p), c) for c, p in enumerate(expected, start=1))
        assert validate_tree(g) is None


@pytest.mark.parametrize("n, s, f_max", SFT_CASES)
def test_sft_block_rows_do_not_depend_on_grouping(n, s, f_max):
    seeds = [3, 1, 4, 1, 5, 9, 2, 6]
    block = _grow_sft_parents(_sft_cdf(n, s, f_max), n, seeds)
    assert block.shape == (len(seeds), n - 1)
    for row, seed in zip(block, seeds):
        assert np.array_equal(row, _reference_sft_parents(n, s, f_max, seed))


SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), max_size=12),
       n=st.integers(3, 300),
       cuts=st.lists(st.integers(0, 17), max_size=4))
def test_uniform_rows_equal_default_rng_in_any_grouping(seeds, n, cuts):
    # the block hashes NumPy's seeding itself; the reference is NumPy's own generator
    seeds = SEED_EDGES + seeds
    bounds = sorted({0, len(seeds), *(min(c, len(seeds)) for c in cuts)})
    block = np.concatenate([_uniform_rows(seeds[a:b], n) for a, b in zip(bounds, bounds[1:])])
    assert block.shape == (len(seeds), n)
    for row, seed in zip(block, seeds):
        assert np.array_equal(row, np.random.default_rng(seed).random(n)), seed


def test_structural_stats_matches_loop_reference():
    graphs = [generate_chain(3), generate_chain(40), generate_star(3), generate_star(30),
              generate_dendrimer(3, 4), generate_dendrimer(5, 2), generate_vicsek(3, 3),
              generate_vicsek(4, 2)]
    graphs += [generate_sft(n, s, seed=seed) for n, s, _ in SFT_CASES for seed in (1, 2)]
    for g in graphs:
        got = structural_stats(g)
        assert (
            got.n_leaves, got.n_parents, got.avg_f_nonleaf, got.avg_f_minus_delta_parents,
            got.avg_f_parents, got.per_node_delta, got.leaf_ids, got.parent_ids,
        ) == _reference_stats(g), g.label


# --- edge-list parser properties ---------------------------------------------

FAMILIES = st.one_of(
    st.integers(2, 60).map(generate_chain),
    st.integers(2, 60).map(generate_star),
    st.tuples(st.integers(3, 5), st.integers(1, 3)).map(lambda fg: generate_dendrimer(*fg)),
    st.tuples(st.integers(3, 5), st.integers(1, 2)).map(lambda fg: generate_vicsek(*fg)),
    st.builds(generate_sft, st.integers(3, 120), st.floats(1.05, 8.0),
              seed=st.integers(0, 2**64 - 1)),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(FAMILIES)
def test_edge_list_text_round_trips_every_family(g):
    assert parse_edge_list_text(edge_list_text(g)) == g


EDGE_LIST_LIKE = st.lists(
    st.one_of(
        st.text(max_size=12),
        st.integers(-3, 8).map(str),
        st.tuples(st.integers(-2, 8), st.integers(-2, 8)).map(lambda e: f"{e[0]} {e[1]}"),
        st.sampled_from(["# label=x", "# qtree-format=1", "#", "=", " "]),
    ),
    max_size=12,
).map("\n".join)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.text(), EDGE_LIST_LIKE))
def test_parse_edge_list_text_accepts_or_refuses_cleanly(text):
    try:
        g = parse_edge_list_text(text)
    except InvalidParameterError:
        return
    assert isinstance(g, TreeGraph)
    assert validate_tree(g) is None
