import dataclasses
import functools
import hashlib
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtree import (
    InvalidParameterError,
    NoParentsError,
    SizeLimitError,
    StructuralStats,
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
)
from qtree.graphs import (
    _BLOCK,
    MAX_NODES_DEFAULT,
    _BUCKETS,
    _bfs_parents,
    _count_sft_trees,
    _draw_functionalities,
    _edge_list_parts,
    _grow_sft_ends,
    _guide_table,
    _parent_arrays,
    _pcg64_states,
    _sft_cdf,
    _sft_slot_counts,
    _uniform_rows,
    write_text_atomic,
)

from conftest import (
    count_leaves_and_parents_reference,
    edge_list_text_reference,
    parse_edge_list_text_reference,
    validate_tree,
)


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
    assert st.avg_f_parents == 4.0
    assert st.avg_f_minus_delta_parents == 5.0  # the center's delta is -1
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
    assert st.avg_f_nonleaf == 3.0
    assert st.avg_f_parents == st.avg_f_minus_delta_parents == 3.0  # every delta is 0


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


def test_edge_list_across_parts_equals_the_one_percent_reference():
    # two edges more than two parts of _BLOCK // 2 hold, so the lines cross two part ends
    g = generate_sft(_BLOCK + 3, 2.5, seed=5)
    parts = list(_edge_list_parts(g))
    assert [part.count("\n") for part in parts] == [3, _BLOCK // 2, _BLOCK // 2, 2]
    assert edge_list_text(g) == "".join(parts) == edge_list_text_reference(g)


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
    # the record keeps delta's mean over the parents, avg f - avg (f - delta)
    for g in [generate_star(9), generate_chain(9), generate_sft(300, 2.3, seed=5)]:
        st = structural_stats(g)
        assert st.avg_f_parents - st.avg_f_minus_delta_parents >= -1 - 1e-12


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
    assert g.parents.tolist() == [-1, 0, 1, 1, 1]
    assert validate_tree(g) is None
    assert structural_stats(g).n_parents == 1


def test_edge_list_round_trip(tmp_path):
    g = generate_sft(80, 2.7, seed=3)
    path = tmp_path / "g.edges"
    write_text_atomic(path, edge_list_text(g))
    back = read_edge_list(path)
    assert back == g
    # writing the parsed graph reproduces the file byte for byte
    assert edge_list_text(back) == path.read_text(encoding="utf-8")


def test_write_text_atomic_writes_one_str_whole_and_parts_in_order(tmp_path, monkeypatch):
    written = []

    class RecordingFile:
        def __init__(self, file):
            self.file = file

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, part):
            written.append(part)
            return self.file.write(part)

        def writelines(self, parts):
            for part in parts:
                self.write(part)

    monkeypatch.setattr("qtree.graphs.open", lambda *a, **kw: RecordingFile(open(*a, **kw)),
                        raising=False)
    path = tmp_path / "out.txt"
    write_text_atomic(path, "one\ntext\n")
    assert written == ["one\ntext\n"]
    written.clear()
    write_text_atomic(path, (part for part in ["a,", "b\n", "", "c\n"]))
    assert written == ["a,", "b\n", "", "c\n"]
    assert path.read_text(encoding="utf-8") == "a,b\nc\n"


def test_write_text_atomic_keeps_the_old_text_when_a_part_fails(tmp_path):
    path = tmp_path / "out.txt"
    write_text_atomic(path, "old\n")

    def parts():
        yield "new\n"
        raise MemoryError

    with pytest.raises(MemoryError):
        write_text_atomic(path, parts())
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def _relabelled_text(g):
    """An edge list of g with node v named n - 1 - v, so it is read through `_bfs_parents`."""
    return f"{g.n}\n" + "".join(f"{g.n - 1 - v} {g.n - 1 - u}\n" for u, v in g.edges())


TREE_SOURCES = {
    "chain": lambda: generate_chain(9),
    "star": lambda: generate_star(6),
    "dendrimer": lambda: generate_dendrimer(3, 3),
    "vicsek": lambda: generate_vicsek(3, 2),
    "sft": lambda: generate_sft(60, 2.5, seed=2),
    "reader, as written": lambda: parse_edge_list_text(edge_list_text(generate_sft(60, 2.5))),
    "reader, relabelled": lambda: parse_edge_list_text(_relabelled_text(generate_dendrimer(3, 3))),
    "bfs_parents": lambda: TreeGraph(_bfs_parents(5, np.array([3, 3, 0, 3]), np.array([4, 1, 3, 2])),
                                     "star centered at node 3"),
}


@pytest.mark.parametrize("make", TREE_SOURCES.values(), ids=TREE_SOURCES.keys())
def test_tree_parents_are_one_read_only_int64_array_compared_by_value(make):
    g = make()
    assert g.parents.dtype == np.int64
    assert not g.parents.flags.writeable
    with pytest.raises(ValueError):
        g.parents[1] = 0
    as_tuple = TreeGraph(tuple(g.parents.tolist()), g.label)
    source = np.array(g.parents)
    as_array = TreeGraph(source, g.label)
    source[1:] = 0  # the graph holds its own copy
    assert as_tuple == as_array == g
    assert hash(as_tuple) == hash(as_array) == hash(g)
    assert g != TreeGraph(g.parents, g.label + "x")
    back = pickle.loads(pickle.dumps(g))
    assert back == g and not back.parents.flags.writeable


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
    leaf_ids = [j for j in range(g.n) if is_leaf[j]]
    parent_ids = [j for j in range(g.n) if not is_leaf[j] and any(is_leaf[v] for v in nbrs[j])]
    deltas = [sum(1 for v in nbrs[j] if not is_leaf[v]) - 1 for j in parent_ids]
    assert all(d >= -1 for d in deltas)
    sum_f_parents = sum(deg[j] for j in parent_ids)
    return StructuralStats(
        n=g.n,
        n_leaves=len(leaf_ids),
        n_parents=len(parent_ids),
        avg_f_nonleaf=(2 * (g.n - 1) - len(leaf_ids)) / (g.n - len(leaf_ids)),
        avg_f_minus_delta_parents=(sum_f_parents - sum(deltas)) / len(parent_ids),
        avg_f_parents=sum_f_parents / len(parent_ids),
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


def _grown_at_once(cdf, n, seeds):
    """The running slot sums of the trees of all seeds, grown as one block."""
    (sums,) = _grow_sft_ends(cdf, n, seeds, len(seeds))
    return sums


@pytest.mark.parametrize("n, s, f_max", SFT_CASES)
def test_sft_block_rows_do_not_depend_on_grouping(n, s, f_max):
    seeds = [3, 1, 4, 1, 5, 9, 2, 6]
    expected = [_reference_sft_parents(n, s, f_max, seed) for seed in seeds]
    for size in (1, 3, 8, 20):
        blocks = list(_grow_sft_ends(_sft_cdf(s, f_max), n, seeds, size))
        assert [b.shape for b in blocks] == [(min(size, 8 - k), n) for k in range(0, 8, size)]
        # a running sum restarts at each block, so each block is read on its own
        for row, parents in zip(np.concatenate([_parent_arrays(b) for b in blocks]), expected):
            assert row[0] == -1
            assert np.array_equal(row[1:], parents), size


SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), max_size=12),
       n=st.integers(3, 300),
       cuts=st.lists(st.integers(0, 17), max_size=4),
       size=st.integers(1, 18))
def test_uniform_rows_equal_default_rng_in_any_grouping(seeds, n, cuts, size):
    # each call hashes NumPy's seeding itself; the reference is NumPy's own generator
    seeds = SEED_EDGES + seeds
    bounds = sorted({0, len(seeds), *(min(c, len(seeds)) for c in cuts)})
    blocks = [rows for a, b in zip(bounds, bounds[1:])
              for rows in _uniform_rows(seeds[a:b], n, size)]
    assert all(1 <= len(rows) <= size for rows in blocks)
    block = np.concatenate(blocks)
    assert block.shape == (len(seeds), n)
    for row, seed in zip(block, seeds):
        assert np.array_equal(row, np.random.default_rng(seed).random(n)), seed


def test_pcg64_states_equal_numpy_seeding():
    # random seeds take both carries of the 128-bit additions about half the time each
    seeds = np.random.default_rng(16).integers(0, 2**64, size=2000, dtype=np.uint64, endpoint=False)
    for seed, words in zip(seeds.tolist(), _pcg64_states(seeds).tolist()):
        state = np.random.PCG64(seed).state["state"]
        assert words == [state["state"] % 2**64, state["state"] >> 64,
                         state["inc"] % 2**64, state["inc"] >> 64], seed


def _assert_stats_equal(got, expected, label=""):
    # field by field, with the reference's Python types
    for field in dataclasses.fields(expected):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        assert a == b and type(a) is type(b), (label, field.name)


def test_structural_stats_matches_loop_reference():
    # chain(3) has a root of functionality 1
    graphs = [generate_chain(3), generate_chain(40), generate_star(3), generate_star(30),
              generate_dendrimer(3, 4), generate_dendrimer(5, 2), generate_vicsek(3, 3),
              generate_vicsek(4, 2)]
    graphs += [generate_sft(g.n, 2.5, seed=seed) for g in graphs for seed in (3, 4)]
    graphs += [generate_sft(n, s, seed=seed) for n, s, _ in SFT_CASES for seed in (1, 2)]
    for g in graphs:
        _assert_stats_equal(structural_stats(g), _reference_stats(g), g.label)


@st.composite
def _breadth_first_trees(draw):
    """Any tree on 1..80 nodes as a breadth-first parent array: parents[v] < v, nondecreasing."""
    parents = [-1]
    for v in range(1, draw(st.integers(1, 80))):
        parents.append(draw(st.integers(max(parents[-1], 0), v - 1)))
    return TreeGraph(parents)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_breadth_first_trees())
def test_structural_stats_matches_loop_reference_on_any_tree(g):
    try:
        expected = _reference_stats(g)
    except ZeroDivisionError:  # no parents
        with pytest.raises(NoParentsError):
            structural_stats(g)
        return
    _assert_stats_equal(structural_stats(g), expected)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(g=_breadth_first_trees(), block=st.integers(2, 9))
def test_edge_list_parts_of_any_size_equal_the_reference(g, block):
    # parts of 1 to 4 edges end just before, at and past the last edge
    with mock.patch("qtree.graphs._BLOCK", block):
        parts = list(_edge_list_parts(g))
    assert all(part.count("\n") == block // 2 for part in parts[1:-1])
    assert "".join(parts) == edge_list_text_reference(g)


DRAW_S = (1.4, 2.2, 2.6, 9.0, 1074)  # 1074: the CDF is 1.0 throughout
DRAW_F_MAX = (2, 4, 99, 4999, 200_000)  # 200 000: thousands of entries in the top bucket


@functools.cache
def _draw_cdf(s, f_max):
    return _sft_cdf(s, f_max)


@pytest.mark.parametrize("f_max", DRAW_F_MAX)
@pytest.mark.parametrize("s", DRAW_S)
def test_draw_functionalities_equals_searchsorted_at_every_edge(s, f_max):
    cdf = _draw_cdf(s, f_max)
    edges = np.arange(_BUCKETS) / _BUCKETS
    u = np.concatenate((cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 1),
                        edges, np.nextafter(edges, 0), [0.0, 1 - 2.0**-53]))
    u = u[(u >= 0) & (u < 1)]
    table = _guide_table(cdf)
    got = _draw_functionalities(cdf, table, u.copy())  # the draws are scaled in place
    assert np.array_equal(got, np.searchsorted(cdf, u, side="right") + 1)
    block = u[: len(u) // 4 * 4].reshape(4, -1)  # a block of rows draws as its flat draws do
    assert np.array_equal(_draw_functionalities(cdf, table, block.copy()),
                          got[: block.size].reshape(4, -1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(s=st.sampled_from(DRAW_S), f_max=st.sampled_from(DRAW_F_MAX),
       u=st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=50))
def test_draw_functionalities_equals_searchsorted(s, f_max, u):
    cdf = _draw_cdf(s, f_max)
    u = np.array(u)
    assert np.array_equal(_draw_functionalities(cdf, _guide_table(cdf), u.copy()),
                          np.searchsorted(cdf, u, side="right") + 1)


def _assert_closed_form_counts(n, s, f_max, seeds, block=None):
    # the closed form against bincount counting of the same trees' parent arrays, field by
    # field; each block's running sum is read on its own
    blocks = list(_grow_sft_ends(_sft_cdf(s, f_max), n, seeds, block or len(seeds)))
    got = _count_sft_trees(n, np.concatenate([_sft_slot_counts(b) for b in blocks], axis=1))
    parents = np.concatenate([_parent_arrays(b) for b in blocks])
    expected = count_leaves_and_parents_reference(parents[:, 1:], n)
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        shape = () if field.name == "n" else (len(seeds),)  # the block's trees share n
        assert np.shape(a) == np.shape(b) == shape, (n, s, f_max, field.name)
        assert np.array_equal(a, b), (n, s, f_max, field.name)
    assert np.all(got.n_parents >= 1)


COUNT_N = (3, 4, 5, 7, 10, 100, 1000)
COUNT_S = (1.4, 2.2, 2.6, 3.0, 6.0, 40.0, 1074)  # 1074: every node has functionality 2


@pytest.mark.parametrize("n", COUNT_N)
@pytest.mark.parametrize("s", COUNT_S)
def test_sft_counts_in_closed_form_equal_the_child_count_counts(n, s):
    seeds = SEED_EDGES + list(range(2, 2001))
    for f_max in sorted({2, min(3, n - 1), n - 1}):
        _assert_closed_form_counts(n, s, f_max, seeds)


@pytest.mark.parametrize("block", (1, 3, 700))
@pytest.mark.parametrize("n", (3, 4, 10))
def test_sft_counts_where_only_the_root_has_children(n, block):
    # L = 0 where the root opens n - 1 or more slots, as every root does at n = 3: the search
    # for P then lands on the row before, or before the block, and P is clamped at 0
    seeds = SEED_EDGES + list(range(2, 2001))
    cdf = _sft_cdf(1.4, n - 1)
    # the rows, within their block, of the trees with L = 0
    stars = np.concatenate([np.flatnonzero(_sft_slot_counts(b)[0] == 0)
                            for b in _grow_sft_ends(cdf, n, seeds, block)])
    assert (len(stars) == len(seeds)) if n == 3 else (len(stars) > 20)
    assert block == 1 or np.sum(stars > 0) > 10  # away from a block's first row
    _assert_closed_form_counts(n, 1.4, n - 1, seeds, block)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(3, 400), s=st.floats(1.01, 60.0),
       seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
def test_sft_counts_in_closed_form_equal_the_child_count_counts_on_random_trees(data, n, s, seeds):
    f_max = data.draw(st.integers(2, n - 1), label="f_max")
    _assert_closed_form_counts(n, s, f_max, SEED_EDGES + seeds)


@pytest.mark.parametrize("n, s, f_max", SFT_CASES)
def test_structural_stats_of_an_sft_equal_its_closed_form_counts(n, s, f_max):
    seeds = SEED_EDGES + [7, 12345]
    counts = _count_sft_trees(n, _sft_slot_counts(_grown_at_once(_sft_cdf(s, f_max), n, seeds)))
    for i, seed in enumerate(seeds):
        stats = structural_stats(generate_sft(n, s, f_max, seed))
        for field in dataclasses.fields(stats):
            values = getattr(counts, field.name)
            expected = values if field.name == "n" else values[i]
            assert getattr(stats, field.name) == expected, (seed, field.name)


@pytest.mark.parametrize("s", [1075, 1e308])
def test_sft_refuses_an_s_whose_weights_underflow(s):
    # 2^-s is 0 above s = 1074: the CDF would be 0 / 0
    with pytest.raises(InvalidParameterError, match="underflow"):
        generate_sft(10, s)
    with pytest.raises(InvalidParameterError, match="underflow"):
        _sft_cdf(s, 9)


def test_sft_at_s_1074_draws_as_before():
    # 2^-1074 is the smallest subnormal, so every node takes functionality 2: two arms
    for seed in (0, 7):
        g = generate_sft(50, 1074, seed=seed)
        assert np.array_equal(g.parents[1:], _reference_sft_parents(50, 1074, 49, seed))
        assert g.parents.tolist() == [-1, 0, *range(48)]


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


# --- the one-call reader against the line scan ---------------------------------

ODD_TOKENS = ["+{u} {v}", "{u}_0 {v}", "{u}.5 {v}", "{u} {v} {v}", "0{u} {v}", "{u}", "-{u} {v}",
              "{u} 99999999999999999999", "{u}\t{v}", "{u}  {v} "]
COMMENTS = ["# label=in-between", "# note", "#", "", "   "]


@st.composite
def edge_list_texts(draw):
    """Edge lists of generated trees as qtree writes them, or reordered, relabelled,
    interleaved with comments or with odd tokens."""
    g = draw(FAMILIES)
    edges = g.edges()
    if draw(st.booleans()):
        perm = draw(st.permutations(range(g.n)))
        edges = [(perm[u], perm[v]) for u, v in edges]
    if draw(st.booleans()):
        edges = draw(st.permutations(edges))
    swaps = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    lines = [f"{v} {u}" if swap else f"{u} {v}" for (u, v), swap in zip(edges, swaps)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        u, v = edges[at]
        lines[at] = draw(st.sampled_from(ODD_TOKENS)).format(u=u, v=v)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(COMMENTS)))
    head = edge_list_text(g).splitlines()[:-len(edges)]
    text = "\n".join(head + lines) + draw(st.sampled_from(["\n", "", "\n\n"]))
    return text.replace("\n", "\r\n") if draw(st.integers(0, 3)) == 0 else text


@st.composite
def parent_column_texts(draw):
    """Edge lists "p v" for v = 1..n-1 in order with any earlier parent p: breadth-first
    only when the parents never decrease."""
    n = draw(st.integers(1, 40))
    lines = [f"{draw(st.integers(0, v - 1))} {v}" for v in range(1, n)]
    return "".join(f"{line}\n" for line in [str(n), *lines])


def _outcome(parse, text):
    try:
        g = parse(text)
    except InvalidParameterError as exc:
        return str(exc)
    assert g.parents.dtype == np.int64 and not g.parents.flags.writeable
    return g


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(FAMILIES.map(edge_list_text), edge_list_texts(), parent_column_texts(),
                 EDGE_LIST_LIKE))
def test_reader_matches_line_scan_reference(text):
    # the same tree and label, or the same refusal and message
    assert _outcome(parse_edge_list_text, text) == _outcome(parse_edge_list_text_reference, text)


@pytest.mark.parametrize("text", [
    "3\n0 1\n1 2", "3\n0 1\n1 2\n\n", "3\n0 2\n0 1\n", "3\n00 1\n0 02\n", "1\n", "1\n\n",
    "1\n0 0\n", "0\n", "-1\n", "2\n\n0 1\n", "2\n 0 1\n", "2\n0 1 \n", "2\n0\t1\n",
    "2\n0 1\r\n", "2\r\n0 1\n", "# label=\u00e9\n2\n0 1\n", "2\n\u0660 \u0661\n",
    "3\n0 1\n0 2\n# label=late\n", "3\n0 \n1 2\n", "4\n0 \n1 1\n2 2\n3", "3\n0 1\n2 2\n",
    "3\n1 1\n1 2\n", "3\n0 1\n1 5\n", "3\n0 1\n1 99999999999999999999\n", "3\n0 1\n",
    "3\n0 1\n0 2\n1 2\n", "#x\n#y=1\n# label = a=b \n3\n0 1\n0 2\n",
])
def test_reader_matches_line_scan_reference_at_the_edges_of_the_plain_form(text):
    assert _outcome(parse_edge_list_text, text) == _outcome(parse_edge_list_text_reference, text)


@st.composite
def breadth_first_parent_arrays(draw):
    n = draw(st.integers(1, 80))
    parents = [-1]
    for v in range(1, n):
        parents.append(draw(st.integers(max(parents[-1], 0), v - 1)))
    return parents


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(parents=breadth_first_parent_arrays(), data=st.data())
def test_bfs_parents_returns_a_breadth_first_parent_array_unchanged(parents, data):
    # the reader's shortcut: edges (parents[v], v) of such an array are already its numbering
    n = len(parents)
    edges = [(p, v) for v, p in enumerate(parents) if v]
    edges = data.draw(st.permutations(edges))
    edges = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in edges]
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    assert tuple(_bfs_parents(n, ends[:, 0], ends[:, 1]).tolist()) == tuple(parents)


def test_reader_refuses_an_oversize_node_count_before_reading_edges():
    count = MAX_NODES_DEFAULT + 1
    message = f"edge list has {count} nodes, above the limit {MAX_NODES_DEFAULT}"
    # the edges below would be refused as not a tree, were they read
    for text in (f"# qtree-format=1\n{count}\n" + "0 1\n" * (count - 1),
                 f"  {count} \r\nnot an edge\n"):
        with pytest.raises(SizeLimitError, match=message):
            parse_edge_list_text(text)
