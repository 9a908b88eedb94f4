import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtree import (
    ADJACENCY,
    CONNECTIVITY,
    IncompletePotentialError,
    InvalidParameterError,
    SizeLimitError,
    Potential,
    UnsupportedExactModeError,
    build_hamiltonian,
    custom_potential,
    efficiency_report,
    generate_chain,
    generate_dendrimer,
    generate_sft,
    generate_star,
    generate_vicsek,
    multiplicity_exact,
    parse_edge_list_text,
    return_weights,
    spectrum,
    spectrum_csv_text,
    structural_stats,
    time_series,
)
from qtree.spectral import _bin

from conftest import (
    bin_reference,
    dense_abs_alpha_sq,
    dense_matrix,
    dense_reference,
    dense_return_probability,
    direct_time_series,
    leaf_pair_eigenstates,
    multiplicity_exact_reference,
)


def spectrum_of(g, potential=CONNECTIVITY, tol=None):
    """Hamiltonian, dense reference eigensystem and its binned spectrum."""
    h = build_hamiltonian(g, potential)
    es = dense_reference(h)
    return h, es, es.spectrum(tol)


def test_build_chain3_connectivity_matrix():
    h = build_hamiltonian(generate_chain(3), CONNECTIVITY)
    expected = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
    assert np.array_equal(dense_matrix(h), expected)
    assert h.e_star == 1.0


def test_build_star4_adjacency_matrix():
    h = build_hamiltonian(generate_star(4), ADJACENCY)
    assert np.array_equal(np.diag(dense_matrix(h)), np.zeros(4))
    assert np.array_equal(dense_matrix(h)[0, 1:], np.ones(3))
    assert h.e_star == 0.0


def test_build_custom_potential():
    h = build_hamiltonian(generate_chain(3), custom_potential({1: 5.0, 2: 7.0}))
    assert np.array_equal(np.diag(dense_matrix(h)), np.array([5.0, 7.0, 5.0]))
    assert h.e_star == 5.0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_custom_potential_rejects_non_finite(value):
    with pytest.raises(InvalidParameterError, match=r"not finite .*\[3\]"):
        custom_potential({1: 1.0, 3: value})


def test_build_custom_potential_missing_entry():
    with pytest.raises(IncompletePotentialError):
        build_hamiltonian(generate_star(5), custom_potential({1: 0.5}))


def test_dense_reference_chain3():
    # characteristic polynomial by hand: (1-x) x (x-3)
    _, es, _ = spectrum_of(generate_chain(3))
    assert np.allclose(es.eigenvalues, [0.0, 1.0, 3.0], atol=1e-9)


def test_dense_reference_star4():
    # symmetric/antisymmetric reduction: {0, 1, 1, 4}
    _, es, _ = spectrum_of(generate_star(4))
    assert np.allclose(es.eigenvalues, [0.0, 1.0, 1.0, 4.0], atol=1e-9)


@pytest.mark.parametrize(
    "g",
    [
        generate_chain(40),
        generate_star(40),
        generate_dendrimer(3, 4),
        generate_vicsek(4, 2),
        generate_sft(120, 2.5, seed=17),
    ],
    ids=lambda g: g.label,
)
def test_eigensystem_invariants(g):
    for potential in (CONNECTIVITY, ADJACENCY):
        h = build_hamiltonian(g, potential)
        es = dense_reference(h)
        scale = np.linalg.norm(es.matrix)
        residual = es.matrix @ es.eigenvectors - es.eigenvectors * es.eigenvalues
        assert np.max(np.abs(residual)) <= 1e-9 * scale
        gram = es.eigenvectors.T @ es.eigenvectors
        assert np.max(np.abs(gram - np.eye(g.n))) <= 1e-9
        assert np.all(np.diff(es.eigenvalues) >= 0)
        # trace identity: sum of eigenvalues equals sum of on-site values
        assert np.sum(es.eigenvalues) == pytest.approx(
            sum(potential.value(d) for d in g.degrees()), abs=1e-8
        )


def test_quotient_solvers_size_limit():
    chain = generate_chain(40)
    with pytest.raises(SizeLimitError):
        build_hamiltonian(chain, size_limit=39)
    assert max(return_weights(build_hamiltonian(chain, size_limit=40)).spectrum.solve_dims) == 40
    # the limit bounds the largest solve, the root's quotient, not n
    d = generate_dendrimer(3, 4)  # 46 nodes, a root quotient of 5 positions
    assert max(spectrum(build_hamiltonian(d, size_limit=5)).solve_dims) == 5
    with pytest.raises(SizeLimitError, match="n=46: a quotient of 5 positions"):
        build_hamiltonian(d, size_limit=4)
    # a chain is its own quotient; interning stops at the first branch above the limit
    with pytest.raises(SizeLimitError, match="n=5000: a quotient of 4097 positions exceeds"):
        build_hamiltonian(generate_chain(5000))


def test_exact_oracle_without_size_limit():
    h = build_hamiltonian(generate_chain(5000), size_limit=None)
    assert multiplicity_exact(h, 1) == multiplicity_exact_reference(h, 1)


def test_bin_star4():
    _, _, sp = spectrum_of(generate_star(4), tol=1e-8)
    reps = [round(rep, 9) for rep, _ in sp.classes]
    mults = [m for _, m in sp.classes]
    assert reps == [0.0, 1.0, 4.0]
    assert mults == [1, 2, 1]
    assert sum(mults) == sp.n
    assert math.fsum(sp.densities()) == pytest.approx(1.0, abs=1e-12)


def test_bin_chain3_singletons():
    _, _, sp = spectrum_of(generate_chain(3), tol=1e-8)
    assert [m for _, m in sp.classes] == [1, 1, 1]


def test_bin_merges_within_tolerance():
    sp = _bin(np.array([1.0, 1.0 + 1e-12]), 1e-8)
    assert len(sp.classes) == 1
    assert sp.classes[0][1] == 2
    assert sp.classes[0][0] == pytest.approx(1.0, abs=1e-12)


@given(sizes=st.lists(st.integers(1, 300), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_bin_matches_loop_reference(sizes, seed):
    # sorted classes of 1 to 300 members: gaps up to tol/2 inside, above 2 tol between
    rng = np.random.default_rng(seed)
    tol = 1e-8
    parts, x = [], rng.uniform(-10.0, 10.0)
    for size in sizes:
        parts.append(x + np.concatenate(([0.0], np.cumsum(rng.uniform(0.0, tol / 2, size - 1)))))
        x = parts[-1][-1] + rng.uniform(2 * tol, 1.0)
    w = np.concatenate(parts)
    classes = _bin(w, tol).classes
    assert [m for _, m in classes] == sizes
    assert classes == bin_reference(w, tol)  # the same means to the last bit


def test_bin_rejects_nonpositive_tolerance():
    with pytest.raises(InvalidParameterError):
        _bin(np.array([0.0, 1.0]), 0.0)
    for tol in (math.inf, math.nan):  # inf would bin every eigenvalue into one class
        with pytest.raises(InvalidParameterError, match="finite and positive"):
            _bin(np.array([0.0, 1.0]), tol)
    with pytest.raises(InvalidParameterError):
        spectrum(build_hamiltonian(generate_chain(3)), tol_abs=0.0)


def test_bin_large_chain_keeps_simple_spectrum():
    # near-degenerate band edges at large N must not merge under the
    # default tolerance: 1024 singleton classes, chi exactly 1/N
    g = generate_chain(1024)
    h = build_hamiltonian(g)
    es = dense_reference(h)
    sp = spectrum(h)
    assert len(sp.classes) == 1024
    assert all(m == 1 for _, m in sp.classes)
    assert np.min(np.diff(es.eigenvalues)) > 100 * sp.tol_abs


def test_bin_representatives_separated():
    for g in [generate_sft(150, 2.4, seed=2), generate_vicsek(3, 3)]:
        _, _, sp = spectrum_of(g)
        reps = [rep for rep, _ in sp.classes]
        assert all(b - a > sp.tol_abs for a, b in zip(reps, reps[1:]))


def test_multiplicity_exact_star4():
    h = build_hamiltonian(generate_star(4))
    assert multiplicity_exact(h, 1) == 2


def test_multiplicity_exact_chain3():
    h = build_hamiltonian(generate_chain(3))
    assert multiplicity_exact(h, 1) == 1
    assert multiplicity_exact(h, 0) == 1
    assert multiplicity_exact(h, 2) == 0


@pytest.mark.parametrize("n", [5, 8, 16, 33, 64])
def test_multiplicity_exact_star_pattern(n):
    # solver oracle: count eigenvalues near 1 from the dense decomposition
    g = generate_star(n)
    h, es, sp = spectrum_of(g)
    assert sp.multiplicity_at(1.0) == n - 2
    assert multiplicity_exact(h, 1) == n - 2


def test_multiplicity_exact_fraction_eigenvalue():
    h = build_hamiltonian(generate_star(4), custom_potential({1: 0.5, 3: 0.5}))
    # shifted adjacency of a star: eigenvalues 1/2 (x2), 1/2 +- sqrt(3)
    assert multiplicity_exact(h, Fraction(1, 2)) == 2


def test_multiplicity_exact_rejects_non_finite():
    # custom_potential refuses such a table; a Potential built directly does not
    h = build_hamiltonian(generate_star(4), Potential("custom", {1: float("nan"), 3: 1.0}))
    with pytest.raises(UnsupportedExactModeError):
        multiplicity_exact(h, 1)
    with pytest.raises(UnsupportedExactModeError):
        multiplicity_exact(build_hamiltonian(generate_star(4)), float("nan"))


def test_oracle_equivalence_on_random_sfts():
    # binned solver multiplicity at E* must equal the exact rational nullity
    rng = np.random.default_rng(20260810)
    for trial in range(200):
        n = int(rng.integers(40, 301))
        s = float(rng.uniform(2.1, 4.0))
        g = generate_sft(n, s, seed=int(rng.integers(0, 2**63)))
        h, es, sp = spectrum_of(g)
        assert sp.multiplicity_at(h.e_star) == multiplicity_exact(h, 1)


@st.composite
def breadth_first_trees(draw):
    """A random tree with k >= 0 copies of one random branch under one node, read back
    breadth-first, so repeated branches and their groups are common."""
    def random_parents(size):
        return [draw(st.integers(0, v - 1)) for v in range(1, size)]

    edges = list(enumerate(random_parents(draw(st.integers(2, 30))), start=1))
    n = len(edges) + 1
    branch = random_parents(draw(st.integers(1, 8)))
    at = draw(st.integers(0, n - 1))
    for _ in range(draw(st.integers(0, 4))):
        edges += [(n, at)] + [(n + v, n + p) for v, p in enumerate(branch, start=1)]
        n += len(branch) + 1
    return parse_edge_list_text(f"{n}\n" + "".join(f"{v} {p}\n" for v, p in edges))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_quotient_oracle_matches_node_pass(data):
    g = data.draw(breadth_first_trees())
    top = max(g.degrees())
    value = st.one_of(st.integers(-2, 3), st.fractions(-2, 3, max_denominator=4))
    potential = data.draw(st.one_of(
        st.just(CONNECTIVITY), st.just(ADJACENCY),
        st.lists(value, min_size=top, max_size=top).map(
            lambda values: custom_potential(dict(enumerate(values, start=1))))))
    h = build_hamiltonian(g, potential)
    for e in (potential.value_exact(1), 0, 2):
        assert multiplicity_exact(h, e) == multiplicity_exact_reference(h, e)


def relabelled(g, seed):
    """g with its node labels randomly permuted, read back from edge-list text."""
    perm = np.random.default_rng(seed).permutation(g.n)
    assert perm[0] != 0  # node 0 is then not the root g was grown from
    lines = [f"# label=relabelled-{g.label}", str(g.n)]
    lines += [f"{perm[u]} {perm[v]}" for u, v in g.edges()]
    return parse_edge_list_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("g", [generate_chain(301), generate_dendrimer(3, 5), generate_vicsek(4, 3),
                               generate_sft(1000, 2.5, seed=11)], ids=lambda g: g.label)
def test_report_does_not_depend_on_node_labels(g):
    # reading renumbers from a different root; every measure stays the same
    for potential in (CONNECTIVITY, ADJACENCY):
        report = efficiency_report(g, potential)
        other = efficiency_report(relabelled(g, seed=g.n), potential)
        assert other.label == f"relabelled-{g.label}"
        assert dataclasses.replace(other, label=g.label) == report


ORACLE_GRAPHS = [
    *(generate_chain(n) for n in range(5, 10)),
    generate_chain(sys.getrecursionlimit() + 1),
    relabelled(generate_chain(301), seed=4),
    generate_star(6),
    generate_dendrimer(3, 4),
    generate_dendrimer(4, 3),
    relabelled(generate_dendrimer(3, 5), seed=5),
    generate_vicsek(3, 2),
    generate_vicsek(4, 2),
    generate_sft(200, 2.4, seed=3),
    generate_sft(200, 3.2, seed=8),
    generate_sft(1000, 2.5, seed=11),
    relabelled(generate_sft(1000, 2.5, seed=11), seed=12),
]

# V(f) = (f^2 + 3) / 4: no affine map of the named potentials, exact in binary, E* = 1
QUADRATIC_POTENTIAL = custom_potential({f: (f * f + 3) / 4 for f in range(1, 1000)})


@pytest.mark.parametrize("potential", [CONNECTIVITY, ADJACENCY, QUADRATIC_POTENTIAL],
                         ids=lambda p: p.kind)
@pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=lambda g: g.label)
def test_tree_oracle_matches_binned_spectrum(g, potential):
    # integer x below, at and above E* reach zero children below the root
    h = build_hamiltonian(g, potential)
    sp = spectrum(h)
    for x in range(-2, 5):
        assert multiplicity_exact(h, x) == sp.multiplicity_at(x)


@pytest.mark.parametrize("potential", [CONNECTIVITY, ADJACENCY, QUADRATIC_POTENTIAL],
                         ids=lambda p: p.kind)
@pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=lambda g: g.label)
def test_spectrum_matches_eigendecomposition_binning(g, potential):
    # spectrum solves the branch-symmetry quotient; the reference the dense matrix
    h = build_hamiltonian(g, potential)
    sp = spectrum(h)
    assert not hasattr(h, "matrix")  # no dense matrix exists in the program
    reference = dense_reference(h).spectrum()
    assert sum(m for _, m in sp.classes) == g.n
    assert sum(sp.solve_dims) <= g.n
    assert [m for _, m in sp.classes] == [m for _, m in reference.classes]
    assert np.allclose([r for r, _ in sp.classes], [r for r, _ in reference.classes],
                       rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("potential", [CONNECTIVITY, ADJACENCY, QUADRATIC_POTENTIAL],
                         ids=lambda p: p.kind)
@pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=lambda g: g.label)
def test_return_weights_match_dense_reference(g, potential):
    h = build_hamiltonian(g, potential)
    ts = time_series(h, 400.0, 33)
    ref = dense_reference(h)
    assert np.max(np.abs(ts.pi_bar - dense_return_probability(ref, ts.times))) <= 1e-10
    assert np.max(np.abs(ts.abs_alpha_sq - dense_abs_alpha_sq(ref, ts.times))) <= 1e-10
    rw = ts.weights
    # every tree node at a position carries the whole of its norm
    assert np.allclose(rw.weights.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert rw.nodes.sum() == g.n
    # each column stands for a whole number of tree eigenvectors, n in all
    copies = rw.nodes @ rw.weights
    assert np.allclose(copies, np.rint(copies), rtol=0.0, atol=1e-9)
    assert np.all(np.rint(copies) >= 1) and np.rint(copies).sum() == g.n
    assert rw.weights.shape[1] == len(rw.eigenvalues) == sum(rw.spectrum.solve_dims) <= g.n
    sp = spectrum(h)
    assert [m for _, m in rw.spectrum.classes] == [m for _, m in sp.classes]
    assert np.allclose([r for r, _ in rw.spectrum.classes], [r for r, _ in sp.classes],
                       rtol=0.0, atol=1e-11)


@pytest.mark.parametrize(
    "g",
    [
        generate_chain(12),
        generate_star(12),
        generate_dendrimer(3, 3),
        generate_vicsek(4, 2),
        generate_sft(90, 2.6, seed=6),
    ],
    ids=lambda g: g.label,
)
def test_density_at_e_star_dominates_structural_count(g):
    st = structural_stats(g)
    for potential in (CONNECTIVITY, ADJACENCY):
        h, es, sp = spectrum_of(g, potential)
        assert sp.density_at(h.e_star) >= (st.n_leaves - st.n_parents) / g.n - 1e-12


def test_leaf_pair_star4():
    g = generate_star(4)
    h = build_hamiltonian(g)
    vectors = leaf_pair_eigenstates(h)
    assert len(vectors) == 2
    for v in vectors:
        assert np.linalg.norm(dense_matrix(h) @ v - h.e_star * v) <= 1e-12
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_leaf_pair_chain4_empty():
    g = generate_chain(4)
    assert leaf_pair_eigenstates(build_hamiltonian(g)) == []


def test_leaf_pair_dendrimer_count():
    g = generate_dendrimer(3, 2)
    assert len(leaf_pair_eigenstates(build_hamiltonian(g))) == 3


@pytest.mark.parametrize(
    "g",
    [
        generate_star(9),
        generate_dendrimer(4, 3),
        generate_vicsek(3, 3),
        generate_sft(150, 2.3, seed=23),
    ],
    ids=lambda g: g.label,
)
def test_leaf_pair_invariants(g):
    st = structural_stats(g)
    for potential in (CONNECTIVITY, ADJACENCY, custom_potential(
            {f: 0.25 * f * f for f in range(1, max(g.degrees()) + 1)})):
        h = build_hamiltonian(g, potential)
        vectors = leaf_pair_eigenstates(h)
        assert len(vectors) == st.n_leaves - st.n_parents
        basis = np.array(vectors)
        gram = basis @ basis.T
        assert np.max(np.abs(gram - np.eye(len(vectors)))) <= 1e-12
        matrix = dense_matrix(h)
        for v in vectors:
            assert np.linalg.norm(matrix @ v - h.e_star * v) <= 1e-12


def test_spectrum_csv_format():
    _, _, sp = spectrum_of(generate_star(4), tol=1e-8)
    text = spectrum_csv_text(sp)
    lines = text.splitlines()
    assert lines[0] == "# qtree-format=1"
    assert lines[1] == "eigenvalue,multiplicity,density"
    assert len(lines) == 2 + len(sp.classes)
    rows = [line.split(",") for line in lines[2:]]
    eigs = [float(r[0]) for r in rows]
    assert eigs == sorted(eigs)
    assert [int(r[1]) for r in rows] == [1, 2, 1]
    assert float(rows[1][2]) == 0.5


@pytest.mark.parametrize("potential", [CONNECTIVITY, ADJACENCY, QUADRATIC_POTENTIAL],
                         ids=lambda p: p.kind)
@pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=lambda g: g.label)
def test_time_series_matches_direct_phases(g, potential):
    # phases by block rotation against exp(-i lambda t) at every sample; chain(1001)
    # runs 31 blocks of 65 times over the default horizon
    ts = time_series(build_hamiltonian(g, potential), samples=2000)
    abs_alpha_sq, pi_bar = direct_time_series(ts.weights, ts.times)
    assert np.max(np.abs(ts.abs_alpha_sq - abs_alpha_sq)) <= 1e-11
    assert np.max(np.abs(ts.pi_bar - pi_bar)) <= 1e-11


def test_time_series_matches_direct_phases_at_long_times():
    # lambda t reaches about 4e7, where the arguments themselves carry rounding error
    ts = time_series(build_hamiltonian(generate_sft(1000, 2.5, seed=11)), 1e5)
    abs_alpha_sq, pi_bar = direct_time_series(ts.weights, ts.times)
    assert np.max(np.abs(ts.abs_alpha_sq - abs_alpha_sq)) <= 1e-11
    assert np.max(np.abs(ts.pi_bar - pi_bar)) <= 1e-11
