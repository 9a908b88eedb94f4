import dataclasses
import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtree import (
    ADJACENCY,
    CONNECTIVITY,
    DENSE_SOLVER_LIMIT,
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
    structural_stats,
    time_series,
    TreeGraph,
)
from qtree import efficiency
from qtree.cli import spectrum_csv_text
from qtree.spectral import _bin, _matrix, _plan

from conftest import (
    bin_reference,
    dense_abs_alpha_sq,
    dense_matrix,
    dense_reference,
    dense_return_probability,
    direct_time_series,
    leaf_pair_eigenstates,
    multiplicity_exact_reference,
    plan_reference,
    return_weights_reference,
    tiled_spectrum_reference,
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


def _quotient_sizes(h):
    """The size of each block in h's plan: one eigensolve each."""
    return [b - a for a, b, _ in h.blocks]


def test_quotient_solvers_size_limit():
    chain = generate_chain(40)
    with pytest.raises(SizeLimitError):
        build_hamiltonian(chain, size_limit=39)
    h = build_hamiltonian(chain, size_limit=40)
    assert _quotient_sizes(h) == [40]
    assert len(return_weights(h).eigenvalues) == 40
    # the limit bounds the largest solve, the root's quotient, not n
    d = generate_dendrimer(3, 4)  # 46 nodes, a root quotient of 5 positions
    h = build_hamiltonian(d, size_limit=5)
    assert max(_quotient_sizes(h)) == 5
    assert spectrum(h).n == 46
    with pytest.raises(SizeLimitError, match="n=46: a quotient of 5 positions"):
        build_hamiltonian(d, size_limit=4)
    # a chain is its own quotient; interning stops at the first branch above the limit
    with pytest.raises(SizeLimitError, match="n=5000: a quotient of 4097 positions exceeds"):
        build_hamiltonian(generate_chain(5000))


@pytest.mark.parametrize("size_limit", [0, -3])
def test_build_hamiltonian_refuses_a_size_limit_below_one(size_limit):
    # in the words of `qtree chi --size-limit`; not SizeLimitError, the exit-4 class
    with pytest.raises(InvalidParameterError,
                       match=f"^--size-limit must be at least 1, got {size_limit}$"):
        build_hamiltonian(generate_star(5), size_limit=size_limit)


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
    assert math.fsum(m / sp.n for _, m in sp.classes) == pytest.approx(1.0, abs=1e-12)


def test_bin_chain3_singletons():
    _, _, sp = spectrum_of(generate_chain(3), tol=1e-8)
    assert [m for _, m in sp.classes] == [1, 1, 1]


def test_bin_merges_within_tolerance():
    sp = _bin([(np.array([1.0, 1.0 + 1e-12]), 1)], 1e-8)
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
    classes = _bin([(w, 1)], tol).classes
    assert [m for _, m in classes] == sizes
    assert classes == bin_reference(w, tol)  # the same means to the last bit


def test_bin_rejects_nonpositive_tolerance():
    h = build_hamiltonian(generate_chain(3))
    with pytest.raises(InvalidParameterError):
        spectrum(h, tol_abs=0.0)
    for tol in (math.inf, math.nan):  # inf would bin every eigenvalue into one class
        with pytest.raises(InvalidParameterError, match="finite and positive"):
            spectrum(h, tol)


@pytest.mark.parametrize("tol", [0.0, math.inf, math.nan])
def test_spectrum_refuses_a_bad_tolerance_before_any_solve(tol):
    h = build_hamiltonian(generate_dendrimer(3, 3))
    with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError("solved")):
        with pytest.raises(InvalidParameterError,
                           match=f"^--tol-abs must be finite and positive, got {tol}$"):
            spectrum(h, tol)


def test_default_tolerance_refuses_a_spectral_width_that_overflows():
    # eigenvalues near -1e308 and 1e308: the width is inf, and so would be 1e-8 (width + 1),
    # which would bin every eigenvalue into one class
    h = build_hamiltonian(generate_star(4), custom_potential({1: 1e308, 3: -1e308}))
    for solve in (spectrum, return_weights):
        with pytest.raises(InvalidParameterError, match="spectral width .* overflows"):
            solve(h)


@pytest.mark.parametrize("tol", [None, 1e-8])
def test_spectrum_refuses_a_class_mean_that_overflows(tol):
    # the three eigenvalues near 1e308 bin into one class; their pairwise sum overflows,
    # and so would the mean written to the spectrum CSV.  (With -1e308 beside them the
    # default tolerance is refused for the width first.)
    potential = {1: 1e308, 3: -1e308} if tol is not None else {1: 1e308, 3: 1e308}
    h = build_hamiltonian(generate_star(4), custom_potential(potential))
    with pytest.raises(InvalidParameterError, match=r"^the mean of the \d eigenvalues from "
                       r"1e\+308 to 1e\+308 in one class overflows$"):
        spectrum(h, tol)


def test_bin_keeps_a_class_whose_mean_stays_finite_near_the_float_limit():
    # a gap that overflows is inf, above any tolerance, and a finite mean is kept
    w = np.array([-1e308, 8e307, np.nextafter(8e307, np.inf)])  # 8e307 + 1e308 overflows
    assert _bin([(w, 1)], 1e300).classes == ((-1e308, 1), (float(np.mean(w[1:])), 2))


@pytest.mark.parametrize("potential", [CONNECTIVITY, ADJACENCY,
                                       custom_potential({1: 0.25, 2: -1.5})],
                         ids=["connectivity", "adjacency", "custom"])
def test_e_star_is_the_potential_at_functionality_one(potential):
    h = build_hamiltonian(generate_chain(5), potential)
    assert h.e_star == h.potential.value(1)
    assert "e_star" not in {f.name for f in dataclasses.fields(h)}


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


@pytest.mark.parametrize("scalar", [np.int64, np.int32, np.uint8, np.float32, np.float64])
def test_exact_oracle_takes_numpy_scalars_as_their_python_numbers(scalar):
    # a NumPy integer is a numbers.Rational and a NumPy float a numbers.Real: each is taken
    # exactly, at its binary value, as the Python number with that value is
    g = generate_star(5)
    python_table = {1: float(np.float32(0.1)), 2: 2, 4: 4.0}
    numpy_table = {1: np.float32(0.1), 2: scalar(2), 4: np.float64(4.0)}
    h, numpy_h = (build_hamiltonian(g, custom_potential(t)) for t in (python_table, numpy_table))
    e = float(np.float32(0.1))
    assert multiplicity_exact(numpy_h, scalar(1)) == multiplicity_exact(h, 1) == 0
    assert multiplicity_exact(numpy_h, np.float32(0.1)) == multiplicity_exact(h, e) == 3
    assert efficiency_report(numpy_h) == efficiency_report(h)
    assert efficiency_report(numpy_h).multiplicity_e_star_exact == 3
    # as in the connectivity matrix's own exact pass
    connectivity = build_hamiltonian(g)
    assert multiplicity_exact(connectivity, scalar(1)) == multiplicity_exact(connectivity, 1) == 3


@pytest.mark.parametrize("e", [np.bool_(True), 1 + 0j, "1", None, np.float32("inf")],
                         ids=repr)
def test_exact_oracle_refuses_what_is_no_finite_real(e):
    with pytest.raises(UnsupportedExactModeError):
        multiplicity_exact(build_hamiltonian(generate_star(5)), e)


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
        report = efficiency_report(build_hamiltonian(g, potential))
        other = efficiency_report(build_hamiltonian(relabelled(g, seed=g.n), potential))
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
    assert sum(_quotient_sizes(h)) <= g.n
    assert [m for _, m in sp.classes] == [m for _, m in reference.classes]
    assert np.allclose([r for r, _ in sp.classes], [r for r, _ in reference.classes],
                       rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("potential", [CONNECTIVITY, ADJACENCY, QUADRATIC_POTENTIAL],
                         ids=lambda p: p.kind)
@pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=lambda g: g.label)
def test_return_weights_match_dense_reference(g, potential):
    h = build_hamiltonian(g, potential)
    rw = return_weights(h)
    ts = time_series(rw, 400.0, 33)
    ref = dense_reference(h)
    assert np.max(np.abs(ts.pi_bar - dense_return_probability(ref, ts.times))) <= 1e-10
    assert np.max(np.abs(ts.abs_alpha_sq - dense_abs_alpha_sq(ref, ts.times))) <= 1e-10
    # every tree node at a position carries the whole of its norm
    assert np.allclose(rw.weights.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert rw.nodes.sum() == g.n
    # each column stands for a whole number of tree eigenvectors, n in all
    copies = rw.nodes @ rw.weights
    assert np.allclose(copies, np.rint(copies), rtol=0.0, atol=1e-9)
    assert np.all(np.rint(copies) >= 1) and np.rint(copies).sum() == g.n
    assert rw.weights.shape[1] == len(rw.eigenvalues) == sum(_quotient_sizes(h)) <= g.n
    sp = spectrum(h)
    assert [m for _, m in rw.spectrum.classes] == [m for _, m in sp.classes]
    assert np.allclose([r for r, _ in rw.spectrum.classes], [r for r, _ in sp.classes],
                       rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("potential", [CONNECTIVITY, ADJACENCY, QUADRATIC_POTENTIAL],
                         ids=lambda p: p.kind)
@pytest.mark.parametrize("g", ORACLE_GRAPHS, ids=lambda g: g.label)
def test_return_weights_match_the_recursive_reference(g, potential):
    # one pass over the group positions sums what the recursion nests: the same columns
    # in the same order, and W within two ulps of 1
    h = build_hamiltonian(g, potential)
    rw = return_weights(h)
    eigenvalues, weights, nodes = return_weights_reference(h)
    assert np.array_equal(rw.eigenvalues, eigenvalues)
    assert np.array_equal(rw.nodes, nodes)
    assert rw.weights.shape == weights.shape
    assert np.max(np.abs(rw.weights - weights)) <= 4.4e-16


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
    rw = return_weights(build_hamiltonian(g, potential))
    ts = time_series(rw, samples=2000)
    abs_alpha_sq, pi_bar = direct_time_series(rw, ts.times)
    assert np.max(np.abs(ts.abs_alpha_sq - abs_alpha_sq)) <= 1e-11
    assert np.max(np.abs(ts.pi_bar - pi_bar)) <= 1e-11


def test_time_series_matches_direct_phases_at_long_times():
    # lambda t reaches about 4e7, where the arguments themselves carry rounding error
    rw = return_weights(build_hamiltonian(generate_sft(1000, 2.5, seed=11)))
    ts = time_series(rw, 1e5)
    abs_alpha_sq, pi_bar = direct_time_series(rw, ts.times)
    assert np.max(np.abs(ts.abs_alpha_sq - abs_alpha_sq)) <= 1e-11
    assert np.max(np.abs(ts.pi_bar - pi_bar)) <= 1e-11


KERNEL_GRAPHS = [generate_chain(7), generate_dendrimer(3, 4), generate_vicsek(3, 2),
                 generate_sft(200, 2.4, seed=3)]


@pytest.mark.parametrize("rows", [1, 3, 7])
@pytest.mark.parametrize("g", KERNEL_GRAPHS, ids=lambda g: g.label)
def test_time_series_blocks_of_any_size_match_direct_phases(monkeypatch, g, rows):
    # blocks of 3 and 7 times end the first block's doubling with a partial step; the
    # sample counts put the grid's end just inside, at and just past a block's end; a grid
    # needs 2 samples
    monkeypatch.setattr(efficiency, "_block_rows", lambda columns: rows)
    rw = return_weights(build_hamiltonian(g))
    for samples in sorted({1, 2, rows - 1, rows, rows + 1, 2 * rows + 1} - {0, 1}):
        for t_max in (None, 37.0):
            ts = time_series(rw, t_max, samples)
            abs_alpha_sq, pi_bar = direct_time_series(rw, ts.times)
            assert len(ts.times) == samples
            assert np.max(np.abs(ts.abs_alpha_sq - abs_alpha_sq)) <= 1e-11, (samples, t_max)
            assert np.max(np.abs(ts.pi_bar - pi_bar)) <= 1e-11, (samples, t_max)


# --- the slice-based plan and binning from counts against their references -----

def _check_plan(parents, size_limit):
    """Check _plan against the queue reference and return the refusal both give, if any.

    The functionalities and the counts are the reference's; each block is the
    reference's quotient of its shape, with its parents offset and k = 1 and Pi = 1 at
    its start; the root's block comes first and each repeated shape's follows at its
    first group position in preorder.
    """
    try:
        functionality, quotients = plan_reference(parents, size_limit)
    except SizeLimitError as exc:
        with pytest.raises(SizeLimitError) as refusal:
            _plan(parents, size_limit)
        assert str(refusal.value) == str(exc)
        return str(exc)
    plan_functionality, (shape, parent, ks, nodes), blocks = _plan(parents, size_limit)
    assert plan_functionality == functionality
    assert {shape[a]: count for a, _, count in blocks} == {s: c for s, (_, c) in quotients.items()}
    for a, b, _ in blocks:
        block = (shape[a:b], [-1] + [p - a for p in parent[a + 1:b]], [1] + ks[a + 1:b],
                 [pi // nodes[a] for pi in nodes[a:b]])
        assert block == tuple(quotients[shape[a]][0])
        assert all(pi % nodes[a] == 0 for pi in nodes[a:b])
    first = {}
    for r in (r for r, k in enumerate(ks) if k > 1):
        first.setdefault(shape[r], r)
    assert [a for a, _, _ in blocks] == [0, *first.values()]


PLAN_GRAPHS = [
    TreeGraph((-1,)), generate_chain(2), generate_chain(3), generate_star(3), generate_star(40),
    generate_dendrimer(3, 1), generate_dendrimer(3, 5), generate_dendrimer(4, 3),
    generate_dendrimer(5, 2), generate_vicsek(3, 1), generate_vicsek(3, 3),
    generate_vicsek(4, 2), generate_sft(3, 2.5, seed=1), generate_sft(1000, 2.5, seed=11),
    generate_sft(4000, 3.0, seed=2), relabelled(generate_dendrimer(3, 5), seed=5),
    relabelled(generate_sft(1000, 2.5, seed=11), seed=12),
]


@pytest.mark.parametrize("g", PLAN_GRAPHS, ids=lambda g: g.label or f"n={g.n}")
def test_plan_matches_queue_reference_on_every_family(g):
    for size_limit in (None, DENSE_SOLVER_LIMIT, 1, 0, 5, 12):
        _check_plan(g.parents, size_limit)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_plan_matches_queue_reference_on_random_trees(data):
    g = data.draw(breadth_first_trees())
    size_limit = data.draw(st.one_of(st.none(), st.integers(0, g.n)))
    _check_plan(g.parents, size_limit)


@pytest.mark.parametrize("g, size_limit, message", [
    (generate_dendrimer(3, 4), 4, "n=46: a quotient of 5 positions"),
    (generate_chain(5000), DENSE_SOLVER_LIMIT, "n=5000: a quotient of 4097 positions exceeds"),
])
def test_plan_refuses_as_the_queue_reference_does(g, size_limit, message):
    assert _check_plan(g.parents, size_limit).startswith(message)


def test_plan_in_many_chunks_matches_queue_reference_on_a_large_tree():
    # hundreds of nodes with children, read from the last in chunks of 7
    with mock.patch("qtree.spectral._BLOCK", 7):
        for size_limit in (None, DENSE_SOLVER_LIMIT, 12):
            _check_plan(generate_sft(4000, 3.0, seed=2).parents, size_limit)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_plan_in_chunks_of_any_size_matches_queue_reference(data):
    # chunks of 1 to 5 nodes with children end before, at and past the first of them
    g = data.draw(breadth_first_trees())
    size_limit = data.draw(st.one_of(st.none(), st.integers(0, g.n)))
    with mock.patch("qtree.spectral._BLOCK", data.draw(st.integers(1, 5))):
        _check_plan(g.parents, size_limit)


def _margins(w, tol_abs):
    """The largest gap at most tol_abs and the smallest above it between the sorted w."""
    gaps = np.diff(np.sort(w))
    merged, kept = gaps[gaps <= tol_abs], gaps[gaps > tol_abs]
    return (float(merged.max()) if len(merged) else None,
            float(kept.min()) if len(kept) else None)


@pytest.mark.parametrize("potential", [CONNECTIVITY, ADJACENCY, QUADRATIC_POTENTIAL],
                         ids=lambda p: p.kind)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_binning_margins_are_the_extreme_gaps_of_the_counted_blocks(potential, data):
    # each counted block's eigenvalues once, from the queue reference's quotients
    g = data.draw(breadth_first_trees())
    tol_abs = data.draw(st.sampled_from([None, 1e-3, 0.3]))
    h = build_hamiltonian(g, potential)
    on_site = [potential.value(f) for f in h.functionality]
    w = np.concatenate([np.linalg.eigvalsh(_matrix(q, on_site))
                        for q, _ in plan_reference(g.parents, None)[1].values()])
    sp = spectrum(h, tol_abs)
    assert (sp.largest_merged_gap, sp.smallest_separating_gap) == _margins(w, sp.tol_abs)
    rw = return_weights(h)
    assert (rw.spectrum.largest_merged_gap, rw.spectrum.smallest_separating_gap) == _margins(
        rw.eigenvalues, rw.spectrum.tol_abs)
    # left out of comparisons and repr
    assert sp == dataclasses.replace(sp, largest_merged_gap=-1.0, smallest_separating_gap=-1.0)
    assert "gap" not in repr(sp)


def _bits(sp):
    return [(rep.hex(), m) for rep, m in sp.classes], sp.n, sp.tol_abs


# eigenvalues on a coarse grid plus offsets below, near and above a 1e-8 tolerance,
# so that classes join across solves, split at the tolerance and repeat exactly
SOLVES = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(-8, 8), st.sampled_from([0.0, 1e-13, 4e-9, 9e-9, 3e-8])),
                 min_size=1, max_size=12).map(lambda xs: np.sort([k / 4 + d for k, d in xs])),
        st.integers(1, 40),
    ),
    min_size=1, max_size=6,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(solved=SOLVES, tol_abs=st.sampled_from([None, 1e-8, 5e-9, 0.3]))
def test_binning_from_counts_matches_tiled_binning(solved, tol_abs):
    assert (_bits(_bin(solved, tol_abs))
            == _bits(tiled_spectrum_reference(solved, tol_abs)))


@pytest.mark.parametrize("potential", [CONNECTIVITY, ADJACENCY, QUADRATIC_POTENTIAL],
                         ids=lambda p: p.kind)
@pytest.mark.parametrize("g", [*ORACLE_GRAPHS, generate_dendrimer(3, 12)], ids=lambda g: g.label)
def test_spectrum_and_return_weights_bin_as_tiled_copies(g, potential):
    h = build_hamiltonian(g, potential)
    on_site = [potential.value(f) for f in h.functionality]
    solved = [(np.linalg.eigvalsh(_matrix(q, on_site)), count)
              for q, count in plan_reference(g.parents, None)[1].values()]
    with mock.patch("qtree.spectral._bin", wraps=_bin) as binner:
        sp = spectrum(h)
        rw = return_weights(h)
    # each solves every block of the plan once, as the manifest counters say
    for (binned, _), _ in binner.call_args_list:
        assert sorted(len(values) for values, _ in binned) == sorted(_quotient_sizes(h))
    assert _bits(sp) == _bits(tiled_spectrum_reference(solved))
    (solved, tol_abs), _ = binner.call_args
    assert np.array_equal(np.concatenate([values for values, _ in solved]), rw.eigenvalues)
    assert _bits(rw.spectrum) == _bits(tiled_spectrum_reference(solved, tol_abs))
