"""Labeled Hilbert spaces, operators, and embedding."""

import numpy as np
import pytest

from pnrsim.errors import ConfigError
from pnrsim.spaces import (Operator, build_space, embed, identity, projector,
                           transition)


def test_build_space_dims():
    assert build_space([("element", ("0", "1", "C"))]).dim == 3
    two_two = build_space([("d0", 3), ("d1", 3), ("a0", 2), ("a1", 2)])
    assert two_two.dim == 36
    band = build_space([("element", ("0",) + tuple(f"1_{l}" for l in range(8)) + ("C",))])
    assert band.dim == 10


def test_duplicate_labels_rejected():
    with pytest.raises(ConfigError):
        build_space([("a", 2), ("a", 3)])


def test_zero_dimension_rejected():
    with pytest.raises(ConfigError):
        build_space([("a", 0)])


def test_index_maps_round_trip():
    sp = build_space([("d", ("0", "1", "C")), ("a", ("A0", "A1"))])
    for i in range(sp.dim):
        labels = sp.state_labels(i)
        assert sp.index(labels) == i
        assert sp.index({"d": labels[0], "a": labels[1]}) == i


def test_basis_ordering_is_row_major():
    sp = build_space([("d", 3), ("a", 2)])
    # the second factor varies fastest
    assert sp.index(("0", "1")) == 1
    assert sp.index(("1", "0")) == 2


def test_grades_default_and_composite():
    sp = build_space([("d", ("0", "1", "C")), ("a", ("A0", "A1"))])
    # ground grade 0, every excited state grade 1; grades add across factors
    assert sp.grades[sp.index(("0", "A0"))] == 0
    assert sp.grades[sp.index(("1", "A0"))] == 1
    assert sp.grades[sp.index(("C", "A1"))] == 2


def test_explicit_grades():
    sp = build_space([("d", ("0", "1", "C"), (0, 1, 2))])
    assert list(sp.grades) == [0, 1, 2]


def test_projector_and_transition():
    sp = build_space([("element", ("0", "1", "C"))])
    p1 = projector(sp, "element", "1")
    assert p1.matrix.toarray()[1, 1] == 1.0
    assert p1.matrix.nnz == 1
    t = transition(sp, "element", "0", "1", 0.7)
    m = t.matrix.toarray()
    assert m[0, 1] == pytest.approx(0.7)
    assert np.count_nonzero(m) == 1


def test_embed_identity_and_complement_sparsity():
    sp = build_space([("d0", 3), ("d1", 3)])
    local = transition(build_space([("d0", 3)]), "d0", "0", "1", 1.0)
    big = embed(local.matrix, "d0", sp)
    # identity on the complement: one nonzero per complement basis state
    assert big.matrix.nnz == 3
    assert np.allclose(embed(np.eye(3), "d1", sp).matrix.toarray(), np.eye(9))


def test_embed_disjoint_factors_commute():
    sp = build_space([("d0", 3), ("a0", 2)])
    x = embed(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), "d0", sp).matrix
    y = embed(np.array([[0, 0], [1, 0]]), "a0", sp).matrix
    assert np.allclose((x @ y).toarray(), (y @ x).toarray())


def test_embed_dimension_mismatch():
    sp = build_space([("d0", 3), ("a0", 2)])
    with pytest.raises(ConfigError):
        embed(np.eye(2), "d0", sp)
    with pytest.raises(ConfigError):
        embed(np.eye(2), "nope", sp)


def test_operator_algebra_and_expectation():
    sp = build_space([("element", ("0", "1", "C"))])
    a = transition(sp, "element", "0", "1", 1.0)
    n = a.dag() @ a
    rho = np.diag([0.25, 0.75, 0.0]).astype(complex)
    assert n.expect(rho) == pytest.approx(0.75)
    s = a + a.dag()
    assert np.allclose(s.matrix.toarray(), s.dag().matrix.toarray())
    assert np.allclose((2.0 * a).matrix.toarray(), 2.0 * a.matrix.toarray())


def test_hermitian_flag_checked():
    sp = build_space([("element", 2)])
    with pytest.raises(ConfigError):
        Operator(sp, np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)


def test_identity_operator():
    sp = build_space([("d", 3), ("a", 2)])
    assert np.allclose(identity(sp).matrix.toarray(), np.eye(6))
