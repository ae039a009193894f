"""Generator terms: direct products, Lindblad structure, and jump-count
resolution, cross-checked against an independent dense build."""

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pnrsim.architectures import build_symmetric_reduced
from pnrsim.errors import ConfigError
from pnrsim.liouville import (AmpChannel, JumpChannel,
                              Liouvillian, assemble_liouvillian, counting_resolve)
from pnrsim.spaces import Operator, build_space, projector, transition

from helpers import dense_generator, random_density, superop, to_scipy, trace_row


def rand_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def apply_terms(terms, rho):
    """sum of A rho B over the terms, by dense matrix products."""
    return sum(a.toarray() @ rho @ b.toarray() for a, b in terms)


def one_channel(a):
    """A Liouvillian on a bare d-level space with the single decay channel
    of jump operator `a` (a dense array)."""
    space = build_space([("q", a.shape[0])])
    return assemble_liouvillian(None, [("OUT", Operator(space, a))])


def test_mult_superops_match_direct_products():
    # the field and kick terms act as rho -> A rho B, and the test reference
    # superop() turns terms into row-major superoperators
    rng = np.random.default_rng(7)
    space = build_space([("q", 4)])
    l_op, x = (Operator(space, rand_matrix(rng, 4)) for _ in range(2))
    liou = assemble_liouvillian(None, [], ("FIELD", l_op), [("AMP", x, 0.5)])
    ev = liou.engine_view()
    rho = rand_matrix(rng, 4)
    lm, xm = l_op.matrix.toarray(), x.matrix.toarray()
    ld = lm.conj().T
    for terms, want in ((ev.field_ket, rho @ ld - ld @ rho),
                        (ev.field_bra, lm @ rho - rho @ lm),
                        (ev.kicks[0], xm @ rho + rho @ xm.conj().T)):
        assert np.allclose(apply_terms(terms, rho), want)
        assert np.allclose((superop(terms) @ rho.reshape(-1)).reshape(4, 4), want)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 5))
def test_dissipator_matches_dense_reference(seed, d):
    rng = np.random.default_rng(seed)
    a = rand_matrix(rng, d)
    ref = dense_generator(None, [a])
    g0 = one_channel(a).engine_view().g0
    assert np.abs(superop(g0).toarray() - ref).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_dissipator_annihilates_trace(seed):
    rng = np.random.default_rng(seed)
    a = rand_matrix(rng, 4)
    rho = random_density(rng, 4)
    drho = apply_terms(one_channel(a).engine_view().g0, rho)
    assert abs(np.trace(drho)) < 1e-12


def two_level(gamma=1.0):
    space = build_space([("tls", ("0", "1"))])
    decay = transition(space, "tls", "0", "1", gamma)
    return space, decay


def test_assembled_generator_matches_dense_reference():
    space = build_space([("element", ("0", "1", "C"))])
    h = Operator(space, np.diag([0.0, -0.3, 0.0]).astype(complex), hermitian=True)
    absorb = transition(space, "element", "0", "1", 0.8)
    shelve = transition(space, "element", "C", "1", 0.6)
    amp = AmpChannel("AMP", projector(space, "element", "C"), 0.4, 1.0)
    liou = assemble_liouvillian(h, [("SHELVE", shelve)], ("ABSORB", absorb), [amp])
    ref = dense_generator(h.matrix.toarray(),
                          [shelve.matrix.toarray(), absorb.matrix.toarray(),
                           np.sqrt(0.8) * projector(space, "element", "C").matrix.toarray()])
    assert np.abs(superop(liou.engine_view().g0).toarray() - ref).max() < 1e-12


def test_generator_left_null_vector_is_trace():
    space = build_space([("element", ("0", "1", "C"))])
    absorb = transition(space, "element", "0", "1", 0.8)
    shelve = transition(space, "element", "C", "1", 0.6)
    liou = assemble_liouvillian(None, [("SHELVE", shelve)], ("ABSORB", absorb))
    ev = liou.engine_view()
    assert np.abs(trace_row(ev) @ superop(ev.g0)).max() < 1e-12


def test_jump_superop_is_completely_positive_form():
    # a counted channel's jump is its sandwich rho -> L rho L^dag alone
    space, decay = two_level(0.7)
    counting = counting_resolve(assemble_liouvillian(None, [("OUT", decay)]),
                                "OUT", 1)
    ((a, b),) = counting.jump
    m = to_scipy(decay.matrix)
    assert (to_scipy(a) != m).nnz == 0 and (to_scipy(b) != m.getH()).nnz == 0
    m = decay.matrix.toarray()
    assert np.abs(superop(counting.jump).toarray() - np.kron(m, m.conj())).max() == 0.0


def test_unitary_evolution_conserves_populations():
    space = build_space([("tls", ("0", "1"))])
    h = Operator(space, np.diag([0.0, 1.3]).astype(complex), hermitian=True)
    liou = assemble_liouvillian(h, [], ("FIELD", transition(space, "tls", "0", "1", 0.0)))
    rho0 = np.diag([0.25, 0.75]).astype(complex)
    g = superop(liou.engine_view().g0).toarray()
    out = (la.expm(g * 3.0) @ rho0.reshape(-1)).reshape(2, 2)
    assert np.allclose(np.diag(out), np.diag(rho0))


def test_two_level_decay_closed_form():
    gamma = 0.9
    space, decay = two_level(gamma)
    liou = assemble_liouvillian(None, [("OUT", decay)])
    rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    g = superop(liou.engine_view().g0).toarray()
    for t in (0.3, 1.0, 2.7):
        out = (la.expm(g * t) @ rho0.reshape(-1)).reshape(2, 2)
        assert out[1, 1].real == pytest.approx(np.exp(-gamma ** 2 * t), abs=1e-12)


def block_generator(counting):
    """Sector-resolved generator assembled independently of the engines."""
    s = counting.n_sectors
    feed = sp.lil_matrix((s, s))
    for i in range(s - 1):
        feed[i + 1, i] = 1.0
    feed[s - 1, s - 1] += 1.0
    return (sp.kron(sp.identity(s), superop(counting.g0))
            + sp.kron(feed.tocsr(), superop(counting.jump))).toarray()


def test_counted_decay_jump_statistics():
    gamma = 0.8
    space, decay = two_level(gamma)
    liou = assemble_liouvillian(None, [("OUT", decay)])
    counting = counting_resolve(liou, "OUT", 1)
    big = block_generator(counting)
    y0 = np.zeros(8, dtype=complex)
    y0[:4] = np.array([[0, 0], [0, 1]], dtype=complex).reshape(-1)
    for t in (0.5, 2.0):
        y = la.expm(big * t) @ y0
        p1 = np.trace(y[4:].reshape(2, 2)).real
        assert p1 == pytest.approx(1.0 - np.exp(-gamma ** 2 * t), abs=1e-12)


def test_counting_unused_channel_keeps_sector_zero():
    space = build_space([("element", ("0", "1", "C"))])
    absorb = transition(space, "element", "0", "1", 0.8)
    shelve = transition(space, "element", "C", "1", 0.0)  # dead channel
    liou = assemble_liouvillian(None, [("SHELVE", shelve)], ("ABSORB", absorb))
    counting = counting_resolve(liou, "SHELVE", 2)
    big = block_generator(counting)
    rho0 = random_density(np.random.default_rng(3), 3)
    y0 = np.zeros(27, dtype=complex)
    y0[:9] = rho0.reshape(-1)
    y = la.expm(big * 1.5) @ y0
    assert np.abs(y[9:]).max() < 1e-14


def test_counting_block_sum_reproduces_base_generator():
    # the last sector self-feeds, so summing the block columns gives back
    # exactly the unresolved generator
    rng = np.random.default_rng(11)
    space = build_space([("element", ("0", "1", "C"))])
    absorb = transition(space, "element", "0", "1", 0.8)
    shelve = transition(space, "element", "C", "1", 0.6)
    liou = assemble_liouvillian(None, [("SHELVE", shelve)], ("ABSORB", absorb))
    counting = counting_resolve(liou, ("SHELVE",), 3)
    base = superop(liou.engine_view().g0)
    diff = (superop(counting.g0) + superop(counting.jump) - base).toarray()
    assert np.abs(diff).max() == 0.0
    # dynamic form of the same identity
    big = block_generator(counting)
    rho0 = random_density(rng, 3)
    y0 = np.zeros(4 * 9, dtype=complex)
    y0[:9] = rho0.reshape(-1)
    y = la.expm(big * 2.0) @ y0
    summed = y.reshape(4, 9).sum(axis=0)
    ref = la.expm(base.toarray() * 2.0) @ rho0.reshape(-1)
    assert np.abs(summed - ref).max() < 1e-10


def test_duplicate_tags_rejected():
    space, decay = two_level()
    with pytest.raises(ConfigError):
        Liouvillian(space, None, [JumpChannel("X", decay), JumpChannel("X", decay)])


def test_field_tag_must_be_a_channel():
    space, decay = two_level()
    with pytest.raises(ConfigError):
        Liouvillian(space, None, [JumpChannel("OUT", decay)], field_tag="FIELD")


def test_space_mismatch_rejected():
    space, decay = two_level()
    other = build_space([("big", 3)])
    with pytest.raises(ConfigError):
        Liouvillian(space, None, [JumpChannel("OUT", decay),
                                  JumpChannel("B", transition(other, "big", "0", "1", 1.0))])


def test_amp_channel_negative_rate_rejected():
    space, decay = two_level()
    with pytest.raises(ConfigError):
        AmpChannel("AMP", decay, -0.1, 1.0)


def test_assemble_amp_tuple_infers_chi():
    space = build_space([("element", ("0", "1", "C"))])
    x = 0.7 * projector(space, "element", "C")
    liou = assemble_liouvillian(None, [], transition(space, "element", "0", "1", 1.0),
                                [("AMP", x, 0.5)])
    assert liou.amps[0].chi == pytest.approx(0.7)
    assert liou.amps[0].k == 0.5
    assert liou.field_tag == "FIELD"


def test_counting_argument_validation():
    space, decay = two_level()
    liou = assemble_liouvillian(None, [("OUT", decay)])
    with pytest.raises(ConfigError):
        counting_resolve(liou, (), 2)
    with pytest.raises(ConfigError):
        counting_resolve(liou, "OUT", 0)
    with pytest.raises(ConfigError):
        counting_resolve(liou, "MISSING", 1)
    with pytest.raises(ConfigError):
        counting_resolve(decay, "OUT", 1)
    # counts must be whole numbers: no silent truncation of 1.5 or True
    for bad in (1.5, True, np.bool_(True), np.nan, np.inf):
        with pytest.raises(ConfigError, match="max_count"):
            counting_resolve(liou, "OUT", bad)
    for good in (2.0, np.int64(2)):
        assert counting_resolve(liou, "OUT", good).n_sectors == 3
    # the symmetric encoding checks its tags the same way
    sym = build_symmetric_reduced(2, 1, 1.0, 1.0, k_A=1.0).liouvillian()
    with pytest.raises(ConfigError, match="MISSING"):
        counting_resolve(sym, "MISSING", 1)
    with pytest.raises(ConfigError):
        counting_resolve(sym, (), 1)
    assert counting_resolve(sym, "TRANSFER", 1).n_sectors == 2
    # a tag named twice is counted once, in both encodings
    for model, tag in ((liou, "OUT"), (sym, "TRANSFER")):
        once, twice = (counting_resolve(model, tags, 1) for tags in ((tag,), (tag, tag)))
        for role in ("g0", "jump"):
            assert (superop(getattr(once, role)) != superop(getattr(twice, role))).nnz == 0
