"""Row-major vectorization of density-matrix dynamics.

vec stacks rows: vec(rho)[i*d + j] = rho[i, j], hence
A rho B -> (A kron B^T) vec(rho).

Generators are standard Lindblad form. Each decay channel keeps its
sandwich part separately addressable so jump counting can move it
between counting sectors instead of summing it into the generator.

The engines consume one object, the frozen `EngineView`. A model (the
tensor `Liouvillian` here, or the symmetric reduction) builds its view
once; `counting_resolve` returns a copy of it with the counted channels'
jumps split out of the generator and resolved into count sectors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .spaces import Operator


def _mat(op):
    return op.matrix if isinstance(op, Operator) else sp.csr_matrix(op, dtype=complex)


def lmult(a):
    """Superoperator for rho -> A rho."""
    a = _mat(a)
    return sp.kron(a, sp.identity(a.shape[0], dtype=complex), format="csr")


def rmult(b):
    """Superoperator for rho -> rho B."""
    b = _mat(b)
    return sp.kron(sp.identity(b.shape[0], dtype=complex), b.T, format="csr")


def sandwich(a, b=None):
    """Superoperator for rho -> A rho B^dag (B defaults to A)."""
    a = _mat(a)
    b = a if b is None else _mat(b)
    return sp.kron(a, b.conj(), format="csr")


def dissipator(a):
    """Lindblad dissipator of a jump amplitude operator A.

    D[A] rho = A rho A^dag - (A^dag A rho + rho A^dag A) / 2
    """
    a = _mat(a)
    ada = (a.getH() @ a).tocsr()
    return sandwich(a) - 0.5 * (lmult(ada) + rmult(ada))


def hamiltonian_superop(h):
    """-i [H, rho] as a superoperator."""
    h = _mat(h)
    return -1j * (lmult(h) - rmult(h))


def field_ket_superop(l_op):
    """rho -> [rho, L^dag], the term a drive amplitude E(t) multiplies."""
    ld = _mat(l_op).getH().tocsr()
    return rmult(ld) - lmult(ld)


def field_bra_superop(l_op):
    """rho -> [L, rho], the term the conjugate drive E*(t) multiplies."""
    l_op = _mat(l_op)
    return lmult(l_op) - rmult(l_op)


@dataclass(frozen=True)
class JumpChannel:
    """A tagged decay channel whose quantum jumps may be counted."""

    tag: str
    op: Operator

    @property
    def jump_superop(self):
        return sandwich(self.op.matrix)

    @property
    def superop(self):
        return dissipator(self.op.matrix)


@dataclass(frozen=True)
class AmpChannel:
    """A continuously monitored amplifier channel.

    `op` is the monitored observable X (typically chi times a projector),
    `k` the measurement rate. The deterministic part is the dissipator of
    sqrt(2 k) X; the record amplitude on a hit is `chi`.
    """

    tag: str
    op: Operator
    k: float
    chi: float

    def __post_init__(self):
        if self.k < 0:
            raise ConfigError(f"amp channel {self.tag!r}: negative rate k={self.k}")

    @property
    def superop(self):
        return dissipator(np.sqrt(2.0 * self.k) * self.op.matrix)

    @property
    def backaction(self):
        """rho -> X rho + rho X^dag, the measurement kick of a trajectory."""
        x = self.op.matrix
        return (lmult(x) + rmult(x.conj().T)).tocsr()


@dataclass(frozen=True)
class EngineView:
    """What the integrators need, independent of how states are encoded.

    Each model builds its view once and returns that same object from
    `engine_view()`; `counting_resolve` and the start state of
    `compile_hierarchy` derive new views with `dataclasses.replace`, so
    nothing writes into a view's arrays (the dense ones are read-only).

    `vec_dim` is the length of one (member, sector) component. For tensor
    encodings it is d**2 and `dense_shape` is (d, d); reduced encodings
    leave `dense_shape` None. `adjoint_perm` is the index permutation that,
    with a complex conjugate, maps a component vector to the vector of its
    conjugated density matrix (`adjoint`); integrators use it for
    hermiticity checks. `default_state` is the start vector of every
    diagonal member. `amps` are the monitored amplifier channels, whose
    operators act on the d-dimensional space; encodings that cannot carry
    measurement backaction leave it empty.
    """

    vec_dim: int
    n_sectors: int
    g0: sp.csr_matrix
    jump: object
    field_ket: object
    field_bra: object
    trace_row: np.ndarray
    default_state: np.ndarray
    adjoint_perm: np.ndarray
    dense_shape: tuple = None
    amps: tuple = ()

    def __post_init__(self):
        for a in (self.trace_row, self.default_state, self.adjoint_perm):
            a.flags.writeable = False

    def adjoint(self, y):
        return np.conj(y[..., self.adjoint_perm])


class Liouvillian:
    """Assembled generator with tagged channels on a labeled space."""

    def __init__(self, space, hamiltonian=None, channels=(), amps=(), field_tag=None):
        self.space = space
        self.hamiltonian = hamiltonian
        self.channels = tuple(channels)
        self.amps = tuple(amps)
        self.field_tag = field_tag
        tags = [c.tag for c in self.channels] + [a.tag for a in self.amps]
        dupes = {t for t in tags if tags.count(t) > 1}
        if dupes:
            raise ConfigError(f"duplicate channel tags: {sorted(dupes)}")
        if field_tag is not None and field_tag not in [c.tag for c in self.channels]:
            raise ConfigError(f"field_tag {field_tag!r} is not a channel tag")
        for op in [hamiltonian] + [c.op for c in self.channels] + [a.op for a in self.amps]:
            if op is not None and op.space != space:
                raise ConfigError("all operators must share the Liouvillian's space")
        self.dim = space.dim
        self._generator = self._view = None

    @property
    def field_op(self):
        if self.field_tag is None:
            return None
        return self.channel(self.field_tag).op

    def channel(self, tag):
        for c in self.channels:
            if c.tag == tag:
                return c
        raise ConfigError(f"no channel tagged {tag!r}; have {[c.tag for c in self.channels]}")

    @property
    def generator(self):
        if self._generator is None:
            d = self.dim
            g = sp.csr_matrix((d * d, d * d), dtype=complex)
            if self.hamiltonian is not None:
                g = g + hamiltonian_superop(self.hamiltonian)
            for c in self.channels:
                g = g + c.superop
            for a in self.amps:
                g = g + a.superop
            self._generator = g.tocsr()
        return self._generator

    def jump_sum(self, tags):
        d = self.dim
        j = sp.csr_matrix((d * d, d * d), dtype=complex)
        for tag in tags:
            j = j + self.channel(tag).jump_superop
        return j.tocsr()

    def engine_view(self):
        if self._view is None:
            d = self.dim
            idx = np.arange(d * d)
            trace_row = np.zeros(d * d, dtype=complex)
            trace_row[idx[::d + 1]] = 1.0
            y0 = np.zeros(d * d, dtype=complex)
            y0[0] = 1.0
            fk = fb = None
            if self.field_op is not None:
                fk = field_ket_superop(self.field_op)
                fb = field_bra_superop(self.field_op)
            self._view = EngineView(
                vec_dim=d * d, n_sectors=1, g0=self.generator, jump=None,
                field_ket=fk, field_bra=fb, trace_row=trace_row,
                default_state=y0, adjoint_perm=(idx % d) * d + idx // d,
                dense_shape=(d, d), amps=self.amps)
        return self._view


def assemble_liouvillian(hamiltonian, baths=(), field_coupling=None, amps=()):
    """Build a Liouvillian from tagged pieces.

    hamiltonian: Operator or None.
    baths: iterable of (tag, Operator) decay channels.
    field_coupling: (tag, Operator) for the channel that also couples to
        the propagating input field, or a bare Operator (tag "FIELD").
    amps: iterable of AmpChannel, or (tag, X, k) with the record
        amplitude chi taken as the largest matrix element of X.
    """
    channels = []
    for entry in baths:
        try:
            tag, op = entry
        except (TypeError, ValueError):
            raise ConfigError(f"bath entries must be (tag, op) pairs, got {entry!r}")
        channels.append(JumpChannel(str(tag), op))

    field_tag = None
    if field_coupling is not None:
        if isinstance(field_coupling, Operator):
            field_tag, field_op = "FIELD", field_coupling
        else:
            field_tag, field_op = field_coupling
            field_tag = str(field_tag)
        channels.append(JumpChannel(field_tag, field_op))

    amp_channels = []
    for entry in amps:
        if isinstance(entry, AmpChannel):
            amp_channels.append(entry)
        else:
            tag, x, k = entry
            chi = abs(x.matrix).max() if x.matrix.nnz else 0.0
            amp_channels.append(AmpChannel(str(tag), x, float(k), float(chi)))

    space = None
    for op in [hamiltonian] + [c.op for c in channels] + [a.op for a in amp_channels]:
        if op is not None:
            space = op.space
            break
    if space is None:
        raise ConfigError("assemble_liouvillian got no operators at all")

    return Liouvillian(space, hamiltonian, channels, amp_channels, field_tag)


def counting_resolve(model, counted_tags, max_count):
    """The engine view of `model` (a Liouvillian or the symmetric
    reduction) with the jumps of the given channel tags resolved by count.

    The state becomes a list of sectors 0..max_count; counted jumps feed
    sector s into s+1. The last sector also feeds itself, so it holds
    "max_count or more" and the block generator conserves total trace
    exactly (g0 + jump is the base generator)."""
    if not hasattr(model, "jump_sum"):
        raise ConfigError(f"counting_resolve needs an assembled generator, "
                          f"got {type(model).__name__}")
    if isinstance(counted_tags, str):
        counted_tags = (counted_tags,)
    if not counted_tags:
        raise ConfigError("counting needs at least one counted tag")
    check_count(max_count=max_count)
    if max_count < 1:
        raise ConfigError(f"max_count must be >= 1, got {max_count}")
    view = model.engine_view()
    jump = model.jump_sum(tuple(counted_tags))
    return replace(view, n_sectors=int(max_count) + 1,
                   g0=(view.g0 - jump).tocsr(), jump=jump)


def check_count(**counts):
    """Integers, or floats with no fractional part; never bools."""
    for name, val in counts.items():
        whole = isinstance(val, (int, np.integer)) or (
            isinstance(val, (float, np.floating)) and float(val).is_integer())
        if not whole or isinstance(val, (bool, np.bool_)):
            raise ConfigError(f"{name} must be an integer, got {val!r}")


def vectorize(rho, d=None):
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim == 2:
        if d is not None and rho.shape != (d, d):
            raise ConfigError(f"state shape {rho.shape}, expected ({d}, {d})")
        return rho.reshape(-1)
    if rho.ndim == 1:
        if d is not None and rho.size != d * d:
            raise ConfigError(f"state length {rho.size}, expected {d * d}")
        return rho
    raise ConfigError(f"cannot vectorize array of shape {rho.shape}")


def unvectorize(y, d):
    y = np.asarray(y, dtype=complex)
    if y.size != d * d:
        raise ConfigError(f"vector length {y.size} is not {d}**2")
    return y.reshape(d, d)
