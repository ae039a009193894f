"""Lindblad generators as terms of Hilbert-space operators.

A state component is a (d_ket x d_bra) grid stacked by rows:
vec(rho)[i * d_bra + j] = rho[i, j]. Every piece of a generator is a
tuple of terms (A, B), each meaning rho -> A rho B; in row-major vec a
term is A kron B^T, but nothing of that d**2 x d**2 size is ever built.
The hierarchy compile reads the entries A[k, i] B[j, l] of each term
straight from the operators (`hierarchy._BlockGraph`). The tensor
encoding uses the (d, d) grid; the symmetric encoding puts its classes on
an (n_classes, 1) grid, so its explicit blocks M are terms (M, [[1]]).

A tensor generator is rho -> A rho + rho A^dag + sum_c L_c rho L_c^dag,
with A = -iH - 1/2 sum_c L_c^dag L_c over the decay channels and the
monitored amplifiers (jump operator sqrt(2 k) X). Each channel keeps its
sandwich (L_c, L_c^dag) as a term of its own, so jump counting can move it
between counting sectors instead of summing it into the generator.

The engines consume one object, the frozen `EngineView`. A model (the
tensor `Liouvillian` here, or the symmetric reduction) builds its view
once; `counting_resolve` returns a copy of it with the counted channels'
sandwiches split out of the generator into the jump terms. No part of a
tensor view has d**2 entries, and `EngineView.row`, the one reader of the
component grid, reads the trace at the kept components as any observable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .csr import CSR
from .errors import ConfigError
from .spaces import Operator


@dataclass(frozen=True)
class JumpChannel:
    """A tagged decay channel whose quantum jumps may be counted."""

    tag: str
    op: Operator


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


@dataclass(frozen=True)
class EngineView:
    """What the integrators need, independent of how states are encoded.

    Each model builds its view once and returns that same object from
    `engine_view()`; `counting_resolve` and the start state of
    `compile_hierarchy` derive new views with `dataclasses.replace`, so
    nothing writes into a view's arrays (the dense ones are read-only).

    `g0`, `jump`, `field_ket` and `field_bra` are tuples of terms (A, B),
    rho -> A rho B, on the component grid (see the module docstring); each
    role is the sum of its terms. `jump` holds the counted sandwiches
    (None before `counting_resolve`), and the field roles are
    rho -> [rho, L^dag] and rho -> [L, rho], the terms the drive E(t) and
    its conjugate multiply (None without a field coupling). `kicks` holds,
    for each monitored channel (k > 0, in the order of `amps`), the terms
    of its measurement kick rho -> X rho + rho X^dag.

    `vec_dim` is the length of one (member, sector) component. For tensor
    encodings it is d**2 and `dense_shape` is (d, d); reduced encodings
    leave `dense_shape` None. `start` holds the nonzeros (indices, values)
    of the start vector of every diagonal member, and `trace` is the
    observable tr(rho): the identity, or a raw row on reduced encodings.
    The adjoint of tensor entry (i, j) is (j, i); reduced encodings give
    `adjoint_perm`, which with a conjugate maps a component vector to that
    of its conjugated density matrix. `amps` are the amplifier channels,
    whose operators act on the d-dimensional space; encodings that cannot
    carry measurement backaction leave it empty.
    """

    vec_dim: int
    n_sectors: int
    g0: tuple
    jump: tuple
    field_ket: tuple
    field_bra: tuple
    start: tuple
    trace: object
    adjoint_perm: np.ndarray = None
    dense_shape: tuple = None
    amps: tuple = ()
    kicks: tuple = ()

    def __post_init__(self):
        for a in (*self.start, self.trace, self.adjoint_perm):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    def row(self, ob, pos, name="observable"):
        """Entries `pos` of the row that reads tr(O rho) off a component
        vector: O[j, i] at entry (i, j) of the component grid for an
        Operator or CSR matrix O, row[pos] for a raw row of length
        vec_dim. `name` labels the errors."""
        m = ob.matrix if isinstance(ob, Operator) else ob
        if not isinstance(m, CSR):
            m = np.asarray(m, dtype=complex).reshape(-1)
            if m.size != self.vec_dim:
                raise ConfigError(
                    f"{name} row has length {m.size}, expected {self.vec_dim}")
            return m[pos]
        if m.shape != self.dense_shape:
            raise ConfigError(f"{name} is an operator of shape {m.shape}; the "
                              f"encoding's states have shape {self.dense_shape}")
        i, j = np.divmod(pos, self.dense_shape[1])
        return m.at(j, i)


class Liouvillian:
    """Lindblad generator with tagged channels on a labeled space."""

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
        self._view = None

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

    def split_jumps(self, tags):
        """(g0, jump): the generator's terms with the sandwiches of the
        channels `tags` moved into jump. g0 is (A, I), (I, A^dag) and the
        sandwich (L, L^dag) of every other channel and of each monitored
        amplifier (jump operator sqrt(2 k) X)."""
        for tag in tags:
            self.channel(tag)
        eye = CSR.identity(self.dim, complex)
        jumps = [(c.tag, c.op.matrix) for c in self.channels]
        jumps += [(a.tag, np.sqrt(2.0 * a.k) * a.op.matrix)
                  for a in self.amps if a.k > 0]
        a = CSR.zeros((self.dim, self.dim), complex)
        if self.hamiltonian is not None:
            a = -1j * self.hamiltonian.matrix
        for _, op in jumps:
            a = a - 0.5 * (op.getH() @ op)
        g0, jump = [(a, eye), (eye, a.getH())], []
        for tag, op in jumps:
            (jump if tag in tags else g0).append((op, op.getH()))
        return tuple(g0), tuple(jump)

    def engine_view(self):
        if self._view is None:
            d = self.dim
            eye = CSR.identity(d, complex)
            fk = fb = None
            if self.field_op is not None:
                op = self.field_op.matrix
                fk = ((eye, op.getH()), (-op.getH(), eye))
                fb = ((op, eye), (eye, -op))
            kicks = tuple(((a.op.matrix, eye), (eye, a.op.matrix.getH()))
                          for a in self.amps if a.k > 0)
            self._view = EngineView(
                vec_dim=d * d, n_sectors=1, g0=self.split_jumps(())[0], jump=None,
                field_ket=fk, field_bra=fb, trace=eye,
                start=(np.zeros(1, np.int64), np.ones(1, complex)),
                dense_shape=(d, d), amps=self.amps, kicks=kicks)
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
            chi = np.abs(x.matrix.data).max(initial=0.0)
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
    if not hasattr(model, "split_jumps"):
        raise ConfigError(f"counting_resolve needs an assembled generator, "
                          f"got {type(model).__name__}")
    if isinstance(counted_tags, str):
        counted_tags = (counted_tags,)
    if not counted_tags:
        raise ConfigError("counting needs at least one counted tag")
    check_count(max_count=max_count)
    if max_count < 1:
        raise ConfigError(f"max_count must be >= 1, got {max_count}")
    # a tag named twice is still counted once
    g0, jump = model.split_jumps(tuple(dict.fromkeys(counted_tags)))
    return replace(model.engine_view(), n_sectors=int(max_count) + 1,
                   g0=g0, jump=jump)


def check_count(**counts):
    """Integers, or floats with no fractional part; never bools."""
    for name, val in counts.items():
        whole = isinstance(val, (int, np.integer)) or (
            isinstance(val, (float, np.floating)) and float(val).is_integer())
        if not whole or isinstance(val, (bool, np.bool_)):
            raise ConfigError(f"{name} must be an integer, got {val!r}")
