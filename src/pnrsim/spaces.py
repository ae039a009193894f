"""Labeled tensor-product Hilbert spaces and sparse operators on them.

A space is an ordered list of subsystems, each with named basis states and
an integer excitation grade per state. Composite basis indices follow the
usual row-major tensor convention: the last subsystem varies fastest.
Grades let the oracles tell bright excited states from dark ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSR, as_csr, kron
from .errors import ConfigError

@dataclass(frozen=True)
class Subsystem:
    """One tensor factor: a label, its basis-state names, and the
    excitation grade carried by each state."""

    label: str
    states: tuple
    grades: tuple = None

    def __post_init__(self):
        states = tuple(str(s) for s in self.states)
        object.__setattr__(self, "states", states)
        if len(set(states)) != len(states):
            raise ConfigError(f"subsystem {self.label!r}: duplicate state labels")
        if len(states) == 0:
            raise ConfigError(f"subsystem {self.label!r}: zero dimension")
        if self.grades is None:
            # default: first state is the ground state, everything else
            # carries one excitation
            grades = (0,) + (1,) * (len(states) - 1)
        else:
            grades = tuple(int(g) for g in self.grades)
            if len(grades) != len(states):
                raise ConfigError(
                    f"subsystem {self.label!r}: {len(grades)} grades "
                    f"for {len(states)} states"
                )
        object.__setattr__(self, "grades", grades)

    @property
    def dim(self):
        return len(self.states)

    def state_index(self, state):
        try:
            return self.states.index(str(state))
        except ValueError:
            raise ConfigError(
                f"subsystem {self.label!r} has no state {state!r}; "
                f"states are {list(self.states)}"
            ) from None


class HilbertSpace:
    """Ordered tensor product of labeled subsystems."""

    def __init__(self, subsystems):
        subsystems = tuple(subsystems)
        labels = [s.label for s in subsystems]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate subsystem labels: {labels}")
        if not subsystems:
            raise ConfigError("a space needs at least one subsystem")
        self.subsystems = subsystems
        self._pos = {s.label: i for i, s in enumerate(subsystems)}
        dims = np.array([s.dim for s in subsystems], dtype=np.int64)
        self.dims = tuple(int(d) for d in dims)
        self.dim = int(np.prod(dims))
        # stride of each subsystem in the composite index
        self._strides = np.concatenate(
            [np.cumprod(dims[::-1])[::-1][1:], [1]]
        ).astype(np.int64)
        grades = np.zeros(self.dim, dtype=np.int64)
        for s, stride, d in zip(subsystems, self._strides, self.dims):
            local = (np.arange(self.dim) // stride) % d
            grades += np.asarray(s.grades, dtype=np.int64)[local]
        self.grades = grades

    def position(self, label):
        if label not in self._pos:
            raise ConfigError(
                f"no subsystem {label!r}; have {sorted(self._pos)}"
            )
        return self._pos[label]

    def subsystem(self, label):
        return self.subsystems[self.position(label)]

    def index(self, assignment):
        """Composite basis index for one named state per subsystem.

        `assignment` is a mapping label -> state name, or a sequence of
        state names in subsystem order.
        """
        if isinstance(assignment, dict):
            missing = [s.label for s in self.subsystems if s.label not in assignment]
            if missing:
                raise ConfigError(f"assignment missing subsystems {missing}")
            extra = set(assignment) - set(self._pos)
            if extra:
                raise ConfigError(f"assignment names unknown subsystems {sorted(extra)}")
            states = [assignment[s.label] for s in self.subsystems]
        else:
            states = list(assignment)
            if len(states) != len(self.subsystems):
                raise ConfigError(
                    f"{len(states)} states for {len(self.subsystems)} subsystems"
                )
        idx = 0
        for s, stride, st in zip(self.subsystems, self._strides, states):
            idx += stride * s.state_index(st)
        return int(idx)

    def state_labels(self, index):
        """Inverse of index(): per-subsystem state names at a composite index."""
        if not 0 <= index < self.dim:
            raise ConfigError(f"index {index} outside dimension {self.dim}")
        out = []
        for s, stride in zip(self.subsystems, self._strides):
            out.append(s.states[(index // int(stride)) % s.dim])
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, HilbertSpace) and self.subsystems == other.subsystems

    def __repr__(self):
        parts = ", ".join(f"{s.label}:{s.dim}" for s in self.subsystems)
        return f"HilbertSpace({parts}, dim={self.dim})"


def build_space(subsystem_specs):
    """Build a HilbertSpace from a list of subsystem specs.

    Each spec is a Subsystem, a (label, states) pair, or a
    (label, states, grades) triple. States given as an int n mean
    basis labels "0".."n-1".
    """
    subs = []
    for spec in subsystem_specs:
        if isinstance(spec, Subsystem):
            subs.append(spec)
            continue
        spec = tuple(spec)
        if len(spec) == 2:
            label, states = spec
            grades = None
        elif len(spec) == 3:
            label, states, grades = spec
        else:
            raise ConfigError(f"bad subsystem spec {spec!r}")
        if isinstance(states, int):
            states = tuple(str(i) for i in range(states))
        subs.append(Subsystem(str(label), tuple(states), grades))
    return HilbertSpace(subs)


@dataclass(frozen=True)
class Operator:
    """Sparse operator attached to a space.

    `matrix` is given as a `CSR`, a dense array or a scipy sparse matrix
    and held as a complex `CSR`. `hermitian` is a declared property,
    checked at construction when set.
    """

    space: HilbertSpace
    matrix: CSR
    name: str = ""
    hermitian: bool = False

    def __post_init__(self):
        m = as_csr(self.matrix, complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise ConfigError(
                f"operator {self.name!r}: shape {m.shape} does not match "
                f"space dimension {self.space.dim}"
            )
        if self.hermitian:
            herm_err = np.abs((m - m.getH()).data).max(initial=0.0)
            if herm_err > 1e-12:
                raise ConfigError(
                    f"operator {self.name!r} declared hermitian, deviation {herm_err:.2e}"
                )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.space.dim

    def dag(self):
        return Operator(self.space, self.matrix.getH(), name=self.name + "^+",
                        hermitian=self.hermitian)

    def __add__(self, other):
        _check_same_space(self, other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other):
        _check_same_space(self, other)
        return Operator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return Operator(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        _check_same_space(self, other)
        return Operator(self.space, self.matrix @ other.matrix)

    def expect(self, rho):
        """tr(op rho) for a dense density matrix."""
        return complex(np.trace(self.matrix.toarray() @ rho))


def _check_same_space(a, b):
    if a.space != b.space:
        raise ConfigError("operators live on different spaces")


def identity(space):
    return Operator(space, CSR.identity(space.dim, complex),
                    name="I", hermitian=True)


def embed(local_op, label, space):
    """Embed an operator acting on one subsystem into the full space.

    `local_op` is a dense/sparse matrix of the subsystem's dimension
    (or an Operator on a single-subsystem space).
    """
    if isinstance(local_op, Operator):
        local = local_op.matrix
    else:
        local = as_csr(local_op, complex)
    pos = space.position(label)
    d_local = space.subsystems[pos].dim
    if local.shape != (d_local, d_local):
        raise ConfigError(
            f"local operator shape {local.shape} does not match subsystem "
            f"{label!r} dimension {d_local}"
        )
    left = int(np.prod(space.dims[:pos], dtype=np.int64)) if pos else 1
    right = int(np.prod(space.dims[pos + 1:], dtype=np.int64)) if pos + 1 < len(space.dims) else 1
    m = kron(kron(CSR.identity(left), local), CSR.identity(right))
    return Operator(space, m)


def transition(space, label, to_state, from_state, amplitude=1.0):
    """amplitude * |to><from| on one subsystem, identity elsewhere."""
    sub = space.subsystem(label)
    local = CSR.from_triplets([complex(amplitude)], [sub.state_index(to_state)],
                              [sub.state_index(from_state)], (sub.dim, sub.dim))
    op = embed(local, label, space)
    return Operator(space, op.matrix,
                    name=f"{amplitude}|{label}:{to_state}><{label}:{from_state}|")


def projector(space, label, state):
    op = transition(space, label, state, state, 1.0)
    return Operator(space, op.matrix, name=f"P[{label}:{state}]", hermitian=True)
