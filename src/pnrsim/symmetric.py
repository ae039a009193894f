"""Permutation-symmetric encoding for arrays of identical elements.

For n_D identical three-level elements (ground, excited, shelf) jointly
coupled to one propagating mode, plus n_A identical two-level register
stages, dynamics launched from a permutation-invariant state stays
permutation invariant. The density matrix is then fully described by
occupation classes of single-site Liouville types, so the representation
size is polynomial in n_D and n_A instead of exponential. The encoding
is exact, not an approximation; tests compare it against the full tensor
product on small systems.

Element sites only ever occupy five types: both-sides ground g = (0, 0),
ket-side excited k = (1, 0), bra-side excited b = (0, 1), both-sides
excited e = (1, 1), and both-sides shelved C. Shelf coherences never
develop because shelving and register transfer are incoherent. Register
stages occupy two types, ag and ae. Class vectors are normalized
permutation sums, so a one-site move src -> dst carries the bosonic
factor sqrt(n_src (n_dst + 1)).

The register-transfer sandwich lowers a C site and raises a register
stage simultaneously. It must be built in one fused pass: composing the
two one-body moves as a matrix product would route through intermediate
classes that the excitation cap prunes away and silently lose the flow.
"""

from __future__ import annotations

from itertools import product
from math import factorial

import numpy as np

from .csr import CSR
from .errors import ConfigError
from .liouville import EngineView

# per-site count observables and the site type each one counts
_DIAG_OBSERVABLES = {"ground": "g", "excited": "e", "shelved": "C", "registered": "ae"}


def enumerate_classes(n_elements, n_registers, exc_cap):
    """All type-occupation classes reachable below the excitation cap.

    Returns {(n_k, n_b, n_e, n_C, a): index}. Both the ket-side and the
    bra-side excitation (counting shelved sites and set registers) are
    capped, which is exact for drive members that never hold more than
    exc_cap photons on either side.
    """
    out = {}
    for nk, nb, ne, nc in product(range(exc_cap + 1), repeat=4):
        if nk + nb + ne + nc > n_elements:
            continue
        ket = nk + ne + nc
        bra = nb + ne + nc
        for a in range(min(n_registers, exc_cap) + 1):
            if ket + a > exc_cap or bra + a > exc_cap:
                continue
            out[(nk, nb, ne, nc, a)] = len(out)
    return out


class SymmetricLiouvillian:
    """Generator of the symmetric model in the class basis.

    gamma, Gamma, k_transfer are amplitudes (their squares are rates);
    Delta is the register reset rate; delta_omega is the carrier detuning
    with the tensor builders' sign: each excited element has energy
    -delta_omega in the rotating frame, so the generator carries
    +i delta_omega (N_k - N_b). Channels carry the same
    tags as the tensor builders: ABSORB (joint coupling to the mode),
    SHELVE, TRANSFER, RESET. The class basis carries no monitored
    amplifier channel, so `amps` is empty.
    """

    amps = ()

    def __init__(self, n_elements, n_registers, gamma, Gamma, k_transfer=0.0,
                 Delta=0.0, delta_omega=0.0, exc_cap=1):
        if n_elements < 1:
            raise ConfigError(f"need at least one element, got {n_elements}")
        if n_registers < 0:
            raise ConfigError(f"negative register count {n_registers}")
        if exc_cap < 1:
            raise ConfigError(f"excitation cap must be >= 1, got {exc_cap}")
        if n_registers == 0 and k_transfer:
            raise ConfigError("transfer amplitude given but there are no registers")
        self.n_elements = int(n_elements)
        self.n_registers = int(n_registers)
        self.gamma = float(gamma)
        self.Gamma = float(Gamma)
        self.k_transfer = float(k_transfer)
        self.Delta = float(Delta)
        self.delta_omega = float(delta_omega)
        self.exc_cap = int(exc_cap)

        cls = enumerate_classes(self.n_elements, self.n_registers, self.exc_cap)
        self.classes = cls
        self.dim = len(cls)
        self._build()

    # class algebra ----------------------------------------------------

    def _occupation(self, c):
        """Site count of each type in class c = (n_k, n_b, n_e, n_C, a)."""
        nk, nb, ne, nc, a = c
        return {"g": self.n_elements - nk - nb - ne - nc, "k": nk, "b": nb,
                "e": ne, "C": nc, "ag": self.n_registers - a, "ae": a}

    def _move(self, *moves):
        """Transfer matrix for the site moves (dst, src) made together,
        each with its bosonic factor sqrt(n_src (n_dst + 1)). Moves of
        different species in one call form a fused sandwich (see the
        module docstring)."""
        rows, cols, vals = [], [], []
        for c, i in self.classes.items():
            occ = self._occupation(c)
            factor = 1.0
            for dst, src in moves:
                if occ[src] == 0:
                    break
                factor *= np.sqrt(occ[src] * (occ[dst] + 1))
                occ[src] -= 1
                occ[dst] += 1
            else:
                j = self.classes.get(
                    (occ["k"], occ["b"], occ["e"], occ["C"], occ["ae"]))
                if j is not None:
                    rows.append(j)
                    cols.append(i)
                    vals.append(factor)
        return CSR.from_triplets(vals, rows, cols, (self.dim, self.dim))

    def _build(self):
        G2 = self.Gamma ** 2
        T = self._move
        occupations = [self._occupation(c) for c in self.classes]

        def Nt(which):
            return CSR.diags(np.array([o[which] for o in occupations], dtype=float))

        # joint coupling to the mode: left/right multiplications by the
        # collective lowering operator and its dagger
        lm_l = self.gamma * (T(("g", "k")) + T(("b", "e")))
        rm_l = self.gamma * (T(("b", "g")) + T(("e", "k")))
        lm_ld = self.gamma * (T(("k", "g")) + T(("e", "b")))
        rm_ld = self.gamma * (T(("k", "e")) + T(("g", "b")))

        sandwiches = {}
        sandwiches["ABSORB"] = lm_l @ rm_ld
        g = 1j * self.delta_omega * (Nt("k") - Nt("b"))
        g = g + sandwiches["ABSORB"] - 0.5 * (lm_ld @ lm_l) - 0.5 * (rm_l @ rm_ld)

        sandwiches["SHELVE"] = G2 * T(("C", "e"))
        g = g + sandwiches["SHELVE"] - G2 * Nt("e") - 0.5 * G2 * (Nt("k") + Nt("b"))

        if self.n_registers > 0:
            sandwiches["TRANSFER"] = self.k_transfer ** 2 * T(("g", "C"), ("ae", "ag"))
            g = g + sandwiches["TRANSFER"] - self.k_transfer ** 2 * (Nt("C") @ Nt("ag"))
            sandwiches["RESET"] = self.Delta * T(("ag", "ae"))
            g = g + sandwiches["RESET"] - self.Delta * Nt("ae")

        self._sandwiches = sandwiches
        self.generator = g

        # the trace (row "population") and diagonal observables live on
        # diagonal-type classes; a class vector adds sqrt(multiplicity)
        counts = {name: np.zeros(self.dim)
                  for name in ("population", *_DIAG_OBSERVABLES)}
        for i, o in enumerate(occupations):
            if o["k"] or o["b"]:
                continue
            mult_d = factorial(self.n_elements) // (
                factorial(o["g"]) * factorial(o["e"]) * factorial(o["C"]))
            mult_a = factorial(self.n_registers) // (
                factorial(o["ae"]) * factorial(o["ag"]))
            w = np.sqrt(mult_d * mult_a)
            counts["population"][i] = w
            for name, site in _DIAG_OBSERVABLES.items():
                counts[name][i] = o[site] * w
        self._rows = {k: v.astype(complex) for k, v in counts.items()}

        # bra <-> ket swap permutation, for hermiticity diagnostics
        perm = np.empty(self.dim, dtype=np.int64)
        for c, i in self.classes.items():
            nk, nb, ne, nc, a = c
            perm[i] = self.classes[(nb, nk, ne, nc, a)]

        # classes sit on an (n_classes, 1) grid: a block M is the term (M, [[1]])
        self._one = one = CSR.from_dense(np.ones((1, 1)))
        self._view = EngineView(
            vec_dim=self.dim, n_sectors=1, g0=((self.generator, one),),
            jump=None, field_ket=((rm_ld - lm_ld, one),),
            field_bra=((lm_l - rm_l, one),),
            start=(np.array([self.classes[(0, 0, 0, 0, 0)]]), np.ones(1, complex)),
            trace=self._rows["population"], adjoint_perm=perm)

    # engine interface -----------------------------------------------

    def engine_view(self):
        return self._view

    def split_jumps(self, tags):
        """(g0, jump) terms with the sandwiches of the channels `tags` in
        jump; g0 is the generator less them, computed explicitly so that
        exact cancellations leave no stored entries."""
        j = CSR.zeros((self.dim, self.dim), complex)
        for tag in tags:
            if tag not in self._sandwiches:
                raise ConfigError(
                    f"no channel tagged {tag!r}; have {sorted(self._sandwiches)}")
            j = j + self._sandwiches[tag]
        return ((self.generator - j, self._one),), ((j, self._one),)

    def observable_row(self, name):
        """Row vector giving tr(O rho) for a per-site count observable."""
        if name not in self._rows:
            raise ConfigError(f"unknown observable {name!r}; "
                              f"have {sorted(self._rows)}")
        return self._rows[name]
