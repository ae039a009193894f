"""Shared test utilities.

The dense reference generator here is built independently of the package's
sparse assembly (plain numpy kron, row-major vec) so agreement between the
two is a real cross-check, not a tautology.
"""

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from pnrsim.architectures import (DosModel, build_array, build_band_element,
                                  build_pnr, build_single_element)


def dense_generator(hamiltonian, collapse_ops):
    """Dense Lindblad superoperator for vec(rho) stacked by rows."""
    ops = [np.asarray(a, dtype=complex) for a in collapse_ops]
    d = ops[0].shape[0] if ops else np.asarray(hamiltonian).shape[0]
    eye = np.eye(d)
    g = np.zeros((d * d, d * d), dtype=complex)
    if hamiltonian is not None:
        h = np.asarray(hamiltonian, dtype=complex)
        g += -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for a in ops:
        ada = a.conj().T @ a
        g += np.kron(a, a.conj()) - 0.5 * (np.kron(ada, eye) + np.kron(eye, ada.T))
    return g


def liouvillian_dense_parts(liou):
    """(H, [collapse matrices]) of an assembled tensor Liouvillian,
    amplifier channels included with their sqrt(2k) prefactor."""
    h = liou.hamiltonian.matrix.toarray() if liou.hamiltonian is not None else None
    ops = [c.op.matrix.toarray() for c in liou.channels]
    ops += [np.sqrt(2.0 * a.k) * a.op.matrix.toarray() for a in liou.amps]
    return h, ops


def expm_evolve(liou, rho0, t):
    """Reference evolution exp(G t) rho0 through the dense generator."""
    h, ops = liouvillian_dense_parts(liou)
    g = dense_generator(h, ops)
    d = rho0.shape[0]
    return (la.expm(g * t) @ np.asarray(rho0, dtype=complex).reshape(-1)).reshape(d, d)


def dense_hierarchy(ev, field):
    """Full, unreduced hierarchy blocks (A0, Am, Ap) and start vector of an
    engine view driven by `field`, as dense arrays in the (member n, m;
    sector; component) layout: dy/dt = (A0 + E Am + E* Ap) y."""
    n_max = field.n_max if field is not None else 0
    np1, S, vd = n_max + 1, ev.n_sectors, ev.vec_dim

    def dense(m):
        return np.zeros((vd, vd), dtype=complex) if m is None else m.toarray()

    feed = np.eye(S, k=-1)           # counted jumps move sector s -> s+1
    feed[-1, -1] = 1.0               # the last sector keeps "S-1 or more"
    a0 = np.kron(np.eye(np1 * np1),
                 np.kron(np.eye(S), dense(ev.g0)) + np.kron(feed, dense(ev.jump)))
    up = np.diag(np.sqrt(np.arange(1.0, np1)), k=-1)   # n <- n-1, weight sqrt(n)
    am = np.kron(np.kron(up, np.eye(np1)), np.kron(np.eye(S), dense(ev.field_ket)))
    ap = np.kron(np.kron(np.eye(np1), up), np.kron(np.eye(S), dense(ev.field_bra)))
    y0 = np.zeros(a0.shape[0], dtype=complex)
    for n in range(np1):
        lo = (n * np1 + n) * S * vd
        y0[lo:lo + vd] = ev.default_state
    return a0, am, ap, y0


def dense_count_probabilities(ev, field, t_eval, **solve_kw):
    """Count-sector probabilities (S, nt) from a dense solve of the full
    hierarchy on [t_eval[0], t_eval[-1]]."""
    a0, am, ap, y0 = dense_hierarchy(ev, field)
    # mostly zeros: sparse products only make the reference solve fast
    a0, am, ap = sp.csr_matrix(a0), sp.csr_matrix(am), sp.csr_matrix(ap)
    env = field.envelope

    def rhs(t, y):
        e = env(t)
        return a0 @ y + e * (am @ y) + np.conj(e) * (ap @ y)

    sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]), y0, t_eval=t_eval, **solve_kw)
    assert sol.success, sol.message
    np1 = field.n_max + 1
    traces = (sol.y.T.reshape(len(t_eval), np1, np1, ev.n_sectors, ev.vec_dim)
              @ ev.trace_row)
    return np.real(np.einsum("nm,tnms->st", field.coefficients, traces))


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_architecture(rng):
    """Small random instance of any tensor architecture kind.

    Rates land in a moderate band so none of the dynamics is stiff; sizes
    stay small enough that the counting run plus the unresolved reference
    run are cheap.
    """
    kind = rng.choice(["single", "band", "array", "pnr"])
    gamma = float(rng.uniform(0.3, 1.2))
    Gamma = float(rng.uniform(0.3, 1.2))
    Delta = float(rng.choice([0.0, rng.uniform(0.1, 0.5)]))
    dw = float(rng.uniform(-0.5, 0.5))
    k = float(rng.choice([0.0, rng.uniform(0.1, 0.5)]))
    if kind == "single":
        return build_single_element(gamma, Gamma, Delta=Delta, k=k, delta_omega=dw)
    if kind == "band":
        dos = DosModel(rng.choice(["lorentzian", "flat2d", "vanhove1d"]), width=1.0)
        return build_band_element(dos, int(rng.integers(2, 4)), gamma, Gamma,
                                  Delta=Delta, k=k, delta_omega=dw)
    if kind == "array":
        return build_array(2, gamma, Gamma, Delta=Delta, k=k, delta_omega=dw)
    return build_pnr(int(rng.integers(1, 3)), 1, gamma=gamma, Gamma=Gamma,
                     k_A=float(rng.uniform(0.4, 1.2)), Delta=Delta, k=k,
                     delta_omega=dw)
