"""Shared test utilities.

The dense reference generator here is built independently of the package's
sparse assembly (plain numpy kron, row-major vec) so agreement between the
two is a real cross-check, not a tautology.
"""

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.csgraph import breadth_first_order

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


def to_scipy(m):
    """A package CSR as a scipy csr_matrix on the same arrays."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def superop(terms):
    """The superoperator of rho -> sum of A rho B over the terms (A, B),
    for vec(rho) stacked by rows: the sum of kron(A, B^T) in term order
    (scipy CSR, no stored zeros). None stays None."""
    if terms is None:
        return None
    a, b = terms[0]
    out = sp.csr_matrix((a.shape[0] * b.shape[0],) * 2, dtype=complex)
    for a, b in terms:
        out = out + sp.kron(to_scipy(a), to_scipy(b).T, format="csr")
    return out


def start_vector(ev):
    """The start state of an engine view as a full component vector."""
    y = np.zeros(ev.vec_dim, dtype=complex)
    y[ev.start[0]] = ev.start[1]
    return y


def trace_row(ev):
    """The full row r with r @ vec(rho) = tr(rho): on a tensor encoding the
    identity stacked by rows, built here from its shape; on the symmetric
    encoding the view's own class row."""
    if ev.dense_shape is None:
        return np.asarray(ev.trace)
    return np.eye(ev.dense_shape[0], dtype=complex).reshape(-1)


def dense_hierarchy(ev, field):
    """Full, unreduced hierarchy blocks (A0, Am, Ap) and start vector of an
    engine view driven by `field`, as dense arrays in the (member n, m;
    sector; component) layout: dy/dt = (A0 + E Am + E* Ap) y."""
    n_max = field.n_max if field is not None else 0
    np1, S, vd = n_max + 1, ev.n_sectors, ev.vec_dim

    def dense(terms):
        if terms is None:
            return np.zeros((vd, vd), dtype=complex)
        return superop(terms).toarray()

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
        y0[lo:lo + vd] = start_vector(ev)
    return a0, am, ap, y0


def full_grid_hierarchy(ev, field):
    """Reference reduction on the full grid: the sparse blocks of the whole
    (member, sector, component) layout built with kron, and a
    breadth-first search from the start vector's nonzeros along the union
    pattern of the blocks and of each monitored channel's kick, all built
    from `superop` of the view's terms. Returns keep
    and the blocks and start vector restricted to it (am, ap None when the
    field carries no photons)."""
    n_max = field.n_max if field is not None else 0
    np1, S, vd = n_max + 1, ev.n_sectors, ev.vec_dim
    g0 = superop(ev.g0)
    if S > 1:
        feed = sp.diags([np.ones(S - 1)], [-1], shape=(S, S), format="lil")
        feed[S - 1, S - 1] = 1.0   # the last sector keeps "S-1 or more"
        sector = (sp.kron(sp.identity(S), g0, format="csr")
                  + sp.kron(feed, superop(ev.jump), format="csr"))
    else:
        sector = g0
    a0 = sp.kron(sp.identity(np1 * np1), sector, format="csr")
    am = ap = None
    if n_max > 0:
        up = sp.diags([np.sqrt(np.arange(1.0, np1))], [-1])  # n <- n-1, sqrt(n)
        # format="csr" throughout: kron's default may store the zeros of
        # a dense-looking factor, which would count as coupling here
        ket = sp.kron(up, sp.identity(np1), format="csr")
        bra = sp.kron(sp.identity(np1), up, format="csr")
        eye_s = sp.identity(S)
        am = sp.kron(ket, sp.kron(eye_s, superop(ev.field_ket), format="csr"),
                     format="csr")
        ap = sp.kron(bra, sp.kron(eye_s, superop(ev.field_bra), format="csr"),
                     format="csr")
    y0 = np.zeros(a0.shape[0], dtype=complex)
    for n in range(np1):
        lo = (n * np1 + n) * S * vd
        y0[lo:lo + vd] = start_vector(ev)
    blocks = [b for b in (a0, am, ap) if b is not None]
    blocks += [sp.kron(sp.identity(np1 * np1 * S), superop(kick), format="csr")
               for kick in ev.kicks]
    # edge j -> i wherever a block has an (i, j) entry; node N feeds the seeds
    size = y0.size
    seeds = np.flatnonzero(y0)
    coos = [b.tocoo() for b in blocks]
    src = np.concatenate([c.col for c in coos] + [np.full(seeds.size, size)])
    dst = np.concatenate([c.row for c in coos] + [seeds])
    graph = sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(size + 1, size + 1))
    keep = np.sort(breadth_first_order(graph, size, return_predecessors=False)[1:])

    def restrict(m):
        return None if m is None else m[keep][:, keep]

    return keep, restrict(a0), restrict(am), restrict(ap), y0[keep]


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
              @ trace_row(ev))
    return np.real(np.einsum("nm,tnms->st", field.coefficients, traces))


def compiled_reference(model, field, t_span, t_eval, rho0=None, rtol=1e-12,
                       atol=1e-14):
    """States at t_eval, (nt, kept), and sector traces,
    (n_max+1, n_max+1, S, nt), of `compile_hierarchy`'s ODE integrated by
    scipy's DOP853, independently of the package's integrators. A driven
    run caps the step at the envelope's step bound over the whole span."""
    from pnrsim.hierarchy import compile_hierarchy
    ode = compile_hierarchy(model, field, t_span, rho0=rho0)
    a0 = to_scipy(ode.a0)
    max_step = np.inf
    if ode.am is None:
        def rhs(t, y):
            return a0 @ y
    else:
        am, ap, env = to_scipy(ode.am), to_scipy(ode.ap), ode.envelope
        max_step = env.step_bound

        def rhs(t, y):
            e = env(t)
            return a0 @ y + e * (am @ y) + np.conj(e) * (ap @ y)

    sol = solve_ivp(rhs, (ode.t0, ode.t1), ode.y0, method="DOP853",
                    t_eval=t_eval, rtol=rtol, atol=atol, max_step=max_step)
    assert sol.success, sol.message
    ev, np1 = ode.engine, ode.n_max + 1
    blk, pos = np.divmod(ode.keep, ev.vec_dim)
    traces = np.zeros((np1 * np1 * ev.n_sectors, len(t_eval)), dtype=complex)
    np.add.at(traces, blk, sol.y * trace_row(ev)[pos][:, None])
    return sol.y.T, traces.reshape(np1, np1, ev.n_sectors, len(t_eval))


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


def loop_trajectory(liou, field, t_span, seed, traj_index, dt, store_every,
                    rho0=None):
    """One trajectory stepped on its own with dense 1-d algebra, the
    reference the batched engine must match bitwise on dense blocks.
    Returns the stored <X> and cumulative records per monitored channel."""
    from pnrsim.hierarchy import compile_hierarchy
    from pnrsim.trajectories import _expm
    ode = compile_hierarchy(liou, field, t_span, rho0=rho0)
    ev, env, keep = ode.engine, ode.envelope, ode.keep
    amps = [a for a in ev.amps if a.k > 0]
    c = field.coefficients if field is not None else np.ones(1, dtype=complex)
    wvec = np.repeat(c.reshape(-1), ev.n_sectors)
    w = np.kron(wvec, trace_row(ev))[keep]
    kicks = [superop(kick) for kick in ev.kicks]
    rows = [np.kron(wvec, trace_row(ev) @ k)[keep] for k in kicks]
    sx = [sp.kron(sp.identity(wvec.size), k, format="csr")[keep][:, keep].toarray()
          for k in kicks]
    a0 = ode.a0.toarray()
    n_steps = max(1, int(np.ceil((ode.t1 - ode.t0) / dt)))
    h = (ode.t1 - ode.t0) / n_steps
    prop0 = _expm(a0 * h)
    rng = np.random.Generator(np.random.Philox(key=[seed, traj_index]))

    def expectations(y):
        tr = (w @ y).real
        return [0.5 * (row @ y).real / tr for row in rows]

    y = ode.y0.copy()
    r_cum = np.zeros(len(amps))
    obs, rec = [expectations(y)], [r_cum.copy()]
    for step in range(n_steps):
        e = env(ode.t0 + h * (step + 0.5)) if ode.am is not None else 0.0
        prop = prop0
        if e != 0:
            # order-4 Taylor propagator of the midpoint generator, Horner form
            a = ode.am.toarray() * e + ode.ap.toarray() * np.conj(e) + a0
            eye = np.eye(a0.shape[0])
            prop = eye + (h / 4) * a
            prop = eye + (h / 3) * (a @ prop)
            prop = eye + (h / 2) * (a @ prop)
            prop = eye + h * (a @ prop)
        y = prop @ y
        if step % 256 == 0:
            dws = rng.standard_normal((256, len(amps))) * np.sqrt(h)
        dw = dws[step % 256]
        tr = (w @ y).real
        kick, c_y = None, 0.0
        for i in range(len(amps)):
            ex = 0.5 * (rows[i] @ y).real / tr
            gd = np.sqrt(2.0 * amps[i].k) * dw[i]
            v = gd * (sx[i] @ y)
            kick = v if kick is None else kick + v
            c_y -= 2.0 * gd * ex
            r_cum[i] += ex * h + 1.0 / np.sqrt(8.0 * amps[i].k) * dw[i]
        y = y + kick + c_y * y
        y = y / (w @ y).real
        if (step + 1) % store_every == 0 or step + 1 == n_steps:
            obs.append(expectations(y))
            rec.append(r_cum.copy())
    tags = [a.tag for a in amps]
    return ({t: np.array(obs)[:, i] for i, t in enumerate(tags)},
            {t: np.array(rec)[:, i] for i, t in enumerate(tags)})
