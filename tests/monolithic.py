"""A monolithic backward-Euler stepper for the transient Stokes system
with the PSPG-type (Brezzi-Pitkaranta) pressure stabilization delta S,

    [ M/dt + nu A      G     ] [v^{n+1}]   [(M/dt) v^n + b^{n+1}]
    [     G^T      -delta S  ] [q^{n+1}] = [          0          ]

on the free velocity DOFs (both components) and every pressure DOF.  At
fixed delta the projection schemes split this step, so their pressures
tend to its pressure as dt -> 0.  It shares no solver path with the
package: the whole matrix, assembled from the scalar operators of a
``Discretization`` and pinned at pressure DOF 0, is factored once per
run by SuperLU with partial pivoting, without the symmetry blocks, and
each pressure is shifted to zero discrete mean.
"""

import numpy as np
import scipy.sparse.linalg as spla

import checks
import dense_oracle
from stokesproj import sparsela
from stokesproj.assembly import componentwise


def run(disc, load_at, v0, nu, delta, dt, steps):
    """The (velocity, pressure) after ``steps`` monolithic steps of size
    ``dt`` on ``disc`` from the free velocity ``v0``, with ``load_at(t)``
    the load at time t on the free velocity DOFs."""
    momentum = disc.mass_free / dt + nu * checks.free_stiffness(disc)
    k = dense_oracle.saddle_matrix(momentum, disc.G, disc.stiffness, -delta * disc.stiffness)
    nv = disc.G.shape[0]
    keep = np.flatnonzero(np.arange(k.shape[0]) != nv)
    solve = spla.splu(k[keep][:, keep].tocsc()).solve
    sol, rhs = np.zeros(k.shape[0]), np.zeros(keep.size)
    v = v0
    for step in range(1, steps + 1):
        rhs[:nv] = componentwise(disc.mass_free, v) / dt + load_at(step * dt)
        sol[keep] = solve(rhs)
        v = sol[:nv].copy()
    return v, sparsela.project_mean(sol[nv:], disc.mean_weights)
