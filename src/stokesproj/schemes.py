"""Projection (fractional-step) time integrators for the transient Stokes
equations with equal-order elements.

Non-incremental scheme (one step, free velocity DOFs, block matrices):

    (M/dt + nu A) v~^{n+1} = (M/dt) v~^n + b^{n+1} - G q^n
    delta S q^{n+1} = G^T v~^{n+1}

Incremental scheme with second stabilization weight delta2:

    (M/dt + nu A) v~^{n+1} = (M/dt) v~^n + b^{n+1} - G (2 q^n - q^{n-1})
    (delta + delta2) S q^{n+1} = delta S q^n + G^T v~^{n+1}

For delta = dt the non-incremental scheme is the classical first-order
pressure-projection update; with delta decoupled from dt it remains
stable under dt <= delta (accepted up to dt <= 2 delta with an explicit
override), and blows up beyond, which the stability probe exercises on
purpose.  ``SchemeParams.check_guard`` is the one place that rule is
written; the CLI validates configs with it.

Pressures are kept at zero discrete mean.  The velocity system matrix is
block-diagonal over components, so one scalar factorization (and one
pinned factorization of S) serves every step.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import assembly, femspace, sparsela, steady
from .assembly import componentwise

_GUARD_SLACK = 1.0 + 1e-12

SCHEMES = ("noninc", "inc")
INITS = ("interpolant", "stabilized_stokes", "zero_pressure")


class SchemeGuardError(ValueError):
    """Raised when the time step violates the stability guard."""


class SchemeStepError(RuntimeError):
    """Linear solver failure inside a time step, annotated with the step."""


@dataclass(frozen=True)
class SchemeParams:
    """Time-stepping configuration.

    ``delta2`` (incremental scheme only) defaults to delta, the analyzed
    case.  The time-step guard refuses dt > delta unless
    ``allow_dt_up_to_2delta`` is set, and refuses dt > 2 delta unless
    ``allow_unstable`` is set (stability-probe mode).
    """

    nu: float
    dt: float
    T: float
    delta: float
    delta2: float = None
    scheme: str = "noninc"
    init: str = "stabilized_stokes"
    allow_dt_up_to_2delta: bool = False
    allow_unstable: bool = False
    tol: float = 1e-10

    def __post_init__(self):
        if self.nu <= 0.0:
            raise ValueError("viscosity must be positive")
        if self.dt <= 0.0:
            raise ValueError("time step must be positive")
        if self.T <= 0.0:
            raise ValueError("final time must be positive")
        if self.delta <= 0.0:
            raise ValueError("stabilization parameter delta must be positive")
        if self.delta2 is not None and self.delta2 < 0.0:
            raise ValueError("delta2 must be nonnegative")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}; choose from {INITS}")

    def resolved(self):
        """Default delta2 to delta for the incremental scheme and run all
        guards; warns when dt lies in the delta < dt <= 2 delta band."""
        params = self
        if self.scheme == "inc" and self.delta2 is None:
            params = replace(self, delta2=self.delta)
        params.check_guard()
        if params.delta * _GUARD_SLACK < params.dt <= 2.0 * params.delta * _GUARD_SLACK:
            warnings.warn(
                "running with delta < dt <= 2*delta, outside the default guard",
                stacklevel=2,
            )
        params.num_steps()
        return params

    def check_guard(self):
        """Raise SchemeGuardError when dt breaches the guard for the flags set."""
        if self.dt > 2.0 * self.delta * _GUARD_SLACK:
            if not self.allow_unstable:
                raise SchemeGuardError(
                    f"dt = {self.dt:g} exceeds twice the stabilization parameter "
                    f"2*delta = {2 * self.delta:g}; the scheme is unstable there"
                )
        elif self.dt > self.delta * _GUARD_SLACK:
            if not (self.allow_dt_up_to_2delta or self.allow_unstable):
                raise SchemeGuardError(
                    f"dt = {self.dt:g} exceeds delta = {self.delta:g}; steps up to "
                    "2*delta are accepted only on request"
                )

    def num_steps(self):
        n = int(round(self.T / self.dt))
        if n < 1 or abs(n * self.dt - self.T) > 1e-8 * max(self.T, self.dt):
            raise ValueError(
                f"final time T = {self.T!r} is not an integer multiple of dt = {self.dt!r}"
            )
        return n


@dataclass
class TimeState:
    """State after ``step`` steps: velocity/pressure coefficients at
    t = step * dt.  ``pressure_prev`` is carried by the incremental scheme."""

    step: int
    t: float
    velocity: np.ndarray
    pressure: np.ndarray
    pressure_prev: np.ndarray = None


class SchemeOperators:
    """Operators, factorizations and loads for time stepping with ``params``
    on one Discretization.  Immutable once built; shared by all steps."""

    def __init__(self, disc, params):
        self.v_space = disc.v_space
        self.params = params
        self.Ms = disc.mass_free
        self.As = disc.stiffness_free
        self.H = (self.Ms / params.dt + params.nu * self.As).tocsr()
        self.G = disc.G
        self.S = disc.stiffness
        self.mean_weights = disc.mean_weights
        self.num_free = self.v_space.num_free_scalar
        self._h_solver = sparsela.FactorizedSpd(self.H)
        self._s_solver = disc.pressure_solver
        self._load_terms = None

    # loads -----------------------------------------------------------------
    def set_forcing_terms(self, terms):
        """Precompute load vectors of separable forcing terms
        [(time_coefficient, spatial_field), ...]."""
        self._load_terms = [
            (tf, assembly.assemble_load(self.v_space, sf, restrict=True))
            for tf, sf in terms
        ]

    def load(self, g, t):
        """Load vector on free DOFs at time ``t``: ``g`` itself when it is
        an array, else the sum of the registered separable terms."""
        if g is not None:
            return g
        if self._load_terms is None:
            raise ValueError("no forcing terms registered")
        out = np.zeros(2 * self.num_free)
        for tf, vec in self._load_terms:
            out += tf(t) * vec
        return out

    # solves ----------------------------------------------------------------
    def momentum_solve(self, rhs_block):
        """Solve (M/dt + nu A) per component; rhs and result in block layout."""
        return self._h_solver.solve(rhs_block.reshape(2, -1).T).T.ravel()

    def pressure_solve(self, rhs, coefficient):
        """Solve coefficient * S q = rhs on the zero-mean subspace."""
        q = self._s_solver.solve(rhs / coefficient)
        return sparsela.project_mean(q, self.mean_weights)

    def velocity_energy(self, velocity_full):
        vf = self.v_space.restrict(velocity_full).reshape(2, -1)
        return float(np.sum(vf * (self.Ms @ vf.T).T))


def initialize(params, case, disc):
    """Initial (velocity, pressure) state on ``disc`` for the configured strategy.

    interpolant:        nodal interpolants of v(0) and q(0), the pressure
                        shifted to zero discrete mean;
    stabilized_stokes:  the stabilized steady solve with data
                        g(0) - v_t(0);
    zero_pressure:      interpolated velocity and identically zero pressure.
    """
    v_space, p_space = disc.v_space, disc.p_space
    if params.init == "stabilized_stokes":
        ops = steady.SteadyOperators(disc)
        sol = ops.solve(params.nu, params.delta, ops.load(case.steady_data(0.0)),
                        tol=params.tol)
        v0, q0 = sol.velocity, sol.pressure
    else:
        v0 = femspace.interpolate(v_space, lambda x, y: case.velocity(x, y, 0.0))
        if params.init == "interpolant":
            q0 = sparsela.project_mean(
                femspace.interpolate(p_space, lambda x, y: case.pressure(x, y, 0.0)),
                disc.mean_weights,
            )
        else:
            q0 = np.zeros(p_space.num_dofs)
    v0 = v0.copy()
    v0[v_space.dirichlet_dofs()] = 0.0
    prev = q0.copy() if params.scheme == "inc" else None
    return TimeState(step=0, t=0.0, velocity=v0, pressure=q0, pressure_prev=prev)


def _advance(state, params, ops, load_block, pressure_in_momentum):
    vf = ops.v_space.restrict(state.velocity)
    rhs = componentwise(ops.Ms, vf) / params.dt + load_block - ops.G @ pressure_in_momentum
    try:
        v_new = ops.momentum_solve(rhs)
    except sparsela.LinearSolverError as exc:
        raise SchemeStepError(f"momentum solve failed at step {state.step + 1}: {exc}") from exc
    return v_new


def step_noninc(state, params, ops, g):
    """One step of the non-incremental scheme; ``g`` is the load vector at
    t_{n+1}, or None to use the registered separable terms."""
    t_next = state.t + params.dt
    load_block = ops.load(g, t_next)
    v_new = _advance(state, params, ops, load_block, state.pressure)
    try:
        q_new = ops.pressure_solve(ops.G.T @ v_new, params.delta)
    except sparsela.LinearSolverError as exc:
        raise SchemeStepError(f"pressure solve failed at step {state.step + 1}: {exc}") from exc
    return TimeState(
        step=state.step + 1,
        t=t_next,
        velocity=ops.v_space.extend(v_new),
        pressure=q_new,
    )


def step_inc(state, params, ops, g):
    """One step of the incremental scheme with pressure extrapolation
    2 q^n - q^{n-1} in the momentum equation."""
    if params.delta2 is None:
        raise ValueError("incremental step needs delta2 resolved (params.resolved)")
    t_next = state.t + params.dt
    load_block = ops.load(g, t_next)
    q_hat = 2.0 * state.pressure - state.pressure_prev
    v_new = _advance(state, params, ops, load_block, q_hat)
    rhs_p = params.delta * (ops.S @ state.pressure) + ops.G.T @ v_new
    try:
        q_new = ops.pressure_solve(rhs_p, params.delta + params.delta2)
    except sparsela.LinearSolverError as exc:
        raise SchemeStepError(f"pressure solve failed at step {state.step + 1}: {exc}") from exc
    return TimeState(
        step=state.step + 1,
        t=t_next,
        velocity=ops.v_space.extend(v_new),
        pressure=q_new,
        pressure_prev=state.pressure.copy(),
    )


@dataclass
class RunResult:
    params: SchemeParams
    final_state: TimeState
    diverged: bool
    steps_completed: int
    energies: np.ndarray


def run(params, case, disc, observers=(), energy_ceiling=None, initial_state=None):
    """Execute the configured scheme on ``disc`` with forcing from ``case``.

    Observers are callables ``observer(state)`` invoked on the initial
    state and after every step.  When ``energy_ceiling`` is set,
    the run stops and is marked diverged once the velocity energy exceeds
    ceiling * max(initial energy, 1e-300) or stops being finite.  A given
    ``initial_state`` (left unmodified) replaces ``initialize``.  Returns a
    RunResult; per-step records live in the observers.
    """
    params = params.resolved()
    ops = SchemeOperators(disc, params)
    ops.set_forcing_terms(case.forcing_terms())
    state = initialize(params, case, disc) if initial_state is None else initial_state
    step_fn = step_noninc if params.scheme == "noninc" else step_inc

    track_energy = energy_ceiling is not None
    energies = [ops.velocity_energy(state.velocity)] if track_energy else []
    floor = max(energies[0], 1e-300) if track_energy else None
    for obs in observers:
        obs(state)
    diverged = False
    for _ in range(params.num_steps()):
        state = step_fn(state, params, ops, None)
        if track_energy:
            energy = ops.velocity_energy(state.velocity)
            energies.append(energy)
            if not np.isfinite(energy) or energy > energy_ceiling * floor:
                diverged = True
                break
        elif not np.isfinite(state.velocity @ state.velocity):
            diverged = True
            break
        for obs in observers:
            obs(state)
    return RunResult(
        params=params,
        final_state=state,
        diverged=diverged,
        steps_completed=state.step,
        energies=np.asarray(energies),
    )


def noninc_residuals(params, ops, v_old_full, v_new_full, q_momentum, q_new, load_block):
    """Residual norms of the two non-incremental relations for a completed
    step, relative to their right-hand-side scales.  Used by equivalence
    and consistency checks."""
    v_old = ops.v_space.restrict(v_old_full)
    v_new = ops.v_space.restrict(v_new_full)
    mom_rhs = componentwise(ops.Ms, v_old) / params.dt + load_block
    lhs = (
        componentwise(ops.Ms, v_new) / params.dt
        + params.nu * componentwise(ops.As, v_new)
        + ops.G @ q_momentum
    )
    mom_scale = max(np.linalg.norm(mom_rhs), 1e-300)
    mom_res = np.linalg.norm(lhs - mom_rhs) / mom_scale
    div_rhs = ops.G.T @ v_new
    div_scale = max(np.linalg.norm(div_rhs), 1e-300)
    div_res = np.linalg.norm(params.delta * (ops.S @ q_new) - div_rhs) / div_scale
    return mom_res, div_res
