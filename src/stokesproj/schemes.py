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
stable under dt <= delta and blows up beyond 2 delta, which the stability
probe exercises on purpose.  ``SchemeParams.max_dt_ratio`` is the
largest dt/delta a run accepts (1 by default, 2 for the probe, ``inf``
on request); ``SchemeParams.check_guard`` is the one place that rule
is written, and it runs when a SchemeParams is made, so parameters that
exist have passed it and the T/dt check; the CLI validates configs by
making them.

Velocities are stepped on the free DOFs and pressures are kept at zero
discrete mean.  The velocity system matrix has one scalar block per
velocity component, so one scalar factorization of M/dt + nu A
(``assembly.Discretization.momentum``) serves every step of a run.  The
steps take that factor and read every other operator from the
Discretization, the pressure solve too: factor-free for P1 and one
pinned factorization of S for P2.  ``run`` is the one time loop: it
steps one run from the initial state its caller gives it, so a caller
chooses that state (the stability probe starts every dt/delta ratio
from one), and the experiment runners only choose what each step
records.
"""

from dataclasses import dataclass

import numpy as np

from . import femspace, sparsela, steady
from .assembly import componentwise

_GUARD_SLACK = 1.0 + 1e-12

SCHEMES = ("noninc", "inc")
INITS = ("interpolant", "stabilized_stokes", "zero_pressure")


class SchemeGuardError(ValueError):
    """Raised when the time step violates the stability guard."""


@dataclass(frozen=True)
class SchemeParams:
    """Time-stepping configuration, checked when it is made.

    ``delta2`` (incremental scheme only) defaults to delta, the analyzed
    case.  ``max_dt_ratio`` is the largest dt/delta that the time-step
    guard accepts: 1, the stable range, by default; 2 for the stability
    probe; ``inf`` to run any dt, unstable ones included.  Construction
    raises SchemeGuardError beyond it and ValueError for any other bad
    value, T not a multiple of dt included.
    """

    nu: float
    dt: float
    T: float
    delta: float
    delta2: float = None
    scheme: str = "noninc"
    init: str = "stabilized_stokes"
    max_dt_ratio: float = 1.0
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
        if self.scheme == "inc" and self.delta2 is None:
            object.__setattr__(self, "delta2", self.delta)  # the dataclass is frozen
        self.check_guard()
        self.num_steps()

    def check_guard(self):
        """Raise SchemeGuardError when dt > max_dt_ratio * delta."""
        if self.dt > self.max_dt_ratio * self.delta * _GUARD_SLACK:
            raise SchemeGuardError(
                f"dt = {self.dt:g} exceeds {self.max_dt_ratio:g}*delta = "
                f"{self.max_dt_ratio * self.delta:g}; the scheme is stable for dt <= delta, "
                "runs up to 2*delta only on request and is unstable beyond"
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
    """State after ``step`` steps at t = step * dt: velocity coefficients
    on the free velocity DOFs (component blocks), pressure coefficients on
    every pressure DOF.  ``pressure_prev`` is carried by the incremental
    scheme."""

    step: int
    t: float
    velocity: np.ndarray
    pressure: np.ndarray
    pressure_prev: np.ndarray = None


def initialize(params, case, disc):
    """Initial (velocity, pressure) state on ``disc`` for the configured strategy.

    interpolant:        nodal interpolants of v(0) and q(0), the pressure
                        shifted to zero discrete mean;
    stabilized_stokes:  the stabilized steady solve at delta with data
                        g(0) - v_t(0), which is the steady forcing (a
                        failed solve raises its LinearSolverError); its
                        saddle blocks live only inside that solve;
    zero_pressure:      interpolated velocity and identically zero pressure.

    The velocity keeps only its free DOFs, so its Dirichlet values are zero.
    """
    space = disc.space
    if params.init == "stabilized_stokes":
        (solution,) = steady.solve(disc, params.nu, [params.delta],
                                   disc.free_load(case.steady_forcing), params.tol)
        if isinstance(solution, sparsela.LinearSolverError):
            raise solution
        v0, q0 = solution
    else:
        v0 = femspace.interpolate(space, lambda x, y: case.velocity(x, y, 0.0))
        if params.init == "interpolant":
            q0 = sparsela.project_mean(
                femspace.interpolate(space, lambda x, y: case.pressure(x, y, 0.0)),
                disc.mean_weights,
            )
        else:
            q0 = np.zeros(space.num_dofs)
    return TimeState(step=0, t=0.0, velocity=space.restrict(v0), pressure=q0,
                     pressure_prev=q0 if params.scheme == "inc" else None)


def _advance(state, params, disc, momentum, load, pressure_in_momentum):
    rhs = componentwise(disc.mass_free, state.velocity) / params.dt + load
    rhs = rhs - disc.G @ pressure_in_momentum
    return momentum.solve(rhs.reshape(2, -1).T).T.ravel()


def _pressure_solve(disc, rhs, coefficient):
    """Solve coefficient * S q = rhs on the zero-mean subspace."""
    q = disc.pressure_solver.solve(rhs / coefficient)
    return sparsela.project_mean(q, disc.mean_weights)


def step_noninc(state, params, disc, momentum, load):
    """One step of the non-incremental scheme on ``disc``; ``momentum``
    is the factor of M/dt + nu A and ``load`` the load vector at t_{n+1}
    on the free velocity DOFs."""
    v_new = _advance(state, params, disc, momentum, load, state.pressure)
    q_new = _pressure_solve(disc, disc.GT @ v_new, params.delta)
    return TimeState(step=state.step + 1, t=state.t + params.dt, velocity=v_new, pressure=q_new)


def step_inc(state, params, disc, momentum, load):
    """One step of the incremental scheme with pressure extrapolation
    2 q^n - q^{n-1} in the momentum equation; the arguments as for
    ``step_noninc``."""
    q_hat = 2.0 * state.pressure - state.pressure_prev
    v_new = _advance(state, params, disc, momentum, load, q_hat)
    rhs_p = params.delta * (disc.stiffness @ state.pressure) + disc.GT @ v_new
    return TimeState(
        step=state.step + 1,
        t=state.t + params.dt,
        velocity=v_new,
        pressure=_pressure_solve(disc, rhs_p, params.delta + params.delta2),
        pressure_prev=state.pressure,
    )


@dataclass
class RunResult:
    final_state: TimeState
    diverged: bool
    energies: np.ndarray
    records: list


def run(params, state, case, disc, observe=None, energy_ceiling=None):
    """Step the run ``params`` on ``disc`` from ``state`` with forcing from
    ``case``; returns its RunResult.

    ``state`` is usually ``initialize(params, case, disc)``; runs may
    share one, as nothing writes into a state's arrays.  ``observe(state)``
    is called on the initial state and after every step, and its return
    values are the run's ``records``.  The run stops and is marked
    diverged once its velocity stops being finite or, when
    ``energy_ceiling`` is set, once its velocity energy exceeds ceiling *
    max(initial energy, 1e-300); ``energies`` holds that history, the
    diverged step's energy included.  ``final_state`` is the last state
    that passed this test.  The run's momentum matrix and factor are
    freed on return.
    """
    loads = [(tf, disc.free_load(sf)) for tf, sf in case.forcing_terms()]
    momentum = sparsela.FactorizedSpd(disc.momentum(params.dt, params.nu))
    step = step_noninc if params.scheme == "noninc" else step_inc

    def energy_of(v):
        return float(np.sum(v * componentwise(disc.mass_free, v)))

    track_energy = energy_ceiling is not None
    energies = [energy_of(state.velocity)] if track_energy else []
    floor = max(energies[0], 1e-300) if track_energy else None
    records = [] if observe is None else [observe(state)]
    diverged = False
    for _ in range(params.num_steps()):
        t_next = state.t + params.dt
        new = step(state, params, disc, momentum, sum(tf(t_next) * vec for tf, vec in loads))
        if track_energy:
            energy = energy_of(new.velocity)
            energies.append(energy)
            diverged = not np.isfinite(energy) or energy > energy_ceiling * floor
        else:
            with np.errstate(over="ignore"):  # an overflow is the divergence it detects
                diverged = not np.isfinite(new.velocity @ new.velocity)
        if diverged:
            break
        state = new
        if observe is not None:
            records.append(observe(state))
    return RunResult(state, diverged, np.asarray(energies), records)
