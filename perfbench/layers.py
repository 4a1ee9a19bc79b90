"""Span arithmetic and the per-layer metrics derived from a traced run.

A span is a list ``[name, start, end, parent]``: ``start`` and ``end``
are seconds on one clock and ``parent`` is the index of the enclosing
span in the same list, or -1 at the top.  Parents always precede their
children in the list.
"""

# Layer groups: a metric named ``<group>_s`` is the time covered by the
# outermost spans of the group (a span nested inside another span of the
# same group is not counted twice), ``<group>_calls`` their number.
GROUPS = {
    "mesh.build_grid": ("mesh.build_grid",),
    "femspace.build_space": ("femspace.build_space",),
    "femspace.interpolate": ("femspace.interpolate",),
    "assembly.operator": (
        "assembly.assemble_mass",
        "assembly.assemble_stiffness",
        "assembly.assemble_pressure_stiffness",
        "assembly.assemble_pressure_gradient",
    ),
    "assembly.load": ("assembly.assemble_load", "assembly.assemble_gradient_load"),
    "mms.eval": ("mms.ManufacturedCase.*",),
    "sparsela.saddle": ("sparsela.saddle_solve",),
    "sparsela.factor": ("sparsela.splu",),
    "sparsela.tri_solve": (
        "sparsela.FactorizedSpd.solve",
        "sparsela.PinnedSingularSolver.solve",
    ),
    "steady.operators": ("steady.SteadyOperators.__init__",),
    "schemes.operators": ("schemes.SchemeOperators.__init__",),
    "schemes.initialize": ("schemes.initialize",),
    "schemes.step": ("schemes.step_noninc", "schemes.step_inc"),
    "metrics.tracker_init": ("metrics.TransientErrorTracker.__init__",),
    "metrics.tracker_call": ("metrics.TransientErrorTracker.__call__",),
    "metrics.error_vs_exact": ("metrics.error_vs_exact",),
    "metrics.space_norms": ("metrics.SpaceNorms.*",),
}

# What schemes.step_self_s takes out of a step: the solves, factorizations
# and sparse products anywhere inside it.  Loads, restrict/extend, mean
# projection and the scheme's own solve wrappers stay in the step's time.
STEP_WORK = (
    GROUPS["sparsela.tri_solve"]
    + GROUPS["sparsela.saddle"]
    + GROUPS["sparsela.factor"]
    + ("sparse.matmul",)
)

# (metric, unit): every per-layer metric the traced run reports, in order.
PER_LAYER = (
    ("mesh.build_grid_s", "s"),
    ("mesh.build_grid_calls", "count"),
    ("femspace.build_space_calls", "count"),
    ("femspace.interpolate_s", "s"),
    ("assembly.operator_s", "s"),
    ("assembly.operator_calls", "count"),
    ("assembly.load_s", "s"),
    ("assembly.load_calls", "count"),
    ("mms.eval_s", "s"),
    ("mms.eval_calls", "count"),
    ("sparsela.saddle_s", "s"),
    ("sparsela.saddle_calls", "count"),
    ("sparsela.saddle_refinements", "count"),
    ("sparsela.factor_s", "s"),
    ("sparsela.factor_calls", "count"),
    ("sparsela.factor_nnz", "count"),
    ("sparsela.tri_solve_s", "s"),
    ("sparsela.tri_solve_calls", "count"),
    ("steady.operators_s", "s"),
    ("steady.operators_calls", "count"),
    ("schemes.operators_s", "s"),
    ("schemes.operators_calls", "count"),
    ("schemes.initialize_s", "s"),
    ("schemes.steps", "count"),
    ("schemes.step_self_s", "s"),
    ("schemes.step_ms_p50", "ms"),
    ("schemes.step_ms_p99", "ms"),
    ("metrics.tracker_init_s", "s"),
    ("metrics.tracker_call_s", "s"),
    ("metrics.error_vs_exact_s", "s"),
    ("metrics.error_vs_exact_calls", "count"),
    ("metrics.space_norms_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Counters filled by the tracer from return values (see tracer.py).
COUNTERS = ("sparsela.saddle_refinements", "sparsela.factor_nnz")


def _matches(name, patterns):
    for pattern in patterns:
        if pattern.endswith("*"):
            if name.startswith(pattern[:-1]):
                return True
        elif name == pattern:
            return True
    return False


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        kids = [(spans[k][1], spans[k][2]) for k in children[i]]
        out.append((end - start) - covered(kids))
    return out


def outermost(spans, patterns):
    """Indices of spans matching ``patterns`` with no matching ancestor."""
    hits = []
    for i, (name, _, _, parent) in enumerate(spans):
        if not _matches(name, patterns):
            continue
        while parent >= 0 and not _matches(spans[parent][0], patterns):
            parent = spans[parent][3]
        if parent < 0:
            hits.append(i)
    return hits


def step_self_times(spans, steps):
    """Per step in ``steps``: its duration minus the time that STEP_WORK
    spans anywhere inside it cover."""
    step_of = [-1] * len(spans)
    for i in steps:
        step_of[i] = i
    work = {i: [] for i in steps}
    for i, (name, start, end, parent) in enumerate(spans):
        if step_of[i] < 0 and parent >= 0:
            step_of[i] = step_of[parent]
            if step_of[i] >= 0 and _matches(name, STEP_WORK):
                work[step_of[i]].append((start, end))
    return [spans[i][2] - spans[i][1] - covered(work[i]) for i in steps]


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans, counters):
    """Every PER_LAYER metric except trace.overhead_s, as plain numbers."""
    out = {}
    for group, patterns in GROUPS.items():
        idx = outermost(spans, patterns)
        out[f"{group}_s"] = sum(spans[i][2] - spans[i][1] for i in idx)
        out[f"{group}_calls"] = len(idx)
    selfs = self_times(spans)
    steps = outermost(spans, GROUPS["schemes.step"])
    step_ms = [1e3 * (spans[i][2] - spans[i][1]) for i in steps]
    out["schemes.steps"] = len(steps)
    out["schemes.step_self_s"] = sum(step_self_times(spans, steps))
    out["schemes.step_ms_p50"] = percentile(step_ms, 50)
    out["schemes.step_ms_p99"] = percentile(step_ms, 99)
    out["cli.self_s"] = sum(s for s, span in zip(selfs, spans) if span[0].startswith("cli."))
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    wanted = {name for name, _ in PER_LAYER}
    return {k: v for k, v in out.items() if k in wanted}
