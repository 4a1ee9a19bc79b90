"""Outside-in tracing of the stokesproj package.

``Tracer.install`` replaces, at their module and class attributes, every
public function of every ``stokesproj`` module (re-exported names such
as ``cli.build_grid`` included), the public methods and ``__call__`` of
its classes, the ``__init__`` of those that are not dataclasses, the ``splu`` that
``sparsela`` calls and the sparse matrix product operators.  Each call
then records a span ``[name, start, end, parent]`` in memory.
``Tracer.uninstall`` puts every original back.  The program itself is
not edited.
"""

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import statistics
import time

MARK = "__perfbench_span__"


def _stokesproj_modules():
    import stokesproj

    return [
        importlib.import_module(f"stokesproj.{info.name}")
        for info in pkgutil.iter_modules(stokesproj.__path__)
    ]


def _short(module_name):
    return module_name.rsplit(".", 1)[-1]


def _targets():
    """(owner, attribute, span name) for everything the tracer wraps."""
    import scipy.sparse._base as sparse_base

    from stokesproj import sparsela

    out = []
    for module in _stokesproj_modules():
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__.startswith("stokesproj."):
                out.append((module, attr, f"{_short(obj.__module__)}.{obj.__qualname__}"))
            elif (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and not issubclass(obj, BaseException)
            ):
                dunders = ("__call__",)
                if not dataclasses.is_dataclass(obj):
                    dunders += ("__init__",)
                prefix = f"{_short(module.__name__)}.{obj.__qualname__}"
                for name, member in vars(obj).items():
                    public = not name.startswith("_") or name in dunders
                    if public and inspect.isfunction(member):
                        out.append((obj, name, f"{prefix}.{name}"))
    out.append((sparsela.spla, "splu", "sparsela.splu"))
    out.append((sparse_base._spbase, "__matmul__", "sparse.matmul"))
    out.append((sparse_base._spbase, "__rmatmul__", "sparse.matmul"))
    return out


def installed_wrappers():
    """Names of tracer wrappers currently installed (empty when clean)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in _targets()
        if hasattr(vars(owner).get(attr), MARK)
    ]


def _splu_nnz(lu):
    return {"sparsela.factor_nnz": lu.L.nnz + lu.U.nnz}


def _saddle_refinements(result):
    return {"sparsela.saddle_refinements": result[2].iterations}


# Counters read from return values; the time they take is excluded from
# every span (see Tracer._paused).
_COUNTERS = {"sparsela.splu": _splu_nnz, "sparsela.saddle_solve": _saddle_refinements}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._paused = 0.0
        self._saved = []

    def _now(self):
        return time.perf_counter() - self._paused

    def _wrap(self, fn, name):
        spans, stack, count = self.spans, self._stack, _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = self._now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self._now()
                stack.pop()
            if count is not None:
                begin = time.perf_counter()
                for key, value in count(result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
                self._paused += time.perf_counter() - begin
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def overhead_s(self):
        """Time the wrappers added to the traced run: the spans recorded
        times the cost of one wrapped call, measured here on a no-op (median
        of five rounds), plus the time spent reading counters."""

        def noop():
            pass

        probe = Tracer()
        wrapped = probe._wrap(noop, "noop")
        calls, costs = 20000, []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            costs.append((time.perf_counter() - start - bare) / calls)
            probe.spans.clear()
        return len(self.spans) * statistics.median(costs) + self._paused

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
