"""Spans and counts around calls into lucaskit's public functions.

``Tracer.install`` wraps every public function of the eight modules (and
the arithmetic operators of their public classes) and rebinds every alias
of each wrapped object it can reach from a lucaskit module: module globals,
class attributes (so ``__rmul__ = __mul__`` is rebound twice), closure
cells, default arguments, and the containers and lucaskit objects a module
holds (such as the identity registry). ``unwrapped_aliases`` walks the same
graph again and names any original left behind.

Spans (name, start, end, parent) are kept in flat arrays while the pass
runs; ``self_times`` derives each module's self time from them: a span's
duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from fractions import Fraction
from time import perf_counter

MODULES = ("cli", "identities", "charpoly", "binomials", "sequences", "poly", "quadfield",
           "numeric")
OPERATORS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
    "__pow__", "__truediv__", "__rtruediv__", "__divmod__", "__call__",
})
_CALLABLE = (types.FunctionType, functools._lru_cache_wrapper)


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    return 0


class Tracer:
    """Wraps lucaskit's public surface; one instance per traced pass."""

    def __init__(self) -> None:
        self.span_names: list[str] = ["request"]
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.calls: dict[str, int] = {}
        self.counts = {"identities.cells_checked": 0, "identities.cells_skipped": 0,
                       "sequences.max_operand_bits": 0, "poly.max_degree": -1}
        self.phi_product_keys: set = set()
        self._originals: dict[int, object] = {}  # id(original) -> wrapper
        self._undo: list = []
        self._hook_table = self._hooks()

    # -- spans ---------------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.names.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def begin_request(self) -> int:
        """Open the root span of one request; every span under it carries its index."""
        return self._open(0)

    def end_request(self, idx: int) -> None:
        self._close(idx)

    def _wrap(self, fn, qualname: str, module: str):
        name = f"{module}.{qualname}"
        name_id = len(self.span_names)
        self.span_names.append(name)
        self.calls[name] = 0
        hook = self._hook_table.get(name)
        open_, close, calls = self._open, self._close, self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- counts taken from arguments and results ---------------------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def grid(args, reports):
            for r in reports:
                counts["identities.cells_checked"] += r.checked
                counts["identities.cells_skipped"] += r.skipped

        def phi_key(args, result):
            self.phi_product_keys.add(args)

        def operand(args, result):
            values = result if isinstance(result, tuple) else (result,)
            counts["sequences.max_operand_bits"] = max(
                counts["sequences.max_operand_bits"], *(_bits(v) for v in values))

        def degree(args, result):
            polys = result if isinstance(result, tuple) else (result,)
            for p in (*args, *polys):
                coeffs = getattr(p, "coeffs", None)
                if isinstance(coeffs, list) and len(coeffs) - 1 > counts["poly.max_degree"]:
                    counts["poly.max_degree"] = len(coeffs) - 1

        return {
            "identities.run_grid": grid,
            "charpoly.phi_product": phi_key,
            "sequences.SequenceTable.u": operand,
            "sequences.SequenceTable.w": operand,
            "sequences.SequenceTable.q_power": operand,
            "sequences.fast_pair": operand,
            "sequences.iter_pair": operand,
            "poly.Poly.__mul__": degree,
            "poly.Poly.__divmod__": degree,
        }

    # -- install / uninstall ----------------------------------------------------------

    @staticmethod
    def _modules() -> list[types.ModuleType]:
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "lucaskit" or k.startswith("lucaskit."))]

    def _targets(self):
        """(original, qualname, module) for each public function and operator to wrap."""
        for mod in MODULES:
            module = sys.modules.get(f"lucaskit.{mod}")
            if module is None:
                continue
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, _CALLABLE):
                    yield obj, name, mod
                elif isinstance(obj, type):
                    for attr, member in vars(obj).items():
                        inner = member.__func__ if isinstance(member, classmethod) else member
                        public = not attr.startswith("_") or attr in OPERATORS
                        if public and isinstance(inner, types.FunctionType):
                            yield inner, inner.__qualname__, mod

    def install(self) -> None:
        for original, qualname, mod in self._targets():
            if id(original) not in self._originals:
                self._originals[id(original)] = self._wrap(original, qualname, mod)
        self._rebind_all()

    def uninstall(self) -> None:
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()

    def _replacement(self, obj):
        """The wrapper for an original (or a classmethod around one), else None."""
        if isinstance(obj, classmethod):
            wrapper = self._originals.get(id(obj.__func__))
            return classmethod(wrapper) if wrapper is not None else None
        return self._originals.get(id(obj))

    def _rebind_all(self) -> None:
        def rebind(get, set_):
            old = get()
            new = self._replacement(old)
            if new is not None:
                set_(new)
                self._undo.append(lambda: set_(old))

        for slot in _slots(self._modules()):
            rebind(*slot)

    def unwrapped_aliases(self) -> list[str]:
        """Where an original wrapped object is still reachable; empty when installed."""
        left = []
        for get, _set, where in _slots(self._modules(), with_where=True):
            if self._replacement(get()) is not None:
                left.append(where)
        return left

    # -- results ------------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per module: the sum of its spans' durations minus what their children cover."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out = {m: 0.0 for m in MODULES}
        for i in range(n):
            name = self.span_names[self.names[i]]
            module = name.partition(".")[0]
            if module in out:
                out[module] += self.ends[i] - self.starts[i] - child[i]
        return out


def _slots(modules, with_where: bool = False):
    """Every (getter, setter[, description]) slot that can hold a function, reachable
    from the given modules."""
    seen: set[int] = set()
    out = []

    def add(get, set_, where):
        out.append((get, set_, where) if with_where else (get, set_))

    def visit(obj, where):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, (types.ModuleType, type)):
            name = obj.__name__ if isinstance(obj, types.ModuleType) else obj.__module__
            if not name.startswith("lucaskit"):
                return
            d = vars(obj)
            for key in list(d):
                set_ = (functools.partial(setattr, obj, key) if isinstance(obj, type)
                        else functools.partial(d.__setitem__, key))
                add(functools.partial(d.get, key), set_, f"{where}.{key}")
                visit(d[key], f"{where}.{key}")
        elif isinstance(obj, types.FunctionType):
            if not obj.__module__.startswith("lucaskit") or hasattr(obj, "__perfbench_original__"):
                return
            for i, cell in enumerate(obj.__closure__ or ()):
                try:
                    contents = cell.cell_contents
                except ValueError:
                    continue
                add(lambda c=cell: c.cell_contents,
                    lambda v, c=cell: setattr(c, "cell_contents", v),
                    f"{where}.<closure {i}>")
                visit(contents, f"{where}.<closure {i}>")
            for i, default in enumerate(obj.__defaults__ or ()):
                def set_default(v, f=obj, i=i):
                    d = list(f.__defaults__)
                    d[i] = v
                    f.__defaults__ = tuple(d)
                add(lambda f=obj, i=i: f.__defaults__[i], set_default, f"{where}.<default {i}>")
                visit(default, f"{where}.<default {i}>")
        elif isinstance(obj, (classmethod, staticmethod)):
            visit(obj.__func__, where)
        elif isinstance(obj, list):
            for i, item in enumerate(obj):
                add(functools.partial(obj.__getitem__, i),
                    functools.partial(obj.__setitem__, i), f"{where}[{i}]")
                visit(item, f"{where}[{i}]")
        elif isinstance(obj, dict):
            for key in list(obj):
                add(functools.partial(obj.get, key),
                    functools.partial(obj.__setitem__, key), f"{where}[{key!r}]")
                visit(obj[key], f"{where}[{key!r}]")
        elif isinstance(obj, (tuple, frozenset, set)):
            for i, item in enumerate(obj):
                # immutable slots cannot be rebound; an alias here is reported, not fixed
                add(lambda item=item: item, lambda v: None, f"{where}<item {i}>")
                visit(item, f"{where}<item {i}>")
        elif type(obj).__module__.startswith("lucaskit") and hasattr(obj, "__dict__"):
            for key in list(vars(obj)):
                add(functools.partial(getattr, obj, key),
                    functools.partial(object.__setattr__, obj, key), f"{where}.{key}")
                visit(getattr(obj, key), f"{where}.{key}")

    for module in modules:
        visit(module, module.__name__)
    return out
