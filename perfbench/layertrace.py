"""Layer tracing from outside the program.

The tracer times calls into the seven tabkit modules by replacing
functions with timing wrappers for the length of one traced command list,
then puts every original back.  Nothing under ``src/`` knows about it.

Where a wrapper goes:

* every name a tabkit module imports from another tabkit module, in the
  importing module's namespace, so only calls that cross a module boundary
  are timed;
* names that a function imports lazily (``from .rsk import act_via_insertion``
  inside a function body), in the defining module, guarded so that calls
  from inside that module are not timed;
* ``__init__``, ``__eq__``, properties and public methods of the tabkit
  classes, on the class, with the same guard;
* ``cli.SUITE_RUNNERS``, whose values the verify command calls;
* the functions that a per-function metric names (``FUNCTION_METRICS``),
  in the defining module as well, unguarded, so that their calls from
  inside their own module count too (``decompose_in_fk`` calls
  ``solve_exact``; ``act_via_insertion`` calls ``rsk``);
* the move closures that ``moves_for`` returns, counted (not timed) to give
  the share of move calls that return their input.

Spans are aggregated in memory by (calling layer, callee); a layer's self
time is its spans' time minus the time of the spans they enclose.
"""

import ast
import inspect
import sys
import time

LAYERS = ("cli", "core", "tableaux", "rsk", "operators", "equivalence", "qsym")

# functions with a per-function metric: wrapped where defined as well
FUNCTION_METRICS = (
    "tableaux.restrict_to",
    "tableaux.superstandard",
    "tableaux.enumerate_tableaux",
    "rsk.rsk",
    "rsk.rsk_inverse",
    "rsk.knuth_move",
    "operators.slink",
    "operators.slink_star",
    "operators.restricted_dual_move",
    "operators.restricted_dual_move_tableau",
    "operators.shifted_dual_move",
    "equivalence.all_classes",
    "equivalence.closure",
    "equivalence.moves_for",
    "qsym.solve_exact",
)

OPERATOR_MOVES = (
    "slink",
    "slink_star",
    "restricted_dual_move",
    "restricted_dual_move_tableau",
    "shifted_dual_move",
)

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "core.self_s": "s",
    "core.calls": "count",
    "tableaux.self_s": "s",
    "tableaux.Tableau.constructions": "count",
    "tableaux.restrict_to.calls": "count",
    "tableaux.superstandard.calls": "count",
    "tableaux.enumerate_tableaux.us_per_tableau": "us",
    "rsk.self_s": "s",
    "rsk.rsk.calls": "count",
    "rsk.rsk.ns_per_call": "ns",
    "rsk.rsk_inverse.calls": "count",
    "rsk.rsk_inverse.ns_per_call": "ns",
    "rsk.knuth_move.calls": "count",
    "operators.self_s": "s",
    **{f"operators.{m}.calls": "count" for m in OPERATOR_MOVES},
    **{f"operators.{m}.ns_per_call": "ns" for m in OPERATOR_MOVES},
    "operators.identity_ratio": "ratio",
    "equivalence.self_s": "s",
    "equivalence.all_classes.elements": "count",
    "equivalence.all_classes.us_per_element": "us",
    "equivalence.touched_per_member": "elem/member",
    "qsym.self_s": "s",
    "qsym.solve_exact.calls": "count",
    "qsym.solve_exact.s_per_call": "s",
    "qsym.solve_exact.cells": "cells",
    "qsym.family_builds": "count",
    "trace_overhead": "ratio",
}


def _layer_of(obj):
    parts = (getattr(obj, "__module__", None) or "").split(".")
    if len(parts) == 2 and parts[0] == "tabkit" and parts[1] in LAYERS:
        return parts[1]
    return None


def _lazy_imports(module):
    """(defining module, name) for each ``from .x import name`` that sits
    inside a function body of the module."""
    tree = ast.parse(inspect.getsource(module))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom) and inner.level == 1 and inner.module:
                    found.update((inner.module, alias.name) for alias in inner.names)
    return found


class Tracer:
    """Timing wrappers over the tabkit modules; install, run, uninstall."""

    def __init__(self, modules):
        self.modules = modules  # layer name -> module object
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.stats = {}  # "layer.qualname" -> {calling layer: [count, total_s]}
        self.counts = {
            "constructions": 0,
            "tableaux_enumerated": 0,
            "all_classes_elements": 0,
            "closure_members": 0,
            "move_calls": 0,
            "move_identity": 0,
            "solve_cells": 0,
            "family_builds": 0,
        }
        self._stack = [[None, 0.0]]  # [layer, time covered by child spans]
        self._undo = []
        self._wrappers = {}

    # -- spans ---------------------------------------------------------------

    def _span(self, layer, name, fn, home=None, after=None):
        """Timing wrapper for fn; with ``home`` (a module dict), calls made
        from code of that module go straight to fn."""
        stack = self._stack
        self_s = self.self_s
        by_caller = self.stats.setdefault(f"{layer}.{name}", {})
        perf = time.perf_counter
        getframe = sys._getframe

        def wrapper(*args, **kwargs):
            if home is not None and getframe(1).f_globals is home:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                self_s[layer] += dt - frame[1]
                rec = by_caller.get(parent[0])
                if rec is None:
                    rec = by_caller[parent[0]] = [0, 0.0]
                rec[0] += 1
                rec[1] += dt
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _set(self, owner, attr, value):
        original = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
        self._undo.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def _function_wrapper(self, fn):
        """One unguarded wrapper per tabkit function, shared by every
        namespace that binds it."""
        wrapper = self._wrappers.get(fn)
        if wrapper is None:
            layer = _layer_of(fn)
            wrapper = self._span(layer, fn.__name__, fn, after=self._observer(layer, fn.__name__))
            self._wrappers[fn] = wrapper
        return wrapper

    # -- observers for the metrics that need more than time ---------------------

    def _observer(self, layer, name):
        counts = self.counts
        key = f"{layer}.{name}"
        if key == "tableaux.enumerate_tableaux":
            def after(args, result):
                counts["tableaux_enumerated"] += len(result)
            return after
        if key == "equivalence.all_classes":
            stack = self._stack

            def after(args, result):
                counts["all_classes_elements"] += sum(len(cls.members) for cls in result)
                relation = args[2] if len(args) > 2 else None
                if relation == "equiv2" and any(f[0] == "qsym" for f in stack):
                    counts["family_builds"] += 1
            return after
        if key == "equivalence.closure":
            def after(args, result):
                counts["closure_members"] += len(result.members)
            return after
        if key == "equivalence.moves_for":
            return self._count_moves
        if key == "qsym.solve_exact":
            def after(args, result):
                columns, target = args[0], args[1]
                counts["solve_cells"] += len(columns) * len(target)
            return after
        return None

    def _count_moves(self, args, result):
        """Replace each move closure in moves_for's result (in place) with
        one that counts calls and calls that return their input."""
        counts = self.counts

        def counted(move):
            def wrapped(x):
                out = move(x)
                counts["move_calls"] += 1
                if out is x or (
                    out == x if type(x) is tuple
                    else (out.rows == x.rows and out.flavor == x.flavor)
                ):
                    counts["move_identity"] += 1
                return out
            return wrapped

        result[:] = [(name, idx, counted(move)) for name, idx, move in result]

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        mods = self.modules
        named = set()
        for qual in FUNCTION_METRICS:
            layer, name = qual.split(".")
            named.add(getattr(mods[layer], name))
        lazy = set()
        for module in mods.values():
            lazy |= _lazy_imports(module)

        # class members, guarded: calls from the class's own module are not timed
        tableau_cls = mods["tableaux"].Tableau
        for layer, module in mods.items():
            home = vars(module)
            for cls in list(vars(module).values()):
                if (
                    not inspect.isclass(cls)
                    or cls.__module__ != module.__name__
                    or issubclass(cls, BaseException)
                ):
                    continue
                for attr, member in list(vars(cls).items()):
                    if attr not in ("__init__", "__eq__") and attr.startswith("_"):
                        continue
                    label = f"{cls.__name__}.{attr}"
                    if attr == "__init__" and cls is tableau_cls:
                        self._set(cls, attr, self._counting_init(layer, label, member, home))
                    elif isinstance(member, property):
                        fget = self._span(layer, label, member.fget, home)
                        self._set(cls, attr, property(fget, member.fset, member.fdel, member.__doc__))
                    elif isinstance(member, classmethod):
                        self._set(cls, attr, classmethod(self._span(layer, label, member.__func__, home)))
                    elif inspect.isfunction(member):
                        self._set(cls, attr, self._span(layer, label, member, home))

        for layer, module in mods.items():
            for name, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                owner = _layer_of(obj)
                if owner is None:
                    continue
                if owner != layer or obj in named:
                    self._set(module, name, self._function_wrapper(obj))
                elif (layer, name) in lazy:
                    self._set(module, name, self._span(layer, name, obj, vars(module)))

        runners = mods["cli"].SUITE_RUNNERS
        for suite, fn in list(runners.items()):
            self._set(runners, suite, self._span("cli", fn.__name__, fn))

    def _counting_init(self, layer, label, init, home):
        """Count every construction; time those made from other modules.
        The guard is here, not in the span, because it looks one frame up."""
        counts = self.counts
        timed = self._span(layer, label, init)
        getframe = sys._getframe

        def __init__(self_, *args, **kwargs):
            counts["constructions"] += 1
            if getframe(1).f_globals is home:
                init(self_, *args, **kwargs)
            else:
                timed(self_, *args, **kwargs)

        return __init__

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def entry(self, fn):
        """Span for a call from the benchmark into the program."""
        return self._span(_layer_of(fn), fn.__name__, fn)

    # -- readings --------------------------------------------------------------

    def calls(self, qual):
        return sum(rec[0] for rec in self.stats.get(qual, {}).values())

    def total_s(self, qual):
        return sum(rec[1] for rec in self.stats.get(qual, {}).values())

    def touched(self):
        """Carrier elements the equivalence layer has produced so far: the
        members of every partition and closure it built, and every word it
        transported through rsk_inverse."""
        transported = self.stats.get("rsk.rsk_inverse", {}).get("equivalence", [0])[0]
        return (
            self.counts["all_classes_elements"]
            + self.counts["closure_members"]
            + transported
        )

    def layer_metrics(self):
        """Every per-layer metric except the two that need the command
        outputs or an untraced run (touched_per_member, trace_overhead)."""

        def per_call(qual, scale):
            n = self.calls(qual)
            return self.total_s(qual) / n * scale if n else 0.0

        c = self.counts
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out["core.calls"] = sum(
            self.calls(qual) for qual in self.stats if qual.startswith("core.")
        )
        out["tableaux.Tableau.constructions"] = c["constructions"]
        out["tableaux.restrict_to.calls"] = self.calls("tableaux.restrict_to")
        out["tableaux.superstandard.calls"] = self.calls("tableaux.superstandard")
        out["tableaux.enumerate_tableaux.us_per_tableau"] = (
            self.total_s("tableaux.enumerate_tableaux") / c["tableaux_enumerated"] * 1e6
            if c["tableaux_enumerated"] else 0.0
        )
        for fn in ("rsk", "rsk_inverse"):
            out[f"rsk.{fn}.calls"] = self.calls(f"rsk.{fn}")
            out[f"rsk.{fn}.ns_per_call"] = per_call(f"rsk.{fn}", 1e9)
        out["rsk.knuth_move.calls"] = self.calls("rsk.knuth_move")
        for fn in OPERATOR_MOVES:
            out[f"operators.{fn}.calls"] = self.calls(f"operators.{fn}")
            out[f"operators.{fn}.ns_per_call"] = per_call(f"operators.{fn}", 1e9)
        out["operators.identity_ratio"] = (
            c["move_identity"] / c["move_calls"] if c["move_calls"] else 0.0
        )
        elements = c["all_classes_elements"]
        out["equivalence.all_classes.elements"] = elements
        out["equivalence.all_classes.us_per_element"] = (
            self.total_s("equivalence.all_classes") / elements * 1e6 if elements else 0.0
        )
        solves = self.calls("qsym.solve_exact")
        out["qsym.solve_exact.calls"] = solves
        out["qsym.solve_exact.s_per_call"] = per_call("qsym.solve_exact", 1.0)
        out["qsym.solve_exact.cells"] = c["solve_cells"] / solves if solves else 0.0
        out["qsym.family_builds"] = c["family_builds"]
        return out

    def spans(self):
        """The aggregated spans: callee, calling layer, count, seconds."""
        return [
            {"callee": qual, "caller": caller, "count": rec[0], "total_s": rec[1]}
            for qual, by_caller in sorted(self.stats.items())
            for caller, rec in sorted(by_caller.items(), key=lambda kv: str(kv[0]))
        ]
