"""Per-layer tracing of the library from outside it.

The tracer wraps the entry points of each layer by rebinding the name
in every ``extremal_lie`` module that holds it (``lie_closure`` is bound
in ``realizations`` and ``certify``, ``rref`` in ``linalg`` and
``presentation``, ...) and patching methods on their class.  Nothing in
``src/`` changes, and uninstalling restores every binding.

Spans carry a job id and their parent span, stay in memory and are
written out as JSON lines when the traced run ends.  A layer's self
time is the duration of its spans minus the time covered by their
direct children.  Counting ``FieldElement`` operations costs more than
the spans, so it has its own pass (:class:`OpCounter`).
"""

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
import timeit
from collections import Counter
from fractions import Fraction

PACKAGE = "extremal_lie"

# span name -> (module, attribute path); names are the metric prefixes
SPANS = {
    "linalg.mat_bracket": ("linalg", "mat_bracket"),
    "linalg.SpanSolver.add": ("linalg", "SpanSolver.add"),
    "linalg.SpanSolver.coords": ("linalg", "SpanSolver.coords"),
    "linalg.SpanSolver.contains": ("linalg", "SpanSolver.contains"),
    "linalg.rref": ("linalg", "rref"),
    "realizations.build_generators": ("realizations", "build_generators"),
    "realizations.lie_closure": ("realizations", "lie_closure"),
    "presentation.build_L0": ("presentation", "build_L0"),
    "presentation.evaluate_monomial": ("presentation", "evaluate_monomial"),
    "extremal.extremal_form_value": ("extremal", "extremal_form_value"),
    "extremal.is_extremal": ("extremal", "is_extremal"),
    "extremal.check_premet": ("extremal", "check_premet"),
    "extremal.fixtriangle": ("extremal", "fixtriangle"),
    "extremal.exp_ad": ("extremal", "exp_ad"),
    "certify.certify_family": ("certify", "certify_family"),
    "certify.match_algebras": ("certify", "match_algebras"),
    "certify.normalize_generators": ("certify", "normalize_generators"),
    "certify.psi": ("certify", "psi"),
    "certify.check_quartic_identities": ("certify",
                                         "check_quartic_identities"),
    "certify.rebuild_model": ("certify", "_rebuild_model"),
    "certify.verify_table": ("certify", "_verify_table"),
}

# every per-layer metric the traced run reports, in output order
_CALLS = ("linalg.mat_bracket", "linalg.SpanSolver.add",
          "linalg.SpanSolver.coords", "linalg.SpanSolver.contains",
          "linalg.rref", "realizations.lie_closure",
          "presentation.evaluate_monomial", "extremal.extremal_form_value",
          "extremal.is_extremal", "extremal.check_premet",
          "extremal.fixtriangle", "extremal.exp_ad")
_SELF = _CALLS + ("realizations.build_generators", "presentation.build_L0",
                  "certify.certify_family", "certify.match_algebras",
                  "certify.normalize_generators", "certify.psi",
                  "certify.check_quartic_identities",
                  "certify.rebuild_model", "certify.verify_table")
FIELD_KINDS = ("qq", "gf", "gf2")
COUNTERS = ("fields.lifts", "fields.sqrt.calls", "fields.sqrt.misses",
            "certify.rebuild_model.candidates_tried",
            "certify.verify_table.pairs")
RATIOS = ("linalg.SpanSolver.add.accept_ratio", "linalg.rref.rank_ratio",
          "presentation.pair_bracket.hit_ratio")
MICRO_NUMBER = 20000     # operations per microbenchmark timing
MICRO_REPEAT = 5         # timings per microbenchmark row
MICRO = tuple(f"fields.{k}.{op}_ns" for k in FIELD_KINDS
              for op in ("mul", "add")) + ("fields.raw_mulmod_ns",)
PER_LAYER = (tuple(f"fields.{k}.ops" for k in FIELD_KINDS) + COUNTERS
             + tuple(f"{s}.calls" for s in _CALLS)
             + tuple(f"{s}.self_s" for s in _SELF)
             + RATIOS + MICRO + ("trace.overhead_s",))


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _modules():
    """Every imported module of the package."""
    return [mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


class _Patches:
    """Replacements made on modules and classes, undone in reverse."""

    def __init__(self):
        self.done = []

    def set(self, owner, name, value):
        self.done.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def rebind(self, modules, original, value):
        """Replace `original` under every name bound to it in `modules`."""
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if obj is original:
                    self.set(mod, name, value)

    def undo(self):
        while self.done:
            owner, name, old = self.done.pop()
            setattr(owner, name, old)


def _resolve(module, path):
    """(owner, name, object) for a dotted attribute path, or None when a
    refactor has removed or renamed it."""
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, parts[-1], None)
    return None if obj is None else (owner, parts[-1], obj)


class Tracer:
    """Records spans and counts while installed (see :meth:`installed`).

    ``job`` is the id stamped on each new span; the harness sets it
    before every job."""

    def __init__(self):
        self.job = None
        self.spans = []           # (job, id, parent, name, t0_ns, t1_ns)
        self.counts = Counter()
        self.missing = []
        self._stack = []          # open spans: (id, name)

    # -- wrappers -----------------------------------------------------------
    def _span(self, name, fn, on_result=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((self.job, sid, parent, name, t0, t1))
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def _count_add_accepts(self, args, accepted):
        self.counts["linalg.SpanSolver.add.accepted"] += bool(accepted)

    def _count_rref(self, args, result):
        self.counts["linalg.rref.rows"] += len(args[0])
        self.counts["linalg.rref.rank"] += result[2]

    def _count_pairs(self, args, pairs):
        self.counts["certify.verify_table.pairs"] += pairs

    def _pair_bracket(self, fn):
        counts = self.counts

        def wrapper(alg, a, b):
            counts["presentation.pair_bracket.calls"] += 1
            if (a, b) in getattr(alg, "_pair_cache", ()):
                counts["presentation.pair_bracket.hits"] += 1
            return fn(alg, a, b)
        return wrapper

    def _candidate(self, fn):
        """Counts standard-model candidates built by the model rebuild."""
        stack, counts = self._stack, self.counts

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == "certify.rebuild_model":
                counts["certify.rebuild_model.candidates_tried"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _lift(self, fn):
        counts = self.counts

        def wrapper(field, *args):
            fn(field, *args)
            counts["fields.lifts"] += 1
        return wrapper

    def _sqrt(self, fn, has_sqrt):
        counts, fields = self.counts, importlib.import_module(
            f"{PACKAGE}.fields")

        def wrapper(elem):
            counts["fields.sqrt.calls"] += 1
            try:
                result = fn(elem)
            except fields.NoSquareRoot:
                counts["fields.sqrt.misses"] += 1
                raise
            if has_sqrt and not result:
                counts["fields.sqrt.misses"] += 1
            return result
        return wrapper

    # -- installation -------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        patches = _Patches()
        modules = _modules()
        hooks = {"linalg.SpanSolver.add": self._count_add_accepts,
                 "linalg.rref": self._count_rref,
                 "certify.verify_table": self._count_pairs}
        targets = [(module, path, functools.partial(
                        self._span, name, on_result=hooks.get(name)))
                   for name, (module, path) in SPANS.items()]
        targets += [
            ("presentation", "GradedLieAlgebra.pair_bracket",
             self._pair_bracket),
            ("realizations", "generators_B", self._candidate),
            ("realizations", "generators_D", self._candidate),
            ("fields", "QuadraticExtension.__init__", self._lift),
            ("fields", "FieldElement.sqrt",
             functools.partial(self._sqrt, has_sqrt=False)),
            ("fields", "FieldElement.has_sqrt",
             functools.partial(self._sqrt, has_sqrt=True)),
        ]
        self.missing = []
        try:
            for module, path, make in targets:
                found = _resolve(module, path)
                if found is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                owner, attr, fn = found
                if isinstance(owner, type):
                    patches.set(owner, attr, make(fn))
                else:
                    patches.rebind(modules, fn, make(fn))
            yield self
        finally:
            patches.undo()

    # -- results ------------------------------------------------------------
    def layer_metrics(self):
        """Counts, self times and ratios of the spans recorded so far."""
        child = Counter()
        for _, _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        calls, self_ns = Counter(), Counter()
        for _, sid, _, name, t0, t1 in self.spans:
            calls[name] += 1
            self_ns[name] += t1 - t0 - child[sid]
        c = self.counts
        out = {f"{s}.calls": calls[s] for s in _CALLS}
        out.update({f"{s}.self_s": self_ns[s] / 1e9 for s in _SELF})
        out.update({k: c[k] for k in COUNTERS})
        out["linalg.SpanSolver.add.accept_ratio"] = _ratio(
            c["linalg.SpanSolver.add.accepted"], calls["linalg.SpanSolver.add"])
        out["linalg.rref.rank_ratio"] = _ratio(c["linalg.rref.rank"],
                                               c["linalg.rref.rows"])
        out["presentation.pair_bracket.hit_ratio"] = _ratio(
            c["presentation.pair_bracket.hits"],
            c["presentation.pair_bracket.calls"])
        return out


def write_spans(path, tracers):
    """Write the spans of each traced pass as JSON lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for number, tracer in enumerate(tracers, start=1):
            for job, sid, parent, name, t0, t1 in tracer.spans:
                fh.write(json.dumps({"pass": number, "job": job, "id": sid,
                                     "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inv")


class OpCounter:
    """Counts ``FieldElement`` arithmetic calls by the kind of the
    element's field: ``qq`` (rationals), ``gf`` (prime field) and
    ``gf2`` (a quadratic extension, at any depth of the tower)."""

    def __init__(self):
        self.ops = Counter()

    @contextlib.contextmanager
    def installed(self):
        fields = importlib.import_module(f"{PACKAGE}.fields")
        kind_of = {fields.RationalField: "qq", fields.PrimeField: "gf",
                   fields.QuadraticExtension: "gf2"}
        ops = self.ops
        patches = _Patches()

        def counted(fn):
            def wrapper(elem, *args):
                ops[kind_of[type(elem.field)]] += 1
                return fn(elem, *args)
            return wrapper

        try:
            for name in _ARITH:
                patches.set(fields.FieldElement, name,
                            counted(getattr(fields.FieldElement, name)))
            yield self
        finally:
            patches.undo()

    def metrics(self):
        return {f"fields.{k}.ops": self.ops[k] for k in FIELD_KINDS}


def microbench(lib):
    """Nanoseconds per ``FieldElement`` multiply and add for each field
    kind, and per raw ``int`` mulmod (the payload floor); the median of
    MICRO_REPEAT timings of MICRO_NUMBER operations each."""
    gf = lib.PrimeField(lib.DEFAULT_PRIME)
    radicand = next(d for d in range(2, 100) if not gf(d).has_sqrt())
    gf2 = lib.QuadraticExtension(gf, radicand)
    operands = {
        "qq": (lib.QQ(Fraction(355, 113)), lib.QQ(Fraction(-22, 7))),
        "gf": (gf(123456789), gf(987654321)),
        "gf2": (gf2((123456789, 55555)), gf2((987654321, 4242))),
    }

    def per_op(stmt, names):
        times = timeit.repeat(stmt, globals=names, number=MICRO_NUMBER,
                              repeat=MICRO_REPEAT)
        return statistics.median(times) / MICRO_NUMBER * 1e9

    out = {}
    for kind, (a, b) in operands.items():
        out[f"fields.{kind}.mul_ns"] = per_op("a * b", {"a": a, "b": b})
        out[f"fields.{kind}.add_ns"] = per_op("a + b", {"a": a, "b": b})
    out["fields.raw_mulmod_ns"] = per_op(
        "a * b % p", {"a": 123456789, "b": 987654321, "p": lib.DEFAULT_PRIME})
    return out
