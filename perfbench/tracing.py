"""Per-layer tracing of liftspin from outside the package.

`install()` wraps the public functions and methods of every liftspin module
and rebinds each wrapped name wherever the package imported it (module
globals and function defaults alike), so both `euler.spinor_factor` and
`identities.spinor_factor` report.  Each call records a span
(name, start, end, parent) in memory; `Tracer.metrics()` turns the spans of
one CLI invocation into the per-layer metrics.

Two kinds of span:

* stage spans (everything except the ring operations below).  A stage's
  self time is its duration minus the time its child stage spans cover.
* ring operations (`TRANSPARENT`): the Laurent-polynomial and q-series
  arithmetic.  They are counted and timed (outermost calls only), but their
  time stays inside the caller's self time, so `euler.expand_s` includes
  the dense products it performs and `laurent.mul_s` overlaps it.

The hottest Laurent accessors (`is_monomial`, `single_term`, ...) are not
wrapped: they run once per root and would make the trace measure itself.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("laurent", "beta", "satake", "euler", "identities", "qexp", "cli")

# in laurent only the four ring operations the metrics name are wrapped
LAURENT_ONLY = ("LaurentPoly.__mul__", "LaurentPoly.__add__",
                "LaurentPoly.terms", "LaurentPoly.eval_complex")

# non-public callables wrapped because a metric is defined on them
EXTRA = {
    "euler": ("LocalFactor.__init__", "LocalFactor._expand"),
    "identities": ("VerificationReport.__init__", "_symbolic_witness"),
    "satake": ("SatakeParams.__init__",),
    "beta": ("BetaTable.__init__",),
    "qexp": ("QExpansion.__mul__",),
}

TRANSPARENT = frozenset(
    [f"laurent.{name}" for name in LAURENT_ONLY] + ["qexp.QExpansion.__mul__"])

ENCODE = "cli.json.dumps"

# self-time metrics: sums of the self time of the named stage spans
SELF_TIME = {
    "cli.encode_s": (ENCODE,),
    "euler.build_s": ("euler.spinor_factor", "euler.standard_factor",
                      "euler.hecke_factor", "euler.sym_power_factor",
                      "euler.tensor_factor", "euler.LocalFactor.shift",
                      "euler.LocalFactor.__init__"),
    "euler.expand_s": ("euler.LocalFactor._expand", "euler.LocalFactor.coefficients",
                       "euler.LocalFactor.truncated_coefficients",
                       "euler.LocalFactor.as_poly"),
    "euler.to_json_s": ("euler.LocalFactor.to_json_dict",
                        "euler.LocalFactor.factored_json_dict"),
    "euler.root_multiset_s": ("euler.LocalFactor.root_multiset",),
    "euler.instantiate_s": ("euler.LocalFactor.instantiate",),
    "identities.sides_s": ("identities.miyawaki_spinor_lhs", "identities.main_theorem_rhs",
                           "identities.ikeda_spinor_sides", "identities.ikeda_standard_sides",
                           "identities.miyawaki_standard_sides",
                           "identities.example_display_rhs"),
    "identities.compare_s": ("identities.compare_symbolic", "identities._symbolic_witness"),
    "identities.numeric_compare_s": ("identities.compare_numeric",),
    "identities.satake_values_s": ("identities.satake_values",),
    "qexp.eisenstein_s": ("qexp.eisenstein", "qexp.bernoulli", "qexp.delta",
                          "qexp.delta_eta_product"),
    "qexp.basis_s": ("qexp.victor_miller_basis", "qexp.dim_modular_forms",
                     "qexp.dim_cusp_forms"),
    "qexp.eigenforms_s": ("qexp.eigenforms", "qexp.eigenform", "qexp.hecke_operator"),
    "qexp.primes_s": ("qexp.is_prime", "qexp.primes_up_to"),
    "qexp.table_load_s": ("qexp.load_eigenvalue_table",
                          "qexp.EigenformData.from_eigenvalue_table"),
}

# self time of whole layers
LAYER_SELF = {"beta.busy_s": "beta", "satake.busy_s": "satake", "qexp.self_s": "qexp"}

# ring operations: inclusive time of outermost calls, and call counts
OP_TIME = {
    "laurent.mul_s": "laurent.LaurentPoly.__mul__",
    "laurent.add_s": "laurent.LaurentPoly.__add__",
    "laurent.terms_s": "laurent.LaurentPoly.terms",
    "laurent.eval_s": "laurent.LaurentPoly.eval_complex",
    "qexp.series_mul_s": "qexp.QExpansion.__mul__",
}

CALLS = {
    "laurent.mul_calls": "laurent.LaurentPoly.__mul__",
    "laurent.add_calls": "laurent.LaurentPoly.__add__",
    "laurent.terms_calls": "laurent.LaurentPoly.terms",
    "laurent.eval_calls": "laurent.LaurentPoly.eval_complex",
    "qexp.series_mul_calls": "qexp.QExpansion.__mul__",
    "qexp.numeric_satake_calls": "qexp.numeric_satake",
    "beta.tables_built": "beta.BetaTable.__init__",
    "satake.param_sets": "satake.SatakeParams.__init__",
    "euler.instantiations": "euler.LocalFactor.instantiate",
    "identities.verdicts": "identities.VerificationReport.__init__",
    "identities.primes_checked": "identities.satake_values",
}

# beta lookups: calls into these from outside the beta layer
LOOKUPS = frozenset(("beta.beta_value", "beta.alpha_count",
                     "beta.BetaTable.alpha", "beta.BetaTable.beta"))


class Tracer:
    """Spans and size counters of one worker process, kept in memory."""

    def __init__(self):
        # one span: [name, start, end, parent stage span index or -1, is_op, outermost]
        self.spans = []
        self._stages = []
        self._depth = defaultdict(int)
        self.sizes = defaultdict(int)

    def wrap(self, name, fn, hook=None):
        spans, stages, depth = self.spans, self._stages, self._depth
        is_op = name in TRANSPARENT
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stages[-1] if stages else -1, is_op,
                    depth[name] == 0]
            spans.append(span)
            depth[name] += 1
            if not is_op:
                stages.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[name] -= 1
                if not is_op:
                    stages.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__traced__ = fn
        return traced

    def metrics(self):
        """Per-layer metrics of everything traced so far (see run.PER_LAYER)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, is_op, _ in spans:
            if not is_op and parent >= 0:
                child[parent] += end - start
        by_name = defaultdict(float)
        by_layer = defaultdict(float)
        op_time = defaultdict(float)
        calls = defaultdict(int)
        lookups = 0
        for i, (name, start, end, parent, is_op, outer) in enumerate(spans):
            calls[name] += 1
            if is_op:
                if outer:
                    op_time[name] += end - start
                continue
            own = end - start - child[i]
            by_name[name] += own
            layer = name.split(".", 1)[0]
            by_layer[layer] += own
            if name in LOOKUPS and (parent < 0 or not spans[parent][0].startswith("beta.")):
                lookups += 1
        out = {key: sum(by_name[n] for n in names) for key, names in SELF_TIME.items()}
        out.update({key: by_layer[layer] for key, layer in LAYER_SELF.items()})
        out["cli.self_s"] = by_layer["cli"] - by_name[ENCODE]
        out.update({key: op_time[name] for key, name in OP_TIME.items()})
        out.update({key: calls[name] for key, name in CALLS.items()})
        out["beta.lookups"] = lookups
        out.update(self.sizes)
        return out


def _factor_built(tracer, args, result):
    factor = args[0]
    if factor.mode == "symbolic":
        tracer.sizes["euler.factors_built"] += 1
        tracer.sizes["euler.roots_built"] += len(factor.roots)
        tracer.sizes["euler.max_degree"] = max(tracer.sizes["euler.max_degree"],
                                               len(factor.roots))


def _expanded(tracer, args, result):
    # symbolic coefficients count their terms, numeric ones count once
    tracer.sizes["euler.expanded_terms"] += sum(
        1 if isinstance(c, complex) else len(c._terms) for c in result)


def _forms_built(tracer, args, result):
    tracer.sizes["qexp.forms_built"] += len(result)


HOOKS = {
    "euler.LocalFactor.__init__": _factor_built,
    "euler.LocalFactor._expand": _expanded,
    "qexp.eigenforms": _forms_built,
}

SIZE_KEYS = ("euler.factors_built", "euler.roots_built", "euler.max_degree",
             "euler.expanded_terms", "qexp.forms_built")


def _targets(module):
    """(qualified name, owner, attribute, raw attribute) of everything to wrap."""
    short = module.__name__.rsplit(".", 1)[1]
    extra = EXTRA.get(short, ())
    wanted = LAURENT_ONLY if short == "laurent" else None
    found = []
    for attr, value in vars(module).items():
        if inspect.isclass(value) and value.__module__ == module.__name__:
            for member, raw in vars(value).items():
                qual = f"{attr}.{member}"
                public = not member.startswith("_") and not isinstance(raw, property)
                chosen = qual in wanted if wanted is not None else (public or qual in extra)
                if chosen:
                    found.append((qual, value, member, raw))
        elif (wanted is None and inspect.isfunction(value)
              and value.__module__ == module.__name__
              and (not attr.startswith("_") or attr in extra)):
            found.append((attr, module, attr, value))
    return found


def install():
    """Wrap liftspin's layers in place and return the Tracer collecting spans."""
    import liftspin.cli  # noqa: F401  (imports every layer)

    tracer = Tracer()
    for key in SIZE_KEYS:
        tracer.sizes[key] = 0
    modules = [sys.modules[f"liftspin.{name}"] for name in MODULES]
    replaced = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for qual, owner, attr, raw in _targets(module):
            name = f"{short}.{qual}"
            if isinstance(raw, property):
                wrapped = property(tracer.wrap(name, raw.fget))
            elif isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(tracer.wrap(name, raw.__func__))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                wrapped = tracer.wrap(name, raw, HOOKS.get(name))
                replaced[raw] = wrapped
            else:
                continue
            setattr(owner, attr, wrapped)
            # class-level aliases such as __rmul__ = __mul__
            if inspect.isclass(owner):
                for alias, other in list(vars(owner).items()):
                    if other is raw and alias != attr:
                        setattr(owner, alias, wrapped)
    # rebind imported names and default arguments that still hold originals
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(module, attr, replaced[value])
        for value in list(vars(module).values()):
            fn = getattr(value, "__traced__", value)
            if inspect.isfunction(fn) and fn.__defaults__:
                fn.__defaults__ = tuple(replaced.get(d, d) if inspect.isfunction(d) else d
                                        for d in fn.__defaults__)
    liftspin.cli.json = _TracedJson(tracer.wrap(ENCODE, json.dumps))
    return tracer


class _TracedJson:
    """Stand-in for the json module inside liftspin.cli with dumps traced."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(json, attr)
