"""Spans around the public functions of each conetorsion layer.

The library is not changed: :meth:`Tracer.install` replaces each listed
function or method with a wrapper, for the rest of the process, in its
defining module and in every ``conetorsion`` module that imported it by
name.  A span records its name, start, end, parent span, the job it belongs
to and whether an exception left it.  Spans stay in memory until
:meth:`write` stores them as JSON lines.  :func:`layer_metrics` turns spans
and counters into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import warnings
import weakref
from collections import Counter
from pathlib import Path

from scipy.integrate import IntegrationWarning

# (module, attribute) of every traced callable; "Class.method" patches the class
TARGETS = {
    "cli": ["main"],
    "crosssection": [
        "coclosed_spectrum",
        "CrossSection.lattice_eta_levels",
        "CrossSection.primal_norms",
    ],
    "zeta": [
        "MellinSplit.__init__",
        "MellinSplit.a_value",
        "MellinSplit.a_residue_and_finite",
        "MellinSplit.b_value",
        "MellinSplit.f_value",
        "shifted_zeta0",
        "shifted_zeta_prime0",
        "build_zeta_eval",
    ],
    "torsion": [
        "log_torsion_cone",
        "tors_term",
        "res_term",
        "log_torsion_truncated",
        "torsion_difference",
        "tors_scaling_profile",
        "model_det_ratio",
        "harmonic_det",
        "t_eta_lambda",
        "gy_det_ratio_oracle",
    ],
    "firstorder": [
        "first_order_shifted",
        "FirstOrderZeta.zeta0",
        "FirstOrderZeta.zeta_prime0",
    ],
    "bessel": [
        "modified_bessel",
        "uniform_expansion",
        "wronskian_residual",
        "bracket_pair",
    ],
    "olver": [
        "olver_pair",
        "d_poly",
        "z_table",
        "eval_t_poly",
        "m_poly_eval",
        "z_diff_by_b",
        "harmonic_number",
    ],
}

LAYERS = tuple(TARGETS)
# the Mellin tail sum keeps every level with (eta + alpha^2) t0 <= this
_EXP_FLOOR = 50.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job, raised]
        self.counters: Counter = Counter()
        self.job: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._b_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._f_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._showwarning = warnings.showwarning

    def set_job(self, job: str | None) -> None:
        self.job = job

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> int | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        # a pool thread works for whatever the main thread has open
        return self._main_stack[-1] if self._main_stack else None

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = tracer._current()
            span = [name, 0.0, 0.0, parent, tracer.job, False]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack = tracer._stack()
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    # -- counters measured where the work happens -------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def _seen(self, table, split, sigma) -> bool:
        key = round(float(sigma), 12)
        with self._lock:
            seen = table.setdefault(split, set())
            repeat = key in seen
            seen.add(key)
        return repeat

    def _before_b(self, args, kwargs):
        split, sigma = args[:2]
        if self._seen(self._b_seen, split, sigma):
            self._count("zeta.b_repeats")

    def _before_f(self, args, kwargs):
        split, sigma = args[:2]
        if not self._seen(self._f_seen, split, sigma):
            sl = split.sl
            mu = sl.eta + sl.alpha * sl.alpha
            self._count("zeta.f_levels", int((mu * split.t0 <= _EXP_FLOOR).sum()))

    def _after_levels(self, result):
        self._count("crosssection.levels_returned", len(result[0]))

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        if issubclass(category, IntegrationWarning):
            self._count("zeta.quad_warnings")
        self._showwarning(message, category, filename, lineno, file, line)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        hooks = {
            "MellinSplit.b_value": (self._before_b, None),
            "MellinSplit.f_value": (self._before_f, None),
            "CrossSection.lattice_eta_levels": (None, self._after_levels),
            "CrossSection.primal_norms": (None, self._after_levels),
        }
        loaded = [m for n, m in sys.modules.items() if n.startswith("conetorsion") and m]
        for layer, names in TARGETS.items():
            module = sys.modules[f"conetorsion.{layer}"]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                before, after = hooks.get(name, (None, None))
                traced = self.wrap(f"{layer}.{name}", original, before, after)
                setattr(owner, attr, traced)
                if owner_name:
                    continue
                for other in loaded:
                    if other is not module and getattr(other, attr, None) is original:
                        setattr(other, attr, traced)
        warnings.simplefilter("always", IntegrationWarning)
        warnings.showwarning = self._on_warning

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, job, raised) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "job": job, "raised": raised,
                }) + "\n")


def read_spans(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out.append(s["end"] - s["start"] - covered)
    return out


def layer_metrics(spans: list[dict], counters: dict, passes: int) -> dict[str, float]:
    """Per-layer metrics per pass: self times (s), call counts and ratios."""
    own = self_times(spans)
    by_name: dict[str, list[float]] = {}
    for s, t in zip(spans, own):
        by_name.setdefault(s["name"], []).append(t)

    def self_s(*names: str) -> float:
        return sum(sum(by_name.get(n, [])) for n in names) / passes

    def calls(*names: str) -> float:
        return sum(len(by_name.get(n, [])) for n in names) / passes

    def layer_names(layer: str, exclude=()) -> list[str]:
        return [f"{layer}.{n}" for n in TARGETS[layer] if n not in exclude]

    levels = ("crosssection.CrossSection.lattice_eta_levels", "crosssection.CrossSection.primal_norms")
    gy = ("torsion.gy_det_ratio_oracle",)
    a_part = ("zeta.MellinSplit.a_value", "zeta.MellinSplit.a_residue_and_finite")
    shifted = ("zeta.shifted_zeta0", "zeta.shifted_zeta_prime0")
    b_calls = calls("zeta.MellinSplit.b_value")
    m = {
        "cli.s": self_s("cli.main"),
        "crosssection.levels_s": self_s(*levels),
        "crosssection.levels_calls": calls(*levels),
        "crosssection.levels_returned": counters.get("crosssection.levels_returned", 0) / passes,
        "crosssection.spectrum_calls": calls("crosssection.coclosed_spectrum"),
        "crosssection.s": self_s(*layer_names("crosssection")),
        "zeta.split_builds": calls("zeta.MellinSplit.__init__"),
        "zeta.a_s": self_s(*a_part),
        "zeta.b_s": self_s("zeta.MellinSplit.b_value"),
        "zeta.b_calls": b_calls,
        "zeta.b_cache_hit_ratio": (
            counters.get("zeta.b_repeats", 0) / passes / b_calls if b_calls else 0.0
        ),
        "zeta.f_s": self_s("zeta.MellinSplit.f_value"),
        "zeta.f_calls": calls("zeta.MellinSplit.f_value"),
        "zeta.f_levels": counters.get("zeta.f_levels", 0) / passes,
        "zeta.shifted_s": self_s(*shifted),
        "zeta.s": self_s(*layer_names("zeta")),
        "zeta.quad_warnings": counters.get("zeta.quad_warnings", 0) / passes,
        "torsion.assembly_s": self_s(*layer_names("torsion", exclude=("gy_det_ratio_oracle",))),
        "torsion.gy_oracle_s": self_s(*gy),
        "torsion.gy_calls": calls(*gy),
    }
    for layer in ("firstorder", "bessel", "olver"):
        m[f"{layer}.s"] = self_s(*layer_names(layer))
        m[f"{layer}.calls"] = calls(*layer_names(layer))
    layer_of = {s["id"]: s["name"].split(".", 1)[0] for s in spans}
    errors = Counter(
        layer_of[s["id"]]
        for s in spans
        if s["raised"] and (s["parent"] is None or layer_of[s["parent"]] != layer_of[s["id"]])
    )
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors.get(layer, 0) / passes
    return m
