"""Per-layer tracing for the traced run (never the timed one).

Public functions are wrapped where they live as module attributes, and the
wrapper replaces every module attribute that holds the same function, so the
copies that `verdict`, `lcs` and `orderprops` import by name are traced too.
Each wrapper records calls and self time (its duration minus the time of the
traced calls it makes); counter hooks record the work a call was given.

Leaf helpers called once per letter or monomial (`multiply`, `invert`,
`letter`, `grlex_key`, `Poly` arithmetic, ...) are not wrapped: the wrapper
would cost more than they do, and their time stays in their callers.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict


def _charpoly_note(t, args, result):
    t.counts["exactalg.char_poly.dim4_sum"] += args[0].dim ** 4


def _lcs_note(t, args, result):
    t.counts["lcs.lcs_action.dim_sum"] += len(result.basis)


def _mul_note(t, args, result):
    t.counts["magnus.series_mul.pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


def _expand_note(t, args, result):
    if any(frame[0] == "magnus.lowest_term" for frame in t.stack):
        t.counts["magnus.lowest_term.truncations"] += 1


def _draw_note(t, args, result):
    t.counts["orderprops.draws"] += 1


def _trials_note(t, args, result):
    t.counts["orderprops.trials"] += result.trials


PROBES = ("subgroup_probe", "normality_probe", "dominant_check",
          "commutator_infinitesimal_probe", "order_preservation_probe",
          "invariance_probe", "semidirect_order_probe", "weak_comparability_search")

# module.function -> counter hook (or None)
TARGETS = {
    "presentation.parse_presentation": None,
    "verdict.analyze": None,
    "verdict.level_report": None,
    "verdict.combine_rules": None,
    "freegroup.verify_automorphism": None,
    "freegroup.apply_map": None,
    "freegroup.parse_word": None,
    "freegroup.compose": None,
    "freegroup.iterate_map": None,
    "freegroup.random_word": _draw_note,
    "lcs.lcs_action": _lcs_note,
    "lcs.lyndon_basis": None,
    "magnus.expand": _expand_note,
    "magnus.series_mul": _mul_note,
    "magnus.lowest_term": None,
    "magnus.sign": None,
    "magnus.compare": None,
    "magnus.magnitude": None,
    "magnus.is_infinitesimal": None,
    "magnus.in_gamma": None,
    "exactalg.char_poly": _charpoly_note,
    "exactalg.factor_over_Q": None,
    "exactalg.squarefree_decomposition": None,
    "exactalg.squarefree_part": None,
    "exactalg.sturm_count": None,
    "exactalg.rational_roots": None,
    "exactalg.has_positive_real_root": None,
    "exactalg.all_roots_positive_real": None,
    "exactalg.SturmChain.build": None,
    **{f"orderprops.{p}": (_trials_note if p != "weak_comparability_search" else None)
       for p in PROBES},
}


class Tracer:
    def __init__(self, clock):
        self.clock = clock                    # excludes calibration samples
        self.stack: list[list] = []          # [name, time spent in traced callees]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.raw_self: defaultdict = defaultdict(float)
        self.ref_self: defaultdict = defaultdict(float)   # reference-speed seconds
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, note=None):
        stack, calls, raw_self, clock = self.stack, self.calls, self.raw_self, self.clock

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                raw_self[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if note is not None:
                note(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, render_owner):
        """Wrap every target in every loaded `biorder` module.

        `render_owner.render` (the benchmark's JSON rendering step, which is
        what `--format json` does) is traced as `cli.render`.
        """
        modules = [m for n, m in sys.modules.items()
                   if n == "biorder" or n.startswith("biorder.")] + [render_owner]
        for qualified, note in TARGETS.items():
            module_name, _, attr = qualified.partition(".")
            owner = sys.modules[f"biorder.{module_name}"]
            if "." in attr:              # a classmethod
                cls_name, _, method = attr.partition(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, classmethod(self.wrap(qualified, original.__func__, note)))
                self._undo.append((cls, method, original))
            else:
                original = getattr(owner, attr)
                self._replace(modules, original, self.wrap(qualified, original, note))
        self._replace(modules, render_owner.render,
                      self.wrap("cli.render", render_owner.render))

    def _replace(self, modules, original, wrapped):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def take_raw(self) -> dict:
        """Raw self times since the last call; the caller converts them."""
        raw = dict(self.raw_self)
        self.raw_self.clear()
        return raw
