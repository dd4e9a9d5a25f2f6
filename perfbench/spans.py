"""In-memory span tracer that instruments paulimeter from outside.

The tracer replaces chosen paulimeter functions with timing wrappers for the
duration of one traced pass and restores them afterwards; no program file
changes.  A function is replaced everywhere it is bound in a loaded
``paulimeter`` module, so calls that cross a module boundary
(``experiments`` calling ``states.sample_outcomes``, ``cli`` calling
``experiments._cell_records``) and calls inside a module (``p3_ppt_certificate``
calling ``pt_moment_ustat``) are both recorded.

A span is ``[name, start, end, parent, value]``: ``parent`` is the index of
the enclosing span (-1 for none) and ``value`` is a per-call count filled in
by a hook (records passed in, bytes read or written, a repeated basis) or,
for PT-moment calls, the peak bytes ``tracemalloc`` saw during the call.
Every span of one pass shares the tracer's ``trace_id``.

A listed name that the program no longer has is kept in ``Tracer.missing``
rather than skipped quietly: the calls it stood for would otherwise vanish
from its layer and read as a gain.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("schemes", "states", "estimators", "paulis", "formats", "shadows",
          "experiments", "cli")

# span name -> (module, function names); a name missing from the module is
# reported in Tracer.missing
FUNCTIONS = {
    "schemes.plan": ("paulimeter.schemes", ("plan_l1", "plan_ldf", "plan_uniform_cs",
                                            "plan_lbcs", "plan_derandomized")),
    "schemes.draw": ("paulimeter.schemes", ("draw_bases", "draw_basis")),
    "states.simulate": ("paulimeter.states", ("sample_outcomes",)),
    "states.prepare": ("paulimeter.states", ("ghz", "admix_white_noise")),
    "states.oracle": ("paulimeter.states", ("exact_expectation", "exact_subsystem_purity",
                                            "exact_pt_moment")),
    "estimators.estimate": ("paulimeter.estimators", ("estimate", "estimate_derandomized",
                                                      "per_term_expectations",
                                                      "per_shot_estimates")),
    "formats.write": ("paulimeter.formats", ("write_records", "write_plan")),
    "formats.parse": ("paulimeter.formats", ("parse_records", "read_plan")),
    "formats.load": ("paulimeter.formats", ("load_hamiltonian",)),
    "shadows.collect": ("paulimeter.shadows", ("collect_shadows",)),
    "shadows.purity": ("paulimeter.shadows", ("purity_ustat",)),
    "shadows.pt": ("paulimeter.shadows", ("pt_moment_ustat",)),
    "shadows.certificate": ("paulimeter.shadows", ("p3_ppt_certificate", "purity_certificate")),
    "experiments.run": ("paulimeter.experiments", ("run_observables_experiment",
                                                   "run_energy_experiment",
                                                   "run_entanglement_experiment")),
    "experiments.records": ("paulimeter.experiments", ("_cell_records",)),
}

# span name -> (module, class, method names)
METHODS = {
    "paulis.codes": ("paulimeter.paulis", "PauliString", ("codes",)),
    "shadows.convert": ("paulimeter.shadows", "ShadowSet", ("from_records", "records")),
}

# spans whose value is the tracemalloc peak of the call
PEAK_MEMORY = ("shadows.pt",)


class Tracer:
    """Collects spans for one traced pass; use as a context manager."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._seen_bases: set[tuple[int, int, int]] = set()
        self._states: dict[int, object] = {}

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str, hook=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        peak = name in PEAK_MEMORY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(rec)
            stack.append(idx)
            if peak:
                tracemalloc.start()
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                if peak:
                    rec[4] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
            if hook is not None:
                rec[4] = hook(args, kwargs, result)
            return result

        return traced

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span recorded by the benchmark itself."""
        return self.wrap(fn, name)(*args, **kwargs)

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "paulimeter" or modname.startswith("paulimeter.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def instrument(self) -> None:
        """Wrap every function in FUNCTIONS and METHODS, and each CLI command."""
        hooks = {
            "states.simulate": self._simulate_hook,
            "estimators.estimate": _records_hook,
            "formats.write": _path_size_hook,
            "formats.parse": _path_size_hook,
        }
        for name, (modname, attrs) in FUNCTIONS.items():
            mod = sys.modules.get(modname)
            for attr in attrs:
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                self._patch_everywhere(fn, self.wrap(fn, name, hooks.get(name)))
        for name, (modname, clsname, attrs) in METHODS.items():
            cls = getattr(sys.modules.get(modname), clsname, None)
            for attr in attrs:
                raw = None if cls is None else cls.__dict__.get(attr)
                if raw is None:
                    self.missing.append(f"{modname}.{clsname}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    self._patch_attr(cls, attr, classmethod(self.wrap(raw.__func__, name)))
                else:
                    self._patch_attr(cls, attr, self.wrap(raw, name))
        cli = sys.modules.get("paulimeter.cli")
        commands = getattr(getattr(cli, "main", None), "commands", None)
        if not commands:
            self.missing.append("paulimeter.cli.main commands")
        for cmd_name, cmd in (commands or {}).items():
            self._patch_attr(cmd, "callback", self.wrap(cmd.callback, f"cli.{cmd_name}"))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.instrument()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- hooks -------------------------------------------------------------

    def _simulate_hook(self, args, kwargs, result) -> int:
        """1 when this (state, basis) pair was already sampled in the pass."""
        rho = args[0] if args else kwargs["rho"]
        basis = args[1] if len(args) > 1 else kwargs["basis"]
        self._states[id(rho)] = rho  # keeps id() unique for the whole pass
        key = (id(rho), basis.x, basis.z)
        if key in self._seen_bases:
            return 1
        self._seen_bases.add(key)
        return 0

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, one per span."""
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, value) in enumerate(self.spans):
                fh.write(json.dumps({"trace_id": self.trace_id, "id": idx, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "value": value}) + "\n")


def _records_hook(args, kwargs, result) -> int:
    records = args[0] if args else kwargs.get("records")
    try:
        return len(records)
    except TypeError:
        return 0


def _path_size_hook(args, kwargs, result) -> int:
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# -- analysis ---------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c_start, c_end in sorted(children.get(idx, ())):
            if hi is None or c_start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_start, c_end
            else:
                hi = max(hi, c_end)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def _outermost(spans: list[list]) -> list[bool]:
    """True for spans with no ancestor of the same name (nested calls such
    as estimate -> per_term_expectations are counted once)."""
    out = []
    for name, _, _, parent, _ in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        out.append(parent < 0)
    return out


def summarize(spans: list[list]) -> dict:
    """Per span name: inclusive seconds, calls, and the sum and maximum of
    the span values over outermost spans, and self seconds over all spans."""
    selfs = self_times(spans)
    top = _outermost(spans)
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "calls": 0, "value": 0, "max_value": 0, "self_s": 0.0})
    for (name, start, end, _, value), self_s, is_top in zip(spans, selfs, top):
        st = stats[name]
        st["self_s"] += self_s
        if is_top:
            st["s"] += end - start
            st["calls"] += 1
            st["value"] += value
            st["max_value"] = max(st["max_value"], value)
    return dict(stats)
