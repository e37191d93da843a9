"""In-memory span tracing of the ellreg layers, installed from outside.

``Tracer.install`` replaces public callables of the ellreg modules with
wrappers that record one span per call: name, start, end and the span that
was open when the call began (its parent). Names that a module imported by
value (``from .forward import riesz_dual_norm``) are replaced in that module
too, so every route into a layer is seen. ``Tracer.restore`` puts the
originals back. The program itself is not modified.

A span name is ``<layer>.<callable>``; the layer is the part before the
first dot. A layer's self time is the sum, over its spans, of the span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

LAYERS = ("mesh", "assembly", "forward", "objectives", "noise", "setvalued",
          "optimizer", "experiments")


class _ModuleProxy:
    """Stands in for a module; ``overrides`` shadow its attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.lu_fill_nnz: list[int] = []  # L.nnz + U.nnz of each forward factorization
        self._stack: list[int] = []
        self._paused_ns = 0  # tracer bookkeeping removed from the span clock
        self._saved: list[tuple] = []

    def _now(self) -> int:
        return time.perf_counter_ns() - self._paused_ns

    def wrap(self, name: str, fn):
        names, start, end, parent, stack = (self.names, self.start, self.end,
                                            self.parent, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(self._now())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = self._now()
                stack.pop()

        return traced

    def _splu(self, splu):
        traced = self.wrap("forward.splu", splu)

        @functools.wraps(splu)
        def splu_with_fill(*args, **kwargs):
            lu = traced(*args, **kwargs)
            t0 = time.perf_counter_ns()
            self.lu_fill_nnz.append(int(lu.L.nnz + lu.U.nnz))
            self._paused_ns += time.perf_counter_ns() - t0
            return lu

        return splu_with_fill

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self, name, owner, attr, *aliases):
        """Trace ``owner.attr`` as ``name``; ``aliases`` hold the same object."""
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original)
        for o in (owner, *aliases):
            if getattr(o, attr) is not original:
                raise RuntimeError(f"{o.__name__}.{attr} is not the traced {name}")
            self._set(o, attr, wrapped)

    def install(self) -> None:
        from ellreg import (assembly, experiments, forward, mesh, noise,
                            objectives, optimizer, setvalued)

        self._patch("mesh.build_unit_square", mesh, "build_unit_square", experiments)
        for fn in ("apply_L", "apply_Lt", "assemble_stiffness", "assemble_mass",
                   "assemble_weighted_mass", "assemble_perturbed_stiffness",
                   "assemble_s_matrix", "assemble_load"):
            self._patch(f"assembly.{fn}", assembly, fn)

        op = forward.RegularizedForwardOperator
        self._patch("forward.operator", op, "__init__")
        self._patch("forward.solve", op, "solve")
        self._set(forward, "spla", _ModuleProxy(forward.spla,
                                                splu=self._splu(forward.spla.splu)))
        self._patch("forward.riesz_dual_norm", forward, "riesz_dual_norm",
                    noise, setvalued)
        self._patch("forward.solve_neumann_mean_zero", forward,
                    "solve_neumann_mean_zero", setvalued)

        for fn in ("ols_hessian_action", "mols_hessian_action", "regularizer_eval"):
            self._patch(f"objectives.{fn}", objectives, fn)
        for fn in ("perturb_data", "perturb_functional"):
            self._patch(f"noise.{fn}", noise, fn)

        probe = setvalued.ContingentProbe
        self._patch("setvalued.ContingentProbe", probe, "__init__")
        for fn in ("run", "fcd_residual", "scd_residual"):
            self._patch(f"setvalued.{fn}", probe, fn)

        self._patch("optimizer.minimize", optimizer, "minimize", experiments)
        self._patch("optimizer.operator", optimizer.IdentificationProblem, "operator")

        self._patch("experiments.run_cell", experiments, "run_cell")
        build = experiments.ManufacturedProblem.__dict__["build"]
        self._set(experiments.ManufacturedProblem, "build",
                  classmethod(self.wrap("experiments.ManufacturedProblem.build",
                                        build.__func__)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        """Per-name calls and seconds, per-layer self seconds, mean LU fill."""
        if self._stack:
            raise RuntimeError("summary taken with spans still open")
        child_ns = [0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        total_ns = defaultdict(int)
        self_ns = {layer: 0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            total_ns[name] += dur
            self_ns[name.split(".", 1)[0]] += dur - child_ns[i]
        return {
            "calls": dict(calls),
            "s": {k: v * 1e-9 for k, v in total_ns.items()},
            "self_s": {k: v * 1e-9 for k, v in self_ns.items()},
            "lu_fill_nnz": (sum(self.lu_fill_nnz) / len(self.lu_fill_nnz)
                            if self.lu_fill_nnz else 0.0),
        }

    def write_spans(self, path) -> None:
        """One line per span: index, name, start_ns, end_ns, parent index."""
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.start[i]},{self.end[i]},{self.parent[i]}\n")
