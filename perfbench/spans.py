"""Outside-in tracing of gridlq: spans recorded around calls into its
public functions and into methods of the instances the benchmark builds.

A span is ``[name, start, end, parent, solve, flops]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``solve`` the identifier
shared by the spans of one solve, and ``flops`` the scalar multiplies the
call performs as gridlq itself counts them, scaled by the operand's column
count. Spans stay in memory until ``write`` saves them.

Wrapping changes no arithmetic: a traced solve must give the same bits as
an untraced one, which the benchmark checks on every traced run.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

import numpy as np

from gridlq import cli, kkt_assembly
from gridlq import (
    NestedJacobiPreconditioner,
    build_schur,
    build_splitting,
    build_stacked,
    condition_numbers,
    kkt_residual,
    pcg_solve,
    recover_solution,
    splitting_spectral_radii,
    validate,
)

# Layers that run inside the solve; only calls made under a pcg_solve span
# count towards them, so the diagnostics' dense applies stay out.
SOLVE_LAYERS = ("schur.apply", "pair.solve", "inner.coupling", "outer.coupling",
                "precond.apply")
PCG_VECTOR_KEYS = ("curvature_dot", "solution_update", "residual_update",
                   "residual_norm", "precondition_dot", "direction_update")


def _columns(args):
    return 1 if np.ndim(args[0]) == 1 else np.shape(args[0])[1]


class Tracer:
    """Span recorder plus traced stand-ins for the gridlq entry points."""

    def __init__(self):
        self.spans = []
        self.reports = []   # (pcg span index, SolveReport, operator dimension)
        self.solve = 0
        self._stack = []

    def wrap(self, name, fn, flops=0):
        """``fn`` recording one span per call; ``flops`` is per operand column."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.solve,
                    flops * _columns(args) if flops else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    # -- traced entry points ------------------------------------------------

    def build_schur(self, stacked):
        schur = self.wrap("build_schur", build_schur)(stacked)
        schur.apply = self.wrap("schur.apply", schur.apply, schur.matvec_flops)
        schur.apply_outer_coupling = self.wrap(
            "outer.coupling", schur.apply_outer_coupling, schur.outer_coupling_flops)
        return schur

    def build_splitting(self, schur):
        splitting = self.wrap("build_splitting", build_splitting)(schur)
        splitting.apply_inner_coupling = self.wrap(
            "inner.coupling", splitting.apply_inner_coupling,
            splitting.inner_coupling_flops)
        return splitting

    def preconditioner(self, schur, inner_sweeps=2, outer_sweeps=2, splitting=None):
        index = len(self.spans)
        precond = self.wrap("factor", NestedJacobiPreconditioner)(
            schur, inner_sweeps=inner_sweeps, outer_sweeps=outer_sweeps,
            splitting=splitting)
        self.spans[index][5] = sum(f.factor_flops for f in precond.factors.values())
        for factor in precond.factors.values():
            factor.solve = self.wrap("pair.solve", factor.solve, factor.solve_flops)
        precond.apply = self.wrap("precond.apply", precond.apply)
        return precond

    def pcg_solve(self, schur, precond, rhs, **kwargs):
        index = len(self.spans)
        lam, report = self.wrap("pcg_solve", pcg_solve)(schur, precond, rhs, **kwargs)
        self.reports.append((index, report, schur.dim))
        return lam, report

    def api(self):
        """The gridlq calls a workload makes, each recording spans."""
        return {
            "validate": self.wrap("validate", validate),
            "build_stacked": self.wrap("build_stacked", build_stacked),
            "build_schur": self.build_schur,
            "build_splitting": self.build_splitting,
            "NestedJacobiPreconditioner": self.preconditioner,
            "pcg_solve": self.pcg_solve,
            "recover_solution": self.wrap("recover_solution", recover_solution),
            "kkt_residual": self.wrap("kkt_residual", kkt_residual),
            "condition_numbers": self.wrap("condition_numbers", condition_numbers),
            "splitting_spectral_radii": self.wrap(
                "splitting_spectral_radii", splitting_spectral_radii),
        }

    @contextlib.contextmanager
    def patched(self):
        """Route the names ``gridlq.cli`` imports, and the ``validate`` that
        ``build_stacked`` calls, through the tracer; restore them on exit."""
        api = self.api()
        targets = [(kkt_assembly, "validate", api["validate"])]
        targets += [(cli, name, fn) for name, fn in api.items()]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in targets]
        try:
            for mod, name, fn in targets:
                setattr(mod, name, fn)
            yield
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    # -- analysis -------------------------------------------------------------

    def _solve_roots(self):
        """For each span, the index of the pcg_solve span it is or runs
        under, or -1."""
        roots = [-1] * len(self.spans)
        for i, (name, _, _, parent, _, _) in enumerate(self.spans):
            if name == "pcg_solve":
                roots[i] = i
            elif parent >= 0:
                roots[i] = roots[parent]
        return roots

    def layers(self):
        """Per-name totals: calls, inclusive and self seconds, flops.

        A solve layer counts only the calls made under a pcg_solve span.
        Self time is a span's duration minus that of its direct children,
        which on one thread cover disjoint parts of it.
        """
        self_s = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        roots = self._solve_roots()
        out = {}
        for i, (name, start, end, _, _, flops) in enumerate(self.spans):
            if name in SOLVE_LAYERS and roots[i] < 0:
                continue
            tot = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "flops": 0})
            tot["calls"] += 1
            tot["s"] += end - start
            tot["self_s"] += self_s[i]
            tot["flops"] += flops
        return out

    def solve_flops(self):
        """Per traced solve, (traced, counted): the flops of the operator
        apply, of the preconditioner's three kernels and of the CG vector
        work, and the step count, as the spans show them and as
        ``SolveReport`` counted them.

        The CG vector work is one length-n pass per step for each of four
        updates, plus a dot and a direction update per preconditioner
        apply, less the direction update the first apply does not need.
        """
        sums = {}
        for root, span in zip(self._solve_roots(), self.spans):
            if root >= 0:
                entry = sums.setdefault((root, span[0]), [0, 0])
                entry[0] += 1
                entry[1] += span[5]
        out = []
        for index, report, dim in self.reports:
            calls = lambda name: sums.get((index, name), [0, 0])[0]
            flops = lambda name: sums.get((index, name), [0, 0])[1]
            counts = report.op_counts
            traced = {
                "operator_apply": flops("schur.apply"),
                "preconditioner_apply": flops("pair.solve") + flops("inner.coupling")
                + flops("outer.coupling"),
                "vector": dim * (4 * calls("schur.apply") + 2 * calls("precond.apply") - 1),
                "steps": calls("schur.apply"),
            }
            counted = {
                "operator_apply": counts["operator_apply"],
                "preconditioner_apply": counts["preconditioner_apply"],
                "vector": sum(counts[k] for k in PCG_VECTOR_KEYS),
                "steps": report.steps,
            }
            out.append((traced, counted))
        return out

    def flop_mismatches(self):
        """Traced solves whose flops or steps differ from what pcg counted;
        an exact match shows the tracer saw every call."""
        return [
            f"solve {self.spans[index][4]}: {key} traced {traced[key]!r} "
            f"!= counted {counted[key]!r}"
            for (index, _, _), (traced, counted) in zip(self.reports, self.solve_flops())
            for key in traced
            if traced[key] != counted[key]
        ]

    def write(self, path, record):
        """Save the run record and every span as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"record": record,
                       "fields": ["name", "start", "end", "parent", "solve", "flops"],
                       "spans": self.spans}, fh)
