"""Spans and counters recorded around the calls into each library layer.

The library is not edited: each public function is replaced, in the
module that looks it up, by a wrapper that records a span (name, start,
end, parent) and optional counts.  Spans stay in memory until the run
ends.  A function that is missing (say, removed by a later change) is
simply not wrapped, so its metrics read 0 instead of failing.
"""

import collections
import resource
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, start, end]
        self.counts = collections.Counter()
        self._stack = []
        self._patches = []

    def wrap(self, module, attr, name, before=None, after=None, faults=False):
        """Replace module.attr by a recording wrapper.

        before(args, kwargs) may return new (args, kwargs); after(result)
        may add counts from the result; faults counts the process's minor
        page faults inside the call under name + ".faults".
        """
        orig = getattr(module, attr, None)
        if orig is None:
            return
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            if faults:
                minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1,
                          time.perf_counter(), None])
            stack.append(sid)
            try:
                result = orig(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][3] = time.perf_counter()
            if faults:
                self.counts[name + ".faults"] += (
                    resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt)
            self.counts[name + ".calls"] += 1
            if after is not None:
                after(result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def restore(self):
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def self_ms(self):
        """Self time per span name in ms: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = collections.Counter()
        for k, (name, _, start, end) in enumerate(self.spans):
            total[name] += (end - start - child[k]) * 1e3
        return total

    def dump(self):
        return [{"name": name, "parent": parent, "start": start, "end": end}
                for name, parent, start, end in self.spans]


def instrument(tracer):
    """Wrap every layer boundary the workloads cross.

    Each function is wrapped where its caller looks it up: the library
    imports names into the calling module, so e.g. the time loop's
    Monge-Ampere solve is sgtorus.dynamics.solve_ma_periodic.
    """
    from sgtorus import dynamics, lma, ma, polar, regularity, sections

    counts = tracer.counts

    def newton(pot):
        counts["ma.newton_iters"] += pot.newton_iters

    for mod in (dynamics, polar):
        tracer.wrap(mod, "solve_ma_periodic", "ma.solve", after=newton)
    tracer.wrap(ma, "spsolve", "ma.linear_solve", faults=True)
    tracer.wrap(polar, "legendre", "ma.legendre")
    tracer.wrap(polar, "pushforward_density", "polar.pushforward")
    tracer.wrap(polar, "factorize", "polar.factorize")

    tracer.wrap(dynamics, "step", "dynamics.step")
    tracer.wrap(dynamics, "transport_step", "dynamics.transport")
    tracer.wrap(dynamics, "fill_lma_residuals", "dynamics.lma_post")
    tracer.wrap(dynamics, "holder_in_time_report", "dynamics.report")
    for mod in (dynamics, polar):
        tracer.wrap(mod, "holder_fit", "regularity.holder_fit")
    tracer.wrap(regularity, "oscillation_decay", "regularity.oscillation")

    def cells(op):
        # what the constructor assembled: the full matrix it slices, if any
        full = getattr(op, "_full_matrix", None)
        assembled = (full if full is not None else op.matrix).shape[0]
        counts["lma.masked_cells"] += op.matrix.shape[0]
        counts["lma.assembled_cells"] += assembled

    for mod in (lma, dynamics, regularity):
        tracer.wrap(mod, "DivergenceFormOperator", "lma.assemble", after=cells)

    def krylov(args, kwargs):
        user = kwargs.get("callback")

        def callback(xk):
            counts["lma.krylov_iters"] += 1
            if user is not None:
                user(xk)

        kwargs["callback"] = callback
        return args, kwargs

    tracer.wrap(lma, "cg", "lma.krylov", before=krylov)
    tracer.wrap(lma, "green_integrability_report", "lma.green_report")
    tracer.wrap(lma, "solve_dirichlet_lma", "lma.dirichlet")

    tracer.wrap(sections, "extract_section", "sections.extract")
    tracer.wrap(regularity, "extract_section", "sections.extract")

    def hull(john):
        counts["sections.john_hull"] += john.method == "hull"

    tracer.wrap(sections, "john_normalize", "sections.john", after=hull)


# per-layer metric -> (unit, how to read it from self times and counts)
def _ms(name):
    return "ms", lambda ms, c: ms[name]


def _calls(name):
    return "count", lambda ms, c: c[name + ".calls"]


def _count(name):
    return "count", lambda ms, c: c[name]


def _ratio(num, den):
    return "ratio", lambda ms, c: c[num] / c[den] if c[den] else 0.0


PER_LAYER = {
    "ma.solve_ms": _ms("ma.solve"),
    "ma.solves": _calls("ma.solve"),
    "ma.linear_solve_ms": _ms("ma.linear_solve"),
    "ma.linear_solves": _calls("ma.linear_solve"),
    "ma.linear_solve_faults": _count("ma.linear_solve.faults"),
    "ma.newton_iters": _count("ma.newton_iters"),
    "ma.legendre_ms": _ms("ma.legendre"),
    "polar.pushforward_ms": _ms("polar.pushforward"),
    "polar.factorize_ms": _ms("polar.factorize"),
    "dynamics.step_ms": _ms("dynamics.step"),
    "dynamics.transport_ms": _ms("dynamics.transport"),
    "dynamics.lma_post_ms": _ms("dynamics.lma_post"),
    "dynamics.report_ms": _ms("dynamics.report"),
    "regularity.holder_fit_ms": _ms("regularity.holder_fit"),
    "regularity.oscillation_ms": _ms("regularity.oscillation"),
    "lma.assemble_ms": _ms("lma.assemble"),
    "lma.assemblies": _calls("lma.assemble"),
    "lma.cell_use": _ratio("lma.masked_cells", "lma.assembled_cells"),
    "lma.krylov_ms": _ms("lma.krylov"),
    "lma.krylov_solves": _calls("lma.krylov"),
    "lma.krylov_iters": _count("lma.krylov_iters"),
    "lma.green_report_ms": _ms("lma.green_report"),
    "lma.dirichlet_ms": _ms("lma.dirichlet"),
    "sections.extract_ms": _ms("sections.extract"),
    "sections.extracts": _calls("sections.extract"),
    "sections.john_ms": _ms("sections.john"),
    "sections.john_hull": _count("sections.john_hull"),
}


def per_layer_metrics(tracer, rounds):
    """Every per-layer metric, per round (all rounds do identical work)."""
    ms, counts = tracer.self_ms(), tracer.counts
    out = {}
    for name, (unit, read) in PER_LAYER.items():
        value = read(ms, counts)
        if unit != "ratio":
            value = value / rounds
        out[name] = {"value": float(value), "unit": unit}
    return out
