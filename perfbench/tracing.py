"""Span recorder and the layer-boundary wrappers of the traced run.

Every wrapper is installed from this file, around public ptstab callables as
``ptstab.cli`` and the benchmark see them, and around the callables that a
controller, a disturbance or a time scale hands to the integrator.  Nothing
under ``src/`` is edited, and every patch is undone when ``install`` exits.

A span records, per name, the call count, the wall time and the self time
(wall time minus the time of the spans it encloses).  Integrator calls get a
record of their own: accepted steps, right-hand-side (RHS) evaluations, the
self time up to the last RHS evaluation and the post-hoc time after it.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import defaultdict
from time import perf_counter

import ptstab.cli as cli
import ptstab.gainfile as gainfile
import ptstab.sim as sim
import ptstab.switching as switching


class Recorder:
    """In-memory spans and integrator records of one pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.integrations = []
        self.verify_rows = 0
        self.rhs_count = 0
        self.timescale_self = 0.0
        self._stack = []  # child seconds of each open span
        self._last_rhs = None  # (end time, child seconds of the enclosing span)

    def _close(self, name, t0, t1, child):
        dt = t1 - t0
        if self._stack:
            self._stack[-1] += dt
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += dt - child
        if name.startswith("timescale."):
            self.timescale_self += dt - child

    def wrap(self, name, fn, rhs=False):
        """Span around fn; rhs=True marks one right-hand-side evaluation."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._close(name, t0, t1, stack.pop())
                if rhs:
                    self.rhs_count += 1
                    self._last_rhs = (t1, stack[-1] if stack else 0.0)

        return wrapper

    def wrap_integrator(self, name, fn):
        """Span around integrate/integrate_warped that also splits stepping from post-hoc work."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            rhs0, ts0 = self.rhs_count, self.timescale_self
            self._last_rhs = None
            t0 = perf_counter()
            traj = None
            try:
                traj = fn(*args, **kwargs)
                return traj
            finally:
                t1 = perf_counter()
                child = stack.pop()
                self._close(name, t0, t1, child)
                last_t, child_at_last = self._last_rhs or (t1, child)
                self.integrations.append(
                    {
                        "name": name,
                        "label": "",
                        "seconds": t1 - t0,
                        "iss_s": 0.0,
                        "steps": len(traj.t) - 1 if traj is not None else 0,
                        "rhs": self.rhs_count - rhs0,
                        "stepping_self_s": (last_t - t0) - child_at_last,
                        "posthoc_s": t1 - last_t,
                        "timescale_s": self.timescale_self - ts0,
                    }
                )

        return wrapper

    def wrap_iss(self, fn):
        """iss_metrics span; its time is added to the run it follows."""
        inner = self.wrap("sim.iss_metrics", fn)

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                if self.integrations:
                    self.integrations[-1]["iss_s"] += perf_counter() - t0

        return wrapper

    def wrap_scan(self, name, fn):
        """verify_decay/decay_residual span that also counts the rows scanned."""
        inner = self.wrap(name, fn)

        def wrapper(g, kappa_points, samples_per_kappa, *args, **kwargs):
            # each grid kappa scans its sphere samples plus n-2 stress copies
            self.verify_rows += kappa_points * samples_per_kappa * (1 + max(0, g.n - 2))
            return inner(g, kappa_points, samples_per_kappa, *args, **kwargs)

        return wrapper

    def timescale(self, ts):
        """Wrap a TimeScale instance's methods (instance attributes shadow the class)."""
        for meth in ("a", "A", "lam", "s", "t_of_s"):
            setattr(ts, meth, self.wrap(f"timescale.{meth}", getattr(ts, meth)))
        return ts

    def disturbance(self, spec):
        spec.d = self.wrap("sim.d", spec.d, rhs=True)
        spec.b = self.wrap("sim.b", spec.b)
        return spec

    def controller(self, ctrl, u_name):
        return dataclasses.replace(
            ctrl,
            u=self.wrap(u_name, ctrl.u),
            surfaces=ctrl.surfaces and self.wrap("switching.surface", ctrl.surfaces),
            diag=ctrl.diag and self.wrap("switching.diag", ctrl.diag),
        )


@contextlib.contextmanager
def install(rec: Recorder, full: bool):
    """Patch the layer boundaries for one pass; undo every patch on exit.

    full=False installs only the run timers (the integrators and
    iss_metrics), which the end-to-end passes need for seconds per run.
    """
    patches = [
        (cli, "integrate", rec.wrap_integrator("sim.integrate", cli.integrate)),
        (sim, "integrate_warped", rec.wrap_integrator("sim.integrate_warped", sim.integrate_warped)),
        (cli, "iss_metrics", rec.wrap_iss(cli.iss_metrics)),
    ]
    if full:
        make_dist = cli.DisturbanceSpec
        robust, pnf_ctrl, build = cli.robust_controller, cli.pnf_controller, cli.build
        patches += [
            (cli, "DisturbanceSpec", lambda *a, **k: rec.disturbance(make_dist(*a, **k))),
            (cli, "robust_controller", lambda *a, **k: rec.controller(robust(*a, **k), "switching.feedback")),
            (cli, "pnf_controller", lambda *a, **k: rec.controller(pnf_ctrl(*a, **k), "pnf.feedback")),
            (cli, "build", lambda *a, **k: rec.timescale(build(*a, **k))),
            (cli, "verify_decay", rec.wrap_scan("hong.verify_decay", cli.verify_decay)),
            (cli, "decay_residual", rec.wrap_scan("hong.decay_residual", cli.decay_residual)),
        ]
        for name in ("read_config", "validate_config", "read_gains"):
            fn = rec.wrap(f"gainfile.{name}", getattr(gainfile, name))
            patches += [(cli, name, fn), (gainfile, name, fn)]
        design = rec.wrap("switching.design_switch_params", switching.design_switch_params)
        patches += [(cli, "design_switch_params", design), (switching, "design_switch_params", design)]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, fn in patches:
            setattr(mod, name, fn)
        yield rec
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
