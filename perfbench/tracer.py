"""Span tracer installed around calls into adfq's modules from outside.

Each wrapper replaces the module attribute that a caller resolves at
call time: ``AdfqAgent.update`` looks up ``adfq.agents.adfq_update``,
``_learning_trial`` looks up ``adfq.harness.agent_step`` and so on, so
tracing needs no change to any source file. A span's self time is its
duration minus the time covered by its child spans; a layer's busy time
is the sum of the self times of its spans, so time spent in NumPy or
SciPy counts for the layer that called it.

Spans are aggregated in memory as they close (self times per name,
inclusive totals and per-call counters) rather than kept
as records, so a traced run of a few hundred thousand calls stays small.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "harness", "agents", "engine", "beliefs", "posterior", "envs")
USEFUL_WEIGHT = 1e-12


class Tracer:
    def __init__(self) -> None:
        # covered[-1] accumulates the child-span time of the innermost open span
        self._covered = [0.0]
        self.self_s: dict[str, array] = {}
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.layer: dict[str, str] = {}

    def span(self, layer: str, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span named ``layer.name``.

        ``after(result, args)`` runs once the span has closed; its cost
        is charged to neither the span nor its parent.
        """
        key = f"{layer}.{name}"
        self.layer[key] = layer
        selfs = self.self_s.setdefault(key, array("d"))
        total, covered = self.total_s, self._covered
        clock = time.perf_counter

        def traced(*args, **kwargs):
            covered.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                selfs.append(dur - covered.pop())
                total[key] += dur
                covered[-1] += dur
            if after is not None:
                t1 = clock()
                after(result, args)
                covered[-1] += clock() - t1
            return result

        return traced

    def patch(self, owner, attr: str, layer: str, name: str | None = None, after=None) -> None:
        """Replace ``owner.attr`` by its traced wrapper.

        A missing attribute raises, so a traced run fails instead of
        reporting 0 for a layer whose entry point was renamed or moved.
        """
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            raise AttributeError(f"cannot trace {owner.__name__}.{attr}: no such attribute")
        setattr(owner, attr, self.span(layer, name or attr, fn, after))

    # -- counters fed by ``after`` hooks ---------------------------------

    def _after_solve_peak_mean(self, mu_star, args) -> None:
        self.counts["active_targets"] += sum(1 for m, _ in args[1] if m > mu_star)

    def _after_adfq_update(self, result, args) -> None:
        table = args[0]
        self.counts["branches"] += len(result.branches)
        self.counts["useful_branches"] += sum(
            1 for br in result.branches if br.weight >= USEFUL_WEIGHT
        )
        if result.new_variance <= table.variance_floor:
            self.counts["floor_clamps"] += 1

    def _after_quadrature(self, result, args) -> None:
        table, tau = args[0], args[1]
        grid = args[2] if len(args) > 2 and args[2] is not None else self._default_grid
        self.counts["grid_cells"] += grid.n * (1 if tau.terminal else table.n_actions)

    def _after_write_csv(self, path, args) -> None:
        self.counts["csv_bytes"] += Path(path).stat().st_size

    def install(self) -> None:
        """Wrap the public entry points of every traced layer."""
        import adfq.agents as agents
        import adfq.beliefs as beliefs
        import adfq.cli as cli
        import adfq.engine as engine
        import adfq.harness as harness
        import adfq.posterior as posterior

        self._default_grid = posterior.GridSpec()
        p = self.patch
        # harness, as the CLI calls it
        p(cli, "run_learning", "harness")
        p(cli, "run_convergence", "harness")
        p(cli, "write_records_csv", "harness", after=self._after_write_csv)
        p(harness, "rmse", "harness")
        p(harness, "greedy_rollout", "harness")
        # envs, as the harness and the agents call it
        for attr in ("build_loop", "build_maze", "build_arms_mdp", "optimal_q", "greedy_policy"):
            p(harness, attr, "envs")
        p(harness, "step", "envs")
        p(agents, "step", "envs")
        # agents, as the harness calls them
        p(harness, "make_agent", "agents")
        p(harness, "agent_step", "agents")
        p(agents, "select_action", "agents")
        p(agents, "qlearning_update", "agents")
        for cls in (agents.AdfqAgent, agents.AdfqNumericAgent, agents.QLearningAgent):
            p(cls, "update", "agents", name=f"{cls.__name__}.update")
        p(agents.EpisodeRunner, "step", "agents", name="EpisodeRunner.step")
        # engine, as the agents call it
        p(agents, "adfq_update", "engine", after=self._after_adfq_update)
        p(agents, "apply_update", "engine")
        p(engine, "solve_peak_mean", "engine", after=self._after_solve_peak_mean)
        # beliefs, as the engine and posterior call it
        for mod in (engine, posterior):
            p(mod, "td_components", "beliefs")
            p(mod, "terminal_components", "beliefs")
        p(beliefs.BeliefTable, "belief", "beliefs")
        p(beliefs.BeliefTable, "set_belief", "beliefs")
        # posterior, as the numeric agent calls it
        p(agents, "quadrature_log_moments", "posterior", after=self._after_quadrature)

    # -- summary ---------------------------------------------------------

    def _calls(self, key: str) -> int:
        return len(self.self_s.get(key, ()))

    def _self_us(self, key: str, q: float) -> float:
        values = self.self_s.get(key)
        if not values:
            return 0.0
        return float(np.quantile(np.frombuffer(values, dtype=float), q)) * 1e6

    def summary(self, root_key: str) -> dict[str, float]:
        """Per-layer metrics relative to the root span ``root_key``."""
        wall = self.total_s[root_key]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for key, values in self.self_s.items():
            layer_self[self.layer[key]] += float(np.sum(np.frombuffer(values, dtype=float)))
        c = self.counts
        solves = self._calls("engine.solve_peak_mean")
        out = {
            "engine.adfq_update.calls": self._calls("engine.adfq_update"),
            "engine.adfq_update.self_us_p50": self._self_us("engine.adfq_update", 0.5),
            "engine.adfq_update.self_us_p99": self._self_us("engine.adfq_update", 0.99),
            "engine.solve_peak_mean.calls": solves,
            "engine.active_set_mean": c["active_targets"] / solves if solves else 0.0,
            "engine.useful_branch_ratio": (
                c["useful_branches"] / c["branches"] if c["branches"] else 0.0
            ),
            "engine.floor_clamps": c["floor_clamps"],
            "beliefs.td_components.calls": self._calls("beliefs.td_components"),
            "beliefs.td_components.self_us_p50": self._self_us("beliefs.td_components", 0.5),
            "posterior.quadrature_log_moments.calls": self._calls(
                "posterior.quadrature_log_moments"
            ),
            "posterior.quadrature_log_moments.self_us_p50": self._self_us(
                "posterior.quadrature_log_moments", 0.5
            ),
            "posterior.quadrature_log_moments.self_us_p99": self._self_us(
                "posterior.quadrature_log_moments", 0.99
            ),
            "posterior.grid_cells": c["grid_cells"],
            "agents.select_action.calls": self._calls("agents.select_action"),
            "agents.select_action.self_us_p50": self._self_us("agents.select_action", 0.5),
            "agents.qlearning_update.calls": self._calls("agents.qlearning_update"),
            "agents.qlearning_update.self_us_p50": self._self_us("agents.qlearning_update", 0.5),
            "envs.step.calls": self._calls("envs.step"),
            "envs.step.self_us_p50": self._self_us("envs.step", 0.5),
            "envs.optimal_q_s": self.total_s["envs.optimal_q"],
            "envs.build_s": sum(
                self.total_s[f"envs.{attr}"]
                for attr in ("build_loop", "build_maze", "build_arms_mdp")
            ),
            "harness.eval.calls": self._calls("harness.rmse"),
            "harness.eval_s": self.total_s["harness.rmse"] + self.total_s["harness.greedy_rollout"],
            "harness.csv_bytes": c["csv_bytes"],
            "cli.self_s": layer_self["cli"],
        }
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.busy_share"] = layer_self[layer] / wall
        return out
