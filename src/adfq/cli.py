"""Command-line interface: demos, experiments, and oracle sweeps.

Subcommands:

* ``update-demo``: print one belief update with per-branch diagnostics
  for a configurable prior / next-state belief layout, next to the
  quadrature reference.
* ``convergence``: fixed-trajectory RMSE runs for one or more agents.
* ``learn``: online learning with periodic frozen greedy evaluation.
* ``oracle-check``: randomized sweep comparing the analytic update,
  quadrature moments, and the two-action closed form.
* ``solve``: print the optimal Q-table of a bundled domain.

Every flag can also be supplied through ``--config FILE`` or
``--config=FILE``, a file of flat ``key = value`` lines whose keys are
the long flag names without the dashes (``sigma-w = 0.1``); explicit
flags override file values. A key must name a flag of the subcommand
exactly: the abbreviations argparse accepts on the command line are
rejected in a file. Flag defaults are read from
``ExperimentConfig``, ``PolicySpec`` and ``DomainSpec``, so the CLI and
the library run the same experiment for the same settings. Experiment
subcommands require ``--seed`` so that no run is accidentally
unreproducible. Exit codes: 0 success, 2 configuration error, 1 runtime
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .agents import AGENT_KINDS, PolicySpec
from .beliefs import DEFAULT_VARIANCE_FLOOR, BeliefTable, Transition
from .engine import adfq_update
from .envs import greedy_policy, optimal_q
from .harness import (
    DomainSpec,
    ExperimentConfig,
    mean_by_step,
    output_path,
    run_convergence,
    run_learning,
    write_records_csv,
)
from .posterior import (
    GridSpec,
    exact_two_action_moments,
    quadrature_log_moments,
)

POLICY_FLAGS = {
    "egreedy": "epsilon_greedy",
    "boltzmann": "boltzmann",
    "ts": "thompson",
    "uniform": "uniform_random",
}


class CliError(Exception):
    """Configuration problem that should exit with status 2."""


class _Parser(argparse.ArgumentParser):
    """Argument parser that records its long flag names without the dashes.

    They are the keys a config file may set. ``commands`` maps each
    subcommand name to its parser.
    """

    def __init__(self, *args, **kwargs) -> None:
        # before super().__init__, which adds --help through add_argument
        self.long_flags: set[str] = set()
        self.commands: dict[str, _Parser] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs) -> argparse.Action:
        action = super().add_argument(*args, **kwargs)
        self.long_flags.update(o[2:] for o in action.option_strings if o.startswith("--"))
        return action


def _add_domain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domain", choices=("loop", "maze", "arms"), default="loop",
                   help="bundled domain")
    p.add_argument("--slip", type=float, default=DomainSpec.slip, help="action slip probability")
    p.add_argument("--n-arms", type=int, default=DomainSpec.n_arms,
                   help="arms for the arms domain")
    p.add_argument("--maze-file", type=str, default=None,
                   help="maze layout file (default: bundled maze)")
    p.add_argument("--gamma", type=float, default=DomainSpec.gamma,
                   help="discount override (default: domain standard)")


def _add_sigma_w_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma-w", type=float, default=ExperimentConfig.sigma_w,
                   help="TD target noise std (Q-value units)")


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    _add_sigma_w_flag(p)
    p.add_argument("--init-variance", type=float, default=ExperimentConfig.init_variance,
                   help="initial belief variance")
    p.add_argument("--init-mean-low", type=float, default=ExperimentConfig.init_mean_range[0],
                   help="low end of the uniform initial-mean interval")
    p.add_argument("--init-mean-high", type=float, default=ExperimentConfig.init_mean_range[1],
                   help="high end of the uniform initial-mean interval")
    p.add_argument("--variance-floor", type=float, default=ExperimentConfig.variance_floor,
                   help="lower clamp on belief variances")
    p.add_argument("--alpha0", type=float, default=ExperimentConfig.alpha0,
                   help="Q-learning initial learning rate")
    p.add_argument("--n0", type=float, default=ExperimentConfig.n0,
                   help="Q-learning schedule offset: alpha0*(n0+1)/(n0+t)")
    p.add_argument("--grid-points", type=int, default=ExperimentConfig.grid_points,
                   help="quadrature grid size for the numeric agent")


def _add_experiment_flags(p: argparse.ArgumentParser, default_horizon: int) -> None:
    p.add_argument("--horizon", type=int, default=default_horizon, help="learning steps")
    p.add_argument("--eval-every", type=int, default=ExperimentConfig.eval_every,
                   help="evaluation cadence (default horizon/100)")
    p.add_argument("--trials", type=int, default=ExperimentConfig.n_trials,
                   help="independent trials")
    p.add_argument("--seed", type=int, default=None,
                   help="experiment seed (required for reproducibility)")
    p.add_argument("--jobs", type=int, default=ExperimentConfig.jobs,
                   help="trial-level worker processes")
    p.add_argument("--out", type=str, default=ExperimentConfig.output_dir,
                   help="output directory (default: $ADFQ_OUTPUT_DIR or '.')")


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    default_policy = {v: k for k, v in POLICY_FLAGS.items()}[ExperimentConfig.policy.kind]
    p.add_argument("--policy", choices=sorted(POLICY_FLAGS), default=default_policy,
                   help="action-selection policy")
    p.add_argument("--epsilon", type=float, default=PolicySpec.epsilon,
                   help="exploration probability")
    p.add_argument("--temperature", type=float, default=PolicySpec.temperature,
                   help="Boltzmann temperature")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="adfq",
        description="Bayesian Q-learning with assumed density filtering",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    def add_command(name: str, help_text: str) -> _Parser:
        p = parser.commands[name] = sub.add_parser(name, formatter_class=fmt, help=help_text)
        p.add_argument("--config", type=str, default=None, help="flat key=value config file")
        return p

    p = add_command("update-demo", "print one belief update with branch diagnostics")
    p.add_argument("--prior", type=str, default="0:1", help="prior belief as mean:variance")
    p.add_argument("--next", dest="next_beliefs", type=str, default="-2:2,-2:0.5,4.5:0.5",
                   help="next-state beliefs as mean:variance, comma separated")
    p.add_argument("--reward", type=float, default=0.0, help="observed reward")
    p.add_argument("--gamma", type=float, default=0.9, help="discount factor")
    _add_sigma_w_flag(p)
    p.add_argument("--variance-floor", type=float, default=DEFAULT_VARIANCE_FLOOR,
                   help="lower clamp on belief variances")
    p.add_argument("--quad-points", type=int, default=8001,
                   help="grid size for the quadrature reference")

    p = add_command("convergence", "fixed-trajectory RMSE runs against optimal Q-values")
    _add_domain_flags(p)
    p.add_argument("--agents", type=str, default="adfq,qlearning",
                   help="comma-separated agent kinds: " + ",".join(AGENT_KINDS))
    _add_experiment_flags(p, default_horizon=3000)
    _add_hyper_flags(p)

    p = add_command("learn", "online learning with periodic greedy evaluation")
    _add_domain_flags(p)
    p.add_argument("--agent", choices=AGENT_KINDS, default=ExperimentConfig.agents[0],
                   help="agent kind")
    _add_policy_flags(p)
    _add_experiment_flags(p, default_horizon=10000)
    _add_hyper_flags(p)

    p = add_command("oracle-check", "randomized analytic-vs-oracle error sweep")
    p.add_argument("--trials", type=int, default=1000, help="random configurations")
    p.add_argument("--seed", type=int, default=None, help="sweep seed (required)")
    p.add_argument("--max-actions", type=int, default=10, help="largest action set")
    _add_sigma_w_flag(p)
    p.add_argument("--quad-points", type=int, default=4001,
                   help="grid size for the quadrature reference")

    p = add_command("solve", "print the optimal Q-table of a domain")
    _add_domain_flags(p)
    p.add_argument("--tol", type=float, default=1e-10, help="value-iteration residual")
    return parser


def _config_tokens(path: Path, keys: set[str]) -> list[str]:
    """``--key=value`` tokens for the ``key = value`` lines of ``path``.

    Each key must be one of ``keys``, the subcommand's long flag names.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    tokens = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise CliError(f"{path}:{line_no}: unknown config key {key!r}")
        tokens.append(f"--{key}={value}")
    return tokens


def _parse_args(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``, reading ``--config FILE`` values as if given first.

    The file's tokens go right after the subcommand, so explicit flags,
    which argparse reads later, override them. Argparse converts and
    checks every value; a bad one exits with status 2.
    """
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    tokens = _config_tokens(Path(args.config), parser.commands[args.command].long_flags)
    return parser.parse_args(argv[:1] + tokens + argv[1:])


def _parse_belief(text: str) -> tuple[float, float]:
    try:
        mean, variance = text.split(":")
        return float(mean), float(variance)
    except ValueError as exc:
        raise CliError(f"expected mean:variance, got {text!r}") from exc


def _domain_spec(args: argparse.Namespace) -> DomainSpec:
    layout = None
    if args.domain == "maze" and args.maze_file is not None:
        try:
            layout = Path(args.maze_file).read_text(encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot read maze file: {exc}") from exc
    return DomainSpec(
        name=args.domain,
        slip=args.slip,
        n_arms=args.n_arms,
        layout=layout,
        gamma=args.gamma,
    )


def _policy_spec(args: argparse.Namespace) -> PolicySpec:
    return PolicySpec(
        POLICY_FLAGS[args.policy],
        epsilon=args.epsilon,
        temperature=args.temperature,
    )


def _experiment_config(args, agents, policy) -> ExperimentConfig:
    return ExperimentConfig(
        domain=_domain_spec(args),
        horizon=args.horizon,
        seed=args.seed,
        agents=agents,
        policy=policy,
        eval_every=args.eval_every,
        n_trials=args.trials,
        jobs=args.jobs,
        sigma_w=args.sigma_w,
        init_variance=args.init_variance,
        init_mean_range=(args.init_mean_low, args.init_mean_high),
        variance_floor=args.variance_floor,
        alpha0=args.alpha0,
        n0=args.n0,
        grid_points=args.grid_points,
        output_dir=args.out,
    )


def _cmd_update_demo(args) -> int:
    prior = _parse_belief(args.prior)
    targets = [_parse_belief(tok) for tok in args.next_beliefs.split(",") if tok]
    if not targets:
        raise CliError("--next needs at least one mean:variance entry")
    n = len(targets)
    means = np.array([[prior[0]] * n, [t[0] for t in targets]])
    variances = np.array([[prior[1]] * n, [t[1] for t in targets]])
    table = BeliefTable(
        means, variances, gamma=args.gamma, sigma_w=args.sigma_w,
        variance_floor=args.variance_floor,
    )
    tau = Transition(s=0, a=0, r=args.reward, s_next=1)
    grid = GridSpec(n=args.quad_points)
    result = adfq_update(table, tau)
    print(f"prior: mean {prior[0]:+.6f}  variance {prior[1]:.6f}")
    print(f"observed reward {args.reward:+.4f}, gamma {args.gamma}, sigma_w {args.sigma_w}")
    print()
    header = (
        f"{'b':>3} {'target_m':>10} {'target_v':>10} {'c':>11} {'mu_bar':>10} "
        f"{'var_bar':>10} {'mu*':>10} {'var*':>10} {'log_k*':>12} {'weight':>9}"
    )
    print(header)
    for br in result.branches:
        c = br.components
        print(
            f"{br.b:>3} {c.m:>10.5f} {c.v:>10.5f} {c.c:>11.5e} {c.mu_bar:>10.5f} "
            f"{c.var_bar:>10.5f} {br.mu_star:>10.5f} {br.var_star:>10.5f} "
            f"{br.log_k_star:>12.5f} {br.weight:>9.6f}"
        )
    print()
    print(f"analytic update : mean {result.new_mean:+.8f}  variance {result.new_variance:.8f}")
    _, q_mean, q_var = quadrature_log_moments(table, tau, grid)
    print(f"quadrature ref  : mean {q_mean:+.8f}  variance {q_var:.8f}")
    if n == 2 and args.sigma_w == 0.0:
        e_mean, e_var = exact_two_action_moments(table, tau)
        print(f"exact two-action: mean {e_mean:+.8f}  variance {e_var:.8f}")
    return 0


def _cmd_convergence(args) -> int:
    agents = tuple(tok.strip() for tok in args.agents.split(",") if tok.strip())
    config = _experiment_config(args, agents, PolicySpec("uniform_random"))
    records = run_convergence(config)
    for kind, recs in records.items():
        path = write_records_csv(output_path(config, "convergence", kind), recs)
        rows = mean_by_step(recs)
        print(f"{kind}: wrote {len(recs)} records to {path}")
        print(f"{kind}: mean RMSE start {rows[0][1]:.6f} final {rows[-1][1]:.6f}")
    return 0


def _cmd_learn(args) -> int:
    config = _experiment_config(args, (args.agent,), _policy_spec(args))
    records = run_learning(config)
    path = write_records_csv(output_path(config, "learn", args.agent), records)
    rows = mean_by_step(records)
    print(f"{args.agent}: wrote {len(records)} records to {path}")
    print(
        f"{args.agent}: mean greedy return start {rows[0][2]:.4f} final {rows[-1][2]:.4f}; "
        f"mean RMSE final {rows[-1][1]:.6f}"
    )
    return 0


def _cmd_oracle_check(args) -> int:
    if args.trials < 1:
        raise CliError(f"--trials must be at least 1, got {args.trials}")
    if args.max_actions < 2:
        raise CliError(f"--max-actions must be at least 2, got {args.max_actions}")
    rng = np.random.default_rng(args.seed)
    worst = {"vs_quadrature": 0.0, "two_action_vs_quadrature": 0.0, "vs_exact": 0.0}
    grid = GridSpec(n=args.quad_points)
    for _ in range(args.trials):
        n_actions = int(rng.integers(2, args.max_actions + 1))
        means = rng.uniform(-5.0, 5.0, size=(2, n_actions))
        sigmas = rng.uniform(0.1, 1.0, size=(2, n_actions))
        table = BeliefTable(
            means, sigmas**2, gamma=float(rng.choice((0.9, 0.95))),
            sigma_w=args.sigma_w, variance_floor=1e-300,
        )
        tau = Transition(0, 0, float(rng.uniform(-1, 1)), 1)
        res = adfq_update(table, tau)
        _, q_mean, _ = quadrature_log_moments(table, tau, grid)
        err = abs(res.new_mean - q_mean) / (1.0 + abs(q_mean))
        worst["vs_quadrature"] = max(worst["vs_quadrature"], err)
        if n_actions == 2 and args.sigma_w == 0.0:
            e_mean, _ = exact_two_action_moments(table, tau)
            worst["two_action_vs_quadrature"] = max(
                worst["two_action_vs_quadrature"],
                abs(e_mean - q_mean) / (1.0 + abs(q_mean)),
            )
            worst["vs_exact"] = max(
                worst["vs_exact"], abs(res.new_mean - e_mean) / (1.0 + abs(e_mean))
            )
    print(f"configurations: {args.trials} (seed {args.seed})")
    print(f"analytic vs quadrature, max relative mean error : {worst['vs_quadrature']:.3e}")
    print(f"closed form vs quadrature, max relative error   : {worst['two_action_vs_quadrature']:.3e}")
    print(f"analytic vs closed form, max relative error     : {worst['vs_exact']:.3e}")
    return 0


def _cmd_solve(args) -> int:
    mdp = _domain_spec(args).build()
    q = optimal_q(mdp, tol=args.tol)
    policy = greedy_policy(q)
    print("state,action,qstar,greedy")
    for s in range(mdp.n_states):
        label = mdp.state_labels[s] if mdp.state_labels else str(s)
        for a in range(mdp.n_actions):
            name = mdp.action_labels[a] if mdp.action_labels else str(a)
            mark = "*" if policy[s] == a else ""
            print(f"{label},{name},{q[s, a]:.10f},{mark}")
    return 0


COMMANDS = {
    "update-demo": _cmd_update_demo,
    "convergence": _cmd_convergence,
    "learn": _cmd_learn,
    "oracle-check": _cmd_oracle_check,
    "solve": _cmd_solve,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        if args.command in ("convergence", "learn", "oracle-check") and args.seed is None:
            raise CliError(f"{args.command} requires --seed (reproducibility by default)")
        return COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
