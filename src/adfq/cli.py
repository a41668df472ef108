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
exactly, as argparse takes no abbreviation of a flag, in a file or on
the command line; config files do not nest, so a file may not set
``config``. The defaults of the flags that set a field of
``ExperimentConfig``, ``AgentSpec``, ``PolicySpec`` or ``DomainSpec``
come from there, and ``solve --tol`` from ``optimal_q``, so the CLI and
the library run the same experiment for the same settings; the domain
(``loop``), the horizons and ``convergence --agents adfq,qlearning`` are
the CLI's own defaults. Experiment subcommands require ``--seed`` so
that no run is accidentally unreproducible. Exit codes: 0 success, 2
configuration error, 1 runtime failure. A reader that closes stdout
early (``| head``) ends the run quietly, with 0, as it ends a filter.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from pathlib import Path

import numpy as np

from .agents import AGENT_KINDS, PolicySpec
from .beliefs import BeliefTable, Transition
from .engine import adfq_update
from .envs import greedy_policy, optimal_q
from .harness import (
    DOMAIN_NAMES,
    AgentSpec,
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


def _add_domain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domain", choices=DOMAIN_NAMES, default="loop", help="bundled domain")
    p.add_argument("--slip", type=float, default=DomainSpec.slip, help="action slip probability")
    # these three help texts state the default the library picks; with
    # SUPPRESS the formatter adds no "(default: None)" to them, and an
    # absent flag sets no attribute, so ``_domain_spec`` leaves it out
    p.add_argument("--n-arms", type=int, default=argparse.SUPPRESS,
                   help=f"arms for the arms domain (default: {DomainSpec('arms').n_arms})")
    p.add_argument("--maze-file", type=str, default=argparse.SUPPRESS,
                   help="maze layout file (default: bundled maze)")
    p.add_argument("--gamma", type=float, default=argparse.SUPPRESS,
                   help="discount override (default: domain standard)")


def _add_sigma_w_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma-w", type=float, default=AgentSpec.sigma_w,
                   help="TD target noise std (Q-value units)")


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    _add_sigma_w_flag(p)
    p.add_argument("--init-variance", type=float, default=AgentSpec.init_variance,
                   help="initial belief variance")
    p.add_argument("--init-mean-low", type=float, default=AgentSpec.init_mean_range[0],
                   help="low end of the uniform initial-mean interval")
    p.add_argument("--init-mean-high", type=float, default=AgentSpec.init_mean_range[1],
                   help="high end of the uniform initial-mean interval")
    p.add_argument("--variance-floor", type=float, default=AgentSpec.variance_floor,
                   help="lower clamp on belief variances")
    p.add_argument("--alpha0", type=float, default=AgentSpec.alpha0,
                   help="Q-learning initial learning rate")
    p.add_argument("--n0", type=float, default=AgentSpec.n0,
                   help="Q-learning schedule offset: alpha0*(n0+1)/(n0+t)")
    p.add_argument("--grid-points", type=int, default=AgentSpec.grid_points,
                   help="quadrature grid size for the numeric agent")


def _add_experiment_flags(p: argparse.ArgumentParser, default_horizon: int) -> None:
    p.add_argument("--horizon", type=int, default=default_horizon, help="learning steps")
    # SUPPRESSed as the domain flags are: their help texts say what an absent flag means
    p.add_argument("--eval-every", type=int, default=argparse.SUPPRESS,
                   help="evaluation cadence (default horizon/100)")
    p.add_argument("--trials", type=int, default=ExperimentConfig.n_trials,
                   help="independent trials")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="experiment seed (required for reproducibility)")
    p.add_argument("--jobs", type=int, default=ExperimentConfig.jobs,
                   help="trial-level worker processes")
    p.add_argument("--out", type=str, default=argparse.SUPPRESS,
                   help="output directory (default: $ADFQ_OUTPUT_DIR or '.')")


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    default_policy = {v: k for k, v in POLICY_FLAGS.items()}[AgentSpec.policy.kind]
    p.add_argument("--policy", choices=sorted(POLICY_FLAGS), default=default_policy,
                   help="action-selection policy")
    p.add_argument("--epsilon", type=float, default=PolicySpec.epsilon,
                   help="exploration probability")
    p.add_argument("--temperature", type=float, default=PolicySpec.temperature,
                   help="Boltzmann temperature")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adfq",
        description="Bayesian Q-learning with assumed density filtering",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, formatter_class=fmt, help=help_text, allow_abbrev=False)
        p.add_argument("--config", default=argparse.SUPPRESS, help="flat key=value config file")
        return p

    p = add_command("update-demo", "print one belief update with branch diagnostics")
    p.add_argument("--prior", type=str, default="0:1", help="prior belief as mean:variance")
    p.add_argument("--next", dest="next_beliefs", type=str, default="-2:2,-2:0.5,4.5:0.5",
                   help="next-state beliefs as mean:variance, comma separated")
    p.add_argument("--reward", type=float, default=0.0, help="observed reward")
    p.add_argument("--gamma", type=float, default=0.9, help="discount factor")
    _add_sigma_w_flag(p)
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
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="sweep seed (required)")
    p.add_argument("--max-actions", type=int, default=10, help="largest action set")
    _add_sigma_w_flag(p)
    p.add_argument("--quad-points", type=int, default=4001,
                   help="grid size for the quadrature reference")

    p = add_command("solve", "print the optimal Q-table of a domain")
    _add_domain_flags(p)
    solver_tol = inspect.signature(optimal_q).parameters["tol"].default
    p.add_argument("--tol", type=float, default=solver_tol, help="value-iteration residual")
    return parser


def _config_tokens(path: Path) -> list[str]:
    """``--key=value`` tokens for the ``key = value`` lines of ``path``."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    tokens = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "config":
            raise ValueError(f"{path}:{line_no}: config files do not nest")
        tokens.append(f"--{key}={value}")
    return tokens


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``, reading ``--config FILE`` values as if given first.

    The explicit flags are parsed alone first, so an unknown one exits
    there. The file's tokens then go right after the subcommand, where
    the subcommand's parser reads them and explicit flags, which it
    reads later, override them. A token left over from that pass can
    only come from the file, as every explicit flag was known to the
    first pass. Argparse converts and checks every value; a bad one
    exits with status 2.
    """
    args = parser.parse_args(argv)
    if "config" not in vars(args):
        return args
    path = Path(args.config)
    args, extra = parser.parse_known_args(argv[:1] + _config_tokens(path) + argv[1:])
    if extra:
        key = extra[0][2:].split("=", 1)[0]
        raise ValueError(f"{path}: unknown config key {key!r}")
    return args


def _parse_belief(text: str) -> tuple[float, float]:
    try:
        mean, variance = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"expected mean:variance, got {text!r}") from exc
    if not variance > 0.0:
        raise ValueError(f"belief variance must be positive, got {text!r}")
    return mean, variance


def _quad_grid(points: int) -> GridSpec:
    try:
        return GridSpec(n=points)
    except ValueError as exc:
        raise ValueError(f"{exc} (quad_points={points})") from None


def _domain_spec(args: argparse.Namespace) -> DomainSpec:
    given = vars(args)
    kw = {key: given[key] for key in ("n_arms", "gamma") if key in given}
    if "maze_file" in given:
        try:
            kw["layout"] = Path(args.maze_file).read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot read maze file: {exc}") from exc
    return DomainSpec(name=args.domain, slip=args.slip, **kw)


def _experiment_config(args, agents, policy) -> ExperimentConfig:
    return ExperimentConfig(
        domain=_domain_spec(args),
        horizon=args.horizon,
        seed=args.seed,
        agents=agents,
        agent_spec=AgentSpec(
            policy, sigma_w=args.sigma_w, init_variance=args.init_variance,
            init_mean_range=(args.init_mean_low, args.init_mean_high),
            variance_floor=args.variance_floor, alpha0=args.alpha0, n0=args.n0,
            grid_points=args.grid_points,
        ),
        eval_every=getattr(args, "eval_every", ExperimentConfig.eval_every),
        n_trials=args.trials,
        jobs=args.jobs,
        output_dir=getattr(args, "out", ExperimentConfig.output_dir),
    )


def _cmd_update_demo(args) -> int:
    prior = _parse_belief(args.prior)
    targets = [_parse_belief(tok) for tok in args.next_beliefs.split(",") if tok]
    if not targets:
        raise ValueError("--next needs at least one mean:variance entry")
    n = len(targets)
    means = np.array([[prior[0]] * n, [t[0] for t in targets]])
    variances = np.array([[prior[1]] * n, [t[1] for t in targets]])
    # the floor clamps only writes, and update-demo writes nothing back
    table = BeliefTable(means, variances, args.gamma, args.sigma_w, variance_floor=variances.min())
    tau = Transition(s=0, a=0, r=args.reward, s_next=1)
    grid = _quad_grid(args.quad_points)
    result = adfq_update(table, tau)
    print(f"prior: mean {prior[0]:+.6f}  variance {prior[1]:.6e}")
    print(f"observed reward {args.reward:+.4f}, gamma {args.gamma}, sigma_w {args.sigma_w}")
    print()
    header = (
        f"{'b':>3} {'target_m':>10} {'target_v':>12} {'log_c':>12} {'mu_bar':>10} "
        f"{'var_bar':>12} {'mu*':>10} {'var*':>12} {'log_k*':>12} {'weight':>9}"
    )
    print(header)
    for br in result.branches:
        print(
            f"{br.b:>3} {br.m:>10.5f} {br.v:>12.5e} {br.log_c:>12.6g} "
            f"{br.mu_bar:>10.5f} {br.var_bar:>12.5e} {br.mu_star:>10.5f} {br.var_star:>12.5e} "
            f"{br.log_k_star:>12.5f} {br.weight:>9.6f}"
        )
    if len(result.peaks) < len(result.ms):
        print("nan rows: branches skipped at weight exactly 0, peaks not solved")
    print()
    print(f"analytic update : mean {result.new_mean:+.8f}  variance {result.new_variance:.8e}")
    _, q_mean, q_var = quadrature_log_moments(table, tau, grid)
    print(f"quadrature ref  : mean {q_mean:+.8f}  variance {q_var:.8e}")
    if n == 2:
        e_mean, e_var = exact_two_action_moments(table, tau)
        print(f"exact two-action: mean {e_mean:+.8f}  variance {e_var:.8e}")
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
    policy = PolicySpec(
        POLICY_FLAGS[args.policy], epsilon=args.epsilon, temperature=args.temperature
    )
    config = _experiment_config(args, (args.agent,), policy)
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
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.max_actions < 2:
        raise ValueError(f"--max-actions must be at least 2, got {args.max_actions}")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    # per two-action draw: (closed form vs quadrature, analytic vs closed form)
    closed_errs: list[tuple[float, float]] = []
    grid = _quad_grid(args.quad_points)
    # relative variance error |analytic - quadrature| / quadrature, by action count
    var_errs: dict[int, list[float]] = {}
    for _ in range(args.trials):
        n_actions = int(rng.integers(2, args.max_actions + 1))
        means = rng.uniform(-5.0, 5.0, size=(2, n_actions))
        sigmas = rng.uniform(0.1, 1.0, size=(2, n_actions))
        table = BeliefTable(
            means, sigmas**2, gamma=float(rng.choice((0.9, 0.95))), sigma_w=args.sigma_w
        )
        tau = Transition(0, 0, float(rng.uniform(-1, 1)), 1)
        res = adfq_update(table, tau)
        _, q_mean, q_var = quadrature_log_moments(table, tau, grid)
        err = abs(res.new_mean - q_mean) / (1.0 + abs(q_mean))
        var_errs.setdefault(n_actions, []).append(abs(res.new_variance - q_var) / q_var)
        worst = max(worst, err)
        if n_actions == 2:
            e_mean, _ = exact_two_action_moments(table, tau)
            closed_errs.append((
                abs(e_mean - q_mean) / (1.0 + abs(q_mean)),
                abs(res.new_mean - e_mean) / (1.0 + abs(e_mean)),
            ))
    vs_quad, vs_exact = [f"{max(errs):.3e}" for errs in zip(*closed_errs)] or ["n/a", "n/a"]
    print(f"configurations: {args.trials} (seed {args.seed})")
    print(f"analytic vs quadrature, max relative mean error : {worst:.3e}")
    print(f"closed form vs quadrature, max relative error   : {vs_quad}")
    print(f"analytic vs closed form, max relative error     : {vs_exact}")
    all_errs = np.concatenate(list(var_errs.values()))
    quartiles = " ".join(f"{q:.3e}" for q in np.quantile(all_errs, (0.25, 0.5, 0.75)))
    print(f"analytic vs quadrature, max relative variance error : {all_errs.max():.3e}")
    print(f"analytic vs quadrature, variance error quartiles    : {quartiles}")
    print("analytic vs quadrature, median variance error by |A|:")
    for n_actions, errs in sorted(var_errs.items()):
        print(f"  |A| = {n_actions:>2}: {np.median(errs):.3e} ({len(errs)} configurations)")
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
        if args.command in ("convergence", "learn", "oracle-check") and "seed" not in vars(args):
            raise ValueError(f"{args.command} requires --seed (reproducibility by default)")
        code = COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout goes to devnull so that the interpreter's final flush of
        # what is still buffered does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
