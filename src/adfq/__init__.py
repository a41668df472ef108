"""Bayesian Q-learning via assumed density filtering.

Gaussian beliefs over tabular Q-values, updated per transition by
moment matching the max-of-Gaussians posterior; exact and quadrature
reference posteriors; benchmark MDPs; and a seeded experiment harness.
"""

from .beliefs import (
    BeliefTable,
    GaussianBelief,
    Transition,
    conjugate_pair,
    td_components,
    terminal_components,
)
from .engine import (
    ActionBranch,
    UpdateResult,
    adfq_update,
    apply_update,
    mixture_moments,
    mixture_weights,
    qlearning_limit_target,
    solve_peak_mean,
)
from .envs import (
    DEFAULT_MAZE,
    TabularMdp,
    build_arms_mdp,
    build_loop,
    build_maze,
    greedy_policy,
    optimal_q,
    step,
)
from .harness import (
    AgentSpec,
    DomainSpec,
    EvalRecord,
    ExperimentConfig,
    make_agent,
    rmse,
    run_convergence,
    run_learning,
)
from .posterior import (
    GridSpec,
    NormalizerUnderflowError,
    exact_two_action_moments,
    posterior_unnorm_pdf_grid,
    quadrature_log_moments,
)
from .agents import (
    AdfqAgent,
    AdfqNumericAgent,
    EpisodeRunner,
    PolicySpec,
    QLearningAgent,
    QTable,
    agent_step,
    qlearning_update,
    select_action,
)

__version__ = "0.1.0"
