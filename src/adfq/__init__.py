"""Bayesian Q-learning via assumed density filtering.

Gaussian beliefs over tabular Q-values, updated per transition by
moment matching the max-of-Gaussians posterior; exact and quadrature
reference posteriors; benchmark MDPs; and a seeded experiment harness.
"""

from .beliefs import (
    BeliefTable,
    BranchComponents,
    GaussianBelief,
    Transition,
    td_components,
    terminal_components,
)
from .engine import (
    ActionBranch,
    UpdateResult,
    adfq_update,
    apply_update,
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
    DomainSpec,
    EvalRecord,
    ExperimentConfig,
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
    quadrature_moments,
)
from .agents import (
    AdfqAgent,
    AdfqNumericAgent,
    EpisodeRunner,
    PolicySpec,
    QLearningAgent,
    QTable,
    agent_step,
    make_agent,
    qlearning_update,
    select_action,
)

__version__ = "0.1.0"
