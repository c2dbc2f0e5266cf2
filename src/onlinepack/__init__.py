"""On-the-fly stochastic-gradient policies for online stochastic packing."""

from .engine import (MemoTable, ParamBundle, SolverConfig, conditional_draws,
                     decide_pen, recursive_R, run_algorithm1_explicit,
                     sample_index_set, stochastic_grad_component,
                     theory_params, theta_default)
from .model import (EMPTY_PREFIX, ExplicitScenarioTree, InstanceSpec,
                    LoadedInstance, Prefix, Readout, SimulatorHandle,
                    TreeBuilder, demo_tree, derive_structure_constants,
                    generate_nrm, load_instance, save_instance,
                    tree_as_simulator)
from .oracle import (EvalReport, eval_policy_exact, eval_policy_mc,
                     solve_lp_explicit, solve_pack_dp, solve_pen_explicit,
                     solve_pen_lp)
from .penalty import (aggregate_violation, eval_f, eval_f_theta,
                      exact_grad_f_theta, huber, huber_deriv)
from .policies import (EpisodeContext, FeasState, feas_table, floor_policy,
                       mwm_scaled_epsilon, new_episode_context, policy_is,
                       policy_lp, policy_mmo_greedy, policy_nrm,
                       round_bernoulli)

__version__ = "0.1.0"
