"""Exact inference and sensitivity analysis for discrete Bayesian networks.

The package computes, for a posterior probability of interest, its exact
functional form in one or several network parameters — a quotient of linear
functions in the one-parameter case, multilinear coefficient maps in the
n-parameter case — using junction-tree propagation, and verifies everything
against a brute-force enumeration oracle.
"""

from .errors import (BnsenseError, CliqueMembershipError, DegenerateParameterError,
                     DependentParametersError, ImpossibleEvidenceError,
                     InconsistentPotentialError, NetworkFormatError, RankDeficiencyError,
                     UndefinedPointError)
from .functions import (LinearCoeffs, MultilinearFunction, SensitivityFunction,
                        derivative, evaluate, evaluate_multilinear)
from .network import (Evidence, Network, ParameterRef, QueryRef, Variable,
                      apply_parameter, covary_row, enumerate_parameters, format_parameter,
                      load_network, network_from_dict, network_to_dict)
from .jtree import JunctionTree, PropagationStats, build_junction_tree
from .propagation import (collect, distribute, enter_finding, evidence_probability,
                          infer_marginal, marginal, propagate_full, replay,
                          retract_finding)
from .oneway import (OneParamAnalysis, OneWayAnalysis, all_outputs_one_param,
                     one_output_all_params_m1, one_output_all_params_m2,
                     relevant_parameters)
from .nway import (NWayResult, check_independent, extra_propagation_budget,
                   general_nway, same_clique_nway)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
