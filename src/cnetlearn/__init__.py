"""Cutset networks over binary data: exact-score greedy structure
learning, mixtures by structural EM, and compilation to explicit
sum-product circuits."""

from .clt import (
    ChowLiuTree,
    clt_bd_score,
    clt_log_density_rows,
    clt_log_likelihood,
    clt_mpe,
    clt_param_count,
    clt_sample,
    learn_clt,
    mutual_information,
)
from .cnet import (
    CutsetNetwork,
    DecisionNode,
    Leaf,
    LearnerConfig,
    cnet_log_density_rows,
    cnet_mpe,
    cnet_sample,
    information_gain,
    learn_cnet,
    select_best_candidates,
    select_best_cut,
)
from .circuit import (
    Circuit,
    CircuitSize,
    IndicatorLeaf,
    ProductNode,
    SumNode,
    check_decomposable,
    check_deterministic,
    check_smooth,
    circuit_log_values,
    circuit_size,
    circuit_values,
    compile_cnet,
    dump_circuit,
    make_circuit,
)
from .data import DatasetError, WeightedDataset, load_csv, restrict, save_csv
from .mixture import (
    Mixture,
    e_step,
    kmeans_init,
    learn_sem,
    m_step,
    mixture_log_density_rows,
)
from .numerics import log_beta, log_gamma, log_sum_exp_rows
from .scores import (
    BD,
    BIC,
    ScoreConfig,
    SumNodeCounts,
    bd_cnet,
    bd_sum_node,
    bic_cnet,
    evaluate_cut,
    structure_param_count,
)
from .serialize import load_model, model_from_dict, model_to_dict, save_model

__version__ = "0.1.0"
