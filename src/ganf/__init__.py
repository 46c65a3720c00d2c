"""Graph-augmented normalizing flows for multi-series density estimation,
DAG structure learning, and anomaly detection."""

from .dag import (LagrangianState, acyclicity, acyclicity_grad,
                  augmented_lagrangian, dual_penalty_update, threshold_dag)
from .flow import CouplingBlock, FlowStack, MafBlock
from .model import DensityReport, GanfModel
from .tensor import GradientTape, Tensor
from .training import TrainConfig, checkpoint_load, checkpoint_save, train

__all__ = [
    "CouplingBlock", "DensityReport", "FlowStack", "GanfModel",
    "GradientTape", "LagrangianState", "MafBlock", "Tensor", "TrainConfig",
    "acyclicity", "acyclicity_grad", "augmented_lagrangian",
    "checkpoint_load", "checkpoint_save", "dual_penalty_update",
    "threshold_dag", "train",
]

__version__ = "0.1.0"
