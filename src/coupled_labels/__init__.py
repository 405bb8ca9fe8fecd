"""Desk-scale laboratory for sparse label-coupling refinement in multilabel
classification: stratified folds, asymmetric losses, a trainable label graph,
and the evaluation stack around them."""

# numpy 2 imports numpy.random on first use; every pipeline stage draws from
# it, so it loads with the package instead of inside the first stage's time
import numpy.random  # noqa: F401

from .datamodel import (
    ConfigError,
    CoupledLabelsError,
    DataFormatError,
    Dataset,
    ExperimentConfig,
    config_from_dict,
    load_dataset,
    save_dataset,
)

__all__ = [
    "ConfigError",
    "CoupledLabelsError",
    "DataFormatError",
    "Dataset",
    "ExperimentConfig",
    "config_from_dict",
    "load_dataset",
    "save_dataset",
]

__version__ = "0.1.0"
