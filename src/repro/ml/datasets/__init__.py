"""Datasets: synthetic generators, paper-analog registry, LIBSVM I/O."""

from repro.ml.datasets.loader import (
    format_libsvm,
    parse_libsvm,
    read_libsvm,
    write_libsvm,
)
from repro.ml.datasets.registry import (
    DatasetSpec,
    a_family_names,
    available_datasets,
    get_spec,
    load_dataset,
    table1_dataset_names,
)
from repro.ml.datasets.synthetic import (
    Dataset,
    concentric_circles,
    interaction_boundary,
    linear_boundary,
    scaled_signal_boundary,
    two_gaussians,
)

__all__ = [
    "format_libsvm",
    "parse_libsvm",
    "read_libsvm",
    "write_libsvm",
    "DatasetSpec",
    "a_family_names",
    "available_datasets",
    "get_spec",
    "load_dataset",
    "table1_dataset_names",
    "Dataset",
    "concentric_circles",
    "interaction_boundary",
    "linear_boundary",
    "scaled_signal_boundary",
    "two_gaussians",
]
