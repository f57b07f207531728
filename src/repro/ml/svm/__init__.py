"""From-scratch SVM training and models (LIBSVM substitute)."""

from repro.ml.svm.metrics import accuracy
from repro.ml.svm.model import SVMModel, make_linear_model
from repro.ml.svm.persistence import load_model, model_from_dict, model_to_dict, save_model
from repro.ml.svm.scaling import MinMaxScaler
from repro.ml.svm.smo import SMOConfig, SMOTrainer, train_svm

__all__ = [
    "accuracy",
    "SVMModel",
    "make_linear_model",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "save_model",
    "MinMaxScaler",
    "SMOConfig",
    "SMOTrainer",
    "train_svm",
]
